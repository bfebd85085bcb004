"""Compressive tomography of OAM photon states from camera intensity scans."""

__version__ = "0.1.0"
