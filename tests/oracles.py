"""Scalar reference models that the tests check the library against.

Laguerre-Gauss mode amplitudes and paraxial beam parameters, in cylindrical
coordinates (r, phi, z) with the beam waist at z = 0, and the pixel
probability of a state summed mode pair by mode pair. The library's
vectorized measurement map is compared against these point by point; no
library code calls them. The state-file writer lives here too: the library
reads state files but never writes one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from oamtomo.qstate import DensityMatrix, state_to_json_dict
from oamtomo.sensor import _norm

__all__ = [
    "BeamGeometry",
    "ModeIndex",
    "TransversePoint",
    "beam_radius",
    "coefficient",
    "gouy_phase",
    "inverse_curvature",
    "lg_amplitude",
    "mode_normalization",
    "pixel_probability",
    "write_state_json",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class BeamGeometry:
    """Beam waist and wave number; the Rayleigh range is always derived.

    Defaults give z_R = 1 so z is directly z/z_R.
    """

    w0: float = 1.0
    k: float = 2.0

    def __post_init__(self):
        if self.w0 <= 0:
            raise ValueError(f"beam waist must be positive, got {self.w0}")
        if self.k <= 0:
            raise ValueError(f"wave number must be positive, got {self.k}")

    @property
    def z_R(self) -> float:
        return self.k * self.w0**2 / 2.0


@dataclass(frozen=True)
class ModeIndex:
    """Azimuthal (topological charge) and radial mode indices."""

    ell: int
    p: int = 0

    def __post_init__(self):
        if self.p < 0:
            raise ValueError(f"radial index must be nonnegative, got {self.p}")


@dataclass(frozen=True)
class TransversePoint:
    """Cylindrical sample point; phi is wrapped into [0, 2*pi)."""

    r: float
    phi: float
    z: float = 0.0

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"radial coordinate must be nonnegative, got {self.r}")
        object.__setattr__(self, "phi", self.phi % TWO_PI)


def beam_radius(g: BeamGeometry, z: float) -> float:
    """w(z) = w0 * sqrt(1 + (z/z_R)^2)."""
    return g.w0 * math.hypot(1.0, z / g.z_R)


def gouy_phase(m: ModeIndex, g: BeamGeometry, z: float) -> float:
    """(2p + |ell| + 1) * arctan(z/z_R); odd in z."""
    return (2 * m.p + abs(m.ell) + 1) * math.atan2(z, g.z_R)


def inverse_curvature(g: BeamGeometry, z: float) -> float:
    """Reciprocal wavefront curvature 1/R(z); zero at the waist.

    R(z) = z * (1 + (z_R/z)^2) diverges at z = 0, so the reciprocal is the
    quantity safe to return everywhere: 1/R = z / (z^2 + z_R^2).
    """
    return z / (z * z + g.z_R**2)


def _laguerre(p: int, alpha: float, x) -> np.ndarray | float:
    """Generalized Laguerre polynomial L_p^alpha(x) by ascending recurrence."""
    if p == 0:
        return np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else 1.0
    prev = np.ones_like(np.asarray(x, dtype=float))
    cur = 1.0 + alpha - np.asarray(x, dtype=float)
    for n in range(2, p + 1):
        prev, cur = cur, ((2 * n - 1 + alpha - x) * cur - (n - 1 + alpha) * prev) / n
    return cur if np.ndim(x) else float(cur)


def mode_normalization(m: ModeIndex) -> float:
    """sqrt(2 p! / (pi (p + |ell|)!))."""
    return math.sqrt(2.0 * math.factorial(m.p) / (math.pi * math.factorial(m.p + abs(m.ell))))


def lg_amplitude(m: ModeIndex, g: BeamGeometry, pt: TransversePoint) -> complex:
    """Complex LG_{p ell} field at a transverse point.

    Carries the full curvature phase exp(i k r^2 / (2 R(z))) even though it
    cancels in single-plane intensities, so intensity models can be checked
    against |sum_l c_l LG_l|^2 directly.
    """
    w = beam_radius(g, pt.z)
    rho = pt.r / w
    radial = (math.sqrt(2.0) * rho) ** abs(m.ell) * _laguerre(m.p, abs(m.ell), 2.0 * rho * rho)
    phase = (
        0.5 * g.k * pt.r**2 * inverse_curvature(g, pt.z)
        - m.ell * pt.phi
        - gouy_phase(m, g, pt.z)
    )
    return (
        mode_normalization(m)
        / w
        * radial
        * math.exp(-(rho * rho))
        * complex(math.cos(phase), math.sin(phase))
    )


def _gouy(ell: int, zeta: float) -> float:
    return (abs(ell) + 1) * math.atan(zeta)


def coefficient(ell: int, ell_p: int, rr: float, phi: float, zeta: float) -> complex:
    """Interference coefficient rr^{|l|+|l'|} e^{i(l-l')phi} e^{i(psi_l-psi_l')}."""
    if rr < 0:
        raise ValueError(f"normalized radius must be nonnegative, got {rr}")
    phase = (ell - ell_p) * phi + _gouy(ell, zeta) - _gouy(ell_p, zeta)
    return rr ** (abs(ell) + abs(ell_p)) * complex(math.cos(phase), math.sin(phase))


def pixel_probability(rho: DensityMatrix, rr: float, phi: float, zeta: float) -> float:
    """Normalized intensity at one camera point; real and nonnegative.

    The mode amplitudes carry e^{-i ell phi}, so the expectation value pairs
    rho_{l l'} with the conjugate coefficient C_{l' l}; this keeps the model
    identical to w(z)^2 |sum_l c_l LG_l|^2 for pure states.
    """
    ells = rho.basis.ells
    total = 0.0 + 0.0j
    for a, la in enumerate(ells):
        for b, lb in enumerate(ells):
            total += rho.entries[a, b] * _norm(la) * _norm(lb) * coefficient(lb, la, rr, phi, zeta)
    return math.exp(-2.0 * rr * rr) * total.real


def write_state_json(path, rho: DensityMatrix) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_json_dict(rho), fh)
