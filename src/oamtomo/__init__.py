"""Compressive tomography of OAM photon states from camera intensity scans."""

from .qstate import (
    DensityMatrix,
    ModeBasis,
    hs_error,
    project_psd,
    random_state,
    test_state,
)
from .sensor import (
    IntensityScan,
    MeasurementMap,
    ScanGeometry,
    build_measurement_map,
    independent_detections,
    simulate_scan,
)
from .solver import (
    ReconstructionReport,
    SolverConfig,
    reconstruct_positive,
    reconstruct_pseudoinverse,
    uniqueness_entropy,
)

__version__ = "0.1.0"
