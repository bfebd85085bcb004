"""Intensity-scan measurement model.

A camera at normalized plane position zeta = z/z_R sees, for a state rho
over azimuthal modes (p = 0), the pixel probability

    p(rr, phi, zeta) = exp(-2 rr^2) * sum_{l l'} rho_{l l'} N_l N_l'
                       * rr^{|l|+|l'|} e^{i(l-l') phi} e^{i(psi_l - psi_l')}

with rr = r/w(z), psi_l = (|l|+1) arctan(zeta) and
N_l = sqrt(2^{|l|+1} / (pi |l|!)). The constant is fixed so the continuum
integral of p over the normalized plane is 1; it equals w(z)^2 times the
position-eigenstate expectation value.

Stacking the pixel functionals over a grid and a list of planes gives the
real matrix A acting on the Hermitian coordinates of states.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .qstate import DensityMatrix, ModeBasis, hermitian_to_coords

__all__ = [
    "DEFAULT_PLANE_POOL",
    "ScanGeometry",
    "MeasurementMap",
    "IntensityScan",
    "ScanFormatError",
    "coefficient",
    "pixel_probability",
    "build_measurement_map",
    "independent_detections",
    "simulate_scan",
    "write_scan_csv",
    "read_scan_csv",
    "save_measurement_map",
    "load_measurement_map",
]

# First four planes match the experimental positions; the tail extends the
# list with distinct arctan values so Gouy phases stay non-degenerate.
DEFAULT_PLANE_POOL = (0.0, 1 / 3, 1 / 2, 1.0, 3 / 2, 2.0, 5 / 2, 3.0, 4.0, 5.0)

SCAN_HEADER = "plane_index,zeta,px,py,value"


class ScanFormatError(ValueError):
    """Raised on malformed intensity-scan files."""


def default_planes(n_planes: int) -> tuple[float, ...]:
    """Prefix of the default plane pool, extended past its end by unit steps."""
    if n_planes < 1:
        raise ValueError(f"need at least one plane, got {n_planes}")
    pool = list(DEFAULT_PLANE_POOL)
    while len(pool) < n_planes:
        pool.append(pool[-1] + 1.0)
    return tuple(pool[:n_planes])


@dataclass(frozen=True)
class ScanGeometry:
    """Square pixel grid in normalized units r/w(z), shared by all planes."""

    n_pixels_per_side: int = 19
    extent: float = 3.0
    planes: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if self.n_pixels_per_side < 1:
            raise ValueError(f"need at least one pixel per side, got {self.n_pixels_per_side}")
        if self.extent <= 0:
            raise ValueError(f"extent must be positive, got {self.extent}")
        planes = tuple(float(z) for z in self.planes)
        if len(set(planes)) != len(planes):
            raise ValueError(f"plane positions must be distinct, got {planes}")
        object.__setattr__(self, "planes", planes)

    @classmethod
    def default(cls, n_planes: int, n_pixels_per_side: int = 19, extent: float = 3.0):
        return cls(n_pixels_per_side, extent, default_planes(n_planes))

    @property
    def n_planes(self) -> int:
        return len(self.planes)

    @property
    def n_pixels(self) -> int:
        return self.n_pixels_per_side**2

    @property
    def pixel_area(self) -> float:
        return (2.0 * self.extent / self.n_pixels_per_side) ** 2

    def pixel_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened (x, y) pixel-center coordinates, row-major (y outer)."""
        n = self.n_pixels_per_side
        step = 2.0 * self.extent / n
        c = -self.extent + (np.arange(n) + 0.5) * step
        xx, yy = np.meshgrid(c, c, indexing="xy")
        return xx.ravel(), yy.ravel()


@dataclass(frozen=True)
class MeasurementMap:
    """Real matrix A with A @ coords(rho) = stacked pixel probabilities.

    The map factors itself once, on first use of :attr:`svd`, and keeps the
    factors for as long as it lives; the solvers and
    :func:`independent_detections` share them.
    """

    basis: ModeBasis
    geometry: ScanGeometry
    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        expect = (self.geometry.n_pixels * self.geometry.n_planes, self.basis.dim**2)
        if matrix.shape != expect:
            raise ValueError(f"matrix shape {matrix.shape} does not match geometry {expect}")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    def apply(self, rho: DensityMatrix) -> np.ndarray:
        return self.matrix @ hermitian_to_coords(rho.entries)

    @functools.cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (U, s, Vt) with A = U diag(s) Vt[:len(s)], s descending.

        U is thin (m x min(m, n)) and Vt is square (n x n), so the rows of
        Vt past the numerical rank span the null space of A.
        """
        m, n = self.matrix.shape
        factors = np.linalg.svd(self.matrix, full_matrices=m < n)
        for f in factors:
            f.setflags(write=False)
        return tuple(factors)


@dataclass(frozen=True)
class IntensityScan:
    """Stacked pixel values, plane-major with row-major pixels per plane."""

    geometry: ScanGeometry
    values: np.ndarray
    photon_budget: float | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        expect = self.geometry.n_pixels * self.geometry.n_planes
        if values.shape != (expect,):
            raise ValueError(f"scan length {values.shape} does not match geometry ({expect},)")
        if np.any(values < 0):
            raise ValueError("intensity values must be nonnegative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _gouy(ell: int, zeta: float) -> float:
    return (abs(ell) + 1) * math.atan(zeta)


def _norm(ell: int) -> float:
    return math.sqrt(2.0 ** (abs(ell) + 1) / (math.pi * math.factorial(abs(ell))))


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


def _plane_block(basis: ModeBasis, geometry: ScanGeometry, zeta: float) -> np.ndarray:
    """Rows of A for one plane: n_pixels x d^2, in Hermitian coordinates."""
    ells = basis.ells
    d = len(ells)
    xx, yy = geometry.pixel_centers()
    rr = np.hypot(xx, yy)
    phi = np.arctan2(yy, xx)
    env = np.exp(-2.0 * rr * rr) * geometry.pixel_area

    norms = np.array([_norm(l) for l in ells])
    gouys = np.array([_gouy(l, zeta) for l in ells])

    block = np.empty((rr.size, d * d))
    # diagonal coordinates
    for i, l in enumerate(ells):
        block[:, i] = env * norms[i] ** 2 * rr ** (2 * abs(l))
    # off-diagonal pairs (real, imag), row-major over i < j
    col = d
    sqrt2 = math.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            la, lb = ells[i], ells[j]
            amp = env * norms[i] * norms[j] * rr ** (abs(la) + abs(lb))
            phase = (la - lb) * phi + (gouys[i] - gouys[j])
            # coords carry sqrt(2)*Re(rho_ij), sqrt(2)*Im(rho_ij);
            # rho_ij conj(C_ij) + c.c. = 2 Re(rho_ij) cos + 2 Im(rho_ij) sin
            block[:, col] = sqrt2 * amp * np.cos(phase)
            block[:, col + 1] = sqrt2 * amp * np.sin(phase)
            col += 2
    return block


def build_measurement_map(basis: ModeBasis, geometry: ScanGeometry) -> MeasurementMap:
    """Assemble A over all planes; rows ordered plane-major, pixels row-major."""
    blocks = [_plane_block(basis, geometry, zeta) for zeta in geometry.planes]
    return MeasurementMap(basis, geometry, np.vstack(blocks))


def independent_detections(mmap: MeasurementMap, tol: float = 1e-8) -> int:
    """Numerical rank of A: the map's singular values above tol * sigma_max."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"relative threshold must lie in (0, 1), got {tol}")
    if mmap.matrix.size == 0:
        raise ValueError("empty measurement map")
    s = mmap.svd[1]
    return int(np.sum(s > tol * s[0]))


def simulate_scan(
    rho: DensityMatrix,
    mmap: MeasurementMap,
    noise: str = "none",
    photon_budget: float | None = None,
    seed: int = 0,
) -> IntensityScan:
    """Forward-simulate a scan; optional Poisson shot noise.

    Poisson mode scales the noiseless pattern so its total equals
    ``photon_budget`` expected counts, draws, and scales back.
    """
    p = mmap.apply(rho)
    p = np.clip(p, 0.0, None)
    if noise == "none":
        return IntensityScan(mmap.geometry, p)
    if noise == "poisson":
        if photon_budget is None or photon_budget <= 0:
            raise ValueError("poisson noise requires a positive photon budget")
        scale = photon_budget / p.sum()
        counts = np.random.default_rng(seed).poisson(p * scale)
        return IntensityScan(mmap.geometry, counts / scale, photon_budget=photon_budget)
    raise ValueError(f"unknown noise model {noise!r}")


def write_scan_csv(path, scan: IntensityScan) -> None:
    geom = scan.geometry
    n = geom.n_pixels_per_side
    with open(path, "w") as fh:
        fh.write(SCAN_HEADER + "\n")
        idx = 0
        for j, zeta in enumerate(geom.planes):
            for py in range(n):
                for px in range(n):
                    fh.write(f"{j},{float(zeta)!r},{px},{py},{float(scan.values[idx])!r}\n")
                    idx += 1


def read_scan_csv(path, n_pixels_per_side: int | None = None, extent: float = 3.0) -> IntensityScan:
    """Parse the scan CSV format; raises :class:`ScanFormatError` with the
    offending line number on malformed input: a bad field, a non-finite or
    negative value, a pixel outside the grid, or a (plane, px, py) seen
    before."""
    planes: list[float] = []
    fields: list[float] = []  # (plane, py, px, value) per data row, flattened
    blank: list[int] = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != SCAN_HEADER:
            raise ScanFormatError(f"line 1: expected header {SCAN_HEADER!r}, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.split(",")
            if len(parts) != 5:
                if not line.strip():
                    blank.append(lineno)
                    continue
                raise ScanFormatError(f"line {lineno}: expected 5 fields, got {len(parts)}")
            try:
                j = int(parts[0])
                zeta = float(parts[1])
                px, py = int(parts[2]), int(parts[3])
                value = float(parts[4])
            except ValueError as exc:
                raise ScanFormatError(f"line {lineno}: {exc}") from exc
            if j == len(planes):
                planes.append(zeta)
            elif not 0 <= j < len(planes) or planes[j] != zeta:
                raise ScanFormatError(f"line {lineno}: inconsistent plane index/position")
            fields.extend((j, py, px, value))
    if not fields:
        raise ScanFormatError("scan file contains no data rows")

    def reject(row: int, problem: str):
        line = np.setdiff1d(np.arange(2, lineno + 1), blank)[row]
        raise ScanFormatError(f"line {line}: {problem}")

    table = np.array(fields).reshape(-1, 4)
    j, py, px = table[:, :3].astype(np.int64).T
    values = table[:, 3]
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        reject(bad[0], f"non-finite value {float(values[bad[0]])!r}")
    bad = np.flatnonzero(values < 0)
    if bad.size:
        reject(bad[0], f"negative value {float(values[bad[0]])!r}")
    n = int(px.max()) + 1 if n_pixels_per_side is None else n_pixels_per_side
    bad = np.flatnonzero((px < 0) | (px >= n) | (py < 0) | (py >= n))
    if bad.size:
        i = bad[0]
        reject(i, f"pixel index ({px[i]}, {py[i]}) outside {n}x{n} grid")
    flat = (j * n + py) * n + px
    seen = np.zeros(flat.size, dtype=bool)
    seen[np.unique(flat, return_index=True)[1]] = True  # first row of each pixel
    if not seen.all():
        i = np.argmin(seen)
        reject(i, f"repeats pixel ({px[i]}, {py[i]}) of plane {j[i]}")
    if flat.size != n * n * len(planes):
        raise ScanFormatError(
            f"expected {n * n * len(planes)} data rows for a {n}x{n} grid over "
            f"{len(planes)} plane(s), got {flat.size}"
        )
    grid = np.empty(flat.size)
    grid[flat] = values
    geom = ScanGeometry(n, extent, tuple(planes))
    return IntensityScan(geom, grid)


def save_measurement_map(path, mmap: MeasurementMap) -> None:
    """JSON header line with shapes and basis, then row-major float64 data."""
    header = {
        "ells": list(mmap.basis.ells),
        "n_pixels_per_side": mmap.geometry.n_pixels_per_side,
        "extent": mmap.geometry.extent,
        "planes": list(mmap.geometry.planes),
        "shape": list(mmap.matrix.shape),
        "dtype": "<f8",
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode())
        fh.write(np.ascontiguousarray(mmap.matrix, dtype="<f8").tobytes())


def load_measurement_map(path) -> MeasurementMap:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        data = np.frombuffer(fh.read(), dtype=header["dtype"])
    matrix = data.reshape(header["shape"])
    basis = ModeBasis(tuple(header["ells"]))
    geom = ScanGeometry(header["n_pixels_per_side"], header["extent"], tuple(header["planes"]))
    return MeasurementMap(basis, geom, matrix)
