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
real matrix A acting on the Hermitian coordinates of states. In a plane, the
pairs with one m = l - l' and s = |l| + |l'| see one function rr^s e^{i m phi}
times the envelope. The planes differ only through the Gouy phases, which
turn the (Re, Im) coordinates of a pair a, b by (|l_a| - |l_b|) arctan(zeta).
The map never forms A: it keeps only its factors, taken through this
structure and through the grid's quarter-turn symmetry, which splits the
factorization into three classes and needs the distinct functions at one
pixel per orbit (:attr:`MeasurementMap.svd`).
"""

from __future__ import annotations

import functools
import io
import math
import reprlib
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qstate import DensityMatrix, ModeBasis, _triu, hermitian_to_coords

__all__ = [
    "ScanGeometry",
    "MeasurementMap",
    "IntensityScan",
    "ScanFormatError",
    "DarkScanError",
    "build_measurement_map",
    "independent_detections",
    "simulate_scan",
    "write_scan_csv",
    "read_scan_csv",
]

# First four planes match the experimental positions; the tail extends the
# list with distinct arctan values so Gouy phases stay non-degenerate.
DEFAULT_PLANE_POOL = (0.0, 1 / 3, 1 / 2, 1.0, 3 / 2, 2.0, 5 / 2, 3.0, 4.0, 5.0)

SCAN_HEADER = "plane_index,zeta,px,py,value"
SVD_RCOND = 1e-12  # singular values of A kept in its factors, relative to the largest: the map's one rank cut-off
MAX_ELL = 170  # the largest |ell| of a mode: _norm divides by |ell|!, and 171! exceeds the largest double
MAX_PIXELS_PER_SIDE = 2**30 - 1  # from 2**30, numpy cannot size the grid's n*n pixel indices at all
MAX_PHOTON_BUDGET = 1e18  # below the largest mean numpy's Poisson sampler draws from, about 9.2e18
NOISE_MODELS = ("none", "poisson")  # the noise models simulate_scan draws, the noiseless one first


class ScanFormatError(ValueError):
    """Raised on malformed intensity-scan files."""


class DarkScanError(ValueError):
    """Raised where a scan receives no light: there is nothing to solve or to draw counts from;
    also where its map's singular values pass the largest double, near the largest extent, and
    where a scan's values in its map's units are too large to square, far outside the map's scale."""


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
        step = 2.0 * float(self.extent) / self.n_pixels_per_side
        if not (self.extent > 0 and 0 < step * step < math.inf):  # the pixel area, without ** overflowing
            raise ValueError(f"extent must be positive with a positive finite pixel area, got {self.extent}")
        planes = tuple(float(z) for z in self.planes)
        if not planes:
            raise ValueError("need at least one plane")
        if not all(map(math.isfinite, planes)):
            raise ValueError(f"plane positions must be finite, got {planes}")
        if len(set(planes)) != len(planes):
            raise ValueError(f"plane positions must be distinct, got {planes}")
        object.__setattr__(self, "planes", planes)

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
        c = (np.arange(n) - (n - 1) / 2) * step  # exactly minus its mirror, and an odd grid's centre is 0
        xx, yy = np.meshgrid(c, c, indexing="xy")
        return xx.ravel(), yy.ravel()


class MapFactors(NamedTuple):
    """Thin SVD of a measurement map whose m-row left factor stays implicit.

    A = blockdiag(q, ..., q) @ u @ diag(s) @ vt[:len(s)]: q has orthonormal
    columns spanning the distinct pixel functions, and so every plane's block,
    u the left singular vectors of the small stack [q^T A_j]_j, s the descending
    singular values above SVD_RCOND * s[0], as many as the rank of A, and vt is
    square (d^2 x d^2), so its rows past len(s) span the null space of A.
    """

    q: np.ndarray
    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray


@dataclass(frozen=True)
class MeasurementMap:
    """Real matrix A with A @ coords(rho) = stacked pixel probabilities.

    A is fixed by the basis and the geometry alone: plane zeta's block is the
    Gouy-free block at the waist turned by the Gouy rotation R(arctan zeta),
    rows ordered plane-major with row-major pixels. The map keeps A only as
    its factors, :attr:`svd`, which :meth:`apply`, :meth:`least_squares` and
    :func:`independent_detections` read. They are taken on first use and
    shared by every map of an equal basis and geometry in the process, which keeps the four most
    recently used: 2.8 MB for a 101x101, four-plane camera map at l_max 4, 2.7 MB of it q, which
    every map on one grid shares. A fresh process factors each distinct map once.
    """

    basis: ModeBasis
    geometry: ScanGeometry

    @property
    def matrix(self) -> np.ndarray:
        """A, formed from the factors anew on each read and read-only; the library never reads it."""
        q, u, s, vt = self.svd
        small = ((u * s) @ vt[: len(s)]).reshape(self.geometry.n_planes, q.shape[1], -1)
        a = (q @ small).reshape(-1, vt.shape[1])
        a.setflags(write=False)
        return a

    def apply(self, rho: DensityMatrix) -> np.ndarray:
        """A @ coords(rho): with c = u diag(s) vt coords(rho), plane j's rows are q c_j."""
        q, u, s, vt = self.svd
        c = u @ (s * (vt[: len(s)] @ hermitian_to_coords(rho.entries)))
        return (c.reshape(self.geometry.n_planes, -1) @ q.T).ravel()

    @property
    def svd(self) -> MapFactors:
        """Read-only factors of A, shared by every map of an equal basis and geometry (:func:`_factorize`)."""
        return _factorize(self.basis, self.geometry)

    def least_squares(self, scan: IntensityScan) -> LeastSquares:
        """0.5 ||A x - p||^2 = 0.5 ||W x - b||^2 + f_res, W = diag(s) vt, for the
        scan's values p, over the map's k = len(s) singular values (:class:`MapFactors`).

        vt holds their rows of V^T and ``null`` the rows past them, which span
        the null space of A; b = U_k^T p, f_res = 0.5 ||p - U_k U_k^T p||^2 is
        the part of p no state fits, and x = A^+ p = vt^T (b / s). The m-row U
        is never formed: with c_j = q^T p_j, 2 f_res is the sum over the planes
        of ||p_j - q c_j||^2 plus ||c - u_k b||^2. These residuals are taken
        directly, so f_res, the objective and its gradient W^T (W x - b) have no
        cancellation, however small the residual is. The model is in units of 2^e,
        e = frexp(s[0])[1]: s and p are scaled by 2^-e, exactly, before squaring.
        Raises DarkScanError when the map keeps no singular value (s is empty): no
        pixel sees light, and every estimator reads the map through this model; and
        when ||p||^2 in these units could overflow, a scan far outside the map's scale.
        """
        if scan.geometry != self.geometry:
            raise ValueError(f"scan geometry {scan.geometry} does not match the map's {self.geometry}")
        q, u, s, vt = self.svd
        if not len(s):
            raise DarkScanError("measurement map is identically zero: no pixel sees light")
        e = math.frexp(s[0])[1]
        with np.errstate(over="ignore"):  # a value past the largest double reads inf, and is refused below
            s, planes = np.ldexp(s, -e), np.ldexp(scan.values, -e).reshape(self.geometry.n_planes, -1)
        if planes.max() > math.sqrt(sys.float_info.max / planes.size):  # past it ||p||^2 could overflow
            raise DarkScanError("the scan's values overflow the model at this extent")
        c = planes @ q
        b = u.T @ c.ravel()
        inside = c.ravel() - u @ b
        outside = planes - c @ q.T
        f_res = 0.5 * (float(np.vdot(outside, outside)) + float(inside @ inside))
        return LeastSquares(s, vt[: len(s)], b, f_res, vt[: len(s)].T @ (b / s), vt[len(s) :], e)


class LeastSquares(NamedTuple):
    """A scan's rank-cut least-squares model, from :meth:`MeasurementMap.least_squares`."""

    s: np.ndarray
    vt: np.ndarray
    b: np.ndarray
    f_res: float
    x: np.ndarray
    null: np.ndarray
    e: int


@dataclass(frozen=True)
class IntensityScan:
    """Stacked pixel values, plane-major with row-major pixels per plane."""

    geometry: ScanGeometry
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        expect = self.geometry.n_pixels * self.geometry.n_planes
        if values.shape != (expect,):
            raise ValueError(f"scan length {values.shape} does not match geometry ({expect},)")
        bad = values[~np.isfinite(values)]
        if bad.size:
            raise ValueError(f"intensity values must be finite, got {float(bad[0])!r}")
        bad = values[values < 0]
        if bad.size:
            raise ValueError(f"intensity values must be nonnegative, got {float(bad[0])!r}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _norm(ell: int) -> float:
    return math.sqrt(2.0 ** (abs(ell) + 1) / (math.pi * math.factorial(abs(ell))))


# Orthonormal rows over the values (f(x), f(Rx), f(R^2 x), f(R^3 x)) of a pixel
# functional f on a quarter-turn orbit. For a coordinate of frequency m,
# f(R^2 x) = (-1)^m f(x), and f(Rx) = i^m f(x) if m is even, so f is orthogonal
# to all rows but row 0 if m = 0 (mod 4), row 1 if m = 2 (mod 4), rows 2-3 if odd.
_ORBIT_ROWS = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 0, -1, 0], [0, 1, 0, -1]])
_ORBIT_ROWS = _ORBIT_ROWS / np.linalg.norm(_ORBIT_ROWS, axis=1, keepdims=True)


def _pixel_functions(basis: ModeBasis, geometry: ScanGeometry, pixels: np.ndarray):
    """Distinct pixel functions at the waist at flat pixel indices (len(pixels) x f), each pair
    function's m, and each coordinate's column and scale: block[:, column] * scale is the Gouy-free block.

    With the mode amplitudes g_a = N_a rr^{|l_a|} e^{-i l_a phi}, diagonal
    coordinate a sees env |g_a|^2, and the pair a < b sqrt(2) env (Re, Im) of
    conj(g_a) g_b = N_a N_b rr^s e^{i m phi}, m = l_a - l_b, s = |l_a| + |l_b|.
    So the block holds env rr^{2|l|} once per distinct |l|, then the (Re, Im)
    of env rr^s e^{i m phi} once per distinct (m, s) among the pairs.
    """
    ells, (iu, ju) = np.array(basis.ells), _triu(basis.dim)
    norms = np.array([_norm(l) for l in ells])
    mags, diag = np.unique(np.abs(ells), return_inverse=True)
    width = 2 * mags[-1] + 1  # s < width, so m * width + s tells the pairs' (m, s) apart
    keys, pair = np.unique((ells[iu] - ells[ju]) * width + mags[diag[iu]] + mags[diag[ju]], return_inverse=True)
    m, s = np.divmod(keys, width)
    column = np.concatenate([diag, len(mags) + 2 * np.repeat(pair, 2) + np.tile([0, 1], len(pair))])
    scale = np.concatenate([norms**2, np.repeat(math.sqrt(2.0) * norms[iu] * norms[ju], 2)])
    xx, yy = (c[pixels] for c in geometry.pixel_centers())
    rr, phi = np.hypot(xx, yy)[:, None], np.arctan2(yy, xx)[:, None]
    with np.errstate(over="ignore"):  # from rr ~ 1e154, rr * rr is inf, and exp(-inf) = 0 is the exact envelope
        env = np.exp(-2.0 * rr * rr) * geometry.pixel_area
    rr = np.where(env > 0, rr, 0.0)  # where the envelope underflows, no rr^s overflow makes 0 * inf
    block = np.hstack([env * rr ** (2 * mags), (env * rr**s * np.exp(1j * phi * m)).view(float)])
    return block, m, column, scale


@functools.lru_cache(maxsize=1)  # 1: a run's maps, one per Z or a reconstruct's two, share one grid
def _waist_factors(basis: ModeBasis, n: int, extent: float) -> tuple[np.ndarray, list]:
    """q, and each frequency class's coordinates and T_c with its first column of q: the factors of
    the map up to its planes, so every plane list on the n x n grid of ``extent`` shares them.

    A quarter turn of the grid turns a function of frequency m by i^m, so the distinct functions
    are evaluated at one pixel per orbit. Over the orbits each class's rows of _ORBIT_ROWS see only
    its functions F_c = Q_c R_c (thin QR), q holds each Q_c put back on the orbit pixels, and T_c, a
    gather of R_c's columns scaled by N_a^2 or sqrt(2) N_a N_b, is its Gouy-free block Q_c T_c.
    """
    grid = np.arange(n * n).reshape(n, n)  # np.rot90(grid, k)[iy, ix] is pixel R^k (iy, ix)
    orbits = np.array([np.rot90(grid, k)[: n // 2, : (n + 1) // 2].ravel() for k in range(4)])
    centre = np.arange(n * n // 2, n * n // 2 + n % 2)  # the centre pixel of an odd grid, in class 0
    free, fm, column, scale = _pixel_functions(basis, ScanGeometry(n, extent), np.concatenate([orbits[0], centre]))
    reps, alone = free[: orbits.shape[1]], free[orbits.shape[1] :]
    nd = free.shape[1] - 2 * len(fm)  # the diagonal functions, then whole (Re, Im) pairs
    quarter = np.array([1, 1j, -1, -1j])[np.outer(range(4), fm) % 4]  # i^(k m)
    cls = np.array([0, 2, 1, 2])[np.concatenate([np.zeros(nd, int), np.repeat(fm, 2)]) % 4]  # m = 0, 2, odd
    classes = [(np.flatnonzero(cls[column] == c), np.flatnonzero(cls == c), w, px)
               for c, w, px in zip(range(3), np.split(_ORBIT_ROWS, [1, 2]), (centre, [], [])) if c in cls]
    widths = [min(len(w) * orbits.shape[1] + len(pixel), len(fcols)) for _, fcols, w, pixel in classes]
    q, blocks = np.zeros((n * n, sum(widths))), []
    for (cols, fcols, w, pixel), k, col in zip(classes, widths, np.cumsum([0, *widths])):
        block = np.empty((len(w),) + reps.shape)  # sum_k w_k (functions at R^k x) for each representative x
        block[..., :nd] = w.sum(axis=1)[:, None, None] * reps[:, :nd]
        np.multiply((w @ quarter)[:, None], reps[:, nd:].view(complex), out=block[..., nd:].view(complex))
        block = np.vstack([*block[..., fcols], alone[: len(pixel), fcols]])  # the class's functions
        qc, rc = np.linalg.qr(block)
        on_orbits = qc[: len(qc) - len(pixel)].reshape(len(w), orbits.shape[1], k)
        q[orbits, col : col + k] = np.tensordot(w.T, on_orbits, 1)
        q[pixel, col : col + k] = qc[len(qc) - len(pixel) :]
        blocks.append((cols, np.multiply(rc[:, np.searchsorted(fcols, column[cols])], scale[cols], order="C"), col))
    return q, blocks


@functools.lru_cache(maxsize=4)  # 4: a sweep's maps, one per Z (three by default), or a reconstruct's two
def _factorize(basis: ModeBasis, geometry: ScanGeometry) -> MapFactors:
    """Read-only factors of the map of ``basis`` over ``geometry``, one frequency class at a time.

    They depend on nothing else, so equal maps share them, and maps on one grid share q and the
    T_c of :func:`_waist_factors`. The SVD of the stack [T_c R(zeta_j)]_j gives the class's share
    of u, s and vt, merged by descending s and cut at SVD_RCOND * s[0] (:class:`MapFactors`).
    """
    d, (q, blocks), row = basis.dim, _waist_factors(basis, geometry.n_pixels_per_side, geometry.extent), 0
    gouy = np.subtract(*np.abs(basis.ells)[np.array(_triu(d))])  # |l_a| - |l_b| of each pair a < b
    angles = np.array([[math.atan(zeta)] for zeta in geometry.planes])  # the pair turns by gouy * angle
    u, s, vt = np.zeros((geometry.n_planes, q.shape[1], d * d)), np.zeros(d * d), np.zeros((d * d, d * d))
    for cols, tc, col in blocks:  # col, row: the class's first column of q and row of vt
        diag = np.count_nonzero(cols < d)  # cols: diagonal coordinates, then whole (Re, Im) pairs
        stack = np.repeat(tc[None], geometry.n_planes, axis=0)  # T_c R(zeta_j), plane by plane
        turned = stack[..., diag:].view(complex)
        turned *= np.exp(1j * gouy[(cols[diag::2] - d) // 2] * angles)[:, None]
        stack = stack.reshape(-1, len(cols))
        uc, sc, vt[row : row + len(cols), cols] = np.linalg.svd(stack, full_matrices=len(stack) < len(cols))
        s[row : row + len(sc)] = sc  # s[i] goes with vt[i]: 0 past a class stack's values
        u[:, col : col + len(tc), row : row + len(sc)] = uc.reshape(geometry.n_planes, len(tc), len(sc))
        row += len(cols)
    if not np.isfinite(s).all():  # the pixels see light, but the stack's SVD passes the largest double
        raise DarkScanError("measurement map overflows at this extent: its singular values pass the largest double")
    order = np.argsort(-s, kind="stable")
    kept = order[: np.count_nonzero(s > SVD_RCOND * s.max())]  # the rank: vt's rows past it are null
    factors = MapFactors(q, u.reshape(-1, d * d)[:, kept], s[kept], vt[order])
    for f in factors:
        f.setflags(write=False)
    return factors


def build_measurement_map(basis: ModeBasis, geometry: ScanGeometry) -> MeasurementMap:
    """The measurement map of ``basis`` seen over ``geometry``."""
    return MeasurementMap(basis, geometry)


def independent_detections(mmap: MeasurementMap) -> int:
    """Numerical rank of A: len(s) of :attr:`MeasurementMap.svd`, the rank of every least-squares model.

    With the Gouy-free block B = Q T, Q spanning the distinct pixel functions
    ((d^2 + 6d - 3)/4 for a symmetric span, which bounds n_1), plane j's block
    is B R(zeta_j), and this is n_Z = rank [T R(zeta_1); ...; T R(zeta_Z)],
    whose SVD :attr:`MeasurementMap.svd` takes class by class. Every R fixes the diagonal
    coordinates and the (l, -l) pairs, where |l_a| = |l_b|, and on that
    subspace all planes see the same Gouy-free block. So no added plane can
    see the null directions H_l = |l><l| - |-l><-l| that one plane misses:
    they lie in the subspace every R fixes.
    """
    return len(mmap.svd.s)


def simulate_scan(
    rho: DensityMatrix,
    mmap: MeasurementMap,
    noise: str = "none",
    photon_budget: float | None = None,
    seed: int = 0,
) -> IntensityScan:
    """Forward-simulate a scan; optional Poisson shot noise.

    Poisson mode scales the noiseless pattern so its total equals
    ``photon_budget`` (at most MAX_PHOTON_BUDGET) expected counts, draws, and
    scales back; a scan that receives no light has no such scale and raises DarkScanError.
    """
    p = mmap.apply(rho)
    p = np.clip(p, 0.0, None)
    if noise == "none":
        return IntensityScan(mmap.geometry, p)
    if noise == "poisson":
        if photon_budget is None or not 0 < photon_budget <= MAX_PHOTON_BUDGET:
            raise ValueError(f"poisson noise requires a positive finite photon budget of at most {MAX_PHOTON_BUDGET:g}")
        total = float(p.sum())
        scale = photon_budget / total if total > 0 else math.inf
        if math.isinf(scale):
            raise DarkScanError(f"the scan receives no light: its intensities sum to {total:g}")
        counts = np.random.default_rng(seed).poisson(p * scale)
        return IntensityScan(mmap.geometry, counts / scale)
    raise ValueError(f"unknown noise model {noise!r}")


def write_scan_csv(path, scan: IntensityScan) -> None:
    geom = scan.geometry
    n = geom.n_pixels_per_side
    pixels = [f"{px},{py}," for py in range(n) for px in range(n)]
    planes = [f"{j},{zeta!r}," for j, zeta in enumerate(geom.planes)]
    rows = [plane + pixel for plane in planes for pixel in pixels]
    # distinct bit patterns, so -0.0 stays apart from 0.0; photon counts repeat, so each is formatted once
    distinct, inverse = np.unique(scan.values.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    with open(path, "w") as fh:
        fh.write("\n".join([SCAN_HEADER, *map(str.__add__, rows, text[inverse].tolist())]) + "\n")


_SCAN_ROW = np.dtype([("j", "i8"), ("zeta", "f8"), ("px", "i8"), ("py", "i8"), ("value", "f8")])


def _parsed_rows(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the non-blank body lines and their line numbers, one line at a
    time; raises ScanFormatError on the first line whose fields do not parse or
    whose pixel index does not fit in 64 bits."""
    rows, numbers = [], []
    for lineno, line in enumerate(lines, start=2):
        parts = line.split(",")
        if len(parts) != 5:
            if not line.strip():
                continue
            raise ScanFormatError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            j, zeta, px, py = int(parts[0]), float(parts[1]), int(parts[2]), int(parts[3])
            value = float(parts[4])
        except ValueError as exc:  # float() quotes the whole field, which a file can make any length
            text = str(exc)
            raise ScanFormatError(f"line {lineno}: {text if len(text) <= 150 else text[:147] + '...'}") from exc
        if not -(2**63) <= min(px, py) <= max(px, py) < 2**63:
            raise ScanFormatError(f"line {lineno}: pixel index ({px}, {py}) does not fit in 64 bits")
        rows.append((j if -(2**63) <= j < 2**63 else -1, zeta, px, py, value))  # -1: no plane has this index
        numbers.append(lineno)
    return np.array(rows, dtype=_SCAN_ROW), np.array(numbers, dtype=np.int64)


def _scan_rows(path) -> tuple[np.ndarray, np.ndarray]:
    """The data rows below a scan file's checked header, and their line numbers.

    numpy's tokenizer reads the lines unless it fails, warns or skips a blank
    line. The line loop reads those files, and those with a character that
    numpy strips around a number where int() and float() do not (\\x1c-\\x1f),
    or that str.splitlines takes as a line end where a file does not.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != SCAN_HEADER:
                raise ScanFormatError(f"line 1: expected header {SCAN_HEADER!r}, got {reprlib.repr(header)}")
            body = fh.read()
    except UnicodeDecodeError as exc:
        raise ScanFormatError(f"scan file is not UTF-8 text: {exc}") from exc
    if any(c in body for c in "\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029"):
        return _parsed_rows(io.StringIO(body).readlines())  # lines end at "\n" only
    lines = body.splitlines(keepends=True)
    del body  # one copy of the file text at a time
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no data warns; numpy 1.x reads 1.0 as an integer with a warning
            rows = np.loadtxt(lines, delimiter=",", dtype=_SCAN_ROW, comments=None, ndmin=1)
        if len(rows) == len(lines):  # row k is then on line k + 2
            return rows, np.arange(2, len(rows) + 2)
    except (ValueError, OverflowError, Warning):
        pass
    return _parsed_rows(lines)


def read_scan_csv(path, extent: float = ScanGeometry.extent) -> IntensityScan:
    """Parse the scan CSV format; raises :class:`ScanFormatError` on a file
    that is not UTF-8 text or whose grid gives ``extent`` no positive finite
    pixel area, and with the offending line number on a bad field, a
    non-finite plane position, a plane position under two indices, a
    non-finite or negative value, a pixel outside the grid, or a (plane, px,
    py) seen before. Fields take Python's int and float syntax, blank lines
    are skipped, and a bad field is reported before any other defect."""
    table, line_numbers = _scan_rows(path)
    if not table.size:
        raise ScanFormatError("scan file contains no data rows")

    def reject(row: int, problem: str):
        raise ScanFormatError(f"line {line_numbers[row]}: {problem}")

    j, zeta, px, py, values = (table[name] for name in _SCAN_ROW.names)
    # a plane's index is the order in which its position first appears
    _, first, inverse = np.unique(zeta, return_index=True, return_inverse=True)
    index = np.empty(first.size, dtype=np.int64)
    index[np.argsort(first)] = np.arange(first.size)
    bad = np.flatnonzero(~np.isfinite(zeta) | (j != index[inverse]))
    if bad.size:
        z = float(zeta[bad[0]])
        problem = f"non-finite plane position {z!r}"
        reject(bad[0], "inconsistent plane index/position" if math.isfinite(z) else problem)
    planes = tuple(zeta[np.sort(first)].tolist())
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        reject(bad[0], f"non-finite value {float(values[bad[0]])!r}")
    bad = np.flatnonzero(values < 0)
    if bad.size:
        reject(bad[0], f"negative value {float(values[bad[0]])!r}")
    n = int(px.max()) + 1
    bad = np.flatnonzero((px < 0) | (px >= n) | (py < 0) | (py >= n))
    if bad.size:
        i = bad[0]
        reject(i, f"pixel index ({px[i]}, {py[i]}) outside {n}x{n} grid")
    expected = n * n * len(planes)
    if expected < 2**63:  # else the flat indices overflow, and the row count cannot match
        flat = (j * n + py) * n + px
        seen = np.zeros(flat.size, dtype=bool)
        seen[np.unique(flat, return_index=True)[1]] = True  # first row of each pixel
        if not seen.all():
            i = np.argmin(seen)
            reject(i, f"repeats pixel ({px[i]}, {py[i]}) of plane {j[i]}")
    if table.size != expected:
        raise ScanFormatError(
            f"expected {expected} data rows for a {n}x{n} grid over {len(planes)} plane(s), got {table.size}"
        )
    grid = np.empty(flat.size)
    grid[flat] = values
    try:
        geom = ScanGeometry(n, extent, planes)
    except ValueError as exc:  # the planes were checked above, so the extent is at fault
        problem = f"extent {extent!r} gives no positive finite pixel area on the file's {n}x{n} grid"
        raise ScanFormatError(problem) from exc
    return IntensityScan(geom, grid)
