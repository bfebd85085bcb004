"""Density matrices over an OAM mode set, Hermitian vectorization, and
state generation / error metrics.

The real parameterization uses the canonical Hermitian basis: the d
diagonal units first (ascending ell), then for each i < j the pair
(E_ij + E_ji)/sqrt(2) and i(E_ij - E_ji)/sqrt(2), row-major. The map is an
isometry between the Hilbert-Schmidt inner product and the Euclidean one.
"""

from __future__ import annotations

import functools
import json
import math
import re
import reprlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModeBasis",
    "DensityMatrix",
    "StateValidationError",
    "hermitian_to_coords",
    "coords_to_hermitian",
    "random_state",
    "test_state",
    "hs_error",
    "project_psd",
    "read_state_json",
]

HERMITICITY_TOL = 1e-8
PSD_EIG_TOL = 1e-10
TRACE_TOL = 1e-10
MAX_JSON_DEPTH = 500  # arrays and objects a JSON input may nest: half the default recursion limit json's parser uses

_SQRT2 = math.sqrt(2.0)


class StateValidationError(ValueError):
    """Raised when a matrix fails density-matrix invariants."""


@dataclass(frozen=True)
class ModeBasis:
    """Ordered set of distinct azimuthal indices (p = 0)."""

    ells: tuple[int, ...]

    def __post_init__(self):
        ells = tuple(int(l) for l in self.ells)
        if len(ells) == 0:
            raise ValueError("mode basis must contain at least one index")
        if len(set(ells)) != len(ells):
            raise ValueError(f"duplicate azimuthal indices in {reprlib.repr(ells)}")
        if list(ells) != sorted(ells):
            raise ValueError(f"azimuthal indices must be sorted ascending, got {reprlib.repr(ells)}")
        object.__setattr__(self, "ells", ells)

    @classmethod
    def symmetric_span(cls, ell_max: int) -> "ModeBasis":
        """{-ell_max, ..., 0, ..., ell_max}; dimension 2*ell_max + 1."""
        if ell_max < 0:
            raise ValueError(f"ell_max must be nonnegative, got {ell_max}")
        return cls(tuple(range(-ell_max, ell_max + 1)))

    @classmethod
    def nonnegative_span(cls, d: int) -> "ModeBasis":
        """{0, ..., d-1}."""
        if d < 1:
            raise ValueError(f"dimension must be positive, got {d}")
        return cls(tuple(range(d)))

    @property
    def dim(self) -> int:
        return len(self.ells)

    def index_of(self, ell: int) -> int:
        try:
            return self.ells.index(ell)
        except ValueError:
            raise ValueError(f"azimuthal index {ell} not in basis {self.ells}") from None


def _check_density(entries: np.ndarray) -> list[str]:
    """Return the list of violated density-matrix invariants (empty if valid)."""
    if not np.isfinite(entries).all():
        return ["finite entries"]  # NaN passes every comparison below
    problems = []
    if np.max(np.abs(entries - entries.conj().T)) > 1e-12:
        problems.append("hermiticity")
    else:
        eigs = np.linalg.eigvalsh(entries)
        if eigs[0] < -PSD_EIG_TOL:
            problems.append("positivity")
    if abs(np.trace(entries).real - 1.0) > TRACE_TOL or abs(np.trace(entries).imag) > TRACE_TOL:
        problems.append("unit trace")
    return problems


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix over a mode basis.

    ``validate=False`` skips the PSD/trace checks; used for estimates that
    are intentionally unconstrained (pseudoinverse reconstructions).
    """

    basis: ModeBasis
    entries: np.ndarray
    validate: bool = True

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        d = self.basis.dim
        if entries.shape != (d, d):
            raise StateValidationError(
                f"entries shape {entries.shape} does not match basis dimension {d}"
            )
        if self.validate:
            problems = _check_density(entries)
            if problems:
                raise StateValidationError(
                    "density-matrix invariants violated: " + ", ".join(problems)
                )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


@functools.cache
def _triu(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (row, column) indices of the strict upper triangle."""
    iu, ju = np.triu_indices(d, 1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def hermitian_to_coords(h: np.ndarray) -> np.ndarray:
    """Low-level isometric vectorization of a Hermitian d x d matrix.

    A stack of shape (..., d, d) maps to coordinates of shape (..., d^2),
    read from the upper triangle.
    """
    h = np.asarray(h, dtype=complex)
    if np.max(np.abs(h - np.swapaxes(h, -1, -2).conj())) > HERMITICITY_TOL:
        raise ValueError("input is not Hermitian within tolerance")
    d = h.shape[-1]
    iu, ju = _triu(d)
    x = np.empty(h.shape[:-2] + (d * d,))
    x[..., :d] = np.diagonal(h, axis1=-2, axis2=-1).real
    off = h[..., iu, ju]
    x[..., d::2] = _SQRT2 * off.real
    x[..., d + 1 :: 2] = _SQRT2 * off.imag
    return x


def coords_to_hermitian(x: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`hermitian_to_coords`: a (..., d^2) stack maps to (..., d, d)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (d * d,):
        raise ValueError(f"coords length {x.shape} does not match d^2 = {d * d}")
    iu, ju = _triu(d)
    h = np.zeros(x.shape[:-1] + (d, d), dtype=complex)
    h[..., np.arange(d), np.arange(d)] = x[..., :d]
    off = (x[..., d::2] + 1j * x[..., d + 1 :: 2]) / _SQRT2
    h[..., iu, ju] = off
    h[..., ju, iu] = off.conjugate()
    return h


def random_state(basis: ModeBasis, rank: int, seed: int | np.random.Generator) -> DensityMatrix:
    """Random rank-r density matrix from the Ginibre ensemble.

    rho = G G^dag / Tr(G G^dag) with G a d x r standard complex normal
    matrix, drawn from ``seed``: an int seeds a new generator, a Generator goes on with its own stream.
    """
    d = basis.dim
    if not 1 <= rank <= d:
        raise ValueError(f"rank must be in [1, {d}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(basis, rho)


def test_state(p: float, theta: float, basis: ModeBasis) -> DensityMatrix:
    """Rank-<=2 family p |0><0| + (1-p) |Psi><Psi|,
    |Psi> = cos(theta)|-3> + sin(theta)|3>."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
    for ell in (-3, 0, 3):
        if ell not in basis.ells:
            raise ValueError(f"basis must contain modes -3, 0, 3; missing {ell}")
    d = basis.dim
    ket0 = np.zeros(d, dtype=complex)
    ket0[basis.index_of(0)] = 1.0
    psi = np.zeros(d, dtype=complex)
    psi[basis.index_of(-3)] = math.cos(theta)
    psi[basis.index_of(3)] = math.sin(theta)
    rho = p * np.outer(ket0, ket0.conj()) + (1.0 - p) * np.outer(psi, psi.conj())
    return DensityMatrix(basis, rho)


def hs_error(a: DensityMatrix, b: DensityMatrix) -> float:
    """Squared Hilbert-Schmidt distance Tr[(a - b)^2]."""
    if a.basis.ells != b.basis.ells:
        raise ValueError("states live in different mode bases")
    diff = a.entries - b.entries
    return float(np.trace(diff @ diff).real)


def project_psd(h: np.ndarray) -> np.ndarray:
    """Nearest (Hilbert-Schmidt) PSD matrix: the eigenvalues clipped at zero."""
    h = np.asarray(h, dtype=complex)
    if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL:
        raise ValueError("input is not Hermitian within tolerance")
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


def state_to_json_dict(rho: DensityMatrix) -> dict:
    return {
        "ells": list(rho.basis.ells),
        "re": rho.entries.real.tolist(),
        "im": rho.entries.imag.tolist(),
    }


def state_from_json_dict(obj: dict) -> DensityMatrix:
    try:
        ells, re, im = obj["ells"], np.asarray(obj["re"], dtype=object), np.asarray(obj["im"], dtype=object)
        # JSON integers and numbers only: int() and float() would read 1.5 as 1, true as 1 and "0.5" as 0.5
        if type(ells) is not list or any(type(x) is not int for x in ells):
            raise ValueError(f"mode indices must be integers, got {reprlib.repr(ells)}")
        if any(type(x) not in (int, float) for x in (*re.ravel(), *im.ravel())):  # .flat stops at 32 dims
            raise ValueError("entries must be numbers")
        basis = ModeBasis(tuple(ells))
        entries = re.astype(float) + 1j * im.astype(float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise StateValidationError(f"malformed density-matrix record: {exc}") from exc
    return DensityMatrix(basis, entries)


def _load_json(text: str):
    """json.loads(text) for every JSON input; one nested deeper than MAX_JSON_DEPTH is refused before parsing."""
    depth = 0
    for token in re.findall(r'"[^"\\]*(?:\\.[^"\\]*)*"|[][{}]', text):  # a string literal's brackets are text
        depth += 1 if token in "[{" else -1 if token in "]}" else 0
        if depth > MAX_JSON_DEPTH:
            raise ValueError(f"nested deeper than {MAX_JSON_DEPTH} levels")
    return json.loads(text)


def read_state_json(path) -> DensityMatrix:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = _load_json(fh.read())
        except ValueError as exc:  # not UTF-8 text, not JSON, or nested too deeply
            raise StateValidationError(f"state file is not valid JSON: {exc}") from exc
    return state_from_json_dict(obj)
