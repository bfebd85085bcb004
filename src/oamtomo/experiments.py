"""Experiment harness: rank analysis, error sweeps, entropy sweeps, and
single reconstructions, driven by a JSON spec.

Every sweep derives per-trial seeds from the master seed and the cell/trial
indices, so identical specs produce byte-identical CSV output regardless of
execution order or worker count.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from .qstate import DensityMatrix, ModeBasis, hs_error, random_state, read_state_json, test_state
from .sensor import (
    IntensityScan,
    MeasurementMap,
    ScanGeometry,
    build_measurement_map,
    default_planes,
    independent_detections,
    read_scan_csv,
    simulate_scan,
    write_scan_csv,
)
from .solver import (
    SolverConfig,
    reconstruct_positive,
    reconstruct_pseudoinverse,
    report_to_json_dict,
    uniqueness_entropy,
)

__all__ = [
    "ExperimentSpec",
    "SpecValidationError",
    "NonConvergenceError",
    "derive_seed",
    "entropy_cell_inputs",
    "run_rank_analysis",
    "run_error_sweep",
    "run_entropy_sweep",
    "run_reconstruct",
    "run_simulate",
    "run_validate",
    "run_experiment",
]

KINDS = (
    "rank_analysis",
    "error_sweep",
    "entropy_sweep",
    "reconstruct",
    "simulate",
    "validate",
)


class SpecValidationError(ValueError):
    """Raised with a list of field-level diagnostics."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid experiment spec:\n  " + "\n  ".join(problems))


class NonConvergenceError(RuntimeError):
    """Raised in strict mode when a reconstruction fails to converge."""


def derive_seed(master: int, *indices: int) -> int:
    """Stable per-trial seed from the master seed and index path."""
    ss = np.random.SeedSequence([int(master), *[int(i) for i in indices]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class ExperimentSpec:
    """Validated view of the JSON experiment description."""

    kind: str
    basis_kind: str = "symmetric"  # "symmetric" (ell_max) or "nonnegative" (d)
    ell_max: int = 7
    d: int = 5
    n_pixels_per_side: int = 19
    extent: float = 3.0
    planes: tuple[float, ...] | None = None  # explicit list beats n_planes
    n_planes: int = 2
    z_max: int = 10
    z_values: tuple[int, ...] = (1, 2, 3)
    ranks: tuple[int, ...] = (1, 2, 4, 8, 15)
    ell_max_values: tuple[int, ...] | None = None  # dimension sweep axis
    trials: int = 50
    n_states: int = 20
    branches: tuple[str, ...] = ("positive", "pseudoinverse")
    state: dict = field(default_factory=lambda: {"kind": "random", "rank": 1})
    noise: dict = field(default_factory=lambda: {"kind": "none"})
    solver: SolverConfig = field(default_factory=SolverConfig)
    seed: int = 0
    output: str | None = None
    scan_file: str | None = None
    state_file: str | None = None
    predict_planes: tuple[float, ...] = (0.0, 1 / 3, 1 / 2, 1.0)
    compute_entropy: bool = False
    threads: int = 1
    strict: bool = False

    def basis(self, ell_max: int | None = None) -> ModeBasis:
        if self.basis_kind == "symmetric":
            return ModeBasis.symmetric_span(self.ell_max if ell_max is None else ell_max)
        return ModeBasis.nonnegative_span(self.d)

    def geometry(self, n_planes: int | None = None) -> ScanGeometry:
        planes = self.planes
        if planes is None or n_planes is not None:
            planes = default_planes(self.n_planes if n_planes is None else n_planes)
        return ScanGeometry(self.n_pixels_per_side, self.extent, planes)


_SPEC_KEYS = {
    "kind",
    "basis",
    "geometry",
    "z_max",
    "z_values",
    "ranks",
    "ell_max_values",
    "trials",
    "n_states",
    "branches",
    "state",
    "noise",
    "solver",
    "seed",
    "output",
    "scan_file",
    "state_file",
    "predict_planes",
    "compute_entropy",
}


def _plane_list(name: str, value, problems: list[str]) -> tuple[float, ...] | None:
    """A non-empty list of distinct, finite plane positions; None, with the
    problem noted, otherwise."""
    try:
        planes = tuple(float(z) for z in value)
    except (TypeError, ValueError):
        problems.append(f"{name} must be a list of numbers, got {value!r}")
        return None
    if not planes or len(set(planes)) != len(planes) or not all(map(math.isfinite, planes)):
        problems.append(f"{name} must be a non-empty list of distinct finite positions, got {list(planes)}")
        return None
    return planes


def parse_spec(obj: dict, kind: str | None = None) -> ExperimentSpec:
    """Validate a JSON spec dict, collecting all diagnostics before raising."""
    problems: list[str] = []
    if not isinstance(obj, dict):
        raise SpecValidationError(["spec must be a JSON object"])
    for key in obj:
        if key not in _SPEC_KEYS:
            problems.append(f"unknown field {key!r}")
    kind = kind or obj.get("kind")
    if kind not in KINDS:
        problems.append(f"kind must be one of {KINDS}, got {kind!r}")
        raise SpecValidationError(problems)
    spec = ExperimentSpec(kind=kind)
    blocks = ("basis", "geometry", "state", "noise", "solver")
    not_objects = [n for n in blocks if not isinstance(obj.get(n, {}), dict)]
    problems += [f"{n} must be an object, got {obj[n]!r}" for n in not_objects]
    obj = {k: v for k, v in obj.items() if k not in not_objects}

    basis = obj.get("basis", {})
    bkind = basis.get("kind", "symmetric")
    if bkind not in ("symmetric", "nonnegative"):
        problems.append(f"basis.kind must be 'symmetric' or 'nonnegative', got {bkind!r}")
    else:
        spec.basis_kind = bkind
    try:
        spec.ell_max = int(basis.get("ell_max", spec.ell_max))
        spec.d = int(basis.get("d", spec.d))
        if spec.ell_max < 0:
            problems.append("basis.ell_max must be nonnegative")
        if spec.d < 1:
            problems.append("basis.d must be positive")
    except (TypeError, ValueError):
        problems.append("basis.ell_max and basis.d must be integers")

    geom = obj.get("geometry", {})
    try:
        spec.n_pixels_per_side = int(geom.get("n_pixels_per_side", spec.n_pixels_per_side))
        spec.extent = float(geom.get("extent", spec.extent))
        spec.n_planes = int(geom.get("n_planes", spec.n_planes))
        if spec.n_pixels_per_side < 1:
            problems.append("geometry.n_pixels_per_side must be positive")
        if spec.extent <= 0:
            problems.append("geometry.extent must be positive")
        if spec.n_planes < 1:
            problems.append("geometry.n_planes must be positive")
    except (TypeError, ValueError):
        problems.append("geometry fields must be numeric")
    if "planes" in geom:
        spec.planes = _plane_list("geometry.planes", geom["planes"], problems)

    for name in ("z_max", "trials", "n_states", "seed"):
        if name in obj:
            try:
                setattr(spec, name, int(obj[name]))
                if getattr(spec, name) < (0 if name == "seed" else 1):
                    problems.append(f"{name} must be positive")
            except (TypeError, ValueError):
                problems.append(f"{name} must be an integer")
    for name in ("z_values", "ranks"):
        if name in obj:
            try:
                setattr(spec, name, tuple(int(v) for v in obj[name]))
            except (TypeError, ValueError):
                problems.append(f"{name} must be a list of integers")
    if not spec.z_values or min(spec.z_values) < 1:
        problems.append(f"z_values must be plane counts of at least 1, got {list(spec.z_values)}")
    if "ell_max_values" in obj:
        try:
            spec.ell_max_values = tuple(int(v) for v in obj["ell_max_values"])
            if min(spec.ell_max_values, default=0) < 0:
                problems.append(f"ell_max_values must be nonnegative, got {list(spec.ell_max_values)}")
        except (TypeError, ValueError):
            problems.append("ell_max_values must be a list of integers")
    if "predict_planes" in obj:
        spec.predict_planes = _plane_list("predict_planes", obj["predict_planes"], problems)
    if "branches" in obj:
        branches = obj["branches"]
        if not isinstance(branches, (list, tuple)) or not branches:
            problems.append(f"branches must be a non-empty list of estimator branches, got {branches!r}")
        elif bad := [b for b in branches if b not in ("positive", "pseudoinverse")]:
            problems.append(f"unknown estimator branch(es): {bad}")
        else:
            spec.branches = tuple(branches)

    state = obj.get("state", spec.state)
    if state.get("kind", "random") not in ("random", "test", "file"):
        problems.append(f"state.kind must be 'random', 'test', or 'file', got {state.get('kind')!r}")
    spec.state = state
    # the bases the run builds: only an error sweep walks ell_max_values
    ell_axis = (spec.ell_max_values if kind == "error_sweep" else None) or (spec.ell_max,)
    symmetric = spec.basis_kind == "symmetric"
    d_max = 2 * max(ell_axis) + 1 if symmetric else spec.d
    # a rank above d is skipped, but a sweep with no rank in [1, d] has no cells
    if "ranks" in obj and (min(spec.ranks, default=0) < 1 or min(spec.ranks) > d_max):
        problems.append(f"ranks must be at least 1, and one at most d = {d_max}; got {list(spec.ranks)}")
    if "rank" in obj.get("state", {}):
        rank = state["rank"]
        if isinstance(rank, bool) or not isinstance(rank, int) or not 1 <= rank <= d_max:
            problems.append(f"state.rank must be an integer from 1 to d = {d_max}, got {rank!r}")
    if state.get("kind") == "test" and not (symmetric and min(ell_axis) >= 3):
        problems.append("state.kind 'test' needs the modes -3, 0 and 3 (symmetric basis, ell_max >= 3)")

    noise = obj.get("noise", spec.noise)
    nkind = noise.get("kind", "none")
    if nkind not in ("none", "poisson"):
        problems.append(f"noise.kind must be 'none' or 'poisson', got {nkind!r}")
    elif nkind == "poisson":
        budget = noise.get("photon_budget")
        if isinstance(budget, bool) or not isinstance(budget, (int, float)) or not 0 < budget < math.inf:
            problems.append(f"noise.photon_budget must be a positive number for poisson noise, got {budget!r}")
    spec.noise = noise

    try:
        spec.solver = SolverConfig(**obj.get("solver", {}))
    except (TypeError, ValueError) as exc:
        problems.append(f"solver: {exc}")

    for name in ("output", "scan_file", "state_file"):
        if name in obj:
            setattr(spec, name, str(obj[name]))
    spec.compute_entropy = bool(obj.get("compute_entropy", False))

    if kind == "reconstruct" and not spec.scan_file:
        problems.append("reconstruct requires scan_file")
    if kind == "validate" and not (spec.scan_file or spec.state_file):
        problems.append("validate requires scan_file or state_file")
    for name in ("scan_file", "state_file"):
        path = getattr(spec, name)
        if path and not os.path.exists(path):
            problems.append(f"{name} does not exist: {path}")
    if spec.state.get("kind") == "file":
        path = spec.state.get("path", "")
        if not os.path.exists(path):
            problems.append(f"state.path does not exist: {path}")

    if problems:
        raise SpecValidationError(problems)
    return spec


def _make_state(spec: ExperimentSpec, basis: ModeBasis, rank: int, seed: int) -> DensityMatrix:
    kind = spec.state.get("kind", "random")
    if kind == "random":
        return random_state(basis, rank, seed)
    if kind == "test":
        if "p" in spec.state and "theta" in spec.state:
            return test_state(float(spec.state["p"]), float(spec.state["theta"]), basis)
        rng = np.random.default_rng(seed)
        return test_state(float(rng.uniform()), float(rng.uniform(0.0, math.pi / 2)), basis)
    return read_state_json(spec.state["path"])


def _make_scan(spec: ExperimentSpec, rho: DensityMatrix, mmap: MeasurementMap, seed: int):
    if spec.noise.get("kind", "none") == "poisson":
        return simulate_scan(
            rho, mmap, "poisson", float(spec.noise["photon_budget"]), seed=seed
        )
    return simulate_scan(rho, mmap)


def _fmt(x: float) -> str:
    return repr(float(x))


def run_rank_analysis(spec: ExperimentSpec) -> list[tuple[int, int]]:
    """(Z, n_Z) for Z = 1..z_max; prefix rows of one full map are reused."""
    basis = spec.basis()
    geometry = spec.geometry(n_planes=spec.z_max)
    full = build_measurement_map(basis, geometry)
    rows_per_plane = geometry.n_pixels
    out = []
    for z in range(1, spec.z_max + 1):
        sub = MeasurementMap(
            basis,
            ScanGeometry(spec.n_pixels_per_side, spec.extent, geometry.planes[:z]),
            full.matrix[: z * rows_per_plane],
        )
        out.append((z, independent_detections(sub)))
    return out


def _error_cell(args) -> tuple[tuple[int, int, int], list[float], list[float]]:
    """One (ell_max, Z, rank) sweep cell; returns per-trial errors."""
    spec, ell_max, z, rank = args
    basis = spec.basis(ell_max=ell_max)
    mmap = build_measurement_map(basis, spec.geometry(n_planes=z))
    pos_errors, pinv_errors = [], []
    for trial in range(spec.trials):
        seed = derive_seed(spec.seed, ell_max, z, rank, trial)
        rho = _make_state(spec, basis, rank, seed)
        scan = _make_scan(spec, rho, mmap, seed)
        rep_pos = reconstruct_positive(mmap, scan, spec.solver)
        if spec.strict and not rep_pos.converged:
            raise NonConvergenceError(
                f"positive-branch solver did not converge (ell_max={ell_max}, Z={z}, "
                f"rank={rank}, trial={trial})"
            )
        rep_pinv = reconstruct_pseudoinverse(mmap, scan)
        pos_errors.append(hs_error(rep_pos.estimate, rho))
        pinv_errors.append(hs_error(rep_pinv.estimate, rho))
    return (ell_max, z, rank), pos_errors, pinv_errors


def run_error_sweep(spec: ExperimentSpec) -> list[dict]:
    """Mean/variance of reconstruction errors per (ell_max, Z, rank) cell."""
    ell_axis = spec.ell_max_values or (spec.ell_max,)
    cells = [
        (spec, ell_max, z, rank)
        for ell_max in ell_axis
        for z in spec.z_values
        for rank in spec.ranks
        if rank <= (2 * ell_max + 1 if spec.basis_kind == "symmetric" else spec.d)
    ]
    if spec.threads > 1:
        with ProcessPoolExecutor(max_workers=spec.threads) as pool:
            results = list(pool.map(_error_cell, cells))
    else:
        results = [_error_cell(c) for c in cells]
    rows = []
    for (ell_max, z, rank), pos, pinv in results:
        if any(not math.isfinite(e) for e in pos + pinv):
            raise RuntimeError(f"non-finite error in cell ell_max={ell_max}, Z={z}, rank={rank}")
        d = 2 * ell_max + 1 if spec.basis_kind == "symmetric" else spec.d
        rows.append(
            {
                "ell_max": ell_max,
                "d": d,
                "Z": z,
                "rank": rank,
                "trials": spec.trials,
                "mean_err_positive": float(np.mean(pos)),
                "var_err_positive": float(np.var(pos)),
                "mean_err_pseudoinverse": float(np.mean(pinv)),
                "var_err_pseudoinverse": float(np.var(pinv)),
            }
        )
    return rows


def entropy_cell_inputs(
    spec: ExperimentSpec, z: int
) -> tuple[MeasurementMap, list[tuple[IntensityScan, SolverConfig]]]:
    """The Z-plane map of an entropy-sweep cell, and the (scan, solver
    config) of each of its n_states probe states."""
    basis = spec.basis()
    mmap = build_measurement_map(basis, spec.geometry(n_planes=z))
    inputs = []
    for j in range(spec.n_states):
        seed = derive_seed(spec.seed, z, j)
        rho = _make_state(spec, basis, rank=2, seed=seed)
        scan = _make_scan(spec, rho, mmap, seed)
        inputs.append((scan, replace(spec.solver, seed=derive_seed(spec.seed, z, j, 1))))
    return mmap, inputs


def _entropy_cell(args) -> tuple[tuple[int, str], list[float]]:
    spec, z, branch = args
    mmap, inputs = entropy_cell_inputs(spec, z)
    entropies = [uniqueness_entropy(mmap, scan, cfg, branch=branch) for scan, cfg in inputs]
    return (z, branch), entropies


def run_entropy_sweep(spec: ExperimentSpec) -> list[dict]:
    """Mean/variance of the uniqueness entropy per (Z, branch) cell."""
    cells = [(spec, z, branch) for z in spec.z_values for branch in spec.branches]
    if spec.threads > 1:
        with ProcessPoolExecutor(max_workers=spec.threads) as pool:
            results = list(pool.map(_entropy_cell, cells))
    else:
        results = [_entropy_cell(c) for c in cells]
    rows = []
    for (z, branch), entropies in results:
        if any(not math.isfinite(s) for s in entropies):
            raise RuntimeError(f"non-finite entropy in cell Z={z}, branch={branch}")
        rows.append(
            {
                "Z": z,
                "branch": branch,
                "n_states": spec.n_states,
                "mean_entropy": float(np.mean(entropies)),
                "var_entropy": float(np.var(entropies)),
            }
        )
    return rows


def run_reconstruct(spec: ExperimentSpec, out_dir: str = ".") -> dict:
    """Reconstruct a scan file and forward-simulate predicted scans."""
    scan = read_scan_csv(spec.scan_file, extent=spec.extent)
    basis = spec.basis()
    mmap = build_measurement_map(basis, scan.geometry)
    rep = reconstruct_positive(mmap, scan, spec.solver)
    if spec.strict and not rep.converged:
        raise NonConvergenceError("reconstruction did not converge")
    n_det = independent_detections(mmap)
    result = report_to_json_dict(rep)
    result["metadata"]["independent_detections"] = n_det
    result["metadata"]["informationally_complete"] = bool(n_det >= basis.dim**2)
    if spec.compute_entropy and spec.solver.multistart >= 2:
        result["uniqueness_entropy"] = uniqueness_entropy(mmap, scan, spec.solver)

    os.makedirs(out_dir, exist_ok=True)
    predicted_files = []
    pred_geom = ScanGeometry(
        scan.geometry.n_pixels_per_side, scan.geometry.extent, spec.predict_planes
    )
    pred_map = mmap if pred_geom == scan.geometry else build_measurement_map(basis, pred_geom)
    pred_scan = simulate_scan(rep.estimate, pred_map)
    pred_path = os.path.join(out_dir, "predicted_scans.csv")
    write_scan_csv(pred_path, pred_scan)
    predicted_files.append(pred_path)
    result["predicted_scan_files"] = predicted_files

    report_path = os.path.join(out_dir, spec.output or "report.json")
    with open(report_path, "w") as fh:
        json.dump(result, fh, indent=2)
    result["report_file"] = report_path
    return result


def run_simulate(spec: ExperimentSpec, out_dir: str = ".") -> str:
    """Generate a scan CSV from the configured state."""
    basis = spec.basis()
    mmap = build_measurement_map(basis, spec.geometry())
    seed = derive_seed(spec.seed, 0)
    rho = _make_state(spec, basis, rank=int(spec.state.get("rank", 1)), seed=seed)
    scan = _make_scan(spec, rho, mmap, seed)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, spec.output or "scan.csv")
    write_scan_csv(path, scan)
    return path


def run_validate(spec: ExperimentSpec) -> list[str]:
    """Check data files against their format contracts; returns diagnostics."""
    problems = []
    if spec.scan_file:
        try:
            read_scan_csv(spec.scan_file, extent=spec.extent)
        except Exception as exc:
            problems.append(f"scan_file: {exc}")
    if spec.state_file:
        try:
            read_state_json(spec.state_file)
        except Exception as exc:
            problems.append(f"state_file: {exc}")
    return problems


def write_rank_csv(path: str, rows: list[tuple[int, int]]) -> None:
    with open(path, "w") as fh:
        fh.write("Z,n_detections\n")
        for z, n in rows:
            fh.write(f"{z},{n}\n")


def write_sweep_csv(path: str, rows: list[dict]) -> None:
    if not rows:
        raise ValueError("empty sweep result")
    cols = list(rows[0].keys())
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(
                ",".join(_fmt(row[c]) if isinstance(row[c], float) else str(row[c]) for c in cols)
                + "\n"
            )


def run_experiment(spec: ExperimentSpec, out_dir: str = ".") -> Any:
    """Dispatch on spec.kind and write the configured outputs."""
    os.makedirs(out_dir, exist_ok=True)
    if spec.kind == "rank_analysis":
        rows = run_rank_analysis(spec)
        write_rank_csv(os.path.join(out_dir, spec.output or "rank_analysis.csv"), rows)
        return rows
    if spec.kind == "error_sweep":
        rows = run_error_sweep(spec)
        write_sweep_csv(os.path.join(out_dir, spec.output or "error_sweep.csv"), rows)
        return rows
    if spec.kind == "entropy_sweep":
        rows = run_entropy_sweep(spec)
        write_sweep_csv(os.path.join(out_dir, spec.output or "entropy_sweep.csv"), rows)
        return rows
    if spec.kind == "reconstruct":
        return run_reconstruct(spec, out_dir)
    if spec.kind == "simulate":
        return run_simulate(spec, out_dir)
    if spec.kind == "validate":
        return run_validate(spec)
    raise SpecValidationError([f"unknown kind {spec.kind!r}"])
