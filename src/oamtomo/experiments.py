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
import reprlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Any, Callable, Sequence

import numpy as np

from .qstate import (
    DensityMatrix,
    ModeBasis,
    StateValidationError,
    _load_json,
    hs_error,
    random_state,
    read_state_json,
    test_state,
)
from .sensor import (
    MAX_ELL,
    MAX_PHOTON_BUDGET,
    MAX_PIXELS_PER_SIDE,
    NOISE_MODELS,
    DarkScanError,
    IntensityScan,
    MeasurementMap,
    ScanFormatError,
    ScanGeometry,
    build_measurement_map,
    default_planes,
    independent_detections,
    read_scan_csv,
    simulate_scan,
    write_scan_csv,
)
from .solver import (
    BRANCHES,
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

    def __reduce__(self):  # else pickle passes __init__ the joined message, and it returns one character per line
        return type(self), (self.problems,)


class NonConvergenceError(RuntimeError):
    """Raised in strict mode when a reconstruction fails to converge."""


def derive_seed(master: int, *indices: int) -> int:
    """Stable per-trial seed from the master seed and index path."""
    ss = np.random.SeedSequence([int(master), *[int(i) for i in indices]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _message(exc: Exception) -> str:
    """The text of exc for a diagnostic, an OSError's file name bounded as every echoed value is."""
    if isinstance(exc, OSError) and exc.filename is not None:
        return f"[Errno {exc.errno}] {exc.strerror}: {reprlib.repr(exc.filename)}"
    return str(exc)


def _real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _listed(v, item) -> bool:
    return isinstance(v, (list, tuple)) and len(v) > 0 and all(map(item, v))


def _spec_field(path: str, default, ok: Callable[[Any], bool], must: str, convert=lambda v: v):
    """A field set by the JSON value at dotted ``path``: a value passing ``ok``
    is stored as ``convert(value)``, any other is reported as not ``must``."""
    return field(default=default, metadata={"path": path, "ok": ok, "must": must, "convert": convert})


def _at_most(high: float) -> str:  # a field's upper bound in its diagnostic
    return f" of at most {high!r}" if high < math.inf else ""


def _integer(path: str, default, low: int, high: float = math.inf, many: bool = False):
    """An integer from ``low`` (0 or 1) to ``high``, or with ``many`` a non-empty list of them."""
    sign = ("nonnegative", "positive")[low]
    ok = lambda v: _real(v) and v == int(v) and low <= v <= high  # noqa: E731
    if many:
        must = f"{sign} integers in a non-empty list"
        return _spec_field(path, default, lambda v: _listed(v, ok), must, lambda v: tuple(map(int, v)))
    return _spec_field(path, default, ok, f"a {sign} integer" + _at_most(high), int)


def _positive(path: str, default, high: float = math.inf):
    ok = lambda v: _real(v) and 0 < v <= high  # noqa: E731
    return _spec_field(path, default, ok, "a positive finite number" + _at_most(high), float)


def _choice(path: str, default, options: tuple[str, ...]):
    return _spec_field(path, default, lambda v: v in options, f"one of {options}")


def _path(path: str):
    return _spec_field(path, None, lambda v: isinstance(v, str) and v != "", "a non-empty string")


def _planes(path: str, default):
    ok = lambda v: _listed(v, _real) and len(set(v)) == len(v)  # noqa: E731
    must = "a non-empty list of distinct finite positions"
    return _spec_field(path, default, ok, must, lambda v: tuple(map(float, v)))


@dataclass
class ExperimentSpec:
    """Validated view of the JSON experiment description. Each field a spec
    sets declares its dotted JSON path, default and check; the grid, plane
    and solver-block defaults come from ScanGeometry, default_planes and
    SolverConfig. ``threads`` and ``strict`` are set only by the caller."""

    kind: str = _choice("kind", MISSING, KINDS)
    basis_kind: str = _choice("basis.kind", "symmetric", ("symmetric", "nonnegative"))  # ell_max or d
    ell_max: int = _integer("basis.ell_max", 7, 0)
    d: int = _integer("basis.d", 5, 1)
    n_pixels_per_side: int = _integer(
        "geometry.n_pixels_per_side", ScanGeometry.n_pixels_per_side, 1, MAX_PIXELS_PER_SIDE
    )
    extent: float = _positive("geometry.extent", ScanGeometry.extent)
    planes: tuple[float, ...] | None = _planes("geometry.planes", None)  # explicit list beats n_planes
    n_planes: int = _integer("geometry.n_planes", 2, 1)
    z_max: int = _integer("z_max", 10, 1)
    z_values: tuple[int, ...] = _integer("z_values", (1, 2, 3), 1, many=True)
    ranks: tuple[int, ...] = _integer("ranks", (1, 2, 4, 8, 15), 1, many=True)
    trials: int = _integer("trials", 50, 1)
    n_states: int = _integer("n_states", 20, 1)
    branches: tuple[str, ...] = _spec_field(
        "branches",
        BRANCHES,
        lambda v: _listed(v, lambda b: b in BRANCHES),
        f"a non-empty list of estimator branches from {BRANCHES}",
        tuple,
    )
    # "random" (Ginibre), "test" (probe family) or "file"
    state_kind: str = _choice("state.kind", "random", ("random", "test", "file"))
    state_rank: int = _integer("state.rank", 1, 1)
    # probe-state parameters: both, or neither to draw them per seed
    state_p: float | None = _spec_field(
        "state.p", None, lambda v: _real(v) and 0 <= v <= 1, "a number from 0 to 1", float
    )
    state_theta: float | None = _spec_field("state.theta", None, _real, "a finite number", float)
    state_path: str | None = _path("state.path")
    noise_kind: str = _choice("noise.kind", NOISE_MODELS[0], NOISE_MODELS)
    photon_budget: float | None = _positive("noise.photon_budget", None, MAX_PHOTON_BUDGET)
    max_iterations: int = _integer("solver.max_iterations", SolverConfig.max_iterations, 1)
    rel_tolerance: float = _positive("solver.rel_tolerance", SolverConfig.rel_tolerance)
    multistart: int = _integer("solver.multistart", SolverConfig.multistart, 1)
    seed: int = _integer("seed", 0, 0)
    output: str | None = _path("output")
    scan_file: str | None = _path("scan_file")
    state_file: str | None = _path("state_file")
    predict_planes: tuple[float, ...] = _planes("predict_planes", default_planes(4))
    compute_entropy: bool = _spec_field(
        "compute_entropy", False, lambda v: isinstance(v, bool), "true or false"
    )
    threads: int = 1
    strict: bool = False

    @property
    def solver(self) -> SolverConfig:
        """The SolverConfig of the solver block's fields."""
        return SolverConfig(self.max_iterations, self.rel_tolerance, self.multistart)

    def basis(self) -> ModeBasis:
        if self.basis_kind == "symmetric":
            return ModeBasis.symmetric_span(self.ell_max)
        return ModeBasis.nonnegative_span(self.d)

    def geometry(self, n_planes: int | None = None) -> ScanGeometry:
        """The run's grid over the first ``n_planes`` planes of its list, or over
        all of them: geometry.planes when given, else the default pool."""
        planes = self.planes or default_planes(self.n_planes if n_planes is None else n_planes)
        return ScanGeometry(self.n_pixels_per_side, self.extent, planes[:n_planes])


# every accepted spec field by dotted path: the attribute it sets, its check
_PATHS = {f.metadata["path"]: (f.name, f.metadata) for f in fields(ExperimentSpec) if f.metadata}
_BLOCKS = {path.split(".")[0] for path in _PATHS if "." in path}


def _check_fields(obj: dict, values: dict, problems: list[str], prefix: str = "") -> None:
    """Check each field of a spec object as its declaration says, into values
    ({attribute: value}); a key that names no field, a block that is not an
    object and a value that fails its check are noted in problems."""
    for key, value in obj.items():
        path = f"{prefix}{key}"
        attr, check = _PATHS.get(path, (None, None))
        if path in _BLOCKS and isinstance(value, dict):
            _check_fields(value, values, problems, path + ".")
        elif path in _BLOCKS:
            problems.append(f"{path} must be an object, got {reprlib.repr(value)}")
        elif check is None:
            problems.append(f"unknown field {reprlib.repr(path)}")
        elif check["ok"](value):
            values[attr] = check["convert"](value)
        else:
            problems.append(f"{path} must be {check['must']}, got {reprlib.repr(value)}")


def _apply_override(obj: dict, assignment: str) -> None:
    """Apply a dotted key=value override, copying each block it writes into; values parse as JSON first."""
    key, equals, raw = assignment.partition("=")
    if not equals:
        raise SpecValidationError([f"--set expects key=value, got {reprlib.repr(assignment)}"])
    try:
        value = _load_json(raw)
    except json.JSONDecodeError:
        value = raw
    except ValueError as exc:  # JSON nested too deeply
        raise SpecValidationError([f"--set {key}: {exc}"]) from None
    *blocks, name = key.split(".")
    for block in blocks:
        inner = obj.get(block, {})
        if not isinstance(inner, dict):
            raise SpecValidationError([f"--set path {reprlib.repr(key)} collides with a scalar field"])
        obj[block] = dict(inner)
        obj = obj[block]
    obj[name] = value


def parse_spec(obj: dict, kind: str | None = None, overrides: Sequence[str] = ()) -> ExperimentSpec:
    """Validate a JSON spec dict, collecting all diagnostics before raising.

    ``overrides`` are dotted key=value assignments (``--set``), applied in
    order to a copy of the spec. Each field is then checked as its
    ExperimentSpec declaration says; what follows are the rules that tie
    fields together. ``kind``, when given, is the kind of the run, and a
    spec that names another kind is rejected.
    """
    if not isinstance(obj, dict):
        raise SpecValidationError(["spec must be a JSON object"])
    obj = dict(obj)
    for assignment in overrides:
        _apply_override(obj, assignment)
    problems: list[str] = []
    values: dict[str, Any] = {}
    _check_fields({"kind": kind, **obj}, values, problems)
    if "kind" not in values:
        raise SpecValidationError(problems)
    if kind is not None and values["kind"] != kind:
        problems.append(f"kind {values['kind']!r} does not match the subcommand's kind {kind!r}")
    spec = ExperimentSpec(**values)

    symmetric = spec.basis_kind == "symmetric"
    d_max = 2 * spec.ell_max + 1 if symmetric else spec.d
    ell_top, top = (spec.ell_max, "basis.ell_max") if symmetric else (spec.d - 1, "basis.d - 1")
    if ell_top > MAX_ELL:
        problems.append(f"{top}, the basis's largest |ell|, must be at most {MAX_ELL}, got {reprlib.repr(ell_top)}")
    # a rank above d is skipped, but a sweep with no rank in [1, d] has no cells
    if min(spec.ranks) > d_max:
        problems.append(f"ranks must include one at most d = {d_max}, got {reprlib.repr(list(spec.ranks))}")
    if spec.state_rank > d_max:
        problems.append(f"state.rank must be at most d = {d_max}, got {reprlib.repr(spec.state_rank)}")
    if spec.kind == "entropy_sweep" and spec.state_kind == "random" and d_max < 2:
        problems.append(f"an entropy sweep draws its random states at rank 2, which needs d >= 2, got d = {d_max}")
    if spec.kind == "error_sweep" and spec.state_kind != "random":
        problems.append(f"an error sweep's ranks draw random states; state.kind {spec.state_kind!r} is not 'random'")
    if spec.state_kind == "test" and not (symmetric and spec.ell_max >= 3):
        problems.append("state.kind 'test' needs the modes -3, 0 and 3 (symmetric basis, ell_max >= 3)")
    if spec.state_kind == "test" and (spec.state_p is None) != (spec.state_theta is None):
        missing = "state.theta" if spec.state_theta is None else "state.p"
        problems.append(f"state.kind 'test' needs both state.p and state.theta; {missing} is missing")
    try:
        ScanGeometry(spec.n_pixels_per_side, spec.extent)
    except ValueError:
        problems.append(f"geometry.extent must give a positive finite pixel area, got {spec.extent!r}")
    sweep = spec.kind in ("rank_analysis", "error_sweep", "entropy_sweep")  # each takes the first Z planes
    z_top = spec.z_max if spec.kind == "rank_analysis" else max(spec.z_values)
    if sweep and spec.planes and z_top > len(spec.planes):
        problems.append(f"Z = {reprlib.repr(z_top)} needs more planes than the {len(spec.planes)} of geometry.planes")
    if spec.noise_kind != NOISE_MODELS[0] and spec.photon_budget is None:
        problems.append(f"noise.photon_budget is required for {spec.noise_kind} noise")
    entropy = spec.kind == "entropy_sweep" or (spec.kind == "reconstruct" and spec.compute_entropy)
    if entropy and spec.multistart < 2:
        problems.append(f"solver.multistart must be at least 2 for the uniqueness entropy, got {spec.multistart}")
    if spec.kind == "reconstruct" and not spec.scan_file:
        problems.append("reconstruct requires scan_file")
    if spec.kind == "validate" and not (spec.scan_file or spec.state_file):
        problems.append("validate requires scan_file or state_file")
    if spec.state_kind == "file" and not spec.state_path:
        problems.append("state.kind 'file' requires state.path")
    files = {"scan_file": spec.scan_file, "state_file": spec.state_file, "state.path": spec.state_path}
    for name, path in files.items():
        if path and not os.path.isfile(path):
            problems.append(f"{name} does not exist as a regular file: {reprlib.repr(path)}")

    if problems:
        raise SpecValidationError(problems)
    return spec


def _draw(spec: ExperimentSpec, mmap: MeasurementMap, rank: int, seed: int) -> tuple[DensityMatrix, IntensityScan]:
    """A state of the run's kind over the map's modes and the run's scan of it, both from seed."""
    basis = mmap.basis
    if spec.state_kind == "random":
        rho = random_state(basis, rank, seed)
    elif spec.state_kind == "test" and spec.state_p is not None:
        rho = test_state(spec.state_p, spec.state_theta, basis)
    elif spec.state_kind == "test":
        rng = np.random.default_rng(seed)
        rho = test_state(float(rng.uniform()), float(rng.uniform(0.0, math.pi / 2)), basis)
    else:
        rho = read_state_json(spec.state_path)
        if rho.basis != basis:
            raise StateValidationError(f"state file is over modes {rho.basis.ells}, not {basis.ells}")
    return rho, simulate_scan(rho, mmap, spec.noise_kind, spec.photon_budget, seed)


def _map_cells(spec: ExperimentSpec, cell_fn, cells: list) -> list:
    """cell_fn over the cells, in order; in a process pool of at most
    spec.threads workers, and no more than there are cells, when that is > 1."""
    workers = min(spec.threads, len(cells))  # the pool starts every worker at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(cell_fn, cells))
    return [cell_fn(c) for c in cells]


def _moments(what: str, cell: str, **trials: list[float]) -> dict[str, float]:
    """mean_<name> and var_<name> of each named list of per-trial values; a
    non-finite value is an error, reported as a non-finite ``what`` in ``cell``."""
    if not all(math.isfinite(v) for values in trials.values() for v in values):
        raise RuntimeError(f"non-finite {what} in cell {cell}")
    row = {}
    for name, values in trials.items():
        row[f"mean_{name}"] = float(np.mean(values))
        row[f"var_{name}"] = float(np.var(values))
    return row


def run_rank_analysis(spec: ExperimentSpec) -> list[dict]:
    """A CSV row {Z, n_detections} for Z = 1..z_max, each from the map of the first Z planes."""
    basis = spec.basis()
    maps = (build_measurement_map(basis, spec.geometry(n_planes=z)) for z in range(1, spec.z_max + 1))
    return [{"Z": z, "n_detections": independent_detections(m)} for z, m in enumerate(maps, 1)]


def _error_cell(args) -> dict:
    """The CSV row of one (Z, rank) sweep cell: its trials' error moments."""
    spec, z, rank = args
    mmap = build_measurement_map(spec.basis(), spec.geometry(n_planes=z))
    ell_max = max(map(abs, mmap.basis.ells))  # the basis's largest |ell|, of either span
    cell = f"ell_max={ell_max}, Z={z}, rank={rank}"
    pos_errors, pinv_errors = [], []
    for trial in range(spec.trials):
        rho, scan = _draw(spec, mmap, rank, derive_seed(spec.seed, ell_max, z, rank, trial))
        rep_pos = reconstruct_positive(mmap, scan, spec.solver)
        if spec.strict and not rep_pos.converged:
            raise NonConvergenceError(f"positive-branch solver did not converge ({cell}, trial={trial})")
        rep_pinv = reconstruct_pseudoinverse(mmap, scan)
        pos_errors.append(hs_error(rep_pos.estimate, rho))
        pinv_errors.append(hs_error(rep_pinv.estimate, rho))
    row = {"ell_max": ell_max, "d": mmap.basis.dim, "Z": z, "rank": rank, "trials": spec.trials}
    return row | _moments("error", cell, err_positive=pos_errors, err_pseudoinverse=pinv_errors)


def run_error_sweep(spec: ExperimentSpec) -> list[dict]:
    """The CSV rows of the reconstruction-error moments per (Z, rank) cell."""
    d = spec.basis().dim
    cells = [(spec, z, rank) for z in spec.z_values for rank in spec.ranks if rank <= d]
    return _map_cells(spec, _error_cell, cells)


def entropy_cell_inputs(
    spec: ExperimentSpec, z: int
) -> tuple[MeasurementMap, list[tuple[IntensityScan, SolverConfig]]]:
    """The Z-plane map of an entropy-sweep cell, and the (scan, solver
    config) of each of its n_states probe states."""
    mmap = build_measurement_map(spec.basis(), spec.geometry(n_planes=z))
    inputs = []
    for j in range(spec.n_states):
        _, scan = _draw(spec, mmap, 2, derive_seed(spec.seed, z, j))
        inputs.append((scan, replace(spec.solver, seed=derive_seed(spec.seed, z, j, 1))))
    return mmap, inputs


def _entropy_cell(args) -> dict:
    """The CSV row of one (Z, branch) sweep cell: its states' entropy moments."""
    spec, z, branch = args
    mmap, inputs = entropy_cell_inputs(spec, z)
    entropies = [uniqueness_entropy(mmap, scan, cfg, branch) for scan, cfg in inputs]
    row = {"Z": z, "branch": branch, "n_states": spec.n_states}
    return row | _moments("entropy", f"Z={z}, branch={branch}", entropy=entropies)


def run_entropy_sweep(spec: ExperimentSpec) -> list[dict]:
    """The CSV rows of the uniqueness-entropy moments per (Z, branch) cell."""
    cells = [(spec, z, branch) for z in spec.z_values for branch in spec.branches]
    return _map_cells(spec, _entropy_cell, cells)


def run_reconstruct(spec: ExperimentSpec) -> tuple[dict, IntensityScan]:
    """The report record of a reconstruction of the scan file, and its estimate's scan at predict_planes."""
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
    if spec.compute_entropy:  # the run's one random draw: the restarts, seeded by the spec's seed
        result["uniqueness_entropy"] = uniqueness_entropy(mmap, scan, replace(spec.solver, seed=spec.seed))

    pred_map = build_measurement_map(basis, replace(scan.geometry, planes=spec.predict_planes))
    return result, simulate_scan(rep.estimate, pred_map)


def run_simulate(spec: ExperimentSpec) -> IntensityScan:
    """The scan of the configured state."""
    mmap = build_measurement_map(spec.basis(), spec.geometry())
    return _draw(spec, mmap, spec.state_rank, derive_seed(spec.seed, 0))[1]


def run_validate(spec: ExperimentSpec) -> None:
    """Check data files against their format contracts; all diagnostics are raised as one ScanFormatError
    if the scan file failed, else StateValidationError. A fault inside a reader, not in the data, propagates."""
    problems, error = [], StateValidationError
    if spec.scan_file:
        try:
            read_scan_csv(spec.scan_file, extent=spec.extent)
        except (ScanFormatError, OSError) as exc:
            problems.append(f"scan_file: {_message(exc)}")
            error = ScanFormatError
    if spec.state_file:
        try:
            read_state_json(spec.state_file)
        except (StateValidationError, OSError) as exc:
            problems.append(f"state_file: {_message(exc)}")
    if problems:
        raise error("\n".join(problems))


def write_sweep_csv(path: str, rows: list[dict]) -> None:
    """A header of the first row's keys, then each row's values as str writes them."""
    if not rows:
        raise ValueError("empty sweep result")
    cols = list(rows[0].keys())
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in cols) + "\n")


def run_experiment(spec: ExperimentSpec, out_dir: str = ".") -> str:
    """Run spec.kind, write every file of the run under out_dir, and return the text that reports them."""
    sweeps = {
        "rank_analysis": run_rank_analysis,
        "error_sweep": run_error_sweep,
        "entropy_sweep": run_entropy_sweep,
    }
    try:
        if spec.kind == "validate":  # it writes nothing
            run_validate(spec)
            return "all files valid"
        os.makedirs(out_dir, exist_ok=True)  # before the run, so an unusable out_dir fails before any solve
        name = {"reconstruct": "report.json", "simulate": "scan.csv"}.get(spec.kind, f"{spec.kind}.csv")
        path = os.path.join(out_dir, spec.output or name)
        if spec.kind in sweeps:
            rows = sweeps[spec.kind](spec)
            write_sweep_csv(path, rows)
            if spec.kind == "rank_analysis":
                return "\n".join(f"Z={row['Z']}: n_Z={row['n_detections']}" for row in rows)
            return f"wrote {len(rows)} sweep cells"
        if spec.kind == "reconstruct":
            result, predicted = run_reconstruct(spec)
            pred_path = os.path.join(out_dir, "predicted_scans.csv")
            write_scan_csv(pred_path, predicted)
            result["predicted_scan_files"] = [pred_path]
            text = json.dumps(result, indent=2, allow_nan=False)  # a NaN or an infinity is a fault, never a report
            with open(path, "w") as fh:
                fh.write(text)
            return f"report written to {path}"
        if spec.kind == "simulate":
            write_scan_csv(path, run_simulate(spec))
            return f"scan written to {path}"
    except (DarkScanError, MemoryError) as exc:  # no light on the run's grid, or no room for its map
        n = spec.n_pixels_per_side
        grid = f"the grid of {reprlib.repr(spec.scan_file)}" if spec.scan_file else f"a {n}x{n} grid"
        if isinstance(exc, MemoryError):  # the spec check bounds |ell| and the grid's side, not d with the grid
            raise SpecValidationError([f"the run does not fit in memory: d = {spec.basis().dim} on {grid}"]) from None
        if spec.kind == "reconstruct":  # its grid comes from the scan file
            raise ScanFormatError(f"extent {spec.extent!r} on {grid}: {exc}") from exc
        raise SpecValidationError([f"geometry.extent {spec.extent!r}: {exc}"]) from exc
    raise SpecValidationError([f"unknown kind {spec.kind!r}"])
