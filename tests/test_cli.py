import json
import pickle
import reprlib
from dataclasses import MISSING, fields

import numpy as np
import pytest

import oamtomo.experiments as experiments
from oamtomo.cli import EXIT_DATA, EXIT_NONCONVERGED, EXIT_OK, EXIT_SPEC, main
from oamtomo.experiments import (
    ExperimentSpec,
    NonConvergenceError,
    SpecValidationError,
    derive_seed,
    parse_spec,
    run_error_sweep,
    run_experiment,
    run_rank_analysis,
    run_reconstruct,
    run_simulate,
    run_validate,
    write_sweep_csv,
)
from oamtomo.qstate import (
    MAX_JSON_DEPTH,
    ModeBasis,
    StateValidationError,
    hs_error,
    random_state,
    read_state_json,
    state_from_json_dict,
    test_state as probe_state,
)
from oamtomo.sensor import (
    MeasurementMap,
    ScanFormatError,
    ScanGeometry,
    build_measurement_map,
    default_planes,
    independent_detections,
    read_scan_csv,
    simulate_scan,
    write_scan_csv,
    _factorize,
)
from oamtomo.solver import SolverConfig, reconstruct_positive, reconstruct_pseudoinverse
from oracles import write_state_json

SMALL_GEOM = {"n_pixels_per_side": 9}
DARK = ["geometry.n_pixels_per_side=2", "geometry.extent=100"]  # every pixel far outside the beams
TINY = ["basis.ell_max=1", "geometry.n_pixels_per_side=3"]
# the one pixel sees light, but the four-plane map's singular values pass the largest double
OVERFLOW = ["basis.ell_max=1", "geometry.n_pixels_per_side=1", "geometry.extent=6e153", "ranks=[1]", "trials=1"]
LONG_PATH = "x" * 5000 + "-end"  # past any file-name limit
LONG_ECHO = "'" + "x" * 12 + "..." + "x" * 9 + "-end'"  # its echo, bounded as every echoed value is
SIDE_BOUND = "geometry.n_pixels_per_side must be a positive integer of at most 1073741823, got 1"  # 2^30 - 1


# -------------------------------------------------------------------- seeds


def test_derive_seed_deterministic_and_index_sensitive():
    assert derive_seed(7, 1, 2, 3) == derive_seed(7, 1, 2, 3)
    assert derive_seed(7, 1, 2, 3) != derive_seed(7, 3, 2, 1)
    assert derive_seed(7, 1) != derive_seed(8, 1)


# -------------------------------------------------------------- spec parsing


def test_parse_spec_minimal():
    spec = parse_spec({"kind": "rank_analysis"})
    assert spec.ell_max == 7
    assert spec.z_max == 10


def test_parse_spec_unknown_field():
    with pytest.raises(SpecValidationError, match="unknown field"):
        parse_spec({"kind": "rank_analysis", "zmax": 3})


def test_parse_spec_bad_kind():
    with pytest.raises(SpecValidationError, match="kind must be one of"):
        parse_spec({"kind": "bootstrap"})


def test_parse_spec_collects_multiple_problems():
    try:
        parse_spec(
            {
                "kind": "error_sweep",
                "basis": {"kind": "diagonal"},
                "geometry": {"extent": -1.0},
                "trials": 0,
                "noise": {"kind": "poisson"},
            }
        )
    except SpecValidationError as exc:
        text = str(exc)
        assert "basis.kind" in text
        assert "extent" in text
        assert "trials" in text
        assert "photon_budget" in text
    else:
        pytest.fail("expected SpecValidationError")


def test_parse_spec_reconstruct_needs_scan_file():
    with pytest.raises(SpecValidationError, match="scan_file"):
        parse_spec({"kind": "reconstruct"})


def test_parse_spec_missing_file_reported(tmp_path):
    with pytest.raises(SpecValidationError, match="does not exist"):
        parse_spec({"kind": "reconstruct", "scan_file": str(tmp_path / "nope.csv")})


def test_parse_spec_bad_solver_field():
    with pytest.raises(SpecValidationError, match="solver"):
        parse_spec({"kind": "error_sweep", "solver": {"step_rule": "newton"}})


@pytest.mark.parametrize("kind", experiments.KINDS)
def test_every_spec_default_passes_its_own_check(kind):
    """A spec that states every default explicitly parses as the bare kind does."""
    rows = [(f.metadata["path"], f.default) for f in fields(ExperimentSpec) if f.metadata]
    rows = [(path, default) for path, default in rows if default is not None and default is not MISSING]
    assert len(rows) > 20
    obj = {"kind": kind}
    for path, default in rows:
        *blocks, name = path.split(".")
        target = obj
        for block in blocks:
            target = target.setdefault(block, {})
        target[name] = list(default) if isinstance(default, tuple) else default

    def outcome(spec):
        try:
            return parse_spec(spec)
        except SpecValidationError as exc:
            return exc.problems

    assert outcome(obj) == outcome({"kind": kind})


def test_spec_defaults_are_the_librarys():
    """A bare spec's grid, planes and solver settings are the library's defaults,
    and the solver block's values reach the estimators' SolverConfig."""
    spec = parse_spec({"kind": "simulate"})
    assert spec.geometry() == ScanGeometry(planes=default_planes(spec.n_planes))
    assert spec.predict_planes == default_planes(4)
    assert spec.solver == SolverConfig()
    block = {"max_iterations": 7, "rel_tolerance": 1e-9, "multistart": 3}
    assert parse_spec({"kind": "simulate", "solver": block}).solver == SolverConfig(**block)


def test_spec_error_pickles_whole():
    """A spec error raised in a sweep worker reaches the parent with its problems."""
    exc = pickle.loads(pickle.dumps(SpecValidationError(["a", "b"])))
    assert exc.problems == ["a", "b"] and str(exc) == str(SpecValidationError(["a", "b"]))


# ----------------------------------------------------------------- harness


def test_rank_analysis_small_basis():
    spec = parse_spec({"kind": "rank_analysis", "basis": {"ell_max": 1}, "z_max": 3})
    rows = run_rank_analysis(spec)
    assert rows == [{"Z": 1, "n_detections": 6}, {"Z": 2, "n_detections": 8}, {"Z": 3, "n_detections": 8}]


PLANES = [0.7, 1.9, 3.1]  # none of them in the default pool


def test_rank_analysis_on_explicit_planes(monkeypatch):
    """Row Z counts the detections of the map of the first Z planes of geometry.planes."""
    maps = []

    def recording_build(basis, geometry):
        maps.append(build_measurement_map(basis, geometry))
        return maps[-1]

    monkeypatch.setattr(experiments, "build_measurement_map", recording_build)
    obj = {"kind": "rank_analysis", "basis": {"ell_max": 2}, "geometry": {"planes": PLANES}, "z_max": 3}
    rows = run_rank_analysis(parse_spec(obj))
    assert [m.geometry for m in maps] == [ScanGeometry(19, 3.0, PLANES[:z]) for z in (1, 2, 3)]
    assert rows == [{"Z": z, "n_detections": independent_detections(m)} for z, m in zip((1, 2, 3), maps)]


def test_error_sweep_on_explicit_planes():
    """A sweep cell at Z scans sees the first Z planes of geometry.planes:
    its row equals the one computed by hand on a ScanGeometry of those planes."""
    obj = {"kind": "error_sweep", "basis": {"ell_max": 2}, "geometry": {**SMALL_GEOM, "planes": PLANES}}
    spec = parse_spec({**obj, "z_values": [1, 2], "ranks": [1], "trials": 1, "seed": 6})
    basis = spec.basis()
    for row in run_error_sweep(spec):
        z = row["Z"]
        mmap = build_measurement_map(basis, ScanGeometry(9, 3.0, PLANES[:z]))
        rho = random_state(basis, 1, derive_seed(6, 2, z, 1, 0))
        scan = simulate_scan(rho, mmap)
        positive, pseudoinverse = reconstruct_positive(mmap, scan), reconstruct_pseudoinverse(mmap, scan)
        assert row["mean_err_positive"] == hs_error(positive.estimate, rho)
        assert row["mean_err_pseudoinverse"] == hs_error(pseudoinverse.estimate, rho)


def test_nonnegative_error_sweep_ignores_basis_ell_max(tmp_path, capsys):
    """A nonnegative span does not read basis.ell_max: its seeds and its CSV's ell_max
    column take the basis's largest |ell|, d - 1."""
    csvs = []
    for ell_max in ("7", "3"):
        args = ["--set", "basis.kind=nonnegative", "--set", "basis.d=3", "--set", f"basis.ell_max={ell_max}"]
        args += ["--set", "geometry.n_pixels_per_side=9", "--set", "z_values=[1]", "--set", "ranks=[1,2]"]
        args += ["--set", "trials=2", "--out", str(tmp_path / ell_max)]
        assert main(["error-sweep", *args]) == EXIT_OK
        csvs.append((tmp_path / ell_max / "error_sweep.csv").read_bytes())
    capsys.readouterr()
    assert csvs[0] == csvs[1]
    assert [line.split(b",")[0] for line in csvs[0].splitlines()] == [b"ell_max", b"2", b"2"]


def test_simulate_keeps_every_explicit_plane(tmp_path):
    obj = {"kind": "simulate", "basis": {"ell_max": 1}, "geometry": {**SMALL_GEOM, "planes": PLANES}}
    spec = parse_spec(obj)  # its geometry.n_planes, 2 by default, gives way to the explicit list
    run_experiment(spec, out_dir=str(tmp_path))
    assert read_scan_csv(tmp_path / "scan.csv").geometry.planes == tuple(PLANES)


def test_error_sweep_rows_and_determinism(tmp_path):
    obj = {
        "kind": "error_sweep",
        "basis": {"ell_max": 1},
        "geometry": SMALL_GEOM,
        "z_values": [1, 2],
        "ranks": [1, 3, 5],
        "trials": 2,
        "seed": 4,
    }
    rows = run_error_sweep(parse_spec(obj))
    # rank 5 exceeds d = 3 and is skipped
    assert [(r["Z"], r["rank"]) for r in rows] == [(1, 1), (1, 3), (2, 1), (2, 3)]
    for r in rows:
        assert r["d"] == 3
        assert 0.0 <= r["mean_err_positive"] <= 2.0
        assert 0.0 <= r["mean_err_pseudoinverse"] <= 2.0
    # two-plane data pins rank-1 states down through the positivity constraint
    rank1_z2 = next(r for r in rows if r["Z"] == 2 and r["rank"] == 1)
    assert rank1_z2["mean_err_positive"] < 1e-6

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(a, rows)
    write_sweep_csv(b, run_error_sweep(parse_spec(obj)))
    assert a.read_bytes() == b.read_bytes()

    # the header is pinned, and each float field reads back as exactly its row's float
    header, *lines = a.read_text().splitlines()
    assert header == (
        "ell_max,d,Z,rank,trials,mean_err_positive,var_err_positive,"
        "mean_err_pseudoinverse,var_err_pseudoinverse"
    )
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        values = dict(zip(header.split(","), line.split(",")))
        ints = [int(values[c]) for c in ("ell_max", "d", "Z", "rank", "trials")]
        assert ints == [1, 3, row["Z"], row["rank"], 2]
        for name in header.split(",")[5:]:
            assert type(row[name]) is float and float(values[name]) == row[name]


def test_error_sweep_rows_do_not_depend_on_the_factor_cache():
    """A sweep gives the same rows, bit for bit, whether it factors its maps
    itself or finds them factored by a sweep before it in reverse Z order."""
    obj = {
        "kind": "error_sweep",
        "basis": {"ell_max": 2},
        "geometry": SMALL_GEOM,
        "z_values": [1, 2, 3],
        "ranks": [1, 2],
        "trials": 2,
        "seed": 7,
    }
    _factorize.cache_clear()
    cold = run_error_sweep(parse_spec(obj))
    _factorize.cache_clear()
    run_error_sweep(parse_spec({**obj, "z_values": [3, 2, 1]}))
    misses = _factorize.cache_info().misses
    warm = run_error_sweep(parse_spec(obj))
    assert _factorize.cache_info().misses == misses  # every map read the factors of the sweep before
    assert repr(warm) == repr(cold)


def test_sweep_pool_has_no_more_workers_than_cells(monkeypatch):
    """The pool starts all its workers at once, so a sweep asks for no more
    than it has cells; checked with an in-process stand-in for the pool."""
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    obj = {"kind": "error_sweep", "basis": {"ell_max": 1}, "geometry": SMALL_GEOM, "trials": 1}
    spec = parse_spec({**obj, "z_values": [1, 2], "ranks": [1]})
    in_process = run_error_sweep(spec)
    assert pools == []
    spec.threads = 500
    assert run_error_sweep(spec) == in_process
    assert pools == [2]
    spec = parse_spec({**obj, "z_values": [1], "ranks": [1]})  # one cell runs in process
    spec.threads = 500
    run_error_sweep(spec)
    assert pools == [2]


def test_error_sweep_rejects_a_non_finite_error(monkeypatch):
    monkeypatch.setattr(experiments, "hs_error", lambda estimate, rho: float("nan"))
    obj = {"kind": "error_sweep", "basis": {"ell_max": 1}, "geometry": SMALL_GEOM, "trials": 1}
    spec = parse_spec({**obj, "z_values": [1], "ranks": [1]})
    with pytest.raises(RuntimeError, match=r"non-finite error in cell ell_max=1, Z=1, rank=1"):
        run_error_sweep(spec)


def test_sweep_csv_of_no_rows_is_an_error(tmp_path):
    with pytest.raises(ValueError, match="empty sweep result"):
        write_sweep_csv(tmp_path / "empty.csv", [])
    assert not (tmp_path / "empty.csv").exists()


def test_run_experiment_rejects_an_unknown_kind(tmp_path):
    """parse_spec admits only known kinds; a spec built by hand is checked where it runs."""
    with pytest.raises(SpecValidationError, match="unknown kind 'bootstrap'"):
        run_experiment(ExperimentSpec(kind="bootstrap"), out_dir=str(tmp_path))


def test_simulate_then_reconstruct_roundtrip(tmp_path):
    sim = parse_spec(
        {
            "kind": "simulate",
            "basis": {"kind": "nonnegative", "d": 3},
            "geometry": {"n_pixels_per_side": 13, "planes": [1.0]},
            "state": {"kind": "random", "rank": 2},
            "output": "scan.csv",
            "seed": 9,
        }
    )
    run_experiment(sim, out_dir=str(tmp_path))
    scan_path = str(tmp_path / "scan.csv")
    scan = read_scan_csv(scan_path)
    assert scan.geometry.planes == (1.0,)

    rec = parse_spec(
        {
            "kind": "reconstruct",
            "basis": {"kind": "nonnegative", "d": 3},
            "scan_file": scan_path,
            "predict_planes": [0.0, 1.0],
        }
    )
    run_experiment(rec, out_dir=str(tmp_path))
    result = json.loads((tmp_path / "report.json").read_text())
    assert result["converged"]
    assert result["metadata"]["informationally_complete"]
    assert result["metadata"]["independent_detections"] == 9

    # the estimate reproduces the simulated state
    basis = ModeBasis.nonnegative_span(3)
    seed = derive_seed(9, 0)
    truth = random_state(basis, 2, seed)
    est = np.array(result["estimate"]["re"]) + 1j * np.array(result["estimate"]["im"])
    assert np.linalg.norm(est - truth.entries) < 1e-5

    # predicted scans agree with a fresh forward simulation of the truth
    pred = read_scan_csv(tmp_path / "predicted_scans.csv")
    assert pred.geometry.planes == (0.0, 1.0)
    fresh_map = build_measurement_map(basis, pred.geometry)
    fresh = simulate_scan(truth, fresh_map)
    np.testing.assert_allclose(pred.values, fresh.values, atol=1e-5)


@pytest.mark.parametrize(
    "predict_planes, shared",
    [(None, True), ([0.0, 1.0], False)],
    ids=["scan planes", "other planes"],
)
def test_reconstruct_predictions_reuse_scan_map(tmp_path, monkeypatch, predict_planes, shared):
    """Predictions at the scan's own planes read the reconstruction map's
    factors, not a second factorization, and equal those of a freshly built map."""
    sim = {"kind": "simulate", "basis": {"ell_max": 1}, "output": "scan.csv"}
    sim["geometry"] = {**SMALL_GEOM, "planes": [0.0, 1 / 3, 1 / 2, 1.0]}
    run_experiment(parse_spec(sim), out_dir=str(tmp_path))
    scan_path = str(tmp_path / "scan.csv")
    rec = {"kind": "reconstruct", "basis": {"ell_max": 1}, "scan_file": scan_path}
    if predict_planes is not None:
        rec["predict_planes"] = predict_planes
    rec = parse_spec(rec)

    builds = []
    build = experiments.build_measurement_map
    monkeypatch.setattr(
        experiments, "build_measurement_map", lambda *args: builds.append(args) or build(*args)
    )
    result, predicted = run_reconstruct(rec)
    assert len(builds) == 2
    maps = [build(*args) for args in builds]
    assert (maps[0].svd is maps[1].svd) == shared

    scan = read_scan_csv(scan_path)
    geom = ScanGeometry(scan.geometry.n_pixels_per_side, scan.geometry.extent, rec.predict_planes)
    estimate = state_from_json_dict(result["estimate"])
    write_scan_csv(tmp_path / "fresh.csv", simulate_scan(estimate, build(rec.basis(), geom)))
    write_scan_csv(tmp_path / "predicted.csv", predicted)
    assert (tmp_path / "predicted.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_strict_mode_raises_on_nonconvergence(tmp_path):
    sim = parse_spec(
        {
            "kind": "simulate",
            "basis": {"ell_max": 1},
            "geometry": SMALL_GEOM,
            "output": "scan.csv",
        }
    )
    run_experiment(sim, out_dir=str(tmp_path))
    scan_path = str(tmp_path / "scan.csv")
    rec = parse_spec(
        {
            "kind": "reconstruct",
            "basis": {"ell_max": 1},
            "scan_file": scan_path,
            "solver": {"max_iterations": 2, "rel_tolerance": 1e-15},
        }
    )
    rec.strict = True
    with pytest.raises(NonConvergenceError):
        run_reconstruct(rec)


def test_runners_return_what_they_computed_and_write_nothing(tmp_path, monkeypatch):
    """run_experiment is the one writer: the runners leave the working directory as they found it."""
    sim = {"kind": "simulate", "basis": {"ell_max": 1}, "geometry": SMALL_GEOM}
    run_experiment(parse_spec(sim), out_dir=str(tmp_path / "in"))
    rec = {"kind": "reconstruct", "basis": {"ell_max": 1}, "scan_file": str(tmp_path / "in" / "scan.csv")}
    rec = parse_spec({**rec, "compute_entropy": True, "solver": {"multistart": 2}})
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    scan = run_simulate(parse_spec(sim))
    result, predicted = run_reconstruct(rec)
    assert list((tmp_path / "cwd").iterdir()) == []
    assert np.array_equal(scan.values, read_scan_csv(tmp_path / "in" / "scan.csv").values)
    assert predicted.geometry.planes == rec.predict_planes
    assert "report_file" not in result and "predicted_scan_files" not in result  # what run_experiment wrote


# ------------------------------------------------------------------ CLI


def write_spec(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_rank_analysis(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", {"kind": "rank_analysis", "z_max": 2})
    code = main(["rank-analysis", "--spec", spec, "--out", str(tmp_path), "--set", "basis.ell_max=1"])
    assert code == EXIT_OK
    assert "Z=1: n_Z=6" in capsys.readouterr().out
    assert (tmp_path / "rank_analysis.csv").read_text() == "Z,n_detections\n1,6\n2,8\n"


def test_cli_flags_before_the_command(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "--set", "basis.ell_max=1", "rank-analysis", "--set", "z_max=2"])
    assert code == EXIT_OK
    assert (tmp_path / "rank_analysis.csv").read_text() == "Z,n_detections\n1,6\n2,8\n"
    capsys.readouterr()


def test_cli_dark_geometry_counts_and_simulates(tmp_path, capsys):
    """A map that sees no light has no detections and a noiseless all-zero scan:
    true answers, not errors. Only a solve refuses such a map."""
    dark = [a for f in DARK for a in ("--set", f)]
    assert main(["rank-analysis", "--out", str(tmp_path), "--set", "z_max=2", *dark]) == EXIT_OK
    assert "Z=2: n_Z=0" in capsys.readouterr().out
    assert main(["simulate", "--out", str(tmp_path), *dark]) == EXIT_OK
    capsys.readouterr()
    assert not read_scan_csv(tmp_path / "scan.csv").values.any()


def test_cli_invalid_spec_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, "spec.json", {"kind": "rank_analysis", "trials": -3})
    assert main(["rank-analysis", "--spec", spec]) == EXIT_SPEC
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize(
    "write, message",
    [
        (lambda p: p.write_text("{not json"), "Expecting property name"),
        (lambda p: p.mkdir(), "Is a directory"),
        (lambda p: p.write_bytes(b'{"kind": "simulate", "output": "\xff"}'), "can't decode byte 0xff"),
        (lambda p: None, "No such file or directory"),
        (lambda p: p.write_text("[" * 100000 + "]" * 100000), f"nested deeper than {MAX_JSON_DEPTH} levels"),
    ],
    ids=["not JSON", "a directory", "not UTF-8", "missing", "nested too deeply"],
)
def test_cli_unparsable_spec_exits_2(tmp_path, capsys, write, message):
    path = tmp_path / "spec.json"
    write(path)
    assert main(["simulate", "--spec", str(path)]) == EXIT_SPEC
    err = capsys.readouterr().err
    assert "spec file is not valid JSON" in err and message in err


@pytest.mark.parametrize(
    "text, flags",
    [
        ("[1, 2]", []),
        ("[1, 2]", ["--seed", "3"]),
        ("[1, 2]", ["--set", "seed=3"]),
        ('"x"', ["--set", "basis.ell_max=2"]),
    ],
    ids=["a list", "a list with --seed", "a list with --set", "a string with a nested --set"],
)
def test_cli_spec_not_an_object_exits_2(tmp_path, capsys, text, flags):
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert main(["simulate", "--spec", str(path), "--out", str(tmp_path), *flags]) == EXIT_SPEC
    assert "spec must be a JSON object" in capsys.readouterr().err


def test_cli_spec_with_a_deep_value_exits_2(tmp_path, capsys):
    """An override copies only the blocks it writes into, so a spec value nested
    deeper than a recursive copy can go, here at the reader's bound, is reported
    as any unknown field is."""
    path = tmp_path / "spec.json"
    path.write_text('{"x": ' + "[" * (MAX_JSON_DEPTH - 1) + "]" * (MAX_JSON_DEPTH - 1) + "}")
    args = ["simulate", "--spec", str(path), "--out", str(tmp_path), "--set", "basis.ell_max=1"]
    assert main(args) == EXIT_SPEC
    assert capsys.readouterr().err.splitlines() == ["invalid experiment spec:", "  unknown field 'x'"]


def nested(depth: int) -> str:
    """JSON text of ``depth`` empty lists, each inside the next."""
    return "[" * depth + "]" * depth


def deeper(frames: int, call):
    """call() from ``frames`` more Python frames down the stack."""
    return deeper(frames - 1, call) if frames else call()


def json_file(path, text: str) -> str:
    path.write_text(text)
    return str(path)


def deep_state(path, depth: int) -> str:
    """A state file whose ells are ``depth`` - 1 nested lists, so the file nests ``depth`` levels."""
    return json_file(path, '{"ells": ' + nested(depth - 1) + ', "re": [[1]], "im": [[0]]}')


# each JSON input as (the CLI arguments that give it a value nested ``depth`` levels,
# the judgement of that value at the bound, the exit code)
JSON_INPUTS = {
    "--spec file": (
        lambda p, depth: ["simulate", "--spec", json_file(p, '{"seed": ' + nested(depth - 1) + "}")],
        "seed must be a nonnegative integer, got [[[[[[[...]]]]]]]",
        EXIT_SPEC,
    ),
    "--set value": (
        lambda p, depth: ["simulate", "--set", "seed=" + nested(depth)],
        "seed must be a nonnegative integer, got [[[[[[[...]]]]]]]",
        EXIT_SPEC,
    ),
    "state.path in simulate": (
        lambda p, depth: ["simulate", "--set", "state.kind=file", "--set", f'state.path="{deep_state(p, depth)}"'],
        "mode indices must be integers, got [[[[[[[...]]]]]]]",
        EXIT_DATA,
    ),
    "state_file in validate": (
        lambda p, depth: ["validate", "--set", f'state_file="{deep_state(p, depth)}"'],
        "state_file: malformed density-matrix record: mode indices must be integers, got [[[[[[[...]]]]]]]",
        EXIT_DATA,
    ),
}


@pytest.mark.parametrize("args, judged, code", JSON_INPUTS.values(), ids=JSON_INPUTS.keys())
def test_json_nesting_bound_is_the_same_from_any_caller(tmp_path, capsys, args, judged, code):
    """Every JSON input is read by one reader with one fixed bound: a value one level past it gets one
    diagnostic, whatever the caller's stack depth, and a value at the bound is parsed and judged."""
    too_deep = args(tmp_path / "input.json", MAX_JSON_DEPTH + 1) + ["--out", str(tmp_path)]
    outcomes = []
    for frames in (0, 200):
        outcomes.append((deeper(frames, lambda: main(too_deep)), capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == code and f"nested deeper than {MAX_JSON_DEPTH} levels" in outcomes[0][1]

    at_bound = args(tmp_path / "input.json", MAX_JSON_DEPTH) + ["--out", str(tmp_path)]
    for frames in (0, 200):
        assert deeper(frames, lambda: main(at_bound)) == code
        err = capsys.readouterr().err
        assert judged in err and "nested deeper" not in err


def test_parse_spec_leaves_the_callers_spec_as_it_was():
    obj = {"kind": "simulate", "basis": {"ell_max": 3}}
    spec = parse_spec(obj, overrides=["basis.ell_max=2", "geometry.n_pixels_per_side=5"])
    assert (spec.ell_max, spec.n_pixels_per_side) == (2, 5)
    assert obj == {"kind": "simulate", "basis": {"ell_max": 3}}


def test_cli_bad_set_exits_2(capsys):
    assert main(["simulate", "--set", "no_equals_sign"]) == EXIT_SPEC
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        ("simulate", ["basis=3"], "basis must be an object"),
        ("simulate", ["geometry=3"], "geometry must be an object"),
        ("simulate", ["state=3"], "state must be an object"),
        ("simulate", ["noise=3"], "noise must be an object"),
        ("error-sweep", ["z_values=[0]"], "z_values"),
        ("error-sweep", ["ranks=[0]"], "ranks"),
        ("error-sweep", ["ranks=[99]"], "ranks"),
        ("entropy-sweep", ["state.kind=test", "basis.ell_max=2"], "state.kind 'test'"),
        ("simulate", ["noise.kind=poisson", "noise.photon_budget=lots"], "noise.photon_budget"),
        ("simulate", ["state.rank=99"], "state.rank"),
        *(
            ("entropy-sweep", [*one_mode, "z_values=[1]", "n_states=1"], "draws its random states at rank 2")
            for one_mode in (["basis.ell_max=0"], ["basis.kind=nonnegative", "basis.d=1"])
        ),
        ("error-sweep", ["branches=3"], "branches must be a non-empty list"),
        ("simulate", ["geometry.planes=[1,1]"], "geometry.planes must be"),
        ("simulate", ["predict_planes=[0,0]"], "predict_planes must be"),
        ("error-sweep", ["ell_max_values=[-1]"], "unknown field 'ell_max_values'"),
        ("rank-analysis", ["basis.ell_max=-1"], "basis.ell_max must be a nonnegative integer"),
        ("rank-analysis", ["basis.ellmax=1"], "unknown field 'basis.ellmax'"),
        ("simulate", ["noise.budget=5"], "unknown field 'noise.budget'"),
        ("simulate", ["state.kind=test", "state.p=x", "state.theta=0.5"], "state.p must be"),
        ("simulate", ["state.kind=test", "state.p=2", "state.theta=0.5"], "state.p must be"),
        ("simulate", ["state.kind=test", "state.p=0.5", "state.theta=x"], "state.theta must be"),
        ("simulate", ["geometry.extent=nan"], "geometry.extent must be"),
        ("simulate", ["geometry.extent=inf"], "geometry.extent must be"),
        ("error-sweep", ["trials=1.5"], "trials must be"),
        ("rank-analysis", ["z_max=true"], "z_max must be"),
        ("simulate", ["compute_entropy=no"], "compute_entropy must be"),
        ("simulate", ["state.kind=test", "state.p=0.3"], "state.theta is missing"),
        ("simulate", ["state.kind=test", "state.theta=0.5"], "state.p is missing"),
        ("rank-analysis", ["kind=bogus"], "kind must be one of"),
        ("rank-analysis", ["kind=simulate"], "does not match the subcommand's kind"),
        ("entropy-sweep", ["solver.multistart=1"], "solver.multistart must be at least 2"),
        ("reconstruct", ["solver.multistart=1", "compute_entropy=true"], "solver.multistart must be at least 2"),
        ("simulate", [*DARK, "noise.kind=poisson", "noise.photon_budget=1e6"], "receives no light"),
        ("error-sweep", [*DARK, "noise.kind=poisson", "noise.photon_budget=1e6"], "receives no light"),
        ("error-sweep", DARK, "geometry.extent 100.0: measurement map is identically zero"),
        ("entropy-sweep", DARK, "geometry.extent 100.0: measurement map is identically zero"),
        (
            "entropy-sweep",
            [*DARK, 'branches=["pseudoinverse"]'],
            "geometry.extent 100.0: measurement map is identically zero",
        ),
        *(
            (c, [*OVERFLOW, z], "geometry.extent 6e+153: measurement map overflows at this extent")
            for c, z in (("error-sweep", "z_values=[4]"), ("rank-analysis", "z_max=4"))
        ),
        ("simulate", [*TINY, "geometry.extent=1e300"], "positive finite pixel area, got 1e+300"),
        ("simulate", [*TINY, "geometry.extent=1e-300"], "positive finite pixel area, got 1e-300"),
        ("error-sweep", ["geometry.planes=[0,1]", "z_values=[1,3]"], "Z = 3 needs more planes than"),
        ("rank-analysis", ["geometry.planes=[0,1]", "z_max=3"], "Z = 3 needs more planes than"),
        ("error-sweep", ["basis.ell_max=3", "state.kind=test", "state.p=0.5", "state.theta=0.3"], "random states"),
        ("simulate", ["basis.ell_max=171", "geometry.n_pixels_per_side=1"], "basis.ell_max, the basis's largest |ell|"),
        *(
            (c, [f"geometry.n_pixels_per_side={2**30}"], SIDE_BOUND)
            for c in ("rank-analysis", "simulate", "error-sweep")
        ),
        ("rank-analysis", ["geometry.n_pixels_per_side=10000000000000000000"], SIDE_BOUND),
        (
            "simulate",
            ["noise.kind=poisson", "noise.photon_budget=1e300"],
            "noise.photon_budget must be a positive finite number of at most 1e+18, got 1e+300",
        ),
        ("simulate", ["basis.ell_max=1e30"], "must be at most 170, got 1000000000000000019884624838656"),
        ("simulate", ["basis.kind=nonnegative", "basis.d=172"], "basis.d - 1, the basis's largest |ell|, must be"),
        ("simulate", ["state.kind=file"], "state.kind 'file' requires state.path"),
        ("simulate", ["basis=3", "basis.ell_max=2"], "--set path 'basis.ell_max' collides with a scalar field"),
        ("simulate", ["x=" + "[" * 100000], f"--set x: nested deeper than {MAX_JSON_DEPTH} levels"),
        ("simulate", ["solver.seed=1"], "unknown field 'solver.seed'"),
        ("simulate", ["seed=" + "[" * 400 + "]" * 400], "seed must be a nonnegative integer, got [[[[[[[...]]]]]]]"),
        ("simulate", ["seed=" + "x" * 5000], "seed must be a nonnegative integer, got '" + "x" * 12 + "..."),
        ("validate", [f'scan_file="{LONG_PATH}"'], "scan_file does not exist as a regular file: " + LONG_ECHO),
        ("simulate --spec " + LONG_PATH, [], "File name too long: " + LONG_ECHO),
    ],
    ids=[
        "basis not an object",
        "geometry not an object",
        "state not an object",
        "noise not an object",
        "z below 1",
        "rank below 1",
        "rank above d",
        "test state without its modes",
        "photon budget not a number",
        "state rank above d",
        "entropy sweep of random states on one symmetric mode",
        "entropy sweep of random states on one nonnegative mode",
        "branches not a list",
        "repeated plane",
        "repeated prediction plane",
        "negative ell_max value",
        "negative basis.ell_max",
        "misspelt basis field",
        "misspelt noise field",
        "test-state weight not a number",
        "test-state weight above 1",
        "test-state angle not a number",
        "extent not a number",
        "extent infinite",
        "fractional trials",
        "z_max a bool",
        "compute_entropy not a bool",
        "test-state weight without its angle",
        "test-state angle without its weight",
        "unknown spec kind",
        "spec kind of another subcommand",
        "entropy sweep with one start",
        "reconstruct entropy with one start",
        "poisson scan of a dark geometry",
        "poisson sweep of a dark geometry",
        "noiseless error sweep of a dark geometry",
        "noiseless entropy sweep of a dark geometry",
        "noiseless pseudoinverse entropy sweep of a dark geometry",
        "error sweep of a map that overflows",
        "rank-analysis of a map that overflows",
        "pixel area overflows",
        "pixel area underflows",
        "sweep Z beyond the explicit planes",
        "rank-analysis Z beyond the explicit planes",
        "error sweep over a test state",
        "ell_max beyond 170",
        "rank-analysis grid side of 2^30",
        "simulate grid side of 2^30",
        "error-sweep grid side of 2^30",
        "rank-analysis grid side of 10^19",
        "photon budget beyond the Poisson sampler",
        "ell_max beyond a double's integers",
        "nonnegative basis beyond 170",
        "file state without a path",
        "dotted path through a scalar",
        "--set value nested too deeply",
        "a second seed in the solver block",
        "seed nested 400 deep",
        "seed a 5000-character string",
        "scan_file a 5004-character path",
        "--spec a 5004-character path",
    ],
)
def test_cli_malformed_spec_exits_2(tmp_path, capsys, command, overrides, message):
    args = [*command.split(), "--out", str(tmp_path)]
    for assignment in overrides:
        args += ["--set", assignment]
    assert main(args) == EXIT_SPEC
    err = capsys.readouterr().err
    assert message in err
    assert max(map(len, err.splitlines())) < 200 and len(err.encode()) < 400  # a rejected value is echoed in part


def test_cli_validate_good_and_bad_scan(tmp_path, capsys):
    geom = ScanGeometry(5, 3.0, (0.0,))
    mmap = build_measurement_map(ModeBasis.symmetric_span(1), geom)
    scan = simulate_scan(random_state(ModeBasis.symmetric_span(1), 1, seed=0), mmap)
    good = tmp_path / "good.csv"
    write_scan_csv(good, scan)
    assert main(["validate", "--set", f'scan_file="{good}"']) == EXIT_OK
    assert "all files valid" in capsys.readouterr().out

    bad = tmp_path / "bad.csv"
    bad.write_text("plane_index,zeta,px,py,value\n0,0.0,0,0,oops\n")
    assert main(["validate", "--set", f'scan_file="{bad}"']) == EXIT_DATA
    assert "line" in capsys.readouterr().err


def test_cli_validate_reports_every_bad_file(tmp_path, capsys):
    """validate reads every file it is given and reports each bad one, scan first,
    as one data error: of the scan reader's class when the scan failed."""
    scan = tmp_path / "scan.csv"
    scan.write_text("plane_index,zeta,px,py,value\n0,nan,0,0,0.5\n")
    state = tmp_path / "state.json"
    state.write_text('{"ells": [0, 1], "re": [[NaN, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}')
    files = ["--set", f'scan_file="{scan}"', "--set", f'state_file="{state}"']
    assert main(["validate", *files]) == EXIT_DATA
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "scan_file: line 2: non-finite plane position nan",
        "state_file: density-matrix invariants violated: finite entries",
    ]
    spec = parse_spec({"kind": "validate", "scan_file": str(scan), "state_file": str(state)})
    with pytest.raises(ScanFormatError):
        run_validate(spec)
    with pytest.raises(StateValidationError, match="^state_file: "):
        run_validate(parse_spec({"kind": "validate", "state_file": str(state)}))


def state_record(**fields):
    """Writes a state file over the modes -1, 0, 1 with the diagonal (0.5, 0.25, 0.25), ``fields`` replaced;
    json writes False and True as false and true, and a string as a JSON string."""
    obj = {"ells": [-1, 0, 1], "re": np.diag([0.5, 0.25, 0.25]).tolist(), "im": np.zeros((3, 3)).tolist(), **fields}
    return lambda p: p.write_text(json.dumps(obj))


def diagonal_state(first: float):
    """Writes a state file over the modes -1, 0, 1 with the diagonal (first, 0.5, 0.5);
    json writes a NaN or an infinite entry as NaN or Infinity."""
    obj = {"ells": [-1, 0, 1], "re": np.diag([first, 0.5, 0.5]).tolist(), "im": np.zeros((3, 3)).tolist()}
    return lambda p: p.write_text(json.dumps(obj))


MALFORMED_FILES = {
    "state file not JSON": ("simulate", lambda p: p.write_text("{not json"), "not valid JSON", EXIT_DATA),
    "state over another basis": (
        "simulate",
        lambda p: write_state_json(p, random_state(ModeBasis.symmetric_span(2), 1, seed=0)),
        "state file is over modes",
        EXIT_DATA,
    ),
    "state modes out of order": (
        "simulate",
        lambda p: p.write_text('{"ells": [1, 0], "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}'),
        "sorted ascending",
        EXIT_DATA,
    ),
    "state entry nan": ("simulate", diagonal_state(np.nan), "invariants violated: finite entries", EXIT_DATA),
    "state mode index not an integer": (
        "simulate",
        state_record(ells=[-1, 0, 1.5]),
        "mode indices must be integers, got [-1, 0, 1.5]",
        EXIT_DATA,
    ),
    "state mode indices booleans": (
        "simulate",
        state_record(ells=[-1, False, True]),
        "mode indices must be integers, got [-1, False, True]",
        EXIT_DATA,
    ),
    "state entry a string": (
        "simulate",
        state_record(re=[["0.5", 0, 0], [0, 0.25, 0], [0, 0, 0.25]]),
        "entries must be numbers",
        EXIT_DATA,
    ),
    "state entry an integer beyond a double": (
        "simulate",
        state_record(re=[[10**400, 0, 0], [0, 0.25, 0], [0, 0, 0.25]]),
        "int too large to convert to float",
        EXIT_DATA,
    ),
    "state entry infinite": ("simulate", diagonal_state(np.inf), "invariants violated: finite entries", EXIT_DATA),
    "state file nested too deeply": (
        "simulate",
        lambda p: p.write_text('{"ells": ' + "[" * 100000 + "]" * 100000 + ', "re": [[1]], "im": [[0]]}'),
        f"state file is not valid JSON: nested deeper than {MAX_JSON_DEPTH} levels",
        EXIT_DATA,
    ),
    "state entries nested 33 deep": (
        "simulate",
        lambda p: p.write_text('{"ells": [0], "re": [[0.5]], "im": ' + "[" * 33 + "0" + "]" * 33 + "}"),
        "entries shape (1, 1, 1,",
        EXIT_DATA,
    ),
    "state mode indices nested 400 deep": (
        "simulate",
        state_record(ells=json.loads("[" * 400 + "]" * 400)),
        "mode indices must be integers, got [[[[[[[...]]]]]]]",
        EXIT_DATA,
    ),
    "scan not UTF-8": (
        "reconstruct",
        lambda p: p.write_bytes(b"plane_index,zeta,px,py,value\n0,0.0,0,0,\xff\n"),
        "not UTF-8",
        EXIT_DATA,
    ),
    "scan file a directory": ("reconstruct", lambda p: p.mkdir(), "regular file", EXIT_SPEC),
    "scan header of 5000 characters": (
        "validate",
        lambda p: p.write_text("y" * 5000 + "\n0,0.0,0,0,1.0\n"),
        "line 1: expected header 'plane_index,zeta,px,py,value', got '" + "y" * 12 + "..." + "y" * 13 + "'",
        EXIT_DATA,
    ),
    "scan field of 5000 characters": (
        "validate",
        lambda p: p.write_text("plane_index,zeta,px,py,value\n0,0.0,0,0," + "x" * 5000 + "\n"),
        "line 2: could not convert string to float: 'xxxxxxxx",
        EXIT_DATA,
    ),
    "scan plane repeated": (
        "reconstruct",
        lambda p: p.write_text("plane_index,zeta,px,py,value\n0,0.0,0,0,1.0\n1,0.0,0,0,1.0\n"),
        "line 3: inconsistent plane",
        EXIT_DATA,
    ),
    "scan plane position nan": (
        "reconstruct",
        lambda p: p.write_text("plane_index,zeta,px,py,value\n0,nan,0,0,0.5\n"),
        "line 2: non-finite plane position nan",
        EXIT_DATA,
    ),
    "scan plane positions nan": (
        "reconstruct",
        lambda p: p.write_text("plane_index,zeta,px,py,value\n" + "0,nan,0,0,0.5\n0,nan,1,0,0.5\n"),
        "line 2: non-finite plane position nan",
        EXIT_DATA,
    ),
    "scan second plane inf": (
        "reconstruct",
        lambda p: p.write_text("plane_index,zeta,px,py,value\n0,0.0,0,0,1.0\n1,inf,0,0,1.0\n"),
        "line 3: non-finite plane position inf",
        EXIT_DATA,
    ),
    "scan pixel outside the grid": (
        "reconstruct",
        lambda p: p.write_text("plane_index,zeta,px,py,value\n0,0.0,0,0,1.0\n0,0.0,1,2,1.0\n"),
        "line 3: pixel index (1, 2) outside 2x2 grid",
        EXIT_DATA,
    ),
    "scan rows missing": (
        "reconstruct",
        lambda p: p.write_text("plane_index,zeta,px,py,value\n0,0.0,0,0,1.0\n0,0.0,1,0,1.0\n"),
        "expected 4 data rows for a 2x2 grid over 1 plane(s), got 2",
        EXIT_DATA,
    ),
    "scan pixel index beyond int64": (
        "validate",
        lambda p: p.write_text("plane_index,zeta,px,py,value\n0,0.0,0,0,1.0\n0,0.0,99999999999999999999,0,1.0\n"),
        "line 3: pixel index (99999999999999999999, 0) does not fit in 64 bits",
        EXIT_DATA,
    ),
    "extent underflows on the file's grid": (
        "reconstruct --set geometry.extent=2.1e-161",
        lambda p: p.write_text(
            "plane_index,zeta,px,py,value\n"
            + "".join(f"0,0.0,{px},{py},0.5\n" for py in range(101) for px in range(101))
        ),
        "extent 2.1e-161 gives no positive finite pixel area on the file's 101x101 grid",
        EXIT_DATA,
    ),
    "extent leaves every pixel of the file's grid dark": (
        "reconstruct --set geometry.extent=100",
        lambda p: p.write_text(
            "plane_index,zeta,px,py,value\n" + "".join(f"0,0.0,{i % 2},{i // 2},0.0\n" for i in range(4))
        ),
        "data': measurement map is identically zero",  # after the file's path, bounded as every echoed value is
        EXIT_DATA,
    ),
    "--out a 5004-character path": (
        "simulate --out " + LONG_PATH,
        state_record(),
        "File name too long: " + LONG_ECHO,
        EXIT_DATA,
    ),
}


@pytest.mark.parametrize("command, write, message, code", MALFORMED_FILES.values(), ids=MALFORMED_FILES.keys())
def test_cli_malformed_data_file_exits_2_or_3(tmp_path, capsys, command, write, message, code):
    path = tmp_path / "data"
    write(path)
    command, *options = command.split()
    args = [command, "--out", str(tmp_path / "out"), *options, "--set", "basis.ell_max=1"]  # an option's --out wins
    if command == "simulate":
        args += ["--set", "state.kind=file", "--set", f'state.path="{path}"']
    else:
        args += ["--set", f'scan_file="{path}"']
    assert main(args) == code
    err = capsys.readouterr().err
    assert message in err
    assert max(map(len, err.splitlines())) < 200 and len(err.encode()) < 400  # a rejected value is echoed in part


@pytest.mark.parametrize("defect", ["repeats pixel", "non-finite value", "negative value"])
def test_cli_reconstruct_rejects_bad_scan_rows_exit_3(tmp_path, capsys, defect):
    geom = ScanGeometry(5, 3.0, (0.0,))
    basis = ModeBasis.symmetric_span(1)
    path = tmp_path / "scan.csv"
    write_scan_csv(path, simulate_scan(random_state(basis, 1, seed=0), build_measurement_map(basis, geom)))
    lines = path.read_text().splitlines()
    value = {"non-finite value": "nan", "negative value": "-0.5"}.get(defect)
    lines[3] = ",".join(lines[3].split(",")[:4] + [value]) if value else lines[2]
    path.write_text("\n".join(lines) + "\n")
    assert main(["reconstruct", "--set", f'scan_file="{path}"', "--set", "basis.ell_max=1"]) == EXIT_DATA
    assert f"line 4: {defect}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["simulate"], ["rank-analysis", "--set", "z_max=2"]])
def test_cli_far_extent_runs(tmp_path, capsys, command):
    """At extent 1e100 every pixel but the centre one sees exp(-2 rr^2) = 0 and rr^|l| = inf."""
    far = ["basis.ell_max=7", "geometry.n_pixels_per_side=3", "geometry.extent=1e100"]
    assert main([*command, "--out", str(tmp_path), *(a for f in far for a in ("--set", f))]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("command", [["error-sweep", "--set", "trials=1"], ["entropy-sweep"], ["reconstruct"]])
def test_cli_far_extent_solves(tmp_path, capsys, command):
    """At extent 1e100 a solve's ||A^T p|| passes the largest double in absolute units; the
    least-squares model works in units of 2^e, so every run that solves runs and writes its file."""
    far = ["basis.ell_max=1", "geometry.n_pixels_per_side=3", "geometry.extent=1e100"]
    assert main(["simulate", "--out", str(tmp_path), *(a for f in far for a in ("--set", f))]) == EXIT_OK
    far += ["z_values=[1]", "ranks=[1]", "n_states=2", f'scan_file="{tmp_path / "scan.csv"}"']
    assert main([*command, "--out", str(tmp_path), *(a for f in far for a in ("--set", f))]) == EXIT_OK
    capsys.readouterr()
    written = {"error-sweep": "error_sweep.csv", "entropy-sweep": "entropy_sweep.csv", "reconstruct": "report.json"}
    assert (tmp_path / written[command[0]]).is_file()


@pytest.mark.parametrize("n, extent", [(3, 9e24), (7, 9e18)])
def test_cli_error_sweep_lights_an_odd_grids_centre(tmp_path, capsys, n, extent):
    """An odd grid's centre pixel is exactly at 0, so it sees light at any extent; at these
    extents a centre off 0 by a rounding residue of order eps * extent is dark, and the map with it."""
    far = ["basis.ell_max=1", f"geometry.n_pixels_per_side={n}", f"geometry.extent={extent!r}"]
    far += ["z_values=[1]", "ranks=[1]", "trials=1"]
    assert main(["error-sweep", "--out", str(tmp_path), *(a for f in far for a in ("--set", f))]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "error_sweep.csv").is_file()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no overflow anywhere in the run
@pytest.mark.parametrize("n", [1, 3])
def test_cli_reconstruct_at_the_extent_bound_reports_finite_numbers(tmp_path, capsys, n):
    """From extent 1e77 on, ||A^T p|| passes the largest double on a 1x1 grid, and 1e150 is
    near the largest extent a grid takes: a 4-plane solve there reports finite numbers."""
    for extent in (1e77, 1e150):
        out = tmp_path / repr(extent)
        at = ["basis.ell_max=1", f"geometry.n_pixels_per_side={n}", f"geometry.extent={extent!r}"]
        sim = [*at, "state.rank=2", "geometry.n_planes=4"]
        assert main(["simulate", "--out", str(out), *(a for f in sim for a in ("--set", f))]) == EXIT_OK
        rec = [*at, f'scan_file="{out / "scan.csv"}"', "compute_entropy=true", "solver.multistart=2"]
        assert main(["reconstruct", "--out", str(out), *(a for f in rec for a in ("--set", f))]) == EXIT_OK
        capsys.readouterr()

        def not_finite(token):
            raise AssertionError(f"report.json holds {token}")

        report = json.loads((out / "report.json").read_text(), parse_constant=not_finite)
        assert report["metadata"]["stop_reason"] == "certified"


@pytest.mark.filterwarnings("error")  # no overflow anywhere in the run
def test_cli_reconstruct_refuses_a_scan_too_large_for_its_maps_units(tmp_path, capsys):
    """A scan read at an extent far below its own is huge in its map's units of 2^e. From
    1.5764e-77 on this 3x3 grid (to five digits) ||p||^2 could pass the largest double there,
    and the scan is a data error that names the extent and the file and writes no report; at
    1.5765e-77, a noiseless and a noisy scan give reports of finite numbers."""
    grid = ["basis.ell_max=1", "geometry.n_pixels_per_side=3"]
    for noise in ("none", "poisson"):
        sim = [*grid, f"noise.kind={noise}", "noise.photon_budget=1e6"]
        assert main(["simulate", "--out", str(tmp_path / noise), *(a for f in sim for a in ("--set", f))]) == EXIT_OK
    capsys.readouterr()

    def reconstruct(noise, extent):
        out = tmp_path / noise / repr(extent)
        rec = [*grid, f'scan_file="{tmp_path / noise / "scan.csv"}"', f"geometry.extent={extent!r}"]
        return main(["reconstruct", "--out", str(out), *(a for f in rec for a in ("--set", f))]), out / "report.json"

    code, report = reconstruct("none", 1.5764e-77)
    assert code == EXIT_DATA and not report.exists()
    err = capsys.readouterr().err
    assert err.startswith("extent 1.5764e-77 on the grid of ") and "overflow the model at this extent" in err

    def not_finite(token):
        raise AssertionError(f"report.json holds {token}")

    for noise in ("none", "poisson"):
        code, report = reconstruct(noise, 1.5765e-77)
        assert code == EXIT_OK
        capsys.readouterr()
        assert json.loads(report.read_text(), parse_constant=not_finite)["metadata"]["stop_reason"] == "certified"


def test_cli_entropy_sweep_of_a_file_state_on_one_mode(tmp_path, capsys):
    """Only random states are drawn at rank 2: a sweep of a state file on a one-mode basis runs."""
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"ells": [0], "re": [[1.0]], "im": [[0.0]]}))
    args = ["entropy-sweep", "--out", str(tmp_path), "--set", "basis.ell_max=0", "--set", "z_values=[1]"]
    args += ["--set", "n_states=1", "--set", "state.kind=file", "--set", f'state.path="{path}"']
    assert main(args) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "entropy_sweep.csv").is_file()


def test_cli_validate_state_file(tmp_path, capsys):
    rho = random_state(ModeBasis.symmetric_span(1), 1, seed=2)
    path = tmp_path / "state.json"
    write_state_json(path, rho)
    assert main(["validate", "--set", f'state_file="{path}"', "--out", str(tmp_path / "new")]) == EXIT_OK
    assert capsys.readouterr().out == "all files valid\n"
    assert not (tmp_path / "new").exists()  # validate writes nothing, so it makes no --out

    bad = tmp_path / "bad_state.json"
    bad.write_text(json.dumps({"ells": [0, 1], "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}))
    assert main(["validate", "--set", f'state_file="{bad}"']) == EXIT_DATA
    assert "trace" in capsys.readouterr().err


def test_cli_simulate_reconstruct_and_strict_exit_4(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        "sim.json",
        {
            "kind": "simulate",
            "basis": {"ell_max": 1},
            "geometry": {"n_pixels_per_side": 9, "n_planes": 2},
            "output": "scan.csv",
        },
    )
    assert main(["simulate", "--spec", spec, "--out", str(tmp_path), "--seed", "3"]) == EXIT_OK
    scan_path = tmp_path / "scan.csv"
    assert scan_path.exists()
    capsys.readouterr()

    rec = write_spec(
        tmp_path,
        "rec.json",
        {"kind": "reconstruct", "basis": {"ell_max": 1}, "scan_file": str(scan_path)},
    )
    assert main(["reconstruct", "--spec", rec, "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "report.json").exists()
    capsys.readouterr()

    code = main(
        [
            "reconstruct",
            "--spec",
            rec,
            "--out",
            str(tmp_path),
            "--strict",
            "--set",
            "solver.max_iterations=2",
            "--set",
            "solver.rel_tolerance=1e-15",
        ]
    )
    assert code == EXIT_NONCONVERGED
    capsys.readouterr()


def test_cli_error_sweep_strict_exit_4(tmp_path, capsys):
    sweep = ["trials=1", "ranks=[2]", "z_values=[1]", "solver.max_iterations=1", "solver.rel_tolerance=1e-15"]
    args = ["error-sweep", "--strict", "--out", str(tmp_path)]
    assert main([*args, *(f"--set={a}" for a in TINY + sweep)]) == EXIT_NONCONVERGED
    assert "positive-branch solver did not converge" in capsys.readouterr().err
    assert not (tmp_path / "error_sweep.csv").exists()


def test_cli_reconstruct_with_entropy(tmp_path, capsys):
    """The README's demo: simulate a rank-2 state, then reconstruct it with the uniqueness entropy."""
    out = str(tmp_path / "demo")
    args = ["--set", "basis.ell_max=4", "--set", "geometry.n_pixels_per_side=9", "--out", out]
    assert main(["simulate", *args, "--set", "state.rank=2"]) == EXIT_OK
    scan = f'scan_file="{tmp_path / "demo" / "scan.csv"}"'
    entropy = ["--set", "compute_entropy=true", "--set", "solver.multistart=3"]
    assert main(["reconstruct", *args, "--set", scan, *entropy]) == EXIT_OK
    capsys.readouterr()
    report = json.loads((tmp_path / "demo" / "report.json").read_text())
    assert report["converged"] and 0.0 <= report["uniqueness_entropy"] <= np.log(3)  # three runs
    assert report["metadata"]["informationally_complete"] is False  # two planes, the default n_planes


@pytest.mark.parametrize("kind", ["file", "test"])
def test_cli_simulate_writes_the_scan_of_its_state(tmp_path, capsys, kind):
    """state.kind "file" reads the state file, and "test" with state.p and
    state.theta builds that probe state: the scan is that state's."""
    basis = ModeBasis.symmetric_span(3)
    if kind == "file":
        rho = random_state(basis, 2, seed=8)
        write_state_json(tmp_path / "rho.json", rho)
        state = ["state.kind=file", f'state.path="{tmp_path / "rho.json"}"']
    else:
        rho = probe_state(0.3, 0.5, basis)
        state = ["state.kind=test", "state.p=0.3", "state.theta=0.5"]
    args = ["simulate", "--out", str(tmp_path), "--set=basis.ell_max=3", "--set=geometry.n_pixels_per_side=9"]
    assert main([*args, *(f"--set={a}" for a in state)]) == EXIT_OK
    capsys.readouterr()
    mmap = build_measurement_map(basis, ScanGeometry(9, 3.0, default_planes(2)))
    write_scan_csv(tmp_path / "fresh.csv", simulate_scan(rho, mmap))
    assert (tmp_path / "scan.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_cli_out_an_existing_file_exits_3(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["simulate", "--set", "basis.ell_max=1", "--out", str(taken)]) == EXIT_DATA
    assert "File exists" in capsys.readouterr().err


def out_of_memory(self):
    raise MemoryError("Unable to allocate 101. GiB for an array with shape (116281, 116281)")


def test_cli_basis_memory_cannot_hold_exits_2(tmp_path, capsys, monkeypatch):
    """The spec check bounds |ell| by |ell|!, not d by memory; a map whose
    factorization cannot be allocated is a spec error that names d and the grid.
    The factorization is made to fail: the real allocation is never tried."""
    monkeypatch.setattr(MeasurementMap, "svd", property(out_of_memory))
    args = ["simulate", "--out", str(tmp_path), "--set", "basis.ell_max=170", "--set", "geometry.n_pixels_per_side=1"]
    assert main(args) == EXIT_SPEC
    assert capsys.readouterr().err.splitlines() == [
        "invalid experiment spec:",
        "  the run does not fit in memory: d = 341 on a 1x1 grid",
    ]


def test_cli_reconstruct_memory_cannot_hold_names_the_scan_file(tmp_path, capsys, monkeypatch):
    """A reconstruct solves on its scan file's grid, so the diagnostic names the file."""
    assert main(["simulate", "--out", str(tmp_path), *(f"--set={a}" for a in TINY)]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(MeasurementMap, "svd", property(out_of_memory))
    scan = tmp_path / "scan.csv"
    args = ["reconstruct", "--out", str(tmp_path), *(f"--set={a}" for a in TINY), "--set", f'scan_file="{scan}"']
    assert main(args) == EXIT_SPEC
    assert f"the run does not fit in memory: d = 3 on the grid of {reprlib.repr(str(scan))}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rank-analysis", "simulate", "error-sweep"])
def test_cli_largest_grid_side_does_not_fit_in_memory(tmp_path, capsys, command):
    """The largest side the spec accepts, 2^30 - 1, is sized by numpy and refused
    by the allocator: no array of its n^2 pixel indices is ever filled."""
    args = [command, "--out", str(tmp_path), "--set", "basis.ell_max=1"]
    assert main([*args, "--set", f"geometry.n_pixels_per_side={2**30 - 1}"]) == EXIT_SPEC
    assert f"the run does not fit in memory: d = 3 on a {2**30 - 1}x{2**30 - 1} grid" in capsys.readouterr().err


def test_cli_largest_photon_budget_draws(tmp_path, capsys):
    """At the largest budget the spec accepts, the shot noise is far below the signal."""
    args = ["simulate", *(f"--set={a}" for a in TINY)]
    assert main([*args, "--out", str(tmp_path / "clean")]) == EXIT_OK
    noisy = ["--set", "noise.kind=poisson", "--set", "noise.photon_budget=1e18"]
    assert main([*args, "--out", str(tmp_path / "noisy"), *noisy]) == EXIT_OK
    capsys.readouterr()
    clean, drawn = (read_scan_csv(tmp_path / out / "scan.csv").values for out in ("clean", "noisy"))
    assert not np.array_equal(drawn, clean)
    np.testing.assert_allclose(drawn, clean, rtol=1e-4)


FAULTS = {  # a fault inside the numeric core, injected where experiments calls it
    "error sweep solve": ("error-sweep", "reconstruct_positive", ["trials=1", "z_values=[1]", "ranks=[1]"]),
    "entropy sweep solve": ("entropy-sweep", "uniqueness_entropy", ["z_values=[1]", "n_states=1"]),
    "poisson simulate": ("simulate", "simulate_scan", ["noise.kind=poisson", "noise.photon_budget=1e6"]),
    "reconstruct solve": ("reconstruct", "reconstruct_positive", ["scan_file=SCAN"]),
}


@pytest.mark.parametrize("command, name, overrides", FAULTS.values(), ids=FAULTS.keys())
def test_cli_numeric_fault_is_not_blamed_on_the_spec(tmp_path, capsys, monkeypatch, command, name, overrides):
    """Only a scan that receives no light is the input's fault; any other
    ValueError from the solver or the simulator propagates as itself."""
    assert main(["simulate", "--out", str(tmp_path), *(f"--set={a}" for a in TINY)]) == EXIT_OK
    capsys.readouterr()

    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(experiments, name, broken)
    overrides = [o.replace("SCAN", f'"{tmp_path / "scan.csv"}"') for o in overrides]
    args = [command, "--out", str(tmp_path), *(f"--set={a}" for a in [*TINY, *overrides])]
    with pytest.raises(ValueError, match="operands could not be broadcast together"):
        main(args)


def test_cli_dark_reconstruct_names_the_extent_and_the_file(tmp_path, capsys, monkeypatch):
    """A reconstruct's grid comes from its scan file, so a dark one is a data error naming both."""
    monkeypatch.chdir(tmp_path)
    rows = "".join(f"0,0.0,{i % 2},{i // 2},0.0\n" for i in range(4))  # a 2x2 grid, every pixel 0
    (tmp_path / "scan.csv").write_text("plane_index,zeta,px,py,value\n" + rows)
    args = ["reconstruct", "--set", "basis.ell_max=1", "--set", "geometry.extent=100", "--set", 'scan_file="scan.csv"']
    assert main(args) == EXIT_DATA
    assert capsys.readouterr().err == (
        "extent 100.0 on the grid of 'scan.csv': measurement map is identically zero: no pixel sees light\n"
    )


def test_cli_dark_scan_in_a_worker_is_a_spec_error(tmp_path, capsys):
    """A dark scan raised in a sweep's worker process reaches run_experiment whole."""
    args = ["error-sweep", "--out", str(tmp_path), "--threads", "2", "--set", "basis.ell_max=1"]
    args += [a for f in [*DARK, "trials=1", "z_values=[1,2]", "ranks=[1]"] for a in ("--set", f)]
    assert main(args) == EXIT_SPEC
    assert "geometry.extent 100.0: measurement map is identically zero" in capsys.readouterr().err


def test_cli_validate_lets_a_reader_bug_propagate(tmp_path, monkeypatch):
    """validate reports bad data, not a fault inside a reader."""
    path = tmp_path / "scan.csv"
    path.write_text("")

    def broken(*args, **kwargs):
        raise RuntimeError("reader bug")

    monkeypatch.setattr(experiments, "read_scan_csv", broken)
    with pytest.raises(RuntimeError, match="reader bug"):
        main(["validate", "--set", f'scan_file="{path}"'])


def test_cli_seed_flag_seeds_the_reconstruct_restarts(tmp_path, capsys, monkeypatch):
    """A reconstruct's one random draw, the multistart's starting states, is
    seeded by the spec's seed, which --seed sets."""
    assert main(["simulate", "--out", str(tmp_path), *(f"--set={a}" for a in TINY)]) == EXIT_OK
    seen = []
    monkeypatch.setattr(experiments, "uniqueness_entropy", lambda mmap, scan, cfg: seen.append(cfg.seed) or 0.0)
    args = ["reconstruct", "--out", str(tmp_path), *(f"--set={a}" for a in TINY)]
    args += ["--set", "compute_entropy=true", "--set", f'scan_file="{tmp_path / "scan.csv"}"']
    assert main([*args, "--seed", "5"]) == EXIT_OK
    assert main(args) == EXIT_OK
    capsys.readouterr()
    assert seen == [5, 0]


def test_cli_seed_flag_changes_simulation(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        "sim.json",
        {
            "kind": "simulate",
            "basis": {"ell_max": 1},
            "geometry": SMALL_GEOM,
            "output": "s.csv",
        },
    )
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    for out, seed in ((out_a, "1"), (out_b, "1"), (out_c, "2")):
        assert main(["simulate", "--spec", spec, "--out", str(out), "--seed", seed]) == EXIT_OK
    capsys.readouterr()
    assert (out_a / "s.csv").read_bytes() == (out_b / "s.csv").read_bytes()
    assert (out_a / "s.csv").read_bytes() != (out_c / "s.csv").read_bytes()


def test_cli_entropy_sweep_writes_csv(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        "ent.json",
        {
            "kind": "entropy_sweep",
            "basis": {"ell_max": 1},
            "geometry": SMALL_GEOM,
            "z_values": [2],
            "n_states": 2,
            "branches": ["pseudoinverse"],
            "solver": {"multistart": 3},
        },
    )
    assert main(["entropy-sweep", "--spec", spec, "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    lines = (tmp_path / "entropy_sweep.csv").read_text().splitlines()
    assert lines[0] == "Z,branch,n_states,mean_entropy,var_entropy"
    assert lines[1].startswith("2,pseudoinverse,2,")


@pytest.mark.parametrize(
    "command, fields",
    [
        ("error-sweep", {"basis": {"ell_max": 1}, "z_values": [1, 2], "ranks": [1, 2], "trials": 2}),
        (
            "entropy-sweep",
            {
                "basis": {"ell_max": 3},
                "z_values": [1, 2],
                "n_states": 2,
                "state": {"kind": "test"},
                "solver": {"multistart": 3},
            },
        ),
    ],
)
def test_cli_sweep_bytes_independent_of_threads(tmp_path, capsys, command, fields):
    """A sweep's cells run in a process pool under --threads 2, and the CSV
    is byte-identical to the one written in process."""
    spec = write_spec(tmp_path, "spec.json", {"geometry": SMALL_GEOM, **fields})
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        assert main([command, "--spec", spec, "--out", str(out), "--threads", threads]) == EXIT_OK
        csvs.append((out / f"{command.replace('-', '_')}.csv").read_bytes())
    capsys.readouterr()
    assert csvs[0] == csvs[1]
