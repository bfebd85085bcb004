"""Acceptance suite: one test (one PASSED/FAILED line under pytest -v) per
release criterion, at the stated tolerances. Details print on failure."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from oamtomo.experiments import (
    entropy_cell_inputs,
    parse_spec,
    run_entropy_sweep,
    run_error_sweep,
)
from oamtomo.qstate import (
    DensityMatrix,
    ModeBasis,
    coords_to_hermitian,
    hermitian_to_coords,
    hs_error,
    project_psd,
    random_state,
)
from oamtomo.sensor import (
    IntensityScan,
    MeasurementMap,
    ScanGeometry,
    build_measurement_map,
    default_planes,
    independent_detections,
    simulate_scan,
)
from oamtomo.solver import (
    SolverConfig,
    multistart_estimates,
    reconstruct_positive,
    reconstruct_pseudoinverse,
    singular_value_entropy,
)
from oracles import (
    BeamGeometry,
    ModeIndex,
    TransversePoint,
    beam_radius,
    coefficient,
    lg_amplitude,
    pixel_probability,
    psd_least_squares,
)

RECOVERY_TOL = 1e-6  # criterion 4's exact-recovery tolerance


def rank_counts(ell_max, z_list):
    basis = ModeBasis.symmetric_span(ell_max)
    planes = ScanGeometry(19, 3.0, default_planes(max(z_list))).planes
    out = {}
    for z in z_list:
        out[z] = independent_detections(MeasurementMap(basis, ScanGeometry(19, 3.0, planes[:z])))
    return out


def test_criterion_1_rank_count_exactness():
    counts = rank_counts(7, [1, 2, 8, 9, 10])
    assert counts[1] == 78
    assert counts[2] == 146
    assert counts[8] == counts[9] == counts[10] == 218


def test_criterion_2_rank_count_formulas():
    for ell_max in range(1, 8):
        d = 2 * ell_max + 1
        plateau = d * d - (d - 1) // 2
        counts = rank_counts(ell_max, list(range(1, ell_max + 3)))
        assert counts[1] == (d * d + 6 * d - 3) // 4, f"ell_max={ell_max} Z=1"
        assert counts[2] == (d * d + 5 * d - 8) // 2, f"ell_max={ell_max} Z=2"
        assert counts[ell_max + 1] == plateau, f"ell_max={ell_max} plateau"
        if ell_max > 1:
            assert counts[ell_max] < plateau, f"ell_max={ell_max} early plateau"


def test_criterion_3_nonnegative_span_completeness():
    for d in range(2, 9):
        basis = ModeBasis.nonnegative_span(d)
        mmap = build_measurement_map(basis, ScanGeometry(19, 3.0, default_planes(1)))
        assert independent_detections(mmap) == d * d, f"d={d} not complete"
        for trial in range(20):
            rho = random_state(basis, d, seed=1000 * d + trial)
            rep = reconstruct_pseudoinverse(mmap, simulate_scan(rho, mmap))
            err = hs_error(rep.estimate, rho)
            assert err <= 1e-8, f"d={d} trial={trial} err={err:.2e}"


def test_criterion_4_compressive_recovery():
    basis = ModeBasis.symmetric_span(7)
    mmap = build_measurement_map(basis, ScanGeometry(19, 3.0, default_planes(2)))
    successes = 0
    for trial in range(100):
        rho = random_state(basis, 1, seed=trial)
        scan = simulate_scan(rho, mmap)
        pos = hs_error(reconstruct_positive(mmap, scan).estimate, rho)
        pinv = hs_error(reconstruct_pseudoinverse(mmap, scan).estimate, rho)
        if pos <= 1e-6:
            successes += 1
        assert pinv > pos, f"trial={trial}: pseudoinverse {pinv:.2e} <= positive {pos:.2e}"
    print(f"criterion 4: {successes}/100 positive-branch recoveries at 1e-6")
    assert successes >= 95


def test_criterion_5_error_trend_reproduction():
    spec = parse_spec(
        {
            "kind": "error_sweep",
            "basis": {"ell_max": 7},
            "z_values": [1, 2, 3],
            "ranks": [1, 2, 4, 8, 15],
            "trials": 50,
            "seed": 0,
        }
    )
    rows = run_error_sweep(spec)
    ranks = (1, 2, 4, 8, 15)
    by_z = {
        z: [r["mean_err_positive"] for r in rows if r["Z"] == z] for z in (1, 2, 3)
    }
    for z, means in by_z.items():
        print(f"criterion 5: Z={z} mean errors over ranks {ranks}: "
              + ", ".join(f"{m:.2e}" for m in means))

    # Past exact recovery the minimizer set is not a single point, so nothing
    # orders the errors there; and at Z=1 (zeta=0) a state and its twin
    # psi'_l = psi*_{-l} give identical intensities, so not even rank 1 is
    # recovered. What the model does promise: the ranks that Z scans recover
    # form a prefix of the grid, a second plane's Gouy phases recover more
    # than one scan does, and a third plane loses nothing.
    thresholds = []
    for z, means in by_z.items():
        recovered = [m <= RECOVERY_TOL for m in means]
        assert recovered == sorted(recovered, reverse=True), (
            f"Z={z}: recovered ranks are not a prefix of {ranks}: {means}"
        )
        thresholds.append(next((r for r, ok in zip(ranks, recovered) if not ok), math.inf))
    print(f"criterion 5: first rank not recovered to {RECOVERY_TOL:g}, per Z: {thresholds}")
    assert thresholds[0] < thresholds[1] <= thresholds[2], (
        f"threshold rank not increasing with Z: {thresholds}"
    )


def test_criterion_6_entropy_diagnostic():
    spec = parse_spec(
        {
            "kind": "entropy_sweep",
            "basis": {"ell_max": 4},
            "z_values": [1, 2],
            "n_states": 20,
            "state": {"kind": "test"},
            "branches": ["positive", "pseudoinverse"],
            "solver": {"multistart": 20},
            "seed": 0,
        }
    )
    rows = run_entropy_sweep(spec)
    mean = {(r["Z"], r["branch"]): r["mean_entropy"] for r in rows}
    for key, value in sorted(mean.items()):
        print(f"criterion 6: Z={key[0]} branch={key[1]} mean S = {value:.4f}")

    assert mean[(2, "positive")] < mean[(1, "positive")]
    assert mean[(2, "pseudoinverse")] > mean[(2, "positive")]

    # |l><l| and |-l><-l| give the same intensity at every plane, so each
    # H_l = |l><l| - |-l><-l| lies in the null space of the map, and a
    # probe state with |Psi> over the modes -3, 3 can move along H_3 and
    # stay PSD. No estimator can resolve that blind span; the criterion is
    # asserted on the multistart estimates with it projected out.
    basis = spec.basis()
    mmap, inputs = entropy_cell_inputs(spec, 2)
    norm_a = np.linalg.norm(mmap.matrix, 2)
    blind = []
    for ell in range(1, spec.ell_max + 1):
        h = np.zeros((basis.dim, basis.dim))
        h[basis.index_of(ell), basis.index_of(ell)] = 1.0
        h[basis.index_of(-ell), basis.index_of(-ell)] = -1.0
        coords = hermitian_to_coords(h)
        assert np.linalg.norm(mmap.matrix @ coords) <= 1e-12 * norm_a, f"H_{ell} is seen"
        blind.append(coords / np.linalg.norm(coords))
    blind = np.column_stack(blind)
    entropies = []
    for scan, cfg in inputs:
        columns = multistart_estimates(mmap, scan, cfg, branch="positive")
        entropies.append(singular_value_entropy(columns - blind @ (blind.T @ columns)))
    projected = float(np.mean(entropies))
    print(f"criterion 6: Z=2 branch=positive mean S without the blind span = {projected:.2e}")
    assert projected < 0.05, (
        f"positive-branch mean S at Z=2 without the blind span is {projected:.2e}"
    )


def test_criterion_7_numerical_hygiene():
    geom = BeamGeometry()

    # LG normalization quadrature within 1e-6
    for ell in (0, 2, -5):
        mode = ModeIndex(ell)

        def integrand(r):
            return abs(lg_amplitude(mode, geom, TransversePoint(r, 0.0, 0.7))) ** 2 * r

        w = beam_radius(geom, 0.7)
        total, _ = quad(integrand, 0.0, 8.0 * w, limit=200)
        assert 2.0 * math.pi * total == pytest.approx(1.0, abs=1e-6)

    # forward-model reality within 1e-12
    basis = ModeBasis.symmetric_span(3)
    rng = np.random.default_rng(0)
    for seed in range(20):
        rho = random_state(basis, int(rng.integers(1, 8)), seed=seed)
        rr, phi, zeta = rng.uniform(0, 3), rng.uniform(0, 2 * math.pi), rng.uniform(0, 3)
        ells = basis.ells
        p = pixel_probability(rho, rr, phi, zeta)
        # the model keeps the real part; reality means the imaginary part of
        # the Hermitian quadratic form vanishes
        from oamtomo.sensor import _norm

        acc = 0.0 + 0.0j
        for a, la in enumerate(ells):
            for b, lb in enumerate(ells):
                acc += rho.entries[a, b] * _norm(la) * _norm(lb) * coefficient(lb, la, rr, phi, zeta)
        assert abs(acc.imag) <= 1e-12 * max(1.0, abs(acc.real))
        assert p >= -1e-12

    # gradient of 0.5||Ax - p||^2 vs central finite differences, relative 1e-6
    mmap = build_measurement_map(ModeBasis.nonnegative_span(3), ScanGeometry(9, 3.0, (1.0,)))
    A = mmap.matrix
    target = simulate_scan(random_state(ModeBasis.nonnegative_span(3), 2, seed=1), mmap).values
    x0 = rng.normal(size=A.shape[1])

    def f(x):
        r = A @ x - target
        return 0.5 * float(r @ r)

    grad = A.T @ (A @ x0 - target)
    h = 1e-6
    for k in range(A.shape[1]):
        e = np.zeros(A.shape[1])
        e[k] = h
        fd = (f(x0 + e) - f(x0 - e)) / (2 * h)
        assert fd == pytest.approx(grad[k], rel=1e-6, abs=1e-9)

    # PSD projection idempotent within 1e-12
    for seed in range(20):
        h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = 0.5 * (h + h.conj().T)
        once = project_psd(h)
        assert np.linalg.norm(project_psd(once) - once) <= 1e-12

    # vectorization isometry within 1e-12
    for seed in range(20):
        h1 = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h1 = 0.5 * (h1 + h1.conj().T)
        h2 = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h2 = 0.5 * (h2 + h2.conj().T)
        hs = float(np.trace(h1 @ h2).real)
        dot = float(hermitian_to_coords(h1) @ hermitian_to_coords(h2))
        assert abs(hs - dot) <= 1e-12 * max(1.0, abs(hs))
        back = coords_to_hermitian(hermitian_to_coords(h1), 6)
        assert np.linalg.norm(back - h1) <= 1e-12


def test_criterion_8_small_instance_oracle():
    cvxpy = pytest.importorskip("cvxpy")
    rng = np.random.default_rng(7)
    for d, seed in ((2, 0), (3, 1), (3, 2)):
        basis = ModeBasis.nonnegative_span(d)
        mmap = build_measurement_map(basis, ScanGeometry(9, 3.0, (1.0,)))
        rho = random_state(basis, d - 1, seed=seed)
        values = np.clip(
            mmap.apply(rho) + 1e-3 * rng.normal(size=mmap.matrix.shape[0]), 0.0, None
        )
        scan = IntensityScan(mmap.geometry, values)
        rep = reconstruct_positive(mmap, scan, SolverConfig(rel_tolerance=1e-13))

        X = cvxpy.Variable((d, d), hermitian=True)
        ops = []
        for i in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, i] = 1.0
            ops.append(e)
        for i in range(d):
            for j in range(i + 1, d):
                re = np.zeros((d, d), dtype=complex)
                re[i, j] = re[j, i] = 1.0 / math.sqrt(2.0)
                im = np.zeros((d, d), dtype=complex)
                im[i, j] = -1j / math.sqrt(2.0)
                im[j, i] = 1j / math.sqrt(2.0)
                ops.extend([re, im])
        pred = sum(
            mmap.matrix[:, k] * cvxpy.real(cvxpy.trace(ops[k].conj().T @ X))
            for k in range(d * d)
        )
        prob = cvxpy.Problem(cvxpy.Minimize(cvxpy.sum_squares(pred - values)), [X >> 0])
        prob.solve(solver=cvxpy.SCS, eps=1e-10)
        oracle = math.sqrt(max(prob.value, 0.0))
        mine = rep.objective_history[-1]
        assert mine == pytest.approx(oracle, abs=1e-6), f"d={d} seed={seed}"


def test_criterion_8_small_instance_numpy_oracle():
    """Criterion 8's instances against the interior-point optimum of tests/oracles.py,
    which needs no cvxpy: it works on the whole matrix, with no factor, start or width."""
    rng = np.random.default_rng(7)
    unfinished = []
    for d, seed in ((2, 0), (3, 1), (3, 2)):
        basis = ModeBasis.nonnegative_span(d)
        mmap = build_measurement_map(basis, ScanGeometry(9, 3.0, (1.0,)))
        rho = random_state(basis, d - 1, seed=seed)
        values = np.clip(
            mmap.apply(rho) + 1e-3 * rng.normal(size=mmap.matrix.shape[0]), 0.0, None
        )
        scan = IntensityScan(mmap.geometry, values)
        rep = reconstruct_positive(mmap, scan, SolverConfig(rel_tolerance=1e-13))
        X, gap = psd_least_squares(mmap.matrix, values)
        oracle = float(np.linalg.norm(mmap.matrix @ hermitian_to_coords(X) - values))
        mine = rep.objective_history[-1]
        assert mine == pytest.approx(oracle, abs=1e-6), f"d={d} seed={seed}"
        # the excess objective over the oracle's, which is itself within gap of the optimum
        assert 0.5 * mine**2 - 0.5 * oracle**2 <= gap, f"d={d} seed={seed}"
        # a solve stopped after one step passes the 1e-6 bound; the excess tells it apart
        one = reconstruct_positive(mmap, scan, SolverConfig(max_iterations=1, rel_tolerance=1e-13))
        assert one.objective_history[-1] == pytest.approx(oracle, abs=1e-6)
        unfinished.append(0.5 * one.objective_history[-1] ** 2 - 0.5 * oracle**2 > gap)
    assert any(unfinished)
