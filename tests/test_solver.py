import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oamtomo.experiments import derive_seed, entropy_cell_inputs, parse_spec
from oamtomo.qstate import (
    DensityMatrix,
    ModeBasis,
    coords_to_hermitian,
    hermitian_to_coords,
    hs_error,
    random_state,
)
from oamtomo.qstate import test_state as make_test_state
from oamtomo.sensor import (
    SVD_RCOND,
    IntensityScan,
    ScanGeometry,
    build_measurement_map,
    default_planes,
    independent_detections,
    simulate_scan,
)
from oamtomo.solver import (
    ReconstructionReport,
    SolverConfig,
    _jacobian,
    multistart_estimates,
    reconstruct_positive,
    reconstruct_pseudoinverse,
    report_to_json_dict,
    singular_value_entropy,
    uniqueness_entropy,
)


def ic_setup(d=4, seed=0, rank=1):
    """Informationally complete single-plane setting on nonnegative modes."""
    basis = ModeBasis.nonnegative_span(d)
    geom = ScanGeometry(n_pixels_per_side=13, extent=3.0, planes=(1.0,))
    mmap = build_measurement_map(basis, geom)
    assert independent_detections(mmap) == d * d
    rho = random_state(basis, rank, seed=seed)
    scan = simulate_scan(rho, mmap)
    return basis, mmap, rho, scan


def incomplete_setup(seed=3):
    """Rank-deficient single-plane setting on a symmetric span."""
    basis = ModeBasis.symmetric_span(2)
    geom = ScanGeometry(n_pixels_per_side=13, extent=3.0, planes=(1.0,))
    mmap = build_measurement_map(basis, geom)
    assert independent_detections(mmap) < basis.dim**2
    rho = random_state(basis, 1, seed=seed)
    scan = simulate_scan(rho, mmap)
    return basis, mmap, rho, scan


# --------------------------------------------------------------- SolverConfig


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(rel_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(multistart=0)


def test_scan_map_mismatch_rejected():
    _, mmap, _, _ = ic_setup(d=3)
    other = ScanGeometry(n_pixels_per_side=5, extent=3.0, planes=(1.0,))
    scan = IntensityScan(other, np.zeros(25))
    # as many pixel values as the map has rows, but seen at another plane
    elsewhere = replace(mmap.geometry, planes=(2.0,))
    same_length = IntensityScan(elsewhere, np.zeros(mmap.matrix.shape[0]))
    for bad in (scan, same_length):
        with pytest.raises(ValueError, match="does not match"):
            reconstruct_positive(mmap, bad)
        with pytest.raises(ValueError, match="does not match"):
            reconstruct_pseudoinverse(mmap, bad)


# ------------------------------------------------------- positive estimator


def test_positive_recovers_pure_state():
    _, mmap, rho, scan = ic_setup(d=4, seed=1, rank=1)
    rep = reconstruct_positive(mmap, scan)
    assert rep.converged
    assert hs_error(rep.estimate, rho) < 1e-8


def test_positive_recovers_mixed_state():
    _, mmap, rho, scan = ic_setup(d=4, seed=2, rank=4)
    rep = reconstruct_positive(mmap, scan, SolverConfig(rel_tolerance=1e-13))
    assert rep.converged
    assert hs_error(rep.estimate, rho) < 1e-8


def test_positive_certified_at_minimizer_when_recovery_is_slow():
    """Criterion-5 trial (ell_max=7, Z=2, rank 4, trial 0). Two scans pin
    this state down, but the problem is ill-conditioned: an objective that
    has stopped moving can still sit at HS error ~7e-4. Convergence must
    mean the minimizer was reached."""
    basis = ModeBasis.symmetric_span(7)
    mmap = build_measurement_map(basis, ScanGeometry(19, 3.0, default_planes(2)))
    rho = random_state(basis, 4, seed=derive_seed(0, 7, 2, 4, 0))
    rep = reconstruct_positive(mmap, simulate_scan(rho, mmap))
    assert rep.converged
    assert rep.metadata["stop_reason"] == "certified"
    assert rep.metadata["kkt_min_eig"] >= -1e-12
    assert rep.metadata["kkt_complementarity"] <= 1e-12
    assert hs_error(rep.estimate, rho) <= 1e-10


def test_positive_not_certified_off_the_minimizer():
    """A budget too small to reach the minimizer leaves the certificate
    failing, whatever the objective did."""
    basis = ModeBasis.symmetric_span(7)
    mmap = build_measurement_map(basis, ScanGeometry(19, 3.0, default_planes(2)))
    rho = random_state(basis, 4, seed=derive_seed(0, 7, 2, 4, 0))
    rep = reconstruct_positive(mmap, simulate_scan(rho, mmap), SolverConfig(max_iterations=10))
    assert not rep.converged
    assert rep.metadata["stop_reason"] == "max_iterations"
    assert rep.iterations_used == 10


def test_positive_stalls_when_every_damped_solve_fails(monkeypatch):
    """A damped system that no damping makes solvable rejects every trial, so
    the solve stops, uncertified, at the last accepted iterate: a valid state."""
    basis = ModeBasis.symmetric_span(2)
    mmap = build_measurement_map(basis, ScanGeometry(15, 3.0, default_planes(2)))
    scan = simulate_scan(random_state(basis, 2, seed=0), mmap, noise="poisson", photon_budget=1e5, seed=0)
    start = random_state(basis, 5, seed=100)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    rep = reconstruct_positive(mmap, scan, initial=start)
    assert rep.metadata["stop_reason"] == "stalled"
    assert not rep.converged
    assert rep.iterations_used == 2
    DensityMatrix(basis, rep.estimate.entries)  # Hermitian, PSD and of unit trace, or it raises


def test_positive_drops_halving_columns():
    """Criterion-5 trial (ell_max=7, Z=2, rank 1, trial 0). The map's null
    space makes the start wider than rank 1, and each Gauss-Newton step only
    halves the spurious columns; dropping them once they have halved twice
    reaches the certificate in a few steps, and the drop's guard keeps the
    objective from rising. The halving is the drop's case, so the tail
    extrapolation stays out of it."""
    basis = ModeBasis.symmetric_span(7)
    mmap = build_measurement_map(basis, ScanGeometry(19, 3.0, default_planes(2)))
    rho = random_state(basis, 1, seed=derive_seed(0, 7, 2, 1, 0))
    rep = reconstruct_positive(mmap, simulate_scan(rho, mmap))
    assert rep.metadata["stop_reason"] == "certified"
    assert rep.iterations_used <= 8
    assert rep.metadata["refine_rank"] == 1
    assert rep.metadata["tail_extrapolations"] == 0
    assert hs_error(rep.estimate, rho) < 1e-20
    assert np.all(np.diff(rep.objective_history) <= 0.0)


def test_positive_extrapolates_the_quartering_tail():
    """Criterion-6 probe state 0 at Z = 1 from its first restart. The
    minimizer is not unique, and near it each damped step halves while the
    singular values of L stay put: a singular Gauss-Newton tail, in which
    ||A x - p|| falls by 4x per step (twelve steps in a row without the
    extrapolation). Adding the rest of the geometric series, one more copy
    of the step, lands near its limit in one go."""
    spec = parse_spec(
        {
            "kind": "entropy_sweep",
            "basis": {"ell_max": 4},
            "z_values": [1],
            "n_states": 1,
            "state": {"kind": "test"},
            "seed": 0,
        }
    )
    mmap, [(scan, cfg)] = entropy_cell_inputs(spec, 1)
    start = random_state(mmap.basis, mmap.basis.dim, np.random.default_rng(cfg.seed))
    rep = reconstruct_positive(mmap, scan, cfg, start)
    assert rep.metadata["stop_reason"] == "certified"
    assert rep.metadata["tail_extrapolations"] >= 1
    assert rep.iterations_used <= 14
    assert np.all(np.diff(rep.objective_history) <= 0.0)


@pytest.mark.parametrize("n_pixels", [1, 3])
@pytest.mark.parametrize("extent", [1e39, 1e60])
def test_positive_certificate_at_far_extents(n_pixels, extent):
    """||A^T p|| grows as extent^4, and its square overflows from extent 1e39
    on. The certificate's scale must not, or every value it divides reads 0
    and a start that is no minimizer is certified at step 0. Here the scan is
    twice a state's, so a unit-trace start is not a minimizer; the reported
    values match ones recomputed from the map rescaled to unit size."""
    basis = ModeBasis.symmetric_span(1)
    mmap = build_measurement_map(basis, ScanGeometry(n_pixels, extent, (0.0,)))
    scan = simulate_scan(random_state(basis, 2, seed=0), mmap)
    scan = IntensityScan(scan.geometry, 2.0 * scan.values)
    rep = reconstruct_positive(mmap, scan, initial=random_state(basis, 2, seed=1))
    c = np.abs(mmap.matrix).max()  # the certificate's values are scale-free
    A, p = mmap.matrix / c, scan.values / c
    X = rep.estimate.entries * rep.metadata["raw_trace"]
    S = coords_to_hermitian(A.T @ (A @ hermitian_to_coords(X) - p), basis.dim)
    scale = np.linalg.norm(A.T @ p)
    min_eig = np.linalg.eigvalsh(S)[0] / scale
    comp = abs(np.vdot(X, S).real) / np.trace(X).real / scale
    assert rep.metadata["kkt_min_eig"] == pytest.approx(min_eig, abs=1e-12)
    assert rep.metadata["kkt_complementarity"] == pytest.approx(comp, abs=1e-12)
    assert rep.converged


def test_positive_certified_on_poisson_data():
    """With shot noise the residual stays large, so the decrease that closes
    the last of the complementarity gap is below eps * f. Steps are judged
    on that decrease itself, not on a difference of two objective values,
    so the solve still reaches the default certificate."""
    basis = ModeBasis.symmetric_span(4)
    mmap = build_measurement_map(basis, ScanGeometry(31, 3.0, default_planes(4)))
    rho = random_state(basis, 2, seed=5)
    scan = simulate_scan(rho, mmap, noise="poisson", photon_budget=1e5, seed=5)
    rep = reconstruct_positive(mmap, scan)
    assert rep.converged
    assert rep.metadata["stop_reason"] == "certified"
    assert rep.metadata["kkt_min_eig"] >= -SolverConfig().rel_tolerance
    assert rep.metadata["kkt_complementarity"] <= SolverConfig().rel_tolerance


def test_unexplained_fraction_matches_dense_residual():
    """unexplained_fraction is ||p - A A^+ p||^2 / ||p||^2: zero on a noiseless
    scan, the dense least-squares residual's share on a noisy one, and None on
    a scan of zeros."""
    basis = ModeBasis.symmetric_span(4)
    mmap = build_measurement_map(basis, ScanGeometry(41, 3.0, default_planes(4)))
    rho = random_state(basis, 2, seed=3)
    clean = reconstruct_positive(mmap, simulate_scan(rho, mmap)).metadata["unexplained_fraction"]
    assert 0.0 <= clean < 1e-20
    scan = simulate_scan(rho, mmap, noise="poisson", photon_budget=1e6, seed=3)
    p = scan.values
    A = mmap.matrix
    x = np.linalg.lstsq(A, p, rcond=SVD_RCOND)[0]
    dense = float(np.sum((p - A @ x) ** 2)) / float(p @ p)
    noisy = reconstruct_positive(mmap, scan).metadata["unexplained_fraction"]
    assert noisy == pytest.approx(dense, rel=1e-9)
    zeros = IntensityScan(mmap.geometry, np.zeros_like(p))
    assert reconstruct_positive(mmap, zeros).metadata["unexplained_fraction"] is None


@pytest.mark.parametrize("n_planes", [1, 2, 3])
@pytest.mark.parametrize("width", ["one", "full"])
def test_jacobian_matches_direction_stack(n_planes, width):
    """The analytic Jacobian of W coords(L L^dag) agrees with the one built
    column by column from the unit directions of L, and applied to a step E
    it gives W coords(E L^dag + L E^dag). The rows M_i of W read as real
    (Re, Im) pairs give W coords(H) and the gradient matrix without
    coordinates, as the solver takes them."""
    basis = ModeBasis.symmetric_span(7)
    d = basis.dim
    mmap = build_measurement_map(basis, ScanGeometry(19, 3.0, default_planes(n_planes)))
    zeros = IntensityScan(mmap.geometry, np.zeros(mmap.matrix.shape[0]))
    s, vt = mmap.least_squares(zeros)[:2]
    W = s[:, None] * vt
    k = 1 if width == "one" else d
    rng = np.random.default_rng(n_planes)
    L = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    E = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))

    M = coords_to_hermitian(W, d)
    J = _jacobian(M, L)
    assert J.shape == (W.shape[0], 2 * d * k)
    # k = 1 solves through J^T J, k = d through J J^T
    assert (J.shape[0] <= J.shape[1]) == (width == "full")

    dirs = np.eye(d * k).reshape(d * k, d, k)
    dirs = np.concatenate([dirs, 1j * dirs])
    T = dirs @ L.conj().T
    reference = W @ hermitian_to_coords(T + np.swapaxes(T, -1, -2).conj()).T
    assert np.linalg.norm(J - reference) <= 1e-12 * np.linalg.norm(reference)

    step = J @ np.concatenate([E.real.ravel(), E.imag.ravel()])
    expected = W @ hermitian_to_coords(E @ L.conj().T + L @ E.conj().T)
    assert np.linalg.norm(step - expected) <= 1e-12 * np.linalg.norm(expected)

    Wr = M.reshape(len(M), -1).view(float)
    H = E @ L.conj().T + L @ E.conj().T
    assert np.linalg.norm(Wr @ H.view(float).ravel() - expected) <= 1e-12 * np.linalg.norm(expected)
    r = rng.normal(size=len(W))
    S = coords_to_hermitian(W.T @ r, d)
    assert np.linalg.norm((r @ Wr).view(complex).reshape(d, d) - S) <= 1e-12 * np.linalg.norm(S)


def test_positive_fixed_point_at_truth():
    """Starting at the exact solution terminates immediately."""
    _, mmap, rho, scan = ic_setup(d=4, seed=5, rank=2)
    rep = reconstruct_positive(mmap, scan, initial=rho)
    assert rep.converged
    assert rep.objective_history[0] < 1e-12
    assert hs_error(rep.estimate, rho) < 1e-12


def test_positive_history_monotone_without_acceleration():
    """A damped step is accepted only if it lowers the objective, so the
    recorded history never rises."""
    _, mmap, _, scan = ic_setup(d=3, seed=7, rank=2)
    cfg = SolverConfig(max_iterations=300, rel_tolerance=1e-9)
    rep = reconstruct_positive(mmap, scan, cfg)
    h = np.array(rep.objective_history)
    assert np.all(np.diff(h) <= 1e-14)


def test_positive_estimate_is_valid_state():
    _, mmap, _, scan = ic_setup(d=4, seed=9, rank=3)
    rep = reconstruct_positive(mmap, scan)
    eigs = np.linalg.eigvalsh(rep.estimate.entries)
    assert eigs[0] >= -1e-12
    assert np.trace(rep.estimate.entries).real == pytest.approx(1.0, abs=1e-12)


def test_positive_iteration_budget_respected():
    _, mmap, _, scan = incomplete_setup()
    cfg = SolverConfig(max_iterations=5, rel_tolerance=1e-15)
    rep = reconstruct_positive(mmap, scan, cfg)
    assert rep.iterations_used <= 5
    assert not rep.converged


def test_positive_matches_sdp_oracle():
    """Objective value agrees with an interior-point SDP solution."""
    cvxpy = pytest.importorskip("cvxpy")
    basis, mmap, rho, _ = ic_setup(d=3, seed=17, rank=2)
    # corrupt the scan so the minimum is strictly interior to neither cone face
    rng = np.random.default_rng(0)
    values = np.clip(mmap.apply(rho) + 1e-3 * rng.normal(size=mmap.matrix.shape[0]), 0, None)
    scan = IntensityScan(mmap.geometry, values)
    rep = reconstruct_positive(mmap, scan)

    d = basis.dim
    X = cvxpy.Variable((d, d), hermitian=True)
    # rebuild A x in matrix form via the Hermitian coordinate map
    coords = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        coords.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            re = np.zeros((d, d), dtype=complex)
            re[i, j] = re[j, i] = 1.0 / math.sqrt(2.0)
            im = np.zeros((d, d), dtype=complex)
            im[i, j] = -1j / math.sqrt(2.0)
            im[j, i] = 1j / math.sqrt(2.0)
            coords.extend([re, im])
    pred = sum(
        mmap.matrix[:, k] * cvxpy.real(cvxpy.trace(coords[k].conj().T @ X))
        for k in range(d * d)
    )
    prob = cvxpy.Problem(
        cvxpy.Minimize(cvxpy.sum_squares(pred - values)), [X >> 0]
    )
    prob.solve(solver=cvxpy.SCS, eps=1e-10)
    oracle = math.sqrt(prob.value)
    assert rep.objective_history[-1] == pytest.approx(oracle, abs=1e-6)


# -------------------------------------------------- pseudoinverse estimator


def test_pseudoinverse_exact_in_complete_setting():
    _, mmap, rho, scan = ic_setup(d=4, seed=19, rank=3)
    rep = reconstruct_pseudoinverse(mmap, scan)
    assert rep.converged
    assert rep.metadata["raw_residual"] < 1e-10
    assert hs_error(rep.estimate, rho) < 1e-10


def test_estimators_agree_when_complete():
    _, mmap, _, scan = ic_setup(d=4, seed=21, rank=2)
    a = reconstruct_positive(mmap, scan, SolverConfig(rel_tolerance=1e-13))
    b = reconstruct_pseudoinverse(mmap, scan)
    assert hs_error(a.estimate, b.estimate) < 1e-8


def test_pseudoinverse_estimate_not_forced_positive():
    """In an incomplete setting the min-norm solution can leave the cone."""
    found_negative = False
    for seed in range(10):
        _, mmap, _, scan = incomplete_setup(seed=seed)
        rep = reconstruct_pseudoinverse(mmap, scan)
        if np.linalg.eigvalsh(rep.estimate.entries)[0] < -1e-6:
            found_negative = True
            break
    assert found_negative


def test_pseudoinverse_matches_numpy_pinv():
    """The estimate is A^+ p taken from the map's own SVD, with singular
    values at or below 1e-10 of the largest treated as zero."""
    _, mmap, _, scan = incomplete_setup()
    rep = reconstruct_pseudoinverse(mmap, scan)
    raw = hermitian_to_coords(rep.estimate.entries) * rep.metadata["raw_trace"]
    expected = np.linalg.pinv(mmap.matrix, rcond=1e-10) @ scan.values
    assert np.linalg.norm(raw - expected) <= 1e-12 * np.linalg.norm(expected)


def test_pseudoinverse_degenerate_trace_flagged():
    _, mmap, _, _ = ic_setup(d=3)
    scan = IntensityScan(mmap.geometry, np.zeros(mmap.matrix.shape[0]))
    rep = reconstruct_pseudoinverse(mmap, scan)
    assert rep.metadata.get("degenerate_normalization") is True
    np.testing.assert_allclose(rep.estimate.entries, np.eye(3) / 3)


def test_pseudoinverse_multistart_of_degenerate_trace_is_identity():
    """Each column is normalized as reconstruct_pseudoinverse reports its estimate: I/d."""
    _, mmap, _, _ = ic_setup(d=3)
    scan = IntensityScan(mmap.geometry, np.zeros(mmap.matrix.shape[0]))
    columns = multistart_estimates(mmap, scan, SolverConfig(multistart=3), "pseudoinverse")
    expected = hermitian_to_coords(reconstruct_pseudoinverse(mmap, scan).estimate.entries)
    np.testing.assert_array_equal(expected, hermitian_to_coords(np.eye(3) / 3))
    for column in columns.T:
        np.testing.assert_array_equal(column, expected)


DARK_CALLS = {
    "least squares": lambda mmap, scan: mmap.least_squares(scan),
    "positive": reconstruct_positive,
    "pseudoinverse": reconstruct_pseudoinverse,
    "positive multistart": lambda mmap, scan: multistart_estimates(mmap, scan, SolverConfig(multistart=2)),
    "pseudoinverse multistart": lambda mmap, scan: multistart_estimates(
        mmap, scan, SolverConfig(multistart=2), "pseudoinverse"
    ),
}


@pytest.mark.parametrize("call", DARK_CALLS.values(), ids=DARK_CALLS.keys())
def test_dark_map_has_no_least_squares_model(call):
    """Every estimator reads the map through its least-squares model, which
    refuses a map with no singular value: there is nothing to solve."""
    basis = ModeBasis.symmetric_span(1)
    mmap = build_measurement_map(basis, ScanGeometry(2, 100.0, (0.0, 1.0)))  # every pixel far outside the beams
    scan = simulate_scan(random_state(basis, 1, seed=0), mmap)
    assert independent_detections(mmap) == 0
    with pytest.raises(ValueError, match="no pixel sees light"):
        call(mmap, scan)


# ------------------------------------------------------- uniqueness entropy


def test_singular_value_entropy_examples():
    col = np.arange(1.0, 5.0)
    stack = np.column_stack([col, col, col])
    assert singular_value_entropy(stack) == pytest.approx(0.0, abs=1e-12)
    ortho = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert singular_value_entropy(ortho) == pytest.approx(math.log(2.0))
    assert singular_value_entropy(np.zeros((4, 3))) == 0.0


def test_uniqueness_entropy_zero_when_complete():
    _, mmap, _, scan = ic_setup(d=3, seed=23, rank=1)
    cfg = SolverConfig(multistart=4, rel_tolerance=1e-10)
    s = uniqueness_entropy(mmap, scan, cfg, branch="positive")
    assert s < 1e-4


def test_uniqueness_entropy_positive_when_incomplete():
    _, mmap, _, scan = incomplete_setup(seed=1)
    cfg = SolverConfig(multistart=6)
    s = uniqueness_entropy(mmap, scan, cfg, branch="pseudoinverse")
    assert s > 0.01


def test_uniqueness_entropy_baseline_exceeds_positive():
    _, mmap, _, scan = incomplete_setup(seed=2)
    cfg = SolverConfig(multistart=5, rel_tolerance=1e-9, max_iterations=4000)
    s_pos = uniqueness_entropy(mmap, scan, cfg, branch="positive")
    s_base = uniqueness_entropy(mmap, scan, cfg, branch="pseudoinverse")
    assert s_base > s_pos


def test_uniqueness_entropy_validation():
    _, mmap, _, scan = ic_setup(d=3)
    with pytest.raises(ValueError):
        uniqueness_entropy(mmap, scan, SolverConfig(multistart=1))
    with pytest.raises(ValueError):
        uniqueness_entropy(mmap, scan, branch="bayesian")


def test_cached_factorization_changes_nothing():
    """A map's factorization, once cached, gives the solves of a fresh map."""
    basis = ModeBasis.symmetric_span(4)
    geom = ScanGeometry(19, 3.0, default_planes(2))
    warm = build_measurement_map(basis, geom)
    scan = simulate_scan(random_state(basis, 2, seed=31), warm)
    independent_detections(warm)  # factors the map before any solve
    assert "svd" in vars(warm)
    cached = reconstruct_positive(warm, scan)
    fresh = reconstruct_positive(build_measurement_map(basis, geom), scan)
    np.testing.assert_array_equal(cached.estimate.entries, fresh.estimate.entries)
    assert cached.iterations_used == fresh.iterations_used
    assert cached.objective_history == fresh.objective_history
    assert cached.metadata == fresh.metadata
    assert cached.converged == fresh.converged

    # the multistart columns are single solves, each on its own fresh map
    cfg = SolverConfig(multistart=4, seed=5)
    columns = multistart_estimates(warm, scan, cfg)
    d = basis.dim
    rng = np.random.default_rng(cfg.seed)
    for i in range(cfg.multistart):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho0 = g @ g.conj().T
        rho0 /= np.trace(rho0).real
        init = DensityMatrix(basis, 0.5 * (rho0 + rho0.conj().T))
        rep = reconstruct_positive(
            build_measurement_map(basis, geom), scan, replace(cfg, seed=cfg.seed + i), init
        )
        np.testing.assert_array_equal(columns[:, i], hermitian_to_coords(rep.estimate.entries))


def test_pseudoinverse_multistart_memory_scales_with_map():
    """The null basis comes from the thin factorization: no m x m U."""
    basis = ModeBasis.symmetric_span(4)
    mmap = build_measurement_map(basis, ScanGeometry(41, 3.0, default_planes(2)))
    scan = simulate_scan(make_test_state(0.3, 0.4, basis), mmap)
    tracemalloc.start()
    try:
        columns = multistart_estimates(mmap, scan, SolverConfig(multistart=5), "pseudoinverse")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert columns.shape == (basis.dim**2, 5)
    assert peak < 4 * mmap.matrix.nbytes


# ----------------------------------------------------------------- reporting


def test_report_json_dict_copies_the_metadata():
    """The JSON record is the caller's to extend; the frozen report stays as the solver wrote it."""
    _, mmap, _, scan = ic_setup(d=3, seed=25, rank=1)
    rep = reconstruct_positive(mmap, scan)
    before = dict(rep.metadata)
    report_to_json_dict(rep)["metadata"]["independent_detections"] = 9
    assert rep.metadata == before


def test_report_json_dict_shape():
    _, mmap, _, scan = ic_setup(d=3, seed=25, rank=1)
    rep = reconstruct_positive(mmap, scan)
    obj = report_to_json_dict(rep)
    assert set(obj) == {
        "estimate",
        "objective_history",
        "iterations_used",
        "converged",
        "uniqueness_entropy",
        "metadata",
    }
    assert obj["converged"] is True
    assert obj["estimate"]["ells"] == [0, 1, 2]
