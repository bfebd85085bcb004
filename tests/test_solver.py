import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oamtomo.experiments import derive_seed, entropy_cell_inputs, parse_spec, run_simulate
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
    _factorize,
)
from oamtomo import solver
from oamtomo.solver import (
    ReconstructionReport,
    SolverConfig,
    _jacobian,
    _spectrum,
    _step_length,
    multistart_estimates,
    reconstruct_positive,
    reconstruct_pseudoinverse,
    report_to_json_dict,
    singular_value_entropy,
    uniqueness_entropy,
)
from oracles import psd_least_squares


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
    assert rep.metadata["width_events"]["extrapolations"] == 0
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
    assert rep.metadata["width_events"]["extrapolations"] >= 1
    assert rep.iterations_used <= 14
    assert np.all(np.diff(rep.objective_history) <= 0.0)


def criterion_5_solve(z, rank, trial):
    """The positive solve of criterion 5's trial (ell_max 7, 19x19, seed 0) in cell (Z, rank)."""
    basis = ModeBasis.symmetric_span(7)
    mmap = build_measurement_map(basis, ScanGeometry(19, 3.0, default_planes(z)))
    rho = random_state(basis, rank, seed=derive_seed(0, 7, z, rank, trial))
    return mmap, simulate_scan(rho, mmap)


@pytest.mark.parametrize(
    "z, rank, trial, steps, counts",
    [
        # the slowest solve: three kept trials narrow it below its final width, and two rank updates return
        (3, 8, 46, 431, (2, 0, 0, 3, 3, 22)),
        # a crawl that six kept trials end
        (2, 4, 12, 23, (0, 0, 1, 6, 0, 10)),
    ],
    ids=["#46", "#12"],
)
def test_width_events_are_counted(z, rank, trial, steps, counts):
    """The report counts each width event of a solve, and the trial steps among its steps."""
    rep = reconstruct_positive(*criterion_5_solve(z, rank, trial))
    assert rep.metadata["stop_reason"] == "certified"
    assert rep.iterations_used == steps
    names = ("rank_updates", "drops", "extrapolations", "trials_kept", "trials_failed", "trial_steps")
    assert rep.metadata["width_events"] == dict(zip(names, counts))
    if trial == 46:
        assert rep.metadata["refine_rank"] == 8


def test_trial_steps_are_among_the_steps():
    """Over criterion-6 probe state 0's restarts at Z = 1 and 2, each solve's
    trial steps are a part of its steps, and every count is a whole number."""
    spec = parse_spec({"kind": "entropy_sweep", "basis": {"ell_max": 4}, "state": {"kind": "test"}, "seed": 0})
    for z in (1, 2):
        mmap, [(scan, cfg), *_] = entropy_cell_inputs(spec, z)
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.multistart):
            rep = reconstruct_positive(mmap, scan, cfg, random_state(mmap.basis, mmap.basis.dim, rng))
            events = rep.metadata["width_events"]
            assert all(isinstance(n, int) and n >= 0 for n in events.values())
            assert events["trial_steps"] <= rep.iterations_used


def test_width_trial_stalls_when_its_damped_solves_fail(monkeypatch):
    """Criterion-5 trial (Z=2, rank 4, #12) with every dense solve from the 9th
    on singular: the ninth step's width trial finds no damped step, so it fails,
    and the next step finds none either; the solve stops, uncertified, at a valid state."""
    mmap, scan = criterion_5_solve(2, 4, 12)
    solve, calls = np.linalg.solve, [0]

    def failing_solve(*args):
        calls[0] += 1
        if calls[0] >= 9:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    rep = reconstruct_positive(mmap, scan)
    assert rep.metadata["stop_reason"] == "stalled"
    assert not rep.converged
    assert rep.iterations_used == 10
    assert rep.metadata["width_events"]["trials_failed"] == 1
    DensityMatrix(mmap.basis, rep.estimate.entries)  # Hermitian, PSD and of unit trace, or it raises


def test_one_dense_solve_per_damped_step(monkeypatch):
    """Each damped step takes its length from the closed-form line search, so it costs
    one dense solve while no system is singular: no solve goes to a rejected damping
    trial. Counted on the quartering-tail solve and on the 20 restarts of criterion-6
    probe state 0 at Z = 2, which took 2.4 solves per step when a step that did not
    decrease the objective was retried with more damping."""
    solve, positive = np.linalg.solve, solver.reconstruct_positive
    solves, singular, counts = [0], [0], []

    def counted_solve(*args):
        solves[0] += 1
        try:
            return solve(*args)
        except np.linalg.LinAlgError:
            singular[0] += 1
            raise

    def counted_positive(*args, **kwargs):
        before = solves[0]
        rep = positive(*args, **kwargs)
        counts.append((solves[0] - before, rep.iterations_used))
        return rep

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setitem(globals(), "reconstruct_positive", counted_positive)
    monkeypatch.setattr(solver, "reconstruct_positive", counted_positive)
    test_positive_extrapolates_the_quartering_tail()
    spec = parse_spec(
        {
            "kind": "entropy_sweep",
            "basis": {"ell_max": 4},
            "z_values": [2],
            "n_states": 1,
            "state": {"kind": "test"},
            "solver": {"multistart": 20},
            "seed": 0,
        }
    )
    mmap, [(scan, cfg)] = entropy_cell_inputs(spec, 2)
    multistart_estimates(mmap, scan, cfg)
    assert len(counts) == 21
    assert singular[0] == 0
    assert all(n_solves == steps for n_solves, steps in counts), counts


def quartic(a, t):
    """a1 t + a2 t^2 + a3 t^3 + a4 t^4 for coefficient rows a (n x 4) at points t (n x m)."""
    return (((a[:, 3:4] * t + a[:, 2:3]) * t + a[:, 1:2]) * t + a[:, 0:1]) * t


def test_step_length_is_the_best_in_the_unit_interval():
    """The closed-form step length of the line search is never beaten, beyond rounding,
    by any point of a 4000-point grid of (0, 1] or by any real root in (0, 1) that
    np.roots finds of the slope cubic. 12000 random quartics, each falling at t = 0
    (a1 < 0) as along every damped step: generic ones, with a4 near zero, with
    a3 = a4 = 0, and with a near-double root of the slope in (0, 1), where a root
    finder that misses one of the pair picks the wrong minimum."""
    rng = np.random.default_rng(0)
    n = 3000
    generic = rng.normal(size=(n, 4)) * 10.0 ** rng.uniform(-3, 3, size=(n, 4))
    generic[:, 0] = -abs(generic[:, 0])
    small_a4 = generic.copy()
    small_a4[:, 3] *= 10.0 ** rng.uniform(-16, -8, size=n)
    quadratic = generic.copy()
    quadratic[:, 2:] = 0.0
    # slope = c (t - r) (t - r - gap) (t - s): a1 = -c r (r + gap) s, ..., a4 = c / 4
    r, s = rng.uniform(0.05, 0.9, size=n), rng.uniform(-1.0, 2.0, size=n)
    gap = 10.0 ** rng.uniform(-9, -2, size=n) * rng.choice([-1.0, 1.0], size=n)
    c = np.sign(s) * 10.0 ** rng.uniform(-3, 3, size=n)  # so a1 < 0
    r2 = r + gap
    double = np.column_stack(
        [-c * r * r2 * s, c * (r * r2 + r * s + r2 * s) / 2, -c * (r + r2 + s) / 3, c / 4]
    )
    a = np.vstack([generic, small_a4, quadratic, double])
    picked = np.array([_step_length(*row) for row in a])
    assert np.all((0.0 < picked) & (picked <= 1.0))
    best = quartic(a, picked[:, None])[:, 0]
    scale = np.abs(a).sum(axis=1)
    grid = np.linspace(0.0, 1.0, 4001)[1:]
    for rows in np.array_split(np.arange(len(a)), 12):
        assert np.all(best[rows] <= quartic(a[rows], grid[None, :]).min(axis=1) + 1e-12 * scale[rows])
    for row, value, tol in zip(a, best, 1e-12 * scale):
        roots = np.roots([4.0 * row[3], 3.0 * row[2], 2.0 * row[1], row[0]])
        roots = roots.real[(abs(roots.imag) <= 1e-9) & (0.0 < roots.real) & (roots.real < 1.0)]
        assert value <= quartic(row[None, :], roots[None, :]).min(initial=np.inf) + tol


def random_factor(rng, d, sv):
    """A complex d x len(sv) factor u diag(sv) w^dag with random orthonormal u and unitary w."""
    u = np.linalg.qr(rng.normal(size=(d, len(sv))) + 1j * rng.normal(size=(d, len(sv))))[0]
    w = np.linalg.qr(rng.normal(size=(len(sv), len(sv))) + 1j * rng.normal(size=(len(sv), len(sv))))[0]
    return (u * sv) @ w.conj().T


def test_spectrum_reads_a_trailing_singular_value_to_1e9():
    """The singular values of L come from one thin SVD of L, not from the eigenvalues of
    L^dag L, which square its condition number: a trailing value of 1e-9 of the largest reads
    to 1e-6, where the Gram matrix's eigenvalues give 0, or anything up to about 1.6e-8."""
    rng = np.random.default_rng(0)
    for _ in range(5):
        sv, _ = _spectrum(random_factor(rng, 9, [1.0, 1e-9]))
        assert abs(sv[0] - 1.0) <= 1e-12
        assert abs(sv[1] - 1e-9) <= 1e-6 * 1e-9


def test_spectrum_leading_columns_are_the_truncated_svd():
    """The halving drop and the width trial cut L to the leading j columns of u * sv: bit for
    bit the best rank-j factor u[:, :j] sv[:j] of a fresh SVD of the same L."""
    L = random_factor(np.random.default_rng(1), 9, [1.0, 0.5, 1e-3, 1e-6, 1e-9])
    sv, lead = _spectrum(L)
    u, s, _ = np.linalg.svd(L, full_matrices=False)
    assert np.array_equal(sv, s)
    for j in range(1, 6):
        assert np.array_equal(lead[:, :j], u[:, :j] * s[:j])


LARGEST_EXTENT = {1: 6.7039e153, 3: 2.0111e154}  # per grid side, to five digits: past it the pixel area overflows


@pytest.mark.filterwarnings("error")  # no overflow anywhere in the solve
@pytest.mark.parametrize("n_pixels", [1, 3])
@pytest.mark.parametrize("extent", [1e39, 1e60, 1e77, 1e100, 1e150, "largest"])
def test_positive_certificate_at_far_extents(n_pixels, extent):
    """||A^T p|| grows as extent^4, and the least-squares model works in units
    of 2^e, e the exponent of s[0], so the certificate's scale neither
    overflows nor reads 0 up to the largest extent the geometry accepts; if it
    did, every value it divides would read 0 and a start that is no minimizer
    would be certified at step 0. Here the scan is twice a state's, so a
    unit-trace start is not a minimizer; the reported values match ones
    recomputed from the map rescaled to unit size."""
    if extent == "largest":
        extent = LARGEST_EXTENT[n_pixels]
        with pytest.raises(ValueError, match="positive finite pixel area"):
            ScanGeometry(n_pixels, 1.0001 * extent, (0.0,))
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


def test_noisy_camera_solve_steps_are_pinned():
    """A camera scan with shot noise leaves a large residual, so the damped
    step carries Newton's residual term: seed 7 at 1e6 photons certifies in
    31 steps, where Gauss-Newton's steps took 255."""
    spec = parse_spec(
        {
            "kind": "simulate",
            "basis": {"ell_max": 4},
            "geometry": {"n_pixels_per_side": 101, "planes": [0.0, 1 / 3, 1 / 2, 1.0]},
            "state": {"kind": "random", "rank": 2},
            "noise": {"kind": "poisson", "photon_budget": 1e6},
            "seed": 7,
        }
    )
    scan = run_simulate(spec)
    rep = reconstruct_positive(build_measurement_map(spec.basis(), scan.geometry), scan)
    assert rep.metadata["stop_reason"] == "certified"
    assert rep.iterations_used == 31


@pytest.mark.parametrize("ell_max, z", [(4, 4), (7, 2)], ids=["d=9", "d=15"])
def test_noisy_optimum_matches_numpy_oracle(ell_max, z):
    """A certified solve of a Poisson scan reaches the optimum that the
    interior-point method of tests/oracles.py finds on the whole matrix, to
    1e-8 relative in the objective: the residual term changes the path, not
    the minimum."""
    basis = ModeBasis.symmetric_span(ell_max)
    mmap = build_measurement_map(basis, ScanGeometry(19, 3.0, default_planes(z)))
    scan = simulate_scan(random_state(basis, 2, seed=0), mmap, noise="poisson", photon_budget=1e5, seed=0)
    rep = reconstruct_positive(mmap, scan)
    assert rep.metadata["stop_reason"] == "certified"
    X, gap = psd_least_squares(mmap.matrix, scan.values)
    oracle = 0.5 * float(np.linalg.norm(mmap.matrix @ hermitian_to_coords(X) - scan.values)) ** 2
    assert gap <= 1e-8 * oracle
    assert 0.5 * rep.objective_history[-1] ** 2 == pytest.approx(oracle, rel=1e-8)


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


def test_positive_matches_numpy_oracle():
    """test_positive_matches_sdp_oracle's instance against the interior-point
    optimum of tests/oracles.py, which needs no cvxpy. Its gap certifies it:
    no PSD estimate fits the scan better than by that gap."""
    basis, mmap, rho, _ = ic_setup(d=3, seed=17, rank=2)
    rng = np.random.default_rng(0)
    values = np.clip(mmap.apply(rho) + 1e-3 * rng.normal(size=mmap.matrix.shape[0]), 0, None)
    rep = reconstruct_positive(mmap, IntensityScan(mmap.geometry, values))
    X, gap = psd_least_squares(mmap.matrix, values)
    assert gap <= 1e-12 * 0.5 * float(values @ values)
    oracle = float(np.linalg.norm(mmap.matrix @ hermitian_to_coords(X) - values))
    assert rep.objective_history[-1] == pytest.approx(oracle, abs=1e-6)
    # the excess objective over the oracle's, which is itself within gap of the optimum
    assert 0.5 * rep.objective_history[-1] ** 2 - 0.5 * oracle**2 <= gap


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
    """A map's factorization, once cached, gives the solves of a map factored afresh."""
    basis = ModeBasis.symmetric_span(4)
    geom = ScanGeometry(19, 3.0, default_planes(2))
    warm = build_measurement_map(basis, geom)
    factors = warm.svd  # factors the map before any solve
    scan = simulate_scan(random_state(basis, 2, seed=31), warm)
    cached = reconstruct_positive(warm, scan)
    _factorize.cache_clear()
    fresh_map = build_measurement_map(basis, geom)
    fresh = reconstruct_positive(fresh_map, scan)
    assert fresh_map.svd is not factors
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


def test_report_json_dict_copies_the_width_events():
    """The record's width_events is the caller's too: a count changed there stays out of the report."""
    _, mmap, _, scan = ic_setup(d=3, seed=25, rank=1)
    rep = reconstruct_positive(mmap, scan)
    before = dict(rep.metadata["width_events"])
    report_to_json_dict(rep)["metadata"]["width_events"]["drops"] += 1
    assert rep.metadata["width_events"] == before


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
