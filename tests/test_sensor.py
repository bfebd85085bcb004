import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamtomo.qstate import DensityMatrix, ModeBasis, hermitian_to_coords, random_state
from oamtomo.sensor import (
    DEFAULT_PLANE_POOL,
    MAX_PHOTON_BUDGET,
    DarkScanError,
    IntensityScan,
    MeasurementMap,
    SCAN_HEADER,
    SVD_RCOND,
    ScanFormatError,
    ScanGeometry,
    build_measurement_map,
    default_planes,
    independent_detections,
    read_scan_csv,
    simulate_scan,
    write_scan_csv,
)
from oamtomo.solver import reconstruct_positive
from oracles import (
    BeamGeometry,
    ModeIndex,
    TransversePoint,
    beam_radius,
    coefficient,
    lg_amplitude,
    pixel_probability,
)

G = BeamGeometry()


# ----------------------------------------------------------------- geometry


def test_default_planes_prefix():
    assert default_planes(4) == DEFAULT_PLANE_POOL[:4]
    assert default_planes(12)[-1] == DEFAULT_PLANE_POOL[-1] + 2.0


def test_scan_geometry_validation():
    with pytest.raises(ValueError):
        ScanGeometry(0, 3.0, (0.0,))
    with pytest.raises(ValueError):
        ScanGeometry(19, -1.0, (0.0,))
    with pytest.raises(ValueError):
        ScanGeometry(19, math.nan, (0.0,))
    with pytest.raises(ValueError):
        ScanGeometry(19, math.inf, (0.0,))
    with pytest.raises(ValueError):
        ScanGeometry(19, 3.0, (0.0, 0.0))
    with pytest.raises(ValueError):
        ScanGeometry(19, 3.0, ())
    for extent in (1e300, 1e-300):  # a pixel area that overflows or underflows
        with pytest.raises(ValueError, match="positive finite pixel area"):
            ScanGeometry(3, extent, (0.0,))
    for plane in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="plane positions must be finite"):
            ScanGeometry(19, 3.0, (0.0, plane))


def test_pixel_centers_match_formula():
    geom = ScanGeometry(4, 2.0, (0.0,))
    xx, yy = geom.pixel_centers()
    step = 4.0 / 4
    expected = [-2.0 + (i + 0.5) * step for i in range(4)]
    np.testing.assert_allclose(np.unique(xx), expected)
    np.testing.assert_allclose(xx[:4], expected)  # x varies fastest
    np.testing.assert_allclose(yy[:4], expected[0])


# -------------------------------------------------------------- coefficient


def test_coefficient_diagonal_is_unity():
    assert coefficient(0, 0, 0.7, 1.3, 2.0) == pytest.approx(1.0)


def test_coefficient_opposite_charges_at_waist():
    assert coefficient(3, -3, 1.0, 0.0, 0.0) == pytest.approx(1.0)


def test_coefficient_gouy_beat():
    # psi_2 - psi_0 = 2 * arctan(1) = pi/2
    assert coefficient(2, 0, 1.0, 0.0, 1.0) == pytest.approx(1j)


@given(
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.floats(0.0, 3.0),
    st.floats(0.0, 6.28),
    st.floats(-2.0, 5.0),
)
def test_coefficient_conjugate_symmetry(la, lb, rr, phi, zeta):
    a = coefficient(la, lb, rr, phi, zeta)
    b = coefficient(lb, la, rr, phi, zeta)
    assert a == pytest.approx(b.conjugate(), rel=1e-12, abs=1e-12)


# -------------------------------------------------------- pixel_probability


def test_gaussian_mode_probability():
    basis = ModeBasis.symmetric_span(1)
    rho = np.zeros((3, 3), dtype=complex)
    rho[1, 1] = 1.0
    state = DensityMatrix(basis, rho)
    for rr in (0.0, 0.5, 1.7):
        assert pixel_probability(state, rr, 0.9, 0.4) == pytest.approx(
            (2.0 / math.pi) * math.exp(-2.0 * rr * rr)
        )


def test_incoherent_opposite_charges_azimuth_independent():
    basis = ModeBasis.symmetric_span(3)
    rho = np.zeros((7, 7), dtype=complex)
    rho[basis.index_of(3), basis.index_of(3)] = 0.5
    rho[basis.index_of(-3), basis.index_of(-3)] = 0.5
    state = DensityMatrix(basis, rho)
    base = pixel_probability(state, 0.8, 0.0, 0.7)
    for phi in np.linspace(0, 2 * math.pi, 17):
        assert pixel_probability(state, 0.8, phi, 0.7) == pytest.approx(base)


def test_coherent_superposition_petal_pattern():
    """(|3> + |-3>)/sqrt(2) gives rr^6 exp(-2 rr^2) (1 + cos 6 phi) at the waist."""
    basis = ModeBasis.symmetric_span(3)
    psi = np.zeros(7, dtype=complex)
    psi[basis.index_of(3)] = 1 / math.sqrt(2)
    psi[basis.index_of(-3)] = 1 / math.sqrt(2)
    state = DensityMatrix(basis, np.outer(psi, psi.conj()))
    norm6 = 2.0**4 / (math.pi * math.factorial(3))
    for rr in (0.5, 1.0, 1.5):
        for phi in np.linspace(0, 2 * math.pi, 13):
            expected = norm6 * rr**6 * math.exp(-2 * rr * rr) * (1 + math.cos(6 * phi))
            assert pixel_probability(state, rr, phi, 0.0) == pytest.approx(expected, abs=1e-12)


def test_forward_model_matches_lg_superposition():
    """pixel_probability equals w(z)^2 |sum c_l LG_l|^2 for pure states."""
    basis = ModeBasis.symmetric_span(7)
    rng = np.random.default_rng(12)
    for _ in range(100):
        c = rng.normal(size=15) + 1j * rng.normal(size=15)
        c /= np.linalg.norm(c)
        state = DensityMatrix(basis, np.outer(c, c.conj()))
        r = rng.uniform(0, 2.5)
        phi = rng.uniform(0, 2 * math.pi)
        z = rng.uniform(-1, 2)
        pt = TransversePoint(r, phi, z)
        w = beam_radius(G, z)
        coh = sum(ci * lg_amplitude(ModeIndex(l), G, pt) for ci, l in zip(c, basis.ells))
        assert pixel_probability(state, r / w, phi, z / G.z_R) == pytest.approx(
            w**2 * abs(coh) ** 2, abs=1e-10
        )


def test_pixel_values_real_for_random_states():
    """The Hermitian combination never leaves a residual imaginary part."""
    basis = ModeBasis.symmetric_span(4)
    rng = np.random.default_rng(3)
    for seed in range(50):
        rho = random_state(basis, int(rng.integers(1, 10)), seed=seed)
        rr, phi, zeta = rng.uniform(0, 3), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2)
        total = 0.0 + 0.0j
        for a, la in enumerate(basis.ells):
            for b, lb in enumerate(basis.ells):
                nl = math.sqrt(2.0 ** (abs(la) + 1) / (math.pi * math.factorial(abs(la))))
                nlp = math.sqrt(2.0 ** (abs(lb) + 1) / (math.pi * math.factorial(abs(lb))))
                total += rho.entries[a, b] * nl * nlp * coefficient(lb, la, rr, phi, zeta)
        assert abs(total.imag) <= 1e-12


# ------------------------------------------------------------ measurement map


def test_map_shape_and_single_mode_column():
    basis = ModeBasis((0,))
    geom = ScanGeometry(5, 3.0, (0.0, 1.0))
    mmap = build_measurement_map(basis, geom)
    assert mmap.matrix.shape == (50, 1)
    xx, yy = geom.pixel_centers()
    rr2 = xx**2 + yy**2
    expected = (2.0 / math.pi) * np.exp(-2.0 * rr2) * geom.pixel_area
    np.testing.assert_allclose(mmap.matrix[:25, 0], expected, atol=1e-15)


def test_map_consistent_with_pixel_probability():
    basis = ModeBasis.symmetric_span(2)
    geom = ScanGeometry(7, 3.0, (0.0, 0.5))
    mmap = build_measurement_map(basis, geom)
    rho = random_state(basis, 2, seed=21)
    values = mmap.apply(rho)
    xx, yy = geom.pixel_centers()
    rr, phi = np.hypot(xx, yy), np.arctan2(yy, xx)
    idx = 0
    for zeta in geom.planes:
        for k in range(len(rr)):
            assert values[idx] == pytest.approx(
                pixel_probability(rho, rr[k], phi[k], zeta) * geom.pixel_area, abs=1e-14
            )
            idx += 1


def test_map_nonnegative_on_states():
    basis = ModeBasis.symmetric_span(3)
    mmap = build_measurement_map(basis, ScanGeometry(19, 3.0, default_planes(2)))
    for seed in range(10):
        rho = random_state(basis, 2, seed=seed)
        assert mmap.apply(rho).min() >= -1e-10


def test_independent_detections_d15():
    basis = ModeBasis.symmetric_span(7)
    m1 = build_measurement_map(basis, ScanGeometry(19, 3.0, default_planes(1)))
    assert m1.matrix.shape == (361, 225)
    assert independent_detections(m1) == 78
    m2 = build_measurement_map(basis, ScanGeometry(19, 3.0, default_planes(2)))
    assert independent_detections(m2) == 146


def test_independent_detections_nonnegative_span():
    basis = ModeBasis.nonnegative_span(5)
    mmap = build_measurement_map(basis, ScanGeometry(19, 3.0, default_planes(1)))
    assert independent_detections(mmap) == 25


def test_rank_monotone_in_planes():
    basis = ModeBasis.symmetric_span(2)
    prev = 0
    for z in range(1, 5):
        n = independent_detections(build_measurement_map(basis, ScanGeometry(19, 3.0, default_planes(z))))
        assert n >= prev
        prev = n


@pytest.mark.parametrize("ell_max", range(8))
def test_detections_match_the_closed_form(ell_max):
    """n_Z = (l_max + 1) + the sum over the groups of pairs a < b with one (m, s)
    of 2 rank [e^{i g_p arctan zeta_j}]_{j, p}, g_p = |l_a| - |l_b|: one function
    per |l| on the diagonal, which no plane turns, and per group the (Re, Im) of
    one function whose pairs the planes turn apart. On 19x19, Z = 1 to 10."""
    ells = ModeBasis.symmetric_span(ell_max).ells
    groups = {}
    for a, la in enumerate(ells):
        for lb in ells[a + 1 :]:
            groups.setdefault((la - lb, abs(la) + abs(lb)), []).append(abs(la) - abs(lb))
    for z in range(1, 11):
        geom = ScanGeometry(19, 3.0, default_planes(z))
        angles = np.arctan(geom.planes)
        turns = [np.exp(1j * np.outer(angles, g)) for g in groups.values()]
        closed = ell_max + 1 + sum(2 * np.linalg.matrix_rank(m) for m in turns)
        assert independent_detections(build_measurement_map(ModeBasis.symmetric_span(ell_max), geom)) == closed, z


def test_single_plane_pair_degeneracy():
    """(1,-1) and (2,0) coherences give proportional pixel functionals
    within one plane; this is what breaks single-scan completeness."""
    geom = ScanGeometry(19, 3.0, (0.7,))
    xx, yy = geom.pixel_centers()
    rr, phi = np.hypot(xx, yy), np.arctan2(yy, xx)
    rows = []
    for la, lb in ((1, -1), (2, 0)):
        c = np.array([coefficient(lb, la, r, f, 0.7) for r, f in zip(rr, phi)])
        rows.append(np.exp(-2 * rr**2) * c.real)
        rows.append(np.exp(-2 * rr**2) * c.imag)
    s = np.linalg.svd(np.array(rows), compute_uv=False)
    assert int(np.sum(s > 1e-8 * s[0])) == 2  # one complex functional, not two


# ------------------------------------------------ the map's factorization


def _per_pair_block(basis, geometry, zeta):
    """Reference rows of one plane: each coordinate's pixel functional from
    its own cos/sin of the full phase, Gouy term included, pair by pair."""
    ells = basis.ells
    d = len(ells)
    xx, yy = geometry.pixel_centers()
    rr, phi = np.hypot(xx, yy), np.arctan2(yy, xx)
    env = np.exp(-2.0 * rr * rr) * geometry.pixel_area
    norms = [math.sqrt(2.0 ** (abs(l) + 1) / (math.pi * math.factorial(abs(l)))) for l in ells]
    gouy = [(abs(l) + 1) * math.atan(zeta) for l in ells]
    block = np.empty((rr.size, d * d))
    for i, l in enumerate(ells):
        block[:, i] = env * norms[i] ** 2 * rr ** (2 * abs(l))
    col = d
    for i in range(d):
        for j in range(i + 1, d):
            amp = math.sqrt(2.0) * env * norms[i] * norms[j] * rr ** (abs(ells[i]) + abs(ells[j]))
            phase = (ells[i] - ells[j]) * phi + gouy[i] - gouy[j]
            block[:, col] = amp * np.cos(phase)
            block[:, col + 1] = amp * np.sin(phase)
            col += 2
    return block


S = ModeBasis.symmetric_span
FACTOR_CASES = {
    "41x41 four planes l_max 4": (S(4), ScanGeometry(41, 3.0, default_planes(4))),
    "d=15 Z=1": (S(7), ScanGeometry(19, 3.0, default_planes(1))),
    "d=15 Z=2": (S(7), ScanGeometry(19, 3.0, default_planes(2))),
    "d=15 Z=3": (S(7), ScanGeometry(19, 3.0, default_planes(3))),
    "fewer pixels than d^2": (S(2), ScanGeometry(3, 3.0, (0.0, 1 / 3))),
    "first plane off the waist": (S(4), ScanGeometry(19, 3.0, (1 / 3, 2.0))),
    "even grid, no centre pixel": (S(3), ScanGeometry(20, 3.0, (0.0, 1 / 3, 1 / 2))),
    "one pixel": (S(2), ScanGeometry(1, 3.0, (0.0, 1 / 3))),
    "2x2 grid": (S(2), ScanGeometry(2, 3.0, (0.0, 1 / 3))),
    "nonnegative basis": (ModeBasis.nonnegative_span(6), ScanGeometry(19, 3.0, default_planes(2))),
    "irregular basis": (ModeBasis((-5, -1, 2, 6)), ScanGeometry(19, 3.0, default_planes(3))),
}


@pytest.mark.parametrize("basis, geom", FACTOR_CASES.values(), ids=FACTOR_CASES.keys())
def test_map_matches_per_pair_reference(basis, geom):
    matrix = build_measurement_map(basis, geom).matrix
    reference = np.vstack([_per_pair_block(basis, geom, zeta) for zeta in geom.planes])
    assert np.max(np.abs(matrix - reference)) <= 1e-13 * np.max(np.abs(reference))


@pytest.mark.parametrize("basis, geom", FACTOR_CASES.values(), ids=FACTOR_CASES.keys())
def test_factorization_matches_dense_svd(basis, geom):
    """s, the rank, U_k^T p and the unfit part agree with a dense SVD of A.

    s holds the values above SVD_RCOND * s[0], so it matches the dense SVD's
    leading len(s) values, and every dense value past them is below the same
    bound. U_k is fixed only up to a rotation within each cluster of equal
    singular values, so U_k^T p is compared through the basis-free fitted part
    U_k U_k^T p and its norm."""
    mmap = build_measurement_map(basis, geom)
    A = np.vstack([_per_pair_block(basis, geom, zeta) for zeta in geom.planes])
    u_dense, s_dense, _ = np.linalg.svd(A, full_matrices=False)
    q, u, s, vt = mmap.svd
    assert vt.shape == (basis.dim**2, basis.dim**2)
    assert len(s) <= len(s_dense)
    assert np.max(np.abs(s - s_dense[: len(s)])) <= 1e-13 * s_dense[0]
    assert np.all(s_dense[len(s) :] <= 1e-13 * s_dense[0])
    assert independent_detections(mmap) == int(np.sum(s_dense > SVD_RCOND * s_dense[0]))

    p = np.random.default_rng(7).uniform(size=A.shape[0])
    k = int(np.sum(s_dense > SVD_RCOND * s_dense[0]))
    assert k == int(np.sum(s > SVD_RCOND * s[0]))
    b, unfit = mmap.least_squares(IntensityScan(geom, p))[2:4]
    b_dense = u_dense[:, :k].T @ p
    fitted = ((u[:, :k] @ b).reshape(geom.n_planes, -1) @ q.T).ravel()
    fitted_dense = u_dense[:, :k] @ b_dense
    assert np.linalg.norm(fitted - fitted_dense) <= 1e-12 * np.linalg.norm(fitted_dense)
    assert np.linalg.norm(b) == pytest.approx(np.linalg.norm(b_dense), rel=1e-12)
    unfit_dense = 0.5 * float(np.sum((p - fitted_dense) ** 2))
    assert abs(unfit - unfit_dense) <= 1e-12 * 0.5 * float(p @ p)


ONE_RANK_CASES = {
    **{f"l_max 7, 19x19, Z={z}": (S(7), ScanGeometry(19, 3.0, default_planes(z))) for z in (1, 2, 3)},
    **{f"l_max 7, 9x9, Z={z}": (S(7), ScanGeometry(9, 3.0, default_planes(z))) for z in (1, 2)},
    "l_max 7, 7x7, Z=4": (S(7), ScanGeometry(7, 3.0, default_planes(4))),
    "l_max 6, 7x7, Z=3": (S(6), ScanGeometry(7, 3.0, default_planes(3))),
    "l_max 5, 5x5, Z=3": (S(5), ScanGeometry(5, 3.0, default_planes(3))),
}


@pytest.mark.parametrize("basis, geom", ONE_RANK_CASES.values(), ids=ONE_RANK_CASES.keys())
def test_every_reader_of_the_rank_agrees(basis, geom):
    """The factors keep exactly the singular values above SVD_RCOND * s[0], and
    the detection count, the least-squares model, its null basis and a dense
    SVD of A all see that rank. The coarse grids have genuine values between
    1e-12 and 1e-8 of the largest, which a second cut-off would count apart."""
    mmap = build_measurement_map(basis, geom)
    s = mmap.svd.s
    assert np.all(s > SVD_RCOND * s[0])
    model = mmap.least_squares(simulate_scan(random_state(basis, 2, seed=0), mmap))
    A = np.vstack([_per_pair_block(basis, geom, zeta) for zeta in geom.planes])
    s_dense = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(s_dense > SVD_RCOND * s_dense[0]))
    assert independent_detections(mmap) == len(model.s) == basis.dim**2 - len(model.null) == rank


Q_WIDTH_CASES = {
    **{
        f"l_max {l}": (S(l), ScanGeometry(19, 3.0, default_planes(1)), ((2 * l + 1) ** 2 + 6 * (2 * l + 1) - 3) // 4)
        for l in range(8)
    },
    **{
        f"nonnegative d={d}": (ModeBasis.nonnegative_span(d), ScanGeometry(19, 3.0, default_planes(1)), d * d)
        for d in (1, 2, 4, 6)
    },
    "fewer pixels than d^2": (S(2), ScanGeometry(3, 3.0, (0.0, 1 / 3)), 9),
    "one pixel": (S(2), ScanGeometry(1, 3.0, (0.0, 1 / 3)), 1),
    "2x2 grid": (S(2), ScanGeometry(2, 3.0, (0.0, 1 / 3)), 4),
}


@pytest.mark.parametrize("basis, geom, width", Q_WIDTH_CASES.values(), ids=Q_WIDTH_CASES.keys())
def test_q_spans_the_distinct_pixel_functions(basis, geom, width):
    """q has one column per distinct pixel function, unless the grid has fewer
    orbit rows than that: (d^2 + 6d - 3)/4 for a symmetric span, whose pairs
    share functions, and d^2 for a nonnegative span, whose pairs share none.
    A small grid's q is as wide as its orbit rows, one per pixel."""
    q = build_measurement_map(basis, geom).svd.q
    assert q.shape == (geom.n_pixels, width)


def _frequency_class(basis):
    """Class of each Hermitian coordinate: its frequency l_a - l_b mod 4, with 3 counted as 1 (odd)."""
    ells = basis.ells
    m = [0] * len(ells)
    for a in range(len(ells)):
        for b in range(a + 1, len(ells)):
            m += [ells[a] - ells[b]] * 2  # the (Re, Im) pair
    return np.array([f % 4 if f % 2 == 0 else 1 for f in m])


@pytest.mark.parametrize("basis, geom", FACTOR_CASES.values(), ids=FACTOR_CASES.keys())
def test_map_factors_are_orthonormal_and_split_by_class(basis, geom):
    """A = blockdiag(q, ..., q) u diag(s) vt[:len(s)] with orthonormal q and vt,
    each row of vt on the coordinates of one frequency class, and the same
    arrays, bit for bit, from a map built again."""
    mmap = build_measurement_map(basis, geom)
    q, u, s, vt = mmap.svd
    small = ((u * s) @ vt[: len(s)]).reshape(geom.n_planes, q.shape[1], -1)
    rebuilt = np.vstack([q @ block for block in small])
    reference = np.vstack([_per_pair_block(basis, geom, zeta) for zeta in geom.planes])
    assert np.max(np.abs(rebuilt - reference)) <= 1e-13 * np.max(np.abs(reference))
    assert np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) <= 1e-13
    assert np.max(np.abs(vt @ vt.T - np.eye(len(vt)))) <= 1e-13
    assert np.all(np.diff(s) <= 0)
    cls = _frequency_class(basis)
    for row in vt:
        assert len(set(cls[row != 0])) == 1
    again = build_measurement_map(basis, geom).svd
    assert all(np.array_equal(x, y) for x, y in zip(mmap.svd, again))


def test_map_is_built_from_basis_and_geometry_only():
    basis = ModeBasis.symmetric_span(2)
    geom = ScanGeometry(7, 3.0, (0.0, 1 / 3))
    mmap = MeasurementMap(basis, geom)
    with pytest.raises(TypeError):
        MeasurementMap(basis, geom, mmap.matrix)
    assert not mmap.matrix.flags.writeable
    assert mmap == build_measurement_map(basis, geom)


def test_camera_map_simulation_and_solve_never_form_a():
    """Building a camera map, simulating a scan and solving on it allocate well
    under one m x d^2 array: neither A nor its m-row left singular factor is formed."""
    basis = ModeBasis.symmetric_span(4)
    geom = ScanGeometry(101, 3.0, default_planes(4))
    rho = random_state(basis, 2, seed=3)
    tracemalloc.start()
    try:
        mmap = build_measurement_map(basis, geom)
        reconstruct_positive(mmap, simulate_scan(rho, mmap))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * geom.n_planes * geom.n_pixels * basis.dim**2 * 8


# ------------------------------------------------------------------ simulate


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_intensity_scan_rejects_non_finite_values(value):
    values = np.full(ScanGeometry(2, 3.0, (0.0,)).n_pixels, 0.25)
    values[2] = value
    with pytest.raises(ValueError, match=f"finite, got {value!r}"):
        IntensityScan(ScanGeometry(2, 3.0, (0.0,)), values)


BAD_INPUTS = {
    "no planes": (lambda: default_planes(0), "need at least one plane, got 0"),
    "scan of the wrong length": (
        lambda: IntensityScan(ScanGeometry(2, 3.0, (0.0,)), np.full(3, 0.25)),
        "does not match geometry",
    ),
    "negative intensity": (
        lambda: IntensityScan(ScanGeometry(2, 3.0, (0.0,)), np.array([0.25, -0.5, 0.25, 0.25])),
        "nonnegative, got -0.5",
    ),
    "unknown noise model": (
        lambda: simulate_scan(
            random_state(ModeBasis.symmetric_span(1), 1, seed=0),
            build_measurement_map(ModeBasis.symmetric_span(1), ScanGeometry(3, 3.0, (0.0,))),
            "gaussian",
        ),
        "unknown noise model 'gaussian'",
    ),
}


@pytest.mark.parametrize("call, message", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_raises(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_simulate_noiseless_matches_map():
    basis = ModeBasis.symmetric_span(1)
    mmap = build_measurement_map(basis, ScanGeometry(19, 3.0, default_planes(1)))
    rho = np.zeros((3, 3), dtype=complex)
    rho[1, 1] = 1.0
    state = DensityMatrix(basis, rho)
    scan = simulate_scan(state, mmap)
    np.testing.assert_allclose(scan.values, mmap.apply(state), atol=1e-15)


def test_simulate_poisson_large_budget_close_to_noiseless():
    basis = ModeBasis.symmetric_span(2)
    mmap = build_measurement_map(basis, ScanGeometry(19, 3.0, default_planes(2)))
    rho = random_state(basis, 1, seed=2)
    clean = simulate_scan(rho, mmap)
    noisy = simulate_scan(rho, mmap, "poisson", photon_budget=1e12, seed=0)
    mask = clean.values > 1e-3
    rel = np.abs(noisy.values[mask] - clean.values[mask]) / clean.values[mask]
    assert np.median(rel) < 1e-4


def test_simulate_poisson_deterministic():
    basis = ModeBasis.symmetric_span(2)
    mmap = build_measurement_map(basis, ScanGeometry(19, 3.0, default_planes(1)))
    rho = random_state(basis, 2, seed=5)
    a = simulate_scan(rho, mmap, "poisson", photon_budget=1e5, seed=42)
    b = simulate_scan(rho, mmap, "poisson", photon_budget=1e5, seed=42)
    assert np.array_equal(a.values, b.values)


def test_simulate_rejects_bad_budget():
    basis = ModeBasis.symmetric_span(1)
    mmap = build_measurement_map(basis, ScanGeometry(19, 3.0, default_planes(1)))
    rho = random_state(basis, 1, seed=0)
    for budget in (None, 0.0, -1.0, math.inf, math.nan, 1e19):  # 1e19: past MAX_PHOTON_BUDGET
        with pytest.raises(ValueError, match="poisson noise requires a positive finite photon budget"):
            simulate_scan(rho, mmap, "poisson", photon_budget=budget)


def test_simulate_draws_at_the_largest_budget():
    """No pixel's mean exceeds the budget, so numpy's Poisson sampler takes every mean at the bound."""
    basis = ModeBasis.symmetric_span(1)
    mmap = build_measurement_map(basis, ScanGeometry(19, 3.0, default_planes(1)))
    rho = random_state(basis, 1, seed=0)
    assert simulate_scan(rho, mmap, "poisson", photon_budget=MAX_PHOTON_BUDGET).values.any()


def test_dark_scan_error_names_both_dark_cases():
    """A map that sees no light has no least-squares model and no Poisson scale: one typed error."""
    basis = ModeBasis.symmetric_span(1)
    mmap = build_measurement_map(basis, ScanGeometry(2, 100.0, (0.0,)))
    rho = random_state(basis, 1, seed=0)
    with pytest.raises(DarkScanError, match="measurement map is identically zero"):
        mmap.least_squares(simulate_scan(rho, mmap))
    with pytest.raises(DarkScanError, match="receives no light"):
        simulate_scan(rho, mmap, "poisson", photon_budget=1e6)


def test_noiseless_scan_total_is_stable():
    """Sum over pixels approximates the continuum normalization per plane."""
    basis = ModeBasis.symmetric_span(2)
    mmap = build_measurement_map(basis, ScanGeometry(19, 3.0, default_planes(1)))
    rho = random_state(basis, 3, seed=8)
    scan = simulate_scan(rho, mmap)
    assert scan.values.sum() == pytest.approx(1.0, abs=1e-3)


# ----------------------------------------------------------------- file I/O


def test_scan_csv_roundtrip(tmp_path):
    basis = ModeBasis.symmetric_span(2)
    mmap = build_measurement_map(basis, ScanGeometry(19, 3.0, default_planes(2)))
    rho = random_state(basis, 2, seed=13)
    scan = simulate_scan(rho, mmap)
    path = tmp_path / "scan.csv"
    write_scan_csv(path, scan)
    back = read_scan_csv(path)
    np.testing.assert_array_equal(back.values, scan.values)
    assert back.geometry.planes == scan.geometry.planes
    assert back.geometry.n_pixels_per_side == 19


def test_scan_csv_bytes_match_row_by_row_writer(tmp_path):
    geom = ScanGeometry(6, 2.5, (0.0, 1 / 3, 2.0))
    distinct = np.random.default_rng(9).uniform(size=geom.n_pixels * 3) ** 5
    distinct[:5] = (0.0, 1e-300, 5e-324, 123456789.125, -0.0)
    # photon counts: few distinct values, each formatted once; 0.0 and -0.0 must stay apart
    counts = np.random.default_rng(9).poisson(3.0, size=geom.n_pixels * 3) / 7.0
    counts[:4] = (-0.0, 0.0, 5e-324, 1e-300)
    for values in (distinct, counts):
        path = tmp_path / "scan.csv"
        write_scan_csv(path, IntensityScan(geom, values))
        rows = [SCAN_HEADER]
        idx = 0
        for j, zeta in enumerate(geom.planes):
            for py in range(geom.n_pixels_per_side):
                for px in range(geom.n_pixels_per_side):
                    rows.append(f"{j},{float(zeta)!r},{px},{py},{float(values[idx])!r}")
                    idx += 1
        assert path.read_bytes() == ("\n".join(rows) + "\n").encode()
        assert read_scan_csv(path, extent=2.5).values.tobytes() == values.tobytes()  # bit for bit, -0.0 included


def test_scan_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("plane,zeta\n")
    with pytest.raises(ScanFormatError, match="line 1"):
        read_scan_csv(path)


def test_scan_csv_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("plane_index,zeta,px,py,value\n0,0.0,0,0,abc\n")
    with pytest.raises(ScanFormatError, match="line 2"):
        read_scan_csv(path)


def test_scan_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("plane_index,zeta,px,py,value\n")
    with pytest.raises(ScanFormatError, match="no data"):
        read_scan_csv(path)


def _small_scan_lines(tmp_path):
    """Lines of a valid 3x3, two-plane scan file; line k of the file is lines[k - 1]."""
    basis = ModeBasis.symmetric_span(1)
    mmap = build_measurement_map(basis, ScanGeometry(3, 3.0, (0.0, 1.0)))
    path = tmp_path / "scan.csv"
    write_scan_csv(path, simulate_scan(random_state(basis, 1, seed=4), mmap))
    return path.read_text().splitlines()


def test_scan_csv_rejects_repeated_pixel(tmp_path):
    lines = _small_scan_lines(tmp_path)
    # line 12 is plane 1, pixel (1, 0); overwrite pixel (2, 0) on line 13 with a
    # copy of it, so the row count still matches and the repeat hides a missing
    # pixel; a blank line before it moves it to line 14
    assert lines[11].startswith("1,1.0,1,0,") and lines[12].startswith("1,1.0,2,0,")
    lines[12] = lines[11]
    lines.insert(3, "")
    path = tmp_path / "repeat.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ScanFormatError, match=r"line 14: repeats pixel \(1, 0\) of plane 1"):
        read_scan_csv(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_scan_csv_rejects_non_finite_value(tmp_path, token):
    lines = _small_scan_lines(tmp_path)
    fields = lines[6].split(",")
    lines[6] = ",".join(fields[:4] + [token])
    path = tmp_path / "nonfinite.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ScanFormatError, match="line 7: non-finite value"):
        read_scan_csv(path)


def test_scan_csv_rejects_negative_value(tmp_path):
    lines = _small_scan_lines(tmp_path)
    lines[4] = ",".join(lines[4].split(",")[:4] + ["-0.5"])
    path = tmp_path / "negative.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ScanFormatError, match="line 5: negative value -0.5"):
        read_scan_csv(path)


def _edit(lines: list[str], line: int, field: int, text: str) -> list[str]:
    """lines with field ``field`` of file line ``line`` (lines[line - 1]) replaced by ``text``."""
    fields = lines[line - 1].split(",")
    fields[field] = text
    return lines[: line - 1] + [",".join(fields)] + lines[line:]


ODD_VALID_FILES = {
    "whitespace-only line": lambda lines: "\n".join(lines[:4] + ["  \t "] + lines[4:]) + "\n",
    "CRLF line ends": lambda lines: "\r\n".join(lines) + "\r\n",
    "signed and spaced integers": lambda lines: "\n".join(_edit(_edit(lines, 3, 2, "+1"), 4, 3, " 0 ")) + "\n",
    "underscores in numbers": lambda lines: "\n".join(_edit(_edit(lines, 11, 1, "0_1.0"), 12, 2, "0_1")) + "\n",
    "no final newline": lambda lines: "\n".join(lines),
    "trailing blank line": lambda lines: "\n".join(lines) + "\n\n",
    # whitespace to int(), but str.splitlines ends a line at each of them
    "form feed, NEL and line separator": lambda lines: "\n".join(
        _edit(_edit(_edit(lines, 5, 2, "0\x0c"), 6, 2, "1\u2028"), 7, 2, "\x852")
    )
    + "\n",
}


@pytest.mark.parametrize("make", ODD_VALID_FILES.values(), ids=ODD_VALID_FILES.keys())
def test_scan_csv_reads_odd_but_valid_files(tmp_path, make):
    lines = _small_scan_lines(tmp_path)
    scan = read_scan_csv(tmp_path / "scan.csv")
    path = tmp_path / "odd.csv"
    path.write_bytes(make(lines).encode())
    odd = read_scan_csv(path)
    assert odd.values.tobytes() == scan.values.tobytes()
    assert odd.geometry == scan.geometry


REJECTED_FILES = {
    "comment after a value": (lambda lines: _edit(lines, 5, 4, "4.0 # c"), "line 5: could not convert"),
    "quoted value": (lambda lines: _edit(lines, 5, 4, '"4.0"'), "line 5: could not convert"),
    "float pixel index": (lambda lines: _edit(lines, 7, 2, "1.0"), "line 7: invalid literal for int()"),
    "trailing comma": (lambda lines: lines[:3] + [lines[3] + ","] + lines[4:], "line 4: expected 5 fields, got 6"),
    "separator around a number": (lambda lines: _edit(lines, 6, 2, "\x1c1"), "line 6: invalid literal for int()"),
    "pixel index beyond int64": (
        lambda lines: _edit(lines, 8, 3, "99999999999999999999"),
        "line 8: pixel index (0, 99999999999999999999) does not fit in 64 bits",
    ),
    "plane index beyond int64": (
        lambda lines: _edit(lines, 8, 0, "-99999999999999999999"),
        "line 8: inconsistent plane index/position",
    ),
    "pixel index at the int64 limit": (
        lambda lines: _edit(lines, 8, 2, str(2**63 - 1)),
        f"expected {2 * 2**126} data rows for a {2**63}x{2**63} grid over 2 plane(s), got 18",
    ),
    "plane defect before a field defect": (
        lambda lines: _edit(_edit(lines, 3, 1, "0.5"), 8, 4, "x"),
        "line 8: could not convert string to float: 'x\\n'",
    ),
}


@pytest.mark.parametrize("make, message", REJECTED_FILES.values(), ids=REJECTED_FILES.keys())
def test_scan_csv_rejects_on_its_line(tmp_path, make, message):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(make(_small_scan_lines(tmp_path))) + "\n")
    with pytest.raises(ScanFormatError) as info:
        read_scan_csv(path)
    assert message in str(info.value)


def test_map_of_a_far_extent_is_finite():
    """Where exp(-2 rr^2) underflows to 0, rr^|l| overflows: such a pixel's functional is an exact 0."""
    mmap = build_measurement_map(ModeBasis.symmetric_span(7), ScanGeometry(3, 1e100, (0.0, 1.0)))
    assert np.isfinite(mmap.matrix).all()
    pixels = mmap.matrix.reshape(2, 9, -1)
    assert np.count_nonzero(pixels[:, np.arange(9) != 4]) == 0  # only the centre pixel sees light
    assert independent_detections(mmap) == 1
