import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamtomo.qstate import test_state as make_test_state
from oamtomo.qstate import (
    DensityMatrix,
    ModeBasis,
    StateValidationError,
    coords_to_hermitian,
    hermitian_to_coords,
    hs_error,
    project_psd,
    random_state,
    read_state_json,
    state_from_json_dict,
    state_to_json_dict,
)
from oracles import write_state_json


def nested(value, depth: int):
    """value inside depth levels of one-item lists."""
    for _ in range(depth):
        value = [value]
    return value


def random_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (h + h.conj().T)


# ---------------------------------------------------------------- ModeBasis


def test_symmetric_span():
    b = ModeBasis.symmetric_span(3)
    assert b.ells == (-3, -2, -1, 0, 1, 2, 3)
    assert b.dim == 7


def test_nonnegative_span():
    b = ModeBasis.nonnegative_span(5)
    assert b.ells == (0, 1, 2, 3, 4)


def test_basis_rejects_duplicates_and_unsorted():
    with pytest.raises(ValueError):
        ModeBasis((0, 0, 1))
    with pytest.raises(ValueError):
        ModeBasis((1, 0))
    with pytest.raises(ValueError):
        ModeBasis(())


# ------------------------------------------------------------- vectorization


def test_vectorize_identity_over_2():
    b = ModeBasis((0, 1))
    x = hermitian_to_coords(DensityMatrix(b, np.eye(2) / 2).entries)
    np.testing.assert_allclose(x, [0.5, 0.5, 0.0, 0.0])


def test_vectorize_ground_projector():
    b = ModeBasis((0, 1))
    rho = np.diag([1.0, 0.0]).astype(complex)
    x = hermitian_to_coords(DensityMatrix(b, rho).entries)
    np.testing.assert_allclose(x, [1.0, 0.0, 0.0, 0.0])


def test_vectorize_rejects_non_hermitian():
    h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        hermitian_to_coords(h)


@given(st.integers(0, 1000), st.integers(2, 8))
@settings(max_examples=50)
def test_roundtrip_and_isometry(seed, d):
    x = random_hermitian(d, seed)
    y = random_hermitian(d, seed + 1)
    cx, cy = hermitian_to_coords(x), hermitian_to_coords(y)
    np.testing.assert_allclose(coords_to_hermitian(cx, d), x, atol=1e-14)
    hs = np.trace(x @ y).real
    assert abs(hs - cx @ cy) < 1e-12


def test_coords_stack_maps_row_by_row():
    x = np.random.default_rng(7).normal(size=(2, 9))
    h = coords_to_hermitian(x, 3)
    assert h.shape == (2, 3, 3)
    for row, hr in zip(x, h):
        np.testing.assert_array_equal(hr, coords_to_hermitian(row, 3))
    np.testing.assert_allclose(hermitian_to_coords(h), x, atol=1e-15)


BAD_INPUTS = {
    "coords of the wrong length": (lambda: coords_to_hermitian(np.zeros(8), 3), r"does not match d\^2 = 9"),
    "coords stack of the wrong length": (lambda: coords_to_hermitian(np.zeros((2, 8)), 3), "does not match d"),
    "projection of a non-Hermitian matrix": (
        lambda: project_psd(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)),
        "not Hermitian",
    ),
    "negative ell_max": (lambda: ModeBasis.symmetric_span(-1), "ell_max must be nonnegative, got -1"),
    "empty nonnegative span": (lambda: ModeBasis.nonnegative_span(0), "dimension must be positive, got 0"),
    "missing mode": (lambda: ModeBasis((0, 1)).index_of(2), "azimuthal index 2 not in basis"),
    # numpy's flat iterator stops at 32 dimensions; past 64 the innermost lists stay Python objects
    "state entries nested 33 deep": (
        lambda: state_from_json_dict({"ells": [0], "re": [[0.5]], "im": nested(0, 33)}),
        r"entries shape \(1, 1, 1, .*\) does not match basis dimension 1",
    ),
    "state entries nested 65 deep": (
        lambda: state_from_json_dict({"ells": [0], "re": [[0.5]], "im": nested(0, 65)}),
        "entries must be numbers",
    ),
}


@pytest.mark.parametrize("call, message", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_raises(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_unit_norm_maps_to_unit_coords():
    x = random_hermitian(5, 3)
    x /= math.sqrt(np.trace(x @ x).real)
    assert np.linalg.norm(hermitian_to_coords(x)) == pytest.approx(1.0)


# -------------------------------------------------------------- random_state


def test_random_state_rank1_is_pure():
    b = ModeBasis.symmetric_span(7)
    rho = random_state(b, 1, seed=7)
    assert np.trace(rho.entries @ rho.entries).real == pytest.approx(1.0, abs=1e-10)


def test_random_state_full_rank():
    b = ModeBasis.symmetric_span(7)
    rho = random_state(b, 15, seed=7)
    assert np.linalg.eigvalsh(rho.entries)[0] > 0


def test_random_state_deterministic():
    b = ModeBasis.symmetric_span(7)
    a = random_state(b, 3, seed=11)
    c = random_state(b, 3, seed=11)
    assert np.array_equal(a.entries, c.entries)


def test_random_state_rank_counts():
    b = ModeBasis.symmetric_span(7)
    for rank in range(1, 9):
        for seed in range(0, 100, 10):
            rho = random_state(b, rank, seed)
            eigs = np.linalg.eigvalsh(rho.entries)
            assert int(np.sum(eigs > 1e-8)) == rank


def test_random_state_from_a_generator():
    """A generator is drawn from as it stands: two calls from one generator give
    the next two Ginibre draws written out by hand, and an int seed acts as the
    generator it seeds."""
    b = ModeBasis.symmetric_span(2)
    d = b.dim
    rng, hand = np.random.default_rng(3), np.random.default_rng(3)
    first, second = random_state(b, d, rng), random_state(b, d, rng)
    for rho in (first, second):
        g = hand.normal(size=(d, d)) + 1j * hand.normal(size=(d, d))
        rho0 = g @ g.conj().T
        rho0 /= np.trace(rho0).real
        np.testing.assert_array_equal(rho.entries, 0.5 * (rho0 + rho0.conj().T))
    assert not np.array_equal(first.entries, second.entries)
    for rank in (1, 3, d):
        from_int, from_generator = random_state(b, rank, 7), random_state(b, rank, np.random.default_rng(7))
        np.testing.assert_array_equal(from_int.entries, from_generator.entries)


def test_random_state_rejects_bad_rank():
    b = ModeBasis.symmetric_span(2)
    with pytest.raises(ValueError):
        random_state(b, 0, seed=0)
    with pytest.raises(ValueError):
        random_state(b, 6, seed=0)


# ---------------------------------------------------------------- test_state


def test_family_pure_limits():
    b = ModeBasis.symmetric_span(3)
    rho = make_test_state(1.0, 0.3, b)
    expect = np.zeros((7, 7))
    expect[3, 3] = 1.0
    np.testing.assert_allclose(rho.entries, expect, atol=1e-15)

    rho = make_test_state(0.0, 0.0, b)
    expect = np.zeros((7, 7))
    expect[0, 0] = 1.0
    np.testing.assert_allclose(rho.entries, expect, atol=1e-15)


def test_family_balanced_eigenvalues():
    b = ModeBasis.symmetric_span(3)
    rho = make_test_state(0.5, math.pi / 4, b)
    eigs = np.sort(np.linalg.eigvalsh(rho.entries))[::-1]
    np.testing.assert_allclose(eigs[:2], [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(eigs[2:], 0.0, atol=1e-12)


def test_family_requires_modes():
    with pytest.raises(ValueError):
        make_test_state(0.5, 0.1, ModeBasis.symmetric_span(2))
    with pytest.raises(ValueError):
        make_test_state(1.5, 0.1, ModeBasis.symmetric_span(3))


# ------------------------------------------------------------------ hs_error


def test_hs_error_zero_on_equal():
    b = ModeBasis.symmetric_span(2)
    rho = random_state(b, 2, seed=4)
    assert hs_error(rho, rho) == 0.0


def test_hs_error_orthogonal_pure_states():
    b = ModeBasis((0, 1))
    a = DensityMatrix(b, np.diag([1.0, 0.0]).astype(complex))
    c = DensityMatrix(b, np.diag([0.0, 1.0]).astype(complex))
    assert hs_error(a, c) == pytest.approx(2.0)


def test_hs_error_pure_vs_mixed():
    b = ModeBasis((0, 1))
    a = DensityMatrix(b, np.diag([1.0, 0.0]).astype(complex))
    c = DensityMatrix(b, np.eye(2) / 2)
    assert hs_error(a, c) == pytest.approx(0.5)


def test_hs_error_basis_mismatch():
    a = random_state(ModeBasis.symmetric_span(1), 1, seed=0)
    c = random_state(ModeBasis.nonnegative_span(3), 1, seed=0)
    with pytest.raises(ValueError):
        hs_error(a, c)


@given(st.integers(0, 500), st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=40)
def test_hs_error_bounded_by_two(seed, ra, rb):
    b = ModeBasis.symmetric_span(2)
    x = random_state(b, ra, seed)
    y = random_state(b, rb, seed + 1)
    e = hs_error(x, y)
    assert 0.0 <= e <= 2.0 + 1e-12
    assert e == pytest.approx(hs_error(y, x))


# --------------------------------------------------------------- project_psd


def test_project_psd_clips_negative_eigenvalue():
    out = project_psd(np.diag([0.5, -0.5]).astype(complex))
    np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-14)


def test_project_psd_idempotent_on_psd():
    rho = random_state(ModeBasis.symmetric_span(2), 3, seed=9).entries
    np.testing.assert_allclose(project_psd(rho), rho, atol=1e-12)


def test_project_psd_minimality():
    """Projection is at least as close as random PSD candidates."""
    rng = np.random.default_rng(42)
    b = ModeBasis.symmetric_span(2)
    for seed in range(50):
        h = random_hermitian(5, seed)
        proj = project_psd(h)
        best = np.linalg.norm(h - proj)
        for k in range(20):
            q = random_state(b, int(rng.integers(1, 6)), seed=1000 * seed + k).entries
            q = q * rng.uniform(0.1, 5.0)
            assert best <= np.linalg.norm(h - q) + 1e-12


# -------------------------------------------------------- validation and I/O


def test_density_matrix_invariants_enforced():
    b = ModeBasis((0, 1))
    with pytest.raises(StateValidationError, match="trace"):
        DensityMatrix(b, np.eye(2, dtype=complex))
    with pytest.raises(StateValidationError, match="positivity"):
        DensityMatrix(b, np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(StateValidationError, match="hermiticity"):
        DensityMatrix(b, np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex))
    for bad in (np.nan, np.inf):  # NaN passes every comparison, so finiteness is checked first
        with pytest.raises(StateValidationError, match="invariants violated: finite entries$"):
            DensityMatrix(b, np.diag([bad, 0.5]).astype(complex))


def test_state_json_roundtrip(tmp_path):
    rho = random_state(ModeBasis.symmetric_span(2), 2, seed=5)
    path = tmp_path / "state.json"
    write_state_json(path, rho)
    back = read_state_json(path)
    np.testing.assert_allclose(back.entries, rho.entries, atol=1e-15)
    assert back.basis.ells == rho.basis.ells


def test_state_json_reports_violation(tmp_path):
    obj = {"ells": [0, 1], "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0] * 2] * 2}
    with pytest.raises(StateValidationError, match="trace"):
        state_from_json_dict(obj)


def test_state_json_malformed():
    with pytest.raises(StateValidationError):
        state_from_json_dict({"ells": [0, 1]})
