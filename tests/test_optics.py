import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import eval_genlaguerre

from oracles import (
    BeamGeometry,
    ModeIndex,
    TransversePoint,
    beam_radius,
    gouy_phase,
    inverse_curvature,
    lg_amplitude,
    mode_normalization,
)
from oracles import _laguerre

G = BeamGeometry()  # w0 = 1, k = 2 so z_R = 1


def test_rayleigh_range_is_derived():
    g = BeamGeometry(w0=2.0, k=3.0)
    assert g.z_R == pytest.approx(3.0 * 4.0 / 2.0)


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        BeamGeometry(w0=0.0)
    with pytest.raises(ValueError):
        BeamGeometry(k=-1.0)
    with pytest.raises(ValueError):
        ModeIndex(ell=1, p=-1)
    with pytest.raises(ValueError):
        TransversePoint(r=-0.1, phi=0.0)


def test_phi_wrapped():
    assert TransversePoint(1.0, 7.0).phi == pytest.approx(7.0 - 2 * math.pi)
    assert TransversePoint(1.0, -0.5).phi == pytest.approx(2 * math.pi - 0.5)


def test_beam_radius_examples():
    assert beam_radius(G, 0.0) == pytest.approx(1.0)
    assert beam_radius(G, G.z_R) == pytest.approx(math.sqrt(2.0))
    g = BeamGeometry(w0=2.0)
    assert beam_radius(g, 2.0 * g.z_R) == pytest.approx(2.0 * math.sqrt(5.0))


@given(st.floats(-50, 50))
def test_beam_radius_even(z):
    assert beam_radius(G, z) == pytest.approx(beam_radius(G, -z))
    assert beam_radius(G, z) > 0


def test_gouy_phase_examples():
    assert gouy_phase(ModeIndex(0), G, 0.0) == 0.0
    assert gouy_phase(ModeIndex(3), G, G.z_R) == pytest.approx(math.pi)
    assert gouy_phase(ModeIndex(-2), G, G.z_R) == pytest.approx(3 * math.pi / 4)


@given(st.integers(-9, 9), st.integers(0, 3), st.floats(-20, 20))
def test_gouy_phase_odd_in_z(ell, p, z):
    m = ModeIndex(ell, p)
    assert gouy_phase(m, G, -z) == -gouy_phase(m, G, z)


def test_inverse_curvature_examples():
    assert inverse_curvature(G, 0.0) == 0.0
    assert inverse_curvature(G, G.z_R) == pytest.approx(1.0 / (2.0 * G.z_R))
    assert inverse_curvature(G, -G.z_R) == pytest.approx(-1.0 / (2.0 * G.z_R))


def test_laguerre_recurrence_matches_scipy():
    xs = np.linspace(0.0, 12.0, 37)
    for p in range(6):
        for alpha in range(8):
            np.testing.assert_allclose(
                _laguerre(p, alpha, xs), eval_genlaguerre(p, alpha, xs), rtol=1e-12
            )


def test_lg_vanishes_on_axis_for_nonzero_ell():
    assert lg_amplitude(ModeIndex(2), G, TransversePoint(0.0, 0.3)) == 0.0


def test_lg_gaussian_peak_value():
    val = lg_amplitude(ModeIndex(0), G, TransversePoint(0.0, 0.0))
    assert val == pytest.approx(math.sqrt(2.0 / math.pi))


@pytest.mark.parametrize("ell", [0, 1, -1, 3, -3])
@pytest.mark.parametrize("zeta", [0.0, 0.5, 1.0])
def test_lg_normalization(ell, zeta):
    """Quadrature of |LG|^2 over the transverse plane equals 1."""
    m = ModeIndex(ell)
    z = zeta * G.z_R
    w = beam_radius(G, z)

    def integrand(r):
        return abs(lg_amplitude(m, G, TransversePoint(r, 0.0, z))) ** 2 * r

    total, _ = quad(integrand, 0.0, 8.0 * w, limit=200)
    assert 2.0 * math.pi * total == pytest.approx(1.0, abs=1e-6)


@given(
    st.integers(-7, 7),
    st.floats(0.01, 3.0),
    st.floats(0.0, 6.28),
    st.floats(-2.0, 2.0),
)
def test_ell_sign_symmetry(ell, r, phi, z):
    pt = TransversePoint(r, phi, z)
    a = abs(lg_amplitude(ModeIndex(ell), G, pt))
    b = abs(lg_amplitude(ModeIndex(-ell), G, pt))
    assert a == pytest.approx(b, rel=1e-12)


@settings(max_examples=40)
@given(
    st.integers(-5, 5),
    st.floats(0.1, 2.5),
    st.floats(0.0, 6.0),
    st.floats(0.01, 3.0),
    st.floats(-1.5, 1.5),
)
def test_phase_winding(ell, r, phi, delta, z):
    """Azimuthal phase advances by -ell * delta."""
    a = lg_amplitude(ModeIndex(ell), G, TransversePoint(r, phi, z))
    b = lg_amplitude(ModeIndex(ell), G, TransversePoint(r, phi + delta, z))
    diff = np.angle(b) - np.angle(a) + ell * delta
    assert math.cos(diff) == pytest.approx(1.0, abs=1e-9)


def test_mode_normalization_constant():
    assert mode_normalization(ModeIndex(0)) == pytest.approx(math.sqrt(2 / math.pi))
    assert mode_normalization(ModeIndex(3)) == pytest.approx(
        math.sqrt(2.0 / (math.pi * math.factorial(3)))
    )
