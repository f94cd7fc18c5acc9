"""Waveguide one- and two-photon scattering."""

import numpy as np
import pytest

from photon_scatter.core import TWGParams
from photon_scatter.twg import (
    transmission_amplitude,
    two_photon_fluorescence,
    two_photon_out_wavefunction,
    two_photon_s,
    two_photon_t,
)


def _params(omega_atom=1.0, gamma_t=1.0):
    return TWGParams(omega_atom, gamma_t)


def test_transmission_phase_only():
    p = _params()
    k = np.linspace(p.omega_atom - 30.0, p.omega_atom + 30.0, 1000)
    t = transmission_amplitude(p, k)
    assert np.max(np.abs(np.abs(t) - 1.0)) < 1e-14


@pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf])
def test_transmission_refuses_non_finite_momentum(k):
    with pytest.raises(ValueError, match="finite"):
        transmission_amplitude(_params(), k)
    with pytest.raises(ValueError, match="finite"):
        transmission_amplitude(_params(), np.array([1.0, k]))


def test_transmission_special_points():
    p = _params()
    assert transmission_amplitude(p, 1.0) == -1.0  # exact on resonance
    assert transmission_amplitude(p, 1.5) == pytest.approx(-1j, abs=1e-15)
    assert transmission_amplitude(p, 1e7) == pytest.approx(1.0, abs=1e-6)


def test_two_photon_t_frozen_value():
    # Omega=1, gamma_t=1, k1=k2=1, (p1, p2) = (1.5, 0.5): exactly -8/pi
    val = two_photon_t(_params(), 1.0, 1.0, 1.5, 0.5)
    assert val == pytest.approx(-8.0 / np.pi, abs=1e-14)
    assert abs(val.imag) < 1e-16


def test_two_photon_t_symbolic_oracle():
    # independent evaluation of the printed closed form with exact arithmetic
    sympy = pytest.importorskip("sympy")
    gamma, omega = sympy.Integer(1), sympy.Integer(1)
    alpha = omega - sympy.I * gamma / 2
    k1 = k2 = sympy.Integer(1)
    p1, p2 = sympy.Rational(3, 2), sympy.Rational(1, 2)
    expr = (
        sympy.I
        * gamma**2
        / sympy.pi
        * (k1 + k2 - 2 * alpha)
        / ((p2 - alpha) * (k1 - alpha) * (p1 - alpha) * (k2 - alpha))
    )
    assert sympy.simplify(expr + 8 / sympy.pi) == 0
    val = two_photon_t(_params(), 1.0, 1.0, 1.5, 0.5)
    assert val == pytest.approx(complex(sympy.N(expr, 20)), abs=1e-15)


def test_two_photon_t_shell_and_symmetry():
    p = _params()
    rng = np.random.default_rng(2)
    for _ in range(25):
        k1, k2, p1 = rng.uniform(-1.0, 3.0, size=3)
        p2 = k1 + k2 - p1
        a = two_photon_t(p, k1, k2, p1, p2)
        assert two_photon_t(p, k2, k1, p1, p2) == pytest.approx(a, rel=1e-14)
        assert two_photon_t(p, k1, k2, p2, p1) == pytest.approx(a, rel=1e-14)
    with pytest.raises(ValueError):
        two_photon_t(p, 1.0, 1.0, 1.5, 0.6)


@pytest.mark.parametrize(
    "k1, k2, p1, p2",
    [(1.0, 1.0, np.nan, np.nan), (np.nan, 1.0, 1.0, 1.0), (np.inf, 1.0, 1.0, 1.0),
     (1.0, 1.0, np.inf, 1.0)],
)
def test_two_photon_t_refuses_non_finite_momenta(k1, k2, p1, p2):
    # the energy-shell comparison alone is false for nan and in range for inf
    with pytest.raises(ValueError, match="finite"):
        two_photon_t(_params(), k1, k2, p1, p2)


def test_two_photon_t_weak_coupling():
    # gamma^2 prefactor with order-one denominators off resonance
    val = two_photon_t(TWGParams(1.0, 1e-6), 1.3, 0.9, 1.1, 1.1)
    assert abs(val) < 1e-9


@pytest.mark.parametrize("gamma", [1e-80, 1e-100, 1e-300])
def test_two_photon_t_at_a_vanishing_linewidth(gamma):
    # at k = p = Omega the pole product (gamma_t / 2)^4 underflows from about
    # gamma_t = 1e-77 on; with the pole factors scaled by powers of two T2
    # still reads -16 / (pi gamma_t)
    with np.errstate(all="raise"):
        val = two_photon_t(_params(gamma_t=gamma), 1.0, 1.0, 1.0, 1.0)
    exact = -16.0 / (np.pi * gamma)
    assert abs(val - exact) <= 1e-15 * abs(exact)


def _two_photon_t_unscaled(params, k1, k2, p1, p2):
    """T2 as formed before its pole factors were scaled."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    a = params.alpha
    poles = (p2 - a) * (k1 - a) * (p1 - a) * (k2 - a)
    return 1j * params.gamma_t**2 / np.pi * (k1 + k2 - 2.0 * a) / poles


def test_two_photon_t_scaling_changes_no_bit():
    # powers of two round nothing, so wherever the unscaled product neither
    # underflows nor overflows the scaled T2 is the same double.  Half the
    # linewidths are ones whose gamma * gamma differs from gamma ** 2, where
    # squaring a scaled gamma_t would move the result
    rng = np.random.default_rng(36)
    gammas = [float(g) for g in 10.0 ** rng.uniform(-6.0, 1.0, 20000)]
    hard = [g for g in gammas if g * g != g**2][:1000]
    assert len(hard) >= 10
    for gamma in hard + gammas[: len(hard)]:
        omega = rng.uniform(-3.0, 3.0)
        k1, k2 = omega + rng.uniform(-5.0, 5.0, 2) * gamma * rng.choice([1.0, 10.0, 100.0])
        p1 = 0.5 * (k1 + k2) + rng.uniform(-5.0, 5.0)
        p2 = k1 + k2 - p1
        params = _params(float(omega), float(gamma))
        args = (float(k1), float(k2), float(p1), float(p2))
        assert two_photon_t(params, *args) == _two_photon_t_unscaled(params, *args)
    params = _params(0.3, 0.7)
    p1 = np.linspace(-3.0, 3.0, 1001)
    assert np.array_equal(
        two_photon_t(params, 0.1, 0.9, p1, 1.0 - p1),
        _two_photon_t_unscaled(params, 0.1, 0.9, p1, 1.0 - p1),
    )


def test_two_photon_s_structure():
    p = _params()
    connected, *pinned = two_photon_s(p, 1.2, 0.7)
    t12 = transmission_amplitude(p, 1.2) * transmission_amplitude(p, 0.7)
    assert {d.pinned for d in pinned} == {((0, 1.2), (1, 0.7)), ((0, 0.7), (1, 1.2))}
    for d in pinned:
        assert d.density is None
        assert d.weight == pytest.approx(t12, rel=1e-15)
    assert (connected.pinned, connected.weight) == ((), 1.0)
    assert connected.density(1.0, 0.9) == pytest.approx(
        two_photon_t(p, 1.2, 0.7, 1.0, 0.9), rel=1e-15
    )


def test_out_state_even_in_relative_coordinate():
    p = _params()
    rng = np.random.default_rng(4)
    for _ in range(50):
        k1, k2 = rng.uniform(-1.0, 3.0, size=2)
        xc, x = rng.uniform(-8.0, 8.0, size=2)
        direct = two_photon_out_wavefunction(p, k1, k2, xc, x)
        mirror = two_photon_out_wavefunction(p, k1, k2, xc, -x)
        assert abs(direct - mirror) < 1e-12


def test_out_state_resonant_envelope():
    # both photons at Omega: envelope (1/2pi)(1 - 4 e^{-gamma|x|/2})
    p = _params()
    x = np.linspace(-12.0, 12.0, 241)
    expected = (1.0 - 4.0 * np.exp(-0.5 * np.abs(x))) / (2.0 * np.pi)
    assert np.max(np.abs(two_photon_out_wavefunction(p, 1.0, 1.0, 0.0, x) - expected)) < 1e-12
    assert two_photon_out_wavefunction(p, 1.0, 1.0, 0.0, 0.0) == pytest.approx(
        -3.0 / (2.0 * np.pi), abs=1e-14
    )


@pytest.mark.parametrize("gamma", [1e-150, 1e-200, 1e-300])
def test_out_state_at_a_vanishing_linewidth(gamma):
    # gamma_t^2 and (k1 - alpha)(k2 - alpha) underflow from about 1e-162 on;
    # formed from linewidth-sized ratios, the resonant envelope still reads
    # (1 - 4 e^{-gamma |x| / 2}) / 2 pi, which is -3 / 2 pi here
    p = _params(omega_atom=0.0, gamma_t=gamma)
    x = np.linspace(-5.0, 5.0, 11)
    with np.errstate(all="raise"):
        psi = two_photon_out_wavefunction(p, 0.0, 0.0, 0.0, x)
    assert np.max(np.abs(psi + 3.0 / (2.0 * np.pi))) < 1e-15


def _plane_part(p, k1, k2, x):
    t12 = transmission_amplitude(p, k1) * transmission_amplitude(p, k2)
    return t12 * np.cos(0.5 * (k1 - k2) * x) / (2.0 * np.pi)


def test_out_state_bound_decay_rate():
    # log-modulus slope of the bound term at E = 2 Omega equals -gamma_t/2;
    # the bound term is what the envelope keeps once the plane part is off
    p = TWGParams(1.0, 1.7)
    x = np.linspace(2.0, 14.0, 60)
    bound = two_photon_out_wavefunction(p, 1.3, 0.7, 0.0, x) - _plane_part(p, 1.3, 0.7, x)
    slope = np.polyfit(x, np.log(np.abs(bound)), 1)[0]
    assert slope == pytest.approx(-0.5 * p.gamma_t, abs=1e-6)


def test_out_state_far_field_is_plane_part():
    p = _params()
    x = 80.0
    far = two_photon_out_wavefunction(p, 1.4, 0.9, 0.0, x)
    assert abs(far - _plane_part(p, 1.4, 0.9, x)) < 1e-16


def test_out_state_free_limit():
    # gamma -> 0: bound term vanishes, plane part has unit t-factors
    x = np.linspace(-4, 4, 31)
    free = np.cos(0.5 * (1.5 - 0.8) * x) / (2 * np.pi)
    psi = two_photon_out_wavefunction(TWGParams(1.0, 1e-9), 1.5, 0.8, 0.0, x)
    assert np.max(np.abs(psi - free)) < 1e-6


def test_fluorescence_peak_at_resonance():
    p = _params()
    grid = np.linspace(0.2, 1.8, 321)
    vals = two_photon_fluorescence(p, 1.0, 1.0, grid)
    assert grid[np.argmax(vals)] == pytest.approx(1.0, abs=6e-3)
    # detuned incoming pair on the same shell is strictly weaker
    weaker = two_photon_fluorescence(p, 1.6, 0.4, grid)
    assert np.max(weaker) < np.max(vals)
    # symmetric under p1 <-> p2 = E - p1
    assert np.allclose(vals, vals[::-1], atol=1e-15)


def test_fluorescence_falloff_far_leg():
    # density falls off in Lorentzian fashion when one leg runs far away
    p = _params()
    grid = np.linspace(0.0, 2.0, 101)
    peak = np.max(two_photon_fluorescence(p, 1.0, 1.0, grid))
    k_far = 1.0 + 1e3 * p.gamma_t
    e = k_far + 1.0
    far_grid = np.concatenate([grid, e - grid])  # slices near both legs
    far = np.max(two_photon_fluorescence(p, k_far, 1.0, far_grid))
    assert far / peak < 1e-4
