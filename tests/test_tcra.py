"""Chain-model single-photon scattering and bound states."""

import math

import mpmath
import numpy as np
import pytest

from photon_scatter.core import TCRAParams
from photon_scatter.tcra import (
    bound_state_energies,
    bound_state_wavefunction,
    reflection_amplitude,
    self_energy,
)


def _params(omega_atom=np.pi, omega_cavity=np.pi, hopping=1.0, coupling=1.0):
    return TCRAParams(omega_atom, omega_cavity, hopping, coupling)


def test_reflection_resonance_total():
    # atom on resonance with the band center: pure reflection
    r = reflection_amplitude(_params(), np.pi / 2)
    assert r == pytest.approx(-1.0)


def test_reflection_known_point():
    # omega0=pi, J=1, Omega=pi, V=1, k=pi/3: r = -i/(-sqrt(3) + i)
    r = reflection_amplitude(_params(), np.pi / 3)
    expected = -1j / (2 * np.sin(np.pi / 3) * (np.pi - 2 * np.cos(np.pi / 3) - np.pi) + 1j)
    assert r == pytest.approx(expected, abs=1e-15)
    assert abs(r) ** 2 == pytest.approx(0.25, abs=1e-14)


def test_reflection_decoupled():
    r = reflection_amplitude(_params(coupling=0.0), 1.1)
    assert r == 0.0


def test_reflection_unitarity_sweep():
    rng = np.random.default_rng(3)
    for _ in range(200):
        j = rng.uniform(0.5, 2.0)
        w0 = rng.uniform(2.0, 8.0)
        p = TCRAParams(w0 + rng.uniform(-2.5, 2.5) * j, w0, j, rng.uniform(0.1, 2.0))
        k = rng.uniform(0.02, np.pi - 0.02) * rng.choice([-1.0, 1.0])
        r = reflection_amplitude(p, k)
        assert abs(abs(1 + r) ** 2 + abs(r) ** 2 - 1.0) < 1e-12


def test_reflection_broadcasts_over_an_array_record():
    # one record of 200 parameter points and one call equal 200 scalar calls
    rng = np.random.default_rng(4)
    n = 200
    j = rng.uniform(0.5, 2.0, n)
    w0 = rng.uniform(-2.0, 2.0, n)
    p = TCRAParams(w0 + rng.uniform(-2.5, 2.5, n) * j, w0, j, rng.uniform(0.1, 2.0, n))
    k = rng.uniform(0.02, np.pi - 0.02, n) * rng.choice([-1.0, 1.0], n)
    r = reflection_amplitude(p, k)
    assert r.shape == (n,)
    loop = [
        reflection_amplitude(
            TCRAParams(float(p.omega_atom[i]), float(w0[i]), float(j[i]), float(p.coupling[i])),
            float(k[i]),
        )
        for i in range(n)
    ]
    assert np.max(np.abs(r - loop) / np.abs(loop)) <= 1e-15
    # a scalar field broadcasts against the array ones
    r_common = reflection_amplitude(TCRAParams(p.omega_atom, 0.0, 1.0, 0.7), k)
    one = reflection_amplitude(TCRAParams(p.omega_atom[3], 0.0, 1.0, 0.7), k[3])
    assert abs(r_common[3] - one) <= 1e-15 * abs(one)


def test_reflection_band_edge_refused():
    with pytest.raises(ValueError):
        reflection_amplitude(_params(), 0.0)
    with pytest.raises(ValueError):
        reflection_amplitude(_params(), np.pi)


@pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf])
def test_reflection_refuses_non_finite_momentum(k):
    # a zone check written k <= -pi or k > pi is false for nan
    with pytest.raises(ValueError, match="Brillouin zone"):
        reflection_amplitude(_params(), k)
    with pytest.raises(ValueError, match="Brillouin zone"):
        reflection_amplitude(_params(), np.array([1.0, k]))


def test_self_energy_inside_band():
    # the imaginary part is gamma / 2 times the density 2 / sqrt(4J^2 - d^2)
    se = self_energy(_params(), np.pi)
    assert isinstance(se, complex)
    assert se.real == 0.0
    assert 2.0 * se.imag / _params().gamma == pytest.approx(1.0)
    assert se.imag == pytest.approx(0.5)


def test_self_energy_outside_band():
    # omega = omega0 + 3J: Sigma = -1/(J sqrt(5))
    se = self_energy(_params(), np.pi + 3.0)
    assert se.imag == 0.0 and 2.0 * se.imag / _params().gamma == 0.0
    assert se.real == pytest.approx(-1.0 / np.sqrt(5.0), rel=1e-14)
    below = self_energy(_params(), np.pi - 3.0)
    assert below.real == pytest.approx(1.0 / np.sqrt(5.0), rel=1e-14)


def test_self_energy_asymptotics_and_edge():
    assert abs(self_energy(_params(), 1e6).real) < 1e-5
    with pytest.raises(ValueError):
        self_energy(_params(), np.pi + 2.0)


def test_self_energy_refuses_nan():
    # the band-edge distance is nan there, which a < comparison lets through
    with pytest.raises(ValueError):
        self_energy(_params(), np.nan)


def test_bound_state_closed_form():
    # Omega=omega0, J=1, gamma=1: (E-omega0)^2 = 2 + sqrt(5)
    lower, upper = bound_state_energies(_params())
    x = np.sqrt(2.0 + np.sqrt(5.0))
    assert upper.energy == pytest.approx(np.pi + x, abs=1e-12)
    assert lower.energy == pytest.approx(np.pi - x, abs=1e-12)
    assert lower.residual < 1e-12 and upper.residual < 1e-12
    # symmetric detuning: mirror images about omega0
    assert upper.energy + lower.energy == pytest.approx(2 * np.pi, abs=1e-12)


def test_bound_state_kappa():
    lower, upper = bound_state_energies(_params())
    assert lower.kappa == pytest.approx(0.786151, abs=1e-6)
    assert lower.decay_log == pytest.approx(-0.240606, abs=1e-6)
    # symmetric case: both branches decay equally fast
    assert upper.decay_log == pytest.approx(lower.decay_log, abs=1e-12)
    assert upper.sign_alternating and not lower.sign_alternating


def test_bound_state_detuned_and_small_gamma():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = TCRAParams(
            rng.uniform(2.0, 4.5),
            np.pi,
            rng.uniform(0.5, 1.5),
            rng.uniform(0.05, 1.5),
        )
        lower, upper = bound_state_energies(p)
        assert lower.energy < p.omega_cavity - 2 * p.hopping
        assert upper.energy > p.omega_cavity + 2 * p.hopping
        assert 0.0 < lower.kappa < 1.0 and 0.0 < upper.kappa < 1.0
    # weak coupling pushes both roots toward the band edges
    weak_lo, weak_up = bound_state_energies(_params(coupling=0.05))
    assert weak_up.energy - (np.pi + 2.0) < 1e-4
    assert (np.pi - 2.0) - weak_lo.energy < 1e-4


def test_wavefunction_profile():
    lower, upper = bound_state_energies(_params())
    x = np.arange(-6, 7)
    psi_lo = bound_state_wavefunction(lower, x)
    psi_up = bound_state_wavefunction(upper, x)
    assert psi_lo[6] == pytest.approx(lower.amplitude)
    # geometric decay site by site
    ratios = psi_lo[7:] / psi_lo[6:-1]
    assert np.allclose(ratios, lower.kappa, atol=1e-12)
    # upper branch alternates sign, lower does not
    assert np.all(psi_lo > 0)
    assert np.all(psi_up[6::2] > 0) and np.all(psi_up[7::2] < 0)
    assert np.allclose(np.abs(psi_up), np.abs(psi_up[::-1]), atol=1e-15)
    with pytest.raises(ValueError):
        bound_state_wavefunction(lower, 0.5)


def test_wavefunction_vanishes_at_very_distant_sites():
    # |x| >= 2^63 does not fit an int64 site index; the envelope still decays
    x = np.array([-1e19, -(2.0**63), 2.0**63, 1e19, 1e300])
    for state in bound_state_energies(_params()):
        assert np.all(bound_state_wavefunction(state, x) == 0.0)
        assert bound_state_wavefunction(state, -1e19) == 0.0


def _reference_roots(omega_atom, omega_cavity, hopping, coupling):
    """(energy, decay_log, amplitude) of each branch from an mpmath bisection
    of f(q) = q (d + J q^2 / (sqrt(q^2 + 4) + 2)) - gamma / J at 70 digits."""
    with mpmath.workdps(70):
        w, w0, j, v = (mpmath.mpf(x) for x in (omega_atom, omega_cavity, hopping, coupling))
        out = []
        for sign in (-1, 1):
            edge = w0 + sign * 2 * j
            d = sign * (edge - w)

            def f(q):
                return q * (d + j * q**2 / (mpmath.sqrt(q**2 + 4) + 2)) - v**2 / j

            lo = hi = 2 * (abs(d) + 2 * j) / j + mpmath.sqrt(2 * v**2) / j
            while f(lo) >= 0:
                hi, lo = lo, lo / 2
            for _ in range(240):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
            q = (lo + hi) / 2
            energy = edge + sign * j * q**2 / (mpmath.sqrt(q**2 + 4) + 2)
            out.append((energy, -mpmath.asinh(q / 2), v / (j * q)))
        return out


@pytest.mark.parametrize(
    "omega_atom, omega_cavity, hopping, coupling",
    [
        *((0.0, 0.0, 1.0, v) for v in (1e-6, 2e-4, 1e-3, 1.0, 10.0, 100.0)),
        (5.0, 0.0, 1.0, 0.01),
        (-5.0, 0.0, 1.0, 0.01),
        (2.0, 0.0, 1.0, 1e-4),  # atom on the band top
        (40.0, 0.0, 1.0, 0.5),
        (0.3, 0.0, 1.0, 0.7),
        (-0.4, 0.0, 1.0, 2.0),
        (2.5, 1.0, 0.5, 1.5),
    ],
)
def test_bound_states_match_high_precision_roots(omega_atom, omega_cavity, hopping, coupling):
    # a bound state on each side for every V > 0, weak couplings and atoms
    # on or far from the band included
    p = TCRAParams(omega_atom, omega_cavity, hopping, coupling)
    states = bound_state_energies(p)
    reference = _reference_roots(omega_atom, omega_cavity, hopping, coupling)
    for state, (energy, decay_log, amplitude) in zip(states, reference):
        assert abs(state.energy - float(energy)) <= 4 * math.ulp(float(energy))
        assert state.decay_log == pytest.approx(float(decay_log), rel=1e-14, abs=0)
        assert state.kappa == pytest.approx(float(mpmath.exp(decay_log)), rel=1e-14, abs=0)
        assert state.amplitude == pytest.approx(float(amplitude), rel=1e-14, abs=0)
        assert state.residual <= 1e-14
    lower, upper = states
    assert lower.energy <= p.band_bottom and upper.energy >= p.band_top


def test_bound_states_refuse_unrepresentable_couplings():
    # no bound state at V = 0; at V = 1e-160 the decay q ~ V^2 / 2J is subnormal
    for coupling in (0.0, 1e-160):
        with pytest.raises(ValueError):
            bound_state_energies(_params(coupling=coupling))


@pytest.mark.parametrize("hopping", [1e-150, 1e-155, 1e-160])
def test_bound_states_at_hopping_far_below_the_coupling(hopping):
    # q ~ V / J: at J = 1e-160, V = 1, q^2 and r / J overflow, yet q = 1e160
    # and E = -+sqrt(V^2 + 4 J^2) = -+1 are finite floats
    p = TCRAParams(0.0, 0.0, hopping, 1.0)
    states = bound_state_energies(p)
    reference = _reference_roots(0.0, 0.0, hopping, 1.0)
    for state, (energy, decay_log, amplitude) in zip(states, reference):
        assert state.energy == float(energy)
        assert state.decay_log == pytest.approx(float(decay_log), rel=1e-14, abs=0)
        assert state.amplitude == pytest.approx(float(amplitude), rel=1e-14, abs=0)
        assert state.residual <= 1e-14
    assert [s.energy for s in states] == [-1.0, 1.0]


@pytest.mark.parametrize("hopping, coupling", [(1e-320, 1.0), (1e-300, 1e10), (1e-10, 1e150)])
def test_bound_states_refuse_a_decay_past_the_float_range(hopping, coupling):
    # q ~ V / J above 1.8e308, or gamma / J overflowing: no float q to report
    with pytest.raises(ValueError, match="finite float"):
        bound_state_energies(TCRAParams(0.0, 0.0, hopping, coupling))
