"""Bethe-ansatz oracle: single-photon and two-body phases."""

from __future__ import annotations

import numpy as np
import pytest

from photon_scatter.bethe import single_phase, two_body_phase
from photon_scatter.core import TWGParams
from photon_scatter.twg import transmission_amplitude, two_photon_s, two_photon_t


def _params(omega=1.0, gamma=1.0):
    return TWGParams(omega_atom=omega, gamma_t=gamma)


def test_single_phase_matches_transmission_amplitude():
    params = _params(omega=0.7, gamma=1.3)
    rng = np.random.default_rng(11)
    for k in rng.uniform(-8.0, 8.0, size=200):
        assert single_phase(params, k) == pytest.approx(
            complex(transmission_amplitude(params, k)), abs=1e-15
        )


def test_single_phase_limits():
    params = _params()
    assert single_phase(params, params.omega_atom) == -1.0
    assert single_phase(params, 1e12) == pytest.approx(1.0, abs=1e-11)
    assert single_phase(params, -1e12) == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf])
def test_single_phase_refuses_non_finite_momentum(k):
    with pytest.raises(ValueError, match="finite"):
        single_phase(_params(), k)


def test_two_photon_disconnected_terms_are_the_crossed_bethe_coefficient():
    # past the emitter each ordering of the two-photon Bethe state carries
    # e^{i delta_k1} e^{i delta_k2}: both disconnected S-matrix terms
    rng = np.random.default_rng(2024)
    for _ in range(10):
        gamma = rng.uniform(0.4, 2.0)
        omega = rng.uniform(0.5, 1.5)
        k1 = rng.uniform(0.2, 2.6)
        k2 = k1 + rng.uniform(0.15, 1.8)
        params = TWGParams(omega_atom=omega, gamma_t=gamma)
        crossed = single_phase(params, k1) * single_phase(params, k2)
        _, direct, exchange = two_photon_s(params, k1, k2)
        assert direct.pinned == ((0, k1), (1, k2)) and exchange.pinned == ((0, k2), (1, k1))
        assert direct.weight == pytest.approx(crossed, abs=1e-15)
        assert exchange.weight == pytest.approx(crossed, abs=1e-15)


def test_two_body_phase_unimodular_and_reciprocal():
    rng = np.random.default_rng(7)
    for _ in range(100):
        ki, kj = rng.uniform(-5.0, 5.0, size=2)
        gamma = rng.uniform(0.1, 4.0)
        ph = two_body_phase(gamma, ki, kj)
        assert abs(abs(ph) - 1.0) < 1e-14
        assert ph * two_body_phase(gamma, kj, ki) == pytest.approx(1.0, abs=1e-14)
    assert two_body_phase(1.0, 0.4, 0.4) == -1.0


@pytest.mark.parametrize("gamma", [np.nan, np.inf])
def test_two_body_phase_refuses_non_finite_gamma(gamma):
    # a gamma <= 0 check alone is false for nan, and the phase would be nan
    with pytest.raises(ValueError):
        two_body_phase(gamma, 1.0, 2.0)


def test_two_body_pole_is_twice_the_pair_pole():
    # pair amplitude at E = 2*Omega: reciprocal is quadratic in the relative
    # momentum, with the physical pole in the lower half plane
    params = _params(omega=1.0, gamma=0.8)
    om, g = params.omega_atom, params.gamma_t
    dk = np.array([0.3, 0.9, 1.7])
    dinv = 1.0 / np.array(
        [two_photon_t(params, om, om, om + d, om - d) for d in dk]
    )
    roots = np.roots(np.polyfit(dk, dinv, 2))
    pair_pole = roots[np.argmin(roots.imag)]
    assert pair_pole == pytest.approx(-0.5j * g, abs=1e-12)

    # 1/(1 - e^{iPhi}) is linear in ki - kj, so one fit pins the phase pole
    lin = np.polyfit(dk, 1.0 / (1.0 - np.array([two_body_phase(g, d, 0.0) for d in dk])), 1)
    phase_pole = np.roots(lin)[0]
    assert phase_pole == pytest.approx(-1j * g, abs=1e-12)
    assert phase_pole == pytest.approx(2.0 * pair_pole, abs=1e-12)
