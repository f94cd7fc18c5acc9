"""Bethe-ansatz oracle: phases, permutation amplitudes, eigenstate regions."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from photon_scatter.bethe import (
    amplitude,
    eigenstate_value,
    single_phase,
    two_body_phase,
)
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


def test_two_body_phase_unimodular_and_reciprocal():
    rng = np.random.default_rng(7)
    for _ in range(100):
        ki, kj = rng.uniform(-5.0, 5.0, size=2)
        gamma = rng.uniform(0.1, 4.0)
        ph = two_body_phase(gamma, ki, kj)
        assert abs(abs(ph) - 1.0) < 1e-14
        assert ph * two_body_phase(gamma, kj, ki) == pytest.approx(1.0, abs=1e-14)
    assert two_body_phase(1.0, 0.4, 0.4) == -1.0


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


def test_amplitude_identity_and_swap():
    momenta = (0.9, 1.4)
    assert amplitude(1.0, momenta, (0, 1)) == 1.0
    assert amplitude(1.0, momenta, (1, 0)) == pytest.approx(
        two_body_phase(1.0, 0.9, 1.4), abs=1e-15
    )


def test_amplitude_is_product_over_inversions():
    gamma, k = 1.2, (0.2, 1.0, 1.9)

    def phi(a, b):
        return two_body_phase(gamma, k[a], k[b])

    expected = {
        (0, 1, 2): 1.0,
        (0, 2, 1): phi(1, 2),
        (1, 0, 2): phi(0, 1),
        (1, 2, 0): phi(0, 1) * phi(0, 2),
        (2, 0, 1): phi(0, 2) * phi(1, 2),
        (2, 1, 0): phi(0, 1) * phi(0, 2) * phi(1, 2),
    }
    assert sorted(expected) == list(itertools.permutations(range(3)))
    for perm, value in expected.items():
        assert amplitude(gamma, k, perm) == pytest.approx(value, abs=1e-15)


def test_amplitude_unimodular():
    momenta = (0.3, 0.8, 1.1, 2.4)
    for perm in itertools.permutations(range(4)):
        assert abs(abs(amplitude(0.7, momenta, perm)) - 1.0) < 1e-14


def test_eigenstate_incoming_region_is_plane_wave_superposition():
    params = _params(gamma=1.1)
    momenta = (0.4, 1.3, 2.1)
    x = (-9.3, -4.1, -0.7)
    direct = sum(
        amplitude(params.gamma_t, momenta, perm)
        * np.exp(1j * sum(momenta[p] * xi for p, xi in zip(perm, x)))
        for perm in itertools.permutations(range(3))
    )
    assert eigenstate_value(params, momenta, x) == pytest.approx(direct, abs=1e-12)


def test_eigenstate_single_photon_transmitted():
    params = _params(omega=0.6, gamma=0.8)
    x = 3.9
    expected = single_phase(params, 1.7) * np.exp(1j * 1.7 * x)
    assert eigenstate_value(params, (1.7,), (x,)) == pytest.approx(expected, abs=1e-14)


def test_eigenstate_domain_validation():
    params = _params()
    momenta = (0.5, 1.5)
    with pytest.raises(ValueError):
        eigenstate_value(params, momenta, (0.0, 1.0))
    with pytest.raises(ValueError):
        eigenstate_value(params, momenta, (2.0, 1.0))
    with pytest.raises(ValueError):
        eigenstate_value(params, momenta, (1.0,))


def test_bethe_state_validation():
    params = _params()
    with pytest.raises(ValueError):
        eigenstate_value(params, (), ())
    with pytest.raises(ValueError):
        eigenstate_value(params, tuple(range(9)), tuple(range(1, 10)))
    with pytest.raises(ValueError):
        eigenstate_value(params, (0.5, np.inf), (-1.0, 1.0))
    with pytest.raises(ValueError):
        _params(gamma=0.0)


def _region_coefficients(momenta, params, x1, x2, shift):
    # two evaluation points with x1 varied resolve the two plane-wave
    # components; keep (k1-k2)*shift away from 2*pi*n for conditioning
    k1, k2 = momenta
    rows = []
    rhs = []
    for xa in (x1, x1 - shift):
        rows.append(
            [np.exp(1j * (k1 * xa + k2 * x2)), np.exp(1j * (k2 * xa + k1 * x2))]
        )
        rhs.append(eigenstate_value(params, momenta, (xa, x2)))
    return np.linalg.solve(np.array(rows), np.array(rhs))


def test_two_photon_regions_match_disconnected_s_matrix():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        gamma = rng.uniform(0.4, 2.0)
        omega = rng.uniform(0.5, 1.5)
        k1 = rng.uniform(0.2, 2.6)
        k2 = k1 + rng.uniform(0.15, 1.8)
        params = TWGParams(omega_atom=omega, gamma_t=gamma)
        momenta = (k1, k2)
        shift = float(np.clip(1.2 / (k2 - k1), 0.4, 30.0))

        b = rng.uniform(0.5, 3.0)
        c_in = _region_coefficients(momenta, params, -b - rng.uniform(0.5, 3.0), -b, shift)
        c_mid = _region_coefficients(
            momenta, params, -b - rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), shift
        )
        # x1 - shift must stay positive here, so cap the shift
        x2_out = 4.0 + rng.uniform(0.5, 3.0)
        c_out = _region_coefficients(
            momenta, params, rng.uniform(0.5, 3.0), x2_out, 0.4
        )

        t1 = single_phase(params, k1)
        t2 = single_phase(params, k2)
        # crossing photon picks up its own transmission phase
        assert c_mid[0] / c_in[0] == pytest.approx(t2, abs=1e-8)
        assert c_mid[1] / c_in[1] == pytest.approx(t1, abs=1e-8)
        # fully transmitted region carries the disconnected S-matrix weight
        weights = [term.weight for term in two_photon_s(params, k1, k2).disconnected]
        assert weights[0] == pytest.approx(weights[1], abs=1e-15)
        assert c_out[0] / c_in[0] == pytest.approx(weights[0], abs=1e-8)
        assert c_out[1] / c_in[1] == pytest.approx(weights[1], abs=1e-8)
