"""Two-channel scattering amplitudes, pair wavefunctions, correlations."""

import numpy as np
import pytest

from photon_scatter.core import HWGParams, TWGParams
from photon_scatter.hwg import (
    channel_amplitudes,
    pair_wavefunction,
    second_order_correlation,
    two_photon_s_h,
    two_photon_t_h,
)
from photon_scatter.twg import transmission_amplitude, two_photon_t


def test_channel_unitarity_sweep():
    rng = np.random.default_rng(21)
    for _ in range(200):
        p = HWGParams(rng.uniform(0, 4), (rng.uniform(0.1, 3), rng.uniform(0.1, 3)))
        c = channel_amplitudes(p, rng.uniform(-5, 9))
        assert c.unitarity_defect() < 1e-12


def test_channel_amplitudes_broadcast_over_an_array_record():
    # one record of 200 parameter points and one call equal 200 scalar calls,
    # and so does the unitarity defect, the largest over every entry
    rng = np.random.default_rng(22)
    n = 200
    p = HWGParams(rng.uniform(0.0, 4.0, n), (rng.uniform(0.1, 3.0, n), rng.uniform(0.1, 3.0, n)))
    k = p.omega_atom + rng.uniform(-5.0, 5.0, n) * p.gamma_e
    c = channel_amplitudes(p, k)
    loop = [
        channel_amplitudes(
            HWGParams(float(p.omega_atom[i]), (float(p.vbar[0][i]), float(p.vbar[1][i]))),
            float(k[i]),
        )
        for i in range(n)
    ]
    for name in ("t11", "t21", "t22"):
        one = np.array([getattr(c1, name) for c1 in loop])
        assert getattr(c, name).shape == (n,)
        assert np.max(np.abs(getattr(c, name) - one) / np.abs(one)) <= 1e-15
    worst = max(c1.unitarity_defect() for c1 in loop)
    assert abs(c.unitarity_defect() - worst) <= 1e-15 * worst


def test_pair_functions_broadcast_over_an_array_record():
    # the coupling product is taken entry by entry, not over the whole
    # record: one call equals a loop of scalar calls
    rng = np.random.default_rng(23)
    n = 6
    p = HWGParams(rng.uniform(0.5, 1.5, n), (rng.uniform(0.3, 2.0, n), rng.uniform(0.3, 2.0, n)))
    points = [HWGParams(float(p.omega_atom[i]), (float(p.vbar[0][i]), float(p.vbar[1][i])))
              for i in range(n)]
    t = two_photon_t_h(p, (1, 2, 2, 1), 1.0, 1.1, 0.8, 1.3)
    loop = np.array([two_photon_t_h(q, (1, 2, 2, 1), 1.0, 1.1, 0.8, 1.3) for q in points])
    assert np.max(np.abs(t - loop) / np.abs(loop)) <= 1e-15
    x = np.linspace(-3.0, 3.0, 7)[:, None]
    g = pair_wavefunction(p, (1, 2), 1.0, 1.1, x)
    loop = np.array([pair_wavefunction(q, (1, 2), 1.0, 1.1, x[:, 0]) for q in points]).T
    assert g.shape == (7, n)
    assert np.max(np.abs(g - loop)) <= 1e-15 * np.max(np.abs(loop))


@pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf])
def test_channel_amplitudes_refuse_non_finite_momentum(k):
    p = HWGParams(1.0, (1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        channel_amplitudes(p, k)
    with pytest.raises(ValueError, match="finite"):
        channel_amplitudes(p, np.array([1.0, k]))


def _hand_written(params, k):
    """t11, t21, t22 written out over the common pole, an independent
    reference: (k - Omega + i(vbar2^2 - vbar1^2)/2) / pole, -i vbar1 vbar2 /
    pole and the mirror of the first, pole = k - Omega + i gamma_e / 2."""
    v1, v2 = params.vbar
    pole = k - params.omega_atom + 0.5j * (v1**2 + v2**2)
    t11 = (k - params.omega_atom + 0.5j * (v2**2 - v1**2)) / pole
    t21 = -1j * v1 * v2 / pole
    t22 = (k - params.omega_atom + 0.5j * (v1**2 - v2**2)) / pole
    return t11, t21, t22, pole


def test_channel_amplitudes_far_off_resonance():
    # from 1e2 to 1e9 linewidths off resonance the cross amplitude holds the
    # hand-written form to 1e-15 relative: its scattered part r_k is formed
    # directly, where t_k - 1 would keep only its leading digits.  t11 and
    # t22 round near 1 there, so their scattered part 1 - t is held where it
    # carries no rounding of 1, in its imaginary part, against i vbar^2 /
    # pole, the hand-written form's (pole - numerator) / pole
    rng = np.random.default_rng(24)
    n = 200
    p = HWGParams(rng.uniform(-2.0, 2.0, n), (rng.uniform(0.1, 3.0, n), rng.uniform(0.1, 3.0, n)))
    k = p.omega_atom + rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(2.0, 9.0, n) * p.gamma_e
    c = channel_amplitudes(p, k)
    t11, t21, t22, pole = _hand_written(p, k)
    for got, want in ((c.t11, t11), (c.t21, t21), (c.t22, t22)):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15
    for got, v in ((c.t11, p.vbar[0]), (c.t22, p.vbar[1])):
        scattered = (1j * v**2 / pole).imag
        assert np.max(np.abs((1.0 - got).imag - scattered) / np.abs(scattered)) <= 1e-15


def test_balanced_resonance_full_switch():
    p = HWGParams(1.0, (1.3, 1.3))
    c = channel_amplitudes(p, 1.0)
    assert abs(c.t11) < 1e-15
    assert abs(abs(c.t21) - 1.0) < 1e-15
    assert abs(c.t22) < 1e-15


def test_asymmetric_resonance_point():
    # vbar = (1, 2) at k = Omega: t11 = 3/5, t21 = -4/5
    c = channel_amplitudes(HWGParams(1.0, (1.0, 2.0)), 1.0)
    assert c.t11 == pytest.approx(3.0 / 5.0, abs=1e-15)
    assert c.t21 == pytest.approx(-4.0 / 5.0, abs=1e-15)
    assert abs(c.t11) ** 2 == pytest.approx(9.0 / 25.0, abs=1e-14)
    assert abs(c.t21) ** 2 == pytest.approx(16.0 / 25.0, abs=1e-14)


def test_decoupled_second_guide_reduces_to_single_channel():
    p = HWGParams(1.0, (1.2, 0.0))
    k = np.linspace(-2, 4, 50)
    c = channel_amplitudes(p, k)
    single = transmission_amplitude(TWGParams(1.0, 1.2**2), k)
    assert np.max(np.abs(c.t11 - single)) < 1e-14
    assert np.max(np.abs(c.t21)) == 0.0


def test_swap_covariance():
    k = np.linspace(-3, 5, 64)
    a = channel_amplitudes(HWGParams(0.7, (0.9, 2.1)), k)
    b = channel_amplitudes(HWGParams(0.7, (2.1, 0.9)), k)
    assert np.max(np.abs(a.t11 - b.t22)) < 1e-12
    assert np.max(np.abs(a.t22 - b.t11)) < 1e-12
    assert np.max(np.abs(a.t21 - b.t21)) < 1e-12


def test_two_photon_t_h_channel_prefactors():
    p = HWGParams(1.0, (1.0, 2.0))
    k1, k2, q1 = 1.2, 0.9, 1.05
    q2 = k1 + k2 - q1
    base = two_photon_t_h(p, (1, 2, 1, 1), k1, k2, q1, q2)
    # connected prefactor ratio between (1,1) and (2,2) outputs is (v2/v1)^2,
    # here 4, a power of two, so the weights w2^2 = 4 w1^2 keep it exact
    other = two_photon_t_h(p, (1, 2, 2, 2), k1, k2, q1, q2)
    assert other == base * 4.0
    # exchange symmetry in the incoming pair
    assert two_photon_t_h(p, (2, 1, 1, 1), k2, k1, q1, q2) == pytest.approx(
        base, rel=1e-14
    )
    with pytest.raises(ValueError):
        two_photon_t_h(p, (1, 2, 1, 1), k1, k2, q1, q2 + 0.1)
    with pytest.raises(ValueError):
        two_photon_t_h(p, (1, 2, 3, 1), k1, k2, q1, q2)


def test_two_photon_t_h_single_channel_limit():
    # second guide decoupled: all-1 channels reduce to the single-channel T,
    # exactly, since the weight w1^4 = (vbar1^2 / gamma_e)^2 is then 1
    p = HWGParams(1.0, (1.1, 0.0))
    w = TWGParams(1.0, 1.1**2)
    k1, k2, q1 = 1.3, 0.8, 1.0
    q2 = k1 + k2 - q1
    assert two_photon_t_h(p, (1, 1, 1, 1), k1, k2, q1, q2) == two_photon_t(w, k1, k2, q1, q2)


def test_s_elements_structure():
    p = HWGParams(1.0, (1.0, 2.0))
    k1, k2 = 1.4, 0.7
    c1 = channel_amplitudes(p, k1)
    c2 = channel_amplitudes(p, k2)
    s = two_photon_s_h(p, k1, k2)
    assert set(s) == {(1, 1), (1, 2), (2, 2)}
    # each pinning's weight is the product of the single-photon amplitudes
    # of its two legs, formed by the same rule, so the products are exact
    d11 = s[(1, 1)][1:]
    assert all(t.weight == c1.t11 * c2.t21 for t in d11)
    assert {t.pinned for t in d11} == {((0, k1), (1, k2)), ((0, k2), (1, k1))}
    d12 = s[(1, 2)][1:]
    assert d12[0].pinned == ((0, k1), (1, k2))
    assert d12[0].weight == c1.t11 * c2.t22
    assert d12[1].pinned == ((0, k2), (1, k1))
    assert d12[1].weight == c1.t21 * c2.t21
    d22 = s[(2, 2)][1:]
    assert all(t.weight == c1.t21 * c2.t22 for t in d22)
    q1 = 1.0
    q2 = k1 + k2 - q1
    connected = s[(1, 2)][0]
    assert connected.pinned == ()
    assert connected.weight * connected.density(q1, q2) == two_photon_t_h(
        p, (1, 2, 1, 2), k1, k2, q1, q2
    )


def test_pair_wavefunction_parity():
    p = HWGParams(1.0, (1.0, 2.0))
    x = np.linspace(0.1, 9.0, 40)

    def odd_part(pair):
        return pair_wavefunction(p, pair, 1.3, 0.9, x) - pair_wavefunction(p, pair, 1.3, 0.9, -x)

    assert np.max(np.abs(odd_part((1, 1)))) < 1e-12
    assert np.max(np.abs(odd_part((2, 2)))) < 1e-12
    # mixed channel keeps direct/exchange distinction: parity is broken
    assert np.max(np.abs(odd_part((1, 2)))) > 1e-6


def test_pair_wavefunction_resonant_closed_forms():
    # vbar=(2,2), E=2, dk=0, Omega=1: g11 = -exp(-4|x|)/2pi,
    # g12 = (1 - 2 exp(-4|x|))/2pi
    p = HWGParams(1.0, (2.0, 2.0))
    x = np.linspace(-3, 3, 101)
    g11, g12, g22 = (pair_wavefunction(p, pair, 1.0, 1.0, x) for pair in ((1, 1), (1, 2), (2, 2)))
    assert np.max(np.abs(g11 + np.exp(-4 * np.abs(x)) / (2 * np.pi))) < 1e-14
    expected12 = (1.0 - 2.0 * np.exp(-4 * np.abs(x))) / (2 * np.pi)
    assert np.max(np.abs(g12 - expected12)) < 1e-14
    # balanced couplings: |g11| = |g22| on resonance
    assert np.max(np.abs(np.abs(g11) - np.abs(g22))) < 1e-14


def test_pair_wavefunction_at_vanishing_couplings():
    # the resonant closed forms of balanced couplings v, g11 = -e^{-v^2 |x|}
    # / 2 pi and g12 = (1 - 2 e^{-v^2 |x|}) / 2 pi, at v = 1e-100, where the
    # product of the four couplings and the two pole factors underflow
    p = HWGParams(1.0, (1e-100, 1e-100))
    x = np.linspace(-3, 3, 7)
    with np.errstate(all="raise"):
        g11, g12 = (pair_wavefunction(p, pair, 1.0, 1.0, x) for pair in ((1, 1), (1, 2)))
    assert np.max(np.abs(g11 + 1.0 / (2 * np.pi))) < 1e-15
    assert np.max(np.abs(g12 + 1.0 / (2 * np.pi))) < 1e-15


def test_bound_decay_rate():
    # on two-photon resonance every bound term decays at gamma_e/2; the bound
    # term is what a channel keeps once its two plane waves are taken off
    p = HWGParams(1.0, (0.8, 1.7))
    k1, k2 = 1.4, 0.6  # E = 2 Omega
    c1 = channel_amplitudes(p, k1)
    c2 = channel_amplitudes(p, k2)
    x = np.linspace(1.0, 6.0 / p.gamma_e + 1.0, 80)
    dk = 0.5 * (k1 - k2)
    planes = {
        (1, 1): c1.t11 * c2.t21 * np.cos(dk * x),
        (2, 2): c1.t21 * c2.t22 * np.cos(dk * x),
        (1, 2): c1.t11 * c2.t22 * np.exp(1j * dk * x) + c1.t21 * c2.t21 * np.exp(-1j * dk * x),
    }
    for pair, plane in planes.items():
        bound = pair_wavefunction(p, pair, k1, k2, x) - plane / (2.0 * np.pi)
        slope = np.polyfit(x, np.log(np.abs(bound)), 1)[0]
        assert slope == pytest.approx(-0.5 * p.gamma_e, abs=1e-6)


def test_correlation_identity_and_bunching():
    p = HWGParams(1.0, (2.0, 2.0))
    x = np.linspace(-4, 4, 81)
    g11 = pair_wavefunction(p, (1, 1), 1.0, 1.0, x)
    assert np.array_equal(second_order_correlation(p, (1, 1), 1.0, 1.0, x), np.abs(g11) ** 2)
    # bunching: center value exceeds the plateau
    center = second_order_correlation(p, (1, 1), 1.0, 1.0, 0.0)
    plateau = second_order_correlation(p, (1, 1), 1.0, 1.0, 60.0)
    assert center > plateau
    g2_12 = second_order_correlation(p, (1, 2), 1.0, 1.0, x)
    assert np.all(g2_12 >= 0.0)


def test_flattening_at_large_coupling_ratio():
    # strongly lopsided couplings wash out the bunching structure
    p = HWGParams(1.0, (1.0, 50.0))
    x = np.linspace(0.0, 10.0 / p.gamma_e, 200)
    vals = second_order_correlation(p, (1, 2), 1.0, 1.0, x)
    assert np.max(vals) / np.min(vals) < 1.1


def test_oscillation_at_nonzero_relative_momentum():
    p = HWGParams(1.0, (1.0, 1.0))
    x = np.linspace(0.0, 20.0, 400)
    vals = np.abs(pair_wavefunction(p, (1, 1), 1.5, 0.5, x)) ** 2  # E = 2 Omega, dk = 0.5
    inner = vals[1:-1]
    # interior local maximum exists
    assert np.any((inner > vals[:-2]) & (inner > vals[2:]))


def test_velocity_restriction():
    # both waveguides have unit group velocity; the record takes no other
    with pytest.raises(TypeError):
        HWGParams(1.0, (1.0, 1.0), (1.0, 2.0))
    with pytest.raises(TypeError):
        HWGParams(1.0, (1.0, 1.0), group_velocity=(1.0, 1.0))
