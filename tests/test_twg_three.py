"""Three-photon connected T, S tiers, and the spatial out-state."""

import itertools

import numpy as np
import pytest
from scipy.integrate import quad

from photon_scatter.core import TWGParams
from photon_scatter.twg import (
    _line_integral,
    three_photon_fluorescence,
    three_photon_out_wavefunction,
    three_photon_s,
    three_photon_t,
    three_photon_t_reference,
    transmission_amplitude,
    two_photon_t,
)

P = TWGParams(1.0, 1.0)


def _random_on_shell(rng, spread=3.0, min_gap=1e-2):
    """Generic on-shell (k, p) with all outgoing legs away from incoming ones."""
    while True:
        k = rng.uniform(1.0 - spread, 1.0 + spread, size=3)
        p12 = rng.uniform(1.0 - spread, 1.0 + spread, size=2)
        p = np.array([p12[0], p12[1], k.sum() - p12.sum()])
        if np.min(np.abs(p[:, None] - k[None, :])) > min_gap:
            return k, p


def test_reference_vs_optimized_agreement():
    rng = np.random.default_rng(12)
    for _ in range(100):
        k, p = _random_on_shell(rng)
        lit = three_photon_t_reference(P, k, p)
        opt = three_photon_t(P, k, p)
        assert abs(lit - opt) <= 1e-10 * max(1.0, abs(lit))


def test_full_relabeling_symmetry():
    rng = np.random.default_rng(13)
    for _ in range(5):
        k, p = _random_on_shell(rng)
        base = three_photon_t(P, k, p)
        for pk in itertools.permutations(k):
            for pp in itertools.permutations(p):
                val = three_photon_t(P, pk, pp)
                assert abs(val - base) <= 1e-12 * max(1.0, abs(base))


def test_pole_line_cancellation():
    # an outgoing leg exactly on an incoming one: the permutation sum stays
    # finite; the regularized value matches the off-line limit
    k = (1.0, 1.0, 1.0)
    q = 0.3
    on_line = three_photon_t(P, k, (1.0 + q, 1.0, 1.0 - q))
    eps = 1e-7
    near = three_photon_t_reference(P, k, (1.0 + q - eps / 2, 1.0 + eps, 1.0 - q - eps / 2))
    assert abs(on_line - near) <= 1e-5 * abs(near)
    assert np.isfinite(on_line.real) and np.isfinite(on_line.imag)


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(14)
    k = np.array([1.4, 0.9, 0.7])
    q1 = rng.uniform(-0.8, 0.8, size=20) + 2.0
    q2 = rng.uniform(-0.8, 0.8, size=20) - 0.5
    q0 = k.sum() - q1 - q2
    vec = three_photon_t(P, k, (q0, q1, q2))
    for i in range(20):
        one = three_photon_t(P, k, (q0[i], q1[i], q2[i]))
        assert vec[i] == pytest.approx(one, rel=1e-14)


def test_on_shell_enforced():
    with pytest.raises(ValueError):
        three_photon_t(P, (1.0, 1.0, 1.0), (1.2, 1.0, 0.9))


def test_weak_coupling_cubic():
    k, p = _random_on_shell(np.random.default_rng(3))
    small = TWGParams(1.0, 1e-3)
    # gamma^3 prefactor dominates; denominators stay order one off resonance
    assert abs(three_photon_t(small, k, p)) < 1e-6


def test_s_matrix_tiers():
    k = (1.3, 0.9, 0.8)
    s = three_photon_s(P, k)
    assert len(s.disconnected) == 6
    assert len(s.pinned_pairs) == 9
    tprod = np.prod([transmission_amplitude(P, v) for v in k])
    for d in s.disconnected:
        assert sorted(d.pinned) == sorted(k)
        assert d.weight == pytest.approx(tprod, rel=1e-14)
    # each pinned term: transmitted leg amplitude and the pair density of
    # the complementary incoming pair
    term = next(t for t in s.pinned_pairs if t.value == 0.9 and t.slot == 2)
    assert term.amplitude == pytest.approx(transmission_amplitude(P, 0.9), rel=1e-14)
    assert term.pair_energy == pytest.approx(1.3 + 0.8)
    pa = 1.05
    assert term.density(pa, term.pair_energy - pa) == pytest.approx(
        two_photon_t(P, 1.3, 0.8, pa, term.pair_energy - pa), rel=1e-14
    )
    # connected tier is the optimized density
    p_out = (1.05, 1.15, 0.8)
    assert s.connected_density(*p_out) == pytest.approx(
        three_photon_t(P, k, p_out), rel=1e-14
    )


def test_fluorescence_resonant_enhancement():
    # resonant incoming triple vs the off-resonance triple on the same
    # outgoing slice (p2 = Omega fixed, total energy 3)
    slice_p1 = np.linspace(0.3, 1.7, 141)
    res = three_photon_fluorescence(P, (1.0, 1.0, 1.0), slice_p1, 1.0)
    off = three_photon_fluorescence(P, (0.5, 0.3, 2.2), slice_p1, 1.0)
    assert np.max(res) > np.max(off)


def test_line_integral_matches_quadrature():
    # residue formula against direct oscillatory quadrature, with the pole
    # w off the axis on either side so the integrand is regular
    def direct(y, w, b):
        def f(q):
            return 1.0 / ((q - w) * (q - b))

        def even(q):
            return f(q) + f(-q)

        def odd(q):
            return f(q) - f(-q)

        # int e^{iqy} f over the line = int_0^inf [even cos(qy) + i odd sin(qy)]
        cos_part = sum(
            unit * quad(lambda q: part(even(q)), 0.0, np.inf, weight="cos", wvar=y)[0]
            for unit, part in ((1.0, np.real), (1j, np.imag))
        )
        if y == 0.0:
            return cos_part
        sin_part = sum(
            unit * quad(lambda q: part(odd(q)), 0.0, np.inf, weight="sin", wvar=y)[0]
            for unit, part in ((1j, np.real), (-1.0, np.imag))
        )
        return cos_part + sin_part

    for b in (complex(P.alpha), 2.0 - complex(P.alpha)):
        for w in (0.7 + 0.4j, 1.6 - 0.3j):
            for y in (2.3, -1.1, 0.0):
                exact = complex(_line_integral(np.float64(y), w, w.imag > 0.0, b))
                assert abs(exact - direct(y, w, b)) <= 1e-7 * max(1.0, abs(exact))


def test_out_state_origin_reference():
    # 0.1007864: Richardson extrapolation in the momentum window W (80, 160,
    # 320 gamma_t) of the adaptive 2-D shell quadrature this closed form
    # replaced, recorded with its provenance in perfbench/psi3_reference.json
    psi = three_photon_out_wavefunction(P, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    assert abs(psi) ** 2 == pytest.approx(0.1007864, rel=1e-4)


def test_out_state_far_field_is_plane_part():
    # with every pair separated by >= 40/gamma the bound and connected tiers
    # have decayed, leaving the symmetrized transmitted plane waves
    k = (1.3, 0.9, 0.6)
    t = np.prod([transmission_amplitude(P, v) for v in k])
    for x in ((-40.0, 0.0, 40.0), (55.0, -30.0, 12.0), (0.0, 90.0, 45.0)):
        plane = sum(
            np.exp(1j * (k[q[0]] * x[0] + k[q[1]] * x[1] + k[q[2]] * x[2]))
            for q in itertools.permutations(range(3))
        ) * t / (6.0 * (2.0 * np.pi) ** 1.5)
        assert abs(three_photon_out_wavefunction(P, k, x) - plane) < 1e-8


def test_out_state_position_symmetry():
    k = (1.2, 1.0, 0.8)
    rng = np.random.default_rng(15)
    x = tuple(rng.uniform(-4.0, 4.0, size=(3, 50)))
    base = three_photon_out_wavefunction(P, k, x)
    one = three_photon_out_wavefunction(P, k, tuple(c[7] for c in x))
    assert base[7] == pytest.approx(one, rel=1e-14)
    for perm in itertools.permutations(range(3)):
        val = three_photon_out_wavefunction(P, k, tuple(x[i] for i in perm))
        assert np.max(np.abs(val - base)) < 1e-12 * max(1.0, np.max(np.abs(base)))
