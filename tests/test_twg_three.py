"""Three-photon connected T, S tiers, and the spatial out-state."""

import itertools

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from photon_scatter.core import TWGParams
from photon_scatter.twg import (
    _PERMS3,
    _connected_tier,
    three_photon_fluorescence,
    three_photon_out_wavefunction,
    three_photon_s,
    three_photon_t,
    three_photon_t_reference,
    transmission_amplitude,
    two_photon_t,
)

P = TWGParams(1.0, 1.0)


# ---------------------------------------------------------------------------
# reference: the connected out-state as a sum of residues over the 108
# literal families of three_photon_t_reference, kept to check the closed
# form of twg._connected_tier

# three-photon out-state: the real poles q = k_i of individual permutation
# terms are displaced as k -> k + i0 * _POLE_DIR.  The direction has zero
# component sum, so the total energy stays real and every choice of
# eliminated shell slot integrates over the same real plane, and no zero
# component, so every pole leaves the axis.  The real poles cancel in the
# full sum, so the limit does not depend on the direction; a uniform +i0
# on all k_i would move E off the real axis and is not such a limit.
_POLE_DIR = (1.0, -3.0, 2.0)


def _line_integral(y, w, w_upper: bool, b):
    """int dq e^{iqy} / ((q - w)(q - b)) over the real line, by residues.

    w lies in the upper half plane when ``w_upper`` and in the lower one
    otherwise, a real w being displaced infinitesimally to that side; b
    lies off the real axis.  The contour
    closes above for y >= 0 and below for y < 0; at y = 0 both closures
    agree because the integrand falls off as 1/q^2.
    """
    above = y >= 0.0
    # each exponential is evaluated only where its pole is enclosed, where
    # it decays, so no overflow reaches the masked branch
    res_w = np.where(above == w_upper, np.exp(1j * w * y), 0.0) / (w - b)
    res_b = np.where(
        above == (b.imag > 0.0), np.exp(1j * b.real * y - abs(b.imag) * np.abs(y)), 0.0
    ) / (b - w)
    return np.where(above, 2j * np.pi, -2j * np.pi) * (res_w + res_b)


def _connected_out(params: TWGParams, k, x):
    """Fourier transform of the connected density over the energy shell.

    Equals int dp1 dp2 iT3(p; k) e^{i p.x} with p3 = E - p1 - p2.  Each
    family of each (P, Q) term of the literal sum of
    three_photon_t_reference, with one shell slot eliminated,
    factorizes into two one-variable rational factors, so the integral is a
    product of two _line_integral values times the phase of the eliminated
    slot.  The real poles q = k_i cancel in the full sum but not term by
    term; each is displaced off the axis along _POLE_DIR (see there).  The
    minus signs come from writing each family's last denominator factor,
    (w + w' - q - alpha) or (E - q - w - alpha), as -(q - b).
    """
    a = params.alpha
    e = sum(k)
    total = 0.0j
    for perm_in in _PERMS3:
        w0, w1, w2 = (k[i] for i in perm_in)
        up0, up1, up2 = (_POLE_DIR[i] > 0.0 for i in perm_in)
        for perm_out in _PERMS3:
            y0, y1, y2 = (x[j] for j in perm_out)
            # family 1: free in (q0, q2), q1 eliminated
            total -= (
                np.exp(1j * e * y1)
                * _line_integral(y0 - y1, w0, up0, w0 + w1 - a)
                * _line_integral(y2 - y1, w2, up2, a)
                / (w0 - a)
            )
            # family 2: free in (q1, q2), q0 eliminated
            total -= (
                np.exp(1j * e * y0)
                * _line_integral(y1 - y0, w1, up1, a)
                * _line_integral(y2 - y0, w2, up2, e - w1 - a)
                / (w2 - a)
            )
            # family 3: free in (q1, q0), q2 eliminated
            total -= (
                np.exp(1j * e * y2)
                * _line_integral(y1 - y2, w1, up1, w1 + w2 - a)
                * _line_integral(y0 - y2, w0, up0, a)
                / (w1 - a)
            )
    return 1j * params.gamma_t**3 / (3.0 * (2.0 * np.pi) ** 2) * total


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


def _literal_limit(k, p, h):
    """The literal 108-term sum at 120 digits, averaged over p +- h (1, -3, 2).

    The direction has zero sum, so both points stay exactly on shell; their
    mean is the limit of the literal sum at p up to O(h^2).
    """
    a = mpmath.mpf(P.omega_atom) - mpmath.mpf(P.gamma_t) / 2 * 1j
    total = 0
    for sign in (1, -1):
        q = [c + sign * h * d for c, d in zip(p, (1, -3, 2))]
        for pi in itertools.permutations(k):
            w = [mpmath.mpf(v) for v in pi]
            for pq in itertools.permutations(q):
                total += 1 / (
                    (pq[0] - w[0]) * (pq[2] - w[2]) * (w[0] - a) * (pq[2] - a)
                    * (w[0] + w[1] - pq[0] - a)
                )
                total += 1 / (
                    (pq[1] - w[1]) * (pq[2] - w[2]) * (pq[1] - a) * (w[2] - a)
                    * (pq[1] + pq[0] - w[1] - a)
                )
                total += 1 / (
                    (pq[1] - w[1]) * (pq[0] - w[0]) * (pq[0] - a) * (w[1] - a)
                    * (w[1] + w[2] - pq[1] - a)
                )
    return 1j * mpmath.mpf(P.gamma_t) ** 3 / (12 * mpmath.pi**2) * total / 2


def test_pole_line_cancellation():
    # an outgoing leg exactly on an incoming one: the permutation sum stays
    # finite; the closed form matches the off-line limit
    k = (1.0, 1.0, 1.0)
    q = 0.3
    on_line = three_photon_t(P, k, (1.0 + q, 1.0, 1.0 - q))
    eps = 1e-7
    near = three_photon_t_reference(P, k, (1.0 + q - eps / 2, 1.0 + eps, 1.0 - q - eps / 2))
    assert abs(on_line - near) <= 1e-5 * abs(near)
    assert np.isfinite(on_line.real) and np.isfinite(on_line.imag)

    # a single line, a double crossing, the triple crossing, and 1e-5 from
    # it on the p3 = 1 slice; the free outgoing leg is formed in mpmath, so
    # the literal sum is evaluated exactly on shell
    cases = (
        ((1.0, 1.0, 1.0), (1.3, 1.0), 2),
        ((1.25, 0.5, 0.75), (0.5, 1.25), 2),
        ((1.0, 1.0, 1.0), (1.0, 1.0), 2),
        ((1.0, 1.0, 1.0), (1.0 + 1e-5, 1.0), 1),
        ((1.0, 1.0, 1.0), (1.0 - 1e-5, 1.0), 1),
    )
    with mpmath.workdps(120):
        for k, given, free in cases:
            p = [mpmath.mpf(v) for v in given]
            p.insert(free, sum(mpmath.mpf(v) for v in k) - p[0] - p[1])
            limit = _literal_limit(k, p, mpmath.mpf("1e-30"))
            # the limit does not depend on the step
            coarse = _literal_limit(k, p, mpmath.mpf("1e-25"))
            assert abs(coarse - limit) <= 1e-20 * abs(limit)
            value = three_photon_t(P, k, [float(c) for c in p])
            assert abs(value - complex(limit)) <= 1e-14 * abs(complex(limit))


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


def test_t3_and_reference_broadcast_over_incoming_momenta():
    # k and p both arrays: one call of each equals a loop of scalar calls,
    # relative to max(1, |T3|) as criterion 6 measures.  numpy's array loops
    # fuse complex products where its scalar arithmetic does not, and the
    # literal sum's O(1) terms cancel to values near 0.003, so elementwise the
    # two paths differ by up to 5e-15 relative, 2e-16 absolute
    rng = np.random.default_rng(16)
    points = [_random_on_shell(rng) for _ in range(40)]
    k = np.array([pt[0] for pt in points]).T
    p = np.array([pt[1] for pt in points]).T
    for t3 in (three_photon_t, three_photon_t_reference):
        vec = t3(P, k, p)
        assert vec.shape == (40,)
        loop = np.array([t3(P, kk, pp) for kk, pp in points])
        assert np.max(np.abs(vec - loop) / np.maximum(1.0, np.abs(loop))) <= 1e-15
    # stacked relabelings of one point broadcast as a (6, 6) grid
    kk, pp = points[0]
    perms = np.array(_PERMS3)
    grid = three_photon_t_reference(P, kk[perms].T[:, :, None], pp[perms].T[:, None, :])
    assert grid.shape == (6, 6)
    one = three_photon_t_reference(P, kk[perms[2]], pp[perms[5]])
    assert abs(grid[2, 5] - one) <= 1e-15 * max(1.0, abs(one))


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
    connected, *rest = three_photon_s(P, k)
    pinned_pairs = [t for t in rest if len(t.pinned) == 1]
    disconnected = [t for t in rest if t.density is None]
    assert len(pinned_pairs) == 9
    assert len(disconnected) == 6
    tprod = np.prod([transmission_amplitude(P, v) for v in k])
    for d in disconnected:
        assert [s for s, _ in d.pinned] == [0, 1, 2]
        assert sorted(v for _, v in d.pinned) == sorted(k)
        assert d.weight == pytest.approx(tprod, rel=1e-14)
    # each pinned term: transmitted leg amplitude and the pair density of
    # the complementary incoming pair
    term = next(t for t in pinned_pairs if t.pinned == ((2, 0.9),))
    assert term.weight == pytest.approx(transmission_amplitude(P, 0.9), rel=1e-14)
    pa, pair_energy = 1.05, 1.3 + 0.8
    assert term.density(pa, pair_energy - pa) == pytest.approx(
        two_photon_t(P, 1.3, 0.8, pa, pair_energy - pa), rel=1e-14
    )
    # connected tier is the optimized density
    p_out = (1.05, 1.15, 0.8)
    assert (connected.pinned, connected.weight) == ((), 1.0)
    assert connected.density(*p_out) == pytest.approx(
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


def _mp_connected_tier(params, k, x):
    """The closed form of twg._connected_tier at 50 digits, at one point."""
    with mpmath.workdps(50):
        g = mpmath.mpf(params.gamma_t)
        a = mpmath.mpf(params.omega_atom) - g / 2 * 1j
        k = [mpmath.mpf(v) for v in k]
        lo, m2, m = sorted(mpmath.mpf(v) for v in x)
        e = sum(k)
        phi = 1j * a * (lo + m2 + m) + 1j * (e - 3 * a) * m
        total = 0
        for i, v in enumerate(k):
            mu = v - a
            c = 1 / (k[i - 1] - a) + 1 / (k[i - 2] - a)
            total += c / (e - v - 2 * a) * (
                (1 / mu - 3 / (e - 3 * a)) * mpmath.exp(phi)
                - mpmath.exp(phi + 1j * mu * (m2 - m)) / mu
            )
        return complex(-4j * g**3 * total)


def test_connected_tier_matches_residue_sum():
    # the closed form over sorted coordinates against the family-by-family
    # residue sum, 400 points: gamma_t log-uniform in [0.01, 10], |x| up to
    # 8/gamma_t, with two-way ties (at the largest coordinate or not) and
    # three-way ties
    rng = np.random.default_rng(16)
    points = []
    for _ in range(40):
        gamma = 10.0 ** rng.uniform(-2.0, 1.0)
        params = TWGParams(rng.uniform(-2.0, 2.0), gamma)
        k = tuple(params.omega_atom + gamma * rng.uniform(-3.0, 3.0, 3))
        x = rng.uniform(-8.0 / gamma, 8.0 / gamma, size=(3, 10))
        x[1, :4] = x[0, :4]
        x[2, 2:6] = x[0, 2:6]
        ref = _connected_out(params, k, tuple(x))
        new = _connected_tier(params, k, tuple(x))
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(new - ref)) <= 1e-11 * scale
        points.extend(
            (abs(new[j] - ref[j]) / scale, scale, params, k, x[:, j], new[j], ref[j])
            for j in range(x.shape[1])
        )
    # both sides against a 50-digit evaluation of the closed form where
    # they differ most
    points.sort(key=lambda pt: pt[0])
    for _, scale, params, k, x, new, ref in points[-3:]:
        exact = _mp_connected_tier(params, k, x)
        assert abs(new - exact) <= 1e-11 * scale
        assert abs(ref - exact) <= 1e-11 * scale


def test_out_state_origin_reference():
    # 0.1007864: Richardson extrapolation in the momentum window W (80, 160,
    # 320 gamma_t) of the adaptive 2-D shell quadrature this closed form
    # replaced, recorded with its provenance in perfbench/psi3_reference.json
    psi = three_photon_out_wavefunction(P, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    assert abs(psi) ** 2 == pytest.approx(0.1007864, rel=1e-4)


@pytest.mark.parametrize("gamma", [1e-150, 1e-200, 1e-300])
def test_out_state_at_a_vanishing_linewidth(gamma):
    # the connected tier's three 1/gamma_t-sized factors overflowed and
    # gamma_t^3 underflowed from about 1e-103 on, giving inf * 0; scaled by
    # a power of two, the out-state at zero momenta keeps its 1e-100 value,
    # where every x here is a vanishing multiple of 1/gamma_t
    x = (np.array([-1.0, 1.0, -1.0, 0.0, 0.4]), np.array([-1.0, -1.0, 1.0, 0.0, -2.0]), 0.0)
    ref = three_photon_out_wavefunction(TWGParams(0.0, 1e-100), (0.0, 0.0, 0.0), x)
    with np.errstate(all="raise"):
        psi = three_photon_out_wavefunction(TWGParams(0.0, gamma), (0.0, 0.0, 0.0), x)
    assert np.max(np.abs(psi - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert abs(ref[0] + 0.31746818) < 1e-8


def test_out_state_far_field_is_plane_part():
    # with every pair separated by >= 40/gamma the bound and connected tiers
    # have decayed, leaving the symmetrized transmitted plane waves; at
    # >= 1e3/gamma they are below 1e-200, so no rounding residue may be left
    k = (1.3, 0.9, 0.6)
    t = np.prod([transmission_amplitude(P, v) for v in k])
    cases = (
        ((-40.0, 0.0, 40.0), 1e-8),
        ((55.0, -30.0, 12.0), 1e-8),
        ((0.0, 90.0, 45.0), 1e-8),
        ((1e4, -1e4, 3.0), 1e-15),
        ((-2000.0, 0.0, 2000.0), 1e-15),
        ((3000.0, -1000.0, 1000.0), 1e-15),
    )
    for x, tol in cases:
        plane = sum(
            np.exp(1j * (k[q[0]] * x[0] + k[q[1]] * x[1] + k[q[2]] * x[2]))
            for q in itertools.permutations(range(3))
        ) * t / (6.0 * (2.0 * np.pi) ** 1.5)
        assert abs(three_photon_out_wavefunction(P, k, x) - plane) < tol


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: three_photon_t(P, (1.0, 1.0), (0.5, 0.5, 1.0)),
        lambda: three_photon_t(P, (1.0, 1.0, 1.0), (1.5, 1.5)),
        lambda: three_photon_t_reference(P, (1.0, 1.0, 0.5, 0.5), (1.0, 1.0, 1.0)),
        lambda: three_photon_s(P, (1.0, 1.0)),
        lambda: three_photon_fluorescence(P, (1.0, 1.0), 1.2, 0.8),
        lambda: three_photon_out_wavefunction(P, (1.0, 1.0, 1.0, 1.0), (0.1, 0.2, 0.3)),
        lambda: three_photon_out_wavefunction(P, (1.0, 1.0, 1.0), (0.1, 0.2)),
    ],
    ids=["t-k", "t-p", "reference-k", "s-k", "fluorescence-k", "out-k", "out-x"],
)
def test_three_photon_entry_points_reject_wrong_photon_count(call):
    with pytest.raises(ValueError, match="3 entries"):
        call()
