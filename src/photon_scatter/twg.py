"""Few-photon scattering in the linearized single-channel waveguide.

One, two, and three photons in the even channel of the high-energy
(linear-dispersion) regime: transmission phase, connected T-matrix
densities, structured S-matrices, fluorescence densities, and spatial
out-state wavefunctions.

All connected densities returned here carry the leading factor i, i.e.
they are the quantities added to the disconnected part when assembling
``S = 1 + iT`` matrix elements.  The S-matrices are cluster sums, tuples of
:class:`~photon_scatter.core.Term`, assembled by
:func:`~photon_scatter.core._cluster_terms` from t_k and the connected T
densities: for N photons the fully connected term first, then (N = 3) the
nine terms with one transmitted photon pinned into one outgoing slot and
T2 on the other two, then the N! fully pinned permutations.
"""

from __future__ import annotations

import itertools
import math
from functools import partial

import numpy as np

from photon_scatter.core import Term, TWGParams, _cluster_terms, _require_on_shell

__all__ = [
    "transmission_amplitude",
    "two_photon_t",
    "two_photon_s",
    "two_photon_out_wavefunction",
    "two_photon_fluorescence",
    "three_photon_t",
    "three_photon_t_reference",
    "three_photon_s",
    "three_photon_fluorescence",
    "three_photon_out_wavefunction",
]

_PERMS3 = tuple(itertools.permutations(range(3)))


def _momentum(k):
    """k as a float array; a nan or infinite entry raises ``ValueError``."""
    k = np.asarray(k, dtype=float)
    if not np.isfinite(k).all():
        raise ValueError("momentum must be finite")
    return k


def transmission_amplitude(params: TWGParams, k):
    """Single-photon transmission phase t_k = (k - alpha*)/(k - alpha).

    Unimodular for every real k; equals -1 exactly on resonance.  A nan or
    infinite momentum raises ``ValueError``.
    """
    k = _momentum(k)
    a = params.alpha
    t = (k - np.conj(a)) / (k - a)
    return t if t.ndim else complex(t)


def _scattered(params: TWGParams, k):
    """The scattered part t_k - 1 = -i gamma_t / (k - alpha).

    Formed directly: far off resonance t_k rounds near 1, and subtracting 1
    from it would keep only the leading digits of this small part.
    """
    return -1j * params.gamma_t / (_momentum(k) - params.alpha)


def two_photon_t(params: TWGParams, k1: float, k2: float, p1, p2):
    """Connected two-photon T density (with the leading i) on the shell.

    Returns the smooth coefficient of delta(k1 + k2 - p1 - p2):

        i (gamma_t^2/pi) (E - 2 alpha) /
            [(p2 - alpha)(k1 - alpha)(p1 - alpha)(k2 - alpha)]

    p1, p2 may be arrays (elementwise on shell with k1 + k2).

    At resonance the pole product is (gamma_t/2)^4, which underflows from
    about gamma_t = 2^-254 down.  So each k pole factor is brought into
    [1/2, 1) by a power of two, which the numerator takes up, and the p
    pole factors and gamma_t are multiplied by 2^-n, n = min(0,
    exponent(gamma_t) + 256), as in ``_connected_tier``.  Powers of two
    round nothing, and above gamma_t = 2^-256 n = 0, so the scaling changes
    no bit of the result there; below it the resonant value -16/(pi
    gamma_t) keeps full precision.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    e = k1 + k2
    _require_on_shell(e, p1 + p2)
    a = params.alpha
    up = np.ldexp(1.0, np.maximum(0, -256 - np.frexp(params.gamma_t)[1]))
    s1, s2 = np.ldexp(1.0, -np.frexp(np.abs((k1 - a, k2 - a)))[1])
    poles = (p2 - a) * up * ((k1 - a) * s1) * ((p1 - a) * up) * ((k2 - a) * s2)
    out = 1j * (params.gamma_t * up) ** 2 / np.pi * s1 * (e - 2.0 * a) * s2 / poles
    return out if out.ndim else complex(out)


def _pair_bound(params: TWGParams, k1: float, k2: float, x):
    """Connected pair term of the out-state in the relative coordinate x.

    gamma_t^2 e^{i(E/2 - alpha)|x|} / ((k1 - alpha)(k2 - alpha)), decaying
    at the rate gamma_t/2 in |x|.  The Fourier transform of
    ``two_photon_t`` over its shell is 2 e^{i E x_c} times this; the
    out-state envelope carries it over 2 pi.  Each pole factor is brought
    into [1/2, 1) by a power of two, which one factor gamma_t each takes up:
    the powers of two round nothing, and neither gamma_t^2 nor the pole
    product underflows at a linewidth of 1e-200.
    """
    alpha = params.alpha
    beta = 0.5 * (k1 + k2) - alpha
    phase = np.exp(1j * beta * np.abs(np.asarray(x, dtype=float)))
    poles = [k - alpha for k in (k1, k2)]
    scales = [np.ldexp(1.0, -np.frexp(abs(d))[1]) for d in poles]
    gamma2 = (params.gamma_t * scales[0]) * (params.gamma_t * scales[1])
    return gamma2 * phase / ((poles[0] * scales[0]) * (poles[1] * scales[1]))


def _cluster_s(params: TWGParams, k) -> tuple[Term, ...]:
    """The cluster sum of the S-matrix for incoming momenta ``k``.

    Every singleton carries its t_k, every cluster of two the pair's T2 and
    one of three T3, each with weight 1.
    """
    t = [transmission_amplitude(params, v) for v in k]

    def connected(legs, slots):
        if len(legs) == 2:
            return 1.0, partial(two_photon_t, params, *(k[i] for i in legs))
        return 1.0, lambda *p: three_photon_t(params, k, p)

    return _cluster_terms(k, lambda i, s: t[i], connected)


def two_photon_s(params: TWGParams, k1: float, k2: float) -> tuple[Term, ...]:
    """Two-photon S-matrix: the connected T2 term, then both delta pairings.

    The pairings pin (p1, p2) at (k1, k2) and at (k2, k1), each with weight
    t_k1 t_k2.
    """
    return _cluster_s(params, (k1, k2))


def _pair_envelope(params: TWGParams, terms, x):
    """Relative-coordinate pair out-state of one outgoing channel.

    The shell transform of the pair S-matrix element ``terms``, in the
    order of :func:`two_photon_s`, without its e^{i E x_c}: the delta
    pinning at (k1, k2) with weight ``direct`` and the one at (k2, k1) with
    weight ``exchange`` as plane waves e^{+-i dk x}, dk = (k1 - k2)/2, plus
    twice the connected pair term ``_pair_bound`` with the connected
    term's weight, all over 2 pi.
    """
    connected, direct, exchange = (term.weight for term in terms)
    (_, k1), (_, k2) = terms[1].pinned
    x = np.asarray(x, dtype=float)
    dkx = 0.5 * (k1 - k2) * x
    plane = (direct + exchange) * np.cos(dkx) + 1j * (direct - exchange) * np.sin(dkx)
    return (plane + 2.0 * connected * _pair_bound(params, k1, k2, x)) / (2.0 * np.pi)


def two_photon_out_wavefunction(params: TWGParams, k1: float, k2: float, x_center, x_relative):
    """Out-state amplitude <x_c, x|out> for an incident (k1, k2) pair.

    e^{i E x_c} times an envelope in the relative coordinate x: the plane
    part t_k1 t_k2 cos(dk x) / 2 pi plus a bound term decaying in |x|.  The
    envelope is half the pair envelope of :func:`two_photon_s`, whose two
    pinnings both carry t_k1 t_k2.
    """
    envelope = _pair_envelope(params, two_photon_s(params, k1, k2), x_relative)
    return np.exp(1j * (k1 + k2) * np.asarray(x_center)) * (0.5 * envelope)


def two_photon_fluorescence(params: TWGParams, k1: float, k2: float, p1):
    """Background fluorescence density |T2|^2 with p2 fixed by the shell."""
    p1 = np.asarray(p1, dtype=float)
    p2 = k1 + k2 - p1
    val = np.abs(two_photon_t(params, k1, k2, p1, p2)) ** 2
    return val if np.ndim(val) else float(val)


# ---------------------------------------------------------------------------
# three photons


def _three(values, name):
    """Return ``values`` after checking that it holds one entry per photon."""
    if len(values) != 3:
        raise ValueError(f"{name} needs 3 entries for three photons, got {len(values)}")
    return values


def three_photon_t(params: TWGParams, k, p):
    """Connected three-photon T density (with the leading i) on the shell.

    Parameters
    ----------
    k : sequence of 3 floats or arrays
        Incoming momenta.
    p : sequence of 3 floats or arrays
        Outgoing momenta, elementwise on the shell sum(p) = sum(k); k and p
        broadcast together.

    Notes
    -----
    The 108 permutation terms of ``three_photon_t_reference`` sum to

        -(i gamma_t^3 / pi^2) / prod_j (p_j - alpha)
            * sum_i [1/(k_a - alpha) + 1/(k_b - alpha)]
                    * sum_j 1/(E - k_i - p_j - alpha),

    with {a, b} the incoming legs other than i.  Only the physical poles
    k_i, p_j = alpha and E - k_i - p_j = alpha are left: the spurious
    poles p_j = k_i of single terms cancel exactly, so one code path
    serves every point, on the lines p_j = k_i and their crossings too.
    Against a 50-digit evaluation of the literal sum at 2250 exactly
    on-shell points (gamma_t from 1e-6 to 10, momenta within 30 of Omega,
    on and off the resonance lines E - k_i - p_j = Omega) the relative
    error stayed below 2e-13; on the lines p_j = k_i and at their double
    and triple crossings it was at most 4e-16.
    """
    k = [np.asarray(v, dtype=float) for v in _three(k, "k")]
    e = sum(k)
    p = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in _three(p, "p")))
    _require_on_shell(e, p[0] + p[1] + p[2])
    a = params.alpha
    inv = [1.0 / (v - a) for v in k]
    total = 0.0
    for i, v in enumerate(k):
        total = total + (inv[i - 1] + inv[i - 2]) * sum(1.0 / (e - v - c - a) for c in p)
    out = -1j * params.gamma_t**3 / np.pi**2 * total / ((p[0] - a) * (p[1] - a) * (p[2] - a))
    return out if out.ndim else complex(out)


def three_photon_t_reference(params: TWGParams, k, p):
    """Literal permutation-sum evaluation of the connected three-photon T.

    The sum is literal: the 36 (P, Q) terms of each of the three families
    are accumulated one by one exactly as printed, with no factoring.  k
    and p may be arrays that broadcast together; the arrays carry only the
    evaluation points, one term per (P, Q) pair and family as for scalars.
    Single terms have poles at p_j = k_i that cancel only in the sum, so
    the reference holds at generic points alone; it cross-checks the
    closed form of three_photon_t there.
    """
    k = [np.asarray(v, dtype=float) for v in _three(k, "k")]
    p = [np.asarray(v, dtype=float) for v in _three(p, "p")]
    _require_on_shell(sum(k), sum(p))
    a = params.alpha
    total = 0.0 + 0.0j
    for perm_in in _PERMS3:
        for perm_out in _PERMS3:
            w = [k[perm_in[0]], k[perm_in[1]], k[perm_in[2]]]
            wp = [p[perm_out[0]], p[perm_out[1]], p[perm_out[2]]]
            f1 = 1.0 / (
                (wp[0] - w[0]) * (wp[2] - w[2]) * (w[0] - a) * (wp[2] - a)
                * (w[0] + w[1] - wp[0] - a)
            )
            f2 = 1.0 / (
                (wp[1] - w[1]) * (wp[2] - w[2]) * (wp[1] - a) * (w[2] - a)
                * (wp[1] + wp[0] - w[1] - a)
            )
            f3 = 1.0 / (
                (wp[1] - w[1]) * (wp[0] - w[0]) * (wp[0] - a) * (w[1] - a)
                * (w[1] + w[2] - wp[1] - a)
            )
            total += f1 + f2 + f3
    out = 1j * params.gamma_t**3 / (3.0 * (2.0 * np.pi) ** 2) * total
    return out if out.ndim else complex(out)


def three_photon_s(params: TWGParams, k) -> tuple[Term, ...]:
    """Three-photon S-matrix as its 16-term cluster sum.

    The fully connected T3 term; nine terms with one transmitted photon
    pinned into one outgoing slot, weighted by its t_k, and the connected
    T2 of the other two photons on the other two slots; six fully pinned
    permutations weighted t_k1 t_k2 t_k3.
    """
    return _cluster_s(params, [float(v) for v in _three(k, "k")])


def three_photon_fluorescence(params: TWGParams, k, p1, p2):
    """Background fluorescence density |T3|^2 on an outgoing slice.

    p1 and p2 parametrize the two-dimensional shell; p3 is fixed by energy
    conservation.  Both may be arrays.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    p3 = sum(float(v) for v in _three(k, "k")) - p1 - p2
    val = np.abs(three_photon_t(params, k, (p1, p2, p3))) ** 2
    return val if np.ndim(val) else float(val)


# ---------------------------------------------------------------------------
# three-photon spatial out-state


def _connected_tier(params: TWGParams, k, x):
    """Fourier transform of the connected density over the energy shell.

    Equals int dp1 dp2 iT3(p; k) e^{i p.x} with p3 = E - p1 - p2.  Each of
    the nine terms of three_photon_t is split by partial fractions in p_j,
    1/((p_j - alpha)(E - k_i - alpha - p_j))
        = [1/(p_j - alpha) + 1/(E - k_i - alpha - p_j)] / (E - k_i - 2 alpha),
    and the shell delta is written as int dt e^{it(E - sum p)} / 2 pi, so
    every momentum integral is a one-pole transform: a step function times
    an exponential.  The 1/prod(p - alpha) part integrates t over [m, inf),
    m the largest coordinate; the other part over [m2, x_j], m2 the middle
    coordinate, which is non-empty only when x_j = m.  With X the sum of
    the coordinates, the exponents phi = i alpha X + i (E - 3 alpha) m and
    phi + i mu_i (m2 - m) have real parts (gamma_t/2)(X - 3m) and
    (gamma_t/2)(min x - m), both <= 0, and each is exponentiated whole, so
    nothing overflows; phi is formed from coordinate differences, so its
    real part cannot round above 0.

    Each term is a product of three factors that grow like 1/gamma_t at
    resonance, and gamma_t^3 takes them back.  Below gamma_t = 2^-256 each
    factor is formed times 2^n, n = exponent(gamma_t) + 256, which holds
    it near 2^256, and gamma_t^3 is taken as (gamma_t 2^-n)^3: neither the
    factors overflow nor gamma_t^3 underflows down to the smallest
    linewidth.  Above it n = 0, and powers of two round nothing, so the
    scaling changes no bit of the result there.
    """
    lo, m2, m = np.sort(np.stack(x), axis=0)
    a = params.alpha
    e = sum(k)
    phi = 1j * e * m + 1j * a * ((lo - m) + (m2 - m))
    up = math.ldexp(1.0, min(0, math.frexp(params.gamma_t)[1] + 256))
    total = 0.0j
    for i, v in enumerate(k):
        mu = v - a
        c = up / (k[i - 1] - a) + up / (k[i - 2] - a)
        total = total + up * c / (e - v - 2.0 * a) * (
            (up / mu - 3.0 * up / (e - 3.0 * a)) * np.exp(phi)
            - up * np.exp(phi + 1j * mu * (m2 - m)) / mu
        )
    return -4j * (params.gamma_t / up) ** 3 * total


def three_photon_out_wavefunction(params: TWGParams, k, x):
    """Spatial out-state amplitude of three photons at positions x.

    Three tiers share the prefactor 1/(6 (2 pi)^{3/2}): the fully
    disconnected symmetrized plane waves, the nine one-leg-transmitted terms
    with a pair bound/plane structure, and the fully connected part, the
    Fourier transform of the connected density over the energy shell.  All
    three are closed forms; the connected one is a sum over the three
    incoming legs of two exponentials in the sorted coordinates (their
    sum, the largest and the middle one), exact up to rounding.

    x is a sequence of three floats or broadcastable arrays; the result is
    a complex scalar or an array of their broadcast shape.
    """
    k = [float(v) for v in _three(k, "k")]
    x = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in _three(x, "x")))
    t = [complex(transmission_amplitude(params, v)) for v in k]

    tier_a = 0.0j
    for q in _PERMS3:
        tier_a += np.exp(1j * (k[q[0]] * x[0] + k[q[1]] * x[1] + k[q[2]] * x[2]))
    tier_a *= t[0] * t[1] * t[2]

    # the connected pair density on photons a, b, Fourier transformed over
    # its shell, is 2 e^{i E_ab x_c} _pair_bound(x_a - x_b)
    tier_b = 0.0j
    for i in range(3):
        ka, kb = (k[m] for m in range(3) if m != i)
        for j in range(3):
            xa, xb = (x[m] for m in range(3) if m != j)
            pair = np.exp(0.5j * (ka + kb) * (xa + xb)) * _pair_bound(params, ka, kb, xa - xb)
            tier_b += 2.0 * t[i] * np.exp(1j * k[i] * x[j]) * pair

    out = (tier_a + tier_b + _connected_tier(params, k, x)) / (6.0 * (2.0 * np.pi) ** 1.5)
    return out if out.ndim else complex(out)
