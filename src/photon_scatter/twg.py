"""Few-photon scattering in the linearized single-channel waveguide.

One, two, and three photons in the even channel of the high-energy
(linear-dispersion) regime: transmission phase, connected T-matrix
densities, structured S-matrices, fluorescence densities, and spatial
out-state wavefunctions.

All connected densities returned here carry the leading factor i, i.e.
they are the quantities added to the disconnected part when assembling
``S = 1 + iT`` matrix elements; Dirac deltas are handled structurally
through :class:`~photon_scatter.core.ScatteringAmplitudeSet`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from photon_scatter.core import (
    DeltaTerm,
    PinnedPairTerm,
    ScatteringAmplitudeSet,
    TWGParams,
    _require_on_shell,
)

__all__ = [
    "transmission_amplitude",
    "two_photon_t",
    "two_photon_s",
    "TwoPhotonOutState",
    "two_photon_out_wavefunction",
    "two_photon_fluorescence",
    "three_photon_t",
    "three_photon_t_reference",
    "three_photon_s",
    "three_photon_fluorescence",
    "three_photon_out_wavefunction",
]

_PERMS3 = tuple(itertools.permutations(range(3)))

# three-photon out-state: the real poles q = k_i of individual permutation
# terms are displaced as k -> k + i0 * _POLE_DIR.  The direction has zero
# component sum, so the total energy stays real and every choice of
# eliminated shell slot integrates over the same real plane, and no zero
# component, so every pole leaves the axis.  The real poles cancel in the
# full sum, so the limit does not depend on the direction; a uniform +i0
# on all k_i would move E off the real axis and is not such a limit.
_POLE_DIR = (1.0, -3.0, 2.0)


def transmission_amplitude(params: TWGParams, k):
    """Single-photon transmission phase t_k = (k - alpha*)/(k - alpha).

    Unimodular for every real k; equals -1 exactly on resonance.
    """
    k = np.asarray(k, dtype=float)
    a = params.alpha
    t = (k - np.conj(a)) / (k - a)
    return t if t.ndim else complex(t)


def two_photon_t(params: TWGParams, k1: float, k2: float, p1, p2):
    """Connected two-photon T density (with the leading i) on the shell.

    Returns the smooth coefficient of delta(k1 + k2 - p1 - p2):

        i (gamma_t^2/pi) (E - 2 alpha) /
            [(p2 - alpha)(k1 - alpha)(p1 - alpha)(k2 - alpha)]

    p1, p2 may be arrays (elementwise on shell with k1 + k2).
    """
    return _pair_t(params.alpha, params.gamma_t**2, k1, k2, p1, p2)


def _pair_t(alpha, coupling, k1: float, k2: float, p1, p2):
    """The connected pair density of two_photon_t with gamma_t^2 -> coupling.

    The pole structure is that of one atom with complex frequency alpha;
    the H-type geometry shares it, with the product of the four channel
    couplings as ``coupling``.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    e = k1 + k2
    _require_on_shell(e, p1 + p2)
    a = alpha
    out = 1j * coupling / np.pi * (e - 2.0 * a) / ((p2 - a) * (k1 - a) * (p1 - a) * (k2 - a))
    return out if out.ndim else complex(out)


def _pair_bound(alpha, coupling, k1: float, k2: float, x):
    """Connected pair term of the out-state in the relative coordinate x.

    coupling e^{i(E/2 - alpha)|x|} / ((k1 - alpha)(k2 - alpha)), decaying at
    the rate -Im(alpha) in |x|.  The Fourier transform of ``_pair_t`` over
    its shell is 2 e^{i E x_c} times this; the out-state envelope carries it
    over 2 pi.
    """
    beta = 0.5 * (k1 + k2) - alpha
    phase = np.exp(1j * beta * np.abs(np.asarray(x, dtype=float)))
    return coupling * phase / ((k1 - alpha) * (k2 - alpha))


def two_photon_s(params: TWGParams, k1: float, k2: float) -> ScatteringAmplitudeSet:
    """Two-photon S-matrix: both delta pairings plus the connected density."""
    t12 = transmission_amplitude(params, k1) * transmission_amplitude(params, k2)

    def density(p1, p2):
        return two_photon_t(params, k1, k2, p1, p2)

    return ScatteringAmplitudeSet(
        total_energy=k1 + k2,
        disconnected=(DeltaTerm((k1, k2), t12), DeltaTerm((k2, k1), t12)),
        connected=density,
    )


@dataclass(frozen=True)
class TwoPhotonOutState:
    """Spatial out-state of a scattered photon pair.

    The full amplitude factorizes as ``exp(i E x_c) * envelope(x)`` in the
    center/relative coordinates; the envelope is the plane-wave part plus a
    bound term decaying in |x|.
    """

    params: TWGParams
    k1: float
    k2: float

    @property
    def total_energy(self) -> float:
        return self.k1 + self.k2

    @property
    def relative_momentum(self) -> float:
        return 0.5 * (self.k1 - self.k2)

    def plane_envelope(self, x):
        t12 = transmission_amplitude(self.params, self.k1) * transmission_amplitude(
            self.params, self.k2
        )
        return t12 * np.cos(self.relative_momentum * np.asarray(x)) / (2.0 * np.pi)

    def bound_envelope(self, x):
        p = self.params
        return _pair_bound(p.alpha, p.gamma_t**2, self.k1, self.k2, x) / (2.0 * np.pi)

    def envelope(self, x):
        return self.plane_envelope(x) + self.bound_envelope(x)

    def __call__(self, x_center, x_relative):
        phase = np.exp(1j * self.total_energy * np.asarray(x_center))
        return phase * self.envelope(x_relative)


def two_photon_out_wavefunction(params: TWGParams, k1: float, k2: float, x_center, x_relative):
    """Out-state amplitude <x_c, x|out> for an incident (k1, k2) pair."""
    return TwoPhotonOutState(params, k1, k2)(x_center, x_relative)


def two_photon_fluorescence(params: TWGParams, k1: float, k2: float, p1):
    """Background fluorescence density |T2|^2 with p2 fixed by the shell."""
    p1 = np.asarray(p1, dtype=float)
    p2 = k1 + k2 - p1
    val = np.abs(two_photon_t(params, k1, k2, p1, p2)) ** 2
    return val if np.ndim(val) else float(val)


# ---------------------------------------------------------------------------
# three photons


def _t3_prefactor(params: TWGParams) -> complex:
    return 1j * params.gamma_t**3 / (3.0 * (2.0 * np.pi) ** 2)


def three_photon_t(params: TWGParams, k, p):
    """Connected three-photon T density (with the leading i) on the shell.

    Parameters
    ----------
    k : sequence of 3 floats
        Incoming momenta.
    p : sequence of 3 floats or arrays
        Outgoing momenta, elementwise on the shell sum(p) = sum(k).

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
    k = [float(v) for v in k]
    e = sum(k)
    p = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in p))
    _require_on_shell(e, p[0] + p[1] + p[2])
    a = params.alpha
    inv = [1.0 / (v - a) for v in k]
    total = 0.0
    for i, v in enumerate(k):
        total = total + (inv[i - 1] + inv[i - 2]) * sum(1.0 / (e - v - c - a) for c in p)
    out = -1j * params.gamma_t**3 / np.pi**2 * total / ((p[0] - a) * (p[1] - a) * (p[2] - a))
    return out if out.ndim else complex(out)


def three_photon_t_reference(params: TWGParams, k, p) -> complex:
    """Literal permutation-sum evaluation of the connected three-photon T.

    Scalar-only reference path: the 36 (P, Q) terms of each of the three
    families are accumulated one by one exactly as printed, with no
    vectorization and no factoring.  Single terms have poles at p_j = k_i
    that cancel only in the sum, so the reference holds at generic points
    alone; it cross-checks the closed form of three_photon_t there.
    """
    k = [float(v) for v in k]
    p = [float(v) for v in p]
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
    return complex(_t3_prefactor(params) * total)


def three_photon_s(params: TWGParams, k) -> ScatteringAmplitudeSet:
    """Three-photon S-matrix in three connectedness tiers.

    Tier (a): six fully pinned permutations weighted t_{k1} t_{k2} t_{k3};
    tier (b): nine terms with one transmitted leg pinned into one outgoing
    slot and a connected two-photon density on the remaining pair;
    tier (c): the fully connected three-photon density.
    """
    k = [float(v) for v in k]
    e = sum(k)
    t = [complex(transmission_amplitude(params, v)) for v in k]
    tprod = t[0] * t[1] * t[2]

    disconnected = tuple(
        DeltaTerm((k[q[0]], k[q[1]], k[q[2]]), tprod) for q in _PERMS3
    )

    pinned = []
    for i in range(3):
        ka, kb = (k[m] for m in range(3) if m != i)

        def pair_density(pa, pb, ka=ka, kb=kb):
            return two_photon_t(params, ka, kb, pa, pb)

        for j in range(3):
            pinned.append(
                PinnedPairTerm(
                    slot=j,
                    value=k[i],
                    amplitude=t[i],
                    pair_energy=e - k[i],
                    density=pair_density,
                )
            )

    def connected(p1, p2, p3):
        return three_photon_t(params, k, (p1, p2, p3))

    return ScatteringAmplitudeSet(
        total_energy=e,
        disconnected=disconnected,
        pinned_pairs=tuple(pinned),
        connected=connected,
    )


def three_photon_fluorescence(params: TWGParams, k, p1, p2):
    """Background fluorescence density |T3|^2 on an outgoing slice.

    p1 and p2 parametrize the two-dimensional shell; p3 is fixed by energy
    conservation.  Both may be arrays.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    p3 = (float(k[0]) + float(k[1]) + float(k[2])) - p1 - p2
    val = np.abs(three_photon_t(params, k, (p1, p2, p3))) ** 2
    return val if np.ndim(val) else float(val)


# ---------------------------------------------------------------------------
# three-photon spatial out-state


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
    return _t3_prefactor(params) * total


def three_photon_out_wavefunction(params: TWGParams, k, x):
    """Spatial out-state amplitude of three photons at positions x.

    Three tiers share the prefactor 1/(6 (2 pi)^{3/2}): the fully
    disconnected symmetrized plane waves, the nine one-leg-transmitted terms
    with a pair bound/plane structure, and the fully connected part, the
    Fourier transform of the connected density over the energy shell.  All
    three are closed forms; the connected one is a finite sum of residues,
    exact up to rounding, with each real pole q = k_i placed on the side
    k_i -> k_i + i0 d_i for a fixed shell-preserving d (the limit does not
    depend on d because the real poles cancel in the full sum).

    x is a sequence of three floats or broadcastable arrays; the result is
    a complex scalar or an array of their broadcast shape.
    """
    k = [float(v) for v in k]
    x = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in x))
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
            pair = np.exp(0.5j * (ka + kb) * (xa + xb)) * _pair_bound(
                params.alpha, params.gamma_t**2, ka, kb, xa - xb
            )
            tier_b += 2.0 * t[i] * np.exp(1j * k[i] * x[j]) * pair

    out = (tier_a + tier_b + _connected_out(params, k, x)) / (6.0 * (2.0 * np.pi) ** 1.5)
    return out if out.ndim else complex(out)
