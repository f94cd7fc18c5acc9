"""Two-channel scattering: a pair of waveguides sharing one atom.

Single-photon channel amplitudes, the two-photon S-matrix elements for the
cross-channel incident pair, spatial pair wavefunctions g_ij, and the
second-order correlation.  Both waveguides have unit group velocity, the
package convention, so momentum and energy coincide in each.

Every quantity is the single-channel waveguide's, rotated.  The bright mode
(vbar1 a1 + vbar2 a2) / sqrt(gamma_e) meets the atom as the waveguide of
:mod:`photon_scatter.twg` does at gamma_t = gamma_e (``HWGParams.bright``),
and the dark mode never meets it: the even/odd argument of Shen & Fan, PRA
76, 062709 (2007).  With the weights w_i w_j = vbar_i vbar_j / gamma_e:

- a photon from waveguide j leaves in waveguide i with t_ij = delta_ij +
  w_i w_j r_k, r_k = t_k - 1 the bright mode's scattered part;
- the connected pair T is w_i1 w_i2 w_j1 w_j2 times the bright T2, since
  only bright photons meet the atom;
- the S-matrix of each outgoing channel is the cluster sum of
  :func:`photon_scatter.core._cluster_terms`: each delta pinning of a pair
  carries the product of t_ij over its two legs, the cluster term the
  product of w over its four legs times the bright T2, and the pair
  wavefunction's bound term that weight times the bright pair term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from photon_scatter.core import HWGParams, Term, _cluster_terms
from photon_scatter.twg import _pair_envelope, _scattered, two_photon_t

__all__ = [
    "ChannelAmplitudes",
    "channel_amplitudes",
    "two_photon_t_h",
    "two_photon_s_h",
    "pair_wavefunction",
    "second_order_correlation",
]

# outgoing channel pairs of the (1, 2) incident pair, slot-ordered
_PAIRS = ((1, 1), (1, 2), (2, 2))


@dataclass(frozen=True)
class ChannelAmplitudes:
    """Single-photon amplitudes at one momentum (arrays allowed).

    t11/t22 keep the photon in its waveguide, t21 moves it across; time
    reversal makes the cross amplitude direction-independent.  The fields
    are arrays when the momentum or the record's fields are;
    ``unitarity_defect`` is then the largest over all their entries.
    """

    t11: complex
    t21: complex
    t22: complex

    def unitarity_defect(self) -> float:
        d1 = np.abs(self.t11) ** 2 + np.abs(self.t21) ** 2 - 1.0
        d2 = np.abs(self.t22) ** 2 + np.abs(self.t21) ** 2 - 1.0
        return float(np.max(np.abs(np.stack([d1, d2]))))


def _weight(params: HWGParams, i: int, j: int):
    # w_i w_j, entry by entry over an array record
    return params.vbar[i - 1] * params.vbar[j - 1] / params.gamma_e


def _amplitudes(params: HWGParams, k):
    """t(i, j) at momentum k: from waveguide j into waveguide i."""
    r = _scattered(params.bright, k)
    return lambda i, j: float(i == j) + _weight(params, i, j) * r


def channel_amplitudes(params: HWGParams, k) -> ChannelAmplitudes:
    """Evaluate t11, t21, t22 at momentum k (scalar or array, finite).

    k broadcasts with the fields of ``params``, which may be arrays too.
    """
    t = _amplitudes(params, k)
    t11, t21, t22 = t(1, 1), t(2, 1), t(2, 2)
    if np.ndim(t11):
        return ChannelAmplitudes(t11, t21, t22)
    return ChannelAmplitudes(complex(t11), complex(t21), complex(t22))


def _cluster_weight(params: HWGParams, incoming, outgoing):
    # the product of w over a pair cluster's incoming and outgoing legs
    return _weight(params, *incoming) * _weight(params, *outgoing)


def two_photon_t_h(params: HWGParams, channels, k1: float, k2: float, p1, p2):
    """Connected two-photon T density (with the leading i) between channels.

    ``channels = (i1, i2, j1, j2)``: incoming photons in waveguides i1, i2
    and outgoing in j1, j2 (labels 1 or 2).  The bright T2 weighted by
    w_i1 w_i2 w_j1 w_j2; the pole structure is channel-blind.
    """
    if len(channels) != 4 or any(c not in (1, 2) for c in channels):
        raise ValueError("channels must be four waveguide labels 1 or 2")
    weight = _cluster_weight(params, channels[:2], channels[2:])
    return weight * two_photon_t(params.bright, k1, k2, p1, p2)


def _channel_s(params: HWGParams, pair, k1: float, k2: float) -> tuple[Term, ...]:
    """The cluster sum of outgoing channel ``pair`` = (j1, j2).

    The incident pair has k1 in waveguide 1 and k2 in waveguide 2.  A
    photon sent to slot s carries t_{j_s c} of its waveguide c, and the
    pair cluster w_1 w_2 w_j1 w_j2 times the channel-blind bright T2.  So
    the direct pinning (p1, p2) = (k1, k2) weighs t_{j1 1}(k1) t_{j2 2}(k2)
    and the exchange pinning (k2, k1) t_{j2 1}(k1) t_{j1 2}(k2).
    """
    t = [_amplitudes(params, k1), _amplitudes(params, k2)]
    density = partial(two_photon_t, params.bright, k1, k2)
    return _cluster_terms(
        (k1, k2),
        lambda i, s: t[i](pair[s], i + 1),
        lambda legs, slots: (
            _cluster_weight(params, [i + 1 for i in legs], [pair[s] for s in slots]),
            density,
        ),
    )


def two_photon_s_h(params: HWGParams, k1: float, k2: float) -> dict:
    """S-matrix elements for the incident pair (k1 in wg 1, k2 in wg 2).

    Returns the cluster sums of the three outgoing channels, in the order
    of :func:`photon_scatter.twg.two_photon_s`, keyed by (1, 1), (1, 2) and
    (2, 2).  The (1, 2) key is slot-ordered: first momentum in waveguide 1.
    """
    return {pair: _channel_s(params, pair, k1, k2) for pair in _PAIRS}


def pair_wavefunction(params: HWGParams, pair, k1: float, k2: float, x):
    """g_{j1 j2}(x) of the outgoing channel ``pair`` = (j1, j2).

    Relative-coordinate pair wavefunction for the (1, 2) incident pair; it
    multiplies exp(i E x_c).  The shell transform of :func:`two_photon_s_h`'s
    element: both delta pinnings as plane waves plus twice the bright pair
    bound term, weighted as the connected T, shared equally by the two slots
    of a same-guide channel.  The same-channel functions are even in x,
    while g12 mixes direct and exchange paths with different weights and is
    not parity symmetric.  All bound terms decay in |x| at gamma_e/2, the
    bright waveguide's rate.
    """
    pair = tuple(pair)
    if pair not in _PAIRS:
        raise ValueError("channel pair must be (1,1), (1,2) or (2,2)")
    share = 0.5 if pair[0] == pair[1] else 1.0
    return share * _pair_envelope(params.bright, _channel_s(params, pair, k1, k2), x)


def second_order_correlation(params: HWGParams, pair, k1: float, k2: float, x):
    """G2 of the outgoing pair in the given channel pair: |g_ij(x)|^2."""
    val = np.abs(pair_wavefunction(params, pair, k1, k2, x)) ** 2
    return val if np.ndim(val) else float(val)
