"""Two-channel scattering: a pair of waveguides sharing one atom.

Single-photon channel amplitudes, the two-photon S-matrix elements for the
cross-channel incident pair, spatial pair wavefunctions g_ij, and the
second-order correlation.  One table, ``_channel_products``, states each
outgoing channel's single-photon weights; the S-matrix and the pair
wavefunctions both read it.  Both waveguides have unit group velocity, the
package convention, so momentum and energy coincide in each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from photon_scatter.core import DeltaTerm, HWGParams, ScatteringAmplitudeSet
from photon_scatter.twg import _pair_envelope, _pair_t

__all__ = [
    "ChannelAmplitudes",
    "channel_amplitudes",
    "two_photon_t_h",
    "two_photon_s_h",
    "pair_wavefunction",
    "second_order_correlation",
]


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


def channel_amplitudes(params: HWGParams, k) -> ChannelAmplitudes:
    """Evaluate t11, t21, t22 at momentum k (scalar or array, finite).

    k broadcasts with the fields of ``params``, which may be arrays too.
    """
    k = np.asarray(k, dtype=float)
    if not np.isfinite(k).all():
        raise ValueError("momentum must be finite")
    v1, v2 = params.vbar
    pole = k - params.omega_atom + 0.5j * (v1**2 + v2**2)
    t11 = (k - params.omega_atom + 0.5j * (v2**2 - v1**2)) / pole
    t21 = -1j * v1 * v2 / pole
    t22 = (k - params.omega_atom + 0.5j * (v1**2 - v2**2)) / pole
    if np.ndim(t11):
        return ChannelAmplitudes(t11, t21, t22)
    return ChannelAmplitudes(complex(t11), complex(t21), complex(t22))


def _coupling(params: HWGParams, channels) -> float:
    # entry by entry over an array record, not over all of its entries
    return np.prod(np.broadcast_arrays(*(params.vbar[c - 1] for c in channels)), axis=0)


def two_photon_t_h(params: HWGParams, channels, k1: float, k2: float, p1, p2):
    """Connected two-photon T density (with the leading i) between channels.

    ``channels = (i1, i2, j1, j2)``: incoming photons in waveguides i1, i2
    and outgoing in j1, j2 (labels 1 or 2).  The channel dependence is the
    coupling prefactor vbar_i1 vbar_i2 vbar_j1 vbar_j2; the pole structure
    is channel-blind.
    """
    if len(channels) != 4 or any(c not in (1, 2) for c in channels):
        raise ValueError("channels must be four waveguide labels 1 or 2")
    return _pair_t(params.alpha_h, _coupling(params, channels), k1, k2, p1, p2)


def _channel_products(params: HWGParams, k1: float, k2: float) -> dict:
    """Single-photon products of the incident pair (k1 in wg 1, k2 in wg 2).

    Keyed by outgoing channel (j1, j2), slot-ordered; each value is the
    (direct, exchange) pair of weights pinned at (p1, p2) = (k1, k2) and at
    (k2, k1).  A same-guide channel carries one product on both pinnings;
    the mixed one has both photons keep their waveguide (direct) or both
    switch (exchange).
    """
    c1 = channel_amplitudes(params, k1)
    c2 = channel_amplitudes(params, k2)
    return {
        (1, 1): (c1.t11 * c2.t21, c1.t11 * c2.t21),
        (1, 2): (c1.t11 * c2.t22, c1.t21 * c2.t21),
        (2, 2): (c1.t21 * c2.t22, c1.t21 * c2.t22),
    }


def two_photon_s_h(params: HWGParams, k1: float, k2: float) -> dict:
    """S-matrix elements for the incident pair (k1 in wg 1, k2 in wg 2).

    Returns the three outgoing-channel elements keyed by (1, 1), (1, 2) and
    (2, 2).  The (1, 2) key is slot-ordered: first momentum in waveguide 1.
    """
    return {
        pair: ScatteringAmplitudeSet(
            total_energy=k1 + k2,
            disconnected=(DeltaTerm((k1, k2), direct), DeltaTerm((k2, k1), exchange)),
            connected=partial(two_photon_t_h, params, (1, 2, *pair), k1, k2),
        )
        for pair, (direct, exchange) in _channel_products(params, k1, k2).items()
    }


def pair_wavefunction(params: HWGParams, pair, k1: float, k2: float, x):
    """g_{j1 j2}(x) of the outgoing channel ``pair`` = (j1, j2).

    Relative-coordinate pair wavefunction for the (1, 2) incident pair; it
    multiplies exp(i E x_c).  The shell transform of :func:`two_photon_s_h`'s
    element: both delta pinnings as plane waves plus twice the pair bound
    term, shared equally by the two slots of a same-guide channel.  The
    same-channel functions are even in x, while g12 mixes direct and
    exchange paths with different weights and is not parity symmetric.  All
    bound terms share the decay constant Im(E/2 - alpha_h), which equals
    gamma_e/2 on two-photon resonance.
    """
    pair = tuple(pair)
    products = _channel_products(params, k1, k2)
    if pair not in products:
        raise ValueError("channel pair must be (1,1), (1,2) or (2,2)")
    direct, exchange = products[pair]
    share = 0.5 if pair[0] == pair[1] else 1.0
    couplings = [params.vbar[c - 1] for c in (1, 2, *pair)]
    return share * _pair_envelope(params.alpha_h, couplings, k1, k2, direct, exchange, x)


def second_order_correlation(params: HWGParams, pair, k1: float, k2: float, x):
    """G2 of the outgoing pair in the given channel pair: |g_ij(x)|^2."""
    val = np.abs(pair_wavefunction(params, pair, k1, k2, x)) ** 2
    return val if np.ndim(val) else float(val)
