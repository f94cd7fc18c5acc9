"""Two-channel scattering: a pair of waveguides sharing one atom.

Single-photon channel amplitudes, the two-photon S-matrix elements for the
cross-channel incident pair, spatial pair wavefunctions g_ij, and the
second-order correlation.  The spatial formulas follow the equal-velocity
convention v1 = v2 = 1; the parameter record carries general velocities for
the decay rate only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from photon_scatter.core import DeltaTerm, HWGParams, ScatteringAmplitudeSet
from photon_scatter.twg import _pair_bound, _pair_t

__all__ = [
    "ChannelAmplitudes",
    "channel_amplitudes",
    "two_photon_t_h",
    "two_photon_s_h",
    "PairWavefunctions",
    "pair_wavefunctions",
    "second_order_correlation",
]


def _require_unit_velocities(params: HWGParams) -> None:
    if params.group_velocity != (1.0, 1.0):
        raise ValueError("channel formulas are defined for group velocities (1, 1)")


@dataclass(frozen=True)
class ChannelAmplitudes:
    """Single-photon amplitudes at one momentum (arrays allowed).

    t11/t22 keep the photon in its waveguide, t21 moves it across; time
    reversal makes the cross amplitude direction-independent.
    """

    t11: complex
    t21: complex
    t22: complex

    def unitarity_defect(self) -> float:
        d1 = np.abs(self.t11) ** 2 + np.abs(self.t21) ** 2 - 1.0
        d2 = np.abs(self.t22) ** 2 + np.abs(self.t21) ** 2 - 1.0
        return float(np.max(np.abs(np.stack([d1, d2]))))


def channel_amplitudes(params: HWGParams, k) -> ChannelAmplitudes:
    """Evaluate t11, t21, t22 at momentum k (scalar or array)."""
    _require_unit_velocities(params)
    k = np.asarray(k, dtype=float)
    v1, v2 = params.vbar
    pole = k - params.omega_atom + 0.5j * (v1**2 + v2**2)
    t11 = (k - params.omega_atom + 0.5j * (v2**2 - v1**2)) / pole
    t21 = -1j * v1 * v2 / pole
    t22 = (k - params.omega_atom + 0.5j * (v1**2 - v2**2)) / pole
    if k.ndim:
        return ChannelAmplitudes(t11, t21, t22)
    return ChannelAmplitudes(complex(t11), complex(t21), complex(t22))


def two_photon_t_h(params: HWGParams, channels, k1: float, k2: float, p1, p2):
    """Connected two-photon T density (with the leading i) between channels.

    ``channels = (i1, i2, j1, j2)``: incoming photons in waveguides i1, i2
    and outgoing in j1, j2 (labels 1 or 2).  The channel dependence is the
    coupling prefactor vbar_i1 vbar_i2 vbar_j1 vbar_j2; the pole structure
    is channel-blind.
    """
    _require_unit_velocities(params)
    if len(channels) != 4 or any(c not in (1, 2) for c in channels):
        raise ValueError("channels must be four waveguide labels 1 or 2")
    pref = np.prod([params.vbar[c - 1] for c in channels])
    return _pair_t(params.alpha_h, pref, k1, k2, p1, p2)


def two_photon_s_h(params: HWGParams, k1: float, k2: float) -> dict:
    """S-matrix elements for the incident pair (k1 in wg 1, k2 in wg 2).

    Returns the three outgoing-channel elements keyed by (1, 1), (1, 2) and
    (2, 2).  The (1, 2) key is slot-ordered: first momentum in waveguide 1.
    Both same-channel elements carry one amplitude product on both delta
    pairings; the mixed element distinguishes direct (both photons keep
    their waveguide) from exchange (both switch).
    """
    _require_unit_velocities(params)
    c1 = channel_amplitudes(params, k1)
    c2 = channel_amplitudes(params, k2)
    e = k1 + k2

    def density(j1, j2):
        def conn(p1, p2):
            return two_photon_t_h(params, (1, 2, j1, j2), k1, k2, p1, p2)

        return conn

    out = {}
    out[(1, 1)] = ScatteringAmplitudeSet(
        total_energy=e,
        disconnected=(
            DeltaTerm((k1, k2), c1.t11 * c2.t21),
            DeltaTerm((k2, k1), c1.t11 * c2.t21),
        ),
        connected=density(1, 1),
    )
    out[(1, 2)] = ScatteringAmplitudeSet(
        total_energy=e,
        disconnected=(
            DeltaTerm((k1, k2), c1.t11 * c2.t22),  # both stay
            DeltaTerm((k2, k1), c1.t21 * c2.t21),  # both switch
        ),
        connected=density(1, 2),
    )
    out[(2, 2)] = ScatteringAmplitudeSet(
        total_energy=e,
        disconnected=(
            DeltaTerm((k1, k2), c1.t21 * c2.t22),
            DeltaTerm((k2, k1), c1.t21 * c2.t22),
        ),
        connected=density(2, 2),
    )
    return out


@dataclass(frozen=True)
class PairWavefunctions:
    """Relative-coordinate pair wavefunctions of the three outgoing channels.

    Each g_ij multiplies exp(i E x_c); the same-channel functions are even
    in x while g12 mixes direct and exchange paths with different weights
    and is not parity symmetric.  All bound terms share the decay constant
    Im(E/2 - alpha_h), which equals gamma_e/2 on two-photon resonance.
    """

    params: HWGParams
    k1: float
    k2: float

    @property
    def total_energy(self) -> float:
        return self.k1 + self.k2

    @property
    def relative_momentum(self) -> float:
        return 0.5 * (self.k1 - self.k2)

    def _bound(self, x, coupling: float):
        # the connected term of the channel whose T density carries coupling
        return _pair_bound(self.params.alpha_h, coupling, self.k1, self.k2, x)

    def g11(self, x):
        v1, v2 = self.params.vbar
        c1 = channel_amplitudes(self.params, self.k1)
        c2 = channel_amplitudes(self.params, self.k2)
        plane = c1.t11 * c2.t21 * np.cos(self.relative_momentum * np.asarray(x))
        return (plane + self._bound(x, v2 * v1**3)) / (2.0 * np.pi)

    def g22(self, x):
        v1, v2 = self.params.vbar
        c1 = channel_amplitudes(self.params, self.k1)
        c2 = channel_amplitudes(self.params, self.k2)
        plane = c1.t21 * c2.t22 * np.cos(self.relative_momentum * np.asarray(x))
        return (plane + self._bound(x, v1 * v2**3)) / (2.0 * np.pi)

    def g12(self, x):
        v1, v2 = self.params.vbar
        x = np.asarray(x, dtype=float)
        c1 = channel_amplitudes(self.params, self.k1)
        c2 = channel_amplitudes(self.params, self.k2)
        direct = c1.t11 * c2.t22
        exchange = c1.t21 * c2.t21
        dk = self.relative_momentum
        plane = (direct + exchange) * np.cos(dk * x) + 1j * (direct - exchange) * np.sin(dk * x)
        return (plane + self._bound(x, 2.0 * v1**2 * v2**2)) / (2.0 * np.pi)

    def channel(self, pair):
        table = {(1, 1): self.g11, (1, 2): self.g12, (2, 2): self.g22}
        if tuple(pair) not in table:
            raise ValueError("channel pair must be (1,1), (1,2) or (2,2)")
        return table[tuple(pair)]


def pair_wavefunctions(params: HWGParams, k1: float, k2: float) -> PairWavefunctions:
    """Spatial pair wavefunctions for the (1, 2) incident pair."""
    _require_unit_velocities(params)
    return PairWavefunctions(params, k1, k2)


def second_order_correlation(params: HWGParams, pair, k1: float, k2: float, x):
    """G2 of the outgoing pair in the given channel pair: |g_ij(x)|^2."""
    g = pair_wavefunctions(params, k1, k2).channel(pair)
    val = np.abs(g(x)) ** 2
    return val if np.ndim(val) else float(val)
