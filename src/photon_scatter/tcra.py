"""Single-photon scattering and bound states on the atom-coupled resonator chain.

Everything here works on the full cosine band; the linearized waveguide
counterparts live in :mod:`photon_scatter.twg`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from photon_scatter.core import TCRAParams

__all__ = [
    "BAND_EDGE_SIN",
    "BoundState",
    "reflection_amplitude",
    "self_energy",
    "bound_state_energies",
    "bound_state_wavefunction",
]

# |sin k| below this counts as a band edge, where the amplitude degenerates
BAND_EDGE_SIN = 1e-9


def reflection_amplitude(params: TCRAParams, k):
    """Reflection amplitude r_k of a single photon off the atom site.

    Parameters
    ----------
    params : TCRAParams
        Its fields may be arrays; they broadcast with k.
    k : float or ndarray
        Momentum strictly inside the band, ``0 < |k| < pi``.

    Returns
    -------
    complex or ndarray
        ``r_k = -i gamma / (2 J sin k (eps_k - omega_atom) + i gamma)``.
        The transmission amplitude is ``1 + r_k``.
    """
    k = np.asarray(k, dtype=float)
    band = params.band
    # the zone check comes first: it refuses nan and inf as well
    detune = band.energy(k) - params.omega_atom
    if np.any(np.abs(np.sin(k)) < BAND_EDGE_SIN):
        raise ValueError("momentum at a band edge; reflection amplitude undefined")
    vg = band.group_velocity(k)
    r = -1j * params.gamma / (vg * detune + 1j * params.gamma)
    return r if r.ndim else complex(r)


def self_energy(params: TCRAParams, omega: float) -> complex:
    """Atom self-energy -Sigma(omega + i0), complex, the sign that enters E - Omega.

    Sigma(z) = V^2 / sqrt((z - omega0)^2 - 4 J^2), the branch that falls off
    like V^2 / z: the atom propagator is G(z) = 1 / (z - Omega + self_energy)
    and a bound state solves E - Omega + self_energy = 0 (at omega0 + 3J, J =
    V = 1, the value is -1/sqrt(5)).  Inside the band it is i gamma /
    sqrt(4 J^2 - (omega - omega0)^2), outside real.  Raises at the band edges.
    """
    d = omega - params.omega_cavity
    two_j = 2.0 * params.hopping
    # factorized form avoids cancellation for |d| barely above the edge
    gap2 = (d - two_j) * (d + two_j)
    if not abs(gap2) >= 1e-14 * two_j**2:
        raise ValueError("self-energy is singular at the band edge and undefined at nan")
    if gap2 < 0.0:
        return 1j * params.gamma / np.sqrt(-gap2)
    return complex(-params.gamma * np.sign(d) / np.sqrt(gap2))


@dataclass(frozen=True)
class BoundState:
    """One single-photon bound state outside the band.

    ``decay_log = ln kappa < 0`` fixes the exponential envelope; the upper
    branch carries the site-alternating sign.  ``residual`` is that of the
    defining equation relative to its terms (see :func:`bound_state_energies`).
    """

    energy: float
    branch: str  # "lower" | "upper"
    decay_log: float
    amplitude: float
    residual: float

    @property
    def sign_alternating(self) -> bool:
        return self.branch == "upper"

    @property
    def kappa(self) -> float:
        return float(np.exp(self.decay_log))


def _rise(q: float) -> float:
    # sqrt(q^2 + 4) - 2 without cancellation: |E - band edge| / J; where q^2
    # overflows, q is past 2^511 and sqrt(q^2 + 4) - 2 rounds to q
    q2 = q * q
    return q if q2 == math.inf else q2 / (math.sqrt(q2 + 4.0) + 2.0)


def _branches(params: TCRAParams):
    # per bound state: branch, side, band edge and the distance d from Omega
    # to that edge, counted into the band
    for branch, sign in (("lower", -1.0), ("upper", 1.0)):
        edge = params.omega_cavity + sign * 2.0 * params.hopping
        yield branch, sign, edge, sign * (edge - params.omega_atom)


# a decay above this stays a normal float through the bisection
_DECAY_FLOOR = 2.0 * sys.float_info.min


def _decay_root(d: float, j: float, r: float) -> float:
    """The root q > _DECAY_FLOOR of f(q) = q (d + J rise(q)) - r."""

    def f(q):
        return q * (d + j * _rise(q)) - r

    # rise(q) >= q - 2, so d + J rise >= J q / 2 and f >= J q^2 / 2 - r at hi;
    # r / J overflows where J is far below V, so its root is then taken apart
    reach = 2.0 * r / j
    reach = math.sqrt(reach) if reach < math.inf else math.sqrt(2.0 * r) / math.sqrt(j)
    hi = max(2.0 * (abs(d) + 2.0 * j) / j, reach)
    if not hi < math.inf:
        raise ValueError("bound states need a decay rate q that is a finite float")
    lo = hi
    while f(lo) >= 0.0:
        hi, lo = lo, 0.5 * lo
    # the bracket spans a factor 2 now; bisect it down to adjacent floats
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return min(lo, hi, key=lambda q: abs(f(q)))


def bound_state_energies(params: TCRAParams) -> tuple[BoundState, BoundState]:
    """Both single-photon bound states, (lower, upper).

    One lies below the band bottom and one above the band top for every
    V > 0.  Each branch is solved in q = 1/kappa - kappa =
    sqrt((E - omega0)^2 - 4J^2) / J > 0.  With d the distance from Omega
    to that band edge, counted into the band, and r = gamma / J, the
    bound-state equation reads f(q) = q (d + J q^2 / (sqrt(q^2 + 4) + 2))
    - r = 0.  Since f(0) = -r and f increases wherever it is positive, it
    has exactly one root in q > 0, found by bisection.  Every output follows
    from q without cancellation: E = edge +- J q^2 / (sqrt(q^2 + 4) + 2),
    ``decay_log = -asinh(q / 2)`` and ``amplitude = V / (J q)``.
    ``residual`` is |f(q)| relative to the sum of its terms' magnitudes.

    Raises ValueError for V = 0, for a coupling so weak that q falls
    below ``_DECAY_FLOOR``, where f = q d - r (V below about 3e-154 at
    Omega = omega0, J = 1), and where q's bracket overflows: J so far below
    V or |Omega - omega0| that q ~ V / J or |Omega - omega0| / J is past the
    float range, as at J = 1e-320, V = 1 (at J = 1e-160, V = 1, q = 1e160
    and E = -+1 are found).
    """
    j, r = params.hopping, params.gamma / params.hopping
    if not all(_DECAY_FLOOR * d < r for *_, d in _branches(params)):
        raise ValueError(
            "bound states require a nonzero coupling whose decay rate is a normal float"
        )
    states = []
    for branch, sign, edge, d in _branches(params):
        q = _decay_root(d, j, r)
        rise = _rise(q)
        res = abs(q * (d + j * rise) - r) / (q * abs(d) + q * j * rise + r)
        e = edge + sign * j * rise
        states.append(BoundState(e, branch, -math.asinh(0.5 * q), params.coupling / (j * q), res))
    return states[0], states[1]


def bound_state_wavefunction(state: BoundState, x):
    """Site amplitude psi(x) of a bound state at integer site offsets x.

    The envelope is ``amplitude * kappa^|x|``; the upper branch alternates
    sign from site to site.
    """
    # |x| stays float: an integer cast wraps at 2^63 and the envelope with it
    absx = np.abs(np.asarray(x, dtype=float))
    if np.any(absx != np.round(absx)):
        raise ValueError("bound-state wavefunction is defined on integer sites")
    psi = state.amplitude * np.exp(state.decay_log * absx)
    if state.sign_alternating:
        psi = psi * np.where(np.fmod(absx, 2.0) == 0.0, 1.0, -1.0)
    return psi if psi.ndim else float(psi)
