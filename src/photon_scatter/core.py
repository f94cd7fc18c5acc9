"""Shared parameter records, dispersions, kinematics, and amplitude containers.

Conventions used throughout the package: the lattice spacing is 1, hbar = 1,
and in the linearized waveguide modules the group velocity is 1, a
convention and not a parameter, so that momentum and energy coincide for a
right-moving photon.  Dirac deltas are never sampled on a grid: an S-matrix
element is returned as its cluster sum, a tuple of :class:`Term` s, each
some outgoing slots pinned by momentum deltas times a smooth density over
the others.  One rule assembles every such sum, :func:`_cluster_terms`:
each incoming photon either leaves alone, a delta-pinned single-photon
amplitude, or joins the one connected cluster, whose T density carries
the rest (the LSZ cluster decomposition, exact up to three photons).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "CosineBand",
    "TCRAParams",
    "TWGParams",
    "HWGParams",
    "Term",
    "ToleranceError",
]


class ToleranceError(RuntimeError):
    """A numerical procedure failed to reach its requested tolerance."""


# the double above 2 / (largest double), about 1.1125e-308: at or below
# this linewidth gamma the resonant pole k - alpha = i gamma / 2 has no
# finite reciprocal, and every amplitude reads inf or nan at k = Omega.
# Below it 2 / gamma overflows; at it numpy's complex division still does.
_LEAST_LINEWIDTH = np.nextafter(2.0 / np.finfo(float).max, 1.0)


def _require_finite(*values) -> None:
    # nan makes every comparison false, so a range check alone lets it through;
    # the fields broadcast together, scalars and arrays alike
    if not np.isfinite(np.broadcast_arrays(*values)).all():
        raise ValueError("parameters must be finite")


# ---------------------------------------------------------------------------
# dispersion relations


@dataclass(frozen=True)
class CosineBand:
    """Tight-binding cosine band eps_k = omega_cavity - 2 J cos k.

    Parameters
    ----------
    omega_cavity : float or ndarray
        Bare resonator frequency (band center).
    hopping : float or ndarray
        Nearest-neighbor hopping J > 0.

    Fields may be arrays that broadcast together; every entry is checked,
    and ``energy`` and ``group_velocity`` broadcast over them and k.
    """

    omega_cavity: float
    hopping: float

    def __post_init__(self) -> None:
        _require_finite(self.omega_cavity, self.hopping)
        if not np.all(self.hopping > 0.0):
            raise ValueError("hopping must be positive")

    @property
    def band_bottom(self) -> float:
        return self.omega_cavity - 2.0 * self.hopping

    @property
    def band_top(self) -> float:
        return self.omega_cavity + 2.0 * self.hopping

    def energy(self, k):
        """Band energy at momentum k, defined for k in (-pi, pi]."""
        k = np.asarray(k, dtype=float)
        if not np.all((k > -np.pi) & (k <= np.pi)):
            raise ValueError("momentum outside the first Brillouin zone (-pi, pi]")
        return self.omega_cavity - 2.0 * self.hopping * np.cos(k)

    def group_velocity(self, k):
        """d eps / d k = 2 J sin k."""
        k = np.asarray(k, dtype=float)
        return 2.0 * self.hopping * np.sin(k)


# ---------------------------------------------------------------------------
# parameter records


@dataclass(frozen=True)
class TCRAParams:
    """Atom-coupled resonator chain with the full cosine band.

    Parameters
    ----------
    omega_atom : float or ndarray
        Two-level atom splitting.
    omega_cavity : float or ndarray
        Resonator frequency.
    hopping : float or ndarray
        Inter-cavity hopping J > 0.
    coupling : float or ndarray
        Atom-cavity hybridization V >= 0 at the center site.

    Notes
    -----
    The single-photon decay scale is ``gamma = coupling**2``.  Fields may be
    arrays that broadcast together, one parameter point per entry; every
    entry is checked.  :func:`photon_scatter.tcra.reflection_amplitude`
    broadcasts over them, while the bound states, the self-energy and the
    lattice oracle take scalar fields and raise on an array of several
    entries.
    """

    omega_atom: float
    omega_cavity: float
    hopping: float
    coupling: float

    def __post_init__(self) -> None:
        _require_finite(self.omega_atom, self.omega_cavity, self.hopping, self.coupling)
        if not np.all(self.hopping > 0.0):
            raise ValueError("hopping must be positive")
        if np.any(self.coupling < 0.0):
            raise ValueError("coupling must be nonnegative")

    @property
    def gamma(self) -> float:
        return self.coupling**2

    @property
    def band(self) -> CosineBand:
        return CosineBand(self.omega_cavity, self.hopping)


@dataclass(frozen=True)
class TWGParams:
    """Linearized single-channel waveguide coupled to a two-level atom.

    ``gamma_t`` is the total atom decay rate into the even channel; the
    complex pole of every amplitude sits at ``alpha = omega_atom - i gamma_t/2``,
    and a linewidth for which 2 / gamma_t overflows is refused.  Array
    fields are checked entry by entry, as in the other records, but the
    functions of :mod:`photon_scatter.twg` are written for scalar fields;
    the three-photon T densities broadcast over the momenta instead.
    """

    omega_atom: float
    gamma_t: float

    def __post_init__(self) -> None:
        _require_finite(self.omega_atom, self.gamma_t)
        if not np.all(self.gamma_t > 0.0):
            raise ValueError("gamma_t must be positive")
        if np.any(self.gamma_t <= _LEAST_LINEWIDTH):
            raise ValueError("gamma_t is so small that 2 / gamma_t overflows")

    @property
    def alpha(self) -> complex:
        return self.omega_atom - 0.5j * self.gamma_t


@dataclass(frozen=True)
class HWGParams:
    """Two linearized waveguides sharing one two-level atom.

    Both waveguides have unit group velocity, the package convention, so the
    total decay rate is ``gamma_e = vbar1**2 + vbar2**2``.  Only the bright
    mode (vbar1 a1 + vbar2 a2) / sqrt(gamma_e) meets the atom, as the
    single-channel waveguide does at gamma_t = gamma_e: ``bright`` is that
    waveguide's record, and :mod:`photon_scatter.hwg` rotates its amplitudes
    back onto the two waveguides.

    Parameters
    ----------
    omega_atom : float or ndarray
        Atom splitting.
    vbar : (float, float), either entry may be an ndarray
        Even-channel couplings of the two waveguides.

    The fields may be arrays that broadcast together, one parameter point
    per entry; every entry is checked, and a pair that vanishes at any one
    entry is refused, as is one whose gamma_e overflows to infinity or for
    which 2 / gamma_e overflows.
    :func:`photon_scatter.hwg.channel_amplitudes`,
    ``ChannelAmplitudes.unitarity_defect``, ``hwg.two_photon_t_h`` and
    ``hwg.pair_wavefunction`` broadcast over them.
    """

    omega_atom: float
    vbar: tuple[float, float]

    def __post_init__(self) -> None:
        if len(self.vbar) != 2:
            raise ValueError("vbar must be a pair")
        v1, v2 = self.vbar
        _require_finite(self.omega_atom, v1, v2)
        if not np.all((v1 >= 0.0) & (v2 >= 0.0)):
            raise ValueError("couplings must be nonnegative")
        if np.any((v1 == 0.0) & (v2 == 0.0)):
            raise ValueError("at least one coupling must be nonzero")
        # couplings above about 1.3e154 square to an infinite gamma_e, and
        # those below about 1.05e-154 to one for which 2 / gamma_e overflows,
        # which the bright waveguide refuses; both are named here, not as
        # gamma_t.  numpy would also warn on an array entry's overflow, which
        # this reports.
        with np.errstate(over="ignore"):
            gamma = self.gamma_e
        if not np.all(np.isfinite(gamma) & (gamma > _LEAST_LINEWIDTH)):
            raise ValueError("gamma_e overflows to infinity or 2 / gamma_e overflows")

    @property
    def gamma_e(self) -> float:
        # products, not **, which raises for a Python float past the largest
        # float; numpy squares an array's entries the same way
        return self.vbar[0] * self.vbar[0] + self.vbar[1] * self.vbar[1]

    @property
    def bright(self) -> TWGParams:
        return TWGParams(self.omega_atom, self.gamma_e)


# ---------------------------------------------------------------------------
# kinematics

# relative tolerance on total-energy conservation of outgoing momenta
_ONSHELL_RTOL = 1e-10


def _require_on_shell(e_in, e_out) -> None:
    # entrywise over broadcast arrays, and written so that a nan or an
    # infinite momentum fails it too
    tol = _ONSHELL_RTOL * np.maximum(1.0, np.abs(e_in))
    if not np.all((np.abs(np.asarray(e_out) - e_in) <= tol) & np.isfinite(e_in)):
        raise ValueError("momenta must be finite and conserve the total energy")


# ---------------------------------------------------------------------------
# structured S-matrix values


@dataclass(frozen=True)
class Term:
    """One term of an S-matrix element's cluster sum.

    ``pinned`` holds slot-ordered (slot, momentum) pairs, each standing for
    delta(p_slot - momentum).  ``density`` is a function of the momenta of
    the other slots, in slot order, and multiplies the energy delta of
    those slots; it is ``None`` when every slot is pinned.  The term is
    ``weight`` times the deltas times the density, in continuum
    normalization.
    """

    pinned: tuple[tuple[int, float], ...]
    weight: complex
    density: Callable[..., complex] | None


def _cluster_terms(k, single, connected) -> tuple[Term, ...]:
    """The cluster sum of an S-matrix element with incoming momenta ``k``.

    Sums over every split of the incoming legs into singletons plus at most
    one cluster, and over every injective map of the singletons onto
    outgoing slots.  A singleton i sent to slot s is pinned there with the
    weight ``single(i, s)``; the cluster, with incoming legs ``legs`` and
    the remaining outgoing slots ``slots``, contributes ``connected(legs,
    slots)``, a (weight, density) pair.  A term's weight is the product of
    its singletons' weights, in leg order, and its cluster's.

    Every split has at most one cluster only up to three photons, so four
    or more raise ``ValueError``.  The fully connected term comes first,
    then the terms of ever smaller clusters, the fully pinned ones last.
    """
    n = len(k)
    if n > 3:
        raise ValueError(f"the cluster sum holds up to 3 photons, got {n}")
    terms = []
    # cluster sizes, largest first; a cluster of one photon is a singleton
    for size in (c for c in range(n, -1, -1) if c != 1):
        for singles in itertools.combinations(range(n), n - size):
            legs = tuple(i for i in range(n) if i not in singles)
            for to in itertools.permutations(range(n), n - size):
                factors = [single(i, s) for i, s in zip(singles, to)]
                density = None
                if legs:
                    weight, density = connected(legs, tuple(s for s in range(n) if s not in to))
                    factors.append(weight)
                pinned = tuple(sorted(zip(to, (k[i] for i in singles))))
                terms.append(Term(pinned, functools.reduce(operator.mul, factors), density))
    return tuple(terms)
