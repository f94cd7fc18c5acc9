"""Shared parameter records, dispersions, kinematics, and amplitude containers.

Conventions used throughout the package: the lattice spacing is 1, hbar = 1,
and in the linearized waveguide modules the group velocity is 1, a
convention and not a parameter, so that momentum and energy coincide for a
right-moving photon.  Dirac deltas are never sampled on a grid; scattering
matrices are returned as a structured split into delta-supported
(disconnected) terms and a smooth connected density, see
:class:`ScatteringAmplitudeSet`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "CosineBand",
    "TCRAParams",
    "TWGParams",
    "HWGParams",
    "DeltaTerm",
    "PinnedPairTerm",
    "ScatteringAmplitudeSet",
    "ToleranceError",
]


class ToleranceError(RuntimeError):
    """A numerical procedure failed to reach its requested tolerance."""


def _require_finite(*values) -> None:
    # nan makes every comparison false, so a range check alone lets it through
    if not all(math.isfinite(v) for v in values):
        raise ValueError("parameters must be finite")


# ---------------------------------------------------------------------------
# dispersion relations


@dataclass(frozen=True)
class CosineBand:
    """Tight-binding cosine band eps_k = omega_cavity - 2 J cos k.

    Parameters
    ----------
    omega_cavity : float
        Bare resonator frequency (band center).
    hopping : float
        Nearest-neighbor hopping J > 0.
    """

    omega_cavity: float
    hopping: float

    def __post_init__(self) -> None:
        _require_finite(self.omega_cavity, self.hopping)
        if not self.hopping > 0.0:
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
    omega_atom : float
        Two-level atom splitting.
    omega_cavity : float
        Resonator frequency.
    hopping : float
        Inter-cavity hopping J > 0.
    coupling : float
        Atom-cavity hybridization V >= 0 at the center site.

    Notes
    -----
    The single-photon decay scale is ``gamma = coupling**2``.
    """

    omega_atom: float
    omega_cavity: float
    hopping: float
    coupling: float

    def __post_init__(self) -> None:
        _require_finite(self.omega_atom, self.omega_cavity, self.hopping, self.coupling)
        if not self.hopping > 0.0:
            raise ValueError("hopping must be positive")
        if self.coupling < 0.0:
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
    complex pole of every amplitude sits at ``alpha = omega_atom - i gamma_t/2``.
    """

    omega_atom: float
    gamma_t: float

    def __post_init__(self) -> None:
        _require_finite(self.omega_atom, self.gamma_t)
        if not self.gamma_t > 0.0:
            raise ValueError("gamma_t must be positive")

    @property
    def alpha(self) -> complex:
        return self.omega_atom - 0.5j * self.gamma_t


@dataclass(frozen=True)
class HWGParams:
    """Two linearized waveguides sharing one two-level atom.

    Both waveguides have unit group velocity, the package convention, so the
    total decay rate is ``gamma_e = vbar1**2 + vbar2**2``.

    Parameters
    ----------
    omega_atom : float
        Atom splitting.
    vbar : (float, float)
        Even-channel couplings of the two waveguides.
    """

    omega_atom: float
    vbar: tuple[float, float]

    def __post_init__(self) -> None:
        if len(self.vbar) != 2:
            raise ValueError("vbar must be a pair")
        _require_finite(self.omega_atom, *self.vbar)
        if not (self.vbar[0] >= 0.0 and self.vbar[1] >= 0.0):
            raise ValueError("couplings must be nonnegative")
        if self.vbar[0] == 0.0 and self.vbar[1] == 0.0:
            raise ValueError("at least one coupling must be nonzero")

    @property
    def gamma_e(self) -> float:
        return self.vbar[0] ** 2 + self.vbar[1] ** 2

    @property
    def alpha_h(self) -> complex:
        return self.omega_atom - 0.5j * self.gamma_e


# ---------------------------------------------------------------------------
# kinematics

# relative tolerance on total-energy conservation of outgoing momenta
_ONSHELL_RTOL = 1e-10


def _require_on_shell(e_in, e_out) -> None:
    # written so that a nan or an infinite momentum fails it too
    tol = _ONSHELL_RTOL * max(1.0, abs(e_in))
    if not (math.isfinite(e_in) and np.all(np.abs(np.asarray(e_out) - e_in) <= tol)):
        raise ValueError("momenta must be finite and conserve the total energy")


# ---------------------------------------------------------------------------
# structured S-matrix values


@dataclass(frozen=True)
class DeltaTerm:
    """One fully pinned outgoing configuration with a complex weight.

    ``pinned`` lists the outgoing momentum forced into each slot; the term
    stands for ``weight * prod_i delta(p_i - pinned_i)`` in continuum
    normalization.
    """

    pinned: tuple[float, ...]
    weight: complex


@dataclass(frozen=True)
class PinnedPairTerm:
    """One outgoing slot pinned, the remaining pair carried by a density.

    Represents ``amplitude * delta(p_slot - value) * density(pa, pb) *
    delta(pa + pb - pair_energy)`` where (pa, pb) are the two outgoing
    momenta not in ``slot``.  Used by the three-photon assembly.
    """

    slot: int
    value: float
    amplitude: complex
    pair_energy: float
    density: Callable[..., complex]


@dataclass(frozen=True)
class ScatteringAmplitudeSet:
    """S-matrix element split by connectedness.

    ``disconnected`` carries products of single-photon amplitudes on fully
    delta-pinned configurations; ``pinned_pairs`` (three photons only)
    carries one pinned leg times a two-photon connected density; ``connected``
    is the smooth fully connected density multiplying the single overall
    energy delta ``delta(total_energy - sum p)``.  No Dirac delta is ever
    materialized numerically.
    """

    total_energy: float
    disconnected: tuple[DeltaTerm, ...]
    pinned_pairs: tuple[PinnedPairTerm, ...] = ()
    connected: Callable[..., complex] | None = None

    def connected_density(self, *momenta) -> complex:
        if self.connected is None:
            return 0.0j
        return self.connected(*momenta)

