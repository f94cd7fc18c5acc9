"""Bethe-ansatz phases of the effective photon waveguide.

Scattering eigenstates of the linearized waveguide coupled to a single
two-level emitter are plane-wave superpositions over photon permutations,
as in Shen & Fan, PRA 76, 062709 (2007).  Each coordinate picks up the
single-photon phase once it has crossed the emitter, and each exchange of
two photons the unimodular two-body phase.  The two phases serve as an
independent oracle for the S-matrix results of :mod:`photon_scatter.twg`:
the single-photon phase must coincide with the transmission amplitude, the
two-body phase pole must sit at twice the pair-amplitude pole, and the
coefficient of a two-photon state once both photons have crossed,
single_phase(k1) * single_phase(k2), must be the weight of both
disconnected S-matrix terms.
"""

from __future__ import annotations

import math

import numpy as np

from .core import TWGParams

__all__ = ["single_phase", "two_body_phase"]


def single_phase(params: TWGParams, momentum: float) -> complex:
    """Single-photon scattering phase e^{i delta_p} across the emitter.

    Written out independently of :func:`photon_scatter.twg.transmission_amplitude`
    on purpose: their equality is a cross-check, not a definition.  A nan or
    infinite momentum raises ``ValueError``.
    """
    if not math.isfinite(momentum):
        raise ValueError("momentum must be finite")
    p = complex(momentum)
    half = 0.5j * params.gamma_t
    return (p - params.omega_atom - half) / (p - params.omega_atom + half)


def two_body_phase(gamma: float, ki: float, kj: float) -> complex:
    """Two-body exchange phase e^{i Phi(ki, kj)} for momenta ki, kj.

    Unimodular for real momenta; the pole at ki - kj = -i*gamma is the
    two-photon bound-state pole (twice the pair-amplitude pole in the
    relative momentum).
    """
    if not 0.0 < gamma < np.inf:
        raise ValueError("gamma must be positive and finite")
    d = complex(ki) - complex(kj)
    return (d - 1j * gamma) / (d + 1j * gamma)
