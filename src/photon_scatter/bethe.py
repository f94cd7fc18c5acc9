"""Bethe-ansatz eigenstates of the effective photon waveguide.

Scattering eigenstates of the linearized waveguide coupled to a single
two-level emitter are plane-wave superpositions over photon permutations.
Each permutation carries a product of unimodular two-body phases, and each
coordinate carries the single-photon transmission phase once it has crossed
the emitter.  These states serve as an independent oracle for the S-matrix
results of :mod:`photon_scatter.twg`: the single-photon phase must coincide
with the transmission amplitude, the two-body phase pole must sit at twice
the pair-amplitude pole, and the region coefficients of the two-photon
eigenstate must reproduce the disconnected S-matrix structure.

Conventions: the identity permutation has amplitude 1.  The two-body phase
is unimodular and inverts when its arguments swap, so the amplitude of any
other permutation P is the product of e^{i Phi(k_a, k_b)} over the
inversions of P: the pairs a < b that P puts in the order (b, a).
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import TWGParams

__all__ = ["single_phase", "two_body_phase", "amplitude", "eigenstate_value"]

# factorial growth: 8 photons already mean 40320 permutation terms
_MAX_PHOTONS = 8


def single_phase(params: TWGParams, momentum: float) -> complex:
    """Single-photon scattering phase e^{i delta_p} across the emitter.

    Written out independently of :func:`photon_scatter.twg.transmission_amplitude`
    on purpose: their equality is a cross-check, not a definition.
    """
    p = complex(momentum)
    half = 0.5j * params.gamma_t
    return (p - params.omega_atom - half) / (p - params.omega_atom + half)


def two_body_phase(gamma: float, ki: float, kj: float) -> complex:
    """Two-body exchange phase e^{i Phi(ki, kj)} for momenta ki, kj.

    Unimodular for real momenta; the pole at ki - kj = -i*gamma is the
    two-photon bound-state pole (twice the pair-amplitude pole in the
    relative momentum).
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    d = complex(ki) - complex(kj)
    return (d - 1j * gamma) / (d + 1j * gamma)


def amplitude(gamma: float, momenta, perm) -> complex:
    """Permutation amplitude A_P relative to A_identity = 1.

    ``perm[i]`` is the 0-based index of the momentum in slot i.  A_P is the
    product of e^{i Phi(k_a, k_b)} over every pair a < b that ``perm``
    puts in the order (b, a).
    """
    acc = complex(1.0)
    for b, a in itertools.combinations(perm, 2):
        if a < b:
            acc *= two_body_phase(gamma, momenta[a], momenta[b])
    return acc


def eigenstate_value(params: TWGParams, momenta, positions) -> complex:
    """Eigenstate value at strictly ordered photon coordinates.

    Sum over permutations P of A_P * prod_i f_{k_{P_i}}(x_i) with the
    single-photon mode function f_p(x) = e^{ipx} [theta(-x) + e^{i delta_p}
    theta(x)].  The momenta (k_1, ..., k_N) number at most ``_MAX_PHOTONS``;
    the permutation sum grows factorially.  Coordinates exactly at the
    emitter (x = 0) are excluded: the step function is ambiguous there and
    the emitter amplitude carries the remaining weight.
    """
    k = np.asarray(momenta, dtype=float)
    n = k.size
    if k.ndim != 1 or not 0 < n <= _MAX_PHOTONS:
        raise ValueError(f"need 1 to {_MAX_PHOTONS} momenta, got shape {k.shape}")
    if not np.all(np.isfinite(k)):
        raise ValueError("momenta must be finite")
    x = np.asarray(positions, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"expected {n} coordinates, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("coordinates must be finite")
    if np.any(x == 0.0):
        raise ValueError("coordinate at the emitter (x = 0) is excluded")
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("coordinates must be strictly increasing")

    trans = np.array([single_phase(params, ki) for ki in k])
    # perms as 0-based momentum indices, one row per permutation
    perms = np.array(list(itertools.permutations(range(n))), dtype=int)
    amps = np.array([amplitude(params.gamma_t, k, row) for row in perms])
    kp = k[perms]
    phases = np.exp(1j * kp @ x)
    crossed = np.where(x > 0.0, trans[perms], 1.0)
    return complex(np.sum(amps * phases * np.prod(crossed, axis=1)))
