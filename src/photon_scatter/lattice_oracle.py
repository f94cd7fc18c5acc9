"""Finite-lattice oracle: exact diagonalization, wavepackets, ring sums.

Everything here validates the closed-form modules from first principles,
on numpy alone.  One real sparse operator type, ``SparseOperator``,
realizes the open resonator chains exactly, in the single- and the
two-excitation sector (the latter on its bosonic sector, photon pairs
packed as a <= b, the pair state's norm weighted by :func:`_pair_weights`).
The chain is stated once, by :func:`_single_parts`: the diagonal, the one
hopping value over neighbour slots, and the atom couplings.  The pair
operator and the free photon reference derive theirs from it.  One
Chebyshev propagator, its Bessel coefficients from Miller's backward
recurrence, evolves both, and refuses an expansion order above
``_MAX_CHEBYSHEV_ORDER``.  A T-type run is sized by the bound-state
interval its spectrum cannot leave; only H-type runs and couplings whose
bound-state decay no float represents (V = 0 included) fall back on
Gershgorin discs.  The bound states are the extremal eigenpairs of the
single-excitation operator, both from one Lanczos run with full
reorthogonalisation.  Gaussian wavepacket runs measure transmission
probabilities against the analytic amplitudes; two-packet runs probe
photon-photon correlations; and quantized-momentum ring sums check the
continuum delta conventions of the analytic S-matrices (a momentum delta
maps to (L / 2 pi) times a Kronecker delta on the ring).
Each ring sum snaps the incident momenta to the ring grid, builds the
S-matrix with the library's own constructor (``twg.two_photon_s``,
``twg.three_photon_s``, ``hwg.two_photon_s_h``), lays its tiers on one
energy-shell grid and reduces, so a wrong slot or weight in the S-matrix
shows in the unitarity sums.

H-type lattice realization: each chain uses hopping J = 1/2, so the
band-center group velocity equals the unit waveguide velocity, and site
coupling V_s = vbar_s / sqrt(2), the even-mode enhancement at the shared
site.  Chain frequencies sit at the atom frequency, which makes the lattice
band energy epsilon(q) = Omega - cos(q) directly the waveguide momentum
variable.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import hwg, tcra, twg
from .core import HWGParams, TCRAParams, ToleranceError

# accuracy contract for single-excitation wavepacket runs
_MIN_PACKET_WIDTH = 40.0
_SIZE_PER_WIDTH = 20.0
# per side, so the two zones together cover 10 percent of the lattice
_GUARD_FRACTION = 0.05
_GUARD_MASS_LIMIT = 1e-5

_MIN_PAIR_WIDTH = 6.0

# Lanczos stops when both extremal Ritz residuals are this fraction of the
# operator's Gershgorin scale: the envelope fit reads amplitudes down to
# 1e-11 of the peak, which a looser stop leaves visibly perturbed
_LANCZOS_RTOL = 1e-15
# one dense eigh of the tridiagonal matrix per check outweighs a step
_LANCZOS_CHECK_EVERY = 8

# the largest Chebyshev order, and so number of operator products, a run
# may ask for; the suite's runs stay near 1e3
_MAX_CHEBYSHEV_ORDER = 1_000_000


@dataclass(frozen=True)
class LatticeModel:
    """Finite chain (T-type) or chain pair (H-type) with a central atom."""

    params: TCRAParams | HWGParams
    size: int

    def __post_init__(self) -> None:
        if not isinstance(self.params, (TCRAParams, HWGParams)):
            raise TypeError("params must be TCRAParams or HWGParams")
        if self.size < 3 or self.size % 2 == 0:
            raise ValueError("size must be odd and at least 3")

    @property
    def kind(self) -> str:
        return "t" if isinstance(self.params, TCRAParams) else "h"

    @property
    def dimension(self) -> int:
        return self.size + 1 if self.kind == "t" else 2 * self.size + 1

    def positions(self) -> np.ndarray:
        """Site coordinates, atom-coupled site at 0."""
        return np.arange(self.size) - (self.size - 1) // 2


class SparseOperator:
    """Real square sparse matrix h = D + u A + C, built for repeated products.

    The builder states the structure it knows: the diagonal D (``diag``),
    the one hopping value u (``hopping``) and its 0/1 pattern A as neighbour
    slots, and the other couplings C as (row, column, value) triplets.  A
    slot holds one column per row; a row with no neighbour there reads its
    own entry, and D takes u back.  A column may recur across a row's slots
    (a doubled hop), and C may repeat rows.  A product costs one gather per
    slot, one scaling by u and one scatter-add of C.  ``gershgorin`` is an
    interval holding every eigenvalue; :func:`_spectral_interval` narrows it
    where the model's physics allows.
    """

    def __init__(self, diag, hopping: float = 0.0, slots=(), couplings=()):
        parts = [np.broadcast_arrays(*map(np.ravel, t)) for t in couplings] + [[np.zeros(0)] * 3]
        rows, cols, vals = (np.concatenate(column) for column in zip(*parts))
        if np.iscomplexobj(diag) or np.iscomplexobj(vals):
            raise ValueError("operator entries must be real")
        self.diag = np.array(diag, dtype=float)
        size = len(self.diag)
        self.shape = (size, size)
        self.hopping = float(hopping)
        self.slots = [np.asarray(s, dtype=np.intp) for s in slots]
        self.rows, self.cols, self.vals = rows.astype(np.intp), cols.astype(np.intp), vals
        own = [s == np.arange(size) for s in self.slots]
        filled = len(own) - sum(own)
        radius = abs(self.hopping) * filled + np.bincount(self.rows, np.abs(vals), size)
        self.gershgorin = (float(np.min(self.diag - radius)), float(np.max(self.diag + radius)))
        for o in own:
            self.diag[o] -= self.hopping

    def affine(self, scale: float, shift: float) -> SparseOperator:
        """The operator scale * (self - shift), sharing this one's columns."""
        out = copy.copy(self)
        out.diag = scale * (self.diag - shift)
        out.hopping = scale * self.hopping
        out.vals = scale * self.vals
        out.gershgorin = tuple(sorted(scale * (e - shift) for e in self.gershgorin))
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if self.slots:
            # the slot sum builds up in y and buf is reused for D x, so a
            # product allocates two long vectors, not three: on the pair
            # state each fresh one costs page faults
            y = np.take(x, self.slots[0], mode="clip")
            buf = np.empty_like(y)
            for cols in self.slots[1:]:
                np.take(x, cols, mode="clip", out=buf)
                y += buf
            y *= self.hopping
            y += np.multiply(self.diag, x, out=buf)
        else:
            y = self.diag * x
        np.add.at(y, self.rows, self.vals * x[self.cols])
        return y


def _chain_slots(size: int, *chains):
    """Left and right neighbour slots of open chains, each over consecutive
    rows among ``size``; a chain end, and a row on no chain, reads itself."""
    left, right = np.arange(size), np.arange(size)
    for sites in chains:
        left[sites[1:]] = sites[:-1]
        right[sites[:-1]] = sites[1:]
    return [left, right]


def _single_parts(model: LatticeModel):
    """The single-excitation chain: its diagonal, hopping value and
    neighbour slots as :class:`SparseOperator` takes them, and the atom
    couplings (site, v).  T-type layout: sites 0..L-1 then the atom.  H-type
    layout: chain 1, chain 2, then the atom; see the module docstring for
    the effective lattice scales.  All chains hop with one J; the atom, the
    last row, couples to their centers.
    """
    p = model.params
    if model.kind == "t":
        omega, hopping, couplings = p.omega_cavity, p.hopping, [p.coupling]
    else:
        omega, hopping, couplings = p.omega_atom, 0.5, [v / np.sqrt(2.0) for v in p.vbar]
    chains = [np.arange(s * model.size, (s + 1) * model.size) for s in range(len(couplings))]
    diag = np.full(model.dimension, omega)
    diag[-1] = p.omega_atom
    sites = [chain[(model.size - 1) // 2] for chain in chains]
    return diag, -hopping, _chain_slots(model.dimension, *chains), list(zip(sites, couplings))


def build_single_excitation(model: LatticeModel) -> SparseOperator:
    """Sparse symmetric single-excitation Hamiltonian, open chains (layout
    and scales as in :func:`_single_parts`)."""
    diag, hopping, slots, couplings = _single_parts(model)
    atom = len(diag) - 1
    entries = [e for site, v in couplings for e in ((site, atom, v), (atom, site, v))]
    return SparseOperator(diag, hopping, slots, entries)


def _bessel_j(order: int, z: float) -> np.ndarray:
    """J_0(z) ... J_order(z) for z > 0, by Miller's backward recurrence.

    J_{n-1} = (2n / z) J_n - J_{n+1} runs down from a zero and a unit seed
    above ``order``, where the decaying solution J dominates the growing
    one; the sequence is then normalised by J_0 + 2 sum_k J_2k = 1.  The
    start is meant for orders past the Bessel tail, where J_order(z) is far
    below double precision.  A term beyond 1e100 rescales every term so far
    to bring it back to 1, so nothing overflows while one step grows by
    2n / z < 1e300: z is held at 1e-200 or above, below which every J_n
    past J_0 = 1 is under 1e-200 anyway.
    """
    z = max(z, 1e-200)
    start = order + 20
    terms = [0.0, 1.0]  # J_{start+1}, J_start, then downward
    for n in range(start, 0, -1):
        terms.append((2.0 * n / z) * terms[-1] - terms[-2])
        if abs(terms[-1]) > 1e100:
            scale = 1.0 / abs(terms[-1])
            terms = [t * scale for t in terms]
    j = np.array(terms[::-1])
    return j[: order + 1] / (j[0] + 2.0 * np.sum(j[2::2]))


def _chebyshev_evolve(h: SparseOperator, state: np.ndarray, t: float, bounds):
    """Propagate e^{-i h t} state with a Chebyshev polynomial expansion.

    ``h`` is a real operator with a real spectrum, which ``bounds`` must
    contain; the Bessel coefficient tail then decays superexponentially
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).  The order, which
    is also the number of products with ``h``, grows like the half-width a
    of ``bounds`` times t, so the tightest rigorous interval is the cheapest
    (:func:`_spectral_interval`).  The shift and scale fold into one operator
    X = 2 (h - b) / a, so the recursion t_{k+1} = X t_k - t_{k-1} has real
    coefficients: the even terms sum to cos(a t X / 2) state, the odd terms
    to sin(a t X / 2) state, and the result is e^{-i b t} (cos - i sin)
    state.  Returns (evolved state, order).  An order above
    ``_MAX_CHEBYSHEV_ORDER`` is refused with ValueError before any
    coefficient is computed.
    """
    emin, emax = bounds
    if not emax > emin:
        raise ValueError("bounds must satisfy emax > emin")
    if not 0.0 < t < np.inf:
        raise ValueError("the evolution time must be positive and finite")
    a = 0.5 * (emax - emin)
    b = 0.5 * (emax + emin)
    z = a * t
    order = z + 25.0 + 12.0 * z ** (1.0 / 3.0)
    if not order <= _MAX_CHEBYSHEV_ORDER:
        raise ValueError(
            f"the Chebyshev expansion needs order {order:.3g}, above the limit"
            f" {_MAX_CHEBYSHEV_ORDER}: shorten the run or narrow the spectrum"
        )
    order = int(order)
    bess = _bessel_j(order, z)
    tail = np.nonzero(np.abs(bess) > 1e-16)[0]
    # a run so short that J_1 drops below the cut still takes one odd term
    order = max(1, int(tail[-1]))
    # (-i)^k runs +1, -i, -1, +i: the real weight of T_k in the cos (even k)
    # or the sin (odd k) part is +1, +1, -1, -1
    sign = np.array([1.0, 1.0, -1.0, -1.0])[np.arange(order + 1) % 4]
    coef = bess[: order + 1] * sign
    coef[1:] *= 2.0

    x = h.affine(2.0 / a, b)
    t0 = np.array(state, dtype=complex)
    t1 = 0.5 * (x @ t0)
    acc = [coef[0] * t0, coef[1] * t1]
    for k in range(2, order + 1):
        t2 = x @ t1
        t2 -= t0
        # t0 is spent: it holds the weighted term
        np.multiply(t2, coef[k], out=t0)
        acc[k % 2] += t0
        t0, t1 = t1, t2
    cos, sin = acc
    return np.exp(-1j * b * t) * (cos - 1j * sin), order


def _spectral_interval(model: LatticeModel, h: SparseOperator, photons: int):
    """An interval holding every eigenvalue of ``h``, the ``photons``-excitation
    operator of ``model`` (1: :func:`build_single_excitation`, 2:
    :func:`_pair_operator`).

    For a T-type model it is [n E-, n E+], n = ``photons`` and E- and E+ the
    single-photon bound states.  The infinite chain's single-excitation
    spectrum is the band plus E- and E+, and the finite chain is a principal
    submatrix of it.  The two-boson operator (the atom a boson mode) has the
    sums of two such levels for its spectrum, and the hard-core pair
    operator is its compression with |2_a> removed.  Each end is padded
    outward by 1e-12 relative and kept only where the bound-state equation
    has the enclosing sign there, so the enclosure does not rest on the root
    solver; the result is intersected with the Gershgorin interval.  Only
    H-type models and T-type ones whose bound-state decay no float holds
    (V = 0, or V below 3e-154 at Omega = omega0, J = 1; see
    ``tcra._decays_representable``) keep Gershgorin.
    """
    lo, hi = h.gershgorin
    p = model.params
    if model.kind != "t" or not tcra._decays_representable(p):
        return lo, hi
    lower, upper = tcra.bound_state_energies(p)
    pad = 1e-12 * max(abs(lower.energy), abs(upper.energy))
    e_low, e_high = lower.energy - pad, upper.energy + pad
    if tcra._bound_equation(p, e_low) <= 0.0:
        lo = max(lo, photons * e_low)
    if tcra._bound_equation(p, e_high) >= 0.0:
        hi = min(hi, photons * e_high)
    return lo, hi


# ---------------------------------------------------------------------------
# bound states


@dataclass(frozen=True)
class BoundStateReport:
    """Out-of-band eigenpairs compared with the closed-form bound states.

    ``lanczos_steps`` is the size of the Krylov space the eigenpairs came
    from, and ``ritz_residuals`` bound |h x - e x| for the (lower, upper)
    pair, unit x.
    """

    energies: tuple[float, float]
    analytic_energies: tuple[float, float]
    energy_residuals: tuple[float, float]
    envelope_slopes: tuple[float, float]
    analytic_slopes: tuple[float, float]
    slope_residuals: tuple[float, float]
    upper_sign_alternating: bool
    lower_sign_uniform: bool
    lanczos_steps: int
    ritz_residuals: tuple[float, float]
    warnings: tuple[str, ...]


def _lanczos_extremes(h: SparseOperator, tol: float):
    """Lowest and highest eigenpairs of ``h`` in the Krylov space of ones(n).

    Lanczos from the fixed start vector ones(n), so reports repeat exactly,
    with full reorthogonalisation (twice per step) against every basis
    vector.  Stops once both extremal Ritz residuals beta_m |s_m| are at
    most ``tol`` (checked every few steps and at a breakdown); a space that
    fills all n dimensions first raises ToleranceError.  Returns (energies,
    vectors as columns, steps, residuals), lowest first.

    The extremes are those of the part of ``h`` that the start vector
    reaches, not always of ``h``: on the T-type chain ones(n) is even under
    reflection about the center site, so the space holds only the even
    sector (at L = 3 it breaks down after 3 steps on a 4-dimensional
    operator).  That is enough for the bound states, which are both even;
    the odd sector vanishes at the center site and leaves the atom alone,
    so its levels are those of the bare chain, inside the band.
    """
    n = h.shape[0]
    basis = np.empty((min(n, 64), n))
    basis[0] = 1.0 / np.sqrt(n)
    alpha, beta = [], []
    for m in range(1, n + 1):
        w = h @ basis[m - 1]
        alpha.append(float(basis[m - 1] @ w))
        for _ in range(2):
            w -= basis[:m].T @ (basis[:m] @ w)
        norm = float(np.linalg.norm(w))
        if m % _LANCZOS_CHECK_EVERY == 0 or m == n or norm <= tol:
            tri = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
            theta, s = np.linalg.eigh(tri)
            residuals = norm * np.abs(s[-1, [0, -1]])
            if residuals.max() <= tol:
                vectors = basis[:m].T @ s[:, [0, -1]]
                return theta[[0, -1]], vectors, m, tuple(float(r) for r in residuals)
        if m == n:
            break
        if m == len(basis):
            basis = np.concatenate([basis, np.empty((min(m, n - m), n))])
        beta.append(norm)
        basis[m] = w / norm
    raise ToleranceError(
        f"Lanczos did not converge in {n} steps: Ritz residuals"
        f" {residuals[0]:.2e}, {residuals[1]:.2e} above {tol:.2e}"
    )


def _envelope_slope(site_amp: np.ndarray, x: np.ndarray) -> float:
    """Least-squares slope of log|psi| against |x| over the clean window."""
    amp = np.abs(site_amp)
    half = int(x.max())
    mask = (np.abs(x) >= 3) & (np.abs(x) <= 0.6 * half) & (amp > amp.max() * 1e-11)
    if mask.sum() < 6:
        mask = (np.abs(x) >= 2) & (amp > amp.max() * 1e-9)
    if mask.sum() < 4:
        return np.nan
    return float(np.polyfit(np.abs(x[mask]), np.log(amp[mask]), 1)[0])


def _sign_pattern(site_vec: np.ndarray, x: np.ndarray, alternating: bool) -> bool:
    amp = np.abs(site_vec)
    run = np.where((x >= 1) & (x <= 25) & (amp > amp.max() * 1e-9))[0]
    if len(run) < 4:
        return False
    prod = site_vec[run[:-1]] * site_vec[run[1:]]
    return bool(np.all(prod < 0.0)) if alternating else bool(np.all(prod > 0.0))


def bound_state_check(model: LatticeModel) -> BoundStateReport:
    """Compare out-of-band lattice eigenpairs with the analytic bound states."""
    if model.kind != "t":
        raise ValueError("bound-state check is defined for T-type models")
    p = model.params
    lower, upper = tcra.bound_state_energies(p)
    top, bottom = p.band.band_top, p.band.band_bottom
    edge = 1e-12 * max(1.0, abs(top), abs(bottom))
    # the chain is a principal submatrix, so by Cauchy interlacing at most
    # one level lies on each side of the band: the extremal eigenpair is
    # the only candidate
    h = build_single_excitation(model)
    tol = _LANCZOS_RTOL * max(abs(e) for e in h.gershgorin)
    (e_low, e_high), vecs, steps, residuals = _lanczos_extremes(h, tol)
    below = e_low < bottom - edge
    above = e_high > top + edge

    warnings = []
    if not (below and above):
        warnings.append(
            f"expected one out-of-band level per side, found {int(below)} below"
            f" and {int(above)} above; the lattice may not resolve weak binding"
        )

    x = model.positions()
    energies = []
    slopes = []
    patterns = []
    for found, energy, vec, analytic in (
        (below, e_low, vecs[:, 0], lower),
        (above, e_high, vecs[:, 1], upper),
    ):
        if not found:
            energies.append(np.nan)
            slopes.append(np.nan)
            patterns.append(False)
            continue
        energies.append(float(energy))
        slopes.append(_envelope_slope(vec[: model.size], x))
        patterns.append(_sign_pattern(vec[: model.size], x, analytic.sign_alternating))

    analytic_e = (lower.energy, upper.energy)
    analytic_s = (lower.decay_log, upper.decay_log)
    return BoundStateReport(
        energies=tuple(energies),
        analytic_energies=analytic_e,
        energy_residuals=tuple(abs(a - b) for a, b in zip(energies, analytic_e)),
        envelope_slopes=tuple(slopes),
        analytic_slopes=analytic_s,
        slope_residuals=tuple(abs(a - b) for a, b in zip(slopes, analytic_s)),
        upper_sign_alternating=patterns[1],
        lower_sign_uniform=patterns[0],
        lanczos_steps=steps,
        ritz_residuals=residuals,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# wavepacket scattering, single excitation


@dataclass(frozen=True)
class WavepacketResult:
    """Measured and analytic scattering probabilities for one packet run.

    T-type runs fill ``transmission``/``reflection`` and compare against
    (|1 + r|^2, |r|^2); H-type runs fill ``guide_probabilities`` (total
    outgoing probability per waveguide for an even-prepared packet in
    waveguide 1) and compare against (|t11|^2, |t21|^2).
    ``spectral_interval`` is the interval the propagator was sized by and
    ``chebyshev_order`` its number of operator products.
    """

    transmission: float | None
    reflection: float | None
    guide_probabilities: tuple[float, float] | None
    atom_occupation: float
    analytic: tuple[float, float]
    carrier: float
    effective_momentum: float
    group_velocity: float
    duration: float
    spectral_interval: tuple[float, float]
    chebyshev_order: int


def _gaussian(x, center, width):
    # width is the intensity standard deviation
    return np.exp(-((x - center) ** 2) / (4.0 * width**2))


def _check_guard_mass(weights: np.ndarray, x: np.ndarray, half: int, guard: int, t: float):
    mass = float(weights[np.abs(x) >= half - guard].sum()) / float(weights.sum())
    if mass > _GUARD_MASS_LIMIT:
        raise ToleranceError(
            f"packet reached the boundary guard zone: relative mass {mass:.3e}"
            f" at duration {t:.3g}; enlarge the lattice or shorten the run"
        )


def wavepacket_scatter(
    model: LatticeModel, carrier: float, width: float, duration: float | None = None
) -> WavepacketResult:
    """Scatter a Gaussian packet off the atom and integrate the outcome.

    ``carrier`` is the lattice momentum of the packet, strictly inside the
    band and away from its edges.  The packet width must resolve the atomic
    linewidth (width >= 40 sites, lattice >= 20 widths) for the measured
    probabilities to track the analytic values at the percent level.
    """
    if width < _MIN_PACKET_WIDTH:
        raise ValueError(f"packet width must be at least {_MIN_PACKET_WIDTH} sites")
    if model.size < _SIZE_PER_WIDTH * width:
        raise ValueError("lattice must span at least 20 packet widths")
    if not 0.0 < carrier < np.pi or np.sin(carrier) < 0.2:
        raise ValueError("carrier must sit inside the band, away from the edges")
    if duration is not None and not 0.0 < duration < np.inf:
        raise ValueError("duration must be positive and finite")

    p = model.params
    x = model.positions()
    half = (model.size - 1) // 2
    guard = int(_GUARD_FRACTION * model.size)
    offset = max(4.0 * width, min(half - guard - 5.0 * width, 6.0 * width))

    if model.kind == "t":
        v_g = float(p.band.group_velocity(carrier))
    else:
        v_g = np.sin(carrier)
    t_end = duration if duration is not None else (offset + 3.0 * width) / v_g

    n = model.dimension
    psi0 = np.zeros(n, dtype=complex)
    if model.kind == "t":
        psi0[: model.size] = np.exp(1j * carrier * x) * _gaussian(x, -offset, width)
    else:
        # even two-sided preparation in waveguide 1: outgoing probabilities
        # then measure |t11|^2 and |t21|^2 directly
        psi0[: model.size] = np.exp(1j * carrier * x) * _gaussian(
            x, -offset, width
        ) + np.exp(-1j * carrier * x) * _gaussian(x, offset, width)
    psi0 /= np.linalg.norm(psi0)

    h = build_single_excitation(model)
    bounds = _spectral_interval(model, h, 1)
    psi_t, order = _chebyshev_evolve(h, psi0, t_end, bounds)
    dens = np.abs(psi_t) ** 2
    atom = float(dens[-1])

    if model.kind == "t":
        chains = dens[: model.size]
        split = (float(chains[x > 0].sum()), float(chains[x < 0].sum()))
        r = complex(tcra.reflection_amplitude(p, carrier))
        analytic, k_eff = (abs(1.0 + r) ** 2, abs(r) ** 2), carrier
    else:
        chain1, chain2 = dens[: model.size], dens[model.size : 2 * model.size]
        chains = chain1 + chain2
        split = (float(chain1.sum()), float(chain2.sum()))
        k_eff = p.omega_atom - np.cos(carrier)
        amps = hwg.channel_amplitudes(p, k_eff)
        analytic, k_eff = (abs(amps.t11) ** 2, abs(amps.t21) ** 2), float(k_eff)
    _check_guard_mass(chains, x, half, guard, t_end)
    t_type = model.kind == "t"
    return WavepacketResult(
        transmission=split[0] if t_type else None,
        reflection=split[1] if t_type else None,
        guide_probabilities=None if t_type else split,
        atom_occupation=atom,
        analytic=analytic,
        carrier=carrier,
        effective_momentum=k_eff,
        group_velocity=v_g,
        duration=t_end,
        spectral_interval=bounds,
        chebyshev_order=order,
    )


# ---------------------------------------------------------------------------
# two-excitation sector


@dataclass(frozen=True)
class TwoExcitationReport:
    """Transmitted-pair statistics from a two-packet lattice run.

    ``relative_density[d]`` is the transmitted joint density summed over
    site pairs at separation d; the bunching indicator is the near-
    coincidence fraction (d <= window) relative to the same fraction for
    freely evolved packets.
    """

    bunching_indicator: float
    coincidence_fraction: float
    free_coincidence_fraction: float
    transmitted_fraction: float
    relative_density: np.ndarray
    free_relative_density: np.ndarray
    window: int
    norm_drift: float
    duration: float
    spectral_interval: tuple[float, float]
    chebyshev_order: int


def _pair_index(a, b, size: int):
    """Position of the unordered pair {a, b} in the packed upper triangle."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return lo * size - lo * (lo - 1) // 2 + (hi - lo)


def _pair_operator(model: LatticeModel) -> SparseOperator:
    """Two-excitation operator on the bosonic sector: packed pairs, then photon + atom.

    The pair block acts on the packed upper triangle u = psi[a, b], a <= b
    (row major, the order of ``np.triu_indices``), of the symmetric pair
    amplitude over the n photon sites; the second block on chi[c], a photon
    at site c with the atom excited.  It is the two-boson operator
    kron(h, 1) + kron(1, h) of the single-excitation chain h, restricted to
    its symmetric subspace with |2_atom> removed, and every entry comes from
    :func:`_single_parts`: the diagonal d[a] + d[b] and d[c] + d[atom]; each
    single slot applied to leg a and then to leg b, re-packed, so a hop out
    of the upper triangle lands on the mirror entry and a diagonal pair
    reads each neighbour twice, with chi hopping along leg a; and per
    coupled (site, v) the emission v (1 + delta_{c, site}) into
    pair(site, c) and the absorption v back.  The state norm is
    sum w |state|^2 with w from :func:`_pair_weights`, under which the real
    matrix is self-adjoint; its Gershgorin interval is the full-square one.
    """
    d, hopping, single, couplings = _single_parts(model)
    n = len(d) - 1
    a, b = np.triu_indices(n)
    npairs = len(a)
    sites = np.arange(n)
    chi = npairs + sites
    legs = [(s[a], b, npairs + s[:n]) for s in single] + [(a, s[b], chi) for s in single]
    slots = [np.concatenate([_pair_index(p, q, n), c]) for p, q, c in legs]
    entries = []
    for site, v in couplings:
        touch = _pair_index(sites, site, n)
        entries += [(touch, chi, v * (1.0 + (sites == site))), (chi, touch, v)]
    diag = np.concatenate([d[a] + d[b], d[:n] + d[n]])
    return SparseOperator(diag, hopping, slots, entries)


def _pair_weights(size: int) -> np.ndarray:
    """Norm weights of a packed pair state: 1/2 on a diagonal pair, else 1."""
    weights = np.ones(size * (size + 1) // 2 + size)
    sites = np.arange(size)
    weights[_pair_index(sites, sites, size)] = 0.5
    return weights


def two_excitation_check(
    model: LatticeModel,
    k1: float,
    k2: float,
    duration: float | None = None,
    width: float = 10.0,
    separation: float | None = None,
    window: int = 9,
) -> TwoExcitationReport:
    """Evolve two symmetrized packets and report transmitted-pair bunching.

    Both packets start left of the atom with carriers k1, k2 and cross it;
    the joint density of the fully transmitted component is binned by site
    separation and its near-coincidence fraction compared against freely
    evolved packets.  Qualitative by construction: widths here are narrow,
    so analytic percent-level agreement is out of scope.
    """
    if model.kind != "t":
        raise ValueError("the two-excitation check is defined for T-type models")
    if model.size > 401:
        raise ValueError("two-excitation lattices are capped at 401 sites")
    if width < _MIN_PAIR_WIDTH:
        raise ValueError(f"packet width must be at least {_MIN_PAIR_WIDTH} sites")
    for k in (k1, k2):
        if not 0.0 < k < np.pi or np.sin(k) < 0.2:
            raise ValueError("carriers must sit inside the band, away from edges")
    if duration is not None and not 0.0 < duration < np.inf:
        raise ValueError("duration must be positive and finite")
    if window < 0:
        raise ValueError("coincidence window must be nonnegative")
    if separation is not None and separation < 0.0:
        raise ValueError("packet separation must be nonnegative")

    p = model.params
    size = model.size
    x = model.positions()
    half = (size - 1) // 2
    guard = max(2, int(_GUARD_FRACTION * size))
    sep = separation if separation is not None else 2.5 * width
    c_back = -half + guard + 5.0 * width
    c_front = c_back + sep
    if c_front > -3.5 * width:
        raise ValueError(
            "lattice too small for the requested packets: the leading packet"
            " would start on top of the atom"
        )

    v_g = float(min(p.band.group_velocity(k1), p.band.group_velocity(k2)))
    t_end = duration if duration is not None else (abs(c_back) + 3.0 * width) / v_g

    a, b = np.triu_indices(size)
    npairs = len(a)
    weights = _pair_weights(size)

    def symmetrized(f, g):
        return f[a] * g[b] + g[a] * f[b]

    phi_front = np.exp(1j * k1 * x) * _gaussian(x, c_front, width)
    phi_back = np.exp(1j * k2 * x) * _gaussian(x, c_back, width)
    state = np.concatenate([symmetrized(phi_front, phi_back), np.zeros(size, dtype=complex)])
    state /= np.sqrt(weights @ np.abs(state) ** 2)

    h_pair = _pair_operator(model)
    pair_bounds = _spectral_interval(model, h_pair, 2)
    state_t, order = _chebyshev_evolve(h_pair, state, t_end, pair_bounds)
    dens = weights * np.abs(state_t) ** 2
    norm_drift = float(abs(dens.sum() - 1.0))
    pair_dens = dens[:npairs]
    marg = np.bincount(a, pair_dens, size) + np.bincount(b, pair_dens, size) + dens[npairs:]
    _check_guard_mass(marg, x, half, guard, t_end)

    # free reference: product evolution of the same packets under the photon
    # block of the single-excitation chain; the infinite chain's band is
    # already the Gershgorin interval
    d, hopping, slots, _ = _single_parts(model)
    h_free = SparseOperator(d[:size], hopping, [s[:size] for s in slots])
    bounds = h_free.gershgorin
    fronts, _ = _chebyshev_evolve(h_free, phi_front, t_end, bounds)
    backs, _ = _chebyshev_evolve(h_free, phi_back, t_end, bounds)
    free_dens = weights[:npairs] * np.abs(symmetrized(fronts, backs)) ** 2
    free_dens /= free_dens.sum()

    # joint density per separation b - a over the pairs past the atom
    # (a <= b, so x[a] > 0 places both photons there)
    past = x[a] > 0
    gap = (b - a)[past]
    rho = np.bincount(gap, pair_dens[past], np.count_nonzero(x > 0))
    rho_free = np.bincount(gap, free_dens[past], len(rho))
    total = rho.sum()
    total_free = rho_free.sum()
    if total < 1e-12 or total_free < 1e-12:
        raise ToleranceError(
            "no transmitted pair weight to analyze; lengthen the run or"
            " detune the carriers"
        )
    frac = float(rho[: window + 1].sum() / total)
    frac_free = float(rho_free[: window + 1].sum() / total_free)
    return TwoExcitationReport(
        bunching_indicator=frac / frac_free,
        coincidence_fraction=frac,
        free_coincidence_fraction=frac_free,
        transmitted_fraction=float(total),
        relative_density=rho,
        free_relative_density=rho_free,
        window=window,
        norm_drift=norm_drift,
        duration=t_end,
        spectral_interval=pair_bounds,
        chebyshev_order=order,
    )


# ---------------------------------------------------------------------------
# ring-quantized momentum sums


# shell half-widths of the ring sums: the pair sums in units of the line
# scale |E/2 - Omega| + width, the three-photon out-state in units of gamma_t;
# the connected pair tail of an out-state decays slowly and needs the widest
_PAIR_NORM_WINDOW = 25.0
_PAIR_WF_WINDOW = 1500.0
_PSI3_WINDOW = 32.0
_PSI3_PAIR_WINDOW = 1000.0


def _snap(value: float, dk: float) -> float:
    return round(value / dk) * dk


def _shell(e: float, n: int, size: int, half_window: float):
    """Ring momenta on the shell p_1 + ... + p_n = e.

    The first n - 1 slots each run over the grid axis of half-width
    ``half_window`` centred on e / n; the last slot closes the shell.
    """
    dk = 2.0 * np.pi / size
    n0 = round((e / n) / dk)
    axis = np.arange(n0 - int(half_window / dk), n0 + int(half_window / dk) + 1) * dk
    p = np.meshgrid(*([axis] * (n - 1)), indexing="ij")
    last = e
    for q in p:
        last = last - q
    return [*p, last]


def _ring_image(s, p, size: int) -> np.ndarray:
    """Lay the S-matrix element ``s`` on the shell momenta ``p`` of :func:`_shell`.

    A momentum delta is (L / 2 pi) times a Kronecker delta on the ring, so
    the connected density carries (2 pi / L)^(n - 1), a pinned pair
    (2 pi / L) and a fully pinned term its bare weight.  The shell fixes
    the last slot, so a fully pinned term matches on the others alone.
    """
    dk = 2.0 * np.pi / size

    def at(q, value):
        return np.isclose(q, value, atol=0.25 * dk)

    m = dk ** (len(p) - 1) * s.connected_density(*p)
    for term in s.pinned_pairs:
        match = at(p[term.slot], term.value)
        if not match.any():
            continue
        pa, pb = (q[match] for j, q in enumerate(p) if j != term.slot)
        m[match] += term.amplitude * dk * term.density(pa, pb)
    for term in s.disconnected:
        m[np.logical_and.reduce([at(q, v) for q, v in zip(p[:-1], term.pinned)])] += term.weight
    return m


def _pair_shell(params, width: float, k1: float, k2: float, size: int, windows: float):
    """Snapped incident pair and its ring shell, ``windows`` line scales wide."""
    dk = 2.0 * np.pi / size
    k1s, k2s = _snap(k1, dk), _snap(k2, dk)
    e = k1s + k2s
    scale = abs(0.5 * e - params.omega_atom) + width
    return (k1s, k2s), _shell(e, 2, size, windows * scale)


def ring_two_photon_wavefunction(params, k1: float, k2: float, x_center, x_relative, size: int):
    """Quantized-momentum image of the analytic two-photon out-state.

    Snaps the incident momenta to the ring grid, lays
    :func:`photon_scatter.twg.two_photon_s` on the energy shell and sums its
    plane waves; returns ``(snapped momenta, value)``.  Converges to
    :func:`photon_scatter.twg.two_photon_out_wavefunction` as the ring
    grows; the slowly decaying connected tail needs the wide shell.
    """
    ks, p = _pair_shell(params, params.gamma_t, k1, k2, size, _PAIR_WF_WINDOW)
    m = _ring_image(twg.two_photon_s(params, *ks), p, size)
    x1 = float(x_center) + 0.5 * float(x_relative)
    x2 = float(x_center) - 0.5 * float(x_relative)
    value = np.sum(m * np.exp(1j * (p[0] * x1 + p[1] * x2))) / (4.0 * np.pi)
    return ks, complex(value)


def ring_two_photon_norm(params, k1: float, k2: float, size: int):
    """Out-state norm of the two-photon S-matrix on the ring (exact value 1)."""
    ks, p = _pair_shell(params, params.gamma_t, k1, k2, size, _PAIR_NORM_WINDOW)
    m = _ring_image(twg.two_photon_s(params, *ks), p, size)
    return float(0.5 * np.sum(np.abs(m) ** 2))


def ring_three_photon_norm(params, k, size: int, half_window: float):
    """Out-state norm of the three-photon S-matrix on the ring (exact value 1).

    Sums |M|^2 / 6 over the square of half-width ``half_window`` on the
    shell plane, M the ring image of :func:`photon_scatter.twg.three_photon_s`.
    """
    dk = 2.0 * np.pi / size
    ks = tuple(_snap(v, dk) for v in k)
    m = _ring_image(twg.three_photon_s(params, ks), _shell(sum(ks), 3, size, half_window), size)
    return float(np.sum(np.abs(m) ** 2) / 6.0)


def ring_three_photon_wavefunction(params, k, x, size: int):
    """Ring image of the three-photon spatial out-state.

    Sums the tiers of :func:`photon_scatter.twg.three_photon_s` as quantized
    plane waves: the pinned permutations directly, each pinned pair over its
    own pair shell of half-width 1000 gamma_t, and the connected density
    over the square of half-width 32 gamma_t on the shell plane, averaged
    over the three choices of the slot that closes the shell.  Truncating
    the connected sum leaves a relative deviation from the exact out-state
    of up to about 1.5 gamma_t / 32 gamma_t.  Returns
    ``(snapped momenta, value)``.
    """
    dk = 2.0 * np.pi / size
    ks = tuple(_snap(v, dk) for v in k)
    xs = [float(v) for v in x]
    g = params.gamma_t
    s = twg.three_photon_s(params, ks)

    tier_a = 0.0j
    for term in s.disconnected:
        tier_a += term.weight * np.exp(1j * sum(q * v for q, v in zip(term.pinned, xs)))

    tier_b = 0.0j
    for term in s.pinned_pairs:
        pa, pb = _shell(term.pair_energy, 2, size, _PSI3_PAIR_WINDOW * g)
        xa, xb = (v for j, v in enumerate(xs) if j != term.slot)
        kernel = dk * np.sum(term.density(pa, pb) * np.exp(1j * (pa * xa + pb * xb)))
        tier_b += term.amplitude * np.exp(1j * term.value * xs[term.slot]) * kernel

    # T3 is symmetric in p, so the density serves every choice of the
    # closing slot; only the plane waves move
    pa, pb, ps = _shell(sum(ks), 3, size, _PSI3_WINDOW * g)
    dens = s.connected_density(pa, pb, ps)
    tier_c = 0.0j
    for j in range(3):
        xa, xb = (v for i, v in enumerate(xs) if i != j)
        tier_c += dk**2 * np.sum(dens * np.exp(1j * (pa * xa + pb * xb + ps * xs[j])))
    tier_c /= 3.0

    value = (tier_a + tier_b + tier_c) / (6.0 * (2.0 * np.pi) ** 1.5)
    return ks, complex(value)


def ring_h_pair_norm(params, k1: float, k2: float, size: int):
    """Out-state norm of the H-type pair S-matrix on the ring (exact value 1).

    Incident pair (k1 in waveguide 1, k2 in waveguide 2); sums the ring
    images of the three outgoing channels of
    :func:`photon_scatter.hwg.two_photon_s_h`, a same-guide channel with
    weight 1/2 for its identical photons.
    """
    ks, p = _pair_shell(params, params.gamma_e, k1, k2, size, _PAIR_NORM_WINDOW)
    return float(
        sum(
            (0.5 if j1 == j2 else 1.0) * np.sum(np.abs(_ring_image(s, p, size)) ** 2)
            for (j1, j2), s in hwg.two_photon_s_h(params, *ks).items()
        )
    )
