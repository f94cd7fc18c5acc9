"""Finite-lattice oracle: exact diagonalization, wavepackets, ring sums.

Everything here validates the closed-form modules from first principles,
on numpy alone.  One real sparse operator type, ``SparseOperator``,
realizes the open resonator chains exactly, in the single- and the
two-excitation sector (the latter on its bosonic sector, photon pairs
packed as a <= b, the pair state's norm weighted by :func:`_pair_weights`).
The chain is stated once, by :func:`_single_parts`, as a chain
description: the diagonal, the one hopping value over neighbour slots, the
atom couplings and any bond that hops off the slots.  The
single-excitation and pair operators are built from a description.  The
part of the lattice that meets the atom is one Jacobi chain for either
kind of model, the bright half-chain (:func:`_bright_parts`), whose
description derives from the chain's: under the mirror x -> -x, and for
the H-type model a rotation of the two chains' even modes, the lattice
splits into that chain, the atom then e_0 ... e_h with a sqrt(2) u bond,
and free chains.  A pair run propagates as a pair state only the bright
pairs of the T-type chain; everything else is the product of
single-photon runs (:func:`_pair_evolution`).  Every neighbour slot
reads row + a fixed offset on all but O(n) rows: a chain's slots +-1, and
a pair's legs +-1 and +-(W - 1) once the pair triangle is folded into a
rectangle of width W (the rectangular full packed format of Gustavson,
Wasniewski, Dongarra & Langou, ACM TOMS 37, 18 (2010); see
:func:`_pair_operator`).  So each slot is applied as one contiguous
shifted-slice add, and the diagonal as its constant plus its few deviating
rows.  One Chebyshev propagator, its
Bessel coefficients from Miller's backward recurrence, evolves both, and
refuses an expansion order above ``_MAX_CHEBYSHEV_ORDER``.  The
bright chain holds both extremes of the whole single-excitation operator,
and a Sturm count of its eigenvalues below an energy, the LDL^T pivots of
a tridiagonal matrix, needs no fill (:class:`_Tree`).  Bisection on that
count brackets both extremes to one ulp, for either kind of model: they
size every run (:func:`_spectral_interval`), and they are the bound
states, whose decay and sign the settled pivot gives.
Each run keeps only its working set live: the propagator its recursion
vectors (see :func:`_chebyshev_evolve`); the pair operator lays out only
its O(n) rows off the shift pattern, a symmetrised pair state is gathered
through the pair sites of :func:`_pair_sites`, and the pair run rebuilds
the whole chain's pair state, sites and norm weights after the
propagations instead of holding them through them.
Gaussian wavepacket runs measure transmission probabilities against the
analytic amplitudes; two-packet runs probe photon-photon correlations;
and quantized-momentum ring sums check the continuum delta conventions of the analytic S-matrices (a
momentum delta maps to (L / 2 pi) times a Kronecker delta on the ring).
Both ring sums, the unitarity sum :func:`ring_norm` and the out-state
image :func:`ring_wavefunction`, take a record and its incident momenta,
snap them to the ring grid, build the S-matrix with the library's own
constructor (``twg.two_photon_s``, ``twg.three_photon_s`` or
``hwg.two_photon_s_h``) and lay every term of its cluster sum on one
energy-shell grid, so a wrong slot or weight in the S-matrix shows in them.

H-type lattice realization: each chain uses hopping J = 1/2, so the
band-center group velocity equals the unit waveguide velocity, and site
coupling V_s = vbar_s / sqrt(2), the even-mode enhancement at the shared
site.  Chain frequencies sit at the atom frequency, which makes the lattice
band energy epsilon(q) = Omega - cos(q) directly the waveguide momentum
variable.
"""

from __future__ import annotations

import copy
import math
import sys
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
    """Real square sparse matrix h = c + u A + C, built for repeated products.

    The builder states the structure it knows: the size, the constant c
    that most rows hold on the diagonal, the one hopping value u and its
    0/1 pattern A as shift slots, and every other entry, the diagonal's
    deviations from c among them, as (row, column, value) triplets C.  A
    shift slot is (offset, rows, cols), the offset nonzero: its column is
    row + offset except on ``rows``, where it is ``cols``, a row's own index
    meaning no neighbour, as does row + offset outside the matrix.  A column
    may recur across a row's slots (a doubled hop), and C may repeat rows.

    The off-pattern rows of each slot join C: u back off the shifted
    column, u onto the stated one.  A product costs one scaling of x, one
    contiguous shifted-slice add per slot, one scaling by u and one
    scatter-add of C, and the operator holds no array longer than C.

    :meth:`apply` writes a product into a caller-owned vector and gathers
    C's columns into a caller-owned scratch vector, so a loop of products
    allocates nothing; ``h @ x`` is its allocating wrapper.
    """

    def __init__(self, size: int, constant: float, hopping: float = 0.0, couplings=(), shifts=()):
        if np.iscomplexobj(constant) or any(np.iscomplexobj(t[2]) for t in couplings):
            raise ValueError("operator entries must be real")
        self.shape = (size, size)
        self.constant = float(constant)
        self.hopping = float(hopping)
        entries = list(couplings)
        # per shift slot the (target, source) slices of its shifted-slice add
        self.shifts = []
        for offset, rows, cols in shifts:
            rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
            shifted = rows[(rows + offset >= 0) & (rows + offset < size)]
            moved = cols != rows
            entries.append((shifted, shifted + offset, -self.hopping))
            entries.append((rows[moved], cols[moved], self.hopping))
            lead, trail = max(0, offset), max(0, -offset)
            self.shifts.append((slice(trail, size - lead), slice(lead, size - trail)))
        parts = zip(*(np.broadcast_arrays(*map(np.ravel, t)) for t in entries))
        rows, cols, vals = (np.concatenate(column) for column in parts)
        # an entry of value 0 costs a product and adds nothing
        kept = vals != 0.0
        self.rows, self.cols, self.vals = rows[kept], cols[kept], vals[kept]

    def affine(self, scale: float, shift: float) -> SparseOperator:
        """The operator scale * (self - shift), sharing this one's columns."""
        out = copy.copy(self)
        out.constant = scale * (self.constant - shift)
        out.hopping = scale * self.hopping
        out.vals = scale * self.vals
        return out

    def apply(self, x: np.ndarray, out: np.ndarray, minus=None, scratch=None) -> np.ndarray:
        """Write h x, less ``minus`` if given, into ``out`` and return it.

        ``out`` has the shape and dtype of ``x`` and shares no memory with
        it or with ``minus``.  The product is formed as u (c / u + A) x + C x,
        so it needs no state-length scratch.  Where c / u would pass 1e300
        the hopping is below the rounding of c x, and A is left out.  C's
        columns of x are gathered into ``scratch`` if given, a vector of
        x's dtype at least as long as C whose contents the product
        overwrites, else into a new one.
        """
        if abs(self.constant) < 1e300 * abs(self.hopping):
            np.multiply(x, self.constant / self.hopping, out=out)
            for target, source in self.shifts:
                out[target] += x[source]
            out *= self.hopping
        else:
            np.multiply(x, self.constant, out=out)
        # every column is in range; a checked take would buffer its output.
        # The array method skips np.take's dispatch, a microsecond a product
        gather = None if scratch is None else scratch[: len(self.cols)]
        terms = x.take(self.cols, out=gather, mode="clip")
        # C's values scale each real part in turn: a complex product with
        # them would cast them into a temporary
        for part in (terms.real, terms.imag) if terms.dtype.kind == "c" else (terms,):
            part *= self.vals
        np.add.at(out, self.rows, terms)
        if minus is not None:
            out -= minus
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x, np.empty_like(x))


def _chain_slots(size: int, *chains):
    """Left and right neighbour slots of open chains, each over consecutive
    rows among ``size``, as (offset, columns): a chain end, and a row on no
    chain, reads itself."""
    left, right = np.arange(size), np.arange(size)
    for sites in chains:
        left[sites[1:]] = sites[:-1]
        right[sites[:-1]] = sites[1:]
    return [(-1, left), (1, right)]


def _off_pattern(offset: int, cols, start: int = 0):
    """The rows among ``start``, ``start`` + 1, ... whose neighbour column in
    ``cols`` is not row + ``offset``, and those columns: a shift slot's
    (rows, cols)."""
    rows = np.arange(start, start + len(cols))
    off = cols != rows + offset
    return rows[off], cols[off]


def _single_parts(model: LatticeModel):
    """The single-excitation chain, as a chain description: its diagonal,
    hopping value and neighbour slots (see :func:`_chain_slots`), the atom
    couplings (site, v) and the bonds (site, site, value) a hop adds off the
    slots, none here.  T-type layout: sites 0..L-1 then the atom.  H-type
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
    diag = np.full(model.dimension, omega, dtype=float)
    diag[-1] = p.omega_atom
    sites = [chain[(model.size - 1) // 2] for chain in chains]
    slots = _chain_slots(model.dimension, *chains)
    return diag, -hopping, slots, list(zip(sites, couplings)), []


def _bright_parts(model: LatticeModel):
    """The bright half-chain of either kind, as a chain description (see
    :func:`_single_parts`): a Jacobi chain e_0, ..., e_h, h = (L - 1) / 2,
    then the atom, which couples to e_0 alone.

    Each chain's mirror-even modes are e_0 = |c>, e_j = (|c + j> + |c -
    j>) / sqrt(2), c the centre; the mirror-odd modes (|c + j> - |c - j>) /
    sqrt(2) have a node at the centre, so they form a free chain of their
    own that never meets the atom (the even/odd split of Shen & Fan, PRA
    76, 062709 (2007)).  The e_0 - e_1 bond is sqrt(2) u, u the hopping
    value: the slots give u and the bond the rest.  The two H-type chains
    share one J, so their even chains rotate into a bright one, (V_1 e_j^(1)
    + V_2 e_j^(2)) / sqrt(V_1^2 + V_2^2), which meets the atom with
    sqrt(V_1^2 + V_2^2), and a free dark one, V_s = vbar_s / sqrt(2).

    The bright chain holds both extremes of the whole single-excitation
    operator.  A free even chain is its photon block, a principal
    submatrix, so by Cauchy interlacing its levels lie between them; a
    free odd chain's levels, omega + 2 u cos(2 pi k / (L + 1)), lie
    strictly inside the even chain's extremes, omega -+ 2 |u| cos(pi / (L +
    1)).
    """
    diag, hopping, _, couplings, _ = _single_parts(model)
    n = (model.size + 1) // 2
    bright = np.append(diag[:n], diag[-1])
    bonds = [(0, 1, (np.sqrt(2.0) - 1.0) * hopping)]
    coupling = float(np.hypot.reduce([v for _, v in couplings]))
    return bright, hopping, _chain_slots(n + 1, np.arange(n)), [(0, coupling)], bonds


def _single_operator(*chains) -> SparseOperator:
    """The single-excitation operator of chain descriptions (see
    :func:`_single_parts`), block diagonal over ``chains``, which share the
    photon frequency and the hopping value: each block's rows in turn, its
    atom the last."""
    entries, off_pattern, start = [], {}, 0
    for diag, hopping, slots, couplings, bonds in chains:
        atom = len(diag) - 1
        for i, j, v in [*((site, atom, v) for site, v in couplings), *bonds]:
            entries += [(start + i, start + j, v), (start + j, start + i, v)]
        entries.append((start + atom, start + atom, diag[-1] - diag[0]))
        for offset, cols in slots:
            off_pattern.setdefault(offset, []).append(_off_pattern(offset, start + cols, start))
        start += len(diag)
    shifts = [(offset, *map(np.concatenate, zip(*parts))) for offset, parts in off_pattern.items()]
    return SparseOperator(start, diag[0], hopping, entries, shifts)


def build_single_excitation(model: LatticeModel) -> SparseOperator:
    """Sparse symmetric single-excitation Hamiltonian, open chains (layout
    and scales as in :func:`_single_parts`)."""
    return _single_operator(_single_parts(model))


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
    coefficients, and each step is one product call that also subtracts
    t_{k-1}.  One complex accumulator sums the terms with weights
    (2 - delta_k0) (-i)^k J_k(a t), which is e^{-i a t X / 2} state, and
    e^{-i b t} is applied to it in place.  Returns (evolved state, order).
    An order above ``_MAX_CHEBYSHEV_ORDER`` is refused with ValueError
    before any coefficient is computed.

    A run keeps five state-length complex vectors live, whatever its order:
    the three recursion vectors, which rotate, the accumulator, which is
    returned, and a scratch vector, which takes each weighted term and,
    during a product, C's gathered columns.  X shares ``h``'s slots and
    scales only the values of its C, so it holds no state-length array of
    its own, and no product allocates.
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
    # (-i)^k runs +1, -i, -1, +i
    coef = bess[: order + 1] * np.array([1.0, -1j, -1.0, 1j])[np.arange(order + 1) % 4]
    coef[1:] *= 2.0

    x = h.affine(2.0 / a, b)
    t0 = np.array(state, dtype=complex)
    t1, t2, buf = np.empty_like(t0), np.empty_like(t0), np.empty_like(t0)
    acc = np.multiply(t0, coef[0])
    # buf is idle while a product runs, so it takes C's gather too
    scratch = buf if len(x.cols) <= len(buf) else None
    x.apply(t0, t1, scratch=scratch)
    t1 *= 0.5
    acc += np.multiply(t1, coef[1], out=buf)
    for k in range(2, order + 1):
        x.apply(t1, t2, minus=t0, scratch=scratch)
        acc += np.multiply(t2, coef[k], out=buf)
        t0, t1, t2 = t1, t2, t0
    acc *= np.exp(-1j * b * t)
    return acc, order


class _Tree:
    """Sturm count on the bright Jacobi chain of :func:`_bright_parts`.

    ``chain`` is that description: photon sites e_0 .. e_h of one frequency
    omega and hopping value u, the bond on e_0 - e_1, and the atom, the
    last row, coupled to e_0 alone with v.  An LDL^T factorisation of h - e
    from the far end inward has no fill, and its negative pivots count the
    eigenvalues below e (Sylvester's law of inertia): d_{i+1} = (omega - e)
    - u^2 / d_i from e_h to e_1, d_c = (omega - e) - b^2 / d_1 at e_0, b the
    e_0 - e_1 hop, and d_a = (Omega - e) - v^2 / d_c at the atom.  Once a
    pivot on e_h .. e_1 repeats (outside the band) every later one equals
    it, so a count costs the decay length there, not L.  Out from the
    centre a site's amplitude is -u / d times its inner neighbour's, d the
    pivot of its mode, so that settled pivot gives a bound state's decay
    and sign.  In floating point the count is exact for a matrix within a
    few ulps of h (Kahan 1966; Barth, Martin & Wilkinson, Numer. Math. 9,
    386 (1967)).  A pivot under ``pivmin`` in magnitude becomes -pivmin, as
    in LAPACK's dstebz: every square over a pivot is finite.
    """

    def __init__(self, chain):
        diag, self.hopping, _, [(_, coupling)], [(_, _, bond)] = chain
        self.omega, self.omega_atom = float(diag[0]), float(diag[-1])
        self.half, self.dimension = len(diag) - 2, len(diag)
        self.hop2, self.centre2 = self.hopping**2, (self.hopping + bond) ** 2
        self.coupling2 = coupling**2
        self.pivmin = sys.float_info.min * max(1.0, self.hop2, self.centre2, self.coupling2)
        # above ||h||: the photon hopping is the even sector of a chain's,
        # whose norm is below 2 |u|, and the atom's star has norm |v|
        self.norm = float(np.max(np.abs(diag))) + 2.0 * abs(self.hopping) + abs(coupling)

    def _pivot(self, d: float) -> float:
        return d if abs(d) >= self.pivmin else -self.pivmin

    def walk(self, e: float):
        """The number of eigenvalues below e, and the settled pivot: the
        first of e_h's to e_1's pivots that repeats, or e_1's when none
        does.

        One pass from e_h inward keeps a running count of the negative
        pivots and stops at the first repeat, whose sign every site left
        shares; it holds no pivot but the last.
        """
        a = self.omega - e
        pivmin = self.pivmin
        d = self._pivot(a)
        below = int(d < 0.0)
        for site in range(1, self.half):
            step = a - self.hop2 / d
            if abs(step) < pivmin:
                step = -pivmin
            if step == d:
                below += (self.half - site) * (d < 0.0)
                break
            d = step
            below += d < 0.0
        centre = self._pivot(a - self.centre2 / d)
        atom = self._pivot(self.omega_atom - e - self.coupling2 / centre)
        return below + (centre < 0.0) + (atom < 0.0), d

    def bracket(self, k: int):
        """Adjacent floats (lo, hi) whose counts (:meth:`walk`) satisfy
        count(lo) < k <= count(hi): the k-th lowest eigenvalue lies between
        them."""
        lo, hi = -self.norm, self.norm
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if self.walk(mid)[0] >= k:
                hi = mid
            else:
                lo = mid
        return lo, hi


def _spectral_interval(model: LatticeModel):
    """[e_min, e_max]: an interval holding every eigenvalue of the
    single-excitation operator of ``model``, either kind.

    e_min and e_max are the extremes of the bright Jacobi chain
    (:func:`_bright_parts`), which are the whole operator's, bracketed by
    :class:`_Tree`'s Sturm count and padded outward by a few ulps of its
    norm bound.
    """
    tree = _Tree(_bright_parts(model))
    (low, _), (_, high) = tree.bracket(1), tree.bracket(tree.dimension)
    pad = 4.0 * sys.float_info.epsilon * tree.norm
    return low - pad, high + pad


# ---------------------------------------------------------------------------
# bound states


@dataclass(frozen=True)
class BoundStateReport:
    """Out-of-band eigenpairs compared with the closed-form bound states.

    ``bracket_widths`` are the widths of the (lower, upper) count brackets
    the energies come from, one ulp of each energy.  At each energy the
    neighbour ratio -u / d, d the settled half-chain pivot, gives
    ``envelope_slopes`` as log|u / d| and the sign flags as its sign.
    """

    energies: tuple[float, float]
    analytic_energies: tuple[float, float]
    energy_residuals: tuple[float, float]
    envelope_slopes: tuple[float, float]
    analytic_slopes: tuple[float, float]
    slope_residuals: tuple[float, float]
    upper_sign_alternating: bool
    lower_sign_uniform: bool
    bracket_widths: tuple[float, float]
    warnings: tuple[str, ...]


def bound_state_check(model: LatticeModel) -> BoundStateReport:
    """Compare out-of-band lattice eigenpairs with the analytic bound states.

    Both kinds are read off the bright Jacobi chain (:func:`_bright_parts`),
    the only part of the lattice that meets the atom: its energies come
    from :class:`_Tree`'s brackets, and the analytic side is the T-type
    record of that chain, Omega and omega0 its atom and photon diagonal, J
    = -u its hopping and V its atom coupling (for an H-type model J = 1/2,
    omega0 = Omega and V^2 = (vbar1^2 + vbar2^2) / 2).  Decay and sign are
    read off the settled pivot (:meth:`_Tree.walk`).
    """
    chain = _bright_parts(model)
    diag, hopping, _, [(_, coupling)], _ = chain
    p = TCRAParams(float(diag[-1]), float(diag[0]), -hopping, coupling)
    lower, upper = tcra.bound_state_energies(p)
    top, bottom = p.band_top, p.band_bottom
    edge = 1e-12 * max(1.0, abs(top), abs(bottom))
    # the photons are a principal submatrix, so by Cauchy interlacing at
    # most one level lies on each side of the band: the extreme is the only
    # candidate
    tree = _Tree(chain)
    brackets = (tree.bracket(1), tree.bracket(tree.dimension))
    e_low, e_high = (0.5 * (lo + hi) for lo, hi in brackets)
    below = e_low < bottom - edge
    above = e_high > top + edge

    warnings = []
    if not (below and above):
        warnings.append(
            f"expected one out-of-band level per side, found {int(below)} below"
            f" and {int(above)} above; the lattice may not resolve weak binding"
        )

    found = ((e_low, below), (e_high, above))
    energies = tuple(e if ok else np.nan for e, ok in found)
    # the neighbour ratio -u / d out from a centre
    ratios = [-tree.hopping / tree.walk(e)[1] if ok else np.nan for e, ok in found]
    slopes = tuple(float(np.log(abs(r))) for r in ratios)

    analytic_e = (lower.energy, upper.energy)
    analytic_s = (lower.decay_log, upper.decay_log)
    return BoundStateReport(
        energies=energies,
        analytic_energies=analytic_e,
        energy_residuals=tuple(abs(a - b) for a, b in zip(energies, analytic_e)),
        envelope_slopes=slopes,
        analytic_slopes=analytic_s,
        slope_residuals=tuple(abs(a - b) for a, b in zip(slopes, analytic_s)),
        upper_sign_alternating=bool(ratios[1] < 0.0),
        lower_sign_uniform=bool(ratios[0] > 0.0),
        bracket_widths=tuple(hi - lo for lo, hi in brackets),
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
    ``chebyshev_order`` its number of operator products.  ``guard_mass`` is
    the share of the final density in the boundary guard zones, at most
    ``_GUARD_MASS_LIMIT`` on a run that returns.
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
    guard_mass: float


def _gaussian(x, center, width):
    # width is the intensity standard deviation
    return np.exp(-((x - center) ** 2) / (4.0 * width**2))


def _check_guard_mass(weights: np.ndarray, x: np.ndarray, half: int, guard: int, t: float):
    """The relative mass in the guard zones; ToleranceError above the limit."""
    mass = float(weights[np.abs(x) >= half - guard].sum()) / float(weights.sum())
    if mass > _GUARD_MASS_LIMIT:
        raise ToleranceError(
            f"packet reached the boundary guard zone: relative mass {mass:.3e}"
            f" at duration {t:.3g}; enlarge the lattice or shorten the run"
        )
    return mass


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
        v_g = float(p.group_velocity(carrier))
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
    bounds = _spectral_interval(model)
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
    guard_mass = _check_guard_mass(chains, x, half, guard, t_end)
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
        guard_mass=guard_mass,
    )


# ---------------------------------------------------------------------------
# two-excitation sector


@dataclass(frozen=True)
class TwoExcitationReport:
    """Transmitted-pair statistics from a two-packet lattice run.

    ``relative_density[d]`` is the transmitted joint density summed over
    site pairs at separation d; the bunching indicator is the near-
    coincidence fraction (d <= window) relative to the same fraction for
    freely evolved packets.  ``guard_mass`` is the share of the final
    photon marginal in the boundary guard zones, at most
    ``_GUARD_MASS_LIMIT`` on a run that returns.  ``propagated_states`` is
    the size of the one pair state the run propagates, the bright
    half-chain's (see :func:`_pair_evolution`), over which
    ``chebyshev_order`` counts its products.
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
    propagated_states: int
    guard_mass: float


def _pair_index(a, b, size: int):
    """Position of the unordered pair {a, b} of ``size`` sites in the folded
    triangle (see :func:`_pair_operator`).

    Rectangle row r < h holds triangle row r forward, at r W + (b - r); the
    rows from h on hold the triangle's last rows backward, at 2 h W - 1
    less that same formula.  The position is formed in place, so the map
    holds three arrays of the pairs' length at once.
    """
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    width, rows = size | 1, (size + 1) // 2
    index = np.asarray(lo * width)
    index += hi
    index -= lo
    np.subtract(2 * rows * width - 1, index, out=index, where=lo >= rows)
    return index


def _pair_sites(index, size: int):
    """The sites (a, b), a <= b, of the pairs at positions ``index`` of the
    folded triangle: the inverse of :func:`_pair_index`."""
    width, rows = size | 1, (size + 1) // 2
    r, c = np.divmod(index, width)
    head = c < size - r
    a = np.where(head, r, 2 * rows - 1 - r)
    return a, a + np.where(head, c, width - 1 - c)


def _pair_operator(chain) -> SparseOperator:
    """Two-excitation operator on the bosonic sector: packed pairs, then photon + atom.

    The pair block acts on the symmetric pair amplitude psi[a, b], a <= b,
    over the n photon sites of ``chain``, a chain description (see
    :func:`_single_parts`), packed once per unordered pair; the second
    block on chi[c], a photon at site c with the atom excited.  It is the
    two-boson operator kron(h, 1) + kron(1, h) of the single-excitation
    chain h, restricted to its symmetric subspace with |2_atom> removed,
    and every entry comes from the description: the diagonal d[a] + d[b]
    and d[c] + d[atom]; each single slot applied to leg a and to leg b,
    re-packed, so a hop out of the triangle lands on the mirror entry and a
    diagonal pair reads each neighbour twice, with chi hopping along leg b;
    per bond (i, j, value) the same hop i -> j and j -> i, laid out as
    couplings; and per coupled (site, v) the emission v (1 + delta_{c,
    site}) into pair(site, c) and the absorption v back.  The state norm is
    sum w |state|^2 with w from :func:`_pair_weights`, under which the real
    matrix is self-adjoint.

    The triangle is folded into a rectangle of width W = n | 1 (n odd: n;
    n even: n + 1) and h = (n + 1) // 2 rows, as in the rectangular full
    packed format (Gustavson, Wasniewski, Dongarra & Langou, ACM TOMS 37,
    18 (2010)): rectangle row r holds triangle row r at column b - r, then
    triangle row 2h - 1 - r reversed.  In both parts a pair's leg-b
    neighbours sit at +-1 and its leg-a neighbours at +-(W - 1), so all
    four pair slots are shift slots, chi taking the +-1 ones.  They leave
    their pattern only on O(n) rows, known in closed form: a leg on a chain
    end or on either side of the fold's seam, and a diagonal pair.  Those
    rows alone are laid out, so the build holds no state-length array, and
    the diagonal is its constant 2 d[0] plus the chi rows' offset.
    """
    d, hopping, single, couplings, bonds = chain
    n = len(d) - 1
    width, half = n | 1, (n + 1) // 2
    npairs = n * (n + 1) // 2
    sites = np.arange(n)
    chi = npairs + sites
    # the rows off the pattern: a leg on a chain end or beside the seam, and
    # the diagonal pairs; np.unique would import numpy.ma, a megabyte
    edges = {half - 1, half}
    for offset, s in single:
        edges.update(np.flatnonzero(s[:n] != sites + offset).tolist())
    rows = np.array(sorted({i for e in [*edges, sites] for i in _pair_index(e, sites, n).tolist()}))
    a, b = _pair_sites(rows, n)
    # the rectangle's lower part runs against the triangle, so its hops take
    # the opposite offsets
    head = a < half
    off_pattern = {}
    for offset, s in single:
        off_pattern.setdefault(offset, []).append(_off_pattern(offset, npairs + s[:n], npairs))
        for step, cols in ((1, _pair_index(a, s[b], n)), (width - 1, _pair_index(s[a], b, n))):
            for sign, part in ((1, head), (-1, ~head)):
                shift = sign * offset * step
                keep = part & (cols != rows + shift)
                off_pattern.setdefault(shift, []).append((rows[keep], cols[keep]))
    for shift in (width - 1, 1 - width):
        # chi has no leg a
        off_pattern[shift].append((chi, chi))
    shifts = [(shift, *map(np.concatenate, zip(*parts))) for shift, parts in off_pattern.items()]
    # every photon site has the frequency d[0]
    entries = [(chi, chi, d[n] - d[0])]
    for site, v in couplings:
        touch = _pair_index(sites, site, n)
        entries += [(touch, chi, v * (1.0 + (sites == site))), (chi, touch, v)]
    for i, j, v in bonds:
        for start, end in ((i, j), (j, i)):
            moved = (_pair_index(sites, start, n), _pair_index(sites, end, n))
            entries += [(*moved, v * (1.0 + (sites == start))), (npairs + start, npairs + end, v)]
    return SparseOperator(npairs + n, 2.0 * d[0], hopping, entries, shifts)


def _pair_weights(size: int) -> np.ndarray:
    """Norm weights of a packed pair state: 1/2 on a diagonal pair, else 1."""
    weights = np.ones(size * (size + 1) // 2 + size)
    sites = np.arange(size)
    weights[_pair_index(sites, sites, size)] = 0.5
    return weights


def _symmetrized(f, g, a, b) -> np.ndarray:
    """The packed pair amplitude f[a] g[b] + g[a] f[b] at the pair sites
    (a, b) of :func:`_pair_sites`."""
    out = f[a]
    out *= g[b]
    cross = g[a]
    cross *= f[b]
    out += cross
    return out


def _pair_evolution(model: LatticeModel, f, g, t: float):
    """Evolve the pair state of photon packets f and g on a T-type
    ``model``, and each packet alone without the atom, for time t.

    The pair state is sym(f x g) = f[a] g[b] + g[a] f[b], normalized.
    Returns (state, free, order, propagated, bounds, sites): the evolved
    pair state in the layout of :func:`_pair_operator` on the whole chain,
    pairs then chi; the packets evolved on the photon chain alone, as two
    rows; the pair run's order, its number of states and the interval it
    was sized by; and the whole chain's pair sites (a, b) of
    :func:`_pair_sites`, which the state's rebuild reads.

    In the mirror basis of :func:`_bright_parts` the single-excitation
    operator h is H_b + h_o, the bright chain with the atom and the free
    odd chain, and only |2_atom>, which the bright pair sector alone holds,
    is barred.  So off that sector the pair state evolves as the product
    sym(F x G), F = e^{-i h t} f and G likewise, its chi F_atom G + G_atom
    F.  On it, (L + 1)(L + 3) / 8 + (L + 1) / 2 states against L (L + 1) / 2
    + L for the whole chain, a pair run on the bright chain's operator
    evolves the mirror-even part of sym(f x g); it replaces the product's
    share there, which the same formulas give from F's and G's even parts.
    One single-excitation run evolves f and g with the atom and, on two
    more blocks with the atom uncoupled, without it.

    Both runs are sized by :func:`_spectral_interval`, the pair run by it
    doubled.  The free photon chain is a principal submatrix of the single
    operator and the uncoupled atom one of its diagonal entries, so their
    levels lie inside it.  The two-boson operator has the sums of two
    single levels for its spectrum; the hard-core pair operator
    (:func:`_pair_operator`) is its compression with |2_atom> removed, and
    the bright chain's one a block of that, the mirror-even sector, which
    it leaves invariant, so its levels lie inside the doubled interval.
    """
    size, half = model.size, (model.size - 1) // 2
    n = half + 1
    # sum w |sym(f x g)|^2 = |f|^2 |g|^2 + |<f, g>|^2
    f = f / np.sqrt(np.vdot(f, f).real * np.vdot(g, g).real + abs(np.vdot(f, g)) ** 2)
    chain = _single_parts(model)
    # the chain with its atom coupling left out
    free = (*chain[:3], [], chain[4])
    single = np.zeros((4, model.dimension), dtype=complex)
    single[:, :size] = f, g, f, g
    h_single = _single_operator(chain, chain, free, free)
    bounds = _spectral_interval(model)
    single, _ = _chebyshev_evolve(h_single, single.ravel(), t, bounds)
    single = single.reshape(4, -1)
    photons, atom = single[:2, :size], single[:2, size]

    # e_j's amplitude on site c + j, and on c - j
    scale = np.full(n, np.sqrt(0.5))
    scale[0] = 1.0

    def even(v):
        return 0.5 * (v[half:] + v[half::-1]) / scale

    nb = n * (n + 1) // 2
    ia, ib = _pair_sites(np.arange(nb), n)
    bright = np.concatenate((_symmetrized(even(f), even(g), ia, ib), np.zeros(n)))
    pair_bounds = (2.0 * bounds[0], 2.0 * bounds[1])
    bright, order = _chebyshev_evolve(_pair_operator(_bright_parts(model)), bright, t, pair_bounds)
    # the pair run's share less the product's, laid on the sites
    fe, ge = even(photons[0]), even(photons[1])
    bright[:nb] -= _symmetrized(fe, ge, ia, ib)
    bright[nb:] -= atom[0] * ge + atom[1] * fe
    bright[:nb] *= scale[ia] * scale[ib]
    bright[nb:] *= scale

    sites = _pair_sites(np.arange(size * (size + 1) // 2), size)
    pairs = _symmetrized(photons[0], photons[1], *sites)
    pairs += bright[_pair_index(*(np.abs(j - half) for j in sites), n)]
    chi = atom[0] * photons[1] + atom[1] * photons[0]
    chi += bright[nb + np.abs(np.arange(size) - half)]
    state = np.concatenate((pairs, chi))
    return state, single[2:, :size], order, nb + n, pair_bounds, sites


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

    Only the pairs that meet the atom, the mirror-even ones on the chain's
    bright half, run as a pair state; the rest of the pair state, and the
    free packets, come exactly from one single-photon run
    (:func:`_pair_evolution`).  The density analysis reads the whole
    chain's pair state rebuilt from the two.
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

    v_g = float(min(p.group_velocity(k1), p.group_velocity(k2)))
    t_end = duration if duration is not None else (abs(c_back) + 3.0 * width) / v_g

    phi_front = np.exp(1j * k1 * x) * _gaussian(x, c_front, width)
    phi_back = np.exp(1j * k2 * x) * _gaussian(x, c_back, width)
    state_t, free, order, propagated, bounds, (a, b) = _pair_evolution(
        model, phi_front, phi_back, t_end
    )
    npairs = size * (size + 1) // 2
    weights = _pair_weights(size)
    dens = weights * np.abs(state_t) ** 2
    # the analysis reads only the density: the free reference below takes
    # the room the pair state held
    del state_t
    norm_drift = float(abs(dens.sum() - 1.0))
    pair_dens = dens[:npairs]
    marg = np.bincount(a, pair_dens, size) + np.bincount(b, pair_dens, size) + dens[npairs:]
    guard_mass = _check_guard_mass(marg, x, half, guard, t_end)

    # free reference: product evolution of the same packets under the photon
    # block of the single-excitation chain
    free_amp = _symmetrized(free[0], free[1], a, b)
    free_dens = weights[:npairs] * np.abs(free_amp) ** 2
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
        spectral_interval=bounds,
        chebyshev_order=order,
        propagated_states=propagated,
        guard_mass=guard_mass,
    )


# ---------------------------------------------------------------------------
# ring-quantized momentum sums


# shell half-widths of the ring sums by photon number, in line scales
# |E/n - Omega| + the linewidth: the unitarity sums' and the out-state
# images'; the connected pair tail of an out-state decays slowly and needs
# the widest
_NORM_WINDOWS = {2: 25.0, 3: 9.0}
_IMAGE_WINDOWS = {2: 1500.0, 3: 29.0}


def _shell(params, e: float, n: int, size: int, windows: float):
    """Ring momenta on the shell p_1 + ... + p_n = e.

    The first n - 1 slots each run over the grid axis centred on e / n, of
    half-width ``windows`` line scales |e / n - Omega| + the linewidth
    (gamma_t, or gamma_e for an ``HWGParams`` record); the last slot closes
    the shell.
    """
    width = params.gamma_e if isinstance(params, HWGParams) else params.gamma_t
    half_window = windows * (abs(e / n - params.omega_atom) + width)
    dk = 2.0 * np.pi / size
    n0 = round((e / n) / dk)
    axis = np.arange(n0 - int(half_window / dk), n0 + int(half_window / dk) + 1) * dk
    p = np.meshgrid(*([axis] * (n - 1)), indexing="ij")
    last = e
    for q in p:
        last = last - q
    return [*p, last]


def _ring_image(terms, p, size: int) -> np.ndarray:
    """Lay the S-matrix element ``terms`` on the shell momenta ``p`` of :func:`_shell`.

    A momentum delta is (L / 2 pi) times a Kronecker delta on the ring, so
    a term with a density over m free slots carries (2 pi / L)^(m - 1) and
    a fully pinned term its bare weight.  The shell fixes the last slot, so
    a fully pinned term matches on the others alone.  The fully connected
    term, first in every cluster sum, is laid on the whole shell in place.
    """
    dk = 2.0 * np.pi / size
    first, *rest = terms
    m = first.density(*p)
    m *= first.weight
    m *= dk ** (len(p) - 1)
    for term in rest:
        pins = term.pinned[:-1] if term.density is None else term.pinned
        match = np.logical_and.reduce([np.abs(p[s] - v) < 0.25 * dk for s, v in pins])
        if term.density is None:
            m[match] += term.weight
        elif match.any():
            slots = [s for s, _ in term.pinned]
            free = [q[match] for s, q in enumerate(p) if s not in slots]
            m[match] += term.weight * dk ** (len(free) - 1) * term.density(*free)
    return m


def _channels(params, k, size: int):
    """Snapped incident momenta and the library's S-matrix for them.

    The S-matrix comes keyed by the outgoing waveguide labels: the one
    element of :func:`photon_scatter.twg.two_photon_s` or
    :func:`photon_scatter.twg.three_photon_s` for a ``TWGParams`` record,
    the three channels of :func:`photon_scatter.hwg.two_photon_s_h` (k1 in
    waveguide 1, k2 in waveguide 2) for an ``HWGParams`` one.
    """
    dk = 2.0 * np.pi / size
    ks = tuple(round(v / dk) * dk for v in k)
    if isinstance(params, HWGParams):
        if len(ks) != 2:
            raise ValueError(f"the H-type S-matrix takes a photon pair, got {len(ks)} momenta")
        return ks, hwg.two_photon_s_h(params, *ks)
    if len(ks) == 2:
        return ks, {(1, 1): twg.two_photon_s(params, *ks)}
    return ks, {(1, 1, 1): twg.three_photon_s(params, ks)}


def _identical(labels) -> int:
    """prod over the outgoing waveguide labels of (count of that label)!"""
    return math.prod(math.factorial(labels.count(j)) for j in set(labels))


def _plane_waves(m, e: float, first: float, x, size: int) -> np.ndarray:
    """sum_q m_q exp(i p_q . x) over the shell of :func:`_shell`, at every
    point of the flat coordinates ``x``.

    ``m`` has one axis per free slot, each over the same odd-length grid
    axis, which starts at ``first``; the last slot closes the shell at total
    momentum ``e``.  With c the axis' centre, p_s = c + o_s dk, dk = 2 pi /
    L, the phase is c sum_s x_s + (e - (n - 1) c) x_n, common to every
    momentum, plus sum_s o_s dk (x_s - x_n).  Each free axis factorises in
    turn: with o = J B + b, |b| <= B / 2 and B near the square root of the
    axis length N, exp(i o dk y) = exp(i J B dk y) exp(i b dk y), so a point
    needs about 2 sqrt(N) phases per axis, not N.  The last free axis is
    summed as one matrix product of ``m``'s whole blocks with the (B,
    points) table of inner phases, then a row sum weighted by the outer
    ones, plus the axis' two ragged ends; every other free axis against its
    whole phase table, built from the same factors.  No temporary is as
    long as the shell.

    The blocks are centred on c, so the momenta near it, where the
    S-matrix's weight lies, take small phases.  The common phase is formed
    in numpy's widest float: a rounding of it, or of c, which it multiplies
    by x_s - x_n, would shift every momentum's phase alike.
    """
    dk = 2.0 * np.pi / size
    *free, last = x
    count = m.shape[-1]
    centre = (count - 1) // 2
    half = math.isqrt(count) // 2
    block = 2 * half + 1
    reach = -(-(centre - half) // block)
    # m's first entry sits this far into the grid of 2 reach + 1 whole blocks
    lead = reach * block + half - centre

    def factors(y):
        outer = np.exp(1j * np.multiply.outer(np.arange(-reach, reach + 1) * block * dk, y))
        return outer, np.exp(1j * np.multiply.outer(np.arange(-half, half + 1) * dk, y))

    outer, inner = factors(free[-1] - last)
    lo, hi = -(-lead // block), (lead + count) // block
    body = m[..., lo * block - lead : hi * block - lead].reshape(*m.shape[:-1], hi - lo, block)
    sums = np.einsum("...jx,jx->...x", body @ inner, outer[lo:hi])
    ends = np.r_[: lo * block - lead, hi * block - lead : count]
    sums += m[..., ends] @ (outer[(ends + lead) // block] * inner[(ends + lead) % block])
    for y in free[-2::-1]:
        outer, inner = factors(y - last)
        table = (outer[:, None] * inner).reshape(-1, len(y))[lead : lead + count]
        sums = np.einsum("...jx,jx->...x", sums, table)
    # the index off the first momentum, not dk off a difference of two,
    # which carries the axis' rounding into every phase
    c = (round(first / dk) + centre) * np.longdouble(dk)
    common = sum(c * v for v in free) + (e - len(free) * c) * last
    return np.exp(1j * common).astype(complex) * sums


def ring_norm(params, k, size: int) -> float:
    """Out-state norm of the library's S-matrix on the ring (exact value 1).

    ``k`` holds the incident momenta: two or three photons on a
    ``TWGParams`` record, a pair (k1 in waveguide 1, k2 in waveguide 2) on
    an ``HWGParams`` one.  Snaps them to the ring grid and sums |M|^2 over
    every outgoing channel, M the channel's ring image on one energy shell
    of ``_NORM_WINDOWS[n]`` line scales, divided by prod (count of each
    outgoing waveguide label)! for identical photons.
    """
    ks, channels = _channels(params, k, size)
    p = _shell(params, sum(ks), len(ks), size, _NORM_WINDOWS[len(ks)])
    return float(
        sum(
            np.sum(np.abs(_ring_image(terms, p, size)) ** 2) / _identical(labels)
            for labels, terms in channels.items()
        )
    )


def ring_wavefunction(params, k, x, size: int):
    """Quantized-momentum image of the spatial out-state.

    ``k`` is as for :func:`ring_norm`; ``x`` holds one coordinate per
    photon, the coordinates broadcasting together.  Lays each outgoing
    channel's S-matrix on one energy shell of ``_IMAGE_WINDOWS[n]`` line
    scales and sums its plane waves at every point, factorised over the
    shell grid (:func:`_plane_waves`), divided by prod (count of each
    outgoing waveguide label)! and (2 pi)^(n/2).  Returns
    ``(snapped momenta, images)``, the images keyed by the outgoing
    waveguide labels, each of the coordinates' broadcast shape.

    Converges to :func:`photon_scatter.twg.two_photon_out_wavefunction`,
    :func:`photon_scatter.twg.three_photon_out_wavefunction` and
    :func:`photon_scatter.hwg.pair_wavefunction` as the ring grows.  The
    three-photon shell, truncated at W = 29 line scales, leaves a deviation
    from the exact out-state that falls as 1 / W and is largest at a triple
    coincidence: below 4 (2 pi)^(-3/2) / W, (2 pi)^(-3/2) being the
    in-state's largest modulus.  The largest measured, over momenta within
    two linewidths of resonance, is 3.86 (2 pi)^(-3/2) / W, at a triple
    coincidence with k = Omega.  Where |psi3| is small this bounds no
    relative deviation.
    """
    ks, channels = _channels(params, k, size)
    n = len(ks)
    xs = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in x))
    if len(xs) != n:
        raise ValueError(f"{n} photons need {n} coordinates, got {len(xs)}")
    flat = [v.ravel() for v in xs]
    e = sum(ks)
    p = _shell(params, e, n, size, _IMAGE_WINDOWS[n])
    images = {}
    for labels, terms in channels.items():
        values = _plane_waves(_ring_image(terms, p, size), e, p[0].flat[0], flat, size)
        values = values.reshape(xs[0].shape)
        values = values / (_identical(labels) * (2.0 * np.pi) ** (0.5 * n))
        images[labels] = values if values.ndim else complex(values)
    return ks, images
