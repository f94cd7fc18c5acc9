"""Finite-lattice oracle tests.

The oracle is the independent referee for the closed-form modules, so these
tests check it two ways: internal consistency (block structure, spectral
bounds, unitarity, free limits) and agreement with the analytic amplitudes
it is meant to validate.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.linalg import block_diag, eigh_tridiagonal, eigvalsh_tridiagonal, expm
from scipy.special import jv

from photon_scatter import lattice_oracle as lo
from photon_scatter import hwg, tcra, twg
from photon_scatter.core import HWGParams, TCRAParams, ToleranceError, TWGParams

BOUND_ENERGY = 2.0581710272714924


def _t_params(coupling=1.0):
    return TCRAParams(omega_atom=0.0, omega_cavity=0.0, hopping=1.0, coupling=coupling)


def _h_params(vbar):
    return HWGParams(omega_atom=1.0, vbar=vbar)


def _dense(h):
    """Dense copy of a lattice operator, one product per unit vector."""
    return np.column_stack([h @ e for e in np.eye(h.shape[0])])


def _operator(matrix):
    """The sparse operator of a dense matrix: its nonzero entries as
    couplings (no constant, no hopping slots)."""
    rows, cols = np.nonzero(matrix)
    return lo.SparseOperator(len(matrix), 0.0, couplings=[(rows, cols, matrix[rows, cols])])


def _traced_peak(run):
    """The peak of the bytes ``run()`` holds allocated at once, tracemalloc's
    count, which repeats exactly for a given code path."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _out_of_band(evals, bottom, top):
    edge = 1e-12 * max(1.0, abs(top), abs(bottom))
    return evals[(evals < bottom - edge) | (evals > top + edge)]


# ---------------------------------------------------------------------------
# matrix construction


def test_decoupled_atom_gives_block_diagonal_matrix():
    p = _t_params(coupling=0.0)
    h = _dense(lo.build_single_excitation(lo.LatticeModel(params=p, size=3)))
    chain = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, 0.0]])
    assert np.array_equal(h[:3, :3], chain)
    assert np.array_equal(h[3, :], np.zeros(4))
    assert np.array_equal(h[:, 3], np.zeros(4))


def test_h_model_layout():
    p = HWGParams(omega_atom=1.5, vbar=(0.4, 0.6))
    m = lo.LatticeModel(params=p, size=5)
    assert m.kind == "h"
    assert m.dimension == 11
    assert np.array_equal(m.positions(), np.array([-2, -1, 0, 1, 2]))
    h = _dense(lo.build_single_excitation(m))
    assert np.allclose(np.diag(h), 1.5)
    assert h[0, 1] == -0.5  # chain 1 hopping 1/2: unit band-center velocity
    assert h[5, 6] == -0.5  # chain 2 likewise
    assert h[2, 10] == pytest.approx(0.4 / np.sqrt(2.0))
    assert h[7, 10] == pytest.approx(0.6 / np.sqrt(2.0))
    assert np.array_equal(h, h.T)


def _chain(omega, hopping, size):
    """Dense open chain: omega on the diagonal, -hopping on both neighbours."""
    return omega * np.eye(size) - hopping * (np.eye(size, k=1) + np.eye(size, k=-1))


def _single_reference(model):
    """Dense single-excitation matrix written out entry by entry: the chains
    block-diagonal, the atom last, coupled to each chain's centre."""
    p, size, centre = model.params, model.size, (model.size - 1) // 2
    if model.kind == "t":
        omega, hopping, couplings = p.omega_cavity, p.hopping, [p.coupling]
    else:
        omega, hopping, couplings = p.omega_atom, 0.5, [v / np.sqrt(2.0) for v in p.vbar]
    m = np.zeros((model.dimension, model.dimension))
    for s, v in enumerate(couplings):
        chain = slice(s * size, (s + 1) * size)
        m[chain, chain] = _chain(omega, hopping, size)
        m[s * size + centre, -1] = m[-1, s * size + centre] = v
    m[-1, -1] = p.omega_atom
    return m


def _slot_reference(size, constant, hopping, shifts, couplings):
    """Dense matrix of the slots as :class:`SparseOperator` states them: a
    shift column equal to its row, or outside the matrix, is no neighbour."""
    m = constant * np.eye(size)
    for offset, rows, cols in shifts:
        full = np.arange(size) + offset
        full[rows] = cols
        for row, col in enumerate(full):
            if col != row and 0 <= col < size:
                m[row, col] += hopping
    for rows, cols, vals in couplings:
        np.add.at(m, (rows, cols), vals)
    return m


@pytest.mark.parametrize("size", [3, 5, 7])
def test_shift_slots_match_dense_references(size):
    # the chains' shift slots, T- and H-type, against matrices written out
    # entry by entry: at L = 3 most rows are off the pattern, and the
    # H-type slots cross the junction between the two chains, where the
    # shifted slice reads a row of the other chain and must be taken back
    for params in (
        TCRAParams(omega_atom=0.3, omega_cavity=0.1, hopping=0.9, coupling=0.7),
        HWGParams(omega_atom=0.9, vbar=(0.4, 0.7)),
    ):
        model = lo.LatticeModel(params=params, size=size)
        reference = _single_reference(model)
        h = lo.build_single_excitation(model)
        assert len(h.shifts) == 2
        dense = _dense(h)
        assert np.max(np.abs(dense - reference)) <= 1e-14
        if model.kind == "h":
            assert dense[size - 1, size] == 0.0 and dense[size, size - 1] == 0.0
        # the chi block of the pair operator, a photon hopping on the photon
        # chains with the atom excited, comes from the pair's leg-b shift slots
        h_pair = lo._pair_operator(lo._single_parts(model))
        n = model.dimension - 1
        chi = slice(n * (n + 1) // 2, None)
        photons = reference[:n, :n] + params.omega_atom * np.eye(n)
        assert np.max(np.abs(_dense(h_pair)[chi, chi] - photons)) <= 1e-14


def test_every_slot_form_matches_dense_reference():
    # one operator mixing every form a shift slot takes: offsets +1, -1 and
    # +3 whose off-pattern rows include both ends, self reads and columns
    # far away; a slot with no off-pattern rows; a doubled hop; repeated
    # coupling rows, among them the diagonal's deviations from the constant
    rng = np.random.default_rng(29)
    size = 12
    shifts = [
        (1, np.array([0, 4, 11]), np.array([7, 4, 3])),
        (-1, np.array([0, 1, 6]), np.array([9, 1, 2])),
        # row 3 hops to 4 here and on both +1 slots' patterns
        (3, np.array([2, 3, 9, 10]), np.array([2, 4, 0, 5])),
        (1, np.array([], dtype=int), np.array([], dtype=int)),
    ]
    couplings = [
        (np.array([2, 2, 7]), np.array([8, 8, 1]), np.array([0.3, -0.2, 1.1])),
        (np.array([3, 8]), np.array([3, 8]), np.array([-1.4, 2.1])),
    ]
    h = lo.SparseOperator(size, 0.4, -0.7, couplings, shifts)
    reference = _slot_reference(size, 0.4, -0.7, shifts, couplings)
    assert reference[3, 4] == pytest.approx(3 * -0.7, abs=1e-15)
    assert np.max(np.abs(_dense(h) - reference)) <= 1e-14
    scaled = h.affine(1.3, 0.25)
    assert np.max(np.abs(_dense(scaled) - 1.3 * (reference - 0.25 * np.eye(size)))) <= 1e-14
    # a product less a vector, into a caller-owned buffer
    x, y = (rng.normal(size=size) + 1j * rng.normal(size=size) for _ in range(2))
    out = np.empty_like(x)
    assert scaled.apply(x, out, minus=y) is out
    expected = 1.3 * (reference - 0.25 * np.eye(size)) @ x - y
    assert np.max(np.abs(out - expected)) <= 1e-14


@pytest.mark.parametrize("hopping", [0.0, 1e-308])
def test_vanishing_hopping_leaves_the_diagonal_and_couplings(hopping):
    # with no hopping, or one so far below the constant that c / u would
    # overflow, a product is c x + C x to rounding, with no inf or nan
    couplings = [(np.array([0, 2]), np.array([1, 2]), np.array([0.5, -3.0]))]
    shifts = [(1, np.array([4]), np.array([4])), (-1, np.array([0]), np.array([0]))]
    h = lo.SparseOperator(5, 2.0, hopping, couplings, shifts)
    reference = _slot_reference(5, 2.0, 0.0, [], couplings)
    assert np.max(np.abs(_dense(h) - reference)) <= 1e-15


def test_model_validation():
    with pytest.raises(ValueError):
        lo.LatticeModel(params=_t_params(), size=4)
    with pytest.raises(ValueError):
        lo.LatticeModel(params=_t_params(), size=1)
    with pytest.raises(TypeError):
        lo.LatticeModel(params=TWGParams(omega_atom=0.0, gamma_t=1.0), size=5)


def _gershgorin(matrix):
    """The Gershgorin interval of a dense matrix, from its rows."""
    radius = np.abs(matrix).sum(axis=1) - np.abs(np.diag(matrix))
    return (np.diag(matrix) - radius).min(), (np.diag(matrix) + radius).max()


def _jacobi(model):
    """The bright Jacobi matrix, the atom then e_0 .. e_h, h = (L - 1) / 2,
    as (diagonal, off-diagonal), written from the record's physical fields:
    the atom meets e_0 with V, sqrt((vbar1^2 + vbar2^2) / 2) for an H-type
    model, e_0 meets e_1 with sqrt(2) J and every later pair with J."""
    p, half = model.params, (model.size - 1) // 2
    if model.kind == "t":
        omega, j, v = p.omega_cavity, p.hopping, p.coupling
    else:
        omega, j, v = p.omega_atom, 0.5, np.sqrt(0.5 * (p.vbar[0] ** 2 + p.vbar[1] ** 2))
    diag = np.full(half + 2, float(omega))
    diag[0] = p.omega_atom
    off = np.full(half + 1, -float(j))
    off[:2] = v, -np.sqrt(2.0) * j
    return diag, off


def _stebz(model):
    """The bright chain's levels by LAPACK's bisection, dstebz."""
    return eigvalsh_tridiagonal(*_jacobi(model), lapack_driver="stebz")


def test_spectrum_respects_gershgorin_bounds():
    # the propagator's interval is the exact extremes, for either kind,
    # padded by a few ulps, and so strictly inside the Gershgorin discs.
    # Containment is held against bisection on the bright chain, as in
    # test_h_type_runs_keep_gershgorin
    models = [
        lo.LatticeModel(
            params=TCRAParams(
                omega_atom=0.4, omega_cavity=0.5, hopping=0.8, coupling=0.3
            ),
            size=51,
        ),
        lo.LatticeModel(
            params=HWGParams(omega_atom=0.9, vbar=(0.4, 0.7)),
            size=51,
        ),
    ]
    for m in models:
        h = _dense(lo.build_single_excitation(m))
        lo_bound, hi_bound = _gershgorin(h)
        evals = np.linalg.eigvalsh(h)
        assert evals.min() >= lo_bound - 1e-12
        assert evals.max() <= hi_bound + 1e-12
        low, high = lo._spectral_interval(m)
        exact = _stebz(m)
        assert low <= exact[0] and exact[-1] <= high
        assert (low, high) == pytest.approx((evals.min(), evals.max()), abs=1e-13)
        assert lo_bound < low and high < hi_bound


def _pair_spectrum(chain):
    """Eigenvalues of the packed pair operator of a chain description, made
    symmetric by the norm weights: h is self-adjoint under sum w |u|^2, w =
    1/2 on a diagonal pair."""
    h = lo._pair_operator(chain)
    root_w = np.sqrt(lo._pair_weights(len(chain[0]) - 1))
    sym = root_w[:, None] * _dense(h) / root_w[None, :]
    return h, np.linalg.eigvalsh(0.5 * (sym + sym.T))


@pytest.mark.parametrize("coupling, omega", [(1.0, 0.0), (0.5, 0.7), (2.0, -0.4)])
def test_bound_state_interval_holds_the_spectrum_inside_gershgorin(coupling, omega):
    p = TCRAParams(omega_atom=omega, omega_cavity=0.0, hopping=1.0, coupling=coupling)
    m = lo.LatticeModel(params=p, size=31)
    h = _dense(lo.build_single_excitation(m))
    # the pair run's bright-chain operator, and the whole chain's it is a
    # block of
    pairs = [_pair_spectrum(chain) for chain in (lo._bright_parts(m), lo._single_parts(m))]
    single = lo._spectral_interval(m)
    for photons, op, evals in (
        (1, h, np.linalg.eigvalsh(h)),
        *((2, _dense(h_pair), pair_evals) for h_pair, pair_evals in pairs),
    ):
        low, high = (photons * e for e in single)
        assert low <= evals.min() and evals.max() <= high
        g_low, g_high = _gershgorin(op)
        assert g_low < low and high < g_high


@pytest.mark.parametrize("coupling", [0.0, 1e-4, 1e-160])
def test_weak_coupling_spectral_interval(coupling):
    # with no bound state inside the lattice the extremes are the finite
    # chain's own, inside the band; at V = 1e-160 the couplings squared are
    # subnormal and change no pivot, so the runs are the V = 0 runs.
    # Containment is held against bisection on the bright chain
    m = lo.LatticeModel(params=_t_params(coupling), size=801)
    pair_model = lo.LatticeModel(params=m.params, size=161)
    intervals = (lo._spectral_interval(m), tuple(2.0 * e for e in lo._spectral_interval(pair_model)))
    evals = np.linalg.eigvalsh(_dense(lo.build_single_excitation(m)))
    exact = _stebz(m)
    assert intervals[0] == pytest.approx((evals[0], evals[-1]), abs=1e-13)
    assert intervals[0][0] <= exact[0] and exact[-1] <= intervals[0][1]
    assert -2.0 < intervals[0][0] and intervals[0][1] < 2.0
    assert -4.0 < intervals[1][0] and intervals[1][1] < 4.0
    if coupling == 1e-160:
        uncoupled = lo.LatticeModel(params=_t_params(0.0), size=801)
        assert intervals[0] == lo._spectral_interval(uncoupled)

    # the numbers of runs sized by these intervals, pinned from the runs
    # the Gershgorin discs sized: the propagator converges either way
    packet, pair = {
        0.0: (
            (0.9985901560325011, 0.0012987144871351886),
            (0.9999999999999997, 0.9987499692641781),
        ),
        1e-4: (
            (0.9985901560305113, 0.0012987144868582485),
            (1.000000015669287, 0.9987499340329189),
        ),
    }[0.0 if coupling != 1e-4 else coupling]
    run = lo.wavepacket_scatter(m, 1.2, 40.0)
    assert run.spectral_interval == intervals[0]
    assert (run.transmission, run.reflection) == pytest.approx(packet, rel=1e-12)
    rep = lo.two_excitation_check(pair_model, 1.4, 1.7, width=6.0)
    assert rep.spectral_interval == intervals[1]
    assert (rep.bunching_indicator, rep.transmitted_fraction) == pytest.approx(pair, rel=1e-12)


def test_h_type_runs_keep_gershgorin():
    # an H-type run is sized by the exact extremes of its own operator: the
    # interval holds the spectrum and keeps strictly inside the Gershgorin
    # discs.  Containment is held against bisection on the bright chain,
    # whose error is below the interval's pad; the dense solver's can pass
    # it outward (by 2.7e-15 to 3.3e-15 at the top here, with one BLAS
    # thread)
    m = lo.LatticeModel(params=_h_params((0.5, 0.6)), size=801)
    h = _dense(lo.build_single_excitation(m))
    evals = np.linalg.eigvalsh(h)
    low, high = lo._spectral_interval(m)
    exact = _stebz(m)
    assert low <= exact[0] and exact[-1] <= high
    assert (low, high) == pytest.approx((evals[0], evals[-1]), abs=1e-13)
    g_low, g_high = _gershgorin(h)
    assert g_low < low and high < g_high


# ---------------------------------------------------------------------------
# bound states


def test_two_out_of_band_levels_at_unit_coupling():
    # large lattice pins the detached levels to the infinite-chain values
    m = lo.LatticeModel(params=_t_params(), size=2001)
    evals = np.linalg.eigvalsh(_dense(lo.build_single_excitation(m)))
    out = _out_of_band(evals, -2.0, 2.0)
    assert len(out) == 2
    assert out.min() == pytest.approx(-BOUND_ENERGY, abs=1e-6)
    assert out.max() == pytest.approx(BOUND_ENERGY, abs=1e-6)


def test_bound_energy_error_decreases_with_lattice_size():
    # weak binding keeps the finite-size error visible above float noise
    p = _t_params(coupling=0.1**0.5)
    lower, upper = tcra.bound_state_energies(p)
    errors = []
    for size in (201, 601, 2001):
        m = lo.LatticeModel(params=p, size=size)
        evals = np.linalg.eigvalsh(_dense(lo.build_single_excitation(m)))
        out = _out_of_band(evals, -2.0, 2.0)
        assert len(out) == 2
        errors.append(
            max(abs(out.min() - lower.energy), abs(out.max() - upper.energy))
        )
    assert errors[0] > errors[1] > errors[2]


def test_bound_report_matches_closed_forms():
    report = lo.bound_state_check(lo.LatticeModel(params=_t_params(), size=601))
    assert report.warnings == ()
    assert max(report.energy_residuals) < 1e-9
    assert max(report.slope_residuals) < 1e-3
    # both branches share the same decay rate when the atom sits at band center
    assert report.analytic_slopes[0] == pytest.approx(report.analytic_slopes[1])
    assert report.upper_sign_alternating
    assert report.lower_sign_uniform


def test_out_of_band_energies_mirror_about_cavity_frequency():
    p = TCRAParams(omega_atom=0.7, omega_cavity=0.7, hopping=1.0, coupling=1.0)
    m = lo.LatticeModel(params=p, size=301)
    evals = np.linalg.eigvalsh(_dense(lo.build_single_excitation(m)))
    out = _out_of_band(evals, 0.7 - 2.0, 0.7 + 2.0)
    assert len(out) == 2
    assert out.min() + out.max() == pytest.approx(2 * 0.7, abs=1e-10)


def test_unresolved_weak_binding_reports_warning():
    # decay length far beyond the lattice: no detached level to find
    report = lo.bound_state_check(
        lo.LatticeModel(params=_t_params(coupling=0.05), size=41)
    )
    assert report.warnings
    assert np.isnan(report.energies).all()


@pytest.mark.parametrize(
    "omega, vbar", [(0.0, (0.6, 0.8)), (0.3, (1.0, 1.0))], ids=["0-0.6-0.8", "0.3-1-1"]
)
def test_bound_check_runs_h_type(omega, vbar):
    # the H-type bound states are the T-type ones of the bright chain, at J
    # = 1/2, omega0 = Omega and V^2 = (vbar1^2 + vbar2^2) / 2; the report
    # takes V as the chain states it, within an ulp or two of the hand
    # mapping
    m = lo.LatticeModel(params=HWGParams(omega_atom=omega, vbar=vbar), size=201)
    report = lo.bound_state_check(m)
    evals = np.linalg.eigvalsh(_dense(lo.build_single_excitation(m)))
    [(_, coupling)] = lo._bright_parts(m)[3]
    lower, upper = tcra.bound_state_energies(TCRAParams(omega, omega, 0.5, coupling))
    mapped = TCRAParams(omega, omega, 0.5, np.sqrt(0.5 * (vbar[0] ** 2 + vbar[1] ** 2)))
    hand = [state.energy for state in tcra.bound_state_energies(mapped)]
    assert report.warnings == ()
    assert report.energies == pytest.approx((evals[0], evals[-1]), abs=1e-14)
    assert report.analytic_energies == (lower.energy, upper.energy)
    assert report.analytic_energies == pytest.approx(hand, rel=1e-15)
    assert max(report.energy_residuals) <= 1e-14
    assert max(report.slope_residuals) <= 1e-12
    assert report.upper_sign_alternating and report.lower_sign_uniform


def test_bound_check_reads_the_coupled_chain():
    # with vbar1 = 0 the first chain carries no amplitude; the pivot the
    # envelope and signs are read off is shared by both chains
    m = lo.LatticeModel(params=HWGParams(omega_atom=0.0, vbar=(0.0, 1.0)), size=201)
    report = lo.bound_state_check(m)
    assert report.warnings == ()
    assert max(report.slope_residuals) <= 1e-12
    assert report.upper_sign_alternating and report.lower_sign_uniform


def test_bound_check_rejects_zero_coupling_before_any_count(monkeypatch):
    # V = 0 has no bound state; the check refuses it before any count
    def tree(chain):
        raise AssertionError("the spectrum was counted for an uncoupled atom")

    monkeypatch.setattr(lo, "_Tree", tree)
    with pytest.raises(ValueError, match="nonzero coupling"):
        lo.bound_state_check(lo.LatticeModel(params=_t_params(coupling=0.0), size=2001))


def test_integer_parameters_keep_the_atom_detuning():
    # an integer omega0 must not make the diagonal an integer array, which
    # would truncate Omega = -0.5 to 0
    m = lo.LatticeModel(params=TCRAParams(-0.5, 0, 1, 2), size=2001)
    assert lo._single_parts(m)[0][-1] == -0.5
    report = lo.bound_state_check(m)
    assert report.warnings == ()
    assert max(report.energy_residuals) <= 1e-12


def test_bound_report_is_reproducible_and_matches_dense_reference():
    p = TCRAParams(omega_atom=0.3, omega_cavity=0.1, hopping=1.0, coupling=0.8)
    m = lo.LatticeModel(params=p, size=201)
    first = dataclasses.asdict(lo.bound_state_check(m))
    assert dataclasses.asdict(lo.bound_state_check(m)) == first
    assert first["warnings"] == ()
    # each energy comes from a bracket of adjacent floats
    for energy, width in zip(first["energies"], first["bracket_widths"]):
        assert 0.0 < width <= np.spacing(abs(energy))
    evals, evecs = np.linalg.eigh(_dense(lo.build_single_excitation(m)))
    assert first["energies"] == pytest.approx((evals[0], evals[-1]), abs=1e-14)
    # the dense eigenvectors' log-ratio between the centre and either
    # neighbour, the ratio the report's pivot gives
    centre = (m.size - 1) // 2
    for j, slope in zip((0, -1), first["envelope_slopes"]):
        for site in (centre - 1, centre + 1):
            assert abs(np.log(abs(evecs[site, j] / evecs[centre, j])) - slope) <= 1e-12


def test_bound_slopes_match_the_closed_form_to_rounding():
    # the settled pivot gives the decay to rounding
    p = TCRAParams(omega_atom=0.3, omega_cavity=0.1, hopping=1.0, coupling=0.8)
    report = lo.bound_state_check(lo.LatticeModel(params=p, size=201))
    assert report.warnings == ()
    assert max(report.slope_residuals) <= 1e-12
    assert report.upper_sign_alternating and report.lower_sign_uniform


# ---------------------------------------------------------------------------
# the tree's Sturm count


_TREE_PARAMS = [
    TCRAParams(omega_atom=0.3, omega_cavity=0.1, hopping=0.9, coupling=0.7),
    TCRAParams(omega_atom=0.0, omega_cavity=0.0, hopping=1.0, coupling=1.0),
    HWGParams(omega_atom=0.0, vbar=(0.6, 0.8)),
    HWGParams(omega_atom=-0.2, vbar=(1.1, 0.0)),
]
_TREE_IDS = ["t", "t-centred", "h", "h-one-chain"]


@pytest.mark.parametrize("params", _TREE_PARAMS, ids=_TREE_IDS)
def test_tree_count_matches_dense_eigvalsh(params):
    # the count on the bright chain against its levels by bisection
    for size in range(3, 42, 2):
        m = lo.LatticeModel(params=params, size=size)
        tree = lo._Tree(lo._bright_parts(m))
        evals = _stebz(m)
        assert tree.dimension == len(evals)
        # between distinct levels the count is the exact index: a count off
        # by one fails here
        gaps = np.nonzero(np.diff(evals) > 1e-9)[0]
        for i in gaps:
            assert tree.count(0.5 * (evals[i] + evals[i + 1])) == i + 1
        # on a level, and at omega0, where the first pivot is exactly 0, the
        # count is that of a matrix within a few ulps
        omega0 = _jacobi(m)[0][-1]
        assert tree.pivots(omega0)[0][0] < 0.0
        for e in [*evals, omega0]:
            count = tree.count(e)
            assert np.sum(evals < e - 1e-13) <= count <= np.sum(evals <= e + 1e-13)


@pytest.mark.parametrize("params", _TREE_PARAMS, ids=_TREE_IDS)
def test_tree_brackets_hold_the_dense_extremes(params):
    # the brackets hold the bright chain's extremes to a few ulps, and those
    # are the whole operator's: the free chains' levels lie between them
    # (Cauchy interlacing, and the odd chains strictly inside).  dstebz's own
    # error reaches 2 ulps here, against a 40-digit Sturm count
    for size in range(3, 42, 2):
        m = lo.LatticeModel(params=params, size=size)
        tree = lo._Tree(lo._bright_parts(m))
        bright = _stebz(m)
        evals = np.linalg.eigvalsh(_dense(lo.build_single_excitation(m)))
        for k, exact, dense in ((1, bright[0], evals[0]), (tree.dimension, bright[-1], evals[-1])):
            low, high = tree.bracket(k)
            assert np.nextafter(low, np.inf) == high
            ulps = 4.0 * np.spacing(abs(exact))
            assert low - ulps <= exact <= high + ulps
            assert low - 1e-14 <= dense <= high + 1e-14


@pytest.mark.parametrize("params", _TREE_PARAMS, ids=_TREE_IDS)
def test_tree_pivots_give_the_dense_neighbour_ratio(params):
    # out from the centre the extreme eigenvector's amplitude at site s is
    # -u / d_s times that at s - 1, d_s the pivot of e_s.  d_1 is the last
    # pivot of the first list, which the bound report reads, and once the
    # pivots repeat every site shares it; at "t" the slow decay keeps them
    # from repeating within L = 201, and d_10 is 5e-12 off d_1.  Checked on
    # the bright chain's eigenvectors by bisection and inverse iteration,
    # read on the sites (e_j / sqrt(2) on c +- j), and out to ten sites on
    # either side of a coupled centre of the whole operator's dense ones
    def ratios(tree, k, sites):
        energy = 0.5 * sum(tree.bracket(k))
        half = tree.pivots(energy)[0]
        steps = [-tree.hopping / half[min(tree.half - s, len(half) - 1)] for s in range(1, sites + 1)]
        return energy, steps

    for size in range(3, 42, 2):
        m = lo.LatticeModel(params=params, size=size)
        tree = lo._Tree(lo._bright_parts(m))
        evals, evecs = eigh_tridiagonal(*_jacobi(m), lapack_driver="stebz")
        sites = min(10, tree.half)
        scale = np.full(sites + 1, np.sqrt(0.5))
        scale[0] = 1.0
        for k, j in ((1, 0), (tree.dimension, -1)):
            energy, steps = ratios(tree, k, sites)
            assert energy == pytest.approx(evals[j], abs=1e-14)
            amps = evecs[1 : sites + 2, j] * scale
            assert np.max(np.abs(amps[1:] / amps[:-1] - steps)) <= 1e-12

    m = lo.LatticeModel(params=params, size=201)
    tree = lo._Tree(lo._bright_parts(m))
    evals, evecs = np.linalg.eigh(_dense(lo.build_single_excitation(m)))
    centre = next(site for site, v in lo._single_parts(m)[3] if v != 0.0)
    for k, j in ((1, 0), (tree.dimension, -1)):
        energy, steps = ratios(tree, k, 10)
        assert energy == pytest.approx(evals[j], abs=1e-14)
        for step in (1, -1):
            amps = evecs[centre : centre + 11 * step : step, j]
            assert np.max(np.abs(amps[1:] / amps[:-1] - steps)) <= 1e-12


# ---------------------------------------------------------------------------
# wavepacket scattering


def test_packet_reflection_probability_matches_analytic():
    m = lo.LatticeModel(params=_t_params(), size=801)
    res = lo.wavepacket_scatter(m, np.pi / 3.0, 40.0)
    assert res.analytic[1] == pytest.approx(0.25, abs=1e-12)
    assert res.reflection == pytest.approx(0.25, abs=0.01)
    assert res.transmission == pytest.approx(res.analytic[0], abs=0.01)
    # probability budget: what is not left or right sits on the atom
    assert 0.999 < res.transmission + res.reflection + res.atom_occupation <= 1 + 1e-9
    assert 0.0 <= res.guard_mass <= lo._GUARD_MASS_LIMIT


def test_resonant_packet_fully_reflects():
    m = lo.LatticeModel(params=_t_params(), size=801)
    res = lo.wavepacket_scatter(m, np.pi / 2.0, 40.0)
    assert res.analytic[0] == pytest.approx(0.0, abs=1e-12)
    assert res.transmission < 1e-2
    assert res.reflection > 0.98


def test_h_resonant_packet_switches_waveguides():
    m = lo.LatticeModel(params=_h_params((0.5, 0.5)), size=801)
    res = lo.wavepacket_scatter(m, np.pi / 2.0, 40.0)
    assert res.effective_momentum == pytest.approx(1.0, abs=1e-12)
    assert res.analytic == (pytest.approx(0.0, abs=1e-12), pytest.approx(1.0))
    assert res.guide_probabilities[0] < 2e-2
    assert res.guide_probabilities[1] > 0.98


def test_h_unequal_couplings_split_the_packet():
    m = lo.LatticeModel(params=_h_params((0.3, 0.6)), size=801)
    res = lo.wavepacket_scatter(m, np.pi / 2.0, 40.0)
    assert res.analytic[0] == pytest.approx(9.0 / 25.0)
    assert res.analytic[1] == pytest.approx(16.0 / 25.0)
    assert res.guide_probabilities[0] == pytest.approx(9.0 / 25.0, abs=0.01)
    assert res.guide_probabilities[1] == pytest.approx(16.0 / 25.0, abs=0.01)


def test_packet_run_rejections():
    m = lo.LatticeModel(params=_t_params(), size=801)
    with pytest.raises(ValueError):
        lo.wavepacket_scatter(m, np.pi / 3.0, 10.0)
    with pytest.raises(ValueError):
        lo.wavepacket_scatter(lo.LatticeModel(params=_t_params(), size=401), np.pi / 3.0, 40.0)
    with pytest.raises(ValueError):
        lo.wavepacket_scatter(m, 0.05, 40.0)
    with pytest.raises(ValueError, match="duration"):
        lo.wavepacket_scatter(m, np.pi / 3.0, 40.0, duration=0.0)


def test_packet_reaching_boundary_is_rejected():
    # run long enough that both fragments sit right on the guard zones
    m = lo.LatticeModel(params=_t_params(), size=801)
    with pytest.raises(ToleranceError):
        lo.wavepacket_scatter(m, np.pi / 3.0, 40.0, duration=323.0)


# ---------------------------------------------------------------------------
# two-excitation sector


def _eig_evolve(h, psi0, t):
    """Dense eigenbasis reference for e^{-i H t} psi0."""
    evals, evecs = np.linalg.eigh(h)
    return evecs @ (np.exp(-1j * evals * t) * (evecs.T @ psi0))


def test_chebyshev_propagator_matches_eigenbasis():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(48, 48))
    h = 0.5 * (a + a.T)
    psi0 = rng.normal(size=48) + 1j * rng.normal(size=48)
    psi0 /= np.linalg.norm(psi0)
    evals = np.linalg.eigvalsh(h)
    via_cheb, _ = lo._chebyshev_evolve(
        _operator(h), psi0, 7.3, (evals[0] - 0.1, evals[-1] + 0.1)
    )
    via_eig = _eig_evolve(h, psi0, 7.3)
    assert np.max(np.abs(via_cheb - via_eig)) < 1e-11

    # the sparse H-type lattice operator
    h_lat = lo.build_single_excitation(
        lo.LatticeModel(
            params=HWGParams(omega_atom=0.9, vbar=(0.4, 0.7)),
            size=41,
        )
    )
    psi0 = rng.normal(size=83) + 1j * rng.normal(size=83)
    psi0 /= np.linalg.norm(psi0)
    evals = np.linalg.eigvalsh(_dense(h_lat))
    via_cheb, _ = lo._chebyshev_evolve(h_lat, psi0, 37.5, (evals[0] - 0.1, evals[-1] + 0.1))
    via_eig = _eig_evolve(_dense(h_lat), psi0, 37.5)
    assert np.max(np.abs(via_cheb - via_eig)) < 1e-11


def test_chebyshev_rejects_empty_bounds():
    with pytest.raises(ValueError):
        lo._chebyshev_evolve(_operator(np.eye(3)), np.ones(3, dtype=complex), 1.0, (2.0, 2.0))


@pytest.mark.parametrize("t", [0.0, -5.0, np.inf])
def test_chebyshev_rejects_non_positive_time(t):
    with pytest.raises(ValueError):
        lo._chebyshev_evolve(_operator(np.eye(3)), np.ones(3, dtype=complex), t, (0.0, 2.0))


def test_chebyshev_rejects_complex_operator():
    # the real recursion would silently drop the imaginary part
    h = np.diag([1.0, 2.0, 3.0]) + 0.5j * np.eye(3, k=1)
    with pytest.raises(ValueError):
        lo._chebyshev_evolve(_operator(h), np.ones(3, dtype=complex), 1.0, (0.0, 4.0))


def _tail_order(bess):
    """The propagator's expansion order: the last coefficient above 1e-16."""
    return int(np.nonzero(np.abs(bess) > 1e-16)[0][-1])


@pytest.mark.parametrize("z", [0.5, 3.0, 107.0, 501.0, 2000.0])
def test_bessel_coefficients_match_mpmath_and_jv_tail(z):
    order = int(z + 25.0 + 12.0 * z ** (1.0 / 3.0))
    bess = lo._bessel_j(order, z)
    assert bess.shape == (order + 1,)
    # mpmath is slow at large z: a spread of orders, the tail included
    picks = np.unique(np.concatenate([np.linspace(0, order, 9).astype(int),
                                      _tail_order(bess) + np.arange(-2, 3)]))
    with mpmath.workdps(30):
        exact = np.array([float(mpmath.besselj(int(n), z)) for n in picks])
    assert np.max(np.abs(bess[picks] - exact)) <= 1e-15
    assert _tail_order(bess) == _tail_order(jv(np.arange(order + 1), z))


def test_chebyshev_refuses_an_order_over_budget(monkeypatch):
    # the order is checked before any Bessel coefficient is computed
    def bessel(order, z):
        raise AssertionError(f"Bessel coefficients computed for order {order}")

    monkeypatch.setattr(lo, "_bessel_j", bessel)
    h = _operator(np.diag([-1.0, 1.0]))
    with pytest.raises(ValueError, match="order 1e\\+06, above the limit 1000000"):
        lo._chebyshev_evolve(h, np.ones(2, dtype=complex), 1e6, (-1.0, 1.0))
    with pytest.raises(ValueError, match="order inf"):
        lo._chebyshev_evolve(h, np.ones(2, dtype=complex), 1e308, (-1e308, 1e308))


def test_chebyshev_short_time_is_the_identity():
    # J_1 below the coefficient cut still leaves one odd term to sum
    matrix = np.diag([1.0, 2.0, 3.0]) - np.eye(3, k=1) - np.eye(3, k=-1)
    h = _operator(matrix)
    evals = np.linalg.eigvalsh(matrix)
    psi0 = np.array([1.0, 0.5j, -0.25])
    for t in (1e-17, 1e-300):
        psi_t, _ = lo._chebyshev_evolve(h, psi0, t, (evals[0] - 0.1, evals[-1] + 0.1))
        assert np.max(np.abs(psi_t - psi0)) <= 1e-15


@pytest.mark.parametrize("t", [10.0, 50.0])
def test_chebyshev_run_holds_at_most_six_state_vectors(t):
    # the recursion vectors rotate and no product allocates, so the peak
    # does not grow with the order; the state itself is the caller's.  The
    # scaled operator holds no diagonal, so past the five vectors only the
    # small temporaries of C's scatter-add and the coefficients remain
    m = lo.LatticeModel(params=_t_params(), size=281)
    h = lo._pair_operator(lo._single_parts(m))
    state = np.ones(h.shape[0], dtype=complex)
    bounds = tuple(2.0 * e for e in lo._spectral_interval(m))
    peak = _traced_peak(lambda: lo._chebyshev_evolve(h, state, t, bounds))
    assert peak <= 5.25 * state.nbytes


def _pair_stencil(params, size, buf):
    """Hand-written full-square two-excitation matvec: the reference operator."""
    w0, j, v = params.omega_cavity, params.hopping, params.coupling
    center = (size - 1) // 2
    psi = buf[: size * size].reshape(size, size)
    chi = buf[size * size :]
    out = np.empty_like(buf)
    opsi = out[: size * size].reshape(size, size)
    ochi = out[size * size :]

    np.multiply(psi, 2.0 * w0, out=opsi)
    opsi[1:, :] -= j * psi[:-1, :]
    opsi[:-1, :] -= j * psi[1:, :]
    opsi[:, 1:] -= j * psi[:, :-1]
    opsi[:, :-1] -= j * psi[:, 1:]
    opsi[center, :] += v * chi
    opsi[:, center] += v * chi

    np.multiply(chi, w0 + params.omega_atom, out=ochi)
    ochi[1:] -= j * chi[:-1]
    ochi[:-1] -= j * chi[1:]
    ochi += v * psi[center, :]
    return out


def _pack(buf, size):
    """Full-square (psi, chi) state to the packed bosonic layout."""
    psi = buf[: size * size].reshape(size, size)
    a, b = lo._pair_sites(np.arange(size * (size + 1) // 2), size)
    return np.concatenate([psi[a, b], buf[size * size :]])


def _unpack(buf, size):
    """Packed bosonic state to the full-square (psi, chi) layout."""
    a, b = lo._pair_sites(np.arange(size * (size + 1) // 2), size)
    psi = np.empty((size, size), dtype=buf.dtype)
    psi[a, b] = buf[: len(a)]
    psi[b, a] = buf[: len(a)]
    return np.concatenate([psi.ravel(), buf[len(a) :]])


@pytest.mark.parametrize("size", [3, 4, 5, 6, 7, 8, 281, 282])
def test_folded_triangle_round_trips_every_pair(size):
    # the fold is a bijection of the unordered pairs onto 0 .. n(n+1)/2 - 1,
    # at odd n (T-type) and even n (H-type); a diagonal pair opens each
    # triangle row
    npairs = size * (size + 1) // 2
    a, b = lo._pair_sites(np.arange(npairs), size)
    assert np.all(a <= b) and np.all(b < size) and np.all(a >= 0)
    assert len(set(zip(a.tolist(), b.tolist()))) == npairs
    np.testing.assert_array_equal(lo._pair_index(a, b, size), np.arange(npairs))
    np.testing.assert_array_equal(lo._pair_index(b, a, size), np.arange(npairs))
    weights = lo._pair_weights(size)
    np.testing.assert_array_equal(weights[:npairs], np.where(a == b, 0.5, 1.0))
    assert np.all(weights[npairs:] == 1.0)


@pytest.mark.parametrize(
    "params, size",
    [
        (TCRAParams(omega_atom=0.3, omega_cavity=0.1, hopping=0.9, coupling=0.7), 5),
        (TCRAParams(omega_atom=0.3, omega_cavity=0.1, hopping=0.9, coupling=0.7), 7),
        (HWGParams(omega_atom=0.9, vbar=(0.4, 0.7)), 3),
        (HWGParams(omega_atom=0.9, vbar=(0.4, 0.7)), 5),
        (TCRAParams(omega_atom=0.0, omega_cavity=0.0, hopping=1.0, coupling=1.0), 281),
    ],
)
def test_folded_pair_neighbours_sit_one_or_a_row_less_one_away(params, size):
    # every hop of a pair moves it by +-1 (leg b) or +-(W - 1) (leg a), W =
    # n | 1, except on the rows beside the fold's seam
    model = lo.LatticeModel(params=params, size=size)
    n = model.dimension - 1
    width, npairs = n | 1, n * (n + 1) // 2
    a, b = lo._pair_sites(np.arange(npairs), n)
    steps, off = set(), set()
    for leg, other in ((a, b), (b, a)):
        for step in (-1, 1):
            moved = leg + step
            # a hop inside one chain: T-type one chain, H-type two of size L
            inside = (moved >= 0) & (moved < n) & (moved // size == leg // size)
            p = np.flatnonzero(inside)
            hop = lo._pair_index(moved[p], other[p], n) - p
            steps.update(np.unique(hop).tolist())
            off.update(p[~np.isin(hop, (1, -1, width - 1, 1 - width))].tolist())
    assert {1, -1, width - 1, 1 - width} <= steps
    assert len(off) <= n
    # the rows off the pattern are corrected in C
    assert off <= set(lo._pair_operator(lo._single_parts(model)).rows.tolist())


def _mirror_basis(size):
    """The orthogonal map from the sites and the atom onto the bright chain
    and the atom, rows e_0 .. e_h and h + 1, then the odd modes o_1 .. o_h
    (see ``lo._bright_parts``), h = (L - 1) / 2."""
    half = (size - 1) // 2
    root = np.sqrt(0.5)
    q = np.zeros((size + 1, size + 1))
    q[0, half] = q[half + 1, size] = 1.0
    for j in range(1, half + 1):
        q[j, [half + j, half - j]] = root, root
        q[half + 1 + j, [half + j, half - j]] = root, -root
    return q


def _bright_unpack(buf, even):
    """A bright-chain pair state, packed pairs then chi, in the full-square
    (psi, chi) site layout; ``even`` has the modes e_j as rows over the sites."""
    n = len(even)
    a, b = lo._pair_sites(np.arange(n * (n + 1) // 2), n)
    pairs = np.empty((n, n), dtype=buf.dtype)
    pairs[a, b] = pairs[b, a] = buf[: len(a)]
    return np.concatenate([(even.T @ pairs @ even).ravel(), even.T @ buf[len(a) :]])


def _bright_pack(buf, even):
    """The bright-chain components of a full-square (psi, chi) site state:
    the inverse of :func:`_bright_unpack` on the mirror-even states."""
    n, size = even.shape
    a, b = lo._pair_sites(np.arange(n * (n + 1) // 2), n)
    psi = buf[: size * size].reshape(size, size)
    return np.concatenate([(even @ psi @ even.T)[a, b], even @ buf[size * size :]])


def test_pair_operator_matches_stencil():
    # at L = 3 every pair touches a chain end or the atom site.  The whole
    # chain's operator is the stencil; the bright chain's, which the pair
    # run propagates, is the stencil on the mirror-even pairs, which it maps
    # to themselves
    p = TCRAParams(omega_atom=0.3, omega_cavity=0.1, hopping=0.9, coupling=0.7)
    rng = np.random.default_rng(5)
    for size in (3, 5, 7):
        m = lo.LatticeModel(params=p, size=size)
        n = (size + 1) // 2
        even = _mirror_basis(size)[:n, :size]
        h = lo._pair_operator(lo._single_parts(m))
        bright = lo._pair_operator(lo._bright_parts(m))
        assert h.shape == (size * (size + 1) // 2 + size,) * 2
        assert bright.shape == (n * (n + 1) // 2 + n,) * 2
        square = size * size
        for op, pack, unpack, sites in (
            (h, _pack, _unpack, size),
            (bright, lambda v, _: _bright_pack(v, even), lambda v, _: _bright_unpack(v, even), n),
        ):
            for _ in range(5):
                state = rng.normal(size=op.shape[0]) + 1j * rng.normal(size=op.shape[0])
                full = unpack(state, size)
                image = _pair_stencil(p, size, full)
                assert np.max(np.abs(op @ state - pack(image, size))) < 1e-14
                # the image has no part off the operator's sector
                assert np.max(np.abs(unpack(pack(image, size), size) - image)) < 1e-14
                # the bosonic norm counts each unordered pair once
                assert lo._pair_weights(sites) @ np.abs(state) ** 2 == pytest.approx(
                    0.5 * np.sum(np.abs(full[:square]) ** 2) + np.sum(np.abs(full[square:]) ** 2),
                    rel=1e-14,
                )
    # at L = 7 the rows give the hand-derived band-plus-coupling discs, and
    # the propagator's interval holds the spectrum, the bright sector's
    # among it, well inside them
    g_low, g_high = _pair_gershgorin(p)
    assert _gershgorin(_dense(h)) == pytest.approx((g_low, g_high), abs=1e-14)
    low, high = (2.0 * e for e in lo._spectral_interval(m))
    for chain in (lo._single_parts(m), lo._bright_parts(m)):
        evals = _pair_spectrum(chain)[1]
        assert g_low < low <= evals[0] and evals[-1] <= high < g_high


def test_pair_operator_build_peak_grows_with_the_chain_not_the_state():
    # the build lays out only the O(L) rows off the shift pattern and states
    # the diagonal as a constant, so the bright chain's peak, about 1.4 kB
    # per bright site, stays under 0.6 of the whole chain's complex pair
    # state, which the run lays out at its end, at L = 281, and about
    # doubles, not quadruples, with L
    peaks = {}
    for size in (141, 281):
        m = lo.LatticeModel(params=_t_params(), size=size)
        peaks[size] = _traced_peak(lambda: lo._pair_operator(lo._bright_parts(m)))
    state_bytes = 16 * (281 * 282 // 2 + 281)
    assert peaks[281] <= 0.6 * state_bytes
    assert peaks[281] <= 2.2 * peaks[141]


def test_pair_operator_stores_no_index_array_for_its_shift_slots():
    # all four pair slots, legs a and b, are shifts, each a pair of slices:
    # the operator keeps no state-length array at all, and C, with the
    # diagonal's deviations and the off-pattern rows, is O(L) against the
    # O(L^2) state
    m = lo.LatticeModel(params=_t_params(), size=281)
    h = lo._pair_operator(lo._single_parts(m))
    assert not hasattr(h, "slots")
    assert sorted(shift[0].start - shift[1].start for shift in h.shifts) == [-280, -1, 1, 280]
    assert all(isinstance(s, slice) for shift in h.shifts for s in shift)
    held = [v for v in vars(h).values() if isinstance(v, np.ndarray)]
    assert len(held) == 3 and all(len(v) <= 10 * m.size for v in held)
    assert sum(v.nbytes for v in held) <= 0.11 * 16 * h.shape[0]
    assert h.constant == 0.0


def test_packed_pair_evolution_matches_full_square():
    # the full-square operator, column by column from the stencil, evolved
    # exactly by a dense matrix exponential
    p = TCRAParams(omega_atom=0.3, omega_cavity=0.1, hopping=0.9, coupling=0.7)
    size = 21
    dim = size * size + size
    full = np.column_stack([_pair_stencil(p, size, e) for e in np.eye(dim)])
    rng = np.random.default_rng(17)
    h = lo._pair_operator(lo._single_parts(lo.LatticeModel(params=p, size=size)))
    state = rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0])
    weights = lo._pair_weights(size)
    state /= np.sqrt(weights @ np.abs(state) ** 2)
    exact = expm(-1j * 6.3 * full) @ _unpack(state, size)
    evals = np.linalg.eigvalsh(full)
    packed, _ = lo._chebyshev_evolve(h, state, 6.3, (evals[0] - 0.1, evals[-1] + 0.1))
    assert np.max(np.abs(packed - _pack(exact, size))) < 1e-12
    assert weights @ np.abs(packed) ** 2 == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize(
    "params, size, carriers, centres, t",
    [
        # Omega != omega0 and k1 != k2
        (TCRAParams(omega_atom=0.3, omega_cavity=0.1, hopping=0.9, coupling=0.7), 21,
         (1.2, 1.9), (-5.0, -2.0), 6.3),
        # one packet twice: the pair state's overlap term is as large as can be
        (TCRAParams(omega_atom=0.0, omega_cavity=0.0, hopping=1.0, coupling=1.0), 23,
         (np.pi / 2.0, np.pi / 2.0), (-5.0, -5.0), 5.0),
        # overlapping packets with different carriers, Omega != omega0
        (TCRAParams(omega_atom=-0.4, omega_cavity=0.2, hopping=1.1, coupling=0.5), 25,
         (2.2, 1.0), (-4.0, -3.0), 7.0),
    ],
)
def test_pair_evolution_matches_the_full_square_exponential(params, size, carriers, centres, t):
    # the pair run rebuilt on the whole chain from its bright pair run and
    # its single-photon run, against the full-square operator, column by
    # column from the stencil, evolved exactly by a dense matrix exponential
    model = lo.LatticeModel(params=params, size=size)
    x = model.positions()
    f, g = (np.exp(1j * k * x) * lo._gaussian(x, c, 1.5) for k, c in zip(carriers, centres))
    state, free, _, propagated, bounds = lo._pair_evolution(model, f, g, t)
    assert bounds == tuple(2.0 * e for e in lo._spectral_interval(model))
    n = (size + 1) // 2
    assert propagated == n * (n + 1) // 2 + n

    dim = size * size + size
    full = np.column_stack([_pair_stencil(params, size, e) for e in np.eye(dim)])
    start = np.concatenate([(np.outer(f, g) + np.outer(g, f)).ravel(), np.zeros(size)])
    start /= np.sqrt(0.5 * np.sum(np.abs(start) ** 2))
    exact = _pack(expm(-1j * t * full) @ start, size)
    assert np.max(np.abs(exact)) > 1e-2
    assert np.max(np.abs(state - exact)) < 1e-12
    assert lo._pair_weights(size) @ np.abs(state) ** 2 == pytest.approx(1.0, abs=1e-13)
    # the free packets: the photon block alone, f as normalized with the pair
    photons = _chain(params.omega_cavity, params.hopping, size)
    norm = np.sqrt(np.vdot(f, f).real * np.vdot(g, g).real + abs(np.vdot(f, g)) ** 2)
    moved = expm(-1j * t * photons) @ np.column_stack([f / norm, g])
    assert np.max(np.abs(free - moved.T)) < 1e-12


def _fock_pair_spectrum(h1):
    """Two bosons on the dense single-excitation matrix h1 (atom the last
    mode), the atom hard-core: kron(h1, 1) + kron(1, h1) compressed onto the
    orthonormal symmetric states |ij> + |ji> with |2_atom> left out."""
    m = len(h1)
    two = np.kron(h1, np.eye(m)) + np.kron(np.eye(m), h1)
    columns = []
    for i, j in zip(*np.triu_indices(m)):
        if i == j == m - 1:
            continue
        v = np.zeros(m * m)
        v[i * m + j] += 1.0
        v[j * m + i] += 1.0
        columns.append(v / np.linalg.norm(v))
    basis = np.column_stack(columns)
    return np.linalg.eigvalsh(basis.T @ two @ basis)


@pytest.mark.parametrize(
    "params, size",
    [
        (TCRAParams(omega_atom=0.3, omega_cavity=0.1, hopping=0.9, coupling=0.7), 7),
        (HWGParams(omega_atom=0.9, vbar=(0.4, 0.7)), 5),
        (HWGParams(omega_atom=-0.2, vbar=(1.1, 0.3)), 7),
    ],
)
def test_pair_operator_matches_fock_space(params, size):
    # the derived packed operator against the two-boson operator built from
    # the single-excitation matrix alone: the bright chain's, the one the
    # pair run propagates, for a T-type model, the whole chain's for an
    # H-type one
    model = lo.LatticeModel(params=params, size=size)
    chain = lo._bright_parts(model) if model.kind == "t" else lo._single_parts(model)
    h1 = _dense(lo._single_operator(chain))
    reference = _fock_pair_spectrum(h1)
    h_pair, packed = _pair_spectrum(chain)
    assert h_pair.shape[0] == len(reference) == len(h1) * (len(h1) + 1) // 2 - 1
    assert np.max(np.abs(packed - reference)) < 1e-13


@pytest.mark.parametrize(
    "params, size",
    [
        (TCRAParams(omega_atom=0.3, omega_cavity=0.1, hopping=0.9, coupling=0.7), 7),
        (TCRAParams(omega_atom=0.0, omega_cavity=0.0, hopping=1.0, coupling=1.0), 9),
        (TCRAParams(omega_atom=-0.4, omega_cavity=0.2, hopping=1.1, coupling=2.0), 11),
    ],
)
def test_pair_spectrum_splits_into_bright_and_odd_sectors(params, size):
    # in the mirror basis the single-excitation matrix is the bright chain
    # with the atom, as lo._bright_parts states it, beside a free odd chain;
    # so the two-excitation levels are the bright pair operator's, a bright
    # level plus an odd one, and two odd levels
    model = lo.LatticeModel(params=params, size=size)
    h1 = _dense(lo.build_single_excitation(model))
    q = _mirror_basis(size)
    rotated = q @ h1 @ q.T
    nb = (size + 1) // 2 + 1
    bright = _dense(lo._single_operator(lo._bright_parts(model)))
    odd = _chain(params.omega_cavity, params.hopping, size - nb + 1)
    assert np.max(np.abs(rotated[:nb, :nb] - bright)) <= 1e-15
    assert np.max(np.abs(rotated[nb:, nb:] - odd)) <= 1e-15
    assert np.max(np.abs(rotated[:nb, nb:])) <= 1e-15

    e_bright, e_odd = np.linalg.eigvalsh(bright), np.linalg.eigvalsh(odd)
    odd_pairs = np.add.outer(e_odd, e_odd)[np.triu_indices(len(e_odd))]
    bright_pairs = _pair_spectrum(lo._bright_parts(model))[1]
    union = np.concatenate([bright_pairs, np.add.outer(e_bright, e_odd).ravel(), odd_pairs])
    reference = _fock_pair_spectrum(h1)
    assert len(union) == len(reference)
    assert np.max(np.abs(np.sort(union) - reference)) < 1e-12


@pytest.mark.parametrize(
    "omega, vbar",
    [(0.0, (0.6, 0.8)), (0.9, (0.4, 0.7)), (-0.2, (1.1, 0.3))],
    ids=["0-0.6-0.8", "0.9-0.4-0.7", "-0.2-1.1-0.3"],
)
def test_h_type_spectrum_splits_into_bright_dark_and_odd_chains(omega, vbar):
    # under the mirror each chain splits into its even and odd modes, and
    # the two even chains rotate into the bright chain, which meets the
    # atom, as lo._bright_parts states it, and a free dark even chain with
    # the same sqrt(2) J bond; the two odd chains are free.  So the
    # single-excitation levels are the four chains' together
    for size in range(3, 22, 2):
        m = lo.LatticeModel(params=HWGParams(omega_atom=omega, vbar=vbar), size=size)
        half = (size - 1) // 2
        whole = np.linalg.eigvalsh(_dense(lo.build_single_excitation(m)))
        bright = np.linalg.eigvalsh(_dense(lo._single_operator(lo._bright_parts(m))))
        dark = _chain(omega, 0.5, half + 1)
        dark[0, 1] = dark[1, 0] = -np.sqrt(0.5)
        odd = np.linalg.eigvalsh(_chain(omega, 0.5, half))
        union = np.concatenate([bright, np.linalg.eigvalsh(dark), odd, odd])
        assert len(union) == len(whole)
        assert np.max(np.abs(np.sort(union) - whole)) <= 1e-13


def test_free_reference_is_the_photon_block(monkeypatch):
    # a pair run makes two propagations.  The single-photon one evolves
    # four blocks at once: both packets under the single-excitation
    # operator, and both freely, under copies of it with the atom uncoupled,
    # whose photon rows and columns are the photon block, entry for entry.
    # The other is the bright chain's pair run
    m = lo.LatticeModel(params=TCRAParams(0.3, 0.1, 0.9, 0.7), size=161)
    runs = []
    evolve = lo._chebyshev_evolve

    def spy(h, state, t, bounds):
        runs.append((h, bounds))
        return evolve(h, state, t, bounds)

    monkeypatch.setattr(lo, "_chebyshev_evolve", spy)
    rep = lo.two_excitation_check(m, 1.2, 1.9, width=6.0, separation=15.0)
    h1 = _dense(lo.build_single_excitation(m))
    free = h1.copy()
    free[: m.size, m.size] = free[m.size, : m.size] = 0.0
    evals = np.linalg.eigvalsh(h1[: m.size, : m.size])
    assert len(runs) == 2
    h_single, bounds = runs[0]
    np.testing.assert_array_equal(_dense(h_single), block_diag(h1, h1, free, free))
    # a principal submatrix, so the single-excitation interval holds it
    assert bounds == lo._spectral_interval(m)
    assert bounds[0] <= evals[0] and evals[-1] <= bounds[1]
    assert runs[1][0].shape[0] == rep.propagated_states == 81 * 82 // 2 + 81


def test_oracle_runs_without_scipy():
    # every oracle run, and the acceptance suite that calls them, needs
    # numpy alone: a child with scipy made unimportable still runs them
    src = os.path.dirname(os.path.dirname(lo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = """
import sys
sys.modules["scipy"] = None
from photon_scatter import validation
from photon_scatter import lattice_oracle as lo
from photon_scatter.core import HWGParams, TCRAParams
t = TCRAParams(omega_atom=0.0, omega_cavity=0.0, hopping=1.0, coupling=1.0)
assert not lo.bound_state_check(lo.LatticeModel(params=t, size=201)).warnings
lo.wavepacket_scatter(lo.LatticeModel(params=t, size=801), 1.2, 40.0)
h = HWGParams(omega_atom=1.0, vbar=(0.5, 0.5))
lo.wavepacket_scatter(lo.LatticeModel(params=h, size=801), 1.5, 40.0)
lo.two_excitation_check(lo.LatticeModel(params=t, size=161), 1.2, 1.9, width=6.0,
                        separation=15.0)
"""
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_free_pair_reproduces_product_packets():
    m = lo.LatticeModel(params=_t_params(coupling=0.0), size=161)
    rep = lo.two_excitation_check(m, 1.2, 1.9, width=6.0, separation=15.0)
    assert rep.norm_drift < 1e-12
    assert rep.bunching_indicator == pytest.approx(1.0, abs=1e-10)
    # with the atom decoupled the interacting and free densities coincide
    assert np.allclose(
        rep.relative_density, rep.free_relative_density, rtol=1e-8, atol=1e-14
    )


def test_resonant_pair_bunches():
    m = lo.LatticeModel(params=_t_params(), size=281)
    rep = lo.two_excitation_check(m, np.pi / 2.0, np.pi / 2.0)
    assert rep.norm_drift < 1e-10
    assert rep.transmitted_fraction > 0.01
    assert rep.coincidence_fraction > rep.free_coincidence_fraction
    assert rep.bunching_indicator > 2.0
    assert 0.0 <= rep.guard_mass <= lo._GUARD_MASS_LIMIT
    # only the bright half-chain's 141 sites run as a pair state
    assert rep.propagated_states == 141 * 142 // 2 + 141 == 10152


def test_detuned_pair_stays_nearly_free():
    m = lo.LatticeModel(params=_t_params(coupling=0.5), size=281)
    rep = lo.two_excitation_check(m, 2.2, 2.2)
    assert rep.norm_drift < 1e-10
    assert rep.transmitted_fraction > 0.9
    assert rep.bunching_indicator == pytest.approx(1.0, abs=0.1)


def _pair_gershgorin(p):
    """The pair operator's Gershgorin discs by hand: two photons' band and
    emission, or one photon's band, the atom and its coupling."""
    w0, j, v = p.omega_cavity, p.hopping, p.coupling
    return (
        min(2.0 * (w0 - 2.0 * j) - 2.0 * v, w0 + p.omega_atom - 2.0 * j - v),
        max(2.0 * (w0 + 2.0 * j) + 2.0 * v, w0 + p.omega_atom + 2.0 * j + v),
    )


def _order(bounds, t):
    """The propagator's order for ``bounds`` and ``t``, on a 1x1 operator."""
    return lo._chebyshev_evolve(_operator(np.zeros((1, 1))), np.ones(1), t, bounds)[1]


# the two runs' bunching indicator, transmitted fraction and first ten
# relative_density entries, pinned so that a rewrite of the propagator or
# of the pair build must reproduce them
_PAIR_RUN_READINGS = {
    1.0: (4.984517968820709, 0.0403759197128098, [
        0.006979462041562095, 0.011727826112131544, 0.008498158355874913,
        0.004795434925711662, 0.0027218559166490167, 0.0014654710581018884,
        0.0010944679354786332, 0.0007201805067740874, 0.0005611610695244976,
        0.00036126435576542746]),
    0.5: (0.9971860447070615, 0.9638252516746353, [
        0.010742926044068183, 0.021494042408802073, 0.021518647319860494,
        0.021559743928323338, 0.021617384526750806, 0.02169149011196206,
        0.02178171685454893, 0.021887314903891193, 0.02200700593312044,
        0.022138902850433136]),
}


@pytest.mark.parametrize(
    "coupling, k, order, gershgorin_order",
    [(1.0, np.pi / 2.0, 283, 391), (0.5, 2.2, 332, 402)],
)
def test_pair_run_order_follows_the_bound_states(coupling, k, order, gershgorin_order):
    m = lo.LatticeModel(params=_t_params(coupling), size=281)
    rep = lo.two_excitation_check(m, k, k)
    assert rep.chebyshev_order == order == _order(rep.spectral_interval, rep.duration)
    # the order the Gershgorin discs would have asked for
    assert _order(_pair_gershgorin(m.params), rep.duration) == gershgorin_order
    if coupling == 1.0:
        assert rep.chebyshev_order <= 0.75 * gershgorin_order
    bunching, transmitted, density = _PAIR_RUN_READINGS[coupling]
    assert rep.bunching_indicator == pytest.approx(bunching, rel=1e-12, abs=1e-13)
    assert rep.transmitted_fraction == pytest.approx(transmitted, rel=1e-12, abs=1e-13)
    assert rep.relative_density[:10] == pytest.approx(density, rel=1e-12, abs=1e-13)


def test_pair_run_rejections():
    with pytest.raises(ValueError):
        lo.two_excitation_check(
            lo.LatticeModel(params=_h_params((1.0, 1.0)), size=161), 1.5, 1.5
        )
    with pytest.raises(ValueError):
        lo.two_excitation_check(lo.LatticeModel(params=_t_params(), size=403), 1.5, 1.5)
    with pytest.raises(ValueError):
        # default packets do not fit a 161-site lattice
        lo.two_excitation_check(lo.LatticeModel(params=_t_params(), size=161), 1.5, 1.5)
    with pytest.raises(ValueError):
        lo.two_excitation_check(
            lo.LatticeModel(params=_t_params(), size=281), 1.5, 1.5, width=3.0
        )
    with pytest.raises(ValueError):
        lo.two_excitation_check(lo.LatticeModel(params=_t_params(), size=281), 0.05, 1.5)
    with pytest.raises(ValueError, match="duration"):
        lo.two_excitation_check(
            lo.LatticeModel(params=_t_params(), size=281), 1.5, 1.5, duration=-5.0
        )
    with pytest.raises(ValueError, match="window"):
        lo.two_excitation_check(
            lo.LatticeModel(params=_t_params(), size=281), 1.5, 1.5, window=-1
        )
    with pytest.raises(ValueError, match="separation"):
        # a negative separation puts the leading packet off the lattice
        lo.two_excitation_check(
            lo.LatticeModel(params=_t_params(), size=281), 1.5, 1.5, separation=-1000.0
        )
    with pytest.raises(ToleranceError, match="no transmitted pair weight"):
        # half a time unit moves neither packet past the atom
        lo.two_excitation_check(
            lo.LatticeModel(params=_t_params(), size=161),
            1.2, 1.9, duration=0.5, width=6.0, separation=15.0,
        )


# ---------------------------------------------------------------------------
# ring-quantized momentum sums


def test_ring_two_photon_norm_is_unit():
    params = TWGParams(omega_atom=0.2, gamma_t=0.3)
    assert lo.ring_norm(params, (0.15, 0.25), 601) == pytest.approx(1.0, abs=1e-3)


def _pair_points(xc, xr):
    """(x1, x2) of centre and relative coordinates, x1 - x2 = xr."""
    return xc + 0.5 * xr, xc - 0.5 * xr


def test_ring_two_photon_wavefunction_matches_analytic():
    params = TWGParams(omega_atom=0.2, gamma_t=0.3)
    points = ((0.0, 1.0), (0.7, 3.0), (-1.2, 0.5), (2.0, 8.0))
    for xc, xr in points:
        (k1s, k2s), images = lo.ring_wavefunction(
            params, (0.15, 0.25), _pair_points(xc, xr), 601
        )
        value = images[(1, 1)]
        assert isinstance(value, complex)
        reference = twg.two_photon_out_wavefunction(params, k1s, k2s, xc, xr)
        assert abs(value - reference) < 1e-5
    # one image serves every point of a broadcast call, in the points' shape
    xc, xr = np.array(points).T
    _, images = lo.ring_wavefunction(params, (0.15, 0.25), _pair_points(xc[:, None], xr), 601)
    values = images[(1, 1)]
    assert values.shape == (4, 4)
    singles = [
        lo.ring_wavefunction(params, (0.15, 0.25), _pair_points(*x), 601)[1][(1, 1)]
        for x in points
    ]
    assert np.max(np.abs(np.diag(values) - singles)) <= 1e-15


def test_ring_two_photon_wavefunction_sums_with_two_temporaries():
    # the plane waves take one phase and one wave block of _RING_CHUNK shell
    # momenta at a time, so the peak is the shell, the ring image and the
    # S-matrix's own temporaries: at most 6.5 real shell-length vectors at
    # once, for one point or for ten
    params = TWGParams(omega_atom=0.2, gamma_t=0.3)
    ks, _ = lo._channels(params, (0.15, 0.25), 601)
    p = lo._shell(params, sum(ks), 2, 601, lo._IMAGE_WINDOWS[2])
    for xc, xr in ((0.7, 3.0), (np.linspace(-2.0, 2.0, 10), np.linspace(0.3, 6.0, 10))):
        peak = _traced_peak(
            lambda: lo.ring_wavefunction(params, (0.15, 0.25), _pair_points(xc, xr), 601)
        )
        assert peak <= 6.5 * p[0].nbytes


def test_ring_three_photon_norm_is_unit():
    params = TWGParams(omega_atom=0.0, gamma_t=1.0)
    norm = lo.ring_norm(params, (-0.3, 0.1, 0.5), 201)
    assert norm == pytest.approx(1.0, abs=1e-4)


def test_ring_three_photon_wavefunction_matches_analytic():
    # a generic point, a coincident pair and the origin, a triple
    # coincidence, where the truncated shell's deviation is largest; off
    # and on resonance.  Every point keeps below the bound the docstring
    # states, and each below its own relative bound, set a little above its
    # reading: off resonance 1.38 %, 3.97 % and 2.60 %, on resonance
    # 0.54 %, 13.1 % (|psi3| is small there) and 2.59 %
    x = np.array([(-1.2, 0.4, 1.7), (1.0, 1.0, -1.0), (0.0, 0.0, 0.0)]).T
    bound = 4.0 / lo._IMAGE_WINDOWS[3] / (2.0 * np.pi) ** 1.5
    cases = (
        (0.0, (-0.3, 0.1, 0.5), (0.02, 0.05, 0.03)),
        (1.0, (1.0, 1.0, 1.0), (0.01, 0.15, 0.03)),
    )
    for omega, momenta, relative in cases:
        params = TWGParams(omega_atom=omega, gamma_t=1.0)
        snapped, images = lo.ring_wavefunction(params, momenta, x, 61)
        reference = twg.three_photon_out_wavefunction(params, snapped, x)
        deviation = np.abs(images[(1, 1, 1)] - reference)
        assert np.all(deviation < bound)
        assert np.all(deviation < np.array(relative) * np.abs(reference))


def test_ring_h_pair_wavefunction_matches_analytic():
    # each outgoing channel's image is e^{i E x_c} g_{j1 j2}(x1 - x2), the
    # (1, 2) channel slot-ordered with x1 in waveguide 1
    params = _h_params((0.2, 0.4))
    xc, xr = np.array([0.0, 0.7, -1.2, 2.0]), np.array([1.0, 3.0, 0.5, -8.0])
    (k1s, k2s), images = lo.ring_wavefunction(params, (1.05, 0.95), _pair_points(xc, xr), 601)
    assert sorted(images) == [(1, 1), (1, 2), (2, 2)]
    for pair, values in images.items():
        reference = np.exp(1j * (k1s + k2s) * xc) * hwg.pair_wavefunction(
            params, pair, k1s, k2s, xr
        )
        assert np.max(np.abs(values - reference)) < 1e-6


def test_ring_sums_refuse_a_wrong_photon_count():
    with pytest.raises(ValueError, match="photon pair"):
        lo.ring_norm(_h_params((0.2, 0.4)), (1.0, 1.0, 1.0), 61)
    with pytest.raises(ValueError, match="3 entries"):
        lo.ring_norm(TWGParams(omega_atom=0.0, gamma_t=1.0), (1.0,), 61)
    with pytest.raises(ValueError, match="2 photons need 2 coordinates"):
        lo.ring_wavefunction(TWGParams(omega_atom=0.0, gamma_t=1.0), (1.0, 1.0), (0.0,), 61)


def test_ring_h_pair_norm_is_unit():
    params = _h_params((0.2, 0.4))
    assert lo.ring_norm(params, (1.05, 0.95), 601) == pytest.approx(1.0, abs=1e-3)


def _drop_first(terms, kind):
    """``terms`` without the first term for which ``kind(term)`` holds."""
    i = next(i for i, term in enumerate(terms) if kind(term))
    return terms[:i] + terms[i + 1:]


def _drop_first_pinned_pair(terms):
    return _drop_first(terms, lambda term: len(term.pinned) == 1)


def _drop_first_full_pinning(terms):
    return _drop_first(terms, lambda term: term.density is None)


def _double_connected(terms):
    first, *rest = terms
    return (dataclasses.replace(first, weight=2.0 * first.weight), *rest)


def _mixed_channel(damage):
    return lambda table: {**table, (1, 2): damage(table[(1, 2)])}


def _norm_3():
    return lo.ring_norm(TWGParams(omega_atom=0.0, gamma_t=1.0), (-0.3, 0.1, 0.5), 201)


def _norm_h():
    return lo.ring_norm(_h_params((0.2, 0.4)), (1.05, 0.95), 601)


@pytest.mark.parametrize(
    "module, constructor, damage, norm, tol",
    [
        (twg, "three_photon_s", _drop_first_pinned_pair, _norm_3, 1e-4),
        (twg, "two_photon_s", _double_connected,
         lambda: lo.ring_norm(TWGParams(omega_atom=0.2, gamma_t=0.3), (0.15, 0.25), 601), 1e-3),
        (hwg, "two_photon_s_h", _mixed_channel(_double_connected), _norm_h, 1e-3),
        (twg, "three_photon_s", _drop_first_full_pinning, _norm_3, 1e-4),
        (hwg, "two_photon_s_h", _mixed_channel(_drop_first_full_pinning), _norm_h, 1e-3),
    ],
    ids=[
        "three_photon_s", "two_photon_s", "two_photon_s_h",
        "three_photon_s-full_pinning", "two_photon_s_h-full_pinning",
    ],
)
def test_ring_norms_read_the_library_s_matrix(monkeypatch, module, constructor, damage, norm, tol):
    # the unitarity sums are built from the S-matrix constructors, so a
    # damaged tier in the library's S-matrix moves them off 1
    assert norm() == pytest.approx(1.0, abs=tol)
    build = getattr(module, constructor)
    monkeypatch.setattr(module, constructor, lambda *args: damage(build(*args)))
    assert abs(norm() - 1.0) > tol
