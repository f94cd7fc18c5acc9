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

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm
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
    """The sparse operator of a dense matrix: its diagonal, and its nonzero
    off-diagonal entries as couplings (no hopping slots)."""
    rows, cols = np.nonzero(matrix - np.diag(np.diag(matrix)))
    return lo.SparseOperator(np.diag(matrix), couplings=[(rows, cols, matrix[rows, cols])])


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


def test_model_validation():
    with pytest.raises(ValueError):
        lo.LatticeModel(params=_t_params(), size=4)
    with pytest.raises(ValueError):
        lo.LatticeModel(params=_t_params(), size=1)
    with pytest.raises(TypeError):
        lo.LatticeModel(params=TWGParams(omega_atom=0.0, gamma_t=1.0), size=5)


def test_spectrum_respects_gershgorin_bounds():
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
        radius = np.abs(h).sum(axis=1) - np.abs(np.diag(h))
        lo_bound, hi_bound = (np.diag(h) - radius).min(), (np.diag(h) + radius).max()
        evals = np.linalg.eigvalsh(h)
        assert evals.min() >= lo_bound - 1e-12
        assert evals.max() <= hi_bound + 1e-12
        # the propagator's bound is the same interval, read off the entries
        bounds = lo.build_single_excitation(m).gershgorin
        assert bounds == pytest.approx((lo_bound, hi_bound), abs=1e-14)


def _pair_spectrum(model):
    """Eigenvalues of the packed pair operator, made symmetric by the norm
    weights: h is self-adjoint under sum w |u|^2, w = 1/2 on a diagonal pair."""
    h = lo._pair_operator(model)
    root_w = np.sqrt(lo._pair_weights(model.dimension - 1))
    sym = root_w[:, None] * _dense(h) / root_w[None, :]
    return h, np.linalg.eigvalsh(0.5 * (sym + sym.T))


@pytest.mark.parametrize("coupling, omega", [(1.0, 0.0), (0.5, 0.7), (2.0, -0.4)])
def test_bound_state_interval_holds_the_spectrum_inside_gershgorin(coupling, omega):
    p = TCRAParams(omega_atom=omega, omega_cavity=0.0, hopping=1.0, coupling=coupling)
    m = lo.LatticeModel(params=p, size=31)
    h = lo.build_single_excitation(m)
    h_pair, pair_evals = _pair_spectrum(m)
    for photons, op, evals in (
        (1, h, np.linalg.eigvalsh(_dense(h))),
        (2, h_pair, pair_evals),
    ):
        low, high = lo._spectral_interval(m, op, photons)
        assert low <= evals.min() and evals.max() <= high
        assert op.gershgorin[0] < low and high < op.gershgorin[1]


@pytest.mark.parametrize("coupling", [0.0, 1e-4, 1e-160])
def test_weak_coupling_spectral_interval(coupling):
    # no bound state at V = 0, so Gershgorin stays; at V = 1e-4 the bound
    # states sit within 1e-16 of the band edges and the interval is inside
    # Gershgorin (whose discs reach V past the band); at V = 1e-160 the
    # decay is below float range, so Gershgorin stays and the runs are the
    # V = 0 runs
    m = lo.LatticeModel(params=_t_params(coupling), size=801)
    h = lo.build_single_excitation(m)
    pair_model = lo.LatticeModel(params=m.params, size=161)
    h_pair = lo._pair_operator(pair_model)
    intervals = (lo._spectral_interval(m, h, 1), lo._spectral_interval(pair_model, h_pair, 2))
    gershgorin_sized = coupling != 1e-4
    for (low, high), (g_low, g_high) in zip(intervals, (h.gershgorin, h_pair.gershgorin)):
        if gershgorin_sized:
            assert (low, high) == (g_low, g_high)
        else:
            assert g_low < low and high < g_high

    # the numbers of runs sized by these intervals; at V = 1e-4 the interval
    # narrows by 1e-4 only, so the runs match their Gershgorin-sized values
    packet, pair = {
        0.0: (
            (0.9985901560325011, 0.0012987144871351886),
            (0.9999999999999997, 0.9987499692641781),
        ),
        1e-4: (
            (0.9985901560305113, 0.0012987144868582485),
            (1.000000015669287, 0.9987499340329189),
        ),
    }[0.0 if gershgorin_sized else coupling]
    run = lo.wavepacket_scatter(m, 1.2, 40.0)
    assert run.spectral_interval == intervals[0]
    assert (run.transmission, run.reflection) == pytest.approx(packet, rel=1e-12)
    rep = lo.two_excitation_check(pair_model, 1.4, 1.7, width=6.0)
    assert rep.spectral_interval == intervals[1]
    assert (rep.bunching_indicator, rep.transmitted_fraction) == pytest.approx(pair, rel=1e-12)


def test_h_type_runs_keep_gershgorin():
    m = lo.LatticeModel(params=_h_params((0.5, 0.6)), size=801)
    h = lo.build_single_excitation(m)
    assert lo._spectral_interval(m, h, 1) == h.gershgorin


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


def test_bound_check_rejects_wrong_kind():
    with pytest.raises(ValueError):
        lo.bound_state_check(lo.LatticeModel(params=_h_params((1.0, 1.0)), size=41))


def test_bound_check_rejects_zero_coupling_before_lanczos(monkeypatch):
    # V = 0 has no bound state; the check refuses it without diagonalising
    def lanczos(h, tol):
        raise AssertionError("Lanczos ran for an uncoupled atom")

    monkeypatch.setattr(lo, "_lanczos_extremes", lanczos)
    with pytest.raises(ValueError, match="nonzero coupling"):
        lo.bound_state_check(lo.LatticeModel(params=_t_params(coupling=0.0), size=2001))


def test_bound_report_is_reproducible_and_matches_dense_reference():
    p = TCRAParams(omega_atom=0.3, omega_cavity=0.1, hopping=1.0, coupling=0.8)
    m = lo.LatticeModel(params=p, size=201)
    first = dataclasses.asdict(lo.bound_state_check(m))
    assert dataclasses.asdict(lo.bound_state_check(m)) == first
    assert first["warnings"] == ()
    # the Lanczos run reports how it stopped: both Ritz residuals under
    # the stopping tolerance, within a Krylov space smaller than the lattice
    h = lo.build_single_excitation(m)
    tol = lo._LANCZOS_RTOL * max(abs(e) for e in h.gershgorin)
    assert max(first["ritz_residuals"]) <= tol
    assert 0 < first["lanczos_steps"] < h.shape[0]
    evals, evecs = np.linalg.eigh(_dense(lo.build_single_excitation(m)))
    assert first["energies"] == pytest.approx((evals[0], evals[-1]), abs=1e-12)
    x = m.positions()
    for vec, slope in ((evecs[: m.size, 0], 0), (evecs[: m.size, -1], 1)):
        assert lo._envelope_slope(vec, x) == pytest.approx(
            first["envelope_slopes"][slope], abs=1e-6
        )


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

    # the sparse H-type lattice operator with its Gershgorin bounds
    h_lat = lo.build_single_excitation(
        lo.LatticeModel(
            params=HWGParams(omega_atom=0.9, vbar=(0.4, 0.7)),
            size=41,
        )
    )
    psi0 = rng.normal(size=83) + 1j * rng.normal(size=83)
    psi0 /= np.linalg.norm(psi0)
    via_cheb, _ = lo._chebyshev_evolve(h_lat, psi0, 37.5, h_lat.gershgorin)
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
    h = _operator(np.diag([1.0, 2.0, 3.0]) - np.eye(3, k=1) - np.eye(3, k=-1))
    psi0 = np.array([1.0, 0.5j, -0.25])
    for t in (1e-17, 1e-300):
        psi_t, _ = lo._chebyshev_evolve(h, psi0, t, h.gershgorin)
        assert np.max(np.abs(psi_t - psi0)) <= 1e-15


def _assert_lanczos_matches_dense(h):
    tol = 1e-15 * max(abs(e) for e in h.gershgorin)
    energies, vectors, steps, residuals = lo._lanczos_extremes(h, tol)
    evals, evecs = np.linalg.eigh(_dense(h))
    assert energies == pytest.approx((evals[0], evals[-1]), abs=1e-12)
    for found, exact in ((vectors[:, 0], evecs[:, 0]), (vectors[:, 1], evecs[:, -1])):
        sign = np.sign(found @ exact)
        assert np.max(np.abs(found - sign * exact)) <= 1e-12
    assert max(residuals) <= tol
    assert steps <= h.shape[0]


def test_lanczos_matches_dense_eigh_on_lattice_operator():
    p = TCRAParams(omega_atom=0.3, omega_cavity=0.1, hopping=1.0, coupling=0.8)
    _assert_lanczos_matches_dense(
        lo.build_single_excitation(lo.LatticeModel(params=p, size=201))
    )


def test_lanczos_matches_dense_eigh_on_random_symmetric_matrix():
    a = np.random.default_rng(23).normal(size=(80, 80))
    _assert_lanczos_matches_dense(_operator(0.5 * (a + a.T)))


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
    return np.concatenate([psi[np.triu_indices(size)], buf[size * size :]])


def _unpack(buf, size):
    """Packed bosonic state to the full-square (psi, chi) layout."""
    upper = np.triu_indices(size)
    psi = np.empty((size, size), dtype=buf.dtype)
    psi[upper] = buf[: len(upper[0])]
    psi[upper[::-1]] = buf[: len(upper[0])]
    return np.concatenate([psi.ravel(), buf[len(upper[0]) :]])


def test_pair_operator_matches_stencil():
    # at L = 3 every pair touches a chain end or the atom site
    p = TCRAParams(omega_atom=0.3, omega_cavity=0.1, hopping=0.9, coupling=0.7)
    rng = np.random.default_rng(5)
    for size in (3, 5, 7):
        h = lo._pair_operator(lo.LatticeModel(params=p, size=size))
        assert h.shape == (size * (size + 1) // 2 + size,) * 2
        square = size * size
        for _ in range(5):
            state = rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0])
            full = _unpack(state, size)
            assert np.max(np.abs(h @ state - _pack(_pair_stencil(p, size, full), size))) < 1e-14
            # the bosonic norm counts each unordered pair once
            assert lo._pair_weights(size) @ np.abs(state) ** 2 == pytest.approx(
                0.5 * np.sum(np.abs(full[:square]) ** 2) + np.sum(np.abs(full[square:]) ** 2),
                rel=1e-14,
            )
    # at L = 7, the same spectral interval as the hand-derived
    # band-plus-coupling bound
    w0, j, v = p.omega_cavity, p.hopping, p.coupling
    assert h.gershgorin == pytest.approx(
        (
            min(2.0 * (w0 - 2.0 * j) - 2.0 * v, w0 + p.omega_atom - 2.0 * j - v),
            max(2.0 * (w0 + 2.0 * j) + 2.0 * v, w0 + p.omega_atom + 2.0 * j + v),
        ),
        abs=1e-14,
    )


def test_packed_pair_evolution_matches_full_square():
    # the full-square operator, column by column from the stencil, evolved
    # exactly by a dense matrix exponential
    p = TCRAParams(omega_atom=0.3, omega_cavity=0.1, hopping=0.9, coupling=0.7)
    size = 21
    dim = size * size + size
    full = np.column_stack([_pair_stencil(p, size, e) for e in np.eye(dim)])
    rng = np.random.default_rng(17)
    h = lo._pair_operator(lo.LatticeModel(params=p, size=size))
    state = rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0])
    weights = lo._pair_weights(size)
    state /= np.sqrt(weights @ np.abs(state) ** 2)
    exact = expm(-1j * 6.3 * full) @ _unpack(state, size)
    packed, _ = lo._chebyshev_evolve(h, state, 6.3, h.gershgorin)
    assert np.max(np.abs(packed - _pack(exact, size))) < 1e-12
    assert weights @ np.abs(packed) ** 2 == pytest.approx(1.0, abs=1e-13)


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
    # the single-excitation matrix alone, for both kinds of model
    model = lo.LatticeModel(params=params, size=size)
    h1 = _dense(lo.build_single_excitation(model))
    reference = _fock_pair_spectrum(h1)
    h_pair, packed = _pair_spectrum(model)
    assert h_pair.shape[0] == len(reference) == len(h1) * (len(h1) + 1) // 2 - 1
    assert np.max(np.abs(packed - reference)) < 1e-13


def test_free_reference_is_the_photon_block(monkeypatch):
    # the pair run's two free packets evolve under the photon rows and
    # columns of the single-excitation operator, entry for entry
    m = lo.LatticeModel(params=TCRAParams(0.3, 0.1, 0.9, 0.7), size=161)
    operators = []
    evolve = lo._chebyshev_evolve

    def spy(h, state, t, bounds):
        operators.append(h)
        return evolve(h, state, t, bounds)

    monkeypatch.setattr(lo, "_chebyshev_evolve", spy)
    lo.two_excitation_check(m, 1.2, 1.9, width=6.0, separation=15.0)
    photons = _dense(lo.build_single_excitation(m))[: m.size, : m.size]
    radius = np.abs(photons).sum(axis=1) - np.abs(np.diag(photons))
    band = ((np.diag(photons) - radius).min(), (np.diag(photons) + radius).max())
    assert len(operators) == 3
    for h_free in operators[1:]:
        np.testing.assert_array_equal(_dense(h_free), photons)
        assert h_free.gershgorin == pytest.approx(band, abs=1e-15)


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


def test_detuned_pair_stays_nearly_free():
    m = lo.LatticeModel(params=_t_params(coupling=0.5), size=281)
    rep = lo.two_excitation_check(m, 2.2, 2.2)
    assert rep.norm_drift < 1e-10
    assert rep.transmitted_fraction > 0.9
    assert rep.bunching_indicator == pytest.approx(1.0, abs=0.1)


def _order(bounds, t):
    """The propagator's order for ``bounds`` and ``t``, on a 1x1 operator."""
    return lo._chebyshev_evolve(_operator(np.zeros((1, 1))), np.ones(1), t, bounds)[1]


@pytest.mark.parametrize(
    "coupling, k, order, gershgorin_order",
    [(1.0, np.pi / 2.0, 283, 391), (0.5, 2.2, 332, 402)],
)
def test_pair_run_order_follows_the_bound_states(coupling, k, order, gershgorin_order):
    m = lo.LatticeModel(params=_t_params(coupling), size=281)
    rep = lo.two_excitation_check(m, k, k)
    assert rep.chebyshev_order == order == _order(rep.spectral_interval, rep.duration)
    gershgorin = lo._pair_operator(m).gershgorin
    assert _order(gershgorin, rep.duration) == gershgorin_order
    if coupling == 1.0:
        assert rep.chebyshev_order <= 0.75 * gershgorin_order


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


# ---------------------------------------------------------------------------
# ring-quantized momentum sums


def test_ring_two_photon_norm_is_unit():
    params = TWGParams(omega_atom=0.2, gamma_t=0.3)
    assert lo.ring_two_photon_norm(params, 0.15, 0.25, 601) == pytest.approx(
        1.0, abs=1e-3
    )


def test_ring_two_photon_wavefunction_matches_analytic():
    params = TWGParams(omega_atom=0.2, gamma_t=0.3)
    for xc, xr in ((0.0, 1.0), (0.7, 3.0), (-1.2, 0.5), (2.0, 8.0)):
        (k1s, k2s), value = lo.ring_two_photon_wavefunction(
            params, 0.15, 0.25, xc, xr, 601
        )
        reference = twg.two_photon_out_wavefunction(params, k1s, k2s, xc, xr)
        assert abs(value - reference) < 1e-5


def test_ring_three_photon_norm_is_unit():
    params = TWGParams(omega_atom=0.0, gamma_t=1.0)
    norm = lo.ring_three_photon_norm(params, (-0.3, 0.1, 0.5), 201, half_window=10.0)
    assert norm == pytest.approx(1.0, abs=2e-3)


def test_ring_three_photon_wavefunction_matches_analytic():
    params = TWGParams(omega_atom=0.0, gamma_t=1.0)
    momenta = (-0.3, 0.1, 0.5)
    positions = (-1.2, 0.4, 1.7)
    snapped, value = lo.ring_three_photon_wavefunction(params, momenta, positions, 61)
    reference = twg.three_photon_out_wavefunction(params, snapped, positions)
    # the ring truncates its connected sum at its window of 32
    # gamma_t, which leaves a relative deviation of up to ~1.5 gamma_t / window
    assert abs(value - reference) < 1.5 / 32.0 * abs(reference)


def test_ring_h_pair_norm_is_unit():
    params = _h_params((0.2, 0.4))
    assert lo.ring_h_pair_norm(params, 1.05, 0.95, 601) == pytest.approx(
        1.0, abs=1e-3
    )


def _drop_first_pinned_pair(s):
    return dataclasses.replace(s, pinned_pairs=s.pinned_pairs[1:])


def _double_connected(s):
    return dataclasses.replace(s, connected=lambda *p: 2.0 * s.connected(*p))


def _double_mixed_channel(table):
    return {**table, (1, 2): _double_connected(table[(1, 2)])}


@pytest.mark.parametrize(
    "module, constructor, damage, norm, tol",
    [
        (twg, "three_photon_s", _drop_first_pinned_pair,
         lambda: lo.ring_three_photon_norm(
             TWGParams(omega_atom=0.0, gamma_t=1.0), (-0.3, 0.1, 0.5), 201, half_window=10.0
         ), 2e-3),
        (twg, "two_photon_s", _double_connected,
         lambda: lo.ring_two_photon_norm(
             TWGParams(omega_atom=0.2, gamma_t=0.3), 0.15, 0.25, 601
         ), 1e-3),
        (hwg, "two_photon_s_h", _double_mixed_channel,
         lambda: lo.ring_h_pair_norm(_h_params((0.2, 0.4)), 1.05, 0.95, 601), 1e-3),
    ],
    ids=["three_photon_s", "two_photon_s", "two_photon_s_h"],
)
def test_ring_norms_read_the_library_s_matrix(monkeypatch, module, constructor, damage, norm, tol):
    # the unitarity sums are built from the S-matrix constructors, so a
    # damaged tier in the library's S-matrix moves them off 1
    assert norm() == pytest.approx(1.0, abs=tol)
    build = getattr(module, constructor)
    monkeypatch.setattr(module, constructor, lambda *args: damage(build(*args)))
    assert abs(norm() - 1.0) > tol
