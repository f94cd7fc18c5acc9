"""Acceptance suite: every primary claim of the package checked end to end.

Each criterion is a self-contained function returning its checks: readings
against the bounds they are held to, and conditions.  A criterion passes when
every check does, and its report prints each check as it was enforced.  The
registry drives both the ``validate`` CLI subcommand and the acceptance
tests.  Criteria either compare closed forms against an independent oracle
(finite lattice, ring sums, Bethe phases) or assert exact structural
properties (unitarity, symmetry, pole positions) at fixed tolerances.

Criterion functions are deterministic: random sweeps use fixed seeds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations, product
from typing import Callable

import numpy as np

from . import bethe, hwg, lattice_oracle, tcra, twg
from .core import HWGParams, TCRAParams, TWGParams


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one acceptance criterion run."""

    number: int
    title: str
    passed: bool
    details: str
    elapsed: float


@dataclass(frozen=True)
class Check:
    """One clause of a criterion: a reading held to a bound, or a condition.

    ``Check(quantity, value, tol)`` passes when ``value <= float(tol)``; the
    bound is kept as written, so the printed bound is the enforced one, and a
    nan reading fails.  ``Check(quantity, flag)`` passes when ``flag`` is True
    and refuses anything but a bool.
    """

    quantity: str
    value: float | bool
    tol: str | None = None

    def __post_init__(self):
        if self.tol is None and not isinstance(self.value, bool):
            raise TypeError(f"condition {self.quantity!r} needs a bool, got {self.value!r}")

    @property
    def passed(self) -> bool:
        return self.value if self.tol is None else bool(self.value <= float(self.tol))

    def __str__(self) -> str:
        if self.tol is None:
            return f"{self.quantity}: {self.value}"
        return f"{self.quantity} {_reading(self.value)} (tol {self.tol})"


# every reading prints at this one precision
_reading = "{:.2e}".format


def _strictly(quantity, value, relation, bound) -> Check:
    """A strict comparison with a written bound, as a condition naming its reading."""
    holds = value < float(bound) if relation == "<" else value > float(bound)
    return Check(f"{quantity} {_reading(value)} {relation} {bound}", bool(holds))


# ---------------------------------------------------------------------------
# criterion implementations


def _criterion_single_photon_unitarity():
    # one record of 1000 parameter points, one call
    rng = np.random.default_rng(101)
    n = 1000
    w0 = rng.uniform(-1.0, 1.0, n)
    j = rng.uniform(0.3, 2.0, n)
    params = TCRAParams(
        omega_atom=w0 + rng.uniform(-2.5, 2.5, n) * j,
        omega_cavity=w0,
        hopping=j,
        coupling=rng.uniform(0.2, 1.5, n),
    )
    k = rng.uniform(0.05, np.pi - 0.05, n) * rng.choice((-1.0, 1.0), n)
    r = tcra.reflection_amplitude(params, k)
    worst = float(np.max(np.abs(np.abs(1.0 + r) ** 2 + np.abs(r) ** 2 - 1.0)))
    return [Check("max flux deficit over 1000 random (k, Omega, J, V) draws", worst, "1e-12")]


def _criterion_bound_states():
    params = TCRAParams(omega_atom=0.0, omega_cavity=0.0, hopping=1.0, coupling=1.0)
    lower, upper = tcra.bound_state_energies(params)
    quartic = np.sqrt(2.0 + np.sqrt(5.0))
    dev_quartic = max(abs(lower.energy + quartic), abs(upper.energy - quartic))
    report = lattice_oracle.bound_state_check(
        lattice_oracle.LatticeModel(params=params, size=2001)
    )
    dev_energy = max(report.energy_residuals)
    dev_slope = max(report.slope_residuals)
    # the lattice energies are roots of E - Omega + self_energy(E), to one
    # ulp; the L = 2001 truncation is about kappa^1000 ~ e^-240, and the
    # pivot amplitudes are exactly geometric
    dev_root = max(
        abs(e - params.omega_atom + tcra.self_energy(params, e).real) for e in report.energies
    )
    return [
        Check("quartic dev", dev_quartic, "1e-12"),
        Check("L=2001 energy dev", dev_energy, "1e-12"),
        Check("self-energy root dev", dev_root, "1e-12"),
        Check("envelope slope dev", dev_slope, "1e-9"),
        Check("upper branch alternates", report.upper_sign_alternating),
        Check("lower branch keeps one sign", report.lower_sign_uniform),
    ]


def _criterion_total_reflection():
    params = TCRAParams(omega_atom=0.0, omega_cavity=0.0, hopping=1.0, coupling=1.0)
    model = lattice_oracle.LatticeModel(params=params, size=801)
    # band center hits the atom frequency: analytic transmission is zero
    run = lattice_oracle.wavepacket_scatter(model, np.pi / 2.0, 40.0)
    return [_strictly("resonant lattice transmission (analytic 0)", run.transmission, "<", "1e-2")]


def _criterion_waveguide_phase():
    params = TWGParams(omega_atom=0.7, gamma_t=1.3)
    k = params.omega_atom + np.linspace(-40.0, 40.0, 1000) * params.gamma_t
    dev = float(np.max(np.abs(np.abs(twg.transmission_amplitude(params, k)) - 1.0)))
    t_res = twg.transmission_amplitude(params, params.omega_atom)
    return [
        Check("max ||t_k| - 1| on 1000-point grid", dev, "1e-14"),
        Check("t at resonance is exactly -1", bool(t_res == -1.0)),
    ]


def _criterion_two_photon_out_state():
    params = TWGParams(omega_atom=0.2, gamma_t=0.3)
    om, g = params.omega_atom, params.gamma_t

    xs = np.linspace(0.05, 9.0, 40)
    psi = twg.two_photon_out_wavefunction(params, 0.13, 0.31, 0.45, xs)
    psi_neg = twg.two_photon_out_wavefunction(params, 0.13, 0.31, 0.45, -xs)
    dev_even = float(np.max(np.abs(psi - psi_neg)))

    xg = np.linspace(-8.0, 8.0, 161)
    xc = 0.37
    res = twg.two_photon_out_wavefunction(params, om, om, xc, xg)
    envelope = (1.0 - 4.0 * np.exp(-0.5 * g * np.abs(xg))) / (2.0 * np.pi)
    dev_env = float(np.max(np.abs(res * np.exp(-2j * om * xc) - envelope)))

    xf = np.linspace(0.5, 5.0, 20)
    bound = 1.0 / (2.0 * np.pi) - twg.two_photon_out_wavefunction(
        params, om, om, 0.0, xf
    )
    slope = np.polyfit(xf, np.log(np.abs(bound)), 1)[0]
    dev_decay = abs(-slope - 0.5 * g)

    rng = np.random.default_rng(105)
    draws = np.array([(rng.uniform(-2.0, 2.0), rng.uniform(0.3, 6.0)) for _ in range(10)])
    xc_r, xr_r = draws.T
    (k1s, k2s), ring = lattice_oracle.ring_wavefunction(
        params, (0.15, 0.25), (xc_r + 0.5 * xr_r, xc_r - 0.5 * xr_r), 601
    )
    ana = twg.two_photon_out_wavefunction(params, k1s, k2s, xc_r, xr_r)
    dev_ring = float(np.max(np.abs(ring[(1, 1)] - ana)))

    return [
        Check("evenness dev", dev_even, "1e-12"),
        Check("resonance envelope dev", dev_env, "1e-12"),
        Check("decay-rate dev", dev_decay, "1e-6"),
        Check("ring-sum dev at 10 points, L=601", dev_ring, "1e-3"),
    ]


def _criterion_three_photon_t():
    params = TWGParams(omega_atom=1.0, gamma_t=1.0)
    rng = np.random.default_rng(106)

    # one on-shell point per row, its three momenta in the columns; the T3
    # calls take the columns, so each sweep below is one call
    def on_shell(rows, k_spread, p_spread, rounding=lambda v: v):
        k = rounding(1.0 + rng.uniform(-k_spread, k_spread, (rows, 3)))
        e = k[:, 0] + k[:, 1] + k[:, 2]
        p12 = rounding(e[:, None] / 3.0 + rng.uniform(-p_spread, p_spread, (rows, 2)))
        return k, np.column_stack((p12, e - p12[:, 0] - p12[:, 1]))

    # momenta are rounded to multiples of 2^-30, so e and p3 are exact and
    # the literal sum is evaluated exactly on shell
    k, p = on_shell(100, 1.5, 2.0, lambda v: np.round(v * 2.0**30) / 2.0**30)
    lit = twg.three_photon_t_reference(params, k.T, p.T)
    opt = twg.three_photon_t(params, k.T, p.T)
    dev_ref = float(np.max(np.abs(lit - opt) / np.maximum(1.0, np.abs(lit))))

    # all 36 relabelings of 5 points in one stacked call; the identity
    # relabeling comes first and is the base
    k, p = on_shell(5, 1.2, 1.5)
    sig, tau = np.array(list(product(permutations(range(3)), repeat=2))).transpose(1, 0, 2)
    vals = twg.three_photon_t_reference(params, k[:, sig].T, p[:, tau].T)
    base = vals[:1]
    dev_sym = float(np.max(np.abs(vals - base) / np.maximum(1.0, np.abs(base))))

    delta = np.linspace(0.05, 2.0, 50)
    slice_res = twg.three_photon_fluorescence(
        params, (1.0, 1.0, 1.0), 1.0 + delta, 1.0 - delta
    )
    slice_off = twg.three_photon_fluorescence(
        params, (0.5, 0.3, 2.2), 1.0 + delta, 1.0 - delta
    )
    min_ratio = _reading(float(np.min(slice_res / slice_off)))

    return [
        Check("literal-vs-simplified dev at 100 on-shell points", dev_ref, "1e-10"),
        Check("36-relabeling dev", dev_sym, "1e-12"),
        Check(
            f"resonant fluorescence exceeds detuned slice pointwise (min ratio {min_ratio})",
            bool(np.all(slice_res > slice_off)),
        ),
    ]


def _criterion_three_photon_spatial():
    params = TWGParams(omega_atom=1.0, gamma_t=1.0)
    k = (1.0, 1.0, 1.0)
    # mirror ridge points carry identical probability here, so sample one side
    s = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
    ridge = np.abs(twg.three_photon_out_wavefunction(params, k, (s, s, 0.0))) ** 2
    origin = abs(twg.three_photon_out_wavefunction(params, k, (0.0, 0.0, 0.0))) ** 2
    profile = ", ".join(map(_reading, ridge))
    return [
        Check(
            f"ridge over x1=x2, |x1| in [2,6] ([{profile}]) peaks above origin {_reading(origin)}",
            bool(ridge.max() > origin),
        )
    ]


def _criterion_h_unitarity():
    # one record of 1000 parameter points, one call
    rng = np.random.default_rng(108)
    n = 1000
    params = HWGParams(omega_atom=rng.uniform(0.0, 2.0, n), vbar=rng.uniform(0.2, 2.5, (2, n)))
    k = params.omega_atom + rng.uniform(-5.0, 5.0, n) * params.gamma_e
    worst = hwg.channel_amplitudes(params, k).unitarity_defect()

    equal = hwg.channel_amplitudes(HWGParams(omega_atom=1.0, vbar=(2.0, 2.0)), 1.0)

    mixed = hwg.channel_amplitudes(HWGParams(omega_atom=1.0, vbar=(1.0, 2.0)), 1.0)
    dev_split = max(
        abs(abs(mixed.t11) ** 2 - 9.0 / 25.0), abs(abs(mixed.t21) ** 2 - 16.0 / 25.0)
    )

    return [
        Check("max flux deficit over 1000 draws", worst, "1e-12"),
        Check("equal-coupling resonance t11 is exactly 0", bool(equal.t11 == 0.0)),
        Check("equal-coupling resonance ||t21| - 1|", abs(abs(equal.t21) - 1.0), "1e-15"),
        Check("(1,2) split dev from (9/25, 16/25)", dev_split, "1e-12"),
    ]


def _criterion_correlations():
    x = np.linspace(-6.0, 6.0, 241)

    params = HWGParams(omega_atom=1.0, vbar=(1.0, 2.0))

    def g(pair, x):
        return hwg.pair_wavefunction(params, pair, 1.0, 1.0, x)

    # unitarity of the pair S-matrix these out-states come from, on the ring
    pair_norm = lattice_oracle.ring_norm(params, (1.0, 1.0), 601)
    dev_even = 0.0
    for pair in ((1, 1), (2, 2)):
        dev_even = max(dev_even, float(np.max(np.abs(g(pair, x) - g(pair, -x)))))

    c1 = hwg.channel_amplitudes(params, 1.0)
    planes = {
        (1, 1): c1.t11 * c1.t21,
        (2, 2): c1.t21 * c1.t22,
        (1, 2): c1.t11 * c1.t22 + c1.t21 * c1.t21,
    }
    dev_decay = 0.0
    xa, xb = 0.4, 1.1
    for pair, plane in planes.items():
        b1 = g(pair, xa) - plane / (2.0 * np.pi)
        b2 = g(pair, xb) - plane / (2.0 * np.pi)
        rate = -(np.log(abs(b2)) - np.log(abs(b1))) / (xb - xa)
        dev_decay = max(dev_decay, abs(rate - 0.5 * params.gamma_e))

    def indicator(vbar):
        p = HWGParams(omega_atom=1.0, vbar=vbar)
        center = hwg.second_order_correlation(p, (1, 1), 1.0, 1.0, 0.0)
        return center / hwg.second_order_correlation(p, (1, 1), 1.0, 1.0, 10.0 / p.gamma_e)

    bunching = indicator((2.0, 2.0))
    flat = indicator((1.0, 50.0))

    return [
        Check("L=601 ring pair |norm - 1|", abs(pair_norm - 1.0), "1e-6"),
        Check("evenness dev", dev_even, "1e-15"),
        Check("bound decay-rate dev", dev_decay, "1e-6"),
        _strictly("bunching indicator", bunching, ">", "1"),
        Check("coupling-ratio-50 |indicator - 1|", abs(flat - 1.0), "0.1"),
    ]


def _criterion_bethe_cross_checks():
    params = TWGParams(omega_atom=0.45, gamma_t=0.9)
    k = params.omega_atom + np.linspace(-25.0, 25.0, 1000) * params.gamma_t
    t = twg.transmission_amplitude(params, k)
    dev_phase = max(
        abs(bethe.single_phase(params, float(ki)) - ti) for ki, ti in zip(k, t)
    )

    # two-body phase pole in the pair detuning sits at twice the T2 pole
    gamma = params.gamma_t
    e_res = 2.0 * params.omega_atom
    d = np.linspace(0.35, 0.85, 7)
    inv_t2 = 1.0 / twg.two_photon_t(
        params, e_res / 2.0 + 0.3, e_res / 2.0 - 0.3, e_res / 2.0 + d, e_res / 2.0 - d
    )
    pair_roots = np.roots(np.polyfit(d, inv_t2, 2))
    pair_pole = pair_roots[np.argmin(pair_roots.imag)]
    inv_phase = 1.0 / (
        1.0 - np.array([bethe.two_body_phase(gamma, float(di), 0.0) for di in d])
    )
    phase_pole = np.roots(np.polyfit(d, inv_phase, 1))[0]
    dev_pole = abs(phase_pole - 2.0 * pair_pole)

    # once both photons have crossed the emitter, each ordering of the Bethe
    # state carries e^{i delta_k1} e^{i delta_k2} times its incoming
    # coefficient: the weight of both disconnected terms, pinned at (k1, k2)
    # and (k2, k1)
    rng = np.random.default_rng(110)
    dev_coeff = 0.0
    for _ in range(10):
        k1 = params.omega_atom + float(rng.uniform(-2.0, 2.0)) * gamma
        k2 = k1 + float(rng.uniform(0.1, 2.0))
        crossed = bethe.single_phase(params, k1) * bethe.single_phase(params, k2)
        disc = [term for term in twg.two_photon_s(params, k1, k2) if term.density is None]
        for term, pinned in zip(disc, ((k1, k2), (k2, k1)), strict=True):
            dev_pin = max(abs(q - v) for (_, q), v in zip(term.pinned, pinned, strict=True))
            dev_coeff = max(dev_coeff, abs(term.weight - crossed), dev_pin)

    return [
        Check("single-phase vs t_k dev", dev_phase, "1e-15"),
        Check("pole-doubling dev", dev_pole, "1e-12"),
        Check("N=2 crossed coefficient vs disconnected S dev at 10 points", dev_coeff, "1e-14"),
    ]


def _criterion_two_excitation_lattice():
    resonant = lattice_oracle.two_excitation_check(
        lattice_oracle.LatticeModel(
            params=TCRAParams(
                omega_atom=0.0, omega_cavity=0.0, hopping=1.0, coupling=1.0
            ),
            size=281,
        ),
        np.pi / 2.0,
        np.pi / 2.0,
    )
    detuned = lattice_oracle.two_excitation_check(
        lattice_oracle.LatticeModel(
            params=TCRAParams(
                omega_atom=0.0, omega_cavity=0.0, hopping=1.0, coupling=0.5
            ),
            size=281,
        ),
        2.2,
        2.2,
    )
    return [
        _strictly("resonant bunching indicator", resonant.bunching_indicator, ">", "1"),
        Check("detuned |indicator - 1|", abs(detuned.bunching_indicator - 1.0), "0.1"),
    ]


_CheckFn = Callable[[], list[Check]]

CRITERIA: tuple[tuple[int, str, _CheckFn], ...] = (
    (1, "single-photon unitarity", _criterion_single_photon_unitarity),
    (2, "bound states vs lattice", _criterion_bound_states),
    (3, "total reflection at resonance", _criterion_total_reflection),
    (4, "waveguide transmission phase", _criterion_waveguide_phase),
    (5, "two-photon out-state", _criterion_two_photon_out_state),
    (6, "three-photon connected T", _criterion_three_photon_t),
    (7, "three-photon spatial preference", _criterion_three_photon_spatial),
    (8, "two-channel unitarity and split", _criterion_h_unitarity),
    (9, "pair correlations", _criterion_correlations),
    (10, "Bethe cross-checks", _criterion_bethe_cross_checks),
    (11, "two-excitation lattice dynamics", _criterion_two_excitation_lattice),
)


def run(numbers=None) -> list[CriterionResult]:
    """Run the selected acceptance criteria (all by default).

    A criterion that raises is reported as failed with the exception text in
    its details; no criterion's exception escapes.  The selection itself is
    checked first: an empty or unknown ``numbers`` selection raises
    ``ValueError`` before any criterion runs.
    """
    if numbers is not None:
        wanted = set(int(n) for n in numbers)
        if not wanted:
            raise ValueError("no criteria selected")
        unknown = wanted - {num for num, _, _ in CRITERIA}
        if unknown:
            raise ValueError(f"unknown criterion numbers: {sorted(unknown)}")
        selected = [c for c in CRITERIA if c[0] in wanted]
    else:
        selected = list(CRITERIA)

    results = []
    for number, title, check in selected:
        start = time.perf_counter()
        try:
            checks = check()
            passed = all(c.passed for c in checks)
            details = "; ".join(map(str, checks))
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            passed, details = False, f"raised {type(exc).__name__}: {exc}"
        results.append(
            CriterionResult(
                number=number,
                title=title,
                passed=passed,
                details=details,
                elapsed=time.perf_counter() - start,
            )
        )
    return results


def format_report(results) -> str:
    """One pass/fail line per criterion plus a summary line."""
    lines = [
        f"[{'PASS' if r.passed else 'FAIL'}] criterion {r.number:2d}"
        f" ({r.elapsed:6.2f}s) {r.title}: {r.details}"
        for r in results
    ]
    failed = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - failed}/{len(results)} criteria passed"
        + (f", {failed} FAILED" if failed else "")
    )
    return "\n".join(lines)
