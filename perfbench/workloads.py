"""Seeded workloads of the photon-scatter benchmark and their output checks.

Every workload is a list of ``Command``s: the ``photon-scatter`` argv the
program sees, and a check that reads the command's stdout and exit code and
raises ``Bad`` when an invariant or documented tolerance does not hold.
Checks use invariants (unitarity, symmetry, row counts, the tolerances the
validation criteria use), never golden bytes, so a change that legitimately
moves digits is not counted as failing.

Parameter ranges keep every command valid and its cost comparable across
seeds: lattice carriers sit inside the band and away from its edges,
three-photon momenta sit near resonance, and all grid and lattice sizes are
fixed.
"""

from __future__ import annotations

import io
import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np


class Bad(Exception):
    """An output that breaks an invariant of its command."""


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[str, int], int]  # (stdout, exit code) -> output rows


# incident photons at exact resonance, evaluated at the origin; the value the
# psi3_rel_err metric compares against perfbench/psi3_reference.json
REFERENCE_ARGV = (
    "three-photon-wf", "--k1", "1", "--k2", "1", "--k3", "1",
    "--x3", "0", "--grid", "x:0:0:2",
)

# a criterion that is reported failing by design (the strict xfail); its
# verdict is recorded and counts as neither failure nor success
EXPECTED_FAIL = {7}

_TIGHT = 1e-9  # identities read back from 12-significant-digit CSV


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    # 4 decimals, so the argv string and the value the check uses agree
    return round(rng.uniform(lo, hi), 4)


def _argv(*parts) -> tuple[str, ...]:
    return tuple(repr(p) if isinstance(p, float) else str(p) for p in parts)


def _grid(spec: str) -> np.ndarray:
    _, start, stop, points = spec.split(":")
    return np.linspace(float(start), float(stop), int(points))


# ---------------------------------------------------------------------------
# output readers


def _ok(code: int, expected: int = 0) -> None:
    if code != expected:
        raise Bad(f"exit code {code}, expected {expected}")


def table(out: str, rows: int, cols: int) -> np.ndarray:
    """Parse a CSV table, requiring the row and column counts and finite cells."""
    if not out.endswith("\n"):
        raise Bad("CSV output does not end with a newline")
    lines = out.split("\n")[:-1]
    if len(lines) - 1 != rows:
        raise Bad(f"{len(lines) - 1} data rows, expected {rows}")
    if len(lines[0].split(",")) != cols:
        raise Bad(f"header has {len(lines[0].split(','))} columns, expected {cols}")
    try:
        data = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise Bad(f"unparsable CSV row: {exc}") from exc
    if data.shape != (rows, cols):
        raise Bad(f"table shape {data.shape}, expected {(rows, cols)}")
    if not np.all(np.isfinite(data)):
        raise Bad("non-finite value in table")
    return data


def _json(out: str) -> dict:
    try:
        obj = json.loads(out)
    except ValueError as exc:
        raise Bad(f"unparsable JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise Bad("JSON output is not an object")
    return obj


def _finite(value, what: str) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise Bad(f"{what} is not a finite number: {value!r}")
    return float(value)


def _close(a, b, tol: float, what: str) -> None:
    dev = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    if not dev <= tol:
        raise Bad(f"{what}: deviation {dev:.3e} exceeds {tol:.1e}")


# ---------------------------------------------------------------------------
# curves: every analytic subcommand at its README grid, two at 1e5 points


def curves(seed: int, tiny: bool = False) -> list[Command]:
    rng = random.Random(seed)
    # T-type lattice: carriers on the README k grid stay inside (0, pi)
    w0 = _draw(rng, -0.3, 0.3)
    lat = ("--omega", round(w0 + _draw(rng, -0.5, 0.5), 4), "--omega0", w0,
           "--J", 1.0, "--V", _draw(rng, 0.8, 1.2))
    branch = rng.choice(("lower", "upper"))
    # linear waveguide around the README point Omega = gamma = 1
    wg_om, gam = _draw(rng, 0.8, 1.2), _draw(rng, 0.8, 1.2)
    wg = ("--omega", wg_om, "--gamma", gam)
    tp = [round(wg_om + gam * _draw(rng, -0.5, 0.5), 4) for _ in range(2)]
    f2 = (round(wg_om + gam * _draw(rng, 0.1, 0.3), 4),
          round(wg_om - gam * _draw(rng, 0.1, 0.3), 4))
    f3 = [round(wg_om + gam * _draw(rng, -0.1, 0.1), 4) for _ in range(3)]
    f3_k = ("--k1", f3[0], "--k2", f3[1], "--k3", f3[2])
    # H-type waveguides
    h_om = _draw(rng, 0.8, 1.2)
    h = ("--omega", h_om, "--vbar1", _draw(rng, 1.5, 2.5), "--vbar2", _draw(rng, 1.5, 2.5))
    h2 = (_draw(rng, 0.8, 1.2), _draw(rng, 1.8, 2.2), _draw(rng, 1.0, 1.2), _draw(rng, 0.8, 1.0))
    pair = rng.choice(("11", "12", "22"))
    e_pair, dk = _draw(rng, 1.8, 2.2), _draw(rng, -0.1, 0.1)

    def tabled(cols, check, *parts, grid):
        """A CSV command on grid = (var, start, stop, points); check(table, grid)."""
        var, start, stop, points = grid
        spec = f"{var}:{start}:{stop}:{5 if tiny else points}"
        values = _grid(spec)

        def checked(out, code):
            _ok(code)
            check(table(out, values.size, cols), values)
            return values.size

        return Command(_argv(*parts, "--grid", spec), checked)

    def t_reflect(d, k):
        _close(d[:, 0], k, _TIGHT, "k grid")
        _close(d[:, 3], d[:, 1] ** 2 + d[:, 2] ** 2, _TIGHT, "|r|^2 column")
        _close(d[:, 4] + d[:, 3], 1.0, _TIGHT, "|1+r|^2 + |r|^2 - 1")

    def bound_states(out, code):
        _ok(code)
        obj = _json(out)
        lower = _finite(obj.get("lower"), "lower")
        upper = _finite(obj.get("upper"), "upper")
        for key in ("kappa_lower", "kappa_upper"):
            if not 0.0 < _finite(obj.get(key), key) < 1.0:
                raise Bad(f"{key} outside (0, 1)")
        if not (lower < w0 - 2.0 and upper > w0 + 2.0):
            raise Bad(f"bound energies ({lower}, {upper}) not outside the band")
        return 1

    def bound_wavefunction(d, _):
        mag = np.abs(d[:, 1])
        _close(mag, mag[::-1], _TIGHT * max(1.0, mag.max()), "|psi(x)| - |psi(-x)|")
        if not np.all(np.diff(mag[len(mag) // 2 :]) < 0.0):
            raise Bad("bound-state envelope does not decay away from the atom")

    def unit_modulus(d, _):
        _close(d[:, 1] ** 2 + d[:, 2] ** 2, 1.0, _TIGHT, "|t_k| - 1")

    def psi_sq_column(d, _):
        scale = max(1.0, d[:, 3].max())
        _close(d[:, 3], d[:, 1] ** 2 + d[:, 2] ** 2, _TIGHT * scale, "|psi|^2 column")

    def on_shell(energy):
        def check(d, _):
            _close(d[:, 0] + d[:, 1], energy, _TIGHT * 10, "p1 + p2 against the shell")
            if np.any(d[:, 2] < 0.0):
                raise Bad("negative |T|^2")
        return check

    def h_single(d, _):
        _close(d[:, 1] + d[:, 2], 1.0, _TIGHT, "|t11|^2 + |t21|^2 - 1")
        _close(d[:, 3] + d[:, 2], 1.0, _TIGHT, "|t22|^2 + |t21|^2 - 1")

    def h_two_photon(out, code):
        _ok(code)
        obj = _json(out)
        energy = _finite(obj.get("total_energy"), "total_energy")
        _close(energy, h2[2] + h2[3], 1e-12, "total energy")
        if not isinstance(obj.get("channels"), dict) or not obj["channels"]:
            raise Bad("no channel table")
        if "null" in out or "NaN" in out:
            raise Bad("non-finite S-matrix element")
        return 1

    def non_negative(d, _):
        if np.any(d[:, 1] < 0.0):
            raise Bad("negative |g|^2")

    # p3 defaults to E/3, so p1 + p2 = 2E/3 on the fluorescence3 slice
    shell3 = on_shell(2.0 * sum(f3) / 3.0)
    return [
        tabled(5, t_reflect, "t-reflect", *lat, grid=("k", 0.2, 2.9, 200)),
        Command(_argv("bound-states", *lat), bound_states),
        tabled(2, bound_wavefunction, "bound-wavefunction", *lat, "--branch", branch,
               grid=("x", -20, 20, 41)),
        tabled(4, unit_modulus, "wg-transmit", *wg, grid=("k", -3, 5, 400)),
        tabled(4, psi_sq_column, "two-photon-wf", *wg, "--k1", tp[0], "--k2", tp[1],
               grid=("x", -8, 8, 321)),
        tabled(3, on_shell(f2[0] + f2[1]), "fluorescence2", *wg, "--k1", f2[0],
               "--k2", f2[1], grid=("p1", -2, 4, 600)),
        tabled(3, shell3, "fluorescence3", *wg, *f3_k, grid=("p1", 0, 2, 200)),
        tabled(4, h_single, "h-single", *h, grid=("k", 0, 2, 401)),
        Command(_argv("h-two-photon", "--omega", h_om, "--vbar1", h2[0], "--vbar2", h2[1],
                      "--k1", h2[2], "--k2", h2[3]), h_two_photon),
        tabled(2, non_negative, "correlation", "--pair", pair, *h, "--E", e_pair,
               "--dk", dk, grid=("x", -10, 10, 801)),
        # one large batch each through the T3 and t_k kernels
        tabled(3, shell3, "fluorescence3", *wg, *f3_k, grid=("p1", 0, 2, 100000)),
        tabled(4, unit_modulus, "wg-transmit", *wg, grid=("k", -3, 5, 100000)),
    ]


# ---------------------------------------------------------------------------
# three_photon_map: the three-photon out-state on a symmetric x1-x2 grid


MAP_GRID = "x:-2:2:3"
# |psi(a, b) - psi(b, a)| bound: the evaluator is bosonic up to its rtol
# (CLI default 1e-5), with headroom for the 12-digit CSV
_SYMMETRY_TOL = 1e-4


def three_photon_table(out: str, points: int) -> np.ndarray:
    """Rows (x1, x2, psi) of a three-photon-wf table on a points x points grid."""
    d = table(out, points * points, 5)
    _close(d[:, 4], d[:, 2] ** 2 + d[:, 3] ** 2, _TIGHT * max(1.0, d[:, 4].max()), "|psi|^2 column")
    return d


def three_photon_map(seed: int, tiny: bool = False) -> list[Command]:
    rng = random.Random(seed)
    om = _draw(rng, 0.95, 1.05)
    gam = _draw(rng, 0.95, 1.05)
    k = [round(om + gam * _draw(rng, -0.1, 0.1), 4) for _ in range(3)]
    spec = "x:-0.5:0.5:2" if tiny else MAP_GRID
    grid = _grid(spec)
    n = grid.size

    def check(out, code):
        _ok(code)
        d = three_photon_table(out, n)
        _close(d[:, 0], np.repeat(grid, n), _TIGHT, "x1 column")
        _close(d[:, 1], np.tile(grid, n), _TIGHT, "x2 column")
        psi = (d[:, 2] + 1j * d[:, 3]).reshape(n, n)
        scale = max(1.0, float(np.abs(psi).max()))
        _close(psi, psi.T, _SYMMETRY_TOL * scale, "x1 <-> x2 symmetry")
        return n * n

    argv = _argv(
        "three-photon-wf", "--omega", om, "--gamma", gam,
        "--k1", k[0], "--k2", k[1], "--k3", k[2], "--x3", 0.0, "--grid", spec,
    )
    return [Command(argv, check)]


def reference_psi_sq(out: str, code: int) -> float:
    """|psi3|^2 from the REFERENCE_ARGV output (four rows at the origin)."""
    _ok(code)
    d = three_photon_table(out, 2)
    if np.any(d[:, :2] != 0.0):
        raise Bad("reference rows are not at the origin")
    _close(d[:, 4], d[0, 4], 1e-12 * d[0, 4], "repeated reference point")
    return float(d[0, 4])


# ---------------------------------------------------------------------------
# lattice_oracles: dense exact diagonalization and the pair propagator


def lattice_oracles(seed: int, tiny: bool = False) -> list[Command]:
    rng = random.Random(seed)
    bound_args = ("--omega", _draw(rng, -0.3, 0.3), "--omega0", 0.0, "--V", _draw(rng, 0.9, 1.1))
    t_args = ("--omega", _draw(rng, -0.3, 0.3), "--omega0", 0.0, "--V", _draw(rng, 0.9, 1.1),
              "--carrier", _draw(rng, 0.9, 1.3))
    # H-type packets track the analytic split to 0.01 only near the resonant
    # carrier pi/2 with couplings that make the line wide against the packet
    h_args = ("--omega", _draw(rng, 0.9, 1.1), "--vbar1", _draw(rng, 0.5, 0.6),
              "--vbar2", _draw(rng, 0.5, 0.6), "--carrier", _draw(rng, 1.5, 1.65))
    pair_args = ("--omega", 0.0, "--omega0", 0.0, "--V", _draw(rng, 0.9, 1.1),
                 "--k1", _draw(rng, 1.4, 1.75), "--k2", _draw(rng, 1.4, 1.75))

    # tolerances of criterion 2 (energy 1e-6, envelope slope 1e-3) and of the
    # oracle's percent-level packet contract (0.01)
    def bound(out, code):
        _ok(code)
        rep = _json(out)
        if rep.get("warnings"):
            raise Bad(f"bound check warned: {rep['warnings']}")
        if not max(_finite(v, "energy residual") for v in rep["energy_residuals"]) <= 1e-6:
            raise Bad(f"energy residuals {rep['energy_residuals']} exceed 1e-6")
        if not max(_finite(v, "slope residual") for v in rep["slope_residuals"]) <= 1e-3:
            raise Bad(f"slope residuals {rep['slope_residuals']} exceed 1e-3")
        if not all(rep.get(k) is True for k in ("upper_sign_alternating", "lower_sign_uniform")):
            raise Bad("bound-state sign pattern wrong")
        return 1

    def scatter_t(out, code):
        _ok(code)
        rep = _json(out)
        t = _finite(rep.get("transmission"), "transmission")
        r = _finite(rep.get("reflection"), "reflection")
        a_t, a_r = (_finite(v, "analytic") for v in rep["analytic"])
        _close(t, a_t, 0.01, "transmission vs |1+r|^2")
        _close(r, a_r, 0.01, "reflection vs |r|^2")
        budget = t + r + _finite(rep.get("atom_occupation"), "atom_occupation")
        if not 0.999 < budget <= 1.0 + 1e-9:
            raise Bad(f"probability budget {budget}")
        return 1

    def scatter_h(out, code):
        _ok(code)
        rep = _json(out)
        guides = [_finite(v, "guide probability") for v in rep["guide_probabilities"]]
        analytic = [_finite(v, "analytic") for v in rep["analytic"]]
        _close(guides, analytic, 0.01, "guide split vs (|t11|^2, |t21|^2)")
        return 1

    def pair(out, code):
        _ok(code)
        rep = _json(out)
        if not _finite(rep.get("norm_drift"), "norm_drift") <= 1e-10:
            raise Bad(f"norm drift {rep['norm_drift']} exceeds 1e-10")
        if not 0.0 < _finite(rep.get("transmitted_fraction"), "transmitted_fraction") <= 1.0 + 1e-9:
            raise Bad("transmitted fraction outside (0, 1]")
        if not _finite(rep.get("bunching_indicator"), "bunching_indicator") > 0.0:
            raise Bad("non-positive bunching indicator")
        return 1

    return [
        Command(_argv("oracle", "bound", *bound_args, "--L", 201 if tiny else 2001), bound),
        Command(_argv("oracle", "scatter", "--kind", "t", *t_args, "--L", 801), scatter_t),
        Command(_argv("oracle", "scatter", "--kind", "h", *h_args,
                      "--L", 801 if tiny else 1601), scatter_h),
        Command(_argv("oracle", "pair", *pair_args, "--L", 281), pair),
    ]


# ---------------------------------------------------------------------------
# validate: the acceptance suite


_LINE = re.compile(r"^\[(PASS|FAIL)\] criterion\s+(\d+) \(\s*([0-9.]+)s\) ")


def validate_verdicts(out: str) -> dict[int, bool]:
    """Criterion number -> passed, from the report lines."""
    verdicts = {}
    for line in out.splitlines():
        m = _LINE.match(line)
        if m:
            verdicts[int(m.group(2))] = m.group(1) == "PASS"
    return verdicts


def validate(seed: int, tiny: bool = False) -> list[Command]:
    del seed  # the suite's inputs are fixed
    numbers = [1, 4, 8] if tiny else list(range(1, 12))

    def check(out, code):
        verdicts = validate_verdicts(out)
        if sorted(verdicts) != numbers:
            raise Bad(f"report lists criteria {sorted(verdicts)}, expected {numbers}")
        _ok(code, 0 if all(verdicts.values()) else 3)
        failed = sorted(n for n, ok in verdicts.items() if not ok and n not in EXPECTED_FAIL)
        if failed:
            raise Bad(f"criteria {failed} failed")
        return len(verdicts)

    argv = ("validate", "--only", ",".join(map(str, numbers))) if tiny else ("validate",)
    return [Command(argv, check)]


WORKLOADS = {
    "curves": curves,
    "three_photon_map": three_photon_map,
    "lattice_oracles": lattice_oracles,
    "validate": validate,
}
