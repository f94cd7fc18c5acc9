"""Command-line front end: plot-ready curves, reports, and validation.

Every subcommand emits either a CSV table (header row with units, decimal
precision 12, LF endings) or a single JSON object with snake_case keys.
Outputs are deterministic: identical inputs give byte-identical files.

The parser is built from one table of subcommands and their flags,
``_COMMANDS``; required flags and allowed values are checked after
``--config`` is applied, so a config file may supply but not bypass them.

Exit codes: 0 success, 2 configuration error, 3 numerical-tolerance
failure (any ``RuntimeError``, which includes ARPACK non-convergence in
the lattice bound-state solve).  Errors are reported as a single-line JSON
record on stderr.

The lattice oracle and the acceptance suite, the only users of scipy, are
imported by their subcommands alone, so the analytic subcommands start
without loading it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import hwg, tcra, twg
from .core import HWGParams, TCRAParams, TWGParams

__all__ = ["main"]

_PAIR_LABELS = {"11": (1, 1), "12": (1, 2), "22": (2, 2)}


class _CliError(Exception):
    """Configuration-level failure (bad flag, key, grid, or parameter)."""


class _Parser(argparse.ArgumentParser):
    # argparse would print usage and exit on its own; route through the
    # JSON error record instead
    def error(self, message):
        raise _CliError(message)


# ---------------------------------------------------------------------------
# config and grid plumbing


def _apply_config(args) -> None:
    """Overlay a key=value config file onto parsed flags (file wins)."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _CliError(f"cannot read config file: {exc}") from exc
    coerce = {flag[2:]: kind or str for flag, kind, _, _ in args._flags}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise _CliError(f"config line {lineno}: expected key=value, got {raw.strip()!r}")
        dest = key.strip().replace("-", "_")
        if dest == "config" or dest not in coerce:
            raise _CliError(f"config line {lineno}: unknown key {key.strip()!r}")
        try:
            setattr(args, dest, coerce[dest](value.strip()))
        except (TypeError, ValueError) as exc:
            raise _CliError(f"config line {lineno}: bad value for {key.strip()!r}: {exc}") from exc


def _parse_grid(spec: str, expected: str):
    parts = spec.split(":")
    if len(parts) != 4:
        raise _CliError(f"grid must be var:start:stop:points, got {spec!r}")
    var, start_s, stop_s, points_s = parts
    if var != expected:
        raise _CliError(f"grid variable must be {expected!r} for this subcommand, got {var!r}")
    try:
        start, stop, points = float(start_s), float(stop_s), int(points_s)
    except ValueError as exc:
        raise _CliError(f"bad grid {spec!r}: {exc}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise _CliError("grid endpoints must be finite")
    if points < 2:
        raise _CliError("grid needs at least 2 points")
    return np.linspace(start, stop, points)


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise _CliError(f"missing required parameter: --{name}")


# ---------------------------------------------------------------------------
# output plumbing


def _write_text(path, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(f"cannot write output file: {exc}") from exc


def _jsonify(value):
    """JSON-safe copy: numpy scalars/arrays unwrapped, non-finite -> null."""
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)) or isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value]
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": _jsonify(value.real), "im": _jsonify(value.imag)}
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    return value


def _emit_json(args, obj) -> int:
    _write_text(args.out, json.dumps(_jsonify(obj), indent=2, allow_nan=False) + "\n")
    return 0


def _emit_table(args, columns) -> int:
    """columns: list of (csv_label, json_key, 1d array)."""
    arrays = [np.asarray(col[2], dtype=float) for col in columns]
    if args.format == "json":
        return _emit_json(args, {col[1]: arr for (col, arr) in zip(columns, arrays)})
    p = args.precision
    lines = [",".join(col[0] for col in columns)]
    for row in zip(*arrays):
        lines.append(",".join(f"{v:.{p}g}" for v in row))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _error_record(kind: str, message) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": str(message)}) + "\n")


# ---------------------------------------------------------------------------
# parameter builders


def _tcra_params(args) -> TCRAParams:
    return TCRAParams(
        omega_atom=args.omega,
        omega_cavity=args.omega0,
        hopping=args.J,
        coupling=args.V,
    )


def _twg_params(args) -> TWGParams:
    return TWGParams(omega_atom=args.omega, gamma_t=args.gamma)


def _hwg_params(args) -> HWGParams:
    velocities = (getattr(args, "v1", 1.0), getattr(args, "v2", 1.0))
    return HWGParams(
        omega_atom=args.omega, vbar=(args.vbar1, args.vbar2), group_velocity=velocities
    )


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_t_reflect(args) -> int:
    params = _tcra_params(args)
    k = _parse_grid(args.grid, "k")
    r = tcra.reflection_amplitude(params, k)
    return _emit_table(
        args,
        [
            ("k[rad]", "k", k),
            ("re_r[1]", "re_r", r.real),
            ("im_r[1]", "im_r", r.imag),
            ("|r|^2[1]", "r_sq", np.abs(r) ** 2),
            ("|1+r|^2[1]", "transmission", np.abs(1.0 + r) ** 2),
        ],
    )


def _cmd_bound_states(args) -> int:
    lower, upper = tcra.bound_state_energies(_tcra_params(args))
    return _emit_json(
        args,
        {
            "lower": lower.energy,
            "upper": upper.energy,
            "kappa_lower": lower.kappa,
            "kappa_upper": upper.kappa,
        },
    )


def _cmd_bound_wavefunction(args) -> int:
    lower, upper = tcra.bound_state_energies(_tcra_params(args))
    state = lower if args.branch == "lower" else upper
    x = _parse_grid(args.grid, "x")
    if np.any(x != np.round(x)):
        raise _CliError("bound-wavefunction grid must land on integer sites")
    psi = tcra.bound_state_wavefunction(state, x.astype(int))
    return _emit_table(
        args, [("x[site]", "x", x), ("amplitude[1]", "amplitude", psi)]
    )


def _cmd_wg_transmit(args) -> int:
    params = _twg_params(args)
    k = _parse_grid(args.grid, "k")
    t = twg.transmission_amplitude(params, k)
    return _emit_table(
        args,
        [
            ("k[Omega]", "k", k),
            ("re_t[1]", "re_t", t.real),
            ("im_t[1]", "im_t", t.imag),
            ("phase[rad]", "phase", np.angle(t)),
        ],
    )


def _cmd_two_photon_wf(args) -> int:
    params = _twg_params(args)
    x = _parse_grid(args.grid, "x")
    psi = twg.two_photon_out_wavefunction(params, args.k1, args.k2, args.xc, x)
    return _emit_table(
        args,
        [
            ("x[1/Omega]", "x", x),
            ("re_psi[1]", "re_psi", psi.real),
            ("im_psi[1]", "im_psi", psi.imag),
            ("|psi|^2[1]", "psi_sq", np.abs(psi) ** 2),
        ],
    )


def _cmd_fluorescence2(args) -> int:
    params = _twg_params(args)
    p1 = _parse_grid(args.grid, "p1")
    val = twg.two_photon_fluorescence(params, args.k1, args.k2, p1)
    return _emit_table(
        args,
        [
            ("p1[Omega]", "p1", p1),
            ("p2[Omega]", "p2", args.k1 + args.k2 - p1),
            ("|T2|^2[1]", "t2_sq", val),
        ],
    )


def _cmd_fluorescence3(args) -> int:
    params = _twg_params(args)
    k = (args.k1, args.k2, args.k3)
    e = sum(k)
    p3 = e / 3.0 if args.p3 is None else args.p3
    p1 = _parse_grid(args.grid, "p1")
    p2 = e - p3 - p1
    val = twg.three_photon_fluorescence(params, k, p1, p2)
    return _emit_table(
        args,
        [
            ("p1[Omega]", "p1", p1),
            ("p2[Omega]", "p2", p2),
            ("|T3|^2[1]", "t3_sq", val),
        ],
    )


def _cmd_three_photon_wf(args) -> int:
    params = _twg_params(args)
    k = (args.k1, args.k2, args.k3)
    grid = _parse_grid(args.grid, "x")
    x1 = np.repeat(grid, grid.size)
    x2 = np.tile(grid, grid.size)
    psi = twg.three_photon_out_wavefunction(params, k, (x1, x2, args.x3))
    return _emit_table(
        args,
        [
            ("x1[1/Omega]", "x1", x1),
            ("x2[1/Omega]", "x2", x2),
            ("re_psi[1]", "re_psi", psi.real),
            ("im_psi[1]", "im_psi", psi.imag),
            ("|psi|^2[1]", "psi_sq", np.abs(psi) ** 2),
        ],
    )


def _cmd_h_single(args) -> int:
    params = _hwg_params(args)
    k = _parse_grid(args.grid, "k")
    c = hwg.channel_amplitudes(params, k)
    return _emit_table(
        args,
        [
            ("k[Omega]", "k", k),
            ("|t11|^2[1]", "t11_sq", np.abs(c.t11) ** 2),
            ("|t21|^2[1]", "t21_sq", np.abs(c.t21) ** 2),
            ("|t22|^2[1]", "t22_sq", np.abs(c.t22) ** 2),
        ],
    )


def _cmd_h_two_photon(args) -> int:
    params = _hwg_params(args)
    table = hwg.two_photon_s_h(params, args.k1, args.k2)
    channels = {}
    for pair, amp_set in table.items():
        channels[f"{pair[0]}{pair[1]}"] = {
            "disconnected": [
                {"pinned": list(term.pinned), "weight": term.weight}
                for term in amp_set.disconnected
            ],
            "connected_at_incident": amp_set.connected(args.k1, args.k2),
        }
    return _emit_json(
        args, {"total_energy": args.k1 + args.k2, "channels": channels}
    )


def _cmd_correlation(args) -> int:
    params = _hwg_params(args)
    pair = _PAIR_LABELS[args.pair]
    k1 = 0.5 * args.E + args.dk
    k2 = 0.5 * args.E - args.dk
    x = _parse_grid(args.grid, "x")
    val = hwg.second_order_correlation(params, pair, k1, k2, x)
    return _emit_table(
        args,
        [
            ("x[1/Omega]", "x", x),
            (f"|g{args.pair}|^2[1]", f"g{args.pair}_sq", val),
        ],
    )


def _cmd_oracle_bound(args) -> int:
    from . import lattice_oracle

    model = lattice_oracle.LatticeModel(params=_tcra_params(args), size=args.L)
    report = lattice_oracle.bound_state_check(model)
    return _emit_json(args, dataclasses.asdict(report))


def _cmd_oracle_scatter(args) -> int:
    from . import lattice_oracle

    # a requirement the table cannot state: it depends on --kind
    if args.kind == "t":
        _require(args, "omega0")
        params = _tcra_params(args)
    else:
        _require(args, "vbar1", "vbar2")
        params = _hwg_params(args)
    model = lattice_oracle.LatticeModel(params=params, size=args.L)
    result = lattice_oracle.wavepacket_scatter(
        model, args.carrier, args.width, duration=args.duration
    )
    return _emit_json(args, dataclasses.asdict(result))


def _cmd_oracle_pair(args) -> int:
    from . import lattice_oracle

    model = lattice_oracle.LatticeModel(params=_tcra_params(args), size=args.L)
    report = lattice_oracle.two_excitation_check(
        model,
        args.k1,
        args.k2,
        duration=args.duration,
        width=args.width,
        separation=args.separation,
        window=args.window,
    )
    return _emit_json(args, dataclasses.asdict(report))


def _cmd_validate(args) -> int:
    from . import validation

    numbers = None
    if args.only:
        try:
            numbers = [int(part) for part in args.only.split(",") if part.strip()]
        except ValueError as exc:
            raise _CliError(f"bad --only list: {exc}") from exc
    try:
        results = validation.run(numbers)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    _write_text(args.out, validation.format_report(results) + "\n")
    return 0 if all(r.passed for r in results) else 3


# ---------------------------------------------------------------------------
# the command table
#
# A flag row is (flag, type, default, help).  The dest is the flag without
# its dashes; the type also coerces config values (None keeps the text); a
# _REQUIRED default marks a required flag, and a tuple default lists the
# allowed values, the first of them being the default.

_REQUIRED = object()

_COMMON = (
    ("--config", None, None, "key=value file overriding the flags"),
    ("--out", None, "-", "output path (default stdout)"),
)
_CSV = (
    ("--precision", int, 12, "CSV significant digits"),
    ("--format", None, ("csv", "json"), "output format: csv or json"),
)

_OMEGA = ("--omega", float, _REQUIRED, "atom transition frequency")
_HOPPING = (
    ("--J", float, 1.0, "inter-cavity hopping"),
    ("--V", float, 1.0, "atom-cavity coupling"),
)
_T_TYPE = (_OMEGA, ("--omega0", float, _REQUIRED, "cavity frequency"), *_HOPPING)
_WAVEGUIDE = (
    ("--omega", float, 1.0, "atom frequency"),
    ("--gamma", float, 1.0, "decay rate"),
)
_H_TYPE = (
    ("--omega", float, 1.0, "atom frequency"),
    ("--vbar1", float, _REQUIRED, "guide-1 even-channel coupling"),
    ("--vbar2", float, _REQUIRED, "guide-2 even-channel coupling"),
)
_K12 = (
    ("--k1", float, _REQUIRED, "incident momentum 1"),
    ("--k2", float, _REQUIRED, "incident momentum 2"),
)
_K123 = (*_K12, ("--k3", float, _REQUIRED, "incident momentum 3"))
_DURATION = ("--duration", float, None, "evolution time (default auto)")


def _grid(help_text: str):
    return ("--grid", None, _REQUIRED, help_text)


# (path, help, handler, output format, flags); a row without a handler
# opens a group of subcommands.  A csv command also takes the _CSV flags,
# and every command takes the _COMMON flags.
_COMMANDS = (
    (("t-reflect",), "reflection amplitude curve", _cmd_t_reflect, "csv",
     (*_T_TYPE, _grid("k:start:stop:points"))),
    (("bound-states",), "bound-state energies", _cmd_bound_states, "json", _T_TYPE),
    (("bound-wavefunction",), "bound-state site amplitudes", _cmd_bound_wavefunction, "csv",
     (*_T_TYPE, ("--branch", None, ("lower", "upper"), None),
      _grid("x:start:stop:points (integer sites)"))),
    (("wg-transmit",), "transmission amplitude curve", _cmd_wg_transmit, "csv",
     (*_WAVEGUIDE, _grid("k:start:stop:points"))),
    (("two-photon-wf",), "two-photon out-state wavefunction", _cmd_two_photon_wf, "csv",
     (*_WAVEGUIDE, *_K12, ("--xc", float, 0.0, "center of mass coordinate"),
      _grid("x:start:stop:points (relative coordinate)"))),
    (("fluorescence2",), "two-photon background fluorescence", _cmd_fluorescence2, "csv",
     (*_WAVEGUIDE, *_K12, _grid("p1:start:stop:points"))),
    (("fluorescence3",), "three-photon background fluorescence slice", _cmd_fluorescence3,
     "csv",
     (*_WAVEGUIDE, *_K123, ("--p3", float, None, "fixed outgoing momentum (default E/3)"),
      _grid("p1:start:stop:points"))),
    (("three-photon-wf",), "three-photon out-state on an x3 plane", _cmd_three_photon_wf,
     "csv",
     (*_WAVEGUIDE, *_K123, ("--x3", float, 0.0, "fixed third coordinate"),
      _grid("x:start:stop:points (applied to x1 and x2)"))),
    (("h-single",), "two-channel amplitude curves", _cmd_h_single, "csv",
     (*_H_TYPE, _grid("k:start:stop:points"))),
    (("h-two-photon",), "two-photon S-matrix element table", _cmd_h_two_photon, "json",
     (*_H_TYPE, ("--k1", float, _REQUIRED, "incident momentum in waveguide 1"),
      ("--k2", float, _REQUIRED, "incident momentum in waveguide 2"))),
    (("correlation",), "second-order correlation |g_ij|^2", _cmd_correlation, "csv",
     (*_H_TYPE, ("--pair", None, tuple(_PAIR_LABELS), "detection channels: 11, 12 or 22"),
      ("--E", float, _REQUIRED, "total pair energy"),
      ("--dk", float, 0.0, "half momentum difference"),
      _grid("x:start:stop:points (relative coordinate)"))),
    (("oracle",), "finite-lattice validators", None, None, ()),
    (("oracle", "bound"), "bound states vs exact diagonalization", _cmd_oracle_bound, "json",
     (*_T_TYPE, ("--L", int, 601, "lattice size (odd)"))),
    (("oracle", "scatter"), "single-photon wavepacket run", _cmd_oracle_scatter, "json",
     (("--kind", None, ("t", "h"), "lattice family"), _OMEGA,
      ("--omega0", float, None, "cavity frequency (kind t)"), *_HOPPING,
      ("--vbar1", float, None, "guide-1 coupling (kind h)"),
      ("--vbar2", float, None, "guide-2 coupling (kind h)"),
      ("--v1", float, 1.0, "guide-1 velocity (kind h)"),
      ("--v2", float, 1.0, "guide-2 velocity (kind h)"),
      ("--carrier", float, _REQUIRED, "carrier momentum in (0, pi)"),
      ("--width", float, 40.0, "packet width (sites)"), _DURATION,
      ("--L", int, 801, "lattice size (odd)"))),
    (("oracle", "pair"), "two-excitation bunching run", _cmd_oracle_pair, "json",
     (*_T_TYPE, ("--k1", float, _REQUIRED, "carrier momentum of packet 1"),
      ("--k2", float, _REQUIRED, "carrier momentum of packet 2"),
      ("--width", float, 10.0, "packet width (sites)"),
      ("--separation", float, None, "packet separation (default 2.5 width)"),
      ("--window", int, 9, "coincidence window (sites)"), _DURATION,
      ("--L", int, 281, "lattice size (odd)"))),
    (("validate",), "run the acceptance suite", _cmd_validate, "text",
     (("--only", None, None, "comma-separated criterion numbers (default all)"),)),
)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="photon-scatter",
        description="Photon scattering on coupled-resonator arrays: "
        "S-matrix curves, bound states, correlations, lattice oracles.",
    )
    subs = {(): parser.add_subparsers(dest="command", required=True, parser_class=_Parser)}
    for path, help_text, handler, fmt, flags in _COMMANDS:
        p = subs[path[:-1]].add_parser(path[-1], help=help_text)
        if handler is None:
            subs[path] = p.add_subparsers(dest="mode", required=True, parser_class=_Parser)
            continue
        flags = (*flags, *_COMMON, *(_CSV if fmt == "csv" else ()))
        for flag, kind, default, flag_help in flags:
            if default is _REQUIRED:
                default = None
            elif isinstance(default, tuple):
                default = default[0]
            p.add_argument(flag, type=kind, default=default, help=flag_help)
        p.set_defaults(_handler=handler, _flags=flags)
    return parser


def _check_flags(args) -> None:
    """Enforce the table's required flags and allowed values."""
    for flag, _, default, _ in args._flags:
        value = getattr(args, flag[2:])
        if default is _REQUIRED:
            _require(args, flag[2:])
        elif isinstance(default, tuple) and value not in default:
            raise _CliError(f"{flag} must be one of {', '.join(default)}, got {value!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args)
        _check_flags(args)
        return args._handler(args)
    except (_CliError, ValueError, TypeError) as exc:
        _error_record("config", exc)
        return 2
    except RuntimeError as exc:
        _error_record("numerical-tolerance", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
