"""CLI contract: output formats, exit codes, config precedence, determinism."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import photon_scatter
from photon_scatter import cli, lattice_oracle, tcra
from photon_scatter.cli import main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(text):
    lines = text.strip().split("\n")
    return lines[0].split(","), [
        [float(cell) for cell in line.split(",")] for line in lines[1:]
    ]


def test_bound_states_json_contract(capsys):
    code, out, err = _run(
        capsys,
        ["bound-states", "--omega", "3.1415926536", "--omega0", "3.1415926536",
         "--J", "1", "--V", "1"],
    )
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert sorted(obj) == ["kappa_lower", "kappa_upper", "lower", "upper"]
    assert obj["upper"] - 3.1415926536 == pytest.approx(2.058171027, abs=1e-9)
    assert obj["lower"] - 3.1415926536 == pytest.approx(-2.058171027, abs=1e-9)
    assert 0.0 < obj["kappa_lower"] < 1.0
    assert obj["kappa_upper"] == pytest.approx(obj["kappa_lower"], abs=1e-12)


def test_bound_states_at_hopping_far_below_the_coupling(capsys):
    # J = 1e-160, V = 1: finite energies -+1, not nulls
    argv = ["bound-states", "--omega", "0", "--omega0", "0", "--V", "1"]
    for hopping in ("1e-150", "1e-160"):
        code, out, err = _run(capsys, [*argv, "--J", hopping])
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert (obj["lower"], obj["upper"]) == (-1.0, 1.0)
        assert 0.0 < obj["kappa_lower"] < 1e-149
    # past the float range of the decay: a configuration error
    code, _, err = _run(capsys, [*argv, "--J", "1e-320"])
    assert code == 2 and json.loads(err)["error"] == "config"


def test_h_single_resonance_dip(capsys):
    code, out, _ = _run(
        capsys, ["h-single", "--vbar1", "2", "--vbar2", "2", "--grid", "k:0:2:401"]
    )
    assert code == 0
    header, rows = _rows(out)
    assert header == ["k[Omega]", "|t11|^2[1]", "|t21|^2[1]", "|t22|^2[1]"]
    assert len(rows) == 401
    mid = rows[200]
    assert mid[0] == 1.0
    assert mid[1] == 0.0 and mid[3] == 0.0
    assert mid[2] == 1.0
    for row in rows[::40]:
        assert row[1] + row[2] == pytest.approx(1.0, abs=1e-10)


def test_correlation_bunching_peak(capsys):
    code, out, _ = _run(
        capsys,
        ["correlation", "--pair", "11", "--vbar1", "2", "--vbar2", "2",
         "--E", "2", "--dk", "0", "--grid", "x:-10:10:801"],
    )
    assert code == 0
    header, rows = _rows(out)
    assert header == ["x[1/Omega]", "|g11|^2[1]"]
    vals = np.array([r[1] for r in rows])
    assert np.argmax(vals) == 400
    assert vals[400] > 10.0 * vals[0]


def test_t_reflect_unitarity_columns(capsys):
    code, out, _ = _run(
        capsys,
        ["t-reflect", "--omega", "0.3", "--omega0", "0.0", "--grid", "k:0.2:2.9:25"],
    )
    assert code == 0
    header, rows = _rows(out)
    assert header[0] == "k[rad]" and header[-1] == "|1+r|^2[1]"
    for row in rows:
        assert row[3] + row[4] == pytest.approx(1.0, abs=1e-10)


def test_wg_transmit_resonance_value(capsys):
    code, out, _ = _run(
        capsys,
        ["wg-transmit", "--omega", "1", "--gamma", "0.7", "--grid", "k:0:2:5"],
    )
    assert code == 0
    _, rows = _rows(out)
    assert rows[2][0] == 1.0
    assert rows[2][1] == -1.0 and rows[2][2] == 0.0


def test_bound_wavefunction_upper_alternates(capsys):
    code, out, _ = _run(
        capsys,
        ["bound-wavefunction", "--omega", "0", "--omega0", "0", "--branch", "upper",
         "--grid", "x:-6:6:13"],
    )
    assert code == 0
    header, rows = _rows(out)
    assert header == ["x[site]", "amplitude[1]"]
    amps = [r[1] for r in rows]
    for left, right in zip(amps, amps[1:]):
        assert left * right < 0.0
    assert amps[3] == pytest.approx(amps[9], abs=1e-15)


def test_bound_wavefunction_vanishes_beyond_int64_sites(capsys):
    code, out, _ = _run(
        capsys,
        ["bound-wavefunction", "--omega", "0", "--omega0", "0",
         "--grid", "x:-1e19:1e19:3"],
    )
    assert code == 0
    _, rows = _rows(out)
    assert [r[1] for r in rows[::2]] == [0.0, 0.0]
    assert rows[1][1] > 0.0


def test_two_photon_wf_even_in_relative_coordinate(capsys):
    code, out, _ = _run(
        capsys,
        ["two-photon-wf", "--omega", "0.2", "--gamma", "0.3", "--k1", "0.13",
         "--k2", "0.31", "--xc", "0.45", "--grid", "x:-4:4:9"],
    )
    assert code == 0
    _, rows = _rows(out)
    for row, mirror in zip(rows, rows[::-1]):
        assert row[1] == pytest.approx(mirror[1], abs=1e-12)
        assert row[2] == pytest.approx(mirror[2], abs=1e-12)


def test_two_photon_wf_at_a_linewidth_of_1e_200(capsys):
    # gamma_t^2 and (k1 - alpha)(k2 - alpha) both underflow here; the bound
    # term is their ratio, -4 / (2 pi) on resonance, not 0 / 0
    code, out, err = _run(
        capsys,
        ["two-photon-wf", "--omega", "0", "--gamma", "1e-200", "--k1", "0",
         "--k2", "0", "--xc", "0", "--grid", "x:-1:1:3"],
    )
    assert code == 0 and err == ""
    _, rows = _rows(out)
    assert [row[1:] for row in rows] == [[-0.477464829276, 0.0, 0.227972663195]] * 3


def test_three_photon_wf_at_a_linewidth_of_1e_200(capsys):
    # the connected tier formed inf * 0 here and printed nan rows with exit 0;
    # at zero momenta every row reads the 1e-100 value, |psi|^2 = 0.1008
    code, out, err = _run(
        capsys,
        ["three-photon-wf", "--omega", "0", "--gamma", "1e-200", "--k1", "0", "--k2", "0",
         "--k3", "0", "--x3", "0", "--grid", "x:-1:1:2"],
    )
    assert code == 0 and err == ""
    _, rows = _rows(out)
    assert [row[2:] for row in rows] == [[-0.317468179671, 0.0, 0.100786045104]] * 4


def test_fluorescence2_shell_column(capsys):
    code, out, _ = _run(
        capsys,
        ["fluorescence2", "--k1", "1.2", "--k2", "0.8", "--grid", "p1:0.5:1.5:5"],
    )
    assert code == 0
    header, rows = _rows(out)
    assert header == ["p1[Omega]", "p2[Omega]", "|T2|^2[1]"]
    for row in rows:
        assert row[0] + row[1] == pytest.approx(2.0, abs=1e-12)
        assert row[2] >= 0.0


def test_fluorescence3_default_slice(capsys):
    code, out, _ = _run(
        capsys,
        ["fluorescence3", "--k1", "1", "--k2", "1", "--k3", "1",
         "--grid", "p1:1.05:1.45:3"],
    )
    assert code == 0
    _, rows = _rows(out)
    # p3 defaults to E/3 = 1, so p1 + p2 = 2 on every row
    for row in rows:
        assert row[0] + row[1] == pytest.approx(2.0, abs=1e-12)
        assert row[2] > 0.0


def test_three_photon_wf_plane(capsys):
    code, out, _ = _run(
        capsys,
        ["three-photon-wf", "--k1", "1", "--k2", "1", "--k3", "1", "--grid", "x:0:1:2"],
    )
    assert code == 0
    header, rows = _rows(out)
    assert header[:2] == ["x1[1/Omega]", "x2[1/Omega]"]
    assert len(rows) == 4
    assert [r[:2] for r in rows] == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert all(r[4] > 0.0 for r in rows)


def test_h_two_photon_table_structure(capsys):
    code, out, _ = _run(
        capsys,
        ["h-two-photon", "--vbar1", "1", "--vbar2", "2", "--k1", "1.1", "--k2", "0.9"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["total_energy"] == pytest.approx(2.0)
    assert sorted(obj["channels"]) == ["11", "12", "22"]
    for table in obj["channels"].values():
        assert len(table["disconnected"]) == 2
        for term in table["disconnected"]:
            assert sorted(term["pinned"]) == [0.9, 1.1]
            assert set(term["weight"]) == {"re", "im"}
        assert set(table["connected_at_incident"]) == {"re", "im"}
    direct, exchange = obj["channels"]["12"]["disconnected"]
    assert direct["weight"] != exchange["weight"]


def test_fluorescence2_at_a_vanishing_linewidth(capsys):
    # the resonant pole product underflows at gamma 1e-100; the row at
    # p1 = Omega must still read |T2|^2 = (16 / pi gamma)^2, with no warning
    argv = ["fluorescence2", "--omega", "1", "--gamma", "1e-100", "--k1", "1", "--k2", "1",
            "--grid", "p1:0:2:3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    _, rows = _rows(out)
    assert np.isfinite(rows).all()
    assert rows[1][2] == pytest.approx((16.0 / (np.pi * 1e-100)) ** 2, rel=1e-11)


def test_csv_file_output_deterministic(tmp_path, capsys):
    paths = [tmp_path / name for name in ("a.csv", "b.csv")]
    for path in paths:
        code, _, _ = _run(
            capsys,
            ["t-reflect", "--omega", "0.3", "--omega0", "0", "--grid",
             "k:0.2:3:50", "--out", str(path)],
        )
        assert code == 0
    blobs = [path.read_bytes() for path in paths]
    assert blobs[0] == blobs[1]
    assert b"\r" not in blobs[0]
    assert blobs[0].endswith(b"\n")


def test_json_table_format(capsys):
    code, out, _ = _run(
        capsys,
        ["h-single", "--vbar1", "1", "--vbar2", "2", "--grid", "k:1:1.5:3",
         "--format", "json"],
    )
    assert code == 0
    obj = json.loads(out)
    assert sorted(obj) == ["k", "t11_sq", "t21_sq", "t22_sq"]
    assert obj["t11_sq"][0] == pytest.approx(9.0 / 25.0, abs=1e-12)
    assert all(len(v) == 3 for v in obj.values())


def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nomega = 2.0\ngamma = 0.5\n")
    code, out, _ = _run(
        capsys,
        ["wg-transmit", "--omega", "1", "--gamma", "1", "--grid", "k:2:2.5:2",
         "--config", str(cfg)],
    )
    assert code == 0
    _, rows = _rows(out)
    # resonance moved to the config value, not the flag value
    assert rows[0][0] == 2.0 and rows[0][1] == -1.0


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omgea = 2.0\n")
    code, _, err = _run(capsys, ["wg-transmit", "--grid", "k:0:1:2", "--config", str(cfg)])
    assert code == 2
    record = json.loads(err)
    assert record["error"] == "config"
    assert "omgea" in record["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["bound-states", "--omega", "1"],
        ["t-reflect", "--omega", "0", "--omega0", "0"],
        ["wg-transmit", "--grid", "q:0:1:5"],
        ["wg-transmit", "--grid", "k:0:1:1"],
        ["wg-transmit", "--grid", "k:0:1"],
        ["no-such-command"],
        ["bound-wavefunction", "--omega", "0", "--omega0", "0", "--grid", "x:0:1.5:4"],
        ["correlation", "--pair", "31", "--vbar1", "1", "--vbar2", "1",
         "--E", "2", "--grid", "x:0:1:5"],
        ["oracle", "scatter", "--kind", "t", "--omega", "0", "--omega0", "0",
         "--carrier", "0.01"],
        # the lattices are open chains; there is no boundary flag
        ["oracle", "bound", "--omega", "0", "--omega0", "0", "--boundary", "open"],
        # a run needs a positive duration
        ["oracle", "scatter", "--omega", "0", "--omega0", "0", "--carrier", "1.0472",
         "--duration", "0"],
        ["oracle", "scatter", "--omega", "0", "--omega0", "0", "--carrier", "1.0472",
         "--duration", "-5"],
        ["oracle", "pair", "--omega", "0", "--omega0", "0", "--k1", "1.5708",
         "--k2", "1.5708", "--duration", "0"],
        ["oracle", "pair", "--omega", "0", "--omega0", "0", "--k1", "1.5708",
         "--k2", "1.5708", "--duration", "-5"],
        ["oracle", "scatter", "--omega", "0", "--omega0", "0", "--carrier", "1.0472",
         "--duration", "inf"],
        # an output path in a directory that does not exist ({tmp} is tmp_path)
        ["bound-states", "--omega", "0", "--omega0", "0", "--out", "{tmp}/missing/x.json"],
        # --precision and --format belong to the CSV subcommands only
        ["bound-states", "--omega", "0", "--omega0", "0", "--precision", "3"],
        ["wg-transmit", "--grid", "k:0:1:2", "--format", "xml"],
        # numeric flags must be finite
        ["t-reflect", "--omega", "nan", "--omega0", "0", "--V", "1",
         "--grid", "k:0.2:2.9:3"],
        ["wg-transmit", "--omega", "1", "--gamma", "inf", "--grid", "k:-3:5:3"],
        ["three-photon-wf", "--omega", "1", "--gamma", "1", "--k1", "nan", "--k2", "1",
         "--k3", "1", "--x3", "0", "--grid", "x:-1:1:2"],
        ["bound-states", "--omega", "inf", "--omega0", "0", "--V", "1"],
        ["oracle", "bound", "--omega", "nan", "--omega0", "0", "--V", "1", "--L", "201"],
        ["oracle", "scatter", "--kind", "t", "--omega", "0", "--omega0", "0", "--V", "inf",
         "--carrier", "1.2", "--L", "801"],
        # a coincidence window counts sites, so it cannot be negative
        ["oracle", "pair", "--omega", "0", "--omega0", "0", "--k1", "1.5708",
         "--k2", "1.5708", "--L", "281", "--window", "-1"],
        # both waveguides have unit velocity; there is no velocity flag
        ["oracle", "scatter", "--kind", "h", "--omega", "1", "--vbar1", "1", "--vbar2", "1",
         "--carrier", "1.5708", "--v1", "1"],
        # a selection of no criteria is not a passing suite
        ["validate", "--only", ","],
        # a flag of the other lattice family would change nothing
        ["oracle", "scatter", "--kind", "h", "--omega", "1", "--vbar1", "1", "--vbar2", "1",
         "--carrier", "1.5708", "--omega0", "7"],
        ["oracle", "scatter", "--kind", "h", "--omega", "1", "--vbar1", "1", "--vbar2", "1",
         "--carrier", "1.5708", "--J", "5"],
        ["oracle", "scatter", "--kind", "h", "--omega", "1", "--vbar1", "1", "--vbar2", "1",
         "--carrier", "1.5708", "--V", "3"],
        ["oracle", "scatter", "--kind", "t", "--omega", "0", "--omega0", "0",
         "--carrier", "1.0472", "--vbar1", "1"],
        ["oracle", "scatter", "--kind", "t", "--omega", "0", "--omega0", "0",
         "--carrier", "1.0472", "--vbar2", "1"],
        # packets are placed left to right, so a separation cannot be negative
        ["oracle", "pair", "--omega", "0", "--omega0", "0", "--k1", "1.5708",
         "--k2", "1.5708", "--separation", "-1000"],
        # a linewidth for which 2 / gamma overflows leaves the resonant pole
        # with no finite reciprocal
        ["three-photon-wf", "--omega", "0", "--gamma", "5e-324", "--k1", "0", "--k2", "0",
         "--k3", "0", "--x3", "0", "--grid", "x:-1:1:2"],
        ["three-photon-wf", "--omega", "0", "--gamma", "1e-323", "--k1", "0", "--k2", "0",
         "--k3", "0", "--x3", "0", "--grid", "x:-1:1:2"],
        ["two-photon-wf", "--gamma", "5e-324", "--k1", "1", "--k2", "1", "--grid", "x:-1:1:2"],
        ["wg-transmit", "--gamma", "5e-324", "--grid", "k:-1:1:3"],
        ["wg-transmit", "--omega", "0", "--gamma", "1e-308", "--grid", "k:-1:1:3"],
        # and so would a gamma_e = vbar1^2 + vbar2^2 of 0 or just above
        ["h-single", "--vbar1", "1e-170", "--vbar2", "0", "--grid", "k:0:2:3"],
        ["h-single", "--omega", "0", "--vbar1", "1e-158", "--vbar2", "0", "--grid", "k:-1:1:3"],
        ["h-two-photon", "--vbar1", "1e-170", "--vbar2", "1e-170", "--k1", "1", "--k2", "1"],
        # or one that overflows to infinity
        ["h-single", "--vbar1", "1e155", "--vbar2", "0", "--grid", "k:0:2:3"],
        ["h-two-photon", "--vbar1", "1e155", "--vbar2", "1", "--k1", "1", "--k2", "1"],
    ],
)
def test_config_errors_exit_2_with_json_record(capsys, tmp_path, argv):
    argv = [part.replace("{tmp}", str(tmp_path)) for part in argv]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "config"
    assert "\n" not in err.strip()


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["wg-transmit", "--grid", "k:0:1:2", "--config", "{tmp}/missing.cfg"], None,
         "cannot read config file"),
        (["wg-transmit", "--grid", "k:0:1:2", "--config", "{tmp}/run.cfg"], "omega 2.0\n",
         "expected key=value"),
        (["wg-transmit", "--grid", "k:0:1:x"], None, "bad grid"),
        (["wg-transmit", "--grid", "k:0:inf:3"], None, "grid endpoints must be finite"),
        (["validate", "--only", "1,x"], None, "bad --only list"),
    ],
    ids=["unreadable-config", "config-line-without-equals", "grid-points", "grid-endpoint",
         "only-list"],
)
def test_unreadable_or_malformed_input_exits_2(capsys, tmp_path, argv, config, message):
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
    argv = [part.replace("{tmp}", str(tmp_path)) for part in argv]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["error"] == "config"
    assert message in record["message"]


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("via_config", [False, True])
def test_precision_below_one_exits_2(tmp_path, capsys, value, via_config):
    argv = ["wg-transmit", "--grid", "k:0:1:3"]
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"precision = {value}\n")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--precision", value]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["error"] == "config"
    assert "--precision" in record["message"]


@pytest.mark.parametrize(
    "kind_args, line",
    [
        (["--kind", "h", "--omega", "1", "--vbar1", "1", "--vbar2", "1"], "omega0 = 7"),
        (["--kind", "h", "--omega", "1", "--vbar1", "1", "--vbar2", "1"], "J = 1"),
        (["--kind", "h", "--omega", "1", "--vbar1", "1", "--vbar2", "1"], "V = 1"),
        (["--kind", "t", "--omega", "0", "--omega0", "0"], "vbar1 = 1"),
        (["--kind", "t", "--omega", "0", "--omega0", "0"], "vbar2 = 1"),
    ],
)
def test_scatter_flag_of_the_other_kind_exits_2(tmp_path, capsys, kind_args, line):
    key = line.split(" = ")[0]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    argv = ["oracle", "scatter", *kind_args, "--carrier", "1.5708"]
    for extra in (["--config", str(cfg)], [f"--{key}", line.split(" = ")[1]]):
        code, out, err = _run(capsys, argv + extra)
        assert code == 2 and out == ""
        record = json.loads(err)
        assert record["error"] == "config"
        assert f"--{key}" in record["message"]


def test_config_supplies_required_flags_and_grid(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega = 0.3\nomega0 = 0\ngrid = k:0.2:2.9:25\n")
    code, from_config, err = _run(capsys, ["t-reflect", "--config", str(cfg)])
    assert code == 0 and err == ""
    flags = ["t-reflect", "--omega", "0.3", "--omega0", "0", "--grid", "k:0.2:2.9:25"]
    assert _run(capsys, flags) == (0, from_config, "")


@pytest.mark.parametrize(
    "argv, line",
    [
        (["bound-wavefunction", "--omega", "0", "--omega0", "0", "--grid", "x:0:3:4"],
         "branch = sideways"),
        (["oracle", "scatter", "--omega", "0", "--omega0", "0", "--carrier", "1.0472"],
         "kind = q"),
        (["t-reflect", "--omega", "0", "--omega0", "0", "--grid", "k:0.2:2.9:3"],
         "V = nan"),
    ],
)
def test_config_value_outside_choices_exits_2(tmp_path, capsys, argv, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = _run(capsys, argv + ["--config", str(cfg)])
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["error"] == "config"
    assert line.split(" = ")[1] in record["message"]


def test_tolerance_error_exits_3(capsys):
    for argv, message in (
        # a run long enough for the packet to reach the boundary guard zone
        (["oracle", "scatter", "--kind", "t", "--omega", "0", "--omega0", "0",
          "--carrier", "1.0472", "--L", "801", "--duration", "323"], "guard zone"),
        # a pair run too short for either packet to cross the atom
        (["oracle", "pair", "--omega", "0", "--omega0", "0", "--k1", "1.5", "--k2", "1.5",
          "--duration", "0.5"], "no transmitted pair weight"),
    ):
        code, out, err = _run(capsys, argv)
        assert code == 3 and out == ""
        record = json.loads(err)
        assert record["error"] == "numerical-tolerance"
        assert message in record["message"]


def test_internal_error_exits_4_with_json_record(capsys, monkeypatch):
    # any exception that is neither a configuration nor a tolerance error;
    # exit 3 belongs to ToleranceError, not to every RuntimeError
    for exc in (KeyError("lost"), RuntimeError("no tolerance")):

        def broken(params):
            raise exc

        monkeypatch.setattr(tcra, "bound_state_energies", broken)
        code, out, err = _run(capsys, ["bound-states", "--omega", "0", "--omega0", "0"])
        assert code == 4 and out == ""
        record = json.loads(err)
        assert record["error"] == "internal"
        assert type(exc).__name__ in record["message"]
        assert "\n" not in err.strip()


@pytest.mark.parametrize(
    "argv, band",
    [
        (["oracle", "scatter", "--kind", "t", "--omega", "0", "--omega0", "0",
          "--carrier", "1.2"], 2.0),
        (["oracle", "pair", "--omega", "0", "--omega0", "0", "--k1", "1.5",
          "--k2", "1.6", "--L", "161", "--width", "6"], 4.0),
    ],
    ids=["scatter", "pair"],
)
def test_weak_coupling_runs_are_the_uncoupled_runs(capsys, argv, band):
    # a coupling whose square is subnormal changes no pivot of the count:
    # the run is sized by the bare chain's extremes, inside the band (or
    # twice it), and reads as the uncoupled run
    runs = []
    for coupling in ("1e-160", "0"):
        code, out, err = _run(capsys, [*argv, "--V", coupling])
        assert code == 0 and err == ""
        runs.append(json.loads(out))
    assert runs[0] == runs[1]
    low, high = runs[0]["spectral_interval"]
    assert -band < low and high < band


@pytest.mark.parametrize("run", [["--omega", "1e6"], ["--omega", "0", "--duration", "1e9"]])
def test_over_budget_expansion_exits_2_before_any_coefficient(capsys, monkeypatch, run):
    def bessel(order, z):
        raise AssertionError(f"Bessel coefficients computed for order {order}")

    monkeypatch.setattr(lattice_oracle, "_bessel_j", bessel)
    argv = ["oracle", "scatter", "--kind", "t", *run, "--omega0", "0", "--carrier", "1.2"]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["error"] == "config"
    assert "Chebyshev expansion needs order" in record["message"]


def test_oracle_bound_report_json(capsys):
    code, out, _ = _run(
        capsys, ["oracle", "bound", "--omega", "0", "--omega0", "0", "--L", "201"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["warnings"] == []
    assert obj["energies"][0] == pytest.approx(-2.0581710272714924, abs=1e-8)
    assert obj["upper_sign_alternating"] is True
    assert obj["bracket_widths"] == [4.440892098500626e-16] * 2
    assert "lanczos_steps" not in obj and "ritz_residuals" not in obj


def test_oracle_scatter_matches_analytic_split(capsys):
    code, out, _ = _run(
        capsys,
        ["oracle", "scatter", "--omega", "0", "--omega0", "0",
         "--carrier", "1.0471975512", "--L", "801"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["reflection"] == pytest.approx(0.25, abs=0.01)
    assert obj["analytic"][1] == pytest.approx(0.25, abs=1e-9)
    assert 0.0 <= obj["guard_mass"] <= lattice_oracle._GUARD_MASS_LIMIT


def test_oracle_scatter_h_type_matches_analytic_split(capsys):
    code, out, err = _run(
        capsys,
        ["oracle", "scatter", "--kind", "h", "--omega", "1", "--vbar1", "0.55",
         "--vbar2", "0.55", "--carrier", "1.57", "--L", "801"],
    )
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["transmission"] is None and obj["reflection"] is None
    assert obj["guide_probabilities"] == pytest.approx(obj["analytic"], abs=0.01)
    low, high = obj["spectral_interval"]
    assert low < high and obj["chebyshev_order"] > 0
    assert 0.0 <= obj["guard_mass"] <= lattice_oracle._GUARD_MASS_LIMIT


def test_oracle_pair_json_reports_guard_mass(capsys):
    code, out, _ = _run(
        capsys,
        ["oracle", "pair", "--omega", "0", "--omega0", "0", "--k1", "1.2", "--k2", "1.9",
         "--L", "161", "--width", "6", "--separation", "15"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["norm_drift"] < 1e-10
    assert 0.0 <= obj["guard_mass"] <= lattice_oracle._GUARD_MASS_LIMIT
    # the interacting run's size, the bright half-chain's 81 sites, beside its order
    keys = list(obj)
    assert keys[keys.index("chebyshev_order") + 1] == "propagated_states"
    assert obj["propagated_states"] == 81 * 82 // 2 + 81


def _null_paths(obj, path=()):
    """The paths of every null in a decoded JSON value."""
    if obj is None:
        yield path
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _null_paths(value, (*path, key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _null_paths(value, (*path, i))


def test_readme_commands_run(capsys):
    # every row of the README's command table runs: exit 0, every CSV cell a
    # finite number, and JSON with no null but in the fields a wavepacket
    # report leaves unset for the other lattice kind.  validate is left to
    # test_acceptance
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [row.split() for row in re.findall(r"^\|.*\| `photon-scatter ([^`]*)`", text, re.M)]
    rows = [argv for argv in rows if argv[0] != "validate"]
    paths = [path for path, _, handler, _, _ in cli._COMMANDS if handler and path != ("validate",)]
    assert all(any(argv[: len(path)] == list(path) for argv in rows) for path in paths)
    unset = {"t": {("guide_probabilities",)}, "h": {("transmission",), ("reflection",)}}
    for argv in rows:
        code, out, err = _run(capsys, argv)
        assert (code, err) == (0, ""), argv
        if out.startswith("{"):
            kind = argv[argv.index("--kind") + 1] if "--kind" in argv else "t"
            allowed = unset[kind] if argv[:2] == ["oracle", "scatter"] else set()
            assert set(_null_paths(json.loads(out))) <= allowed, argv
        else:
            _, table = _rows(out)
            assert table and np.isfinite(table).all(), argv


def test_validate_subset_report(capsys):
    code, out, _ = _run(capsys, ["validate", "--only", "1,4"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("[PASS] criterion  1")
    assert lines[1].startswith("[PASS] criterion  4")
    assert lines[2] == "2/2 criteria passed"


def test_validate_rejects_unknown_criterion(capsys):
    code, _, err = _run(capsys, ["validate", "--only", "1,99"])
    assert code == 2
    assert json.loads(err)["error"] == "config"


def test_cli_import_loads_no_scipy():
    # the package runs on numpy alone, so starting the CLI loads no scipy;
    # test_oracle_runs_without_scipy covers the oracle subcommands' code
    src = os.path.dirname(os.path.dirname(photon_scatter.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, photon_scatter.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
