"""CLI contract: output formats, exit codes, config precedence, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import photon_scatter
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
    # a run long enough for the packet to reach the boundary guard zone
    code, _, err = _run(
        capsys,
        ["oracle", "scatter", "--kind", "t", "--omega", "0", "--omega0", "0",
         "--carrier", "1.0472", "--L", "801", "--duration", "323"],
    )
    assert code == 3
    record = json.loads(err)
    assert record["error"] == "numerical-tolerance"


def test_oracle_bound_report_json(capsys):
    code, out, _ = _run(
        capsys, ["oracle", "bound", "--omega", "0", "--omega0", "0", "--L", "201"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["warnings"] == []
    assert obj["energies"][0] == pytest.approx(-2.0581710272714924, abs=1e-8)
    assert obj["upper_sign_alternating"] is True


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
    # only the oracle and validate subcommands need scipy; they import it
    # themselves, so the analytic subcommands start without it
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
