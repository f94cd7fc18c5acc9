"""Build the window-independent reference for the ``psi3_rel_err`` metric.

The connected tier of the three-photon out-state integrates T3 over a
truncated square of half-width W; the truncation error falls like 1/W.  This
script evaluates |psi3(0,0,0)|^2 for k = (1,1,1), Omega = gamma = 1 at
W = 40, 80, 160 (and 320 as a consistency check), fits a + b/W + c/W^2 to the
three largest windows and writes the extrapolated value with its provenance
to ``psi3_reference.json``.

It calls the library's quadrature knobs (``rtol``, ``window``) directly, so
it only runs against a tree that still has them; the committed JSON is what
the benchmark reads.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time

import numpy as np
import scipy

from photon_scatter import TWGParams, twg

HERE = os.path.dirname(os.path.abspath(__file__))
WINDOWS = (40.0, 80.0, 160.0, 320.0)
RTOL = 1e-7


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> None:
    params = TWGParams(omega_atom=1.0, gamma_t=1.0)
    rows = []
    for w in WINDOWS:
        start = time.perf_counter()
        psi = twg.three_photon_out_wavefunction(
            params, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), rtol=RTOL, window=w
        )
        rows.append(
            {"window": w, "psi_sq": abs(psi) ** 2, "seconds": time.perf_counter() - start}
        )
        print(rows[-1], flush=True)

    def extrapolate(sel):
        w = np.array([rows[i]["window"] for i in sel])
        v = np.array([rows[i]["psi_sq"] for i in sel])
        basis = np.stack([np.ones_like(w), 1.0 / w, 1.0 / w**2], axis=1)
        return float(np.linalg.solve(basis, v)[0])

    value = extrapolate((1, 2, 3))
    check = extrapolate((0, 1, 2))
    record = {
        "quantity": "|psi3(x1=0, x2=0, x3=0)|^2",
        "params": {"omega": 1.0, "gamma": 1.0, "k": [1.0, 1.0, 1.0]},
        "value": value,
        "method": "Richardson fit a + b/W + c/W^2 over W = 80, 160, 320 gamma",
        "check_value_w40_80_160": check,
        "rtol": RTOL,
        "samples": rows,
        "provenance": {
            "commit": _commit(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    with open(os.path.join(HERE, "psi3_reference.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
