"""Time one CLI command in alternating cold pairs on two checkouts.

Each pair runs ``python3 -m photon_scatter.cli ARGV`` once on checkout A
and once on checkout B, each a fresh interpreter importing that checkout's
``src``, with one BLAS thread; which side runs first alternates from pair
to pair.  Every run prints its wall time and its child's peak resident set
(``ru_maxrss``, read through ``os.wait4``).  The summary gives each side's
median and quartiles of the wall time and of the peak, and the pairs B won
(ties count for neither side).  It ends with the verdict on a wall-time
gain of B: a gain holds only when B wins at least nine tenths of the pairs
run and A's median exceeds B's by more than A's quartile distance.

Usage: python3 tools/ab.py A_DIR B_DIR [--pairs N] -- ARGV...

for example, against a ``git archive`` of the parent commit unpacked in
``../parent``: ``python3 tools/ab.py ../parent . --pairs 10 -- validate``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_once(checkout: Path, argv) -> tuple[float, float, int]:
    """One cold run of the CLI on ``checkout``: (wall seconds, peak MB, exit code)."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.update({var: "1" for var in _BLAS_VARS})
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "photon_scatter.cli", *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env, cwd=checkout,
    )
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    # Popen reaps nothing once wait4 has: record the status it would read
    child.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in kilobytes on Linux
    return wall, usage.ru_maxrss / 1024.0, child.returncode


def quartiles(values) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), numpy's default definition."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], usage="%(prog)s A_DIR B_DIR [--pairs N] -- ARGV..."
    )
    parser.add_argument("a", type=Path, help="checkout A, the baseline")
    parser.add_argument("b", type=Path, help="checkout B, the change")
    parser.add_argument("--pairs", type=int, default=10)
    split = argv.index("--") if "--" in argv else len(argv)
    args, command = parser.parse_args(argv[:split]), argv[split + 1 :]
    if not command or args.pairs < 1:
        parser.error("give at least one pair and a CLI argv after --")
    sides = {"A": args.a.resolve(), "B": args.b.resolve()}
    runs = {"A": [], "B": []}
    for i in range(args.pairs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for side in order:
            wall, peak, code = run_once(sides[side], command)
            runs[side].append((wall, peak))
            print(f"pair {i + 1} {side}: {wall:.4f} s  {peak:.2f} MB  exit {code}", flush=True)
    wins = sum(b[0] < a[0] for a, b in zip(runs["A"], runs["B"]))
    losses = sum(b[0] > a[0] for a, b in zip(runs["A"], runs["B"]))
    for side in ("A", "B"):
        walls, peaks = zip(*runs[side])
        print(
            f"{side} {sides[side]}: wall q25/median/q75 "
            + "/".join(f"{v:.4f}" for v in quartiles(walls))
            + " s, peak "
            + "/".join(f"{v:.2f}" for v in quartiles(peaks))
            + " MB"
        )
    print(f"B faster in {wins} of {args.pairs} pairs, slower in {losses}")
    need = (9 * args.pairs + 9) // 10
    q1, median_a, q3 = quartiles([wall for wall, _ in runs["A"]])
    gap = median_a - quartiles([wall for wall, _ in runs["B"]])[1]
    held = wins >= need and gap > q3 - q1
    print(
        f"gain claim: {wins} wins against {need} of {args.pairs} needed, median gap"
        f" {gap:.4f} s against A's quartile distance {q3 - q1:.4f} s:"
        f" {'holds' if held else 'not met'}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
