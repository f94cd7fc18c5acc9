"""Benchmark of the photon-scatter CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  The program under test is the checkout's
``src/photon_scatter``; nothing is installed.  The workloads (``curves``,
``three_photon_map``, ``lattice_oracles``, ``validate``) and their output
checks live in ``workloads.py``; the seed draws their parameters.
BENCHMARK.json lists all but ``curves``: its commands are dominated by
interpreter start and imports, whose time swung by up to 1.6x with co-tenant
load on a shared 2-core VM, so its spread over seeds reached the 0.25 bound.
It stays runnable by name and in ``--smoke``.

``--trace 0``: one client runs the workload's commands in a closed loop, one
cold ``python3 -m photon_scatter.cli`` subprocess at a time, pass after pass
until the passes add up to ``--seconds`` (at least one pass).  Every output
is then checked.  End-to-end metrics:

- ``wall_s``: median wall time of one pass, interpreter start included;
- ``latency_p50_s``: median per-command wall time;
- ``latency_tail_s``: the highest of the p99.9/p99/p95/p90/p75/p50 latencies
  (nearest rank) with at least ten samples beyond it, else the maximum;
- ``points_per_s``: output rows (CSV rows, one per JSON object, one per
  validation criterion) over the summed command time;
- ``setup_s``: median wall time of ``python3 -c "import photon_scatter.cli"``;
- ``peak_rss_mb``: the largest max-RSS of any child;
- ``psi3_rel_err``: |psi3(0,0,0)|^2 of a fixed resonant ``three-photon-wf``
  command against the window-independent value in ``psi3_reference.json``.

``--trace 1``: the same argv is replayed in process through ``cli.main`` with
spans around every public function of the physics modules (``tracer.py``);
the per-layer metrics of BENCHMARK.json are derived from the spans, from
``validation.run``'s own criterion timings and from ``-X importtime``.  A
layer the workload never reaches reports 0.

Child processes get one BLAS thread.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the error
rate is ``failed / attempted``.  The line before it is a ``detail`` object
with the provenance, sample counts, the tail percentile used and any check
failures.  ``--smoke`` runs every workload at tiny sizes in both modes,
checks that every metric of BENCHMARK.json is emitted with its unit, and
checks that a corrupted output or a wrong exit code is counted as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import workloads
from workloads import Bad

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PYTHON = sys.executable
BLAS_THREADS = 1
SETUP_SAMPLES = 5
COMMAND_TIMEOUT_S = 150.0
# workloads whose repeated argv must repeat bytes (validate prints timings)
DETERMINISTIC = {"curves", "three_photon_map", "lattice_oracles"}
# nearest-rank percentiles tried for latency_tail_s, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

_VERSIONS = """
import json, platform, numpy, scipy
try:
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    openblas = f"{blas['name']} {blas['version']}"
except (AttributeError, KeyError, TypeError):
    openblas = "unknown"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": openblas}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args, stdin=None) -> tuple[float, str, str, int]:
    """Run one child python; return (wall seconds, stdout, stderr, exit code)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [PYTHON, *args], input=stdin, capture_output=True, text=True,
            env=child_env(), cwd=ROOT, timeout=COMMAND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        return time.perf_counter() - start, "", f"timeout: {exc}", -9
    return time.perf_counter() - start, proc.stdout, proc.stderr, proc.returncode


def run_cli(argv) -> tuple[float, str, int]:
    wall, out, _, code = run_child(["-m", "photon_scatter.cli", *argv])
    return wall, out, code


def import_seconds() -> float:
    wall, _, err, code = run_child(["-c", "import photon_scatter.cli"])
    if code != 0:
        raise RuntimeError(f"cannot import photon_scatter.cli: {err.strip()}")
    return wall


def provenance(name: str, seed: int) -> dict:
    _, out, err, code = run_child(["-c", _VERSIONS])
    if code != 0:
        raise RuntimeError(f"cannot read library versions: {err.strip()}")
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "photon_scatter")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    commit = "unknown"  # a plain checkout is identified by src_sha256 alone
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
                timeout=30,
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "blas_threads_in_children": BLAS_THREADS,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        **json.loads(out),
    }


def tail(samples) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10 samples
    beyond it, by nearest rank; the maximum (percentile 100) when none has."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def check_outputs(name, commands, passes) -> tuple[int, int, int, list[str]]:
    """Check each pass's outputs; return (attempted, failed, rows, messages).

    ``passes[i][j]`` is (stdout, exit code) of command j in pass i.
    """
    attempted = failed = rows = 0
    messages = []
    seen = {}
    for i, results in enumerate(passes):
        for j, (out, code) in enumerate(results):
            attempted += 1
            key = (j, code, out)
            if key not in seen:
                try:
                    seen[key] = (commands[j].check(out, code), None)
                except (Bad, KeyError, TypeError, ValueError, IndexError) as exc:
                    seen[key] = (0, f"{type(exc).__name__}: {exc}")
            n_rows, problem = seen[key]
            if problem is None and name in DETERMINISTIC and i and out != passes[0][j][0]:
                problem = "output differs from the first pass for the same argv"
            if problem is not None:
                failed += 1
                messages.append(f"pass {i} {' '.join(commands[j].argv[:3])}: {problem}")
            else:
                rows += n_rows
    return attempted, failed, rows, messages


def reference_error() -> tuple[float, str | None, float | None]:
    """Run the fixed reference command; return (psi3_rel_err, problem, |psi3|^2).

    A failed command has no value to compare and reports a 100 % deviation.
    """
    with open(os.path.join(HERE, "psi3_reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["value"]
    _, out, code = run_cli(workloads.REFERENCE_ARGV)
    try:
        value = workloads.reference_psi_sq(out, code)
    except (Bad, ValueError) as exc:
        return 1.0, f"reference command: {exc}", None
    return abs(value - reference) / reference, None, value


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def measure(name: str, commands, seconds: float) -> tuple[dict, dict, int, int]:
    """Untraced closed-loop run; returns (metrics, detail, attempted, failed)."""
    import_seconds()  # warm-up: compiles the .pyc files before anything is timed
    # The host's speed drifts over tens of seconds, so the set-up samples
    # and the untimed reference command are spread between the passes: the
    # timed work then samples a longer stretch of the run.
    setup = [import_seconds()]
    pass_walls, latencies, passes = [], [], []
    while sum(pass_walls) < seconds or not passes:
        start = time.perf_counter()
        results = []
        for cmd in commands:
            wall, out, code = run_cli(cmd.argv)
            latencies.append(wall)
            results.append((out, code))
        pass_walls.append(time.perf_counter() - start)
        passes.append(results)
        setup.append(import_seconds())
        if len(passes) == 1:
            reference = reference_error()
    setup += [import_seconds() for _ in range(SETUP_SAMPLES - len(setup))]
    # the largest max-RSS of any child so far; the import-only children and
    # the reference command stay below the workload's largest command
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    attempted, failed, rows, messages = check_outputs(name, commands, passes)
    rel_err, problem, psi_sq = reference
    attempted += 1
    if problem is not None:
        failed += 1
        messages.append(problem)

    percentile, tail_value = tail(latencies)
    metrics = {
        "wall_s": metric(statistics.median(pass_walls), "s"),
        "latency_p50_s": metric(statistics.median(latencies), "s"),
        "latency_tail_s": metric(tail_value, "s"),
        "points_per_s": metric(rows / sum(latencies), "1/s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "psi3_rel_err": metric(rel_err, "1"),
    }
    detail = {
        "passes": len(passes),
        "pass_walls_s": pass_walls,
        "latency_samples": len(latencies),
        "latency_tail_percentile": percentile,
        "setup_samples_s": setup,
        "output_rows": rows,
        "error_rate": {"value": failed / attempted, "unit": "1"},
        "psi3_sq": psi_sq,
        "failures": messages[:20],
    }
    if name == "validate":
        detail["criterion_verdicts"] = {
            str(n): ok for n, ok in workloads.validate_verdicts(passes[0][0][0]).items()
        }
    return metrics, detail, attempted, failed


# ---------------------------------------------------------------------------
# traced run


def importtime() -> dict[str, float]:
    """Cumulative import seconds per module from ``-X importtime``."""
    _, _, err, code = run_child(["-X", "importtime", "-c", "import photon_scatter.cli"])
    if code != 0:
        raise RuntimeError(f"cannot import photon_scatter.cli: {err.strip()}")
    cumulative = {}
    for line in err.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            try:
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
            except ValueError:
                continue  # the header line
    return cumulative


def layer_metrics(p: dict) -> dict[str, float]:
    """Per-layer numbers of one traced pass from its spans."""
    spans = p["spans"]  # [name, start, end, parent index, work]
    dur = [end - start for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            covered[span[3]] += dur[i]
    self_s = [d - c for d, c in zip(dur, covered)]

    def matching(key):
        """Spans named key, or all spans under key when it ends in "." or "_"."""
        if key.endswith((".", "_")):
            return [i for i, span in enumerate(spans) if span[0].startswith(key)]
        return [i for i, span in enumerate(spans) if span[0] == key]

    def outermost(i):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == spans[i][0]:
                return False
            parent = spans[parent][3]
        return True

    def inclusive(key):
        return sum(dur[i] for i in matching(key) if outermost(i))

    def self_time(idx):
        return sum(self_s[i] for i in idx)

    t3 = matching("twg.three_photon_t")
    psi3 = matching("twg.three_photon_out_wavefunction")
    eigh = matching("lattice_oracle.eigh")
    t3_s = inclusive("twg.three_photon_t")
    t3_points = sum(spans[i][4] for i in t3)
    closed = set(matching("twg.")) - set(t3) - set(psi3)
    out = {
        "cli.self_s": self_time(matching("cli.main")),
        "cli.bytes_out": p["bytes_out"],
        "tcra.calls": len(matching("tcra.")),
        "tcra.self_s": self_time(matching("tcra.")),
        "hwg.calls": len(matching("hwg.")),
        "hwg.self_s": self_time(matching("hwg.")),
        "twg.closed_s": self_time(closed),
        "twg.t3_calls": len(t3),
        "twg.t3_points": t3_points,
        "twg.t3_s": t3_s,
        "twg.t3_ns_per_point": t3_s / t3_points * 1e9 if t3_points else 0.0,
        "twg.psi3_calls": len(psi3),
        "twg.psi3_self_s": self_time(psi3),
        "lattice_oracle.eigh_calls": len(eigh),
        "lattice_oracle.eigh_s": inclusive("lattice_oracle.eigh"),
        "lattice_oracle.eigh_n3": sum(spans[i][4] for i in eigh),
        "lattice_oracle.build_s": inclusive("lattice_oracle.build_single_excitation"),
        "lattice_oracle.bound_s": inclusive("lattice_oracle.bound_state_check"),
        "lattice_oracle.scatter_s": inclusive("lattice_oracle.wavepacket_scatter"),
        "lattice_oracle.pair_s": inclusive("lattice_oracle.two_excitation_check"),
        "lattice_oracle.ring_s": inclusive("lattice_oracle.ring_"),
        "bethe.calls": len(matching("bethe.")),
        "bethe.self_s": self_time(matching("bethe.")),
        "validation.passed": sum(1 for c in p["criteria"] if c["passed"]),
        "trace.overhead_ratio": p["traced_s"] / p["untraced_s"],
    }
    elapsed = {c["number"]: c["elapsed"] for c in p["criteria"]}
    for n in range(1, 12):
        out[f"validation.criterion_{n:02d}_s"] = elapsed.get(n, 0.0)
    return out


_COUNT_SUFFIXES = ("calls", "points", "n3", "passed")


def layer_unit(metric_name: str) -> str:
    if metric_name.endswith(_COUNT_SUFFIXES):
        return "count"
    if metric_name.endswith("_s"):
        return "s"
    return {"cli.bytes_out": "bytes", "twg.t3_ns_per_point": "ns"}.get(metric_name, "ratio")


def trace(name: str, commands, seconds: float) -> tuple[dict, dict, int, int]:
    """Traced in-process run; returns (metrics, detail, attempted, failed)."""
    import_seconds()  # warm-up, as in the untraced run
    imports = [importtime() for _ in range(3)]
    argvs = json.dumps([list(c.argv) for c in commands])
    _, out, err, code = run_child([os.path.join(HERE, "tracer.py"), repr(seconds)], stdin=argvs)
    if code != 0:
        raise RuntimeError(f"traced replay failed: {err.strip()[-2000:]}")
    result = json.loads(out.splitlines()[-1])
    outputs = [(o, c) for o, c in result["outputs"]]
    attempted, failed, rows, messages = check_outputs(name, commands, [outputs])

    per_pass = [layer_metrics(p) for p in result["passes"]]
    values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    values["cli.import_s"] = statistics.median(i.get("photon_scatter.cli", 0.0) for i in imports)
    values["lattice_oracle.import_s"] = statistics.median(
        i.get("photon_scatter.lattice_oracle", 0.0) for i in imports
    )
    metrics = {k: metric(v, layer_unit(k)) for k, v in sorted(values.items())}
    detail = {
        "traced_passes": len(per_pass),
        "spans_per_pass": [len(p["spans"]) for p in result["passes"]],
        "untraced_in_process_s": [p["untraced_s"] for p in result["passes"]],
        "traced_in_process_s": [p["traced_s"] for p in result["passes"]],
        "output_rows": rows,
        "error_rate": {"value": failed / attempted, "unit": "1"},
        "failures": messages[:20],
    }
    return metrics, detail, attempted, failed


# ---------------------------------------------------------------------------
# entry points


def run(name: str, seed: int, seconds: float, traced: bool, tiny: bool = False) -> dict:
    commands = workloads.WORKLOADS[name](seed, tiny=tiny)
    detail = {"provenance": provenance(name, seed)}
    fn = trace if traced else measure
    metrics, more, attempted, failed = fn(name, commands, seconds)
    detail.update(more)
    return {
        "detail": detail,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def smoke() -> int:
    """Tiny-size self-test of the benchmark; returns the number of problems."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for name in workloads.WORKLOADS:
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            res = run(name, seed=1, seconds=0.0, traced=traced, tiny=True)["result"]
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted:
                problems.append(f"{name} trace={int(traced)}: metrics {got} != {wanted}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace={int(traced)}: failed {res['failed']}")
            print(f"smoke {name} trace={int(traced)}: {res['attempted']} attempted,"
                  f" {res['failed']} failed", flush=True)

    # corrupted outputs must be counted as failures
    commands = workloads.curves(1, tiny=True)
    good = [run_cli(c.argv)[1:] for c in commands]
    out, code = good[0]  # t-reflect table
    lines = out.split("\n")
    cells = lines[2].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-3)  # breaks |1+r|^2 + |r|^2 = 1
    altered = "\n".join(lines[:2] + [",".join(cells)] + lines[3:])
    # still a valid table, but not byte-identical to the first pass
    respelled = out.replace("\n0.2,", "\n0.20,", 1)
    tampered = {
        "altered CSV row": [[(altered, code)] + good[1:]],
        "wrong exit code": [[(out, 3)] + good[1:]],
        "changed repeat": [good, [(respelled, code)] + good[1:]],
    }
    for label, passes in tampered.items():
        attempted, failed, _, _ = check_outputs("curves", commands, passes)
        if failed != 1:
            problems.append(f"{label}: {failed} of {attempted} counted failed, expected 1")
    if check_outputs("curves", commands, [good])[1]:
        problems.append("untampered outputs counted as failed")
    for p in problems:
        print(f"SMOKE PROBLEM: {p}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return len(problems)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny-size self-test")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "photon_scatter", "cli.py")):
        print(f"no photon_scatter sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return 1 if smoke() else 0
    if args.workload is None:
        ap.error("--workload is required")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
