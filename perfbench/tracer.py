"""Traced in-process replay of one workload through ``photon_scatter.cli.main``.

Run as a child of ``run.py`` with the checkout's ``src`` on PYTHONPATH:

    python3 perfbench/tracer.py <seconds>   (argv list as JSON on stdin)

It alternates an untraced and a traced pass over the argv list until
``seconds`` have elapsed (at least one pair).  The traced pass wraps every
public function of the physics modules, ``cli.main``, and ``numpy.linalg.eigh``
as ``lattice_oracle`` calls it; each call records a span (name, start, end,
parent, work).  Spans stay in memory and are written with the pass timings
as one JSON object on stdout at exit.  Nothing in the program is changed
on disk, and the untraced passes run the unwrapped functions.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
import traceback

import numpy as np

LAYERS = ("tcra", "twg", "hwg", "bethe", "lattice_oracle", "validation", "cli")
_ORACLE = "photon_scatter.lattice_oracle"


def _t3_points(args, kwargs) -> int:
    p = kwargs.get("p", args[2] if len(args) > 2 else ())
    return int(np.broadcast(*(np.asarray(c) for c in p)).size)


def _n_cubed(args, kwargs) -> int:
    a = kwargs.get("a", args[0] if args else None)
    return int(np.shape(a)[0]) ** 3


# work recorded with a span, by span name
_WORK = {"twg.three_photon_t": _t3_points, "lattice_oracle.eigh": _n_cubed}


class Tracer:
    """Span recorder plus the wrappers it installs and removes."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, work]
        self.stack: list[int] = []
        self.returns: dict[str, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, keep_return: bool = False):
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                   work(args, kwargs) if work else 0]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
            if keep_return:
                self.returns[name] = result
            return result

        return traced

    def install(self) -> None:
        modules = {m: importlib.import_module(f"photon_scatter.{m}") for m in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self.wrap(name, obj, keep_return=name == "validation.run"))
        # rebind every reference the package holds, so calls between
        # modules and inside one module both pass through the wrapper
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("photon_scatter"):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

        original_eigh = np.linalg.eigh
        traced_eigh = self.wrap("lattice_oracle.eigh", original_eigh)

        @functools.wraps(original_eigh)
        def eigh(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == _ORACLE:
                return traced_eigh(*args, **kwargs)
            return original_eigh(*args, **kwargs)

        self._patch(np.linalg, "eigh", eigh)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def remove(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()


def _replay(cli, argvs):
    """Run each argv through cli.main; return (seconds, [(stdout, code)])."""
    results = []
    start = time.perf_counter()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except Exception:  # noqa: BLE001 - a crash fails this command only
            traceback.print_exc()
            code = 1  # the exit code of an uncaught exception in a subprocess
        results.append((out.getvalue(), code))
    return time.perf_counter() - start, results


def _criteria(results) -> list[dict]:
    return [
        {"number": r.number, "passed": bool(r.passed), "elapsed": float(r.elapsed)}
        for r in results or ()
    ]


def main() -> int:
    seconds = float(sys.argv[1])
    argvs = json.load(sys.stdin)
    cli = importlib.import_module("photon_scatter.cli")
    passes = []
    outputs = None
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < seconds:
        untraced_s, _ = _replay(cli, argvs)
        tracer = Tracer()
        tracer.install()
        try:
            traced_s, results = _replay(cli, argvs)
        finally:
            tracer.remove()
        if outputs is None:
            outputs = results
        passes.append(
            {
                "untraced_s": untraced_s,
                "traced_s": traced_s,
                "bytes_out": sum(len(out.encode()) for out, _ in results),
                "spans": tracer.spans,
                "criteria": _criteria(tracer.returns.get("validation.run")),
            }
        )
    json.dump({"passes": passes, "outputs": outputs}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
