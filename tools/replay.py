"""Replay every command of the README's command table in process.

Prints one ``md5  exit  argv`` line per table row: the md5 of what the
command writes to stdout, its exit code and its arguments.  ``validate``
runs too, with its per-criterion timings masked, so two checkouts print the
same lines exactly when every row prints the same bytes and exit code, and
comparing two checkouts is ``diff`` of their runs.  The package is imported
from the ``src`` directory next to this file's own directory.

Usage: python3 tools/replay.py [README]
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
# the row pattern of tests/test_cli.py's test_readme_commands_run
_ROW = re.compile(r"^\|.*\| `photon-scatter ([^`]*)`", re.M)
_TIMING = re.compile(r"\(\s*[0-9.]+s\)")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(_ROOT / "src"))
    from photon_scatter import cli

    readme = Path(argv[0]) if argv else _ROOT / "README.md"
    for row in _ROW.findall(readme.read_text()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(row.split())
        digest = hashlib.md5(_TIMING.sub("(t)", out.getvalue()).encode()).hexdigest()
        print(f"{digest}  {code}  {row}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
