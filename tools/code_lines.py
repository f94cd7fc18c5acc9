"""Count the code lines of each module in src/photon_scatter.

A line counts when it holds a token other than a comment, a docstring (a
string statement alone on its logical line), NL, NEWLINE, INDENT or
DEDENT.  A token spanning several lines counts on each of them.

Usage: python3 tools/code_lines.py [PACKAGE_DIR]
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """Number of code lines of the Python file ``path``."""
    lines = set()
    logical = []
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.NEWLINE:
                if not (len(logical) == 1 and logical[0].type == tokenize.STRING):
                    for t in logical:
                        lines.update(range(t.start[0], t.end[0] + 1))
                logical = []
            elif tok.type not in _SKIPPED:
                logical.append(tok)
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "photon_scatter"
    counts = {path.name: code_lines(path) for path in sorted(root.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
