"""Count the code lines of each module under a source tree.

    python3 .github/code_lines.py SRC

Prints one line per ``.py`` file under SRC (its code lines and its path
relative to SRC), then the total.  A code line holds a token other than a
comment or layout (newlines, indentation, the end marker), and lies outside
docstrings and other bare string statements; a token that spans several
lines, such as a multi-line string in an expression, makes each of them a
code line.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(text: str) -> int:
    bare = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            bare.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - bare)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", type=Path, help="source tree to count, e.g. src/disot")
    args = ap.parse_args()
    total = 0
    for path in sorted(args.src.rglob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.relative_to(args.src)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
