"""Count the code-only lines of each module in ``src/aknsd``.

A code line is a source line that holds part of a token other than a
comment.  Blank lines, comment lines and the lines of module, class and
function docstrings do not count; a line that holds code and a trailing
comment does.  Run ``python tools/code_lines.py [PATH ...]`` (default: the
package directory); it prints one count per module and the total.
"""

from __future__ import annotations

import ast
import io
from pathlib import Path
import sys
import tokenize

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "aknsd"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code-only lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list) -> int:
    paths = [Path(p) for p in argv] or [PACKAGE]
    files = sorted(f for p in paths for f in (p.glob("*.py") if p.is_dir() else [p]))
    total = 0
    for f in files:
        n = code_lines(f.read_text())
        total += n
        print(f"{n:6d}  {f.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
