"""Count the lines of code in each ``src/psiauth`` module.

A line is a code line when it holds a token outside comments and
docstrings: the ``tokenize`` tokens of the file, less comments, line
breaks, indentation and every string that ``ast`` reads as a module,
class or function docstring.  A string token that spans lines counts on
each of them.  Raw lines are the file's lines, blank ones included.

Run from anywhere, with the standard library only; a directory argument
counts another checkout's package instead:

    python tools/code_lines.py [path/to/src/psiauth]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "psiauth"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> tuple[int, int]:
    """``(raw lines, code lines)`` of one source file."""
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source, str(path)))
    lines: set[int] = set()
    with path.open("rb") as stream:
        for token in tokenize.tokenize(stream.readline):
            if token.type in _LAYOUT:
                continue
            span = range(token.start[0], token.end[0] + 1)
            lines.update(line for line in span if line not in skip)
    return len(source.splitlines()), len(lines)


def main(package: Path = PACKAGE) -> int:
    modules = sorted(package.glob("*.py"))
    total_raw = total_code = 0
    print(f"{'module':<16}{'raw':>7}{'code':>7}")
    for path in modules:
        raw, code = code_lines(path)
        total_raw += raw
        total_code += code
        print(f"{path.name:<16}{raw:>7}{code:>7}")
    print(f"{f'total ({len(modules)})':<16}{total_raw:>7}{total_code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE))
