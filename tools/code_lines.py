"""Count the code lines of a Python package.

A line counts when some token on it is code: anything but a comment, a
line break or indentation.  Docstrings do not count: the string literal
that opens a module, class or function body is dropped with every line it
spans.  Blank lines and lines holding only a comment do not count.  A
statement spread over several lines counts each line that carries code,
and every line of a multi-line string that is not a docstring counts.

Usage::

    python tools/code_lines.py [DIR_OR_FILE ...]    # default: src/circkr

Prints one total over every ``*.py`` file found.  Only the standard
library is used.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_file(path):
    """Code lines in one Python source file."""
    source = Path(path).read_bytes()
    skip = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip)


def count(paths):
    """Code lines over every ``*.py`` file under ``paths``."""
    total = 0
    for path in map(Path, paths):
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        total += sum(count_file(f) for f in files)
    return total


if __name__ == "__main__":
    print(count(sys.argv[1:] or ["src/circkr"]))
