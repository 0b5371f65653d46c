"""Print the number of code lines in ``src/pdd``.

A code line is a line of a ``.py`` file under ``src/pdd`` that holds a
token other than a comment, a string or layout (newlines, indents and
dedents). An f-string counts as one string, the expressions inside it
too, so the count is the same on every Python version. Docstrings,
comments, blank lines and lines made only of string literals do not count.

Usage: ``python scripts/code_lines.py``
"""

import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pdd"

#: Tokens that never make a line a code line.
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.STRING,
    tokenize.NEWLINE,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of code lines of one source file."""
    rows, depth = set(), 0  # depth: how many f-strings the token is inside
    with path.open("rb") as source:
        for token in tokenize.tokenize(source.readline):
            name = tokenize.tok_name[token.type]
            if name.endswith("STRING_START"):
                depth += 1
            elif name.endswith("STRING_END"):
                depth -= 1
            elif not depth and token.type not in NOT_CODE:
                rows.add(token.start[0])
    return len(rows)


if __name__ == "__main__":
    total = sum(code_lines(path) for path in sorted(PACKAGE.rglob("*.py")))
    print(f"src/pdd: {total} code lines (lines holding a token other than a comment or a string)")
