"""Count the code lines of Python files: lines holding a token other than a
comment or a docstring.

A docstring is a string literal that forms a statement on its own (module,
class and function docstrings, and any other bare string statement). Blank
lines, comment lines and docstring lines do not count; a line counts once
however many tokens it holds, and a token that spans lines counts on each.

    python tools/code_lines.py src/projlat

prints the total over the given files and every ``*.py`` file under the
given directories.
"""
from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
_LAYOUT = _STATEMENT_START | {tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` holding a token other than a
    comment or a docstring."""
    tokens = [
        token
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type not in (tokenize.COMMENT, tokenize.NL)
    ]
    lines: set[int] = set()
    for k, token in enumerate(tokens):
        if token.type in _LAYOUT:
            continue
        # The file starts a statement; it ends with an ENDMARKER token,
        # so every other token has one after it.
        before = tokens[k - 1].type if k else tokenize.NEWLINE
        docstring = (
            token.type == tokenize.STRING
            and before in _STATEMENT_START
            and tokens[k + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        if not docstring:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", type=Path)
    args = parser.parse_args(argv)
    files = [f for path in args.paths for f in (path.rglob("*.py") if path.is_dir() else [path])]
    print(sum(code_lines(f.read_text(encoding="utf-8")) for f in files))
    return 0


if __name__ == "__main__":
    sys.exit(main())
