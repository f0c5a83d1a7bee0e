"""The code-line counter in tools/: what counts as a code line."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from code_lines import code_lines  # noqa: E402

SOURCE = '''"""Module docstring,
on two lines."""
import os  # a comment on a code line

# a comment line


def f(x):
    """Function docstring."""
    text = """a string
    that is a value"""
    "a bare string statement"
    return (x,
            text)


class C:
    """Class docstring."""
    value = "not a docstring"
'''


def test_counts_lines_holding_a_token_other_than_a_comment_or_docstring():
    # import, def, the two lines of the string value, the two lines of the
    # return, class and value.
    assert code_lines(SOURCE) == 8


def test_empty_and_comment_only_sources_count_zero():
    assert code_lines("") == 0
    assert code_lines("# only a comment\n\n") == 0
