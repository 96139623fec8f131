"""The code-line counter in tools/."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from code_lines import code_lines  # noqa: E402

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment keeps its line


class C:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string that is not a docstring
spans lines"""
        return (text,
                os.sep)
'''


def test_counts_code_lines_only():
    # import, class, def, the two lines of `text` and the two of `return`
    assert code_lines(SOURCE) == 7


def test_blank_comment_and_docstring_only_sources_count_zero():
    assert code_lines("") == 0
    assert code_lines("\n# only a comment\n\n") == 0
    assert code_lines('"""Only a docstring."""\n') == 0
