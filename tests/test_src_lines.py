"""The line tally of tools/src_lines.py, on a small made-up module."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

MODULE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

# a comment only

class Thing:
    """Class docstring."""

    size = 2

    def area(self):
        """Function
        docstring.
        """
        text = """a string that is
        not a docstring"""
        return math.pi * self.size ** 2


async def fetch():
    """Async docstring."""
    # indented comment
    return None
'''


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    # code: the import, class, size, def, the string's two lines, the
    # return, async def and its return
    assert _tool().count(MODULE) == (len(MODULE.splitlines()), 9)


def test_each_exclusion_counts(tmp_path, capsys):
    tool = _tool()
    assert tool.count("x = 1\n") == (1, 1)
    assert tool.count("x = 1\n\n   \n") == (3, 1)  # blank
    assert tool.count("x = 1\n# note\n    # note\n") == (3, 1)  # comment only
    assert tool.count('"""doc\nmore"""\nx = 1\n') == (3, 1)  # module docstring
    assert tool.count('x = """not\na docstring"""\n') == (2, 2)  # a string is code
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n# note\n")
    assert tool.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    lines = len(MODULE.splitlines())
    assert [row.split() for row in out] == [
        ["module", "lines", "code"],
        ["a", str(lines), "9"],
        ["b", "2", "1"],
        ["total", str(lines + 2), "10"],
    ]
