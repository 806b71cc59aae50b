"""tools/code_lines.py: code lines without docstrings, comments or blanks."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SYNTHETIC = '''"""Module docstring,
over two lines."""

import os  # a comment


# a comment line
class Box:
    """Class docstring."""

    size = 3

    def area(self):
        """Method
        docstring."""
        text = """a string
that spans three lines
and counts"""
        return (self.size
                * self.size), text, f"{os.sep}"
'''


def test_synthetic_module_counts_code_lines_only():
    # import, class, size, def, the three lines of text, the two of return
    assert code_lines.code_lines(SYNTHETIC) == 9


def test_module_of_docstring_and_comments_has_no_code_line():
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n\n') == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SYNTHETIC, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     9  a.py", "     1  b.py", "    10  total", ""]
