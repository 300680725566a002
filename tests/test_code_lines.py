"""Tests of ``tools/code_lines.py``, the size metric: the physical lines that
hold code, without blank lines, comments or docstrings."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

MODULE = '''"""Module docstring,
over two lines."""

import math  # a comment after code

# a comment line


class Shape:
    """Class docstring."""

    sides = 4


def area(
    width,
    height,
):
    """Function docstring
    over two lines.
    """
    text = """a string that is
not a docstring"""
    total = (width
             * height)
    return total + len(text) + math.pi
'''


def test_docstring_lines():
    assert code_lines.docstring_lines(MODULE) == {1, 2, 10, 19, 20, 21}


def test_module():
    # import, class, sides, the four lines of the signature, the two of the
    # string, the two of the continued statement, return
    assert code_lines.code_lines(MODULE) == 12


@pytest.mark.parametrize(
    "source, count",
    [
        ('"""Only a docstring."""\n', 0),
        ("\n\n# one comment\n\n", 0),
        ("x = 1  # a comment after code\n\n# a comment line\ny = 2\n", 2),
        ('x = """a string\n\nover three lines"""\n', 3),
        ("x = (1 +\n     2)\ny = 1 + \\\n    2\n", 4),
        ('class A:\n    """Doc."""\n\n\nclass B:\n    x = 1\n', 3),
        ('def f():\n    """Doc."""\n    return 1\n', 2),
        ('async def f():\n    """Doc."""\n', 1),
        ('def f():\n    x = 1\n    "not the first statement"\n', 3),
    ],
)
def test_counts(source, count):
    assert code_lines.code_lines(source) == count


def test_main(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["a.py     12", "b.py      1", "total     13"]


def test_usage(tmp_path, capsys):
    assert code_lines.main([str(tmp_path / "missing")]) == 2
    assert code_lines.main([]) == 2
    assert "usage" in capsys.readouterr().err
