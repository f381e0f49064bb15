"""``scripts/code_lines.py`` counts code lines: it leaves out blank
lines, comment-only lines and docstrings, and counts every line of a
multi-line expression or string that is not a docstring."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
import code_lines  # noqa: E402

FIXTURE = '''"""A module docstring
over two lines."""

import os  # a comment after code leaves the line a code line


# a comment alone
def f(x):
    """A function docstring."""
    y = (x +
         1)
    return "a string, not a docstring"


class C:
    """A class
    docstring."""
    s = """a string that
spans two lines"""
'''


def test_the_fixture_has_eight_code_lines():
    # import, def, the two lines of y, return, class and the two of s
    assert code_lines.code_lines(FIXTURE) == 8


def test_every_module_of_the_package_is_counted():
    package = ROOT / "src" / "dualkit"
    counts = code_lines.count_package(package)
    assert set(counts) == {p.relative_to(package).as_posix()
                           for p in package.rglob("*.py")}
    assert all(n > 0 for n in counts.values())
