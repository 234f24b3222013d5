"""The code-line counter of ``tools/code_lines.py`` on a fixture module."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line

# a comment line


class A:
    """Class docstring."""

    x = """a string that is
not a docstring"""

    def f(self,
          y):
        """Function docstring,

        with a blank line inside.
        """
        return (y +
                1)


async def g():
    """Async docstring."""
    return 2
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # counted: import, class, both lines of x, both lines of the def, both
    # lines of the return, async def, return
    assert _tool().code_lines(FIXTURE) == 10


def test_code_lines_of_the_package_add_up(capsys):
    tool = _tool()
    assert tool.main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][1] == "total"
    assert int(rows[-1][0]) == sum(int(n) for n, _ in rows[:-1])
    assert {name for _, name in rows[:-1]} == {p.name for p in tool.PACKAGE.glob("*.py")}
