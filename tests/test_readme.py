"""Run the README's Python examples as doctests, and its console examples.

`python -m doctest README.md` reads each closing code fence as expected
output, so the ```python blocks are cut out first and parsed one by one.
The blocks are named example1, example2, ... in order, so that editing
prose above a block does not rename its test.  The `qmelon schur` and
`qmelon count` commands of the plain code blocks run through `cli.main`
and must print exactly the lines shown under them.
"""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from qmelon import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)
PLAIN_BLOCK = re.compile(r"^```\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def python_blocks():
    """(line number of the opening fence, block body) for each ```python block."""
    return [(TEXT.count("\n", 0, m.start()) + 1, m.group(1))
            for m in BLOCK.finditer(TEXT)]


def console_examples():
    """(argv, printed output) for each `$ qmelon schur|count` of the plain blocks.

    A command is one line starting with `$ qmelon`; its output runs to the
    next blank line.
    """
    out = []
    for block in PLAIN_BLOCK.finditer(TEXT):
        for chunk in block.group(1).split("\n\n"):
            command, *printed = chunk.splitlines()
            argv = shlex.split(command)
            if argv[:2] == ["$", "qmelon"] and argv[2] in ("schur", "count"):
                out.append((argv[2:], "".join(line + "\n" for line in printed)))
    return out


BLOCKS = python_blocks()
CONSOLE = console_examples()


def test_readme_has_examples():
    examples = [doctest.DocTestParser().get_examples(block) for _, block in BLOCKS]
    assert sum(map(len, examples)) >= 16
    assert len(CONSOLE) == 3


@pytest.mark.parametrize("line,block",
                         [pytest.param(line, block, id=f"example{i}")
                          for i, (line, block) in enumerate(BLOCKS, start=1)])
def test_readme_example(line, block):
    test = doctest.DocTestParser().get_doctest(block, {}, f"README.md:{line}",
                                               str(README), line)
    out = []
    result = doctest.DocTestRunner().run(test, out=out.append)
    assert result.failed == 0, "".join(out)


@pytest.mark.parametrize("argv,printed",
                         [pytest.param(argv, printed, id=f"console{i}")
                          for i, (argv, printed) in enumerate(CONSOLE, start=1)])
def test_readme_console_example(capsys, argv, printed):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == printed
