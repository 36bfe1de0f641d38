"""Run the README's Python examples as doctests.

`python -m doctest README.md` reads each closing code fence as expected
output, so the ```python blocks are cut out first and parsed one by one.
"""

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def python_blocks():
    """(line number of the opening fence, block body) for each ```python block."""
    text = README.read_text(encoding="utf-8")
    return [(text.count("\n", 0, m.start()) + 1, m.group(1))
            for m in BLOCK.finditer(text)]


BLOCKS = python_blocks()


def test_readme_has_examples():
    examples = [doctest.DocTestParser().get_examples(block) for _, block in BLOCKS]
    assert sum(map(len, examples)) >= 16


@pytest.mark.parametrize("line,block",
                         [pytest.param(line, block, id=f"line{line}")
                          for line, block in BLOCKS])
def test_readme_example(line, block):
    test = doctest.DocTestParser().get_doctest(block, {}, f"README.md:{line}",
                                               str(README), line)
    out = []
    result = doctest.DocTestRunner().run(test, out=out.append)
    assert result.failed == 0, "".join(out)
