"""README's examples run: each ``latslice ...  # expected`` line of the CLI block
prints its commented text, and each ``expr  # value`` line of the Library
block evaluates to a value its comment starts with."""

import re
import shlex
from pathlib import Path

import pytest

from latslice import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
EXAMPLES = re.findall(r"^latslice (.+?)\s+# (.+)$", TEXT, re.M)
LIBRARY = re.search(r"^## Library\n\n```python\n(.*?)^```$", TEXT, re.M | re.S).group(1)


def test_readme_has_commented_examples():
    # the six of count, volume, minima, both slices and pick: a regex that stopped matching would skip them
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("argv, expected", EXAMPLES)
def test_readme_example_prints_its_comment(capsys, argv, expected):
    assert cli.main(shlex.split(argv)) == 0
    assert expected in capsys.readouterr().out


def _render(value):
    """str of the value, a tuple element by element, so that (1/3, 2) reads as the comment does."""
    return "(" + ", ".join(map(str, value)) + ")" if isinstance(value, tuple) else str(value)


def test_readme_library_block_runs_and_matches_its_comments():
    namespace = {}
    checked = []
    for line in LIBRARY.splitlines():
        commented = re.fullmatch(r"(.+?)\s+# (.+)", line)
        if commented is None:
            exec(line, namespace)
            continue
        expr, comment = commented.groups()
        value = _render(eval(expr, namespace))
        assert comment.startswith(value), (expr, value, comment)
        checked.append(expr)
    # total, minima, volume, both max slices, the from_normals basis and the observed constant
    assert len(checked) >= 7
