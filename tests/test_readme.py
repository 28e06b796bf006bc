"""README's CLI block: each ``latslice ...  # expected`` line prints its commented text."""

import re
import shlex
from pathlib import Path

import pytest

from latslice import cli

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = re.findall(r"^latslice (.+?)\s+# (.+)$", README.read_text(encoding="utf-8"), re.M)


def test_readme_has_commented_examples():
    # the six of count, volume, minima, both slices and pick: a regex that stopped matching would skip them
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("argv, expected", EXAMPLES)
def test_readme_example_prints_its_comment(capsys, argv, expected):
    assert cli.main(shlex.split(argv)) == 0
    assert expected in capsys.readouterr().out
