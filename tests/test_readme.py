"""The README's `$ mvq ...` examples, run through the CLI.

A complete example must match stdout byte for byte. An example elided with
`...` lines must show its other lines in order. `minimize m1.pla` is skipped
because the README does not ship that file.
"""

import re
import shlex
from pathlib import Path

import pytest

from mvq.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    found = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S):
        first, *expected = block.splitlines()
        if first.startswith("$ mvq "):
            argv = shlex.split(first[len("$ mvq "):])
            if argv[0] != "minimize":
                found.append((argv, expected))
    return found


EXAMPLES = _examples()


def test_readme_examples_cover_every_runnable_subcommand():
    assert {argv[0] for argv, _ in EXAMPLES} == {
        "table", "verify", "metrics", "audit", "sim", "compare",
    }


@pytest.mark.parametrize(
    "argv, expected", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES]
)
def test_readme_example(capsys, argv, expected):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    if "..." in expected:
        lines = iter(out.splitlines())
        shown = [line for line in expected if line != "..."]
        assert all(line in lines for line in shown)
    else:
        assert out == "".join(line + "\n" for line in expected)
