"""The README's `$ mvq ...` examples, run through the CLI.

A complete example must match stdout byte for byte. An example elided with
`...` lines must show its other lines in order. The README does not ship
`m1.pla`, so each example runs in a directory that holds one written from
the defining table of the mod-4 product's high bit.
"""

import re
import shlex
from pathlib import Path

import pytest

from mvq.arith_core import OpKind
from mvq.cli import main
from mvq.minimizer import bit_table_spec

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    found = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S):
        first, *expected = block.splitlines()
        if first.startswith("$ mvq "):
            found.append((shlex.split(first[len("$ mvq "):]), expected))
    return found


EXAMPLES = _examples()


def _m1_pla():
    spec = bit_table_spec(OpKind.MOD4_MUL, 0)
    rows = "".join(f"{i:04b} 1\n" for i, out in enumerate(spec.outputs) if out == 1)
    return f".i 4\n.o 1\n.ilb x1 x2 y1 y2\n{rows}.e\n"


def test_readme_examples_cover_every_runnable_subcommand():
    assert {argv[0] for argv, _ in EXAMPLES} == {
        "table", "verify", "metrics", "minimize", "audit", "sim", "compare",
    }


@pytest.mark.parametrize(
    "argv, expected", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES]
)
def test_readme_example(capsys, tmp_path, monkeypatch, argv, expected):
    (tmp_path / "m1.pla").write_text(_m1_pla())
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    if "..." in expected:
        lines = iter(out.splitlines())
        shown = [line for line in expected if line != "..."]
        assert all(line in lines for line in shown)
    else:
        assert out == "".join(line + "\n" for line in expected)
