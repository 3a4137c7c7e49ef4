"""Reachability audit: which functions under src/mvq does no command call?

    python3 tools/reach.py

Runs `mvq.cli.main` in this process on every subcommand, under
`sys.setprofile`: the README's examples, `sim --volts`, a five-variable PLA
whose minimum reaches the XOR recognizer's pairwise pass, a `--config` file
with a cost table, a voltage map and an output directory, and three command
lines that exit 2 (an unknown circuit, an unknown subcommand and a PLA
without `.e`). Each command must exit with its own code. All files are
written in a temporary directory, and the commands' stdout and stderr are
discarded. It
prints each function defined under src/mvq that none of those calls entered,
as `path:line qualified.name (lines)`, then a total. What it lists is either
library API that no command reaches or code to delete; the audit is not a
test and gates nothing.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mvq"

# the cubes of the README's m1.pla minimum, and x0 (x1 ^ x2) + x3 x4, whose
# minimum has three cubes over five variables, past the whole-expression XOR
# search
PLAS = {
    "m1.pla": ".i 4\n.o 1\n.ilb x1 x2 y1 y2\n10-1 1\n1-01 1\n011- 1\n-110 1\n.e\n",
    "m5.pla": ".i 5\n.o 1\n110-- 1\n101-- 1\n---11 1\n.e\n",
    "open.pla": ".i 2\n.o 1\n11 1\n",
}
CONFIG = {
    "costs.json": (
        '{"not": 2, "and2": 6, "and3": 8, "and4": 10, "or2": 6, "or3": 8, "or4": 10,'
        ' "xor2": 12, "nand2": 4, "nor2": 4, "andn2": 6, "bmux2": 6, "dlc1": 3,'
        ' "dlc2": 3, "dlc3": 3, "b2q": 8, "qmux4": 20}\n'
    ),
    "volts.json": '{"quat": [0.0, 1.1, 2.2, 3.3], "bin": [0.0, 3.3]}\n',
    "mvq.cfg": "cost_table=costs.json\nvoltage_map=volts.json\nout_dir=traces\n",
}
# each command line with the exit code it must give
CALLS = [
    (["table", "mod4-mul"], 0),
    (["table", "mod4-mul", "--bits"], 0),
    (["verify", "all"], 0),
    (["metrics", "gf4-mul-mux"], 0),
    (["metrics", "all"], 0),
    (["minimize", "m1.pla", "--xor"], 0),
    (["minimize", "m5.pla", "--xor"], 0),
    (["audit"], 0),
    (["sim", "q2b", "--csv", "-"], 0),
    (["sim", "q2b", "--csv", "q2b.csv", "--vcd", "q2b.vcd"], 0),
    (["sim", "gf4-mul-mux", "--csv", "-", "--volts"], 0),
    (["compare", "gf4-mul-mux", "gf4-mul-sop"], 0),
    (["metrics", "all", "--config", "mvq.cfg"], 0),
    (["sim", "mod4-add", "--csv", "add.csv", "--vcd", "-", "--volts", "--config", "mvq.cfg"], 0),
    (["table", "nosuch"], 2),
    (["frobnicate"], 2),
    (["minimize", "open.pla"], 2),
]


def defined() -> list[tuple[str, int, str, int]]:
    """(path, first line, qualified name, line count) of every function
    under src/mvq. The first line is the first decorator's, as in the
    function's code object."""
    found = []

    def walk(path: Path, node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found.append((str(path), first, name, child.end_lineno - first + 1))
                walk(path, child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(path, child, prefix + child.name + ".")

    for path in sorted(SRC.glob("*.py")):
        walk(path, ast.parse(path.read_text()), "")
    return found


def called() -> set[tuple[str, int]]:
    """(path, first line) of every code object the commands entered."""
    seen: set[tuple[str, int]] = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    sys.path.insert(0, str(ROOT / "src"))
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, text in {**PLAS, **CONFIG}.items():
            Path(name).write_text(text)
        os.mkdir("traces")
        sys.setprofile(hook)
        try:
            from mvq import cli

            for argv, want in CALLS:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                if code != want:
                    sys.exit(f"mvq {' '.join(argv)} exited {code}, not {want}")
        finally:
            sys.setprofile(None)
            os.chdir(home)
    return seen


def main() -> int:
    seen = called()
    missed = [f for f in defined() if f[:2] not in seen]
    for path, line, name, size in missed:
        print(f"{os.path.relpath(path, ROOT)}:{line} {name} ({size} lines)")
    total = sum(f[3] for f in missed)
    print(f"{len(missed)} functions, {total} lines, never called by {len(CALLS)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
