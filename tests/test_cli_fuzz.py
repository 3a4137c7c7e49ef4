"""CLI fuzzing: `main` on random argv, config files, the JSON files a config
names, PLA files and stdin exits 0-3, lets no exception out, prints no
traceback, and writes a stderr line whenever it exits 2 or 3.

Every case runs in a fresh temporary directory that holds its files under
fixed names; argv and config lines name them relatively. No generated path
contains '/' or '..' except the fixed `out_dir` values below, so every file
the CLI writes stays in that directory.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_pla_fuzz import mutated_pla

from mvq.circuits import CIRCUIT_IDS
from mvq.cli import main
from mvq.netlist import GateKind

CFG, COSTS, VOLTS, PLA = "cfg", "costs.json", "volts.json", "in.pla"
CIRCUITS = (*CIRCUIT_IDS, "bogus")
# subcommand -> (positional arguments, the values they draw from, its options)
SHAPES = {
    "table": (1, CIRCUITS, (["--bits"],)),
    "verify": (1, (*CIRCUITS, "all"), ()),
    "metrics": (1, (*CIRCUITS, "all"), ()),
    "minimize": (1, (PLA, "-", "none", "."), (["--xor"],)),
    "audit": (0, (), ()),
    "sim": (1, CIRCUITS, (
        ["--volts"], ["--csv", "-"], ["--csv", "x.csv"], ["--csv", "sub/x.csv"],
        ["--csv", "."], ["--vcd", "-"], ["--vcd", "x.vcd"], ["--vcd", "missing/x.vcd"],
    )),
    "compare": (2, CIRCUITS, ()),
}
COMMON_OPTIONS = (["--config", "none"], ["--config", "-"], ["--config", "."], ["--help"])
OUT_DIRS = (".", "", "sub", "missing/dir", "a\x00b")

# NaN and infinities included: json.dumps writes them as NaN and Infinity
json_leaf = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
json_values = st.recursive(
    json_leaf,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=10,
)
cost_tables = st.dictionaries(
    st.sampled_from([k.value for k in GateKind]) | st.text(max_size=4),
    st.integers(-1, 40) | json_leaf,
    max_size=len(GateKind),
)
voltage = st.floats(-5, 5) | json_leaf
voltage_maps = st.fixed_dictionaries({
    "quat": st.lists(st.integers(-9, 9), min_size=4, max_size=4, unique=True).map(sorted)
    | st.lists(voltage, max_size=5),
    "bin": st.lists(st.integers(-9, 9), min_size=2, max_size=2, unique=True).map(sorted)
    | st.lists(voltage, max_size=3),
})


def json_files(docs):
    return st.one_of(
        docs.map(lambda doc: json.dumps(doc).encode()),
        json_values.map(lambda doc: json.dumps(doc).encode()),
        st.sampled_from((b"[" * 100000, b"{", b"", b"\xff", b"1" * 5000)),
        st.binary(max_size=24),
    )


config_lines = st.one_of(
    st.sampled_from((
        f"cost_table={COSTS}", f"voltage_map={VOLTS}", "cost_table=none",
        "voltage_map=none", "volts=3", "# comment", "", "just text",
    )).map(str.encode),
    st.sampled_from(OUT_DIRS).map(lambda d: f"out_dir={d}".encode()),
    # junk may name the JSON keys but never out_dir, which picks where files go
    st.binary(max_size=20).filter(lambda b: b"out_dir" not in b),
)
files = st.fixed_dictionaries({}, optional={
    CFG: st.lists(config_lines, max_size=5).map(lambda ls: b"\n".join(ls) + b"\n"),
    COSTS: json_files(cost_tables),
    VOLTS: json_files(voltage_maps),
    PLA: mutated_pla().map(str.encode) | st.binary(max_size=40),
})
# junk argv tokens: never a path with a directory part
junk = st.text(max_size=6).filter(lambda t: "/" not in t)


@st.composite
def argvs(draw):
    """A subcommand with its positional arguments and a few options, maybe
    with a junk token inserted anywhere, the subcommand's place included."""
    sub = draw(st.sampled_from(list(SHAPES)))
    count, values, options = SHAPES[sub]
    argv = [sub] + [draw(st.sampled_from(values)) for _ in range(count)]
    for option in draw(st.lists(st.sampled_from(options + COMMON_OPTIONS), max_size=3)):
        argv += option
    if draw(st.booleans()):
        argv += ["--config", CFG]
    for token in draw(st.lists(junk, max_size=1)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


def run_in(tmp, argv, files, stdin):
    """main(argv) in directory tmp holding files, with a strict UTF-8 stdin
    over the given bytes: (exit code, stdout, stderr)."""
    os.mkdir(os.path.join(tmp, "sub"))
    for name, content in files.items():
        with open(os.path.join(tmp, name), "wb") as fh:
            fh.write(content)
    out, err = io.StringIO(), io.StringIO()
    strict_stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        with mock.patch.object(sys, "stdin", strict_stdin):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


BOOL_VOLTS = b'{"quat": [false, true, "2", 3], "bin": [false, "3.3"]}'
NAN_VOLTS = b'{"quat": [0, 1, NaN, 3], "bin": [0, Infinity]}'


@settings(max_examples=120, deadline=None)
# each pinned case also pins its exit code and an empty stdout
@example(["verify", "q2b", "--config", CFG], {CFG: b"out_dir=\xff\n"}, b"", 2)
@example(["minimize", PLA], {PLA: b".i 1\n.o 1\n\xff 1\n.e\n"}, b"", 2)
@example(["minimize", "-"], {}, b".i 1\n.o 1\n\xff 1\n.e\n", 2)
@example(["sim", "q2b", "--csv", "x.csv", "--config", CFG], {CFG: b"out_dir=a\x00b\n"}, b"", 2)
@example(["metrics", "q2b", "--config", CFG], {CFG: b"cost_table=a\x00b\n"}, b"", 2)
@example(["metrics", "q2b", "--config", CFG], {CFG: b"voltage_map=a\x00b\n"}, b"", 2)
@example(
    ["sim", "q2b", "--volts", "--config", CFG],
    {CFG: f"voltage_map={VOLTS}\n".encode(), VOLTS: BOOL_VOLTS}, b"", 2,
)
@example(
    ["sim", "q2b", "--volts", "--config", CFG],
    {CFG: f"voltage_map={VOLTS}\n".encode(), VOLTS: NAN_VOLTS}, b"", 2,
)
@given(argvs(), files, st.binary(max_size=40) | mutated_pla().map(str.encode), st.none())
def test_main_exits_0_to_3_without_traceback(argv, files, stdin, expect):
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run_in(tmp, argv, files, stdin)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code >= 2:
        assert err.strip(), "a failure exit must say why on stderr"
    if expect is not None:
        assert (code, out) == (expect, "")
