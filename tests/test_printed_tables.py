"""Differential tests of what `table`, `compare` and `sim` print.

The commands print from the truth tables and sweep texts the process keeps
per circuit. Each output here is checked against a reference made the plain
way on a netlist built for the test alone: `_format_columns` (or the grid
loop) over `truth_table().rows`, a row walk over two views, and the exports
of `run(nl, sweep_all(nl))`.
"""

import dataclasses

import pytest
from test_cli import run_cli

from mvq.circuits import CIRCUIT_IDS, REGISTRY, quat_view
from mvq.cli import _format_columns
from mvq.netlist import Netlist, SignalType
from mvq.sim import export_csv, export_vcd, run, sweep_all, voltage_view

B, Q = SignalType.BIN, SignalType.QUAT


def _fresh(cid, bits):
    return REGISTRY[cid].build() if bits else quat_view(cid)


def _table_text(cid, bits):
    """What `mvq table` prints, from a fresh netlist's rows."""
    tt = _fresh(cid, bits).truth_table()
    two_quat_in = (
        len(tt.inputs) == 2
        and all(sig is SignalType.QUAT for _, sig in tt.inputs)
        and len(tt.outputs) == 1
    )
    if two_quat_in and not bits:
        grid = {ins: outs[0] for ins, outs in tt.rows}
        lines = ["x\\y | 0 1 2 3", "----+--------"]
        for a in range(4):
            lines.append(f"{a:>3} | " + " ".join(str(grid[(a, b)]) for b in range(4)))
        return "\n".join(lines) + "\n"
    headers = [name for name, _ in tt.inputs] + [name for name, _ in tt.outputs]
    rows = [[str(v) for v in ins + outs] for ins, outs in tt.rows]
    return _format_columns(headers, rows) + "\n"


def _compare_result(a, b):
    """(exit code, stdout) of `mvq compare a b`, from a row walk over fresh
    views, or None where the port shapes differ."""
    va, vb = quat_view(a), quat_view(b)
    if va.input_ports != vb.input_ports or va.output_ports != vb.output_ports:
        return None
    ta, tb = va.truth_table(), vb.truth_table()
    for (ins, outs_a), (_, outs_b) in zip(ta.rows, tb.rows):
        if outs_a != outs_b:
            where = " ".join(f"{name}={v}" for (name, _), v in zip(ta.inputs, ins))
            return 1, f"DIFFER at {where}: {outs_a[0]} vs {outs_b[0]}\n"
    return 0, f"EQUAL ({len(ta.rows)} vectors)\n"


@pytest.mark.parametrize("bits", [False, True], ids=["view", "bits"])
@pytest.mark.parametrize("cid", CIRCUIT_IDS)
def test_table_prints_what_the_rows_of_a_fresh_netlist_give(capsys, cid, bits):
    argv = ["table", cid] + ["--bits"] * bits
    want = (0, _table_text(cid, bits), "")
    assert run_cli(capsys, *argv) == want
    assert run_cli(capsys, *argv) == want


def test_the_grid_is_printed_for_the_two_operand_circuits():
    grid = {cid for cid in CIRCUIT_IDS if _table_text(cid, False).startswith("x\\y | ")}
    assert grid == {
        "mod4-add", "mod4-sub", "mod4-mul", "gf4-add", "gf4-mul-sop", "gf4-mul-mux",
    }


def _odd_ports():
    # port names of widths 0, 8 and 1: an empty name is padded to one column
    n = Netlist([("", B), ("carry_in", Q)], [("s", Q), ("c", B)])
    n.connect_output("s", n.input_net("carry_in"))
    n.connect_output("c", n.input_net(""))
    return n


@pytest.mark.parametrize("bits", [False, True], ids=["view", "bits"])
def test_table_pads_columns_as_format_columns_does(capsys, monkeypatch, bits):
    monkeypatch.setitem(REGISTRY, "b2q", dataclasses.replace(REGISTRY["b2q"], build=_odd_ports))
    argv = ["table", "b2q"] + ["--bits"] * bits
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (0, _table_text("b2q", bits))
    assert out.splitlines()[:3] == ["  carry_in s c", "0 0        0 0", "0 1        1 0"]


@pytest.mark.parametrize("a", CIRCUIT_IDS)
def test_compare_prints_what_a_row_walk_over_fresh_views_gives(capsys, a):
    for b in CIRCUIT_IDS:
        want = _compare_result(a, b)
        code, out, err = run_cli(capsys, "compare", a, b)
        if want is None:
            assert (code, out) == (2, ""), (a, b)
            assert err.startswith(f"port shapes differ: {a} is "), (a, b)
        else:
            assert (code, out, err) == (*want, ""), (a, b)


@pytest.mark.parametrize("cid", CIRCUIT_IDS)
def test_sim_prints_the_exports_of_a_fresh_sweep(capsys, cid):
    nl = REGISTRY[cid].build()
    trace = run(nl, sweep_all(nl))
    for flags, text in (
        ([], export_csv(trace)),
        (["--volts"], voltage_view(trace)),
        (["--vcd", "-"], export_vcd(trace)),
        (["--csv", "-", "--vcd", "-"], export_csv(trace) + export_vcd(trace)),
    ):
        assert run_cli(capsys, "sim", cid, *flags) == (0, text, ""), flags
