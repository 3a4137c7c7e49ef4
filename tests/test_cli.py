"""CLI behavior: output formats, exit codes, config handling."""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from test_readme import EXAMPLES as README_EXAMPLES
from test_readme import _m1_pla

import mvq.cli
from mvq import circuits, minimizer, sim
from mvq.cli import main
from mvq.netlist import GateKind, Netlist, SignalType

B = SignalType.BIN

A2_PLA = """\
.i 4
.o 1
0001 1
0011 1
0100 1
0110 1
1001 1
1011 1
1100 1
1110 1
.e
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_grid(capsys):
    code, out, _ = run_cli(capsys, "table", "mod4-add")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x\\y | 0 1 2 3"
    assert lines[2] == "  0 | 0 1 2 3"
    assert lines[3] == "  1 | 1 2 3 0"
    assert lines[5] == "  3 | 3 0 1 2"


def test_table_q2b_listing(capsys):
    code, out, _ = run_cli(capsys, "table", "q2b")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["q", "x1", "x2"]
    assert len(lines) == 5
    assert lines[3].split() == ["2", "1", "0"]


def test_table_bits_view(capsys):
    code, out, _ = run_cli(capsys, "table", "mod4-add", "--bits")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["x1", "x2", "y1", "y2", "a1", "a2"]
    assert len(lines) == 17
    # 2+3: x=(1,0) y=(1,1) -> a=(0,1)
    assert lines[1 + 0b1011].split() == ["1", "0", "1", "1", "0", "1"]


def test_table_unknown_circuit(capsys):
    code, _, err = run_cli(capsys, "table", "bogus")
    assert code == 2
    assert "unknown circuit" in err


def test_verify_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "all")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert lines[0] == "q2b: PASS (4 vectors)"
    assert lines[-1] == "10/10 circuits PASS"


def test_verify_single(capsys):
    code, out, _ = run_cli(capsys, "verify", "gf4-mul-mux")
    assert code == 0
    assert out == "gf4-mul-mux: PASS (16 vectors)\n"


def test_verify_unknown(capsys):
    code, _, err = run_cli(capsys, "verify", "nope")
    assert code == 2


def test_verify_corrupted_netlist(capsys, monkeypatch):
    def broken():
        n = Netlist([("x1", B), ("x2", B)], [("n1", B), ("n2", B)])
        n.connect_output("n1", n.input_net("x1"))  # wrong: drops the xor
        n.connect_output("n2", n.input_net("x2"))
        return n

    info = circuits.REGISTRY["mod4-neg"]
    monkeypatch.setitem(
        circuits.REGISTRY, "mod4-neg", dataclasses.replace(info, build=broken)
    )
    code, out, _ = run_cli(capsys, "verify", "mod4-neg")
    assert code == 1
    assert "FAIL" in out and "got" in out
    code, out, _ = run_cli(capsys, "verify", "all")
    assert code == 1
    assert "9/10 circuits PASS" in out


def test_metrics_adder(capsys):
    code, out, _ = run_cli(capsys, "metrics", "mod4-add")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "circuit: mod4-add (mod-4 adder)"
    assert "gates: 4" in lines
    assert "depth: 2" in lines
    assert "transistor estimate: 36" in lines
    assert "kinds: and2=1 xor2=3" in lines
    assert any(ln.startswith("published transistors: 40 (") for ln in lines)


def test_metrics_mux_multiplier(capsys):
    code, out, _ = run_cli(capsys, "metrics", "gf4-mul-mux")
    assert code == 0
    assert "qconst=4 qmux4=3" in out
    assert "gates: 3" in out
    assert "published transistors: 72" in out


def test_metrics_negator_and_doubler(capsys):
    code, out, _ = run_cli(capsys, "metrics", "mod4-neg")
    assert code == 0 and "gates: 1" in out
    code, out, _ = run_cli(capsys, "metrics", "mod4-dbl")
    assert code == 0 and "gates: 0" in out and "depth: 0" in out
    assert "published transistors" not in out


def test_metrics_custom_cost_table(capsys, tmp_path):
    cost_path = tmp_path / "costs=1.json"  # a config value may hold "="
    cfg = tmp_path / "cfg"
    cfg.write_text(f"cost_table={cost_path}\n")
    for cost in (1, 0):  # a cost of 0 is allowed
        cost_path.write_text(json.dumps({k.value: cost for k in GateKind}))
        code, out, _ = run_cli(
            capsys, "metrics", "mod4-add", "--config", str(cfg)
        )
        assert code == 0
        assert f"transistor estimate: {4 * cost}" in out


def test_metrics_cost_of_a_constant_is_ignored_with_a_warning(capsys, tmp_path):
    # the default costs with qconst set to 50: gf4-mul-mux has four qconst
    # gates, and constants are free wiring
    costs = {k.value: k.cost for k in GateKind if k.cost is not None}
    cost_path = tmp_path / "costs.json"
    cost_path.write_text(json.dumps(costs | {"qconst": 50}))
    cfg = tmp_path / "cfg"
    cfg.write_text(f"cost_table={cost_path}\n")
    code, out, err = run_cli(capsys, "metrics", "gf4-mul-mux", "--config", str(cfg))
    _, default_out, _ = run_cli(capsys, "metrics", "gf4-mul-mux")
    assert code == 0
    assert out == default_out and "transistor estimate: 72" in out
    assert err == "warning: cost for 'qconst' ignored; constants are free wiring\n"


def test_cost_table_warns_once_per_constant_key(capsys, tmp_path):
    costs = {k.value: 1 for k in GateKind}
    cost_path = tmp_path / "costs.json"
    cost_path.write_text(json.dumps(costs))
    cfg = tmp_path / "cfg"
    cfg.write_text(f"cost_table={cost_path}\n")
    code, _, err = run_cli(capsys, "verify", "q2b", "--config", str(cfg))
    assert code == 0
    assert err.splitlines() == [
        f"warning: cost for {k!r} ignored; constants are free wiring"
        for k in costs if k in ("const0", "const1", "qconst")
    ]


@pytest.mark.parametrize("bad", [-1, 1.5, "3", True, None])
def test_cost_table_values_must_be_non_negative_ints(capsys, tmp_path, bad):
    cost_path = tmp_path / "costs.json"
    cost_path.write_text(json.dumps({k.value: 1 for k in GateKind} | {"and2": bad}))
    cfg = tmp_path / "cfg"
    cfg.write_text(f"cost_table={cost_path}\n")
    code, out, err = run_cli(capsys, "metrics", "mod4-add", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "cost for 'and2' must be a non-negative integer" in err


def test_metrics_missing_cost_entry(capsys, tmp_path):
    cost_path = tmp_path / "costs.json"
    cost_path.write_text(json.dumps({"and2": 6}))
    cfg = tmp_path / "cfg"
    cfg.write_text(f"cost_table={cost_path}\n")
    code, _, err = run_cli(
        capsys, "metrics", "mod4-add", "--config", str(cfg)
    )
    assert code == 2
    assert "no entry" in err


def test_metrics_all(capsys):
    code, out, _ = run_cli(capsys, "metrics", "all")
    assert code == 0
    blocks = out.split("\n\n")
    assert [b.splitlines()[0].split()[1] for b in blocks] == list(
        circuits.CIRCUIT_IDS
    )
    _, single, _ = run_cli(capsys, "metrics", "mod4-add")
    assert blocks[circuits.CIRCUIT_IDS.index("mod4-add")] + "\n" == single


def test_metrics_all_missing_cost_entry_prints_nothing(capsys, tmp_path):
    # only the last circuit, gf4-mul-mux, uses qmux4
    costs = {k.value: 1 for k in GateKind if k is not GateKind.QMUX4}
    cost_path = tmp_path / "costs.json"
    cost_path.write_text(json.dumps(costs))
    cfg = tmp_path / "cfg"
    cfg.write_text(f"cost_table={cost_path}\n")
    code, out, err = run_cli(capsys, "metrics", "all", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "no entry for qmux4" in err


def test_minimize(capsys, tmp_path):
    pla = tmp_path / "a2.pla"
    pla.write_text(A2_PLA)
    code, out, _ = run_cli(capsys, "minimize", str(pla))
    assert code == 0
    assert out == "x2 y2' + x2' y2\n"


def test_minimize_xor(capsys, tmp_path):
    pla = tmp_path / "a2.pla"
    pla.write_text(A2_PLA)
    code, out, _ = run_cli(capsys, "minimize", str(pla), "--xor")
    assert code == 0
    assert out.splitlines() == [
        "x2 y2' + x2' y2",
        "x2 ^ y2",
        "two-input gates: 1",
    ]


def test_minimize_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(".i 1\n.o 1\n1 1\n.e\n"))
    code, out, _ = run_cli(capsys, "minimize", "-")
    assert code == 0
    assert out == "x1\n"


def test_minimize_parse_error(capsys, tmp_path):
    pla = tmp_path / "bad.pla"
    pla.write_text(".i 2\n.o 1\n111 1\n.e\n")
    code, _, err = run_cli(capsys, "minimize", str(pla))
    assert code == 2
    assert "line 3" in err


@pytest.mark.parametrize("text", [".i 2\n.e\n", ".o 1\n.e\n"])
def test_minimize_stdin_without_a_header(capsys, monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "minimize", "-")
    assert code == 2
    assert out == ""
    assert err == "missing .i or .o header\n"


def test_minimize_duplicate_ilb_names(capsys, tmp_path):
    pla = tmp_path / "dup.pla"
    pla.write_text(".i 2\n.o 1\n.ilb a a\n11 1\n.e\n")
    code, out, err = run_cli(capsys, "minimize", str(pla))
    assert code == 2
    assert out == ""
    assert "duplicate .ilb name 'a'" in err and "Traceback" not in err


@pytest.mark.parametrize("flags", [[], ["--xor"]])
def test_minimize_refuses_a_name_that_reads_as_syntax(capsys, tmp_path, flags):
    pla = tmp_path / "prime.pla"
    pla.write_text(".i 2\n.o 1\n.ilb a' b\n11 1\n.e\n")
    code, out, err = run_cli(capsys, "minimize", str(pla), *flags)
    assert (code, out, err) == (2, "", "line 3: .ilb name \"a'\" reads as expression syntax\n")


def test_minimize_multi_output_rejected(capsys, tmp_path):
    pla = tmp_path / "multi.pla"
    pla.write_text(".i 2\n.o 2\n11 10\n.e\n")
    code, _, err = run_cli(capsys, "minimize", str(pla))
    assert code == 2
    assert "single-output" in err


def test_minimize_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "minimize", str(tmp_path / "nope.pla"))
    assert code == 3


# header, 14 rows and the summary; lits and gates2 are counted from the
# published-form column, sop-lits from the published SOP cubes
AUDIT_STDOUT = """\
op       bit equiv lits gates2 sop-lits min-terms min-lits published-form                                   min-sop
mod4-add a1  yes   4    3      -        6         20       (x1 ^ y1) ^ (x2 y2)                              x1 x2 y1 y2 + x1 x2' y1' + x1 y1' y2' + x1' x2 y1' y2 + x1' x2' y1 + x1' y1 y2'
mod4-add a2  yes   2    1      -        2         4        x2 ^ y2                                          x2 y2' + x2' y2
mod4-mul m1  yes   4    3      12       4         12       (x1 y2) ^ (x2 y1)                                x1 x2' y2 + x1 y1' y2 + x1' x2 y1 + x2 y1 y2'
mod4-mul m2  yes   2    1      2        1         2        x2 y2                                            x2 y2
mod4-sub s1  yes   4    3      -        6         20       (x1 ^ y1) ^ (x2' y2)                             x1 x2 y1' + x1 x2' y1 y2 + x1 y1' y2' + x1' x2 y1 + x1' x2' y1' y2 + x1' y1 y2'
mod4-sub s2  yes   2    1      4        2         4        x2 ^ y2                                          x2 y2' + x2' y2
mod4-neg n1  yes   2    1      -        2         4        x1 ^ x2                                          x1 x2' + x1' x2
mod4-neg n2  yes   1    0      1        1         1        x2                                               x2
mod4-dbl d1  yes   1    0      1        1         1        x2                                               x2
mod4-dbl d2  yes   0    0      0        0         0        0                                                0
gf4-add  a1  yes   2    1      -        2         4        x1 ^ y1                                          x1 y1' + x1' y1
gf4-add  a2  yes   2    1      -        2         4        x2 ^ y2                                          x2 y2' + x2' y2
gf4-mul  m1  yes   13   12     13       4         13       x1 y1' y2 + x1 x2' y1 y2' + x1' x2 y1 + x2 y1 y2 x1 x2 y2 + x1 x2' y1 y2' + x1 y1' y2 + x1' x2 y1
gf4-mul  m2  yes   4    3      -        4         12       (x1 y1) ^ (x2 y2)                                x1 x2' y1 + x1 y1 y2' + x1' x2 y2 + x2 y1' y2
14/14 published forms equivalent to their tables
"""


def test_audit(capsys):
    code, out, _ = run_cli(capsys, "audit")
    assert code == 0
    assert out == AUDIT_STDOUT


def _published_row(op, bit):
    return next(row for row in minimizer._PUBLISHED if row[:2] == (op, bit))


def test_audit_reads_the_form_it_prints(capsys, monkeypatch):
    # m2's table is x2 y2; the printed form x2 y1 disagrees with it
    m2 = _published_row("mod4-mul", "m2")
    monkeypatch.setattr(minimizer, "_PUBLISHED", (m2[:4] + ("x2 y1",) + m2[5:],))
    code, out, _ = run_cli(capsys, "audit")
    assert code == 1
    assert out.splitlines()[1].split()[:5] == ["mod4-mul", "m2", "NO", "2", "1"]
    assert out.splitlines()[1].split()[-4:] == ["x2", "y1", "x2", "y2"]


def test_audit_reads_the_form_at_its_bit_index(capsys, monkeypatch):
    # n1 = x1 ^ x2 is bit 0 of mod4-neg; bit 1 is x2
    n1 = _published_row("mod4-neg", "n1")
    monkeypatch.setattr(minimizer, "_PUBLISHED", (n1[:3] + (1,) + n1[4:],))
    code, out, _ = run_cli(capsys, "audit")
    assert code == 1
    assert out.splitlines()[1].split()[:3] == ["mod4-neg", "n1", "NO"]
    assert out.splitlines()[-1] == "0/1 published forms equivalent to their tables"


def test_audit_a_wrong_published_sop_reads_no(capsys, monkeypatch):
    # mod4-mul's m2 is x2 y2 (-1-1); the SOP -1-0 disagrees with its table
    m2 = next(row for row in minimizer._PUBLISHED if row[:2] == ("mod4-mul", "m2"))
    monkeypatch.setattr(minimizer, "_PUBLISHED", (m2[:-1] + (("-1-0",),),))
    [row] = minimizer.audit_published_forms()
    assert row.equivalent is False
    code, out, _ = run_cli(capsys, "audit")
    assert code == 1
    assert out.splitlines()[1].split()[:3] == ["mod4-mul", "m2", "NO"]
    assert out.splitlines()[-1] == "0/1 published forms equivalent to their tables"


def test_sim_csv_stdout(capsys):
    code, out, _ = run_cli(capsys, "sim", "mod4-add", "--csv", "-")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 17
    assert lines[0] == "time,x1,x2,y1,y2,a1,a2"


def test_sim_default_stdout(capsys):
    code, out, _ = run_cli(capsys, "sim", "q2b")
    assert code == 0
    assert out.splitlines()[0] == "time,q,x1,x2"


def test_sim_writes_files(capsys, tmp_path, vcd_check):
    csv_path = tmp_path / "add.csv"
    vcd_path = tmp_path / "add.vcd"
    code, out, _ = run_cli(
        capsys, "sim", "mod4-add", "--csv", str(csv_path), "--vcd", str(vcd_path)
    )
    assert code == 0 and out == ""
    assert len(csv_path.read_text().splitlines()) == 17
    widths, times = vcd_check(vcd_path.read_text())
    assert len(widths) == 6
    assert all(w == 1 for w in widths.values())


def test_sim_vcd_q2b_widths(capsys, tmp_path, vcd_check):
    vcd_path = tmp_path / "q2b.vcd"
    code, _, _ = run_cli(capsys, "sim", "q2b", "--vcd", str(vcd_path))
    assert code == 0
    widths, _ = vcd_check(vcd_path.read_text())
    assert sorted(widths.values()) == [1, 1, 2]


def test_sim_volts(capsys):
    code, out, _ = run_cli(capsys, "sim", "gf4-mul-mux", "--csv", "-", "--volts")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "time,x,y,q"
    assert lines[1] == "0,0.0,0.0,0.0"
    assert lines[-1] == "15,3.3,3.3,2.2"  # 3*3 = 2 in GF(4)


def test_sim_out_dir_config(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"out_dir={tmp_path}\n")
    code, _, _ = run_cli(
        capsys, "sim", "q2b", "--csv", "q2b.csv", "--config", str(cfg)
    )
    assert code == 0
    assert (tmp_path / "q2b.csv").exists()


def test_sim_write_failure(capsys, tmp_path):
    dest = tmp_path / "no" / "such" / "dir" / "x.csv"
    code, _, err = run_cli(capsys, "sim", "q2b", "--csv", str(dest))
    assert code == 3
    assert "cannot write" in err


def test_sim_voltage_map_config(capsys, tmp_path):
    vmap_path = tmp_path / "v.json"
    vmap_path.write_text(
        json.dumps({"quat": [0.0, 0.5, 1.0, 1.5], "bin": [0.0, 1.5]})
    )
    cfg = tmp_path / "cfg"
    cfg.write_text(f"voltage_map={vmap_path}\n")
    code, out, _ = run_cli(
        capsys, "sim", "q2b", "--csv", "-", "--volts", "--config", str(cfg)
    )
    assert code == 0
    assert out.splitlines()[4] == "3,1.5,1.5,1.5"


def test_compare_equal(capsys):
    code, out, _ = run_cli(capsys, "compare", "gf4-mul-mux", "gf4-mul-sop")
    assert code == 0
    assert out == "EQUAL (16 vectors)\n"


def test_compare_reflexive(capsys):
    code, out, _ = run_cli(capsys, "compare", "mod4-add", "mod4-add")
    assert code == 0
    assert "EQUAL" in out


def test_compare_differ(capsys):
    code, out, _ = run_cli(capsys, "compare", "mod4-mul", "gf4-mul-sop")
    assert code == 1
    assert out == "DIFFER at x=2 y=2: 0 vs 3\n"


def test_compare_shape_mismatch(capsys):
    # both ports differ; then only the inputs (the outputs are both q)
    for a, b in (("q2b", "mod4-add"), ("mod4-neg", "mod4-add")):
        code, _, err = run_cli(capsys, "compare", a, b)
        assert code == 2
        assert "port shapes differ" in err


def test_compare_unknown(capsys):
    code, _, _ = run_cli(capsys, "compare", "mod4-add", "nope")
    assert code == 2


def test_config_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("volts=3\n")
    code, _, err = run_cli(capsys, "verify", "all", "--config", str(cfg))
    assert code == 2
    assert "unknown key" in err


def test_config_bad_line(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("# comment\njust some text\n")
    code, _, err = run_cli(capsys, "verify", "all", "--config", str(cfg))
    assert code == 2
    assert f"{cfg}:2: expected key=value" in err


def test_config_repeated_key(capsys, tmp_path):
    # the first table would stay in force under a warning about the second
    costs = tmp_path / "costs.json"
    costs.write_text('{"xor2": 50}')
    cfg = tmp_path / "cfg"
    cfg.write_text(f"cost_table={costs}\n\ncost_table={tmp_path / 'none.json'}\n")
    code, out, err = run_cli(capsys, "metrics", "mod4-add", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"{cfg}:3: repeated key 'cost_table'\n"
    cfg.write_text("out_dir=a\nout_dir=a\n")
    code, _, err = run_cli(capsys, "verify", "q2b", "--config", str(cfg))
    assert (code, err) == (2, f"{cfg}:2: repeated key 'out_dir'\n")


def test_config_missing_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "verify", "all", "--config", str(tmp_path / "none")
    )
    assert code == 3


def test_config_missing_referenced_file_falls_back(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"cost_table={tmp_path / 'none.json'}\n")
    code, out, err = run_cli(capsys, "metrics", "mod4-add", "--config", str(cfg))
    assert code == 0
    assert "transistor estimate: 36" in out
    assert "using defaults" in err


def test_config_comments_and_blanks(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("# comment\n\nout_dir=.\n")
    code, _, _ = run_cli(capsys, "verify", "q2b", "--config", str(cfg))
    assert code == 0


@pytest.mark.parametrize(
    "key, argv",
    [
        ("cost_table", ["metrics", "mod4-add"]),
        ("voltage_map", ["sim", "q2b", "--csv", "-", "--volts"]),
    ],
)
def test_config_deeply_nested_json_is_a_config_error(capsys, tmp_path, key, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    cfg = tmp_path / "cfg"
    cfg.write_text(f"{key}={deep}\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("bad JSON in config-referenced file: maximum recursion")


@pytest.mark.parametrize(
    "vmap",
    [
        {"quat": [0.0, 1.1, 2.2], "bin": [0.0, 3.3]},
        {"quat": [0.0, 1.1, 2.2, 3.3, 4.4], "bin": [0.0, 1.0, 3.3]},
    ],
    ids=["three-quat", "five-quat-three-bin"],
)
def test_config_voltage_map_needs_one_voltage_per_level(capsys, tmp_path, vmap):
    vmap_path = tmp_path / "v.json"
    vmap_path.write_text(json.dumps(vmap))
    cfg = tmp_path / "cfg"
    cfg.write_text(f"voltage_map={vmap_path}\n")
    code, out, err = run_cli(
        capsys, "sim", "q2b", "--csv", "-", "--volts", "--config", str(cfg)
    )
    assert (code, out) == (2, "")
    assert err.startswith("bad voltage map: quat needs 4 voltages")


@pytest.mark.parametrize(
    "vmap_text",
    [
        '{"quat": [false, true, "2", 3], "bin": [false, "3.3"]}',
        '{"quat": [0, 1, 2, 3], "bin": [0, true]}',
        '{"quat": [0, 1, NaN, 3], "bin": [0, 3.3]}',
        '{"quat": [0, 1, 2, 3], "bin": [0, Infinity]}',
        '{"quat": [0, 1, 2, 3], "bin": [-Infinity, 0]}',
        '{"quat": [0, 1, 2, 1e999], "bin": [0, 3.3]}',
        '{"quat": [0, 1, 2, 3], "bin": [0, 1%s]}' % ("0" * 400),
    ],
    ids=["bools-and-strings", "bool", "nan", "inf", "minus-inf", "overflow", "huge-int"],
)
def test_config_voltages_must_be_finite_json_numbers(capsys, tmp_path, vmap_text):
    vmap_path = tmp_path / "v.json"
    vmap_path.write_text(vmap_text)
    cfg = tmp_path / "cfg"
    cfg.write_text(f"voltage_map={vmap_path}\n")
    code, out, err = run_cli(
        capsys, "sim", "q2b", "--csv", "-", "--volts", "--config", str(cfg)
    )
    assert (code, out) == (2, "")
    assert err.startswith("bad voltage map: ")


@pytest.mark.parametrize(
    "argv, name, content",
    [
        (["verify", "q2b", "--config"], "cfg", b"out_dir=\xff\n"),
        (["minimize"], "bad.pla", b".i 1\n.o 1\n\xff 1\n.e\n"),
        (["metrics", "q2b", "--config"], "cfg", b"cost_table=\xff.json\n"),
    ],
    ids=["config", "pla", "config-key"],
)
def test_non_utf8_input_is_a_usage_error(capsys, tmp_path, argv, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot read {path}: 'utf-8' codec can't decode")


def test_non_utf8_json_is_a_usage_error(capsys, tmp_path):
    costs = tmp_path / "costs.json"
    costs.write_bytes(b'{"and2": 6\xff}')
    cfg = tmp_path / "cfg"
    cfg.write_text(f"cost_table={costs}\n")
    code, out, err = run_cli(capsys, "metrics", "q2b", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot read {costs}: 'utf-8' codec can't decode")


def test_non_utf8_strict_stdin_is_a_usage_error(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b".i 1\n.o 1\n\xff 1\n"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run_cli(capsys, "minimize", "-")
    assert (code, out) == (2, "")
    assert err.startswith("cannot read -: 'utf-8' codec can't decode")


def test_path_the_os_rejects_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("out_dir=a\0b\n")
    code, out, err = run_cli(
        capsys, "sim", "q2b", "--csv", "x.csv", "--config", str(cfg)
    )
    assert (code, out) == (2, "")
    assert err == "cannot write a\0b/x.csv: embedded null byte\n"
    code, out, err = run_cli(capsys, "minimize", "a\0b.pla")
    assert (code, out) == (2, "")
    assert err == "cannot read a\0b.pla: embedded null byte\n"


@pytest.mark.parametrize("key", ["cost_table", "voltage_map"])
def test_config_file_key_the_os_rejects_is_a_usage_error(capsys, tmp_path, key):
    # only a file that does not exist falls back to the defaults
    cfg = tmp_path / "cfg"
    cfg.write_text(f"{key}=a\0b\n")
    code, out, err = run_cli(capsys, "metrics", "q2b", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "cannot read a\0b: embedded null byte\n"


def test_io_errors_name_the_path(capsys, tmp_path):
    missing = tmp_path / "none"
    code, _, err = run_cli(capsys, "verify", "all", "--config", str(missing))
    assert code == 3
    assert err.startswith(f"cannot read {missing}: [Errno 2]")
    dest = tmp_path / "no" / "x.vcd"
    code, _, err = run_cli(capsys, "sim", "q2b", "--vcd", str(dest))
    assert code == 3
    assert err.startswith(f"cannot write {dest}: [Errno 2]")


# the subcommands and their help lines, in usage order
COMMANDS = (
    ("table", "print a truth table"),
    ("verify", "netlist vs reference"),
    ("metrics", "gate count and depth"),
    ("minimize", "exact SOP from PLA"),
    ("audit", "published-equation audit"),
    ("sim", "exhaustive sweep traces"),
    ("compare", "equivalence check"),
)
NAMES = [name for name, _ in COMMANDS]


def test_usage_errors(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # a narrow terminal wraps the help lines
    assert main([]) == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    # one line per subcommand, its name then its help, in usage order
    at = [re.search(rf"^ +{name} +{re.escape(text)}$", out, re.M) for name, text in COMMANDS]
    assert all(at), out
    assert [m.start() for m in at] == sorted(m.start() for m in at)
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2
    # the choice list's quoting differs between Python versions
    _, choices = err.split("invalid choice: 'frobnicate' (choose from ")
    assert all(re.search(rf"\b{name}\b", choices) for name in NAMES), err


# argv lists run against the parser main reuses and a freshly built one: the
# README examples, the benchmark's invalid commands, help, and argv that names
# more than one subcommand, an abbreviation or none
PARSER_CORPUS = [
    *(argv for argv, _ in README_EXAMPLES),
    [], ["frobnicate"], ["-h"], ["--help"], ["--bogus", "verify", "all"],
    ["--", "verify", "all"], ["ver"], ["compare", "verify", "table"],
    ["table", "nosuch"], ["verify", "nosuch"], ["metrics", "nosuch"], ["sim", "nosuch"],
    ["compare", "q2b", "mod4-add"], ["minimize", "-"],
    # the top-level parser reports after the subparser has returned, so its
    # usage lists every name
    ["verify", "q2b", "extra"], ["table", "q2b", "--bogus"], ["-h", "table"],
    ["compare", "q2b", "q2b", "q2b"], ["verify", "q2b", "--config=x.cfg"],
    *([name] for name in NAMES),
    *([name, flag] for name in NAMES for flag in ("-h", "--help")),
]


def _parse(parser, argv):
    """The namespace argv parses to, or the exit code; then stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def reused_parses():
    """Every PARSER_CORPUS argv parsed twice by the parser main reuses, with a
    usage error and --help between the two passes."""
    parser = mvq.cli.build_parser()
    first = [_parse(parser, argv) for argv in PARSER_CORPUS]
    assert _parse(parser, ["frobnicate"])[0] == 2
    assert _parse(parser, ["--help"])[0] == 0
    second = [_parse(parser, argv) for argv in PARSER_CORPUS]
    return first, second


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=lambda argv: " ".join(argv) or "none")
def test_parser_for_a_call_parses_as_the_full_parser(reused_parses, argv):
    i = PARSER_CORPUS.index(argv)
    fresh = _parse(mvq.cli.build_parser.__wrapped__(), argv)
    assert [passes[i] for passes in reused_parses] == [fresh, fresh]


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=lambda argv: " ".join(argv) or "none")
def test_main_gives_what_argparse_alone_gives(reused_parses, capsys, tmp_path, monkeypatch, argv):
    """Where the plain reader reads argv, its namespace is argparse's; and
    main's exit code, stdout and stderr are those it gives when every argv
    goes to argparse."""
    plain = mvq.cli._plain_args(list(argv))
    parsed = reused_parses[0][PARSER_CORPUS.index(argv)]
    assert plain is None or (vars(plain), "", "") == parsed
    (tmp_path / "m1.pla").write_text(_m1_pla())
    monkeypatch.chdir(tmp_path)
    runs = []
    for reader in (mvq.cli._plain_args, lambda argv: None):
        monkeypatch.setattr(mvq.cli, "_plain_args", reader)
        monkeypatch.setattr(sys, "stdin", io.StringIO(_m1_pla()))
        runs.append(run_cli(capsys, *argv))
    assert runs[0] == runs[1]


def test_readme_examples_take_the_plain_reader():
    assert all(mvq.cli._plain_args(list(argv)) for argv, _ in README_EXAMPLES)


# every subcommand and flag, near misses argparse reads its own way (an
# abbreviation, '--flag=value', '--', help, a negative number), values with
# no letters or a space, and circuit ids
ARGV_TOKENS = [
    *NAMES, "--bits", "--xor", "--csv", "--vcd", "--volts", "--config",
    "--vc", "--config=x", "--", "-h", "-1", "", "a b", "-", "q2b", "mod4-add", "all",
]
TOKENS = st.sampled_from(ARGV_TOKENS)
# most often a token argparse reads as a value, sometimes any token
VALUES = st.sampled_from([t for t in ARGV_TOKENS if t == "-" or not t.startswith("-")]) | TOKENS


@st.composite
def near_plain_argvs(draw):
    """A subcommand, as many values as it has positionals, then some of its
    flags in any order, each with a value after it if it takes one."""
    name = draw(st.sampled_from(NAMES))
    positionals, _, flags = mvq.cli._PLAIN[name]
    argv = [name] + [draw(VALUES) for _ in positionals]
    for flag in draw(st.permutations(list(flags))):
        if draw(st.booleans()):
            argv += [flag, draw(VALUES)] if flags[flag][1] else [flag]
    return argv


@seed(20261020)
@settings(max_examples=600, deadline=None, database=None)
@given(st.lists(TOKENS, max_size=7) | near_plain_argvs())
def test_the_plain_reader_reads_as_argparse(argv):
    plain = mvq.cli._plain_args(argv)
    if plain is not None:
        assert _parse(mvq.cli.build_parser.__wrapped__(), argv) == (vars(plain), "", "")


def test_readme_examples_repeat_after_a_usage_error(capsys, tmp_path, monkeypatch):
    (tmp_path / "m1.pla").write_text(_m1_pla())
    monkeypatch.chdir(tmp_path)
    for argv, _ in README_EXAMPLES:
        first = run_cli(capsys, *argv)
        assert run_cli(capsys, "frobnicate")[0] == 2
        assert run_cli(capsys, *argv) == first, argv


def test_main_builds_the_parser_once_per_process(capsys, monkeypatch):
    init = argparse.ArgumentParser.__init__
    parsers = []

    def counted(self, *args, **kwargs):
        parsers.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    # a plain command line builds no parser; the first argv left to argparse
    # builds the top-level parser and one per subcommand, and later ones none
    exits = {"ver": 2, "--help": 0}
    for first, later in (("ver", "--help"), ("--help", "ver")):
        mvq.cli.build_parser.cache_clear()
        parsers.clear()
        assert run_cli(capsys, "verify", "q2b")[0] == 0
        assert parsers == []
        assert run_cli(capsys, first)[0] == exits[first]
        assert len(parsers) == 1 + len(NAMES)
        assert run_cli(capsys, later)[0] == exits[later]
        assert run_cli(capsys, "verify", "q2b")[0] == 0
        assert len(parsers) == 1 + len(NAMES)


def test_a_handler_patched_after_the_parser_is_built_runs(capsys, monkeypatch):
    mvq.cli.build_parser()
    seen = []
    monkeypatch.setattr(mvq.cli, "cmd_verify", lambda args, cfg: seen.append(args.circuit) or 1)
    assert run_cli(capsys, "verify", "q2b") == (1, "", "")
    assert seen == ["q2b"]


@pytest.mark.parametrize("argv", [["verify", "q2b"], ["--help"], ["sim", "--help"]])
def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch, argv):
    expected = run_cli(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["mvq", *argv])
    code = main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected


def test_outputs_are_deterministic(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify", "all")
        outs.add(out)
        code, out, _ = run_cli(capsys, "audit")
        outs.add(out)
        code, out, _ = run_cli(capsys, "sim", "mod4-add", "--csv", "-")
        outs.add(out)
    assert len(outs) == 3


def _fresh_import(statement):
    """The modules a fresh interpreter adds to sys.modules to run statement."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        f"{statement}; print(*sorted(set(sys.modules) - before), sep='\\n')"
    )
    src = os.path.dirname(os.path.dirname(mvq.__file__))
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_argparse_loads_only_for_an_argv_left_to_it():
    run = "import io, sys, mvq.cli; sys.stdout = io.StringIO(); code = mvq.cli.main({}); "
    run += "sys.stdout = sys.__stdout__; assert code == 0"
    assert "argparse" not in _fresh_import(run.format(["verify", "all"]))
    assert "argparse" in _fresh_import(run.format(["--help"]))


def test_import_loads_only_what_table_verify_metrics_and_compare_need():
    loaded = _fresh_import("import mvq.cli; assert len(mvq.cli.REGISTRY) == 10")
    assert "mvq.circuits" in loaded
    assert not loaded & {"mvq.minimizer", "mvq.sim", "json", "argparse"}
    assert "json" not in _fresh_import("import mvq.netlist")


def test_lazy_names_resolve_to_their_modules():
    for module, names in (
        (minimizer, ["parse_pla", "minimize_exact", "recognize_xor", "render_sop",
                     "audit_published_forms", "ParseError", "UnsupportedFeature"]),
        (sim, ["run", "sweep_all", "export_csv", "export_vcd", "voltage_view",
               "VoltageMap"]),
    ):
        for name in names:
            assert getattr(mvq.cli, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        mvq.cli.nope


def test_installed_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mvq.cli", "verify", "all"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "10/10 circuits PASS" in proc.stdout


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class _FullDisk(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


STDOUT_ARGVS = [["metrics", "all"], ["verify", "all"], ["audit"], ["table", "mod4-add"]]


@pytest.mark.parametrize("argv", STDOUT_ARGVS)
def test_broken_pipe_exits_io_without_traceback(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(argv) == 3
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", STDOUT_ARGVS + [["sim", "q2b"]])
def test_full_stdout_exits_io_with_one_line(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _FullDisk())
    assert main(argv) == 3
    assert capsys.readouterr().err == "cannot write -: [Errno 28] No space left on device\n"


@pytest.mark.parametrize(
    "argv, buffered",
    [
        pytest.param(["metrics", "all"], False, id="False"),
        pytest.param(["metrics", "all"], True, id="True"),
        pytest.param(["sim", "mod4-add"], False, id="sim-unbuffered"),
    ],
)
def test_broken_pipe_subprocess(argv, buffered):
    # the reader is gone before mvq starts, so its first write to stdout fails
    # (unbuffered) or its flush does (buffered)
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mvq.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [["verify", "all"], ["sim", "q2b"]])
def test_full_stdout_subprocess(argv):
    # every write to /dev/full fails with ENOSPC
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "mvq.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    assert proc.returncode == 3
    assert proc.stderr == "cannot write -: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("xor", [[], ["--xor"]], ids=["sop", "xor"])
def test_unencodable_stdout_subprocess(tmp_path, xor):
    pla = tmp_path / "e.pla"
    pla.write_text(".i 1\n.o 1\n.ilb \u00e9\n1 1\n.e\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "mvq.cli", "minimize", str(pla), *xor],
        capture_output=True,
        env=dict(os.environ, PYTHONIOENCODING="ascii"),
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("cannot write -: 'ascii' codec can't encode")
    assert proc.stderr.count("\n") == 1
