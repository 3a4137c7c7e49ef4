"""Sweeps, trace structure, CSV/VCD export, voltage rendering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_netlist import BAD_LEVEL_MESSAGE, BAD_LEVELS

from mvq.arith_core import decode_b2q, gf4_add, mod4_sub
from mvq.circuits import CIRCUIT_IDS, REGISTRY, build_q2b
from mvq.netlist import GateKind, LevelOutOfRange, Netlist, SignalType, StateSpaceTooLarge
from mvq.sim import (
    PortMismatch,
    _vcd_ident,
    Stimulus,
    Trace,
    VoltageMap,
    export_csv,
    export_vcd,
    parse_csv,
    run,
    sweep_all,
    voltage_view,
)

B = SignalType.BIN
Q = SignalType.QUAT


def test_sweep_counts():
    assert len(sweep_all(REGISTRY["mod4-add"].build()).steps) == 16
    assert len(sweep_all(build_q2b()).steps) == 4
    const = Netlist([], [("k", B)])
    const.connect_output("k", const.add_gate(GateKind.CONST1))
    assert sweep_all(const).steps == ({},)


def test_sweep_carries_the_exhaustive_byte_columns():
    nl = REGISTRY["mod4-neg"].build()
    stim = sweep_all(nl)
    assert stim.columns == {"x1": bytes([0, 0, 1, 1]), "x2": bytes([0, 1, 0, 1])}
    assert stim.n_steps == 4
    assert stim == Stimulus(stim.steps)


def test_sweep_order_first_port_slowest():
    stim = sweep_all(REGISTRY["mod4-neg"].build())
    assert [tuple(s.values()) for s in stim.steps] == [
        (0, 0), (0, 1), (1, 0), (1, 1),
    ]


def test_sweep_state_cap():
    big = Netlist([(f"q{i}", Q) for i in range(9)], [("y", Q)])
    big.connect_output("y", big.input_net("q0"))
    with pytest.raises(StateSpaceTooLarge):
        sweep_all(big)


def test_run_matches_reference_rows():
    nl = REGISTRY["gf4-add"].build()
    trace = run(nl, sweep_all(nl))
    assert len(trace.rows) == 16
    for row in trace.rows:
        x1, x2, y1, y2, a1, a2 = row
        assert decode_b2q((a1, a2)) == gf4_add(decode_b2q((x1, x2)), decode_b2q((y1, y2)))


def test_run_mod4_sub_reference_row():
    nl = REGISTRY["mod4-sub"].build()
    trace = run(nl, sweep_all(nl))
    # x=1 -> (0,1), y=2 -> (1,0)
    row = next(r for r in trace.rows if r[:4] == (0, 1, 1, 0))
    assert decode_b2q((row[4], row[5])) == mod4_sub(1, 2) == 3


def test_run_empty_stimulus():
    nl = REGISTRY["mod4-add"].build()
    trace = run(nl, Stimulus(()))
    assert trace.rows == ()
    assert export_csv(trace) == "time,x1,x2,y1,y2,a1,a2\n"


def test_run_port_mismatch():
    nl = REGISTRY["mod4-neg"].build()
    with pytest.raises(PortMismatch):
        run(nl, Stimulus(({"x1": 0},)))
    with pytest.raises(PortMismatch):
        run(nl, Stimulus(({"x1": 0, "x2": 0, "zz": 1},)))


def test_run_port_mismatch_names_the_first_stray_step():
    nl = REGISTRY["mod4-neg"].build()
    with pytest.raises(PortMismatch, match=r"^step assigns \['x1'\], ports are \['x1', 'x2'\]$"):
        run(nl, Stimulus(({"x1": 0},)))
    # step 0 fits the netlist; step 2 is the first that does not
    steps = ({"x1": 0, "x2": 0}, {"x1": 1, "x2": 0}, {"x2": 1, "zz": 0}, {"x1": 0})
    with pytest.raises(PortMismatch, match=r"^step assigns \['x2', 'zz'\], ports"):
        run(nl, Stimulus(steps))


def test_stimulus_keeps_no_link_to_the_caller_s_steps():
    nl = REGISTRY["mod4-neg"].build()
    steps = [{"x1": 0, "x2": 1}, {"x1": 1, "x2": 1}]
    stim = Stimulus(steps)
    steps[1]["x2"] = 0
    steps[0]["zz"] = 1
    assert stim.steps == ({"x1": 0, "x2": 1}, {"x1": 1, "x2": 1})
    assert stim == Stimulus([{"x1": 0, "x2": 1}, {"x1": 1, "x2": 1}])
    assert stim != Stimulus([{"x1": 0, "x2": 1}, {"x1": 1, "x2": 0}])
    assert [row[:2] for row in run(nl, stim).rows] == [(0, 1), (1, 1)]
    # a stimulus whose steps assign different ports keeps copies of them
    steps = [{"x1": 0}, {"x2": 0}]
    stim = Stimulus(steps)
    steps[0]["x2"] = 1
    steps[1]["x1"] = 1
    assert stim.steps == ({"x1": 0}, {"x2": 0})
    assert stim == Stimulus([{"x1": 0}, {"x2": 0}])
    with pytest.raises(PortMismatch, match=r"^step assigns \['x1'\], ports"):
        run(nl, stim)


def test_run_equals_truth_table_for_every_circuit():
    for cid in CIRCUIT_IDS:
        nl = REGISTRY[cid].build()
        trace = run(nl, sweep_all(nl))
        tt = nl.truth_table()
        assert len(trace.rows) == len(tt.rows), cid
        for row, (ins, outs) in zip(trace.rows, tt.rows):
            assert row == ins + outs, cid


@given(st.permutations(range(16)))
def test_run_is_stateless_across_steps(order):
    nl = REGISTRY["mod4-mul"].build()
    base = sweep_all(nl)
    baseline = run(nl, base).rows
    shuffled = Stimulus(tuple(base.steps[i] for i in order))
    assert run(nl, shuffled).rows == tuple(baseline[i] for i in order)


def test_trace_rectangular_check():
    with pytest.raises(ValueError):
        Trace((("a", B),), ((0, 1),))


@pytest.mark.parametrize("name", ["a,b", "c d", "y\nz"])
def test_trace_refuses_a_name_its_exports_cannot_carry(name):
    with pytest.raises(ValueError) as exc:
        Trace((("a", B), (name, B)), ((0, 1),))
    assert str(exc.value).startswith(f"port name {name!r} has")


def test_a_trace_of_unusual_names_reads_back():
    n = Netlist([("x[0]", B), ("é.b", B)], [("~y", B)])
    n.connect_output("~y", n.add_gate(GateKind.AND2, [0, 1]))
    trace = run(n, sweep_all(n))
    types = dict(trace.signals)
    assert parse_csv(export_csv(trace), types) == trace


BAD_TRACES = [
    ((("a", B), ("q", Q)), ((7, 9), (0, -1), (True, 2))),
    ((("a", B),), ((2,),)),
    ((("q", Q),), ((4,),)),
    ((("q", Q),), ((-1,),)),
    ((("q", Q),), ((256,),)),
    ((("a", B),), ((0,), (True,))),
    ((("a", B),), ((1.0,),)),
    ((("q", Q),), (("3",),)),
    ((("q", Q),), ((None,),)),
] + [((("s", sig), ("t", sig)), ((0, 0), (0, bad))) for sig, bad in BAD_LEVELS]


@pytest.mark.parametrize("signals, rows", BAD_TRACES)
@pytest.mark.parametrize("export", [export_csv, export_vcd, voltage_view])
def test_trace_rejects_a_level_its_signal_does_not_have(signals, rows, export):
    # no exporter can be handed such a trace: it cannot be made
    with pytest.raises(LevelOutOfRange, match=BAD_LEVEL_MESSAGE) as exc:
        export(Trace(signals, rows))
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_csv_of_no_signals_and_of_one_named_blank_read_back(n):
    # both export as "time," then "0,", ...: the types given tell them apart
    none = Trace((), ((),) * n)
    blank = Trace((("", B),), ((1,),) * n)
    text = export_csv(none)
    assert text == export_csv(blank).replace(",1\n", ",\n")
    assert parse_csv(text, {}) == none
    assert parse_csv(export_csv(blank), {"": B}) == blank
    with pytest.raises(ValueError, match="width"):
        parse_csv("time,\n0,1\n", {})


def test_trace_equality_reads_the_columns():
    nl = build_q2b()
    trace = run(nl, sweep_all(nl))
    same = Trace(trace.signals, list(map(list, trace.rows)))
    assert same == trace and hash(same) == hash(trace)
    assert same.columns == trace.columns == (b"\0\1\2\3", b"\0\0\1\1", b"\0\1\0\1")
    assert trace != Trace(trace.signals, trace.rows[::-1])
    assert trace.rows is trace.rows


def test_trace_column():
    nl = build_q2b()
    trace = run(nl, sweep_all(nl))
    assert trace.column("x1") == (0, 0, 1, 1)
    assert trace.column("x2") == (0, 1, 0, 1)
    with pytest.raises(KeyError):
        trace.column("zz")


def test_export_csv_q2b():
    nl = build_q2b()
    text = export_csv(run(nl, sweep_all(nl)))
    lines = text.splitlines()
    assert lines[0] == "time,q,x1,x2"
    assert lines[3] == "2,2,1,0"
    assert len(lines) == 5


def test_every_trace_row_is_one_time_unit():
    # readers outside the package take the time of row i to be i * step_duration
    nl = build_q2b()
    trace = run(nl, sweep_all(nl))
    assert trace.step_duration == Trace.step_duration == 1
    times = [line.split(",")[0] for line in export_csv(trace).splitlines()[1:]]
    assert times == [str(i * trace.step_duration) for i in range(trace.n_steps)]


def test_export_csv_adder_line_count():
    nl = REGISTRY["mod4-add"].build()
    text = export_csv(run(nl, sweep_all(nl)))
    assert len(text.splitlines()) == 17


def test_csv_round_trip():
    for cid in ("q2b", "mod4-add", "gf4-mul-mux"):
        nl = REGISTRY[cid].build()
        trace = run(nl, sweep_all(nl))
        types = dict(trace.signals)
        assert parse_csv(export_csv(trace), types) == trace


def test_parse_csv_errors():
    with pytest.raises(ValueError):
        parse_csv("", {})
    with pytest.raises(ValueError):
        parse_csv("t,a\n0,1\n", {"a": B})
    with pytest.raises(ValueError):
        parse_csv("time,a\n0,1\n", {})
    with pytest.raises(ValueError):
        parse_csv("time,a\n0,1,2\n", {"a": B})
    for level in ("2", "-1"):
        with pytest.raises(ValueError):
            parse_csv(f"time,a\n0,{level}\n", {"a": B})
    # row i is time i: a second time of 2 is no step of 2
    with pytest.raises(ValueError, match=r"^time column must read 0, 1, \.\.\.$"):
        parse_csv("time,a\n0,1\n2,0\n", {"a": B})


def test_parse_csv_rejects_a_repeated_column():
    with pytest.raises(ValueError) as err:
        parse_csv("time,a,a\n0,0,1\n", {"a": B})
    assert str(err.value) == "repeated column name in 'time,a,a'"


@pytest.mark.parametrize(
    "times",
    ["9,2", "0,5,7", "3,3", "0,0", "0,-1", "5", "0,+1", "0,1,02", "0,\u0663"],
)
def test_parse_csv_time_column_counts_whole_steps(times):
    text = "time,a\n" + "".join(f"{t},1\n" for t in times.split(","))
    with pytest.raises(ValueError):
        parse_csv(text, {"a": B})


def test_voltage_view_defaults():
    nl = build_q2b()
    text = voltage_view(run(nl, sweep_all(nl)))
    lines = text.splitlines()
    assert lines[0] == "time,q,x1,x2"
    assert lines[1] == "0,0.0,0.0,0.0"
    assert lines[3] == "2,2.2,3.3,0.0"
    assert lines[4] == "3,3.3,3.3,3.3"


def test_voltage_map_validation():
    with pytest.raises(ValueError):
        VoltageMap(quat=(0.0, 1.0, 1.0, 3.0))
    with pytest.raises(ValueError):
        VoltageMap(bin=(3.3, 0.0))
    custom = VoltageMap(quat=(0.0, 0.5, 1.0, 1.5), bin=(0.0, 1.5))
    nl = build_q2b()
    text = voltage_view(run(nl, sweep_all(nl)), custom)
    assert text.splitlines()[2] == "1,0.5,0.0,1.5"


def test_voltage_maps_that_compare_equal_render_their_own_cells():
    # -0.0 == 0.0, so the two maps are equal and hash alike, but print apart
    nl = build_q2b()
    trace = run(nl, sweep_all(nl))
    negative = VoltageMap(quat=(-0.0, 1.1, 2.2, 3.3), bin=(-0.0, 3.3))
    assert negative == VoltageMap()
    for _ in range(2):
        assert voltage_view(trace).splitlines()[1] == "0,0.0,0.0,0.0"
        assert voltage_view(trace, negative).splitlines()[1] == "0,-0.0,-0.0,-0.0"


@pytest.mark.parametrize(
    "vmap",
    [
        {"quat": (0.0, 1.0, float("nan"), 3.0)},
        {"bin": (0.0, float("inf"))},
        {"bin": (float("-inf"), 0.0)},
    ],
    ids=["nan", "inf", "minus-inf"],
)
def test_voltage_map_rejects_non_finite_voltages(vmap):
    with pytest.raises(ValueError, match="finite"):
        VoltageMap(**vmap)


def test_vcd_q2b_structure(vcd_check):
    nl = build_q2b()
    text = export_vcd(run(nl, sweep_all(nl)))
    widths, times = vcd_check(text)
    assert sorted(widths.values()) == [1, 1, 2]
    assert times[0] == 0 and all(t in range(4) for t in times)
    assert "b11" in text  # level 3 as a 2-bit vector


def test_vcd_constant_signal_dumped_once(vcd_check):
    nl = Netlist([("a", B)], [("k", B), ("y", B)])
    nl.connect_output("k", nl.add_gate(GateKind.CONST1))
    nl.connect_output("y", nl.input_net("a"))
    text = export_vcd(run(nl, sweep_all(nl)))
    widths, times = vcd_check(text)
    # signals: a='!', k='"', y='#'; the constant only appears in $dumpvars
    body = text.split("$end\n")[-1]
    assert '"' not in body


def test_vcd_identifiers_follow_position_not_name(vcd_check):
    trace = Trace((("a", B), ("a", B)), ((0, 1), (1, 0)))
    text = export_vcd(trace)
    widths, times = vcd_check(text)
    assert list(widths) == ["!", '"'] and times == [0, 1]
    assert text.endswith("#1\n1!\n0\"\n")


def test_vcd_identifiers_past_94_signals(vcd_check):
    n = Netlist([(f"i{k}", B if k % 3 else Q) for k in range(20)],
                [(f"o{k}", B) for k in range(180)])
    for k in range(180):
        n.connect_output(f"o{k}", n.add_gate(GateKind.CONST0 if k % 2 else GateKind.CONST1))
    steps = ({f"i{k}": 0 for k in range(20)}, {f"i{k}": 1 for k in range(20)})
    text = export_vcd(run(n, Stimulus(steps)))
    widths, _ = vcd_check(text)
    assert len(widths) == 200
    assert all(ident.isascii() and ident.isprintable() and " " not in ident
               for ident in widths)
    # the first 94 keep their single-character codes
    assert [_vcd_ident(i) for i in (0, 93)] == ["!", "~"]
    assert len({_vcd_ident(i) for i in range(94 * 95 + 1)}) == 94 * 95 + 1


def test_vcd_adder_timestamps(vcd_check):
    nl = REGISTRY["mod4-add"].build()
    text = export_vcd(run(nl, sweep_all(nl)))
    _, times = vcd_check(text)
    assert set(times) <= set(range(16))
    assert times == sorted(times)


def test_vcd_empty_trace(vcd_check):
    nl = REGISTRY["mod4-add"].build()
    text = export_vcd(run(nl, Stimulus(())))
    widths, times = vcd_check(text)
    assert len(widths) == 6 and times == []


def test_vcd_change_only_emission(vcd_check):
    # constant input column: only signals that change get re-dumped
    nl = REGISTRY["mod4-mul"].build()
    steps = tuple(
        {"x1": 1, "x2": 1, "y1": 0, "y2": b} for b in (0, 0, 1, 1, 0)
    )
    text = export_vcd(run(nl, Stimulus(steps)))
    vcd_check(text)
    lines = text.splitlines()
    assert "#1" not in lines  # step 1 repeats step 0 exactly
    assert "#2" in lines and "#4" in lines


def test_exports_are_deterministic():
    nl = REGISTRY["gf4-mul-mux"].build()
    t1 = run(nl, sweep_all(nl))
    t2 = run(nl, sweep_all(nl))
    assert export_csv(t1) == export_csv(t2)
    assert export_vcd(t1) == export_vcd(t2)
    assert voltage_view(t1) == voltage_view(t2)
