"""The bit-parallel table kernel against an independent scalar reference.

`Netlist.evaluate`, `truth_table` and `sim.run` all run one kernel that
evaluates every row at once. Each row must equal `reference_eval`, a plain
walk of the gates one row at a time over its own table of gate semantics,
for every gate kind and any typed DAG. The reference shares no gate
semantics with the kernel, so the kernel is never tested against itself.
"""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_netlist import BAD_LEVEL_MESSAGE, BAD_LEVELS

from mvq.netlist import (
    CONST_KINDS,
    GATE_SIGNATURES,
    CombinationalCycle,
    Gate,
    GateKind,
    LevelOutOfRange,
    Netlist,
    SignalType,
    _level_column,
    from_json,
)
from mvq.sim import Stimulus, run, sweep_all

B = SignalType.BIN
Q = SignalType.QUAT


# kind -> f(input values, const level) -> output value
_EVAL = {
    GateKind.NOT: lambda v, lv: v[0] ^ 1,
    GateKind.AND2: lambda v, lv: v[0] & v[1],
    GateKind.AND3: lambda v, lv: v[0] & v[1] & v[2],
    GateKind.AND4: lambda v, lv: v[0] & v[1] & v[2] & v[3],
    GateKind.OR2: lambda v, lv: v[0] | v[1],
    GateKind.OR3: lambda v, lv: v[0] | v[1] | v[2],
    GateKind.OR4: lambda v, lv: v[0] | v[1] | v[2] | v[3],
    GateKind.XOR2: lambda v, lv: v[0] ^ v[1],
    GateKind.NAND2: lambda v, lv: (v[0] & v[1]) ^ 1,
    GateKind.NOR2: lambda v, lv: (v[0] | v[1]) ^ 1,
    GateKind.ANDN2: lambda v, lv: (v[0] ^ 1) & v[1],
    GateKind.CONST0: lambda v, lv: 0,
    GateKind.CONST1: lambda v, lv: 1,
    GateKind.BMUX2: lambda v, lv: v[1] if v[0] == 1 else v[2],
    GateKind.DLC1: lambda v, lv: 1 if v[0] < 1 else 0,
    GateKind.DLC2: lambda v, lv: 1 if v[0] < 2 else 0,
    GateKind.DLC3: lambda v, lv: 1 if v[0] < 3 else 0,
    GateKind.B2Q: lambda v, lv: 2 * v[0] + v[1],
    GateKind.QCONST: lambda v, lv: lv,
    GateKind.QMUX4: lambda v, lv: v[1 + v[0]],
}


def reference_eval(n, assignment):
    """One row by walking the gates in dependency order: output levels by
    port name, for a complete assignment of in-range input levels."""
    values = {n.input_net(name): assignment[name] for name, _ in n.input_ports}
    for g in n.topo_gates():
        values[g.output] = _EVAL[g.kind](tuple(values[i] for i in g.inputs), g.level)
    return {name: values[n.output_net(name)] for name, _ in n.output_ports}


def reference_rows(n, combos):
    names = [name for name, _ in n.input_ports]
    rows = []
    for combo in combos:
        out = reference_eval(n, dict(zip(names, combo)))
        rows.append((tuple(combo), tuple(out[name] for name, _ in n.output_ports)))
    return rows


def all_combos(n):
    return list(itertools.product(*(range(sig.levels) for _, sig in n.input_ports)))


@st.composite
def typed_dags(draw):
    """Random typed DAGs: up to 6 mixed inputs (possibly none), gates of any
    kind whose input types exist, outputs on any net including input nets."""
    in_types = draw(st.lists(st.sampled_from([B, Q]), max_size=6))
    net_types = list(in_types)
    plan = []
    for _ in range(draw(st.integers(0, 14))):
        usable = [
            kind
            for kind, (ins, _) in GATE_SIGNATURES.items()
            if all(t in net_types for t in ins)
        ]
        kind = draw(st.sampled_from(usable))
        ins, out_type = GATE_SIGNATURES[kind]
        nets = [
            draw(st.sampled_from([k for k, nt in enumerate(net_types) if nt is t]))
            for t in ins
        ]
        level = draw(st.integers(0, 3)) if kind is GateKind.QCONST else None
        plan.append((kind, nets, level))
        net_types.append(out_type)
    outs = draw(st.lists(st.integers(0, len(net_types) - 1), max_size=4)) if net_types else []
    n = Netlist(
        [(f"i{k}", t) for k, t in enumerate(in_types)],
        [(f"o{k}", net_types[net]) for k, net in enumerate(outs)],
    )
    for kind, nets, level in plan:
        n.add_gate(kind, nets, level=level)
    for k, net in enumerate(outs):
        n.connect_output(f"o{k}", net)
    n.validate()
    return n


@settings(max_examples=150, deadline=None)
@given(typed_dags())
def test_truth_table_rows_equal_evaluate(n):
    combos = all_combos(n)
    assert list(n.truth_table().rows) == reference_rows(n, combos)
    names = [name for name, _ in n.input_ports]
    for combo in combos:
        assignment = dict(zip(names, combo))
        assert n.evaluate(assignment) == reference_eval(n, assignment)


@settings(max_examples=150, deadline=None)
@given(typed_dags())
def test_truth_table_columns_equal_run_of_sweep_all(n):
    # each side on its own netlist, so neither reads the kernel's memory of
    # the other: truth_table first, then run first
    def fresh():
        return from_json(n.to_json())

    table = n.truth_table().columns
    copy = fresh()
    assert run(copy, sweep_all(copy)).columns == table
    copy = fresh()
    trace = run(copy, sweep_all(copy)).columns
    assert fresh().truth_table().columns == trace


@settings(max_examples=150, deadline=None)
@given(typed_dags(), st.data())
def test_run_on_shuffled_partial_stimulus_equals_evaluate(n, data):
    combos = all_combos(n)
    picked = data.draw(st.lists(st.sampled_from(combos), max_size=24))
    names = [name for name, _ in n.input_ports]
    trace = run(n, Stimulus(tuple(dict(zip(names, c)) for c in picked)))
    assert trace.rows == tuple(ins + outs for ins, outs in reference_rows(n, picked))


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
def test_every_gate_kind_over_all_input_levels(kind):
    ins, out_type = GATE_SIGNATURES[kind]
    n = Netlist([(f"i{k}", t) for k, t in enumerate(ins)], [("y", out_type)])
    level = 2 if kind is GateKind.QCONST else None
    n.connect_output("y", n.add_gate(kind, range(len(ins)), level=level))
    rows = reference_rows(n, all_combos(n))
    assert list(n.truth_table().rows) == rows
    assert run(n, sweep_all(n)).rows == tuple(i + o for i, o in rows)


def test_run_rejects_out_of_range_and_bool_levels():
    n = Netlist([("a", B), ("q", Q)], [("y", Q)])
    n.connect_output("y", n.input_net("q"))
    good = {"a": 1, "q": 3}
    for sig, bad in BAD_LEVELS:
        name = "a" if sig is B else "q"
        with pytest.raises(LevelOutOfRange, match=BAD_LEVEL_MESSAGE) as exc:
            run(n, Stimulus((good, {**good, name: bad})))
        assert isinstance(exc.value, ValueError)


def test_the_first_bad_level_is_named_not_an_earlier_zero():
    for column in ((0, 5), b"\x00\x05"):
        with pytest.raises(LevelOutOfRange, match=r"^q: 5 is not a quat level$"):
            _level_column(column, Q, "q")
    n = Netlist([("q", Q)], [("y", Q)])
    n.connect_output("y", n.input_net("q"))
    with pytest.raises(LevelOutOfRange, match=r": 5 is not a quat level$"):
        run(n, Stimulus(({"q": 0}, {"q": 5})))


def test_run_empty_stimulus_gives_empty_rows():
    n = Netlist([], [("k", Q)])
    n.connect_output("k", n.add_gate(GateKind.QCONST, level=1))
    assert run(n, Stimulus(())).rows == ()
    assert run(n, Stimulus(({}, {}))).rows == ((1,), (1,))


def test_table_at_the_state_cap():
    # 2^16 rows: a 16-input parity chain, spot-checked against the reference
    n = Netlist([(f"b{k}", B) for k in range(16)], [("p", B)])
    acc = n.input_net("b0")
    for k in range(1, 16):
        acc = n.add_gate(GateKind.XOR2, [acc, n.input_net(f"b{k}")])
    n.connect_output("p", acc)
    rows = n.truth_table().rows
    assert len(rows) == 2 ** 16
    for r in (0, 1, 12345, 2 ** 16 - 1):
        assert rows[r] == reference_rows(n, [rows[r][0]])[0]


# The kernel evaluates only the output cone: the gates some output reads,
# directly or through other gates. Every other gate is still installed,
# checked, ordered, counted and written out.


def test_a_cycle_of_dead_gates_still_raises():
    doc = {
        "inputs": [{"name": "a", "type": "bin"}],
        "outputs": [{"name": "y", "type": "bin", "net": 1}],
        "gates": [
            {"id": 0, "kind": "not", "inputs": [0], "output": 1},
            {"id": 1, "kind": "and2", "inputs": [0, 3], "output": 2},
            {"id": 2, "kind": "not", "inputs": [2], "output": 3},
        ],
    }
    with pytest.raises(CombinationalCycle, match=r"^net 2 lies on a cycle$"):
        from_json(json.dumps(doc))
    n = Netlist([("a", B)], [("y", B)])
    n.connect_output("y", n.add_gate(GateKind.NOT, [0]))
    assert n.evaluate({"a": 0}) == {"y": 1}
    n.add_gate(GateKind.AND2, [0, 2])  # reads its own net 2
    with pytest.raises(CombinationalCycle, match=r"^net 2 lies on a cycle$"):
        n.validate()
    with pytest.raises(CombinationalCycle, match=r"^net 2 lies on a cycle$"):
        n.truth_table()


def test_outputs_on_input_ports_need_no_gate():
    n = Netlist([("a", B), ("q", Q)], [("y", Q), ("z", B), ("w", B)])
    dead = n.add_gate(GateKind.DLC1, [n.input_net("q")])
    n.add_gate(GateKind.NOT, [dead])
    n.connect_output("y", n.input_net("q"))
    n.connect_output("z", n.input_net("a"))
    n.connect_output("w", n.input_net("a"))
    rows = n.truth_table().rows
    assert list(rows) == reference_rows(n, all_combos(n))
    assert [outs for _, outs in rows] == [(q, a, a) for a in range(2) for q in range(4)]
    assert run(n, sweep_all(n)).rows == tuple(ins + outs for ins, outs in rows)
    assert n.evaluate({"a": 1, "q": 2}) == {"y": 2, "z": 1, "w": 1}


def add_dead_gates(n, data):
    """One gate of every kind, each reading nets of any gate or port but
    read by no output; a constant first wherever a type has no net yet."""
    types = {}
    for name, sig in n.input_ports:
        types[n.input_net(name)] = sig
    for g in n.gates:
        types[g.output] = GATE_SIGNATURES[g.kind][1]
    for sig, kind, level in ((B, GateKind.CONST0, None), (Q, GateKind.QCONST, 1)):
        if sig not in types.values():
            types[n.add_gate(kind, level=level)] = sig
    for kind in data.draw(st.permutations(list(GateKind))):
        ins, out_type = GATE_SIGNATURES[kind]
        nets = [data.draw(st.sampled_from([k for k, t in types.items() if t is sig])) for sig in ins]
        level = data.draw(st.integers(0, 3)) if kind is GateKind.QCONST else None
        types[n.add_gate(kind, nets, level=level)] = out_type


@settings(max_examples=100, deadline=None)
@given(typed_dags(), st.data())
def test_dead_gates_change_no_output_and_are_still_counted(n, data):
    before = n.gates
    add_dead_gates(n, data)
    added = n.gates[len(before):]
    assert {g.kind for g in added} >= set(GateKind)
    combos = all_combos(n)
    rows = reference_rows(n, combos)
    assert list(n.truth_table().rows) == rows
    assert run(n, sweep_all(n)).rows == tuple(ins + outs for ins, outs in rows)
    names = [name for name, _ in n.input_ports]
    for combo in combos:
        assignment = dict(zip(names, combo))
        assert n.evaluate(assignment) == reference_eval(n, assignment)
    assert len(n.topo_gates()) == len(n.gates)
    metrics = n.metrics()
    assert metrics.gate_count == sum(g.kind not in CONST_KINDS for g in n.gates)
    assert sum(count for _, count in metrics.kind_counts) == len(n.gates)
    assert len(json.loads(n.to_json())["gates"]) == len(n.gates)


# The kernel remembers its last call: the same compiled cone, the same row
# count and equal input columns give back that call's outputs unevaluated.


def mixed_netlist():
    """y = qmux4(q; a as a level, 1, q, 3) and z = a xor (q < 2)."""
    n = Netlist([("a", B), ("q", Q)], [("y", Q), ("z", B)])
    a, q = n.input_net("a"), n.input_net("q")
    a_level = n.add_gate(GateKind.B2Q, [n.add_gate(GateKind.CONST0), a])
    one, three = (n.add_gate(GateKind.QCONST, level=lv) for lv in (1, 3))
    n.connect_output("y", n.add_gate(GateKind.QMUX4, [q, a_level, one, q, three]))
    n.connect_output("z", n.add_gate(GateKind.XOR2, [a, n.add_gate(GateKind.DLC2, [q])]))
    return n


def count_kernel_passes(n):
    """Wrap the plane functions of n's compiled cone; the returned function
    tells how many whole passes over the cone have run since."""
    n.validate()
    calls = []

    def counted(fn):
        def plane(*args):
            calls.append(fn)
            return fn(*args)

        return plane

    n._cone[:] = [(counted(fn), ins, out, level) for fn, ins, out, level in n._cone]
    size = len(n._cone)
    return lambda: len(calls) / size


def test_run_of_sweep_all_after_truth_table_runs_the_kernel_once():
    n = mixed_netlist()
    passes = count_kernel_passes(n)
    table = n.truth_table()
    assert passes() == 1
    assert run(n, sweep_all(n)).columns == table.columns
    assert passes() == 1
    assert list(table.rows) == reference_rows(n, all_combos(n))


def test_an_equal_stimulus_hits_and_a_changed_row_misses():
    n = mixed_netlist()
    passes = count_kernel_passes(n)
    combos = all_combos(n)
    n.truth_table()
    steps = [{"a": a, "q": q} for a, q in combos]
    assert run(n, Stimulus(steps)).rows == tuple(i + o for i, o in reference_rows(n, combos))
    assert passes() == 1  # equal columns, but not the same objects
    changed = [combos[-1], *combos[1:]]
    trace = run(n, Stimulus([{"a": a, "q": q} for a, q in changed]))
    assert passes() == 2
    assert trace.rows == tuple(i + o for i, o in reference_rows(n, changed))


def _not_z_and_a(n):
    """Install z' = not z and a as one batch, given out of order."""
    top = max(g.output for g in n.gates)
    z, a = n.output_net("z"), n.input_net("a")
    n.add_gates([Gate(GateKind.AND2, (top + 1, a), top + 2), Gate(GateKind.NOT, (z,), top + 1)])
    return top + 2


@pytest.mark.parametrize(
    "change",
    [
        lambda n: n.connect_output("z", n.add_gate(GateKind.NOT, [n.output_net("z")])),
        lambda n: n.connect_output("z", _not_z_and_a(n)),
        lambda n: n.connect_output("y", n.input_net("q")),
    ],
    ids=["add_gate", "add_gates", "connect_output"],
)
def test_a_construction_call_after_truth_table_gives_the_new_outputs(change):
    n = mixed_netlist()
    before = n.truth_table().rows
    change(n)
    rows = reference_rows(n, all_combos(n))
    assert rows != list(before)
    assert list(n.truth_table().rows) == rows
    assert run(n, sweep_all(n)).rows == tuple(i + o for i, o in rows)


def test_no_inputs_one_table_row_then_three_steps():
    n = Netlist([], [("k", Q)])
    n.connect_output("k", n.add_gate(GateKind.QCONST, level=2))
    assert n.truth_table().rows == (((), (2,)),)
    assert run(n, Stimulus(({},) * 3)).rows == ((2,),) * 3
    assert n.truth_table().rows == (((), (2,)),)


def test_evaluate_between_table_and_run_changes_no_result():
    n = mixed_netlist()
    passes = count_kernel_passes(n)
    table = n.truth_table()
    assert n.evaluate({"a": 1, "q": 3}) == reference_eval(n, {"a": 1, "q": 3})
    assert run(n, sweep_all(n)).columns == table.columns
    assert passes() == 3
