"""The bit-parallel table kernel against the single-vector reference.

`truth_table` and `sim.run` evaluate all rows at once; every row must equal
`Netlist.evaluate` on its inputs, for every gate kind and any typed DAG.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_netlist import BAD_LEVEL_MESSAGE, BAD_LEVELS

from mvq.netlist import (
    GATE_SIGNATURES,
    GateKind,
    LevelOutOfRange,
    Netlist,
    SignalType,
)
from mvq.sim import Stimulus, run, sweep_all

B = SignalType.BIN
Q = SignalType.QUAT


def reference_rows(n, combos):
    names = [name for name, _ in n.input_ports]
    rows = []
    for combo in combos:
        out = n.evaluate(dict(zip(names, combo)))
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
    assert list(n.truth_table().rows) == reference_rows(n, all_combos(n))


@settings(max_examples=150, deadline=None)
@given(typed_dags())
def test_truth_table_columns_equal_run_of_sweep_all(n):
    assert n.truth_table().columns == run(n, sweep_all(n)).columns


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


def test_run_empty_stimulus_gives_empty_rows():
    n = Netlist([], [("k", Q)])
    n.connect_output("k", n.add_gate(GateKind.QCONST, level=1))
    assert run(n, Stimulus(())).rows == ()
    assert run(n, Stimulus(({}, {}))).rows == ((1,), (1,))


def test_table_at_the_state_cap():
    # 2^16 rows: a 16-input parity chain, spot-checked against evaluate
    n = Netlist([(f"b{k}", B) for k in range(16)], [("p", B)])
    acc = n.input_net("b0")
    for k in range(1, 16):
        acc = n.add_gate(GateKind.XOR2, [acc, n.input_net(f"b{k}")])
    n.connect_output("p", acc)
    rows = n.truth_table().rows
    assert len(rows) == 2 ** 16
    for r in (0, 1, 12345, 2 ** 16 - 1):
        assert rows[r] == reference_rows(n, [rows[r][0]])[0]
