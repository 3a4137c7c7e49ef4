"""Gate-graph IR: construction, gate semantics, evaluation, metrics, JSON."""

import itertools
import json
import pickle
import random
from enum import IntEnum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvq import netlist as nl
from mvq.netlist import (
    CONST_KINDS,
    DEFAULT_COST_TABLE,
    GATE_SIGNATURES,
    GateKind,
    Netlist,
    SignalType,
    from_json,
)

B = SignalType.BIN
Q = SignalType.QUAT


class Level(IntEnum):
    ZERO = 0
    ONE = 1


# (signal type, value that is not one of its levels): every place a level
# comes in from outside rejects each with LevelOutOfRange, a ValueError
BAD_LEVELS = [
    (sig, bad)
    for sig in SignalType
    for bad in (True, -1, sig.levels, 256, 2 ** 70, 1.0, "1", None, Level.ONE)
]
BAD_LEVEL_MESSAGE = "is not a (bin|quat) level"


def xor_pair() -> Netlist:
    n = Netlist([("a", B), ("b", B)], [("y", B)])
    n.connect_output("y", n.add_gate(GateKind.XOR2, [n.input_net("a"), n.input_net("b")]))
    return n


def test_signal_type_levels():
    assert B.levels == 2
    assert Q.levels == 4


def test_signal_types_behave_as_plain_enum_values():
    assert [(sig.value, sig.levels) for sig in SignalType] == [("bin", 2), ("quat", 4)]
    for sig in SignalType:
        assert SignalType(sig.value) is sig
        assert repr(sig) == f"<SignalType.{sig.name}: {sig.value!r}>"
        assert pickle.loads(pickle.dumps(sig)) is sig
    with pytest.raises(ValueError):
        SignalType(2)


def test_duplicate_port_name_rejected():
    with pytest.raises(nl.DuplicatePortName):
        Netlist([("x", B), ("x", B)], [("y", B)])
    with pytest.raises(nl.DuplicatePortName):
        Netlist([("x", B)], [("x", B)])


@pytest.mark.parametrize("name", ["a,b", "c d", "y\nz", "\t", "x\x00", "\u2028"])
def test_a_port_name_a_trace_cannot_carry_is_rejected(name):
    for ports in (([(name, B)], [("y", B)]), ([("x", B)], [(name, B)])):
        with pytest.raises(nl.NetlistError, match="has a ',', a space or an unprintable"):
            Netlist(*ports)


def test_other_port_names_are_kept():
    n = Netlist([("", B), ("x[0]", B), ("é.b", Q)], [("~y", B)])
    assert [name for name, _ in n.input_ports] == ["", "x[0]", "é.b"]


def test_constant_only_shell_is_legal():
    n = Netlist([], [("k", Q)])
    n.connect_output("k", n.add_gate(GateKind.QCONST, level=3))
    assert n.evaluate({}) == {"k": 3}
    assert len(n.truth_table().rows) == 1


def test_add_gate_errors():
    n = Netlist([("q", Q), ("b", B)], [("y", B)])
    with pytest.raises(nl.ArityMismatch):
        n.add_gate(GateKind.XOR2, [n.input_net("b")])
    with pytest.raises(nl.TypeMismatch):
        n.add_gate(GateKind.XOR2, [n.input_net("q"), n.input_net("b")])
    with pytest.raises(nl.UnknownNet):
        n.add_gate(GateKind.NOT, [99])
    with pytest.raises(nl.LevelOutOfRange):
        n.add_gate(GateKind.QCONST, level=4)
    with pytest.raises(nl.LevelOutOfRange):
        n.add_gate(GateKind.QCONST)
    with pytest.raises(nl.NetlistError):
        n.add_gate(GateKind.NOT, [n.input_net("b")], level=1)
    for sig, bad in BAD_LEVELS:
        if sig is Q:
            with pytest.raises(nl.LevelOutOfRange, match=BAD_LEVEL_MESSAGE):
                n.add_gate(GateKind.QCONST, level=bad)
    assert n.gates == ()


def test_connect_output_errors():
    n = Netlist([("q", Q)], [("y", B)])
    dlc = n.add_gate(GateKind.DLC1, [n.input_net("q")])
    with pytest.raises(nl.UnknownPort):
        n.connect_output("z", dlc)
    with pytest.raises(nl.UnknownNet):
        n.connect_output("y", 77)
    with pytest.raises(nl.TypeMismatch):
        n.connect_output("y", n.input_net("q"))
    n.connect_output("y", dlc)
    n.validate()


def test_output_net_errors():
    n = Netlist([("a", B)], [("y", B)])
    for name in ("nope", "a"):  # not declared, or an input port
        with pytest.raises(nl.UnknownPort, match=f"^no output port '{name}'$"):
            n.output_net(name)
    with pytest.raises(nl.UndrivenOutput, match="^y$"):  # declared, not connected
        n.output_net("y")
    n.connect_output("y", n.input_net("a"))
    assert n.output_net("y") == n.input_net("a")


def test_undriven_output():
    n = Netlist([("a", B)], [("y", B)])
    with pytest.raises(nl.UndrivenOutput):
        n.validate()


def test_cycle_detection_names_a_net():
    doc = {
        "inputs": [{"name": "a", "type": "bin"}],
        "outputs": [{"name": "y", "type": "bin", "net": 1}],
        "gates": [
            {"id": 0, "kind": "and2", "inputs": [0, 2], "output": 1},
            {"id": 1, "kind": "not", "inputs": [1], "output": 2},
        ],
    }
    with pytest.raises(nl.CombinationalCycle) as err:
        from_json(json.dumps(doc))
    assert "net" in str(err.value)


def test_self_loop_is_a_cycle():
    doc = {
        "inputs": [{"name": "a", "type": "bin"}],
        "outputs": [{"name": "y", "type": "bin", "net": 1}],
        "gates": [{"id": 0, "kind": "and2", "inputs": [0, 1], "output": 1}],
    }
    with pytest.raises(nl.CombinationalCycle):
        from_json(json.dumps(doc))


def test_evaluate_errors():
    n = xor_pair()
    with pytest.raises(nl.MissingAssignment):
        n.evaluate({"a": 1})
    with pytest.raises(nl.LevelOutOfRange):
        n.evaluate({"a": 2, "b": 0})
    with pytest.raises(nl.LevelOutOfRange):
        n.evaluate({"a": True, "b": 0})
    with pytest.raises(nl.UnknownPort):
        n.evaluate({"a": 1, "b": 0, "c": 1})
    mixed = Netlist([("a", B), ("q", Q)], [("y", Q)])
    mixed.connect_output("y", mixed.input_net("q"))
    for sig, bad in BAD_LEVELS:
        name = "a" if sig is B else "q"
        with pytest.raises(nl.LevelOutOfRange, match=BAD_LEVEL_MESSAGE) as exc:
            mixed.evaluate({"a": 1, "q": 3, name: bad})
        assert isinstance(exc.value, ValueError)


def test_evaluate_is_pure():
    n = xor_pair()
    for _ in range(3):
        assert n.evaluate({"a": 1, "b": 0}) == {"y": 1}
        assert n.evaluate({"a": 1, "b": 1}) == {"y": 0}


def test_gate_semantics_exhaustive():
    # every kind against its documented function, over its full input space
    expected = {
        GateKind.NOT: lambda v: 1 - v[0],
        GateKind.AND2: lambda v: int(all(v)),
        GateKind.AND3: lambda v: int(all(v)),
        GateKind.AND4: lambda v: int(all(v)),
        GateKind.OR2: lambda v: int(any(v)),
        GateKind.OR3: lambda v: int(any(v)),
        GateKind.OR4: lambda v: int(any(v)),
        GateKind.XOR2: lambda v: (v[0] + v[1]) % 2,
        GateKind.NAND2: lambda v: 1 - int(all(v)),
        GateKind.NOR2: lambda v: 1 - int(any(v)),
        GateKind.ANDN2: lambda v: int(v[0] == 0 and v[1] == 1),
        GateKind.BMUX2: lambda v: v[1] if v[0] else v[2],
        GateKind.DLC1: lambda v: int(v[0] < 1),
        GateKind.DLC2: lambda v: int(v[0] < 2),
        GateKind.DLC3: lambda v: int(v[0] < 3),
        GateKind.B2Q: lambda v: 2 * v[0] + v[1],
        GateKind.QMUX4: lambda v: v[1 + v[0]],
    }
    for kind, fn in expected.items():
        in_sigs, out_sig = GATE_SIGNATURES[kind]
        names = [f"i{k}" for k in range(len(in_sigs))]
        n = Netlist(list(zip(names, in_sigs)), [("y", out_sig)])
        n.connect_output("y", n.add_gate(kind, [n.input_net(x) for x in names]))
        for combo in itertools.product(*(range(s.levels) for s in in_sigs)):
            got = n.evaluate(dict(zip(names, combo)))["y"]
            assert got == fn(combo), (kind, combo)


def test_const_gates():
    n = Netlist([], [("z", B), ("o", B), ("q", Q)])
    n.connect_output("z", n.add_gate(GateKind.CONST0))
    n.connect_output("o", n.add_gate(GateKind.CONST1))
    n.connect_output("q", n.add_gate(GateKind.QCONST, level=2))
    assert n.evaluate({}) == {"z": 0, "o": 1, "q": 2}


def test_dlc_family_against_threshold_definition():
    n = Netlist([("q", Q)], [("d1", B), ("d2", B), ("d3", B)])
    for k, kind in ((1, GateKind.DLC1), (2, GateKind.DLC2), (3, GateKind.DLC3)):
        n.connect_output(f"d{k}", n.add_gate(kind, [n.input_net("q")]))
    table = {lvl: n.evaluate({"q": lvl}) for lvl in range(4)}
    assert [table[lvl]["d1"] for lvl in range(4)] == [1, 0, 0, 0]
    assert [table[lvl]["d2"] for lvl in range(4)] == [1, 1, 0, 0]
    assert [table[lvl]["d3"] for lvl in range(4)] == [1, 1, 1, 0]


def test_truth_table_row_order():
    n = Netlist([("a", B), ("q", Q)], [("y", Q)])
    n.connect_output("y", n.input_net("q"))
    tt = n.truth_table()
    combos = [r[0] for r in tt.rows]
    # first-declared port varies slowest
    assert combos == [(a, q) for a in range(2) for q in range(4)]
    assert all(r[1] == (r[0][1],) for r in tt.rows)


def test_truth_table_state_cap():
    n = Netlist([(f"q{i}", Q) for i in range(9)], [("y", Q)])
    n.connect_output("y", n.input_net("q0"))
    with pytest.raises(nl.StateSpaceTooLarge):
        n.truth_table()


def test_metrics_counts_and_depth():
    # two-level pair: depth 2, one const excluded
    n = Netlist([("a", B), ("b", B)], [("y", B), ("k", B)])
    g1 = n.add_gate(GateKind.AND2, [n.input_net("a"), n.input_net("b")])
    g2 = n.add_gate(GateKind.XOR2, [g1, n.input_net("b")])
    n.connect_output("y", g2)
    n.connect_output("k", n.add_gate(GateKind.CONST1))
    m = n.metrics()
    assert m.gate_count == 2
    assert m.depth == 2
    assert m.transistor_estimate == DEFAULT_COST_TABLE[GateKind.AND2] + DEFAULT_COST_TABLE[GateKind.XOR2]
    assert dict(m.kind_counts) == {"and2": 1, "xor2": 1, "const1": 1}
    assert m.published_transistors is None


def test_metrics_wire_only_netlist():
    n = Netlist([("a", B)], [("y", B)])
    n.connect_output("y", n.input_net("a"))
    m = n.metrics()
    assert m.gate_count == 0 and m.depth == 0 and m.transistor_estimate == 0


def test_metrics_depth_counts_no_constant():
    # a constant sits at depth 0, as an input port does; a gate adds one hop
    n = Netlist([("a", B)], [("k", B), ("y", B)])
    k = n.add_gate(GateKind.CONST0)
    n.connect_output("k", k)
    n.connect_output("y", k)
    assert n.metrics().depth == 0
    n.connect_output("y", n.add_gate(GateKind.AND2, [k, n.add_gate(GateKind.CONST1)]))
    assert n.metrics().depth == 1
    assert Netlist([("a", B)], []).metrics().depth == 0


def test_metrics_missing_cost_entry():
    n = xor_pair()
    with pytest.raises(nl.MissingCostEntry):
        n.metrics(costs={GateKind.AND2: 6})


def test_metrics_depth_le_gate_count_on_chains():
    n = Netlist([("a", B)], [("y", B)])
    net = n.input_net("a")
    for _ in range(5):
        net = n.add_gate(GateKind.NOT, [net])
    n.connect_output("y", net)
    m = n.metrics()
    assert m.depth == 5 and m.gate_count == 5
    assert m.depth <= m.gate_count


def test_json_round_trip_equivalence():
    n = Netlist([("a", B), ("b", B), ("q", Q)], [("y", B), ("w", Q)])
    x = n.add_gate(GateKind.XOR2, [n.input_net("a"), n.input_net("b")])
    d = n.add_gate(GateKind.DLC2, [n.input_net("q")])
    n.connect_output("y", n.add_gate(GateKind.AND2, [x, d]))
    n.connect_output("w", n.add_gate(GateKind.QCONST, level=1))
    m = from_json(n.to_json())
    assert m.truth_table() == n.truth_table()
    assert m.metrics() == n.metrics()


def test_to_json_text_is_pinned():
    n = Netlist([("q", Q)], [("y", B), ("w", Q)])
    n.connect_output("y", n.add_gate(GateKind.DLC1, [0]))
    n.add_gate(GateKind.QCONST, level=2)
    assert n.to_json() == """{
  "inputs": [
    {
      "name": "q",
      "type": "quat"
    }
  ],
  "outputs": [
    {
      "name": "y",
      "type": "bin",
      "net": 1
    },
    {
      "name": "w",
      "type": "quat",
      "net": null
    }
  ],
  "gates": [
    {
      "id": 0,
      "kind": "dlc1",
      "inputs": [
        0
      ],
      "output": 1
    },
    {
      "id": 1,
      "kind": "qconst",
      "inputs": [],
      "output": 2,
      "level": 2
    }
  ]
}"""


def test_json_import_accepts_any_gate_order():
    n = Netlist([("a", B), ("b", B)], [("y", B)])
    g1 = n.add_gate(GateKind.OR2, [n.input_net("a"), n.input_net("b")])
    g2 = n.add_gate(GateKind.NOT, [g1])
    n.connect_output("y", g2)
    doc = json.loads(n.to_json())
    reference = n.truth_table()
    for perm in itertools.permutations(doc["gates"]):
        shuffled = dict(doc, gates=list(perm))
        assert from_json(json.dumps(shuffled)).truth_table() == reference


@given(st.randoms(use_true_random=False))
def test_json_gate_permutation_invariance_on_larger_graph(rng):
    n = Netlist([("a", B), ("b", B), ("c", B)], [("y", B)])
    nets = [n.input_net(p) for p in ("a", "b", "c")]
    for kind in (GateKind.XOR2, GateKind.NAND2, GateKind.OR2, GateKind.AND2):
        nets.append(n.add_gate(kind, [rng.choice(nets), rng.choice(nets)]))
    n.connect_output("y", nets[-1])
    doc = json.loads(n.to_json())
    rng.shuffle(doc["gates"])
    assert from_json(json.dumps(doc)).truth_table() == n.truth_table()


def test_add_gate_after_from_json_takes_a_fresh_net():
    # gate ids 1 and 2 used to collide with the id add_gate gave the third gate
    doc = {
        "inputs": [{"name": "a", "type": "bin"}],
        "outputs": [{"name": "y", "type": "bin", "net": 2}],
        "gates": [
            {"id": 1, "kind": "not", "inputs": [0], "output": 1},
            {"id": 2, "kind": "not", "inputs": [1], "output": 2},
        ],
    }
    n = from_json(json.dumps(doc))
    extra = n.add_gate(GateKind.NOT, [2])
    assert extra == 3
    n.connect_output("y", extra)
    n.validate()
    assert [g.output for g in n.topo_gates()] == [1, 2, 3]
    for a in (0, 1):
        assert n.evaluate({"a": a}) == {"y": 1 - a}
    assert n.truth_table().rows == (((0,), (1,)), ((1,), (0,)))


def test_json_error_paths():
    with pytest.raises(nl.NetlistJsonError):
        from_json("{nope")
    with pytest.raises(nl.NetlistJsonError):
        from_json(json.dumps({"inputs": [], "outputs": []}))
    base = {
        "inputs": [{"name": "a", "type": "bin"}],
        "outputs": [{"name": "y", "type": "bin", "net": 0}],
        "gates": [],
    }
    with pytest.raises(nl.NetlistJsonError):
        bad = dict(base, gates=[{"id": 0, "kind": "not", "inputs": [0], "output": 0}])
        from_json(json.dumps(bad))  # output collides with input net
    with pytest.raises(nl.NetlistJsonError):
        bad = dict(
            base,
            gates=[
                {"id": 0, "kind": "not", "inputs": [0], "output": 1},
                {"id": 0, "kind": "not", "inputs": [0], "output": 2},
            ],
        )
        from_json(json.dumps(bad))
    with pytest.raises(nl.UndrivenOutput):
        bad = dict(base, outputs=[{"name": "y", "type": "bin", "net": None}])
        from_json(json.dumps(bad))
    with pytest.raises(nl.NetlistJsonError):
        bad = dict(base, inputs=[{"name": "a", "type": "ternary"}])
        from_json(json.dumps(bad))


def _mutate_doc(path, value):
    n = Netlist([("a", B)], [("y", B)])
    n.connect_output("y", n.add_gate(GateKind.NOT, [n.input_net("a")]))
    doc = json.loads(n.to_json())
    *where, key = path
    node = doc
    for step in where:
        node = node[step]
    node[key] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "path, value",
    [
        (("outputs", 0, "net"), {"id": 1}),
        (("outputs", 0, "net"), "x"),
        (("outputs", 0, "net"), "1"),
        (("outputs", 0, "net"), 1.0),
        (("outputs", 0, "net"), True),
        (("gates", 0, "inputs", 0), {"id": 0}),
        (("gates", 0, "inputs", 0), "0"),
        (("gates", 0, "inputs"), "0"),
        (("gates", 0, "output"), [1]),
        (("gates", 0, "output"), "1"),
        (("gates", 0, "id"), {}),
        (("gates", 0, "id"), "0"),
        (("inputs", 0, "name"), ["a"]),
        (("inputs", 0, "name"), 3),
        (("outputs", 0, "name"), ["y"]),
        (("outputs", 0, "name"), 3),
    ],
    ids=[
        "output-net-dict", "output-net-str", "output-net-numeric-str",
        "output-net-float", "output-net-bool", "gate-input-dict",
        "gate-input-str", "gate-inputs-str", "gate-output-list",
        "gate-output-str", "gate-id-dict", "gate-id-str",
        "input-name-list", "input-name-int", "output-name-list",
        "output-name-int",
    ],
)
def test_json_rejects_non_integer_net_ids(path, value):
    with pytest.raises(nl.NetlistJsonError):
        from_json(_mutate_doc(path, value))


def test_qconst_level_survives_json():
    n = Netlist([], [("k", Q)])
    n.connect_output("k", n.add_gate(GateKind.QCONST, level=3))
    assert from_json(n.to_json()).evaluate({}) == {"k": 3}


@given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
def test_bmux2_select_property(sel, a, b):
    n = Netlist([("s", B), ("a", B), ("b", B)], [("y", B)])
    n.connect_output(
        "y",
        n.add_gate(GateKind.BMUX2, [n.input_net("s"), n.input_net("a"), n.input_net("b")]),
    )
    assert n.evaluate({"s": sel, "a": a, "b": b})["y"] == (a if sel == 1 else b)


@given(st.integers(0, 3), st.tuples(*[st.integers(0, 3)] * 4))
def test_qmux4_select_property(sel, data):
    n = Netlist(
        [("s", Q), ("d0", Q), ("d1", Q), ("d2", Q), ("d3", Q)], [("y", Q)]
    )
    n.connect_output(
        "y",
        n.add_gate(GateKind.QMUX4, [n.input_net(p) for p in ("s", "d0", "d1", "d2", "d3")]),
    )
    asg = {"s": sel, "d0": data[0], "d1": data[1], "d2": data[2], "d3": data[3]}
    assert n.evaluate(asg)["y"] == data[sel]


def test_every_gate_kind_has_signature_and_cost_policy():
    for kind in GateKind:
        assert kind in GATE_SIGNATURES
        if kind in CONST_KINDS:
            assert kind not in DEFAULT_COST_TABLE
        else:
            assert DEFAULT_COST_TABLE[kind] >= 0


# every gate kind in declaration order: (name, input types, output type,
# default transistor cost or "free"), written out here rather than read from
# GATE_SIGNATURES, which the kernel tests build their netlists from, so that a
# signature or cost that slips cannot pass them unseen
GATE_KIND_FACTS = [
    ("not", ("bin",), "bin", 2),
    ("and2", ("bin", "bin"), "bin", 6),
    ("and3", ("bin", "bin", "bin"), "bin", 8),
    ("and4", ("bin", "bin", "bin", "bin"), "bin", 10),
    ("or2", ("bin", "bin"), "bin", 6),
    ("or3", ("bin", "bin", "bin"), "bin", 8),
    ("or4", ("bin", "bin", "bin", "bin"), "bin", 10),
    ("xor2", ("bin", "bin"), "bin", 10),
    ("nand2", ("bin", "bin"), "bin", 4),
    ("nor2", ("bin", "bin"), "bin", 4),
    ("andn2", ("bin", "bin"), "bin", 6),
    ("const0", (), "bin", "free"),
    ("const1", (), "bin", "free"),
    ("bmux2", ("bin", "bin", "bin"), "bin", 6),
    ("dlc1", ("quat",), "bin", 2),
    ("dlc2", ("quat",), "bin", 2),
    ("dlc3", ("quat",), "bin", 2),
    ("b2q", ("bin", "bin"), "quat", 8),
    ("qconst", (), "quat", "free"),
    ("qmux4", ("quat", "quat", "quat", "quat", "quat"), "quat", 24),
]


def test_gate_kind_facts_are_pinned():
    assert list(GATE_SIGNATURES) == list(GateKind)
    got = [
        (
            kind.value,
            tuple(sig.value for sig in ins),
            out.value,
            "free" if kind in CONST_KINDS else DEFAULT_COST_TABLE[kind],
        )
        for kind, (ins, out) in GATE_SIGNATURES.items()
    ]
    assert got == GATE_KIND_FACTS
    assert set(DEFAULT_COST_TABLE) == set(GateKind) - CONST_KINDS


def test_gate_kind_members_behave_as_plain_enum_values():
    for kind in GateKind:
        assert GateKind(kind.value) is kind
        assert repr(kind) == f"<GateKind.{kind.name}: {kind.value!r}>"
        assert pickle.loads(pickle.dumps(kind)) is kind
    assert len({hash(kind) for kind in GateKind}) == len(GateKind)
