"""Netlist construction through `add_gates` and the JSON importer built on it:
round trips over random typed DAGs, mutated documents, and the one install
path's all-or-nothing rule."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_table_kernel import typed_dags

from mvq import netlist as nl
from mvq.netlist import Gate, GateKind, Netlist, SignalType, from_json

B = SignalType.BIN


@settings(max_examples=100, deadline=None)
@given(typed_dags(), st.randoms(use_true_random=False))
def test_json_round_trip_keeps_table_and_text(n, rng):
    text = n.to_json()
    back = from_json(text)
    assert back.truth_table() == n.truth_table()
    assert back.to_json() == text
    doc = json.loads(text)
    rng.shuffle(doc["gates"])
    assert from_json(json.dumps(doc)).truth_table() == n.truth_table()


@settings(max_examples=100, deadline=None)
@given(typed_dags(), st.randoms(use_true_random=False))
def test_gate_nets_numbered_in_any_order_keep_the_table(n, rng):
    # gate nets renumbered by a random permutation, so a gate may read a net
    # numbered past its own: the batch is ordered by its dependencies
    doc = json.loads(n.to_json())
    nets = [g["output"] for g in doc["gates"]]
    renumber = dict(zip(nets, rng.sample(nets, len(nets))))
    for g in doc["gates"]:
        g["inputs"] = [renumber.get(k, k) for k in g["inputs"]]
        g["output"] = renumber[g["output"]]
    for p in doc["outputs"]:
        p["net"] = renumber.get(p["net"], p["net"])
    rng.shuffle(doc["gates"])
    back = from_json(json.dumps(doc))
    assert back.truth_table() == n.truth_table()
    place = {g.output: k for k, g in enumerate(back.topo_gates())}
    assert len(place) == len(back.gates)
    assert all(place[i] < place[g.output] for g in back.gates for i in g.inputs if i in place)


# JSON values a mutation may put in place of another; "NEST" and "HUGE" are
# replaced in the text by deeply nested brackets and a 5000-digit integer
VALUES = (None, True, False, 0, -1, 1, 2, 7, 1.5, "", "bin", "quat", "not",
          "qconst", [], [0], [0, 1], {}, {"id": 0}, "NEST", "HUGE")


@st.composite
def mutated_documents(draw):
    doc = json.loads(draw(typed_dags()).to_json())
    for _ in range(draw(st.integers(1, 3))):
        # every (container, key) in the document, the root's wrapper included
        root = [doc]
        slots = [(root, 0)]
        k = 0
        while k < len(slots):
            container, key = slots[k]
            node = container[key]
            if isinstance(node, dict):
                slots += [(node, child) for child in node]
            elif isinstance(node, list):
                slots += [(node, child) for child in range(len(node))]
            k += 1
        container, key = draw(st.sampled_from(slots))
        op = draw(st.sampled_from(("drop", "retype", "renumber")))
        if op == "drop" and container is not root:
            del container[key]
        elif op == "renumber":
            container[key] = draw(st.integers(-2, 40))
        else:  # a copy: a shared list put inside itself would make a cycle
            container[key] = copy.deepcopy(draw(st.sampled_from(VALUES)))
        doc = root[0]
    depth = draw(st.sampled_from((3, 900, 100_000)))
    text = json.dumps(doc).replace('"NEST"', "[" * depth + "]" * depth)
    return text.replace('"HUGE"', "9" * 5000)


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_mutated_json_raises_only_netlist_errors(text):
    try:
        imported = from_json(text)
    except nl.NetlistError:
        return
    imported.validate()


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000, '{"inputs": ' + "9" * 5000 + "}"],
    ids=["nested", "huge-int"],
)
def test_json_parser_limits_are_json_errors(text):
    with pytest.raises(nl.NetlistJsonError):
        from_json(text)


def test_add_gates_takes_any_order_and_continues_past_the_batch():
    n = Netlist([("a", B), ("b", B)], [("y", B)])
    n.add_gates([
        Gate(GateKind.NOT, (7,), 9),
        Gate(GateKind.AND2, (0, 1), 7),
    ])
    n.connect_output("y", 9)
    assert n.add_gate(GateKind.CONST1) == 10
    assert sorted(g.output for g in n.topo_gates()) == [7, 9, 10]
    assert [out for _, out in n.truth_table().rows] == [(1,), (1,), (1,), (0,)]


@pytest.mark.parametrize(
    "gates, error",
    [
        ([Gate(GateKind.NOT, (0,), 2), Gate(GateKind.NOT, (0,), 2)], nl.MultipleDrivers),
        ([Gate(GateKind.NOT, (0,), 2), Gate(GateKind.NOT, (0,), 0)], nl.MultipleDrivers),
        ([Gate(GateKind.NOT, (0,), 2), Gate(GateKind.NOT, (5,), 3)], nl.UnknownNet),
        ([Gate(GateKind.B2Q, (0, 0), 2), Gate(GateKind.NOT, (2,), 3)], nl.TypeMismatch),
        ([Gate(GateKind.NOT, (0,), 2), Gate(GateKind.AND2, (2,), 3)], nl.ArityMismatch),
        ([Gate(GateKind.NOT, (0,), 2), Gate(GateKind.QCONST, (), 3, 4)], nl.LevelOutOfRange),
    ],
    ids=["twice-in-batch", "input-net", "unknown", "type", "arity", "level"],
)
def test_add_gates_installs_nothing_on_error(gates, error):
    n = Netlist([("a", B)], [("y", B)])
    n.connect_output("y", n.add_gate(GateKind.NOT, [0]))
    before = n.to_json()
    with pytest.raises(error):
        n.add_gates(gates)
    assert n.to_json() == before
    with pytest.raises(nl.UnknownNet):
        n.connect_output("y", 3)
    assert n.add_gate(GateKind.NOT, [1]) == 2
