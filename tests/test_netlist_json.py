"""Netlist construction through `add_gates` and the JSON importer built on it:
round trips over random typed DAGs, mutated documents, and the one install
path's all-or-nothing rule."""

import copy
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_table_kernel import typed_dags

from mvq import netlist as nl
from mvq.circuits import CIRCUIT_IDS, REGISTRY
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
    assert back.metrics() == n.metrics()
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


# --- the sort by output net against Kahn's algorithm
#
# `from_json` reads a document's gates gate by gate (`_read_gates`) and
# checks the batch once (`Netlist._scan`), which names any error and returns
# the order flag: whether every gate reads only nets numbered below its own.
# A batch with the flag set is sorted by output net, any other goes through
# Kahn's algorithm (`_dependency_order`). Both must install the same netlist
# from every document, faulty or not.

KINDS = list(GateKind)


def random_document(rng, n_gates, permute=False):
    """A valid document over every gate kind, its gates shuffled; with
    permute, gate nets renumbered so gates may read higher-numbered nets."""
    inputs = [{"name": f"b{i}", "type": "bin"} for i in range(rng.randint(1, 3))]
    inputs += [{"name": f"q{i}", "type": "quat"} for i in range(rng.randint(1, 2))]
    rng.shuffle(inputs)
    nets = {"bin": [], "quat": []}
    for i, p in enumerate(inputs):
        nets[p["type"]].append(i)
    kinds = (KINDS * (n_gates // len(KINDS) + 1))[:n_gates]
    rng.shuffle(kinds)
    ids = rng.sample(range(-5, 10 * n_gates), n_gates)
    gates = []
    for k, kind in enumerate(kinds):
        out = len(inputs) + k
        ins = [rng.choice(nets[sig.value][-8:] if rng.random() < 0.5 else nets[sig.value])
               for sig in kind.inputs]
        gate = {"id": ids[k], "kind": kind.value, "inputs": ins, "output": out}
        if kind is GateKind.QCONST:
            gate["level"] = rng.randrange(4)
        gates.append(gate)
        nets[kind.output.value].append(out)
    picks = rng.sample([g["output"] for g in gates], 4)
    out_type = {g["output"]: GateKind(g["kind"]).output.value for g in gates}
    outputs = [{"name": f"o{i}", "type": out_type[net], "net": net} for i, net in enumerate(picks)]
    if permute:
        driven = [g["output"] for g in gates]
        renumber = dict(zip(driven, rng.sample(driven, len(driven))))
        for g in gates:
            g["inputs"] = [renumber.get(n, n) for n in g["inputs"]]
            g["output"] = renumber[g["output"]]
        for p in outputs:
            p["net"] = renumber[p["net"]]
    rng.shuffle(gates)
    return {"inputs": inputs, "outputs": outputs, "gates": gates}


def _net_types(doc):
    """Type by net, from the ports and the gates a first fault left whole."""
    types = {i: p["type"] for i, p in enumerate(doc["inputs"])}
    for g in doc["gates"]:
        kind = g.get("kind")
        if type(g.get("output")) is int and type(kind) is str and kind in nl._KINDS:
            types[g["output"]] = nl._KINDS[kind].output.value
    return types


def _pick(rng, doc, lo, fits):
    """A position at or past lo whose gate fits, or None."""
    places = [k for k in range(lo, len(doc["gates"])) if fits(doc["gates"][k])]
    return rng.choice(places) if places else None


def _has_inputs(g):
    return bool(g["inputs"])


def _is_qconst(g):
    return g["kind"] == "qconst"


def _not_qconst(g):
    return g["kind"] != "qconst"


def _any(g):
    return True


def _second_driver(rng, g, doc):
    g["output"] = rng.choice([n for n in _net_types(doc) if n != g["output"]])


def _arity_short(rng, g, doc):
    g["inputs"].pop()


def _arity_long(rng, g, doc):
    g["inputs"].append(0)


def _unknown_net(rng, g, doc):
    g["inputs"][rng.randrange(len(g["inputs"]))] = rng.choice((10 ** 6, -7))


def _mistyped_input(rng, g, doc):
    types = _net_types(doc)
    k = rng.randrange(len(g["inputs"]))
    g["inputs"][k] = rng.choice([n for n, t in types.items() if t != types.get(g["inputs"][k])])


def _reads_own_net(rng, g, doc):  # installs, then is a cycle
    g["inputs"][GateKind(g["kind"]).inputs.index(GateKind(g["kind"]).output)] = g["output"]


def _reads_own_type(g):
    kind = GateKind(g["kind"])
    return kind.output in kind.inputs


def _bad_id(rng, g, doc):
    g["id"] = rng.choice((True, False, str(g["id"]), 1.0))


def _bad_input(rng, g, doc):
    k = rng.randrange(len(g["inputs"]))
    g["inputs"][k] = rng.choice((True, False, str(g["inputs"][k]), float(g["inputs"][k])))


def _bad_output(rng, g, doc):
    g["output"] = rng.choice((True, False, str(g["output"]), float(g["output"])))


def _no_level(rng, g, doc):
    del g["level"]


def _bad_level(rng, g, doc):
    g["level"] = rng.choice((4, -1, 2 ** 70, True, 1.0, "1", None, [1]))


def _level_elsewhere(rng, g, doc):
    g["level"] = rng.choice((0, 1, 3, False, "x"))


def _null_level_elsewhere(rng, g, doc):  # no fault: a null level is no level
    g["level"] = None


def _unknown_kind(rng, g, doc):
    g["kind"] = rng.choice(("nand3", "NOT", 7, None, ["not"]))


def _missing_field(rng, g, doc):
    del g[rng.choice(("id", "kind", "inputs", "output"))]


def _inputs_not_a_list(rng, g, doc):
    g["inputs"] = rng.choice((0, None, "", "01", {"0": 1}))


def _duplicate_id(rng, g, doc):
    g["id"] = rng.choice([h.get("id") for h in doc["gates"] if h is not g])


# (fault, which gates it applies to); output-port faults are on the ports
GATE_FAULTS = {
    "second-driver": (_second_driver, _any),
    "arity-short": (_arity_short, _has_inputs),
    "arity-long": (_arity_long, _any),
    "unknown-net": (_unknown_net, _has_inputs),
    "mistyped-input": (_mistyped_input, _has_inputs),
    "reads-own-net": (_reads_own_net, _reads_own_type),
    "bad-id": (_bad_id, _any),
    "bad-input": (_bad_input, _has_inputs),
    "bad-output": (_bad_output, _any),
    "qconst-no-level": (_no_level, _is_qconst),
    "qconst-bad-level": (_bad_level, _is_qconst),
    "level-elsewhere": (_level_elsewhere, _not_qconst),
    "null-level-elsewhere": (_null_level_elsewhere, _not_qconst),
    "unknown-kind": (_unknown_kind, _any),
    "missing-field": (_missing_field, _any),
    "inputs-not-a-list": (_inputs_not_a_list, _any),
    "duplicate-id": (_duplicate_id, _any),
}


def _undriven_output(rng, doc):
    rng.choice(doc["outputs"])["net"] = None


def _unknown_output(rng, doc):
    rng.choice(doc["outputs"])["net"] = rng.choice((10 ** 6, -1))


def _mistyped_output(rng, doc):
    p = rng.choice(doc["outputs"])
    p["type"] = "quat" if p["type"] == "bin" else "bin"


PORT_FAULTS = {
    "undriven-output": _undriven_output,
    "unknown-output": _unknown_output,
    "mistyped-output": _mistyped_output,
}


def import_outcome(text):
    """The error an import raises, or the netlist's text, table and metrics
    once its dependency order is checked: each gate after the gates it reads."""
    try:
        n = from_json(text)
    except nl.NetlistError as exc:
        return type(exc).__name__, str(exc)
    placed = set(range(len(n.input_ports)))
    for g in n.topo_gates():
        assert placed.issuperset(g.inputs)
        placed.add(g.output)
    assert len(placed) == len(n.input_ports) + len(n.gates)
    return "ok", n.to_json(), n.truth_table(), n.metrics()


def kahn_outcome(text, monkeypatch):
    """import_outcome with the scan's order flag forced false, so every
    batch goes through Kahn's algorithm."""
    scan = Netlist._scan
    with monkeypatch.context() as m:
        m.setattr(Netlist, "_scan", lambda self, *columns: (scan(self, *columns)[0], False))
        return import_outcome(text)


def faulty_documents(seed, faults):
    """Documents with one fault of a class at a random gate, then a second
    fault (of a random class) at a later gate, on sorted and permuted nets."""
    rng = random.Random(seed)
    for permute in (False, True):
        doc = random_document(rng, rng.randint(50, 300), permute)
        first = faults(rng, doc, 0)
        yield copy.deepcopy(doc)
        if first is not None:
            name = rng.choice(sorted(GATE_FAULTS))
            _apply_gate_fault(rng, doc, name, first + 1)
            yield doc


def _apply_gate_fault(rng, doc, name, lo):
    fault, fits = GATE_FAULTS[name]
    k = _pick(rng, doc, lo, fits)
    if k is not None:
        fault(rng, doc["gates"][k], doc)
    return k


def _faults(name):
    """faulty_documents' first fault: the named class, at or past gate lo."""
    def faults(rng, doc, lo):
        if name in PORT_FAULTS:
            PORT_FAULTS[name](rng, doc)
            return 0
        return _apply_gate_fault(rng, doc, name, lo)

    return faults


FAULT_CLASSES = sorted(GATE_FAULTS) + sorted(PORT_FAULTS)


@pytest.mark.parametrize("name", FAULT_CLASSES)
def test_the_sort_installs_what_kahns_algorithm_installs(name, monkeypatch):
    for seed in range(12):
        for doc in faulty_documents(seed, _faults(name)):
            text = json.dumps(doc)
            assert import_outcome(text) == kahn_outcome(text, monkeypatch)


@pytest.mark.parametrize("permute", [False, True], ids=["sorted-nets", "permuted-nets"])
def test_valid_documents_install_alike_by_sort_and_kahn(permute, monkeypatch):
    rng = random.Random(17)
    for _ in range(20):
        text = json.dumps(random_document(rng, rng.randint(2, 300), permute))
        want = import_outcome(text)
        assert want[0] == "ok"
        assert kahn_outcome(text, monkeypatch) == want


def test_documents_numbered_in_order_never_reach_kahns_algorithm(monkeypatch):
    # a later edit that cleared the order flag on such a batch would send
    # every import through Kahn's algorithm, correct but slow
    rng = random.Random(17)
    docs = [random_document(rng, rng.randint(2, 300)) for _ in range(20)]
    shuffled = [random_document(rng, rng.randint(20, 300), permute=True) for _ in range(5)]
    calls = []
    kahn = nl._dependency_order
    monkeypatch.setattr(nl, "_dependency_order", lambda *a: calls.append(1) or kahn(*a))
    for doc in docs:
        from_json(json.dumps(doc))
    assert not calls
    # nets renumbered at random put some gate past a net it reads
    for doc in shuffled:
        from_json(json.dumps(doc))
    assert len(calls) == len(shuffled)


@pytest.mark.parametrize("build", ["add_gate", "add_gates", "from_json"])
def test_each_batch_is_scanned_once(build, monkeypatch):
    calls = []
    scan = Netlist._scan
    monkeypatch.setattr(Netlist, "_scan", lambda self, *c: calls.append(len(c[0])) or scan(self, *c))
    if build == "from_json":
        from_json(json.dumps(random_document(random.Random(5), 40, permute=True)))
        assert calls == [40]
        return
    n = Netlist([("a", B)], [("y", B)])
    if build == "add_gate":
        n.add_gate(GateKind.NOT, [0])
        n.add_gate(GateKind.AND2, [0, 1])
        assert calls == [1, 1]
    else:
        n.add_gates([Gate(GateKind.NOT, (3,), 2), Gate(GateKind.NOT, [0], 3)])
        n.add_gates(Gate(GateKind.NOT, (k,), k + 1) for k in (3, 4))
        n.add_gates([])
        assert calls == [2, 2]


# --- the gate reader against a reference that makes a call per field


def reference_id(value):
    if type(value) is not int:
        raise TypeError(f"id {value!r} is not an integer")
    return value


def reference_read_gates(gates):
    """The gates' columns, read gate by gate with a call per field: every id
    first, then each gate's kind, inputs, output and level."""
    ids = tuple(reference_id(g["id"]) for g in gates)
    kinds, ins, outs, levels = [], [], [], []
    for g in gates:
        kinds.append(GateKind(g["kind"]))
        ins.append(tuple(map(reference_id, g["inputs"])))
        outs.append(reference_id(g["output"]))
        levels.append(g.get("level"))
    return ids, kinds, ins, outs, levels


def read_outcome(read, gates):
    """The columns read (ids as a tuple), or the error's type and text."""
    try:
        ids, *columns = read(gates)
    except (KeyError, TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return (tuple(ids), *columns)


@pytest.mark.parametrize("name", FAULT_CLASSES)
def test_gate_reader_matches_the_reference_on_the_fault_corpus(name):
    for seed in range(40):
        for doc in faulty_documents(seed, _faults(name)):
            want = read_outcome(reference_read_gates, doc["gates"])
            assert read_outcome(nl._read_gates, doc["gates"]) == want


@pytest.mark.parametrize(
    "gates",
    [7, None, "ab", {"id": 0}, [[0]], ["g"], [None], [7], [{"id": 0}],
     [{"id": 0, "kind": "not", "inputs": [0], "output": 2}, 5],
     [{"id": 0, "kind": "not", "inputs": [0], "output": 2}, {"kind": "not"}],
     [{"id": 0, "kind": {}, "inputs": [0], "output": 2}],
     [{"id": 0, "kind": "not", "inputs": [[0]], "output": 2}],
     [{"id": 0, "kind": "not", "inputs": [0], "output": [2]}],
     [{"id": 0, "kind": "qconst", "inputs": [], "output": 2, "level": [1]}]],
)
def test_gate_reader_matches_the_reference_on_malformed_gates(gates):
    assert read_outcome(nl._read_gates, gates) == read_outcome(reference_read_gates, gates)



@pytest.mark.parametrize(
    "bad",
    [Gate(GateKind.NOT, (True,), 2), Gate(GateKind.NOT, (0.0,), 2),
     Gate(GateKind.NOT, (0,), 2.0), Gate(GateKind.NOT, (0,), False),
     Gate(GateKind.AND2, (0, "1"), 2)],
    ids=["bool-input", "float-input", "float-output", "bool-output", "str-input"],
)
def test_nets_are_exact_ints(bad):
    # True would otherwise read net 1, as a dict key, and 2.0 drive net 2
    n = Netlist([("a", B), ("b", B)], [("y", B)])
    for batch in ([bad], [Gate(GateKind.NOT, (0,), 5), bad]):
        with pytest.raises(nl.NetlistError, match="is not an int$"):
            n.add_gates(batch)
    with pytest.raises(nl.NetlistError, match="^net True is not an int$"):
        n.add_gate(GateKind.NOT, [True])
    with pytest.raises(nl.NetlistError, match="^net True is not an int$"):
        n.connect_output("y", True)  # to_json would write "net": true
    assert n.gates == ()
    assert n.add_gate(GateKind.NOT, [1]) == 2


def test_add_gates_takes_input_lists():
    # input nets may come as lists, and a gate before the one driving its
    # input; the netlist keeps tuples of its own, so a later edit of the
    # caller's list changes nothing
    n = Netlist([("a", B)], [("y", B)])
    nets = [2]
    n.add_gates([Gate(GateKind.NOT, nets, 3), Gate(GateKind.NOT, [0], 2)])
    nets[0] = 7
    n.connect_output("y", 3)
    assert n.gates == (Gate(GateKind.NOT, (2,), 3), Gate(GateKind.NOT, (0,), 2))
    assert len(set(n.gates)) == 2
    assert [out for _, out in n.truth_table().rows] == [(0,), (1,)]
    assert [g.output for g in n.topo_gates()] == [2, 3]
    assert json.loads(n.to_json())["gates"][0]["inputs"] == [2]


def test_add_gates_puts_each_batch_in_dependency_order():
    n = Netlist([("a", B), ("q", SignalType.QUAT)], [("y", B)])
    n.add_gates([Gate(GateKind.NOT, (0,), 2), Gate(GateKind.AND2, [0, 2], 3)])
    n.add_gates([Gate(GateKind.QCONST, (), 5, 0), Gate(GateKind.DLC1, (5,), 4),
                 Gate(GateKind.CONST0, [], 6)])
    n.connect_output("y", 3)
    order = [g.output for g in n.topo_gates()]
    assert order[:2] == [2, 3] and sorted(order) == [2, 3, 4, 5, 6]
    assert order.index(5) < order.index(4)
    assert [out for _, out in n.truth_table().rows] == [(0,)] * 8


def test_fresh_nets_follow_every_net_in_use():
    n = Netlist([("a", B)], [("y", B)])
    n.add_gates([Gate(GateKind.NOT, (0,), 4)])
    n.add_gates([Gate(GateKind.NOT, (0,), 2), Gate(GateKind.NOT, (2,), 3)])
    assert n.add_gate(GateKind.NOT, [3]) == 5
    n.add_gates([Gate(GateKind.NOT, (0,), 1)])
    assert n.add_gate(GateKind.NOT, [1]) == 6


def test_self_loop_in_a_batch_numbered_in_order_is_a_cycle():
    # every other input reads a lower net, so only the gate reading its own
    # net keeps the batch from the sort by output net
    doc = {
        "inputs": [{"name": "a", "type": "bin"}],
        "outputs": [{"name": "y", "type": "bin", "net": 1}],
        "gates": [{"id": 0, "kind": "not", "inputs": [0], "output": 1},
                  {"id": 1, "kind": "and2", "inputs": [0, 2], "output": 2}],
    }
    with pytest.raises(nl.CombinationalCycle, match="^net 2 lies on a cycle$"):
        from_json(json.dumps(doc))


def reference_cycle_net(n):
    """The net validate names, from the gates alone: from the first gate in
    install order that no chain of gates from the ports reaches, follow the
    first input that such a gate drives until a net repeats; None when the
    ports reach every gate."""
    reached = {n.input_net(name) for name, _ in n.input_ports}
    grew = True
    while grew:
        grew = False
        for g in n.gates:
            if g.output not in reached and reached.issuperset(g.inputs):
                reached.add(g.output)
                grew = True
    stuck = {g.output: g.inputs for g in n.gates if g.output not in reached}
    net, seen = next(iter(stuck), None), set()
    while net is not None and net not in seen:
        seen.add(net)
        net = next(i for i in stuck[net] if i in stuck)
    return net


def random_build(rng):
    """A netlist built by a mix of add_gate (sometimes reading its own net)
    and add_gates batches (nets numbered in any order, sometimes closing a
    cycle or reading one)."""
    n = Netlist([("a", B), ("b", B)], [("y", B)])
    n.connect_output("y", 0)
    nets = [0, 1]
    for _ in range(rng.randint(1, 6)):
        kinds = [rng.choice((GateKind.NOT, GateKind.AND2)) for _ in range(rng.randint(1, 5))]
        fresh = max(nets) + 1
        if len(kinds) == 1 and rng.random() < 0.5:
            reads = nets + [fresh] * (rng.random() < 0.2)
            n.add_gate(kinds[0], [rng.choice(reads) for _ in kinds[0].inputs])
            nets.append(fresh)
            continue
        outs = rng.sample(range(fresh, fresh + 2 * len(kinds)), len(kinds))
        reads = nets + outs if rng.random() < 0.5 else nets
        n.add_gates([Gate(kind, tuple(rng.choice(reads) for _ in kind.inputs), out)
                     for kind, out in zip(kinds, outs)])
        nets += outs
    return n


@pytest.mark.parametrize("seed", range(4))
def test_a_cycle_is_named_from_the_gates_the_order_leaves_out(seed):
    rng = random.Random(seed)
    cycles = 0
    for _ in range(250):
        n = random_build(rng)
        want = reference_cycle_net(n)
        if want is None:
            placed = {0, 1}
            for g in n.topo_gates():
                assert placed.issuperset(g.inputs)
                placed.add(g.output)
            assert len(placed) == len(n.gates) + 2
        else:
            cycles += 1
            with pytest.raises(nl.CombinationalCycle, match=f"^net {want} lies on a cycle$"):
                n.validate()
    assert 50 < cycles < 200


@pytest.mark.parametrize("source", [*CIRCUIT_IDS, "random-2000"])
def test_metrics_tally_matches_a_count_per_gate(source):
    if source == "random-2000":
        n = from_json(json.dumps(random_document(random.Random(2000), 2000)))
    else:
        n = REGISTRY[source].build()
    kinds = [g.kind for g in n.gates]
    counted = [kind for kind in kinds if kind.cost is not None]
    m = n.metrics()
    assert m.kind_counts == tuple(sorted(Counter(kind.value for kind in kinds).items()))
    assert m.gate_count == len(counted)
    assert m.transistor_estimate == sum(kind.cost for kind in counted)
    assert n.metrics(dict.fromkeys(GateKind, 3)).transistor_estimate == 3 * len(counted)
    if not counted:  # constants only: no table can be short
        assert n.metrics({}) == m
        return
    # a table short of several kinds names the first gate's, in gate order
    with pytest.raises(nl.MissingCostEntry, match=f"no entry for {counted[0].value}$"):
        n.metrics({})
    short = {kind: 1 for kind in GateKind if kind is not counted[-1]}
    with pytest.raises(nl.MissingCostEntry, match=f"no entry for {counted[-1].value}$"):
        n.metrics(short)
