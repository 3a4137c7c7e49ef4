"""Every error the netlist importer and its install path can raise, pinned.

Each bad document below goes through `from_json`, and each bad build
through the public `Netlist` API; the exception's class name and text must
be exactly the ones in the table. Some documents hold two faults, to pin
which error wins. The texts were recorded from the importer that checked
each gate in several separate passes, so a faster importer must keep them.
"""

import json

import pytest

from mvq import netlist as nl
from mvq.netlist import Gate, GateKind, Netlist, SignalType, from_json

B = SignalType.BIN
Q = SignalType.QUAT

# input a (bin) is net 0, input q (quat) is net 1
INPUTS = [{"name": "a", "type": "bin"}, {"name": "q", "type": "quat"}]


def gate(gid, kind, inputs, output, **extra):
    return {"id": gid, "kind": kind, "inputs": inputs, "output": output, **extra}


def doc(gates, outputs=(("y", "bin", 2),), inputs=INPUTS):
    return json.dumps({
        "inputs": inputs,
        "outputs": [{"name": n, "type": t, "net": net} for n, t, net in outputs],
        "gates": gates,
    })


def stdlib_message(call):
    try:
        call()
    except (ValueError, RecursionError) as exc:
        return str(exc)
    raise AssertionError("expected an error")


NESTED = "[" * 100_000
HUGE = '{"inputs": ' + "9" * 5000 + "}"
CYCLE = [gate(0, "not", [4], 3), gate(1, "not", [3], 4)]  # dead: y is on net 2
NOT_A = gate(9, "not", [0], 2)

DOCUMENTS = [
    # the JSON text itself
    ("not-json", "{nope", "NetlistJsonError",
     "bad JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("nested", NESTED, "NetlistJsonError",
     "bad JSON: " + stdlib_message(lambda: json.loads(NESTED))),
    ("huge-int", HUGE, "NetlistJsonError",
     "bad JSON: " + stdlib_message(lambda: json.loads(HUGE))),
    # the document's shape
    ("root-list", "[]", "NetlistJsonError",
     "malformed netlist document: list indices must be integers or slices, not str"),
    ("no-inputs", json.dumps({"outputs": [], "gates": []}), "NetlistJsonError",
     "malformed netlist document: 'inputs'"),
    ("no-gates", json.dumps({"inputs": [], "outputs": []}), "NetlistJsonError",
     "malformed netlist document: 'gates'"),
    ("input-type", doc([NOT_A], inputs=[{"name": "a", "type": "ternary"}]),
     "NetlistJsonError", "malformed netlist document: 'ternary' is not a valid SignalType"),
    ("input-name", doc([NOT_A], inputs=[{"name": 3, "type": "bin"}]),
     "NetlistJsonError", "malformed netlist document: port name 3 is not a string"),
    ("output-type", doc([NOT_A], outputs=[("y", "tri", 2)]), "NetlistJsonError",
     "malformed netlist document: 'tri' is not a valid SignalType"),
    ("gate-id", doc([gate("0", "not", [0], 2)]), "NetlistJsonError",
     "malformed netlist document: id '0' is not an integer"),
    ("gate-kind", doc([gate(0, "bogus", [0], 2)]), "NetlistJsonError",
     "malformed netlist document: 'bogus' is not a valid GateKind"),
    ("gate-kind-list", doc([gate(0, ["not"], [0], 2)]), "NetlistJsonError",
     "malformed netlist document: ['not'] is not a valid GateKind"),
    ("gate-kind-bool", doc([gate(0, True, [0], 2)]), "NetlistJsonError",
     "malformed netlist document: True is not a valid GateKind"),
    ("gate-no-kind", doc([{"id": 0, "inputs": [0], "output": 2}]), "NetlistJsonError",
     "malformed netlist document: 'kind'"),
    ("gate-inputs-int", doc([gate(0, "not", 0, 2)]), "NetlistJsonError",
     "malformed netlist document: 'int' object is not iterable"),
    ("gate-inputs-str", doc([gate(0, "not", "0", 2)]), "NetlistJsonError",
     "malformed netlist document: id '0' is not an integer"),
    ("gate-input-float", doc([gate(0, "and2", [0, 1.0], 2)]), "NetlistJsonError",
     "malformed netlist document: id 1.0 is not an integer"),
    ("gate-output-bool", doc([gate(0, "not", [0], True)]), "NetlistJsonError",
     "malformed netlist document: id True is not an integer"),
    ("gate-no-output", doc([{"id": 0, "kind": "not", "inputs": [0]}]), "NetlistJsonError",
     "malformed netlist document: 'output'"),
    ("output-net", doc([NOT_A], outputs=[("y", "bin", "2")]), "NetlistJsonError",
     "malformed netlist document: id '2' is not an integer"),
    ("output-no-net", doc([NOT_A]).replace(', "net": 2', ""), "NetlistJsonError",
     "malformed netlist document: 'net'"),
    # the Netlist constructor
    ("port-twice", doc([NOT_A], outputs=[("a", "bin", 2)]), "DuplicatePortName", "a"),
    ("port-name-comma", doc([NOT_A], outputs=[("y,z", "bin", 2)]), "NetlistError",
     "port name 'y,z' has a ',', a space or an unprintable character"),
    ("port-name-newline", doc([NOT_A], inputs=[{"name": "a\nb", "type": "bin"}]),
     "NetlistError", "port name 'a\\nb' has a ',', a space or an unprintable character"),
    ("gate-id-twice", doc([NOT_A, gate(9, "not", [0], 3)]), "NetlistJsonError",
     "duplicate gate id"),
    # add_gates
    ("driver-twice", doc([NOT_A, gate(1, "not", [0], 2)]), "MultipleDrivers",
     "net 2 has two drivers"),
    ("driver-on-input", doc([NOT_A, gate(1, "not", [0], 1)]), "MultipleDrivers",
     "net 1 has two drivers"),
    ("arity", doc([gate(0, "and2", [0], 2)]), "ArityMismatch", "and2 takes 2 inputs, got 1"),
    ("unknown-net", doc([gate(0, "and2", [0, 7], 2)]), "UnknownNet", "net 7 does not exist"),
    ("type", doc([gate(0, "not", [1], 2)]), "TypeMismatch",
     "not needs bin input, net 1 is quat"),
    ("type-of-batch-net", doc([gate(0, "dlc1", [3], 2), gate(1, "not", [0], 3)]),
     "TypeMismatch", "dlc1 needs quat input, net 3 is bin"),
    ("qconst-level", doc([gate(0, "qconst", [], 2, level=4)], outputs=[("y", "quat", 2)]),
     "LevelOutOfRange", "qconst level: 4 is not a quat level"),
    ("qconst-no-level", doc([gate(0, "qconst", [], 2)], outputs=[("y", "quat", 2)]),
     "LevelOutOfRange", "qconst level: None is not a quat level"),
    ("qconst-bool-level", doc([gate(0, "qconst", [], 2, level=True)], outputs=[("y", "quat", 2)]),
     "LevelOutOfRange", "qconst level: True is not a quat level"),
    ("level-on-not", doc([gate(0, "not", [0], 2, level=1)]), "NetlistError",
     "not does not take a level"),
    # from_json's outputs and connect_output
    ("output-null", doc([NOT_A], outputs=[("y", "bin", None)]), "UndrivenOutput", "y"),
    ("output-unknown-net", doc([NOT_A], outputs=[("y", "bin", 77)]), "UnknownNet",
     "net 77 does not exist"),
    ("output-type-mismatch", doc([NOT_A], outputs=[("y", "quat", 2)]), "TypeMismatch",
     "output 'y' is quat, net 2 is bin"),
    # validate: the net named is the first repeated on a walk of unresolved
    # inputs from the first unresolved gate in document order
    ("cycle", doc([gate(0, "and2", [0, 3], 2), gate(1, "not", [2], 3)]),
     "CombinationalCycle", "net 2 lies on a cycle"),
    ("self-loop", doc([gate(0, "and2", [0, 2], 2)]), "CombinationalCycle",
     "net 2 lies on a cycle"),
    ("dead-cycle", doc([NOT_A, *CYCLE]), "CombinationalCycle", "net 3 lies on a cycle"),
    ("dead-cycle-first", doc([*CYCLE, NOT_A]), "CombinationalCycle", "net 3 lies on a cycle"),
    ("cycle-tail", doc([gate(5, "not", [5], 2), gate(6, "not", [3], 5), *CYCLE]),
     "CombinationalCycle", "net 3 lies on a cycle"),
    ("cycle-second-input", doc([
        gate(0, "and2", [0, 3], 2), gate(1, "and2", [0, 4], 3), gate(2, "or2", [3, 2], 4)
    ]), "CombinationalCycle", "net 3 lies on a cycle"),
    ("two-cycles", doc([
        NOT_A, gate(3, "not", [6], 5), gate(4, "not", [5], 6), *CYCLE
    ]), "CombinationalCycle", "net 5 lies on a cycle"),
    ("cycle-late-numbers", doc([
        gate(0, "not", [9], 2), gate(1, "not", [0], 9), gate(2, "xor2", [12, 0], 11),
        gate(3, "xor2", [11, 0], 12)
    ]), "CombinationalCycle", "net 11 lies on a cycle"),
    # two faults: which error wins
    ("undriven-and-cycle", doc(CYCLE, outputs=[("y", "bin", None)]), "UndrivenOutput", "y"),
    ("type-and-cycle", doc([gate(7, "not", [1], 2), *CYCLE]), "TypeMismatch",
     "not needs bin input, net 1 is quat"),
    ("kind-and-id-twice", doc([gate(0, "bogus", [0], 2), gate(0, "not", [0], 3)]),
     "NetlistJsonError", "malformed netlist document: 'bogus' is not a valid GateKind"),
    ("id-after-kind", doc([gate(0, "bogus", [0], 2), gate("x", "not", [0], 3)]),
     "NetlistJsonError", "malformed netlist document: id 'x' is not an integer"),
    ("output-net-and-kind", doc([gate(0, "bogus", [0], 2)], outputs=[("y", "bin", "2")]),
     "NetlistJsonError", "malformed netlist document: 'bogus' is not a valid GateKind"),
    ("input-and-output-of-gate", doc([gate(0, "not", ["0"], "2")]), "NetlistJsonError",
     "malformed netlist document: id '0' is not an integer"),
    ("output-of-first-and-input-of-second", doc([
        gate(0, "not", [0], "2"), gate(1, "not", ["0"], 3)
    ]), "NetlistJsonError", "malformed netlist document: id '2' is not an integer"),
    ("port-and-id-twice", doc([NOT_A, NOT_A], outputs=[("a", "bin", 2)]),
     "DuplicatePortName", "a"),
    ("id-twice-and-driver-twice", doc([NOT_A, NOT_A]), "NetlistJsonError", "duplicate gate id"),
    ("arity-and-driver-twice", doc([gate(0, "and2", [0], 3), NOT_A, gate(1, "not", [0], 2)]),
     "MultipleDrivers", "net 2 has two drivers"),
    ("arity-then-unknown", doc([gate(0, "and2", [0], 2), gate(1, "not", [8], 3)]),
     "ArityMismatch", "and2 takes 2 inputs, got 1"),
    ("unknown-then-arity", doc([gate(1, "not", [8], 3), gate(0, "and2", [0], 2)]),
     "UnknownNet", "net 8 does not exist"),
    ("type-before-its-driver-unknown", doc([gate(0, "dlc1", [3], 2), gate(1, "not", [8], 3)]),
     "TypeMismatch", "dlc1 needs quat input, net 3 is bin"),
    ("unknown-and-type-in-one-gate", doc([gate(0, "and2", [1, 8], 2)]), "TypeMismatch",
     "and2 needs bin input, net 1 is quat"),
    ("type-and-unknown-in-one-gate", doc([gate(0, "and2", [8, 1], 2)]), "UnknownNet",
     "net 8 does not exist"),
    ("level-and-arity-in-one-gate", doc([gate(0, "and2", [0], 2, level=1)]), "ArityMismatch",
     "and2 takes 2 inputs, got 1"),
    ("unknown-and-cycle", doc([gate(7, "not", [8], 2), *CYCLE]), "UnknownNet",
     "net 8 does not exist"),
    ("level-and-cycle", doc([gate(7, "qconst", [], 2, level=9), *CYCLE],
                            outputs=[("y", "quat", 2)]),
     "LevelOutOfRange", "qconst level: 9 is not a quat level"),
    ("unknown-output-net-then-null", doc([NOT_A], outputs=[("y", "bin", 77), ("z", "bin", None)]),
     "UnknownNet", "net 77 does not exist"),
    ("null-then-unknown-output-net", doc([NOT_A], outputs=[("y", "bin", None), ("z", "bin", 77)]),
     "UndrivenOutput", "y"),
    ("output-type-and-cycle", doc(CYCLE, outputs=[("y", "quat", 3)]), "TypeMismatch",
     "output 'y' is quat, net 3 is bin"),
]


@pytest.mark.parametrize(
    "text, name, message", [case[1:] for case in DOCUMENTS], ids=[case[0] for case in DOCUMENTS]
)
def test_bad_document_raises_its_pinned_error(text, name, message):
    with pytest.raises(nl.NetlistError) as exc:
        from_json(text)
    assert (type(exc.value).__name__, str(exc.value)) == (name, message)


def _late_connect():
    n = Netlist([("a", B)], [("y", B), ("z", B)])
    n.connect_output("y", n.add_gate(GateKind.NOT, [0]))
    n.validate()


def _self_loop():
    n = Netlist([("a", B)], [("y", B)])
    n.add_gate(GateKind.AND2, [0, 1])
    n.connect_output("y", 0)
    n.validate()


def _cycle_then_more_batches():
    # a later batch reading the cycle must not change the net named
    n = Netlist([("a", B)], [("y", B)])
    n.add_gates([Gate(GateKind.NOT, (3,), 2), Gate(GateKind.NOT, (2,), 3)])
    n.add_gates([Gate(GateKind.AND2, (0, 3), 4)])
    n.add_gate(GateKind.NOT, [4])
    n.connect_output("y", 0)
    n.validate()


def _cycle_after_validate():
    n = Netlist([("a", B)], [("y", B)])
    n.connect_output("y", n.add_gate(GateKind.NOT, [0]))
    n.validate()
    n.add_gates([Gate(GateKind.NOT, (4,), 3), Gate(GateKind.NOT, (3,), 4)])
    n.evaluate({"a": 0})


def _unknown_output_port():
    n = Netlist([("a", B)], [("y", B)])
    n.connect_output("z", 0)


def _add_gate_unknown_net():
    n = Netlist([("a", B)], [("y", B)])
    n.add_gate(GateKind.NOT, [5])


BUILDS = [
    ("validate-undriven", _late_connect, "UndrivenOutput", "z"),
    ("add-gate-self-loop", _self_loop, "CombinationalCycle", "net 1 lies on a cycle"),
    ("cycle-then-batches", _cycle_then_more_batches, "CombinationalCycle",
     "net 2 lies on a cycle"),
    ("cycle-after-validate", _cycle_after_validate, "CombinationalCycle",
     "net 3 lies on a cycle"),
    ("unknown-output-port", _unknown_output_port, "UnknownPort", "no output port 'z'"),
    ("add-gate-unknown-net", _add_gate_unknown_net, "UnknownNet", "net 5 does not exist"),
]


@pytest.mark.parametrize(
    "build, name, message", [case[1:] for case in BUILDS], ids=[case[0] for case in BUILDS]
)
def test_bad_build_raises_its_pinned_error(build, name, message):
    with pytest.raises(nl.NetlistError) as exc:
        build()
    assert (type(exc.value).__name__, str(exc.value)) == (name, message)
