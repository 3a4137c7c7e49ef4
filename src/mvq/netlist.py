"""Typed combinational gate-graph IR for mixed binary/quaternary circuits.

Nets carry a fixed signal type (binary or quaternary). Gates are strict
combinational primitives, each known by the one net it drives; `add_gates` is
the one install path, used by `add_gate` and `from_json`. It puts each batch
in dependency order as it checks it and appends it to the order of every gate
before it, since earlier gates never read a later net. `validate` checks the
outputs are driven and no gate lies on a cycle, then compiles the output cone
("cone of influence", Clarke, Grumberg & Peled, Model Checking, 1999): the
gates that some output reads, directly or through other gates, in dependency
order. Evaluation walks only that cone, kept until the next construction
call, which is single-context only; every gate is still checked, counted by
`metrics` and written by `to_json`.

A level is an exact `int` (no `bool` or other subclass) in 0..levels-1 of
its signal type; `_level_column` checks that rule wherever levels come in
from outside, and nowhere else.

Gate semantics are stated once, in the `GateKind` rows, each with the kind's
port types and default cost (`GATE_SIGNATURES`, `DEFAULT_COST_TABLE` and
`CONST_KINDS` are views of them). Their plane functions make one bit-parallel
kernel ("parallel pattern" simulation, Waicukauski et al. 1985) over checked
bytes columns, one level per byte: each net is a pair of Python ints (hi, lo)
whose bit r is row r, under the natural encoding level = 2*hi + lo (binary
nets keep hi = 0), and every gate is a few big-int operations over all rows
at once. `evaluate` (one row, one dict of levels), `truth_table` and
`sim.run` all run that kernel; a `TruthTable` holds its columns. The
independent scalar reference the kernel is tested against lives in
tests/test_table_kernel.py.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

# The largest exhaustive table, bounded by memory. Peak RSS of a 2^16-row,
# 40-gate, 32-port netlist (getrusage, fresh CPython 3.11, 31 MB before the
# first table): truth_table 32 MB, 59 MB once .rows is read; with sim.run and
# the three trace exports 75 MB (100 MB with row tuples). That grows about
# linearly with the rows (41 MB at 2^14, 52 MB at 2^15): some 210 MB at 2^18.
MAX_TABLE_STATES = 2 ** 16


class SignalType(Enum):
    BIN = "bin"
    QUAT = "quat"

    @property
    def levels(self) -> int:
        return 2 if self is SignalType.BIN else 4


_B = SignalType.BIN
_Q = SignalType.QUAT


def _qmux4_planes(p, f, lv):
    (sh, sl), data = p[0], p[1:]
    # rows where the select level is 0, 1, 2, 3
    masks = (f ^ (sh | sl), (f ^ sh) & sl, sh & (f ^ sl), sh & sl)
    hi = lo = 0
    for m, (dh, dl) in zip(masks, data):
        hi |= m & dh
        lo |= m & dl
    return hi, lo


class GateKind(Enum):
    """One row per gate kind: JSON name (the value), input port types, output
    type, default transistor cost (static CMOS style; None for the constants,
    which are free wiring) and plane function f(input planes, all-rows mask,
    qconst level) -> output planes."""

    inputs: tuple[SignalType, ...]
    output: SignalType
    cost: int | None
    planes: Callable[[list[tuple[int, int]], int, int | None], tuple[int, int]]

    def __new__(cls, value, inputs, output, cost, planes):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.inputs, kind.output, kind.cost, kind.planes = inputs, output, cost, planes
        return kind

    NOT = "not", (_B,), _B, 2, lambda p, f, lv: (0, f ^ p[0][1])
    AND2 = "and2", (_B, _B), _B, 6, lambda p, f, lv: (0, p[0][1] & p[1][1])
    AND3 = "and3", (_B,) * 3, _B, 8, lambda p, f, lv: (0, p[0][1] & p[1][1] & p[2][1])
    AND4 = "and4", (_B,) * 4, _B, 10, lambda p, f, lv: (
        0, p[0][1] & p[1][1] & p[2][1] & p[3][1]
    )
    OR2 = "or2", (_B, _B), _B, 6, lambda p, f, lv: (0, p[0][1] | p[1][1])
    OR3 = "or3", (_B,) * 3, _B, 8, lambda p, f, lv: (0, p[0][1] | p[1][1] | p[2][1])
    OR4 = "or4", (_B,) * 4, _B, 10, lambda p, f, lv: (
        0, p[0][1] | p[1][1] | p[2][1] | p[3][1]
    )
    XOR2 = "xor2", (_B, _B), _B, 10, lambda p, f, lv: (0, p[0][1] ^ p[1][1])
    NAND2 = "nand2", (_B, _B), _B, 4, lambda p, f, lv: (0, f ^ (p[0][1] & p[1][1]))
    NOR2 = "nor2", (_B, _B), _B, 4, lambda p, f, lv: (0, f ^ (p[0][1] | p[1][1]))
    ANDN2 = "andn2", (_B, _B), _B, 6, lambda p, f, lv: (0, (f ^ p[0][1]) & p[1][1])
    CONST0 = "const0", (), _B, None, lambda p, f, lv: (0, 0)
    CONST1 = "const1", (), _B, None, lambda p, f, lv: (0, f)
    BMUX2 = "bmux2", (_B,) * 3, _B, 6, lambda p, f, lv: (
        0, (p[0][1] & p[1][1]) | ((f ^ p[0][1]) & p[2][1])
    )
    DLC1 = "dlc1", (_Q,), _B, 2, lambda p, f, lv: (0, f ^ (p[0][0] | p[0][1]))
    DLC2 = "dlc2", (_Q,), _B, 2, lambda p, f, lv: (0, f ^ p[0][0])
    DLC3 = "dlc3", (_Q,), _B, 2, lambda p, f, lv: (0, f ^ (p[0][0] & p[0][1]))
    B2Q = "b2q", (_B, _B), _Q, 8, lambda p, f, lv: (p[0][1], p[1][1])
    QCONST = "qconst", (), _Q, None, lambda p, f, lv: (f * (lv >> 1), f * (lv & 1))
    QMUX4 = "qmux4", (_Q,) * 5, _Q, 24, _qmux4_planes


# views of the GateKind rows, in GateKind order
GATE_SIGNATURES: dict[GateKind, tuple[tuple[SignalType, ...], SignalType]] = {
    kind: (kind.inputs, kind.output) for kind in GateKind
}
CONST_KINDS = frozenset(kind for kind in GateKind if kind.cost is None)
DEFAULT_COST_TABLE: dict[GateKind, int] = {
    kind: kind.cost for kind in GateKind if kind.cost is not None
}

# byte translations between a level column (one level per byte) and the
# binary digits of a plane, row 0 first
_LO_DIGIT = bytes.maketrans(bytes(range(4)), b"0101")
_HI_DIGIT = bytes.maketrans(bytes(range(4)), b"0011")
_DIGIT_LO = bytes.maketrans(b"01", bytes((0, 1)))
_DIGIT_HI = bytes.maketrans(b"01", bytes((0, 2)))


def _plane(column: bytes, digit: bytes) -> int:
    return int(column.translate(digit)[::-1], 2)


def _unpack(plane: int, rows: int, digit: bytes) -> bytes:
    return format(plane, f"0{rows}b")[::-1].encode().translate(digit)


class NetlistError(Exception):
    pass


class DuplicatePortName(NetlistError):
    pass


class ArityMismatch(NetlistError):
    pass


class TypeMismatch(NetlistError):
    pass


class UnknownNet(NetlistError):
    pass


class UnknownPort(NetlistError):
    pass


class CombinationalCycle(NetlistError):
    pass


class UndrivenOutput(NetlistError):
    pass


class MissingAssignment(NetlistError):
    pass


class LevelOutOfRange(NetlistError, ValueError):
    pass


class StateSpaceTooLarge(NetlistError):
    pass


class MissingCostEntry(NetlistError):
    pass


class NetlistJsonError(NetlistError):
    pass


class MultipleDrivers(NetlistJsonError):
    pass


class Gate(NamedTuple):
    kind: GateKind
    inputs: tuple[int, ...]
    output: int
    level: int | None = None  # qconst only


class Metrics(NamedTuple):
    gate_count: int
    depth: int
    transistor_estimate: int
    kind_counts: tuple[tuple[str, int], ...]
    published_transistors: int | None = None
    published_note: str | None = None


@dataclass(frozen=True)
class TruthTable:
    """Input then output columns (bytes, a level per row); `rows` reads them
    back as one (input levels, output levels) pair per row."""

    inputs: tuple[tuple[str, SignalType], ...]
    outputs: tuple[tuple[str, SignalType], ...]
    columns: tuple[bytes, ...]

    @functools.cached_property
    def rows(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        k, n = len(self.inputs), len(self.columns[0]) if self.columns else 1
        ins, outs = self.columns[:k], self.columns[k:]
        return tuple(zip(zip(*ins) if ins else [()] * n, zip(*outs) if outs else [()] * n))


def _level_column(values: Iterable[int], sig: SignalType, what: str) -> bytes:
    """values as a bytes column, one level per byte; LevelOutOfRange names
    the first that is not an int (exactly) in 0..sig.levels-1. A bytes column
    is checked by one translate."""
    if type(values) is bytes:
        if not values.translate(None, bytes(range(sig.levels))):
            return values
    else:
        values = tuple(values)
        if set(map(type, values)) <= {int} and (
            0 <= min(values, default=0) and max(values, default=0) < sig.levels
        ):
            return bytes(values)
    bad = next(v for v in values if type(v) is not int or not 0 <= v < sig.levels)
    raise LevelOutOfRange(f"{what}: {bad!r} is not a {sig.value} level")


_OUTPUT = operator.attrgetter("output")


def _dependency_order(batch: list[Gate]) -> list[Gate]:
    """Kahn's algorithm over a batch that reads only its own nets and nets
    installed before it: the gates in dependency order, less those on a
    cycle or reading one."""
    driven = {g.output for g in batch}
    pending: dict[int, int] = {}
    consumers: dict[int, list[Gate]] = {}
    ready: list[Gate] = []
    for g in batch:
        deps = [n for n in g.inputs if n in driven]
        pending[g.output] = len(deps)
        for n in deps:
            consumers.setdefault(n, []).append(g)
        if not deps:
            ready.append(g)
    order: list[Gate] = []
    while ready:
        g = ready.pop()
        order.append(g)
        for h in consumers.get(g.output, ()):
            pending[h.output] -= 1
            if pending[h.output] == 0:
                ready.append(h)
    return order


def _net_on_cycle(batch: list[Gate], order: list[Gate]) -> int:
    """A net on a cycle of the batch gates missing from order: from the first
    of them, follow the first input that one of them drives until a net
    repeats."""
    placed = {g.output for g in order}
    stuck = {g.output: g for g in batch if g.output not in placed}
    net = next(iter(stuck))
    seen: set[int] = set()
    while net not in seen:
        seen.add(net)
        net = next(n for n in stuck[net].inputs if n in stuck)
    return net


class Netlist:
    """Combinational net graph. Nets are ints; input port i drives net i, and
    each gate drives one net of its own, by which it is known."""

    def __init__(
        self,
        inputs: Iterable[tuple[str, SignalType]],
        outputs: Iterable[tuple[str, SignalType]],
    ) -> None:
        self._inputs: tuple[tuple[str, SignalType], ...] = tuple(inputs)
        self._outputs: tuple[tuple[str, SignalType], ...] = tuple(outputs)
        self._out_type: dict[str, SignalType] = dict(self._outputs)
        seen: set[str] = set()
        for name, _ in self._inputs + self._outputs:
            if name in seen:
                raise DuplicatePortName(name)
            seen.add(name)
        self._net_type: dict[int, SignalType] = {}
        self._input_net: dict[str, int] = {}
        for i, (name, sig) in enumerate(self._inputs):
            self._net_type[i] = sig
            self._input_net[name] = i
        self._next_net = len(self._inputs)
        self._gates: list[Gate] = []
        self._order: list[Gate] = []  # the gates in dependency order
        self._cycle: int | None = None  # a net on the first cycle installed
        self._out_net: dict[str, int] = {}
        # (its kind's plane function, input nets, output net, level) per gate
        # that reaches an output, in dependency order; validate() compiles it
        self._cone: list[tuple] | None = None

    @property
    def input_ports(self) -> tuple[tuple[str, SignalType], ...]:
        return self._inputs

    @property
    def output_ports(self) -> tuple[tuple[str, SignalType], ...]:
        return self._outputs

    @property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(self._gates)

    def topo_gates(self) -> tuple[Gate, ...]:
        """Gates in dependency order (validates first)."""
        self.validate()
        return tuple(self._order)

    def input_net(self, name: str) -> int:
        if name not in self._input_net:
            raise UnknownPort(f"no input port {name!r}")
        return self._input_net[name]

    def output_net(self, name: str) -> int:
        if name not in self._out_type:
            raise UnknownPort(f"no output port {name!r}")
        if name not in self._out_net:
            raise UndrivenOutput(name)
        return self._out_net[name]

    def add_gate(
        self,
        kind: GateKind,
        inputs: Iterable[int] = (),
        level: int | None = None,
    ) -> int:
        """Install one gate on the next fresh net and return that net."""
        out = self._next_net
        self.add_gates([Gate(kind, tuple(inputs), out, level)])
        return out

    def add_gates(self, gates: Iterable[Gate]) -> None:
        """Install gates given in any order, all or none. Inputs may be any
        existing net or batch output; a second driver for a net, input ports
        included, raises MultipleDrivers. The batch is put in dependency
        order as it is checked and goes after every gate installed before
        it, none of which reads its nets. Cycles are left to validate()."""
        batch = list(gates)
        net_type = self._net_type
        new_type: dict[int, SignalType] = {}
        for g in batch:
            if g.output in net_type or g.output in new_type:
                raise MultipleDrivers(f"net {g.output} has two drivers")
            new_type[g.output] = g.kind.output
        # sorted by output net, the batch is in dependency order unless a
        # gate reads a batch net numbered at or past its own; add_gate's
        # fresh nets and to_json's documents keep that numbering. The sort
        # costs far less than Kahn's algorithm, which any other order needs:
        # on shuffled documents of some 900 gates, Kahn's algorithm alone
        # made the import, evaluation and export of each about a tenth
        # slower (2-vCPU VM, CPython 3.11)
        by_net = True
        for g in batch:
            in_sigs = g.kind.inputs
            if len(g.inputs) != len(in_sigs):
                raise ArityMismatch(
                    f"{g.kind.value} takes {len(in_sigs)} inputs, got {len(g.inputs)}"
                )
            for net, sig in zip(g.inputs, in_sigs):
                have = net_type.get(net)
                if have is None:
                    have = new_type.get(net)
                    if have is None:
                        raise UnknownNet(f"net {net} does not exist")
                    by_net = by_net and net < g.output
                if have is not sig:
                    raise TypeMismatch(
                        f"{g.kind.value} needs {sig.value} input, net {net} is "
                        f"{have.value}"
                    )
            if g.kind is GateKind.QCONST:  # a missing level is None, not an int
                _level_column((g.level,), SignalType.QUAT, "qconst level")
            elif g.level is not None:
                raise NetlistError(f"{g.kind.value} does not take a level")
        if by_net:
            self._order += sorted(batch, key=_OUTPUT) if len(batch) > 1 else batch
        else:
            order = _dependency_order(batch)
            if len(order) < len(batch) and self._cycle is None:
                self._cycle = _net_on_cycle(batch, order)
            self._order += order
        net_type.update(new_type)
        self._gates += batch
        self._next_net = max([self._next_net - 1, *new_type]) + 1
        self._cone = None

    def connect_output(self, name: str, net: int) -> None:
        if name not in self._out_type:
            raise UnknownPort(f"no output port {name!r}")
        if net not in self._net_type:
            raise UnknownNet(f"net {net} does not exist")
        if self._net_type[net] is not self._out_type[name]:
            raise TypeMismatch(
                f"output {name!r} is {self._out_type[name].value}, net {net} is "
                f"{self._net_type[net].value}"
            )
        self._out_net[name] = net
        self._cone = None

    def validate(self) -> None:
        """Check that every output is driven and no gate lies on a cycle;
        compile the output cone, kept until the next construction call."""
        if self._cone is not None:
            return
        for name, _ in self._outputs:
            if name not in self._out_net:
                raise UndrivenOutput(name)
        if self._cycle is not None:
            raise CombinationalCycle(f"net {self._cycle} lies on a cycle")
        # cone of influence: walk back from the outputs, keeping the gates
        # whose net some kept gate or output reads
        live = set(self._out_net.values())
        cone = []
        for g in reversed(self._order):
            if g.output in live:
                live.update(g.inputs)
                cone.append((g.kind.planes, g.inputs, g.output, g.level))
        cone.reverse()
        self._cone = cone

    def evaluate(self, assignment: Mapping[str, int]) -> dict[str, int]:
        self.validate()
        names = {name for name, _ in self._inputs}
        for key in assignment:
            if key not in names:
                raise UnknownPort(f"no input port {key!r}")
        columns = []
        for name, sig in self._inputs:
            if name not in assignment:
                raise MissingAssignment(name)
            columns.append(_level_column((assignment[name],), sig, f"input {name!r}"))
        outs = self._eval_columns(columns, 1)
        return {name: col[0] for (name, _), col in zip(self._outputs, outs)}

    def _eval_columns(self, columns: Sequence[bytes], rows: int) -> list[bytes]:
        """Whole-table kernel: one bytes column of `rows` levels per input
        port in, one per output port out. It checks no level: the caller
        does (_level_column), unless _exhaustive_columns made the columns."""
        self.validate()
        assert self._cone is not None
        if rows == 0:
            return [b""] * len(self._outputs)
        full = (1 << rows) - 1
        planes: dict[int, tuple[int, int]] = {}
        for (name, sig), col in zip(self._inputs, columns):
            hi = _plane(col, _HI_DIGIT) if sig is SignalType.QUAT else 0
            planes[self._input_net[name]] = (hi, _plane(col, _LO_DIGIT))
        for fn, ins, out, level in self._cone:
            planes[out] = fn([planes[n] for n in ins], full, level)
        out = []
        for name, sig in self._outputs:
            hi, lo = planes[self._out_net[name]]
            col = _unpack(lo, rows, _DIGIT_LO)
            if sig is SignalType.QUAT:
                # per-row levels 2*hi + lo; bytes never carry (each is <= 3)
                both = int.from_bytes(col, "little") + int.from_bytes(
                    _unpack(hi, rows, _DIGIT_HI), "little"
                )
                col = both.to_bytes(rows, "little")
            out.append(col)
        return out

    def _exhaustive_columns(self) -> list[bytes]:
        """One level column per input port covering every input combination
        once, lexicographic, first-declared port slowest-varying (validates
        first; StateSpaceTooLarge past MAX_TABLE_STATES rows)."""
        self.validate()
        states = 1
        for _, sig in self._inputs:
            states *= sig.levels
        if states > MAX_TABLE_STATES:
            raise StateSpaceTooLarge(f"{states} input states")
        columns = []
        stride = states
        for _, sig in self._inputs:
            stride //= sig.levels
            block = b"".join(bytes((lv,)) * stride for lv in range(sig.levels))
            columns.append(block * (states // len(block)))
        return columns

    def truth_table(self) -> TruthTable:
        columns = self._exhaustive_columns()
        outs = self._eval_columns(columns, len(columns[0]) if columns else 1)
        return TruthTable(self._inputs, self._outputs, tuple(columns + outs))

    def metrics(self, costs: Mapping[GateKind, int] | None = None) -> Metrics:
        self.validate()
        # constants (cost None) are free wiring, whatever the cost table says
        counted = [g.kind for g in self._gates if g.kind.cost is not None]
        total = 0
        for kind in counted:
            if costs is None:
                total += kind.cost
            elif kind in costs:
                total += costs[kind]
            else:
                raise MissingCostEntry(f"cost table has no entry for {kind.value}")
        # depth: gate hops on the longest input->output path (a constant is on none)
        net_depth: dict[int, int] = {n: 0 for n in self._input_net.values()}
        for g in self._order:
            net_depth[g.output] = (
                1 + max(net_depth[n] for n in g.inputs) if g.inputs else 0
            )
        depth = max((net_depth[self._out_net[n]] for n, _ in self._outputs), default=0)
        tally: dict[str, int] = {}
        for g in self._gates:
            tally[g.kind.value] = tally.get(g.kind.value, 0) + 1
        kind_counts = tuple(sorted(tally.items()))
        return Metrics(len(counted), depth, total, kind_counts)

    def to_json(self) -> str:
        import json

        doc = {
            "inputs": [{"name": n, "type": s.value} for n, s in self._inputs],
            "outputs": [
                {"name": n, "type": s.value, "net": self._out_net.get(n)}
                for n, s in self._outputs
            ],
            "gates": [
                {
                    "id": k,
                    "kind": g.kind.value,
                    "inputs": list(g.inputs),
                    "output": g.output,
                    **({"level": g.level} if g.kind is GateKind.QCONST else {}),
                }
                for k, g in enumerate(self._gates)
            ],
        }
        return json.dumps(doc, indent=2)


def _json_id(value: object) -> int:
    # JSON integers only: no strings, floats, booleans or containers
    if type(value) is not int:
        raise TypeError(f"id {value!r} is not an integer")
    return value


_KINDS = {kind.value: kind for kind in GateKind}


def _json_kind(value: object) -> GateKind:
    try:
        return _KINDS[value]
    except (KeyError, TypeError):  # not a kind, or unhashable: GateKind says so
        return GateKind(value)


def _json_name(value: object) -> str:
    if type(value) is not str:
        raise TypeError(f"port name {value!r} is not a string")
    return value


def from_json(text: str) -> Netlist:
    """Import a netlist document. Gates may appear in any order; input port i
    is net i by convention; gate ids must be unique integers, then are dropped."""
    import json

    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError included
        raise NetlistJsonError(f"bad JSON: {exc}") from exc
    try:
        inputs = [
            (_json_name(p["name"]), SignalType(p["type"])) for p in doc["inputs"]
        ]
        outputs = [
            (_json_name(p["name"]), SignalType(p["type"])) for p in doc["outputs"]
        ]
        ids = [_json_id(g["id"]) for g in doc["gates"]]
        gates = [
            Gate(
                _json_kind(g["kind"]),
                tuple(map(_json_id, g["inputs"])),
                _json_id(g["output"]),
                g.get("level"),
            )
            for g in doc["gates"]
        ]
        out_nets = {
            p["name"]: None if p["net"] is None else _json_id(p["net"])
            for p in doc["outputs"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise NetlistJsonError(f"malformed netlist document: {exc}") from exc
    nl = Netlist(inputs, outputs)
    if len(set(ids)) != len(ids):
        raise NetlistJsonError("duplicate gate id")
    nl.add_gates(gates)
    for name, net in out_nets.items():
        if net is None:
            raise UndrivenOutput(name)
        nl.connect_output(name, net)
    nl.validate()
    return nl
