"""Typed combinational gate-graph IR for mixed binary/quaternary circuits.

Nets carry a fixed signal type (binary or quaternary). Gates are strict
combinational primitives, each known by the one net it drives; `add_gates` is
the one install path, used by `add_gate` and `from_json`. Evaluation walks the
topological order `validate` caches until the next construction call, which
is single-context only.

A level is an exact `int` (no `bool` or other subclass) in 0..levels-1 of
its signal type; `_level_column` checks that rule wherever levels come in
from outside, and nowhere else.

`evaluate` is the single-vector reference: one row, one dict of levels.
Whole tables (`truth_table`, and `sim.run` for any stimulus) go through one
bit-parallel kernel instead ("parallel pattern" simulation, Waicukauski et
al. 1985) on checked bytes columns, one level per byte: each net is a pair
of Python ints (hi, lo) whose bit r is row r, under the natural encoding
level = 2*hi + lo (binary nets keep hi = 0), and every gate is a few big-int
operations over all rows at once. A `TruthTable` holds the kernel's columns;
its row i equals evaluate() of its inputs but is not computed that way.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

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


class GateKind(Enum):
    NOT = "not"
    AND2 = "and2"
    AND3 = "and3"
    AND4 = "and4"
    OR2 = "or2"
    OR3 = "or3"
    OR4 = "or4"
    XOR2 = "xor2"
    NAND2 = "nand2"
    NOR2 = "nor2"
    ANDN2 = "andn2"
    CONST0 = "const0"
    CONST1 = "const1"
    BMUX2 = "bmux2"
    DLC1 = "dlc1"
    DLC2 = "dlc2"
    DLC3 = "dlc3"
    B2Q = "b2q"
    QCONST = "qconst"
    QMUX4 = "qmux4"


_B = SignalType.BIN
_Q = SignalType.QUAT

# kind -> (input port types, output type)
GATE_SIGNATURES: dict[GateKind, tuple[tuple[SignalType, ...], SignalType]] = {
    GateKind.NOT: ((_B,), _B),
    GateKind.AND2: ((_B, _B), _B),
    GateKind.AND3: ((_B, _B, _B), _B),
    GateKind.AND4: ((_B, _B, _B, _B), _B),
    GateKind.OR2: ((_B, _B), _B),
    GateKind.OR3: ((_B, _B, _B), _B),
    GateKind.OR4: ((_B, _B, _B, _B), _B),
    GateKind.XOR2: ((_B, _B), _B),
    GateKind.NAND2: ((_B, _B), _B),
    GateKind.NOR2: ((_B, _B), _B),
    GateKind.ANDN2: ((_B, _B), _B),
    GateKind.CONST0: ((), _B),
    GateKind.CONST1: ((), _B),
    GateKind.BMUX2: ((_B, _B, _B), _B),
    GateKind.DLC1: ((_Q,), _B),
    GateKind.DLC2: ((_Q,), _B),
    GateKind.DLC3: ((_Q,), _B),
    GateKind.B2Q: ((_B, _B), _Q),
    GateKind.QCONST: ((), _Q),
    GateKind.QMUX4: ((_Q, _Q, _Q, _Q, _Q), _Q),
}

CONST_KINDS = frozenset({GateKind.CONST0, GateKind.CONST1, GateKind.QCONST})

# per-gate transistor costs (static CMOS style); constants are free wiring
DEFAULT_COST_TABLE: dict[GateKind, int] = {
    GateKind.NOT: 2,
    GateKind.NAND2: 4,
    GateKind.NOR2: 4,
    GateKind.AND2: 6,
    GateKind.OR2: 6,
    GateKind.AND3: 8,
    GateKind.OR3: 8,
    GateKind.AND4: 10,
    GateKind.OR4: 10,
    GateKind.XOR2: 10,
    GateKind.ANDN2: 6,
    GateKind.BMUX2: 6,
    GateKind.DLC1: 2,
    GateKind.DLC2: 2,
    GateKind.DLC3: 2,
    GateKind.B2Q: 8,
    GateKind.QMUX4: 24,
}

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


def _qmux4_planes(p, f, lv):
    (sh, sl), data = p[0], p[1:]
    # rows where the select level is 0, 1, 2, 3
    masks = (f ^ (sh | sl), (f ^ sh) & sl, sh & (f ^ sl), sh & sl)
    hi = lo = 0
    for m, (dh, dl) in zip(masks, data):
        hi |= m & dh
        lo |= m & dl
    return hi, lo


# kind -> f(input planes, all-rows mask, const level) -> output planes; a net's
# planes are (hi, lo) with bit r for row r, level = 2*hi + lo
_PLANES = {
    GateKind.NOT: lambda p, f, lv: (0, f ^ p[0][1]),
    GateKind.AND2: lambda p, f, lv: (0, p[0][1] & p[1][1]),
    GateKind.AND3: lambda p, f, lv: (0, p[0][1] & p[1][1] & p[2][1]),
    GateKind.AND4: lambda p, f, lv: (0, p[0][1] & p[1][1] & p[2][1] & p[3][1]),
    GateKind.OR2: lambda p, f, lv: (0, p[0][1] | p[1][1]),
    GateKind.OR3: lambda p, f, lv: (0, p[0][1] | p[1][1] | p[2][1]),
    GateKind.OR4: lambda p, f, lv: (0, p[0][1] | p[1][1] | p[2][1] | p[3][1]),
    GateKind.XOR2: lambda p, f, lv: (0, p[0][1] ^ p[1][1]),
    GateKind.NAND2: lambda p, f, lv: (0, f ^ (p[0][1] & p[1][1])),
    GateKind.NOR2: lambda p, f, lv: (0, f ^ (p[0][1] | p[1][1])),
    GateKind.ANDN2: lambda p, f, lv: (0, (f ^ p[0][1]) & p[1][1]),
    GateKind.CONST0: lambda p, f, lv: (0, 0),
    GateKind.CONST1: lambda p, f, lv: (0, f),
    GateKind.BMUX2: lambda p, f, lv: (
        0, (p[0][1] & p[1][1]) | ((f ^ p[0][1]) & p[2][1])
    ),
    GateKind.DLC1: lambda p, f, lv: (0, f ^ (p[0][0] | p[0][1])),
    GateKind.DLC2: lambda p, f, lv: (0, f ^ p[0][0]),
    GateKind.DLC3: lambda p, f, lv: (0, f ^ (p[0][0] & p[0][1])),
    GateKind.B2Q: lambda p, f, lv: (p[0][1], p[1][1]),
    GateKind.QCONST: lambda p, f, lv: (f * (lv >> 1), f * (lv & 1)),
    GateKind.QMUX4: _qmux4_planes,
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


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    inputs: tuple[int, ...]
    output: int
    level: int | None = None  # qconst only


@dataclass(frozen=True)
class Metrics:
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
        self._out_net: dict[str, int] = {}
        self._topo: list[Gate] | None = None

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
        assert self._topo is not None
        return tuple(self._topo)

    def input_net(self, name: str) -> int:
        if name not in self._input_net:
            raise UnknownPort(f"no input port {name!r}")
        return self._input_net[name]

    def output_net(self, name: str) -> int:
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
        included, raises MultipleDrivers. Cycles are left to validate()."""
        batch = list(gates)
        new_type: dict[int, SignalType] = {}
        for g in batch:
            if g.output in self._net_type or g.output in new_type:
                raise MultipleDrivers(f"net {g.output} has two drivers")
            new_type[g.output] = GATE_SIGNATURES[g.kind][1]
        for g in batch:
            in_sigs = GATE_SIGNATURES[g.kind][0]
            if len(g.inputs) != len(in_sigs):
                raise ArityMismatch(
                    f"{g.kind.value} takes {len(in_sigs)} inputs, got {len(g.inputs)}"
                )
            for net, sig in zip(g.inputs, in_sigs):
                have = self._net_type.get(net) or new_type.get(net)
                if have is None:
                    raise UnknownNet(f"net {net} does not exist")
                if have is not sig:
                    raise TypeMismatch(
                        f"{g.kind.value} needs {sig.value} input, net {net} is "
                        f"{have.value}"
                    )
            if g.kind is GateKind.QCONST:  # a missing level is None, not an int
                _level_column((g.level,), SignalType.QUAT, "qconst level")
            elif g.level is not None:
                raise NetlistError(f"{g.kind.value} does not take a level")
        self._net_type.update(new_type)
        self._gates += batch
        self._next_net = max([self._next_net - 1, *new_type]) + 1
        self._topo = None

    def connect_output(self, name: str, net: int) -> None:
        declared = dict(self._outputs)
        if name not in declared:
            raise UnknownPort(f"no output port {name!r}")
        if net not in self._net_type:
            raise UnknownNet(f"net {net} does not exist")
        if self._net_type[net] is not declared[name]:
            raise TypeMismatch(
                f"output {name!r} is {declared[name].value}, net {net} is "
                f"{self._net_type[net].value}"
            )
        self._out_net[name] = net
        self._topo = None

    def validate(self) -> None:
        """Check connectivity and acyclicity; cache a topological gate order."""
        if self._topo is not None:
            return
        for name, _ in self._outputs:
            if name not in self._out_net:
                raise UndrivenOutput(name)
        driver: dict[int, Gate] = {g.output: g for g in self._gates}
        # Kahn: a gate is ready once all gate-driven input nets are resolved
        pending: dict[int, int] = {}
        consumers: dict[int, list[Gate]] = {}
        ready: list[Gate] = []
        for g in self._gates:
            deps = [n for n in g.inputs if n in driver]
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
        if len(order) != len(self._gates):
            net = next(n for n, left in pending.items() if left > 0)
            # walk unresolved deps until a net repeats; it lies on a cycle
            seen: set[int] = set()
            while net not in seen:
                seen.add(net)
                net = next(
                    n for n in driver[net].inputs if n in driver and pending[n] > 0
                )
            raise CombinationalCycle(f"net {net} lies on a cycle")
        self._topo = order

    def evaluate(self, assignment: Mapping[str, int]) -> dict[str, int]:
        self.validate()
        names = {name for name, _ in self._inputs}
        for key in assignment:
            if key not in names:
                raise UnknownPort(f"no input port {key!r}")
        values: dict[int, int] = {}
        for name, sig in self._inputs:
            if name not in assignment:
                raise MissingAssignment(name)
            _level_column((assignment[name],), sig, f"input {name!r}")
            values[self._input_net[name]] = assignment[name]
        assert self._topo is not None
        for g in self._topo:
            values[g.output] = _EVAL[g.kind](
                tuple(values[n] for n in g.inputs), g.level
            )
        return {name: values[self._out_net[name]] for name, _ in self._outputs}

    def _eval_columns(self, columns: Sequence[bytes], rows: int) -> list[bytes]:
        """Whole-table kernel: one bytes column of `rows` levels per input
        port in, one per output port out. It checks no level: the caller
        does (_level_column), unless _exhaustive_columns made the columns."""
        self.validate()
        assert self._topo is not None
        if rows == 0:
            return [b""] * len(self._outputs)
        full = (1 << rows) - 1
        planes: dict[int, tuple[int, int]] = {}
        for (name, sig), col in zip(self._inputs, columns):
            hi = _plane(col, _HI_DIGIT) if sig is SignalType.QUAT else 0
            planes[self._input_net[name]] = (hi, _plane(col, _LO_DIGIT))
        for g in self._topo:
            planes[g.output] = _PLANES[g.kind](
                [planes[n] for n in g.inputs], full, g.level
            )
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
        table = DEFAULT_COST_TABLE if costs is None else costs
        counted = [g for g in self._gates if g.kind not in CONST_KINDS]
        total = 0
        for g in counted:
            if g.kind not in table:
                raise MissingCostEntry(f"cost table has no entry for {g.kind.value}")
            total += table[g.kind]
        # depth: gate hops on the longest input->output path
        net_depth: dict[int, int] = {n: 0 for n in self._input_net.values()}
        assert self._topo is not None
        for g in self._topo:
            if g.kind in CONST_KINDS:
                net_depth[g.output] = 0
            else:
                net_depth[g.output] = 1 + max(
                    (net_depth[n] for n in g.inputs), default=0
                )
        depth = max((net_depth[self._out_net[n]] for n, _ in self._outputs), default=0)
        tally: dict[str, int] = {}
        for g in self._gates:
            tally[g.kind.value] = tally.get(g.kind.value, 0) + 1
        kind_counts = tuple(sorted(tally.items()))
        return Metrics(len(counted), depth, total, kind_counts)

    def to_json(self) -> str:
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


def _json_name(value: object) -> str:
    if type(value) is not str:
        raise TypeError(f"port name {value!r} is not a string")
    return value


def from_json(text: str) -> Netlist:
    """Import a netlist document. Gates may appear in any order; input port i
    is net i by convention; gate ids must be unique integers, then are dropped."""
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
                GateKind(g["kind"]),
                tuple(_json_id(n) for n in g["inputs"]),
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
