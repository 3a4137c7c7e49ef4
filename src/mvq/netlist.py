"""Typed combinational gate-graph IR for mixed binary/quaternary circuits.

Nets carry a fixed signal type (binary or quaternary). Gates are strict
combinational primitives, each known by the one net it drives. A `Netlist`
holds its gates as parallel columns (kinds, input-net tuples, output nets,
levels) and builds `Gate` values only when `gates` or `topo_gates()` is read.

Gates go in a batch at a time, all or none, through `_add_columns`:
`add_gates`, `from_json` (which reads a document gate by gate, `_read_gates`)
and `add_gate` (one gate on a fresh net). `_scan` checks each batch once, gate
by gate in batch order; it is the one source of every install error's type,
text and precedence. As it walks a gate's input nets it also notes whether
each is numbered below the gate's own output net, and returns that order flag
with the batch's net types.

Each batch is put in dependency order and appended to the order of every
gate before it, since earlier gates never read a later net. A batch whose
order flag is set (as it is for `add_gate`'s fresh nets and `to_json`'s
documents) is sorted by output net; any other takes Kahn's algorithm, about
four times the sort's cost (4.8 against 1.1 ms for the gates of one nine-job
`sweep` cycle, best of 25; 2-vCPU VM, CPython 3.11), so both stay. A cycle
in a batch clears its order flag, since some gate on it reads a net numbered
at or above its own, and Kahn's algorithm leaves out every gate on a cycle
or reading one. So `validate` checks that the outputs are driven and that
every gate is in the order (else `_net_on_cycle` names a net on a cycle),
then compiles the output cone ("cone of influence", Clarke, Grumberg &
Peled, Model Checking, 1999): the gates that some output reads, directly or
through other gates, in dependency order. Evaluation walks only that cone,
kept until the next construction call, which is single-context only; every
gate is still checked, counted by `metrics` and written by `to_json`. The
kernel keeps its last result on that cone the same way (`_eval_columns`).

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
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

# The largest exhaustive table, bounded by memory. Peak RSS of a 2^16-row,
# 40-gate, 32-port netlist (getrusage, fresh CPython 3.11, 31 MB before the
# first table): truth_table 32 MB, 59 MB once .rows is read; with sim.run and
# the three trace exports 75 MB (100 MB with row tuples). That grows about
# linearly with the rows (41 MB at 2^14, 52 MB at 2^15): some 210 MB at 2^18.
MAX_TABLE_STATES = 2 ** 16


class SignalType(Enum):
    """One row per signal type: JSON name (the value) and level count."""

    levels: int

    def __new__(cls, value, levels):
        sig = object.__new__(cls)
        sig._value_, sig.levels = value, levels
        return sig

    BIN = "bin", 2
    QUAT = "quat", 4


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


def _check_port_name(name: str, error: type[Exception]) -> None:
    """Raise error for a name that a CSV header or a VCD $var line cannot carry
    and read back: "", or one with a ',', a space or a character not isprintable."""
    if not name:
        raise error("port name '' is empty")
    if "," in name or " " in name or not name.isprintable():
        raise error(f"port name {name!r} has a ',', a space or an unprintable character")


_QCONST = GateKind.QCONST  # a module name: reading a member off GateKind is slow


def _dependency_order(ins: list[Sequence[int]], outs: list[int]) -> list[int]:
    """Kahn's algorithm over a batch (gate k reads ins[k] and drives outs[k])
    that reads only its own nets and nets installed before it: the gate
    indices in dependency order, less those on a cycle or reading one."""
    index = dict(zip(outs, range(len(outs))))
    pending = [0] * len(outs)
    consumers: list[list[int]] = [[] for _ in outs]
    ready: list[int] = []
    for k, nets in enumerate(ins):
        for n in nets:
            j = index.get(n)
            if j is not None:
                pending[k] += 1
                consumers[j].append(k)
        if not pending[k]:
            ready.append(k)
    order: list[int] = []
    while ready:
        k = ready.pop()
        order.append(k)
        for h in consumers[k]:
            pending[h] -= 1
            if not pending[h]:
                ready.append(h)
    return order


def _net_on_cycle(ins: list[tuple[int, ...]], outs: list[int], order: list[int]) -> int:
    """A net on a cycle of the gates missing from order: from the first of
    them, follow the first input that one of them drives until a net
    repeats. No gate reads a net installed after it, so the walk stays in
    the first batch that left gates out."""
    placed = set(order)
    stuck = {out: nets for k, (nets, out) in enumerate(zip(ins, outs)) if k not in placed}
    net = next(iter(stuck))
    seen: set[int] = set()
    while net not in seen:
        seen.add(net)
        net = next(n for n in stuck[net] if n in stuck)
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
            _check_port_name(name, NetlistError)
            seen.add(name)
        self._net_type: dict[int, SignalType] = {}
        self._input_net: dict[str, int] = {}
        for i, (name, sig) in enumerate(self._inputs):
            self._net_type[i] = sig
            self._input_net[name] = i
        self._next_net = len(self._inputs)
        # the gates as parallel columns, in install order: kind, input nets,
        # output net and level (None but for qconst) of gate k
        self._kinds: list[GateKind] = []
        self._ins: list[tuple[int, ...]] = []
        self._outs: list[int] = []
        self._levels: list[int | None] = []
        # the gate indices in dependency order, less those on a cycle or
        # reading one in their own batch
        self._order: list[int] = []
        self._gates: tuple[Gate, ...] | None = None  # built when read
        self._out_net: dict[str, int] = {}
        # (its kind's plane function, input nets, output net, level) per gate
        # that reaches an output, in dependency order; validate() compiles it
        self._cone: list[tuple] | None = None
        # the kernel's last call: (cone, rows, input columns, output columns)
        self._memo: tuple | None = None

    @property
    def input_ports(self) -> tuple[tuple[str, SignalType], ...]:
        return self._inputs

    @property
    def output_ports(self) -> tuple[tuple[str, SignalType], ...]:
        return self._outputs

    @property
    def gates(self) -> tuple[Gate, ...]:
        if self._gates is None:
            columns = zip(self._kinds, self._ins, self._outs, self._levels)
            # tuple.__new__ makes each Gate without a Python-level call
            self._gates = tuple(map(tuple.__new__, repeat(Gate), columns))
        return self._gates

    def topo_gates(self) -> tuple[Gate, ...]:
        """Gates in dependency order (validates first)."""
        self.validate()
        return tuple(map(self.gates.__getitem__, self._order))

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
        """Install one gate on the next fresh net and return that net; one
        that reads its own net is a cycle, left to validate()."""
        out = self._next_net
        self._add_columns([kind], [tuple(inputs)], [out], [level])
        return out

    def add_gates(self, gates: Iterable[Gate]) -> None:
        """Install gates given in any order, all or none. Inputs may be any
        existing net or batch output; a second driver for a net, input ports
        included, raises MultipleDrivers. The batch is checked once
        (_add_columns), put in dependency order and goes after every gate
        installed before it, none of which reads its nets. Cycles are left to
        validate()."""
        batch = list(gates)
        if batch:
            self._add_columns(*map(list, zip(*batch)))

    def _add_columns(
        self,
        kinds: list[GateKind],
        ins: list[Sequence[int]],
        outs: list[int],
        levels: list[int | None],
    ) -> None:
        """Install a batch given as columns, the one install path: gate k is
        kinds[k] reading ins[k], driving outs[k], with levels[k]. One _scan
        checks the batch, and its order flag picks the dependency order:
        sorted by output net when every gate reads only nets numbered below
        its own, else Kahn's algorithm."""
        if not outs:
            return
        new_type, by_net = self._scan(kinds, ins, outs, levels)
        base = len(self._outs)
        self._kinds += kinds
        # copies, once the scan has named any error: the caller keeps its lists
        self._ins += map(tuple, ins)
        self._outs += outs
        self._levels += levels
        if by_net:
            self._order += sorted(range(base, len(self._outs)), key=self._outs.__getitem__)
        else:
            self._order += [base + k for k in _dependency_order(ins, outs)]
        self._net_type.update(new_type)
        self._next_net = max(self._next_net - 1, *outs) + 1
        self._gates = self._cone = None

    def _scan(
        self,
        kinds: list[GateKind],
        ins: list[Sequence[int]],
        outs: list[int],
        levels: list[int | None],
    ) -> tuple[dict[int, SignalType], bool]:
        """The install rules gate by gate, in batch order: first every output
        net (an exact int with no driver yet), then each gate's arity, input
        nets (exact ints that exist, of the port's type) and level. Raises
        the first error (tests/test_netlist_errors.py pins each error's type,
        text and precedence); else returns the batch's output net types and
        whether every gate reads only nets numbered below its own output."""
        net_type = self._net_type
        new_type: dict[int, SignalType] = {}
        for kind, out in zip(kinds, outs):
            if type(out) is not int:
                raise NetlistError(f"net {out!r} is not an int")
            if out in net_type or out in new_type:
                raise MultipleDrivers(f"net {out} has two drivers")
            new_type[out] = kind.output
        by_net = True
        for kind, nets, out, level in zip(kinds, ins, outs, levels):
            in_sigs = kind.inputs
            if len(nets) != len(in_sigs):
                raise ArityMismatch(
                    f"{kind.value} takes {len(in_sigs)} inputs, got {len(nets)}"
                )
            for net, sig in zip(nets, in_sigs):
                if type(net) is not int:
                    raise NetlistError(f"net {net!r} is not an int")
                if net >= out:
                    by_net = False
                have = net_type.get(net)
                if have is None:
                    have = new_type.get(net)
                    if have is None:
                        raise UnknownNet(f"net {net} does not exist")
                if have is not sig:
                    raise TypeMismatch(
                        f"{kind.value} needs {sig.value} input, net {net} is "
                        f"{have.value}"
                    )
            if kind is _QCONST:  # a missing level is None, not an int
                _level_column((level,), SignalType.QUAT, "qconst level")
            elif level is not None:
                raise NetlistError(f"{kind.value} does not take a level")
        return new_type, by_net

    def connect_output(self, name: str, net: int) -> None:
        if name not in self._out_type:
            raise UnknownPort(f"no output port {name!r}")
        if type(net) is not int:
            raise NetlistError(f"net {net!r} is not an int")
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
        if len(self._order) < len(self._outs):
            net = _net_on_cycle(self._ins, self._outs, self._order)
            raise CombinationalCycle(f"net {net} lies on a cycle")
        # cone of influence: walk back from the outputs, keeping the gates
        # whose net some kept gate or output reads
        kinds, ins, outs, levels = self._kinds, self._ins, self._outs, self._levels
        live = set(self._out_net.values())
        cone = []
        for k in reversed(self._order):
            if outs[k] in live:
                live.update(ins[k])
                cone.append((kinds[k].planes, ins[k], outs[k], levels[k]))
        cone.reverse()
        self._cone = cone

    def evaluate(self, assignment: Mapping[str, int]) -> dict[str, int]:
        self.validate()
        for key in assignment:
            if key not in self._input_net:
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
        does (_level_column), unless _exhaustive_columns made the columns.

        It remembers its last call. A call on the same compiled cone (`is`),
        with equal `rows` and equal input columns, returns that call's
        outputs without evaluating; any other call replaces the entry. The
        entry keeps its cone alive, and every construction call drops the
        netlist's cone, so a cone that is still the same object has not
        changed. `rows` is in the key because a netlist with no inputs has
        no columns: `truth_table` asks for 1 row, `sim.run` for n_steps."""
        self.validate()
        cone = self._cone
        assert cone is not None
        if rows == 0:
            return [b""] * len(self._outputs)
        columns = tuple(columns)
        memo = self._memo
        if memo is not None and memo[0] is cone and memo[1] == rows and memo[2] == columns:
            return list(memo[3])
        full = (1 << rows) - 1
        planes: dict[int, tuple[int, int]] = {}
        for (name, sig), col in zip(self._inputs, columns):
            hi = _plane(col, _HI_DIGIT) if sig is SignalType.QUAT else 0
            planes[self._input_net[name]] = (hi, _plane(col, _LO_DIGIT))
        for fn, ins, out, level in cone:
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
        self._memo = (cone, rows, columns, tuple(out))
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
        # gates per kind, counted by identity: hashing a GateKind runs the
        # Python-level Enum.__hash__, once per gate
        per_id = Counter(map(id, self._kinds))
        tally = [(kind, per_id[id(kind)]) for kind in GateKind if id(kind) in per_id]
        # constants (cost None) are free wiring, whatever the cost table says
        counted = [(kind, n) for kind, n in tally if kind.cost is not None]
        if costs is None:
            total = sum(kind.cost * n for kind, n in counted)
        elif missing := [kind for kind, _ in counted if kind not in costs]:
            first = min(missing, key=self._kinds.index)  # in gate order
            raise MissingCostEntry(f"cost table has no entry for {first.value}")
        else:
            total = sum(costs[kind] * n for kind, n in counted)
        # depth: gate hops on the longest input->output path (a constant is on none)
        net_depth: dict[int, int] = {n: 0 for n in self._input_net.values()}
        ins, outs = self._ins, self._outs
        for k in self._order:
            nets = ins[k]
            net_depth[outs[k]] = 1 + max(map(net_depth.__getitem__, nets)) if nets else 0
        depth = max((net_depth[self._out_net[n]] for n, _ in self._outputs), default=0)
        kind_counts = tuple(sorted((kind.value, n) for kind, n in tally))
        return Metrics(sum(n for _, n in counted), depth, total, kind_counts)

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
                    "kind": kind.value,
                    "inputs": list(nets),
                    "output": out,
                    **({"level": level} if kind is GateKind.QCONST else {}),
                }
                for k, (kind, nets, out, level) in enumerate(
                    zip(self._kinds, self._ins, self._outs, self._levels)
                )
            ],
        }
        return json.dumps(doc, indent=2)


def _json_id(value: object) -> int:
    # JSON integers only: no strings, floats, booleans or containers
    if type(value) is not int:
        raise TypeError(f"id {value!r} is not an integer")
    return value


_KINDS = {kind.value: kind for kind in GateKind}


def _json_name(value: object) -> str:
    if type(value) is not str:
        raise TypeError(f"port name {value!r} is not a string")
    return value


# a document's gates as columns: ids, kinds, input nets, output nets, levels
_GateColumns = tuple[list[int], list[GateKind], list[tuple[int, ...]], list[int], list]


def _read_gates(gates: list) -> _GateColumns:
    """The gates' columns, read gate by gate: every id first, then each
    gate's kind, inputs, output and level. Raises KeyError, TypeError or
    ValueError at the first field that is missing or of the wrong type: a
    field goes to _json_id, or GateKind, only for its error."""
    ids = []
    for g in gates:
        gid = g["id"]
        ids.append(gid if type(gid) is int else _json_id(gid))
    kinds, ins, outs, levels = [], [], [], []
    for g in gates:
        kind = g["kind"]
        kinds.append(_KINDS[kind] if type(kind) is str and kind in _KINDS else GateKind(kind))
        nets = tuple(g["inputs"])
        for net in nets:
            if type(net) is not int:
                _json_id(net)
        ins.append(nets)
        out = g["output"]
        outs.append(out if type(out) is int else _json_id(out))
        levels.append(g.get("level"))
    return ids, kinds, ins, outs, levels


def from_json(text: str) -> Netlist:
    """Import a netlist document. Gates may appear in any order; input port i
    is net i by convention; gate ids must be unique integers, then are dropped."""
    import json

    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError included
        raise NetlistJsonError(f"bad JSON: {exc}") from exc
    try:
        inputs, outputs = (
            [(_json_name(p["name"]), SignalType(p["type"])) for p in doc[side]]
            for side in ("inputs", "outputs")
        )
        columns = _read_gates(doc["gates"])
        out_nets = {
            p["name"]: None if p["net"] is None else _json_id(p["net"])
            for p in doc["outputs"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise NetlistJsonError(f"malformed netlist document: {exc}") from exc
    nl = Netlist(inputs, outputs)
    ids, kinds, ins, outs, levels = columns
    if len(set(ids)) != len(ids):
        raise NetlistJsonError("duplicate gate id")
    nl._add_columns(kinds, ins, outs, levels)
    for name, net in out_nets.items():
        if net is None:
            raise UndrivenOutput(name)
        nl.connect_output(name, net)
    nl.validate()
    return nl
