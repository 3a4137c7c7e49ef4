"""Stimulus sweeps over netlists with CSV and VCD trace export.

Steps are purely combinational: each one is independent of the others, so
traces are rectangular tables of levels over time. Stimuli and traces are
held as columns, one per port or signal with one level per step: `sweep_all`
passes on the netlist's exhaustive input columns, `run` checks each stimulus
column once against the netlist's level rule, as the public `Trace` does its
rows, then evaluates every step at once through the bit-parallel table
kernel, and the exporters write their text from the columns. The per-step
views, `Stimulus.steps` and `Trace.rows`, are derived when first read.
`run`, `Netlist.evaluate` and `Netlist.truth_table` all run that one kernel;
the scalar reference it is tested against lives in tests/test_table_kernel.py.
The kernel remembers its last call, keyed on the compiled cone (by identity),
the row count and the input columns (by value), so `run(nl, sweep_all(nl))`
right after `nl.truth_table()` gets the table's outputs without evaluating.
Exports are byte deterministic for a fixed trace. Quaternary signals appear
in VCD as 2-bit vectors under the natural encoding, binary signals as scalars.

Row i of a trace is time i ns, the VCD's `$timescale` unit. Every export
writes its text into a bytes body of fixed-width rows, one strided slice per
byte position of a column, and deletes the padding (_FILL) once. Time
stamps are such columns too, one per decimal digit of the last time, each a
repeated cycle of ten runs of one digit, with _FILL for leading zeros; the
VCD keeps those of the rows where some signal changes. `parse_csv`, which no
command calls, reads a CSV back row by row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar, Iterable, Mapping, Sequence

from .netlist import Netlist, NetlistError, SignalType, _level_column


class PortMismatch(NetlistError):
    pass


class Stimulus:
    """Ordered input assignments; each step must assign every input port.
    Held as `columns`, one level column per assigned port keyed by its name,
    over `n_steps` steps; `steps` reads them back one mapping per step. It
    keeps no mapping the caller passed, so a later edit of one changes
    nothing."""

    def __init__(self, steps: Iterable[Mapping[str, int]]) -> None:
        steps = tuple(steps)
        ports = steps[0].keys() if steps else set()
        stray = next((k for k, s in enumerate(steps) if s.keys() != ports), None)
        self.n_steps = len(steps)
        # the port sets run() checks, in step order: the first step's, then
        # that of the first step assigning other ports, if any. With such a
        # step the stimulus runs on no netlist, so it gets no columns and
        # keeps copies of its steps; else `steps` is read from the columns.
        if stray is None:
            self.columns: Mapping[str, Sequence[int]] = {
                n: tuple(s[n] for s in steps) for n in ports
            }
            self._assigned = (self.columns.keys(),) if steps else ()
            self._steps: tuple[Mapping[str, int], ...] | None = None
        else:
            self.columns = {}
            self._steps = tuple(map(dict, steps))
            self._assigned = (self._steps[0].keys(), self._steps[stray].keys())

    @classmethod
    def _of_columns(cls, columns: Mapping[str, bytes], n_steps: int) -> Stimulus:
        stim = cls.__new__(cls)
        stim.columns, stim.n_steps = columns, n_steps
        stim._assigned = (columns.keys(),) if n_steps else ()
        stim._steps = None
        return stim

    @property
    def steps(self) -> tuple[Mapping[str, int], ...]:
        if self._steps is None:
            names = list(self.columns)
            rows = zip(*self.columns.values()) if names else [()] * self.n_steps
            self._steps = tuple(dict(zip(names, row)) for row in rows)
        return self._steps

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Stimulus):
            return NotImplemented
        return self.steps == other.steps

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Stimulus(steps={self.steps!r})"


@dataclass(frozen=True, init=False)
class Trace:
    """Rectangular level recording over `signals` (inputs first, then
    outputs, in port declaration order), held as `columns`, one bytes column
    per signal with one level per step, over `n_steps` steps. `rows` reads
    it back one tuple of levels per step; step i is time i."""

    signals: tuple[tuple[str, SignalType], ...]
    columns: tuple[bytes, ...]
    n_steps: int
    # not a field: every trace has one time unit per step; kept because the
    # benchmark's checker (perfbench/work.py) still reads it
    step_duration: ClassVar[int] = 1

    def __init__(
        self, signals: Iterable[tuple[str, SignalType]], rows: Iterable[Sequence[int]]
    ) -> None:
        signals, rows = tuple(signals), tuple(rows)
        if any(len(row) != len(signals) for row in rows):
            raise ValueError("trace rows must cover every signal")
        columns = zip(*rows) if rows else [()] * len(signals)
        columns = [_level_column(c, s, f"signal {name!r}") for (name, s), c in zip(signals, columns)]
        self.__dict__.update(signals=signals, columns=tuple(columns), n_steps=len(rows))

    @classmethod
    def _of_columns(
        cls, signals: tuple[tuple[str, SignalType], ...], columns: tuple[bytes, ...], n_steps: int
    ) -> Trace:
        """A trace of columns whose levels are already checked."""
        trace = cls.__new__(cls)
        trace.__dict__.update(signals=signals, columns=columns, n_steps=n_steps)
        return trace

    @functools.cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.columns)) if self.columns else ((),) * self.n_steps

    def column(self, name: str) -> tuple[int, ...]:
        for (sig_name, _), col in zip(self.signals, self.columns):
            if sig_name == name:
                return tuple(col)
        raise KeyError(name)


@dataclass(frozen=True)
class VoltageMap:
    """Level-to-voltage rendering map: one strictly increasing voltage per level."""

    quat: tuple[float, float, float, float] = (0.0, 1.1, 2.2, 3.3)
    bin: tuple[float, float] = (0.0, 3.3)

    def __post_init__(self) -> None:
        for sig, levels in ((SignalType.QUAT, self.quat), (SignalType.BIN, self.bin)):
            if len(levels) != sig.levels:
                raise ValueError(f"{sig.value} needs {sig.levels} voltages")
            if not all(map(math.isfinite, levels)):
                raise ValueError("voltages must be finite")
            if any(b <= a for a, b in zip(levels, levels[1:])):
                raise ValueError("voltages must be strictly increasing")

    def volts(self, sig: SignalType, level: int) -> float:
        table = self.quat if sig is SignalType.QUAT else self.bin
        return table[level]


def sweep_all(nl: Netlist) -> Stimulus:
    """Every input combination once, lexicographic, first-declared port
    slowest-varying."""
    columns = nl._exhaustive_columns()
    names = [name for name, _ in nl.input_ports]
    return Stimulus._of_columns(dict(zip(names, columns)), len(columns[0]) if columns else 1)


def run(nl: Netlist, stim: Stimulus) -> Trace:
    """Evaluate every step at once (steps share no state); row i equals
    evaluate(steps[i]): the step's input levels, then the output levels."""
    nl.validate()
    in_names = [name for name, _ in nl.input_ports]
    ports = set(in_names)
    for assigned in stim._assigned:
        if assigned != ports:
            raise PortMismatch(
                f"step assigns {sorted(assigned)}, ports are {sorted(in_names)}"
            )
    n = stim.n_steps
    # a stimulus of no steps has no columns
    columns = [_level_column(stim.columns.get(name, b""), sig, f"input {name!r}")
               for name, sig in nl.input_ports]
    columns = (*columns, *nl._eval_columns(columns, n))
    return Trace._of_columns(nl.input_ports + nl.output_ports, columns, n)


# a body byte that stands for nothing: it pads a text to its slot's width,
# or fills a slot with nothing to say, and is removed before decoding
_FILL = b"\0"


def _slot_tables(texts: list[bytes]) -> list[bytes]:
    """One translate table per byte of a slot: table k takes a column entry
    v to byte k of texts[v], with each text padded with _FILL to the
    longest."""
    size = max(map(len, texts))
    padded = (text.ljust(size, _FILL) for text in texts)
    return [bytes(column).ljust(256, _FILL) for column in zip(*padded)]


def _write_slot(body: bytearray, offset: int, width: int, col: bytes, tables: list[bytes]) -> int:
    """Write the slot that tables render for each entry of col into the rows
    of `width` bytes of body, from offset on; return the offset past it."""
    for k, table in enumerate(tables):
        body[offset + k :: width] = col.translate(table)
    return offset + len(tables)


_DIGITS = [b"%d" % d for d in range(10)]


@functools.lru_cache(maxsize=4)
def _time_digits(n: int) -> tuple[bytes, ...]:
    """The times 0, 1, ..., n-1 as fixed-width decimal digit columns, most
    significant first, with _FILL for leading zeros. The digit at place p is
    constant over runs of 10**p rows, so its column is one cycle of ten such
    runs, repeated and cut to n rows. Cached: the exports of one trace share
    them (the VCD reads them from row 1 on)."""
    columns = []
    for place in reversed(range(len(str(n - 1)) if n else 0)):
        unit = 10 ** place
        # the top place's cycle ends where the rows do
        cycle = b"".join(digit * unit for digit in _DIGITS[: (n - 1) // unit + 1])
        # leading zeros: the first rows, whose times are below unit
        zeros = unit if place else 0
        columns.append(_FILL * zeros + (cycle * (n // len(cycle) + 1))[zeros:n])
    return tuple(columns)


def _write_csv(trace: Trace, tables: Mapping[SignalType, list[bytes]]) -> str:
    """The trace as CSV: a time column, then one column per signal, where
    tables[t] (see _slot_tables) renders the cell of a type-t signal."""
    n, signals = trace.n_steps, trace.signals
    times = _time_digits(n)
    slots = [tables[sig] for _, sig in signals]
    # a row of the body is the time's digits, then ',' and the slot of each
    # signal, then '\n'; with no signals it is the time, ',' and '\n'
    width = len(times) + 1 + sum(map(len, slots)) + max(len(slots), 1)
    body = bytearray(b",") * (n * width)
    for k, digits in enumerate(times):
        body[k::width] = digits
    body[width - 1 :: width] = b"\n" * n
    offset = len(times) + 1
    for col, slot in zip(trace.columns, slots):
        offset = _write_slot(body, offset, width, col, slot) + 1
    names = ",".join(name for name, _ in signals)
    return f"time,{names}\n" + body.translate(None, _FILL).decode()


# every level's CSV cell, for any signal type
_LEVEL_CELLS = ("0", "1", "2", "3")
_LEVEL_TABLES = {
    sig: _slot_tables([cell.encode() for cell in _LEVEL_CELLS[: sig.levels]])
    for sig in SignalType
}


def export_csv(trace: Trace) -> str:
    return _write_csv(trace, _LEVEL_TABLES)


def parse_csv(text: str, types: Mapping[str, SignalType]) -> Trace:
    """Inverse of export_csv (levels view only). Signal types are supplied by
    the caller; each cell must be one of its signal's levels as export_csv
    writes it, and row i's time must read i."""
    lines = list(filter(str.strip, text.splitlines()))
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0].split(",")
    if header[0] != "time":
        raise ValueError("first column must be time")
    # no signals export as "time," and rows "0,": one signal "" only if typed
    blank = header == ["time", ""] and "" not in types
    names = [] if blank else header[1:]
    if len(set(names)) != len(names):
        raise ValueError(f"repeated column name in {lines[0]!r}")
    for name in names:
        if name not in types:
            raise ValueError(f"no signal type given for {name!r}")
    signals = tuple((name, types[name]) for name in names)
    # row by row, naming the first fault, with per signal the level of each
    # cell export_csv can write for it
    levels = [dict(zip(_LEVEL_CELLS, range(sig.levels))) for _, sig in signals]
    rows = []
    times = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header) or blank and cells[1]:
            raise ValueError(f"row width mismatch: {ln!r}")
        times.append(cells[0])
        try:
            rows.append(tuple(map(dict.__getitem__, levels, cells[1:])))
        except KeyError as exc:
            raise ValueError(f"cell {exc} is not a level: {ln!r}") from None
    if times != [str(i) for i in range(len(times))]:
        raise ValueError("time column must read 0, 1, ...")
    return Trace(signals, tuple(rows))


def _vcd_ident(index: int) -> str:
    """Bijective base-94 code over the printable characters '!'..'~': indices
    0-93 are single characters, then '!!', '"!', ... so every index differs."""
    chars = []
    while True:
        index, digit = divmod(index, 94)
        chars.append(chr(33 + digit))
        if index == 0:
            return "".join(chars)
        index -= 1


def _vcd_value(sig: SignalType, level: int, ident: str) -> str:
    if sig is SignalType.QUAT:
        return f"b{format(level, '02b')} {ident}"
    return f"{level}{ident}"


# Tables for _write_slot over a marked column (a level, plus 4 where it
# changed): an entry that did not change renders as nothing, a changed one
# as its value for the signal type (_VCD_VALUES) or as byte c
# (_WHEN_CHANGED[c]), which spell out its identifier and line end.
_VCD_VALUES = {
    sig: _slot_tables([b""] * 4 + [_vcd_value(sig, lv, "").encode() for lv in range(sig.levels)])
    for sig in SignalType
}
_WHEN_CHANGED = [(_FILL * 4 + bytes((c,)) * 4).ljust(256, _FILL) for c in range(256)]
# a row's any-change flag (0 or 1) as the '#' that starts its time line,
# the '\n' that ends it, and a mask that keeps its time's digits and turns
# those of a row with no change into _FILL, the zero byte
_FLAG_HASH = bytes.maketrans(b"\0\1", _FILL + b"#")
_FLAG_NEWLINE = bytes.maketrans(b"\0\1", _FILL + b"\n")
_FLAG_MASK = bytes.maketrans(b"\0\1", b"\0\xff")


def _vcd_changes(trace: Trace, idents: list[str]) -> bytearray:
    """The value changes after time 0, _FILL bytes included: per time, the
    lines of the signals whose level differs from the step before, in
    declaration order."""
    n = trace.n_steps - 1
    if n < 1:
        return bytearray()
    ones = int.from_bytes(b"\1" * n, "little")
    # per signal and row: the level, plus 4 where it differs from the row before
    marked = []
    any_change = 0
    for col in trace.columns:
        now = int.from_bytes(col[1:], "little")
        diff = now ^ int.from_bytes(col[:-1], "little")
        changed = (diff | diff >> 1) & ones  # levels are < 4: 1 per changed row
        any_change |= changed
        marked.append((now + 4 * changed).to_bytes(n, "little"))
    changed_rows = any_change.to_bytes(n, "little")
    # row i-1 of the body is time i: its time line if any signal changed
    # then, and per signal its value line if it changed
    mask = int.from_bytes(changed_rows.translate(_FLAG_MASK), "little")
    times = [
        (int.from_bytes(digits[1:], "little") & mask).to_bytes(n, "little")
        for digits in _time_digits(trace.n_steps)
    ]
    tables = [
        _VCD_VALUES[sig] + [_WHEN_CHANGED[c] for c in f"{ident}\n".encode()]
        for (_, sig), ident in zip(trace.signals, idents)
    ]
    width = len(times) + 2 + sum(map(len, tables))
    body = bytearray(n * width)
    body[0::width] = changed_rows.translate(_FLAG_HASH)
    for k, digits in enumerate(times, 1):
        body[k::width] = digits
    body[len(times) + 1 :: width] = changed_rows.translate(_FLAG_NEWLINE)
    offset = len(times) + 2
    for col, col_tables in zip(marked, tables):
        offset = _write_slot(body, offset, width, col, col_tables)
    return body


def export_vcd(trace: Trace) -> str:
    """Value-change dump, one time step per nanosecond: full dump at time 0,
    then change-only emission."""
    out = ["$timescale 1 ns $end", "$scope module top $end"]
    idents = [_vcd_ident(idx) for idx in range(len(trace.signals))]
    for (name, sig), ident in zip(trace.signals, idents):
        width = 2 if sig is SignalType.QUAT else 1
        out.append(f"$var wire {width} {ident} {name} $end")
    out.append("$upscope $end")
    out.append("$enddefinitions $end")
    if trace.n_steps:
        out.append("#0")
        out.append("$dumpvars")
        for (_, sig), col, ident in zip(trace.signals, trace.columns, idents):
            out.append(_vcd_value(sig, col[0], ident))
        out.append("$end")
    out.append("")
    return "\n".join(out) + _vcd_changes(trace, idents).translate(None, _FILL).decode()


def _voltage_tables(vmap: VoltageMap) -> dict[SignalType, list[bytes]]:
    """The _write_csv tables that render each level under vmap in volts, to
    1 decimal."""
    return {
        sig: _slot_tables([f"{vmap.volts(sig, lv):.1f}".encode() for lv in range(sig.levels)])
        for sig in SignalType
    }


_DEFAULT_VOLTAGE_TABLES = _voltage_tables(VoltageMap())


def voltage_view(trace: Trace, vmap: VoltageMap | None = None) -> str:
    """CSV like export_csv with levels rendered as voltages (1 decimal)."""
    tables = _DEFAULT_VOLTAGE_TABLES if vmap is None else _voltage_tables(vmap)
    return _write_csv(trace, tables)
