"""Stimulus sweeps over netlists with CSV and VCD trace export.

Steps are purely combinational: each one is independent of the others, so
traces are rectangular tables of levels over time. Stimuli and traces are
held as columns, one per port or signal with one level per step: `sweep_all`
passes on the netlist's exhaustive input columns, `run` checks each stimulus
column once against the netlist's level rule, as the public `Trace` does its
rows, then evaluates every step at once through the bit-parallel table
kernel, and the exporters write their text from the columns. The per-step
views, `Stimulus.steps` and `Trace.rows`, are derived when first read; row i
still equals `Netlist.evaluate(steps[i])`, but is not computed that way.
Exports are byte deterministic for a fixed trace. Quaternary signals appear
in VCD as 2-bit vectors under the natural encoding, binary signals as scalars.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .netlist import Netlist, NetlistError, SignalType, _level_column


class PortMismatch(NetlistError):
    pass


class Stimulus:
    """Ordered input assignments; each step must assign every input port.
    Held as `columns`, one level column per assigned port keyed by its name,
    over `n_steps` steps; `steps` reads them back one mapping per step."""

    def __init__(self, steps: Iterable[Mapping[str, int]], step_duration: int = 1) -> None:
        steps = tuple(steps)
        ports = steps[0].keys() if steps else set()
        stray = next((s.keys() for s in steps if s.keys() != ports), None)
        # the port sets run() checks, in step order: the first step's, then
        # that of the first step assigning other ports, if any; with such a
        # step the stimulus runs on no netlist, so it gets no columns
        self._assigned = () if not steps else (ports,) if stray is None else (ports, stray)
        self.columns: Mapping[str, Sequence[int]] = (
            {n: tuple(s[n] for s in steps) for n in ports} if stray is None else {}
        )
        self.n_steps = len(steps)
        self.step_duration = step_duration
        self._steps: tuple[Mapping[str, int], ...] | None = steps

    @classmethod
    def _of_columns(cls, columns: Mapping[str, bytes], n_steps: int) -> Stimulus:
        stim = cls.__new__(cls)
        stim.columns, stim.n_steps, stim.step_duration = columns, n_steps, 1
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
        return (self.steps, self.step_duration) == (other.steps, other.step_duration)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Stimulus(steps={self.steps!r}, step_duration={self.step_duration!r})"


@dataclass(frozen=True, init=False)
class Trace:
    """Rectangular level recording over `signals` (inputs first, then
    outputs, in port declaration order), held as `columns`, one bytes column
    per signal with one level per step, over `n_steps` steps. `rows` reads
    it back one tuple of levels per step."""

    signals: tuple[tuple[str, SignalType], ...]
    columns: tuple[bytes, ...]
    n_steps: int
    step_duration: int = 1

    def __init__(
        self,
        signals: Iterable[tuple[str, SignalType]],
        rows: Iterable[Sequence[int]],
        step_duration: int = 1,
    ) -> None:
        signals, rows = tuple(signals), tuple(rows)
        if any(len(row) != len(signals) for row in rows):
            raise ValueError("trace rows must cover every signal")
        columns = zip(*rows) if rows else [()] * len(signals)
        columns = [_level_column(c, s, f"signal {name!r}") for (name, s), c in zip(signals, columns)]
        self._init(signals, tuple(columns), len(rows), step_duration)

    @classmethod
    def _of_columns(
        cls,
        signals: tuple[tuple[str, SignalType], ...],
        columns: tuple[bytes, ...],
        n_steps: int,
        step_duration: int,
    ) -> Trace:
        """A trace of columns whose levels are already checked."""
        trace = cls.__new__(cls)
        trace._init(signals, columns, n_steps, step_duration)
        return trace

    def _init(self, signals, columns, n_steps, step_duration) -> None:
        if step_duration < 1:
            raise ValueError("step_duration must be at least 1")
        for field, value in zip(
            ("signals", "columns", "n_steps", "step_duration"),
            (signals, columns, n_steps, step_duration),
        ):
            object.__setattr__(self, field, value)

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
    return Trace._of_columns(nl.input_ports + nl.output_ports, columns, n, stim.step_duration)


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


def _put_times(head: str, body: bytearray, times: Iterable[int]) -> str:
    """head, then body without its _FILL bytes and with each "\1" in it
    replaced by the next of times, in decimal."""
    parts = body.translate(None, _FILL).decode().split("\1")
    pieces = [""] * (2 * len(parts) - 1)
    pieces[0::2] = parts
    pieces[1::2] = map(str, times)
    pieces[0] = head + pieces[0]
    return "".join(pieces)


def _write_csv(trace: Trace, tables: Mapping[SignalType, list[bytes]]) -> str:
    """The trace as CSV: a time column, then one column per signal, where
    tables[t] (see _slot_tables) renders the cell of a type-t signal."""
    n, signals = trace.n_steps, trace.signals
    slots = [tables[sig] for _, sig in signals]
    # a row of the body is "\1" for its time, then ',' and the slot of each
    # signal, then '\n'; with no signals it is "\1,\n", as the row is still
    # its time and a ','
    width = max(2 + sum(map(len, slots)) + len(slots), 3)
    body = bytearray(b",") * (n * width)
    body[0::width] = b"\1" * n
    body[width - 1 :: width] = b"\n" * n
    offset = 2
    for col, slot in zip(trace.columns, slots):
        offset = _write_slot(body, offset, width, col, slot) + 1
    names = ",".join(name for name, _ in signals)
    times = range(0, n * trace.step_duration, trace.step_duration)
    return _put_times(f"time,{names}\n", body, times)


# every level's CSV cell, for any signal type
_LEVEL_CELLS = ("0", "1", "2", "3")
_LEVEL_TABLES = {
    sig: _slot_tables([cell.encode() for cell in _LEVEL_CELLS[: sig.levels]])
    for sig in SignalType
}


def export_csv(trace: Trace) -> str:
    return _write_csv(trace, _LEVEL_TABLES)


def parse_csv(
    text: str, types: Mapping[str, SignalType], step_duration: int = 1
) -> Trace:
    """Inverse of export_csv (levels view only). Signal types are supplied by
    the caller; each cell must be one of its signal's levels as export_csv
    writes it, and time i must read i * step. The step is the second time
    when there are two rows or more, else step_duration."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
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
    # per signal, the level of each cell export_csv can write for it
    levels = [
        {cell: lv for lv, cell in enumerate(_LEVEL_CELLS[: sig.levels])}
        for _, sig in signals
    ]
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
    if len(times) >= 2:
        step_duration = int(times[1])
    if times != [str(i * step_duration) for i in range(len(times))]:
        raise ValueError(f"time column must read 0, {step_duration}, ...")
    return Trace(signals, tuple(rows), step_duration)


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
# renders a row's any-change flag as its time line, "\1" standing for the time
_VCD_TIME = _slot_tables([b"", b"#\1\n"])


def _vcd_changes(trace: Trace, idents: list[str]) -> tuple[bytearray, Iterable[int]]:
    """The value changes after time 0 as a body for _put_times, and its
    times: per time, the lines of the signals whose level differs from the
    step before, in declaration order."""
    n = trace.n_steps - 1
    if n < 1:
        return bytearray(), ()
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
    tables = [
        _VCD_VALUES[sig] + [_WHEN_CHANGED[c] for c in f"{ident}\n".encode()]
        for (_, sig), ident in zip(trace.signals, idents)
    ]
    width = len(_VCD_TIME) + sum(map(len, tables))
    body = bytearray(n * width)
    offset = _write_slot(body, 0, width, changed_rows, _VCD_TIME)
    for col, col_tables in zip(marked, tables):
        offset = _write_slot(body, offset, width, col, col_tables)
    step = trace.step_duration
    return body, itertools.compress(range(step, (n + 1) * step, step), changed_rows)


def export_vcd(trace: Trace, timescale: str = "1 ns") -> str:
    """Value-change dump: full dump at time 0, then change-only emission."""
    out = [
        f"$timescale {timescale} $end",
        "$scope module top $end",
    ]
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
    return _put_times("\n".join(out), *_vcd_changes(trace, idents))


def voltage_view(trace: Trace, vmap: VoltageMap | None = None) -> str:
    """CSV like export_csv with levels rendered as voltages (1 decimal)."""
    if vmap is None:
        vmap = VoltageMap()
    tables = {
        sig: _slot_tables([f"{vmap.volts(sig, lv):.1f}".encode() for lv in range(sig.levels)])
        for sig in SignalType
    }
    return _write_csv(trace, tables)
