"""Stimulus sweeps over netlists with CSV and VCD trace export.

Steps are purely combinational: each one is independent of the others, so
traces are rectangular tables of levels over time. `run` evaluates all steps
of a stimulus at once through the netlist's bit-parallel table kernel; row i
still equals `Netlist.evaluate(steps[i])`, but is no longer computed that
way. Exports are byte deterministic for a fixed trace. Quaternary signals
appear in VCD as 2-bit vectors under the natural encoding, binary signals as
scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .netlist import Netlist, NetlistError, SignalType


class PortMismatch(NetlistError):
    pass


@dataclass(frozen=True)
class Stimulus:
    """Ordered input assignments; each step must assign every input port."""

    steps: tuple[Mapping[str, int], ...]
    step_duration: int = 1


@dataclass(frozen=True)
class Trace:
    """Rectangular level recording: one row per step covering every signal
    (inputs first, then outputs, in port declaration order)."""

    signals: tuple[tuple[str, SignalType], ...]
    rows: tuple[tuple[int, ...], ...]
    step_duration: int = 1

    def __post_init__(self) -> None:
        if self.step_duration < 1:
            raise ValueError("step_duration must be at least 1")
        for row in self.rows:
            if len(row) != len(self.signals):
                raise ValueError("trace rows must cover every signal")

    def column(self, name: str) -> tuple[int, ...]:
        for idx, (sig_name, _) in enumerate(self.signals):
            if sig_name == name:
                return tuple(row[idx] for row in self.rows)
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
    rows = zip(*columns) if columns else [()]
    return Stimulus(tuple(dict(zip(names, row)) for row in rows))


def run(nl: Netlist, stim: Stimulus) -> Trace:
    """Evaluate every step at once (steps share no state); row i equals
    evaluate(steps[i]): the step's input levels, then the output levels."""
    nl.validate()
    in_names = [name for name, _ in nl.input_ports]
    ports = set(in_names)
    for step in stim.steps:
        if step.keys() != ports:
            raise PortMismatch(
                f"step assigns {sorted(step)}, ports are {sorted(in_names)}"
            )
    columns = [[step[n] for step in stim.steps] for n in in_names]
    columns += nl._eval_columns(columns, len(stim.steps))
    rows = tuple(zip(*columns)) if columns else ((),) * len(stim.steps)
    signals = nl.input_ports + nl.output_ports
    return Trace(signals, rows, stim.step_duration)


# every level's CSV cell, for any signal type
_LEVEL_CELLS = ("0", "1", "2", "3")


def _write_csv(trace: Trace, cells: list[tuple[str, ...]]) -> str:
    """The trace as CSV: a time column, then one column per signal, where
    cells[j][level] is signal j's rendered cell at that level."""
    names = [name for name, _ in trace.signals]
    lines = ["time," + ",".join(names)]
    for i, row in enumerate(trace.rows):
        t = i * trace.step_duration
        lines.append(f"{t}," + ",".join(map(tuple.__getitem__, cells, row)))
    return "\n".join(lines) + "\n"


def export_csv(trace: Trace) -> str:
    return _write_csv(trace, [_LEVEL_CELLS] * len(trace.signals))


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
    names = header[1:]
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
        if len(cells) != len(names) + 1:
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
    prev: tuple[int, ...] | None = None
    for i, row in enumerate(trace.rows):
        t = i * trace.step_duration
        if prev is None:
            out.append("#0")
            out.append("$dumpvars")
            for (_, sig), level, ident in zip(trace.signals, row, idents):
                out.append(_vcd_value(sig, level, ident))
            out.append("$end")
        else:
            changes = [
                _vcd_value(sig, level, ident)
                for (_, sig), ident, level, old in zip(
                    trace.signals, idents, row, prev
                )
                if level != old
            ]
            if changes:
                out.append(f"#{t}")
                out.extend(changes)
        prev = row
    return "\n".join(out) + "\n"


def voltage_view(trace: Trace, vmap: VoltageMap | None = None) -> str:
    """CSV like export_csv with levels rendered as voltages (1 decimal)."""
    if vmap is None:
        vmap = VoltageMap()
    cells = [
        tuple(f"{vmap.volts(sig, level):.1f}" for level in range(sig.levels))
        for _, sig in trace.signals
    ]
    return _write_csv(trace, cells)
