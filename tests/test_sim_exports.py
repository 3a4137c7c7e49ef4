"""The column exporters against per-row reference writers.

`export_csv`, `voltage_view` and `export_vcd` build their text from the
trace's byte columns. The writers below walk the rows one cell at a time
instead, as the exporters once did; on any trace the two must agree byte for
byte, time stamps included at every digit boundary, and a CSV must read back
to the trace it came from. `parse_csv` reads exported text by columns; on
that text, and on any edit of it, it must agree with a reader that walks the
rows one cell at a time, error texts included.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvq.netlist import SignalType
from mvq.sim import (
    Trace,
    VoltageMap,
    _read_columns,
    _vcd_ident,
    export_csv,
    export_vcd,
    parse_csv,
    voltage_view,
)

B = SignalType.BIN
Q = SignalType.QUAT


def ref_csv(signals, rows, cells):
    """cells[j][level] is signal j's cell at that level."""
    lines = ["time," + ",".join(name for name, _ in signals)]
    for i, row in enumerate(rows):
        lines.append(f"{i}," + ",".join(cells[j][lv] for j, lv in enumerate(row)))
    return "\n".join(lines) + "\n"


def ref_vcd_value(sig, level, ident):
    if sig is Q:
        return f"b{format(level, '02b')} {ident}"
    return f"{level}{ident}"


def ref_vcd(signals, rows, timescale="1 ns"):
    out = [f"$timescale {timescale} $end", "$scope module top $end"]
    idents = [_vcd_ident(idx) for idx in range(len(signals))]
    for (name, sig), ident in zip(signals, idents):
        out.append(f"$var wire {2 if sig is Q else 1} {ident} {name} $end")
    out += ["$upscope $end", "$enddefinitions $end"]
    prev = None
    for i, row in enumerate(rows):
        if prev is None:
            out += ["#0", "$dumpvars"]
            out += [
                ref_vcd_value(sig, lv, ident)
                for (_, sig), lv, ident in zip(signals, row, idents)
            ]
            out.append("$end")
        else:
            changes = [
                ref_vcd_value(sig, lv, ident)
                for (_, sig), ident, lv, old in zip(signals, idents, row, prev)
                if lv != old
            ]
            if changes:
                out.append(f"#{i}")
                out += changes
        prev = row
    return "\n".join(out) + "\n"


@st.composite
def traces(draw):
    """(signals, rows): 0-120 signals, so two-character VCD identifiers
    appear; 0-300 rows whose columns change at every row, never, or between."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    types = [rng.choice([B, Q]) for _ in range(draw(st.integers(0, 120)))]
    n = draw(st.integers(0, 300))
    columns = []
    for sig in types:
        p = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
        col = [rng.randrange(sig.levels)]
        for _ in range(n - 1):
            col.append(rng.randrange(sig.levels) if rng.random() < p else col[-1])
        columns.append(col[:n])
    signals = tuple((f"s{j}", sig) for j, sig in enumerate(types))
    rows = tuple(tuple(col[i] for col in columns) for i in range(n))
    return signals, rows


def ref_parse_csv(text, types):
    """A CSV read one row and one cell at a time, with parse_csv's rules
    and error texts."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0].split(",")
    if header[0] != "time":
        raise ValueError("first column must be time")
    blank = header == ["time", ""] and "" not in types
    names = [] if blank else header[1:]
    if len(set(names)) != len(names):
        raise ValueError(f"repeated column name in {lines[0]!r}")
    for name in names:
        if name not in types:
            raise ValueError(f"no signal type given for {name!r}")
    signals = tuple((name, types[name]) for name in names)
    levels = [{str(lv): lv for lv in range(sig.levels)} for _, sig in signals]
    rows, times = [], []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header) or blank and cells[1]:
            raise ValueError(f"row width mismatch: {ln!r}")
        times.append(cells[0])
        row = []
        for table, cell in zip(levels, cells[1:]):
            if cell not in table:
                raise ValueError(f"cell {cell!r} is not a level: {ln!r}")
            row.append(table[cell])
        rows.append(tuple(row))
    if times != [str(i) for i in range(len(times))]:
        raise ValueError("time column must read 0, 1, ...")
    return Trace(signals, tuple(rows))


def outcome(read, *args):
    try:
        return read(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def mutated_csvs(draw):
    """export_csv text of a small trace, then edited a few times: a byte
    replaced, put in or taken out, a line doubled, dropped or swapped, a
    blank line or a CR put in."""
    signals, rows = draw(traces())
    text = export_csv(Trace(signals[:6], tuple(row[:6] for row in rows[:40])))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["replace", "insert", "delete", "line"]))
        k = draw(st.integers(0, len(text)))
        byte = draw(st.sampled_from(list(",\n0123456789 -+x\r") + ["10", "\u0663"]))
        if op == "replace":
            text = text[:k] + byte + text[k + 1 :]
        elif op == "insert":
            text = text[:k] + byte + text[k:]
        elif op == "delete":
            text = text[:k] + text[k + 1 :]
        else:
            lines = text.split("\n")
            i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
            edit = draw(st.sampled_from(["double", "drop", "swap", "blank", "crlf"]))
            if edit == "double":
                lines.insert(i, lines[i])
            elif edit == "drop":
                del lines[i]
            elif edit == "swap":
                lines[i], lines[j] = lines[j], lines[i]
            elif edit == "blank":
                lines.insert(i, " ")
            else:
                lines = [ln + "\r" for ln in lines]
            text = "\n".join(lines)
    types = {name: sig for name, sig in signals}
    return text, types


@settings(max_examples=300, deadline=None)
@given(mutated_csvs())
@example(("time,a,k\n0,2,3\n1,1,2\n", {"a": B, "k": Q}))
@example(("time,a,k\n0,1,3\n1,1,4\n", {"a": B, "k": Q}))
@example(("time,a\n0,1\n10,0\n", {"a": B}))
@example(("time,a\n0,1\n2,0\n", {"a": B}))
def test_parse_csv_agrees_with_a_row_reader(case):
    assert outcome(parse_csv, *case) == outcome(ref_parse_csv, *case)


# voltages with one decimal between -1000.0 and 1000.0: cells such as
# "-12.5", "0.0" and "100.0" have mixed widths within one signal type
voltage_maps = st.lists(
    st.integers(-10000, 10000), min_size=6, max_size=6, unique=True
).map(lambda vs: sorted(v / 10 for v in vs)).map(
    lambda vs: VoltageMap(quat=tuple(vs[:4]), bin=tuple(vs[4:]))
)


@settings(max_examples=120, deadline=None)
@given(traces(), voltage_maps)
def test_exports_match_the_row_writers(case, vmap):
    signals, rows = case
    trace = Trace(signals, rows)
    assert trace.rows == rows
    levels = [tuple(str(lv) for lv in range(sig.levels)) for _, sig in signals]
    volts = [tuple(f"{vmap.volts(sig, lv):.1f}" for lv in range(sig.levels)) for _, sig in signals]
    text = export_csv(trace)
    assert text == ref_csv(signals, rows, levels)
    assert voltage_view(trace, vmap) == ref_csv(signals, rows, volts)
    assert export_vcd(trace) == ref_vcd(signals, rows)
    assert parse_csv(text, dict(signals)) == trace
    # the text is read by columns, not by the row reader it falls back on
    if signals and rows:
        assert _read_columns(text.splitlines()[1:], signals) == trace


@pytest.mark.parametrize("step", [1, 2, 3, 7, 10, 25, 1000, 999983, 10 ** 12])
@pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 100, 101, 1000, 1001, 10001])
def test_time_columns_at_digit_boundaries(n, step):
    # a binary signal that changes on every third row, and one that never does
    signals = (("a", B), ("k", Q))
    rows = tuple((i // 3 % 2, 2) for i in range(n))
    trace = Trace(signals, rows)
    levels = [("0", "1"), ("0", "1", "2", "3")]
    vmap = VoltageMap()
    volts = [tuple(f"{vmap.volts(sig, lv):.1f}" for lv in range(sig.levels)) for _, sig in signals]
    text = export_csv(trace)
    assert text == ref_csv(signals, rows, levels)
    assert voltage_view(trace) == ref_csv(signals, rows, volts)
    assert export_vcd(trace) == ref_vcd(signals, rows)
    assert parse_csv(text, dict(signals)) == trace
    # the same rows with their times at another step: row i is time i, so
    # both readers take such a CSV only at step 1 or with one row
    lines = text.splitlines(keepends=True)
    stepped = lines[0] + "".join(
        str(i * step) + line[len(str(i)) :] for i, line in enumerate(lines[1:])
    )
    assert (stepped == text) == (step == 1 or n == 1)
    types = dict(signals)
    assert outcome(parse_csv, stepped, types) == outcome(ref_parse_csv, stepped, types)
    if stepped == text:
        assert _read_columns(stepped.splitlines()[1:], signals) == trace
    else:
        assert _read_columns(stepped.splitlines()[1:], signals) is None
        with pytest.raises(ValueError, match=r"^time column must read 0, 1, \.\.\.$"):
            parse_csv(stepped, types)

