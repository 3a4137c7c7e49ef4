"""The column exporters against per-row reference writers.

`export_csv`, `voltage_view` and `export_vcd` build their text from the
trace's byte columns. The writers below walk the rows one cell at a time
instead, as the exporters once did; on any trace the two must agree byte for
byte, and a CSV must read back to the trace it came from.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from mvq.netlist import SignalType
from mvq.sim import (
    Trace,
    VoltageMap,
    _vcd_ident,
    export_csv,
    export_vcd,
    parse_csv,
    voltage_view,
)

B = SignalType.BIN
Q = SignalType.QUAT


def ref_csv(signals, rows, step, cells):
    """cells[j][level] is signal j's cell at that level."""
    lines = ["time," + ",".join(name for name, _ in signals)]
    for i, row in enumerate(rows):
        lines.append(f"{i * step}," + ",".join(cells[j][lv] for j, lv in enumerate(row)))
    return "\n".join(lines) + "\n"


def ref_vcd_value(sig, level, ident):
    if sig is Q:
        return f"b{format(level, '02b')} {ident}"
    return f"{level}{ident}"


def ref_vcd(signals, rows, step, timescale="1 ns"):
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
                out.append(f"#{i * step}")
                out += changes
        prev = row
    return "\n".join(out) + "\n"


@st.composite
def traces(draw):
    """(signals, rows, step): 0-120 signals, so two-character VCD identifiers
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
    return signals, rows, draw(st.integers(1, 7))


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
    signals, rows, step = case
    trace = Trace(signals, rows, step)
    assert trace.rows == rows
    levels = [tuple(str(lv) for lv in range(sig.levels)) for _, sig in signals]
    volts = [tuple(f"{vmap.volts(sig, lv):.1f}" for lv in range(sig.levels)) for _, sig in signals]
    text = export_csv(trace)
    assert text == ref_csv(signals, rows, step, levels)
    assert voltage_view(trace, vmap) == ref_csv(signals, rows, step, volts)
    assert export_vcd(trace) == ref_vcd(signals, rows, step)
    assert parse_csv(text, dict(signals), step) == trace
