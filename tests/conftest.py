"""Shared test helpers: a structural VCD well-formedness checker."""

import pytest


def check_vcd_structure(text):
    """Validate a VCD dump structurally and return (widths by ident, times).

    Checks: balanced scopes, a timescale, every value change uses a declared
    identifier with the declared width, strictly increasing timestamps,
    vector values only over bits 0/1, and a $dumpvars block that gives every
    declared identifier exactly one value.
    """
    lines = text.splitlines()
    assert lines, "empty VCD"
    widths = {}
    depth = 0
    saw_timescale = False
    body_start = None
    for i, ln in enumerate(lines):
        if ln.startswith("$timescale"):
            saw_timescale = True
            assert ln.endswith("$end")
        elif ln.startswith("$scope"):
            depth += 1
            assert ln.endswith("$end")
        elif ln.startswith("$upscope"):
            depth -= 1
            assert depth >= 0, "unbalanced $upscope"
        elif ln.startswith("$var"):
            parts = ln.split()
            assert parts[0] == "$var" and parts[-1] == "$end"
            assert parts[1] == "wire"
            width, ident = int(parts[2]), parts[3]
            assert ident not in widths, f"duplicate ident {ident!r}"
            widths[ident] = width
        elif ln.startswith("$enddefinitions"):
            assert ln.endswith("$end")
            body_start = i + 1
            break
    assert saw_timescale, "missing $timescale"
    assert depth == 0, "unbalanced $scope"
    assert body_start is not None, "missing $enddefinitions"

    times = []
    last_time = None
    in_dump = False
    dumps = []  # the identifiers set by each $dumpvars block
    for ln in lines[body_start:]:
        if not ln:
            continue
        if ln == "$dumpvars":
            in_dump = True
            dumps.append([])
            continue
        if ln == "$end":
            assert in_dump, "stray $end"
            in_dump = False
            continue
        if ln.startswith("#"):
            t = int(ln[1:])
            assert last_time is None or t > last_time, "timestamps not increasing"
            last_time = t
            times.append(t)
            continue
        assert last_time is not None, "value change before any timestamp"
        if ln.startswith("b"):
            value, ident = ln[1:].split()
            assert ident in widths, f"undeclared ident {ident!r}"
            assert len(value) == widths[ident]
            assert set(value) <= {"0", "1"}
        else:
            value, ident = ln[0], ln[1:]
            assert value in "01"
            assert widths.get(ident) == 1, f"bad scalar change {ln!r}"
        if in_dump:
            dumps[-1].append(ident)
    assert not in_dump, "unterminated $dumpvars"
    for dumped in dumps:
        assert sorted(dumped) == sorted(widths), "$dumpvars must set each ident once"
    return widths, times


@pytest.fixture
def vcd_check():
    return check_vcd_structure
