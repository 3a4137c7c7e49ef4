"""PLA fuzzing: mutated PLA text either parses or raises ParseError or
UnsupportedFeature, and `mvq minimize -` exits 0 or 2 on it, never with a
traceback."""

import contextlib
import io
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvq.cli import main
from mvq.minimizer import (
    ParseError,
    UnsupportedFeature,
    minimize_exact,
    parse_pla,
    render_sop,
)

# characters a mutation may write into a line: the PLA alphabet, digits,
# separators, and a few a reader must reject (a non-ASCII digit among them)
CHARS = "01-.# \t23456789ieobp x\x00³٣é"


@st.composite
def valid_pla(draw):
    n = draw(st.integers(1, 6))
    lines = [f".i {n}", ".o 1"]
    if draw(st.booleans()):
        lines.append(".ilb " + " ".join(f"v{j}" for j in range(n)))
    if draw(st.booleans()):
        lines.append(".ob f")
    rows = draw(st.lists(
        st.tuples(st.text(alphabet="01-", min_size=n, max_size=n), st.sampled_from("01-")),
        max_size=6,
    ))
    if draw(st.booleans()):
        lines.append(f".p {len(rows)}")
    lines += [f"{cube} {out}" for cube, out in rows]
    lines.append(".e")
    return lines


@st.composite
def with_late_header(draw, lines, op):
    """lines with a header inserted before .e: for "repeat" a second .i, .o
    or (when the lines have one) .ilb anywhere, for "late" any header
    directive after the first cube row."""
    end = next((k for k, line in enumerate(lines) if line.strip() == ".e"), len(lines))
    rows = [k for k in range(end) if not lines[k].startswith(".")]
    if op == "repeat" or not rows:
        repeats = [".i 2", ".o 1"]
        if any(line.split()[:1] == [".ilb"] for line in lines[:end]):
            repeats.append(".ilb a b")
        header, start = draw(st.sampled_from(repeats)), 0
    else:
        header = draw(st.sampled_from((".i 2", ".o 1", ".ilb a b", ".ob f", ".p 1")))
        start = rows[0] + 1
    k = draw(st.integers(start, end))
    return lines[:k] + [header] + lines[k:]


@st.composite
def mutated_pla(draw):
    lines = draw(valid_pla())
    for _ in range(draw(st.integers(0, 4))):
        if not lines:
            lines.append(".e")
        k = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from((
            "drop", "duplicate", "swap", "char", "widen", "narrow", "conflict",
            "header", "repeat", "late",
        )))
        if op == "drop":
            del lines[k]
        elif op == "duplicate":
            lines.insert(k, lines[k])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        elif op == "char":
            pos = draw(st.integers(0, len(lines[k])))
            ch = draw(st.sampled_from(CHARS))
            lines[k] = lines[k][:pos] + ch + lines[k][pos + 1:]
        elif op == "widen":
            lines[k] = draw(st.sampled_from("01-")) + lines[k]
        elif op == "narrow":
            lines[k] = lines[k][1:]
        elif op == "conflict":
            # the same input cube again with another output value
            fields = lines[k].split()
            if len(fields) == 2 and not fields[0].startswith("."):
                other = draw(st.sampled_from([v for v in "01-" if v != fields[1]]))
                lines.insert(k + 1, f"{fields[0]} {other}")
        elif op in ("repeat", "late"):
            lines = draw(with_late_header(lines, op))
        else:
            lines.insert(0, draw(st.sampled_from((".i 0", ".i 9", ".o 0", ".o 2", ".i", ".type f"))))
    return "\n".join(lines) + "\n"


@st.composite
def pla_with_late_header(draw):
    op = draw(st.sampled_from(("repeat", "late")))
    return "\n".join(draw(with_late_header(draw(valid_pla()), op))) + "\n"


@settings(max_examples=300, deadline=None)
# str.isdigit accepts superscripts, which int() rejects
@example(".i \u00b3\n.o 1\n.e\n")
@example(".i 1\n.o \u00b2\n1 1\n.e\n")
@given(mutated_pla())
def test_parse_pla_raises_only_its_own_errors(text):
    try:
        parse_pla(text)
    except (ParseError, UnsupportedFeature):
        pass


@settings(max_examples=150, deadline=None)
# the earlier row used to be read again under the later width
@example(".i 2\n.o 1\n11 1\n.i 3\n.e\n")
# the second .ilb used to replace the first
@example(".i 2\n.o 1\n.ilb a b\n.ilb c d\n11 1\n.e\n")
@given(pla_with_late_header())
def test_repeated_or_late_header_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_pla(text)


@settings(max_examples=150, deadline=None)
@example(".i \u00b3\n.o 1\n.e\n")
@example(".i 1\n.o \u00b2\n1 1\n.e\n")
@given(mutated_pla())
def test_minimize_cli_exits_0_or_2(text):
    try:
        spec = parse_pla(text)
    except (ParseError, UnsupportedFeature) as exc:
        spec, error = None, str(exc)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["minimize", "-"])
    if spec is None:
        assert (code, out.getvalue(), err.getvalue()) == (2, "", error + "\n")
    else:
        want = render_sop(minimize_exact(spec), spec.names) + "\n"
        assert (code, out.getvalue(), err.getvalue()) == (0, want, "")
