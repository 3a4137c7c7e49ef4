"""Exact minimizer: primes, Petrick cover, PLA parsing, XOR factoring, audit."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvq import minimizer
from mvq.arith_core import OpKind
from mvq.minimizer import (
    DC,
    AuditRow,
    ParseError,
    SopExpr,
    TruthTableSpec,
    UnsupportedFeature,
    XorReport,
    audit_published_forms,
    bit_table_spec,
    check_equiv,
    cube_literal_count,
    default_names,
    minimize_exact,
    parse_pla,
    prime_implicants,
    recognize_xor,
    render_cube,
    render_sop,
)


def spec_from_onset(n, onset, dc=()):
    names = default_names(n)
    outputs = tuple(
        1 if i in onset else (DC if i in dc else 0) for i in range(2 ** n)
    )
    return TruthTableSpec(names, outputs)


def brute_force_minimum(spec):
    """Reference cover search over all prime subsets; returns best cost."""
    primes = prime_implicants(spec)
    onset = [i for i, v in enumerate(spec.outputs) if v == 1]
    if not onset:
        return (0, 0)

    def covers(cube, m):
        n = spec.n_vars
        return all(
            ch == DC or int(ch) == (m >> (n - 1 - j)) & 1
            for j, ch in enumerate(cube)
        )

    best = None
    for r in range(1, len(primes) + 1):
        for subset in itertools.combinations(primes, r):
            if all(any(covers(p, m) for p in subset) for m in onset):
                lits = sum(cube_literal_count(p) for p in subset)
                cost = (r, lits)
                if best is None or cost < best:
                    best = cost
        if best is not None and best[0] == r:
            break  # no smaller-term cover exists beyond this size
    return best


def test_spec_validation():
    with pytest.raises(ValueError, match="^need 2 output entries, got 1$"):
        TruthTableSpec(("a",), (0,))  # wrong length
    with pytest.raises(ValueError):
        TruthTableSpec(("a", "a"), (0, 0, 0, 0))
    with pytest.raises(ValueError):
        TruthTableSpec(("a", "b"), (0, 2, 0, 0))
    # an output is exactly the int 0, the int 1 or '-': not a value equal to one
    for bad in (True, False, 1.0, 0.0, "1", "0", "x", None, [1]):
        with pytest.raises(ValueError, match="^bad output value"):
            TruthTableSpec(("a",), (0, bad))
    with pytest.raises(ValueError):
        TruthTableSpec(tuple(f"v{i}" for i in range(9)), tuple([0] * 512))


def test_row_bits_msb_first():
    spec = spec_from_onset(3, ())
    assert spec.row_bits(0) == (0, 0, 0)
    assert spec.row_bits(4) == (1, 0, 0)
    assert spec.row_bits(6) == (1, 1, 0)
    assert spec.row_bits(7) == (1, 1, 1)
    for index in (-1, 8, 9):
        with pytest.raises(ValueError, match=f"^row {index} outside 0..7$"):
            spec.row_bits(index)


def test_evaluate_checks_its_bits():
    e = SopExpr(3, ("-11",))
    assert e.evaluate((0, 1, 1)) == 1
    for bits in ((1, 1), (0, 1, 1, 1), ()):
        with pytest.raises(ValueError, match=f"^{len(bits)} bits for 3 variables$"):
            e.evaluate(bits)
    for bad in (2, -1, 0.5, None):
        with pytest.raises(ValueError, match="^bad bit"):
            e.evaluate((0, bad, 1))


def test_sop_expr_invariants():
    with pytest.raises(ValueError):
        SopExpr(2, ("11", "11"))
    with pytest.raises(ValueError):
        SopExpr(2, ("1-", "11"))  # containment
    with pytest.raises(ValueError):
        SopExpr(2, ("1",))
    e = SopExpr(4, ("-1-1",))
    assert e.term_count == 1 and e.literal_count == 2


def test_prime_implicants_m2():
    # lsb of the mod-4 product: single prime x2 y2
    spec = bit_table_spec(OpKind.MOD4_MUL, 1)
    assert prime_implicants(spec) == ("-1-1",)


def test_prime_implicants_a2():
    spec = bit_table_spec(OpKind.MOD4_ADD, 1)
    assert set(prime_implicants(spec)) == {"-1-0", "-0-1"}


def test_prime_implicants_constant_zero():
    assert prime_implicants(spec_from_onset(3, ())) == ()


def test_prime_implicants_gf4_m1():
    spec = bit_table_spec(OpKind.GF4_MUL, 0)
    assert set(prime_implicants(spec)) == {"011-", "-111", "1-01", "11-1", "1010"}


def test_primes_are_prime_by_brute_force():
    for kind, bit in (
        (OpKind.MOD4_ADD, 0), (OpKind.MOD4_MUL, 0), (OpKind.MOD4_SUB, 0),
        (OpKind.GF4_MUL, 0), (OpKind.GF4_MUL, 1),
    ):
        spec = bit_table_spec(kind, bit)
        offset = {i for i, v in enumerate(spec.outputs) if v == 0}
        n = spec.n_vars
        for cube in prime_implicants(spec):
            covered = {
                i for i in range(2 ** n)
                if all(
                    ch == DC or int(ch) == (i >> (n - 1 - j)) & 1
                    for j, ch in enumerate(cube)
                )
            }
            assert not covered & offset, (cube, "covers off-set")
            for j, ch in enumerate(cube):  # dropping any literal hits off-set
                if ch == DC:
                    continue
                wider = cube[:j] + DC + cube[j + 1 :]
                wider_cov = {
                    i for i in range(2 ** n)
                    if all(
                        c == DC or int(c) == (i >> (n - 1 - k)) & 1
                        for k, c in enumerate(wider)
                    )
                }
                assert wider_cov & offset, (cube, "not prime")


def test_minimize_m2():
    best = minimize_exact(bit_table_spec(OpKind.MOD4_MUL, 1))
    assert best.cubes == ("-1-1",)
    assert best.term_count == 1 and best.literal_count == 2


def test_minimize_constants():
    zero = minimize_exact(spec_from_onset(3, ()))
    assert zero.cubes == () and render_sop(zero) == "0"
    one = minimize_exact(spec_from_onset(2, {0, 1, 2, 3}))
    assert one.cubes == ("--",) and one.literal_count == 0
    assert render_sop(one) == "1"


def test_minimize_gf4_m1_cost():
    best = minimize_exact(bit_table_spec(OpKind.GF4_MUL, 0))
    assert best.term_count == 4
    assert best.literal_count == 13


def test_minimize_mod4_m1_cost():
    best = minimize_exact(bit_table_spec(OpKind.MOD4_MUL, 0))
    assert best.term_count == 4
    assert best.literal_count == 12


def test_minimize_with_dont_cares():
    # dc rows let the cover grow cubes beyond the on-set
    spec = spec_from_onset(2, {3}, dc={1, 2})
    best = minimize_exact(spec)
    assert check_equiv(best, spec)
    assert best.literal_count <= 1


def test_minimize_matches_brute_force_on_all_audited_tables():
    for kind in OpKind:
        bits = (0, 1)
        for b in bits:
            spec = bit_table_spec(kind, b)
            got = minimize_exact(spec)
            assert check_equiv(got, spec), (kind, b)
            want = brute_force_minimum(spec)
            if want is None:
                assert got.cubes == ()
            else:
                assert (got.term_count, got.literal_count) == want, (kind, b)


@settings(max_examples=60)
@given(st.integers(0, 255))
def test_minimize_random_3var_functions(mask):
    outputs = tuple((mask >> i) & 1 for i in range(8))
    spec = TruthTableSpec(("a", "b", "c"), outputs)
    got = minimize_exact(spec)
    assert check_equiv(got, spec)
    want = brute_force_minimum(spec)
    if want is None:
        assert got.cubes == ()
    else:
        assert (got.term_count, got.literal_count) == want


def test_determinism():
    spec = bit_table_spec(OpKind.MOD4_SUB, 0)
    runs = {minimize_exact(spec).cubes for _ in range(5)}
    assert len(runs) == 1


def test_check_equiv_cases():
    a2 = bit_table_spec(OpKind.MOD4_ADD, 1)
    assert check_equiv(SopExpr(4, ("-1-0", "-0-1")), a2)
    assert check_equiv(SopExpr(3, ()), spec_from_onset(3, ()))
    gf4_m2 = bit_table_spec(OpKind.GF4_MUL, 1)
    assert not check_equiv(SopExpr(4, ("-1-1",)), gf4_m2)
    assert not check_equiv(SopExpr(2, ("-1",)), a2)  # arity mismatch


def test_render_sop():
    assert render_sop(SopExpr(4, ("-1-0", "-0-1"))) == "x2 y2' + x2' y2"
    assert render_sop(SopExpr(4, ())) == "0"
    assert render_sop(SopExpr(2, ("--",))) == "1"
    assert render_sop(SopExpr(2, ("10",)), ("p", "q")) == "p q'"
    assert render_cube("-10", ("a", "b", "c")) == "b c'"


@pytest.mark.parametrize("cubes", [("-11",), (), ("---",), ("1-1", "01-")])
@pytest.mark.parametrize("names", [("a",), ("a", "b"), ("a", "b", "c", "d")])
def test_names_must_match_the_variable_count(cubes, names):
    e = SopExpr(3, cubes)
    message = f"^{len(names)} names for 3 variables$"
    with pytest.raises(ValueError, match=message):
        render_sop(e, names)
    with pytest.raises(ValueError, match=message):
        recognize_xor(e, names)
    with pytest.raises(ValueError, match=message):
        render_cube("-11", names)


def test_recognize_xor_a2():
    rep = recognize_xor(SopExpr(4, ("-1-0", "-0-1")))
    assert rep.rendered == "x2 ^ y2"
    assert rep.gates_2in == 1
    assert rep.form == "xor-pair"


def test_recognize_xor_mod4_m1():
    best = minimize_exact(bit_table_spec(OpKind.MOD4_MUL, 0))
    rep = recognize_xor(best)
    assert rep.rendered == "(x1 y2) ^ (x2 y1)"
    assert rep.gates_2in == 3


def test_recognize_xor_single_term_passthrough():
    rep = recognize_xor(SopExpr(4, ("-1-1",)))
    assert rep.rendered == "x2 y2"
    assert rep.gates_2in == 1
    assert rep.form == "single-term"


def test_recognize_xor_constants():
    for cubes, rendered in (((), "0"), (("---",), "1")):
        e = SopExpr(3, cubes)
        assert recognize_xor(e) == XorReport(e, rendered, 0, "const")


def test_recognize_xor_equivalence_exhaustive():
    for kind in OpKind:
        for b in (0, 1):
            spec = bit_table_spec(kind, b)
            best = minimize_exact(spec)
            rep = recognize_xor(best)
            assert rep.original == best
            # the rendering is only trusted if the library checked it; spot
            # check the xor-pair path independently via the expression text
            assert rep.gates_2in >= 0


def test_recognize_xor_pairwise_fallback():
    # 5-var function forces the pairwise path (no whole-expression search):
    # f = a b' + a' b on 5 vars, plus an unrelated cube
    cubes = ("10---", "01---", "--111")
    e = SopExpr(5, cubes)
    rep = recognize_xor(e)
    assert "^" in rep.rendered
    assert rep.form == "mixed"
    # pairwise identity was asserted internally; re-check equivalence here
    spec_rows = []
    for i in range(32):
        bits = tuple((i >> (4 - j)) & 1 for j in range(5))
        spec_rows.append(e.evaluate(bits))
    # rendered "x1 ^ x2 + x3 x4 x5" means (x1^x2) | (x3&x4&x5)
    for i in range(32):
        bits = tuple((i >> (4 - j)) & 1 for j in range(5))
        want = (bits[0] ^ bits[1]) | (bits[2] & bits[3] & bits[4])
        assert spec_rows[i] == want


def test_recognize_xor_checks_each_factored_pair(monkeypatch):
    # a factoring with the wrong polarity must raise, also under python -O
    real = minimizer._fxor_pair

    def wrong_polarity(c1, c2, n):
        got = real(c1, c2, n)
        return None if got is None else got[:4] + (1 - got[4],)

    monkeypatch.setattr(minimizer, "_fxor_pair", wrong_polarity)
    with pytest.raises(RuntimeError, match="^factored term for 10--- \\+ 01--- differs at row 0$"):
        recognize_xor(SopExpr(5, ("10---", "01---", "--111")))


PLA_A2 = """\
.i 4
.o 1
.ilb x1 x2 y1 y2
.ob a2
0001 1
0011 1
0100 1
0110 1
1001 1
1011 1
1100 1
1110 1
.e
"""


def test_parse_pla_a2():
    spec = parse_pla(PLA_A2)
    assert spec.names == ("x1", "x2", "y1", "y2")
    assert spec == bit_table_spec(OpKind.MOD4_ADD, 1)
    assert render_sop(minimize_exact(spec)) == "x2 y2' + x2' y2"


def test_parse_pla_defaults_and_dashes():
    text = ".i 2\n.o 1\n1- 1\n.e\n"
    spec = parse_pla(text)
    assert spec.names == ("x1", "x2")
    assert spec.outputs == (0, 0, 1, 1)


def test_parse_pla_dc_and_zero_rows():
    text = ".i 2\n.o 1\n11 1\n01 -\n00 0\n.e\n"
    spec = parse_pla(text)
    assert spec.outputs == (0, DC, 0, 1)


def test_parse_pla_comments_and_p():
    text = "# table\n.i 1\n.o 1\n.p 1\n1 1 # on\n.e\n"
    assert parse_pla(text).outputs == (0, 1)


def test_parse_pla_errors():
    with pytest.raises(UnsupportedFeature):
        parse_pla(".i 2\n.o 2\n.e\n")
    with pytest.raises(ParseError) as err:
        parse_pla(".i 2\n.o 1\n111 1\n.e\n")
    assert "line 3" in str(err.value)
    with pytest.raises(ParseError):
        parse_pla(".i 2\n.o 1\n11 1\n11 0\n.e\n")  # conflict
    with pytest.raises(ParseError):
        parse_pla(".i 2\n.o 1\n11 1\n")  # missing .e
    with pytest.raises(ParseError):
        parse_pla("11 1\n.e\n")  # row before header
    # a row needs both headers: one of them alone does not do
    for text in (".i 2\n11 1\n.o 1\n.e\n", ".o 1\n11 1\n.i 2\n.e\n"):
        with pytest.raises(ParseError, match="^line 2: cube row before .i/.o$"):
            parse_pla(text)
    with pytest.raises(ParseError):
        parse_pla(".i 2\n.o 1\n1x 1\n.e\n")
    with pytest.raises(ParseError):
        parse_pla(".i 2\n.o 1\n11 2\n.e\n")
    with pytest.raises(UnsupportedFeature):
        parse_pla(".i 2\n.o 1\n.type fr\n11 1\n.e\n")
    with pytest.raises(ParseError):
        parse_pla(".i 2\n.o 1\n.ilb a\n11 1\n.e\n")
    with pytest.raises(ParseError, match="^line 4: repeated .ilb$"):
        parse_pla(".i 2\n.o 1\n.ilb a b\n.ilb c d\n11 1\n.e\n")
    with pytest.raises(ParseError, match="^line 3: duplicate .ilb name 'b'$"):
        parse_pla(".i 3\n.o 1\n.ilb a b b\n.e\n")
    for n in (0, 9):
        with pytest.raises(ParseError, match=f"^line 1: .i {n} outside 1..8$"):
            parse_pla(f".i {n}\n.o 1\n.e\n")


def test_parse_pla_widest_table():
    spec = parse_pla(".i 8\n.o 1\n11111111 1\n0------- -\n.e\n")
    assert (spec.on, spec.dc) == (1 << 255, (1 << 128) - 1)
    assert spec.outputs == (DC,) * 128 + (0,) * 127 + (1,)
    with pytest.raises(ParseError, match="^missing .i or .o header$"):
        parse_pla(".i 2\n.e\n")
    with pytest.raises(ParseError, match="^missing .i or .o header$"):
        parse_pla(".o 1\n.e\n")


# recorded from the per-character reader; int() would accept the last three
@pytest.mark.parametrize("in_part", ["x01", "0x1", "01x", "0+1", "0_1", "\uff1011"])
def test_parse_pla_bad_input_character_anywhere(in_part):
    with pytest.raises(ParseError) as err:
        parse_pla(f".i 3\n.o 1\n{in_part} 1\n.e\n")
    assert str(err.value) == "line 3: bad input character"


def test_parse_pla_row_error_precedence():
    # width before characters, characters before the output value
    with pytest.raises(ParseError) as err:
        parse_pla(".i 3\n.o 1\n0x11 1\n.e\n")
    assert str(err.value) == "line 3: input part has 4 positions, expected 3"
    with pytest.raises(ParseError) as err:
        parse_pla(".i 3\n.o 1\n0x1 2\n.e\n")
    assert str(err.value) == "line 3: bad input character"


@pytest.mark.parametrize(
    "rows, message",
    [
        ("1- 1\n10 0\n", "line 4: row 2 conflicts with line 3"),
        ("-1- -\n010 1\n", "line 4: row 2 conflicts with line 3"),
        ("--- 0\n111 1\n", "line 4: row 7 conflicts with line 3"),
    ],
)
def test_parse_pla_dash_free_row_conflicts_with_an_earlier_dashed_row(rows, message):
    n = len(rows.split()[0])
    with pytest.raises(ParseError) as err:
        parse_pla(f".i {n}\n.o 1\n{rows}.e\n")
    assert str(err.value) == message


def test_parse_pla_dash_rows_do_not_conflict_when_equal():
    text = ".i 2\n.o 1\n1- 1\n11 1\n.e\n"
    assert parse_pla(text).outputs == (0, 0, 1, 1)


def test_audit_all_rows_equivalent():
    rows = audit_published_forms()
    assert len(rows) == 14
    for row in rows:
        assert isinstance(row, AuditRow)
        assert row.equivalent, (row.op, row.bit)
        assert row.min_literals <= (
            row.published_sop_literals
            if row.published_sop_literals is not None
            else 10 ** 9
        )


def test_audit_known_costs():
    rows = {(r.op, r.bit): r for r in audit_published_forms()}
    a1 = rows[("mod4-add", "a1")]
    assert a1.published_gates_2in == 3
    assert a1.published_literals == 4
    m1 = rows[("gf4-mul", "m1")]
    assert m1.published_sop_literals == 13
    assert m1.min_literals == 13 and m1.min_terms == 4
    d2 = rows[("mod4-dbl", "d2")]
    assert d2.published_form == "0"
    assert d2.min_terms == 0 and d2.min_sop == "0"
    mm1 = rows[("mod4-mul", "m1")]
    assert mm1.published_sop_literals == 12
    assert mm1.min_literals == 12
    s2 = rows[("mod4-sub", "s2")]
    assert s2.published_sop_literals == 4 and s2.min_literals == 4


def test_audit_row_order_is_stable():
    ops = [(r.op, r.bit) for r in audit_published_forms()]
    assert ops == [
        ("mod4-add", "a1"), ("mod4-add", "a2"),
        ("mod4-mul", "m1"), ("mod4-mul", "m2"),
        ("mod4-sub", "s1"), ("mod4-sub", "s2"),
        ("mod4-neg", "n1"), ("mod4-neg", "n2"),
        ("mod4-dbl", "d1"), ("mod4-dbl", "d2"),
        ("gf4-add", "a1"), ("gf4-add", "a2"),
        ("gf4-mul", "m1"), ("gf4-mul", "m2"),
    ]


# --- the audit's printed forms, read back

_FORM_TOKEN = re.compile(r"\s*(?:([A-Za-z]\w*)|([01])|([()^+']))")


def read_form(text):
    """A printed bit form as (value of a {name: bit} row, literal count).
    Grammar, loosest first: terms joined by '+' (OR), factors joined by '^'
    (XOR), atoms juxtaposed (AND); an atom is a name, 0, 1 or a parenthesised
    form, each optionally followed by ' (NOT)."""
    tokens = []
    pos = 0
    while pos < len(text.rstrip()):
        m = _FORM_TOKEN.match(text, pos)
        assert m, f"cannot read {text[pos:]!r}"
        tokens.append(m.group(m.lastindex))
        pos = m.end()
    tokens.append(None)
    at = 0
    literals = 0

    def take():
        nonlocal at
        at += 1
        return tokens[at - 1]

    def joined(op, part):
        first = part()
        rest = []
        while tokens[at] == op:
            take()
            rest.append(part())
        return first, rest

    def sum_():
        first, rest = joined("+", xor)
        return lambda row: first(row) | any(f(row) for f in rest)

    def xor():
        first, rest = joined("^", product)
        return lambda row: first(row) ^ sum(f(row) for f in rest) % 2

    def product():
        factors = [atom()]
        while tokens[at] not in (None, "+", "^", ")"):
            factors.append(atom())
        return lambda row: int(all(f(row) for f in factors))

    def atom():
        nonlocal literals
        token = take()
        if token == "(":
            value = sum_()
            assert take() == ")"
        elif token in ("0", "1"):
            value = lambda row, bit=int(token): bit  # noqa: E731
        else:
            assert re.fullmatch(r"[A-Za-z]\w*", token), token
            literals += 1
            value = lambda row, name=token: row[name]  # noqa: E731
        while tokens[at] == "'":
            take()
            value = lambda row, inner=value: 1 - inner(row)  # noqa: E731
        return value

    value = sum_()
    assert tokens[at] is None, f"unread {tokens[at:]!r}"
    return value, literals


def test_form_reader_reads_its_grammar():
    value, literals = read_form("x1 y1' + (x2 ^ y2)' 1")
    assert literals == 4
    table = [value({"x1": a, "y1": b, "x2": c, "y2": d})
             for a, b, c, d in itertools.product((0, 1), repeat=4)]
    want = [(a & (1 - b)) | (1 - (c ^ d)) for a, b, c, d in itertools.product((0, 1), repeat=4)]
    assert table == want
    assert read_form("0")[0]({}) == 0 and read_form("0")[1] == 0


# (literals, 2-input gates, SOP literals) of each published form, as the
# audit prints them
PUBLISHED_COUNTS = {
    ("mod4-add", "a1"): (4, 3, None),
    ("mod4-add", "a2"): (2, 1, None),
    ("mod4-mul", "m1"): (4, 3, 12),
    ("mod4-mul", "m2"): (2, 1, 2),
    ("mod4-sub", "s1"): (4, 3, None),
    ("mod4-sub", "s2"): (2, 1, 4),
    ("mod4-neg", "n1"): (2, 1, None),
    ("mod4-neg", "n2"): (1, 0, 1),
    ("mod4-dbl", "d1"): (1, 0, 1),
    ("mod4-dbl", "d2"): (0, 0, 0),
    ("gf4-add", "a1"): (2, 1, None),
    ("gf4-add", "a2"): (2, 1, None),
    ("gf4-mul", "m1"): (13, 12, 13),
    ("gf4-mul", "m2"): (4, 3, None),
}


def test_audit_counts_are_the_published_ones():
    got = {
        (r.op, r.bit): (r.published_literals, r.published_gates_2in, r.published_sop_literals)
        for r in audit_published_forms()
    }
    assert got == PUBLISHED_COUNTS


def form_table(text, names):
    """The rows where read_form's value is 1, as a mask, and its literal count."""
    value, literals = read_form(text)
    n = len(names)
    rows = 0
    for i in range(2 ** n):
        if value({name: i >> (n - 1 - v) & 1 for v, name in enumerate(names)}):
            rows |= 1 << i
    return rows, literals


@pytest.mark.parametrize("row", minimizer._PUBLISHED, ids=lambda row: f"{row[0]}-{row[1]}")
def test_published_form_has_its_bit_table_and_counts(row):
    op, bit, kind, bit_index, form, sop = row
    spec = bit_table_spec(kind, bit_index)
    rows, literals = form_table(form, spec.names)
    assert rows == spec.on, (op, bit)
    lits, gates, _ = PUBLISHED_COUNTS[(op, bit)]
    assert literals == lits
    # every operator joins two subtrees of literals: one 2-input gate each
    assert gates == max(lits - 1, 0)
    # the audit's own reader agrees with this one
    assert minimizer._form_rows(form, spec.names) == (rows, literals)


@pytest.mark.parametrize(
    "text",
    [
        "x1 y1' + (x2 ^ y2)'",
        "x1 + x2 ^ y1 y2",
        "(x1 + x2) (y1 ^ y2')",
        "x1 ^ x2 ^ y1 ^ y2",
        "(x1 y1)' + 0 ^ x2",
        "((x2))' y2 + x1 x1",
        "0'",
    ],
)
def test_form_rows_agrees_with_the_reference_reader(text):
    names = default_names(4)
    assert minimizer._form_rows(text, names) == form_table(text, names)


@pytest.mark.parametrize("text", ["(x1", "x1 ^", "z9", "x1 ) x2", "x1 +", "", "x1 * x2", "x1''"])
def test_form_rows_refuses_what_it_cannot_read(text):
    with pytest.raises(ValueError) as err:
        minimizer._form_rows(text, default_names(4))
    assert str(err.value) == f"cannot read form {text!r}"
