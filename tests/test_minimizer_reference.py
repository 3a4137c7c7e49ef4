"""The minimizer against references written from the definitions: prime
implicants over all 3^n cubes, minimum covers over all prime subsets, and a
per-row PLA reader. A pinned digest covers sizes too slow to brute-force."""

import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvq.minimizer import (
    DC,
    ParseError,
    SopExpr,
    TruthTableSpec,
    check_equiv,
    default_names,
    minimize_exact,
    parse_pla,
    prime_implicants,
    recognize_xor,
    render_sop,
)


@functools.cache
def rows_of(cube):
    """Row indices (variable 0 = msb) whose bits match every literal."""
    n = len(cube)
    return frozenset(
        i for i in range(2 ** n)
        if all(ch == DC or int(ch) == (i >> (n - 1 - j)) & 1 for j, ch in enumerate(cube))
    )


def rank(cube):
    return tuple("10-".index(ch) for ch in cube)


def literals(cube):
    return sum(ch != DC for ch in cube)


def brute_primes(spec):
    on = {i for i, v in enumerate(spec.outputs) if v == 1}
    allowed = {i for i, v in enumerate(spec.outputs) if v != 0}
    cubes = map("".join, itertools.product("10-", repeat=spec.n_vars))
    implicants = {c for c in cubes if rows_of(c) <= allowed}
    primes = [
        c for c in implicants
        if not any(
            c[:j] + DC + c[j + 1:] in implicants
            for j, ch in enumerate(c) if ch != DC
        )
    ]
    return tuple(sorted((c for c in primes if rows_of(c) & on), key=rank))


def brute_min_cover(spec):
    """Smallest prime subset covering the on-set under (terms, literals,
    rank keys of the sorted cubes)."""
    on = frozenset(i for i, v in enumerate(spec.outputs) if v == 1)
    if not on:
        return ()
    primes = brute_primes(spec)
    for r in range(1, len(primes) + 1):
        covers = [
            tuple(sorted(subset, key=rank))
            for subset in itertools.combinations(primes, r)
            if on <= frozenset().union(*map(rows_of, subset))
        ]
        if covers:
            return min(
                covers,
                key=lambda c: (sum(map(literals, c)), tuple(map(rank, c))),
            )
    raise AssertionError("the primes cover no on-set")


def tables(max_vars):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_vars))
        outputs = draw(
            st.lists(st.sampled_from((0, 1, DC)), min_size=2 ** n, max_size=2 ** n)
        )
        return TruthTableSpec(default_names(n), tuple(outputs))

    return build()


@settings(max_examples=80, deadline=None)
@given(tables(6))
def test_prime_implicants_match_the_definition(spec):
    assert prime_implicants(spec) == brute_primes(spec)


@settings(max_examples=150, deadline=None)
@given(tables(4))
def test_minimize_exact_is_the_brute_force_minimum(spec):
    assert minimize_exact(spec).cubes == brute_min_cover(spec)


@settings(max_examples=150, deadline=None)
@given(tables(6))
def test_spec_masks_are_the_on_and_dc_rows(spec):
    assert spec.on == sum(1 << i for i, v in enumerate(spec.outputs) if v == 1)
    assert spec.dc == sum(1 << i for i, v in enumerate(spec.outputs) if v == DC)
    twin = TruthTableSpec(spec.names, tuple(list(spec.outputs)))
    assert twin == spec and hash(twin) == hash(spec)
    assert repr(twin) == f"TruthTableSpec(names={spec.names!r}, outputs={spec.outputs!r})"


def test_spec_masks_are_not_constructor_arguments():
    with pytest.raises(TypeError):
        TruthTableSpec(("a",), (0, 1), 2, 0)


def equiv_by_rows(e, spec):
    """check_equiv's reference: e's value on every row that is not a don't
    care, one row at a time."""
    return e.n_vars == spec.n_vars and all(
        e.evaluate(spec.row_bits(i)) == want
        for i, want in enumerate(spec.outputs)
        if want != DC
    )


def covers(a, b):
    return all(x == DC or x == y for x, y in zip(a, b))


@st.composite
def cube_lists(draw, n):
    """Random cubes, each dropped when it covers, or lies in, one already kept."""
    kept = []
    for cube in draw(st.lists(st.text("01-", min_size=n, max_size=n), max_size=6)):
        if not any(covers(cube, k) or covers(k, cube) for k in kept):
            kept.append(cube)
    return tuple(kept)


@settings(max_examples=300, deadline=None)
@given(tables(6), st.data())
def test_check_equiv_matches_a_per_row_reference(spec, data):
    n = spec.n_vars
    # Petrick can take seconds on a dense 6-variable table
    if n <= 5 and data.draw(st.booleans(), label="minimized"):
        e = minimize_exact(spec)
        assert check_equiv(e, spec)
        # the same cover against the table with one row flipped: a near miss
        # whenever that row is not a don't care
        row = data.draw(st.integers(0, 2 ** n - 1), label="row")
        flipped = list(spec.outputs)
        flipped[row] = {0: 1, 1: 0, DC: DC}[flipped[row]]
        near = TruthTableSpec(spec.names, tuple(flipped))
        assert check_equiv(e, near) == (spec.outputs[row] == DC)
        assert equiv_by_rows(e, near) == check_equiv(e, near)
    else:
        e = SopExpr(n, data.draw(cube_lists(n), label="cubes"))
    assert check_equiv(e, spec) == equiv_by_rows(e, spec)


def reference_parse(n, rows):
    """Rows are (input cube, output char) on lines 3, 4, ...; returns the
    outputs, or the text of the first conflict row by row."""
    assigned = {}
    for lineno, (cube, out) in enumerate(rows, start=3):
        value = DC if out == DC else int(out)
        for i in range(2 ** n):
            if i not in rows_of(cube):
                continue
            if i in assigned and assigned[i][0] != value:
                return f"line {lineno}: row {i} conflicts with line {assigned[i][1]}"
            assigned[i] = (value, lineno)
    return tuple(assigned.get(i, (0,))[0] for i in range(2 ** n))


@st.composite
def pla_rows(draw):
    n = draw(st.integers(1, 6))
    cube = st.text(alphabet="01-", min_size=n, max_size=n)
    rows = draw(st.lists(st.tuples(cube, st.sampled_from("01-")), max_size=8))
    return n, rows


@settings(max_examples=200, deadline=None)
@given(pla_rows())
def test_parse_pla_matches_a_per_row_reader(case):
    n, rows = case
    text = f".i {n}\n.o 1\n" + "".join(f"{c} {o}\n" for c, o in rows) + ".e\n"
    want = reference_parse(n, rows)
    if isinstance(want, str):
        with pytest.raises(ParseError) as err:
            parse_pla(text)
        assert str(err.value) == want
    else:
        assert parse_pla(text).outputs == want


def pinned_specs():
    rng = random.Random(20261018)
    for k in range(60):
        n = 5 + k % 2
        outputs = tuple(
            1 if r < 0.2 else DC if r < 0.25 else 0
            for r in (rng.random() for _ in range(2 ** n))
        )
        yield TruthTableSpec(default_names(n), outputs)


def test_sparse_5_and_6_variable_covers_are_pinned():
    # recorded from the string-cube minimizer that the mask code replaced;
    # the digest fixes the cube order and the tie-breaks where brute force is
    # too slow
    digest = hashlib.sha256()
    for spec in pinned_specs():
        best = minimize_exact(spec)
        rep = recognize_xor(best, spec.names)
        line = f"{render_sop(best, spec.names)}|{rep.rendered}|{rep.gates_2in}|{rep.form}\n"
        digest.update(line.encode())
    assert digest.hexdigest() == (
        "394408f6b91cdd3e88096f0e0adfdcebd927de7c861a1afac2e72059b940d5e5"
    )
