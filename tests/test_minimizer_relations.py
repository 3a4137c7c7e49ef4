"""Metamorphic relations of the exact minimizer, which need no reference.

Renaming the variables (a permutation and a complement of some of them)
keeps the minimum cost (terms, literals), though the chosen cubes may
differ with the rank tie-break. Turning an on-set or an off-set row into a
don't care never raises it. Every result covers the on-set, stays inside
on | dc, and is a sum of the table's prime implicants. Fixed-seed tables of
2-5 variables.
"""

import random

import pytest

from mvq.minimizer import DC, TruthTableSpec, default_names, minimize_exact, prime_implicants

SEED = 20261021


def _tables(count=600):
    rng = random.Random(SEED)
    for k in range(count):
        n = 2 + k % 4
        on, dc = rng.choice(((0.2, 0.1), (0.4, 0.2), (0.5, 0.0), (0.6, 0.3)))
        outputs = tuple(
            1 if r < on else DC if r < on + dc else 0
            for r in (rng.random() for _ in range(2 ** n))
        )
        yield TruthTableSpec(default_names(n), outputs)


TABLES = list(_tables())


def _cost(spec):
    e = minimize_exact(spec)
    _check_result(spec, e)
    return e.term_count, e.literal_count


def _check_result(spec, e):
    """e covers the on-set, lies inside on | dc, and is made of primes."""
    for row, want in enumerate(spec.outputs):
        got = e.evaluate(spec.row_bits(row))
        assert got == want or want == DC, (spec, e, row)
    assert set(e.cubes) <= set(prime_implicants(spec)), (spec, e)


def _renamed(spec, perm, flips):
    """The table over variables where variable i reads variable perm[i] of
    spec, complemented where bit perm[i] of flips is set."""
    n = spec.n_vars
    outputs = []
    for row in range(2 ** n):
        bits = spec.row_bits(row)
        old = [0] * n
        for i, j in enumerate(perm):
            old[j] = bits[i] ^ (flips >> j & 1)
        outputs.append(spec.outputs[int("".join(map(str, old)), 2)])
    return TruthTableSpec(spec.names, tuple(outputs))


def _with_row(spec, value, rng):
    """spec with one random row of output value turned into a don't care,
    or None if it has no such row."""
    rows = [r for r, v in enumerate(spec.outputs) if v == value]
    if not rows:
        return None
    row = rng.choice(rows)
    return TruthTableSpec(spec.names, spec.outputs[:row] + (DC,) + spec.outputs[row + 1 :])


@pytest.mark.parametrize("start", range(0, len(TABLES), 150))
def test_renaming_the_variables_keeps_the_cost(start):
    rng, moved = random.Random(start), 0
    for spec in TABLES[start : start + 150]:
        n = spec.n_vars
        cost = _cost(spec)
        for _ in range(2):
            perm = rng.sample(range(n), n)
            renamed = _renamed(spec, perm, rng.randrange(2 ** n))
            assert _cost(renamed) == cost, (spec, perm)
            moved += renamed != spec
    assert moved > 150  # most renamings give another table


@pytest.mark.parametrize("value", [1, 0])
def test_a_row_turned_dont_care_never_raises_the_cost(value):
    rng, checked = random.Random(value), 0
    for spec in TABLES:
        looser = _with_row(spec, value, rng)
        if looser is not None:
            assert _cost(looser) <= _cost(spec), (spec, looser)
            checked += 1
    assert checked > len(TABLES) // 2

