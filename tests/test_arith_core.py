"""Reference-table oracles: published values, algebraic laws, the 2-bit encoding."""

import itertools
import pickle
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvq.arith_core import (
    BitPair,
    OpKind,
    apply_op,
    decode_b2q,
    encode_q2b,
    gf4_add,
    gf4_mul,
    gf4_mul_poly,
    mod4_add,
    mod4_double,
    mod4_mul,
    mod4_neg,
    mod4_sub,
)

QUATS = (0, 1, 2, 3)
PAIRS = tuple(itertools.product(QUATS, QUATS))
quat = st.integers(min_value=0, max_value=3)


@pytest.mark.parametrize(
    "a,b,expected",
    [(2, 3, 1), (3, 3, 2), (0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 3, 3)],
)
def test_mod4_add_reference_values(a, b, expected):
    assert mod4_add(a, b) == expected


@pytest.mark.parametrize(
    "a,b,expected",
    [(3, 3, 1), (2, 3, 2), (0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)],
)
def test_mod4_mul_reference_values(a, b, expected):
    assert mod4_mul(a, b) == expected


@pytest.mark.parametrize(
    "a,b,expected",
    [(2, 3, 3), (1, 2, 3), (0, 0, 0), (1, 0, 1), (2, 0, 2), (3, 0, 3)],
)
def test_mod4_sub_reference_values(a, b, expected):
    assert mod4_sub(a, b) == expected


def test_mod4_unary_reference_values():
    assert mod4_neg(1) == 3
    assert mod4_neg(0) == 0
    assert mod4_neg(2) == 2
    assert mod4_double(1) == 2
    assert mod4_double(0) == 0
    assert mod4_double(3) == 2


@pytest.mark.parametrize("a,b,expected", [(2, 3, 1), (1, 2, 3), (0, 0, 0)])
def test_gf4_add_reference_values(a, b, expected):
    assert gf4_add(a, b) == expected


def test_gf4_add_self_inverse():
    for q in QUATS:
        assert gf4_add(q, q) == 0


@pytest.mark.parametrize("a,b,expected", [(2, 2, 3), (3, 3, 2), (2, 3, 1)])
def test_gf4_mul_reference_values(a, b, expected):
    assert gf4_mul(a, b) == expected


def test_gf4_mul_identity_row():
    for q in QUATS:
        assert gf4_mul(1, q) == q
        assert gf4_mul(q, 1) == q


def test_gf4_mul_row_sequences():
    assert tuple(gf4_mul(2, y) for y in QUATS) == (0, 2, 3, 1)
    assert tuple(gf4_mul(3, y) for y in QUATS) == (0, 3, 1, 2)


@pytest.mark.parametrize("a,b,expected", [(2, 2, 3), (2, 3, 1), (0, 0, 0), (0, 3, 0)])
def test_gf4_mul_poly_reference_values(a, b, expected):
    assert gf4_mul_poly(a, b) == expected


def test_gf4_mul_poly_matches_table_everywhere():
    for a, b in PAIRS:
        assert gf4_mul_poly(a, b) == gf4_mul(a, b)


@pytest.mark.parametrize("q,pair", [(0, (0, 0)), (1, (0, 1)), (2, (1, 0)), (3, (1, 1))])
def test_natural_encoding(q, pair):
    assert encode_q2b(q) == BitPair(*pair)
    assert decode_b2q(pair) == q


@given(quat)
def test_encoding_round_trip(q):
    assert decode_b2q(encode_q2b(q)) == q


def test_mod4_tables_match_integer_arithmetic():
    # independent derivation of the frozen tables
    for a, b in PAIRS:
        assert mod4_add(a, b) == (a + b) % 4
        assert mod4_sub(a, b) == (a - b) % 4
        assert mod4_mul(a, b) == (a * b) % 4
    for a in QUATS:
        assert mod4_neg(a) == (4 - a) % 4
        assert mod4_double(a) == (2 * a) % 4


def test_gf4_add_is_bitwise_xor():
    for a, b in PAIRS:
        assert gf4_add(a, b) == a ^ b


@given(st.integers(), st.integers())
def test_mod4_add_wraps_like_integers(a, b):
    assert mod4_add(a % 4, b % 4) == (a + b) % 4


def test_mod4_ring_axioms_exhaustive():
    for a, b, c in itertools.product(QUATS, repeat=3):
        assert mod4_add(mod4_add(a, b), c) == mod4_add(a, mod4_add(b, c))
        assert mod4_mul(mod4_mul(a, b), c) == mod4_mul(a, mod4_mul(b, c))
        assert mod4_mul(a, mod4_add(b, c)) == mod4_add(mod4_mul(a, b), mod4_mul(a, c))
    for a, b in PAIRS:
        assert mod4_add(a, b) == mod4_add(b, a)
        assert mod4_mul(a, b) == mod4_mul(b, a)


def test_mod4_derived_operation_identities():
    for a in QUATS:
        assert mod4_neg(a) == mod4_sub(0, a) == mod4_mul(3, a)
        assert mod4_double(a) == mod4_add(a, a) == mod4_mul(2, a)
    for a, b in PAIRS:
        assert mod4_sub(a, b) == mod4_add(a, mod4_neg(b))


def test_gf4_field_axioms_exhaustive():
    for a, b, c in itertools.product(QUATS, repeat=3):
        assert gf4_add(gf4_add(a, b), c) == gf4_add(a, gf4_add(b, c))
        assert gf4_mul(gf4_mul(a, b), c) == gf4_mul(a, gf4_mul(b, c))
        assert gf4_mul(a, gf4_add(b, c)) == gf4_add(gf4_mul(a, b), gf4_mul(a, c))
    for a, b in PAIRS:
        assert gf4_add(a, b) == gf4_add(b, a)
        assert gf4_mul(a, b) == gf4_mul(b, a)
    for a in (1, 2, 3):
        inverses = [b for b in QUATS if gf4_mul(a, b) == 1]
        assert len(inverses) == 1
    for a in QUATS:
        assert gf4_add(a, a) == 0


def test_apply_op_matches_named_functions():
    for a, b in PAIRS:
        assert apply_op(OpKind.MOD4_ADD, a, b) == mod4_add(a, b)
        assert apply_op(OpKind.GF4_MUL, a, b) == gf4_mul(a, b)
    for a in QUATS:
        assert apply_op(OpKind.MOD4_NEG, a) == mod4_neg(a)
        assert apply_op(OpKind.MOD4_NEG, a, 3) == mod4_neg(a)
        assert apply_op(OpKind.MOD4_DOUBLE, a) == mod4_double(a)


def test_op_arity():
    assert OpKind.MOD4_NEG.arity == 1
    assert OpKind.MOD4_DOUBLE.arity == 1
    for kind in OpKind:
        if kind not in (OpKind.MOD4_NEG, OpKind.MOD4_DOUBLE):
            assert kind.arity == 2


def test_op_kinds_behave_as_plain_enum_values():
    assert [kind.value for kind in OpKind] == [
        "mod4-add", "mod4-sub", "mod4-mul", "mod4-neg", "mod4-dbl", "gf4-add", "gf4-mul"
    ]
    for kind in OpKind:
        assert OpKind(kind.value) is kind
        assert repr(kind) == f"<OpKind.{kind.name}: {kind.value!r}>"
        assert pickle.loads(pickle.dumps(kind)) is kind
    with pytest.raises(ValueError):
        OpKind(2)


def test_domain_errors():
    with pytest.raises(ValueError):
        mod4_add(4, 0)
    with pytest.raises(ValueError):
        mod4_add(0, -1)
    with pytest.raises(ValueError):
        encode_q2b(5)
    with pytest.raises(ValueError):
        decode_b2q((2, 0))
    with pytest.raises(ValueError):
        apply_op(OpKind.GF4_ADD, 1)


def test_arith_core_imports_nothing_from_the_netlist_layer():
    # the oracle tables must never be computed by the code they check
    layer = ["mvq.netlist", "mvq.sim", "mvq.circuits", "mvq.minimizer", "mvq.cli"]
    code = f"import sys, mvq.arith_core; print([m for m in {layer!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
