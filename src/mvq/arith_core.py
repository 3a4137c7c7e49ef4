"""Ground-truth quaternary arithmetic.

Value tables for the mod-4 ring and the four-element Galois field, and the
natural 2-bit encoding. Everything here is table- or definition-driven and
shares no code with the gate-level models, so these functions can serve as
independent oracles when checking netlists and the published bit forms.
"""

from enum import Enum
from typing import NamedTuple


class BitPair(NamedTuple):
    """Natural binary encoding of a quaternary level: value = 2*x1 + x2."""

    x1: int  # msb
    x2: int  # lsb


class OpKind(Enum):
    """Dispatch key over the seven quaternary operations: one row per
    operation, its name (the value) and its arity."""

    arity: int

    def __new__(cls, value, arity):
        kind = object.__new__(cls)
        kind._value_, kind.arity = value, arity
        return kind

    MOD4_ADD = "mod4-add", 2
    MOD4_SUB = "mod4-sub", 2
    MOD4_MUL = "mod4-mul", 2
    MOD4_NEG = "mod4-neg", 1
    MOD4_DOUBLE = "mod4-dbl", 1
    GF4_ADD = "gf4-add", 2
    GF4_MUL = "gf4-mul", 2


# Reference tables, row = first operand, column = second operand.
MOD4_ADD_TABLE = (
    (0, 1, 2, 3),
    (1, 2, 3, 0),
    (2, 3, 0, 1),
    (3, 0, 1, 2),
)
MOD4_MUL_TABLE = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 0, 2),
    (0, 3, 2, 1),
)
MOD4_SUB_TABLE = (  # row minus column
    (0, 3, 2, 1),
    (1, 0, 3, 2),
    (2, 1, 0, 3),
    (3, 2, 1, 0),
)
MOD4_NEG_TABLE = (0, 3, 2, 1)
MOD4_DOUBLE_TABLE = (0, 2, 0, 2)
GF4_ADD_TABLE = (
    (0, 1, 2, 3),
    (1, 0, 3, 2),
    (2, 3, 0, 1),
    (3, 2, 1, 0),
)
GF4_MUL_TABLE = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


def _check_quat(q: int, name: str = "value") -> int:
    if not isinstance(q, int) or isinstance(q, bool) or not 0 <= q <= 3:
        raise ValueError(f"{name} must be a quaternary level 0..3, got {q!r}")
    return q


def _check_bit(b: int, name: str = "bit") -> int:
    if b not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {b!r}")
    return b


def mod4_add(a: int, b: int) -> int:
    return MOD4_ADD_TABLE[_check_quat(a, "a")][_check_quat(b, "b")]


def mod4_sub(a: int, b: int) -> int:
    """a minus b, wrapped at 4; NOT commutative."""
    return MOD4_SUB_TABLE[_check_quat(a, "a")][_check_quat(b, "b")]


def mod4_mul(a: int, b: int) -> int:
    return MOD4_MUL_TABLE[_check_quat(a, "a")][_check_quat(b, "b")]


def mod4_neg(a: int) -> int:
    """Additive inverse; equals multiplication by the constant 3."""
    return MOD4_NEG_TABLE[_check_quat(a, "a")]


def mod4_double(a: int) -> int:
    """Multiplication by the constant 2."""
    return MOD4_DOUBLE_TABLE[_check_quat(a, "a")]


def gf4_add(a: int, b: int) -> int:
    return GF4_ADD_TABLE[_check_quat(a, "a")][_check_quat(b, "b")]


def gf4_mul(a: int, b: int) -> int:
    return GF4_MUL_TABLE[_check_quat(a, "a")][_check_quat(b, "b")]


def gf4_mul_poly(a: int, b: int) -> int:
    """Field product computed algebraically rather than by table lookup.

    Encodings are read as GF(2) polynomials x1*t + x2; the product is
    reduced modulo t^2 + t + 1, the unique irreducible quadratic over
    GF(2). Must agree with gf4_mul on all 16 input pairs.
    """
    _check_quat(a, "a")
    _check_quat(b, "b")
    prod = (a if b & 1 else 0) ^ ((a << 1) if b & 2 else 0)
    if prod & 0b100:  # t^2 == t + 1
        prod = (prod ^ 0b100) ^ 0b011
    return prod


def encode_q2b(q: int) -> BitPair:
    """Quaternary level to its natural (msb, lsb) bit pair."""
    _check_quat(q, "q")
    return BitPair(q >> 1, q & 1)


def decode_b2q(p: BitPair | tuple[int, int]) -> int:
    """Exact inverse of encode_q2b."""
    x1, x2 = p
    return 2 * _check_bit(x1, "x1") + _check_bit(x2, "x2")


_BINARY_OPS = {
    OpKind.MOD4_ADD: mod4_add,
    OpKind.MOD4_SUB: mod4_sub,
    OpKind.MOD4_MUL: mod4_mul,
    OpKind.GF4_ADD: gf4_add,
    OpKind.GF4_MUL: gf4_mul,
}


def apply_op(kind: OpKind, a: int, b: int | None = None) -> int:
    """Table-oracle dispatch; b is ignored for unary kinds."""
    if kind is OpKind.MOD4_NEG:
        return mod4_neg(a)
    if kind is OpKind.MOD4_DOUBLE:
        return mod4_double(a)
    if b is None:
        raise ValueError(f"{kind.value} needs a second operand")
    return _BINARY_OPS[kind](a, b)

