"""Quaternary (radix-4) logic toolkit.

Reference arithmetic tables for the mod-4 ring and the four-element
Galois field, a typed gate-level netlist IR with builders for the full
circuit catalog, an exact two-level minimizer, and a sweep simulator
with CSV/VCD export. The `mvq` command line fronts all of it.
"""

from .arith_core import (
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

__all__ = [
    "BitPair",
    "OpKind",
    "apply_op",
    "decode_b2q",
    "encode_q2b",
    "gf4_add",
    "gf4_mul",
    "gf4_mul_poly",
    "mod4_add",
    "mod4_double",
    "mod4_mul",
    "mod4_neg",
    "mod4_sub",
]
