"""Gate-level builders for the quaternary arithmetic circuit catalog.

Every builder returns a validated Netlist and is checked exhaustively against
the reference tables in arith_core. Circuits operating on the 2-bit encoding expose
binary ports named x1,x2[,y1,y2] (msb first); fully quaternary circuits expose
x[,y] and q. The catalog covers both converter directions, the five mod-4
operations, GF(4) addition, and two structurally different GF(4) multipliers.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable

from .arith_core import OpKind, apply_op, decode_b2q, encode_q2b
from .netlist import GateKind, Metrics, Netlist, NetlistError, SignalType

_B = SignalType.BIN
_Q = SignalType.QUAT


class PortShapeMismatch(NetlistError):
    pass


# Published per-circuit transistor totals, kept as metadata with a note: they
# come from a different cost basis than DEFAULT_COST_TABLE and are reported,
# never asserted.
PUBLISHED_TRANSISTORS: dict[str, int] = {
    "mod4-add": 40,
    "mod4-mul": 24,
    "gf4-add": 24,
    "gf4-mul-mux": 72,
}

PUBLISHED_NOTE = (
    "published total for this design; uses a different cost basis than the "
    "per-gate table behind transistor_estimate"
)


def build_q2b() -> Netlist:
    """Quaternary-to-binary converter: three down literals plus a 2:1 mux.

    x1 = NOT(DLC2(q)); x2 = NOT(mux(sel=DLC2(q), a=DLC1(q), b=DLC3(q))).
    """
    n = Netlist([("q", _Q)], [("x1", _B), ("x2", _B)])
    qn = n.input_net("q")
    d1 = n.add_gate(GateKind.DLC1, [qn])
    d2 = n.add_gate(GateKind.DLC2, [qn])
    d3 = n.add_gate(GateKind.DLC3, [qn])
    n.connect_output("x1", n.add_gate(GateKind.NOT, [d2]))
    mux = n.add_gate(GateKind.BMUX2, [d2, d1, d3])
    n.connect_output("x2", n.add_gate(GateKind.NOT, [mux]))
    n.validate()
    return n


def build_b2q() -> Netlist:
    """Binary-to-quaternary converter as a behavioral primitive."""
    n = Netlist([("x1", _B), ("x2", _B)], [("q", _Q)])
    n.connect_output(
        "q", n.add_gate(GateKind.B2Q, [n.input_net("x1"), n.input_net("x2")])
    )
    n.validate()
    return n


def _binary_core(out_msb: str, out_lsb: str) -> tuple[Netlist, int, int, int, int]:
    n = Netlist(
        [("x1", _B), ("x2", _B), ("y1", _B), ("y2", _B)],
        [(out_msb, _B), (out_lsb, _B)],
    )
    return (n, n.input_net("x1"), n.input_net("x2"), n.input_net("y1"), n.input_net("y2"))


def build_mod4_adder() -> Netlist:
    # a1 = (x1 xor y1) xor (x2 y2); a2 = x2 xor y2
    n, x1, x2, y1, y2 = _binary_core("a1", "a2")
    t1 = n.add_gate(GateKind.XOR2, [x1, y1])
    t2 = n.add_gate(GateKind.AND2, [x2, y2])
    n.connect_output("a1", n.add_gate(GateKind.XOR2, [t1, t2]))
    n.connect_output("a2", n.add_gate(GateKind.XOR2, [x2, y2]))
    n.validate()
    return n


def build_mod4_subtractor() -> Netlist:
    # s1 = (x1 xor y1) xor (x2' y2); s2 = x2 xor y2
    n, x1, x2, y1, y2 = _binary_core("s1", "s2")
    t1 = n.add_gate(GateKind.XOR2, [x1, y1])
    t2 = n.add_gate(GateKind.ANDN2, [x2, y2])
    n.connect_output("s1", n.add_gate(GateKind.XOR2, [t1, t2]))
    n.connect_output("s2", n.add_gate(GateKind.XOR2, [x2, y2]))
    n.validate()
    return n


def build_mod4_multiplier() -> Netlist:
    # m1 = (x1 y2) xor (x2 y1); m2 = x2 y2
    n, x1, x2, y1, y2 = _binary_core("m1", "m2")
    t1 = n.add_gate(GateKind.AND2, [x1, y2])
    t2 = n.add_gate(GateKind.AND2, [x2, y1])
    n.connect_output("m1", n.add_gate(GateKind.XOR2, [t1, t2]))
    n.connect_output("m2", n.add_gate(GateKind.AND2, [x2, y2]))
    n.validate()
    return n


def build_mod4_negator() -> Netlist:
    # n1 = x1 xor x2; n2 = x2 (wire)
    n = Netlist([("x1", _B), ("x2", _B)], [("n1", _B), ("n2", _B)])
    n.connect_output(
        "n1", n.add_gate(GateKind.XOR2, [n.input_net("x1"), n.input_net("x2")])
    )
    n.connect_output("n2", n.input_net("x2"))
    n.validate()
    return n


def build_mod4_doubler() -> Netlist:
    # d1 = x2 (wire); d2 = 0 (constant); zero counted gates
    n = Netlist([("x1", _B), ("x2", _B)], [("d1", _B), ("d2", _B)])
    n.connect_output("d1", n.input_net("x2"))
    n.connect_output("d2", n.add_gate(GateKind.CONST0))
    n.validate()
    return n


def build_gf4_adder() -> Netlist:
    # carry-free: a1 = x1 xor y1; a2 = x2 xor y2
    n, x1, x2, y1, y2 = _binary_core("a1", "a2")
    n.connect_output("a1", n.add_gate(GateKind.XOR2, [x1, y1]))
    n.connect_output("a2", n.add_gate(GateKind.XOR2, [x2, y2]))
    n.validate()
    return n


def build_gf4_mul_sop() -> Netlist:
    """GF(4) multiplier, two-level form with explicit inverters.

    m1 = x1 y1' y2 + x1 x2' y1 y2' + x1' x2 y1 + x2 y1 y2
    m2 = (x1 y1) xor (x2 y2)
    """
    n, x1, x2, y1, y2 = _binary_core("m1", "m2")
    nx1 = n.add_gate(GateKind.NOT, [x1])
    nx2 = n.add_gate(GateKind.NOT, [x2])
    ny1 = n.add_gate(GateKind.NOT, [y1])
    ny2 = n.add_gate(GateKind.NOT, [y2])
    t1 = n.add_gate(GateKind.AND3, [x1, ny1, y2])
    t2 = n.add_gate(GateKind.AND4, [x1, nx2, y1, ny2])
    t3 = n.add_gate(GateKind.AND3, [nx1, x2, y1])
    t4 = n.add_gate(GateKind.AND3, [x2, y1, y2])
    n.connect_output("m1", n.add_gate(GateKind.OR4, [t1, t2, t3, t4]))
    p1 = n.add_gate(GateKind.AND2, [x1, y1])
    p2 = n.add_gate(GateKind.AND2, [x2, y2])
    n.connect_output("m2", n.add_gate(GateKind.XOR2, [p1, p2]))
    n.validate()
    return n


def build_gf4_mul_mux() -> Netlist:
    """GF(4) multiplier from three quaternary multiplexers, no converters.

    The main mux selects on x: level 0 passes ground, level 1 passes y, and
    levels 2 and 3 pass the sub-mux outputs, which permute y to the product
    rows (0,2,3,1) and (0,3,1,2).
    """
    n = Netlist([("x", _Q), ("y", _Q)], [("q", _Q)])
    xn, yn = n.input_net("x"), n.input_net("y")
    k = [n.add_gate(GateKind.QCONST, level=lvl) for lvl in range(4)]
    sub_a = n.add_gate(GateKind.QMUX4, [yn, k[0], k[2], k[3], k[1]])
    sub_b = n.add_gate(GateKind.QMUX4, [yn, k[0], k[3], k[1], k[2]])
    n.connect_output("q", n.add_gate(GateKind.QMUX4, [xn, k[0], yn, sub_a, sub_b]))
    n.validate()
    return n


def _splice(dst: Netlist, src: Netlist, seed: dict[int, int]) -> dict[int, int]:
    """Copy src's gates into dst; seed maps src input nets to dst nets.
    Returns the full src-net to dst-net map."""
    net_map = dict(seed)
    for g in src.topo_gates():
        net_map[g.output] = dst.add_gate(
            g.kind, [net_map[n] for n in g.inputs], level=g.level
        )
    return net_map


def compose_with_converters(core: Netlist) -> Netlist:
    """Wrap a 2-bit-encoded core with a q2b converter per quaternary operand
    and a b2q converter on the result, giving ports x[,y] -> q."""
    in_names = [name for name, _ in core.input_ports]
    if any(sig is not _B for _, sig in core.input_ports):
        raise PortShapeMismatch("core inputs must be binary")
    if in_names == ["x1", "x2"]:
        operands = [("x", ("x1", "x2"))]
    elif in_names == ["x1", "x2", "y1", "y2"]:
        operands = [("x", ("x1", "x2")), ("y", ("y1", "y2"))]
    else:
        raise PortShapeMismatch(f"unexpected input ports {in_names}")
    outs = core.output_ports
    if len(outs) != 2 or any(sig is not _B for _, sig in outs):
        raise PortShapeMismatch("core must drive exactly two binary outputs")
    core.validate()

    wrapped = Netlist([(name, _Q) for name, _ in operands], [("q", _Q)])
    conv = build_q2b()
    bit_nets: dict[str, int] = {}
    for name, (msb, lsb) in operands:
        m = _splice(wrapped, conv, {conv.input_net("q"): wrapped.input_net(name)})
        bit_nets[msb] = m[conv.output_net("x1")]
        bit_nets[lsb] = m[conv.output_net("x2")]
    m = _splice(
        wrapped, core, {core.input_net(p): bit_nets[p] for p in in_names}
    )
    msb_name, lsb_name = outs[0][0], outs[1][0]
    result = wrapped.add_gate(
        GateKind.B2Q, [m[core.output_net(msb_name)], m[core.output_net(lsb_name)]]
    )
    wrapped.connect_output("q", result)
    wrapped.validate()
    return wrapped


@dataclass(frozen=True)
class CircuitInfo:
    cid: str
    title: str
    build: Callable[[], Netlist]
    op: OpKind | None
    published_transistors: int | None = None


REGISTRY: dict[str, CircuitInfo] = {
    info.cid: info
    for info in (
        CircuitInfo("q2b", "quaternary-to-binary converter", build_q2b, None),
        CircuitInfo("b2q", "binary-to-quaternary converter", build_b2q, None),
        CircuitInfo(
            "mod4-add", "mod-4 adder", build_mod4_adder,
            OpKind.MOD4_ADD, PUBLISHED_TRANSISTORS["mod4-add"],
        ),
        CircuitInfo(
            "mod4-sub", "mod-4 subtractor", build_mod4_subtractor,
            OpKind.MOD4_SUB,
        ),
        CircuitInfo(
            "mod4-mul", "mod-4 multiplier", build_mod4_multiplier,
            OpKind.MOD4_MUL, PUBLISHED_TRANSISTORS["mod4-mul"],
        ),
        CircuitInfo(
            "mod4-neg", "mod-4 negator", build_mod4_negator,
            OpKind.MOD4_NEG,
        ),
        CircuitInfo(
            "mod4-dbl", "mod-4 doubler", build_mod4_doubler,
            OpKind.MOD4_DOUBLE,
        ),
        CircuitInfo(
            "gf4-add", "GF(4) adder", build_gf4_adder,
            OpKind.GF4_ADD, PUBLISHED_TRANSISTORS["gf4-add"],
        ),
        CircuitInfo(
            "gf4-mul-sop", "GF(4) multiplier, two-level form", build_gf4_mul_sop,
            OpKind.GF4_MUL,
        ),
        CircuitInfo(
            "gf4-mul-mux", "GF(4) multiplier, quaternary mux form",
            build_gf4_mul_mux, OpKind.GF4_MUL,
            PUBLISHED_TRANSISTORS["gf4-mul-mux"],
        ),
    )
}

CIRCUIT_IDS: tuple[str, ...] = tuple(REGISTRY)


def get_info(cid: str) -> CircuitInfo:
    if cid not in REGISTRY:
        raise KeyError(f"unknown circuit {cid!r}; known: {', '.join(CIRCUIT_IDS)}")
    return REGISTRY[cid]


@dataclass(frozen=True)
class VerifyResult:
    cid: str
    ok: bool
    vectors: int
    counterexample: str | None = None


# the converters' references, in their own port terms
_CONVERTER_REFS: dict[str, Callable[..., object]] = {
    "q2b": lambda q: tuple(encode_q2b(q)),
    "b2q": lambda x1, x2: decode_b2q((x1, x2)),
}


def _port_terms(
    ports: tuple[tuple[str, SignalType], ...], levels: tuple[int, ...]
) -> list[tuple[str, int]]:
    return [(name, lv) for (name, _), lv in zip(ports, levels)]


def _quat_terms(
    ports: tuple[tuple[str, SignalType], ...], levels: tuple[int, ...]
) -> list[tuple[str, int]]:
    """Quaternary values of a row: a quaternary port as is, each msb/lsb pair
    of binary ports (x1, x2) decoded as one value (x)."""
    terms = []
    i = 0
    while i < len(ports):
        name, sig = ports[i]
        if sig is _Q:
            terms.append((name, levels[i]))
            i += 1
        else:
            terms.append((name[:-1], decode_b2q((levels[i], levels[i + 1]))))
            i += 2
    return terms


def _verify_netlist(info: CircuitInfo, nl: Netlist) -> VerifyResult:
    """Compare the netlist's truth table with the reference row by row. The
    converters are read in port terms; the operation circuits in quaternary
    terms, against apply_op."""
    if info.op is None:
        ref, terms = _CONVERTER_REFS[info.cid], _port_terms
    else:
        ref, terms = functools.partial(apply_op, info.op), _quat_terms
    tt = nl.truth_table()
    for ins, outs in tt.rows:
        args = terms(tt.inputs, ins)
        got_terms = [lv for _, lv in terms(tt.outputs, outs)]
        got = got_terms[0] if len(got_terms) == 1 else tuple(got_terms)
        want = ref(*(lv for _, lv in args))
        if got != want:
            where = " ".join(f"{name}={lv}" for name, lv in args)
            return VerifyResult(
                info.cid, False, len(tt.rows), f"{where}: got {got}, want {want}"
            )
    return VerifyResult(info.cid, True, len(tt.rows))


def verify(cid: str) -> VerifyResult:
    """Sweep the builder's netlist against its reference table."""
    info = get_info(cid)
    return _verify_netlist(info, info.build())


def verify_all() -> tuple[VerifyResult, ...]:
    return tuple(verify(cid) for cid in CIRCUIT_IDS)


def quat_view(cid: str) -> Netlist:
    """The circuit with a fully quaternary interface: converter-wrapped for
    operation circuits with binary (2-bit encoded) inputs, the bare netlist
    otherwise."""
    info = get_info(cid)
    nl = info.build()
    if info.op is not None and all(sig is _B for _, sig in nl.input_ports):
        return compose_with_converters(nl)
    return nl


def circuit_metrics(cid: str, costs=None) -> Metrics:
    """Metrics for the circuit as built, with published totals attached."""
    info = get_info(cid)
    m = info.build().metrics(costs)
    if info.published_transistors is not None:
        m = dataclasses.replace(
            m,
            published_transistors=info.published_transistors,
            published_note=PUBLISHED_NOTE,
        )
    return m
