"""Gate-level builders for the quaternary arithmetic circuit catalog.

Every builder returns a validated Netlist and is checked exhaustively against
arith_core, each row read in quaternary terms (a binary msb/lsb pair through
decode_b2q): an operation circuit against apply_op, a converter as the
identity on 0..3. Circuits operating on the 2-bit encoding expose binary
ports named x1,x2[,y1,y2] (msb first); fully quaternary circuits expose x[,y]
and q. The catalog covers both converter directions, the five mod-4
operations, GF(4) addition, and two structurally different GF(4) multipliers.

The q2b converter and each operation's binary core are written once, as a
function that adds their gates to a given netlist on given nets and returns
their two output nets. A builder calls one of them on a netlist of its own
ports; quat_view calls the same functions on one quaternary netlist, a q2b per
operand feeding the core and a b2q gate combining its outputs, as in the
paper's Q->B, binary core, B->Q composition.

Every builder and `quat_view` returns a new netlist on each call, which the
caller may change. No netlist is kept: the CLI, `verify`, `verify_all` and
`circuit_metrics` read immutable values kept per circuit (`_kept`), each made
on first use from a netlist built for it and then dropped. They are the
truth tables of the circuit as built and of its quaternary view (`_table`),
the CSV, default-voltage CSV and VCD texts of the built circuit's sweep
(`_sim_texts`, rendered from one `sim.run` over `sweep_all`), `verify`'s
`VerifyResult`, read from the kept table, `circuit_metrics`' `Metrics` for
the default costs, and the texts `table` prints. A cost table's totals, like
a voltage map's texts, are computed on each call. The values kept for a
circuit serve only while `REGISTRY` still holds the entry they came from
(`is`): the next read after a replacement drops them, with the entry they
came from, and makes them anew."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, TypeVar

from .arith_core import OpKind, apply_op, decode_b2q
from .netlist import GateKind, Metrics, Netlist, SignalType, TruthTable

if TYPE_CHECKING:
    from .sim import VoltageMap

_B = SignalType.BIN
_Q = SignalType.QUAT
_T = TypeVar("_T")


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


def _connect(n: Netlist, nets: Iterable[int]) -> Netlist:
    """Drive n's output ports, in order, from nets; validate and return n."""
    for (name, _), net in zip(n.output_ports, nets):
        n.connect_output(name, net)
    n.validate()
    return n


def _q2b(n: Netlist, q: int) -> tuple[int, int]:
    """Quaternary-to-binary converter: three down literals plus a 2:1 mux.

    x1 = NOT(DLC2(q)); x2 = NOT(mux(sel=DLC2(q), a=DLC1(q), b=DLC3(q))).
    """
    d1 = n.add_gate(GateKind.DLC1, [q])
    d2 = n.add_gate(GateKind.DLC2, [q])
    d3 = n.add_gate(GateKind.DLC3, [q])
    x1 = n.add_gate(GateKind.NOT, [d2])
    return x1, n.add_gate(GateKind.NOT, [n.add_gate(GateKind.BMUX2, [d2, d1, d3])])


# The binary cores: each adds its gates to n, reading the operands' bit nets
# (msb first, x before y), and returns its (msb, lsb) output nets.


def _mod4_add(n: Netlist, x1: int, x2: int, y1: int, y2: int) -> tuple[int, int]:
    # a1 = (x1 xor y1) xor (x2 y2); a2 = x2 xor y2
    t1 = n.add_gate(GateKind.XOR2, [x1, y1])
    t2 = n.add_gate(GateKind.AND2, [x2, y2])
    return n.add_gate(GateKind.XOR2, [t1, t2]), n.add_gate(GateKind.XOR2, [x2, y2])


def _mod4_sub(n: Netlist, x1: int, x2: int, y1: int, y2: int) -> tuple[int, int]:
    # s1 = (x1 xor y1) xor (x2' y2); s2 = x2 xor y2
    t1 = n.add_gate(GateKind.XOR2, [x1, y1])
    t2 = n.add_gate(GateKind.ANDN2, [x2, y2])
    return n.add_gate(GateKind.XOR2, [t1, t2]), n.add_gate(GateKind.XOR2, [x2, y2])


def _mod4_mul(n: Netlist, x1: int, x2: int, y1: int, y2: int) -> tuple[int, int]:
    # m1 = (x1 y2) xor (x2 y1); m2 = x2 y2
    t1 = n.add_gate(GateKind.AND2, [x1, y2])
    t2 = n.add_gate(GateKind.AND2, [x2, y1])
    return n.add_gate(GateKind.XOR2, [t1, t2]), n.add_gate(GateKind.AND2, [x2, y2])


def _mod4_neg(n: Netlist, x1: int, x2: int) -> tuple[int, int]:
    # n1 = x1 xor x2; n2 = x2 (wire)
    return n.add_gate(GateKind.XOR2, [x1, x2]), x2


def _mod4_dbl(n: Netlist, x1: int, x2: int) -> tuple[int, int]:
    # d1 = x2 (wire); d2 = 0 (constant); zero counted gates
    return x2, n.add_gate(GateKind.CONST0)


def _gf4_add(n: Netlist, x1: int, x2: int, y1: int, y2: int) -> tuple[int, int]:
    # carry-free: a1 = x1 xor y1; a2 = x2 xor y2
    return n.add_gate(GateKind.XOR2, [x1, y1]), n.add_gate(GateKind.XOR2, [x2, y2])


def _gf4_mul_sop(n: Netlist, x1: int, x2: int, y1: int, y2: int) -> tuple[int, int]:
    """GF(4) multiplier, two-level form with explicit inverters.

    m1 = x1 y1' y2 + x1 x2' y1 y2' + x1' x2 y1 + x2 y1 y2
    m2 = (x1 y1) xor (x2 y2)
    """
    nx1 = n.add_gate(GateKind.NOT, [x1])
    nx2 = n.add_gate(GateKind.NOT, [x2])
    ny1 = n.add_gate(GateKind.NOT, [y1])
    ny2 = n.add_gate(GateKind.NOT, [y2])
    t1 = n.add_gate(GateKind.AND3, [x1, ny1, y2])
    t2 = n.add_gate(GateKind.AND4, [x1, nx2, y1, ny2])
    t3 = n.add_gate(GateKind.AND3, [nx1, x2, y1])
    t4 = n.add_gate(GateKind.AND3, [x2, y1, y2])
    m1 = n.add_gate(GateKind.OR4, [t1, t2, t3, t4])
    p1 = n.add_gate(GateKind.AND2, [x1, y1])
    p2 = n.add_gate(GateKind.AND2, [x2, y2])
    return m1, n.add_gate(GateKind.XOR2, [p1, p2])


# cid -> (core, output port names of the circuit as built)
_CORES: dict[str, tuple[Callable[..., tuple[int, int]], tuple[str, str]]] = {
    "mod4-add": (_mod4_add, ("a1", "a2")),
    "mod4-sub": (_mod4_sub, ("s1", "s2")),
    "mod4-mul": (_mod4_mul, ("m1", "m2")),
    "mod4-neg": (_mod4_neg, ("n1", "n2")),
    "mod4-dbl": (_mod4_dbl, ("d1", "d2")),
    "gf4-add": (_gf4_add, ("a1", "a2")),
    "gf4-mul-sop": (_gf4_mul_sop, ("m1", "m2")),
}


_BIT_PORTS = (("x1", _B), ("x2", _B), ("y1", _B), ("y2", _B))


def _core_netlist(cid: str) -> Netlist:
    """The circuit's binary core alone, on ports x1,x2[,y1,y2] (msb first)."""
    core, outs = _CORES[cid]
    ins = _BIT_PORTS[: 2 * REGISTRY[cid].op.arity]
    n = Netlist(ins, [(p, _B) for p in outs])
    return _connect(n, core(n, *range(len(ins))))  # input port i drives net i


def build_q2b() -> Netlist:
    """Quaternary-to-binary converter on its own ports."""
    n = Netlist([("q", _Q)], [("x1", _B), ("x2", _B)])
    return _connect(n, _q2b(n, n.input_net("q")))


def build_b2q() -> Netlist:
    """Binary-to-quaternary converter as a behavioral primitive."""
    n = Netlist([("x1", _B), ("x2", _B)], [("q", _Q)])
    x1, x2 = n.input_net("x1"), n.input_net("x2")
    return _connect(n, [n.add_gate(GateKind.B2Q, [x1, x2])])


def build_mod4_adder() -> Netlist:
    return _core_netlist("mod4-add")


def build_mod4_subtractor() -> Netlist:
    return _core_netlist("mod4-sub")


def build_mod4_multiplier() -> Netlist:
    return _core_netlist("mod4-mul")


def build_mod4_negator() -> Netlist:
    return _core_netlist("mod4-neg")


def build_mod4_doubler() -> Netlist:
    return _core_netlist("mod4-dbl")


def build_gf4_adder() -> Netlist:
    return _core_netlist("gf4-add")


def build_gf4_mul_sop() -> Netlist:
    return _core_netlist("gf4-mul-sop")


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
    return _connect(n, [n.add_gate(GateKind.QMUX4, [xn, k[0], yn, sub_a, sub_b])])


@dataclass(frozen=True)
class CircuitInfo:
    cid: str
    title: str
    build: Callable[[], Netlist]
    op: OpKind | None


REGISTRY: dict[str, CircuitInfo] = {
    info.cid: info
    for info in (
        CircuitInfo("q2b", "quaternary-to-binary converter", build_q2b, None),
        CircuitInfo("b2q", "binary-to-quaternary converter", build_b2q, None),
        CircuitInfo("mod4-add", "mod-4 adder", build_mod4_adder, OpKind.MOD4_ADD),
        CircuitInfo("mod4-sub", "mod-4 subtractor", build_mod4_subtractor, OpKind.MOD4_SUB),
        CircuitInfo("mod4-mul", "mod-4 multiplier", build_mod4_multiplier, OpKind.MOD4_MUL),
        CircuitInfo("mod4-neg", "mod-4 negator", build_mod4_negator, OpKind.MOD4_NEG),
        CircuitInfo("mod4-dbl", "mod-4 doubler", build_mod4_doubler, OpKind.MOD4_DOUBLE),
        CircuitInfo("gf4-add", "GF(4) adder", build_gf4_adder, OpKind.GF4_ADD),
        CircuitInfo(
            "gf4-mul-sop", "GF(4) multiplier, two-level form", build_gf4_mul_sop,
            OpKind.GF4_MUL,
        ),
        CircuitInfo(
            "gf4-mul-mux", "GF(4) multiplier, quaternary mux form",
            build_gf4_mul_mux, OpKind.GF4_MUL,
        ),
    )
}

CIRCUIT_IDS: tuple[str, ...] = tuple(REGISTRY)


def get_info(cid: str) -> CircuitInfo:
    if cid not in REGISTRY:
        raise KeyError(f"unknown circuit {cid!r}; known: {', '.join(CIRCUIT_IDS)}")
    return REGISTRY[cid]


class VerifyResult(NamedTuple):
    cid: str
    ok: bool
    vectors: int
    counterexample: str | None = None


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


def _verify_table(info: CircuitInfo, tt: TruthTable) -> VerifyResult:
    """Compare a truth table of the circuit with the reference row by row,
    inputs and outputs read in quaternary terms: an operation circuit against
    apply_op, a converter against the identity."""
    ref = (lambda q: q) if info.op is None else functools.partial(apply_op, info.op)
    for ins, outs in tt.rows:
        args = _quat_terms(tt.inputs, ins)
        [(_, got)] = _quat_terms(tt.outputs, outs)
        want = ref(*(lv for _, lv in args))
        if got != want:
            where = " ".join(f"{name}={lv}" for name, lv in args)
            return VerifyResult(
                info.cid, False, len(tt.rows), f"{where}: got {got}, want {want}"
            )
    return VerifyResult(info.cid, True, len(tt.rows))


# the values kept per catalog circuit: cid -> (the REGISTRY entry they came
# from, key -> value), each value immutable and made on first read
_KEPT: dict[str, tuple[CircuitInfo, dict]] = {}


def _kept(cid: str, key: object, make: Callable[[CircuitInfo], _T]) -> _T:
    """The circuit's value under key, made from its REGISTRY entry on first
    read. A replaced entry drops every value kept from the one before it."""
    info = get_info(cid)
    if cid not in _KEPT or _KEPT[cid][0] is not info:
        _KEPT[cid] = (info, {})
    values = _KEPT[cid][1]
    if key not in values:
        values[key] = make(info)
    return values[key]


def _table(cid: str, view: bool = False) -> TruthTable:
    """The truth table of the circuit as built or, with view, of its
    quaternary view, made once per REGISTRY entry."""
    return _kept(cid, ("table", view),
                 lambda info: (quat_view(info.cid) if view else info.build()).truth_table())


def _sim_texts(cid: str, vmap: VoltageMap | None = None) -> tuple[str, str, str]:
    """The CSV, voltage CSV and VCD texts of the exhaustive sweep of the
    circuit as built; for the default voltages, once per REGISTRY entry.
    `sim` loads on the first call."""
    if vmap is None:
        return _kept(cid, "sim", lambda info: _render(info, None))
    return _render(get_info(cid), vmap)


def _render(info: CircuitInfo, vmap: VoltageMap | None) -> tuple[str, str, str]:
    from . import sim  # its names read per call, so a patched one is the one that runs

    nl = info.build()
    trace = sim.run(nl, sim.sweep_all(nl))
    return sim.export_csv(trace), sim.voltage_view(trace, vmap), sim.export_vcd(trace)


def verify(cid: str) -> VerifyResult:
    """Check the truth table of the builder's netlist against its reference,
    once per REGISTRY entry."""
    return _kept(cid, "verify", lambda info: _verify_table(info, _table(info.cid)))


def verify_all() -> tuple[VerifyResult, ...]:
    return tuple(verify(cid) for cid in CIRCUIT_IDS)


def quat_view(cid: str) -> Netlist:
    """The circuit with a fully quaternary interface: an operation circuit
    with a binary core gets that core between a q2b converter per operand and
    a b2q converter on the result (ports x[,y] -> q); any other circuit is
    returned as built."""
    info = get_info(cid)
    if cid not in _CORES:
        return info.build()
    core, _ = _CORES[cid]
    operands = ("x", "y")[: info.op.arity]
    n = Netlist([(p, _Q) for p in operands], [("q", _Q)])
    bits = [b for p in operands for b in _q2b(n, n.input_net(p))]
    return _connect(n, [n.add_gate(GateKind.B2Q, core(n, *bits))])


def circuit_metrics(cid: str, costs=None) -> Metrics:
    """Metrics for the circuit as built, with published totals attached; for
    the default costs, once per REGISTRY entry."""
    if costs is None:
        return _kept(cid, "metrics", lambda info: _metrics(info, None))
    return _metrics(get_info(cid), costs)


def _metrics(info: CircuitInfo, costs) -> Metrics:
    m = info.build().metrics(costs)
    if info.cid in PUBLISHED_TRANSISTORS:
        m = m._replace(
            published_transistors=PUBLISHED_TRANSISTORS[info.cid],
            published_note=PUBLISHED_NOTE,
        )
    return m
