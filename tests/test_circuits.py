"""Circuit builders against the arithmetic tables, structure, and metrics."""

import hashlib
import itertools

import pytest

from mvq import circuits
from mvq.arith_core import (
    OpKind,
    apply_op,
    decode_b2q,
    encode_q2b,
    gf4_mul,
    gf4_mul_poly,
    mod4_add,
    mod4_mul,
    mod4_neg,
)
from mvq.circuits import (
    CIRCUIT_IDS,
    PUBLISHED_TRANSISTORS,
    REGISTRY,
    CircuitInfo,
    build_b2q,
    build_gf4_mul_mux,
    build_gf4_mul_sop,
    build_mod4_adder,
    build_q2b,
    circuit_metrics,
    get_info,
    quat_view,
    verify,
    verify_all,
)
from mvq.netlist import GateKind, Netlist, SignalType, from_json

B = SignalType.BIN
Q = SignalType.QUAT


def kind_multiset(nl):
    out = {}
    for g in nl.gates:
        out[g.kind] = out.get(g.kind, 0) + 1
    return out


def test_registry_is_complete_and_ordered():
    assert CIRCUIT_IDS == (
        "q2b", "b2q", "mod4-add", "mod4-sub", "mod4-mul", "mod4-neg",
        "mod4-dbl", "gf4-add", "gf4-mul-sop", "gf4-mul-mux",
    )
    builders = {
        name: fn
        for name, fn in vars(circuits).items()
        if name.startswith("build_") and callable(fn)
    }
    registered = {info.build for info in REGISTRY.values()}
    for name, fn in builders.items():
        assert fn in registered, f"{name} is not in the registry"


def test_get_info_unknown():
    with pytest.raises(KeyError):
        get_info("mod4-div")


def test_every_builder_validates_and_verifies():
    results = verify_all()
    assert len(results) == 10
    for r in results:
        assert r.ok, f"{r.cid}: {r.counterexample}"
        assert r.counterexample is None
    by_cid = {r.cid: r.vectors for r in results}
    assert by_cid["q2b"] == 4 and by_cid["b2q"] == 4
    assert by_cid["mod4-neg"] == 4 and by_cid["mod4-dbl"] == 4
    for cid in ("mod4-add", "mod4-sub", "mod4-mul", "gf4-add", "gf4-mul-sop", "gf4-mul-mux"):
        assert by_cid[cid] == 16


def test_q2b_reference_points():
    n = build_q2b()
    assert n.evaluate({"q": 2}) == {"x1": 1, "x2": 0}
    assert n.evaluate({"q": 0}) == {"x1": 0, "x2": 0}
    assert n.evaluate({"q": 1}) == {"x1": 0, "x2": 1}
    for q in range(4):
        want = encode_q2b(q)
        got = n.evaluate({"q": q})
        assert (got["x1"], got["x2"]) == tuple(want)


def test_q2b_structure():
    n = build_q2b()
    ks = kind_multiset(n)
    assert ks == {
        GateKind.DLC1: 1, GateKind.DLC2: 1, GateKind.DLC3: 1,
        GateKind.NOT: 2, GateKind.BMUX2: 1,
    }


def test_b2q_reference_points():
    n = build_b2q()
    assert n.evaluate({"x1": 1, "x2": 1}) == {"q": 3}
    assert n.evaluate({"x1": 0, "x2": 0}) == {"q": 0}


def test_converter_round_trip_identity():
    q2b, b2q = build_q2b(), build_b2q()
    for q in range(4):
        bits = q2b.evaluate({"q": q})
        assert b2q.evaluate(bits)["q"] == q
    for x1, x2 in itertools.product(range(2), range(2)):
        q = b2q.evaluate({"x1": x1, "x2": x2})["q"]
        assert q2b.evaluate({"q": q}) == {"x1": x1, "x2": x2}


def test_adder_reference_points():
    n = build_mod4_adder()
    x, y = encode_q2b(2), encode_q2b(3)
    out = n.evaluate({"x1": x.x1, "x2": x.x2, "y1": y.x1, "y2": y.x2})
    assert decode_b2q((out["a1"], out["a2"])) == 1
    out = n.evaluate({"x1": 0, "x2": 0, "y1": 0, "y2": 0})
    assert (out["a1"], out["a2"]) == (0, 0)


def test_structural_gate_multisets():
    assert kind_multiset(REGISTRY["mod4-add"].build()) == {
        GateKind.XOR2: 3, GateKind.AND2: 1,
    }
    assert kind_multiset(REGISTRY["mod4-sub"].build()) == {
        GateKind.XOR2: 3, GateKind.ANDN2: 1,
    }
    assert kind_multiset(REGISTRY["mod4-mul"].build()) == {
        GateKind.AND2: 3, GateKind.XOR2: 1,
    }
    assert kind_multiset(REGISTRY["mod4-neg"].build()) == {GateKind.XOR2: 1}
    assert kind_multiset(REGISTRY["mod4-dbl"].build()) == {GateKind.CONST0: 1}
    assert kind_multiset(REGISTRY["gf4-add"].build()) == {GateKind.XOR2: 2}
    mux = kind_multiset(REGISTRY["gf4-mul-mux"].build())
    assert mux[GateKind.QMUX4] == 3
    assert mux[GateKind.QCONST] == 4


def test_gate_count_and_depth_assertions():
    expected = {
        "mod4-add": (4, 2),
        "mod4-sub": (4, 2),
        "mod4-mul": (4, 2),
        "mod4-neg": (1, 1),
        "mod4-dbl": (0, 0),
        "gf4-add": (2, 1),
    }
    for cid, (gates, depth) in expected.items():
        m = REGISTRY[cid].build().metrics()
        assert (m.gate_count, m.depth) == (gates, depth), cid


def test_unary_circuit_points():
    neg = REGISTRY["mod4-neg"].build()
    x = encode_q2b(1)
    out = neg.evaluate({"x1": x.x1, "x2": x.x2})
    assert decode_b2q((out["n1"], out["n2"])) == 3
    dbl = REGISTRY["mod4-dbl"].build()
    x = encode_q2b(3)
    out = dbl.evaluate({"x1": x.x1, "x2": x.x2})
    assert decode_b2q((out["d1"], out["d2"])) == 2


def test_gf4_mul_sop_reference_points():
    n = build_gf4_mul_sop()

    def run(a, b):
        x, y = encode_q2b(a), encode_q2b(b)
        out = n.evaluate({"x1": x.x1, "x2": x.x2, "y1": y.x1, "y2": y.x2})
        return decode_b2q((out["m1"], out["m2"]))

    assert run(2, 2) == 3
    assert run(3, 2) == 1
    for q in range(4):
        assert run(0, q) == 0


def test_gf4_mul_mux_reference_points():
    n = build_gf4_mul_mux()
    assert n.evaluate({"x": 1, "y": 3})["q"] == 3
    for q in range(4):
        assert n.evaluate({"x": 0, "y": q})["q"] == 0
    assert n.evaluate({"x": 2, "y": 3})["q"] == 1


def test_gf4_multipliers_agree_with_polynomial_definition():
    sop, mux = build_gf4_mul_sop(), build_gf4_mul_mux()
    for a, b in itertools.product(range(4), range(4)):
        x, y = encode_q2b(a), encode_q2b(b)
        out = sop.evaluate({"x1": x.x1, "x2": x.x2, "y1": y.x1, "y2": y.x2})
        got_sop = decode_b2q((out["m1"], out["m2"]))
        got_mux = mux.evaluate({"x": a, "y": b})["q"]
        assert got_sop == got_mux == gf4_mul_poly(a, b) == gf4_mul(a, b)


def test_gf4_mul_mux_has_no_converters():
    kinds = {g.kind for g in build_gf4_mul_mux().gates}
    assert kinds == {GateKind.QMUX4, GateKind.QCONST}


def test_compose_reference_points():
    add = quat_view("mod4-add")
    assert add.evaluate({"x": 2, "y": 3})["q"] == mod4_add(2, 3) == 1
    neg = quat_view("mod4-neg")
    assert neg.evaluate({"x": 2})["q"] == mod4_neg(2) == 2


def test_compose_full_tables_match_oracles():
    for cid in ("mod4-add", "mod4-sub", "mod4-mul", "mod4-neg", "mod4-dbl",
                "gf4-add", "gf4-mul-sop"):
        info = REGISTRY[cid]
        wrapped = quat_view(cid)
        if info.op.arity == 1:
            for a in range(4):
                assert wrapped.evaluate({"x": a})["q"] == apply_op(info.op, a), cid
        else:
            for a, b in itertools.product(range(4), range(4)):
                got = wrapped.evaluate({"x": a, "y": b})["q"]
                assert got == apply_op(info.op, a, b), (cid, a, b)


def test_compose_mod4_mul_truth_table():
    wrapped = quat_view("mod4-mul")
    tt = wrapped.truth_table()
    assert len(tt.rows) == 16
    for (a, b), (q,) in tt.rows:
        assert q == mod4_mul(a, b)


def test_quat_view_shapes():
    for cid in CIRCUIT_IDS:
        view = quat_view(cid)
        view.validate()
        in_types = {sig for _, sig in view.input_ports}
        if cid == "b2q":
            assert in_types == {B}
        else:
            assert in_types == {Q}


def test_verify_reports_counterexample():
    # a subtractor judged against the adder's table must fail
    info = REGISTRY["mod4-add"]
    wrong = REGISTRY["mod4-sub"].build()
    res = circuits._verify_table(info, wrong.truth_table())
    assert not res.ok
    assert res.counterexample is not None
    assert "got" in res.counterexample and "want" in res.counterexample


def test_verify_catches_swapped_converter_outputs():
    n = Netlist([("q", Q)], [("x1", B), ("x2", B)])
    qn = n.input_net("q")
    d1 = n.add_gate(GateKind.DLC1, [qn])
    d2 = n.add_gate(GateKind.DLC2, [qn])
    d3 = n.add_gate(GateKind.DLC3, [qn])
    mux = n.add_gate(GateKind.BMUX2, [d2, d1, d3])
    n.connect_output("x2", n.add_gate(GateKind.NOT, [d2]))  # swapped
    n.connect_output("x1", n.add_gate(GateKind.NOT, [mux]))
    res = circuits._verify_table(REGISTRY["q2b"], n.truth_table())
    assert not res.ok
    assert res.counterexample == "q=1: got 2, want 1"  # q=1 leaves as 10


def test_verify_catches_swapped_b2q_inputs():
    # x=1 arrives as x1=0, x2=1 and leaves as 2
    n = Netlist([("x1", B), ("x2", B)], [("q", Q)])
    n.connect_output("q", n.add_gate(GateKind.B2Q, [n.input_net("x2"), n.input_net("x1")]))
    res = circuits._verify_table(REGISTRY["b2q"], n.truth_table())
    assert res.counterexample == "x=1: got 2, want 1"


def test_published_totals():
    assert PUBLISHED_TRANSISTORS == {
        "mod4-add": 40, "mod4-mul": 24, "gf4-add": 24, "gf4-mul-mux": 72,
    }
    m = circuit_metrics("mod4-add")
    assert m.published_transistors == 40
    assert m.published_note
    assert m.gate_count == 4
    m = circuit_metrics("mod4-sub")
    assert m.published_transistors is None and m.published_note is None


def test_every_circuit_survives_json_round_trip():
    for cid in CIRCUIT_IDS:
        info = REGISTRY[cid]
        original = info.build()
        restored = from_json(original.to_json())
        assert restored.truth_table() == original.truth_table(), cid
        res = circuits._verify_table(info, restored.truth_table())
        assert res.ok, cid


# SHA-256 of to_json() per catalog circuit, as (build(), quat_view), recorded
# while each view was still spliced from whole built netlists
JSON_GOLDEN = {
    "q2b": (
        "ad062e5583eb8f8e513f710ffdcabed562bd8e1362010d6d406bcd8bd8192e47",
        "ad062e5583eb8f8e513f710ffdcabed562bd8e1362010d6d406bcd8bd8192e47",
    ),
    "b2q": (
        "640a2515a6e41c3e3d88eb141742bb483e4f156ed4db47c8a9e7d6c9bc1e8942",
        "640a2515a6e41c3e3d88eb141742bb483e4f156ed4db47c8a9e7d6c9bc1e8942",
    ),
    "mod4-add": (
        "bd9b9694fb378464e962dd78ac12e138a54336b9293dc0570c958b239737cfeb",
        "6c752bc1c7adb7534cc704666ab34ee3096cfc0687e6429719f50143c880031e",
    ),
    "mod4-sub": (
        "80c3d75ea8e7132e268a8cd864c51c74b83b182f1464c5a65b5e6e091ebb43e5",
        "3641fb0eedb9cf87cb7c7e6bdacd87e75ae166b375b54f7031a7dc8e0f37da9e",
    ),
    "mod4-mul": (
        "f11bdcba1d85797902b167366309d047a43a00a5802928c546c8a554e38d6c56",
        "52bbb95b734b591ac1557789db07718e6861e16de2987a4745c448460136056d",
    ),
    "mod4-neg": (
        "635b1b776bb794f3cac8a7a99e9a6a41970e8725f35552a808493f12f244002d",
        "2841bfffde4b9b86fbed2c854a2481b785eb767104bb457736e3210a561ec40c",
    ),
    "mod4-dbl": (
        "4934e28a4d79cbe1fc6ae28cf4c773616206286d194f0112e9aa0eedd1b2c7a6",
        "3f6921bb87aa6d8a5d029144ca11ae459171d4c7c56a0fa319ade52dae3f5386",
    ),
    "gf4-add": (
        "528100a678e7f275643af2349bb84198fbe4e18ff6801ee4e4cfa8488f682b3e",
        "e1ecb86ef9fc6daba2da743b7d54806c82f70d08f9d694a18276696990dbdb20",
    ),
    "gf4-mul-sop": (
        "a2628179d694b7a8f91d2efe395e189b6c390adfa6b65d7405af360a90fbc5e9",
        "b08013e537260848f42d50949d3b2f97dfad3d17564c3c3900291d02e9d36ed9",
    ),
    "gf4-mul-mux": (
        "4add6c4157efe6508376a5b9f4281d26d7975afead93b658b84ae694751c79ed",
        "4add6c4157efe6508376a5b9f4281d26d7975afead93b658b84ae694751c79ed",
    ),
}


@pytest.mark.parametrize("cid", CIRCUIT_IDS)
def test_catalog_netlists_are_pinned(cid):
    def digest(nl):
        return hashlib.sha256(nl.to_json().encode()).hexdigest()

    assert (digest(REGISTRY[cid].build()), digest(quat_view(cid))) == JSON_GOLDEN[cid]
