"""Pinned SHA-256 digests of every trace export.

The digests were recorded before the exporters were rewritten to work on
columns, so any byte the rewrite changes in a CSV, voltage CSV or VCD of a
catalog circuit, or of a seeded 2^12-row netlist, fails here.
"""

import hashlib
import random

import pytest

from mvq.circuits import CIRCUIT_IDS, REGISTRY
from mvq.netlist import GATE_SIGNATURES, GateKind, Netlist, SignalType
from mvq.sim import export_csv, export_vcd, run, sweep_all, voltage_view

B = SignalType.BIN
Q = SignalType.QUAT


def seeded_netlist(seed=2026, bins=6, quats=3, gates=80, outputs=24):
    """A typed DAG over all 20 gate kinds with 2^bins * 4^quats rows."""
    rng = random.Random(seed)
    kinds = sorted(GATE_SIGNATURES, key=lambda k: k.value)
    plan = []
    while len(plan) < gates:
        plan += rng.sample(kinds, len(kinds))
    in_types = [B] * bins + [Q] * quats
    rng.shuffle(in_types)
    nets = {B: [], Q: []}
    for k, t in enumerate(in_types):
        nets[t].append(k)
    built = []
    for kind in plan[:gates]:
        ins, out_type = GATE_SIGNATURES[kind]
        picks = [rng.choice(nets[t][-8:] if rng.random() < 0.5 else nets[t]) for t in ins]
        built.append((kind, picks, rng.randrange(4) if kind is GateKind.QCONST else None))
        nets[out_type].append(len(in_types) + len(built) - 1)
    driven = list(range(len(in_types), len(in_types) + len(built)))
    picks = rng.sample(driven, outputs)
    out_types = {
        len(in_types) + k: GATE_SIGNATURES[kind][1] for k, (kind, _, _) in enumerate(built)
    }
    n = Netlist(
        [(f"i{k}", t) for k, t in enumerate(in_types)],
        [(f"o{k}", out_types[net]) for k, net in enumerate(picks)],
    )
    for kind, ins, level in built:
        n.add_gate(kind, ins, level=level)
    for k, net in enumerate(picks):
        n.connect_output(f"o{k}", net)
    return n


def export_digests(nl):
    trace = run(nl, sweep_all(nl))
    return tuple(
        hashlib.sha256(text.encode()).hexdigest()
        for text in (export_csv(trace), export_vcd(trace), voltage_view(trace))
    )


# SHA-256 of (export_csv, export_vcd, voltage_view) per netlist
GOLDEN = {
    "q2b": (
        "1ff068f8c9ab22614475e062f60ae7e22e127ac893c43dfe8e17ad41d1de472b",
        "1902b9d0657d0c28b67b811924509d378a6521a988dcfdceb6de4ae10a47d842",
        "82b8f6cdf5971cdc53264cc6034d92a474d73a132a1db07d5851eee458a58116",
    ),
    "b2q": (
        "a1ad4bccc1e3ce2f8e5697c459de2cc93ebbf33116d19588aedac81d0259ac98",
        "5285460205fc7b7da797f6f7b381095c725ed15b4e941e9414035709e0c39730",
        "7debc213674906b79a4bcce552bcfdbe8dbf97da894ae7df173180a187841f22",
    ),
    "mod4-add": (
        "24c5dddf3bc3f0beeecee50a1786c2e0f84789c2633ca7bf2e5649e9131bf822",
        "c565573efa95fa14c99b38297e0392bf721d7bd72eee3dc599bfd8abd8869302",
        "16e8d2de4d3001385ee6a2f33bb50d5d2d919f2698c63d19e3a768147af2ca33",
    ),
    "mod4-sub": (
        "e8ae1373ef259f71e45c8548ea8a741881e0db1a4ad38e65a86b160b1438c216",
        "a32bfb14586b7a1894c2a3adc519815b8c460543c9aacdacf1e4be76e72b94ca",
        "d12622345dad5d1188da45e42de73b4cb8ccc212d27c4d37edfcb536bc118c0c",
    ),
    "mod4-mul": (
        "748e405ee74eaae183ae718e2997839528acd9ea7f4733cbc4a31c02054e4006",
        "35cbbf15261e6439c3b5eb4bb54316a36836fe62581ec8ee839b6560b84b1692",
        "eb2c2696a665055335b774ce71e241ec01259959af70d1d17e135e62988ae0b2",
    ),
    "mod4-neg": (
        "2e5dced41124d5027f755631d940e0d4f444ac68e7f06c8378166c2843c5f1b1",
        "a5dfdee1c28306c075b74499f9d5bbcb112a7b9fe59a44fc2026931be09317f7",
        "f62298c0299726e17a650f589851acc5640e605c863d7ff0b9005def19ed191c",
    ),
    "mod4-dbl": (
        "14dbe5d4425ce8054eb92a230dfc072fb793aaf80e9f80d8a917f18d529b855c",
        "dcc65c72a3670e73e20fcf9f0c54739fd59b494e63e788e499e09dc514a3a010",
        "7d01959c5ac132e9eddacff22eea9f2a7c0751186c7bf8aff3c0e078bdce7616",
    ),
    "gf4-add": (
        "dd7d4b2d9b2ab54a453e02fa572e246548e0f0d73994ac5bd1275b8052c63923",
        "5c4be46746f26bab2d1fa54c974ad34c777d6a2276721e0570396b60ffc34384",
        "5f5d7609f84dbe2ade9dc7d5398d5aeba6dafd9558d57139a5bed9dca7222c97",
    ),
    "gf4-mul-sop": (
        "68757977d4117ed94dcfe53c48b74e6039e29823bf9c25872337c037ebbf66c8",
        "b63759c22a37edeabbd25118c71de0906ec876f99c91427714e83cfcf50ac600",
        "b87ec3e77f267148789231fc0af00ed7fe499dc5bb28277ac8797e11daf875ee",
    ),
    "gf4-mul-mux": (
        "cfc0f48bf39c23ee4493949f0f57ee0ca5e5b90db3e042ca2857690d92aa95b3",
        "19ad753acd358abae8c32e2f9ba1f64fadb116bbff441f568b34cb40297be845",
        "f5ea854a92ce16ef06c8e96001323dc7d38410b363127b8c8fee1d92024ce474",
    ),
    "seeded": (
        "1971b608832afda36b2228944f0c554893c7df9ba594d5caa20b74bb00d33f59",
        "0eed846221e58b550838575bc86e2f85e9e9cbd47b3ec257f78e46f754fdece0",
        "8b5467da77afef86e9c877825b48df8941ca3143938707bc68c9603e1c0bc898",
    ),
}


@pytest.mark.parametrize("cid", CIRCUIT_IDS)
def test_catalog_exports_are_pinned(cid):
    assert export_digests(REGISTRY[cid].build()) == GOLDEN[cid]


def test_seeded_netlist_exports_are_pinned():
    nl = seeded_netlist()
    assert sweep_all(nl).n_steps == 2 ** 12
    assert export_digests(nl) == GOLDEN["seeded"]
