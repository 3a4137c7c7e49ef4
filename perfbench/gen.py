"""Seeded inputs for the three workloads.

Each generator draws from the `random.Random` it is given, so one seed
always gives the same inputs. The program under test receives only the
texts made here: netlist JSON, PLA text and CLI argument lists. Sizes are
fixed per schedule slot and the seed draws the contents, so every seed
exercises the same mix of shapes.
"""

from __future__ import annotations

import json
import random

from ref import B, NOT_PRINTABLE, Q, SIGNATURES, petrick_work, table_masks

CIRCUITS = (
    "q2b", "b2q", "mod4-add", "mod4-sub", "mod4-mul",
    "mod4-neg", "mod4-dbl", "gf4-add", "gf4-mul-sop", "gf4-mul-mux",
)
# input rows of each circuit's truth table (both the quaternary and bit views)
CIRCUIT_ROWS = {c: 4 if c in ("q2b", "b2q", "mod4-neg", "mod4-dbl") else 16 for c in CIRCUITS}
# rows behind `verify all` and `audit` (four 2-variable and ten 4-variable bit tables)
VERIFY_ALL_ROWS = sum(CIRCUIT_ROWS.values())
AUDIT_ROWS = 4 * 4 + 10 * 16

USAGE = 2  # documented exit code for usage and parse errors


def default_names(n: int) -> tuple[str, ...]:
    """Variable names `mvq minimize` uses when a PLA has no .ilb line."""
    if n == 2:
        return ("x1", "x2")
    if n == 4:
        return ("x1", "x2", "y1", "y2")
    return tuple(f"x{i + 1}" for i in range(n))


# --- single-output functions


def random_table(rng: random.Random, n: int, density: float, dc: float) -> tuple:
    out = []
    for _ in range(2 ** n):
        r = rng.random()
        out.append(1 if r < density else "-" if r < density + dc else 0)
    return tuple(out)


def pla_text(rng: random.Random, outputs: tuple, names: tuple[str, ...] | None) -> str:
    """A PLA that defines exactly `outputs`. Pairs of rows that agree may be
    written as one cube; about half of the 0 rows are left to the default."""
    n = (len(outputs) - 1).bit_length()
    rows = []
    r = 0
    while r < len(outputs):
        v = outputs[r]
        if r % 2 == 0 and outputs[r + 1] == v and rng.random() < 0.5:
            rows.append((format(r, f"0{n}b")[:-1] + "-", v))
            r += 2
            continue
        rows.append((format(r, f"0{n}b"), v))
        r += 1
    lines = [(cube, str(v)) for cube, v in rows if v != 0 or rng.random() < 0.5]
    rng.shuffle(lines)
    head = [f".i {n}", ".o 1"]
    if names is not None:
        head.append(".ilb " + " ".join(names))
    head.append(f".p {len(lines)}")
    return "\n".join(
        ["# generated"] + head + [f"{c} {v}" for c, v in lines] + [".e"]
    ) + "\n"


def random_names(rng: random.Random, n: int) -> tuple[str, ...]:
    letters = rng.sample("abcdefghjkmnpqrstuvw", n)
    return tuple(f"{ch}{rng.randrange(10)}" for ch in letters)


# `minimize` schedule: (variables, on-set density, don't-care share).
# Six 5-variable classes of density 0.5-0.6 sit in the middle: each takes
# 3-4.5 ms, half or more of it in prime generation and covering (parse_pla
# takes most of the rest), so a run's median falls among them. Below them
# come sparser 5-variable functions; above them the 6-variable classes,
# whose covering grows with density, and one 4-variable class, where
# recognize_xor's exhaustive search over cube pairs costs about 13 ms
# every time. Per-class times are in README.md.
MINIMIZE_CLASSES = (
    (5, 0.3, 0.05), (5, 0.3, 0.08), (5, 0.4, 0.08), (5, 0.4, 0.12),
    (5, 0.5, 0.08), (5, 0.5, 0.15), (5, 0.5, 0.2), (5, 0.55, 0.12),
    (5, 0.6, 0.08), (5, 0.6, 0.1), (4, 0.4, 0.08), (6, 0.3, 0.08),
    (6, 0.4, 0.08),
)
DONT_CARE = 0.08
# Petrick's expansion, the program's covering, blows up on some functions
# and then misses any deadline (ROADMAP item 3). `ref.petrick_work` models
# its cost: under this cap every function seen took at most 50 ms, so a
# timed function is redrawn until it is under the cap and none fails. The
# defect is shown by the known-defect probes instead, drawn over the cap
# from the two classes below, where nearly every function is.
PETRICK_WORK_CAP = 300_000
DEFECT_CLASSES = ((7, 0.5, 0.08), (8, 0.4, 0.08))
# Start of the report of a known defect, one per workload
MISSED_DEADLINE = "missed the deadline"
RAISED = "raised ValueError"  # `.ilb a a` escaping `mvq minimize`


def minimize_job(rng: random.Random, n: int, density: float, dc: float,
                 over_cap: bool = False) -> dict:
    """A function of one class, under PETRICK_WORK_CAP or over it."""
    while True:
        outputs = random_table(rng, n, density, dc)
        on, dcs, _ = table_masks(outputs)
        if (petrick_work(n, on, dcs, PETRICK_WORK_CAP) > PETRICK_WORK_CAP) == over_cap:
            break
    names = random_names(rng, n) if rng.random() < 0.5 else None
    return {
        "n": n,
        "outputs": outputs,
        "names": names or default_names(n),
        "text": pla_text(rng, outputs, names),
        "rows": 2 ** n,
    }


def minimize_cycle(rng: random.Random) -> list[dict]:
    return [dict(minimize_job(rng, *cls), slot=k) for k, cls in enumerate(MINIMIZE_CLASSES)]


# --- `sweep`: typed DAGs


# (binary inputs, quaternary inputs, gates, outputs); tall slots have
# 2^12-2^14 rows and 20-40 gates, wide ones 2^6-2^7 rows and 1-2k gates.
# Jobs are kept small enough for four or more cycles in a 30 s run, so
# each slot's median rests on that many samples. The 1200-gate shape comes
# three times and sits in the middle by size, so the median job of a run
# falls among a dozen similar ones instead of on one noisy job. The fourth
# slot traces 94 signals, all the single-character VCD identifiers there
# are; the known-defect probe traces 105.
SWEEP_SHAPES = (
    (10, 2, 20, 6),
    (2, 2, 1000, 10),
    (7, 3, 30, 8),
    (3, 2, 1000, 89),
    (3, 2, 1200, 12),
    (6, 3, 40, 8),
    (3, 2, 1200, 12),
    (2, 2, 2000, 16),
    (3, 2, 1200, 12),
)
DEFECT_SHAPE = (3, 2, 1000, 100)


def random_netlist(rng: random.Random, bins: int, quats: int, gates: int, outputs: int) -> dict:
    """A netlist document over all 20 gate kinds; gates appear shuffled."""
    inputs = [{"name": f"b{i}", "type": B} for i in range(bins)]
    inputs += [{"name": f"q{i}", "type": Q} for i in range(quats)]
    rng.shuffle(inputs)
    nets = {B: [], Q: []}
    for i, p in enumerate(inputs):
        nets[p["type"]].append(i)
    # every kind equally often, in a shuffled order per block of 20: the mix
    # of gate kinds, and so the cost of a row, is the same for every seed
    kinds = sorted(SIGNATURES)
    plan = []
    while len(plan) < gates:
        plan += rng.sample(kinds, len(kinds))
    plan = plan[:gates]
    docs = []
    for k, kind in enumerate(plan):
        in_types, out_type = SIGNATURES[kind]
        ins = []
        for t in in_types:
            pool = nets[t]
            # half the picks come from recent nets, which builds depth
            ins.append(rng.choice(pool[-12:] if rng.random() < 0.5 else pool))
        out = len(inputs) + k
        gate = {"id": k, "kind": kind, "inputs": ins, "output": out}
        if kind == "qconst":
            gate["level"] = rng.randrange(4)
        docs.append(gate)
        nets[out_type].append(out)
    driven = [g["output"] for g in docs]
    picks = rng.sample(driven[-outputs * 3:] if outputs * 3 <= len(driven) else driven, outputs)
    out_types = {g["output"]: SIGNATURES[g["kind"]][1] for g in docs}
    rng.shuffle(docs)
    return {
        "inputs": inputs,
        "outputs": [
            {"name": f"o{i}", "type": out_types[net], "net": net}
            for i, net in enumerate(picks)
        ],
        "gates": docs,
    }


def sweep_job(rng: random.Random, bins: int, quats: int, gates: int, outputs: int) -> dict:
    doc = random_netlist(rng, bins, quats, gates, outputs)
    return {
        "doc": doc,
        "text": json.dumps(doc),
        "rows": 2 ** bins * 4 ** quats,
        "sample_seed": rng.randrange(2 ** 32),
    }


def sweep_cycle(rng: random.Random) -> list[dict]:
    return [dict(sweep_job(rng, *shape), slot=k) for k, shape in enumerate(SWEEP_SHAPES)]


# --- `catalog`: CLI commands


def fixed_commands() -> list[dict]:
    """Deterministic commands; stdout is checked against recorded digests."""
    cmds = [(["verify", "all"], 0, VERIFY_ALL_ROWS), (["audit"], 0, AUDIT_ROWS)]
    for cid in CIRCUITS:
        rows = CIRCUIT_ROWS[cid]
        cmds += [
            (["verify", cid], 0, rows),
            (["table", cid], 0, rows),
            (["table", cid, "--bits"], 0, rows),
            (["metrics", cid], 0, 0),
            (["sim", cid], 0, rows),
            (["sim", cid, "--vcd", "-"], 0, rows),
            (["sim", cid, "--volts"], 0, rows),
        ]
    for a, b, code in (
        ("gf4-mul-sop", "gf4-mul-mux", 0),
        ("mod4-mul", "mod4-mul", 0),
        ("mod4-add", "gf4-add", 1),
        ("mod4-neg", "mod4-dbl", 1),
        ("mod4-mul", "gf4-mul-mux", 1),
    ):
        cmds.append((["compare", a, b], code, CIRCUIT_ROWS[a]))
    for argv in (
        ["table", "nosuch"], ["verify", "nosuch"], ["metrics", "nosuch"],
        ["sim", "nosuch"], ["compare", "q2b", "mod4-add"], [], ["frobnicate"],
    ):
        cmds.append((argv, USAGE, 0))
    return [
        {"argv": argv, "stdin": None, "expect": code, "rows": rows, "kind": "fixed"}
        for argv, code, rows in cmds
    ]


CATALOG_PLAS = 16  # valid 2-4 variable PLAs per deck


def catalog_deck(rng: random.Random) -> list[dict]:
    """One shuffled deck: every fixed command once, random small PLAs, and
    bad PLAs with their documented exit code."""
    deck = fixed_commands()
    for k in range(CATALOG_PLAS):
        n = rng.choice((2, 3, 4))
        outputs = random_table(rng, n, rng.choice((0.2, 0.4, 0.6)), DONT_CARE)
        names = random_names(rng, n) if rng.random() < 0.5 else None
        argv = ["minimize", "-"] + (["--xor"] if k % 2 else [])
        deck.append({
            "argv": argv, "stdin": pla_text(rng, outputs, names), "expect": 0,
            "rows": 2 ** n, "kind": "minimize",
            "n": n, "outputs": outputs, "names": names or default_names(n),
        })
    good = pla_text(rng, random_table(rng, 3, 0.4, DONT_CARE), None)
    bad = [
        good.replace(".e\n", ""),  # missing terminator
        good.replace(".o 1", ".o 2"),  # multiple outputs
        good.replace(".i 3", ".i 3\n.type fr"),  # unsupported directive
        good.replace(".p", "1x0 1\n.p"),  # bad input character
    ]
    for text in bad:
        deck.append({"argv": ["minimize", "-"], "stdin": text, "expect": USAGE,
                     "rows": 0, "kind": "invalid"})
    for k, op in enumerate(deck):
        op["slot"] = k
    rng.shuffle(deck)
    return deck


CYCLES = {"catalog": catalog_deck, "sweep": sweep_cycle, "minimize": minimize_cycle}


def known_defects(workload: str, seed: int) -> list[dict]:
    """Inputs that show a documented defect, run once per run outside the
    timed loop. Each has the start of the failure report the defect gives
    as "known_defect"; any other failure on them is unexpected."""
    rng = random.Random(f"{workload}:{seed}:defects")
    if workload == "minimize":
        return [dict(minimize_job(rng, *cls, over_cap=True), known_defect=MISSED_DEADLINE)
                for cls in DEFECT_CLASSES]
    if workload == "sweep":
        # traces more signals than there are single-character VCD identifiers
        return [dict(sweep_job(rng, *DEFECT_SHAPE), known_defect=NOT_PRINTABLE)]
    # repeats an .ilb name: must exit 2; the ValueError escapes `mvq minimize`
    return [{
        "argv": ["minimize", "-"], "expect": USAGE, "rows": 0, "kind": "invalid",
        "stdin": pla_text(rng, random_table(rng, 2, 0.5, 0.0), ("a", "a")),
        "known_defect": RAISED,
    }]


def stream(workload: str, seed: int):
    """Endless operations for `workload`, one whole cycle at a time."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield CYCLES[workload](rng)
