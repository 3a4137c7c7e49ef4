"""Tests of the benchmark's own pieces: python3 -m pytest perfbench"""

from __future__ import annotations

import itertools
import json
import random
import time

import run

run.import_program()

import gen  # noqa: E402
import ref  # noqa: E402
import work  # noqa: E402
from mvq import circuits, minimizer, sim  # noqa: E402
from mvq.netlist import from_json  # noqa: E402


def first_cycles(workload: str, seed: int, count: int = 2) -> list:
    return list(itertools.islice(gen.stream(workload, seed), count))


def test_generator_is_deterministic_per_seed():
    for workload in gen.CYCLES:
        assert first_cycles(workload, 7) == first_cycles(workload, 7)
        assert first_cycles(workload, 7) != first_cycles(workload, 8)


def test_generated_netlists_use_every_gate_kind_and_load():
    for op in first_cycles("sweep", 3, 1)[0]:
        assert {g["kind"] for g in op["doc"]["gates"]} == set(ref.SIGNATURES)
        nl = from_json(op["text"])
        assert len(nl.gates) == len(op["doc"]["gates"])


def test_generated_pla_defines_its_table():
    for op in first_cycles("minimize", 5, 1)[0]:
        spec = minimizer.parse_pla(op["text"])
        assert spec.outputs == op["outputs"]
        assert spec.names == op["names"]


def catalog_netlists():
    for cid in gen.CIRCUITS:
        yield circuits.REGISTRY[cid].build()
        yield circuits.quat_view(cid)


def test_reference_evaluator_agrees_on_all_20_catalog_netlists():
    checked = 0
    for nl in catalog_netlists():
        model = ref.RefNetlist(json.loads(nl.to_json()))
        names = [name for name, _ in nl.input_ports]
        for r in range(model.rows):
            levels = model.row_levels(r)
            got = nl.evaluate(dict(zip(names, levels)))
            assert tuple(got[name] for name, _ in nl.output_ports) == model.evaluate(levels)
        checked += 1
    assert checked == 20


def test_reference_evaluator_agrees_on_a_generated_netlist():
    op = first_cycles("sweep", 11, 1)[0][1]
    nl = from_json(op["text"])
    model = ref.RefNetlist(op["doc"])
    for row, (ins, outs) in enumerate(nl.truth_table().rows):
        assert ins == model.row_levels(row)
        assert outs == model.evaluate(ins)


def test_cover_checker_rejects_a_cover_missing_one_minterm():
    outputs = (0, 1, 0, 1, 0, 1, "-", 0)  # on-set 1, 3, 5
    assert ref.check_cover(3, outputs, ["0-1", "101"]) is None
    assert ref.check_cover(3, outputs, ["0-1"]) == "an on-set row is not covered"
    assert ref.check_cover(3, outputs, ["--1"]) is not None  # covers off-set row 7
    assert ref.check_cover(3, outputs, ["0-1", "1-1"]) is not None


def test_min_cover_cost_matches_the_exact_minimizer_on_small_functions():
    rng = random.Random(0)
    for _ in range(40):
        n = rng.choice((3, 4, 5))
        outputs = gen.random_table(rng, n, rng.choice((0.2, 0.4, 0.6)), 0.1)
        best = minimizer.minimize_exact(minimizer.TruthTableSpec(gen.default_names(n), outputs))
        on, dc, _ = ref.table_masks(outputs)
        assert ref.min_cover_cost(n, on, dc) == (
            best.term_count, best.literal_count
        )


def test_expression_reader_follows_the_rendered_grammar():
    names = ("x1", "x2", "y1", "y2")
    full = ref.cube_mask("----")
    assert ref.expression_mask("x1 x2' + y1", names) == (
        ref.cube_mask("10--") | ref.cube_mask("--1-")
    )
    assert ref.expression_mask("(x1 y2) ^ (x2 y1)", names) == (
        ref.cube_mask("1--1") ^ ref.cube_mask("-11-")
    )
    assert ref.expression_mask("x1 (x2 ^ y1')", names) == ref.cube_mask("1---") & (
        ref.cube_mask("-1--") ^ (full ^ ref.cube_mask("--1-"))
    )
    assert ref.expression_mask("0", names) == 0
    assert ref.sop_cost("x1 x2' + y1") == (2, 3)


def test_deadline_interrupts_a_dense_8_variable_case():
    op = gen.known_defects("minimize", 2)[1]
    assert op["n"] == 8
    t0 = time.perf_counter()
    seconds, problem, missed = work.minimize_op(op)
    assert missed and problem.startswith(gen.MISSED_DEADLINE)
    assert time.perf_counter() - t0 < work.MINIMIZE_DEADLINE_S + 1.0


def test_timed_functions_are_under_the_petrick_cap_and_probes_over_it():
    def work_of(op):
        on, dc, _ = ref.table_masks(op["outputs"])
        return ref.petrick_work(op["n"], on, dc, gen.PETRICK_WORK_CAP)

    for op in first_cycles("minimize", 3, 1)[0]:
        assert work_of(op) <= gen.PETRICK_WORK_CAP
    for op in gen.known_defects("minimize", 3):
        assert work_of(op) > gen.PETRICK_WORK_CAP


def test_petrick_work_counts_the_absorption_comparisons():
    outputs = (1, 1, 0, 0, 1, 0, 0, 0)  # both primes essential: nothing left to cover
    assert ref.petrick_work(3, *ref.table_masks(outputs)[:2], cap=10) == 0
    # on every row but 000 and 111: six two-row primes, none essential; the
    # first row's two primes give 2 partial covers, so 4 comparisons
    cyclic = (0, 1, 1, 1, 1, 1, 1, 0)
    on, dc, _ = ref.table_masks(cyclic)
    assert ref.petrick_work(3, on, dc, cap=3) == 4
    assert ref.petrick_work(3, on, dc, cap=10 ** 6) > 4


def test_every_fixed_catalog_command_passes_its_checks():
    digests = work.load_digests()
    fixed = gen.fixed_commands()
    assert {work.command_key(op["argv"]) for op in fixed} == set(digests)
    for op in fixed:
        assert work.catalog_op(op, digests)[1] is None, op["argv"]


def test_table_check_catches_a_wrong_grid_cell():
    good = "x\\y | 0 1 2 3\n----+--------\n" + "\n".join(
        f"{a:>3} | " + " ".join(str((a * b) % 4) for b in range(4)) for a in range(4)
    )
    assert work.check_table("mod4-mul", good) is None
    assert work.check_table("mod4-mul", good.replace("  3 | 0 3 2 1", "  3 | 0 3 2 2"))
    assert work.guarded(work.check_table, "mod4-mul", "").startswith("unreadable output")


def test_vcd_check_replays_and_flags_unprintable_identifiers():
    nl = circuits.REGISTRY["gf4-mul-sop"].build()
    trace = sim.run(nl, sim.sweep_all(nl))
    signals = [(name, t.value) for name, t in trace.signals]
    assert ref.check_vcd(sim.export_vcd(trace), signals, trace.rows) is None
    wrong = [row[:-1] + (1 - row[-1],) for row in trace.rows]
    assert ref.check_vcd(sim.export_vcd(trace), signals, wrong) is not None
    dump = "\n".join([
        "$var wire 1 ! a $end", "$var wire 1 \x7f b $end", "$enddefinitions $end",
        "#0", "$dumpvars", "1!", "0\x7f", "$end",
    ])
    problem = ref.check_vcd(dump, [("a", ref.B), ("b", ref.B)], [(1, 0)])
    assert problem == f"identifier '\\x7f' for b {ref.NOT_PRINTABLE}"


def test_known_defects_stay_out_of_the_timed_cycles():
    deck = first_cycles("catalog", 4, 1)[0]
    assert not any("a a" in (op["stdin"] or "") for op in deck)
    [probe] = gen.known_defects("catalog", 4)
    assert ".ilb a a" in probe["stdin"]
    for op in first_cycles("sweep", 4, 1)[0]:
        assert len(op["doc"]["inputs"]) + len(op["doc"]["outputs"]) <= 94
    [probe] = gen.known_defects("sweep", 4)
    assert len(probe["doc"]["inputs"]) + len(probe["doc"]["outputs"]) > 94


def test_every_known_defect_still_shows():
    for workload in gen.CYCLES:
        probes = gen.known_defects(workload, 5)
        defects = work.Defects(workload, probes)
        assert defects.unexpected == []
        assert defects.shown == len(probes)
