"""The values the CLI keeps per process: one netlist per catalog circuit and
per quaternary view, a truth table of each, the CSV, default-voltage CSV and
VCD texts of one sweep, one VerifyResult and one default-cost Metrics per
circuit, one set of audit rows. A voltage map's texts are rendered per call.

No command may change a kept netlist, the public builders must keep
returning new ones, a cold call must print what a warm one prints, and a
replaced REGISTRY entry or published table must be read at once and then
dropped.
"""

import dataclasses
import io
import sys
import weakref

import pytest
from test_cli import AUDIT_STDOUT, PARSER_CORPUS, _fresh_import, _published_row, run_cli
from test_readme import _m1_pla

from mvq import circuits, minimizer, sim
from mvq.circuits import CIRCUIT_IDS, REGISTRY, circuit_metrics, quat_view, verify
from mvq.cli import main
from mvq.netlist import GateKind, Netlist, SignalType

B = SignalType.BIN

PER_CIRCUIT = [
    ["table"], ["table", "--bits"], ["sim"], ["sim", "--vcd", "-"], ["sim", "--volts"],
    ["verify"], ["metrics"],
]
# every command whose output depends only on the catalog
FIXED = [
    *([name, cid, *flags] for cid in CIRCUIT_IDS for name, *flags in PER_CIRCUIT),
    *(["compare", a, b] for a in CIRCUIT_IDS for b in CIRCUIT_IDS),
    ["verify", "all"], ["metrics", "all"], ["audit"],
]


def _forget_kept():
    circuits._KEPT.clear()
    minimizer._AUDITED = None


def _shape(nl):
    """What a command could change: ports, gates, output nets, the JSON
    document and the compiled cone."""
    outs = [nl.output_net(name) for name, _ in nl.output_ports]
    return nl.input_ports, nl.output_ports, nl.gates, outs, nl.to_json(), nl._cone


def _fresh(cid, view):
    nl = quat_view(cid) if view else REGISTRY[cid].build()
    nl.validate()
    return nl


SHARED = [(cid, view) for cid in CIRCUIT_IDS for view in (False, True)]


def test_no_command_changes_a_kept_netlist(capsys, tmp_path, monkeypatch):
    (tmp_path / "m1.pla").write_text(_m1_pla())
    monkeypatch.chdir(tmp_path)
    kept = {key: circuits._shared(*key) for key in SHARED}
    for argv in PARSER_CORPUS + FIXED:
        monkeypatch.setattr(sys, "stdin", io.StringIO(_m1_pla()))
        main(list(argv))
        capsys.readouterr()
    for key in SHARED:
        assert circuits._shared(*key) is kept[key], key
        assert _shape(kept[key]) == _shape(_fresh(*key)), key


def test_a_kept_value_is_made_once_and_a_view_is_its_own():
    for cid in CIRCUIT_IDS:
        assert circuits._shared(cid) is circuits._shared(cid)
        assert circuits._shared(cid, view=True) is circuits._shared(cid, view=True)
        assert circuits._shared(cid, view=True) is not circuits._shared(cid)
        assert verify(cid) is verify(cid)
    assert circuits.verify_all() == tuple(verify(cid) for cid in CIRCUIT_IDS)
    assert minimizer.audit_published_forms() is minimizer.audit_published_forms()


def test_default_metrics_are_measured_once_and_a_cost_table_on_every_call(monkeypatch):
    _forget_kept()
    measured = []
    metrics = Netlist.metrics
    monkeypatch.setattr(
        Netlist, "metrics", lambda nl, costs=None: measured.append(costs) or metrics(nl, costs)
    )
    costs = {kind: 1 for kind in GateKind}
    first = circuit_metrics("mod4-add")
    assert circuit_metrics("mod4-add") is first
    priced = circuit_metrics("mod4-add", costs)
    assert circuit_metrics("mod4-add", costs) is not priced
    assert priced.transistor_estimate == priced.gate_count
    assert measured == [None, costs, costs]
    assert first.published_transistors is not None


def test_the_public_builders_return_a_new_netlist_on_every_call():
    for cid in CIRCUIT_IDS:
        info = REGISTRY[cid]
        assert info.build() is not info.build()
        assert quat_view(cid) is not quat_view(cid)
        assert quat_view(cid) is not circuits._shared(cid, view=True)
        assert info.build() is not circuits._shared(cid)


def test_changing_a_returned_netlist_changes_no_command(capsys):
    argvs = [
        ["table", "mod4-add"], ["table", "mod4-add", "--bits"], ["sim", "mod4-add"],
        ["verify", "mod4-add"], ["metrics", "mod4-add"],
        ["compare", "mod4-add", "mod4-add"], ["compare", "mod4-add", "gf4-add"],
    ]
    before = [run_cli(capsys, *argv) for argv in argvs]
    view = quat_view("mod4-add")
    view.connect_output("q", view.add_gate(GateKind.QCONST, level=0))
    assert view.evaluate({"x": 1, "y": 1}) == {"q": 0}
    built = REGISTRY["mod4-add"].build()
    built.connect_output("a1", built.add_gate(GateKind.CONST0))
    assert [run_cli(capsys, *argv) for argv in argvs] == before


@pytest.mark.parametrize("argv", FIXED, ids=" ".join)
def test_a_cold_call_prints_what_warm_calls_print(capsys, argv):
    _forget_kept()
    cold = run_cli(capsys, *argv)
    assert run_cli(capsys, *argv) == cold
    assert run_cli(capsys, *argv) == cold


def test_each_table_and_trace_is_evaluated_once(capsys, tmp_path, monkeypatch):
    (tmp_path / "m1.pla").write_text(_m1_pla())
    monkeypatch.chdir(tmp_path)
    _forget_kept()
    tabled, swept, traces = [], [], []
    truth_table, run = Netlist.truth_table, sim.run
    monkeypatch.setattr(Netlist, "truth_table", lambda nl: tabled.append(nl) or truth_table(nl))

    def sweep(nl, stim):
        swept.append(nl)
        traces.append(run(nl, stim))
        return traces[-1]

    monkeypatch.setattr(sim, "run", sweep)
    rendered = {name: [] for name in ("export_csv", "voltage_view", "export_vcd")}
    for name, calls in rendered.items():
        export = getattr(sim, name)
        monkeypatch.setattr(
            sim, name, lambda *args, calls=calls, export=export: calls.append(args) or export(*args)
        )
    for argv in PARSER_CORPUS + FIXED + FIXED:
        monkeypatch.setattr(sys, "stdin", io.StringIO(_m1_pla()))
        main(list(argv))
        capsys.readouterr()
    kept = [circuits._shared(*key) for key in SHARED]
    assert sorted(map(id, tabled)) == sorted(map(id, kept))
    assert sorted(map(id, swept)) == sorted(id(circuits._shared(cid)) for cid in CIRCUIT_IDS)
    for cid, view in SHARED:
        assert circuits._table(cid, view) is circuits._table(cid, view)
        assert circuits._table(cid, view) == _fresh(cid, view).truth_table()
    # each export renders each circuit's one trace once, voltages by default
    for name, calls in rendered.items():
        assert sorted(id(args[0]) for args in calls) == sorted(map(id, traces)), name
        assert all(args[1:] in ((), (None,)) for args in calls), name
    assert circuits._sim_texts("mod4-add") is circuits._sim_texts("mod4-add")


def _mod4_mul_view():
    return quat_view("mod4-mul")


def test_a_replaced_entry_drops_its_tables_and_trace(capsys, monkeypatch):
    argvs = [
        ["table", "gf4-mul-mux"], ["table", "gf4-mul-mux", "--bits"], ["sim", "gf4-mul-mux"],
        ["sim", "gf4-mul-mux", "--vcd", "-"], ["sim", "gf4-mul-mux", "--volts"],
        ["compare", "gf4-mul-sop", "gf4-mul-mux"],
        ["compare", "mod4-mul", "gf4-mul-mux"],
    ]
    original = [run_cli(capsys, *argv) for argv in argvs]
    mul = quat_view("mod4-mul")
    trace = sim.run(mul, sim.sweep_all(mul))
    replaced = dataclasses.replace(REGISTRY["gf4-mul-mux"], build=_mod4_mul_view)
    monkeypatch.setitem(REGISTRY, "gf4-mul-mux", replaced)
    got = [run_cli(capsys, *argv) for argv in argvs]
    assert got == [
        run_cli(capsys, "table", "mod4-mul"),
        (0, "\n".join(["x y q", *(" ".join(map(str, row)) for row in trace.rows)]) + "\n", ""),
        (0, sim.export_csv(trace), ""),
        (0, sim.export_vcd(trace), ""),
        (0, sim.voltage_view(trace), ""),
        (1, "DIFFER at x=2 y=2: 3 vs 0\n", ""),
        (0, "EQUAL (16 vectors)\n", ""),
    ]
    assert all(new != old for new, old in zip(got, original))
    monkeypatch.undo()
    assert [run_cli(capsys, *argv) for argv in argvs] == original


def test_a_voltage_map_renders_its_own_texts_and_keeps_none(capsys, tmp_path):
    (tmp_path / "v.json").write_text('{"quat": [0, 0.5, 1, 1.5], "bin": [-1, 1]}')
    (tmp_path / "v.cfg").write_text(f"voltage_map={tmp_path / 'v.json'}\n")
    default = run_cli(capsys, "sim", "mod4-add", "--volts")
    kept = circuits._sim_texts("mod4-add")
    custom = run_cli(capsys, "sim", "mod4-add", "--volts", "--config", str(tmp_path / "v.cfg"))
    assert custom[1].splitlines()[:3] == [
        "time,x1,x2,y1,y2,a1,a2", "0,-1.0,-1.0,-1.0,-1.0,-1.0,-1.0", "1,-1.0,-1.0,-1.0,1.0,-1.0,1.0",
    ]
    assert default[1].splitlines()[2] == "1,0.0,0.0,0.0,3.3,0.0,3.3"
    assert run_cli(capsys, "sim", "mod4-add", "--volts") == default
    assert circuits._sim_texts("mod4-add") is kept
    mux = run_cli(capsys, "sim", "gf4-mul-mux", "--volts", "--config", str(tmp_path / "v.cfg"))
    assert mux[1].splitlines()[-1] == "15,1.5,1.5,1.0"
    assert run_cli(capsys, "sim", "gf4-mul-mux", "--volts")[1].splitlines()[-1] == "15,3.3,3.3,2.2"


def test_table_and_compare_load_no_sim():
    run = "import io, sys, mvq.cli; sys.stdout = io.StringIO(); "
    run += "assert mvq.cli.main(['table', 'mod4-add']) == 0; "
    run += "assert mvq.cli.main(['table', 'mod4-add', '--bits']) == 0; "
    run += "assert mvq.cli.main(['compare', 'gf4-mul-sop', 'gf4-mul-mux']) == 0; "
    run += "assert mvq.cli.main(['verify', 'all']) == 0; sys.stdout = sys.__stdout__"
    loaded = _fresh_import(run)
    assert "mvq.circuits" in loaded
    assert not loaded & {"mvq.sim", "mvq.minimizer"}
    assert "mvq.sim" in _fresh_import("import io, sys, mvq.cli; sys.stdout = io.StringIO(); "
                                      "mvq.cli.main(['sim', 'q2b']); sys.stdout = sys.__stdout__")


def test_import_builds_nothing():
    loaded = _fresh_import("import mvq.cli, mvq.circuits; assert mvq.circuits._KEPT == {}")
    assert "mvq.minimizer" not in loaded


def _broken_neg():
    n = Netlist([("x1", B), ("x2", B)], [("n1", B), ("n2", B)])
    n.connect_output("n1", n.input_net("x1"))  # wrong: drops the xor
    n.connect_output("n2", n.input_net("x2"))
    return n


def test_a_replaced_registry_entry_is_read_then_dropped(capsys, monkeypatch):
    passed = (0, "mod4-neg: PASS (4 vectors)\n", "")
    assert run_cli(capsys, "verify", "mod4-neg") == passed
    bits = run_cli(capsys, "table", "mod4-neg", "--bits")
    broken = dataclasses.replace(REGISTRY["mod4-neg"], build=_broken_neg)
    gone = weakref.ref(broken)
    monkeypatch.setitem(REGISTRY, "mod4-neg", broken)
    del broken
    code, out, _ = run_cli(capsys, "verify", "mod4-neg")
    assert (code, out.split()[:3]) == (1, ["mod4-neg:", "FAIL", "at"])
    assert run_cli(capsys, "table", "mod4-neg", "--bits") != bits
    assert run_cli(capsys, "verify", "all")[1].endswith("9/10 circuits PASS\n")
    assert run_cli(capsys, "metrics", "mod4-neg")[1].splitlines()[1] == "gates: 0"
    monkeypatch.undo()
    assert run_cli(capsys, "verify", "mod4-neg") == passed
    assert gone() is None
    assert run_cli(capsys, "table", "mod4-neg", "--bits") == bits
    assert run_cli(capsys, "verify", "all")[1].endswith("10/10 circuits PASS\n")


def test_a_replaced_registry_entry_has_its_metrics_read_then_dropped(capsys, monkeypatch):
    metrics = run_cli(capsys, "metrics", "mod4-neg")
    kept = circuit_metrics("mod4-neg")
    broken = dataclasses.replace(REGISTRY["mod4-neg"], build=_broken_neg)
    monkeypatch.setitem(REGISTRY, "mod4-neg", broken)
    assert run_cli(capsys, "metrics", "mod4-neg")[1].splitlines()[1] == "gates: 0"
    assert circuit_metrics("mod4-neg").gate_count == 0
    monkeypatch.undo()
    assert run_cli(capsys, "metrics", "mod4-neg") == metrics
    assert circuit_metrics("mod4-neg") == kept
    assert circuit_metrics("mod4-neg") is circuit_metrics("mod4-neg")


@pytest.mark.parametrize(
    "patch",
    [
        lambda m2, n1: (m2[:4] + ("x2 y1",) + m2[5:],),
        lambda m2, n1: (n1[:3] + (1,) + n1[4:],),
        lambda m2, n1: (m2[:-1] + (("-1-0",),),),
    ],
    ids=["form", "bit-index", "sop"],
)
def test_audit_rows_follow_a_replaced_published_table(capsys, monkeypatch, patch):
    assert run_cli(capsys, "audit") == (0, AUDIT_STDOUT, "")
    published = patch(_published_row("mod4-mul", "m2"), _published_row("mod4-neg", "n1"))
    monkeypatch.setattr(minimizer, "_PUBLISHED", published)
    code, out, _ = run_cli(capsys, "audit")
    assert code == 1
    assert out.splitlines()[1].split()[2] == "NO"
    monkeypatch.undo()
    assert run_cli(capsys, "audit") == (0, AUDIT_STDOUT, "")
