"""Spans around calls into mvq's modules, for the traced run only.

`install` replaces public functions of each module (and the names `cli`
imports from them) with wrappers that record a span: name, start, end and
the span open when it began. Counts are taken from arguments and results
at the same boundaries. Nothing inside the program is changed; `uninstall`
puts every original back.
"""

from __future__ import annotations

import dataclasses
import time
from array import array

import mvq.arith_core
import mvq.circuits
import mvq.cli
import mvq.minimizer
import mvq.netlist
import mvq.sim

SUBCOMMANDS = ("table", "verify", "metrics", "minimize", "audit", "sim", "compare")


class Recorder:
    """Spans kept in flat arrays, aggregated when the run ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._evaluating = 0  # open evaluation entry spans
        self._kept = 0  # spans and counts of the operations settled so far
        self._kept_counts: dict[str, float] = {}

    def count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn, counter=None, evaluation=False):
        """`counter(recorder, args, result)` runs after a normal return.
        Evaluation entry points count gate evaluations only when no other
        entry point is open, so nested calls are not counted twice."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0.0)
            self.start.append(clock())
            self.stack.append(idx)
            outer = evaluation and self._evaluating == 0
            self._evaluating += evaluation
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
                self._evaluating -= evaluation
            if counter is not None:
                counter(self, args, result)
            if outer:
                self.count("netlist.eval_s", self.end[idx] - self.start[idx])
                gates = len(args[0].gates)
                rows = 1 if name == "netlist.evaluate" else len(result.rows)
                self.count("netlist.gate_evals", rows * gates)
            return result

        return traced

    def settle(self, missed: bool) -> None:
        """End an operation. The spans and counts of one cut off by its
        deadline are dropped, as the rates leave out its time too."""
        self.stack.clear()
        self._evaluating = 0
        if missed:
            for arr in (self.name, self.parent, self.start, self.end):
                del arr[self._kept:]
            self.counts = dict(self._kept_counts)
        else:
            self._kept = len(self.start)
            self._kept_counts = dict(self.counts)

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: inclusive seconds, self seconds, calls. Self time
        is a span's duration minus the durations of its direct children."""
        child = array("d", bytes(8 * len(self.start)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, nid in enumerate(self.name):
            key = self.names[nid]
            d = self.end[i] - self.start[i]
            total[key] = total.get(key, 0.0) + d
            own[key] = own.get(key, 0.0) + d - child[i]
            calls[key] = calls.get(key, 0) + 1
        return total, own, calls


def _count(key, of):
    return lambda rec, args, result: rec.count(key, of(args, result))


def install(rec: Recorder) -> list:
    """Wrap the layer boundaries; returns what `uninstall` needs."""
    saved = []

    def patch(owners, attr, name, counter=None, evaluation=False):
        fn = getattr(owners[0], attr)
        wrapped = rec.wrap(name, fn, counter, evaluation)
        for owner in owners:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    nl, sim, circ, mini, cli = mvq.netlist, mvq.sim, mvq.circuits, mvq.minimizer, mvq.cli
    patch([nl.Netlist], "evaluate", "netlist.evaluate", evaluation=True)
    patch([nl.Netlist], "truth_table", "netlist.truth_table", evaluation=True)
    patch([nl.Netlist], "metrics", "netlist.metrics")
    patch([nl], "from_json", "netlist.from_json",
          _count("netlist.from_json.gates", lambda a, r: len(r.gates)))
    patch([sim, cli], "sweep_all", "sim.sweep_all")
    patch([sim, cli], "run", "sim.run",
          _count("sim.run.rows", lambda a, r: len(r.rows)), evaluation=True)
    patch([sim, cli], "export_csv", "sim.export_csv",
          _count("sim.export_csv.bytes", lambda a, r: len(r.encode())))
    patch([sim, cli], "export_vcd", "sim.export_vcd",
          _count("sim.export_vcd.bytes", lambda a, r: len(r.encode())))
    patch([sim, cli], "voltage_view", "sim.voltage_view")
    vectors = _count("circuits.vectors", lambda a, r: sum(v.vectors for v in r))
    patch([cli], "verify_all", "circuits.verify_all", vectors)
    patch([cli], "verify", "circuits.verify",
          _count("circuits.vectors", lambda a, r: r.vectors))
    patch([cli], "quat_view", "circuits.quat_view")
    patch([cli], "circuit_metrics", "circuits.circuit_metrics")
    patch([mini, cli], "parse_pla", "minimizer.parse_pla")
    patch([mini, cli], "minimize_exact", "minimizer.minimize_exact",
          _count("minimizer.decided", lambda a, r: 1))
    patch([mini], "prime_implicants", "minimizer.prime_implicants",
          _count("minimizer.primes", lambda a, r: len(r)))
    patch([mini, cli], "recognize_xor", "minimizer.recognize_xor")
    patch([mini, cli], "audit_published_forms", "minimizer.audit")
    patch([mvq.arith_core, circ, mini], "apply_op", "arith_core.apply_op")
    patch([cli], "main", "cli.main")
    patch([cli], "build_parser", "cli.build_parser")
    for sub in SUBCOMMANDS:
        patch([cli], f"cmd_{sub}", f"cli.{sub}")
    for cid, info in list(circ.REGISTRY.items()):
        saved.append((circ.REGISTRY, cid, info))
        circ.REGISTRY[cid] = dataclasses.replace(
            info, build=rec.wrap("circuits.build", info.build)
        )
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, old in reversed(saved):
        if isinstance(owner, dict):
            owner[attr] = old
        else:
            setattr(owner, attr, old)


LAYER_METRICS = (
    # name, unit, source: ("total"|"self"|"calls", span) or ("count", key)
    ("netlist.truth_table.s", "s", ("total", "netlist.truth_table")),
    ("netlist.gate_evals", "count", ("count", "netlist.gate_evals")),
    ("netlist.ns_per_gate_eval", "ns", None),
    ("netlist.evaluate.s", "s", ("total", "netlist.evaluate")),
    ("netlist.evaluate.calls", "count", ("calls", "netlist.evaluate")),
    ("netlist.from_json.s", "s", ("total", "netlist.from_json")),
    ("netlist.from_json.gates", "count", ("count", "netlist.from_json.gates")),
    ("netlist.metrics.s", "s", ("total", "netlist.metrics")),
    ("sim.sweep_all.s", "s", ("total", "sim.sweep_all")),
    ("sim.run.s", "s", ("total", "sim.run")),
    ("sim.run.rows", "count", ("count", "sim.run.rows")),
    ("sim.export_csv.s", "s", ("total", "sim.export_csv")),
    ("sim.export_csv.bytes", "bytes", ("count", "sim.export_csv.bytes")),
    ("sim.export_vcd.s", "s", ("total", "sim.export_vcd")),
    ("sim.export_vcd.bytes", "bytes", ("count", "sim.export_vcd.bytes")),
    ("sim.voltage_view.s", "s", ("total", "sim.voltage_view")),
    ("minimizer.parse_pla.s", "s", ("total", "minimizer.parse_pla")),
    ("minimizer.prime_implicants.s", "s", ("total", "minimizer.prime_implicants")),
    ("minimizer.primes", "count", ("count", "minimizer.primes")),
    ("minimizer.cover.s", "s", ("self", "minimizer.minimize_exact")),
    ("minimizer.timeouts", "count", ("count", "minimizer.timeouts")),
    ("minimizer.decided", "count", ("count", "minimizer.decided")),
    ("minimizer.recognize_xor.s", "s", ("total", "minimizer.recognize_xor")),
    ("minimizer.audit.s", "s", ("total", "minimizer.audit")),
    ("circuits.verify_all.s", "s", ("total", "circuits.verify_all")),
    ("circuits.vectors", "count", ("count", "circuits.vectors")),
    ("circuits.quat_view.s", "s", ("total", "circuits.quat_view")),
    ("circuits.build.s", "s", ("total", "circuits.build")),
    ("arith_core.apply_op.calls", "count", ("calls", "arith_core.apply_op")),
    ("arith_core.apply_op.s", "s", ("total", "arith_core.apply_op")),
    ("cli.build_parser.s", "s", ("total", "cli.build_parser")),
) + tuple((f"cli.{sub}.self_s", "s", ("self", f"cli.{sub}")) for sub in SUBCOMMANDS)


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    total, own, calls = rec.totals()
    source = {"total": total, "self": own, "calls": calls, "count": rec.counts}
    out = {}
    for name, unit, src in LAYER_METRICS:
        if src is None:
            evals = rec.counts.get("netlist.gate_evals", 0)
            value = 1e9 * rec.counts.get("netlist.eval_s", 0.0) / evals if evals else 0.0
        else:
            value = source[src[0]].get(src[1], 0)
        out[name] = (value, unit)
    return out
