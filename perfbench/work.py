"""The three workloads: run each operation, time it, check its output.

Only the calls into mvq are timed. Every check compares against a
reference that does not use the code under test: `ref` for gates, covers,
expressions and VCD, the `arith_core` tables for quaternary grids, and
stdout digests recorded when the benchmark was added, for the fixed CLI
commands.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import signal
import statistics
import sys
import time
from pathlib import Path

import mvq.arith_core as arith_core
import mvq.cli
import mvq.minimizer as minimizer
import mvq.netlist as netlist
import mvq.sim as sim

import ref
from gen import CIRCUIT_ROWS, MISSED_DEADLINE

DIGESTS = Path(__file__).with_name("digests.json")
# about ten times the slowest timed function (gen.PETRICK_WORK_CAP)
MINIMIZE_DEADLINE_S = 0.5
SAMPLED_ROWS = 24

_OPS = arith_core.OpKind
ORACLE = {
    "mod4-add": _OPS.MOD4_ADD, "mod4-sub": _OPS.MOD4_SUB, "mod4-mul": _OPS.MOD4_MUL,
    "mod4-neg": _OPS.MOD4_NEG, "mod4-dbl": _OPS.MOD4_DOUBLE, "gf4-add": _OPS.GF4_ADD,
    "gf4-mul-sop": _OPS.GF4_MUL, "gf4-mul-mux": _OPS.GF4_MUL,
}


class DeadlineMissed(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise DeadlineMissed in this thread once `seconds` have passed."""
    armed = True

    def fire(signum, frame):
        if armed:
            raise DeadlineMissed()

    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def guarded(check, *args) -> str | None:
    """A check's verdict; output the check cannot even read fails it."""
    try:
        return check(*args)
    except (ValueError, IndexError, KeyError, AttributeError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


def run_cli(argv: list[str], stdin: str | None):
    """cli.main with captured streams: (seconds, exit code, stdout, stderr,
    exception)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    code = exc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mvq.cli.main(list(argv))
    except Exception as e:  # the failure is the measurement
        exc = e
    finally:
        seconds = time.perf_counter() - t0
        sys.stdin = saved_stdin
    return seconds, code, out.getvalue(), err.getvalue(), exc


# --- catalog


def _expected_level(cid: str, operands: list[int]) -> int:
    if cid in ("q2b", "b2q"):
        return operands[0]
    return arith_core.apply_op(ORACLE[cid], *operands)


def check_table(cid: str, text: str) -> str | None:
    """A `table` printout against the arith_core tables, grid or columns."""
    lines = text.splitlines()
    seen = set()
    if lines[0].startswith("x\\y"):
        for ln in lines[2:]:
            a, cells = ln.split("|")
            for b, cell in enumerate(cells.split()):
                seen.add((int(a), b))
                if int(cell) != _expected_level(cid, [int(a), b]):
                    return f"grid cell {a},{b} is {cell}"
    else:
        header = lines[0].split()
        operands = 1 if CIRCUIT_ROWS[cid] == 4 else 2
        width = 1 if cid == "q2b" else operands * (2 if header[0] == "x1" else 1)
        for ln in lines[1:]:
            vals = [int(v) for v in ln.split()]
            ins, outs = vals[:width], vals[width:]
            if width == 2 * operands:  # bit pairs, msb first
                ins = [2 * ins[k] + ins[k + 1] for k in range(0, width, 2)]
            got = outs[0] if len(outs) == 1 else 2 * outs[0] + outs[1]
            seen.add(tuple(vals[:width]))
            if got != _expected_level(cid, ins):
                return f"row {ln.strip()!r} disagrees with the oracle"
    if len(seen) != CIRCUIT_ROWS[cid]:
        return f"{len(seen)} distinct rows, expected {CIRCUIT_ROWS[cid]}"
    return None


def check_minimized(op: dict, lines: list[str]) -> str | None:
    """An SOP line (and an XOR line) against the function's own table."""
    on, dc, off = ref.table_masks(op["outputs"])
    sop = ref.expression_mask(lines[0], op["names"])
    if sop & on != on or sop & off:
        return "SOP disagrees with the table"
    if ref.sop_cost(lines[0]) != ref.min_cover_cost(op["n"], on, dc):
        return "SOP is not a minimum cover"
    if "--xor" in op["argv"]:
        if len(lines) != 3 or not lines[2].startswith("two-input gates: "):
            return "missing XOR report"
        if ref.expression_mask(lines[1], op["names"]) != sop:
            return "XOR form differs from the SOP"
    return None


def catalog_op(op: dict, digests: dict) -> tuple[float, str | None]:
    seconds, code, out, err, exc = run_cli(op["argv"], op["stdin"])
    if exc is not None:
        return seconds, f"raised {type(exc).__name__}: {exc}"
    if code != op["expect"]:
        return seconds, f"exit {code}, expected {op['expect']}"
    if op["kind"] == "fixed":
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest != digests[command_key(op["argv"])]:
            return seconds, "stdout differs from the recorded digest"
        if op["argv"][:1] == ["table"] and code == 0:
            return seconds, guarded(check_table, op["argv"][1], out)
        return seconds, None
    if op["kind"] == "invalid":
        if out or not err.strip() or "Traceback" in err:
            return seconds, "no clean error report"
        return seconds, None
    return seconds, guarded(check_minimized, op, out.splitlines())


# --- sweep


def sweep_op(op: dict) -> tuple[float, str | None]:
    t0 = time.perf_counter()
    nl = netlist.from_json(op["text"])
    table = nl.truth_table()
    trace = sim.run(nl, sim.sweep_all(nl))
    csv = sim.export_csv(trace)
    vcd = sim.export_vcd(trace)
    volts = sim.voltage_view(trace)
    seconds = time.perf_counter() - t0
    return seconds, guarded(check_sweep, op, table, trace, csv, vcd, volts)


def check_sweep(op, table, trace, csv, vcd, volts) -> str | None:
    model = ref.RefNetlist(op["doc"])
    if len(table.rows) != op["rows"]:
        return f"{len(table.rows)} truth-table rows, expected {op['rows']}"
    rng = random.Random(op["sample_seed"])
    sample = {0, op["rows"] - 1, *rng.sample(range(op["rows"]), SAMPLED_ROWS)}
    for r in sorted(sample):
        levels = model.row_levels(r)
        if table.rows[r] != (levels, model.evaluate(levels)):
            return f"truth-table row {r} disagrees with the reference evaluator"
    if list(trace.rows) != [ins + outs for ins, outs in table.rows]:
        return "trace rows differ from truth-table rows"
    types = dict(trace.signals)
    if sim.parse_csv(csv, types) != trace:
        return "CSV does not read back to the trace"
    signals = [(name, t.value) for name, t in trace.signals]
    problem = ref.check_vcd(vcd, signals, trace.rows, trace.step_duration)
    if problem:
        return f"VCD: {problem}"
    vlines = volts.split("\n")
    scale = {ref.B: 3.3, ref.Q: 1.1}
    for r in sorted(sample):
        cells = vlines[1 + r].split(",")[1:]
        want = [f"{scale[t] * v:.1f}" for (_, t), v in zip(signals, trace.rows[r])]
        if cells != want:
            return f"voltage row {r} is {cells}"
    return None


# --- minimize


def minimize_op(op: dict) -> tuple[float, str | None, bool]:
    """(seconds, problem, missed the deadline)."""
    t0 = time.perf_counter()
    try:
        with deadline(MINIMIZE_DEADLINE_S):
            spec = minimizer.parse_pla(op["text"])
            best = minimizer.minimize_exact(spec)
            report = minimizer.recognize_xor(best, spec.names)
    except DeadlineMissed:
        return time.perf_counter() - t0, f"{MISSED_DEADLINE} of {MINIMIZE_DEADLINE_S} s", True
    seconds = time.perf_counter() - t0
    return seconds, guarded(check_minimize, op, spec, best, report), False


def check_minimize(op, spec, best, report) -> str | None:
    if spec.outputs != op["outputs"] or spec.names != op["names"]:
        return "parsed table differs from the generated one"
    problem = ref.check_cover(op["n"], op["outputs"], best.cubes)
    if problem:
        return problem
    on, dc, _ = ref.table_masks(op["outputs"])
    cost = (len(best.cubes), sum(ref.literals(c) for c in best.cubes))
    if cost != ref.min_cover_cost(op["n"], on, dc):
        return f"cover cost {cost} is not the minimum"
    union = 0
    for c in best.cubes:
        union |= ref.cube_mask(c)
    if ref.expression_mask(report.rendered, op["names"]) != union:
        return "XOR rendering differs from the cover"
    return None


# --- the closed loop


class Tally:
    """Per-operation outcomes of one phase of a run."""

    def __init__(self) -> None:
        # failures are stored as inf; raw_ before dividing by the slowdown
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.failed = 0
        self.timeouts = 0
        self.problems: list[str] = []
        # (seconds, raw seconds, rows) of the passed operations of each slot
        self.slots: dict[int, list[tuple[float, float, int]]] = {}

    def add(self, op: dict, seconds: float, raw: float, problem: str | None,
            missed: bool) -> None:
        self.timeouts += missed
        if problem is None:
            self.latencies.append(seconds)
            self.raw_latencies.append(raw)
            self.slots.setdefault(op["slot"], []).append((seconds, raw, op["rows"]))
            return
        self.latencies.append(float("inf"))
        self.raw_latencies.append(float("inf"))
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{_describe(op)}: {problem}")

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def rates(self, raw: bool = False) -> tuple[float, float]:
        """Passed operations and their input rows per second of a typical
        cycle: one operation of each slot that passed, over the sum of each
        slot's median time. Every cycle fills the same slots, so a slow
        outlier, from its input or from load outside, moves one sample of
        its slot, not the rate. Failures are left out: a missed deadline is
        cut off at a time the benchmark chose, not the program."""
        k = 1 if raw else 0
        busy = sum(statistics.median(p[k] for p in ps) for ps in self.slots.values())
        rows = sum(statistics.fmean(p[2] for p in ps) for ps in self.slots.values())
        return len(self.slots) / busy, rows / busy


def _describe(op: dict) -> str:
    if "argv" in op:
        return "mvq " + command_key(op["argv"])
    if "doc" in op:
        return f"netlist with {len(op['doc']['gates'])} gates"
    return f"{op['n']}-variable function"


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def runner(workload: str):
    """op -> (seconds, problem, missed deadline)."""
    if workload == "catalog":
        digests = load_digests()
        return lambda op: (*catalog_op(op, digests), False)
    if workload == "sweep":
        return lambda op: (*sweep_op(op), False)
    return minimize_op


PROBE_EVERY_S = 0.25


def run_cycles(workload: str, cycles, seconds: float | None = None, on_op=None,
               speed=None) -> Tally:
    """Run the operations of each cycle in order, one at a time. With
    `seconds`, start no new cycle once that much wall time has passed, so a
    run always holds whole cycles and the same mix of inputs. With a
    `speed.Speedometer`, each operation's time is divided by the mean of the
    machine slowdowns probed just before and just after it."""
    run_one = runner(workload)
    tally = Tally()
    pending: list[tuple[dict, float, str | None, bool]] = []
    before = speed.slowdown() if speed else 1.0

    def flush() -> None:
        nonlocal before
        after = speed.slowdown() if speed else 1.0
        factor = (before + after) / 2
        for op, took, problem, missed in pending:
            tally.add(op, took / factor, took, problem, missed)
        pending.clear()
        before = after

    stop = None if seconds is None else time.perf_counter() + seconds
    for cycle in cycles:
        if stop is not None and time.perf_counter() >= stop:
            break
        since = 0.0
        for op in cycle:
            took, problem, missed = run_one(op)
            pending.append((op, took, problem, missed))
            since += took
            if on_op is not None:
                on_op(missed)
            if since >= PROBE_EVERY_S:
                flush()
                since = 0.0
        flush()
    return tally


class Defects:
    """Outcomes of the known-defect probes of one run."""

    def __init__(self, workload: str, probes: list[dict]) -> None:
        run_one = runner(workload)
        self.probes = len(probes)
        self.shown = self.timeouts = 0
        self.unexpected: list[str] = []
        for op in probes:
            _, problem, missed = run_one(op)
            self.timeouts += missed
            if problem is not None and op["known_defect"] in problem:
                self.shown += 1
            elif problem is not None:
                self.unexpected.append(f"{_describe(op)}: {problem}")
