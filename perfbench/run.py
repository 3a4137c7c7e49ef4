"""mvq benchmark: seeded closed-loop workloads over the public API.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One client, one thread: each operation starts when the previous one has
been checked. The last line of a single-workload run is a JSON object
with `correct`, `attempted`, `failed` and `metrics`; `--workload all` runs
each workload in its own process and prints one row per workload.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("catalog", "sweep", "minimize")
SETUP_REPEATS = 60
# whole cycles the traced run replays, per 20 s of --seconds; fixed, so
# its counts repeat exactly for a seed
TRACED_CYCLES = {"catalog": 20, "sweep": 1, "minimize": 12}


def import_program():
    """Import mvq from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import mvq.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"cannot import mvq from {SRC}: {exc}")
    if Path(sys.modules["mvq"].__file__).resolve().parent.parent != SRC:
        sys.exit(f"mvq was imported from outside {SRC}")


def setup_seconds(speed) -> tuple[float, float]:
    """Time a fresh interpreter takes to import mvq.cli with the circuit
    registry ready, timed inside it (interpreter start-up is not mvq's),
    as the median of SETUP_REPEATS spawns: each divided by the machine
    slowdown probed around it, and raw. A first, unmeasured import writes
    the bytecode caches."""
    code = (
        "import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
        "import mvq.cli; assert len(mvq.cli.REGISTRY) == 10; "
        "print(time.perf_counter() - t0)"
    )
    scaled, raw = [], []
    before = speed.slowdown()
    for _ in range(SETUP_REPEATS + 1):
        child = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)], check=True,
                               cwd=ROOT, capture_output=True, text=True)
        after = speed.slowdown()
        raw.append(float(child.stdout))
        scaled.append(raw[-1] / ((before + after) / 2))
        before = after
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failed operations are stored as inf."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def highest_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest of p90/p99 with at least ten samples beyond it."""
    for label, q in (("p99", 0.99), ("p90", 0.9)):
        if len(values) * (1 - q) >= 10:
            return label, percentile(values, q)
    return None


def untraced(args) -> dict:
    import gen
    import speed
    import work

    meter = speed.Speedometer()
    setup, raw_setup = setup_seconds(meter)
    tally = work.run_cycles(args.workload, gen.stream(args.workload, args.seed),
                            args.seconds, speed=meter)
    ops_rate, rows_rate = tally.rates()
    raw_ops_rate, raw_rows_rate = tally.rates(raw=True)
    tail = highest_percentile(tally.latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # after peak_rss_mb: a function that misses its deadline can grow a lot
    defects = known_defects(args)
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (ops_rate, "1/s"),
        "rows_per_s": (rows_rate, "1/s"),
        "p50_ms": (1e3 * percentile(tally.latencies, 0.5), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    shown = dict(metrics)
    shown["fail_share"] = (tally.failed / tally.attempted, "share")
    shown["raw_setup_s"] = (raw_setup, "s")
    shown["raw_ops_per_s"] = (raw_ops_rate, "1/s")
    shown["raw_rows_per_s"] = (raw_rows_rate, "1/s")
    shown["raw_p50_ms"] = (1e3 * percentile(tally.raw_latencies, 0.5), "ms")
    shown["slowdown"] = (statistics.median(meter.samples), "ratio")
    if tail is not None:
        shown[f"{tail[0]}_ms"] = (1e3 * tail[1], "ms")
    shown["known_defects"] = (defects.shown, "count")
    return {"tally": tally, "defects": defects, "metrics": metrics, "shown": shown}


def known_defects(args):
    """Run the workload's known-defect probes, untimed and untraced."""
    import gen
    import work

    return work.Defects(args.workload, gen.known_defects(args.workload, args.seed))


def traced(args) -> dict:
    import gen
    import spans
    import speed
    import work

    count = max(1, round(TRACED_CYCLES[args.workload] * args.seconds / 20))
    cycles = list(itertools.islice(gen.stream(args.workload, args.seed), count))
    meter = speed.Speedometer()
    plain = work.run_cycles(args.workload, cycles, speed=meter)
    rec = spans.Recorder()
    saved = spans.install(rec)
    try:
        tally = work.run_cycles(args.workload, cycles, on_op=rec.settle, speed=meter)
    finally:
        spans.uninstall(saved)
    defects = known_defects(args)
    rec.count("minimizer.timeouts", tally.timeouts + defects.timeouts)
    metrics = spans.layer_metrics(rec)
    metrics["trace.ops"] = (tally.attempted, "count")
    both = [(t, p) for t, p in zip(tally.latencies, plain.latencies)
            if math.isfinite(t) and math.isfinite(p)]
    metrics["trace.overhead"] = (sum(t for t, _ in both) / sum(p for _, p in both), "ratio")
    return {"tally": tally, "defects": defects, "metrics": metrics, "shown": metrics}


def report(args, result) -> None:
    tally, defects = result["tally"], result["defects"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {tally.attempted}  failed {tally.failed}  "
          f"known defects shown {defects.shown} of {defects.probes}")
    for name, (value, unit) in result["shown"].items():
        print(f"  {name:32s} {value:>14.6g} {unit}")
    for problem in tally.problems + defects.unexpected:
        print(f"unexpected failure: {problem}", file=sys.stderr)
    detail = {k: {"value": v, "unit": u} for k, (v, u) in result["shown"].items()}
    print("detail " + json.dumps(detail))
    print(json.dumps({
        # a probe that no longer shows its defect is not wrong
        "correct": tally.failed == 0 and not defects.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))


def run_all(args) -> int:
    """Each workload in its own process, then one row per workload."""
    rows = {}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: exit {proc.returncode}")
            status = 1
            continue
        final = json.loads(lines[-1])
        detail = json.loads(lines[-2].removeprefix("detail "))
        detail["attempted"] = {"value": final["attempted"], "unit": "count"}
        detail["correct"] = {"value": final["correct"], "unit": ""}
        rows[workload] = detail
        status |= not final["correct"]
    names = list(dict.fromkeys(k for d in rows.values() for k in d))
    units = {k: d[k]["unit"] for d in rows.values() for k in d}
    print(f"{'metric':32s} {'unit':8s}" + "".join(f"{w:>14s}" for w in rows))
    for name in names:
        cells = []
        for w in rows:
            cell = rows[w].get(name)
            cells.append("-" if cell is None else
                         str(cell["value"]) if isinstance(cell["value"], bool) else
                         f"{cell['value']:.6g}")
        print(f"{name:32s} {units[name]:8s}" + "".join(f"{c:>14s}" for c in cells))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not SRC.is_dir():
        sys.exit(f"no program sources at {SRC}")
    if args.workload == "all":
        return run_all(args)
    import_program()
    result = traced(args) if args.trace else untraced(args)
    report(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
