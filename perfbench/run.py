"""Benchmark of the ffsipp scheduler, end to end and per layer.

One workload, one seed:

    python3 perfbench/run.py --workload replay_rounds --seed 1 --seconds 30 --trace 0

prints a table of metrics (units, sample counts, absent metrics with their
reason), the failure report and the digests, then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs one untraced unit as a reference,
then traced units, and reports the per-layer metrics and the tracing
overhead.

Every workload, untraced and traced, in one table:

    python3 perfbench/run.py --report --seed 1

Run from the root of a checkout; the program is imported from ``src``.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
PROBES = 3  # speed probes before and after each set-up, median taken
CHILD_TIMEOUT_S = 900

# name -> unit. The gated ones are reported by every workload (see
# BENCHMARK.json). adj_* and setup_s are times scaled to one machine speed by
# the probes next to each round or set-up (workloads.speed_probe); the
# unscaled wall times move by up to a third between runs of the same inputs
# on a shared host.
GATED = {
    "setup_s": "s",
    "max_rss_mb": "MB",
    "adj_round_ms_p50": "ms",
    "adj_rounds_per_s": "1/s",
}
REPORTED = {
    **GATED,
    "setup_wall_s": "s",
    "adj_round_ms_p95": "ms",
    "round_ms_p50": "ms",
    "round_ms_p95": "ms",
    "rounds_per_s": "1/s",
    "ffsipp.run_s": "s",
    "sipp.run_s": "s",
    "ffsipp.total_cost": "cost",
    "sipp.total_cost": "cost",
    "ffsipp.sla_adherence_pct": "%",
    "sipp.sla_adherence_pct": "%",
    "runs_failed_pct": "%",
    "rounds_failed_pct": "%",
}


def _setup_in_child(workloads, workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of a fresh interpreter, as it reports it, and the same
    scaled to the reference speed by probes taken just before and after."""
    before = statistics.median(workloads.speed_probe() for _ in range(PROBES))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    after = statistics.median(workloads.speed_probe() for _ in range(PROBES))
    wall = float(proc.stdout.strip().splitlines()[-1])
    return wall, wall * workloads.NOMINAL_PROBE_S / statistics.fmean((before, after))


def _closed_loop(workloads, workload: str, ctx, seed: int, count: int) -> list:
    """Run ``count`` units back to back."""
    return [workloads.run_unit(workload, ctx, seed, i) for i in range(count)]


def _end_to_end(workloads, workload: str, units: list, setup: list[tuple[float, float]]) -> dict:
    """Every reported end-to-end metric: name -> {value, unit, n} or {absent}."""
    out: dict[str, dict] = {}

    def put(name, value, n):
        out[name] = {"value": value, "unit": REPORTED[name], "n": n}

    def absent(name, reason):
        out[name] = {"absent": reason, "unit": REPORTED[name]}

    from tracer import percentile

    wall = [ms for u in units for ms in u.round_ms]
    adjusted = [ms * k for u in units for ms, k in zip(u.round_ms, u.round_scale)]
    n = len(wall)
    put("setup_s", statistics.median(adj for _, adj in setup), len(setup))
    put("max_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    put("adj_round_ms_p50", percentile(adjusted, 50), n)
    put("adj_rounds_per_s", n / (sum(adjusted) / 1000.0), n)
    put("setup_wall_s", statistics.median(wall for wall, _ in setup), len(setup))
    put("adj_round_ms_p95", percentile(adjusted, 95), n)
    put("round_ms_p50", percentile(wall, 50), n)
    put("round_ms_p95", percentile(wall, 95), n)
    put("rounds_per_s", n / (sum(wall) / 1000.0), n)
    put("rounds_failed_pct", 100.0 * sum(u.rounds_failed for u in units) / n, n)

    if workload not in workloads.SIM_WORKLOADS:
        for name in REPORTED:
            if name not in out:
                absent(name, "this workload makes no sim.run call")
        return out
    runs = [r for u in units for r in u.runs]
    put("runs_failed_pct", 100.0 * sum(r.failure is not None for r in runs) / len(runs), len(runs))
    for approach in workloads.APPROACHES:
        mine = [r for r in runs if r.approach == approach]
        done = [r.run_s for r in mine if r.failure is None]
        if done:
            put(f"{approach}.run_s", statistics.median(done), len(done))
        else:
            absent(f"{approach}.run_s", f"all {len(mine)} runs failed, first {mine[0].failure.line()}")
        first = mine[0]  # the run at the workload seed
        if first.failure is not None:
            reason = f"the run at the workload seed failed: {first.failure.line()}"
            absent(f"{approach}.total_cost", reason)
            absent(f"{approach}.sla_adherence_pct", reason)
        else:
            put(f"{approach}.total_cost", first.total_cost, 1)
            put(f"{approach}.sla_adherence_pct", first.sla_adherence_pct, 1)
    return out


def _adjusted_s(unit) -> float:
    return sum(ms * k for ms, k in zip(unit.round_ms, unit.round_scale)) / 1000.0


def _format(name: str, entry: dict) -> str:
    if "absent" in entry:
        return f"  {name:<42} absent: {entry['absent']}"
    return f"  {name:<42} {entry['value']:>14.4f} {entry['unit']:<6} (n={entry['n']})"


def _digests(units: list) -> dict[str, str]:
    out = {"unit": units[0].digest}
    for run in units[0].runs:
        out[run.approach] = run.digest or f"failed ({run.failure.error})"
    return out


def run_workload(args) -> int:
    start = time.perf_counter()
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads  # imports ffsipp and scipy

    ctx = workloads.setup(args.workload, args.seed)
    if args.setup_only:
        print(time.perf_counter() - start)
        return 0
    in_sim = args.workload in workloads.SIM_WORKLOADS

    # The unit count follows from --seconds alone, never from how fast this
    # run goes, so the rounds attempted (and the ones that fail) are the same
    # in every run at the same seed.
    count = workloads.unit_count(args.workload, args.seconds)
    reference = None
    if args.trace:
        from tracer import Tracer

        reference = workloads.run_unit(args.workload, ctx, args.seed)
        with Tracer() as tracer:
            units = _closed_loop(workloads, args.workload, ctx, args.seed, max(1, count - 1))
    else:
        setup = [_setup_in_child(workloads, args.workload, args.seed) for _ in range(SETUP_REPEATS)]
        units = _closed_loop(workloads, args.workload, ctx, args.seed, count)

    errors = [e for u in units for e in u.check_errors]
    # Same inputs must give the same plans: every replay unit, and the first
    # traced unit against the untraced reference.
    repeats = [units[0]] if in_sim else list(units)
    if reference is not None:
        repeats.append(reference)
    if len({u.digest for u in repeats}) > 1:
        errors.append(
            "traced and untraced plans differ" if reference else "repeated plans differ"
        )
    failures = [f for u in units for f in u.failures]
    reported = failures if in_sim else units[0].failures
    time_limit_hits = sum(u.time_limit_hits for u in units)

    if args.trace:
        timed_s = sum(sum(u.round_ms) for u in units) / 1000.0
        traced = tracer.metrics(timed_s, in_sim)
        overhead = _adjusted_s(units[0]) / _adjusted_s(reference) - 1.0
        traced["trace_overhead_pct"] = (100.0 * overhead, "%")
        time_limit_hits = max(time_limit_hits, tracer.time_limit_hits)
        table = {k: {"value": v, "unit": u, "n": len(tracer.rounds)} for k, (v, u) in traced.items()}
        gated = {k: {"value": v, "unit": u} for k, (v, u) in traced.items()}
    else:
        table = _end_to_end(workloads, args.workload, units, setup)
        gated = {k: {"value": table[k]["value"], "unit": table[k]["unit"]} for k in GATED}

    attempted = sum(u.rounds for u in units)

    kind = "per-layer (traced)" if args.trace else "end-to-end (untraced)"
    print(f"workload {args.workload}  seed {args.seed}  {kind}  units {len(units)}  "
          f"wall {time.perf_counter() - start:.1f} s")
    for name, entry in table.items():
        print(_format(name, entry))
    print(f"failures: {len(failures)} of {attempted} rounds attempted")
    for failure in reported:
        print(f"  {failure.line()}")
    if time_limit_hits:
        print(f"WARNING: {time_limit_hits} solves stopped on the wall-clock limit; "
              "their plans depend on machine speed")
    digest = _digests(units)
    for name, value in digest.items():
        print(f"digest {name}: {value}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "metrics": table,
        "failures": [f.line() for f in reported],
        "digests": digest,
        "time_limit_hits": time_limit_hits,
        "errors": errors,
    }
    print("DETAIL " + json.dumps(detail))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": gated,
    }))
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode:
        raise SystemExit(f"{workload} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    detail = json.loads(next(l for l in lines if l.startswith("DETAIL "))[len("DETAIL "):])
    detail["result"] = json.loads(lines[-1])
    return detail


def report(args) -> int:
    """Every workload untraced and traced, each in its own process."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads

    ok = True
    for workload in workloads.WORKLOADS:
        plain = _child(workload, args.seed, args.seconds, 0)
        traced = _child(workload, args.seed, args.seconds, 1)
        res = plain["result"]
        print(f"== {workload}  seed {args.seed}  correct {res['correct'] and traced['result']['correct']}"
              f"  failed {res['failed']} of {res['attempted']}")
        print(" end to end (untraced):")
        for name, entry in plain["metrics"].items():
            print(_format(name, entry))
        print(" per layer (traced):")
        for name, entry in traced["metrics"].items():
            print(_format(name, entry))
        for line in plain["failures"]:
            print(f" failed: {line}")
        for name, value in plain["digests"].items():
            same = "same" if traced["digests"].get(name) == value else "DIFFERS when traced"
            print(f" digest {name}: {value} ({same})")
        hits = max(plain["time_limit_hits"], traced["time_limit_hits"])
        if hits:
            print(f" WARNING: highs.time_limit_hits = {hits}: plans depend on machine speed")
        for error in plain["errors"] + traced["errors"]:
            print(f" CHECK FAILED: {error}")
        ok = ok and res["correct"] and traced["result"]["correct"]
        ok = ok and plain["digests"] == traced["digests"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--report", action="store_true",
                        help="run every workload, untraced and traced, and print one table")
    args = parser.parse_args(argv)
    if args.report:
        return report(args)
    if not args.workload:
        parser.error("--workload is required without --report")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
