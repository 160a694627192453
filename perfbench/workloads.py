"""The benchmark's workloads: full simulations and a replay of warm rounds.

A workload is set up once (``setup``) and then run as a closed loop of a
fixed number of units (``unit_count``, ``run_unit``): for a simulation
workload one unit is one ``sim.run`` per approach, for the replay one unit is
every snapshot solved once per approach.
A run or round that raises is recorded and counted, never propagated, and its
timings stop at the failure.
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from ffsipp import baseline, controller, experiment, milp, optimizer, sim

import snapshots
from tracer import RoundClock

APPROACHES = (sim.FFSIPP, sim.SIPP)
# name -> (bundled preset, requests simulated; None keeps the preset's count).
# A full run of either preset takes 15 to 35 s per approach, so one benchmark
# run sees one seed; the short runs let it pool about twenty seeds, and
# constant arrivals keep the model mix the same for every seed.
SIM_WORKLOADS = {
    "sim_strict_intense": ("constant_strict_intense", None),
    "sim_lenient_light": ("pyramid_lenient_light", None),
    "sim_constant_lenient_light_10": ("constant_lenient_light", 10),
}
REPLAY = "replay_rounds"
WORKLOADS = (*SIM_WORKLOADS, REPLAY)
# Typical wall seconds of one unit on the 2-core machine in README.md. A run
# of --seconds makes seconds // UNIT_S units (at least one): the work, and so
# the rounds that fail, depend on the seed and --seconds, not on machine speed.
UNIT_S = {
    "sim_strict_intense": 30.0,
    "sim_lenient_light": 75.0,
    "sim_constant_lenient_light_10": 2.5,
    REPLAY: 38.0,
}
CPU_TOL = 1e-6
_HIGHS = optimize.milp  # bound at import, before a tracer wraps scipy's
SUBSEED_STRIDE = 100_000
PROBE_ITERATIONS = 5_000
PROBE_LP_ROWS = 30
# Probe time at the reference speed, about the fast state of the 2-core
# machine in README.md. Adjusted times read as milliseconds at that speed.
NOMINAL_PROBE_S = 2.6e-3


@dataclass
class Failure:
    approach: str
    seed: int
    round: int  # sim round number, or replay snapshot index
    error: str  # exception type and the first line of its message

    def line(self) -> str:
        return f"{self.approach} seed {self.seed} round {self.round}: {self.error}"


@dataclass
class RunOutcome:
    """One ``sim.run`` (or its failure)."""

    approach: str
    seed: int
    run_s: float | None = None
    total_cost: float | None = None
    sla_adherence_pct: float | None = None
    digest: str | None = None
    failure: Failure | None = None


@dataclass
class UnitResult:
    round_ms: list[float] = field(default_factory=list)
    # per round: NOMINAL_PROBE_S over the speed probes taken around it
    round_scale: list[float] = field(default_factory=list)
    rounds: int = 0
    rounds_failed: int = 0
    runs: list[RunOutcome] = field(default_factory=list)
    failures: list[Failure] = field(default_factory=list)
    digest: str = ""
    check_errors: list[str] = field(default_factory=list)
    time_limit_hits: int = 0


def describe(exc: BaseException) -> str:
    first = str(exc).splitlines()[0] if str(exc) else ""
    return f"{type(exc).__name__}: {first}"


def setup(workload: str, seed: int):
    """Parse the workload's preset(s) and, for the replay, make its snapshots."""
    if workload in SIM_WORKLOADS:
        preset, requests = SIM_WORKLOADS[workload]
        scenario = experiment.load_scenario(experiment.ExperimentConfig(preset))
        if requests is not None:
            scenario.arrival = dataclasses.replace(scenario.arrival, total_requests=requests)
        return scenario
    if workload == REPLAY:
        return snapshots.generate(seed)
    raise ValueError(f"unknown workload {workload!r}")


@functools.cache
def _probe_lp():
    rng = np.random.default_rng(0)
    a = rng.uniform(0.0, 5.0, (PROBE_LP_ROWS, 2 * PROBE_LP_ROWS))
    c = -rng.uniform(1.0, 10.0, 2 * PROBE_LP_ROWS)
    return c, [optimize.LinearConstraint(a, -np.inf, a.sum(axis=1) / 3.0)]


def speed_probe() -> float:
    """Seconds taken by fixed work: the machine's current speed.

    A shared host can run the same work at two speeds 30 to 50% apart, for
    seconds at a time, and HiGHS slows more than Python does. The probe runs
    a fixed Python loop and a fixed LP through scipy's HiGHS directly (never
    through ffsipp, so no change to the program changes the probe); a probe
    next to each round lets the benchmark scale round times to one reference
    speed (``NOMINAL_PROBE_S``)."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    c, constraints = _probe_lp()
    _HIGHS(c, constraints=constraints, bounds=optimize.Bounds(0.0, 1.0))
    return time.perf_counter() - start


def unit_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds // UNIT_S[workload]))


def run_unit(workload: str, ctx, seed: int, index: int = 0) -> UnitResult:
    """The ``index``-th unit of a closed loop. Replay units repeat the same
    snapshots; simulation units simulate the next seed, so one benchmark run
    averages over more arrivals than one seed gives. Unit 0 of a simulation
    runs at the workload seed itself."""
    if workload in SIM_WORKLOADS:
        return _sim_unit(workload, ctx, seed + SUBSEED_STRIDE * index)
    return replay_unit(ctx, seed)


# -- simulations -------------------------------------------------------------


def run_digest(name: str, scenario, report: sim.MetricsReport) -> str:
    """sha256 of the run's metrics.csv row, usage series and audit log, as
    ``experiment.run_experiment`` would write them."""
    row = {
        "run_id": f"{name}_{report.approach}_seed{report.seed}",
        "approach": report.approach,
        "arrival": scenario.arrival.kind,
        "sla": experiment.sla_label(scenario.sla.factor),
        "seed": report.seed,
        **{c: getattr(report, c) for c in experiment.METRIC_COLUMNS},
    }
    usage = io.StringIO()
    writer = csv.writer(usage, lineterminator="\n")
    writer.writerow(["minute", "leased_cores", "parallel_requests"])
    writer.writerows(report.usage_series)
    h = hashlib.sha256()
    h.update(experiment.render_metrics([row]).encode())
    h.update(usage.getvalue().encode())
    h.update("".join(line + "\n" for line in report.audit_log).encode())
    return h.hexdigest()


def _sim_unit(name: str, scenario, seed: int) -> UnitResult:
    unit = UnitResult()
    for approach in APPROACHES:
        outcome = RunOutcome(approach, seed)
        with RoundClock(speed_probe) as clock:
            start = time.perf_counter()
            try:
                report = sim.run(scenario, approach, seed)
            except Exception as exc:  # counted, not propagated
                end = time.perf_counter()
                outcome.failure = Failure(approach, seed, len(clock.starts), describe(exc))
                unit.failures.append(outcome.failure)
                unit.rounds_failed += 1
            else:
                end = time.perf_counter()
                probing = sum(b - a for a, b in zip(clock.probe_starts, clock.starts))
                outcome.run_s = end - start - probing
                outcome.total_cost = report.total_cost
                outcome.sla_adherence_pct = report.sla_adherence_pct
                outcome.digest = run_digest(name, scenario, report)
                unit.check_errors += _check_run(scenario, report, len(clock.starts))
        probes = clock.probes + [speed_probe()]
        unit.rounds += len(clock.starts)
        unit.round_ms += [
            (b - a) * 1000.0 for a, b in zip(clock.starts, clock.probe_starts[1:] + [end])
        ]
        unit.round_scale += [
            NOMINAL_PROBE_S / statistics.fmean(pair) for pair in zip(probes, probes[1:])
        ]
        unit.runs.append(outcome)
    unit.digest = _combine(f"{r.approach}:{r.digest or r.failure.error}" for r in unit.runs)
    return unit


def _check_run(scenario, report: sim.MetricsReport, rounds_seen: int) -> list[str]:
    errors = []
    tag = f"{report.approach} seed {report.seed}"
    if report.verified_plans != report.rounds - report.fallbacks:
        errors.append(
            f"{tag}: {report.verified_plans} verified plans for "
            f"{report.rounds} rounds and {report.fallbacks} fallbacks"
        )
    if len(report.records) != scenario.arrival.total_requests:
        errors.append(
            f"{tag}: {len(report.records)} of {scenario.arrival.total_requests} requests finished"
        )
    if rounds_seen != report.rounds:
        errors.append(f"{tag}: saw {rounds_seen} model builds for {report.rounds} rounds")
    return errors


# -- replay of warm rounds --------------------------------------------------


def _builder(approach: str):
    return optimizer.build if approach == sim.FFSIPP else baseline.build_baseline


def _cloud_view(state: optimizer.SchedulingState) -> dict[str, controller.CloudVmView]:
    """What the simulator would tell the controller about the leased VMs."""
    demand = {
        (inst.id, j): (inst.steps[j].cpu_demand, inst.steps[j].ram_demand)
        for inst in state.instances
        for j in range(len(inst.steps))
    }
    view = {}
    for vm in state.fleet:
        vt = state.vm_types[vm.type_id]
        containers: dict[str, tuple[float, float]] = {}
        if vm.offered_service is not None:
            cpu = sum(demand[(i, j)][0] for i, j, _ in vm.running_steps)
            ram = sum(demand[(i, j)][1] for i, j, _ in vm.running_steps)
            containers[vm.offered_service] = (cpu, ram)
        view[vm.id] = controller.CloudVmView(vt.cpu_supply, vt.ram_supply, containers)
    return view


@dataclass
class RoundOutput:
    solution: milp.MilpSolution
    plan: optimizer.SchedulingPlan | None = None
    violations: list = field(default_factory=list)
    cplan: controller.ContainerPlan | None = None
    actions: list = field(default_factory=list)
    wakeup: int | None = None


def replay_round(snap: snapshots.Snapshot, approach: str) -> RoundOutput:
    """One scheduling round: build, solve, decode, verify, transform, plan
    actions, wake-up."""
    state, config = snap.state, snap.config
    model = _builder(approach)(state, config)
    solution = milp.solve(
        model.problem, gap_tol=config.gap_tol, time_limit_ms=config.time_limit_ms
    )
    if solution.values is None:  # the simulator postpones everything
        return RoundOutput(solution)
    plan = model.decode(solution)
    violations = milp.verify(model.problem, plan.milp_values)
    cplan = controller.transform(plan)
    actions = controller.plan_actions(cplan, _cloud_view(state))
    wakeup = optimizer.next_wakeup(plan, state, config)
    return RoundOutput(solution, plan, violations, cplan, actions, wakeup)


def check_round(snap: snapshots.Snapshot, approach: str, out: RoundOutput) -> list[str]:
    """Output checks: the plan verifies and containers fit their VMs."""
    if out.plan is None:
        return []
    state = snap.state
    tag = f"snapshot {snap.index} {approach}"
    errors = []
    if out.violations:
        errors.append(f"{tag}: decoded plan violates {len(out.violations)} rows of its model")
    supply = {vm.id: state.vm_types[vm.type_id].cpu_supply for vm in state.fleet}
    per_vm: dict[str, float] = {}
    for c in out.cplan.containers:
        per_vm[c.vm_id] = per_vm.get(c.vm_id, 0.0) + c.cpu_size
    for vm_id, used in per_vm.items():
        cap = supply.get(vm_id)
        if cap is None:
            cap = state.vm_types[optimizer.fresh_vm_type(vm_id)].cpu_supply
        if used > cap + CPU_TOL:
            errors.append(f"{tag}: {vm_id} containers use {used} of {cap} CPU")
    return errors


def round_record(snap: snapshots.Snapshot, out: RoundOutput) -> str:
    """The decoded plan as text, for the replay digest."""
    if out.plan is None:
        return f"{out.solution.status}\tfallback"
    lines = [a.audit_line(snap.state.now_ms) for a in out.actions]
    head = f"{out.solution.status}\t{out.plan.objective_value:.6f}\twake {out.wakeup}"
    return "\n".join([head, *lines])


def replay_unit(snaps: list[snapshots.Snapshot], seed: int) -> UnitResult:
    unit = UnitResult()
    records = []
    probe = speed_probe()
    for snap in snaps:
        for approach in APPROACHES:
            start = time.perf_counter()
            try:
                out = replay_round(snap, approach)
            except Exception as exc:  # counted, not propagated
                unit.round_ms.append((time.perf_counter() - start) * 1000.0)
                failure = Failure(approach, seed, snap.index, describe(exc))
                unit.failures.append(failure)
                unit.rounds_failed += 1
                record = f"failed\t{failure.error}"
            else:
                unit.round_ms.append((time.perf_counter() - start) * 1000.0)
                unit.check_errors += check_round(snap, approach, out)
                if out.solution.status == milp.TIME_LIMIT:
                    unit.time_limit_hits += 1
                record = round_record(snap, out)
            unit.rounds += 1
            records.append(f"{snap.index}\t{approach}\t{record}")
            after = speed_probe()
            unit.round_scale.append(NOMINAL_PROBE_S / statistics.fmean((probe, after)))
            probe = after
    unit.digest = _combine(records)
    return unit


def _combine(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()
