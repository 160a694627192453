"""Seeded warm scheduling snapshots for the ``replay_rounds`` workload.

Each snapshot is a ``SchedulingState`` as the simulator would hand it to a
round: live instances part-way through their workflows, leased VMs with
partly used leases, cached images and running steps within capacity. Every
leased VM carries exactly one ``offered_service`` and only runs steps of that
service, so the same snapshot is a valid input for the sipp baseline too.

The size schedule is fixed (stratified), only the contents are drawn from
the seed, so the spread of round sizes does not change from seed to seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ffsipp import experiment, landscape, optimizer, sim, worstcase
from ffsipp.landscape import DONE, RUNNING

# (preset whose catalog, SLA and solver settings the cell uses, live-instance
# counts). Intense services need a whole VM per step, so their models grow
# with every extra ready step; light services share VMs and stay cheap, so
# those cells go up to 40 live instances.
CELLS = (
    ("constant_strict_intense", (1, 2, 3, 4, 5, 6)),
    ("constant_lenient_intense", (1, 2, 3, 4, 5, 6)),
    ("constant_strict_light", (2, 4, 6, 8, 10, 12)),
    ("constant_lenient_light", (4, 10, 16, 24, 32, 40)),
)
REPEATS = 14  # snapshots per (cell, size)


@dataclass
class Snapshot:
    index: int
    preset: str
    state: optimizer.SchedulingState
    config: optimizer.OptimizerConfig


def load_cells() -> dict[str, landscape.Scenario]:
    return {
        preset: experiment.load_scenario(experiment.ExperimentConfig(preset))
        for preset, _ in CELLS
    }


def generate(seed: int, scenarios: dict[str, landscape.Scenario] | None = None) -> list[Snapshot]:
    """All replay snapshots for ``seed``, in a fixed cell/size order."""
    scenarios = scenarios or load_cells()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out: list[Snapshot] = []
    for preset, sizes in CELLS:
        sc = scenarios[preset]
        config = optimizer.OptimizerConfig.from_scenario(sc)
        for size in sizes:
            for _ in range(REPEATS):
                state = _snapshot(sc, size, rng)
                out.append(Snapshot(len(out), preset, state, config))
    return out


def _find_node(root: landscape.WorkflowNode, node_id: int) -> landscape.WorkflowNode:
    stack = [root]
    while stack:
        node = stack.pop()
        if node.node_id == node_id:
            return node
        stack.extend(node.children)
    raise KeyError(node_id)


def _resolve_choices(inst: landscape.ProcessInstance, rng: np.random.Generator):
    pending = landscape.pending_xor_choices(inst)
    while pending:
        for node_id in pending:
            node = _find_node(inst.model.root, node_id)
            landscape.apply_xor_choice(inst, node_id, int(rng.integers(len(node.children))))
        pending = landscape.pending_xor_choices(inst)


def _penalty_rate(sc: landscape.Scenario, window_ms: int) -> float:
    # Same rule as the simulator's planning rate.
    sla = sc.sla
    if sla.planning_rate_per_s is not None:
        return sla.planning_rate_per_s / 1000.0
    if sla.penalty_policy == "per_10s":
        return 1.0 / 10_000.0
    return 1.0 / (0.1 * window_ms)


def _instance(sc, iid: int, now_ms: int, rng) -> landscape.ProcessInstance:
    model = sc.models[int(rng.integers(len(sc.models)))]
    durations = [sim.sample_duration(sc.services[n.service], rng) for n in model.step_nodes]
    cpus = [sim.sample_cpu(sc.services[n.service], rng) for n in model.step_nodes]
    loops = {
        node_id: int(rng.integers(1, reps + 1))
        for node_id, _, reps in landscape.enumerate_paths(model).loops
    }
    base_ms = landscape.ms(landscape.average_makespan(model, sc.services))
    base_ms += landscape.critical_path_overhead_ms(
        model, sc.services, worstcase.max_startup_ms(sc.vm_types)
    )
    window = int(round(sc.sla.factor * base_ms))
    arrival = now_ms - int(rng.uniform(0.0, 0.6) * window)
    inst = landscape.make_instance(
        model,
        sc.services,
        iid,
        arrival_ms=arrival,
        deadline_ms=arrival + window,
        penalty_rate=_penalty_rate(sc, window),
        step_cpu=cpus,
        step_durations_ms=durations,
        loop_iterations=loops,
    )
    _resolve_choices(inst, rng)
    # Complete a random prefix of the workflow, as the simulator would.
    for _ in range(int(rng.integers(0, len(inst.steps)))):
        ready = sorted(landscape.next_steps(inst))
        if not ready:
            break
        step = inst.steps[ready[int(rng.integers(len(ready)))]]
        step.status = DONE
        step.runs += 1
        for _, reset in landscape.advance_loops(inst):
            for idx in reset:
                svc = sc.services[inst.steps[idx].service]
                inst.steps[idx].expected_ms = sim.sample_duration(svc, rng)
                inst.steps[idx].cpu_demand = sim.sample_cpu(svc, rng)
        if inst.done:  # keep the instance live
            step.status = landscape.PENDING
            step.runs -= 1
            break
        _resolve_choices(inst, rng)
    return inst


def _leased_fleet(sc, n_vms: int, rng) -> list[optimizer.VmSnapshot]:
    types = list(sc.vm_types.values())
    per_type: dict[str, int] = {}
    fleet = []
    services = sorted(sc.services)
    for k in range(n_vms):
        vt = types[int(rng.integers(len(types)))]
        if vt.pool_limit is not None and per_type.get(vt.id, 0) >= vt.pool_limit:
            continue
        per_type[vt.id] = per_type.get(vt.id, 0) + 1
        booting = rng.random() < 0.15
        offered = None if booting else services[int(rng.integers(len(services)))]
        cached = set() if booting else {offered}
        if not booting:
            cached |= {s for s in services if rng.random() < 0.2}
        fleet.append(
            optimizer.VmSnapshot(
                id=f"vm{k + 1}",
                type_id=vt.id,
                ready_in_ms=int(rng.integers(1, vt.startup_ms)) if booting else 0,
                lease_remaining_ms=int(rng.integers(1, vt.btu_ms * 2)),
                cached_images=frozenset(cached),
                offered_service=offered,
                running_steps=[],
            )
        )
    return fleet


def _snapshot(sc: landscape.Scenario, size: int, rng) -> optimizer.SchedulingState:
    now_ms = int(rng.integers(5, 90)) * 60_000
    instances = []
    while len(instances) < size:
        inst = _instance(sc, len(instances) + 1, now_ms, rng)
        if not inst.done and landscape.next_steps(inst):
            instances.append(inst)
    fleet = _leased_fleet(sc, int(rng.integers(0, 2 + size // 3)), rng)

    # Start some ready steps on leased VMs offering their service, within
    # CPU supply; keep at least one ready step unscheduled.
    used = {vm.id: 0.0 for vm in fleet}
    waiting = [(inst, j) for inst in instances for j in sorted(landscape.next_steps(inst))]
    for inst, j in waiting[1:]:
        if rng.random() >= 0.4:
            continue
        step = inst.steps[j]
        hosts = [
            vm
            for vm in fleet
            if vm.offered_service == step.service
            and used[vm.id] + step.cpu_demand <= sc.vm_types[vm.type_id].cpu_supply
        ]
        if not hosts:
            continue
        vm = hosts[int(rng.integers(len(hosts)))]
        remaining = int(rng.integers(1, step.expected_ms + 1))
        used[vm.id] += step.cpu_demand
        step.status = RUNNING
        step.assigned_vm = vm.id
        step.remaining_ms = remaining
        step.scheduled_at = now_ms - (step.expected_ms - remaining)
        vm.running_steps.append((inst.id, j, remaining))
    for vm in fleet:
        vm.running_steps.sort()
    return optimizer.SchedulingState(
        now_ms=now_ms,
        instances=instances,
        fleet=fleet,
        services=sc.services,
        vm_types=sc.vm_types,
    )
