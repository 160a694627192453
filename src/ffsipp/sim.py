"""Deterministic discrete-event simulator.

Drives arrivals, optimization rounds, action execution, BTU billing, and
penalty accounting for one (scenario, approach, seed) run. All randomness
flows from one seed through per-instance generators, so identical inputs
reproduce identical reports bit for bit.
"""
from __future__ import annotations

import heapq
import math
import pathlib
from dataclasses import dataclass, field

import numpy as np

from . import controller, landscape, milp, optimizer, worstcase
from .landscape import (
    DONE,
    RUNNING,
    ProcessInstance,
    Scenario,
    advance_loops,
    apply_xor_choice,
    make_instance,
    next_steps,
    pending_xor_choices,
)

ARRIVAL = 0
STEP_FINISHED = 1
LEASE_EXPIRY = 2
WAKEUP = 3

FFSIPP = "ffsipp"
SIPP = "sipp"


class InvariantError(RuntimeError):
    """A simulator invariant broke; raised even under ``python -O``."""


def sample_duration(service: landscape.ServiceType, rng: np.random.Generator) -> int:
    """Normal(mu, mu/10) service time in ms, truncated below at mu/10."""
    mu = service.duration_ms
    draw = rng.normal(mu, mu / 10.0)
    return int(round(max(mu / 10.0, draw)))


def sample_cpu(
    service: landscape.ServiceType, rng: np.random.Generator, cap: float = math.inf
) -> float:
    """Normal(mu, mu/10) CPU share, truncated below at mu/10 and above at
    ``cap``. The simulator caps at the largest VM type's supply, so that
    every draw fits some VM type."""
    mu = service.cpu_demand
    draw = rng.normal(mu, mu / 10.0)
    return min(cap, max(mu / 10.0, draw))


def arrival_pyramid(n: int) -> int:
    """Batch size for minute ``n`` of the pyramid arrival pattern."""
    if 0 <= n <= 4:
        return 1
    if 5 <= n <= 17:
        return math.ceil((n + 1) / 4)
    if 18 <= n <= 19:
        return 0
    if 20 <= n <= 35:
        return 1
    if 36 <= n <= 51:
        return math.ceil((n - 9) / 20)
    return 0


def penalty_unit_ms(policy: str, window_ms: int) -> float:
    """One SLA penalty unit: 10 s, or a tenth of the instance's SLA window."""
    return 10_000.0 if policy == "per_10s" else 0.1 * window_ms


def penalty_units(inst: ProcessInstance, finish_ms: int, policy: str = "fraction") -> int:
    """Billed penalty units for one finished instance."""
    delay = max(0, finish_ms - inst.deadline_ms)
    return math.ceil(delay / penalty_unit_ms(policy, inst.deadline_ms - inst.arrival_ms))


@dataclass
class Container:
    cpu_size: float
    ram_size: float
    invocations: dict = field(default_factory=dict)  # (instance id, step index) -> finish ms


@dataclass
class VmRuntime:
    id: str
    type_id: str
    lease_end_ms: int
    ready_at_ms: int
    cached_images: set = field(default_factory=set)
    containers: dict = field(default_factory=dict)  # service -> Container
    offered_service: str | None = None


@dataclass
class InstanceRecord:
    instance_id: int
    model_id: int
    arrival_ms: int
    deadline_ms: int
    finish_ms: int
    delay_ms: int
    penalty_units: int


@dataclass
class MetricsReport:
    approach: str
    seed: int
    sla_adherence_pct: float
    makespan_min: float
    leasing_cost: float
    penalty_cost: float
    total_cost: float
    records: list[InstanceRecord]
    usage_series: list[tuple[int, int, int]]  # (minute, leased cores, requests)
    audit_log: list[str]
    rounds: int
    fallbacks: int
    verified_plans: int
    # decided by FfsippModel.postponed alone: placing nothing and leasing
    # nothing was the only plan HiGHS could return
    rounds_without_highs: int


class Simulator:
    def __init__(self, scenario: Scenario, approach: str, seed: int, dump_dir=None):
        if approach not in (FFSIPP, SIPP):
            raise ValueError(f"unknown approach {approach!r}")
        self.sc = scenario
        self.approach = approach
        self.seed = seed
        self.dump_dir = dump_dir
        self._seedseq = np.random.SeedSequence(seed)
        self._shuffle_rng = np.random.default_rng(self._seedseq.spawn(1)[0])
        self.clock = 0
        self.instances: dict[int, ProcessInstance] = {}
        self._inst_rng: dict[int, np.random.Generator] = {}
        self.vms: dict[str, VmRuntime] = {}
        self._vm_counter = 0
        self._heap: list[tuple[int, int, int, tuple]] = []
        self._event_seq = 0
        self.leasing_cost = 0.0
        self.records: list[InstanceRecord] = []
        self.audit: list[str] = []
        self.usage_changes: list[tuple[int, int, int]] = [(0, 0, 0)]
        self.rounds = 0
        self.fallbacks = 0
        self.verified_plans = 0
        self.rounds_without_highs = 0
        self._wakeup_at: int | None = None
        self.config = scenario.config
        self._models = {m.id: m for m in scenario.models}
        self._cpu_cap = max(vt.cpu_supply for vt in scenario.vm_types.values())

    # -- setup -------------------------------------------------------------

    def _push(self, time_ms: int, kind: int, payload: tuple = ()):
        heapq.heappush(self._heap, (time_ms, kind, self._event_seq, payload))
        self._event_seq += 1

    def _schedule_arrivals(self):
        arr = self.sc.arrival
        model_ids = [m.id for m in self.sc.models]
        if arr.kind == "constant":
            groups = arr.batch_models or (tuple(model_ids),)
            issued = 0
            batch = 0
            while issued < arr.total_requests:
                group = groups[batch % len(groups)]
                take = list(group)[: arr.total_requests - issued]
                self._push(batch * arr.interval_ms, ARRIVAL, (tuple(take),))
                issued += len(take)
                batch += 1
        else:
            counts = [arrival_pyramid(n) for n in range(52)]
            pad = arr.total_requests - sum(counts)
            if pad > 0:
                counts[0] += pad
            sequence = [model_ids[i % len(model_ids)] for i in range(sum(counts))]
            self._shuffle_rng.shuffle(sequence)
            issued = 0
            for n, count in enumerate(counts):
                take = min(count, arr.total_requests - issued)
                if take <= 0:
                    continue
                batch = tuple(sequence[issued : issued + take])
                self._push(n * arr.interval_ms, ARRIVAL, (batch,))
                issued += take

    def _create_instance(self, model_id: int):
        model = self._models[model_id]
        iid = len(self.instances) + 1
        rng = np.random.default_rng(self._seedseq.spawn(1)[0])
        durations = []
        cpus = []
        for node in model.step_nodes:
            svc = self.sc.services[node.service]
            durations.append(sample_duration(svc, rng))
            cpus.append(sample_cpu(svc, rng, self._cpu_cap))
        loop_iters = {}
        for node_id, _, reps in model.paths.loops:
            loop_iters[node_id] = int(rng.integers(1, reps + 1))
        # The SLA window scales the model's average makespan as enacted on
        # cloud infrastructure: service times plus expected per-step
        # deployment overheads and one VM startup on the critical path.
        base_ms = landscape.ms(
            landscape.average_makespan(model, self.sc.services)
        ) + landscape.critical_path_overhead_ms(
            model, self.sc.services, worstcase.max_startup_ms(self.sc.vm_types)
        )
        window = int(round(self.sc.sla.factor * base_ms))
        inst = make_instance(
            model,
            self.sc.services,
            iid,
            arrival_ms=self.clock,
            deadline_ms=self.clock + window,
            penalty_rate=self.sc.sla.planning_rate_per_s / 1000.0,
            step_cpu=cpus,
            step_durations_ms=durations,
            loop_iterations=loop_iters,
        )
        self.instances[iid] = inst
        self._inst_rng[iid] = rng
        self._resolve_choices(inst)

    def _resolve_choices(self, inst: ProcessInstance):
        """Pick branches for any XOR block that has just become enabled. A
        branch holds only steps, so choosing one enables no further block."""
        rng = self._inst_rng[inst.id]
        for node_id in pending_xor_choices(inst):
            node = inst.model.nodes[node_id]
            apply_xor_choice(inst, node_id, int(rng.integers(len(node.children))))

    # -- main loop ----------------------------------------------------------

    def run(self) -> MetricsReport:
        self._schedule_arrivals()
        while self._heap:
            t = self._heap[0][0]
            round_needed = False
            while self._heap and self._heap[0][0] == t:
                _, kind, _, payload = heapq.heappop(self._heap)
                self.clock = t
                if kind == ARRIVAL:
                    for model_id in payload[0]:
                        self._create_instance(model_id)
                    round_needed = True
                elif kind == STEP_FINISHED:
                    self._finish_step(*payload)
                    round_needed = True
                elif kind == LEASE_EXPIRY:
                    self._expire_lease(payload[0])
                elif kind == WAKEUP:
                    if self._wakeup_at == t:
                        round_needed = True
            self.clock = t
            # A round can only act when some ready step is not yet running;
            # lease/container cleanup happens lazily at the next such round.
            # Deadline risk between rounds is covered by the armed wake-up.
            if round_needed and self._has_schedulable():
                self._round()
            # The containers that a round deploys or resizes take their
            # planned sizes, so this also checks the round's transformation.
            self._assert_capacity()
            self._record_usage()
        return self._report()

    def _live_instances(self) -> list[ProcessInstance]:
        return [i for i in self.instances.values() if i.finished_ms is None]

    def _has_schedulable(self) -> bool:
        """Whether some live instance has a ready step (``next_steps``
        never returns a running one)."""
        return any(next_steps(inst) for inst in self._live_instances())

    # -- events ------------------------------------------------------------

    def _finish_step(self, iid: int, j: int, vm_id: str):
        inst = self.instances[iid]
        step = inst.steps[j]
        vm = self.vms.get(vm_id)
        cont = vm.containers.get(step.service) if vm is not None else None
        if cont is None or cont.invocations.pop((iid, j), None) != self.clock:
            raise InvariantError(f"step {iid}/{j} was not due to finish on {vm_id} at {self.clock}")
        step.status = DONE
        cont.cpu_size = max(0.0, cont.cpu_size - step.cpu_demand)
        cont.ram_size = max(0.0, cont.ram_size - step.ram_demand)

        rng = self._inst_rng[iid]
        for _, reset in advance_loops(inst):
            for idx in reset:
                svc = self.sc.services[inst.steps[idx].service]
                inst.steps[idx].expected_ms = sample_duration(svc, rng)
                inst.steps[idx].cpu_demand = sample_cpu(svc, rng, self._cpu_cap)
        self._resolve_choices(inst)

        if inst.done:
            inst.finished_ms = self.clock
            units = penalty_units(inst, self.clock, self.sc.sla.penalty_policy)
            self.records.append(
                InstanceRecord(
                    instance_id=iid,
                    model_id=inst.model.id,
                    arrival_ms=inst.arrival_ms,
                    deadline_ms=inst.deadline_ms,
                    finish_ms=self.clock,
                    delay_ms=max(0, self.clock - inst.deadline_ms),
                    penalty_units=units,
                )
            )

    def _expire_lease(self, vm_id: str):
        vm = self.vms.get(vm_id)
        if vm is None or vm.lease_end_ms != self.clock:
            return  # stale: extended or already gone
        busy = [c for c in vm.containers.values() if c.invocations]
        if busy:
            raise InvariantError(f"lease of {vm_id} expired with running invocations")
        del self.vms[vm_id]

    # -- optimization round --------------------------------------------------

    def _snapshot(self) -> optimizer.SchedulingState:
        fleet = []
        for vm in self.vms.values():
            running = [
                (iid, j, finish - self.clock)
                for cont in vm.containers.values()
                for (iid, j), finish in cont.invocations.items()
            ]
            fleet.append(
                optimizer.VmSnapshot(
                    id=vm.id,
                    type_id=vm.type_id,
                    ready_in_ms=max(0, vm.ready_at_ms - self.clock),
                    lease_remaining_ms=max(0, vm.lease_end_ms - self.clock),
                    cached_images=frozenset(vm.cached_images),
                    offered_service=vm.offered_service,
                    running_steps=sorted(running),
                )
            )
        fleet.sort(key=lambda s: s.id)
        return optimizer.SchedulingState(
            now_ms=self.clock,
            instances=self._live_instances(),
            fleet=fleet,
            services=self.sc.services,
            vm_types=self.sc.vm_types,
        )

    def _round(self):
        self.rounds += 1
        state = self._snapshot()
        model = optimizer.build(state, self.config, baseline=self.approach == SIPP)
        if self.dump_dir is not None:
            path = pathlib.Path(self.dump_dir)
            path.mkdir(parents=True, exist_ok=True)
            name = f"{self.approach}_seed{self.seed}_round{self.rounds:04d}.json"
            (path / name).write_text(model.problem.to_json() + "\n")
        solution = model.postponed()
        certified = solution is not None  # its point has passed milp.verify
        if certified:
            self.rounds_without_highs += 1
        else:
            solution = milp.solve(model.problem)
        if solution.status == milp.INFEASIBLE:
            # Postponing every step is feasible for any valid snapshot, so an
            # infeasible round is an input or model fault, not a reason to wait.
            raise InvariantError(f"round at {self.clock} ms ({self.approach}) is infeasible")
        if solution.values is None:
            # No incumbent, which only a solve limit allows: postpone all, lease nothing.
            self.fallbacks += 1
            self.audit.append(f"{self.clock}\tfallback_postpone\t-\t")
            self._schedule_wakeup(self.clock + self.config.epsilon_ms)
            return
        plan = model.decode(solution)
        violations = [] if certified else milp.verify(model.problem, plan.milp_values)
        if violations:
            raise InvariantError(f"decoded plan violates its model: {violations[:3]}")
        self.verified_plans += 1
        cplan = controller.transform(plan)
        actions = controller.plan_actions(cplan, self.vms)
        self._apply_actions(actions, plan)
        # A wakeup is only useful while some ready step stays unscheduled
        # (every placed step is running now); otherwise the next
        # arrival/step-finished event triggers the round.
        if self._has_schedulable():
            self._schedule_wakeup(optimizer.next_wakeup(plan, state, self.config))
        else:
            self._wakeup_at = None

    def _schedule_wakeup(self, at_ms: int):
        self._wakeup_at = at_ms
        self._push(at_ms, WAKEUP)

    def _apply_actions(self, actions: list[controller.Action], plan: optimizer.SchedulingPlan):
        vm_ids: dict[str, str] = {}  # fresh candidate id -> concrete id
        occupancy_ms = {(a.instance_id, a.step_index): a.occupancy_ms for a in plan.assignments}

        def resolve(vm_id: str) -> str:
            return vm_ids.get(vm_id, vm_id)

        for act in actions:
            self.audit.append(act.audit_line(self.clock))
            if act.kind == controller.LEASE_VM:
                vt = self.sc.vm_types[optimizer.fresh_vm_type(act.vm_id)]
                self._vm_counter += 1
                vid = f"vm{self._vm_counter}"
                vm_ids[act.vm_id] = vid
                btus = act.params["btus"]
                self.vms[vid] = VmRuntime(
                    id=vid,
                    type_id=vt.id,
                    lease_end_ms=self.clock + btus * vt.btu_ms,
                    ready_at_ms=self.clock + vt.startup_ms,
                )
                self.leasing_cost += btus * vt.cost_per_btu
                self._push(self.vms[vid].lease_end_ms, LEASE_EXPIRY, (vid,))
            elif act.kind == controller.EXTEND_LEASE:
                vm = self.vms[act.vm_id]
                vt = self.sc.vm_types[vm.type_id]
                btus = act.params["btus"]
                vm.lease_end_ms += btus * vt.btu_ms
                self.leasing_cost += btus * vt.cost_per_btu
                self._push(vm.lease_end_ms, LEASE_EXPIRY, (vm.id,))
            elif act.kind in (controller.DEPLOY_CONTAINER, controller.RESIZE_CONTAINER):
                vm = self.vms[resolve(act.vm_id)]
                cont = vm.containers.get(act.service)
                if cont is None:
                    cont = Container(0.0, 0.0)
                    vm.containers[act.service] = cont
                cont.cpu_size = act.params["cpu"]
                cont.ram_size = act.params["ram"]
                vm.cached_images.add(act.service)
                vm.offered_service = act.service
            elif act.kind == controller.STOP_CONTAINER:
                vm = self.vms[resolve(act.vm_id)]
                cont = vm.containers.pop(act.service, None)
                if cont is not None and cont.invocations:
                    raise InvariantError(f"stopped busy container {act.service} on {vm.id}")
            elif act.kind == controller.INVOKE_SERVICE:
                iid, j = act.params["instance"], act.params["step"]
                vm = self.vms[resolve(act.vm_id)]
                finish = self.clock + occupancy_ms[(iid, j)]
                self.instances[iid].steps[j].status = RUNNING
                vm.containers[act.service].invocations[(iid, j)] = finish
                self._push(finish, STEP_FINISHED, (iid, j, vm.id))

    # -- bookkeeping ---------------------------------------------------------

    def _assert_capacity(self):
        for vm in self.vms.values():
            vt = self.sc.vm_types[vm.type_id]
            used = sum(c.cpu_size for c in vm.containers.values())
            if not used <= vt.cpu_supply + 1e-6:
                raise InvariantError(f"{vm.id} over CPU capacity")
            used_r = sum(c.ram_size for c in vm.containers.values())
            if not used_r <= vt.ram_supply + 1e-6:
                raise InvariantError(f"{vm.id} over RAM capacity")

    def _record_usage(self):
        cores = sum(
            int(round(self.sc.vm_types[vm.type_id].cpu_supply / 100.0))
            for vm in self.vms.values()
        )
        requests = len(self._live_instances())
        last = self.usage_changes[-1]
        if (cores, requests) != last[1:]:
            self.usage_changes.append((self.clock, cores, requests))

    def _report(self) -> MetricsReport:
        total = len(self.records)
        met = sum(1 for r in self.records if r.delay_ms == 0)
        adherence = 100.0 * met / total if total else 100.0
        penalty = float(sum(r.penalty_units for r in self.records))
        makespan_ms = max((r.finish_ms for r in self.records), default=0)
        series = []
        minutes = math.ceil(makespan_ms / 60000) if makespan_ms else 0
        idx = 0
        current = (0, 0)
        for minute in range(minutes + 1):
            t = minute * 60000
            while idx < len(self.usage_changes) and self.usage_changes[idx][0] <= t:
                current = self.usage_changes[idx][1:]
                idx += 1
            series.append((minute, current[0], current[1]))
        return MetricsReport(
            approach=self.approach,
            seed=self.seed,
            sla_adherence_pct=adherence,
            makespan_min=makespan_ms / 60000.0,
            leasing_cost=self.leasing_cost,
            penalty_cost=penalty,
            total_cost=self.leasing_cost + penalty,
            records=self.records,
            usage_series=series,
            audit_log=self.audit,
            rounds=self.rounds,
            fallbacks=self.fallbacks,
            verified_plans=self.verified_plans,
            rounds_without_highs=self.rounds_without_highs,
        )


def run(scenario: Scenario, approach: str, seed: int, dump_dir=None) -> MetricsReport:
    """Simulate one seeded run end to end."""
    return Simulator(scenario, approach, seed, dump_dir=dump_dir).run()
