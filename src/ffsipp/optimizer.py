"""Scheduling MILP: build a model from a landscape snapshot, decode the
solution into a plan, and compute the next optimization wake-up.

Steps are placed directly on (candidate) VM instances; containers are
introduced afterwards by the controller transformation. The baseline
variant (one service type per VM) reuses this builder via its ``baseline``
flag, adding per-VM type-exclusivity variables.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from . import milp, worstcase
from .landscape import (
    OptimizerConfig,
    ProcessInstance,
    ServiceType,
    VmType,
    next_steps,
)


class ModelError(ValueError):
    """A snapshot that cannot be turned into a solvable model."""


@dataclass
class VmSnapshot:
    """One candidate VM: a live lease or an anonymous fresh instance, whose
    id ``is_fresh_vm`` recognises."""

    id: str
    type_id: str
    ready_in_ms: int  # 0 when running, boot remainder otherwise
    lease_remaining_ms: int  # d
    cached_images: frozenset[str] = frozenset()
    offered_service: str | None = None  # baseline: currently deployed type
    running_steps: list[tuple[int, int, int]] = field(default_factory=list)
    # (instance id, step index, remaining ms)


@dataclass
class SchedulingState:
    now_ms: int
    instances: list[ProcessInstance]
    fleet: list[VmSnapshot]
    services: dict[str, ServiceType]
    vm_types: dict[str, VmType]


@dataclass
class Assignment:
    instance_id: int
    step_index: int
    vm_id: str
    service: str
    cpu_demand: float
    ram_demand: float
    occupancy_ms: int  # overheadful duration on the VM from now


@dataclass
class SchedulingPlan:
    assignments: list[Assignment]
    running: list[Assignment]
    lease_extensions: dict[str, int]  # vm id -> BTUs to lease/extend
    penalties_ms: dict[int, float]  # instance -> planned worst-case delay e^p
    remaining_ms: dict[int, int]  # instance -> worst-case remaining time e_i
    objective_terms: dict[str, float]
    objective_value: float  # repaired objective, bracketed by bound and incumbent
    milp_values: list[float]  # repaired column values, pass verify


TERM_NAMES = ("leasing", "penalty", "deployment", "remaining_lease", "free_capacity", "importance")


class FfsippModel:
    """The round MILP plus enough metadata to decode its solutions.

    Every variable gets its column in ``problem`` when it is created; the
    builder keeps those indices per VM, per instance and per objective term,
    so no step scans all variables.
    """

    def __init__(self, state: SchedulingState, config: OptimizerConfig, baseline: bool = False):
        self.state = state
        self.config = config
        self.baseline = baseline
        self.delta_ms = worstcase.max_startup_ms(state.vm_types)
        # instance -> its ready steps, each with the VM types it fits
        self._ready: dict[int, dict[int, set[str]]] = {}
        for inst in state.instances:
            ready = self._ready[inst.id] = {}
            for j in sorted(next_steps(inst)):
                step = inst.steps[j]
                ready[j] = {
                    t for t, vt in state.vm_types.items()
                    if _within(step.cpu_demand, step.ram_demand, vt)
                }
        self.candidates = self._candidate_vms()
        self.problem = milp.MilpProblem()
        self._instances = {inst.id: inst for inst in state.instances}
        # objective term -> its columns and coefficients, in the order added
        self._terms: dict[str, tuple[list[int], list[float]]] = {
            n: ([], []) for n in TERM_NAMES
        }
        # VM -> its placement columns, in creation order
        self._vm_x: dict[str, list[tuple[int, Assignment]]] = {vm.id: [] for vm in self.candidates}
        self._y: dict[str, int] = {}
        self._g: dict[str, int] = {}  # a one-BTU fresh VM's use flag is its y
        self._ep: dict[int, int] = {}
        self._remaining: dict[int, worstcase.RemainingStructure] = {}
        # Continuous helpers and the rows that bound each from below, in
        # creation order: an instance's block remainders precede its e^p,
        # which reads them. Decode and postponed set each at its floor.
        self._helpers: list[tuple[int, list[int]]] = []
        # The answer postponed certified: its helpers are at their floors and
        # its point passed milp.verify, so decode takes it as it is.
        self._certified: milp.MilpSolution | None = None
        # Leased VM -> its running steps (occupancy = remainder), in fleet
        # order; instance -> its longest running remainder.
        self._running: dict[str, list[Assignment]] = {}
        self._ex_run: dict[int, int] = {}
        for vm in state.fleet:
            running = self._running[vm.id] = []
            for iid, j, rem in vm.running_steps:
                step = self._instances[iid].steps[j]
                running.append(
                    Assignment(iid, j, vm.id, step.service, step.cpu_demand, step.ram_demand, rem)
                )
                self._ex_run[iid] = max(self._ex_run.get(iid, rem), rem)
        self._build()
        cost = self.problem.cost
        for cols, coefs in self._terms.values():
            for col, coef in zip(cols, coefs):
                cost[col] += coef

    # -- construction -----------------------------------------------------

    def _candidate_vms(self) -> list[VmSnapshot]:
        """The fleet, then fresh copies of each type. With the symmetry rows,
        a fresh VM beyond the ready steps that fit its type stays empty in
        every optimum (an empty fresh VM only adds cost), so the copies are
        capped at that count as well as at the pool's room."""
        cands = list(self.state.fleet)
        live_per_type: dict[str, int] = {}
        for vm in self.state.fleet:
            live_per_type[vm.type_id] = live_per_type.get(vm.type_id, 0) + 1
        fitting_steps = Counter(
            t for ready in self._ready.values() for types in ready.values() for t in types
        )
        for vt in self.state.vm_types.values():
            n = min(self.config.fresh_candidates, fitting_steps[vt.id])
            if vt.pool_limit is not None:
                n = min(n, vt.pool_limit - live_per_type.get(vt.id, 0))
            for i in range(max(0, n)):
                cands.append(
                    VmSnapshot(
                        id=f"{FRESH_PREFIX}{vt.id}_{i}",
                        type_id=vt.id,
                        ready_in_ms=vt.startup_ms,
                        lease_remaining_ms=0,
                    )
                )
        return cands

    def _vm_type(self, vm: VmSnapshot) -> VmType:
        return self.state.vm_types[vm.type_id]

    def _occupancy_ms(self, inst: ProcessInstance, j: int, vm: VmSnapshot) -> int:
        step = inst.steps[j]
        svc = self.state.services[step.service]
        total = step.expected_ms + vm.ready_in_ms
        if self.baseline:
            if step.service != vm.offered_service:
                total += BASELINE_DEPLOY_MS
        elif step.service not in vm.cached_images:
            total += svc.container_start_ms + svc.image_pull_ms
        return total

    def _term(self, name: str, col: int, coef: float):
        if coef:
            cols, coefs = self._terms[name]
            cols.append(col)
            coefs.append(coef)

    def _build(self):
        state, w = self.state, self.config.weights
        p = self.problem
        tau = state.now_ms

        # Placements first: each VM's longest placement or running step
        # fixes the BTUs it can need beyond its lease.
        schedulable: dict[int, dict[int, list[tuple[VmSnapshot, int]]]] = {}
        horizon = {
            vm.id: max((a.occupancy_ms for a in self._running.get(vm.id, ())), default=0)
            for vm in self.candidates
        }
        for inst in state.instances:
            steps = schedulable[inst.id] = {}
            for j, types in self._ready[inst.id].items():
                step = inst.steps[j]
                fitting = [vm for vm in self.candidates if vm.type_id in types]
                if not fitting:
                    raise ModelError(
                        f"step {inst.id}/{j} ({step.service}, {step.cpu_demand}%) "
                        f"exceeds every VM type's supply"
                    )
                # Baseline: a VM keeps its single offered type for its whole
                # lease; only a VM that never hosted a container may still
                # pick one.
                steps[j] = [
                    (vm, self._occupancy_ms(inst, j, vm))
                    for vm in fitting
                    if not self.baseline or vm.offered_service in (None, step.service)
                ]
                for vm, occ in steps[j]:
                    horizon[vm.id] = max(horizon[vm.id], occ)

        # Per-VM lease / usage variables. y is capped at that need: more
        # BTUs only add cost. A fresh VM that one BTU covers would get
        # g <= y <= 1*g, so its y is its own use flag; any other fresh VM
        # gets g <= y here and y <= need*g below. A leased VM's g - y <= 1
        # holds by the bounds.
        need: dict[str, int] = {}
        for vm in self.candidates:
            vt = self._vm_type(vm)
            need[vm.id] = math.ceil(max(0, horizon[vm.id] - vm.lease_remaining_ms) / vt.btu_ms)
            y = self._y[vm.id] = p.add_var(f"y__{vm.id}", milp.INTEGER, 0, need[vm.id])
            self._term("leasing", y, vt.cost_per_btu)
            if is_fresh_vm(vm.id) and need[vm.id] <= 1:
                self._g[vm.id] = y
            else:
                g = self._g[vm.id] = p.add_var(f"g__{vm.id}", milp.BOOLEAN, 0, 1)
                if is_fresh_vm(vm.id):
                    p.add_row((g, y), (1, -1), "<=", 0)

        # Symmetry breaking among anonymous fresh candidates of one type.
        by_type: dict[str, list[VmSnapshot]] = {}
        for vm in self.candidates:
            if is_fresh_vm(vm.id):
                by_type.setdefault(vm.type_id, []).append(vm)
        for group in by_type.values():
            for a, b in zip(group, group[1:]):
                p.add_row((self._g[a.id], self._g[b.id]), (1, -1), ">=", 0)

        # Placement variables and per-instance rows.
        for inst in state.instances:
            self._instance_rows(inst, schedulable[inst.id], tau)

        # Baseline type exclusivity.
        if self.baseline:
            self._baseline_rows()

        # Capacity, free capacity, usage link per VM. A capacity row with no
        # placement term only restates that the running steps fit, which
        # is checked here instead.
        for vm in self.candidates:
            vt = self._vm_type(vm)
            y, g = self._y[vm.id], self._g[vm.id]
            running = self._running.get(vm.id, [])
            run_cpu = sum((a.cpu_demand for a in running), 0.0)
            run_ram = sum((a.ram_demand for a in running), 0.0)
            if not _within(run_cpu, run_ram, vt):
                raise ModelError(
                    f"{vm.id} already runs {run_cpu}% CPU and {run_ram} MB RAM, "
                    f"over its supply of {vt.cpu_supply}% and {vt.ram_supply} MB"
                )
            vm_x = self._vm_x[vm.id]
            cpu_cols = [col for col, a in vm_x if a.cpu_demand]
            cpu = [a.cpu_demand for _, a in vm_x if a.cpu_demand]
            ram_cols = [col for col, a in vm_x if a.ram_demand]
            ram = [a.ram_demand for _, a in vm_x if a.ram_demand]
            if cpu_cols:
                p.add_row(cpu_cols, cpu, "<=", vt.cpu_supply - run_cpu)
            if ram_cols:
                p.add_row(ram_cols, ram, "<=", vt.ram_supply - run_ram)
            for col, _ in vm_x:
                p.add_row((col, g), (1.0, -1.0), "<=", 0)

            self._free_row(f"fC__{vm.id}", cpu_cols, cpu, g, vt.cpu_supply, run_cpu, w.f_cpu)
            self._free_row(f"fR__{vm.id}", ram_cols, ram, g, vt.ram_supply, run_ram, w.f_ram)

            # Lease coverage for running steps.
            max_run = max((a.occupancy_ms for a in running), default=0)
            if max_run > vm.lease_remaining_ms:
                p.add_row((y,), (float(vt.btu_ms),), ">=", max_run - vm.lease_remaining_ms)

            if is_fresh_vm(vm.id) and g != y:
                p.add_row((y, g), (1.0, -float(need[vm.id])), "<=", 0)

    def _free_row(self, name: str, cols, coefs, g: int, supply: float, run: float, weight: float):
        """f >= supply*g - used  <=>  f + used - supply*g >= -running_load.
        An unweighted f cannot change the answer, so it is left out."""
        if not weight:
            return
        f = self.problem.add_var(name, milp.CONTINUOUS, 0, math.inf)
        if supply:
            cols, coefs = cols + [g], coefs + [-supply]
        self._helpers.append((f, [self.problem.add_row(cols + [f], coefs + [1.0], ">=", -run)]))
        self._term("free_capacity", f, weight)

    def _instance_rows(self, inst: ProcessInstance, schedulable, tau: int):
        cfg, w = self.config, self.config.weights
        p = self.problem
        rs = worstcase.remaining_structure(
            inst, self.state.services, self.delta_ms, set(schedulable)
        )
        self._remaining[inst.id] = rs

        # Placement variables with their objective contributions.
        placed: dict[int, list[tuple[int, int]]] = {}  # step -> (column, occupancy)
        for j, cands in schedulable.items():
            step = inst.steps[j]
            importance = w.dl_per_ms * (rs.step_deadline_ms[j] - tau)
            placed[j] = []
            for vm, occ in cands:
                col = p.add_var(f"x__{inst.id}__{j}__{vm.id}", milp.BOOLEAN, 0, 1)
                a = Assignment(
                    instance_id=inst.id,
                    step_index=j,
                    vm_id=vm.id,
                    service=step.service,
                    cpu_demand=step.cpu_demand,
                    ram_demand=step.ram_demand,
                    occupancy_ms=occ,
                )
                self._vm_x[vm.id].append((col, a))
                placed[j].append((col, occ))
                # Baseline deployments are priced per type variable instead
                # (see _baseline_rows); there is no image cache there.
                if not self.baseline and step.service not in vm.cached_images:
                    self._term("deployment", col, w.z)
                self._term("remaining_lease", col, w.d_per_ms * vm.lease_remaining_ms)
                self._term("importance", col, importance)
                # Lease coverage for a placement that outlasts the lease. On
                # a VM whose y is its use flag, occ <= btu_ms, so x <= y
                # already covers it.
                y = self._y[vm.id]
                if occ > vm.lease_remaining_ms and self._g[vm.id] != y:
                    p.add_row(
                        (col, y),
                        (float(occ), -float(self._vm_type(vm).btu_ms)),
                        "<=",
                        vm.lease_remaining_ms,
                    )
            # At most one VM per step.
            if placed[j]:
                p.add_row([col for col, _ in placed[j]], [1.0] * len(placed[j]), "<=", 1)

        # Block variables for AND/XOR remainders that depend on this round.
        # A scheduled branch head replaces its worst-case coefficient with the
        # concrete occupancy of the chosen placement, so parallel heads are not
        # serialised in the deadline row.  The "next" family prices the branch
        # as seen one round later: a head scheduled now has already run for
        # epsilon by then, an unscheduled one still costs the full branch.
        block_cols: tuple[list[int], list[int]] = ([], [])  # this round, next round
        for block in rs.blocks:
            pair = (
                p.add_var(f"eblk__{inst.id}__{block.node_id}", milp.CONTINUOUS, 0, math.inf),
                p.add_var(f"eblkn__{inst.id}__{block.node_id}", milp.CONTINUOUS, 0, math.inf),
            )
            rows: tuple[list[int], list[int]] = ([], [])
            for const, coefs in block.rows:
                for b, eps, b_rows in zip(pair, (0, cfg.epsilon_ms), rows):
                    cols, reds = [], []
                    for j, coef in coefs.items():
                        for col, occ in placed.get(j, ()):
                            if coef + eps - occ:
                                cols.append(col)
                                reds.append(float(coef + eps - occ))
                    b_rows.append(p.add_row([b] + cols, [1.0] + reds, ">=", const))
            for b, b_cols, b_rows in zip(pair, block_cols, rows):
                b_cols.append(b)
                self._helpers.append((b, b_rows))

        # Deadline / penalty coupling for this round and the next.
        ep = p.add_var(f"ep__{inst.id}", milp.CONTINUOUS, 0, math.inf)
        self._ep[inst.id] = ep
        self._term("penalty", ep, inst.penalty_rate)

        # Every schedulable step is either reduced in sequence or a block head.
        ex_run = self._ex_run.get(inst.id, 0)
        rows = []
        for eps, b_cols, run in ((0, block_cols[0], ex_run), (cfg.epsilon_ms, block_cols[1], 0)):
            terms = [
                (col, float(occ - red - eps))
                for j, red in rs.step_reduction_ms.items()
                for col, occ in placed.get(j, ())
                if occ - red - eps
            ]
            terms += [(b, 1.0) for b in b_cols]
            cols, coefs = [col for col, _ in terms], [c for _, c in terms]
            rhs = inst.deadline_ms - (tau + eps) - run - float(rs.constant_ms)
            rows.append(p.add_row(cols + [ep], coefs + [-1.0], "<=", rhs))
        self._helpers.append((ep, rows))

    def _baseline_rows(self):
        """One service type per VM: u variables, exclusivity, x <= u."""
        w = self.config.weights
        p = self.problem
        for vm in self.candidates:
            per_service: dict[str, list[int]] = {}
            for col, a in self._vm_x[vm.id]:
                per_service.setdefault(a.service, []).append(col)
            if not per_service:
                continue
            u_cols = []
            for svc, cols in per_service.items():
                u = p.add_var(f"u__{svc}__{vm.id}", milp.BOOLEAN, 0, 1)
                u_cols.append(u)
                for col in cols:
                    p.add_row((col, u), (1.0, -1.0), "<=", 0)
                if svc != vm.offered_service:
                    self._term("deployment", u, w.z * BASELINE_DEPLOY_MS / 1000.0)
            # Non-idle VMs are locked to their current type; the candidate
            # filter already restricts their placements, so u for that type
            # is the only one present here.
            p.add_row(u_cols, [1.0] * len(u_cols), "<=", 1)

    # -- decoding ----------------------------------------------------------

    def decode(self, solution: milp.MilpSolution) -> SchedulingPlan:
        """Turn a solver answer into a plan whose point passes ``milp.verify``.

        Integer variables are rounded and every continuous helper (free
        capacity, block remainders, e^p) is re-derived at its floor. Each
        helper carries a non-negative objective weight, so a gap-limited
        incumbent whose helpers sit above their floors repairs to a point
        no worse than itself. The plan reports this repaired objective,
        bracketed by the solver's bound and incumbent objective. The answer
        ``postponed`` returned is taken as it is: its helpers are already at
        their floors.
        """
        if solution.status not in (milp.OPTIMAL, milp.GAP_LIMIT, milp.TIME_LIMIT):
            raise ValueError(f"cannot decode a {solution.status} solution")
        if solution.values is None:
            raise ValueError("solution carries no values")
        x = np.asarray(solution.values, dtype=np.float64)
        if solution is self._certified:
            values = x.tolist()
        else:
            integral = self.problem.integral()
            rounded = np.round(x)
            unroundable = integral & (np.abs(x - rounded) > milp.FEAS_TOL)
            if unroundable.any():
                col = int(np.argmax(unroundable))
                raise ValueError(
                    f"unroundable integrality residue on {self.problem.names[col]}: {x[col]}"
                )
            # + 0.0 turns a rounded -0.0 into 0.0
            values = np.where(integral, rounded + 0.0, x).tolist()
            for col, rows in self._helpers:
                values[col] = self._floor(col, rows, values)

        assignments = [a for vm_x in self._vm_x.values() for col, a in vm_x if values[col] > 0.5]
        leases = {}
        for vm in self.candidates:
            btus = int(values[self._y[vm.id]])
            if btus:
                leases[vm.id] = btus
        penalties = {iid: values[col] for iid, col in self._ep.items()}
        placed: dict[int, list[int]] = {iid: [] for iid in self._remaining}
        for a in assignments:
            placed[a.instance_id].append(a.step_index)
        remaining = {iid: rs.remaining_ms(placed[iid]) for iid, rs in self._remaining.items()}
        terms = {
            name: 0.0 + sum(map(mul, coefs, map(values.__getitem__, cols)))
            for name, (cols, coefs) in self._terms.items()
        }
        total = sum(terms.values())
        self._check_objective(total, solution)
        return SchedulingPlan(
            assignments=assignments,
            running=[a for on_vm in self._running.values() for a in on_vm],
            lease_extensions=leases,
            penalties_ms=penalties,
            remaining_ms=remaining,
            objective_terms=terms,
            objective_value=total,
            milp_values=values,
        )

    def _floor(self, col: int, rows: list[int], values: list[float]) -> float:
        """The least value of helper ``col`` that its rows allow, given the
        other columns' ``values``; read off the model's own rows, so a point
        with every helper at its floor is exactly feasible on those rows. A
        helper's coefficient ``a`` is +1 on its ``>=`` rows and -1 on its
        ``<=`` rows, so ``a`` is also its inverse."""
        p = self.problem
        floor = 0.0
        for row in rows:
            relation, bound = p.row_relation(row)
            a = 1.0 if relation == ">=" else -1.0
            cols, coefs = p.row_terms(row)
            others = [(-c * a) * values[k] for k, c in zip(cols, coefs) if k != col]
            floor = max(floor, 0.0 + sum(others) + a * bound)
        return floor

    def postponed(self) -> milp.MilpSolution | None:
        """The answer that places nothing and leases nothing, certified
        optimal without a solver, or ``None`` when that cannot be shown.

        With every cost at least 0 and every lower bound 0, no point costs
        less than 0. The point with every integer column at 0 and every
        helper at its floor costs exactly 0 when no helper with a positive
        cost has a positive floor; if it also passes ``milp.verify``, 0 is a
        proven bound that this point attains. As every placement and lease
        column costs more than 0, each of them is 0 in every optimum, so
        any exact solver's plan is this one. ``decode`` takes this answer as
        it is, and its point, verified here, needs no second ``milp.verify``.
        """
        p = self.problem
        cost = p.cost
        if any(p.lower) or not all(0.0 <= c < math.inf for c in cost):
            return None
        if not all(cost[y] > 0.0 for y in self._y.values()):
            return None
        if not all(cost[col] > 0.0 for vm_x in self._vm_x.values() for col, _ in vm_x):
            return None
        values = [0.0] * p.num_vars
        for col, rows in self._helpers:
            floor = self._floor(col, rows, values)
            if floor and cost[col]:
                return None
            values[col] = floor
        if milp.verify(p, values):
            return None
        self._certified = milp.MilpSolution(milp.OPTIMAL, np.array(values), 0.0, 0.0)
        return self._certified

    @staticmethod
    def _check_objective(total: float, solution: milp.MilpSolution):
        """Refuse a repaired objective outside [bound, incumbent objective]."""
        if solution.objective_value is None:
            return
        tol = 1e-6 * max(1.0, abs(solution.objective_value))
        if total > solution.objective_value + tol:
            raise ValueError(
                f"objective breakdown {total} exceeds solver "
                f"objective {solution.objective_value}"
            )
        if solution.bound is not None and total < solution.bound - tol:
            raise ValueError(
                f"objective breakdown {total} is below solver bound {solution.bound}"
            )


BASELINE_DEPLOY_MS = 30_000


def _within(cpu: float, ram: float, vt: VmType) -> bool:
    """Whether a CPU and RAM load fits one VM of type ``vt``."""
    return cpu <= vt.cpu_supply + 1e-9 and ram <= vt.ram_supply + 1e-9


FRESH_PREFIX = "new_"


def is_fresh_vm(vm_id: str) -> bool:
    """Whether ``vm_id`` names a fresh candidate rather than a live lease."""
    return vm_id.startswith(FRESH_PREFIX)


def fresh_vm_type(vm_id: str) -> str:
    """VM type encoded in a fresh candidate's id (``new_<type>_<n>``)."""
    if not is_fresh_vm(vm_id):
        raise ValueError(f"{vm_id!r} is not a fresh candidate id")
    return vm_id[len(FRESH_PREFIX) :].rsplit("_", 1)[0]


def build(state: SchedulingState, config: OptimizerConfig) -> FfsippModel:
    """Build the round model; ``model.problem`` is the MILP."""
    return FfsippModel(state, config, baseline=False)


def next_wakeup(plan: SchedulingPlan, state: SchedulingState, config: OptimizerConfig) -> int:
    """Earliest time (ms) the next round must run so every instance can
    still meet its (penalty-adjusted) deadline, ``deadline + e^p - e_i``
    with e_i as the plan left it; never sooner than now+eps."""
    floor = state.now_ms + config.epsilon_ms
    latest = min(
        (
            inst.deadline_ms + plan.penalties_ms[inst.id] - plan.remaining_ms[inst.id]
            for inst in state.instances
        ),
        default=floor,
    )
    return max(floor, int(latest))
