"""Scheduling MILP: build a model from a landscape snapshot, decode the
solution into a plan, and compute the next optimization wake-up.

Steps are placed directly on (candidate) VM instances; containers are
introduced afterwards by the controller transformation. The baseline
variant (one service type per VM) reuses this builder via its ``baseline``
flag, adding a type flag per service on each VM that can still choose its
type.
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
    StepState,
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


@dataclass(eq=False)
class _Candidate:
    """One candidate VM as the round model sees it."""

    vm: VmSnapshot
    vt: VmType
    fresh: bool
    running: list[Assignment]  # its running steps, occupancy = remainder
    run_cpu: float
    run_ram: float
    max_run: int  # longest running remainder, 0 when none
    horizon: int  # longest running step or placement on it, from now
    # placements in creation order, each as (column, step, occupancy,
    # instance id, step index); decode makes the Assignment
    placements: list[tuple[int, StepState, int, int, int]] = field(default_factory=list)
    y: int = -1  # its BTUs to lease
    g: int = -1  # its use flag; a one-BTU fresh VM's is its y


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
        self._ready: dict[int, dict[int, frozenset[str]]] = {}
        for inst in state.instances:
            ready = self._ready[inst.id] = {}
            for j in sorted(next_steps(inst)):
                step = inst.steps[j]
                ready[j] = frozenset(
                    t for t, vt in state.vm_types.items()
                    if _within(step.cpu_demand, step.ram_demand, vt)
                )
        self.problem = milp.MilpProblem()
        self._instances = {inst.id: inst for inst in state.instances}
        # objective term -> its columns and coefficients, in the order added
        self._terms: dict[str, tuple[list[int], list[float]]] = {
            n: ([], []) for n in TERM_NAMES
        }
        self._ep: dict[int, int] = {}
        self._remaining: dict[int, worstcase.RemainingStructure] = {}
        # Continuous helpers and the rows that bound each from below, in
        # creation order: the instances' e^p, then the free-capacity ones.
        # Decode sets each at its floor.
        self._helpers: list[tuple[int, list[int]]] = []
        # helper -> per row: its columns, coefficients, -a and a * bound (see _floor)
        self._bounds: dict[int, list[_Piece]] = {}
        # The answer postponed certified: its helpers are at their floors and
        # its point passed milp.verify, so decode takes it as it is.
        self._certified: milp.MilpSolution | None = None
        self._ex_run: dict[int, int] = {}  # instance -> its longest running remainder
        self._vms = [self._candidate(vm) for vm in self._candidate_vms()]
        self._build()
        cost = self.problem.cost
        for cols, coefs in self._terms.values():
            for col, coef in zip(cols, coefs):
                cost[col] += coef

    # -- construction -----------------------------------------------------

    def _candidate_vms(self) -> list[VmSnapshot]:
        """The fleet, then fresh copies of each type. Copies of one type are
        interchangeable, and switching an empty one off never raises the
        cost, so some optimum uses no more of them than the ready steps that
        fit the type: the copies are capped at that count as well as at the
        pool's room. No rows order them: HiGHS's symmetry detection does."""
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
                # VmSnapshot(id, type_id, ready_in_ms, lease_remaining_ms)
                cands.append(VmSnapshot(f"{FRESH_PREFIX}{vt.id}_{i}", vt.id, vt.startup_ms, 0))
        return cands

    def _candidate(self, vm: VmSnapshot) -> _Candidate:
        """``vm``'s record, with its running steps' load summed; a load
        beyond its type's supply is refused here. Each running step also
        counts toward its instance's longest running remainder."""
        vt = self.state.vm_types[vm.type_id]
        running = []
        for iid, j, rem in vm.running_steps:
            step = self._instances[iid].steps[j]
            running.append(
                Assignment(iid, j, vm.id, step.service, step.cpu_demand, step.ram_demand, rem)
            )
            self._ex_run[iid] = max(self._ex_run.get(iid, rem), rem)
        run_cpu = sum((a.cpu_demand for a in running), 0.0)
        run_ram = sum((a.ram_demand for a in running), 0.0)
        if not _within(run_cpu, run_ram, vt):
            raise ModelError(
                f"{vm.id} already runs {run_cpu}% CPU and {run_ram} MB RAM, "
                f"over its supply of {vt.cpu_supply}% and {vt.ram_supply} MB"
            )
        max_run = max((a.occupancy_ms for a in running), default=0)
        return _Candidate(vm, vt, is_fresh_vm(vm.id), running, run_cpu, run_ram, max_run, max_run)

    def _build(self):
        state, w = self.state, self.config.weights
        p = self.problem
        baseline = self.baseline

        # Placements first: each VM's longest placement or running step
        # fixes the BTUs it can need beyond its lease. A step's occupancy
        # on a VM is its expected duration plus the VM's boot remainder and
        # the step's deployment there.
        schedulable: dict[int, dict[int, list[tuple[_Candidate, int]]]] = {}
        fitting: dict[frozenset[str], list[_Candidate]] = {}  # VM types -> their candidates
        for inst in state.instances:
            steps = schedulable[inst.id] = {}
            for j, types in self._ready[inst.id].items():
                step = inst.steps[j]
                if types not in fitting:
                    fitting[types] = [c for c in self._vms if c.vm.type_id in types]
                if not fitting[types]:
                    raise ModelError(
                        f"step {inst.id}/{j} ({step.service}, {step.cpu_demand}%) "
                        f"exceeds every VM type's supply"
                    )
                service, expected_ms = step.service, step.expected_ms
                svc = state.services[service]
                deploy_ms = svc.container_start_ms + svc.image_pull_ms
                cands = steps[j] = []
                for c in fitting[types]:
                    vm = c.vm
                    occ = expected_ms + vm.ready_in_ms
                    if baseline:
                        # A VM keeps its single offered type for its whole
                        # lease; only a VM that never hosted a container
                        # may still pick one.
                        if vm.offered_service is None:
                            occ += BASELINE_DEPLOY_MS
                        elif vm.offered_service != service:
                            continue
                    elif service not in vm.cached_images:
                        occ += deploy_ms
                    cands.append((c, occ))
                    if occ > c.horizon:
                        c.horizon = occ

        # Per-VM lease / usage variables. y is capped at that need: more
        # BTUs only add cost. A fresh VM that one BTU covers would get
        # g <= y <= 1*g, so its y is its own use flag; any other fresh VM
        # gets g <= y here and y <= need*g below. A leased VM's g - y <= 1
        # holds by the bounds.
        leasing = self._terms["leasing"]
        for c in self._vms:
            vm, vt = c.vm, c.vt
            need = math.ceil(max(0, c.horizon - vm.lease_remaining_ms) / vt.btu_ms)
            c.y = p.add_var(f"y__{vm.id}", milp.INTEGER, 0, need)
            if vt.cost_per_btu:
                leasing[0].append(c.y)
                leasing[1].append(vt.cost_per_btu)
            if c.fresh and need <= 1:
                c.g = c.y
            else:
                c.g = p.add_var(f"g__{vm.id}", milp.BOOLEAN, 0, 1)
                if c.fresh:
                    p.add_row((c.g, c.y), (1.0, -1.0), _NEG_INF, 0)

        # Placement variables and per-instance rows. A placement pays its
        # VM's remaining lease; one that outlasts a lease needs a coverage
        # row, unless its VM's y is its use flag.
        for inst in state.instances:
            self._instance_rows(inst, schedulable[inst.id])

        # Baseline type exclusivity.
        if self.baseline:
            self._baseline_rows()

        # Capacity, free capacity, usage link per VM. A capacity row with no
        # placement term only restates that the running steps fit, which
        # is checked here instead.
        for c in self._vms:
            vm, vt, y, g = c.vm, c.vt, c.y, c.g
            cols = [x[0] for x in c.placements]
            cols_cpu = [x[0] for x in c.placements if x[1].cpu_demand]
            cpu = [x[1].cpu_demand for x in c.placements if x[1].cpu_demand]
            cols_ram = [x[0] for x in c.placements if x[1].ram_demand]
            ram = [x[1].ram_demand for x in c.placements if x[1].ram_demand]
            if cols_cpu:
                p.add_row(cols_cpu, cpu, _NEG_INF, vt.cpu_supply - c.run_cpu)
            if cols_ram:
                p.add_row(cols_ram, ram, _NEG_INF, vt.ram_supply - c.run_ram)
            for col in cols:
                p.add_row((col, g), (1.0, -1.0), _NEG_INF, 0)  # a placement uses its VM
            if w.f_cpu:
                self._free_row(f"fC__{vm.id}", cols_cpu, cpu, g, vt.cpu_supply, c.run_cpu, w.f_cpu)
            if w.f_ram:
                self._free_row(f"fR__{vm.id}", cols_ram, ram, g, vt.ram_supply, c.run_ram, w.f_ram)
            # Lease coverage for running steps.
            if c.max_run > vm.lease_remaining_ms:
                p.add_row((y,), (float(vt.btu_ms),), c.max_run - vm.lease_remaining_ms, _INF)
            if g != y and c.fresh:  # y <= need*g, need being y's upper bound
                p.add_row((y, g), (1.0, -float(p.upper[y])), _NEG_INF, 0)

    def _free_row(self, name: str, cols, coefs, g: int, supply: float, run: float, weight: float):
        """f >= supply*g - used  <=>  f + used - supply*g >= -running_load,
        for a weighted free capacity f (an unweighted f cannot change the
        answer, so it is left out)."""
        f = self.problem.add_var(name, milp.CONTINUOUS, 0, math.inf)
        self._terms["free_capacity"][0].append(f)
        self._terms["free_capacity"][1].append(weight)
        if supply:
            cols, coefs = cols + [g], coefs + [-supply]
        self._helpers.append((f, [self.problem.add_row(cols + [f], coefs + [1.0], -run, _INF)]))

    def _instance_rows(self, inst: ProcessInstance, schedulable):
        cfg, w = self.config, self.config.weights
        p = self.problem
        tau = self.state.now_ms
        rs = worstcase.remaining_structure(inst, self.state.services, self.delta_ms)
        self._remaining[inst.id] = rs
        deployment = self._terms["deployment"]
        remaining_lease = self._terms["remaining_lease"]
        importance = self._terms["importance"]

        # Placement variables with their objective contributions, in column
        # order. Baseline deployments are priced per type variable instead
        # (see _baseline_rows); there is no image cache there.
        deploy = w.z if not self.baseline else 0.0
        placed: dict[int, list[tuple[int, int]]] = {}  # step -> (column, occupancy)
        for j, cands in schedulable.items():
            step = inst.steps[j]
            name = f"x__{inst.id}__{j}__"
            first = p.add_vars([name + c.vm.id for c, _ in cands], milp.BOOLEAN, 0, 1)
            cols = range(first, first + len(cands))
            placed[j] = list(zip(cols, [occ for _, occ in cands]))
            for col, (c, occ) in zip(cols, cands):
                c.placements.append((col, step, occ, inst.id, j))
                # Lease coverage for a placement that outlasts the lease. On
                # a VM whose y is its use flag, occ <= btu_ms, so x <= y
                # already covers it.
                lease_ms = c.vm.lease_remaining_ms
                if occ > lease_ms and c.g != c.y:
                    p.add_row((col, c.y), (float(occ), -float(c.vt.btu_ms)), _NEG_INF, lease_ms)
            if deploy:
                uncached = [
                    col for col, (c, _) in zip(cols, cands)
                    if step.service not in c.vm.cached_images
                ]
                deployment[0].extend(uncached)
                deployment[1].extend([deploy] * len(uncached))
            for col, (c, _) in zip(cols, cands):
                if price := w.d_per_ms * c.vm.lease_remaining_ms:
                    remaining_lease[0].append(col)
                    remaining_lease[1].append(price)
            urgency = w.dl_per_ms * (rs.step_deadline_ms[j] - tau)
            if urgency:
                importance[0].extend(cols)
                importance[1].extend([urgency] * len(cols))
            # At most one VM per step.
            if cols:
                p.add_row(cols, (1.0,) * len(cols), _NEG_INF, 1)

        # Deadline / penalty coupling for this round and the next: per
        # family, one row per row of e_i's open item (for an AND/XOR block,
        # one with the block at 0 and one per branch), so e^p's rows hold
        # only placements. A scheduled step replaces its worst-case
        # coefficient with the concrete occupancy of the chosen placement,
        # so parallel heads are not serialised. The "next" family prices
        # the instance as seen one round later: a step placed now has
        # already run for epsilon by then, an unplaced one still costs its
        # worst case.
        ep = p.add_var(f"ep__{inst.id}", milp.CONTINUOUS, 0, math.inf)
        self._ep[inst.id] = ep
        if inst.penalty_rate:
            self._terms["penalty"][0].append(ep)
            self._terms["penalty"][1].append(inst.penalty_rate)
        ex_run = self._ex_run.get(inst.id, 0)
        first = p.num_rows
        for eps, run in ((0, ex_run), (cfg.epsilon_ms, 0)):
            rhs = inst.deadline_ms - (tau + eps) - run - float(rs.constant_ms)
            for row_ms, heads in rs.rows:
                cols, coefs = [], []
                for j, coef in heads.items():
                    for col, occ in placed.get(j, ()):
                        if occ - coef - eps:
                            cols.append(col)
                            coefs.append(float(occ - coef - eps))
                p.add_row(cols + [ep], coefs + [-1.0], _NEG_INF, rhs - row_ms)
        self._helpers.append((ep, list(range(first, p.num_rows))))

    def _baseline_rows(self):
        """One service type per VM. A VM that can still choose its type gets
        a flag u per service it has placements of, priced at the flat
        deployment, and x <= u for each placement.

        A VM locked to its type (``offered_service`` set) gets no flags: its
        placements are all of that type, and their x <= g links say all its
        flag would. A VM with two or more flags gets sum(u) <= g, its use
        flag (Wolsey's disaggregated facility-location row): an LP point can
        then offer a VM open to 0.3 to at most 0.3 of one type, not to two.
        With one flag the row cuts nothing from the LP, since u = max x <= g
        already meets it, yet HiGHS's presolve then no longer reduces small
        models to nothing; such a VM gets no row, and u <= 1 is its bound."""
        price = self.config.weights.z * BASELINE_DEPLOY_MS / 1000.0
        p = self.problem
        deployment = self._terms["deployment"]
        for c in self._vms:
            if c.vm.offered_service is not None:
                continue
            per_service: dict[str, list[int]] = {}
            for col, step, *_ in c.placements:
                per_service.setdefault(step.service, []).append(col)
            u_cols = []
            for svc, x_cols in per_service.items():
                u = p.add_var(f"u__{svc}__{c.vm.id}", milp.BOOLEAN, 0, 1)
                u_cols.append(u)
                for x in x_cols:
                    p.add_row((x, u), (1.0, -1.0), _NEG_INF, 0)
                if price:
                    deployment[0].append(u)
                    deployment[1].append(price)
            if len(u_cols) > 1:
                p.add_row(u_cols + [c.g], [1.0] * len(u_cols) + [-1.0], _NEG_INF, 0)

    # -- decoding ----------------------------------------------------------

    def decode(self, solution: milp.MilpSolution) -> SchedulingPlan:
        """Turn a solver answer into a plan whose point passes ``milp.verify``.

        Integer variables are rounded and every continuous helper (free
        capacity, e^p) is re-derived at its floor. Each helper carries a
        non-negative objective weight, so a gap-limited incumbent whose
        helpers sit above their floors repairs to a point no worse than
        itself. The plan reports this repaired objective,
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
            # a NaN or an infinity keeps an infinite residue: it is unroundable
            residue = np.subtract(x, rounded, out=np.full_like(x, math.inf), where=np.isfinite(x))
            unroundable = integral & (np.abs(residue) > milp.FEAS_TOL)
            if unroundable.any():
                col = int(np.argmax(unroundable))
                raise ValueError(
                    f"unroundable integrality residue on {self.problem.names[col]}: {x[col]}"
                )
            # + 0.0 turns a rounded -0.0 into 0.0
            values = np.where(integral, rounded + 0.0, x).tolist()
            for col, rows in self._helpers:
                self._floor(col, rows, values)

        assignments = [
            Assignment(iid, j, c.vm.id, step.service, step.cpu_demand, step.ram_demand, occ)
            for c in self._vms
            for col, step, occ, iid, j in c.placements
            if values[col] > 0.5
        ]
        leases = {c.vm.id: btus for c in self._vms if (btus := int(values[c.y]))}
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
            running=[a for c in self._vms for a in c.running],
            lease_extensions=leases,
            penalties_ms=penalties,
            remaining_ms=remaining,
            objective_terms=terms,
            objective_value=total,
            milp_values=values,
        )

    def _floor(self, col: int, rows: list[int], values: list[float]) -> tuple[float, _Piece | None]:
        """Set helper ``col`` in ``values`` to the least value that its rows
        allow, given the other columns' values, and return it with the row
        piece that attains it (``None`` when the floor is 0). The floor is
        read off the model's own rows, so a point with every helper at its
        floor is exactly feasible on those rows.

        A helper's coefficient ``a`` is +1 on its ``>=`` rows and -1 on its
        ``<=`` rows, so ``a`` is also its inverse, and the floor on a row is
        ``-a * sum(other terms) + a * bound``. Each row's terms, ``-a`` and
        ``a * bound`` are read once per model. The sum runs over all the
        row's terms in order with the helper at 0: its term is a signed
        zero, which leaves every partial sum as it was, and the sign ``-a``
        is applied after summing, which changes at most the sign of a zero
        sum; ``0.0 +`` clears both."""
        bounds = self._bounds.get(col)
        if bounds is None:
            p = self.problem
            bounds = self._bounds[col] = []
            for row in rows:
                relation, bound = p.row_relation(row)
                a = 1.0 if relation == ">=" else -1.0
                bounds.append((*p.row_terms(row), -a, a * bound))
        values[col] = 0.0
        floor, active = 0.0, None
        for piece in bounds:
            cols, coefs, sign, shift = piece
            value = 0.0 + sign * sum(map(mul, coefs, map(values.__getitem__, cols))) + shift
            if value > floor:
                floor, active = value, piece
        values[col] = floor
        return floor, active

    def postponed(self) -> milp.MilpSolution | None:
        """The answer that places nothing and leases nothing, certified
        without a solver as the only plan HiGHS can return, or ``None`` when
        that cannot be shown.

        P0 has every integer column at 0 and every helper at its floor
        (decode's rule); it costs C0, the sum of rate_i * e^p_i. With every
        lower bound 0 and every cost but a placement's at least 0, a point
        that places steps costs at least C0 plus ``M_v`` for some VM v it
        uses (see ``_least_use``), with each placement priced at its cost
        less the most it can cut from its instance's penalty (see
        ``_net_costs``); a lease alone costs at least C0 plus its price.
        Once the least of these, M, exceeds ``_MARGIN``, HiGHS can accept no
        incumbent that places or leases: its dual bound is at most C0 and
        its relative gap is 0, so only its absolute gap (1e-6) could let it
        stop above that bound, and M exceeds it. Every answer it can return
        then has x = y = 0, which decode floors to P0's helper values: the
        same plan and wake-up. (A use flag or baseline type flag set alone
        changes no placement, lease, e^p or e_i.) P0 is then optimal, so C0
        is its proven bound. With C0 = 0 this is the rule that every
        placement and lease costs more than the margin. ``decode`` takes the
        answer as it is; its point, verified here, needs no second
        ``milp.verify``.
        """
        p = self.problem
        cost = p.cost
        # sum(cost) is finite only if every cost is
        if any(p.lower) or not math.isfinite(sum(cost)):
            return None
        # A free-capacity helper stays at 0 in P0, where every use flag is 0;
        # milp.verify below confirms it. The e^p helpers come first.
        values = [0.0] * p.num_vars
        owed: list[tuple[int, float, _Piece]] = []  # e^p, rate * e^p at P0, its active row
        for col, rows in self._helpers[: len(self._ep)]:
            floor, piece = self._floor(col, rows, values)
            if floor and cost[col]:
                owed.append((col, cost[col] * floor, piece))
        if not self._least_use(self._net_costs(owed)):
            return None
        # Only a placement may cost less than 0; only placements sit on
        # e^p's rows, so only they can cut a penalty.
        if min(cost) < 0.0:
            placements = {x[0] for cand in self._vms for x in cand.placements}
            if any(c < 0.0 and col not in placements for col, c in enumerate(cost)):
                return None
        if milp.verify(p, values):
            return None
        c0 = sum((c for _, c, _ in owed), 0.0)
        self._certified = milp.MilpSolution(milp.OPTIMAL, np.array(values), c0, c0)
        return self._certified

    def _net_costs(self, owed: list[tuple[int, float, _Piece]]) -> list[float]:
        """Each column's cost less the most that setting it to 1 can cut
        from the owed penalties (``cost`` itself when nothing is owed).

        At P0 each owed ``e^p`` sits on one of its deadline rows, an affine
        piece of the placements. Since its floor is the maximum of those
        pieces, ``e^p >= e^p(P0) - sum(s_x * x)`` at every point, with the
        slopes ``s_x`` read off that row. As ``e^p_i >= 0``, the penalty
        ``C0_i`` is cut by at most ``sum(min(C0_i, rate_i * s_x) * x)``."""
        cost = self.problem.cost
        if not owed:
            return cost
        net = list(cost)
        for ep, owed_i, (cols, coefs, sign, _) in owed:
            rate = cost[ep]
            for k, coef in zip(cols, coefs):
                slope = -sign * coef  # how much 1 unit of column k lowers e^p
                if k != ep and slope > 0.0:
                    net[k] -= min(owed_i, rate * slope)
        return net

    def _least_use(self, net: list[float]) -> bool:
        """Whether every VM's ``M_v`` and every lease's price exceed
        ``_MARGIN``, with each placement priced at its ``net`` cost.

        A VM used by a nonempty set of its placements costs at least the
        BTUs one of them forces (at least 1 on a fresh VM) plus the
        placements' net costs. Its free-capacity helpers add
        ``f * (supply - running - used)``, or at least 0; the larger of the
        two bounds counts. Over the nonempty sets, each sum is least for
        the set of its negative terms, or else for its least term. A
        placement that cannot fit beside the VM's running steps is 0 in
        every point HiGHS accepts (10 times its feasibility tolerance), so
        it is left out."""
        cost, upper = self.problem.cost, self.problem.upper
        w = self.config.weights
        f_cpu, f_ram = w.f_cpu, w.f_ram
        for cand in self._vms:
            y, vt = cand.y, cand.vt
            if upper[y] and cost[y] <= _MARGIN:
                return False
            room_cpu = vt.cpu_supply - cand.run_cpu
            room_ram = vt.ram_supply - cand.run_ram
            fit_cpu, fit_ram = room_cpu + _FIT_TOL, room_ram + _FIT_TOL
            # Over the placements that fit: the least occupancy, and of the
            # net costs c, and of c less f * demand, the negative sum and
            # the least term.
            least_occ = math.inf
            negative = negative_free = 0.0
            least = least_free = math.inf
            for col, step, occ, _, _ in cand.placements:
                cpu, ram = step.cpu_demand, step.ram_demand
                if cpu > fit_cpu or ram > fit_ram:
                    continue
                c = net[col]
                c_free = c - f_cpu * cpu - f_ram * ram
                if occ < least_occ:
                    least_occ = occ
                if c < least:
                    least = c
                if c_free < least_free:
                    least_free = c_free
                if c < 0.0:
                    negative += c
                if c_free < 0.0:
                    negative_free += c_free
            if least_occ == math.inf:
                continue
            btus = max(int(cand.fresh), -((cand.vm.lease_remaining_ms - least_occ) // vt.btu_ms))
            m_v = btus * cost[y] + max(
                negative if negative < 0.0 else least,
                f_cpu * room_cpu + f_ram * room_ram
                + (negative_free if negative_free < 0.0 else least_free),
            )
            if m_v <= _MARGIN:
                return False
        return True

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


_INF = math.inf
_NEG_INF = -math.inf
# How far a placement may exceed its VM's free room and still be certified
# out: 10 times HiGHS's (and verify's) feasibility tolerance.
_FIT_TOL = 10 * milp.FEAS_TOL
# How far above 0 the least cost of placing or leasing must lie for
# ``postponed`` to certify a round: 10 times HiGHS's absolute gap.
_MARGIN = 1e-5

# One row as _floor reads it: its columns, coefficients, -a and a * bound.
_Piece = tuple[list[int], list[float], float, float]


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


def build(state: SchedulingState, config: OptimizerConfig, baseline: bool = False) -> FfsippModel:
    """Build the round model, the VM-only baseline's with ``baseline``;
    ``model.problem`` is the MILP."""
    return FfsippModel(state, config, baseline)


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
