import dataclasses
import hashlib
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ffsipp
from ffsipp import controller, landscape, milp, optimizer, sim, worstcase
from ffsipp.baseline import build_baseline
from ffsipp.landscape import RUNNING, Weights
from ffsipp.optimizer import (
    OptimizerConfig,
    SchedulingState,
    VmSnapshot,
    build,
    fresh_vm_type,
    next_wakeup,
)

from .conftest import instance, preset_text, problem_from_json, service, vm_type
from .oracle import enumerate_oracle

WEIGHTS = Weights(dl_per_ms=1e-6, d_per_ms=1e-7, f_cpu=0.01, f_ram=0.0, z=1.0)


def config(**kw):
    defaults = dict(weights=WEIGHTS, epsilon_ms=2000, fresh_candidates=1)
    defaults.update(kw)
    return OptimizerConfig(**defaults)


def state(instances, services, vm_types, fleet=(), now_ms=0):
    return SchedulingState(
        now_ms=now_ms,
        instances=instances,
        fleet=list(fleet),
        services=services,
        vm_types=vm_types,
    )


def solve_plan(model, gap=1e-9):
    solution = milp.solve(model.problem, gap_tol=gap)
    return model.decode(solution), solution


class TestSingleStep:
    def single_step_state(self, abc_services):
        # Just enough slack to finish on time, not enough to postpone a round.
        inst = instance("s", abc_services, ["A"], deadline_ms=133_000)
        types = {"p1": vm_type("p1", cores=1, cost=10.0)}
        return state([inst], abc_services, types)

    def test_leases_one_btu(self, abc_services):
        model = build(self.single_step_state(abc_services), config())
        plan, _ = solve_plan(model)
        assert len(plan.assignments) == 1
        assert plan.lease_extensions == {"new_p1_0": 1}
        assert plan.objective_terms["leasing"] == pytest.approx(10.0)
        assert all(p == pytest.approx(0.0) for p in plan.penalties_ms.values())

    def test_matches_oracle(self, abc_services):
        model = build(self.single_step_state(abc_services), config())
        _, solution = solve_plan(model)
        oracle = enumerate_oracle(model.problem)
        assert solution.objective_value == pytest.approx(oracle.objective_value, abs=1e-6)

    def test_decoded_point_verifies(self, abc_services):
        model = build(self.single_step_state(abc_services), config())
        plan, _ = solve_plan(model)
        assert milp.verify(model.problem, plan.milp_values) == []

    def test_terms_sum_to_objective(self, abc_services):
        model = build(self.single_step_state(abc_services), config())
        plan, solution = solve_plan(model)
        assert sum(plan.objective_terms.values()) == pytest.approx(
            solution.objective_value, abs=1e-6
        )


class TestDecodeGapLimited:
    """A gap-limited incumbent may leave a continuous helper above its floor;
    decode repairs it from the model's rows and reports the repaired objective."""

    def padded(self, abc_services, prefix="fC__"):
        # Two parallel heads (one AND block) that miss the deadline by 32 s.
        # For the free-RAM helper, A demands RAM and free RAM is priced.
        services, weights = abc_services, WEIGHTS
        if prefix == "fR__":
            services = dict(abc_services, A=service("A", cpu=45.0, duration_s=40, ram=256.0))
            weights = dataclasses.replace(WEIGHTS, f_ram=0.001)
        inst = instance("AND(s|s)", services, ["A", "A"], deadline_ms=100_000)
        types = {"p1": vm_type("p1", cores=1, cost=10.0)}
        model = build(state([inst], services, types), config(weights=weights))
        exact = milp.solve(model.problem, gap_tol=1e-9)
        (col,) = [i for i, n in enumerate(model.problem.names) if n.startswith(prefix)]
        values = exact.values.copy()
        values[col] = model.decode(exact).milp_values[col] + 5.0
        padded = milp.MilpSolution(
            milp.GAP_LIMIT,
            values,
            exact.objective_value + 5.0 * model.problem.cost[col],
            exact.bound,
        )
        return model, exact, padded

    @staticmethod
    def family_floors(model, values, family):
        """The floor each of e^p's rows in one deadline family (0: this round,
        1: the next) allows it at values: the block-free row, then one row per
        branch of the AND block."""
        p = model.problem
        ep = p.names.index("ep__1")
        rows = [row for row in range(p.num_rows) if ep in p.row_terms(row)[0]]
        floors = []
        for row in rows[3 * family : 3 * family + 3]:
            cols, coefs = p.row_terms(row)
            relation, rhs = p.row_relation(row)
            assert relation == "<=" and coefs[cols.index(ep)] == -1.0
            floors.append(sum(c * values[k] for k, c in zip(cols, coefs) if k != ep) - rhs)
        return floors

    # The block remainders of this round (eblk__) and the next (eblkn__) are
    # folded into e^p's deadline rows, so their cases pad e^p and read its
    # repaired floor off that round's branch rows.
    FOLDED_BLOCKS = {"eblk__": 0, "eblkn__": 1}

    @pytest.mark.parametrize("prefix", ["fC__", "fR__", "eblk__", "eblkn__", "ep__"])
    def test_helper_repaired_to_its_floor(self, abc_services, prefix):
        family = self.FOLDED_BLOCKS.get(prefix)
        model, exact, padded = self.padded(abc_services, "ep__" if family is not None else prefix)
        plan = model.decode(padded)
        assert plan.milp_values == model.decode(exact).milp_values
        assert milp.verify(model.problem, plan.milp_values) == []
        if family is not None:
            # No step is in sequence, so the block-free row bounds e^p by the
            # deadline alone and allows no penalty; the repaired 32 s is read
            # off a branch row, which also subtracts a branch's worst case.
            block_free, *branches = self.family_floors(model, plan.milp_values, family)
            ep = model.problem.names.index("ep__1")
            assert block_free < 0
            assert max(branches) == plan.milp_values[ep] == 32_000.0

    def test_repaired_objective_reported(self, abc_services):
        model, exact, padded = self.padded(abc_services)
        plan = model.decode(padded)
        assert plan.objective_value == pytest.approx(exact.objective_value, abs=1e-9)
        assert plan.objective_value < padded.objective_value
        assert milp.verify(model.problem, plan.milp_values) == []

    def test_objective_below_repaired_rejected(self, abc_services):
        model, exact, padded = self.padded(abc_services)
        padded.objective_value = exact.objective_value - 1.0
        padded.bound = None
        with pytest.raises(ValueError, match="exceeds solver objective"):
            model.decode(padded)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_integer_rejected(self, abc_services, bad):
        model, exact, _ = self.padded(abc_services)
        values = exact.values.copy()
        y = model.problem.names.index("y__new_p1_0")
        values[y] = bad
        answer = milp.MilpSolution(milp.GAP_LIMIT, values, exact.objective_value, exact.bound)
        with pytest.raises(ValueError, match="unroundable integrality residue on y__new_p1_0"):
            model.decode(answer)

    def test_bound_above_repaired_rejected(self, abc_services):
        model, exact, padded = self.padded(abc_services)
        padded.bound = exact.objective_value + 1.0
        with pytest.raises(ValueError, match="below solver bound"):
            model.decode(padded)


class TestFoldedDeadlineRows:
    """Each AND/XOR block's branch rows are folded into e^p's deadline rows:
    per family, one row with the block at 0 and one per branch, so e^p's
    rows hold only placements."""

    def test_and_block_has_no_block_columns(self, abc_services):
        inst = instance("AND(s|s)", abc_services, ["A", "B"], deadline_ms=100_000)
        vm = VmSnapshot(
            id="vm1", type_id="p2", ready_in_ms=0, lease_remaining_ms=100_000,
            cached_images=frozenset({"A", "B"}),
        )
        types = {"p2": vm_type("p2", cores=2)}
        model = build(state([inst], abc_services, types, fleet=[vm]), config())
        p = model.problem
        assert not [n for n in p.names if n.startswith(("eblk__", "eblkn__"))]
        ep = p.names.index("ep__1")
        rows = [row for row in range(p.num_rows) if ep in p.row_terms(row)[0]]
        # this round's block-free row and two branch rows, then the next round's
        heads = []
        for row in rows:
            cols, coefs = p.row_terms(row)
            assert p.row_relation(row)[0] == "<=" and coefs[cols.index(ep)] == -1.0
            heads.append({p.names[k].split("__")[2] for k in cols if k != ep})
        assert heads == [set(), {"0"}, {"1"}] * 2

    @staticmethod
    def two_level_penalty(model, inst, plan) -> float:
        """e^p as the deadline rows set it: e_i is the constant plus the
        largest of the open item's rows, evaluated at the plan's placements."""
        cfg, tau = model.config, model.state.now_ms
        rs = worstcase.remaining_structure(inst, model.state.services, model.delta_ms)
        occ = {a.step_index: a.occupancy_ms for a in plan.assignments if a.instance_id == inst.id}
        late = 0.0
        for eps in (0, cfg.epsilon_ms):
            e_i = rs.constant_ms + max(
                const - sum(coef + eps - occ[j] for j, coef in heads.items() if j in occ)
                for const, heads in rs.rows
            )
            late = max(late, tau + eps + e_i - inst.deadline_ms)
        return late

    @pytest.mark.parametrize("baseline", [False, True], ids=["ffsipp", "sipp"])
    @pytest.mark.parametrize("deadline_ms", [150_000, 260_000])
    def test_matches_oracle(self, abc_services, baseline, deadline_ms):
        # An AND block with two ready heads and a chosen XOR branch after a
        # step in sequence; vm1 has A cached, so a head placed there runs
        # well under its worst case.
        both = instance("AND(s|s),s", abc_services, ["A", "B", "A"], iid=1,
                        deadline_ms=deadline_ms)
        one = instance("s,XOR(s|s)", abc_services, ["A", "A", "C"], iid=2,
                       deadline_ms=deadline_ms - 20_000)
        one.steps[0].status = landscape.DONE
        (xor,) = landscape.pending_xor_choices(one)
        landscape.apply_xor_choice(one, xor, 0)
        vm = VmSnapshot(
            id="vm1", type_id="p1", ready_in_ms=0, lease_remaining_ms=100_000,
            cached_images=frozenset({"A"}), offered_service="A",
        )
        snapshot = state([both, one], abc_services, {"p1": vm_type("p1")}, fleet=[vm])
        model = (build_baseline if baseline else build)(snapshot, config())
        assert landscape.next_steps(one) == {1}
        plan, solution = solve_plan(model)
        oracle = enumerate_oracle(model.problem)
        assert solution.objective_value == pytest.approx(oracle.objective_value, abs=1e-6)
        assert milp.verify(model.problem, plan.milp_values) == []
        for inst in (both, one):
            assert plan.penalties_ms[inst.id] == pytest.approx(
                self.two_level_penalty(model, inst, plan), abs=1e-6
            )

    def test_block_free_row_bounds_the_penalty(self, abc_services):
        # Both heads are placed on a fresh VM (132 s each, their worst case).
        # One round later, 200 s on, each branch has run for longer than
        # it lasts, so every branch row bounds e_i by less than the
        # sequence alone: the block-free row sets e^p to 200 + 132 - 250 s.
        inst = instance("AND(s|s),s", abc_services, ["A", "A", "A"], deadline_ms=250_000)
        model = build(state([inst], abc_services, {"p1": vm_type("p1")}),
                      config(epsilon_ms=200_000))
        plan, _ = solve_plan(model)
        assert sorted(a.step_index for a in plan.assignments) == [0, 1]
        assert plan.penalties_ms == {1: 82_000.0}
        assert plan.penalties_ms[1] == self.two_level_penalty(model, inst, plan)


class TestPenalties:
    def test_tight_deadline_incurs_planning_penalty(self, abc_services):
        inst = instance("s", abc_services, ["A"], deadline_ms=100_000, penalty_rate=0.1)
        types = {"p1": vm_type("p1")}
        model = build(state([inst], abc_services, types), config())
        plan, _ = solve_plan(model)
        # Scheduling now still finishes 32 s past the deadline in the worst case.
        assert plan.penalties_ms[inst.id] == pytest.approx(32_000.0)

    def test_postponing_costs_epsilon_more(self, abc_services):
        inst = instance("s", abc_services, ["A"], deadline_ms=100_000, penalty_rate=0.1)
        types = {"p1": vm_type("p1")}
        model = build(state([inst], abc_services, types), config(epsilon_ms=5000))
        plan, _ = solve_plan(model)
        values = plan.milp_values
        xcols = [i for i, n in enumerate(model.problem.names) if n.startswith("x__")]
        assert sum(values[i] for i in xcols) == 1.0


class TestPostponed:
    """``postponed`` certifies the plan that places and leases nothing, or
    leaves the round to HiGHS."""

    TYPES = {"p1": vm_type("p1")}

    @pytest.mark.parametrize("builder", [build, build_baseline], ids=["ffsipp", "sipp"])
    def test_slack_deadline_postpones(self, abc_services, builder):
        inst = instance("s,s", abc_services, ["A", "A"], deadline_ms=900_000)
        model = builder(state([inst], abc_services, self.TYPES), config())
        solution = model.postponed()
        assert solution.status == milp.OPTIMAL
        assert solution.objective_value == solution.bound == 0.0
        plan = model.decode(solution)
        assert plan.assignments == [] and plan.lease_extensions == {}
        assert plan.penalties_ms == {inst.id: 0.0}
        assert milp.verify(model.problem, plan.milp_values) == []

    def test_late_if_postponed(self, abc_services):
        inst = instance("s", abc_services, ["A"], deadline_ms=100_000)
        model = build(state([inst], abc_services, self.TYPES), config())
        assert model.postponed() is None
        assert solve_plan(model)[0].assignments

    def test_running_step_outlasts_lease(self, abc_services):
        inst = instance("s,s", abc_services, ["A", "A"], deadline_ms=900_000)
        inst.steps[0].status = RUNNING
        vm = VmSnapshot(
            id="vm1", type_id="p1", ready_in_ms=0, lease_remaining_ms=10_000,
            cached_images=frozenset({"A"}), running_steps=[(inst.id, 0, 30_000)],
        )
        model = build(state([inst], abc_services, self.TYPES, fleet=[vm]), config())
        assert model.postponed() is None
        plan, _ = solve_plan(model)
        assert plan.assignments == [] and plan.lease_extensions == {"vm1": 1}

    def test_overdue_step(self, abc_services):
        # Overdue by 2,000 s, the step's importance outweighs its deployment.
        inst = instance("s", abc_services, ["A"], deadline_ms=100_000)
        model = build(state([inst], abc_services, self.TYPES, now_ms=2_100_000), config())
        assert min(model.problem.cost) < 0
        assert model.postponed() is None

    def test_zero_cost_placement(self, abc_services):
        # A free placement on a VM whose lease outlasts it ties with
        # postponing, so HiGHS must pick.
        weights = Weights(dl_per_ms=0.0, d_per_ms=0.0, f_cpu=0.0, f_ram=0.0, z=1.0)
        inst = instance("s", abc_services, ["A"], deadline_ms=900_000)
        vm = VmSnapshot(
            id="vm1", type_id="p1", ready_in_ms=0, lease_remaining_ms=100_000,
            cached_images=frozenset({"A"}),
        )
        model = build(state([inst], abc_services, self.TYPES, fleet=[vm]), config(weights=weights))
        x = model.problem.names.index(f"x__{inst.id}__0__vm1")
        assert model.problem.cost[x] == 0.0
        assert model.postponed() is None

    def test_free_placement_that_needs_a_lease(self, abc_services):
        # The placement's own cost is 0, but on a VM whose lease has run out
        # it forces a BTU at 10 and leaves 55% CPU free at 0.01 each.
        weights = Weights(dl_per_ms=0.0, d_per_ms=1e-7, f_cpu=0.01, f_ram=0.0, z=1.0)
        inst = instance("s", abc_services, ["A"], deadline_ms=900_000)
        vm = VmSnapshot(
            id="vm1", type_id="p1", ready_in_ms=0, lease_remaining_ms=0,
            cached_images=frozenset({"A"}),
        )
        model = build(state([inst], abc_services, self.TYPES, fleet=[vm]), config(weights=weights))
        x = model.problem.names.index(f"x__{inst.id}__0__vm1")
        assert model.problem.cost[x] == 0.0
        solution = model.postponed()
        assert solution.objective_value == 0.0
        highs_plan, highs = solve_plan(model)
        assert highs.status == milp.OPTIMAL and highs.objective_value == pytest.approx(0.0)
        plan = model.decode(solution)
        assert plan.assignments == highs_plan.assignments == []
        assert plan.lease_extensions == highs_plan.lease_extensions == {}

    def test_penalty_no_placement_can_cut(self, abc_services):
        # Already late: placing a step now would cut the penalty by less
        # than the BTU it needs, so postponing, penalty and all, is the only
        # answer.
        inst = instance("s,s", abc_services, ["A", "A"], deadline_ms=100_000, penalty_rate=1e-4)
        model = build(state([inst], abc_services, self.TYPES, now_ms=150_000), config())
        solution = model.postponed()
        assert solution is not None and solution.objective_value > 0.0
        assert solution.bound == solution.objective_value
        highs_plan, highs = solve_plan(model)
        assert highs.objective_value == pytest.approx(solution.objective_value, rel=1e-9)
        plan = model.decode(solution)
        assert plan.assignments == highs_plan.assignments == []
        assert plan.penalties_ms == highs_plan.penalties_ms
        assert plan.remaining_ms == highs_plan.remaining_ms

    @pytest.mark.parametrize(
        "preset, requests, owed",
        [("smoke", None, False), ("constant_lenient_light", 10, True),
         ("pyramid_lenient_light", 15, True)],
        ids=["smoke-None", "constant_lenient_light-10", "pyramid_lenient_light-15"],
    )
    def test_matches_highs_on_simulated_rounds(self, preset, requests, owed, monkeypatch):
        # Whenever the certificate fires, HiGHS's objective is within 1e-6
        # of the certified C0 and its answer decodes to the same plan and
        # wake-up, also in rounds that already owe a penalty.
        postponed, fired = optimizer.FfsippModel.postponed, set()

        def checked(model):
            solution = postponed(model)
            if solution is not None:
                cfg = model.config
                c0 = solution.objective_value
                highs = milp.solve(model.problem, cfg.gap_tol)
                assert highs.status in (milp.OPTIMAL, milp.GAP_LIMIT)
                assert abs(highs.objective_value - c0) <= 1e-6
                mine, theirs = model.decode(solution), model.decode(highs)
                for name in ("assignments", "lease_extensions", "penalties_ms", "remaining_ms"):
                    assert getattr(mine, name) == getattr(theirs, name), name
                assert next_wakeup(mine, model.state, cfg) == next_wakeup(theirs, model.state, cfg)
                fired.add((model.baseline, c0 > 0.0))
            return solution

        monkeypatch.setattr(optimizer.FfsippModel, "postponed", checked)
        scenario = landscape.parse_scenario(preset_text(preset))
        if requests:
            scenario.arrival = dataclasses.replace(scenario.arrival, total_requests=requests)
        for approach in (sim.FFSIPP, sim.SIPP):
            sim.run(scenario, approach, 1)
        assert {baseline for baseline, _ in fired} == {False, True}
        if owed:
            assert {(False, True), (True, True)} <= fired


def generated_round(sc: landscape.Scenario, rng: np.random.Generator) -> SchedulingState:
    """A warm snapshot drawn from ``sc``'s catalog: 1-4 live instances
    part-way through their workflows, some already late, each priced at the
    simulator's planning rate or at the SLA policy's, and 0-3 leased VMs with
    partly used leases, some still booting, some with cached images and
    running steps. Running steps may outlast their VM's lease."""
    now = int(rng.integers(5, 60)) * 60_000
    delta_ms = max(vt.startup_ms for vt in sc.vm_types.values())
    cpu_cap = max(vt.cpu_supply for vt in sc.vm_types.values())
    instances = []
    for iid in range(1, int(rng.integers(1, 5)) + 1):
        model = sc.models[int(rng.integers(len(sc.models)))]
        svcs = [sc.services[n.service] for n in model.step_nodes]
        window = int(round(sc.sla.factor * (
            landscape.ms(landscape.average_makespan(model, sc.services))
            + landscape.critical_path_overhead_ms(model, sc.services, delta_ms)
        )))
        arrival = now - int(rng.uniform(0.1, 1.5) * window)
        # The simulator's planning rate, or the SLA policy's own rate
        rate = 1.0 / sim.penalty_unit_ms(sc.sla.penalty_policy, window)
        if sc.sla.planning_rate_per_s is not None and rng.random() < 0.5:
            rate = sc.sla.planning_rate_per_s / 1000.0
        inst = landscape.make_instance(
            model, sc.services, iid, arrival_ms=arrival, deadline_ms=arrival + window,
            penalty_rate=rate,
            step_cpu=[sim.sample_cpu(svc, rng, cpu_cap) for svc in svcs],
            step_durations_ms=[sim.sample_duration(svc, rng) for svc in svcs],
            loop_iterations={node_id: int(rng.integers(1, reps + 1))
                             for node_id, _, reps in model.paths.loops},
        )
        for _ in range(int(rng.integers(0, len(inst.steps)))):
            for node_id in landscape.pending_xor_choices(inst):
                branches = len(inst.model.nodes[node_id].children)
                landscape.apply_xor_choice(inst, node_id, int(rng.integers(branches)))
            ready = sorted(landscape.next_steps(inst))
            if sum(step.status == landscape.PENDING for step in inst.steps) <= 1:
                break
            inst.steps[ready[int(rng.integers(len(ready)))]].status = landscape.DONE
            landscape.advance_loops(inst)
        for node_id in landscape.pending_xor_choices(inst):
            landscape.apply_xor_choice(inst, node_id, 0)
        if landscape.next_steps(inst):
            instances.append(inst)
    fleet, used = [], {}
    types = list(sc.vm_types.values())
    services = sorted(sc.services)
    for k in range(int(rng.integers(0, 4))):
        vt = types[int(rng.integers(len(types)))]
        booting = rng.random() < 0.2
        offered = None if booting else services[int(rng.integers(len(services)))]
        fleet.append(VmSnapshot(
            id=f"vm{k + 1}", type_id=vt.id,
            ready_in_ms=int(rng.integers(1, vt.startup_ms)) if booting else 0,
            lease_remaining_ms=int(rng.integers(1, 2 * vt.btu_ms)),
            cached_images=frozenset() if booting else frozenset(
                {offered} | {s for s in services if rng.random() < 0.3}
            ),
            offered_service=offered,
        ))
        used[fleet[-1].id] = 0.0
    # Some ready steps already run, each on a ready VM that runs only its
    # service (as the baseline requires); one ready step stays unscheduled.
    waiting = [(inst, j) for inst in instances for j in sorted(landscape.next_steps(inst))]
    for inst, j in waiting[1:]:
        step = inst.steps[j]
        hosts = [vm for vm in fleet if not vm.ready_in_ms
                 and (vm.offered_service == step.service or not vm.running_steps)
                 and used[vm.id] + step.cpu_demand <= sc.vm_types[vm.type_id].cpu_supply]
        if hosts and rng.random() < 0.6:
            vm = hosts[int(rng.integers(len(hosts)))]
            vm.offered_service = step.service
            vm.cached_images |= {step.service}
            used[vm.id] += step.cpu_demand
            step.status = RUNNING
            vm.running_steps.append((inst.id, j, int(rng.integers(1, step.expected_ms + 1))))
    return state(instances, sc.services, sc.vm_types, fleet, now_ms=now)


class TestPostponedOnGeneratedRounds:
    """On seeded warm snapshots, under both builders: a certified answer is
    the plan HiGHS returns at the rounds' gap of 0, and a round in which that
    optimum places or leases anything is never certified."""

    PLAN = ("assignments", "lease_extensions", "penalties_ms", "remaining_ms")

    @pytest.mark.parametrize("preset", ["constant_lenient_light", "constant_strict_intense"])
    def test_certified_rounds_match_highs(self, preset):
        sc = landscape.parse_scenario(preset_text(preset))
        cfg = sc.config
        rng = np.random.default_rng(np.random.SeedSequence(24))
        seen = {"owed": 0, "placed": 0}
        for _ in range(100):
            snapshot = generated_round(sc, rng)
            if not snapshot.instances:
                continue
            for builder in (build, build_baseline):
                model = builder(snapshot, cfg)
                certified = model.postponed()
                exact = model.decode(milp.solve(model.problem, cfg.gap_tol))
                if exact.assignments or exact.lease_extensions:
                    seen["placed"] += 1
                    assert certified is None
                if certified is None:
                    continue
                seen["owed"] += certified.objective_value > 0.0
                mine = model.decode(certified)
                for name in self.PLAN:
                    assert getattr(mine, name) == getattr(exact, name), name
                assert next_wakeup(mine, snapshot, cfg) == next_wakeup(exact, snapshot, cfg)
        assert seen["owed"] and seen["placed"]


class TestRoundChainOnGeneratedRounds:
    """On seeded warm snapshots, under both builders, each round as the
    simulator runs it: the decoded plan verifies, its containers, running
    steps included, fit their VMs, and no action stops a container that
    runs a step."""

    @pytest.mark.parametrize(
        "preset", ["constant_lenient_light", "constant_strict_intense", "pyramid_strict_light"]
    )
    def test_plan_verifies_and_actions_are_safe(self, preset):
        sc = landscape.parse_scenario(preset_text(preset))
        cfg = sc.config
        rng = np.random.default_rng(np.random.SeedSequence(5))
        placing = stops = 0
        for _ in range(40):
            snapshot = generated_round(sc, rng)
            steps = {inst.id: inst.steps for inst in snapshot.instances}
            busy = {
                (vm.id, steps[iid][j].service)
                for vm in snapshot.fleet for iid, j, _ in vm.running_steps
            }
            # A leased VM runs a container of its offered service, busy or not.
            cloud = {
                vm.id: controller.CloudVmView(
                    0.0, 0.0, dict.fromkeys({vm.offered_service} - {None}, (0.0, 0.0))
                )
                for vm in snapshot.fleet
            }
            types = {vm.id: vm.type_id for vm in snapshot.fleet}
            for builder in (build, build_baseline):
                model = builder(snapshot, cfg)
                solution = model.postponed() or milp.solve(model.problem, cfg.gap_tol)
                plan = model.decode(solution)
                assert milp.verify(model.problem, plan.milp_values) == []
                placing += bool(plan.assignments)
                cplan = controller.transform(plan)
                load: dict[str, list[float]] = {}
                for c in cplan.containers:
                    used = load.setdefault(c.vm_id, [0.0, 0.0])
                    used[0] += c.cpu_size
                    used[1] += c.ram_size
                for vm_id, (cpu, ram) in load.items():
                    vt = sc.vm_types[types.get(vm_id) or fresh_vm_type(vm_id)]
                    assert cpu <= vt.cpu_supply + 1e-9 and ram <= vt.ram_supply + 1e-9
                for action in controller.plan_actions(cplan, cloud):
                    if action.kind == controller.STOP_CONTAINER:
                        stops += 1
                        assert (action.vm_id, action.service) not in busy
        assert placing and stops


class TestRoundModelOnGeneratedRounds:
    """The round model is pinned on seeded warm snapshots, under both
    builders: one sha256 of the models' JSON dumps per preset and builder.
    The snapshots hold running steps that outlast their VM's lease, booting
    VMs and cached images, which a short simulation reaches only in part;
    being drawn, not simulated, they do not shift when a plan changes. A
    change that only speeds up or restructures the builder must reproduce
    every digest."""

    DIGESTS = {
        "constant_lenient_light": (
            "ea7e349e9428f3e587f19cc2431c2ff597be4a573a8df5c4fd9d9bb257f8c93a",
            "050a4762c58cacd08729fb992c803b3cad79e9ec14eb4b28abb4236afcf1f633",
        ),
        "constant_strict_intense": (
            "e8ae2ae5b721a0dd870420fd16227f243ed774d3e5e682498c2c5b4017305adf",
            "2dd63a168016e2fc730abe849260e0e84f53d3d974be5231dc3215743e1726f4",
        ),
        "pyramid_strict_light": (
            "74a6a9629a53e5ac254cedefa3fe7e1173336a150186c07768cc5b34766137a3",
            "74c5d99306aa50178c31918952dc00c045323c6238fe1c25a20162312f79ee2a",
        ),
    }

    @pytest.mark.parametrize("preset", sorted(DIGESTS))
    def test_models_match_their_digests(self, preset):
        sc = landscape.parse_scenario(preset_text(preset))
        rng = np.random.default_rng(np.random.SeedSequence(30))
        snapshots = [generated_round(sc, rng) for _ in range(40)]
        fleet = [vm for snapshot in snapshots for vm in snapshot.fleet]
        assert any(rem > vm.lease_remaining_ms for vm in fleet for _, _, rem in vm.running_steps)
        assert any(vm.ready_in_ms for vm in fleet)
        assert any(vm.cached_images for vm in fleet)
        digests = []
        for builder in (build, build_baseline):
            h = hashlib.sha256()
            for snapshot in snapshots:
                h.update(builder(snapshot, sc.config).problem.to_json().encode())
            digests.append(h.hexdigest())
        assert tuple(digests) == self.DIGESTS[preset]


def with_fresh_order_rows(problem: milp.MilpProblem) -> tuple[milp.MilpProblem, int]:
    """A copy of ``problem`` with ``g_a - g_b >= 0`` for each pair of
    consecutive fresh candidates of one type (``g`` is a candidate's use
    flag, its ``y`` when it has no ``g`` column), and the most fresh
    candidates of any one type."""
    copy = problem_from_json(problem.to_json())
    col = {name: k for k, name in enumerate(problem.names)}
    flags: dict[str, list[int]] = {}
    for name in problem.names:
        if name.startswith(f"y__{optimizer.FRESH_PREFIX}"):
            vm_id = name[len("y__"):]
            flags.setdefault(fresh_vm_type(vm_id), []).append(col.get(f"g__{vm_id}", col[name]))
    for group in flags.values():
        for a, b in zip(group, group[1:]):
            copy.add_row([a, b], [1.0, -1.0], 0.0, math.inf)
    return copy, max(map(len, flags.values()), default=0)


def test_fresh_candidate_order_rows_keep_the_optimum_on_generated_rounds():
    """Ordering the anonymous fresh candidates of each type by their use
    flags cuts no optimum: with or without those rows, the round's MILP has
    the same optimal objective, under both builders."""
    widest = 0
    for preset in ("constant_strict_intense", "constant_lenient_light"):
        sc = landscape.parse_scenario(preset_text(preset))
        rng = np.random.default_rng(np.random.SeedSequence(32))
        for _ in range(30):
            snapshot = generated_round(sc, rng)
            if not snapshot.instances:
                continue
            for builder in (build, build_baseline):
                problem = builder(snapshot, sc.config).problem
                ordered, copies = with_fresh_order_rows(problem)
                optimum = milp.solve(problem, sc.config.gap_tol).objective_value
                ordered_optimum = milp.solve(ordered, sc.config.gap_tol).objective_value
                assert optimum == pytest.approx(ordered_optimum, rel=1e-6)
                widest = max(widest, copies)
    assert widest >= 2


class TestSharingAndCapacity:
    def test_two_steps_share_one_vm(self, abc_services):
        insts = [
            instance("s", abc_services, ["A"], iid=1, deadline_ms=133_000),
            instance("s", abc_services, ["A"], iid=2, deadline_ms=133_000),
        ]
        types = {"p1": vm_type("p1", cores=1, cost=10.0)}
        model = build(state(insts, abc_services, types), config())
        plan, _ = solve_plan(model)
        assert len(plan.assignments) == 2
        assert len({a.vm_id for a in plan.assignments}) == 1
        assert sum(plan.lease_extensions.values()) == 1

    def test_capacity_forces_second_vm(self, abc_services):
        insts = [
            instance("s", abc_services, ["B"], iid=1, deadline_ms=173_000),
            instance("s", abc_services, ["B"], iid=2, deadline_ms=173_000),
        ]
        types = {"p1": vm_type("p1", cores=1, cost=10.0)}
        model = build(state(insts, abc_services, types), config(fresh_candidates=2))
        plan, _ = solve_plan(model)
        assert len({a.vm_id for a in plan.assignments}) == 2

    def test_oversized_step_rejected(self, abc_services):
        services = dict(abc_services)
        services["H"] = abc_services["C"]
        inst = instance("s", services, ["C"])
        inst.steps[0].cpu_demand = 450.0
        types = {"p1": vm_type("p1", cores=1)}
        with pytest.raises(optimizer.ModelError):
            build(state([inst], services, types), config())


class TestLiveModel:
    """The round model holds only rows and columns that can change its answer."""

    def snapshot(self, abc_services):
        services = dict(abc_services, H=service("H", cpu=150.0, duration_s=60, ram=512.0))
        # Instance 1 runs step 0 on vm1 and has step 1 ready; 2 and 3 each
        # have one step that fits only the 2- and 4-core types.
        running = instance("AND(s|s)", services, ["A", "A"], iid=1, deadline_ms=140_000)
        running.steps[0].status = RUNNING
        big = [instance("s", services, ["H"], iid=i, deadline_ms=150_000) for i in (2, 3)]
        types = {
            "p1": vm_type("p1", cores=1),
            "p2": vm_type("p2", cores=2, cost=18.0, pool_limit=2),
            "p4": vm_type("p4", cores=4, cost=30.0),
        }
        fleet = [
            VmSnapshot(
                id="vm1", type_id="p1", ready_in_ms=0, lease_remaining_ms=100_000,
                cached_images=frozenset({"A"}), offered_service="A",
                running_steps=[(1, 0, 50_000)],
            ),
            VmSnapshot(id="vm2", type_id="p2", ready_in_ms=0, lease_remaining_ms=20_000),
        ]
        return state([running] + big, services, types, fleet=fleet)

    @pytest.mark.parametrize("baseline", [False, True], ids=["ffsipp", "sipp"])
    @pytest.mark.parametrize("f_cpu, f_ram", [(0.01, 0.0), (0.0, 0.001)])
    def test_only_live_rows_and_columns(self, abc_services, baseline, f_cpu, f_ram):
        weights = Weights(dl_per_ms=1e-6, d_per_ms=1e-7, f_cpu=f_cpu, f_ram=f_ram, z=1.0)
        cfg = config(weights=weights, fresh_candidates=2)
        model = (build_baseline if baseline else build)(self.snapshot(abc_services), cfg)
        p = model.problem
        assert (np.diff(p.assembled().start) > 0).all(), "a row without a non-zero term"
        helpers = [col for col, n in enumerate(p.names) if n.startswith(("fC__", "fR__"))]
        assert helpers and all(p.cost[col] for col in helpers)
        # p1 fits one ready step, p2 has room for one more VM in its pool,
        # p4 is held at fresh_candidates.
        y_cols = {name[len("y__"):]: col for col, name in enumerate(p.names)
                  if name.startswith("y__")}  # one per candidate VM
        fresh = {}
        for vm_id in y_cols:
            if optimizer.is_fresh_vm(vm_id):
                fresh[fresh_vm_type(vm_id)] = fresh.get(fresh_vm_type(vm_id), 0) + 1
        assert fresh == {"p1": 1, "p2": 1, "p4": 2}
        plan, _ = solve_plan(model)
        assert milp.verify(p, plan.milp_values) == []
        assert plan.assignments
        y = {vm_id: plan.milp_values[col] for vm_id, col in y_cols.items()}
        assert plan.lease_extensions == {vm_id: btus for vm_id, btus in y.items() if btus}
        assert plan.lease_extensions


class TestOneColumnRule:
    """A fresh VM whose every placement ends within one BTU has no use flag
    of its own: its lease count y is one, and x <= y covers its lease."""

    def services(self, abc_services):
        # L runs 400 s: 492 s on a fresh VM, which two BTUs of 300 s cover.
        return dict(abc_services, L=service("L", cpu=150.0, duration_s=400))

    def rows_with(self, model, name):
        """Every row that has column ``name``, as ({column: coef}, relation, rhs)."""
        p = model.problem
        col = p.names.index(name)
        out = []
        for row in range(p.num_rows):
            cols, coefs = p.row_terms(row)
            if col in cols:
                terms = {p.names[k]: c for k, c in zip(cols, coefs)}
                out.append((terms, *p.row_relation(row)))
        return out

    def test_one_btu_fresh_vm_has_one_column(self, abc_services):
        inst = instance("s", abc_services, ["A"], deadline_ms=133_000)
        model = build(state([inst], abc_services, {"p1": vm_type("p1")}), config())
        p = model.problem
        assert "g__new_p1_0" not in p.names
        assert p.upper[p.names.index("y__new_p1_0")] == 1
        x = "x__1__0__new_p1_0"
        assert self.rows_with(model, "y__new_p1_0") == [
            ({x: 1.0, "y__new_p1_0": -1.0}, "<=", 0),
            ({x: 45.0, "y__new_p1_0": -100.0, "fC__new_p1_0": 1.0}, ">=", 0),
        ]
        plan, _ = solve_plan(model)
        assert plan.lease_extensions == {"new_p1_0": 1}

    def test_longer_step_keeps_use_flag_and_coverage(self, abc_services):
        services = self.services(abc_services)
        inst = instance("s", services, ["L"], deadline_ms=492_000)
        model = build(state([inst], services, {"p2": vm_type("p2", cores=2)}), config())
        x, y, g = "x__1__0__new_p2_0", "y__new_p2_0", "g__new_p2_0"
        assert model.problem.upper[model.problem.names.index(y)] == 2
        rows = self.rows_with(model, y)
        assert ({g: 1, y: -1}, "<=", 0) in rows
        assert ({y: 1.0, g: -2.0}, "<=", 0) in rows
        assert ({x: 492_000.0, y: -300_000.0}, "<=", 0) in rows
        assert ({x: 1.0, g: -1.0}, "<=", 0) in self.rows_with(model, g)
        plan, _ = solve_plan(model)
        assert [a.vm_id for a in plan.assignments] == ["new_p2_0"]
        assert plan.lease_extensions["new_p2_0"] >= 2

    @pytest.mark.parametrize("baseline", [False, True], ids=["ffsipp", "sipp"])
    @pytest.mark.parametrize("deadline_ms", [492_000, 900_000])
    def test_matches_oracle(self, abc_services, baseline, deadline_ms):
        # A fits both types, L only p2: one BTU covers new_p1_0, and
        # new_p2_0 needs two.
        services = self.services(abc_services)
        insts = [
            instance("s", services, ["A"], iid=1, deadline_ms=deadline_ms),
            instance("s", services, ["L"], iid=2, deadline_ms=deadline_ms),
        ]
        types = {"p1": vm_type("p1"), "p2": vm_type("p2", cores=2, cost=18.0)}
        model = (build_baseline if baseline else build)(state(insts, services, types), config())
        assert "g__new_p1_0" not in model.problem.names
        assert "g__new_p2_0" in model.problem.names
        plan, solution = solve_plan(model)
        oracle = enumerate_oracle(model.problem)
        assert solution.objective_value == pytest.approx(oracle.objective_value, abs=1e-6)
        assert milp.verify(model.problem, plan.milp_values) == []


class TestOverfullVm:
    def test_running_load_beyond_supply_rejected_under_optimize(self):
        # Under python -O a bare assert is gone; the check must still raise.
        code = """
from ffsipp import optimizer
from tests.conftest import instance, service, vm_type
from tests.test_optimizer import config, state

services = {"A": service("A", cpu=60.0, ram=600.0)}
for j, (cpu, ram) in enumerate([(60.0, 0.0), (30.0, 600.0)]):
    insts = [instance("s", services, ["A"], iid=i) for i in (1, 2)]
    for inst in insts:
        inst.steps[0].status = "running"
        inst.steps[0].cpu_demand, inst.steps[0].ram_demand = cpu, ram
    vm = optimizer.VmSnapshot(
        id=f"vm{j}", type_id="p1", ready_in_ms=0, lease_remaining_ms=300_000,
        running_steps=[(1, 0, 10_000), (2, 0, 10_000)],
    )
    st = state(insts, services, {"p1": vm_type("p1")}, fleet=[vm])
    try:
        optimizer.build(st, config())
    except optimizer.ModelError as exc:
        print("raised:", exc)
"""
        root = pathlib.Path(ffsipp.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, cwd=root,
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert proc.stdout.splitlines() == [
            "raised: vm0 already runs 120.0% CPU and 0.0 MB RAM, "
            "over its supply of 100.0% and 1024.0 MB",
            "raised: vm1 already runs 60.0% CPU and 1200.0 MB RAM, "
            "over its supply of 100.0% and 1024.0 MB",
        ]


class TestCachingIncentive:
    def test_cached_vm_preferred(self, abc_services):
        inst = instance("s", abc_services, ["A"], deadline_ms=133_000)
        types = {"p1": vm_type("p1", cores=1, cost=10.0, pool_limit=4)}
        warm = VmSnapshot(
            id="vm1",
            type_id="p1",
            ready_in_ms=0,
            lease_remaining_ms=250_000,
            cached_images=frozenset({"A"}),
        )
        model = build(state([inst], abc_services, types, fleet=[warm]), config())
        plan, _ = solve_plan(model)
        (a,) = plan.assignments
        assert a.vm_id == "vm1"
        assert a.occupancy_ms == 40_000  # no pull, no start, no boot


class TestWakeup:
    def wakeup(self, inst, abc_services, cfg, fleet=()):
        st = state([inst], abc_services, {"p1": vm_type("p1", pool_limit=4)}, fleet=fleet)
        plan, _ = solve_plan(build(st, cfg))
        return plan, next_wakeup(plan, st, cfg)

    def test_formula(self, abc_services):
        # Ample slack: nothing is placed and e_i is the whole worst case.
        inst = instance("s,s", abc_services, ["A", "A"], deadline_ms=900_000)
        plan, at = self.wakeup(inst, abc_services, config(epsilon_ms=1000))
        assert plan.assignments == [] and plan.remaining_ms == {inst.id: 264_000}
        assert at == 636_000
        # Late: the step is placed and the planned delay e^p defers the wake-up.
        inst = instance("s", abc_services, ["A"], deadline_ms=100_000)
        plan, at = self.wakeup(inst, abc_services, config(epsilon_ms=1000))
        assert plan.penalties_ms[inst.id] == pytest.approx(32_000.0)
        assert plan.remaining_ms == {inst.id: 0}
        assert at == 132_000

    def test_never_before_epsilon(self, abc_services):
        # A warm VM runs the step in 40 s, well inside the 100 s epsilon.
        inst = instance("s", abc_services, ["A"], deadline_ms=50_000)
        warm = VmSnapshot(
            id="vm1", type_id="p1", ready_in_ms=0, lease_remaining_ms=250_000,
            cached_images=frozenset({"A"}),
        )
        plan, at = self.wakeup(inst, abc_services, config(epsilon_ms=100_000), fleet=[warm])
        assert [a.vm_id for a in plan.assignments] == ["vm1"]
        assert inst.deadline_ms + plan.penalties_ms[inst.id] < 100_000
        assert at == 100_000

    def test_placed_step_counted_once(self, abc_services):
        """e_i leaves out a placed step's worst case once; marking the step
        running afterwards, as the simulator does, changes nothing."""
        inst = instance("s,s", abc_services, ["A", "A"], deadline_ms=250_000)
        cfg = config()
        st = state([inst], abc_services, {"p1": vm_type("p1")})
        plan, _ = solve_plan(build(st, cfg))
        assert [a.step_index for a in plan.assignments] == [0]
        inst.steps[0].status = RUNNING
        ep = plan.penalties_ms[inst.id]
        assert ep > 0
        assert next_wakeup(plan, st, cfg) == int(inst.deadline_ms + ep - 132_000)
        assert plan.remaining_ms == {inst.id: 132_000}


def test_fresh_vm_type_roundtrip():
    assert fresh_vm_type("new_p1_0") == "p1"
    assert fresh_vm_type("new_a_2_large_1") == "a_2_large"
    with pytest.raises(ValueError):
        fresh_vm_type("vm3")
