import math

import pytest

from ffsipp import milp, optimizer
from ffsipp.landscape import RUNNING, Weights
from ffsipp.optimizer import (
    OptimizerConfig,
    SchedulingState,
    VmSnapshot,
    build,
    fresh_vm_type,
    next_wakeup,
)

from .conftest import instance, vm_type
from .oracle import enumerate_oracle

WEIGHTS = Weights(dl_per_ms=1e-6, d_per_ms=1e-7, f_cpu=0.01, f_ram=0.0, z=1.0)


def config(**kw):
    defaults = dict(weights=WEIGHTS, epsilon_ms=2000, fresh_candidates=1, gap_tol=1e-9)
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
        assert plan.gamma == {"p1": 1}
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
        inst = instance("AND(s|s)", abc_services, ["A", "A"], deadline_ms=100_000)
        types = {"p1": vm_type("p1", cores=1, cost=10.0)}
        model = build(state([inst], abc_services, types), config())
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

    @pytest.mark.parametrize("prefix", ["fC__", "eblk__", "eblkn__", "ep__"])
    def test_helper_repaired_to_its_floor(self, abc_services, prefix):
        model, exact, padded = self.padded(abc_services, prefix)
        plan = model.decode(padded)
        assert plan.milp_values == model.decode(exact).milp_values
        assert milp.verify(model.problem, plan.milp_values) == []

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

    def test_bound_above_repaired_rejected(self, abc_services):
        model, exact, padded = self.padded(abc_services)
        padded.bound = exact.objective_value + 1.0
        with pytest.raises(ValueError, match="below solver bound"):
            model.decode(padded)


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
        assert sum(plan.gamma.values()) == 1

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
