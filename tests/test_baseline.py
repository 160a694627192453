import math

import numpy as np
import pytest

from ffsipp import landscape, milp
from ffsipp.baseline import build_baseline
from ffsipp.optimizer import VmSnapshot, build

from .conftest import instance, preset_text, vm_type
from .test_optimizer import config, generated_round, solve_plan, state


class TestTypeExclusivity:
    def two_service_state(self, abc_services, cores=2):
        insts = [
            instance("s", abc_services, ["A"], iid=1, deadline_ms=133_000),
            instance("s", abc_services, ["B"], iid=2, deadline_ms=173_000),
        ]
        types = {"p2": vm_type("p2", cores=cores, cost=18.0)}
        return state(insts, abc_services, types)

    def test_different_services_need_two_vms(self, abc_services):
        st = self.two_service_state(abc_services)
        model = build_baseline(st, config(fresh_candidates=2))
        plan, _ = solve_plan(model)
        assert len(plan.assignments) == 2
        assert len({a.vm_id for a in plan.assignments}) == 2

    def test_ffsipp_shares_where_baseline_cannot(self, abc_services):
        st = self.two_service_state(abc_services)
        model = build(st, config(fresh_candidates=2))
        plan, _ = solve_plan(model)
        assert len({a.vm_id for a in plan.assignments}) == 1

    def test_same_service_shares_one_vm(self, abc_services):
        insts = [
            instance("s", abc_services, ["A"], iid=1, deadline_ms=133_000),
            instance("s", abc_services, ["A"], iid=2, deadline_ms=133_000),
        ]
        types = {"p1": vm_type("p1", cores=1, cost=10.0)}
        model = build_baseline(state(insts, abc_services, types), config(fresh_candidates=2))
        plan, _ = solve_plan(model)
        assert len({a.vm_id for a in plan.assignments}) == 1
        assert sum(plan.lease_extensions.values()) == 1


class TestTypeLocking:
    def test_leased_vm_keeps_its_type(self, abc_services):
        inst = instance("s", abc_services, ["B"], deadline_ms=173_000)
        types = {"p1": vm_type("p1", cores=1, cost=10.0, pool_limit=4)}
        vm = VmSnapshot(
            id="vm1",
            type_id="p1",
            ready_in_ms=0,
            lease_remaining_ms=250_000,
            cached_images=frozenset({"A"}),
            offered_service="A",
        )
        model = build_baseline(state([inst], abc_services, types, fleet=[vm]), config())
        plan, _ = solve_plan(model)
        (a,) = plan.assignments
        assert a.vm_id != "vm1"
        assert a.occupancy_ms == 80_000 + 60_000 + 30_000  # fresh VM, flat deploy

    def test_busy_vm_locked_to_its_service(self, abc_services):
        inst = instance("s", abc_services, ["B"], deadline_ms=173_000)
        busy = instance("s", abc_services, ["A"], iid=9, deadline_ms=400_000)
        busy.steps[0].status = "running"
        types = {"p1": vm_type("p1", cores=1, cost=10.0, pool_limit=4)}
        vm = VmSnapshot(
            id="vm1",
            type_id="p1",
            ready_in_ms=0,
            lease_remaining_ms=250_000,
            cached_images=frozenset({"A"}),
            offered_service="A",
            running_steps=[(9, 0, 30_000)],
        )
        model = build_baseline(
            state([inst, busy], abc_services, types, fleet=[vm]), config()
        )
        plan, _ = solve_plan(model)
        (a,) = plan.assignments
        assert a.vm_id != "vm1"

    def test_decoded_point_verifies(self, abc_services):
        insts = [instance("s", abc_services, ["A"], iid=1)]
        types = {"p1": vm_type("p1")}
        model = build_baseline(state(insts, abc_services, types), config())
        plan, _ = solve_plan(model)
        assert milp.verify(model.problem, plan.milp_values) == []


def rows_of(problem: milp.MilpProblem, col: int) -> list[dict[str, float]]:
    """Each row that holds ``col``, as column name -> coefficient, plus
    ``"<="``: its upper bound (only ``<=`` rows are sought here)."""
    rows = []
    for row in range(problem.num_rows):
        cols, coefs = problem.row_terms(row)
        if col in cols and problem.row_lower[row] == -math.inf:
            terms = {problem.names[k]: c for k, c in zip(cols, coefs)}
            rows.append(terms | {"<=": problem.row_upper[row]})
    return rows


def exclusivity_rows(problem: milp.MilpProblem) -> list[int]:
    """The rows ``sum(u) - g <= 0``: type flags, then the VM's use flag."""
    names = problem.names
    return [
        row for row in range(problem.num_rows)
        if len(cols := problem.row_terms(row)[0]) > 2
        and all(names[k].startswith("u__") for k in cols[:-1])
    ]


class TestTypeFlags:
    """A type flag exists only where a VM can still choose its type, and
    only a VM with two or more flags ties them to its use flag."""

    def test_locked_vm_has_no_flags(self, abc_services):
        inst = instance("s", abc_services, ["A"], deadline_ms=173_000)
        types = {"p1": vm_type("p1", cores=1, cost=10.0)}
        vm = VmSnapshot(
            id="vm1", type_id="p1", ready_in_ms=0, lease_remaining_ms=250_000,
            cached_images=frozenset({"A"}), offered_service="A",
        )
        model = build_baseline(state([inst], abc_services, types, fleet=[vm]), config())
        p = model.problem
        assert not [name for name in p.names if name.startswith("u__") and name.endswith("vm1")]
        x = p.names.index("x__1__0__vm1")
        links = [row for row in rows_of(p, x) if len(row) == 3 and -1.0 in row.values()]
        assert links == [{"x__1__0__vm1": 1.0, "g__vm1": -1.0, "<=": 0.0}]

    def test_fresh_vm_choosing_two_types_gets_one_row(self, abc_services):
        insts = [
            instance("s", abc_services, ["A"], iid=1, deadline_ms=133_000),
            instance("s", abc_services, ["B"], iid=2, deadline_ms=173_000),
        ]
        types = {"p2": vm_type("p2", cores=2, cost=18.0)}
        p = build_baseline(state(insts, abc_services, types), config()).problem
        u_a = p.names.index("u__A__new_p2_0")
        u_b = p.names.index("u__B__new_p2_0")
        both = [row for row in rows_of(p, u_a) if "u__B__new_p2_0" in row]
        assert both == [{"u__A__new_p2_0": 1.0, "u__B__new_p2_0": 1.0, "y__new_p2_0": -1.0,
                         "<=": 0.0}]
        assert "g__new_p2_0" not in p.names  # one BTU: y is the use flag
        for u in (u_a, u_b):
            assert [len(row) for row in rows_of(p, u)] == [3, 4]  # x <= u, then the row

    def test_vm_choosing_one_type_gets_no_row(self, abc_services):
        insts = [
            instance("s", abc_services, ["A"], iid=1, deadline_ms=133_000),
            instance("s", abc_services, ["A"], iid=2, deadline_ms=133_000),
        ]
        types = {"p1": vm_type("p1", cores=1, cost=10.0)}
        p = build_baseline(state(insts, abc_services, types), config()).problem
        u = p.names.index("u__A__new_p1_0")
        assert rows_of(p, u) == [
            {f"x__{i}__0__new_p1_0": 1.0, "u__A__new_p1_0": -1.0, "<=": 0.0} for i in (1, 2)
        ]
        assert exclusivity_rows(p) == []


def rebuilt(problem: milp.MilpProblem, capped=False, relax=False) -> milp.MilpProblem:
    """A copy of ``problem``; with ``capped``, each ``sum(u) - g <= 0`` row
    becomes ``sum(u) <= 1``, the form that lets an LP point offer a VM open
    to 0.3 to two types at 0.3 each; with ``relax``, every column is
    continuous."""
    exclusive = set(exclusivity_rows(problem)) if capped else set()
    copy = milp.MilpProblem()
    for k, name in enumerate(problem.names):
        domain = milp.CONTINUOUS if relax else problem.domains[k]
        copy.add_var(name, domain, problem.lower[k], problem.upper[k])
        copy.cost[k] = problem.cost[k]
    for row in range(problem.num_rows):
        cols, coefs = problem.row_terms(row)
        upper = problem.row_upper[row]
        if row in exclusive:
            cols, coefs, upper = cols[:-1], coefs[:-1], 1.0
        copy.add_row(list(cols), list(coefs), problem.row_lower[row], upper)
    return copy


def test_use_flag_row_is_valid_and_stronger_on_generated_rounds():
    """Against each flag sum capped at 1: the same MILP optimum, and an LP
    bound never lower and higher in some round."""
    sc = landscape.parse_scenario(preset_text("constant_strict_intense"))
    rng = np.random.default_rng(np.random.SeedSequence(26))
    compared = raised = 0
    for _ in range(60):
        snapshot = generated_round(sc, rng)
        if not snapshot.instances:
            continue
        problem = build_baseline(snapshot, sc.config).problem
        if not exclusivity_rows(problem):
            continue
        compared += 1
        optimum = milp.solve(problem, 1e-9).objective_value
        capped = milp.solve(rebuilt(problem, capped=True), 1e-9).objective_value
        assert optimum == pytest.approx(capped, rel=1e-6)
        bound = milp.solve(rebuilt(problem, relax=True)).objective_value
        capped_bound = milp.solve(rebuilt(problem, capped=True, relax=True)).objective_value
        assert bound >= capped_bound - 1e-9
        raised += bound > capped_bound + 1e-6
    assert compared and raised
