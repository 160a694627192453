import pytest

from ffsipp import milp
from ffsipp.baseline import build_baseline
from ffsipp.optimizer import VmSnapshot, build

from .conftest import instance, vm_type
from .test_optimizer import config, solve_plan, state


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
