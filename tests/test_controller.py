import pytest

from ffsipp import controller
from ffsipp.controller import CloudVmView, plan_actions, transform
from ffsipp.optimizer import Assignment, SchedulingPlan


def assignment(iid, j, vm_id, service, cpu, occupancy_ms=100_000, ram=0.0):
    return Assignment(
        instance_id=iid,
        step_index=j,
        vm_id=vm_id,
        service=service,
        cpu_demand=cpu,
        ram_demand=ram,
        occupancy_ms=occupancy_ms,
    )


def plan(assignments, running=(), lease_extensions=None):
    return SchedulingPlan(
        assignments=list(assignments),
        running=list(running),
        lease_extensions=lease_extensions or {},
        penalties_ms={},
        remaining_ms={},
        objective_terms={},
        objective_value=0.0,
        milp_values={},
    )


class TestTransform:
    def test_groups_by_service_and_vm(self):
        p = plan(
            [
                assignment(1, 0, "vm1", "A", 45.0),
                assignment(2, 0, "vm1", "A", 45.0),
                assignment(3, 0, "vm1", "C", 75.0),
            ]
        )
        cp = transform(p)
        sizes = {(c.service, c.vm_id): c.cpu_size for c in cp.containers}
        assert sizes == {("A", "vm1"): 90.0, ("C", "vm1"): 75.0}

    def test_running_invocations_kept(self):
        p = plan(
            [assignment(1, 0, "vm1", "A", 45.0)],
            running=[assignment(2, 1, "vm1", "A", 45.0)],
        )
        (c,) = transform(p).containers
        assert c.cpu_size == 90.0
        assert c.new_invocations == [(1, 0)]


class TestPlanActions:
    def test_fresh_vm_sequence(self):
        p = plan(
            [assignment(1, 0, "new_p1_0", "A", 45.0)],
            lease_extensions={"new_p1_0": 1},
        )
        actions = plan_actions(transform(p), {})
        kinds = [a.kind for a in actions]
        assert kinds == [
            controller.LEASE_VM,
            controller.DEPLOY_CONTAINER,
            controller.INVOKE_SERVICE,
        ]

    def test_extend_known_vm(self):
        p = plan(
            [assignment(1, 0, "vm1", "A", 45.0)],
            lease_extensions={"vm1": 2},
        )
        cloud = {"vm1": CloudVmView(100.0, float("inf"), {})}
        actions = plan_actions(transform(p), cloud)
        assert actions[0].kind == controller.EXTEND_LEASE
        assert actions[0].params["btus"] == 2

    def test_resize_existing_container(self):
        p = plan([assignment(1, 0, "vm1", "A", 45.0)])
        cloud = {"vm1": CloudVmView(100.0, float("inf"), {"A": (20.0, 0.0)})}
        actions = plan_actions(transform(p), cloud)
        assert [a.kind for a in actions] == [
            controller.RESIZE_CONTAINER,
            controller.INVOKE_SERVICE,
        ]

    def test_unplanned_container_stopped(self):
        # A container whose invocations have all finished holds nothing.
        p = plan([assignment(1, 0, "vm1", "A", 45.0)])
        cloud = {"vm1": CloudVmView(100.0, float("inf"), {"B": (0.0, 0.0)})}
        actions = plan_actions(transform(p), cloud)
        kinds = [a.kind for a in actions]
        assert controller.STOP_CONTAINER in kinds
        assert kinds.index(controller.DEPLOY_CONTAINER) < kinds.index(
            controller.STOP_CONTAINER
        )

    def test_container_without_new_invocations_untouched(self):
        # The recorded size is the planned one up to float residue: a
        # container that gains no invocation needs no action.
        running = [assignment(1, 0, "vm1", "A", 0.1), assignment(2, 0, "vm1", "A", 0.2)]
        cplan = transform(plan([], running=running))
        assert cplan.containers[0].cpu_size != 0.3
        cloud = {"vm1": CloudVmView(100.0, float("inf"), {"A": (0.3, 0.0)})}
        assert plan_actions(cplan, cloud) == []

    def test_unknown_vm_rejected(self):
        for p in (
            plan([assignment(1, 0, "vm9", "A", 45.0)]),
            plan([], lease_extensions={"vm9": 1}),  # lease-only
        ):
            with pytest.raises(KeyError, match="unknown VM vm9"):
                plan_actions(transform(p), {})

    def test_audit_line_format(self):
        act = controller.Action(
            controller.DEPLOY_CONTAINER, "vm1", "A", {"cpu": 45.0, "ram": 0.0}
        )
        assert act.audit_line(5000) == "5000\tdeploy_container\tvm1/A\tcpu=45.0,ram=0.0"
