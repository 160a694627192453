"""Plan post-processing: wrap scheduled steps into per-(service, VM)
containers and derive the concrete enactment actions for the cloud.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .optimizer import SchedulingPlan, is_fresh_vm

LEASE_VM = "lease_vm"
EXTEND_LEASE = "extend_lease"
DEPLOY_CONTAINER = "deploy_container"
RESIZE_CONTAINER = "resize_container"
STOP_CONTAINER = "stop_container"
INVOKE_SERVICE = "invoke_service"


@dataclass
class ContainerAssignment:
    service: str
    vm_id: str
    cpu_size: float
    ram_size: float
    new_invocations: list[tuple[int, int]]  # (instance id, step index)


@dataclass
class ContainerPlan:
    containers: list[ContainerAssignment]
    lease_extensions: dict[str, int]


def transform(plan: SchedulingPlan) -> ContainerPlan:
    """One container per (service type, VM) sized to the demand sum of its
    invocations; running invocations stay in their containers."""
    grouped: dict[tuple[str, str], ContainerAssignment] = {}
    for a in plan.assignments + plan.running:
        key = (a.service, a.vm_id)
        if key not in grouped:
            grouped[key] = ContainerAssignment(a.service, a.vm_id, 0.0, 0.0, [])
        grouped[key].cpu_size += a.cpu_demand
        grouped[key].ram_size += a.ram_demand
    for a in plan.assignments:
        grouped[(a.service, a.vm_id)].new_invocations.append((a.instance_id, a.step_index))
    return ContainerPlan(
        containers=sorted(grouped.values(), key=lambda c: (c.vm_id, c.service)),
        lease_extensions=dict(plan.lease_extensions),
    )


@dataclass
class Action:
    kind: str
    vm_id: str
    service: str | None = None
    params: dict = field(default_factory=dict)

    def audit_line(self, now_ms: int) -> str:
        params = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        target = self.vm_id if self.service is None else f"{self.vm_id}/{self.service}"
        return f"{now_ms}\t{self.kind}\t{target}\t{params}"


@dataclass
class CloudVmView:
    """What the action planner needs to know about one live VM."""

    cpu_supply: float
    ram_supply: float
    containers: dict[str, tuple[float, float]]  # service -> current size


def plan_actions(cplan: ContainerPlan, cloud: dict[str, CloudVmView]) -> list[Action]:
    """Concrete enactment: lease/extend, deploy/resize, stop, invoke.

    A VM's containers that the plan no longer uses are stopped to free
    their resources. Stops normally come after deploys; when a VM needs the
    freed CPU or RAM for its new deployments, its stops are hoisted ahead of
    them.
    """
    for vm_id in [c.vm_id for c in cplan.containers] + list(cplan.lease_extensions):
        if not is_fresh_vm(vm_id) and vm_id not in cloud:
            raise KeyError(f"plan references unknown VM {vm_id}")

    leases: list[Action] = []
    for vm_id, btus in sorted(cplan.lease_extensions.items()):
        kind = LEASE_VM if is_fresh_vm(vm_id) else EXTEND_LEASE
        leases.append(Action(kind, vm_id, params={"btus": btus}))

    by_vm: dict[str, list[ContainerAssignment]] = {}
    for c in cplan.containers:
        by_vm.setdefault(c.vm_id, []).append(c)

    deploys: list[Action] = []
    stops: list[Action] = []
    invokes: list[Action] = []
    planned_vms = sorted(set(by_vm) | set(cloud))
    for vm_id in planned_vms:
        planned = {c.service: c for c in by_vm.get(vm_id, [])}
        view = cloud.get(vm_id)
        current = dict(view.containers) if view else {}
        vm_stops = [
            Action(STOP_CONTAINER, vm_id, svc) for svc in sorted(set(current) - set(planned))
        ]
        vm_deploys: list[Action] = []
        for svc in sorted(planned):
            c = planned[svc]
            size = {"cpu": c.cpu_size, "ram": c.ram_size}
            if svc not in current:
                vm_deploys.append(Action(DEPLOY_CONTAINER, vm_id, svc, size))
            elif current[svc] != (c.cpu_size, c.ram_size):
                vm_deploys.append(Action(RESIZE_CONTAINER, vm_id, svc, size))
        hoist = False
        if view and vm_stops and vm_deploys:
            # Per resource: what the VM holds once its containers have their
            # planned sizes and before the unplanned ones stop.
            sizes = {svc: (c.cpu_size, c.ram_size) for svc, c in planned.items()}
            hoist = any(
                sum(size[k] for size in current.values())
                + sum(sizes[svc][k] - current.get(svc, (0.0, 0.0))[k] for svc in sizes)
                > supply + 1e-9
                for k, supply in enumerate((view.cpu_supply, view.ram_supply))
            )
        if hoist:
            deploys.extend(vm_stops + vm_deploys)
        else:
            deploys.extend(vm_deploys)
            stops.extend(vm_stops)
        for svc in sorted(planned):
            for iid, j in planned[svc].new_invocations:
                invokes.append(
                    Action(
                        INVOKE_SERVICE,
                        vm_id,
                        svc,
                        {"instance": iid, "step": j},
                    )
                )
    return leases + deploys + stops + invokes
