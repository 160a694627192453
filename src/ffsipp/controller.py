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
    """One live VM as the benchmark describes it. ``plan_actions`` reads
    only the keys of ``containers``; the supplies and sizes are kept because
    the benchmark builds this view."""

    cpu_supply: float
    ram_supply: float
    containers: dict[str, tuple[float, float]]  # service -> current size


def plan_actions(cplan: ContainerPlan, cloud: dict) -> list[Action]:
    """Concrete enactment: lease/extend, deploy/resize, stop, invoke.

    ``cloud`` maps each live VM's id to a value whose ``containers`` is
    keyed by the services deployed there. A finished invocation releases its
    share at once and the plan keeps every running invocation in its
    container, so a deployed container already has its planned size unless
    it gains invocations: it is resized exactly then. A planned container
    that is not deployed yet is deployed, and a deployed one that the plan
    does not use is stopped after the deploys.
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
    for vm_id in sorted(set(by_vm) | set(cloud)):
        planned = {c.service: c for c in by_vm.get(vm_id, [])}
        current = cloud[vm_id].containers if vm_id in cloud else {}
        stops.extend(
            Action(STOP_CONTAINER, vm_id, svc) for svc in sorted(set(current) - set(planned))
        )
        for svc in sorted(planned):
            c = planned[svc]
            size = {"cpu": c.cpu_size, "ram": c.ram_size}
            if svc not in current:
                deploys.append(Action(DEPLOY_CONTAINER, vm_id, svc, size))
            elif c.new_invocations:
                deploys.append(Action(RESIZE_CONTAINER, vm_id, svc, size))
            for iid, j in c.new_invocations:
                invokes.append(Action(INVOKE_SERVICE, vm_id, svc, {"instance": iid, "step": j}))
    return leases + deploys + stops + invokes
