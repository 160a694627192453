"""Worst-case remaining-duration analysis.

Every pending step is assumed to pay the full deployment overhead on a
freshly started VM of the slowest-starting type; blocks contribute their
longest branch and loops their maximum repetitions. The optimizer and the
step-deadline derivation both consume these figures.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .landscape import (
    DONE,
    NEXT,
    PENDING,
    ProcessInstance,
    ServiceType,
    SKIPPED,
    StepState,
    VmType,
)


def max_startup_ms(vm_types: dict[str, VmType]) -> int:
    """Worst-case VM startup Delta over the current catalog."""
    if not vm_types:
        return 0
    return max(vt.startup_ms for vt in vm_types.values())


def step_coefficient_ms(step: StepState, services: dict[str, ServiceType], delta_ms: int) -> int:
    """Worst-case overheadful duration of one step: its (sampled) service
    time plus container start, image pull, and the catalog-max VM startup."""
    svc = services[step.service]
    return step.expected_ms + svc.container_start_ms + svc.image_pull_ms + delta_ms


def invocation_overhead(
    service: ServiceType,
    *,
    image_cached: bool,
    vm_running: bool,
    vm_startup_ms: int,
    delta_ms: int,
    worst_case: bool = False,
    duration_ms: int | None = None,
) -> int:
    """Time a placement occupies its VM, i.e. the coefficient of x.

    The worst-case variant charges every overhead plus the catalog-max VM
    startup; the concrete variant skips cached deployments (z) and the
    startup of already-running VMs (beta).
    """
    e = service.duration_ms if duration_ms is None else duration_ms
    if worst_case:
        return e + service.container_start_ms + service.image_pull_ms + delta_ms
    total = e
    if not image_cached:
        total += service.container_start_ms + service.image_pull_ms
    if not vm_running:
        total += vm_startup_ms
    return total


def overhead_sum_ms(
    steps: list[StepState], services: dict[str, ServiceType], delta_ms: int
) -> int:
    """Sum of worst-case step coefficients over a path or sequence."""
    return sum(step_coefficient_ms(s, services, delta_ms) for s in steps)


def _remaining(inst: ProcessInstance, indices: list[int]) -> list[StepState]:
    return [inst.steps[i] for i in indices if inst.steps[i].status in (PENDING, NEXT)]


@dataclass
class WorstCaseReport:
    e_seq_ms: int
    e_la_ms: int
    e_lx_ms: int
    e_rl_ms: int
    delta_ms: int

    @property
    def e_i_ms(self) -> int:
        return self.e_seq_ms + self.e_la_ms + self.e_lx_ms + self.e_rl_ms


def remaining_duration(
    inst: ProcessInstance,
    services: dict[str, ServiceType],
    delta_ms: int,
    scheduled: dict[int, int] | None = None,
) -> WorstCaseReport:
    """Worst-case remaining enactment time, split by workflow pattern.

    ``scheduled`` maps step index to the overheadful duration chosen for it
    this round; that amount is subtracted from the step's own structural
    component, since the scheduled execution is accounted for separately.
    Running steps never contribute.
    """
    scheduled = scheduled or {}
    dec = inst.model.paths

    def path_value(indices: list[int]) -> int:
        total = overhead_sum_ms(_remaining(inst, indices), services, delta_ms)
        total -= sum(scheduled.get(i, 0) for i in indices)
        return total

    e_seq = path_value(dec.seq_steps)
    e_la = sum(
        max(0, max(path_value(branch) for branch in branches))
        for _, branches in dec.and_blocks
    )
    e_lx = sum(
        max(0, max(path_value(branch) for branch in branches))
        for _, branches in dec.xor_blocks
    )

    e_rl = 0
    for node_id, body, reps in dec.loops:
        remaining_now = _remaining(inst, body)
        if not remaining_now:
            continue
        current = path_value(body)
        full = overhead_sum_ms([inst.steps[i] for i in body], services, delta_ms)
        future = max(0, reps - inst.loop_iters_done.get(node_id, 0) - 1)
        e_rl += max(0, current) + future * full

    return WorstCaseReport(e_seq, e_la, e_lx, e_rl, delta_ms)


def remaining_after_done(
    inst: ProcessInstance,
    step_index: int,
    services: dict[str, ServiceType],
    delta_ms: int,
) -> int:
    """Worst-case remainder once ``step_index`` has completed (its final
    loop iteration, for loop steps)."""
    step = inst.steps[step_index]
    saved_status = step.status
    saved_iters = dict(inst.loop_iters_done)
    step.status = DONE
    for node_id, body, reps in inst.model.paths.loops:
        if step_index in body:
            inst.loop_iters_done[node_id] = reps - 1
    try:
        return remaining_duration(inst, services, delta_ms).e_i_ms
    finally:
        step.status = saved_status
        inst.loop_iters_done = saved_iters


# ---------------------------------------------------------------------------
# Linearization support for the optimizer


@dataclass
class BlockTerm:
    """One AND/XOR block whose value depends on this round's assignments.

    ``rows`` holds, per branch, the branch's worst-case constant and the
    coefficient of each schedulable head on it; the optimizer adds one
    lower-bound row per branch on a dedicated block variable, which the
    minimized penalty tightens to the branch maximum.
    """

    node_id: int
    rows: list[tuple[int, dict[int, int]]] = field(default_factory=list)


@dataclass
class RemainingStructure:
    """e_i as an affine function of this round's assignment variables:
    constant minus per-step reductions, plus one variable per block term."""

    constant_ms: int
    step_reduction_ms: dict[int, int]
    blocks: list[BlockTerm]


def remaining_structure(
    inst: ProcessInstance,
    services: dict[str, ServiceType],
    delta_ms: int,
    schedulable: set[int],
) -> RemainingStructure:
    dec = inst.model.paths
    constant = 0
    reductions: dict[int, int] = {}
    blocks: list[BlockTerm] = []

    def coef(i: int) -> int:
        return step_coefficient_ms(inst.steps[i], services, delta_ms)

    for i in dec.seq_steps:
        if inst.steps[i].status in (PENDING, NEXT):
            constant += coef(i)
            if i in schedulable:
                reductions[i] = coef(i)

    for node_id, body, reps in dec.loops:
        remaining_now = _remaining(inst, body)
        if not remaining_now:
            continue
        constant += overhead_sum_ms(remaining_now, services, delta_ms)
        future = max(0, reps - inst.loop_iters_done.get(node_id, 0) - 1)
        constant += future * overhead_sum_ms(
            [inst.steps[i] for i in body], services, delta_ms
        )
        for i in body:
            if i in schedulable:
                reductions[i] = coef(i)

    for node_id, branches in dec.and_blocks + dec.xor_blocks:
        branch_rows = []
        heads = False
        for branch in branches:
            const = overhead_sum_ms(_remaining(inst, branch), services, delta_ms)
            row_coefs = {i: coef(i) for i in branch if i in schedulable}
            heads = heads or bool(row_coefs)
            branch_rows.append((const, row_coefs))
        if heads:
            blocks.append(BlockTerm(node_id=node_id, rows=branch_rows))
        else:
            constant += max(const for const, _ in branch_rows)

    return RemainingStructure(constant_ms=constant, step_reduction_ms=reductions, blocks=blocks)
