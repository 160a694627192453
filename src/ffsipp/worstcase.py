"""Worst-case remaining-duration analysis.

Every pending step is assumed to pay the full deployment overhead on a
freshly started VM of the slowest-starting type; blocks contribute their
longest branch and loops their maximum repetitions. Blocks and loops sit in
the top-level sequence and hold only steps (``landscape.enumerate_paths``
refuses anything deeper), so this worst case is exact. Each round derives one
``RemainingStructure`` per instance: e_i, the worst-case remaining
enactment time, as an affine function of the round's placements.
``RemainingStructure.remaining_ms`` is the only rule that evaluates it;
the optimizer's deadline rows, step deadlines and wake-ups all read it.
"""
from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field

from .landscape import PENDING, ProcessInstance, ServiceType, StepState, VmType


def max_startup_ms(vm_types: dict[str, VmType]) -> int:
    """Worst-case VM startup Delta over the current catalog."""
    return max((vt.startup_ms for vt in vm_types.values()), default=0)


def step_coefficient_ms(step: StepState, services: dict[str, ServiceType], delta_ms: int) -> int:
    """Worst-case overheadful duration of one step: its (sampled) service
    time plus container start, image pull, and the catalog-max VM startup."""
    svc = services[step.service]
    return step.expected_ms + svc.container_start_ms + svc.image_pull_ms + delta_ms


@dataclass
class BlockTerm:
    """One AND/XOR block whose value depends on this round's assignments.

    ``rows`` holds, per branch, the branch's worst-case constant and the
    coefficient of each schedulable head on it. The block adds the larger
    of 0 and its branches' remainders to e_i, so the optimizer gives each
    deadline row one copy with the block at 0 and one per branch.
    """

    node_id: int
    rows: list[tuple[int, dict[int, int]]] = field(default_factory=list)


@dataclass
class RemainingStructure:
    """e_i as a function of this round's assignment variables: constant
    minus per-step reductions, plus per block term the larger of 0 and its
    branch rows, each affine.

    ``step_deadline_ms`` holds each schedulable step's latest start: the
    instance deadline minus the step's own coefficient and the remainder
    once the step has completed (in its loop's final iteration). It may lie
    in the past.
    """

    constant_ms: int
    step_reduction_ms: dict[int, int]
    blocks: list[BlockTerm]
    step_deadline_ms: dict[int, int] = field(default_factory=dict)

    def remaining_ms(self, placed: Collection[int]) -> int:
        """e_i once the schedulable steps in ``placed`` are placed this round:
        each placed step's own worst case is accounted for by its placement."""
        e_i = self.constant_ms - sum(self.step_reduction_ms.get(j, 0) for j in placed)
        for block in self.blocks:
            e_i += max(
                0, max(const - sum(coefs.get(j, 0) for j in placed) for const, coefs in block.rows)
            )
        return e_i


def remaining_structure(
    inst: ProcessInstance,
    services: dict[str, ServiceType],
    delta_ms: int,
    schedulable: set[int],
) -> RemainingStructure:
    dec = inst.model.paths
    coef = [step_coefficient_ms(step, services, delta_ms) for step in inst.steps]
    pending = [step.status == PENDING for step in inst.steps]
    constant = 0
    reductions: dict[int, int] = {}
    loop_future: dict[int, int] = {}  # step -> its loop's future iterations
    blocks: list[BlockTerm] = []

    for i in dec.seq_steps:
        if pending[i]:
            constant += coef[i]
            if i in schedulable:
                reductions[i] = coef[i]

    for node_id, body, reps in dec.loops:
        if not any(pending[i] for i in body):
            continue
        constant += sum(coef[i] for i in body if pending[i])
        future = max(0, reps - inst.loop_iters_done.get(node_id, 0) - 1)
        future_ms = future * sum(coef[i] for i in body)
        constant += future_ms
        for i in body:
            if i in schedulable:
                reductions[i] = coef[i]
                loop_future[i] = future_ms

    for node_id, branches in dec.blocks:
        branch_rows = []
        heads = False
        for branch in branches:
            const = sum(coef[i] for i in branch if pending[i])
            row_coefs = {i: coef[i] for i in branch if i in schedulable}
            heads = heads or bool(row_coefs)
            branch_rows.append((const, row_coefs))
        if heads:
            blocks.append(BlockTerm(node_id=node_id, rows=branch_rows))
        else:
            constant += max(const for const, _ in branch_rows)

    rs = RemainingStructure(constant_ms=constant, step_reduction_ms=reductions, blocks=blocks)
    for j in schedulable:
        # After j completes its loop's last iteration, the loop's future
        # iterations no longer follow it.
        tail = rs.remaining_ms((j,)) - loop_future.get(j, 0)
        rs.step_deadline_ms[j] = inst.deadline_ms - coef[j] - tail
    return rs
