"""Worst-case remaining-duration analysis.

Every pending step is assumed to pay the full deployment overhead on a
freshly started VM of the slowest-starting type; blocks contribute their
longest branch and loops their maximum repetitions. Blocks and loops sit in
the top-level sequence and hold only steps (``landscape.enumerate_paths``
refuses anything deeper), so this worst case is exact. Only the first
unfinished top-level item can hold ready steps (``landscape.next_steps``),
so each round derives one ``RemainingStructure`` per instance: e_i, the
worst-case remaining enactment time, as a constant for every other item
plus the largest of that open item's rows, each affine in the round's
placements. ``RemainingStructure.remaining_ms`` is the only rule that
evaluates it; the optimizer's deadline rows, step deadlines and wake-ups
all read it.
"""
from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field

from .landscape import (
    AND_BLOCK,
    PENDING,
    REPEAT_LOOP,
    XOR_BLOCK,
    ProcessInstance,
    ServiceType,
    StepState,
    VmType,
    next_steps,
)


def max_startup_ms(vm_types: dict[str, VmType]) -> int:
    """Worst-case VM startup Delta over the current catalog."""
    return max((vt.startup_ms for vt in vm_types.values()), default=0)


def step_coefficient_ms(step: StepState, services: dict[str, ServiceType], delta_ms: int) -> int:
    """Worst-case overheadful duration of one step: its (sampled) service
    time plus container start, image pull, and the catalog-max VM startup."""
    svc = services[step.service]
    return step.expected_ms + svc.container_start_ms + svc.image_pull_ms + delta_ms


@dataclass
class RemainingStructure:
    """e_i as a function of this round's placements: ``constant_ms`` plus
    the largest of ``rows``.

    ``constant_ms`` holds the worst case of every top-level item without a
    ready step. ``rows`` holds, per row of the open item, its worst-case
    constant and the coefficient of each ready step on it: a step or a loop
    has one row, an AND/XOR block a row at 0 and one per branch. Without a
    ready step, ``rows`` is ``[(0, {})]``.

    ``step_deadline_ms`` holds each ready step's latest start: the
    instance deadline minus the step's own coefficient and the remainder
    once the step has completed (in its loop's final iteration). It may lie
    in the past.
    """

    constant_ms: int
    rows: list[tuple[int, dict[int, int]]]
    step_deadline_ms: dict[int, int] = field(default_factory=dict)

    def remaining_ms(self, placed: Collection[int]) -> int:
        """e_i once the ready steps in ``placed`` are placed this round:
        each placed step's own worst case is accounted for by its placement."""
        return self.constant_ms + max(
            const - sum(coefs.get(j, 0) for j in placed) for const, coefs in self.rows
        )


def remaining_structure(
    inst: ProcessInstance, services: dict[str, ServiceType], delta_ms: int
) -> RemainingStructure:
    ready = next_steps(inst)
    coef = [step_coefficient_ms(step, services, delta_ms) for step in inst.steps]
    pending = [step.status == PENDING for step in inst.steps]
    constant = 0
    rows: list[tuple[int, dict[int, int]]] = [(0, {})]
    open_future_ms = 0  # the open loop's future iterations
    for node_id, kind, lists, reps in inst.model.paths.items:
        future_ms = 0
        if kind == REPEAT_LOOP and any(pending[i] for i in lists[0]):
            future = max(0, reps - inst.loop_iters_done.get(node_id, 0) - 1)
            future_ms = future * sum(coef[i] for i in lists[0])
        item_rows = [
            (sum(coef[i] for i in steps if pending[i]) + future_ms,
             {i: coef[i] for i in steps if i in ready})
            for steps in lists
        ]
        if not any(heads for _, heads in item_rows):
            constant += max(const for const, _ in item_rows)
        elif kind in (AND_BLOCK, XOR_BLOCK):
            rows += item_rows
        else:
            rows, open_future_ms = item_rows, future_ms

    rs = RemainingStructure(constant_ms=constant, rows=rows)
    for j in ready:
        # After j completes its loop's last iteration, the loop's future
        # iterations no longer follow it.
        tail = rs.remaining_ms((j,)) - open_future_ms
        rs.step_deadline_ms[j] = inst.deadline_ms - coef[j] - tail
    return rs
