"""VM-only baseline: every VM instance serves exactly one service type.

The model is the main optimizer's MILP with a flat 30 s deployment
overhead instead of image caching. Once a VM has hosted a type it keeps it
for the rest of its lease; a VM snapshot's ``offered_service`` names that
type (None when never deployed), and such a VM only gets placements of it.
A VM that can still choose gets one type flag per service it has
placements of; with two or more, their sum is at most its use flag.
Decoding and wake-up computation are shared with the main approach.
"""
from __future__ import annotations

from .optimizer import FfsippModel, OptimizerConfig, SchedulingState


def build_baseline(state: SchedulingState, config: OptimizerConfig) -> FfsippModel:
    return FfsippModel(state, config, baseline=True)
