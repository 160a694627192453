import copy

import pytest
from hypothesis import given, settings, strategies as hst

from ffsipp import worstcase
from ffsipp.landscape import (
    DONE,
    PENDING,
    RUNNING,
    SKIPPED,
    apply_xor_choice,
    next_steps,
    pending_xor_choices,
)

from .conftest import instance, remaining_duration, service, structures, vm_type

DELTA = 60_000


class TestStepCoefficients:
    def test_two_a_steps(self, abc_services):
        inst = instance("s,s", abc_services, ["A", "A"])
        coefficients = [worstcase.step_coefficient_ms(s, abc_services, DELTA) for s in inst.steps]
        assert sum(coefficients) == 264_000

    def test_one_c_step(self, abc_services):
        inst = instance("s", abc_services, ["C"])
        assert worstcase.step_coefficient_ms(inst.steps[0], abc_services, DELTA) == 212_000

    def test_max_startup(self, abc_services):
        types = {"p1": vm_type("p1", startup_s=60), "a2": vm_type("a2", startup_s=45)}
        assert worstcase.max_startup_ms(types) == 60_000
        assert worstcase.max_startup_ms({}) == 0

    def test_sampled_duration_overrides_mean(self, abc_services):
        inst = instance("s", abc_services, ["A"])
        inst.steps[0].expected_ms = 50_000
        assert worstcase.step_coefficient_ms(inst.steps[0], abc_services, DELTA) == 142_000


class TestRemainingDuration:
    def test_sequence_unscheduled(self, abc_services):
        inst = instance("s,s", abc_services, ["A", "A"])
        assert remaining_duration(inst, abc_services, DELTA) == 264_000

    def test_scheduled_subtraction(self, abc_services):
        inst = instance("s,s", abc_services, ["A", "A"])
        assert remaining_duration(inst, abc_services, DELTA, {0: 132_000}) == 132_000

    def test_and_block_max(self, abc_services):
        inst = instance("AND(s|s)", abc_services, ["A", "C"])
        assert remaining_duration(inst, abc_services, DELTA) == 212_000

    def test_running_steps_excluded(self, abc_services):
        inst = instance("s,s", abc_services, ["A", "A"])
        inst.steps[0].status = RUNNING
        assert remaining_duration(inst, abc_services, DELTA) == 132_000

    def test_loop_counts_future_iterations(self, abc_services):
        inst = instance("LOOP*3(s)", abc_services, ["A"])
        assert remaining_duration(inst, abc_services, DELTA) == 396_000
        loop_id = next(iter(inst.loop_iters_done))
        inst.loop_iters_done[loop_id] = 2
        assert remaining_duration(inst, abc_services, DELTA) == 132_000

    def test_remaining_after_done(self, abc_services):
        inst = instance("s,s", abc_services, ["A", "C"])
        rs = worstcase.remaining_structure(inst, abc_services, DELTA)
        own = worstcase.step_coefficient_ms(inst.steps[0], abc_services, DELTA)
        assert inst.deadline_ms - own - rs.step_deadline_ms[0] == 212_000
        assert inst.steps[0].status == PENDING  # untouched


# Worst-case coefficients of the A, B and C services at DELTA, and the
# default deadline of ``instance``.
A, B, C = 132_000, 172_000, 212_000
DEADLINE = 10_000_000


class TestRemainingStructure:
    def test_sequence_reductions(self, abc_services):
        inst = instance("s,s", abc_services, ["A", "A"])
        rs = worstcase.remaining_structure(inst, abc_services, DELTA)
        assert rs.constant_ms == A
        assert rs.rows == [(A, {0: A})]

    def test_block_without_heads_is_constant(self, abc_services):
        inst = instance("s,AND(s|s)", abc_services, ["A", "A", "C"])
        rs = worstcase.remaining_structure(inst, abc_services, DELTA)
        assert rs.constant_ms == C
        assert rs.rows == [(A, {0: A})]

    def test_block_with_heads_gets_rows(self, abc_services):
        inst = instance("AND(s|s)", abc_services, ["A", "C"])
        rs = worstcase.remaining_structure(inst, abc_services, DELTA)
        assert rs.constant_ms == 0
        assert rs.rows == [(0, {}), (A, {0: A}), (C, {1: C})]

    # One case per kind of open item: structure, services, step statuses,
    # XOR branch chosen, then the expected constant, rows and step deadlines.
    OPEN_ITEMS = {
        "step in sequence": (
            "s,s,AND(s|s)", "AAAC", {0: DONE}, None,
            C, [(A, {1: A})], {1: DEADLINE - A - C},
        ),
        # Its worst case holds two future iterations of the body; its step
        # deadline, taken in the last iteration, holds none.
        "loop mid-iteration": (
            "LOOP*3(s,s),s", "ABC", {0: DONE}, None,
            C, [(B + 2 * (A + B), {1: B})], {1: DEADLINE - B - C},
        ),
        "AND block with one branch running": (
            "AND(s|s,s)", "ABC", {0: RUNNING}, None,
            0, [(0, {}), (0, {}), (B + C, {1: B})], {1: DEADLINE - B - C},
        ),
        "XOR block after its choice": (
            "s,XOR(s|s)", "AAC", {0: DONE}, 1,
            0, [(0, {}), (0, {}), (C, {2: C})], {2: DEADLINE - C},
        ),
        "only ready step running": (
            "s,s", "AA", {0: RUNNING}, None,
            A, [(0, {})], {},
        ),
    }

    @pytest.mark.parametrize("case", OPEN_ITEMS)
    def test_open_item(self, abc_services, case):
        structure, names, statuses, branch, constant, rows, deadlines = self.OPEN_ITEMS[case]
        inst = instance(structure, abc_services, list(names))
        for j, status in statuses.items():
            inst.steps[j].status = status
        if branch is not None:
            (xor,) = pending_xor_choices(inst)
            apply_xor_choice(inst, xor, branch)
        rs = worstcase.remaining_structure(inst, abc_services, DELTA)
        assert (rs.constant_ms, rs.rows, rs.step_deadline_ms) == (constant, rows, deadlines)


# -- step deadlines against a from-scratch re-evaluation ---------------------


def _reference_deadline(inst, j, services) -> int:
    """Mark ``j`` done in its loop's last iteration and re-evaluate e_i."""
    after = copy.deepcopy(inst)
    after.steps[j].status = DONE
    for node_id, body, reps in after.model.paths.loops:
        if j in body:
            after.loop_iters_done[node_id] = reps - 1
    own = worstcase.step_coefficient_ms(inst.steps[j], services, DELTA)
    return inst.deadline_ms - own - remaining_duration(after, services, DELTA)


@hst.composite
def _instances(draw, services):
    """An instance with random step statuses and, where its open item is an
    XOR block, a branch chosen, as a round sees it; and a subset of its
    ready steps to place."""
    inst = instance(draw(structures()), services)
    for step in inst.steps:
        step.status = draw(hst.sampled_from((PENDING, PENDING, DONE, RUNNING, SKIPPED)))
        step.expected_ms = draw(hst.integers(1, 200)) * 1000
    for node_id, _, reps in inst.model.paths.loops:
        inst.loop_iters_done[node_id] = draw(hst.integers(0, reps - 1))
    for node_id in pending_xor_choices(inst):
        branches = len(inst.model.nodes[node_id].children)
        apply_xor_choice(inst, node_id, draw(hst.integers(0, branches - 1)))
    placed = {j for j in sorted(next_steps(inst)) if draw(hst.booleans())}
    return inst, placed


class TestStepDeadlines:
    SERVICES = {
        "A": service("A", cpu=45.0, duration_s=40),
        "B": service("B", cpu=75.0, duration_s=80),
        "C": service("C", cpu=75.0, duration_s=120),
    }

    @settings(max_examples=300)
    @given(_instances(SERVICES))
    def test_deadline_matches_reevaluation(self, drawn):
        inst, placed = drawn
        before = copy.deepcopy(inst)
        rs = worstcase.remaining_structure(inst, self.SERVICES, DELTA)
        assert inst == before
        ready = next_steps(inst)
        assert set(rs.step_deadline_ms) == ready
        # Each ready step sits on a row of the open item.
        assert {j for _, coefs in rs.rows for j in coefs} == ready
        for j in ready:
            assert rs.step_deadline_ms[j] == _reference_deadline(inst, j, self.SERVICES)
        # e_i once ``placed`` is placed, with every step still pending.
        scheduled = {
            j: worstcase.step_coefficient_ms(inst.steps[j], self.SERVICES, DELTA) for j in placed
        }
        assert rs.remaining_ms(placed) == remaining_duration(inst, self.SERVICES, DELTA, scheduled)
