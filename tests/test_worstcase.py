import copy

from hypothesis import given, settings, strategies as hst

from ffsipp import worstcase
from ffsipp.landscape import DONE, PENDING, RUNNING, SKIPPED

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
        rs = worstcase.remaining_structure(inst, abc_services, DELTA, {0})
        own = worstcase.step_coefficient_ms(inst.steps[0], abc_services, DELTA)
        assert inst.deadline_ms - own - rs.step_deadline_ms[0] == 212_000
        assert inst.steps[0].status == PENDING  # untouched


class TestRemainingStructure:
    def test_sequence_reductions(self, abc_services):
        inst = instance("s,s", abc_services, ["A", "A"])
        rs = worstcase.remaining_structure(inst, abc_services, DELTA, {0})
        assert rs.constant_ms == 264_000
        assert rs.step_reduction_ms == {0: 132_000}
        assert rs.blocks == []

    def test_block_without_heads_is_constant(self, abc_services):
        inst = instance("s,AND(s|s)", abc_services, ["A", "A", "C"])
        rs = worstcase.remaining_structure(inst, abc_services, DELTA, {0})
        assert rs.constant_ms == 132_000 + 212_000
        assert rs.blocks == []

    def test_block_with_heads_gets_rows(self, abc_services):
        inst = instance("AND(s|s)", abc_services, ["A", "C"])
        rs = worstcase.remaining_structure(inst, abc_services, DELTA, {0, 1})
        assert rs.constant_ms == 0
        (block,) = rs.blocks
        assert block.rows == [(132_000, {0: 132_000}), (212_000, {1: 212_000})]


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
    inst = instance(draw(structures()), services)
    for step in inst.steps:
        step.status = draw(hst.sampled_from((PENDING, PENDING, DONE, RUNNING, SKIPPED)))
        step.expected_ms = draw(hst.integers(1, 200)) * 1000
    for node_id, _, reps in inst.model.paths.loops:
        inst.loop_iters_done[node_id] = draw(hst.integers(0, reps - 1))
    pending = [j for j, s in enumerate(inst.steps) if s.status == PENDING]
    schedulable = set(draw(hst.lists(hst.sampled_from(pending), unique=True))) if pending else set()
    placed = {j for j in sorted(schedulable) if draw(hst.booleans())}
    return inst, schedulable, placed


class TestStepDeadlines:
    SERVICES = {
        "A": service("A", cpu=45.0, duration_s=40),
        "B": service("B", cpu=75.0, duration_s=80),
        "C": service("C", cpu=75.0, duration_s=120),
    }

    @settings(max_examples=300)
    @given(_instances(SERVICES))
    def test_deadline_matches_reevaluation(self, drawn):
        inst, schedulable, placed = drawn
        before = copy.deepcopy(inst)
        rs = worstcase.remaining_structure(inst, self.SERVICES, DELTA, schedulable)
        assert inst == before
        assert set(rs.step_deadline_ms) == schedulable
        # Each schedulable step is reduced in sequence or heads a block, never both.
        heads = {j for b in rs.blocks for _, coefs in b.rows for j in coefs}
        assert not set(rs.step_reduction_ms) & heads
        assert set(rs.step_reduction_ms) | heads == schedulable
        for j in schedulable:
            assert rs.step_deadline_ms[j] == _reference_deadline(inst, j, self.SERVICES)
        # e_i once ``placed`` is placed, with every step still pending.
        scheduled = {
            j: worstcase.step_coefficient_ms(inst.steps[j], self.SERVICES, DELTA) for j in placed
        }
        assert rs.remaining_ms(placed) == remaining_duration(inst, self.SERVICES, DELTA, scheduled)
