import importlib.resources
import math
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import settings, strategies as hst
from scipy import sparse

from ffsipp import landscape, milp, worstcase

# Property tests draw the same examples on every run.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def service(name, cpu=45.0, duration_s=40, ram=0.0, pull_s=30, start_s=2):
    return landscape.ServiceType(
        id=name,
        cpu_demand=cpu,
        ram_demand=ram,
        duration_ms=landscape.ms(duration_s),
        image_pull_ms=landscape.ms(pull_s),
        container_start_ms=landscape.ms(start_s),
    )


def vm_type(name, cores=1, cost=10.0, provider="private", startup_s=60, pool_limit=None):
    return landscape.VmType(
        id=name,
        provider=provider,
        cpu_supply=cores * 100.0,
        ram_supply=1024.0,
        btu_ms=300_000,
        cost_per_btu=cost,
        startup_ms=landscape.ms(startup_s),
        pool_limit=pool_limit,
    )


def instance(structure, services, service_names=None, deadline_ms=10_000_000, iid=1,
             penalty_rate=0.1, arrival_ms=0, loop_iterations=None):
    root = landscape.parse_structure(structure)
    model = landscape.ProcessModel(id=1, root=root)
    names = list(services)
    for i, node in enumerate(model.step_nodes):
        node.service = (service_names or names * len(model.step_nodes))[i]
    return landscape.make_instance(
        model,
        services,
        iid,
        arrival_ms=arrival_ms,
        deadline_ms=deadline_ms,
        penalty_rate=penalty_rate,
        loop_iterations=loop_iterations,
    )


def remaining_duration(inst, services, delta_ms, scheduled=None) -> int:
    """Oracle for the worst-case remaining enactment time e_i, evaluated
    from scratch over the workflow.

    Sequences sum, AND/XOR blocks take their longest branch and loops add
    their future repetitions. ``scheduled`` maps step index to the
    overheadful duration chosen for it this round; that amount is
    subtracted from the step's own structural component, since the
    scheduled execution is accounted for separately. Only pending steps
    contribute.
    """
    scheduled = scheduled or {}
    dec = inst.model.paths

    def pending(indices):
        return [inst.steps[i] for i in indices if inst.steps[i].status == landscape.PENDING]

    def coefficient_sum(steps):
        return sum(worstcase.step_coefficient_ms(s, services, delta_ms) for s in steps)

    def path_value(indices):
        total = coefficient_sum(pending(indices))
        return total - sum(scheduled.get(i, 0) for i in indices)

    e_i = path_value([lists[0][0] for _, kind, lists, _ in dec.items if kind == landscape.STEP])
    for _, branches in dec.blocks:
        e_i += max(0, max(path_value(branch) for branch in branches))
    for node_id, body, reps in dec.loops:
        if not pending(body):
            continue
        full = coefficient_sum([inst.steps[i] for i in body])
        future = max(0, reps - inst.loop_iters_done.get(node_id, 0) - 1)
        e_i += max(0, path_value(body)) + future * full
    return e_i


def frontier(inst) -> tuple[set[int], list[int]]:
    """Reference for (``next_steps``, ``pending_xor_choices``), rule by rule.

    A step is ready iff it is pending, every step of every earlier top-level
    item is done or skipped, every earlier step of its own list is done, and
    its XOR block, if any, has a choice. An XOR block is pending iff it has
    no choice, some step of it is neither done nor skipped, and every step
    of every earlier top-level item is done or skipped.
    """
    items = inst.model.paths.items

    def finished(lists):
        return all(inst.steps[i].status in (landscape.DONE, landscape.SKIPPED)
                   for steps in lists for i in steps)

    ready, pending = set(), []
    for k, (node_id, kind, lists, _) in enumerate(items):
        earlier_finished = all(finished(earlier) for _, _, earlier, _ in items[:k])
        chosen = kind != landscape.XOR_BLOCK or node_id in inst.xor_choices
        if earlier_finished and not chosen and not finished(lists):
            pending.append(node_id)
        for steps in lists:
            for pos, i in enumerate(steps):
                if (
                    inst.steps[i].status == landscape.PENDING
                    and earlier_finished
                    and all(inst.steps[h].status == landscape.DONE for h in steps[:pos])
                    and chosen
                ):
                    ready.add(i)
    return ready, pending


def structures():
    """Every shape the parser accepts: a sequence of steps, blocks and loops
    whose branches and bodies are sequences of steps."""
    steps = hst.integers(1, 3).map(lambda n: ",".join(["s"] * n))
    branches = hst.lists(steps, min_size=1, max_size=3).map("|".join)
    item = hst.one_of(
        hst.just("s"),
        branches.map(lambda b: f"AND({b})"),
        branches.map(lambda b: f"XOR({b})"),
        hst.tuples(hst.integers(1, 3), steps).map(lambda t: f"LOOP*{t[0]}({t[1]})"),
    )
    return hst.lists(item, min_size=1, max_size=4).map(",".join)


@pytest.fixture
def abc_services():
    return {
        "A": service("A", cpu=45.0, duration_s=40),
        "B": service("B", cpu=75.0, duration_s=80),
        "C": service("C", cpu=75.0, duration_s=120),
    }


def preset_text(name):
    return importlib.resources.files("ffsipp.presets").joinpath(f"{name}.yaml").read_text()


@pytest.fixture
def smoke_scenario():
    return landscape.parse_scenario(preset_text("smoke"))


def row_bounds(relation: str, rhs: float) -> tuple[float, float]:
    """``(lower, upper)`` for ``MilpProblem.add_row`` of the row ``... relation rhs``."""
    return {"<=": (-math.inf, rhs), ">=": (rhs, math.inf), "=": (rhs, rhs)}[relation]


def sparse_matrix(problem: milp.MilpProblem) -> sparse.csr_array:
    """``problem``'s constraint matrix as a scipy sparse array."""
    a = problem.assembled()
    return sparse.csr_array((a.value, a.index, a.start), shape=(problem.num_rows, problem.num_vars))


def assert_highs_reads_back(problem: milp.MilpProblem, text: str):
    """HiGHS's own LP reader turns ``text`` into ``problem``: the same
    columns (matched by name, since HiGHS numbers them by first appearance),
    costs, bounds, integrality, row bounds and matrix, value for value."""
    # scipy's private binding of HiGHS; only the tests that call this need it.
    from scipy.optimize._highspy import _core

    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "model.lp"
        path.write_text(text)
        assert highs.readModel(str(path)) == _core.HighsStatus.kOk
    lp = highs.getLp()
    assert lp.sense_ == _core.ObjSense.kMinimize and lp.offset_ == 0.0
    assert sorted(lp.col_names_) == sorted(problem.names)
    index = {name: col for col, name in enumerate(problem.names)}
    cols = np.array([index[name] for name in lp.col_names_], dtype=np.int64)

    def column(values):
        return np.array(values, dtype=np.float64)[cols]

    assert np.array_equal(np.array(lp.col_cost_), column(problem.cost))
    assert np.array_equal(np.array(lp.col_lower_), column(problem.lower))
    assert np.array_equal(np.array(lp.col_upper_), column(problem.upper))
    # An empty integrality list means every column is continuous.
    integral = [kind != _core.HighsVarType.kContinuous for kind in lp.integrality_]
    assert np.array_equal(
        np.array(integral or [False] * lp.num_col_, dtype=bool), problem.integral()[cols]
    )
    assert lp.row_lower_ == problem.row_lower
    assert lp.row_upper_ == problem.row_upper
    a = lp.a_matrix_
    assert a.format_ == _core.MatrixFormat.kColwise
    read = sparse.csc_array(
        (np.array(a.value_), np.array(a.index_), np.array(a.start_)),
        shape=(lp.num_row_, lp.num_col_),
    )
    expected = sparse_matrix(problem).tocsc()[:, cols]
    assert read.nnz == expected.nnz and (read != expected).nnz == 0
