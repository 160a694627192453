import json
import math
import os
import pathlib
import sys
import threading
import types
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import optimize
from scipy.optimize._highspy import _core

from ffsipp import milp, optimizer, sim
from ffsipp.landscape import parse_scenario
from ffsipp.milp import (
    BOOLEAN,
    CONTINUOUS,
    INTEGER,
    MilpProblem,
    solve,
    verify,
)

from .conftest import (
    PROBLEM_LISTS,
    assert_same_problem,
    preset_text,
    problem_from_json,
    row_bounds,
    sparse_matrix,
)
from .oracle import enumerate_oracle

DATA = pathlib.Path(__file__).parent / "data"


def problem(variables, rows=()):
    """``variables``: (name, domain, lower, upper, cost); ``rows``:
    ({name: coef}, relation, rhs)."""
    prob = MilpProblem()
    index = {}
    for name, domain, lower, upper, cost in variables:
        index[name] = prob.add_var(name, domain, lower, upper)
        prob.cost[index[name]] = cost
    for terms, relation, rhs in rows:
        prob.add_row([index[n] for n in terms], terms.values(), *row_bounds(relation, rhs))
    return prob


def knapsack(domain=BOOLEAN):
    return problem(
        [("a", domain, 0, 1, 10.0), ("b", domain, 0, 1, 15.0)],
        [({"a": 1.0, "b": 1.0}, ">=", 1.0)],
    )


def market_split(m=4, seed=0):
    """A market-split model: split ``10 * (m - 1)`` items into two halves
    of equal weight on each of ``m`` random weightings, with a priced slack
    either way. At ``m=4`` HiGHS needs over 30 s for it on a 2-core
    machine."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(0, 100, (m, 10 * (m - 1)))
    prob = MilpProblem()
    items = [prob.add_var(f"x{j}", BOOLEAN) for j in range(weights.shape[1])]
    for i, row in enumerate(weights):
        over, under = prob.add_var(f"over{i}"), prob.add_var(f"under{i}")
        prob.cost[over] = prob.cost[under] = 1.0
        coefs = [*map(float, row), -1.0, 1.0]
        prob.add_row(items + [over, under], coefs, *row_bounds("=", float(row.sum() // 2)))
    return prob


def stopped(status, objective, bound, point):
    """A HiGHS class whose instances run, then report ``status``, ``objective``,
    ``bound`` and ``point`` (``None``: no feasible point)."""

    class Stopped(_core._Highs):
        def getModelStatus(self):
            return status

        def getInfo(self):
            feasible = _core.kSolutionStatusFeasible if point is not None else None
            return types.SimpleNamespace(
                objective_function_value=objective,
                mip_dual_bound=bound,
                primal_solution_status=feasible,
            )

        def getSolution(self):
            return types.SimpleNamespace(col_value=point)

    return Stopped


class TestSolve:
    def test_knapsack(self):
        sol = solve(knapsack())
        assert sol.status == milp.OPTIMAL
        assert sol.objective_value == pytest.approx(10.0)
        assert sol.values[0] == pytest.approx(1.0)

    def test_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(knapsack(), time_limit_ms=1000)
        assert sol.status == milp.OPTIMAL

    def test_highs_output_does_not_reach_stdout(self, capfd, monkeypatch):
        # HiGHS can write to descriptor 1 itself, past output_flag=False.
        class Noisy(_core._Highs):
            def run(self):
                os.write(1, b"HiGHS diagnostic\n")
                return super().run()

        monkeypatch.setattr(milp, "_highs", Noisy)
        print("before")
        assert solve(knapsack()).status == milp.OPTIMAL
        print("after")
        assert capfd.readouterr().out == "before\nafter\n"

    def test_failed_redirect_leaks_no_descriptor(self, monkeypatch):
        # Opening the null device can fail (EMFILE, for one); descriptor 1
        # must then be left as it was and its saved copy closed.
        def no_descriptors(*args, **kwargs):
            raise OSError(24, "Too many open files")

        before, stdout = sorted(os.listdir("/proc/self/fd")), os.fstat(1)
        monkeypatch.setattr(os, "open", no_descriptors)
        with pytest.raises(OSError, match="Too many open files"):
            solve(knapsack())
        monkeypatch.undo()
        assert sorted(os.listdir("/proc/self/fd")) == before
        after = os.fstat(1)
        assert (after.st_dev, after.st_ino) == (stdout.st_dev, stdout.st_ino)

    @pytest.mark.parametrize("call", ["passModel", "run"])
    def test_highs_error_raises(self, monkeypatch, call):
        class Failing(_core._Highs):
            pass

        setattr(Failing, call, lambda self, *args: _core.HighsStatus.kError)
        monkeypatch.setattr(milp, "_highs", Failing)
        with pytest.raises(ValueError, match="HiGHS"):
            solve(knapsack())

    def test_model_without_columns_raises(self):
        with pytest.raises(ValueError, match="no columns"):
            solve(MilpProblem())

    @pytest.mark.parametrize("cost", [math.inf, math.nan])
    def test_non_finite_cost_raises(self, cost):
        prob = knapsack()
        prob.cost[1] = cost
        with pytest.raises(ValueError, match="non-finite cost"):
            solve(prob)

    @pytest.mark.parametrize("status", ["kTimeLimit", "kIterationLimit", "kSolutionLimit"])
    def test_limits_are_time_limit(self, monkeypatch, status):
        status = getattr(_core.HighsModelStatus, status)
        monkeypatch.setattr(milp, "_highs", stopped(status, 10.0, 5.0, [1.0, 0.0]))
        with_incumbent = solve(knapsack())
        assert (with_incumbent.status, with_incumbent.objective_value) == (milp.TIME_LIMIT, 10.0)
        assert with_incumbent.bound == 5.0
        monkeypatch.setattr(milp, "_highs", stopped(status, 10.0, 5.0, None))
        assert solve(knapsack()) == milp.MilpSolution(milp.TIME_LIMIT, None, None, None)

    @pytest.mark.parametrize("status", ["kSolveError", "kUnboundedOrInfeasible"])
    def test_solver_failure_is_not_a_time_limit(self, monkeypatch, status):
        # scipy.optimize.milp reported these as its status 4, which solve
        # took for a time limit without an incumbent.
        status = getattr(_core.HighsModelStatus, status)
        monkeypatch.setattr(milp, "_highs", stopped(status, _core.kHighsInf, 0.0, None))
        with pytest.raises(ValueError, match=status.name):
            solve(knapsack())

    def test_matches_oracle(self):
        assert solve(knapsack()).objective_value == pytest.approx(
            enumerate_oracle(knapsack()).objective_value
        )

    def test_continuous_lp(self):
        prob = problem(
            [("x", CONTINUOUS, 0, 10, -1.0), ("y", CONTINUOUS, 0, 10, -2.0)],
            [({"x": 1.0, "y": 1.0}, "<=", 4.0)],
        )
        sol = solve(prob)
        assert sol.objective_value == pytest.approx(-8.0)
        # a model without integer columns has no dual bound
        assert (sol.status, sol.bound) == (milp.OPTIMAL, None)

    def test_infeasible(self):
        prob = problem([("x", BOOLEAN, 0, 1, 1.0)], [({"x": 1.0}, ">=", 2.0)])
        assert solve(prob).status == milp.INFEASIBLE

    def test_unbounded_raises(self):
        prob = problem([("x", CONTINUOUS, 0, math.inf, -1.0)])
        with pytest.raises(ValueError):
            solve(prob)

    def test_gap_limited_incumbent_is_not_optimal(self):
        # A scheduling round (constant_strict_intense, ffsipp, seed 1, round
        # 7) on which HiGHS stops at a 1e-3 gap with an incumbent above its
        # dual bound.
        prob = committed_round("constant_strict_intense_round7")
        loose = solve(prob, gap_tol=1e-3)
        tight = solve(prob, gap_tol=1e-9)
        assert loose.objective_value - loose.bound > 1e-9 * abs(loose.objective_value)
        assert loose.status == milp.GAP_LIMIT
        # the incumbent the simulation got in this round when it was captured
        assert loose.objective_value == pytest.approx(22094.63933813243, abs=1e-6)
        assert verify(prob, loose.values) == []
        assert tight.status == milp.OPTIMAL
        assert tight.objective_value - tight.bound <= 1e-9 * abs(tight.objective_value)
        assert loose.bound - 1e-6 <= tight.objective_value <= loose.objective_value + 1e-6
        # the presets' own gap proves this round's optimum
        gap = parse_scenario(preset_text("constant_strict_intense")).config.gap_tol
        exact = solve(prob, gap_tol=gap)
        assert exact.status == milp.OPTIMAL
        assert exact.objective_value == pytest.approx(tight.objective_value, abs=1e-6)

    def test_answer_rounds_cleanly(self, monkeypatch):
        # A scheduling round (pyramid_strict_intense, ffsipp, seed 1, round
        # 448) whose first HiGHS answer holds a placement at 1 - 8.5e-7 with
        # CPU demand 147: rounded, it puts a capacity row beyond FEAS_TOL, so
        # solve asks HiGHS again with a tighter integrality tolerance.
        prob = committed_round("pyramid_strict_intense_round448")
        original, answers = milp.run_highs, []

        def recording(problem, options):
            answers.append(original(problem, options))
            return answers[-1]

        monkeypatch.setattr(milp, "run_highs", recording)
        sol = solve(prob)
        assert len(answers) == 2
        (_, first, first_x), (_, _, second_x) = answers
        assert [v.kind for v in verify(prob, rounded(prob, first_x))] == ["constraint"]
        assert sol.values is second_x
        assert verify(prob, rounded(prob, sol.values)) == []
        assert sol.objective_value == pytest.approx(first.objective_function_value, rel=1e-3)


def smoke_rounds(scenario, monkeypatch) -> list:
    """(problem, keyword arguments) of every ``milp.solve`` call of both
    approaches' seed-1 simulations of ``scenario``."""
    original, rounds = milp.solve, []

    def recording(problem, **options):
        rounds.append((problem, options))
        return original(problem, **options)

    monkeypatch.setattr(milp, "solve", recording)
    for approach in (sim.FFSIPP, sim.SIPP):
        sim.run(scenario, approach, 1)
    monkeypatch.setattr(milp, "solve", original)
    assert rounds
    return rounds


def test_binding_matches_scipy_milp(smoke_scenario, monkeypatch):
    # solve calls scipy's private HiGHS binding; on every round of the smoke
    # preset it must return the rounded integer point that the public
    # scipy.optimize.milp returns with the same options. No round hands
    # HiGHS a wall-clock limit: each asks for a proven optimum and no more.
    for problem, options in smoke_rounds(smoke_scenario, monkeypatch):
        assert options == {"gap_tol": 0.0}
        integral = problem.integral()
        with warnings.catch_warnings():
            # scipy passes options it does not know to HiGHS, with a warning
            warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
            public = optimize.milp(
                problem.cost,
                integrality=integral,
                bounds=optimize.Bounds(problem.lower, problem.upper),
                constraints=optimize.LinearConstraint(
                    sparse_matrix(problem), problem.row_lower, problem.row_upper
                ),
                options={
                    "mip_rel_gap": options["gap_tol"],
                    "mip_heuristic_run_feasibility_jump": False,
                },
            )
        assert public.status == 0
        mine = solve(problem, **options)
        assert np.array_equal(np.round(mine.values[integral]), np.round(public.x[integral]))


class TestReusedInstance:
    """``run_highs`` reuses one HiGHS instance per thread; nothing of one
    call reaches the next."""

    def test_options_are_reset(self):
        # A time limit, a gap and the re-solve's tight tolerance, set for one
        # call, are back at HiGHS's defaults in the next.
        defaults = _core._Highs()
        names = ("time_limit", "mip_rel_gap", "mip_feasibility_tolerance")
        set_once = {"time_limit": 0.5, "mip_rel_gap": 0.1, "mip_feasibility_tolerance": 1e-9}
        milp.run_highs(knapsack(), {"output_flag": False, **set_once})
        highs = milp._highs()
        assert [highs.getOptionValue(name)[1] for name in names] == list(set_once.values())
        milp.run_highs(knapsack(), {"output_flag": False})
        assert milp._highs() is highs
        for name in names:
            assert highs.getOptionValue(name) == defaults.getOptionValue(name), name

    def test_summed_run_time_stops_no_call(self, monkeypatch):
        # HiGHS adds up its run time over an instance's calls; a call's
        # time_limit still counts from that call's start, for a MILP and an LP.
        limit = 0.01
        options = {"output_flag": False, "time_limit": limit}
        for domain in (BOOLEAN, CONTINUOUS):
            highs, statuses = _core._Highs(), []
            monkeypatch.setattr(milp, "_highs", lambda: highs)
            while highs.getRunTime() <= 3 * limit and len(statuses) < 50_000:
                statuses.append(milp.run_highs(knapsack(domain), options)[0])
            assert highs.getRunTime() > 3 * limit, domain
            assert set(statuses) == {_core.HighsModelStatus.kOptimal}, domain

    def test_milp_stops_at_its_own_limit(self, monkeypatch):
        # After 1 s of run time on the instance, a MILP given 5 ms stops at
        # its limit within 100 times that, not after the 1 s run so far.
        highs, hard = _core._Highs(), market_split()
        monkeypatch.setattr(milp, "_highs", lambda: highs)
        limit_hit = _core.HighsModelStatus.kTimeLimit
        assert milp.run_highs(hard, {"output_flag": False, "time_limit": 1.0})[0] == limit_hit
        before = highs.getRunTime()
        assert milp.run_highs(hard, {"output_flag": False, "time_limit": 0.005})[0] == limit_hit
        assert highs.getRunTime() - before < 0.5

    def test_threads_return_the_serial_points(self, smoke_scenario, monkeypatch):
        # More threads than cores solve the smoke preset's rounds at once,
        # each in another order, with frequent thread switches; each thread
        # has its own instance and gets the serial points.
        rounds = smoke_rounds(smoke_scenario, monkeypatch)
        serial = [solve(problem, **options).values for problem, options in rounds]
        ks = list(range(len(rounds)))
        orders = [ks, ks[::-1], ks[len(ks) // 2:] + ks[: len(ks) // 2]]
        started = threading.Barrier(len(orders))

        def solve_all(order):
            started.wait(timeout=60)
            points = {k: solve(rounds[k][0], **rounds[k][1]).values for k in order}
            return milp._highs(), points

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(orders)) as pool:
                futures = [pool.submit(solve_all, order) for order in orders]
                answers = [future.result(timeout=300) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len({id(highs) for highs, _ in answers}) == len(orders)
        for _, points in answers:
            assert len(points) == len(serial)
            for k, point in enumerate(serial):
                assert np.array_equal(points[k], point), k


def rounded(prob, values):
    """``values`` with every integer column rounded, the way decode does."""
    return np.where(prob.integral(), np.round(values), values)


def committed_round(name: str) -> MilpProblem:
    """The scheduling round model committed as ``tests/data/<name>.json``,
    in ``MilpProblem.to_json``'s form. Each file holds the model that
    ``optimizer.build`` returned for round n (counting model builds from 1)
    of ffsipp's seed-1 simulation of the preset in its name. Today's
    builder's model for that round is recaptured by ``ffsipp run --scenario
    <preset> --approach ffsipp --seeds 1 --out OUT --dump-models DIR``, as
    ``DIR/ffsipp_seed1_round<nnnn>.json``. The files hold those rounds fixed
    while the builder changes."""
    return problem_from_json((DATA / f"{name}.json").read_text())


class TestAssembled:
    def test_arrays_drop_zeros_and_sum_rows(self):
        prob = problem(
            [("a", BOOLEAN, 0, 1, 1.0), ("b", CONTINUOUS, 0, 5, 1.0), ("c", INTEGER, 0, 3, 1.0)],
            [
                ({"a": 1.0, "b": 0.0, "c": 2.0}, "<=", 4.0),
                ({"b": 0.0}, ">=", 0.0),
                ({"c": -1.5, "a": 3.0}, "=", 1.5),
            ],
        )
        a = prob.assembled()
        assert a.start.tolist() == [0, 2, 2, 4] and a.index.tolist() == [0, 2, 2, 0]
        assert a.value.tolist() == [1.0, 2.0, -1.5, 3.0]
        assert (a.start.dtype, a.index.dtype, a.integrality.dtype) == (np.int32,) * 3
        assert a.integral.tolist() == [True, False, True]
        assert prob.activity(np.array([1.0, 2.5, 2.0])).tolist() == [5.0, 0.0, 0.0]

    ROWS = [  # (cols, coefs, relation, rhs), zero terms and an empty row too
        ([0, 2], [1.0, 2.0], "<=", 4.0),
        ([], [], ">=", -1.0),
        ([1], [0.0], ">=", 0.0),
        ([2, 0, 1], [-1.5, 3.0, 0.25], "=", 1.5),
        ([1, 2], [1, -1], "<=", 0),
    ]
    CSR = ("indptr", "indices", "data", "row_lower", "row_upper")

    def columns(self):
        prob = MilpProblem()
        prob.add_var("a", BOOLEAN)
        prob.add_vars(["b", "c"], INTEGER, 0, 3)
        return prob

    def with_rows(self):
        prob = self.columns()
        for k, (cols, coefs, relation, rhs) in enumerate(self.ROWS):
            assert prob.add_row(cols, coefs, *row_bounds(relation, rhs)) == k
        return prob

    def test_rows_append_as_csr(self):
        prob = self.with_rows()
        assert prob.indptr == [0, 2, 2, 3, 6, 8]
        assert prob.indices == [0, 2, 1, 2, 0, 1, 1, 2]
        assert prob.data == [1.0, 2.0, 0.0, -1.5, 3.0, 0.25, 1, -1]
        assert prob.row_lower == [-math.inf, -1.0, 0.0, 1.5, -math.inf]
        assert prob.row_upper == [4.0, math.inf, math.inf, 1.5, 0]
        assert prob.activity(np.array([1.0, 2.0, 3.0])).tolist() == [7.0, 0.0, 0.0, -1.0, -1.0]
        for row, (cols, coefs, relation, rhs) in enumerate(self.ROWS):
            assert prob.row_relation(row) == (relation, rhs)
            assert prob.row_terms(row) == (cols, coefs)

    def test_row_refuses_mismatched_lengths(self):
        prob = self.columns()
        prob.add_row([0], [1.0], 0.0, 1.0)
        before = [list(getattr(prob, name)) for name in self.CSR]
        with pytest.raises(ValueError, match="2 columns and 1 coefficients"):
            prob.add_row([1, 2], [1.0], 0.0, 1.0)
        assert [getattr(prob, name) for name in self.CSR] == before

    @pytest.mark.parametrize("lower, upper", [(1.0, 3.0), (-math.inf, math.inf)])
    def test_ranged_or_free_row_has_no_relation(self, lower, upper):
        # Neither row reads "relation rhs": "= lower" would misstate the
        # ranged row that HiGHS solves, and "<= inf" bounds nothing.
        prob = problem([("x", CONTINUOUS, 0, 10, -1.0)])
        prob.add_row([0], [1.0], lower, upper)
        assert solve(prob).values.tolist() == [min(upper, 10.0)]
        with pytest.raises(ValueError, match="row 0 has bounds"):
            prob.row_relation(0)

    def test_bulk_columns_match_single_columns(self):
        single, bulk = MilpProblem(), MilpProblem()
        for name in ("x", "y", "z"):
            single.add_var(name, BOOLEAN)
        assert bulk.add_vars(["x", "y", "z"], BOOLEAN) == 0
        assert bulk.add_vars([], INTEGER) == 3
        for name in ("names", "domains", "lower", "upper", "cost"):
            assert getattr(bulk, name) == getattr(single, name), name
        with pytest.raises(ValueError, match="lower 2 > upper 1"):
            bulk.add_vars(["w", "v"], INTEGER, 2, 1)
        assert bulk.num_vars == 3

    def test_bounds_cached_as_arrays(self):
        prob = self.with_rows()
        a = prob.assembled()
        for name in ("lower", "upper", "row_lower", "row_upper"):
            array = getattr(a, name)
            assert array.dtype == np.float64 and array.tolist() == getattr(prob, name), name
        assert prob.assembled() is a
        prob.add_var("d", CONTINUOUS, -1.0, 2.0)
        assert prob.assembled().lower.tolist() == [0.0, 0.0, 0.0, -1.0]

    def test_cost_changed_after_a_solve_reaches_the_next(self):
        prob = knapsack()
        assert solve(prob).values.tolist() == [1.0, 0.0]
        prob.cost[0] = 20.0
        second = solve(prob)
        assert second.values.tolist() == [0.0, 1.0] and second.objective_value == 15.0


class TestVerify:
    def test_clean_point(self):
        assert verify(knapsack(), [1.0, 0.0]) == []

    def test_constraint_violation(self):
        out = verify(knapsack(), [0.0, 0.0])
        assert out and out[0].kind == "constraint"

    def test_bound_violation(self):
        out = verify(knapsack(), [2.0, 0.0])
        assert any(v.kind == "bound" for v in out)

    def test_integrality_violation(self):
        out = verify(knapsack(), [0.5, 0.6])
        assert any(v.kind == "integrality" for v in out)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point(self, bad):
        # NaN fails every comparison, so no bound or row test would catch it
        prob = problem(
            [("a", BOOLEAN, 0, 1, 1.0), ("b", CONTINUOUS, 0, math.inf, 1.0),
             ("c", CONTINUOUS, 0, math.inf, 1.0)],
            [({"a": 1.0, "b": 1.0}, ">=", 1.0), ({"a": 1.0}, "<=", 1.0)],
        )
        out = verify(prob, [1.0, bad, bad])
        assert [(v.constraint, v.variable, v.kind) for v in out] == [
            (None, "b", "nonfinite"), (None, "c", "nonfinite"), (0, None, "nonfinite"),
        ]
        assert all(v.amount == math.inf for v in out)


class TestOracle:
    def test_mixed_integer_continuous(self):
        prob = problem(
            [("n", INTEGER, 0, 3, 2.0), ("x", CONTINUOUS, 0, 5, 1.0)],
            [({"n": 1.0, "x": 1.0}, ">=", 3.5)],
        )
        sol = enumerate_oracle(prob)
        assert sol.objective_value == pytest.approx(3.5)
        assert solve(prob).objective_value == pytest.approx(3.5)

    def test_equality_rows(self):
        prob = problem(
            [("x", CONTINUOUS, 0, 10, 1.0), ("b", BOOLEAN, 0, 1, -5.0)],
            [({"x": 1.0, "b": -4.0}, "=", 0.0)],
        )
        sol = enumerate_oracle(prob)
        assert sol.objective_value == pytest.approx(-1.0)
        assert sol.values[0] == pytest.approx(4.0)


class TestJsonDump:
    def test_round_trip(self):
        prob = problem(
            [
                ("x", CONTINUOUS, 0, 4.5, 0.1 + 0.2),
                ("n", INTEGER, 0, 7, -2.0),
                ("b", BOOLEAN, 0, 1, 3.0),
                ("f", CONTINUOUS, -math.inf, math.inf, 1 / 3),
            ],
            [
                ({"x": 1.0, "n": 1.0, "f": 1 / 3}, "<=", 6.0),
                ({"x": -2.5, "b": 0.0}, ">=", 0.1 + 0.2),
                ({"n": 1.0, "b": -4.0}, "=", 0.0),
            ],
        )
        text = prob.to_json()
        assert tuple(json.loads(text)) == PROBLEM_LISTS
        loaded = problem_from_json(text)
        assert_same_problem(prob, loaded)
        assert loaded.to_json() == text

    @pytest.mark.parametrize(
        "name", ["constant_strict_intense_round7", "pyramid_strict_intense_round448"]
    )
    def test_committed_rounds_are_dumps(self, name):
        text = (DATA / f"{name}.json").read_text()
        assert problem_from_json(text).to_json() + "\n" == text

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_cost_is_not_written(self, bad):
        # NaN and Infinity are not JSON
        prob = knapsack()
        prob.cost[1] = bad
        with pytest.raises(ValueError, match="Out of range float values"):
            prob.to_json()

    def test_dumped_round_is_the_round_built(self, smoke_scenario, tmp_path, monkeypatch):
        # Each dump, loaded, is the problem its round built, whether HiGHS
        # solved that round or not.
        built = []

        def recording(state, config, baseline=False, original=optimizer.build):
            model = original(state, config, baseline)
            built.append(model.problem)
            return model

        monkeypatch.setattr(optimizer, "build", recording)
        reports = [
            sim.run(smoke_scenario, approach, 1, dump_dir=tmp_path)
            for approach in (sim.FFSIPP, sim.SIPP)
        ]
        dumps = sorted(tmp_path.glob(f"{sim.FFSIPP}_*.json")) + sorted(
            tmp_path.glob(f"{sim.SIPP}_*.json")
        )
        assert len(dumps) == len(built) == sum(r.rounds for r in reports) > 0
        for path, in_sim in zip(dumps, built):
            text = path.read_text()
            assert_same_problem(in_sim, problem_from_json(text))
            assert all(type(v) is float for v in json.loads(text)["data"]), path.name
