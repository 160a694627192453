import math
import os
import types
import warnings

import numpy as np
import pytest
from scipy import optimize
from scipy.optimize._highspy import _core

from ffsipp import landscape, milp, sim
from ffsipp.milp import (
    BOOLEAN,
    CONTINUOUS,
    INTEGER,
    MilpProblem,
    export_lp,
    solve,
    verify,
)

from .conftest import assert_highs_reads_back, preset_text
from .oracle import enumerate_oracle


def problem(variables, rows=()):
    """``variables``: (name, domain, lower, upper, cost); ``rows``:
    ({name: coef}, relation, rhs)."""
    prob = MilpProblem()
    index = {}
    for name, domain, lower, upper, cost in variables:
        index[name] = prob.add_var(name, domain, lower, upper)
        prob.cost[index[name]] = cost
    for terms, relation, rhs in rows:
        prob.add_row([index[n] for n in terms], terms.values(), relation, rhs)
    return prob


def knapsack():
    return problem(
        [("a", BOOLEAN, 0, 1, 10.0), ("b", BOOLEAN, 0, 1, 15.0)],
        [({"a": 1.0, "b": 1.0}, ">=", 1.0)],
    )


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

        monkeypatch.setattr(_core, "_Highs", Noisy)
        print("before")
        assert solve(knapsack()).status == milp.OPTIMAL
        print("after")
        assert capfd.readouterr().out == "before\nafter\n"

    @pytest.mark.parametrize("call", ["passModel", "run"])
    def test_highs_error_raises(self, monkeypatch, call):
        class Failing(_core._Highs):
            pass

        setattr(Failing, call, lambda self, *args: _core.HighsStatus.kError)
        monkeypatch.setattr(_core, "_Highs", Failing)
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
        info = types.SimpleNamespace(objective_function_value=10.0, mip_dual_bound=5.0)
        answers = iter([(status, info, np.array([1.0, 0.0])), (status, info, None)])
        monkeypatch.setattr(milp, "run_highs", lambda problem, options: next(answers))
        with_incumbent = solve(knapsack())
        assert (with_incumbent.status, with_incumbent.objective_value) == (milp.TIME_LIMIT, 10.0)
        assert with_incumbent.bound == 5.0
        assert solve(knapsack()) == milp.MilpSolution(milp.TIME_LIMIT, None, None, None)

    @pytest.mark.parametrize("status", ["kSolveError", "kUnboundedOrInfeasible"])
    def test_solver_failure_is_not_a_time_limit(self, monkeypatch, status):
        # scipy.optimize.milp reported these as its status 4, which solve
        # took for a time limit without an incumbent.
        status = getattr(_core.HighsModelStatus, status)
        info = types.SimpleNamespace(objective_function_value=_core.kHighsInf, mip_dual_bound=0.0)
        monkeypatch.setattr(milp, "run_highs", lambda problem, options: (status, info, None))
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

    def test_gap_limited_incumbent_is_not_optimal(self, monkeypatch):
        # A scheduling round (constant_strict_intense, ffsipp, seed 1, round
        # 7) on which HiGHS stops at a 1e-3 gap with an incumbent above its
        # dual bound.
        prob = simulated_round(monkeypatch, "constant_strict_intense", 7)
        loose = solve(prob, gap_tol=1e-3)
        tight = solve(prob, gap_tol=1e-9)
        assert loose.objective_value - loose.bound > 1e-9 * abs(loose.objective_value)
        assert loose.status == milp.GAP_LIMIT
        # the incumbent the simulation itself got in this round
        assert loose.objective_value == pytest.approx(22094.63933813243, abs=1e-6)
        assert verify(prob, loose.values) == []
        assert tight.status == milp.OPTIMAL
        assert tight.objective_value - tight.bound <= 1e-9 * abs(tight.objective_value)
        assert loose.bound - 1e-6 <= tight.objective_value <= loose.objective_value + 1e-6

    def test_answer_rounds_cleanly(self, monkeypatch):
        # A scheduling round (pyramid_strict_intense, ffsipp, seed 1, round
        # 448) whose first HiGHS answer holds a placement at 1 - 8.5e-7 with
        # CPU demand 147: rounded, it puts a capacity row beyond FEAS_TOL, so
        # solve asks HiGHS again with a tighter integrality tolerance.
        prob = simulated_round(monkeypatch, "pyramid_strict_intense", 448)
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


def test_binding_matches_scipy_milp(smoke_scenario, monkeypatch):
    # solve calls scipy's private HiGHS binding; on every round of the smoke
    # preset it must return the rounded integer point that the public
    # scipy.optimize.milp returns with the same options.
    original, rounds = milp.solve, []

    def recording(problem, **options):
        rounds.append((problem, options))
        return original(problem, **options)

    monkeypatch.setattr(milp, "solve", recording)
    for approach in (sim.FFSIPP, sim.SIPP):
        sim.run(smoke_scenario, approach, 1)
    assert rounds
    for problem, options in rounds:
        integral = problem.integral()
        with warnings.catch_warnings():
            # scipy passes options it does not know to HiGHS, with a warning
            warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
            public = optimize.milp(
                problem.cost,
                integrality=integral,
                bounds=optimize.Bounds(problem.lower, problem.upper),
                constraints=optimize.LinearConstraint(
                    problem.matrix(), problem.row_lower, problem.row_upper
                ),
                options={
                    "mip_rel_gap": options["gap_tol"],
                    "mip_heuristic_run_feasibility_jump": False,
                    "time_limit": options["time_limit_ms"] / 1000.0,
                },
            )
        assert public.status == 0
        mine = original(problem, **options)
        assert np.array_equal(np.round(mine.values[integral]), np.round(public.x[integral]))


def rounded(prob, values):
    """``values`` with every integer column rounded, the way decode does."""
    return np.where(prob.integral(), np.round(values), values)


def simulated_round(monkeypatch, preset, n):
    """The problem of round ``n`` (from 1) of ffsipp's seed-1 simulation of
    ``preset``; the simulation is stopped when it hands that round to
    milp.solve."""
    rounds = []

    class Stop(Exception):
        pass

    def recording(problem, **options):
        rounds.append(problem)
        if len(rounds) == n:
            raise Stop
        return solve(problem, **options)

    monkeypatch.setattr(milp, "solve", recording)
    scenario = landscape.parse_scenario(preset_text(preset))
    with pytest.raises(Stop):
        sim.run(scenario, sim.FFSIPP, 1)
    return rounds[-1]


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


class TestLpFormat:
    def test_round_trip(self):
        prob = problem(
            [
                ("x", CONTINUOUS, 0, 4.5, 1.5),
                ("n", INTEGER, 0, 7, -2.0),
                ("b", BOOLEAN, 0, 1, 3.0),
            ],
            [
                ({"x": 1.0, "n": 1.0}, "<=", 6.0),
                ({"x": -2.5, "b": 1.0}, ">=", -3.0),
                ({"n": 1.0, "b": -4.0}, "=", 0.0),
            ],
        )
        assert_highs_reads_back(prob, export_lp(prob))

    def test_sections_present(self):
        text = export_lp(knapsack())
        for section in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
            assert section in text

    def test_dumped_round_replays_the_simulated_solve(self, smoke_scenario, tmp_path, monkeypatch):
        # Each dump, read by HiGHS, is the problem the simulation solved.
        original = milp.solve
        solved = []

        def recording(problem, **options):
            solved.append(problem)
            return original(problem, **options)

        monkeypatch.setattr(milp, "solve", recording)
        for approach in (sim.FFSIPP, sim.SIPP):
            sim.run(smoke_scenario, approach, 1, dump_lp_dir=tmp_path / approach)
        dumps = sorted((tmp_path / sim.FFSIPP).glob("*.lp")) + sorted(
            (tmp_path / sim.SIPP).glob("*.lp")
        )
        assert len(dumps) == len(solved) > 0
        for path, in_sim in zip(dumps, solved):
            assert_highs_reads_back(in_sim, path.read_text())
