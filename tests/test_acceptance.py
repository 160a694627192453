"""End-to-end acceptance gate: solver soundness, plan feasibility, cost and
adherence bands for both approaches, baseline dominance, arrival pattern
totals, and byte-identical determinism."""

import hashlib
import json
import pathlib
import statistics
import tempfile
import time

import numpy as np
import pytest

from ffsipp import baseline as baseline_mod
from ffsipp import experiment, landscape, milp, optimizer, sim, worstcase
from ffsipp.landscape import Weights
from ffsipp.milp import BOOLEAN, CONTINUOUS, INTEGER, MilpProblem

from .conftest import (
    assert_same_problem,
    instance,
    preset_text,
    problem_from_json,
    remaining_duration,
    row_bounds,
    vm_type,
)
from .oracle import enumerate_oracle

SEEDS = (1, 2, 3)


def load_scenario(name: str) -> landscape.Scenario:
    return landscape.parse_scenario(preset_text(name))


@pytest.fixture(scope="session")
def full_runs(tmp_path_factory):
    """All simulated runs the banded checks draw from, computed once by the
    experiment runner's pool (one worker per core, its default)."""
    matrix = {
        "constant_strict_intense": ("ffsipp", "sipp"),
        "constant_lenient_intense": ("ffsipp",),
        "pyramid_strict_intense": ("ffsipp", "sipp"),
        "constant_strict_light": ("ffsipp", "sipp"),
    }
    out = {}
    for name, approaches in matrix.items():
        config = experiment.ExperimentConfig(
            scenario_path=name,
            approaches=approaches,
            seeds=SEEDS,
            out_dir=str(tmp_path_factory.mktemp(name)),
        )
        for (approach, seed), report in experiment.run_experiment(config).items():
            out[(name, approach, seed)] = report
    return out


def mean_of(runs, name, approach, field):
    return statistics.fmean(
        getattr(runs[(name, approach, seed)], field) for seed in SEEDS
    )


# -- 1. solver soundness ----------------------------------------------------


def random_problem(rng: np.random.Generator) -> MilpProblem:
    problem = MilpProblem()
    for i in range(int(rng.integers(1, 4))):
        problem.add_var(f"b{i}", BOOLEAN)
    for i in range(int(rng.integers(0, 3))):
        problem.add_var(f"n{i}", INTEGER, 0, int(rng.integers(1, 4)))
    for i in range(int(rng.integers(0, 3))):
        problem.add_var(f"x{i}", CONTINUOUS, 0, float(rng.integers(1, 11)))

    def expr():
        picked = [col for col in range(problem.num_vars) if rng.random() < 0.7] or [0]
        return picked, [round(float(rng.uniform(-10, 10)), 2) for _ in picked]

    for _ in range(int(rng.integers(1, 5))):
        sense = ("<=", ">=", "=")[int(rng.integers(0, 3))]
        rhs = round(float(rng.uniform(-5, 15)), 2)
        problem.add_row(*expr(), *row_bounds(sense, rhs))
    for col, coef in zip(*expr()):
        problem.cost[col] = coef
    return problem


def test_solver_matches_oracle_on_random_problems():
    rng = np.random.default_rng(20240824)
    started = time.monotonic()
    solved = 0
    for _ in range(200):
        problem = random_problem(rng)
        oracle = enumerate_oracle(problem)
        solution = milp.solve(problem, gap_tol=1e-9)
        assert solution.status == oracle.status
        if oracle.status == milp.OPTIMAL:
            assert solution.objective_value == pytest.approx(
                oracle.objective_value, abs=1e-6
            )
            solved += 1
    assert solved > 50  # the generator must exercise real optima
    assert time.monotonic() - started < 60.0


def test_json_dump_round_trips_random_problems():
    rng = np.random.default_rng(20240824)
    for _ in range(200):
        problem = random_problem(rng)
        text = problem.to_json()
        loaded = problem_from_json(text)
        assert_same_problem(problem, loaded)
        assert loaded.to_json() == text


# -- 2. plan feasibility ----------------------------------------------------


def test_every_round_produced_a_verified_plan(full_runs):
    # Round-level verification and the container capacity check are
    # asserted inside the simulator; the counters attest they all ran.
    for (name, approach, seed), report in full_runs.items():
        assert report.rounds > 0, (name, approach, seed)
        assert report.verified_plans == report.rounds - report.fallbacks


# -- 3.-6. scenario bands ---------------------------------------------------


def test_constant_strict_intense_cost_ratio_and_adherence(full_runs):
    ratio = mean_of(full_runs, "constant_strict_intense", "ffsipp", "total_cost") / (
        mean_of(full_runs, "constant_strict_intense", "sipp", "total_cost")
    )
    assert 0.40 <= ratio <= 0.70
    assert mean_of(
        full_runs, "constant_strict_intense", "ffsipp", "sla_adherence_pct"
    ) >= 95.0


def test_constant_lenient_intense_adherence_and_postponement(full_runs):
    assert mean_of(
        full_runs, "constant_lenient_intense", "ffsipp", "sla_adherence_pct"
    ) >= 99.0
    lenient = mean_of(full_runs, "constant_lenient_intense", "ffsipp", "makespan_min")
    strict = mean_of(full_runs, "constant_strict_intense", "ffsipp", "makespan_min")
    assert lenient > strict


def test_pyramid_strict_intense_cost_ratio_and_adherence(full_runs):
    ratio = mean_of(full_runs, "pyramid_strict_intense", "ffsipp", "total_cost") / (
        mean_of(full_runs, "pyramid_strict_intense", "sipp", "total_cost")
    )
    assert 0.40 <= ratio <= 0.70
    assert mean_of(
        full_runs, "pyramid_strict_intense", "ffsipp", "sla_adherence_pct"
    ) >= 95.0


def test_constant_strict_light_cost_ratio(full_runs):
    ratio = mean_of(full_runs, "constant_strict_light", "ffsipp", "total_cost") / (
        mean_of(full_runs, "constant_strict_light", "sipp", "total_cost")
    )
    assert 0.28 <= ratio <= 0.52


# -- 7. baseline dominance --------------------------------------------------

MONEY_ONLY = Weights(dl_per_ms=0.0, d_per_ms=0.0, f_cpu=0.0, f_ram=0.0, z=0.0)
# pull + container start equals the baseline's flat deployment time so both
# formulations price an uncached placement with identical occupancy.
SERVICE_POOL = {
    "A": dict(cpu=45, duration_s=40, pull_s=28),
    "B": dict(cpu=75, duration_s=80, pull_s=28),
    "C": dict(cpu=75, duration_s=120, pull_s=28),
    "D": dict(cpu=100, duration_s=40, pull_s=28),
    "E": dict(cpu=120, duration_s=100, pull_s=28),
}


def random_snapshot(rng: np.random.Generator):
    from .conftest import service

    services = {name: service(name, **kw) for name, kw in SERVICE_POOL.items()}
    vm_types = {
        "p1": vm_type("p1", cores=1, cost=10.0, pool_limit=4),
        "p2": vm_type("p2", cores=2, cost=18.0, pool_limit=4),
        "a4": vm_type("a4", cores=4, cost=35.0),
    }
    instances = []
    for iid in range(1, int(rng.integers(1, 4)) + 1):
        structure = ("s", "s,s")[int(rng.integers(0, 2))]
        count = structure.count("s")
        names = [list(SERVICE_POOL)[int(rng.integers(0, 5))] for _ in range(count)]
        deadline = int(rng.integers(150_000, 400_000))
        instances.append(
            instance(
                structure, services, names, deadline_ms=deadline, iid=iid,
                penalty_rate=0.1,
            )
        )
    state = optimizer.SchedulingState(
        now_ms=0,
        instances=instances,
        fleet=[],
        services=services,
        vm_types=vm_types,
    )
    config = optimizer.OptimizerConfig(
        weights=MONEY_ONLY, epsilon_ms=30_000, fresh_candidates=2,
    )
    return state, config


def test_ffsipp_never_costs_more_than_baseline_on_same_candidates():
    rng = np.random.default_rng(7)
    for _ in range(50):
        state, config = random_snapshot(rng)
        full = milp.solve(optimizer.build(state, config).problem, gap_tol=1e-9)
        base = milp.solve(
            baseline_mod.build_baseline(state, config).problem, gap_tol=1e-9
        )
        assert full.status == milp.OPTIMAL and base.status == milp.OPTIMAL
        assert full.objective_value <= base.objective_value + 1e-6


# -- 8. worst-case derived values -------------------------------------------


def test_worst_case_reference_values(abc_services):
    pair = instance("s,s", abc_services, ["A", "A"])
    assert remaining_duration(pair, abc_services, 60_000) == 264_000
    single_c = instance("s", abc_services, ["C"])
    assert remaining_duration(single_c, abc_services, 60_000) == 212_000
    single_a = instance("s", abc_services, ["A"])
    assert remaining_duration(single_a, abc_services, 60_000) == 132_000
    deadlined = instance("s", abc_services, ["A"], deadline_ms=1_000_000)
    rs = worstcase.remaining_structure(deadlined, abc_services, 60_000)
    assert rs.step_deadline_ms[0] == 868_000


# -- 9. pyramid arrival pattern ---------------------------------------------


def test_pyramid_counts_and_padding():
    assert sum(sim.arrival_pyramid(n) for n in range(52)) == 99
    simulator = sim.Simulator(load_scenario("pyramid_strict_intense"), "ffsipp", 1)
    simulator._schedule_arrivals()
    issued = sum(
        len(payload[0]) for _, kind, _, payload in simulator._heap if kind == sim.ARRIVAL
    )
    assert issued == 100


# -- 10. determinism --------------------------------------------------------


# The sha256 of every file a smoke run writes. Regenerate only for a
# deliberate change of behaviour, with
#
#     PYTHONPATH=src python -m tests.test_acceptance > tests/data/smoke_output_digests.json
SMOKE_DIGESTS = pathlib.Path(__file__).parent / "data" / "smoke_output_digests.json"


def smoke_output_digests(out: pathlib.Path) -> dict[str, str]:
    """Run smoke, both approaches, seeds 1-2, into ``out``; digest each file."""
    experiment.run_experiment(
        experiment.ExperimentConfig(
            scenario_path="smoke",
            approaches=("ffsipp", "sipp"),
            seeds=(1, 2),
            out_dir=str(out),
        )
    )
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def test_repeated_runs_are_byte_identical(tmp_path):
    first = smoke_output_digests(tmp_path / "first")
    assert first == smoke_output_digests(tmp_path / "second")
    assert first == json.loads(SMOKE_DIGESTS.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(smoke_output_digests(pathlib.Path(tmp)), indent=1))
