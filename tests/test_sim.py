import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ffsipp
from ffsipp import controller, landscape, milp, optimizer, sim
from ffsipp.landscape import RUNNING
from ffsipp.sim import (
    Simulator,
    arrival_pyramid,
    penalty_units,
    sample_cpu,
    sample_duration,
)

from .conftest import instance, preset_text, service


class TestArrivalPyramid:
    def test_spot_values(self):
        assert arrival_pyramid(0) == 1
        assert arrival_pyramid(8) == 3
        assert arrival_pyramid(18) == 0
        assert arrival_pyramid(20) == 1
        assert arrival_pyramid(51) == 3

    def test_sum_is_99(self):
        assert sum(arrival_pyramid(n) for n in range(52)) == 99

    def test_zero_outside_range(self):
        assert arrival_pyramid(52) == 0


class TestSampling:
    def test_duration_truncated_below(self):
        svc = service("A", duration_s=40)
        rng = np.random.default_rng(0)
        draws = [sample_duration(svc, rng) for _ in range(500)]
        assert min(draws) >= 4000
        assert abs(np.mean(draws) - 40_000) < 2000

    def test_cpu_truncated_below(self):
        svc = service("A", cpu=45.0)
        rng = np.random.default_rng(0)
        draws = [sample_cpu(svc, rng) for _ in range(500)]
        assert min(draws) >= 4.5

    def test_cpu_capped_above(self):
        svc = service("A", cpu=92.0)
        rng = np.random.default_rng(0)
        draws = [sample_cpu(svc, rng, 100.0) for _ in range(500)]
        assert max(draws) == 100.0

    def test_draw_above_every_vm_type_is_capped(self):
        # Service A's mean fits p1, the only VM type, but about one draw in
        # five lands above its 100%; seeds 1, 4 and 5 draw one for step 1/0.
        text = preset_text("smoke").replace("cpu: 45", "cpu: 92")
        text = "\n".join(line for line in text.splitlines() if "name: a2" not in line)
        sc = landscape.parse_scenario(text)
        for seed in range(1, 6):
            report = sim.run(sc, sim.FFSIPP, seed)
            assert len(report.records) == sc.arrival.total_requests


class TestPenaltyUnits:
    def window_instance(self, abc_services):
        return instance("s", abc_services, ["A"], deadline_ms=360_000)

    def test_on_time_is_free(self, abc_services):
        inst = self.window_instance(abc_services)
        assert penalty_units(inst, 360_000) == 0

    def test_fraction_policy(self, abc_services):
        inst = self.window_instance(abc_services)
        assert penalty_units(inst, 396_000) == 1
        assert penalty_units(inst, 397_000) == 2

    def test_per_10s_policy(self, abc_services):
        inst = self.window_instance(abc_services)
        assert penalty_units(inst, 370_000, policy="per_10s") == 1
        assert penalty_units(inst, 380_001, policy="per_10s") == 3


class TestEndToEnd:
    def test_smoke_run_completes_all_instances(self, smoke_scenario):
        rep = sim.run(smoke_scenario, "ffsipp", 1)
        assert len(rep.records) == smoke_scenario.arrival.total_requests
        assert rep.verified_plans == rep.rounds - rep.fallbacks
        assert rep.total_cost == rep.leasing_cost + rep.penalty_cost
        assert rep.makespan_min > 0

    def test_usage_series_shape(self, smoke_scenario):
        rep = sim.run(smoke_scenario, "ffsipp", 1)
        minutes = [m for m, _, _ in rep.usage_series]
        assert minutes == list(range(len(minutes)))
        assert all(cores >= 0 for _, cores, _ in rep.usage_series)

    def test_baseline_smoke_run(self, smoke_scenario):
        rep = sim.run(smoke_scenario, "sipp", 1)
        assert len(rep.records) == smoke_scenario.arrival.total_requests
        assert rep.verified_plans == rep.rounds - rep.fallbacks

    def test_deterministic_reruns(self, smoke_scenario):
        a = sim.run(smoke_scenario, "ffsipp", 3)
        b = sim.run(smoke_scenario, "ffsipp", 3)
        assert a.audit_log == b.audit_log
        assert [(r.instance_id, r.finish_ms) for r in a.records] == [
            (r.instance_id, r.finish_ms) for r in b.records
        ]
        assert a.total_cost == b.total_cost

    def test_seeds_differ(self, smoke_scenario):
        a = sim.run(smoke_scenario, "ffsipp", 1)
        b = sim.run(smoke_scenario, "ffsipp", 2)
        assert a.audit_log != b.audit_log

    @pytest.mark.parametrize("approach", [sim.FFSIPP, sim.SIPP])
    def test_planning_rate_defaults_to_100_per_s(self, smoke_scenario, approach):
        text = preset_text("smoke").replace(", planning_rate_per_s: 100", "")
        assert "planning_rate" not in text
        a, b = (sim.run(sc, approach, 1) for sc in (smoke_scenario, landscape.parse_scenario(text)))
        for field in ("audit_log", "usage_series", "total_cost"):
            assert getattr(b, field) == getattr(a, field), field

    def test_unknown_approach_rejected(self, smoke_scenario):
        with pytest.raises(ValueError):
            Simulator(smoke_scenario, "greedy", 1)

    def test_plan_violating_its_model_is_refused(self, smoke_scenario, monkeypatch):
        violation = milp.Violation(0, None, 1.0, "constraint")
        monkeypatch.setattr(milp, "verify", lambda problem, values: [violation])
        with pytest.raises(sim.InvariantError, match="violates its model"):
            sim.run(smoke_scenario, "ffsipp", 1)

    def test_oversized_container_is_refused(self, smoke_scenario, monkeypatch):
        transform = controller.transform

        def oversize_first_container(plan):
            cplan = transform(plan)
            if cplan.containers:
                cplan.containers[0].cpu_size = 1e9  # beyond every VM type's supply
            return cplan

        monkeypatch.setattr(controller, "transform", oversize_first_container)
        with pytest.raises(sim.InvariantError, match="over .*capacity"):
            sim.run(smoke_scenario, "ffsipp", 1)

    def test_round_without_incumbent_falls_back(self, smoke_scenario, monkeypatch):
        solve, calls = milp.solve, []

        def no_incumbent_in_third_solve(problem, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                return milp.MilpSolution(milp.TIME_LIMIT, None, None, None)
            return solve(problem, **kwargs)

        monkeypatch.setattr(milp, "solve", no_incumbent_in_third_solve)
        rep = sim.run(smoke_scenario, "ffsipp", 1)
        assert rep.fallbacks == 1
        assert sum("\tfallback_postpone\t" in line for line in rep.audit_log) == 1
        assert rep.verified_plans == rep.rounds - 1
        assert len(rep.records) == smoke_scenario.arrival.total_requests

    def test_infeasible_round_is_an_error(self, smoke_scenario, monkeypatch):
        # Postponing everything is always feasible, so an infeasible round
        # must end the run instead of postponing it forever. Rounds that
        # FfsippModel.postponed decides never reach milp.solve, so the error
        # names the first round that does.
        calls, round_start, clocks = [], Simulator._round, []

        def always_infeasible(problem, **kwargs):
            calls.append(1)
            if len(calls) > 3:
                raise RuntimeError("the run kept postponing an infeasible round")
            return milp.MilpSolution(milp.INFEASIBLE, None, None, None)

        def clocked_round(self):
            clocks.append(self.clock)
            return round_start(self)

        monkeypatch.setattr(milp, "solve", always_infeasible)
        monkeypatch.setattr(Simulator, "_round", clocked_round)
        with pytest.raises(sim.InvariantError) as raised:
            sim.run(smoke_scenario, "ffsipp", 1)
        assert len(calls) == 1 and len(clocks) > 1
        assert str(raised.value) == f"round at {clocks[-1]} ms (ffsipp) is infeasible"

    def test_rounds_without_highs_are_counted(self, smoke_scenario, monkeypatch):
        solve, calls = milp.solve, []

        def counted(problem, **kwargs):
            calls.append(1)
            return solve(problem, **kwargs)

        monkeypatch.setattr(milp, "solve", counted)
        rep = sim.run(smoke_scenario, "ffsipp", 1)
        assert 0 < rep.rounds_without_highs == rep.rounds - len(calls)

    def test_certified_round_is_floored_and_verified_once(self, smoke_scenario, monkeypatch):
        # postponed sets the helpers at their floors and verifies the point;
        # neither decode nor the simulator does either again in that round,
        # and the plan carries the verified point.
        model_cls = optimizer.FfsippModel
        postponed, decode, floor = model_cls.postponed, model_cls.decode, model_cls._floor
        verify, certified, again, plans = milp.verify, [], [], []

        def checked(model):
            solution = postponed(model)
            if solution is not None:
                certified.append((model, solution, solution.values.tolist()))
            return solution

        def decoded(model, solution):
            plan = decode(model, solution)
            plans.extend((plan.milp_values, v) for _, s, v in certified if s is solution)
            return plan

        def floored(model, *args):
            again.extend("floor" for m, _, _ in certified if m is model)
            return floor(model, *args)

        def verifying(problem, values):
            again.extend("verify" for m, _, _ in certified if m.problem is problem)
            return verify(problem, values)

        monkeypatch.setattr(model_cls, "postponed", checked)
        monkeypatch.setattr(model_cls, "decode", decoded)
        monkeypatch.setattr(model_cls, "_floor", floored)
        monkeypatch.setattr(milp, "verify", verifying)
        rep = sim.run(smoke_scenario, "ffsipp", 1)
        assert len(certified) == len(plans) == rep.rounds_without_highs > 0
        assert again == []
        assert all(decoded_point == verified_point for decoded_point, verified_point in plans)
        assert rep.verified_plans == rep.rounds - rep.fallbacks


class TestRunningRecord:
    @pytest.mark.parametrize("approach", ["ffsipp", "sipp"])
    def test_snapshot_lists_exactly_the_running_steps(self, smoke_scenario, approach, monkeypatch):
        snapshot, listed_per_round = Simulator._snapshot, []

        def checked_snapshot(self):
            state = snapshot(self)
            listed = [(iid, j) for vm in state.fleet for iid, j, _ in vm.running_steps]
            running = [
                (inst.id, j)
                for inst in state.instances
                for j, step in enumerate(inst.steps)
                if step.status == RUNNING
            ]
            assert sorted(listed) == sorted(running)
            assert all(rem > 0 for vm in state.fleet for _, _, rem in vm.running_steps)
            listed_per_round.append(len(listed))
            return state

        monkeypatch.setattr(Simulator, "_snapshot", checked_snapshot)
        sim.run(smoke_scenario, approach, 1)
        assert any(listed_per_round), "no round saw a running step"

    @pytest.mark.parametrize("approach", ["ffsipp", "sipp"])
    @pytest.mark.parametrize("preset, requests", [("smoke", None), ("constant_lenient_light", 10)])
    def test_containers_hold_exactly_their_running_invocations(
        self, preset, requests, approach, monkeypatch
    ):
        # plan_actions resizes only a container that gains invocations; this
        # is the fact that makes that enough.
        round_, checked = Simulator._round, []

        def check(self):
            for vm in self.vms.values():
                for cont in vm.containers.values():
                    steps = [self.instances[iid].steps[j] for iid, j in cont.invocations]
                    assert cont.cpu_size == pytest.approx(
                        sum(s.cpu_demand for s in steps), rel=0, abs=1e-9
                    )
                    assert cont.ram_size == pytest.approx(
                        sum(s.ram_demand for s in steps), rel=0, abs=1e-9
                    )
                    checked.append(len(steps))

        def checked_round(self):
            check(self)
            round_(self)
            check(self)

        monkeypatch.setattr(Simulator, "_round", checked_round)
        scenario = landscape.parse_scenario(preset_text(preset))
        if requests:
            scenario.arrival = dataclasses.replace(scenario.arrival, total_requests=requests)
        report = sim.run(scenario, approach, 1)
        assert any(checked), "no round saw a running invocation"
        lines = [line.split("\t") for line in report.audit_log]

        def targets(action):
            return {(t, target) for t, kind, target, _ in lines if kind == action}

        assert targets(controller.RESIZE_CONTAINER) <= targets(controller.INVOKE_SERVICE)

    @pytest.mark.parametrize("corruption", ["late", "other_vm"])
    def test_finish_must_match_the_record(self, smoke_scenario, monkeypatch, corruption):
        push, corrupted = Simulator._push, []

        def corrupt_first_finish(self, time_ms, kind, payload=()):
            if kind == sim.STEP_FINISHED and not corrupted:
                corrupted.append(payload)
                iid, j, vm_id = payload
                if corruption == "late":
                    time_ms += 1
                else:
                    payload = (iid, j, vm_id + "_other")
            push(self, time_ms, kind, payload)

        monkeypatch.setattr(Simulator, "_push", corrupt_first_finish)
        with pytest.raises(sim.InvariantError, match="not due to finish"):
            sim.run(smoke_scenario, "ffsipp", 1)
        assert corrupted


class TestInvariants:
    def test_capacity_check_survives_optimize(self):
        # Under python -O a bare assert is gone; the invariant must still raise.
        code = """
import sys
from ffsipp import landscape, sim
simulator = sim.Simulator(landscape.parse_scenario(sys.stdin.read()), "ffsipp", 1)
vt = simulator.sc.vm_types["p1"]
vm = sim.VmRuntime(id="vm1", type_id="p1", lease_end_ms=1, ready_at_ms=0)
vm.containers["A"] = sim.Container(vt.cpu_supply + 1.0, 0.0)
simulator.vms["vm1"] = vm
try:
    simulator._assert_capacity()
except sim.InvariantError as exc:
    print("raised:", exc)
"""
        src = str(pathlib.Path(ffsipp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, input=preset_text("smoke"),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert proc.stdout.strip() == "raised: vm1 over CPU capacity"


class TestSingleStepBilling:
    def test_one_btu_of_cheapest_vm(self, abc_services):
        import textwrap

        from ffsipp.landscape import parse_scenario

        text = textwrap.dedent(
            """
            btu_seconds: 300
            epsilon_ms: 30000
            services:
              - {name: A, cpu: 45, ram: 0, duration_s: 40, pull_s: 30, start_s: 2}
            vm_types:
              - {name: p1, cores: 1, cost_per_btu: 10, startup_s: 60, pool_limit: 2}
              - {name: a2, cores: 2, cost_per_btu: 25, startup_s: 60}
            models:
              - {id: 1, structure: "s"}
            arrival: {kind: constant, interval_s: 60, total_requests: 1}
            sla: {factor: 2.5, penalty_policy: fraction, planning_rate_per_s: 100}
            weights: {dl: 0.001, d: 0.0001, f_cpu: 0.01, f_ram: 0, z: 1}
            solver: {fresh_candidates: 1}
            """
        )
        rep = sim.run(parse_scenario(text), "ffsipp", 1)
        assert rep.leasing_cost == 10.0
        assert rep.penalty_cost == 0.0
        assert len(rep.records) == 1 and rep.records[0].delay_ms == 0
