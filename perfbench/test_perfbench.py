"""Tests of the benchmark itself. Run with ``python3 -m pytest perfbench``."""
from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import snapshots  # noqa: E402
import workloads  # noqa: E402
from ffsipp import baseline, experiment, landscape, milp, optimizer  # noqa: E402
from ffsipp.landscape import RUNNING  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def snaps():
    return snapshots.generate(SEED)


def _canonical(snap: snapshots.Snapshot) -> str:
    state = snap.state
    instances = [
        (
            inst.id,
            inst.model.id,
            inst.arrival_ms,
            inst.deadline_ms,
            inst.penalty_rate,
            sorted(inst.xor_choices.items()),
            sorted(inst.loop_planned.items()),
            [(s.status, s.cpu_demand, s.expected_ms, s.remaining_ms, s.runs) for s in inst.steps],
        )
        for inst in state.instances
    ]
    return repr((snap.preset, state.now_ms, instances, state.fleet))


def test_same_seed_gives_identical_snapshots(snaps):
    again = snapshots.generate(SEED)
    assert [_canonical(s) for s in again] == [_canonical(s) for s in snaps]
    other = snapshots.generate(SEED + 1)
    assert [_canonical(s) for s in other] != [_canonical(s) for s in snaps]


def test_snapshot_invariants(snaps):
    assert len(snaps) * len(workloads.APPROACHES) >= 200
    sizes = [len(s.state.instances) for s in snaps]
    assert min(sizes) == 1 and max(sizes) == 40
    for snap in snaps:
        state = snap.state
        ready_waiting = 0
        for inst in state.instances:
            assert not inst.done
            ready = landscape.next_steps(inst)
            ready_waiting += sum(inst.steps[j].status != RUNNING for j in ready)
        assert ready_waiting >= 1, "a round needs a schedulable step"

        per_type: dict[str, int] = {}
        on_vms = set()
        by_id = {inst.id: inst for inst in state.instances}
        for vm in state.fleet:
            vt = state.vm_types[vm.type_id]
            per_type[vt.id] = per_type.get(vt.id, 0) + 1
            assert 0 < vm.lease_remaining_ms < 2 * vt.btu_ms
            if vm.offered_service is not None:
                assert vm.offered_service in vm.cached_images
            if vm.ready_in_ms:
                assert not vm.running_steps
            cpu = 0.0
            for iid, j, remaining in vm.running_steps:
                step = by_id[iid].steps[j]
                assert step.status == RUNNING and step.assigned_vm == vm.id
                assert step.service == vm.offered_service, "valid for sipp too"
                assert 0 < remaining <= step.expected_ms
                cpu += step.cpu_demand
                on_vms.add((iid, j))
            assert cpu <= vt.cpu_supply
        for type_id, count in per_type.items():
            limit = state.vm_types[type_id].pool_limit
            assert limit is None or count <= limit
        running = {
            (inst.id, j)
            for inst in state.instances
            for j, step in enumerate(inst.steps)
            if step.status == RUNNING
        }
        assert running == on_vms


def test_unit_count_follows_seconds_only():
    for workload in workloads.WORKLOADS:
        assert workloads.unit_count(workload, 0.5) == 1
        unit = workloads.UNIT_S[workload]
        assert workloads.unit_count(workload, 3 * unit + 0.1) == 3


def test_replay_round_that_raises_is_counted(monkeypatch, snaps):
    few = snaps[:3]
    original = milp.solve
    calls = []

    def flaky(problem, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("boom\nsecond line")
        return original(problem, **kwargs)

    monkeypatch.setattr(milp, "solve", flaky)
    unit = workloads.replay_unit(few, SEED)
    assert unit.rounds == 6 and len(unit.round_ms) == 6
    assert unit.rounds_failed == 1
    (failure,) = unit.failures
    assert (failure.approach, failure.round, failure.error) == (
        "sipp",
        few[0].index,
        "RuntimeError: boom",
    )
    assert not unit.check_errors


def test_sim_run_that_raises_is_counted(monkeypatch):
    scenario = experiment.load_scenario(experiment.ExperimentConfig("smoke"))
    original = optimizer.FfsippModel.decode
    decodes = []

    def flaky(self, solution):
        decodes.append(1)
        if not self.baseline and len(decodes) == 3:
            raise ValueError("decode refused")
        return original(self, solution)

    monkeypatch.setattr(optimizer.FfsippModel, "decode", flaky)
    unit = workloads._sim_unit("smoke", scenario, SEED)
    ffsipp_run, sipp_run = unit.runs
    assert ffsipp_run.failure is not None and ffsipp_run.failure.round == 3
    assert ffsipp_run.run_s is None and ffsipp_run.total_cost is None
    assert sipp_run.failure is None and sipp_run.run_s > 0
    assert unit.rounds_failed == 1 and len(unit.round_ms) == unit.rounds
    assert len(unit.round_scale) == unit.rounds
    assert not unit.check_errors


def test_tracer_restores_program_and_keeps_plans(snaps):
    few = snaps[:4]
    originals = (optimizer.build, baseline.build_baseline, milp.solve, optimizer.FfsippModel.decode)
    plain = workloads.replay_unit(few, SEED)
    with Tracer() as tracer:
        assert optimizer.build is not originals[0]
        traced = workloads.replay_unit(few, SEED)
    assert (optimizer.build, baseline.build_baseline, milp.solve, optimizer.FfsippModel.decode) == originals
    assert traced.digest == plain.digest
    assert len(tracer.rounds) == traced.rounds
    metrics = tracer.metrics(sum(traced.round_ms) / 1000.0, in_sim=False)
    for layer in LAYERS:
        assert metrics[f"{layer}.ms_p50"][0] >= 0.0
    assert metrics["highs.share_pct"][0] > 0.0
    assert metrics["model.vars_p50"][0] > 0
