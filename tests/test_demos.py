"""The demos run end to end, so an API change cannot silently break them."""
import os
import pathlib
import subprocess
import sys

import pytest

import ffsipp

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"
SRC = pathlib.Path(ffsipp.__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo, expected",
    [
        ("solve_one_round.py", ("objective:", "leases:", "action: Action(kind='lease_vm'")),
        ("run_simulation.py", ("ffsipp: adherence", "sipp: adherence")),
        ("run_experiment.py", ("--- metrics.csv ---", "--- aggregate.csv ---")),
    ],
)
def test_demo_runs(demo, expected, tmp_path):
    # TMPDIR keeps run_experiment.py's mkdtemp output inside tmp_path.
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    for text in expected:
        assert text in proc.stdout
