"""Each live simulation is pinned by its own model dumps.

Two short runs at seed 1, under both approaches, write the dumps of
``ffsipp run --dump-models``: ``constant_lenient_light`` cut to 10 requests
(``short``), and ``ram_scenario`` (``ram``), the only run that builds RAM rows
and ``fR__`` helpers. Each run is pinned by one sha256 of its dumps in round
order and by its count of rounds without HiGHS; a speed-only change to the
builder must reproduce both. ``CHANGES.md`` tells why and when they moved.
Each dump must load back to the problem its round built, and each HiGHS call
must receive exactly its round's dumped lists: compared with ``assembled()``,
through which the hand-off goes, a fault there would not show.
"""
import dataclasses
import hashlib
import json

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize._highspy import _core

from ffsipp import landscape, milp, optimizer, sim

from .conftest import assert_same_problem, preset_text, problem_from_json, ram_scenario

SEED = 1
OPTIONS = {"output_flag": False, "mip_rel_gap": 0.0, "mip_heuristic_run_feasibility_jump": False}


def short_scenario() -> landscape.Scenario:
    """``constant_lenient_light`` cut to 10 requests."""
    scenario = landscape.parse_scenario(preset_text("constant_lenient_light"))
    scenario.arrival = dataclasses.replace(scenario.arrival, total_requests=10)
    return scenario


SCENARIOS = {"short": short_scenario, "ram": ram_scenario}

# (sha256 of the run's dumps in round order, rounds without HiGHS)
PINNED = {
    ("short", sim.FFSIPP): ("0d8eb83f70057071c59394eefa67c228a1157704d8fdf82cefe8af0907ce836c", 37),
    ("short", sim.SIPP): ("627d5733550eaec0b862f6d186cd55a075e64b947a87f9deb56b9a45c6e7a5ae", 25),
    ("ram", sim.FFSIPP): ("0b0ac73f6657d1e78a046480688bbb84093cabec64b74e7837208a7457ef2a28", 6),
    ("ram", sim.SIPP): ("ac65377a034312e9a1832773c6601324fcced86939cde06605217f93f609a365", 9),
}


class Capture(_core._Highs):
    """A HiGHS instance that records the options set on it and every model
    handed to it, reused the way ``milp`` reuses its own."""

    def __init__(self, built: list):
        super().__init__()
        self.built = built
        self.options = {}
        self.passed = []  # (round index, options, passModel's arguments)

    def resetOptions(self):
        self.options = {}
        return super().resetOptions()

    def setOptionValue(self, name, value):
        self.options[name] = value
        return super().setOptionValue(name, value)

    def passModel(self, *model):
        self.passed.append((len(self.built) - 1, dict(self.options), model))
        return super().passModel(*model)


def assert_hands_over(model: tuple, dump: milp.MilpProblem):
    """``passModel``'s arguments ``model`` hold exactly ``dump``'s lists."""
    (num_col, num_row, _, a_format, sense, offset, cost, lower, upper,
     row_lower, row_upper, start, index, value, integrality) = model
    assert (num_col, num_row) == (dump.num_vars, dump.num_rows)
    assert _core.MatrixFormat(a_format) == _core.MatrixFormat.kRowwise
    assert (_core.ObjSense(sense), offset) == (_core.ObjSense.kMinimize, 0.0)
    for key, got in (("cost", cost), ("lower", lower), ("upper", upper),
                     ("row_lower", row_lower), ("row_upper", row_upper)):
        assert np.array_equal(got, getattr(dump, key)), key
    integer, continuous = int(_core.HighsVarType.kInteger), int(_core.HighsVarType.kContinuous)
    assert list(integrality) == [
        continuous if d == milp.CONTINUOUS else integer for d in dump.domains
    ]
    shape = (num_row, num_col)
    got = sparse.csr_array((value, index, start), shape=shape)
    dumped = sparse.csr_array((dump.data, dump.indices, dump.indptr), shape=shape)
    assert (got != dumped).nnz == 0, "matrix"


@pytest.mark.parametrize("run, approach", sorted(PINNED))
def test_run_is_pinned_by_its_dumps(run, approach, tmp_path, monkeypatch):
    built = []  # each round's problem, in round order

    def recording(state, config, baseline=False, original=optimizer.build):
        model = original(state, config, baseline)
        built.append(model.problem)
        return model

    capture = Capture(built)
    monkeypatch.setattr(optimizer, "build", recording)
    monkeypatch.setattr(milp, "_highs", lambda: capture)
    report = sim.run(SCENARIOS[run](), approach, SEED, dump_dir=tmp_path)
    texts = [path.read_text() for path in sorted(tmp_path.glob("*.json"))]
    assert len(texts) == len(built) == report.rounds
    dumps = []
    for k, (text, problem) in enumerate(zip(texts, built)):
        dumps.append(problem_from_json(text))
        assert_same_problem(problem, dumps[-1])
        assert all(type(v) is float for v in json.loads(text)["data"]), f"round {k + 1}"
    for k, options, model in capture.passed:
        assert options == OPTIONS, f"round {k + 1}"
        assert_hands_over(model, dumps[k])
    solved = {k for k, _, _ in capture.passed}
    assert len(solved) + report.rounds_without_highs == report.rounds
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert (digest, report.rounds_without_highs) == PINNED[run, approach]
