"""The round model is pinned round by round.

Every model built during a short simulation is reduced to one sha256: the
objective ``c``, the column bounds, the integrality, the constraint matrix as
CSC with sorted indices (int64 indices, float64 values) and the row bounds.
Every round's model is hashed, also in a round that ``FfsippModel.postponed``
decides without HiGHS; the test pins how many rounds do so. In the rounds
that still call HiGHS, the arrays it receives must carry the matrix
row-wise and hash to that round's built model, and every round either
reaches HiGHS or is counted as skipped. The options set on HiGHS are hashed
apart, into one digest that every call must match, so a change of the
solver's options alone moves that one digest and leaves the models' alone.
A speed-only change to the model builder must reproduce every digest.

Two simulations are pinned: ``constant_lenient_light`` cut to 10 requests,
under the top-level keys, and smoke with service A demanding 512 MB of RAM
and free RAM priced (``weights.f_ram``), under ``"ram"``; no bundled preset
has RAM demand, so only the second run builds RAM capacity rows and ``fR__``
helpers. Why and when the digests were re-pinned is told in ``CHANGES.md``.
Regenerate them (only for a deliberate change of the model or of the
options) with

    PYTHONPATH=src python -m tests.test_highs_model > tests/data/highs_model_digests.json

which also prints, on stderr, the counts of rounds without HiGHS to pin in
``ROUNDS_WITHOUT_HIGHS`` and ``RAM_ROUNDS_WITHOUT_HIGHS``.
"""
import dataclasses
import hashlib
import json
import pathlib
import sys

import numpy as np
import yaml
from scipy import optimize, sparse
from scipy.optimize._highspy import _core

from ffsipp import landscape, milp, optimizer, sim

from .conftest import preset_text, sparse_matrix

DIGESTS = pathlib.Path(__file__).parent / "data" / "highs_model_digests.json"
PRESET = "constant_lenient_light"
REQUESTS = 10
SEED = 1


def options_digest(options) -> str:
    return hashlib.sha256(repr(sorted((options or {}).items())).encode()).hexdigest()


def model_digest(c, integrality, bounds, constraints) -> str:
    h = hashlib.sha256()

    def put(values, dtype, size=None):
        array = np.asarray(values, dtype=dtype)
        if size is not None:
            array = np.broadcast_to(array, (size,))
        h.update(np.ascontiguousarray(array).tobytes())

    n = len(c)
    put(c, np.float64)
    put(bounds.lb, np.float64, n)
    put(bounds.ub, np.float64, n)
    put(integrality, np.int64, n)
    for con in constraints or ():
        a = sparse.csc_array(con.A).sorted_indices()
        h.update(repr(a.shape).encode())
        put(a.indptr, np.int64)
        put(a.indices, np.int64)
        put(a.data, np.float64)
        put(con.lb, np.float64, a.shape[0])
        put(con.ub, np.float64, a.shape[0])
    return h.hexdigest()


# Rounds of each run that ``FfsippModel.postponed`` decides without HiGHS.
ROUNDS_WITHOUT_HIGHS = {sim.FFSIPP: 37, sim.SIPP: 25}
RAM_ROUNDS_WITHOUT_HIGHS = {sim.FFSIPP: 6, sim.SIPP: 9}


def short_scenario() -> landscape.Scenario:
    """``PRESET`` cut to ``REQUESTS`` requests."""
    scenario = landscape.parse_scenario(preset_text(PRESET))
    scenario.arrival = dataclasses.replace(scenario.arrival, total_requests=REQUESTS)
    return scenario


def ram_scenario() -> landscape.Scenario:
    """Smoke with service A at 512 MB of RAM and free RAM priced."""
    raw = yaml.safe_load(preset_text("smoke"))
    raw["services"][0]["ram"] = 512
    raw["weights"]["f_ram"] = 0.001
    return landscape.parse_scenario(yaml.safe_dump(raw))


def round_digests(scenario: landscape.Scenario) -> tuple[dict, dict]:
    """The digest of the options every HiGHS call received, under
    ``"options"``, and the model digest of every round's built model, per
    approach, in round order; then, per approach, how many rounds skipped
    HiGHS. Raises ``ValueError`` if HiGHS receives a matrix that is not
    row-wise, or a model other than its round's built one, or if a round
    neither reaches HiGHS nor counts as skipped."""
    options_seen = set()

    class Capture(_core._Highs):
        """One instance, reused the way ``milp`` reuses its own."""

        def __init__(self):
            super().__init__()
            self.options = {}

        def resetOptions(self):
            self.options = {}
            return super().resetOptions()

        def setOptionValue(self, name, value):
            self.options[name] = value
            return super().setOptionValue(name, value)

        def passModel(self, *model):
            options_seen.add(options_digest(self.options))
            (num_col, num_row, _, a_format, sense, offset, cost, lower, upper,
             row_lower, row_upper, start, index, value, integrality) = model
            if _core.MatrixFormat(a_format) != _core.MatrixFormat.kRowwise:
                raise ValueError(f"expected a row-wise matrix, got {_core.MatrixFormat(a_format)}")
            if (_core.ObjSense(sense), offset) != (_core.ObjSense.kMinimize, 0.0):
                raise ValueError(f"expected to minimise without offset, got {sense}, {offset}")
            constraints = []
            if num_row:
                a = sparse.csr_array((value, index, start), shape=(num_row, num_col))
                constraints = [optimize.LinearConstraint(a, row_lower, row_upper)]
            approach, k = built_last[-1]
            passed.append((approach, k, model_digest(
                cost, integrality, optimize.Bounds(lower, upper), constraints
            )))
            return super().passModel(*model)

    out = {sim.FFSIPP: [], sim.SIPP: []}
    built_last = []  # (approach, round index) of the latest built model
    passed = []  # (approach, round index, digest) of every model HiGHS received

    def recording(build):
        def built(state, config, baseline=False):
            model = build(state, config, baseline)
            problem = model.problem
            constraints = []
            if problem.num_rows:
                constraints = [optimize.LinearConstraint(
                    sparse_matrix(problem), problem.row_lower, problem.row_upper
                )]
            approach = sim.SIPP if model.baseline else sim.FFSIPP
            built_last.append((approach, len(out[approach])))
            out[approach].append(model_digest(
                problem.cost,
                problem.integral().astype(np.int64),
                optimize.Bounds(problem.lower, problem.upper),
                constraints,
            ))
            return model

        return built

    build, original, capture = optimizer.build, milp._highs, Capture()
    milp._highs = lambda: capture
    optimizer.build = recording(build)
    try:
        skipped = {a: sim.run(scenario, a, SEED).rounds_without_highs for a in out}
    finally:
        milp._highs = original
        optimizer.build = build
    if len(options_seen) != 1:
        raise ValueError(f"HiGHS calls received {len(options_seen)} different option sets")
    for approach, k, digest in passed:
        if digest != out[approach][k]:
            raise ValueError(f"{approach} round {k + 1}: HiGHS received another model than built")
    for approach, rounds in out.items():
        solved = {k for a, k, _ in passed if a == approach}
        if len(solved) + skipped[approach] != len(rounds):
            raise ValueError(
                f"{approach}: {len(solved)} rounds reached HiGHS and {skipped[approach]}"
                f" skipped it, of {len(rounds)}"
            )
    out["options"] = options_seen.pop()
    return out, skipped


def check_digests(scenario: landscape.Scenario, expected: dict, rounds_without_highs: dict):
    got, skipped = round_digests(scenario)
    assert got["options"] == expected["options"], "options"
    for approach in (sim.FFSIPP, sim.SIPP):
        assert len(got[approach]) == len(expected[approach]), approach
        for k, (mine, recorded) in enumerate(zip(got[approach], expected[approach])):
            assert mine == recorded, f"{approach} round {k + 1}"
    assert skipped == rounds_without_highs


def test_every_round_hands_highs_the_recorded_model():
    check_digests(short_scenario(), json.loads(DIGESTS.read_text()), ROUNDS_WITHOUT_HIGHS)


def test_ram_rows_hand_highs_the_recorded_model():
    check_digests(ram_scenario(), json.loads(DIGESTS.read_text())["ram"], RAM_ROUNDS_WITHOUT_HIGHS)


if __name__ == "__main__":
    digests, skipped = round_digests(short_scenario())
    digests["ram"], ram_skipped = round_digests(ram_scenario())
    print(json.dumps(digests, indent=1))
    print(f"ROUNDS_WITHOUT_HIGHS = {skipped}", file=sys.stderr)
    print(f"RAM_ROUNDS_WITHOUT_HIGHS = {ram_skipped}", file=sys.stderr)
