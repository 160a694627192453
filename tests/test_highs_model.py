"""The model handed to HiGHS is pinned round by round.

Every call of ``scipy.optimize.milp`` during a short simulation is reduced to
one sha256 over what the call receives: the objective ``c``, the column
bounds, the integrality, the constraint matrix as CSC with sorted indices
(int64 indices, float64 values), the row bounds and the options. A speed-only
change to the model builder must reproduce every digest.

The digests were first recorded with the model builder that assembled a
dense rows x vars array. The options are part of each digest, so switching
feasibility jump off in ``milp.solve`` moved every one of them; with the
options left out, every round matched the dense builder's until the sipp run's
plans parted at round 59. Regenerate them (only for a deliberate change of the
model or of the options) with

    PYTHONPATH=src python -m tests.test_highs_model > tests/data/highs_model_digests.json
"""
import dataclasses
import hashlib
import json
import pathlib

import numpy as np
from scipy import optimize, sparse

from ffsipp import landscape, sim

from .conftest import preset_text

DIGESTS = pathlib.Path(__file__).parent / "data" / "highs_model_digests.json"
PRESET = "constant_lenient_light"
REQUESTS = 10
SEED = 1


def model_digest(c, integrality, bounds, constraints, options) -> str:
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
    h.update(repr(sorted((options or {}).items())).encode())
    return h.hexdigest()


def round_digests() -> dict[str, list[str]]:
    """Digest of every HiGHS call, per approach, in round order."""
    scenario = landscape.parse_scenario(preset_text(PRESET))
    scenario.arrival = dataclasses.replace(scenario.arrival, total_requests=REQUESTS)
    original = optimize.milp
    out = {}
    for approach in (sim.FFSIPP, sim.SIPP):
        digests = out.setdefault(approach, [])

        def capture(c, *, integrality=None, bounds=None, constraints=None, options=None):
            digests.append(model_digest(c, integrality, bounds, constraints, options))
            return original(
                c, integrality=integrality, bounds=bounds, constraints=constraints,
                options=options,
            )

        optimize.milp = capture
        try:
            sim.run(scenario, approach, SEED)
        finally:
            optimize.milp = original
    return out


def test_every_round_hands_highs_the_recorded_model():
    expected = json.loads(DIGESTS.read_text())
    got = round_digests()
    for approach in (sim.FFSIPP, sim.SIPP):
        assert len(got[approach]) == len(expected[approach]), approach
        for k, (mine, recorded) in enumerate(zip(got[approach], expected[approach])):
            assert mine == recorded, f"{approach} round {k + 1}"


if __name__ == "__main__":
    print(json.dumps(round_digests(), indent=1))
