"""The model handed to HiGHS is pinned round by round.

Every model passed to HiGHS during a short simulation is reduced to one
sha256: the objective ``c``, the column bounds, the integrality, the
constraint matrix as CSC with sorted indices (int64 indices, float64 values)
and the row bounds. The options set on HiGHS are hashed apart, into one
digest that every call must match, so a change of the solver's options alone
moves that one digest and leaves the models' alone. A speed-only change to
the model builder must reproduce every digest.

The model digests were re-pinned when the builder stopped emitting rows and
columns that cannot change a round's answer: unweighted free-capacity
helpers, capacity rows without a placement, the per-type BTU totals,
``g - y <= 1`` for leased VMs, lease-coverage rows of placements that end
within the lease, and fresh VMs beyond the ready steps that fit their type.
The options digest moved in the same change, since ``milp.solve`` stopped
passing ``presolve``, which is HiGHS's default. The model digests were
re-pinned again, with the options digest unchanged, when a fresh VM that one
BTU covers lost its use flag ``g``: its lease count ``y`` serves as the flag,
so its ``g <= y`` and ``y <= need*g`` rows and its placements'
lease-coverage rows went, and its link, free-capacity and symmetry rows read
``y``. The options digest alone moved when ``milp.solve`` stopped calling
``scipy.optimize.milp`` for scipy's HiGHS binding, since ``output_flag=False``
joined the options; every model digest held. Regenerate them (only for a
deliberate change of the model or of the options) with

    PYTHONPATH=src python -m tests.test_highs_model > tests/data/highs_model_digests.json
"""
import dataclasses
import hashlib
import json
import pathlib

import numpy as np
from scipy import optimize, sparse
from scipy.optimize._highspy import _core

from ffsipp import landscape, sim

from .conftest import preset_text

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


def round_digests() -> dict:
    """The digest of the options every HiGHS call received, under
    ``"options"``, and the model digest of every call, per approach, in
    round order."""
    scenario = landscape.parse_scenario(preset_text(PRESET))
    scenario.arrival = dataclasses.replace(scenario.arrival, total_requests=REQUESTS)
    original = _core._Highs
    options_seen = set()
    out = {}
    for approach in (sim.FFSIPP, sim.SIPP):
        digests = out.setdefault(approach, [])

        class Capture(original):
            def __init__(self):
                super().__init__()
                self.options = {}

            def setOptionValue(self, name, value):
                self.options[name] = value
                return super().setOptionValue(name, value)

            def passModel(self, lp):
                options_seen.add(options_digest(self.options))
                matrix = lp.a_matrix_
                if matrix.format_ != _core.MatrixFormat.kRowwise:
                    raise ValueError(f"expected a row-wise matrix, got {matrix.format_}")
                a = sparse.csr_array(
                    (matrix.value_, matrix.index_, matrix.start_),
                    shape=(lp.num_row_, lp.num_col_),
                )
                constraints = []
                if lp.num_row_:
                    constraints = [optimize.LinearConstraint(a, lp.row_lower_, lp.row_upper_)]
                digests.append(model_digest(
                    lp.col_cost_,
                    [int(kind) for kind in lp.integrality_],
                    optimize.Bounds(lp.col_lower_, lp.col_upper_),
                    constraints,
                ))
                return super().passModel(lp)

        _core._Highs = Capture
        try:
            sim.run(scenario, approach, SEED)
        finally:
            _core._Highs = original
    if len(options_seen) != 1:
        raise ValueError(f"HiGHS calls received {len(options_seen)} different option sets")
    out["options"] = options_seen.pop()
    return out


def test_every_round_hands_highs_the_recorded_model():
    expected = json.loads(DIGESTS.read_text())
    got = round_digests()
    assert got["options"] == expected["options"], "options"
    for approach in (sim.FFSIPP, sim.SIPP):
        assert len(got[approach]) == len(expected[approach]), approach
        for k, (mine, recorded) in enumerate(zip(got[approach], expected[approach])):
            assert mine == recorded, f"{approach} round {k + 1}"


if __name__ == "__main__":
    print(json.dumps(round_digests(), indent=1))
