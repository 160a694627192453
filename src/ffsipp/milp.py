"""Generic mixed-integer linear programs: model, solver, verifier.

A ``MilpProblem`` addresses columns and rows by integer index, in creation
order. ``solve`` hands its arrays, through ``run_highs``, to HiGHS by
scipy's bundled binding: NumPy arrays, the matrix row-wise, passed as they
are to one HiGHS instance per thread.
"""
from __future__ import annotations

import json
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

# scipy's bundled binding of HiGHS. It is private API, so pyproject.toml
# bounds scipy to the series it was tested on, and a test holds it to
# scipy.optimize.milp.
from scipy.optimize._highspy import _core

FEAS_TOL = 1e-6
# A solve whose incumbent lies further than this (relative) above its dual
# bound is reported as GAP_LIMIT rather than OPTIMAL.
OPTIMAL_GAP = 1e-9

CONTINUOUS = "continuous"
INTEGER = "integer"
BOOLEAN = "boolean"

_DOMAINS = frozenset((CONTINUOUS, INTEGER, BOOLEAN))
_INF = math.inf
_NEG_INF = -math.inf

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
TIME_LIMIT = "time_limit"
GAP_LIMIT = "gap_limit"

_MODEL = _core.HighsModelStatus
_LIMITS = frozenset((_MODEL.kTimeLimit, _MODEL.kIterationLimit, _MODEL.kSolutionLimit))
_ROWWISE = int(_core.MatrixFormat.kRowwise)
_MINIMIZE = int(_core.ObjSense.kMinimize)
_INTEGER_COL = int(_core.HighsVarType.kInteger)
_CONTINUOUS_COL = int(_core.HighsVarType.kContinuous)


@dataclass(frozen=True)
class Assembled:
    """A ``MilpProblem``'s columns' integrality and bounds, its row bounds
    and its constraint matrix, rows by columns, as CSR arrays without
    explicit zeros: the form HiGHS takes them in."""

    integral: np.ndarray  # bool mask of the integer columns
    integrality: np.ndarray  # int32 HiGHS variable type per column
    lower: np.ndarray  # float64 column bounds
    upper: np.ndarray
    row_lower: np.ndarray  # float64 row bounds
    row_upper: np.ndarray
    start: np.ndarray  # int32 row starts
    index: np.ndarray  # int32 column of each term
    value: np.ndarray  # float64 coefficient of each term
    row: np.ndarray  # row of each term, for row sums by np.bincount


class MilpProblem:
    """Minimise ``cost @ x`` subject to bounds on each row of
    ``A @ x`` and bounds and integrality on each column of ``x``.

    Columns carry parallel lists of name, domain, bounds and cost. Rows
    are added one at a time by ``add_row``, which appends each straight
    into CSR arrays (``indptr``, ``indices``, ``data``) and its bounds into
    ``row_lower`` and ``row_upper``. Column names are metadata, read only
    by ``to_json`` and error messages; rows are known by index. All of it
    is append-only except the costs, which callers set after adding a
    column.
    """

    def __init__(self):
        self.names: list[str] = []
        self.domains: list[str] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.cost: list[float] = []
        self.row_lower: list[float] = []
        self.row_upper: list[float] = []
        self.indptr: list[int] = [0]
        self.indices: list[int] = []
        self.data: list[float] = []
        self._cache = None

    @property
    def num_vars(self) -> int:
        return len(self.names)

    @property
    def num_rows(self) -> int:
        return len(self.row_lower)

    def add_var(
        self,
        name: str,
        domain: str = CONTINUOUS,
        lower: float = 0.0,
        upper: float = math.inf,
    ) -> int:
        """Append a column, with cost 0, and return its index."""
        if domain not in _DOMAINS:
            raise ValueError(f"unknown domain {domain!r}")
        if domain == BOOLEAN and upper == _INF:
            upper = 1.0
        if lower > upper:
            raise ValueError(f"{name}: lower {lower} > upper {upper}")
        if domain == BOOLEAN and not (0 <= lower and upper <= 1):
            raise ValueError(f"{name}: boolean bounds outside [0,1]")
        self.names.append(name)
        self.domains.append(domain)
        self.lower.append(lower)
        self.upper.append(upper)
        self.cost.append(0.0)
        return len(self.names) - 1

    def add_vars(
        self, names: list[str], domain: str, lower: float = 0.0, upper: float = math.inf
    ) -> int:
        """Append one column per name, as ``add_var`` would one by one, all
        with the same domain and bounds, and return the first's index."""
        if names:
            self.add_var(names[0], domain, lower, upper)
            first = len(self.names) - 1
            n = len(names) - 1
            self.names += names[1:]
            self.domains += [domain] * n
            self.lower += [self.lower[first]] * n
            self.upper += [self.upper[first]] * n
            self.cost += [0.0] * n
            return first
        return len(self.names)

    def add_row(self, cols, coefs, lower: float, upper: float) -> int:
        """Append the row ``lower <= sum(coefs[k] * x[cols[k]]) <= upper``,
        with ``-inf`` or ``inf`` for an open side, and return its index. A
        column appears at most once per row. Terms are kept as given, zero
        coefficients too, and ``to_json`` writes them so; ``assembled``
        drops the zeros. Nothing is appended if ``cols`` and ``coefs``
        differ in length."""
        if len(cols) != len(coefs):
            raise ValueError(f"{len(cols)} columns and {len(coefs)} coefficients")
        self.indices += cols
        self.data += coefs
        self.indptr.append(len(self.indices))
        self.row_lower.append(lower)
        self.row_upper.append(upper)
        return len(self.row_lower) - 1

    def integral(self) -> np.ndarray:
        """Mask of the columns with an integer domain (shared: do not modify)."""
        return self.assembled().integral

    def activity(self, x: np.ndarray) -> np.ndarray:
        """``A @ x``: each row's terms summed in the order they were added."""
        a = self.assembled()
        return np.bincount(a.row, weights=a.value * x[a.index], minlength=self.num_rows)

    def assembled(self) -> Assembled:
        """The integrality, bound and matrix arrays, made once per model
        (shared: do not modify). Costs are not among them: callers set a
        column's cost after adding it, so costs are read on each use."""
        # Columns and rows, with their bounds, are append-only, so their
        # counts identify them.
        key = (len(self.names), len(self.row_lower), len(self.data))
        if self._cache is None or self._cache[0] != key:
            integral = np.array([d != CONTINUOUS for d in self.domains], dtype=bool)
            start = np.array(self.indptr, dtype=np.int32)
            index = np.array(self.indices, dtype=np.int32)
            value = np.array(self.data, dtype=np.float64)
            row = np.repeat(np.arange(self.num_rows), np.diff(start))
            keep = value != 0.0
            if not keep.all():
                # kept[k]: how many of the first k terms are kept
                kept = np.zeros(len(value) + 1, dtype=np.int32)
                np.cumsum(keep, out=kept[1:])
                start, index, value, row = kept[start], index[keep], value[keep], row[keep]
            self._cache = (key, Assembled(
                integral=integral,
                integrality=np.where(integral, _INTEGER_COL, _CONTINUOUS_COL).astype(np.int32),
                lower=np.array(self.lower, dtype=np.float64),
                upper=np.array(self.upper, dtype=np.float64),
                row_lower=np.array(self.row_lower, dtype=np.float64),
                row_upper=np.array(self.row_upper, dtype=np.float64),
                start=start,
                index=index,
                value=value,
                row=row,
            ))
        return self._cache[1]

    def row_relation(self, row: int) -> tuple[str, float]:
        """The row as ``relation, rhs``: ``<=`` or ``>=`` for a row open on
        one side, ``=`` for one whose bounds meet. A ranged or free row has
        no such form, and raises ``ValueError``."""
        lo, hi = self.row_lower[row], self.row_upper[row]
        if lo == _NEG_INF and hi != _INF:
            return "<=", hi
        if hi == _INF and lo != _NEG_INF:
            return ">=", lo
        if lo == hi:
            return "=", lo
        raise ValueError(f"row {row} has bounds {lo} and {hi}: neither <=, >= nor =")

    def row_terms(self, row: int) -> tuple[list[int], list[float]]:
        """The row's columns and coefficients, in the order they were added."""
        start, stop = self.indptr[row], self.indptr[row + 1]
        return self.indices[start:stop], self.data[start:stop]

    def to_json(self) -> str:
        """The problem's lists as one compact JSON object, keyed ``names,
        domains, lower, upper, cost, indptr, indices, data, row_lower,
        row_upper`` in that order, with ``null`` for an infinite bound.
        Values are written as the lists hold them, and JSON floats read back
        exactly. A NaN, or an infinite cost or coefficient, raises
        ``ValueError``."""
        doc = {key: getattr(self, key) for key in (
            "names", "domains", "lower", "upper", "cost",
            "indptr", "indices", "data", "row_lower", "row_upper",
        )}
        for key in ("lower", "upper", "row_lower", "row_upper"):
            doc[key] = [None if math.isinf(v) else v for v in doc[key]]
        return json.dumps(doc, separators=(",", ":"), allow_nan=False)


@dataclass
class MilpSolution:
    status: str
    values: np.ndarray | None  # column values by index
    objective_value: float | None
    bound: float | None


@dataclass
class Violation:
    constraint: int | None  # row index, None for var checks
    variable: str | None
    amount: float
    kind: str  # "constraint" | "bound" | "integrality" | "nonfinite"


_thread = threading.local()


def _highs() -> _core._Highs:
    """The calling thread's HiGHS instance, made on its first call. scipy's
    binding releases the GIL while HiGHS runs, so threads must not share one."""
    highs = getattr(_thread, "highs", None)
    if highs is None:
        highs = _thread.highs = _core._Highs()
    return highs


def run_highs(
    problem: MilpProblem, options: dict
) -> tuple[_core.HighsModelStatus, _core.HighsInfo, np.ndarray | None]:
    """Hand ``problem`` to this thread's HiGHS instance, with its options
    reset to HiGHS's defaults and then ``options`` set by name, and run it.
    Returns HiGHS's model status, its info and the point (one value per
    column), or ``None`` for the point when HiGHS holds no feasible one.

    A ``time_limit`` holds for this call alone. HiGHS's MIP solver counts it
    from its own start, but its LP solver from the instance's first run, so
    a problem without integer columns gets the run time so far added on.

    This is the only code that calls HiGHS. It uses scipy's bundled binding,
    which takes the problem's arrays as they are: float64 costs and bounds,
    the int32 CSR matrix row-wise and int32 integrality. HiGHS can print
    diagnostics straight to file descriptor 1, past ``output_flag``; the
    descriptor points at the null device during the call, so no such line
    reaches a stdout that carries results."""
    if not problem.num_vars:
        raise ValueError("model has no columns")
    cost = np.array(problem.cost, dtype=np.float64)
    if not np.isfinite(cost).all():
        raise ValueError("model has a non-finite cost")
    a = problem.assembled()
    highs = _highs()
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, 1)
        finally:
            os.close(null)
        highs.resetOptions()
        for name, value in options.items():
            if highs.setOptionValue(name, value) == _core.HighsStatus.kError:
                raise ValueError(f"HiGHS refused option {name}={value!r}")
        if "time_limit" in options and not a.integral.any():
            highs.setOptionValue("time_limit", highs.getRunTime() + options["time_limit"])
        status = highs.passModel(
            problem.num_vars, problem.num_rows, len(a.value), _ROWWISE, _MINIMIZE, 0.0,
            cost, a.lower, a.upper, a.row_lower, a.row_upper,
            a.start, a.index, a.value, a.integrality,
        )
        if status == _core.HighsStatus.kError:
            raise ValueError("HiGHS refused the model")
        if highs.run() == _core.HighsStatus.kError:
            raise ValueError(
                f"HiGHS failed: {highs.modelStatusToString(highs.getModelStatus())}"
            )
    finally:
        os.dup2(saved, 1)
        os.close(saved)
    info = highs.getInfo()
    x = None
    if info.primal_solution_status == _core.kSolutionStatusFeasible:
        x = np.array(highs.getSolution().col_value)
    return highs.getModelStatus(), info, x


def solve(
    problem: MilpProblem, gap_tol: float = 0.0, time_limit_ms: int | None = None
) -> MilpSolution:
    """Solve to within ``gap_tol`` of optimality. Deterministic for fixed
    inputs, unless the wall-clock ``time_limit_ms`` stops the solve.

    ``run_highs`` calls HiGHS with ``output_flag=False``,
    ``mip_rel_gap=gap_tol``, ``time_limit`` (when given) and
    ``mip_heuristic_run_feasibility_jump=False``; presolve is HiGHS's MIP
    default. Feasibility jump costs about 9 ms per solve whatever the model's
    size, and the round models close at the root without it.

    The returned point rounds cleanly: if rounding its integer columns puts
    a row beyond ``FEAS_TOL``, the model is solved once more with
    ``mip_feasibility_tolerance=1e-9`` and that answer is returned.

    The status is OPTIMAL only when the incumbent meets its dual bound (see
    ``OPTIMAL_GAP``); an incumbent accepted by the relative gap alone is
    GAP_LIMIT, and one left by a time, iteration or solution limit is
    TIME_LIMIT. An infeasible model is INFEASIBLE; an unbounded one, or any
    other HiGHS model status, raises ``ValueError``. A model without integer
    columns has no dual ``bound``."""
    options = {
        "output_flag": False,
        "mip_rel_gap": gap_tol,
        "mip_heuristic_run_feasibility_jump": False,
    }
    if time_limit_ms is not None:
        options["time_limit"] = time_limit_ms / 1000.0
    status, info, x = run_highs(problem, options)
    integral = problem.integral()
    if x is not None and problem.num_rows:
        # HiGHS accepts integrality residues up to its
        # mip_feasibility_tolerance (1e-6); rounded, such a residue can put a
        # row with large coefficients beyond FEAS_TOL. Then solve once more
        # with a tighter tolerance. The residues are tested first, so a clean
        # answer costs no matrix product.
        ints = x[integral]
        if (ints != np.round(ints)).any():
            a = problem.assembled()
            lhs = problem.activity(np.where(integral, np.round(x), x))
            if ((lhs > a.row_upper + FEAS_TOL) | (lhs < a.row_lower - FEAS_TOL)).any():
                options["mip_feasibility_tolerance"] = 1e-9
                status, info, x = run_highs(problem, options)
    if status == _MODEL.kInfeasible:
        return MilpSolution(INFEASIBLE, None, None, None)
    if status == _MODEL.kUnbounded:
        raise ValueError("unbounded model")
    if status != _MODEL.kOptimal and status not in _LIMITS:
        raise ValueError(f"HiGHS stopped with model status {status.name}")
    if x is None:  # stopped at a limit without an incumbent
        return MilpSolution(TIME_LIMIT, None, None, None)
    objective = float(info.objective_function_value)
    bound = float(info.mip_dual_bound) if integral.any() else None
    if status != _MODEL.kOptimal:  # stopped at a limit with an incumbent
        status = TIME_LIMIT
    elif bound is not None and objective - bound > OPTIMAL_GAP * max(1.0, abs(objective)):
        status = GAP_LIMIT  # HiGHS stopped at mip_rel_gap, not at a proven optimum
    else:
        status = OPTIMAL
    return MilpSolution(status, x, objective, bound)


def verify(problem: MilpProblem, values) -> list[Violation]:
    """All bound/integrality violations, column by column, then all row
    violations, beyond the 1e-6 tolerance. ``values`` holds one value per
    column, by index. A NaN or infinite column value, and a row whose
    activity it makes non-finite, is a ``nonfinite`` violation: NaN fails
    every comparison, so no bound would catch it."""
    x = np.asarray(values, dtype=np.float64)
    if x.shape != (problem.num_vars,):
        raise ValueError(f"expected {problem.num_vars} values, got shape {x.shape}")
    a = problem.assembled()
    lower, upper = a.lower, a.upper
    finite = np.isfinite(x)
    bad_bound = (x < lower - FEAS_TOL) | (x > upper + FEAS_TOL)
    fx = np.where(finite, x, 0.0)  # a non-finite value is reported as such
    residue = np.abs(fx - np.round(fx))
    bad_int = a.integral & (residue > FEAS_TOL)
    out: list[Violation] = []
    for i in np.flatnonzero(bad_bound | bad_int | ~finite):
        name = problem.names[i]
        if not finite[i]:
            out.append(Violation(None, name, math.inf, "nonfinite"))
            continue
        if bad_bound[i]:
            amount = float(max(lower[i] - x[i], x[i] - upper[i]))
            out.append(Violation(None, name, amount, "bound"))
        if bad_int[i]:
            out.append(Violation(None, name, float(residue[i]), "integrality"))
    if problem.num_rows:
        lhs = problem.activity(x)
        finite_lhs = np.isfinite(lhs)
        lhs = np.where(finite_lhs, lhs, 0.0)  # a non-finite activity is reported as such
        slack = np.maximum(lhs - a.row_upper, a.row_lower - lhs)
        for row in np.flatnonzero((slack > FEAS_TOL) | ~finite_lhs):
            if finite_lhs[row]:
                out.append(Violation(int(row), None, float(slack[row]), "constraint"))
            else:
                out.append(Violation(int(row), None, math.inf, "nonfinite"))
    return out
