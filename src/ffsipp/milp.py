"""Generic mixed-integer linear programs: model, solver, verifier, LP export.

A ``MilpProblem`` addresses columns and rows by integer index, in creation
order. ``solve`` hands its arrays, through ``run_highs``, to HiGHS by
scipy's bundled binding.
``export_lp`` writes a problem as LP text for external solvers; the format
is write-only here (the tests read it back with HiGHS's own LP reader).
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np
from scipy import sparse

# scipy's bundled binding of HiGHS. It is private API, so the scipy version
# is pinned in pyproject.toml and a test holds it to scipy.optimize.milp.
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
_INTEGER_COL = _core.HighsVarType.kInteger
_CONTINUOUS_COL = _core.HighsVarType.kContinuous


class MilpProblem:
    """Minimise ``cost @ x`` subject to bounds on each row of
    ``A @ x`` and bounds and integrality on each column of ``x``.

    Columns carry parallel lists of name, domain, bounds and cost; rows are
    appended straight into CSR arrays (``indptr``, ``indices``, ``data``)
    with their bounds. Column names are metadata, read only by the LP text
    format and error messages; rows are known by index (``c<i>`` in LP text).
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

    def add_row(self, cols, coefs, relation: str, rhs: float) -> int:
        """Append the row ``sum(coefs[k] * x[cols[k]]) relation rhs`` and
        return its index. A column appears at most once per row. Terms are
        kept as given, zero coefficients too, for the LP text; ``matrix``
        drops the zeros."""
        if relation == "<=":
            self.row_lower.append(_NEG_INF)
            self.row_upper.append(rhs)
        elif relation == ">=":
            self.row_lower.append(rhs)
            self.row_upper.append(_INF)
        elif relation == "=":
            self.row_lower.append(rhs)
            self.row_upper.append(rhs)
        else:
            raise ValueError(f"bad relation {relation!r}")
        self.indices.extend(cols)
        self.data.extend(coefs)
        self.indptr.append(len(self.indices))
        return len(self.row_lower) - 1

    def integral(self) -> np.ndarray:
        """Mask of the columns with an integer domain (shared: do not modify)."""
        return self._assembled()[0]

    def matrix(self) -> sparse.csr_array:
        """The constraint matrix, rows by columns, without explicit zeros
        (shared: do not modify)."""
        return self._assembled()[1]

    def _assembled(self) -> tuple[np.ndarray, sparse.csr_array]:
        # Columns and rows are append-only, so their counts identify them.
        key = (len(self.names), len(self.row_lower), len(self.data))
        if self._cache is None or self._cache[0] != key:
            integral = np.array([d != CONTINUOUS for d in self.domains], dtype=bool)
            a = sparse.csr_array(
                (
                    np.array(self.data, dtype=np.float64),
                    np.array(self.indices, dtype=np.int64),
                    np.array(self.indptr, dtype=np.int64),
                ),
                shape=(self.num_rows, self.num_vars),
            )
            a.eliminate_zeros()
            self._cache = (key, integral, a)
        return self._cache[1], self._cache[2]

    def row_relation(self, row: int) -> tuple[str, float]:
        """The row as ``relation, rhs``, the way ``add_row`` took it."""
        lo, hi = self.row_lower[row], self.row_upper[row]
        if lo == -math.inf:
            return "<=", hi
        if hi == math.inf:
            return ">=", lo
        return "=", lo

    def row_terms(self, row: int) -> tuple[list[int], list[float]]:
        """The row's columns and coefficients, in the order they were added."""
        start, stop = self.indptr[row], self.indptr[row + 1]
        return self.indices[start:stop], self.data[start:stop]


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
    kind: str  # "constraint" | "bound" | "integrality"


def run_highs(
    problem: MilpProblem, options: dict
) -> tuple[_core.HighsModelStatus, _core.HighsInfo, np.ndarray | None]:
    """Hand ``problem`` to a fresh HiGHS instance, set ``options`` on it by
    name and run it. Returns HiGHS's model status, its info and the point
    (one value per column), or ``None`` for the point when HiGHS holds no
    feasible one.

    This is the only code that calls HiGHS. It uses scipy's bundled binding,
    which takes the CSR matrix row-wise as it is. HiGHS can print diagnostics
    straight to file descriptor 1, past ``output_flag``; the descriptor points
    at the null device during the call, so no such line reaches a stdout that
    carries results."""
    if not problem.num_vars:
        raise ValueError("model has no columns")
    if not all(map(math.isfinite, problem.cost)):
        raise ValueError("model has a non-finite cost")
    a = problem.matrix()
    lp = _core.HighsLp()
    lp.num_col_ = problem.num_vars
    lp.num_row_ = problem.num_rows
    lp.col_cost_ = problem.cost
    lp.col_lower_ = problem.lower
    lp.col_upper_ = problem.upper
    lp.row_lower_ = problem.row_lower
    lp.row_upper_ = problem.row_upper
    lp.integrality_ = [_INTEGER_COL if i else _CONTINUOUS_COL for i in problem.integral().tolist()]
    matrix = lp.a_matrix_
    matrix.format_ = _core.MatrixFormat.kRowwise
    matrix.num_col_ = problem.num_vars
    matrix.num_row_ = problem.num_rows
    matrix.start_ = a.indptr
    matrix.index_ = a.indices
    matrix.value_ = a.data
    highs = _core._Highs()
    sys.stdout.flush()
    saved = os.dup(1)
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, 1)
    os.close(null)
    try:
        for name, value in options.items():
            if highs.setOptionValue(name, value) == _core.HighsStatus.kError:
                raise ValueError(f"HiGHS refused option {name}={value!r}")
        if highs.passModel(lp) == _core.HighsStatus.kError:
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
    problem: MilpProblem, gap_tol: float = 1e-9, time_limit_ms: int | None = None
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
            lhs = problem.matrix() @ np.where(integral, np.round(x), x)
            if (
                (lhs > np.array(problem.row_upper) + FEAS_TOL)
                | (lhs < np.array(problem.row_lower) - FEAS_TOL)
            ).any():
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
    column, by index."""
    x = np.asarray(values, dtype=np.float64)
    if x.shape != (problem.num_vars,):
        raise ValueError(f"expected {problem.num_vars} values, got shape {x.shape}")
    lower = np.array(problem.lower, dtype=np.float64)
    upper = np.array(problem.upper, dtype=np.float64)
    bad_bound = (x < lower - FEAS_TOL) | (x > upper + FEAS_TOL)
    residue = np.abs(x - np.round(x))
    bad_int = problem.integral() & (residue > FEAS_TOL)
    out: list[Violation] = []
    for i in np.flatnonzero(bad_bound | bad_int):
        name = problem.names[i]
        if bad_bound[i]:
            amount = float(max(lower[i] - x[i], x[i] - upper[i]))
            out.append(Violation(None, name, amount, "bound"))
        if bad_int[i]:
            out.append(Violation(None, name, float(residue[i]), "integrality"))
    if problem.num_rows:
        lhs = problem.matrix() @ x
        slack = np.maximum(
            lhs - np.array(problem.row_upper, dtype=np.float64),
            np.array(problem.row_lower, dtype=np.float64) - lhs,
        )
        for row in np.flatnonzero(slack > FEAS_TOL):
            out.append(Violation(int(row), None, float(slack[row]), "constraint"))
    return out


# ---------------------------------------------------------------------------
# LP text format


def _num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _format_terms(terms, names: list[str]) -> str:
    """``terms`` as (column, coefficient) pairs, written in column order."""
    parts = []
    for col, coef in sorted(terms):
        sign = "-" if coef < 0 else "+"
        mag = _num(abs(coef))
        if parts:
            parts.append(f"{sign} {mag} {names[col]}")
        else:
            parts.append(f"{mag} {names[col]}" if coef >= 0 else f"- {mag} {names[col]}")
    return " ".join(parts) if parts else "0 " + names[0] if names else "0"


def export_lp(problem: MilpProblem) -> str:
    """Serialize to the conventional LP text format, readable by external
    solvers. Bounds lists every column, binaries included, in index order."""
    names = problem.names
    lines = ["Minimize"]
    objective = [(col, c) for col, c in enumerate(problem.cost) if c]
    lines.append(f" obj: {_format_terms(objective, names)}")
    lines.append("Subject To")
    for row in range(problem.num_rows):
        relation, rhs = problem.row_relation(row)
        terms = zip(*problem.row_terms(row))
        lines.append(f" c{row}: {_format_terms(terms, names)} {relation} {_num(rhs)}")
    lines.append("Bounds")
    for name, lower, upper in zip(names, problem.lower, problem.upper):
        lo = "-inf" if lower == -math.inf else _num(lower)
        hi = "+inf" if upper == math.inf else _num(upper)
        lines.append(f" {lo} <= {name} <= {hi}")
    generals = [n for n, d in zip(names, problem.domains) if d == INTEGER]
    binaries = [n for n, d in zip(names, problem.domains) if d == BOOLEAN]
    if generals:
        lines.append("Generals")
        lines.extend(f" {name}" for name in generals)
    if binaries:
        lines.append("Binaries")
        lines.extend(f" {name}" for name in binaries)
    lines.append("End")
    return "\n".join(lines) + "\n"
