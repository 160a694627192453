"""Exhaustive MILP oracle: the exact optimum of a small ``MilpProblem``.

An independent checker for ``milp.solve``: it enumerates the grid of the
integer columns and resolves any continuous remainder per grid point with
a hand-rolled two-phase simplex.
"""
import itertools
import math

import numpy as np

from ffsipp.milp import (
    CONTINUOUS,
    FEAS_TOL,
    INFEASIBLE,
    OPTIMAL,
    MilpProblem,
    MilpSolution,
    verify,
)

ORACLE_GRID_LIMIT = 10_000_000


def enumerate_oracle(problem: MilpProblem) -> MilpSolution:
    """Exact optimum by enumerating the integer grid; continuous remainders
    are resolved per grid point with a two-phase simplex."""
    n = problem.num_vars
    int_cols = [i for i in range(n) if problem.domains[i] != CONTINUOUS]
    cont_cols = [i for i in range(n) if problem.domains[i] == CONTINUOUS]
    grid = 1
    ranges = []
    for i in int_cols:
        lower, upper = problem.lower[i], problem.upper[i]
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise ValueError(f"oracle needs finite bounds on {problem.names[i]}")
        lo, hi = math.ceil(lower - FEAS_TOL), math.floor(upper + FEAS_TOL)
        ranges.append(range(lo, hi + 1))
        grid *= len(ranges[-1])
        if grid > ORACLE_GRID_LIMIT:
            raise ValueError(f"oracle grid too large ({grid} points)")

    best_obj = math.inf
    best_values = None
    for point in itertools.product(*ranges) if ranges else [()]:
        candidate = np.zeros(n)
        candidate[int_cols] = point
        if cont_cols:
            status, xs, obj = _fixed_lp(problem, cont_cols, candidate)
            if status != OPTIMAL:
                continue
            candidate[cont_cols] = xs
        else:
            if any(v.kind != "integrality" for v in verify(problem, candidate)):
                continue
            obj = sum(problem.cost[i] * candidate[i] for i in range(n))
        if obj < best_obj - 1e-12:
            best_obj = obj
            best_values = candidate
    if best_values is None:
        return MilpSolution(INFEASIBLE, None, None, None)
    return MilpSolution(OPTIMAL, best_values, best_obj, best_obj)


def _fixed_lp(problem, cont_cols, fixed):
    """LP over the continuous columns with the integers substituted."""
    idx = {col: k for k, col in enumerate(cont_cols)}
    rows = []
    for row in range(problem.num_rows):
        relation, rhs = problem.row_relation(row)
        coefs = np.zeros(len(cont_cols))
        for col, c in zip(*problem.row_terms(row)):
            if col in idx:
                coefs[idx[col]] += c
            else:
                rhs -= c * fixed[col]
        rows.append((coefs, relation, rhs))
    c = np.array([problem.cost[col] for col in cont_cols], dtype=np.float64)
    obj_fixed = sum(
        problem.cost[col] * fixed[col] for col in range(problem.num_vars) if col not in idx
    )
    lowers = np.array([problem.lower[col] for col in cont_cols], dtype=np.float64)
    uppers = np.array([problem.upper[col] for col in cont_cols], dtype=np.float64)
    if not np.all(np.isfinite(lowers)):
        raise ValueError("oracle needs finite lower bounds on continuous variables")
    status, x = _simplex(c, rows, lowers, uppers)
    if status != OPTIMAL:
        return status, None, None
    return OPTIMAL, x, obj_fixed + float(c @ x)


def _simplex(c, rows, lowers, uppers):
    """Two-phase primal simplex with Bland's rule.

    Minimizes c@x subject to the given (coefs, relation, rhs) rows and
    lower/upper variable bounds. Returns (status, x).
    """
    n = len(c)
    # Shift to x' = x - lower >= 0; finite uppers become extra rows.
    shift = lowers
    work_rows = []
    for coefs, rel, rhs in rows:
        work_rows.append((coefs.copy(), rel, rhs - float(coefs @ shift)))
    for j in range(n):
        if math.isfinite(uppers[j]):
            e = np.zeros(n)
            e[j] = 1.0
            work_rows.append((e, "<=", uppers[j] - lowers[j]))

    m = len(work_rows)
    if m == 0:
        # Unconstrained besides x' >= 0: bounded iff c >= 0.
        if np.any(c < -1e-12):
            raise ValueError("unbounded LP in oracle")
        return OPTIMAL, shift.copy()

    # Build equalities with slack/surplus columns, then artificials.
    slack_count = sum(1 for _, rel, _ in work_rows if rel != "=")
    total = n + slack_count
    A = np.zeros((m, total))
    b = np.zeros(m)
    si = n
    for i, (coefs, rel, rhs) in enumerate(work_rows):
        A[i, :n] = coefs
        b[i] = rhs
        if rel == "<=":
            A[i, si] = 1.0
            si += 1
        elif rel == ">=":
            A[i, si] = -1.0
            si += 1
        if b[i] < 0:
            A[i] = -A[i]
            b[i] = -b[i]

    # Phase 1.
    art = np.eye(m)
    A1 = np.hstack([A, art])
    basis = list(range(total, total + m))
    tableau = np.hstack([A1, b.reshape(-1, 1)])
    cost1 = np.zeros(total + m)
    cost1[total:] = 1.0
    if not _simplex_core(tableau, basis, cost1):
        raise ValueError("unbounded phase-1 LP")
    if float(cost1[basis] @ tableau[:, -1]) > 1e-7:
        return INFEASIBLE, None
    # Drive leftover artificials out of the basis; rows where that fails
    # are redundant and dropped.
    for i, bv in enumerate(basis):
        if bv >= total:
            pivot_col = next(
                (j for j in range(total) if abs(tableau[i, j]) > 1e-9), None
            )
            if pivot_col is not None:
                _pivot(tableau, basis, i, pivot_col)
    keep = [i for i, bv in enumerate(basis) if bv < total]
    basis2 = [basis[i] for i in keep]

    # Phase 2 on the original columns.
    tableau2 = np.hstack([tableau[keep][:, :total], tableau[keep][:, -1:]])
    cost2 = np.zeros(total)
    cost2[:n] = c
    if not _simplex_core(tableau2, basis2, cost2):
        raise ValueError("unbounded LP in oracle")
    x = np.zeros(total)
    for i, bv in enumerate(basis2):
        x[bv] = tableau2[i, -1]
    return OPTIMAL, x[:n] + shift


def _simplex_core(tableau, basis, cost):
    """In-place Bland-rule simplex on [A|b]; returns False if unbounded."""
    m, width = tableau.shape
    ncols = width - 1
    while True:
        cb = np.array([cost[bv] for bv in basis])
        reduced = cost[:ncols] - cb @ tableau[:, :ncols]
        basic = set(basis)
        entering = None
        for j in range(ncols):
            if j in basic:
                continue
            if reduced[j] < -1e-9:
                entering = j
                break
        if entering is None:
            return True
        ratios = []
        for i in range(m):
            a = tableau[i, entering]
            if a > 1e-9:
                ratios.append((tableau[i, -1] / a, basis[i], i))
        if not ratios:
            return False
        ratios.sort(key=lambda t: (t[0], t[1]))
        _pivot(tableau, basis, ratios[0][2], entering)


def _pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    for i in range(len(tableau)):
        if i != row and abs(tableau[i, col]) > 1e-12:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col
