"""Dense linear-program kernel for convex-hull projections.

A hull projection of a query q onto a point set {(p_i, v_i)} is the LP

    minimize    Σ λ_i v_i
    subject to  Σ λ_i p_i = q,  Σ λ_i = 1,  λ >= 0

and the point set always holds the simplex corners of q's support. Those
corner columns form a primal-feasible basis (their weights are q's masses),
so the primal simplex never needs a phase 1: it starts from the caller's
warm basis when that is still feasible, else from the corner basis.
Pivoting is steepest-descent (Dantzig) until progress stalls on degenerate
pivots, then switches permanently to Bland's rule, whose lowest-index
discipline rules out cycling; ties in the ratio test always break toward the
lowest basic index, so runs are deterministic. The problems are tiny (one
row per support state), so a dense tableau with a hard iteration cap is the
robust choice. On near-degenerate point sets, pivots on tiny coefficients
can still stall both starts at the cap; the same LP then goes to scipy's
HiGHS, whose answer is checked for feasibility before it is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LpFailure, MaxIterations, Unbounded, ValidationError

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
STALL_LIMIT = 12  # degenerate pivots in a row before Bland's rule takes over
HIGHS_TOL = 1e-10


@dataclass
class LpSolution:
    value: float
    x: np.ndarray
    basis: list | None  # None after the HiGHS fallback: no basis to warm-start from
    iterations: int
    residual: float


def _pivot(tableau, basis, row, col):
    piv = tableau[row] / tableau[row, col]
    column = tableau[:, col].copy()
    tableau -= np.outer(column, piv)
    tableau[row] = piv
    basis[row] = col


def _run_simplex(tableau, basis, costs, max_iter):
    """Optimize in place; returns the number of pivots performed."""
    iterations = 0
    stall = 0
    bland = False
    ncols = tableau.shape[1] - 1
    while True:
        reduced = costs[:ncols] - costs[basis] @ tableau[:, :ncols]
        reduced[basis] = 0.0
        if bland:
            negative = np.flatnonzero(reduced < -PIVOT_TOL)
            if negative.size == 0:
                return iterations
            col = int(negative[0])
        else:
            col = int(reduced.argmin())
            if reduced[col] >= -PIVOT_TOL:
                return iterations
        if iterations >= max_iter:
            raise MaxIterations(f"simplex exceeded {max_iter} iterations")
        coeffs = tableau[:, col]
        eligible = np.flatnonzero(coeffs > PIVOT_TOL)
        if eligible.size == 0:
            raise Unbounded("objective unbounded below")
        ratios = tableau[eligible, -1] / coeffs[eligible]
        best = ratios.min()
        ties = eligible[ratios <= best + PIVOT_TOL]
        row = int(ties[np.argmin(basis[ties])])
        step = tableau[row, -1] / coeffs[row]
        _pivot(tableau, basis, row, col)
        iterations += 1
        if not bland:
            # Dantzig makes no progress on degenerate pivots; hand over to
            # Bland before a cycle can form.
            stall = stall + 1 if step <= PIVOT_TOL else 0
            if stall >= STALL_LIMIT:
                bland = True


def _from_basis(a, b, c, basis, max_iter):
    """Simplex from ``basis``; None if it is not square, nonsingular and primal
    feasible. Raises MaxIterations / Unbounded when the pivoting breaks down."""
    m, n = a.shape
    basis = np.array(basis, dtype=np.int64)
    if basis.shape != (m,) or basis.min() < 0 or basis.max() >= n or np.unique(basis).size != m:
        return None
    try:
        tableau = np.linalg.solve(a[:, basis], np.column_stack([a, b]))
    except np.linalg.LinAlgError:
        return None
    if tableau[:, -1].min() < -PIVOT_TOL:
        return None
    iterations = _run_simplex(tableau, basis, c, max_iter)
    x = np.zeros(n)
    x[basis] = tableau[:, -1]
    residual = float(np.abs(a @ x - b).max())
    return LpSolution(float(c @ x), x, [int(j) for j in basis], iterations, residual)


def _highs(a, b, c):
    """The same LP through HiGHS, for when both simplex starts break down.

    Any x >= 0 with A x = b yields a sound upper bound, so the answer is
    checked rather than trusted: round-off negatives are clipped to zero and
    the weights must then meet the constraints to FEAS_TOL.
    """
    from scipy.optimize import linprog  # only loaded on this rare path

    result = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs",
                     options={"primal_feasibility_tolerance": HIGHS_TOL,
                              "dual_feasibility_tolerance": HIGHS_TOL})
    if result.x is None:
        raise LpFailure(f"HiGHS fallback failed: {result.message}")
    x = np.maximum(result.x, 0.0)
    residual = float(np.abs(a @ x - b).max())
    if residual > FEAS_TOL:
        raise LpFailure(f"HiGHS fallback weights miss the constraints by {residual:.3g}")
    return LpSolution(float(c @ x), x, None, int(result.nit), residual)


def projection_lp(point_rows, point_values, query_vec, corner_columns, warm_basis=None):
    """Value of the lower convex hull of (point, value) pairs at ``query_vec``.

    ``point_rows`` is (n_points, d) with rows on the d-dimensional probability
    simplex, ``query_vec`` lies on the same simplex, and ``corner_columns[s]``
    is the row holding corner e_s. Because every row sums to one, the
    componentwise matching constraints make one row redundant; the system
    solved is the full-rank reduction (first d-1 coordinates plus the
    convex-combination row). The simplex starts from ``warm_basis`` when it is
    given and still feasible, then from the corner basis if that start breaks
    down, and hands the LP to HiGHS if the corner start breaks down too.
    """
    d = query_vec.size
    n = point_rows.shape[0]
    eq = np.empty((d, n))
    eq[: d - 1] = point_rows.T[: d - 1]
    eq[d - 1] = 1.0
    rhs = np.empty(d)
    rhs[: d - 1] = query_vec[: d - 1]
    rhs[d - 1] = 1.0
    max_iter = 10 * (n + d)
    starts = [corner_columns] if warm_basis is None else [warm_basis, corner_columns]
    for basis in starts:
        try:
            solution = _from_basis(eq, rhs, point_values, basis, max_iter)
        except LpFailure:
            continue
        if solution is not None:
            return solution
    return _highs(eq, rhs, point_values)


def hull_projection(points, query):
    """Upper-bound value at ``query``: projection onto the hull of the point set.

    ``points`` is a sequence of (Belief, value) pairs that must include every
    simplex corner (that is what makes the projection feasible for any query).
    Returns min Σ λ_i v_i subject to Σ λ_i b_i = query, Σ λ_i = 1, λ ≥ 0.
    """
    num_states = query.num_states
    rows = np.empty((len(points), num_states))
    values = np.empty(len(points))
    corner_columns = np.full(num_states, -1, dtype=np.int64)
    for i, (belief, value) in enumerate(points):
        rows[i] = belief.to_dense()
        values[i] = value
        if len(belief) == 1 and corner_columns[belief.states[0]] < 0:
            corner_columns[int(belief.states[0])] = i
    if corner_columns.min() < 0:
        raise ValidationError("hull projection needs every simplex corner in the point set")
    return projection_lp(rows, values, query.to_dense(), corner_columns).value
