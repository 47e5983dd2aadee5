"""Revised-simplex kernel for convex-hull projections.

A hull projection of a query q onto a point set {(p_i, v_i)} is the LP

    minimize    Σ λ_i v_i
    subject to  Σ λ_i p_i = q,  λ >= 0

with one matching row per coordinate of q. Every p_i and q sums to one, so
the rows already imply Σ λ_i = 1. The point set always holds the simplex
corners of q's support; they are unit columns, so the corner basis has the
identity as its inverse and q as its weights, and the primal simplex never
needs a phase 1 nor a factorisation. The kernel keeps the basis inverse B⁻¹
explicitly, prices with c − (c_B B⁻¹) A and updates B⁻¹ by a rank-1 pivot.
Pivoting is steepest-descent (Dantzig) until progress stalls on degenerate
pivots, then switches permanently to Bland's rule, whose lowest-index
discipline rules out cycling. The ratio test takes as tied every row within
the Harris bound min_i (x_i + PIVOT_TOL) / α_i, so no pivot drives a basic
weight below −PIVOT_TOL, and ties always break toward the lowest basic index,
so runs are deterministic.

A start is the caller's warm basis with its inverse if it is still feasible
for q, then the corner basis. Every answer is checked before it is used:
after one step of iterative refinement, its weights must be non-negative and
meet the matching rows to FEAS_TOL, which makes it a sound upper bound even
where round-off has drifted B⁻¹. An answer that fails the check is pivoted on
once more from a freshly inverted final basis; if it fails again, or a start
stalls at the iteration cap, the next start takes over. After the corner
start, the same LP goes to scipy's HiGHS, whose answer is checked the same
way.
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
    basis: np.ndarray | None    # None after the HiGHS fallback: no basis to warm-start from
    inverse: np.ndarray | None  # B⁻¹ of ``basis``
    iterations: int
    residual: float


def _run_simplex(a, c, basis, inverse, x_basic, max_iter):
    """Optimize in place; returns the number of pivots performed."""
    iterations = 0
    stall = 0
    bland = False
    while True:
        reduced = c - (c[basis] @ inverse) @ a
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
        coeffs = inverse @ a[:, col]
        eligible = np.flatnonzero(coeffs > PIVOT_TOL)
        if eligible.size == 0:
            raise Unbounded("objective unbounded below")
        # Rows tie when their ratio is within the Harris bound: pivoting on
        # any of them leaves no basic weight below -PIVOT_TOL, however large
        # the other rows' coefficients are.
        ratios = x_basic[eligible] / coeffs[eligible]
        bound = ((x_basic[eligible] + PIVOT_TOL) / coeffs[eligible]).min()
        ties = eligible[ratios <= bound]
        row = int(ties[np.argmin(basis[ties])])
        step = x_basic[row] / coeffs[row]
        pivot_row = inverse[row] / coeffs[row]
        inverse -= np.outer(coeffs, pivot_row)
        inverse[row] = pivot_row
        x_basic -= step * coeffs
        x_basic[row] = step
        basis[row] = col
        iterations += 1
        if not bland:
            # Dantzig makes no progress on degenerate pivots; hand over to
            # Bland before a cycle can form.
            stall = stall + 1 if step <= PIVOT_TOL else 0
            if stall >= STALL_LIMIT:
                bland = True


def _checked(a, q, c, x_basic, basis, inverse, iterations):
    """The answer of an optimal basis, or None when its weights are not a
    sound upper bound: a weight below -FEAS_TOL, or, once round-off negatives
    are clipped to zero, a miss on the matching rows by more than FEAS_TOL.

    The weights first get one step of iterative refinement, because the
    pivots' round-off leaves them off the basis's exact solution.
    """
    a_basic = a[:, basis]
    x_basic = x_basic + inverse @ (q - a_basic @ x_basic)
    if x_basic.min() < -FEAS_TOL:
        return None
    weights = np.maximum(x_basic, 0.0)
    residual = float(np.abs(a_basic @ weights - q).max())
    if residual > FEAS_TOL:
        return None
    x = np.zeros(a.shape[1])
    x[basis] = weights
    return LpSolution(float(c[basis] @ weights), x, basis, inverse, iterations, residual)


def _from_basis(a, q, c, basis, inverse, max_iter):
    """Simplex from ``basis`` with B⁻¹ ``inverse``, which is updated in
    place; None if the basis is not primal feasible, if the pivoting breaks
    down (MaxIterations / Unbounded) or if its answer fails the check.

    An answer that fails the check usually means round-off has drifted B⁻¹
    away from the basis it stands for, so B⁻¹ is refactored once from the
    final basis and the simplex resumes from there.
    """
    basis = np.array(basis, dtype=np.int64)
    iterations = 0
    for refactored in (False, True):
        x_basic = inverse @ q
        if x_basic.min() < -PIVOT_TOL:
            return None
        try:
            iterations += _run_simplex(a, c, basis, inverse, x_basic, max_iter)
        except LpFailure:
            return None
        solution = _checked(a, q, c, x_basic, basis, inverse, iterations)
        if solution is not None or refactored:
            return solution
        try:
            inverse = np.linalg.inv(a[:, basis])
        except np.linalg.LinAlgError:
            return None


def _highs(a, q, c):
    """The same LP through HiGHS, for when both simplex starts break down.

    Any x >= 0 with A x = q yields a sound upper bound, so the answer is
    checked rather than trusted: round-off negatives are clipped to zero and
    the weights must then meet the constraints to FEAS_TOL.
    """
    from scipy.optimize import linprog  # only loaded on this rare path

    result = linprog(c, A_eq=a, b_eq=q, bounds=(0, None), method="highs",
                     options={"primal_feasibility_tolerance": HIGHS_TOL,
                              "dual_feasibility_tolerance": HIGHS_TOL})
    if result.x is None:
        raise LpFailure(f"HiGHS fallback failed: {result.message}")
    x = np.maximum(result.x, 0.0)
    residual = float(np.abs(a @ x - q).max())
    if residual > FEAS_TOL:
        raise LpFailure(f"HiGHS fallback weights miss the constraints by {residual:.3g}")
    return LpSolution(float(c @ x), x, None, None, int(result.nit), residual)


def projection_lp(point_rows, point_values, query_vec, corner_columns,
                  warm_basis=None, warm_inverse=None):
    """Value of the lower convex hull of (point, value) pairs at ``query_vec``.

    ``point_rows`` is (n_points, d) with rows on the d-dimensional probability
    simplex, ``query_vec`` lies on the same simplex, and ``corner_columns[s]``
    is the row holding corner e_s. The constraint matrix is ``point_rows.T``;
    pass the transpose of a C-contiguous (d, n_points) array to avoid a copy.
    The simplex starts from ``warm_basis`` with its B⁻¹ ``warm_inverse``
    (both given or neither, e.g. the ``basis`` and ``inverse`` of an earlier
    solution on the same rows; the inverse is copied, not changed) when it is
    still feasible, then from the corner basis, and hands the LP to HiGHS if
    neither start yields a checked answer.
    """
    a = np.ascontiguousarray(point_rows.T)
    c = np.asarray(point_values, dtype=np.float64)
    d, n = a.shape
    max_iter = 10 * (n + d)
    if warm_basis is not None:
        solution = _from_basis(a, query_vec, c, warm_basis, warm_inverse.copy(), max_iter)
        if solution is not None:
            return solution
    solution = _from_basis(a, query_vec, c, corner_columns, np.eye(d), max_iter)
    return solution if solution is not None else _highs(a, query_vec, c)


def hull_projection(points, query):
    """Upper-bound value at ``query``: projection onto the hull of the point set.

    ``points`` is a sequence of (Belief, value) pairs that must include every
    simplex corner (that is what makes the projection feasible for any query).
    Returns min Σ λ_i v_i subject to Σ λ_i b_i = query, λ ≥ 0.
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
