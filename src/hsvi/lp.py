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

A start is a primal feasible basis with its B⁻¹. A caller that queries one
constraint matrix many times keeps a BasisStore of up to a fixed number of
earlier optimal bases with their inverses; a new one replaces the oldest.
A query starts from the store's last answer if that basis is still primal
feasible for q, else from the feasible stored basis with the lowest
c_B·B⁻¹q, else from the corner basis. Each candidate is tested with the one
product B⁻¹q that also gives the start's weights. Every answer is checked
before it is used: after one step of iterative refinement, its weights must
be non-negative and meet the matching rows to FEAS_TOL, which makes it a
sound upper bound even where round-off has drifted B⁻¹. An answer that
fails the check is pivoted on once more from a freshly inverted final
basis; if it fails again, or a start stalls at the iteration cap, the next
start takes over. After the corner start, the same LP goes to scipy's
HiGHS, whose answer is checked the same way; it has no basis, so the store
stays as it was.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LpFailure, MaxIterations, Unbounded

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
    start: str = "corners"      # "last", "stored", "corners" or "highs": where the answer began


class BasisStore:
    """Optimal bases of one constraint matrix, kept to start its later queries.

    Holds up to ``size`` (basis, B⁻¹) pairs in stacks that double up to that
    size, and which pair answered last; once full, a new pair replaces the
    oldest. A pair depends on the columns only, never on the objective, so
    values may change freely between queries, and appending a column leaves
    every pair primal feasible where it was. Deleting a column goes through
    ``drop_column``.
    """

    def __init__(self, d, size):
        self.size = size
        self.bases = np.empty((1, d), dtype=np.int64)
        self.inverses = np.empty((1, d, d))
        self.count = 0
        self.last = -1
        self.oldest = 0

    @property
    def floats(self):
        """Numbers held, bases included."""
        return self.inverses.size + self.bases.size

    def start(self, q, c):
        """(pair index, B⁻¹q) of the pair to start from, or (-1, None): the
        last answer if it is primal feasible for q, else the feasible pair
        with the lowest c_B·B⁻¹q."""
        if self.last >= 0:
            x_basic = self.inverses[self.last] @ q
            if x_basic.min() >= -PIVOT_TOL:
                return self.last, x_basic
        if self.count == 0 or (self.count == 1 and self.last == 0):
            return -1, None
        weights = np.matmul(self.inverses[: self.count], q)
        objective = np.einsum("ij,ij->i", c[self.bases[: self.count]], weights)
        objective[weights.min(axis=1) < -PIVOT_TOL] = np.inf
        best = int(objective.argmin())
        if objective[best] == np.inf:
            return -1, None
        return best, weights[best]

    def add(self, basis, inverse):
        """Keep a new optimal pair, in place of the oldest once full."""
        if self.count < self.size:
            if self.count == len(self.bases):
                grown = min(2 * self.count, self.size)
                for name in ("bases", "inverses"):
                    old = getattr(self, name)
                    new = np.empty((grown,) + old.shape[1:], dtype=old.dtype)
                    new[: self.count] = old[: self.count]
                    setattr(self, name, new)
            index = self.count
            self.count += 1
        else:
            index = self.oldest
            self.oldest = (index + 1) % self.size
        self.bases[index] = basis
        self.inverses[index] = inverse
        self.last = index

    def drop_column(self, j):
        """Forget the pairs whose basis holds column j, and renumber the
        columns after it in the others."""
        bases = self.bases[: self.count]
        kept = np.flatnonzero(~(bases == j).any(axis=1))
        if kept.size < self.count:
            self.last = int(np.searchsorted(kept, self.last)) if self.last in kept else -1
            self.count = kept.size
            self.oldest = 0
            self.bases[: self.count] = bases[kept]
            self.inverses[: self.count] = self.inverses[kept]
            bases = self.bases[: self.count]
        bases[bases > j] -= 1


def _run_simplex(a, c, basis, inverse, x_basic, max_iter):
    """Optimize from a primal feasible basis: (pivots, basis, B⁻¹).

    ``x_basic`` is updated in place. The first pivot copies ``basis`` and
    ``inverse``, so the caller's arrays are never changed, and an answer
    without a pivot returns them as they were passed.
    """
    iterations = 0
    stall = 0
    bland = False
    while True:
        reduced = c - (c[basis] @ inverse) @ a
        reduced[basis] = 0.0
        if bland:
            negative = np.flatnonzero(reduced < -PIVOT_TOL)
            if negative.size == 0:
                return iterations, basis, inverse
            col = int(negative[0])
        else:
            col = int(reduced.argmin())
            if reduced[col] >= -PIVOT_TOL:
                return iterations, basis, inverse
        if iterations >= max_iter:
            raise MaxIterations(f"simplex exceeded {max_iter} iterations")
        coeffs = inverse @ a[:, col]
        eligible = np.flatnonzero(coeffs > PIVOT_TOL)
        if eligible.size == 0:
            raise Unbounded("objective unbounded below")
        if iterations == 0:
            basis = basis.copy()
            inverse = inverse.copy()
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


def _from_basis(a, q, c, basis, inverse, x_basic, max_iter):
    """Simplex from a primal feasible ``basis`` with B⁻¹ ``inverse`` and
    weights ``x_basic`` = B⁻¹q; None if the pivoting breaks down
    (MaxIterations / Unbounded) or if its answer fails the check.

    An answer that fails the check usually means round-off has drifted B⁻¹
    away from the basis it stands for, so B⁻¹ is refactored once from the
    final basis and the simplex resumes from there.
    """
    iterations = 0
    for refactored in (False, True):
        try:
            pivots, basis, inverse = _run_simplex(a, c, basis, inverse, x_basic, max_iter)
        except LpFailure:
            return None
        iterations += pivots
        solution = _checked(a, q, c, x_basic, basis, inverse, iterations)
        if solution is not None or refactored:
            return solution
        try:
            inverse = np.linalg.inv(a[:, basis])
        except np.linalg.LinAlgError:
            return None
        x_basic = inverse @ q
        if x_basic.min() < -PIVOT_TOL:
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
    return LpSolution(float(c @ x), x, None, None, int(result.nit), residual, "highs")


def projection_lp(point_rows, point_values, query_vec, corner_columns, store=None):
    """Value of the lower convex hull of (point, value) pairs at ``query_vec``.

    ``point_rows`` is (n_points, d) with rows on the d-dimensional probability
    simplex, ``query_vec`` lies on the same simplex, and ``corner_columns[s]``
    is the row holding corner e_s. The constraint matrix is ``point_rows.T``;
    pass the transpose of a C-contiguous (d, n_points) array to avoid a copy.
    The simplex starts from the pair that ``store`` (a BasisStore of these
    rows, if given) picks, then from the corner basis, and hands the LP to
    HiGHS if neither start yields a checked answer. The store keeps the
    answer's basis; an answer a stored pair gave without a pivot shares
    that pair's arrays.
    """
    a = np.ascontiguousarray(point_rows.T)
    c = np.asarray(point_values, dtype=np.float64)
    d, n = a.shape
    max_iter = 10 * (n + d)
    if store is not None:
        index, x_basic = store.start(query_vec, c)
        if index >= 0:
            inverse = store.inverses[index]
            solution = _from_basis(a, query_vec, c, store.bases[index], inverse, x_basic,
                                   max_iter)
            if solution is not None:
                solution.start = "last" if index == store.last else "stored"
                if solution.inverse is inverse:   # no pivot: the pair answered unchanged
                    store.last = index
                else:
                    store.add(solution.basis, solution.inverse)
                return solution
    solution = _from_basis(a, query_vec, c, np.asarray(corner_columns, dtype=np.int64),
                           np.eye(d), np.array(query_vec, dtype=np.float64), max_iter)
    if solution is None:
        return _highs(a, query_vec, c)
    if store is not None:
        store.add(solution.basis, solution.inverse)
    return solution

