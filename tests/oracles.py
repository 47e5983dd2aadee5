"""Independent reference implementations used to check the package.

Everything here recomputes results from the raw model tensors with naive
loops, exhaustive enumeration, or an exact piecewise-linear-convex dynamic
program whose LP filtering runs on scipy's HiGHS solver, so none of the code
paths under test are reused.
"""

import itertools

import numpy as np


def dense_tensors(model):
    """(T, O, R) as dense arrays indexed [a, s, s'], [a, s', o], [a, s]."""
    t = np.stack([model.transition[a].toarray() for a in range(model.num_actions)])
    return t, np.asarray(model.observation), np.asarray(model.reward)


# -- naive probability kernel ------------------------------------------------


def bayes_posterior(t, o, b_dense, action, obs):
    """Triple-loop Bayes rule; returns the unnormalized mass too."""
    ns = b_dense.size
    unnorm = np.zeros(ns)
    for sp in range(ns):
        acc = 0.0
        for s in range(ns):
            acc += t[action, s, sp] * b_dense[s]
        unnorm[sp] = o[action, sp, obs] * acc
    mass = unnorm.sum()
    return (unnorm / mass if mass > 0 else unnorm), mass


def observation_probability_naive(t, o, b_dense, action, obs):
    total = 0.0
    ns = b_dense.size
    for s in range(ns):
        for sp in range(ns):
            total += b_dense[s] * t[action, s, sp] * o[action, sp, obs]
    return total


def lower_value_naive(vectors, b_dense):
    return max(float(np.dot(v, b_dense)) for v in vectors)


def q_value_naive(t, o, r, gamma, value_fn, b_dense, action):
    """Definitional one-step lookahead with a caller-supplied value function."""
    total = float(np.dot(r[action], b_dense))
    num_obs = o.shape[2]
    for obs in range(num_obs):
        pr = observation_probability_naive(t, o, b_dense, action, obs)
        if pr > 0.0:
            posterior, _ = bayes_posterior(t, o, b_dense, action, obs)
            total += gamma * pr * value_fn(posterior)
    return total


def expectimax_value(t, o, r, gamma, b_dense, depth):
    """Exhaustive depth-limited expectimax (only viable for tiny depths)."""
    if depth == 0:
        return 0.0
    best = -np.inf
    for action in range(r.shape[0]):
        q = float(np.dot(r[action], b_dense))
        for obs in range(o.shape[2]):
            pr = observation_probability_naive(t, o, b_dense, action, obs)
            if pr > 1e-14:
                posterior, _ = bayes_posterior(t, o, b_dense, action, obs)
                q += gamma * pr * expectimax_value(t, o, r, gamma, posterior, depth - 1)
        best = max(best, q)
    return best


# -- MDP oracle ----------------------------------------------------------------


def finite_horizon_mdp_values(t, r, gamma, horizon):
    """Backward-induction state values of the fully observable problem."""
    v = np.zeros(r.shape[1])
    for _ in range(horizon):
        v = np.max(r + gamma * np.einsum("asx,x->as", t, v), axis=0)
    return v


# -- hull projection oracle -----------------------------------------------------


def caratheodory_projection(point_rows, values, query, tol=1e-9):
    """Minimum of the projection LP by enumerating all support sets of size
    up to dimension + 1; any optimal basic solution uses no more points."""
    point_rows = np.asarray(point_rows, dtype=float)
    values = np.asarray(values, dtype=float)
    query = np.asarray(query, dtype=float)
    n, d = point_rows.shape
    target = np.append(query, 1.0)
    best = np.inf
    for k in range(1, min(d + 1, n) + 1):
        subsets = np.array(list(itertools.combinations(range(n), k)))
        systems = np.concatenate(
            [point_rows[subsets].transpose(0, 2, 1), np.ones((len(subsets), 1, k))],
            axis=1)
        weights = np.linalg.pinv(systems) @ target
        residuals = np.abs(systems @ weights[..., None] - target[:, None]).max(axis=(1, 2))
        feasible = (residuals <= tol) & (weights.min(axis=1) >= -tol)
        if feasible.any():
            candidate = (values[subsets[feasible]] * weights[feasible]).sum(axis=1).min()
            best = min(best, float(candidate))
    return best


def upper_points(upper):
    """(rows, values) of every point of an UpperBound, corners first: its
    corner_values at the unit rows, then its interior_points."""
    interior = upper.interior_points
    rows = np.vstack([np.eye(upper.num_states)] + [b.to_dense() for b, _ in interior])
    values = np.concatenate([upper.corner_values, [v for _, v in interior]])
    return rows, values


def highs_upper_value(upper, belief):
    """Hull projection at ``belief`` over every point of an UpperBound, by
    scipy's HiGHS: one matching row per state and the row Σ λ = 1, as
    perfbench's check against HiGHS builds the LP."""
    from scipy.optimize import linprog

    rows, values = upper_points(upper)
    result = linprog(values, A_eq=np.vstack([rows.T, np.ones(len(values))]),
                     b_eq=np.append(belief.to_dense(), 1.0), bounds=(0, None),
                     method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                              "dual_feasibility_tolerance": 1e-10})
    assert result.status == 0, result.message
    return float(result.fun)


def enumerate_basic_solutions(c, a, b, tol=1e-9):
    """Optimal value of min c.x, Ax=b, x>=0 over all vertex bases."""
    m, n = a.shape
    best = np.inf
    for columns in itertools.combinations(range(n), m):
        base = a[:, columns]
        if abs(np.linalg.det(base)) < 1e-12:
            continue
        x_b = np.linalg.solve(base, b)
        if x_b.min() >= -tol:
            best = min(best, float(c[list(columns)] @ x_b))
    return best


# -- exact PWLC dynamic program --------------------------------------------------


def _compact(stacked):
    """Shed rows that provably never win the max anywhere on the simplex.

    Dedups at 1e-11 quantization, drops pointwise-dominated rows, then keeps
    only rows on the *upper* hull of the dual point set (slopes relative to
    the last state, value in the last coordinate): a row strictly below that
    upper hull is dominated everywhere by a convex combination of other rows
    with the same slope, so the envelope is unchanged as a function. Facet
    normals with a non-negative value component identify the upper side; the
    joggle fallback for degenerate inputs perturbs values by ~1e-10 at worst,
    far inside every tolerance used here."""
    stacked = np.asarray(stacked)
    _, index = np.unique(np.round(stacked / 1e-11), axis=0, return_index=True)
    stacked = stacked[np.sort(index)]
    if 1 < stacked.shape[0] <= 4000:
        covers = (stacked[None, :, :] >= stacked[:, None, :]).all(axis=2)
        np.fill_diagonal(covers, False)
        stacked = stacked[~covers.any(axis=1)]
    n, dim = stacked.shape
    if dim >= 2 and n > dim + 1:
        from scipy.spatial import ConvexHull

        duals = np.column_stack([stacked[:, :-1] - stacked[:, -1:], stacked[:, -1]])
        hull = None
        try:
            hull = ConvexHull(duals)
        except Exception:
            try:
                hull = ConvexHull(duals, qhull_options="QJ")  # degenerate input
            except Exception:
                pass
        if hull is not None:
            upper = hull.equations[:, dim - 1] > -1e-12
            keep = np.unique(hull.simplices[upper])
            if keep.size:
                stacked = stacked[keep]
    return stacked


def _cross_sum_stage(t, o, r, gamma, vectors):
    """One exact Bellman stage on the vector matrix, compacting between merges."""
    na, ns, _ = t.shape
    no = o.shape[2]
    out = []
    for action in range(na):
        acc = r[action][None, :]
        for obs in range(no):
            part = _compact(vectors @ (gamma * (t[action] * o[action][:, obs][None, :])).T)
            acc = _compact((acc[:, None, :] + part[None, :, :]).reshape(-1, ns))
        out.append(acc)
    return _compact(np.concatenate(out, axis=0))


def finite_horizon_value(model, horizon):
    """Exact depth-`horizon` expectimax value at the initial belief, computed
    in alpha-vector space (identical value, tractable tree)."""
    t, o, r = dense_tensors(model)
    b0 = model.initial_belief.to_dense()
    vectors = np.zeros((1, model.num_states))
    for _ in range(horizon):
        vectors = _cross_sum_stage(t, o, r, model.discount, vectors)
    return float((vectors @ b0).max())


def exact_value_interval(model, tol=1e-3):
    """Certified enclosure of the optimal value at the initial belief.

    Runs the exact PWLC Bellman recursion twice, once from a uniformly
    improvable lower start (the blind-policy floor) and once from an upper
    start (the fully observable relaxation), so the two value sequences
    bracket the optimum at every stage; stops when the bracket at the initial
    belief is narrower than tol. The stage cap comes from the gap shrinking
    at least geometrically with the discount.
    """
    t, o, r = dense_tensors(model)
    gamma = model.discount
    ns = model.num_states
    b0 = model.initial_belief.to_dense()

    lower = np.full((1, ns), (r.min(axis=1) / (1.0 - gamma)).max())
    v_mdp = np.full(ns, r.max() / (1.0 - gamma))
    while True:
        new = np.max(r + gamma * np.einsum("asx,x->as", t, v_mdp), axis=0)
        if np.abs(new - v_mdp).max() <= 1e-10:
            break
        v_mdp = new
    upper = v_mdp[None, :]

    lo = float((lower @ b0).max())
    hi = float((upper @ b0).max())
    if hi - lo > tol and gamma > 0.0:
        cap = int(np.ceil(np.log(tol / (hi - lo)) / np.log(gamma))) + 2
    else:
        cap = 1
    for _ in range(cap):
        if hi - lo <= tol:
            break
        lower = _cross_sum_stage(t, o, r, gamma, lower)
        upper = _cross_sum_stage(t, o, r, gamma, upper)
        lo = float((lower @ b0).max())
        hi = float((upper @ b0).max())
    return lo, hi


# -- random model factory ---------------------------------------------------------


def random_pomdp(rng, num_states, num_actions, num_observations, discount):
    """Dense Dirichlet-random model with rewards in [-1, 1]."""
    from hsvi import Belief, PomdpModel

    t = rng.dirichlet(np.ones(num_states), size=(num_actions, num_states))
    o = rng.dirichlet(np.ones(num_observations), size=(num_actions, num_states))
    r = rng.uniform(-1.0, 1.0, size=(num_actions, num_states))
    b0 = Belief.from_dense(rng.dirichlet(np.ones(num_states)))
    return PomdpModel(t, o, r, discount, b0)


SUITE_SEED = 20260808


def suite_model(index):
    """Model ``index`` of acceptance criterion 3's random suite: |S| in 2..4,
    |A| and |O| in 1..3, discount 0.9."""
    rng = np.random.default_rng([SUITE_SEED, index])
    ns = int(rng.integers(2, 5))
    na = int(rng.integers(1, 4))
    no = int(rng.integers(1, 4))
    return random_pomdp(rng, ns, na, no, 0.9)
