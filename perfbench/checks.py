"""Correctness checks run after the timed phase.

Each check returns a list of failure messages; an empty list means it
passed. The references are computed here, independently of the package: a
value iteration on the fully observable relaxation, a hull LP solved by
HiGHS over the whole stored point set, and a dense-belief simulation of the
greedy lower-bound policy. The package is only asked for the values under
test.
"""

import numpy as np
from scipy import sparse

WIDTH_SLACK = 1e-9      # numerical slack on width monotonicity and lower <= upper
HIGHS_TOL = 1e-6        # |UpperBound.value - HiGHS| allowed, relative to max(1, |value|)
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10}
MDP_RESIDUAL = 1e-12    # stopping residual of the reference value iteration
SOLVER_MDP_RESIDUAL = 1e-6  # the package's own stopping residual for its corner values
SE_FACTOR = 4.0
OVERLAP_TOL = 1e-6
KEEP_EVERY = 7          # the dense simulation keeps every 7th belief it visits


def mdp_values(model):
    """Optimal values of the fully observable relaxation, from a value
    iteration on a dense value vector started at zero."""
    gamma = model.discount
    v = np.zeros(model.num_states)
    while True:
        new = np.max([model.reward[a] + gamma * (model.transition[a] @ v)
                      for a in range(model.num_actions)], axis=0)
        if np.abs(new - v).max() <= MDP_RESIDUAL:
            return new
        v = new


def check_solve(model, result, target, v_mdp):
    """Certificate checks that hold for every solve."""
    failures = []
    trace = result.trace
    lower, upper, width = trace.lower_b0[-1], trace.upper_b0[-1], trace.width[-1]
    if not width <= target:
        failures.append(f"final width {width!r} above target {target}")
    if not lower <= upper:
        failures.append(f"lower {lower!r} above upper {upper!r} at b0")
    steps = np.diff(np.asarray(trace.width))
    if steps.size and steps.max() > WIDTH_SLACK:
        failures.append(f"width at b0 rose by {steps.max():.3g} in the trace")
    gamma = model.discount
    ceiling = model.initial_belief.dot(v_mdp) + SOLVER_MDP_RESIDUAL / (1.0 - gamma) + WIDTH_SLACK
    if not upper <= ceiling:
        failures.append(f"upper {upper!r} above b0 . V_MDP = {ceiling!r}")
    floor = float((model.reward.min(axis=1) / (1.0 - gamma)).max()) - WIDTH_SLACK
    if not lower >= floor:
        failures.append(f"lower {lower!r} below the blind floor {floor!r}")
    return failures


def highs_upper_value(upper, belief):
    """Hull projection at ``belief`` over every stored point, by HiGHS."""
    from scipy.optimize import linprog  # imported here to stay out of the peak RSS

    ns = upper.num_states
    interior = upper.interior_points
    rows, cols, data = [np.arange(ns)], [np.arange(ns)], [np.ones(ns)]
    for j, (point, _) in enumerate(interior):
        rows.append(point.states)
        cols.append(np.full(len(point), ns + j))
        data.append(point.probs)
    num_cols = ns + len(interior)
    rows.append(np.full(num_cols, ns))
    cols.append(np.arange(num_cols))
    data.append(np.ones(num_cols))
    a_eq = sparse.csr_array((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                            shape=(ns + 1, num_cols))
    b_eq = np.append(belief.to_dense(), 1.0)
    costs = np.concatenate([upper.corner_values, [value for _, value in interior]])
    solution = linprog(costs, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                       options=HIGHS_OPTIONS)
    if solution.status != 0:
        raise RuntimeError(f"HiGHS failed: {solution.message}")
    return float(solution.fun)


def check_beliefs(bounds, beliefs):
    """lower <= upper at each belief, and the upper bound equals HiGHS."""
    failures = []
    for b in beliefs:
        lower = bounds.lower.value(b)
        upper = bounds.upper.value(b)
        if not lower <= upper + WIDTH_SLACK:
            failures.append(f"lower {lower!r} above upper {upper!r} at {b!r}")
        reference = highs_upper_value(bounds.upper, b)
        if not abs(upper - reference) <= HIGHS_TOL * max(1.0, abs(reference)):
            failures.append(f"upper {upper!r} differs from HiGHS {reference!r} at {b!r}")
    return failures


def _draw(rng, cumulative):
    return int(np.searchsorted(cumulative, rng.random() * cumulative[-1], side="right"))


def simulate_dense(model, matrix, actions, episodes, horizon, rng):
    """Discounted returns of the greedy policy of the vector set (matrix,
    actions), tracked with a dense belief vector. Episodes end at the horizon
    or in a zero-reward absorbing state, where no more reward accrues.

    Returns (returns, visited): every ``KEEP_EVERY``-th belief visited with a
    support of two or more states, as dense vectors.
    """
    gamma = model.discount
    transition = model.transition
    transposed = [t.T.tocsr() for t in transition]
    observation = model.observation
    reward = model.reward
    absorbing = np.all(reward == 0.0, axis=0)
    for t in transition:
        absorbing &= t.diagonal() == 1.0
    b0 = model.initial_belief.to_dense()
    start_cumulative = np.cumsum(b0)
    returns = np.empty(episodes)
    visited = []
    step_count = 0
    for episode in range(episodes):
        b = b0
        state = _draw(rng, start_cumulative)
        total, weight = 0.0, 1.0
        for _ in range(horizon):
            if absorbing[state]:
                break
            support = np.flatnonzero(b)
            if support.size > 1:
                step_count += 1
                if step_count % KEEP_EVERY == 0:
                    visited.append(b)
            action = int(actions[int((matrix[:, support] @ b[support]).argmax())])
            total += weight * reward[action, state]
            weight *= gamma
            row = transition[action]
            lo, hi = row.indptr[state], row.indptr[state + 1]
            state = int(row.indices[lo + _draw(rng, np.cumsum(row.data[lo:hi]))])
            obs = _draw(rng, np.cumsum(observation[action, state]))
            b = observation[action, :, obs] * (transposed[action] @ b)
            b = b / b.sum()
        returns[episode] = total
    return returns, visited


def check_evaluation(evaluation, lower_b0, upper_b0, dense_returns):
    """The evaluated mean lies inside the certified interval (widened by the
    sampling error and the horizon cut-off) and agrees with the dense
    simulation of the same policy."""
    failures = []
    mean, se = evaluation.mean, evaluation.stderr
    slack = SE_FACTOR * se + evaluation.truncation_bound
    if not lower_b0 - slack <= mean <= upper_b0 + slack:
        failures.append(f"evaluated mean {mean!r} outside [{lower_b0!r}, {upper_b0!r}] "
                        f"widened by {slack:.3g}")
    dense_mean = float(dense_returns.mean())
    dense_se = float(dense_returns.std(ddof=1) / np.sqrt(dense_returns.size))
    allowed = max(SE_FACTOR * np.hypot(se, dense_se), WIDTH_SLACK)
    if not abs(mean - dense_mean) <= allowed:
        failures.append(f"evaluated mean {mean!r} and dense simulation {dense_mean!r} "
                        f"differ by more than {allowed:.3g}")
    return failures


def check_round_trip(parsed, generated):
    """The parsed model reproduces the generated one exactly."""
    failures = []
    for a, (t_parsed, t_generated) in enumerate(zip(parsed.transition, generated.transition)):
        if t_parsed.shape != t_generated.shape or (t_parsed != t_generated).nnz:
            failures.append(f"transition of action {a} differs after the round trip")
    for label in ("observation", "reward"):
        if not np.array_equal(getattr(parsed, label), getattr(generated, label)):
            failures.append(f"{label} differs after the round trip")
    b_parsed, b_generated = parsed.initial_belief, generated.initial_belief
    if not (np.array_equal(b_parsed.states, b_generated.states)
            and np.array_equal(b_parsed.probs, b_generated.probs)):
        failures.append("initial belief differs after the round trip")
    if parsed.discount != generated.discount:
        failures.append("discount differs after the round trip")
    return failures


def check_exact_interval(name, result, reference):
    """The solver's interval at b0 overlaps the exact interval."""
    lower, upper = result.trace.lower_b0[-1], result.trace.upper_b0[-1]
    lo, hi = reference["lo"], reference["hi"]
    if lower <= hi + OVERLAP_TOL and lo <= upper + OVERLAP_TOL:
        return []
    return [f"{name}: solver interval [{lower!r}, {upper!r}] misses exact [{lo!r}, {hi!r}]"]
