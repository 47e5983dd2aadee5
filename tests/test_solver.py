"""Forward search, heuristics, drivers, and their theoretical guardrails."""

import math
import sys

import numpy as np
import pytest

import oracles
import hsvi.solver as solver_module
from conftest import zero_reward_model
from hsvi import (
    Belief,
    PomdpModel,
    SolverConfig,
    choose_action,
    choose_observation,
    depth_bound,
    expand,
    explore,
    init_bounds,
    solve,
    solve_anytime,
    successor_distributions,
    update_bound,
)


def _upper_expansion(m, bounds, b):
    return expand(m, bounds.upper.value, b)


def _one_state_model():
    return PomdpModel(np.array([[[1.0]]]), np.array([[[1.0]]]), np.array([[1.0]]),
                      0.95, Belief.point_mass(0, 1))


# ---------------------------------------------------------------------------
# heuristics
# ---------------------------------------------------------------------------

def test_choose_action_single_action(random_model):
    m = oracles.random_pomdp(np.random.default_rng(5), 3, 1, 2, 0.9)
    bounds = init_bounds(m)
    assert choose_action(_upper_expansion(m, bounds, m.initial_belief)) == 0


def test_choose_action_zero_discount_maximizes_immediate_reward(rng):
    m = oracles.random_pomdp(rng, 3, 3, 2, 0.0)
    bounds = init_bounds(m)
    b = Belief.from_dense(rng.dirichlet(np.ones(3)))
    expected = int(np.argmax([float(m.reward[a][b.states] @ b.probs) for a in range(3)]))
    assert choose_action(_upper_expansion(m, bounds, b)) == expected


def test_choose_action_matches_q_scan(rng):
    for _ in range(5):
        m = oracles.random_pomdp(rng, 3, 3, 2, 0.9)
        t, o, r = oracles.dense_tensors(m)
        bounds = init_bounds(m)
        corner_values = bounds.upper.corner_values.copy()
        upper_fn = lambda dense: oracles.caratheodory_projection(np.eye(3), corner_values, dense)
        b = Belief.from_dense(rng.dirichlet(np.ones(3)))
        qs = [oracles.q_value_naive(t, o, r, 0.9, upper_fn, b.to_dense(), a) for a in range(3)]
        assert choose_action(_upper_expansion(m, bounds, b)) == int(np.argmax(qs))


def test_choose_action_invariant_under_reward_scaling(rng):
    t = np.stack([rng.dirichlet(np.ones(3), size=3) for _ in range(2)])
    o = np.stack([rng.dirichlet(np.ones(2), size=3) for _ in range(2)])
    r = rng.uniform(-1, 1, size=(2, 3))
    b0 = Belief.uniform(3)
    base = PomdpModel(t, o, r, 0.9, b0)
    scaled = PomdpModel(t, o, 7.5 * r, 0.9, b0)
    for model_pair in [(base, scaled)]:
        a1 = choose_action(_upper_expansion(model_pair[0], init_bounds(model_pair[0]), b0))
        a2 = choose_action(_upper_expansion(model_pair[1], init_bounds(model_pair[1]), b0))
        assert a1 == a2


def test_choose_observation_deterministic_channel():
    # single action, deterministic transition and observation: the only
    # positive-probability child is returned while unfinished
    t = np.zeros((1, 2, 2))
    t[0, 0, 1] = 1.0
    t[0, 1, 1] = 1.0
    o = np.zeros((1, 2, 2))
    o[0, :, 1] = 1.0  # always observation 1
    m = PomdpModel(t, o, np.array([[1.0, 0.0]]), 0.9, Belief.uniform(2))
    bounds = init_bounds(m)
    branch = _upper_expansion(m, bounds, m.initial_belief)[0]
    assert choose_observation(m, bounds, branch, epsilon=1e-6, t=0) == 1


def test_choose_observation_excess_arithmetic():
    # child width 0.5 at depth t+1 = 3 with eps 0.1, gamma 0.95:
    # 0.95^3 = 0.857375, 0.1 / 0.857375 = 0.116635078...,
    # excess = 0.5 - 0.116635078 = 0.383364922
    expected = 0.5 - 0.1 * 0.95 ** -3
    assert expected == pytest.approx(0.3833649220, abs=1e-9)


def test_choose_observation_matches_brute_force(rng):
    for _ in range(5):
        m = oracles.random_pomdp(rng, 3, 2, 2, 0.9)
        bounds = init_bounds(m)
        b = Belief.from_dense(rng.dirichlet(np.ones(3)))
        a = int(rng.integers(2))
        eps, depth = 0.05, 2
        target = eps * 0.9 ** (-(depth + 1))
        probs, posts = successor_distributions(m, b, a)
        weights = []
        for obs, post in enumerate(posts):
            if post is None:
                weights.append(-np.inf)
                continue
            width = bounds.upper.value(post) - bounds.lower.value(post)
            weights.append(probs[obs] * (width - target))
        expected = int(np.argmax(weights)) if max(weights) > 0 else None
        branch = _upper_expansion(m, bounds, b)[a]
        assert choose_observation(m, bounds, branch, eps, depth) == expected


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------

def test_explore_no_update_when_already_converged():
    m = zero_reward_model()
    bounds = init_bounds(m)
    n_vectors = len(bounds.lower)
    n_points = bounds.upper.num_points
    explore(m, bounds, m.initial_belief, epsilon=0.5, t=0)
    assert len(bounds.lower) == n_vectors
    assert bounds.upper.num_points == n_points


def test_depth_bound_arithmetic():
    assert depth_bound(1.0, 100.0, 0.95) == 90
    assert depth_bound(10.0, 5.0, 0.95) == 0
    assert depth_bound(0.5, 20.0, 0.0) == 0


def test_update_bound_formula():
    assert update_bound(3, 2, 2) == 3 * (4 ** 4 - 1) // 3
    assert update_bound(5, 1, 1) == 30  # unit branching: t_max * (t_max + 1)


def test_depth_cap_exceeded_is_internal_error(rng):
    from hsvi import DepthCapExceeded

    m = oracles.random_pomdp(rng, 3, 2, 2, 0.9)
    bounds = init_bounds(m)
    b0 = m.initial_belief
    # a deliberately broken cap: any expansion already sits past it
    with pytest.raises(DepthCapExceeded):
        solver_module._trial(m, bounds, b0, 0, epsilon=1e-6, t_max=-5, deadline=None)


def test_explore_finishes_an_unfinished_node(rng, monkeypatch):
    m = oracles.random_pomdp(rng, 2, 2, 2, 0.9)
    bounds = init_bounds(m)
    b0 = m.initial_belief
    eps = 0.2

    updated = []
    original = solver_module.apply_update

    def tracking(model, bounds_, b, upper_point_value):
        updated.append(b)
        return original(model, bounds_, b, upper_point_value)

    def excess(b, t):
        width = bounds.upper.value(b) - bounds.lower.value(b)
        return width - eps * 0.9 ** (-t)

    monkeypatch.setattr(solver_module, "apply_update", tracking)
    assert excess(b0, 0) > 0
    explore(m, bounds, b0, epsilon=eps, t=0)
    # updates run deepest first, so the reversed list is the path from b0
    visited = list(reversed(updated))
    assert visited[0] is b0
    finished = [node for depth, node in enumerate(visited) if excess(node, depth) <= 0]
    assert len(finished) >= 1


def test_deep_trial_leaves_recursion_limit_alone():
    # discount 0.999 makes the depth cap ln(gap / epsilon) / -ln(0.999):
    # a single trial at epsilon 100 descends past depth 1,000
    m = oracles.random_pomdp(np.random.default_rng(0), 2, 2, 2, 0.999)
    limit = sys.getrecursionlimit()
    res = solve(m, SolverConfig(epsilon=100.0, max_trials=1))
    assert max(res.trace.max_depth) > 1000
    assert res.total_updates == max(res.trace.max_depth) + 1
    assert sys.getrecursionlimit() == limit


# ---------------------------------------------------------------------------
# solve drivers
# ---------------------------------------------------------------------------

def test_solve_zero_reward_is_immediate():
    res = solve(zero_reward_model(), SolverConfig(epsilon=0.1))
    assert res.terminated_by == "epsilon-reached"
    assert res.final_width == pytest.approx(0.0, abs=1e-9)
    assert res.trace.trial[-1] <= 1
    assert res.total_updates == 0


def test_solve_single_state_geometric():
    res = solve(_one_state_model(), SolverConfig(epsilon=0.01))
    assert res.terminated_by == "epsilon-reached"
    assert res.trace.lower_b0[-1] == pytest.approx(20.0, abs=0.01)
    assert res.trace.upper_b0[-1] == pytest.approx(20.0, abs=0.01)


def test_solve_random_models_bracket_exact_value(rng):
    for _ in range(3):
        m = oracles.random_pomdp(rng, 3, 2, 2, 0.9)
        res = solve(m, SolverConfig(epsilon=0.01))
        assert res.terminated_by == "epsilon-reached"
        assert res.final_width <= 0.01 + 1e-12
        lo, hi = oracles.exact_value_interval(m, tol=1e-3)
        value = 0.5 * (lo + hi)
        assert res.trace.lower_b0[-1] - 0.011 <= value <= res.trace.upper_b0[-1] + 0.011


def test_solve_trace_invariants(rng):
    m = oracles.random_pomdp(rng, 3, 2, 2, 0.9)
    res = solve(m, SolverConfig(epsilon=0.05))
    widths = np.array(res.trace.width)
    times = np.array(res.trace.wall_time_s)
    assert np.all(np.diff(widths) <= 1e-9)
    assert np.all(np.diff(times) >= 0)
    assert max(res.trace.max_depth) <= res.t_max + 2
    assert res.total_updates <= res.u_max


def test_solve_timeout_returns_partial_result(rng):
    m = oracles.random_pomdp(rng, 4, 3, 3, 0.95)
    res = solve(m, SolverConfig(epsilon=1e-6, timeout_s=0.3))
    assert res.terminated_by == "timeout"
    assert res.final_width > 0
    assert res.trace.lower_b0[-1] <= res.trace.upper_b0[-1] + 1e-6


def test_solve_trial_cap(rng):
    m = oracles.random_pomdp(rng, 3, 2, 2, 0.9)
    res = solve(m, SolverConfig(epsilon=1e-8, max_trials=3))
    assert res.terminated_by in ("trial-cap", "epsilon-reached")
    if res.terminated_by == "trial-cap":
        assert res.trace.trial[-1] == 3


def test_anytime_zero_reward_returns_immediately():
    res = solve_anytime(zero_reward_model(), SolverConfig(epsilon=1e-9))
    assert res.terminated_by == "epsilon-reached"
    assert res.final_width == pytest.approx(0.0, abs=1e-9)


def test_anytime_trial_epsilon_tracks_zeta_times_width(rng, monkeypatch):
    m = oracles.random_pomdp(rng, 3, 2, 2, 0.9)
    seen = []
    original = solver_module._trial

    def spy(model, bounds, b, t, epsilon, t_max, deadline):
        seen.append(epsilon)
        return original(model, bounds, b, t, epsilon, t_max, deadline)

    monkeypatch.setattr(solver_module, "_trial", spy)
    res = solve_anytime(m, SolverConfig(epsilon=0.05, zeta=0.95, max_trials=4))
    widths = res.trace.width
    for trial_eps, width_before in zip(seen, widths):
        assert trial_eps == pytest.approx(0.95 * width_before, rel=1e-12)


def test_anytime_converges_and_width_monotone(rng):
    m = oracles.random_pomdp(rng, 3, 2, 2, 0.9)
    res = solve_anytime(m, SolverConfig(epsilon=0.02))
    assert res.terminated_by == "epsilon-reached"
    assert res.final_width <= 0.02
    assert np.all(np.diff(res.trace.width) <= 1e-9)


def test_sampled_observation_rule_keeps_bounds_valid(rng, monkeypatch):
    # Any rule that only picks unfinished children keeps the bounds valid and
    # still converges; here the child is sampled by Pr(o|b,a*) instead.
    sampler = np.random.default_rng(3)
    calls = []

    def sampled(model, bounds, branch, epsilon, t):
        calls.append(t)
        target = epsilon * model.discount ** (-(t + 1))
        open_children = [
            o for o, posterior in enumerate(branch.posteriors)
            if posterior is not None
            and branch.obs_probs[o] * (branch.values[o] - bounds.lower.value(posterior) - target) > 0.0]
        if not open_children:
            return None
        mass = np.array([branch.obs_probs[o] for o in open_children])
        return int(sampler.choice(open_children, p=mass / mass.sum()))

    monkeypatch.setattr(solver_module, "choose_observation", sampled)
    m = oracles.random_pomdp(rng, 3, 2, 2, 0.9)
    res = solve(m, SolverConfig(epsilon=0.05))
    assert calls
    assert res.terminated_by == "epsilon-reached"
    assert res.final_width <= 0.05
    lo, hi = oracles.exact_value_interval(m, tol=1e-3)
    assert res.trace.lower_b0[-1] <= hi + 1e-6
    assert res.trace.upper_b0[-1] >= lo - 1e-6


def test_width_identity_after_child_evaluation(rng):
    # width of the action interval equals the discounted probability-weighted
    # sum of the child widths, by construction of both Q values
    m = oracles.random_pomdp(rng, 3, 2, 2, 0.9)
    bounds = init_bounds(m)
    for _ in range(10):
        local_update_belief = Belief.from_dense(rng.dirichlet(np.ones(3)))
        from hsvi import local_update

        local_update(m, bounds, local_update_belief)
    b = Belief.from_dense(rng.dirichlet(np.ones(3)))
    upper = _upper_expansion(m, bounds, b)
    a_star = choose_action(upper)
    q_width = upper[a_star].q - expand(m, bounds.lower.value, b)[a_star].q
    probs, posts = successor_distributions(m, b, a_star)
    expected = 0.9 * sum(
        probs[o] * (bounds.upper.value(p) - bounds.lower.value(p))
        for o, p in enumerate(posts) if p is not None)
    assert q_width == pytest.approx(expected, abs=1e-6)


def test_audit_beliefs_recorded_per_trial(rng):
    m = oracles.random_pomdp(rng, 3, 2, 2, 0.9)
    res = solve(m, SolverConfig(epsilon=0.05, audit_num_beliefs=8))
    assert len(res.audit_beliefs) == 8
    for row in res.trace.audit_lower:
        assert row.shape == (8,)
    lows = np.stack(res.trace.audit_lower)
    highs = np.stack(res.trace.audit_upper)
    assert np.all(np.diff(lows, axis=0) >= -1e-9)
    assert np.all(np.diff(highs, axis=0) <= 1e-9)
    assert np.all(lows <= highs + 1e-6)
