"""Monte Carlo policy evaluation: determinism, summaries, soundness."""

import numpy as np
import pytest

import oracles
from conftest import zero_reward_model
from hsvi import (
    AlphaVector,
    Belief,
    EvalConfig,
    PomdpModel,
    SolverConfig,
    evaluate,
    init_lower,
    policy_action,
    solve,
)
from hsvi.bounds import LowerBound


def _one_state_model():
    return PomdpModel(np.array([[[1.0]]]), np.array([[[1.0]]]), np.array([[1.0]]),
                      0.95, Belief.point_mass(0, 1))


def _chain_model():
    """3-state conveyor: 0 -> 1 -> 2 (absorbing, zero reward), rewards on exit.

    Action 0 advances, action 1 stays put. Perfect observations.
    Starting in 0 under the advance-always policy the return is
    2 + 0.9 * 5 = 6.5 exactly.
    """
    t = np.zeros((2, 3, 3))
    t[0, 0, 1] = 1.0
    t[0, 1, 2] = 1.0
    t[0, 2, 2] = 1.0
    t[1] = np.eye(3)
    o = np.zeros((2, 3, 3))
    o[:, 0, 0] = 1.0
    o[:, 1, 1] = 1.0
    o[:, 2, 2] = 1.0
    r = np.array([[2.0, 5.0, 0.0],
                  [0.0, 0.0, 0.0]])
    return PomdpModel(t, o, r, 0.9, Belief.point_mass(0, 3))


def _advance_policy():
    lb = LowerBound(3)
    lb.add(AlphaVector(np.zeros(3), 0))
    return lb


# ---------------------------------------------------------------------------
# policy_action
# ---------------------------------------------------------------------------

def test_policy_action_single_vector():
    lb = LowerBound(2)
    lb.add(AlphaVector(np.array([0.3, -1.0]), 2))
    for b in (Belief.uniform(2), Belief.point_mass(1, 2)):
        assert policy_action(lb, b) == 2


def test_policy_action_picks_maximizing_vector():
    lb = LowerBound(2)
    lb.add(AlphaVector(np.array([1.0, 0.0]), 0))
    lb.add(AlphaVector(np.array([0.0, 1.0]), 1))
    assert policy_action(lb, Belief(2, [0, 1], [0.9, 0.1])) == 0
    assert policy_action(lb, Belief(2, [0, 1], [0.1, 0.9])) == 1


def test_policy_action_near_greedy_on_solved_model(rng):
    m = oracles.random_pomdp(rng, 3, 2, 2, 0.9)
    res = solve(m, SolverConfig(epsilon=0.02))
    from hsvi import expand

    for _ in range(100):
        b = Belief.from_dense(rng.dirichlet(np.ones(3)))
        action = policy_action(res.bounds.lower, b)
        qs = [branch.q for branch in expand(m, res.bounds.lower.value, b)]
        width = res.bounds.upper.value(b) - res.bounds.lower.value(b)
        assert qs[action] >= max(qs) - width - 1e-6


# ---------------------------------------------------------------------------
# one episode
# ---------------------------------------------------------------------------

def _episode(m, lb, horizon, seed):
    """Return of the one episode of an evaluation."""
    return evaluate(m, lb, EvalConfig(num_episodes=1, horizon=horizon, seed=seed)).returns[0]


def test_simulate_zero_reward_model():
    m = zero_reward_model()
    assert _episode(m, init_lower(m), 50, 7) == 0.0


def test_simulate_single_state_geometric_sum():
    m = _one_state_model()
    expected = (1 - 0.95 ** 251) / 0.05
    assert _episode(m, init_lower(m), 251, 3) == pytest.approx(expected, rel=1e-12)


def test_simulate_hand_traced_chain():
    m = _chain_model()
    value = _episode(m, _advance_policy(), 251, 0)
    assert value == pytest.approx(2.0 + 0.9 * 5.0, abs=1e-12)


def test_simulate_deterministic_in_seed():
    m = _chain_model()
    assert _episode(m, _advance_policy(), 50, 123) == _episode(m, _advance_policy(), 50, 123)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_single_episode_flags_undefined_stderr():
    m = _chain_model()
    result = evaluate(m, _advance_policy(), EvalConfig(num_episodes=1, horizon=10))
    assert result.mean == pytest.approx(6.5)
    assert result.stderr == 0.0
    assert result.ci95_half_width == 0.0
    assert not result.stderr_defined


def test_evaluate_zero_reward():
    m = zero_reward_model()
    result = evaluate(m, init_lower(m), EvalConfig(num_episodes=20, horizon=30))
    assert result.mean == 0.0
    assert result.ci95_half_width == 0.0


def test_evaluate_reproducible_bit_for_bit(rng):
    m = oracles.random_pomdp(rng, 3, 2, 2, 0.9)
    lb = init_lower(m)
    cfg = EvalConfig(num_episodes=40, horizon=60, seed=11)
    r1 = evaluate(m, lb, cfg)
    r2 = evaluate(m, lb, cfg)
    np.testing.assert_array_equal(r1.returns, r2.returns)


def test_evaluate_ci_and_truncation_bound(rng):
    m = oracles.random_pomdp(rng, 3, 2, 2, 0.9)
    lb = init_lower(m)
    result = evaluate(m, lb, EvalConfig(num_episodes=50, horizon=100, seed=2))
    assert result.ci95_half_width == pytest.approx(1.96 * result.stderr)
    expected_bound = 0.9 ** 100 * np.abs(m.reward).max() / 0.1
    assert result.truncation_bound == pytest.approx(expected_bound)
    assert result.returns.min() <= result.mean <= result.returns.max()


def test_evaluate_sandwich_on_solved_model(rng):
    m = oracles.random_pomdp(rng, 3, 2, 2, 0.9)
    res = solve(m, SolverConfig(epsilon=0.01))
    stats = evaluate(m, res.bounds.lower, EvalConfig(num_episodes=150, horizon=200, seed=4))
    lo = res.trace.lower_b0[-1]
    hi = res.trace.upper_b0[-1]
    assert lo - 3 * stats.stderr <= stats.mean <= hi + 3 * stats.stderr


def test_evaluate_undiscounted_mode():
    m = _chain_model()
    result = evaluate(m, _advance_policy(),
                      EvalConfig(num_episodes=3, horizon=20, discounted=False))
    assert result.mean == pytest.approx(7.0)  # 2 + 5 undiscounted
    assert result.truncation_bound == np.inf
