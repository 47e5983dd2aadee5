"""Belief-space probability kernel against naive loop oracles."""

import numpy as np
import pytest

import oracles
from conftest import tiny_deterministic_model
from hsvi import (
    Belief,
    PomdpModel,
    RockSampleParams,
    ValidationError,
    ZeroProbabilityObservation,
    belief_update,
    gen_rocksample,
    successor_distributions,
)
from hsvi.model import expected_rewards_all_actions


# ---------------------------------------------------------------------------
# Belief basics
# ---------------------------------------------------------------------------

def test_belief_validation():
    with pytest.raises(ValidationError):
        Belief(3, [0, 1], [0.6, 0.6])           # mass != 1
    with pytest.raises(ValidationError):
        Belief(3, [0, 3], [0.5, 0.5])           # index out of range
    with pytest.raises(ValidationError):
        Belief(3, [0, 0], [0.5, 0.5])           # duplicate state
    with pytest.raises(ValidationError):
        Belief(3, [0, 1], [1.5, -0.5])          # negative mass


def test_belief_rejects_non_finite_mass():
    with pytest.raises(ValidationError):
        Belief(2, [0, 1], [np.nan, 1.0])
    with pytest.raises(ValidationError):
        Belief.from_dense([np.inf, 1.0])


def test_belief_drops_dust_and_renormalizes():
    b = Belief(3, [0, 1, 2], [1.0 - 1e-13 - 0.5, 0.5, 1e-13])
    assert list(b.states) == [0, 1]
    assert b.probs.sum() == pytest.approx(1.0, abs=0)


def test_belief_dense_round_trip(rng):
    dense = rng.dirichlet(np.ones(5))
    b = Belief.from_dense(dense)
    np.testing.assert_allclose(b.to_dense(), dense, atol=1e-12)


def test_model_validation_rejects_bad_rows():
    t = np.ones((1, 2, 2))  # rows sum to 2
    o = np.full((1, 2, 2), 0.5)
    r = np.zeros((1, 2))
    with pytest.raises(ValidationError):
        PomdpModel(t, o, r, 0.9, Belief.uniform(2))
    t = np.stack([np.eye(2)])
    with pytest.raises(ValidationError):
        PomdpModel(t, o, r, 1.0, Belief.uniform(2))  # discount not < 1


@pytest.mark.parametrize("field", ["transition", "observation", "reward"])
def test_model_validation_rejects_non_finite_entries(field):
    arrays = {"transition": np.stack([np.eye(2)]),
              "observation": np.full((1, 2, 2), 0.5),
              "reward": np.zeros((1, 2))}
    arrays[field].flat[1] = np.nan if field != "reward" else np.inf
    with pytest.raises(ValidationError):
        PomdpModel(arrays["transition"], arrays["observation"], arrays["reward"],
                   0.9, Belief.uniform(2))


# ---------------------------------------------------------------------------
# belief_update
# ---------------------------------------------------------------------------

def test_update_identity_transition_perfect_sensor_keeps_point_mass():
    m = tiny_deterministic_model()
    b = belief_update(m, Belief.point_mass(0, 2), 0, 1)  # moves to state 1
    assert list(b.states) == [1]
    assert b.probs[0] == 1.0


def test_update_uninformative_sensor_keeps_uniform():
    t = np.stack([np.eye(2)])
    o = np.full((1, 2, 2), 0.5)
    r = np.zeros((1, 2))
    m = PomdpModel(t, o, r, 0.9, Belief.uniform(2))
    for obs in (0, 1):
        b = belief_update(m, Belief.uniform(2), 0, obs)
        np.testing.assert_allclose(b.probs, [0.5, 0.5])


def test_update_impossible_observation_raises():
    m = tiny_deterministic_model()
    with pytest.raises(ZeroProbabilityObservation):
        belief_update(m, Belief.point_mass(0, 2), 0, 0)  # lands in 1, emits obs 1


def test_update_rocksample_check_against_dense_bayes():
    m = gen_rocksample(RockSampleParams(4, 4))
    t, o, _ = oracles.dense_tensors(m)
    b0 = m.initial_belief
    check_1 = 5
    good = 0
    posterior = belief_update(m, b0, check_1, good)
    expected, mass = oracles.bayes_posterior(t, o, b0.to_dense(), check_1, good)
    assert mass > 0
    np.testing.assert_allclose(posterior.to_dense(), expected, atol=1e-9)


def test_update_output_is_valid_distribution(rng):
    for _ in range(20):
        m = oracles.random_pomdp(rng, 4, 2, 3, 0.9)
        b = Belief.from_dense(rng.dirichlet(np.ones(4)))
        a = int(rng.integers(2))
        o = int(rng.integers(3))
        out = belief_update(m, b, a, o)
        assert out.probs.min() >= 0
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_deterministic_chain_stays_point_mass():
    m = tiny_deterministic_model()
    b = m.initial_belief
    expected_state = 0
    for _ in range(7):
        expected_state = 1 - expected_state
        b = belief_update(m, b, 0, expected_state)
        assert list(b.states) == [expected_state]


# ---------------------------------------------------------------------------
# observation probabilities: successor_distributions(...)[0][o]
# ---------------------------------------------------------------------------

def test_obs_prob_deterministic_sensor():
    m = tiny_deterministic_model()
    b = Belief.point_mass(0, 2)
    probs = successor_distributions(m, b, 0)[0]
    assert probs[1] == pytest.approx(1.0)
    assert probs[0] == pytest.approx(0.0)


def test_obs_prob_uniform_sensor():
    t = np.stack([np.eye(3)])
    o = np.full((1, 3, 4), 0.25)
    m = PomdpModel(t, o, np.zeros((1, 3)), 0.9, Belief.uniform(3))
    for obs in range(4):
        assert successor_distributions(m, m.initial_belief, 0)[0][obs] == pytest.approx(0.25)


def test_obs_prob_matches_triple_loop(rng):
    m = oracles.random_pomdp(rng, 3, 2, 3, 0.9)
    t, o, _ = oracles.dense_tensors(m)
    for _ in range(10):
        b = Belief.from_dense(rng.dirichlet(np.ones(3)))
        a = int(rng.integers(2))
        obs = int(rng.integers(3))
        expected = oracles.observation_probability_naive(t, o, b.to_dense(), a, obs)
        assert successor_distributions(m, b, a)[0][obs] == pytest.approx(expected, abs=1e-12)


def test_obs_probs_sum_to_one(rng):
    for _ in range(10):
        m = oracles.random_pomdp(rng, 4, 3, 3, 0.9)
        b = Belief.from_dense(rng.dirichlet(np.ones(4)))
        a = int(rng.integers(3))
        total = sum(successor_distributions(m, b, a)[0][o] for o in range(3))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_successor_distributions_consistent(rng):
    m = oracles.random_pomdp(rng, 4, 2, 3, 0.9)
    t, o_dense, _ = oracles.dense_tensors(m)
    b = Belief.from_dense(rng.dirichlet(np.ones(4)))
    for a in range(2):
        probs, posts = successor_distributions(m, b, a)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        for o, post in enumerate(posts):
            expected = oracles.observation_probability_naive(t, o_dense, b.to_dense(), a, o)
            assert probs[o] == pytest.approx(expected, abs=1e-12)
            np.testing.assert_allclose(
                post.to_dense(), belief_update(m, b, a, o).to_dense(), atol=1e-12)


# ---------------------------------------------------------------------------
# expected rewards: expected_rewards_all_actions(...)[a]
# ---------------------------------------------------------------------------

def test_expected_reward_constant():
    t = np.stack([np.eye(2)])
    o = np.full((1, 2, 2), 0.5)
    m = PomdpModel(t, o, np.full((1, 2), 3.25), 0.9, Belief.uniform(2))
    assert expected_rewards_all_actions(m, m.initial_belief)[0] == pytest.approx(3.25)


def test_expected_reward_point_mass(random_model):
    for s in range(random_model.num_states):
        b = Belief.point_mass(s, random_model.num_states)
        for a in range(random_model.num_actions):
            assert expected_rewards_all_actions(random_model, b)[a] == pytest.approx(
                float(random_model.reward[a, s]))


def test_expected_reward_sampling_fifty_fifty_rock_is_zero():
    # rover starting on a rock cell: sampling a rock believed good with
    # probability one half nets 0.5*10 + 0.5*(-10) = 0
    params = RockSampleParams(4, 4, rock_positions=[(0, 2), (3, 0), (1, 3), (2, 1)],
                              rover_start=(0, 2))
    m = gen_rocksample(params)
    sample_action = 4
    rewards = expected_rewards_all_actions(m, m.initial_belief)
    assert rewards[sample_action] == pytest.approx(0.0, abs=1e-12)
