"""Closed-loop Monte Carlo evaluation of a direct-control policy.

The policy executes, at every belief, the action tag of the alpha vector that
maximizes the lower bound there. Each episode draws from its own stream,
seeded from (seed, episode index, retry), so an episode's return does not
depend on the episodes run before it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, ValidationError, ZeroProbabilityObservation
from .model import belief_update

CI95_FACTOR = 1.96
MAX_EPISODE_RETRIES = 64


@dataclass
class EvalConfig:
    num_episodes: int = 500
    horizon: int = 251
    seed: int = 0
    discounted: bool = True

    def __post_init__(self):
        if self.num_episodes < 1 or self.horizon < 1:
            raise InvalidParams("need num_episodes >= 1 and horizon >= 1")


@dataclass
class EvalResult:
    """Mean return with a 95% normal confidence interval.

    stderr_defined is False for a single episode, where the sample standard
    error does not exist; both stderr and the half-width are then reported
    as 0. truncation_bound caps how much return the horizon cutoff can hide
    (discount^horizon * max |R| / (1 - discount)); it is infinite in
    undiscounted mode. aborted_episodes counts restarts caused by numerically
    impossible observations, which indicate an inconsistent model.
    """

    mean: float
    stderr: float
    ci95_half_width: float
    returns: np.ndarray
    stderr_defined: bool
    truncation_bound: float
    aborted_episodes: int


def policy_action(lb, b):
    """Action tag of the vector maximizing the lower bound at b (lowest
    vector index wins ties)."""
    return int(lb.actions[lb.best_index(b)])


def _sample(rng, cumulative):
    return int(np.searchsorted(cumulative, rng.random() * cumulative[-1], side="right"))


def _run_episode(model, lb, config, rng, absorbing):
    gamma = model.discount
    b = model.initial_belief
    state = int(b.states[_sample(rng, np.cumsum(b.probs))])
    total = 0.0
    weight = 1.0
    for _ in range(config.horizon):
        if absorbing[state]:
            break
        action = policy_action(lb, b)
        total += weight * model.reward[action, state]
        if config.discounted:
            weight *= gamma
        transition = model.transition[action]
        lo, hi = transition.indptr[state], transition.indptr[state + 1]
        state = int(transition.indices[lo + _sample(rng, np.cumsum(transition.data[lo:hi]))])
        obs = _sample(rng, np.cumsum(model.observation[action, state]))
        b = belief_update(model, b, action, obs)
    return total


def _run_episodes(model, lb, config):
    absorbing = model.absorbing_zero_reward_states()
    returns = np.empty(config.num_episodes)
    aborted = 0
    for episode in range(config.num_episodes):
        for retry in range(MAX_EPISODE_RETRIES):
            rng = np.random.default_rng([config.seed, episode, retry])
            try:
                returns[episode] = _run_episode(model, lb, config, rng, absorbing)
                break
            except ZeroProbabilityObservation:
                aborted += 1
        else:
            raise ZeroProbabilityObservation(
                f"episode {episode} kept collapsing after {MAX_EPISODE_RETRIES} retries")
    return returns, aborted


def evaluate(model, lb, config):
    """Run config.num_episodes independent episodes of the policy ``lb`` and
    summarize. The policy must hold a vector, over the model's states, and
    tag only the model's actions."""
    if not len(lb):
        raise ValidationError("the policy holds no alpha vector")
    if lb.num_states != model.num_states:
        raise ValidationError(f"policy has |S|={lb.num_states}, model has "
                              f"|S|={model.num_states}")
    if (lb.actions >= model.num_actions).any():
        raise ValidationError("policy references actions the model does not have")
    returns, aborted = _run_episodes(model, lb, config)

    mean = float(returns.mean())
    if config.num_episodes > 1:
        stderr = float(returns.std(ddof=1) / np.sqrt(config.num_episodes))
        defined = True
    else:
        stderr = 0.0
        defined = False
    if config.discounted:
        gamma = model.discount
        truncation = float(gamma ** config.horizon * np.abs(model.reward).max()
                           / (1.0 - gamma))
    else:
        truncation = float("inf")
    return EvalResult(
        mean=mean,
        stderr=stderr,
        ci95_half_width=CI95_FACTOR * stderr,
        returns=returns,
        stderr_defined=defined,
        truncation_bound=truncation,
        aborted_episodes=aborted,
    )
