"""Finite discounted POMDP model and the exact belief-space probability kernel.

Layout conventions (action-major, row-major):
    transition[a]   sparse (S, S) matrix, entry [s, s'] = T(s, a, s')
    observation[a]  dense  (S, O) matrix, entry [s', o] = O(s', a, o)
    reward[a]       dense  (S,)   vector, entry [s]     = R(s, a)

Models and beliefs are immutable after construction; every function here is
pure, so instances can be shared freely across threads.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import ValidationError, ZeroProbabilityObservation

# Stochasticity tolerance for row sums and belief mass.
PROB_TOL = 1e-9
# Belief entries below this mass (after normalization) are dropped.
MASS_FLOOR = 1e-12
# Unnormalized posterior mass at or below this counts as an impossible observation.
ZERO_MASS = 1e-300


class Belief:
    """Sparse probability distribution over states.

    Stored as a sorted index array plus matching mass array; states carrying
    less than ``MASS_FLOOR`` are dropped and the rest renormalized. Arrays are
    read-only.
    """

    __slots__ = ("num_states", "states", "probs")

    def __init__(self, num_states, states, probs):
        states = np.asarray(states, dtype=np.int64)
        probs = np.asarray(probs, dtype=np.float64)
        if states.ndim != 1 or probs.shape != states.shape:
            raise ValidationError("belief needs matching 1-d state/mass arrays")
        order = np.argsort(states, kind="stable")
        states = states[order]
        probs = probs[order]
        if states.size:
            if states[0] < 0 or states[-1] >= num_states:
                raise ValidationError("belief state index out of range")
            if np.any(np.diff(states) == 0):
                raise ValidationError("belief has duplicate state indices")
        if not np.all(np.isfinite(probs)):
            raise ValidationError("belief has non-finite mass")
        if np.any(probs < -PROB_TOL):
            raise ValidationError("belief has negative mass")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"belief mass sums to {total!r}, expected 1")
        keep = probs > MASS_FLOOR
        states, probs = states[keep], probs[keep]
        if states.size == 0:
            raise ValidationError("belief lost all mass after flooring")
        probs = probs / probs.sum()
        self._init_raw(num_states, states, probs)

    def _init_raw(self, num_states, states, probs):
        states.setflags(write=False)
        probs.setflags(write=False)
        self.num_states = num_states
        self.states = states
        self.probs = probs

    @classmethod
    def _trusted(cls, num_states, states, probs):
        """Fast path for internally produced, already clean distributions."""
        b = cls.__new__(cls)
        b._init_raw(num_states, states, probs)
        return b

    @classmethod
    def point_mass(cls, state, num_states):
        return cls._trusted(num_states, np.array([state], dtype=np.int64), np.ones(1))

    @classmethod
    def uniform(cls, num_states):
        return cls._trusted(
            num_states,
            np.arange(num_states, dtype=np.int64),
            np.full(num_states, 1.0 / num_states),
        )

    @classmethod
    def from_dense(cls, vector):
        vector = np.asarray(vector, dtype=np.float64)
        states = np.flatnonzero(vector != 0.0)
        return cls(vector.size, states, vector[states])

    def to_dense(self):
        out = np.zeros(self.num_states)
        out[self.states] = self.probs
        return out

    def dot(self, dense_vector):
        """Expectation of a dense per-state vector under this belief."""
        return float(dense_vector[self.states] @ self.probs)

    def __len__(self):
        return self.states.size

    def __repr__(self):
        pairs = ", ".join(f"{s}:{p:.4g}" for s, p in zip(self.states, self.probs))
        return f"Belief({pairs})"


def _as_sparse_actions(tensor, num_actions, shape):
    """Normalize per-action matrices to a tuple of float64 CSR arrays."""
    if isinstance(tensor, np.ndarray):
        if tensor.shape != (num_actions, *shape):
            raise ValidationError(f"expected shape {(num_actions, *shape)}, got {tensor.shape}")
        return tuple(sparse.csr_array(tensor[a].astype(np.float64)) for a in range(num_actions))
    mats = list(tensor)
    if len(mats) != num_actions:
        raise ValidationError("need one transition matrix per action")
    out = []
    for m in mats:
        m = sparse.csr_array(m, dtype=np.float64)
        if m.shape != shape:
            raise ValidationError(f"transition matrix shape {m.shape}, expected {shape}")
        out.append(m)
    return tuple(out)


class PomdpModel:
    """Immutable ⟨states, actions, observations, T, O, R, discount, b0⟩ tuple.

    ``transition`` accepts a dense (A, S, S) array or a sequence of per-action
    (S, S) matrices (dense or scipy sparse); it is stored per-action CSR so the
    largest benchmark instances fit in memory and row iteration stays cheap.
    """

    __slots__ = (
        "num_states", "num_actions", "num_observations",
        "transition", "observation", "reward", "discount", "initial_belief",
        "state_names", "action_names", "observation_names",
    )

    def __init__(self, transition, observation, reward, discount, initial_belief,
                 state_names=None, action_names=None, observation_names=None):
        observation = np.ascontiguousarray(observation, dtype=np.float64)
        reward = np.ascontiguousarray(reward, dtype=np.float64)
        if observation.ndim != 3 or reward.ndim != 2:
            raise ValidationError("observation must be (A,S,O), reward must be (A,S)")
        num_actions, num_states, num_observations = observation.shape
        if reward.shape != (num_actions, num_states):
            raise ValidationError("reward shape does not match observation tensor")
        transition = _as_sparse_actions(transition, num_actions, (num_states, num_states))

        observation.setflags(write=False)
        reward.setflags(write=False)
        self.num_states = num_states
        self.num_actions = num_actions
        self.num_observations = num_observations
        self.transition = transition
        self.observation = observation
        self.reward = reward
        self.discount = float(discount)
        self.initial_belief = initial_belief
        self.state_names = list(state_names) if state_names else None
        self.action_names = list(action_names) if action_names else None
        self.observation_names = list(observation_names) if observation_names else None
        self._validate()

    def _validate(self):
        if not 0.0 <= self.discount < 1.0:
            raise ValidationError(f"discount {self.discount} outside [0, 1)")
        ones = np.ones(self.num_states)
        for a, t in enumerate(self.transition):
            if not np.all(np.isfinite(t.data)):
                raise ValidationError(f"transition probabilities for action {a} are not finite")
            if t.nnz and (t.data.min() < -PROB_TOL or t.data.max() > 1.0 + PROB_TOL):
                raise ValidationError(f"transition probabilities for action {a} outside [0,1]")
            rows = t @ ones
            if np.abs(rows - 1.0).max() > PROB_TOL:
                bad = int(np.abs(rows - 1.0).argmax())
                raise ValidationError(
                    f"transition rows must sum to 1: action {a}, state {bad} sums to {rows[bad]!r}")
        if not np.all(np.isfinite(self.observation)):
            raise ValidationError("observation probabilities are not finite")
        if not np.all(np.isfinite(self.reward)):
            raise ValidationError("rewards are not finite")
        if self.observation.min() < -PROB_TOL or self.observation.max() > 1.0 + PROB_TOL:
            raise ValidationError("observation probabilities outside [0,1]")
        obs_rows = self.observation.sum(axis=2)
        if np.abs(obs_rows - 1.0).max() > PROB_TOL:
            a, s = np.unravel_index(np.abs(obs_rows - 1.0).argmax(), obs_rows.shape)
            raise ValidationError(
                f"observation rows must sum to 1: action {a}, state {s} sums to {obs_rows[a, s]!r}")
        if not isinstance(self.initial_belief, Belief):
            raise ValidationError("initial_belief must be a Belief")
        if self.initial_belief.num_states != self.num_states:
            raise ValidationError("initial_belief dimension does not match model")
        for label, names, n in (("state", self.state_names, self.num_states),
                                ("action", self.action_names, self.num_actions),
                                ("observation", self.observation_names, self.num_observations)):
            if names is not None and len(names) != n:
                raise ValidationError(f"{label} name list has wrong length")

    # -- convenience accessors -------------------------------------------

    def absorbing_zero_reward_states(self):
        """Boolean (S,) mask of states with T(s,a,s)=1 and R(s,a)=0 for all a."""
        mask = np.all(self.reward == 0.0, axis=0)
        for t in self.transition:
            mask &= t.diagonal() == 1.0
        return mask

    def __repr__(self):
        return (f"PomdpModel(|S|={self.num_states}, |A|={self.num_actions}, "
                f"|O|={self.num_observations}, discount={self.discount})")


# -- probability kernel ----------------------------------------------------


def _predicted(model, b, a):
    """Pre-observation next-state distribution: pred(s') = Σ_s T(s,a,s') b(s)."""
    rows = model.transition[a][b.states]
    return rows.T @ b.probs


def belief_update(model, b, a, o):
    """Bayes posterior τ(b, a, o): b'(s') ∝ O(s',a,o) · Σ_s T(s,a,s') b(s).

    Raises ZeroProbabilityObservation when the unnormalized mass is ~0,
    i.e. the observation is impossible under (b, a).
    """
    unnorm = _predicted(model, b, a) * model.observation[a, :, o]
    mass = unnorm.sum()
    if mass <= ZERO_MASS:
        raise ZeroProbabilityObservation(
            f"observation {o} has zero probability after action {a}")
    posterior = unnorm / mass
    states = np.flatnonzero(posterior > MASS_FLOOR)
    probs = posterior[states]
    return Belief._trusted(model.num_states, states, probs / probs.sum())


def expected_rewards_all_actions(model, b):
    """Vector of Σ_s R(s,a) b(s) over all actions in one shot."""
    return model.reward[:, b.states] @ b.probs


def successor_distributions(model, b, a):
    """All (a,·)-successors at once.

    Returns ``(obs_probs, posteriors)`` where ``obs_probs[o] = Pr(o|b,a)`` and
    ``posteriors[o]`` is τ(b,a,o), or None for observations of ~zero
    probability. One pass over the predicted distribution, so callers that
    need every child (backups, heuristics) avoid |O| separate updates.
    """
    pred = _predicted(model, b, a)
    support = np.flatnonzero(pred > 0.0)
    unnorm = pred[support, None] * model.observation[a][support]       # (k, O)
    obs_probs = unnorm.sum(axis=0)
    posteriors = []
    for o in range(model.num_observations):
        if obs_probs[o] <= ZERO_MASS:
            obs_probs[o] = 0.0
            posteriors.append(None)
            continue
        probs = unnorm[:, o] / obs_probs[o]
        keep = probs > MASS_FLOOR
        kept = probs[keep]
        posteriors.append(Belief._trusted(model.num_states, support[keep], kept / kept.sum()))
    return obs_probs, posteriors
