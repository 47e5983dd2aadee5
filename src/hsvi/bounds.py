"""Two-sided bounds on the optimal value function.

The lower bound is a set of action-tagged alpha vectors (its value at a
belief is the max dot product). The upper bound is a set of (belief, value)
points containing all simplex corners; its value is the projection onto the
lower convex hull of the point set, evaluated by LP.

Both representations support a local update at a belief b, read from one
expansion at b (``expand``: each action's successors τ(b,a,o), computed
once): the lower bound gains the gradient-backup vector folded from those
successors, the upper bound gains the point (b, max_a Q(b,a)) and keeps the
expansion, whose successors never change, for pruning to re-value. Each set
is pruned whenever it has grown 10% past its size at the previous pruning.

The upper bound keeps an LP state per support pattern that outlives changes
to the point set: the pattern's constraint columns and up to BASES_KEPT
optimal bases with their inverses. A query starts from the last optimal
basis if it is still feasible, else from the best feasible stored one, else
from the corners (``lp.projection_lp``). All patterns together hold at most
STORE_FLOATS numbers; past that, the least recently queried are dropped.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, ValidationError
from .lp import BasisStore, projection_lp
from .model import expected_rewards_all_actions, successor_distributions

PRUNE_GROWTH = 1.1
POINT_DEDUP_L1 = 1e-9
DOMINATED_SLACK = 1e-9
BASES_KEPT = 64          # (basis, B⁻¹) pairs kept per support pattern
STORE_FLOATS = 2 ** 20   # numbers all patterns' LP state may hold (8 MiB)
MDP_RESIDUAL = 1e-6      # stopping residual of the corner values' value iteration
MDP_MAX_SWEEPS = 10 ** 6


@dataclass(frozen=True)
class AlphaVector:
    """Linear value function over the belief simplex, tagged with the action
    that maximized its backup."""

    values: np.ndarray
    action: int

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 1 or not np.isfinite(values).all():
            raise ValidationError("alpha vector must be a finite 1-d array")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "action", int(self.action))


class LowerBound:
    """Ordered alpha-vector set; value(b) = max over vectors of alpha . b."""

    def __init__(self, num_states):
        self.num_states = num_states
        self._matrix = np.empty((8, num_states))
        self._actions = np.empty(8, dtype=np.int64)
        self._count = 0
        self.size_at_last_prune = 0

    def __len__(self):
        return self._count

    @property
    def matrix(self):
        return self._matrix[: self._count]

    @property
    def actions(self):
        return self._actions[: self._count]

    def add(self, alpha):
        if alpha.values.shape != (self.num_states,):
            raise ValidationError("alpha vector has wrong dimension")
        if self._count == self._matrix.shape[0]:
            self._matrix = np.vstack([self._matrix, np.empty_like(self._matrix)])
            self._actions = np.concatenate([self._actions, np.empty_like(self._actions)])
        self._matrix[self._count] = alpha.values
        self._actions[self._count] = alpha.action
        self._count += 1

    def value(self, b):
        return float((self.matrix[:, b.states] @ b.probs).max())

    def best_index(self, b):
        """Index of the maximizing vector at b (lowest index wins ties)."""
        return int((self.matrix[:, b.states] @ b.probs).argmax())

    def _rewrite(self, keep_indices):
        self._matrix[: len(keep_indices)] = self._matrix[keep_indices]
        self._actions[: len(keep_indices)] = self._actions[keep_indices]
        self._count = len(keep_indices)


class _Pattern:
    """LP state of one support pattern: the interior points whose support lies
    inside it, in insertion order, their constraint columns after the
    pattern's corners, and a BasisStore of that matrix. ``synced`` counts
    the interior points, in insertion order, already examined."""

    __slots__ = ("states", "picked", "columns", "synced", "store")

    def __init__(self, states):
        k = states.size
        self.states = states
        self.picked = np.empty(0, dtype=np.int64)
        self.columns = np.eye(k)
        self.synced = 0
        # a pattern's inverses take at most an eighth of the budget
        self.store = BasisStore(k, min(BASES_KEPT, max(1, STORE_FLOATS // (8 * k * k))))

    @property
    def floats(self):
        return self.columns.size + self.picked.size + self.store.floats

    def append(self, indices, beliefs):
        """Add the columns of interior points ``indices`` of ``beliefs``, all
        later than every point held."""
        block = np.zeros((self.states.size, indices.size))
        for j, i in enumerate(indices):
            block[np.searchsorted(self.states, beliefs[i].states), j] = beliefs[i].probs
        self.columns = np.hstack([self.columns, block])
        self.picked = np.concatenate([self.picked, indices])

    def remove(self, index):
        """Forget interior point ``index`` and renumber the later ones."""
        if index >= self.synced:
            return
        self.synced -= 1
        p = int(np.searchsorted(self.picked, index))
        if p < self.picked.size and self.picked[p] == index:
            self.columns = np.delete(self.columns, self.states.size + p, axis=1)
            self.picked = np.delete(self.picked, p)
            self.store.drop_column(self.states.size + p)
        self.picked[p:] -= 1


class UpperBound:
    """Point set over the belief simplex; all corners are present and permanent.

    Interior points are kept in insertion order, each with the expansion it
    was inserted with; their supports are also concatenated in one array, cut
    by offsets, so that one vectorized pass finds the points whose support
    lies inside a query's. Evaluation restricts the LP to those points: no
    other point can carry weight, and the matching constraints outside the
    query's support are trivially satisfied, so the projection value is
    unchanged. The same pass finds an inserted belief's possible duplicates,
    the points whose support equals its own.
    Queries repeat the same support patterns heavily, so each pattern keeps
    its LP state (``_Pattern``) across changes to the point set. A point
    inserted since the pattern's last query becomes a new column at its next
    query, which leaves every stored basis primal feasible; a removed
    point's column is deleted at once, with the stored bases that use it,
    and the later columns are renumbered in the others. Values are not
    kept: they are read afresh on every query, because ``add_point`` and
    ``prune_upper`` lower stored values in place.
    """

    def __init__(self, corner_values):
        corner_values = np.ascontiguousarray(corner_values, dtype=np.float64)
        if corner_values.ndim != 1 or not np.isfinite(corner_values).all():
            raise ValidationError("corner values must be a finite 1-d array")
        self.num_states = corner_values.size
        self.corner_values = corner_values
        self._beliefs = []
        self._expansions = []
        self._value_arr = np.empty(0)
        self._supports = np.empty(0, dtype=np.int64)
        self._offsets = np.zeros(1, dtype=np.int64)
        self._patterns = {}   # support bytes -> _Pattern, least recently queried first
        self._held = 0        # numbers the patterns hold
        self.size_at_last_prune = self.num_points

    @property
    def num_points(self):
        return self.num_states + len(self._beliefs)

    @property
    def interior_points(self):
        return [(b, float(v)) for b, v in zip(self._beliefs, self._value_arr)]

    def _inside(self, states, start=0):
        """Indices, in insertion order, of the interior points from ``start``
        on whose support lies inside ``states``."""
        if start == len(self._beliefs):
            return np.empty(0, dtype=np.int64)
        inside = np.zeros(self.num_states, dtype=bool)
        inside[states] = True
        offsets = self._offsets[start:-1]
        return start + np.flatnonzero(np.logical_and.reduceat(
            inside[self._supports[offsets[0]:]], offsets - offsets[0]))

    def _project(self, b):
        """The hull LP's answer at b, from the LP state of b's support."""
        key = b.states.tobytes()
        pattern = self._patterns.pop(key, None)
        if pattern is None:
            pattern = _Pattern(b.states)
            held = 0
        else:
            held = pattern.floats
        self._patterns[key] = pattern
        new = self._inside(b.states, pattern.synced)
        pattern.synced = len(self._beliefs)
        if new.size:
            pattern.append(new, self._beliefs)
        values = np.concatenate([self.corner_values[b.states], self._value_arr[pattern.picked]])
        solution = projection_lp(pattern.columns.T, values, b.probs, pattern.store)
        self._held += pattern.floats - held
        while self._held > STORE_FLOATS and len(self._patterns) > 1:
            self._held -= self._patterns.pop(next(iter(self._patterns))).floats
        return solution

    def value(self, b):
        if len(b) == 1:
            return float(self.corner_values[b.states[0]])
        return self._project(b).value

    def add_point(self, b, value, expansion):
        """Insert (b, value) with its ``expand`` result, folding duplicates.

        A point-mass belief lowers the stored corner value instead of adding
        an interior point, keeping corner evaluation exact. A belief within
        L1 distance 1e-9 of an existing interior point replaces that point's
        value if lower, else is discarded; that point keeps its expansion.
        A point set that is never pruned may pass None as the expansion.
        """
        value = float(value)
        if len(b) == 1:
            s = int(b.states[0])
            if value < self.corner_values[s]:
                self.corner_values[s] = value
            return
        for i in self._inside(b.states):
            # inside b's support and as long: the same support
            point = self._beliefs[i]
            if len(point) == len(b) and np.abs(point.probs - b.probs).sum() <= POINT_DEDUP_L1:
                if value < self._value_arr[i]:
                    self._value_arr[i] = value
                return
        self._value_arr = np.append(self._value_arr, value)
        self._supports = np.concatenate([self._supports, b.states])
        self._offsets = np.append(self._offsets, self._supports.size)
        self._beliefs.append(b)
        self._expansions.append(expansion)

    def _remove_interior(self, index):
        del self._beliefs[index]
        del self._expansions[index]
        self._value_arr = np.delete(self._value_arr, index)
        start, end = self._offsets[index], self._offsets[index + 1]
        self._supports = np.delete(self._supports, np.s_[start:end])
        self._offsets = np.delete(self._offsets, index + 1)
        self._offsets[index + 1:] -= end - start
        for pattern in self._patterns.values():
            self._held -= pattern.floats
            pattern.remove(index)
            self._held += pattern.floats


@dataclass
class BoundsPair:
    """Mutable pair of bounds driven by one writer at a time."""

    lower: LowerBound
    upper: UpperBound


# -- initialization ----------------------------------------------------------


def init_lower(model):
    """Blind-policy lower bound: one constant vector.

    Repeating a fixed action a forever earns at least min_s R(s,a) each step
    regardless of state, so max_a min_s R(s,a) / (1 - discount) is a sound
    floor on the optimal value everywhere.
    """
    per_action_floor = model.reward.min(axis=1) / (1.0 - model.discount)
    best_action = int(per_action_floor.argmax())
    lb = LowerBound(model.num_states)
    lb.add(AlphaVector(np.full(model.num_states, per_action_floor[best_action]), best_action))
    return lb


def mdp_value_iteration(model):
    """Value of the fully observable relaxation, converged from above to
    MDP_RESIDUAL within MDP_MAX_SWEEPS sweeps.

    Starting at max R / (1 - discount) keeps every sweep an upper bound on
    the MDP optimum (and hence on the POMDP optimum at simplex corners), so
    stopping at any residual never breaks validity.
    """
    gamma = model.discount
    v = np.full(model.num_states, model.reward.max() / (1.0 - gamma))
    for _ in range(MDP_MAX_SWEEPS):
        q = np.stack([model.reward[a] + gamma * (model.transition[a] @ v)
                      for a in range(model.num_actions)])
        new = q.max(axis=0)
        if np.abs(new - v).max() <= MDP_RESIDUAL:
            return new
        v = new
    raise NoConvergence(f"MDP value iteration did not reach residual {MDP_RESIDUAL}")


def init_upper(model):
    """Upper bound from full observability: corner s holds the MDP value of s."""
    return UpperBound(mdp_value_iteration(model))


def init_bounds(model):
    return BoundsPair(init_lower(model), init_upper(model))


# -- one-step lookahead ------------------------------------------------------


class Branch(NamedTuple):
    """One action's successors at a belief: the expected immediate reward
    Σ_s R(s,a) b(s), Pr(o|b,a), τ(b,a,o) (None where the observation has
    ~zero probability), each child's value, and Q(b,a)."""

    reward: float
    obs_probs: np.ndarray
    posteriors: list
    values: list
    q: float


def expand(model, value, b):
    """One-step lookahead at b against the value function ``value``.

    Returns one Branch per action, with
    Q(b,a) = Σ_s R(s,a) b(s) + discount * Σ_o Pr(o|b,a) V(τ(b,a,o)), the
    observation sum restricted to observations of positive probability. Each
    action's successors are computed once and each child is valued once, so
    the action choice, the observation choice and the update at b all share
    one expansion.
    """
    immediate = expected_rewards_all_actions(model, b)
    return revalue(model, value, [(immediate[a], *successor_distributions(model, b, a))
                                  for a in range(model.num_actions)])


def revalue(model, value, expansion):
    """One Branch per action, valued by ``value``, from each action's
    (reward, obs_probs, posteriors), the leading fields of a Branch. No
    kernel runs: re-valuing an ``expand`` result gives bit for bit the Q
    values that expanding its belief afresh against ``value`` would give."""
    branches = []
    for reward, obs_probs, posteriors, *_ in expansion:
        values = [None if posterior is None else value(posterior) for posterior in posteriors]
        future = 0.0
        for prob, child in zip(obs_probs, values):
            if child is not None:
                future += prob * child
        branches.append(Branch(reward, obs_probs, posteriors, values,
                               reward + model.discount * future))
    return branches


# -- local updates -----------------------------------------------------------


def backup_lower(model, lb, b, expansion):
    """Gradient backup at b: a new alpha vector supporting the Bellman value.

    ``expansion`` is an ``expand`` result at b; only its posteriors are read,
    and they do not depend on the value function it was built against. For
    each action, the best vector of the current lower bound is selected at
    every positive-probability successor belief and folded back through the
    model; the returned vector is the per-action candidate with the largest
    value at b, so beta . b = max_a Q(b,a) against the current lower bound.
    Zero-probability observations are skipped; they carry no weight at b.
    """
    gamma = model.discount
    matrix = lb.matrix
    best_vector = None
    best_score = -np.inf
    best_action = 0
    for a, branch in enumerate(expansion):
        folded = np.zeros(model.num_states)
        for o, posterior in enumerate(branch.posteriors):
            if posterior is not None:
                folded += model.observation[a][:, o] * matrix[lb.best_index(posterior)]
        candidate = model.reward[a] + gamma * (model.transition[a] @ folded)
        score = b.dot(candidate)
        if score > best_score:
            best_score = score
            best_vector = candidate
            best_action = a
    return AlphaVector(best_vector, best_action)


def apply_update(model, bounds, b, expansion, deadline=math.inf):
    """Update both bounds at b from one upper-bound expansion at b.

    The lower bound gains the backup vector folded from the expansion's
    posteriors against the lower bound as it stands now; the upper bound
    gains the point (b, max Q of the expansion) and keeps the expansion. The
    search passes the expansion its descent made, so no successor is
    computed twice; a fresh update at b is
    ``apply_update(model, bounds, b, expand(model, bounds.upper.value, b))``.
    A pruning pass this update starts ends at ``deadline``, a
    ``time.monotonic()`` value; the default, ``math.inf``, never ends one.
    """
    bounds.lower.add(backup_lower(model, bounds.lower, b, expansion))
    if len(bounds.lower) >= PRUNE_GROWTH * bounds.lower.size_at_last_prune:
        prune_lower(bounds.lower)
    bounds.upper.add_point(b, max(branch.q for branch in expansion), expansion)
    if bounds.upper.num_points >= PRUNE_GROWTH * bounds.upper.size_at_last_prune:
        prune_upper(model, bounds.upper, deadline)
    return bounds


# -- pruning -----------------------------------------------------------------


def prune_lower(lb):
    """Drop vectors pointwise dominated by an earlier surviving vector.

    Earlier survivors are never re-examined (they already survived the same
    prefix), so only vectors added since the last pruning need checking. The
    bound is unchanged as a function: removed vectors were nowhere best.
    """
    matrix = lb.matrix
    keep = list(range(lb.size_at_last_prune))
    for i in range(lb.size_at_last_prune, len(lb)):
        if keep and bool(np.any(np.all(matrix[keep] >= matrix[i], axis=1))):
            continue
        keep.append(i)
    lb._rewrite(np.asarray(keep, dtype=np.int64))
    lb.size_at_last_prune = len(lb)
    return lb


def prune_upper(model, ub, deadline=math.inf):
    """Drop or refresh interior points dominated by their own Bellman value.

    Points strictly above the hull at their own belief are dominated (the
    Bellman value sits at or below the hull, by uniform improvability) and
    provably carry no weight in any projection, so they are simply removed;
    the bound is unchanged as a function. A hull-carrying point whose Bellman
    value is lower than its stored value is dominated too, but deleting it
    outright would raise the hull there, so its value is replaced by the
    Bellman value instead: the stale value disappears and the bound only
    moves down. Points are processed in insertion order against the live set
    (which always contains the point under test). A Bellman value is the
    point's stored expansion re-valued, so pruning runs no belief kernel.

    Each removal and each refresh is sound on its own, so a pass may stop
    anywhere: once ``time.monotonic()`` passes ``deadline`` (``math.inf``,
    the default, never passes), it ends before the next point, the points
    it has not reached keep their values, and the size at the last pruning
    is left as it was.
    """
    index = 0
    while index < len(ub._beliefs):
        if time.monotonic() > deadline:
            return ub
        b = ub._beliefs[index]
        v = float(ub._value_arr[index])
        if ub.value(b) < v - DOMINATED_SLACK:
            ub._remove_interior(index)
            continue
        bellman = max(branch.q for branch in revalue(model, ub.value, ub._expansions[index]))
        if bellman < v - DOMINATED_SLACK:
            ub._value_arr[index] = bellman
        index += 1
    ub.size_at_last_prune = ub.num_points
    return ub
