"""Forward-search driver that tightens the bounds until the gap at the
initial belief closes.

Each top-level trial follows a single path down the search tree: actions are
chosen by the highest upper-bound Q value, observations by the largest
probability-weighted excess uncertainty, and the bounds are locally updated
at every visited belief on the way back up. The search is an iterative loop
(a descent that records the path, then the updates in reverse order), so its
depth is not limited by the interpreter's stack. Each visited belief is
expanded once: the descent's expansion picks the action and the observation,
and the update at that belief reads the same expansion. Updates are in place
(Gauss-Seidel) and the whole run is deterministic.
"""

from __future__ import annotations

import csv
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import apply_update, expand, init_bounds
from .errors import DepthCapExceeded, InvalidParams
from .fileio import open_sink

DEPTH_MARGIN = 2          # slack past the theoretical cap before declaring a bug
MACHINE_WIDTH = 1e-9      # anytime stops once the gap is numerically closed
ZETA = 0.95               # the paper's anytime factor: a trial aims at ZETA * width(b0)

log = logging.getLogger(__name__)


@dataclass
class SolverConfig:
    """Knobs for solve / solve_anytime.

    epsilon            target regret bound. solve aims every trial at it;
                       solve_anytime aims each trial at ZETA times the
                       current width at the initial belief and stops once
                       the width is within epsilon.
    timeout_s          wall-clock budget; None means unbounded, a deadline
                       of math.inf. The deadline is checked before each
                       expansion, each update and each point of a pruning
                       pass.
    max_trials         cap on top-level trials; None means unbounded.
    audit_num_beliefs  number of fixed random beliefs whose bound values are
                       recorded every trial (invariant checking).
    audit_seed         seed of those beliefs.
    """

    epsilon: float = 1e-3
    timeout_s: float | None = None
    max_trials: int | None = None
    audit_num_beliefs: int = 0
    audit_seed: int = 0

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise InvalidParams("epsilon must be positive")


@dataclass
class SolveTrace:
    """Per-trial time series. Row 0 is recorded right after initialization."""

    trial: list = field(default_factory=list)
    wall_time_s: list = field(default_factory=list)
    lower_b0: list = field(default_factory=list)
    upper_b0: list = field(default_factory=list)
    width: list = field(default_factory=list)
    num_vectors: list = field(default_factory=list)
    num_points: list = field(default_factory=list)
    updates: list = field(default_factory=list)
    max_depth: list = field(default_factory=list)
    audit_lower: list = field(default_factory=list)
    audit_upper: list = field(default_factory=list)

    COLUMNS = ("trial", "wall_time_s", "lower_b0", "upper_b0", "width",
               "num_vectors", "num_points", "updates", "max_depth")

    def append(self, **kwargs):
        for name in self.COLUMNS:
            getattr(self, name).append(kwargs.pop(name))
        self.audit_lower.append(kwargs.pop("audit_lower"))
        self.audit_upper.append(kwargs.pop("audit_upper"))
        assert not kwargs

    def __len__(self):
        return len(self.trial)

    def write_csv(self, sink):
        """Write the columns as CSV to a writable handle or a path."""
        with open_sink(sink, newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.COLUMNS)
            for i in range(len(self)):
                writer.writerow([
                    self.trial[i], f"{self.wall_time_s[i]:.6f}",
                    f"{self.lower_b0[i]:.10g}", f"{self.upper_b0[i]:.10g}",
                    f"{self.width[i]:.10g}", self.num_vectors[i],
                    self.num_points[i], self.updates[i], self.max_depth[i],
                ])


@dataclass
class SolveResult:
    bounds: object
    trace: SolveTrace
    terminated_by: str            # "epsilon-reached" | "timeout" | "trial-cap"
    final_width: float
    epsilon: float
    t_max: int                    # depth cap of the last trial
    u_max: int                    # update bound implied by that cap (reported, not enforced)
    total_updates: int
    audit_beliefs: list


def depth_bound(epsilon, initial_gap, gamma):
    """Depth past which every node is already finished.

    ceil(log_gamma(epsilon / initial_gap)): below that depth the termination
    threshold epsilon * gamma^-t already exceeds the largest possible width.
    """
    if initial_gap <= epsilon or initial_gap <= 0.0 or gamma == 0.0:
        return 0
    return max(0, math.ceil(math.log(epsilon / initial_gap) / math.log(gamma)))


def update_bound(t_max, num_actions, num_observations):
    """Worst-case number of local updates for a fixed-epsilon run: every trial
    finishes at least one node and the tree above the depth cap is finite."""
    branching = int(num_actions) * int(num_observations)
    t_max = int(t_max)
    if branching == 1:
        return t_max * (t_max + 1)
    return t_max * (branching ** (t_max + 1) - 1) // (branching - 1)


def choose_action(expansion):
    """IE-MAX: the action with the highest Q in an upper-bound expansion
    (lowest index on ties). Chasing the optimistic bound is what guarantees
    that a suboptimal choice is eventually found out."""
    qs = [branch.q for branch in expansion]
    return qs.index(max(qs))


def choose_observation(model, bounds, branch, epsilon, t):
    """Child of ``branch`` whose probability-weighted excess uncertainty is
    largest.

    ``branch`` is the chosen action's entry of the upper-bound expansion at a
    belief of depth t, so its child values are upper-bound values.
    excess(b', t+1) = width(b') - epsilon * gamma^-(t+1); a child with
    non-positive excess is finished. Returns None when every positive-
    probability child is finished.
    """
    gamma = model.discount
    child_target = math.inf if gamma == 0.0 else epsilon * gamma ** (-(t + 1))
    best_o = None
    best_weight = 0.0
    for o, posterior in enumerate(branch.posteriors):
        if posterior is None:
            continue
        excess = branch.values[o] - bounds.lower.value(posterior) - child_target
        weighted = branch.obs_probs[o] * excess
        if weighted > best_weight:
            best_weight = weighted
            best_o = o
    return best_o


def _trial(model, bounds, epsilon, t_max, deadline, width):
    """The paper's explore(b0, epsilon, 0), the trial from the initial belief:
    (updates, deepest depth, timed out).

    ``width`` is the current gap between the bounds at b0; the trial does
    nothing when it is within epsilon, the target at the root. The descent
    expands each belief once against the upper bound, follows choose_action
    and choose_observation, and stops at the first node whose children are
    all finished; a child that choose_observation picks is unfinished by
    construction. Then every belief on the path is updated, deepest first,
    from the expansion the descent made there. The deadline (a
    ``time.monotonic()`` value, ``math.inf`` for none) is checked before
    each expansion and before each update, and a pruning pass an update
    starts ends at it; a trial cut there keeps, and counts, the updates it
    has already applied, each of which is sound on its own.
    """
    b = model.initial_belief
    t = 0
    path = []
    if width > epsilon:
        while True:
            if t > t_max + DEPTH_MARGIN:
                raise DepthCapExceeded(
                    f"exploration reached depth {t} > cap {t_max} + {DEPTH_MARGIN}")
            if time.monotonic() > deadline:
                return 0, t, True
            expansion = expand(model, bounds.upper.value, b)
            branch = expansion[choose_action(expansion)]
            path.append((b, expansion))
            o_star = choose_observation(model, bounds, branch, epsilon, t)
            if o_star is None:
                break
            b = branch.posteriors[o_star]
            t += 1
    for updates, (b, expansion) in enumerate(reversed(path)):
        if time.monotonic() > deadline:
            return updates, t, True
        apply_update(model, bounds, b, expansion, deadline)
    return len(path), t, False


def _audit_beliefs_for(model, config):
    if config.audit_num_beliefs <= 0:
        return []
    from .model import Belief

    rng = np.random.default_rng(config.audit_seed)
    draws = rng.dirichlet(np.ones(model.num_states), size=config.audit_num_beliefs)
    return [Belief.from_dense(row) for row in draws]


def solve(model, config):
    """Run trials at the fixed target until width at the initial belief drops
    to epsilon (or a timeout / trial cap intervenes)."""
    return _drive(model, config, anytime=False)


def solve_anytime(model, config):
    """Anytime variant: each trial aims at ZETA times the current width at the
    initial belief, so interrupting at any point yields a policy whose regret
    is bounded by that width."""
    return _drive(model, config, anytime=True)


def _drive(model, config, anytime):
    bounds = init_bounds(model)
    b0 = model.initial_belief
    gamma = model.discount

    # Sup-norm bound on the initial gap: the hull never exceeds its largest
    # corner and the vector bound never drops below its best row minimum.
    gap0 = float(bounds.upper.corner_values.max() - bounds.lower.matrix.min(axis=1).max())
    audit_beliefs = _audit_beliefs_for(model, config)
    final_target = max(config.epsilon, MACHINE_WIDTH) if anytime else config.epsilon

    start = time.monotonic()
    deadline = math.inf if config.timeout_s is None else start + config.timeout_s

    trace = SolveTrace()
    total_updates = 0
    t_max = depth_bound(config.epsilon, gap0, gamma)

    def record(trial, depth):
        lower_b0 = bounds.lower.value(b0)
        upper_b0 = bounds.upper.value(b0)
        trace.append(
            trial=trial,
            wall_time_s=time.monotonic() - start,
            lower_b0=lower_b0,
            upper_b0=upper_b0,
            width=upper_b0 - lower_b0,
            num_vectors=len(bounds.lower),
            num_points=bounds.upper.num_points,
            updates=total_updates,
            max_depth=depth,
            audit_lower=np.array([bounds.lower.value(ab) for ab in audit_beliefs]),
            audit_upper=np.array([bounds.upper.value(ab) for ab in audit_beliefs]),
        )

    record(0, 0)
    trial = 0
    terminated_by = None
    while True:
        width = trace.width[-1]
        if width <= final_target:
            terminated_by = "epsilon-reached"
            break
        if config.max_trials is not None and trial >= config.max_trials:
            terminated_by = "trial-cap"
            break
        if time.monotonic() > deadline:
            terminated_by = "timeout"
            break
        trial_epsilon = max(ZETA * width, MACHINE_WIDTH) if anytime else config.epsilon
        t_max = depth_bound(trial_epsilon, gap0, gamma)
        updates, depth, timed_out = _trial(model, bounds, trial_epsilon, t_max, deadline, width)
        total_updates += updates
        if timed_out:
            record(trial + 1, depth)
            terminated_by = "timeout"
            break
        trial += 1
        record(trial, depth)
        log.debug("trial %d: width %.6g, |vectors|=%d, |points|=%d, depth %d",
                  trial, trace.width[-1], len(bounds.lower),
                  bounds.upper.num_points, depth)

    final_width = trace.width[-1]
    log.info("%s after %d trials, %d updates: width %.6g",
             terminated_by, trial, total_updates, final_width)
    return SolveResult(
        bounds=bounds,
        trace=trace,
        terminated_by=terminated_by,
        final_width=final_width,
        epsilon=config.epsilon,
        t_max=t_max,
        u_max=update_bound(t_max, model.num_actions, model.num_observations),
        total_updates=total_updates,
        audit_beliefs=audit_beliefs,
    )

