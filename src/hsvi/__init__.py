"""Discounted-POMDP planning with two-sided value bounds.

The planner keeps a vector-set lower bound and a point-set upper bound on the
optimal value function, tightens them with local updates at beliefs chosen by
forward search, and stops when the gap at the initial belief is below the
requested regret bound. Model parsing, a RockSample benchmark generator, a
dense LP kernel, and a Monte Carlo policy evaluator round out the toolkit.
"""

from .bounds import (
    AlphaVector,
    BoundsPair,
    LowerBound,
    UpperBound,
    backup_lower,
    expand,
    init_bounds,
    init_lower,
    init_upper,
    local_update,
    mdp_value_iteration,
    prune_lower,
    prune_upper,
)
from .errors import (
    DepthCapExceeded,
    HsviError,
    InvalidParams,
    LpFailure,
    MaxIterations,
    NoConvergence,
    ParseError,
    Unbounded,
    ValidationError,
    ZeroProbabilityObservation,
)
from .evaluator import EvalConfig, EvalResult, evaluate, policy_action, simulate_episode
from .fileio import (
    PolicyFile,
    load_policy,
    load_policy_file,
    load_pomdp,
    lower_bound_from_policy,
    parse_pomdp,
    policy_from_lower_bound,
    save_policy,
    write_pomdp,
)
from .lp import LpSolution, hull_projection
from .model import (
    Belief,
    PomdpModel,
    ValueInterval,
    belief_update,
    expected_reward,
    observation_probability,
    successor_distributions,
)
from .rocksample import RockSampleParams, gen_rocksample
from .solver import (
    SolveResult,
    SolveTrace,
    SolverConfig,
    choose_action,
    choose_observation,
    depth_bound,
    explore,
    solve,
    solve_anytime,
    update_bound,
)

__version__ = "0.1.0"
