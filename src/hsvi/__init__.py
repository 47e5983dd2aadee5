"""Discounted-POMDP planning with two-sided value bounds.

The planner keeps a vector-set lower bound and a point-set upper bound on the
optimal value function, tightens them with local updates at beliefs chosen by
forward search, and stops when the gap at the initial belief is below the
requested regret bound. Model parsing, a RockSample benchmark generator, a
revised-simplex hull LP, and a Monte Carlo policy evaluator round out the
toolkit.

Each idea has one public path: the upper bound's value is
``UpperBound.value``, a local update is ``apply_update(model, bounds, b,
expand(model, bounds.upper.value, b))``, trials run inside ``solve`` and
``solve_anytime``, and episodes inside ``evaluate``.
"""

from .bounds import (
    AlphaVector,
    BoundsPair,
    LowerBound,
    UpperBound,
    apply_update,
    backup_lower,
    expand,
    init_bounds,
    init_lower,
    init_upper,
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
from .evaluator import EvalConfig, EvalResult, evaluate, policy_action
from .fileio import (
    load_policy,
    load_policy_file,
    load_pomdp,
    parse_pomdp,
    save_policy,
    write_pomdp,
)
from .lp import LpSolution
from .model import Belief, PomdpModel, belief_update, successor_distributions
from .rocksample import RockSampleParams, gen_rocksample
from .solver import (
    SolveResult,
    SolveTrace,
    SolverConfig,
    choose_action,
    choose_observation,
    depth_bound,
    solve,
    solve_anytime,
    update_bound,
)

__version__ = "0.1.0"
