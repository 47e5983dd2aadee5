"""Bound representations, initialization, backups, updates, pruning."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import tiny_deterministic_model, zero_reward_model
from hsvi import (
    AlphaVector,
    Belief,
    PomdpModel,
    RockSampleParams,
    backup_lower,
    expand,
    gen_rocksample,
    hull_projection,
    init_bounds,
    init_lower,
    init_upper,
    local_update,
    mdp_value_iteration,
    prune_lower,
    prune_upper,
)
from hsvi.bounds import POINT_DEDUP_L1, LowerBound, UpperBound, revalue
from hsvi.lp import FEAS_TOL


def _simple_model(t, o, r, gamma=0.9, b0=None):
    b0 = b0 if b0 is not None else Belief.uniform(np.asarray(r).shape[1])
    return PomdpModel(np.asarray(t, float), np.asarray(o, float),
                      np.asarray(r, float), gamma, b0)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_lower_zero_rewards():
    lb = init_lower(zero_reward_model())
    np.testing.assert_array_equal(lb.matrix[0], np.zeros(2))


def test_init_lower_single_action_constant_penalty():
    t = np.stack([np.eye(2)])
    o = np.full((1, 2, 2), 0.5)
    m = _simple_model(t, o, np.full((1, 2), -1.0), gamma=0.95)
    lb = init_lower(m)
    np.testing.assert_allclose(lb.matrix[0], np.full(2, -20.0))


def test_init_lower_rocksample_floor_is_zero():
    # every action has min-state reward <= 0 and the motion actions achieve 0,
    # so the blind floor max_a min_s R(s,a) / (1 - 0.95) is exactly 0
    m = gen_rocksample(RockSampleParams(4, 4))
    assert m.reward.min(axis=1).max() == 0.0
    lb = init_lower(m)
    np.testing.assert_array_equal(lb.matrix[0], np.zeros(m.num_states))


def test_init_upper_zero_rewards():
    ub = init_upper(zero_reward_model())
    np.testing.assert_allclose(ub.corner_values, np.zeros(2), atol=1e-12)


def test_init_upper_single_state_geometric_series():
    m = _simple_model([[[1.0]]], [[[1.0]]], [[1.0]], gamma=0.95,
                      b0=Belief.point_mass(0, 1))
    ub = init_upper(m)
    assert ub.corner_values[0] == pytest.approx(20.0, abs=1e-4)


def test_init_upper_matches_finite_horizon_dp(rng):
    m = oracles.random_pomdp(rng, 4, 3, 2, 0.9)
    t, _, r = oracles.dense_tensors(m)
    expected = oracles.finite_horizon_mdp_values(t, r, 0.9, horizon=1000)
    np.testing.assert_allclose(mdp_value_iteration(m), expected, atol=1e-4)


def test_init_upper_converges_from_above(rng):
    m = oracles.random_pomdp(rng, 5, 2, 2, 0.9)
    t, _, r = oracles.dense_tensors(m)
    expected = oracles.finite_horizon_mdp_values(t, r, 0.9, horizon=1000)
    assert np.all(mdp_value_iteration(m) >= expected - 1e-9)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_lower_value_single_zero_vector():
    lb = LowerBound(2)
    lb.add(AlphaVector(np.zeros(2), 0))
    assert lb.value(Belief.uniform(2)) == 0.0


def test_lower_value_two_vectors():
    lb = LowerBound(2)
    lb.add(AlphaVector(np.array([1.0, 0.0]), 0))
    lb.add(AlphaVector(np.array([0.0, 1.0]), 1))
    assert lb.value(Belief(2, [0, 1], [0.5, 0.5])) == pytest.approx(0.5)


def test_lower_value_matches_naive_max(rng):
    lb = LowerBound(4)
    vectors = rng.normal(size=(7, 4))
    for i, v in enumerate(vectors):
        lb.add(AlphaVector(v, i % 2))
    for _ in range(25):
        b = Belief.from_dense(rng.dirichlet(np.ones(4)))
        assert lb.value(b) == pytest.approx(
            oracles.lower_value_naive(vectors, b.to_dense()), abs=1e-12)


def test_upper_value_corner_exactness(rng):
    ub = UpperBound(rng.uniform(0, 5, size=4))
    for _ in range(6):
        ub.add_point(Belief.from_dense(rng.dirichlet(np.ones(4))), float(rng.uniform(-1, 4)),
                     None)
    for s in range(4):
        assert ub.value(Belief.point_mass(s, 4)) == ub.corner_values[s]


def test_upper_value_matches_full_hull_on_sparse_support(rng):
    # support restriction must not change the projection value
    ub = UpperBound(rng.uniform(1, 5, size=4))
    ub.add_point(Belief(4, [0, 1], [0.5, 0.5]), 0.7, None)
    ub.add_point(Belief(4, [0, 1, 2], [0.2, 0.3, 0.5]), 1.1, None)
    ub.add_point(Belief.from_dense(rng.dirichlet(np.ones(4))), 2.0, None)
    for query in (Belief(4, [0, 1], [0.25, 0.75]),
                  Belief(4, [0, 1, 2], [0.4, 0.3, 0.3]),
                  Belief.from_dense(rng.dirichlet(np.ones(4)))):
        full = hull_projection(ub.points, query)
        assert ub.value(query) == pytest.approx(full, abs=1e-8)


def test_upper_dedup_replaces_if_lower(rng):
    ub = UpperBound(np.full(3, 5.0))
    b = Belief.from_dense(np.array([0.2, 0.3, 0.5]))
    ub.add_point(b, 3.0, None)
    ub.add_point(Belief.from_dense(np.array([0.2, 0.3, 0.5])), 4.0, None)  # discarded
    assert ub.num_points == 4
    assert ub.value(b) == pytest.approx(3.0)
    ub.add_point(Belief.from_dense(np.array([0.2, 0.3, 0.5])), 2.0, None)  # replaces
    assert ub.num_points == 4
    assert ub.value(b) == pytest.approx(2.0)


def test_upper_point_mass_update_lowers_corner():
    ub = UpperBound(np.full(2, 5.0))
    ub.add_point(Belief.point_mass(1, 2), 3.5, None)
    assert ub.num_points == 2
    assert ub.corner_values[1] == 3.5
    ub.add_point(Belief.point_mass(1, 2), 4.5, None)  # higher: ignored
    assert ub.corner_values[1] == 3.5


# ---------------------------------------------------------------------------
# expand: one-step lookahead Q values
# ---------------------------------------------------------------------------

def test_q_value_zero_discount_is_expected_reward(rng):
    m = oracles.random_pomdp(rng, 3, 2, 2, 0.0)
    bounds = init_bounds(m)
    b = Belief.from_dense(rng.dirichlet(np.ones(3)))
    for a in range(2):
        expected = float(m.reward[a][b.states] @ b.probs)
        assert expand(m, bounds.lower.value, b)[a].q == pytest.approx(expected, abs=1e-12)
        assert expand(m, bounds.upper.value, b)[a].q == pytest.approx(expected, abs=1e-12)


def test_q_value_single_state():
    m = _simple_model([[[1.0]]], [[[1.0]]], [[1.0]], gamma=0.95,
                      b0=Belief.point_mass(0, 1))
    bounds = init_bounds(m)
    v = bounds.lower.value(m.initial_belief)
    assert expand(m, bounds.lower.value, m.initial_belief)[0].q == pytest.approx(1 + 0.95 * v)


def test_q_value_lower_matches_naive_expansion(rng):
    m = oracles.random_pomdp(rng, 3, 2, 2, 0.9)
    t, o, r = oracles.dense_tensors(m)
    bounds = init_bounds(m)
    for i in range(4):  # grow the vector set a little
        local_update(m, bounds, Belief.from_dense(rng.dirichlet(np.ones(3))))
    vectors = [row.copy() for row in bounds.lower.matrix]
    value_fn = lambda dense: oracles.lower_value_naive(vectors, dense)
    for _ in range(10):
        b = Belief.from_dense(rng.dirichlet(np.ones(3)))
        a = int(rng.integers(2))
        expected = oracles.q_value_naive(t, o, r, 0.9, value_fn, b.to_dense(), a)
        assert expand(m, bounds.lower.value, b)[a].q == pytest.approx(expected, abs=1e-9)


def test_expand_upper_matches_naive_with_one_kernel_pass_per_action(rng, monkeypatch):
    import hsvi.bounds as bounds_module

    m = oracles.random_pomdp(rng, 3, 3, 2, 0.9)
    t, o, r = oracles.dense_tensors(m)
    bounds = init_bounds(m)
    for _ in range(4):
        local_update(m, bounds, Belief.from_dense(rng.dirichlet(np.ones(3))))
    rows = np.stack([p.to_dense() for p, _ in bounds.upper.points])
    vals = np.array([v for _, v in bounds.upper.points])
    upper_fn = lambda dense: oracles.caratheodory_projection(rows, vals, dense)
    kernel_calls = []
    original = bounds_module.successor_distributions
    monkeypatch.setattr(bounds_module, "successor_distributions",
                        lambda *args: kernel_calls.append(args[2]) or original(*args))
    b = Belief.from_dense(rng.dirichlet(np.ones(3)))
    expansion = expand(m, bounds.upper.value, b)
    assert kernel_calls == [0, 1, 2]
    for a, branch in enumerate(expansion):
        expected = oracles.q_value_naive(t, o, r, 0.9, upper_fn, b.to_dense(), a)
        assert branch.q == pytest.approx(expected, abs=1e-9)
        for posterior, value in zip(branch.posteriors, branch.values):
            assert (value is None) == (posterior is None)
            if posterior is not None:
                assert value == bounds.upper.value(posterior)


# ---------------------------------------------------------------------------
# backup
# ---------------------------------------------------------------------------

def test_backup_zero_set_returns_best_immediate_reward(rng):
    m = oracles.random_pomdp(rng, 3, 3, 2, 0.9)
    lb = LowerBound(3)
    lb.add(AlphaVector(np.zeros(3), 0))
    b = Belief.from_dense(rng.dirichlet(np.ones(3)))
    beta = backup_lower(m, lb, b, expand(m, lb.value, b))
    scores = [float(m.reward[a][b.states] @ b.probs) for a in range(3)]
    best = int(np.argmax(scores))
    assert beta.action == best
    np.testing.assert_allclose(beta.values, m.reward[best], atol=1e-12)


def test_backup_single_action_tag():
    m = tiny_deterministic_model()
    bounds = init_bounds(m)
    b0 = m.initial_belief
    beta = backup_lower(m, bounds.lower, b0, expand(m, bounds.lower.value, b0))
    assert beta.action == 0


def test_backup_value_equals_definitional_bellman(rng):
    for _ in range(25):
        ns = int(rng.integers(2, 5))
        na = int(rng.integers(1, 4))
        no = int(rng.integers(1, 4))
        m = oracles.random_pomdp(rng, ns, na, no, 0.9)
        t, o, r = oracles.dense_tensors(m)
        lb = LowerBound(ns)
        vectors = rng.normal(size=(int(rng.integers(1, 6)), ns))
        for i, v in enumerate(vectors):
            lb.add(AlphaVector(v, int(i % na)))
        b = Belief.from_dense(rng.dirichlet(np.ones(ns)))
        beta = backup_lower(m, lb, b, expand(m, lb.value, b))
        value_fn = lambda dense: oracles.lower_value_naive(vectors, dense)
        expected = max(
            oracles.q_value_naive(t, o, r, 0.9, value_fn, b.to_dense(), a)
            for a in range(na))
        assert float(beta.values[b.states] @ b.probs) == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# local updates
# ---------------------------------------------------------------------------

def test_update_at_converged_corner_changes_nothing():
    # perfectly observable deterministic model: corner values are already the
    # one-step fixed point, so the update cannot move them by more than the
    # value-iteration residual
    m = tiny_deterministic_model()
    bounds = init_bounds(m)
    corner = Belief.point_mass(0, 2)
    before = bounds.upper.value(corner)
    local_update(m, bounds, corner)
    assert bounds.upper.value(corner) == pytest.approx(before, abs=1e-6)


def test_update_twice_is_idempotent_at_belief():
    t = np.zeros((1, 2, 2))
    t[0, 0, 1] = 1.0
    t[0, 1, 0] = 1.0
    o = np.zeros((1, 2, 2))
    o[0, 0, 0] = 1.0
    o[0, 1, 1] = 1.0
    m = _simple_model(t, o, [[1.0, 0.0]], gamma=0.9, b0=Belief.point_mass(0, 2))
    bounds = init_bounds(m)
    b = m.initial_belief
    local_update(m, bounds, b)
    lower_after, upper_after = bounds.lower.value(b), bounds.upper.value(b)
    local_update(m, bounds, b)
    assert bounds.lower.value(b) == pytest.approx(lower_after, abs=1e-9)
    assert bounds.upper.value(b) == pytest.approx(upper_after, abs=1e-9)


def test_update_shrinks_width_and_matches_bellman(rng):
    m = oracles.random_pomdp(rng, 2, 2, 2, 0.9)
    t, o, r = oracles.dense_tensors(m)
    bounds = init_bounds(m)
    b = m.initial_belief
    pre_lower = bounds.lower.value(b)
    pre_upper = bounds.upper.value(b)
    assert pre_upper - pre_lower > 0.01

    vectors = [row.copy() for row in bounds.lower.matrix]
    lower_fn = lambda dense: oracles.lower_value_naive(vectors, dense)
    corner_pts = np.eye(2)
    corner_vals = bounds.upper.corner_values.copy()
    upper_fn = lambda dense: oracles.caratheodory_projection(corner_pts, corner_vals, dense)
    h_lower = max(oracles.q_value_naive(t, o, r, 0.9, lower_fn, b.to_dense(), a)
                  for a in range(2))
    h_upper = max(oracles.q_value_naive(t, o, r, 0.9, upper_fn, b.to_dense(), a)
                  for a in range(2))

    local_update(m, bounds, b)
    assert bounds.lower.value(b) == pytest.approx(max(pre_lower, h_lower), abs=1e-9)
    # pruning may legitimately tighten the point further, never loosen it
    assert bounds.upper.value(b) <= min(pre_upper, h_upper) + 1e-6
    assert bounds.upper.value(b) >= bounds.lower.value(b) - 1e-6
    assert bounds.upper.value(b) - bounds.lower.value(b) < pre_upper - pre_lower


def test_updates_preserve_monotone_evolution(rng):
    m = oracles.random_pomdp(rng, 3, 2, 2, 0.9)
    bounds = init_bounds(m)
    audits = [Belief.from_dense(rng.dirichlet(np.ones(3))) for _ in range(16)]
    lows = np.array([bounds.lower.value(b) for b in audits])
    highs = np.array([bounds.upper.value(b) for b in audits])
    for _ in range(30):
        local_update(m, bounds, Belief.from_dense(rng.dirichlet(np.ones(3))))
        new_lows = np.array([bounds.lower.value(b) for b in audits])
        new_highs = np.array([bounds.upper.value(b) for b in audits])
        assert np.all(new_lows >= lows - 1e-9)
        assert np.all(new_highs <= highs + 1e-9)
        assert np.all(new_lows <= new_highs + 1e-6)
        lows, highs = new_lows, new_highs


def test_updates_preserve_uniform_improvability(rng):
    m = oracles.random_pomdp(rng, 3, 2, 2, 0.9)
    bounds = init_bounds(m)
    for _ in range(20):
        local_update(m, bounds, Belief.from_dense(rng.dirichlet(np.ones(3))))
    # lower: one-step lookahead only improves
    for _ in range(10):
        b = Belief.from_dense(rng.dirichlet(np.ones(3)))
        h = max(branch.q for branch in expand(m, bounds.lower.value, b))
        assert h >= bounds.lower.value(b) - 1e-9
    # upper: every stored point sits at or above its own one-step value
    for b, v in bounds.upper.interior_points:
        assert max(branch.q for branch in expand(m, bounds.upper.value, b)) <= v + 1e-9


def test_bounds_sandwich_exact_value(rng):
    m = oracles.random_pomdp(rng, 3, 2, 2, 0.9)
    bounds = init_bounds(m)
    for _ in range(40):
        local_update(m, bounds, m.initial_belief)
        local_update(m, bounds, Belief.from_dense(rng.dirichlet(np.ones(3))))
    lo, hi = oracles.exact_value_interval(m, tol=1e-3)
    assert bounds.lower.value(m.initial_belief) <= hi + 1e-6
    assert bounds.upper.value(m.initial_belief) >= lo - 1e-6


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------

def test_prune_lower_keeps_one_duplicate():
    lb = LowerBound(2)
    for _ in range(3):
        lb.add(AlphaVector(np.array([1.0, 2.0]), 0))
    prune_lower(lb)
    assert len(lb) == 1


def test_prune_lower_removes_pointwise_dominated():
    lb = LowerBound(2)
    lb.add(AlphaVector(np.array([1.0, 1.0]), 0))
    lb.add(AlphaVector(np.array([0.0, 0.0]), 1))
    prune_lower(lb)
    assert len(lb) == 1
    np.testing.assert_array_equal(lb.matrix[0], [1.0, 1.0])


def test_prune_lower_preserves_bound_function(rng):
    lb = LowerBound(4)
    for i in range(30):
        lb.add(AlphaVector(rng.normal(size=4), int(i % 3)))
    queries = [Belief.from_dense(rng.dirichlet(np.ones(4))) for _ in range(1000)]
    before = [lb.value(b) for b in queries]
    prune_lower(lb)
    after = [lb.value(b) for b in queries]
    np.testing.assert_allclose(before, after, atol=1e-9)


def test_prune_upper_removes_stale_points_without_raising_bound(rng):
    m = oracles.random_pomdp(rng, 3, 2, 2, 0.9)
    bounds = init_bounds(m)
    ub = bounds.upper
    # seed points at deliberately loose values so they become dominated
    beliefs = [Belief.from_dense(rng.dirichlet(np.ones(3))) for _ in range(12)]
    for b in beliefs:
        # exactly on the current hull, with the expansion an update would store
        ub.add_point(b, float(ub.value(b)), expand(m, ub.value, b))
    for b in beliefs[:6]:
        local_update(m, bounds, b)
    audits = [Belief.from_dense(rng.dirichlet(np.ones(3))) for _ in range(40)]
    before = [ub.value(b) for b in audits]
    count_before = ub.num_points
    prune_upper(m, ub)
    after = [ub.value(b) for b in audits]
    assert ub.num_points <= count_before
    for post, pre in zip(after, before):
        assert post <= pre + 1e-9
    # uniform improvability survives the prune: no stored value sits below
    # its own one-step backup's reach
    for b, v in ub.interior_points:
        assert max(branch.q for branch in expand(m, ub.value, b)) <= v + 1e-9


def test_prune_upper_keeps_corners(rng):
    m = oracles.random_pomdp(rng, 3, 2, 2, 0.9)
    ub = init_upper(m)
    corners_before = ub.corner_values.copy()
    prune_upper(m, ub)
    assert ub.num_points >= 3
    assert np.all(ub.corner_values <= corners_before + 1e-12)


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), num_states=st.integers(2, 4),
       num_actions=st.integers(1, 3), num_observations=st.integers(1, 3),
       visits=st.lists(st.integers(0, 4), min_size=1, max_size=12))
def test_stored_expansion_revalues_like_a_fresh_expansion(seed, num_states, num_actions,
                                                          num_observations, visits):
    # Updates at beliefs drawn, with repeats, from a pool that holds a
    # near-copy (within the dedup distance) of another belief and a corner,
    # so some insertions fold into existing points and some prune. Each
    # interior point's stored expansion, re-valued as prune_upper does, must
    # give bit for bit the max Q that expanding its belief afresh gives.
    rng = np.random.default_rng(seed)
    m = oracles.random_pomdp(rng, num_states, num_actions, num_observations, 0.9)
    drawn = rng.dirichlet(np.ones(num_states))
    pool = [m.initial_belief, Belief.from_dense(rng.dirichlet(np.ones(num_states))),
            Belief.from_dense(drawn),
            Belief.from_dense(drawn * (1.0 + 1e-11 * rng.random(num_states))),
            Belief.point_mass(0, num_states)]
    bounds = init_bounds(m)
    for index in visits:
        local_update(m, bounds, pool[index])
    ub = bounds.upper
    # a cold LP over a frozen copy of the points is a pure value function;
    # the bound's own LP warm-starts from its previous query
    value = functools.partial(hull_projection, ub.points)
    assert len(ub._expansions) == ub.num_points - num_states
    for b, expansion in zip(ub._beliefs, ub._expansions):
        fresh = max(branch.q for branch in expand(m, value, b))
        assert max(branch.q for branch in revalue(m, value, expansion)) == fresh


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       steps=st.lists(st.tuples(st.sampled_from(["add", "copy", "near", "remove", "prune"]),
                                st.integers(0, 2 ** 16)), min_size=1, max_size=20))
def test_support_index_survives_removal(seed, steps):
    # Points on sparse supports of a 6-state simplex are added, removed one at
    # a time and by prune_upper, and inserted again as exact copies and as
    # near-copies within the dedup distance, of live and of removed points.
    # After every step, queries on sparse supports must value as the hull of
    # the stored points, and a folded copy must not count as a point.
    n = 6
    rng = np.random.default_rng(seed)
    m = oracles.random_pomdp(rng, n, 2, 2, 0.9)
    ub = init_upper(m)
    live, seen = [], []

    def insert(b):
        value = ub.value(b) + rng.uniform(-1.0, 0.5)
        ub.add_point(b, value, expand(m, ub.value, b))
        if not any(np.array_equal(p.states, b.states)
                   and np.abs(p.probs - b.probs).sum() <= POINT_DEDUP_L1 for p in live):
            live.append(b)
        seen.append(b)

    def sparse_belief(size):
        states = rng.choice(n, size=size, replace=False)
        return Belief(n, states, rng.dirichlet(np.ones(size)))

    for op, k in steps:
        if op == "add" or (op in ("copy", "near") and not seen):
            insert(sparse_belief(int(rng.integers(2, 4))))
        elif op == "copy":
            b = seen[k % len(seen)]
            insert(Belief(n, b.states.copy(), b.probs.copy()))
        elif op == "near":
            b = seen[k % len(seen)]
            insert(Belief(n, b.states, b.probs * (1.0 + 1e-11 * rng.random(len(b)))))
        elif op == "remove" and live:
            ub._remove_interior(k % len(live))
            del live[k % len(live)]
        elif op == "prune":
            prune_upper(m, ub)
            survivors = iter(live)   # the survivors keep their order
            assert all(any(b is p for p in survivors) for b in ub._beliefs)
            live = list(ub._beliefs)
        assert ub._beliefs == live
        assert ub.num_points == n + len(live)
        queries = [sparse_belief(int(rng.integers(2, 5))) for _ in range(3)]
        queries += [Belief(n, b.states, rng.dirichlet(np.ones(len(b)))) for b in live[-2:]]
        for q in queries:
            assert ub.value(q) == pytest.approx(hull_projection(ub.points, q), abs=1e-8)


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       steps=st.lists(st.sampled_from(["add", "add", "copy", "lower", "remove", "prune"]),
                      min_size=1, max_size=30))
def test_basis_stores_survive_insertions_and_removals(seed, steps):
    # Each support pattern keeps its LP state while points are added (exact
    # and near copies of live points fold into them), removed by hand and by
    # prune_upper, and lowered in place. After every step, every stored
    # basis must be a basis of its pattern's live columns, with its inverse,
    # so no basis that used a removed point can start a query; and queries
    # on every pattern must match the hull of the live points, with weights
    # that meet those points to FEAS_TOL.
    n = 5
    patterns = [np.array([0, 1, 2]), np.array([1, 2, 3, 4]), np.array([0, 3])]
    rng = np.random.default_rng(seed)
    m = oracles.random_pomdp(rng, n, 2, 2, 0.9)
    ub = init_upper(m)

    def columns(states, indices):
        return np.vstack([np.eye(states.size)]
                         + [ub._beliefs[i].to_dense()[states] for i in indices]).T

    def insert(b, value):
        ub.add_point(b, value, expand(m, ub.value, b))

    def check_query(states):
        q = Belief(n, states, rng.dirichlet(np.ones(states.size)))
        solution = ub._project(q)
        inside = ub._inside(states)
        a = columns(states, inside)
        values = np.concatenate([ub.corner_values[states], ub._value_arr[inside]])
        expected = oracles.caratheodory_projection(a.T, values, q.probs)
        assert solution.value == pytest.approx(expected, abs=1e-6)
        assert solution.x.min() >= -FEAS_TOL
        assert np.abs(a @ solution.x - q.probs).max() <= FEAS_TOL

    def check_stores():
        for pattern in ub._patterns.values():
            seen = ub._inside(pattern.states)
            seen = seen[seen < pattern.synced]
            assert np.array_equal(pattern.picked, seen)
            a = columns(pattern.states, seen)
            store = pattern.store
            for basis, inverse in zip(store.bases[: store.count], store.inverses[: store.count]):
                assert basis.max() < a.shape[1]
                assert np.abs(inverse @ a[:, basis] - np.eye(basis.size)).max() <= 1e-6

    for op in steps:
        live = len(ub._beliefs)
        if op == "add" or (op == "copy" and not live):
            states = np.sort(rng.choice(patterns[rng.integers(len(patterns))],
                                        size=2, replace=False))
            b = Belief(n, states, rng.dirichlet(np.ones(2)))
            insert(b, ub.value(b) + rng.uniform(-1.0, 0.5))
        elif op == "copy":
            i = int(rng.integers(live))
            b = ub._beliefs[i]
            near = Belief(n, b.states, b.probs * (1.0 + 1e-11 * rng.random(len(b))))
            insert(near if rng.random() < 0.5 else b, ub._value_arr[i] + rng.uniform(-0.3, 0.3))
            assert len(ub._beliefs) == live
        elif op == "lower":
            i = int(rng.integers(ub.num_points))
            if i < n:
                ub.corner_values[i] -= rng.uniform(0.0, 0.5)
            else:
                ub._value_arr[i - n] -= rng.uniform(0.0, 0.5)
        elif op == "remove" and live:
            ub._remove_interior(int(rng.integers(live)))
        elif op == "prune":
            prune_upper(m, ub)
        check_stores()
        for states in patterns:
            check_query(states)
