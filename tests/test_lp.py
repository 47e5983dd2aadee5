"""Simplex kernel and the upper bound's hull projection against enumeration
oracles."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import oracles
from hsvi import Belief, MaxIterations
from hsvi import lp as lp_module
from hsvi.bounds import UpperBound
from hsvi.lp import FEAS_TOL, BasisStore, projection_lp


DATA = Path(__file__).parent / "data"


def _store(basis, inverse):
    store = BasisStore(len(basis), 1)
    store.add(basis, inverse)
    return store


def _upper(corner_values, interior=()):
    """An UpperBound over ``corner_values`` holding the (Belief, value) points
    ``interior``."""
    ub = UpperBound(np.asarray(corner_values, dtype=float))
    for b, v in interior:
        ub.add_point(b, v, None)
    return ub


def _random_interior(rng, n, count, low, high):
    return [(Belief.from_dense(rng.dirichlet(np.ones(n))), float(rng.uniform(low, high)))
            for _ in range(count)]


# ---------------------------------------------------------------------------
# projection_lp
# ---------------------------------------------------------------------------

def test_fixed_variable():
    # one state: the corner is the only point and its weight is forced to 1
    sol = projection_lp(np.array([[1.0]]), np.array([1.0]), np.array([1.0]), [0])
    assert sol.value == pytest.approx(1.0)
    assert sol.x[0] == pytest.approx(1.0)
    assert sol.residual <= 1e-8


def test_identity_projection_single_point():
    # the query is a stored point below the hull of the corners: weight 1 on it
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.7]])
    sol = projection_lp(rows, np.array([10.0, 10.0, 5.0]), np.array([0.3, 0.7]), np.arange(2))
    assert sol.value == pytest.approx(5.0)
    assert sol.x[2] == pytest.approx(1.0)


def test_warm_start_reproduces_solution(rng):
    points = rng.dirichlet(np.ones(3), size=6)
    values = rng.normal(size=6)
    rows = np.vstack([np.eye(3), points])
    vals = np.concatenate([np.full(3, values.max() + 1.0), values])
    query = rng.dirichlet(np.ones(3))
    corner = projection_lp(rows, vals, query, corner_columns=np.arange(3))
    warm = projection_lp(rows, vals, query, corner_columns=np.arange(3),
                         store=_store(corner.basis, corner.inverse))
    assert warm.value == pytest.approx(corner.value, abs=1e-10)
    assert warm.iterations == 0
    assert warm.start == "last"


def _highs_reference(rows, vals, query):
    d = query.size
    reference = linprog(vals, A_eq=np.vstack([rows.T[: d - 1], np.ones(len(vals))]),
                        b_eq=np.append(query[: d - 1], 1.0), bounds=(0, None),
                        method="highs")
    assert reference.status == 0
    return reference.fun


def test_stalling_lp_falls_back_to_highs():
    # Captured from an anytime run on RockSample[5,5]: 110 points on a
    # 32-state support, with pivots on 1e-9..1e-7 coefficients. A dense
    # tableau stalled at its iteration cap from both the warm and the corner
    # basis here; whichever path answers, the answer must be HiGHS's optimum.
    lp = np.load(DATA / "rocksample55_stalling_lp.npz")
    rows, vals, query = lp["point_rows"], lp["point_values"], lp["query_vec"]
    sol = projection_lp(rows, vals, query, corner_columns=lp["corner_columns"],
                        store=_store(lp["warm_basis"],
                                     np.linalg.inv(rows.T[:, lp["warm_basis"]])))
    d = query.size
    reference = linprog(vals, A_eq=np.vstack([rows.T[: d - 1], np.ones(len(vals))]),
                        b_eq=np.append(query[: d - 1], 1.0), bounds=(0, None),
                        method="highs")
    assert reference.status == 0
    assert sol.value == pytest.approx(reference.fun, abs=1e-9)
    assert sol.iterations >= 0
    assert sol.x.min() >= 0.0
    assert np.abs(sol.x @ rows - query).max() <= FEAS_TOL


def _stall(*args):
    raise MaxIterations("forced")


@pytest.mark.parametrize("step, failing", [("_run_simplex", _stall),
                                           ("_checked", lambda *args: None)],
                         ids=["stalls", "fails-check"])
def test_highs_answers_when_both_starts_fail(monkeypatch, step, failing):
    lp = np.load(DATA / "rocksample55_stalling_lp.npz")
    rows, vals, query = lp["point_rows"], lp["point_values"], lp["query_vec"]
    monkeypatch.setattr(lp_module, step, failing)
    sol = projection_lp(rows, vals, query, corner_columns=lp["corner_columns"],
                        store=_store(lp["warm_basis"],
                                     np.linalg.inv(rows.T[:, lp["warm_basis"]])))
    assert sol.basis is None and sol.inverse is None
    assert sol.value == pytest.approx(_highs_reference(rows, vals, query), abs=1e-9)
    assert sol.x.min() >= 0.0
    assert np.abs(sol.x @ rows - query).max() <= FEAS_TOL


def test_drifted_answer_is_rejected():
    # Captured from an anytime run on RockSample[4,4] to width 0.01: 68 points
    # on a 16-state support and the warm basis the query started from. An
    # unchecked dense tableau ended at weights down to -0.02 and a value
    # 8.6e-3 below the HiGHS optimum, i.e. below the true hull.
    lp = np.load(DATA / "rocksample44_unchecked_lp.npz")
    rows, vals, query = lp["point_rows"], lp["point_values"], lp["query_vec"]
    sol = projection_lp(rows, vals, query, corner_columns=lp["corner_columns"],
                        store=_store(lp["warm_basis"],
                                     np.linalg.inv(rows.T[:, lp["warm_basis"]])))
    assert sol.value == pytest.approx(_highs_reference(rows, vals, query), abs=1e-9)
    assert sol.x.min() >= -FEAS_TOL
    assert sol.residual <= FEAS_TOL
    assert np.abs(sol.x @ rows - query).max() <= FEAS_TOL


def _simplex_point(draw, d):
    weights = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), min_size=d, max_size=d))
    if sum(weights) == 0.0:
        weights[draw(st.integers(0, d - 1))] = 1.0
    return np.array(weights) / sum(weights)


def _near_corner(draw, d):
    """A point within 1e-9 (L1: 2e-9) of a corner, and that corner."""
    s = draw(st.integers(0, d - 1))
    return (1.0 - 1e-9) * np.eye(d)[s] + 1e-9 * _simplex_point(draw, d), s


@st.composite
def _degenerate_projections(draw):
    """Corner-complete point sets with duplicate points, points and queries
    within 1e-9 of a corner, and values drawn from a small set (ties).

    A point next to a corner takes that corner's value: a valid upper bound
    cannot jump by O(1) across 1e-9, and the kernel's 1e-9 pivot tolerance
    would turn such a jump into an O(1) disagreement with the oracle.
    """
    d = draw(st.integers(2, 4))
    value = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])
    rows = list(np.eye(d))
    vals = [draw(value) for _ in range(d)]
    near_corner = set()
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            point, s = _near_corner(draw, d)
            near_corner.add(len(rows))
            rows.append(point)
            vals.append(vals[s])
        else:
            rows.append(_simplex_point(draw, d))
            vals.append(draw(value))
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
        rows.append(rows[i])
        if i in near_corner:
            vals.append(vals[i])  # a copy is next to the same corner
        else:
            vals.append(draw(st.sampled_from([vals[i], draw(value)])))
    query = draw(st.sampled_from([
        rows[draw(st.integers(0, len(rows) - 1))],
        _near_corner(draw, d)[0],
        _simplex_point(draw, d),
    ]))
    return np.array(rows), np.array(vals), query


@settings(max_examples=300, deadline=None, database=None)
@given(_degenerate_projections())
def test_projection_matches_caratheodory_on_degenerate_inputs(case):
    rows, vals, query = case
    sol = projection_lp(rows, vals, query, np.arange(query.size))
    expected = oracles.caratheodory_projection(rows, vals, query)
    assert sol.value == pytest.approx(expected, abs=1e-6)
    assert sol.x.min() >= -FEAS_TOL
    assert np.abs(sol.x @ rows - query).max() <= FEAS_TOL


@st.composite
def _lowered_query_sequences(draw):
    """An upper bound's point set, then queries, each after a few stored
    values have been lowered by a drawn amount."""
    d = draw(st.integers(2, 4))
    value = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])
    corners = [draw(value) for _ in range(d)]
    points = [(_simplex_point(draw, d), draw(value)) for _ in range(draw(st.integers(1, 6)))]
    lowering = st.tuples(st.integers(0, 99), st.sampled_from([0.1, 0.5, 2.0]))
    steps = []
    for _ in range(draw(st.integers(2, 8))):
        lowered = draw(st.lists(lowering, max_size=2))
        query = draw(st.sampled_from([_simplex_point(draw, d), points[0][0]]))
        steps.append((lowered, query))
    return np.array(corners), points, steps


@settings(max_examples=200, deadline=None, database=None)
@given(_lowered_query_sequences())
def test_warm_state_answers_match_caratheodory_as_values_drop(case):
    # The upper bound keeps a store of bases and inverses per support pattern
    # and re-reads values on every query, while add_point and prune_upper
    # lower stored values in place. Both the bound and a kernel that keeps
    # one store across the queries must follow those values exactly.
    corners, points, steps = case
    ub = UpperBound(corners)
    for point, v in points:
        ub.add_point(Belief.from_dense(point), v, None)
    rows, _ = oracles.upper_points(ub)
    d = corners.size
    store = BasisStore(d, 4)
    for lowered, query in steps:
        for index, amount in lowered:
            index %= ub.num_points
            if index < d:
                ub.corner_values[index] -= amount
            else:
                ub._value_arr[index - d] -= amount
        _, vals = oracles.upper_points(ub)
        expected = oracles.caratheodory_projection(rows, vals, query)
        sol = projection_lp(rows, vals, query, np.arange(d), store=store)
        assert sol.value == pytest.approx(expected, abs=1e-6)
        assert sol.x.min() >= -FEAS_TOL
        assert np.abs(sol.x @ rows - query).max() <= FEAS_TOL
        assert ub.value(Belief.from_dense(query)) == pytest.approx(expected, abs=1e-6)


# ---------------------------------------------------------------------------
# UpperBound.value
# ---------------------------------------------------------------------------

def test_query_at_stored_point_with_others_above():
    interior = Belief(2, [0, 1], [0.5, 0.5])
    assert _upper([10.0, 10.0], [(interior, 2.0)]).value(interior) == pytest.approx(2.0)


def test_two_state_linear_interpolation():
    q = Belief(2, [0, 1], [0.5, 0.5])
    assert _upper([0.0, 1.0]).value(q) == pytest.approx(0.5)


def test_matches_caratheodory_enumeration(rng):
    ub = _upper(rng.uniform(0, 5, size=3), _random_interior(rng, 3, 6, -2, 5))
    rows, vals = oracles.upper_points(ub)
    for _ in range(100):
        q = Belief.from_dense(rng.dirichlet(np.ones(3)))
        expected = oracles.caratheodory_projection(rows, vals, q.to_dense())
        assert ub.value(q) == pytest.approx(expected, abs=1e-6)


def test_hull_never_above_stored_point(rng):
    corners = rng.uniform(0, 5, size=4)
    interior = _random_interior(rng, 4, 5, -1, 5)
    ub = _upper(corners, interior)
    for b, v in [(Belief.point_mass(s, 4), corners[s]) for s in range(4)] + interior:
        assert ub.value(b) <= v + 1e-9


def test_adding_point_never_raises_hull(rng):
    ub = _upper(rng.uniform(0, 5, size=3), _random_interior(rng, 3, 4, -1, 5))
    queries = [Belief.from_dense(rng.dirichlet(np.ones(3))) for _ in range(20)]
    before = [ub.value(q) for q in queries]
    for b, v in _random_interior(rng, 3, 1, -1, 5):
        ub.add_point(b, v, None)
    after = [ub.value(q) for q in queries]
    for lo, hi in zip(after, before):
        assert lo <= hi + 1e-9


def test_removing_non_vertex_point_changes_nothing(rng):
    corners = [1.0, 1.0, 1.0]
    interior = [(Belief.from_dense(rng.dirichlet(np.ones(3))), 5.0)]  # way above
    queries = [Belief.from_dense(rng.dirichlet(np.ones(3))) for _ in range(20)]
    with_point = [_upper(corners, interior).value(q) for q in queries]
    without = [_upper(corners).value(q) for q in queries]
    np.testing.assert_allclose(with_point, without, atol=1e-9)


def test_projection_convex_in_query(rng):
    ub = _upper(rng.uniform(0, 3, size=3), _random_interior(rng, 3, 4, -1, 3))
    for _ in range(20):
        b1 = rng.dirichlet(np.ones(3))
        b2 = rng.dirichlet(np.ones(3))
        lam = float(rng.uniform())
        mid = lam * b1 + (1 - lam) * b2
        v_mid = ub.value(Belief.from_dense(mid))
        v1 = ub.value(Belief.from_dense(b1))
        v2 = ub.value(Belief.from_dense(b2))
        assert v_mid <= lam * v1 + (1 - lam) * v2 + 1e-9
