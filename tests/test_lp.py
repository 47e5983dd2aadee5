"""Simplex kernel and hull projection against enumeration oracles."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import oracles
from hsvi import Belief, ValidationError, hull_projection
from hsvi.lp import FEAS_TOL, projection_lp


DATA = Path(__file__).parent / "data"


def _corner_points(values):
    n = len(values)
    return [(Belief.point_mass(s, n), values[s]) for s in range(n)]


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
                         warm_basis=np.asarray(corner.basis))
    assert warm.value == pytest.approx(corner.value, abs=1e-10)
    assert warm.iterations == 0


def test_invalid_warm_basis_falls_back_to_corners(rng):
    points = rng.dirichlet(np.ones(3), size=4)
    rows = np.vstack([np.eye(3), points])
    vals = rng.uniform(-1.0, 3.0, size=7)
    query = rng.dirichlet(np.ones(3))
    expected = projection_lp(rows, vals, query, np.arange(3)).value
    for warm in ([0, 0, 1], [0, 1], [0, 1, 99]):
        got = projection_lp(rows, vals, query, np.arange(3), warm_basis=np.array(warm))
        assert got.value == pytest.approx(expected, abs=1e-10)


def test_stalling_lp_falls_back_to_highs():
    # Captured from an anytime run on RockSample[5,5]: 110 points on a
    # 32-state support. Pivots on 1e-9..1e-7 coefficients stall the simplex
    # at its iteration cap from both the warm and the corner basis.
    lp = np.load(DATA / "rocksample55_stalling_lp.npz")
    rows, vals, query = lp["point_rows"], lp["point_values"], lp["query_vec"]
    sol = projection_lp(rows, vals, query, corner_columns=lp["corner_columns"],
                        warm_basis=lp["warm_basis"])
    d = query.size
    reference = linprog(vals, A_eq=np.vstack([rows.T[: d - 1], np.ones(len(vals))]),
                        b_eq=np.append(query[: d - 1], 1.0), bounds=(0, None),
                        method="highs")
    assert reference.status == 0
    assert sol.value == pytest.approx(reference.fun, abs=1e-9)
    assert sol.iterations >= 0
    assert sol.x.min() >= 0.0
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
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            point, s = _near_corner(draw, d)
            rows.append(point)
            vals.append(vals[s])
        else:
            rows.append(_simplex_point(draw, d))
            vals.append(draw(value))
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
        rows.append(rows[i])
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


# ---------------------------------------------------------------------------
# hull_projection
# ---------------------------------------------------------------------------

def test_query_at_stored_point_with_others_above():
    pts = _corner_points([10.0, 10.0])
    interior = Belief(2, [0, 1], [0.5, 0.5])
    pts.append((interior, 2.0))
    assert hull_projection(pts, interior) == pytest.approx(2.0)


def test_missing_corner_is_rejected():
    pts = _corner_points([1.0, 2.0, 3.0])[:2] + [(Belief.uniform(3), 0.0)]
    with pytest.raises(ValidationError):
        hull_projection(pts, Belief.uniform(3))


def test_two_state_linear_interpolation():
    pts = _corner_points([0.0, 1.0])
    q = Belief(2, [0, 1], [0.5, 0.5])
    assert hull_projection(pts, q) == pytest.approx(0.5)


def test_matches_caratheodory_enumeration(rng):
    corners = _corner_points(list(rng.uniform(0, 5, size=3)))
    interior = [(Belief.from_dense(rng.dirichlet(np.ones(3))), float(rng.uniform(-2, 5)))
                for _ in range(6)]
    pts = corners + interior
    rows = np.stack([b.to_dense() for b, _ in pts])
    vals = np.array([v for _, v in pts])
    for _ in range(100):
        q = Belief.from_dense(rng.dirichlet(np.ones(3)))
        expected = oracles.caratheodory_projection(rows, vals, q.to_dense())
        assert hull_projection(pts, q) == pytest.approx(expected, abs=1e-6)


def test_hull_never_above_stored_point(rng):
    corners = _corner_points(list(rng.uniform(0, 5, size=4)))
    pts = corners + [(Belief.from_dense(rng.dirichlet(np.ones(4))), float(rng.uniform(-1, 5)))
                     for _ in range(5)]
    for b, v in pts:
        assert hull_projection(pts, b) <= v + 1e-9


def test_adding_point_never_raises_hull(rng):
    corners = _corner_points(list(rng.uniform(0, 5, size=3)))
    pts = corners + [(Belief.from_dense(rng.dirichlet(np.ones(3))), float(rng.uniform(-1, 5)))
                     for _ in range(4)]
    queries = [Belief.from_dense(rng.dirichlet(np.ones(3))) for _ in range(20)]
    before = [hull_projection(pts, q) for q in queries]
    pts.append((Belief.from_dense(rng.dirichlet(np.ones(3))), float(rng.uniform(-1, 5))))
    after = [hull_projection(pts, q) for q in queries]
    for lo, hi in zip(after, before):
        assert lo <= hi + 1e-9


def test_removing_non_vertex_point_changes_nothing(rng):
    corners = _corner_points([1.0, 1.0, 1.0])
    pts = corners + [(Belief.from_dense(rng.dirichlet(np.ones(3))), 5.0)]  # way above
    queries = [Belief.from_dense(rng.dirichlet(np.ones(3))) for _ in range(20)]
    with_point = [hull_projection(pts, q) for q in queries]
    without = [hull_projection(corners, q) for q in queries]
    np.testing.assert_allclose(with_point, without, atol=1e-9)


def test_projection_convex_in_query(rng):
    corners = _corner_points(list(rng.uniform(0, 3, size=3)))
    pts = corners + [(Belief.from_dense(rng.dirichlet(np.ones(3))), float(rng.uniform(-1, 3)))
                     for _ in range(4)]
    for _ in range(20):
        b1 = rng.dirichlet(np.ones(3))
        b2 = rng.dirichlet(np.ones(3))
        lam = float(rng.uniform())
        mid = lam * b1 + (1 - lam) * b2
        v_mid = hull_projection(pts, Belief.from_dense(mid))
        v1 = hull_projection(pts, Belief.from_dense(b1))
        v2 = hull_projection(pts, Belief.from_dense(b2))
        assert v_mid <= lam * v1 + (1 - lam) * v2 + 1e-9
