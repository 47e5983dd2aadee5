"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy artifacts (the
RockSample[4,4] planning run and the 50-model random suite) are built once
per session and shared by the criteria that audit them.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import oracles
from hsvi import (
    AlphaVector,
    Belief,
    EvalConfig,
    RockSampleParams,
    SolverConfig,
    evaluate,
    expand,
    gen_rocksample,
    load_pomdp,
    backup_lower,
    solve,
    solve_anytime,
)
from hsvi.bounds import LowerBound, UpperBound

SUITE_SEED = oracles.SUITE_SEED
SUITE_SIZE = 50
ROCKSAMPLE_BUDGET_S = 600.0
ROCKSAMPLE_EPISODES = 500
EVAL_EPISODES_SMALL = 100
HORIZON = 251


def _report(criterion, passed, detail):
    print(f"\n{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}")
    assert passed, detail


# ---------------------------------------------------------------------------
# shared artifacts
# ---------------------------------------------------------------------------

def _run_suite_model(index):
    """Criterion-3 work: solve to epsilon and certify the exact value."""
    model = oracles.suite_model(index)
    t0 = time.monotonic()
    result = solve(model, SolverConfig(epsilon=0.01, audit_num_beliefs=32,
                                       audit_seed=SUITE_SEED + index))
    solve_s = time.monotonic() - t0
    oracle_lo, oracle_hi = oracles.exact_value_interval(model, tol=2e-3)
    oracle_s = time.monotonic() - t0 - solve_s
    policy = [(int(a), row.copy()) for row, a in
              zip(result.bounds.lower.matrix, result.bounds.lower.actions)]
    return {
        "index": index,
        "sizes": (model.num_states, model.num_actions, model.num_observations),
        "terminated_by": result.terminated_by,
        "final_width": result.final_width,
        "lower_b0": result.trace.lower_b0[-1],
        "upper_b0": result.trace.upper_b0[-1],
        "widths": np.asarray(result.trace.width),
        "max_depth": max(result.trace.max_depth),
        "t_max": result.t_max,
        "u_max": result.u_max,
        "total_updates": result.total_updates,
        "audit_lower": np.stack(result.trace.audit_lower),
        "audit_upper": np.stack(result.trace.audit_upper),
        "oracle_lo": oracle_lo,
        "oracle_hi": oracle_hi,
        "policy": policy,
        "solve_s": solve_s,
        "oracle_s": oracle_s,
    }


def _evaluate_suite_policy(args):
    """Criterion-8 work: simulate the stored greedy policy."""
    index, policy = args
    model = oracles.suite_model(index)
    lb = LowerBound(model.num_states)
    for action, vector in policy:
        lb.add(AlphaVector(vector, action))
    stats = evaluate(model, lb, EvalConfig(num_episodes=EVAL_EPISODES_SMALL,
                                           horizon=HORIZON, seed=SUITE_SEED + index))
    return index, stats.mean, stats.stderr


def _pool_map(fn, items):
    workers = min(2, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


@pytest.fixture(scope="session")
def random_suite():
    t0 = time.monotonic()
    rows = _pool_map(_run_suite_model, range(SUITE_SIZE))
    elapsed = time.monotonic() - t0
    return {"rows": rows, "elapsed_s": elapsed}


@pytest.fixture(scope="session")
def suite_evaluations(random_suite):
    results = _pool_map(_evaluate_suite_policy,
                        [(row["index"], row["policy"]) for row in random_suite["rows"]])
    return {index: (mean, stderr) for index, mean, stderr in results}


@pytest.fixture(scope="session")
def rocksample_run():
    model = gen_rocksample(RockSampleParams(4, 4))
    t0 = time.monotonic()
    result = solve_anytime(model, SolverConfig(epsilon=1e-6,
                                               timeout_s=ROCKSAMPLE_BUDGET_S))
    solve_s = time.monotonic() - t0
    stats = evaluate(model, result.bounds.lower,
                     EvalConfig(num_episodes=ROCKSAMPLE_EPISODES, horizon=HORIZON,
                                seed=0))
    elapsed = time.monotonic() - t0
    return {"model": model, "result": result, "stats": stats,
            "solve_s": solve_s, "elapsed_s": elapsed}


# ---------------------------------------------------------------------------
# criterion 1: benchmark instance shapes
# ---------------------------------------------------------------------------

def test_criterion_1_rocksample_shapes():
    expected = {(4, 4): (257, 9, 2), (5, 5): (801, 10, 2),
                (5, 7): (3201, 12, 2), (7, 8): (12545, 13, 2)}
    detail = []
    ok = True
    for (n, k), shape in expected.items():
        t0 = time.monotonic()
        m = gen_rocksample(RockSampleParams(n, k))
        dt = time.monotonic() - t0
        got = (m.num_states, m.num_actions, m.num_observations)
        ok &= got == shape and dt < 1.0
        detail.append(f"[{n},{k}]->{got} in {dt:.3f}s")
    _report(1, ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# criterion 2: RockSample[4,4] solution quality
# ---------------------------------------------------------------------------

def test_criterion_2_rocksample_quality(rocksample_run):
    result = rocksample_run["result"]
    stats = rocksample_run["stats"]
    width0 = result.trace.width[0]
    width_final = result.final_width
    reduced = 1.0 - width_final / width0
    ok = (stats.mean >= 15.0 and reduced >= 0.5
          and rocksample_run["elapsed_s"] <= 900.0)
    _report(2, ok,
            f"mean reward {stats.mean:.2f} (+/- {stats.ci95_half_width:.2f}) >= 15, "
            f"width {width0:.2f} -> {width_final:.3g} ({100 * reduced:.1f}% reduction), "
            f"total {rocksample_run['elapsed_s']:.0f}s")


# ---------------------------------------------------------------------------
# criterion 3: exact convergence on small random models
# ---------------------------------------------------------------------------

def test_criterion_3_exact_convergence(random_suite):
    rows = random_suite["rows"]
    failures = []
    for row in rows:
        value = 0.5 * (row["oracle_lo"] + row["oracle_hi"])
        bracket = row["oracle_hi"] - row["oracle_lo"]
        if row["terminated_by"] != "epsilon-reached" or row["final_width"] > 0.01 + 1e-12:
            failures.append((row["index"], "no convergence"))
        elif bracket > 2e-3 + 1e-12:
            failures.append((row["index"], f"oracle bracket {bracket:.2g}"))
        elif not (row["lower_b0"] - 0.011 <= value <= row["upper_b0"] + 0.011):
            failures.append((row["index"], "oracle value outside interval"))
    ok = not failures and random_suite["elapsed_s"] <= 300.0
    _report(3, ok,
            f"{len(rows)} models converged to width <= 0.01 with the exact value "
            f"inside [lower-0.011, upper+0.011]; failures={failures}; "
            f"wall {random_suite['elapsed_s']:.0f}s (budget 300s)")


# ---------------------------------------------------------------------------
# criterion 4: theoretical depth and update bounds
# ---------------------------------------------------------------------------

def test_criterion_4_depth_and_update_bounds(random_suite):
    violations = []
    for row in random_suite["rows"]:
        if row["max_depth"] > row["t_max"]:
            violations.append((row["index"], "depth", row["max_depth"], row["t_max"]))
        if row["total_updates"] > row["u_max"]:
            violations.append((row["index"], "updates"))
    _report(4, not violations,
            f"recursion depth <= t_max and updates <= u_max across "
            f"{len(random_suite['rows'])} runs; violations={violations}")


# ---------------------------------------------------------------------------
# criterion 5: monotone, valid bounds throughout
# ---------------------------------------------------------------------------

def test_criterion_5_monotone_validity(random_suite):
    violations = []
    for row in random_suite["rows"]:
        widths = row["widths"]
        if np.any(np.diff(widths) > 1e-9):
            violations.append((row["index"], "width increased"))
        lows, highs = row["audit_lower"], row["audit_upper"]
        if np.any(np.diff(lows, axis=0) < -1e-9):
            violations.append((row["index"], "lower decreased"))
        if np.any(np.diff(highs, axis=0) > 1e-9):
            violations.append((row["index"], "upper increased"))
        if np.any(lows > highs + 1e-6):
            violations.append((row["index"], "lower above upper"))
    _report(5, not violations,
            f"width(b0) non-increasing, bounds monotone and ordered at 32 audit "
            f"beliefs across {len(random_suite['rows'])} runs; violations={violations}")


# ---------------------------------------------------------------------------
# criterion 6: hull projection vs enumeration oracle
# ---------------------------------------------------------------------------

def test_criterion_6_lp_oracle_equivalence():
    rng = np.random.default_rng(SUITE_SEED)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        ns = int(rng.integers(2, 5))
        n_interior = int(rng.integers(0, 11 - ns))
        upper = UpperBound([float(rng.uniform(0, 5)) for _ in range(ns)])
        for _ in range(n_interior):
            upper.add_point(Belief.from_dense(rng.dirichlet(np.ones(ns))),
                            float(rng.uniform(-2, 5)), None)
        rows, values = oracles.upper_points(upper)
        query = Belief.from_dense(rng.dirichlet(np.ones(ns)))
        got = upper.value(query)
        expected = oracles.caratheodory_projection(rows, values, query.to_dense())
        worst = max(worst, abs(got - expected))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed <= 60.0
    _report(6, ok,
            f"1000 upper-bound values match the subset-enumeration oracle, "
            f"worst diff {worst:.2e}, {elapsed:.0f}s (budget 60s)")


# ---------------------------------------------------------------------------
# criterion 7: backup equals the definitional Bellman maximum
# ---------------------------------------------------------------------------

def test_criterion_7_backup_definition_equivalence():
    rng = np.random.default_rng(SUITE_SEED + 7)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        ns = int(rng.integers(2, 5))
        na = int(rng.integers(1, 4))
        no = int(rng.integers(1, 4))
        model = oracles.random_pomdp(rng, ns, na, no, 0.9)
        t, o, r = oracles.dense_tensors(model)
        lb = LowerBound(ns)
        vectors = rng.normal(size=(int(rng.integers(1, 6)), ns))
        for i, vec in enumerate(vectors):
            lb.add(AlphaVector(vec, int(i % na)))
        b = Belief.from_dense(rng.dirichlet(np.ones(ns)))
        beta = backup_lower(model, lb, b, expand(model, lb.value, b))
        value_fn = lambda dense: oracles.lower_value_naive(vectors, dense)
        expected = max(oracles.q_value_naive(t, o, r, 0.9, value_fn, b.to_dense(), a)
                       for a in range(na))
        got = float(beta.values[b.states] @ b.probs)
        worst = max(worst, abs(got - expected))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed <= 60.0
    _report(7, ok,
            f"1000 backups equal max-a Q against the current vector set, "
            f"worst diff {worst:.2e}, {elapsed:.0f}s (budget 60s)")


# ---------------------------------------------------------------------------
# criterion 8: policy soundness sandwich
# ---------------------------------------------------------------------------

def test_criterion_8_policy_soundness_sandwich(random_suite, suite_evaluations,
                                               rocksample_run):
    violations = []
    for row in random_suite["rows"]:
        mean, stderr = suite_evaluations[row["index"]]
        slack = 3 * stderr
        if not (row["lower_b0"] - slack <= mean <= row["upper_b0"] + slack):
            violations.append((row["index"], mean,
                               row["lower_b0"], row["upper_b0"], stderr))
    stats = rocksample_run["stats"]
    result = rocksample_run["result"]
    lo, hi = result.trace.lower_b0[-1], result.trace.upper_b0[-1]
    if not (lo - 3 * stats.stderr <= stats.mean <= hi + 3 * stats.stderr):
        violations.append(("rocksample44", stats.mean, lo, hi, stats.stderr))
    _report(8, not violations,
            f"simulated mean within [lower-3se, upper+3se] for all "
            f"{len(random_suite['rows'])} suite models and RockSample[4,4]; "
            f"violations={violations}")


# ---------------------------------------------------------------------------
# optional external benchmark (needs a user-supplied model file)
# ---------------------------------------------------------------------------

TIGER_GRID_PATH = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                               "tiger-grid.pomdp")


@pytest.mark.skipif(not os.path.exists(TIGER_GRID_PATH),
                    reason="benchmarks/tiger-grid.pomdp not supplied")
def test_optional_tiger_grid_quality():
    model = load_pomdp(TIGER_GRID_PATH)
    result = solve_anytime(model, SolverConfig(epsilon=1e-6, timeout_s=600.0))
    stats = evaluate(model, result.bounds.lower,
                     EvalConfig(num_episodes=500, horizon=HORIZON, seed=0))
    _report("optional-tiger-grid", stats.mean >= 2.25,
            f"mean reward {stats.mean:.3f} (+/- {stats.ci95_half_width:.3f})")
