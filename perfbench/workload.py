"""One benchmark workload, run in its own process by ``run.py``.

    python3 perfbench/workload.py --workload rs44 --seed 1 --seconds 10 \
        --trace 0 --inputs DIR --result FILE --spawned-at T

Set-up parses the workload's `.pomdp` files. The timed phase then runs whole
rounds until ``--seconds`` have passed, at least one: a round solves every
model to the workload's width target at b0 and evaluates the greedy
lower-bound policy of each. The width target fixes the work, so only its
speed varies between runs. Peak RSS is read when the timed phase ends; the
correctness checks follow, untimed. The result is written as JSON to
``--result``; a human summary goes to standard error.

``--spawned-at`` is the ``time.monotonic()`` reading the parent took just
before starting this process, so that ``setup_s`` covers the cold start:
interpreter, imports and parsing.
"""

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hsvi
import hsvi.evaluator
from hsvi import EvalConfig, HsviError, SolverConfig

import checks
import inputs
from layers import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "suite_exact.json"
HORIZON = 251


@dataclass(frozen=True)
class Workload:
    anytime: bool          # solve_anytime (True) or solve (False)
    epsilon: float         # width target at b0
    coarse_width: float    # width whose first crossing time_to_coarse_width_s reports
    episodes: int          # evaluation episodes per model
    checked_beliefs: int   # beliefs checked against HiGHS (RockSample only)


WORKLOADS = {
    "rs44": Workload(anytime=True, epsilon=0.01, coarse_width=0.1, episodes=2000,
                     checked_beliefs=40),
    "rs78": Workload(anytime=True, epsilon=17.0, coarse_width=18.0, episodes=100,
                     checked_beliefs=6),
    "random25": Workload(anytime=False, epsilon=0.01, coarse_width=0.1, episodes=4,
                         checked_beliefs=0),
}


class StepCounter:
    """Counts the evaluator's belief updates, one per simulated step,
    without timing them."""

    def __init__(self):
        self.steps = 0
        update = hsvi.evaluator.belief_update

        def counted(*args):
            self.steps += 1
            return update(*args)

        hsvi.evaluator.belief_update = counted


def run_round(spec, models, seed, counter):
    solver = hsvi.solve_anytime if spec.anytime else hsvi.solve
    figures = {"solve_s": 0.0, "coarse_s": 0.0, "eval_s": 0.0, "steps": 0,
               "attempted": 0, "failed": 0, "trials": 0, "updates": 0, "vectors": 0,
               "points": 0, "results": [], "evaluations": []}
    for model in models:
        figures["attempted"] += 1 + spec.episodes
        start = time.perf_counter()
        try:
            result = solver(model, SolverConfig(epsilon=spec.epsilon))
        except HsviError as error:
            print(f"solve failed: {error!r}", file=sys.stderr)
            figures["failed"] += 1 + spec.episodes
            figures["results"].append(None)
            figures["evaluations"].append(None)
            continue
        figures["solve_s"] += time.perf_counter() - start
        figures["coarse_s"] += next(t for t, w in zip(result.trace.wall_time_s, result.trace.width)
                                    if w <= spec.coarse_width)
        figures["trials"] += result.trace.trial[-1]
        figures["updates"] += result.total_updates
        figures["vectors"] += len(result.bounds.lower)
        figures["points"] += result.bounds.upper.num_points
        figures["results"].append(result)
        steps_before = counter.steps
        start = time.perf_counter()
        try:
            evaluation = hsvi.evaluate(model, result.bounds.lower,
                                       EvalConfig(num_episodes=spec.episodes, horizon=HORIZON,
                                                  seed=seed))
        except HsviError as error:
            print(f"evaluation failed: {error!r}", file=sys.stderr)
            figures["failed"] += spec.episodes
            figures["evaluations"].append(None)
            continue
        figures["eval_s"] += time.perf_counter() - start
        figures["steps"] += counter.steps - steps_before
        figures["evaluations"].append(evaluation)
    return figures


def sampled_beliefs(model, visited, count, rng):
    """b0, then beliefs the dense simulation visited, and as many Dirichlet
    reweightings of their supports."""
    picked = [model.initial_belief]
    if visited:
        for index in np.linspace(0, len(visited) - 1, min(count, len(visited))).astype(int):
            picked.append(hsvi.Belief.from_dense(visited[index]))
    for b in picked[1: count + 1]:
        picked.append(hsvi.Belief(model.num_states, b.states,
                                  rng.dirichlet(np.ones(len(b)))))
    return picked


def run_checks(name, spec, models, texts, figures, seed):
    failures = []
    rng = np.random.default_rng([seed, 1])
    reference = None
    if name == "random25":
        reference = json.loads(REFERENCE.read_text())["models"]
    for index, (model, result, evaluation) in enumerate(
            zip(models, figures["results"], figures["evaluations"])):
        if result is None:
            continue
        failures += checks.check_solve(model, result, spec.epsilon, checks.mdp_values(model))
        if reference is not None:
            row = reference[index]
            if row["sha256"] != hashlib.sha256(texts[index].encode()).hexdigest():
                failures.append(f"{row['file']}: input differs from the reference's model")
            failures += checks.check_exact_interval(row["file"], result, row)
        if spec.checked_beliefs == 0 or evaluation is None:
            continue
        lower = result.bounds.lower
        returns, visited = checks.simulate_dense(model, lower.matrix.copy(), lower.actions.copy(),
                                                 spec.episodes, HORIZON, rng)
        failures += checks.check_evaluation(evaluation, result.trace.lower_b0[-1],
                                            result.trace.upper_b0[-1], returns)
        failures += checks.check_beliefs(result.bounds, sampled_beliefs(
            model, visited, spec.checked_beliefs // 2, rng))
    if name in inputs.ROCKSAMPLE:
        failures += checks.check_round_trip(models[0], inputs.rocksample_model(name))
    return failures


def layer_metrics(tracer, rounds):
    span = tracer.spans.__getitem__
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in ("model.successor_distributions", "model.belief_update", "lp.projection_lp",
                  "bounds.UpperBound.value", "bounds.LowerBound.value",
                  "bounds.LowerBound.best_index", "bounds.backup_lower",
                  "bounds.prune_lower"):
        put(f"{layer}.calls", span(layer).calls, "count")
        put(f"{layer}.self_s", span(layer).self_s, "s")
    sd = span("model.successor_distributions")
    put("model.successor_distributions.states_in",
        sd.counts["states_in"] / max(sd.calls, 1), "states")
    lp = span("lp.projection_lp")
    put("lp.projection_lp.pivots", lp.counts["pivots"], "count")
    put("lp.projection_lp.cells", lp.counts["cells"], "count")
    put("bounds.apply_update.calls", span("bounds.apply_update").calls, "count")
    put("bounds.apply_update.total_s", span("bounds.apply_update").total_s, "s")
    put("bounds.prune_upper.calls", span("bounds.prune_upper").calls, "count")
    put("bounds.prune_upper.points_removed",
        span("bounds.prune_upper").counts["points_removed"], "count")
    put("bounds.prune_lower.vectors_removed",
        span("bounds.prune_lower").counts["vectors_removed"], "count")
    put("bounds.init_bounds.total_s", span("bounds.init_bounds").total_s, "s")
    put("evaluator.evaluate.self_s", span("evaluator.evaluate").self_s, "s")
    put("fileio.parse_pomdp.self_s", span("fileio.parse_pomdp").self_s, "s")
    put("fileio.parse_pomdp.bytes", span("fileio.parse_pomdp").counts["bytes"], "bytes")
    for name, key in (("trials", "trials"), ("updates", "updates"),
                      ("final_vectors", "vectors"), ("final_points", "points")):
        put(f"solver.{name}", sum(r[key] for r in rounds), "count")
    put("solver.self_s", span("solver.solve").self_s + span("solver.solve_anytime").self_s, "s")
    return metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()
    name, spec = args.workload, WORKLOADS[args.workload]

    tracer = Tracer()
    if args.trace:
        tracer.install()
        tracer.active = True
    files = [args.inputs / file_name for file_name, _ in inputs.models(name)]
    texts = [path.read_text() for path in files]
    models = [hsvi.parse_pomdp(text) for text in texts]
    setup_s = time.monotonic() - args.spawned_at

    counter = StepCounter()
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        if rounds:  # only the last round's solutions are checked
            rounds[-1]["results"] = rounds[-1]["evaluations"] = None
        rounds.append(run_round(spec, models, args.seed, counter))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.active = False

    last = rounds[-1]
    checks_start = time.monotonic()
    failures = run_checks(name, spec, models, texts, last, args.seed)
    checks_s = time.monotonic() - checks_start
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)

    eval_s = sum(r["eval_s"] for r in rounds)
    summary = {
        "rounds": len(rounds),
        "solve_s": statistics.median(r["solve_s"] for r in rounds),
        "trials": sum(r["trials"] for r in rounds),
        "updates": sum(r["updates"] for r in rounds),
        "steps": sum(r["steps"] for r in rounds),
        "eval_s": eval_s,
        "checks_s": checks_s,
        "checks_failed": len(failures),
    }
    print(f"{name} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}"
                      for k, v in summary.items()), file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(tracer, rounds)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_s": {"value": summary["solve_s"], "unit": "s"},
            "time_to_coarse_width_s": {
                "value": statistics.median(r["coarse_s"] for r in rounds), "unit": "s"},
            "eval_steps_per_s": {"value": summary["steps"] / eval_s if eval_s else 0.0,
                                 "unit": "steps/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
