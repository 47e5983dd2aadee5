"""Command-line front end.

Subcommands:
    solve           fixed-target planning on a `.pomdp` file
    anytime         anytime planning under a wall-clock budget
    gen-rocksample  write a RockSample[n,k] instance as a `.pomdp` file
    evaluate        Monte Carlo evaluation of a saved policy

Exit codes: 0 success, 1 usage or input error, 2 partial result (timeout or
trial cap). Set HSVI_LOG to a logging level name for diagnostics.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .errors import HsviError, InvalidParams
from .evaluator import EvalConfig, evaluate
from .fileio import load_policy_file, load_pomdp, save_policy, write_pomdp
from .rocksample import RockSampleParams, gen_rocksample
from .solver import SolverConfig, solve, solve_anytime

log = logging.getLogger("hsvi")


def _solver_summary(result):
    lines = [
        f"status: {result.terminated_by}",
        f"interval at b0: [{result.trace.lower_b0[-1]:.6g}, {result.trace.upper_b0[-1]:.6g}]",
        f"width: {result.final_width:.6g} (target {result.epsilon:.6g})",
        f"vectors: {result.trace.num_vectors[-1]}  points: {result.trace.num_points[-1]}",
        f"updates: {result.total_updates}  trials: {result.trace.trial[-1]}",
    ]
    return "\n".join(lines)


def _write_outputs(result, args):
    if args.trace:
        result.trace.write_csv(args.trace)
        log.info("trace written to %s", args.trace)
    if args.policy:
        save_policy(result.bounds.lower, args.policy)
        log.info("policy written to %s", args.policy)


def cmd_solve(args):
    model = load_pomdp(args.model)
    config = SolverConfig(epsilon=args.epsilon, timeout_s=args.timeout)
    result = solve(model, config)
    _write_outputs(result, args)
    print(_solver_summary(result))
    return 0 if result.terminated_by == "epsilon-reached" else 2


def cmd_anytime(args):
    model = load_pomdp(args.model)
    config = SolverConfig(epsilon=args.epsilon, timeout_s=args.timeout)
    result = solve_anytime(model, config)
    _write_outputs(result, args)
    print(_solver_summary(result))
    print(f"regret bound: {result.final_width:.6g}")
    return 0 if result.terminated_by == "epsilon-reached" else 2


def _parse_cell(text):
    x, _, y = text.partition(",")
    try:
        return int(x), int(y)
    except ValueError:
        raise InvalidParams(f"expected a cell X,Y, got {text!r}") from None


def cmd_gen_rocksample(args):
    params = RockSampleParams(
        grid_size=args.n,
        num_rocks=args.k,
        rock_positions=[_parse_cell(r) for r in args.rock] if args.rock else None,
        rover_start=_parse_cell(args.start) if args.start else None,
        half_efficiency_distance=args.d0,
        layout_seed=args.layout_seed,
    )
    model = gen_rocksample(params)
    write_pomdp(model, args.out)
    print(f"{model.num_states} {model.num_actions} {model.num_observations}")
    return 0


def cmd_evaluate(args):
    model = load_pomdp(args.model)
    lb = load_policy_file(args.policy)
    if lb.num_states != model.num_states:
        print(f"error: policy has |S|={lb.num_states}, model has "
              f"|S|={model.num_states}", file=sys.stderr)
        return 1
    if (lb.actions >= model.num_actions).any():
        print("error: policy references actions the model does not have",
              file=sys.stderr)
        return 1
    config = EvalConfig(num_episodes=args.episodes, horizon=args.horizon,
                        seed=args.seed, discounted=not args.undiscounted)
    result = evaluate(model, lb, config)
    payload = {
        "mean": result.mean,
        "stderr": result.stderr,
        "ci95_half_width": result.ci95_half_width,
        "episodes": int(result.returns.size),
        "stderr_defined": result.stderr_defined,
        "truncation_bound": result.truncation_bound,
        "aborted_episodes": result.aborted_episodes,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"mean return: {result.mean:.6g} +/- {result.ci95_half_width:.6g} "
              f"(95% CI, {result.returns.size} episodes)")
        print(f"truncation bound: {result.truncation_bound:.3g}  "
              f"aborted: {result.aborted_episodes}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hsvi",
        description="Bounded-regret POMDP planning via heuristic search value iteration.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="plan until the gap at b0 drops to epsilon")
    p.add_argument("model")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS")
    p.add_argument("--trace", default=None, metavar="CSV")
    p.add_argument("--policy", default=None, metavar="FILE")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("anytime", help="plan under a wall-clock budget")
    p.add_argument("model")
    p.add_argument("--timeout", type=float, required=True, metavar="SECONDS")
    p.add_argument("--epsilon", type=float, default=1e-9,
                   help="final width target (default: machine tolerance)")
    p.add_argument("--trace", default=None, metavar="CSV")
    p.add_argument("--policy", default=None, metavar="FILE")
    p.set_defaults(func=cmd_anytime)

    p = sub.add_parser("gen-rocksample", help="generate a RockSample[n,k] model file")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("out")
    p.add_argument("--layout-seed", type=int, default=0)
    p.add_argument("--d0", type=float, default=20.0,
                   help="sensor half-efficiency distance")
    p.add_argument("--rock", action="append", default=None, metavar="X,Y",
                   help="explicit rock cell; repeat k times")
    p.add_argument("--start", default=None, metavar="X,Y")
    p.set_defaults(func=cmd_gen_rocksample)

    p = sub.add_parser("evaluate", help="simulate a saved policy")
    p.add_argument("model")
    p.add_argument("policy")
    p.add_argument("--episodes", type=int, default=500)
    p.add_argument("--horizon", type=int, default=251)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--undiscounted", action="store_true",
                   help="sum raw rewards instead of discounted returns")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None):
    logging.basicConfig(level=os.environ.get("HSVI_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HsviError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
