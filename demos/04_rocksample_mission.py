"""End to end on the rover benchmark: generate, plan, execute, persist.

RockSample[4,4]: a rover on a 4x4 grid, four rocks of unknown quality, a
noisy long-range sensor, and an exit at the east edge. We plan under a small
wall-clock budget with the anytime driver, simulate the resulting policy,
and round-trip it through the policy file format.
"""

import io
import time

from hsvi import (
    EvalConfig,
    RockSampleParams,
    SolverConfig,
    evaluate,
    gen_rocksample,
    load_policy,
    save_policy,
    solve_anytime,
)

params = RockSampleParams(4, 4).resolved()
print(f"rover starts at {params.rover_start}, rocks at {params.rock_positions}")

model = gen_rocksample(params)
print(f"{model}\n")

budget = 20.0
print(f"planning for up to {budget:.0f} seconds...")
start = time.monotonic()
result = solve_anytime(model, SolverConfig(epsilon=1e-6, timeout_s=budget))
trace = result.trace
print(f"stopped after {time.monotonic() - start:.1f}s: {result.terminated_by}, "
      f"{trace.trial[-1]} trials, {result.total_updates} updates")
print(f"interval at the start belief: "
      f"[{trace.lower_b0[-1]:.3f}, {trace.upper_b0[-1]:.3f}] "
      f"(was width {trace.width[0]:.2f}, now {result.final_width:.4f})")

stats = evaluate(model, result.bounds.lower,
                 EvalConfig(num_episodes=200, horizon=251, seed=0))
print(f"\n200 simulated missions: mean discounted return "
      f"{stats.mean:.2f} +/- {stats.ci95_half_width:.2f} (95% CI)")
lo = trace.lower_b0[-1] - 3 * stats.stderr
hi = trace.upper_b0[-1] + 3 * stats.stderr
print(f"guarantee check: mean in [lower-3se, upper+3se] = "
      f"[{lo:.2f}, {hi:.2f}] -> {lo <= stats.mean <= hi}")

sink = io.StringIO()
save_policy(result.bounds.lower, sink)
reloaded = load_policy(sink.getvalue())
replay = evaluate(model, reloaded, EvalConfig(num_episodes=200, horizon=251, seed=0))
print(f"\npolicy file round trip: replayed mean {replay.mean:.2f} "
      f"(bit-identical: {bool((stats.returns == replay.returns).all())})")
