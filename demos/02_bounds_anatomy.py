"""How the two-sided value bounds work and tighten.

The lower bound is a set of alpha vectors (max of linear functions); the
upper bound is a point set evaluated by projecting the query belief onto the
lower convex hull of the points. Local updates at a belief add one vector and
one point, squeezing the interval there and nearby.
"""

import numpy as np

from hsvi import Belief, PomdpModel, apply_update, expand, init_bounds

rng = np.random.default_rng(7)
NS, NA, NO = 3, 2, 2
transition = rng.dirichlet(np.ones(NS), size=(NA, NS))
observation = rng.dirichlet(np.ones(NO), size=(NA, NS))
reward = rng.uniform(-1.0, 1.0, size=(NA, NS))
model = PomdpModel(transition, observation, reward, 0.9,
                   Belief.from_dense(rng.dirichlet(np.ones(NS))))

bounds = init_bounds(model)
b0 = model.initial_belief

print("blind-policy floor (one constant vector):")
print(f"  alpha = {np.round(bounds.lower.matrix[0], 3)}, "
      f"action tag = {bounds.lower.actions[0]}")
print("fully-observable ceiling (corner values):")
print(f"  V_MDP = {np.round(bounds.upper.corner_values, 3)}")

lower, upper = bounds.lower.value(b0), bounds.upper.value(b0)
print(f"\ninterval at b0 before any work: "
      f"[{lower:.3f}, {upper:.3f}] width {upper - lower:.3f}")

print("\nten local updates at b0, each from a fresh upper-bound expansion:")
for i in range(10):
    apply_update(model, bounds, b0, expand(model, bounds.upper.value, b0))
    lower, upper = bounds.lower.value(b0), bounds.upper.value(b0)
    print(f"  update {i + 1}: [{lower: .4f}, {upper: .4f}]"
          f"  width {upper - lower:.4f}  |vectors|={len(bounds.lower)}"
          f"  |points|={bounds.upper.num_points}")

print("\naction values against each bound at b0:")
lower_q = expand(model, bounds.lower.value, b0)
upper_q = expand(model, bounds.upper.value, b0)
for a in range(NA):
    print(f"  action {a}: Q in [{lower_q[a].q:.4f}, {upper_q[a].q:.4f}]")
print("\nThe update at a single belief also tightened its neighborhood;")
print("that generalization is what makes the representations worthwhile.")
