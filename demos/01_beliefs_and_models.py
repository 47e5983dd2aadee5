"""A first look at models and belief filtering.

A robot patrols a 4-cell corridor with a door sensor: cells 0 and 2 have
doors. The robot can move right or stay, motion is sloppy (10% chance of
staying put), and the sensor misreads 15% of the time. We track the belief
over cells as actions and observations stream in.
"""

import numpy as np

from hsvi import Belief, PomdpModel, belief_update, successor_distributions

CELLS = 4
DOOR_CELLS = [0, 2]
STAY, RIGHT = 0, 1
SEE_DOOR, SEE_WALL = 0, 1

transition = np.zeros((2, CELLS, CELLS))
transition[STAY] = np.eye(CELLS)
for c in range(CELLS):
    target = min(c + 1, CELLS - 1)
    transition[RIGHT, c, target] += 0.9
    transition[RIGHT, c, c] += 0.1

observation = np.zeros((2, CELLS, 2))
for c in range(CELLS):
    p_door = 0.85 if c in DOOR_CELLS else 0.15
    observation[:, c, SEE_DOOR] = p_door
    observation[:, c, SEE_WALL] = 1.0 - p_door

reward = np.zeros((2, CELLS))  # rewards are irrelevant for filtering

model = PomdpModel(transition, observation, reward, 0.9, Belief.uniform(CELLS))
print(model)

belief = model.initial_belief
print(f"\nstart          {np.round(belief.to_dense(), 3)}")

script = [(STAY, SEE_DOOR), (RIGHT, SEE_WALL), (RIGHT, SEE_DOOR)]
for step, (action, obs) in enumerate(script, start=1):
    chance = successor_distributions(model, belief, action)[0][obs]
    belief = belief_update(model, belief, action, obs)
    name = "door" if obs == SEE_DOOR else "wall"
    act = "stay " if action == STAY else "right"
    print(f"step {step}: {act} saw {name} (p={chance:.2f}) -> "
          f"{np.round(belief.to_dense(), 3)}")

print("\nAfter door, wall, door the robot is fairly sure it sits on cell 2:")
print(f"  P(cell 2) = {belief.to_dense()[2]:.3f}")
