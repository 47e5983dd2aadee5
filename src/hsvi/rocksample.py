"""Scalable rover-exploration benchmark generator.

A rover moves on an n x n grid holding k rocks at known cells; each rock is
independently good or bad (hidden, uniform prior). Moving off the right edge
ends the episode with a reward; sampling the rock under the rover pays off
only if the rock is good (and spoils it); a long-range sensor check of rock i
returns its true type with probability (1 + eta) / 2 where the efficiency
eta = 2^(-d / d0) decays with the Euclidean distance d from rover to rock.
At d = 0 the sensor is perfect, far away it degenerates to a coin flip.

Encoding: grid cell (x, y) has position index y*n + x; a non-terminal state
is position * 2^k + rock_bits (bit i set = rock i good); the absorbing
terminal state is the last index. Actions are
[North, South, East, West, Sample, Check_1 .. Check_k]; observations are
[Good, Bad]. Actions that carry no sensor reading (moves, Sample) emit an
uninformative 50/50 observation so every observation has positive
probability. The discount (0.95) and the rewards (exit +10, sample +10 on a
good rock and -10 otherwise) are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import InvalidParams
from .model import Belief, PomdpModel

GOOD, BAD = 0, 1
DISCOUNT = 0.95
SAMPLE_GOOD_REWARD = 10.0
SAMPLE_BAD_PENALTY = -10.0
EXIT_REWARD = 10.0


@dataclass
class RockSampleParams:
    """Instance description; positions left as None are drawn reproducibly
    from layout_seed. half_efficiency_distance is the free sensor parameter
    d0 (the distance at which efficiency halves); 20 is a conventional
    default that keeps the sensor strong across small maps."""

    grid_size: int
    num_rocks: int
    rock_positions: list = None
    rover_start: tuple = None
    half_efficiency_distance: float = 20.0
    layout_seed: int = 0

    def resolved(self):
        """Copy with concrete rock positions and rover start."""
        n, k = self.grid_size, self.num_rocks
        if n < 1 or k < 1:
            raise InvalidParams("need grid_size >= 1 and num_rocks >= 1")
        if self.half_efficiency_distance <= 0:
            raise InvalidParams("half_efficiency_distance must be positive")
        rocks = self.rock_positions
        if rocks is None:
            rng = np.random.default_rng(self.layout_seed)
            if k > n * n:
                raise InvalidParams(f"{k} rocks do not fit on a {n}x{n} grid")
            cells = rng.choice(n * n, size=k, replace=False)
            rocks = [(int(c) % n, int(c) // n) for c in cells]
        rocks = [(int(x), int(y)) for x, y in rocks]
        if len(rocks) != k:
            raise InvalidParams(f"expected {k} rock positions, got {len(rocks)}")
        if len(set(rocks)) != k:
            raise InvalidParams("rock positions must be distinct cells")
        for x, y in rocks:
            if not (0 <= x < n and 0 <= y < n):
                raise InvalidParams(f"rock at ({x},{y}) is outside the {n}x{n} grid")
        start = self.rover_start if self.rover_start is not None else (0, n // 2)
        start = (int(start[0]), int(start[1]))
        if not (0 <= start[0] < n and 0 <= start[1] < n):
            raise InvalidParams(f"rover start {start} is outside the grid")
        return RockSampleParams(n, k, rocks, start, self.half_efficiency_distance,
                                self.layout_seed)


def gen_rocksample(params):
    """Build the POMDP: n^2 * 2^k + 1 states, k + 5 actions, 2 observations."""
    params = params.resolved()
    n, k = params.grid_size, params.num_rocks
    combos = 1 << k
    cells = n * n
    terminal = cells * combos
    num_states = terminal + 1
    num_actions = k + 5

    pos = np.arange(cells)
    x, y = pos % n, pos // n
    bits = np.arange(combos)
    # state index grid, shape (cells, combos)
    sid = pos[:, None] * combos + bits[None, :]

    rock_at = np.full(cells, -1, dtype=np.int64)
    for i, (rx, ry) in enumerate(params.rock_positions):
        rock_at[ry * n + rx] = i

    reward = np.zeros((num_actions, num_states))
    observation = np.full((num_actions, num_states, 2), 0.5)
    transitions = []

    def motion(new_pos):
        rows = sid.ravel()
        cols = (new_pos[:, None] * combos + bits[None, :]).ravel()
        return rows, cols

    for a in range(num_actions):
        if a == 0:    # North
            rows, cols = motion(np.where(y < n - 1, pos + n, pos))
        elif a == 1:  # South
            rows, cols = motion(np.where(y > 0, pos - n, pos))
        elif a == 2:  # East; the right edge exits into the terminal state
            new_pos = np.where(x < n - 1, pos + 1, pos)
            rows, cols = motion(new_pos)
            exiting = (rows // combos) % n == n - 1
            cols = np.where(exiting, terminal, cols)
            reward[a, sid[x == n - 1].ravel()] = EXIT_REWARD
        elif a == 3:  # West
            rows, cols = motion(np.where(x > 0, pos - 1, pos))
        elif a == 4:  # Sample the rock under the rover (penalized no-op off-rock)
            rows = sid.ravel()
            cols = rows.copy()
            reward[a, : terminal] = SAMPLE_BAD_PENALTY
            for cell in np.flatnonzero(rock_at >= 0):
                i = rock_at[cell]
                good = (bits >> i) & 1 == 1
                here = sid[cell]
                reward[a, here[good]] = SAMPLE_GOOD_REWARD
                reward[a, here[~good]] = SAMPLE_BAD_PENALTY
                # a sampled good rock turns bad
                sel = np.isin(rows, here[good])
                cols = np.where(sel, rows & ~np.int64(1 << i), cols)
        else:         # Check_i: stationary, pure sensing
            i = a - 5
            rows = sid.ravel()
            cols = rows.copy()
            rx, ry = params.rock_positions[i]
            dist = np.hypot(x - rx, y - ry)
            efficiency = np.exp2(-dist / params.half_efficiency_distance)
            p_correct = 0.5 + 0.5 * efficiency
            good = ((bits >> i) & 1 == 1)
            p_good_obs = np.where(good[None, :], p_correct[:, None],
                                  1.0 - p_correct[:, None])
            observation[a, : terminal, GOOD] = p_good_obs.ravel()
            observation[a, : terminal, BAD] = 1.0 - p_good_obs.ravel()
        rows = np.append(rows, terminal)
        cols = np.append(cols, terminal)
        transitions.append(sparse.csr_array(
            (np.ones(rows.size), (rows, cols)), shape=(num_states, num_states)))

    reward[:, terminal] = 0.0

    start_cell = params.rover_start[1] * n + params.rover_start[0]
    initial = Belief._trusted(
        num_states,
        (start_cell * combos + bits).astype(np.int64),
        np.full(combos, 1.0 / combos),
    )

    action_names = ["North", "South", "East", "West", "Sample"] + [
        f"Check_{i + 1}" for i in range(k)]
    return PomdpModel(
        transitions, observation, reward, DISCOUNT, initial,
        action_names=action_names, observation_names=["Good", "Bad"],
    )
