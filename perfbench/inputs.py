"""Make the benchmark's input models as `.pomdp` text.

Run as its own process, before the workload process starts:

    python3 perfbench/inputs.py <workload> <out_dir>

It writes one `.pomdp` file per model of the workload into ``out_dir``. The
models are fixed instances, so every run solves the same models:

- ``rs44``: RockSample[4,4], layout seed 0;
- ``rs78``: RockSample[7,8], layout seed 0 (12,545 states, 13.7 MB of text);
- ``random25``: the first 25 of the 50 Dirichlet-random models of acceptance
  criterion 3 (suite seed 20260808, |S| in 2..4, |A| and |O| in 1..3,
  discount 0.9).
"""

import sys
from pathlib import Path

import numpy as np

from hsvi import Belief, PomdpModel, RockSampleParams, gen_rocksample, write_pomdp

ROCKSAMPLE = {"rs44": (4, 4), "rs78": (7, 8)}
LAYOUT_SEED = 0
SUITE_SEED = 20260808
SUITE_SIZE = 50       # models in the acceptance suite
RANDOM_MODELS = 25    # the first ones make the random25 workload
SUITE_DISCOUNT = 0.9


def rocksample_model(workload):
    grid, rocks = ROCKSAMPLE[workload]
    return gen_rocksample(RockSampleParams(grid, rocks, layout_seed=LAYOUT_SEED))


def suite_model(index):
    """Model ``index`` of the random suite, drawn in the same order as the
    acceptance suite draws it."""
    rng = np.random.default_rng([SUITE_SEED, index])
    ns = int(rng.integers(2, 5))
    na = int(rng.integers(1, 4))
    no = int(rng.integers(1, 4))
    t = rng.dirichlet(np.ones(ns), size=(na, ns))
    o = rng.dirichlet(np.ones(no), size=(na, ns))
    r = rng.uniform(-1.0, 1.0, size=(na, ns))
    b0 = Belief.from_dense(rng.dirichlet(np.ones(ns)))
    return PomdpModel(t, o, r, SUITE_DISCOUNT, b0)


def suite_models(count):
    return [(f"suite_{i:02d}.pomdp", suite_model(i)) for i in range(count)]


def models(workload):
    """(file name, model) pairs of a workload, in solving order."""
    if workload in ROCKSAMPLE:
        return [(f"{workload}.pomdp", rocksample_model(workload))]
    if workload == "random25":
        return suite_models(RANDOM_MODELS)
    raise ValueError(f"unknown workload {workload!r}")


def main(argv):
    if len(argv) != 2:
        print("usage: inputs.py <workload> <out_dir>", file=sys.stderr)
        return 2
    workload, out_dir = argv[0], Path(argv[1])
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, model in models(workload):
        write_pomdp(model, out_dir / name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
