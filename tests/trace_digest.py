"""Fingerprint of the benchmark's solves, to show that a change leaves them
bitwise unchanged.

    PYTHONPATH=src python3 tests/trace_digest.py [workload ...]

For each workload of ``perfbench/workload.py`` (all three by default) it
writes the models of ``perfbench/inputs.py`` as `.pomdp` text, parses them
back as the benchmark does, and solves each with the workload's settings.
It prints the trials, updates, points and vectors, summed over the
workload's models, the final interval at b0 of its last model, and a sha256
over the reprs of every trace row's ``lower_b0``, ``upper_b0`` and
``width``, all models' rows included. Two trees solve alike when their lines
are equal. The file name keeps pytest from collecting it.
"""

import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402
from workload import WORKLOADS  # noqa: E402

from hsvi import SolverConfig, parse_pomdp, solve, solve_anytime, write_pomdp  # noqa: E402


def digest(name):
    spec = WORKLOADS[name]
    solver = solve_anytime if spec.anytime else solve
    counts = (0, 0, 0, 0)
    rows = hashlib.sha256()
    for _, model in inputs.models(name):
        text = io.StringIO()
        write_pomdp(model, text)
        result = solver(parse_pomdp(text.getvalue()), SolverConfig(epsilon=spec.epsilon))
        trace = result.trace
        counts = [total + n for total, n in zip(counts, (
            trace.trial[-1], result.total_updates, result.bounds.upper.num_points,
            len(result.bounds.lower)))]
        for row in zip(trace.lower_b0, trace.upper_b0, trace.width):
            rows.update(" ".join(map(repr, row)).encode() + b"\n")
    trials, updates, points, vectors = counts
    return (f"{name}: trials {trials} updates {updates} points {points} vectors {vectors} "
            f"final [{trace.lower_b0[-1]!r}, {trace.upper_b0[-1]!r}] rows {rows.hexdigest()}")


def main(names):
    for name in names or WORKLOADS:
        print(digest(name), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
