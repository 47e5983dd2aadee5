"""Benchmark entry point. From the root of a checkout:

    python3 perfbench/run.py --workload rs44 --seed 1 --seconds 10 --trace 0

Workloads: rs44, rs78, random25 (see README.md). The package is used from
``src/`` as it stands. The inputs are made in one process, the workload runs
in another with the BLAS and OpenMP thread pools pinned to one thread, and
this process prints the workload's result as the last line of its standard
output: one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``). Without ``src/hsvi`` it prints no result and exits 2.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOADS = ("rs44", "rs78", "random25")
INPUTS_TIMEOUT_S = 60
WORKLOAD_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "hsvi" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'hsvi'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as scratch:
        scratch = Path(scratch)
        subprocess.run([sys.executable, str(HERE / "inputs.py"), args.workload, str(scratch)],
                       env=env, check=True, timeout=INPUTS_TIMEOUT_S)
        result_file = scratch / "result.json"
        spawned_at = time.monotonic()
        subprocess.run([sys.executable, str(HERE / "workload.py"),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--inputs", str(scratch), "--result", str(result_file),
                        "--spawned-at", repr(spawned_at)],
                       env=env, check=True, timeout=WORKLOAD_TIMEOUT_S)
        result = json.loads(result_file.read_text())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running child, and through the temporary directory's clean-up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(1)
