"""Recompute ``suite_exact.json``: the exact value interval at b0 of every
model of the acceptance suite, of which the random25 workload solves the
first 25.

    PYTHONPATH=src:tests python3 perfbench/exact_reference.py

The intervals come from the exact piecewise-linear-convex Bellman recursion
of ``tests/oracles.py`` (``exact_value_interval``, bracket width 2e-3), run
on each model as the workload loads it: written to `.pomdp` text and parsed
back. The file also stores a SHA-256 of each model's text, so a workload run
can tell when the reference no longer matches its inputs. It takes about five
minutes on one core; models 6, 30 and 40 take most of it.
"""

import hashlib
import io
import json
import sys
import time
from pathlib import Path

import oracles
from hsvi import parse_pomdp, write_pomdp

from inputs import SUITE_SIZE, suite_models

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "suite_exact.json"
BRACKET = 2e-3


def model_text(model):
    buffer = io.StringIO()
    write_pomdp(model, buffer)
    return buffer.getvalue()


def text_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def main():
    rows = []
    for name, model in suite_models(SUITE_SIZE):
        text = model_text(model)
        start = time.monotonic()
        lo, hi = oracles.exact_value_interval(parse_pomdp(text), tol=BRACKET)
        elapsed = time.monotonic() - start
        rows.append({"file": name, "sha256": text_digest(text), "lo": lo, "hi": hi})
        print(f"{name}: [{lo:.9f}, {hi:.9f}] in {elapsed:.1f} s", file=sys.stderr)
    REFERENCE.write_text(json.dumps({"bracket": BRACKET, "models": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
