"""Smoke test for the scripts under `demos/`: the quick ones run to the
end; for the slow ones every name they import from `hsvi` must exist."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hsvi

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
QUICK = ["01_beliefs_and_models.py", "02_bounds_anatomy.py"]
SLOW = ["03_solve_with_certificate.py", "04_rocksample_mission.py"]


def test_demo_list_is_complete():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(QUICK + SLOW)


@pytest.mark.parametrize("name", QUICK)
def test_quick_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", QUICK + SLOW)
def test_demo_imports_resolve(name):
    tree = ast.parse((DEMOS / name).read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "hsvi"
                for alias in node.names]
    assert imported
    missing = [n for n in imported if not hasattr(hsvi, n)]
    assert not missing, missing
