"""Command-line front end: exit codes, outputs, file contracts."""

import csv
import json

import numpy as np
import pytest

from hsvi import load_policy_file, load_pomdp
from hsvi.cli import main

ZERO_MODEL = """
discount: 0.95
values: reward
states: 1
actions: 1
observations: 1
T: 0 : 0 : 0 1.0
O: 0 : 0 : 0 1.0
"""


@pytest.fixture
def zero_model_path(tmp_path):
    path = tmp_path / "zero.pomdp"
    path.write_text(ZERO_MODEL)
    return str(path)


def test_solve_zero_reward_model(zero_model_path, tmp_path, capsys):
    policy_path = str(tmp_path / "out.policy")
    trace_path = str(tmp_path / "out.csv")
    code = main(["solve", zero_model_path, "--epsilon", "0.1",
                 "--policy", policy_path, "--trace", trace_path])
    assert code == 0
    lb = load_policy_file(policy_path)
    assert lb.actions.tolist() == [0]
    np.testing.assert_array_equal(lb.matrix, np.zeros((1, 1)))
    with open(trace_path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["trial", "wall_time_s", "lower_b0", "upper_b0", "width",
                       "num_vectors", "num_points", "updates", "max_depth"]


def test_missing_file_exits_one(capsys):
    assert main(["solve", "/nonexistent/model.pomdp"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_model_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.pomdp"
    path.write_text("discount: 0.9\nstates: 1\nbogus: directive\n")
    assert main(["solve", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("n,k,expected", [(4, 4, "257 9 2"), (5, 7, "3201 12 2")])
def test_gen_rocksample_prints_shape(tmp_path, capsys, n, k, expected):
    out = str(tmp_path / "rs.pomdp")
    assert main(["gen-rocksample", str(n), str(k), out]) == 0
    assert capsys.readouterr().out.strip() == expected
    model = load_pomdp(out)  # reparses and passes validation
    assert model.num_states == int(expected.split()[0])


def test_gen_rocksample_invalid_params(tmp_path, capsys):
    out = str(tmp_path / "rs.pomdp")
    assert main(["gen-rocksample", "3", "1", out, "--rock", "9,9"]) == 1


def test_evaluate_zero_reward_policy(zero_model_path, tmp_path, capsys):
    policy_path = str(tmp_path / "p.policy")
    assert main(["solve", zero_model_path, "--policy", policy_path]) == 0
    capsys.readouterr()
    code = main(["evaluate", zero_model_path, policy_path,
                 "--episodes", "5", "--horizon", "20", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mean"] == 0.0
    assert payload["ci95_half_width"] == 0.0
    assert payload["episodes"] == 5


def test_evaluate_dimension_mismatch(zero_model_path, tmp_path, capsys):
    policy_path = tmp_path / "p.policy"
    policy_path.write_text("alpha-policy v1 |S|=3\n0\n0 0 0\n")
    assert main(["evaluate", zero_model_path, str(policy_path)]) == 1
    assert "|S|" in capsys.readouterr().err


def test_evaluate_action_mismatch(zero_model_path, tmp_path, capsys):
    policy_path = tmp_path / "p.policy"
    policy_path.write_text("alpha-policy v1 |S|=1\n4\n0\n")
    assert main(["evaluate", zero_model_path, str(policy_path)]) == 1
    assert ("error: policy references actions the model does not have"
            in capsys.readouterr().err)


def test_evaluate_empty_policy_exits_one(zero_model_path, tmp_path, capsys):
    policy_path = tmp_path / "p.policy"
    policy_path.write_text("alpha-policy v1 |S|=1\n")
    assert main(["evaluate", zero_model_path, str(policy_path)]) == 1
    assert "error: the policy holds no alpha vector" in capsys.readouterr().err


def test_evaluate_zero_episodes_exits_one(zero_model_path, tmp_path, capsys):
    policy_path = tmp_path / "p.policy"
    policy_path.write_text("alpha-policy v1 |S|=1\n0\n0\n")
    assert main(["evaluate", zero_model_path, str(policy_path), "--episodes", "0"]) == 1
    assert "error: need num_episodes >= 1" in capsys.readouterr().err


def test_solve_zero_epsilon_exits_one(zero_model_path, capsys):
    assert main(["solve", zero_model_path, "--epsilon", "0"]) == 1
    assert "error: epsilon must be positive" in capsys.readouterr().err


def test_gen_rocksample_malformed_cell_exits_one(tmp_path, capsys):
    out = tmp_path / "rs.pomdp"
    assert main(["gen-rocksample", "2", "1", str(out), "--rock", "5"]) == 1
    assert "error: expected a cell X,Y, got '5'" in capsys.readouterr().err
    assert not out.exists()


def test_solve_trace_monotone_on_random_model(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.dirichlet(np.ones(3), size=(2, 3))
    o = rng.dirichlet(np.ones(2), size=(2, 3))
    r = rng.uniform(-1, 1, size=(2, 3))
    lines = ["discount: 0.9", "values: reward", "states: 3", "actions: 2",
             "observations: 2", "start: uniform"]
    for a in range(2):
        for s in range(3):
            for sp in range(3):
                lines.append(f"T: {a} : {s} : {sp} {float(t[a, s, sp])!r}")
            for obs in range(2):
                lines.append(f"O: {a} : {s} : {obs} {float(o[a, s, obs])!r}")
            lines.append(f"R: {a} : {s} : * : * {float(r[a, s])!r}")
    path = tmp_path / "rand.pomdp"
    path.write_text("\n".join(lines) + "\n")
    trace_path = tmp_path / "rand.csv"
    assert main(["solve", str(path), "--epsilon", "0.05", "--trace", str(trace_path)]) == 0
    with open(trace_path) as handle:
        rows = list(csv.DictReader(handle))
    widths = [float(r["width"]) for r in rows]
    times = [float(r["wall_time_s"]) for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(widths, widths[1:]))
    assert all(b >= a for a, b in zip(times, times[1:]))


def test_anytime_requires_timeout(zero_model_path):
    with pytest.raises(SystemExit):
        main(["anytime", zero_model_path])


def test_anytime_zero_model_reaches_epsilon(zero_model_path, capsys):
    assert main(["anytime", zero_model_path, "--timeout", "5"]) == 0
