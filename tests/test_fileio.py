"""Model file parsing/serialization and policy file round trips."""

import io
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsvi import fileio
from hsvi import (
    AlphaVector,
    Belief,
    EvalConfig,
    LowerBound,
    ParseError,
    PomdpModel,
    RockSampleParams,
    SolverConfig,
    ValidationError,
    evaluate,
    gen_rocksample,
    load_policy,
    load_policy_file,
    parse_pomdp,
    save_policy,
    solve_anytime,
    write_pomdp,
)

MINIMAL = """
# smallest possible model
discount: 0.95
values: reward
states: 1
actions: 1
observations: 1
T: 0 : 0 : 0 1.0
O: 0 : 0 : 0 1.0
"""


def test_parse_minimal_model():
    m = parse_pomdp(MINIMAL)
    assert (m.num_states, m.num_actions, m.num_observations) == (1, 1, 1)
    assert m.discount == 0.95
    assert m.reward[0, 0] == 0.0
    from hsvi import SolverConfig, solve

    res = solve(m, SolverConfig(epsilon=0.1))
    assert res.final_width == pytest.approx(0.0, abs=1e-9)


def test_parse_identity_keyword():
    text = """
discount: 0.9
values: reward
states: 3
actions: 1
observations: 1
T: 0
identity
O: 0
uniform
"""
    m = parse_pomdp(text)
    dense = m.transition[0].toarray()
    np.testing.assert_array_equal(dense, np.eye(3))


def test_parse_uniform_matrix_and_wildcards():
    text = """
discount: 0.9
states: 2
actions: 2
observations: 2
start: 0.25 0.75
T: *
uniform
O: * : * : 0 0.5
O: * : * : 1 0.5
R: 1 : 0 : * : * 4.5
"""
    m = parse_pomdp(text)
    np.testing.assert_allclose(m.transition[0].toarray(), np.full((2, 2), 0.5))
    np.testing.assert_allclose(m.transition[1].toarray(), np.full((2, 2), 0.5))
    assert m.reward[1, 0] == 4.5
    assert m.reward[0, 0] == 0.0
    np.testing.assert_allclose(m.initial_belief.to_dense(), [0.25, 0.75])


def test_parse_named_spaces_and_rows():
    text = """
discount: 0.9
values: reward
states: left right
actions: listen jump
observations: rumble silence
start: uniform
T: listen
identity
T: jump : left
0.1 0.9
T: jump : right
0.9 0.1
O: listen : left
0.8 0.2
O: listen : right
0.3 0.7
O: jump
uniform
R: listen : * : * : * -1
R: jump : right : * : * 3
"""
    m = parse_pomdp(text)
    assert m.state_names == ["left", "right"]
    assert m.transition[1].toarray()[0, 1] == 0.9
    assert m.observation[0, 0, 0] == 0.8
    assert m.reward[0, 0] == -1
    assert m.reward[1, 1] == 3


def test_parse_reward_reduction_over_dynamics():
    # reward depends on landing state: folded by expectation over T and O
    text = """
discount: 0.5
states: 2
actions: 1
observations: 1
start: uniform
T: 0 : 0 : 0 0.25
T: 0 : 0 : 1 0.75
T: 0 : 1 : 1 1.0
O: 0
uniform
R: 0 : 0 : 0 : * 8
R: 0 : 0 : 1 : * -4
"""
    m = parse_pomdp(text)
    assert m.reward[0, 0] == pytest.approx(0.25 * 8 + 0.75 * -4)
    assert m.reward[0, 1] == pytest.approx(0.0)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_pomdp("discount: 0.9\nstates: 2\nactions: 1\nobservations: 1\nbogus: 3\n")
    assert err.value.line == 5


def test_parse_unsupported_directive_is_hard_error():
    with pytest.raises(ParseError):
        parse_pomdp(MINIMAL + "\nhorizon: 10\n")


def test_parse_missing_discount():
    with pytest.raises(ParseError):
        parse_pomdp("states: 1\nactions: 1\nobservations: 1\nT: 0 : 0 : 0 1\nO: 0 : 0 : 0 1\n")


def test_parse_validation_failure_on_substochastic_rows():
    text = """
discount: 0.9
states: 2
actions: 1
observations: 1
T: 0 : 0 : 0 0.4
T: 0 : 1 : 1 1.0
O: 0
uniform
"""
    with pytest.raises(ValidationError):
        parse_pomdp(text)


def test_rocksample_round_trip_field_by_field():
    m = gen_rocksample(RockSampleParams(4, 4))
    sink = io.StringIO()
    write_pomdp(m, sink)
    again = parse_pomdp(sink.getvalue())
    assert again.num_states == m.num_states
    assert again.num_actions == m.num_actions
    assert again.num_observations == m.num_observations
    assert again.discount == m.discount
    assert again.action_names == m.action_names
    assert again.observation_names == m.observation_names
    for a in range(m.num_actions):
        assert (again.transition[a] != m.transition[a]).nnz == 0
    np.testing.assert_array_equal(again.observation, m.observation)
    np.testing.assert_allclose(again.reward, m.reward, atol=1e-12)
    np.testing.assert_array_equal(again.initial_belief.to_dense(),
                                  m.initial_belief.to_dense())


HEADER = "discount: 0.9\nstates: 2\nactions: 1\nobservations: 1\n"
SMALL = HEADER + "T: 0\nidentity\nO: 0\nuniform\n"


@pytest.mark.parametrize("line", [
    "T: : 0 : 1 0.5",           # empty action field
    "R: : 0 : * : * 1",         # empty action field
    "T: 0 : 0 1 : 1 0.5",       # two tokens in the source-state field
    "O: 0 : 0 : 0 1 1",         # two numbers after the observation
    "R: 0 : 0 : * : 1",         # 1 is the value, the observation is missing
    "T: 0 : 0 : ² 1",           # a digit that is not a decimal index
])
def test_index_field_needs_exactly_one_token(line):
    with pytest.raises(ParseError) as err:
        parse_pomdp(SMALL + line + "\n")
    assert err.value.line == 9


def test_index_fields_accept_leading_zeros_and_names():
    m = parse_pomdp("discount: 0.9\nstates: 2\nactions: go\nobservations: 1\n"
                    "T: go : 00 : 01 1\nT: 0 : 1 : 1 1\nO: * : * : 0 1\n")
    np.testing.assert_array_equal(m.transition[0].toarray(), [[0, 1], [0, 1]])


@pytest.mark.parametrize("line", [
    "O: 0 : * : 0 nan",
    "start: nan 1",
    "T: 0 : 0 : 1 nan",
    "R: 0 : 0 : * : * inf",
])
def test_non_finite_model_data_is_rejected(line):
    with pytest.raises(ValidationError):
        parse_pomdp(SMALL + line + "\n")


def test_directive_cell_guard_names_the_line():
    big = "discount: 0.9\nstates: 1500\nactions: 1\nobservations: 1\n"
    with pytest.raises(ParseError) as err:
        parse_pomdp(big + "T: 0\nuniform\n")          # 2.25M nonzero cells
    assert err.value.line == 5
    with pytest.raises(ParseError) as err:
        parse_pomdp(big + "T: 0\nidentity\nT: 0 : * : * 1e-9\n")
    assert err.value.line == 7


def test_zero_wildcard_clears_without_counting_against_the_guard():
    big = "discount: 0.9\nstates: 1500\nactions: 1\nobservations: 1\n"
    m = parse_pomdp(big + "T: 0\nidentity\nT: 0 : * : * 0\nT: 0\nidentity\n"
                    "O: 0 : * : 0 1\n")
    t = m.transition[0]
    assert t.nnz == 1500
    np.testing.assert_array_equal(t.diagonal(), np.ones(1500))


@pytest.mark.parametrize("space", ["states", "observations"])
def test_huge_declared_count_is_refused_at_once(space):
    counts = {"states": 2, "actions": 1, "observations": 1, space: 1_000_000_000}
    header = "discount: 0.9\n" + "".join(f"{k}: {v}\n" for k, v in counts.items())
    start = time.perf_counter()
    with pytest.raises(ParseError, match="too large") as err:
        parse_pomdp(header + "T: 0 : 0 : 0 1\n")
    assert err.value.line == 5
    assert time.perf_counter() - start < 1.0


def test_wildcard_rows_on_a_large_model_cost_linear_time():
    big = "discount: 0.9\nstates: 100000\nactions: 1\nobservations: 1\n"
    to_first = "1" + " 0" * 99_999
    start = time.perf_counter()
    m = parse_pomdp(big + f"T: 0 : * : * 0\nT: 0 : *\n{to_first}\nO: 0 : * : 0 1\n")
    assert m.transition[0].nnz == 100_000
    np.testing.assert_array_equal(m.transition[0].indices, np.zeros(100_000))
    with pytest.raises(ParseError, match="nonzero cells") as err:
        parse_pomdp(big + "T: 0\nuniform\n")       # 10^10 cells
    assert err.value.line == 5
    assert time.perf_counter() - start < 10.0


def test_identity_is_not_counted_against_the_guard(monkeypatch):
    monkeypatch.setattr(fileio, "MAX_DIRECTIVE_CELLS", 5)
    header = "discount: 0.9\nstates: 4\nactions: 2\nobservations: 1\nO: * : * : 0 1\n"
    m = parse_pomdp(header + "T: *\nidentity\n")       # 8 cells
    for t in m.transition:
        np.testing.assert_array_equal(t.toarray(), np.eye(4))
    with pytest.raises(ParseError, match="nonzero cells"):
        parse_pomdp(header + "T: 0\nuniform\n")        # 16 cells


def test_zero_entry_clears_a_cell_and_row_forms_replace_rows():
    m = parse_pomdp(SMALL + "T: 0 : 0 : 1 0.5\nT: 0 : 0 : 0 0.5\nT: 0 : 1 : 1 0\n"
                    "T: 0 : 1\n0.25 0.75\n")
    np.testing.assert_array_equal(m.transition[0].toarray(), [[0.5, 0.5], [0.25, 0.75]])
    assert m.transition[0].nnz == 4


_NAME = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,6}", fullmatch=True)


@st.composite
def small_models(draw):
    """Random models of up to 4 states, with or without names, and with
    random zeros in T, O, R and b0."""
    ns, na, no = (draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.2, 1.0))

    def rows(shape, width):
        weights = rng.dirichlet(np.ones(width), size=shape) * (rng.random((*shape, width)) < density)
        empty = weights.sum(axis=-1) == 0.0
        weights[empty, rng.integers(width)] = 1.0
        return weights / weights.sum(axis=-1, keepdims=True)

    names = [draw(st.none() | st.lists(_NAME, min_size=n, max_size=n, unique=True))
             for n in (ns, na, no)]
    reward = rng.uniform(-10, 10, size=(na, ns)) * (rng.random((na, ns)) < density)
    return PomdpModel(rows((na, ns), ns), rows((na, ns), no), reward,
                      draw(st.floats(0.0, 0.999)), Belief.from_dense(rows((), ns)),
                      state_names=names[0], action_names=names[1], observation_names=names[2])


def _text(model):
    sink = io.StringIO()
    write_pomdp(model, sink)
    return sink.getvalue()


@settings(max_examples=200, deadline=None, database=None)
@given(small_models())
def test_write_then_parse_is_bitwise_exact(m):
    again = parse_pomdp(_text(m))
    for t, u in zip(m.transition, again.transition):
        np.testing.assert_array_equal(u.indptr, t.indptr)
        np.testing.assert_array_equal(u.indices, t.indices)
        np.testing.assert_array_equal(u.data, t.data)
    np.testing.assert_array_equal(again.observation, m.observation)
    np.testing.assert_array_equal(again.reward, m.reward)
    np.testing.assert_array_equal(again.initial_belief.states, m.initial_belief.states)
    np.testing.assert_array_equal(again.initial_belief.probs, m.initial_belief.probs)
    assert again.discount == m.discount
    assert (again.state_names, again.action_names, again.observation_names) == \
        (m.state_names, m.action_names, m.observation_names)


_GARBAGE = ["x", "-1", "nan", "inf", "-inf", "1e", "--1", "²", "01", "*", "0", "1.5", "uniform"]


@st.composite
def mutated_texts(draw):
    """`write_pomdp` output with tokens and colons deleted or duplicated,
    numbers replaced by garbage, and the end cut off. Duplicates keep their
    own token, so no declared count grows past a few."""
    pieces = re.findall(r"\s+|:|[^\s:]+", _text(draw(small_models())))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(pieces) - 1))
        kind = draw(st.sampled_from(["delete", "duplicate", "garbage", "truncate"]))
        if kind == "delete":
            del pieces[i]
        elif kind == "duplicate" and not pieces[i].isspace():
            pieces.insert(i, pieces[i] + " ")
        elif kind == "garbage" and re.fullmatch(r"[-+.0-9eE]+", pieces[i]):
            pieces[i] = draw(st.sampled_from(_GARBAGE))
        elif kind == "truncate":
            del pieces[i:]
        if not pieces:
            break
    return "".join(pieces)


@settings(max_examples=400, deadline=None, database=None)
@given(mutated_texts())
@example(HEADER + "T: : 0 : 1 0.5\n")
@example(HEADER + "R: : 0 : * : * 1\n")
def test_malformed_files_raise_parse_or_validation_errors(text):
    try:
        assert isinstance(parse_pomdp(text), PomdpModel)
    except (ParseError, ValidationError):
        pass


# ---------------------------------------------------------------------------
# policy files
# ---------------------------------------------------------------------------

def _lower_bound(num_states, entries):
    lb = LowerBound(num_states)
    for action, vector in entries:
        lb.add(AlphaVector(vector, action))
    return lb


def test_policy_empty_round_trip():
    sink = io.StringIO()
    save_policy(LowerBound(3), sink)
    again = load_policy(sink.getvalue())
    assert again.num_states == 3
    assert len(again) == 0


def test_policy_single_vector_round_trip():
    sink = io.StringIO()
    save_policy(_lower_bound(3, [(0, np.zeros(3))]), sink)
    again = load_policy(sink.getvalue())
    assert len(again) == 1
    assert again.actions.tolist() == [0]
    np.testing.assert_array_equal(again.matrix, np.zeros((1, 3)))


def test_policy_round_trip_exact_floats(rng):
    entries = [(int(rng.integers(5)), rng.normal(size=4) * 10 ** int(rng.integers(-8, 8)))
               for _ in range(6)]
    sink = io.StringIO()
    save_policy(_lower_bound(4, entries), sink)
    again = load_policy(sink.getvalue())
    assert again.actions.tolist() == [a for a, _ in entries]
    np.testing.assert_array_equal(again.matrix, np.array([v for _, v in entries]))


def test_policy_file_format_is_fixed(tmp_path):
    text = "alpha-policy v1 |S|=2\n1\n0.10000000000000001 -2\n0\n3 4.5\n"
    path = tmp_path / "p.policy"
    path.write_text(text)
    lb = load_policy_file(str(path))
    assert lb.actions.tolist() == [1, 0]
    np.testing.assert_array_equal(lb.matrix, [[0.1, -2.0], [3.0, 4.5]])
    sink = io.StringIO()
    save_policy(lb, sink)
    assert sink.getvalue() == text


def test_policy_rejects_malformed():
    with pytest.raises(ParseError):
        load_policy("not a policy\n")
    with pytest.raises(ParseError):
        load_policy("alpha-policy v1 |S|=0\n")
    with pytest.raises(ParseError):
        load_policy("alpha-policy v1 |S|=2\n0\n")  # dangling action line
    with pytest.raises(ParseError, match="line 3: expected 2 numbers"):
        load_policy("alpha-policy v1 |S|=2\n0\n1 2 3\n")
    with pytest.raises(ParseError, match="line 4: negative action index -1"):
        load_policy("alpha-policy v1 |S|=2\n0\n1 2\n-1\n1 2\n")
    with pytest.raises(ValidationError):
        load_policy("alpha-policy v1 |S|=2\n0\nnan 2\n")


def test_solved_policy_round_trip_same_simulated_reward():
    m = gen_rocksample(RockSampleParams(4, 4))
    res = solve_anytime(m, SolverConfig(epsilon=1e-9, timeout_s=6.0))
    sink = io.StringIO()
    save_policy(res.bounds.lower, sink)
    reloaded = load_policy(sink.getvalue())
    np.testing.assert_array_equal(reloaded.matrix, res.bounds.lower.matrix)
    np.testing.assert_array_equal(reloaded.actions, res.bounds.lower.actions)
    cfg = EvalConfig(num_episodes=40, horizon=100, seed=9)
    direct = evaluate(m, res.bounds.lower, cfg)
    roundtrip = evaluate(m, reloaded, cfg)
    np.testing.assert_array_equal(direct.returns, roundtrip.returns)
