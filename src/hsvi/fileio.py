"""Text formats: the `.pomdp` model interchange format and alpha-vector
policy files.

Supported `.pomdp` grammar (a deliberate subset of the common interchange
format; anything else is a hard ParseError rather than being skipped):

    discount: <float>
    values: reward
    states: <count> | <name list>          (same for actions:/observations:)
    start: uniform | <|S| floats>          (floats may sit on the next line)
    T: <a> : <s> : <s'> <p>                (probability may sit on the next line)
    T: <a> : <s>                           (followed by a row of |S| floats)
    T: <a>                                 (followed by `uniform`, `identity`,
                                            or an |S| x |S| matrix)
    O: <a> : <s'> : <o> <p>                (and the row/matrix/uniform forms)
    R: <a> : <s> : <s'> : <o> <v>
    # comment

Every index field holds exactly one token: an index, a name, or `*` for all.
`T:` and `O:` share one grammar routine and differ only in where the values
go. Transitions are kept as sparse rows per action (s -> {s': p}) at every
model size; one directive may set at most MAX_DIRECTIVE_CELLS nonzero
transition cells, counted before any row is built. Zero assignments only
clear cells, and `identity` sets one cell per row; neither is counted.
Observations are kept dense (A, S, O). Rewards richer than R(s,a)
are folded at load time by expectation over the model dynamics:
R(s,a) = sum_{s'} T(s,a,s') sum_o O(s',a,o) R(a,s,s',o).

A policy is a LowerBound: its vectors, in order, with their action tags,
and the greedy action at a belief is the tag of the best vector there.
`save_policy` writes one and `load_policy` reads it back, line-oriented:

    alpha-policy v1 |S|=<n>
    <action-index>
    <n space-separated decimals>
    ...                                    (one pair of lines per vector)

All floats are written with 17 significant digits so round trips are exact.
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext

import numpy as np
from scipy import sparse

from .bounds import AlphaVector, LowerBound
from .errors import ParseError, ValidationError
from .model import Belief, PomdpModel

# Nonzero transition cells one directive may set; wildcard, uniform and
# matrix forms above it are refused rather than filling memory.
MAX_DIRECTIVE_CELLS = 2_000_000
# Element counts of the dense observation and (s', o)-dependent reward arrays.
DENSE_REWARD_LIMIT = 25_000_000
DENSE_OBSERVATION_LIMIT = 50_000_000

FLOAT_FMT = "%.17g"

# What a `*` index field resolves to: every index, as a basic numpy index.
ALL = slice(None)


def _fmt(x):
    return FLOAT_FMT % x


# -- parsing -----------------------------------------------------------------


class _Lines:
    """Comment-stripped, non-blank lines with their original line numbers."""

    def __init__(self, text):
        self.items = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                self.items.append((lineno, stripped))
        self.pos = 0

    def next(self, context="input"):
        if self.pos >= len(self.items):
            raise ParseError(f"unexpected end of file while reading {context}",
                             self.items[-1][0] if self.items else None)
        item = self.items[self.pos]
        self.pos += 1
        return item


def _floats(tokens, lineno, expect=None):
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(f"bad number: {exc}", lineno) from None
    if expect is not None and len(values) != expect:
        raise ParseError(f"expected {expect} numbers, got {len(values)}", lineno)
    return values


def _span(index, count):
    """The indices a resolved field covers."""
    return range(count) if index is ALL else (index,)


def _sparse_row(row):
    """A dense row as {column: value} over its nonzero entries."""
    targets = np.flatnonzero(row)
    return dict(zip(targets.tolist(), row[targets].tolist()))


def _start_belief(vector):
    """b0 from a start line. A line that already sums to one up to rounding,
    with no entry below the mass floor, is kept as written, so a written
    model loads back bit for bit; any other line is renormalized."""
    belief = Belief.from_dense(vector)
    written = vector[belief.states]
    if written.size == np.count_nonzero(vector) \
            and abs(written.sum() - 1.0) <= vector.size * np.finfo(float).eps:
        return Belief._trusted(vector.size, belief.states, written)
    return belief


class _Space:
    """One of the three index spaces: count plus optional names."""

    def __init__(self, label):
        self.label = label
        self.count = None
        self.names = None
        self.lookup = {}

    def declare(self, tokens, lineno):
        if self.count is not None:
            raise ParseError(f"duplicate {self.label} declaration", lineno)
        if len(tokens) == 1 and tokens[0].isdecimal():
            self.count = int(tokens[0])
        elif tokens:
            self.names = list(tokens)
            self.count = len(tokens)
        else:
            raise ParseError(f"empty {self.label} declaration", lineno)
        if self.count < 1:
            raise ParseError(f"{self.label} count must be positive", lineno)
        # a repeated name means its first index
        self.lookup = {name: i for i, name in reversed(list(enumerate(self.names or ())))}
        self.lookup["*"] = ALL

    def resolve(self, field, lineno):
        """One index field: a decimal index, a name, or ALL for `*`."""
        if len(field) != 1:
            raise ParseError(f"expected one {self.label} index, got {len(field)} tokens",
                             lineno)
        token = field[0]
        if token.isdecimal():       # digits mean an index, before any name
            index = int(token)
            if index >= self.count:
                raise ParseError(f"{self.label} index {index} out of range", lineno)
            return index
        index = self.lookup.get(token)
        if index is None:
            raise ParseError(f"unknown {self.label} {token!r}", lineno)
        return index


class _Parser:
    def __init__(self, text):
        self.lines = _Lines(text)
        self.states = _Space("state")
        self.actions = _Space("action")
        self.observations = _Space("observation")
        self.discount = None
        self.start = None
        self.t_rows = None      # per-action dict: s -> {s': p}
        self.obs = None         # (A,S,O) ndarray
        self.r_direct = None    # (A,S) ndarray while every entry is (s',o)-wildcarded
        self.r_raw = None       # (A,S,S,O) ndarray once some entry needs it

    # - plumbing -

    def _require_spaces(self, lineno):
        if self.obs is not None:
            return
        for space in (self.states, self.actions, self.observations):
            if space.count is None:
                raise ParseError(
                    f"{space.label} count must be declared before model entries", lineno)
        ns, na, no = self.states.count, self.actions.count, self.observations.count
        if na * ns * no > DENSE_OBSERVATION_LIMIT:
            raise ParseError("observation tensor too large", lineno)
        self.obs = np.zeros((na, ns, no))
        self.r_direct = np.zeros((na, ns))
        self.t_rows = [dict() for _ in range(na)]

    def _materialize_raw_reward(self, lineno):
        if self.r_raw is not None:
            return
        ns, na, no = self.states.count, self.actions.count, self.observations.count
        if na * ns * ns * no > DENSE_REWARD_LIMIT:
            raise ParseError(
                "rewards depending on next state or observation are only supported "
                "for models small enough to hold the full reward tensor", lineno)
        self.r_raw = np.broadcast_to(self.r_direct[:, :, None, None],
                                     (na, ns, ns, no)).copy()

    def _value(self, tokens, lineno, context):
        """The one number of an entry: on its own line when the entry has none."""
        if not tokens:
            lineno, line = self.lines.next(context)
            tokens = line.split()
        return _floats(tokens, lineno, 1)[0]

    # - directives -

    def parse(self):
        while self.lines.pos < len(self.lines.items):
            lineno, line = self.lines.next()
            head, _, rest = line.partition(":")
            head = head.strip().lower()
            if head == "discount":
                self.discount = _floats(rest.split(), lineno, 1)[0]
            elif head == "values":
                if rest.split() != ["reward"]:
                    raise ParseError(f"unsupported values directive: {rest.strip()}", lineno)
            elif head == "states":
                self.states.declare(rest.split(), lineno)
            elif head == "actions":
                self.actions.declare(rest.split(), lineno)
            elif head == "observations":
                self.observations.declare(rest.split(), lineno)
            elif head == "start":
                self._parse_start(rest.split(), lineno)
            elif head in ("t", "o"):
                self._parse_table(head == "t", rest, lineno)
            elif head == "r":
                self._parse_reward(rest, lineno)
            else:
                raise ParseError(f"unsupported directive {head!r}", lineno)
        return self._build()

    def _parse_start(self, tokens, lineno):
        self._require_spaces(lineno)
        ns = self.states.count
        if tokens == ["uniform"]:
            self.start = np.full(ns, 1.0 / ns)
            return
        if not tokens:
            lineno, line = self.lines.next("start distribution")
            tokens = line.split()
        self.start = np.array(_floats(tokens, lineno, ns))

    def _parse_table(self, transition, rest, lineno):
        """`T:` or `O:` in entry form `a : x : y p`, row form `a : x` (a row
        follows) or block form `a` (`uniform`, `identity` for T, or a matrix)."""
        self._require_spaces(lineno)
        if transition:
            kind, columns, put = "transition", self.states, self._put_transition
        else:
            kind, columns, put = "observation", self.observations, self._put_observation
        fields = [f.split() for f in rest.split(":")]
        a = self.actions.resolve(fields[0], lineno)
        if len(fields) == 3:
            x = self.states.resolve(fields[1], lineno)
            y = columns.resolve(fields[2][:1], lineno)
            put(a, x, y, self._value(fields[2][1:], lineno, f"{kind} probability"), lineno)
        elif len(fields) == 2:
            x = self.states.resolve(fields[1], lineno)
            row_line, line = self.lines.next(f"{kind} row")
            put(a, x, ALL, np.array(_floats(line.split(), row_line, columns.count)), lineno)
        elif len(fields) == 1:
            block_line, line = self.lines.next(f"{kind} block")
            if line == "identity":
                if not transition:
                    raise ParseError("identity is not valid for observation blocks", block_line)
                self._put_identity(a)
            elif line == "uniform":
                put(a, ALL, ALL, 1.0 / columns.count, lineno)
            else:
                rows = [_floats(line.split(), block_line, columns.count)]
                for _ in range(self.states.count - 1):
                    row_line, line = self.lines.next(f"{kind} matrix row")
                    rows.append(_floats(line.split(), row_line, columns.count))
                put(a, ALL, ALL, np.array(rows), lineno)
        else:
            raise ParseError(f"malformed {kind} entry", lineno)

    def _put_observation(self, a, sp, o, value, lineno):
        self.obs[a, sp, o] = value

    def _guard(self, cells, lineno):
        if cells > MAX_DIRECTIVE_CELLS:
            raise ParseError(f"transition directive sets {cells} nonzero cells, "
                             f"more than {MAX_DIRECTIVE_CELLS}", lineno)

    def _put_transition(self, a, s, sp, value, lineno):
        """T(a, s, sp) = value in the sparse rows: a number for one target, or
        a number, row or (S, S) matrix that rewrites whole rows when sp is ALL."""
        ns = self.states.count
        actions = _span(a, self.actions.count)
        sources = _span(s, ns)
        if sp is not ALL:
            if value == 0.0:
                for b in actions:
                    for i in sources:
                        self.t_rows[b].get(i, {}).pop(sp, None)
                return
            self._guard(len(actions) * len(sources), lineno)
            for b in actions:
                table = self.t_rows[b]
                for i in sources:
                    table.setdefault(i, {})[sp] = value
            return
        value = np.asarray(value)
        if value.ndim == 2:     # a matrix: a row of its own for each source
            self._guard(len(actions) * np.count_nonzero(value), lineno)
            rows = map(_sparse_row, value)
        else:                   # a number or a row, shared by every source
            shared = np.broadcast_to(value, (ns,))
            self._guard(len(actions) * len(sources) * np.count_nonzero(shared), lineno)
            rows = itertools.repeat(_sparse_row(shared), len(sources))
        for i, row in zip(sources, rows):
            for b in actions:
                if row:         # a copy, as later entries edit rows in place
                    self.t_rows[b][i] = dict(row)
                else:
                    self.t_rows[b].pop(i, None)

    def _put_identity(self, a):
        """One cell per row, so it is not counted against the guard."""
        for b in _span(a, self.actions.count):
            self.t_rows[b] = {s: {s: 1.0} for s in range(self.states.count)}

    def _parse_reward(self, rest, lineno):
        self._require_spaces(lineno)
        fields = [f.split() for f in rest.split(":")]
        if len(fields) != 4:
            raise ParseError("malformed reward entry (need R: a : s : s' : o v)", lineno)
        a = self.actions.resolve(fields[0], lineno)
        s = self.states.resolve(fields[1], lineno)
        sp = self.states.resolve(fields[2], lineno)
        o = self.observations.resolve(fields[3][:1], lineno)
        value = self._value(fields[3][1:], lineno, "reward value")
        if sp is ALL and o is ALL and self.r_raw is None:
            self.r_direct[a, s] = value
            return
        self._materialize_raw_reward(lineno)
        self.r_raw[a, s, sp, o] = value

    # - assembly -

    def _build(self):
        if self.states.count is None or self.actions.count is None \
                or self.observations.count is None:
            raise ParseError("file is missing state/action/observation declarations")
        if self.discount is None:
            raise ParseError("file is missing the discount directive")
        self._require_spaces(None)
        ns = self.states.count

        transitions = []
        for table in self.t_rows:
            rows, cols, data = [], [], []
            for s, row in table.items():
                rows.extend([s] * len(row))
                cols.extend(row.keys())
                data.extend(row.values())
            transitions.append(sparse.csr_array(
                (np.array(data, dtype=np.float64),
                 (np.array(rows, dtype=np.int32), np.array(cols, dtype=np.int32))),
                shape=(ns, ns)))

        reward = self.r_direct
        if self.r_raw is not None:
            # R(s,a) = sum_{s'} T(s,a,s') * sum_o O(s',a,o) R(a,s,s',o)
            reward = np.empty_like(self.r_direct)
            for a, t in enumerate(transitions):
                per_target = np.einsum("xo,sxo->sx", self.obs[a], self.r_raw[a])
                sources = np.repeat(np.arange(ns), np.diff(t.indptr))
                reward[a] = np.bincount(sources, t.data * per_target[sources, t.indices],
                                        minlength=ns)

        if self.start is None:
            start = Belief.uniform(ns)
        else:
            if np.any(self.start < 0):
                raise ValidationError("start distribution has negative entries")
            start = _start_belief(self.start)

        return PomdpModel(
            transitions, self.obs, reward, self.discount, start,
            state_names=self.states.names,
            action_names=self.actions.names,
            observation_names=self.observations.names,
        )


def parse_pomdp(source):
    """Parse a `.pomdp` model from a string or readable text stream.

    Raises ParseError (with a line number) on grammar problems and
    ValidationError when the parsed tensors fail stochasticity checks.
    """
    text = source if isinstance(source, str) else source.read()
    return _Parser(text).parse()


def load_pomdp(path):
    with open(path, "r") as handle:
        return parse_pomdp(handle.read())


# -- writing -----------------------------------------------------------------


def _names_or_count(names, count):
    return " ".join(names) if names else str(count)


def open_sink(sink, newline=None):
    """A context manager over where a writer writes: ``sink`` itself if it is
    a writable handle, which stays open, else the file at path ``sink``."""
    return nullcontext(sink) if hasattr(sink, "write") else open(sink, "w", newline=newline)


def write_pomdp(model, sink):
    """Serialize a model in the `.pomdp` subset with exact float round trips
    to a writable handle or a path."""
    with open_sink(sink) as out:
        out.write(f"discount: {_fmt(model.discount)}\n")
        out.write("values: reward\n")
        out.write(f"states: {_names_or_count(model.state_names, model.num_states)}\n")
        out.write(f"actions: {_names_or_count(model.action_names, model.num_actions)}\n")
        out.write("observations: "
                  f"{_names_or_count(model.observation_names, model.num_observations)}\n")
        dense_start = model.initial_belief.to_dense()
        out.write("start: " + " ".join(_fmt(x) for x in dense_start) + "\n")
        for a in range(model.num_actions):
            coo = model.transition[a].tocoo()
            for s, sp, p in zip(coo.row, coo.col, coo.data):
                if p != 0.0:
                    out.write(f"T: {a} : {s} : {sp} {_fmt(p)}\n")
        for a in range(model.num_actions):
            nonzero = np.argwhere(model.observation[a] != 0.0)
            for sp, o in nonzero:
                out.write(f"O: {a} : {sp} : {o} {_fmt(model.observation[a, sp, o])}\n")
        for a in range(model.num_actions):
            for s in np.flatnonzero(model.reward[a] != 0.0):
                out.write(f"R: {a} : {s} : * : * {_fmt(model.reward[a, s])}\n")


# -- policy files ------------------------------------------------------------

POLICY_HEADER_PREFIX = "alpha-policy v1 |S|="


def save_policy(lb, sink):
    """Write a LowerBound's vectors in order, each after its action tag, to
    a writable handle or a path."""
    with open_sink(sink) as out:
        out.write(f"{POLICY_HEADER_PREFIX}{lb.num_states}\n")
        for action, vector in zip(lb.actions, lb.matrix):
            out.write(f"{int(action)}\n")
            out.write(" ".join(_fmt(x) for x in vector) + "\n")


def load_policy(source):
    """The LowerBound a policy file holds, from text or a readable handle.

    Raises ParseError (with a line number) on grammar problems, a negative
    action index included, and ValidationError on a non-finite vector.
    """
    text = source.read() if hasattr(source, "read") else source
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or not lines[0][1].startswith(POLICY_HEADER_PREFIX):
        raise ParseError("missing policy header", lines[0][0] if lines else 1)
    header_line, header = lines[0]
    size = header[len(POLICY_HEADER_PREFIX):].strip()
    if not size.isdecimal() or int(size) < 1:
        raise ParseError("bad |S| in policy header", header_line)
    num_states = int(size)
    body = lines[1:]
    if len(body) % 2:
        raise ParseError("policy file has a dangling action line", body[-1][0])
    lb = LowerBound(num_states)
    for (action_line, action_text), (row_line, row) in zip(body[::2], body[1::2]):
        try:
            action = int(action_text)
        except ValueError:
            raise ParseError(f"bad action index {action_text!r}", action_line) from None
        if action < 0:
            raise ParseError(f"negative action index {action}", action_line)
        lb.add(AlphaVector(np.array(_floats(row.split(), row_line, num_states)), action))
    return lb


def load_policy_file(path):
    with open(path, "r") as handle:
        return load_policy(handle)
