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

`*` is accepted in any index position. Rewards richer than R(s,a) are folded
at load time by expectation over the model dynamics:
R(s,a) = sum_{s',o} T(s,a,s') O(s',a,o) R(a,s,s',o).

Policy file format, line-oriented:

    alpha-policy v1 |S|=<n>
    <action-index>
    <n space-separated decimals>
    ...                                    (one pair of lines per vector)

All floats are written with 17 significant digits so round trips are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .bounds import AlphaVector, LowerBound
from .errors import ParseError, ValidationError
from .model import Belief, PomdpModel

# Above these element counts the parser switches to (or insists on) sparse
# handling; matrix/uniform/broadcast forms are refused rather than silently
# materializing gigabytes.
DENSE_TRANSITION_LIMIT = 25_000_000
DENSE_REWARD_LIMIT = 25_000_000
DENSE_OBSERVATION_LIMIT = 50_000_000

FLOAT_FMT = "%.17g"


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

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else (None, None)

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


class _Space:
    """One of the three index spaces: count plus optional names."""

    def __init__(self, label):
        self.label = label
        self.count = None
        self.names = None

    def declare(self, tokens, lineno):
        if self.count is not None:
            raise ParseError(f"duplicate {self.label} declaration", lineno)
        if len(tokens) == 1 and tokens[0].isdigit():
            self.count = int(tokens[0])
        elif tokens:
            self.names = list(tokens)
            self.count = len(tokens)
        else:
            raise ParseError(f"empty {self.label} declaration", lineno)
        if self.count < 1:
            raise ParseError(f"{self.label} count must be positive", lineno)

    def resolve(self, token, lineno):
        """Index list for one token: `*` means all, else index or name."""
        if self.count is None:
            raise ParseError(f"{self.label} not declared yet", lineno)
        if token == "*":
            return range(self.count)
        if token.lstrip("-").isdigit():
            idx = int(token)
            if not 0 <= idx < self.count:
                raise ParseError(f"{self.label} index {idx} out of range", lineno)
            return [idx]
        if self.names and token in self.names:
            return [self.names.index(token)]
        raise ParseError(f"unknown {self.label} {token!r}", lineno)


class _Parser:
    def __init__(self, text):
        self.lines = _Lines(text)
        self.states = _Space("state")
        self.actions = _Space("action")
        self.observations = _Space("observation")
        self.discount = None
        self.start = None
        self.t_dense = None     # (A,S,S) ndarray, or None in sparse mode
        self.t_sparse = None    # per-action dict: s -> {s': p}
        self.obs = None         # (A,S,O) ndarray
        self.r_direct = None    # (A,S) ndarray while every entry is (s',o)-wildcarded
        self.r_raw = None       # (A,S,S,O) ndarray once some entry needs it

    # - plumbing -

    def _require_spaces(self, lineno):
        for space in (self.states, self.actions, self.observations):
            if space.count is None:
                raise ParseError(
                    f"{space.label} count must be declared before model entries", lineno)
        if self.obs is None:
            ns, na, no = self.states.count, self.actions.count, self.observations.count
            if na * ns * no > DENSE_OBSERVATION_LIMIT:
                raise ParseError("observation tensor too large", lineno)
            self.obs = np.zeros((na, ns, no))
            self.r_direct = np.zeros((na, ns))
            if na * ns * ns <= DENSE_TRANSITION_LIMIT:
                self.t_dense = np.zeros((na, ns, ns))
            else:
                self.t_sparse = [dict() for _ in range(na)]

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

    # - directives -

    def parse(self):
        while True:
            lineno, line = self.lines.peek()
            if line is None:
                break
            self.lines.next()
            head, _, rest = line.partition(":")
            head = head.strip().lower()
            tokens = rest.split()
            if head == "discount":
                self.discount = _floats(tokens, lineno, 1)[0]
            elif head == "values":
                if tokens != ["reward"]:
                    raise ParseError(f"unsupported values directive: {' '.join(tokens)}", lineno)
            elif head == "states":
                self.states.declare(tokens, lineno)
            elif head == "actions":
                self.actions.declare(tokens, lineno)
            elif head == "observations":
                self.observations.declare(tokens, lineno)
            elif head == "start":
                self._parse_start(tokens, lineno)
            elif head == "t":
                self._parse_transition(tokens, lineno)
            elif head == "o":
                self._parse_observation(tokens, lineno)
            elif head == "r":
                self._parse_reward(tokens, lineno)
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

    @staticmethod
    def _split_indices(tokens):
        """Break `a : s : s' p` style tails into index tokens plus trailing numbers."""
        joined = " ".join(tokens).replace(":", " : ")
        parts = [p for p in joined.split() if p]
        fields = [[]]
        for p in parts:
            if p == ":":
                fields.append([])
            else:
                fields[-1].append(p)
        return fields

    def _parse_transition(self, tokens, lineno):
        self._require_spaces(lineno)
        ns = self.states.count
        fields = self._split_indices(tokens)
        if len(fields) == 3 and len(fields[2]) >= 1:
            # T: a : s : s' [p]
            a_sel = self.actions.resolve(fields[0][0], lineno)
            s_sel = self.states.resolve(fields[1][0], lineno)
            tail = fields[2]
            if len(tail) == 1:
                sp_sel = self.states.resolve(tail[0], lineno)
                lineno2, line = self.lines.next("transition probability")
                prob = _floats(line.split(), lineno2, 1)[0]
            elif len(tail) == 2:
                sp_sel = self.states.resolve(tail[0], lineno)
                prob = _floats(tail[1:], lineno, 1)[0]
            else:
                raise ParseError("malformed transition entry", lineno)
            self._set_transition(a_sel, s_sel, sp_sel, prob, lineno)
        elif len(fields) == 2 and len(fields[1]) == 1:
            # T: a : s  followed by one row
            a_sel = self.actions.resolve(fields[0][0], lineno)
            s_sel = self.states.resolve(fields[1][0], lineno)
            lineno2, line = self.lines.next("transition row")
            row = np.array(_floats(line.split(), lineno2, ns))
            self._set_transition_rows(a_sel, s_sel, row, lineno2)
        elif len(fields) == 1 and len(fields[0]) == 1:
            # T: a  followed by uniform / identity / matrix
            a_sel = self.actions.resolve(fields[0][0], lineno)
            self._parse_block(a_sel, lineno, kind="transition")
        else:
            raise ParseError("malformed transition entry", lineno)

    def _parse_observation(self, tokens, lineno):
        self._require_spaces(lineno)
        no = self.observations.count
        fields = self._split_indices(tokens)
        if len(fields) == 3 and len(fields[2]) >= 1:
            a_sel = self.actions.resolve(fields[0][0], lineno)
            sp_sel = self.states.resolve(fields[1][0], lineno)
            tail = fields[2]
            if len(tail) == 1:
                o_sel = self.observations.resolve(tail[0], lineno)
                lineno2, line = self.lines.next("observation probability")
                prob = _floats(line.split(), lineno2, 1)[0]
            elif len(tail) == 2:
                o_sel = self.observations.resolve(tail[0], lineno)
                prob = _floats(tail[1:], lineno, 1)[0]
            else:
                raise ParseError("malformed observation entry", lineno)
            self.obs[np.ix_(list(a_sel), list(sp_sel), list(o_sel))] = prob
        elif len(fields) == 2 and len(fields[1]) == 1:
            a_sel = self.actions.resolve(fields[0][0], lineno)
            sp_sel = self.states.resolve(fields[1][0], lineno)
            lineno2, line = self.lines.next("observation row")
            row = np.array(_floats(line.split(), lineno2, no))
            self.obs[np.ix_(list(a_sel), list(sp_sel))] = row
        elif len(fields) == 1 and len(fields[0]) == 1:
            a_sel = self.actions.resolve(fields[0][0], lineno)
            self._parse_block(a_sel, lineno, kind="observation")
        else:
            raise ParseError("malformed observation entry", lineno)

    def _parse_block(self, a_sel, lineno, kind):
        ns = self.states.count
        width = ns if kind == "transition" else self.observations.count
        lineno2, line = self.lines.next(f"{kind} block")
        if line == "identity":
            if kind == "observation":
                raise ParseError("identity is not valid for observation blocks", lineno2)
            for a in a_sel:
                self._set_identity(a)
            return
        if line == "uniform":
            value = 1.0 / width
            if kind == "observation":
                self.obs[list(a_sel)] = value
            else:
                self._guard_dense_block(lineno2)
                self.t_dense[list(a_sel)] = value
            return
        rows = [np.array(_floats(line.split(), lineno2, width))]
        for _ in range(ns - 1):
            lineno3, line = self.lines.next(f"{kind} matrix row")
            rows.append(np.array(_floats(line.split(), lineno3, width)))
        block = np.stack(rows)
        if kind == "observation":
            self.obs[list(a_sel)] = block
        else:
            self._guard_dense_block(lineno2)
            self.t_dense[list(a_sel)] = block

    def _guard_dense_block(self, lineno):
        if self.t_dense is None:
            raise ParseError("matrix/uniform transition blocks are not supported "
                             "for models this large; use per-entry form", lineno)

    def _set_identity(self, a):
        ns = self.states.count
        if self.t_dense is not None:
            self.t_dense[a] = np.eye(ns)
        else:
            self.t_sparse[a] = {s: {s: 1.0} for s in range(ns)}

    def _set_transition(self, a_sel, s_sel, sp_sel, prob, lineno):
        if self.t_dense is not None:
            self.t_dense[np.ix_(list(a_sel), list(s_sel), list(sp_sel))] = prob
            return
        cells = len(s_sel) * len(sp_sel)
        if prob != 0.0 and cells > 2_000_000:
            raise ParseError("wildcard transition assignment too large", lineno)
        for a in a_sel:
            table = self.t_sparse[a]
            if prob == 0.0:
                targets = sp_sel if not isinstance(sp_sel, range) else None
                for s in (s_sel if not isinstance(s_sel, range) else list(s_sel)):
                    row = table.get(s)
                    if row is None:
                        continue
                    if targets is None:
                        row.clear()
                    else:
                        for sp in targets:
                            row.pop(sp, None)
            else:
                for s in s_sel:
                    row = table.setdefault(s, {})
                    for sp in sp_sel:
                        row[sp] = prob

    def _set_transition_rows(self, a_sel, s_sel, row, lineno):
        if self.t_dense is not None:
            self.t_dense[np.ix_(list(a_sel), list(s_sel))] = row
            return
        nonzero = np.flatnonzero(row)
        for a in a_sel:
            for s in s_sel:
                self.t_sparse[a][s] = {int(sp): float(row[sp]) for sp in nonzero}

    def _parse_reward(self, tokens, lineno):
        self._require_spaces(lineno)
        fields = self._split_indices(tokens)
        if len(fields) != 4 or len(fields[3]) not in (1, 2):
            raise ParseError("malformed reward entry (need R: a : s : s' : o v)", lineno)
        a_sel = self.actions.resolve(fields[0][0], lineno)
        s_sel = self.states.resolve(fields[1][0], lineno)
        sp_token, o_token = fields[2][0], fields[3][0]
        tail = fields[3]
        if len(tail) == 2:
            value = _floats(tail[1:], lineno, 1)[0]
        else:
            lineno2, line = self.lines.next("reward value")
            value = _floats(line.split(), lineno2, 1)[0]
        if sp_token == "*" and o_token == "*" and self.r_raw is None:
            self.r_direct[np.ix_(list(a_sel), list(s_sel))] = value
            return
        self._materialize_raw_reward(lineno)
        sp_sel = self.states.resolve(sp_token, lineno)
        o_sel = self.observations.resolve(o_token, lineno)
        self.r_raw[np.ix_(list(a_sel), list(s_sel), list(sp_sel), list(o_sel))] = value

    # - assembly -

    def _build(self):
        if self.states.count is None or self.actions.count is None \
                or self.observations.count is None:
            raise ParseError("file is missing state/action/observation declarations")
        if self.discount is None:
            raise ParseError("file is missing the discount directive")
        self._require_spaces(None)
        ns = self.states.count

        if self.t_dense is not None:
            transitions = [sparse.csr_array(self.t_dense[a])
                           for a in range(self.actions.count)]
        else:
            transitions = []
            for table in self.t_sparse:
                rows, cols, data = [], [], []
                for s, row in table.items():
                    for sp, p in row.items():
                        rows.append(s)
                        cols.append(sp)
                        data.append(p)
                transitions.append(sparse.csr_array(
                    (np.array(data), (np.array(rows, dtype=np.int64),
                                      np.array(cols, dtype=np.int64))),
                    shape=(ns, ns)))

        if self.r_raw is not None:
            if self.t_dense is None:
                raise ParseError("internal: rich rewards require a dense transition tensor")
            reward = np.einsum("asx,axo,asxo->as", self.t_dense, self.obs, self.r_raw)
        else:
            reward = self.r_direct

        if self.start is None:
            start = Belief.uniform(ns)
        else:
            if np.any(self.start < 0):
                raise ValidationError("start distribution has negative entries")
            start = Belief.from_dense(self.start)

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


def write_pomdp(model, sink):
    """Serialize a model in the `.pomdp` subset with exact float round trips."""
    if hasattr(sink, "write"):
        _write_pomdp(model, sink)
    else:
        with open(sink, "w") as handle:
            _write_pomdp(model, handle)


def _write_pomdp(model, out):
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


@dataclass
class PolicyFile:
    """Serializable list of (action, alpha-vector) pairs."""

    num_states: int
    entries: list

    def __post_init__(self):
        for action, vector in self.entries:
            if int(action) < 0:
                raise ValidationError(f"negative action index {action}")
            if np.asarray(vector).shape != (self.num_states,):
                raise ValidationError("policy vector length does not match |S|")


def policy_from_lower_bound(lb):
    return PolicyFile(lb.num_states,
                      [(int(a), v.copy()) for v, a in zip(lb.matrix, lb.actions)])


def lower_bound_from_policy(policy):
    lb = LowerBound(policy.num_states)
    for action, vector in policy.entries:
        lb.add(AlphaVector(np.asarray(vector, dtype=np.float64), action))
    return lb


def save_policy(policy, sink):
    if hasattr(sink, "write"):
        _save_policy(policy, sink)
    else:
        with open(sink, "w") as handle:
            _save_policy(policy, handle)


def _save_policy(policy, out):
    out.write(f"{POLICY_HEADER_PREFIX}{policy.num_states}\n")
    for action, vector in policy.entries:
        out.write(f"{int(action)}\n")
        out.write(" ".join(_fmt(x) for x in vector) + "\n")


def load_policy(source):
    """Parse a policy from text or a readable handle."""
    text = source.read() if hasattr(source, "read") else source
    return parse_policy(text)


def load_policy_file(path):
    with open(path, "r") as handle:
        return parse_policy(handle.read())


def parse_policy(text):
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    lines = [ln for ln in lines if ln.strip()]
    if not lines or not lines[0].startswith(POLICY_HEADER_PREFIX):
        raise ParseError("missing policy header", 1)
    try:
        num_states = int(lines[0][len(POLICY_HEADER_PREFIX):])
    except ValueError:
        raise ParseError("bad |S| in policy header", 1) from None
    body = lines[1:]
    if len(body) % 2:
        raise ParseError("policy file has a dangling action line", len(lines))
    entries = []
    for i in range(0, len(body), 2):
        try:
            action = int(body[i])
        except ValueError:
            raise ParseError(f"bad action index {body[i]!r}", i + 2) from None
        values = np.array(_floats(body[i + 1].split(), i + 3, num_states))
        entries.append((action, values))
    return PolicyFile(num_states, entries)
