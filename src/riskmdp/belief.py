"""Posterior updating and the reachable belief graph.

The belief over the unknown parameter is a sufficient statistic for the
observed state/action history, so planning happens on the graph of
(time, state, belief) triples reachable from the initial condition.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapExceeded, DomainError, ZeroProbabilityObservation
from .model import Belief, ModelSpec, _normalize_rows_each

DEDUP_DECIMALS = 10
# A positive coordinate prints as zero at DEDUP_DECIMALS digits exactly when
# it is below this float (which lies just above 5e-11).
HIDDEN_MASS = 0.5 * 10.0 ** -DEDUP_DECIMALS
DEFAULT_NODE_CAP = 1_000_000


def _check_step(m: ModelSpec, x: str, u: str) -> tuple[int, int]:
    j = m.state_index(x)
    k = m.action_index(u)
    if not m.admissible[:, j, k].any():
        raise DomainError(f"action {u!r} is never admissible at state {x!r}")
    return j, k


def bayes_update(m: ModelSpec, xi: Belief, x: str, u: str, x_next: str) -> Belief:
    """Condition the belief on observing the transition (x, u) -> x_next.

    Raises ZeroProbabilityObservation when the observation has probability
    zero, that is when every unnormalized weight is ±0.0; a negative or
    non-finite weight raises DomainError first, also the NaN of a zero
    weight times an infinite kernel entry. Parameters outside the support
    of xi stay outside the support of the result.
    """
    if xi.params != m.parameters:
        raise DomainError("belief is not over this model's parameters")
    j, k = _check_step(m, x, u)
    l = m.state_index(x_next)
    with np.errstate(invalid="ignore"):  # 0 * inf is a NaN weight, which Belief rejects
        un = xi.weights * m.kernel[:, j, k, l]
    if not un.any():
        raise _zero_probability(x, u, x_next)
    return Belief(m.parameters, un)


def _zero_probability(x: str, u: str, x_next: str) -> ZeroProbabilityObservation:
    """The error for observing (x, u) -> x_next where the belief gives it probability zero."""
    return ZeroProbabilityObservation(
        f"observation ({x}, {u}) -> {x_next} has zero probability under the current belief")


def _bayes_rows(m: ModelSpec, weights: np.ndarray, xs: np.ndarray, ks: np.ndarray,
                ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[int, DomainError]]:
    """Bayes update of belief row r on observing (xs[r], ks[r]) -> ys[r], for every row at once.

    Returns (post, zero, errors): the posterior rows as Belief would normalize
    them, the mask of rows whose observation has probability zero (every
    unnormalized weight is ±0.0), and {row: the DomainError Belief raises}
    for the other rows. Rows in zero or errors come back unnormalized.
    """
    with np.errstate(invalid="ignore"):  # 0 * inf is a NaN weight, which the weight check rejects
        un = weights * m.kernel[:, xs, ks, ys].T
    zero = ~functools.reduce(np.logical_or, un.T != 0.0)  # a NaN weight is nonzero
    post, errors = _normalize_rows_each(un)
    return post, zero, {i: e for i, e in errors.items() if not zero[i]}


def predictive_next_state(m: ModelSpec, xi: Belief, x: str, u: str) -> np.ndarray:
    """Belief-averaged next-state distribution, over states in declared order."""
    if xi.params != m.parameters:
        raise DomainError("belief is not over this model's parameters")
    j, k = _check_step(m, x, u)
    return xi.weights @ m.kernel[:, j, k, :]


def _likelihoods(m: ModelSpec, history: Sequence[str], actions: Sequence[str]) -> np.ndarray:
    """Check the history; return its path_likelihood under every parameter,
    each a left-to-right product of kernel entries from 1.

    On an invalid kernel the product may overflow to inf or be 0 * inf =
    NaN, so callers form it under an np.errstate that ignores both.
    """
    if len(history) < 1:
        raise DomainError("history must contain at least the current state")
    if len(actions) != len(history) - 1:
        raise DomainError(
            f"need exactly one action per transition: {len(history)} states, {len(actions)} actions")
    lik = np.ones(len(m.parameters))
    for s, (x, u, y) in enumerate(zip(history, actions, history[1:]), start=1):
        j, k = m.state_index(x), m.action_index(u)
        if not m.admissible[s - 1, j, k]:
            raise DomainError(f"action {u!r} not admissible at (t={s}, {x})")
        lik = lik * m.kernel[:, j, k, m.state_index(y)]
    m.state_index(history[-1])  # a one-state history takes no step
    return lik


def path_likelihood(m: ModelSpec, theta: str, history: Sequence[str], actions: Sequence[str]) -> float:
    """Probability of the state sequence under parameter theta, given the actions.

    A history of length one has likelihood 1.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_likelihoods(m, history, actions)[m.param_index(theta)])


def posterior_from_history(m: ModelSpec, history: Sequence[str], actions: Sequence[str]) -> Belief:
    """Posterior over parameters after the whole history, computed in one batch.

    Proportional to prior(theta) times the path likelihood. Agrees with
    folding bayes_update over the transitions.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN weight, which Belief rejects
        un = m.prior.weights * _likelihoods(m, history, actions)
    if not un.any():
        raise ZeroProbabilityObservation("history has zero probability under the prior")
    return Belief(m.parameters, un)


def _fingerprints(t: int, labels: Sequence[str], xs: np.ndarray, weights: np.ndarray) -> list[str]:
    """Node keys for the belief rows of `weights` at time t, whose row r is at state labels[xs[r]].

    Coordinates are printed with "%.10f", so rounded to DEDUP_DECIMALS
    digits. A positive coordinate that rounds to zero would let the row
    merge with a belief that has ruled that parameter out, so such rows also
    carry their support as a bitmask, e.g. "|supp=11".
    """
    prefix = [f"t={t}|x={x}|xi=" for x in labels]
    body = ",".join([f"%.{DEDUP_DECIMALS}f"] * weights.shape[1])
    w = weights + 0.0  # prints -0.0 as 0
    keys = [prefix[x] + body % tuple(row) for x, row in zip(xs.tolist(), w.tolist())]
    for r in np.flatnonzero(((w > 0.0) & (w < HIDDEN_MASS)).any(axis=1)).tolist():
        keys[r] += "|supp=" + "".join("1" if c > 0.0 else "0" for c in w[r].tolist())
    return keys


def belief_fingerprint(t: int, state: str, weights: np.ndarray) -> str:
    """Canonical node key: coordinates rounded to 10 decimal digits, plus the
    support when a positive coordinate rounds to zero."""
    return _fingerprints(t, [state], np.zeros(1, dtype=int), np.asarray(weights, dtype=float)[None, :])[0]


# The odd multiplier of _key_hashes.
_HASH_BASE = np.uint64(0x9E3779B97F4A7C15)
# Up to this many rows the hash and its check cost more than they save in
# the sort: grouping 64 rows by hash took 19 µs against 17 µs by the tuples,
# 128 rows 23 µs against 24 µs, and 1 024 rows 65 µs against 164 µs.
_HASHED_ROWS = 128
# Up to this many rows a dict over the tuples beats np.unique: 8 rows took
# 10 µs against 21 µs, 32 rows 18 µs against 22 µs, and 64 rows 30 µs
# against 27 µs.
_DICT_ROWS = 32


def _key_hashes(keys: np.ndarray) -> np.ndarray:
    """One uint64 per row of a C-contiguous int64 array: sum_j keys[:, j] * B**(j + 1) mod 2**64.

    Equal rows get equal hashes. Unequal rows may collide; _group_children
    checks for that.
    """
    powers = np.cumprod(np.full(keys.shape[1], _HASH_BASE))
    return keys.view(np.uint64) @ powers


def _group_children(nxt: np.ndarray, post: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the child rows of one level by node: row r goes to next state
    nxt[r] with belief post[r], whose coordinates lie in [0, 1].

    Returns (group, firsts): group[r] numbers row r's node in order of first
    occurrence, and firsts[g] is the first row of node g, so firsts is
    ascending. Two rows share a node exactly when _fingerprints gives them
    equal keys, but no key is formatted: rows are compared as the integer
    tuples (next state, n_1..n_P, support), where n_i is coordinate i as the
    integer that "%.10f" prints (without its point) and the support is the
    mask of positive coordinates.

    n_i is np.rint(w * 1e10). The factor is exact and 0 <= w <= 1, so the
    float product lies within 2**-53 * 1e10 < 1.2e-6 of the exact one,
    while "%.10f" prints the exact product correctly rounded. So where the
    product's fractional part is at least 1e-5 away from 0.5, no half-integer
    lies between the two and rint gives the printed integer; the coordinates
    within that band take it from the printed digits instead. The support
    stands for the "|supp=" suffix: a row without the suffix has no positive
    coordinate that prints as zero, so its support is where its digits are
    nonzero, and a row has the suffix exactly when some positive coordinate
    has zero digits. At a fixed time the printed key and the integer tuple
    thus determine each other, so the partition, its order and every id are
    the fingerprints'.

    A level of more than _HASHED_ROWS rows groups its tuples by their
    _key_hashes, with np.unique over one uint64 per row. Equal tuples hash
    alike, so that grouping is exact when every row equals the first row of
    its hash group, which is checked. Smaller levels, and levels where two
    distinct tuples share a hash, are grouped by np.unique over the tuples
    themselves, and levels of at most _DICT_ROWS rows by a dict over them,
    which numbers the nodes in order of first occurrence as it meets them.
    A level of one row takes none of these.
    """
    if len(nxt) < 2:
        return np.zeros(len(nxt), dtype=np.intp), np.arange(len(nxt))
    scaled = post * 10.0 ** DEDUP_DECIMALS
    n = np.rint(scaled)
    near_half = np.abs(scaled - n) > 0.5 - 1e-5  # rint leaves at most 0.5
    if np.count_nonzero(near_half):
        n[near_half] = [int(f"{w:.{DEDUP_DECIMALS}f}".replace(".", "")) for w in post[near_half].tolist()]
    keys = np.concatenate([nxt[:, None], n.astype(np.int64), post > 0.0], axis=1)  # -0.0 -> 0
    if len(keys) <= _DICT_ROWS:
        ids: dict = {}
        group, firsts = [], []
        for r, key in enumerate(map(tuple, keys.tolist())):
            g = ids.setdefault(key, len(firsts))
            if g == len(firsts):
                firsts.append(r)
            group.append(g)
        return np.array(group, dtype=np.intp), np.array(firsts, dtype=np.intp)
    first = None
    if len(keys) > _HASHED_ROWS:
        _, first, inverse = np.unique(_key_hashes(keys), return_index=True, return_inverse=True)
        if not (keys[first[inverse]] == keys).all():  # two distinct tuples share a hash
            first = None
    if first is None:
        rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order)[inverse], first[order]


@dataclass(frozen=True, eq=False)
class BeliefNode:
    """One reachable (time, state, belief) triple, built from the graph's arrays on request."""

    id: str
    t: int
    state: str
    belief: Belief
    ordinal: int  # insertion order, used for deterministic iteration


@dataclass(frozen=True, eq=False)
class GraphLevel:
    """The nodes at one time step, as arrays over the level's rows.

    Row r is the node with ordinal ordinals[r], state index states[r] and
    belief weights[r]. children[r, k, l] is the ordinal of the child reached
    by action k and next state l, or -1 where that move is inadmissible, has
    zero predictive probability, or t is the horizon.
    """

    t: int
    ordinals: np.ndarray  # (N,) int
    states: np.ndarray  # (N,) int
    weights: np.ndarray  # (N, n_params) float
    children: np.ndarray  # (N, n_actions, n_states) int


@dataclass(frozen=True, eq=False)
class BeliefGraph:
    """Acyclic leveled graph of reachable beliefs.

    Nodes are numbered in insertion (breadth-first) order, so each level's
    nodes hold a contiguous run of ordinals. levels[t - 1] holds the nodes
    at time t as arrays, and is the graph's only node and edge store;
    ids[o] is the id of the node with ordinal o. nodes, root, child() and
    edges are views built from the arrays on each access.
    """

    model: ModelSpec
    ids: tuple[str, ...]
    levels: tuple[GraphLevel, ...]

    def _node(self, t: int, o: int) -> BeliefNode:
        """The node with ordinal o, which is at time t."""
        m, level = self.model, self.levels[t - 1]
        r = o - int(level.ordinals[0])
        return BeliefNode(id=self.ids[o], t=t, state=m.states[level.states[r]],
                          belief=Belief._normalized(m.parameters, level.weights[r]), ordinal=o)

    @property
    def nodes(self) -> tuple[BeliefNode, ...]:
        """Every node, in ordinal order."""
        return tuple(self._node(level.t, o) for level in self.levels for o in level.ordinals.tolist())

    @property
    def root(self) -> BeliefNode:
        return self._node(1, 0)

    @property
    def edges(self) -> dict[tuple[int, str, str], int]:
        """(node ordinal, action, next state) -> child ordinal, in build order:
        by level, row, action, next state."""
        m, out = self.model, {}
        for level in self.levels:
            r, k, l = np.nonzero(level.children >= 0)
            labels = zip(level.ordinals[r].tolist(), [m.actions[i] for i in k.tolist()],
                         [m.states[i] for i in l.tolist()])
            out.update(zip(labels, level.children[r, k, l].tolist()))
        return out

    def child(self, node: BeliefNode, u: str, x_next: str) -> BeliefNode | None:
        """The node that action u and next state x_next lead to from node, or None."""
        k, l = self.model.action_index(u), self.model.state_index(x_next)
        level = self.levels[node.t - 1]
        idx = int(level.children[node.ordinal - level.ordinals[0], k, l])
        return None if idx < 0 else self._node(node.t + 1, idx)


def build_reachable_belief_graph(m: ModelSpec, node_cap: int = DEFAULT_NODE_CAP) -> BeliefGraph:
    """Breadth-first enumeration of reachable (t, state, belief) nodes, a level at a time.

    For the nodes of a level, the child posterior of every admissible
    (row, action, next state) whose kernel entry is not ±0.0 under some
    parameter is formed in one _bayes_rows call; the other moves would have
    an all-zero posterior row. Transitions with zero predictive probability
    are pruned, so Bayes updates never divide by zero; of the other rows,
    the first that Belief would reject raises its DomainError. Children are deduplicated by their
    rounded fingerprint, compared as integer keys (_group_children), and
    created in (parent, action, next state) order, so the first child to
    reach a fingerprint supplies its belief; only that child's fingerprint is
    formatted, as the node's id.
    Raises CapExceeded when a level would take the node count past
    node_cap.
    """
    if node_cap < 1:
        raise DomainError(f"node_cap must be >= 1, got {node_cap}")
    if m.prior.params != m.parameters:
        raise DomainError("belief is not over this model's parameters")

    # reach[x, k, y]: some parameter's kernel entry for (x, k) -> y is not
    # ±0.0. Every other move has an all-zero posterior row, which is pruned.
    reach = (m.kernel != 0.0).any(axis=0)
    ids = [belief_fingerprint(1, m.initial_state, m.prior.weights)]
    levels: list[GraphLevel] = []
    xs = np.array([m.state_index(m.initial_state)])
    weights = m.prior.weights[None, :]
    for t in range(1, m.horizon + 1):
        ordinals = np.arange(len(ids) - len(xs), len(ids))
        children = np.full((len(xs), len(m.actions), len(m.states)), -1)
        levels.append(GraphLevel(t, ordinals, xs, weights, children))
        if t == m.horizon:
            break

        # Every admissible (row, action, next state) that some parameter can
        # reach, in that order.
        src, act, nxt = np.nonzero(m.admissible[t - 1, xs][:, :, None] & reach[xs])
        post, zero, errors = _bayes_rows(m, weights[src], xs[src], act, nxt)
        if errors:
            raise errors[min(errors)]
        live = ~zero
        src, act, nxt, post = src[live], act[live], nxt[live], post[live]
        group, firsts = _group_children(nxt, post)
        base = len(ids)
        if base + len(firsts) > node_cap:
            raise CapExceeded(f"belief graph would exceed node cap {node_cap}")
        children[src, act, nxt] = base + group

        xs = nxt[firsts]
        weights = post[firsts]
        weights.setflags(write=False)
        ids.extend(_fingerprints(t + 1, m.states, xs, weights))

    return BeliefGraph(model=m, ids=tuple(ids), levels=tuple(levels))


def _node_docs(graph: BeliefGraph) -> list[dict]:
    """One JSON object per node, in ordinal order: its id, time, state and belief."""
    m, ids = graph.model, graph.ids
    return [{"id": ids[o], "t": level.t, "state": m.states[x], "belief": dict(zip(m.parameters, w))}
            for level in graph.levels
            for o, x, w in zip(level.ordinals.tolist(), level.states.tolist(), level.weights.tolist())]


def graph_to_json(graph: BeliefGraph) -> dict:
    """Serializable view of the graph, nodes in insertion order."""
    ids = graph.ids
    return {
        "root": ids[0],
        "nodes": _node_docs(graph),
        "edges": [
            {"from": ids[src], "action": u, "next_state": y, "to": ids[dst]}
            for (src, u, y), dst in sorted(graph.edges.items())
        ],
    }
