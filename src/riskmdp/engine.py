"""Policy types, evaluators, the belief-graph solver, and brute-force search.

Three evaluators compute a policy's value at a history:

* eval_policy_recursive folds the criterion's one-step maps backward over
  continuation histories. This is the functional the solver optimizes.
* eval_policy_paths enumerates continuation paths and applies the criterion's
  closed static form (expected cost sum, or log-expected-exponential). It is
  the independent oracle. For the expectation criterion it always equals the
  recursive value; for the entropic criterion the two coincide only when
  stage costs do not depend on the unknown parameter (or the parameter set
  is a singleton). That asymmetry is intrinsic to the two definitions, not a
  numerical artifact; see the tests for a pinned counterexample.
* eval_policy_decomposed aggregates parameter-conditional cost-to-go values
  once at the root. It equals eval_policy_paths for both built-ins.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .belief import BeliefGraph, _node_docs, posterior_from_history, predictive_next_state
from .criterion import CriterionSpec
from .errors import CapExceeded, DomainError, SchemaError
from .model import ModelSpec, _json_doc

DEFAULT_PATH_CAP = 10_000_000
DEFAULT_POLICY_CAP = 1_000_000


@dataclass(frozen=True)
class HistoryPolicy:
    """Deterministic history-dependent policy: one action per state history."""

    decisions: dict[tuple[str, ...], str]

    def action(self, history: Sequence[str]) -> str:
        key = tuple(history)
        try:
            return self.decisions[key]
        except KeyError:
            raise DomainError(f"policy has no decision for history {key}") from None


@dataclass(frozen=True, eq=False)
class QuasiMarkovPolicy:
    """Policy that depends on the history only through (time, state, belief)."""

    actions: np.ndarray  # (n_nodes,) int: action index per node ordinal, -1 = no decision
    graph: BeliefGraph

    def action(self, ordinal: int) -> str:
        """The action label at the node with this ordinal."""
        k = int(self.actions[ordinal])
        if k < 0:
            raise DomainError(f"policy has no decision for belief node {self.graph.ids[ordinal]!r}")
        return self.graph.model.actions[k]


@dataclass(frozen=True, eq=False)
class ValueTable:
    values: np.ndarray  # (n_nodes,) float: value per node ordinal
    criterion: CriterionSpec
    root_value: float


def _stage_plus_sigma(
    crit: CriterionSpec, cvec: np.ndarray, kernel_jk: np.ndarray,
    params: np.ndarray, v_next: np.ndarray | None,
) -> np.ndarray:
    """The evaluators' one-step Bellman operator, one entry per parameter.

    For each index i in the integer array params: the stage cost cvec[i]
    plus the transition risk map of the continuation values v_next under the
    next-state distribution kernel_jk[i]. At the horizon (v_next is None) the
    continuation is identically zero and the risk map is not called. Entries
    outside params are zero, so the marginal risk map ignores them.

    It calls the scalar maps once per parameter. solve_dp applies the same
    operator to a whole level of rows at once (_map_rows), so the evaluators
    that use this one stay an independent check on the solver.
    """
    f = np.zeros(len(cvec))
    if v_next is None:
        f[params] = cvec[params]
    else:
        for i in params.tolist():
            f[i] = cvec[i] + crit.sigma.evaluate(v_next, kernel_jk[i])
    return f


def _map_rows(evaluate, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """A risk map applied to every row of two 2-D arrays.

    Built-in maps carry a row form (evaluate.rows) that equals one call per
    row bit for bit. Any other callable, such as a custom map or a wrapped
    built-in one, is called once per row.
    """
    rows = getattr(evaluate, "rows", None)
    if rows is not None:
        return rows(values, weights)
    return np.array([evaluate(v, w) for v, w in zip(values, weights)], dtype=float)


def _policy_step(m: ModelSpec, pol: HistoryPolicy, hist: tuple[str, ...]) -> tuple[str, int, int]:
    """The policy's action at a history, checked admissible, with its state and action indices."""
    t = len(hist)
    x = hist[-1]
    u = pol.action(hist)
    if not m.is_admissible(t, x, u):
        raise DomainError(f"policy action {u!r} not admissible at (t={t}, {x})")
    return u, m.state_index(x), m.action_index(u)


def solve_dp(m: ModelSpec, crit: CriterionSpec, graph: BeliefGraph) -> tuple[ValueTable, QuasiMarkovPolicy]:
    """Backward induction over the reachable belief graph, a level at a time.

    Each level is one batched Bellman step over its N nodes, A actions and
    P parameters. The live rows are (node, admissible action, parameter in
    the node's support); for each, the stage cost plus the transition risk
    map of the children's values under that parameter's next-state
    distribution, all in one sigma call. Then one marginal risk map call
    aggregates each (node, admissible action) row over the belief, and the
    argmin over actions picks the node's action; ties keep the first action
    in declared order. The terminal continuation value is identically zero,
    so at t = horizon sigma is not called. Maps without a row form are
    called once per row, sigma rows of a level first, then rho_hat rows.
    """
    # The extra last slot is the zero value gathered for a missing child (-1).
    values = np.zeros(len(graph.ids) + 1)
    actions = np.full(len(graph.ids), -1)

    for level in reversed(graph.levels):
        t = level.t
        xs = level.states
        adm = m.admissible[t - 1, xs]  # (N, A)
        stuck = np.flatnonzero(~adm.any(axis=1))
        if len(stuck):
            raise DomainError(f"no admissible action at (t={t}, {m.states[xs[stuck[0]]]})")
        live = adm[:, :, None] & (level.weights > 0.0)[:, None, :]  # (N, A, P)
        r, k, i = np.nonzero(live)
        f = np.zeros(live.shape)
        f[live] = m.cost[t - 1, xs[r], k, i]
        if t < m.horizon:
            f[live] += _map_rows(crit.sigma.evaluate, values[level.children[r, k]], m.kernel[i, xs[r], k])
        r, k = np.nonzero(adm)
        q = np.full(adm.shape, np.inf)
        q[r, k] = _map_rows(crit.rho_hat.evaluate, f[r, k], level.weights[r])
        rows = np.arange(len(q))
        best = np.argmin(np.where(np.isnan(q), np.inf, q), axis=1)
        first = np.argmax(adm, axis=1)
        # The first admissible action stays unless another is strictly lower,
        # so a row of +inf or NaN values keeps an admissible action.
        best = np.where(q[rows, best] < q[rows, first], best, first)
        values[level.ordinals] = q[rows, best]
        actions[level.ordinals] = best

    table = ValueTable(values=values[:-1], criterion=crit, root_value=float(values[0]))
    return table, QuasiMarkovPolicy(actions=actions, graph=graph)


def to_history_policy(pol: QuasiMarkovPolicy, m: ModelSpec) -> HistoryPolicy:
    """Unfold a belief-graph policy into explicit per-history decisions.

    Beliefs are tracked along the graph's own edges, by node ordinal, so
    they match the solver's updates bit for bit. Histories that leave the
    graph (they have zero probability under every parameter in the prior's
    support) get the first admissible action.
    """
    decisions: dict[tuple[str, ...], str] = {}

    def walk(hist: tuple[str, ...], o: int) -> None:
        t = len(hist)
        if o >= 0:
            u = pol.action(o)
        else:
            acts = m.admissible_actions(t, hist[-1])
            if not acts:
                raise DomainError(f"no admissible action at (t={t}, {hist[-1]})")
            u = acts[0]
        decisions[hist] = u
        if t < m.horizon:
            row = [-1] * len(m.states)
            if o >= 0:
                level = pol.graph.levels[t - 1]
                row = level.children[o - level.ordinals[0], m.action_index(u)].tolist()
            for y, child in zip(m.states, row):
                walk(hist + (y,), child)

    walk((m.initial_state,), 0)
    return HistoryPolicy(decisions=decisions)


def _prefix_actions(pol: HistoryPolicy, hist: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(pol.action(hist[:s]) for s in range(1, len(hist)))


def _coerce_history(m: ModelSpec, history: Sequence[str] | None) -> tuple[str, ...]:
    if history is None:
        return (m.initial_state,)
    hist = tuple(history)
    if not hist:
        raise DomainError("history must contain at least the current state")
    if len(hist) > m.horizon:
        raise DomainError(f"history of length {len(hist)} exceeds horizon {m.horizon}")
    return hist


def eval_policy_recursive(
    m: ModelSpec, crit: CriterionSpec, pol: HistoryPolicy, history: Sequence[str] | None = None
) -> float:
    """Value of a policy at a history under the criterion's one-step recursion.

    Posteriors are recomputed from scratch at every history, which keeps this
    evaluator numerically independent of the belief graph's incremental
    updates.
    """
    hist = _coerce_history(m, history)
    return _recursive_value(m, crit, pol, hist, _prefix_actions(pol, hist))


class _Memo:
    """Work that one brute_force_optimum call scores once and shares between policies.

    Keys hold everything the cached number depends on, so a hit returns the
    bits a fresh computation would:
    * posteriors: (history, actions) -> posterior belief;
    * steps: (history, actions, action) -> what _recursive_value needs at
      the history besides the children's values (_step): the action's cost
      row and kernel slice, the posterior, the next states with positive
      predictive probability and the support's indices, so that a repeat
      visit skips predictive_next_state and np.flatnonzero;
    * values: (history, actions, the policy's decisions at and under the
      history) -> recursive value of that subtree, never for the root;
    * prefixes: path -> its prefixes from the initial state on, the
      decision points along it, which _paths_value reads the actions at;
    * terms: (path, actions along it) -> the path's static-form term.
    """

    def __init__(self, points: Iterable[tuple[str, ...]]):
        # history -> the decision points at or under it, in enumeration order
        self.below: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        for p in points:
            for s in range(1, len(p) + 1):
                self.below.setdefault(p[:s], []).append(p)
        self.posteriors: dict = {}
        self.steps: dict = {}
        self.values: dict = {}
        self.prefixes: dict = {}
        self.terms: dict = {}


def _posterior(m: ModelSpec, hist: tuple[str, ...], acts: tuple[str, ...], memo: _Memo | None):
    if memo is None:
        return posterior_from_history(m, hist, acts)
    xi = memo.posteriors.get((hist, acts))
    if xi is None:
        xi = memo.posteriors[hist, acts] = posterior_from_history(m, hist, acts)
    return xi


def _step(m: ModelSpec, pol: HistoryPolicy, hist: tuple[str, ...], acts: tuple[str, ...],
          memo: _Memo | None) -> tuple:
    """The policy's step at a history, for _recursive_value, checked admissible:
    (cost row, kernel slice over parameters, posterior, (index, label) of
    each next state with positive predictive probability, none at the
    horizon, support indices)."""
    u, j, k = _policy_step(m, pol, hist)
    xi = _posterior(m, hist, acts, memo)
    nexts = []
    if len(hist) < m.horizon:
        pred = predictive_next_state(m, xi, hist[-1], u).tolist()
        nexts = [(l, y) for l, y in enumerate(m.states) if pred[l] > 0.0]
    return m.cost[len(hist) - 1, j, k], m.kernel[:, j, k], xi, nexts, np.flatnonzero(xi.weights > 0.0)


def _recursive_value(
    m: ModelSpec, crit: CriterionSpec, pol: HistoryPolicy,
    hist: tuple[str, ...], acts: tuple[str, ...], memo: _Memo | None = None,
) -> float:
    key = None
    if memo is not None and len(hist) > 1:
        key = (hist, acts, tuple(map(pol.decisions.__getitem__, memo.below[hist])))
        v = memo.values.get(key)
        if v is not None:
            return v
    u = pol.action(hist)
    # The step, and so its admissibility check, depends only on its key.
    step = None if memo is None else memo.steps.get((hist, acts, u))
    if step is None:
        step = _step(m, pol, hist, acts, memo)
        if memo is not None:
            memo.steps[hist, acts, u] = step
    cvec, kernel_jk, xi, nexts, support = step
    w = None
    if len(hist) < m.horizon:
        w = np.zeros(len(m.states))
        for l, y in nexts:
            w[l] = _recursive_value(m, crit, pol, hist + (y,), acts + (u,), memo)
    v = crit.rho_hat.evaluate(_stage_plus_sigma(crit, cvec, kernel_jk, support, w), xi.weights)
    if key is not None:
        memo.values[key] = v
    return v


def eval_policy_paths(
    m: ModelSpec, crit: CriterionSpec, pol: HistoryPolicy,
    history: Sequence[str] | None = None, path_cap: int = DEFAULT_PATH_CAP,
) -> float:
    """Closed-form policy value by continuation-path enumeration.

    expectation: sum over parameters and paths of the path probability times
    the cost sum. entropic: log of the analogous exponential average, divided
    by kappa. Built-in criteria only. Raises CapExceeded when the number of
    continuation paths would pass path_cap.
    """
    if crit.kind not in ("expectation", "entropic"):
        raise DomainError("path oracle supports only the built-in criteria")
    return _paths_value(m, crit, pol, _coerce_history(m, history), path_cap)


def _paths_value(
    m: ModelSpec, crit: CriterionSpec, pol: HistoryPolicy,
    hist: tuple[str, ...], path_cap: int, memo: _Memo | None = None,
) -> float:
    """eval_policy_paths at hist, with brute force's memo when it scores.

    Each path's term is formed per parameter on Python floats: its
    likelihood is a left-to-right product of kernel entries from 1.0 and its
    cost sum a left-to-right sum from 0.0, each step one IEEE multiply or
    add, which rounds as numpy's elementwise one does. np.exp stays numpy
    because math.exp does not round like it (see _CertaintyEquivalent), and
    the terms are summed over paths in path order, then weighted by the
    posterior with one np.dot.
    """
    t0 = len(hist)
    acts = _prefix_actions(pol, hist)
    xi = _posterior(m, hist, acts, memo)

    n_cont = len(m.states) ** (m.horizon - t0)
    if n_cont > path_cap:
        raise CapExceeded(f"{n_cont} continuation paths exceed cap {path_cap}")

    n_params = len(m.parameters)
    acc = [0.0] * n_params
    for cont in itertools.product(m.states, repeat=m.horizon - t0):
        full = hist + cont
        key = term = None
        if memo is not None:
            points = memo.prefixes.get(full)
            if points is None:
                points = memo.prefixes[full] = [full[:s] for s in range(1, m.horizon + 1)]
            key = (full, tuple(map(pol.decisions.__getitem__, points[t0 - 1:])))
            term = memo.terms.get(key)
        if term is None:
            prob = [1.0] * n_params
            csum = [0.0] * n_params
            for s in range(t0, m.horizon + 1):
                _, j, k = _policy_step(m, pol, full[:s])
                csum = [a + c for a, c in zip(csum, m.cost[s - 1, j, k].tolist())]
                if s < m.horizon:
                    prob = [a * p for a, p in zip(prob, m.kernel[:, j, k, m.state_index(full[s])].tolist())]
            if crit.kind != "expectation":
                csum = np.exp([crit.kappa * c for c in csum]).tolist()  # now exp(kappa * cost sum)
            term = [p * c for p, c in zip(prob, csum)]
            if key is not None:
                memo.terms[key] = term
        acc = [a + b for a, b in zip(acc, term)]

    mask = xi.weights > 0.0
    dot = float(np.dot(xi.weights[mask], np.array(acc)[mask]))
    return dot if crit.kind == "expectation" else float(np.log(dot)) / crit.kappa


def eval_policy_decomposed(
    m: ModelSpec, crit: CriterionSpec, pol: HistoryPolicy, history: Sequence[str] | None = None
) -> float:
    """Policy value via the parameter-conditional decomposition.

    Each parameter in the posterior's support gets its own cost-to-go,
    composed through the transition risk map alone; the marginal risk map
    aggregates them once at the query root. For both built-in criteria this
    equals eval_policy_paths.
    """
    hist = _coerce_history(m, history)
    xi = posterior_from_history(m, hist, _prefix_actions(pol, hist))

    def cost_to_go(i: int, h: tuple[str, ...]) -> float:
        t = len(h)
        _, j, k = _policy_step(m, pol, h)
        w = None
        if t < m.horizon:
            row = m.kernel[i, j, k]
            w = np.zeros(len(m.states))
            for l, y in enumerate(m.states):
                if row[l] > 0.0:
                    w[l] = cost_to_go(i, h + (y,))
        f = _stage_plus_sigma(crit, m.cost[t - 1, j, k], m.kernel[:, j, k], np.array([i]), w)
        return float(f[i])

    f = np.zeros(len(m.parameters))
    for i in np.flatnonzero(xi.weights > 0.0):
        f[i] = cost_to_go(int(i), hist)
    return crit.rho_hat.evaluate(f, xi.weights)


def enumerate_policies(m: ModelSpec, policy_cap: int = DEFAULT_POLICY_CAP) -> Iterator[HistoryPolicy]:
    """Yield every deterministic history policy exactly once.

    Decision points are ordered by time, then lexicographically by the state
    history; actions run in declared order, so the enumeration order is
    deterministic. Raises CapExceeded before yielding, as soon as the
    decision points listed so far make the policy count pass policy_cap.
    """
    points: list[tuple[str, ...]] = []
    choices: list[tuple[str, ...]] = []
    count = 1
    for t in range(1, m.horizon + 1):
        for cont in itertools.product(m.states, repeat=t - 1):
            hist = (m.initial_state,) + cont
            acts = m.admissible_actions(t, hist[-1])
            if not acts:
                raise DomainError(f"no admissible action at (t={t}, {hist[-1]})")
            count *= len(acts)
            if count > policy_cap:
                raise CapExceeded(f"policy space of size {count}+ exceeds cap {policy_cap}")
            points.append(hist)
            choices.append(acts)

    for combo in itertools.product(*choices):
        yield HistoryPolicy(decisions=dict(zip(points, combo)))


def brute_force_optimum(
    m: ModelSpec, crit: CriterionSpec, policy_cap: int = DEFAULT_POLICY_CAP
) -> tuple[float, HistoryPolicy]:
    """Exhaustive minimization over all history policies.

    Expectation policies are scored with the path oracle. Entropic and
    custom (make_custom) policies are scored with the one-step recursion,
    because that is the functional the solver optimizes and the static path
    form provably differs from it when costs depend on the unknown
    parameter. The first minimizer in enumeration order wins ties.

    The search scores each distinct piece of work once per call. A
    policy's recursive value at a history is a function of the posterior
    there, which the history and the actions taken so far fix, and of its
    children's values, which depend on later decisions only through the
    subtree under the history. So the value of a subtree is one number for
    each (history, actions so far, decisions in the subtree), shared by
    every policy that agrees on them; the same holds for a path's term of
    the static form given the path and the actions along it. Cached numbers
    are the bits a fresh computation gives, so values and the argmin equal
    those of scoring each policy with eval_policy_recursive or
    eval_policy_paths. The cache lives only for the call and never touches
    the belief graph.
    """
    memo: _Memo | None = None
    best_v: float | None = None
    best_p: HistoryPolicy | None = None
    for pol in enumerate_policies(m, policy_cap=policy_cap):
        if memo is None:
            memo = _Memo(pol.decisions)
        if crit.kind == "expectation":
            v = _paths_value(m, crit, pol, (m.initial_state,), DEFAULT_PATH_CAP, memo)
        else:
            v = _recursive_value(m, crit, pol, (m.initial_state,), (), memo)
        if best_v is None or v < best_v:
            best_v = v
            best_p = pol
    assert best_v is not None and best_p is not None
    return best_v, best_p


# JSON interchange


def value_table_to_json(table: ValueTable, pol: QuasiMarkovPolicy) -> dict:
    missing = np.flatnonzero(pol.actions < 0)
    if len(missing):
        pol.action(int(missing[0]))  # raises for the first node without a decision
    labels = pol.graph.model.actions
    nodes = _node_docs(pol.graph)
    for doc, value, k in zip(nodes, table.values.tolist(), pol.actions.tolist()):
        doc["value"] = value
        doc["argmin_action"] = labels[k]
    return {"root_value": table.root_value, "criterion": table.criterion.describe(), "nodes": nodes}


def policy_to_json(pol: HistoryPolicy | QuasiMarkovPolicy) -> dict:
    if isinstance(pol, QuasiMarkovPolicy):
        ids, labels, actions = pol.graph.ids, pol.graph.model.actions, pol.actions.tolist()
        decided = sorted((o for o, k in enumerate(actions) if k >= 0), key=ids.__getitem__)
        return {"type": "quasi_markov", "table": {ids[o]: labels[actions[o]] for o in decided}}
    decisions = [
        {"t": len(h), "history": list(h), "action": u}
        for h, u in sorted(pol.decisions.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]
    return {"type": "history", "decisions": decisions}


def parse_policy(source: str | dict, m: ModelSpec, graph: BeliefGraph | None = None):
    """Read a policy JSON document into a HistoryPolicy or QuasiMarkovPolicy."""
    doc = _json_doc(source, "policy is not valid JSON")
    if not isinstance(doc, dict) or "type" not in doc:
        raise SchemaError("policy must be an object with a 'type' field")
    kind = doc["type"]
    if kind == "history":
        if "decisions" not in doc or not isinstance(doc["decisions"], list):
            raise SchemaError("history policy requires a 'decisions' list")
        decisions: dict[tuple[str, ...], str] = {}
        for row in doc["decisions"]:
            if not isinstance(row, dict) or not {"t", "history", "action"} <= set(row):
                raise SchemaError("each decision needs 't', 'history', and 'action'")
            t, hist, u = row["t"], row["history"], row["action"]
            if not isinstance(hist, list) or not all(isinstance(x, str) for x in hist):
                raise SchemaError("decision 'history' must be a list of state labels")
            if type(t) is not int or len(hist) != t:
                raise SchemaError(f"decision at t={t!r} has a history of length {len(hist)}")
            if not isinstance(u, str):
                raise SchemaError(f"decision 'action' must be an action label, got {u!r}")
            for x in hist:
                m.state_index(x)
            m.action_index(u)
            decisions[tuple(hist)] = u
        return HistoryPolicy(decisions=decisions)
    if kind == "quasi_markov":
        if graph is None:
            raise DomainError("resolving a quasi_markov policy requires the belief graph")
        if "table" not in doc or not isinstance(doc["table"], dict):
            raise SchemaError("quasi_markov policy requires a 'table' object")
        ordinal = {node_id: o for o, node_id in enumerate(graph.ids)}
        actions = np.full(len(graph.ids), -1)
        for node_id, u in doc["table"].items():
            if not isinstance(u, str):
                raise SchemaError(f"quasi_markov table entry {node_id!r} must be an action label, got {u!r}")
            if node_id not in ordinal:
                raise DomainError(f"policy names unknown belief node {node_id!r}")
            actions[ordinal[node_id]] = m.action_index(u)
        return QuasiMarkovPolicy(actions=actions, graph=graph)
    raise SchemaError(f"unknown policy type {kind!r}")
