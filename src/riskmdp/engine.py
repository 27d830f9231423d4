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
import json
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .belief import BeliefGraph, BeliefNode, posterior_from_history, predictive_next_state
from .criterion import CriterionSpec
from .errors import CapExceeded, DomainError, SchemaError
from .model import ModelSpec

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


@dataclass(frozen=True)
class QuasiMarkovPolicy:
    """Policy that depends on the history only through (time, state, belief)."""

    table: dict[str, str]  # belief node id -> action label
    graph: BeliefGraph

    def action(self, node: BeliefNode) -> str:
        try:
            return self.table[node.id]
        except KeyError:
            raise DomainError(f"policy has no decision for belief node {node.id!r}") from None


@dataclass(frozen=True)
class ValueTable:
    values: dict[str, float]  # belief node id -> value
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
    values = np.zeros(len(graph.nodes) + 1)
    argmin: dict[str, str] = {}

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
        argmin.update(zip([graph.nodes[o].id for o in level.ordinals.tolist()],
                          [m.actions[b] for b in best.tolist()]))

    table = ValueTable(
        values={n.id: float(values[n.ordinal]) for n in graph.nodes},
        criterion=crit,
        root_value=crit.report(float(values[graph.root.ordinal])),
    )
    return table, QuasiMarkovPolicy(table=argmin, graph=graph)


def to_history_policy(pol: QuasiMarkovPolicy, m: ModelSpec) -> HistoryPolicy:
    """Unfold a belief-graph policy into explicit per-history decisions.

    Beliefs are tracked along the graph's own edges, so they match the
    solver's updates bit for bit. Histories that leave the graph (they have
    zero probability under every parameter in the prior's support) get the
    first admissible action.
    """
    decisions: dict[tuple[str, ...], str] = {}

    def first_admissible(t: int, x: str) -> str:
        acts = m.admissible_actions(t, x)
        if not acts:
            raise DomainError(f"no admissible action at (t={t}, {x})")
        return acts[0]

    def walk(hist: tuple[str, ...], node: BeliefNode | None) -> None:
        t = len(hist)
        x = hist[-1]
        if node is not None:
            u = pol.action(node)
        else:
            u = first_admissible(t, x)
        decisions[hist] = u
        if t < m.horizon:
            for y in m.states:
                child = pol.graph.child(node, u, y) if node is not None else None
                walk(hist + (y,), child)

    walk((m.initial_state,), pol.graph.root)
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
    updates. The report transform is applied once at the query root.
    """
    hist = _coerce_history(m, history)
    return crit.report(_recursive_value(m, crit, pol, hist, _prefix_actions(pol, hist)))


def _recursive_value(
    m: ModelSpec, crit: CriterionSpec, pol: HistoryPolicy,
    hist: tuple[str, ...], acts: tuple[str, ...],
) -> float:
    t = len(hist)
    x = hist[-1]
    u, j, k = _policy_step(m, pol, hist)
    xi = posterior_from_history(m, hist, acts)
    w = None
    if t < m.horizon:
        pred = predictive_next_state(m, xi, x, u)
        w = np.zeros(len(m.states))
        for l, y in enumerate(m.states):
            if pred[l] > 0.0:
                w[l] = _recursive_value(m, crit, pol, hist + (y,), acts + (u,))
    f = _stage_plus_sigma(crit, m.cost[t - 1, j, k], m.kernel[:, j, k],
                          np.flatnonzero(xi.weights > 0.0), w)
    return crit.rho_hat.evaluate(f, xi.weights)


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
    hist = _coerce_history(m, history)
    t0 = len(hist)
    acts = _prefix_actions(pol, hist)
    xi = posterior_from_history(m, hist, acts)

    n_cont = len(m.states) ** (m.horizon - t0)
    if n_cont > path_cap:
        raise CapExceeded(f"{n_cont} continuation paths exceed cap {path_cap}")

    n_params = len(m.parameters)
    acc = np.zeros(n_params)
    for cont in itertools.product(m.states, repeat=m.horizon - t0):
        full = hist + cont
        prob = np.ones(n_params)
        csum = np.zeros(n_params)
        for s in range(t0, m.horizon + 1):
            _, j, k = _policy_step(m, pol, full[:s])
            csum += m.cost[s - 1, j, k]
            if s < m.horizon:
                prob *= m.kernel[:, j, k, m.state_index(full[s])]
        if crit.kind == "expectation":
            acc += prob * csum
        else:
            acc += prob * np.exp(crit.kappa * csum)

    mask = xi.weights > 0.0
    if crit.kind == "expectation":
        val = float(np.dot(xi.weights[mask], acc[mask]))
    else:
        val = float(np.log(np.dot(xi.weights[mask], acc[mask]))) / crit.kappa
    return crit.report(val)


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
    return crit.report(crit.rho_hat.evaluate(f, xi.weights))


def enumerate_policies(m: ModelSpec, policy_cap: int = DEFAULT_POLICY_CAP) -> Iterator[HistoryPolicy]:
    """Yield every deterministic history policy exactly once.

    Decision points are ordered by time, then lexicographically by the state
    history; actions run in declared order, so the enumeration order is
    deterministic. Raises CapExceeded before yielding when the policy count
    would pass policy_cap.
    """
    points: list[tuple[str, ...]] = []
    choices: list[tuple[str, ...]] = []
    for t in range(1, m.horizon + 1):
        for cont in itertools.product(m.states, repeat=t - 1):
            hist = (m.initial_state,) + cont
            acts = m.admissible_actions(t, hist[-1])
            if not acts:
                raise DomainError(f"no admissible action at (t={t}, {hist[-1]})")
            points.append(hist)
            choices.append(acts)

    count = 1
    for c in choices:
        count *= len(c)
        if count > policy_cap:
            raise CapExceeded(f"policy space of size {count}+ exceeds cap {policy_cap}")

    for combo in itertools.product(*choices):
        yield HistoryPolicy(decisions=dict(zip(points, combo)))


def brute_force_optimum(
    m: ModelSpec, crit: CriterionSpec, policy_cap: int = DEFAULT_POLICY_CAP
) -> tuple[float, HistoryPolicy]:
    """Exhaustive minimization over all history policies.

    Expectation policies are scored with the path oracle. Entropic policies
    are scored with the one-step recursion, because that is the functional
    the solver optimizes and the static path form provably differs from it
    when costs depend on the unknown parameter. The first minimizer in
    enumeration order wins ties.
    """
    if crit.kind not in ("expectation", "entropic"):
        raise DomainError("brute force supports only the built-in criteria")
    best_v: float | None = None
    best_p: HistoryPolicy | None = None
    for pol in enumerate_policies(m, policy_cap=policy_cap):
        if crit.kind == "expectation":
            v = eval_policy_paths(m, crit, pol)
        else:
            v = eval_policy_recursive(m, crit, pol)
        if best_v is None or v < best_v:
            best_v = v
            best_p = pol
    assert best_v is not None and best_p is not None
    return best_v, best_p


# JSON interchange


def value_table_to_json(table: ValueTable, pol: QuasiMarkovPolicy) -> dict:
    graph = pol.graph
    return {
        "root_value": table.root_value,
        "criterion": table.criterion.describe(),
        "nodes": [
            {
                "id": n.id,
                "t": n.t,
                "state": n.state,
                "belief": n.belief.as_dict(),
                "value": table.values[n.id],
                "argmin_action": pol.table[n.id],
            }
            for n in graph.nodes
        ],
    }


def policy_to_json(pol: HistoryPolicy | QuasiMarkovPolicy) -> dict:
    if isinstance(pol, QuasiMarkovPolicy):
        return {"type": "quasi_markov", "table": dict(sorted(pol.table.items()))}
    decisions = [
        {"t": len(h), "history": list(h), "action": u}
        for h, u in sorted(pol.decisions.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]
    return {"type": "history", "decisions": decisions}


def parse_policy(source: str | dict, m: ModelSpec, graph: BeliefGraph | None = None):
    """Read a policy JSON document into a HistoryPolicy or QuasiMarkovPolicy."""
    if isinstance(source, str):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as e:
            raise SchemaError(f"policy is not valid JSON: {e}") from None
    else:
        doc = source
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
            hist = tuple(row["history"])
            if len(hist) != row["t"]:
                raise SchemaError(f"decision at t={row['t']} has a history of length {len(hist)}")
            for x in hist:
                m.state_index(x)
            m.action_index(row["action"])
            decisions[hist] = row["action"]
        return HistoryPolicy(decisions=decisions)
    if kind == "quasi_markov":
        if graph is None:
            raise DomainError("resolving a quasi_markov policy requires the belief graph")
        if "table" not in doc or not isinstance(doc["table"], dict):
            raise SchemaError("quasi_markov policy requires a 'table' object")
        for node_id, u in doc["table"].items():
            if node_id not in graph.by_id:
                raise DomainError(f"policy names unknown belief node {node_id!r}")
            m.action_index(u)
        return QuasiMarkovPolicy(table=dict(doc["table"]), graph=graph)
    raise SchemaError(f"unknown policy type {kind!r}")
