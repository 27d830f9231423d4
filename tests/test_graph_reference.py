"""The level-batched belief-graph builder against the per-edge reference.

The reference is the builder the level-batched one replaced: one
predictive, one Bayes update and one normalized Belief per edge, interned
by an f-string fingerprint. The two must agree bit for bit.
"""

import json

import numpy as np
import pytest

from riskmdp import (
    BeliefNode,
    bayes_update,
    build_reachable_belief_graph,
    gen_clinical_trials_model,
    graph_to_json,
    parse_model,
    predictive_next_state,
)

from conftest import DATA, random_instance, sparse_response
from test_belief import absorbing_variant
from test_engine import tiny_mass_model


def reference_fingerprint(t, state, weights):
    w = np.asarray(weights) + 0.0
    coords = [f"{c:.10f}" for c in w]
    key = f"t={t}|x={state}|xi={','.join(coords)}"
    if any(c > 0.0 and text == "0.0000000000" for c, text in zip(w, coords)):
        key += "|supp=" + "".join("1" if c > 0.0 else "0" for c in w)
    return key


def reference_graph(m):
    """Breadth-first, one edge at a time; returns (nodes, edges)."""
    nodes: list[BeliefNode] = []
    by_key: dict[str, int] = {}
    edges: dict[tuple[int, str, str], int] = {}

    def intern(t, state, belief):
        key = reference_fingerprint(t, state, belief.weights)
        if key not in by_key:
            by_key[key] = len(nodes)
            nodes.append(BeliefNode(id=key, t=t, state=state, belief=belief, ordinal=len(nodes)))
        return by_key[key]

    frontier = [intern(1, m.initial_state, m.prior)]
    for t in range(1, m.horizon):
        nxt: list[int] = []
        seen: set[int] = set()
        for no in frontier:
            node = nodes[no]
            for u in m.admissible_actions(t, node.state):
                pred = predictive_next_state(m, node.belief, node.state, u)
                for l, y in enumerate(m.states):
                    if pred[l] <= 0.0:
                        continue
                    co = intern(t + 1, y, bayes_update(m, node.belief, node.state, u, y))
                    edges[(no, u, y)] = co
                    if co not in seen:
                        seen.add(co)
                        nxt.append(co)
        frontier = nxt
    return nodes, edges


def reference_json(nodes, edges):
    """The graph JSON as written from per-node objects."""
    return {
        "root": nodes[0].id,
        "nodes": [{"id": n.id, "t": n.t, "state": n.state, "belief": n.belief.as_dict()} for n in nodes],
        "edges": [{"from": nodes[src].id, "action": u, "next_state": y, "to": nodes[dst].id}
                  for (src, u, y), dst in sorted(edges.items())],
    }


def assert_matches_reference(m):
    g = build_reachable_belief_graph(m)
    nodes, edges = reference_graph(m)
    assert json.dumps(graph_to_json(g)) == json.dumps(reference_json(nodes, edges))
    assert g.ids == tuple(n.id for n in nodes)
    assert len(g.nodes) == len(nodes)
    for a, b in zip(g.nodes, nodes):
        assert (a.id, a.t, a.state, a.ordinal) == (b.id, b.t, b.state, b.ordinal)
        assert a.belief.weights.tobytes() == b.belief.weights.tobytes()
    assert g.edges == edges
    assert list(g.edges) == list(edges)

    # The level arrays hold the reference's nodes and edges.
    assert len(g.levels) == m.horizon
    for level in g.levels:
        at_t = [n for n in nodes if n.t == level.t]
        assert level.ordinals.tolist() == [n.ordinal for n in at_t]
        assert level.states.tolist() == [m.state_index(n.state) for n in at_t]
        assert level.weights.tobytes() == b"".join(n.belief.weights.tobytes() for n in at_t)
        assert level.children.shape == (len(at_t), len(m.actions), len(m.states))
        for r, o in enumerate(level.ordinals.tolist()):
            for k, u in enumerate(m.actions):
                for l, y in enumerate(m.states):
                    assert level.children[r, k, l] == edges.get((o, u, y), -1)


def test_sample_model(sample_model):
    assert_matches_reference(sample_model)


def test_zero_probability_transition_is_pruned(sample_model):
    m = absorbing_variant(sample_model)
    assert_matches_reference(m)
    g = build_reachable_belief_graph(m)
    assert g.levels[0].children[0, m.action_index("a1"), m.state_index("s1")] == -1


def test_negative_zero_kernel_entry():
    # -0.0 passes validation and survives the Bayes update as a -0.0 weight;
    # the fingerprint must still print it as 0.
    doc = json.loads((DATA / "sample_model.json").read_text())
    doc["kernel"]["th1"]["s0"]["a0"] = {"s0": 1.0, "s1": -0.0}
    m = parse_model(json.dumps(doc))
    assert_matches_reference(m)
    g = build_reachable_belief_graph(m)
    child = g.child(g.root, "a0", "s1")
    assert np.signbit(child.belief.weights[0])
    assert child.id == "t=2|x=s1|xi=0.0000000000,1.0000000000"


def test_tiny_mass_keeps_supports_apart():
    m = tiny_mass_model()
    assert_matches_reference(m)
    ids = [n.id for n in build_reachable_belief_graph(m).nodes if n.t == 3]
    assert ids == ["t=3|x=s3|xi=1.0000000000,0.0000000000",
                   "t=3|x=s3|xi=1.0000000000,0.0000000000|supp=11"]


@pytest.mark.parametrize("response, horizon",
                         [pytest.param(None, T, id=str(T)) for T in (3, 4, 5, 6, 7)]
                         + [pytest.param(sparse_response, T, id=f"sparse-{T}") for T in (3, 5, 7)])
def test_dose_finding(response, horizon):
    # sparse_response prunes moves at every level; the logistic default prunes none.
    assert_matches_reference(gen_clinical_trials_model(doses=(1, 2, 3, 4), theta_grid=(1, 2, 3), horizon=horizon,
                                                       response=response))


@pytest.mark.parametrize("seed", range(20))
def test_random_instance(seed):
    assert_matches_reference(random_instance(seed, allow_restricted=True))
