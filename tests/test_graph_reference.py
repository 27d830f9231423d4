"""The level-batched belief-graph builder against the per-edge reference.

The reference is the builder the level-batched one replaced: one
predictive, one Bayes update and one normalized Belief per edge, interned
by an f-string fingerprint. The two must agree bit for bit. The builder's
integer-key grouping is also checked against the string-key dedup loop it
replaced, on whole graphs and on rows made to sit at rounding edges.
"""

import importlib.util
import json
from pathlib import Path

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
    serialize_model,
)
from riskmdp import belief
from riskmdp.belief import HIDDEN_MASS, _fingerprints, _group_children

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


def index_labels(nxt):
    """State labels for the indices in nxt: index y is labelled str(y)."""
    return [str(y) for y in range(int(nxt.max()) + 1)]


def string_key_groups(nxt, post):
    """The string-key dedup loop that _group_children replaced, as it stood in
    the builder; returns (group, firsts, the distinct keys in order).

    The builder passed the level's time and state labels. At one time the
    labels are distinct, so a fixed time and the state indices as labels
    give the same partition and order.
    """
    # Key -> index of the new node, in order of first occurrence.
    index: dict[str, int] = {}
    local = [index.setdefault(key, len(index)) for key in _fingerprints(2, index_labels(nxt), nxt, post)]
    _, firsts = np.unique(local, return_index=True)
    return np.array(local, dtype=int), firsts, list(index)


def assert_groups_match(nxt, post):
    group, firsts = _group_children(nxt, post)
    want_group, want_firsts, want_ids = string_key_groups(nxt, post)
    assert group.tolist() == want_group.tolist()
    assert firsts.tolist() == want_firsts.tolist()
    assert _fingerprints(2, index_labels(nxt), nxt[firsts], post[firsts]) == want_ids


@pytest.mark.parametrize("make", [
    *[pytest.param(lambda T=T: gen_clinical_trials_model((1, 2, 3, 4), (1, 2, 3), horizon=T), id=f"dose-{T}")
      for T in range(3, 10)],
    *[pytest.param(lambda T=T: gen_clinical_trials_model((1, 2, 3, 4), (1, 2, 3), horizon=T,
                                                         response=sparse_response), id=f"sparse-{T}")
      for T in (3, 5, 7, 9)],
    # At this grid 32 child rows sit in the band where keys take the printed digits.
    pytest.param(lambda: gen_clinical_trials_model((1, 2, 3, 4), tuple(np.linspace(1, 3, 17)), horizon=9),
                 id="dose-P17-9"),
    pytest.param(tiny_mass_model, id="tiny-mass"),
    *[pytest.param(lambda s=s: random_instance(s, allow_restricted=True), id=f"random-{s}") for s in range(20)],
])
def test_integer_keys_build_the_string_key_graph(make, monkeypatch):
    m = make()
    g = build_reachable_belief_graph(m)
    with monkeypatch.context() as patch:
        patch.setattr(belief, "_group_children", lambda nxt, post: string_key_groups(nxt, post)[:2])
        want = build_reachable_belief_graph(m)
    assert g.ids == want.ids
    for a, b in zip(g.levels, want.levels, strict=True):
        assert a.children.tobytes() == b.children.tobytes()
        assert a.weights.tobytes() == b.weights.tobytes()


def rounding_edge_rows():
    """(next states, rows) with coordinates at the edges of the 10-digit keys.

    Coordinates sit at (k + 1/2) * 1e-10 and at k * 1e-10, each 0 to 3 ulp
    either way, so that many rows print alike while their floats differ;
    others sit just below, at and above HIDDEN_MASS, or are -0.0, 0.0 and
    1.0. Rows repeat, and some pairs differ only in the 10th digit.
    """
    rng = np.random.default_rng(20240)
    ks = np.concatenate([rng.integers(0, 10**10, 40), rng.integers(0, 1000, 10), [0, 1, 9_999_999_999]])
    centres = np.concatenate([(ks + 0.5) * 1e-10, ks * 1e-10, [HIDDEN_MASS]])
    pool = np.concatenate([centres + j * np.spacing(centres) for j in range(-3, 4)])
    pool = np.concatenate([pool[(pool >= 0.0) & (pool <= 1.0)], [-0.0, 0.0, 1.0]])
    # Few centres per column, so that rows collide on their printed digits.
    picks = rng.choice(len(pool), size=(3, 12))
    post = np.stack([pool[rng.choice(picks[i], 3000)] for i in range(3)], axis=1)
    tenth_digit = post[:200].copy()
    tenth_digit[:, 1] = np.minimum(tenth_digit[:, 1] + 1e-10, 1.0)
    hidden = [[1.0 - h, h, 0.0] for h in (np.nextafter(HIDDEN_MASS, 0.0), HIDDEN_MASS,
                                           np.nextafter(HIDDEN_MASS, 1.0), 2e-12)]
    hidden += [[1.0, 0.0, 0.0], [1.0, -0.0, 0.0], [1.0, 0.0, -0.0], [-0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
    post = np.concatenate([post, tenth_digit, np.array(hidden * 3), post[::7]])
    return rng.integers(0, 2, len(post)), post


def test_integer_keys_group_rounding_edge_rows_as_strings():
    nxt, post = rounding_edge_rows()
    printed = np.array([[int(f"{w:.10f}".replace(".", "")) for w in row] for row in post.tolist()])
    # The rows exercise both the rint path and the printed-digit fallback.
    assert (np.rint(post * 1e10) != printed).any()
    assert len(np.unique(printed, axis=0)) < len(np.unique(post, axis=0))
    assert_groups_match(nxt, post)
    for r in range(0, len(post), 500):  # and in small batches, as a small level would pass them
        for size in (3, belief._DICT_ROWS, belief._DICT_ROWS + 1):
            assert_groups_match(nxt[r:r + size], post[r:r + size])


def test_hash_collisions_fall_back_to_the_tuples(monkeypatch):
    # With every row hashed alike, the check finds distinct tuples in one
    # hash group, and the rows are grouped by the tuples themselves.
    nxt, post = rounding_edge_rows()
    m = gen_clinical_trials_model((1, 2, 3, 4), (1, 2, 3), horizon=7)
    want = build_reachable_belief_graph(m)
    assert len(nxt) > belief._HASHED_ROWS
    monkeypatch.setattr(belief, "_key_hashes", lambda keys: np.zeros(len(keys), dtype=np.uint64))
    assert_groups_match(nxt, post)
    g = build_reachable_belief_graph(m)
    assert g.ids == want.ids
    for a, b in zip(g.levels, want.levels, strict=True):
        assert a.children.tobytes() == b.children.tobytes()


def load_output_digests():
    path = Path(__file__).resolve().parent.parent / "scripts" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_set_model_and_graph_bytes_are_pinned():
    # The model and graph lines of `output_digests.py --set small`. Value and
    # policy lines apply exp and log to many computed values, whose last bits
    # may differ between C libraries, so they are compared between checkouts,
    # not pinned. The dose kernels here take exp of a few small integers.
    digests = load_output_digests()
    got = []
    for label, make in digests.models("small"):
        m = make()
        got.append(f"{label}\tmodel\t{digests.digest(serialize_model(m))}")
        got.append(f"{label}\tgraph\t{digests.digest(graph_to_json(build_reachable_belief_graph(m)))}")
    assert got == (DATA / "small_set_graph_digests.txt").read_text().splitlines()
