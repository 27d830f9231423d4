"""Bayes updates, batch posteriors, the martingale identity, and the belief graph."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmdp import (
    Belief,
    CapExceeded,
    DomainError,
    ModelSpec,
    ZeroProbabilityObservation,
    bayes_update,
    belief_fingerprint,
    build_reachable_belief_graph,
    graph_to_json,
    path_likelihood,
    posterior_from_history,
    predictive_next_state,
)
from riskmdp import belief, validate_model
from riskmdp.belief import HIDDEN_MASS
from riskmdp.model import _normalize_rows_each

from conftest import random_instance, random_history, wealth_lattice

BAD_WEIGHTS = "belief weights must be finite and nonnegative"
# Kernel rows that make posteriors with a negative or non-finite weight.
BAD_KERNEL_ROWS = [[1.2, -0.2], [0.1, np.nan], [np.inf, 1.0], [np.inf, -np.inf]]
# (th1, th2) kernel rows at (s0, a0) of the sample model. Each pair makes a
# posterior with a negative or non-finite weight. The unnormalized posterior
# of the last two sums to NaN after observing s0 and to -0.1 after s1.
INF_PAIR = ([np.inf, 1.0], [-np.inf, 1.0])
NEGATIVE_PAIR = ([1.2, -0.2], [1.0, 0.0])
BAD_KERNEL_PAIRS = ([pytest.param((row, [0.7, 0.3]), id=f"row{i}") for i, row in enumerate(BAD_KERNEL_ROWS)]
                    + [pytest.param(INF_PAIR, id="inf_pair"), pytest.param(NEGATIVE_PAIR, id="negative_pair")])


def with_s0_a0_rows(m: ModelSpec, rows) -> ModelSpec:
    """m with kernel[i, s0, a0] = rows[i]; ModelSpec does not check its kernel (parse_model does)."""
    kernel = np.array(m.kernel)
    kernel[:, m.state_index("s0"), m.action_index("a0")] = rows
    return dataclasses.replace(m, kernel=kernel)


def zero_weight_meets_inf(m: ModelSpec) -> ModelSpec:
    """The sample model m with a prior point mass on th2 and (th1, s0, a0) = [inf, 1].

    Observing s0 -> s0 under a0 weighs th1 by 0 * inf, a NaN weight.
    """
    return dataclasses.replace(with_s0_a0_rows(m, ([np.inf, 1.0], [0.7, 0.3])),
                               prior=Belief.point_mass(m.parameters, "th2"))


def absorbing_variant(sample_model: ModelSpec) -> ModelSpec:
    """Sample model with s0 absorbing under a1 for every parameter."""
    kernel = np.array(sample_model.kernel)
    j = sample_model.state_index("s0")
    k = sample_model.action_index("a1")
    kernel[:, j, k, :] = [1.0, 0.0]
    return ModelSpec(
        horizon=sample_model.horizon,
        states=sample_model.states,
        actions=sample_model.actions,
        parameters=sample_model.parameters,
        prior=sample_model.prior,
        kernel=kernel,
        cost=sample_model.cost,
        initial_state=sample_model.initial_state,
        admissible=sample_model.admissible,
    )


class TestBayesUpdate:
    def test_single_step_values(self, sample_model):
        # prior (1/2, 1/2); observing s0 -> s1 under a0 has likelihood
        # (0.9, 0.3), so the posterior is (0.45, 0.15) / 0.6 = (3/4, 1/4)
        xi = bayes_update(sample_model, sample_model.prior, "s0", "a0", "s1")
        assert abs(xi.mass("th1") - 0.75) < 1e-12
        assert abs(xi.mass("th2") - 0.25) < 1e-12
        assert float(xi.weights.sum()) == 1.0

    def test_single_step_other_branch(self, sample_model):
        # likelihood (0.1, 0.7): posterior (0.05, 0.35) / 0.4 = (1/8, 7/8)
        xi = bayes_update(sample_model, sample_model.prior, "s0", "a0", "s0")
        assert abs(xi.mass("th1") - 0.125) < 1e-12
        assert abs(xi.mass("th2") - 0.875) < 1e-12

    def test_zero_probability_observation(self, sample_model):
        m = absorbing_variant(sample_model)
        with pytest.raises(ZeroProbabilityObservation):
            bayes_update(m, m.prior, "s0", "a1", "s1")

    def test_point_mass_zero_likelihood(self, sample_model):
        m = absorbing_variant(sample_model)
        xi = Belief.point_mass(m.parameters, "th1")
        with pytest.raises(ZeroProbabilityObservation):
            bayes_update(m, xi, "s0", "a1", "s1")

    def test_foreign_belief_rejected(self, sample_model):
        with pytest.raises(DomainError):
            bayes_update(sample_model, Belief.uniform(("zz",)), "s0", "a0", "s1")

    def test_never_admissible_action_rejected(self, sample_model):
        adm = np.array(sample_model.admissible)
        adm[:, sample_model.state_index("s1"), sample_model.action_index("a1")] = False
        m = ModelSpec(
            horizon=sample_model.horizon, states=sample_model.states,
            actions=sample_model.actions, parameters=sample_model.parameters,
            prior=sample_model.prior, kernel=sample_model.kernel,
            cost=sample_model.cost, initial_state=sample_model.initial_state,
            admissible=adm,
        )
        with pytest.raises(DomainError, match="never admissible"):
            bayes_update(m, m.prior, "s1", "a1", "s0")

    @pytest.mark.parametrize("rows, y", [pytest.param(INF_PAIR, "s0", id="inf_pair"),
                                         pytest.param(NEGATIVE_PAIR, "s1", id="negative_pair")])
    def test_invalid_kernel_entry(self, sample_model, rows, y):
        # The weight check comes before the zero-probability test.
        m = with_s0_a0_rows(sample_model, rows)
        with pytest.raises(DomainError, match=f"^{BAD_WEIGHTS}$"):
            bayes_update(m, m.prior, "s0", "a0", y)
        with pytest.raises(DomainError, match=f"^{BAD_WEIGHTS}$"):
            posterior_from_history(m, ("s0", y), ("a0",))

    def test_zero_weight_times_infinite_entry(self, sample_model):
        # 0 * inf must reach the weight check as a NaN weight, without a
        # RuntimeWarning (pytest turns one into an error).
        m = zero_weight_meets_inf(sample_model)
        with pytest.raises(DomainError, match=f"^{BAD_WEIGHTS}$"):
            bayes_update(m, m.prior, "s0", "a0", "s0")
        with pytest.raises(DomainError, match=f"^{BAD_WEIGHTS}$"):
            posterior_from_history(m, ("s0", "s0"), ("a0",))

    @pytest.mark.parametrize("row, lik", [pytest.param([np.inf, 0.0], "nan", id="inf_times_zero"),
                                          pytest.param([1e308, 1e308], "inf", id="overflow")])
    def test_path_likelihood_of_invalid_kernel(self, sample_model, row, lik):
        # The product along s0 -> s0 -> s1 is inf * 0 or 1e308 * 1e308 under
        # th1; it is kept as is, and the posterior rejects it as a weight.
        m = with_s0_a0_rows(sample_model, (row, [0.7, 0.3]))
        history, actions = ("s0", "s0", "s1"), ("a0", "a0")
        assert repr(path_likelihood(m, "th1", history, actions)) == lik
        with pytest.raises(DomainError, match=f"^{BAD_WEIGHTS}$"):
            posterior_from_history(m, history, actions)

    def test_support_never_grows(self, sample_model):
        xi = Belief(sample_model.parameters, np.array([0.0, 1.0]))
        out = bayes_update(sample_model, xi, "s0", "a0", "s1")
        assert out.weights[0] == 0.0
        assert out.weights[1] == 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_property_posterior_is_normalized_exactly(self, seed):
        m = random_instance(seed)
        hist, acts = random_history(m, np.random.default_rng(seed))
        xi = posterior_from_history(m, hist, acts)
        assert float(xi.weights.sum()) == 1.0


class TestPredictive:
    def test_values(self, sample_model):
        pred = predictive_next_state(sample_model, sample_model.prior, "s0", "a0")
        # 0.5 * 0.1 + 0.5 * 0.7 and 0.5 * 0.9 + 0.5 * 0.3
        assert abs(pred[0] - 0.4) < 1e-12
        assert abs(pred[1] - 0.6) < 1e-12

    def test_point_mass_recovers_kernel_row(self, sample_model):
        xi = Belief.point_mass(sample_model.parameters, "th2")
        pred = predictive_next_state(sample_model, xi, "s1", "a0")
        assert np.allclose(pred, [0.2, 0.8], atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_property_martingale(self, seed):
        """Averaging the posteriors against the predictive recovers the belief."""
        m = random_instance(seed)
        rng = np.random.default_rng(seed + 1)
        w = rng.integers(0, 10, size=len(m.parameters)).astype(float)
        if w.sum() == 0.0:
            w[0] = 1.0
        xi = Belief(m.parameters, w)
        pairs = [(x, u) for x in m.states for u in m.actions
                 if m.admissible[:, m.state_index(x), m.action_index(u)].any()]
        x, u = pairs[int(rng.integers(0, len(pairs)))]
        pred = predictive_next_state(m, xi, x, u)
        recon = np.zeros(len(m.parameters))
        for l, y in enumerate(m.states):
            if pred[l] > 0.0:
                recon += pred[l] * bayes_update(m, xi, x, u, y).weights
        assert np.max(np.abs(recon - xi.weights)) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_property_tower_for_test_functions(self, seed):
        """One-step iterated conditional means coincide with the direct mean."""
        m = random_instance(seed)
        rng = np.random.default_rng(seed + 2)
        g = rng.uniform(-5.0, 5.0, size=len(m.parameters))
        xi = m.prior
        x, u = m.initial_state, m.admissible_actions(1, m.initial_state)[0]
        pred = predictive_next_state(m, xi, x, u)
        nested = sum(
            float(pred[l]) * float(bayes_update(m, xi, x, u, y).weights @ g)
            for l, y in enumerate(m.states) if pred[l] > 0.0
        )
        direct = float(xi.weights @ g)
        assert abs(nested - direct) <= 1e-12


class TestHistories:
    def test_path_likelihood_product(self, sample_model):
        got = path_likelihood(sample_model, "th1", ("s0", "s1", "s0"), ("a0", "a0"))
        assert got == 0.9 * 0.8

    def test_trivial_history(self, sample_model):
        assert path_likelihood(sample_model, "th1", ("s0",), ()) == 1.0

    def test_posterior_from_history_values(self, sample_model):
        # staying in s0 twice under a0: likelihoods (0.1^2, 0.7^2),
        # posterior (0.005, 0.245) / 0.25 = (1/50, 49/50)
        xi = posterior_from_history(sample_model, ("s0", "s0", "s0"), ("a0", "a0"))
        assert abs(xi.mass("th1") - 0.02) < 1e-12
        assert abs(xi.mass("th2") - 0.98) < 1e-12

    def test_trivial_history_returns_prior(self, sample_model):
        xi = posterior_from_history(sample_model, ("s0",), ())
        assert xi == sample_model.prior

    def test_impossible_history(self, sample_model):
        m = absorbing_variant(sample_model)
        with pytest.raises(ZeroProbabilityObservation):
            posterior_from_history(m, ("s0", "s1"), ("a1",))

    def test_action_count_mismatch(self, sample_model):
        with pytest.raises(DomainError, match="one action per transition"):
            posterior_from_history(sample_model, ("s0", "s1"), ())

    def test_empty_history(self, sample_model):
        with pytest.raises(DomainError):
            posterior_from_history(sample_model, (), ())

    def test_inadmissible_action_in_history(self, sample_model):
        adm = np.array(sample_model.admissible)
        adm[0, sample_model.state_index("s0"), sample_model.action_index("a1")] = False
        m = ModelSpec(
            horizon=sample_model.horizon, states=sample_model.states,
            actions=sample_model.actions, parameters=sample_model.parameters,
            prior=sample_model.prior, kernel=sample_model.kernel,
            cost=sample_model.cost, initial_state=sample_model.initial_state,
            admissible=adm,
        )
        with pytest.raises(DomainError, match="not admissible"):
            posterior_from_history(m, ("s0", "s1"), ("a1",))

    def test_unknown_state_in_history(self, sample_model):
        with pytest.raises(DomainError, match="unknown state"):
            path_likelihood(sample_model, "th1", ("s0", "zz"), ("a0",))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_property_batch_equals_incremental(self, seed):
        m = random_instance(seed)
        hist, acts = random_history(m, np.random.default_rng(seed + 3))
        batch = posterior_from_history(m, hist, acts)
        xi = m.prior
        for s in range(len(acts)):
            xi = bayes_update(m, xi, hist[s], acts[s], hist[s + 1])
        assert np.max(np.abs(batch.weights - xi.weights)) <= 1e-12
        assert batch.support == xi.support


class TestFingerprint:
    def test_frozen_format(self):
        got = belief_fingerprint(1, "s0", np.array([0.5, 0.5]))
        assert got == "t=1|x=s0|xi=0.5000000000,0.5000000000"

    def test_negative_zero_is_canonical(self):
        a = belief_fingerprint(2, "s", np.array([-0.0, 1.0]))
        b = belief_fingerprint(2, "s", np.array([0.0, 1.0]))
        assert a == b
        assert "-0" not in a

    def test_nearby_beliefs_collapse(self):
        a = belief_fingerprint(1, "s", np.array([0.3, 0.7]))
        b = belief_fingerprint(1, "s", np.array([0.3 + 1e-12, 0.7 - 1e-12]))
        assert a == b

    def test_distinct_beliefs_do_not_collapse(self):
        a = belief_fingerprint(1, "s", np.array([0.3, 0.7]))
        b = belief_fingerprint(1, "s", np.array([0.3 + 1e-9, 0.7 - 1e-9]))
        assert a != b

    def test_hidden_positive_mass_keeps_support(self):
        ruled_out = belief_fingerprint(3, "s", np.array([1.0, 0.0]))
        kept = belief_fingerprint(3, "s", np.array([1.0 - 2e-12, 2e-12]))
        assert ruled_out == "t=3|x=s|xi=1.0000000000,0.0000000000"
        assert kept == "t=3|x=s|xi=1.0000000000,0.0000000000|supp=11"
        # The suffix appears exactly where a positive mass prints as zero.
        below = float(np.nextafter(HIDDEN_MASS, 0.0))
        assert "%.10f" % below == "0.0000000000"
        assert "%.10f" % HIDDEN_MASS == "0.0000000001"
        assert belief_fingerprint(1, "s", np.array([1.0 - below, below])).endswith("|supp=11")
        shown = belief_fingerprint(1, "s", np.array([1.0 - HIDDEN_MASS, HIDDEN_MASS]))
        assert shown == "t=1|x=s|xi=0.9999999999,0.0000000001"


class TestGraph:
    def test_sample_graph_shape(self, sample_model):
        g = build_reachable_belief_graph(sample_model)
        assert len(g.nodes) == 5
        assert len(g.edges) == 4
        assert g.root.t == 1 and g.root.state == "s0"
        assert g.root.belief == sample_model.prior

    def test_sample_graph_beliefs(self, sample_model):
        g = build_reachable_belief_graph(sample_model)
        # under a0 the two outcomes give (1/8, 7/8) at s0 and (3/4, 1/4) at s1;
        # under a1 the belief stays put, so s0 and s1 reappear with (1/2, 1/2)
        a0_s0 = g.child(g.root, "a0", "s0")
        a0_s1 = g.child(g.root, "a0", "s1")
        a1_s0 = g.child(g.root, "a1", "s0")
        a1_s1 = g.child(g.root, "a1", "s1")
        assert abs(a0_s0.belief.mass("th1") - 0.125) < 1e-12
        assert abs(a0_s1.belief.mass("th1") - 0.75) < 1e-12
        assert a1_s0.belief == sample_model.prior
        assert a1_s1.belief == sample_model.prior
        assert sum(n.t == 2 for n in g.nodes) == 4
        assert len({a0_s0.ordinal, a0_s1.ordinal, a1_s0.ordinal, a1_s1.ordinal}) == 4

    def test_leaves_have_no_children(self, sample_model):
        g = build_reachable_belief_graph(sample_model)
        for n in g.nodes[1:]:  # the four nodes at t=2
            for u in sample_model.actions:
                for y in sample_model.states:
                    assert g.child(n, u, y) is None

    def test_deduplication_shares_nodes(self, sample_model):
        # both a1 children at s0 and s1 carry the prior belief; rebuilding from
        # them must not duplicate (2, s0, prior) or (2, s1, prior)
        g = build_reachable_belief_graph(sample_model)
        ids = [n.id for n in g.nodes]
        assert len(ids) == len(set(ids))

    def test_determinism(self, sample_model):
        g1 = build_reachable_belief_graph(sample_model)
        g2 = build_reachable_belief_graph(sample_model)
        assert [n.id for n in g1.nodes] == [n.id for n in g2.nodes]
        assert {k: v for k, v in g1.edges.items()} == {k: v for k, v in g2.edges.items()}

    def test_node_cap(self, sample_model):
        with pytest.raises(CapExceeded):
            build_reachable_belief_graph(sample_model, node_cap=2)
        g = build_reachable_belief_graph(sample_model, node_cap=5)
        assert len(g.nodes) == 5
        with pytest.raises(DomainError):
            build_reachable_belief_graph(sample_model, node_cap=0)

    def test_zero_probability_edges_pruned(self, sample_model):
        m = absorbing_variant(sample_model)
        g = build_reachable_belief_graph(m)
        assert g.child(g.root, "a1", "s1") is None
        assert g.child(g.root, "a1", "s0") is not None
        assert len(g.nodes) == 4  # the (2, s1, prior) node is unreachable now

    @pytest.mark.parametrize("rows", BAD_KERNEL_PAIRS)
    def test_invalid_kernel_entry(self, sample_model, rows):
        # The build must reject the posterior such an entry makes, also when
        # its mass is NaN or negative, rather than prune it.
        with pytest.raises(DomainError, match=f"^{BAD_WEIGHTS}$"):
            build_reachable_belief_graph(with_s0_a0_rows(sample_model, rows))

    def test_zero_weight_times_infinite_entry(self, sample_model):
        with pytest.raises(DomainError, match=f"^{BAD_WEIGHTS}$"):
            build_reachable_belief_graph(zero_weight_meets_inf(sample_model))

    def test_structurally_zero_moves_are_not_normalized(self, monkeypatch):
        # A move whose kernel entry is 0 under every parameter has an
        # all-zero posterior row, which the build would only prune. On this
        # lattice 10 of every 11 next states are such moves.
        m = wealth_lattice(10, 5)
        assert not [i for i in validate_model(m) if i.severity == "error"]
        sent = []
        normalize = belief._normalize_rows_each

        def recording(rows):
            sent.append(np.array(rows))
            return normalize(rows)

        monkeypatch.setattr(belief, "_normalize_rows_each", recording)
        g = build_reachable_belief_graph(m)
        rows = np.concatenate(sent)
        assert (rows != 0.0).any(axis=1).all()
        assert len(sent) == m.horizon - 1 and len(rows) == len(g.edges)

    def test_rows_with_bad_weights_are_reported_without_warning(self):
        # pytest turns a RuntimeWarning, such as inf + -inf in a row sum, into an error.
        rows = np.array([[0.25, 0.75]] + BAD_KERNEL_ROWS + [[0.0, 0.0]])
        out, errors = _normalize_rows_each(rows)
        assert {i: str(e) for i, e in errors.items()} == {
            1: BAD_WEIGHTS, 2: BAD_WEIGHTS, 3: BAD_WEIGHTS, 4: BAD_WEIGHTS,
            5: "cannot normalize a vector with nonpositive sum"}
        assert np.array_equal(out[1:], rows[1:], equal_nan=True)
        assert out[0].tolist() == [0.25, 0.75]

    def test_horizon_one_graph(self):
        m = random_instance(11, horizon=1)
        g = build_reachable_belief_graph(m)
        assert len(g.nodes) == 1
        assert len(g.edges) == 0

    def test_child_rejects_unknown_labels(self, sample_model):
        g = build_reachable_belief_graph(sample_model)
        with pytest.raises(DomainError):
            g.child(g.root, "zz", "s0")
        with pytest.raises(DomainError):
            g.child(g.root, "a0", "zz")

    @pytest.mark.parametrize("seed", [2, 11])  # inadmissible moves; merges
    def test_child_agrees_with_edges(self, seed):
        m = random_instance(seed, horizon=3, n_states=3, n_actions=2)
        g = build_reachable_belief_graph(m)
        edges = g.edges
        for n in g.nodes:
            for u in m.actions:
                for y in m.states:
                    child = g.child(n, u, y)
                    if n.t == m.horizon:
                        assert child is None
                    else:
                        assert (child is None) == ((n.ordinal, u, y) not in edges)
                        assert child is None or child.ordinal == edges[n.ordinal, u, y]

    def test_json_export(self, sample_model):
        g = build_reachable_belief_graph(sample_model)
        doc = graph_to_json(g)
        assert doc["root"] == g.root.id
        assert len(doc["nodes"]) == 5
        assert len(doc["edges"]) == 4
        assert doc["nodes"][0]["id"] == g.root.id
        for e in doc["edges"]:
            assert set(e) == {"from", "action", "next_state", "to"}

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_property_every_positive_predictive_transition_has_an_edge(self, seed):
        m = random_instance(seed)
        g = build_reachable_belief_graph(m)
        for n in g.nodes:
            if n.t == m.horizon:
                continue
            for u in m.admissible_actions(n.t, n.state):
                pred = predictive_next_state(m, n.belief, n.state, u)
                for l, y in enumerate(m.states):
                    child = g.child(n, u, y)
                    if pred[l] > 0.0:
                        assert child is not None
                        assert child.t == n.t + 1 and child.state == y
                    else:
                        assert child is None
