"""Solver, evaluators, exhaustive search, and policy interchange.

The frozen numbers in TestSampleModelValues are hand arithmetic: every chain
is recomputed inline with math.exp/math.log so the solver is checked against
independent calculations, not against itself.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from riskmdp import (
    Belief,
    CapExceeded,
    DomainError,
    HistoryPolicy,
    ModelSpec,
    QuasiMarkovPolicy,
    SchemaError,
    brute_force_optimum,
    build_reachable_belief_graph,
    enumerate_policies,
    eval_policy_decomposed,
    eval_policy_paths,
    eval_policy_recursive,
    gen_clinical_trials_model,
    make_entropic,
    make_expectation,
    parse_policy,
    policy_to_json,
    solve_dp,
    to_history_policy,
    validate_model,
    value_table_to_json,
)

from conftest import random_instance, random_policy, rel_close


def all_a0_policy() -> HistoryPolicy:
    return HistoryPolicy({
        ("s0",): "a0", ("s0", "s0"): "a0", ("s0", "s1"): "a0",
    })


def counterexample_model() -> ModelSpec:
    """Two stages, one state, one action; the cost depends only on the
    unknown parameter: 1 under p, 0 under q, both stages."""
    return ModelSpec(
        horizon=2,
        states=("s",),
        actions=("a",),
        parameters=("p", "q"),
        prior=Belief(("p", "q"), np.array([0.5, 0.5])),
        kernel=np.ones((2, 1, 1, 1)),
        cost=np.array([[[[1.0, 0.0]]], [[[1.0, 0.0]]]]),
        initial_state="s",
    )


def tiny_mass_model() -> ModelSpec:
    """th1 has prior mass 1e-12, which prints as zero in a node key.

    Via s1 the path rules th1 out; via s2 it keeps it. Both reach s3 at t=3,
    where th1 leads to the costly absorbing state.
    """
    states = ("s0", "s1", "s2", "s3", "bad")
    kernel = np.zeros((2, 5, 1, 5))
    kernel[0, 0, 0, [1, 2]] = 0.5
    kernel[1, 0, 0, 2] = 1.0
    kernel[:, [1, 2], 0, 3] = 1.0
    kernel[0, 3, 0, 0] = 1.0
    kernel[1, 3, 0, 4] = 1.0
    kernel[:, 4, 0, 4] = 1.0
    cost = np.zeros((4, 5, 1, 2))
    cost[:, 4] = 100.0
    return ModelSpec(
        horizon=4,
        states=states,
        actions=("a",),
        parameters=("th0", "th1"),
        prior=Belief(("th0", "th1"), np.array([1.0 - 1e-12, 1e-12])),
        kernel=kernel,
        cost=cost,
        initial_state="s0",
    )


class TestSampleModelValues:
    """Hand-checked dynamic programming on the two-stage example."""

    def test_expectation_node_values(self, sample_model):
        g = build_reachable_belief_graph(sample_model)
        table, pol = solve_dp(sample_model, make_expectation(), g)
        # stage-2 nodes: cost vectors (2, 0) under a0 and (1, 1) under a1
        #   (s0, (1/8, 7/8)): min(2/8, 1) = 0.25
        #   (s1, (3/4, 1/4)): min(2/4, 1) = 0.5
        #   (s0, (1/2, 1/2)) and (s1, ...): min(1, 1) = 1, tie keeps a0
        a0_s0 = g.child(g.root, "a0", "s0")
        a0_s1 = g.child(g.root, "a0", "s1")
        a1_s0 = g.child(g.root, "a1", "s0")
        assert abs(table.values[a0_s0.id] - 0.25) < 1e-12
        assert abs(table.values[a0_s1.id] - 0.5) < 1e-12
        assert abs(table.values[a1_s0.id] - 1.0) < 1e-12
        assert pol.table[a0_s0.id] == "a0"
        assert pol.table[a1_s0.id] == "a0"  # exact tie, first declared action

    def test_expectation_root_value(self, sample_model):
        #   root a0: 0.5*(1 + 0.1*0.25 + 0.9*0.5) + 0.5*(0 + 0.7*0.25 + 0.3*0.5)
        #          = 0.5*1.475 + 0.5*0.325 = 0.9
        #   root a1: 0.5*(0.5 + 1) + 0.5*(0.5 + 1) = 1.5
        g = build_reachable_belief_graph(sample_model)
        table, pol = solve_dp(sample_model, make_expectation(), g)
        assert abs(table.root_value - 0.9) < 1e-12
        assert pol.table[g.root.id] == "a0"

    def test_entropic_node_values(self, sample_model):
        g = build_reachable_belief_graph(sample_model)
        table, pol = solve_dp(sample_model, make_entropic(1.0), g)
        v1 = math.log(0.125 * math.exp(2.0) + 0.875)   # (s0, (1/8, 7/8)), a0
        v2 = math.log(0.75 + 0.25 * math.exp(2.0))     # (s1, (3/4, 1/4)), a0
        a0_s0 = g.child(g.root, "a0", "s0")
        a0_s1 = g.child(g.root, "a0", "s1")
        a1_s0 = g.child(g.root, "a1", "s0")
        a1_s1 = g.child(g.root, "a1", "s1")
        assert abs(table.values[a0_s0.id] - v1) < 1e-12
        assert abs(table.values[a0_s1.id] - v2) < 1e-12
        # at (1/2, 1/2) the spread makes a0 cost log(0.5 e^2 + 0.5) > 1, so a1 wins
        assert table.values[a1_s0.id] == 1.0
        assert pol.table[a1_s0.id] == "a1"
        assert pol.table[a1_s1.id] == "a1"

    def test_entropic_root_value(self, sample_model):
        g = build_reachable_belief_graph(sample_model)
        table, pol = solve_dp(sample_model, make_entropic(1.0), g)
        v1 = math.log(0.125 * math.exp(2.0) + 0.875)
        v2 = math.log(0.75 + 0.25 * math.exp(2.0))
        f1 = 1.0 + math.log(0.1 * math.exp(v1) + 0.9 * math.exp(v2))
        f2 = 0.0 + math.log(0.7 * math.exp(v1) + 0.3 * math.exp(v2))
        root_a0 = math.log(0.5 * math.exp(f1) + 0.5 * math.exp(f2))
        assert root_a0 < 1.5  # a1 root alternative costs exactly 1.5
        assert abs(table.root_value - root_a0) < 1e-12
        assert pol.table[g.root.id] == "a0"

    def test_solver_is_deterministic(self, sample_model):
        g = build_reachable_belief_graph(sample_model)
        crit = make_entropic(1.0)
        t1, p1 = solve_dp(sample_model, crit, g)
        t2, p2 = solve_dp(sample_model, crit, g)
        assert t1.values == t2.values
        assert t1.root_value == t2.root_value
        assert p1.table == p2.table

    def test_policy_table_covers_every_node(self, sample_model):
        g = build_reachable_belief_graph(sample_model)
        _, pol = solve_dp(sample_model, make_expectation(), g)
        assert set(pol.table) == {n.id for n in g.nodes}

    def test_restricted_actions_respected(self, sample_model):
        adm = np.array(sample_model.admissible)
        adm[0, sample_model.state_index("s0"), sample_model.action_index("a0")] = False
        m = ModelSpec(
            horizon=2, states=sample_model.states, actions=sample_model.actions,
            parameters=sample_model.parameters, prior=sample_model.prior,
            kernel=sample_model.kernel, cost=sample_model.cost,
            initial_state="s0", admissible=adm,
        )
        g = build_reachable_belief_graph(m)
        table, pol = solve_dp(m, make_expectation(), g)
        assert pol.table[g.root.id] == "a1"
        assert abs(table.root_value - 1.5) < 1e-12


class TestMultiplicativeCrossCheck:
    """exp(kappa * V) must satisfy the exponentiated recursion, computed here
    without any logarithms."""

    def multiplicative_values(self, m, kappa, graph):
        W = {}
        for t in range(m.horizon, 0, -1):
            for node in graph.nodes_at(t):
                j = m.state_index(node.state)
                w = node.belief.weights
                supp = np.flatnonzero(w > 0.0)
                best = None
                for u in m.admissible_actions(t, node.state):
                    k = m.action_index(u)
                    c = m.cost[t - 1, j, k]
                    total = 0.0
                    for i in supp:
                        if t == m.horizon:
                            inner = 1.0
                        else:
                            inner = 0.0
                            for l, y in enumerate(m.states):
                                if m.kernel[i, j, k, l] > 0.0:
                                    inner += m.kernel[i, j, k, l] * W[graph.child(node, u, y).id]
                        total += w[i] * math.exp(kappa * c[i]) * inner
                    best = total if best is None else min(best, total)
                W[node.id] = best
        return W

    def test_sample_model(self, sample_model):
        kappa = 1.0
        g = build_reachable_belief_graph(sample_model)
        table, _ = solve_dp(sample_model, make_entropic(kappa), g)
        W = self.multiplicative_values(sample_model, kappa, g)
        for node in g.nodes:
            assert rel_close(math.exp(kappa * table.values[node.id]), W[node.id], 1e-9)

    def test_random_instances(self):
        for seed in range(8):
            m = random_instance(seed)
            kappa = 0.7
            g = build_reachable_belief_graph(m)
            table, _ = solve_dp(m, make_entropic(kappa), g)
            W = self.multiplicative_values(m, kappa, g)
            for node in g.nodes:
                assert rel_close(math.exp(kappa * table.values[node.id]), W[node.id], 1e-9)


class TestEvaluators:
    def test_expectation_all_evaluators_agree_on_sample(self, sample_model):
        crit = make_expectation()
        pol = all_a0_policy()
        r = eval_policy_recursive(sample_model, crit, pol)
        p = eval_policy_paths(sample_model, crit, pol)
        d = eval_policy_decomposed(sample_model, crit, pol)
        assert abs(r - 0.9) < 1e-12
        assert abs(p - 0.9) < 1e-12
        assert abs(d - 0.9) < 1e-12

    def test_expectation_recursive_equals_paths_randomized(self):
        crit = make_expectation()
        for seed in range(20):
            m = random_instance(seed)
            pol = random_policy(m, np.random.default_rng(seed + 10))
            r = eval_policy_recursive(m, crit, pol)
            p = eval_policy_paths(m, crit, pol)
            d = eval_policy_decomposed(m, crit, pol)
            assert rel_close(r, p, 1e-10)
            assert rel_close(d, p, 1e-10)

    def test_entropic_evaluation_at_subhistory(self, sample_model):
        # after (s0 -> s1 under a0) the posterior is (3/4, 1/4) and only the
        # terminal cost (0, 2) remains
        crit = make_entropic(1.0)
        pol = all_a0_policy()
        want = math.log(0.75 + 0.25 * math.exp(2.0))
        got = eval_policy_recursive(sample_model, crit, pol, history=("s0", "s1"))
        assert abs(got - want) < 1e-12
        got_paths = eval_policy_paths(sample_model, crit, pol, history=("s0", "s1"))
        assert abs(got_paths - want) < 1e-12  # one stage left: forms coincide

    def test_expectation_evaluation_at_subhistory(self, sample_model):
        pol = all_a0_policy()
        got = eval_policy_recursive(sample_model, make_expectation(), pol, history=("s0", "s1"))
        assert abs(got - 0.5) < 1e-12

    @pytest.mark.parametrize("evaluate", [eval_policy_recursive, eval_policy_paths, eval_policy_decomposed])
    def test_history_beyond_horizon(self, sample_model, evaluate):
        pol = all_a0_policy()
        with pytest.raises(DomainError, match="exceeds horizon"):
            evaluate(sample_model, make_expectation(), pol, history=("s0", "s1", "s0"))

    def test_missing_decision(self, sample_model):
        pol = HistoryPolicy({("s0",): "a0"})
        with pytest.raises(DomainError, match="no decision"):
            eval_policy_recursive(sample_model, make_expectation(), pol)

    def test_inadmissible_policy_action(self, sample_model):
        adm = np.array(sample_model.admissible)
        adm[0, 0, 0] = False  # forbid a0 at (t=1, s0)
        m = ModelSpec(
            horizon=2, states=sample_model.states, actions=sample_model.actions,
            parameters=sample_model.parameters, prior=sample_model.prior,
            kernel=sample_model.kernel, cost=sample_model.cost,
            initial_state="s0", admissible=adm,
        )
        for ev in (eval_policy_recursive, eval_policy_paths, eval_policy_decomposed):
            with pytest.raises(DomainError, match="not admissible"):
                ev(m, make_expectation(), all_a0_policy())

    def test_paths_cap(self, sample_model):
        with pytest.raises(CapExceeded):
            eval_policy_paths(sample_model, make_expectation(), all_a0_policy(), path_cap=1)

    def test_paths_rejects_custom_criteria(self, sample_model):
        from riskmdp.criterion import CriterionSpec, MarginalRiskMap, TransitionRiskMap
        mean = lambda v, w: float(np.dot(w, v))
        crit = CriterionSpec("custom", MarginalRiskMap("m", mean),
                             TransitionRiskMap("m", mean), lambda v: v, name="m")
        with pytest.raises(DomainError):
            eval_policy_paths(sample_model, crit, all_a0_policy())


class TestTinyMassDoesNotMerge:
    """A belief that keeps th1 at mass 2e-12 must not merge with one that has
    ruled th1 out, although both keys print th1 as 0.0000000000."""

    @pytest.mark.parametrize("crit", [make_expectation(), make_entropic(1.0)],
                             ids=["expectation", "entropic"])
    def test_solver_equals_brute_force(self, crit):
        m = tiny_mass_model()
        table, qmp = solve_dp(m, crit, build_reachable_belief_graph(m))
        best, _ = brute_force_optimum(m, crit)
        assert best > 0.0
        assert table.root_value == pytest.approx(best, rel=1e-9, abs=0.0)
        achieved = eval_policy_recursive(m, crit, to_history_policy(qmp, m))
        assert achieved == pytest.approx(best, rel=1e-9, abs=0.0)

    def test_entropic_value(self):
        # log(1 + 1e-12 (e^100 - 1)), the cost of th1 reaching the bad state
        m = tiny_mass_model()
        table, _ = solve_dp(m, make_entropic(1.0), build_reachable_belief_graph(m))
        assert table.root_value == pytest.approx(math.log1p(1e-12 * math.expm1(100.0)), rel=1e-9)


def with_maps(crit, wrap):
    """crit with wrap applied to both risk maps' evaluate."""
    return dataclasses.replace(
        crit,
        rho_hat=dataclasses.replace(crit.rho_hat, evaluate=wrap(crit.rho_hat.evaluate)),
        sigma=dataclasses.replace(crit.sigma, evaluate=wrap(crit.sigma.evaluate)))


def per_row(crit):
    """crit with its maps behind plain lambdas, which have no row form, so
    solve_dp calls them once per row."""
    return with_maps(crit, lambda ev: lambda v, w: ev(v, w))


class _CallCounter:
    """A risk map without a row form that counts its calls."""

    def __init__(self, ev):
        self.ev, self.seen = ev, 0

    def __call__(self, v, w):
        self.seen += 1
        return self.ev(v, w)


class _RowCounter(_CallCounter):
    """A built-in map that counts the rows its row form is given."""

    def __call__(self, v, w):
        raise AssertionError("the batched sweep made a scalar call")

    def rows(self, v, w):
        self.seen += len(v)
        return self.ev.rows(v, w)


def _stuck_model() -> ModelSpec:
    """Reachable nodes with no admissible action at t=2 (s3) and t=3 (s2, s1).

    At t=3 the child of s1 (state s2) is created before the child of s2
    (state s1), so ordinal order differs from state order there.
    """
    states = ("s0", "s1", "s2", "s3")
    kernel = np.zeros((2, 4, 1, 4))
    kernel[0, 0, 0, 1:] = [0.2, 0.3, 0.5]
    kernel[1, 0, 0, 1:] = [0.5, 0.3, 0.2]
    kernel[:, 1, 0, 2] = 1.0
    kernel[:, 2, 0, 1] = 1.0
    kernel[:, 3, 0, 3] = 1.0
    admissible = np.ones((3, 4, 1), dtype=bool)
    admissible[1, 3] = False
    admissible[2, 1:3] = False
    return ModelSpec(
        horizon=3,
        states=states,
        actions=("a0",),
        parameters=("th0", "th1"),
        prior=Belief(("th0", "th1"), np.array([0.5, 0.5])),
        kernel=kernel,
        cost=np.ones((3, 4, 1, 2)),
        initial_state="s0",
        admissible=admissible,
    )


def _massless_kernel_model() -> ModelSpec:
    """Under th1, the kernel row of (s0, a0) is all zero, so that sigma row
    has no atom of positive weight. parse_model rejects such a row; a
    ModelSpec built in code can hold one."""
    kernel = np.zeros((2, 2, 1, 2))
    kernel[0, 0, 0] = [0.0, 1.0]
    kernel[:, 1, 0, 1] = 1.0
    return ModelSpec(
        horizon=2,
        states=("s0", "s1"),
        actions=("a0",),
        parameters=("th0", "th1"),
        prior=Belief(("th0", "th1"), np.array([0.5, 0.5])),
        kernel=kernel,
        cost=np.ones((2, 2, 1, 2)),
        initial_state="s0",
        admissible=np.ones((2, 2, 1), dtype=bool),
    )


def _batched_sweep_models():
    yield "sample", lambda sample_model: sample_model
    for T in range(3, 8):
        yield f"dose-T{T}", lambda _, T=T: gen_clinical_trials_model((1, 2, 3, 4), (1, 2, 3), horizon=T)
    for seed in range(20):
        yield f"random-{seed}", lambda _, seed=seed: random_instance(seed)
    yield "tiny-mass", lambda _: tiny_mass_model()


BATCHED_SWEEP_MODELS = list(_batched_sweep_models())
SWEEP_CRITERIA = [make_expectation()] + [make_entropic(k) for k in (1e-3, 1.0, 5.0)]


class TestLevelBatchedSweep:
    """solve_dp batches each level through the maps' row forms; maps without
    one take the per-row path, which must give the same bits."""

    @pytest.mark.parametrize("make", [mk for _, mk in BATCHED_SWEEP_MODELS],
                             ids=[name for name, _ in BATCHED_SWEEP_MODELS])
    def test_batched_equals_per_row(self, make, sample_model):
        m = make(sample_model)
        g = build_reachable_belief_graph(m)
        for crit in SWEEP_CRITERIA:
            table, qmp = solve_dp(m, crit, g)
            ref_table, ref_qmp = solve_dp(m, per_row(crit), g)
            got = np.array([table.values[n.id] for n in g.nodes])
            want = np.array([ref_table.values[n.id] for n in g.nodes])
            assert got.tobytes() == want.tobytes()
            assert qmp.table == ref_qmp.table
            assert list(qmp.table) == list(ref_qmp.table)

    @pytest.mark.parametrize("make", [
        lambda sm: sm,
        lambda sm: tiny_mass_model(),
        lambda sm: gen_clinical_trials_model((1, 2, 3), (1, 2, 3), horizon=4, prior={1: 0.5, 2: 0.5, 3: 0.0}),
        lambda sm: random_instance(7),
    ], ids=["sample", "tiny-mass", "dose-zero-prior", "random-7"])
    def test_row_and_call_counts(self, make, sample_model):
        # One rho_hat per (node, admissible action); below the horizon, one
        # sigma per (node, admissible action, parameter in the support). The
        # tiny-mass and zero-prior models have nodes whose support is smaller
        # than the parameter set.
        m = make(sample_model)
        g = build_reachable_belief_graph(m)
        want_rho = want_sigma = 0
        for n in g.nodes:
            acts = len(m.admissible_actions(n.t, n.state))
            want_rho += acts
            if n.t < m.horizon:
                want_sigma += acts * int((n.belief.weights > 0.0).sum())
        for crit in (make_expectation(), make_entropic(1.0)):
            for counter in (_RowCounter, _CallCounter):
                counted = with_maps(crit, counter)
                solve_dp(m, counted, g)
                seen = (counted.rho_hat.evaluate.seen, counted.sigma.evaluate.seen)
                assert seen == (want_rho, want_sigma)

    @pytest.mark.parametrize("admissible, costs, action", [
        ((False, True, True), (0.0, math.inf, math.inf), "a1"),
        ((True, True, True), (math.nan, 1.0, 0.0), "a0"),
        ((True, True, True), (2.0, math.nan, 1.0), "a2"),
    ], ids=["all-inf", "nan-first", "nan-later"])
    @pytest.mark.parametrize("crit", [make_expectation(), per_row(make_expectation())],
                             ids=["batched", "per-row"])
    def test_argmin_keeps_first_admissible_unless_strictly_beaten(self, admissible, costs, action, crit):
        # Costs built in code are not validated, so values may be +inf or NaN.
        m = ModelSpec(
            horizon=1, states=("s",), actions=("a0", "a1", "a2"), parameters=("th",),
            prior=Belief(("th",), np.array([1.0])), kernel=np.ones((1, 1, 3, 1)),
            cost=np.array(costs).reshape(1, 1, 3, 1), initial_state="s",
            admissible=np.array(admissible).reshape(1, 1, 3))
        g = build_reachable_belief_graph(m)
        table, qmp = solve_dp(m, crit, g)
        assert qmp.table[g.root.id] == action
        k = m.action_index(action)
        assert np.array_equal(table.root_value, costs[k], equal_nan=True)

    @pytest.mark.parametrize("crit", [make_expectation(), make_entropic(1.0),
                                      per_row(make_expectation()), per_row(make_entropic(1.0))],
                             ids=["expectation", "entropic", "expectation-per-row", "entropic-per-row"])
    def test_no_admissible_action_names_the_first_node(self, crit):
        # Levels are solved from the horizon down, and a level's nodes in
        # ordinal order, so the first stuck node is (t=3, s2), not (t=2, s3).
        m = _stuck_model()
        assert [i.message for i in validate_model(m) if i.code == "admissible"] == [
            "empty admissible action set at (t=2, s3)",
            "empty admissible action set at (t=3, s1)",
            "empty admissible action set at (t=3, s2)",
        ]
        g = build_reachable_belief_graph(m)
        assert [n.state for n in g.nodes_at(3)] == ["s2", "s1"]
        with pytest.raises(DomainError, match=r"^no admissible action at \(t=3, s2\)$"):
            solve_dp(m, crit, g)

    def test_sigma_row_without_mass(self):
        m = _massless_kernel_model()
        g = build_reachable_belief_graph(m)
        table, qmp = solve_dp(m, make_expectation(), g)
        ref_table, ref_qmp = solve_dp(m, per_row(make_expectation()), g)
        assert table.values == ref_table.values and qmp.table == ref_qmp.table
        # The empty row adds nothing: 0.5 * (1 + 1) + 0.5 * (1 + 0).
        assert table.root_value == 1.5
        for crit in (make_entropic(1.0), per_row(make_entropic(1.0))):
            with pytest.raises(DomainError, match="^entropic risk map needs an atom with positive weight$"):
                solve_dp(m, crit, g)


class TestStaticRecursiveDivergence:
    """The one-step recursion and the closed static form are different
    functionals once costs vary with the unknown parameter."""

    def test_frozen_counterexample(self):
        m = counterexample_model()
        pol = HistoryPolicy({("s",): "a", ("s", "s"): "a"})
        crit = make_entropic(1.0)
        rec = eval_policy_recursive(m, crit, pol)
        pth = eval_policy_paths(m, crit, pol)
        # recursion: both stages contribute log((e + 1)/2)
        assert abs(rec - 2.0 * math.log((math.e + 1.0) / 2.0)) < 1e-12
        assert abs(rec - 1.240229013916555) < 1e-12
        # static form: log of the mixture of e^2 and e^0
        assert abs(pth - math.log((math.exp(2.0) + 1.0) / 2.0)) < 1e-12
        assert abs(pth - 1.4337808304830273) < 1e-12
        assert pth - rec > 0.19

    def test_singleton_parameter_set_agrees(self):
        crit = make_entropic(1.0)
        for seed in range(12):
            m = random_instance(seed, n_params=1)
            pol = random_policy(m, np.random.default_rng(seed + 20))
            r = eval_policy_recursive(m, crit, pol)
            p = eval_policy_paths(m, crit, pol)
            assert rel_close(r, p, 1e-10)

    def test_parameter_free_costs_agree(self):
        crit = make_entropic(1.0)
        for seed in range(12):
            m = random_instance(seed, theta_free_costs=True)
            pol = random_policy(m, np.random.default_rng(seed + 30))
            r = eval_policy_recursive(m, crit, pol)
            p = eval_policy_paths(m, crit, pol)
            assert rel_close(r, p, 1e-10)

    def test_decomposed_equals_paths_for_entropic(self):
        crit = make_entropic(1.0)
        for seed in range(12):
            m = random_instance(seed)
            pol = random_policy(m, np.random.default_rng(seed + 40))
            d = eval_policy_decomposed(m, crit, pol)
            p = eval_policy_paths(m, crit, pol)
            assert rel_close(d, p, 1e-10)

    def test_decomposed_equals_paths_on_counterexample(self):
        m = counterexample_model()
        pol = HistoryPolicy({("s",): "a", ("s", "s"): "a"})
        crit = make_entropic(1.0)
        assert rel_close(eval_policy_decomposed(m, crit, pol),
                         eval_policy_paths(m, crit, pol), 1e-12)


class TestEnumeration:
    def test_policy_count_on_sample(self, sample_model):
        pols = list(enumerate_policies(sample_model))
        assert len(pols) == 8  # 2 actions ** 3 decision points
        seen = {tuple(sorted(p.decisions.items())) for p in pols}
        assert len(seen) == 8

    def test_policy_cap(self, sample_model):
        with pytest.raises(CapExceeded):
            list(enumerate_policies(sample_model, policy_cap=7))

    def test_restricted_actions_shrink_the_space(self, sample_model):
        adm = np.array(sample_model.admissible)
        adm[0, 0, 1] = False  # no a1 at (t=1, s0)
        m = ModelSpec(
            horizon=2, states=sample_model.states, actions=sample_model.actions,
            parameters=sample_model.parameters, prior=sample_model.prior,
            kernel=sample_model.kernel, cost=sample_model.cost,
            initial_state="s0", admissible=adm,
        )
        assert len(list(enumerate_policies(m))) == 4

    def test_brute_force_expectation_on_sample(self, sample_model):
        value, pol = brute_force_optimum(sample_model, make_expectation())
        assert abs(value - 0.9) < 1e-12
        assert pol.decisions == {("s0",): "a0", ("s0", "s0"): "a0", ("s0", "s1"): "a0"}

    def test_brute_force_entropic_matches_solver(self, sample_model):
        g = build_reachable_belief_graph(sample_model)
        table, _ = solve_dp(sample_model, make_entropic(1.0), g)
        value, _ = brute_force_optimum(sample_model, make_entropic(1.0))
        assert rel_close(value, table.root_value, 1e-12)

    def test_brute_force_deterministic(self, sample_model):
        v1, p1 = brute_force_optimum(sample_model, make_entropic(1.0))
        v2, p2 = brute_force_optimum(sample_model, make_entropic(1.0))
        assert v1 == v2
        assert p1.decisions == p2.decisions


class TestHistoryUnfolding:
    def test_on_graph_histories_follow_the_table(self, sample_model):
        g = build_reachable_belief_graph(sample_model)
        _, qmp = solve_dp(sample_model, make_entropic(1.0), g)
        hp = to_history_policy(qmp, sample_model)
        assert hp.action(("s0",)) == qmp.table[g.root.id]
        a0_s0 = g.child(g.root, "a0", "s0")
        assert hp.action(("s0", "s0")) == qmp.table[a0_s0.id]
        assert set(hp.decisions) == {("s0",), ("s0", "s0"), ("s0", "s1")}

    def test_off_graph_histories_get_first_admissible(self, sample_model):
        kernel = np.array(sample_model.kernel)
        kernel[:, 0, 1, :] = [1.0, 0.0]  # a1 keeps the chain in s0 surely
        m = ModelSpec(
            horizon=2, states=sample_model.states, actions=sample_model.actions,
            parameters=sample_model.parameters, prior=sample_model.prior,
            kernel=kernel, cost=sample_model.cost,
            initial_state="s0", admissible=sample_model.admissible,
        )
        g = build_reachable_belief_graph(m)
        qmp = QuasiMarkovPolicy(table={n.id: "a1" for n in g.nodes}, graph=g)
        hp = to_history_policy(qmp, m)
        assert hp.action(("s0",)) == "a1"
        assert hp.action(("s0", "s0")) == "a1"   # on the graph
        assert hp.action(("s0", "s1")) == "a0"   # unreachable, first admissible

    def test_unfolded_policy_value_matches_root(self, sample_model):
        for crit in (make_expectation(), make_entropic(1.0)):
            g = build_reachable_belief_graph(sample_model)
            table, qmp = solve_dp(sample_model, crit, g)
            hp = to_history_policy(qmp, sample_model)
            assert rel_close(eval_policy_recursive(sample_model, crit, hp),
                             table.root_value, 1e-12)


class TestInterchange:
    def test_value_table_json(self, sample_model):
        g = build_reachable_belief_graph(sample_model)
        table, qmp = solve_dp(sample_model, make_entropic(2.0), g)
        doc = value_table_to_json(table, qmp)
        assert doc["root_value"] == table.root_value
        assert doc["criterion"] == {"type": "entropic", "kappa": 2.0}
        assert len(doc["nodes"]) == 5
        for row in doc["nodes"]:
            assert set(row) == {"id", "t", "state", "belief", "value", "argmin_action"}
            assert row["value"] == table.values[row["id"]]
        json.dumps(doc)  # serializable

    def test_history_policy_round_trip(self, sample_model):
        pol = all_a0_policy()
        doc = policy_to_json(pol)
        again = parse_policy(json.dumps(doc), sample_model)
        assert isinstance(again, HistoryPolicy)
        assert again.decisions == pol.decisions

    def test_quasi_markov_round_trip(self, sample_model):
        g = build_reachable_belief_graph(sample_model)
        _, qmp = solve_dp(sample_model, make_expectation(), g)
        doc = policy_to_json(qmp)
        again = parse_policy(doc, sample_model, g)
        assert isinstance(again, QuasiMarkovPolicy)
        assert again.table == qmp.table

    def test_parse_policy_errors(self, sample_model):
        g = build_reachable_belief_graph(sample_model)
        with pytest.raises(SchemaError):
            parse_policy("{bad", sample_model)
        with pytest.raises(SchemaError):
            parse_policy({"decisions": []}, sample_model)
        with pytest.raises(SchemaError):
            parse_policy({"type": "zigzag"}, sample_model)
        with pytest.raises(SchemaError):
            parse_policy({"type": "history", "decisions": [
                {"t": 2, "history": ["s0"], "action": "a0"}]}, sample_model)
        with pytest.raises(DomainError):
            parse_policy({"type": "history", "decisions": [
                {"t": 1, "history": ["zz"], "action": "a0"}]}, sample_model)
        with pytest.raises(DomainError):
            parse_policy({"type": "history", "decisions": [
                {"t": 1, "history": ["s0"], "action": "zz"}]}, sample_model)
        with pytest.raises(DomainError):
            parse_policy({"type": "quasi_markov", "table": {}}, sample_model)
        with pytest.raises(DomainError):
            parse_policy({"type": "quasi_markov", "table": {"nope": "a0"}},
                         sample_model, g)
