"""The cached exhaustive search against the per-policy reference loop.

The reference is the search brute_force_optimum replaced: enumerate every
history policy and score each one from scratch, with eval_policy_paths for
the expectation and eval_policy_recursive otherwise. The library search
shares posteriors, subtree values and path terms between policies; it must
return the same value bits and the same argmin policy.
"""

import dataclasses
import itertools

import numpy as np
import pytest

import riskmdp.engine as engine
from riskmdp import (
    ZeroProbabilityObservation,
    brute_force_optimum,
    enumerate_policies,
    eval_policy_decomposed,
    eval_policy_paths,
    eval_policy_recursive,
    make_entropic,
    make_expectation,
    posterior_from_history,
    predictive_next_state,
)

from conftest import random_instance


def reference_brute_force(m, crit):
    best_v = best_p = None
    for pol in enumerate_policies(m):
        if crit.kind == "expectation":
            v = eval_policy_paths(m, crit, pol)
        else:
            v = eval_policy_recursive(m, crit, pol)
        if best_v is None or v < best_v:
            best_v, best_p = v, pol
    return best_v, best_p


def criteria(semideviation):
    return {"expectation": make_expectation(), "entropic": make_entropic(1.0),
            "semideviation": semideviation}


def assert_same_search(m, crit):
    ref_v, ref_p = reference_brute_force(m, crit)
    v, p = brute_force_optimum(m, crit)
    assert repr(v) == repr(ref_v)
    assert p.decisions == ref_p.decisions


@pytest.mark.parametrize("allow_restricted", [True, False], ids=["restricted", "all-admissible"])
@pytest.mark.parametrize("kind", ["expectation", "entropic", "semideviation"])
def test_c1_instances_match_the_reference(kind, allow_restricted, semideviation):
    crit = criteria(semideviation)[kind]
    for seed in range(20):
        assert_same_search(random_instance(seed, allow_restricted=allow_restricted), crit)


@pytest.mark.parametrize("kind", ["expectation", "entropic", "semideviation"])
def test_full_shape_instances_match_the_reference(kind, semideviation):
    # 2 states, 2 actions, horizon 3: 128 policies, so every subtree is shared.
    crit = criteria(semideviation)[kind]
    for seed in range(10):
        assert_same_search(random_instance(seed, n_states=2, n_actions=2, horizon=3), crit)


@pytest.mark.parametrize("kind", ["expectation", "entropic", "semideviation"])
def test_tied_actions_keep_the_first_minimizer(kind, semideviation):
    m = random_instance(5, n_states=2, n_actions=2, horizon=3, allow_restricted=False)
    kernel, cost = m.kernel.copy(), m.cost.copy()
    kernel[:, :, 1] = kernel[:, :, 0]
    cost[:, :, 1] = cost[:, :, 0]
    m = dataclasses.replace(m, kernel=kernel, cost=cost)
    crit = criteria(semideviation)[kind]
    assert_same_search(m, crit)
    _, p = brute_force_optimum(m, crit)
    assert set(p.decisions.values()) == {"u0"}


def reachable_pairs(m):
    """Every (history, actions) pair with positive probability under the prior."""
    pairs = set()
    for t in range(1, m.horizon + 1):
        for cont in itertools.product(m.states, repeat=t - 1):
            hist = (m.initial_state,) + cont
            for acts in itertools.product(m.actions, repeat=t - 1):
                if all(m.is_admissible(s + 1, hist[s], u) for s, u in enumerate(acts)):
                    try:
                        posterior_from_history(m, hist, acts)
                    except ZeroProbabilityObservation:
                        continue
                    pairs.add((hist, acts))
    return pairs


@pytest.mark.parametrize("kind", ["expectation", "entropic", "semideviation"])
def test_each_posterior_is_computed_once(kind, semideviation, monkeypatch):
    m = random_instance(3, n_states=2, n_actions=2, horizon=3, allow_restricted=False)
    calls = []

    def counted(m, hist, acts):
        calls.append((tuple(hist), tuple(acts)))
        return posterior_from_history(m, hist, acts)

    monkeypatch.setattr(engine, "posterior_from_history", counted)
    brute_force_optimum(m, criteria(semideviation)[kind])
    assert len(calls) == len(set(calls))
    assert set(calls) <= reachable_pairs(m)


@pytest.mark.parametrize("kind", ["entropic", "semideviation"])
def test_each_predictive_is_computed_once(kind, semideviation, monkeypatch):
    # The recursion's step cache: one predictive_next_state call per
    # (history, actions, action), and one for each such triple that can occur.
    m = random_instance(3, n_states=2, n_actions=2, horizon=3, allow_restricted=False)
    origin = {}  # id(posterior) -> (history, actions); the posteriors stay alive in it
    calls = []

    def posterior(m, hist, acts):
        xi = posterior_from_history(m, hist, acts)
        origin[id(xi)] = (tuple(hist), tuple(acts), xi)
        return xi

    def predictive(m, xi, x, u):
        hist, acts, _ = origin[id(xi)]
        assert hist[-1] == x
        calls.append((hist, acts, u))
        return predictive_next_state(m, xi, x, u)

    monkeypatch.setattr(engine, "posterior_from_history", posterior)
    monkeypatch.setattr(engine, "predictive_next_state", predictive)
    brute_force_optimum(m, criteria(semideviation)[kind])
    assert len(calls) == len(set(calls))
    assert set(calls) == {(hist, acts, u) for hist, acts in reachable_pairs(m) if len(hist) < m.horizon
                          for u in m.actions}



def reference_paths_value(m, crit, pol, hist):
    """eval_policy_paths in the numpy form it had before its per-path
    products and sums moved onto Python floats."""
    n_params = len(m.parameters)
    acc = np.zeros(n_params)
    for cont in itertools.product(m.states, repeat=m.horizon - len(hist)):
        full = hist + cont
        prob = np.ones(n_params)
        csum = np.zeros(n_params)
        for s in range(len(hist), m.horizon + 1):
            j, k = m.state_index(full[s - 1]), m.action_index(pol.action(full[:s]))
            csum += m.cost[s - 1, j, k]
            if s < m.horizon:
                prob *= m.kernel[:, j, k, m.state_index(full[s])]
        if crit.kind == "expectation":
            acc += prob * csum
        else:
            acc += prob * np.exp(crit.kappa * csum)
    weights = posterior_from_history(m, hist, [pol.action(hist[:s]) for s in range(1, len(hist))]).weights
    mask = weights > 0.0
    if crit.kind == "expectation":
        return float(np.dot(weights[mask], acc[mask]))
    return float(np.log(np.dot(weights[mask], acc[mask]))) / crit.kappa


@pytest.mark.parametrize("crit", [make_expectation(), make_entropic(1e-3), make_entropic(1.0), make_entropic(5.0)],
                         ids=["expectation", "entropic-1e-3", "entropic-1", "entropic-5"])
def test_path_oracle_equals_its_numpy_form(crit):
    for seed in range(12):
        m = random_instance(seed, n_states=2, n_actions=2, horizon=3, allow_restricted=False)
        for pol in enumerate_policies(m):
            for hist in [(m.initial_state,), *(((m.initial_state, y)) for y in m.states)]:
                try:
                    want = reference_paths_value(m, crit, pol, hist)
                except ZeroProbabilityObservation:
                    continue
                assert repr(eval_policy_paths(m, crit, pol, hist)) == repr(want)


class ScalarOnly:
    """A built-in map that counts its scalar calls and fails on its row form."""

    def __init__(self, ev):
        self.ev, self.seen = ev, 0

    def __call__(self, v, w):
        self.seen += 1
        return self.ev(v, w)

    def rows(self, v, w):
        raise AssertionError("the oracle used a row form")


@pytest.mark.parametrize("kind", ["expectation", "entropic"])
def test_oracle_and_evaluators_call_only_the_scalar_maps(kind, semideviation):
    # Brute force checks the one-step maps through their scalar calls; the
    # row forms are the solver's.
    m = random_instance(4, n_states=2, n_actions=2, horizon=3, allow_restricted=False)
    crit = criteria(semideviation)[kind]
    rho_hat, sigma = ScalarOnly(crit.rho_hat.evaluate), ScalarOnly(crit.sigma.evaluate)
    wrapped = dataclasses.replace(crit, rho_hat=dataclasses.replace(crit.rho_hat, evaluate=rho_hat),
                                  sigma=dataclasses.replace(crit.sigma, evaluate=sigma))
    v, p = brute_force_optimum(m, wrapped)
    want_v, want_p = brute_force_optimum(m, crit)
    assert repr(v) == repr(want_v) and p.decisions == want_p.decisions
    for evaluate in (eval_policy_recursive, eval_policy_paths, eval_policy_decomposed):
        assert repr(evaluate(m, wrapped, p)) == repr(evaluate(m, crit, p))
    assert rho_hat.seen and sigma.seen
