"""The cached exhaustive search against the per-policy reference loop.

The reference is the search brute_force_optimum replaced: enumerate every
history policy and score each one from scratch, with eval_policy_paths for
the expectation and eval_policy_recursive otherwise. The library search
shares posteriors, subtree values and path terms between policies; it must
return the same value bits and the same argmin policy.
"""

import dataclasses
import itertools

import pytest

import riskmdp.engine as engine
from riskmdp import (
    ZeroProbabilityObservation,
    brute_force_optimum,
    enumerate_policies,
    eval_policy_paths,
    eval_policy_recursive,
    make_entropic,
    make_expectation,
    posterior_from_history,
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
