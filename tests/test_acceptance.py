"""End-to-end acceptance checks.

Each test_cN function is one acceptance criterion; the conftest hook prints a
PASS/FAIL line per criterion after the run. The entropic half of criterion 2
checks the recursion against the closed static form only where the engine
promises they agree: stage costs free of the unknown parameter, or the
parameter known. On parameter-dependent costs the two are different
functionals, and that divergence is asserted rather than hidden;
TestStaticRecursiveDivergence in test_engine.py pins it to a two-line hand
calculation.
"""

import math
import time

import numpy as np
import pytest

from riskmdp import (
    Belief,
    HistoryPolicy,
    ModelSpec,
    bayes_update,
    build_reachable_belief_graph,
    brute_force_optimum,
    check_axioms,
    enumerate_policies,
    eval_policy_paths,
    eval_policy_recursive,
    gen_clinical_trials_model,
    make_entropic,
    make_expectation,
    posterior_from_history,
    predictive_next_state,
    simulate_runs,
    solve_dp,
    to_history_policy,
    trajectories_to_csv,
    validate_model,
)
from riskmdp.criterion import CriterionSpec, MarginalRiskMap, TransitionRiskMap

from conftest import random_history, random_instance, random_policy

BOTH_CRITERIA = (make_expectation(), make_entropic(1.0))


def test_c1_solver_matches_exhaustive_search():
    """Backward induction equals exhaustive policy search on 20 instances,
    and the extracted policy achieves the optimal value, both criteria."""
    started = time.monotonic()
    for seed in range(20):
        m = random_instance(seed)
        g = build_reachable_belief_graph(m)
        for crit in BOTH_CRITERIA:
            table, qmp = solve_dp(m, crit, g)
            best_value, _ = brute_force_optimum(m, crit)
            assert abs(table.root_value - best_value) <= 1e-9, (
                f"seed {seed}, {crit.describe()}: root {table.root_value!r} "
                f"vs exhaustive {best_value!r}")
            achieved = eval_policy_recursive(m, crit, to_history_policy(qmp, m))
            assert abs(achieved - table.root_value) <= 1e-9
    assert time.monotonic() - started < 60.0


def _c2_pairs(theta_free_costs: bool = False) -> list[tuple[ModelSpec, HistoryPolicy]]:
    """The 50 instance/policy pairs criterion 2 is checked on."""
    pairs = []
    for seed in range(50):
        m = random_instance(seed, theta_free_costs=theta_free_costs)
        pairs.append((m, random_policy(m, np.random.default_rng(1000 + seed))))
    return pairs


def _worst_static_gap(crit, pairs=None) -> float:
    worst = 0.0
    for m, pol in pairs if pairs is not None else _c2_pairs():
        r = eval_policy_recursive(m, crit, pol)
        p = eval_policy_paths(m, crit, pol)
        worst = max(worst, abs(r - p) / max(1.0, abs(r), abs(p)))
    return worst


def _known_parameter(m: ModelSpec) -> ModelSpec:
    """The same model with the prior a point mass on the first parameter."""
    weights = np.zeros(len(m.parameters))
    weights[0] = 1.0
    return ModelSpec(
        horizon=m.horizon, states=m.states, actions=m.actions,
        parameters=m.parameters, prior=Belief(m.parameters, weights),
        kernel=m.kernel, cost=m.cost, initial_state=m.initial_state,
        admissible=m.admissible,
    )


def test_c2_recursion_matches_static_form_expectation():
    worst = _worst_static_gap(make_expectation())
    assert worst <= 1e-10, f"max relative gap {worst:.6g} over 50 policies"


def test_c2_recursion_matches_static_form_entropic():
    # The recursion equals the certainty equivalent of the total cost only
    # where the engine promises it: costs free of the unknown parameter (same
    # draws, so same kernels, priors and policies, with the cost of th0 for
    # every parameter), or the parameter known (prior a point mass). With
    # parameter-dependent costs the two functionals differ, and the check
    # asserts that they do; TestStaticRecursiveDivergence in test_engine.py
    # pins one such gap by hand.
    crit = make_entropic(1.0)
    pairs = _c2_pairs()
    free = _c2_pairs(theta_free_costs=True)
    for checked in (pairs, free):  # guard against trivial instances
        n = sum(len(m.parameters) >= 2 and m.horizon >= 2 for m, _ in checked)
        assert n >= 20, f"only {n} of 50 pairs have 2+ parameters and 2+ stages"

    worst = _worst_static_gap(crit, free)
    assert worst <= 1e-10, (
        f"parameter-free costs: max relative gap {worst:.6g} over 50 policies")
    worst = _worst_static_gap(crit, [(_known_parameter(m), pol) for m, pol in pairs])
    assert worst <= 1e-10, (
        f"known parameter: max relative gap {worst:.6g} over 50 policies")
    worst = _worst_static_gap(crit, pairs)
    assert worst > 1e-3, (
        f"parameter-dependent costs: max relative gap {worst:.6g} over 50 "
        f"policies; the recursion and the static form should differ")


def test_c3_batch_posterior_equals_incremental():
    checked = 0
    for seed in range(100):
        m = random_instance(seed)
        rng = np.random.default_rng(2000 + seed)
        for _ in range(10):
            hist, acts = random_history(m, rng)
            batch = posterior_from_history(m, hist, acts)
            xi = m.prior
            for t in range(len(acts)):
                xi = bayes_update(m, xi, hist[t], acts[t], hist[t + 1])
            assert np.all(np.abs(batch.weights - xi.weights) <= 1e-12)
            checked += 1
    assert checked == 1000


def test_c4_predictive_is_a_martingale():
    checked = 0
    for seed in range(100):
        m = random_instance(seed)
        rng = np.random.default_rng(3000 + seed)
        for _ in range(10):
            w = rng.integers(0, 10, size=len(m.parameters)).astype(float)
            w[int(rng.integers(0, len(w)))] = float(rng.integers(1, 10))
            xi = Belief(m.parameters, w)
            t = int(rng.integers(1, m.horizon + 1))
            x = m.states[int(rng.integers(0, len(m.states)))]
            acts = m.admissible_actions(t, x)
            u = acts[int(rng.integers(0, len(acts)))]
            pred = predictive_next_state(m, xi, x, u)
            mixed = np.zeros(len(m.parameters))
            for l, y in enumerate(m.states):
                if pred[l] > 0.0:
                    mixed += pred[l] * bayes_update(m, xi, x, u, y).weights
            assert np.all(np.abs(mixed - xi.weights) <= 1e-12)
            checked += 1
    assert checked == 1000


def test_c5_axiom_probe():
    for crit in (make_expectation(), make_entropic(0.5), make_entropic(1.0),
                 make_entropic(5.0)):
        report = check_axioms(crit, samples=1000, seed=7)
        assert report.passed, report.as_dict()

    # a worst-case map ignores the weights entirely, so the probe must
    # catch it looking at zero-mass coordinates
    def bad(values, weights):
        return float(np.max(values))

    broken = CriterionSpec(
        kind="custom",
        rho_hat=MarginalRiskMap("worst-case", bad),
        sigma=TransitionRiskMap("worst-case", bad),
        name="worst-case",
    )
    report = check_axioms(broken, samples=1000, seed=7)
    assert not report.passed
    assert any(v.axiom == "support" for v in report.violations)


def test_c6_entropic_approaches_expectation_as_kappa_vanishes():
    kappas = (1e-2, 1e-3, 1e-4)
    for seed in range(10):
        m = random_instance(seed, n_states=2, n_actions=2, n_params=3, horizon=3)
        g = build_reachable_belief_graph(m)
        root_exp, _ = solve_dp(m, make_expectation(), g)
        gaps = []
        for kappa in kappas:
            root_ent, _ = solve_dp(m, make_entropic(kappa), g)
            gaps.append(abs(root_ent.root_value - root_exp.root_value))
        assert gaps[0] > gaps[1] > gaps[2], f"seed {seed}: gaps {gaps}"
        spread = float(m.cost.max() - m.cost.min())
        for kappa, gap in zip(kappas, gaps):
            assert gap <= kappa * spread * spread * m.horizon, (
                f"seed {seed}, kappa {kappa}: gap {gap}")


def _root_argmin_set(m: ModelSpec, crit) -> set[str]:
    """Optimal first actions, computed by exhaustive search only."""
    best_by_action: dict[str, float] = {}
    for pol in enumerate_policies(m):
        u = pol.decisions[(m.initial_state,)]
        v = eval_policy_recursive(m, crit, pol)
        if u not in best_by_action or v < best_by_action[u]:
            best_by_action[u] = v
    overall = min(best_by_action.values())
    return {u for u, v in best_by_action.items()
            if v <= overall + 1e-9 * max(1.0, abs(overall))}


def _with_cost(m: ModelSpec, cost: np.ndarray) -> ModelSpec:
    return ModelSpec(
        horizon=m.horizon, states=m.states, actions=m.actions,
        parameters=m.parameters, prior=m.prior, kernel=m.kernel,
        cost=cost, initial_state=m.initial_state, admissible=m.admissible,
    )


def test_c7_structural_invariances():
    for seed in range(10):
        m = random_instance(seed)
        g = build_reachable_belief_graph(m)
        rng = np.random.default_rng(4000 + seed)
        for crit in BOTH_CRITERIA:
            table, _ = solve_dp(m, crit, g)

            # shifting every first-stage cost moves the root by the shift
            shift = 0.75
            cost = np.array(m.cost)
            cost[0] += shift
            shifted = _with_cost(m, cost)
            table_s, _ = solve_dp(shifted, crit, build_reachable_belief_graph(shifted))
            assert abs(table_s.root_value - (table.root_value + shift)) <= 1e-12
            assert _root_argmin_set(shifted, crit) == _root_argmin_set(m, crit)

            # a pointwise cost increase cannot make the root smaller
            bump = rng.integers(0, 3, size=m.cost.shape).astype(float) * 0.5
            table_b, _ = solve_dp(_with_cost(m, m.cost + bump), crit,
                                  build_reachable_belief_graph(_with_cost(m, m.cost + bump)))
            assert table_b.root_value >= table.root_value - 1e-12

            # a parameter with zero prior mass changes nothing, bit for bit
            ghost = _append_zero_mass_parameter(m)
            g2 = build_reachable_belief_graph(ghost)
            table_g, qmp_g = solve_dp(ghost, crit, g2)
            _, qmp = solve_dp(m, crit, g)
            assert table_g.root_value == table.root_value
            suffix = ",0.0000000000"
            assert g2.ids == tuple(i + suffix for i in g.ids)
            assert table_g.values.tobytes() == table.values.tobytes()
            assert qmp_g.actions.tobytes() == qmp.actions.tobytes()


def _append_zero_mass_parameter(m: ModelSpec) -> ModelSpec:
    params = m.parameters + ("ghost",)
    prior = Belief(params, np.append(np.asarray(m.prior.weights), 0.0))
    kernel = np.concatenate([m.kernel, m.kernel[:1]], axis=0)
    cost = np.concatenate([m.cost, m.cost[..., :1]], axis=3)
    return ModelSpec(
        horizon=m.horizon, states=m.states, actions=m.actions, parameters=params,
        prior=prior, kernel=kernel, cost=cost, initial_state=m.initial_state,
        admissible=m.admissible,
    )


def _classical_dp(m: ModelSpec, crit) -> dict[int, dict[str, float]]:
    """Textbook finite-horizon recursion over (t, state) for a known kernel."""
    P = m.kernel[0]
    kappa = crit.describe().get("kappa")
    tables: dict[int, dict[str, float]] = {}
    nxt: dict[str, float] = {}
    for t in range(m.horizon, 0, -1):
        cur = {}
        for j, x in enumerate(m.states):
            best = None
            for u in m.admissible_actions(t, x):
                k = m.action_index(u)
                q = float(m.cost[t - 1, j, k, 0])
                if t < m.horizon:
                    if kappa is None:
                        q += sum(P[j, k, l] * nxt[y] for l, y in enumerate(m.states))
                    else:
                        z = sum(P[j, k, l] * math.exp(kappa * nxt[y])
                                for l, y in enumerate(m.states))
                        q += math.log(z) / kappa
                best = q if best is None else min(best, q)
            cur[x] = best
        tables[t] = cur
        nxt = cur
    return tables


def test_c8_known_parameter_reduces_to_classical_dp():
    for seed in range(10):
        m = random_instance(seed, n_params=1)
        g = build_reachable_belief_graph(m)
        for crit in BOTH_CRITERIA:
            table, _ = solve_dp(m, crit, g)
            classical = _classical_dp(m, crit)
            for node in g.nodes:
                want = classical[node.t][node.state]
                assert abs(table.values[node.ordinal] - want) <= 1e-12, (
                    f"seed {seed}, node {node.id}: {table.values[node.ordinal]!r} "
                    f"vs classical {want!r}")


def test_c9_dose_finding_workflow():
    m = gen_clinical_trials_model(doses=(1.0, 2.0, 3.0), theta_grid=(1.0, 2.0, 3.0),
                                  horizon=3)
    issues = validate_model(m)
    assert not any(i.severity == "error" for i in issues)

    started = time.monotonic()
    g = build_reachable_belief_graph(m)
    _, qmp = solve_dp(m, make_entropic(1.0), g)
    assert time.monotonic() - started < 5.0
    pol = to_history_policy(qmp, m)

    runs = 10_000
    for theta_star in m.parameters:
        trajs = simulate_runs(m, pol, theta_star, runs=runs, seed=314)
        mass = np.array([[tr.beliefs[t].mass(theta_star) for t in range(3)]
                         for tr in trajs])
        # learning: posterior mass on the truth drifts up, stage over stage
        for t in range(2):
            diff = mass[:, t + 1] - mass[:, t]
            se = float(diff.std(ddof=1)) / math.sqrt(runs)
            assert float(diff.mean()) >= -2.0 * se, (
                f"theta*={theta_star}, t={t + 1}->{t + 2}: "
                f"mean diff {diff.mean():.6g}, se {se:.3g}")

    again = simulate_runs(m, pol, m.parameters[0], runs=500, seed=99)
    once = simulate_runs(m, pol, m.parameters[0], runs=500, seed=99)
    assert trajectories_to_csv(once, m) == trajectories_to_csv(again, m)
