"""The run-vectorised rollout against the per-run reference loop, and the
Philox array kernel against numpy's Philox.

The reference is the rollout the vectorised one replaced: one generator,
one policy step, one inverse-CDF draw and one Bayes update per run and
step, with runs rolled one after another. Given a quasi-Markov policy, the
reference rolls its unfolded history policy. Its CSV and summary are
written by the reference writers, which format every run's rows and read
every run's values, where the library formats each distinct trajectory
object once. CSV and summary bytes, and the error raised when runs fail,
must be the same.

The kernel's reference is the draw loop it replaced, which re-keys one
numpy Philox generator per run.
"""

import copy
import csv
import dataclasses
import io
import json
import tracemalloc
from typing import Sequence

import numpy as np
import pytest

from riskmdp import (
    Belief,
    DomainError,
    HistoryPolicy,
    ModelSpec,
    ZeroProbabilityObservation,
    bayes_update,
    build_reachable_belief_graph,
    gen_clinical_trials_model,
    make_entropic,
    parse_model,
    parse_policy,
    policy_to_json,
    simulate_runs,
    solve_dp,
    summarize,
    summary_to_json,
    to_history_policy,
    trajectories_to_csv,
)
from riskmdp.engine import _policy_step
from riskmdp.sim import _CHUNK_RUNS, Trajectory, _run_uniforms

from conftest import DATA, random_instance, random_policy, sparse_response
from test_belief import BAD_KERNEL_ROWS, INF_PAIR, with_s0_a0_rows, zero_weight_meets_inf


def _run_generator(seed: int, run: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, run], dtype=np.uint64)))


def _draw_state(rng: np.random.Generator, probs: np.ndarray, states: Sequence[str]) -> str:
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    u = rng.random()
    return states[int(np.searchsorted(cdf, u, side="right"))]


def reference_simulate_runs(m, pol: HistoryPolicy, theta_star: str, runs: int, seed: int) -> list[Trajectory]:
    i_star = m.param_index(theta_star)
    if runs < 1:
        raise DomainError(f"runs must be >= 1, got {runs}")
    out: list[Trajectory] = []
    for r in range(runs):
        rng = _run_generator(seed, r)
        hist: tuple[str, ...] = (m.initial_state,)
        xi = m.prior
        beliefs: list[Belief] = []
        actions: list[str] = []
        costs: list[float] = []
        for t in range(1, m.horizon + 1):
            x = hist[-1]
            u, j, k = _policy_step(m, pol, hist)
            beliefs.append(xi)
            actions.append(u)
            costs.append(float(m.cost[t - 1, j, k, i_star]))
            row = m.kernel[i_star, j, k]
            y = _draw_state(rng, row, m.states)
            xi = bayes_update(m, xi, x, u, y)
            hist = hist + (y,)
        out.append(Trajectory(
            states=hist,
            actions=tuple(actions),
            beliefs=tuple(beliefs),
            true_costs=tuple(costs),
            total_true_cost=float(sum(costs)),
        ))
    return out


def reference_summarize(trajectories: Sequence[Trajectory], theta_star: str) -> dict:
    """Per-stage means of realized cost and of the posterior mass on theta_star,
    plus the mean and standard deviation of the total realized cost."""
    if not trajectories:
        raise DomainError("summarize needs at least one trajectory")
    horizon = len(trajectories[0].actions)
    per_t = []
    for t in range(1, horizon + 1):
        costs = np.array([tr.true_costs[t - 1] for tr in trajectories])
        mass = np.array([tr.beliefs[t - 1].mass(theta_star) for tr in trajectories])
        per_t.append({
            "t": t,
            "mean_true_cost": float(costs.mean()),
            "mean_posterior_theta_star": float(mass.mean()),
        })
    totals = np.array([tr.total_true_cost for tr in trajectories])
    return {
        "theta_star": theta_star,
        "runs": len(trajectories),
        "per_t": per_t,
        "total_mean": float(totals.mean()),
        "total_std": float(totals.std(ddof=0)),
    }


def reference_trajectories_to_csv(trajectories: Sequence[Trajectory], m: ModelSpec) -> str:
    """One row per (run, t): run, t, state, action, true_cost, then belief columns."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["run", "t", "state", "action", "true_cost"]
                    + [f"belief_{p}" for p in m.parameters])
    for r, tr in enumerate(trajectories):
        for t in range(1, len(tr.actions) + 1):
            writer.writerow(
                [r, t, tr.states[t - 1], tr.actions[t - 1], repr(tr.true_costs[t - 1])]
                + [repr(float(w)) for w in tr.beliefs[t - 1].weights])
    return buf.getvalue()


# A rollout and the writers of its CSV and summary.
REFERENCE = (reference_simulate_runs, reference_trajectories_to_csv, reference_summarize)
CURRENT = (simulate_runs, trajectories_to_csv, summarize)


def written(writers, trajs, m, theta_star):
    """The CSV and summary bytes that writers (a REFERENCE or CURRENT triple) make of trajs."""
    _, to_csv, summary = writers
    return to_csv(trajs, m), summary_to_json(summary(trajs, theta_star))


def outcome(m, side, pol, theta_star, runs, seed):
    """CSV and summary bytes of side's rollout, written by side's writers,
    or the type and message of its error."""
    try:
        trajs = side[0](m, pol, theta_star, runs, seed)
    except (DomainError, ZeroProbabilityObservation) as e:
        return type(e), str(e)
    return written(side, trajs, m, theta_star)


def assert_matches_reference(m, pol, runs, seed):
    """Both policy kinds, when pol is quasi-Markov, under every theta*."""
    unfolded = to_history_policy(pol, m) if not isinstance(pol, HistoryPolicy) else pol
    for theta in m.parameters:
        want = outcome(m, REFERENCE, unfolded, theta, runs, seed)
        assert outcome(m, CURRENT, unfolded, theta, runs, seed) == want
        if pol is not unfolded:
            assert outcome(m, CURRENT, pol, theta, runs, seed) == want


def solved(m):
    return solve_dp(m, make_entropic(1.0), build_reachable_belief_graph(m))[1]


def test_sample_model(sample_model):
    assert_matches_reference(sample_model, solved(sample_model), runs=300, seed=4)


def test_negative_zero_kernel_entry():
    # The -0.0 weight it leaves in the posterior prints as "-0.0".
    doc = json.loads((DATA / "sample_model.json").read_text())
    doc["kernel"]["th1"]["s0"]["a0"] = {"s0": 1.0, "s1": -0.0}
    doc["kernel"]["th2"]["s0"]["a0"] = {"s0": 0.5, "s1": 0.5}
    m = parse_model(json.dumps(doc))
    pol = HistoryPolicy({("s0",): "a0", ("s0", "s0"): "a0", ("s0", "s1"): "a0"})
    trajs = simulate_runs(m, pol, "th2", runs=20, seed=0)
    assert "-0.0" in trajectories_to_csv(trajs, m)
    assert_matches_reference(m, pol, runs=50, seed=0)
    assert_matches_reference(m, solved(m), runs=50, seed=0)


@pytest.mark.parametrize("response, horizon",
                         [pytest.param(None, T, id=str(T)) for T in (3, 4, 5, 6)]
                         + [pytest.param(sparse_response, T, id=f"sparse-{T}") for T in (3, 5, 7)])
def test_dose_finding(response, horizon):
    # Many beliefs merge into one node here, so the trace must be each run's
    # own incremental posterior, not the node's stored weights. Under
    # sparse_response, runs rule parameters out, leaving zero weights in the trace.
    m = gen_clinical_trials_model(doses=(1, 2, 3, 4), theta_grid=(1, 2, 3), horizon=horizon, response=response)
    assert_matches_reference(m, solved(m), runs=200, seed=horizon)


@pytest.mark.parametrize("seed", range(20))
def test_random_instance(seed):
    m = random_instance(seed)
    assert_matches_reference(m, random_policy(m, np.random.default_rng(seed)), runs=40, seed=seed)
    assert_matches_reference(m, solved(m), runs=40, seed=seed)


@pytest.mark.parametrize("seed", range(2))
def test_wide_random_instance(seed):
    # Six states over five steps: most runs reach a history no other run shares.
    m = random_instance(seed, n_states=6, n_actions=2, n_params=3, horizon=5)
    assert_matches_reference(m, random_policy(m, np.random.default_rng(seed)), runs=300, seed=seed)
    assert_matches_reference(m, solved(m), runs=300, seed=seed)


# The Philox kernel


def reference_run_uniforms(seed: int, runs: int, horizon: int) -> np.ndarray:
    """Row r holds the first `horizon` doubles of the Philox stream keyed by (seed, r).

    One generator is re-keyed for each run: a fresh state (zero counter,
    empty buffer) under key (seed, r) yields the same stream as a new
    Philox(key=(seed, r)), without the cost of constructing one per run.
    """
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bits)
    fresh = bits.state
    out = np.empty((runs, horizon))
    for r in range(runs):
        fresh["state"]["key"] = np.array([seed, r], dtype=np.uint64)
        bits.state = fresh
        out[r] = gen.random(horizon)
    return out


def fresh_run_uniforms(seed: int, runs: int, horizon: int) -> np.ndarray:
    """The same rows, each drawn from a new Philox(key=(seed, r))."""
    return np.array([_run_generator(seed, r).random(horizon) for r in range(runs)]).reshape(runs, horizon)


# Key words at the edges of 32 and 64 bits, and drawn ones.
KEY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1] + [
    int(s) for s in np.random.default_rng(2011).integers(0, 2**64 - 1, size=20, dtype=np.uint64, endpoint=True)]
# Horizons 0-13 cross the 4-word block edges at 4, 8 and 12.
HORIZONS = range(14)


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_kernel_matches_numpy_philox(seed):
    for runs in (1, 7):
        full = fresh_run_uniforms(seed, runs, HORIZONS[-1])
        for horizon in HORIZONS:
            got = _run_uniforms(seed, runs, horizon)
            assert got.shape == (runs, horizon)
            want = fresh_run_uniforms(seed, runs, horizon).tobytes()
            assert got.tobytes() == want == reference_run_uniforms(seed, runs, horizon).tobytes()
            assert full[:, :horizon].tobytes() == want


@pytest.mark.parametrize("runs", [5000, 2 * _CHUNK_RUNS + 3], ids=["5000", "past-chunk"])
@pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1, KEY_SEEDS[6]])
def test_kernel_matches_numpy_philox_over_many_runs(seed, runs):
    # Rows past the first chunk test each chunk's run offset. The shorter
    # horizons are prefixes of the longest, as test_kernel_matches_numpy_philox checks.
    full = reference_run_uniforms(seed, runs, HORIZONS[-1])
    assert fresh_run_uniforms(seed, runs, HORIZONS[-1]).tobytes() == full.tobytes()
    for horizon in HORIZONS:
        assert _run_uniforms(seed, runs, horizon).tobytes() == full[:, :horizon].tobytes()


def test_kernel_memory_is_bounded():
    # Runs are drawn a chunk at a time, so the kernel's temporaries stay
    # small next to its output.
    tracemalloc.start()
    try:
        out = _run_uniforms(0, 200_000, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes


def test_one_draw_call_equals_sequential_draws():
    for seed, horizon in ((0, 1), (3, 6), (2**40 + 5, 11)):
        batched = _run_uniforms(seed, 7, horizon)
        for r in range(7):
            one = _run_generator(seed, r).random(horizon)
            rng = _run_generator(seed, r)
            assert one.tobytes() == np.array([rng.random() for _ in range(horizon)]).tobytes()
            assert batched[r].tobytes() == one.tobytes()


# Writers

# Labels the CSV must quote (a comma, a quote, a line break) or must not
# (spaces, a tab, non-ASCII, the empty label).
LABELS = ("s0", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "crlf\r\nx", " spaced ", "tab\tx", "dosé", "θ★", "", "'")
# Signed zeros, the least subnormal, and a cost whose sums overflow.
COSTS = (0.0, -0.0, 5e-324, 1e308, 0.25, 1 / 3, 2.0)
PARAMS = ("th,1", 'th"2', "θ 3")


def fuzzed_trajectories(rng: np.random.Generator, horizon: int, n: int) -> list[Trajectory]:
    """n caller-built trajectories over PARAMS, each its own object."""
    def label() -> str:
        return LABELS[rng.integers(len(LABELS))]

    def belief() -> Belief:
        if rng.random() < 0.2:  # a point mass that keeps a -0.0 weight
            return Belief(PARAMS, rng.permutation([1.0, -0.0, 0.0]))
        return Belief(PARAMS, rng.dirichlet(np.ones(len(PARAMS))))

    out = []
    for _ in range(n):
        costs = tuple(float(COSTS[i]) for i in rng.integers(len(COSTS), size=horizon))
        out.append(Trajectory(states=tuple(label() for _ in range(horizon + 1)),
                              actions=tuple(label() for _ in range(horizon)),
                              beliefs=tuple(belief() for _ in range(horizon)),
                              true_costs=costs, total_true_cost=float(sum(costs))))
    return out


@pytest.mark.parametrize("seed", range(40))
def test_writers_match_reference(seed):
    # The library formats and reads each distinct trajectory object once;
    # the bytes must be those of formatting and reading every run. Means
    # over 1e308 costs overflow the same way on both sides.
    rng = np.random.default_rng(seed)
    m = dataclasses.replace(random_instance(0, n_params=3), parameters=PARAMS, prior=Belief.uniform(PARAMS))
    horizon = int(rng.integers(0, 5))
    shared = fuzzed_trajectories(rng, horizon, int(rng.integers(1, 6)))
    runs = int(rng.integers(2, 60))
    cases = {
        "shared objects": [shared[i] for i in rng.integers(len(shared), size=runs)],
        "distinct objects": fuzzed_trajectories(rng, horizon, runs),
        "one run": shared[:1],
    }
    cases["equal copies"] = [copy.copy(tr) if rng.random() < 0.5 else tr for tr in cases["shared objects"]]
    theta_star = PARAMS[rng.integers(len(PARAMS))]
    for name, trajs in cases.items():
        with np.errstate(over="ignore", invalid="ignore"):
            want = written(REFERENCE, trajs, m, theta_star)
            assert written(CURRENT, trajs, m, theta_star) == want, name


# Error parity


def ruled_out_model(sample_model):
    """The sample model with th1 staying at s0 from s0 and a point-mass prior on th1.

    Under theta* = th2 the chain can reach s1, which the belief has ruled out.
    """
    kernel = np.array(sample_model.kernel)
    kernel[0, 0, :] = [1.0, 0.0]
    return dataclasses.replace(sample_model, kernel=kernel,
                               prior=Belief.point_mass(sample_model.parameters, "th1"))


def test_theta_star_outside_prior_support(sample_model):
    m = ruled_out_model(sample_model)
    pol = HistoryPolicy({("s0",): "a0", ("s0", "s0"): "a0", ("s0", "s1"): "a0"})
    want = (ZeroProbabilityObservation,
            "observation (s0, a0) -> s1 has zero probability under the current belief")
    assert outcome(m, REFERENCE, pol, "th2", 20, 0) == want
    assert outcome(m, CURRENT, pol, "th2", 20, 0) == want
    assert_matches_reference(m, solved(m), runs=20, seed=0)


@pytest.mark.parametrize("rows, theta_star",
                         [pytest.param((row, [0.7, 0.3]), "th2", id=f"row{i}") for i, row in enumerate(BAD_KERNEL_ROWS)]
                         + [pytest.param(INF_PAIR, "th1", id="inf_pair")])
def test_invalid_kernel_entry(sample_model, rows, theta_star):
    # The rollout must reject the posterior such an entry makes when a run
    # observes s1 (under th2) or s0 (under th1, where the unnormalized
    # posterior sums to NaN).
    m = with_s0_a0_rows(sample_model, rows)
    pol = HistoryPolicy({("s0",): "a0", ("s0", "s0"): "a0", ("s0", "s1"): "a0"})
    seen = set()
    for seed in range(10):
        want = outcome(m, REFERENCE, pol, theta_star, 10, seed)
        assert outcome(m, CURRENT, pol, theta_star, 10, seed) == want
        seen.add(want[:2])
    assert (DomainError, "belief weights must be finite and nonnegative") in seen


@pytest.mark.parametrize("model, theta_star", [
    pytest.param(lambda m: with_s0_a0_rows(m, ([np.inf, -np.inf], [0.7, 0.3])), "th1", id="nan_cdf"),
    pytest.param(zero_weight_meets_inf, "th2", id="zero_weight_times_inf"),
])
def test_invalid_kernel_entry_without_warning(sample_model, model, theta_star):
    # theta*'s draw CDF [inf, nan] and the posterior weight 0 * inf are NaN;
    # the weight check must reject the posterior before any RuntimeWarning
    # (which pytest turns into an error).
    m = model(sample_model)
    with pytest.raises(DomainError, match="^belief weights must be finite and nonnegative$"):
        simulate_runs(m, HistoryPolicy({("s0",): "a0", ("s0", "s0"): "a0", ("s0", "s1"): "a0"}),
                      theta_star, runs=10, seed=0)


def test_lowest_failing_run_is_reported(sample_model):
    # A run fails at t=1 when it draws s1 under a0 (u >= 0.7), and at t=2
    # when it draws s1 under a1 (u >= 0.5). The per-run loop reports the
    # lowest-index failing run, even when a later run failed at an earlier step.
    m = ruled_out_model(sample_model)
    pol = HistoryPolicy({("s0",): "a0", ("s0", "s0"): "a1"})
    messages = {1: "observation (s0, a0) -> s1 has zero probability under the current belief",
                2: "observation (s0, a1) -> s1 has zero probability under the current belief"}
    runs = 6
    later_run_failed_earlier = 0
    for seed in range(40):
        fates = []
        for r in range(runs):
            u = _run_generator(seed, r).random(2)
            fates.append(1 if u[0] >= 0.7 else 2 if u[1] >= 0.5 else None)
        failing = [f for f in fates if f is not None]
        want = outcome(m, REFERENCE, pol, "th2", runs, seed)
        assert outcome(m, CURRENT, pol, "th2", runs, seed) == want
        if failing:
            assert want == (ZeroProbabilityObservation, messages[failing[0]])
            later_run_failed_earlier += failing[0] == 2 and 1 in failing
    assert later_run_failed_earlier >= 3


def test_inadmissible_action_in_quasi_markov_table(sample_model):
    # parse_policy does not check admissibility, so the rollout must.
    adm = np.array(sample_model.admissible)
    adm[1, 1, 0] = False  # a0 not admissible at (t=2, s1)
    m = dataclasses.replace(sample_model, admissible=adm)
    graph = build_reachable_belief_graph(m)
    doc = policy_to_json(solve_dp(m, make_entropic(1.0), graph)[1])
    doc["table"] = {node_id: "a0" for node_id in doc["table"]}
    pol = parse_policy(doc, m, graph)
    want = outcome(m, REFERENCE, to_history_policy(pol, m), "th1", 10, 0)
    assert want == (DomainError, "policy action 'a0' not admissible at (t=2, s1)")
    assert outcome(m, CURRENT, pol, "th1", 10, 0) == want


def test_missing_quasi_markov_decision(sample_model):
    graph = build_reachable_belief_graph(sample_model)
    doc = policy_to_json(solved(sample_model))
    child = graph.child(graph.root, doc["table"][graph.root.id], "s1")
    del doc["table"][child.id]
    pol = parse_policy(doc, sample_model, graph)
    want = (DomainError, f"policy has no decision for belief node {child.id!r}")
    assert outcome(sample_model, CURRENT, pol, "th1", 10, 0) == want
    with pytest.raises(DomainError, match="policy has no decision for belief node"):
        to_history_policy(pol, sample_model)


def test_normalization_failure():
    # Under the uniform prior, observing s1 gives the posterior row
    # 0.2 * lik, which _normalize_exact cannot normalize (ROADMAP item 2).
    # A run that observes s0 instead fails at t=2, where the policy has no
    # decision. Run 0 always fails, so its error is the one raised, also
    # when it fails at t=2 and a later run failed at t=1.
    lik = np.array([0.0014417932785056994, 0.9390575809347522, 0.0003407419340304435,
                    0.010924200977045308, 0.003685219796023399])
    params = tuple(f"th{i}" for i in range(5))
    kernel = np.zeros((5, 2, 1, 2))
    kernel[:, :, 0, 1] = lik[:, None]
    kernel[:, :, 0, 0] = 1.0 - lik[:, None]
    m = ModelSpec(horizon=2, states=("s0", "s1"), actions=("a",), parameters=params,
                  prior=Belief.uniform(params), kernel=kernel, cost=np.zeros((2, 2, 1, 5)),
                  initial_state="s0")
    pol = HistoryPolicy({("s0",): "a", ("s0", "s1"): "a"})
    errors = {True: (DomainError, "normalization did not converge"),
              False: (DomainError, "policy has no decision for history ('s0', 's0')")}
    later_run_failed_earlier = 0
    for seed in range(100):
        to_s1 = [_run_generator(seed, r).random() >= kernel[1, 0, 0, 0] for r in range(10)]
        want = outcome(m, REFERENCE, pol, "th1", 10, seed)
        assert want == errors[to_s1[0]]
        assert outcome(m, CURRENT, pol, "th1", 10, seed) == want
        later_run_failed_earlier += not to_s1[0] and any(to_s1)
    assert later_run_failed_earlier >= 2

