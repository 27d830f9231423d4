"""Rollout semantics, reproducibility, and CSV export.

Frequency checks compare against hand-computed probabilities with explicit
3-sigma (or 3-standard-error) slack; the generator is counter-based, so a
fixed seed makes every assertion deterministic in practice.
"""

import csv
import io
import json
import math

import numpy as np
import pytest

from riskmdp import (
    DomainError,
    HistoryPolicy,
    ModelSpec,
    eval_policy_paths,
    make_expectation,
    posterior_from_history,
    simulate_runs,
    summarize,
    summary_to_json,
    trajectories_to_csv,
)

from conftest import random_instance, random_policy


def all_a0_policy() -> HistoryPolicy:
    return HistoryPolicy({
        ("s0",): "a0", ("s0", "s0"): "a0", ("s0", "s1"): "a0",
    })


class TestRolloutSemantics:
    def test_shapes(self, sample_model):
        trajs = simulate_runs(sample_model, all_a0_policy(), "th1", runs=5, seed=0)
        assert len(trajs) == 5
        for tr in trajs:
            assert len(tr.states) == 3
            assert len(tr.actions) == 2
            assert len(tr.beliefs) == 2
            assert len(tr.true_costs) == 2
            assert tr.total_true_cost == float(sum(tr.true_costs))
            assert tr.states[0] == "s0"
            assert tr.actions == ("a0", "a0")

    def test_belief_trace_is_the_running_posterior(self, sample_model):
        trajs = simulate_runs(sample_model, all_a0_policy(), "th2", runs=6, seed=9)
        for tr in trajs:
            for t in range(1, 3):
                want = posterior_from_history(
                    sample_model, tr.states[:t], tr.actions[: t - 1])
                got = tr.beliefs[t - 1]
                assert np.all(np.abs(got.weights - want.weights) <= 1e-12)

    def test_true_costs_charged_at_theta_star(self, sample_model):
        # under a0 the stage-1 cost at s0 is 1 for th1 and 0 for th2,
        # regardless of where the chain goes
        for theta, want in (("th1", 1.0), ("th2", 0.0)):
            trajs = simulate_runs(sample_model, all_a0_policy(), theta, runs=4, seed=2)
            for tr in trajs:
                assert tr.true_costs[0] == want

    def test_single_parameter_beliefs_stay_point_mass(self):
        m = random_instance(3, n_params=1)
        pol = random_policy(m, np.random.default_rng(5))
        for tr in simulate_runs(m, pol, m.parameters[0], runs=3, seed=1):
            for b in tr.beliefs:
                assert float(b.weights[0]) == 1.0

    def test_inadmissible_policy_action(self, sample_model):
        adm = np.array(sample_model.admissible)
        adm[0, 0, 0] = False
        m = ModelSpec(
            horizon=2, states=sample_model.states, actions=sample_model.actions,
            parameters=sample_model.parameters, prior=sample_model.prior,
            kernel=sample_model.kernel, cost=sample_model.cost,
            initial_state="s0", admissible=adm,
        )
        with pytest.raises(DomainError, match="not admissible"):
            simulate_runs(m, all_a0_policy(), "th1", runs=1, seed=0)

    def test_bad_arguments(self, sample_model):
        with pytest.raises(DomainError):
            simulate_runs(sample_model, all_a0_policy(), "th1", runs=0, seed=0)
        with pytest.raises(DomainError):
            simulate_runs(sample_model, all_a0_policy(), "never", runs=1, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, True, 1.0], ids=["negative", "2**64", "bool", "float"])
    def test_seed_outside_the_philox_key_range(self, sample_model, seed):
        # Each run's key is (seed, run) in uint64 words, so the seed must be an integer in [0, 2**64).
        with pytest.raises(DomainError, match=r"^seed must be an integer in \[0, 2\*\*64\), got "):
            simulate_runs(sample_model, all_a0_policy(), "th1", runs=3, seed=seed)

    def test_largest_seed(self, sample_model):
        for seed in (2**64 - 1, np.uint64(2**64 - 1)):
            assert len(simulate_runs(sample_model, all_a0_policy(), "th1", runs=3, seed=seed)) == 3


class TestFrequencies:
    def test_transition_frequency_three_sigma(self, sample_model):
        # from s0 under a0 the th1 kernel moves to s1 with probability 0.9
        n = 2000
        trajs = simulate_runs(sample_model, all_a0_policy(), "th1", runs=n, seed=3)
        freq = sum(tr.states[1] == "s1" for tr in trajs) / n
        slack = 3.0 * math.sqrt(0.9 * 0.1 / n)
        assert abs(freq - 0.9) <= slack

    def test_mean_total_cost_three_se(self, sample_model):
        # under th1 with a0 everywhere: stage 1 costs 1 at s0; stage 2 costs
        # 2 if the chain stayed in s0 (prob 0.1) else 0.  mean 1.2, sd 0.6.
        n = 20000
        trajs = simulate_runs(sample_model, all_a0_policy(), "th1", runs=n, seed=11)
        totals = np.array([tr.total_true_cost for tr in trajs])
        assert abs(float(totals.mean()) - 1.2) <= 3.0 * 0.6 / math.sqrt(n)

    def test_prior_mixture_of_true_means_is_the_expected_value(self, sample_model):
        # E[total | th1] = 1 + 0.1 * 2 = 1.2 and E[total | th2] = 0.3 * 2 = 0.6;
        # averaging under the uniform prior gives the expectation-criterion value
        mixture = 0.5 * 1.2 + 0.5 * 0.6
        value = eval_policy_paths(sample_model, make_expectation(), all_a0_policy())
        assert abs(mixture - value) <= 1e-12

    def test_posterior_concentrates_on_the_truth(self, sample_model):
        # acting at t=2 the posterior mass on th1 is 0.75 after seeing s1
        # (prob 0.9) and 0.125 after s0 (prob 0.1): mean 0.6875, sd 0.1875
        n = 4000
        trajs = simulate_runs(sample_model, all_a0_policy(), "th1", runs=n, seed=17)
        mass = np.array([tr.beliefs[1].mass("th1") for tr in trajs])
        assert abs(float(mass.mean()) - 0.6875) <= 3.0 * 0.1875 / math.sqrt(n)


class TestReproducibility:
    def test_same_seed_same_trajectories(self, sample_model):
        a = simulate_runs(sample_model, all_a0_policy(), "th1", runs=20, seed=42)
        b = simulate_runs(sample_model, all_a0_policy(), "th1", runs=20, seed=42)
        assert a == b

    def test_runs_within_a_seed_differ(self, sample_model):
        trajs = simulate_runs(sample_model, all_a0_policy(), "th1", runs=50, seed=0)
        assert len({tr.states for tr in trajs}) > 1

    def test_different_seeds_differ(self, sample_model):
        a = simulate_runs(sample_model, all_a0_policy(), "th1", runs=50, seed=1)
        b = simulate_runs(sample_model, all_a0_policy(), "th1", runs=50, seed=2)
        assert [tr.states for tr in a] != [tr.states for tr in b]


class TestSummaries:
    def test_summary_fields(self, sample_model):
        trajs = simulate_runs(sample_model, all_a0_policy(), "th1", runs=100, seed=5)
        s = summarize(trajs, "th1")
        assert s["theta_star"] == "th1"
        assert s["runs"] == 100
        assert [row["t"] for row in s["per_t"]] == [1, 2]
        # stage 1 is deterministic: state s0, action a0, cost 1, prior mass 0.5
        assert s["per_t"][0]["mean_true_cost"] == 1.0
        assert s["per_t"][0]["mean_posterior_theta_star"] == 0.5
        totals = np.array([tr.total_true_cost for tr in trajs])
        assert s["total_mean"] == float(totals.mean())
        assert s["total_std"] == float(totals.std(ddof=0))

    def test_summary_json_round_trip(self, sample_model):
        trajs = simulate_runs(sample_model, all_a0_policy(), "th2", runs=10, seed=5)
        s = summarize(trajs, "th2")
        assert json.loads(summary_to_json(s)) == s

    def test_summary_requires_trajectories(self):
        with pytest.raises(DomainError):
            summarize([], "th1")


class TestCsv:
    def test_header_and_first_row(self, sample_model):
        trajs = simulate_runs(sample_model, all_a0_policy(), "th1", runs=3, seed=0)
        text = trajectories_to_csv(trajs, sample_model)
        lines = text.splitlines()
        assert lines[0] == "run,t,state,action,true_cost,belief_th1,belief_th2"
        assert lines[1] == "0,1,s0,a0,1.0,0.5,0.5"
        assert len(lines) == 1 + 3 * 2

    def test_byte_identical_on_rerun(self, sample_model):
        a = trajectories_to_csv(
            simulate_runs(sample_model, all_a0_policy(), "th1", runs=25, seed=8),
            sample_model)
        b = trajectories_to_csv(
            simulate_runs(sample_model, all_a0_policy(), "th1", runs=25, seed=8),
            sample_model)
        assert a == b

    def test_floats_round_trip_exactly(self, sample_model):
        trajs = simulate_runs(sample_model, all_a0_policy(), "th2", runs=4, seed=13)
        rows = list(csv.reader(io.StringIO(trajectories_to_csv(trajs, sample_model))))
        assert rows[0][5:] == ["belief_th1", "belief_th2"]
        for row in rows[1:]:
            r, t = int(row[0]), int(row[1])
            tr = trajs[r]
            assert row[2] == tr.states[t - 1]
            assert row[3] == tr.actions[t - 1]
            assert float(row[4]) == tr.true_costs[t - 1]
            w = tr.beliefs[t - 1].weights
            assert float(row[5]) == float(w[0])
            assert float(row[6]) == float(w[1])
