"""Command-line front end: exit codes, payload shapes, reproducibility.

Everything runs in-process through run_cli so coverage tools see it; one
subprocess test confirms the module entry point wires up the same way.
"""

import json
import math
import subprocess
import sys

import pytest

from riskmdp import (
    HistoryPolicy,
    build_reachable_belief_graph,
    make_entropic,
    policy_to_json,
    serialize_model,
    solve_dp,
)
from riskmdp.cli import run_cli

from conftest import DATA
from test_sim_reference import ruled_out_model

MODEL = str(DATA / "sample_model.json")
ENTROPIC = '{"type": "entropic", "kappa": 1.0}'
EXPECTATION = '{"type": "expectation"}'


def all_a0_policy_doc() -> dict:
    return policy_to_json(HistoryPolicy({
        ("s0",): "a0", ("s0", "s0"): "a0", ("s0", "s1"): "a0",
    }))


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


class TestValidate:
    def test_valid_model(self, capsys):
        assert run_cli(["validate", "--model", MODEL]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"valid": True, "issues": []}

    def test_invalid_model_reports_issues(self, tmp_path, capsys):
        doc = json.loads(DATA.joinpath("sample_model.json").read_text())
        doc["initial_state"] = "nowhere"
        bad = write_json(tmp_path / "bad.json", doc)
        assert run_cli(["validate", "--model", bad]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is False
        assert any(i["severity"] == "error" for i in report["issues"])

    def test_malformed_json_is_invalid_input(self, tmp_path, capsys):
        bad = tmp_path / "mangled.json"
        bad.write_text("{not json")
        assert run_cli(["validate", "--model", str(bad)]) == 1
        assert "invalid input" in capsys.readouterr().err

    def test_schema_hole_is_invalid_input(self, tmp_path, capsys):
        doc = json.loads(DATA.joinpath("sample_model.json").read_text())
        doc["admissible"]["1"]["s0"] = [["a0"]]
        bad = write_json(tmp_path / "bad.json", doc)
        assert run_cli(["validate", "--model", bad]) == 1
        assert "invalid input" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert run_cli(["validate", "--model", str(tmp_path / "gone.json")]) == 2
        assert "usage error" in capsys.readouterr().err


class TestSolve:
    def test_entropic_solve_writes_table_and_policy(self, tmp_path, capsys, sample_model):
        out = tmp_path / "table.json"
        polf = tmp_path / "policy.json"
        rc = run_cli(["solve", "--model", MODEL, "--criterion", ENTROPIC,
                      "--out", str(out), "--policy", str(polf)])
        assert rc == 0
        assert "nodes" in capsys.readouterr().err  # progress goes to stderr
        doc = json.loads(out.read_text())
        # hand recursion for the two-stage example
        v1 = math.log(0.125 * math.exp(2.0) + 0.875)
        v2 = math.log(0.75 + 0.25 * math.exp(2.0))
        f1 = 1.0 + math.log(0.1 * math.exp(v1) + 0.9 * math.exp(v2))
        f2 = math.log(0.7 * math.exp(v1) + 0.3 * math.exp(v2))
        want = math.log(0.5 * math.exp(f1) + 0.5 * math.exp(f2))
        assert abs(doc["root_value"] - want) < 1e-12
        assert len(doc["nodes"]) == 5
        pol = json.loads(polf.read_text())
        assert pol["type"] == "quasi_markov"
        assert len(pol["table"]) == 5

    def test_solve_matches_library_call(self, tmp_path, sample_model, capsys):
        out = tmp_path / "table.json"
        assert run_cli(["solve", "--model", MODEL, "--criterion", ENTROPIC,
                        "--out", str(out)]) == 0
        capsys.readouterr()
        g = build_reachable_belief_graph(sample_model)
        table, _ = solve_dp(sample_model, make_entropic(1.0), g)
        assert json.loads(out.read_text())["root_value"] == table.root_value

    def test_solve_reruns_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["solve", "--model", MODEL, "--criterion", ENTROPIC,
                        "--out", str(a)]) == 0
        assert run_cli(["solve", "--model", MODEL, "--criterion", ENTROPIC,
                        "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_criterion_from_file(self, tmp_path, capsys):
        crit = tmp_path / "crit.json"
        crit.write_text(ENTROPIC)
        out = tmp_path / "out.json"
        assert run_cli(["solve", "--model", MODEL, "--criterion", str(crit),
                        "--out", str(out)]) == 0
        capsys.readouterr()
        assert "root_value" in json.loads(out.read_text())

    def test_node_cap_exit_code(self, capsys):
        assert run_cli(["solve", "--model", MODEL, "--criterion", ENTROPIC,
                        "--node-cap", "2"]) == 3
        assert "cap exceeded" in capsys.readouterr().err


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert run_cli([]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["conquer"]) == 2

    def test_missing_required_flag(self, capsys):
        assert run_cli(["solve", "--model", MODEL]) == 2

    def test_criterion_repeated(self, capsys):
        assert run_cli(["solve", "--model", MODEL, "--criterion", ENTROPIC,
                        "--criterion", EXPECTATION]) == 2
        assert "more than once" in capsys.readouterr().err

    def test_nonpositive_kappa(self, capsys):
        assert run_cli(["solve", "--model", MODEL, "--criterion",
                        '{"type": "entropic", "kappa": -1}']) == 2
        assert "kappa > 0" in capsys.readouterr().err

    def test_unknown_criterion_type(self, capsys):
        assert run_cli(["solve", "--model", MODEL, "--criterion",
                        '{"type": "quantile"}']) == 1
        assert "invalid input" in capsys.readouterr().err


class TestEvaluateAndOracle:
    def test_evaluate_history_policy(self, tmp_path, capsys):
        polf = write_json(tmp_path / "pol.json", all_a0_policy_doc())
        assert run_cli(["evaluate", "--model", MODEL, "--criterion", EXPECTATION,
                        "--policy", polf]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["value"] - 0.9) < 1e-12
        assert doc["criterion"] == {"type": "expectation"}

    def test_evaluate_solved_quasi_markov_policy(self, tmp_path, capsys):
        table_f = tmp_path / "table.json"
        pol_f = tmp_path / "pol.json"
        assert run_cli(["solve", "--model", MODEL, "--criterion", ENTROPIC,
                        "--out", str(table_f), "--policy", str(pol_f)]) == 0
        capsys.readouterr()
        assert run_cli(["evaluate", "--model", MODEL, "--criterion", ENTROPIC,
                        "--policy", str(pol_f)]) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        root = json.loads(table_f.read_text())["root_value"]
        assert abs(value - root) < 1e-12

    def test_oracle_agrees_with_solver(self, tmp_path, capsys):
        for crit in (EXPECTATION, ENTROPIC):
            table_f = tmp_path / "t.json"
            assert run_cli(["solve", "--model", MODEL, "--criterion", crit,
                            "--out", str(table_f)]) == 0
            capsys.readouterr()
            assert run_cli(["oracle", "--model", MODEL, "--criterion", crit]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert abs(doc["value"] - json.loads(table_f.read_text())["root_value"]) <= 1e-9
            assert doc["policy"]["type"] == "history"


class TestSimulate:
    def test_summary_and_csv(self, tmp_path, capsys):
        polf = write_json(tmp_path / "pol.json", all_a0_policy_doc())
        csv_f = tmp_path / "runs.csv"
        rc = run_cli(["simulate", "--model", MODEL, "--policy", polf,
                      "--theta-star", "th1", "--runs", "50", "--seed", "4",
                      "--out", str(csv_f)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["runs"] == 50
        assert summary["theta_star"] == "th1"
        lines = csv_f.read_text().splitlines()
        assert lines[0].startswith("run,t,state,action,true_cost")
        assert len(lines) == 1 + 50 * 2

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        polf = write_json(tmp_path / "pol.json", all_a0_policy_doc())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (a, b):
            assert run_cli(["simulate", "--model", MODEL, "--policy", polf,
                            "--theta-star", "th2", "--runs", "30", "--seed", "9",
                            "--out", str(f)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_theta_star(self, tmp_path, capsys):
        polf = write_json(tmp_path / "pol.json", all_a0_policy_doc())
        assert run_cli(["simulate", "--model", MODEL, "--policy", polf,
                        "--theta-star", "thX"]) == 2

    def test_nonpositive_runs(self, tmp_path, capsys):
        polf = write_json(tmp_path / "pol.json", all_a0_policy_doc())
        assert run_cli(["simulate", "--model", MODEL, "--policy", polf,
                        "--theta-star", "th1", "--runs", "0"]) == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "True"], ids=["negative", "2**64", "bool"])
    def test_seed_out_of_range(self, seed, tmp_path, capsys):
        polf = write_json(tmp_path / "pol.json", all_a0_policy_doc())
        assert run_cli(["simulate", "--model", MODEL, "--policy", polf,
                        "--theta-star", "th1", "--runs", "3", "--seed", seed]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("usage error: ")

    def test_largest_seed(self, tmp_path, capsys):
        polf = write_json(tmp_path / "pol.json", all_a0_policy_doc())
        assert run_cli(["simulate", "--model", MODEL, "--policy", polf,
                        "--theta-star", "th1", "--runs", "3", "--seed", str(2**64 - 1)]) == 0
        assert json.loads(capsys.readouterr().out)["runs"] == 3

    def test_theta_star_outside_prior_support(self, tmp_path, capsys, sample_model):
        m = ruled_out_model(sample_model)
        model_f = tmp_path / "model.json"
        model_f.write_text(serialize_model(m))
        polf = write_json(tmp_path / "pol.json", all_a0_policy_doc())
        assert run_cli(["simulate", "--model", str(model_f), "--policy", polf,
                        "--theta-star", "th2", "--runs", "20"]) == 1
        assert ("observation (s0, a0) -> s1 has zero probability under the current belief"
                in capsys.readouterr().err)


class TestMissingQuasiMarkovDecision:
    """A quasi_markov policy file without an entry for a reached node."""

    @pytest.fixture
    def policy_without_root(self, tmp_path, capsys):
        pol_f = tmp_path / "pol.json"
        assert run_cli(["solve", "--model", MODEL, "--criterion", ENTROPIC,
                        "--out", str(tmp_path / "table.json"), "--policy", str(pol_f)]) == 0
        doc = json.loads(pol_f.read_text())
        root = json.loads((tmp_path / "table.json").read_text())["nodes"][0]["id"]
        del doc["table"][root]
        capsys.readouterr()
        return write_json(pol_f, doc)

    def test_simulate(self, policy_without_root, capsys):
        assert run_cli(["simulate", "--model", MODEL, "--policy", policy_without_root,
                        "--theta-star", "th1", "--runs", "5"]) == 2
        assert "policy has no decision for belief node" in capsys.readouterr().err

    def test_evaluate(self, policy_without_root, capsys):
        assert run_cli(["evaluate", "--model", MODEL, "--criterion", ENTROPIC,
                        "--policy", policy_without_root]) == 2
        assert "policy has no decision for belief node" in capsys.readouterr().err


def test_evaluate_rejects_a_history_that_is_not_a_list(tmp_path, capsys):
    doc = {"type": "history", "decisions": [{"t": 1, "history": 5, "action": "a0"}]}
    assert run_cli(["evaluate", "--model", MODEL, "--criterion", ENTROPIC,
                    "--policy", write_json(tmp_path / "pol.json", doc)]) == 1
    assert "invalid input: decision 'history' must be a list of state labels" in capsys.readouterr().err


class TestAxiomsAndBeliefs:
    def test_check_axioms_passes_for_builtins(self, capsys):
        for crit in (EXPECTATION, '{"type": "entropic", "kappa": 0.5}'):
            assert run_cli(["check-axioms", "--criterion", crit,
                            "--samples", "200"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["passed"] is True
            assert report["violations"] == []

    @pytest.mark.parametrize("kappa", ["true", "1" + "0" * 400], ids=["bool", "huge-int"])
    def test_check_axioms_kappa_not_a_number(self, kappa, capsys):
        crit = '{"type": "entropic", "kappa": %s}' % kappa
        assert run_cli(["check-axioms", "--criterion", crit, "--samples", "10"]) == 1
        assert "invalid input: criterion 'kappa' must be a number" in capsys.readouterr().err

    def test_check_axioms_bad_samples(self, capsys):
        assert run_cli(["check-axioms", "--criterion", EXPECTATION,
                        "--samples", "0"]) == 2

    def test_check_axioms_negative_seed(self, capsys):
        assert run_cli(["check-axioms", "--criterion", EXPECTATION, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "usage error: seed must be a nonnegative integer, got -1\n"

    def test_beliefs_export(self, capsys):
        assert run_cli(["beliefs", "--model", MODEL]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert len(doc["nodes"]) == 5
        assert len(doc["edges"]) == 4
        assert "beliefs: 5 nodes, 4 edges" in captured.err.splitlines()

    def test_beliefs_node_cap(self, capsys):
        assert run_cli(["beliefs", "--model", MODEL, "--node-cap", "1"]) == 3


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "riskmdp", "validate", "--model", MODEL],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True


def test_entropic_kappa_at_float_max_solves_without_warning():
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "riskmdp", "solve", "--model", MODEL,
         "--criterion", '{"type": "entropic", "kappa": 1e308}'],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["root_value"] == 1.5
