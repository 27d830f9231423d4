"""The belief graph's level arrays are its only node store.

BeliefGraph.nodes and .root are views that build BeliefNode objects on
request. Nothing on the path from build to solve, export, parse, unfold and
rollout reads them: with both views and BeliefNode's constructor made to
raise, every output keeps its bytes.
"""

import contextlib
import io
import json

import pytest

from riskmdp import (
    BeliefGraph,
    BeliefNode,
    build_reachable_belief_graph,
    gen_clinical_trials_model,
    graph_to_json,
    make_entropic,
    make_expectation,
    parse_model,
    parse_policy,
    policy_to_json,
    serialize_model,
    simulate_runs,
    solve_dp,
    to_history_policy,
    value_table_to_json,
)
from riskmdp.cli import run_cli
from riskmdp.sim import trajectories_to_csv

from conftest import DATA

MODELS = {
    "sample": lambda: parse_model((DATA / "sample_model.json").read_text()),
    "dose-T4": lambda: gen_clinical_trials_model((1, 2, 3), (1, 2, 3), horizon=4),
}


def _refuse(*args, **kwargs):
    raise AssertionError("a per-node object was built")


def _cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    assert code == 0, err.getvalue()
    return out.getvalue() + err.getvalue()


def outputs(m, work) -> dict[str, str]:
    """Every document the library and the CLI write for model m."""
    theta = m.parameters[0]
    g = build_reachable_belief_graph(m)
    out = {"graph": json.dumps(graph_to_json(g))}
    for crit in (make_expectation(), make_entropic(1.0)):
        table, qmp = solve_dp(m, crit, g)
        hp = to_history_policy(qmp, m)
        name = crit.kind
        out[f"{name} values"] = json.dumps(value_table_to_json(table, qmp))
        out[f"{name} policy"] = json.dumps(policy_to_json(qmp))
        out[f"{name} history"] = json.dumps(policy_to_json(hp))
        out[f"{name} policy again"] = json.dumps(policy_to_json(parse_policy(policy_to_json(qmp), m, g)))
        out[f"{name} history again"] = json.dumps(policy_to_json(parse_policy(policy_to_json(hp), m)))
        out[f"{name} runs"] = trajectories_to_csv(simulate_runs(m, qmp, theta, runs=20, seed=5), m)

    work.mkdir()
    model = work / "model.json"
    model.write_text(serialize_model(m))
    files = [work / name for name in ("table.json", "policy.json", "beliefs.json", "runs.csv")]
    table, policy, beliefs, runs = map(str, files)
    out["cli solve"] = _cli(["solve", "--model", str(model), "--criterion", '{"type": "entropic", "kappa": 1.0}',
                             "--out", table, "--policy", policy])
    out["cli beliefs"] = _cli(["beliefs", "--model", str(model), "--out", beliefs])
    out["cli simulate"] = _cli(["simulate", "--model", str(model), "--policy", policy,
                                "--theta-star", theta, "--runs", "20", "--seed", "5", "--out", runs])
    out.update({f.name: f.read_text() for f in files})
    return out


@pytest.mark.parametrize("name", list(MODELS))
def test_no_node_objects_on_any_output_path(name, tmp_path, monkeypatch):
    m = MODELS[name]()
    want = outputs(m, tmp_path / "plain")
    monkeypatch.setattr(BeliefGraph, "nodes", property(_refuse))
    monkeypatch.setattr(BeliefGraph, "root", property(_refuse))
    monkeypatch.setattr(BeliefNode, "__init__", _refuse)
    assert outputs(m, tmp_path / "patched") == want
