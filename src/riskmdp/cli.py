"""Batch command-line front end.

Subcommands: validate, solve, evaluate, oracle, simulate, check-axioms,
beliefs. Exit codes: 0 success, 1 validation failure, 2 usage error,
3 enumeration cap exceeded. Structured output goes to --out or stdout; one
short progress line per stage goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .belief import DEFAULT_NODE_CAP, build_reachable_belief_graph, graph_to_json
from .criterion import check_axioms, parse_criterion
from .engine import (
    brute_force_optimum,
    eval_policy_recursive,
    parse_policy,
    policy_to_json,
    solve_dp,
    to_history_policy,
    value_table_to_json,
    HistoryPolicy,
    QuasiMarkovPolicy,
)
from .errors import (
    CapExceeded,
    DomainError,
    SchemaError,
    ValidationError,
    ZeroProbabilityObservation,
)
from .model import _json_doc, parse_model, validate_model
from .sim import simulate_runs, summarize, summary_to_json, trajectories_to_csv


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); surface instead
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="riskmdp", description="Risk-averse Bayesian MDP solver toolkit")
    sub = p.add_subparsers(dest="subcommand", metavar="subcommand")

    sp = sub.add_parser("validate", help="check a model document against every invariant")
    sp.add_argument("--model", required=True)

    sp = sub.add_parser("solve", help="backward induction over the reachable belief graph")
    sp.add_argument("--model", required=True)
    sp.add_argument("--criterion", action="append", required=True,
                    help="inline JSON or a path to a JSON file")
    sp.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)
    sp.add_argument("--out", help="write the value table JSON here (default stdout)")
    sp.add_argument("--policy", help="also write the extracted policy JSON here")

    sp = sub.add_parser("evaluate", help="value of a given policy at the initial history")
    sp.add_argument("--model", required=True)
    sp.add_argument("--criterion", action="append", required=True)
    sp.add_argument("--policy", required=True, help="policy JSON file")
    sp.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)
    sp.add_argument("--out")

    sp = sub.add_parser("oracle", help="exhaustive policy search for certification")
    sp.add_argument("--model", required=True)
    sp.add_argument("--criterion", action="append", required=True)
    sp.add_argument("--out")

    sp = sub.add_parser("simulate", help="Monte-Carlo rollouts under a designated true parameter")
    sp.add_argument("--model", required=True)
    sp.add_argument("--policy", required=True)
    sp.add_argument("--theta-star", required=True)
    sp.add_argument("--runs", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)
    sp.add_argument("--out", help="write trajectory CSV here; summary JSON goes to stdout")

    sp = sub.add_parser("check-axioms", help="randomized axiom probe for a built-in criterion")
    sp.add_argument("--criterion", action="append", required=True)
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")

    sp = sub.add_parser("beliefs", help="export the reachable belief graph")
    sp.add_argument("--model", required=True)
    sp.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)
    sp.add_argument("--out")

    return p


def _stage(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read(kind: str, path: str) -> str:
    """The text of the file at path; an unreadable file is a usage error."""
    try:
        return Path(path).read_text()
    except OSError as e:
        raise _UsageError(f"cannot read {kind} file {path}: {e}") from None


def _load_model(path: str):
    return parse_model(_read("model", path))


def _load_criterion(values: list[str] | None):
    if not values:
        raise _UsageError("--criterion is required")
    if len(values) > 1:
        raise _UsageError("--criterion given more than once; pass it inline or as a file, not both")
    raw = values[0].strip()
    if not raw.startswith("{"):
        raw = _read("criterion", raw)
    return parse_criterion(raw)


def _load_policy(m, path: str, node_cap: int) -> HistoryPolicy | QuasiMarkovPolicy:
    """Read a policy file; a quasi_markov policy is resolved over the model's belief graph."""
    doc = _json_doc(_read("policy", path), "policy is not valid JSON")
    graph = None
    if isinstance(doc, dict) and doc.get("type") == "quasi_markov":
        graph = build_reachable_belief_graph(m, node_cap=node_cap)
    return parse_policy(doc, m, graph)


def _emit(payload: str, out: str | None) -> None:
    if out:
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")


def run_cli(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.subcommand:
            raise _UsageError("a subcommand is required")
        return _dispatch(args)
    except (_UsageError, DomainError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (SchemaError, ValidationError, ZeroProbabilityObservation) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return 1
    except CapExceeded as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    cmd = args.subcommand

    if cmd == "validate":
        try:
            valid, issues = True, validate_model(_load_model(args.model))
        except ValidationError as e:
            valid, issues = False, e.issues
        report = {
            "valid": valid,
            "issues": [{"severity": i.severity, "code": i.code, "message": i.message}
                       for i in issues],
        }
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
        return 0 if valid else 1

    if cmd == "solve":
        m = _load_model(args.model)
        crit = _load_criterion(args.criterion)
        graph = build_reachable_belief_graph(m, node_cap=args.node_cap)
        _stage(f"solve: belief graph has {len(graph.ids)} nodes")
        table, qmp = solve_dp(m, crit, graph)
        _emit(json.dumps(value_table_to_json(table, qmp), indent=2), args.out)
        if args.policy:
            Path(args.policy).write_text(json.dumps(policy_to_json(qmp), indent=2))
        return 0

    if cmd == "evaluate":
        m = _load_model(args.model)
        crit = _load_criterion(args.criterion)
        pol = _load_policy(m, args.policy, args.node_cap)
        if isinstance(pol, QuasiMarkovPolicy):
            pol = to_history_policy(pol, m)
        value = eval_policy_recursive(m, crit, pol)
        _emit(json.dumps({"value": value, "criterion": crit.describe()}, indent=2), args.out)
        return 0

    if cmd == "oracle":
        m = _load_model(args.model)
        crit = _load_criterion(args.criterion)
        _stage("oracle: enumerating all history policies")
        value, pol = brute_force_optimum(m, crit)
        payload = {"value": value, "criterion": crit.describe(), "policy": policy_to_json(pol)}
        _emit(json.dumps(payload, indent=2), args.out)
        return 0

    if cmd == "simulate":
        m = _load_model(args.model)
        pol = _load_policy(m, args.policy, args.node_cap)
        _stage(f"simulate: {args.runs} runs under theta*={args.theta_star}")
        trajs = simulate_runs(m, pol, args.theta_star, runs=args.runs, seed=args.seed)
        if args.out:
            Path(args.out).write_text(trajectories_to_csv(trajs, m))
        sys.stdout.write(summary_to_json(summarize(trajs, args.theta_star)) + "\n")
        return 0

    if cmd == "check-axioms":
        crit = _load_criterion(args.criterion)
        report = check_axioms(crit, samples=args.samples, seed=args.seed)
        _emit(json.dumps(report.as_dict(), indent=2), args.out)
        return 0 if report.passed else 1

    if cmd == "beliefs":
        m = _load_model(args.model)
        graph = build_reachable_belief_graph(m, node_cap=args.node_cap)
        doc = graph_to_json(graph)
        _stage(f"beliefs: {len(graph.ids)} nodes, {len(doc['edges'])} edges")
        _emit(json.dumps(doc, indent=2), args.out)
        return 0

    raise _UsageError(f"unknown subcommand {cmd!r}")


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
