#!/usr/bin/env python3
"""Dose-finding experiment: solve the trial design under expectation and
entropic criteria, then roll the entropic policy under each candidate truth.

Writes one trajectory CSV per true parameter into --outdir and prints a
summary table of values, dose choices, and posterior concentration.
"""

import argparse
import json
from pathlib import Path

from riskmdp import (
    build_reachable_belief_graph,
    gen_clinical_trials_model,
    make_entropic,
    make_expectation,
    simulate_runs,
    solve_dp,
    summarize,
    trajectories_to_csv,
    validate_model,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--doses", type=float, nargs="+", default=[1.0, 2.0, 3.0])
    ap.add_argument("--theta-grid", type=float, nargs="+", default=[1.0, 2.0, 3.0])
    ap.add_argument("--horizon", type=int, default=3)
    ap.add_argument("--kappa", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    ap.add_argument("--runs", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", default="out/dose_finding")
    args = ap.parse_args()

    m = gen_clinical_trials_model(doses=args.doses, theta_grid=args.theta_grid,
                                  horizon=args.horizon)
    issues = validate_model(m)
    for issue in issues:
        print(f"[{issue.severity}] {issue.code}: {issue.message}")
    if any(i.severity == "error" for i in issues):
        raise SystemExit(1)

    graph = build_reachable_belief_graph(m)
    print(f"belief graph: {len(graph.ids)} nodes, {len(graph.edges)} edges")

    table_exp, qmp_exp = solve_dp(m, make_expectation(), graph)
    print(f"{'criterion':<18}{'root value':>14}{'first dose':>12}")
    print(f"{'expectation':<18}{table_exp.root_value:>14.8f}"
          f"{qmp_exp.action(0):>12}")

    chosen = None
    for kappa in args.kappa:
        table, qmp = solve_dp(m, make_entropic(kappa), graph)
        print(f"{f'entropic({kappa:g})':<18}{table.root_value:>14.8f}"
              f"{qmp.action(0):>12}")
        if chosen is None:
            chosen = qmp

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    print(f"\nrollouts of entropic({args.kappa[0]:g}) policy, "
          f"{args.runs} runs per truth:")
    for theta_star in m.parameters:
        trajs = simulate_runs(m, chosen, theta_star, runs=args.runs, seed=args.seed)
        s = summarize(trajs, theta_star)
        masses = " -> ".join(f"{row['mean_posterior_theta_star']:.4f}"
                             for row in s["per_t"])
        print(f"  theta*={theta_star}: mean total cost {s['total_mean']:.4f} "
              f"(sd {s['total_std']:.4f}), posterior on truth {masses}")
        csv_path = outdir / f"runs_theta_{theta_star}.csv"
        csv_path.write_text(trajectories_to_csv(trajs, m))
        (outdir / f"summary_theta_{theta_star}.json").write_text(
            json.dumps(s, indent=2, sort_keys=True))
    print(f"\nwrote CSV and summaries to {outdir}/")


if __name__ == "__main__":
    main()
