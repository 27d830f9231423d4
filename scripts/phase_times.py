#!/usr/bin/env python3
"""Print median per-phase times of the solve pipeline on the dose-finding ladder.

The model is gen_clinical_trials_model(doses=(1,2,3,4), theta_grid=(1,2,3))
with its uniform prior, one per horizon. Each repeat times, in one process:
parsing the model's JSON, building the belief graph, solving it under the
expectation and the entropic (kappa 1) criterion, and writing each
criterion's value-table and policy JSON text (the export columns add both
criteria), then rolling the entropic policy out as `riskmdp simulate` does:
2 000 runs (seed 0) under the first parameter, with the trajectory CSV text
and the summary JSON. The table gives the median of each phase over the
repeats, in seconds, as markdown:

    PYTHONPATH=src python scripts/phase_times.py --horizons 5 7 9 11 --repeats 3
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

from riskmdp import (
    build_reachable_belief_graph,
    gen_clinical_trials_model,
    make_entropic,
    make_expectation,
    parse_model,
    policy_to_json,
    serialize_model,
    simulate_runs,
    solve_dp,
    summarize,
    summary_to_json,
    trajectories_to_csv,
    value_table_to_json,
)

CRITERIA = (("expectation", make_expectation()), ("entropic", make_entropic(1.0)))
PHASES = ("parse", "build", "solve expectation", "solve entropic", "values JSON", "policy JSON",
          "simulate + CSV + summary")
ROLLOUT_RUNS = 2000


def rollout(m, qmp) -> None:
    """The rollout, CSV text and summary JSON of `riskmdp simulate` under the first parameter."""
    theta = m.parameters[0]
    trajs = simulate_runs(m, qmp, theta, ROLLOUT_RUNS, 0)
    trajectories_to_csv(trajs, m)
    summary_to_json(summarize(trajs, theta))


def timed(times: dict, phase: str, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    times[phase] = times.get(phase, 0.0) + time.perf_counter() - t0
    return out


def one_repeat(text: str) -> tuple[dict, int, int]:
    """Seconds per phase, and the graph's node and edge counts."""
    times: dict = {}
    m = timed(times, "parse", parse_model, text)
    g = timed(times, "build", build_reachable_belief_graph, m)
    for name, crit in CRITERIA:
        table, qmp = timed(times, f"solve {name}", solve_dp, m, crit, g)
        timed(times, "values JSON", lambda: json.dumps(value_table_to_json(table, qmp)))
        timed(times, "policy JSON", lambda: json.dumps(policy_to_json(qmp)))
    timed(times, "simulate + CSV + summary", rollout, m, qmp)
    return times, len(g.ids), len(g.edges)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--horizons", type=int, nargs="+", default=[5, 7, 9, 11])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")

    print("| horizon | nodes | edges | " + " | ".join(PHASES) + " |")
    print("|" + "---|" * (3 + len(PHASES)))
    for T in args.horizons:
        text = serialize_model(gen_clinical_trials_model(doses=(1, 2, 3, 4), theta_grid=(1, 2, 3), horizon=T))
        runs = [one_repeat(text) for _ in range(args.repeats)]
        _, nodes, edges = runs[0]
        cells = [f"{statistics.median(t[p] for t, _, _ in runs):.4f}" for p in PHASES]
        print(f"| {T} | {nodes} | {edges} | " + " | ".join(cells) + " |", flush=True)


if __name__ == "__main__":
    main()
