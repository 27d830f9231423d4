#!/usr/bin/env python3
"""Certification sweep: on a batch of small random instances, compare the
belief-graph solver against exhaustive policy search for both built-in
criteria and one custom criterion (mean-upper-semideviation), print the
search's seconds per instance, and tabulate how the entropic root approaches
the expectation root as kappa shrinks.

Instances are small enough that every history policy can be enumerated, so
the reported gaps are against the true optimum, not a heuristic.
"""

import argparse
import time

import numpy as np

from riskmdp import (
    brute_force_optimum,
    build_reachable_belief_graph,
    eval_policy_recursive,
    make_custom,
    make_entropic,
    make_expectation,
    solve_dp,
    to_history_policy,
)
from riskmdp.model import random_instance


def upper_semideviation(values, weights) -> float:
    """mean + 0.5 * E[(v - mean)+] over the positive-weight atoms."""
    live = np.asarray(weights) > 0.0
    v = np.asarray(values, dtype=float)[live]
    w = np.asarray(weights, dtype=float)[live]
    mean = float(np.dot(w, v))
    return mean + 0.5 * float(np.dot(w, np.maximum(v - mean, 0.0)))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=50)
    ap.add_argument("--seed0", type=int, default=0)
    ap.add_argument("--kappa", type=float, default=1.0)
    args = ap.parse_args()

    criteria = [("expectation", make_expectation()),
                (f"entropic({args.kappa:g})", make_entropic(args.kappa)),
                ("semideviation", make_custom("semideviation", upper_semideviation, upper_semideviation))]
    worst = {name: 0.0 for name, _ in criteria}
    worst_policy = {name: 0.0 for name, _ in criteria}
    oracle_s = {name: 0.0 for name, _ in criteria}
    started = time.monotonic()
    for seed in range(args.seed0, args.seed0 + args.instances):
        m = random_instance(seed, allow_restricted=False)
        graph = build_reachable_belief_graph(m)
        for name, crit in criteria:
            table, qmp = solve_dp(m, crit, graph)
            t0 = time.perf_counter()
            best, _ = brute_force_optimum(m, crit)
            oracle_s[name] += time.perf_counter() - t0
            worst[name] = max(worst[name], abs(table.root_value - best))
            achieved = eval_policy_recursive(m, crit, to_history_policy(qmp, m))
            worst_policy[name] = max(worst_policy[name],
                                     abs(achieved - table.root_value))
    elapsed = time.monotonic() - started

    print(f"{args.instances} instances in {elapsed:.2f}s")
    print(f"{'criterion':<16}{'max |solver - search|':>24}{'max policy gap':>18}{'search s/instance':>20}")
    for name, _ in criteria:
        print(f"{name:<16}{worst[name]:>24.3e}{worst_policy[name]:>18.3e}"
              f"{oracle_s[name] / args.instances:>20.4f}")

    # small-kappa behaviour on one fixed instance
    m = random_instance(args.seed0, allow_restricted=False)
    graph = build_reachable_belief_graph(m)
    root_exp, _ = solve_dp(m, make_expectation(), graph)
    print(f"\nkappa sweep on seed {args.seed0} "
          f"(expectation root {root_exp.root_value:.10f}):")
    print(f"{'kappa':>10}{'entropic root':>18}{'gap':>14}")
    for kappa in (1.0, 1e-1, 1e-2, 1e-3, 1e-4):
        root_ent, _ = solve_dp(m, make_entropic(kappa), graph)
        gap = root_ent.root_value - root_exp.root_value
        print(f"{kappa:>10.0e}{root_ent.root_value:>18.10f}{gap:>14.3e}")


if __name__ == "__main__":
    main()
