#!/usr/bin/env python3
"""Print SHA-256 digests of the solver's JSON outputs on a fixed model set.

For every model: one line with the digest of the belief-graph JSON, then,
per criterion, one line with the digests of the value-table JSON and of the
policy JSON. The criteria are the expectation and the entropic one at
kappa 1e-3, 1 and 5. A model that raises prints the error instead. Run it
on two checkouts and diff the outputs to check that a change keeps the bytes:

    PYTHONPATH=src python scripts/output_digests.py --set full > after.txt

Sets:
  small  the sample model, dose-finding at horizons 3 and 5, and
         random_instance seeds 0-9 (13 models);
  full   the sample model; dose-finding doses (1,2,3,4) x thetas (1,2,3) at
         horizons 5, 7, 9 and 11; doses and thetas (1,..,5) at horizons 3, 4
         and 5; 40 certification-shape instances (2 states, 2 actions,
         3 parameters, horizon 3) for each of the draw seeds 1, 2 and 5;
         random_instance seeds 0-59; and 20 instances of 3 states, 3 actions,
         4 parameters and horizon 4 (208 models).
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path
from typing import Iterator

import numpy as np

from riskmdp import (
    RiskMdpError,
    build_reachable_belief_graph,
    gen_clinical_trials_model,
    graph_to_json,
    make_entropic,
    make_expectation,
    parse_model,
    policy_to_json,
    solve_dp,
    value_table_to_json,
)
from riskmdp.model import random_instance

SAMPLE = Path(__file__).resolve().parent.parent / "tests" / "data" / "sample_model.json"
CERTIFY_SHAPE = dict(n_states=2, n_actions=2, n_params=3, horizon=3, allow_restricted=False)
KAPPAS = (1e-3, 1.0, 5.0)


def models(name: str) -> Iterator[tuple[str, object]]:
    """(label, model factory) pairs of a named set, in a fixed order."""
    yield "sample", lambda: parse_model(SAMPLE.read_text())
    dose = (1, 2, 3, 4), (1, 2, 3)
    five = (1, 2, 3, 4, 5), (1, 2, 3, 4, 5)
    if name == "small":
        for T in (3, 5):
            yield f"dose4x3-T{T}", lambda T=T: gen_clinical_trials_model(*dose, horizon=T)
        for s in range(10):
            yield f"random-{s}", lambda s=s: random_instance(s)
        return
    for T in (5, 7, 9, 11):
        yield f"dose4x3-T{T}", lambda T=T: gen_clinical_trials_model(*dose, horizon=T)
    for T in (3, 4, 5):
        yield f"dose5x5-T{T}", lambda T=T: gen_clinical_trials_model(*five, horizon=T)
    for draw in (1, 2, 5):
        seeds = np.random.default_rng(draw).integers(0, 2**31 - 1, size=40).tolist()
        for s in seeds:
            yield f"certify-{s}", lambda s=s: random_instance(s, **CERTIFY_SHAPE)
    for s in range(60):
        yield f"random-{s}", lambda s=s: random_instance(s)
    for s in range(20):
        yield f"3x3x4-{s}", lambda s=s: random_instance(s, n_states=3, n_actions=3, n_params=4, horizon=4)


def digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--set", choices=("small", "full"), default="small")
    args = ap.parse_args()

    criteria = [("expectation", make_expectation())]
    criteria += [(f"entropic({k:g})", make_entropic(k)) for k in KAPPAS]
    for label, make in models(args.set):
        try:
            m = make()
            g = build_reachable_belief_graph(m)
        except RiskMdpError as e:
            print(f"{label}\terror\t{type(e).__name__}: {e}")
            continue
        print(f"{label}\tgraph\t{digest(graph_to_json(g))}")
        for name, crit in criteria:
            try:
                table, qmp = solve_dp(m, crit, g)
            except RiskMdpError as e:
                print(f"{label}\t{name}\terror\t{type(e).__name__}: {e}")
                continue
            print(f"{label}\t{name}\tvalues {digest(value_table_to_json(table, qmp))}"
                  f"\tpolicy {digest(policy_to_json(qmp))}")


if __name__ == "__main__":
    main()
