"""The oracle's value bits and argmin policies, pinned in tests/data/oracle_digests.txt.

test_oracle_reference checks the cached search against the per-policy loop,
but both score through the same scalar risk maps, so a change in the maps'
bits passes it. This file pins the bits themselves: for random_instance
seeds 0-39 in the certification shape (2 states, 2 actions, 3 parameters,
horizon 3, every action admissible), under the expectation and entropic
kappa=1, it records float.hex of the brute_force_optimum value and the
argmin policy's decisions in enumeration order, then the three evaluators
on the solver's unfolded policy.

The entropic maps take np.expm1, np.exp and math.log1p/math.log, and the
path oracle np.exp, np.log and np.dot, whose last bits depend on the math
library numpy and Python were built with. The file's first line is a digest
of those functions on fixed arguments; where it differs, the pinned lines
cannot be compared, and the test is skipped with the functions named.
Regenerate the file with

    PYTHONPATH=src python tests/test_oracle_digests.py > tests/data/oracle_digests.txt

only on a checkout whose oracle is known to be right.
"""

from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from riskmdp import (
    brute_force_optimum,
    build_reachable_belief_graph,
    eval_policy_decomposed,
    eval_policy_paths,
    eval_policy_recursive,
    make_entropic,
    make_expectation,
    solve_dp,
    to_history_policy,
)
from riskmdp.model import random_instance

DIGESTS = Path(__file__).parent / "data" / "oracle_digests.txt"
SHAPE = dict(n_states=2, n_actions=2, n_params=3, horizon=3, allow_restricted=False)
CRITERIA = (("expectation", make_expectation()), ("entropic-1", make_entropic(1.0)))


def math_probe() -> str:
    """One line: the digest of each math function the oracle's bits depend on, on fixed arguments."""
    z = -np.linspace(0.0, 40.0, 4001)
    s = np.linspace(-0.5, 4.0, 4001)
    x = np.linspace(1e-3, 8.0, 4001)
    w = np.array([0.2, 0.3, 0.5])
    outputs = {
        "np.expm1": np.expm1(z),
        "np.exp": np.exp(z),
        "np.log": np.log(x),
        "math.log1p": np.array([math.log1p(v) for v in s.tolist()]),
        "math.log": np.array([math.log(v) for v in x.tolist()]),
        "np.dot": np.array([np.dot(w, x[i:i + 3]) for i in range(0, 3999, 3)]),
    }
    return "# math " + " ".join(f"{name}={hashlib.sha256(a.tobytes()).hexdigest()[:16]}"
                                for name, a in outputs.items())


def oracle_lines() -> list[str]:
    lines = []
    for seed in range(40):
        m = random_instance(seed, **SHAPE)
        g = build_reachable_belief_graph(m)
        for label, crit in CRITERIA:
            best, argmin = brute_force_optimum(m, crit)
            _, qmp = solve_dp(m, crit, g)
            pol = to_history_policy(qmp, m)
            lines.append("\t".join([
                str(seed), label, best.hex(), ",".join(argmin.decisions.values()),
                eval_policy_recursive(m, crit, pol).hex(),
                eval_policy_paths(m, crit, pol).hex(),
                eval_policy_decomposed(m, crit, pol).hex(),
            ]))
    return lines


def test_oracle_bits_are_pinned():
    probe, *pinned = DIGESTS.read_text().splitlines()
    here = math_probe()
    if here != probe:
        changed = [a.split("=")[0] for a, b in zip(probe.split()[2:], here.split()[2:]) if a != b]
        pytest.skip(f"the pinned bits were made where {', '.join(changed)} round differently")
    assert oracle_lines() == pinned


if __name__ == "__main__":
    sys.stdout.write("\n".join([math_probe(), *oracle_lines()]) + "\n")
