"""Shared fixtures, random policy and history generators, and the acceptance summary hook.

random_instance is the library's generator (riskmdp.model), re-exported here
for the test modules and for the benchmark's input generator, which loads it
from this file.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from riskmdp import Belief, CriterionSpec, HistoryPolicy, ModelSpec, make_custom, parse_model
from riskmdp.model import logistic_response
from riskmdp.model import random_instance  # noqa: F401  (re-exported)

DATA = Path(__file__).parent / "data"


def rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@pytest.fixture(scope="session")
def sample_model() -> ModelSpec:
    return parse_model((DATA / "sample_model.json").read_text())


def sparse_response(theta: float, dose: float) -> float:
    """A dose response that is 0 below theta, 1 from theta + 2 and logistic between.

    In dose-finding with doses (1,2,3,4) and thetas (1,2,3), most observations
    then rule a parameter out, so the build prunes moves at every level: 92
    of them at horizon 5 and 470 at horizon 7.
    """
    return 0.0 if dose < theta else (1.0 if dose >= theta + 2 else logistic_response(theta, dose))


def wealth_lattice(W: int, horizon: int) -> ModelSpec:
    """A recombining wealth lattice on states w0..wW with stakes (0, 1, 2, 3).

    With wealth x and stake s the next state is min(x + s, W) with
    probability theta and max(x - s, 0) otherwise, for theta in (0.4, 0.5,
    0.6) under a uniform prior; the stage cost is the expected loss
    s (1 - theta), and the start is w(W // 2). Each kernel row has at most
    two positive entries, so most (state, action, next state) moves are
    zero under every parameter.
    """
    stakes, thetas = (0, 1, 2, 3), (0.4, 0.5, 0.6)
    kernel = np.zeros((len(thetas), W + 1, len(stakes), W + 1))
    cost = np.zeros((horizon, W + 1, len(stakes), len(thetas)))
    for i, th in enumerate(thetas):
        for x in range(W + 1):
            for k, s in enumerate(stakes):
                kernel[i, x, k, min(x + s, W)] += th
                kernel[i, x, k, max(x - s, 0)] += 1.0 - th
                cost[:, x, k, i] = s * (1.0 - th)
    params = tuple(f"{th:g}" for th in thetas)
    return ModelSpec(horizon=horizon, states=tuple(f"w{x}" for x in range(W + 1)),
                     actions=tuple(f"s{s}" for s in stakes), parameters=params,
                     prior=Belief.uniform(params), kernel=kernel, cost=cost, initial_state=f"w{W // 2}")


def upper_semideviation(values, weights) -> float:
    """mean + 0.5 * E[(v - mean)+] over the positive-weight atoms: a coherent
    one-step risk map that is neither built-in criterion."""
    live = np.asarray(weights) > 0.0
    v = np.asarray(values, dtype=float)[live]
    w = np.asarray(weights, dtype=float)[live]
    mean = float(np.dot(w, v))
    return mean + 0.5 * float(np.dot(w, np.maximum(v - mean, 0.0)))


@pytest.fixture(scope="session")
def semideviation() -> CriterionSpec:
    """The mean-upper-semideviation map as both rho_hat and sigma."""
    return make_custom("semideviation", upper_semideviation, upper_semideviation)


def decision_points(m: ModelSpec) -> list[tuple[str, ...]]:
    """All state histories a policy must cover, in enumeration order."""
    import itertools

    pts = []
    for t in range(1, m.horizon + 1):
        for cont in itertools.product(m.states, repeat=t - 1):
            pts.append((m.initial_state,) + cont)
    return pts


def random_policy(m: ModelSpec, rng: np.random.Generator) -> HistoryPolicy:
    decisions = {}
    for hist in decision_points(m):
        acts = m.admissible_actions(len(hist), hist[-1])
        decisions[hist] = acts[int(rng.integers(0, len(acts)))]
    return HistoryPolicy(decisions=decisions)


def random_history(m: ModelSpec, rng: np.random.Generator) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A positive-probability (history, actions) pair of random length."""
    from riskmdp import bayes_update, predictive_next_state

    length = int(rng.integers(1, m.horizon + 1))
    hist = (m.initial_state,)
    acts: tuple[str, ...] = ()
    xi = m.prior
    for t in range(1, length):
        options = m.admissible_actions(t, hist[-1])
        u = options[int(rng.integers(0, len(options)))]
        pred = predictive_next_state(m, xi, hist[-1], u)
        support = np.flatnonzero(pred > 0.0)
        y = m.states[int(rng.choice(support))]
        xi = bayes_update(m, xi, hist[-1], u, y)
        hist = hist + (y,)
        acts = acts + (u,)
    return hist, acts


# One PASS/FAIL line per acceptance criterion, printed after the run.

_ACCEPTANCE: dict[int, list[bool]] = {}
_CRITERION_RE = re.compile(r"test_acceptance\.py::test_c(\d+)")


def pytest_runtest_logreport(report):
    m = _CRITERION_RE.search(report.nodeid)
    if not m:
        return
    n = int(m.group(1))
    if report.when == "call":
        _ACCEPTANCE.setdefault(n, []).append(report.passed)
    elif report.failed:  # setup/teardown error counts as a failure
        _ACCEPTANCE.setdefault(n, []).append(False)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_ACCEPTANCE):
        verdict = "PASS" if all(_ACCEPTANCE[n]) else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE criterion {n}: {verdict}")
