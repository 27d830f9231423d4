"""Monte-Carlo rollout of a policy under a designated true parameter.

Randomness comes from the Philox counter-based generator with one substream
per run, keyed by (seed, run index), so runs are reproducible independently
of execution order. Next states are drawn by inverse CDF over the declared
state order.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .belief import bayes_update
from .engine import HistoryPolicy, _policy_step
from .errors import DomainError
from .model import Belief, ModelSpec


@dataclass(frozen=True)
class Trajectory:
    states: tuple[str, ...]  # x_1 .. x_{T+1 or T}; length horizon+1 when horizon>=1
    actions: tuple[str, ...]  # u_1 .. u_T
    beliefs: tuple[Belief, ...]  # xi_1 .. xi_T, the belief held when acting
    true_costs: tuple[float, ...]  # realized c_t(x_t, u_t, theta_star)
    total_true_cost: float


def _run_generator(seed: int, run: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, run], dtype=np.uint64)))


def _draw_state(rng: np.random.Generator, probs: np.ndarray, states: Sequence[str]) -> str:
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    u = rng.random()
    return states[int(np.searchsorted(cdf, u, side="right"))]


def simulate_runs(
    m: ModelSpec, pol: HistoryPolicy, theta_star: str, runs: int, seed: int
) -> list[Trajectory]:
    """Roll the policy `runs` times with transitions drawn from theta_star's kernel.

    The belief trace is the decision maker's posterior, which does not know
    theta_star; costs are charged at the true parameter.
    """
    i_star = m.param_index(theta_star)
    if runs < 1:
        raise DomainError(f"runs must be >= 1, got {runs}")
    out: list[Trajectory] = []
    for r in range(runs):
        rng = _run_generator(seed, r)
        hist: tuple[str, ...] = (m.initial_state,)
        xi = m.prior
        beliefs: list[Belief] = []
        actions: list[str] = []
        costs: list[float] = []
        for t in range(1, m.horizon + 1):
            x = hist[-1]
            u, j, k = _policy_step(m, pol, hist)
            beliefs.append(xi)
            actions.append(u)
            costs.append(float(m.cost[t - 1, j, k, i_star]))
            row = m.kernel[i_star, j, k]
            y = _draw_state(rng, row, m.states)
            xi = bayes_update(m, xi, x, u, y)
            hist = hist + (y,)
        out.append(Trajectory(
            states=hist,
            actions=tuple(actions),
            beliefs=tuple(beliefs),
            true_costs=tuple(costs),
            total_true_cost=float(sum(costs)),
        ))
    return out


def summarize(trajectories: Sequence[Trajectory], theta_star: str) -> dict:
    """Per-stage means of realized cost and of the posterior mass on theta_star,
    plus the mean and standard deviation of the total realized cost."""
    if not trajectories:
        raise DomainError("summarize needs at least one trajectory")
    horizon = len(trajectories[0].actions)
    per_t = []
    for t in range(1, horizon + 1):
        costs = np.array([tr.true_costs[t - 1] for tr in trajectories])
        mass = np.array([tr.beliefs[t - 1].mass(theta_star) for tr in trajectories])
        per_t.append({
            "t": t,
            "mean_true_cost": float(costs.mean()),
            "mean_posterior_theta_star": float(mass.mean()),
        })
    totals = np.array([tr.total_true_cost for tr in trajectories])
    return {
        "theta_star": theta_star,
        "runs": len(trajectories),
        "per_t": per_t,
        "total_mean": float(totals.mean()),
        "total_std": float(totals.std(ddof=0)),
    }


def trajectories_to_csv(trajectories: Sequence[Trajectory], m: ModelSpec) -> str:
    """One row per (run, t): run, t, state, action, true_cost, then belief columns."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["run", "t", "state", "action", "true_cost"]
                    + [f"belief_{p}" for p in m.parameters])
    for r, tr in enumerate(trajectories):
        for t in range(1, len(tr.actions) + 1):
            writer.writerow(
                [r, t, tr.states[t - 1], tr.actions[t - 1], repr(tr.true_costs[t - 1])]
                + [repr(float(w)) for w in tr.beliefs[t - 1].weights])
    return buf.getvalue()


def summary_to_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True)
