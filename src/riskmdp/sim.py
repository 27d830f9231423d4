"""Monte-Carlo rollout of a policy under a designated true parameter.

Randomness comes from the Philox4x64-10 counter-based generator (Salmon,
Moraes, Dror & Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC 2011)
with one substream per run, keyed by (seed, run index), so runs are
reproducible independently of execution order. Because a block of the
stream is a pure function of (key, counter), the draws of all runs are
computed together by one uint64 array kernel, bit for bit the stream of
numpy's `Philox(key=(seed, run))`. Next states are drawn by inverse CDF
over the declared state order. Because no run depends on another, all runs
advance together, one time step at a time, as arrays over runs; runs that
share a history are advanced as one. Each distinct history carries its
trajectory record, which its children extend. The CSV and the summary,
too, are formatted once per distinct history, that is once per distinct
Trajectory object, and then laid out per run.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .belief import _bayes_rows, _zero_probability
from .engine import HistoryPolicy, QuasiMarkovPolicy, _policy_step, to_history_policy
from .errors import DomainError, RiskMdpError
from .model import Belief, ModelSpec


@dataclass(frozen=True)
class Trajectory:
    states: tuple[str, ...]  # x_1 .. x_{T+1 or T}; length horizon+1 when horizon>=1
    actions: tuple[str, ...]  # u_1 .. u_T
    beliefs: tuple[Belief, ...]  # xi_1 .. xi_T, the belief held when acting
    true_costs: tuple[float, ...]  # realized c_t(x_t, u_t, theta_star)
    total_true_cost: float


# Philox4x64-10 as numpy's Philox computes it: the round multipliers, the
# key bumps (Weyl constants) and the uint64 operands of shifts and masks.
# Every operand is a np.uint64, so numpy 1.x promotion keeps uint64, and
# every wrapping product or sum is an array operation, which does not warn.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_ROUNDS = 10
_LO32, _32, _11 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(11)
# Runs drawn per kernel call, which bounds the kernel's temporaries.
_CHUNK_RUNS = 8192


def _mulhilo(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of the 128-bit products a * b, built from 32-bit halves."""
    a_lo, a_hi, b_lo, b_hi = a & _LO32, a >> _32, b & _LO32, b >> _32
    t = a_hi * b_lo + ((a_lo * b_lo) >> _32)
    u = a_lo * b_hi + (t & _LO32)
    return a_hi * b_hi + (t >> _32) + (u >> _32), a * b


def _philox_words(seed: int, first_run: int, runs: int, blocks: int) -> np.ndarray:
    """Row i: the words of blocks 1..blocks of run first_run + i's stream, in order.

    Block b is Philox4x64-10 of the counter (b, 0, 0, 0) under the key
    (seed, run). The counter words are kept as their even (0, 2) and odd
    (1, 3) pairs, each a (2, runs, blocks) array.
    """
    key = np.empty((2, runs, 1), dtype=np.uint64)
    key[0] = np.uint64(seed)
    key[1, :, 0] = np.arange(first_run, first_run + runs, dtype=np.uint64)
    even = np.zeros((2, runs, blocks), dtype=np.uint64)
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)
    for i in range(_PHILOX_ROUNDS):
        if i:
            key += _PHILOX_W
        hi, lo = _mulhilo(_PHILOX_M, even)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    return np.stack((even[0], odd[0], even[1], odd[1]), axis=-1).reshape(runs, 4 * blocks)


def _run_uniforms(seed: int, runs: int, horizon: int) -> np.ndarray:
    """Row r holds the first `horizon` doubles of the Philox stream keyed by (seed, r).

    The stream is that of numpy's Philox(key=(seed, r)), computed for all
    runs at once, _CHUNK_RUNS runs at a time: Philox4x64-10 (Salmon et al.
    2011) under the key (seed, r), block b = 1..ceil(horizon/4) at the
    counter (b, 0, 0, 0), since numpy increments the counter before it fills
    each buffer; ten rounds with multipliers 0xD2E7470EE14C6C93 and
    0xCA5A826395121157 and key bumps 0x9E3779B97F4A7C15 and
    0xBB67AE8584CAA73B. A block's four words are used in order, and each
    word w becomes the double (w >> 11) * 2**-53, as Generator.random makes it.
    """
    blocks = -(-horizon // 4)
    out = np.empty((runs, horizon))
    for r in range(0, runs, _CHUNK_RUNS):
        n = min(_CHUNK_RUNS, runs - r)
        out[r:r + n] = (_philox_words(seed, r, n, blocks)[:, :horizon] >> _11) * 2.0 ** -53
    return out


def _first_failing_run(failed: Sequence[bool], at: np.ndarray) -> int | None:
    """The lowest run whose history (its index into `failed`, in `at`) failed, if any."""
    bad = np.flatnonzero(np.asarray(failed, dtype=bool)[at])
    return int(bad[0]) if bad.size else None


def _try(fn: Callable, *args):
    """fn(*args), or the RiskMdpError it raised."""
    try:
        return fn(*args)
    except RiskMdpError as e:
        return e


def simulate_runs(
    m: ModelSpec, pol: HistoryPolicy | QuasiMarkovPolicy, theta_star: str, runs: int, seed: int
) -> list[Trajectory]:
    """Roll the policy `runs` times with transitions drawn from theta_star's kernel.

    The belief trace is the decision maker's posterior, which does not know
    theta_star, updated incrementally along each run; costs are charged at
    the true parameter. A quasi-Markov policy is unfolded into its history
    policy first. When runs fail, the first error of the lowest-index failing
    run is raised, as if the runs were rolled one after another.

    Runs that share a history share its action, its posterior and in the
    end its trajectory. So each step looks up the policy and updates the
    belief once per distinct history; only the draws are made per run.
    """
    i_star = m.param_index(theta_star)
    if runs < 1:
        raise DomainError(f"runs must be >= 1, got {runs}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 2**64:
        raise DomainError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    if m.prior.params != m.parameters:
        raise DomainError("belief is not over this model's parameters")
    if isinstance(pol, QuasiMarkovPolicy):
        pol = to_history_policy(pol, m)
    horizon, params, states, actions = m.horizon, m.parameters, m.states, m.actions
    draws = _run_uniforms(seed, runs, horizon)
    # A state is drawn as the number of CDF entries <= u, which is
    # searchsorted(cdf, u, side="right"). An invalid kernel row, such as
    # [inf, -inf], may make NaN entries; the posterior's weight check rejects it.
    with np.errstate(invalid="ignore"):
        cdf = np.cumsum(m.kernel[i_star], axis=-1)
    cdf[..., -1] = 1.0

    # The distinct histories at time t: each one's states, its steps so far
    # as (action, belief held, cost charged) triples, its last state,
    # posterior weights and Belief; run r is at history at[r]. Runs [0, n)
    # are still rolling, and error is the first error of run n.
    hists, steps = [(m.initial_state,)], [()]
    x = np.array([m.state_index(m.initial_state)])
    weights, beliefs = m.prior.weights[None, :], [m.prior]
    at = np.zeros(runs, dtype=np.intp)
    n, error = runs, None
    for t in range(1, horizon + 1):
        decided = [_try(_policy_step, m, pol, h) for h in hists]
        failed = [isinstance(d, RiskMdpError) for d in decided]
        f = _first_failing_run(failed, at)
        if f is not None:
            n, error, at = f, decided[at[f]], at[:f]
        k = np.array([0 if bad else d[2] for d, bad in zip(decided, failed)], dtype=np.intp)
        y = (cdf[x[at], k[at]] <= draws[:n, t - 1, None]).sum(axis=1)
        taken = [None if bad else (d[0], b, c) for d, bad, b, c
                 in zip(decided, failed, beliefs, m.cost[t - 1, x, k, i_star].tolist())]

        nxt, at = np.unique(at * len(states) + y, return_inverse=True)
        parent, y = np.divmod(nxt, len(states))
        post, zero, bad_rows = _bayes_rows(m, weights[parent], x[parent], k[parent], y)
        errors = [_zero_probability(states[x[p]], actions[k[p]], states[l]) if z else bad_rows.get(i)
                  for i, (p, l, z) in enumerate(zip(parent.tolist(), y.tolist(), zero.tolist()))]
        f = _first_failing_run([e is not None for e in errors], at)
        if f is not None:
            n, error = f, errors[at[f]]
            kept, at = np.unique(at[:f], return_inverse=True)
            parent, y, post = parent[kept], y[kept], post[kept]

        hists = [hists[p] + (states[l],) for p, l in zip(parent.tolist(), y.tolist())]
        steps = [steps[p] + (taken[p],) for p in parent.tolist()]
        x, weights = y, post
        weights.setflags(write=False)
        beliefs = [Belief._normalized(params, w) for w in weights]
        if n == 0:
            break
    if error is not None:
        raise error

    # Each final history makes one trajectory, shared by the runs that reached it.
    trajectories = []
    for hist, record in zip(hists, steps):
        taken, held, costs = zip(*record) if record else ((), (), ())
        trajectories.append(Trajectory(states=hist, actions=taken, beliefs=held, true_costs=costs,
                                       total_true_cost=float(sum(costs))))
    return [trajectories[d] for d in at.tolist()]


def _distinct(trajectories: Sequence[Trajectory]) -> tuple[list[Trajectory], list[int]]:
    """The distinct trajectory objects, in order of first run, and each run's index into them."""
    index: dict[int, int] = {}
    at = [index.setdefault(id(tr), len(index)) for tr in trajectories]
    return list({id(tr): tr for tr in trajectories}.values()), at


def summarize(trajectories: Sequence[Trajectory], theta_star: str) -> dict:
    """Per-stage means of realized cost and of the posterior mass on theta_star,
    plus the mean and standard deviation of the total realized cost.

    Each value is read once per distinct trajectory object and gathered by
    run, so numpy reduces the same per-run arrays as reading every run would.
    """
    if not trajectories:
        raise DomainError("summarize needs at least one trajectory")
    uniq, at = _distinct(trajectories)
    at = np.array(at, dtype=np.intp)
    horizon = len(trajectories[0].actions)
    per_t = []
    for t in range(1, horizon + 1):
        costs = np.array([tr.true_costs[t - 1] for tr in uniq])[at]
        mass = np.array([tr.beliefs[t - 1].mass(theta_star) for tr in uniq])[at]
        per_t.append({
            "t": t,
            "mean_true_cost": float(costs.mean()),
            "mean_posterior_theta_star": float(mass.mean()),
        })
    totals = np.array([tr.total_true_cost for tr in uniq])[at]
    return {
        "theta_star": theta_star,
        "runs": len(trajectories),
        "per_t": per_t,
        "total_mean": float(totals.mean()),
        "total_std": float(totals.std(ddof=0)),
    }


def _csv_line(fields: Sequence) -> str:
    """One row as csv.writer writes it, ending in a newline."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


def trajectories_to_csv(trajectories: Sequence[Trajectory], m: ModelSpec) -> str:
    """One row per (run, t): run, t, state, action, true_cost, then belief columns.

    Each distinct trajectory object's rows are formatted once, without the
    run column, and each run's rows are its run index joined across them.
    A label is written as csv.writer writes it, so the quoting is the
    writer's; floats are written by repr, which never needs quoting.
    """
    cells: dict = {}

    def cell(label) -> str:
        """A comma, then the label as csv.writer writes it after another field."""
        if label not in cells:
            cells[label] = _csv_line(("", label))[:-1]
        return cells[label]

    def tails(tr: Trajectory) -> list[str]:
        """tr's rows, each without its run column."""
        return [f",{t}{cell(tr.states[t - 1])}{cell(tr.actions[t - 1])},"
                + ",".join([repr(tr.true_costs[t - 1]), *map(repr, tr.beliefs[t - 1].weights.tolist())]) + "\n"
                for t in range(1, len(tr.actions) + 1)]

    uniq, at = _distinct(trajectories)
    rows = [tails(tr) for tr in uniq]
    out = [_csv_line(["run", "t", "state", "action", "true_cost"] + [f"belief_{p}" for p in m.parameters])]
    for r, d in enumerate(at):
        if rows[d]:
            run = str(r)
            out.append(run + run.join(rows[d]))
    return "".join(out)


def summary_to_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True)
