"""Model validation against the per-row reference loops.

The reference is the validation _validate_raw replaced: one Python loop
over the kernel rows, one over the (t, state) pairs with no admissible
action, and one over the (x, u, y) triples with zero prior-predictive
probability. On a fixed fuzz of broken and valid models, the array masks
must give the same Issue list: same findings, same order, same messages.
"""

import numpy as np

from riskmdp import Belief, ModelSpec
from riskmdp.model import STOCHASTIC_TOL, Issue, _validate_raw


def reference_validate_raw(m: ModelSpec, prior_vec: np.ndarray) -> list[Issue]:
    issues: list[Issue] = []

    def err(code, msg):
        issues.append(Issue("error", code, msg))

    def warn(code, msg):
        issues.append(Issue("warning", code, msg))

    # A code-built model can carry arrays or a prior that do not fit its
    # labels; the checks below would index them wrongly, so stop here.
    n_s, n_a, n_p, h = len(m.states), len(m.actions), len(m.parameters), m.horizon
    if m.prior.params != m.parameters:
        err("prior", f"prior is over parameters {m.prior.params}, not {m.parameters}")
    shapes = [("kernel", m.kernel, (n_p, n_s, n_a, n_s))]
    if h >= 1:  # below 1 the horizon error stands for the time axis
        shapes += [("cost", m.cost, (h, n_s, n_a, n_p)), ("admissible", m.admissible, (h, n_s, n_a))]
    for name, a, shape in shapes:
        if a.shape != shape:
            err(name, f"{name} has shape {a.shape}, expected {shape}")
    if issues:
        return issues

    if m.horizon < 1:
        err("horizon", f"horizon must be >= 1, got {m.horizon}")
    if m.initial_state not in m.states:
        err("initial_state", f"initial_state {m.initial_state!r} not in states")

    if np.any(prior_vec < 0) or not np.all(np.isfinite(prior_vec)):
        err("prior", "prior weights must be finite and nonnegative")
    else:
        s = float(prior_vec.sum())
        if abs(s - 1.0) > STOCHASTIC_TOL:
            err("prior", f"prior not a distribution: sums to {s!r}")
        elif not np.any(prior_vec > 0):
            err("prior", "prior has empty support")

    for i, th in enumerate(m.parameters):
        for j, x in enumerate(m.states):
            for k, u in enumerate(m.actions):
                row = m.kernel[i, j, k]
                if np.any(row < 0) or not np.all(np.isfinite(row)):
                    err("kernel", f"kernel row not stochastic: negative or non-finite entry at ({th}, {x}, {u})")
                    continue
                s = float(row.sum())
                if abs(s - 1.0) > STOCHASTIC_TOL:
                    err("kernel", f"kernel row not stochastic: ({th}, {x}, {u}) sums to {s!r}")

    if m.horizon >= 1:
        if np.any(m.cost < 0) or not np.all(np.isfinite(m.cost)):
            bad = np.argwhere((m.cost < 0) | ~np.isfinite(m.cost))
            t, j, k, i = bad[0]
            err("cost", f"costs must be finite and nonnegative; first violation at "
                        f"(t={t + 1}, {m.states[j]}, {m.actions[k]}, {m.parameters[i]})")
        for t in range(1, m.horizon + 1):
            for j, x in enumerate(m.states):
                if not m.admissible[t - 1, j].any():
                    err("admissible", f"empty admissible action set at (t={t}, {x})")

    # Transitions unreachable under the prior-weighted predictive kernel get a warning.
    if not any(i.severity == "error" for i in issues):
        prior_n = prior_vec / prior_vec.sum()
        ever_admissible = m.admissible.any(axis=0)
        for j, x in enumerate(m.states):
            for k, u in enumerate(m.actions):
                if not ever_admissible[j, k]:
                    continue
                pred = prior_n @ m.kernel[:, j, k, :]
                for l, y in enumerate(m.states):
                    if pred[l] == 0.0:
                        warn("unreachable", f"transition ({x}, {u}, {y}) has zero prior-predictive probability")
    return issues


BAD_ENTRIES = [np.nan, np.inf, -np.inf, -0.25, -1e-300]
# Row scales: within the 1e-12 tolerance, just outside it, and far off.
ROW_SCALES = [1.0 + 4e-13, 1.0 - 4e-13, 1.0 + 3e-12, 1.0 - 3e-12, 0.5, 2.0, 0.0]


def _stochastic(rng, shape, support):
    """Random rows over `shape`'s last axis, zero outside `support`, each divided by its sum."""
    w = rng.random(shape) * support
    w[..., 0] += ~support.any(axis=-1)  # a row with empty support puts its mass on the first state
    return w / w.sum(axis=-1, keepdims=True)


def fuzz_model(rng) -> tuple[ModelSpec, np.ndarray]:
    """One model with its raw prior vector, as parse_model hands them to _validate_raw.

    About half the models are valid and have kernels whose zero entries line
    up across parameters, so they carry unreachable warnings; the rest break
    one or more invariants.
    """
    n_s = int(rng.integers(9, 13)) if rng.random() < 0.05 else int(rng.integers(1, 4))
    n_a, n_p, h = (int(v) for v in rng.integers(1, 4, size=3))
    if rng.random() < 0.03:
        h = 0
    states = tuple(f"s{i}" for i in range(n_s))
    actions = tuple(f"a{i}" for i in range(n_a))
    params = tuple(f"th{i}" for i in range(n_p))
    broken = rng.random() < 0.5

    # Zero entries shared by every parameter make unreachable transitions.
    shared = rng.random((1, n_s, n_a, n_s)) < 0.6
    own = rng.random((n_p, n_s, n_a, n_s)) < rng.choice([0.0, 0.3])
    kernel = _stochastic(rng, (n_p, n_s, n_a, n_s), shared | own)
    prior = rng.integers(0, 4, size=n_p).astype(float)
    prior[rng.integers(n_p)] += 1.0
    prior = prior / prior.sum()
    cost = rng.integers(0, 5, size=(max(h, 0), n_s, n_a, n_p)) * 0.5
    admissible = rng.random((max(h, 0), n_s, n_a)) < 0.8
    admissible[np.arange(admissible.shape[0])[:, None], np.arange(n_s), rng.integers(n_a, size=n_s)] = True
    initial = states[int(rng.integers(n_s))]

    # Scaling a row that already holds inf by 0.0 makes a NaN, as intended.
    with np.errstate(invalid="ignore"):
        for _ in range(int(rng.integers(1, 4)) if broken else 0):
            what = rng.integers(8)
            flat = kernel.reshape(-1, n_s)
            r = rng.integers(len(flat), size=int(rng.integers(1, 4)))
            if what == 0:
                flat[r, rng.integers(n_s, size=len(r))] = rng.choice(BAD_ENTRIES, size=len(r))
            elif what == 1:
                flat[r] *= rng.choice(ROW_SCALES, size=len(r))[:, None]
            elif what == 2:
                prior[rng.integers(n_p)] = rng.choice(BAD_ENTRIES)
            elif what == 3:
                prior *= rng.choice(ROW_SCALES)
            elif what == 4 and h >= 1:
                cost[tuple(rng.integers(d) for d in cost.shape)] = rng.choice(BAD_ENTRIES)
            elif what == 5 and h >= 1:
                admissible[rng.integers(h), rng.integers(n_s)] = False
            elif what == 6:
                initial = "nowhere"
            elif what == 7 and rng.random() < 0.3:
                cost = np.concatenate([cost, cost[..., :1]], axis=3)  # one column too many
    placeholder = Belief.uniform(params if rng.random() > 0.01 else params + ("extra",))
    if rng.random() < 0.1:
        kernel = np.asfortranarray(kernel)
    m = ModelSpec(horizon=h, states=states, actions=actions, parameters=params, prior=placeholder,
                  kernel=kernel, cost=cost, initial_state=initial, admissible=admissible)
    return m, prior


def test_validation_matches_the_reference():
    rng = np.random.default_rng(20261019)
    codes: dict[str, int] = {}
    for _ in range(3000):
        m, prior = fuzz_model(rng)
        issues = _validate_raw(m, prior)
        assert issues == reference_validate_raw(m, prior)
        for code in {i.code for i in issues}:
            codes[code] = codes.get(code, 0) + 1
    assert codes["unreachable"] >= 500
    assert min(codes[c] for c in ("prior", "kernel", "cost", "admissible", "initial_state", "horizon")) >= 30
