"""Model specification: parsing, validation, serialization, and instance generators.

A model describes a finite-horizon controlled Markov chain whose transition
kernel and stage costs depend on an unknown parameter theta drawn from a
finite set, together with a prior belief over that set. Times are 1-based:
decisions happen at t = 1..horizon.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, SchemaError, ValidationError

STOCHASTIC_TOL = 1e-12

_MODEL_FIELDS = {
    "horizon", "states", "actions", "parameters", "prior",
    "kernel", "cost", "initial_state", "admissible",
}
_REQUIRED_FIELDS = _MODEL_FIELDS - {"admissible"}


_BAD_WEIGHTS = "belief weights must be finite and nonnegative"
_NONPOSITIVE_SUM = "cannot normalize a vector with nonpositive sum"
_NOT_CONVERGED = "normalization did not converge"
_WALK_STEPS = 64
# Bound on the trial entries _walk holds at once, (_WALK_STEPS + 1) * m per
# row of length m. At 1 << 17 a dose-finding build with 17 parameters at T=9
# ran 12% faster, but a dose-finding T=9 solve and export with 3 parameters
# peaked about 0.6 MiB higher.
_WALK_ENTRIES = 1 << 15


def _row_sum(cols: np.ndarray) -> np.ndarray:
    """The row sums of a C-contiguous 2-D array, given its columns, with the bits of sum(axis=-1).

    cols[j] is column j: cols is rows.T, or any array whose first axis runs
    over the columns, and the rest of its shape is the shape of the sums.
    The columns are added in numpy's order for one row of length n: a left
    fold from +0.0 below 8; from 8 to 128, eight accumulators, accumulator i
    taking columns i, i + 8, ..., combined as ((r0 + r1) + (r2 + r3)) +
    ((r4 + r5) + (r6 + r7)), then the last n % 8 columns folded on; above
    128, the sum of the first n2 columns plus the sum of the others, n2 being
    n // 2 rounded down to a multiple of 8. numpy adds the result to +0.0,
    which changes only a -0.0. Each step is one array add over all rows, so
    a few columns cost a few adds, not a reduction.
    """
    n = len(cols)
    if n < 8:
        acc = np.zeros(cols.shape[1:])
        for col in cols:
            acc += col
        return acc
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _row_sum(cols[:half]) + _row_sum(cols[half:])
    r = list(cols[:8])
    for i in range(8, n - n % 8, 8):
        r = [a + b for a, b in zip(r, cols[i:i + 8])]
    acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for col in cols[n - n % 8:]:
        acc = acc + col
    return acc + 0.0


def _normalize_exact(vec: np.ndarray) -> np.ndarray:
    """Scale a nonnegative vector to sum to exactly 1.0.

    After the division the float sum can still be a few ulp off. The residual
    is first folded into the largest coordinate in one stride; if the sum
    still misses 1.0, _walk moves single coordinates by single ulp. Zero
    coordinates are never touched, which keeps supports intact.
    """
    out = np.asarray(vec, dtype=float).copy()
    s = float(out.sum())
    if s <= 0.0 or not math.isfinite(s):
        raise DomainError(_NONPOSITIVE_SUM)
    if s != 1.0:
        out = out / s
    j = int(np.argmax(out))
    for _ in range(4):
        d = 1.0 - float(out.sum())
        if d == 0.0:
            return out
        out[j] += d
    walked, failed = _walk(out[None])
    if failed[0]:
        raise DomainError(_NOT_CONVERGED)
    return walked[0]


def _walk(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Land the sum of each folded row on exactly 1.0 by moving one coordinate.

    The residual is within a few ulp, but a single coordinate's ulp lattice
    can straddle 1.0 without touching it. So the positive coordinates are
    tried in turn, largest first (stable order), each walked up to
    _WALK_STEPS ulp from its folded value toward the residual's sign, and
    restored when no value on the way gives an exact sum. Their lattices
    have different granularities, so usually one of them lands exactly.

    Returns the walked rows and a mask of the rows no coordinate lands,
    which come back unchanged. The walk goes rank by rank: every pending
    row tries its coordinate of that rank at all steps at once, and the
    rows that land leave. That gives what walking one coordinate and one
    step after another gives: each coordinate starts from the same folded
    row, and the computed sum is monotone in the walked coordinate, so a
    walk succeeds exactly when one of its values gives 1.0, and stops at
    the first. A walk that overshoots 1.0 only oscillates around it. Each
    trial sum is _row_sum of the trial row's columns, the float of summing
    that row on its own. Rows are walked in chunks of at most
    _WALK_ENTRIES // ((_WALK_STEPS + 1) * m), so the trial array holds at
    most _WALK_ENTRIES entries.
    """
    rows = np.array(rows, dtype=float)
    n, m = rows.shape
    chunk = max(1, _WALK_ENTRIES // ((_WALK_STEPS + 1) * m))
    if n > chunk:
        parts = [_walk(rows[lo:lo + chunk]) for lo in range(0, n, chunk)]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])
    up = 1.0 - _row_sum(rows.T) > 0.0
    order = np.argsort(-rows, axis=1, kind="stable")
    pending, failed = np.arange(n), np.ones(n, dtype=bool)
    for rank in range(m):
        c = order[pending, rank]
        # Later ranks hold no larger coordinates, so a row whose coordinate
        # here is zero has none left to walk.
        positive = rows[pending, c] > 0.0
        pending, c = pending[positive], c[positive]
        if not pending.size:
            break
        # cand[i, k]: the coordinate after k ulp steps; trial[i, :, k]: the row with it.
        cand = _ulp_steps(rows[pending, c], up[pending])
        trial = np.repeat(rows[pending][:, :, None], _WALK_STEPS + 1, axis=2)
        trial[np.arange(len(pending)), c] = cand
        hit = _row_sum(trial.transpose(1, 0, 2)) == 1.0
        done = hit.any(axis=1)
        rows[pending[done], c[done]] = cand[done, hit[done].argmax(axis=1)]
        failed[pending[done]] = False
        pending = pending[~done]
    return rows, failed


def _ulp_steps(x: np.ndarray, up: np.ndarray) -> np.ndarray:
    """[i, k]: x[i] after k = 0.._WALK_STEPS calls of np.nextafter, upward where up[i].

    For a nonnegative float, k ulp steps up add k to its bits read as an
    integer and k steps down subtract k. Below +0.0 the steps go on through
    the negative floats, whose bits are the sign bit plus the magnitude.
    Entries with the sign bit set come out wrong; _walk uses only the
    candidates of positive coordinates.
    """
    k = np.arange(_WALK_STEPS + 1) * np.where(up, 1, -1)[:, None]
    bits = np.ascontiguousarray(x, dtype=float).view(np.int64)[:, None] + k
    return np.where(bits >= 0, bits, np.iinfo(np.int64).min - bits).view(np.float64)


def _row_sums(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weight check for each row of a 2-D array: (rows, bad, sums).

    rows is the array read C-contiguous as floats, bad masks the rows with
    a negative or non-finite entry, and sums[i] is the sum of row i, 0.0
    for a bad row. Only rows that pass the check are summed, so no NaN or
    infinite entry raises a RuntimeWarning, and each sum is the float of
    summing that row on its own. A finite row may still sum to inf, which
    callers judge as a sum. Both run a column at a time.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    ok = np.ones(len(rows), dtype=bool)
    for col in ((rows >= 0.0) & (rows < np.inf)).T:  # False at a NaN
        ok &= col
    with np.errstate(over="ignore"):
        return rows, ~ok, _row_sum(np.where(ok[:, None], rows, 0.0).T)


def _normalize_rows_each(rows: np.ndarray) -> tuple[np.ndarray, dict[int, DomainError]]:
    """Belief(params, row).weights for each row of a 2-D array, bit for bit, without raising.

    Returns the rows and {row index: the DomainError Belief raises on that
    row}: a row _row_sums marks bad is a weight error, and the other rows
    get the error _normalize_exact raises. Those rows come back as they
    were. The divide, the argmax fold and the walk each run on all rows at
    once.
    """
    rows, bad, s = _row_sums(rows)
    ok = (s > 0.0) & np.isfinite(s)
    # x / 1.0 == x, so rows that already sum to 1.0 come through unchanged.
    out = rows / np.where(ok, s, 1.0)[:, None]
    r = np.flatnonzero(ok)
    j = None
    for _ in range(4):
        if not r.size:
            break
        d = 1.0 - _row_sum(out[r].T)
        live = d != 0.0
        r, d = r[live], d[live]
        # Each row's largest coordinate, first of equals, taken only for the
        # rows that miss 1.0 after the divide (about a fifth of them in the
        # dose model's big levels), before any fold changes them.
        j = out[r].argmax(axis=1) if j is None else j[live]
        out[r, j] += d
    errors = {i: DomainError(_BAD_WEIGHTS if b else _NONPOSITIVE_SUM)
              for i, b in zip(np.flatnonzero(~ok).tolist(), bad[~ok].tolist())}
    if r.size:
        out[r], failed = _walk(out[r])
        r = r[failed]
        out[r] = rows[r]
        errors.update((i, DomainError(_NOT_CONVERGED)) for i in r.tolist())
    return out, errors


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Belief(params, row).weights for each row of a 2-D array, bit for bit.

    The first row Belief would reject raises its DomainError, as building
    Beliefs from the rows in order would.
    """
    out, errors = _normalize_rows_each(rows)
    if errors:
        raise errors[min(errors)]
    return out


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Issue:
    """One validation finding. severity is 'error' or 'warning'."""
    severity: str
    code: str
    message: str


@dataclass(frozen=True, eq=False)
class Belief:
    """Probability weights over the model's parameter labels, in declared order."""

    params: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(self.params),):
            raise DomainError("belief weight vector does not match parameter labels")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise DomainError(_BAD_WEIGHTS)
        object.__setattr__(self, "weights", _readonly(_normalize_exact(w)))

    @classmethod
    def _normalized(cls, params: tuple[str, ...], weights: np.ndarray) -> "Belief":
        """Wrap read-only weights that _normalize_exact already produced.

        Skips the checks and the normalization, which would return the
        weights unchanged.
        """
        b = object.__new__(cls)
        object.__setattr__(b, "params", params)
        object.__setattr__(b, "weights", weights)
        return b

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, float], params: Sequence[str] | None = None) -> "Belief":
        if params is None:
            params = tuple(mapping.keys())
        missing = set(mapping) - set(params)
        if missing:
            raise DomainError(f"belief names unknown parameters: {sorted(missing)}")
        w = np.array([float(mapping.get(p, 0.0)) for p in params])
        return cls(tuple(params), w)

    @classmethod
    def uniform(cls, params: Sequence[str]) -> "Belief":
        n = len(params)
        return cls(tuple(params), np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, params: Sequence[str], theta: str) -> "Belief":
        if theta not in params:
            raise DomainError(f"unknown parameter label {theta!r}")
        w = np.array([1.0 if p == theta else 0.0 for p in params])
        return cls(tuple(params), w)

    def mass(self, theta: str) -> float:
        try:
            return float(self.weights[self.params.index(theta)])
        except ValueError:
            raise DomainError(f"unknown parameter label {theta!r}") from None

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(p for p, w in zip(self.params, self.weights) if w > 0.0)

    def as_dict(self) -> dict[str, float]:
        return {p: float(w) for p, w in zip(self.params, self.weights)}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Belief)
            and self.params == other.params
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}={w:.6g}" for p, w in zip(self.params, self.weights))
        return f"Belief({inner})"


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Immutable model description.

    kernel has shape (n_params, n_states, n_actions, n_states) and
    kernel[i, x, u, y] = P_theta_i(next=y | state=x, action=u).
    cost has shape (horizon, n_states, n_actions, n_params), time index 0-based
    internally for t = 1..horizon. admissible is a boolean array of shape
    (horizon, n_states, n_actions); every (t, state) row must be nonempty for
    the model to validate.
    """

    horizon: int
    states: tuple[str, ...]
    actions: tuple[str, ...]
    parameters: tuple[str, ...]
    prior: Belief
    kernel: np.ndarray
    cost: np.ndarray
    initial_state: str
    admissible: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.admissible is None:
            adm = np.ones((max(self.horizon, 0), len(self.states), len(self.actions)), dtype=bool)
            object.__setattr__(self, "admissible", adm)
        object.__setattr__(self, "kernel", _readonly(self.kernel))
        object.__setattr__(self, "cost", _readonly(self.cost))
        adm = np.asarray(self.admissible, dtype=bool)
        adm.setflags(write=False)
        object.__setattr__(self, "admissible", adm)

    # label/index helpers
    def state_index(self, x: str) -> int:
        try:
            return self.states.index(x)
        except ValueError:
            raise DomainError(f"unknown state label {x!r}") from None

    def action_index(self, u: str) -> int:
        try:
            return self.actions.index(u)
        except ValueError:
            raise DomainError(f"unknown action label {u!r}") from None

    def param_index(self, theta: str) -> int:
        try:
            return self.parameters.index(theta)
        except ValueError:
            raise DomainError(f"unknown parameter label {theta!r}") from None

    def is_admissible(self, t: int, x: str, u: str) -> bool:
        self._check_time(t)
        return bool(self.admissible[t - 1, self.state_index(x), self.action_index(u)])

    def admissible_actions(self, t: int, x: str) -> tuple[str, ...]:
        """Admissible actions at (t, x), in declared action order."""
        self._check_time(t)
        row = self.admissible[t - 1, self.state_index(x)]
        return tuple(u for u, ok in zip(self.actions, row) if ok)

    def kernel_row(self, theta: str, x: str, u: str) -> np.ndarray:
        return self.kernel[self.param_index(theta), self.state_index(x), self.action_index(u)]

    def cost_vector(self, t: int, x: str, u: str) -> np.ndarray:
        """Stage cost at (t, x, u) as a vector over parameters in declared order."""
        self._check_time(t)
        return self.cost[t - 1, self.state_index(x), self.action_index(u)]

    def _check_time(self, t: int) -> None:
        if not 1 <= t <= self.horizon:
            raise DomainError(f"time {t} outside 1..{self.horizon}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModelSpec)
            and self.horizon == other.horizon
            and self.states == other.states
            and self.actions == other.actions
            and self.parameters == other.parameters
            and self.prior == other.prior
            and np.array_equal(self.kernel, other.kernel)
            and np.array_equal(self.cost, other.cost)
            and self.initial_state == other.initial_state
            and np.array_equal(self.admissible, other.admissible)
        )


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _label_list(raw, name: str) -> tuple[str, ...]:
    _expect(isinstance(raw, list) and raw, f"{name} must be a nonempty list")
    _expect(all(isinstance(s, str) and s for s in raw), f"{name} entries must be nonempty strings")
    _expect(len(set(raw)) == len(raw), f"{name} entries must be unique")
    return tuple(raw)


class _Axis(NamedTuple):
    """One level of a nested table: what its keys name, the declared labels,
    and how an error message names a key outside them."""
    name: str
    labels: tuple[str, ...]
    unknown: str


def _entries(raw, where: str, axes: Sequence[_Axis], required: int) -> Iterator[tuple[tuple[int, ...], object, str]]:
    """Yield (index tuple, leaf, path) for each leaf of a table nested along axes.

    Every level must be an object whose keys are labels of its axis; the
    first `required` levels must name every label, deeper ones may leave
    labels out. Leaves come in declared label order and are not checked.
    """
    axis, rest = axes[0], axes[1:]
    _expect(isinstance(raw, dict), f"{where} must be an object keyed by {axis.name}")
    if required > 0:
        missing = next((label for label in axis.labels if label not in raw), None)
        _expect(missing is None, f"{where} missing {axis.name} {missing!r}")
    unknown = set(raw) - set(axis.labels)
    _expect(not unknown, f"{where} names {axis.unknown}: {sorted(unknown)}")
    for i, label in enumerate(axis.labels):
        if label not in raw:
            continue
        path = f"{where}[{label!r}]"
        if not rest:
            yield (i,), raw[label], path
            continue
        for idx, leaf, leaf_path in _entries(raw[label], path, rest, required - 1):
            yield (i, *idx), leaf, leaf_path


def _number(v, path: str) -> float:
    """v as a float; a bool, a non-number or an int beyond float range is a SchemaError."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            return float(v)
        except OverflowError:
            pass
    raise SchemaError(f"{path} must be a number")


def _json_doc(source, error: str):
    """source decoded as JSON if it is a string, else source itself; bad JSON
    is a SchemaError that starts with `error`."""
    if not isinstance(source, str):
        return source
    try:
        return json.loads(source)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{error}: {e}") from None


def parse_model(text: str) -> ModelSpec:
    """Parse a model JSON document.

    Raises SchemaError for shape problems and ValidationError when the
    document is well-formed but semantically invalid. Kernel rows and the
    prior are renormalized exactly once here, after the tolerance check.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e}") from None
    _expect(isinstance(doc, dict), "top level must be a JSON object")
    extra = set(doc) - _MODEL_FIELDS
    _expect(not extra, f"unknown fields: {sorted(extra)}")
    missing = _REQUIRED_FIELDS - set(doc)
    _expect(not missing, f"missing fields: {sorted(missing)}")

    _expect(isinstance(doc["horizon"], int) and not isinstance(doc["horizon"], bool),
            "horizon must be an integer")
    horizon = doc["horizon"]
    states = _label_list(doc["states"], "states")
    actions = _label_list(doc["actions"], "actions")
    params = _label_list(doc["parameters"], "parameters")
    cost_raw = doc["cost"]
    _expect(isinstance(cost_raw, dict), "cost must be an object keyed by time")
    if len(cost_raw) < horizon:
        # Found before any per-time label or array exists, so a huge horizon costs nothing.
        first = next(t for t in map(str, range(1, horizon + 1)) if t not in cost_raw)
        raise SchemaError(f"cost missing time {first!r}")

    times = _Axis("time", tuple(str(t) for t in range(1, horizon + 1)), f"times outside 1..{horizon}")
    state = _Axis("state", states, "unknown states")
    action = _Axis("action", actions, "unknown actions")
    param = _Axis("parameter", params, "unknown parameters")
    n_t, n_s, n_a, n_p = len(times.labels), len(states), len(actions), len(params)

    prior_vec = np.zeros(n_p)
    for idx, v, path in _entries(doc["prior"], "prior", (param,), required=0):
        prior_vec[idx] = _number(v, path)
    kernel = np.zeros((n_p, n_s, n_a, n_s))
    next_state = state._replace(name="next state")
    for idx, v, path in _entries(doc["kernel"], "kernel", (param, state, action, next_state), required=3):
        kernel[idx] = _number(v, path)
    cost = np.zeros((n_t, n_s, n_a, n_p))
    for idx, v, path in _entries(cost_raw, "cost", (times, state, action, param), required=4):
        cost[idx] = _number(v, path)
    admissible = np.ones((n_t, n_s, n_a), dtype=bool)
    for idx, acts, path in _entries(doc.get("admissible", {}), "admissible", (times, state), required=0):
        _expect(isinstance(acts, list) and all(isinstance(u, str) for u in acts),
                f"{path} must be a list of actions")
        bad = set(acts) - set(actions)
        _expect(not bad, f"{path} names unknown actions: {sorted(bad)}")
        admissible[idx] = [u in acts for u in actions]

    _expect(isinstance(doc["initial_state"], str), "initial_state must be a string")

    raw = ModelSpec(
        horizon=horizon,
        states=states,
        actions=actions,
        parameters=params,
        prior=Belief(params, np.ones(n_p) / n_p),  # placeholder until validated
        kernel=kernel,
        cost=cost,
        initial_state=doc["initial_state"],
        admissible=admissible,
    )
    issues = _validate_raw(raw, prior_vec)
    errors = [i for i in issues if i.severity == "error"]
    if errors:
        raise ValidationError(errors)

    # Renormalize exactly once, after the tolerance check passed.
    kernel_n = _normalize_rows(kernel.reshape(-1, n_s)).reshape(kernel.shape)
    return dataclasses.replace(raw, prior=Belief(params, prior_vec), kernel=kernel_n)


def _nested(table: list, *axes: Sequence[str]):
    """The nested object _entries reads back as table (nested lists, as from
    ndarray.tolist()): keyed by the labels of axes[0], then axes[1], ..."""
    if not axes:
        return table
    return {label: _nested(row, *axes[1:]) for label, row in zip(axes[0], table, strict=True)}


def serialize_model(m: ModelSpec) -> str:
    """Serialize to the same JSON layout parse_model accepts. Round-trips exactly."""
    times = [str(t) for t in range(1, m.horizon + 1)]
    doc = {
        "horizon": m.horizon,
        "states": list(m.states),
        "actions": list(m.actions),
        "parameters": list(m.parameters),
        "prior": m.prior.as_dict(),
        "kernel": _nested(m.kernel.tolist(), m.parameters, m.states, m.actions, m.states),
        "cost": _nested(m.cost.tolist(), times, m.states, m.actions, m.parameters),
        "admissible": {
            t: {x: [u for u, ok in zip(m.actions, row) if ok] for x, row in zip(m.states, rows)}
            for t, rows in zip(times, m.admissible)
        },
        "initial_state": m.initial_state,
    }
    return json.dumps(doc, indent=2)


def _validate_raw(m: ModelSpec, prior_vec: np.ndarray) -> list[Issue]:
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

    _, bad, sums = _row_sums(prior_vec[None, :])
    if bad[0]:
        err("prior", "prior weights must be finite and nonnegative")
    elif abs(sums[0] - 1.0) > STOCHASTIC_TOL:
        err("prior", f"prior not a distribution: sums to {float(sums[0])!r}")

    _, bad, sums = _row_sums(m.kernel.reshape(n_p * n_s * n_a, n_s))
    bad, sums = bad.reshape(n_p, n_s, n_a), sums.reshape(n_p, n_s, n_a)
    for i, j, k in np.argwhere(bad | (np.abs(sums - 1.0) > STOCHASTIC_TOL)).tolist():
        where = f"({m.parameters[i]}, {m.states[j]}, {m.actions[k]})"
        if bad[i, j, k]:
            err("kernel", f"kernel row not stochastic: negative or non-finite entry at {where}")
        else:
            err("kernel", f"kernel row not stochastic: {where} sums to {float(sums[i, j, k])!r}")

    if m.horizon >= 1:
        if np.any(m.cost < 0) or not np.all(np.isfinite(m.cost)):
            bad = np.argwhere((m.cost < 0) | ~np.isfinite(m.cost))
            t, j, k, i = bad[0]
            err("cost", f"costs must be finite and nonnegative; first violation at "
                        f"(t={t + 1}, {m.states[j]}, {m.actions[k]}, {m.parameters[i]})")
        for t, j in np.argwhere(~m.admissible.any(axis=2)).tolist():
            err("admissible", f"empty admissible action set at (t={t + 1}, {m.states[j]})")

    # Transitions unreachable under the prior-weighted predictive kernel get a
    # warning. pred[j, k, l] is zero exactly when every term of the sum is.
    if not issues:
        prior_n = prior_vec / prior_vec.sum()
        pred = (prior_n[:, None, None, None] * m.kernel).sum(axis=0)
        for j, k, l in np.argwhere(m.admissible.any(axis=0)[:, :, None] & (pred == 0.0)).tolist():
            warn("unreachable", f"transition ({m.states[j]}, {m.actions[k]}, {m.states[l]}) "
                                "has zero prior-predictive probability")
    return issues


def validate_model(m: ModelSpec) -> list[Issue]:
    """Check every model invariant, returning all findings rather than stopping at the first."""
    return _validate_raw(m, np.asarray(m.prior.weights, dtype=float))


def logistic_response(theta: float, dose: float) -> float:
    """Probability of a toxic response at a dose, for a subject with sensitivity theta."""
    return 1.0 / (1.0 + math.exp(-(dose - theta)))


def _num_label(v: float) -> str:
    return f"{v:g}"


def gen_clinical_trials_model(
    doses: Sequence[float],
    theta_grid: Sequence[float],
    horizon: int,
    prior: Belief | Mapping[str, float] | Mapping[float, float] | None = None,
    response: Callable[[float, float], float] | None = None,
) -> ModelSpec:
    """Build a dose-finding model: states {0,1} record the last response.

    The transition to state "1" (toxic) has probability response(theta, dose),
    independent of the current state, and the stage cost is |dose - theta|.
    response defaults to the logistic curve.
    """
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    if not doses:
        raise DomainError("doses must be nonempty")
    if not theta_grid:
        raise DomainError("theta_grid must be nonempty")
    if len(set(doses)) != len(tuple(doses)):
        raise DomainError("doses must be distinct")
    if len(set(theta_grid)) != len(tuple(theta_grid)):
        raise DomainError("theta_grid values must be distinct")

    psi = logistic_response if response is None else response
    states = ("0", "1")
    action_labels = tuple(_num_label(d) for d in doses)
    param_labels = tuple(_num_label(th) for th in theta_grid)

    if prior is None:
        prior_b = Belief.uniform(param_labels)
    elif isinstance(prior, Belief):
        if set(prior.support) - set(param_labels):
            raise DomainError("prior support must lie inside theta_grid")
        prior_b = Belief.from_mapping({p: prior.as_dict().get(p, 0.0) for p in param_labels}, param_labels)
    else:
        named = {(_num_label(k) if not isinstance(k, str) else k): float(v) for k, v in prior.items()}
        if set(named) - set(param_labels):
            raise DomainError("prior support must lie inside theta_grid")
        prior_b = Belief.from_mapping(named, param_labels)

    kernel = np.zeros((len(param_labels), 2, len(action_labels), 2))
    cost = np.zeros((horizon, 2, len(action_labels), len(param_labels)))
    for i, th in enumerate(theta_grid):
        for k, d in enumerate(doses):
            p = float(psi(th, d))
            if not 0.0 <= p <= 1.0:
                raise DomainError(f"response(theta={th}, dose={d}) = {p} outside [0, 1]")
            kernel[i, :, k] = [1.0 - p, p]
            cost[:, :, k, i] = abs(d - th)
    kernel = _normalize_rows(kernel.reshape(-1, 2)).reshape(kernel.shape)

    return ModelSpec(
        horizon=horizon,
        states=states,
        actions=action_labels,
        parameters=param_labels,
        prior=prior_b,
        kernel=kernel,
        cost=cost,
        initial_state="0",
    )


def random_instance(
    seed: int,
    *,
    n_states: int | None = None,
    n_actions: int | None = None,
    n_params: int | None = None,
    horizon: int | None = None,
    theta_free_costs: bool = False,
    allow_restricted: bool = True,
) -> ModelSpec:
    """Small random model; sizes default to the ranges the exhaustive-search
    comparisons use (up to 2 states, 2 actions, 3 parameters, horizon 3).

    Kernel rows come from integer weights 1..9, so with two states every
    entry is at least 1/18 and no transition is ever pruned.
    """
    rng = np.random.default_rng(seed)
    nx = n_states if n_states is not None else int(rng.integers(1, 3))
    nu = n_actions if n_actions is not None else int(rng.integers(1, 3))
    nth = n_params if n_params is not None else int(rng.integers(1, 4))
    T = horizon if horizon is not None else int(rng.integers(1, 4))
    states = tuple(f"x{i}" for i in range(nx))
    actions = tuple(f"u{i}" for i in range(nu))
    params = tuple(f"th{i}" for i in range(nth))

    # One draw per kernel row, in (parameter, state, action) order.
    rows = np.array([rng.integers(1, 10, size=nx) for _ in range(nth * nx * nu)], dtype=float)
    kernel = _normalize_rows(rows).reshape(nth, nx, nu, nx)

    cost = rng.integers(0, 9, size=(T, nx, nu, nth)).astype(float) * 0.5
    if theta_free_costs:
        cost = np.repeat(cost[:, :, :, :1], nth, axis=3)

    admissible = np.ones((T, nx, nu), dtype=bool)
    if allow_restricted and nu >= 2:
        for t in range(T):
            for j in range(nx):
                if rng.random() < 0.25:
                    admissible[t, j, int(rng.integers(0, nu))] = False

    prior = Belief(params, rng.integers(1, 10, size=nth).astype(float))
    return ModelSpec(
        horizon=T,
        states=states,
        actions=actions,
        parameters=params,
        prior=prior,
        kernel=kernel,
        cost=cost,
        initial_state=states[int(rng.integers(0, nx))],
        admissible=admissible,
    )
