"""The batched ulp walk of exact normalization against the scalar reference.

The reference is the normalization the batched walk replaced: divide, fold
the residual into the largest coordinate, then walk one coordinate at a
time, one ulp at a time, with a full sum per step. `_normalize_exact` and
`_normalize_rows` must return the same bits, fail on the same rows, and
raise the same message for the first failing row.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmdp import Belief, DomainError, build_reachable_belief_graph, gen_clinical_trials_model
from riskmdp import model
from riskmdp.model import (_WALK_STEPS, _normalize_exact, _normalize_rows, _normalize_rows_each, _row_sum,
                           _ulp_steps)


def reference_normalize_exact(vec: np.ndarray) -> np.ndarray:
    """Scale a nonnegative vector to sum to exactly 1.0.

    After the division the float sum can still be a few ulp off. The residual
    is first folded into the largest coordinate in one stride, then that
    coordinate is walked single ulp at a time. The computed sum is monotone in
    the coordinate and moves in steps smaller than the rounding window around
    1.0, so the walk cannot jump over an exact 1.0. Zero coordinates are never
    touched, which keeps supports intact.
    """
    out = np.asarray(vec, dtype=float).copy()
    s = float(out.sum())
    if s <= 0.0 or not math.isfinite(s):
        raise DomainError("cannot normalize a vector with nonpositive sum")
    if s != 1.0:
        out = out / s
    j = int(np.argmax(out))
    for _ in range(4):
        d = 1.0 - float(out.sum())
        if d == 0.0:
            return out
        out[j] += d
    # The residual is now within a few ulp, but a single coordinate's ulp
    # lattice can straddle 1.0 without touching it. Walk each nonzero
    # coordinate in turn; their lattices have different granularities, so
    # one of them lands exactly.
    for c in np.argsort(-out, kind="stable"):
        if out[c] <= 0.0:
            continue
        saved = float(out[c])
        for _ in range(64):
            d = 1.0 - float(out.sum())
            if d == 0.0:
                return out
            out[c] = np.nextafter(out[c], math.inf if d > 0.0 else -math.inf)
        if 1.0 - float(out.sum()) == 0.0:
            return out
        out[c] = saved
    raise DomainError("normalization did not converge")


def outcome(fn, row):
    """The bits of fn(row), or the message of the DomainError it raises."""
    try:
        return fn(row).tobytes()
    except DomainError as e:
        return str(e)


def reference_outcome(row):
    return outcome(reference_normalize_exact, row)


# Graph build with theta_grid (1,2,3,4,5) at horizon 5 makes this posterior;
# no coordinate's ulp walk lands the sum on exactly 1.0 (ROADMAP item 2).
NONCONVERGING = [0.3164795289352155, 0.17965518781112608, 0.04283084668703709,
                 0.004894695488887568, 0.0003540222497274457]


def fuzz_rows(seed: int, count: int, length: int) -> np.ndarray:
    """Skewed nonnegative rows with zeros, at scales from 1e-300 to 1e5."""
    rng = np.random.default_rng([seed, length])
    a = rng.random((count, length)) ** rng.uniform(1.0, 30.0, size=(count, 1))
    a *= 10.0 ** rng.uniform(-300.0, 5.0, size=(count, 1))
    a[rng.random(a.shape) < 0.25] = 0.0
    a[a.sum(axis=1) == 0.0, 0] = 0.5
    return a


@pytest.fixture
def walked_rows(monkeypatch):
    """Counts the rows that reach the batched walk."""
    seen = []
    walk = model._walk

    def counting(rows):
        seen.append(len(rows))
        return walk(rows)

    monkeypatch.setattr(model, "_walk", counting)
    return seen


tiny_or_skewed = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-12, max_value=1e6),
    st.floats(0.0, 1.0),
    st.floats(min_value=1e-300, max_value=1e-290),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(tiny_or_skewed, min_size=1, max_size=9))
def test_property_normalize_exact_equals_reference(vals):
    row = np.array(vals)
    assert outcome(_normalize_exact, row) == reference_outcome(row)


def test_fuzz_matches_reference_bitwise(walked_rows):
    # 3 000 rows of each length 2..9, 12, 17 and 33, 33 000 in all; from
    # length 8 on numpy's sum is pairwise, which the walk's trial sums must
    # reproduce, and the long rows walk many ranks.
    failing = 0
    for length in [*range(2, 10), 12, 17, 33]:
        a = fuzz_rows(0, 3000, length)
        want = [reference_outcome(r) for r in a]
        assert [outcome(_normalize_exact, r) for r in a] == want
        ok = [i for i, w in enumerate(want) if isinstance(w, bytes)]
        out, errors = _normalize_rows_each(a)
        assert {i: str(e) for i, e in errors.items()} == {
            i: w for i, w in enumerate(want) if isinstance(w, str)}
        assert out[ok].tobytes() == b"".join(want[i] for i in ok)
        assert np.array_equal(np.delete(out, ok, axis=0), np.delete(a, ok, axis=0))
        failing += len(errors)
    # The batched walk calls, chunks counted with the calls they split, take
    # about 2 000 rows (the one-row calls come from _normalize_exact); 2 rows
    # of length 7 and 1 of length 33 fail.
    assert sum(n for n in walked_rows if n > 1) >= 1000 and failing >= 1


def test_ulp_steps_equal_repeated_nextafter():
    # Across the zero, subnormal and exponent boundaries, both ways.
    tiny = np.nextafter(0.0, 1.0)
    x = np.array([0.0, tiny, 3 * tiny, 40 * tiny, 2.0 ** -1022, 0.25, 0.5, 1.0 - 2.0 ** -53, 1.0, 1e-300])
    rows = np.stack([x, x])
    up = np.array([True, False])
    want = np.empty(rows.shape + (_WALK_STEPS + 1,))
    want[..., 0] = rows
    toward = np.array([[math.inf], [-math.inf]])
    for k in range(1, _WALK_STEPS + 1):
        want[..., k] = np.nextafter(want[..., k - 1], toward)
    got = _ulp_steps(rows.ravel(), up.repeat(len(x))).reshape(want.shape)
    assert got.tobytes() == want.tobytes()


def test_walk_in_chunks_matches_reference(monkeypatch, walked_rows):
    a = fuzz_rows(1, 3000, 6)
    want = [reference_outcome(r) for r in a]
    ok = [i for i, w in enumerate(want) if isinstance(w, bytes)]
    monkeypatch.setattr(model, "_WALK_ENTRIES", (_WALK_STEPS + 1) * 6 * 7)  # 7 rows of length 6
    assert _normalize_rows(a[ok]).tobytes() == b"".join(want[i] for i in ok)
    assert max(walked_rows) > 7


def mixed_rows(seed: int, count: int, width: int) -> np.ndarray:
    """Rows of both signs whose magnitudes span the float range: -0.0, 0.0,
    subnormals, normal floats from 1e-300 to 1e300, and entries near 1e308
    whose sums overflow."""
    rng = np.random.default_rng([seed, width])
    a = rng.choice([-1.0, 1.0], (count, width)) * 10.0 ** rng.uniform(-300.0, 300.0, (count, width))
    kind = rng.integers(0, 8, (count, width))
    a[kind == 0] = -0.0
    a[kind == 1] = 0.0
    a[kind == 2] = rng.integers(1, 1000, np.count_nonzero(kind == 2)) * np.nextafter(0.0, 1.0)
    huge = np.count_nonzero(kind == 3)
    a[kind == 3] = rng.choice([-1.0, 1.0], huge) * rng.uniform(1e307, 1.7e308, huge)
    all_negative_zero = rng.random(count) < 0.1
    a[all_negative_zero] = -0.0
    return a


def assert_row_sum_equals_numpy(rows):
    with np.errstate(over="ignore", invalid="ignore"):  # inf and inf - inf
        want = rows.sum(axis=1)
        got = _row_sum(rows.T)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_row_sum_equals_numpy_sum_at_every_width():
    for width in [*range(1, 301), 513, 1000, 1025]:
        assert_row_sum_equals_numpy(mixed_rows(0, 6, width))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 300), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_property_row_sum_equals_numpy_sum(width, count, seed):
    assert_row_sum_equals_numpy(mixed_rows(seed, count, width))


@pytest.mark.parametrize("rows, message", [
    ([[0.2, 0.8, 0.0, 0.0, 0.0], NONCONVERGING, [0.0] * 5], "did not converge"),
    ([[0.2, 0.8, 0.0, 0.0, 0.0], [0.0] * 5, NONCONVERGING], "nonpositive sum"),
])
def test_first_failing_row_in_row_order_raises(rows, message):
    assert reference_outcome(np.array(rows[1])).endswith(message)
    with pytest.raises(DomainError, match=message):
        _normalize_rows(np.array(rows))
    _, errors = _normalize_rows_each(np.array(rows))
    assert {i: str(e) for i, e in errors.items()} == {
        i: reference_outcome(np.array(r)) for i, r in enumerate(rows) if i}


def test_build_still_raises_the_known_defect():
    # ROADMAP item 2: the walk is not total. The fix that makes it total
    # flips this test, which then expects the graph to build.
    m = gen_clinical_trials_model(doses=(1, 2, 3, 4), theta_grid=(1, 2, 3, 4, 5), horizon=5)
    with pytest.raises(DomainError, match="normalization did not converge"):
        build_reachable_belief_graph(m)


def test_belief_still_raises_the_known_defect():
    # A vector the Belief normalization property test in test_model.py once
    # found. The fix for ROADMAP item 2 flips this test with the one above;
    # it then expects a Belief whose weights sum to exactly 1.0.
    vals = np.array([16.759219088400844, 44.02485322923059, 0.35, 1e-09])
    assert reference_outcome(vals) == "normalization did not converge"
    with pytest.raises(DomainError, match="normalization did not converge"):
        Belief(("p0", "p1", "p2", "p3"), vals)
