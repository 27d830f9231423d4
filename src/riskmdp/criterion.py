"""Risk criteria as pairs of one-step aggregation maps.

A criterion is described by two maps sharing the same scalar scale:

* a marginal risk map rho_hat(values, weights) aggregating a
  parameter-indexed vector against a belief, and
* a transition risk map sigma(values, probs) aggregating a
  state-indexed vector against a next-state distribution.

Both maps must be normalized (zero maps to zero), monotone, translation
invariant, and must ignore coordinates carrying zero probability mass.
check_axioms probes all four properties with randomized inputs.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, SchemaError
from .model import _json_doc, _number

AXIOM_TOL = 1e-9
DEFAULT_AXIOM_SAMPLES = 1000


@dataclass(frozen=True)
class MarginalRiskMap:
    """Aggregates parameter-indexed values against belief weights."""

    name: str
    evaluate: Callable[[np.ndarray, np.ndarray], float]


@dataclass(frozen=True)
class TransitionRiskMap:
    """Aggregates state-indexed values against a next-state distribution."""

    name: str
    evaluate: Callable[[np.ndarray, np.ndarray], float]


@dataclass(frozen=True)
class CriterionSpec:
    kind: str  # "expectation", "entropic", or "custom"
    rho_hat: MarginalRiskMap
    sigma: TransitionRiskMap
    kappa: float | None = None
    name: str = ""

    def describe(self) -> dict:
        out: dict = {"type": self.kind}
        if self.kind == "entropic":
            out["kappa"] = self.kappa
        if self.kind == "custom":
            out["name"] = self.name
        return out


def _atoms(values, weights):
    """The (weight, value) pairs of two vectors of one shape, as Python floats.

    The maps' scalar calls do their arithmetic on these: a Python float
    operation rounds as the numpy one on float64 does, but costs a fraction
    of a numpy call on a few atoms, and overflows or meets inf * 0 without
    a RuntimeWarning.
    """
    w = np.asarray(weights, dtype=float)
    v = np.asarray(values, dtype=float)
    if w.shape != v.shape:
        raise IndexError(f"values of shape {v.shape} do not match weights of shape {w.shape}")
    return zip(w.ravel().tolist(), v.ravel().tolist())


def _dot(w: list[float], x: list[float]) -> float:
    """sum_i w[i] * x[i], added left to right starting from +0.0.

    Sums are folded in a fixed order, not taken with np.dot, so that one
    call gives the bits of the same row in a row form (_fold_rows).
    """
    acc = 0.0
    for a, b in zip(w, x):
        acc += a * b
    return acc


def _fold_rows(terms: np.ndarray) -> np.ndarray:
    """The sum of every row of a 2-D array, added left to right from +0.0
    one column at a time, as _dot adds the terms of one call.

    A zero column leaves every sum's bits as they are (a sum that starts
    from +0.0 is never -0.0), so dead atoms may be zeroed instead of skipped.
    """
    acc = np.zeros(len(terms))
    for col in terms.T:
        acc += col
    return acc


class _Mean:
    """Weighted mean over the atoms with positive weight.

    Called with two vectors it gives one float: the products of the live
    atoms added left to right from +0.0, on Python floats (_atoms). rows(values,
    weights) gives the mean of every row of two 2-D arrays, equal bit for
    bit to one call per row.
    """

    def __call__(self, values: np.ndarray, weights: np.ndarray) -> float:
        acc = 0.0
        for p, x in _atoms(values, weights):
            if p > 0.0:
                acc += p * x
        return acc

    def rows(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        live = weights > 0.0
        return _fold_rows(np.where(live, weights, 0.0) * np.where(live, values, 0.0))


_NO_MASS = "entropic risk map needs an atom with positive weight"


class _CertaintyEquivalent:
    """(1/kappa) log sum w_i exp(kappa v_i), zero-mass atoms excluded.

    Computed as vmax + log1p(s) / kappa with s = sum w_i expm1(kappa (v_i - vmax)).
    The shift by vmax keeps every exponent <= 0, so large kappa cannot
    overflow exp; v_i - vmax, and at kappa > 1 kappa (v_i - vmax), may
    overflow to -inf, where expm1 gives -1 and exp gives 0, as in the limit.
    expm1/log1p keep the O(kappa) terms that exp/log round away, so at small
    kappa the result stays above the mean, by about kappa * Var / 2.
    When s < -1/2, 1 + s cancels, and log sum w_i exp(kappa (v_i - vmax)) is
    the accurate form instead. A vector with no atom of positive weight has
    no certainty equivalent and raises DomainError.

    A scalar call keeps the live atoms as Python floats (_atoms): vmax is
    their maximum, NaN if one of them is NaN as with v.max(), z and the
    weighted sums are Python arithmetic, and only expm1 and exp make one
    numpy call each on the list z. Those two stay numpy because math.expm1
    and math.exp do not round like them: with numpy 2.4 on an AVX-512 x86-64
    CPU, math.expm1 differs from np.expm1 on 14 362 and math.exp from np.exp
    on 9 344 of 200 000 arguments drawn as -Exponential(3).

    rows(values, weights) evaluates every row of two 2-D arrays, equal bit
    for bit to one call per row: vmax is a column-wise np.maximum, the sums
    are the same folds, and the logs are math.log1p/math.log per row,
    as in a scalar call, because np.log1p does not always round like
    math.log1p (they differ on 3 807 of 50 000 arguments uniform in
    [-0.5, 1) on that machine).
    """

    def __init__(self, kappa: float):
        self.kappa = kappa

    def __call__(self, values: np.ndarray, weights: np.ndarray) -> float:
        w, v = [], []
        vmax = -math.inf
        for p, x in _atoms(values, weights):
            if p > 0.0:
                w.append(p)
                v.append(x)
                if x > vmax or x != x:  # a NaN stays the maximum
                    vmax = x
        if not w:
            raise DomainError(_NO_MASS)
        if vmax != vmax:
            vmax = float(np.max(v))  # the NaN v.max() gives, sign bit included
        kappa = self.kappa
        z = [kappa * (x - vmax) for x in v]
        s = _dot(w, np.expm1(z).tolist())
        log_mean_exp = math.log1p(s) if s >= -0.5 else math.log(_dot(w, np.exp(z).tolist()))
        return vmax + log_mean_exp / kappa

    def rows(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        live = weights > 0.0
        if not functools.reduce(np.logical_or, live.T).all():
            raise DomainError(_NO_MASS)
        w = np.where(live, weights, 0.0)
        vmax = functools.reduce(np.maximum, np.where(live, values, -np.inf).T)
        with np.errstate(over="ignore"):
            # Dead atoms sit at vmax, so their z is 0.
            z = self.kappa * (np.where(live, values, vmax[:, None]) - vmax[:, None])
        s = _fold_rows(w * np.expm1(z))
        low = ~(s >= -0.5)
        log_mean_exp = np.fromiter(map(math.log1p, np.where(low, 0.0, s).tolist()), float, len(s))
        if low.any():
            log_mean_exp[low] = [math.log(x) for x in _fold_rows(w[low] * np.exp(z[low])).tolist()]
        return vmax + log_mean_exp / self.kappa


def make_expectation() -> CriterionSpec:
    """Risk-neutral criterion: plain weighted averages on both coordinates."""
    return CriterionSpec(
        kind="expectation",
        rho_hat=MarginalRiskMap("expectation", _Mean()),
        sigma=TransitionRiskMap("expectation", _Mean()),
    )


def make_entropic(kappa: float) -> CriterionSpec:
    """Entropic criterion at risk aversion kappa > 0, in certainty-equivalent scale.

    kappa must be a normal float: at a subnormal kappa, kappa * (v - vmax)
    keeps only a few significant bits, and dividing by kappa magnifies that
    rounding (at 5e-324 the map returns the maximum, not the mean).
    """
    # The comparison is exact, so it also rejects an int beyond float range.
    if isinstance(kappa, bool) or not (isinstance(kappa, (int, float))
                                       and sys.float_info.min <= kappa <= sys.float_info.max):
        raise DomainError(f"entropic criterion requires a normal float kappa > 0, got {kappa!r}")
    ce = _CertaintyEquivalent(float(kappa))
    return CriterionSpec(
        kind="entropic",
        rho_hat=MarginalRiskMap("entropic", ce),
        sigma=TransitionRiskMap("entropic", ce),
        kappa=ce.kappa,
    )


@dataclass(frozen=True)
class AxiomViolation:
    map_name: str  # "rho_hat" or "sigma"
    axiom: str  # "normalization", "monotonicity", "translation", "support"
    sample: int
    detail: str


@dataclass(frozen=True)
class AxiomReport:
    samples: int
    seed: int
    violations: tuple[AxiomViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "samples": self.samples,
            "seed": self.seed,
            "passed": self.passed,
            "violations": [
                {"map": v.map_name, "axiom": v.axiom, "sample": v.sample, "detail": v.detail}
                for v in self.violations
            ],
        }


def check_axioms(crit: CriterionSpec, samples: int = DEFAULT_AXIOM_SAMPLES, seed: int = 0) -> AxiomReport:
    """Probe normalization, monotonicity, translation invariance, and the
    support property of both maps with `samples` randomized draws.

    Deterministic for a fixed seed. Tolerance 1e-9 on every comparison.
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    violations: list[AxiomViolation] = []

    for s in range(samples):
        n = int(rng.integers(2, 6))
        f = rng.uniform(-10.0, 10.0, size=n)
        g = f + rng.uniform(0.0, 5.0, size=n)
        a = float(rng.uniform(-10.0, 10.0))
        # Weights with occasional zero-mass atoms; at least one atom survives.
        mask = rng.random(n) < 0.35
        if mask.all():
            mask[int(rng.integers(0, n))] = False
        w = rng.uniform(0.05, 1.0, size=n)
        w[mask] = 0.0
        w = w / w.sum()
        # Arbitrary junk on the dead atoms must not matter.
        f_alt = f.copy()
        f_alt[mask] = rng.uniform(-1e3, 1e3, size=int(mask.sum()))

        for map_name, ev in (("rho_hat", crit.rho_hat.evaluate), ("sigma", crit.sigma.evaluate)):
            base = ev(f, w)
            z = ev(np.zeros(n), w)
            if abs(z) > AXIOM_TOL:
                violations.append(AxiomViolation(map_name, "normalization", s, f"value at 0 is {z!r}"))
            if ev(g, w) < base - AXIOM_TOL:
                violations.append(AxiomViolation(
                    map_name, "monotonicity", s, f"increased inputs decreased value: {ev(g, w)!r} < {base!r}"))
            shifted = ev(f + a, w)
            if abs(shifted - (base + a)) > AXIOM_TOL:
                violations.append(AxiomViolation(
                    map_name, "translation", s, f"shift by {a!r} moved value by {shifted - base!r}"))
            if mask.any():
                alt = ev(f_alt, w)
                if abs(alt - base) > AXIOM_TOL:
                    violations.append(AxiomViolation(
                        map_name, "support", s,
                        f"values on zero-mass atoms changed result by {alt - base!r}"))
    return AxiomReport(samples=samples, seed=seed, violations=tuple(violations))


def make_custom(
    name: str,
    rho_hat: Callable[[np.ndarray, np.ndarray], float],
    sigma: Callable[[np.ndarray, np.ndarray], float],
    samples: int = DEFAULT_AXIOM_SAMPLES,
    seed: int = 0,
) -> CriterionSpec:
    """Assemble a user-supplied criterion.

    The pair must pass check_axioms with zero violations before it is
    accepted; a DomainError naming the first failed axiom is raised otherwise.
    """
    if not name or not isinstance(name, str):
        raise DomainError("custom criterion needs a nonempty name")
    spec = CriterionSpec(
        kind="custom",
        rho_hat=MarginalRiskMap(name, rho_hat),
        sigma=TransitionRiskMap(name, sigma),
        name=name,
    )
    rep = check_axioms(spec, samples=samples, seed=seed)
    if not rep.passed:
        first = rep.violations[0]
        raise DomainError(
            f"custom criterion {name!r} violates the {first.axiom} axiom on {first.map_name}: {first.detail}")
    return spec


def parse_criterion(source: str | dict) -> CriterionSpec:
    """Build a built-in criterion from its JSON description.

    Accepts {"type": "expectation"} or {"type": "entropic", "kappa": k}.
    Custom criteria are library-only and not reachable from JSON.
    """
    doc = _json_doc(source, "criterion is not valid JSON")
    if not isinstance(doc, dict) or "type" not in doc:
        raise SchemaError("criterion must be an object with a 'type' field")
    kind = doc["type"]
    if kind == "expectation":
        extra = set(doc) - {"type"}
        if extra:
            raise SchemaError(f"unexpected criterion fields: {sorted(extra)}")
        return make_expectation()
    if kind == "entropic":
        extra = set(doc) - {"type", "kappa"}
        if extra:
            raise SchemaError(f"unexpected criterion fields: {sorted(extra)}")
        if "kappa" not in doc:
            raise SchemaError("entropic criterion requires a 'kappa' field")
        return make_entropic(_number(doc["kappa"], "criterion 'kappa'"))
    raise SchemaError(f"unknown criterion type {kind!r}")
