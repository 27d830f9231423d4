"""Risk criteria as pairs of one-step aggregation maps.

A criterion is described by two maps sharing the same scalar scale:

* a marginal risk map rho_hat(values, weights) aggregating a
  parameter-indexed vector against a belief, and
* a transition risk map sigma(values, probs) aggregating a
  state-indexed vector against a next-state distribution,

plus a report transform applied once at the query root. Both maps must be
normalized (zero maps to zero), monotone, translation invariant, and must
ignore coordinates carrying zero probability mass. check_axioms probes all
four properties with randomized inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, SchemaError

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
    report: Callable[[float], float]
    kappa: float | None = None
    name: str = ""

    def describe(self) -> dict:
        out: dict = {"type": self.kind}
        if self.kind == "entropic":
            out["kappa"] = self.kappa
        if self.kind == "custom":
            out["name"] = self.name
        return out


def _fold(terms: np.ndarray) -> float:
    """Sum of a 1-D array, added left to right starting from +0.0.

    Sums are folded in a fixed order, not taken with np.dot, so that one
    row gives the same bits however many rows are summed with it.
    """
    acc = 0.0
    for x in terms.tolist():
        acc += x
    return acc


def _fold_rows(terms: np.ndarray) -> np.ndarray:
    """_fold of every row of a 2-D array, one column at a time.

    A zero column leaves every sum's bits as they are (a sum that starts
    from +0.0 is never -0.0), so dead atoms may be zeroed instead of skipped.
    """
    acc = np.zeros(len(terms))
    for col in terms.T:
        acc += col
    return acc


class _Mean:
    """Weighted mean over the atoms with positive weight.

    Called with two vectors it gives one float; rows(values, weights) gives
    the mean of every row of two 2-D arrays, equal bit for bit to one call
    per row.
    """

    def __call__(self, values: np.ndarray, weights: np.ndarray) -> float:
        w = np.asarray(weights, dtype=float)
        v = np.asarray(values, dtype=float)
        mask = w > 0.0
        return _fold(w[mask] * v[mask])

    def rows(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        live = weights > 0.0
        return _fold_rows(np.where(live, weights, 0.0) * np.where(live, values, 0.0))


_NO_MASS = "entropic risk map needs an atom with positive weight"


class _CertaintyEquivalent:
    """(1/kappa) log sum w_i exp(kappa v_i), zero-mass atoms excluded.

    Computed as vmax + log1p(s) / kappa with s = sum w_i expm1(kappa (v_i - vmax)).
    The shift by vmax keeps every exponent <= 0, so large kappa cannot
    overflow; expm1/log1p keep the O(kappa) terms that exp/log round away, so
    at small kappa the result stays above the mean, by about kappa * Var / 2.
    When s < -1/2, 1 + s cancels, and log sum w_i exp(kappa (v_i - vmax)) is
    the accurate form instead. A vector with no atom of positive weight has
    no certainty equivalent and raises DomainError.

    rows(values, weights) evaluates every row of two 2-D arrays, equal bit
    for bit to one call per row: the sums are the same folds, and the logs
    are math.log1p/math.log per row, because np.log1p does not always round
    like math.log1p.
    """

    def __init__(self, kappa: float):
        self.kappa = kappa

    def __call__(self, values: np.ndarray, weights: np.ndarray) -> float:
        w = np.asarray(weights, dtype=float)
        v = np.asarray(values, dtype=float)
        mask = w > 0.0
        w = w[mask]
        v = v[mask]
        if not len(v):
            raise DomainError(_NO_MASS)
        vmax = float(v.max())
        z = self.kappa * (v - vmax)
        s = _fold(w * np.expm1(z))
        log_mean_exp = math.log1p(s) if s >= -0.5 else math.log(_fold(w * np.exp(z)))
        return vmax + log_mean_exp / self.kappa

    def rows(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        live = weights > 0.0
        if not live.any(axis=1).all():
            raise DomainError(_NO_MASS)
        w = np.where(live, weights, 0.0)
        vmax = np.where(live, values, -np.inf).max(axis=1)
        # Dead atoms sit at vmax, so their z is 0 and nothing below overflows.
        z = self.kappa * (np.where(live, values, vmax[:, None]) - vmax[:, None])
        s = _fold_rows(w * np.expm1(z))
        low = ~(s >= -0.5)
        log_mean_exp = np.array([math.log1p(x) for x in np.where(low, 0.0, s).tolist()])
        if low.any():
            log_mean_exp[low] = [math.log(x) for x in _fold_rows(w[low] * np.exp(z[low])).tolist()]
        return vmax + log_mean_exp / self.kappa


def make_expectation() -> CriterionSpec:
    """Risk-neutral criterion: plain weighted averages on both coordinates."""
    return CriterionSpec(
        kind="expectation",
        rho_hat=MarginalRiskMap("expectation", _Mean()),
        sigma=TransitionRiskMap("expectation", _Mean()),
        report=lambda v: v,
    )


def make_entropic(kappa: float) -> CriterionSpec:
    """Entropic criterion at risk aversion kappa > 0, in certainty-equivalent scale."""
    if not (isinstance(kappa, (int, float)) and math.isfinite(kappa) and kappa > 0):
        raise DomainError(f"entropic criterion requires kappa > 0, got {kappa!r}")
    ce = _CertaintyEquivalent(float(kappa))
    return CriterionSpec(
        kind="entropic",
        rho_hat=MarginalRiskMap("entropic", ce),
        sigma=TransitionRiskMap("entropic", ce),
        report=lambda v: v,
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
    report: Callable[[float], float] | None = None,
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
        report=report if report is not None else (lambda v: v),
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
    if isinstance(source, str):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as e:
            raise SchemaError(f"criterion is not valid JSON: {e}") from None
    else:
        doc = source
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
        return make_entropic(doc["kappa"])
    raise SchemaError(f"unknown criterion type {kind!r}")
