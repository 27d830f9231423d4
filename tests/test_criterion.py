"""Risk map values, the four axioms, custom maps, and JSON parsing."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmdp import (
    CriterionSpec,
    DomainError,
    SchemaError,
    build_reachable_belief_graph,
    check_axioms,
    make_custom,
    make_entropic,
    make_expectation,
    parse_criterion,
    solve_dp,
)
from riskmdp.criterion import MarginalRiskMap, TransitionRiskMap

weights_and_values = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-20.0, 20.0), min_size=n, max_size=n),
        st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n),
    )
)


def normed(w):
    w = np.array(w)
    return w / w.sum()


class TestExpectation:
    def test_weighted_mean_value(self):
        crit = make_expectation()
        # 0.25 * 1 + 0.75 * 3 = 2.5
        got = crit.rho_hat.evaluate(np.array([1.0, 3.0]), np.array([0.25, 0.75]))
        assert got == 2.5
        assert crit.sigma.evaluate(np.array([1.0, 3.0]), np.array([0.25, 0.75])) == 2.5

    def test_report_is_identity(self):
        crit = make_expectation()
        assert crit.report(1.234) == 1.234

    def test_describe(self):
        assert make_expectation().describe() == {"type": "expectation"}

    def test_zero_mass_coordinates_ignored_exactly(self):
        crit = make_expectation()
        w = np.array([0.5, 0.0, 0.5])
        a = crit.rho_hat.evaluate(np.array([1.0, 999.0, 3.0]), w)
        b = crit.rho_hat.evaluate(np.array([1.0, -999.0, 3.0]), w)
        assert a == b == 2.0



@st.composite
def dyadic_atoms(draw):
    """Nonnegative values, like costs-to-go, and weights k/1024 summing to exactly 1.

    Values are 0 or at least 1e-6, so kappa * (v - vmax) stays a normal float.
    """
    n = draw(st.integers(1, 6))
    cuts = sorted(draw(st.lists(st.integers(0, 1024), min_size=n - 1, max_size=n - 1)))
    value = st.one_of(st.just(0.0), st.floats(1e-6, 20.0))
    vals = draw(st.lists(value, min_size=n, max_size=n))
    return np.array(vals), np.diff([0, *cuts, 1024]) / 1024.0


log_kappa = st.floats(-14.0, 3.0).map(lambda e: 10.0 ** e)


def exact_moments(vals, w):
    """Mean, variance and largest deviation from the mean of the atoms with
    mass, in exact rationals."""
    atoms = [(Fraction(float(p)), Fraction(float(x))) for p, x in zip(w, vals) if p > 0]
    mean = sum(p * x for p, x in atoms)
    var = sum(p * (x - mean) ** 2 for p, x in atoms)
    return mean, var, max(abs(x - mean) for _, x in atoms)


def ulp_of_largest(vals, w):
    """Rounding scale of a certainty equivalent: one ulp of its largest atom."""
    return Fraction(float(np.spacing(vals[w > 0].max())))


class TestEntropic:
    def test_log_mean_exp_value(self):
        crit = make_entropic(1.0)
        # with values (0, ln 3) and weights (1/2, 1/2):
        # log(0.5 * 1 + 0.5 * 3) = log 2
        got = crit.rho_hat.evaluate(np.array([0.0, math.log(3.0)]), np.array([0.5, 0.5]))
        assert abs(got - math.log(2.0)) < 1e-12

    def test_kappa_scaling(self):
        # at kappa = 2: 0.5 * ln(0.5 * e^0 + 0.5 * e^4)
        crit = make_entropic(2.0)
        got = crit.sigma.evaluate(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
        want = 0.5 * math.log(0.5 + 0.5 * math.exp(4.0))
        assert abs(got - want) < 1e-12

    def test_describe(self):
        assert make_entropic(0.5).describe() == {"type": "entropic", "kappa": 0.5}

    def test_invalid_kappa(self):
        for bad in (0.0, -1.0, math.nan, math.inf, "1"):
            with pytest.raises(DomainError, match="kappa > 0"):
                make_entropic(bad)

    def test_zero_mass_coordinates_ignored_exactly(self):
        crit = make_entropic(1.0)
        w = np.array([0.5, 0.0, 0.5])
        a = crit.rho_hat.evaluate(np.array([1.0, 700.0, 3.0]), w)
        b = crit.rho_hat.evaluate(np.array([1.0, -700.0, 3.0]), w)
        assert a == b  # huge dead values would overflow if not excluded

    def test_large_values_do_not_overflow(self):
        crit = make_entropic(1.0)
        got = crit.rho_hat.evaluate(np.array([1000.0, 1001.0]), np.array([0.5, 0.5]))
        assert math.isfinite(got)
        assert 1000.0 <= got <= 1001.0

    @settings(max_examples=200, deadline=None)
    @given(weights_and_values)
    def test_property_dominates_mean(self, vw):
        vals, w = np.array(vw[0]), normed(vw[1])
        crit = make_entropic(1.0)
        mean = float(np.dot(w, vals))
        assert crit.rho_hat.evaluate(vals, w) >= mean - 1e-9

    @settings(max_examples=200, deadline=None)
    @given(weights_and_values)
    def test_property_between_min_and_max(self, vw):
        vals, w = np.array(vw[0]), normed(vw[1])
        crit = make_entropic(2.5)
        got = crit.rho_hat.evaluate(vals, w)
        assert vals.min() - 1e-9 <= got <= vals.max() + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(weights_and_values, st.floats(-10.0, 10.0))
    def test_property_translation(self, vw, a):
        vals, w = np.array(vw[0]), normed(vw[1])
        crit = make_entropic(1.0)
        assert abs(crit.rho_hat.evaluate(vals + a, w)
                   - (crit.rho_hat.evaluate(vals, w) + a)) < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(weights_and_values)
    def test_property_permutation_invariant(self, vw):
        vals, w = np.array(vw[0]), normed(vw[1])
        perm = np.arange(len(vals))[::-1]
        for crit in (make_expectation(), make_entropic(1.5)):
            assert abs(crit.rho_hat.evaluate(vals, w)
                       - crit.rho_hat.evaluate(vals[perm], w[perm])) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(weights_and_values)
    def test_property_small_kappa_close_to_mean(self, vw):
        # one application sits within kappa * range^2 / 8 of the plain mean
        vals, w = np.array(vw[0]), normed(vw[1])
        kappa = 1e-3
        crit = make_entropic(kappa)
        mean = float(np.dot(w, vals))
        spread = float(vals.max() - vals.min())
        gap = crit.rho_hat.evaluate(vals, w) - mean
        assert -1e-12 <= gap <= kappa * spread * spread / 8.0 + 1e-12


    def test_small_kappa_stays_above_the_mean(self):
        # The exp/log form returned 5.8e-8 below the mean at kappa = 1e-10
        # and 4.4e-6 above it at 1e-12; the truth is kappa * Var / 2.
        vals, w = np.array([1.0, 2.0, 3.0]), np.array([0.2, 0.3, 0.5])
        mean, var, _ = exact_moments(vals, w)
        for kappa in (1e-10, 1e-12):
            gap = Fraction(make_entropic(kappa).sigma.evaluate(vals, w)) - mean
            assert gap > 0
            assert abs(gap - Fraction(kappa) * var / 2) <= 4 * ulp_of_largest(vals, w)

    @settings(max_examples=300, deadline=None)
    @given(dyadic_atoms(), log_kappa)
    def test_property_dominates_mean_to_4_ulp(self, vw, kappa):
        vals, w = vw
        mean, _, _ = exact_moments(vals, w)
        got = make_entropic(kappa).rho_hat.evaluate(vals, w)
        assert Fraction(got) >= mean - 4 * ulp_of_largest(vals, w)

    @settings(max_examples=300, deadline=None)
    @given(dyadic_atoms(), st.floats(-14.0, -4.0).map(lambda e: 10.0 ** e))
    def test_property_small_kappa_expansion(self, vw, kappa):
        # CE = mean + kappa Var/2 + kappa^2 mu3/6 + O(kappa^3). With values in
        # [0, 20], kappa * R <= 2e-3, so kappa^2 R^3 bounds everything past
        # the Var term; rounding adds at most 4 ulp, as above.
        vals, w = vw
        mean, var, dev = exact_moments(vals, w)
        k = Fraction(kappa)
        gap = Fraction(make_entropic(kappa).rho_hat.evaluate(vals, w)) - mean - k * var / 2
        assert abs(gap) <= k * k * dev ** 3 + 4 * ulp_of_largest(vals, w)

    def test_large_kappa(self):
        crit = make_entropic(1e3)
        w = np.array([0.2, 0.3, 0.5])
        # The two lower atoms underflow: CE = 3 + log(0.5) / kappa.
        got = crit.sigma.evaluate(np.array([1.0, 2.0, 3.0]), w)
        assert abs(got - (3.0 + math.log(0.5) / 1e3)) <= 4 * np.spacing(3.0)
        # Near ties every atom counts; the plain shifted log-sum-exp is exact
        # enough at this kappa to serve as the reference.
        vals = np.array([1.0, 1.001, 1.002])
        want = 1.002 + math.log(float(np.dot(w, np.exp(1e3 * (vals - 1.002))))) / 1e3
        assert abs(crit.sigma.evaluate(vals, w) - want) <= 4 * np.spacing(1.002)

    def test_large_kappa_small_top_weight(self):
        # sum w expm1(kappa (v - vmax)) is about -1 + 1e-6 here, and log1p of
        # it would be off by 1.7e4 ulp; the direct log-sum-exp is exact enough.
        vals, w = np.array([0.0, 1.0]), np.array([1 - 2.0**-20, 2.0**-20])
        want = 1.0 + math.log(w[0] * math.exp(-20.0) + w[1]) / 20.0
        assert abs(make_entropic(20.0).sigma.evaluate(vals, w) - want) <= 4 * np.spacing(1.0)


@st.composite
def map_rows(draw):
    """2-D (values, weights) rows: zero-mass atoms carry junk up to +-1e3,
    and values include 0.0 and -0.0."""
    n_rows = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    zeros = st.sampled_from([0.0, -0.0])
    values, weights = [], []
    for _ in range(n_rows):
        w = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any))
        values.append([draw(st.one_of(zeros, st.floats(-30.0, 30.0) if c else st.floats(-1e3, 1e3)))
                       for c in w])
        weights.append(normed(w))
    return np.array(values), np.array(weights)


class TestRowForms:
    """The built-in maps' row forms equal one scalar call per row, bit for bit."""

    @staticmethod
    def assert_rows_equal_calls(ev, values, weights):
        calls = np.array([ev(v, w) for v, w in zip(values, weights)])
        assert ev.rows(values, weights).tobytes() == calls.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(map_rows(), st.sampled_from([1e-3, 1.0, 5.0, 1e3]))
    def test_property_rows_equal_scalar_calls(self, vw, kappa):
        values, weights = vw
        for crit in (make_expectation(), make_entropic(kappa)):
            self.assert_rows_equal_calls(crit.rho_hat.evaluate, values, weights)
            self.assert_rows_equal_calls(crit.sigma.evaluate, values, weights)

    def test_log_sum_exp_branch(self):
        # s = 0.9 expm1(-1000) = -0.9 < -1/2 in the first row only, so one
        # call takes each branch.
        values = np.array([[0.0, 1.0], [0.0, 1.0]])
        weights = np.array([[0.9, 0.1], [0.1, 0.9]])
        ev = make_entropic(1e3).sigma.evaluate
        self.assert_rows_equal_calls(ev, values, weights)
        assert ev.rows(values, weights)[0] == pytest.approx(1.0 + math.log(0.1) / 1e3, rel=1e-15)

    def test_row_without_mass(self):
        # A row with no atom of positive weight: the mean is the empty sum
        # either way, and the certainty equivalent fails the same way either way.
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        weights = np.array([[0.5, 0.5], [0.0, 0.0]])
        self.assert_rows_equal_calls(make_expectation().sigma.evaluate, values, weights)
        assert make_expectation().sigma.evaluate.rows(values, weights)[1] == 0.0
        ev = make_entropic(1.0).sigma.evaluate
        with pytest.raises(DomainError, match="needs an atom with positive weight"):
            ev(values[1], weights[1])
        with pytest.raises(DomainError, match="needs an atom with positive weight"):
            ev.rows(values, weights)


def broken_max_criterion() -> CriterionSpec:
    """Deliberately broken: takes the max over every coordinate, including
    coordinates with zero probability mass."""
    ev = lambda v, w: float(np.max(v))
    return CriterionSpec(
        kind="custom",
        rho_hat=MarginalRiskMap("broken-max", ev),
        sigma=TransitionRiskMap("broken-max", ev),
        report=lambda v: v,
        name="broken-max",
    )


class TestAxiomCheck:
    def test_expectation_passes(self):
        report = check_axioms(make_expectation(), samples=300, seed=0)
        assert report.passed
        assert report.violations == ()

    def test_entropic_passes_across_kappas(self):
        for kappa in (0.5, 1.0, 5.0):
            assert check_axioms(make_entropic(kappa), samples=300, seed=0).passed

    def test_broken_max_fails_support_axiom(self):
        report = check_axioms(broken_max_criterion(), samples=300, seed=0)
        assert not report.passed
        assert any(v.axiom == "support" for v in report.violations)

    def test_deterministic_given_seed(self):
        a = check_axioms(broken_max_criterion(), samples=100, seed=7)
        b = check_axioms(broken_max_criterion(), samples=100, seed=7)
        assert a.as_dict() == b.as_dict()

    def test_report_shape(self):
        d = check_axioms(make_expectation(), samples=10, seed=1).as_dict()
        assert d["samples"] == 10
        assert d["seed"] == 1
        assert d["passed"] is True
        assert d["violations"] == []

    def test_sample_count_validated(self):
        with pytest.raises(DomainError):
            check_axioms(make_expectation(), samples=0)


class TestCustom:
    def test_valid_custom_registers(self, sample_model):
        def mean(v, w):
            m = np.asarray(w) > 0
            return float(np.dot(np.asarray(w)[m], np.asarray(v)[m]))

        spec = make_custom("masked-mean", mean, mean, samples=200)
        assert spec.kind == "custom"
        assert spec.describe() == {"type": "custom", "name": "masked-mean"}
        # A masked mean is the expectation criterion under another name.
        g = build_reachable_belief_graph(sample_model)
        custom, _ = solve_dp(sample_model, spec, g)
        expected, _ = solve_dp(sample_model, make_expectation(), g)
        assert custom.values == expected.values
        assert custom.root_value == expected.root_value

    def test_invalid_custom_rejected_with_axiom_name(self):
        ev = lambda v, w: float(np.max(v))
        with pytest.raises(DomainError, match="support"):
            make_custom("bad-max", ev, ev, samples=200)

    def test_empty_name_rejected(self):
        with pytest.raises(DomainError):
            make_custom("", lambda v, w: 0.0, lambda v, w: 0.0)


class TestParseCriterion:
    def test_expectation(self):
        assert parse_criterion('{"type": "expectation"}').kind == "expectation"
        assert parse_criterion({"type": "expectation"}).kind == "expectation"

    def test_entropic(self):
        crit = parse_criterion('{"type": "entropic", "kappa": 2.0}')
        assert crit.kind == "entropic"
        assert crit.kappa == 2.0

    def test_bad_json(self):
        with pytest.raises(SchemaError):
            parse_criterion("{nope")

    def test_unknown_type(self):
        with pytest.raises(SchemaError):
            parse_criterion('{"type": "cvar"}')

    def test_extra_fields(self):
        with pytest.raises(SchemaError):
            parse_criterion('{"type": "expectation", "kappa": 1.0}')

    def test_missing_kappa(self):
        with pytest.raises(SchemaError):
            parse_criterion('{"type": "entropic"}')

    def test_nonpositive_kappa(self):
        with pytest.raises(DomainError, match="kappa > 0"):
            parse_criterion('{"type": "entropic", "kappa": -1.0}')

    def test_not_an_object(self):
        with pytest.raises(SchemaError):
            parse_criterion("[1]")
