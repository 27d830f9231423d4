"""Model parsing, validation, serialization, beliefs, and the trial generator."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskmdp import (
    Belief,
    DomainError,
    SchemaError,
    ValidationError,
    build_reachable_belief_graph,
    gen_clinical_trials_model,
    logistic_response,
    parse_model,
    serialize_model,
    validate_model,
)
from riskmdp.model import _normalize_exact, _normalize_rows

from conftest import DATA, random_instance
from test_normalize_reference import NONCONVERGING, reference_normalize_exact


def sample_text() -> str:
    return (DATA / "sample_model.json").read_text()


class TestParse:
    def test_sample_fields(self, sample_model):
        m = sample_model
        assert m.horizon == 2
        assert m.states == ("s0", "s1")
        assert m.actions == ("a0", "a1")
        assert m.parameters == ("th1", "th2")
        assert m.initial_state == "s0"
        assert m.prior.as_dict() == {"th1": 0.5, "th2": 0.5}

    def test_sample_kernel_entries(self, sample_model):
        m = sample_model
        assert m.kernel_row("th1", "s0", "a0").tolist() == [0.1, 0.9]
        assert m.kernel_row("th2", "s0", "a0").tolist() == [0.7, 0.3]
        assert m.kernel_row("th1", "s1", "a1").tolist() == [0.5, 0.5]

    def test_sample_costs(self, sample_model):
        m = sample_model
        assert m.cost_vector(1, "s0", "a0").tolist() == [1.0, 0.0]
        assert m.cost_vector(2, "s1", "a0").tolist() == [0.0, 2.0]
        assert m.cost_vector(2, "s0", "a1").tolist() == [1.0, 1.0]

    def test_sample_admissible_everywhere(self, sample_model):
        m = sample_model
        for t in (1, 2):
            for x in m.states:
                assert m.admissible_actions(t, x) == ("a0", "a1")

    def test_sample_has_no_issues(self, sample_model):
        assert validate_model(sample_model) == []

    def test_round_trip_is_exact(self, sample_model):
        again = parse_model(serialize_model(sample_model))
        assert again == sample_model

    def test_round_trip_random_instances(self):
        for seed in range(5):
            m = random_instance(seed)
            # serialize emits floats with repr, so parse must see the same bits
            again = parse_model(serialize_model(m))
            assert again.horizon == m.horizon
            assert np.array_equal(again.cost, m.cost)
            assert np.array_equal(again.admissible, m.admissible)
            assert again.prior == m.prior
            # kernel rows were already normalized, renormalizing is a no-op
            assert np.array_equal(again.kernel, m.kernel)

    def test_prior_is_normalized_exactly(self, sample_model):
        assert float(sample_model.prior.weights.sum()) == 1.0

    def test_kernel_rows_sum_to_exactly_one(self, sample_model):
        sums = sample_model.kernel.sum(axis=3)
        assert np.all(sums == 1.0)


class TestSchemaErrors:
    def edit(self, **overrides) -> str:
        doc = json.loads(sample_text())
        doc.update(overrides)
        return json.dumps(doc)

    def test_not_json(self):
        with pytest.raises(SchemaError):
            parse_model("{not json")

    def test_top_level_not_object(self):
        with pytest.raises(SchemaError):
            parse_model("[1, 2]")

    def test_missing_field(self):
        doc = json.loads(sample_text())
        del doc["kernel"]
        with pytest.raises(SchemaError, match="missing"):
            parse_model(json.dumps(doc))

    def test_unknown_field(self):
        with pytest.raises(SchemaError, match="unknown"):
            parse_model(self.edit(discount=0.9))

    def test_horizon_must_be_integer(self):
        with pytest.raises(SchemaError):
            parse_model(self.edit(horizon=2.0))
        with pytest.raises(SchemaError):
            parse_model(self.edit(horizon=True))

    def test_duplicate_labels(self):
        with pytest.raises(SchemaError, match="unique"):
            parse_model(self.edit(states=["s0", "s0"]))

    def test_empty_label_list(self):
        with pytest.raises(SchemaError):
            parse_model(self.edit(actions=[]))

    def test_kernel_missing_action(self):
        doc = json.loads(sample_text())
        del doc["kernel"]["th1"]["s0"]["a1"]
        with pytest.raises(SchemaError, match="missing action"):
            parse_model(json.dumps(doc))

    def test_kernel_unknown_next_state(self):
        doc = json.loads(sample_text())
        doc["kernel"]["th1"]["s0"]["a0"]["s9"] = 0.0
        with pytest.raises(SchemaError, match="unknown states"):
            parse_model(json.dumps(doc))

    def test_kernel_boolean_probability(self):
        doc = json.loads(sample_text())
        doc["kernel"]["th1"]["s0"]["a0"]["s0"] = True
        with pytest.raises(SchemaError, match="number"):
            parse_model(json.dumps(doc))

    def test_cost_missing_time(self):
        doc = json.loads(sample_text())
        del doc["cost"]["2"]
        with pytest.raises(SchemaError, match="missing time"):
            parse_model(json.dumps(doc))

    def test_cost_extra_time(self):
        doc = json.loads(sample_text())
        doc["cost"]["3"] = doc["cost"]["2"]
        with pytest.raises(SchemaError, match="outside"):
            parse_model(json.dumps(doc))

    def test_cost_missing_parameter(self):
        doc = json.loads(sample_text())
        del doc["cost"]["1"]["s0"]["a0"]["th2"]
        with pytest.raises(SchemaError, match="missing parameter"):
            parse_model(json.dumps(doc))

    def test_admissible_time_out_of_range(self):
        doc = json.loads(sample_text())
        doc["admissible"]["9"] = {"s0": ["a0"]}
        with pytest.raises(SchemaError, match="outside"):
            parse_model(json.dumps(doc))

    def test_admissible_unknown_action(self):
        doc = json.loads(sample_text())
        doc["admissible"]["1"]["s0"] = ["a7"]
        with pytest.raises(SchemaError, match="unknown actions"):
            parse_model(json.dumps(doc))


def _one_time_cost_huge_horizon(d):
    d["horizon"] = 10**15
    d["cost"] = {"1": d["cost"]["1"]}
    del d["admissible"]


# Documents that escaped the schema checks: a crash other than SchemaError,
# a huge allocation, or a key silently dropped or misread.
PARSE_HOLES = {
    "admissible-entry-not-a-label": (lambda d: d["admissible"]["1"].update(s0=[["a0"]]), "list of actions"),
    "prior-beyond-float-range": (lambda d: d["prior"].update(th1=2**1100), "number"),
    "kernel-beyond-float-range": (lambda d: d["kernel"]["th1"]["s0"]["a0"].update(s0=2**1100), "number"),
    "cost-beyond-float-range": (lambda d: d["cost"]["1"]["s0"]["a0"].update(th1=2**1100), "number"),
    "kernel-unknown-parameter": (lambda d: d["kernel"].update(th9=d["kernel"]["th1"]), "unknown parameters"),
    "kernel-unknown-state": (lambda d: d["kernel"]["th1"].update(s9=d["kernel"]["th1"]["s0"]), "unknown states"),
    "kernel-unknown-action": (lambda d: d["kernel"]["th1"]["s0"].update(a9=d["kernel"]["th1"]["s0"]["a0"]),
                              "unknown actions"),
    "cost-unknown-state": (lambda d: d["cost"]["1"].update(s9=d["cost"]["1"]["s0"]), "unknown states"),
    "cost-unknown-action": (lambda d: d["cost"]["1"]["s0"].update(a9=d["cost"]["1"]["s0"]["a0"]), "unknown actions"),
    "admissible-time-not-canonical": (lambda d: d["admissible"].update({"01": {"s0": ["a0"]}}), "outside"),
    "huge-horizon-one-time-cost": (_one_time_cost_huge_horizon, "missing time '2'"),
}


@pytest.mark.parametrize("mutate, match", PARSE_HOLES.values(), ids=PARSE_HOLES.keys())
def test_parse_hole_is_a_schema_error(mutate, match):
    doc = json.loads(sample_text())
    mutate(doc)
    with pytest.raises(SchemaError, match=match):
        parse_model(json.dumps(doc))


def test_huge_horizon_with_a_non_object_cost():
    doc = json.loads(sample_text())
    doc.update(horizon=10**15, cost=[])
    with pytest.raises(SchemaError, match="cost must be an object"):
        parse_model(json.dumps(doc))


class TestValidationErrors:
    def broken(self, mutate) -> str:
        doc = json.loads(sample_text())
        mutate(doc)
        return json.dumps(doc)

    def test_nonstochastic_kernel_row(self):
        text = self.broken(lambda d: d["kernel"]["th1"]["s0"]["a0"].update({"s0": 0.1, "s1": 0.8}))
        with pytest.raises(ValidationError, match="sums to"):
            parse_model(text)

    def test_kernel_row_sum_overflows(self):
        # The row is finite, so it is summed; the sum's overflow must not warn.
        text = self.broken(lambda d: d["kernel"]["th1"]["s0"]["a0"].update({"s0": 1e308, "s1": 1e308}))
        with pytest.raises(ValidationError, match=r"\(th1, s0, a0\) sums to inf$"):
            parse_model(text)

    def test_negative_kernel_entry(self):
        text = self.broken(lambda d: d["kernel"]["th1"]["s0"]["a0"].update({"s0": -0.1, "s1": 1.1}))
        with pytest.raises(ValidationError, match="kernel row not stochastic"):
            parse_model(text)

    def test_prior_not_normalized(self):
        text = self.broken(lambda d: d.update(prior={"th1": 0.5, "th2": 0.6}))
        with pytest.raises(ValidationError, match="prior"):
            parse_model(text)

    def test_prior_negative(self):
        text = self.broken(lambda d: d.update(prior={"th1": 1.5, "th2": -0.5}))
        with pytest.raises(ValidationError, match="prior"):
            parse_model(text)

    def test_unknown_initial_state(self):
        text = self.broken(lambda d: d.update(initial_state="s9"))
        with pytest.raises(ValidationError, match="initial_state"):
            parse_model(text)

    def test_negative_cost(self):
        text = self.broken(lambda d: d["cost"]["1"]["s0"]["a0"].update({"th1": -1.0}))
        with pytest.raises(ValidationError, match="nonnegative"):
            parse_model(text)

    def test_horizon_zero(self):
        def mutate(d):
            d["horizon"] = 0
            d["cost"] = {}
            d.pop("admissible")

        with pytest.raises(ValidationError, match="horizon"):
            parse_model(self.broken(mutate))

    def test_empty_admissible_set(self):
        text = self.broken(lambda d: d["admissible"].update({"2": {"s1": []}}))
        with pytest.raises(ValidationError, match="empty admissible"):
            parse_model(text)

    def test_all_issues_reported_not_just_first(self):
        def mutate(d):
            d["prior"] = {"th1": 0.5, "th2": 0.6}
            d["initial_state"] = "s9"

        with pytest.raises(ValidationError) as exc:
            parse_model(self.broken(mutate))
        codes = {i.code for i in exc.value.issues}
        assert {"prior", "initial_state"} <= codes

    def test_unreachable_transition_warning(self):
        # make s0 -> s1 impossible under a1 for every parameter
        def mutate(d):
            for th in ("th1", "th2"):
                d["kernel"][th]["s0"]["a1"] = {"s0": 1.0, "s1": 0.0}

        m = parse_model(self.broken(mutate))
        issues = validate_model(m)
        assert any(i.severity == "warning" and i.code == "unreachable"
                   and "s0" in i.message and "a1" in i.message for i in issues)
        assert all(i.severity == "warning" for i in issues)


def _misfit(seed: int, horizon: int, field: str):
    """A code-built model with one part that does not fit its labels."""
    m = random_instance(seed, n_states=2, n_actions=2, n_params=3, horizon=horizon)
    if field == "prior":
        return dataclasses.replace(m, prior=Belief(m.parameters[:2], np.array([0.5, 0.5])))
    return dataclasses.replace(m, **{field: getattr(m, field)[:-1]})


@pytest.mark.parametrize("field", ["prior", "kernel", "cost", "admissible"])
@pytest.mark.parametrize("horizon", [1, 2])
def test_misfit_code_built_model_is_an_error(field, horizon):
    issues = validate_model(_misfit(5, horizon, field))
    assert [(i.severity, i.code) for i in issues] == [("error", field)]


def test_negative_horizon_without_admissible_is_reported():
    m = dataclasses.replace(random_instance(5), horizon=-1, admissible=None)
    assert [(i.severity, i.code) for i in validate_model(m)] == [("error", "horizon")]


@pytest.mark.parametrize("horizon", [1, 2])
def test_graph_rejects_a_prior_over_other_parameters(horizon):
    with pytest.raises(DomainError, match="not over this model's parameters"):
        build_reachable_belief_graph(_misfit(5, horizon, "prior"))


class TestNormalizeExact:
    def test_exact_sum(self):
        v = _normalize_exact(np.array([0.3, 0.3, 0.3]))
        assert float(v.sum()) == 1.0

    def test_zeros_preserved(self):
        v = _normalize_exact(np.array([0.0, 0.7, 0.0, 0.2]))
        assert v[0] == 0.0 and v[2] == 0.0
        assert float(v.sum()) == 1.0

    def test_zero_sum_rejected(self):
        with pytest.raises(DomainError):
            _normalize_exact(np.array([0.0, 0.0]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1, max_size=8))
    def test_property_exact_sum(self, vals):
        v = _normalize_exact(np.array(vals))
        assert float(v.sum()) == 1.0
        assert np.all(v >= 0.0)


skewed_entry = st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=1e6), st.floats(0.0, 1.0))
skewed_rows = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.lists(skewed_entry, min_size=n, max_size=n), min_size=1, max_size=8))


class TestNormalizeRows:
    @settings(max_examples=300, deadline=None)
    @given(skewed_rows)
    def test_property_matches_normalize_exact_bitwise(self, rows):
        a = np.array(rows)
        try:
            expected = np.array([reference_normalize_exact(r) for r in a])
        except DomainError as e:
            with pytest.raises(DomainError, match=str(e)):
                _normalize_rows(a)
            return
        assert _normalize_rows(a).tobytes() == expected.tobytes()

    def test_rows_that_need_the_ulp_walk(self):
        # 90 of these 3000 rows miss 1.0 after the argmax fold.
        rng = np.random.default_rng(0)
        a = rng.random((3000, 5)) ** rng.uniform(1.0, 20.0, size=(3000, 1))
        a[rng.random(a.shape) < 0.2] = 0.0
        a[:, 0] += 1e-3
        expected = np.array([reference_normalize_exact(r) for r in a])
        assert _normalize_rows(a).tobytes() == expected.tobytes()

    def test_same_error_on_the_nonconverging_vector(self):
        with pytest.raises(DomainError, match="did not converge"):
            _normalize_exact(np.array(NONCONVERGING))
        with pytest.raises(DomainError, match="did not converge"):
            _normalize_rows(np.array([[0.2, 0.8, 0.0, 0.0, 0.0], NONCONVERGING, [0.0] * 5]))

    def test_first_failing_row_decides_the_error(self):
        with pytest.raises(DomainError, match="nonpositive sum"):
            _normalize_rows(np.array([[0.0] * 5, NONCONVERGING]))


class TestBelief:
    def test_from_mapping_and_mass(self):
        b = Belief.from_mapping({"a": 1.0, "b": 3.0})
        assert b.mass("a") == 0.25
        assert b.mass("b") == 0.75

    def test_from_mapping_partial_over_params(self):
        b = Belief.from_mapping({"b": 2.0}, params=("a", "b"))
        assert b.as_dict() == {"a": 0.0, "b": 1.0}

    def test_from_mapping_unknown_param(self):
        with pytest.raises(DomainError, match="unknown"):
            Belief.from_mapping({"zz": 1.0}, params=("a", "b"))

    def test_uniform(self):
        b = Belief.uniform(("a", "b", "c", "d"))
        assert b.as_dict() == {"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25}
        assert float(b.weights.sum()) == 1.0

    def test_point_mass_and_support(self):
        b = Belief.point_mass(("a", "b", "c"), "b")
        assert b.support == ("b",)
        assert b.mass("b") == 1.0
        with pytest.raises(DomainError):
            Belief.point_mass(("a",), "zz")

    def test_weights_are_read_only(self):
        b = Belief.uniform(("a", "b"))
        with pytest.raises(ValueError):
            b.weights[0] = 0.9

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            Belief(("a", "b"), np.array([1.0, -0.5]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            Belief(("a", "b"), np.array([1.0, 1.0, 1.0]))

    def test_unknown_mass_query(self):
        with pytest.raises(DomainError):
            Belief.uniform(("a",)).mass("zz")

    def test_equality_is_exact(self):
        a = Belief(("a", "b"), np.array([1.0, 3.0]))
        b = Belief(("a", "b"), np.array([0.25, 0.75]))
        assert a == b
        assert a != Belief(("a", "b"), np.array([0.5, 0.5]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=6)
           .filter(lambda v: sum(v) > 0))
    def test_property_normalization_and_support(self, vals):
        params = tuple(f"p{i}" for i in range(len(vals)))
        b = Belief(params, np.array(vals))
        assert float(b.weights.sum()) == 1.0
        # zero inputs stay exactly zero
        for i, v in enumerate(vals):
            if v == 0.0:
                assert b.weights[i] == 0.0


class TestLogisticResponse:
    def test_frozen_value(self):
        # dose 1, sensitivity 3: 1 / (1 + exp(2)) = 0.11920292202211755
        assert abs(logistic_response(3.0, 1.0) - 0.11920292202211755) < 1e-15

    def test_midpoint(self):
        assert logistic_response(2.0, 2.0) == 0.5

    def test_monotone_in_dose(self):
        assert logistic_response(2.0, 3.0) > logistic_response(2.0, 1.0)


class TestTrialGenerator:
    def test_shape_and_labels(self):
        m = gen_clinical_trials_model([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], horizon=3)
        assert m.states == ("0", "1")
        assert m.actions == ("1", "2", "3")
        assert m.parameters == ("1", "2", "3")
        assert m.horizon == 3
        assert m.initial_state == "0"
        assert float(m.prior.weights.sum()) == 1.0
        assert all(abs(w - 1 / 3) < 1e-15 for w in m.prior.weights)

    def test_kernel_matches_logistic_curve(self):
        m = gen_clinical_trials_model([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], horizon=2)
        p = 1.0 / (1.0 + math.exp(2.0))  # response(theta=3, dose=1)
        row = m.kernel_row("3", "0", "1")
        assert abs(row[1] - p) < 1e-15
        assert abs(row[0] - (1.0 - p)) < 1e-15
        # transition law ignores the current state
        assert np.array_equal(m.kernel_row("3", "0", "1"), m.kernel_row("3", "1", "1"))

    def test_cost_is_absolute_dose_error(self):
        m = gen_clinical_trials_model([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], horizon=2)
        assert m.cost_vector(1, "0", "1").tolist() == [0.0, 1.0, 2.0]
        assert m.cost_vector(2, "1", "3").tolist() == [2.0, 1.0, 0.0]

    def test_validates_cleanly(self):
        m = gen_clinical_trials_model([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], horizon=3)
        assert [i for i in validate_model(m) if i.severity == "error"] == []

    def test_prior_mapping_with_numeric_keys(self):
        m = gen_clinical_trials_model([1.0, 2.0], [1.0, 2.0], horizon=1,
                                      prior={1.0: 3.0, 2.0: 1.0})
        assert m.prior.as_dict() == {"1": 0.75, "2": 0.25}

    def test_prior_outside_grid_rejected(self):
        with pytest.raises(DomainError):
            gen_clinical_trials_model([1.0], [1.0, 2.0], horizon=1, prior={"7": 1.0})

    def test_response_table(self):
        table = {(1.0, 1.0): 0.2, (1.0, 2.0): 0.8,
                 (2.0, 1.0): 0.1, (2.0, 2.0): 0.4}
        m = gen_clinical_trials_model([1.0, 2.0], [1.0, 2.0], horizon=1,
                                      response=lambda th, d: table[th, d])
        assert abs(m.kernel_row("1", "0", "2")[1] - 0.8) < 1e-15

    def test_response_out_of_range(self):
        with pytest.raises(DomainError, match="outside"):
            gen_clinical_trials_model([1.0], [1.0], horizon=1, response=lambda th, d: 1.5)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            gen_clinical_trials_model([], [1.0], horizon=1)
        with pytest.raises(DomainError):
            gen_clinical_trials_model([1.0], [], horizon=1)
        with pytest.raises(DomainError):
            gen_clinical_trials_model([1.0, 1.0], [1.0], horizon=1)
        with pytest.raises(DomainError):
            gen_clinical_trials_model([1.0], [1.0], horizon=0)
