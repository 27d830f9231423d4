"""Risk-averse finite-horizon MDP solver with Bayesian parameter uncertainty.

The package solves finite-horizon, finite-space Markov decision problems in
which transition kernels and stage costs depend on an unknown parameter with
a known prior. Optimization is over the reachable graph of posterior beliefs,
and the objective is assembled from a recursive pair of risk maps so that
risk-neutral and risk-averse (entropic) preferences share one solver.
"""

from .belief import (
    BeliefGraph,
    BeliefNode,
    bayes_update,
    belief_fingerprint,
    build_reachable_belief_graph,
    graph_to_json,
    path_likelihood,
    posterior_from_history,
    predictive_next_state,
)
from .criterion import (
    AxiomReport,
    AxiomViolation,
    CriterionSpec,
    MarginalRiskMap,
    TransitionRiskMap,
    check_axioms,
    make_custom,
    make_entropic,
    make_expectation,
    parse_criterion,
)
from .engine import (
    HistoryPolicy,
    QuasiMarkovPolicy,
    ValueTable,
    brute_force_optimum,
    enumerate_policies,
    eval_policy_decomposed,
    eval_policy_paths,
    eval_policy_recursive,
    parse_policy,
    policy_to_json,
    solve_dp,
    to_history_policy,
    value_table_to_json,
)
from .errors import (
    CapExceeded,
    DomainError,
    RiskMdpError,
    SchemaError,
    ValidationError,
    ZeroProbabilityObservation,
)
from .model import (
    Belief,
    Issue,
    ModelSpec,
    gen_clinical_trials_model,
    logistic_response,
    parse_model,
    serialize_model,
    validate_model,
)
from .sim import (
    Trajectory,
    simulate_runs,
    summarize,
    summary_to_json,
    trajectories_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "AxiomViolation",
    "Belief",
    "BeliefGraph",
    "BeliefNode",
    "CapExceeded",
    "CriterionSpec",
    "DomainError",
    "HistoryPolicy",
    "Issue",
    "MarginalRiskMap",
    "ModelSpec",
    "QuasiMarkovPolicy",
    "RiskMdpError",
    "SchemaError",
    "Trajectory",
    "TransitionRiskMap",
    "ValidationError",
    "ValueTable",
    "ZeroProbabilityObservation",
    "bayes_update",
    "belief_fingerprint",
    "brute_force_optimum",
    "build_reachable_belief_graph",
    "check_axioms",
    "enumerate_policies",
    "eval_policy_decomposed",
    "eval_policy_paths",
    "eval_policy_recursive",
    "gen_clinical_trials_model",
    "graph_to_json",
    "logistic_response",
    "make_custom",
    "make_entropic",
    "make_expectation",
    "parse_criterion",
    "parse_model",
    "parse_policy",
    "path_likelihood",
    "policy_to_json",
    "posterior_from_history",
    "predictive_next_state",
    "serialize_model",
    "simulate_runs",
    "solve_dp",
    "summarize",
    "summary_to_json",
    "to_history_policy",
    "trajectories_to_csv",
    "validate_model",
    "value_table_to_json",
]
