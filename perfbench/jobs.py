"""The three workloads: one job each, its output checks and its counters.

Every job calls riskmdp through a ``tracing.Program`` ``rm``, so the same
code runs untraced and traced. Checks run outside the timed region and use
tolerances or compare the program with itself, so a last-digit change in
the arithmetic is not a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

TOL = 1e-9


class CheckFailed(Exception):
    pass


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def graph_counts(m, g) -> dict:
    """Node, edge, merge and pruning counts of a belief graph.

    Every node but the root is created by the first edge that reaches it,
    so the other edges are merges into an existing node. A pruned
    transition is an (admissible action, next state) pair below the horizon
    that has no edge because its predictive probability is zero.
    """
    nodes, edges = len(g.nodes), len(g.edges)
    merged = edges - (nodes - 1)
    slots = sum(len(m.admissible_actions(n.t, n.state)) * len(m.states)
                for n in g.nodes if n.t < m.horizon)
    return {
        "belief.nodes": nodes,
        "belief.edges": edges,
        "belief.merged_edges": merged,
        "belief.merge_ratio": merged / edges if edges else 0.0,
        "belief.pruned": slots - edges,
    }


def solve_evals(m, g) -> int:
    """Risk-map calls one solve_dp makes: per node and admissible action, one
    rho_hat plus, below the horizon, one sigma per parameter in the support."""
    total = 0
    for n in g.nodes:
        sigma = int((n.belief.weights > 0.0).sum()) if n.t < m.horizon else 0
        total += len(m.admissible_actions(n.t, n.state)) * (1 + sigma)
    return total


def span_sum(totals: dict, *prefixes: str) -> float:
    return sum(v for name, v in totals.items() if name.startswith(prefixes))


class Workload:
    """Interface of a workload; `round` jobs make one pass over its inputs."""

    name = ""
    work_unit = ""
    round = 1
    spans: dict[str, tuple[str, ...]] = {}  # per-layer metric -> span names summed
    layers: tuple[str, ...] = ()  # layers whose self time is reported

    def job(self, rm, k: int):
        raise NotImplementedError

    def work(self, out) -> int:
        raise NotImplementedError

    def check(self, rm, out) -> None:
        raise NotImplementedError

    def counts(self, rm, out) -> dict:
        raise NotImplementedError

    def probe(self, rm, out) -> None:
        """Extra traced calls made after a traced job, outside its timing."""

    def known_defect(self, rm) -> str | None:
        """Run the workload's probe for a known defect once, untimed.

        Returns a description if the defect fired, else None.
        """
        return None


class SolveDose(Workload):
    """Parse, build the belief graph, solve under both criteria, export JSON."""

    name = "solve_dose"
    work_unit = "belief nodes x criteria solved"
    spans = {
        "model.parse_s": ("model.parse_model",),
        "belief.build_s": ("belief.build_reachable_belief_graph",),
        "belief.graph_json_s": ("belief.graph_json",),
        "engine.solve_expectation_s": ("engine.solve_dp:expectation",),
        "engine.solve_entropic_s": ("engine.solve_dp:entropic",),
        "engine.export_s": ("engine.export",),
    }
    layers = ("model", "belief", "criterion", "engine")

    def __init__(self, rm, inputs: Path):
        self.model_text = (inputs / "model.json").read_text()
        self.probe_model = json.loads((inputs / "workload.json").read_text())["probe_model"]
        self.criteria = (rm.make_expectation(), rm.make_entropic(1.0))
        self.first_docs = None

    def job(self, rm, k):
        m = rm.parse_model(self.model_text)
        g = rm.build_reachable_belief_graph(m)
        solved = []
        for spec in self.criteria:
            table, qmp = rm.solve_dp(m, rm.criterion(spec), g)
            with rm.span("engine.export"):
                docs = (json.dumps(rm.value_table_to_json(table, qmp)), json.dumps(rm.policy_to_json(qmp)))
            solved.append((spec, table, qmp, docs))
        return m, g, solved

    def work(self, out):
        m, g, solved = out
        return len(g.nodes) * len(solved)

    def check(self, rm, out):
        m, g, solved = out
        docs = [d for *_, d in solved]
        if self.first_docs is None:
            for spec, table, qmp, _ in solved:
                value = rm.eval_policy_recursive(m, spec, rm.to_history_policy(qmp, m))
                if not close(value, table.root_value):
                    raise CheckFailed(f"{spec.kind}: root {table.root_value!r} but the unfolded "
                                      f"policy's recursive value is {value!r}")
            self.first_docs = docs
        elif docs != self.first_docs:
            raise CheckFailed("exported JSON differs from the first job's")

    def counts(self, rm, out):
        m, g, solved = out
        return {**graph_counts(m, g), "model.json_bytes": len(self.model_text),
                "criterion.evals": solve_evals(m, g) * len(solved)}

    def probe(self, rm, out):
        with rm.span("belief.graph_json"):
            json.dumps(rm.graph_to_json(out[1]))

    def known_defect(self, rm):
        """Build the graph of the same model with the seed-drawn prior.

        Some priors make `_normalize_exact` raise during graph build; any
        other exception propagates.
        """
        p = self.probe_model
        prior = dict(p["prior"])
        try:
            m = rm.gen_clinical_trials_model(doses=tuple(p["doses"]), theta_grid=tuple(p["theta_grid"]),
                                             horizon=p["horizon"], prior=prior)
            rm.build_reachable_belief_graph(m)
        except rm.DomainError as e:
            if "normalization did not converge" not in str(e):
                raise
            return f"graph build with the seed-drawn prior weights {prior} raised DomainError: {e}"
        return None


class SimulateCli(Workload):
    """In-process `riskmdp simulate` of the solved policy, cycling over theta*."""

    name = "simulate_cli"
    work_unit = "rollouts"
    spans = {
        "model.parse_s": ("model.parse_model",),
        "belief.build_s": ("belief.build_reachable_belief_graph",),
        "engine.unfold_s": ("engine.to_history_policy",),
        "sim.simulate_s": ("sim.simulate_runs",),
        "sim.summarize_s": ("sim.summarize",),
        "sim.csv_s": ("sim.trajectories_to_csv",),
        "cli.run_s": ("cli.run_cli",),
    }
    layers = ("model", "belief", "engine", "sim", "cli")

    def __init__(self, rm, inputs: Path):
        meta = json.loads((inputs / "workload.json").read_text())
        self.dir = inputs
        self.model = inputs / "model.json"
        self.policy = inputs / "policy.json"
        self.horizon = json.loads(self.model.read_text())["horizon"]
        self.runs = meta["runs"]
        self.seed = meta["sim_seed"]
        self.thetas = meta["thetas"]
        self.round = len(self.thetas)
        self.first_csv: dict[str, bytes] = {}
        self._static_counts: dict | None = None

    def job(self, rm, k):
        theta = self.thetas[k % len(self.thetas)]
        csv = self.dir / f"runs_{theta}.csv"
        argv = ["simulate", "--model", str(self.model), "--policy", str(self.policy),
                "--theta-star", theta, "--runs", str(self.runs), "--seed", str(self.seed),
                "--out", str(csv)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rm.run_cli(argv)
        if code != 0:
            raise RuntimeError(f"riskmdp simulate exited with {code}: {err.getvalue().strip()}")
        return theta, csv, out.getvalue()

    def replay(self, rm, k):
        """The library calls `riskmdp simulate` makes, without the CLI."""
        theta = self.thetas[k % len(self.thetas)]
        csv = self.dir / f"replay_{theta}.csv"
        m = rm.parse_model(self.model.read_text())
        doc = json.loads(self.policy.read_text())
        graph = rm.build_reachable_belief_graph(m)
        pol = rm.to_history_policy(rm.parse_policy(doc, m, graph), m)
        trajs = rm.simulate_runs(m, pol, theta, runs=self.runs, seed=self.seed)
        csv.write_text(rm.trajectories_to_csv(trajs, m))
        return theta, csv, rm.summary_to_json(rm.summarize(trajs, theta)) + "\n"

    def work(self, out):
        return self.runs

    def check(self, rm, out):
        theta, csv, summary = out
        data = csv.read_bytes()
        rows = data.count(b"\n") - 1
        if rows != self.runs * self.horizon:
            raise CheckFailed(f"CSV has {rows} rows, expected {self.runs * self.horizon}")
        doc = json.loads(summary)
        if doc["runs"] != self.runs or doc["theta_star"] != theta:
            raise CheckFailed(f"summary names {doc['runs']} runs under {doc['theta_star']}")
        if data != self.first_csv.setdefault(theta, data):
            raise CheckFailed(f"CSV for theta*={theta} differs from an earlier job's")

    def counts(self, rm, out):
        if self._static_counts is None:
            text = self.model.read_text()
            m = rm.parse_model(text)
            g = rm.build_reachable_belief_graph(m)
            qmp = rm.parse_policy(json.loads(self.policy.read_text()), m, g)
            self._static_counts = {**graph_counts(m, g), "model.json_bytes": len(text),
                                   "engine.histories": len(rm.to_history_policy(qmp, m).decisions)}
        return {**self._static_counts, "sim.csv_bytes": out[1].stat().st_size}


class CertifyRandom(Workload):
    """Solver against brute force and the three evaluators on one c1 instance."""

    name = "certify_random"
    work_unit = "history policies scored by brute force"
    spans = {
        "model.parse_s": ("model.parse_model",),
        "belief.build_s": ("belief.build_reachable_belief_graph",),
        "engine.solve_expectation_s": ("engine.solve_dp:expectation",),
        "engine.solve_entropic_s": ("engine.solve_dp:entropic",),
        "engine.unfold_s": ("engine.to_history_policy",),
        "engine.oracle_s": ("engine.brute_force_optimum",),
        "engine.eval_recursive_s": ("engine.eval_policy_recursive",),
        "engine.eval_paths_s": ("engine.eval_policy_paths",),
        "engine.eval_decomposed_s": ("engine.eval_policy_decomposed",),
    }
    layers = ("model", "belief", "criterion", "engine")

    def __init__(self, rm, inputs: Path):
        self.texts = [p.read_text() for p in sorted(inputs.glob("instance_*.json"))]
        self.criteria = (rm.make_expectation(), rm.make_entropic(1.0))
        self.policies = [sum(1 for _ in rm.enumerate_policies(rm.parse_model(t))) for t in self.texts]
        self.round = len(self.texts)

    def job(self, rm, k):
        i = k % len(self.texts)
        m = rm.parse_model(self.texts[i])
        g = rm.build_reachable_belief_graph(m)
        rows = []
        for spec in self.criteria:
            crit = rm.criterion(spec)
            table, qmp = rm.solve_dp(m, crit, g)
            best, _ = rm.brute_force_optimum(m, crit)
            pol = rm.to_history_policy(qmp, m)
            rows.append((spec, table.root_value, best, rm.eval_policy_recursive(m, crit, pol),
                         rm.eval_policy_paths(m, crit, pol), rm.eval_policy_decomposed(m, crit, pol)))
        return i, m, g, rows

    def work(self, out):
        return self.policies[out[0]] * len(self.criteria)

    def check(self, rm, out):
        i, m, g, rows = out
        for spec, root, best, recursive, _, _ in rows:
            if not close(root, best):
                raise CheckFailed(f"instance {i}, {spec.kind}: solver {root!r} != brute force {best!r}")
            if not close(recursive, root):
                raise CheckFailed(f"instance {i}, {spec.kind}: policy value {recursive!r} != root {root!r}")

    def counts(self, rm, out):
        i, m, g, rows = out
        return {**graph_counts(m, g), "model.json_bytes": len(self.texts[i]),
                "criterion.evals": solve_evals(m, g) * len(rows),
                "engine.policies": self.work(out)}


WORKLOADS = {w.name: w for w in (SolveDose, SimulateCli, CertifyRandom)}
