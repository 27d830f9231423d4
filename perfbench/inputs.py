"""Input generator for the riskmdp benchmark.

    python3 perfbench/inputs.py --workload NAME --seed N --out DIR

imports riskmdp from the checkout's ``src/``, builds the workload's inputs
from the seed and writes them to DIR. The benchmark times this whole process
as set-up; jobs then read only what it wrote. See README.md for the
workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("solve_dose", "simulate_cli", "certify_random")

DOSES = (1, 2, 3, 4)
THETAS = (1, 2, 3)
SOLVE_HORIZON = 9
SIM_HORIZON = 6
SIM_RUNS = 2000
SIM_CRITERION = '{"type": "entropic", "kappa": 1.0}'
CERTIFY_INSTANCES = 40
CERTIFY_SHAPE = dict(n_states=2, n_actions=2, n_params=3, horizon=3, allow_restricted=False)


def load_program():
    """Import riskmdp from this checkout's src/, never from anywhere else."""
    pkg = ROOT / "src" / "riskmdp"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"riskmdp sources not found at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import riskmdp

    if Path(riskmdp.__file__).resolve().parent != pkg:
        raise SystemExit(f"imported riskmdp from {riskmdp.__file__}, expected {pkg}")
    return riskmdp


def load_c1_generator():
    """The random-instance generator the acceptance suite's criterion 1 uses."""
    path = ROOT / "tests" / "conftest.py"
    if not path.is_file():
        raise SystemExit(f"instance generator not found at {path}")
    spec = importlib.util.spec_from_file_location("riskmdp_tests_conftest", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.random_instance


def seed_prior(seed: int) -> dict:
    """Integer prior weights, 1 to 9 per parameter, drawn from the seed."""
    weights = np.random.default_rng(seed).integers(1, 10, size=len(THETAS))
    return {th: float(w) for th, w in zip(THETAS, weights)}


def write_inputs(rm, workload: str, seed: int, out: Path) -> None:
    """Generate and serialize the inputs of one workload into `out`.

    `rm` supplies the riskmdp functions, so a traced run can pass wrapped
    ones; `rm.run_cli` is the command-line entry point.
    """
    out.mkdir(parents=True, exist_ok=True)
    meta: dict = {"workload": workload, "seed": seed}
    if workload == "solve_dose":
        # The timed jobs use the generator's uniform prior: a prior drawn per
        # run would make the run-to-run spread partly a spread of priors, and
        # some drawn priors trip the known `_normalize_exact` defect, which
        # would fail every job. The drawn prior is kept for the defect probe,
        # run once per run outside the timing and reported (see run.py).
        (out / "model.json").write_text(rm.serialize_model(
            rm.gen_clinical_trials_model(doses=DOSES, theta_grid=THETAS, horizon=SOLVE_HORIZON)))
        meta["probe_model"] = dict(doses=DOSES, theta_grid=THETAS, horizon=SOLVE_HORIZON,
                                   prior=list(seed_prior(seed).items()))
    elif workload == "simulate_cli":
        # The prior is the generator's uniform default, not drawn from the
        # seed: the cost of a rollout depends on the prior, and one prior per
        # run would make the run-to-run spread mostly a spread of priors.
        model = out / "model.json"
        model.write_text(rm.serialize_model(
            rm.gen_clinical_trials_model(doses=DOSES, theta_grid=THETAS, horizon=SIM_HORIZON)))
        argv = ["solve", "--model", str(model), "--criterion", SIM_CRITERION,
                "--out", str(out / "table.json"), "--policy", str(out / "policy.json")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = rm.run_cli(argv)
        if code != 0:
            raise SystemExit(f"riskmdp solve exited with {code}: {err.getvalue().strip()}")
        meta.update(runs=SIM_RUNS, sim_seed=seed, thetas=[str(th) for th in THETAS])
    elif workload == "certify_random":
        random_instance = load_c1_generator()
        seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=CERTIFY_INSTANCES)
        for k, s in enumerate(seeds):
            m = random_instance(int(s), **CERTIFY_SHAPE)
            (out / f"instance_{k:03d}.json").write_text(rm.serialize_model(m))
        meta["instance_seeds"] = [int(s) for s in seeds]
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    (out / "workload.json").write_text(json.dumps(meta, indent=1))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    pkg = load_program()
    from riskmdp import cli
    from tracing import Program

    write_inputs(Program(pkg, cli), args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
