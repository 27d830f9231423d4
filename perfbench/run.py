#!/usr/bin/env python3
"""Benchmark of riskmdp on three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a riskmdp checkout; riskmdp is imported from its
``src/``. ``--trace 0`` times one workload untraced: the set-up, then a closed
loop of jobs in this process for S seconds, with every output checked outside
the timed region. It prints the end-to-end metrics. ``--trace 1`` is the
separate traced run: it records spans around the calls into riskmdp on all
three workloads, whichever one is named, because no single workload calls
all six modules, and prints the per-layer metrics of each, prefixed with the
workload's name. The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One thread per process: pin native thread pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402

import inputs  # noqa: E402
import jobs  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = inputs.ROOT
WORK = ROOT / ".perfbench"
SETUPS = 5  # set-ups per untraced run; setup_s is their median
MIN_ROUNDS = 2  # passes over a workload's inputs, however short the run
TAIL_BEYOND = 10  # samples a tail percentile must have above it


class Tally:
    """Jobs attempted and failed, and whether any output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.failures: list[str] = []
        self.wrong = False

    def run(self, wl, fn, check_rm):
        """Time fn() as one job, then check its output outside the timing."""
        gc.collect()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as e:  # every exception a job raises counts as a failed job
            seconds = time.perf_counter() - t0
            self.failed += 1
            self.failures.append(f"{wl.name}: job raised {type(e).__name__}: {e}")
            return None, seconds
        seconds = time.perf_counter() - t0
        self.completed += 1
        try:
            wl.check(check_rm, out)
        except Exception as e:  # a check that cannot run is a failed check
            self.failed += 1
            self.wrong = True
            self.failures.append(f"{wl.name}: output check failed: {type(e).__name__}: {e}")
            return None, seconds
        return out, seconds

    def problem(self, msg: str) -> None:
        self.wrong = True
        self.failures.append(msg)

    def result(self, metrics: dict, units: dict) -> dict:
        return {
            "correct": self.completed > 0 and not self.wrong,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }


def rounds(wl, seconds: float):
    """Job indices, in whole passes, until `seconds` have passed."""
    start = time.perf_counter()
    done = 0
    while done < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for i in range(wl.round):
            yield done * wl.round + i
        done += 1


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    With too few samples for that to lie above the median, the maximum.
    Returns (value, percentile).
    """
    s = sorted(samples)
    n = len(s)
    if n > 2 * TAIL_BEYOND:
        i = n - 1 - TAIL_BEYOND
        return s[i], 100.0 * i / (n - 1)
    return s[-1], 100.0


def snapshot(d: Path) -> dict:
    return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}


def set_up(workload: str, seed: int, tmp: Path, tally: Tally) -> tuple[list[float], Path]:
    """Run the input generator SETUPS times in fresh interpreters."""
    times, first = [], None
    for i in range(SETUPS):
        out = tmp / f"inputs{i}"
        cmd = [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(out)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed with exit code {proc.returncode}:\n{proc.stderr}")
        snap = snapshot(out)
        if first is None:
            first = snap
        elif snap != first:
            tally.problem(f"{workload}: set-up {i} wrote different inputs than set-up 0")
    return times, tmp / "inputs0"


def untraced_run(workload, seed, seconds, tmp, plain, tally, meta):
    setup_times, inputs_dir = set_up(workload, seed, tmp, tally)
    wl = jobs.WORKLOADS[workload](plain, inputs_dir)
    times, work = [], 0
    for k in rounds(wl, seconds):
        out, dt = tally.run(wl, lambda: wl.job(plain, k), plain)
        times.append(dt)
        if out is not None:
            work += wl.work(out)
    tail_value, tail_pct = tail(times)
    meta.update(jobs=len(times), setups=SETUPS, work_unit=wl.work_unit,
                wall_s_tail_percentile=round(tail_pct, 2), wall_s_tail_samples=len(times))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(times),
        "wall_s_tail": tail_value,
        "work_per_s": work / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # After peak_rss_mb is read, so the probe's memory is not counted.
    meta["known_defect"] = wl.known_defect(plain)
    return metrics


def traced_workload(wl_cls, seed, budget, tmp, plain, traced, tally) -> dict:
    """Per-layer metrics of one workload, as medians over its traced jobs.

    Each traced job is paired with the same job untraced; the difference of
    their medians is the tracing overhead.
    """
    tracer = traced.tracer
    name = wl_cls.name
    tracer.job = f"{name}/setup"
    with traced.instrument_cli():
        inputs.write_inputs(traced, name, seed, tmp / name)
    tracer.job = None
    wl = wl_cls(plain, tmp / name)

    plain_s, traced_s, replay_s, done = [], [], [], []
    for k in rounds(wl, budget):
        plain_s.append(tally.run(wl, lambda: wl.job(plain, k), plain)[1])

        def traced_job():
            with tracer.span("job"):
                return wl.job(traced, k)

        jid = f"{name}/{k}"
        tracer.job = jid
        with traced.instrument_cli():
            out, dt = tally.run(wl, traced_job, plain)
        traced_s.append(dt)
        counts = {}
        if out is not None:
            tracer.job = f"{jid}/probe"
            wl.probe(traced, out)
            counts = wl.counts(plain, out)
        tracer.job = None
        done.append((jid, counts))
        if hasattr(wl, "replay"):
            replay_s.append(tally.run(wl, lambda: wl.replay(plain, k), plain)[1])

    breakdown = tracing.job_breakdown(tracer.spans)
    rows = []
    for jid, counts in done:
        job = breakdown[jid]
        totals = {**job["total"], **breakdown.get(f"{jid}/probe", {"total": {}})["total"]}
        row = {metric: jobs.span_sum(totals, *names) for metric, names in wl.spans.items()}
        row.update({f"{layer}.self_s": job["self"][layer] for layer in wl.layers})
        row.update(counts)
        if "criterion.evals" in counts:
            calls = sum(n for s, n in job["criterion_calls"].items() if s.startswith("engine.solve_dp"))
            if calls != counts["criterion.evals"]:
                tally.problem(f"{name}: solve_dp made {calls} risk-map calls, "
                              f"graph structure predicts {counts['criterion.evals']}")
        rows.append(row)
    keys = dict.fromkeys(k for row in rows for k in row)
    metrics = {k: statistics.median(row[k] for row in rows if k in row) for k in keys}
    metrics["model.serialize_s"] = breakdown[f"{name}/setup"]["total"]["model.serialize_model"]
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced_s) / statistics.median(plain_s) - 1.0)
    if replay_s:
        metrics["sim.us_per_run"] = 1e6 * metrics["sim.simulate_s"] / wl.runs
        metrics["cli.overhead_s"] = statistics.median(plain_s) - statistics.median(replay_s)
    return {f"{name}.{k}": v for k, v in metrics.items()}


def traced_run(seed, seconds, tmp, pkg, cli, tally, meta):
    plain = tracing.Program(pkg, cli)
    traced = tracing.TracedProgram(pkg, cli, tracing.Tracer())
    metrics = {}
    for wl_cls in jobs.WORKLOADS.values():
        metrics.update(traced_workload(wl_cls, seed, seconds / len(jobs.WORKLOADS), tmp, plain, traced, tally))
    spans_file = WORK / "spans.json"
    spans_file.write_text(json.dumps({"fields": tracing.FIELDS, "spans": traced.tracer.spans}))
    meta["spans_file"] = str(spans_file.relative_to(ROOT))
    return dict(sorted(metrics.items()))


def run_metadata() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    lines = sum(len(p.read_bytes().splitlines())
                for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "src_tests_py_lines": lines}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=list(jobs.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    pkg = inputs.load_program()
    from riskmdp import cli

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            **run_metadata()}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    tally = Tally()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as tmp:
        if args.trace:
            metrics = traced_run(args.seed, args.seconds, Path(tmp), pkg, cli, tally, meta)
        else:
            metrics = untraced_run(args.workload, args.seed, args.seconds, Path(tmp),
                                   tracing.Program(pkg, cli), tally, meta)
    if set(metrics) - set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) - set(units))} are not declared in BENCHMARK.json")
    missing = sorted(set(units) - set(metrics))
    if missing and not tally.failed:
        raise SystemExit(f"declared metrics {missing} were not measured")
    if missing:  # counts of a workload whose every job failed
        meta["unmeasured"] = missing
        metrics = dict(sorted({**metrics, **dict.fromkeys(missing, 0.0)}.items()))

    for msg in tally.failures[:5]:
        print(msg, file=sys.stderr)
    if meta.get("known_defect"):
        print(f"known defect, outside the timed jobs: {meta['known_defect']}", file=sys.stderr)
    print(f"riskmdp benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    for k, v in metrics.items():
        print(f"  {k:<42} {v:>14.6g} {units[k]}")
    print(f"  {'fail_ratio':<42} {tally.failed}/{tally.attempted}")
    print("meta " + json.dumps(meta))
    print(json.dumps(tally.result(metrics, units)))


if __name__ == "__main__":
    main()
