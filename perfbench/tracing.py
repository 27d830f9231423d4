"""Spans around the benchmark's calls into riskmdp, kept in memory.

Jobs call riskmdp through a ``Program``. The plain one hands out the
package's own functions. ``TracedProgram`` hands out wrappers that record a
span per call, named ``<module>.<function>``, plus ``:<kind>`` when a
criterion is among the arguments. Risk-map evaluations are too many to keep
one span each (about 10^5 per solve), so their time and count are added to
the innermost open span instead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()

# Fields of one span record.
NAME, START, END, PARENT, JOB, LEAF_S, LEAF_N = range(7)
FIELDS = ("name", "start", "end", "parent", "job", "criterion_s", "criterion_calls")


class Program:
    """riskmdp's public functions and its CLI entry point, called untraced."""

    def __init__(self, pkg, cli):
        self._pkg = pkg
        self._cli = cli

    def __getattr__(self, name):
        if name == "run_cli":
            return self._cli.run_cli
        return getattr(self._pkg, name)

    def span(self, name: str):
        return _NULL

    def criterion(self, spec):
        return spec


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job: str | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.job, 0.0, 0]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._open.pop()

    def leaf(self, fn):
        """Time `fn` into the innermost open span, without a span of its own."""
        spans, open_ = self.spans, self._open

        def timed(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                rec = spans[open_[-1]]
                rec[LEAF_S] += time.perf_counter() - t0
                rec[LEAF_N] += 1

        return timed


class TracedProgram(Program):
    """Program whose calls record spans on `tracer`."""

    def __init__(self, pkg, cli, tracer: Tracer):
        super().__init__(pkg, cli)
        self.tracer = tracer
        self._wrapped: dict[str, object] = {}

    def __getattr__(self, name):
        try:
            return self._wrapped[name]
        except KeyError:
            fn = self._wrap(super().__getattr__(name))
            self._wrapped[name] = fn
            return fn

    def _wrap(self, fn):
        base = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spec_type = self._pkg.CriterionSpec
        tracer = self.tracer

        def traced(*args, **kwargs):
            kind = next((a.kind for a in args if isinstance(a, spec_type)), None)
            with tracer.span(base if kind is None else f"{base}:{kind}"):
                return fn(*args, **kwargs)

        return traced

    def span(self, name: str):
        return self.tracer.span(name)

    def criterion(self, spec):
        """Same criterion, kind and kappa unchanged, with timed risk maps."""
        return dataclasses.replace(
            spec,
            rho_hat=dataclasses.replace(spec.rho_hat, evaluate=self.tracer.leaf(spec.rho_hat.evaluate)),
            sigma=dataclasses.replace(spec.sigma, evaluate=self.tracer.leaf(spec.sigma.evaluate)),
        )

    @contextlib.contextmanager
    def instrument_cli(self):
        """Trace the library calls riskmdp.cli makes, for the duration of the block."""
        cli = self._cli
        saved = {}
        for name, obj in vars(cli).items():
            module = getattr(obj, "__module__", "") or ""
            if callable(obj) and module.startswith("riskmdp.") and module != cli.__name__ \
                    and not isinstance(obj, type):
                saved[name] = obj
        try:
            for name, fn in saved.items():
                setattr(cli, name, self._wrap(fn))
            if "parse_criterion" in saved:
                parse = cli.parse_criterion
                cli.parse_criterion = lambda *a, **k: self.criterion(parse(*a, **k))
            yield
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)


def job_breakdown(spans: list[list]) -> dict[str, dict[str, dict[str, float]]]:
    """Per job: total seconds by span name, and self seconds by layer.

    A span's self time is its duration minus its children's durations and
    the risk-map time recorded in it; that risk-map time is the criterion
    layer's self time. The layer is the span name up to the first dot.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] is not None:
            child[rec[PARENT]] += rec[END] - rec[START]
    out: dict = defaultdict(lambda: {"total": defaultdict(float), "self": defaultdict(float),
                                     "criterion_calls": defaultdict(int)})
    for i, rec in enumerate(spans):
        job = out[rec[JOB]]
        dur = rec[END] - rec[START]
        job["total"][rec[NAME]] += dur
        job["self"][rec[NAME].split(".", 1)[0]] += dur - child[i] - rec[LEAF_S]
        job["self"]["criterion"] += rec[LEAF_S]
        job["criterion_calls"][rec[NAME]] += rec[LEAF_N]
    return out
