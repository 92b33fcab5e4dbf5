"""Spans around the public functions of each netbary layer, taken from outside.

A :class:`Tracer` replaces module and class attributes with wrappers that
record one span per call: name, start, end, parent span and the exception
that escaped, if any. All spans of one run share the tracer's run id. Spans
stay in memory until :meth:`Tracer.dump`, at the end of the run.

:func:`layer_metrics` turns one run's spans into the per-layer metrics, with
self times derived from child coverage, and :func:`count_failures` checks
the call counts that a run's config fixes exactly.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# (owner path, attribute, span name). The owner is a netbary module or class.
# adom imports schedule_laplacian by name, so the solver's reference is
# patched alongside netgraph's.
TRACED = (
    ("cli", "main", "cli.main"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "load_mnist", "harness.load_mnist"),
    ("harness", "git_describe", "harness.git_describe"),
    ("netgraph", "spectral_bounds", "netgraph.spectral_bounds"),
    ("netgraph", "schedule_laplacian", "netgraph.schedule_laplacian"),
    ("adom", "schedule_laplacian", "netgraph.schedule_laplacian"),
    ("netgraph", "laplacian_from_edges", "netgraph.laplacian_from_edges"),
    ("netgraph.Laplacian", "apply", "netgraph.Laplacian.apply"),
    ("entot", "wb_dual_oracle", "entot.wb_dual_oracle"),
    ("entot.WassersteinDualOracle", "grad_conj_stack", "entot.grad_conj_stack"),
    ("entot", "exact_ot", "entot.exact_ot"),
    ("adom", "run", "adom.run"),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # [name, start, end, parent index or None, escaped exception name]
        self.spans: list[list] = []
        self.messages = 0
        self.bytes = 0
        self._stack: list[int] = []
        self._last_lap = None
        self._last_offdiag = 0

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                span[4] = type(err).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self, netbary) -> None:
        """Wrap every TRACED attribute of the imported ``netbary`` package."""
        for owner_path, attr, name in TRACED:
            owner = netbary
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            wrapped = self.wrap(name, getattr(owner, attr))
            if name == "netgraph.Laplacian.apply":
                wrapped = self._counting(wrapped)
            setattr(owner, attr, wrapped)

    def _counting(self, apply):
        """Counts one message per off-diagonal nonzero, d float64s each,
        after the span so the count is not charged to the Laplacian."""

        @functools.wraps(apply)
        def counted(lap, stack):
            out = apply(lap, stack)
            # Both applications of an iteration share one Laplacian.
            if lap is not self._last_lap:
                entries = lap.entries
                self._last_offdiag = int(
                    np.count_nonzero(entries) - np.count_nonzero(entries.diagonal())
                )
                self._last_lap = lap
            self.messages += self._last_offdiag
            self.bytes += self._last_offdiag * np.shape(stack)[1] * 8
            return out

        return counted

    def dump(self, start: float) -> dict:
        """Spans with times in seconds since ``start``."""
        return {
            "run_id": self.run_id,
            "spans": [[n, s - start, e - start, p, err] for n, s, e, p, err in self.spans],
            "messages": self.messages,
            "bytes": self.bytes,
        }


def layer_metrics(trace: dict, n_iters: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as {name: (value, unit)}.

    A span's self time is its duration minus what its children cover. In one
    thread the children of a span run one after another, so their summed
    durations are exactly the covered part.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    covered = [0.0] * len(trace["spans"])
    for name, start, end, parent, _ in trace["spans"]:
        if parent is not None:
            covered[parent] += end - start
    divergences = 0
    for k, (name, start, end, parent, err) in enumerate(trace["spans"]):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + (end - start) - covered[k]
        if name == "adom.run" and err == "NumericalDivergenceError":
            divergences += 1

    def s(name):
        return total.get(name, 0.0)

    def per_call_ms(name):
        return 1e3 * s(name) / calls[name] if calls.get(name) else 0.0

    run_s = s("adom.run")
    return {
        "netgraph.spectral_bounds.s": (s("netgraph.spectral_bounds"), "s"),
        "netgraph.schedule_laplacian.s": (s("netgraph.schedule_laplacian"), "s"),
        "netgraph.schedule_laplacian.calls": (calls.get("netgraph.schedule_laplacian", 0), "count"),
        "netgraph.laplacian_from_edges.calls": (calls.get("netgraph.laplacian_from_edges", 0), "count"),
        "netgraph.Laplacian.apply.s": (s("netgraph.Laplacian.apply"), "s"),
        "netgraph.Laplacian.apply.calls": (calls.get("netgraph.Laplacian.apply", 0), "count"),
        "netgraph.comm.messages": (trace["messages"], "count"),
        "netgraph.comm.bytes": (trace["bytes"], "B"),
        "entot.grad_conj_stack.s": (s("entot.grad_conj_stack"), "s"),
        "entot.grad_conj_stack.calls": (calls.get("entot.grad_conj_stack", 0), "count"),
        "entot.grad_conj_stack.ms_per_call": (per_call_ms("entot.grad_conj_stack"), "ms"),
        "entot.exact_ot.s": (s("entot.exact_ot"), "s"),
        "entot.exact_ot.calls": (calls.get("entot.exact_ot", 0), "count"),
        "entot.exact_ot.ms_per_call": (per_call_ms("entot.exact_ot"), "ms"),
        "entot.wb_dual_oracle.s": (s("entot.wb_dual_oracle"), "s"),
        "adom.run.s": (run_s, "s"),
        "adom.run.self_s": (own.get("adom.run", 0.0), "s"),
        "adom.iters_per_s": (n_iters / run_s if run_s > 0 else 0.0, "1/s"),
        "adom.divergences": (divergences, "count"),
        "harness.run_experiment.s": (s("harness.run_experiment"), "s"),
        "harness.self_s": (own.get("harness.run_experiment", 0.0), "s"),
        "harness.load_mnist.s": (s("harness.load_mnist"), "s"),
        "harness.git_describe.s": (s("harness.git_describe"), "s"),
        "cli.self_s": (own.get("cli.main", 0.0), "s"),
    }


def count_failures(metrics: dict, cfg: dict, records: int, epochs: int) -> list[str]:
    """Exact call counts a run's config fixes; one message per mismatch.

    One stacked oracle call per iteration plus the final recovery; two
    Laplacian applications per iteration; one LP per node and recorded
    iteration, plus one per node for the Gaussian reference; one graph per
    iteration plus one per epoch that spectral_bounds draws.
    """
    n, m = cfg["n_iters"], cfg["m"]
    expected = {
        "entot.grad_conj_stack.calls": n + 1,
        "netgraph.Laplacian.apply.calls": 2 * n,
        "entot.exact_ot.calls": m * (records + (cfg["dataset"] == "gaussians")),
        "netgraph.laplacian_from_edges.calls": n + epochs,
    }
    return [
        f"{name}: expected {want}, counted {metrics[name][0]}"
        for name, want in expected.items()
        if metrics[name][0] != want
    ]
