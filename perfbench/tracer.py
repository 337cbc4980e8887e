"""Span recorder that wraps qsvkit's public functions from outside the program.

``Tracer.installed`` replaces each function in TARGETS with a timing and
counting wrapper, in every qsvkit module that holds it by name, and puts the
originals back on exit. Each call records a span: name, start, end, parent
span, ``ru_maxrss`` at the end, and a few facts read off the arguments or
the result (trial counts, oracle iterations, dense construction). Spans stay
in memory; ``layer_metrics`` reduces one traced pass to the per-layer
metrics the benchmark reports.

Self time is a span's duration minus the time its child spans cover. The
program is single-threaded, so children of one span never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import resource
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

LAYERS = ("cli", "graphs", "graph_strategy", "qcore", "strategy", "ghz", "montecarlo")

# (layer, function) pairs that get wrapped. cli.main spans are named after
# the subcommand, as cli.main.<command>.
TARGETS = (
    ("cli", "main"),
    ("graphs", "graph_state"),
    ("graphs", "load_graph"),
    ("graphs", "check_disentangled_equations"),
    ("graphs", "disentangle_operators"),
    ("graph_strategy", "omega_graph"),
    ("graph_strategy", "verify_graph_optimality"),
    ("graph_strategy", "apply_omega"),
    ("qcore", "max_eigenvalue_matfree"),
    ("qcore", "orthonormal_complement"),
    ("strategy", "two_copy_analysis"),
    ("strategy", "lambda2"),
    ("ghz", "mub_strategy_d4"),
    ("montecarlo", "simulate_protocol"),
    ("montecarlo", "fidelity_experiment"),
    ("montecarlo", "worst_case_oracle"),
)

SAMPLING_SPANS = ("montecarlo.simulate_protocol", "montecarlo.fidelity_experiment")

# Per-layer timing metric -> the span whose self time it reports.
SELF_TIME_METRICS = {
    f"{span}_s": span
    for span in (
        "cli.main.analyze",
        "cli.main.curves",
        "cli.main.simulate",
        "graph_strategy.verify_graph_optimality",
        "graph_strategy.apply_omega",
        "qcore.max_eigenvalue_matfree",
        "qcore.orthonormal_complement",
        "graph_strategy.omega_graph",
        "graphs.check_disentangled_equations",
        "graphs.graph_state",
        "strategy.two_copy_analysis",
        "strategy.lambda2",
        "ghz.mub_strategy_d4",
        "montecarlo.worst_case_oracle",
        "montecarlo.simulate_protocol",
        "montecarlo.fidelity_experiment",
    )
}
CALL_METRICS = {
    f"{span}_calls": span
    for span in (
        "graph_strategy.apply_omega",
        "qcore.max_eigenvalue_matfree",
        "graphs.disentangle_operators",
        "montecarlo.simulate_protocol",
    )
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"cli.import_s": "s", "cli.import_scipy_s": "s", "trace.overhead_s": "s"}
    units.update({name: "s" for name in SELF_TIME_METRICS})
    units.update({name: "count" for name in CALL_METRICS})
    units.update(
        {
            "graph_strategy.omega_graph_dense_calls": "count",
            "montecarlo.oracle_iterations": "count",
            "montecarlo.trials_per_s": "1/s",
            "montecarlo.rss_at_end_mb": "MB",
        }
    )
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
        units[f"{layer}.expected_errors"] = "count"
    return units


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    end: float = 0.0
    maxrss_kb: int = 0
    child_s: float = 0.0
    facts: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Records spans while installed; one instance serves one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.errors: Counter = Counter()
        self.recording = True
        self.expect_errors = False
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TARGETS function in every qsvkit module that names it."""
        replaced = []
        layers = {layer: importlib.import_module(f"qsvkit.{layer}") for layer in LAYERS}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qsvkit" or name.startswith("qsvkit."))]
        for layer, fname in TARGETS:
            original = getattr(layers[layer], fname)
            wrapper = self._wrap(f"{layer}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        replaced.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in replaced:
                setattr(module, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run checks and reference computations without recording spans."""
        previous, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = previous

    def take(self) -> tuple[list[Span], Counter]:
        """Hand over the spans and error counts recorded so far and reset both."""
        taken = self.spans, self.errors
        self.spans, self.errors = [], Counter()
        return taken

    def _wrap(self, base: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            name = base
            if base == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                name = f"cli.main.{argv[0]}" if argv else base
            span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[(base, self.expect_errors)] += 1
                raise
            finally:
                span.end = time.perf_counter()
                span.maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                self._stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                self.spans.append(span)
            if base == "cli.main" and result != 0:
                self.errors[(base, self.expect_errors)] += 1
            span.facts = _facts(base, args, result)
            return result

        return wrapper


def _facts(base: str, args, result) -> dict:
    if base == "montecarlo.simulate_protocol":
        return {"trials": args[1].trials}
    if base == "montecarlo.worst_case_oracle":
        return {"iterations": result.iterations}
    if base == "graph_strategy.omega_graph":
        return {"dense": result.strategy is not None}
    return {}


def layer_metrics(spans: list[Span], errors: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass (import and overhead added by the caller)."""
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span in spans:
        self_s[span.name] += span.self_s
        calls[span.name] += 1
    metrics: dict[str, float] = {name: self_s[span] for name, span in SELF_TIME_METRICS.items()}
    metrics.update({name: calls[span] for name, span in CALL_METRICS.items()})
    metrics["graph_strategy.omega_graph_dense_calls"] = sum(
        1 for s in spans if s.facts.get("dense")
    )
    metrics["montecarlo.oracle_iterations"] = sum(s.facts.get("iterations", 0) for s in spans)
    trials = sum(s.facts.get("trials", 0) for s in spans)
    sim_self = self_s["montecarlo.simulate_protocol"]
    metrics["montecarlo.trials_per_s"] = trials / sim_self if sim_self > 0 else 0.0
    sampling_rss = [s.maxrss_kb for s in spans if s.name in SAMPLING_SPANS]
    metrics["montecarlo.rss_at_end_mb"] = max(sampling_rss) / 1024.0 if sampling_rss else 0.0
    for layer in LAYERS:
        for expected, suffix in ((False, "errors"), (True, "expected_errors")):
            metrics[f"{layer}.{suffix}"] = sum(
                count for (base, exp), count in errors.items()
                if exp == expected and base.split(".")[0] == layer
            )
    return metrics


def span_table(spans: list[Span], errors: Counter) -> dict[str, dict]:
    """Calls, total and self seconds per span name, and errors per function."""
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += span.self_s
    for (base, expected), count in errors.items():
        table[f"{base} {'expected_errors' if expected else 'errors'}"] = count
    return table
