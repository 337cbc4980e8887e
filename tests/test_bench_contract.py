"""The names and keywords the benchmark uses must exist in the package.

perfbench/tracer.py looks up every (layer, function) pair in its TARGETS
with getattr on qsvkit.<layer>; a pair whose function is gone makes every
traced benchmark run fail, and so does a record field its _facts reads. The
tracer module imports only the standard library at module level, so it is
loaded here by path. perfbench/workloads.py and perfbench/fixtures.py call
qsvkit functions with positional and keyword arguments; their source is read
with ast, not imported, and every such call must bind to the current
signature.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import sys

from qsvkit.graph_strategy import omega_graph
from qsvkit.graphs import Graph, graph_state
from qsvkit.montecarlo import TrialConfig, simulate_protocol, worst_case_oracle

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_target_is_defined(monkeypatch):
    targets = load_tracer(monkeypatch).TARGETS
    assert targets
    missing = [
        f"qsvkit.{layer}.{name}"
        for layer, name in targets
        if not callable(getattr(importlib.import_module(f"qsvkit.{layer}"), name, None))
    ]
    assert missing == []


def test_the_tracer_reads_fields_the_records_still_have(monkeypatch):
    # Only traced runs call _facts, so a renamed record field breaks them alone.
    facts = load_tracer(monkeypatch)._facts
    gs = omega_graph(Graph(2, [(1, 2)]))
    cfg = TrialConfig(1, 0, graph_state(gs.graph))
    args = (gs, cfg)
    assert facts("montecarlo.simulate_protocol", args, simulate_protocol(*args)) == {"trials": 1}
    report = worst_case_oracle(gs.strategy, 1e-3)
    oracle = facts("montecarlo.worst_case_oracle", (gs.strategy, 1e-3), report)
    assert oracle == {"iterations": report.iterations}
    assert facts("graph_strategy.omega_graph", (gs.graph,), gs) == {"dense": True}


PERFBENCH_SOURCES = ("workloads.py", "fixtures.py")


def _qsvkit_calls(path: pathlib.Path):
    """Yield (dotted name, target, call node) for each call into qsvkit in path.

    Calls are recognised through the file's own imports: a module bound by
    ``from qsvkit import x [as y]`` and called as ``y.f(...)``, or a name
    bound by ``from qsvkit.x import f`` and called as ``f(...)``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules: dict[str, str] = {}
    names: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "qsvkit":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"qsvkit.{alias.name}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qsvkit."):
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in modules):
            module, attr = modules[func.value.id], func.attr
        elif isinstance(func, ast.Name) and func.id in names:
            module, attr = names[func.id]
        else:
            continue
        target = getattr(importlib.import_module(module), attr, None)
        yield f"{module}.{attr}", target, node


def test_benchmark_calls_match_the_package_signatures():
    # The benchmark's workloads call qsvkit directly; a removed function or
    # keyword would make every one of their runs fail.
    problems = []
    keywords = set()
    for source in PERFBENCH_SOURCES:
        for name, target, call in _qsvkit_calls(TRACER.parent / source):
            if not callable(target):
                problems.append(f"{source}: {name} is not defined")
                continue
            passed = {kw.arg: None for kw in call.keywords if kw.arg is not None}
            keywords.update(passed)
            positional = [None] * len(call.args)
            if any(isinstance(arg, ast.Starred) for arg in call.args):
                positional = []
            try:
                inspect.signature(target).bind_partial(*positional, **passed)
            except TypeError as exc:
                problems.append(f"{source}:{call.lineno}: {name}: {exc}")
    assert problems == []
    assert keywords  # the walk found the keyword calls it exists to check
