"""The names the benchmark's span recorder wraps must exist in the package.

perfbench/tracer.py looks up every (layer, function) pair in its TARGETS
with getattr on qsvkit.<layer>; a pair whose function is gone makes every
traced benchmark run fail. The tracer module imports only the standard
library at module level, so it is loaded here by path.
"""

import importlib
import importlib.util
import pathlib
import sys

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_target_is_defined(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    targets = tracer.TARGETS
    assert targets
    missing = [
        f"qsvkit.{layer}.{name}"
        for layer, name in targets
        if not callable(getattr(importlib.import_module(f"qsvkit.{layer}"), name, None))
    ]
    assert missing == []
