"""A smoke run of the benchmark's own checks, so that a check the benchmark
would fail also fails here.

Each workload of perfbench/workloads.py is built at its smoke size. Every
operation runs once, and every command line runs in-process through
perfbench/worker.py::run_inprocess. No check may fail. The perfbench
directory goes on sys.path for the test alone; its files are only read.
"""

import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
NAMES = ("graph-certify", "small-exhaustive", "sample")


@pytest.mark.parametrize("name", NAMES)
def test_every_benchmark_check_passes_at_smoke_size(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    worker = importlib.import_module("worker")
    assert workloads.WORKLOADS == NAMES  # a new workload joins the smoke run
    wl = workloads.build(name, 3, "smoke", tmp_path, ROOT)
    tally = workloads.Tally()
    worker.run_pass(wl.ops, tally, {op.name: [] for op in wl.ops})
    for case in wl.cli:
        tally.check(case.name, worker.run_inprocess(case.argv), case.check)
    assert (tally.failed, tally.messages) == (0, [])
    assert tally.attempted == len(wl.ops) + len(wl.cli) > 0
