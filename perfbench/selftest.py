"""Self-tests of the benchmark: smoke runs, trace counts, and checks that bite.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's tier-1 suite, whose
wall time the benchmark itself tracks.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qsvkit import graph_strategy as gsm  # noqa: E402
from qsvkit import montecarlo as mc  # noqa: E402
from workloads import CliResult, Tally  # noqa: E402


def smoke(name: str, tmp_path: Path, seed: int = 3) -> workloads.Workload:
    return workloads.build(name, seed, "smoke", tmp_path / "inputs", ROOT)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


# ---------------------------------------------------------------------
# Whole runs
# ---------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_passes_every_check_and_prints_every_metric(name):
    done = bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0",
                 "--size", "smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, done.stderr
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    detail = json.loads(done.stdout.splitlines()[-2])["detail"]
    assert detail["machine"]["nproc"] >= 1 and detail["info"]["src_lines"] > 0


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = bench("--workload", "sample", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


# ---------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------


def test_same_seed_gives_same_inputs(tmp_path):
    first = smoke("graph-certify", tmp_path / "a", seed=5)
    again = smoke("graph-certify", tmp_path / "b", seed=5)
    other = smoke("graph-certify", tmp_path / "c", seed=6)
    read = lambda base: (base / "inputs" / "random-7.graph").read_text()  # noqa: E731
    assert read(tmp_path / "a") == read(tmp_path / "b") != read(tmp_path / "c")
    assert [op.name for op in first.ops] == [op.name for op in again.ops]


# ---------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------


def traced_layers(name: str, tmp_path: Path) -> tuple[dict, Tally]:
    tally = Tally()
    record = worker.traced(smoke(name, tmp_path), 0.0, tally)
    return record["layer"], tally


def test_trace_counts_apply_omega_per_verified_graph(tmp_path):
    layer, tally = traced_layers("graph-certify", tmp_path)
    assert tally.failed == 0, tally.messages
    # Smoke size: ring, star, complete and random at n = 5 and 6 in-process,
    # plus `analyze` on random graphs at n = 5 and 6.
    verified = [5] * 4 + [6] * 4 + [5, 6]
    assert layer["graph_strategy.apply_omega_calls"] == sum(2**n + 2 for n in verified)
    assert layer["qcore.max_eigenvalue_matfree_calls"] == 3 * len(verified)
    assert layer["cli.main.analyze_s"] > 0 and layer["montecarlo.simulate_protocol_calls"] == 0


def test_trace_counts_two_samplings_per_graph_simulate(tmp_path):
    layer, tally = traced_layers("sample", tmp_path)
    assert tally.failed == 0, tally.messages
    # In-process: simulate and fidelity on path2 and ring-4 (2 + 2), the
    # composite source (1), Bell, Bell product and one five-basis strategy
    # (3). The in-process `simulate --graph` samples twice.
    assert layer["montecarlo.simulate_protocol_calls"] == 2 + 2 + 1 + 3 + 2
    assert layer["montecarlo.trials_per_s"] > 0 and layer["montecarlo.rss_at_end_mb"] > 0


def test_trace_separates_expected_input_errors(tmp_path):
    layer, tally = traced_layers("small-exhaustive", tmp_path)
    assert tally.failed == 0, tally.messages
    assert layer["cli.expected_errors"] == 3 and layer["cli.errors"] == 0
    assert layer["graphs.expected_errors"] == 1 and layer["graphs.errors"] == 0
    assert layer["graph_strategy.omega_graph_dense_calls"] > 0
    assert layer["montecarlo.oracle_iterations"] >= 4


# ---------------------------------------------------------------------
# Each check catches a wrong answer
# ---------------------------------------------------------------------


def case(wl: workloads.Workload, name: str) -> workloads.CliCase:
    return next(c for c in wl.cli if c.name == name)


def test_golden_byte_mismatch_fails(tmp_path):
    check = case(smoke("small-exhaustive", tmp_path), "curves fig3").check
    golden = (ROOT / "tests" / "golden" / "fig3.csv").read_text(encoding="utf-8")
    tally = Tally()
    tally.check("right", CliResult(0, golden, ""), check)
    assert tally.fail_frac == 0
    last = "1" if golden[-2] == "0" else "0"  # change the final digit of the table
    tally.check("wrong", CliResult(0, golden[:-2] + last + "\n", ""), check)
    assert tally.fail_frac > 0


def test_nonzero_scalar_fails(tmp_path, monkeypatch):
    wl = smoke("graph-certify", tmp_path)
    tally = Tally()
    worker.run_pass(wl.ops, tally, {op.name: [] for op in wl.ops})
    assert tally.fail_frac == 0
    real = gsm.verify_graph_optimality
    monkeypatch.setattr(gsm, "verify_graph_optimality",
                        lambda gs: dataclasses.replace(real(gs), xi_star=2e-9))
    worker.run_pass(wl.ops, tally, {op.name: [] for op in wl.ops})
    assert tally.failed == len(wl.ops) and tally.fail_frac > 0

    report = json.dumps({"lambda_star": 0.0, "gamma_star": 1e-6, "xi_star": 0.0,
                         "eps_max": "unbounded", **workloads.TWO_COPY_COUNTS})
    cli_tally = Tally()
    cli_tally.check("analyze", CliResult(0, report, ""), wl.cli[0].check)
    assert cli_tally.fail_frac > 0


def test_pass_count_outside_five_sigma_fails(tmp_path, monkeypatch):
    wl = smoke("sample", tmp_path)
    tally = Tally()
    worker.run_pass(wl.ops, tally, {op.name: [] for op in wl.ops})
    assert tally.fail_frac == 0
    real = mc.simulate_protocol

    def shifted(s, cfg):
        passes, p, _ = real(s, cfg)
        sigma = (p * (1.0 - p) / cfg.trials) ** 0.5
        moved = max(p - 12.0 * sigma - 12.0 / cfg.trials, 0.0)
        return round(moved * cfg.trials), moved, sigma

    monkeypatch.setattr(mc, "simulate_protocol", shifted)
    bad = Tally()
    worker.run_pass(wl.ops, bad, {op.name: [] for op in wl.ops})
    assert bad.failed == len(wl.ops) and bad.fail_frac > 0


def test_cli_pass_count_must_match_in_process(tmp_path):
    wl = smoke("sample", tmp_path)
    sim = case(wl, "simulate ring-4")
    right = worker.run_inprocess(sim.argv)
    tally = Tally()
    tally.check("right", right, sim.check)
    assert tally.fail_frac == 0, tally.messages
    report = json.loads(right.stdout)
    report["passes"] += 1
    tally.check("wrong", CliResult(0, json.dumps(report), ""), sim.check)
    assert tally.fail_frac > 0


@pytest.mark.parametrize(
    "res",
    [
        CliResult(1, "", "error: self-loop at vertex 1\n"),
        CliResult(2, "", "Traceback (most recent call last):\n  boom\nValueError: x\n"),
        CliResult(2, "", ""),
    ],
    ids=["exit-1", "traceback", "silent"],
)
def test_bad_input_needs_exit_2_and_one_message_line(tmp_path, res):
    check = case(smoke("small-exhaustive", tmp_path), "bad self-loop").check
    tally = Tally()
    tally.check("right", CliResult(2, "", "error: self-loop at vertex 1\n"), check)
    assert tally.fail_frac == 0
    tally.check("wrong", res, check)
    assert tally.fail_frac > 0


# ---------------------------------------------------------------------
# Reporting helpers
# ---------------------------------------------------------------------


def test_scipy_share_counts_outermost_scipy_imports_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:        50 |        150 |   scipy",
        "import time:        30 |         30 |     scipy.linalg._x",
        "import time:        20 |         50 |   scipy.linalg",
        "import time:        10 |        210 | qsvkit.graph_strategy",
        "import time:         5 |          5 | numpy.core",
    ])
    assert run.scipy_import_s(text) == pytest.approx(200e-6)


def test_summary_reports_tail_percentile_only_with_ten_samples_beyond():
    assert "p50" not in run.summary([1.0] * 19)
    assert "p50" in run.summary([1.0] * 20)
    assert "p90" in run.summary(list(range(100))) and "p95" not in run.summary(list(range(100)))
