"""Command-line behavior: flags, reports, figure tables, exit codes."""

import json
import math
import os
import pathlib
import resource
import subprocess
import sys

import numpy as np
import pytest

from graphgen import connected_graphs
from qsvkit import cli, graph_strategy, montecarlo
from qsvkit.cli import main, parse_theta_grid
from qsvkit.graph_strategy import graph_pass_probability, omega_graph
from qsvkit.graphs import Graph, graph_state
from qsvkit.qcore import Ket, Operator, first_complement_vector
from qsvkit.strategy import Strategy, reference_bell_artifacts, strategy_to_json


GOLDEN = pathlib.Path(__file__).parent / "golden"

PATH2_TEXT = "n 2\n1 2\n"


def write_graph(tmp_path, text=PATH2_TEXT):
    path = tmp_path / "input.graph"
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_strategy(tmp_path, strategy):
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(strategy_to_json(strategy)), encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------
# Flag validation
# ---------------------------------------------------------------------

GRAPH_FLAG = "--graph={graph}"


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(["analyze", GRAPH_FLAG, "--epsilon", "1.0"], "epsilon", id="epsilon"),
        pytest.param(["analyze", GRAPH_FLAG, "--delta", "0"], "delta", id="delta"),
        pytest.param(["curves", "--figure", "fig4", "--theta-grid", "0.1:0.2:1"], "theta grid",
                     id="theta-steps"),
        pytest.param(["curves", "--figure", "fig4", "--theta-grid", "0.0:0.2:5"], "theta grid",
                     id="theta-start"),
        pytest.param(["curves", "--figure", "fig4", "--theta-grid", "0.1:1.0:5"], "theta grid",
                     id="theta-stop"),
        pytest.param(["curves", "--figure", "fig4", "--theta-grid", "0.1:x:3"], "theta grid",
                     id="theta-syntax"),
        pytest.param(["curves", "--figure", "fig3", "--theta-grid", "0.1:0.7:5"], "--theta-grid",
                     id="theta-grid-fig3"),
        pytest.param(["curves", "--figure", "fig3", "--epsilon", "0.5"], "--epsilon",
                     id="epsilon-fig3"),
        pytest.param(["simulate", GRAPH_FLAG, "--seed", "-3"], "seed", id="seed-negative"),
        pytest.param(["simulate", GRAPH_FLAG, "--seed", str(2**64)], "seed", id="seed-wide"),
        pytest.param(["simulate", GRAPH_FLAG, "--trials", "0"], "trials", id="trials"),
        pytest.param(["analyze"], "--graph", id="no-input"),
        pytest.param(["simulate", GRAPH_FLAG, "--strategy={graph}"], "--strategy", id="both-inputs"),
    ],
)
def test_flag_defect_exits_2_with_one_line_naming_the_flag(tmp_path, capsys, argv, flag):
    graph = write_graph(tmp_path)
    assert main([arg.format(graph=graph) for arg in argv]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert flag in lines[0]
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, first",
    [
        (["curves", "--figure", "fig4", "--theta-grid", "0.1:x:3", "--epsilon", "2"], "A:B:N"),
        (["analyze", "--epsilon", "2", "--delta", "2"], "epsilon"),
        (["curves", "--figure", "fig4", "--theta-grid", "0.1:1.0:5", "--delta", "2"], "delta"),
        (["simulate", "--seed", "-1", "--trials", "0"], "seed"),
        (["simulate", "--trials", "0"], "trials"),
    ],
)
def test_the_first_flag_defect_is_the_one_reported(capsys, argv, first):
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and first in lines[0]


@pytest.mark.parametrize("argv", [["analyze", "--format", "yaml"], ["solve"]])
def test_unknown_format_or_command_exits_via_argparse(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


def test_parse_theta_grid():
    assert parse_theta_grid("0.1:0.7:12") == (0.1, 0.7, 12)
    with pytest.raises(ValueError, match="A:B:N"):
        parse_theta_grid("0.1:0.7")
    with pytest.raises(ValueError, match="numbers"):
        parse_theta_grid("a:b:c")


# ---------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------

def test_analyze_graph_report(tmp_path, capsys):
    code, report = run_json(capsys, ["analyze", "--graph", write_graph(tmp_path)])
    assert code == 0
    assert abs(report["lambda_star"]) < 1e-12
    assert abs(report["gamma_star"]) < 1e-12
    assert abs(report["xi_star"]) < 1e-12
    assert report["eps_max"] == "unbounded"
    assert report["approx_N"] == float(f"{math.log(1e3) / 1e-3:.10g}")
    assert report["exact_N"] == float(f"{2.0 * math.log(1e-3) / math.log1p(-2e-3):.10g}")


def test_analyze_graph_builds_no_operator_up_to_three_vertices(tmp_path, capsys, monkeypatch):
    # Every graph is certified matrix-free, so small graphs print the
    # certificate's exact zeros rather than an eigensolve's rounding.
    real_strategy, built = graph_strategy.Strategy, []
    monkeypatch.setattr(graph_strategy, "Strategy", lambda *a, **k: built.append(a) or real_strategy(*a, **k))
    subjects = [g for n in (1, 2, 3) for g in connected_graphs(n)]
    for g in subjects:
        text = f"n {g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)
        code, report = run_json(capsys, ["analyze", "--graph", write_graph(tmp_path, text)])
        assert code == 0
        assert [report[key] for key in ("lambda_star", "gamma_star", "xi_star")] == [0.0] * 3
    assert len(subjects) == 6 and built == []


def test_analyze_single_copy_strategy(tmp_path, capsys):
    strat, _ = reference_bell_artifacts()
    code, report = run_json(capsys, ["analyze", "--strategy", write_strategy(tmp_path, strat)])
    assert code == 0
    assert report["lambda2"] == 0.3333333333
    assert report["exact_N"] == 10358.17866
    assert report["approx_N"] == float(f"{math.log(1e3) / ((2.0 / 3.0) * 1e-3):.10g}")


def test_analyze_two_copy_product_strategy(tmp_path, capsys):
    strat, _ = reference_bell_artifacts()
    prod = np.kron(strat.omega.entries, strat.omega.entries)
    s2 = Strategy(Operator(prod, (4, 4), hermitian=True), strat.target, copies=2)
    code, report = run_json(capsys, ["analyze", "--strategy", write_strategy(tmp_path, s2)])
    assert code == 0
    assert report["lambda_star"] == 0.3333333333
    assert report["eps_max"] == "unbounded"
    assert report["exact_N"] > 0


def test_analyze_hypothesis_failure_from_analysis(tmp_path, capsys):
    # The symmetric-subspace projector (I + F)/2 passes every symmetric fake,
    # so lambda_star is exactly 1 and the compression itself refuses.
    target = Ket(np.array([1.0, 0.0]), (2,))
    swap = np.eye(4)[[0, 2, 1, 3]]
    s = Strategy(Operator((np.eye(4) + swap) / 2.0, (2, 2), hermitian=True), target, copies=2)
    code, report = run_json(capsys, ["analyze", "--strategy", write_strategy(tmp_path, s)])
    assert code == 3
    assert "lambda_star" in report["hypothesis_failure"]


def test_analyze_accept_all_strategy_reports_unbounded_counts(tmp_path, capsys):
    # On a random target the deflated identity's top eigenvalue rounds to
    # 1.0000000000000002; it reads as 1, as on the basis target |00>.
    rng = np.random.default_rng(0)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    for target in (amps / np.linalg.norm(amps), np.eye(4)[0]):
        s = Strategy(Operator(np.eye(4, dtype=complex), (2, 2), hermitian=True), Ket(target, (2, 2)))
        code, report = run_json(capsys, ["analyze", "--strategy", write_strategy(tmp_path, s)])
        assert code == 0
        assert report == {"lambda2": 1.0, "exact_N": "unbounded", "approx_N": "unbounded"}


@pytest.mark.parametrize("shift", [-0.6, 0.9])
def test_analyze_rejects_omega_outside_zero_and_identity(tmp_path, capsys, shift):
    # Shifting a 1/3 eigenvector of the reference operator leaves the spectrum
    # at 1/3 - 0.6 < 0 or 1/3 + 0.9 > 1 while the target stays fixed.
    strat, _ = reference_bell_artifacts()
    vals, vecs = np.linalg.eigh(strat.omega.entries)
    phi = vecs[:, np.argmin(np.abs(vals - 1.0 / 3.0))]
    omega = strat.omega.entries + shift * np.outer(phi, phi.conj())
    bad = Strategy(Operator(omega, strat.omega.dims, hermitian=True), strat.target)
    assert main(["analyze", "--strategy", write_strategy(tmp_path, bad)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert "eigenvalue" in lines[0] and "Traceback" not in lines[0]


def test_analyze_hypothesis_failure_keeps_report(tmp_path, capsys):
    # epsilon = 0.5 drives the per-round shrink to 1, which the count
    # formula rejects; the scalar report must still be emitted.
    code, report = run_json(
        capsys, ["analyze", "--graph", write_graph(tmp_path), "--epsilon", "0.5"]
    )
    assert code == 3
    assert abs(report["lambda_star"]) < 1e-12
    assert report["exact_N"] is None
    assert report["approx_N"] is None
    assert "not positive" in report["hypothesis_failure"]


def test_analyze_csv_report_format(tmp_path, capsys):
    code = main(["analyze", "--graph", write_graph(tmp_path), "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "eps_max,inf" in lines
    assert out.endswith("\n")


def test_analyze_input_exclusivity(tmp_path, capsys):
    graph = write_graph(tmp_path)
    strat, _ = reference_bell_artifacts()
    spath = write_strategy(tmp_path, strat)
    assert main(["analyze"]) == 2
    assert main(["analyze", "--graph", graph, "--strategy", spath]) == 2
    err = capsys.readouterr().err
    assert "exactly one" in err


def test_analyze_reports_parse_errors_with_line(tmp_path, capsys):
    bad = write_graph(tmp_path, "n 2\n1 2\nbogus line\n")
    assert main(["analyze", "--graph", bad]) == 2
    err = capsys.readouterr().err
    assert "error: line 3" in err


def test_analyze_missing_and_malformed_files(tmp_path, capsys):
    assert main(["analyze", "--graph", str(tmp_path / "absent.graph")]) == 2
    not_json = tmp_path / "broken.json"
    not_json.write_text("{truncated", encoding="utf-8")
    assert main(["analyze", "--strategy", str(not_json)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_strategy_file_over_the_size_bound_exits_2_before_parsing(tmp_path, capsys, monkeypatch):
    path = pathlib.Path(write_strategy(tmp_path, reference_bell_artifacts()[0]))
    size = path.stat().st_size
    monkeypatch.setattr(cli, "MAX_STRATEGY_BYTES", size)
    assert main(["analyze", "--strategy", str(path)]) == 0  # a file at the bound loads
    capsys.readouterr()
    with path.open("a", encoding="utf-8") as fh:
        fh.write(" ")
    parsed = []
    monkeypatch.setattr(cli.json, "load", parsed.append)
    assert main(["analyze", "--strategy", str(path)]) == 2
    assert parsed == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{size + 1} bytes, over the {size}-byte bound" in err


@pytest.mark.parametrize("copies", [0, -1, 7, 40, 10**7, "trivial"])
def test_strategy_copies_out_of_range_exit_2_naming_copies(tmp_path, capsys, copies):
    # 10^7 copies must be refused before dim ** copies is ever computed, also
    # for a dimension-1 target, whose side never grows.
    if copies == "trivial":
        doc = {"dims": [1], "copies": 10**7, "target": [[1.0, 0.0]], "omega": [[1.0, 0.0]]}
    else:
        doc = strategy_to_json(reference_bell_artifacts()[0])
        doc["copies"] = copies
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["analyze", "--strategy", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert "copies" in lines[0] and "Traceback" not in lines[0]


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("n", [14, 30, 20000])
def test_oversized_graph_exits_with_cap_message(tmp_path, capsys, command, n):
    graph = write_graph(tmp_path, f"n {n}\n1 2\n")
    assert main([command, "--graph", graph]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert "cap" in lines[0] and "Traceback" not in lines[0]


def test_unknown_figure_flag_exits_via_argparse():
    with pytest.raises(SystemExit) as info:
        main(["curves", "--figure", "fig9"])
    assert info.value.code == 2


# ---------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------

def test_curves_fig3_matches_golden(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["curves", "--figure", "fig3", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "fig3.csv").read_bytes()


def test_curves_fig4_matches_golden(tmp_path):
    out = tmp_path / "fig4.csv"
    assert main(["curves", "--figure", "fig4", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "fig4.csv").read_bytes()


def test_curves_fig3_schema_and_formulas():
    lines = (GOLDEN / "fig3.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epsilon,N_graph,N_PLM,N_glob"
    assert len(lines) == 31
    grid = np.logspace(-4.0, -1.0, 30)
    for row_text, eps in zip(lines[1:], grid):
        eps_s, n_graph, n_plm, n_glob = (float(v) for v in row_text.split(","))
        assert eps_s == float(f"{eps:.10g}")
        assert n_graph == float(f"{2.0 * math.log(1e-3) / math.log1p(-2.0 * eps):.10g}")
        assert n_plm == float(f"{math.log(1e-3) / math.log1p(-(2.0 / 3.0) * eps):.10g}")
        assert n_glob == float(f"{math.log(1e3) / eps:.10g}")
        assert n_graph <= n_plm


def test_curves_fig4_schema_and_monotonicity():
    text = (GOLDEN / "fig4.csv").read_text(encoding="utf-8")
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "theta,N_de_1,N_de_2,N_de_3,N_de_4,N_glob"
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[2:]]
    assert len(rows) == 50
    for i, row in enumerate(rows, start=1):
        assert row[0] == float(f"{i * (math.pi / 4.0) / 51.0:.10g}")
        counts = row[1:5]
        assert all(a >= b - 1e-9 for a, b in zip(counts, counts[1:]))
        assert row[5] == float(f"{math.log(1e3) / 1e-3:.10g}")


def test_curves_fig4_custom_grid_json(capsys):
    code, body = run_json(
        capsys,
        ["curves", "--figure", "fig4", "--theta-grid", "0.1:0.7:7", "--format", "json"],
    )
    assert code == 0
    assert body["figure"] == "fig4"
    assert body["columns"] == ["theta", "N_de_1", "N_de_2", "N_de_3", "N_de_4", "N_glob"]
    assert len(body["rows"]) == 7
    assert body["rows"][0][0] == pytest.approx(0.1)
    assert body["rows"][-1][0] == pytest.approx(0.7)
    assert body["notes"] == [cli.FIG4_NOTE]


# ---------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------

def test_simulate_graph_deterministic_with_fidelity(tmp_path, capsys):
    graph = write_graph(tmp_path)
    argv = ["simulate", "--graph", graph, "--epsilon", "0.01", "--trials", "20000", "--seed", "9"]
    code, first = run_json(capsys, argv)
    assert code == 0
    _, second = run_json(capsys, argv)
    assert first == second
    assert first["trials"] == 20000 and first["seed"] == 9
    assert 0.9 < first["p_emp"] <= 1.0
    assert first["passes"] == round(first["p_emp"] * 20000)
    assert first["F_true"] == 0.99
    assert abs(first["F_hat"] - math.sqrt(first["p_emp"])) < 1e-9


def test_simulate_graph_samples_once(tmp_path, capsys, monkeypatch):
    # The command imports simulate_protocol from montecarlo when it runs.
    calls = []
    original = montecarlo.simulate_protocol

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "simulate_protocol", counting)
    argv = ["simulate", "--graph", write_graph(tmp_path), "--epsilon", "0.01", "--trials", "2000"]
    code, report = run_json(capsys, argv)
    assert code == 0 and "F_hat" in report
    assert len(calls) == 1


def test_simulate_reports_a_failing_block_as_one_line(tmp_path, capsys, second_block_refused):
    argv = ["simulate", "--graph", write_graph(tmp_path), "--epsilon", "0.3", "--trials", "2000"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: second key refused"]
    assert len(second_block_refused) == 2


def test_simulate_pure_target_always_passes(tmp_path, capsys):
    code, report = run_json(
        capsys, ["simulate", "--graph", write_graph(tmp_path), "--trials", "5000"]
    )
    assert code == 0
    assert report["p_emp"] == 1.0
    assert report["stderr"] == 0.0
    assert report["F_hat"] == 1.0 and report["F_true"] == 1.0


def test_simulate_strategy_route_has_no_fidelity_block(tmp_path, capsys):
    strat, _ = reference_bell_artifacts()
    spath = write_strategy(tmp_path, strat)
    code, report = run_json(
        capsys,
        ["simulate", "--strategy", spath, "--epsilon", "0.05", "--trials", "30000"],
    )
    assert code == 0
    assert "F_hat" not in report and "F_true" not in report
    # pass rate should sit near 1 - (1 - lambda2) epsilon within five sigma
    expected = 1.0 - (2.0 / 3.0) * 0.05
    assert abs(report["p_emp"] - expected) < 5.0 * math.sqrt(expected * (1 - expected) / 30000)


def relabelled_graphs():
    """Ring 6 and a seeded random 7-vertex graph, each as (n, edges, two relabelled edge lists).

    A relabelling maps each edge (u, v) to (pi(u), pi(v)) for a seeded random
    permutation pi of 1..n.
    """
    gen = np.random.Generator(np.random.Philox(key=2611))
    pairs = [(u, v) for u in range(1, 8) for v in range(u + 1, 8)]
    for n, edges in (
        (6, [(i, i % 6 + 1) for i in range(1, 7)]),
        (7, [pair for pair in pairs if gen.random() < 0.5]),
    ):
        perms = [gen.permutation(n) + 1 for _ in range(2)]
        yield n, edges, [[(pi[u - 1], pi[v - 1]) for u, v in edges] for pi in perms]


def graph_text(n: int, edges) -> str:
    return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def test_relabelled_graphs_give_the_same_analysis_and_sampled_rate(tmp_path, capsys):
    eps, trials = 0.05, 20000
    for n, edges, relabellings in relabelled_graphs():
        path = write_graph(tmp_path, graph_text(n, edges))
        code, original = run_json(capsys, ["analyze", "--graph", path])
        assert code == 0
        # The exact rate of the original graph and the source simulate builds for it.
        gs = omega_graph(Graph(n, edges))
        target = graph_state(gs.graph)
        mix = [(1.0 - eps, target), (eps, Ket(first_complement_vector(target), target.dims))]
        rate = sum(
            wa * wb * graph_pass_probability(gs, ka, kb)[0] for wa, ka in mix for wb, kb in mix
        )
        sigma = math.sqrt(rate * (1.0 - rate) / trials)
        for permuted in relabellings:
            path = write_graph(tmp_path, graph_text(n, permuted))
            code, report = run_json(capsys, ["analyze", "--graph", path])
            assert code == 0
            for key in ("lambda_star", "gamma_star", "xi_star"):
                assert abs(report[key] - original[key]) <= 1e-12, key
            for key in ("eps_max", "exact_N", "approx_N"):
                assert report[key] == original[key], key
            argv = ["simulate", "--graph", path, "--epsilon", str(eps), "--trials", str(trials)]
            code, sampled = run_json(capsys, argv)
            assert code == 0
            assert abs(sampled["p_emp"] - rate) <= 5.0 * sigma


def test_simulate_input_exclusivity(capsys):
    assert main(["simulate"]) == 2
    assert "exactly one" in capsys.readouterr().err


# ---------------------------------------------------------------------
# Installed entry point
# ---------------------------------------------------------------------

def child_env() -> dict:
    """Environment whose PYTHONPATH leads a child interpreter to this qsvkit.

    A subprocess does not inherit pytest's pythonpath setting.
    """
    package_root = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def run_entry_point(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "qsvkit.cli", *argv], capture_output=True, env=child_env()
    )


def test_console_entry_point_runs(tmp_path):
    graph = tmp_path / "g.graph"
    graph.write_text(PATH2_TEXT, encoding="utf-8")
    proc = run_entry_point("analyze", "--graph", str(graph))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert abs(report["lambda_star"]) < 1e-12
    for figure in ("fig3", "fig4"):
        proc = run_entry_point("curves", "--figure", figure)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / f"{figure}.csv").read_bytes()


def test_cli_import_leaves_scipy_out():
    probe = "import sys, qsvkit.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_the_thread_pool_and_the_random_module_out():
    # The sampler starts plain threads and imports numpy.random only when it draws;
    # the commands import numpy itself only when they run.
    probe = (
        "import sys, qsvkit.cli; "
        "print(sorted({'concurrent.futures', 'numpy', 'numpy.random'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


FOOTPRINT_PROBE = """
import contextlib, io, json, sys
import qsvkit.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = qsvkit.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m == "numpy" or m.startswith("qsvkit."))]))
"""

GRAPH_MODULES = {"numpy", "qsvkit.graphs", "qsvkit.graph_strategy", "qsvkit.strategy", "qsvkit.qcore"}


@pytest.mark.parametrize(
    "argv, code, loaded",
    [
        pytest.param(["simulate", "--trials", "0"], 2, set(), id="bad-trials"),
        pytest.param(["simulate", GRAPH_FLAG, "--trials", str(2**63)], 2, set(),
                     id="trials-past-int64"),
        pytest.param(["curves", "--figure", "fig4", "--theta-grid", "0.1:x:3"], 2, set(),
                     id="bad-theta-grid"),
        pytest.param(["curves", "--figure", "fig3", "--theta-grid", "0.1:0.7:5"], 2, set(),
                     id="fig3-theta-grid"),
        pytest.param(["curves", "--figure", "fig3", "--epsilon", "0.5"], 2, set(),
                     id="fig3-epsilon"),
        pytest.param(["analyze", GRAPH_FLAG], 0, GRAPH_MODULES, id="analyze-graph"),
        pytest.param(["analyze", "--strategy={strategy}"], 0,
                     {"numpy", "qsvkit.strategy", "qsvkit.qcore"}, id="analyze-strategy"),
        pytest.param(["curves", "--figure", "fig3"], 0,
                     {"numpy", "qsvkit.ghz", "qsvkit.strategy", "qsvkit.qcore"}, id="curves"),
        pytest.param(["simulate", GRAPH_FLAG, "--trials", "100"], 0,
                     GRAPH_MODULES | {"qsvkit.montecarlo"}, id="simulate"),
    ],
)
def test_each_command_imports_only_what_it_runs(tmp_path, argv, code, loaded):
    """Run main(argv) in a fresh interpreter and list the numpy and qsvkit modules it loaded."""
    paths = {"graph": write_graph(tmp_path),
             "strategy": write_strategy(tmp_path, reference_bell_artifacts()[0])}
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_PROBE, *(arg.format(**paths) for arg in argv)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [code, sorted(loaded | {"qsvkit.cli"})]


def run_ring13_in_3gb(tmp_path, command: str, *flags: str) -> subprocess.CompletedProcess:
    """Run a command on an n = 13 ring, the largest graph the dense-dimension cap admits."""
    ring = "n 13\n" + "".join(f"{i} {i % 13 + 1}\n" for i in range(1, 14))

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (3_000_000 * 1024,) * 2)

    return subprocess.run(
        [sys.executable, "-m", "qsvkit.cli", command, "--graph", write_graph(tmp_path, ring), *flags],
        capture_output=True,
        text=True,
        env=child_env(),
        preexec_fn=limit_address_space,
    )


def test_analyze_graph_at_the_cap_fits_in_3gb(tmp_path):
    proc = run_ring13_in_3gb(tmp_path, "analyze")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert max(report["lambda_star"], report["gamma_star"], report["xi_star"]) <= 1e-9


def test_simulate_graph_at_the_cap_fits_in_3gb(tmp_path):
    proc = run_ring13_in_3gb(tmp_path, "simulate", "--trials", "1000")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["passes"] == 1000 and report["F_true"] == 1.0


def test_simulate_graph_with_epsilon_at_the_cap_fits_in_3gb(tmp_path):
    proc = run_ring13_in_3gb(tmp_path, "simulate", "--epsilon", "0.01", "--trials", "1")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["trials"] == 1 and abs(report["F_true"] - 0.99) < 1e-12
