"""Acceptance gate: one test per release criterion, pinned tolerances.

Each test states its criterion in the name and asserts the full clause set;
`pytest -v` therefore prints one pass/fail line per criterion. Budgeted
criteria also assert their wall-clock ceiling.
"""

import json
import math
import time

import numpy as np
import pytest

from graphgen import connected_graphs, graph_mix, iid_pair_rate
from qsvkit.cli import main
from qsvkit.ghz import GhzSpec, mub_strategy_d4, n_de_k
from qsvkit.graph_strategy import omega_graph, verify_graph_optimality
from qsvkit.graphs import Graph, check_disentangled_equations
from qsvkit.montecarlo import TrialConfig, fidelity_experiment, simulate_protocol, worst_case_oracle
from qsvkit.qcore import Ket, Operator, bell_ket
from qsvkit.strategy import (
    Strategy,
    lambda2,
    reference_bell_artifacts,
    strategy_from_channel,
    two_copy_analysis,
)


def random_strategy_on_two_qubits(rng: np.random.Generator) -> Strategy:
    """Random single-copy accept operator with a random fixed target."""
    block = rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4))
    basis, _ = np.linalg.qr(block)
    evals = np.concatenate([[1.0], rng.uniform(0.0, 0.9, size=3)])
    omega = (basis * evals) @ basis.conj().T
    omega = (omega + omega.conj().T) / 2.0
    target = Ket(basis[:, 0], (2, 2))
    return Strategy(Operator(omega, (2, 2), hermitian=True), target)


def test_criterion_01_graph_strategies_have_vanishing_two_copy_scalars():
    started = time.monotonic()
    checked = 0
    for n in range(1, 6):
        for g in connected_graphs(n):
            report = verify_graph_optimality(omega_graph(g, matrix_free=False))
            assert report.passed, (n, g.edges, report)
            assert max(report.lambda_star, report.gamma_star, report.xi_star) <= 1e-9
            checked += 1
    assert checked == 1 + 1 + 4 + 38 + 728

    ring6 = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
    gs6 = omega_graph(ring6)
    assert gs6.strategy is None  # matrix-free past the dense threshold
    report6 = verify_graph_optimality(gs6)
    assert report6.route == "matrix_free"
    assert report6.passed
    assert time.monotonic() - started < 120.0


def test_criterion_02_oracle_shortfall_matches_two_copy_rate():
    started = time.monotonic()
    strat, _ = reference_bell_artifacts()
    prod = np.kron(strat.omega.entries, strat.omega.entries)
    cases = [
        (omega_graph(Graph(2, [(1, 2)]), matrix_free=False).strategy, 0.0),
        (Strategy(Operator(prod, (4, 4), hermitian=True), strat.target, copies=2), 1.0 / 3.0),
    ]
    for subject, lam_expected in cases:
        lam = two_copy_analysis(subject).lambda_star
        assert abs(lam - lam_expected) < 1e-9
        for epsilon, band in ((1e-3, 0.05), (1e-4, 0.02)):
            report = worst_case_oracle(subject, epsilon)
            ratio = (1.0 - report.p_hat) / (2.0 * (1.0 - lam) * epsilon)
            assert abs(ratio - 1.0) <= band, (lam_expected, epsilon, ratio)
    assert time.monotonic() - started < 300.0


def test_criterion_03_product_strategy_keeps_single_copy_eigenvalue():
    rng = np.random.Generator(np.random.Philox(key=20240603))
    for _ in range(20):
        s = random_strategy_on_two_qubits(rng)
        lam_single = lambda2(s)
        prod = np.kron(s.omega.entries, s.omega.entries)
        s2 = Strategy(Operator(prod, (4, 4), hermitian=True), s.target, copies=2)
        lam_star = two_copy_analysis(s2).lambda_star
        assert abs(lam_star - lam_single) <= 1e-9


def test_criterion_04_channel_and_strategy_forms_coincide():
    strat, channel = reference_bell_artifacts()
    # completeness of the Kraus family
    acc = sum(m.conj().T @ m for m in channel.kraus_ops)
    assert np.max(np.abs(acc - np.eye(4))) <= 1e-12
    # every Kraus operator funnels the target onto the all-zeros ket
    tvec = strat.target.amplitudes
    for m in channel.kraus_ops:
        image = m @ tvec
        assert np.linalg.norm(image[1:]) <= 1e-12
    # the induced accept operator is the strategy operator
    rebuilt = strategy_from_channel(channel, strat.target)
    assert np.max(np.abs(rebuilt.omega.entries - strat.omega.entries)) <= 1e-12


def test_criterion_05_disentangled_equations_hold_exhaustively():
    started = time.monotonic()
    rng = np.random.Generator(np.random.Philox(key=20240605))
    for n in range(1, 5):
        for g in connected_graphs(n):
            d = 1 << n
            for _ in range(10):
                raw = rng.normal(size=d) + 1.0j * rng.normal(size=d)
                omega = Ket(raw / np.linalg.norm(raw), (2,) * n)
                report = check_disentangled_equations(g, omega, tol=1e-10)
                assert report.passed, (n, g.edges, report.max_deviation)
    assert time.monotonic() - started < 60.0


def test_criterion_06_figure3_table_orders_and_limits(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["curves", "--figure", "fig3", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epsilon,N_graph,N_PLM,N_glob"
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    assert len(rows) == 30
    for _, n_graph, n_plm, _ in rows:
        assert n_graph <= n_plm
    eps0, n_graph0, n_plm0, n_glob0 = rows[0]
    assert eps0 == pytest.approx(1e-4, rel=1e-9)
    assert abs(n_plm0 / n_graph0 - 1.5) <= 1.5 * 0.01
    assert abs(n_graph0 / n_glob0 - 1.0) <= 0.002


def test_criterion_07_dimension_expansion_curve_shape(tmp_path):
    out = tmp_path / "fig4.csv"
    assert main(["curves", "--figure", "fig4", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[2:]]
    assert len(rows) == 50

    # per-theta counts never increase with the grouping size
    for row in rows:
        counts = row[1:5]
        assert all(a >= b - 1e-9 for a, b in zip(counts, counts[1:])), row

    # pinned two-copy anchor at the balanced point
    balanced = GhzSpec(2, 2, [math.cos(math.pi / 4.0), math.sin(math.pi / 4.0)])
    anchor = n_de_k(balanced, 2, 1e-3, 1e-3).approx_N
    assert abs(anchor / 8634.7 - 1.0) <= 1e-3

    # deep grouping must sit within 0.5% of the global-strategy count for
    # every tabulated theta at or past pi/16
    n_glob = math.log(1e3) / 1e-3
    for theta, *_ in rows:
        if theta < math.pi / 16.0:
            continue
        spec = GhzSpec(2, 2, [math.cos(theta), math.sin(theta)])
        deep = n_de_k(spec, 64, 1e-3, 1e-3).approx_N
        assert abs(deep / n_glob - 1.0) <= 0.005, (theta, deep / n_glob - 1.0)


def test_criterion_08_five_basis_strategy_matches_closed_form_eigenvalue():
    thetas = np.linspace(0.05, math.pi / 4.0 - 0.05, 10)
    for theta in thetas:
        lam = lambda2(mub_strategy_d4(float(theta)))
        expected = math.cos(theta) ** 2 / (2.0 + math.cos(theta) ** 2)
        assert abs(lam - expected) <= 1e-8, theta


def test_criterion_09_sampler_tracks_exact_rates_reproducibly():
    trials = 100000
    path2 = Graph(2, [(1, 2)])
    triangle = Graph(3, [(1, 2), (2, 3), (1, 3)])
    star4 = Graph(4, [(1, 2), (1, 3), (1, 4)])
    strat, _ = reference_bell_artifacts()

    configs = []
    for g, seed in ((path2, 901), (triangle, 902), (star4, 903)):
        gs = omega_graph(g, matrix_free=False)
        mix = graph_mix(g, 0.9)
        exact = iid_pair_rate(gs, mix)
        configs.append((gs, TrialConfig(trials, seed, mix), exact))

    plm_mix = [(0.85, bell_ket(0, 0)), (0.15, bell_ket(1, 1))]
    om = strat.omega.entries
    plm_exact = sum(
        w * float(np.real(k.amplitudes.conj() @ om @ k.amplitudes)) for w, k in plm_mix
    )
    configs.append((strat, TrialConfig(trials, 904, plm_mix), plm_exact))

    prod = np.kron(om, om)
    prod_decomposition = [
        (pa * pb, Operator(np.kron(ta.entries, tb.entries), (4, 4), hermitian=True))
        for pa, ta in strat.decomposition
        for pb, tb in strat.decomposition
    ]
    s2 = Strategy(Operator(prod, (4, 4), hermitian=True), strat.target, 2, prod_decomposition)
    configs.append((s2, TrialConfig(trials, 905, plm_mix), plm_exact**2))

    assert len(configs) == 5
    for subject, cfg, exact in configs:
        passes, p_emp, _ = simulate_protocol(subject, cfg)
        bound = 3.0 * math.sqrt(exact * (1.0 - exact) / trials) + 1e-12
        assert abs(p_emp - exact) <= bound, (type(subject).__name__, cfg.seed, p_emp, exact)
        rerun = simulate_protocol(subject, TrialConfig(trials, cfg.seed, cfg.source))
        assert rerun[0] == passes  # bit-for-bit reproducible


def test_criterion_10_fidelity_estimate_recovers_mixture_weight():
    f_target = 0.995
    trials = 1000000
    g = Graph(2, [(1, 2)])
    gs = omega_graph(g, matrix_free=False)
    cfg = TrialConfig(trials, 2024, graph_mix(g, f_target))
    f_hat, f_true = fidelity_experiment(gs, cfg)
    assert f_true == pytest.approx(f_target, abs=1e-12)
    _, p_emp, stderr = simulate_protocol(gs, TrialConfig(trials, 2024, graph_mix(g, f_target)))
    propagated = stderr / (2.0 * math.sqrt(p_emp))
    assert abs(f_hat - f_target) <= max(3.0 * propagated, 2.5e-5)
