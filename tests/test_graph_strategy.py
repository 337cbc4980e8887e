"""Bell-measurement graph strategies: operator, matrix-free path, verification."""

import time

import numpy as np
import pytest

from conftest import random_unit
from graphgen import connected_graphs
from qsvkit.graph_strategy import (
    MATRIX_FREE_DEFAULT_FROM,
    _gram_compressions,
    apply_omega,
    bell_outcome_amplitudes,
    decide_parity_pass,
    fidelity_from_passrate,
    graph_pass_probability,
    omega_graph,
    parity_accept_indices,
    verify_graph_optimality,
)
from qsvkit.graphs import Graph, GraphCode, graph_state, interleaved_permutation
from qsvkit.qcore import Ket, orthonormal_complement


PATH2 = Graph(2, [(1, 2)])
TRIANGLE = Graph(3, [(1, 2), (2, 3), (1, 3)])
STAR4 = Graph(4, [(1, 2), (1, 3), (1, 4)])
CYCLE5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])


def swap_conjugate(entries: np.ndarray, d: int) -> np.ndarray:
    return entries.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)


def swap_columns(block: np.ndarray, d: int) -> np.ndarray:
    return block.reshape(d, d, -1).transpose(1, 0, 2).reshape(d * d, -1)


# ---------------------------------------------------------------------
# Accept operator construction
# ---------------------------------------------------------------------

def test_parity_accept_indices_path():
    assert parity_accept_indices(PATH2).tolist() == [0, 2, 1, 3]


def test_omega_graph_dense_is_rank_d_projector():
    for g in (PATH2, TRIANGLE):
        gs = omega_graph(g, matrix_free=False)
        om = gs.strategy.omega.entries
        d = 1 << g.n
        assert np.max(np.abs(om @ om - om)) < 1e-12
        assert abs(np.trace(om).real - d) < 1e-10
        assert np.max(np.abs(swap_conjugate(om, d) - om)) < 1e-12
        tt = np.kron(graph_state(g).amplitudes, graph_state(g).amplitudes)
        assert np.max(np.abs(om @ tt - tt)) < 1e-12


def test_omega_graph_layout_matches_interleaving():
    gs = omega_graph(TRIANGLE, matrix_free=False)
    assert np.array_equal(gs.layout, interleaved_permutation(3))


def test_omega_graph_defaults_to_matrix_free_at_threshold():
    assert omega_graph(Graph(MATRIX_FREE_DEFAULT_FROM)).strategy is None
    assert omega_graph(Graph(MATRIX_FREE_DEFAULT_FROM - 1)).strategy is not None
    dense5 = omega_graph(CYCLE5, matrix_free=False)
    assert dense5.strategy is not None
    with pytest.raises(ValueError, match="cap"):
        omega_graph(Graph(7), matrix_free=False)


# ---------------------------------------------------------------------
# Outcome amplitudes and matrix-free application
# ---------------------------------------------------------------------

def test_bell_outcome_amplitudes_unit_mass(rng):
    for g in (PATH2, TRIANGLE):
        d = 1 << g.n
        sigma = Ket(random_unit(rng, d), (2,) * g.n)
        sigma_p = Ket(random_unit(rng, d), (2,) * g.n)
        table = bell_outcome_amplitudes(g, sigma, sigma_p)
        assert table.shape == (d, d)
        assert abs(np.sum(np.abs(table) ** 2) - 1.0) < 1e-12


def test_bell_outcome_amplitudes_origin_input():
    # |00> x |00> only reaches flip-string 0, uniformly over phase strings.
    e0 = Ket(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2))
    table = bell_outcome_amplitudes(PATH2, e0, e0)
    expected = np.zeros((4, 4))
    expected[:, 0] = 0.5
    assert np.max(np.abs(table - expected)) < 1e-15


def test_bell_outcome_amplitudes_true_state_mass_on_accepted_set():
    for g in (PATH2, TRIANGLE, STAR4):
        d = 1 << g.n
        target = graph_state(g)
        table = bell_outcome_amplitudes(g, target, target)
        c_idx = parity_accept_indices(g)
        accepted = np.sum(np.abs(table[c_idx, np.arange(d)]) ** 2)
        assert abs(accepted - 1.0) < 1e-12


def test_bell_outcome_amplitudes_rejects_wrong_dim(rng):
    sigma = Ket(random_unit(rng, 8), (2, 2, 2))
    with pytest.raises(ValueError, match="qubits"):
        bell_outcome_amplitudes(PATH2, sigma, sigma)


def test_apply_omega_matches_dense(rng):
    for g in (PATH2, TRIANGLE, STAR4):
        gs = omega_graph(g, matrix_free=False)
        d = 1 << g.n
        for _ in range(3):
            vec = random_unit(rng, d * d)
            dense = gs.strategy.omega.entries @ vec
            free = apply_omega(gs, vec)
            assert np.max(np.abs(dense - free)) < 1e-12


# ---------------------------------------------------------------------
# Protocol decision
# ---------------------------------------------------------------------

def test_decide_parity_pass_examples():
    assert decide_parity_pass(PATH2, GraphCode("10"), GraphCode("01"))
    assert not decide_parity_pass(PATH2, GraphCode("11"), GraphCode("01"))
    assert decide_parity_pass(PATH2, GraphCode("00"), GraphCode("00"))
    with pytest.raises(ValueError, match="vertex count"):
        decide_parity_pass(PATH2, GraphCode("100"), GraphCode("01"))


def test_decide_parity_pass_agrees_with_accept_indices():
    for g in (TRIANGLE, STAR4):
        d = 1 << g.n
        c_idx = parity_accept_indices(g)
        for x in range(d):
            for z in range(d):
                expected = c_idx[x] == z
                got = decide_parity_pass(
                    g, GraphCode(format(z, f"0{g.n}b")), GraphCode(format(x, f"0{g.n}b"))
                )
                assert got == expected


# ---------------------------------------------------------------------
# Optimality verification
# ---------------------------------------------------------------------

def test_verify_graph_optimality_dense_route():
    for g in (PATH2, TRIANGLE):
        report = verify_graph_optimality(omega_graph(g, matrix_free=False))
        assert report.route == "dense"
        assert report.passed
        assert max(report.lambda_star, report.gamma_star, report.xi_star) <= 1e-9
        assert report.annihilation_residual <= 1e-9


def test_verify_graph_optimality_matrix_free_route():
    report4 = verify_graph_optimality(omega_graph(STAR4, matrix_free=False))
    assert report4.route == "matrix_free"
    assert report4.passed
    report5 = verify_graph_optimality(omega_graph(CYCLE5))
    assert report5.route == "matrix_free"
    assert report5.passed


def test_gram_compressions_match_dense_off_target(rng):
    # Graph states make every scalar vanish, so compare the full matrices on
    # random states, where a wrong sign or factor in a Gram formula shows.
    for n in (1, 2, 3):
        for g in connected_graphs(n):
            d = 1 << n
            psi = random_unit(rng, d)
            omega = omega_graph(g, matrix_free=False).strategy.omega.entries
            w = np.kron(psi[:, None], orthonormal_complement(psi))
            sym = (w + swap_columns(w, d)) / 2.0
            gam = w.conj().T @ swap_columns(omega @ w, d)
            expected = (
                2.0 * sym.conj().T @ omega @ sym,
                gam,
                gam / 2.0 + w.conj().T @ omega @ w,
                np.linalg.norm(omega @ sym, axis=0),
            )
            assert min(np.max(np.abs(ref)) for ref in expected) > 1e-3
            for mat, ref in zip(_gram_compressions(g, psi), expected):
                assert mat.shape == ref.shape
                assert np.max(np.abs(mat - ref)) < 1e-12


def test_verify_graph_optimality_routes_agree():
    for n in (1, 2, 3):
        for g in connected_graphs(n):
            dense = verify_graph_optimality(omega_graph(g, matrix_free=False))
            free = verify_graph_optimality(omega_graph(g, matrix_free=True))
            assert (dense.route, free.route) == ("dense", "matrix_free")
            assert dense.passed and free.passed
            for name in ("lambda_star", "gamma_star", "xi_star"):
                assert abs(getattr(dense, name) - getattr(free, name)) < 1e-12
            assert dense.annihilation_residual == free.annihilation_residual


def test_verify_graph_optimality_ring9_within_budget():
    ring9 = Graph(9, [(i, i % 9 + 1) for i in range(1, 10)])
    started = time.monotonic()
    report = verify_graph_optimality(omega_graph(ring9))
    assert time.monotonic() - started < 10.0
    assert report.route == "matrix_free"
    assert report.passed


# ---------------------------------------------------------------------
# Pass probability and fidelity
# ---------------------------------------------------------------------

def fake_state(g: Graph, eps: float, direction: int = 0) -> Ket:
    target = graph_state(g)
    perp = orthonormal_complement(target)[:, direction]
    amps = np.sqrt(1.0 - eps) * target.amplitudes + np.sqrt(eps) * perp
    return Ket(amps, target.dims)


def test_graph_pass_probability_exact_matches_analytic(rng):
    for g in (PATH2, TRIANGLE):
        d = 1 << g.n
        for _ in range(5):
            sigma = Ket(random_unit(rng, d), (2,) * g.n)
            sigma_p = Ket(random_unit(rng, d), (2,) * g.n)
            exact, analytic = graph_pass_probability(gs := omega_graph(g, matrix_free=False), sigma, sigma_p)
            assert abs(exact - analytic) < 1e-10
            assert 0.0 <= exact <= 1.0 + 1e-12


def test_graph_pass_probability_true_state_passes():
    gs = omega_graph(TRIANGLE, matrix_free=False)
    target = graph_state(TRIANGLE)
    exact, analytic = graph_pass_probability(gs, target, target)
    assert abs(exact - 1.0) < 1e-12
    assert abs(analytic - 1.0) < 1e-12


def test_graph_pass_probability_epsilon_pair_lower_bound():
    # With both inputs at infidelity eps the pass probability is at least
    # (1 - eps)^2 and the shortfall from 1 is at most 2 eps.
    eps = 0.01
    gs = omega_graph(PATH2, matrix_free=False)
    sigma = fake_state(PATH2, eps, 0)
    sigma_p = fake_state(PATH2, eps, 1)
    exact, analytic = graph_pass_probability(gs, sigma, sigma_p)
    assert abs(exact - analytic) < 1e-12
    assert (1.0 - eps) ** 2 - 1e-12 <= exact <= 1.0
    assert 1.0 - exact <= 2.0 * eps + 1e-12


def test_graph_pass_probability_validates_inputs(rng):
    gs = omega_graph(PATH2, matrix_free=False)
    good = Ket(random_unit(rng, 4), (2, 2))
    bad = Ket(2.0 * random_unit(rng, 4), (2, 2), normalized=False)
    with pytest.raises(ValueError, match="not normalized"):
        graph_pass_probability(gs, good, bad)
    small = Ket(random_unit(rng, 2), (2,))
    with pytest.raises(ValueError, match="dimension"):
        graph_pass_probability(gs, small, good)


def test_fidelity_from_passrate():
    assert fidelity_from_passrate(0.25) == pytest.approx(0.5, abs=1e-15)
    assert fidelity_from_passrate(1.0) == 1.0
    with pytest.raises(ValueError, match="outside"):
        fidelity_from_passrate(1.2)
    with pytest.raises(ValueError, match="outside"):
        fidelity_from_passrate(-0.1)
