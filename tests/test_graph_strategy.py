"""Bell-measurement graph strategies: operator, matrix-free path, verification."""

import ast
import inspect
import time

import numpy as np
import pytest

from conftest import random_unit, traced_peak_mib
from graphgen import PATH2, TRIANGLE, connected_graphs, ring
from qsvkit import graph_strategy, graphs
from qsvkit.graph_strategy import (
    _frobenius_certificate,
    apply_omega,
    fidelity_from_passrate,
    graph_pass_probability,
    omega_graph,
    parity_accept_indices,
    verify_graph_optimality,
)
from qsvkit.graphs import Graph, GraphCode, graph_state
from qsvkit.qcore import Ket, bell_ket, orthonormal_complement
from reference import (
    accept_rows,
    decide_parity_pass,
    interleaved_permutation,
    parity_code,
    streamed_accepted_mass,
    streamed_frobenius_certificate,
)


STAR4 = Graph(4, [(1, 2), (1, 3), (1, 4)])
CYCLE5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])


def star(n: int) -> Graph:
    return Graph(n, [(1, v) for v in range(2, n + 1)])


def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def random_real_unit(rng, dim: int) -> np.ndarray:
    vec = rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


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


def test_omega_graph_is_a_sum_of_local_bell_projectors():
    # In verifier-pair order (O1, O1', O2, O2', ...) the accept operator is
    # sum_b (x)_j |B(c_j(b), b_j)><B(c_j(b), b_j)|: each pair is measured
    # locally in the Bell basis, phase bit c_j(b) and flip bit b_j.
    for n in (1, 2, 3):
        perm = interleaved_permutation(n)
        for g in connected_graphs(n):
            om = omega_graph(g, matrix_free=False).strategy.omega.entries
            expected = np.zeros_like(om)
            for b in range(1 << n):
                code = GraphCode(format(b, f"0{n}b"))
                term = np.ones((1, 1))
                for z, x in zip(parity_code(g, code).bits, code.bits):
                    bell = bell_ket(z, x).amplitudes
                    term = np.kron(term, np.outer(bell, bell.conj()))
                expected += term
            assert np.max(np.abs(om[np.ix_(perm, perm)] - expected)) < 1e-12


def test_omega_graph_defaults_to_matrix_free_at_threshold():
    # Matrix-free at every n: a dense operator is built only when asked for.
    for n in range(1, 8):
        assert omega_graph(Graph(n)).strategy is None
    dense5 = omega_graph(CYCLE5, matrix_free=False)
    assert dense5.strategy is not None
    with pytest.raises(ValueError, match="cap"):  # raised before any dense build
        omega_graph(Graph(7), matrix_free=False)


def explicit_accept_ket(g: Graph, b: int) -> np.ndarray:
    """2^(-n/2) sum_u (-1)^(c(b).u) |u>_O |u xor b>_O', assembled term by term."""
    n, d = g.n, 1 << g.n
    c = parity_code(g, GraphCode(format(b, f"0{n}b"))).index()
    ket = np.zeros(d * d)
    for u in range(d):
        ket[u * d + (u ^ b)] = (-1.0) ** bin(c & u).count("1") / np.sqrt(d)
    return ket


def test_omega_graph_dense_operator_built_once_on_first_read(monkeypatch):
    built = []
    original = graph_strategy.Strategy

    def counting(*args, **kwargs):
        built.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(graph_strategy, "Strategy", counting)
    for n in (1, 2, 3, 4):
        for g in connected_graphs(n)[:3]:
            built.clear()
            gs = omega_graph(g, matrix_free=False)
            assert built == [] and "strategy" not in gs.__dict__
            first = gs.strategy
            assert gs.strategy is first
            assert built == [1]
            d = 1 << n
            expected = sum(np.outer(k, k) for k in (explicit_accept_ket(g, b) for b in range(d)))
            assert np.max(np.abs(first.omega.entries - expected)) < 1e-12


def test_dense_verification_past_n3_never_builds_the_operator():
    gs = omega_graph(CYCLE5, matrix_free=False)
    report = verify_graph_optimality(gs)
    assert report.route == "matrix_free" and report.passed
    assert "strategy" not in gs.__dict__


# ---------------------------------------------------------------------
# Matrix-free application
# ---------------------------------------------------------------------

def test_bell_outcome_amplitudes_true_state_mass_on_accepted_set():
    # The Bell outcome amplitudes on the accepted set are the overlaps
    # <K_b|G (x) G>, with K_b assembled from the accept-ket row blocks.
    for g in (PATH2, TRIANGLE, STAR4):
        d = 1 << g.n
        target = graph_state(g).amplitudes
        pair = np.kron(target, target)
        accepted = 0.0
        for b, signs, flips in accept_rows(g):
            kets = np.zeros((b.shape[0], d * d))
            np.put_along_axis(kets, np.arange(d) * d + flips, signs / np.sqrt(d), axis=1)
            accepted += float(np.sum(np.abs(kets @ pair) ** 2))
        assert abs(accepted - 1.0) < 1e-12


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


def test_frobenius_certificate_bounds_dense_compressions_off_target(rng):
    # Graph states make every scalar vanish, so check the bound on random
    # real states, where the compressions are far from zero.
    for n in (1, 2, 3):
        for g in connected_graphs(n):
            d = 1 << n
            psi = random_real_unit(rng, d)
            omega = omega_graph(g, matrix_free=False).strategy.omega.entries
            w = np.kron(psi[:, None], orthonormal_complement(psi))
            sym = (w + swap_columns(w, d)) / 2.0
            gam = w.conj().T @ swap_columns(omega @ w, d)
            lam = 2.0 * sym.conj().T @ omega @ sym
            xi = gam / 2.0 + w.conj().T @ omega @ w
            resid = np.linalg.norm(omega @ sym, axis=0)
            frob = _frobenius_certificate(g, psi)
            assert abs(frob**2 - np.trace(gam).real) < 1e-12
            assert frob**2 > 1e-3
            for mat, bound in ((lam, 2.0 * frob**2), (gam, frob**2), (xi, 1.5 * frob**2)):
                top = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[-1]
                assert top <= bound + 1e-12
            assert np.max(resid) <= frob + 1e-12


def test_accept_row_consumers_do_not_depend_on_the_block_height(monkeypatch, rng):
    # Small graphs fit one block; shrink the blocks to 1, 3 and 6 rows of 16,
    # the last one ragged, so every block boundary is crossed. apply_omega is
    # the one consumer that still walks the accept kets in row blocks.
    vec = random_unit(rng, 256)
    gs = omega_graph(STAR4, matrix_free=False)
    omega = gs.strategy.omega.entries
    for entries in (16, 48, 100):
        monkeypatch.setattr(graph_strategy, "_BLOCK_ENTRIES", entries)
        assert np.max(np.abs(apply_omega(gs, vec) - omega @ vec)) < 1e-12


def test_frobenius_certificate_agrees_across_dtypes(rng):
    # A real psi gives the same F, bit for bit, as float64 or as complex128
    # with a zero imaginary part; a global phase makes it complex and raises.
    for n in (1, 2, 3, 4):
        for g in connected_graphs(n):
            psi = random_real_unit(rng, 1 << n)
            frob = _frobenius_certificate(g, psi)
            assert frob > 1e-3
            assert _frobenius_certificate(g, psi.astype(complex)) == frob
            with pytest.raises(ValueError, match="imaginary"):
                _frobenius_certificate(g, np.exp(0.7j) * psi)


def test_frobenius_certificate_matches_the_streamed_reference(rng):
    # Every connected graph with n <= 5: random real states, where F is of
    # order 1, and states within delta of the graph state, where F is of
    # order delta and a cancelling form would lose its relative precision.
    for n in (1, 2, 3, 4, 5):
        d = 1 << n
        for g in connected_graphs(n):
            psi = random_real_unit(rng, d)
            got = _frobenius_certificate(g, psi)
            assert abs(got**2 - streamed_frobenius_certificate(g, psi) ** 2) <= 1e-12
            target = graph_state(g).amplitudes.real
            for delta in (1e-6, 1e-8):
                near = target + delta * rng.normal(size=d)
                near /= np.linalg.norm(near)
                want = streamed_frobenius_certificate(g, near)
                assert abs(_frobenius_certificate(g, near) - want) <= 1e-6 * want


@pytest.mark.parametrize("family", [ring, star, complete])
def test_frobenius_certificate_vanishes_on_graph_states(family):
    for n in range(1, 14):
        g = family(n)
        assert _frobenius_certificate(g, graph_state(g).amplitudes) <= 1e-15


def test_verify_graph_optimality_ring13_memory():
    # The certificate holds the code table, a few (2^13, 13) integer bit
    # tables and (128, 64) products, about 2.3 MiB; no 4^13-entry array.
    assert traced_peak_mib(lambda: verify_graph_optimality(omega_graph(ring(13)))) < 8.0


def test_graph_state_rows_of_r_prime_are_psi_b_psi():
    # The paper's identity: R'[b, u] = (-1)^(c(b).u) psi[u xor b] / sqrt(d)
    # equals psi[b] psi[u] for a graph state, so R' (I - psi psi^dag) = 0.
    for n in (1, 2, 3, 4):
        d = 1 << n
        for g in connected_graphs(n):
            psi = graph_state(g).amplitudes
            for b in range(d):
                c = parity_code(g, GraphCode(format(b, f"0{n}b"))).index()
                row = np.array(
                    [(-1.0) ** bin(c & u).count("1") * psi[u ^ b] for u in range(d)]
                ) / np.sqrt(d)
                assert np.max(np.abs(row - psi[b] * psi)) < 1e-12


def test_frobenius_certificate_rejects_a_swap_antisymmetric_accept_ket(monkeypatch):
    # c(1) = 1 on one vertex is the parity code of a self-loop: the accept ket
    # for b = 1 then has swap sign (-1)^(c(1).1) = -1.
    monkeypatch.setattr(graph_strategy, "parity_accept_indices", lambda g: np.array([0, 1]))
    with pytest.raises(ValueError, match="swap"):
        _frobenius_certificate(Graph(1), np.array([1.0, 0.0], dtype=complex))


MALFORMED_TABLES = pytest.mark.parametrize(
    "table, message",
    [
        # c(01) = 10 and c(10) = 00: linear, zero diagonal, Gamma not symmetric.
        ([0, 2, 0, 2], "symmetric"),
        # The path's table [0, 2, 1, 3] with c(11) = 00, not c(01) xor c(10).
        ([0, 2, 1, 0], "linear"),
    ],
)


@MALFORMED_TABLES
def test_frobenius_certificate_rejects_a_malformed_code_table(monkeypatch, table, message):
    monkeypatch.setattr(graph_strategy, "parity_accept_indices", lambda g: np.array(table))
    with pytest.raises(ValueError, match=message):
        _frobenius_certificate(PATH2, graph_state(PATH2).amplitudes)


@MALFORMED_TABLES
def test_every_consumer_rejects_a_malformed_code_table(monkeypatch, rng, table, message):
    # The dense build, apply_omega and the pass probability read the code
    # table through the same checks as the certificate.
    monkeypatch.setattr(graph_strategy, "parity_accept_indices", lambda g: np.array(table))
    target = graph_state(PATH2)
    consumers = (
        lambda: omega_graph(PATH2, matrix_free=False).strategy,
        lambda: apply_omega(omega_graph(PATH2), random_unit(rng, 16)),
        lambda: graph_pass_probability(omega_graph(PATH2), target, target),
    )
    for consumer in consumers:
        with pytest.raises(ValueError, match=message):
            consumer()


def test_only_the_frame_signs_read_the_code_table():
    # graph_strategy names parity_accept_indices in its import and inside
    # _frame_signs, nowhere else, so every consumer passes its checks.
    tree = ast.parse(inspect.getsource(graph_strategy))
    frame = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_frame_signs"
    )
    inside = {id(node) for node in ast.walk(frame)}
    readers = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "parity_accept_indices"
    ]
    imports = [
        alias for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name == "parity_accept_indices"
    ]
    assert len(imports) == 1
    assert readers and all(id(node) in inside for node in readers)
    assert not any(
        isinstance(node, ast.Attribute) and node.attr == "parity_accept_indices"
        for node in ast.walk(tree)
    )


def test_verification_fails_on_a_wrong_graph_state(monkeypatch):
    # The certificate's frame comes from the code table, not from the state:
    # one flipped amplitude sign in graph_state must fail verification
    # instead of certifying itself. (The dense route refuses to build a
    # strategy that does not fix its target, so only the matrix-free route
    # gets this far.)
    edge_signs = graphs._edge_signs

    def one_sign_flipped(g):
        signs = edge_signs(g).copy()
        signs[1] *= -1.0
        return signs

    monkeypatch.setattr(graphs, "_edge_signs", one_sign_flipped)
    for gs in (omega_graph(TRIANGLE, matrix_free=True), omega_graph(ring(6))):
        report = verify_graph_optimality(gs)
        assert not report.passed
        assert report.annihilation_residual > 1e-3


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


@pytest.mark.parametrize("n", [9, 12, 13])
def test_verify_graph_optimality_ring_within_budget(n):
    started = time.monotonic()
    report = verify_graph_optimality(omega_graph(ring(n)))
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


def test_graph_pass_probability_matches_the_streamed_reference(rng):
    # The frame sum against the sum over every accept-ket entry, on random
    # complex inputs: every connected graph with n <= 5, then rings 6 to 9.
    graphs_ = [g for n in range(1, 6) for g in connected_graphs(n)]
    graphs_ += [ring(n) for n in range(6, 10)]
    for g in graphs_:
        d = 1 << g.n
        sigma, sigma_p = (Ket(random_unit(rng, d), (2,) * g.n) for _ in range(2))
        exact, _ = graph_pass_probability(omega_graph(g), sigma, sigma_p)
        want = streamed_accepted_mass(g, sigma.amplitudes, sigma_p.amplitudes)
        assert abs(exact - want) <= 1e-12


def test_graph_pass_probability_is_the_graph_basis_overlap():
    # Omega = sum_v P_v (x) P_v with P_v the projector onto Z^v|G>, built
    # here from graph_state and popcount signs alone: the product of two
    # graph basis states passes with probability delta_(v, v').
    for g in (PATH2, TRIANGLE, STAR4, CYCLE5):
        d = 1 << g.n
        gs = omega_graph(g)
        target = graph_state(g).amplitudes
        idx = np.arange(d)
        basis = [
            Ket(target * (-1.0) ** np.bitwise_count(v & idx), (2,) * g.n) for v in range(d)
        ]
        for v, sigma in enumerate(basis):
            for w, sigma_p in enumerate(basis):
                exact, analytic = graph_pass_probability(gs, sigma, sigma_p)
                assert abs(exact - (v == w)) < 1e-12
                assert abs(analytic - (v == w)) < 1e-12


def test_graph_pass_probability_ring13_time_and_memory(rng):
    # Two stacked frame products and the code-table checks, about 2.4 MiB;
    # no 4^13-entry array and no row stream over the accept kets.
    g = ring(13)
    gs = omega_graph(g)
    sigma, sigma_p = (Ket(random_unit(rng, 1 << 13), (2,) * 13) for _ in range(2))
    started = time.monotonic()
    peak = traced_peak_mib(lambda: graph_pass_probability(gs, sigma, sigma_p))
    assert time.monotonic() - started < 1.0
    assert peak < 8.0


def test_graph_pass_probability_true_state_passes():
    for g in (PATH2, TRIANGLE, STAR4):
        target = graph_state(g)
        exact, analytic = graph_pass_probability(omega_graph(g, matrix_free=False), target, target)
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
    with pytest.raises(ValueError, match="not normalized"):
        Ket(2.0 * random_unit(rng, 4), (2, 2))
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


# ---------------------------------------------------------------------
# Vertex relabelling
# ---------------------------------------------------------------------

def relabellings(n: int, count: int = 3):
    """Seeded random graphs g on n vertices, each with a relabelled copy h and the index map.

    h has edge (pi(u), pi(v)) for each edge (u, v) of g, with pi a random
    permutation of 1..n. Vertex v is bit n - v of a basis index, so pi moves
    that bit to bit n - pi(v); image[b] is the index b becomes.
    """
    gen = np.random.Generator(np.random.Philox(key=1000 + n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    basis = np.arange(1 << n)
    for _ in range(count):
        g = Graph(n, [pair for pair in pairs if gen.random() < 0.5])
        pi = gen.permutation(n) + 1
        h = Graph(n, [(pi[u - 1], pi[v - 1]) for u, v in g.edges])
        image = np.zeros_like(basis)
        for v in range(1, n + 1):
            image |= ((basis >> (n - v)) & 1) << (n - pi[v - 1])
        yield g, h, image


def relabelled(image: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    out = np.empty_like(amplitudes)
    out[image] = amplitudes
    return out


@pytest.mark.parametrize("n", range(2, 11))
def test_relabelling_permutes_the_code_table(n):
    for g, h, image in relabellings(n):
        assert np.array_equal(parity_accept_indices(h)[image], image[parity_accept_indices(g)])
        assert np.array_equal(graph_state(h).amplitudes, relabelled(image, graph_state(g).amplitudes))


@pytest.mark.parametrize("n", range(2, 11))
def test_relabelling_keeps_the_certificate(rng, n):
    # A random psi is far from every graph state, so F is of order 1.
    for g, h, image in relabellings(n):
        psi = random_real_unit(rng, 1 << n)
        f = _frobenius_certificate(g, psi)
        assert f > 0.1
        assert abs(_frobenius_certificate(h, relabelled(image, psi)) - f) <= 1e-13


@pytest.mark.parametrize("n", range(2, 11))
def test_relabelling_keeps_the_pass_probability(rng, n):
    dims = (2,) * n
    for g, h, image in relabellings(n):
        sigma, sigma_p = random_unit(rng, 1 << n), random_unit(rng, 1 << n)
        before = graph_pass_probability(omega_graph(g, matrix_free=True), Ket(sigma, dims),
                                        Ket(sigma_p, dims))
        after = graph_pass_probability(omega_graph(h, matrix_free=True),
                                       Ket(relabelled(image, sigma), dims),
                                       Ket(relabelled(image, sigma_p), dims))
        assert np.max(np.abs(np.subtract(after, before))) <= 1e-12
