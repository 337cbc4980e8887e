"""Graph model, parity codes, graph states, and the disentangling gates."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unit, traced_peak_mib
from graphgen import PATH2, TRIANGLE, connected_graphs, ring
from qsvkit import graphs
from qsvkit.graphs import (
    Graph,
    GraphCode,
    check_disentangled_equations,
    disentangle_operators,
    graph_state,
    load_graph,
    parse_graph,
    phase_aligned_deviation,
)
from qsvkit.qcore import HADAMARD, Ket, PAULI_X, PAULI_Z, bell_ket
from reference import edge_product_signs, interleaved_permutation, parity_code, parity_code_table


# ---------------------------------------------------------------------
# Graph and GraphCode
# ---------------------------------------------------------------------

def test_graph_normalizes_and_validates_edges():
    g = Graph(3, [(3, 1), (2, 3)])
    assert g.edges == ((1, 3), (2, 3))
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(1, 3)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError, match="positive"):
        Graph(0)


def test_adjacency_is_symmetric_zero_diagonal():
    adj = TRIANGLE.adjacency()
    assert np.array_equal(adj, adj.T)
    assert np.all(np.diag(adj) == 0)
    assert adj.sum() == 2 * len(TRIANGLE.edges)


def test_graph_code_from_string_and_index():
    code = GraphCode("110")
    assert code.bits == (1, 1, 0)
    assert code.index() == 6
    assert GraphCode([0, 0, 1]).index() == 1
    assert len(GraphCode("0101")) == 4
    with pytest.raises(ValueError, match="0 or 1"):
        GraphCode("102")


# ---------------------------------------------------------------------
# Parity codes
# ---------------------------------------------------------------------

def test_parity_code_path_swaps_bits():
    for b in ("00", "01", "10", "11"):
        c = parity_code(PATH2, GraphCode(b))
        assert c.bits == (int(b[1]), int(b[0]))


def test_parity_code_triangle_is_neighbour_sum():
    c = parity_code(TRIANGLE, GraphCode("101"))
    # vertex 1 sees b2+b3 = 1, vertex 2 sees b1+b3 = 0, vertex 3 sees b1+b2 = 1
    assert c.bits == (1, 0, 1)
    with pytest.raises(ValueError, match="does not match"):
        parity_code(TRIANGLE, GraphCode("10"))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_parity_code_is_linear(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    all_pairs = list(combinations(range(1, n + 1), 2))
    mask = data.draw(st.integers(min_value=0, max_value=(1 << len(all_pairs)) - 1))
    g = Graph(n, [p for i, p in enumerate(all_pairs) if (mask >> i) & 1])
    b1 = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    b2 = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    code1 = GraphCode(format(b1, f"0{n}b"))
    code2 = GraphCode(format(b2, f"0{n}b"))
    xor = GraphCode(format(b1 ^ b2, f"0{n}b"))
    lhs = parity_code(g, xor).bits
    rhs = tuple(
        (x + y) % 2
        for x, y in zip(parity_code(g, code1).bits, parity_code(g, code2).bits)
    )
    assert lhs == rhs


def test_parity_accept_indices_equal_the_bit_table_product():
    # The doubled table is linear by construction; the product reads every row independently.
    subjects = [g for n in range(1, 6) for g in connected_graphs(n)]
    subjects += [ring(n) for n in range(1, 14)] + [Graph(4, [(1, 2)]), Graph(3)]
    for g in subjects:
        table = graphs.parity_accept_indices(g)
        assert table.dtype == np.int64
        assert np.array_equal(table, parity_code_table(g)), g
    table = graphs.parity_accept_indices(TRIANGLE)
    for b in range(1 << TRIANGLE.n):
        code = GraphCode(format(b, "03b"))
        assert table[code.index()] == parity_code(TRIANGLE, code).index()


# ---------------------------------------------------------------------
# Graph states
# ---------------------------------------------------------------------

def test_graph_state_path_amplitudes():
    amps = graph_state(PATH2).amplitudes
    assert np.allclose(amps, np.array([1, 1, 1, -1]) / 2.0)
    # The doubled sign table equals the edge product on rings and seeded random graphs.
    gen = np.random.Generator(np.random.Philox(key=12))
    subjects = [ring(n) for n in range(1, 14)] + [Graph(3)]
    for n in range(1, 14):
        pairs = list(combinations(range(1, n + 1), 2))
        subjects += [Graph(n, [e for e in pairs if gen.random() < density]) for density in (0.3, 0.7)]
    for g in subjects:
        signs = edge_product_signs(g)
        assert np.array_equal(graphs._edge_signs(g), signs), g
        assert np.array_equal(graph_state(g).amplitudes, signs.astype(complex) / np.sqrt(1 << g.n)), g


def test_graph_state_path_maps_to_bell_under_single_hadamard():
    # H on the first qubit turns the two-vertex graph state into the
    # zero-syndrome Bell state.
    circ = np.kron(HADAMARD, np.eye(2))
    out = circ @ graph_state(PATH2).amplitudes
    assert phase_aligned_deviation(out, bell_ket(0, 0).amplitudes) < 1e-12


def test_graph_state_fixed_by_vertex_stabilizers():
    for g in (PATH2, TRIANGLE, Graph(4, [(1, 2), (2, 3), (3, 4)])):
        ket = graph_state(g).amplitudes
        adj = g.adjacency()
        for u in range(g.n):
            ops = []
            for v in range(g.n):
                if v == u:
                    ops.append(PAULI_X)
                elif adj[u, v]:
                    ops.append(PAULI_Z)
                else:
                    ops.append(np.eye(2))
            stab = ops[0]
            for op in ops[1:]:
                stab = np.kron(stab, op)
            assert np.max(np.abs(stab @ ket - ket)) < 1e-12


def test_graph_state_respects_dense_cap():
    big = Graph(14)
    with pytest.raises(ValueError, match="cap"):
        graph_state(big)


# ---------------------------------------------------------------------
# Disentangling gates
# ---------------------------------------------------------------------

def test_disentangle_operator_structure():
    for g, bits in ((PATH2, "10"), (TRIANGLE, "110")):
        a_op, l_op, b_op, q_op = disentangle_operators(g, GraphCode(bits))
        d = 1 << g.n
        for unitary in (a_op.entries, b_op.entries):
            eye = np.eye(unitary.shape[0])
            assert np.max(np.abs(unitary.conj().T @ unitary - eye)) < 1e-12
        assert np.max(np.abs(l_op.entries @ l_op.entries - np.eye(d))) < 1e-12
        assert l_op.hermitian
        diag = np.diag(q_op.entries)
        assert np.allclose(np.abs(diag), 1.0)
        assert np.max(np.abs(q_op.entries - np.diag(diag))) < 1e-15


def test_disentangle_l_is_signed_flip_layer():
    a = GraphCode("11")
    _, l_op, _, _ = disentangle_operators(PATH2, a)
    flip = parity_code(PATH2, a).index()
    d = 4
    expected = np.zeros((d, d))
    expected[np.arange(d) ^ flip, np.arange(d)] = -1.0  # a1 a2 = 1 on the edge
    assert np.max(np.abs(l_op.entries - expected)) < 1e-15


def test_disentangle_b_sends_graph_state_to_origin():
    for g in (PATH2, TRIANGLE):
        _, _, b_op, _ = disentangle_operators(g, GraphCode("0" * g.n))
        out = b_op.entries @ graph_state(g).amplitudes
        origin = np.zeros(1 << g.n)
        origin[0] = 1.0
        assert phase_aligned_deviation(out, origin) < 1e-12


def test_check_disentangled_equations_small_graphs(rng):
    for g in (PATH2, TRIANGLE):
        omega = Ket(random_unit(rng, 1 << g.n), (2,) * g.n)
        report = check_disentangled_equations(g, omega)
        assert report.passed
        assert report.max_deviation <= 1e-10
        assert report.max_deviation == max(report.forward_max, report.inverse_max)


def test_check_disentangled_equations_checks_every_code(rng, monkeypatch):
    # A wrong L (one flip bit toggled) on any single code must fail the check.
    original = graphs.parity_accept_indices
    for g in (PATH2, TRIANGLE):
        d = 1 << g.n
        omega = Ket(random_unit(rng, d), (2,) * g.n)
        for wrong in range(d):

            def flips(graph, wrong=wrong):
                c = original(graph)
                c[wrong] ^= 1
                return c

            monkeypatch.setattr(graphs, "parity_accept_indices", flips)
            assert not check_disentangled_equations(g, omega).passed
        monkeypatch.setattr(graphs, "parity_accept_indices", original)
        assert check_disentangled_equations(g, omega).passed


def test_dense_disentangling_gates_satisfy_both_identities(rng):
    # The identities in dense form: column a of A (omega (x) G), reshaped with
    # O' as the column index, is L B omega / sqrt(d), and swapping the inputs
    # inserts Q before B.
    for n in range(1, 4):
        d = 1 << n
        for g in connected_graphs(n):
            omega = random_unit(rng, d)
            gket = graph_state(g).amplitudes
            for code in range(d):
                a_op, l_op, b_op, q_op = disentangle_operators(g, GraphCode(format(code, f"0{n}b")))
                fwd = (a_op.entries @ np.kron(omega, gket)).reshape(d, d)[:, code]
                inv = (a_op.entries @ np.kron(gket, omega)).reshape(d, d)[:, code]
                b_omega = b_op.entries @ omega / np.sqrt(d)
                assert phase_aligned_deviation(fwd, l_op.entries @ b_omega) < 1e-12
                inv_rhs = l_op.entries @ q_op.entries @ b_omega
                assert phase_aligned_deviation(inv, inv_rhs) < 1e-12


def test_check_disentangled_equations_memory_stays_small(rng):
    ring6 = Graph(6, [(i, i % 6 + 1) for i in range(1, 7)])
    omega = Ket(random_unit(rng, 64), (2,) * 6)
    assert traced_peak_mib(lambda: check_disentangled_equations(ring6, omega)) < 4.0


def test_disentangling_gates_refuse_seven_vertices(rng):
    ring7 = Graph(7, [(i, i % 7 + 1) for i in range(1, 8)])
    message = r"dense two-register operator side 4\^7 exceeds cap 8192"
    with pytest.raises(ValueError, match=message):
        check_disentangled_equations(ring7, Ket(random_unit(rng, 128), (2,) * 7))
    with pytest.raises(ValueError, match=message):
        disentangle_operators(ring7, GraphCode("0" * 7))


def test_disentangling_gates_refuse_a_huge_vertex_count():
    # 4^20000 has more digits than Python will print; the cap message must not need them.
    with pytest.raises(ValueError, match="cap"):
        disentangle_operators(Graph(20000, []), GraphCode("0" * 20000))


def test_check_disentangled_equations_rejects_dim_mismatch(rng):
    omega = Ket(random_unit(rng, 8), (2, 2, 2))
    with pytest.raises(ValueError, match="does not match"):
        check_disentangled_equations(PATH2, omega)


def test_interleaved_permutation_single_vertex_is_identity():
    assert np.array_equal(interleaved_permutation(1), np.arange(4))
    with pytest.raises(ValueError, match="positive"):
        interleaved_permutation(0)


def test_interleaved_permutation_reorders_qubit_factors(rng):
    # Block layout kron order (O1, O2, O1', O2') versus pair order
    # (O1, O1', O2, O2') for product states.
    parts = [random_unit(rng, 2) for _ in range(4)]
    o1, o2, o1p, o2p = parts
    block = np.kron(np.kron(o1, o2), np.kron(o1p, o2p))
    interleaved = np.kron(np.kron(o1, o1p), np.kron(o2, o2p))
    perm = interleaved_permutation(2)
    assert np.max(np.abs(block[perm] - interleaved)) < 1e-15


def test_phase_aligned_deviation_quotient_and_mismatch(rng):
    v = random_unit(rng, 6)
    assert phase_aligned_deviation(np.exp(0.3j) * v, v) < 1e-12
    assert phase_aligned_deviation(v, np.exp(0.3j) * v) < 1e-12
    with pytest.raises(ValueError, match="mismatch"):
        phase_aligned_deviation(v, v[:4])


# ---------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------

def test_parse_graph_round_trip():
    g = parse_graph("n 3\n1 2\n\n2 3\n")
    assert g.n == 3
    assert g.edges == ((1, 2), (2, 3))


def test_parse_graph_diagnostics_name_the_line():
    with pytest.raises(ValueError, match="empty"):
        parse_graph("  \n\n")
    with pytest.raises(ValueError, match="line 1: first line"):
        parse_graph("graph 3\n1 2\n")
    with pytest.raises(ValueError, match="line 1: vertex count"):
        parse_graph("n three\n")
    with pytest.raises(ValueError, match="line 3: edge line"):
        parse_graph("n 3\n1 2\n1 2 3\n")
    with pytest.raises(ValueError, match="line 4: edge endpoints"):
        parse_graph("n 3\n1 2\n2 3\nx y\n")


def test_load_graph_reads_file(tmp_path):
    path = tmp_path / "ring.graph"
    path.write_text("n 4\n1 2\n2 3\n3 4\n1 4\n", encoding="utf-8")
    g = load_graph(str(path))
    assert g.n == 4
    assert len(g.edges) == 4
