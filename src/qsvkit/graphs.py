"""Graph model, parity codes, graph states, and disentangling gates.

A graph here is a simple undirected graph on vertices 1..n. Each binary
string b of length n doubles as a codeword; the graph maps it to its parity
code c(b), whose bit at vertex u is the mod-2 sum of b over the neighbours
of u. The associated graph state is prepared by Hadamards on every vertex
qubit followed by controlled-Z on every edge.

Two-register operators act on 2n qubits in block layout: the first n tensor
factors are the O register (first copy, vertex order), the last n the O'
register (second copy). interleaved_permutation converts to the layout that
orders qubits by verifier pair (O1, O1', O2, O2', ...). Within gate products
the factor order is ascending vertex/edge index; every product used here
commutes internally, so the order only fixes documentation.

Equality of kets is checked up to global phase (aligned on the largest
reference amplitude), which guards against phase-convention drift between
independently assembled circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .qcore import DENSE_DIM_CAP, Ket, Operator, walsh_signs

# =====================================================================
# Domain types
# =====================================================================


@dataclass
class Graph:
    """Simple undirected graph with 1-indexed vertices.

    Edges are stored sorted as (u, v) pairs with u < v. Self-loops,
    duplicates, and out-of-range endpoints are rejected.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()) -> None:
        self.n = int(n)
        if self.n < 1:
            raise ValueError(f"vertex count must be positive: {n}")
        seen: set[tuple[int, int]] = set()
        for pair in edges:
            u, v = (int(x) for x in pair)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n = {self.n}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
        self.edges = tuple(sorted(seen))

    def adjacency(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix, rows and columns in vertex order."""
        adj = np.zeros((self.n, self.n), dtype=np.int64)
        for u, v in self.edges:
            adj[u - 1, v - 1] = adj[v - 1, u - 1] = 1
        return adj


@dataclass
class GraphCode:
    """Binary string over the vertices of a graph."""

    bits: tuple[int, ...]

    def __init__(self, bits: Iterable[int] | str) -> None:
        if isinstance(bits, str):
            vals = [int(ch) for ch in bits]
        else:
            vals = [int(b) for b in bits]
        if any(b not in (0, 1) for b in vals):
            raise ValueError(f"code bits must be 0 or 1: {vals}")
        self.bits = tuple(vals)

    def __len__(self) -> int:
        return len(self.bits)

    def index(self) -> int:
        """Basis index of |bits>, leftmost bit most significant."""
        idx = 0
        for b in self.bits:
            idx = (idx << 1) | b
        return idx


# =====================================================================
# Bit-table helpers
# =====================================================================


def _bit_table(n: int) -> np.ndarray:
    """(2^n, n) array; column j holds the bit of vertex j+1 for each index."""
    idx = np.arange(1 << n, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] >> shifts[None, :]) & 1


def _edge_signs(g: Graph) -> np.ndarray:
    """(-1)^(sum over edges of b_u b_v) for every basis index."""
    bits = _bit_table(g.n)
    exponent = np.zeros(1 << g.n, dtype=np.int64)
    for u, v in g.edges:
        exponent += bits[:, u - 1] * bits[:, v - 1]
    return np.where(exponent % 2 == 0, 1.0, -1.0)


def _hadamard_layer(n: int) -> np.ndarray:
    """Hadamard on each of n qubits: the (2^n, 2^n) Walsh signs over sqrt(2^n)."""
    idx = np.arange(1 << n, dtype=np.int64)
    return walsh_signs(idx[:, None], idx[None, :]) / np.sqrt(1 << n)


# =====================================================================
# Operations
# =====================================================================


def parity_code(g: Graph, b: GraphCode) -> GraphCode:
    """Parity code of b: bit u is the mod-2 sum of b over the neighbours of u."""
    if len(b) != g.n:
        raise ValueError(f"code length {len(b)} does not match vertex count {g.n}")
    out = (g.adjacency() @ np.array(b.bits, dtype=np.int64)) % 2
    return GraphCode(out.tolist())


def parity_accept_indices(g: Graph) -> np.ndarray:
    """For every flip-string index x, the accepted phase-string index c(x)."""
    shifts = np.arange(g.n - 1, -1, -1, dtype=np.int64)
    return ((_bit_table(g.n) @ g.adjacency()) % 2) @ (1 << shifts)


def graph_state(g: Graph) -> Ket:
    """Graph state of g: CZ on every edge applied to the uniform |+...+> state.

    The amplitude of |b> is (-1)^(sum over edges of b_u b_v) / sqrt(2^n).
    """
    dim = 1 << g.n
    if dim > DENSE_DIM_CAP:
        raise ValueError(
            f"graph state on {g.n} qubits has dimension {dim} > cap {DENSE_DIM_CAP}"
        )
    amps = _edge_signs(g).astype(complex) / np.sqrt(dim)
    return Ket(amps, (2,) * g.n)


def disentangle_operators(g: Graph, a: GraphCode) -> tuple[Operator, Operator, Operator, Operator]:
    """Gate family that disentangles a graph-state copy against a work register.

    Returns (A, L, B, Q):

    - A acts on 2n qubits in block (O, O') layout: controlled-X from each O_i
      onto O_i', then Hadamard on each O_i.
    - L acts on the n-qubit O register: the edge product of
      (-1)^(a_m a_n) X_m^(a_n) X_n^(a_m), which equals the parity-code X layer
      X^(c(a)) times a global sign.
    - B acts on the O register: CZ on every edge, then a Hadamard layer. It
      maps the graph state to |0...0>.
    - Q acts on the O register: Z_i^(a_i) on every vertex.

    Only L and Q depend on the code a.
    """
    if len(a) != g.n:
        raise ValueError(f"code length {len(a)} does not match vertex count {g.n}")
    a_op, b_op = _code_free_gates(g)
    l_op, q_op = _code_gates(g, a)
    return a_op, l_op, b_op, q_op


def _code_free_gates(g: Graph) -> tuple[Operator, Operator]:
    """Gates A and B of disentangle_operators, which do not depend on the code."""
    n = g.n
    d = 1 << n
    if d * d > DENSE_DIM_CAP:
        raise ValueError(
            f"dense two-register operator side {d * d} exceeds cap {DENSE_DIM_CAP}"
        )

    # A: permutation |i, j> -> |i, j xor i> followed by Hadamards on O, so
    # column i*d + j of A is column i*d + (j xor i) of H (x) I.
    rows = np.arange(d, dtype=np.int64)
    dst = (rows[:, None] * d + (rows[None, :] ^ rows[:, None])).ravel()
    a_op = np.kron(_hadamard_layer(n), np.eye(d))[:, dst]

    # B: Hadamard layer after the CZ layer.
    b_op = _hadamard_layer(n) * _edge_signs(g)[None, :]
    return Operator(a_op, (2,) * (2 * n)), Operator(b_op, (2,) * n)


def _code_gates(g: Graph, a: GraphCode) -> tuple[Operator, Operator]:
    """Gates L and Q of disentangle_operators for the code a."""
    n = g.n
    d = 1 << n
    rows = np.arange(d, dtype=np.int64)

    # L: global sign times X^(c(a)).
    abits = np.array(a.bits, dtype=np.int64)
    sign = 1.0 if sum(abits[u - 1] * abits[v - 1] for u, v in g.edges) % 2 == 0 else -1.0
    flip = parity_code(g, a).index()
    l_op = np.zeros((d, d), dtype=complex)
    l_op[rows ^ flip, rows] = sign

    # Q: diagonal Z^a.
    q_diag = np.where((_bit_table(n) @ abits) % 2 == 0, 1.0, -1.0)
    q_op = np.diag(q_diag.astype(complex))
    return Operator(l_op, (2,) * n, hermitian=True), Operator(q_op, (2,) * n, hermitian=True)


def interleaved_permutation(n: int) -> np.ndarray:
    """Basis permutation from block (O, O') layout to verifier-pair layout.

    Returns an index array perm such that v_interleaved = v_block[perm],
    where the interleaved layout orders qubits (O1, O1', O2, O2', ...).
    """
    if n < 1:
        raise ValueError(f"vertex count must be positive: {n}")
    j = np.arange(1 << (2 * n), dtype=np.int64)
    i = np.zeros_like(j)
    for t in range(n):
        o_bit = (j >> (2 * n - 1 - 2 * t)) & 1
        op_bit = (j >> (2 * n - 2 - 2 * t)) & 1
        i |= o_bit << (2 * n - 1 - t)
        i |= op_bit << (n - 1 - t)
    return i


def phase_aligned_deviation(actual: np.ndarray, reference: np.ndarray) -> float:
    """Max absolute difference after aligning the global phase of ``actual``.

    The phase is fixed on the largest-magnitude entry of ``reference``; when
    either side vanishes there, the raw difference is reported.
    """
    act = np.asarray(actual, dtype=complex).reshape(-1)
    ref = np.asarray(reference, dtype=complex).reshape(-1)
    if act.shape != ref.shape:
        raise ValueError(f"shape mismatch: {act.shape} vs {ref.shape}")
    k = int(np.argmax(np.abs(ref)))
    if abs(ref[k]) == 0.0 or abs(act[k]) == 0.0:
        return float(np.max(np.abs(act - ref)))
    phase = (ref[k] / abs(ref[k])) / (act[k] / abs(act[k]))
    return float(np.max(np.abs(act * phase - ref)))


@dataclass
class DisentangleReport:
    """Outcome of checking the disentangled equations over all codes."""

    max_deviation: float
    forward_max: float
    inverse_max: float
    passed: bool
    tol: float


def check_disentangled_equations(g: Graph, omega: Ket, tol: float = 1e-10) -> DisentangleReport:
    """Verify both disentangled identities for every code a on graph g.

    For each a, the O'-register projection <a| A (|omega> (x) |G>) must equal
    2^(-n/2) L B |omega>, and <a| A (|G> (x) |omega>) must equal
    2^(-n/2) L Q B |omega>, up to global phase. Returns the worst deviation
    over all 2^n codes and both identities. A, B and their products with the
    inputs do not depend on a and are computed once; each code applies only
    its own L and Q.
    """
    n = g.n
    d = 1 << n
    if omega.dim != d:
        raise ValueError(f"work ket dimension {omega.dim} does not match {n} qubits")
    gket = graph_state(g)
    a_op, b_op = _code_free_gates(g)
    # Column a of each (d, d) block is the O'-register projection onto <a|.
    fwd_all = (a_op.entries @ np.kron(omega.amplitudes, gket.amplitudes)).reshape(d, d)
    inv_all = (a_op.entries @ np.kron(gket.amplitudes, omega.amplitudes)).reshape(d, d)
    b_omega = b_op.entries @ omega.amplitudes / np.sqrt(d)
    fwd_max = 0.0
    inv_max = 0.0
    for code_idx in range(d):
        a = GraphCode(format(code_idx, f"0{n}b"))
        l_op, q_op = _code_gates(g, a)
        fwd_rhs = l_op.entries @ b_omega
        fwd_max = max(fwd_max, phase_aligned_deviation(fwd_all[:, code_idx], fwd_rhs))
        inv_rhs = l_op.entries @ (q_op.entries @ b_omega)
        inv_max = max(inv_max, phase_aligned_deviation(inv_all[:, code_idx], inv_rhs))
    worst = max(fwd_max, inv_max)
    return DisentangleReport(worst, fwd_max, inv_max, worst <= tol, tol)


# =====================================================================
# Text format
# =====================================================================


def parse_graph(text: str) -> Graph:
    """Parse the graph text format: first line ``n <N>``, then ``u v`` lines.

    Vertices are 1-indexed. Blank lines are ignored; duplicate edges and
    self-loops are parse errors.
    """
    numbered = [
        (idx, ln.strip()) for idx, ln in enumerate(text.splitlines(), start=1) if ln.strip()
    ]
    if not numbered:
        raise ValueError("empty graph description")
    first_no, first = numbered[0]
    head = first.split()
    if len(head) != 2 or head[0] != "n":
        raise ValueError(f"line {first_no}: first line must be 'n <N>', got {first!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise ValueError(
            f"line {first_no}: vertex count is not an integer: {head[1]!r}"
        ) from None
    edges = []
    for line_no, ln in numbered[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"line {line_no}: edge line must be 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(
                f"line {line_no}: edge endpoints are not integers: {ln!r}"
            ) from None
    return Graph(n, edges)


def load_graph(path: str) -> Graph:
    """Read a graph from a file in the text format of parse_graph."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())
