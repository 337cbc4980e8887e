"""Graph model, parity codes, graph states, and disentangling gates.

A graph here is a simple undirected graph on vertices 1..n. Each binary
string b of length n doubles as a codeword; the graph maps it to its parity
code c(b), whose bit at vertex u is the mod-2 sum of b over the neighbours
of u. The associated graph state is prepared by Hadamards on every vertex
qubit followed by controlled-Z on every edge.

Two-register operators act on 2n qubits in block layout: the first n tensor
factors are the O register (first copy, vertex order), the last n the O'
register (second copy), not the per-verifier pair order (O1, O1', O2, O2',
...). Within gate products the factor order is ascending vertex/edge index;
every product used here commutes internally, so the order only fixes
documentation.

Equality of kets is checked up to global phase (aligned on the largest
reference amplitude), which guards against phase-convention drift between
independently assembled circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .qcore import Ket, Operator, dense_power, walsh_signs

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
# Tables doubled one bit at a time
# =====================================================================


def _adjacency_rows(g: Graph) -> np.ndarray:
    """Each vertex's adjacency row read as a basis index, vertex 1 most significant."""
    return g.adjacency() @ (1 << np.arange(g.n - 1, -1, -1, dtype=np.int64))


def _edge_signs(g: Graph) -> np.ndarray:
    """(-1)^(sum over edges of b_u b_v) for every basis index, in O(2^n) work and memory.

    Index 2^p sets vertex n - p alone, so for x < 2^p the sign of x + 2^p is
    that of x times (-1)^popcount(x & row), row that vertex's adjacency row.
    """
    rows = _adjacency_rows(g)
    low = np.arange(1 << (g.n - 1), dtype=np.int64)
    signs = np.ones(1 << g.n)
    for p in range(g.n):
        added = walsh_signs(low[: 1 << p], rows[g.n - 1 - p])
        np.multiply(signs[: 1 << p], added, out=signs[1 << p : 2 << p])
    return signs


def _hadamard_layer(n: int) -> np.ndarray:
    """Hadamard on each of n qubits: the (2^n, 2^n) Walsh signs over sqrt(2^n)."""
    idx = np.arange(1 << n, dtype=np.int64)
    return walsh_signs(idx[:, None], idx[None, :]) / np.sqrt(1 << n)


# =====================================================================
# Operations
# =====================================================================


def parity_accept_indices(g: Graph) -> np.ndarray:
    """For every flip-string index x, the accepted phase-string index c(x).

    c is linear over GF(2). Index 2^p flips vertex n - p alone, so c(2^p) is
    that vertex's adjacency row read as an index, and the table doubles one
    bit at a time: c(x + 2^p) = c(x) xor c(2^p) for x < 2^p, O(2^n) work.
    """
    rows = _adjacency_rows(g)
    codes = np.zeros(1 << g.n, dtype=np.int64)
    for p in range(g.n):
        np.bitwise_xor(codes[: 1 << p], rows[g.n - 1 - p], out=codes[1 << p : 2 << p])
    return codes


def graph_state(g: Graph) -> Ket:
    """Graph state of g: CZ on every edge applied to the uniform |+...+> state.

    The amplitude of |b> is (-1)^(sum over edges of b_u b_v) / sqrt(2^n).
    """
    d = dense_power(2, g.n, f"graph state on {g.n} vertices: dimension 2^{g.n}")
    amps = _edge_signs(g).astype(complex) / np.sqrt(d)
    return Ket(amps, (2,) * g.n)


def disentangle_operators(g: Graph, a: GraphCode) -> tuple[Operator, Operator, Operator, Operator]:
    """Gate family that disentangles a graph-state copy against a work register.

    Returns (A, L, B, Q):

    - A acts on 2n qubits in block (O, O') layout: controlled-X from each O_i
      onto O_i', then Hadamard on each O_i.
    - L acts on the n-qubit O register: the edge product of
      (-1)^(a_m a_n) X_m^(a_n) X_n^(a_m), which equals the parity-code X layer
      X^(c(a)) times the edge sign of a.
    - B acts on the O register: CZ on every edge, then a Hadamard layer. It
      maps the graph state to |0...0>.
    - Q acts on the O register: Z_i^(a_i) on every vertex.

    Only L and Q depend on the code a.
    """
    if len(a) != g.n:
        raise ValueError(f"code length {len(a)} does not match vertex count {g.n}")
    dense_power(4, g.n, f"dense two-register operator side 4^{g.n}")
    d = 1 << g.n
    x = np.arange(d, dtype=np.int64)
    h = _hadamard_layer(g.n)
    e = _edge_signs(g)
    code = a.index()

    # A: permutation |i, j> -> |i, j xor i> followed by Hadamards on O, so
    # column i*d + j of A is column i*d + (j xor i) of H (x) I.
    a_op = np.kron(h, np.eye(d))[:, (x[:, None] * d + (x[None, :] ^ x[:, None])).ravel()]
    l_op = np.zeros((d, d))
    l_op[x ^ parity_accept_indices(g)[code], x] = e[code]
    return (
        Operator(a_op, (2,) * (2 * g.n)),
        Operator(l_op, (2,) * g.n, hermitian=True),
        Operator(h * e[None, :], (2,) * g.n),
        Operator(np.diag(walsh_signs(code, x)), (2,) * g.n, hermitian=True),
    )


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
    over all 2^n codes and both identities. All codes are checked at once on
    (2^n, 2^n) arrays, column a for code a, each gate applied by its index
    rule: A is an xor gather then the Hadamard layer, L is the edge sign of a
    times the shift y -> y xor c(a), and Q is the Walsh sign of a.
    """
    n = g.n
    if omega.dim != 1 << n:
        raise ValueError(f"work ket dimension {omega.dim} does not match {n} qubits")
    dense_power(4, n, f"dense two-register operator side 4^{n}")
    d = 1 << n
    x = np.arange(d, dtype=np.int64)[:, None]
    h = _hadamard_layer(n)
    e = _edge_signs(g)
    c = parity_accept_indices(g)
    w = omega.amplitudes
    gket = graph_state(g).amplitudes
    fwd_lhs = h @ (w[:, None] * gket[x ^ x.T])
    inv_lhs = h @ (gket[:, None] * w[x ^ x.T])
    shifted = x ^ c[None, :]
    fwd_rhs = e[None, :] * (h @ (e * w) / np.sqrt(d))[shifted]
    inv_rhs = fwd_rhs * walsh_signs(x.T, shifted)
    fwd_max = max(phase_aligned_deviation(fwd_lhs[:, a], fwd_rhs[:, a]) for a in range(d))
    inv_max = max(phase_aligned_deviation(inv_lhs[:, a], inv_rhs[:, a]) for a in range(d))
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
