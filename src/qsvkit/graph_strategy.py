"""Two-copy Bell-measurement strategy for graph states.

The accept operator for a graph g collects, for every codeword b, the tensor
product over vertices j of the Bell projector labelled (c_j(b), b_j), where
c is the parity code of g. Measuring each qubit pair (O_j, O_j') in the Bell
basis and accepting when the phase-bit string equals the parity code of the
flip-bit string realizes exactly this operator.

Layout: operators and kets over the doubled space use block register order
(O register then O' register), so the accept operator for b is the rank-1
projector onto 2^(-n/2) sum_u (-1)^(c(b).u) |u>_O |u xor b>_O'.
graphs.interleaved_permutation maps this order to the per-verifier pair order
(O1, O1', O2, O2', ...), where the operator is a sum of tensor products of
local Bell projectors; the locality test in tests/test_graph_strategy.py
checks that.

Matrix-free path: the operator is a sum of 2^n rank-1 projectors onto
orthonormal accept kets K_b. Entry (u, u xor b) of K_b is S[b, u] / sqrt(d)
with the Walsh sign S[b, u] = (-1)^popcount(c(b) & u), and every other entry
is 0. One row-block iterator over (b, S[b, .], u xor b) feeds every consumer,
so applying the operator costs O(4^n) work instead of a 16^n dense multiply,
and every two-copy compression over (target (x) target-perp) is built from
the overlaps <K_b|target (x) v_i>. Every accept ket is swap-symmetric, so the
overlaps with v_i (x) target are the same numbers. Verification bounds all
scalars by one Frobenius norm of those overlaps, streamed in row blocks of
about 2^20 entries in O(4^n) time, with no basis of target-perp and no
eigensolve.

Dense form: construction never builds the dense 4^n x 4^n operator. The
strategy field builds it on first read, as the real product K K^T of the
accept-ket matrix, and is None in matrix-free mode. Construction defaults to
matrix-free from n = 5; unit tests and small graphs read the dense form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, GraphCode, graph_state, parity_accept_indices, parity_code
from .qcore import DENSE_DIM_CAP, Ket, Operator, walsh_signs
from .strategy import Strategy, two_copy_analysis

MATRIX_FREE_DEFAULT_FROM = 5

# Entries per row block of the accept-ket iterator (16 MB of complex128).
_BLOCK_ENTRIES = 1 << 20


# =====================================================================
# Construction
# =====================================================================

@dataclass
class GraphStrategy:
    """Two-copy graph strategy for a graph.

    ``strategy`` holds the dense accept operator (target graph_state(graph),
    copies = 2). It is built on first read and kept, and it is None in
    matrix-free mode (``dense`` false), where the operator is only ever
    applied through apply_omega or compressed through its accept kets.
    """

    graph: Graph
    dense: bool

    @functools.cached_property
    def strategy(self) -> Strategy | None:
        """Dense accept operator, built on first read; None in matrix-free mode."""
        if not self.dense:
            return None
        g = self.graph
        d = 1 << g.n
        cols = np.arange(d, dtype=np.int64)
        # Column b of the real ket matrix is the accept ket K_b.
        kets = np.zeros((d * d, d))
        for b, signs, flips in _accept_rows(g):
            kets[cols * d + flips, b] = signs / np.sqrt(d)
        omega = Operator(kets @ kets.T, (d, d), hermitian=True)
        return Strategy(omega, graph_state(g), copies=2)


def omega_graph(g: Graph, matrix_free: bool | None = None) -> GraphStrategy:
    """Build the two-copy graph strategy for g.

    With matrix_free unset, graphs with n >= 5 skip the dense operator.
    Requesting dense construction past the representation cap is an error,
    raised here even though the dense operator is only built on first read.
    """
    if matrix_free is None:
        matrix_free = g.n >= MATRIX_FREE_DEFAULT_FROM
    d = 1 << g.n
    if not matrix_free and d * d > DENSE_DIM_CAP:
        raise ValueError(
            f"dense two-copy operator side {d * d} exceeds cap {DENSE_DIM_CAP}; "
            "use matrix_free=True"
        )
    return GraphStrategy(g, dense=not matrix_free)


# =====================================================================
# Matrix-free application
# =====================================================================

def _accept_rows(g: Graph):
    """Yield (b, S[b, .], u xor b) in row blocks of about _BLOCK_ENTRIES entries.

    b is a (h, 1) column of codewords, S[b, u] = (-1)^popcount(c(b) & u) the
    (h, d) Walsh signs and u xor b the (h, d) O' indices, so accept ket K_b
    has entry S[b, u] / sqrt(d) at (u, u xor b).
    """
    d = 1 << g.n
    cols = np.arange(d, dtype=np.int64)
    codes = parity_accept_indices(g)
    height = max(1, _BLOCK_ENTRIES // d)
    for start in range(0, d, height):
        b = cols[start:start + height, None]
        yield b, walsh_signs(codes[b], cols), cols ^ b


def _accepted_mass(g: Graph, sigma: np.ndarray, sigma_prime: np.ndarray) -> float:
    """sum_b |<K_b|sigma (x) sigma_prime>|^2, without forming the d x d product."""
    total = 0.0
    for _, signs, flips in _accept_rows(g):
        amps = (signs * sigma * sigma_prime[flips]).sum(axis=1) / np.sqrt(sigma.size)
        total += float(np.vdot(amps, amps).real)
    return total


def apply_omega(gs: GraphStrategy, vec: np.ndarray) -> np.ndarray:
    """Apply the accept operator to a doubled-space vector without densifying.

    Omega v = sum_b <K_b|v> K_b: each block of overlaps is scattered back onto
    the same (u, u xor b) entries it was gathered from, in O(4^n) work.
    """
    d = 1 << gs.graph.n
    cols = np.arange(d, dtype=np.int64)
    v = np.asarray(vec, dtype=complex).reshape(d, d)
    out = np.zeros((d, d), dtype=complex)
    for _, signs, flips in _accept_rows(gs.graph):
        amps = (signs * v[cols, flips]).sum(axis=1, keepdims=True) / d
        out[cols, flips] = signs * amps
    return out.reshape(-1)


# =====================================================================
# Protocol decision and verification
# =====================================================================

def decide_parity_pass(g: Graph, b: GraphCode, b_prime: GraphCode) -> bool:
    """Accept iff the first code equals the parity code of the second.

    The first argument plays the phase-outcome role and the second the
    flip-outcome role: feeding (phase bits, flip bits) makes the decision
    agree with the accept operator for every graph.
    """
    if len(b) != g.n or len(b_prime) != g.n:
        raise ValueError(
            f"codes of length {len(b)}, {len(b_prime)} do not match vertex count {g.n}"
        )
    return b.bits == parity_code(g, b_prime).bits


@dataclass
class GraphOptimalityReport:
    """Residuals certifying that a graph strategy is two-copy optimal.

    The scalars are exact on the "dense" route and certified upper bounds on
    the "matrix_free" route; annihilation_residual is an upper bound on both.
    """

    lambda_star: float
    gamma_star: float
    xi_star: float
    annihilation_residual: float
    passed: bool
    tol: float
    route: str


def _frobenius_certificate(g: Graph, psi: np.ndarray) -> float:
    """F = |R' (I - psi psi^dag)|_F, one bound on every two-copy compression.

    R'[b, u] = (-1)^popcount(c(b) & u) psi[u xor b] / sqrt(d), so with the
    columns v_i of V an orthonormal basis of psi-perp, the overlaps
    A[b, i] = <K_b|v_i (x) psi> form A = R' V, and |A|_F = F. The swap sign
    (-1)^popcount(c(b) & b) is +1 for a simple graph, so A[b, i] =
    <K_b|psi (x) v_i> too, and the lambda, gamma and xi matrices are 2G, G
    and 3G/2 with G = A^dag A: their top eigenvalues are at most 2F^2, F^2
    and 3F^2/2, and each column norm of A (the annihilation residual) is at
    most F. For a graph state row b of R' is psi[b] psi^T, so F vanishes.
    Raises ValueError if a swap sign is -1.
    """
    d = psi.size
    total = 0.0
    for b, signs, flips in _accept_rows(g):
        if np.any(np.take_along_axis(signs, b, axis=1) < 0):
            raise ValueError("an accept ket is swap-antisymmetric; the graph is not simple")
        rows = signs * psi[flips] / np.sqrt(d)
        rows -= np.outer(rows @ psi, psi.conj())
        total += float(np.vdot(rows, rows).real)
    return float(np.sqrt(total))


def verify_graph_optimality(gs: GraphStrategy, tol: float = 1e-9) -> GraphOptimalityReport:
    """Check the three governing scalars vanish and the operator kills P_s P_psi.

    Graphs with n <= 3 and a dense operator take their exact scalars from
    two_copy_analysis (route "dense"). Otherwise (route "matrix_free") the
    scalars are the upper bounds 2F^2, F^2 and 3F^2/2, with F from
    _frobenius_certificate: O(4^n) time for d = 2^n in row blocks, no basis
    of target-perp, no eigensolve. Both routes report F as the annihilation
    residual. Failures are reported, not raised.
    """
    g = gs.graph
    frob = _frobenius_certificate(g, graph_state(g).amplitudes)
    if g.n <= 3 and gs.strategy is not None:
        route = "dense"
        ana = two_copy_analysis(gs.strategy, tol=1e-10)
        lam, gam, xi = ana.lambda_star, ana.gamma_star, ana.xi_star
    else:
        route = "matrix_free"
        top = frob * frob
        lam, gam, xi = 2.0 * top, top, 1.5 * top

    passed = max(lam, gam, xi, frob) <= tol
    return GraphOptimalityReport(lam, gam, xi, frob, passed, tol, route)


# =====================================================================
# Pass probability and fidelity
# =====================================================================

def graph_pass_probability(gs: GraphStrategy, sigma: Ket, sigma_prime: Ket) -> tuple[float, float]:
    """Exact and closed-form pass probability for a product of fake states.

    The exact value sums the accepted Bell-outcome weights. The closed form
    decomposes each input against the target, sigma = sqrt(1 - e) |G> +
    sqrt(e) |perp>, and evaluates (1 - e)(1 - e') + e e' q with q the accept
    weight of the orthogonal parts; for this strategy the two agree exactly,
    which doubles as a consistency check.
    """
    g = gs.graph
    d = 1 << g.n
    for name, ket in (("sigma", sigma), ("sigma_prime", sigma_prime)):
        if ket.dim != d:
            raise ValueError(f"{name} has dimension {ket.dim}, expected {d}")
        norm = float(np.linalg.norm(ket.amplitudes))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"{name} is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")

    exact = _accepted_mass(g, sigma.amplitudes, sigma_prime.amplitudes)

    target = graph_state(g).amplitudes
    eps_r, perp = _split_against_target(sigma.amplitudes, target)
    eps_rp, perp_p = _split_against_target(sigma_prime.amplitudes, target)
    analytic = (1.0 - eps_r) * (1.0 - eps_rp)
    if perp is not None and perp_p is not None:
        analytic += eps_r * eps_rp * _accepted_mass(g, perp, perp_p)
    return exact, analytic


def _split_against_target(vec: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray | None]:
    """Infidelity and normalized orthogonal part of vec against the target.

    Below the 1e-12 residual cutoff the vector counts as exactly on target
    and no orthogonal direction is reported.
    """
    overlap = complex(target.conj() @ vec)
    residual = vec - overlap * target
    rnorm = float(np.linalg.norm(residual))
    if rnorm <= 1e-12:
        return 0.0, None
    eps = min(max(1.0 - abs(overlap) ** 2, 0.0), 1.0)
    return eps, residual / rnorm


def fidelity_from_passrate(p_s: float) -> float:
    """Fidelity estimate from an observed pass rate: its square root."""
    if not 0.0 <= p_s <= 1.0:
        raise ValueError(f"pass rate {p_s} outside [0, 1]")
    return float(np.sqrt(p_s))
