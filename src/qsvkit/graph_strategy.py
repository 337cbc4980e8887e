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
orthonormal accept kets K_b, so its action on a vector costs one
Walsh-Hadamard-sized matrix product instead of a 16^n dense multiply, and
every two-copy compression over (target (x) target-perp) is built from the
overlaps <K_b|target (x) v_i>. Every accept ket is swap-symmetric, so the
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
from .qcore import DENSE_DIM_CAP, Ket, Operator, hadamard
from .strategy import Strategy, two_copy_analysis

MATRIX_FREE_DEFAULT_FROM = 5

# Entries per row block of the streamed certificate (16 MB of complex128).
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
        rows = np.arange(d, dtype=np.int64)
        # Column b of the real ket matrix is the accept ket for codeword b:
        # entry (u, u xor b) is H[u, c(b)] / sqrt(d).
        kets = np.zeros((d * d, d))
        kets[rows[:, None] * d + (rows[:, None] ^ rows[None, :]), rows[None, :]] = (
            hadamard(d)[:, parity_accept_indices(g)] / np.sqrt(d)
        )
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

def _bell_transform(v: np.ndarray) -> np.ndarray:
    """Bell-outcome amplitudes of a (d, d) doubled-space amplitude matrix.

    Entry [z, x] is the overlap of v with the joint Bell ket whose phase bits
    form z and flip bits form x: an xor gather and one Hadamard product.
    """
    d = v.shape[0]
    rows = np.arange(d, dtype=np.int64)
    return hadamard(d) @ v[rows[:, None], rows[None, :] ^ rows[:, None]] / np.sqrt(d)


def bell_outcome_amplitudes(g: Graph, sigma: Ket, sigma_prime: Ket) -> np.ndarray:
    """Amplitudes of all pairwise Bell outcomes for a product input.

    Entry [z, x] is the overlap of sigma (x) sigma_prime with the joint Bell
    ket whose phase bits form z and flip bits form x (indices in vertex
    order). Squared magnitudes give the full outcome distribution.
    """
    d = 1 << g.n
    if sigma.dim != d or sigma_prime.dim != d:
        raise ValueError(f"inputs must live on {g.n} qubits each")
    return _bell_transform(np.outer(sigma.amplitudes, sigma_prime.amplitudes))


def apply_omega(gs: GraphStrategy, vec: np.ndarray) -> np.ndarray:
    """Apply the accept operator to a doubled-space vector without densifying."""
    d = 1 << gs.graph.n
    rows = np.arange(d, dtype=np.int64)
    c_idx = parity_accept_indices(gs.graph)
    amps = _bell_transform(np.asarray(vec, dtype=complex).reshape(d, d))[c_idx, rows]
    spread = (hadamard(d)[:, c_idx] * amps[None, :]) / np.sqrt(d)
    return spread[rows[:, None], rows[None, :] ^ rows[:, None]].reshape(-1)


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
    cols = np.arange(d, dtype=np.int64)
    codes = parity_accept_indices(g)
    if np.any(np.bitwise_count(codes & cols) & 1):
        raise ValueError("an accept ket is swap-antisymmetric; the graph is not simple")
    height = max(1, _BLOCK_ENTRIES // d)
    total = 0.0
    for start in range(0, d, height):
        b = cols[start:start + height, None]
        signs = 1.0 - 2.0 * (np.bitwise_count(codes[b] & cols) & 1)
        rows = signs * psi[cols ^ b] / np.sqrt(d)
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

    rows = np.arange(d, dtype=np.int64)
    c_idx = parity_accept_indices(g)
    outcome = bell_outcome_amplitudes(g, sigma, sigma_prime)
    exact = float(np.sum(np.abs(outcome[c_idx, rows]) ** 2))

    target = graph_state(g).amplitudes
    eps_r, perp = _split_against_target(sigma.amplitudes, target)
    eps_rp, perp_p = _split_against_target(sigma_prime.amplitudes, target)
    analytic = (1.0 - eps_r) * (1.0 - eps_rp)
    if perp is not None and perp_p is not None:
        perp_out = bell_outcome_amplitudes(g, Ket(perp, sigma.dims), Ket(perp_p, sigma_prime.dims))
        q = float(np.sum(np.abs(perp_out[c_idx, rows]) ** 2))
        analytic += eps_r * eps_rp * q
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
