"""Two-copy Bell-measurement strategy for graph states.

The accept operator for a graph g collects, for every codeword b, the tensor
product over vertices j of the Bell projector labelled (c_j(b), b_j), where
c is the parity code of g. Measuring each qubit pair (O_j, O_j') in the Bell
basis and accepting when the phase-bit string equals the parity code of the
flip-bit string realizes exactly this operator.

Layout: operators and kets over the doubled space use block register order
(O register then O' register), so the accept operator for b is the rank-1
projector onto 2^(-n/2) sum_u (-1)^(c(b).u) |u>_O |u xor b>_O'. The
``layout`` field of GraphStrategy carries the basis permutation to the
per-verifier pair order (see graphs.interleaved_permutation).

Matrix-free path: the operator is a sum of 2^n rank-1 projectors onto
orthonormal accept kets K_b, so its action on a vector costs one
Walsh-Hadamard-sized matrix product instead of a 16^n dense multiply, and
every two-copy compression over (target (x) target-perp) is a small Gram
matrix of the overlaps <K_b|target (x) v_i> and <K_b|v_i (x) target>.
Verification builds those overlaps with one 2^n x 2^n product and reads all
scalars off them in O(8^n) work. Construction defaults to matrix-free from
n = 5 and leaves the dense operator out of the strategy field in that mode;
unit tests and small graphs use the dense form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import hadamard

from .graphs import Graph, GraphCode, graph_state, interleaved_permutation, parity_code
from .qcore import (
    DENSE_DIM_CAP,
    Ket,
    Operator,
    orthonormal_complement,
)
from .strategy import Strategy, two_copy_analysis

MATRIX_FREE_DEFAULT_FROM = 5


# =====================================================================
# Construction
# =====================================================================

@dataclass
class GraphStrategy:
    """Two-copy graph strategy with its register-layout permutation.

    ``strategy`` holds the dense accept operator (target graph_state(graph),
    copies = 2) and is None in matrix-free mode, where the operator is only
    ever applied through apply_omega or compressed through its accept kets.
    """

    graph: Graph
    strategy: Strategy | None
    layout: np.ndarray


def parity_accept_indices(g: Graph) -> np.ndarray:
    """For every flip-string index x, the accepted phase-string index c(x)."""
    n = g.n
    idx = np.arange(1 << n, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    bits = (idx[:, None] >> shifts[None, :]) & 1
    parities = (bits @ g.adjacency()) % 2
    return parities @ (1 << shifts)


def omega_graph(g: Graph, matrix_free: bool | None = None) -> GraphStrategy:
    """Build the two-copy graph strategy for g.

    With matrix_free unset, graphs with n >= 5 skip the dense operator.
    Requesting dense construction past the representation cap is an error.
    """
    if matrix_free is None:
        matrix_free = g.n >= MATRIX_FREE_DEFAULT_FROM
    layout = interleaved_permutation(g.n)
    if matrix_free:
        return GraphStrategy(g, None, layout)
    d = 1 << g.n
    if d * d > DENSE_DIM_CAP:
        raise ValueError(
            f"dense two-copy operator side {d * d} exceeds cap {DENSE_DIM_CAP}; "
            "use matrix_free=True"
        )
    had = hadamard(d, dtype=float)
    c_idx = parity_accept_indices(g)
    rows = np.arange(d, dtype=np.int64)
    # Column b of the ket matrix is the accept ket for codeword b.
    kets = np.zeros((d * d, d), dtype=complex)
    for b in range(d):
        kets[rows * d + (rows ^ b), b] = had[:, c_idx[b]] / np.sqrt(d)
    omega = kets @ kets.conj().T
    omega = (omega + omega.conj().T) / 2.0
    strat = Strategy(Operator(omega, (d, d), hermitian=True), graph_state(g), copies=2)
    return GraphStrategy(g, strat, layout)


# =====================================================================
# Matrix-free application
# =====================================================================

def bell_outcome_amplitudes(g: Graph, sigma: Ket, sigma_prime: Ket) -> np.ndarray:
    """Amplitudes of all pairwise Bell outcomes for a product input.

    Entry [z, x] is the overlap of sigma (x) sigma_prime with the joint Bell
    ket whose phase bits form z and flip bits form x (indices in vertex
    order). Squared magnitudes give the full outcome distribution.
    """
    d = 1 << g.n
    if sigma.dim != d or sigma_prime.dim != d:
        raise ValueError(f"inputs must live on {g.n} qubits each")
    v = np.outer(sigma.amplitudes, sigma_prime.amplitudes)
    rows = np.arange(d, dtype=np.int64)
    gathered = v[rows[:, None], rows[None, :] ^ rows[:, None]]
    return hadamard(d, dtype=float) @ gathered / np.sqrt(d)


def apply_omega(gs: GraphStrategy, vec: np.ndarray) -> np.ndarray:
    """Apply the accept operator to a doubled-space vector without densifying."""
    n = gs.graph.n
    d = 1 << n
    v = np.asarray(vec, dtype=complex).reshape(d, d)
    rows = np.arange(d, dtype=np.int64)
    xor = rows[None, :] ^ rows[:, None]
    gathered = v[rows[:, None], xor]
    had = hadamard(d, dtype=float)
    c_idx = parity_accept_indices(gs.graph)
    amps = (had @ gathered)[c_idx, rows] / np.sqrt(d)
    spread = (had[:, c_idx] * amps[None, :]) / np.sqrt(d)
    return spread[rows[:, None], xor].reshape(-1)


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
    """Residuals certifying that a graph strategy is two-copy optimal."""

    lambda_star: float
    gamma_star: float
    xi_star: float
    annihilation_residual: float
    passed: bool
    tol: float
    route: str


def _gram_compressions(g: Graph, psi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Two-copy compressions of the accept operator as small Gram matrices.

    With v_i the columns of orthonormal_complement(psi) and K_b the
    orthonormal accept kets, A[b, i] = <K_b|psi (x) v_i> and
    A'[b, i] = <K_b|v_i (x) psi>. Since omega = sum_b |K_b><K_b|, the
    lambda, gamma and xi matrices are (A + A')^dag (A + A') / 2, A'^dag A and
    gamma / 2 + A^dag A, and |omega P_s (psi (x) v_i)| is the norm of column i
    of (A + A') / 2. Returns those three matrices and the column norms.

    A' = R' comp with R'[b, u] = H[c(b), u] psi[u xor b] / sqrt(d), and
    H[c, w xor b] = H[c, w] H[c, b] turns A = R comp into A = diag(H[c(b), b]) A'.
    """
    d = psi.size
    rows = np.arange(d, dtype=np.int64)
    had_c = hadamard(d, dtype=float)[parity_accept_indices(g)]
    a_swap = (had_c * psi[rows[:, None] ^ rows[None, :]] / np.sqrt(d)) @ orthonormal_complement(psi)
    a = had_c[rows, rows][:, None] * a_swap
    half_sum = (a + a_swap) / 2.0
    lam_mat = 2.0 * half_sum.conj().T @ half_sum
    gam_mat = a_swap.conj().T @ a
    xi_mat = gam_mat / 2.0 + a.conj().T @ a
    return lam_mat, gam_mat, xi_mat, np.linalg.norm(half_sum, axis=0)


def verify_graph_optimality(gs: GraphStrategy, tol: float = 1e-9) -> GraphOptimalityReport:
    """Check the three governing scalars vanish and the operator kills P_s P_psi.

    Graphs with n <= 3 and a dense operator take their scalars from
    two_copy_analysis (route "dense"). Otherwise (route "matrix_free") each
    scalar is the top eigenvalue of the Hermitian part of its Gram matrix
    from _gram_compressions, clamped at 0: O(d^3) work for d = 2^n, with no
    operator application. Both routes report the largest column norm of
    omega applied to the symmetrized (target (x) target-perp) basis, read off
    the same Gram factors. Failures are reported, not raised.
    """
    g = gs.graph
    lam_mat, gam_mat, xi_mat, resid_cols = _gram_compressions(g, graph_state(g).amplitudes)
    resid = float(np.max(resid_cols))
    if g.n <= 3 and gs.strategy is not None:
        route = "dense"
        ana = two_copy_analysis(gs.strategy, tol=1e-10)
        lam, gam, xi = ana.lambda_star, ana.gamma_star, ana.xi_star
    else:
        route = "matrix_free"
        lam, gam, xi = (
            max(0.0, float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[-1]))
            for m in (lam_mat, gam_mat, xi_mat)
        )

    passed = max(lam, gam, xi, resid) <= tol
    return GraphOptimalityReport(lam, gam, xi, resid, passed, tol, route)


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
