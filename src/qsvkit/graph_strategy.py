"""Two-copy Bell-measurement strategy for graph states.

The accept operator for a graph g collects, for every codeword b, the tensor
product over vertices j of the Bell projector labelled (c_j(b), b_j), where
c is the parity code of g. Measuring each qubit pair (O_j, O_j') in the Bell
basis and accepting when the phase-bit string equals the parity code of the
flip-bit string realizes exactly this operator.

Layout: operators and kets over the doubled space use block register order
(O register then O' register), so the accept operator for b is the rank-1
projector onto 2^(-n/2) sum_u (-1)^(c(b).u) |u>_O |u xor b>_O'. In the
per-verifier pair order (O1, O1', O2, O2', ...) the operator is a sum of
tensor products of local Bell projectors; the locality test in
tests/test_graph_strategy.py checks that through a bit-by-bit reorder.

One representation: the paper's disentangling circuit B = H^(x)n CZ_E is the
real orthogonal W = S D_Gamma / sqrt(d), with S the n-bit Walsh signs and
D_Gamma read off the code table's linear map Gamma by _frame_signs, whose
checks therefore guard every consumer. The rows w_v of W are the graph basis
Z^v|G> up to sign, and the operator is Omega = sum_v (w_v (x) w_v)(w_v (x)
w_v)^T. _frame_amplitudes applies W to a stack of vectors in O(2^(1.5 n))
work each. The dense form is K K^T with columns w_v (x) w_v; the pass
probability of sigma (x) sigma' is sum_v |(W sigma)_v|^2 |(W sigma')_v|^2;
the optimality certificate bounds every two-copy scalar by one Frobenius
norm, read off the even and odd parity sums of (W psi)^2; apply_omega
scatters the accept kets in row blocks, in O(4^n) work.

Dense form: construction never builds the dense 4^n x 4^n operator, and is
matrix-free unless a caller asks for the dense form. Then the strategy field
builds it on first read; it is None in matrix-free mode.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, graph_state, parity_accept_indices
from .qcore import Ket, Operator, dense_power, walsh_signs
from .strategy import Strategy, two_copy_analysis

OPTIMALITY_TOL = 1e-9  # verify_graph_optimality's bound on each scalar and the residual

# Entries per row block of apply_omega (8 MB per float64 array).
_BLOCK_ENTRIES = 1 << 20


# =====================================================================
# The disentangling frame
# =====================================================================

@functools.lru_cache(maxsize=8)
def _half_factors(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Walsh signs S of k index bits and the stacked parity matrices [(1 + S)/2; (1 - S)/2].

    Row b of (1 + S)/2 marks the v with b.v even, of (1 - S)/2 those with b.v
    odd. Both are symmetric, so the transpose of the stack is [even | odd].
    Read-only; a graph state on at most 13 vertices needs k <= 7, eight sizes
    under 0.5 MB in all.
    """
    idx = np.arange(1 << k, dtype=np.int64)
    walsh = walsh_signs(idx[:, None], idx)
    parity = np.concatenate(((1.0 + walsh) / 2.0, (1.0 - walsh) / 2.0))
    walsh.flags.writeable = parity.flags.writeable = False
    return walsh, parity


def _frame_signs(g: Graph) -> np.ndarray:
    """D_Gamma[u] = (-1)^(sum_{i<j} Gamma_ij u_i u_j) for the linear map Gamma of g's code table.

    The one reader of parity_accept_indices in this module. Gamma is read off
    the table at the unit flips and checked in O(n 2^n): zero diagonal (every
    accept ket swap-symmetric), symmetric, and c(b) = Gamma b for every b.
    The exponent is the parity of u & U u, where U is the part of Gamma above
    the diagonal, summed over the bits of u as c is in the linearity check.
    The signs come from the code table alone, never from the target, so a
    wrong target cannot certify itself. Raises ValueError if a check fails.
    """
    codes = parity_accept_indices(g)
    bits = np.arange(g.n, dtype=np.int64)
    units = codes[1 << bits]
    gamma = (units >> bits[:, None]) & 1
    if gamma.diagonal().any():
        raise ValueError("an accept ket is swap-antisymmetric; the graph is not simple")
    if (gamma != gamma.T).any():
        raise ValueError("the parity code table is not a symmetric map")
    idx = np.arange(codes.size, dtype=np.int64)
    on = (idx[:, None] >> bits) & 1
    if (np.bitwise_xor.reduce(on * units, axis=1) != codes).any():
        raise ValueError("the parity code table is not linear")
    upper = np.bitwise_xor.reduce(on * (units & ((1 << bits) - 1)), axis=1)
    return walsh_signs(idx, upper)


def _frame_amplitudes(g: Graph, x: np.ndarray) -> np.ndarray:
    """sqrt(d) W x for each length-d row of x, shaped (..., hi, lo) over the index's halves.

    Applies D_Gamma, then the Walsh matrices of the high and low index bits
    on either side of each (hi, lo) reshape. Raises ValueError if the code
    table fails a check of _frame_signs.
    """
    walsh_hi, _ = _half_factors(g.n - g.n // 2)
    walsh_lo, _ = _half_factors(g.n // 2)
    halves = (*x.shape[:-1], len(walsh_hi), len(walsh_lo))
    return walsh_hi @ (_frame_signs(g) * x).reshape(halves) @ walsh_lo


# =====================================================================
# Construction
# =====================================================================

@dataclass
class GraphStrategy:
    """Two-copy graph strategy for a graph.

    ``strategy`` holds the dense accept operator (target graph_state(graph),
    copies = 2) when ``dense`` is set. It is built on first read and kept. It
    is None in matrix-free mode, the default, where the operator is only ever
    applied through apply_omega or read through _frame_amplitudes.
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
        # frame = sqrt(d) W^T, so column v of the ket matrix is w_v (x) w_v.
        frame = _frame_amplitudes(g, np.eye(d)).reshape(d, d)
        kets = (frame[:, None, :] * frame[None, :, :]).reshape(d * d, d) / d
        omega = Operator(kets @ kets.T, (d, d), hermitian=True)
        return Strategy(omega, graph_state(g), copies=2)


def omega_graph(g: Graph, matrix_free: bool = True) -> GraphStrategy:
    """Build the two-copy graph strategy for g, matrix-free at every n.

    matrix_free=False asks for the dense operator. Asking for it past the
    representation cap is an error, raised here even though the dense
    operator is only built on first read.
    """
    if not matrix_free:
        dense_power(4, g.n, f"dense two-copy operator on {g.n} vertices: side 4^{g.n}")
    return GraphStrategy(g, dense=not matrix_free)


# =====================================================================
# Matrix-free application
# =====================================================================

def apply_omega(gs: GraphStrategy, vec: np.ndarray) -> np.ndarray:
    """Apply the accept operator to a doubled-space vector without densifying.

    Omega v = sum_b <K_b|v> K_b, where K_b has entry D_Gamma[u] D_Gamma[u xor
    b] / sqrt(d) at (u, u xor b): (-1)^(c(b).u) up to a sign of b alone. Each
    row block of b is gathered and scattered back on the same entries.
    """
    d = 1 << gs.graph.n
    cols = np.arange(d, dtype=np.int64)
    frame = _frame_signs(gs.graph)
    v = np.asarray(vec, dtype=complex).reshape(d, d)
    out = np.zeros((d, d), dtype=complex)
    height = max(1, _BLOCK_ENTRIES // d)
    for start in range(0, d, height):
        flips = cols ^ cols[start:start + height, None]
        signs = frame * frame[flips]
        amps = (signs * v[cols, flips]).sum(axis=1, keepdims=True) / d
        out[cols, flips] = signs * amps
    return out.reshape(-1)


# =====================================================================
# Verification
# =====================================================================

@dataclass
class GraphOptimalityReport:
    """Residuals certifying that a graph strategy is two-copy optimal.

    The scalars are exact on the "dense" route and certified upper bounds on
    the "matrix_free" route; annihilation_residual is an upper bound on both.
    Every bound comes from the Frobenius certificate F, computed in the
    frame of the disentangling circuit B from the even/odd parity sums of
    the squared amplitudes of B psi.
    """

    lambda_star: float
    gamma_star: float
    xi_star: float
    annihilation_residual: float
    passed: bool
    route: str


def _frobenius_certificate(g: Graph, psi: np.ndarray) -> float:
    """F = |R' (I - psi psi^T)|_F, one bound on every two-copy compression.

    R'[b, u] = (-1)^popcount(c(b) & u) psi[u xor b] / sqrt(d), so with the
    columns v_i of V an orthonormal basis of psi-perp, the overlaps
    A[b, i] = <K_b|v_i (x) psi> form A = R' V, and |A|_F = F. The swap sign
    (-1)^popcount(c(b) & b) is +1 for a simple graph, so A[b, i] =
    <K_b|psi (x) v_i> too, and the lambda, gamma and xi matrices are 2G, G
    and 3G/2 with G = A^T A: their top eigenvalues are at most 2F^2, F^2
    and 3F^2/2, and each column norm of A (the annihilation residual) is at
    most F. For a graph state row b of R' is psi[b] psi^T, so F vanishes.

    Row b of sqrt(d) R' is Z^(Gamma b) X^b psi, so its squared residual is
    1 - <psi|Z^(Gamma b) X^b|psi>^2 for a real unit psi. The disentangling
    circuit B = H^(x)n CZ_E, here W = S D_Gamma / sqrt(d) with S the n-bit
    Walsh signs and D_Gamma from _frame_signs, is real orthogonal and maps
    every such stabilizer to +-Z^b. With phi = W psi and a = phi^2, the
    expectation is E_b - O_b, where E_b sums a over the v with b.v even and
    O_b over those with b.v odd, and E_b + O_b = 1. So F^2 = (4/d) sum_b
    E_b O_b. W is applied by _frame_amplitudes, and E and O come from two
    products with the index halves' stacked even/odd parity matrices:
    O(2^(1.5 n)) work, and no accept-ket entry is formed. Every sum in E
    and O is of non-negative terms, so F keeps its absolute precision near
    0, where 1 - (E_b - O_b)^2 would cancel.

    Raises ValueError if psi has an imaginary part (every graph state is
    real) or if the code table fails a check of _frame_signs.
    """
    if np.imag(psi).any():
        raise ValueError("the certificate takes a real target; psi has an imaginary part")
    psi = np.real(psi)
    _, parity_hi = _half_factors(g.n - g.n // 2)
    _, parity_lo = _half_factors(g.n // 2)
    # amp = sqrt(d) W psi, so E and O below come out scaled by d.
    amp = _frame_amplitudes(g, psi)
    hi, lo = amp.shape
    split = parity_hi @ (amp * amp) @ parity_lo.T
    even = split[:hi, :lo] + split[hi:, lo:]
    odd = split[:hi, lo:] + split[hi:, :lo]
    return float(np.sqrt(4.0 * np.vdot(even, odd)) / psi.size ** 1.5)


def verify_graph_optimality(gs: GraphStrategy) -> GraphOptimalityReport:
    """Check the three governing scalars vanish and the operator kills P_s P_psi.

    Graphs with n <= 3 and a dense operator take their exact scalars from
    two_copy_analysis (route "dense"). Otherwise (route "matrix_free") the
    scalars are the upper bounds 2F^2, F^2 and 3F^2/2, with F from
    _frobenius_certificate in O(2^(1.5 n)) real arithmetic, with no basis of
    target-perp and no eigensolve. Both routes report F as the annihilation
    residual. Failures are reported, not raised.
    """
    g = gs.graph
    frob = _frobenius_certificate(g, graph_state(g).amplitudes)
    if g.n <= 3 and gs.strategy is not None:
        route = "dense"
        ana = two_copy_analysis(gs.strategy)
        lam, gam, xi = ana.lambda_star, ana.gamma_star, ana.xi_star
    else:
        route = "matrix_free"
        top = frob * frob
        lam, gam, xi = 2.0 * top, top, 1.5 * top

    passed = max(lam, gam, xi, frob) <= OPTIMALITY_TOL
    return GraphOptimalityReport(lam, gam, xi, frob, passed, route)


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

    exact = _accepted_mass(g, sigma.amplitudes, sigma_prime.amplitudes)

    target = graph_state(g).amplitudes
    eps_r, perp = _split_against_target(sigma.amplitudes, target)
    eps_rp, perp_p = _split_against_target(sigma_prime.amplitudes, target)
    analytic = (1.0 - eps_r) * (1.0 - eps_rp)
    if perp is not None and perp_p is not None:
        analytic += eps_r * eps_rp * _accepted_mass(g, perp, perp_p)
    return exact, analytic


def _accepted_mass(g: Graph, sigma: np.ndarray, sigma_prime: np.ndarray) -> float:
    """<sigma (x) sigma'|Omega|sigma (x) sigma'> = sum_v |<w_v|sigma>|^2 |<w_v|sigma'>|^2."""
    amps = np.abs(_frame_amplitudes(g, np.stack((sigma, sigma_prime)))) ** 2
    return float(np.vdot(amps[0], amps[1])) / sigma.size**2


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
