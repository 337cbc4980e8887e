"""Independent references that only tests read.

Each function states a rule in its slow, literal form, apart from the
vectorized or closed forms in the package: parity codes one code at a time,
the protocol's accept decision as a comparison of codes, the per-verifier
pair order bit by bit, regrouped tensor powers by listing every product, the
MUB strategy's tests as sums of Kronecker products one basis vector at a time,
the worst-case oracle's search one run and one sphere problem at a time, the
graph certificate and pass probability over every accept-ket entry, the
parity code table as one matrix product over every bit string, and the
two-copy Bell-outcome table as one dense Hadamard product.
Tests check the package against these, and these on hand examples.
"""

import math

import numpy as np

from qsvkit import montecarlo
from qsvkit.ghz import _MUB_TABLES, GhzSpec
from qsvkit.graphs import Graph, GraphCode, parity_accept_indices
from qsvkit.qcore import DENSE_DIM_CAP, Ket, Operator, orthonormal_complement, walsh_signs
from qsvkit.strategy import Strategy


def parity_code(g: Graph, b: GraphCode) -> GraphCode:
    """Parity code of b: bit u is the mod-2 sum of b over the neighbours of u."""
    if len(b) != g.n:
        raise ValueError(f"code length {len(b)} does not match vertex count {g.n}")
    out = (g.adjacency() @ np.array(b.bits, dtype=np.int64)) % 2
    return GraphCode(out.tolist())


def parity_code_table(g: Graph) -> np.ndarray:
    """c(x) for every index x at once: the (2^n, n) bit table times the adjacency, mod 2."""
    shifts = np.arange(g.n - 1, -1, -1, dtype=np.int64)
    bits = (np.arange(1 << g.n, dtype=np.int64)[:, None] >> shifts) & 1
    return ((bits @ g.adjacency()) % 2) @ (1 << shifts)


def edge_product_signs(g: Graph) -> np.ndarray:
    """(-1)^(sum over edges of b_u b_v) for every index b, read from the (2^n, n) bit table."""
    shifts = np.arange(g.n - 1, -1, -1, dtype=np.int64)
    bits = (np.arange(1 << g.n, dtype=np.int64)[:, None] >> shifts) & 1
    exponent = np.zeros(1 << g.n, dtype=np.int64)
    for u, v in g.edges:
        exponent += bits[:, u - 1] * bits[:, v - 1]
    return np.where(exponent % 2 == 0, 1.0, -1.0)


def decide_parity_pass(g: Graph, b: GraphCode, b_prime: GraphCode) -> bool:
    """Accept iff the phase-outcome code b is the parity code of the flip-outcome code."""
    if len(b) != g.n or len(b_prime) != g.n:
        raise ValueError(
            f"codes of length {len(b)}, {len(b_prime)} do not match vertex count {g.n}"
        )
    return b.bits == parity_code(g, b_prime).bits


def interleaved_permutation(n: int) -> np.ndarray:
    """Index array perm with v_pairs = v_block[perm] on 2n qubits.

    The block layout orders qubits (O1, ..., On, O1', ..., On'), the pair
    layout (O1, O1', O2, O2', ...).
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


def accept_rows(g: Graph):
    """Yield (b, S[b, .], u xor b) in row blocks of about 2^20 entries.

    b is a (h, 1) column of codewords, S[b, u] = (-1)^popcount(c(b) & u) the
    (h, d) Walsh signs of the parity code c(b) read straight off the code
    table, and u xor b the (h, d) O' indices, so accept ket K_b has entry
    S[b, u] / sqrt(d) at (u, u xor b).
    """
    d = 1 << g.n
    cols = np.arange(d, dtype=np.int64)
    codes = parity_accept_indices(g)
    height = max(1, (1 << 20) // d)
    for start in range(0, d, height):
        b = cols[start:start + height, None]
        yield b, walsh_signs(codes[b], cols), cols ^ b


def streamed_accepted_mass(g: Graph, sigma: np.ndarray, sigma_prime: np.ndarray) -> float:
    """sum_b |<K_b|sigma (x) sigma_prime>|^2 over every accept-ket entry, in O(4^n) work."""
    total = 0.0
    for _, signs, flips in accept_rows(g):
        amps = (signs * sigma_prime[flips]) @ sigma
        total += float(np.vdot(amps, amps).real)
    return total / sigma.size


def streamed_frobenius_certificate(g: Graph, psi: np.ndarray) -> float:
    """F = |R' (I - psi psi^dag)|_F with every entry of R' formed, one row block at a time.

    R'[b, u] = (-1)^popcount(c(b) & u) psi[u xor b] / sqrt(d), read off the
    accept-ket row blocks in O(4^n) work; psi may be complex.
    """
    total = 0.0
    for _, signs, flips in accept_rows(g):
        rows = signs * psi[flips]
        rows -= np.outer(rows @ psi, psi.conj())
        total += float(np.vdot(rows, rows).real)
    return float(np.sqrt(total / psi.size))


def bell_table(n: int, matrix: np.ndarray) -> np.ndarray:
    """Bell-outcome table [z, x] = |sum_r H[z, r] P[r, r ^ x]|^2 / d of a (d, d) pair matrix P.

    H is the +-1 Sylvester-Hadamard matrix, built by Kronecker products, and
    the whole d x d product is formed at once.
    """
    d = 1 << n
    hadamard = np.ones((1, 1))
    for _ in range(n):
        hadamard = np.kron(hadamard, [[1.0, 1.0], [1.0, -1.0]])
    rows = np.arange(d)
    return np.abs(hadamard @ matrix[rows[:, None], rows[:, None] ^ rows]) ** 2 / d


def tensor_power_spec(spec: GhzSpec, k: int) -> GhzSpec:
    """Coefficient spec of k regrouped copies: all k-fold products, sorted.

    Its state is the k-fold tensor power of spec's state with each party's k
    qudits regrouped into one d^k qudit.
    """
    if k < 1:
        raise ValueError(f"power must be at least 1: {k}")
    size = spec.d**k
    if size > DENSE_DIM_CAP:
        raise ValueError(f"tensor power dimension {size} exceeds cap {DENSE_DIM_CAP}")
    prods = np.array([1.0])
    for _ in range(k):
        prods = np.kron(prods, spec.coeffs)
    return GhzSpec(spec.n, size, np.sort(prods)[::-1])


def mub_strategy_kron_sum(theta: float) -> Strategy:
    """mub_strategy_d4(theta), each test summed as kron(|u><u|, |v><v|) per basis vector u."""
    c = math.cos(theta)
    s = math.sin(theta)
    coeffs = np.array([c * c, c * s, c * s, s * s])
    psi = np.zeros(16, dtype=complex)
    psi[[0, 5, 10, 15]] = coeffs
    target = Ket(psi, (4, 4))

    p0 = (coeffs[0] ** 2 + coeffs[1] ** 2) / (2.0 + coeffs[0] ** 2 + coeffs[1] ** 2)
    weights = [p0] + [(1.0 - p0) / 4.0] * 4

    decomposition: list[tuple[float, Operator]] = []
    omega = np.zeros((16, 16), dtype=complex)
    for weight, table in zip(weights, _MUB_TABLES):
        first = np.zeros((16, 16), dtype=complex)
        second = np.zeros((16, 16), dtype=complex)
        for u in table:
            reduced = coeffs * u.conj()
            norm = float(np.linalg.norm(reduced))
            if norm <= 1e-12:
                continue
            v = reduced / norm
            pu = np.outer(u, u.conj())
            pv = np.outer(v, v.conj())
            first += np.kron(pu, pv)
            second += np.kron(pv, pu)
        for half in (first, second):
            test = Operator((half + half.conj().T) / 2.0, (4, 4), hermitian=True)
            decomposition.append((weight / 2.0, test))
            omega += (weight / 2.0) * test.entries
    omega = (omega + omega.conj().T) / 2.0
    return Strategy(Operator(omega, (4, 4), hermitian=True), target, 1, decomposition)


def sphere_max(mix: float, quad: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Unit x maximizing mix x'Qx + 2 sqrt(mix(1-mix)) Re(x'c), for one problem."""
    ahat = mix * (quad + quad.conj().T) / 2.0
    chat = math.sqrt(mix * (1.0 - mix)) * cross
    vals, vecs = np.linalg.eigh(ahat)
    beta = vecs.conj().T @ chat
    if float(np.linalg.norm(beta)) <= 1e-14:
        return vecs[:, -1]
    top = vals[-1]
    interior = top - vals > 1e-13 * max(1.0, abs(top))
    tail2 = float(np.sum(np.abs(beta[interior]) ** 2 / (top - vals[interior]) ** 2))
    top_mass = float(np.sum(np.abs(beta[~interior]) ** 2))
    if top_mass <= 1e-28 and tail2 <= 1.0:
        partial = vecs[:, interior] @ (beta[interior] / (top - vals[interior]))
        return partial + math.sqrt(max(1.0 - tail2, 0.0)) * vecs[:, -1]

    def norm2(mu: float) -> float:
        return float(np.sum(np.abs(beta) ** 2 / (mu - vals) ** 2))

    lo = top + max(math.sqrt(top_mass), 1e-300)
    while norm2(lo) < 1.0:
        lo = top + (lo - top) / 2.0
        if lo - top < 1e-280:
            break
    hi = top + float(np.linalg.norm(beta)) + 1e-30
    while norm2(hi) > 1.0:
        hi = top + 2.0 * (hi - top)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if norm2(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    x = vecs @ (beta / (mu - vals))
    return x / float(np.linalg.norm(x))


def alternate(omega4, psi, comp, a, b, x0, y0):
    """One oracle run: alternate sphere maximizations until the objective settles.

    Returns (value, x, y, sweeps, converged).
    """
    x, y = x0, y0
    previous = -np.inf
    for sweep in range(1, montecarlo._ORACLE_MAX_ITERS + 1):
        sigma_p = math.sqrt(1.0 - b) * psi + math.sqrt(b) * (comp @ y)
        m_first = np.einsum("j,ijkl,l->ik", sigma_p.conj(), omega4, sigma_p)
        x = sphere_max(a, comp.conj().T @ m_first @ comp, comp.conj().T @ (m_first @ psi))

        sigma = math.sqrt(1.0 - a) * psi + math.sqrt(a) * (comp @ x)
        m_second = np.einsum("i,ijkl,k->jl", sigma.conj(), omega4, sigma)
        y = sphere_max(b, comp.conj().T @ m_second @ comp, comp.conj().T @ (m_second @ psi))

        sigma_p = math.sqrt(1.0 - b) * psi + math.sqrt(b) * (comp @ y)
        value = float(np.real(sigma_p.conj() @ (m_second @ sigma_p)))
        if abs(value - previous) < montecarlo._ORACLE_TOL:
            return value, x, y, sweep, True
        previous = value
    return previous, x, y, montecarlo._ORACLE_MAX_ITERS, False


def worst_case_search(s: Strategy, epsilon: float) -> tuple[float, float, float, int, bool]:
    """The oracle's grid and starts, one run at a time; ties go to the earliest run.

    Returns the best run's (value, eps_r, eps_r_prime, sweeps, converged).
    """
    d = s.target.dim
    omega4 = s.omega.entries.reshape(d, d, d, d)
    psi = s.target.amplitudes
    comp = orthonormal_complement(s.target)
    grid = np.geomspace(epsilon, montecarlo._ORACLE_PROBE_BOUND, montecarlo._ORACLE_GRID_POINTS)
    pairs = [(epsilon, epsilon)] + [(a, b) for a in grid for b in grid]
    rng = np.random.Generator(np.random.Philox(key=montecarlo._ORACLE_SEED))
    x_starts = montecarlo._random_units(rng, montecarlo._ORACLE_STARTS, comp.shape[1])
    y_starts = montecarlo._random_units(rng, montecarlo._ORACLE_STARTS, comp.shape[1])
    best = (-1.0, None)
    for a, b in pairs:
        for x0, y0 in zip(x_starts, y_starts):
            value, _, _, sweeps, converged = alternate(omega4, psi, comp, a, b, x0, y0)
            if value > best[0]:
                best = (value, (float(a), float(b), sweeps, converged))
    return (best[0], *best[1])
