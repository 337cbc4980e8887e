"""Independent references that only tests read.

Each function states a rule in its slow, literal form, apart from the
vectorized or closed forms in the package: parity codes one code at a time,
the protocol's accept decision as a comparison of codes, the per-verifier
pair order bit by bit, regrouped tensor powers by listing every product, and
the worst-case oracle's search one run and one sphere problem at a time.
Tests check the package against these, and these on hand examples.
"""

import math

import numpy as np

from qsvkit import montecarlo
from qsvkit.ghz import GhzSpec
from qsvkit.graphs import Graph, GraphCode
from qsvkit.qcore import DENSE_DIM_CAP, orthonormal_complement
from qsvkit.strategy import Strategy


def parity_code(g: Graph, b: GraphCode) -> GraphCode:
    """Parity code of b: bit u is the mod-2 sum of b over the neighbours of u."""
    if len(b) != g.n:
        raise ValueError(f"code length {len(b)} does not match vertex count {g.n}")
    out = (g.adjacency() @ np.array(b.bits, dtype=np.int64)) % 2
    return GraphCode(out.tolist())


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
