"""Independent references that only tests read.

Each function states a rule in its slow, literal form, apart from the
vectorized or closed forms in the package: parity codes one code at a time,
the protocol's accept decision as a comparison of codes, the per-verifier
pair order bit by bit, and regrouped tensor powers by listing every product.
Tests check the package against these, and these on hand examples.
"""

import numpy as np

from qsvkit.ghz import GhzSpec
from qsvkit.graphs import Graph, GraphCode
from qsvkit.qcore import DENSE_DIM_CAP


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
