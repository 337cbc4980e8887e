"""GHZ-like states, dimension expansion, and the bipartite qudit strategy.

A GHZ-like state over n parties of local dimension d is sum_j s_j |j...j>
with nonnegative coefficients sorted descending. Grouping k copies of such a
state as a single state of local dimension d^k stays in the family; the
sample count n_de_k prices verifying k-copy groups with the qudit strategy
whose second-largest eigenvalue is ((n-1)s0^2 + s1^2) / (n + (n-1)s0^2 +
s1^2) in terms of the top two coefficients.

For two qubit pairs per party (d = 4) the concrete strategy is built from
five mutually unbiased bases of the two-qubit space: one party measures a
basis drawn with fixed weights, announces the outcome, and the other party
accepts exactly the matching reduced state. Both parties initiate with equal
probability; the resulting operator fixes the target and has second-largest
eigenvalue cos^2(theta) / (2 + cos^2(theta)). The ten tests (five bases, two
initiating parties) are built together: each is W W' over its columns
u (x) v or v (x) u, one per basis vector u and its reduced state v, and
Omega is their weighted sum.

The sorted coefficients of k regrouped copies are all k-fold products of
the s_j, d^k of them; n_de_k never lists them and evaluates the top two in
closed form (s0^k and s0^(k-1) s1), which is exact for any k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import Ket, Operator, dense_power
from .strategy import ComplexityReport, Strategy, sample_counts

# =====================================================================
# Domain types
# =====================================================================


@dataclass
class GhzSpec:
    """Shape of a GHZ-like state: party count, local dimension, coefficients."""

    n: int
    d: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.n = int(self.n)
        self.d = int(self.d)
        if self.n < 2:
            raise ValueError(f"party count must be at least 2: {self.n}")
        if self.d < 2:
            raise ValueError(f"local dimension must be at least 2: {self.d}")
        self.coeffs = np.asarray(self.coeffs, dtype=float).reshape(-1)
        if self.coeffs.size != self.d:
            raise ValueError(f"{self.coeffs.size} coefficients for local dimension {self.d}")
        if np.any(self.coeffs < 0.0):
            raise ValueError("coefficients must be nonnegative")
        if np.any(np.diff(self.coeffs) > 1e-12):
            raise ValueError("coefficients must be sorted descending")
        total = float(np.sum(self.coeffs**2))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"coefficient square-sum {total} is not 1")


# The five mutually unbiased bases of the two-qubit space, stacked: entry
# [l, k] is vector k of basis l over |00>, |01>, |10>, |11>.
_MUB_TABLES: np.ndarray = np.stack([
    np.eye(4, dtype=complex),
    np.array(
        [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -1, 1, -1]], dtype=complex
    )
    / 2.0,
    np.array(
        [[1, -1, -1j, -1j], [1, -1, 1j, 1j], [1, 1, 1j, -1j], [1, 1, -1j, 1j]],
        dtype=complex,
    )
    / 2.0,
    np.array(
        [[1, -1j, -1j, -1], [1, -1j, 1j, 1], [1, 1j, 1j, -1], [1, 1j, -1j, 1]],
        dtype=complex,
    )
    / 2.0,
    np.array(
        [[1, -1j, -1, -1j], [1, -1j, 1, 1j], [1, 1j, -1, 1j], [1, 1j, 1, -1j]],
        dtype=complex,
    )
    / 2.0,
])


# =====================================================================
# States
# =====================================================================


def ghz_ket(spec: GhzSpec) -> Ket:
    """The GHZ-like state sum_j s_j |j>^(x n) with dims (d,) * n."""
    size = dense_power(spec.d, spec.n, f"GHZ-like state dimension {spec.d}^{spec.n}")
    amps = np.zeros(size, dtype=complex)
    stride = (size - 1) // (spec.d - 1)  # index of |j...j> is j * stride
    for j in range(spec.d):
        amps[j * stride] = spec.coeffs[j]
    return Ket(amps, (spec.d,) * spec.n)


def lambda2_lhz(spec: GhzSpec) -> float:
    """Second-largest eigenvalue of the reference qudit strategy for spec."""
    s0sq = float(spec.coeffs[0]) ** 2
    s1sq = float(spec.coeffs[1]) ** 2
    top = (spec.n - 1) * s0sq + s1sq
    return top / (spec.n + top)


def n_de_k(spec: GhzSpec, k: int, epsilon: float, delta: float) -> ComplexityReport:
    """Sample counts for verifying k-copy groups of a GHZ-like state.

    strategy.sample_counts prices one k-copy group per round, at the
    per-group infidelity 1 - (1 - epsilon)^k; exact_N counts copies. The
    regrouped strategy's second-largest eigenvalue top / (n + top), with
    top = (n-1) s0^(2k) + s0^(2k-2) s1^2, comes in closed form from the top
    two power coefficients s0^k and s0^(k-1) s1, valid for any k without
    materializing the power spec.
    """
    if k < 1:
        raise ValueError(f"power must be at least 1: {k}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon = {epsilon} outside (0, 1)")
    s0 = float(spec.coeffs[0])
    s1 = float(spec.coeffs[1])
    n = spec.n
    top = (n - 1) * s0 ** (2 * k) + s0 ** (2 * k - 2) * s1**2
    eps_group = -math.expm1(k * math.log1p(-epsilon))  # 1 - (1-eps)^k
    return sample_counts(top / (n + top), epsilon, delta, k, eps_group, "dimension_expansion")


# =====================================================================
# The (2, 1, 4) MUB strategy
# =====================================================================


def mub_strategy_d4(theta: float) -> Strategy:
    """Bipartite strategy for the theta family of two-qubit-pair states.

    The target is cos^2(t)|00> + cos(t)sin(t)(|11> + |22>) + sin^2(t)|33>
    over two ququarts. Each round one party (equal weight) measures a basis
    l drawn with weight p0 for the computational basis and (1 - p0)/4 for
    each unbiased basis, and the other party accepts the matching reduced
    state; basis vectors with zero overlap against the target reject
    outright. theta must lie strictly inside (0, pi/4) so the coefficient
    ordering stays non-degenerate. The decomposition lists the ten tests
    basis by basis, the first party's measurement before the second's.
    """
    if not 0.0 < theta < math.pi / 4.0:
        raise ValueError(f"theta = {theta} outside the open interval (0, pi/4)")
    c = math.cos(theta)
    s = math.sin(theta)
    coeffs = np.array([c * c, c * s, c * s, s * s])
    psi = np.zeros(16, dtype=complex)
    psi[[0, 5, 10, 15]] = coeffs
    target = Ket(psi, (4, 4))

    p0 = (coeffs[0] ** 2 + coeffs[1] ** 2) / (2.0 + coeffs[0] ** 2 + coeffs[1] ** 2)
    # Tests 2l and 2l + 1 are basis l measured by the first or the second party.
    weights = np.repeat([p0] + [(1.0 - p0) / 4.0] * 4, 2) / 2.0

    # The reduced state v of each basis vector u; the norm is summed the way
    # np.linalg.norm sums one vector, and a vector without overlap keeps v = 0.
    reduced = coeffs * _MUB_TABLES.conj()
    norm = np.sqrt(np.vecdot(reduced.real, reduced.real) + np.vecdot(reduced.imag, reduced.imag))
    overlaps = norm > 1e-12
    v = np.where(overlaps[..., None], reduced / np.where(overlaps, norm, 1.0)[..., None], 0.0)

    # Column k of test 2l is u_k (x) v_k, of test 2l + 1 v_k (x) u_k; each test
    # is W W' over its columns W, Hermitian as formed: entries [i, j] and
    # [j, i] sum the same products, conjugated, and so does Omega.
    uv = _MUB_TABLES[..., :, None] * v[..., None, :]
    vu = v[..., :, None] * _MUB_TABLES[..., None, :]
    columns = np.stack([uv, vu], axis=1).reshape(10, 4, 16)
    tests = np.einsum("tki,tkj->tij", columns, columns.conj())
    omega = np.sum(weights[:, None, None] * tests, axis=0)
    decomposition = [(w, Operator(t, (4, 4), hermitian=True)) for w, t in zip(weights, tests)]
    return Strategy(Operator(omega, (4, 4), hermitian=True), target, 1, decomposition)
