"""Dense complex linear algebra and quantum primitives.

This module supplies the building blocks used everywhere else in the package:
kets and operators tagged with their tensor-factor dimensions, the Walsh sign
rule (-1)^popcount(i & j), the two-qubit Bell basis, and the orthonormal
complement of a target state. The matrix-free eigensolver has no caller in the
package; it is kept only because the benchmark's tracer names it.

Conventions
-----------
- The leftmost tensor factor is subsystem 1. A basis label (b1, ..., bn) with
  local dimensions (d1, ..., dn) maps to flat index sum_j b_j * prod_{k>j} d_k,
  i.e. ordinary row-major order, so |10> on two qubits is index 2.
- Structural checks (hermiticity, normalization) use fixed absolute
  tolerances of 1e-12 or 1e-10.
- Dense operators are refused above side DENSE_DIM_CAP; past that size the
  matrix-free path is mandatory. dense_power is the one rule for a tensor
  power's size: it refuses one past the cap without forming it.
- Values are treated as immutable after construction and every operation is a
  pure function.
- Tensor sizes are exact integer products, so no product of dims wraps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

DENSE_DIM_CAP = 8192

# Single-qubit constants used across the package.
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
PHASE_S = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)


# =====================================================================
# Domain types
# =====================================================================

@dataclass
class Ket:
    """State vector with explicit tensor-factor dimensions.

    Amplitudes are stored as a flat complex vector of length prod(dims),
    whose norm must be 1 within 1e-12.
    """

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        self.dims = tuple(int(d) for d in self.dims)
        if not self.dims or any(d <= 0 for d in self.dims):
            raise ValueError(f"local dimensions must be positive: {self.dims}")
        expected = math.prod(self.dims)
        if self.amplitudes.size != expected:
            raise ValueError(
                f"amplitude length {self.amplitudes.size} does not match dims {self.dims}"
            )
        norm = float(np.linalg.norm(self.amplitudes))
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"ket is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension."""
        return self.amplitudes.size


@dataclass
class Operator:
    """Square operator with explicit tensor-factor dimensions.

    ``entries`` is the dense row-major matrix. The ``hermitian`` tag is
    verified at construction (max deviation from the adjoint at most 1e-12).
    """

    entries: np.ndarray
    dims: tuple[int, ...]
    hermitian: bool = False

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=complex)
        self.dims = tuple(int(d) for d in self.dims)
        if not self.dims or any(d <= 0 for d in self.dims):
            raise ValueError(f"local dimensions must be positive: {self.dims}")
        side = math.prod(self.dims)
        if self.entries.shape != (side, side):
            raise ValueError(
                f"entries shape {self.entries.shape} does not match dims {self.dims}"
            )
        if side > DENSE_DIM_CAP:
            raise ValueError(
                f"dense operator of side {side} exceeds cap {DENSE_DIM_CAP}; "
                "use a matrix-free form"
            )
        if self.hermitian:
            dev = float(np.max(np.abs(self.entries - self.entries.conj().T)))
            if dev > 1e-12:
                raise ValueError(f"operator tagged hermitian but |A - A^dag| = {dev:.3e}")

    @property
    def dim(self) -> int:
        """Matrix side length."""
        return self.entries.shape[0]


# =====================================================================
# Operations
# =====================================================================

def max_eigenvalue_matfree(
    apply: Callable[[np.ndarray], np.ndarray],
    dim: int,
    tol: float = 1e-9,
    max_iters: int = 5000,
) -> float:
    """Largest eigenvalue of a Hermitian PSD map given only its action.

    Power iteration from a deterministic seeded start. Convergence is declared
    when the residual ||A v - lambda v|| falls below tol * max(1, lambda); the
    Rayleigh quotient is then within tol of an eigenvalue, and for a PSD map
    with a reasonable top gap that eigenvalue is the largest. If a pass stalls
    the iteration restarts from a fresh vector with the stalled direction
    deflated, keeping the best estimate seen. Raises RuntimeError when
    max_iters applications pass without convergence.
    """
    if dim <= 0:
        raise ValueError(f"dimension must be positive: {dim}")
    rng = np.random.default_rng(20240501)
    stalled: list[np.ndarray] = []
    best = 0.0
    used = 0
    per_pass = max(64, max_iters // 3)
    while used < max_iters:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        for w in stalled:
            v = v - w * (w.conj() @ v)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            continue
        v = v / norm
        lam = 0.0
        budget = min(per_pass, max_iters - used)
        for _ in range(budget):
            av = np.asarray(apply(v), dtype=complex).reshape(-1)
            used += 1
            lam = float(np.real(v.conj() @ av))
            resid = float(np.linalg.norm(av - lam * v))
            if resid <= tol * max(1.0, abs(lam)):
                return max(lam, best)
            norm = float(np.linalg.norm(av))
            if norm <= tol:
                # Map annihilates the whole pass subspace; eigenvalue is ~0.
                return max(lam, best)
            v = av / norm
        best = max(best, lam)
        stalled.append(v)
    raise RuntimeError(
        f"power iteration did not converge within {max_iters} applications (best {best:.6e})"
    )


def dense_power(base: int, exponent: int, what: str) -> int:
    """base ** exponent, refused as ``what`` past DENSE_DIM_CAP.

    Every base >= 2 passes the cap once the exponent passes the cap's bit
    length less one, so such an exponent is refused for any base before the
    power is formed; a huge exponent is never raised to or printed.
    """
    if exponent > DENSE_DIM_CAP.bit_length() - 1 or base**exponent > DENSE_DIM_CAP:
        raise ValueError(f"{what} exceeds cap {DENSE_DIM_CAP}")
    return base**exponent


def walsh_signs(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Walsh signs (-1)^popcount(r & c) as floats, broadcast over integer arrays."""
    return 1.0 - 2.0 * (np.bitwise_count(rows & cols) & 1)


def bell_ket(z: int, x: int) -> Ket:
    """Two-qubit Bell state indexed by phase bit z and flip bit x.

    Applies X^x Z^z to the second qubit of the (|00> + |11>)/sqrt(2) pair, so
    (0,0) and (1,1) give the usual symmetric and antisymmetric combinations.
    """
    if z not in (0, 1) or x not in (0, 1):
        raise ValueError(f"bell_ket expects bits, got z={z}, x={x}")
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
    local = np.eye(2, dtype=complex)
    if z:
        local = PAULI_Z @ local
    if x:
        local = PAULI_X @ local
    return Ket(np.kron(np.eye(2, dtype=complex), local) @ phi, (2, 2))


def orthonormal_complement(psi: Ket | np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of a unit vector.

    Returns a (D, D-1) matrix whose columns are orthonormal and orthogonal to
    psi. The construction is deterministic (QR of [psi | identity columns]),
    so repeated calls agree exactly.
    """
    return _complement_columns(psi, None)


def first_complement_vector(psi: Ket | np.ndarray) -> np.ndarray:
    """Column 0 of orthonormal_complement(psi), bit for bit, in O(D) memory.

    That column depends only on the first two Householder reflectors, so the
    QR of [psi | e0] alone reproduces it. Raises ValueError for a dimension-1
    psi, which has no orthogonal direction.
    """
    column = _complement_columns(psi, 1)
    if column.shape[1] == 0:
        raise ValueError("a dimension-1 target has no orthogonal direction")
    return column[:, 0]


def _complement_columns(psi: Ket | np.ndarray, count: int | None) -> np.ndarray:
    """Columns 1..count (all D - 1 for None) of Q in the QR of [psi | identity columns]."""
    vec = psi.amplitudes if isinstance(psi, Ket) else np.asarray(psi, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"complement basis needs a unit vector, |norm - 1| = {abs(norm - 1.0):.3e}")
    width = vec.size - 1 if count is None else count
    stack = np.concatenate([vec[:, None], np.eye(vec.size, width, dtype=complex)], axis=1)
    q, _ = np.linalg.qr(stack)
    return q[:, 1:]
