"""Dense complex linear algebra and quantum primitives.

This module supplies the building blocks used everywhere else in the package:
kets and operators tagged with their tensor-factor dimensions, Kronecker
products, Hermitian spectra, a matrix-free extremal eigenvalue solver, the
+-1 Hadamard matrices, the two-qubit Bell basis, and the swap /
symmetric-subspace / target projectors needed by the two-copy analysis.

Conventions
-----------
- The leftmost tensor factor is subsystem 1. A basis label (b1, ..., bn) with
  local dimensions (d1, ..., dn) maps to flat index sum_j b_j * prod_{k>j} d_k,
  i.e. ordinary row-major order, so |10> on two qubits is index 2.
- Structural checks (hermiticity, normalization, factored-form consistency)
  use an absolute tolerance of 1e-10 unless the caller overrides it.
- Dense operators are refused above side DENSE_DIM_CAP unless force_dense is
  set; past that size the matrix-free path is mandatory.
- Values are treated as immutable after construction and every operation is a
  pure function, so everything here is safe to share across workers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

DEFAULT_TOL = 1e-10
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

    Amplitudes are stored as a flat complex vector of length prod(dims).
    When ``normalized`` is set (the default) the norm must be 1 within 1e-12.
    """

    amplitudes: np.ndarray
    dims: tuple[int, ...]
    normalized: bool = True

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        self.dims = tuple(int(d) for d in self.dims)
        if not self.dims or any(d <= 0 for d in self.dims):
            raise ValueError(f"local dimensions must be positive: {self.dims}")
        expected = int(np.prod(self.dims))
        if self.amplitudes.size != expected:
            raise ValueError(
                f"amplitude length {self.amplitudes.size} does not match dims {self.dims}"
            )
        if self.normalized:
            norm = float(np.linalg.norm(self.amplitudes))
            if abs(norm - 1.0) > 1e-12:
                raise ValueError(f"ket tagged normalized but |norm - 1| = {abs(norm - 1.0):.3e}")

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension."""
        return self.amplitudes.size


@dataclass
class Operator:
    """Square operator with explicit tensor-factor dimensions.

    ``entries`` is the dense row-major matrix. The ``hermitian`` tag is
    verified at construction (max deviation from the adjoint at most 1e-12).
    ``factored_form`` optionally records the operator as
    sum_k weight_k * kron(*factors_k); it is kept lazily and only compared
    against ``entries`` when check_factored_form is called.
    """

    entries: np.ndarray
    dims: tuple[int, ...]
    hermitian: bool = False
    factored_form: list[tuple[float, list[np.ndarray]]] | None = None
    force_dense: bool = False

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=complex)
        self.dims = tuple(int(d) for d in self.dims)
        if not self.dims or any(d <= 0 for d in self.dims):
            raise ValueError(f"local dimensions must be positive: {self.dims}")
        side = int(np.prod(self.dims))
        if self.entries.shape != (side, side):
            raise ValueError(
                f"entries shape {self.entries.shape} does not match dims {self.dims}"
            )
        if side > DENSE_DIM_CAP and not self.force_dense:
            raise ValueError(
                f"dense operator of side {side} exceeds cap {DENSE_DIM_CAP}; "
                "use a matrix-free form or set force_dense"
            )
        if self.hermitian:
            dev = float(np.max(np.abs(self.entries - self.entries.conj().T)))
            if dev > 1e-12:
                raise ValueError(f"operator tagged hermitian but |A - A^dag| = {dev:.3e}")

    @property
    def dim(self) -> int:
        """Matrix side length."""
        return self.entries.shape[0]

    def check_factored_form(self, tol: float = DEFAULT_TOL) -> float:
        """Expand factored_form densely and compare with entries.

        Returns the max absolute deviation; raises ValueError when the form is
        missing or the deviation exceeds tol.
        """
        if self.factored_form is None:
            raise ValueError("operator has no factored_form to check")
        dense = np.zeros_like(self.entries)
        for weight, factors in self.factored_form:
            term = np.asarray(factors[0], dtype=complex)
            for fac in factors[1:]:
                term = np.kron(term, np.asarray(fac, dtype=complex))
            dense = dense + weight * term
        dev = float(np.max(np.abs(dense - self.entries)))
        if dev > tol:
            raise ValueError(f"factored_form deviates from entries by {dev:.3e} > {tol:.1e}")
        return dev


@dataclass
class Spectrum:
    """Real eigenvalues sorted descending, with optional eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float).reshape(-1)
        if np.any(np.diff(self.eigenvalues) > 1e-10):
            raise ValueError("eigenvalues must be sorted in descending order")
        if self.eigenvectors is not None:
            self.eigenvectors = np.asarray(self.eigenvectors, dtype=complex)
            if self.eigenvectors.shape != (self.eigenvalues.size, self.eigenvalues.size):
                raise ValueError("eigenvector matrix shape does not match eigenvalue count")


# =====================================================================
# Operations
# =====================================================================

def tensor_product(factors: Sequence[Ket] | Sequence[Operator]) -> Ket | Operator:
    """Kronecker product of a homogeneous sequence of kets or operators.

    Factors combine left to right, and the result's dims are the concatenated
    factor dims. Mixing kets with operators is an error.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("tensor_product needs at least one factor")
    if all(isinstance(f, Ket) for f in factors):
        amps = factors[0].amplitudes
        for fac in factors[1:]:
            amps = np.kron(amps, fac.amplitudes)
        dims = tuple(d for f in factors for d in f.dims)
        return Ket(amps, dims, normalized=all(f.normalized for f in factors))
    if all(isinstance(f, Operator) for f in factors):
        entries = factors[0].entries
        for fac in factors[1:]:
            entries = np.kron(entries, fac.entries)
        dims = tuple(d for f in factors for d in f.dims)
        return Operator(
            entries,
            dims,
            hermitian=all(f.hermitian for f in factors),
            force_dense=any(f.force_dense for f in factors),
        )
    raise ValueError("tensor_product factors must be all Ket or all Operator")


def hermitian_spectrum(op: Operator, with_eigenvectors: bool = False) -> Spectrum:
    """Full real spectrum of a Hermitian operator, sorted descending.

    The operator must carry the hermitian tag (which construction verified).
    With ``with_eigenvectors`` the unitary of column eigenvectors is returned
    in the same descending order.
    """
    if not op.hermitian:
        raise ValueError("hermitian_spectrum requires an operator tagged hermitian")
    if with_eigenvectors:
        vals, vecs = np.linalg.eigh(op.entries)
        return Spectrum(vals[::-1], vecs[:, ::-1])
    vals = np.linalg.eigvalsh(op.entries)
    return Spectrum(vals[::-1])


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


@functools.lru_cache(maxsize=None)
def hadamard(d: int) -> np.ndarray:
    """Unnormalized d x d Hadamard matrix, entry [i, j] = (-1)^popcount(i & j).

    Sylvester construction for d a power of two. The result is cached per
    size and returned read-only, so callers share one copy.
    """
    if d < 1 or d & (d - 1):
        raise ValueError(f"Hadamard order must be a power of two: {d}")
    out = np.ones((1, 1))
    while out.shape[0] < d:
        out = np.block([[out, out], [out, -out]])
    out.flags.writeable = False
    return out


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


def symmetric_projectors(psi: Ket) -> tuple[Operator, Operator, Operator]:
    """Swap, symmetric-subspace, and target-deviation projectors on two copies.

    For a normalized ket on a D-dimensional space, returns (F, P_s, P_psi)
    acting on the doubled space with dims (D, D): F swaps the two copies,
    P_s = (F + I)/2 projects onto the symmetric subspace, and
    P_psi = |psi><psi| (x) (I - |psi><psi|) projects onto states whose first
    copy is on target and whose second copy is orthogonal to it.
    """
    norm = float(np.linalg.norm(psi.amplitudes))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"symmetric_projectors needs a normalized ket, |norm - 1| = {abs(norm - 1.0):.3e}")
    d = psi.dim
    eye = np.eye(d * d, dtype=complex)
    swap = eye.reshape(d, d, d, d).swapaxes(0, 1).reshape(d * d, d * d)
    proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
    f_op = Operator(swap, (d, d), hermitian=True)
    p_s = Operator((swap + eye) / 2.0, (d, d), hermitian=True)
    p_psi = Operator(np.kron(proj, np.eye(d, dtype=complex) - proj), (d, d), hermitian=True)
    return f_op, p_s, p_psi


def orthonormal_complement(psi: Ket | np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of a unit vector.

    Returns a (D, D-1) matrix whose columns are orthonormal and orthogonal to
    psi. The construction is deterministic (QR of [psi | identity columns]),
    so repeated calls agree exactly.
    """
    vec = psi.amplitudes if isinstance(psi, Ket) else np.asarray(psi, dtype=complex).reshape(-1)
    d = vec.size
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"complement basis needs a unit vector, |norm - 1| = {abs(norm - 1.0):.3e}")
    stack = np.concatenate([vec[:, None], np.eye(d, d - 1, dtype=complex)], axis=1)
    q, _ = np.linalg.qr(stack)
    return q[:, 1:]


def overlap_fidelity(psi: Ket, rho: Operator | Ket) -> float:
    """Overlap <psi|rho|psi> with the target ket, in [0, 1].

    ``rho`` may be a ket (treated as a pure state) or a density operator,
    which must have unit trace and be PSD within 1e-10.
    """
    if isinstance(rho, Ket):
        if rho.dim != psi.dim:
            raise ValueError(f"dimension mismatch: {psi.dim} vs {rho.dim}")
        val = float(np.abs(psi.amplitudes.conj() @ rho.amplitudes) ** 2)
    else:
        if rho.dim != psi.dim:
            raise ValueError(f"dimension mismatch: {psi.dim} vs {rho.dim}")
        trace = complex(np.trace(rho.entries))
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"density operator trace {trace:.6f} is not 1")
        low = float(np.min(np.linalg.eigvalsh((rho.entries + rho.entries.conj().T) / 2.0)))
        if low < -1e-10:
            raise ValueError(f"density operator has negative eigenvalue {low:.3e}")
        val = float(np.real(psi.amplitudes.conj() @ rho.entries @ psi.amplitudes))
    if val < -1e-12 or val > 1.0 + 1e-12:
        raise ValueError(f"overlap {val!r} outside [0, 1]")
    return min(max(val, 0.0), 1.0)
