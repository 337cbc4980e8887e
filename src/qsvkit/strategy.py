"""Single-copy and two-copy verification strategy analysis.

A strategy is a Hermitian accept operator Omega with 0 <= Omega <= I that
fixes the target state, optionally carrying its decomposition into projective
tests with sampling probabilities. Single-copy efficiency is governed by the
second-largest eigenvalue of Omega; the two-copy analysis reduces Omega to
three scalars (lambda_star, gamma_star, xi_star) obtained by compressing the
operator onto the subspace where the first copy is on target and the second
is orthogonal to it. From those epsilon-free scalars follow the local-maximum
check and, at each epsilon, the ceiling eps_max under which the two-copy pass
analysis holds and the sample counts.

The compression contracts Omega with psi once, on the first copy's input,
and projects the result with P = I - psi psi^dag: no basis of psi-perp is
formed, and every eigenvalue problem is D x D (one more, zero, eigenvalue
than the D-1 of psi-perp) whatever the doubled space's size.

Channels enter through the Kraus picture: a trace-preserving channel whose
Kraus operators all map the target onto the all-zeros ket induces the
strategy Omega = sum_i M_i^dag |0..0><0..0| M_i.

Sample-count conventions: every count comes from sample_counts, given the
eigenvalue, the copies per round and the per-round infidelity: epsilon for
single-copy tests, 2 epsilon at leading order for two-copy rounds, and
1 - (1 - epsilon)^k for k-copy groups. exact_N is a real (consumers round
up). insurance_ceiling is the one source of eps_max (float("inf") when
unbounded) and of its regime flag, set when gamma_star falls between the fixed
thresholds 0.1 sqrt(epsilon) and 10 sqrt(epsilon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PHASE_S,
    Ket,
    Operator,
    bell_ket,
)

UNBOUNDED = float("inf")

STRUCT_TOL = 1e-10


# =====================================================================
# Domain types
# =====================================================================

@dataclass
class Strategy:
    """Accept operator with its target state and copy count.

    ``copies`` is the int 1 or 2, two copies at most; ``omega`` acts on that
    many copies of the target space and must carry the hermitian tag and fix
    target^(x copies). When a decomposition is given it must consist of
    probabilities summing to 1 and projective tests recombining to omega
    within 1e-10. Positivity of omega and the upper bound omega <= I are part
    of the contract but are not eigendecomposed at construction time (they
    are covered by spectrum checks in the test suite); construction is
    O(tests * dim^3), one T T per test.
    """

    omega: Operator
    target: Ket
    copies: int = 1
    decomposition: list[tuple[float, Operator]] | None = None

    def __post_init__(self) -> None:
        _copy_count(self.copies)
        if not self.omega.hermitian:
            raise ValueError("strategy operator must be tagged hermitian")
        if self.omega.dim != _side(self.target.dim, self.copies):
            raise ValueError(
                f"operator side {self.omega.dim} does not match "
                f"target dim {self.target.dim} with {self.copies} copies"
            )
        tvec = _target_power(self.target, self.copies)
        dev = float(np.max(np.abs(self.omega.entries @ tvec - tvec)))
        if dev > STRUCT_TOL:
            raise ValueError(f"operator does not fix the target product state: deviation {dev:.3e}")
        if self.decomposition is not None:
            total = 0.0
            acc = np.zeros_like(self.omega.entries)
            for idx, (prob, test) in enumerate(self.decomposition):
                if not math.isfinite(prob):
                    raise ValueError(f"test {idx} has non-finite probability {prob}")
                if prob < -STRUCT_TOL:
                    raise ValueError(f"test {idx} has negative probability {prob}")
                if test.dim != self.omega.dim:
                    raise ValueError(f"test {idx} has side {test.dim}, expected {self.omega.dim}")
                proj_dev = float(np.max(np.abs(test.entries @ test.entries - test.entries)))
                if proj_dev > STRUCT_TOL:
                    raise ValueError(f"test {idx} is not a projector: |T^2 - T| = {proj_dev:.3e}")
                total += prob
                acc = acc + prob * test.entries
            if abs(total - 1.0) > STRUCT_TOL:
                raise ValueError(f"test probabilities sum to {total}, not 1")
            mix_dev = float(np.max(np.abs(acc - self.omega.entries)))
            if mix_dev > STRUCT_TOL:
                raise ValueError(f"decomposition does not recombine to omega: deviation {mix_dev:.3e}")


def _copy_count(copies) -> int:
    """Return copies if it is the int 1 or 2, a bool refused: the one rule on a copy count."""
    if type(copies) is not int or copies not in (1, 2):
        raise ValueError(f"copy count must be 1 or 2: copies = {copies!r}")
    return copies


def _side(dim: int, copies: int) -> int:
    """Side of an operator on one or two copies of a dimension-dim space."""
    return dim if copies == 1 else dim * dim


def _target_power(target: Ket, copies: int) -> np.ndarray:
    """Amplitudes of the target on one copy or of target (x) target on two."""
    vec = target.amplitudes
    return vec if copies == 1 else np.kron(vec, vec)


@dataclass
class TwoCopyAnalysis:
    """The three epsilon-free scalars of a swap-symmetric two-copy strategy.

    Each lies in [0, 1]. The infidelity ceiling at a given epsilon comes
    from insurance_ceiling(gamma_star, xi_star, epsilon).
    """

    lambda_star: float
    gamma_star: float
    xi_star: float

    def __post_init__(self) -> None:
        for name in ("lambda_star", "gamma_star", "xi_star"):
            val = getattr(self, name)
            if not -1e-9 <= val <= 1.0 + 1e-9:
                raise ValueError(f"{name} = {val} outside [0, 1]")

    @property
    def local_max_ok(self) -> bool:
        """The local-maximum condition xi_star + gamma_star/2 < 1."""
        return self.xi_star + self.gamma_star / 2.0 < 1.0


@dataclass
class KrausChannel:
    """Trace-preserving channel given by its Kraus operators.

    Each operator maps the input space (prod of in_dims) to the output space
    (prod of out_dims); the completeness sum M^dag M must be the identity
    within 1e-10.
    """

    kraus_ops: list[np.ndarray]
    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        self.in_dims = tuple(int(d) for d in self.in_dims)
        self.out_dims = tuple(int(d) for d in self.out_dims)
        din = math.prod(self.in_dims)
        dout = math.prod(self.out_dims)
        if not self.kraus_ops:
            raise ValueError("channel needs at least one Kraus operator")
        self.kraus_ops = [np.asarray(m, dtype=complex) for m in self.kraus_ops]
        for idx, m in enumerate(self.kraus_ops):
            if m.shape != (dout, din):
                raise ValueError(
                    f"Kraus operator {idx} has shape {m.shape}, expected ({dout}, {din})"
                )
        acc = np.zeros((din, din), dtype=complex)
        for m in self.kraus_ops:
            acc += m.conj().T @ m
        dev = float(np.max(np.abs(acc - np.eye(din))))
        if dev > STRUCT_TOL:
            raise ValueError(f"channel is not trace preserving: |sum M^dag M - I| = {dev:.3e}")


@dataclass
class ComplexityReport:
    """Sample-count estimates from sample_counts."""

    exact_N: float
    approx_N: float


# =====================================================================
# Single-copy analysis
# =====================================================================

def lambda2(s: Strategy) -> float:
    """Second-largest eigenvalue of a single-copy strategy operator.

    Computed as the top eigenvalue after deflating exactly the target
    eigenvector (not the whole unit eigenspace) and clamped to [0, 1], so
    operators with several unit eigenvalues report 1, not a rounded 1 + ulp.
    """
    if s.copies != 1:
        raise ValueError(f"lambda2 needs a single-copy strategy, got copies = {s.copies}")
    tvec = s.target.amplitudes
    return _top_of_restricted("lambda2", s.omega.entries - np.outer(tvec, tvec.conj()))


def sample_counts(
    lam: float, epsilon: float, delta: float, copies: int, round_infidelity: float
) -> ComplexityReport:
    """The one sample-count rule behind every protocol.

    A round consumes ``copies`` copies, and a state at infidelity epsilon
    passes it with probability at most 1 - (1 - lam) * round_infidelity, so
    exact_N = copies * ln(delta) / ln(1 - (1 - lam) * round_infidelity).
    approx_N is the leading-order ln(1/delta) / ((1 - lam) * epsilon). A
    non-positive gap (1 - lam) * epsilon yields unbounded (inf) counts.
    """
    for name, val in (("epsilon", epsilon), ("delta", delta)):
        if not 0.0 < val < 1.0:
            raise ValueError(f"{name} = {val} outside (0, 1)")
    gap = (1.0 - lam) * epsilon
    if gap <= 0.0:
        return ComplexityReport(UNBOUNDED, UNBOUNDED)
    shrink = (1.0 - lam) * round_infidelity
    if shrink >= 1.0:
        raise ValueError(f"pass probability 1 - {shrink} is not positive; epsilon too large")
    exact = copies * math.log(delta) / math.log1p(-shrink)
    return ComplexityReport(exact, math.log(1.0 / delta) / gap)


def single_copy_complexity(lambda2: float, epsilon: float, delta: float) -> ComplexityReport:
    """Sample counts for repeated single-copy tests: one copy per round at epsilon.

    A lambda2 of 1 yields unbounded (inf) counts rather than an error.
    """
    if not 0.0 <= lambda2 <= 1.0:
        raise ValueError(f"lambda2 = {lambda2} outside [0, 1]")
    return sample_counts(lambda2, epsilon, delta, 1, epsilon)


# =====================================================================
# Two-copy analysis
# =====================================================================

def two_copy_analysis(s: Strategy) -> TwoCopyAnalysis:
    """Compress a swap-symmetric two-copy strategy to its governing scalars.

    With half[i, j, l] = <i j|Omega|psi l> (Omega contracted with psi on the
    first copy's input) and P = I - psi psi^dag, the D x D matrices
    a = P (psi^dag on the first output) P and g = P (psi^dag on the second
    output) P are the compressions of omega and F omega onto
    psi (x) psi-perp. lambda_star, gamma_star and xi_star are the top
    eigenvalues, clamped to [0, 1], of a + g, g and a + g/2; for an omega that
    commutes with the swap F (the symmetry precondition) a + g is twice the
    symmetric-subspace compression. g must come out Hermitian, which the
    symmetry also guarantees; its check runs first.
    """
    if s.copies != 2:
        raise ValueError(f"two-copy analysis needs copies = 2, got {s.copies}")
    d = s.target.dim
    om = s.omega.entries
    swapped = om.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(om.shape)  # F omega F
    asym = float(np.max(np.abs(om - swapped)))
    if asym > STRUCT_TOL:
        raise ValueError(f"operator is not swap symmetric: deviation {asym:.3e} > {STRUCT_TOL:.1e}")

    psi = s.target.amplitudes
    half = np.tensordot(om.reshape(d, d, d, d), psi, axes=([2], [0]))
    perp = np.eye(d) - np.outer(psi, psi.conj())
    a_mat = perp @ np.tensordot(psi.conj(), half, axes=([0], [0])) @ perp
    g_mat = perp @ np.tensordot(half, psi.conj(), axes=([1], [0])) @ perp
    gam = _top_of_restricted("gamma_star", g_mat)
    lam = _top_of_restricted("lambda_star", a_mat + g_mat)
    xi = _top_of_restricted("xi_star", a_mat + g_mat / 2.0)

    if lam >= 1.0:
        raise ValueError(f"lambda_star = {lam} >= 1; two-copy analysis does not apply")
    return TwoCopyAnalysis(lam, gam, xi)


def _top_of_restricted(name: str, mat: np.ndarray) -> float:
    herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
    if herm_dev > max(10.0 * STRUCT_TOL, 1e-9):
        raise ValueError(f"restricted operator for {name} is not Hermitian: deviation {herm_dev:.3e}")
    top = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[-1])
    return min(max(top, 0.0), 1.0)


def insurance_ceiling(gamma: float, xi: float, epsilon: float) -> tuple[float, bool]:
    """Infidelity ceiling eps_max under which the two-copy pass bound holds at epsilon.

    Returns (eps_max, ambiguous). gamma at or below 0.1 sqrt(epsilon) means
    the ceiling is unbounded (inf); otherwise it is epsilon (1 + k^2) / 2 with
    k = (1 - xi + gamma/2) / gamma, flagged ambiguous while gamma is below
    10 sqrt(epsilon). Under the local-maximum condition xi + gamma/2 < 1,
    k > 1, so eps_max > epsilon.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon = {epsilon} outside (0, 1)")
    root = math.sqrt(epsilon)
    if gamma <= 0.1 * root:
        return UNBOUNDED, False
    k = (1.0 - xi + 0.5 * gamma) / gamma
    bounded = epsilon * (1.0 + k * k) / 2.0  # >= epsilon once k >= 1, subnormal epsilon too
    if gamma >= 10.0 * root:
        return bounded, False
    return bounded, True


def two_copy_complexity(analysis: TwoCopyAnalysis, epsilon: float, delta: float) -> ComplexityReport:
    """Sample counts for a two-copy strategy from its analysis scalars.

    Two copies per round at the leading-order per-round infidelity
    2 epsilon, so exact_N counts copies. The analysis must satisfy the
    local-maximum condition, which keeps epsilon under insurance_ceiling's
    eps_max, and lambda_star < 1; violations raise with the failing
    hypothesis named.
    """
    if not analysis.local_max_ok:
        raise ValueError(
            "local-maximum condition fails: xi_star + gamma_star/2 = "
            f"{analysis.xi_star + analysis.gamma_star / 2.0:.6f} >= 1"
        )
    if analysis.lambda_star >= 1.0:
        raise ValueError(f"lambda_star = {analysis.lambda_star} >= 1")
    return sample_counts(analysis.lambda_star, epsilon, delta, 2, 2.0 * epsilon)


# =====================================================================
# Channel correspondence
# =====================================================================

def strategy_from_channel(ch: KrausChannel, target: Ket) -> Strategy:
    """Strategy induced by a channel that funnels the target to |0...0>.

    Every Kraus operator must map the target to a multiple of the all-zeros
    output ket (checked; the first offending index is reported). The accept
    operator is sum_i M_i^dag |0..0><0..0| M_i on the channel's input, one or
    two copies of the target space, and it is verified to fix the target.
    """
    din = math.prod(ch.in_dims)
    copies = 1 if din == target.dim else 2
    if din != _side(target.dim, copies):
        raise ValueError(f"channel input dim {din} is not target dim {target.dim} or its tensor power")
    tvec = _target_power(target, copies)
    for idx, m in enumerate(ch.kraus_ops):
        image = m @ tvec
        residual = image.copy()
        residual[0] = 0.0
        if float(np.linalg.norm(residual)) > STRUCT_TOL:
            raise ValueError(
                f"Kraus operator {idx} does not map the target to the all-zeros ket "
                f"(residual norm {float(np.linalg.norm(residual)):.3e})"
            )
    stack = np.stack([m.conj().T[:, 0] for m in ch.kraus_ops], axis=1)
    omega = stack @ stack.conj().T
    omega = (omega + omega.conj().T) / 2.0
    dims = ch.in_dims if copies == 1 else (target.dim, target.dim)
    return Strategy(Operator(omega, dims, hermitian=True), target, copies=copies)


def reference_bell_artifacts() -> tuple[Strategy, KrausChannel]:
    """Reference single-copy Bell strategy and its six-operator Kraus channel.

    The strategy averages the three two-qubit parity tests (ZZ with +1
    accept, YY with -1, XX with +1), each drawn with probability 1/3; its
    second-largest eigenvalue is 1/3. The channel's Kraus operators pair the
    bras <0|, <1|, <+|, <-|, <+i|, <-i| on the first qubit with the unitaries
    I, X, H, XH, HS, XHS on the second, each weighted 1/sqrt(3), and induce
    exactly the same accept operator.
    """
    eye4 = np.eye(4, dtype=complex)
    tests = [
        (eye4 + np.kron(PAULI_Z, PAULI_Z)) / 2.0,
        (eye4 - np.kron(PAULI_Y, PAULI_Y)) / 2.0,
        (eye4 + np.kron(PAULI_X, PAULI_X)) / 2.0,
    ]
    omega = sum(tests) / 3.0
    target = bell_ket(0, 0)
    decomposition = [
        (1.0 / 3.0, Operator(t, (2, 2), hermitian=True)) for t in tests
    ]
    strat = Strategy(Operator(omega, (2, 2), hermitian=True), target, 1, decomposition)

    sq2 = 1.0 / np.sqrt(2.0)
    bras = [
        np.array([1.0, 0.0], dtype=complex),
        np.array([0.0, 1.0], dtype=complex),
        np.array([sq2, sq2], dtype=complex),
        np.array([sq2, -sq2], dtype=complex),
        np.array([sq2, sq2 * 1.0j], dtype=complex),
        np.array([sq2, -sq2 * 1.0j], dtype=complex),
    ]
    eye2 = np.eye(2, dtype=complex)
    unitaries = [
        eye2,
        PAULI_X,
        HADAMARD,
        PAULI_X @ HADAMARD,
        HADAMARD @ PHASE_S,
        PAULI_X @ HADAMARD @ PHASE_S,
    ]
    ket0 = np.array([[1.0], [0.0]], dtype=complex)
    kraus = [
        np.kron(ket0 @ bra.conj()[None, :], u) / np.sqrt(3.0)
        for bra, u in zip(bras, unitaries)
    ]
    channel = KrausChannel(kraus, (2, 2), (2, 2))
    return strat, channel


# =====================================================================
# JSON round trip
# =====================================================================

def strategy_to_json(s: Strategy) -> dict:
    """Serializable dict for a strategy (see strategy_from_json)."""
    payload = {
        "dims": list(s.target.dims),
        "copies": s.copies,
        "target": _encode_complex(s.target.amplitudes),
        "omega": _encode_complex(s.omega.entries.reshape(-1)),
    }
    if s.decomposition is not None:
        payload["decomposition"] = [
            {"p": float(p), "T": _encode_complex(t.entries.reshape(-1))}
            for p, t in s.decomposition
        ]
    return payload


def strategy_from_json(data: dict) -> Strategy:
    """Rebuild a strategy from its JSON dict form.

    Expected keys: copies (1 or 2, two copies at most) and dims (single-copy
    subsystem dims) as JSON integers, target and omega as [re, im] pair lists
    of JSON numbers (omega row-major over the one- or two-copy space), and
    optionally decomposition as a list of {p, T} entries, p a JSON number; no
    bool or string is cast. Omega's spectrum must lie in [0, 1] within STRUCT_TOL.
    """
    copies = _copy_count(data["copies"])
    dims = tuple(data["dims"])
    if not set(map(type, dims)) <= {int}:
        raise ValueError(f"dims {list(dims)!r} hold a value that is not an integer")
    target = Ket(_decode_complex(data["target"]), dims)
    side = _side(target.dim, copies)
    omega_vec = _decode_complex(data["omega"])
    if omega_vec.size != side * side:
        raise ValueError(f"omega has {omega_vec.size} entries, expected {side * side}")
    op_dims = dims if copies == 1 else (target.dim, target.dim)
    omega = Operator(omega_vec.reshape(side, side), op_dims, hermitian=True)
    for value in np.linalg.eigvalsh(omega.entries)[[0, -1]]:
        if not -STRUCT_TOL <= value <= 1.0 + STRUCT_TOL:
            raise ValueError(f"omega has eigenvalue {value:.6g} outside [0, 1]")
    decomposition = None
    if data.get("decomposition") is not None:
        decomposition = []
        for entry in data["decomposition"]:
            tvec = _decode_complex(entry["T"])
            if tvec.size != side * side:
                raise ValueError(f"test has {tvec.size} entries, expected {side * side}")
            if type(entry["p"]) not in (int, float):
                raise ValueError(f"test probability {entry['p']!r} is not a number")
            decomposition.append(
                (float(entry["p"]), Operator(tvec.reshape(side, side), op_dims, hermitian=True))
            )
    return Strategy(omega, target, copies, decomposition)


def _encode_complex(values: np.ndarray) -> list[list[float]]:
    flat = np.asarray(values, dtype=complex).reshape(-1)
    return np.column_stack((flat.real, flat.imag)).tolist()


def _decode_complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("complex payload must be a list of [re, im] pairs")
    # The float cast above accepts bools and numeric strings; JSON numbers parse to int or float.
    if not {type(v) for pair in pairs for v in pair} <= {int, float}:
        raise ValueError("complex payload has entries that are not numbers")
    if not np.isfinite(arr).all():
        raise ValueError("complex payload has non-finite entries")
    return arr[:, 0] + 1.0j * arr[:, 1]
