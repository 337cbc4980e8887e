"""Strategy construction, spectral scalars, sample counts, channels, JSON."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from conftest import random_unit
from qsvkit.ghz import mub_strategy_d4
from qsvkit.graph_strategy import omega_graph
from qsvkit.graphs import Graph
from qsvkit.montecarlo import worst_case_oracle
from qsvkit.qcore import Ket, Operator, bell_ket, orthonormal_complement
from qsvkit.strategy import (
    UNBOUNDED,
    KrausChannel,
    Strategy,
    TwoCopyAnalysis,
    _encode_complex,
    insurance_ceiling,
    lambda2,
    reference_bell_artifacts,
    single_copy_complexity,
    strategy_from_channel,
    strategy_from_json,
    strategy_to_json,
    two_copy_analysis,
    two_copy_complexity,
)


def projector_on(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


# ---------------------------------------------------------------------
# Strategy construction
# ---------------------------------------------------------------------

def test_strategy_requires_hermitian_tag_and_fixed_target():
    target = Ket(np.array([1.0, 0.0]), (2,))
    omega = Operator(np.diag([1.0, 0.5]).astype(complex), (2,), hermitian=True)
    Strategy(omega, target)
    with pytest.raises(ValueError, match="hermitian"):
        Strategy(Operator(np.diag([1.0, 0.5]).astype(complex), (2,)), target)
    drift = Operator(np.diag([0.9, 0.5]).astype(complex), (2,), hermitian=True)
    with pytest.raises(ValueError, match="fix the target"):
        Strategy(drift, target)
    with pytest.raises(ValueError, match="copy count"):
        Strategy(omega, target, copies=0)
    with pytest.raises(ValueError, match="does not match"):
        Strategy(omega, target, copies=2)


def test_strategy_decomposition_checks():
    target = Ket(np.array([1.0, 0.0]), (2,))
    t1 = Operator(np.diag([1.0, 1.0]).astype(complex), (2,), hermitian=True)
    t2 = Operator(np.diag([1.0, 0.0]).astype(complex), (2,), hermitian=True)
    omega = Operator(np.diag([1.0, 0.5]).astype(complex), (2,), hermitian=True)
    Strategy(omega, target, 1, [(0.5, t1), (0.5, t2)])
    with pytest.raises(ValueError, match="negative probability"):
        Strategy(omega, target, 1, [(1.5, t1), (-0.5, t2)])
    with pytest.raises(ValueError, match="non-finite probability"):
        Strategy(omega, target, 1, [(np.nan, t1), (0.5, t2)])
    with pytest.raises(ValueError, match="sum to"):
        Strategy(omega, target, 1, [(0.5, t1), (0.4, t2)])
    soft = Operator(np.diag([1.0, 0.5]).astype(complex), (2,), hermitian=True)
    with pytest.raises(ValueError, match="not a projector"):
        Strategy(omega, target, 1, [(0.5, t1), (0.5, soft)])
    with pytest.raises(ValueError, match="recombine"):
        Strategy(omega, target, 1, [(0.7, t1), (0.3, t2)])
    big = Operator(np.eye(4, dtype=complex), (2, 2), hermitian=True)
    with pytest.raises(ValueError, match="side"):
        Strategy(omega, target, 1, [(0.5, t1), (0.5, big)])


# ---------------------------------------------------------------------
# Single-copy scalars and counts
# ---------------------------------------------------------------------

def test_lambda2_reference_value_is_one_third():
    strat, _ = reference_bell_artifacts()
    assert abs(lambda2(strat) - 1.0 / 3.0) < 1e-12


def test_lambda2_counts_repeated_unit_eigenvalues():
    target = Ket(np.array([1.0, 0.0]), (2,))
    s = Strategy(Operator(np.eye(2, dtype=complex), (2,), hermitian=True), target)
    assert abs(lambda2(s) - 1.0) < 1e-12


def test_lambda2_rejects_two_copy_input():
    target = bell_ket(0, 0)
    omega = Operator(projector_on(np.kron(target.amplitudes, target.amplitudes)), (4, 4), hermitian=True)
    s = Strategy(omega, target, copies=2)
    with pytest.raises(ValueError, match="single-copy"):
        lambda2(s)


def test_single_copy_complexity_anchors():
    rep = single_copy_complexity(0.0, 1e-3, 1e-3)
    assert rep.exact_N == pytest.approx(6904.300825408367, rel=1e-12)
    assert rep.approx_N == pytest.approx(6907.755278982137, rel=1e-12)
    rep3 = single_copy_complexity(1.0 / 3.0, 1e-3, 1e-3)
    assert rep3.exact_N == pytest.approx(10358.178656941556, rel=1e-12)
    inv = single_copy_complexity(0.0, 1e-3, np.exp(-1.0))
    assert inv.approx_N == pytest.approx(1000.0, rel=1e-12)


def test_single_copy_complexity_degenerate_and_invalid():
    rep = single_copy_complexity(1.0, 1e-3, 1e-3)
    assert rep.exact_N == UNBOUNDED and rep.approx_N == UNBOUNDED
    with pytest.raises(ValueError, match="outside"):
        single_copy_complexity(1.5, 1e-3, 1e-3)
    with pytest.raises(ValueError, match="outside"):
        single_copy_complexity(0.0, 0.0, 1e-3)


@given(
    lam=st.floats(min_value=0.0, max_value=0.99),
    eps=st.floats(min_value=1e-6, max_value=0.5),
    delta=st.floats(min_value=1e-6, max_value=0.5),
)
@settings(max_examples=80, deadline=None)
def test_single_copy_exact_never_exceeds_approx(lam, eps, delta):
    rep = single_copy_complexity(lam, eps, delta)
    assert 0.0 < rep.exact_N <= rep.approx_N


# ---------------------------------------------------------------------
# Two-copy analysis
# ---------------------------------------------------------------------

def two_qubit_targets(rng, count):
    return [Ket(random_unit(rng, 4), (2, 2)) for _ in range(count)]


def swap_matrix(d: int) -> np.ndarray:
    """The copy swap F as an explicit permutation matrix: F |i j> = |j i>."""
    idx = np.arange(d * d)
    return np.eye(d * d)[(idx % d) * d + idx // d]


def random_swap_symmetric_strategy(rng, d: int) -> Strategy:
    """Omega = |psi psi><psi psi| + Q (0.5 P_s + 0.3 P_s A P_s + 0.2 P_a B P_a) Q.

    A and B are random unit-norm PSD matrices, P_s and P_a the symmetric and
    antisymmetric projectors and Q = I - |psi psi><psi psi|; every term
    commutes with the swap, and 0 <= Omega <= I. The P_s term adds 0.25 to
    the gamma matrix and B takes at most 0.1 off it, so gamma_star >= 0.15;
    B also makes the compressions of Omega and F Omega differ.
    """
    psi = random_unit(rng, d)
    tt = np.kron(psi, psi)
    swap = swap_matrix(d)
    sym, anti = (np.eye(d * d) + swap) / 2.0, (np.eye(d * d) - swap) / 2.0
    parts = []
    for proj in (sym, anti):
        x = rng.normal(size=(d * d, d * d)) + 1.0j * rng.normal(size=(d * d, d * d))
        psd = proj @ x @ x.conj().T @ proj
        parts.append(psd / np.linalg.eigvalsh(psd)[-1])
    rest = np.eye(d * d) - projector_on(tt)
    omega = projector_on(tt) + rest @ (0.5 * sym + 0.3 * parts[0] + 0.2 * parts[1]) @ rest
    omega = (omega + omega.conj().T) / 2.0
    return Strategy(Operator(omega, (d, d), hermitian=True), Ket(psi, (d,)), copies=2)


def isometry_scalars(s: Strategy) -> tuple[float, float, float]:
    """(lambda_star, gamma_star, xi_star) through the isometry W = psi (x) basis of psi-perp.

    lambda_star is the top of 2 S^dag Omega S with S = (W + F W)/2, gamma_star
    of W^dag F Omega W and xi_star of that over 2 plus W^dag Omega W, each
    clamped at 0.
    """
    d = s.target.dim
    w = np.kron(s.target.amplitudes[:, None], orthonormal_complement(s.target))
    swap = swap_matrix(d)
    om = s.omega.entries
    sym = (w + swap @ w) / 2.0
    mats = (
        2.0 * sym.conj().T @ om @ sym,
        w.conj().T @ swap @ om @ w,
        w.conj().T @ swap @ om @ w / 2.0 + w.conj().T @ om @ w,
    )
    return tuple(max(float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[-1]), 0.0) for m in mats)


def test_two_copy_analysis_matches_the_isometry_reference(rng):
    for d in range(2, 7):
        for _ in range(4):
            s = random_swap_symmetric_strategy(rng, d)
            expected = isometry_scalars(s)
            assert min(expected) > 1e-3  # every scalar is exercised
            got = two_copy_analysis(s)
            scalars = (got.lambda_star, got.gamma_star, got.xi_star)
            assert max(abs(x - y) for x, y in zip(scalars, expected)) < 1e-12


def test_two_copy_analysis_product_of_reference_strategies():
    strat, _ = reference_bell_artifacts()
    target = strat.target
    prod = np.kron(strat.omega.entries, strat.omega.entries)
    s2 = Strategy(Operator(prod, (4, 4), hermitian=True), target, copies=2)
    analysis = two_copy_analysis(s2)
    assert abs(analysis.lambda_star - 1.0 / 3.0) < 1e-9
    assert analysis.local_max_ok


def test_two_copy_analysis_rejects_asymmetric_operator(rng):
    target = Ket(random_unit(rng, 2), (2,))
    tt = np.kron(target.amplitudes, target.amplitudes)
    comp = orthonormal_complement(target)[:, 0]
    stray = np.kron(target.amplitudes, comp)  # not swap symmetric
    omega = projector_on(tt) + 0.5 * projector_on(stray)
    s = Strategy(Operator(omega, (2, 2), hermitian=True), target, copies=2)
    with pytest.raises(ValueError, match="swap symmetric"):
        two_copy_analysis(s)


def test_two_copy_analysis_rejects_unit_lambda_star(rng):
    # Overweight a swap-symmetric direction inside target x target-perp so the
    # compressed top eigenvalue lands above 1.
    target = Ket(random_unit(rng, 2), (2,))
    tt = np.kron(target.amplitudes, target.amplitudes)
    v = orthonormal_complement(target)[:, 0]
    mixed = np.kron(target.amplitudes, v)
    swapped = np.kron(v, target.amplitudes)
    sym_dir = (mixed + swapped) / 2.0
    omega = projector_on(tt) + 2.5 * projector_on(sym_dir) / np.dot(sym_dir.conj(), sym_dir).real
    omega = (omega + omega.conj().T) / 2.0
    s = Strategy(Operator(omega, (2, 2), hermitian=True), target, copies=2)
    with pytest.raises(ValueError, match="lambda_star"):
        two_copy_analysis(s)


def test_two_copy_analysis_copies_guard(rng):
    target = Ket(random_unit(rng, 2), (2,))
    s = Strategy(Operator(np.eye(2, dtype=complex), (2,), hermitian=True), target)
    with pytest.raises(ValueError, match="copies"):
        two_copy_analysis(s)


def test_insurance_ceiling_regimes():
    # clean bounded case: gamma >= 10 sqrt(eps)
    ceiling, ambiguous = insurance_ceiling(0.5, 0.2, epsilon=1e-4)
    assert not ambiguous
    assert ceiling == pytest.approx(2.705e-4, rel=1e-12)
    # clean unbounded case: gamma <= 0.1 sqrt(eps)
    assert insurance_ceiling(0.001, 0.2, epsilon=0.01) == (UNBOUNDED, False)
    # gray zone between the fixed thresholds
    ceiling, ambiguous = insurance_ceiling(0.5, 0.2, epsilon=0.25)
    assert ambiguous and np.isfinite(ceiling)
    with pytest.raises(ValueError, match="epsilon"):
        insurance_ceiling(0.5, 0.2, epsilon=1.5)


@seed(30)
@given(
    gamma=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    share=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    at_edge=st.booleans(),
    eps=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
@example(gamma=0.5, share=0.0, at_edge=True, eps=5e-324)
@example(gamma=1e-160, share=0.0, at_edge=True, eps=5e-324)
@example(gamma=1.0, share=0.0, at_edge=True, eps=float(np.nextafter(1.0, 0.0)))
@example(gamma=2.0**-30, share=0.0, at_edge=True, eps=1e-30)
@settings(max_examples=120, deadline=None, database=None)
def test_insurance_ceiling_is_at_least_epsilon_under_the_local_maximum(gamma, share, at_edge, eps):
    # This invariant is why two_copy_complexity checks no ceiling: once the
    # local-maximum condition holds, epsilon never exceeds its own eps_max.
    # at_edge puts xi one step below 1 - gamma/2, at the condition's edge.
    xi = float(np.nextafter(1.0 - gamma / 2.0, 0.0)) if at_edge else share * (1.0 - gamma / 2.0)
    assume(TwoCopyAnalysis(0.0, gamma, xi).local_max_ok)
    assert insurance_ceiling(gamma, xi, eps)[0] >= eps


def test_two_copy_analysis_threads_epsilon_to_ceiling(rng):
    # Interpolate between the target projector and the full symmetric
    # projector; the compressed scalars come out (0.8, 0.4, 0.6), and their
    # ceiling at epsilon = 1e-4 is in the clean bounded regime.
    target = Ket(random_unit(rng, 2), (2,))
    tt = np.kron(target.amplitudes, target.amplitudes)
    swap = np.eye(4)[[0, 2, 1, 3]]
    p_sym = (np.eye(4) + swap) / 2.0
    omega = projector_on(tt) + 0.8 * (p_sym - projector_on(tt))
    omega = (omega + omega.conj().T) / 2.0
    s2 = Strategy(Operator(omega, (2, 2), hermitian=True), target, copies=2)
    analysis = two_copy_analysis(s2)
    assert abs(analysis.gamma_star - 0.4) < 1e-10
    ceiling, ambiguous = insurance_ceiling(analysis.gamma_star, analysis.xi_star, 1e-4)
    assert np.isfinite(ceiling) and not ambiguous


def test_two_copy_complexity_anchor_and_guards():
    analysis = TwoCopyAnalysis(0.0, 0.0, 0.0)
    rep = two_copy_complexity(analysis, 0.1, 1e-3)
    assert rep.exact_N == pytest.approx(61.913106951097014, rel=1e-12)
    assert rep.approx_N == pytest.approx(69.07755278982137, rel=1e-12)

    bad_local = TwoCopyAnalysis(0.2, 0.8, 0.7)
    assert not bad_local.local_max_ok
    with pytest.raises(ValueError, match="local-maximum"):
        two_copy_complexity(bad_local, 1e-4, 1e-3)
    unit = TwoCopyAnalysis(1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=">= 1"):
        two_copy_complexity(unit, 1e-3, 1e-3)
    with pytest.raises(ValueError, match="not positive"):
        two_copy_complexity(analysis, 0.5, 1e-3)


def test_two_copy_analysis_scalar_consistency_guard():
    with pytest.raises(ValueError, match="outside"):
        TwoCopyAnalysis(1.5, 0.5, 0.2)


# ---------------------------------------------------------------------
# Monotonicity of the sample counts
# ---------------------------------------------------------------------

# Counts are compared with a relative tolerance; two inputs count as apart
# when they differ by more than SEPARATED, far above the rounding of the counts.
COUNT_REL = 1e-12
SEPARATED = 1e-6
LAMBDAS = st.floats(min_value=0.0, max_value=0.99)
EPSILONS = st.floats(min_value=1e-6, max_value=0.4)
DELTAS = st.floats(min_value=1e-9, max_value=0.5)


def exact_count(protocol: str, lam: float, eps: float, delta: float) -> float:
    """exact_N of the single-copy protocol or of a two-copy one whose other scalars vanish."""
    if protocol == "single-copy":
        return single_copy_complexity(lam, eps, delta).exact_N
    return two_copy_complexity(TwoCopyAnalysis(lam, 0.0, 0.0), eps, delta).exact_N


@pytest.mark.parametrize("protocol", ["single-copy", "two-copy"])
@seed(27)
@given(lam=LAMBDAS, eps=st.lists(EPSILONS, min_size=2, max_size=2), delta=DELTAS)
@settings(max_examples=30, deadline=None, database=None)
def test_exact_count_falls_as_epsilon_grows(protocol, lam, eps, delta):
    low, high = sorted(eps)
    assume(high > low * (1.0 + SEPARATED))
    assert exact_count(protocol, lam, high, delta) < exact_count(protocol, lam, low, delta)


@pytest.mark.parametrize("protocol", ["single-copy", "two-copy"])
@seed(27)
@given(lam=st.lists(LAMBDAS, min_size=2, max_size=2), eps=EPSILONS, delta=DELTAS)
@settings(max_examples=30, deadline=None, database=None)
def test_exact_count_falls_as_the_gap_grows(protocol, lam, eps, delta):
    # A smaller lambda is a wider gap 1 - lambda.
    low, high = sorted(lam)
    assume(1.0 - low > (1.0 - high) * (1.0 + SEPARATED))
    assert exact_count(protocol, low, eps, delta) < exact_count(protocol, high, eps, delta)


@pytest.mark.parametrize("protocol", ["single-copy", "two-copy"])
@seed(27)
@given(lam=LAMBDAS, eps=EPSILONS, delta=st.lists(DELTAS, min_size=2, max_size=2))
@settings(max_examples=30, deadline=None, database=None)
def test_exact_count_is_linear_in_log_one_over_delta(protocol, lam, eps, delta):
    per_log = [exact_count(protocol, lam, eps, d) / math.log(1.0 / d) for d in delta]
    assert per_log[1] == pytest.approx(per_log[0], rel=COUNT_REL)


# ---------------------------------------------------------------------
# Local-unitary covariance
# ---------------------------------------------------------------------

COVARIANCE_EPSILON = 1e-3


def haar_unitary(gen, d: int) -> np.ndarray:
    """A Haar unitary: Q of a complex Gaussian's QR, each column's phase fixed by R's diagonal."""
    q, r = np.linalg.qr(gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conjugated(s: Strategy, u: np.ndarray) -> Strategy:
    """(W Omega W', U psi), with W = U on every copy."""
    w = u if s.copies == 1 else np.kron(u, u)
    om = w @ s.omega.entries @ w.conj().T
    omega = Operator((om + om.conj().T) / 2.0, s.omega.dims, hermitian=True)
    return Strategy(omega, Ket(u @ s.target.amplitudes, s.target.dims), s.copies)


def two_copy_subjects() -> list[Strategy]:
    """The path-2 graph strategy and the product of two reference Bell strategies."""
    strat, _ = reference_bell_artifacts()
    prod = Operator(np.kron(strat.omega.entries, strat.omega.entries), (4, 4), hermitian=True)
    return [omega_graph(Graph(2, [(1, 2)]), matrix_free=False).strategy, Strategy(prod, strat.target, 2)]


@seed(28)
@given(key=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=10, deadline=None, database=None)
def test_lambda2_is_invariant_under_a_unitary_on_target_and_strategy(key):
    gen = np.random.Generator(np.random.Philox(key=key))
    subjects = [reference_bell_artifacts()[0]] + [mub_strategy_d4(t) for t in (0.1, 0.3, 0.5, 0.7)]
    for s in subjects:
        rotated = conjugated(s, haar_unitary(gen, s.target.dim))
        assert abs(lambda2(rotated) - lambda2(s)) <= 1e-12


@seed(28)
@given(key=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=5, deadline=None, database=None)
def test_two_copy_report_is_invariant_under_a_unitary_on_each_copy(key):
    # The scalars near zero (gamma_star on the Bell product is about 1e-32)
    # move by rounding, so every scalar is compared against an absolute tolerance.
    gen = np.random.Generator(np.random.Philox(key=key))
    for s in two_copy_subjects():
        rotated = conjugated(s, haar_unitary(gen, s.target.dim))
        before, after = (two_copy_analysis(x) for x in (s, rotated))
        for name in ("lambda_star", "gamma_star", "xi_star"):
            assert abs(getattr(after, name) - getattr(before, name)) <= 1e-12, name
        ceilings = [insurance_ceiling(x.gamma_star, x.xi_star, COVARIANCE_EPSILON)
                    for x in (before, after)]
        assert ceilings[1] == ceilings[0]
        counts = [two_copy_complexity(x, COVARIANCE_EPSILON, 1e-3) for x in (before, after)]
        assert counts[1].exact_N == pytest.approx(counts[0].exact_N, rel=1e-12)
        assert counts[1].approx_N == pytest.approx(counts[0].approx_N, rel=1e-12)
        oracle = [worst_case_oracle(x, COVARIANCE_EPSILON).p_hat for x in (s, rotated)]
        assert abs(oracle[1] - oracle[0]) <= 1e-12


# ---------------------------------------------------------------------
# Channel correspondence
# ---------------------------------------------------------------------

def test_reference_channel_induces_reference_strategy():
    strat, channel = reference_bell_artifacts()
    assert len(channel.kraus_ops) == 6
    rebuilt = strategy_from_channel(channel, strat.target)
    assert np.max(np.abs(rebuilt.omega.entries - strat.omega.entries)) < 1e-12


def test_channel_requires_trace_preservation():
    half = [np.eye(2, dtype=complex) / 2.0]
    with pytest.raises(ValueError, match="trace preserving"):
        KrausChannel(half, (2,), (2,))
    with pytest.raises(ValueError, match="at least one"):
        KrausChannel([], (2,), (2,))
    with pytest.raises(ValueError, match="shape"):
        KrausChannel([np.eye(3, dtype=complex)], (2,), (2,))


def test_channel_must_funnel_target_to_origin():
    ch = KrausChannel([np.eye(4, dtype=complex)], (2, 2), (2, 2))
    with pytest.raises(ValueError, match="all-zeros"):
        strategy_from_channel(ch, bell_ket(0, 0))


def test_channel_dimension_must_be_tensor_power():
    ch = KrausChannel([np.eye(2, dtype=complex)], (2,), (2,))
    target = Ket(np.array([1.0, 0.0, 0.0]), (3,))
    with pytest.raises(ValueError, match="tensor power"):
        strategy_from_channel(ch, target)


# ---------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------

def test_strategy_json_round_trip_with_decomposition():
    strat, _ = reference_bell_artifacts()
    data = strategy_to_json(strat)
    back = strategy_from_json(data)
    assert back.copies == strat.copies
    assert back.target.dims == strat.target.dims
    assert np.max(np.abs(back.omega.entries - strat.omega.entries)) < 1e-15
    assert len(back.decomposition) == 3
    for (p0, t0), (p1, t1) in zip(strat.decomposition, back.decomposition):
        assert p0 == p1
        assert np.max(np.abs(t0.entries - t1.entries)) < 1e-15


def test_strategy_json_round_trip_without_decomposition(rng):
    target = Ket(random_unit(rng, 2), (2,))
    s = Strategy(Operator(projector_on(target.amplitudes), (2,), hermitian=True), target)
    back = strategy_from_json(strategy_to_json(s))
    assert back.decomposition is None
    assert np.max(np.abs(back.omega.entries - s.omega.entries)) < 1e-15


def literal_pairs(values) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex).reshape(-1)]


@pytest.mark.parametrize(
    "make", [lambda: reference_bell_artifacts()[0], lambda: mub_strategy_d4(0.3)], ids=["bell", "mub-d4"]
)
def test_strategy_json_bytes_are_the_entry_pairs_and_survive_a_round_trip(make):
    # One [re, im] pair of Python floats per entry, so the bytes match the
    # entry-by-entry encoding and a decoded strategy re-encodes to them.
    s = make()
    text = json.dumps(strategy_to_json(s))
    literal = {
        "dims": list(s.target.dims),
        "copies": s.copies,
        "target": literal_pairs(s.target.amplitudes),
        "omega": literal_pairs(s.omega.entries),
        "decomposition": [{"p": float(p), "T": literal_pairs(t.entries)} for p, t in s.decomposition],
    }
    assert text == json.dumps(literal)
    assert json.dumps(strategy_to_json(strategy_from_json(json.loads(text)))) == text
    edge = np.array([-0.0, 5e-324, 1e308 - 1e292j, -1.0j, 0.1 + 0.2j])
    assert json.dumps(_encode_complex(edge)) == json.dumps(literal_pairs(edge))


def test_strategy_json_malformed_payloads():
    strat, _ = reference_bell_artifacts()
    data = strategy_to_json(strat)
    short = dict(data)
    short["omega"] = data["omega"][:-1]
    with pytest.raises(ValueError, match="expected"):
        strategy_from_json(short)
    scalars = dict(data)
    scalars["target"] = [1.0, 0.0]
    with pytest.raises(ValueError, match=r"\[re, im\]"):
        strategy_from_json(scalars)
    trimmed = dict(data)
    trimmed["decomposition"] = [
        {"p": 1.0, "T": data["decomposition"][0]["T"][:-2]}
    ]
    with pytest.raises(ValueError, match="expected"):
        strategy_from_json(trimmed)
