"""GHZ-family specs, regrouped tensor powers, and the five-basis strategy."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from qsvkit.ghz import _MUB_TABLES, GhzSpec, ghz_ket, lambda2_lhz, mub_strategy_d4, n_de_k
from qsvkit.strategy import lambda2, single_copy_complexity
from reference import mub_strategy_kron_sum, tensor_power_spec


BELL_SPEC = GhzSpec(2, 2, np.sqrt([0.5, 0.5]))


def theta_spec(theta: float) -> GhzSpec:
    c, s = math.cos(theta), math.sin(theta)
    return GhzSpec(2, 4, [c * c, c * s, c * s, s * s])


# ---------------------------------------------------------------------
# Specs and states
# ---------------------------------------------------------------------

def test_ghz_spec_validation():
    GhzSpec(3, 2, np.sqrt([0.7, 0.3]))
    with pytest.raises(ValueError, match="party count"):
        GhzSpec(1, 2, np.sqrt([0.7, 0.3]))
    with pytest.raises(ValueError, match="local dimension"):
        GhzSpec(2, 1, [1.0])
    with pytest.raises(ValueError, match="coefficients for local dimension"):
        GhzSpec(2, 3, np.sqrt([0.7, 0.3]))
    with pytest.raises(ValueError, match="nonnegative"):
        GhzSpec(2, 2, [np.sqrt(1.25), -0.5])
    with pytest.raises(ValueError, match="descending"):
        GhzSpec(2, 2, np.sqrt([0.3, 0.7]))
    with pytest.raises(ValueError, match="square-sum"):
        GhzSpec(2, 2, [0.5, 0.5])


def test_ghz_ket_supports_only_diagonal_strings():
    bell = ghz_ket(BELL_SPEC)
    assert np.allclose(bell.amplitudes, np.sqrt([0.5, 0.0, 0.0, 0.5]))
    three = ghz_ket(GhzSpec(3, 2, np.sqrt([0.7, 0.3])))
    expected = np.zeros(8)
    expected[0] = np.sqrt(0.7)
    expected[7] = np.sqrt(0.3)
    assert np.allclose(three.amplitudes, expected)
    assert three.dims == (2, 2, 2)


@pytest.mark.parametrize("n", [14, 10**6])
def test_ghz_ket_refuses_a_state_past_the_dense_cap(n):
    with pytest.raises(ValueError, match="cap"):
        ghz_ket(GhzSpec(n, 2, [1.0, 0.0]))


def test_tensor_power_spec_values_and_cap():
    spec = GhzSpec(2, 2, np.sqrt([0.7, 0.3]))
    powered = tensor_power_spec(spec, 2)
    assert powered.d == 4
    assert np.allclose(np.sort(powered.coeffs**2), np.sort([0.49, 0.21, 0.21, 0.09]))
    assert np.all(np.diff(powered.coeffs) <= 1e-15)
    with pytest.raises(ValueError, match="at least 1"):
        tensor_power_spec(spec, 0)
    with pytest.raises(ValueError, match="exceeds cap"):
        tensor_power_spec(spec, 14)


def test_tensor_power_state_matches_regrouped_copies():
    # Regroup k copies party-major and compare against the powered spec's
    # state up to the descending relabel of local levels.
    for spec, k in ((GhzSpec(2, 3, np.sqrt([0.5, 0.3, 0.2])), 2),
                    (GhzSpec(3, 2, np.sqrt([0.7, 0.3])), 3)):
        single = ghz_ket(spec).amplitudes
        copies = single
        for _ in range(k - 1):
            copies = np.kron(copies, single)
        # copy-major axes (copy, party) -> party-major (party, copy)
        axes = np.arange(k * spec.n).reshape(k, spec.n).T.reshape(-1)
        regrouped = copies.reshape((spec.d,) * (k * spec.n)).transpose(axes).reshape(-1)

        powered = tensor_power_spec(spec, k)
        dloc = spec.d**k
        total = dloc**spec.n
        stride = (total - 1) // (dloc - 1)
        diag = regrouped[np.arange(dloc) * stride]
        off_mass = np.linalg.norm(regrouped) ** 2 - np.linalg.norm(diag) ** 2
        assert abs(off_mass) < 1e-12
        assert np.allclose(np.sort(np.abs(diag))[::-1], powered.coeffs)


# ---------------------------------------------------------------------
# Second-largest eigenvalue and sample counts
# ---------------------------------------------------------------------

def test_lambda2_lhz_examples():
    assert lambda2_lhz(BELL_SPEC) == pytest.approx(1.0 / 3.0, abs=1e-12)
    spec = GhzSpec(2, 2, [1.0, 0.0])
    assert lambda2_lhz(spec) == pytest.approx(1.0 / 3.0, abs=1e-12)
    theta = math.pi / 6.0
    assert lambda2_lhz(theta_spec(theta)) == pytest.approx(
        math.cos(theta) ** 2 / (2.0 + math.cos(theta) ** 2), abs=1e-12
    )


def test_lambda2_lhz_closed_form_matches_materialized_powers():
    for spec in (BELL_SPEC, GhzSpec(2, 2, np.sqrt([0.8, 0.2])), theta_spec(0.5)):
        s0, s1 = spec.coeffs[0], spec.coeffs[1]
        for k in (1, 2, 3):
            top = (spec.n - 1) * s0 ** (2 * k) + s0 ** (2 * k - 2) * s1**2
            closed = top / (spec.n + top)
            materialized = lambda2_lhz(tensor_power_spec(spec, k))
            assert abs(closed - materialized) < 1e-12


def test_n_de_k_bell_anchor():
    rep = n_de_k(BELL_SPEC, 2, 1e-3, 1e-3)
    assert rep.formula_id == "dimension_expansion"
    assert rep.approx_N == pytest.approx(8634.694098727671, rel=1e-12)
    assert rep.exact_N < rep.approx_N * 1.01


def test_n_de_1_equals_single_copy_count():
    for spec in (BELL_SPEC, theta_spec(0.4)):
        rep = n_de_k(spec, 1, 1e-3, 1e-3)
        base = single_copy_complexity(lambda2_lhz(spec), 1e-3, 1e-3)
        assert rep.approx_N == base.approx_N
        assert rep.exact_N == pytest.approx(base.exact_N, rel=1e-12)


def test_n_de_k_approx_consistent_with_power_lambda2():
    spec = GhzSpec(2, 2, np.sqrt([0.8, 0.2]))
    for k in (1, 2, 3):
        lam = lambda2_lhz(tensor_power_spec(spec, k))
        expected = math.log(1e3) / ((1.0 - lam) * 1e-3)
        assert n_de_k(spec, k, 1e-3, 1e-3).approx_N == pytest.approx(expected, rel=1e-12)


def test_n_de_k_degenerate_top_coefficient_is_flat():
    spec = GhzSpec(3, 2, [1.0, 0.0])
    counts = [n_de_k(spec, k, 1e-3, 1e-3).approx_N for k in (1, 2, 8, 64)]
    assert np.ptp(counts) < 1e-9


def test_n_de_k_monotone_non_increasing_in_k():
    for spec in (BELL_SPEC, theta_spec(0.3), theta_spec(0.7)):
        counts = [n_de_k(spec, k, 1e-3, 1e-3).approx_N for k in range(1, 9)]
        assert all(a >= b - 1e-12 for a, b in zip(counts, counts[1:]))


def test_n_de_64_approaches_global_count():
    glob = math.log(1e3) / 1e-3
    for s0sq in (0.5, 0.7225, 0.9025):  # s0 in [1/sqrt(2), 0.95]
        spec = GhzSpec(2, 2, np.sqrt([s0sq, 1.0 - s0sq]))
        rep = n_de_k(spec, 64, 1e-3, 1e-3)
        assert abs(rep.approx_N / glob - 1.0) < 1e-3


SPEC_ANGLES = st.floats(min_value=0.05, max_value=math.pi / 4)
PARTIES = st.integers(min_value=2, max_value=5)
GROUP_EPSILONS = st.floats(min_value=1e-6, max_value=0.4)
GROUP_DELTAS = st.floats(min_value=1e-9, max_value=0.5)


def two_level_spec(n: int, angle: float) -> GhzSpec:
    return GhzSpec(n, 2, [math.cos(angle), math.sin(angle)])


@pytest.mark.parametrize("k", range(1, 5))
@seed(27)
@given(n=PARTIES, angle=SPEC_ANGLES, eps=st.lists(GROUP_EPSILONS, min_size=2, max_size=2),
       delta=GROUP_DELTAS)
@settings(max_examples=15, deadline=None, database=None)
def test_n_de_k_exact_count_falls_as_epsilon_grows(k, n, angle, eps, delta):
    low, high = sorted(eps)
    assume(high > low * (1.0 + 1e-6))
    spec = two_level_spec(n, angle)
    assert n_de_k(spec, k, high, delta).exact_N < n_de_k(spec, k, low, delta).exact_N


@pytest.mark.parametrize("k", range(1, 5))
@seed(27)
@given(n=PARTIES, angles=st.lists(SPEC_ANGLES, min_size=2, max_size=2), eps=GROUP_EPSILONS,
       delta=GROUP_DELTAS)
@settings(max_examples=15, deadline=None, database=None)
def test_n_de_k_exact_count_falls_as_the_gap_grows(k, n, angles, eps, delta):
    # The gap 1 - lambda of each spec, read off the leading-order count
    # ln(1/delta) / ((1 - lambda) epsilon); exact_N is a separate formula.
    reports = [n_de_k(two_level_spec(n, angle), k, eps, delta) for angle in angles]
    gaps = [math.log(1.0 / delta) / (rep.approx_N * eps) for rep in reports]
    assume(abs(gaps[0] - gaps[1]) > 1e-6 * max(gaps))
    wide, narrow = sorted(reports, key=lambda rep: rep.approx_N)
    assert wide.exact_N < narrow.exact_N


@pytest.mark.parametrize("k", range(1, 5))
@seed(27)
@given(n=PARTIES, angle=SPEC_ANGLES, eps=GROUP_EPSILONS,
       delta=st.lists(GROUP_DELTAS, min_size=2, max_size=2))
@settings(max_examples=15, deadline=None, database=None)
def test_n_de_k_exact_count_is_linear_in_log_one_over_delta(k, n, angle, eps, delta):
    spec = two_level_spec(n, angle)
    per_log = [n_de_k(spec, k, eps, d).exact_N / math.log(1.0 / d) for d in delta]
    assert per_log[1] == pytest.approx(per_log[0], rel=1e-12)


def test_n_de_k_validation():
    with pytest.raises(ValueError, match="at least 1"):
        n_de_k(BELL_SPEC, 0, 1e-3, 1e-3)
    with pytest.raises(ValueError, match=r"epsilon = 0.0 outside \(0, 1\)"):
        n_de_k(BELL_SPEC, 2, 0.0, 1e-3)
    with pytest.raises(ValueError, match=r"delta = 1.0 outside \(0, 1\)"):
        n_de_k(BELL_SPEC, 2, 1e-3, 1.0)
    # k = 200 groups at epsilon = 0.3 fail with certainty: the per-group
    # pass probability 1 - (1 - lambda) (1 - 0.7^200) rounds to 0.
    wide = GhzSpec(2, 2, [math.cos(0.7), math.sin(0.7)])
    with pytest.raises(ValueError, match="not positive"):
        n_de_k(wide, 200, 0.3, 1e-3)


# ---------------------------------------------------------------------
# The five-basis d = 4 strategy
# ---------------------------------------------------------------------

def test_mub_bases_are_mutually_unbiased():
    # Rows of each table are one basis: orthonormal within a table, overlap
    # 1/4 in squared modulus across tables.
    assert len(_MUB_TABLES) == 5
    for la, a in enumerate(_MUB_TABLES):
        assert a.shape == (4, 4)
        for lb, b in enumerate(_MUB_TABLES):
            overlaps = np.abs(a.conj() @ b.T) ** 2
            expected = np.eye(4) if la == lb else np.full((4, 4), 0.25)
            assert np.max(np.abs(overlaps - expected)) < 1e-10


def test_mub_strategy_second_eigenvalue_closed_form():
    for theta in (0.1, 0.35, math.pi / 4.0 - 0.01):
        strat = mub_strategy_d4(theta)
        expected = math.cos(theta) ** 2 / (2.0 + math.cos(theta) ** 2)
        assert abs(lambda2(strat) - expected) < 1e-9


def test_mub_strategy_matches_ghz_family_eigenvalue():
    theta = 0.52
    assert abs(lambda2(mub_strategy_d4(theta)) - lambda2_lhz(theta_spec(theta))) < 1e-9


def test_mub_strategy_complexity_closed_form():
    theta = 0.3
    lam = lambda2(mub_strategy_d4(theta))
    rep = single_copy_complexity(lam, 1e-3, 1e-3)
    closed = (2.0 + math.cos(theta) ** 2) / (2.0 * 1e-3) * math.log(1e3)
    assert rep.approx_N == pytest.approx(closed, rel=1e-9)


def test_mub_strategy_decomposition_shape():
    strat = mub_strategy_d4(0.3)
    assert strat.copies == 1
    assert len(strat.decomposition) == 10
    total = sum(p for p, _ in strat.decomposition)
    assert abs(total - 1.0) < 1e-12


def test_mub_strategy_matches_the_kron_sum_reference_bit_for_bit():
    # 1e-13 and 1e-7 leave computational-basis vectors without overlap.
    grid = [1e-13, 1e-7, 0.05, 0.2, 0.3, 0.5, 0.7, math.pi / 4.0 - 1e-9]
    for theta in grid + list(np.linspace(0.01, 0.78, 32)):
        built, reference = mub_strategy_d4(theta), mub_strategy_kron_sum(theta)
        assert np.array_equal(built.omega.entries, reference.omega.entries), theta
        assert len(built.decomposition) == len(reference.decomposition) == 10
        for (p, test), (p_ref, test_ref) in zip(built.decomposition, reference.decomposition):
            assert p == p_ref, theta
            assert np.array_equal(test.entries, test_ref.entries), theta


def test_mub_strategy_theta_domain():
    with pytest.raises(ValueError, match="open interval"):
        mub_strategy_d4(0.0)
    with pytest.raises(ValueError, match="open interval"):
        mub_strategy_d4(math.pi / 4.0)
    with pytest.raises(ValueError, match="open interval"):
        mub_strategy_d4(-0.2)
