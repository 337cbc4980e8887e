"""Monte Carlo protocol sampling and the independent worst-case search."""

import ast
import inspect
import math
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_unit, traced_peak_mib
from qsvkit import montecarlo, strategy
from qsvkit.ghz import mub_strategy_d4
from qsvkit.graph_strategy import GraphStrategy, graph_pass_probability, omega_graph
from qsvkit.graphs import Graph, graph_state, parity_accept_indices
from qsvkit.montecarlo import (
    TrialConfig,
    fidelity_experiment,
    simulate_protocol,
    worst_case_oracle,
)
from qsvkit.qcore import Ket, Operator, bell_ket, orthonormal_complement
from qsvkit.strategy import Strategy, insurance_ceiling, reference_bell_artifacts, two_copy_analysis
from reference import (
    alternate,
    bell_table,
    sphere_max,
    worst_case_search,
)


PATH2 = Graph(2, [(1, 2)])
TRIANGLE = Graph(3, [(1, 2), (2, 3), (1, 3)])


def graph_mix(g: Graph, weight: float) -> list[tuple[float, Ket]]:
    target = graph_state(g)
    perp = orthonormal_complement(target)[:, 0]
    return [(weight, target), (1.0 - weight, Ket(perp, target.dims))]


def three_sigma(p: float, trials: int) -> float:
    return 3.0 * math.sqrt(p * (1.0 - p) / trials) + 1e-12


def bell_product_strategy() -> Strategy:
    strat, _ = reference_bell_artifacts()
    prod = np.kron(strat.omega.entries, strat.omega.entries)
    decomposition = [
        (pa * pb, Operator(np.kron(ta.entries, tb.entries), (4, 4), hermitian=True))
        for pa, ta in strat.decomposition
        for pb, tb in strat.decomposition
    ]
    return Strategy(Operator(prod, (4, 4), hermitian=True), strat.target, 2, decomposition)


# ---------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------

def test_trial_config_normalizes_single_ket():
    cfg = TrialConfig(10, 1, bell_ket(0, 0))
    assert len(cfg.source) == 1
    assert cfg.source[0][0] == 1.0


def test_trial_config_validation(rng):
    ket = Ket(random_unit(rng, 4), (2, 2))
    with pytest.raises(ValueError, match="positive"):
        TrialConfig(0, 1, ket)
    with pytest.raises(ValueError, match="64-bit"):
        TrialConfig(10, -1, ket)
    with pytest.raises(ValueError, match="at least one"):
        TrialConfig(10, 1, [])
    with pytest.raises(ValueError, match="negative weight"):
        TrialConfig(10, 1, [(1.5, ket), (-0.5, ket)])
    with pytest.raises(ValueError, match="sum to"):
        TrialConfig(10, 1, [(0.5, ket), (0.4, ket)])
    other = Ket(random_unit(rng, 2), (2,))
    with pytest.raises(ValueError, match="dim"):
        TrialConfig(10, 1, [(0.5, ket), (0.5, other)])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite weight"):
            TrialConfig(10, 1, [(bad, ket), (0.5, ket)])
        with pytest.raises(ValueError, match="non-finite weight"):
            TrialConfig(10, 1, [(0.5, ket), (bad, ket)])


# ---------------------------------------------------------------------
# Graph key builds: the flip stage
# ---------------------------------------------------------------------

def test_graph_key_builds_give_the_exact_pair_rates():
    # A graph key's pass probability, summed from the sampler's own flip
    # stage, is the pair's exact pass probability.
    g = ring(3)
    source = iid_graph_source(3)
    # The sampler's own arithmetic: a ket with no imaginary part runs real.
    kets = [k.amplitudes for _, k in source]
    kets = [ket.real if not ket.imag.any() else ket for ket in kets]
    codes = parity_accept_indices(g)
    rates = np.array([np.sum(montecarlo._flip_stage(3, codes, b, a)) for a in kets for b in kets])
    exact = [graph_pass_probability(omega_graph(g), ka, kb)[0] for _, ka in source for _, kb in source]
    assert np.max(np.abs(rates - exact)) <= 1e-14


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("block", ["default", "one-column", "three-columns"])
def test_bell_table_matches_the_hadamard_product(rng, monkeypatch, n, block):
    # The flip stage is the dense Bell table's accepted entries, at any
    # number of flip strings per block.
    d = 1 << n
    if block != "default":
        monkeypatch.setattr(montecarlo, "_FLIP_BLOCK_ENTRIES", (1 if block == "one-column" else 3) << n)
    a, b = random_unit(rng, d), random_unit(rng, d)
    pair = random_unit(rng, d * d).reshape(d, d)
    cases = [
        (np.outer(left, right), (right, left))
        for left, right in ((a, b), (a.real, b.real), (a.real, b))
    ] + [(matrix, (matrix,)) for matrix in (pair, pair.real)]
    for codes in (parity_accept_indices(ring(n)), rng.integers(0, d, size=d)):
        for matrix, args in cases:
            table = bell_table(n, matrix)
            accepted = montecarlo._flip_stage(n, codes, *args)
            assert np.max(np.abs(accepted - table[codes, np.arange(d)])) <= 1e-14


@pytest.mark.parametrize("n", range(1, 7))
def test_real_kets_give_the_complex_bell_table(n):
    d = 1 << n
    codes = parity_accept_indices(ring(n))
    target = graph_state(ring(n))
    perp = orthonormal_complement(target)[:, 0]
    target = target.amplitudes
    assert not target.imag.any() and not perp.imag.any()
    pairs = [(target, target), (target, perp), (perp, target), (perp, perp)]
    pair = np.kron(target, perp).reshape(d, d)
    # The real sums run in another order than the complex ones, so they agree to rounding.
    for args in [(b, a) for a, b in pairs] + [(pair,)]:
        complex_stage = montecarlo._flip_stage(n, codes, *args)
        real_stage = montecarlo._flip_stage(n, codes, *(arg.real for arg in args))
        assert np.allclose(real_stage, complex_stage, rtol=0.0, atol=1e-14)


# ---------------------------------------------------------------------
# Graph-protocol sampling
# ---------------------------------------------------------------------

def montecarlo_imports() -> dict[str, set[str]]:
    """The names montecarlo imports, by module; a whole-module import of an analysis fails."""
    tree = ast.parse(Path(montecarlo.__file__).read_text(encoding="utf-8"))
    guarded = {"graphs", "graph_strategy", "strategy"}
    imported: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not {alias.name.rpartition(".")[2] for alias in node.names} & guarded
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            module = (node.module or "").rpartition(".")[2]
            if module in ("", "qsvkit"):
                assert not names & guarded
            imported.setdefault(module, set()).update(names)
    return imported


def test_montecarlo_imports_only_the_graph_names_its_cross_check_needs():
    # The sampler and the oracle check the analysis, so they share no formulas
    # with it: from graph_strategy they take only the strategy record and the
    # pass-rate-to-fidelity map, from graphs only the target state and the
    # code table. A whole-module import would expose every other helper.
    imported = montecarlo_imports()
    assert imported["graph_strategy"] == {"GraphStrategy", "fidelity_from_passrate"}
    assert imported["graphs"] == {"graph_state", "parity_accept_indices"}


def test_montecarlo_imports_no_function_from_the_two_copy_analysis():
    # The oracle checks its own inputs, so from strategy it takes the record
    # type and at most the structural tolerance, never an analysis function.
    names = montecarlo_imports()["strategy"]
    assert [name for name in names if inspect.isfunction(getattr(strategy, name))] == []


def test_graph_simulation_reproducible_and_seed_sensitive():
    gs = omega_graph(PATH2, matrix_free=False)
    cfg = TrialConfig(20000, 42, graph_mix(PATH2, 0.9))
    first = simulate_protocol(gs, cfg)
    second = simulate_protocol(gs, TrialConfig(20000, 42, graph_mix(PATH2, 0.9)))
    assert first == second
    shifted = simulate_protocol(gs, TrialConfig(20000, 43, graph_mix(PATH2, 0.9)))
    assert shifted[0] != first[0]


def test_graph_simulation_tracks_exact_rate():
    for g in (PATH2, TRIANGLE):
        gs = omega_graph(g, matrix_free=False)
        mix = graph_mix(g, 0.85)
        exact = 0.0
        for wa, ka in mix:
            for wb, kb in mix:
                exact += wa * wb * graph_pass_probability(gs, ka, kb)[0]
        trials = 100000
        _, p_emp, stderr = simulate_protocol(gs, TrialConfig(trials, 7, mix))
        assert abs(p_emp - exact) <= three_sigma(exact, trials)
        assert stderr == pytest.approx(math.sqrt(p_emp * (1.0 - p_emp) / trials))


def test_graph_simulation_composite_source():
    # Correlated two-copy fakes: drawn once per round on the doubled space.
    gs = omega_graph(PATH2, matrix_free=False)
    target = graph_state(PATH2)
    tt = np.kron(target.amplitudes, target.amplitudes)
    perp = orthonormal_complement(target)[:, 1]
    pp = np.kron(perp, perp)
    comps = [(0.7, Ket(tt, (4, 4))), (0.3, Ket(pp, (4, 4)))]
    om = gs.strategy.omega.entries
    exact = sum(w * float(np.real(k.amplitudes.conj() @ om @ k.amplitudes)) for w, k in comps)
    trials = 100000
    _, p_emp, _ = simulate_protocol(gs, TrialConfig(trials, 11, comps))
    assert abs(p_emp - exact) <= three_sigma(exact, trials)


def test_graph_simulation_rejects_misfit_source(rng):
    gs = omega_graph(PATH2, matrix_free=False)
    bad = Ket(random_unit(rng, 8), (2, 2, 2))
    with pytest.raises(ValueError, match="neither"):
        simulate_protocol(gs, TrialConfig(10, 1, bad))


# ---------------------------------------------------------------------
# Decomposition sampling
# ---------------------------------------------------------------------

def test_single_copy_decomposition_tracks_exact_rate():
    strat, _ = reference_bell_artifacts()
    mix = [(0.8, bell_ket(0, 0)), (0.2, bell_ket(1, 1))]
    om = strat.omega.entries
    exact = sum(w * float(np.real(k.amplitudes.conj() @ om @ k.amplitudes)) for w, k in mix)
    trials = 100000
    _, p_emp, _ = simulate_protocol(strat, TrialConfig(trials, 5, mix))
    assert abs(p_emp - exact) <= three_sigma(exact, trials)


def test_two_copy_decomposition_iid_product():
    strat, _ = reference_bell_artifacts()
    s2 = bell_product_strategy()
    mix = [(0.9, bell_ket(0, 0)), (0.1, bell_ket(0, 1))]
    om = strat.omega.entries
    single = sum(w * float(np.real(k.amplitudes.conj() @ om @ k.amplitudes)) for w, k in mix)
    exact = single * single
    trials = 100000
    _, p_emp, _ = simulate_protocol(s2, TrialConfig(trials, 21, mix))
    assert abs(p_emp - exact) <= three_sigma(exact, trials)


def test_decomposition_guards(rng):
    target = Ket(random_unit(rng, 2), (2,))
    omega = Operator(np.outer(target.amplitudes, target.amplitudes.conj()), (2,), hermitian=True)
    bare = Strategy(omega, target)
    with pytest.raises(ValueError, match="no decomposition"):
        simulate_protocol(bare, TrialConfig(10, 1, target))

    tt = np.kron(np.kron(target.amplitudes, target.amplitudes), target.amplitudes)
    omega3 = Operator(np.outer(tt, tt.conj()), (2, 2, 2), hermitian=True)
    s3 = Strategy(omega3, target, 3, [(1.0, omega3)])
    with pytest.raises(ValueError, match="at most two copies"):
        simulate_protocol(s3, TrialConfig(10, 1, target))


# ---------------------------------------------------------------------
# Pinned pass counts, the run's draws and bounded memory
# ---------------------------------------------------------------------

def ring(n: int) -> Graph:
    if n == 1:
        return Graph(1)
    if n == 2:
        return PATH2
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def closed_form_ket(dim: int, phase: float) -> np.ndarray:
    """A fixed dense unit vector, free of any random generator."""
    k = np.arange(dim)
    vec = np.cos(phase * (k + 1)) + 1.0j * np.sin(0.7 * phase * k + 0.3)
    return vec / np.linalg.norm(vec)


def iid_graph_source(n: int) -> list[tuple[float, Ket]]:
    """One to three single-copy components: the target, a near-target, a spread ket."""
    target = graph_state(ring(n))
    d = target.dim
    near = np.sqrt(0.9) * target.amplitudes + np.sqrt(0.1) * closed_form_ket(d, 0.41 + n)
    near /= np.linalg.norm(near)
    comps = [Ket(near, target.dims), Ket(closed_form_ket(d, 1.7 * n), target.dims)]
    count = 1 if n == 2 else 2 + n % 2
    weights = {1: [1.0], 2: [0.8, 0.2], 3: [0.7, 0.2, 0.1]}[count]
    return list(zip(weights, [target] + comps[: count - 1]))


def composite_ring4_source() -> list[tuple[float, Ket]]:
    target = graph_state(ring(4)).amplitudes
    dims = (16, 16)
    return [
        (0.6, Ket(np.kron(target, target), dims)),
        (0.25, Ket(closed_form_ket(256, 0.53), dims)),
        (0.15, Ket(np.kron(target, closed_form_ket(16, 2.2)), dims)),
    ]


BELL_MIX = [(0.75, bell_ket(0, 0)), (0.15, bell_ket(1, 1)), (0.1, Ket(closed_form_ket(4, 0.9), (2, 2)))]

# (n, trials, seed) per i.i.d. ring case; trial counts sit on both sides of 65,536.
RING_CASES = {
    f"ring{n}-{trials}": (n, trials, seed)
    for n, trials, seed in [
        (1, 1, 101), (1, 65537, 102),
        (2, 3, 201), (2, 65536, 202),
        (3, 65535, 301), (3, 70001, 302),
        (4, 1000, 401), (4, 200003, 402),
        (5, 65535, 501), (5, 65537, 502),
        (6, 2, 601), (6, 131072, 602),
        (7, 4099, 701), (7, 65537, 702),
        (8, 65535, 801), (8, 131075, 802),
    ]
}


def pinned_case(name: str) -> tuple[Strategy | GraphStrategy, TrialConfig]:
    if name in RING_CASES:
        n, trials, seed = RING_CASES[name]
        return omega_graph(ring(n)), TrialConfig(trials, seed, iid_graph_source(n))
    if name == "ring4-composite":
        return omega_graph(ring(4)), TrialConfig(100003, 41, composite_ring4_source())
    if name == "bell":
        return reference_bell_artifacts()[0], TrialConfig(70001, 51, BELL_MIX)
    if name == "bell-product":
        return bell_product_strategy(), TrialConfig(65537, 52, BELL_MIX)
    if name == "bell-product-composite":
        a, b = bell_ket(0, 0).amplitudes, bell_ket(0, 1).amplitudes
        comps = [
            (0.5, Ket(np.kron(a, a), (4, 4))),
            (0.3, Ket(closed_form_ket(16, 0.77), (4, 4))),
            (0.2, Ket(np.kron(a, b), (4, 4))),
        ]
        return bell_product_strategy(), TrialConfig(131071, 53, comps)
    if name == "mub-d4":
        s = mub_strategy_d4(0.3)
        mix = [(0.85, s.target), (0.15, Ket(closed_form_ket(16, 1.1), s.target.dims))]
        return s, TrialConfig(65539, 54, mix)
    raise KeyError(name)


def pinned_run(name: str) -> tuple[int, float, float]:
    return simulate_protocol(*pinned_case(name))


def pinned_rate(name: str) -> float:
    """The exact pass rate of a pinned run's subject and source."""
    subject, cfg = pinned_case(name)
    source = cfg.source
    if name in RING_CASES:
        return sum(
            wa * wb * graph_pass_probability(subject, ka, kb)[0]
            for wa, ka in source
            for wb, kb in source
        )
    if name == "ring4-composite":
        omega = omega_graph(ring(4), matrix_free=False).strategy.omega.entries
    else:
        omega = subject.omega.entries
    states = [(w, k.amplitudes) for w, k in source]
    if name == "bell-product":  # an i.i.d. source: one draw per copy
        states = [(wa * wb, np.kron(a, b)) for wa, a in states for wb, b in states]
    return sum(w * float(np.real(np.vdot(v, omega @ v))) for w, v in states)


# Pass counts of the sampler that splits a run's trials over the source keys
# by one multinomial draw, then adds one binomial draw per drawn key in key
# order, all from Generator(Philox(key=seed)) under numpy 2.4.6. numpy may
# change its multinomial and binomial algorithms between versions (NEP 19), so
# under another numpy these counts may move while their law stays.
# ring1-1, ring2-3, ring2-65536 and ring6-2 kept the counts of the per-trial
# samplers before it, which read raw Philox words per trial.
# test_pinned_counts_lie_within_five_sigma_of_the_exact_rate backs them all, and
# test_pass_counts_are_unbiased_over_seeds backs the rule; neither depends on
# the numpy version.
PINNED_PASSES = {
    "ring1-1": 1,
    "ring1-65537": 60405,
    "ring2-3": 3,
    "ring2-65536": 65536,
    "ring3-65535": 52240,
    "ring3-70001": 55689,
    "ring4-1000": 970,
    "ring4-200003": 192039,
    "ring5-65535": 51099,
    "ring5-65537": 51324,
    "ring6-131072": 126077,
    "ring6-2": 2,
    "ring7-4099": 3191,
    "ring7-65537": 51004,
    "ring8-131075": 125947,
    "ring8-65535": 62963,
    "ring4-composite": 63418,
    "bell": 59054,
    "bell-product": 46571,
    "bell-product-composite": 84505,
    "mub-d4": 58003,
}


@pytest.mark.parametrize("name", sorted(PINNED_PASSES))
def test_pass_counts_match_the_pinned_counts(name):
    assert pinned_run(name)[0] == PINNED_PASSES[name]


@pytest.mark.parametrize("name", sorted(PINNED_PASSES))
def test_pinned_counts_lie_within_five_sigma_of_the_exact_rate(name):
    # A re-pin cannot record a count that the law does not back.
    trials = pinned_case(name)[1].trials
    rate = pinned_rate(name)
    sigma = math.sqrt(max(rate * (1.0 - rate), 0.0) / trials)
    assert abs(PINNED_PASSES[name] / trials - rate) <= 5.0 * sigma + 1e-12


@pytest.mark.parametrize("name", ["ring4-200003", "bell-product"])
def test_pass_counts_are_unbiased_over_seeds(name):
    # One pinned count cannot show a bias. Over 64 seeds the z-scores against
    # the exact rate have a mean within 0.5 of zero (4 sigma of a mean of 64)
    # and a standard deviation within 0.3 of one.
    subject, cfg = pinned_case(name)
    rate = pinned_rate(name)
    trials = 100_000
    sigma = math.sqrt(rate * (1.0 - rate) / trials)
    z = [
        (simulate_protocol(subject, TrialConfig(trials, seed, cfg.source))[0] / trials - rate) / sigma
        for seed in range(1000, 1064)
    ]
    assert abs(np.mean(z)) <= 0.5
    assert 0.7 <= np.std(z, ddof=1) <= 1.3


def frame_source(g: Graph) -> list[tuple[float, Ket]]:
    """|G> and Z_1|G> at weights 0.7 and 0.3: a pair of equal kets passes surely, else never."""
    target = graph_state(g)
    flipped = np.where((np.arange(target.dim) >> (g.n - 1)) & 1, -1.0, 1.0) * target.amplitudes
    return [(0.7, target), (0.3, Ket(flipped, target.dims))]


@pytest.mark.parametrize("g", [PATH2, ring(4)], ids=["path2", "ring4"])
def test_pass_counts_are_the_multinomial_counts_of_the_passing_keys(g):
    # Keys 0 and 3 pass with 1 and keys 1 and 2 with 0, so whatever the
    # binomial draws, the run passes exactly the trials that the multinomial
    # split gives keys 0 and 3.
    gs, source = omega_graph(g), frame_source(g)
    rates = [graph_pass_probability(gs, ka, kb)[0] for _, ka in source for _, kb in source]
    assert np.allclose(rates, [1.0, 0.0, 0.0, 1.0], rtol=0.0, atol=1e-12)
    trials, seed, w = 100_003, 11, np.array([0.7, 0.3])
    counts = np.random.Generator(np.random.Philox(key=seed)).multinomial(trials, np.outer(w, w).ravel())
    assert simulate_protocol(gs, TrialConfig(trials, seed, source))[0] == counts[0] + counts[3]


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_uniforms_are_the_top_53_bits_of_the_raw_philox_words(seed):
    # The run's generator reads the raw Philox stream, which numpy keeps
    # stable across versions; only the algorithms drawing from it may change.
    k = 5000
    uniforms = np.random.Generator(np.random.Philox(key=seed)).random((k, 4))
    words = np.random.Philox(key=seed).random_raw(4 * k).reshape(k, 4)
    assert np.array_equal(uniforms, (words >> 11) * 2.0**-53)


def one_draw(trials: int, seed: int, weights: np.ndarray, rates) -> int:
    """The documented draws: one multinomial split of the trials over the
    i.i.d. pair keys a * components + b, then one binomial per key's block of
    trials in key order, all from one Generator(Philox(key=seed))."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    key_weights = np.outer(weights, weights).ravel()
    counts = rng.multinomial(trials, key_weights / key_weights.sum())
    return sum(int(rng.binomial(counts[key], rates[key])) for key in np.flatnonzero(counts))


BLOCK_WORD_TRIALS = [1, 2**15 - 1, 2**15, 2**15 + 1, 3 * 2**15 + 7]


@pytest.mark.parametrize("trials", BLOCK_WORD_TRIALS)
def test_block_words_together_equal_one_draw(trials):
    # The decomposition sampler's key blocks pass at sum_t w_t p_t, and its
    # draws together equal one_draw at every trial count, one trial included.
    s = bell_product_strategy()
    weights = np.array([w for w, _ in BELL_MIX])
    states = [np.kron(ka.amplitudes, kb.amplitudes) for _, ka in BELL_MIX for _, kb in BELL_MIX]
    tests = np.array([p for p, _ in s.decomposition])
    rates = [
        tests @ np.clip([float(np.real(np.vdot(v, t.entries @ v))) for _, t in s.decomposition], 0.0, 1.0)
        for v in states
    ]
    seed = 2**64 - 5
    assert simulate_protocol(s, TrialConfig(trials, seed, BELL_MIX))[0] == one_draw(trials, seed, weights, rates)


@pytest.mark.parametrize("trials", BLOCK_WORD_TRIALS)
def test_block_words_from_odd_starts_together_equal_one_draw(monkeypatch, trials):
    # Each graph key's flip stage runs in blocks of 3 of its 8 flip strings,
    # so blocks start at odd strings; the run still equals one_draw over the
    # keys' rates summed in one block.
    g = ring(3)
    source = iid_graph_source(3)
    kets = [k.amplitudes for _, k in source]
    kets = [ket.real if not ket.imag.any() else ket for ket in kets]
    codes = parity_accept_indices(g)
    rates = [float(np.sum(montecarlo._flip_stage(3, codes, b, a))) for a in kets for b in kets]
    weights = np.array([w for w, _ in source])
    monkeypatch.setattr(montecarlo, "_FLIP_BLOCK_ENTRIES", 3 << 3)
    seed = 2**64 - 5
    passes = simulate_protocol(omega_graph(g), TrialConfig(trials, seed, source))[0]
    assert passes == one_draw(trials, seed, weights, rates)


def test_only_drawn_keys_are_built_and_each_once(monkeypatch):
    # Nine keys of weights w_a * w_b down to 0.01; 30 trials leave some undrawn.
    source = iid_graph_source(3)
    trials, seed = 30, 5
    weights = np.array([w for w, _ in source])
    counts = np.random.Generator(np.random.Philox(key=seed)).multinomial(
        trials, np.outer(weights, weights).ravel()
    )
    assert (counts == 0).any() and (counts > 1).any()
    kets = [k.amplitudes for _, k in source]
    flip_stage, built = montecarlo._flip_stage, []

    def recording(n, codes, amplitudes, left=None):
        a, b = (next(i for i, ket in enumerate(kets) if np.array_equal(ket, v)) for v in (left, amplitudes))
        built.append(a * len(kets) + b)
        return flip_stage(n, codes, amplitudes, left)

    monkeypatch.setattr(montecarlo, "_flip_stage", recording)
    simulate_protocol(omega_graph(ring(3)), TrialConfig(trials, seed, source))
    assert built == np.flatnonzero(counts).tolist()


@pytest.mark.parametrize("subject", ["graph", "decomposition"])
def test_sources_with_more_key_rows_than_the_bound_are_refused_before_any_is_built(
    monkeypatch, subject
):
    # 1,024 keys, 32 i.i.d. components, reach the bound on the keys a source
    # may draw; 33 components are refused before the key weights are formed.
    strat = omega_graph(PATH2) if subject == "graph" else bell_product_strategy()
    outer, outers = np.outer, []
    key_passes, built = montecarlo._key_passes, []

    def recording_outer(a, b, out=None):
        outers.append(len(a))
        return outer(a, b, out)

    def recording_builds(cfg, pairs, build):
        return key_passes(cfg, pairs, lambda key: built.append(key) or build(key))

    monkeypatch.setattr(np, "outer", recording_outer)
    monkeypatch.setattr(montecarlo, "_key_passes", recording_builds)

    def source(comps: int) -> list[tuple[float, Ket]]:
        return [(1.0 / comps, Ket(closed_form_ket(4, 0.3 + 0.1 * k), (2, 2))) for k in range(comps)]

    assert 0 <= simulate_protocol(strat, TrialConfig(10, 3, source(32)))[0] <= 10
    assert 32 in outers and 1 <= len(built) <= 10  # the key weights; the drawn keys
    outers.clear()
    built.clear()
    with pytest.raises(ValueError, match="1089 keys, over the bound of 1024 keys"):
        simulate_protocol(strat, TrialConfig(10, 3, source(33)))
    assert outers == [] and built == []


def test_a_failing_block_raises_in_the_caller(second_block_refused):
    with pytest.raises(ValueError, match="second key refused"):
        simulate_protocol(omega_graph(ring(3)), TrialConfig(3000, 5, graph_mix(ring(3), 0.5)))
    assert len(second_block_refused) == 2


def chunk_invariance_runs() -> list[int]:
    g3 = Graph(3, [(1, 2), (2, 3)])
    target3 = graph_state(g3)
    iid3 = [
        (0.6, target3),
        (0.3, Ket(closed_form_ket(8, 0.63), target3.dims)),
        (0.1, Ket(closed_form_ket(8, 2.9), target3.dims)),
    ]
    gs4 = omega_graph(ring(4))
    return [
        simulate_protocol(omega_graph(g3), TrialConfig(5000, 61, iid3))[0],
        simulate_protocol(gs4, TrialConfig(4999, 62, composite_ring4_source()))[0],
        simulate_protocol(bell_product_strategy(), TrialConfig(5000, 63, BELL_MIX))[0],
    ]


@pytest.mark.parametrize("chunk", [1, 7, 100_000])
def test_pass_counts_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    # The chunk is the flip stage's block of gathered pair amplitudes; at 1
    # and 7 each block holds one flip string.
    default = chunk_invariance_runs()
    monkeypatch.setattr(montecarlo, "_FLIP_BLOCK_ENTRIES", chunk)
    assert chunk_invariance_runs() == default


def on_workers(workers: int, run) -> tuple[list, set[int]]:
    """run() on the caller and on workers - 1 threads at once; returns the
    results and the callers' thread idents."""
    results, callers = [None] * workers, set()

    def worker(index: int) -> None:
        callers.add(threading.get_ident())
        results[index] = run()

    threads = [threading.Thread(target=worker, args=(index,)) for index in range(1, workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads switch often, so shared state between runs would show
    try:
        for thread in threads:
            thread.start()
        worker(0)
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    return results, callers


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pass_counts_do_not_depend_on_the_worker_count(workers):
    # Runs share no state, so concurrent runs each give their serial count.
    default = chunk_invariance_runs()
    names = ["ring4-200003", "ring8-131075", "ring4-composite", "bell-product-composite"]
    pinned, _ = on_workers(workers, lambda: [pinned_run(name)[0] for name in names])
    assert pinned == [[PINNED_PASSES[name] for name in names]] * workers
    assert on_workers(workers, chunk_invariance_runs)[0] == [default] * workers


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_blocks_are_drawn_on_at_most_one_thread_per_worker(monkeypatch, workers):
    # The sampler starts no threads: every flip-stage block of a run is
    # signed on the thread that called it.
    default = chunk_invariance_runs()
    monkeypatch.setattr(montecarlo, "_FLIP_BLOCK_ENTRIES", 7)
    drawers = set()
    walsh_signs = montecarlo.walsh_signs

    def recording(*args):
        drawers.add(threading.get_ident())
        return walsh_signs(*args)

    monkeypatch.setattr(montecarlo, "walsh_signs", recording)
    results, callers = on_workers(workers, chunk_invariance_runs)
    assert results == [default] * workers
    assert threading.get_ident() in drawers
    assert drawers == callers and len(drawers) <= workers


def test_a_run_of_10_to_the_15_trials_takes_under_a_second():
    # The run's cost is one multinomial and one binomial per drawn key.
    gs = omega_graph(PATH2)
    mix = graph_mix(PATH2, 0.95)
    rate = sum(wa * wb * graph_pass_probability(gs, ka, kb)[0] for wa, ka in mix for wb, kb in mix)
    trials = 10**15
    start = time.perf_counter()
    passes, _, _ = simulate_protocol(gs, TrialConfig(trials, 0, mix))
    assert time.perf_counter() - start < 1.0
    assert abs(passes / trials - rate) <= 5.0 * math.sqrt(rate * (1.0 - rate) / trials)


def test_each_key_table_is_freed_before_the_next_is_built():
    g = ring(10)
    gs = omega_graph(g)
    one_key = TrialConfig(20_000, 81, graph_state(g))
    four_keys = TrialConfig(20_000, 81, graph_mix(g, 0.9))
    one_peak = traced_peak_mib(lambda: simulate_protocol(gs, one_key))
    assert traced_peak_mib(lambda: simulate_protocol(gs, four_keys)) <= one_peak + 1.0


def test_one_graph_key_needs_no_table_of_d_squared_entries():
    # A 4^12-entry Bell table alone would take 128 MiB.
    g = ring(12)
    cfg = TrialConfig(20_000, 91, graph_state(g))
    assert traced_peak_mib(lambda: simulate_protocol(omega_graph(g), cfg)) <= 64.0


def test_sampling_memory_does_not_grow_with_the_trial_count():
    trials = 2_000_000
    gs = omega_graph(ring(4))
    graph_cfg = TrialConfig(trials, 71, graph_mix(ring(4), 0.9))
    strat, _ = reference_bell_artifacts()
    bell_cfg = TrialConfig(trials, 72, [(0.9, bell_ket(0, 0)), (0.1, bell_ket(1, 1))])
    assert traced_peak_mib(lambda: simulate_protocol(gs, graph_cfg)) < 16.0
    assert traced_peak_mib(lambda: simulate_protocol(strat, bell_cfg)) < 16.0


# ---------------------------------------------------------------------
# Fidelity experiment
# ---------------------------------------------------------------------

def test_fidelity_experiment_recovers_mixture_weight():
    f_true_target = 0.9
    gs = omega_graph(PATH2, matrix_free=False)
    mix = graph_mix(PATH2, f_true_target)
    trials = 200000
    f_hat, f_true = fidelity_experiment(gs, TrialConfig(trials, 3, mix))
    assert f_true == pytest.approx(f_true_target, abs=1e-12)
    # cross terms vanish, so the exact pass rate is F^2 + (1-F)^2 q
    exact = 0.0
    for wa, ka in mix:
        for wb, kb in mix:
            exact += wa * wb * graph_pass_probability(gs, ka, kb)[0]
    assert f_true_target**2 - 1e-12 <= exact <= f_true_target**2 + (1.0 - f_true_target) ** 2
    sigma_f = three_sigma(exact, trials) / (2.0 * math.sqrt(exact))
    assert abs(f_hat - math.sqrt(exact)) <= sigma_f


def test_fidelity_experiment_needs_iid_source():
    gs = omega_graph(PATH2, matrix_free=False)
    target = graph_state(PATH2)
    tt = np.kron(target.amplitudes, target.amplitudes)
    with pytest.raises(ValueError, match="i.i.d."):
        fidelity_experiment(gs, TrialConfig(10, 1, Ket(tt, (4, 4))))


# ---------------------------------------------------------------------
# Worst-case oracle
# ---------------------------------------------------------------------

def test_oracle_rank_one_projector_closed_form():
    target = bell_ket(0, 0)
    tt = np.kron(target.amplitudes, target.amplitudes)
    omega = Operator(np.outer(tt, tt.conj()), (4, 4), hermitian=True)
    s = Strategy(omega, target, copies=2)
    eps = 0.01
    report = worst_case_oracle(s, eps)
    assert report.converged
    assert report.p_hat == pytest.approx((1.0 - eps) ** 2, abs=1e-10)
    assert report.argmax_state_descriptors["eps_r"] == pytest.approx(eps)
    assert report.argmax_state_descriptors["eps_r_prime"] == pytest.approx(eps)
    perp = report.argmax_state_descriptors["perp"]
    assert abs(np.linalg.norm(perp) - 1.0) < 1e-9
    assert abs(target.amplitudes.conj() @ perp) < 1e-9


def test_oracle_graph_strategy_closed_form():
    gs = omega_graph(PATH2, matrix_free=False)
    eps = 1e-2
    report = worst_case_oracle(gs.strategy, eps)
    assert report.p_hat == pytest.approx(1.0 - 2.0 * eps * (1.0 - eps), abs=1e-9)


def test_oracle_product_strategy_closed_form():
    strat, _ = reference_bell_artifacts()
    prod = np.kron(strat.omega.entries, strat.omega.entries)
    s2 = Strategy(Operator(prod, (4, 4), hermitian=True), strat.target, copies=2)
    eps = 1e-2
    report = worst_case_oracle(s2, eps)
    assert report.p_hat == pytest.approx((1.0 - (2.0 / 3.0) * eps) ** 2, abs=1e-9)


def test_oracle_dominates_random_fakes(rng):
    gs = omega_graph(PATH2, matrix_free=False)
    eps = 0.05
    report = worst_case_oracle(gs.strategy, eps)
    target = graph_state(PATH2)
    comp = orthonormal_complement(target)
    for _ in range(100):
        x = random_unit(rng, comp.shape[1])
        y = random_unit(rng, comp.shape[1])
        sigma = Ket(
            math.sqrt(1.0 - eps) * target.amplitudes + math.sqrt(eps) * comp @ x, target.dims
        )
        sigma_p = Ket(
            math.sqrt(1.0 - eps) * target.amplitudes + math.sqrt(eps) * comp @ y, target.dims
        )
        exact, _ = graph_pass_probability(gs, sigma, sigma_p)
        assert exact <= report.p_hat + 1e-9


def test_oracle_shortfall_ratio_tightens_with_epsilon():
    gs = omega_graph(PATH2, matrix_free=False)
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        report = worst_case_oracle(gs.strategy, eps)
        ratios.append((1.0 - report.p_hat) / (2.0 * eps))
        assert abs(ratios[-1] - 1.0) <= 1.5 * eps
    assert ratios[0] < ratios[1] < ratios[2]


def test_oracle_input_guards(rng):
    target = Ket(random_unit(rng, 2), (2,))
    tt = np.kron(target.amplitudes, target.amplitudes)
    comp = orthonormal_complement(target)[:, 0]
    stray = np.kron(target.amplitudes, comp)
    asym = np.outer(tt, tt.conj()) + 0.5 * np.outer(stray, stray.conj())
    s_asym = Strategy(Operator(asym, (2, 2), hermitian=True), target, copies=2)
    with pytest.raises(ValueError, match="swap symmetric"):
        worst_case_oracle(s_asym, 1e-3)

    single = Strategy(
        Operator(np.outer(target.amplitudes, target.amplitudes.conj()), (2,), hermitian=True),
        target,
    )
    with pytest.raises(ValueError, match="two-copy"):
        worst_case_oracle(single, 1e-3)

    sym = Strategy(Operator(np.outer(tt, tt.conj()), (2, 2), hermitian=True), target, copies=2)
    with pytest.raises(ValueError, match="outside"):
        worst_case_oracle(sym, 0.0)
    with pytest.raises(ValueError, match="probe bound"):
        worst_case_oracle(sym, 0.6)


def test_oracle_probes_the_accept_all_strategy():
    # lambda_star = 1, which the two-copy analysis refuses; every fake passes.
    target = Ket(np.array([1.0, 0.0], dtype=complex), (2,))
    accept_all = Strategy(Operator(np.eye(4, dtype=complex), (2, 2), hermitian=True), target, 2)
    report = worst_case_oracle(accept_all, 1e-3)
    assert abs(report.p_hat - 1.0) <= 1e-12
    assert report.converged


def _local_max_failing_strategy(seed: int, d: int = 3) -> Strategy:
    """Swap-symmetric Omega with lambda_star = xi_star = 0.9 and gamma_star = 0.45.

    In the basis of a random unitary U, with psi = U|0>: |00> is accepted, the
    symmetric and antisymmetric pairs of |01> with 0.9 each, and the symmetric
    pair of |02> with 0.9. The analysis' compressions are then a = diag(0.9,
    0.45) and g = diag(0, 0.45) on psi-perp, which share no top eigenvector,
    so xi_star + gamma_star / 2 = 1.125 >= 1 while lambda_star < 1.
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    u, _ = np.linalg.qr(gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)))
    basis = np.eye(d * d)  # row j is |0 j>, row j * d is |j 0>

    def paired(j: int, sign: float) -> np.ndarray:
        return (basis[j] + sign * basis[j * d]) / math.sqrt(2.0)

    kets = [basis[0], paired(1, 1.0), paired(1, -1.0), paired(2, 1.0)]
    omega = sum(w * np.outer(k, k) for w, k in zip((1.0, 0.9, 0.9, 0.9), kets))
    uu = np.kron(u, u)
    omega = uu @ omega @ uu.conj().T
    omega = Operator((omega + omega.conj().T) / 2.0, (d, d), hermitian=True)
    return Strategy(omega, Ket(u[:, 0], (d,)), 2)


def test_oracle_dominates_random_fakes_where_the_local_maximum_fails(rng):
    s = _local_max_failing_strategy(3)
    eps = 0.05
    analysis = two_copy_analysis(s)
    assert analysis.lambda_star < 1.0 and not analysis.local_max_ok
    # outside the analysis' own hypotheses
    assert eps >= insurance_ceiling(analysis.gamma_star, analysis.xi_star, eps)[0]
    report = worst_case_oracle(s, eps)
    assert report.converged
    psi, comp = s.target.amplitudes, orthonormal_complement(s.target)
    for _ in range(100):
        sigma, sigma_p = (
            math.sqrt(1.0 - eps) * psi + math.sqrt(eps) * comp @ random_unit(rng, comp.shape[1])
            for _ in range(2)
        )
        pair = np.kron(sigma, sigma_p)
        assert float(np.real(pair.conj() @ s.omega.entries @ pair)) <= report.p_hat + 1e-9


def _sphere_case(mix: float, quad: np.ndarray, cross: np.ndarray) -> str:
    """Which of the sphere solver's three cases a problem falls in, by the scalar rules."""
    vals, vecs = np.linalg.eigh(mix * (quad + quad.conj().T) / 2.0)
    beta = vecs.conj().T @ (math.sqrt(mix * (1.0 - mix)) * cross)
    if np.linalg.norm(beta) <= 1e-14:
        return "top"
    interior = vals[-1] - vals > 1e-13 * max(1.0, abs(vals[-1]))
    tail2 = np.sum(np.abs(beta[interior]) ** 2 / (vals[-1] - vals[interior]) ** 2)
    if np.sum(np.abs(beta[~interior]) ** 2) <= 1e-28 and tail2 <= 1.0:
        return "hard"
    return "secular"


def _sphere_problems(rng, width: int = 3):
    """Stacked (mix, quad, cross) rows: two per case and a third secular one, built to fit."""
    rows = []

    def eigenbasis():
        q, _ = np.linalg.qr(rng.normal(size=(width, width)) + 1j * rng.normal(size=(width, width)))
        return q

    for mix in (0.3, 1e-3):
        quad = rng.normal(size=(width, width)) + 1j * rng.normal(size=(width, width))
        rows.append((mix, quad, np.zeros(width, dtype=complex)))
    # Hard case: the linear term avoids the (once degenerate) top eigenspace
    # and is scaled so that its interior solution has squared norm 0.49.
    for mix, vals in ((0.2, np.array([-0.5, 0.1, 0.8])), (0.5, np.array([0.2, 0.8, 0.8]))):
        q = eigenbasis()
        coeffs = rng.normal(size=width) + 1j * rng.normal(size=width)
        coeffs[vals == vals[-1]] = 0.0
        scale = math.sqrt(mix * (1.0 - mix))
        gaps = np.where(vals < vals[-1], mix * (vals[-1] - vals), 1.0)
        coeffs *= 0.7 / np.linalg.norm(scale * coeffs / gaps)
        rows.append((mix, (q * vals) @ q.conj().T, q @ coeffs))
    # Secular equation: two generic linear terms, and one with only a 1e-3
    # component along the top eigenvector.
    for mix in (0.4, 1e-2):
        quad = rng.normal(size=(width, width)) + 1j * rng.normal(size=(width, width))
        rows.append((mix, quad, rng.normal(size=width) + 1j * rng.normal(size=width)))
    mix, vals, q = 0.25, np.array([0.0, 0.3, 0.9]), eigenbasis()
    rows.append((mix, (q * vals) @ q.conj().T, q @ np.array([1.0, 1.0j, 1e-3])))
    mix, quad, cross = zip(*rows)
    return np.array(mix), np.array(quad), np.array(cross)


def test_stacked_sphere_max_matches_the_scalar_reference(rng):
    mix, quad, cross = _sphere_problems(rng)
    cases = [_sphere_case(*row) for row in zip(mix, quad, cross)]
    assert cases == ["top"] * 2 + ["hard"] * 2 + ["secular"] * 3
    stacked = montecarlo._sphere_max(mix, quad, cross)
    for i in range(len(mix)):
        assert np.max(np.abs(stacked[i] - sphere_max(mix[i], quad[i], cross[i]))) <= 1e-12
        alone = montecarlo._sphere_max(mix[i : i + 1], quad[i : i + 1], cross[i : i + 1])
        assert np.array_equal(alone[0], stacked[i])


def _random_product_strategy(seed: int) -> Strategy:
    """omega (x) omega for a random qubit target and omega = psi psi' + lam perp perp'."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    target = Ket(random_unit(gen, 2), (2,))
    perp = orthonormal_complement(target)[:, 0]
    omega = np.outer(target.amplitudes, target.amplitudes.conj())
    omega = omega + gen.uniform(0.1, 0.9) * np.outer(perp, perp.conj())
    return Strategy(Operator(np.kron(omega, omega), (2, 2), hermitian=True), target, copies=2)


def _coupled_strategy(seed: int, d: int = 3) -> Strategy:
    """psi psi' (x) psi psi' plus a random swap-symmetric block on its complement.

    Unlike the subjects below, this Omega couples a fake's target part to its
    orthogonal part, so the sphere problems carry a linear term.
    """
    gen = np.random.Generator(np.random.Philox(key=seed))
    target = Ket(random_unit(gen, d), (d,))
    pair = np.kron(target.amplitudes, target.amplitudes)
    swap = np.eye(d * d)[[j * d + i for i in range(d) for j in range(d)]]
    g = gen.normal(size=(d * d, d * d)) + 1j * gen.normal(size=(d * d, d * d))
    g = (g + swap @ g @ swap) / 2.0
    rest = np.eye(d * d) - np.outer(pair, pair.conj())
    block = rest @ (g @ g.conj().T) @ rest
    omega = np.outer(pair, pair.conj()) + 0.9 * block / np.linalg.eigvalsh(block)[-1]
    return Strategy(Operator((omega + omega.conj().T) / 2.0, (d, d), hermitian=True), target, 2)


def test_alternate_matches_the_reference_with_a_linear_term(monkeypatch):
    monkeypatch.setattr(montecarlo, "_ORACLE_MAX_ITERS", 3)
    s = _coupled_strategy(1)
    d = s.target.dim
    psi, comp = s.target.amplitudes, orthonormal_complement(s.target)
    omega4 = s.omega.entries.reshape(d, d, d, d)
    gen = np.random.Generator(np.random.Philox(key=7))
    a, b = np.array([1e-3, 0.01, 0.3, 0.5]), np.array([0.2, 1e-3, 0.05, 0.5])
    x0, y0 = montecarlo._random_units(gen, 4, d - 1), montecarlo._random_units(gen, 4, d - 1)
    held = np.sqrt(1.0 - b[0]) * psi + np.sqrt(b[0]) * (comp @ y0[0])
    m = np.einsum("j,ijkl,l->ik", held.conj(), omega4, held)
    assert np.linalg.norm(comp.conj().T @ m @ psi) > 1e-2
    value, x, y, sweeps, converged = montecarlo._alternate(s.omega.entries, psi, comp, a, b, x0, y0)
    for r in range(len(a)):
        ref_value, ref_x, ref_y, ref_sweeps, ref_converged = alternate(
            omega4, psi, comp, a[r], b[r], x0[r], y0[r]
        )
        assert abs(value[r] - ref_value) <= 1e-12
        assert np.max(np.abs(x[r] - ref_x)) <= 1e-9
        assert np.max(np.abs(y[r] - ref_y)) <= 1e-9
        assert (sweeps[r], converged[r]) == (ref_sweeps, ref_converged)


ORACLE_SUBJECTS = {
    "path2": lambda: omega_graph(PATH2, matrix_free=False).strategy,
    "ring3": lambda: omega_graph(TRIANGLE, matrix_free=False).strategy,
    "bell-product": bell_product_strategy,
    "random-product-1": lambda: _random_product_strategy(1),
    "random-product-2": lambda: _random_product_strategy(2),
}


@pytest.mark.parametrize(
    "name, eps",
    [
        ("path2", 1e-3),
        ("path2", 1e-4),
        ("ring3", 1e-3),
        ("bell-product", 1e-3),
        ("bell-product", 1e-4),
        ("random-product-1", 1e-3),
        ("random-product-2", 1e-3),
    ],
)
def test_oracle_matches_the_run_by_run_reference(name, eps):
    s = ORACLE_SUBJECTS[name]()
    report = worst_case_oracle(s, eps)
    value, eps_r, eps_r_prime, sweeps, converged = worst_case_search(s, eps)
    assert abs(report.p_hat - value) <= 1e-12
    assert (report.iterations, report.converged) == (sweeps, converged)
    assert report.argmax_state_descriptors["eps_r"] == eps_r
    assert report.argmax_state_descriptors["eps_r_prime"] == eps_r_prime
