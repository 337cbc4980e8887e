"""Protocol-level Monte Carlo simulation and an independent worst-case oracle.

Every trial consumes one fixed row of four raw 64-bit words from a
counter-based Philox stream keyed by the config seed: (first component draw,
second component draw, test-or-outcome draw, accept threshold). The rows are
streamed in blocks of at most _CHUNK_TRIALS and each block is reduced straight
to a pass count, so memory does not grow with the trial count. A trial's
result is a pure function of its own row and the per-component tables, so the
block size and aggregation order cannot change the pass count.

A word w stands for the uniform u = (w >> 11) * 2^-53 that Generator.random
makes of it, but u is never formed. With m = w >> 11, cdf <= u holds exactly
when ceil(cdf * 2^53) <= m, and u < p exactly when m < ceil(p * 2^53), so
every decision is an exact integer comparison with the outcome it has on u.
The three inverse-CDF lookups -- the source component, the decomposition test
and the graph decision -- each count the thresholds at or below m with one
gather from a table over the top 16 bits of w; only rows whose bucket holds a
threshold fall back to a binary search. A graph trial draws its joint Bell
outcome by inverse CDF and accepts on the parity decision; since that
decision changes only where acceptance flips between neighbouring outcomes,
each component key keeps just those CDF values, and the trial reads the
parity of the flips at or below its draw from a per-bucket pass, fail or
resolve-exactly code.

Source descriptors are a single ket or a weighted list of kets. Components
living on a single copy of the target space are drawn independently for each
stored copy (an i.i.d. source); components living on the full multi-copy
space are drawn once per round and model fakes correlated across copies.

The worst-case oracle maximizes the pass probability over product fakes
sqrt(1 - e) psi + sqrt(e) perp by sweeping both infidelities over a
geometric grid and, for each pair, alternating exact unit-sphere
maximizations of the objective in one orthogonal component with the other
held fixed. The inner step solves the quadratic-plus-linear sphere problem
through the eigendecomposition of the restricted operator (the plain top
eigenvector whenever the linear term vanishes), so the oracle shares no
formulas with the two-copy analysis it cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .graph_strategy import GraphStrategy, fidelity_from_passrate
from .graphs import graph_state, parity_accept_indices
from .qcore import Ket, orthonormal_complement
from .strategy import Strategy, two_copy_analysis

_ORACLE_SEED = 20240502

# Trials per block of streamed words (32 B each).
_CHUNK_TRIALS = 1 << 16

# Lookup buckets are the top 16 bits of a word w; each spans 2^37 values of w >> 11.
_MANTISSA_SHIFT = 11
_BUCKET_SHIFT = 48
_SPAN_SHIFT = _BUCKET_SHIFT - _MANTISSA_SHIFT
_BUCKETS = 1 << 16

# Per-bucket graph decision codes; 0 is fail.
_PASS, _RESOLVE = 1, 2

# Complex entries per column block of the Bell-table transform.
_TABLE_BLOCK_ENTRIES = 1 << 20

# =====================================================================
# Trial configuration
# =====================================================================


@dataclass
class TrialConfig:
    """Trial count, seed, and source descriptor for a simulation run."""

    trials: int
    seed: int
    source: Ket | Sequence[tuple[float, Ket]]

    def __post_init__(self) -> None:
        self.trials = int(self.trials)
        if self.trials < 1:
            raise ValueError(f"trial count must be positive: {self.trials}")
        self.seed = int(self.seed)
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed {self.seed} outside the 64-bit range")
        if isinstance(self.source, Ket):
            self.source = ((1.0, self.source),)
        else:
            self.source = tuple((float(w), k) for w, k in self.source)
        if not self.source:
            raise ValueError("source needs at least one component")
        total = 0.0
        dim = self.source[0][1].dim
        for idx, (weight, ket) in enumerate(self.source):
            if not math.isfinite(weight):
                raise ValueError(f"component {idx} has non-finite weight {weight}")
            if weight < 0.0:
                raise ValueError(f"component {idx} has negative weight {weight}")
            if ket.dim != dim:
                raise ValueError(
                    f"component {idx} has dim {ket.dim}, expected {dim} like the first"
                )
            total += weight
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"component weights sum to {total}, not 1")


def _word_blocks(cfg: TrialConfig) -> Iterator[np.ndarray]:
    """The (trials, 4) raw word stream in row blocks; together they equal one draw."""
    bits = np.random.Philox(key=cfg.seed)
    for start in range(0, cfg.trials, _CHUNK_TRIALS):
        yield bits.random_raw(4 * min(_CHUNK_TRIALS, cfg.trials - start)).reshape(-1, 4)


def _mantissas(words: np.ndarray) -> np.ndarray:
    """m = w >> 11 per word, so that Generator.random's u is m * 2^-53."""
    return (words >> _MANTISSA_SHIFT).view(np.int64)


def _buckets(words: np.ndarray) -> np.ndarray:
    """Top 16 bits per word, the index into a lookup table."""
    return (words >> _BUCKET_SHIFT).view(np.int64)


def _ticks(values) -> np.ndarray:
    """ceil(v * 2^53) per value in [0, 1]: v <= u iff ticks <= m, u < v iff m < ticks."""
    return np.ceil(np.clip(values, 0.0, 1.0) * 2.0**53).astype(np.int64)


class _StepLookup:
    """#{v <= u} over sorted values v, i.e. searchsorted(v, u, side="right"), per raw word.

    table[b] counts the ticks in buckets up to b, which is every word's count
    in bucket b unless a tick falls strictly inside it; such buckets hold -1
    and their rows are resolved by a binary search.
    """

    def __init__(self, values) -> None:
        self.ticks = _ticks(values)
        buckets = self.ticks >> _SPAN_SHIFT
        self.table = np.zeros(_BUCKETS, dtype=np.int32)
        np.add.at(self.table, buckets[buckets < _BUCKETS], 1)
        np.add.accumulate(self.table, out=self.table)
        self.table[buckets[self.ticks % (1 << _SPAN_SHIFT) != 0]] = -1

    def count(self, words: np.ndarray) -> np.ndarray:
        out = self.table[_buckets(words)]
        inside = np.flatnonzero(out < 0)
        if inside.size:
            out[inside] = np.searchsorted(self.ticks, _mantissas(words[inside]), side="right")
        return out


def _source_mode(cfg: TrialConfig, single_dim: int, copies: int) -> bool:
    """True when components are single-copy (i.i.d. per copy), else composite."""
    dim = cfg.source[0][1].dim
    if dim == single_dim:
        return True
    if dim == single_dim**copies and copies > 1:
        return False
    raise ValueError(
        f"source components of dim {dim} fit neither one copy ({single_dim}) "
        f"nor the full {copies}-copy space ({single_dim ** copies})"
    )


# =====================================================================
# Protocol sampling
# =====================================================================


def simulate_protocol(
    s: Strategy | GraphStrategy, cfg: TrialConfig
) -> tuple[int, float, float]:
    """Sample the verification protocol; returns (passes, p_emp, stderr).

    Graph strategies are simulated at the protocol level: per round a joint
    Bell outcome is drawn from its exact distribution and the parity decision
    is applied. Other strategies need a decomposition; per round a test is
    drawn and accepted against its exact conditional pass probability.
    """
    if isinstance(s, GraphStrategy):
        passes = _graph_passes(s, cfg)
    elif isinstance(s, Strategy):
        if s.decomposition is None:
            raise ValueError(
                "strategy carries no decomposition and no protocol form; nothing to sample"
            )
        passes = _decomposition_passes(s, cfg)
    else:
        raise ValueError(f"cannot simulate a {type(s).__name__}")
    p_emp = passes / cfg.trials
    stderr = math.sqrt(p_emp * (1.0 - p_emp) / cfg.trials)
    return passes, p_emp, stderr


def _bell_table(n: int, pair: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Flattened Bell-outcome distribution of a (d, d) pair amplitude matrix.

    pair(r, s) returns the matrix entries at broadcast index arrays. Entry
    [z, x] of the table is |sum_r (-1)^popcount(z & r) pair[r, r ^ x]|^2 / d,
    computed one block of columns at a time by an in-place fast
    Walsh-Hadamard transform over r, so no d x d Hadamard matrix is formed.
    """
    # Shares no code with graph_strategy's accept-ket rows, so the sampler's
    # cross-check stays independent.
    d = 1 << n
    rows = np.arange(d, dtype=np.int64)
    width = max(1, _TABLE_BLOCK_ENTRIES >> n)
    probs = np.empty((d, d))
    for start in range(0, d, width):
        block = pair(rows[:, None], rows[:, None] ^ rows[None, start : start + width])
        half = 1
        while half < d:
            butterfly = block.reshape(d // (2 * half), 2, half, -1)
            low = butterfly[:, 0].copy()
            butterfly[:, 0] += butterfly[:, 1]
            np.subtract(low, butterfly[:, 1], out=butterfly[:, 1])
            half *= 2
        probs[:, start : start + width] = np.abs(block) ** 2 / d
    return probs.reshape(-1)


def _acceptance_flips(probs: np.ndarray, accepted: np.ndarray) -> tuple[bool, np.ndarray]:
    """First outcome's acceptance and the CDF values where acceptance flips.

    The drawn outcome is min(#{cum <= u}, m - 1) for the m-entry cum =
    cumsum(probs), so its acceptance is accepted[0] xor the parity of the
    flips i (accepted[i] != accepted[i + 1]) with cum[i] <= u. Flips at equal
    values cancel in pairs; only values repeated an odd number of times are
    kept.
    """
    cum = np.cumsum(probs)
    values, counts = np.unique(cum[:-1][accepted[:-1] != accepted[1:]], return_counts=True)
    return bool(accepted[0]), values[counts % 2 == 1]


def _graph_passes(gs: GraphStrategy, cfg: TrialConfig) -> int:
    n = gs.graph.n
    d = 1 << n
    iid = _source_mode(cfg, d, 2)
    kets = [k.amplitudes for _, k in cfg.source]
    comps = len(kets)
    source = _StepLookup(np.cumsum([w for w, _ in cfg.source])[:-1])

    accepted = np.zeros(d * d, dtype=bool)
    accepted[parity_accept_indices(gs.graph) * d + np.arange(d)] = True

    # A key gets its row of per-bucket codes on first use; slots[key] is that row.
    num_keys = comps * comps if iid else comps
    slots = np.full(num_keys, -1, dtype=np.int64)
    codes = np.empty(0, dtype=np.uint8)
    exact: list[tuple[bool, np.ndarray]] = []
    passes = 0
    for words in _word_blocks(cfg):
        keys = source.count(words[:, 0])
        if iid:
            keys *= comps
            keys += source.count(words[:, 1])
        for key in np.flatnonzero((np.bincount(keys, minlength=num_keys) > 0) & (slots < 0)):
            if iid:
                a, b = kets[key // comps], kets[key % comps]
                probs = _bell_table(n, lambda r, s: a[r] * b[s])
            else:
                pair = kets[key].reshape(d, d)
                probs = _bell_table(n, lambda r, s: pair[r, s])
            accept_first, values = _acceptance_flips(probs, accepted)
            step = _StepLookup(values)
            key_codes = (step.table & 1).astype(np.uint8)
            key_codes ^= accept_first
            key_codes[step.table < 0] = _RESOLVE
            codes = np.concatenate([codes, key_codes])
            slots[key] = len(exact)
            exact.append((accept_first, step.ticks))
        index = slots[keys]
        index *= _BUCKETS
        index += _buckets(words[:, 2])
        code = codes[index]
        passes += int(np.count_nonzero(code == _PASS))
        resolve = np.flatnonzero(code == _RESOLVE)
        if resolve.size:
            held, mantissas = slots[keys[resolve]], _mantissas(words[resolve, 2])
            for row in np.flatnonzero(np.bincount(held)):
                accept_first, ticks = exact[row]
                odd = np.searchsorted(ticks, mantissas[held == row], side="right") & 1
                passes += int(np.count_nonzero(odd != accept_first))
        del keys, index, code  # free the per-row arrays before the next block is drawn
    return passes


def _decomposition_passes(s: Strategy, cfg: TrialConfig) -> int:
    iid = _source_mode(cfg, s.target.dim, s.copies)
    if iid and s.copies > 2:
        raise ValueError(
            f"i.i.d. sampling supports at most two copies, got {s.copies}; "
            "provide composite components"
        )
    kets = [k.amplitudes for _, k in cfg.source]
    comps = len(kets)
    source = _StepLookup(np.cumsum([w for w, _ in cfg.source])[:-1])

    tests = [t.entries for _, t in s.decomposition]
    test_lookup = _StepLookup(np.cumsum([p for p, _ in s.decomposition])[:-1])

    pairs = iid and s.copies == 2
    states = [np.kron(a, b) for a in kets for b in kets] if pairs else kets

    table = np.empty((len(states), len(tests)))
    for i, state in enumerate(states):
        for l, test in enumerate(tests):
            table[i, l] = float(np.real(state.conj() @ (test @ state)))
    accept = _ticks(table).reshape(-1)

    passes = 0
    for words in _word_blocks(cfg):
        keys = source.count(words[:, 0])
        if pairs:
            keys *= comps
            keys += source.count(words[:, 1])
        keys *= len(tests)
        keys += test_lookup.count(words[:, 2])
        passes += int(np.count_nonzero(_mantissas(words[:, 3]) < accept[keys]))
    return passes


def fidelity_experiment(gs: GraphStrategy, ensemble: TrialConfig) -> tuple[float, float]:
    """Estimate fidelity from the sampled pass rate; returns (F_hat, F_true).

    Needs an i.i.d. single-copy source: F_hat is the square root of the
    empirical pass rate, F_true the exact overlap of the source's mixed state
    with the graph state (source_fidelity).
    """
    d = 1 << gs.graph.n
    if not _source_mode(ensemble, d, 2):
        raise ValueError("fidelity estimation needs an i.i.d. single-copy source")
    _, p_emp, _ = simulate_protocol(gs, ensemble)
    return fidelity_from_passrate(p_emp), source_fidelity(graph_state(gs.graph), ensemble)


def source_fidelity(target: Ket, ensemble: TrialConfig) -> float:
    """Overlap sum_k w_k |<target|k>|^2 of a single-copy source's mixed state."""
    tvec = target.amplitudes
    return sum(w * float(np.abs(tvec.conj() @ k.amplitudes) ** 2) for w, k in ensemble.source)


# =====================================================================
# Worst-case oracle
# =====================================================================


@dataclass
class WorstCaseReport:
    """Best fake-state pass probability found by the brute-force search."""

    p_hat: float
    argmax_state_descriptors: dict
    iterations: int
    converged: bool

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_hat <= 1.0:
            raise ValueError(f"p_hat = {self.p_hat} outside [0, 1]")


def worst_case_oracle(
    s: Strategy,
    epsilon: float,
    probe_bound: float = 0.5,
    grid_points: int = 9,
    starts: int = 8,
    tol: float = 1e-10,
    max_iters: int = 500,
) -> WorstCaseReport:
    """Maximize the two-copy pass probability over independent pure fakes.

    Each copy is sqrt(1 - e) psi + sqrt(e) perp with its own infidelity e in
    [epsilon, probe_bound] and its own orthogonal component. The infidelity
    pair is swept over a geometric grid (with the (epsilon, epsilon) corner
    always included); for each pair, alternating exact sphere maximizations
    run until the objective changes by less than tol or the iteration cap is
    hit, from `starts` deterministic random starts. Ties resolve to the
    earliest run, so the result is reproducible.
    """
    if s.copies != 2:
        raise ValueError(f"oracle needs a two-copy strategy, got copies = {s.copies}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon = {epsilon} outside (0, 1)")
    ceiling = two_copy_analysis(s, epsilon=epsilon).eps_max
    if ceiling is not None and epsilon >= ceiling:
        raise ValueError(f"epsilon = {epsilon} is not below eps_max = {ceiling}")

    d = s.target.dim
    om = s.omega.entries
    psi = s.target.amplitudes
    comp = orthonormal_complement(s.target)
    width = comp.shape[1]
    if width == 0:
        raise ValueError("target space has no orthogonal directions to fake")
    omega4 = om.reshape(d, d, d, d)

    hi = min(probe_bound, 0.5)
    if not epsilon < hi:
        raise ValueError(f"epsilon = {epsilon} is not below the probe bound {hi}")
    grid = np.geomspace(epsilon, hi, grid_points)
    pairs = [(epsilon, epsilon)] + [(a, b) for a in grid for b in grid]

    rng = np.random.Generator(np.random.Philox(key=_ORACLE_SEED))
    x_starts = _random_units(rng, starts, width)
    y_starts = _random_units(rng, starts, width)

    best = (-1.0, None)
    for a, b in pairs:
        for st in range(starts):
            value, x, y, iters, conv = _alternate(
                omega4, psi, comp, a, b, x_starts[st], y_starts[st], tol, max_iters
            )
            if value > best[0]:
                best = (value, (a, b, x, y, iters, conv))

    value, (a, b, x, y, iters, conv) = best
    if value > 1.0 + 1e-8:
        raise ValueError(f"objective {value} exceeds 1; operator violates the <= I bound")
    descriptors = {
        "eps_r": float(a),
        "eps_r_prime": float(b),
        "perp": comp @ x,
        "perp_prime": comp @ y,
    }
    return WorstCaseReport(min(max(value, 0.0), 1.0), descriptors, iters, conv)


def _random_units(rng: np.random.Generator, count: int, width: int) -> np.ndarray:
    block = rng.normal(size=(count, width)) + 1.0j * rng.normal(size=(count, width))
    return block / np.linalg.norm(block, axis=1, keepdims=True)


def _alternate(omega4, psi, comp, a, b, x0, y0, tol, max_iters):
    x, y = x0, y0
    previous = -np.inf
    for sweep in range(1, max_iters + 1):
        sigma_p = math.sqrt(1.0 - b) * psi + math.sqrt(b) * (comp @ y)
        m_first = np.einsum("j,ijkl,l->ik", sigma_p.conj(), omega4, sigma_p)
        x = _sphere_max(a, comp.conj().T @ m_first @ comp, comp.conj().T @ (m_first @ psi))

        sigma = math.sqrt(1.0 - a) * psi + math.sqrt(a) * (comp @ x)
        m_second = np.einsum("i,ijkl,k->jl", sigma.conj(), omega4, sigma)
        y = _sphere_max(b, comp.conj().T @ m_second @ comp, comp.conj().T @ (m_second @ psi))

        sigma_p = math.sqrt(1.0 - b) * psi + math.sqrt(b) * (comp @ y)
        value = float(np.real(sigma_p.conj() @ (m_second @ sigma_p)))
        if abs(value - previous) < tol:
            return value, x, y, sweep, True
        previous = value
    return previous, x, y, max_iters, False


def _sphere_max(mix: float, quad: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Unit x maximizing mix x'Qx + 2 sqrt(mix(1-mix)) Re(x'c)."""
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
