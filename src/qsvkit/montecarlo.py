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
geometric grid and, for each pair and random start, alternating exact
unit-sphere maximizations of the objective in one orthogonal component with
the other held fixed. Every (pair, start) run is one row of a stack, and all
rows advance together one sweep at a time: a batched contraction per side
gives each row's restricted operator, one stacked eigendecomposition solves
every row's quadratic-plus-linear sphere problem (the plain top eigenvector
whenever the linear term vanishes, the hard case and the secular equation
picked by row masks), and a row leaves the stack once its objective settles.
The oracle shares no formulas with the two-copy analysis it cross-checks.
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
_ORACLE_GRID_POINTS = 9
_ORACLE_STARTS = 8
_ORACLE_TOL = 1e-10
_ORACLE_MAX_ITERS = 500
_ORACLE_PROBE_BOUND = 0.5

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
    kept. The CDF is taken in place, so probs holds cum on return.
    """
    cum = np.cumsum(probs, out=probs)
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


def worst_case_oracle(s: Strategy, epsilon: float) -> WorstCaseReport:
    """Maximize the two-copy pass probability over independent pure fakes.

    Each copy is sqrt(1 - e) psi + sqrt(e) perp with its own infidelity e in
    [epsilon, _ORACLE_PROBE_BOUND] and its own orthogonal component. The infidelity
    pair is swept over a geometric grid of _ORACLE_GRID_POINTS values per
    side (with the (epsilon, epsilon) corner always included); for each pair,
    alternating exact sphere maximizations run from _ORACLE_STARTS
    deterministic random starts. All runs advance together as rows of one
    stack, pair-major; each row stops once its objective changes by less than
    _ORACLE_TOL, or after _ORACLE_MAX_ITERS sweeps. Ties resolve to the
    earliest run, so the result is reproducible. Besides Omega, no array
    holds more than rows * dim^2 entries.
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

    if not epsilon < _ORACLE_PROBE_BOUND:
        raise ValueError(f"epsilon = {epsilon} is not below the probe bound {_ORACLE_PROBE_BOUND}")
    grid = np.geomspace(epsilon, _ORACLE_PROBE_BOUND, _ORACLE_GRID_POINTS)
    pairs = [(epsilon, epsilon)] + [(a, b) for a in grid for b in grid]

    rng = np.random.Generator(np.random.Philox(key=_ORACLE_SEED))
    x_starts = _random_units(rng, _ORACLE_STARTS, width)
    y_starts = _random_units(rng, _ORACLE_STARTS, width)

    # One row per (pair, start), pair-major, so the first argmax is the earliest run.
    a, b = np.repeat(np.array(pairs), _ORACLE_STARTS, axis=0).T
    tiles = (len(pairs), 1)
    value, x, y, sweeps, converged = _alternate(
        omega4, psi, comp, a, b, np.tile(x_starts, tiles), np.tile(y_starts, tiles)
    )
    best = int(np.argmax(value))
    value = float(value[best])

    if value > 1.0 + 1e-8:
        raise ValueError(f"objective {value} exceeds 1; operator violates the <= I bound")
    descriptors = {
        "eps_r": float(a[best]),
        "eps_r_prime": float(b[best]),
        "perp": comp @ x[best],
        "perp_prime": comp @ y[best],
    }
    return WorstCaseReport(
        min(max(value, 0.0), 1.0), descriptors, int(sweeps[best]), bool(converged[best])
    )


def _random_units(rng: np.random.Generator, count: int, width: int) -> np.ndarray:
    block = rng.normal(size=(count, width)) + 1.0j * rng.normal(size=(count, width))
    return block / np.linalg.norm(block, axis=1, keepdims=True)


def _fake_rows(psi: np.ndarray, comp: np.ndarray, infid: np.ndarray, perp: np.ndarray) -> np.ndarray:
    """Rows sqrt(1 - e) psi + sqrt(e) comp perp, one per row of (infid, perp)."""
    return np.sqrt(1.0 - infid)[:, None] * psi + np.sqrt(infid)[:, None] * (perp @ comp.T)


def _alternate(omega4, psi, comp, a, b, x, y):
    """Alternating sphere maximizations for every row (a, b, x0, y0) at once.

    A sweep maximizes over x with y held, then over y with x held, on the
    rows still active. A row leaves at the first sweep whose objective moves
    by less than _ORACLE_TOL and keeps its x, y, value and sweep count.
    Returns (value, x, y, sweeps, converged), one entry per row.
    """
    x, y = x.copy(), y.copy()
    value = np.full(len(a), -np.inf)
    sweeps = np.full(len(a), _ORACLE_MAX_ITERS)
    converged = np.zeros(len(a), dtype=bool)
    live = np.arange(len(a))
    comp_h = comp.conj().T
    for sweep in range(1, _ORACLE_MAX_ITERS + 1):
        a_live, b_live = a[live], b[live]
        second = _fake_rows(psi, comp, b_live, y[live])
        m_first = np.einsum("rj,ijkl,rl->rik", second.conj(), omega4, second)
        x[live] = _sphere_max(a_live, comp_h @ m_first @ comp, (m_first @ psi) @ comp.conj())

        first = _fake_rows(psi, comp, a_live, x[live])
        m_second = np.einsum("ri,ijkl,rk->rjl", first.conj(), omega4, first)
        y[live] = _sphere_max(b_live, comp_h @ m_second @ comp, (m_second @ psi) @ comp.conj())

        second = _fake_rows(psi, comp, b_live, y[live])
        current = np.real(np.einsum("rj,rjl,rl->r", second.conj(), m_second, second))
        done = np.abs(current - value[live]) < _ORACLE_TOL
        value[live] = current
        sweeps[live[done]] = sweep
        converged[live[done]] = True
        live = live[~done]
        if not live.size:
            break
    return value, x, y, sweeps, converged


def _sphere_max(mix: np.ndarray, quad: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Unit rows x maximizing mix x'Qx + 2 sqrt(mix(1-mix)) Re(x'c), one per stacked row.

    With the scaled Hermitian part of Q eigendecomposed as V diag(vals) V' and
    beta = V'c scaled, row masks pick one of three cases: no linear term (the
    top eigenvector); the hard case, a linear term orthogonal to the top
    eigenspace and short enough (the interior solution plus a top component);
    otherwise the secular equation |beta / (mu - vals)| = 1, solved for
    mu > top by bisection. Each row's answer depends on that row alone.
    """
    ahat = mix[:, None, None] * (quad + quad.conj().swapaxes(1, 2)) / 2.0
    chat = np.sqrt(mix * (1.0 - mix))[:, None] * cross
    vals, vecs = np.linalg.eigh(ahat)
    beta = (vecs.conj().swapaxes(1, 2) @ chat[:, :, None])[:, :, 0]
    weight = np.abs(beta) ** 2
    beta_norm = np.linalg.norm(beta, axis=1)
    top = vals[:, -1]
    gap = top[:, None] - vals
    interior = gap > 1e-13 * np.maximum(1.0, np.abs(top))[:, None]
    gap = np.where(interior, gap, 1.0)
    tail2 = np.sum(np.where(interior, weight / gap**2, 0.0), axis=1)
    top_mass = np.sum(np.where(interior, 0.0, weight), axis=1)
    linear = beta_norm > 1e-14
    hard = linear & (top_mass <= 1e-28) & (tail2 <= 1.0)
    secular = linear & ~hard

    x = vecs[:, :, -1].copy()
    if hard.any():
        partial = np.where(interior[hard], beta[hard] / gap[hard], 0.0)
        lift = np.sqrt(np.maximum(1.0 - tail2[hard], 0.0))
        x[hard] = (vecs[hard] @ partial[:, :, None])[:, :, 0] + lift[:, None] * x[hard]
    if secular.any():
        vals_s, weight_s, top_s = vals[secular], weight[secular], top[secular]

        def norm2(mu: np.ndarray) -> np.ndarray:
            # A vanishing mu - vals reads as an infinite (or undefined) norm.
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.sum(weight_s / (mu[:, None] - vals_s) ** 2, axis=1)

        lo = top_s + np.maximum(np.sqrt(top_mass[secular]), 1e-300)
        shrink = norm2(lo) < 1.0
        while shrink.any():
            lo[shrink] = top_s[shrink] + (lo[shrink] - top_s[shrink]) / 2.0
            shrink &= ~(lo - top_s < 1e-280)
            shrink &= norm2(lo) < 1.0
        hi = top_s + beta_norm[secular] + 1e-30
        grow = norm2(hi) > 1.0
        while grow.any():
            hi[grow] = top_s[grow] + 2.0 * (hi[grow] - top_s[grow])
            grow &= norm2(hi) > 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            above = norm2(mid) > 1.0
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        mu = 0.5 * (lo + hi)
        coef = beta[secular] / (mu[:, None] - vals_s)
        unnormed = (vecs[secular] @ coef[:, :, None])[:, :, 0]
        x[secular] = unnormed / np.linalg.norm(unnormed, axis=1, keepdims=True)
    return x
