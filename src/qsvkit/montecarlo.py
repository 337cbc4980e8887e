"""Protocol-level Monte Carlo simulation and an independent worst-case oracle.

Every trial consumes one fixed row of four raw 64-bit words from a
counter-based Philox stream keyed by the config seed: (first component draw,
second component draw, test-or-outcome draw, accept threshold). The rows are
cut into blocks of at most _CHUNK_TRIALS. Philox makes one row per counter
value, so the block that starts at row r draws its words from its own
generator with the counter set to r, and the blocks together equal one draw
of the whole stream. Each block is reduced straight to a pass count. The first
block runs in the caller, which builds the tables of the keys it draws; the
caller then counts the rest beside one plain thread per further usable core,
one block per thread at a time, so at most one block per core is held and
memory does not grow with the trial count. A trial's result is a pure
function of its own row and the per-component tables, so the block size, the
worker count and the order in which blocks finish cannot change the pass
count.

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
each component key keeps just those CDF values, read next to the d accepted
outcomes of its Bell table, and the trial reads the parity of the flips at
or below its draw from a per-bucket pass, fail or resolve-exactly code.

Source descriptors are a single ket or a weighted list of kets. Components
living on a single copy of the target space are drawn independently for each
stored copy (an i.i.d. source); components living on the full multi-copy
space are drawn once per round and model fakes correlated across copies.

The worst-case oracle maximizes the pass probability over product fakes
sqrt(1 - e) psi + sqrt(e) perp by sweeping both infidelities over a
geometric grid and, for each pair and random start, alternating exact
unit-sphere maximizations of the objective in one orthogonal component with
the other held fixed. Every (pair, start) run is one row of a stack, and all
rows advance together one sweep at a time: one product of the rows' held
fakes with K, Omega's copy-pair blocks folded once per call onto the target
and its complement, gives each row's quadratic, linear and constant terms
on either side (Omega commutes with the copy swap), one stacked
eigendecomposition solves every row's quadratic-plus-linear sphere problem
(the plain top eigenvector whenever the linear term vanishes, the hard case
and the secular equation picked by row masks), and a row leaves the stack
once its objective settles. The oracle shares no formulas with the two-copy
analysis it cross-checks.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graph_strategy import GraphStrategy, fidelity_from_passrate
from .graphs import graph_state, parity_accept_indices
from .qcore import Ket, orthonormal_complement
from .strategy import STRUCT_TOL, Strategy

_ORACLE_SEED = 20240502
_ORACLE_GRID_POINTS = 9
_ORACLE_STARTS = 8
_ORACLE_TOL = 1e-10
_ORACLE_MAX_ITERS = 500
_ORACLE_PROBE_BOUND = 0.5

# Trials per block of words (32 B each); the caller and each thread hold one block at a time.
_CHUNK_TRIALS = 1 << 15

# Threads that count blocks: one per core this process may run on.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

# Lookup buckets are the top 16 bits of a word w; each spans 2^37 values of w >> 11.
_MANTISSA_SHIFT = 11
_BUCKET_SHIFT = 48
_SPAN_SHIFT = _BUCKET_SHIFT - _MANTISSA_SHIFT
_BUCKETS = 1 << 16

# Per-bucket graph decision codes; 0 is fail.
_PASS, _RESOLVE = 1, 2

# Entries per column block of the Bell-table transform.
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


def _block_words(seed: int, start: int, rows: int) -> np.ndarray:
    """Rows start .. start + rows - 1 of the (trials, 4) raw word stream.

    Philox makes one row of four words per counter value, so a generator
    whose counter starts at start draws exactly these rows of
    Philox(key=seed).random_raw(4 * trials).
    """
    return np.random.Philox(key=seed, counter=start).random_raw(4 * rows).reshape(rows, 4)


def _count_passes(
    cfg: TrialConfig, pairs: bool, block_passes: Callable[[np.ndarray, np.ndarray], int]
) -> int:
    """Sum of block_passes(words, keys) over the row blocks of the trial stream.

    A key is the component word 0 draws or, with pairs (an i.i.d. source on
    two copies), that component * components + the one word 1 draws. The
    first block runs in the caller, so the tables its keys need are built on
    this thread. The caller then starts up to _WORKERS - 1 threads and
    drains the rest beside them, each taking the next block until none is
    left, so at most _WORKERS blocks are held at once and block_passes must
    be safe to call from several threads at once. A failing block stops the
    others after their current blocks, and its exception is raised here.
    """
    comps = len(cfg.source)
    source = _StepLookup(np.cumsum([w for w, _ in cfg.source])[:-1])

    def count(start: int) -> int:
        words = _block_words(cfg.seed, start, min(_CHUNK_TRIALS, cfg.trials - start))
        keys = source.count(words[:, 0])
        if pairs:
            keys *= comps
            keys += source.count(words[:, 1])
        return block_passes(words, keys)

    passes = [count(0)]
    starts = range(_CHUNK_TRIALS, cfg.trials, _CHUNK_TRIALS)
    blocks = iter(starts)
    take, stop = threading.Lock(), threading.Event()
    failures: list[BaseException] = []

    def drain() -> None:
        total = 0
        try:
            while not stop.is_set():
                with take:
                    start = next(blocks, None)
                if start is None:
                    break
                total += count(start)
        except BaseException as exc:  # raised in the caller, never printed by a thread
            stop.set()
            failures.append(exc)
        passes.append(total)

    threads = [threading.Thread(target=drain) for _ in range(min(_WORKERS, len(starts)) - 1)]
    for thread in threads:
        thread.start()
    try:
        drain()
    finally:
        stop.set()  # also when the caller is interrupted
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]
    return sum(passes)


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
        # the buckets b with i ticks in buckets up to b form a run of runs[i]
        runs = np.diff(buckets[buckets < _BUCKETS], prepend=0, append=_BUCKETS)
        self.table = np.repeat(np.arange(runs.size, dtype=np.int32), runs)
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


def _bell_table(n: int, amplitudes: np.ndarray, left: np.ndarray | None = None) -> np.ndarray:
    """Flattened Bell-outcome distribution of a (d, d) pair amplitude matrix P.

    P[r, s] is left[r] * amplitudes[s] for a product pair, else
    amplitudes[r, s]. Entry [z, x] of the table is
    |sum_r (-1)^popcount(z & r) P[r, r ^ x]|^2 / d, computed one block of
    columns at a time by an in-place fast Walsh-Hadamard transform over r,
    so no d x d Hadamard matrix is formed. Each block is gathered and
    transformed in two preallocated buffers, one block of amplitudes and one
    of int64 scratch. The transform runs in the dtype of P: real entries give
    the same table as their complex form, at half the arithmetic.
    """
    # Shares no code with graph_strategy's accept-ket rows, so the sampler's
    # cross-check stays independent.
    d = 1 << n
    rows = np.arange(d, dtype=np.int64)
    dtype = amplitudes.dtype if left is None else np.result_type(left, amplitudes)
    # P[r, r ^ x] is entry r ^ x of amplitudes, or entry r * d + (r ^ x) of the flat matrix.
    flat = amplitudes.astype(dtype, copy=False).reshape(-1)
    width = min(d, max(1, _TABLE_BLOCK_ENTRIES >> n))
    gathered = np.empty(d * width, dtype=dtype)
    # The int64 gather index, then the butterflies' half-block copy of the same bytes.
    scratch = np.empty(d * width, dtype=np.int64)
    probs = np.empty((d, d))
    for start in range(0, d, width):
        cols = rows[start : start + width]
        index = scratch[: d * cols.size].reshape(d, cols.size)
        np.bitwise_xor(rows[:, None], cols, out=index)
        if left is None:
            index += rows[:, None] * d
        block = gathered[: index.size].reshape(index.shape)
        np.take(flat, index, out=block, mode="clip")  # every index is in range
        if left is not None:
            np.multiply(left[:, None], block, out=block)
        half = 1
        while half < d:
            butterfly = block.reshape(d // (2 * half), 2, half, -1)
            low = scratch.view(dtype)[: block.size // 2].reshape(butterfly[:, 0].shape)
            np.copyto(low, butterfly[:, 0])
            butterfly[:, 0] += butterfly[:, 1]
            np.subtract(low, butterfly[:, 1], out=butterfly[:, 1])
            half *= 2
        out = probs[:, start : start + width]
        np.abs(block, out=out)
        np.square(out, out=out)
        out /= d
    return probs.reshape(-1)


def _acceptance_flips(probs: np.ndarray, accepted: np.ndarray) -> tuple[bool, np.ndarray]:
    """First outcome's acceptance and the CDF values where acceptance flips.

    accepted holds the sorted indices of the accepted outcomes. The drawn
    outcome is min(#{cum <= u}, m - 1) for the m-entry cum = cumsum(probs),
    so its acceptance is that of outcome 0 xor the parity of the flips i
    (exactly one of i and i + 1 accepted) with cum[i] <= u. Each accepted k
    names k - 1 and k, and i is a flip iff it is named an odd number of
    times, so cum is read only at the named entries. Only values named an
    odd number of times are kept. The CDF is taken in place, so probs holds
    cum on return.
    """
    cum = np.cumsum(probs, out=probs)
    named = np.concatenate([accepted - 1, accepted])
    named = named[(named >= 0) & (named < cum.size - 1)]
    values, counts = np.unique(cum[named], return_counts=True)
    return bool(accepted[0] == 0), values[counts % 2 == 1]


def _key_codes(
    n: int, accepted: np.ndarray, amplitudes: np.ndarray, left: np.ndarray | None
) -> tuple[np.ndarray, bool, np.ndarray]:
    """One key's per-bucket codes, its first outcome's acceptance and its flip ticks.

    A function of its own so that the key's d^2-entry table is freed on
    return, before the next key's is built.
    """
    accept_first, values = _acceptance_flips(_bell_table(n, amplitudes, left), accepted)
    step = _StepLookup(values)
    codes = (step.table & 1).astype(np.uint8)
    codes ^= accept_first
    codes[step.table < 0] = _RESOLVE
    return codes, accept_first, step.ticks


def _graph_passes(gs: GraphStrategy, cfg: TrialConfig) -> int:
    n = gs.graph.n
    d = 1 << n
    iid = _source_mode(cfg, d, 2)
    # A ket with no imaginary part stays real, so its Bell tables are
    # transformed in real arithmetic; the table is the same.
    kets = [k.amplitudes for _, k in cfg.source]
    kets = [ket.real if not ket.imag.any() else ket for ket in kets]
    comps = len(kets)

    # Outcome z * d + x is accepted when z is the parity code c(x).
    accepted = np.sort(parity_accept_indices(gs.graph) * d + np.arange(d))

    def pair(key: int) -> tuple[np.ndarray, np.ndarray | None]:
        """_bell_table's (amplitudes, left) for a key."""
        if iid:
            return kets[key % comps], kets[key // comps]
        return kets[key].reshape(d, d), None

    # A key gets its row of _BUCKETS per-bucket codes on first use; slots[key]
    # is that row. Rows are added under the lock and never change after.
    num_keys = comps * comps if iid else comps
    slots = np.full(num_keys, -1, dtype=np.int64)
    codes = np.empty(0, dtype=np.uint8)
    exact: list[tuple[bool, np.ndarray]] = []
    lock = threading.Lock()

    def block_passes(words: np.ndarray, keys: np.ndarray) -> int:
        nonlocal codes
        with lock:
            # Keys drawn for the first time; the census stops once every key has its row.
            missing = slots < 0
            if missing.any():
                missing &= np.bincount(keys, minlength=num_keys) > 0
            for key in np.flatnonzero(missing):
                key_codes, accept_first, ticks = _key_codes(n, accepted, *pair(key))
                codes = np.concatenate([codes, key_codes])
                slots[key] = len(exact)
                exact.append((accept_first, ticks))
            table = codes
        index = slots[keys]
        index *= _BUCKETS
        index += _buckets(words[:, 2])
        code = table[index]
        passes = int(np.count_nonzero(code == _PASS))
        resolve = np.flatnonzero(code == _RESOLVE)
        if resolve.size:
            held, mantissas = slots[keys[resolve]], _mantissas(words[resolve, 2])
            for row in np.flatnonzero(np.bincount(held)):
                accept_first, ticks = exact[row]
                odd = np.searchsorted(ticks, mantissas[held == row], side="right") & 1
                passes += int(np.count_nonzero(odd != accept_first))
        return passes

    return _count_passes(cfg, iid, block_passes)


def _decomposition_passes(s: Strategy, cfg: TrialConfig) -> int:
    iid = _source_mode(cfg, s.target.dim, s.copies)
    if iid and s.copies > 2:
        raise ValueError(
            f"i.i.d. sampling supports at most two copies, got {s.copies}; "
            "provide composite components"
        )
    kets = [k.amplitudes for _, k in cfg.source]

    tests = [t.entries for _, t in s.decomposition]
    test_lookup = _StepLookup(np.cumsum([p for p, _ in s.decomposition])[:-1])

    pairs = iid and s.copies == 2
    states = [np.kron(a, b) for a in kets for b in kets] if pairs else kets

    table = np.empty((len(states), len(tests)))
    for i, state in enumerate(states):
        for l, test in enumerate(tests):
            table[i, l] = float(np.real(state.conj() @ (test @ state)))
    accept = _ticks(table).reshape(-1)

    def block_passes(words: np.ndarray, keys: np.ndarray) -> int:
        keys *= len(tests)
        keys += test_lookup.count(words[:, 2])
        return int(np.count_nonzero(_mantissas(words[:, 3]) < accept[keys]))

    return _count_passes(cfg, pairs, block_passes)


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


def worst_case_oracle(s: Strategy, epsilon: float) -> WorstCaseReport:
    """Maximize the two-copy pass probability over independent pure fakes.

    Each copy is sqrt(1 - e) psi + sqrt(e) perp with its own infidelity e in
    [epsilon, _ORACLE_PROBE_BOUND] and its own orthogonal component. The infidelity
    pair is swept over a geometric grid of _ORACLE_GRID_POINTS values per
    side, starting at the (epsilon, epsilon) corner; for each pair,
    alternating exact sphere maximizations run from _ORACLE_STARTS
    deterministic random starts. All runs advance together as rows of one
    stack, pair-major; each row stops once its objective changes by less than
    _ORACLE_TOL, or after _ORACLE_MAX_ITERS sweeps. Ties resolve to the
    earliest run, so the result is reproducible. Besides Omega, K (dim^2 rows
    of dim^2 - dim + 1 terms) and the dim^4-entry products that build it, no
    array holds more than rows * dim^2 entries. Only inputs the search cannot run
    on are refused; lambda_star = 1 or a failed local-maximum condition is probed.
    """
    if s.copies != 2:
        raise ValueError(f"oracle needs a two-copy strategy, got copies = {s.copies}")
    if not 0.0 < epsilon < _ORACLE_PROBE_BOUND:
        raise ValueError(f"epsilon = {epsilon} outside (0, {_ORACLE_PROBE_BOUND}), the probe bound")
    d = s.target.dim
    om = s.omega.entries
    # _alternate holds either copy with the same operator, so Omega must commute with the swap.
    swapped = om.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(om.shape)
    asym = float(np.max(np.abs(om - swapped)))
    if asym > STRUCT_TOL:
        raise ValueError(f"operator is not swap symmetric: deviation {asym:.3e} > {STRUCT_TOL:.1e}")
    psi = s.target.amplitudes
    comp = orthonormal_complement(s.target)
    width = comp.shape[1]
    if width == 0:
        raise ValueError("target space has no orthogonal directions to fake")

    grid = np.geomspace(epsilon, _ORACLE_PROBE_BOUND, _ORACLE_GRID_POINTS)
    pairs = [(a, b) for a in grid for b in grid]

    rng = np.random.Generator(np.random.Philox(key=_ORACLE_SEED))
    x_starts = _random_units(rng, _ORACLE_STARTS, width)
    y_starts = _random_units(rng, _ORACLE_STARTS, width)

    # One row per (pair, start), pair-major, so the first argmax is the earliest run.
    a, b = np.repeat(np.array(pairs), _ORACLE_STARTS, axis=0).T
    tiles = (len(pairs), 1)
    value, x, y, sweeps, converged = _alternate(
        om, psi, comp, a, b, np.tile(x_starts, tiles), np.tile(y_starts, tiles)
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


def _sweep_terms(omega: np.ndarray, psi: np.ndarray, comp: np.ndarray) -> np.ndarray:
    """K, whose rows (j, l) hold the terms of the copy-pair block Omega_jl.

    Omega_jl is the d x d matrix [i, k] -> Omega[i j, k l]. Row (j, l) of K is
    comp' Omega_jl [psi comp] flattened (the w x (w + 1) block whose column 0
    is comp' Omega_jl psi), then psi' Omega_jl psi, where w = d - 1 is the
    width of comp. Two GEMMs against the unitary [psi comp] build it.
    """
    d, width = len(psi), comp.shape[1]
    basis = np.column_stack([psi, comp])
    blocks = omega.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d**3, d)
    right = (blocks @ basis).reshape(d * d, d, d).transpose(0, 2, 1).reshape(d**3, d)
    # rotated[jl, m, n] = ([psi comp]' Omega_jl [psi comp])[m, n]
    rotated = (right @ basis.conj()).reshape(d * d, d, d).transpose(0, 2, 1)
    return np.concatenate([rotated[:, 1:, :].reshape(d * d, width * d), rotated[:, :1, 0]], axis=1)


def _alternate(omega, psi, comp, a, b, x, y):
    """Alternating sphere maximizations for every row (a, b, x0, y0) at once.

    A sweep maximizes over x with y held, then over y with x held, on the
    rows still active. A row leaves at the first sweep whose objective moves
    by less than _ORACLE_TOL and keeps its x, y, value and sweep count.
    Returns (value, x, y, sweeps, converged), one entry per row.

    With the other copy's fake v held, the operator on one copy is
    M = sum_jl conj(v_j) v_l Omega_jl on either side, since Omega commutes
    with the copy swap. Its sphere problem needs only comp' M comp,
    comp' M psi and psi' M psi, which the outer products of the v rows
    times K (_sweep_terms) give in one product.
    """
    x, y = x.copy(), y.copy()
    value = np.full(len(a), -np.inf)
    sweeps = np.full(len(a), _ORACLE_MAX_ITERS)
    converged = np.zeros(len(a), dtype=bool)
    live = np.arange(len(a))
    d, width = comp.shape
    terms = _sweep_terms(omega, psi, comp)

    def held(infid: np.ndarray, perp: np.ndarray):
        """(quad, cross, const) of each row's operator with that row's fake held."""
        fakes = _fake_rows(psi, comp, infid, perp)
        outer = fakes.conj()[:, :, None] * fakes[:, None, :]
        rows = outer.reshape(-1, d * d) @ terms
        blocks = rows[:, :-1].reshape(-1, width, d)
        return blocks[:, :, 1:], blocks[:, :, 0], rows[:, -1].real

    for sweep in range(1, _ORACLE_MAX_ITERS + 1):
        a_live, b_live = a[live], b[live]
        quad, cross, _ = held(b_live, y[live])
        x[live] = _sphere_max(a_live, quad, cross)

        quad, cross, const = held(a_live, x[live])
        y_live = _sphere_max(b_live, quad, cross)
        y[live] = y_live

        # The second fake's pass probability, in the terms of its sphere problem.
        lifted = b_live[:, None] * (quad @ y_live[:, :, None])[:, :, 0]
        lifted += 2.0 * np.sqrt(b_live * (1.0 - b_live))[:, None] * cross
        current = (1.0 - b_live) * const + np.real(np.sum(y_live.conj() * lifted, axis=1))
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
