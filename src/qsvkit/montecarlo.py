"""Protocol-level Monte Carlo simulation and an independent worst-case oracle.

Every round draws a source key and, given its key, passes with the key's
exact pass probability p_key, whatever outcome it shows. So the pass count of
a run has the law sum_k Binomial(n_k, p_k), with the key counts (n_k) drawn
Multinomial(trials, w) over the key weights: w_a * w_b in key order
a * components + b for an i.i.d. pair of copies, else the component weights.
A run makes exactly these draws from one Generator over Philox(key=seed): the
multinomial split of the trials over the keys, then one binomial per drawn
key in ascending key order. Its work and memory are O(keys) and do not grow
with the trial count, and its counts are a pure function of the seed. They
rest on numpy's multinomial and binomial algorithms, which numpy may change
between versions (NEP 19), so a count pinned under one numpy may move under
another while keeping its law. A key is built, its p_key computed, only when
it is drawn, and at most once. A decomposition key passes with
sum_t w_t p_t over the tests t, p_t the test's pass probability on the key's
state. A graph key passes with sum_x A(x) over the flip strings x of the joint
Bell outcome, A(x) the chance of x together with the phase string c(x) that
the parity decision accepts.

Source descriptors are a single ket or a weighted list of kets. Components
living on a single copy of the target space are drawn independently for each
stored copy (an i.i.d. source); components living on the two-copy space
are drawn once per round and model fakes correlated across copies.

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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graph_strategy import GraphStrategy, fidelity_from_passrate
from .graphs import graph_state, parity_accept_indices
from .qcore import Ket, orthonormal_complement, walsh_signs
from .strategy import STRUCT_TOL, Strategy

_ORACLE_SEED = 20240502
_ORACLE_GRID_POINTS = 9
_ORACLE_STARTS = 8
_ORACLE_TOL = 1e-10
_ORACLE_MAX_ITERS = 500
_ORACLE_PROBE_BOUND = 0.5

# Bound on the keys a source may draw, so its key weights and the builds a run
# may make stay small; past it a source is refused before any key array is formed.
_MAX_KEYS = 1 << 10

# Gathered pair amplitudes per block of flip strings.
_FLIP_BLOCK_ENTRIES = 1 << 16

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
        if self.trials >= 2**63:  # the multinomial split counts in int64
            raise ValueError(f"trial count {self.trials} reaches the bound of 2**63 trials")
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


def _source_mode(cfg: TrialConfig, single_dim: int, full_dim: int) -> bool:
    """True when components are single-copy (i.i.d. per copy), False when they span full_dim."""
    dim = cfg.source[0][1].dim
    if dim in (single_dim, full_dim):
        return dim == single_dim
    raise ValueError(
        f"source components of dim {dim} fit neither one copy ({single_dim}) "
        f"nor the strategy's full space ({full_dim})"
    )


# =====================================================================
# Protocol sampling
# =====================================================================


def simulate_protocol(
    s: Strategy | GraphStrategy, cfg: TrialConfig
) -> tuple[int, float, float]:
    """Sample the verification protocol; returns (passes, p_emp, stderr).

    Graph strategies are simulated at the protocol level: per round the
    parity decision passes with the source key's exact chance of a joint Bell
    outcome that the decision accepts. Other strategies need a decomposition;
    per round the decision passes with the key's test-weighted pass chance.
    Each kind supplies only the pass probability of a key's kets.
    """
    kets = [k.amplitudes for _, k in cfg.source]
    if isinstance(s, GraphStrategy):
        n = s.graph.n
        pairs = _source_mode(cfg, 1 << n, 1 << 2 * n)
        # A ket with no imaginary part stays real, so its sums run in real arithmetic.
        kets = [ket.real if not ket.imag.any() else ket for ket in kets]
        codes = parity_accept_indices(s.graph)

        def rate(*key_kets: np.ndarray) -> float:
            """sum_x A(x) over the flip strings x."""
            *left, right = key_kets
            return float(np.sum(_flip_stage(n, codes, right, *left)))

    elif isinstance(s, Strategy):
        if s.decomposition is None:
            raise ValueError(
                "strategy carries no decomposition and no protocol form; nothing to sample"
            )
        pairs = _source_mode(cfg, s.target.dim, s.omega.dim) and s.copies == 2
        weights = np.array([p for p, _ in s.decomposition])
        tests = [t.entries for _, t in s.decomposition]

        def rate(*key_kets: np.ndarray) -> float:
            """sum_t w_t p_t over the tests t."""
            state = np.kron(*key_kets) if pairs else key_kets[0]
            passing = [float(np.real(state.conj() @ (test @ state))) for test in tests]
            return float(weights @ np.clip(passing, 0.0, 1.0))

    else:
        raise ValueError(f"cannot simulate a {type(s).__name__}")
    passes = _key_passes(cfg, pairs, kets, rate)
    p_emp = passes / cfg.trials
    stderr = math.sqrt(p_emp * (1.0 - p_emp) / cfg.trials)
    return passes, p_emp, stderr


def _flip_stage(
    n: int, codes: np.ndarray, amplitudes: np.ndarray, left: np.ndarray | None = None
) -> np.ndarray:
    """A(x) over the flip strings x of a pair amplitude matrix P.

    P[r, s] is left[r] * amplitudes[s] for a product pair, else entry
    r * d + s of the flat amplitudes. A(x) = |sum_r (-1)^popcount(c(x) & r) P[r, r ^ x]|^2 / d
    is the chance of drawing x with the accepted phase string c(x) = codes[x].
    It is one signed sum per x, taken over blocks of about _FLIP_BLOCK_ENTRIES
    gathered entries, so no d x d array is formed. Real entries keep the sums
    real.
    """
    # Shares no code with graph_strategy's accept-ket rows, so the sampler's
    # cross-check stays independent.
    d = 1 << n
    rows = np.arange(d, dtype=np.int64)
    scale, offset = (1.0, rows * d) if left is None else (left, 0)
    width = min(d, max(1, _FLIP_BLOCK_ENTRIES >> n))
    accepted = np.empty(d)
    for start in range(0, d, width):
        flips = rows[start : start + width, None]
        block = amplitudes.reshape(-1)[(rows ^ flips) + offset]
        signed = np.einsum("xr,xr->x", walsh_signs(codes[flips], rows) * scale, block)
        accepted[start : start + width] = np.abs(signed) ** 2 / d
    return accepted


def _key_passes(
    cfg: TrialConfig, pairs: bool, kets: list[np.ndarray], rate: Callable[..., float]
) -> int:
    """Pass count of the rule both samplers follow.

    Key a * comps + b of a pair of copies holds kets (kets[a], kets[b]), else
    key k holds (kets[k],), over the comps source components. The trials are
    split over the keys by one multinomial draw, then each drawn key adds one
    binomial draw at rate(*its kets), its pass probability, in ascending key
    order; keys drawn by no trial are never built. Sources of more than
    _MAX_KEYS keys are refused before any key array is formed.
    """
    comps = len(kets)
    num_keys = comps**2 if pairs else comps
    if num_keys > _MAX_KEYS:
        raise ValueError(f"source draws {num_keys} keys, over the bound of {_MAX_KEYS} keys")
    weights = np.array([w for w, _ in cfg.source])
    if pairs:
        weights = np.outer(weights, weights).ravel()
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    counts = rng.multinomial(cfg.trials, weights / weights.sum())
    passes = 0
    for key in np.flatnonzero(counts):
        key_kets = (kets[key // comps], kets[key % comps]) if pairs else (kets[key],)
        passes += int(rng.binomial(counts[key], min(max(rate(*key_kets), 0.0), 1.0)))
    return passes


def fidelity_experiment(gs: GraphStrategy, ensemble: TrialConfig) -> tuple[float, float]:
    """Estimate fidelity from the sampled pass rate; returns (F_hat, F_true).

    Needs an i.i.d. single-copy source: F_hat is the square root of the
    empirical pass rate, F_true the exact overlap of the source's mixed state
    with the graph state (source_fidelity).
    """
    d = 1 << gs.graph.n
    if not _source_mode(ensemble, d, d * d):
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
