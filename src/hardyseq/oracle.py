"""Brute-force estimation of the true least constant on small windows.

The least constant equals ``sup_a lhs(a) / rhs(a)`` over nonnegative
sequences.  On a finite window this module maximizes the ratio over a fixed
pool of candidate families, always searched in the same order: single spikes,
indicator blocks (windows of two or more points), Dirichlet points on the
constraint surface, and the polish of the best of them, unless a pool ratio
is already infinite or every pool ratio is 0 (the constant is then exactly
0).  The pool keeps that order, so the index of a candidate tells its
family.  The best ratio found is always a certified lower bound on the true
constant, and ``OracleResult.search`` says which search ran: ``"spike"``,
``"power"`` or ``"ascent"``.

For ``p <= min(1, q)`` (including ``q = inf``), and for the powered-sum
forms also ``r >= p``, the maximum is attained at a spike.  Substitute
``x = a^p``: the constraint set becomes the simplex ``sum x_m v_m = 1``,
whose extreme points are single spikes, and the p-th power of the numerator
becomes a weighted l^(q/p) norm (``q/p >= 1``; the sup for ``q = inf``) of
nonnegative convex functions of ``x``.  Each is built from l^(1/p) norms
(every sum of ``a`` is ``(sum x_k^(1/p))^p`` after the power, and
``1/p >= 1``), suprema, and for the powered sum ``(sum x_k^(r/p))^(p/r)``,
an l^(r/p) norm, which is convex only for ``r/p >= 1``.  A monotone norm of
nonnegative convex functions is convex, so the ratio's p-th power is convex
on the simplex and takes its maximum at a vertex; ``q >= 1`` is not needed.
In that range :func:`brute_force_constant` evaluates the spikes alone and
returns their maximum, which is exact, certificate ``exact-spike``;
everywhere else the full search runs and the result is ``heuristic``.  For
a powered sum with ``r < p`` the spikes are beaten: the inner l^(r/p)
quasi-norm favours spread-out candidates.

Outside the spike range the polish is one of two searches.  For finite
``q`` and the four sum-inner forms (gop, antigop, dual-gop, dual-antigop),
which leave the spike range only with ``p > 1`` or ``q < p <= 1``, it is a
power iteration.  With ``g = grad(lhs^q)`` a step is
``a <- a^alpha (g/v)^beta``, rescaled by its row maximum, so ``a_k = 0``
where ``g_k = 0``:

================  =================  ============
range             ``alpha``          ``beta``
================  =================  ============
``p > 1``         0                  ``1/(p-1)``
``q < p <= 1``    ``(1-q)/(p-q)``    ``1/(p-q)``
================  =================  ============

For ``p > 1`` this is Boyd's power method for l^p -> l^q norms (D. W.
Boyd, Linear Algebra Appl. 9, 1974), the stationarity condition of
``lhs/rhs``.  For ``q < p <= 1`` it is a minorize-maximize (MM) step (D. R.
Hunter and K. Lange, "A tutorial on MM algorithms", Am. Stat. 58, 2004).
Put ``x = a^p v``, on the simplex ``sum x = 1``, and hold the record map
``i*`` of the outer scan (below) fixed, so that ``lhs^q`` is
``sum_n w_n (u_i*(n) S_n)^q`` with ``S_n`` the inner sum that ``i*(n)``
takes.  Write ``S_n(a') = S_n sum_k theta_nk (x'_k/x_k)^(1/p)`` with
``theta_nk = a_k / S_n`` over the terms of ``S_n``.  Jensen for the convex
``t^(1/p)`` and then for the concave ``t^(q/p)`` gives
``S_n(a')^q >= S_n^q sum_k theta_nk (x'_k/x_k)^(q/p)``, and summing over
``n``, ``lhs(a')^q >= sum_k c_k (x'_k/x_k)^(q/p)`` with ``c_k = a_k g_k / q``
and ``sum_k c_k = lhs(a)^q``.  Equality holds at ``a' = a``, and the step
in the table is the exact maximizer of this bound on the simplex.  The true
``lhs`` is a maximum over record maps, so it is at least the bound, and the
ratio never falls, even when the records change.  ``v_k = 0`` with
``g_k > 0`` never reaches the polish, since its spike already makes the
pool ratio infinite.

``g`` takes two scans: with ``E`` the iterated entries, ``i*(n)`` is the
first record position of the outer scan at or after ``n`` (head outer: the
last one at or before ``n``, both from one
``minimum``/``maximum.accumulate`` over record indices); ``i*(n)`` gets the
mass ``q w_n E_n^(q-1) u_i*(n)``, and ``g`` is the suffix sum of the masses
for an inner-left form, their prefix sum for inner-right.  A step costs one
such pass and one ratio evaluation per row, where a coordinate-ascent step
costs ``2n``.  It runs from the ``4 * restarts`` best pool candidates,
and each row stops at its first step that does not raise its ratio.  For
``q < p <= 1`` the MM step can converge slowly, so each plain step also
evaluates the extrapolations ``a (a'/a)^omega`` of the step ``a'`` along
``_POWER_REACH``, stretched per row while the farthest of them wins.  That
step also keeps a zero entry at zero and brings an entry close to zero only
slowly, so it stays on the face of the simplex it starts on, and can stop
where reviving a zero entry would raise the ratio.  So the plain iteration
runs once more from the ``n`` toggles of the best row, each of which sets
one positive entry to zero or one zero entry to the row's least positive
entry, and so starts on a neighbouring face.  The plain iteration stops at
a fixed point of its record set, which can lie just off a kink of the ratio
where a position is about to become (or stop being) a record; the ascent
reaches such kinks.  So the best row of each problem then takes flip steps:
each evaluates the ``n`` candidates that flip one position's record status,
one of them the plain step, and moves to the best while that raises its
ratio.  On the power path ``evaluations`` counts one per ratio evaluation
of a live row: one per plain step (three for ``q < p <= 1``, and ``n`` for
the toggles), ``n`` per flip step.  Everywhere else, that is powered sums
with ``r < p``, the sup and powered-sum forms with ``p > 1`` or ``q < p``,
and ``q = inf``, the polish is the multiplicative coordinate ascent of
:func:`_polish_top`, ``2n`` evaluations per live row and iteration.

Both searches run every restart in lock-step, with one batched ratio
evaluation per iteration for all of them.  The evaluation is row-independent
(a row's ratio does not depend on the other rows of its batch), and so is a
power step: it takes every power, log and exp on a contiguous array and
every sum as a row reduction or a per-row ``bincount``.  So each restart
ends exactly where a polish of that restart alone would.  The power loop
evaluates its candidates through ``hardyops._sum_entries``, which returns
``x = u * inner(a)`` with its outer scan ``E``, and keeps both for every
live row: they are exactly what the gradient of the row's next step reads,
so that step does not compute them again.

The pool rows that do not depend on the problems are built once: the spike
and block indicators depend only on ``n`` and the Dirichlet draws only on
``(n, cfg)``, and both stay in small ``functools.lru_cache`` caches as
read-only arrays (the indicators as bool).  Repeated searches at the same
size and config, as in a verification sweep, share them; each pool is a
fresh float array filled from them.

Not every block of the pool is evaluated.  The spikes and Dirichlet rows
are evaluated first, and the ``S``-th best of their ratios is a threshold,
``S`` being the number of rows the polish starts from.  A block ``[m1,
m2]`` of ``L`` points has a ratio of at most ``c(L) K / V^(1/p)``: ``c(L)``
is ``L``, 1 or ``L^(1/r)`` for a sum, sup or powered-sum inner, ``K`` is
``(sum_n w_n U_n^q)^(1/q)`` (``max_n w_n U_n`` at ``q = inf``) with ``U``
the running max of ``u`` in the outer direction, and ``V`` is the block's
v-mass.  That bound times ``exp(1.01 (16 + 8/q + 8/p) delta)``, ``delta``
the error of one float operation (:func:`_block_caps`), is at least the
block's float ratio wherever every intermediate is a normal number; only
there is a block whose bound lies below the threshold skipped, since it can
reach neither the polish nor the maximum.  So skipping changes no result,
and ``evaluations`` still counts every pool row, evaluated or not.  On the
benchmark's oracle-wide workload 79% of the block rows are skipped
(83-90% at n >= 32; smaller stacks evaluate every block).

The search also has a problem axis.  The list entry points
(:func:`brute_force_constants`, :func:`equivalence_ratios`,
:func:`chain_equivalence_sweeps`) group the problems that share ``p``,
``q``, form and window size, stack their weights to shape (B, 1, n) against
candidates of shape (B, K, n), and polish every restart of every problem of
a group with one batched evaluation per iteration.  Rows are independent
across problems as well, so each result equals the problem's own result,
bit for bit, and comes back in input order; :func:`brute_force_constant`
is the one-element call.

Everything is deterministic given the config seed: per-restart generators are
derived from ``(seed, restart_index)`` and results merge by max, so the
outcome does not depend on evaluation order.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .charformulas import CharacterizationResult, char_antigop, char_gop
from .hardyops import (
    ANTIGOP,
    ANTIGOP_SUP,
    GOP,
    GOP_SUP,
    _BLOCK_ENTRIES,
    OperatorForm,
    RatioProblem,
    _ratio_batch,
    _ratio_from_entries,
    _sum_entries,
    antigop_psum,
    gop_psum,
)
from .seqcore import Window, _ext_mul, ext_div, scan_max, scan_min, scan_sum

__all__ = [
    "OracleConfig",
    "OracleResult",
    "EquivalenceRatio",
    "ChainEquivalenceReport",
    "spike_oracle",
    "brute_force_constant",
    "brute_force_constants",
    "equivalence_ratio",
    "equivalence_ratios",
    "chain_equivalence_sweep",
    "chain_equivalence_sweeps",
]

#: Coordinate-ascent step: initial multiplicative step, and its decay on a
#: step that finds no better probe.
_STEP_INIT = 0.5
_STEP_DECAY = 0.9
#: The power iteration starts from this many pool rows per restart.
_POWER_STARTS = 4
#: Extrapolations ``a (a'/a)^omega`` that each plain step for ``q < p <= 1``
#: evaluates with the step ``a'`` itself, ``omega`` times the row's stretch.
_POWER_REACH = (2.0, 4.0)
#: Window sizes (and ``(n, cfg)`` pairs) whose pool rows stay cached.
_POOL_CACHE = 8
#: Unit roundoff, and the relative error allowed for one ``pow`` (16 ulp),
#: in the margin of :func:`_block_caps`.
_EPS = 2.0**-53
_POW_ERR = 2.0**-48
#: The pool ratio of a block that :func:`_pool_ratios` does not evaluate.
_PRUNED = -1.0
#: Stacks whose block rows hold fewer entries evaluate every block: below
#: about this size the bounds and a second evaluation cost more than the
#: skipped rows (one problem: break-even near n = 24).
_PRUNE_ENTRIES = 1 << 13


@dataclass(frozen=True)
class OracleConfig:
    restarts: int = 32
    iterations: int = 500
    seed: int = 0
    dirichlet_per_restart: int = 8

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.dirichlet_per_restart < 0:
            raise ValueError("dirichlet_per_restart must be >= 0")


#: A light configuration for large verification sweeps.
FAST_CONFIG = OracleConfig(restarts=2, iterations=40, dirichlet_per_restart=8)


@dataclass(frozen=True)
class OracleResult:
    constant: float
    argmax: Window
    certificate: str  # "exact-spike" or "heuristic"
    evaluations: int
    search: str = "ascent"  # "spike", "power" or "ascent"

    def to_json(self) -> dict:
        return {
            "constant": self.constant,
            "argmax": self.argmax.to_json(),
            "certificate": self.certificate,
            "evaluations": self.evaluations,
            "search": self.search,
        }


def _spike_exact(problem: RatioProblem) -> bool:
    """Whether the least constant is the spike maximum (module docstring):
    ``p <= min(1, q)``, and ``r >= p`` for the powered-sum forms."""
    form = problem.form
    return problem.p <= min(1.0, problem.q) and (
        form.inner_kind != "psum" or form.inner_exponent >= problem.p
    )


def _power_search(problem: RatioProblem) -> bool:
    """Whether the polish is the power iteration (module docstring): finite
    ``q`` and a sum-inner form.  Only read outside the spike range, so the
    sum forms reach it with ``p > 1`` or ``q < p <= 1``."""
    return math.isfinite(problem.q) and problem.form.inner_kind == "sum"


def _result(
    problem: RatioProblem, row: np.ndarray, constant: float, evaluations: int
) -> OracleResult:
    """The result for candidate ``row``, certified exact in the spike range."""
    exact = _spike_exact(problem)
    return OracleResult(
        constant=float(constant),
        argmax=Window(problem.u.start, row),
        certificate="exact-spike" if exact else "heuristic",
        evaluations=int(evaluations),
        search="spike" if exact else "power" if _power_search(problem) else "ascent",
    )


def _spike_max(problem: RatioProblem) -> OracleResult:
    """The best single spike, one evaluation per index."""
    pool = np.eye(problem.size)
    ratios = _ratio_batch(problem, pool)
    k = int(np.argmax(ratios))
    return _result(problem, pool[k], ratios[k], len(pool))


def _stack(problems: Sequence[RatioProblem]) -> tuple[np.ndarray, ...]:
    """The weights ``(u, v, w)`` of same-size problems, each of shape (B, 1, n)."""
    return tuple(
        np.stack([getattr(prob, k).as_array() for prob in problems])[:, None, :]
        for k in "uvw"
    )


@functools.lru_cache(maxsize=_POOL_CACHE)
def _block_ends(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ends ``m1 < m2`` of every block ``[m1, m2]``, ordered by ``m1``,
    then ``m2``; read-only, cached by ``n``."""
    ends = np.triu_indices(n, k=1)
    for x in ends:
        x.setflags(write=False)
    return ends


@functools.lru_cache(maxsize=_POOL_CACHE)
def _indicators(n: int) -> np.ndarray:
    """The spikes, then the indicators of every block of
    :func:`_block_ends`: n(n+1)/2 read-only bool rows, cached by ``n``."""
    m1, m2 = _block_ends(n)
    idx = np.arange(n)
    out = np.concatenate([np.eye(n, dtype=bool), (m1[:, None] <= idx) & (idx <= m2[:, None])])
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=_POOL_CACHE)
def _dirichlet_draws(n: int, cfg: OracleConfig) -> np.ndarray:
    """The uniform simplex points of every restart, in restart order;
    read-only, cached by ``(n, cfg)``."""
    out = np.concatenate([
        np.random.default_rng((cfg.seed, idx)).dirichlet(
            np.ones(n), size=cfg.dirichlet_per_restart
        )
        for idx in range(cfg.restarts)
    ])
    out.setflags(write=False)
    return out


def _assemble_pool(problems: Sequence[RatioProblem], cfg: OracleConfig) -> np.ndarray:
    """Spikes, then blocks, then Dirichlet draws, for same-size problems that
    share ``p``; shape (B, P, n), built in one allocation.

    Only the Dirichlet rows differ between problems: the shared simplex
    points are pulled onto each problem's constraint surface
    ``sum a^p v = 1``.  A row that overflows there is set to zero, whose
    ratio 0 never wins, so every candidate is a finite window.
    """
    n, p = problems[0].size, problems[0].p
    x = _dirichlet_draws(n, cfg)
    ind = _indicators(n)
    pool = np.empty((len(problems), len(ind) + len(x), n))
    pool[:, : len(ind)] = ind
    v = np.stack([prob.v.as_array() for prob in problems])[:, None, :]
    drawn = pool[:, len(ind) :]
    with np.errstate(over="ignore"):
        drawn[...] = (x / np.where(v > 0, v, 1.0)) ** (1.0 / p)
    drawn[~np.isfinite(drawn).all(axis=-1)] = 0.0
    return pool


def _starts(problem: RatioProblem, cfg: OracleConfig, size: int) -> int:
    """How many of the best pool rows the polish starts from: ``4 *
    restarts`` for the power iteration, ``restarts`` for the ascent, at most
    the pool size ``size``."""
    per = _POWER_STARTS if _power_search(problem) else 1
    return min(per * cfg.restarts, size)


def _blocks_in_range(problem: RatioProblem, uvw: np.ndarray, cmax: float) -> np.ndarray:
    """Whether every intermediate of a block row's ratio and of its bound is
    0 or within 2^(+-1020), for each stacked problem; ``uvw`` has shape
    (3, B, n).

    The nonzero entries of ``x = u * inner(a)`` and ``E`` lie in
    ``[min u+, cmax max u]`` (``u+`` the positive entries; the inner
    aggregation of a block is 1 to ``cmax``), so every later value lies
    in a span computed from the log2 extremes of the weights: ``E^q``,
    ``w E^q`` and their sum, both sides and the ratio.  A weight with no
    positive entry fails (its spans are NaN), so its blocks are all
    evaluated.
    """
    p, q, n = problem.p, problem.q, uvw.shape[-1]
    with np.errstate(divide="ignore"):
        logs = np.log2(np.concatenate([np.where(uvw > 0, uvw, np.inf).min(axis=-1),
                                       uvw.max(axis=-1)]))
    out = []
    for ulo, vlo, wlo, uhi, vhi, whi in zip(*logs.tolist()):
        uhi += math.log2(cmax)
        vhi += math.log2(n)  # V, a sum of at most n entries of v
        if math.isinf(q):
            llo, lhi = ulo + wlo, uhi + whi  # w E, and its maximum
            spans = [ulo, uhi, wlo, whi]
        else:
            tlo, thi = q * ulo + wlo, q * uhi + whi + math.log2(n)  # w E^q, its sum
            llo, lhi = tlo / q, thi / q
            spans = [ulo, uhi, q * ulo, q * uhi, wlo, whi, tlo, thi]
        rlo, rhi = vlo / p, vhi / p
        spans += [llo, lhi, vlo, vhi, rlo, rhi, llo - rhi, lhi - rlo]
        out.append(all(-1020.0 <= x <= 1020.0 for x in spans))
    return np.array(out, dtype=bool)


def _block_caps(problem: RatioProblem, weights: tuple[np.ndarray, ...]) -> np.ndarray:
    """Upper bounds on the pool ratios of the blocks of stacked problems,
    margin included; shape (B, n(n-1)/2) in pool order, inf where a bound
    is not certified.

    A block ``[m1, m2]`` is the indicator of ``L = m2 - m1 + 1`` points.
    Its inner aggregation is at most ``c(L)`` everywhere: ``L`` for a sum,
    1 for a sup and ``L^(1/r)`` for a powered sum.  So each iterated entry
    ``E_n`` is at most ``c(L) U_n``, with ``U`` the running max of ``u`` in
    the outer direction, ``lhs <= c(L) K`` with ``K = (sum_n w_n
    U_n^q)^(1/q)`` (``max_n w_n U_n`` at ``q = inf``), and ``rhs =
    V^(1/p)`` with ``V = sum_{m1 <= k <= m2} v_k``, the block's v-mass.
    ``V`` is read from one ``cumsum`` along each row ``m1`` of the
    triangle ``k >= m1``, never as a difference of prefix sums, which can
    cancel to nothing.  So ``ratio <= c(L) K / V^(1/p)``.

    The margin bounds how far the float ratio of :func:`_ratio_batch` can
    exceed that float bound.  Put ``eps = 2^-53``, take every ``pow`` to be
    within 16 ulp (2^-48 relative) of the exact power of its float
    arguments, and note that rounding its exponent (``1/q``, ``1/p``) adds
    at most ``|ln result| eps <= 710 eps`` while the result is a normal
    number.  A sum of at most ``n`` nonnegative terms, in any order, is
    within ``gamma_n = n eps / (1 - n eps)``.  So each operation is within
    ``delta = gamma_n + 2^-48 + 712 eps``.  The entries of a block are 0
    and 1, whose powers are exact.  Counting the operations of the ratio
    and of the bound (and of the product with the margin): at most 16
    act on a side directly, at most 8 inside a ``q``-th power that the root
    ``1/q`` divides by ``q``, and at most 8 inside the ``p``-th power under
    the root ``1/p``.  With ``-ln(1 - x) <= 1.001 x`` for these ``x``, the
    float ratio is at most the float bound times ``exp(lam)``, ``lam = (16 +
    8/q + 8/p) delta``, and the cap is the bound times ``exp(1.01 lam)``:
    the extra 1% is at least ``100 eps`` and covers the rounding of the
    ``exp`` and of that product.  The count needs every intermediate to be
    a normal number or exactly 0, so a problem's caps are certified only
    where :func:`_blocks_in_range` holds, and are inf elsewhere.
    """
    form, p, q = problem.form, problem.p, problem.q
    uvw = np.stack(weights)[:, :, 0]
    u, v, w = uvw
    b, n = u.shape
    m1, m2 = _block_ends(n)
    length = (m2 - m1 + 1).astype(float)
    idx = np.arange(n)
    delta = n * _EPS / (1.0 - n * _EPS) + _POW_ERR + 712.0 * _EPS
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if form.inner_kind == "sup":
            c = np.ones_like(length)
        elif form.inner_kind == "psum":
            c = length ** (1.0 / form.inner_exponent)  # inf for a tiny r: no cap
        else:
            c = length
        lam = (16.0 + 8.0 / q + 8.0 / p) * delta
        top = scan_max(u, right=form.outer == "tail")
        if math.isinf(q):
            k = (w * top).max(axis=-1)
        else:
            k = (w * top**q).sum(axis=-1) ** (1.0 / q)
        mass = np.cumsum(np.where(idx >= idx[:, None], v[:, None, :], 0.0), axis=-1)
        mass = mass.reshape(b, -1)[:, m1 * n + m2]
        caps = c * k[:, None] / mass ** (1.0 / p) * np.exp(1.01 * lam)
    caps[~_blocks_in_range(problem, uvw, float(c.max()))] = np.inf
    return caps


def _pool_ratios(
    problem: RatioProblem, pool: np.ndarray, weights: tuple[np.ndarray, ...], starts: int
) -> np.ndarray:
    """The pool ratios (B, P) of stacked problems, without evaluating the
    blocks that cannot reach the ``starts`` best rows.

    The spikes and Dirichlet rows are evaluated first, and the
    ``starts``-th best of their ratios is a threshold that the ``starts``
    best rows of the pool reach.  A block whose cap (:func:`_block_caps`)
    is below it for every problem of the stack is not evaluated, and reads
    ``_PRUNED``: below the threshold, not inf and not 0 (any pruning needs a
    positive threshold, so such a pool is not all 0 either way).  So
    :func:`_to_polish`, the rows the polish starts from and the final
    maximum are those of the full evaluation.  The order ``np.argsort``
    gives to equal ratios depends on every entry, though; a problem with a
    tie among its ``starts + 1`` best ratios (a NaN counts as one) has its
    pruned blocks evaluated as well.  A stack whose blocks hold fewer than
    ``_PRUNE_ENTRIES`` entries evaluates them all.
    """
    b, size, n = pool.shape
    nb = n * (n - 1) // 2
    if b * nb * n < _PRUNE_ENTRIES or size - nb < starts:
        return _ratio_batch(problem, pool, weights)
    ratios = np.full((b, size), _PRUNED)
    # the spikes and Dirichlet rows, as one contiguous batch
    r = _ratio_batch(problem, np.concatenate([pool[:, :n], pool[:, n + nb :]], axis=1), weights)
    ratios[:, :n], ratios[:, n + nb :] = r[:, :n], r[:, n:]
    cut = r.shape[1] - starts
    floor = np.partition(r, cut, axis=1)[:, cut]
    at = n + np.flatnonzero(~(_block_caps(problem, weights) < floor[:, None]).all(axis=0))
    _evaluate_rows(problem, pool, weights, at, ratios)
    if len(at) == nb:
        return ratios
    cut = size - starts - 1
    best = np.sort(np.partition(ratios, cut, axis=1)[:, cut:], axis=1)
    for i in np.flatnonzero(~(best[:, 1:] > best[:, :-1]).all(axis=1)):  # ties
        one = slice(i, i + 1)
        _evaluate_rows(problem, pool[one], tuple(x[one] for x in weights),
                       np.arange(n, n + nb), ratios[one])
    return ratios


def _evaluate_rows(
    problem: RatioProblem,
    pool: np.ndarray,
    weights: tuple[np.ndarray, ...],
    rows: np.ndarray,
    out: np.ndarray,
) -> None:
    """``out[:, rows]`` = the ratios of the pool rows ``rows``, evaluated in
    contiguous copies of about ``_BLOCK_ENTRIES`` entries, as
    :func:`_ratio_batch` evaluates a large batch: no copy of them all."""
    step = max(1, _BLOCK_ENTRIES // (pool.shape[0] * pool.shape[-1]))
    for lo in range(0, len(rows), step):
        at = rows[lo : lo + step]
        out[:, at] = _ratio_batch(problem, pool[:, at], weights)


def _polish_top(
    problem: RatioProblem,
    pool: np.ndarray,
    ratios: np.ndarray,
    weights: tuple[np.ndarray, ...],
    cfg: OracleConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coordinate ascent: multiplicative one-coordinate moves from the
    ``cfg.restarts`` best candidates of each stacked problem, all rows in
    lock-step.

    ``pool`` (B, P, n) and ``ratios`` (B, P) hold B problems that share
    ``problem``'s ``p``, ``q`` and form, with ``weights`` their stacked
    ``(u, v, w)``.  Returns ``(polished, best, evals)`` of shapes (B, R, n),
    (B, R) and (B,), where R = min(restarts, P).

    The rows start from their pool ratios, which ``_ratio_batch`` gives
    bit for bit as it would give them alone.  Each iteration evaluates the
    ``2n`` one-coordinate probes of every active row in one batch.  A row
    moves to its best probe if that beats its best ratio, and otherwise
    shrinks its own step; it freezes once its step falls below 1e-12 or its
    best ratio is infinite.  Rows are independent
    under :func:`_ratio_batch`, so each ends where a polish of that row alone
    would, and a problem's ``evals`` counts only the probes of its rows while
    they were active.
    """
    b, size, n = pool.shape
    rows_per = min(cfg.restarts, size)
    top = np.argsort(ratios, axis=1)[:, ::-1][:, :rows_per]
    a = np.take_along_axis(pool, top[:, :, None], axis=1).reshape(-1, n)
    uvw = tuple(np.repeat(x, rows_per, axis=0) for x in weights)
    best = np.take_along_axis(ratios, top, axis=1).reshape(-1)
    step = np.full(len(a), _STEP_INIT)
    moves = np.zeros(len(a), dtype=int)  # active iterations per row
    idx = np.arange(n)
    rows, ran = np.arange(len(a)), 0
    live_uvw = uvw
    for _ in range(cfg.iterations):
        live = np.flatnonzero((step >= 1e-12) & ~np.isinf(best))
        if len(live) < len(rows):  # the active set only shrinks
            moves[rows] += ran
            rows, ran = live, 0
            live_uvw = tuple(x[rows] for x in uvw)
        if not len(rows):
            break
        ran += 1
        base, grow = a[rows], 1.0 + step[rows, None]
        probes = np.repeat(base[:, None, :], 2 * n, axis=1)
        probes[:, idx, idx] = base * grow
        probes[:, n + idx, idx] = base / grow
        r = _ratio_batch(problem, probes, live_uvw)
        k = np.argmax(r, axis=1)
        top = r[np.arange(len(rows)), k]
        up = top > best[rows]
        best[rows[up]] = top[up]
        a[rows[up]] = probes[up, k[up]]
        step[rows[~up]] *= _STEP_DECAY
    moves[rows] += ran
    evals = 2 * n * moves.reshape(b, rows_per).sum(axis=1)
    return a.reshape(b, rows_per, n), best.reshape(b, rows_per), evals


def _offsets(rows: int, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat offsets of ``rows`` rows of shape (1, n), as ``x`` and ``E``
    are held, and of their gradients, ``k`` each; shapes (rows, 1, 1) and
    (rows, k, 1)."""
    return n * np.arange(rows)[:, None, None], n * np.arange(rows * k).reshape(rows, k, 1)


def _power_gradient(
    form: OperatorForm,
    q: float,
    u: np.ndarray,
    qw: np.ndarray,
    x: np.ndarray,
    e: np.ndarray,
    flip: np.ndarray | None,
    offsets: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """``g = grad(lhs^q)`` of a sum-inner form at L candidates, K rows for
    each; shape (L, K, n).

    ``x = u * inner(a)`` and ``E``, its outer scan (the entries of
    :func:`_iterated_entries`), come from :func:`_sum_entries`; they and
    ``u`` have shape (L, 1, n), and ``qw``, which is ``q * w``, broadcasts
    against them.  The records are the positions where ``x = E``.
    ``i*(n)`` is the first record at or after ``n`` (head outer: the last
    one at or before ``n``), where ``E_n`` is attained.  Each ``n`` puts the
    mass ``q w_n E_n^(q-1) u_i*(n)`` (0 where ``E_n = 0``) on ``i*(n)``; one
    ``bincount`` sums the masses per row, and ``g`` is their suffix sum for
    an inner-left form, their prefix sum for inner-right.  ``offsets`` are
    :func:`_offsets` ``(L, K, n)``.

    ``flip`` is None for the plain step (K = 1), or a bool mask (K, n)
    whose row k flips the record status of the positions it marks; ``E_n``
    is then read as ``x_i*(n)``, so ``g`` is the gradient of a lower bound
    on ``lhs^q`` that takes the flipped record set.  The end of the outer
    scan (the last position for a tail outer, the first for a head outer)
    stays a record, so flipping it flips nothing: that row is the plain
    step's gradient.
    """
    tail = form.outer == "tail"
    n = x.shape[-1]
    idx = np.arange(n)
    rec = x == e
    if flip is not None:
        rec = rec ^ flip
    rec[..., n - 1 if tail else 0] = True
    if tail:
        star = scan_min(np.where(rec, idx, n), right=True)
    else:
        star = scan_max(np.where(rec, idx, -1))
    at = star + offsets[0]  # into the rows of x
    estar, ustar = x.reshape(-1)[at], u.reshape(-1)[at]
    pos = estar > 0
    mass = np.where(pos, qw * np.where(pos, estar, 1.0) ** (q - 1.0) * ustar, 0.0)
    m = np.bincount((star + offsets[1]).ravel(), weights=mass.ravel(), minlength=mass.size)
    return scan_sum(m.reshape(mass.shape), right=form.inner_dir != "right")


def _power_steps(
    problem: RatioProblem,
    a: np.ndarray,
    best: np.ndarray,
    weights: tuple[np.ndarray, ...],
    iterations: int,
    reach: tuple[float, ...] = (),
    flip: bool = False,
) -> np.ndarray:
    """Power steps from the rows ``a`` (L, n) with ratios ``best`` (L,),
    both updated in place, all rows in lock-step; returns the evaluations
    of each row.

    ``weights`` are the rows' ``(u, v, w)``, each of shape (L, 1, n).  A
    plain step evaluates one candidate, a flip step (``flip``) the ``n``
    candidates that flip one record position each:
    ``a <- a^alpha (g/v)^beta``, rescaled by its row maximum, with ``g``
    from :func:`_power_gradient` (so ``a_k = 0`` where ``g_k = 0``) and

    ================  =================  ============
    range             ``alpha``          ``beta``
    ================  =================  ============
    ``p > 1``         0                  ``1/(p-1)``
    ``q < p <= 1``    ``(1-q)/(p-q)``    ``1/(p-q)``
    ================  =================  ============

    The first is Boyd's step.  The second maximizes the minorizer of
    ``lhs^q`` set out in the module docstring, so it never lowers the
    ratio.  It is taken in log space, where each ``omega`` in ``reach``
    adds the extrapolated candidate ``a (a'/a)^(omega s)`` of the step
    ``a'``.  ``s`` is the row's stretch, 1 at the start, doubled when the
    farthest candidate wins and halved, down to 1, when the step itself
    wins.  A candidate that leaves the float range is set to zero,
    whose ratio 0 never wins.  A row moves to its best candidate if that
    raises its best ratio, and otherwise stops; it also stops once its
    ratio is infinite.

    A live row keeps the ``x`` and ``E`` of :func:`_sum_entries` that the
    evaluation of its last winning candidate computed, so its next gradient
    starts from them.  What depends only on the live set (its weights,
    ``q * w`` and the row offsets) is set up again, and its evaluations
    counted, only when a row stops.
    """
    p, q, form = problem.p, problem.q, problem.form
    alpha, beta = (0.0, 1.0 / (p - 1.0)) if p > 1 else ((1.0 - q) / (p - q), 1.0 / (p - q))
    n = a.shape[-1]
    mask, grads = (np.eye(n, dtype=bool), n) if flip else (None, 1)  # gradients per row
    evals = np.zeros(len(a), dtype=int)
    stretch = np.ones(len(a))
    rows = np.flatnonzero(~np.isinf(best))
    u, v, w = (arr[rows] for arr in weights)
    qw = q * w
    x, e = _sum_entries(u, a[rows, None], form)
    offsets, live = _offsets(len(rows), grads, n), np.arange(len(rows))
    ran = width = 0  # steps of the live set, candidates per step
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(iterations):
            if not len(rows):
                break
            g = _power_gradient(form, q, u, qw, x, e, mask, offsets)
            g /= g.max(axis=-1, keepdims=True)
            t = np.divide(g, v, out=np.zeros(g.shape), where=g > 0)
            t /= t.max(axis=-1, keepdims=True)
            if alpha:
                la = np.log(a[rows, None])
                step = alpha * la + beta * np.log(t)
                moved = step > -np.inf  # where a' > 0, hence a > 0
                scale, d = stretch[rows, None, None], step - la
                cand = np.concatenate([step] + [
                    np.where(moved, la + om * scale * d, -np.inf) for om in reach
                ], axis=1)
                cand = np.exp(cand - cand.max(axis=-1, keepdims=True))
            else:
                cand = t**beta
            cand[~np.isfinite(cand).all(axis=-1)] = 0.0
            cx, ce = _sum_entries(u, cand, form)
            r = _ratio_from_entries(problem, cand, v, w, ce, mul=_ext_mul)
            ran, width = ran + 1, cand.shape[1]
            k = np.argmax(r, axis=1)
            top = r[live, k]
            up = top > best[rows]
            best[rows[up]] = top[up]
            a[rows[up]] = cand[up, k[up]]
            if reach:
                stretch[rows[k == len(reach)]] *= 2.0
                stretch[rows[k == 0]] = np.maximum(stretch[rows[k == 0]] / 2.0, 1.0)
            keep = up & ~np.isinf(top)
            if keep.all():
                x, e = cx[live, k, None], ce[live, k, None]
                continue
            evals[rows] += ran * width  # the live rows only shrink
            kept = np.flatnonzero(keep)
            rows, u, v, w, qw = rows[kept], u[kept], v[kept], w[kept], qw[kept]
            x, e = cx[kept, k[kept], None], ce[kept, k[kept], None]
            offsets, live, ran = _offsets(len(rows), grads, n), np.arange(len(rows)), 0
    evals[rows] += ran * width
    return evals


def _power_top(
    problem: RatioProblem,
    pool: np.ndarray,
    ratios: np.ndarray,
    weights: tuple[np.ndarray, ...],
    cfg: OracleConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The power iteration for the stacked problems, in two or three phases.

    Shapes and contract as in :func:`_polish_top`, with R = S + 1 rows per
    problem for ``p > 1`` and R = S + n + 1 for ``q < p <= 1``, where
    S = min(4 restarts, P).  First the plain iteration (no flip) runs from
    the S best pool candidates of each problem; for ``q < p <= 1`` each of
    its steps also evaluates the extrapolations of ``_POWER_REACH``.  For
    ``q < p <= 1`` the plain iteration then runs again from the ``n``
    toggles of the best row: each sets one positive entry to zero, or one
    zero entry to the row's least positive entry, and is rescaled by its
    row maximum.  The step keeps a zero
    entry at zero and takes many steps to bring one close to it, so it
    cannot leave the face of the simplex it started on.  Then the best
    row of each problem takes flip steps: each evaluates the ``n``
    candidates that flip one record position, one of them the plain step,
    and moves to the best.  Every phase stops a row at its first step that
    does not raise its best ratio, and after ``cfg.iterations`` steps.  A
    problem's ``evals`` counts the ratio evaluations of its rows while they
    were live, and the ``n`` of the toggles.
    """
    b, size, n = pool.shape
    reach = _POWER_REACH if problem.p <= 1 else ()

    def plain(a: np.ndarray, best: np.ndarray) -> np.ndarray:
        """Plain steps from the rows ``a`` (B, L, n), updated in place."""
        uvw = tuple(np.repeat(x, a.shape[1], axis=0) for x in weights)
        evals = _power_steps(
            problem, a.reshape(-1, n), best.reshape(-1), uvw, cfg.iterations, reach
        )
        return evals.reshape(b, a.shape[1]).sum(axis=1)

    def lead(a: np.ndarray, best: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The best row (B, n) of each problem, and its ratio (B,)."""
        k = np.argmax(best, axis=1)[:, None]
        return (np.take_along_axis(a, k[:, :, None], axis=1)[:, 0],
                np.take_along_axis(best, k, axis=1)[:, 0])

    top = np.argsort(ratios, axis=1)[:, ::-1][:, : _starts(problem, cfg, size)]
    a = np.take_along_axis(pool, top[:, :, None], axis=1)
    best = np.take_along_axis(ratios, top, axis=1)
    evals = plain(a, best)
    if problem.p <= 1:
        row = lead(a, best)[0]
        low = np.where(row > 0, row, np.inf).min(axis=1, keepdims=True)
        low[np.isinf(low)] = 0.0  # a zero row has no entry to revive
        toggled = np.repeat(row[:, None], n, axis=1)
        toggled[:, np.arange(n), np.arange(n)] = np.where(row > 0, 0.0, low)
        peak = toggled.max(axis=-1, keepdims=True)
        toggled /= np.where(peak > 0, peak, 1.0)  # rescaled, as every step is
        tbest = _ratio_batch(problem, toggled, weights)
        evals += n + plain(toggled, tbest)
        a, best = np.concatenate([a, toggled], axis=1), np.concatenate([best, tbest], axis=1)
    a1, best1 = lead(a, best)
    evals += _power_steps(problem, a1, best1, weights, cfg.iterations, flip=True)
    return (
        np.concatenate([a, a1[:, None]], axis=1),
        np.concatenate([best, best1[:, None]], axis=1),
        evals,
    )


def _polish(
    problem: RatioProblem,
    pool: np.ndarray,
    ratios: np.ndarray,
    weights: tuple[np.ndarray, ...],
    cfg: OracleConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The power iteration where :func:`_power_search` holds, else the
    coordinate ascent; never called in the spike range."""
    top = _power_top if _power_search(problem) else _polish_top
    return top(problem, pool, ratios, weights, cfg)


def _shape(problem: RatioProblem) -> tuple:
    """What the problems of one stack share: exponents, form and size."""
    return problem.p, problem.q, problem.form, problem.size


def _in_groups(items: Sequence, key: Callable, run: Callable[[list], list]) -> list:
    """``run`` on each group of items with equal ``key``, in order of first
    appearance; the results come back in input order."""
    groups: dict = {}
    for i, item in enumerate(items):
        groups.setdefault(key(item), []).append(i)
    out: list = [None] * len(items)
    for members in groups.values():
        for i, res in zip(members, run([items[i] for i in members])):
            out[i] = res
    return out


def _to_polish(ratios: np.ndarray) -> np.ndarray:
    """Which problems of a stack the polish can raise, from their pool
    ratios (B, P): not those with an infinite ratio, and not those whose
    ratios are all 0.  The constant of the latter is 0: if ``lhs(a) > 0``
    for some ``a``, then ``lhs(e_k) > 0`` for some spike ``e_k`` with
    ``a_k > 0``, whose ratio is positive or infinite.  A NaN ratio is not
    0, so its problem is still polished."""
    return ~np.isinf(ratios).any(axis=1) & ~(ratios == 0).all(axis=1)


def _search(problems: Sequence[RatioProblem], cfg: OracleConfig) -> list[OracleResult]:
    """The search for same-size problems sharing ``p``, ``q`` and the form.

    In the spike range each problem's spike maximum; elsewhere one pool
    evaluation (:func:`_pool_ratios`, which skips the blocks that cannot
    reach the polish), then :func:`_finish`.
    """
    ref = problems[0]
    if _spike_exact(ref):
        return [_spike_max(prob) for prob in problems]
    weights = _stack(problems)
    pool = _assemble_pool(problems, cfg)
    ratios = _pool_ratios(ref, pool, weights, _starts(ref, cfg, pool.shape[1]))
    return _finish(problems, pool, ratios, weights, cfg)


def _finish(
    problems: Sequence[RatioProblem],
    pool: np.ndarray,
    ratios: np.ndarray,
    weights: tuple[np.ndarray, ...],
    cfg: OracleConfig,
) -> list[OracleResult]:
    """One lock-step polish of every problem that :func:`_to_polish`
    selects, and each problem's result; ``evaluations`` counts every pool
    row, evaluated or not."""
    ref = problems[0]
    evals = np.full(len(problems), pool.shape[1])
    fin = _to_polish(ratios)
    polished = np.cumsum(fin) - 1  # index among the polished problems
    sel = slice(None) if fin.all() else fin  # copy the pool only if needed
    extra, best, used = _polish(
        ref, pool[sel], ratios[sel], tuple(x[sel] for x in weights), cfg
    )
    evals[fin] += used
    out = []
    for i, prob in enumerate(problems):
        r = ratios[i]
        if fin[i]:
            r = np.concatenate([r, best[polished[i]]])
        k = int(np.argmax(r))
        row = pool[i, k] if k < pool.shape[1] else extra[polished[i], k - pool.shape[1]]
        out.append(_result(prob, row, r[k], evals[i]))
    return out


def spike_oracle(problem: RatioProblem) -> OracleResult:
    """Exact maximization over single-spike candidates for sup-inner forms.

    Requires the spike range ``p <= 1`` and ``q >= p``: for ``q < p``
    spread-out candidates beat every spike, so the spike maximum is no
    answer there.
    """
    if problem.form.inner_kind != "sup":
        raise ValueError("spike oracle requires a sup-inner operator form")
    if not _spike_exact(problem):
        raise ValueError(
            "spike oracle requires p <= 1 and q >= p, "
            f"got p={problem.p}, q={problem.q}"
        )
    return _spike_max(problem)


def brute_force_constants(
    problems: Sequence[RatioProblem], cfg: OracleConfig | None = None
) -> list[OracleResult]:
    """:func:`brute_force_constant` of every problem, in input order.

    Problems are grouped by ``(p, q, form, n)``.  In the spike range each is
    answered by its spikes; elsewhere a group is searched as one stack: one
    pool evaluation and one lock-step polish for all of its problems.  Every
    result equals that of the problem searched alone, bit for bit.
    """
    cfg = cfg or OracleConfig()
    return _in_groups(problems, _shape, lambda group: _search(group, cfg))


def brute_force_constant(
    problem: RatioProblem, cfg: OracleConfig | None = None
) -> OracleResult:
    """Best ratio over all candidate families; a lower bound on the constant.

    In the spike range (certificate ``exact-spike``) the spikes alone are
    evaluated, ``n`` evaluations, since no other candidate can beat them.
    """
    return brute_force_constants([problem], cfg)[0]


@dataclass(frozen=True)
class EquivalenceRatio:
    formula: float
    brute: float
    ratio: float
    sentinel: bool
    char: CharacterizationResult
    oracle: OracleResult

    def to_json(self) -> dict:
        return {
            "formula": self.formula,
            "brute": self.brute,
            "ratio": self.ratio,
            "sentinel": self.sentinel,
            "char": self.char.to_json(),
            "oracle": self.oracle.to_json(),
        }


def _characterize(problem: RatioProblem, variant: str) -> CharacterizationResult:
    """The closed-form estimate F of a gop/antigop sum-form problem."""
    if problem.form == GOP:
        return char_gop(problem.u, problem.v, problem.w, problem.p, problem.q)
    if problem.form == ANTIGOP:
        return char_antigop(
            problem.u, problem.v, problem.w, problem.p, problem.q, variant=variant
        )
    raise ValueError(
        "equivalence ratios are defined for the gop/antigop sum forms, "
        f"got {problem.form.name}"
    )


def _equivalence(ch: CharacterizationResult, res: OracleResult) -> EquivalenceRatio:
    F, B = ch.value, res.constant
    if (F == 0 and B == 0) or (math.isinf(F) and math.isinf(B)):
        return EquivalenceRatio(F, B, 1.0, True, ch, res)
    return EquivalenceRatio(F, B, ext_div(F, B), False, ch, res)


def equivalence_ratios(
    problems: Sequence[RatioProblem],
    cfg: OracleConfig | None = None,
    variant: str = "printed",
) -> list[EquivalenceRatio]:
    """:func:`equivalence_ratio` of every problem, in input order, with one
    :func:`brute_force_constants` call for all of them."""
    chars = [_characterize(prob, variant) for prob in problems]
    return [
        _equivalence(ch, res)
        for ch, res in zip(chars, brute_force_constants(problems, cfg))
    ]


def equivalence_ratio(
    problem: RatioProblem,
    cfg: OracleConfig | None = None,
    variant: str = "printed",
) -> EquivalenceRatio:
    """Closed-form estimate F vs brute-force B for a sum-inner problem.

    Degenerate 0/0 (and inf/inf) comparisons report the sentinel ratio 1
    with a flag rather than NaN.
    """
    ch = _characterize(problem, variant)
    return _equivalence(ch, brute_force_constant(problem, cfg))


@dataclass(frozen=True)
class ChainEquivalenceReport:
    family: str
    a1: float
    a2: float
    a3: float
    violations: int
    ratio31: float
    sentinel: bool
    pool_size: int

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "A1": self.a1,
            "A2": self.a2,
            "A3": self.a3,
            "violations": self.violations,
            "ratio_A3_A1": self.ratio31,
            "sentinel": self.sentinel,
            "pool_size": self.pool_size,
        }


def _chain_problems(
    u: Window, v: Window, w: Window, p: float, q: float, family: str
) -> tuple[RatioProblem, ...]:
    """The sup, sum and powered-sum problems of one chain instance."""
    if not 0 < p <= 1:
        raise ValueError(f"the chain equivalences require p in (0, 1], got {p}")
    if family == "antigop":
        forms = (ANTIGOP_SUP, ANTIGOP, antigop_psum(p))
    elif family == "gop":
        forms = (GOP_SUP, GOP, gop_psum(p))
    elif family == "simple":
        forms = (ANTIGOP_SUP, ANTIGOP, antigop_psum(p))
        u = u.with_values([1.0] * len(u))
    else:
        raise ValueError(f"family must be antigop/gop/simple, got {family!r}")
    return tuple(RatioProblem(u, v, w, p, q, f) for f in forms)


def _chain_group(
    items: Sequence[tuple[str, tuple[RatioProblem, ...]]], cfg: OracleConfig
) -> list[ChainEquivalenceReport]:
    """Chain reports for ``(family, problems)`` items whose sup problems
    share their shape, so that all three forms agree.

    In the spike range (``p <= q`` here, since every form's inner exponent
    is ``p``) each maximum is a spike of the shared pool, so no form is
    polished.
    """
    refs = items[0][1]
    sups = [problems[0] for _, problems in items]
    weights = _stack(sups)
    pool = _assemble_pool(sups, cfg)
    base, extra, owner = [], [], []
    for ref in refs:
        r = _ratio_batch(ref, pool, weights)
        base.append(r)
        fin = _to_polish(r)
        if fin.any() and not _spike_exact(ref):
            sel = slice(None) if fin.all() else fin
            a = _polish(ref, pool[sel], r[sel], tuple(x[sel] for x in weights), cfg)[0]
            extra.append(a.reshape(-1, a.shape[-1]))
            owner.append(np.repeat(np.flatnonzero(fin), a.shape[1]))
    n = pool.shape[-1]
    extra_rows = np.concatenate([np.empty((0, n)), *extra])[:, None, :]
    owner = np.concatenate([np.empty(0, dtype=int), *owner])
    uvw = tuple(x[owner] for x in weights)
    again = [_ratio_batch(ref, extra_rows, uvw)[:, 0] for ref in refs]
    out = []
    for i, (family, _) in enumerate(items):
        mine = owner == i
        r1, r2, r3 = (np.concatenate([b[i], e[mine]]) for b, e in zip(base, again))
        violations = int(np.sum((r1 > r2) | (r2 > r3)))
        a1, a2, a3 = float(np.max(r1)), float(np.max(r2)), float(np.max(r3))
        sentinel = a1 == 0 and a3 == 0
        ratio31 = 1.0 if sentinel else ext_div(a3, a1)
        out.append(ChainEquivalenceReport(
            family, a1, a2, a3, violations, ratio31, sentinel, len(r1)
        ))
    return out


def chain_equivalence_sweeps(
    instances: Sequence[tuple[Window, Window, Window, float, float, str]],
    cfg: OracleConfig | None = None,
) -> list[ChainEquivalenceReport]:
    """:func:`chain_equivalence_sweep` of every ``(u, v, w, p, q, family)``
    instance, in input order.

    Instances with the same forms, ``p``, ``q`` and window size are searched
    as one stack: one pool evaluation and one lock-step polish per form.
    """
    cfg = cfg or OracleConfig()
    items = [(inst[5], _chain_problems(*inst)) for inst in instances]
    return _in_groups(
        items, lambda item: _shape(item[1][0]), lambda group: _chain_group(group, cfg)
    )


def chain_equivalence_sweep(
    u: Window,
    v: Window,
    w: Window,
    p: float,
    q: float,
    cfg: OracleConfig | None = None,
    family: str = "antigop",
) -> ChainEquivalenceReport:
    """Brute-force values of the sup / sum / powered-sum triple.

    All three quantities are maximized over one shared candidate pool (the
    base families plus the polished candidates of each objective), so the
    elementary tail chain makes the ordering A1 <= A2 <= A3 hold candidate by
    candidate, hence for the maxima.  ``family`` selects the iterated triple
    ("antigop" or "gop") or the non-iterated one ("simple", which fixes the
    inner weight at one).
    """
    return chain_equivalence_sweeps([(u, v, w, p, q, family)], cfg)[0]
