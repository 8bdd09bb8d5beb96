"""Brute-force estimation of the true least constant on small windows.

The least constant equals ``sup_a lhs(a) / rhs(a)`` over nonnegative
sequences.  On a finite window this module maximizes the ratio over a fixed
pool of candidate families, always searched in the same order: single spikes,
indicator blocks (windows of two or more points), Dirichlet points on the
constraint surface, and the polish of the best of them, unless a pool ratio
is already infinite or every pool ratio is 0 (the constant is then exactly
0).  The pool keeps that order, so the index of a candidate tells its
family.  The best ratio found is always a certified lower bound on the true
constant, and ``OracleResult.certificate`` says which search ran:
``"exact-spike"`` or ``"heuristic"``.

Every inner aggregation has an exponent ``r``: 1 for a sum, ``r`` for the
powered sum ``(sum a_k^r)^(1/r)``, and inf for a sup, its limit.  For
``p <= min(r, q)`` (including ``q = inf``) the maximum is attained at a
spike.  Substitute ``x = a^p``: the constraint set becomes the simplex
``sum x_m v_m = 1``, whose extreme points are single spikes, and the p-th
power of the numerator becomes a weighted l^(q/p) norm (``q/p >= 1``; the
sup for ``q = inf``) of nonnegative convex functions of ``x``: after the
power a sup is ``max_k x_k``, linear in each ``x_k``, and a powered sum is
``(sum x_k^(r/p))^(p/r)``, an l^(r/p) norm, convex for ``r/p >= 1``; only
a sum (``r = 1``) needs ``p <= 1``.  A monotone norm of nonnegative convex
functions is convex, so the ratio's p-th power is convex on the simplex and
takes its maximum at a vertex; ``q >= 1`` is not needed.  In that range
:func:`brute_force_constant` evaluates the pool's ``n`` spike rows alone,
with no Dirichlet rows and no polish, and returns their maximum, which is
exact, certificate ``exact-spike``; everywhere else the full search runs and
the result is ``heuristic``.  For ``p > r`` the inner l^(r/p) quasi-norm
favours spread-out candidates, as the outer one does for ``q < p``.

Outside the spike range the polish is a power iteration.  A step is
``a <- a^alpha (g/v)^beta``, rescaled by its row maximum, so ``a_k = 0``
where ``g_k = 0``.  Each ``n`` puts a mass on ``i*(n)``, the record of the
outer scan where ``E_n`` is attained, and ``g`` is the suffix sum of the
masses for an inner-left form, their prefix sum for inner-right; a sup's
masses go to ``k*(i*(n))`` instead, ``k*(i)`` the record of the inner scan
where ``i``'s inner maximum is attained, and are ``g``:

===========  ============  =============  =========  ==========================
inner        range         alpha          beta       mass on i*(n)
===========  ============  =============  =========  ==========================
sum, psum    p > r         0              1/(p-r)    q w_n E_n^(q-r) u_i*^r
sum, psum    q < p <= r    (r-q)/(p-q)    1/(p-q)    q w_n E_n^(q-r) u_i*^r
sup          q < p         0              1/(p-q)    q w_n u_i*^q
q = inf      p > r         0              1/(p-r)    u_i*^r at argmax w_n E_n
===========  ============  =============  =========  ==========================

(At ``q = inf`` only the first ``n`` maximizing ``w_n E_n`` has a mass.)
The reasons, row by row:

- **sum, p > 1.**  Boyd's power method for l^p -> l^q norms (D. W. Boyd,
  Linear Algebra Appl. 9, 1974): ``g = grad(lhs^q)``, and the step is the
  stationarity condition of ``lhs/rhs``.
- **sum, q < p <= 1.**  A minorize-maximize (MM) step (D. R. Hunter and K.
  Lange, "A tutorial on MM algorithms", Am. Stat. 58, 2004).  Put ``x =
  a^p v``, on the simplex ``sum x = 1``, and hold the record map ``i*``
  fixed, so that ``lhs^q`` is ``sum_n w_n (u_i*(n) S_n)^q`` with ``S_n``
  the inner sum that ``i*(n)`` takes.  Write ``S_n(a') = S_n sum_k
  theta_nk (x'_k/x_k)^(1/p)`` with ``theta_nk = a_k / S_n`` over the terms
  of ``S_n``.  Jensen for the convex ``t^(1/p)`` and then for the concave
  ``t^(q/p)`` gives ``S_n(a')^q >= S_n^q sum_k theta_nk
  (x'_k/x_k)^(q/p)``, and summing over ``n``, ``lhs(a')^q >= sum_k c_k
  (x'_k/x_k)^(q/p)`` with ``c_k = a_k g_k / q`` and ``sum_k c_k =
  lhs(a)^q``.  Equality holds at ``a' = a``, and the step is the exact
  maximizer of this bound on the simplex.
- **psum.**  The step is the sum-form step of the image ``a'' = a^r``,
  written back in ``a``: ``C(psum r; p, q; u) = C(sum; p/r, q/r;
  u^r)^(1/r)``, the image's mass ``(q/r) w_n E''_n^(q/r-1) u_i*^r`` is the
  one above over ``r``, its ranges ``p/r > 1`` and ``q/r < p/r <= 1`` are
  the two rows, and ``a = a''^(1/r)`` divides its ``beta`` by ``r``.
- **sup.**  Fix both maps.  Then ``lhs^q = sum_k c_k a_k^q`` with ``c_k =
  sum w_n u_i*(n)^q`` over the ``n`` with ``k*(i*(n)) = k``, whose exact
  maximizer on ``sum a^p v = 1`` is ``a_k ~ (c_k/v_k)^(1/(p-q))``.  (As
  ``grad(lhs^q)``, with masses ``q w_n E_n^(q-1) u_i*``, the same step
  needs ``alpha = (1-q)/(p-q) < 0`` for ``q > 1``, and ``alpha log 0`` is
  NaN at a zero entry.)
- **q = inf.**  ``lhs >= w_n* u_i* inner_i*(a)`` at the ``n*`` maximizing
  ``w_n E_n`` and ``i* = i*(n*)``, with equality at ``a``, and the step is
  the Hoelder extremal of that functional on ``sum a^p v = 1``.

In each case the true ``lhs`` is a maximum over the maps, so it is at least
the fixed-map value: the MM, sup and ``q = inf`` steps never lower the
ratio, even when the records change.  ``v_k = 0`` with ``g_k > 0`` never
reaches the polish, since its spike already makes the pool ratio infinite.

``i*(n)`` is the first record position of the outer scan at or after ``n``
(head outer: the last one at or before ``n``), and ``k*`` likewise for the
inner scan, each from one ``minimum``/``maximum.accumulate`` over record
indices.  A step costs one ``bincount`` of the masses, one scan and one
ratio evaluation per row.  It runs from the ``4 * restarts`` best pool
candidates, and each row stops at its first step that does not raise its
ratio.  For ``p <= r`` (a sum with ``p <= 1``, and every sup) the step can
converge slowly, so each plain step also evaluates the extrapolations ``a
(a'/a)^omega`` of the step ``a'`` along ``_POWER_REACH`` (0 where ``a`` or
``a'`` is), stretched per row while the farthest of them wins.  The MM step
also keeps a zero entry at zero and brings an entry close to zero only
slowly, so it stays on the face of the simplex it starts on.  So for
``p <= r`` the plain iteration runs once more from the ``n`` toggles of the
best row, each of which sets one positive entry to zero or one zero entry
to the row's least positive entry, and so starts on a neighbouring face.
The plain iteration stops at a fixed point of its record set, which can lie
just off a kink of the ratio where a position is about to become (or stop
being) a record.  So the best row of each problem then takes flip steps:
each evaluates the ``n`` candidates that flip one position's record status,
one of them the plain step, and moves to the best while that raises its
ratio.  At ``q = inf`` they try every ``i*`` for ``n*``, and so reach the
closed form ``max_i W_i u_i D_i`` of the swapped suprema.  ``evaluations``
counts one per ratio evaluation of a live row: one per plain step (three
for ``p <= r``, and ``n`` for the toggles), ``n`` per flip step.

The iteration runs every restart in lock-step, with one batched ratio
evaluation per step for all of them.  The evaluation is row-independent
(a row's ratio does not depend on the other rows of its batch), and so is a
power step: it takes every power, log and exp on a contiguous array and
every sum as a row reduction or a per-row ``bincount``.  So each restart
ends exactly where a polish of that restart alone would.  The power loop
evaluates its candidates through ``hardyops._entries``, which returns
``x = u * inner(a)`` with its outer scan ``E``, and keeps both for every
live row: they are exactly what the masses of the row's next step read,
so that step does not compute them again.

A step on small windows costs NumPy calls, not arithmetic, so the loop
(:func:`_power_steps`) makes few.  Per call it chooses the inner kind's
masses and extends the stack of ``u``, ``v`` and ``w`` by ``q * w`` and
``u^r`` once, with the row offsets of the masses; per live set (the rows
not yet stopped) it keeps each row's ``a``, ratio, stretch, ``x`` and
``E``, and takes its weights in one gather.  A step allocates the direction
and its temporaries, one candidate buffer, into which the ``p <= r`` step
and its extrapolations are written in place before one ``exp``, and the
evaluation's ``x``, ``E`` and sides; ``a`` and the ratios are written back
only when a row stops.  Rows run in chunks of at most ``_CHUNK_ENTRIES``
entries per step (at least one row), so a step of the ``n`` toggles of a
``p <= r`` search, ``3 n^2`` entries, is taken a chunk at a time.  The pool
evaluation (below) builds its rows in chunks of the same size; these are
the only chunks, and :func:`_ratio_batch` evaluates whatever batch it is
given in one pass, such as the toggles' start ratios, ``B n^2`` entries.

No pool is held in memory.  :func:`_pool_rows` builds any pool row, a fresh
float array, from its index: a spike or a block is the indicator of its
ends, two comparisons against them, and the Dirichlet rows are the only rows
stored per problem.  The pool evaluation builds its rows in chunks of about
``_CHUNK_ENTRIES`` entries, and only the rows it evaluates; the polish
rebuilds its start rows by index, and the result its argmax.  Two things are
cached, as read-only arrays in small ``functools.lru_cache`` caches: the
block ends, which depend only on ``n``, and the Dirichlet draws, which
depend only on ``(n, cfg)``.  Repeated searches at the same size and config,
as in a verification sweep, share them.  So a search of ``B`` problems holds
O(B n^2) floats (the ratios of the n(n+1)/2 pool rows, the block caps, the
toggles and the flip steps of the polish) and one chunk of rows, where a
pool of every row held O(B n^3): 4.3 GB at ``n = 1024``.  Rows are
independent under :func:`_ratio_batch`, so every result is bit for bit the
one that pool gave.

Not every block of the pool is evaluated.  The spikes and Dirichlet rows
are evaluated first, and the ``S``-th best of their ratios is a threshold,
``S`` being the number of rows the polish starts from.  A block ``[m1,
m2]`` of ``L`` points has a ratio of at most ``c(L) K / V^(1/p)``: ``c(L)``
is ``L^(1/r)`` (``L`` for a sum, 1 for a sup), ``K`` is
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
``q``, form and window size, stack each group once, and polish every
restart of every problem of a group with one batched evaluation per
iteration.  :func:`equivalence_ratios` takes a group's closed forms in one
call on the stack it searches, and a chain triple (sup, sum, psum(p)),
whose psum(1) is the sum, searches each distinct form once
(:func:`_chain_group`).  A group's weights are one contiguous (3, B, 1, n)
array (:func:`_stack`): ``u, v, w = weights`` gives each as (B, 1, n)
against candidates of shape (B, K, n), ``weights[:, sel]`` is the stack of
the problems ``sel`` (those the polish selects), and rows of several
problems take their weights by problem index (``weights[:, rows //
rows_per]``).  Rows are independent across problems as well, so each result
equals the problem's own result, bit for bit, and comes back in input order;
each singular function is the one-element call of its list entry point.

Everything is deterministic given the config seed: per-restart generators are
derived from ``(seed, restart_index)`` and results merge by max, so the
outcome does not depend on evaluation order.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .charformulas import CharacterizationResult, _antigop_rows, _gop_rows
from .hardyops import (
    ANTIGOP,
    ANTIGOP_SUP,
    GOP,
    GOP_SUP,
    OperatorForm,
    RatioProblem,
    _ratio_batch,
    _entries,
    _ratio_from_entries,
    antigop_psum,
    gop_psum,
)
from .seqcore import (
    Window, _ext_mul, _in_groups, classify_regime, ext_div, scan_max, scan_min, scan_sum,
)

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

#: The power iteration starts from this many pool rows per restart.
_POWER_STARTS = 4
#: Extrapolations ``a (a'/a)^omega`` that each plain step for ``p <= r``
#: evaluates with the step ``a'`` itself, ``omega`` times the row's stretch.
_POWER_REACH = (2.0, 4.0)
#: Window sizes whose block ends, and ``(n, cfg)`` pairs whose Dirichlet
#: draws, stay cached.
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
#: Entries per chunk of rows, as :func:`_pool_chunks` builds them (rows
#: times window size) and :func:`_power_steps` steps them (times candidates
#: per row); 2^14 float64 entries are 128 kB.
_CHUNK_ENTRIES = 1 << 14


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

    def to_json(self) -> dict:
        return {
            "constant": self.constant,
            "argmax": self.argmax.to_json(),
            "certificate": self.certificate,
            "evaluations": self.evaluations,
        }


def _inner_exponent(form: OperatorForm) -> float:
    """The exponent ``r`` of the inner aggregation: 1 for a sum, ``r`` for
    a powered sum, inf for a sup (module docstring)."""
    if form.inner_kind == "psum":
        return form.inner_exponent
    return 1.0 if form.inner_kind == "sum" else math.inf


def _spike_exact(problem: RatioProblem) -> bool:
    """Whether the least constant is the spike maximum (module docstring):
    ``p <= min(r, q)``."""
    return problem.p <= min(_inner_exponent(problem.form), problem.q)


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
    )


def _stack(problems: Sequence[RatioProblem]) -> np.ndarray:
    """The weights of same-size problems as one contiguous (3, B, 1, n)
    array: ``u, v, w = weights`` unpacks them, each (B, 1, n), and
    ``weights[:, sel]`` is the stack of the problems ``sel``."""
    return np.array([[getattr(prob, x).values for prob in problems] for x in "uvw"])[:, :, None]


@functools.lru_cache(maxsize=_POOL_CACHE)
def _block_ends(n: int) -> np.ndarray:
    """The rows ``start, stop`` (2, n(n+1)/2) of the pool's indicator rows,
    in pool order: each is the indicator of ``[start, stop)``, the ``n``
    spikes first, then every block ``[m1, m2]`` with ``m1 < m2``, ordered
    by ``m1``, then ``m2``; read-only, cached by ``n``.  Their type is the
    smallest unsigned one that holds ``n``, on which the comparisons of
    :func:`_pool_rows` run fastest; arithmetic on them needs a wider type."""
    spikes = np.arange(n)
    m1, m2 = np.triu_indices(n, k=1)
    ends = np.array([np.concatenate([spikes, m1]), np.concatenate([spikes, m2]) + 1],
                    dtype=np.min_scalar_type(n))
    ends.setflags(write=False)
    return ends


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


def _dirichlet_rows(problem: RatioProblem, weights: np.ndarray, cfg: OracleConfig) -> np.ndarray:
    """The Dirichlet rows of stacked problems that share ``problem``'s
    ``p``, shape (B, D, n): the only pool rows that differ between problems.

    The shared simplex points are pulled onto each problem's constraint
    surface ``sum a^p v = 1``.  A row that overflows there is set to zero,
    whose ratio 0 never wins, so every candidate is a finite window.
    """
    x, v = _dirichlet_draws(weights.shape[-1], cfg), weights[1]
    with np.errstate(over="ignore"):
        drawn = (x / np.where(v > 0, v, 1.0)) ** (1.0 / problem.p)
    drawn[~np.isfinite(drawn).all(axis=-1)] = 0.0
    return drawn


def _pool_size(drawn: np.ndarray) -> int:
    """The number of pool rows: spikes, blocks and the Dirichlet rows
    ``drawn`` (B, D, n)."""
    n = drawn.shape[-1]
    return n * (n + 1) // 2 + drawn.shape[1]


def _pool_rows(drawn: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The pool rows with indices ``at``, a fresh float array (B, K, n).

    The pool is the spikes, then the blocks, then the Dirichlet rows
    ``drawn`` (B, D, n) of each stacked problem.  ``at`` has shape (B, K),
    one set of rows per problem, or (K,), broadcast to (B, K): the same
    rows for every problem.  A spike or block is the indicator of its ends
    (:func:`_block_ends`), built on ``at``'s own shape, so a shared row is
    built once and broadcast across problems; the Dirichlet rows asked for
    are copied over it.
    """
    b, _, n = drawn.shape
    cached = _block_ends(n)
    k = cached.shape[1]
    ends = cached.take(at[..., None], axis=1, mode="clip")  # Dirichlet rows: overwritten below
    idx = cached[0, :n]  # the spikes' starts: 0, ..., n - 1
    out = np.empty((b, at.shape[-1], n))
    out[...] = (ends[0] <= idx) & (idx < ends[1])
    rows = np.nonzero(at >= k)
    if len(rows[-1]):
        pick = (slice(None),) * (2 - at.ndim) + rows  # (K,): every problem
        out[pick] = drawn[pick[:-1] + (at[rows] - k,)]
    return out


def _starts(cfg: OracleConfig, size: int) -> int:
    """How many of the best pool rows the polish starts from: ``4 *
    restarts``, at most the pool size ``size``."""
    return min(_POWER_STARTS * cfg.restarts, size)


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


def _block_caps(problem: RatioProblem, weights: np.ndarray) -> np.ndarray:
    """Upper bounds on the pool ratios of the blocks of stacked problems,
    margin included; shape (B, n(n-1)/2) in pool order, inf where a bound
    is not certified.

    A block ``[m1, m2]`` is the indicator of ``L = m2 - m1 + 1`` points.
    Its inner aggregation is at most ``c(L) = L^(1/r)`` everywhere, with
    ``r`` the inner exponent (:func:`_inner_exponent`): ``L`` for a sum, 1
    for a sup.  So each iterated entry ``E_n`` is at most ``c(L) U_n``, with
    ``U`` the running max of ``u`` in the outer direction, ``lhs <= c(L)
    K`` with ``K = (sum_n w_n U_n^q)^(1/q)`` (``max_n w_n U_n`` at ``q =
    inf``), and ``rhs = V^(1/p)`` with ``V = sum_{m1 <= k <= m2} v_k``, the
    block's v-mass.  ``V`` is read from one ``cumsum`` along each row ``m1``
    of the triangle ``k >= m1``, never as a difference of prefix sums, which
    can cancel to nothing.  So ``ratio <= c(L) K / V^(1/p)``.

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
    u, v, w = uvw = weights[:, :, 0]
    b, n = u.shape
    m1, stop = (x[n:].astype(np.intp) for x in _block_ends(n))
    length = (stop - m1).astype(float)
    idx = np.arange(n)
    delta = n * _EPS / (1.0 - n * _EPS) + _POW_ERR + 712.0 * _EPS
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c = length ** (1.0 / _inner_exponent(form))  # inf for a tiny r: no cap
        lam = (16.0 + 8.0 / q + 8.0 / p) * delta
        top = scan_max(u, right=form.outer == "tail")
        if math.isinf(q):
            k = (w * top).max(axis=-1)
        else:
            k = (w * top**q).sum(axis=-1) ** (1.0 / q)
        mass = np.cumsum(np.where(idx >= idx[:, None], v[:, None, :], 0.0), axis=-1)
        mass = mass.reshape(b, -1)[:, m1 * n + stop - 1]
        caps = c * k[:, None] / mass ** (1.0 / p) * np.exp(1.01 * lam)
    caps[~_blocks_in_range(problem, uvw, float(c.max()))] = np.inf
    return caps


def _pool_ratios(
    problem: RatioProblem, drawn: np.ndarray, weights: np.ndarray, starts: int
) -> np.ndarray:
    """The pool ratios (B, P) of stacked problems with Dirichlet rows
    ``drawn``, without evaluating the blocks that cannot reach the
    ``starts`` best rows.

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
    b, d, n = drawn.shape
    nb, size = n * (n - 1) // 2, _pool_size(drawn)
    ratios = np.full((b, size), _PRUNED)
    if b * nb * n < _PRUNE_ENTRIES or n + d < starts:
        _evaluate_rows(problem, drawn, weights, np.arange(size), ratios)
        return ratios
    first = np.concatenate([np.arange(n), np.arange(n + nb, size)])  # spikes, Dirichlet rows
    _evaluate_rows(problem, drawn, weights, first, ratios)
    r = ratios[:, first]
    cut = r.shape[1] - starts
    floor = np.partition(r, cut, axis=1)[:, cut]
    at = n + np.flatnonzero(~(_block_caps(problem, weights) < floor[:, None]).all(axis=0))
    _evaluate_rows(problem, drawn, weights, at, ratios)
    if len(at) == nb:
        return ratios
    cut = size - starts - 1
    best = np.sort(np.partition(ratios, cut, axis=1)[:, cut:], axis=1)
    for i in np.flatnonzero(~(best[:, 1:] > best[:, :-1]).all(axis=1)):  # ties
        one = slice(i, i + 1)
        _evaluate_rows(problem, drawn[one], weights[:, one], np.arange(n, n + nb), ratios[one])
    return ratios


def _pool_chunks(drawn: np.ndarray, rows: np.ndarray):
    """The pool rows ``rows`` of every stacked problem, in chunks of
    consecutive indices of about ``_CHUNK_ENTRIES`` entries: pairs of the
    indices and their rows (:func:`_pool_rows`), never all rows at once."""
    step = max(1, _CHUNK_ENTRIES // (drawn.shape[0] * drawn.shape[-1]))
    for lo in range(0, len(rows), step):
        at = rows[lo : lo + step]
        yield at, _pool_rows(drawn, at)


def _evaluate_rows(
    problem: RatioProblem,
    drawn: np.ndarray,
    weights: np.ndarray,
    rows: np.ndarray,
    out: np.ndarray,
) -> None:
    """``out[:, rows]`` = the ratios of the pool rows ``rows``, chunk by
    chunk (:func:`_pool_chunks`)."""
    for at, a in _pool_chunks(drawn, rows):
        out[:, at] = _ratio_batch(problem, a, weights)


def _offsets(rows: int, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat offsets of ``rows`` rows of shape (1, n), as ``x`` and ``E``
    are held, and of their gradients, ``k`` each; shapes (rows, 1, 1) and
    (rows, k, 1).  The first ``m`` rows of either are the offsets of ``m``
    rows."""
    return n * np.arange(rows)[:, None, None], n * np.arange(rows * k).reshape(rows, k, 1)


def _record_index(rec: np.ndarray, after: bool) -> np.ndarray:
    """For each position, the first position at or after it where ``rec``
    holds (``after``), else the last one at or before it: one
    ``minimum``/``maximum.accumulate`` over record indices."""
    n = rec.shape[-1]
    idx = np.arange(n)
    if after:
        return scan_min(np.where(rec, idx, n), right=True)
    return scan_max(np.where(rec, idx, -1))


def _power_gradient(
    problem: RatioProblem,
    r: float,
    ur: np.ndarray,
    wq: np.ndarray,
    a: np.ndarray,
    x: np.ndarray,
    e: np.ndarray,
    flip: np.ndarray | None,
    offsets: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """The direction ``g`` of a power step at L candidates ``a`` (L, n), K
    rows for each; shape (L, K, n).

    ``x = u * inner(a)`` and ``E``, its outer scan, come from
    :func:`_entries`, shape (L, 1, n) and contiguous; ``ur`` is ``u^r``
    with ``r`` the step's exponent (1 for a sum, ``q`` for a sup), and
    ``wq`` is ``q * w`` (``w`` at ``q = inf``).  The records are the
    positions where ``x = E``.  The masses on ``i*(n)`` and ``g`` are those
    of the module docstring's table (multiplied in that order, and 0 where
    ``E_n = 0``); for a sum or a powered sum ``g`` is the gradient of
    ``lhs^q`` in ``a^r``, times ``r``.  ``offsets`` are :func:`_offsets`
    ``(L, K, n)``.

    ``flip`` is None for the plain step (K = 1), or a bool mask (K, n)
    whose row k flips the record status of the positions it marks; ``E_n``
    is then read as ``x_i*(n)``, so ``g`` belongs to a lower bound on
    ``lhs^q`` that takes the flipped record set.  The end of the outer
    scan (the last position for a tail outer, the first for a head outer)
    stays a record, so flipping it flips nothing: that row is the plain
    step's direction.
    """
    form, q = problem.form, problem.q
    tail = form.outer == "tail"
    n = x.shape[-1]
    rec = x == e
    if flip is not None:
        rec = rec ^ flip
    rec[..., n - 1 if tail else 0] = True
    star = _record_index(rec, tail)
    at = star + offsets[0]  # into the rows of x
    ustar = ur.take(at)
    if math.isinf(q):  # one mass per row, from the first n maximizing w_n E_n
        top = _ext_mul(wq, e).argmax(axis=-1)[..., None]
        mass = np.where(np.arange(n) == top, ustar, 0.0)
    elif form.inner_kind == "sup":
        mass = wq * ustar
    else:
        # Without a flip x_i*(n) is E_n, bit for bit (E_n is first attained
        # there), unless x holds a NaN; that makes a NaN of E, which fails
        # the test below and takes the gather.
        estar = e if flip is None else x.take(at)
        if np.minimum.reduce(estar, axis=None) > 0:
            mass = wq * estar ** (q - r) * ustar
        else:
            estar = x.take(at) if flip is None else estar
            pos = estar > 0
            mass = np.where(pos, wq * np.where(pos, estar, 1.0) ** (q - r) * ustar, 0.0)
    if form.inner_kind == "sup":
        right = form.inner_dir == "right"
        a = a[:, None]
        bins = _record_index(a == scan_max(a, right), right).take(at) + offsets[1]
        return np.bincount(bins.ravel(), weights=mass.ravel(),
                           minlength=mass.size).reshape(mass.shape)
    m = np.bincount((at if flip is None else star + offsets[1]).ravel(),  # K = 1: at
                    weights=mass.ravel(), minlength=mass.size)
    return scan_sum(m.reshape(mass.shape), form.inner_dir != "right")


def _power_steps(
    problem: RatioProblem,
    a: np.ndarray,
    best: np.ndarray,
    weights: np.ndarray,
    iterations: int,
    reach: tuple[float, ...] = (),
    flip: bool = False,
) -> np.ndarray:
    """Power steps from the rows ``a`` (L, n) with ratios ``best`` (L,),
    both updated in place, all rows in lock-step; returns the evaluations
    of each row.

    ``weights`` is the stack (:func:`_stack`) of B problems; problem ``i``
    owns the ``i``-th run of L/B consecutive rows of ``a``.  A plain step
    evaluates one candidate, a flip step (``flip``) the ``n`` candidates
    that flip one record position each: ``a <- a^alpha (g/v)^beta``,
    rescaled by its row maximum, with ``g`` from :func:`_power_gradient`
    and ``alpha``, ``beta`` from the module docstring's table (a sup's rows
    are a powered sum's with ``r = q``).  Where ``alpha`` is not 0, or
    ``reach`` is given, the step is taken in log space, and each ``omega``
    in ``reach`` adds the extrapolated candidate ``a (a'/a)^(omega s)`` of
    the step ``a'``, 0 where ``a`` or ``a'`` is 0.  ``s`` is the row's
    stretch, 1 at the start, doubled when the farthest candidate wins and
    halved, down to 1, when the step itself wins.  A candidate that leaves
    the float range is set to zero, whose ratio 0 never wins.  A row moves
    to its best candidate if that raises its best ratio, and otherwise
    stops; it also stops once its ratio is infinite.

    The rows run in chunks of at most ``_CHUNK_ENTRIES`` entries per step
    (rows times candidates times ``n``; at least one row), one after the other;
    rows are independent, so a chunk ends where its rows alone would.
    ``u``, ``v``, ``w``, ``q * w`` (``w`` at ``q = inf``) and ``u^r`` are
    stacked once per call, and a live set takes its rows of them in one
    gather by problem index.  A live set keeps its rows' ``a``, ratio and
    stretch, and the ``x`` and ``E`` of :func:`_entries` that the
    evaluation of their last winning candidate computed, so its next step
    starts from them; ``a`` and ``best`` are written, and evaluations
    counted, only when a row stops and at the end.  The row offsets are
    sliced from one set per call.  A step allocates the direction and its
    temporaries, one (L, K, n) candidate buffer (the log-space step and its
    extrapolations are written into it in place and end in ``exp``), and the
    evaluation's ``x``, ``E`` and sides.
    """
    p, q, form = problem.p, problem.q, problem.form
    rs = q if form.inner_kind == "sup" else _inner_exponent(form)  # the step's exponent
    alpha, beta = (0.0, 1.0 / (p - rs)) if p > rs else ((rs - q) / (p - q), 1.0 / (p - q))
    n = a.shape[-1]
    mask, grads = (np.eye(n, dtype=bool), n) if flip else (None, 1)  # gradients per row
    width = grads + len(reach)  # candidates per row and step
    per = len(a) // max(weights.shape[1], 1)  # rows per problem
    omega = np.array(reach)
    factor = np.array([0.5, *[1.0] * (len(reach) - 1), 2.0])  # the stretch's, by winner
    todo = (~np.isinf(best)).nonzero()[0]
    chunk = max(1, _CHUNK_ENTRIES // (width * n))
    size = min(chunk, len(todo))
    offsets, base = _offsets(size, grads, n), width * np.arange(size)
    rowmax = functools.partial(np.maximum.reduce, axis=-1, keepdims=True)
    evals = np.zeros(len(a), dtype=int)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        wq = weights[2:] if math.isinf(q) else q * weights[2:]
        ur = weights[:1]
        if rs != 1.0:  # u^r over a per-problem constant, so it stays in the float range
            ur = (ur / np.maximum.reduce(ur, axis=-1, keepdims=True)) ** rs
        state = np.concatenate([weights, wq, ur])
        for lo in range(0, len(todo), chunk):
            rows = todo[lo : lo + chunk]
            al, bl, sl = a[rows], best[rows], np.ones(len(rows))  # a, ratio, stretch
            u, v, w, wq, urs = state[:, rows // per]
            x, e = _entries(u, al[:, None], form)
            m, ran = len(rows), 0  # live rows, and their steps
            off, at = (offsets[0][:m], offsets[1][:m]), base[:m]
            for _ in range(iterations):
                if not m:
                    break
                g = _power_gradient(problem, rs, urs, wq, al, x, e, mask, off)
                g /= rowmax(g)
                t = np.divide(g, v, out=np.zeros(g.shape), where=g > 0)
                t /= rowmax(t)
                if alpha or reach:
                    cand = np.empty((m, width, n))
                    la, step = np.log(al)[:, None], cand[:, :grads]
                    np.log(t, out=step)
                    step *= beta
                    if alpha:
                        step += alpha * la
                    if reach:  # a (a'/a)^(omega s), -inf where a' = 0 or a = 0
                        ext = cand[:, grads:]
                        np.multiply((sl[:, None] * omega)[:, :, None], step - la, out=ext)
                        ext += la
                        np.copyto(ext, -np.inf, where=np.isnan(ext))
                    cand -= rowmax(cand)
                    np.exp(cand, out=cand)
                else:
                    cand = t**beta
                if not math.isfinite(np.add.reduce(cand, axis=None)):  # in [0, 1] or NaN
                    cand[~np.isfinite(cand.sum(axis=-1))] = 0.0
                cx, ce = _entries(u, cand, form)
                r = _ratio_from_entries(problem, cand, v, w, ce)
                ran += 1
                if width == 1:
                    top, won = r[:, 0], cand[:, 0]
                else:
                    k = r.argmax(axis=1)
                    flat = at + k  # the winners, as rows of (L * K, n)
                    top, won = r.take(flat), cand.reshape(-1, n).take(flat, axis=0)
                    cx, ce = (y.reshape(-1, n).take(flat, axis=0)[:, None] for y in (cx, ce))
                    if reach:
                        sl *= factor[k]
                        np.maximum(sl, 1.0, out=sl)
                up = top > bl
                keep = up & (top < np.inf)
                if np.count_nonzero(keep) == len(keep):
                    al, bl, x, e = won, top, cx, ce
                    continue
                np.copyto(al, won, where=up[:, None])
                np.copyto(bl, top, where=up)
                a[rows], best[rows] = al, bl
                evals[rows] += ran * width  # the live rows only shrink
                kept = keep.nonzero()[0]
                m, ran, rows = len(kept), 0, rows[kept]
                al, bl, sl, x, e = won[kept], top[kept], sl[kept], cx[kept], ce[kept]
                u, v, w, wq, urs = state[:, rows // per]
                off, at = (off[0][:m], off[1][:m]), at[:m]
            a[rows], best[rows] = al, bl
            evals[rows] += ran * width
    return evals


def _power_top(
    problem: RatioProblem,
    a: np.ndarray,
    best: np.ndarray,
    weights: np.ndarray,
    cfg: OracleConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The power iteration for the stacked problems, in two or three phases.

    ``a`` (B, S, n) holds the start rows of B problems that share
    ``problem``'s ``p``, ``q`` and form, ``best`` (B, S) their ratios, and
    ``weights`` the problems' stack (:func:`_stack`); ``a`` and ``best``
    are updated in place.  Returns ``(polished, best, evals)`` of shapes
    (B, R, n), (B, R) and (B,), with R = S + 1 rows per problem for
    ``p > r`` and R = S + n + 1 for ``p <= r`` (``r`` of the inner
    aggregation: 1 for a sum, inf for a sup).  First the plain iteration (no
    flip) runs from the start rows; for ``p <= r`` each of its steps also
    evaluates the extrapolations of ``_POWER_REACH``, and the plain
    iteration then runs again from the ``n`` toggles of the best row: each
    sets one positive entry to zero, or one zero entry to the row's least
    positive entry, and is rescaled by its row maximum.  The MM step keeps a
    zero entry at zero and takes many steps to bring one close to it, so it
    cannot leave the face of the simplex it started on.  Then the best
    row of each problem takes flip steps: each evaluates the ``n``
    candidates that flip one record position, one of them the plain step,
    and moves to the best.  Every phase stops a row at its first step that
    does not raise its best ratio, and after ``cfg.iterations`` steps.  A
    problem's ``evals`` counts the ratio evaluations of its rows while they
    were live, and the ``n`` of the toggles.
    """
    b, _, n = a.shape
    spread = problem.p <= _inner_exponent(problem.form)
    reach = _POWER_REACH if spread else ()
    pick = np.arange(b)

    def plain(a: np.ndarray, best: np.ndarray) -> np.ndarray:
        """Plain steps from the rows ``a`` (B, L, n), updated in place."""
        evals = _power_steps(
            problem, a.reshape(-1, n), best.reshape(-1), weights, cfg.iterations, reach
        )
        return evals.reshape(b, a.shape[1]).sum(axis=1)

    def lead(a: np.ndarray, best: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The best row (B, n) of each problem, and its ratio (B,)."""
        k = best.argmax(axis=1)
        return a[pick, k], best[pick, k]

    evals = plain(a, best)
    if spread:
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
    drawn: np.ndarray,
    ratios: np.ndarray,
    weights: np.ndarray,
    cfg: OracleConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The polish of the stacked problems that :func:`_to_polish` selects
    from their pool ratios ``ratios`` (B, P), with Dirichlet rows
    ``drawn``: the power iteration from the :func:`_starts` best pool rows
    of each, rebuilt by index.  Returns the selection (B,), a bool mask,
    and for the F problems it selects, in order, their polished rows (F,
    R, n), ratios (F, R) and evaluations (F,); F = 0 in the spike range."""
    fin = _to_polish(problem, ratios)
    if not fin.any():
        return fin, np.empty((0, 0, drawn.shape[-1])), np.empty((0, 0)), np.zeros(0, dtype=int)
    if not fin.all():  # copy the draws only if needed
        drawn, ratios, weights = drawn[fin], ratios[fin], weights[:, fin]
    top = np.argsort(ratios, axis=1)[:, ::-1][:, : _starts(cfg, ratios.shape[1])]
    best = ratios[np.arange(len(top))[:, None], top]
    return fin, *_power_top(problem, _pool_rows(drawn, top), best, weights, cfg)


def _shape(problem: RatioProblem) -> tuple:
    """What the problems of one stack share: exponents, form and size."""
    return problem.p, problem.q, problem.form, problem.size


def _to_polish(problem: RatioProblem, ratios: np.ndarray) -> np.ndarray:
    """Which problems of a stack shaped like ``problem`` the polish can
    raise, from their pool ratios (B, P): none in the spike range, where
    the spike maximum is the constant, and elsewhere not those with an
    infinite ratio, nor those whose ratios are all 0.  The constant of the
    latter is 0: if ``lhs(a) > 0`` for some ``a``, then ``lhs(e_k) > 0``
    for some spike ``e_k`` with ``a_k > 0``, whose ratio is positive or
    infinite.  A NaN ratio is not 0, so its problem is still polished."""
    if _spike_exact(problem):
        return np.zeros(len(ratios), dtype=bool)
    return ~np.isinf(ratios).any(axis=1) & ~(ratios == 0).all(axis=1)


def _search(
    problems: Sequence[RatioProblem], weights: np.ndarray, cfg: OracleConfig
) -> list[OracleResult]:
    """The search for same-size problems sharing ``p``, ``q`` and the form,
    stacked as ``weights`` (:func:`_stack`).

    In the spike range the ``n`` spike rows of the pool alone, with no
    Dirichlet rows, are evaluated; elsewhere the whole pool is
    (:func:`_pool_ratios`, which skips the blocks that cannot reach the
    polish).  Then :func:`_finish`, which polishes nothing in the spike
    range.
    """
    ref, n = problems[0], problems[0].size
    if _spike_exact(ref):
        drawn, ratios = np.empty((len(problems), 0, n)), np.empty((len(problems), n))
        _evaluate_rows(ref, drawn, weights, np.arange(n), ratios)
    else:
        drawn = _dirichlet_rows(ref, weights, cfg)
        ratios = _pool_ratios(ref, drawn, weights, _starts(cfg, _pool_size(drawn)))
    return _finish(problems, drawn, ratios, weights, cfg)


def _finish(
    problems: Sequence[RatioProblem],
    drawn: np.ndarray,
    ratios: np.ndarray,
    weights: np.ndarray,
    cfg: OracleConfig,
) -> list[OracleResult]:
    """One lock-step polish (:func:`_polish`), and each problem's result;
    ``evaluations`` counts every pool row, evaluated or not.

    A result is the first maximum of the pool ratios followed by the
    polished ratios, as ``np.argmax`` reads them (a NaN first): the polish
    wins only over a pool maximum that is not NaN, with a NaN or a larger
    ratio."""
    evals = np.full(len(problems), ratios.shape[1])
    pick = np.arange(len(problems))
    k = ratios.argmax(axis=1)
    top, rows = ratios[pick, k], _pool_rows(drawn, k[:, None])[:, 0]
    fin, extra, best, used = _polish(problems[0], drawn, ratios, weights, cfg)
    if fin.any():
        evals[fin] += used
        j = best.argmax(axis=1)
        own, polished = fin.nonzero()[0], best[np.arange(len(best)), j]
        wins = ~np.isnan(top[own]) & (np.isnan(polished) | (polished > top[own]))
        top[own[wins]], rows[own[wins]] = polished[wins], extra[wins, j[wins]]
    return [_result(prob, rows[i], top[i], evals[i]) for i, prob in enumerate(problems)]


def spike_oracle(problem: RatioProblem) -> OracleResult:
    """Exact maximization over single-spike candidates for sup-inner forms.

    Requires the spike range ``p <= q``: for ``q < p`` spread-out candidates
    beat every spike, so the spike maximum is no answer there.
    """
    if problem.form.inner_kind != "sup":
        raise ValueError("spike oracle requires a sup-inner operator form")
    if not _spike_exact(problem):
        raise ValueError(f"spike oracle requires q >= p, got p={problem.p}, q={problem.q}")
    return brute_force_constant(problem)


def brute_force_constants(
    problems: Sequence[RatioProblem], cfg: OracleConfig | None = None
) -> list[OracleResult]:
    """:func:`brute_force_constant` of every problem, in input order.

    Problems are grouped by ``(p, q, form, n)``, and a group is searched as
    one stack: in the spike range one evaluation of the spike rows,
    elsewhere one pool evaluation and one lock-step polish for all of its
    problems.  Every result equals that of the problem searched alone, bit
    for bit.
    """
    cfg = cfg or OracleConfig()
    return _in_groups(problems, _shape, lambda group: _search(group, _stack(group), cfg))


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


def _equivalence(ch: CharacterizationResult, res: OracleResult) -> EquivalenceRatio:
    F, B = ch.value, res.constant
    if (F == 0 and B == 0) or (math.isinf(F) and math.isinf(B)):
        return EquivalenceRatio(F, B, 1.0, True, ch, res)
    return EquivalenceRatio(F, B, ext_div(F, B), False, ch, res)


def _equivalences(
    problems: Sequence[RatioProblem], cfg: OracleConfig, variant: str
) -> list[EquivalenceRatio]:
    """The ratios of same-shaped gop/antigop sum-form problems
    (:func:`_shape`): one stack, its rows' closed forms F in one call, and
    its search."""
    ref = problems[0]
    if ref.form not in (GOP, ANTIGOP):
        raise ValueError("equivalence ratios are defined for the gop/antigop sum forms, "
                         f"got {ref.form.name}")
    weights, regime = _stack(problems), classify_regime(ref.p, ref.q)
    rows = weights[:, :, 0]
    chars = _gop_rows(*rows, regime) if ref.form == GOP else _antigop_rows(*rows, regime, variant)
    return list(map(_equivalence, chars, _search(problems, weights, cfg)))


def equivalence_ratios(
    problems: Sequence[RatioProblem],
    cfg: OracleConfig | None = None,
    variant: str = "printed",
) -> list[EquivalenceRatio]:
    """:func:`equivalence_ratio` of every problem, in input order, bit for
    bit: each ``(p, q, form, n)`` group is stacked once, for its closed forms
    and its search (:func:`_equivalences`)."""
    cfg = cfg or OracleConfig()
    return _in_groups(problems, _shape, lambda group: _equivalences(group, cfg, variant))


def equivalence_ratio(
    problem: RatioProblem,
    cfg: OracleConfig | None = None,
    variant: str = "printed",
) -> EquivalenceRatio:
    """Closed-form estimate F vs brute-force B for a sum-inner problem.

    Degenerate 0/0 (and inf/inf) comparisons report the sentinel ratio 1
    with a flag rather than NaN.
    """
    return equivalence_ratios([problem], cfg, variant)[0]


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


def _chain_exponent(p: float) -> None:
    """Raise ``ValueError`` for a ``p`` outside (0, 1], which the chain
    equivalences do not take."""
    if not 0 < p <= 1:
        raise ValueError(f"the chain equivalences require p in (0, 1], got {p}")


def _chain_problems(
    u: Window, v: Window, w: Window, p: float, q: float, family: str
) -> tuple[RatioProblem, ...]:
    """The sup, sum and powered-sum problems of one chain instance.  At
    ``p = 1`` the powered sum is the sum operator, and its problem takes the
    sum form, so that :func:`_chain_group` searches it once."""
    _chain_exponent(p)
    if family == "antigop":
        forms = (ANTIGOP_SUP, ANTIGOP, antigop_psum(p))
    elif family == "gop":
        forms = (GOP_SUP, GOP, gop_psum(p))
    elif family == "simple":
        forms = (ANTIGOP_SUP, ANTIGOP, antigop_psum(p))
        u = u.with_values([1.0] * len(u))
    else:
        raise ValueError(f"family must be antigop/gop/simple, got {family!r}")
    if p == 1:
        forms = forms[:2] + forms[1:2]
    return tuple(RatioProblem(u, v, w, p, q, f) for f in forms)


def _chain_group(
    items: Sequence[tuple[str, tuple[RatioProblem, ...]]], cfg: OracleConfig
) -> list[ChainEquivalenceReport]:
    """Chain reports for ``(family, problems)`` items whose sup problems
    share their shape, so that all three forms agree.

    Every pool row is evaluated for each distinct form, chunk by chunk,
    since the violation count and ``pool_size`` cover every candidate.  In
    the spike range (``p <= q`` here, since every form's inner exponent is
    ``p``) each maximum is a spike of the shared pool, so no form is
    polished (:func:`_to_polish`).  A repeated form (the sum at ``p = 1``) is
    searched once, and its polished rows join the candidates twice.
    """
    refs = items[0][1]
    forms = {ref.form: ref for ref in refs}  # each distinct operator once
    weights = _stack([problems[0] for _, problems in items])
    drawn = _dirichlet_rows(refs[0], weights, cfg)
    size = _pool_size(drawn)
    base = {form: np.empty((len(items), size)) for form in forms}
    for at, a in _pool_chunks(drawn, np.arange(size)):
        for form, ref in forms.items():
            base[form][:, at] = _ratio_batch(ref, a, weights)
    polish = {f: _polish(ref, drawn, base[f], weights, cfg)[:2] for f, ref in forms.items()}
    polished = [polish[ref.form] for ref in refs]
    extra_rows = np.concatenate([a.reshape(-1, drawn.shape[-1]) for _, a in polished])[:, None]
    owner = np.concatenate([np.repeat(np.flatnonzero(fin), a.shape[1]) for fin, a in polished])
    again = {f: _ratio_batch(ref, extra_rows, weights[:, owner])[:, 0] for f, ref in forms.items()}
    out = []
    for i, (family, _) in enumerate(items):
        mine = owner == i
        r1, r2, r3 = (np.concatenate([base[ref.form][i], again[ref.form][mine]]) for ref in refs)
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
