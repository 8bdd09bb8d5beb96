"""Brute-force estimation of the true least constant on small windows.

The least constant equals ``sup_a lhs(a) / rhs(a)`` over nonnegative
sequences.  On a finite window this module maximizes the ratio over a fixed
pool of candidate families, always searched in the same order: single spikes,
indicator blocks (windows of two or more points), Dirichlet points on the
constraint surface, and, unless a ratio is already infinite, the polish of
the best of them.  The pool keeps that order, so the index of a candidate
tells its family.  The best ratio found is always a certified lower bound on
the true constant, and ``OracleResult.search`` says which search ran:
``"spike"``, ``"power"`` or ``"ascent"``.

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

Outside the spike range the polish is one of two searches.  For ``p > 1``,
finite ``q`` and the four sum-inner forms (gop, antigop, dual-gop,
dual-antigop) it is Boyd's power iteration for l^p -> l^q norms (D. W.
Boyd, Linear Algebra Appl. 9, 1974).  Stationarity of ``lhs/rhs`` gives
``a_k <- (g_k / v_k)^(1/(p-1))`` with ``g = grad(lhs^q)``, rescaled by its
row maximum, and ``a_k = 0`` where ``g_k = 0``; ``v_k = 0`` with
``g_k > 0`` never reaches the polish, since its spike already makes the
pool ratio infinite.  ``g`` takes two scans: with ``E`` the iterated
entries, ``i*(n)`` is the first record position of the outer scan at or
after ``n`` (head outer: the last one at or before ``n``, both from one
``minimum``/``maximum.accumulate`` over record indices); ``i*(n)`` gets the
mass ``q w_n E_n^(q-1) u_i*(n)``, and ``g`` is the suffix sum of the masses
for an inner-left form, their prefix sum for inner-right.  A step costs one
such pass and one ratio evaluation per row, where a coordinate-ascent step
costs ``2n``.  It runs from the ``4 * restarts`` best pool candidates, and
each row stops at its first step that does not raise its ratio.  The plain
iteration stops at a fixed point of its record set, which can lie just off
a kink of the ratio where a position is about to become (or stop being) a
record; the ascent reaches such kinks.  So the best row of each problem
then takes flip steps: each evaluates the ``n`` candidates that flip one
position's record status, one of them the plain step, and moves to the
best while that raises its ratio.  On the power path ``evaluations`` counts
one per ratio evaluation of a live row: one per plain step, ``n`` per flip
step.  Everywhere else, that is ``q < p <= 1``, powered sums with
``r < p``, the sup and powered-sum forms with ``p > 1``, and ``q = inf``,
the polish is the multiplicative coordinate ascent of
:func:`_polish_top`, ``2n`` evaluations per live row and iteration.

Both searches run every restart in lock-step, one ``_ratio_batch`` call per
iteration for all of them.  ``_ratio_batch`` is row-independent (a row's
ratio does not depend on the other rows of its batch), and so is a power
step: it takes every power on a contiguous array and every sum as a row
reduction or a per-row ``bincount``.  So each restart ends exactly where a
polish of that restart alone would.

The search also has a problem axis.  The list entry points
(:func:`brute_force_constants`, :func:`equivalence_ratios`,
:func:`chain_equivalence_sweeps`) group the problems that share ``p``,
``q``, form and window size, stack their weights to shape (B, 1, n) against
candidates of shape (B, K, n), and polish every restart of every problem of
a group with one ``_ratio_batch`` call per iteration.  Rows are independent
across problems as well, so each result equals the problem's own result,
bit for bit, and comes back in input order; :func:`brute_force_constant`
is the one-element call.

Everything is deterministic given the config seed: per-restart generators are
derived from ``(seed, restart_index)`` and results merge by max, so the
outcome does not depend on evaluation order.
"""

from __future__ import annotations

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
    OperatorForm,
    RatioProblem,
    _ratio_batch,
    antigop_psum,
    gop_psum,
)
from .seqcore import Window, ext_div, scan_max, scan_min, scan_sum

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
    """Whether the polish is the power iteration (module docstring):
    ``p > 1``, finite ``q`` and a sum-inner form."""
    return problem.p > 1 and math.isfinite(problem.q) and problem.form.inner_kind == "sum"


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


def _block_pool(n: int) -> np.ndarray:
    """Indicators of every block ``[m1, m2]``, ordered by ``m1``, then ``m2``."""
    m1, m2 = np.triu_indices(n)
    idx = np.arange(n)
    return (m1[:, None] <= idx) & (idx <= m2[:, None])


def _dirichlet_draws(n: int, cfg: OracleConfig) -> np.ndarray:
    """The uniform simplex points of every restart, in restart order."""
    return np.concatenate([
        np.random.default_rng((cfg.seed, idx)).dirichlet(
            np.ones(n), size=cfg.dirichlet_per_restart
        )
        for idx in range(cfg.restarts)
    ])


def _assemble_pool(problems: Sequence[RatioProblem], cfg: OracleConfig) -> np.ndarray:
    """Spikes, then blocks, then Dirichlet draws, for same-size problems that
    share ``p``; shape (B, P, n), built in one allocation.

    One point has no block besides its spike.  Only the Dirichlet rows differ
    between problems: the shared simplex points are pulled onto each
    problem's constraint surface ``sum a^p v = 1``.  A row that overflows
    there is set to zero, whose ratio 0 never wins, so every candidate is a
    finite window.
    """
    n, p = problems[0].size, problems[0].p
    x = _dirichlet_draws(n, cfg)
    nb = n * (n + 1) // 2 if n > 1 else 0
    pool = np.empty((len(problems), n + nb + len(x), n))
    pool[:, :n] = np.eye(n)
    if nb:
        pool[:, n : n + nb] = _block_pool(n)
    v = np.stack([prob.v.as_array() for prob in problems])[:, None, :]
    drawn = pool[:, n + nb :]
    with np.errstate(over="ignore"):
        drawn[...] = (x / np.where(v > 0, v, 1.0)) ** (1.0 / p)
    drawn[~np.isfinite(drawn).all(axis=-1)] = 0.0
    return pool


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


def _power_gradient(
    form: OperatorForm,
    q: float,
    u: np.ndarray,
    w: np.ndarray,
    a: np.ndarray,
    flip: np.ndarray | None = None,
) -> np.ndarray:
    """``g = grad(lhs^q)`` of a sum-inner form at the candidates ``a``.

    ``a`` has shape (..., n), and ``u``, ``w`` broadcast against it.  With
    ``x = u * inner(a)`` and ``E`` its outer scan (the entries of
    :func:`_iterated_entries`), the records are the positions where
    ``x = E``.  ``i*(n)`` is the first record at or after ``n`` (head
    outer: the last one at or before ``n``), where ``E_n`` is attained.
    Each ``n`` puts the mass ``q w_n E_n^(q-1) u_i*(n)`` (0 where
    ``E_n = 0``) on ``i*(n)``; one ``bincount`` sums the masses per row, and
    ``g`` is their suffix sum for an inner-left form, their prefix sum for
    inner-right.

    ``flip`` (broadcast against ``a.shape[:-1]``) names one position per
    row whose record status is flipped first; ``E_n`` is then read as
    ``x_i*(n)``, so ``g`` is the gradient of a lower bound on ``lhs^q`` that
    takes the flipped record set.  The end of the outer scan (the last position for
    a tail outer, the first for a head outer) stays a record, so flipping
    it changes nothing.
    """
    right, tail = form.inner_dir == "right", form.outer == "tail"
    n = a.shape[-1]
    x = u * scan_sum(a, right)
    rec = x == scan_max(x, right=tail)
    idx = np.arange(n)
    if flip is not None:
        rec ^= idx == flip[..., None]
    rec[..., n - 1 if tail else 0] = True
    if tail:
        star = scan_min(np.where(rec, idx, n), right=True)
    else:
        star = scan_max(np.where(rec, idx, -1))
    e = np.ascontiguousarray(np.take_along_axis(x, star, axis=-1))
    pos = e > 0
    ustar = np.take_along_axis(np.broadcast_to(u, e.shape), star, axis=-1)
    mass = np.where(pos, q * w * np.where(pos, e, 1.0) ** (q - 1.0) * ustar, 0.0)
    rows = len(mass.reshape(-1, n))
    at = (star.reshape(rows, n) + n * np.arange(rows)[:, None]).ravel()
    m = np.bincount(at, weights=mass.ravel(), minlength=rows * n).reshape(e.shape)
    return scan_sum(m, right=not right)


def _power_steps(
    problem: RatioProblem,
    a: np.ndarray,
    best: np.ndarray,
    weights: tuple[np.ndarray, ...],
    flips: np.ndarray,
    iterations: int,
) -> np.ndarray:
    """Power steps from the rows ``a`` (L, n) with ratios ``best`` (L,),
    both updated in place, all rows in lock-step; returns the evaluations
    of each row.

    ``weights`` are the rows' ``(u, v, w)``, each of shape (L, 1, n).  A
    step evaluates one candidate per entry of ``flips`` (K,):
    ``a <- (g/v)^(1/(p-1))``, rescaled by its row maximum, with ``g`` from
    :func:`_power_gradient` for that flip and ``a_k = 0`` where
    ``g_k = 0``.  A candidate that leaves the float range is set to zero,
    whose ratio 0 never wins.  A row moves to its best candidate if that
    raises its best ratio, and otherwise stops; it also stops once its ratio
    is infinite.
    """
    evals = np.zeros(len(a), dtype=int)
    rows = np.flatnonzero(~np.isinf(best))
    power = 1.0 / (problem.p - 1.0)
    for _ in range(iterations):
        if not len(rows):
            break
        live = tuple(x[rows] for x in weights)
        u, v, w = live
        base = np.repeat(a[rows, None], len(flips), axis=1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            g = _power_gradient(problem.form, problem.q, u, w, base, flips)
            g /= g.max(axis=-1, keepdims=True)
            t = np.divide(g, v, out=np.zeros(g.shape), where=g > 0)
            cand = (t / t.max(axis=-1, keepdims=True)) ** power
        cand[~np.isfinite(cand).all(axis=-1)] = 0.0
        r = _ratio_batch(problem, cand, live)
        evals[rows] += len(flips)
        k = np.argmax(r, axis=1)
        top = r[np.arange(len(rows)), k]
        up = top > best[rows]
        best[rows[up]] = top[up]
        a[rows[up]] = cand[up, k[up]]
        rows = rows[up & ~np.isinf(top)]
    return evals


def _power_top(
    problem: RatioProblem,
    pool: np.ndarray,
    ratios: np.ndarray,
    weights: tuple[np.ndarray, ...],
    cfg: OracleConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boyd's power iteration for the stacked problems, in two phases.

    Shapes and contract as in :func:`_polish_top`, with R = min(4 restarts,
    P) + 1 rows per problem.  First the plain iteration (no flip) runs from
    the R - 1 best pool candidates of each problem.  Then the best row of
    each problem takes flip steps: each evaluates the ``n`` candidates that
    flip one record position, one of them the plain step, and moves to the
    best.  Every phase stops a row at its first step that does not raise
    its best ratio, and after ``cfg.iterations`` steps.  A problem's
    ``evals`` counts the ratio evaluations of its rows while they were live.
    """
    b, size, n = pool.shape
    rows_per = min(_POWER_STARTS * cfg.restarts, size)
    top = np.argsort(ratios, axis=1)[:, ::-1][:, :rows_per]
    a = np.take_along_axis(pool, top[:, :, None], axis=1).reshape(-1, n)
    best = np.take_along_axis(ratios, top, axis=1).reshape(-1)
    uvw = tuple(np.repeat(x, rows_per, axis=0) for x in weights)
    end = np.array([n - 1 if problem.form.outer == "tail" else 0])  # no flip
    evals = _power_steps(problem, a, best, uvw, end, cfg.iterations)
    a, best = a.reshape(b, rows_per, n), best.reshape(b, rows_per)
    k = np.argmax(best, axis=1)[:, None]
    a1 = np.take_along_axis(a, k[:, :, None], axis=1)[:, 0]
    best1 = np.take_along_axis(best, k, axis=1)[:, 0]
    evals1 = _power_steps(problem, a1, best1, weights, np.arange(n), cfg.iterations)
    return (
        np.concatenate([a, a1[:, None]], axis=1),
        np.concatenate([best, best1[:, None]], axis=1),
        evals.reshape(b, rows_per).sum(axis=1) + evals1,
    )


def _polish(
    problem: RatioProblem,
    pool: np.ndarray,
    ratios: np.ndarray,
    weights: tuple[np.ndarray, ...],
    cfg: OracleConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The power iteration where :func:`_power_search` holds, else the
    coordinate ascent."""
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


def _search(problems: Sequence[RatioProblem], cfg: OracleConfig) -> list[OracleResult]:
    """The search for same-size problems sharing ``p``, ``q`` and the form.

    In the spike range each problem's spike maximum; elsewhere one pool
    evaluation, then one lock-step polish of every problem whose pool holds
    no infinite ratio.
    """
    ref = problems[0]
    if _spike_exact(ref):
        return [_spike_max(prob) for prob in problems]
    weights = _stack(problems)
    pool = _assemble_pool(problems, cfg)
    ratios = _ratio_batch(ref, pool, weights)
    evals = np.full(len(problems), pool.shape[1])
    fin = ~np.isinf(ratios).any(axis=1)
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
    share their shape, so that all three forms agree."""
    refs = items[0][1]
    sups = [problems[0] for _, problems in items]
    weights = _stack(sups)
    pool = _assemble_pool(sups, cfg)
    base, extra, owner = [], [], []
    for ref in refs:
        r = _ratio_batch(ref, pool, weights)
        base.append(r)
        fin = ~np.isinf(r).any(axis=1)
        if fin.any():
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
