"""Brute-force estimation of the true least constant on small windows.

The least constant equals ``sup_a lhs(a) / rhs(a)`` over nonnegative
sequences.  On a finite window this module maximizes the ratio over a fixed
pool of candidate families, always searched in the same order: single spikes,
indicator blocks (windows of two or more points), Dirichlet points on the
constraint surface, and, unless a ratio is already infinite, the
multiplicative-ascent polish of the best of them.  The pool keeps that order,
so the index of a candidate tells its family.  The best ratio found is always
a certified lower bound on the true constant.

For ``p <= 1 <= q`` (including ``q = inf``), and for the powered-sum forms
also ``r >= p``, the maximum is attained at a spike: substituting
``x = a^p`` makes the numerator a composition of convex maps of ``x`` (the
inner sum ``sum x_k^(1/p)``, the inner sup, and the powered sum
``(sum x_k^(r/p))^(1/r)``, an l^(r/p) norm raised to ``1/p``, which is
convex only for ``r/p >= 1``; then the weighted outer sup and the l^q norm,
``q >= 1``), and the constraint set the simplex ``sum x_m v_m = 1``, whose
extreme points are single spikes.  In that range :func:`brute_force_constant`
evaluates the spikes alone and returns their maximum, which is exact,
certificate ``exact-spike``; everywhere else the full search runs and the
result is ``heuristic``.  For a powered sum with ``r < p`` the spikes are
beaten: the inner l^(r/p) quasi-norm favours spread-out candidates.

The polish runs every restart in lock-step, one ``_ratio_batch`` call per
iteration for all of them.  ``_ratio_batch`` is row-independent (a row's
ratio does not depend on the other rows of its batch), so each restart ends
exactly where a polish of that restart alone would.

Everything is deterministic given the config seed: per-restart generators are
derived from ``(seed, restart_index)`` and results merge by max, so the
outcome does not depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charformulas import CharacterizationResult, char_antigop, char_gop
from .hardyops import (
    ANTIGOP,
    ANTIGOP_SUP,
    GOP,
    GOP_SUP,
    RatioProblem,
    _ratio_batch,
    antigop_psum,
    gop_psum,
)
from .seqcore import Window, ext_div

__all__ = [
    "OracleConfig",
    "OracleResult",
    "EquivalenceRatio",
    "ChainEquivalenceReport",
    "spike_oracle",
    "brute_force_constant",
    "equivalence_ratio",
    "chain_equivalence_sweep",
]

#: Coordinate-ascent step: initial multiplicative step, and its decay on a
#: step that finds no better probe.
_STEP_INIT = 0.5
_STEP_DECAY = 0.9


@dataclass(frozen=True)
class OracleConfig:
    restarts: int = 32
    iterations: int = 500
    seed: int = 0
    dirichlet_per_restart: int = 8

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


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


def _spike_exact(problem: RatioProblem) -> bool:
    """Whether the least constant is the spike maximum (module docstring):
    ``p <= 1 <= q``, and ``r >= p`` for the powered-sum forms."""
    form = problem.form
    return problem.p <= 1.0 <= problem.q and (
        form.inner_kind != "psum" or form.inner_exponent >= problem.p
    )


def _result(
    problem: RatioProblem, pool: np.ndarray, ratios: np.ndarray, evaluations: int
) -> OracleResult:
    """The best candidate of ``pool``, certified exact in the spike range."""
    k = int(np.argmax(ratios))
    return OracleResult(
        constant=float(ratios[k]),
        argmax=Window(problem.u.start, pool[k]),
        certificate="exact-spike" if _spike_exact(problem) else "heuristic",
        evaluations=evaluations,
    )


def _spike_max(problem: RatioProblem) -> OracleResult:
    """The best single spike, one evaluation per index."""
    pool = np.eye(problem.size)
    return _result(problem, pool, _ratio_batch(problem, pool), len(pool))


def _block_pool(n: int) -> np.ndarray:
    """Indicators of every block ``[m1, m2]``, ordered by ``m1``, then ``m2``."""
    m1, m2 = np.triu_indices(n)
    idx = np.arange(n)
    return ((m1[:, None] <= idx) & (idx <= m2[:, None])).astype(float)


def _dirichlet_pool(problem: RatioProblem, cfg: OracleConfig) -> np.ndarray:
    n = problem.size
    v = problem.v.as_array()
    vsafe = np.where(v > 0, v, 1.0)
    draws = []
    for idx in range(cfg.restarts):
        rng = np.random.default_rng((cfg.seed, idx))
        x = rng.dirichlet(np.ones(n), size=cfg.dirichlet_per_restart)
        draws.append((x / vsafe) ** (1.0 / problem.p))
    return np.concatenate(draws)


def _assemble_pool(problem: RatioProblem, cfg: OracleConfig) -> np.ndarray:
    """Spikes, then blocks, then Dirichlet draws; one point has no block
    besides its spike."""
    n = problem.size
    blocks = [_block_pool(n)] if n > 1 else []
    return np.concatenate([np.eye(n), *blocks, _dirichlet_pool(problem, cfg)])


def _polish_top(
    problem: RatioProblem, pool: np.ndarray, ratios: np.ndarray, cfg: OracleConfig
) -> tuple[np.ndarray, int]:
    """Multiplicative coordinate ascent from the ``cfg.restarts`` best
    candidates, all in lock-step; returns (polished, evals).

    Each iteration evaluates the ``2n`` one-coordinate probes of every active
    row in one batch.  A row moves to its best probe if that beats its best
    ratio, and otherwise shrinks its own step; it freezes once its step
    falls below 1e-12 or its best ratio is infinite.  Rows are independent
    under :func:`_ratio_batch`, so each ends where a polish of that row alone
    would, and ``evals`` counts only the probes of active rows.
    """
    n = problem.size
    a = pool[np.argsort(ratios)[::-1][: cfg.restarts]]
    best = _ratio_batch(problem, a)
    step = np.full(len(a), _STEP_INIT)
    evals = len(a)
    idx = np.arange(n)
    for _ in range(cfg.iterations):
        rows = np.flatnonzero((step >= 1e-12) & ~np.isinf(best))
        if not len(rows):
            break
        base, grow = a[rows], 1.0 + step[rows, None]
        probes = np.repeat(base[:, None, :], 2 * n, axis=1)
        probes[:, idx, idx] = base * grow
        probes[:, n + idx, idx] = base / grow
        r = _ratio_batch(problem, probes.reshape(-1, n)).reshape(len(rows), 2 * n)
        evals += r.size
        k = np.argmax(r, axis=1)
        top = r[np.arange(len(rows)), k]
        up = top > best[rows]
        best[rows[up]] = top[up]
        a[rows[up]] = probes[up, k[up]]
        step[rows[~up]] *= _STEP_DECAY
    return a, evals


def spike_oracle(problem: RatioProblem) -> OracleResult:
    """Exact maximization over single-spike candidates for sup-inner forms."""
    if problem.form.inner_kind != "sup":
        raise ValueError("spike oracle requires a sup-inner operator form")
    if not problem.p <= 1.0:
        raise ValueError(f"spike oracle requires p in (0, 1], got p={problem.p}")
    return _spike_max(problem)


def brute_force_constant(
    problem: RatioProblem, cfg: OracleConfig | None = None
) -> OracleResult:
    """Best ratio over all candidate families; a lower bound on the constant.

    In the spike range (certificate ``exact-spike``) the spikes alone are
    evaluated, ``n`` evaluations, since no other candidate can beat them.
    """
    if _spike_exact(problem):
        return _spike_max(problem)
    cfg = cfg or OracleConfig()
    pool = _assemble_pool(problem, cfg)
    ratios = _ratio_batch(problem, pool)
    evals = len(pool)
    if not np.isinf(ratios).any():
        extra, used = _polish_top(problem, pool, ratios, cfg)
        pool = np.concatenate([pool, extra])
        ratios = np.concatenate([ratios, _ratio_batch(problem, extra)])
        evals += used + len(extra)
    return _result(problem, pool, ratios, evals)


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


def equivalence_ratio(
    problem: RatioProblem,
    cfg: OracleConfig | None = None,
    variant: str = "printed",
) -> EquivalenceRatio:
    """Closed-form estimate F vs brute-force B for a sum-inner problem.

    Degenerate 0/0 (and inf/inf) comparisons report the sentinel ratio 1
    with a flag rather than NaN.
    """
    if problem.form == GOP:
        ch = char_gop(problem.u, problem.v, problem.w, problem.p, problem.q)
    elif problem.form == ANTIGOP:
        ch = char_antigop(
            problem.u, problem.v, problem.w, problem.p, problem.q, variant=variant
        )
    else:
        raise ValueError(
            "equivalence ratios are defined for the gop/antigop sum forms, "
            f"got {problem.form.name}"
        )
    res = brute_force_constant(problem, cfg)
    F, B = ch.value, res.constant
    if (F == 0 and B == 0) or (math.isinf(F) and math.isinf(B)):
        return EquivalenceRatio(F, B, 1.0, True, ch, res)
    return EquivalenceRatio(F, B, ext_div(F, B), False, ch, res)


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
    if not 0 < p <= 1:
        raise ValueError(f"the chain equivalences require p in (0, 1], got {p}")
    cfg = cfg or OracleConfig()
    if family == "antigop":
        forms = (ANTIGOP_SUP, ANTIGOP, antigop_psum(p))
    elif family == "gop":
        forms = (GOP_SUP, GOP, gop_psum(p))
    elif family == "simple":
        forms = (ANTIGOP_SUP, ANTIGOP, antigop_psum(p))
        u = u.with_values([1.0] * len(u))
    else:
        raise ValueError(f"family must be antigop/gop/simple, got {family!r}")
    problems = [RatioProblem(u, v, w, p, q, f) for f in forms]
    pool = _assemble_pool(problems[0], cfg)
    extra = []
    for prob in problems:
        r = _ratio_batch(prob, pool)
        if not np.isinf(r).any():
            extra.append(_polish_top(prob, pool, r, cfg)[0])
    pool = np.concatenate([pool, *extra])
    r1, r2, r3 = (_ratio_batch(prob, pool) for prob in problems)
    violations = int(np.sum((r1 > r2) | (r2 > r3)))
    a1, a2, a3 = float(np.max(r1)), float(np.max(r2)), float(np.max(r3))
    sentinel = a1 == 0 and a3 == 0
    ratio31 = 1.0 if sentinel else ext_div(a3, a1)
    return ChainEquivalenceReport(
        family, a1, a2, a3, violations, ratio31, sentinel, len(pool)
    )
