"""Evaluation of the discrete iterated operators and both inequality sides.

The iterated operator at index ``n`` is

    sup over i in the outer range of  u_i * inner(a, i)

where the outer range is a tail ``{i >= n}`` or a head ``{i <= n}`` of the
window and the inner aggregation is one of

* ``sum``:   ``sum_{k <= i} a_k``  (left) or ``sum_{k >= i} a_k``  (right)
* ``sup``:   ``sup_{k <= i} a_k``  or ``sup_{k >= i} a_k``
* ``psum``:  r-powered sums; the entry is ``(sup_i u_i^r sum a_k^r)^(1/r)``

so that with a weighted outer l^q norm the eight combinations cover the
principal inequality, its reflected companion, both duals and the sup/powered
variants used by the equivalence theorems.

All aggregations run as prefix/suffix scans, O(N) per evaluation, and the
private batch helpers evaluate many candidate sequences at once for the
brute-force oracle.  A row's ratio does not depend on the other rows of its
batch: every power is taken on a contiguous array and every sum is a row
reduction (no BLAS matrix-vector product), so a candidate evaluated alone or
in any batch gives the same bits.  That holds across problems too: weights
stacked along a leading axis give every row the bits of its own problem
evaluated alone.  A batch is evaluated in one pass, on C-contiguous rows;
the oracle, which builds many rows, chunks them where it builds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqcore import (
    INF,
    Window,
    _ext_mul,
    common_window,
    ext_pow,
    scan_max,
    scan_sum,
)

__all__ = [
    "OperatorForm",
    "FORM_NAMES",
    "form_by_name",
    "RatioProblem",
    "GOP",
    "ANTIGOP",
    "DUAL_GOP",
    "DUAL_ANTIGOP",
    "GOP_SUP",
    "ANTIGOP_SUP",
    "gop_psum",
    "antigop_psum",
    "apply_iterated",
    "lhs",
    "rhs",
    "ratio",
    "elementary_chain_check",
]


@dataclass(frozen=True)
class OperatorForm:
    """Shape of one iterated operator.

    outer:       "tail" (sup over i >= n) or "head" (sup over i <= n)
    inner_kind:  "sum", "sup" or "psum"
    inner_dir:   "left" (k <= i) or "right" (k >= i)
    inner_exponent: r for the psum kind; ignored otherwise
    """

    outer: str
    inner_kind: str
    inner_dir: str
    inner_exponent: float = 1.0

    def __post_init__(self) -> None:
        if self.outer not in ("tail", "head"):
            raise ValueError(f"outer must be 'tail' or 'head', got {self.outer!r}")
        if self.inner_kind not in ("sum", "sup", "psum"):
            raise ValueError(f"inner_kind must be sum/sup/psum, got {self.inner_kind!r}")
        if self.inner_dir not in ("left", "right"):
            raise ValueError(f"inner_dir must be 'left' or 'right', got {self.inner_dir!r}")
        if self.inner_kind == "psum" and not self.inner_exponent > 0:
            raise ValueError("psum exponent must be positive")

    @property
    def name(self) -> str:
        return FORM_NAMES[(self.outer, self.inner_kind, self.inner_dir)]


#: The name of every operator shape, keyed by (outer, inner_kind, inner_dir).
FORM_NAMES = {
    ("tail", "sum", "left"): "gop",
    ("tail", "sum", "right"): "antigop",
    ("head", "sum", "right"): "dual-gop",
    ("head", "sum", "left"): "dual-antigop",
    ("tail", "sup", "left"): "gop-sup",
    ("tail", "sup", "right"): "antigop-sup",
    ("tail", "psum", "left"): "gop-psum",
    ("tail", "psum", "right"): "antigop-psum",
    ("head", "sup", "right"): "dual-gop-sup",
    ("head", "sup", "left"): "dual-antigop-sup",
    ("head", "psum", "right"): "dual-gop-psum",
    ("head", "psum", "left"): "dual-antigop-psum",
}


# The named forms of the inequalities under study.
GOP = OperatorForm("tail", "sum", "left")
ANTIGOP = OperatorForm("tail", "sum", "right")
DUAL_GOP = OperatorForm("head", "sum", "right")
DUAL_ANTIGOP = OperatorForm("head", "sum", "left")
GOP_SUP = OperatorForm("tail", "sup", "left")
ANTIGOP_SUP = OperatorForm("tail", "sup", "right")


def gop_psum(r: float) -> OperatorForm:
    return OperatorForm("tail", "psum", "left", r)


def antigop_psum(r: float) -> OperatorForm:
    return OperatorForm("tail", "psum", "right", r)


def form_by_name(name: str, r: float = 1.0) -> OperatorForm:
    """The form named ``name`` in :data:`FORM_NAMES`; ``r`` is the psum exponent."""
    for (outer, kind, direction), known in FORM_NAMES.items():
        if known == name:
            return OperatorForm(outer, kind, direction, r if kind == "psum" else 1.0)
    raise ValueError(f"unknown operator form {name!r}")


@dataclass(frozen=True)
class RatioProblem:
    """One instance of the three-weight inequality: weights, exponents, form.

    ``q = math.inf`` selects the weighted sup norm ``sup_n w_n * entry_n`` on
    the left-hand side (with ``w`` constant one this is the plain sup form of
    the exact q-infinity lemma).
    """

    u: Window
    v: Window
    w: Window
    p: float
    q: float
    form: OperatorForm = GOP

    def __post_init__(self) -> None:
        common_window(self.u, self.v, self.w)
        if not 0 < self.p < math.inf:
            raise ValueError(f"p must be positive and finite, got {self.p}")
        if not self.q > 0:
            raise ValueError(f"q must be positive, got {self.q}")

    @property
    def size(self) -> int:
        return len(self.u)


# ---------------------------------------------------------------------------
# Batched evaluation (candidates stacked along axis 0)
# ---------------------------------------------------------------------------

def _entries(u: np.ndarray, a: np.ndarray, form: OperatorForm) -> tuple[np.ndarray, np.ndarray]:
    """``x = u * inner(a)`` for a batch of candidates ``a`` (..., N), and
    its outer scan ``E``, the iterated entries; both contiguous, shape
    (..., N).  The oracle's power loop keeps both for the masses of its
    next step."""
    right = form.inner_dir == "right"
    r = form.inner_exponent
    if form.inner_kind == "sum" or (form.inner_kind == "psum" and r == 1.0):
        inner = scan_sum(a, right)
    elif form.inner_kind == "sup":
        inner = scan_max(a, right)
    else:  # psum, entry = (sup u^r * sum a^r)^(1/r), computed on the rooted scale
        s = scan_sum(a**r, right)
        # Tails with at most one nonzero term have p-norm equal to their
        # max; substituting that exact value avoids the pow round trip.
        counts = scan_sum((a > 0).astype(float), right)
        inner = np.where(counts <= 1.0, scan_max(a, right), s ** (1.0 / r))
    x = u * inner
    return x, scan_max(x, form.outer == "tail")


def _lhs_batch(w: np.ndarray, q: float, entries: np.ndarray) -> np.ndarray:
    """The left sides, under a caller's ``np.errstate`` that ignores
    overflow and invalid operations (``0 * inf`` is 0)."""
    if math.isinf(q):
        return np.max(_ext_mul(w, entries), axis=-1)
    return np.add.reduce(_ext_mul(entries**q, w), axis=-1) ** (1.0 / q)


def _rhs_batch(v: np.ndarray, p: float, a: np.ndarray) -> np.ndarray:
    return np.add.reduce((a**p) * v, axis=-1) ** (1.0 / p)


def _quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den``; 0/0 yields 0, x/0 yields inf, and inf/inf is NaN."""
    if den.min(initial=INF) > 0:
        return num / den
    pos = den > 0
    out = np.divide(num, den, out=np.zeros(den.shape), where=pos)
    out[~pos & (num > 0)] = INF
    return out


def _ratio_from_entries(
    problem: RatioProblem,
    a: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    entries: np.ndarray,
) -> np.ndarray:
    """Ratios lhs/rhs of the candidates ``a`` with iterated ``entries``, as
    :func:`_quotient` gives them, under the errstate of :func:`_lhs_batch`."""
    return _quotient(_lhs_batch(w, problem.q, entries), _rhs_batch(v, problem.p, a))


def _ratio_batch(
    problem: RatioProblem,
    a: np.ndarray,
    weights: tuple[np.ndarray, np.ndarray, np.ndarray] | np.ndarray | None = None,
) -> np.ndarray:
    """Ratios lhs/rhs for a batch of candidates; 0/0 yields 0, x/0 yields inf.

    ``a`` has shape (..., N) and the result shape ``a.shape[:-1]``.  The
    problem gives ``p``, ``q`` and the form; ``weights`` unpack to stacked
    ``u, v, w`` (the oracle's (3, B, 1, N) stack) that broadcast against
    ``a`` with size 1 on its candidate axis -2 (shape (B, 1, N) for
    candidates (B, K, N)), and default to the problem's own windows.  The
    rows of ``a`` are C-contiguous, as every caller builds them: the SIMD
    path of a power may round differently on a strided view.  Saturation
    to inf, inf/inf (NaN) and ``0 * inf`` in the sides do not warn; an
    invalid operation in the iterated entries still does.
    """
    if weights is None:
        weights = (problem.u.as_array(), problem.v.as_array(), problem.w.as_array())
    u, v, w = weights[0], weights[1], weights[2]  # indexing: iterating an array costs more
    with np.errstate(over="ignore"):
        entries = _entries(u, a, problem.form)[1]
        with np.errstate(invalid="ignore"):  # inf/inf, and 0 * inf in the sides
            return _ratio_from_entries(problem, a, v, w, entries)


# ---------------------------------------------------------------------------
# Public single-sequence operations
# ---------------------------------------------------------------------------

def apply_iterated(u: Window, a: Window, form: OperatorForm = GOP) -> Window:
    """Windowed entries of the iterated operator applied to ``a``.

    Raises ``ValueError`` when an entry overflows the float range, which
    finite windows can reach (weights near 2^600 do): a ``Window`` holds only
    finite entries.  :func:`lhs` and :func:`ratio` take such entries as inf
    and saturate instead.
    """
    common_window(u, a)
    with np.errstate(over="ignore"):  # an entry past the float range is inf
        entries = _entries(u.as_array(), a.as_array(), form)[1]
    if not entries.max() < INF:  # also NaN, from u = 0 times an inf inner sum
        raise ValueError(
            "iterated entries overflow the float range, and a window holds only"
            " finite entries; lhs and ratio saturate to inf instead"
        )
    return u.with_values(entries)


def lhs(problem: RatioProblem, a: Window) -> float:
    """Left-hand side: the weighted l^q norm of the iterated entries,
    evaluated on a one-row batch as :func:`ratio` is."""
    common_window(problem.u, a)
    with np.errstate(over="ignore"):  # saturates to inf
        entries = _entries(problem.u.as_array(), a.as_array()[None], problem.form)[1]
        with np.errstate(invalid="ignore"):  # 0 * inf
            return float(_lhs_batch(problem.w.as_array(), problem.q, entries)[0])


def rhs(v: Window, p: float, a: Window) -> float:
    """Right-hand side ``(sum a_n^p v_n)^(1/p)``, evaluated on a one-row
    batch as :func:`ratio` is."""
    common_window(v, a)
    if not 0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")
    with np.errstate(over="ignore"):  # saturates to inf
        return float(_rhs_batch(v.as_array(), p, a.as_array()[None])[0])


def ratio(problem: RatioProblem, a: Window) -> float:
    """``lhs / rhs`` by :func:`_ratio_batch` on a one-row batch, so it has
    the bits of that row in any batch and, wherever ``rhs > 0``, those of
    :func:`lhs` over :func:`rhs`; rejects ``a = 0``."""
    common_window(problem.u, a)
    if not a.values.max() > 0:
        raise ValueError("ratio requires a nonzero candidate sequence")
    return float(_ratio_batch(problem, a.as_array()[None, :])[0])


def _chain_tail(a: Window, p: float, n: int) -> np.ndarray:
    """The tail ``a[n:]`` of a chain probe; raises for ``p`` outside (0, 1]
    and for ``n`` outside the window."""
    if not 0 < p <= 1:
        raise ValueError(f"the chain requires p in (0, 1], got {p}")
    if n not in a:
        raise IndexError(f"index {n} outside window [{a.start}, {a.last}]")
    return a.as_array()[n - a.start:]


def _row_powers(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``x[i] ** p[i]`` for the C-contiguous rows of ``x`` (B, m) and the
    exponents ``p`` (B,) in (0, 1], each row with the bits of its 1-D power
    ``x[i] ** p[i]``: NumPy takes an exponent of 0.5 that is one number for
    the whole power as ``sqrt``, and a column of them as ``pow``, which
    differs in about 5% of values; every other such exponent rounds alike
    either way."""
    out = x ** p[:, None]
    half = p == 0.5
    out[half] = np.sqrt(x[half])
    return out


def _chain_rows(tails: np.ndarray, p: np.ndarray) -> list[tuple[float, float, float]]:
    """The chains of the C-contiguous tails ``tails`` (B, m) at the
    exponents ``p`` (B,) in (0, 1], each row with the bits it has alone,
    its powers taken by :func:`_row_powers` and its root on a Python
    float."""
    s1 = np.maximum.reduce(tails, axis=-1)
    # Evaluate on the max-normalized tail: the largest ratio is exactly 1, so
    # r**p >= r holds entry by entry in floating point and the summed chain
    # cannot invert by roundoff.  An all-zero tail is divided by 1.
    r = tails / np.where(s1 > 0, s1, 1.0)[:, None]
    t1 = np.add.reduce(r, axis=-1).tolist()
    t3 = list(t1)
    rooted = np.flatnonzero((p != 1.0) & (np.count_nonzero(tails, axis=-1) > 1))
    sums = np.add.reduce(_row_powers(r[rooted], p[rooted]), axis=-1)
    for i, total, pi in zip(rooted.tolist(), sums.tolist(), p[rooted].tolist()):
        # exact t3 >= exact t1; flooring repairs sub-ulp pow drift near p = 1,
        # keeping the returned value a faithful rounding of the true one
        t3[i] = max(ext_pow(total, 1.0 / pi), t1[i])
    return [
        (top, top * x, top * y) if top > 0 else (0.0, 0.0, 0.0)
        for top, x, y in zip(s1.tolist(), t1, t3)
    ]


def elementary_chain_check(a: Window, p: float, n: int) -> tuple[float, float, float]:
    """The elementary tail chain at index ``n`` for ``p in (0, 1]``:
    ``(sup_{i>=n} a_i, sum_{i>=n} a_i, (sum_{i>=n} a_i^p)^(1/p))``, which
    is nondecreasing.  Tails supported on at most one index are evaluated
    exactly (all three coincide there).  The tail is one row of
    :func:`_chain_rows`, so it has the bits of that row in any batch."""
    return _chain_rows(_chain_tail(a, p, n)[None], np.array([float(p)]))[0]


def dual_problem(problem: RatioProblem) -> RatioProblem:
    """Index-reversed companion problem (same ratio on reversed candidates)."""
    f = problem.form
    flipped = OperatorForm(
        "head" if f.outer == "tail" else "tail",
        f.inner_kind,
        "right" if f.inner_dir == "left" else "left",
        f.inner_exponent,
    )
    return RatioProblem(
        problem.u.reversed(),
        problem.v.reversed(),
        problem.w.reversed(),
        problem.p,
        problem.q,
        flipped,
    )
