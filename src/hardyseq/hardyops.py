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
evaluated alone.

A batch of more than ``_BLOCK_ENTRIES`` entries is evaluated in blocks of
consecutive candidates, about ``_BLOCK_ENTRIES`` entries each, so that the
temporaries of a block stay in cache.  A block of a stacked batch is a
strided slice, and the SIMD path of a power may round differently on one;
so each block is a contiguous copy, and by row independence the blocked
result is bit-identical to the unblocked one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seqcore import (
    INF,
    Window,
    common_window,
    ext_mul_array,
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
        if not self.p > 0:
            raise ValueError(f"p must be positive, got {self.p}")
        if not self.q > 0:
            raise ValueError(f"q must be positive, got {self.q}")

    @property
    def size(self) -> int:
        return len(self.u)


# ---------------------------------------------------------------------------
# Batched evaluation (candidates stacked along axis 0)
# ---------------------------------------------------------------------------

#: Entries (candidates times window size) per block of a blocked
#: :func:`_ratio_batch` call; 2^14 float64 entries are 128 kB.
_BLOCK_ENTRIES = 1 << 14


def _sum_entries(
    u: np.ndarray, a: np.ndarray, form: OperatorForm
) -> tuple[np.ndarray, np.ndarray]:
    """``x = u * inner(a)`` of a sum-inner form and its outer scan ``E``,
    the iterated entries; ``E`` is contiguous.  The oracle's power loop
    keeps both for the gradient of its next step."""
    x = u * scan_sum(a, form.inner_dir == "right")
    return x, np.ascontiguousarray(scan_max(x, right=form.outer == "tail"))


def _iterated_entries(u: np.ndarray, a: np.ndarray, form: OperatorForm) -> np.ndarray:
    """Entries of the iterated operator for a batch of candidates ``a``.

    ``u`` has shape (N,), ``a`` shape (..., N); returns shape (..., N).
    """
    right = form.inner_dir == "right"
    r = form.inner_exponent
    if form.inner_kind == "sum" or (form.inner_kind == "psum" and r == 1.0):
        return _sum_entries(u, a, form)[1]
    if form.inner_kind == "sup":
        inner = scan_max(a, right)
    else:  # psum, entry = (sup u^r * sum a^r)^(1/r), computed on the rooted scale
        s = np.ascontiguousarray(scan_sum(a**r, right))
        # Tails with at most one nonzero term have p-norm equal to their
        # max; substituting that exact value avoids the pow round trip.
        counts = scan_sum((a > 0).astype(float), right)
        inner = np.where(counts <= 1.0, scan_max(a, right), s ** (1.0 / r))
    return np.ascontiguousarray(scan_max(u * inner, right=form.outer == "tail"))


def _lhs_batch(w: np.ndarray, q: float, entries: np.ndarray, mul=ext_mul_array) -> np.ndarray:
    """The left sides; ``mul`` is :func:`ext_mul_array` or, under a caller's
    ``np.errstate(invalid="ignore")``, its unguarded body."""
    if math.isinf(q):
        return np.max(mul(w, entries), axis=-1)
    return mul(entries**q, w).sum(axis=-1) ** (1.0 / q)


def _rhs_batch(v: np.ndarray, p: float, a: np.ndarray) -> np.ndarray:
    return ((a**p) * v).sum(axis=-1) ** (1.0 / p)


def _ratio_from_entries(
    problem: RatioProblem,
    a: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    entries: np.ndarray,
    mul=ext_mul_array,
) -> np.ndarray:
    """Ratios lhs/rhs of the candidates ``a`` with iterated ``entries``;
    0/0 yields 0, x/0 yields inf.  ``mul`` as in :func:`_lhs_batch`."""
    num = _lhs_batch(w, problem.q, entries, mul)
    den = _rhs_batch(v, problem.p, a)
    pos = den > 0
    out = np.divide(num, den, out=np.zeros(den.shape), where=pos)
    out[~pos & (num > 0)] = INF
    return out


def _ratio_batch(
    problem: RatioProblem,
    a: np.ndarray,
    weights: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Ratios lhs/rhs for a batch of candidates; 0/0 yields 0, x/0 yields inf.

    ``a`` has shape (..., N) and the result shape ``a.shape[:-1]``.  The
    problem gives ``p``, ``q`` and the form; ``weights`` are stacked
    ``(u, v, w)`` that broadcast against ``a`` with size 1 on its candidate
    axis -2 (shape (B, 1, N) for candidates of shape (B, K, N), one problem
    per leading index), and default to the problem's own windows.  A batch
    of more than ``_BLOCK_ENTRIES`` entries is evaluated in contiguous
    copies of consecutive candidates along axis -2 (module docstring).
    """
    if weights is None:
        weights = (problem.u.as_array(), problem.v.as_array(), problem.w.as_array())
    u, v, w = weights
    if a.size <= _BLOCK_ENTRIES or a.ndim < 2:
        return _ratio_from_entries(problem, a, v, w, _iterated_entries(u, a, problem.form))
    k = max(1, _BLOCK_ENTRIES * a.shape[-2] // a.size)  # candidates per block
    parts = []
    for lo in range(0, a.shape[-2], k):
        block = np.ascontiguousarray(a[..., lo : lo + k, :])
        entries = _iterated_entries(u, block, problem.form)
        parts.append(_ratio_from_entries(problem, block, v, w, entries))
    return np.concatenate(parts, axis=-1)


# ---------------------------------------------------------------------------
# Public single-sequence operations
# ---------------------------------------------------------------------------

def apply_iterated(u: Window, a: Window, form: OperatorForm = GOP) -> Window:
    """Windowed entries of the iterated operator applied to ``a``."""
    common_window(u, a)
    entries = _iterated_entries(u.as_array(), a.as_array(), form)
    return u.with_values(entries)


def lhs(problem: RatioProblem, a: Window) -> float:
    """Left-hand side: the weighted l^q norm of the iterated entries."""
    common_window(problem.u, a)
    entries = _iterated_entries(problem.u.as_array(), a.as_array(), problem.form)
    return float(_lhs_batch(problem.w.as_array(), problem.q, entries))


def rhs(v: Window, p: float, a: Window) -> float:
    """Right-hand side ``(sum a_n^p v_n)^(1/p)``."""
    common_window(v, a)
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    return float(_rhs_batch(v.as_array(), p, a.as_array()))


def ratio(problem: RatioProblem, a: Window) -> float:
    """``lhs / rhs`` by :func:`_ratio_batch` on a one-row batch, so it has
    the bits of that row in any batch; rejects ``a = 0``."""
    common_window(problem.u, a)
    if not a.values.max() > 0:
        raise ValueError("ratio requires a nonzero candidate sequence")
    return float(_ratio_batch(problem, a.as_array()[None, :])[0])


def elementary_chain_check(a: Window, p: float, n: int) -> tuple[float, float, float]:
    """The elementary tail chain at index ``n`` for ``p in (0, 1]``.

    Returns ``(sup_{i>=n} a_i, sum_{i>=n} a_i, (sum_{i>=n} a_i^p)^(1/p))``,
    which is nondecreasing.  Tails supported on at most one index are
    evaluated exactly (all three coincide there).
    """
    if not 0 < p <= 1:
        raise ValueError(f"the chain requires p in (0, 1], got {p}")
    tail = a.as_array()[n - a.start:] if n in a else None
    if tail is None:
        raise IndexError(f"index {n} outside window [{a.start}, {a.last}]")
    s1 = float(np.max(tail))
    if s1 == 0.0:
        return 0.0, 0.0, 0.0
    # Evaluate on the max-normalized tail: the largest ratio is exactly 1, so
    # r**p >= r holds entry by entry in floating point and the summed chain
    # cannot invert by roundoff.
    r = tail / s1
    t1 = float(np.sum(r))
    if p == 1.0 or int((tail > 0).sum()) <= 1:
        t3 = t1
    else:
        t3 = float(np.sum(r**p) ** (1.0 / p))
        # exact t3 >= exact t1; flooring repairs sub-ulp pow drift near p = 1,
        # keeping the returned value a faithful rounding of the true one
        t3 = max(t3, t1)
    return s1, s1 * t1, s1 * t3


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
