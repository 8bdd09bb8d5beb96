"""Block partitions driven by tail-sum doubling, and the doubling lemma.

The partition of a weight window ``w`` starting at ``n0`` is the recursion

    n_1 = n_0 + 1
    n_k = inf { j > n_{k-1} : sum_{i >= j} w_i >= 2 * sum_{i = n_{k-1}}^{j-1} w_i }

with ``inf(empty) = inf``.  Tail sums run over the window only, and a zero
tail never passes the test (otherwise the recursion would walk forever past
the support).  The terminal infinity is kept symbolic (``math.inf`` in the
index list), K is its position, and the set ``kset`` collects the k in
1..K-1 whose block has interior points (``n_k < n_{k+1} - 1``).

Because the tail shrinks while the block sum grows, the passing set of j is
an initial segment: every finite step of the recursion advances by exactly
one index, and the partition stops at the first j >= n_0 + 2 that fails.
The verifier checks exactly the properties guaranteed by the construction
(first step, attainment, minimality, interior bound where a finite next
block exists, tail doubling for interior k).

Exactness contract: every comparison, in :func:`block_partition` and in
:func:`verify_partition_invariants`, is decided for the float entries taken
as exact rationals, ties passing the non-strict tests.  Both read the
window's suffix masses from one suffix ``scan_sum`` and decide from
the floats where the margin exceeds the certified summation bound
``gamma_m = m 2**-53 / (1 - m 2**-53)`` for a suffix of m terms; near-ties,
cancelling differences of suffixes and overflowing sums are decided by an
exact integer pass instead.  The partition is therefore the one of the exact
recursion, whatever the rounding of the float sums, and both functions take
O(N) array work on a window of N entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .seqcore import INF, Window, _in_groups, _scaled, common_window, scan_max, scan_sum

__all__ = [
    "BlockPartition",
    "PartitionReport",
    "block_partition",
    "verify_partition_invariants",
    "doubling_lemma_check",
    "doubling_lemma_checks",
    "DoublingQuantities",
]


@dataclass(frozen=True)
class BlockPartition:
    """Indices ``{n_k}_{k=0..K}`` with a symbolic inf terminal at position K."""

    n0: int
    ns: tuple[float, ...]  # ints except the final math.inf terminal
    kset: frozenset[int]

    @property
    def K(self) -> int:
        return len(self.ns) - 1

    def to_json(self) -> dict:
        return {
            "n0": self.n0,
            "ns": ["inf" if math.isinf(n) else int(n) for n in self.ns],
            "K": self.K,
            "kset": sorted(self.kset),
        }


#: Unit roundoff of float64, and an absolute floor on the certified bound
#: that covers rounding in the subnormal range.
_U = 2.0**-53
_TINY = 2.0**-1000


class _TailMasses:
    """The suffix masses ``T_i = sum_{m >= i} w_m`` of a window at
    local positions i = 0..N (``T_N = 0``), and exact doubling comparisons
    of the masses ``M[x, y) = T_x - T_y`` between them.

    One suffix ``scan_sum`` gives float suffixes ``S_i``; a sum of m
    nonnegative terms in any order has ``|S_i - T_i| <= gamma_m S_i``, where
    ``gamma_m = m u / (1 - m u)`` and ``u = 2**-53``.  :meth:`compare`
    decides from the floats whenever their margin clears that bound (plus
    the rounding of the comparison itself) or every suffix involved is
    zero, and otherwise from exact integer suffixes: ties, cancelling
    differences and overflow.
    """

    def __init__(self, w: Window) -> None:
        self.start = w.start
        self.values = w.as_array()
        n = self.n = len(self.values)
        self.s = np.zeros(n + 1)
        with np.errstate(over="ignore"):  # an infinite sum is decided exactly
            self.s[:n] = scan_sum(self.values, right=True)
        mu = np.arange(n, -1, -1) * _U
        # the error allowance of each suffix: gamma_m, plus 4u for the three
        # roundings of a comparison
        self.gs = (mu / (1.0 - mu) + 4 * _U) * self.s

    def pos(self, i: np.ndarray) -> np.ndarray:
        """Local positions of window indices (inf allowed), clamped to 0..N."""
        return np.minimum(np.maximum(i - self.start, 0), self.n).astype(np.int64)

    def compare(self, a, d, b, c) -> np.ndarray:
        """Exact sign (-1, 0 or 1) of ``M[a, d) - 2 M[b, c)``, elementwise
        over local positions."""
        s, gs = self.s, self.gs
        with np.errstate(over="ignore", invalid="ignore"):
            diff = (s[a] - s[d]) - 2.0 * (s[b] - s[c])
            bound = 2.0 * (gs[a] + gs[d] + 2.0 * (gs[b] + gs[c]))
            # a zero bound means every suffix involved is empty of mass
            sure = np.isfinite(diff) & (
                (np.abs(diff) > np.maximum(bound, _TINY)) | (bound == 0)
            )
        out = np.sign(diff)
        if not sure.all():
            rows = np.flatnonzero(~sure)
            at = [np.broadcast_to(x, diff.shape)[rows] for x in (a, d, b, c)]
            exact = self._exact(np.concatenate(at))
            for r, (ea, ed, eb, ec) in enumerate(zip(*(x.tolist() for x in at))):
                m = exact[ea] - exact[ed] - 2 * (exact[eb] - exact[ec])
                out[rows[r]] = (m > 0) - (m < 0)
        return out

    def _exact(self, need: np.ndarray) -> dict[int, int]:
        """``T_i`` at the positions ``need`` as integers on one power-of-two
        scale: one pass from the right over the entries as scaled ints."""
        lo = int(need.min())
        ints = _scaled(self.values[lo:])[0]
        want = set(need.tolist())
        out = {self.n: 0}
        acc = 0
        for i in range(self.n - 1, lo - 1, -1):
            acc += ints[i - lo]
            if i in want:
                out[i] = acc
        return out


def _partition_start(w: Window, n0: int) -> None:
    """Raise ``IndexError`` for a start ``n0`` outside ``w``, which
    :func:`block_partition` does not take."""
    if n0 not in w:
        raise IndexError(f"n0={n0} outside window [{w.start}, {w.last}]")


def block_partition(w: Window, n0: int) -> BlockPartition:
    """Construct the block partition of ``w`` starting at ``n0``."""
    _partition_start(w, n0)
    t = _TailMasses(w)
    ns: list[float] = [n0]
    # Each step's passing set is an initial segment (see the module
    # docstring), so n_{k-1} + 1 is the only candidate for n_k, and the
    # steps run up to the first j >= n_0 + 2 that fails.  With n_0 at the
    # window's last index there is no room for the first step n_0 + 1.
    # Only the last block, before the infinite terminal, has interior
    # points: kset is {K - 1} once K >= 2.
    i0 = n0 - w.start
    if i0 + 1 < t.n:
        j = np.arange(i0 + 2, t.n)
        # the doubling test: the tail M[j, N) is positive and at least
        # twice the block M[j - 1, j)
        passes = (t.s[j] > 0) & (t.compare(j, t.n, j - 1, j) >= 0)
        fails = np.flatnonzero(~passes)
        stop = int(j[fails[0]]) if len(fails) else t.n
        ns.extend(range(n0 + 1, w.start + stop))
    ns.append(INF)
    kset = frozenset({len(ns) - 2}) if len(ns) > 2 else frozenset()
    return BlockPartition(n0, tuple(ns), kset)


@dataclass
class PartitionReport:
    """Per-invariant verification outcome.

    ``checks`` maps invariant name to overall pass; ``failures`` lists
    (invariant, k) pairs.  ``vacuous`` is set when K < 3, where the
    construction has no content beyond its first step.
    """

    checks: dict[str, bool] = field(default_factory=dict)
    failures: list[tuple[str, int]] = field(default_factory=list)
    vacuous: bool = False

    @property
    def all_pass(self) -> bool:
        return all(self.checks.values())

    def record(self, name: str, k: int, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and ok
        if not ok:
            self.failures.append((name, k))

    def to_json(self) -> dict:
        return {
            "checks": dict(self.checks),
            "failures": [list(f) for f in self.failures],
            "vacuous": self.vacuous,
            "all_pass": self.all_pass,
        }


def _record_each(
    report: PartitionReport, name: str, ks: np.ndarray, oks: np.ndarray
) -> None:
    """``report.record(name, k, ok)`` for every ``k`` in order, at once."""
    if len(ks):
        ok = bool(oks.all())
        report.checks[name] = report.checks.get(name, True) and ok
        if not ok:
            report.failures.extend((name, k) for k in ks[~oks].tolist())


def verify_partition_invariants(w: Window, bp: BlockPartition) -> PartitionReport:
    """Check the construction invariants of ``bp`` against ``w``.

    Verified properties:

    * first_step:   n_1 = n_0 + 1 (or immediate terminal on a 1-point window)
    * attainment:   every finite n_k with k >= 2 passes the doubling test
    * minimality:   every j strictly between n_{k-1} and n_k fails it
    * kset:         the recorded kset matches its definition
    * interior_bound: for k in kset with finite n_{k+1}, the block interior
      mass is below twice the previous block mass
    * tail_doubling: for 2 <= k <= K-2, the tail at n_k dominates twice the
      previous block mass (the k = 1 instance is not implied by the
      construction, n_1 being set by fiat, and is not checked)

    Every comparison is exact (module docstring).  Only the terminal n_K
    may be infinite.
    """
    report = PartitionReport()
    ns = list(bp.ns)
    K = bp.K
    report.vacuous = K < 3
    t = _TailMasses(w)

    ok_first = (ns[0] == bp.n0) and (
        (len(ns) >= 2 and ns[1] == bp.n0 + 1)
        or (len(ns) == 2 and math.isinf(ns[1]) and bp.n0 + 1 >= w.stop)
    )
    report.record("first_step", 1, ok_first)

    nsa = np.asarray(ns, dtype=float)
    if not np.isfinite(nsa[1:-1]).all():
        raise ValueError("only the terminal n_K may be infinite")
    at = t.pos(nsa)  # position of each n_k; inf and the window's end -> N
    # One row per comparison, all decided by one compare() call:
    # steps k = 2..K: the doubling test of (n_{k-1}, n_k); its comparison
    # is also tail_doubling at k
    ks = np.arange(2, len(ns))
    step_a, step_b = at[2:], at[1:-1]
    # minimality: every j in (n_{k-1}, n_k), the window's end standing in
    # for an infinite n_k (no j past it passes)
    lo = nsa[1:-1] + 1
    lens = np.maximum(np.minimum(nsa[2:], w.stop) - lo, 0).astype(np.int64)
    first = np.repeat(lo - (np.cumsum(lens) - lens), lens)
    min_a = t.pos(first + np.arange(len(first)))
    min_b = np.repeat(step_b, lens)
    # interior_bound: M[n_k, n_{k+1} - 1) against M[n_{k-1}, n_k)
    kin = np.array([
        k for k in sorted(bp.kset) if 1 <= k < K and math.isfinite(ns[k + 1])
    ], dtype=np.int64)
    in_a = at[kin]
    in_d = np.maximum(in_a, t.pos(nsa[kin + 1] - 1))
    in_b = at[kin - 1]
    a = np.concatenate([step_a, min_a, in_a])
    b = np.concatenate([step_b, min_b, in_b])
    d = np.concatenate([np.full(len(step_a) + len(min_a), t.n), in_d])
    # every row compares M[a, d) with twice the block M[b, max(a, b))
    sign = t.compare(a, d, b, np.maximum(a, b))
    passes = (sign >= 0) & (t.s[a] > 0)  # the doubling test
    n_steps, n_min = len(step_a), len(min_a)
    found = np.bincount(
        np.repeat(ks - 2, lens), weights=passes[n_steps:n_steps + n_min],
        minlength=len(ks),
    )
    fin = np.isfinite(nsa[2:])
    mark = len(report.failures)
    _record_each(report, "attainment", ks[fin], passes[:n_steps][fin])
    _record_each(report, "minimality", ks, found == 0)
    # the loop over k records attainment, then minimality, at each k
    report.failures[mark:] = sorted(report.failures[mark:], key=lambda f: f[1])

    # kset by its definition, n_k < n_{k+1} - 1
    kset = frozenset((np.flatnonzero(nsa[2:] > lo) + 1).tolist())
    report.record("kset", 0, bp.kset == kset)
    # interior < 2 * previous block; tail >= 2 * previous block
    _record_each(report, "interior_bound", kin, sign[n_steps + n_min:] < 0)
    tails = max(K - 3, 0)  # k = 2..K-2
    _record_each(report, "tail_doubling", ks[:tails], sign[:tails] >= 0)

    for name in ("attainment", "minimality", "interior_bound", "tail_doubling"):
        report.checks.setdefault(name, True)
    return report


@dataclass(frozen=True)
class DoublingQuantities:
    lhs_sum: float
    lhs_sup: float
    rhs_sum: float
    rhs_sup: float

    def to_json(self) -> dict:
        return dict(vars(self))


def doubling_lemma_checks(
    probes: Sequence[tuple[Window, Window, float, int, int]],
) -> list[DoublingQuantities]:
    """Both sides of the doubling-sequence inequality for every ``(b, c,
    alpha, kmin, kmax)`` probe, in input order.

    Requires ``b_{k+1} >= 2 b_k`` for ``kmin <= k <= kmax - 2`` (the last gap
    is exempt, exactly as in the statement) and at least three indices.
    Returns

        lhs_sum = sum_k (sum_{m=k}^{kmax} c_m)^alpha * b_k
        lhs_sup = sum_k (sup_{k<=m<=kmax} c_m) * b_k
        rhs_sum = sum_k c_k^alpha * b_k
        rhs_sup = sum_k c_k * b_k

    and the caller asserts ``lhs <= C(alpha) * rhs``.  With doubling holding
    through the last gap, ``C = 2`` suffices for ``alpha <= 1`` (and for the
    sup pair regardless of alpha); the exempt last gap admits no universal
    constant when ``c`` spikes at ``kmax``.

    The probes are evaluated by :func:`_doubling_rows` as C-contiguous (B, m)
    rows, one batch per length m and ``alpha``, so every probe gets the bits
    it has alone.
    """
    rows = [_doubling_sides(*probe) for probe in probes]
    return _in_groups(rows, lambda row: (len(row[0]), row[2]), lambda group: [
        DoublingQuantities(*q) for q in zip(*_doubling_rows(
            np.stack([bb for bb, _, _ in group]), np.stack([cc for _, cc, _ in group]), group[0][2]
        ))
    ])


def _doubling_sides(
    b: Window, c: Window, alpha: float, kmin: int, kmax: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """``b`` and ``c`` on ``[kmin, kmax]``, and ``alpha`` as a float, of a
    probe that meets the conditions of :func:`doubling_lemma_checks`;
    ``ValueError`` for one that does not."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    common_window(b, c)
    if not (b.start <= kmin and kmax <= b.last and kmin <= kmax - 2):
        raise ValueError(
            f"need kmin <= kmax - 2 inside the window, got [{kmin}, {kmax}]"
        )
    bb = b.as_array()[kmin - b.start:kmax - b.start + 1]
    with np.errstate(over="ignore"):  # 2 b_k past the float range fails the test
        bad = np.flatnonzero(~(bb[1:-1] >= 2.0 * bb[:-2]))
    if len(bad):
        raise ValueError(f"doubling b_{{k+1}} >= 2 b_k violated at k={kmin + int(bad[0])}")
    return bb, c.as_array()[kmin - c.start:kmax - c.start + 1], float(alpha)


def _doubling_rows(bb: np.ndarray, cc: np.ndarray, alpha: float) -> list[list[float]]:
    """The four sums of :func:`doubling_lemma_checks`, ``[lhs_sum, lhs_sup,
    rhs_sum, rhs_sup]``, each a list over the C-contiguous rows ``bb`` and
    ``cc`` (B, m) of probes with one ``alpha``.  The powers take ``alpha`` as
    a scalar, as one probe alone does (NumPy takes a scalar 0.5 as
    ``sqrt``)."""
    tails = scan_sum(cc, right=True)
    sups = scan_max(cc, right=True)
    sides = (tails**alpha * bb, sups * bb, cc**alpha * bb, cc * bb)
    return [np.add.reduce(x, axis=-1).tolist() for x in sides]


def doubling_lemma_check(
    b: Window, c: Window, alpha: float, kmin: int, kmax: int
) -> DoublingQuantities:
    """Both sides of the doubling-sequence inequality on ``[kmin, kmax]``:
    the one-element call of :func:`doubling_lemma_checks`."""
    return doubling_lemma_checks([(b, c, alpha, kmin, kmax)])[0]
