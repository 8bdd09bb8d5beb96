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
one index.  The verifier checks exactly the properties guaranteed by the
construction (first step, attainment, minimality, interior bound where a
finite next block exists, tail doubling for interior k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .seqcore import INF, Window, common_window, scan_max, scan_sum

__all__ = [
    "BlockPartition",
    "PartitionReport",
    "block_partition",
    "verify_partition_invariants",
    "doubling_lemma_check",
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


def _doubling_test(w: Window, prev: int, j: int) -> bool:
    """Tail at j at least twice the block mass since ``prev``; zero tails fail."""
    arr = w.as_array()
    tail = float(arr[max(j, w.start) - w.start:].sum()) if j < w.stop else 0.0
    lo = max(prev, w.start)
    hi = min(j, w.stop)
    block = float(arr[lo - w.start:hi - w.start].sum()) if lo < hi else 0.0
    return tail > 0 and tail >= 2.0 * block


def block_partition(w: Window, n0: int) -> BlockPartition:
    """Construct the block partition of ``w`` starting at ``n0``."""
    if n0 not in w:
        raise IndexError(f"n0={n0} outside window [{w.start}, {w.last}]")
    w.require_finite("w")
    ns: list[float] = [n0]
    # Each step's passing set is an initial segment (see the module
    # docstring), so n_{k-1} + 1 is the only candidate for n_k.  With n_0 at
    # the window's last index there is no room for the first step n_0 + 1.
    n = n0 + 1
    if n < w.stop:
        ns.append(n)
        while n + 1 < w.stop and _doubling_test(w, n, n + 1):
            n += 1
            ns.append(n)
    ns.append(INF)
    return BlockPartition(n0, tuple(ns), _kset(ns))


def _kset(ns: list[float]) -> frozenset[int]:
    K = len(ns) - 1
    return frozenset(k for k in range(1, K) if ns[k] < ns[k + 1] - 1)


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
    """
    report = PartitionReport()
    ns = list(bp.ns)
    K = bp.K
    report.vacuous = K < 3
    arr = w.as_array()

    ok_first = (ns[0] == bp.n0) and (
        (len(ns) >= 2 and ns[1] == bp.n0 + 1)
        or (len(ns) == 2 and math.isinf(ns[1]) and bp.n0 + 1 >= w.stop)
    )
    report.record("first_step", 1, ok_first)

    for k in range(2, len(ns)):
        nk = ns[k]
        prev = int(ns[k - 1])
        if math.isfinite(nk):
            report.record("attainment", k, _doubling_test(w, prev, int(nk)))
            jmax = int(nk)
        else:
            jmax = w.stop
        ok_min = all(not _doubling_test(w, prev, j) for j in range(prev + 1, jmax))
        report.record("minimality", k, ok_min)

    report.record("kset", 0, bp.kset == _kset(ns))

    def block_mass(lo: int, hi: int) -> float:
        # mass of w on [lo, hi] intersected with the window
        lo = max(lo, w.start)
        hi = min(hi, w.last)
        if lo > hi:
            return 0.0
        return float(arr[lo - w.start:hi - w.start + 1].sum())

    for k in sorted(bp.kset):
        if k + 1 <= K and math.isfinite(ns[k + 1]):
            interior = block_mass(int(ns[k]), int(ns[k + 1]) - 2)
            prev_mass = block_mass(int(ns[k - 1]), int(ns[k]) - 1)
            report.record("interior_bound", k, interior < 2.0 * prev_mass)

    for k in range(2, K - 1):
        tail = block_mass(int(ns[k]), w.last)
        prev_mass = block_mass(int(ns[k - 1]), int(ns[k]) - 1)
        report.record("tail_doubling", k, tail >= 2.0 * prev_mass)

    for name in ("attainment", "minimality", "interior_bound", "tail_doubling"):
        report.checks.setdefault(name, True)
    return report


@dataclass(frozen=True)
class DoublingQuantities:
    lhs_sum: float
    lhs_sup: float
    rhs_sum: float
    rhs_sup: float


def doubling_lemma_check(
    b: Window, c: Window, alpha: float, kmin: int, kmax: int
) -> DoublingQuantities:
    """Evaluate both sides of the doubling-sequence inequality.

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
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    common_window(b, c)
    b.require_finite("b")
    c.require_finite("c")
    if not (b.start <= kmin and kmax <= b.last and kmin <= kmax - 2):
        raise ValueError(
            f"need kmin <= kmax - 2 inside the window, got [{kmin}, {kmax}]"
        )
    bb = b.as_array()[kmin - b.start:kmax - b.start + 1]
    cc = c.as_array()[kmin - c.start:kmax - c.start + 1]
    for i in range(len(bb) - 2):
        if not bb[i + 1] >= 2.0 * bb[i]:
            raise ValueError(
                f"doubling b_{{k+1}} >= 2 b_k violated at k={kmin + i}"
            )
    tails = scan_sum(cc, right=True)
    sups = scan_max(cc, right=True)
    return DoublingQuantities(
        lhs_sum=float(np.sum(tails**alpha * bb)),
        lhs_sup=float(np.sum(sups * bb)),
        rhs_sum=float(np.sum(cc**alpha * bb)),
        rhs_sup=float(np.sum(cc * bb)),
    )

