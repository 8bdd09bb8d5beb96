"""Monotone envelopes of weight sequences and the monotone-weight reduction.

Four envelopes of a window ``u`` (all restricted to the window, never
extended by zero or infinity):

* increasing upper:  ``sup_{k <= n} u_k``
* decreasing upper:  ``sup_{k >= n} u_k``
* increasing lower:  ``inf_{k >= n} u_k``
* decreasing lower:  ``inf_{k <= n} u_k``

The reduction :func:`reduce_weight_monotone` replaces a denominator weight by
the lower envelope that leaves the supremum of ``phi(a) / sum a_n v_n``
unchanged for functionals ``phi`` monotone under head/tail rearrangement.
"""

from __future__ import annotations

from enum import Enum

from .seqcore import Window, scan_max, scan_min

__all__ = ["EnvelopeKind", "envelope", "reduce_weight_monotone"]


class EnvelopeKind(Enum):
    """(direction, bound) pairs naming the four envelopes."""

    INCREASING_UPPER = ("increasing", "upper")
    DECREASING_UPPER = ("decreasing", "upper")
    INCREASING_LOWER = ("increasing", "lower")
    DECREASING_LOWER = ("decreasing", "lower")

    @property
    def direction(self) -> str:
        return self.value[0]

    @property
    def bound(self) -> str:
        return self.value[1]


def envelope(u: Window, kind: EnvelopeKind) -> Window:
    """Monotone envelope of ``u`` over the window-restricted index set."""
    scan = scan_max if kind.bound == "upper" else scan_min
    right = (kind.direction == "increasing") != (kind.bound == "upper")
    y = scan(u.as_array(), right=right)
    return u.with_values(y)


def reduce_weight_monotone(v: Window, side: str) -> Window:
    """Lower envelope matching the monotonicity used by the reduction lemma.

    ``side="right-sum"`` is for functionals monotone under tail rearrangement
    (sums or sups over ``j >= n``); it returns the increasing lower envelope
    ``inf_{k >= n} v_k``.  ``side="left-sum"`` is the mirror case (sums over
    ``j <= n``) and returns the decreasing lower envelope ``inf_{k <= n} v_k``.
    Replacing the denominator weight by this envelope leaves the supremum of
    the ratio functional unchanged.
    """
    if side == "right-sum":
        return envelope(v, EnvelopeKind.INCREASING_LOWER)
    if side == "left-sum":
        return envelope(v, EnvelopeKind.DECREASING_LOWER)
    raise ValueError(f"side must be 'right-sum' or 'left-sum', got {side!r}")
