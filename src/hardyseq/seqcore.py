"""Core value types: finite index windows, extended nonnegative arithmetic,
and (p, q) parameter regime classification.

A :class:`Window` is a finite contiguous slice of the integer line carrying a
finite nonnegative sequence, held as one read-only float64 array that every
layer reads in place.  Finiteness and nonnegativity are checked once, at
construction, so every function that takes a window relies on them: weights
and test sequences of the weighted l^p inequalities never hold +inf.  A
window models a double-infinite sequence restricted to that slice: sums over
the test sequence ``a`` treat the outside as zero, while weight envelopes and
suprema are restricted to the window (never extended by zero, which would
spuriously trigger the ``0**(-alpha) = inf`` convention).  Intermediate
arrays may still saturate to inf; the extended arithmetic below handles them.

All scalar arithmetic on the extended nonnegative half-line follows the
conventions ``0**(-alpha) = inf``, ``inf**(-alpha) = 0`` for ``alpha > 0`` and
``0 * inf = 0``.  ``0**0`` is defined as ``1`` so that degenerate exponents in
parameter sweeps behave gracefully.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import lshift
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "INF",
    "Window",
    "Regime",
    "RegimeCase",
    "classify_regime",
    "ext_pow",
    "ext_mul",
    "ext_div",
    "ext_pow_array",
    "ext_mul_array",
    "scan_sum",
    "scan_max",
    "scan_min",
]

INF = math.inf


# ---------------------------------------------------------------------------
# Extended nonnegative arithmetic
# ---------------------------------------------------------------------------

def ext_pow(x: float, alpha: float) -> float:
    """``x**alpha`` on [0, inf] with the 0/inf power conventions.

    ``0**(-a) = inf`` and ``inf**(-a) = 0`` for ``a > 0``; ``x**0 = 1`` for
    every ``x`` including 0 and inf.
    """
    if x < 0:
        raise ValueError(f"extended power requires x >= 0, got {x}")
    if alpha == 0:
        return 1.0
    if x == 0:
        return 0.0 if alpha > 0 else INF
    if math.isinf(x):
        return INF if alpha > 0 else 0.0
    try:
        return float(x) ** alpha
    except OverflowError:
        return INF


def ext_mul(x: float, y: float) -> float:
    """Product on [0, inf] with ``0 * inf = 0``."""
    if x == 0 or y == 0:
        return 0.0
    return x * y


def ext_div(x: float, y: float) -> float:
    """Quotient on [0, inf]: ``x/0 = inf`` for x > 0, ``x/inf = 0``, ``0/0 = 0``."""
    if x == 0:
        return 0.0
    if y == 0:
        return INF
    if math.isinf(y):
        return 0.0
    return x / y


def ext_pow_array(x: np.ndarray, alpha: float) -> np.ndarray:
    """Elementwise :func:`ext_pow` for a nonnegative array and scalar exponent.

    One IEEE power: ``pow`` already gives ``0**(+a) = 0``, ``0**(-a) =
    inf``, ``inf**(+a) = inf``, ``inf**(-a) = 0`` and ``x**0 = 1``.  Adding
    ``0.0`` first turns ``-0.0`` into ``+0.0`` (an odd integer power keeps
    the sign of zero) and gives the power a fresh contiguous array.  An
    overflowing power saturates to inf, without a warning.
    """
    with np.errstate(divide="ignore", over="ignore"):
        return (np.asarray(x, dtype=float) + 0.0) ** alpha


def ext_mul_array(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise product on [0, inf] with ``0 * inf = 0`` (broadcasts).

    Every product with a zero factor is ``+0.0``, also for a ``-0.0`` factor.
    A product past the float range saturates to inf, without a warning.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        return _ext_mul(x, y)


def _ext_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """:func:`ext_mul_array` for a caller that already ignores invalid
    operations (``0 * inf``), as the oracle's power loop does."""
    out = np.multiply(x, y, dtype=float)
    np.fmax(out, 0.0, out=out)  # 0 * inf (NaN) -> 0.0
    out += 0.0  # -0.0 -> +0.0
    return out


# ---------------------------------------------------------------------------
# Running scans along the last axis: prefix (k <= i) or, with ``right``,
# suffix (k >= i)
# ---------------------------------------------------------------------------

def _scan(ufunc: np.ufunc, x: np.ndarray, right: bool) -> np.ndarray:
    """``ufunc.accumulate`` along the last axis into a fresh C-contiguous
    array (for an ``x`` in C order or a slice of one).  A prefix scan is
    the plain ``accumulate``.  A suffix scan, with ``right``, accumulates
    ``x[..., ::-1]`` into a reversed view of an output of ``x``'s dtype, so
    no copy follows, and every entry has the bits of
    ``ufunc.accumulate(x[..., ::-1], axis=-1)[..., ::-1]``."""
    if not right:
        return ufunc.accumulate(x, axis=-1)
    out = np.empty(x.shape, x.dtype)
    ufunc.accumulate(x[..., ::-1], axis=-1, out=out[..., ::-1])
    return out


def scan_sum(x: np.ndarray, right: bool = False) -> np.ndarray:
    return _scan(np.add, x, right)


def scan_max(x: np.ndarray, right: bool = False) -> np.ndarray:
    return _scan(np.maximum, x, right)


def scan_min(x: np.ndarray, right: bool = False) -> np.ndarray:
    return _scan(np.minimum, x, right)


# ---------------------------------------------------------------------------
# Floats as exact integers on one power-of-two scale
# ---------------------------------------------------------------------------

def _scaled(values: np.ndarray) -> tuple[list[int], int]:
    """Nonempty finite nonnegative floats as ints on one power-of-two scale,
    exactly: ``values[i] = ints[i] / 2**shift`` with the least shift >= 0.

    Every step is exact in NumPy.  ``frexp`` splits each value into ``mant *
    2**ex`` (subnormals included), so ``m = mant * 2**53`` is its integer
    significand, 0 or in [2**52, 2**53).  ``v = m - 2**53`` is exact in
    float64 and int64, and the int64 ``v & -v`` is the lowest set bit
    ``low = 2**j`` of ``m`` (``v`` and ``m`` agree mod 2**53), or 2**53 for
    a zero (-0.0 too), so a zero needs no mask.  The int64 floor division
    ``(v + 2**53) // low`` is the odd int ``m / low`` below 2**53 (0 for a
    zero).  ``low`` converts to float64 exactly, so ``frexp`` of it gives
    ``j + 1``, and ``k = j + 1 + ex`` (int32) places the value's own lowest
    set bit at ``2**(k - 54)``; a zero has ``k = 54``, a lowest bit of 1.
    The least shift is ``54 - min(k)``, at least 0, and each value is its
    odd int shifted left by ``k + shift - 54 >= 0``, as Python ints in one
    ``map``.
    """
    mant, ex = np.frexp(values)
    v = (np.ldexp(mant, 53) - 2.0**53).astype(np.int64)
    low = v & -v
    odd = (v + (1 << 53)) // low
    k = np.frexp(low.astype(np.float64))[1] + ex
    s = max(54 - int(k.min()), 0)
    return list(map(lshift, odd.tolist(), (k + (s - 54)).tolist())), s


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Window:
    """A finite nonnegative sequence on a contiguous integer index range.

    ``values[k]`` is the entry at index ``start + k``.  ``values`` is a
    read-only float64 array, copied from the input and validated once at
    construction: every entry is finite and nonnegative (no NaN, no inf),
    and no other function checks that again.  :meth:`as_array` returns it
    without a copy.  Equality is index-aware: two windows are equal iff both
    start and values agree.
    """

    start: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or len(vals) < 1:
            raise ValueError("window values must be a nonempty 1-D sequence")
        lo, hi = vals.min(), vals.max()
        if not lo >= 0:  # also rejects NaN
            raise ValueError(f"window entries must be nonnegative, got {lo}")
        if not hi < INF:
            raise ValueError(f"window entries must be finite, got {hi}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "start", int(self.start))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Window):
            return NotImplemented
        return self.start == other.start and np.array_equal(self.values, other.values)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def stop(self) -> int:
        """One past the last valid index."""
        return self.start + len(self.values)

    @property
    def last(self) -> int:
        return self.start + len(self.values) - 1

    def __contains__(self, n: int) -> bool:
        return self.start <= n < self.stop

    def as_array(self) -> np.ndarray:
        return self.values

    def reversed(self) -> "Window":
        """Index reversal ``x_bar[n] = x[-n]`` (used by the dual inequalities)."""
        return Window(-self.last, self.values[::-1])

    def with_values(self, values: Sequence[float]) -> "Window":
        if len(values) != len(self.values):
            raise ValueError("replacement values must match window length")
        return Window(self.start, values)

    def scaled(self, t: float) -> "Window":
        return Window(self.start, t * self.values)

    # -- JSON wire format: {"start": int, "values": [finite numbers >= 0]} ---

    def to_json(self) -> dict:
        return {"start": self.start, "values": self.values.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "Window":
        """The window of ``{"start": int, "values": [number, ...]}``; a
        boolean, string or other non-number entry raises ``ValueError``,
        and so do non-list values and a ``start`` that :func:`_wire_int`
        rejects."""
        if not isinstance(obj, dict) or "start" not in obj or "values" not in obj:
            raise ValueError('window JSON must be {"start": int, "values": [...]}')
        for v in _wire_list(obj["values"], "window values"):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"unrecognized window entry {v!r}")
        return cls(_wire_int(obj["start"], "window start"), [float(v) for v in obj["values"]])


def _wire_list(x: object, name: str) -> list:
    """A list field of the JSON wire format; anything else raises
    ``ValueError`` naming the field."""
    if not isinstance(x, list):
        raise ValueError(f"{name} must be a list, got {x!r}")
    return x


def _wire_int(x: object, name: str) -> int:
    """An integer field of the JSON wire format: an int, or a float with an
    integral value; a boolean, a string or a non-integral number raises
    ``ValueError`` naming the field, where ``int`` would truncate it."""
    if (
        isinstance(x, bool)
        or not isinstance(x, (int, float))
        or (isinstance(x, float) and not x.is_integer())
    ):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return int(x)


def _wire_float(x: object, name: str) -> float:
    """A float field of the JSON wire format: an int or a float; a boolean,
    a string or any other value raises ``ValueError`` naming the field,
    where ``float`` would read ``true`` as 1.0 and ``"0.5"`` as 0.5."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{name} must be a number, got {x!r}")
    return float(x)


def common_window(*windows: Window) -> None:
    """Validate that all windows share start and length."""
    first = windows[0]
    for w in windows[1:]:
        if w.start != first.start or len(w) != len(first):
            raise ValueError(
                "windows must share the same index range: "
                f"[{first.start}, {first.last}] vs [{w.start}, {w.last}]"
            )


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


# ---------------------------------------------------------------------------
# Parameter regimes
# ---------------------------------------------------------------------------

class RegimeCase(str, Enum):
    """The four (p, q) cases of the optimal-constant estimates.

    I:   1 < p <= q
    II:  p > 1 and q < p
    III: p <= 1 and p <= q
    IV:  q < p <= 1

    The four preimages tile (0, inf)^2; the diagonal p = q belongs to I for
    p > 1 and to III for p <= 1.
    """

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


@dataclass(frozen=True)
class Regime:
    p: float
    q: float
    case_id: RegimeCase

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q, "case": self.case_id.value}


def classify_regime(p: float, q: float) -> Regime:
    """Classify positive exponents (p, q) into the unique case I-IV."""
    p = float(p)
    q = float(q)
    if not (p > 0 and q > 0) or math.isnan(p) or math.isnan(q):
        raise ValueError(f"exponents must be positive, got p={p}, q={q}")
    if p > 1:
        case = RegimeCase.I if p <= q else RegimeCase.II
    else:
        case = RegimeCase.III if p <= q else RegimeCase.IV
    return Regime(p, q, case)
