"""Exact step-function calculus: the discrete to continuous bridge.

A window embeds as a piecewise-constant function on unit integer cells
(``f = sum a_n 1_[n, n+1)``), its cumulatives are exact piecewise-linear
functions, and weighted tail suprema of those cumulatives are computed as
finitely many interval endpoint evaluations.  Everything runs in rational
arithmetic, so the headline identity (the discrete left-hand side of the
principal inequality equals its continuous counterpart for step data) is
checked bit exactly when the outer exponent is a positive integer.

For the principal (gop) form the continuous integrand ``t -> sup_{s>=t}
u(s) * int_{-inf}^s f`` is constant on every cell, which collapses the
continuous integral to the discrete sum exactly.  For the reflected
(antigop) form the inner cumulative decreases, the integrand genuinely
depends on ``t`` inside the first cell, and only ``continuous <= discrete``
holds (e.g. on a one-cell window with unit data the continuous side is
``(q+1)^(-1/q)``).  The least constants agree only at ``p = 1``, where
refining step data to cells of width ``1/m`` keeps either form's constant.
At ``p > 1`` the reflected form's continuous constant can be smaller: 2/pi
against 1 on one unit cell at ``p = q = 2`` (E. Schmidt, Math. Ann. 117,
1940); at ``p < 1`` refining multiplies it by ``m^(1/p - 1)``, so it is
infinite for both forms.
The checker computes the reflected cell integrals in closed form, splitting
each cell at the crossing of the moving and frozen suprema.

``StepFunction``, ``PiecewiseLinear``, ``cumulative`` and
``sup_weighted_tail`` work in ``Fraction`` arithmetic, one operation at a
time.  ``bridge_check`` computes the same values without per-operation
``Fraction`` objects.  Every float is ``m * 2**e``, so the four windows
convert together, in one NumPy pass (``_scaled``), to Python ints on one
power-of-two scale (``x_n = m_n / 2**s``).  Sums, products, maxima and
integer powers of such numbers are ints on a scale that is tracked
alongside them.  So the cumulatives, the iterated entries, the tail
suprema, the moving/frozen comparisons and the power sums are int
arithmetic, and each returned power becomes one ``Fraction`` at the end;
every such value is an exact rational, so the shared scale moves none of
them.  The per-cell lists call no builtin per cell: products are ``map``
over ``operator.mul``, cumulatives ``accumulate`` with its default sum,
and the suffix maxima of the discrete entries and of the tail suprema one
backward comparison loop each, since builtin ``max`` as the function of
``map`` or ``accumulate`` costs about 125 ns a call (most of it argument
parsing) against about 35 ns for a comparison.  A power sum at exponent 1
calls no ``pow``: every right side at p = 1 (the case the paper reduces to,
and the only one the bridge suite checks) and every left side at q = 1.
The only non-dyadic values are the reflected cells whose crossing ``tau``
lies strictly inside (0, 1); their sum is carried as one unreduced
fraction.  For a non-integer exponent the exact values are rounded to float
once each (int true division is correctly rounded, as ``float(Fraction)``
is), then raised to the power in floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul

import numpy as np

from .seqcore import Window, _scaled, common_window

__all__ = [
    "StepFunction",
    "PiecewiseLinear",
    "BridgeCheckResult",
    "embed_sequence",
    "cumulative",
    "sup_weighted_tail",
    "bridge_check",
]

Rat = Fraction


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"step data must be finite, got {x}")
        return Fraction(x)  # exact binary value
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


@dataclass(frozen=True)
class StepFunction:
    """Nonnegative piecewise-constant function on unit integer cells.

    ``values[k]`` is the value on ``[start + k, start + k + 1)``; the
    function vanishes outside the window.
    """

    start: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        vals = tuple(_to_fraction(v) for v in self.values)
        if any(v < 0 for v in vals):
            raise ValueError("step function values must be nonnegative")
        object.__setattr__(self, "values", vals)

    @property
    def stop(self) -> int:
        return self.start + len(self.values)

    def __call__(self, s: Fraction) -> Fraction:
        s = _to_fraction(s)
        n = math.floor(s)
        if self.start <= n < self.stop:
            return self.values[n - self.start]
        return Rat(0)

    def total(self) -> Fraction:
        return sum(self.values, Rat(0))


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function, affine on each unit cell.

    Stored as its values at the integer knots ``start .. start + N``;
    constant outside (equal to the boundary knot values).
    """

    start: int
    knots: tuple[Fraction, ...]  # length N + 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "knots", tuple(_to_fraction(v) for v in self.knots))
        if len(self.knots) < 2:
            raise ValueError("need at least two knots")

    @property
    def stop(self) -> int:
        return self.start + len(self.knots) - 1

    def __call__(self, s) -> Fraction:
        s = _to_fraction(s)
        if s <= self.start:
            return self.knots[0]
        if s >= self.stop:
            return self.knots[-1]
        n = math.floor(s)
        lam = s - n
        k = n - self.start
        return self.knots[k] * (1 - lam) + self.knots[k + 1] * lam

    @property
    def nondecreasing(self) -> bool:
        return all(a <= b for a, b in zip(self.knots, self.knots[1:]))

    @property
    def nonincreasing(self) -> bool:
        return all(a >= b for a, b in zip(self.knots, self.knots[1:]))


def embed_sequence(a: Window) -> StepFunction:
    """Step function equal to ``a_n`` on ``[n, n+1)`` and zero elsewhere."""
    return StepFunction(a.start, a.values.tolist())


def cumulative(f: StepFunction, direction: str) -> PiecewiseLinear:
    """Exact antiderivative: running integral from the left or from the right."""
    n = len(f.values)
    knots = [Rat(0)] * (n + 1)
    if direction == "from-left":
        acc = Rat(0)
        for k in range(n):
            knots[k] = acc
            acc += f.values[k]
        knots[n] = acc
    elif direction == "from-right":
        acc = Rat(0)
        for k in range(n - 1, -1, -1):
            knots[k + 1] = acc
            acc += f.values[k]
        knots[0] = acc
    else:
        raise ValueError(f"direction must be 'from-left' or 'from-right', got {direction!r}")
    return PiecewiseLinear(f.start, tuple(knots))


def sup_weighted_tail(u: StepFunction, F: PiecewiseLinear, t) -> Fraction:
    """``sup_{s >= t} u(s) * F(s)``, exact.

    On each cell ``u`` is constant and ``F`` affine, so the cell supremum sits
    at an endpoint (a right limit when ``F`` increases there, the left end
    otherwise); the global supremum is a maximum over the finitely many cells
    where ``u`` lives.  Requires ``F`` monotone.
    """
    if not (F.nondecreasing or F.nonincreasing):
        raise ValueError("sup_weighted_tail requires a monotone cumulative")
    t = _to_fraction(t)
    best = Rat(0)  # u vanishes outside its window
    for k, uval in enumerate(u.values):
        n = u.start + k
        if uval == 0 or t >= n + 1:
            continue
        lo = max(_to_fraction(n), t)
        cell_sup = F(n + 1) if F(n + 1) >= F(lo) else F(lo)
        cand = uval * cell_sup
        if cand > best:
            best = cand
    return best


# ---------------------------------------------------------------------------
# Full bridge comparison
# ---------------------------------------------------------------------------

# The largest integer exponent k that bridge_check takes exactly: _root
# scales an exact power by 2**(-k*j) into [2**(-k/2 - 1), 2**(k/2 + 1)],
# which is in the float range for k up to about 2,040.  A larger k would also
# start integer powers of unbounded size (q = 1e300 never finishes).
_MAX_EXACT_EXPONENT = 2000


def _bridge_arguments(p: float, q: float, form: str) -> None:
    """Raise ``ValueError`` for exponents or a form that ``bridge_check``
    does not take: exponents must be positive and finite, an integer one at
    most ``_MAX_EXACT_EXPONENT``, and the form gop or antigop."""
    if not (0 < p < math.inf and 0 < q < math.inf):
        raise ValueError(f"exponents must be positive and finite, got p={p}, q={q}")
    if any(float(x).is_integer() and x > _MAX_EXACT_EXPONENT for x in (p, q)):
        raise ValueError(
            f"integer exponents above {_MAX_EXACT_EXPONENT} are not supported "
            f"(exact powers), got p={p}, q={q}"
        )
    if form not in ("gop", "antigop"):
        raise ValueError(f"form must be 'gop' or 'antigop', got {form!r}")


def _running_max_from_right(xs: list[int]) -> list[int]:
    """``out[k] = max(xs[k:])`` for a list of nonnegative ints, in one
    backward comparison loop."""
    out = []
    best = 0
    for x in reversed(xs):
        if x > best:
            best = x
        out.append(best)
    out.reverse()
    return out


def _root(x: Fraction | float, q: float) -> float:
    """``x ** (1/q)``: ``float(x) ** (1/q)`` for a float ``x`` or zero.  For
    an exact power (then ``q = k`` is an integer) the root of ``x *
    2**(-k*j)``, a float near 1, times ``2**j``, with ``j`` the integer
    nearest to ``log2(x) / k`` (which covers ``k`` up to about 2,000), so
    the rounding of ``1/k`` costs at most about 1 ulp at any size of ``x``;
    ``j = 0`` at ``k = 1``, so ``x`` is rounded once (int true division is
    correctly rounded, subnormals included).  A root beyond the float range
    is inf, as in float arithmetic."""
    if not isinstance(x, Fraction) or x == 0:
        return float(x) ** (1.0 / q)
    k = int(q)
    n, d = x.numerator, x.denominator
    j = (n.bit_length() - d.bit_length() + k // 2) // k if k > 1 else 0
    shift = k * j
    try:
        y = n / (d << shift) if shift >= 0 else (n << -shift) / d
        return math.ldexp(y ** (1.0 / k), j)
    except OverflowError:
        return math.inf


def _tail_sups(U: list[int], knots: list[int]) -> list[int]:
    """``sup_weighted_tail(u, F, start + k)`` for every ``k = 0 .. N`` in
    one pass from the right, ``F`` a monotone cumulative with ``knots``:
    ``tails[k] = max(U[k] * max(knots[k], knots[k+1]), tails[k+1])``,
    ``tails[N] = 0``.  The cell takes the larger knot whichever way ``F``
    runs, not ``knots[k+1]`` of the increasing gop ``F``, so the
    continuous side stays its own computation and ``lhs_equal`` checks
    something."""
    return _running_max_from_right(
        [u * (hi if hi > lo else lo) for u, lo, hi in zip(U, knots, knots[1:])] + [0]
    )


def _power_sum(W: list[int], sw: int, xs: list[int], t: int, q: float) -> Fraction | float:
    """``sum_i w_i * x_i**q`` for ``w_i = W_i / 2**sw`` and ``x_i = xs_i / 2**t``:
    one ``Fraction`` for an integer ``q`` (no ``pow`` at ``q = 1``), float
    arithmetic on the rounded ``x_i`` otherwise."""
    if float(q).is_integer():
        k = int(q)
        powers = xs if k == 1 else map(pow, xs, repeat(k))
        return Fraction(sum(map(mul, W, powers)), 1 << (sw + k * t))
    dw, d = 1 << sw, 1 << t
    return sum((wi / dw * (x / d) ** q for wi, x in zip(W, xs)), 0.0)


def _antigop_cells(U, A, knots, tails, W, sw: int, t: int, q: float) -> Fraction | float:
    """The continuous reflected left side to the power ``q``.  On cell ``k``
    the moving supremum falls from ``m0 = U_k F_k`` with slope ``U_k A_k``
    and meets the frozen one, ``f = tails[k+1]``, at ``tau = (m0 - f) /
    slope``; the frozen one holds after that."""
    cells = zip(W, map(mul, U, knots), map(mul, U, A), tails[1:])
    if float(q).is_integer():
        k = int(q)
        acc, rn, rd = 0, 0, 1  # (k+1) * sum of w * cell = acc + rn / rd
        for wk, m0, slope, f in cells:
            if m0 <= f:
                acc += (k + 1) * wk * f**k
            elif slope == 0:
                acc += (k + 1) * wk * m0**k
            elif m0 - f >= slope:  # tau = 1: the difference of powers is a multiple of slope
                acc += wk * ((m0 ** (k + 1) - (m0 - slope) ** (k + 1)) // slope)
            else:  # the only non-dyadic cells: their sum is one unreduced fraction
                num = m0 ** (k + 1) - f ** (k + 1) + (k + 1) * f**k * (slope - m0 + f)
                rn, rd = rn * slope + wk * num * rd, rd * slope
        return Fraction(acc * rd + rn, rd * (k + 1) << (sw + k * t))
    dw, d = 1 << sw, 1 << t
    out = []
    for wk, m0, slope, f in cells:
        cell = (f / d) ** q
        if m0 > f:
            tau, rest = 1.0, 0.0
            if slope != 0 and m0 - f < slope:
                tau, rest = (m0 - f) / slope, (slope - m0 + f) / slope
            a0, b = m0 / d, slope / d
            if b == 0:
                head = a0**q * tau
            else:
                head = (a0 ** (q + 1) - (a0 - b * tau) ** (q + 1)) / (b * (q + 1))
            cell = head + cell * rest
        out.append(wk / dw * cell)
    return sum(out, 0.0)


@dataclass(frozen=True)
class BridgeCheckResult:
    form: str
    discrete_lhs: float
    continuous_lhs: float
    discrete_rhs: float
    continuous_rhs: float
    #: q-th powers of the two left sides (Fractions when exact_lhs)
    discrete_lhs_pow: Fraction | float
    continuous_lhs_pow: Fraction | float
    #: p-th powers of the two right sides (Fractions when exact_rhs)
    discrete_rhs_pow: Fraction | float
    continuous_rhs_pow: Fraction | float
    exact_lhs: bool
    exact_rhs: bool

    @property
    def lhs_equal(self) -> bool:
        return self.discrete_lhs_pow == self.continuous_lhs_pow

    @property
    def rhs_equal(self) -> bool:
        return self.discrete_rhs_pow == self.continuous_rhs_pow

    def to_json(self) -> dict:
        return {
            "form": self.form,
            "discrete_lhs": self.discrete_lhs,
            "continuous_lhs": self.continuous_lhs,
            "discrete_rhs": self.discrete_rhs,
            "continuous_rhs": self.continuous_rhs,
            "exact_lhs": self.exact_lhs,
            "exact_rhs": self.exact_rhs,
            "lhs_equal": self.lhs_equal,
            "rhs_equal": self.rhs_equal,
        }


def bridge_check(
    u: Window,
    v: Window,
    w: Window,
    a: Window,
    p: float,
    q: float,
    form: str = "gop",
) -> BridgeCheckResult:
    """Compare both sides of the discrete and continuous inequalities.

    The sequence ``a`` is embedded as a unit-cell step function; weights
    embed likewise.  Returns all four quantities.  For ``form="gop"`` the two
    left sides agree exactly; for ``form="antigop"`` the continuous one is at
    most the discrete one.  For embedded data the two right sides are one
    sum, computed once and reported in both right-side fields.

    Each side picks its arithmetic once from its exponent: exact rational
    (``Fraction``) values when the exponent is a positive integer, float
    otherwise, where the exact cell data are rounded to float before they are
    raised to the power.  ``exact_lhs`` (from ``q``) and ``exact_rhs`` (from
    ``p``) report which was used.  The exponents must be positive and
    finite, and an integer exponent at most 2,000 (``_MAX_EXACT_EXPONENT``).
    """
    common_window(u, v, w, a)
    _bridge_arguments(p, q, form)

    ints, s = _scaled(np.concatenate([x.values for x in (u, v, w, a)]))
    n = len(a)
    U, V, W, A = (ints[k * n:(k + 1) * n] for k in range(4))
    t = 2 * s  # the scale of every product of u with a cumulative of a

    # The knots of the inner cumulative F give the discrete inner sums:
    # sum_{k <= i} a_k = F(i + 1) for gop, sum_{k >= i} a_k = F(i) for antigop.
    gop = form == "gop"
    knots = list(accumulate(A if gop else reversed(A), initial=0))
    knots = knots if gop else knots[::-1]
    inner = knots[1:] if gop else knots[:-1]
    entries = _running_max_from_right(list(map(mul, U, inner)))
    discrete_lhs_pow = _power_sum(W, s, entries, t, q)

    tails = _tail_sups(U, knots)
    if gop:
        continuous_lhs_pow = _power_sum(W, s, tails[:-1], t, q)
    else:
        continuous_lhs_pow = _antigop_cells(U, A, knots, tails, W, s, t, q)

    # Right sides: for cell-constant data the integral of f^p v over a cell
    # is a_n^p v_n, so both are this one sum.
    rhs_pow = _power_sum(V, s, A, s, p)
    rhs_root = _root(rhs_pow, p)

    return BridgeCheckResult(
        form=form,
        discrete_lhs=_root(discrete_lhs_pow, q),
        continuous_lhs=_root(continuous_lhs_pow, q),
        discrete_rhs=rhs_root,
        continuous_rhs=rhs_root,
        discrete_lhs_pow=discrete_lhs_pow,
        continuous_lhs_pow=continuous_lhs_pow,
        discrete_rhs_pow=rhs_pow,
        continuous_rhs_pow=rhs_pow,
        exact_lhs=isinstance(discrete_lhs_pow, Fraction),
        exact_rhs=isinstance(rhs_pow, Fraction),
    )
