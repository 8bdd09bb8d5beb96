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
holds (the inequalities are still equivalent, with the same least constant,
by a spike-shrinking limit; the pointwise identity fails, e.g. on a
one-cell window with unit data the continuous side is ``(q+1)^(-1/q)``).
The checker computes the reflected cell integrals in closed form, splitting
each cell at the crossing of the moving and frozen suprema.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from .seqcore import Window, common_window

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


def _tail_sups(U: list[Fraction], F: PiecewiseLinear) -> list[Fraction]:
    """``sup_weighted_tail(u, F, start + k)`` for every ``k = 0 .. N``, exact.

    One pass from the right over the cells of the step weight ``U``:
    ``tails[k] = max(U[k] * max(F.knots[k], F.knots[k+1]), tails[k+1])``
    with ``tails[N] = 0``.  Requires ``F`` monotone, like the per-point
    reference.
    """
    if not (F.nondecreasing or F.nonincreasing):
        raise ValueError("the tail suprema require a monotone cumulative")
    tails = [Rat(0)] * (len(U) + 1)
    for k in range(len(U) - 1, -1, -1):
        tails[k] = max(U[k] * max(F.knots[k], F.knots[k + 1]), tails[k + 1])
    return tails


# ---------------------------------------------------------------------------
# Full bridge comparison
# ---------------------------------------------------------------------------

def _number_type(x: float) -> tuple[type, int | float]:
    """Arithmetic for the exponent ``x``: ``Fraction`` with ``int(x)`` when
    ``x`` is a positive integer, float with ``x`` itself otherwise."""
    if float(x).is_integer() and x >= 1:
        return Fraction, int(x)
    return float, x


def _power_sum(weights, xs, num: type, e) -> Fraction | float:
    """``sum_i weights_i * xs_i**e`` in the number type ``num``."""
    return sum((num(c) * num(x) ** e for c, x in zip(weights, xs)), num(0))


def _integral_power_affine(
    A: Fraction, B: Fraction, T: Fraction, num: type, q
) -> Fraction | float:
    """``int_0^T (A - B*tau)^q dtau`` for ``A, A - B*T >= 0`` and ``T > 0``.

    The endpoints are first converted to ``num`` (exact for ``Fraction``,
    rounded to float otherwise), then one closed form applies.
    """
    A, B, T = num(A), num(B), num(T)
    if B == 0:
        return A**q * T
    return (A ** (q + 1) - (A - B * T) ** (q + 1)) / (B * (q + 1))


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

    Each side picks its number type once from its exponent: rational
    (``Fraction``) arithmetic when the exponent is a positive integer, float
    otherwise, where the exact cell data are rounded to float before they are
    raised to the power.  ``exact_lhs`` (from ``q``) and ``exact_rhs`` (from
    ``p``) report which was used.
    """
    common_window(u, v, w, a)
    if not (p > 0 and q > 0):
        raise ValueError(f"exponents must be positive, got p={p}, q={q}")
    if form not in ("gop", "antigop"):
        raise ValueError(f"form must be 'gop' or 'antigop', got {form!r}")

    U = [_to_fraction(x) for x in u.values.tolist()]
    V = [_to_fraction(x) for x in v.values.tolist()]
    W = [_to_fraction(x) for x in w.values.tolist()]
    A = [_to_fraction(x) for x in a.values.tolist()]
    n_len = len(A)
    num, e = _number_type(q)

    # The inner cumulative at the knots gives the discrete inner sums:
    # sum_{k <= i} a_k = F(i + 1) for gop, sum_{k >= i} a_k = F(i) for antigop.
    F = cumulative(embed_sequence(a), "from-left" if form == "gop" else "from-right")
    inner = F.knots[1:] if form == "gop" else F.knots[:-1]
    entries = [Rat(0)] * n_len
    best = Rat(0)
    for i in range(n_len - 1, -1, -1):
        cand = U[i] * inner[i]
        if cand > best:
            best = cand
        entries[i] = best
    discrete_lhs_pow = _power_sum(W, entries, num, e)

    tails = _tail_sups(U, F)
    if form == "gop":
        continuous_lhs_pow = _power_sum(W, tails[:-1], num, e)
    else:
        cell_integrals = []
        for k in range(n_len):
            frozen = tails[k + 1]
            moving0 = U[k] * inner[k]
            if moving0 <= frozen:
                # frozen supremum dominates throughout the cell
                cell = num(frozen) ** e
            else:
                slope = U[k] * A[k]
                tau = Rat(1) if slope == 0 else min(Rat(1), (moving0 - frozen) / slope)
                head = _integral_power_affine(moving0, slope, tau, num, e)
                cell = head + num(frozen) ** e * num(1 - tau)
            cell_integrals.append(cell)
        # each cell integral is already a q-th power
        continuous_lhs_pow = _power_sum(W, cell_integrals, num, 1)

    # Right sides: for cell-constant data the integral of f^p v over a cell
    # is a_n^p v_n, so both are this one sum.
    rhs_num, rhs_e = _number_type(p)
    rhs_pow = _power_sum(V, A, rhs_num, rhs_e)
    rhs_root = float(rhs_pow) ** (1.0 / p)

    return BridgeCheckResult(
        form=form,
        discrete_lhs=float(discrete_lhs_pow) ** (1.0 / q),
        continuous_lhs=float(continuous_lhs_pow) ** (1.0 / q),
        discrete_rhs=rhs_root,
        continuous_rhs=rhs_root,
        discrete_lhs_pow=discrete_lhs_pow,
        continuous_lhs_pow=continuous_lhs_pow,
        discrete_rhs_pow=rhs_pow,
        continuous_rhs_pow=rhs_pow,
        exact_lhs=num is Fraction,
        exact_rhs=rhs_num is Fraction,
    )
