"""Closed-form estimates of the least constant in the weighted inequalities.

Four-regime estimators for the two iterated forms, transcribed verbatim from
their published statements, plus the exact sup-norm formula for the
q = infinity sup-inner problem.  The estimates are equivalents (two-sided up
to constants depending only on p and q), not exact values, except for
:func:`char_linft_exact` which is an identity.  Every regime term has one of
two shapes, the sup term ``max_n x_n^(1/q) y_n`` or the summed term
``sum_n x_n^r y_n m_n``, built by ``_sup_term`` and ``_sum_term``.

The terms run on (B, n) weight rows along the last axis, outer powers and G
per row, so a row has its bits alone: ``oracle.equivalence_ratios`` calls
``_gop_rows``/``_antigop_rows`` once per group, and :func:`char_gop` and
:func:`char_antigop` are one-row calls on views.

Two printed sub-expressions of the reflected (antigop) estimator are
suspicious (a weight-sum direction and two exponents; they break the scaling
laws a least constant must satisfy).  They are transcribed as printed, and a
``variant="flipped"`` switch computes the corrected candidates so that the
brute-force oracle can report empirically which variant tracks the true
constant.  No silent patching is done.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seqcore import (
    Regime,
    RegimeCase,
    Window,
    classify_regime,
    common_window,
    ext_mul_array,
    ext_pow,
    ext_pow_array,
    scan_max,
    scan_sum,
)

__all__ = [
    "CharacterizationResult",
    "char_gop",
    "char_antigop",
    "char_linft_exact",
]


@dataclass(frozen=True)
class CharacterizationResult:
    value: float
    regime: Regime
    terms: dict[str, float]
    formula_id: str
    variant: str = "printed"

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "regime": self.regime.to_json(),
            "terms": dict(self.terms),
            "formula_id": self.formula_id,
            "variant": self.variant,
        }


# Windows of at least this many entries take the lifting kernel.  Below it
# the stack's loop costs less than the kernel's NumPy calls: the two cross
# between 640 and 768 entries on random uq and near 1,500 on decreasing uq
# (2-vCPU Xeon, NumPy 2.4.6; CHANGES.md has the table).
_LIFT_MIN = 1024
# The lifting kernel's blocks hold 2^_LIFT_LEVELS entries.
_LIFT_LEVELS = 8


def _iterated_weight(w: np.ndarray, uq: np.ndarray) -> np.ndarray:
    """G_n = sum_{i <= n} w_i * sup_{i <= j <= n} uq_j, in O(N).

    The indices i <= n that share the running maximum sup_{i<=j<=n} uq_j form
    n's group: (L(n), n], L(n) being the last j < n with uq_j > uq_n (ties
    join the group), and its w-mass is m_n.  Then G_n = G_{L(n)} + m_n uq_n,
    where a group whose mass or maximum is 0 contributes 0, which keeps the
    0 * inf = 0 convention.  Two paths compute this:

    - below ``_LIFT_MIN`` (1,024) entries, ``_stack_weight``, a monotone
      stack in a Python loop;
    - from ``_LIFT_MIN`` up, ``_lifted_weight``, binary lifting over sparse
      tables in blocks of B = 2^c = 256 entries (c = ``_LIFT_LEVELS``), then
      pointer jumping.  Its tables hold 2 c floats per entry, where tables
      of full height would hold 2 log2 N; with its working arrays it peaks
      near 23 floats per entry on random uq and 27 on increasing uq, against
      12 to 15 for the stack (traced at N = 2^20).

    Accuracy contract: both paths only add nonnegative terms and never
    subtract, so every entry is the exact sum on the float inputs up to a
    relative error of gamma_h = h 2^-53 / (1 - h 2^-53), h being the most
    roundings any one input passes through.  The stack's h grows with its
    depth and merge chains: on increasing uq its error reaches about
    20 * 2^-52 at N = 8,000 and 141 * 2^-52 at N = 2^20.  The lifting's h is
    at most 3 c + 2 K + ceil(log2 N), with K = max(1, bit_length(ceil(N/B)
    - 1)) rows of block tables, as ``tests/test_charformulas.py`` derives
    (68 at N = 2^20).  Its bits differ from the stack's by a few ulps.
    """
    if len(uq) >= _LIFT_MIN:
        return _lifted_weight(w, uq)
    return _stack_weight(w, uq)


def _stack_weight(w: np.ndarray, uq: np.ndarray) -> np.ndarray:
    """:func:`_iterated_weight` by a monotone stack.

    The stack holds each group's (maximum, w-mass), maxima strictly
    decreasing towards the top, and ``prefix[k]`` is the sum of the
    contributions ``mass * maximum`` of the groups below position k.  A new
    uq_n pops every group whose maximum is <= uq_n and merges their mass into
    its own group.  A pop truncates the prefix, so nothing is subtracted.
    """
    maxima: list[float] = []
    masses: list[float] = []
    prefix = [0.0]
    out = []
    for mass, top in zip(w.tolist(), uq.tolist()):
        while maxima and maxima[-1] <= top:
            maxima.pop()
            mass += masses.pop()
            prefix.pop()
        maxima.append(top)
        masses.append(mass)
        prefix.append(prefix[-1] + (mass * top if mass and top else 0.0))
        out.append(prefix[-1])
    return np.array(out)


def _tables(x: np.ndarray, s: np.ndarray, levels: int) -> tuple[list, list]:
    """Sparse tables of ``levels`` rows: row k holds, at each index j, the
    maximum of x and the sum of s over the 2^k entries ending at j, each sum
    a balanced tree of k additions.  A window that reaches before index 0 or
    over a NaN of x has a NaN maximum.  One array per row: a (levels, N)
    array costs about three times as much in page faults at N = 8,000."""
    mx, sm = [x], [s]
    for k in range(1, levels):
        h = 1 << (k - 1)
        m, t = np.empty_like(x), np.zeros_like(s)
        m[:h] = np.nan
        np.maximum(mx[-1][h:], mx[-1][:-h], out=m[h:])
        np.add(sm[-1][h:], sm[-1][:-h], out=t[h:])
        mx.append(m)
        sm.append(t)
    return mx, sm


def _lift(mx: list, sm: list, pos: np.ndarray, top: np.ndarray, acc: np.ndarray) -> None:
    """Move each ``pos`` left over the longest run of entries ``<= top``
    that the tables can step over, adding the run's sum to ``acc``.

    Steps of 2^k, k descending, reach any run shorter than 2^len(mx); a step
    is taken when its window's maximum is ``<= top``, so a NaN (a sentinel,
    or a window past index 0) ends the run.  Both arrays are updated in place.
    """
    for k in range(len(mx) - 1, -1, -1):
        ok = mx[k].take(pos) <= top
        acc += np.where(ok, sm[k].take(pos), 0.0)
        pos -= ok * (1 << k)


def _lifted_weight(w: np.ndarray, uq: np.ndarray) -> np.ndarray:
    """:func:`_iterated_weight` by two-level binary lifting and pointer jumping.

    The entries are laid out in blocks of B = 2^c (c = ``_LIFT_LEVELS``),
    each behind a NaN sentinel, with in-block tables of c rows and tables of
    the block maxima and sums.  Each entry n finds L(n) and m_n in three
    calls of ``_lift``: inside its own block; then, if its group reaches the
    block's start, over whole earlier blocks; then down into the block that
    stops it, from that block's end.  ``G_n = G_{L(n)} + m_n uq_n`` follows
    by pointer jumping: every round adds to each G_n the G of its current
    pointer and doubles the pointer, until every pointer reaches the root
    (index N, whose G is 0).  Adding 0 keeps a finished entry's bits.
    """
    c = _LIFT_LEVELS
    size, n = 1 << c, len(uq)
    width, blocks = size + 1, -(-n // size)
    at = np.arange(1, n + 1)
    at += (at - 1) >> c  # entry i sits at i + i // size + 1
    x, s = np.zeros(blocks * width), np.zeros(blocks * width)
    x[::width] = np.nan
    x[at], s[at] = uq, w
    with np.errstate(over="ignore"):  # a sum past the float range is inf
        mx, sm = _tables(x, s, c)
        ends = np.arange(size, blocks * width, width)
        bx, bs = np.full(blocks + 1, np.nan), np.zeros(blocks + 1)
        half = ends - (size >> 1)
        np.maximum(mx[-1].take(ends), mx[-1].take(half), out=bx[1:])
        np.add(sm[-1].take(ends), sm[-1].take(half), out=bs[1:])
        bmx, bsm = _tables(bx, bs, max(1, (blocks - 1).bit_length()))

        pos, acc = at - 1, np.array(w, dtype=float)
        _lift(mx, sm, pos, uq, acc)
        # entries whose group reaches their block's start (pos on a sentinel)
        far = np.flatnonzero(np.isnan(x.take(pos)))
        top, far_acc = uq.take(far), acc.take(far)
        bpos = pos.take(far) // width  # the table index of the previous block
        _lift(bmx, bsm, bpos, top, far_acc)
        acc[far], pos[far] = far_acc, -1
        stop = np.flatnonzero(bpos)  # stopped by block bpos - 1
        stop_pos, stop_acc = bpos.take(stop) * width - 1, far_acc.take(stop)
        _lift(mx, sm, stop_pos, top.take(stop), stop_acc)
        near = far.take(stop)
        acc[near], pos[near] = stop_acc, stop_pos

        parent = np.append(pos - pos // width - 1, n)
        parent[:n][pos < 0] = n
        G = np.append(ext_mul_array(acc, uq), 0.0)
        spare = np.empty_like(parent)
        while parent.min() < n:
            G += G.take(parent)
            np.take(parent, parent, out=spare)
            parent, spare = spare, parent
    return G[:n]


def _iterated_rows(w: np.ndarray, uq: np.ndarray) -> np.ndarray:
    """:func:`_iterated_weight` of each row of (B, n) arrays, by its size."""
    G = np.empty(w.shape)
    for i in range(len(w)):
        G[i] = _iterated_weight(w[i], uq[i])
    return G


def _sup_term(x: np.ndarray, q: float, y: np.ndarray) -> np.ndarray:
    """``max_n x_n^(1/q) y_n`` of each row."""
    return np.maximum.reduce(ext_mul_array(ext_pow_array(x, 1.0 / q), y), axis=-1)


def _sum_term(x: np.ndarray, r: float, y: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``sum_n x_n^r y_n m_n`` of each row, multiplied in that order."""
    return np.add.reduce(ext_mul_array(ext_mul_array(ext_pow_array(x, r), y), m), axis=-1)


def _pow_rows(x: np.ndarray, alpha: float) -> np.ndarray:
    """:func:`ext_pow` of each row's value, taken on a Python float: a power
    of the (B,) array would round differently in about 5% of values."""
    return np.array([ext_pow(t, alpha) for t in x.tolist()])


def _results(
    form: str, regime: Regime, values: np.ndarray, terms: dict, variant: str = "printed"
) -> list[CharacterizationResult]:
    """One result per row; ``formula_id`` is ``<form>-<case>``, e.g. ``gop-iii``."""
    fid, cols = f"{form}-{regime.case_id.lower()}", {k: x.tolist() for k, x in terms.items()}
    return [CharacterizationResult(x, regime, {k: c[i] for k, c in cols.items()}, fid, variant)
            for i, x in enumerate(values.tolist())]


def _gop_rows(
    u: np.ndarray, v: np.ndarray, w: np.ndarray, regime: Regime
) -> list[CharacterizationResult]:
    """:func:`char_gop` of each row of the (B, n) weights, bit for bit."""
    p, q, case = regime.p, regime.q, regime.case_id
    U = scan_max(u, right=True)  # the decreasing upper envelope
    duq = ext_pow_array(U, q)
    duqW = ext_mul_array(duq, w)
    Wle = scan_sum(w)
    Tge = scan_sum(duqW, right=True)

    if case is RegimeCase.I or case is RegimeCase.III:
        bracket = ext_mul_array(duq, Wle) + Tge
        if case is RegimeCase.I:
            SV = ext_pow_array(scan_sum(ext_pow_array(v, 1.0 / (1.0 - p))), (p - 1.0) / p)
        else:
            SV = scan_max(ext_pow_array(v, -1.0 / p))
        val = _sup_term(bracket, q, SV)
        return _results("gop", regime, val, {"B1": val})

    # cases II and IV: the same two terms with different v-factors
    r = q / (p - q)
    outer = (p - q) / (p * q)
    if case is RegimeCase.II:
        Vle = scan_sum(ext_pow_array(v, 1.0 / (1.0 - p)))
        v1 = v2 = ext_pow_array(Vle, (p - 1.0) * q / (p - q))
    else:
        v2 = ext_pow_array(v, q / (q - p))
        v1 = scan_max(v2)
    t1 = _sum_term(Tge, r, duqW, v1)
    M = scan_max(ext_mul_array(ext_pow_array(U, p * r), v2), right=True)
    t2 = _sum_term(Wle, r, w, M)
    if case is RegimeCase.II:
        B1, B2 = _pow_rows(t1, outer), _pow_rows(t2, outer)
        return _results("gop", regime, B1 + B2, {"B1": B1, "B2": B2})
    return _results("gop", regime, _pow_rows(t1 + t2, outer), {"S1": t1, "S2": t2})


def _antigop_rows(
    u: np.ndarray, v: np.ndarray, w: np.ndarray, regime: Regime, variant: str = "printed"
) -> list[CharacterizationResult]:
    """:func:`char_antigop` of each row of the (B, n) weights, bit for bit."""
    if variant not in ("printed", "flipped"):
        raise ValueError(f"variant must be 'printed' or 'flipped', got {variant!r}")
    printed = variant == "printed"
    p, q, case = regime.p, regime.q, regime.case_id
    uq = ext_pow_array(u, q)
    Wle = scan_sum(w)

    if case is RegimeCase.I:
        Vge = scan_sum(ext_pow_array(v, 1.0 / (1.0 - p)), right=True)
        val = _sup_term(_iterated_rows(w, uq), q, ext_pow_array(Vge, (p - 1.0) / p))
        return _results("antigop", regime, val, {"B1": val}, variant)

    if case is RegimeCase.III:
        bracket = ext_mul_array(uq, Wle) + scan_sum(ext_mul_array(uq, w), right=True)
        SV = scan_max(ext_pow_array(v, -1.0 / p), right=not printed)
        val = _sup_term(bracket, q, SV)
        return _results("antigop", regime, val, {"B1": val}, variant)

    r = q / (p - q)
    outer = (p - q) / (p * q)
    G = _iterated_rows(w, uq)
    if case is RegimeCase.II:
        s = (p - 1.0) * q / (p - q)
        Vp = ext_pow_array(v, 1.0 / (1.0 - p))
        vtail = ext_pow_array(scan_sum(Vp, right=True), s)
        v1 = ext_pow_array(scan_sum(Vp), s) if printed else vtail
        u_exp, x1 = p * r, scan_sum(w, right=True)
        y1 = ext_pow_array(w, r) if printed else w
    else:  # case IV: 0 < q < p <= 1
        v1 = vtail = scan_max(ext_pow_array(v, q / (q - p)), right=True)
        u_exp, x1, y1 = (r if printed else p * r), Wle, w
    M1 = scan_max(ext_mul_array(ext_pow_array(u, u_exp), v1), right=True)
    M2 = scan_max(ext_mul_array(uq, vtail), right=True)
    B1 = _pow_rows(_sum_term(x1, r, y1, M1), outer)
    B2 = _pow_rows(_sum_term(G, r, w, M2), outer)
    return _results("antigop", regime, B1 + B2, {"B1": B1, "B2": B2}, variant)


def char_gop(u: Window, v: Window, w: Window, p: float, q: float) -> CharacterizationResult:
    """Least-constant estimate for the principal form (left inner sums).

    The formulas depend on ``u`` only through its decreasing upper envelope.
    Regimes I/III are suprema of a single product; II is a sum of two terms;
    IV is one bracketed sum of two pieces raised to ``(p-q)/(pq)``.
    """
    common_window(u, v, w)
    rows = u.as_array()[None], v.as_array()[None], w.as_array()[None]
    return _gop_rows(*rows, classify_regime(p, q))[0]


def char_antigop(
    u: Window,
    v: Window,
    w: Window,
    p: float,
    q: float,
    variant: str = "printed",
) -> CharacterizationResult:
    """Least-constant estimate for the reflected form (right inner sums).

    Uses the raw weight ``u`` (no envelope substitution) and the iterated
    weight ``G_n = sum_{i<=n} w_i sup_{i<=j<=n} u_j^q`` where printed.

    variant="printed" transcribes the statement verbatim.  variant="flipped"
    replaces the suspicious sub-expressions: in regime II the first term uses
    plain ``w_n`` (not ``w_n^(q/(p-q))``) and tail sums of
    ``v^(1/(1-p))``; in regime III the v-supremum runs over ``j >= n``; in
    regime IV the first term uses the exponent ``pq/(p-q)`` on ``u``.
    Regime I has a single printed reading.
    """
    common_window(u, v, w)
    rows = u.as_array()[None], v.as_array()[None], w.as_array()[None]
    return _antigop_rows(*rows, classify_regime(p, q), variant)[0]


def _linft_exponent(p: float) -> None:
    """Raise ``ValueError`` for a ``p`` outside (0, 1], which
    :func:`char_linft_exact` does not take."""
    if not 0 < p <= 1:
        raise ValueError(f"the exact q=inf formula requires p in (0, 1], got {p}")


def char_linft_exact(u: Window, v: Window, p: float) -> float:
    """Exact optimal constant ``sup_n u_n sup_{j >= n} v_j^(-1/p)``.

    This is the least constant of the sup-inner, q = infinity problem for
    ``p in (0, 1]``; unlike the regime estimators it is an identity, not an
    equivalence.
    """
    _linft_exponent(p)
    common_window(u, v)
    SV = scan_max(ext_pow_array(v.as_array(), -1.0 / p), right=True)
    return float(np.max(ext_mul_array(u.as_array(), SV)))
