"""Closed-form estimates of the least constant in the weighted inequalities.

Four-regime estimators for the two iterated forms, transcribed verbatim from
their published statements, plus the exact sup-norm formula for the
q = infinity sup-inner problem.  The estimates are equivalents (two-sided up
to constants depending only on p and q), not exact values, except for
:func:`char_linft_exact` which is an identity.  Every regime term has one of
two shapes, the sup term ``max_n x_n^(1/q) y_n`` or the summed term
``sum_n x_n^r y_n m_n``, built by ``_sup_term`` and ``_sum_term``.

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

from .envelopes import EnvelopeKind, envelope
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


def _iterated_weight(w: np.ndarray, uq: np.ndarray) -> np.ndarray:
    """G_n = sum_{i <= n} w_i * sup_{i <= j <= n} uq_j, in O(N) by a monotone stack.

    The indices i <= n that share the running maximum sup_{i<=j<=n} uq_j form
    one group; the stack holds each group's (maximum, w-mass), maxima
    strictly decreasing towards the top, and ``prefix[k]`` is the sum of the
    contributions ``mass * maximum`` of the groups below position k.  A new
    uq_n pops every group whose maximum is <= uq_n and merges their mass into
    its own group.  A pop truncates the prefix, so only nonnegative terms are
    ever added and nothing is subtracted.  A group whose mass or maximum is 0
    contributes 0, which keeps the 0 * inf = 0 convention.

    Accuracy contract: every entry is a sum of rounded nonnegative terms, so
    its relative error against the exact sum on the float inputs grows at
    most linearly with the stack depth and the merge chains.  The tests hold
    it to 4 * 2^-52 against an exact ``Fraction`` reference for N <= 160; on
    a strictly monotone uq at N = 8000 it reaches about 20 * 2^-52.
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


def _sup_term(x: np.ndarray, q: float, y: np.ndarray) -> float:
    """``max_n x_n^(1/q) y_n``."""
    return float(np.max(ext_mul_array(ext_pow_array(x, 1.0 / q), y)))


def _sum_term(x: np.ndarray, r: float, y: np.ndarray, m: np.ndarray) -> float:
    """``sum_n x_n^r y_n m_n``, multiplied in that order."""
    return float(np.sum(ext_mul_array(ext_mul_array(ext_pow_array(x, r), y), m)))


def _result(
    form: str, regime: Regime, value: float, terms: dict, variant: str = "printed"
) -> CharacterizationResult:
    """A result whose ``formula_id`` is ``<form>-<case>``, e.g. ``gop-iii``."""
    formula_id = f"{form}-{regime.case_id.lower()}"
    return CharacterizationResult(value, regime, terms, formula_id, variant)


def _validated(u: Window, v: Window, w: Window, p: float, q: float) -> Regime:
    common_window(u, v, w)
    return classify_regime(p, q)


def char_gop(u: Window, v: Window, w: Window, p: float, q: float) -> CharacterizationResult:
    """Least-constant estimate for the principal form (left inner sums).

    The formulas depend on ``u`` only through its decreasing upper envelope.
    Regimes I/III are suprema of a single product; II is a sum of two terms;
    IV is one bracketed sum of two pieces raised to ``(p-q)/(pq)``.
    """
    regime = _validated(u, v, w, p, q)
    U = envelope(u, EnvelopeKind.DECREASING_UPPER).as_array()
    V = v.as_array()
    W = w.as_array()
    duq = ext_pow_array(U, q)
    duqW = ext_mul_array(duq, W)
    Wle = scan_sum(W)
    Tge = scan_sum(duqW, right=True)
    case = regime.case_id

    if case is RegimeCase.I or case is RegimeCase.III:
        bracket = ext_mul_array(duq, Wle) + Tge
        if case is RegimeCase.I:
            SV = ext_pow_array(scan_sum(ext_pow_array(V, 1.0 / (1.0 - p))), (p - 1.0) / p)
        else:
            SV = scan_max(ext_pow_array(V, -1.0 / p))
        val = _sup_term(bracket, q, SV)
        return _result("gop", regime, val, {"B1": val})

    # cases II and IV: the same two terms with different v-factors
    r = q / (p - q)
    outer = (p - q) / (p * q)
    if case is RegimeCase.II:
        Vle = scan_sum(ext_pow_array(V, 1.0 / (1.0 - p)))
        v1 = v2 = ext_pow_array(Vle, (p - 1.0) * q / (p - q))
    else:
        v2 = ext_pow_array(V, q / (q - p))
        v1 = scan_max(v2)
    t1 = _sum_term(Tge, r, duqW, v1)
    M = scan_max(ext_mul_array(ext_pow_array(U, p * r), v2), right=True)
    t2 = _sum_term(Wle, r, W, M)
    if case is RegimeCase.II:
        B1, B2 = ext_pow(t1, outer), ext_pow(t2, outer)
        return _result("gop", regime, B1 + B2, {"B1": B1, "B2": B2})
    return _result("gop", regime, ext_pow(t1 + t2, outer), {"S1": t1, "S2": t2})


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
    if variant not in ("printed", "flipped"):
        raise ValueError(f"variant must be 'printed' or 'flipped', got {variant!r}")
    printed = variant == "printed"
    regime = _validated(u, v, w, p, q)
    U = u.as_array()
    V = v.as_array()
    W = w.as_array()
    uq = ext_pow_array(U, q)
    Wle = scan_sum(W)
    case = regime.case_id

    if case is RegimeCase.I:
        Vge = scan_sum(ext_pow_array(V, 1.0 / (1.0 - p)), right=True)
        val = _sup_term(_iterated_weight(W, uq), q, ext_pow_array(Vge, (p - 1.0) / p))
        return _result("antigop", regime, val, {"B1": val}, variant)

    if case is RegimeCase.III:
        bracket = ext_mul_array(uq, Wle) + scan_sum(ext_mul_array(uq, W), right=True)
        SV = scan_max(ext_pow_array(V, -1.0 / p), right=not printed)
        val = _sup_term(bracket, q, SV)
        return _result("antigop", regime, val, {"B1": val}, variant)

    r = q / (p - q)
    outer = (p - q) / (p * q)
    G = _iterated_weight(W, uq)
    if case is RegimeCase.II:
        s = (p - 1.0) * q / (p - q)
        Vp = ext_pow_array(V, 1.0 / (1.0 - p))
        vtail = ext_pow_array(scan_sum(Vp, right=True), s)
        v1 = ext_pow_array(scan_sum(Vp), s) if printed else vtail
        u_exp, x1 = p * r, scan_sum(W, right=True)
        y1 = ext_pow_array(W, r) if printed else W
    else:  # case IV: 0 < q < p <= 1
        v1 = vtail = scan_max(ext_pow_array(V, q / (q - p)), right=True)
        u_exp, x1, y1 = (r if printed else p * r), Wle, W
    M1 = scan_max(ext_mul_array(ext_pow_array(U, u_exp), v1), right=True)
    M2 = scan_max(ext_mul_array(uq, vtail), right=True)
    B1 = ext_pow(_sum_term(x1, r, y1, M1), outer)
    B2 = ext_pow(_sum_term(G, r, W, M2), outer)
    return _result("antigop", regime, B1 + B2, {"B1": B1, "B2": B2}, variant)


def char_linft_exact(u: Window, v: Window, p: float) -> float:
    """Exact optimal constant ``sup_n u_n sup_{j >= n} v_j^(-1/p)``.

    This is the least constant of the sup-inner, q = infinity problem for
    ``p in (0, 1]``; unlike the regime estimators it is an identity, not an
    equivalence.
    """
    if not 0 < p <= 1:
        raise ValueError(f"the exact q=inf formula requires p in (0, 1], got {p}")
    common_window(u, v)
    SV = scan_max(ext_pow_array(v.as_array(), -1.0 / p), right=True)
    return float(np.max(ext_mul_array(u.as_array(), SV)))
