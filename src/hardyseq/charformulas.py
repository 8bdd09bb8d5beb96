"""Closed-form estimates of the least constant in the weighted inequalities.

Four-regime estimators for the two iterated forms, transcribed verbatim from
their published statements, plus the exact sup-norm formula for the
q = infinity sup-inner problem.  The estimates are equivalents (two-sided up
to constants depending only on p and q), not exact values, except for
:func:`char_linft_exact` which is an identity.

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
    """G_n = sum_{i <= n} w_i * sup_{i <= j <= n} uq_j  (O(N^2) scan)."""
    n_len = len(w)
    out = np.empty(n_len)
    for n in range(n_len):
        m = np.maximum.accumulate(uq[n::-1])[::-1]
        out[n] = float(np.sum(w[: n + 1] * m))
    return out


def _validated(u: Window, v: Window, w: Window, p: float, q: float) -> Regime:
    common_window(u, v, w)
    u.require_finite("u")
    v.require_finite("v")
    w.require_finite("w")
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
    Wle = scan_sum(W)
    Tge = scan_sum(duq * W, right=True)
    case = regime.case_id

    if case is RegimeCase.I:
        Vle = scan_sum(ext_pow_array(V, 1.0 / (1.0 - p)))
        bracket = duq * Wle + Tge
        prods = ext_mul_array(
            ext_pow_array(bracket, 1.0 / q), ext_pow_array(Vle, (p - 1.0) / p)
        )
        val = float(np.max(prods))
        return CharacterizationResult(val, regime, {"B1": val}, "gop-i")

    if case is RegimeCase.II:
        r = q / (p - q)
        s = (p - 1.0) * q / (p - q)
        outer = (p - q) / (p * q)
        Vle = scan_sum(ext_pow_array(V, 1.0 / (1.0 - p)))
        t1 = ext_mul_array(
            ext_mul_array(ext_pow_array(Tge, r), duq * W), ext_pow_array(Vle, s)
        )
        B1 = ext_pow(float(np.sum(t1)), outer)
        M = scan_max(
            ext_mul_array(ext_pow_array(U, p * r), ext_pow_array(Vle, s)), right=True
        )
        t2 = ext_mul_array(ext_mul_array(ext_pow_array(Wle, r), W), M)
        B2 = ext_pow(float(np.sum(t2)), outer)
        return CharacterizationResult(B1 + B2, regime, {"B1": B1, "B2": B2}, "gop-ii")

    if case is RegimeCase.III:
        SV = scan_max(ext_pow_array(V, -1.0 / p))
        bracket = duq * Wle + Tge
        prods = ext_mul_array(ext_pow_array(bracket, 1.0 / q), SV)
        val = float(np.max(prods))
        return CharacterizationResult(val, regime, {"B1": val}, "gop-iii")

    # case IV: 0 < q < p <= 1, one bracketed sum
    r = q / (p - q)
    e1 = q / (q - p)
    outer = (p - q) / (p * q)
    SVle = scan_max(ext_pow_array(V, e1))
    s1 = ext_mul_array(ext_mul_array(ext_pow_array(Tge, r), duq * W), SVle)
    S1 = float(np.sum(s1))
    M = scan_max(
        ext_mul_array(ext_pow_array(U, p * r), ext_pow_array(V, e1)), right=True
    )
    s2 = ext_mul_array(ext_mul_array(ext_pow_array(Wle, r), W), M)
    S2 = float(np.sum(s2))
    val = ext_pow(S1 + S2, outer)
    return CharacterizationResult(val, regime, {"S1": S1, "S2": S2}, "gop-iv")


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
    regime = _validated(u, v, w, p, q)
    U = u.as_array()
    V = v.as_array()
    W = w.as_array()
    uq = ext_pow_array(U, q)
    Wle = scan_sum(W)
    case = regime.case_id

    if case is RegimeCase.I:
        G = _iterated_weight(W, uq)
        Vge = scan_sum(ext_pow_array(V, 1.0 / (1.0 - p)), right=True)
        prods = ext_mul_array(
            ext_pow_array(G, 1.0 / q), ext_pow_array(Vge, (p - 1.0) / p)
        )
        val = float(np.max(prods))
        return CharacterizationResult(val, regime, {"B1": val}, "antigop-i", variant)

    if case is RegimeCase.II:
        r = q / (p - q)
        s = (p - 1.0) * q / (p - q)
        outer = (p - q) / (p * q)
        G = _iterated_weight(W, uq)
        Wge = scan_sum(W, right=True)
        vsum_left = scan_sum(ext_pow_array(V, 1.0 / (1.0 - p)))
        vsum_right = scan_sum(ext_pow_array(V, 1.0 / (1.0 - p)), right=True)
        if variant == "printed":
            M1 = scan_max(
                ext_mul_array(ext_pow_array(U, p * r), ext_pow_array(vsum_left, s)),
                right=True,
            )
            w_factor = ext_pow_array(W, r)
        else:
            M1 = scan_max(
                ext_mul_array(ext_pow_array(U, p * r), ext_pow_array(vsum_right, s)),
                right=True,
            )
            w_factor = W
        t1 = ext_mul_array(ext_mul_array(ext_pow_array(Wge, r), w_factor), M1)
        B1 = ext_pow(float(np.sum(t1)), outer)
        M2 = scan_max(ext_mul_array(uq, ext_pow_array(vsum_right, s)), right=True)
        t2 = ext_mul_array(ext_mul_array(ext_pow_array(G, r), W), M2)
        B2 = ext_pow(float(np.sum(t2)), outer)
        return CharacterizationResult(
            B1 + B2, regime, {"B1": B1, "B2": B2}, "antigop-ii", variant
        )

    if case is RegimeCase.III:
        bracket = uq * Wle + scan_sum(uq * W, right=True)
        vinv = ext_pow_array(V, -1.0 / p)
        SV = scan_max(vinv) if variant == "printed" else scan_max(vinv, right=True)
        prods = ext_mul_array(ext_pow_array(bracket, 1.0 / q), SV)
        val = float(np.max(prods))
        return CharacterizationResult(val, regime, {"B1": val}, "antigop-iii", variant)

    # case IV: 0 < q < p <= 1, sum of two bracketed terms
    r = q / (p - q)
    e1 = q / (q - p)
    outer = (p - q) / (p * q)
    G = _iterated_weight(W, uq)
    SVge = scan_max(ext_pow_array(V, e1), right=True)
    u_exp = r if variant == "printed" else p * r
    M1 = scan_max(ext_mul_array(ext_pow_array(U, u_exp), SVge), right=True)
    t1 = ext_mul_array(ext_mul_array(ext_pow_array(Wle, r), W), M1)
    B1 = ext_pow(float(np.sum(t1)), outer)
    M2 = scan_max(ext_mul_array(uq, SVge), right=True)
    t2 = ext_mul_array(ext_mul_array(ext_pow_array(G, r), W), M2)
    B2 = ext_pow(float(np.sum(t2)), outer)
    return CharacterizationResult(
        B1 + B2, regime, {"B1": B1, "B2": B2}, "antigop-iv", variant
    )


def char_linft_exact(u: Window, v: Window, p: float) -> float:
    """Exact optimal constant ``sup_n u_n sup_{j >= n} v_j^(-1/p)``.

    This is the least constant of the sup-inner, q = infinity problem for
    ``p in (0, 1]``; unlike the regime estimators it is an identity, not an
    equivalence.
    """
    if not 0 < p <= 1:
        raise ValueError(f"the exact q=inf formula requires p in (0, 1], got {p}")
    common_window(u, v)
    u.require_finite("u")
    v.require_finite("v")
    SV = scan_max(ext_pow_array(v.as_array(), -1.0 / p), right=True)
    return float(np.max(ext_mul_array(u.as_array(), SV)))
