import math
from fractions import Fraction

import numpy as np
import pytest

from hardyseq import charformulas
from hardyseq.charformulas import (
    _antigop_rows,
    _gop_rows,
    _iterated_weight,
    _lifted_weight,
    _stack_weight,
    char_antigop,
    char_gop,
    char_linft_exact,
)
from hardyseq.envelopes import EnvelopeKind, envelope
from hardyseq.seqcore import INF, RegimeCase, Window, classify_regime, ext_pow, ext_pow_array

ONES2 = Window(0, (1.0, 1.0))


def rand_triple(rng, n, exponent=3.0):
    start = int(rng.integers(-4, 5))
    mk = lambda: Window(start, tuple(2.0 ** rng.uniform(-exponent, exponent, n)))
    return mk(), mk(), mk()


class TestGop:
    def test_regime_iii_example(self):
        res = char_gop(ONES2, ONES2, ONES2, 1.0, 1.0)
        assert res.value == 3.0
        assert res.formula_id == "gop-iii"
        assert res.regime.case_id is RegimeCase.III

    def test_zero_w_kills_every_regime(self):
        z = Window(0, (0.0, 0.0))
        for p, q in ((2, 3), (3, 2), (1, 1), (0.5, 0.25)):
            assert char_gop(ONES2, ONES2, z, p, q).value == 0.0

    def test_zero_v_at_left_end_gives_inf(self):
        v = Window(0, (0.0, 1.0))
        assert char_gop(ONES2, v, ONES2, 1.0, 1.0).value == INF

    def test_invalid_exponents(self):
        with pytest.raises(ValueError):
            char_gop(ONES2, ONES2, ONES2, 0.0, 1.0)

    def test_envelope_pass_through(self):
        rng = np.random.default_rng(2)
        for p, q in ((2, 3), (3, 2), (1, 1), (0.7, 0.3)):
            u, v, w = rand_triple(rng, 6)
            du = envelope(u, EnvelopeKind.DECREASING_UPPER)
            assert char_gop(u, v, w, p, q).value == pytest.approx(
                char_gop(du, v, w, p, q).value, rel=1e-14
            )

    def test_two_term_regimes_report_terms(self):
        rng = np.random.default_rng(3)
        u, v, w = rand_triple(rng, 5)
        res2 = char_gop(u, v, w, 3.0, 2.0)
        assert set(res2.terms) == {"B1", "B2"}
        assert res2.value == pytest.approx(res2.terms["B1"] + res2.terms["B2"])
        res4 = char_gop(u, v, w, 1.0, 0.5)
        assert set(res4.terms) == {"S1", "S2"}
        outer = (1.0 - 0.5) / (1.0 * 0.5)
        assert res4.value == pytest.approx(
            (res4.terms["S1"] + res4.terms["S2"]) ** outer
        )


class TestAntigop:
    def test_regime_iii_example(self):
        res = char_antigop(ONES2, ONES2, ONES2, 1.0, 1.0)
        assert res.value == 3.0
        assert res.formula_id == "antigop-iii"

    def test_regime_i_example(self):
        res = char_antigop(ONES2, ONES2, ONES2, 2.0, 2.0)
        assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert res.formula_id == "antigop-i"

    def test_zero_u_kills_every_regime(self):
        z = Window(0, (0.0, 0.0))
        for p, q in ((2, 3), (3, 2), (1, 1), (0.5, 0.25)):
            assert char_antigop(z, ONES2, ONES2, p, q).value == 0.0

    def test_variants_differ_only_where_flagged(self):
        rng = np.random.default_rng(4)
        for p, q, same in ((2.0, 3.0, True), (1.0, 1.0, False), (3.0, 2.0, False), (0.5, 0.25, False)):
            u, v, w = rand_triple(rng, 6)
            a = char_antigop(u, v, w, p, q, variant="printed").value
            b = char_antigop(u, v, w, p, q, variant="flipped").value
            if same:  # regime I has a single reading
                assert a == b
            # elsewhere the two variants are genuinely different formulas;
            # generic weights separate them
            else:
                assert a != b

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            char_antigop(ONES2, ONES2, ONES2, 1, 1, variant="patched")


@pytest.mark.parametrize(
    "p, q, case", [(2.0, 3.0, "i"), (3.0, 2.0, "ii"), (1.0, 1.0, "iii"), (0.5, 0.25, "iv")]
)
def test_formula_id_names_form_and_case(p, q, case):
    res = char_gop(ONES2, ONES2, ONES2, p, q)
    assert (res.formula_id, res.variant) == (f"gop-{case}", "printed")
    for variant in ("printed", "flipped"):
        res = char_antigop(ONES2, ONES2, ONES2, p, q, variant=variant)
        assert (res.formula_id, res.variant) == (f"antigop-{case}", variant)


class TestRowKernels:
    """``char_gop`` and ``char_antigop`` are one-row calls of the row
    kernels, and every row of a stack has the bits of its own one-row call,
    in the value and in every term: the regime terms are reduced along each
    row, and the outer powers are taken per row on Python floats."""

    # every regime, the diagonal p = q on both sides of p = 1 included
    REGIMES = [(2.0, 3.0), (2.0, 2.0), (3.0, 2.0), (1.0, 1.0), (0.5, 0.5),
               (0.5, 1.0), (1.0, 0.5), (0.5, 0.25)]

    @staticmethod
    def _stack(rng, b, n):
        """(3, b, n) weights 2^U(+-8), 20% zeros in u and w, the first row
        scaled by 2^300 and the second by 2^-300."""
        x = 2.0 ** rng.uniform(-8, 8, (3, b, n))
        for k in (0, 2):
            x[k][rng.random((b, n)) < 0.2] = 0.0
        x[:, 0] *= 2.0**300
        x[:, 1] *= 2.0**-300
        return x

    @staticmethod
    def _assert_rows_alone(x, p, q):
        regime = classify_regime(p, q)
        stacked = {
            ("gop", "printed"): _gop_rows(*x, regime),
            **{("antigop", var): _antigop_rows(*x, regime, var) for var in ("printed", "flipped")},
        }
        for (form, variant), rows in stacked.items():
            assert len(rows) == x.shape[1]
            for i, got in enumerate(rows):
                u, v, w = (Window(0, y[i]) for y in x)
                if form == "gop":
                    alone = char_gop(u, v, w, p, q)
                else:
                    alone = char_antigop(u, v, w, p, q, variant)
                assert got.value.hex() == alone.value.hex(), (form, variant, p, q, i)
                assert {k: t.hex() for k, t in got.terms.items()} == {
                    k: t.hex() for k, t in alone.terms.items()
                }, (form, variant, p, q, i)
                assert (got.regime, got.formula_id, got.variant) == (
                    alone.regime, alone.formula_id, alone.variant
                )

    @pytest.mark.parametrize("n", [1, 2, 8, 40])
    @pytest.mark.parametrize("p,q", REGIMES)
    def test_each_row_equals_its_one_row_call(self, n, p, q):
        rng = np.random.default_rng(int(100 * p + 10 * q + n))
        self._assert_rows_alone(self._stack(rng, 7, n), p, q)

    @pytest.mark.parametrize("p,q", [(2.0, 3.0), (3.0, 2.0), (1.0, 0.5)])
    def test_rows_past_the_lifting_size(self, p, q):
        """At N = 1,100 each row builds its G by the lifting (regimes I, II
        and IV of char_antigop)."""
        assert 1100 >= charformulas._LIFT_MIN
        rng = np.random.default_rng(int(10 * p + q))
        self._assert_rows_alone(self._stack(rng, 3, 1100), p, q)

    @pytest.mark.parametrize("p,q", [(1.0, 0.3), (0.8, 0.5)])
    def test_outer_power_is_a_python_float_power(self, p, q):
        """gop regime IV reports both summed terms, so its value can be
        checked against ``ext_pow`` on their Python-float sum: an array
        power of the (B,) sums differs by an ulp in about 5% of rows at
        these outer exponents, 7/3 and 3/4 (at (1, 0.5) and (0.5, 0.25)
        they are 1 and 2, where the two powers agree)."""
        rng = np.random.default_rng(int(10 * p))
        x = 2.0 ** rng.uniform(-8, 8, (3, 300, 5))
        outer = (p - q) / (p * q)
        for res in _gop_rows(*x, classify_regime(p, q)):
            want = ext_pow(res.terms["S1"] + res.terms["S2"], outer)
            assert res.value.hex() == want.hex()

    def test_one_row_call_copies_no_weights(self, monkeypatch):
        """The public call validates its windows once and hands the kernel
        views of their values, not copies."""
        seen = []
        real = charformulas._gop_rows
        monkeypatch.setattr(charformulas, "_gop_rows", lambda *a: seen.extend(a[:3]) or real(*a))
        u, v, w = rand_triple(np.random.default_rng(5), 6)
        char_gop(u, v, w, 2.0, 3.0)
        assert [np.shares_memory(x, y.values) for x, y in zip(seen, (u, v, w))] == [True] * 3


class TestZeroTimesInfinity:
    """With w_0 = 0 the estimate cannot depend on u_0, even when u_0^q
    overflows: the products that meet w take 0 * inf = 0."""

    BIG = Window(0, (2.0**400, 1.0))
    W0 = Window(0, (0.0, 1.0))

    @pytest.mark.parametrize("p, q", [(2.0, 3.0), (4.0, 3.0), (0.5, 3.0), (0.75, 0.5)])
    def test_gop(self, p, q):
        big = char_gop(self.BIG, ONES2, self.W0, p, q)
        assert big.value == char_gop(ONES2, ONES2, self.W0, p, q).value

    @pytest.mark.parametrize("variant", ["printed", "flipped"])
    def test_antigop_regime_iii(self, variant):
        big = char_antigop(self.BIG, ONES2, self.W0, 0.5, 3.0, variant)
        assert big.value == char_antigop(ONES2, ONES2, self.W0, 0.5, 3.0, variant).value

    @pytest.mark.parametrize("variant", ["printed", "flipped"])
    @pytest.mark.parametrize("p, q", [(2.0, 3.0), (4.0, 3.0)])
    def test_antigop_regimes_i_ii(self, p, q, variant):
        big = char_antigop(self.BIG, ONES2, self.W0, p, q, variant)
        assert big.value == char_antigop(ONES2, ONES2, self.W0, p, q, variant).value


def _iterated_weight_exact(w, uq):
    """G_n = sum_{i <= n} w_i * max_{i <= j <= n} uq_j in ``Fraction``, O(N^2)."""
    W = [Fraction(x) for x in w.tolist()]
    U = [Fraction(x) for x in uq.tolist()]
    out = []
    for n in range(len(W)):
        running, total = Fraction(0), Fraction(0)
        for i in range(n, -1, -1):
            running = max(running, U[i])
            total += W[i] * running
        out.append(total)
    return out


def _scaled(x):
    """Integers X_i and one shift s with x_i = X_i / 2^s; an inf stays inf."""
    ratios = [v.as_integer_ratio() if v < INF else None for v in x.tolist()]
    s = max((d.bit_length() - 1 for _, d in filter(None, ratios)), default=0)
    return [INF if r is None else r[0] << (s - r[1].bit_length() + 1) for r in ratios], s


def _iterated_weight_stack_exact(w, uq):
    """The stack of ``_stack_weight`` in exact integer arithmetic, O(N).

    Returns (X, s) with G_n = X_n / 2^s exactly on the float inputs, since
    exact sums make the order of additions irrelevant; an entry whose
    groups take an infinite uq_j with positive mass is inf.
    """
    (W, sw), (U, su) = _scaled(w), _scaled(uq)
    maxima, masses, prefix, out = [], [], [0], []
    for mass, top in zip(W, U):
        while maxima and maxima[-1] <= top:
            maxima.pop()
            mass += masses.pop()
            prefix.pop()
        maxima.append(top)
        masses.append(mass)
        term = 0 if not (mass and top) else INF if top == INF else mass * top
        prefix.append(INF if INF in (prefix[-1], term) else prefix[-1] + term)
        out.append(prefix[-1])
    return out, sw + su


def _assert_within(got, exact, h):
    """Every entry of ``got`` within gamma_h of the exact (X, s), relative:
    with got_n = a / d, |a 2^s - X_n d| <= gamma_h X_n d, in integers."""
    X, s = exact
    for k, (g, x) in enumerate(zip(got.tolist(), X)):
        if x == INF:
            assert g == INF, k
        else:
            a, d = g.as_integer_ratio()
            assert abs((a << s) - x * d) * (2**53 - h) <= h * x * d, (k, g, x, s)


def _lifting_roundings(n):
    """The most roundings one input passes through in ``_lifted_weight`` at N = n.

    With c = ``_LIFT_LEVELS``, B = 2^c and K rows of block tables:
    - an in-block table entry of row k <= c - 1 is a balanced sum of depth k;
      a block sum has depth c, a block-table entry of row k <= K - 1 depth
      c + k <= c + K - 1;
    - a group mass m_n is w_n plus at most c + K + c such entries, added one
      at a time, so an input passes at most (c + K - 1) + (2 c + K)
      roundings, and the product m_n uq_n one more: 3 c + 2 K;
    - pointer jumping adds G of the pointer once per round, and a chain has
      at most n entries, so at most ceil(log2 n) rounds add to any term.
    """
    c = charformulas._LIFT_LEVELS
    blocks = -(-n // (1 << c))
    K = max(1, (blocks - 1).bit_length())
    return 3 * c + 2 * K + (n - 1).bit_length()


def _uq_shapes(rng, n):
    """Shapes of uq that stress different paths: short groups (random),
    groups reaching every block start (increasing), the deepest chains
    (decreasing), repeated ramps (sawtooth), ties, zeros and infinities."""
    rand = 2.0 ** rng.uniform(-60, 60, n)
    zeros = rand * (rng.random(n) < 0.3)
    infs = np.where(rng.random(n) < 0.05, INF, rand)
    return {
        "random": rand,
        "increasing": np.sort(rand),
        "decreasing": np.sort(rand)[::-1].copy(),
        "sawtooth": (np.arange(n) % 37 + 1.0) * 2.0 ** rng.uniform(-1, 1),
        "tied": 2.0 ** rng.integers(0, 4, n).astype(float),
        "zero-heavy": zeros,
        "inf-containing": infs,
    }


class TestIteratedWeight:
    """Both kernels against exact sums on the same float inputs; an exact 0
    stays exactly 0 and an exact inf stays inf."""

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0])
    def test_against_exact_fractions(self, q):
        """Relative error at most 4 * 2^-52 for N <= 160, on either kernel."""
        rng = np.random.default_rng(int(4 * q))
        for _ in range(12):
            n = int(rng.integers(1, 161))
            w = 2.0 ** rng.uniform(-30, 30, n)
            u = 2.0 ** rng.uniform(-30, 30, n) * 2.0 ** rng.uniform(-200, 200)
            w[rng.random(n) < 0.2] = 0.0
            u[rng.random(n) < 0.2] = 0.0
            uq = ext_pow_array(u, q)
            exact = _iterated_weight_exact(w, uq)
            for kernel in (_stack_weight, _lifted_weight):
                for got, want in zip(kernel(w, uq).tolist(), exact):
                    assert abs(Fraction(got) - want) <= Fraction(4, 2**52) * want

    @pytest.mark.parametrize("n", [600, 2100, 5000])
    def test_lifting_against_exact_stack(self, n):
        """At 3, 9 and 20 blocks, so that all three lifting calls run, every
        entry is within gamma_h = h 2^-53 / (1 - h 2^-53) of the exact sum,
        h derived in ``_lifting_roundings`` (47 at 5,000, about 23.5 * 2^-52)."""
        rng = np.random.default_rng(n)
        for shape, uq in _uq_shapes(rng, n).items():
            w = 2.0 ** rng.uniform(-30, 30, n)
            w[rng.random(n) < (0.7 if shape == "zero-heavy" else 0.1)] = 0.0
            exact = _iterated_weight_stack_exact(w, uq)
            _assert_within(_lifted_weight(w, uq), exact, _lifting_roundings(n))

    def test_exact_references_agree(self):
        rng = np.random.default_rng(8)
        for uq in _uq_shapes(rng, 40).values():
            uq = np.minimum(uq, 2.0**60)  # the O(N^2) reference has no inf
            w = 2.0 ** rng.uniform(-30, 30, 40) * (rng.random(40) < 0.8)
            X, s = _iterated_weight_stack_exact(w, uq)
            assert [Fraction(x, 2**s) for x in X] == _iterated_weight_exact(w, uq)

    def test_path_chosen_by_size(self):
        rng = np.random.default_rng(3)
        T = charformulas._LIFT_MIN
        for n, kernel in ((T - 1, _stack_weight), (T, _lifted_weight)):
            w, uq = 2.0 ** rng.uniform(-3, 3, (2, n))
            assert _iterated_weight(w, uq).tobytes() == kernel(w, uq).tobytes()

    def test_zero_mass_under_infinite_maximum(self):
        for kernel in (_stack_weight, _lifted_weight):
            G = kernel(np.array([0.0, 1.0]), np.array([INF, 1.0]))
            assert G.tolist() == [0.0, 1.0]


class TestScalingLaws:
    """Each estimator scales like the least constant itself: linearly in u,
    as t^(-1/p) in v and t^(1/q) in w.  The printed antigop II breaks the w
    law and the printed antigop IV breaks the u law (their flipped variants
    restore both), which is exactly the transcription evidence the oracle
    comparison reports."""

    CASES = [(2.0, 3.0), (3.0, 2.0), (1.0, 1.0), (0.5, 1.0), (1.0, 0.5), (0.5, 0.25)]

    @pytest.mark.parametrize("p,q", CASES)
    def test_gop_scaling(self, p, q):
        rng = np.random.default_rng(int(10 * p + q))
        u, v, w = rand_triple(rng, 6)
        base = char_gop(u, v, w, p, q).value
        t = 3.7
        assert char_gop(u.scaled(t), v, w, p, q).value == pytest.approx(t * base, rel=1e-10)
        assert char_gop(u, v.scaled(t), w, p, q).value == pytest.approx(
            t ** (-1.0 / p) * base, rel=1e-10
        )
        assert char_gop(u, v, w.scaled(t), p, q).value == pytest.approx(
            t ** (1.0 / q) * base, rel=1e-10
        )

    @pytest.mark.parametrize("p,q", CASES)
    def test_antigop_scaling_with_tracking_variant(self, p, q):
        from hardyseq.seqcore import classify_regime

        case = classify_regime(p, q).case_id
        variant = "flipped" if case in (RegimeCase.II, RegimeCase.IV) else "printed"
        rng = np.random.default_rng(int(10 * p + q) + 1)
        u, v, w = rand_triple(rng, 6)
        base = char_antigop(u, v, w, p, q, variant=variant).value
        t = 2.3
        assert char_antigop(u.scaled(t), v, w, p, q, variant=variant).value == pytest.approx(
            t * base, rel=1e-10
        )
        assert char_antigop(u, v.scaled(t), w, p, q, variant=variant).value == pytest.approx(
            t ** (-1.0 / p) * base, rel=1e-10
        )
        assert char_antigop(u, v, w.scaled(t), p, q, variant=variant).value == pytest.approx(
            t ** (1.0 / q) * base, rel=1e-10
        )

    def test_printed_antigop_ii_breaks_w_scaling(self):
        rng = np.random.default_rng(9)
        u, v, w = rand_triple(rng, 6)
        p, q, t = 3.0, 2.0, 4.0
        base = char_antigop(u, v, w, p, q, variant="printed").value
        scaled = char_antigop(u, v, w.scaled(t), p, q, variant="printed").value
        assert scaled != pytest.approx(t ** (1.0 / q) * base, rel=1e-6)

    def test_printed_antigop_iv_breaks_u_scaling(self):
        rng = np.random.default_rng(10)
        u, v, w = rand_triple(rng, 6)
        p, q, t = 0.5, 0.25, 4.0
        base = char_antigop(u, v, w, p, q, variant="printed").value
        scaled = char_antigop(u.scaled(t), v, w, p, q, variant="printed").value
        assert scaled != pytest.approx(t * base, rel=1e-6)


class TestMonotonicity:
    @pytest.mark.parametrize("p,q", [(2.0, 3.0), (3.0, 2.0), (1.0, 1.0), (0.5, 0.25)])
    def test_entrywise_monotone(self, p, q):
        rng = np.random.default_rng(int(100 * p + q))
        for _ in range(20):
            u, v, w = rand_triple(rng, 5)
            for fn in (char_gop, char_antigop):
                base = fn(u, v, w, p, q).value
                k = int(rng.integers(0, 5))
                bump = float(rng.uniform(0.1, 1.0))
                u2 = u.with_values([x + bump * (i == k) for i, x in enumerate(u.values)])
                w2 = w.with_values([x + bump * (i == k) for i, x in enumerate(w.values)])
                v2 = v.with_values([x + bump * (i == k) for i, x in enumerate(v.values)])
                assert fn(u2, v, w, p, q).value >= base * (1 - 1e-12)
                assert fn(u, v, w2, p, q).value >= base * (1 - 1e-12)
                assert fn(u, v2, w, p, q).value <= base * (1 + 1e-12)


class TestLinftExact:
    def test_example(self):
        assert char_linft_exact(Window(0, (2.0, 1.0)), Window(0, (4.0, 1.0)), 1.0) == 2.0

    def test_constant_v_gives_sup_u(self):
        u = Window(0, (2.0, 5.0, 1.0))
        v = Window(0, (1.0, 1.0, 1.0))
        assert char_linft_exact(u, v, 0.5) == 5.0

    def test_zero_v_entry_gives_inf(self):
        u = Window(0, (1.0, 0.0))
        v = Window(0, (1.0, 0.0))
        assert char_linft_exact(u, v, 1.0) == INF

    def test_p_above_one_rejected(self):
        with pytest.raises(ValueError):
            char_linft_exact(ONES2, ONES2, 2.0)
