import dataclasses
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from hardyseq.bridge import (
    BridgeCheckResult,
    PiecewiseLinear,
    bridge_check,
    cumulative,
    embed_sequence,
    sup_weighted_tail,
)
from hardyseq.hardyops import RatioProblem, gop_psum, lhs
from hardyseq.seqcore import Window
from hardyseq.verification import rand_dyadic_window


def _bridge_exact_reference(u, v, w, a, p, q, form):
    """``bridge_check`` with every step in ``Fraction`` arithmetic (float
    arithmetic on the rounded exact values for a non-integer exponent), one
    operation at a time: the reference for the scaled-integer evaluation.
    Its roots are ``float(power) ** (1/exponent)``, so they stand for
    powers within the normal float range only."""

    def number_type(x):
        return (F, int(x)) if float(x).is_integer() else (float, x)

    def power_sum(weights, xs, num, e):
        return sum((num(c) * num(x) ** e for c, x in zip(weights, xs)), num(0))

    U, V, W, A = ([F(x) for x in win.values.tolist()] for win in (u, v, w, a))
    num, e = number_type(q)
    Fc = cumulative(embed_sequence(a), "from-left" if form == "gop" else "from-right")
    inner = Fc.knots[1:] if form == "gop" else Fc.knots[:-1]
    entries = [F(0)] * len(A)
    tails = [F(0)] * (len(A) + 1)
    for i in range(len(A) - 1, -1, -1):
        entries[i] = max(U[i] * inner[i], entries[i + 1] if i + 1 < len(A) else F(0))
        tails[i] = max(U[i] * max(Fc.knots[i], Fc.knots[i + 1]), tails[i + 1])
    discrete = power_sum(W, entries, num, e)
    if form == "gop":
        continuous = power_sum(W, tails[:-1], num, e)
    else:
        cells = []
        for k in range(len(A)):
            frozen, moving0 = tails[k + 1], U[k] * inner[k]
            if moving0 <= frozen:
                cells.append(num(frozen) ** e)
                continue
            slope = U[k] * A[k]
            tau = F(1) if slope == 0 else min(F(1), (moving0 - frozen) / slope)
            a0, b, t = num(moving0), num(slope), num(tau)
            if b == 0:
                head = a0**e * t
            else:
                head = (a0 ** (e + 1) - (a0 - b * t) ** (e + 1)) / (b * (e + 1))
            cells.append(head + num(frozen) ** e * num(1 - tau))
        continuous = power_sum(W, cells, num, 1)
    rhs_num, rhs_e = number_type(p)
    rhs = power_sum(V, A, rhs_num, rhs_e)
    return BridgeCheckResult(
        form, float(discrete) ** (1 / q), float(continuous) ** (1 / q),
        float(rhs) ** (1 / p), float(rhs) ** (1 / p), discrete, continuous, rhs, rhs,
        num is F, rhs_num is F,
    )


# each root field with the power it is the root of
_ROOTS = {"discrete_lhs": "discrete_lhs_pow", "continuous_lhs": "continuous_lhs_pow",
          "discrete_rhs": "discrete_rhs_pow", "continuous_rhs": "continuous_rhs_pow"}


def _assert_same_result(res, ref):
    """Every field equal: exact powers as values, floats bit for bit, both
    flags; a root only where the reference's power is 0 or a normal float."""
    for field in dataclasses.fields(BridgeCheckResult):
        got, want = getattr(res, field.name), getattr(ref, field.name)
        power = getattr(ref, _ROOTS.get(field.name, field.name))
        if field.name in _ROOTS and 0 < power < 2.0**-1022:
            continue
        assert type(got) is type(want), field.name
        assert (got.hex() if isinstance(got, float) else got) == (
            want.hex() if isinstance(want, float) else want
        ), field.name
    assert (res.lhs_equal, res.rhs_equal) == (ref.lhs_equal, ref.rhs_equal)


def _wide_window(rng, n, start):
    """2^U(-60, 60) with full mantissas, 15% zeros and 5% subnormals."""
    x = 2.0 ** rng.uniform(-60, 60, n)
    x[rng.random(n) < 0.15] = 0.0
    sub = rng.random(n) < 0.05
    x[sub] = rng.integers(1, 2**20, int(sub.sum())) * 2.0**-1074
    return Window(start, x)


def _draws(seed):
    """Windows of up to 96 cells, dyadic or wide, as the workload sizes."""
    rng = np.random.default_rng(seed)
    for n in (1, 2, 5, 12, 33, 96):
        start = int(rng.integers(-4, 5))
        yield tuple(rand_dyadic_window(rng, n, start, allow_zero=True) for _ in range(4))
        yield tuple(_wide_window(rng, n, start) for _ in range(4))


class TestExactReference:
    @pytest.mark.parametrize("form", ["gop", "antigop"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_integer_exponents(self, form, p):
        for q in (1, 2, 3):
            for u, v, w, a in _draws((p, q, form == "gop")):
                res = bridge_check(u, v, w, a, float(p), float(q), form)
                assert res.exact_lhs and res.exact_rhs
                _assert_same_result(res, _bridge_exact_reference(u, v, w, a, p, q, form))

    @pytest.mark.parametrize("form", ["gop", "antigop"])
    def test_non_integer_exponents(self, form):
        for p in (0.5, 1.5, 2.5):
            for q in (0.5, 1.5, 2.5):
                for u, v, w, a in _draws((int(2 * p), int(2 * q), form == "gop", 1)):
                    res = bridge_check(u, v, w, a, p, q, form)
                    assert not (res.exact_lhs or res.exact_rhs)
                    _assert_same_result(res, _bridge_exact_reference(u, v, w, a, p, q, form))

    @pytest.mark.parametrize("form", ["gop", "antigop"])
    @pytest.mark.parametrize("e", [400, -400])
    def test_roots_of_powers_beyond_the_float_range(self, form, e):
        """u = 2**e on unit data.  The q = 3 powers (gop 2**(3e+4), antigop
        discrete 9 * 2**(3e) and continuous 4 * 2**(3e)) are no floats; their
        cube roots are.  A root beyond the float range is inf."""
        ones = Window(0, (1.0, 1.0))
        u = Window(0, (2.0**e, 2.0**e))
        res = bridge_check(u, ones, ones, ones, 1.0, 3.0, form)
        disc, cont = (16, 16) if form == "gop" else (9, 4)
        assert res.discrete_lhs_pow == disc * F(2) ** (3 * e)
        assert res.continuous_lhs_pow == cont * F(2) ** (3 * e)
        assert res.discrete_lhs == pytest.approx(disc ** (1 / 3) * 2.0**e, rel=1e-15)
        assert res.continuous_lhs == pytest.approx(cont ** (1 / 3) * 2.0**e, rel=1e-15)
        huge = Window(0, (2.0**1000,))
        res = bridge_check(huge, huge, huge, huge, 1.0, 1.0, form)
        assert res.discrete_lhs == res.discrete_rhs == math.inf

    @pytest.mark.parametrize("p,q", [(1.0, math.inf), (math.inf, 1.0), (math.nan, 2.0)])
    def test_non_finite_exponents_rejected(self, p, q):
        w = Window(0, (1.0, 1.0))
        with pytest.raises(ValueError):
            bridge_check(w, w, w, w, p, q, "gop")

    @pytest.mark.parametrize("p,q", [(1e300, 1.0), (1.0, 1e300), (2001.0, 2.0)])
    def test_integer_exponents_above_the_cap_rejected(self, p, q):
        """An integer exponent k is taken exactly, as int powers that grow
        with k; above 2,000 it raises at once (q = 1e300 used to hang)."""
        w = Window(0, (1.0, 1.0))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="above 2000"):
            bridge_check(w, w, w, w, p, q, "gop")
        assert time.perf_counter() - start < 1.0

    def test_exponents_at_the_cap_and_non_integers_above_it(self):
        """k = 2,000 is still exact, and a non-integer exponent above the
        cap takes the float path."""
        w = Window(0, (0.5, 0.25))
        assert bridge_check(w, w, w, w, 2000.0, 2000.0, "gop").exact_lhs
        res = bridge_check(w, w, w, w, 1.0, 2500.5, "antigop")
        assert not res.exact_lhs and res.exact_rhs


class TestEmbedding:
    def test_embed_example(self):
        f = embed_sequence(Window(0, (1.0, 2.0)))
        assert f(F(0)) == 1 and f(F(3, 2)) == 2 and f(F(2)) == 0

    def test_embed_zero(self):
        f = embed_sequence(Window(0, (0.0, 0.0)))
        assert f.total() == 0

    def test_embed_offset(self):
        f = embed_sequence(Window(-5, (3.0,)))
        assert f(F(-5)) == 3 and f(F(-9, 2)) == 3 and f(F(-4)) == 0

    def test_float_conversion_is_exact(self):
        f = embed_sequence(Window(0, (0.1,)))
        assert f.values[0] == F(0.1)  # the binary value, exactly


class TestCumulative:
    def test_from_left_values(self):
        f = embed_sequence(Window(0, (1.0, 2.0)))
        Fl = cumulative(f, "from-left")
        assert Fl(F(2)) == 3
        assert Fl(F(1, 2)) == F(1, 2)
        assert Fl(F(-10)) == 0 and Fl(F(10)) == 3
        assert Fl.nondecreasing

    def test_from_right_values(self):
        f = embed_sequence(Window(0, (1.0, 2.0)))
        G = cumulative(f, "from-right")
        assert G(F(0)) == 3 and G(F(1)) == 2 and G(F(2)) == 0
        assert G(F(3, 2)) == 1
        assert G.nonincreasing

    def test_zero_function(self):
        f = embed_sequence(Window(0, (0.0,)))
        assert cumulative(f, "from-left")(F(1)) == 0

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            cumulative(embed_sequence(Window(0, (1.0,))), "sideways")


class TestSupWeightedTail:
    def test_hand_example(self):
        u = embed_sequence(Window(0, (1.0, 1.0)))
        Fl = cumulative(embed_sequence(Window(0, (1.0, 1.0))), "from-left")
        assert sup_weighted_tail(u, Fl, F(0)) == 2

    def test_t_beyond_window(self):
        u = embed_sequence(Window(0, (1.0, 1.0)))
        Fl = cumulative(embed_sequence(Window(0, (1.0, 1.0))), "from-left")
        assert sup_weighted_tail(u, Fl, F(5)) == 0

    def test_spike_weight(self):
        u = embed_sequence(Window(0, (0.0, 3.0, 0.0)))
        a = Window(0, (1.0, 1.0, 1.0))
        Fl = cumulative(embed_sequence(a), "from-left")
        # single live cell [1,2): sup is u_1 * F(2-)
        assert sup_weighted_tail(u, Fl, F(0)) == 3 * 2

    def test_non_monotone_rejected(self):
        bad = PiecewiseLinear(0, (F(0), F(2), F(1)))
        u = embed_sequence(Window(0, (1.0, 1.0)))
        with pytest.raises(ValueError):
            sup_weighted_tail(u, bad, F(0))

    def test_interval_constancy_for_left_cumulative(self):
        """The tail sup of a nondecreasing cumulative is constant on cells."""
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            u = embed_sequence(rand_dyadic_window(rng, n, allow_zero=True))
            a = rand_dyadic_window(rng, n, allow_zero=True)
            Fl = cumulative(embed_sequence(a), "from-left")
            for k in range(n):
                left = sup_weighted_tail(u, Fl, F(k))
                mid = sup_weighted_tail(u, Fl, F(2 * k + 1, 2))
                near_right = sup_weighted_tail(u, Fl, F(k + 1) - F(1, 1000))
                assert left == mid == near_right


class TestBridgeCheck:
    def test_unit_example(self):
        w = Window(0, (1.0, 1.0))
        res = bridge_check(w, w, w, w, 1.0, 1.0, "gop")
        assert res.discrete_lhs == 4.0 and res.continuous_lhs == 4.0
        assert res.lhs_equal and res.rhs_equal
        assert res.exact_lhs and res.exact_rhs

    def test_zero_sequence(self):
        w = Window(0, (1.0, 1.0))
        z = Window(0, (0.0, 0.0))
        res = bridge_check(w, w, w, z, 1.0, 2.0, "gop")
        assert (
            res.discrete_lhs == res.continuous_lhs == res.discrete_rhs == res.continuous_rhs == 0.0
        )

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_gop_exact_equality_random(self, q):
        rng = np.random.default_rng(q)
        for _ in range(60):
            n = int(rng.integers(1, 13))
            start = int(rng.integers(-4, 5))
            u = rand_dyadic_window(rng, n, start)
            v = rand_dyadic_window(rng, n, start)
            w = rand_dyadic_window(rng, n, start)
            a = rand_dyadic_window(rng, n, start, allow_zero=True)
            res = bridge_check(u, v, w, a, 1.0, float(q), "gop")
            assert res.lhs_equal, (u, v, w, a, q)
            assert res.rhs_equal

    def test_antigop_continuous_below_discrete(self):
        rng = np.random.default_rng(4)
        strict = 0
        for _ in range(60):
            n = int(rng.integers(1, 10))
            u = rand_dyadic_window(rng, n)
            v = rand_dyadic_window(rng, n)
            w = rand_dyadic_window(rng, n)
            a = rand_dyadic_window(rng, n, allow_zero=True)
            q = int(rng.integers(1, 4))
            res = bridge_check(u, v, w, a, 1.0, float(q), "antigop")
            assert res.continuous_lhs_pow <= res.discrete_lhs_pow
            assert res.rhs_equal
            if res.continuous_lhs_pow < res.discrete_lhs_pow:
                strict += 1
        # the reflected identity genuinely fails; inequality is typically strict
        assert strict > 0

    def test_antigop_one_cell_value(self):
        """Regression: on a one-cell window with unit data the continuous
        reflected integrand is (1 - t)^q, so its integral is 1/(q+1) and the
        continuous side is (q+1)^(-1/q), exact for integer q and in float
        arithmetic otherwise."""
        one = Window(0, (1.0,))
        for q in (1, 2, 3, 1.5, 2.5):
            res = bridge_check(one, one, one, one, 1.0, float(q), "antigop")
            assert res.discrete_lhs_pow == 1
            assert res.continuous_lhs == pytest.approx((q + 1) ** (-1 / q), rel=1e-14)
            if isinstance(q, int):
                assert res.exact_lhs
                assert res.continuous_lhs_pow == F(1, q + 1)
            else:
                assert res.exact_lhs is False
                assert isinstance(res.continuous_lhs_pow, float)

    @pytest.mark.parametrize("form", ["gop", "antigop"])
    def test_continuous_side_matches_per_index_tail_suprema(self, form):
        """The one-pass tail suprema give the continuous left side rebuilt
        here from ``sup_weighted_tail`` at every index, exactly."""
        rng = np.random.default_rng(17 if form == "gop" else 18)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            start = int(rng.integers(-4, 5))
            u, v, w, a = (rand_dyadic_window(rng, n, start, allow_zero=True) for _ in range(4))
            q = int(rng.integers(1, 4))
            res = bridge_check(u, v, w, a, 1.0, float(q), form)
            U = [F(x) for x in u.values.tolist()]
            A = [F(x) for x in a.values.tolist()]
            Fc = cumulative(embed_sequence(a), "from-left" if form == "gop" else "from-right")
            u_step = embed_sequence(u)
            expected = F(0)
            for k, wk in enumerate(w.values.tolist()):
                if form == "gop":
                    cell = sup_weighted_tail(u_step, Fc, F(start + k)) ** q
                else:
                    # max(U_k * (Fc_k - A_k * tau), frozen)^q over tau in [0, 1]
                    frozen = sup_weighted_tail(u_step, Fc, F(start + k + 1))
                    moving0, slope = U[k] * Fc.knots[k], U[k] * A[k]
                    if moving0 <= frozen:
                        cell = frozen**q
                    elif slope == 0:
                        cell = moving0**q
                    else:
                        tau = min(F(1), (moving0 - frozen) / slope)
                        end = moving0 - slope * tau
                        head = (moving0 ** (q + 1) - end ** (q + 1)) / (slope * (q + 1))
                        cell = head + frozen**q * (1 - tau)
                expected += F(wk) * cell
            assert res.exact_lhs
            assert res.continuous_lhs_pow == expected, (u, v, w, a, q)

    def test_non_integer_exponents_fall_back_to_float(self):
        w = Window(0, (1.0, 1.0))
        res = bridge_check(w, w, w, w, 0.5, 1.5, "gop")
        assert not res.exact_lhs and not res.exact_rhs
        assert isinstance(res.discrete_lhs_pow, float)

    def test_invalid_form(self):
        w = Window(0, (1.0,))
        with pytest.raises(ValueError):
            bridge_check(w, w, w, w, 1.0, 1.0, "sideways")


class TestHolderDirection:
    """Cell-averaging a finer step function can only shrink the p-norm side
    (p >= 1), with equality exactly when the data is cell-constant."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_averaged_below_integral(self, p):
        rng = np.random.default_rng(p + 20)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            scale = int(rng.choice([2, 4]))
            fine = [F(int(k), 8) for k in rng.integers(0, 33, size=n * scale)]
            v = [F(int(k), 4) for k in rng.integers(1, 17, size=n)]
            # a_m = integral of f over cell m = mean of its fine values
            cells = [fine[m * scale : (m + 1) * scale] for m in range(n)]
            a = [sum(c, F(0)) / scale for c in cells]
            lhs_discrete = sum(v[m] * a[m] ** p for m in range(n))
            integral = sum(
                v[m] * sum(x**p for x in cells[m]) / scale for m in range(n)
            )
            assert lhs_discrete <= integral
            if all(len(set(c)) == 1 for c in cells):
                assert lhs_discrete == integral

    def test_equality_for_cell_constant_data(self):
        a = [F(3), F(1, 2)]
        v = [F(2), F(5)]
        p = 3
        assert sum(vv * aa**p for vv, aa in zip(v, a)) == sum(
            vv * aa**p * 1 for vv, aa in zip(v, a)
        )


class TestExponentShiftStructure:
    """The p <= 1 bridge consumes u^p, a^p with outer exponent q/p; feeding
    the transformed data through the p = 1 pipeline must reproduce the
    powered-sum operator value computed directly."""

    @pytest.mark.parametrize("p,q", [(0.5, 1.0), (0.5, 2.0), (0.25, 1.0)])
    def test_transformed_bridge_matches_psum_operator(self, p, q):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            u = rand_dyadic_window(rng, n)
            v = rand_dyadic_window(rng, n)
            w = rand_dyadic_window(rng, n)
            a = rand_dyadic_window(rng, n, allow_zero=True)
            u_p = u.with_values([x**p for x in u.values])
            a_p = a.with_values([x**p for x in a.values])
            res = bridge_check(u_p, v, w, a_p, 1.0, q / p, "gop")
            direct = lhs(
                RatioProblem(u, v, w, p, q / p * p, gop_psum(p)), a
            )
            assert res.discrete_lhs == pytest.approx(direct**p, rel=1e-10)
            assert float(res.continuous_lhs_pow) == pytest.approx(
                float(res.discrete_lhs_pow), rel=1e-12
            )
