import dataclasses
import math
import random
import time
from fractions import Fraction as F
from itertools import accumulate, cycle, islice, repeat
from operator import mul

import numpy as np
import pytest

from hardyseq.bridge import (
    BridgeCheckResult,
    PiecewiseLinear,
    _power_sum,
    _root,
    _running_max_from_right,
    _tail_sups,
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
    Its roots are ``_root`` of its powers, whose accuracy
    ``TestRoot`` decides exactly."""

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
        form, _root(discrete, q), _root(continuous, q),
        _root(rhs, p), _root(rhs, p), discrete, continuous, rhs, rhs,
        num is F, rhs_num is F,
    )


def _running_max_reference(xs):
    """``_running_max_from_right`` as ``accumulate`` over builtin ``max``:
    the reference for its comparison loop."""
    return list(accumulate(reversed(xs), max))[::-1]


def _tail_sups_reference(U, knots):
    """``_tail_sups`` as ``map`` and ``accumulate`` over builtin ``max``."""
    cells = list(map(mul, U, map(max, knots, knots[1:])))
    return list(accumulate(reversed(cells), max, initial=0))[::-1]


def _power_sum_reference(W, sw, xs, t, k):
    """The integer branch of ``_power_sum``, a ``pow`` per cell at every
    ``k``."""
    return F(sum(map(mul, W, map(pow, xs, repeat(k)))), 1 << (sw + k * t))


def _cell_lists(seed):
    """Lists of nonnegative ints as the per-cell passes get them: one cell
    up to 96 cells, entries up to 2**300, with zeros and runs of equal
    neighbours."""
    rng = random.Random(seed)
    yield from ([0], [5], [0, 0, 0], [7, 7, 7])
    for n in (1, 2, 3, 12, 96):
        for bits in (1, 8, 300):
            xs = [rng.getrandbits(bits) for _ in range(n)]
            for i in range(1, n):
                r = rng.random()
                xs[i] = 0 if r < 0.2 else xs[i - 1] if r < 0.4 else xs[i]
            yield xs


def _assert_same_ints(got, want):
    assert type(got) is list and all(type(x) is int for x in got)
    assert got == want


def _assert_same_result(res, ref):
    """Every field equal: exact powers as values, floats (the roots too)
    bit for bit, both flags."""
    for field in dataclasses.fields(BridgeCheckResult):
        got, want = getattr(res, field.name), getattr(ref, field.name)
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


def _scales_draw(seed):
    """u and w near 2**-1000, v and a near 2**+1000, each with zeros: the
    four windows share one scale in ``bridge_check``, so the ints of v and a
    carry about 2,000 more bits than their own scale would need."""
    rng = np.random.default_rng(seed)
    n, start = 24, int(rng.integers(-4, 5))
    out = []
    for e in (-1000, 1000, -1000, 1000):
        x = 2.0 ** rng.uniform(e - 20, e + 20, n)
        x[rng.random(n) < 0.2] = 0.0
        out.append(Window(start, x))
    return tuple(out)


class TestExactReference:
    @pytest.mark.parametrize("form", ["gop", "antigop"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_integer_exponents(self, form, p):
        for q in (1, 2, 3):
            for u, v, w, a in (*_draws((p, q, form == "gop")), _scales_draw((p, q))):
                res = bridge_check(u, v, w, a, float(p), float(q), form)
                assert res.exact_lhs and res.exact_rhs
                _assert_same_result(res, _bridge_exact_reference(u, v, w, a, p, q, form))

    @pytest.mark.parametrize("form", ["gop", "antigop"])
    def test_non_integer_exponents(self, form):
        for p in (0.5, 1.5, 2.5):
            for q in (0.5, 1.5, 2.5):
                draws = list(_draws((int(2 * p), int(2 * q), form == "gop", 1)))
                if p < 1:  # a**p of a near 2**1000 is no float above p = 1
                    draws.append(_scales_draw((int(2 * p), int(2 * q))))
                for u, v, w, a in draws:
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


class TestCellPasses:
    """The per-cell passes of ``bridge_check`` against the ``accumulate`` and
    ``pow`` forms they replaced, int for int."""

    def test_running_max_from_right(self):
        for xs in _cell_lists(1):
            _assert_same_ints(_running_max_from_right(xs), _running_max_reference(xs))

    @pytest.mark.parametrize("form", ["gop", "antigop"])
    def test_tail_sups(self, form):
        """Knots as ``bridge_check`` builds them: increasing from the left
        for gop, decreasing (the sums from the right) for antigop."""
        lists = list(_cell_lists(2))
        for U, A in zip(lists, lists[1:] + lists[:1]):
            A = list(islice(cycle(A), len(U)))
            knots = list(accumulate(A if form == "gop" else reversed(A), initial=0))
            knots = knots if form == "gop" else knots[::-1]
            _assert_same_ints(_tail_sups(U, knots), _tail_sups_reference(U, knots))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_integer_power_sum(self, k):
        rng = random.Random(k)
        lists = list(_cell_lists(3))
        for W, xs in zip(lists, lists[1:] + lists[:1]):
            xs = list(islice(cycle(xs), len(W)))
            sw, t = rng.randrange(0, 40), rng.randrange(0, 80)
            got, want = _power_sum(W, sw, xs, t, float(k)), _power_sum_reference(W, sw, xs, t, k)
            assert type(got) is F
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    @pytest.mark.parametrize("form", ["gop", "antigop"])
    def test_bridge_exact_shapes(self, form):
        """``bridge_check`` against the ``Fraction`` reference on the
        shapes of the bridge-exact benchmark: dyadic steps, n in {12, 24,
        48, 96}, q in {1, 2, 3}, and windows whose products ``u_k * F_k``
        repeat (constant ``u``, runs of zeros in ``a``) so that the suffix
        maxima tie."""
        rng = np.random.default_rng(30 if form == "gop" else 31)
        for n in (12, 24, 48, 96):
            for q in (1, 2, 3):
                start = int(rng.integers(-4, 5))
                u, v, w = (rand_dyadic_window(rng, n, start) for _ in range(3))
                a = rand_dyadic_window(rng, n, start, allow_zero=True)
                flat = Window(start, np.full(n, 0.5))
                runs = a.with_values(np.where(np.arange(n) % 4 < 2, 0.0, a.values))
                for args in ((u, v, w, a), (flat, v, flat, runs), (flat, flat, w, flat)):
                    res = bridge_check(*args, 1.0, float(q), form)
                    _assert_same_result(res, _bridge_exact_reference(*args, 1, q, form))


class TestRoot:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
    def test_true_root_lies_between_the_float_neighbours(self, k):
        """For exact powers ``x`` from 2**-1100 to 2**1100, ``r = _root(x,
        k)`` is within one ulp of the true root, decided in ``Fraction``
        arithmetic: ``prev(r)**k <= x <= next(r)**k``, an infinite
        neighbour bounding nothing.  A root taken as ``float(x) ** (1/k)``
        misses this by up to about 100 ulps near 2**+-1000, where the
        rounding of ``1/k`` is scaled by ``log x``."""
        rng = np.random.default_rng(k)
        for e in np.linspace(-1100, 1100, 89).round().astype(int).tolist():
            for _ in range(3):
                x = F(int(rng.integers(1, 2**62)), 2**61) * F(2) ** e
                r = _root(x, float(k))
                lo, hi = np.nextafter(r, 0.0), np.nextafter(r, math.inf)
                assert F(float(lo)) ** k <= x, (e, r)
                assert math.isinf(hi) or x <= F(float(hi)) ** k, (e, r)

    def test_q_one_rounds_once(self):
        """At q = 1 the root is the exact power rounded once, as ``float()``
        rounds it (inf past the float range): random values from 2**-1130
        to 2**1030, and subnormal ties, halfway between two subnormals and
        nudged towards the odd one, which a rounding to 53 bits and then to
        the subnormal's precision sends to the even one: it gave 0 for
        (2**54 + 1) / 2**1129."""
        rng = np.random.default_rng(1)
        xs = [F(2**54 + 1, 2**1129)]
        for e in range(-1130, 1031, 3):
            xs.append(F(int(rng.integers(1, 2**62)), int(rng.integers(1, 2**20)) | 1) * F(2) ** e)
        for bits in range(1, 52):
            j = int(rng.integers(2 ** (bits - 1), 2**bits)) if bits > 1 else 0
            xs.append(F((2 * j + 1) * 2**60 + (1 if j % 2 == 0 else -1), 2**1135))
        for x in xs:
            try:
                want = float(x)
            except OverflowError:
                want = math.inf
            assert _root(x, 1.0) == want, x


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
