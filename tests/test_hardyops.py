import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardyseq.hardyops import (
    ANTIGOP,
    ANTIGOP_SUP,
    DUAL_GOP,
    FORM_NAMES,
    GOP,
    GOP_SUP,
    OperatorForm,
    RatioProblem,
    _chain_rows,
    _chain_tail,
    _ratio_batch,
    antigop_psum,
    apply_iterated,
    dual_problem,
    elementary_chain_check,
    form_by_name,
    gop_psum,
    lhs,
    ratio,
    rhs,
)
from hardyseq.oracle import FAST_CONFIG, brute_force_constant
from hardyseq.seqcore import INF, Window, _in_groups

U11 = Window(0, (1.0, 1.0))
A11 = Window(0, (1.0, 1.0))


class TestApplyIterated:
    def test_gop_example(self):
        assert tuple(apply_iterated(U11, A11, GOP).values) == (2.0, 2.0)

    def test_antigop_example(self):
        assert tuple(apply_iterated(U11, A11, ANTIGOP).values) == (2.0, 1.0)

    def test_zero_input(self):
        z = Window(0, (0.0, 0.0))
        for form in (GOP, ANTIGOP, GOP_SUP, ANTIGOP_SUP, gop_psum(0.5)):
            assert tuple(apply_iterated(U11, z, form).values) == (0.0, 0.0)

    def test_mismatched_windows(self):
        with pytest.raises(ValueError):
            apply_iterated(U11, Window(1, (1.0, 1.0)), GOP)

    def test_overflowing_entries_rejected(self):
        """An entry that overflows cannot form a window."""
        big = Window(0, (2.0**600, 1.0))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            apply_iterated(big, big, GOP)

    def test_overflow_is_named_where_lhs_and_ratio_saturate(self):
        """Finite weights near 2^(+-600) whose entry u_0 (a_0 + ...) is past
        the float range: the error names the overflow, and the sides of the
        same problem read inf instead of raising."""
        u = Window(0, (2.0**600, 2.0**-600, 1.0))
        a = Window(0, (2.0**600, 1.0, 2.0**-600))
        for form in (GOP, ANTIGOP, GOP_SUP, ANTIGOP_SUP):
            with pytest.raises(ValueError, match="overflow.*lhs and ratio saturate to inf"):
                apply_iterated(u, a, form)
            problem = RatioProblem(u, Window(0, (1.0, 1.0, 1.0)), u, 0.5, 2.0, form)
            assert lhs(problem, a) == INF
            assert ratio(problem, a) == INF

    def test_tail_outer_is_nonincreasing(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            u = Window(0, tuple(rng.uniform(0, 4, n)))
            a = Window(0, tuple(rng.uniform(0, 4, n)))
            for form in (GOP, ANTIGOP, ANTIGOP_SUP, antigop_psum(0.5)):
                out = apply_iterated(u, a, form).values
                assert all(x >= y for x, y in zip(out, out[1:]))

    def test_sup_inner_forms(self):
        u = Window(0, (2.0, 1.0, 3.0))
        a = Window(0, (1.0, 4.0, 2.0))
        # entry_n = sup_{i>=n} u_i * sup_{k<=i} a_k
        got = apply_iterated(u, a, GOP_SUP).values
        expect = []
        for n in range(3):
            best = 0.0
            for i in range(n, 3):
                best = max(best, u.values[i] * max(a.values[: i + 1]))
            expect.append(best)
        assert tuple(got) == tuple(expect)

    def test_psum_matches_direct_evaluation(self):
        rng = np.random.default_rng(5)
        p = 0.5
        for _ in range(30):
            n = int(rng.integers(1, 7))
            u = Window(0, tuple(rng.uniform(0.1, 4, n)))
            a = Window(0, tuple(rng.uniform(0.1, 4, n)))
            got = apply_iterated(u, a, antigop_psum(p)).values
            for k, val in enumerate(got):
                direct = max(
                    u.values[i] * sum(x**p for x in a.values[i:]) ** (1 / p)
                    for i in range(k, n)
                )
                assert val == pytest.approx(direct, rel=1e-12)


class TestSides:
    def test_lhs_example(self):
        prob = RatioProblem(U11, Window(0, (4.0, 1.0)), U11, 1.0, 1.0, GOP)
        assert lhs(prob, A11) == 4.0

    def test_lhs_zero_weight(self):
        prob = RatioProblem(U11, U11, Window(0, (0.0, 0.0)), 1.0, 1.0, GOP)
        assert lhs(prob, A11) == 0.0

    def test_rhs_examples(self):
        v = Window(0, (4.0, 1.0))
        assert rhs(v, 1.0, A11) == 5.0
        a = Window(0, (1.0, 2.0))
        assert rhs(v, 0.5, a) == pytest.approx((4 + math.sqrt(2)) ** 2, rel=1e-14)
        assert rhs(v, 1.0, Window(0, (0.0, 0.0))) == 0.0

    def test_ratio_example(self):
        prob = RatioProblem(U11, Window(0, (4.0, 1.0)), U11, 1.0, 1.0, GOP)
        assert ratio(prob, A11) == pytest.approx(4 / 5)

    def test_ratio_rejects_zero(self):
        prob = RatioProblem(U11, U11, U11, 1.0, 1.0, GOP)
        with pytest.raises(ValueError):
            ratio(prob, Window(0, (0.0, 0.0)))

    def test_ratio_is_one_batch_row(self):
        """ratio divides as _ratio_batch does, inf/inf included (NaN)."""
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            u, v, w, a = (Window(0, 2.0 ** rng.uniform(-3, 3, n)) for _ in range(4))
            prob = RatioProblem(u, v, w, 0.5, 2.0, ANTIGOP)
            assert ratio(prob, a) == _ratio_batch(prob, a.as_array()[None, :])[0]
        # rows whose final powers round differently as scalars and as arrays
        # (one ulp in about one row in ten), so a 1-D evaluation fails here
        n = 64
        mk = lambda: Window(0, 2.0 ** rng.uniform(-6, 6, n) * (rng.random(n) > 0.15))
        prob = RatioProblem(mk(), mk(), mk(), 0.7, 0.4, GOP)
        rows = 2.0 ** rng.uniform(-4, 4, (100, n)) * (rng.random((100, n)) > 0.2)
        rows[:, 0] += rows.sum(axis=1) == 0
        batch = _ratio_batch(prob, rows)
        assert [ratio(prob, Window(0, row)) for row in rows] == batch.tolist()
        one = lambda e: Window(0, (2.0**e,))
        prob = RatioProblem(one(600), one(-600), one(600), 3.0, 3.0, GOP)
        with np.errstate(over="ignore", invalid="ignore"):  # both sides overflow
            assert math.isnan(_ratio_batch(prob, one(400).as_array()[None, :])[0])
            assert math.isnan(ratio(prob, one(400)))

    def test_ratio_is_lhs_over_rhs(self):
        """``lhs`` and ``rhs`` evaluate one-row batches, as ``ratio`` does,
        so ``ratio`` is their quotient bit for bit: 250 random rows for
        each of the 12 forms.  A 1-D row would take the scalar libm pow for
        its final roots, one ulp off in about one row in ten."""
        rng = np.random.default_rng(12)
        for name in FORM_NAMES.values():
            for _ in range(250):
                n = int(rng.integers(1, 33))
                mk = lambda: Window(0, 2.0 ** rng.uniform(-6, 6, n) * (rng.random(n) > 0.15))
                u, v, w, a = mk(), Window(0, 2.0 ** rng.uniform(-6, 6, n)), mk(), mk()
                if not a.values.max() > 0:
                    continue
                p, q = ((0.7, 0.4), (2.0, 3.0), (0.5, 1.5), (1.5, INF))[int(rng.integers(4))]
                prob = RatioProblem(u, v, w, p, q, form_by_name(name, float(rng.choice([0.5, 2.0]))))
                assert ratio(prob, a).hex() == (lhs(prob, a) / rhs(v, p, a)).hex(), (name, p, q)

    def test_saturating_sides_run_without_warnings(self):
        """At weights 2^U(+-600) the sides pass the float range and
        saturate to inf on purpose (``entries**q``, ``a**p``, ``u * inner``
        and the quotient; inf/inf is NaN), so ``ratio``, ``lhs``, ``rhs``
        and ``brute_force_constant`` run clean with warnings as errors."""
        rng = np.random.default_rng(79)
        saturated = 0
        for k in range(30):
            n = int(rng.integers(2, 9))
            form = (GOP, ANTIGOP, DUAL_GOP, GOP_SUP, antigop_psum(0.5))[k % 5]
            p, q = ((2.0, 3.0), (3.0, 2.0), (1.0, 0.5), (0.5, 1.0))[k % 4]
            u, v, w, a = (Window(0, 2.0 ** rng.uniform(-600, 600, n)) for _ in range(4))
            prob = RatioProblem(u, v, w, p, q, form)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ratio(prob, a)
                sides = lhs(prob, a), rhs(v, p, a)
                brute_force_constant(prob, FAST_CONFIG)
            saturated += math.isinf(sides[0]) or math.isinf(sides[1])
        assert saturated >= 10

    def test_zero_times_saturated_inner_still_warns(self):
        """Only saturation and inf/inf are silenced: ``u * inner`` with
        ``u = 0`` and an inner sum past the float range is ``0 * inf``, and
        ``ratio`` warns there as ``lhs`` does."""
        a, one = Window(0, (1e308, 1e308)), Window(0, (1.0, 1.0))
        prob = RatioProblem(Window(0, (0.0, 0.0)), one, one, 2.0, 3.0, GOP)
        for side in (ratio, lhs):
            with pytest.warns(RuntimeWarning, match="invalid value"):
                side(prob, a)

    def test_ratio_scale_invariant_exact(self):
        prob = RatioProblem(U11, Window(0, (4.0, 1.0)), U11, 1.0, 1.0, GOP)
        base = ratio(prob, A11)
        for t in (0.5, 2.0, 128.0):
            assert ratio(prob, A11.scaled(t)) == pytest.approx(base, rel=1e-12)

    def test_q_infinity_weighted_sup(self):
        u = Window(0, (2.0, 1.0))
        prob = RatioProblem(u, U11, U11, 1.0, INF, ANTIGOP_SUP)
        a = Window(0, (0.0, 3.0))
        # entries: n=0: max over j of u_j * sup_{i>=j} a_i = 6; n=1: 3
        assert lhs(prob, a) == 6.0


def _chain_alone(a, p, n):
    """The chain of one probe on its 1-D tail, the root a 0-d power: the
    arithmetic of each probe before probes were batched, kept as the
    reference for the batch."""
    tail = a.as_array()[n - a.start:]
    s1 = float(np.maximum.reduce(tail))
    if s1 == 0.0:
        return 0.0, 0.0, 0.0
    r = tail / s1
    t1 = float(np.add.reduce(r))
    if p == 1.0 or np.count_nonzero(tail) <= 1:
        return s1, s1 * t1, s1 * t1
    return s1, s1 * t1, s1 * max(float(np.add.reduce(r**p) ** (1.0 / p)), t1)


def _chain_probes(rng, count):
    """Ragged probes: tail lengths 1-33, p = 1, 0.5 or in (0.05, 1), entries
    2^U(-3, 3) or near 2^(+-1000) with zeros, all-zero tails (some of -0.0)
    and tails with one nonzero entry."""
    probes = []
    for i in range(count):
        m = i % 33 + 1
        size = m + int(rng.integers(0, 4))
        kind = i % 4
        if kind == 0:
            vals = 2.0 ** rng.uniform(-3, 3, size)
        else:  # near 2^1000 or 2^-1000, both in one tail
            vals = 2.0 ** (rng.choice([-1.0, 1.0], size) * rng.uniform(990, 1000, size))
        vals[rng.random(size) < 0.3] = 0.0
        if kind == 2:
            vals[size - m:] = -0.0 if i % 8 == 2 else 0.0
        elif kind == 3:
            vals[size - m:] = 0.0
            vals[size - 1 - int(rng.integers(0, m))] = 2.0 ** rng.uniform(-1000, 1000)
        start = int(rng.integers(-4, 5))
        p = (1.0, 0.5, float(rng.uniform(0.05, 1.0)))[min(int(rng.integers(0, 10)), 2)]
        probes.append((Window(start, vals), p, start + size - m))
    return probes


class TestElementaryChain:
    def test_batch_equals_one_probe_bit_for_bit(self):
        """Each probe's tail, stacked with the others of its length into
        C-contiguous (B, m) rows of :func:`_chain_rows` as the sweep groups
        them, has the bits of its one-probe call and of its tail alone: every
        root a power of a Python float (a NumPy power of the batch's sums
        rounds differently in about 5% of values)."""
        probes = _chain_probes(np.random.default_rng(3), 1320)
        hexes = lambda triples: [tuple(x.hex() for x in t) for t in triples]
        rows = [(_chain_tail(*probe), probe[1]) for probe in probes]
        batch = hexes(_in_groups(rows, lambda row: len(row[0]), lambda group: _chain_rows(
            np.stack([tail for tail, _ in group]), np.array([p for _, p in group], dtype=float)
        )))
        assert batch == hexes(elementary_chain_check(*probe) for probe in probes)
        assert batch == hexes(_chain_alone(*probe) for probe in probes)

    def test_p_one_collapses(self):
        assert elementary_chain_check(A11, 1.0, 0) == (1.0, 2.0, 2.0)

    def test_single_spike_collapses(self):
        assert elementary_chain_check(Window(0, (2.0, 0.0)), 0.5, 0) == (2.0, 2.0, 2.0)

    def test_half_power_example(self):
        assert elementary_chain_check(A11, 0.5, 0) == (1.0, 2.0, 4.0)

    def test_p_above_one_rejected(self):
        with pytest.raises(ValueError):
            elementary_chain_check(A11, 1.5, 0)

    def test_index_outside_window(self):
        with pytest.raises(IndexError):
            elementary_chain_check(A11, 0.5, 7)

    @given(
        st.lists(st.floats(min_value=0, max_value=1e8), min_size=1, max_size=10),
        st.floats(min_value=0.01, max_value=1.0),
        st.data(),
    )
    def test_chain_ordering(self, vals, p, data):
        a = Window(0, tuple(vals))
        n = data.draw(st.integers(min_value=0, max_value=len(vals) - 1))
        s1, s2, s3 = elementary_chain_check(a, p, n)
        assert s1 <= s2 <= s3


class TestDuality:
    @pytest.mark.parametrize("form", [GOP, ANTIGOP, GOP_SUP, ANTIGOP_SUP])
    def test_dual_ratio_matches_on_reversed_candidates(self, form):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            start = int(rng.integers(-3, 4))
            mk = lambda: Window(start, tuple(2.0 ** rng.uniform(-2, 2, n)))
            prob = RatioProblem(mk(), mk(), mk(), 1.5, 2.0, form)
            a = Window(start, tuple(rng.uniform(0.01, 3, n)))
            d = dual_problem(prob)
            assert ratio(d, a.reversed()) == pytest.approx(ratio(prob, a), rel=1e-12)

    def test_dual_of_gop_is_dual_gop(self):
        assert dual_problem(RatioProblem(U11, U11, U11, 1, 1, GOP)).form == DUAL_GOP


class TestBatch:
    @pytest.mark.parametrize("name", sorted(set(FORM_NAMES.values())))
    def test_rows_do_not_depend_on_their_batch(self, name):
        """Each row of a batch gives the bits it gives evaluated alone, so
        the oracle may batch candidates freely."""
        for n in (1, 3, 8, 33):
            for k, (p, q, r) in enumerate([(0.5, 2.0, 0.5), (1.5, 3.0, 2.0), (2.0, INF, 0.3), (0.7, 0.4, 1.7)]):
                rng = np.random.default_rng((n, k))
                mk = lambda: Window(0, 2.0 ** rng.uniform(-3, 3, n))
                prob = RatioProblem(mk(), mk(), mk(), p, q, form_by_name(name, r))
                a = 2.0 ** rng.uniform(-4, 4, (70, n)) * (rng.random((70, n)) > 0.2)
                a[:, 0] += a.sum(axis=1) == 0
                alone = np.concatenate([_ratio_batch(prob, row[None, :]) for row in a])
                for height in (1, 2, 7, 16, 33, 70):
                    batch = _ratio_batch(prob, a[:height])
                    assert batch.tobytes() == alone[:height].tobytes()


    @pytest.mark.parametrize("name", sorted(set(FORM_NAMES.values())))
    def test_stacked_problems_match_each_alone(self, name):
        """Weights stacked to (B, 1, n) against candidates (B, K, n) give row
        b the bits of problem b evaluated alone, for stacks of 1 to 9."""
        for n in (1, 3, 8, 33):
            for k, (p, q, r) in enumerate([(0.5, 2.0, 0.5), (1.5, 3.0, 2.0), (2.0, INF, 0.3), (0.7, 0.4, 1.7)]):
                rng = np.random.default_rng((n, k, 7))
                mk = lambda: Window(0, 2.0 ** rng.uniform(-6, 6, n) * (rng.random(n) > 0.15))
                for height in (1, 2, 5, 9):
                    probs = [RatioProblem(mk(), mk(), mk(), p, q, form_by_name(name, r))
                             for _ in range(height)]
                    a = 2.0 ** rng.uniform(-4, 4, (height, 6, n)) * (rng.random((height, 6, n)) > 0.2)
                    a[:, :, 0] += a.sum(axis=2) == 0
                    weights = tuple(
                        np.stack([getattr(pr, x).as_array() for pr in probs])[:, None, :]
                        for x in "uvw"
                    )
                    with np.errstate(over="ignore"):
                        stacked = _ratio_batch(probs[0], a, weights)
                        alone = np.stack([_ratio_batch(pr, a[b]) for b, pr in enumerate(probs)])
                    assert stacked.shape == (height, 6)
                    assert stacked.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("name", sorted(set(FORM_NAMES.values())))
    def test_large_stacked_batches_match_each_row_alone(self, name):
        """A stacked batch of 134,400 entries, larger than any chunk of
        rows the oracle builds, is evaluated in one pass and gives each row
        the bits it gives alone, as a one-row batch.  The empty stack (0, 1,
        n) gives an empty result."""
        n, height, rows = 64, 3, 700
        for k, (p, q, r) in enumerate([(0.7, 0.4, 1.7), (2.0, INF, 0.3)]):
            rng = np.random.default_rng((n, k, 11))
            mk = lambda: Window(0, 2.0 ** rng.uniform(-6, 6, n) * (rng.random(n) > 0.15))
            probs = [RatioProblem(mk(), mk(), mk(), p, q, form_by_name(name, r))
                     for _ in range(height)]
            a = 2.0 ** rng.uniform(-4, 4, (height, rows, n)) * (rng.random((height, rows, n)) > 0.2)
            a[:, :, 0] += a.sum(axis=2) == 0
            weights = tuple(
                np.stack([getattr(pr, x).as_array() for pr in probs])[:, None, :] for x in "uvw"
            )
            with np.errstate(over="ignore"):
                stacked = _ratio_batch(probs[0], a, weights)
                alone = np.array([[_ratio_batch(pr, row[None])[0] for row in a[b]]
                                  for b, pr in enumerate(probs)])
            assert stacked.shape == (height, rows)
            assert stacked.tobytes() == alone.tobytes()
            empty = tuple(x[:0] for x in weights)
            assert _ratio_batch(probs[0], np.empty((0, 1, n)), empty).shape == (0, 1)


class TestMonotonicity:
    def test_lhs_nondecreasing_in_a_u_w(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(1, 8))
            u = Window(0, tuple(rng.uniform(0, 3, n)))
            v = Window(0, tuple(rng.uniform(0.1, 3, n)))
            w = Window(0, tuple(rng.uniform(0, 3, n)))
            a = Window(0, tuple(rng.uniform(0, 3, n)))
            form = [GOP, ANTIGOP, GOP_SUP, ANTIGOP_SUP][int(rng.integers(0, 4))]
            prob = RatioProblem(u, v, w, 0.7, 1.3, form)
            base = lhs(prob, a)
            k = int(rng.integers(0, n))
            bump = rng.uniform(0.1, 2.0)
            a2 = a.with_values([x + bump * (i == k) for i, x in enumerate(a.values)])
            u2 = u.with_values([x + bump * (i == k) for i, x in enumerate(u.values)])
            w2 = w.with_values([x + bump * (i == k) for i, x in enumerate(w.values)])
            assert lhs(prob, a2) >= base
            assert lhs(RatioProblem(u2, v, w, 0.7, 1.3, form), a) >= base
            assert lhs(RatioProblem(u, v, w2, 0.7, 1.3, form), a) >= base
            assert rhs(v, 0.7, a2) >= rhs(v, 0.7, a)


def test_form_by_name_round_trip():
    assert len(FORM_NAMES) == 12
    for name in FORM_NAMES.values():
        assert form_by_name(name).name == name
        assert form_by_name(name, r=0.5).name == name
    assert form_by_name("gop", r=0.5) == GOP
    assert form_by_name("gop-psum", r=0.5).inner_exponent == 0.5
    with pytest.raises(ValueError):
        form_by_name("nope")


@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_undefined_p_rejected(p):
    """p is a positive finite exponent; q = inf stays valid (the sup norm)."""
    with pytest.raises(ValueError, match="p must be positive and finite"):
        RatioProblem(U11, U11, U11, p, 2.0)
    with pytest.raises(ValueError, match="p must be positive and finite"):
        rhs(U11, p, A11)
    assert RatioProblem(U11, U11, U11, 2.0, math.inf).q == math.inf


def test_operator_form_validation():
    with pytest.raises(ValueError):
        OperatorForm("sideways", "sum", "left")
    with pytest.raises(ValueError):
        OperatorForm("tail", "sum", "up")
    with pytest.raises(ValueError):
        OperatorForm("tail", "psum", "left", -1.0)
