import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardyseq.charformulas import char_linft_exact
from hardyseq.hardyops import (
    ANTIGOP,
    ANTIGOP_SUP,
    DUAL_ANTIGOP,
    DUAL_GOP,
    FORM_NAMES,
    GOP,
    GOP_SUP,
    RatioProblem,
    _ratio_batch,
    _sum_entries,
    antigop_psum,
    form_by_name,
    gop_psum,
    lhs,
    ratio,
)
from hardyseq.oracle import (
    FAST_CONFIG,
    _PRUNED,
    OracleConfig,
    _assemble_pool,
    _block_caps,
    _dirichlet_draws,
    _finish,
    _indicators,
    _offsets,
    _polish_top,
    _pool_ratios,
    _power_gradient,
    _power_steps,
    _spike_exact,
    _stack,
    _starts,
    brute_force_constant,
    brute_force_constants,
    chain_equivalence_sweep,
    chain_equivalence_sweeps,
    equivalence_ratio,
    equivalence_ratios,
    spike_oracle,
)
from hardyseq.seqcore import INF, Window

ONES2 = Window(0, (1.0, 1.0))


def rand_triple(rng, n, exponent=3.0):
    start = int(rng.integers(-4, 5))
    mk = lambda: Window(start, tuple(2.0 ** rng.uniform(-exponent, exponent, n)))
    return mk(), mk(), mk()


class TestSpikeOracle:
    def test_linft_example(self):
        u = Window(0, (2.0, 1.0))
        v = Window(0, (4.0, 1.0))
        prob = RatioProblem(u, v, ONES2, 1.0, INF, ANTIGOP_SUP)
        res = spike_oracle(prob)
        assert res.constant == 2.0
        assert res.certificate == "exact-spike"
        assert res.evaluations == 2

    def test_single_index(self):
        one = Window(0, (1.0,))
        prob = RatioProblem(one, one, one, 1.0, INF, ANTIGOP_SUP)
        assert spike_oracle(prob).constant == 1.0

    def test_zero_w_sup_problem(self):
        z = Window(0, (0.0, 0.0))
        prob = RatioProblem(ONES2, ONES2, z, 0.5, 2.0, ANTIGOP_SUP)
        assert spike_oracle(prob).constant == 0.0

    def test_non_sup_form_rejected(self):
        with pytest.raises(ValueError):
            spike_oracle(RatioProblem(ONES2, ONES2, ONES2, 1.0, 1.0, GOP))

    def test_p_above_one_rejected(self):
        with pytest.raises(ValueError):
            spike_oracle(RatioProblem(ONES2, ONES2, ONES2, 2.0, 2.0, GOP_SUP))

    @pytest.mark.parametrize("form", [GOP_SUP, ANTIGOP_SUP])
    def test_q_below_p_rejected(self, form):
        """For q < p spread-out candidates beat the spikes (antigop-sup at
        p = 0.5, q = 0.25 does so in a third of seeded instances), so the
        spike maximum answers nothing there."""
        with pytest.raises(ValueError, match="q >= p"):
            spike_oracle(RatioProblem(ONES2, ONES2, ONES2, 0.5, 0.25, form))

    def test_q_below_one_is_spike_exact(self):
        """The spike range is p <= min(1, q): q >= 1 is not needed."""
        prob = RatioProblem(ONES2, ONES2, ONES2, 0.5, 0.5, GOP_SUP)
        assert spike_oracle(prob).certificate == "exact-spike"

    def test_argmax_reevaluates_to_constant(self):
        rng = np.random.default_rng(1)
        u, v, w = rand_triple(rng, 6)
        prob = RatioProblem(u, v, w, 0.5, 2.0, ANTIGOP_SUP)
        res = spike_oracle(prob)
        assert ratio(prob, res.argmax) == res.constant

    def test_matches_exact_formula_on_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            start = int(rng.integers(-4, 5))
            u = Window(start, tuple(2.0 ** rng.uniform(-3, 3, n)))
            v = Window(start, tuple(2.0 ** rng.uniform(-3, 3, n)))
            p = float(rng.choice([0.25, 0.5, 1.0]))
            ones = Window(start, (1.0,) * n)
            prob = RatioProblem(u, v, ones, p, INF, ANTIGOP_SUP)
            exact = char_linft_exact(u, v, p)
            assert spike_oracle(prob).constant == pytest.approx(exact, rel=1e-9)

    def test_brute_force_is_the_spike_oracle_on_linft_draws(self):
        """On the linft suite's inputs (q = inf, p in {0.25, 0.5, 1}) the
        brute-force oracle is the spike oracle, bit for bit."""
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.choice([3, 5, 8]))
            start = int(rng.integers(-4, 5))
            u, v = (Window(start, 2.0 ** rng.uniform(-3, 3, n)) for _ in range(2))
            p = float(rng.choice([0.25, 0.5, 1.0]))
            prob = RatioProblem(u, v, Window(start, np.ones(n)), p, INF, ANTIGOP_SUP)
            brute, spike = brute_force_constant(prob, FAST_CONFIG), spike_oracle(prob)
            assert brute.constant.hex() == spike.constant.hex()
            assert brute.to_json() == spike.to_json()


class TestBruteForce:
    def test_unit_gop_example(self):
        prob = RatioProblem(ONES2, ONES2, ONES2, 1.0, 1.0, GOP)
        res = brute_force_constant(prob, FAST_CONFIG)
        assert res.constant >= 2.0
        assert res.certificate == "exact-spike"
        assert res.constant == pytest.approx(2.0, rel=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(3)
        u, v, w = rand_triple(rng, 6)
        prob = RatioProblem(u, v, w, 1.5, 0.8, GOP)
        cfg = OracleConfig(restarts=3, iterations=50, seed=42)
        r1 = brute_force_constant(prob, cfg)
        r2 = brute_force_constant(prob, cfg)
        assert r1.constant == r2.constant
        assert r1.argmax == r2.argmax
        assert r1.evaluations == r2.evaluations

    def test_single_index_window(self):
        one = Window(3, (2.0,))
        prob = RatioProblem(one, one, one, 1.0, 1.0, GOP)
        res = brute_force_constant(prob, OracleConfig(restarts=1, iterations=1))
        # ratio is candidate-independent by homogeneity
        assert res.constant == pytest.approx(ratio(prob, Window(3, (1.0,))))

    def test_zero_v_detected_as_infinite(self):
        v = Window(0, (1.0, 0.0))
        prob = RatioProblem(ONES2, v, ONES2, 1.0, 1.0, GOP)
        res = brute_force_constant(prob, FAST_CONFIG)
        assert res.constant == INF

    @pytest.mark.parametrize("p,q", [(2.0, 3.0), (1.0, 0.5)])
    def test_infinite_pool_skips_the_power_iteration(self, p, q):
        """Outside the spike range an infinite pool ratio leaves the power
        iteration an empty stack of problems."""
        v = Window(0, (1.0, 0.0))
        res = brute_force_constant(RatioProblem(ONES2, v, ONES2, p, q, GOP), FAST_CONFIG)
        assert res.constant == INF
        assert res.search == "power"

    @pytest.mark.parametrize("form,search", [(GOP, "power"), (GOP_SUP, "ascent")])
    def test_zero_pool_skips_the_polish(self, form, search):
        """Where every pool ratio is 0 the constant is exactly 0 (every
        spike has ratio 0), so the polish is skipped: 19 evaluations, the
        pool's 2 spikes, 1 block and 16 Dirichlet draws, and the first
        spike as the argmax."""
        zero = Window(0, (0.0, 0.0))
        res = brute_force_constant(RatioProblem(zero, ONES2, ONES2, 2.0, 3.0, form), FAST_CONFIG)
        assert res.search == search
        assert (res.constant, res.evaluations) == (0.0, 19)
        assert res.argmax.values.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize(
        "seed,form,p,q", [(0, GOP, 3.0, 2.0), (2, ANTIGOP, 3.0, 2.0), (4, GOP, 1.5, 0.8)]
    )
    def test_argmax_reevaluates_to_constant(self, seed, form, p, q):
        """``ratio`` is a one-row batch, so it gives the oracle's constant at
        its argmax bit for bit (these draws differed by one ulp when it
        evaluated a 1-D row)."""
        rng = np.random.default_rng(seed)
        u, v, w = (Window(0, 2.0 ** rng.uniform(-3, 3, 8)) for _ in range(3))
        prob = RatioProblem(u, v, w, p, q, form)
        res = brute_force_constant(prob, FAST_CONFIG)
        assert ratio(prob, res.argmax) == res.constant

    def test_lower_bound_soundness(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u, v, w = rand_triple(rng, 5)
            prob = RatioProblem(u, v, w, 2.0, 1.5, GOP)
            res = brute_force_constant(prob, FAST_CONFIG)
            for _ in range(20):
                a = Window(u.start, tuple(rng.uniform(0.01, 2, 5)))
                assert ratio(prob, a) <= res.constant * (1 + 1e-9)

    @pytest.mark.parametrize("form,spike_log2", [(GOP, 544), (ANTIGOP, 540)])
    def test_overflowing_dirichlet_rows_never_win(self, form, spike_log2):
        """A Dirichlet row pulled onto ``sum a^p v = 1`` overflows when v
        holds 2^-520 at p = 0.5; it is dropped to zero, so the constant and
        its argmax stay finite and the pool keeps its size."""
        u = Window(0, (2.0**-500, 2.0**-500))
        v = Window(0, (2.0**-520, 1.0))
        prob = RatioProblem(u, v, ONES2, 0.5, 0.25, form)
        res = brute_force_constant(prob, OracleConfig(restarts=2, iterations=40))
        assert math.isfinite(res.constant)
        assert res.constant >= 2.0**spike_log2
        assert res.certificate == "heuristic"
        assert res.evaluations == 62
        assert ratio(prob, res.argmax) == pytest.approx(res.constant, rel=1e-12)

    @pytest.mark.parametrize("form,p,q", [(GOP, 2.0, 3.0), (ANTIGOP_SUP, 2.0, 1.0)])
    @pytest.mark.parametrize("n,expected", [(1, 9), (2, 11), (5, 23)])
    def test_pool_composition(self, form, p, q, n, expected):
        """Spikes, blocks of two or more points, and per restart its
        Dirichlet draws (outside the spike range, where the full search
        runs); an ascent starts from its pool ratio, and the polished rows
        are not evaluated again."""
        u, v, w = rand_triple(np.random.default_rng(n), n)
        cfg = OracleConfig(restarts=2, iterations=0, dirichlet_per_restart=4)
        res = brute_force_constant(RatioProblem(u, v, w, p, q, form), cfg)
        blocks = n * (n - 1) // 2
        assert res.evaluations == n + blocks + 2 * 4 == expected

    def test_cached_pool_rows_are_read_only(self):
        """The spike and block indicators and the Dirichlet draws are cached
        read-only; a pool built after an earlier one was overwritten equals
        a fresh build."""
        rng = np.random.default_rng(71)
        probs = [RatioProblem(*rand_triple(rng, 7), 1.5, 0.8, GOP) for _ in range(3)]
        cfg = OracleConfig(restarts=3, iterations=10, seed=5, dirichlet_per_restart=4)
        first = _assemble_pool(probs, cfg)
        for cached in (_indicators(7), _dirichlet_draws(7, cfg)):
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0, 0] = 2.0
        first[...] = -1.0
        again = _assemble_pool(probs, cfg)
        _indicators.cache_clear()
        _dirichlet_draws.cache_clear()
        assert again.tobytes() == _assemble_pool(probs, cfg).tobytes()
        assert _indicators(7).dtype == bool

    def test_list_matches_each_problem_alone(self):
        """One call on a mixed list returns, in input order, the result each
        problem gets alone: constant, argmax, certificate and evaluations.
        The list mixes sizes, forms, (p, q) inside and outside the spike
        range, zero weights, and zeros in v that make ratios infinite."""
        rng = np.random.default_rng(31)
        forms = [GOP, ANTIGOP, DUAL_GOP, ANTIGOP_SUP, antigop_psum(0.5)]
        pqs = [(2.0, 3.0), (0.5, 1.0), (1.5, INF), (1.5, 0.8), (1.0, 0.5)]
        problems = []
        for i in range(120):
            n = int(rng.choice([1, 2, 5]))
            u, v, w = (Window(x.start, x.values * (rng.random(n) > 0.15))
                       for x in rand_triple(rng, n, exponent=6.0))
            if i % 3 == 0:
                v = Window(v.start, v.values * (np.arange(n) != rng.integers(n)))
            p, q = pqs[int(rng.integers(len(pqs)))]
            problems.append(RatioProblem(u, v, w, p, q, forms[int(rng.integers(len(forms)))]))
        cfg = OracleConfig(restarts=3, iterations=30, seed=4, dirichlet_per_restart=2)
        got = brute_force_constants(problems, cfg)
        assert len(got) == len(problems)
        assert {r.certificate for r in got} == {"exact-spike", "heuristic"}
        assert {r.search for r in got} == {"spike", "power", "ascent"}
        assert any(r.search == "power" and prob.p <= 1 for prob, r in zip(problems, got))
        assert any(math.isinf(r.constant) for r in got)
        for prob, res in zip(problems, got):
            alone = brute_force_constant(prob, cfg)
            assert res.constant.hex() == alone.constant.hex()
            assert res.argmax.start == alone.argmax.start
            assert res.argmax.values.tobytes() == alone.argmax.values.tobytes()
            assert res.certificate == alone.certificate
            assert res.evaluations == alone.evaluations
            assert res.search == alone.search
        assert brute_force_constants([], cfg) == []

    @pytest.mark.parametrize(
        "form", [GOP, ANTIGOP, GOP_SUP, ANTIGOP_SUP, gop_psum(1.0), antigop_psum(2.0)]
    )
    def test_spike_exact_regime_matches_spike_enumeration(self, form):
        """In the spike range the spikes alone are evaluated: ``n``
        evaluations, a spike argmax, and exactly the best spike ratio."""
        rng = np.random.default_rng(11)
        for _ in range(25):
            u, v, w = rand_triple(rng, 6)
            p = float(rng.choice([0.5, 1.0]))
            q = float(rng.choice([1.0, 2.0, INF]))
            prob = RatioProblem(u, v, w, p, q, form)
            res = brute_force_constant(prob, FAST_CONFIG)
            spike_best = float(_ratio_batch(prob, np.eye(6)).max())
            assert res.certificate == "exact-spike"
            assert res.constant == spike_best
            assert res.evaluations == 6
            assert sorted(res.argmax.values) == [0.0] * 5 + [1.0]

    @pytest.mark.parametrize("p,q", [(0.5, 0.75), (0.75, 0.8)])
    @pytest.mark.parametrize(
        "family", ["gop", "antigop", "gop-sup", "gop-psum", "antigop-psum"]
    )
    def test_spike_range_reaches_below_q_one(self, family, p, q):
        """With p <= q < 1 the spike maximum is still the answer: a
        4-restart, 200-iteration polish from the assembled pool never beats
        it by more than rounding."""
        form = {"gop": GOP, "antigop": ANTIGOP, "gop-sup": GOP_SUP,
                "gop-psum": gop_psum(p), "antigop-psum": antigop_psum(p)}[family]
        rng = np.random.default_rng(41)
        probs = [RatioProblem(*rand_triple(rng, 6), p, q, form) for _ in range(20)]
        results = brute_force_constants(probs, FAST_CONFIG)
        assert {(r.certificate, r.evaluations) for r in results} == {("exact-spike", 6)}
        cfg = OracleConfig(restarts=4, iterations=200)
        pool, weights = _assemble_pool(probs, cfg), _stack(probs)
        ratios = _ratio_batch(probs[0], pool, weights)
        _, best, _ = _polish_top(probs[0], pool, ratios, weights, cfg)
        found = np.maximum(ratios.max(axis=1), best.max(axis=1))
        for res, r in zip(results, found):
            assert r <= res.constant * (1 + 1e-12)

    @pytest.mark.parametrize(
        "form,p,q", [(gop_psum(0.25), 1.0, 2.0), (antigop_psum(0.5), 1.0, 1.0),
                     (gop_psum(0.25), 0.5, 1.0)]
    )
    def test_psum_below_p_is_not_spike_exact(self, form, p, q):
        """A powered sum with r < p is not convex in a^p, so the spikes can
        be beaten there and the result is only a heuristic lower bound."""
        rng = np.random.default_rng(19)
        u, v, w = rand_triple(rng, 6)
        prob = RatioProblem(u, v, w, p, q, form)
        res = brute_force_constant(prob, OracleConfig(restarts=4, iterations=200))
        spike_best = float(_ratio_batch(prob, np.eye(6)).max())
        assert res.certificate == "heuristic"
        assert res.constant > spike_best * (1 + 1e-6)


def _sequential_polish(problem, a0, cfg):
    """Reference: the coordinate ascent of one restart on its own."""
    n = problem.size
    a = a0.astype(float).copy()
    best = float(_ratio_batch(problem, a[None, :])[0])  # the pool's ratio
    evals = 0
    step = 0.5
    idx = np.arange(n)
    for _ in range(cfg.iterations):
        if step < 1e-12 or math.isinf(best):
            break
        probes = np.repeat(a[None, :], 2 * n, axis=0)
        probes[idx, idx] *= 1.0 + step
        probes[n + idx, idx] /= 1.0 + step
        r = _ratio_batch(problem, probes)
        evals += 2 * n
        k = int(np.argmax(r))
        if r[k] > best:
            best = float(r[k])
            a = probes[k]
        else:
            step *= 0.9
    return a, evals


def _search_reference(problems, cfg):
    """The search of a stack outside the spike range with every pool row
    evaluated: the reference for the pool evaluation that skips the blocks
    their caps rule out."""
    weights = _stack(problems)
    pool = _assemble_pool(problems, cfg)
    return _finish(problems, pool, _ratio_batch(problems[0], pool, weights), weights, cfg)


def _weights(rng, kind, n):
    """``(u, v, w)`` values: 2^U(+-3), with 30% zeros, 2^U(+-60), or constant
    (whose pool ratios tie exactly)."""
    if kind == "constant":
        return [np.full(n, c) for c in (1.0, 2.0, 0.5)]
    scale = 60.0 if kind == "wide" else 3.0
    out = [2.0 ** rng.uniform(-scale, scale, n) for _ in range(3)]
    if kind == "zeros":
        out = [x * (rng.random(n) > 0.3) for x in out]
    return out


class TestPrunedPool:
    @pytest.mark.parametrize("name", list(FORM_NAMES.values()))
    def test_matches_the_full_pool_evaluation(self, name):
        """Skipping the blocks whose caps lie below the polish's start rows
        changes no result, field by field, over stacks of one and three
        problems, n from 2 to 64, p > 1, q < p <= 1 and q = inf, zero,
        wide-range and constant weights; and it skips blocks."""
        rng = np.random.default_rng(sorted(FORM_NAMES.values()).index(name))
        pruned = 0
        for p, q in [(2.0, 3.0), (3.0, 2.0), (1.0, 0.5), (0.8, 0.3), (1.5, INF)]:
            form = form_by_name(name, float(rng.choice([0.5, 2.0])))
            for kind in ("plain", "zeros", "wide", "constant"):
                n = int(rng.choice([2, 5, 16, 32, 48, 64]))
                cfg = [FAST_CONFIG, OracleConfig(4, 20, 0, 8)][int(rng.integers(2))]
                start = int(rng.integers(-4, 5))
                probs = [RatioProblem(*(Window(start, x) for x in _weights(rng, kind, n)),
                                      p, q, form) for _ in range(int(rng.choice([1, 3])))]
                if _spike_exact(probs[0]):
                    continue
                weights, pool = _stack(probs), _assemble_pool(probs, cfg)
                starts = _starts(probs[0], cfg, pool.shape[1])
                pruned += int((_pool_ratios(probs[0], pool, weights, starts) == _PRUNED).sum())
                for got, want in zip(brute_force_constants(probs, cfg), _search_reference(probs, cfg)):
                    assert got.constant.hex() == want.constant.hex(), (p, q, kind, n)
                    assert got.argmax.start == want.argmax.start
                    assert got.argmax.values.tobytes() == want.argmax.values.tobytes()
                    assert got.certificate == want.certificate
                    assert got.search == want.search
                    assert got.evaluations == want.evaluations
        assert pruned > 0

    def test_ties_evaluate_every_block(self):
        """Constant weights tie pool ratios exactly, and ``np.argsort``
        orders equal ratios by every entry of the row; the blocks are then
        all evaluated, so the start rows are those of the full pool."""
        probs = [RatioProblem(*(Window(0, np.full(64, c)) for c in (1.0, 2.0, 0.5)), 2.0, 3.0, GOP)]
        cfg = OracleConfig(4, 80, 0, 8)
        weights, pool = _stack(probs), _assemble_pool(probs, cfg)
        full = _ratio_batch(probs[0], pool, weights)
        got = _pool_ratios(probs[0], pool, weights, _starts(probs[0], cfg, pool.shape[1]))
        assert got.tobytes() == full.tobytes()
        top = np.sort(full[0])[::-1][:17]
        assert (top[1:] == top[:-1]).any()  # the tie
        assert brute_force_constants(probs, cfg)[0] == _search_reference(probs, cfg)[0]

    def test_subnormal_sides_are_not_certified(self):
        """With u near 2^-400 and q near 2.6 the terms ``w E^q`` can be
        subnormal, whose rounding is far coarser than the margin: a bound
        without the range check falls below about one block ratio in ten
        here.  Such caps are inf, so those blocks are evaluated, and no
        finite cap is below its ratio."""
        rng = np.random.default_rng(3)
        uncertified = 0
        for _ in range(200):
            n = int(rng.integers(2, 8))
            u = 2.0 ** rng.uniform(-420, -380) * rng.choice([1.0, 1.0 + 2.0**-40], n)
            w = np.full(n, rng.uniform(0.5, 2.0))
            form = [GOP, ANTIGOP, DUAL_GOP, GOP_SUP][int(rng.integers(4))]
            probs = [RatioProblem(Window(0, u), Window(0, np.ones(n)), Window(0, w),
                                  2.0, float(rng.uniform(2.5, 2.8)), form)]
            weights = _stack(probs)
            caps = _block_caps(probs[0], weights)
            with np.errstate(under="ignore"):
                ratios = _ratio_batch(probs[0], _indicators(n)[None, n:].astype(float), weights)
            sure = np.isfinite(caps)
            uncertified += not sure.any()
            assert (ratios[sure] <= caps[sure]).all()
        assert uncertified > 50

    @given(
        st.integers(min_value=2, max_value=12),
        st.sampled_from(list(FORM_NAMES.values())),
        st.sampled_from([0.25, 0.5, 1.0, 2.0]),
        st.floats(min_value=0.05, max_value=8.0),
        st.one_of(st.floats(min_value=0.05, max_value=8.0), st.just(INF)),
        st.data(),
    )
    def test_block_ratios_stay_under_their_caps(self, n, name, r, p, q, data):
        """Every block row's ratio is at most its cap, margin included,
        wherever the cap is finite; weights 2^k, k in [-80, 80], with
        zeros and repeats.  Where a power leaves the float range the cap is
        inf, and the ratio's overflow is not what this test checks."""
        entry = st.one_of(st.just(0.0), st.integers(-80, 80).map(lambda k: 2.0**k),
                          st.floats(min_value=2.0**-80, max_value=2.0**80))
        probs = [
            RatioProblem(*(Window(0, data.draw(st.lists(entry, min_size=n, max_size=n)))
                           for _ in range(3)), p, q, form_by_name(name, r))
            for _ in range(data.draw(st.integers(min_value=1, max_value=2)))
        ]
        weights = _stack(probs)
        caps = _block_caps(probs[0], weights)
        blocks = np.broadcast_to(_indicators(n)[n:].astype(float), (len(probs), len(caps[0]), n))
        with np.errstate(over="ignore", invalid="ignore"):
            ratios = _ratio_batch(probs[0], np.ascontiguousarray(blocks), weights)
        sure = np.isfinite(caps)
        assert (ratios[sure] <= caps[sure]).all(), (ratios[sure], caps[sure])


class TestPolish:
    @pytest.mark.parametrize(
        "form,p,q",
        [(GOP, 2.0, 3.0), (ANTIGOP, 1.5, 0.8), (GOP_SUP, 0.5, 0.5),
         (ANTIGOP_SUP, 3.0, INF), (gop_psum(0.5), 0.8, 0.6), (antigop_psum(0.25), 1.0, 2.0)],
    )
    def test_lock_step_matches_sequential(self, form, p, q):
        """Polishing every restart of a stack of problems at once ends each
        one where it would end alone, bit for bit, with the same evaluation
        count per problem; each best ratio is its row's own ratio."""
        rng = np.random.default_rng(23)
        configs = [FAST_CONFIG, OracleConfig(restarts=5, iterations=120, seed=3),
                   OracleConfig(restarts=3, iterations=400, seed=9)]
        for trial in range(9):
            n = int(rng.integers(1, 13))
            probs = [RatioProblem(*rand_triple(rng, n), p, q, form)
                     for _ in range(int(rng.integers(1, 5)))]
            cfg = configs[trial % 3]
            pool = _assemble_pool(probs, cfg)
            ratios = _ratio_batch(probs[0], pool, _stack(probs))
            got, best, evals = _polish_top(probs[0], pool, ratios, _stack(probs), cfg)
            assert got.shape[0] == best.shape[0] == len(evals) == len(probs)
            for b, prob in enumerate(probs):
                want = [_sequential_polish(prob, pool[b, k], cfg)
                        for k in np.argsort(ratios[b])[::-1][: cfg.restarts]]
                assert got[b].tobytes() == np.array([a for a, _ in want]).tobytes()
                assert evals[b] == sum(e for _, e in want)
                assert best[b].tobytes() == _ratio_batch(prob, got[b]).tobytes()

    def test_infinite_row_freezes(self):
        """A row whose ratio is infinite stops at once; the others go on."""
        v = Window(0, (1.0, 0.0, 1.0))
        ones = Window(0, (1.0, 1.0, 1.0))
        prob = RatioProblem(ones, v, ones, 2.0, 2.0, GOP)
        pool = np.array([[[0.0, 1.0, 0.0], [1.0, 1.0, 1.0]]])
        cfg = OracleConfig(restarts=2, iterations=3)
        ratios = _ratio_batch(prob, pool)
        got, _, evals = _polish_top(prob, pool, ratios, _stack([prob]), cfg)
        assert got[0, 0].tolist() == [0.0, 1.0, 0.0]
        assert evals.tolist() == [3 * 6]


class TestPowerIteration:
    @pytest.mark.parametrize("form", [GOP, ANTIGOP, DUAL_GOP, DUAL_ANTIGOP])
    @pytest.mark.parametrize("q", [0.8, 2.0, 3.0])
    def test_gradient_matches_central_differences(self, form, q):
        """The gradient of ``lhs^q`` from the record positions of the outer
        scan matches central differences, also with zeros in u and w.  The
        gradient reads ``x = u * inner(a)`` and its outer scan, built here
        from ``a`` as the power loop keeps them, and flips nothing."""
        rng = np.random.default_rng(53)
        for _ in range(12):
            n = int(rng.integers(2, 10))
            u, v, w = (Window(x.start, x.values * (rng.random(n) > 0.25))
                       for x in rand_triple(rng, n))
            prob = RatioProblem(u, v, w, 2.0, q, form)
            a = rng.permutation(np.linspace(0.5, 2.0, n))  # distinct entries
            uu = u.as_array()[None, None]
            x, e = _sum_entries(uu, a[None, None], form)
            g = _power_gradient(form, q, uu, q * w.as_array(), x, e, None, _offsets(1, 1, n))[0, 0]
            fd = np.empty(n)
            for k in range(n):
                # rounding costs eps * lhs^q / h; truncation h^2 / a_k^2 relative
                h = 1e-4 * a[k]
                up, down = a.copy(), a.copy()
                up[k] += h
                down[k] -= h
                fd[k] = (lhs(prob, Window(u.start, up)) ** q
                         - lhs(prob, Window(u.start, down)) ** q) / (2 * h)
            np.testing.assert_allclose(g, fd, rtol=1e-6)

    @pytest.mark.parametrize("cfg", [FAST_CONFIG, OracleConfig(4, 80, 0, 8)])
    @pytest.mark.parametrize(
        "p,q", [(2.0, 3.0), (3.0, 2.0), (1.5, 0.8), (1.0, 0.5), (0.5, 0.25), (0.8, 0.3)]
    )
    @pytest.mark.parametrize("form", [GOP, ANTIGOP, DUAL_GOP, DUAL_ANTIGOP])
    def test_never_below_coordinate_ascent(self, form, p, q, cfg):
        """No power-iteration constant falls more than 1e-12 below the
        coordinate ascent run from the same pool, for p > 1 and for
        q < p <= 1.  Without its flip steps the plain iteration falls 1.9%
        below on one of these problems (gop, (3, 2), n = 16, the 4/80/8
        config)."""
        rng = np.random.default_rng(59)
        for n in (3, 5, 8, 16):
            probs = [RatioProblem(*rand_triple(rng, n), p, q, form) for _ in range(6)]
            results = brute_force_constants(probs, cfg)
            pool, weights = _assemble_pool(probs, cfg), _stack(probs)
            ratios = _ratio_batch(probs[0], pool, weights)
            _, best, _ = _polish_top(probs[0], pool, ratios, weights, cfg)
            reference = np.maximum(ratios.max(axis=1), best.max(axis=1))
            for res, ref in zip(results, reference):
                assert res.search == "power"
                assert res.constant >= ref * (1 - 1e-12)

    def test_stretched_extrapolation_converges(self):
        """For q < p <= 1 the step converges linearly, slowly where an
        entry heads to zero.  Here it falls 1.5e-10 below the coordinate
        ascent from the same pool with the extrapolations unstretched, and
        ends above it with the stretch."""
        u = Window(0, (0.41061, 7.35633, 0.214143, 4.681, 4.55308, 0.570029, 3.92902, 4.57055))
        v = Window(0, (3.0217, 4.75388, 1.51046, 0.596377, 3.88412, 0.126631, 0.167629, 6.68399))
        w = Window(0, (2.5776, 5.23661, 1.3161, 3.9615, 0.346983, 0.445186, 6.11342, 3.88494))
        prob = RatioProblem(u, v, w, 1.0, 0.9, ANTIGOP)
        cfg = OracleConfig(4, 80, 0, 8)
        pool, weights = _assemble_pool([prob], cfg), _stack([prob])
        ratios = _ratio_batch(prob, pool, weights)
        _, best, _ = _polish_top(prob, pool, ratios, weights, cfg)
        assert brute_force_constant(prob, cfg).constant >= best.max() * (1 - 1e-12)

    def test_toggles_leave_the_starting_face(self):
        """For q < p <= 1 the step never revives a zero entry.  Here the
        plain iteration ends on a face of the simplex 1.2% below the
        coordinate ascent from the same pool; restarted from the toggles of
        its best row it ends above the ascent."""
        u = Window(2, (1.04419, 0.203282, 2.68216, 0.594803, 1.36752, 0.769335, 0.330411, 2.17425))
        v = Window(2, (0.335967, 4.24947, 0.242011, 1.05733, 2.10544, 5.18841, 1.32097, 2.52482))
        w = Window(2, (0.257273, 1.16009, 2.87355, 3.08351, 0.226106, 0.308151, 0.165478,
                       0.963922))
        prob = RatioProblem(u, v, w, 1.0, 0.5, ANTIGOP)
        pool, weights = _assemble_pool([prob], FAST_CONFIG), _stack([prob])
        ratios = _ratio_batch(prob, pool, weights)
        _, best, _ = _polish_top(prob, pool, ratios, weights, FAST_CONFIG)
        assert brute_force_constant(prob, FAST_CONFIG).constant > best.max()

    @pytest.mark.parametrize("form", [GOP, ANTIGOP, DUAL_GOP, DUAL_ANTIGOP])
    def test_one_step_never_lowers_the_ratio(self, form):
        """For q < p <= 1 one plain step (the minorize-maximize step, no
        extrapolation) never lowers the ratio of a row, also where it
        changes the record set; rows hold zeros and spread over 2^+-4."""
        rng = np.random.default_rng(67)
        for p, q in [(1.0, 0.5), (0.5, 0.25), (0.8, 0.3), (1.0, 0.9), (0.3, 0.1)]:
            for n in (2, 3, 5, 8, 16):
                probs = [RatioProblem(*rand_triple(rng, n), p, q, form) for _ in range(6)]
                weights = _stack(probs)
                a = 2.0 ** rng.uniform(-4, 4, (len(probs), n)) * (rng.random((len(probs), n)) > 0.2)
                before = _ratio_batch(probs[0], a[:, None, :], weights)[:, 0]
                best = np.full(len(probs), -1.0)  # below every ratio: the row always moves
                assert _power_steps(probs[0], a, best, weights, 1).tolist() == [1] * len(probs)
                assert (best >= before * (1 - 1e-12)).all(), (p, q, n, best / before)

    @pytest.mark.parametrize(
        "form,p,q,search",
        [(GOP, 0.5, 1.0, "spike"), (ANTIGOP, 2.0, 3.0, "power"),
         (DUAL_GOP, 1.5, 0.8, "power"), (GOP, 2.0, INF, "ascent"),
         (GOP_SUP, 2.0, 3.0, "ascent"), (gop_psum(1.5), 2.0, 3.0, "ascent"),
         (GOP, 0.5, 0.25, "power")],
    )
    def test_search_is_reported(self, form, p, q, search):
        rng = np.random.default_rng(61)
        res = brute_force_constant(RatioProblem(*rand_triple(rng, 4), p, q, form), FAST_CONFIG)
        assert res.search == search
        assert res.to_json()["search"] == search


class TestConfig:
    @pytest.mark.parametrize(
        "field,value", [("restarts", 0), ("iterations", -5), ("dirichlet_per_restart", -1)]
    )
    def test_nonsense_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            OracleConfig(**{field: value})

    def test_zero_iterations_and_draws_allowed(self):
        cfg = OracleConfig(iterations=0, dirichlet_per_restart=0)
        res = brute_force_constant(RatioProblem(ONES2, ONES2, ONES2, 2.0, 3.0, GOP), cfg)
        assert res.evaluations == 3  # two spikes and the block [0, 1]


class TestEquivalenceRatio:
    def test_regime_iii_example(self):
        prob = RatioProblem(ONES2, ONES2, ONES2, 1.0, 1.0, GOP)
        eq = equivalence_ratio(prob, FAST_CONFIG)
        assert eq.formula == 3.0
        assert eq.brute == pytest.approx(2.0, rel=1e-12)
        assert eq.ratio == pytest.approx(1.5, rel=1e-12)
        assert not eq.sentinel

    def test_zero_weight_sentinel(self):
        z = Window(0, (0.0, 0.0))
        prob = RatioProblem(ONES2, ONES2, z, 1.0, 1.0, GOP)
        eq = equivalence_ratio(prob, FAST_CONFIG)
        assert eq.sentinel and eq.ratio == 1.0

    def test_zero_u_antigop_sentinel(self):
        z = Window(0, (0.0, 0.0))
        prob = RatioProblem(z, ONES2, ONES2, 1.0, 1.0, ANTIGOP)
        eq = equivalence_ratio(prob, FAST_CONFIG)
        assert eq.sentinel and eq.ratio == 1.0

    def test_sup_form_rejected(self):
        prob = RatioProblem(ONES2, ONES2, ONES2, 1.0, 1.0, GOP_SUP)
        with pytest.raises(ValueError):
            equivalence_ratio(prob, FAST_CONFIG)


class TestChainEquivalence:
    def test_zero_pool_skips_the_polish(self):
        """Outside the spike range a form whose pool ratios are all 0 is not
        polished, so the shared pool keeps its 19 rows."""
        z = Window(0, (0.0, 0.0))
        rep = chain_equivalence_sweep(z, ONES2, ONES2, 1.0, 0.5, FAST_CONFIG, "gop")
        assert (rep.a1, rep.a2, rep.a3, rep.sentinel) == (0.0, 0.0, 0.0, True)
        assert rep.pool_size == 19

    def test_p_one_collapses_a2_a3(self):
        rng = np.random.default_rng(13)
        u, v, w = rand_triple(rng, 5)
        rep = chain_equivalence_sweep(u, v, w, 1.0, 2.0, FAST_CONFIG, "antigop")
        assert rep.a2 == rep.a3
        assert rep.violations == 0

    @pytest.mark.parametrize("family", ["antigop", "gop", "simple"])
    def test_ordering_and_violations(self, family):
        rng = np.random.default_rng(17)
        for _ in range(15):
            u, v, w = rand_triple(rng, 6)
            p = float(rng.choice([0.25, 0.5, 1.0]))
            q = float(rng.choice([0.5, 1.0, 2.0]))
            rep = chain_equivalence_sweep(u, v, w, p, q, FAST_CONFIG, family)
            assert rep.violations == 0
            assert rep.a1 <= rep.a2 <= rep.a3
            assert rep.ratio31 >= 1.0 - 1e-12

    def test_sparse_polished_rows_keep_the_chain(self):
        """A polished row that is nearly one spike has equal sum and
        powered sum in exact arithmetic; rescaled to a maximum of 1 it keeps
        them equal in floating point too.  Unscaled, the row with entries
        2.3e-161 and 2.3e-7 here read A3 < A2 by one rounding."""
        u = Window(4, (0.17133772139638984, 4.552798517164253, 0.48633420393820587,
                       0.9593126232691314, 0.15426305325229286, 0.24058274388454412,
                       7.656465346488853, 0.13670367589791546))
        v = Window(4, (3.690226484856664, 6.161157919632118, 6.278835004021835,
                       0.7121769683268128, 0.1354383805142813, 0.8100229539283381,
                       7.36107132826964, 4.177809718969697))
        w = Window(4, (6.619182060634306, 0.2604638484784732, 4.171218539125834,
                       0.2997802939834708, 2.5383551275985954, 6.179869138272874,
                       0.29164831160183496, 0.12521581836413356))
        rep = chain_equivalence_sweep(u, v, w, 0.5, 0.25, FAST_CONFIG, "antigop")
        assert rep.violations == 0
        assert rep.a1 <= rep.a2 <= rep.a3

    def test_p_above_one_rejected(self):
        with pytest.raises(ValueError):
            chain_equivalence_sweep(ONES2, ONES2, ONES2, 1.5, 1.0, FAST_CONFIG)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            chain_equivalence_sweep(ONES2, ONES2, ONES2, 0.5, 1.0, FAST_CONFIG, "other")
