import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardyseq import oracle
from hardyseq.charformulas import char_antigop, char_gop, char_linft_exact
from hardyseq.hardyops import (
    ANTIGOP,
    ANTIGOP_SUP,
    DUAL_ANTIGOP,
    DUAL_GOP,
    FORM_NAMES,
    GOP,
    GOP_SUP,
    RatioProblem,
    _entries,
    _ratio_batch,
    antigop_psum,
    form_by_name,
    gop_psum,
    lhs,
    ratio,
)
from hardyseq.oracle import (
    FAST_CONFIG,
    _POWER_REACH,
    _PRUNED,
    OracleConfig,
    _block_caps,
    _block_ends,
    _chain_problems,
    _dirichlet_draws,
    _dirichlet_rows,
    _offsets,
    _polish,
    _pool_ratios,
    _pool_rows,
    _pool_size,
    _power_gradient,
    _power_steps,
    _power_top,
    _result,
    _spike_exact,
    _stack,
    _starts,
    _to_polish,
    brute_force_constant,
    brute_force_constants,
    chain_equivalence_sweep,
    chain_equivalence_sweeps,
    equivalence_ratio,
    equivalence_ratios,
    spike_oracle,
)
from hardyseq.seqcore import INF, Window, scan_max, scan_min, scan_sum

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

    def test_p_above_one_up_to_q(self):
        """A sup inner counts as r = inf, so its spike range is p <= q, with
        no p <= 1: at p = 2 the spike oracle answers q = 2 and q = 3 from
        the n spikes, and rejects q = 1.5."""
        rng = np.random.default_rng(2)
        u, v, w = rand_triple(rng, 5)
        for form in (GOP_SUP, ANTIGOP_SUP):
            for q in (2.0, 3.0):
                prob = RatioProblem(u, v, w, 2.0, q, form)
                res = spike_oracle(prob)
                assert (res.certificate, res.evaluations) == ("exact-spike", 5)
                assert res.constant == float(_ratio_batch(prob, np.eye(5)).max())
            with pytest.raises(ValueError, match="q >= p"):
                spike_oracle(RatioProblem(u, v, w, 2.0, 1.5, form))

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
        assert res.certificate == "heuristic"

    @pytest.mark.parametrize("form", [GOP, GOP_SUP])
    def test_zero_pool_skips_the_polish(self, form):
        """Where every pool ratio is 0 the constant is exactly 0 (every
        spike has ratio 0), so the polish is skipped: 19 evaluations, the
        pool's 2 spikes, 1 block and 16 Dirichlet draws, and the first
        spike as the argmax."""
        zero = Window(0, (0.0, 0.0))
        res = brute_force_constant(RatioProblem(zero, ONES2, ONES2, 3.0, 2.0, form), FAST_CONFIG)
        assert res.certificate == "heuristic"
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
        runs); the polish starts from their pool ratios, and with no steps
        evaluates only the ``n`` toggles of its best row where ``p <= r``
        (the sup form here)."""
        u, v, w = rand_triple(np.random.default_rng(n), n)
        cfg = OracleConfig(restarts=2, iterations=0, dirichlet_per_restart=4)
        res = brute_force_constant(RatioProblem(u, v, w, p, q, form), cfg)
        blocks = n * (n - 1) // 2
        toggles = n if form.inner_kind == "sup" else 0
        assert res.evaluations - toggles == n + blocks + 2 * 4 == expected

    def test_cached_pool_rows_are_read_only(self):
        """The block ends and the Dirichlet draws are cached read-only; rows
        built after earlier ones were overwritten equal a fresh build and
        the full pool, shared indices or one set per problem."""
        rng = np.random.default_rng(71)
        probs = [RatioProblem(*rand_triple(rng, 7), 1.5, 0.8, GOP) for _ in range(3)]
        cfg = OracleConfig(restarts=3, iterations=10, seed=5, dirichlet_per_restart=4)
        drawn = lambda: _dirichlet_rows(probs[0], _stack(probs), cfg)
        every = np.arange(_pool_size(drawn()))
        first = _pool_rows(drawn(), every)
        for cached in (*_block_ends(7), _dirichlet_draws(7, cfg)):
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[(0,) * cached.ndim] = 2
        first[...] = -1.0
        again = _pool_rows(drawn(), every)
        _block_ends.cache_clear()
        _dirichlet_draws.cache_clear()
        assert again.tobytes() == _pool_rows(drawn(), every).tobytes()
        assert again.tobytes() == _full_pool(probs, cfg).tobytes()
        picked = rng.integers(len(every), size=(len(probs), 9))
        want = np.take_along_axis(_full_pool(probs, cfg), picked[:, :, None], axis=1)
        assert _pool_rows(drawn(), picked).tobytes() == want.tobytes()

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
        assert any(r.certificate == "heuristic" and prob.p <= 1 for prob, r in zip(problems, got))
        assert any(math.isinf(r.constant) for r in got)
        for prob, res in zip(problems, got):
            alone = brute_force_constant(prob, cfg)
            assert res.constant.hex() == alone.constant.hex()
            assert res.argmax.start == alone.argmax.start
            assert res.argmax.values.tobytes() == alone.argmax.values.tobytes()
            assert res.certificate == alone.certificate
            assert res.evaluations == alone.evaluations
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
        ratios, best = _ascent_reference(probs, OracleConfig(restarts=4, iterations=200))
        found = np.maximum(ratios.max(axis=1), best.max(axis=1))
        for res, r in zip(results, found):
            assert r <= res.constant * (1 + 1e-12)

    @pytest.mark.parametrize(
        "form,p,q",
        [(GOP_SUP, 2.0, 3.0), (ANTIGOP_SUP, 3.0, 3.0), (form_by_name("dual-gop-sup"), 1.5, 8.0),
         (gop_psum(3.0), 2.0, 3.0), (antigop_psum(4.0), 3.0, 5.0),
         (form_by_name("dual-antigop-psum", 2.0), 1.5, INF)],
    )
    def test_spike_range_is_p_at_most_min_r_q(self, form, p, q):
        """The spike range is ``p <= min(r, q)``, a sup counting as r = inf,
        with no ``p <= 1``: these problems read ``exact-spike`` from their
        ``n`` spikes, and a 4-restart, 200-iteration coordinate ascent from
        the assembled pool never beats them by more than rounding."""
        rng = np.random.default_rng(43)
        probs = [RatioProblem(*rand_triple(rng, 6), p, q, form) for _ in range(10)]
        results = brute_force_constants(probs, FAST_CONFIG)
        assert {(r.certificate, r.evaluations) for r in results} == {("exact-spike", 6)}
        ratios, best = _ascent_reference(probs, OracleConfig(restarts=4, iterations=200))
        found = np.maximum(ratios.max(axis=1), best.max(axis=1))
        for prob, res, r in zip(probs, results, found):
            assert res.constant == float(_ratio_batch(prob, np.eye(6)).max())
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


def _block_rows(n):
    """Reference: the indicator of every block ``[m1, m2]``, ``m1 < m2``,
    ordered by ``m1``, then ``m2``; shape (n(n-1)/2, n)."""
    rows = []
    for m1 in range(n):
        for m2 in range(m1 + 1, n):
            row = np.zeros(n)
            row[m1 : m2 + 1] = 1.0
            rows.append(row)
    return np.array(rows).reshape(-1, n)


def _full_pool(problems, cfg):
    """Reference: the whole pool (B, P, n) of same-size problems that share
    ``p``, row by row: the spikes, the blocks, then each problem's Dirichlet
    draws pulled onto ``sum a^p v = 1``, a row that overflows there set to
    zero."""
    n, p = problems[0].size, problems[0].p
    shared = np.concatenate([np.eye(n), _block_rows(n)])
    pools = []
    for prob in problems:
        v = np.where(prob.v.as_array() > 0, prob.v.as_array(), 1.0)
        drawn = []
        for x in _dirichlet_draws(n, cfg):
            with np.errstate(over="ignore"):
                row = (x / v) ** (1.0 / p)
            drawn.append(row if np.isfinite(row).all() else np.zeros(n))
        pools.append(np.concatenate([shared, np.array(drawn).reshape(-1, n)]))
    return np.array(pools)


def _start_rows(pool, ratios, count):
    """The ``count`` best rows of each problem's full pool, best first, and
    their ratios."""
    top = np.argsort(ratios, axis=1)[:, ::-1][:, :count]
    return np.take_along_axis(pool, top[:, :, None], axis=1), np.take_along_axis(ratios, top, axis=1)


def _polish_reference(problem, pool, ratios, weights, cfg):
    """The polish of a stack from its full pool and pool ratios."""
    a, best = _start_rows(pool, ratios, _starts(cfg, ratios.shape[1]))
    return _power_top(problem, a, best, weights, cfg)


def _ascent_top(problem, a, best, weights, cfg):
    """Reference: the multiplicative coordinate ascent, the oracle's polish
    before the power step took every form, from the start rows ``a`` (B, R,
    n) with ratios ``best`` (B, R) of B stacked problems, all rows in
    lock-step; ``a`` and ``best`` are updated in place.  Returns
    ``(polished, best, evals)``.

    Each iteration evaluates the ``2n`` one-coordinate probes ``a_k (1 +
    step)^(+-1)`` of every active row in one batch.  A row moves to its
    best probe if that beats its best ratio, and otherwise shrinks its step
    by 0.9 (from 0.5); it freezes once its step falls below 1e-12 or its
    best ratio is infinite.
    """
    b, rows_per, n = a.shape
    a, best = a.reshape(-1, n), best.reshape(-1)
    step = np.full(len(a), 0.5)
    moves = np.zeros(len(a), dtype=int)  # active iterations per row
    idx = np.arange(n)
    rows, ran = np.arange(len(a)), 0
    live_uvw = weights[:, rows // rows_per]  # each row's problem
    for _ in range(cfg.iterations):
        live = np.flatnonzero((step >= 1e-12) & ~np.isinf(best))
        if len(live) < len(rows):  # the active set only shrinks
            moves[rows] += ran
            rows, ran = live, 0
            live_uvw = weights[:, rows // rows_per]
        if not len(rows):
            break
        ran += 1
        base, grow = a[rows], 1.0 + step[rows, None]
        probes = np.repeat(base[:, None, :], 2 * n, axis=1)
        probes[:, idx, idx] = base * grow
        probes[:, n + idx, idx] = base / grow
        r = _ratio_batch(problem, probes, live_uvw)
        k = np.argmax(r, axis=1)
        top = r[np.arange(len(rows)), k]
        up = top > best[rows]
        best[rows[up]] = top[up]
        a[rows[up]] = probes[up, k[up]]
        step[rows[~up]] *= 0.9
    moves[rows] += ran
    evals = 2 * n * moves.reshape(b, rows_per).sum(axis=1)
    return a.reshape(b, rows_per, n), best.reshape(b, rows_per), evals


def _ascent_reference(problems, cfg):
    """The full pool ratios (B, P) of a stack, and the best ratios (B, R) of
    the coordinate ascent (:func:`_ascent_top`) from its ``cfg.restarts``
    best rows."""
    pool, weights = _full_pool(problems, cfg), _stack(problems)
    ratios = _ratio_batch(problems[0], pool, weights)
    a, best = _start_rows(pool, ratios, cfg.restarts)
    return ratios, _ascent_top(problems[0], a, best, weights, cfg)[1]


def _search_reference(problems, cfg):
    """The search of a stack outside the spike range with every row of the
    full pool evaluated: the reference for the pool rows built by index and
    for the pool evaluation that skips the blocks their caps rule out."""
    weights, pool = _stack(problems), _full_pool(problems, cfg)
    ratios = _ratio_batch(problems[0], pool, weights)
    fin = _to_polish(problems[0], ratios)
    if fin.any():
        extra, best, used = _polish_reference(
            problems[0], pool[fin], ratios[fin], weights[:, fin], cfg
        )
    out, j = [], 0
    for i, prob in enumerate(problems):
        rows, r, evals = pool[i], ratios[i], pool.shape[1]
        if fin[i]:
            rows, r = np.concatenate([rows, extra[j]]), np.concatenate([r, best[j]])
            evals, j = evals + used[j], j + 1
        k = int(np.argmax(r))
        out.append(_result(prob, rows[k], r[k], evals))
    return out


def _literal_triple(u, v, w, p, q, family):
    """The chain triple with the powered sum as the psum(p) form, also at
    p = 1, where :func:`_chain_problems` gives it the sum form."""
    sup, total, _ = _chain_problems(u, v, w, p, q, family)
    psum = (gop_psum if family == "gop" else antigop_psum)(p)
    return sup, total, RatioProblem(total.u, v, w, p, q, psum)


def _chain_reference(instances, cfg):
    """Chain reports of instances that share forms, ``p``, ``q`` and size,
    from the full pool: every row for all three forms of the literal triple
    (:func:`_literal_triple`), then each form's polished rows, every
    candidate evaluated for all three forms."""
    items = [(inst[5], _literal_triple(*inst)) for inst in instances]
    refs = items[0][1]
    sups = [probs[0] for _, probs in items]
    weights, pool = _stack(sups), _full_pool(sups, cfg)
    candidates = [list(rows) for rows in pool]
    for ref in refs:
        r = _ratio_batch(ref, pool, weights)
        fin = _to_polish(ref, r)
        if fin.any():
            polished = _polish_reference(ref, pool[fin], r[fin], weights[:, fin], cfg)[0]
            for i, rows in zip(np.flatnonzero(fin), polished):
                candidates[i].extend(rows)
    out = []
    for i, (family, _) in enumerate(items):
        a, one = np.array(candidates[i])[None], weights[:, i : i + 1]
        r1, r2, r3 = (_ratio_batch(ref, a, one)[0] for ref in refs)
        a1, a2, a3 = float(r1.max()), float(r2.max()), float(r3.max())
        out.append({"family": family, "A1": a1, "A2": a2, "A3": a3,
                    "violations": int(np.sum((r1 > r2) | (r2 > r3))), "pool_size": len(r1)})
    return out


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


def _check_gradient(rng, form, q):
    """``g a^(r-1)`` of :func:`_power_gradient` against central differences
    of ``lhs^q`` (of ``lhs`` at ``q = inf``, both scaled to a maximum of 1
    there) on 12 problems with zeros in u and w, at distinct entries of
    ``a``."""
    r = q if form.inner_kind == "sup" else form.inner_exponent if form.inner_kind == "psum" else 1.0
    power = 1.0 if math.isinf(q) else q
    for _ in range(12):
        n = int(rng.integers(2, 10))
        u, v, w = (Window(x.start, x.values * (rng.random(n) > 0.25))
                   for x in rand_triple(rng, n))
        prob = RatioProblem(u, v, w, 2.0, q, form)
        a = rng.permutation(np.linspace(0.5, 2.0, n))  # distinct entries
        uu, ww = u.as_array()[None, None], w.as_array()[None, None]
        x, e = _entries(uu, a[None, None], form)
        wq = ww if math.isinf(q) else q * ww
        g = _power_gradient(prob, r, uu**r, wq, a[None], x, e, None, _offsets(1, 1, n))[0, 0]
        g = g * a ** (r - 1.0)
        fd = np.empty(n)
        for k in range(n):
            # rounding costs eps * lhs^q / h; truncation h^2 / a_k^2 relative
            h = 1e-4 * a[k]
            up, down = a.copy(), a.copy()
            up[k] += h
            down[k] -= h
            fd[k] = (lhs(prob, Window(u.start, up)) ** power
                     - lhs(prob, Window(u.start, down)) ** power) / (2 * h)
        if math.isinf(q) and fd.max() > 0:
            g, fd = g / g.max(), fd / fd.max()
        np.testing.assert_allclose(g, fd, rtol=1e-6)


def _q_inf_exact(problem):
    """The least constant of a sum-form problem at ``q = inf``, ``p > 1``,
    all weights positive: ``max_i W_i u_i D_i``, with ``W_i`` the largest
    ``w_n`` whose outer range holds ``i`` (a running max from the left for
    a tail outer) and ``D_i = (sum_{k in I(i)} v_k^(1/(1-p)))^((p-1)/p)``,
    the dual norm in l^p(v) of the inner sum at ``i``."""
    u, v, w = (x.as_array() for x in (problem.u, problem.v, problem.w))
    p, form = problem.p, problem.form
    d = scan_sum(v ** (1.0 / (1.0 - p)), form.inner_dir == "right") ** ((p - 1.0) / p)
    return float((scan_max(w, form.outer == "head") * u * d).max())


def _spike_max(problem):
    """The best single spike, one evaluation per index."""
    pool = np.eye(problem.size)
    ratios = _ratio_batch(problem, pool)
    k = int(np.argmax(ratios))
    return _result(problem, pool[k], ratios[k], len(pool))


class TestSpikeRange:
    def test_spike_rows_of_the_pool_match_the_spike_maximum(self):
        """In the spike range the search evaluates the pool's spike rows
        of a whole stack; every result equals that of ``_spike_max`` (an
        identity matrix evaluated per problem), field by field: every form
        inside the range, finite q and q = inf, stacks of 1-4, zero,
        2^+-60 and constant weights, n in {1, 2, 5, 16, 64}."""
        rng = np.random.default_rng(41)
        sizes, tried = (1, 2, 5, 16, 64), 0
        for name in FORM_NAMES.values():
            for p, q in [(0.5, 2.0), (1.0, 1.0), (0.7, INF)]:
                form = form_by_name(name, float(rng.choice([1.0, 2.5])))
                for kind in ("plain", "zeros", "wide", "constant"):
                    n, b = sizes[tried % 5], 1 + tried % 4
                    start = int(rng.integers(-4, 5))
                    probs = [RatioProblem(*(Window(start, x) for x in _weights(rng, kind, n)),
                                          p, q, form) for _ in range(b)]
                    assert _spike_exact(probs[0])
                    tried += 1
                    for got, want in zip(brute_force_constants(probs, FAST_CONFIG),
                                         map(_spike_max, probs)):
                        assert got.constant.hex() == want.constant.hex(), (name, p, q, kind, n)
                        assert got.argmax.start == want.argmax.start
                        assert got.argmax.values.tobytes() == want.argmax.values.tobytes()
                        assert got.evaluations == want.evaluations == n
                        assert got.certificate == want.certificate
                        if form.inner_kind == "sup":
                            assert spike_oracle(probs[0]) == _spike_max(probs[0])
        assert tried == 144


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
                weights = _stack(probs)
                drawn = _dirichlet_rows(probs[0], weights, cfg)
                starts = _starts(cfg, _pool_size(drawn))
                pruned += int((_pool_ratios(probs[0], drawn, weights, starts) == _PRUNED).sum())
                for got, want in zip(brute_force_constants(probs, cfg), _search_reference(probs, cfg)):
                    assert got.constant.hex() == want.constant.hex(), (p, q, kind, n)
                    assert got.argmax.start == want.argmax.start
                    assert got.argmax.values.tobytes() == want.argmax.values.tobytes()
                    assert got.certificate == want.certificate
                    assert got.evaluations == want.evaluations
        assert pruned > 0

    def test_ties_evaluate_every_block(self):
        """Constant weights tie pool ratios exactly, and ``np.argsort``
        orders equal ratios by every entry of the row; the blocks are then
        all evaluated, so the start rows are those of the full pool."""
        probs = [RatioProblem(*(Window(0, np.full(64, c)) for c in (1.0, 2.0, 0.5)), 2.0, 3.0, GOP)]
        cfg = OracleConfig(4, 80, 0, 8)
        weights = _stack(probs)
        drawn = _dirichlet_rows(probs[0], weights, cfg)
        full = _ratio_batch(probs[0], _full_pool(probs, cfg), weights)
        got = _pool_ratios(probs[0], drawn, weights, _starts(cfg, _pool_size(drawn)))
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
                ratios = _ratio_batch(probs[0], _block_rows(n)[None], weights)
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
        blocks = np.broadcast_to(_block_rows(n), (len(probs), len(caps[0]), n))
        with np.errstate(over="ignore", invalid="ignore"):
            ratios = _ratio_batch(probs[0], np.ascontiguousarray(blocks), weights)
        sure = np.isfinite(caps)
        assert (ratios[sure] <= caps[sure]).all(), (ratios[sure], caps[sure])


class TestPoolByIndex:
    @pytest.mark.parametrize("family", ["gop", "antigop", "simple"])
    def test_chain_sweeps_match_the_full_pool(self, family):
        """Chain reports from pool rows built chunk by chunk equal, field by
        field, those from the full pool: stacks of one and three, n from 2
        to 64, q < p <= 1 and the spike range p <= q, zero, wide-range and
        constant weights."""
        rng = np.random.default_rng(["gop", "antigop", "simple"].index(family))
        for p, q in [(1.0, 0.5), (0.8, 0.3), (0.5, 1.0)]:
            for kind in ("plain", "zeros", "wide", "constant"):
                n = int(rng.choice([2, 5, 16, 32, 64]))
                cfg = [FAST_CONFIG, OracleConfig(4, 20, 0, 8)][int(rng.integers(2))]
                insts = [(*(Window(0, x) for x in _weights(rng, kind, n)), p, q, family)
                         for _ in range(int(rng.choice([1, 3])))]
                for got, want in zip(chain_equivalence_sweeps(insts, cfg), _chain_reference(insts, cfg)):
                    got = got.to_json()
                    for key in ("A1", "A2", "A3"):
                        assert got[key].hex() == want[key].hex(), (p, q, kind, n, key)
                    for key in ("family", "violations", "pool_size"):
                        assert got[key] == want[key], (p, q, kind, n, key)

    @pytest.mark.parametrize("form,p,q", [(GOP, 2.0, 3.0), (ANTIGOP, 1.0, 0.5)])
    def test_traced_peak_at_n_256(self, form, p, q):
        """Rows are built per chunk from their index, so a search at
        n = 256 holds O(n^2) floats: its traced peak stays under 32 MB.
        With every one of the 32,896 spike and block rows held as floats
        and as bools it was 80 MB for gop and 90 MB for antigop."""
        rng = np.random.default_rng(1)
        prob = RatioProblem(*(Window(0, 2.0 ** rng.uniform(-3, 3, 256)) for _ in range(3)),
                            p, q, form)
        _block_ends.cache_clear()
        _dirichlet_draws.cache_clear()
        tracemalloc.start()
        try:
            res = brute_force_constant(prob, OracleConfig(4, 80, 0, 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.certificate == "heuristic"
        assert peak < 32 * 2**20, peak / 2**20

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_pool_rows_match_their_ends(self, n):
        """Each pool row is the indicator of its ends ``[start, stop)`` or
        its problem's Dirichlet row: (K,) and (B, K) indices, unsorted and
        repeated, stacks of one and three, with and without Dirichlet
        rows."""
        rng = np.random.default_rng(n)
        start, stop = _block_ends(n)
        for b, d in [(1, 0), (3, 0), (1, 4), (3, 5)]:
            drawn = rng.random((b, d, n))
            size = len(start) + d
            for at in (rng.integers(size, size=9), rng.integers(size, size=(b, 9)),
                       np.arange(size)[::-1], np.full(4, size - 1)):
                got = _pool_rows(drawn, at)
                assert got.shape == (b, at.shape[-1], n) and got.flags.c_contiguous
                for i, row in enumerate(np.broadcast_to(at, (b, at.shape[-1]))):
                    for j, k in enumerate(row):
                        if k < len(start):
                            want = np.zeros(n)
                            want[start[k] : stop[k]] = 1.0
                        else:
                            want = drawn[i, k - len(start)]
                        assert got[i, j].tobytes() == want.tobytes(), (b, d, i, j, k)

    @pytest.mark.parametrize("name", ["gop", "antigop-sup", "dual-gop-psum"])
    def test_sub_stack_rows_match_each_problem_alone(self, name):
        """A boolean sub-stack ``weights[:, sel]`` gives every selected
        problem the ``_ratio_batch`` bits of its rows evaluated alone,
        batches above a pool chunk included."""
        rng = np.random.default_rng(len(name))
        for n, k in [(1, 3), (5, 7), (40, 200)]:  # 3 x 200 x 40 entries > 2^14
            probs = [RatioProblem(*rand_triple(rng, n), 0.7, 2.5, form_by_name(name, 0.5))
                     for _ in range(5)]
            sel = np.array([True, False, True, True, False])
            a = 2.0 ** rng.uniform(-3, 3, (sel.sum(), k, n)) * (rng.random((sel.sum(), k, n)) > 0.2)
            got = _ratio_batch(probs[0], a, _stack(probs)[:, sel])
            for row, i in enumerate(np.flatnonzero(sel)):
                assert got[row].tobytes() == _ratio_batch(probs[i], a[row]).tobytes(), (n, i)


class TestContiguousRows:
    """``_ratio_batch`` evaluates a batch in one pass on the rows it is
    given, which must be C-contiguous: the SIMD path of a power may round
    differently on a strided view.  Every caller builds them so."""

    @pytest.fixture
    def batches(self, monkeypatch):
        """The (shape, C-contiguous) of every ``_ratio_batch`` call."""
        seen = []

        def spy(problem, a, weights=None):
            seen.append((a.shape, a.flags.c_contiguous))
            return _ratio_batch(problem, a, weights)

        monkeypatch.setattr("hardyseq.oracle._ratio_batch", spy)
        monkeypatch.setattr("hardyseq.hardyops._ratio_batch", spy)
        return seen

    @pytest.mark.parametrize("p,q", [(2.0, 3.0), (1.0, 0.5)])
    def test_stack_of_three(self, batches, p, q):
        """A 64-entry problem in a stack of three, as in the CI step, whose
        argmax ``ratio`` re-evaluates to its constant."""
        rng = np.random.default_rng(2)
        probs = [RatioProblem(*(Window(0, 2.0 ** rng.uniform(-3, 3, 64)) for _ in "uvw"), p, q, GOP)
                 for _ in range(3)]
        res = brute_force_constants(probs, OracleConfig(4, 80, 0, 8))
        assert ratio(probs[1], res[1].argmax) == res[1].constant
        assert batches and all(contiguous for _, contiguous in batches)

    def test_toggles(self, batches):
        """The toggles of a ``p <= r`` search at n = 256, 65,536 entries,
        are one batch."""
        rng = np.random.default_rng(3)
        prob = RatioProblem(*(Window(0, 2.0 ** rng.uniform(-3, 3, 256)) for _ in "uvw"),
                            1.0, 0.5, GOP)
        brute_force_constant(prob, OracleConfig(restarts=2, iterations=10))
        assert (1, 256, 256) in [shape for shape, _ in batches]
        assert all(contiguous for _, contiguous in batches)

    def test_chain_stack(self, batches):
        """Three chain instances of one shape, outside the spike range, so
        their polished rows are evaluated again, concatenated, for every
        form."""
        rng = np.random.default_rng(4)
        mk = lambda: Window(0, 2.0 ** rng.uniform(-3, 3, 8))
        chain_equivalence_sweeps([(mk(), mk(), mk(), 0.8, 0.5, "antigop") for _ in range(3)],
                                 FAST_CONFIG)
        assert batches and all(contiguous for _, contiguous in batches)


class TestPolish:
    @pytest.mark.parametrize(
        "form,p,q",
        [(GOP, 2.0, 3.0), (ANTIGOP, 1.5, 0.8), (GOP_SUP, 0.5, 0.5),
         (ANTIGOP_SUP, 3.0, INF), (gop_psum(0.5), 0.8, 0.6), (antigop_psum(0.25), 1.0, 2.0)],
    )
    def test_lock_step_matches_sequential(self, form, p, q):
        """The coordinate-ascent reference, which the never-below tests hold
        the power iteration to, ascends every restart of a stack of problems
        at once and ends each one where it would end alone, bit for bit,
        with the same evaluation count per problem; each best ratio is its
        row's own ratio.  One stack per config: two short runs, and one long
        enough (270 iterations) for a row's step to fall below 1e-12 and
        freeze it while others go on."""
        rng = np.random.default_rng(23)
        configs = [FAST_CONFIG, OracleConfig(restarts=3, iterations=20, seed=3),
                   OracleConfig(restarts=1, iterations=270, seed=9)]
        for trial in range(3):
            n = int(rng.integers(1, 13))
            probs = [RatioProblem(*rand_triple(rng, n), p, q, form)
                     for _ in range(int(rng.integers(1, 5)))]
            cfg = configs[trial % 3]
            pool = _full_pool(probs, cfg)
            ratios = _ratio_batch(probs[0], pool, _stack(probs))
            a, best = _start_rows(pool, ratios, cfg.restarts)
            got, best, evals = _ascent_top(probs[0], a, best, _stack(probs), cfg)
            assert got.shape[0] == best.shape[0] == len(evals) == len(probs)
            for b, prob in enumerate(probs):
                want = [_sequential_polish(prob, pool[b, k], cfg)
                        for k in np.argsort(ratios[b])[::-1][: cfg.restarts]]
                assert got[b].tobytes() == np.array([a for a, _ in want]).tobytes()
                assert evals[b] == sum(e for _, e in want)
                assert best[b].tobytes() == _ratio_batch(prob, got[b]).tobytes()

    @pytest.mark.parametrize("form", [GOP, GOP_SUP])
    def test_polish_selects_what_can_rise(self, form):
        """``_polish`` selects no problem in the spike range, nor one whose
        pool ratios are all 0; a stack that mixes such problems with others
        polishes the others as their own stack would."""
        rng = np.random.default_rng(83)
        cfg = FAST_CONFIG

        def polish(probs):
            weights = _stack(probs)
            ratios = _ratio_batch(probs[0], _full_pool(probs, cfg), weights)
            return _polish(probs[0], _dirichlet_rows(probs[0], weights, cfg), ratios, weights, cfg)

        mk = lambda: Window(0, 2.0 ** rng.uniform(-3, 3, 4))
        zero = Window(0, np.zeros(4))
        for p, q, zero_u in [(0.5, 1.0, False), (3.0, 2.0, True)]:
            probs = [RatioProblem(zero if zero_u else mk(), mk(), mk(), p, q, form)
                     for _ in range(3)]
            fin, a, best, evals = polish(probs)
            assert fin.dtype == bool and fin.tolist() == [False] * 3
            assert len(a) == len(best) == len(evals) == 0
        live = RatioProblem(mk(), mk(), mk(), 3.0, 2.0, form)
        dead = RatioProblem(zero, mk(), mk(), 3.0, 2.0, form)
        fin, *mixed = polish([dead, live, dead])
        assert fin.tolist() == [False, True, False]
        for got, want in zip(mixed, polish([live])[1:]):
            assert got.tobytes() == want.tobytes()

    def test_infinite_row_freezes(self):
        """A row whose ratio is infinite is never stepped; the other rows of
        its stack go on."""
        u = Window(0, (1.0, 2.0, 0.5))
        probs = [RatioProblem(u, v, u, 3.0, 2.0, GOP)
                 for v in (Window(0, (1.0, 0.0, 1.0)), Window(0, (1.0, 1.0, 1.0)))]
        weights = _stack(probs)
        a = np.array([[0.0, 1.0, 0.0], [1.0, 0.5, 0.25]])
        best = _ratio_batch(probs[0], a[:, None], weights)[:, 0]
        assert best[0] == INF
        before = best[1]
        evals = _power_steps(probs[0], a, best, weights, 3)
        assert a[0].tolist() == [0.0, 1.0, 0.0] and best[0] == INF
        assert evals[0] == 0 and evals[1] > 0
        assert best[1] > before


class TestPowerIteration:
    @pytest.mark.parametrize("form", [GOP, ANTIGOP, DUAL_GOP, DUAL_ANTIGOP, gop_psum(0.5),
                                      form_by_name("dual-gop-psum", 2.5), GOP_SUP,
                                      form_by_name("dual-antigop-sup")])
    @pytest.mark.parametrize("q", [0.8, 2.0, 3.0])
    def test_gradient_matches_central_differences(self, form, q):
        """The step direction from the record positions of the outer scan
        is the gradient of ``lhs^q`` in ``a^r`` up to the factor ``r``:
        ``g_k a_k^(r-1)`` matches central differences of ``lhs^q``, also
        with zeros in u and w.  ``r`` is 1 for a sum and the exponent of a
        powered sum; a sup's masses ``q w_n u_i*^q`` on the inner argmax
        make it ``q`` (``E_n = u_i* a_k*``), away from ties of ``a``.  The
        direction reads ``x = u * inner(a)`` and its outer scan, built here
        from ``a`` as the power loop keeps them, and flips nothing."""
        _check_gradient(np.random.default_rng(53), form, q)

    @pytest.mark.parametrize("form", [GOP, ANTIGOP, DUAL_GOP, DUAL_ANTIGOP, gop_psum(0.5),
                                      form_by_name("dual-gop-psum", 2.5)])
    def test_gradient_at_q_inf_matches_central_differences(self, form):
        """At ``q = inf`` the direction is the gradient in ``a^r`` of the
        entry ``E_n`` at the first ``n`` maximizing ``w_n E_n``: ``g
        a^(r-1)`` is parallel to the central differences of ``lhs``.  (A
        sup form at ``q = inf`` is always in the spike range.)"""
        _check_gradient(np.random.default_rng(54), form, INF)

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
            ratios, best = _ascent_reference(probs, cfg)
            reference = np.maximum(ratios.max(axis=1), best.max(axis=1))
            for res, ref in zip(results, reference):
                assert res.certificate == "heuristic"
                assert res.constant >= ref * (1 - 1e-12)

    @pytest.mark.parametrize("cfg", [FAST_CONFIG, OracleConfig(4, 80, 0, 8)])
    @pytest.mark.parametrize(
        "name,r,p,q",
        [("gop-sup", 1.0, 3.0, 2.0), ("antigop-sup", 1.0, 0.5, 0.25),
         ("dual-gop-sup", 1.0, 2.0, 1.2), ("dual-antigop-sup", 1.0, 1.5, 0.8),
         ("gop-psum", 0.5, 2.0, 3.0), ("antigop-psum", 0.5, 2.0, 3.0),
         ("antigop-psum", 2.0, 1.0, 0.5), ("dual-gop-psum", 2.0, 3.0, 2.0),
         ("dual-antigop-psum", 3.0, 1.0, 0.5), ("gop-psum", 0.25, 1.0, 2.0),
         ("gop", 1.0, 2.0, INF), ("antigop", 1.0, 1.5, INF), ("dual-gop", 1.0, 3.0, INF),
         ("dual-antigop", 1.0, 1.2, INF), ("antigop-psum", 0.5, 1.0, INF),
         ("dual-gop-psum", 2.0, 3.0, INF)],
    )
    def test_never_below_coordinate_ascent_on_every_form(self, name, r, p, q, cfg):
        """The power step took over the sup and powered-sum forms and
        ``q = inf`` from the coordinate ascent: no constant falls more than
        1e-12 below the ascent run from the same pool, and each re-evaluates
        at its argmax within 1e-12.  Weights 2^U(+-3), some with zeros."""
        rng = np.random.default_rng(61)
        form = form_by_name(name, r)
        for n in (3, 5, 8, 16):
            probs = []
            for _ in range(4):
                uvw = [Window(x.start, x.values * (rng.random(n) > 0.2 * (i != 1)))
                       for i, x in enumerate(rand_triple(rng, n))]
                probs.append(RatioProblem(*uvw, p, q, form))
            results = brute_force_constants(probs, cfg)
            ratios, best = _ascent_reference(probs, cfg)
            reference = np.maximum(ratios.max(axis=1), best.max(axis=1))
            for prob, res, ref in zip(probs, results, reference):
                assert res.certificate == "heuristic"
                assert res.constant >= ref * (1 - 1e-12), (n, res.constant, ref)
                if res.constant > 0:
                    assert ratio(prob, res.argmax) == pytest.approx(res.constant, rel=1e-12)

    @pytest.mark.parametrize("form", [GOP, ANTIGOP, DUAL_GOP, DUAL_ANTIGOP])
    def test_q_inf_reaches_the_closed_form(self, form):
        """At ``q = inf`` the two suprema of the left side swap, so the
        least constant of a sum form with ``p > 1`` is ``max_i W_i u_i D_i``
        (:func:`_q_inf_exact`).  The power step reaches it within 1e-12,
        where the coordinate ascent fell more than 1e-9 below it in 95 of
        96 such problems, by up to 27%."""
        rng = np.random.default_rng(67)
        for p in (1.2, 1.5, 2.0, 3.0):
            probs = [RatioProblem(*rand_triple(rng, n), p, INF, form) for n in (2, 4, 8, 16, 32)]
            for prob, res in zip(probs, brute_force_constants(probs, FAST_CONFIG)):
                assert res.constant == pytest.approx(_q_inf_exact(prob), rel=1e-12), (p, prob.size)

    @pytest.mark.parametrize("name,r,p,q", [("gop-psum", 3.0, 4.0, 2.0),
                                            ("dual-antigop-psum", 4.0, 5.0, 1.5)])
    def test_wide_u_keeps_the_polish(self, name, r, p, q):
        """A step reads ``u^r``, formed once per call from ``u`` over its
        largest entry, so it stays in the float range wherever the ratio
        does: ``u`` times 2^(+-350) gives the constant of ``u`` times
        2^(+-350) within 1e-12.  Formed from ``u`` itself, ``u^r``
        overflowed at 2^350 with ``r > q``, and the polish stopped at the
        pool's best row."""
        rng = np.random.default_rng(71)
        form = form_by_name(name, r)
        for n in (4, 8, 12):
            u, v, w = rand_triple(rng, n)
            got = [brute_force_constant(RatioProblem(Window(u.start, u.values * 2.0**k), v, w,
                                                     p, q, form), FAST_CONFIG).constant * 2.0**-k
                   for k in (0, 350, -350)]
            assert got == pytest.approx([got[0]] * 3, rel=1e-12), n

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
        _, best = _ascent_reference([prob], cfg)
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
        _, best = _ascent_reference([prob], FAST_CONFIG)
        assert brute_force_constant(prob, FAST_CONFIG).constant > best.max()

    @pytest.mark.parametrize("form", [GOP, ANTIGOP, DUAL_GOP, DUAL_ANTIGOP, GOP_SUP,
                                      form_by_name("dual-antigop-sup"), antigop_psum(2.0)])
    def test_one_step_never_lowers_the_ratio(self, form):
        """For q < p <= r one plain step (the minorize-maximize step, no
        extrapolation) never lowers the ratio of a row, and neither does the
        sup step, the exact maximizer with both maps fixed; also where a
        step changes the record set; rows hold zeros and spread over
        2^+-4."""
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
        "form,p,q,certificate",
        [(GOP, 0.5, 1.0, "exact-spike"), (ANTIGOP, 2.0, 3.0, "heuristic"),
         (DUAL_GOP, 1.5, 0.8, "heuristic"), (GOP, 2.0, INF, "heuristic"),
         (GOP_SUP, 2.0, 3.0, "exact-spike"), (gop_psum(1.5), 2.0, 3.0, "heuristic"),
         (GOP, 0.5, 0.25, "heuristic"), (GOP_SUP, 3.0, 2.0, "heuristic"),
         (gop_psum(3.0), 2.0, 3.0, "exact-spike")],
    )
    def test_certificate_is_reported(self, form, p, q, certificate):
        rng = np.random.default_rng(61)
        res = brute_force_constant(RatioProblem(*rand_triple(rng, 4), p, q, form), FAST_CONFIG)
        assert res.certificate == certificate
        assert res.to_json()["certificate"] == certificate


# The power loop as it stood before its steps were trimmed, kept verbatim
# (docstrings shortened) as the bit-for-bit reference of the loop now in
# the oracle: its gathers, scatters, concatenations and ``np.where``s.


def _ext_mul_reference(x, y):
    """The in-loop product: ``x * y`` with ``0 * inf`` and ``-0.0`` read
    as ``+0.0``."""
    out = np.multiply(x, y, dtype=float)
    out[np.isnan(out)] = 0.0  # 0 * inf
    out += 0.0  # -0.0 -> +0.0
    return out


def _ratio_reference(problem, a, v, w, entries):
    """Ratios lhs/rhs from the iterated ``entries``; 0/0 is 0, x/0 inf."""
    num = _ext_mul_reference(entries**problem.q, w).sum(axis=-1) ** (1.0 / problem.q)
    den = ((a**problem.p) * v).sum(axis=-1) ** (1.0 / problem.p)
    pos = den > 0
    out = np.divide(num, den, out=np.zeros(den.shape), where=pos)
    out[~pos & (num > 0)] = INF
    return out


def _sum_entries_reference(u, a, form):
    """``x = u * inner(a)`` and its outer scan ``E``, made contiguous."""
    x = u * scan_sum(a, form.inner_dir == "right")
    return x, np.ascontiguousarray(scan_max(x, right=form.outer == "tail"))


def _power_gradient_reference(form, q, u, qw, x, e, flip, offsets):
    """``g = grad(lhs^q)`` at L candidates, K rows each."""
    tail = form.outer == "tail"
    n = x.shape[-1]
    idx = np.arange(n)
    rec = x == e
    if flip is not None:
        rec = rec ^ flip
    rec[..., n - 1 if tail else 0] = True
    if tail:
        star = scan_min(np.where(rec, idx, n), right=True)
    else:
        star = scan_max(np.where(rec, idx, -1))
    at = star + offsets[0]  # into the rows of x
    estar, ustar = x.reshape(-1)[at], u.reshape(-1)[at]
    pos = estar > 0
    mass = np.where(pos, qw * np.where(pos, estar, 1.0) ** (q - 1.0) * ustar, 0.0)
    m = np.bincount((star + offsets[1]).ravel(), weights=mass.ravel(), minlength=mass.size)
    return scan_sum(m.reshape(mass.shape), right=form.inner_dir != "right")


def _power_steps_reference(problem, a, best, weights, iterations, reach=(), flip=False):
    """Power steps from the rows ``a`` (L, n), weights (L, 1, n) each."""
    p, q, form = problem.p, problem.q, problem.form
    alpha, beta = (0.0, 1.0 / (p - 1.0)) if p > 1 else ((1.0 - q) / (p - q), 1.0 / (p - q))
    n = a.shape[-1]
    mask, grads = (np.eye(n, dtype=bool), n) if flip else (None, 1)  # gradients per row
    evals = np.zeros(len(a), dtype=int)
    stretch = np.ones(len(a))
    rows = np.flatnonzero(~np.isinf(best))
    u, v, w = (arr[rows] for arr in weights)
    qw = q * w
    x, e = _sum_entries_reference(u, a[rows, None], form)
    offsets, live = _offsets(len(rows), grads, n), np.arange(len(rows))
    ran = width = 0  # steps of the live set, candidates per step
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(iterations):
            if not len(rows):
                break
            g = _power_gradient_reference(form, q, u, qw, x, e, mask, offsets)
            g /= g.max(axis=-1, keepdims=True)
            t = np.divide(g, v, out=np.zeros(g.shape), where=g > 0)
            t /= t.max(axis=-1, keepdims=True)
            if alpha:
                la = np.log(a[rows, None])
                step = alpha * la + beta * np.log(t)
                moved = step > -np.inf  # where a' > 0, hence a > 0
                scale, d = stretch[rows, None, None], step - la
                cand = np.concatenate([step] + [
                    np.where(moved, la + om * scale * d, -np.inf) for om in reach
                ], axis=1)
                cand = np.exp(cand - cand.max(axis=-1, keepdims=True))
            else:
                cand = t**beta
            cand[~np.isfinite(cand).all(axis=-1)] = 0.0
            cx, ce = _sum_entries_reference(u, cand, form)
            r = _ratio_reference(problem, cand, v, w, ce)
            ran, width = ran + 1, cand.shape[1]
            k = np.argmax(r, axis=1)
            top = r[live, k]
            up = top > best[rows]
            best[rows[up]] = top[up]
            a[rows[up]] = cand[up, k[up]]
            if reach:
                stretch[rows[k == len(reach)]] *= 2.0
                stretch[rows[k == 0]] = np.maximum(stretch[rows[k == 0]] / 2.0, 1.0)
            keep = up & ~np.isinf(top)
            if keep.all():
                x, e = cx[live, k, None], ce[live, k, None]
                continue
            evals[rows] += ran * width  # the live rows only shrink
            kept = np.flatnonzero(keep)
            rows, u, v, w, qw = rows[kept], u[kept], v[kept], w[kept], qw[kept]
            x, e = cx[kept, k[kept], None], ce[kept, k[kept], None]
            offsets, live, ran = _offsets(len(rows), grads, n), np.arange(len(rows)), 0
    evals[rows] += ran * width
    return evals


def _power_top_reference(problem, a, best, weights, cfg):
    """The three phases of the power iteration from these steps."""
    b, _, n = a.shape
    reach = _POWER_REACH if problem.p <= 1 else ()

    def plain(a, best):
        uvw = tuple(np.repeat(x, a.shape[1], axis=0) for x in weights)
        evals = _power_steps_reference(
            problem, a.reshape(-1, n), best.reshape(-1), uvw, cfg.iterations, reach
        )
        return evals.reshape(b, a.shape[1]).sum(axis=1)

    def lead(a, best):
        k = np.argmax(best, axis=1)[:, None]
        return (np.take_along_axis(a, k[:, :, None], axis=1)[:, 0],
                np.take_along_axis(best, k, axis=1)[:, 0])

    evals = plain(a, best)
    if problem.p <= 1:
        row = lead(a, best)[0]
        low = np.where(row > 0, row, np.inf).min(axis=1, keepdims=True)
        low[np.isinf(low)] = 0.0  # a zero row has no entry to revive
        toggled = np.repeat(row[:, None], n, axis=1)
        toggled[:, np.arange(n), np.arange(n)] = np.where(row > 0, 0.0, low)
        peak = toggled.max(axis=-1, keepdims=True)
        toggled /= np.where(peak > 0, peak, 1.0)  # rescaled, as every step is
        u, v, w = weights
        with np.errstate(over="ignore", invalid="ignore"):
            tbest = _ratio_reference(problem, toggled, v, w,
                                     _sum_entries_reference(u, toggled, problem.form)[1])
        evals += n + plain(toggled, tbest)
        a, best = np.concatenate([a, toggled], axis=1), np.concatenate([best, tbest], axis=1)
    a1, best1 = lead(a, best)
    evals += _power_steps_reference(problem, a1, best1, weights, cfg.iterations, flip=True)
    return (
        np.concatenate([a, a1[:, None]], axis=1),
        np.concatenate([best, best1[:, None]], axis=1),
        evals,
    )


def _loop_problems(rng, form, p, q, n, b, kind):
    """``b`` problems of size ``n`` with weights 2^U(+-3), and start rows
    (B, 6, n) 2^U(+-4) with zeros.  Of ``kind`` "zeros", the weights also
    hold exact zeros and ``-0.0``, the first problem a zero ``w`` entry,
    ``u`` is 0 (or ``-0.0``) at the end of the outer scan, so ``E`` is 0
    there, and the last problem has a row whose ``v = 0`` entry makes its
    ratio inf.  Of ``kind`` "wide", the weights are 2^U(+-500), so sides
    overflow to inf, and the first problem has a zero ``w`` entry, so
    ``0 * inf`` arises."""
    end = n - 1 if form.outer == "tail" else 0
    scale = 500.0 if kind == "wide" else 3.0
    probs, rows = [], []
    for i in range(b):
        u, v, w = (2.0 ** rng.uniform(-scale, scale, n) for _ in "uvw")
        a = 2.0 ** rng.uniform(-4, 4, (6, n)) * (rng.random((6, n)) > 0.25)
        if kind != "plain" and i == 0:
            w[rng.integers(n)] = 0.0
        if kind == "zeros":
            for x in (u, v, w):
                x[rng.random(n) < 0.2] = rng.choice([0.0, -0.0])
            u[end] = 0.0 if i % 2 == 0 else -0.0
            if i == b - 1:
                k = int(rng.integers(n))
                v[k], a[5, k] = 0.0, 1.0
        probs.append(RatioProblem(*(Window(-1, x) for x in (u, v, w)), p, q, form))
        rows.append(a)
    return probs, np.array(rows)


class TestPowerLoopReference:
    """The power loop against its earlier form, bit for bit: rows, ratios
    and evaluations of :func:`_power_top`."""

    @pytest.mark.parametrize("kind", ["plain", "zeros", "wide"])
    @pytest.mark.parametrize("p,q", [(2.0, 3.0), (3.0, 2.0), (1.0, 0.5), (0.8, 0.3)])
    @pytest.mark.parametrize("form", [GOP, ANTIGOP, DUAL_GOP, DUAL_ANTIGOP])
    def test_power_top_matches_the_reference(self, form, p, q, kind):
        rng = np.random.default_rng(71)
        cfg = OracleConfig(4, 80, 0, 8)
        for n in (1, 2, 5, 16):
            for b in (1, 2, 3, 4):
                probs, a = _loop_problems(rng, form, p, q, n, b, kind)
                weights = _stack(probs)
                best = _ratio_batch(probs[0], a, weights)
                got = _power_top(probs[0], a.copy(), best.copy(), weights, cfg)
                want = _power_top_reference(probs[0], a.copy(), best.copy(), weights, cfg)
                for x, y in zip(got, want):
                    assert x.tobytes() == y.tobytes(), (n, b)

    @pytest.mark.parametrize("p,q", [(2.0, 3.0), (1.0, 0.5)])
    def test_rows_in_chunks_match_the_reference(self, monkeypatch, p, q):
        """Rows are independent, so rows run a few at a time end where
        the reference, which runs them all at once, ends."""
        monkeypatch.setattr("hardyseq.oracle._CHUNK_ENTRIES", 40)
        rng = np.random.default_rng(73)
        cfg = OracleConfig(4, 80, 0, 8)
        for kind in ("plain", "zeros", "wide"):
            probs, a = _loop_problems(rng, ANTIGOP, p, q, 8, 3, kind)
            weights = _stack(probs)
            best = _ratio_batch(probs[0], a, weights)
            got = _power_top(probs[0], a.copy(), best.copy(), weights, cfg)
            want = _power_top_reference(probs[0], a.copy(), best.copy(), weights, cfg)
            for x, y in zip(got, want):
                assert x.tobytes() == y.tobytes()


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

    @pytest.mark.parametrize("form,variant", [(GOP, "printed"), (ANTIGOP, "printed"), (ANTIGOP, "flipped")])
    def test_alone_equals_its_row_in_a_stack(self, form, variant):
        """A problem's ratio alone equals, field for field, its ratio as the
        middle of a stack of three: closed form (value, terms), search
        (constant, argmax, evaluations), ratio and sentinel."""
        rng = np.random.default_rng(7)
        for p, q in [(2.0, 3.0), (3.0, 2.0), (1.0, 1.0), (0.5, 1.0), (1.0, 0.5), (0.5, 0.25)]:
            for n in (1, 3, 8):
                mk = lambda: Window(2, 2.0 ** rng.uniform(-3, 3, n) * (rng.random(n) > 0.15))
                a, prob, b = (RatioProblem(mk(), mk(), mk(), p, q, form) for _ in range(3))
                alone = equivalence_ratio(prob, FAST_CONFIG, variant)
                stacked = equivalence_ratios([a, prob, b], FAST_CONFIG, variant)[1]
                assert json.dumps(alone.to_json()) == json.dumps(stacked.to_json()), (p, q, n)

    def test_one_stack_per_group(self, monkeypatch):
        """Each (p, q, form, n) group is stacked once, for its closed forms
        and its search alike, and each ratio is the closed form and the
        oracle's constant of its problem alone, field for field."""
        rng = np.random.default_rng(3)
        probs = [RatioProblem(*rand_triple(rng, n), p, q, form)
                 for n, p, q, form in [(3, 3.0, 2.0, GOP), (3, 3.0, 2.0, ANTIGOP),
                                       (5, 1.0, 0.5, GOP), (5, 1.0, 0.5, GOP)]]
        sizes, real = [], oracle._stack
        monkeypatch.setattr(oracle, "_stack", lambda group: sizes.append(len(group)) or real(group))
        got = equivalence_ratios(probs, FAST_CONFIG)
        assert sizes == [1, 1, 2]
        for prob, eq in zip(probs, got):
            char = (char_gop if prob.form == GOP else char_antigop)(prob.u, prob.v, prob.w, prob.p, prob.q)
            res = brute_force_constant(prob, FAST_CONFIG)
            want = {"formula": char.value, "brute": res.constant, "ratio": char.value / res.constant,
                    "sentinel": False, "char": char.to_json(), "oracle": res.to_json()}
            assert json.dumps(eq.to_json()) == json.dumps(want)


class TestSharedSearch:
    """psum(1) is the sum operator: the oracle gives both forms the same
    bits, so a chain group searches the sum once for both places."""

    @pytest.mark.parametrize("psum,total", [(gop_psum(1.0), GOP), (antigop_psum(1.0), ANTIGOP)])
    @pytest.mark.parametrize("p,q", [(1.0, 0.5), (1.0, 2.0)])
    def test_psum_one_searches_as_the_sum(self, psum, total, p, q):
        rng = np.random.default_rng(int(10 * q))
        for n in (3, 5, 8, 12, 16):
            u, v, w = (Window(x.start, x.values * (rng.random(n) > 0.15))
                       for x in rand_triple(rng, n))
            a, b = brute_force_constants(
                [RatioProblem(u, v, w, p, q, form) for form in (psum, total)], FAST_CONFIG
            )
            assert a.constant.hex() == b.constant.hex(), n
            assert a.argmax.start == b.argmax.start
            assert a.argmax.values.tobytes() == b.argmax.values.tobytes(), n
            assert (a.evaluations, a.certificate) == (b.evaluations, b.certificate)

    @pytest.mark.parametrize("p,q,searches", [(1.0, 0.5, 2), (0.5, 0.25, 3)])
    def test_each_distinct_form_is_polished_once(self, p, q, searches, monkeypatch):
        """Two chain groups (gop, and antigop with simple) polish two forms
        each at p = 1 and three at p = 0.5, and their reports equal, field
        by field, the full-pool reference that searches the literal triple
        with psum(p)."""
        forms = []
        real = oracle._polish
        monkeypatch.setattr(oracle, "_polish", lambda prob, *a: forms.append(prob.form) or real(prob, *a))
        rng = np.random.default_rng(int(10 * p))
        mk = lambda: Window(0, 2.0 ** rng.uniform(-3, 3, 6))
        insts = [(mk(), mk(), mk(), p, q, family)
                 for family in ("gop", "antigop", "simple", "gop", "antigop")]
        got = chain_equivalence_sweeps(insts, FAST_CONFIG)
        assert len(forms) == 2 * searches and len(set(forms)) == 2 * searches
        groups = {"gop": [0, 3], "antigop": [1, 2, 4]}
        for members in groups.values():
            want = _chain_reference([insts[i] for i in members], FAST_CONFIG)
            for i, ref in zip(members, want):
                rep = got[i].to_json()
                for key in ("A1", "A2", "A3"):
                    assert rep[key].hex() == ref[key].hex(), (i, key)
                for key in ("family", "violations", "pool_size"):
                    assert rep[key] == ref[key], (i, key)


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
