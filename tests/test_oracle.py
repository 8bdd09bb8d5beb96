import numpy as np
import pytest

from hardyseq.charformulas import char_linft_exact
from hardyseq.hardyops import (
    ANTIGOP,
    ANTIGOP_SUP,
    GOP,
    GOP_SUP,
    RatioProblem,
    ratio,
)
from hardyseq.oracle import (
    FAST_CONFIG,
    OracleConfig,
    brute_force_constant,
    chain_equivalence_sweep,
    equivalence_ratio,
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

    def test_q_below_one_is_heuristic(self):
        prob = RatioProblem(ONES2, ONES2, ONES2, 0.5, 0.5, GOP_SUP)
        assert spike_oracle(prob).certificate == "heuristic"

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

    def test_lower_bound_soundness(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u, v, w = rand_triple(rng, 5)
            prob = RatioProblem(u, v, w, 2.0, 1.5, GOP)
            res = brute_force_constant(prob, FAST_CONFIG)
            for _ in range(20):
                a = Window(u.start, tuple(rng.uniform(0.01, 2, 5)))
                assert ratio(prob, a) <= res.constant * (1 + 1e-9)

    @pytest.mark.parametrize("form,p,q", [(GOP, 2.0, 3.0), (ANTIGOP_SUP, 0.5, 1.0)])
    @pytest.mark.parametrize("n,expected", [(1, 11), (2, 15), (5, 30)])
    def test_pool_composition(self, form, p, q, n, expected):
        """Spikes, blocks for n > 1, and per restart its Dirichlet draws, one
        start of an unpolished ascent and one re-evaluation."""
        u, v, w = rand_triple(np.random.default_rng(n), n)
        cfg = OracleConfig(restarts=2, iterations=0, dirichlet_per_restart=3)
        res = brute_force_constant(RatioProblem(u, v, w, p, q, form), cfg)
        blocks = n * (n + 1) // 2 if n > 1 else 0
        assert res.evaluations == n + blocks + 2 * (3 + 2) == expected

    @pytest.mark.parametrize("form", [GOP, ANTIGOP, GOP_SUP, ANTIGOP_SUP])
    def test_spike_exact_regime_matches_spike_enumeration(self, form):
        rng = np.random.default_rng(11)
        for _ in range(25):
            u, v, w = rand_triple(rng, 6)
            p = float(rng.choice([0.5, 1.0]))
            q = float(rng.choice([1.0, 2.0]))
            prob = RatioProblem(u, v, w, p, q, form)
            res = brute_force_constant(prob, FAST_CONFIG)
            pool = np.eye(6)
            from hardyseq.hardyops import _ratio_batch

            spike_best = float(_ratio_batch(prob, pool).max())
            assert res.certificate == "exact-spike"
            assert res.constant == pytest.approx(spike_best, rel=1e-9)
            assert res.constant >= spike_best


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

    def test_p_above_one_rejected(self):
        with pytest.raises(ValueError):
            chain_equivalence_sweep(ONES2, ONES2, ONES2, 1.5, 1.0, FAST_CONFIG)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            chain_equivalence_sweep(ONES2, ONES2, ONES2, 0.5, 1.0, FAST_CONFIG, "other")
