import numpy as np
import pytest

from hardyseq.blocks import (
    BlockPartition,
    block_partition,
    doubling_lemma_check,
    verify_partition_invariants,
)
from hardyseq.seqcore import INF, Window, scan_sum


def calibrate_doubling_constant(
    alpha: float,
    samples: int = 10_000,
    size_range: tuple[int, int] = (3, 12),
    seed: int = 0,
    require_full_doubling: bool = True,
) -> float:
    """Empirical max of lhs_sum / rhs_sum over random valid (b, c) ensembles.

    Used once to record C(alpha) fixtures for alpha > 1 (the recorded value
    is this maximum doubled as margin).  ``b`` is built from doubling factors
    in [2, 4]; when ``require_full_doubling`` is false the last gap uses an
    unconstrained factor in [1/4, 4].  ``c`` mixes uniform, geometric, spike
    and constant shapes.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        n = int(rng.integers(size_range[0], size_range[1] + 1))
        factors = rng.uniform(2.0, 4.0, size=n - 1)
        if not require_full_doubling:
            factors[-1] = rng.uniform(0.25, 4.0)
        bb = np.concatenate([[rng.uniform(0.5, 2.0)], factors]).cumprod()
        kind = rng.integers(0, 4)
        if kind == 0:
            cc = rng.uniform(0.0, 1.0, size=n)
        elif kind == 1:
            cc = rng.uniform(0.5, 2.0) ** np.arange(n)
        elif kind == 2:
            cc = np.zeros(n)
            cc[rng.integers(0, n)] = rng.uniform(0.5, 2.0)
        else:
            cc = np.full(n, rng.uniform(0.1, 2.0))
        tails = scan_sum(cc, right=True)
        num = float(np.sum(tails**alpha * bb))
        den = float(np.sum(cc**alpha * bb))
        if den > 0:
            worst = max(worst, num / den)
    return worst


class TestBlockPartition:
    def test_uniform_window(self):
        bp = block_partition(Window(0, (1.0, 1.0, 1.0, 1.0)), 0)
        assert bp.ns == (0, 1, 2, INF)
        assert bp.K == 3
        assert bp.kset == frozenset({2})

    def test_zero_tail_never_doubles(self):
        bp = block_partition(Window(0, (1.0, 0.0, 0.0, 0.0)), 0)
        assert bp.ns == (0, 1, INF)
        assert bp.K == 2

    def test_single_entry_window_degenerate(self):
        bp = block_partition(Window(-3, (5.0,)), -3)
        assert bp.ns == (-3, INF)
        assert bp.K == 1
        assert bp.kset == frozenset()

    def test_n0_out_of_range(self):
        with pytest.raises(IndexError):
            block_partition(Window(0, (1.0, 1.0)), 5)

    def test_heavy_head_terminates_early(self):
        # w_0 huge: the tail after n_1 cannot double the first block
        bp = block_partition(Window(0, (100.0, 1.0, 1.0)), 0)
        assert bp.ns == (0, 1, INF)

    def test_json_shape(self):
        bp = block_partition(Window(0, (1.0, 1.0, 1.0, 1.0)), 0)
        js = bp.to_json()
        assert js["ns"] == [0, 1, 2, "inf"]
        assert js["K"] == 3 and js["kset"] == [2]


class TestVerifyInvariants:
    def test_uniform_all_pass(self):
        w = Window(0, (1.0, 1.0, 1.0, 1.0))
        report = verify_partition_invariants(w, block_partition(w, 0))
        assert report.all_pass and not report.vacuous

    def test_corrupted_partition_fails(self):
        w = Window(0, (1.0, 1.0, 1.0, 1.0))
        bad = BlockPartition(0, (0, 1, 3, INF), frozenset({2}))
        report = verify_partition_invariants(w, bad)
        assert not report.all_pass
        assert any(name in ("attainment", "minimality") for name, _ in report.failures)

    def test_all_zero_weight_vacuous_pass(self):
        w = Window(0, (0.0, 0.0, 0.0))
        report = verify_partition_invariants(w, block_partition(w, 0))
        assert report.vacuous and report.all_pass

    def test_random_windows_all_pass(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 33))
            vals = 2.0 ** rng.uniform(-4, 4, n)
            vals[rng.random(n) < 0.3] = 0.0
            w = Window(int(rng.integers(-8, 8)), tuple(vals))
            n0 = int(rng.integers(w.start, w.stop))
            report = verify_partition_invariants(w, block_partition(w, n0))
            assert report.all_pass, (w, n0, report.failures)


class TestDoublingLemma:
    def test_hand_example(self):
        out = doubling_lemma_check(
            Window(0, (1.0, 2.0, 4.0)), Window(0, (1.0, 1.0, 1.0)), 1.0, 0, 2
        )
        assert out.lhs_sum == 11.0
        assert out.rhs_sum == 7.0
        assert out.lhs_sum <= 2 * out.rhs_sum
        assert out.lhs_sup == out.rhs_sup == 7.0

    def test_spike_at_top(self):
        b = Window(0, (1.0, 2.0, 4.0))
        c = Window(0, (0.0, 0.0, 1.0))
        out = doubling_lemma_check(b, c, 0.5, 0, 2)
        # every tail sum equals the spike, so lhs = (sum b) * c^alpha
        assert out.lhs_sum == 7.0 and out.rhs_sum == 4.0
        assert out.lhs_sum <= 2 * out.rhs_sum

    def test_zero_c(self):
        out = doubling_lemma_check(
            Window(0, (1.0, 2.0, 4.0)), Window(0, (0.0, 0.0, 0.0)), 1.0, 0, 2
        )
        assert out == type(out)(0.0, 0.0, 0.0, 0.0)

    def test_doubling_violated_rejected(self):
        with pytest.raises(ValueError):
            doubling_lemma_check(
                Window(0, (1.0, 1.5, 4.0)), Window(0, (1.0, 1.0, 1.0)), 1.0, 0, 2
            )

    def test_too_few_indices_rejected(self):
        with pytest.raises(ValueError):
            doubling_lemma_check(Window(0, (1.0, 2.0)), Window(0, (1.0, 1.0)), 1.0, 0, 1)

    def test_exempt_last_gap_breaks_constant_two(self):
        """The last gap is exempt from doubling by the stated hypothesis, but
        then no universal constant survives a spike at the top: with b ending
        in a tiny entry the ratio blows up.  The calibration ensembles
        therefore enforce doubling through the last gap."""
        b = Window(0, (1.0, 2.0, 1e-6))
        c = Window(0, (0.0, 0.0, 1.0))
        out = doubling_lemma_check(b, c, 1.0, 0, 2)  # accepted: precondition holds
        assert out.lhs_sum > 1e5 * out.rhs_sum

    def test_constant_two_on_fully_doubling_ensembles(self):
        worst = calibrate_doubling_constant(1.0, samples=2000, seed=5)
        assert worst <= 2.0
        worst_half = calibrate_doubling_constant(0.5, samples=2000, seed=5)
        assert worst_half <= 2.0

    def test_sup_bound_constant_two(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            n = int(rng.integers(3, 10))
            b = Window(0, tuple(np.concatenate(
                [[rng.uniform(0.5, 2)], rng.uniform(2.0, 4.0, n - 1)]).cumprod()))
            c = Window(0, tuple(rng.uniform(0, 3, n)))
            out = doubling_lemma_check(b, c, 1.0, 0, n - 1)
            assert out.lhs_sup <= 2.0 * out.rhs_sup
