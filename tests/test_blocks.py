import math
from fractions import Fraction

import numpy as np
import pytest

from hardyseq.blocks import (
    BlockPartition,
    PartitionReport,
    block_partition,
    doubling_lemma_check,
    doubling_lemma_checks,
    verify_partition_invariants,
)
from hardyseq.seqcore import INF, Window, scan_max, scan_sum


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


def exact_tails(w: Window) -> list[Fraction]:
    """``T[i] = sum_{m >= i} w_m`` over local positions 0..N, exactly."""
    tails = [Fraction(0)]
    for x in reversed(w.values.tolist()):
        tails.append(tails[-1] + Fraction(x))
    return tails[::-1]


class ExactWindow:
    """Tail and block masses of a window in exact rational arithmetic."""

    def __init__(self, w: Window):
        self.w, self.tails = w, exact_tails(w)
        self.steps: dict[int, int | None] = {}

    def at(self, i: int) -> Fraction:
        return self.tails[min(max(i - self.w.start, 0), len(self.w))]

    def mass(self, lo: int, hi: int) -> Fraction:
        """Mass of w on [lo, hi] intersected with the window."""
        lo, hi = max(lo, self.w.start), min(hi, self.w.last)
        return self.at(lo) - self.at(hi + 1) if lo <= hi else Fraction(0)

    def doubles(self, prev: int, j: int) -> bool:
        tail = self.at(j) if j < self.w.stop else Fraction(0)
        return tail > 0 and tail >= 2 * self.mass(prev, j - 1)

    def step(self, prev: int) -> int | None:
        """The least j > prev that passes, scanning every j (None if none)."""
        if prev not in self.steps:
            self.steps[prev] = next(
                (j for j in range(prev + 1, self.w.stop) if self.doubles(prev, j)), None
            )
        return self.steps[prev]


def reference_partition(ex: ExactWindow, n0: int) -> tuple:
    """The recursion of the module docstring in exact arithmetic, with no
    use of the one-index steps; O(N^2) over every n0 of a window."""
    ns = [n0]
    if n0 + 1 < ex.w.stop:
        ns.append(n0 + 1)
        while (nxt := ex.step(ns[-1])) is not None:
            ns.append(nxt)
    return tuple(ns) + (INF,)


def reference_report(ex: ExactWindow, bp: BlockPartition) -> dict:
    """The invariant report as a loop over k in exact arithmetic, recording
    checks and failures in the order the verifier documents."""
    w, ns, K = ex.w, list(bp.ns), bp.K
    report = PartitionReport()
    report.vacuous = K < 3
    report.record("first_step", 1, (ns[0] == bp.n0) and (
        (len(ns) >= 2 and ns[1] == bp.n0 + 1)
        or (len(ns) == 2 and math.isinf(ns[1]) and bp.n0 + 1 >= w.stop)))
    for k in range(2, len(ns)):
        prev = int(ns[k - 1])
        if math.isfinite(ns[k]):
            report.record("attainment", k, ex.doubles(prev, int(ns[k])))
        jmax = int(ns[k]) if math.isfinite(ns[k]) else w.stop
        passing = (j for j in range(prev + 1, jmax) if ex.doubles(prev, j))
        report.record("minimality", k, next(passing, None) is None)
    kset = frozenset(k for k in range(1, K) if ns[k] < ns[k + 1] - 1)
    report.record("kset", 0, bp.kset == kset)
    for k in sorted(bp.kset):
        if k + 1 <= K and math.isfinite(ns[k + 1]):
            interior = ex.mass(int(ns[k]), int(ns[k + 1]) - 2)
            before = ex.mass(int(ns[k - 1]), int(ns[k]) - 1)
            report.record("interior_bound", k, interior < 2 * before)
    for k in range(2, K - 1):
        tail = ex.mass(int(ns[k]), w.last)
        before = ex.mass(int(ns[k - 1]), int(ns[k]) - 1)
        report.record("tail_doubling", k, tail >= 2 * before)
    for name in ("attainment", "minimality", "interior_bound", "tail_doubling"):
        report.checks.setdefault(name, True)
    return report.to_json()


def near_tie_window(rng, n: int) -> Window:
    """Entries built from the right, each within an ulp or two of half the
    exact tail after it, so most doubling tests sit on or next to a tie."""
    vals = [float(2.0 ** rng.uniform(-4, 4))]
    tail = Fraction(vals[0])
    for _ in range(n - 1):
        x = float(tail / 2)
        for _ in range(int(rng.integers(-2, 3))):
            x = np.nextafter(x, np.inf)
        for _ in range(int(rng.integers(-2, 3))):
            x = np.nextafter(x, 0.0)
        x = 0.0 if rng.random() < 0.1 else float(x)
        vals.append(x)
        tail += Fraction(x)
    scale = 2.0 ** int(rng.integers(-300, 301))
    return Window(int(rng.integers(-8, 8)), np.array(vals[::-1]) * scale)


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

    def test_near_tie_below_double_stops(self):
        """The exact tail 2 - 2**-54 at j = 2 is below 2 w_1 = 2, although
        its float sum rounds to 2."""
        w = Window(0, (1.0, 1.0, 1.5, 0.5 - 2**-54))
        assert block_partition(w, 0).ns == (0, 1, INF)

    def test_near_tie_reaching_double_continues(self):
        """The exact tail 1 + 2**-51 at j = 2 reaches 2 w_1 = 1 + 2**-52,
        although its sequential float sum rounds to 1."""
        w = Window(0, (1.0, 0.5 + 2**-53, 1.0, 2**-53, 2**-53, 2**-53, 2**-53))
        assert block_partition(w, 0).ns == (0, 1, 2, INF)

    def test_matches_exact_reference(self):
        """From every n0, on seeded windows over 2^+-304 with zeros, on
        windows built on near-ties and on extreme magnitudes, the partition
        is the exact recursion's, and the verifier passes it."""
        rng = np.random.default_rng(43)
        windows = []
        for _ in range(30):
            n = int(rng.integers(1, 201))
            vals = 2.0 ** (rng.uniform(-4, 4, n) + int(rng.integers(-300, 301)))
            vals[rng.random(n) < 0.3] = 0.0
            windows.append(Window(int(rng.integers(-8, 8)), vals))
        windows += [near_tie_window(rng, int(rng.integers(2, 121))) for _ in range(20)]
        # float suffix sums that overflow, and subnormal entries
        windows += [Window(0, (1.7e308, 1e308, 1e308, 1e308)),
                    Window(0, (1e308,) * 6 + (5e-324,) * 3),
                    Window(0, (5e-324, 5e-324, 1e-323, 5e-324, 0.0))]
        for w in windows:
            ex = ExactWindow(w)
            for n0 in range(w.start, w.stop):
                bp = block_partition(w, n0)
                assert bp.ns == reference_partition(ex, n0), (w, n0)
                report = verify_partition_invariants(w, bp)
                assert report.all_pass, (w, n0, report.failures)

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

    def test_near_tie_attainment_flagged(self):
        """(0, 1, 2, inf) passes the first near-tie window's doubling test at
        k = 2 only by rounding the tail 2 - 2**-54 up to 2."""
        w = Window(0, (1.0, 1.0, 1.5, 0.5 - 2**-54))
        bad = BlockPartition(0, (0, 1, 2, INF), frozenset({2}))
        report = verify_partition_invariants(w, bad)
        assert report.failures == [("attainment", 2)]

    def test_ties_pass_only_the_non_strict_checks(self):
        """Exact ties pass attainment and tail_doubling (>=) and fail
        interior_bound (<)."""
        w = Window(0, (1.0, 2.0, 1.0, 1.0, 1.0, 1.0))
        bp = block_partition(w, 0)
        assert bp.ns == (0, 1, 2, 3, 4, INF)  # T_2 = 2 w_1, T_4 = 2 w_3
        assert verify_partition_invariants(w, bp).all_pass
        ones = Window(0, (1.0,) * 6)
        bad = BlockPartition(0, (0, 1, 4, 5, INF), frozenset({1, 3}))
        report = verify_partition_invariants(ones, bad)
        assert ("interior_bound", 1) in report.failures  # M[1, 3) = 2 w_0
        assert report.to_json() == reference_report(ExactWindow(ones), bad)

    def test_moved_interior_index_flagged(self):
        """At N = 8,000 a partition with one interior n_k moved up by one is
        flagged at that k, and every report equals the exact loop over k,
        failures in its order."""
        rng = np.random.default_rng(47)
        vals = 2.0 ** rng.uniform(-4, 4, 8000)
        vals[rng.random(8000) < 0.3] = 0.0
        w = Window(-3, vals)
        ex = ExactWindow(w)
        bp = block_partition(w, w.start + 100)
        assert bp.K > 1000
        assert verify_partition_invariants(w, bp).to_json() == reference_report(ex, bp)
        for k in sorted(rng.choice(np.arange(2, bp.K - 1), 3, replace=False).tolist()):
            ns = list(bp.ns)
            ns[k] += 1
            kset = frozenset(i for i in range(1, bp.K) if ns[i] < ns[i + 1] - 1)
            moved = BlockPartition(bp.n0, tuple(ns), kset)
            report = verify_partition_invariants(w, moved)
            assert ("minimality", k) in report.failures
            assert report.to_json() == reference_report(ex, moved)
        # every interior n_k jittered: failures of three kinds, interleaved
        shift = rng.integers(-1, 2, bp.K - 2).tolist()
        ns = bp.ns[:2] + tuple(n + d for n, d in zip(bp.ns[2:-1], shift)) + (INF,)
        jittered = BlockPartition(bp.n0, ns, bp.kset)
        report = verify_partition_invariants(w, jittered)
        kinds = {name for name, _ in report.failures}
        assert kinds >= {"attainment", "minimality", "kset"}
        assert report.to_json() == reference_report(ex, jittered)

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


def _doubling_alone(b, c, alpha, kmin, kmax):
    """Both sides for one probe on its 1-D rows: the arithmetic of each
    probe before probes were batched, kept as the reference for the batch."""
    bb = b.as_array()[kmin - b.start:kmax - b.start + 1]
    cc = c.as_array()[kmin - c.start:kmax - c.start + 1]
    tails, sups = scan_sum(cc, right=True), scan_max(cc, right=True)
    sides = (tails**alpha * bb, sups * bb, cc**alpha * bb, cc * bb)
    return tuple(float(np.add.reduce(x)) for x in sides)


def _doubling_probes(rng, count):
    """Ragged probes: 3-33 indices inside windows of up to 36, alpha in
    {0.25, 0.5, 1}, b doubling by factors in [2, 4], c at 2^U(-3, 3) or
    near 2^(+-1000) with zeros (b small enough to keep the products
    finite), all-zero c and c with one nonzero entry."""
    probes = []
    for i in range(count):
        m = i % 31 + 3
        size, kmin = m + int(rng.integers(0, 4)), int(rng.integers(-4, 5))
        start = kmin - int(rng.integers(0, size - m + 1))
        kind = i % 4
        b0 = 2.0 ** rng.uniform(-1, 1) if kind == 0 else 2.0 ** rng.uniform(-1000, -80)
        b = np.concatenate([[b0], rng.uniform(2.0, 4.0, size - 1)]).cumprod()
        if kind == 0:
            c = 2.0 ** rng.uniform(-3, 3, size)
        else:
            c = 2.0 ** (rng.choice([-1.0, 1.0], size) * rng.uniform(990, 1000, size))
        c[rng.random(size) < 0.3] = 0.0
        if kind >= 2:
            c[:] = 0.0
        if kind == 3:
            c[int(rng.integers(0, size))] = 2.0 ** rng.uniform(-1000, 1000)
        alpha = (0.25, 0.5, 1.0)[i % 3]
        probes.append((Window(start, b), Window(start, c), alpha, kmin, kmin + m - 1))
    return probes


class TestDoublingLemma:
    def test_batch_equals_one_probe_bit_for_bit(self):
        """Each probe of a batch, grouped into (B, m) rows by length and
        alpha, has the bits of its one-element call and of its rows alone."""
        probes = _doubling_probes(np.random.default_rng(4), 1240)
        hexes = lambda sides: [tuple(x.hex() for x in s) for s in sides]
        batch = hexes(vars(q).values() for q in doubling_lemma_checks(probes))
        assert batch == hexes(vars(doubling_lemma_check(*pr)).values() for pr in probes)
        assert batch == hexes(_doubling_alone(*pr) for pr in probes)

    def test_batch_raises_what_one_probe_raises(self):
        """A ratio of exactly 2 passes the doubling test; one just below 2
        fails it, in a batch with the same error as alone."""
        c = Window(0, (1.0, 1.0, 1.0, 1.0))
        exact = (Window(0, (1.0, 2.0, 4.0, 8.0)), c, 0.5, 0, 3)
        below = (Window(0, (1.0, 2.0, 2.0 * np.nextafter(2.0, 0.0), 8.0)), c, 0.5, 0, 3)
        assert doubling_lemma_checks([exact]) == [doubling_lemma_check(*exact)]
        with pytest.raises(ValueError, match="violated at k=1") as alone:
            doubling_lemma_check(*below)
        for batch in ([exact, below], [below, exact], [(*exact[:2], 1.0, 0, 3), below]):
            with pytest.raises(ValueError) as batched:
                doubling_lemma_checks(batch)
            assert str(batched.value) == str(alone.value)

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
