"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or via ``hardyseq verify``
for the configurable sweep variant).  Tolerances are pinned here; nothing is
deferred to later calibration.  The two recorded doubling constants come from
the documented calibration protocol (10^4 fully doubling random ensembles,
seed 2026, empirical maximum doubled and rounded up); validation below runs
on fresh seeds.
"""

import math
import time

import numpy as np
import pytest

from hardyseq.blocks import (
    block_partition,
    doubling_lemma_check,
    verify_partition_invariants,
)
from hardyseq.bridge import bridge_check
from hardyseq.charformulas import char_antigop, char_gop, char_linft_exact
from hardyseq.envelopes import reduce_weight_monotone
from hardyseq.hardyops import (
    ANTIGOP,
    ANTIGOP_SUP,
    GOP,
    GOP_SUP,
    RatioProblem,
    elementary_chain_check,
    lhs,
    ratio,
    rhs,
)
from hardyseq.oracle import (
    OracleConfig,
    brute_force_constant,
    brute_force_constants,
    chain_equivalence_sweeps,
    spike_oracle,
)
from hardyseq.seqcore import INF, Window, classify_regime
from hardyseq.verification import rand_dyadic_window, rand_window

# Recorded calibration constants for the doubling lemma with alpha > 1
# (empirical max over 10^4 seeded ensembles, doubled as margin):
#   alpha=1.5 -> max 2.9061, recorded 5.82
#   alpha=2.0 -> max 5.6717, recorded 11.35
DOUBLING_CONSTANTS = {1.5: 5.82, 2.0: 11.35}

ORACLE_CFG = OracleConfig(restarts=2, iterations=25, dirichlet_per_restart=6)
CHAIN_CFG = OracleConfig(restarts=1, iterations=12, dirichlet_per_restart=8)

REPRESENTATIVE_PAIRS = [
    (2.0, 3.0),  # I
    (3.0, 2.0),  # II
    (1.0, 1.0),  # III
    (0.5, 1.0),  # III
    (1.0, 0.5),  # IV
    (0.5, 0.25),  # IV
]


def _triple(rng, n, exponent=3.0):
    start = int(rng.integers(-4, 5))
    mk = lambda: rand_window(rng, n, start, exponent)
    return mk(), mk(), mk()


def test_criterion_1_bridge_exactness():
    """Discrete = continuous, bit exact, for 500+ rational step instances."""
    t0 = time.time()
    rng = np.random.default_rng(1001)
    checked = 0
    for _ in range(500):
        n = int(rng.integers(1, 13))
        start = int(rng.integers(-5, 6))
        u = rand_dyadic_window(rng, n, start)
        v = rand_dyadic_window(rng, n, start)
        w = rand_dyadic_window(rng, n, start)
        a = rand_dyadic_window(rng, n, start, allow_zero=True)
        q = float(rng.integers(1, 4))
        res = bridge_check(u, v, w, a, 1.0, q, form="gop")
        assert res.exact_lhs and res.exact_rhs
        assert res.discrete_lhs_pow == res.continuous_lhs_pow  # zero tolerance
        assert res.discrete_rhs_pow == res.continuous_rhs_pow
        # the reflected form only bounds: continuous <= discrete
        anti = bridge_check(u, v, w, a, 1.0, q, form="antigop")
        assert anti.continuous_lhs_pow <= anti.discrete_lhs_pow
        assert anti.rhs_equal
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"bridge sweep took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE PASS criterion-1 (bridge exactness): {checked} instances, "
        f"exact rational equality, {elapsed:.2f}s"
    )


def test_criterion_2_linft_exactness():
    """Spike oracle = exact sup formula (1e-9); brute force agrees (1e-6)."""
    t0 = time.time()
    rng = np.random.default_rng(1002)
    worst_spike = 0.0
    worst_brute = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        start = int(rng.integers(-5, 6))
        u = rand_window(rng, n, start)
        v = rand_window(rng, n, start)
        p = float(rng.choice([0.25, 0.5, 1.0]))
        ones = Window(start, (1.0,) * n)
        prob = RatioProblem(u, v, ones, p, INF, ANTIGOP_SUP)
        exact = char_linft_exact(u, v, p)
        spike = spike_oracle(prob)
        assert spike.certificate == "exact-spike"
        brute = brute_force_constant(prob, ORACLE_CFG)
        rel_s = abs(spike.constant - exact) / exact
        rel_b = abs(brute.constant - exact) / exact
        worst_spike = max(worst_spike, rel_s)
        worst_brute = max(worst_brute, rel_b)
        assert rel_s <= 1e-9
        assert rel_b <= 1e-6
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"linft sweep took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE PASS criterion-2 (exact q=inf formula): 1000 instances, "
        f"max rel err spike={worst_spike:.2e} brute={worst_brute:.2e}, {elapsed:.1f}s"
    )


def test_criterion_3_elementary_chain():
    """sup <= sum <= p-norm on the tail, exactly, 10^4 probes, 0 failures."""
    rng = np.random.default_rng(1003)
    failures = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 13))
        a = rand_window(rng, n, int(rng.integers(-5, 6)), 4.0, zero_prob=0.25)
        p = float(rng.uniform(0.01, 1.0)) if rng.random() < 0.85 else 1.0
        idx = int(rng.integers(a.start, a.stop))
        s1, s2, s3 = elementary_chain_check(a, p, idx)
        if not (s1 <= s2 <= s3):
            failures += 1
    assert failures == 0
    print(
        "\nACCEPTANCE PASS criterion-3 (elementary chain): 10000 probes, 0 failures"
    )


def test_criterion_4_block_partition_invariants():
    """Construction invariants and minimality on 1000 random weight windows."""
    rng = np.random.default_rng(1004)
    vacuous = 0
    for _ in range(1000):
        n = int(rng.integers(1, 33))
        w = rand_window(rng, n, int(rng.integers(-8, 9)), 4.0, zero_prob=0.3)
        n0 = int(rng.integers(w.start, w.stop))
        bp = block_partition(w, n0)
        report = verify_partition_invariants(w, bp)
        assert report.all_pass, (w.to_json(), n0, report.failures)
        assert report.checks.get("minimality", True)
        if report.vacuous:
            vacuous += 1
    print(
        f"\nACCEPTANCE PASS criterion-4 (block partition): 1000 windows all pass "
        f"({vacuous} vacuous with K < 3)"
    )


def test_criterion_5_doubling_lemma():
    """alpha <= 1: lhs <= 2 rhs with zero violations; alpha in {1.5, 2}:
    lhs <= recorded C(alpha) rhs on a fresh validation ensemble."""
    rng = np.random.default_rng(1005)
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(3, 12))
        b = Window(0, tuple(np.concatenate(
            [[rng.uniform(0.5, 2.0)], rng.uniform(2.0, 4.0, n - 1)]).cumprod()))
        kind = int(rng.integers(0, 4))
        if kind == 0:
            cc = rng.uniform(0.0, 1.0, n)
        elif kind == 1:
            cc = rng.uniform(0.5, 2.0) ** np.arange(n)
        elif kind == 2:
            cc = np.zeros(n)
            cc[rng.integers(0, n)] = rng.uniform(0.5, 2.0)
        else:
            cc = np.full(n, float(rng.uniform(0.1, 2.0)))
        c = Window(0, tuple(cc))
        alpha = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
        out = doubling_lemma_check(b, c, alpha, 0, n - 1)
        if out.lhs_sum > 2.0 * out.rhs_sum or out.lhs_sup > 2.0 * out.rhs_sup:
            violations += 1
    assert violations == 0
    worsts = {}
    for alpha, recorded in DOUBLING_CONSTANTS.items():
        worst = 0.0
        rng2 = np.random.default_rng(int(alpha * 1000) + 77)
        for _ in range(10_000):
            n = int(rng2.integers(3, 12))
            b = np.concatenate(
                [[rng2.uniform(0.5, 2.0)], rng2.uniform(2.0, 4.0, n - 1)]).cumprod()
            cc = rng2.uniform(0.0, 1.0, n)
            tails = np.cumsum(cc[::-1])[::-1]
            num = float(np.sum(tails**alpha * b))
            den = float(np.sum(cc**alpha * b))
            if den > 0:
                worst = max(worst, num / den)
        assert worst <= recorded, f"alpha={alpha}: {worst} > {recorded}"
        worsts[alpha] = worst
    print(
        "\nACCEPTANCE PASS criterion-5 (doubling lemma): 10000 probes alpha<=1 "
        f"0 violations; validation maxima {worsts} within recorded "
        f"{DOUBLING_CONSTANTS}"
    )


def test_criterion_6_chain_equivalences():
    """A1 <= A2 <= A3 per candidate over shared pools, ratio A3/A1 finite and
    seed-stable (< 20 percent drift between disjoint seeds)."""
    grid = [(p, q) for p in (0.5, 1.0) for q in (0.5, 1.0, 2.0)]
    drifts = {}
    for p, q in grid:
        maxima = []
        for seed in (101, 202):
            rng = np.random.default_rng((seed, int(p * 10), int(q * 10)))
            instances = []
            for _ in range(200):
                n = int(rng.integers(2, 9))
                u, v, w = _triple(rng, n)
                family = ("antigop", "gop", "simple")[int(rng.integers(0, 3))]
                instances.append((u, v, w, p, q, family))
            worst = 0.0
            for rep in chain_equivalence_sweeps(instances, CHAIN_CFG):
                assert rep.violations == 0, (p, q, rep.family)
                assert rep.a1 <= rep.a2 <= rep.a3
                assert math.isfinite(rep.ratio31)
                worst = max(worst, rep.ratio31)
            maxima.append(worst)
        drift = abs(maxima[0] - maxima[1]) / min(maxima)
        drifts[(p, q)] = (round(maxima[0], 3), round(maxima[1], 3))
        assert drift < 0.20, f"(p={p}, q={q}): maxima {maxima} drift {drift:.2%}"
    print(
        "\nACCEPTANCE PASS criterion-6 (chain equivalences): 200x2 triples per "
        f"(p, q), exact ordering, seed-stable maxima {drifts}"
    )


def _ratio_sweep(rng, p, q, count, cfg):
    """(gop, antigop-printed, antigop-flipped) formula/oracle ratios."""
    triples = [_triple(rng, int(rng.integers(2, 9))) for _ in range(count)]
    problems = [RatioProblem(u, v, w, p, q, form) for form in (GOP, ANTIGOP) for u, v, w in triples]
    brute = [res.constant for res in brute_force_constants(problems, cfg)]
    out = {"gop": [], "printed": [], "flipped": []}
    for (u, v, w), b_gop, b_anti in zip(triples, brute[:count], brute[count:]):
        out["gop"].append(char_gop(u, v, w, p, q).value / b_gop)
        out["printed"].append(char_antigop(u, v, w, p, q, "printed").value / b_anti)
        out["flipped"].append(char_antigop(u, v, w, p, q, "flipped").value / b_anti)
    return out


def test_criterion_7_characterization_vs_oracle():
    """Calibration-then-validation containment of F/B per representative
    (p, q); where the printed reflected formula fails, the flipped variant is
    tested and the report names which variant tracks the oracle.

    The ratios are bounded on the sampled weight box, but the misprinted
    reflected variants are heavy-tailed (spreads of 30 to 2000 versus about 2
    for the principal form), so the interval endpoints are estimated from a
    300-sample calibration sweep and widened by a 2x margin before the
    200-sample validation sweep is checked for containment.  The per-variant
    spread in the report is the tracking evidence itself."""
    margin = 2.0
    report_lines = []
    for pair_idx, (p, q) in enumerate(REPRESENTATIVE_PAIRS):
        cal = _ratio_sweep(np.random.default_rng((11, pair_idx)), p, q, 300, ORACLE_CFG)
        val = _ratio_sweep(np.random.default_rng((12, pair_idx)), p, q, 200, ORACLE_CFG)
        case = classify_regime(p, q).case_id.value
        contained = {}
        spreads = {}
        for key in ("gop", "printed", "flipped"):
            lo = min(cal[key]) / margin
            hi = max(cal[key]) * margin
            contained[key] = all(lo <= r <= hi for r in val[key])
            spreads[key] = max(cal[key] + val[key]) / min(cal[key] + val[key])
        assert contained["gop"], f"gop containment failed at (p={p}, q={q})"
        assert contained["printed"] or contained["flipped"], (
            f"no reflected variant contained at (p={p}, q={q})"
        )
        tracker = "printed" if spreads["printed"] <= spreads["flipped"] else "flipped"
        if not contained["printed"]:
            tracker = "flipped"
        report_lines.append(
            f"  regime {case} (p={p}, q={q}): gop spread {spreads['gop']:.2f}; "
            f"antigop printed {'ok' if contained['printed'] else 'FAILS'} "
            f"spread {spreads['printed']:.2f}, flipped "
            f"{'ok' if contained['flipped'] else 'FAILS'} spread "
            f"{spreads['flipped']:.2f} -> {tracker} tracks the oracle"
        )
    print("\nACCEPTANCE PASS criterion-7 (formula vs oracle containment):")
    for line in report_lines:
        print(line)


def test_criterion_8_monotone_reduction_invariance():
    """Best ratio unchanged when the denominator weight is replaced by its
    tail lower envelope (tail-monotone sup functional, 100+ instances)."""
    rng = np.random.default_rng(1008)
    cfg = OracleConfig(restarts=2, iterations=20)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        u, v, w = _triple(rng, n)
        q = float(rng.choice([1.0, 2.0]))
        before = brute_force_constant(
            RatioProblem(u, v, w, 1.0, q, ANTIGOP_SUP), cfg
        ).constant
        after = brute_force_constant(
            RatioProblem(u, reduce_weight_monotone(v, "right-sum"), w, 1.0, q, ANTIGOP_SUP),
            cfg,
        ).constant
        rel = abs(after - before) / before
        worst = max(worst, rel)
        assert rel <= 1e-6
    print(
        f"\nACCEPTANCE PASS criterion-8 (monotone reduction): 100 instances, "
        f"max rel diff {worst:.2e}"
    )


def test_criterion_9_homogeneity_and_monotonicity():
    """10^4 random probes of the scaling and entrywise-monotonicity laws at
    1e-10 relative tolerance (hardyops ratios/sides, characterization values;
    the printed reflected II/IV variants are non-homogeneous as printed, so
    their scaling probes run against the flipped variants, which is part of
    the transcription evidence reported by criterion 7)."""
    rng = np.random.default_rng(1009)
    probes = 0
    forms = [GOP, ANTIGOP, GOP_SUP, ANTIGOP_SUP]
    for _ in range(4000):
        n = int(rng.integers(1, 9))
        u, v, w = _triple(rng, n)
        a = Window(u.start, tuple(rng.uniform(0.01, 4.0, n)))
        p = float(rng.choice([0.5, 1.0, 2.0]))
        q = float(rng.choice([0.5, 1.0, 3.0]))
        prob = RatioProblem(u, v, w, p, q, forms[int(rng.integers(0, 4))])
        t = float(2.0 ** rng.uniform(-6, 6))
        r0 = ratio(prob, a)
        r1 = ratio(prob, a.scaled(t))
        assert r1 == pytest.approx(r0, rel=1e-10)
        probes += 1
    for _ in range(3000):
        n = int(rng.integers(1, 9))
        u, v, w = _triple(rng, n)
        a = Window(u.start, tuple(rng.uniform(0.0, 4.0, n)))
        p = float(rng.choice([0.5, 1.0, 2.0]))
        q = float(rng.choice([0.5, 1.0, 3.0]))
        form = forms[int(rng.integers(0, 4))]
        prob = RatioProblem(u, v, w, p, q, form)
        base_lhs = lhs(prob, a)
        base_rhs = rhs(v, p, a)
        k = int(rng.integers(0, n))
        bump = float(rng.uniform(0.1, 2.0))
        bumped = lambda win: win.with_values(
            [x + bump * (i == k) for i, x in enumerate(win.values)]
        )
        assert lhs(prob, bumped(a)) >= base_lhs * (1 - 1e-10)
        assert lhs(RatioProblem(bumped(u), v, w, p, q, form), a) >= base_lhs * (1 - 1e-10)
        assert lhs(RatioProblem(u, v, bumped(w), p, q, form), a) >= base_lhs * (1 - 1e-10)
        assert rhs(bumped(v), p, a) >= base_rhs * (1 - 1e-10)
        probes += 1
    pairs = REPRESENTATIVE_PAIRS
    for _ in range(3000):
        n = int(rng.integers(2, 8))
        u, v, w = _triple(rng, n)
        p, q = pairs[int(rng.integers(0, len(pairs)))]
        case = classify_regime(p, q).case_id.value
        variant = "flipped" if case in ("II", "IV") else "printed"
        t = float(2.0 ** rng.uniform(-4, 4))
        for fn in (
            lambda uu, vv, ww: char_gop(uu, vv, ww, p, q).value,
            lambda uu, vv, ww: char_antigop(uu, vv, ww, p, q, variant).value,
        ):
            base = fn(u, v, w)
            assert fn(u.scaled(t), v, w) == pytest.approx(t * base, rel=1e-10)
            assert fn(u, v.scaled(t), w) == pytest.approx(
                t ** (-1.0 / p) * base, rel=1e-10
            )
            assert fn(u, v, w.scaled(t)) == pytest.approx(
                t ** (1.0 / q) * base, rel=1e-10
            )
        probes += 1
    assert probes >= 10_000
    print(
        f"\nACCEPTANCE PASS criterion-9 (homogeneity/monotonicity): {probes} "
        "probes at 1e-10"
    )
