"""Tests of the benchmark's own pieces.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hardyseq as hs  # noqa: E402
from hardyseq import seqcore  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    tr = spans.Tracer()
    root = tr.add("root", 0.0, 10.0)
    tr.add("a", 1.0, 3.0, root)
    tr.add("b", 2.0, 5.0, root)  # overlaps a: union [1, 5]
    c = tr.add("c", 7.0, 8.0, root)
    tr.add("grandchild", 7.2, 7.9, c)  # covered by c, not counted twice
    tr.add("late", 9.0, 12.0, root)  # clipped to the parent's end
    selfs = spans.self_times(tr)
    assert selfs[root] == pytest.approx(10.0 - 4.0 - 1.0 - 1.0)
    assert selfs[c] == pytest.approx(1.0 - 0.7)
    stats = spans.summarize(tr)
    assert stats["root"].calls == 1 and stats["root"].total_s == pytest.approx(10.0)


def test_live_spans_nest_and_self_times_add_up_to_the_root():
    tr = spans.Tracer()

    def leaf(x):
        return sum(range(x))

    wrapped_leaf = tr.wrap("leaf", leaf)

    def mid(x):
        return wrapped_leaf(x) + wrapped_leaf(x)

    wrapped_mid = tr.wrap("mid", mid, size_of=lambda x: x, label=lambda r: "even" if r % 2 == 0 else "odd")
    with tr.span("root"):
        for n in (1000, 2000):
            wrapped_mid(n)
    names = [tr.names[i] for i in tr.name]
    assert names.count("leaf") == 4 and names.count("mid.even") == 2
    root = names.index("root")
    assert all(tr.parent[i] == root for i, nm in enumerate(names) if nm.startswith("mid"))
    assert all(names[tr.parent[i]].startswith("mid") for i, nm in enumerate(names) if nm == "leaf")
    assert sum(spans.self_times(tr)) == pytest.approx(tr.end[root] - tr.start[root], rel=1e-9)
    assert sorted(spans.durations_by_size(tr, "mid")) == [1000, 2000]


# ---------------------------------------------------------------------------
# Percentiles, sample counts and the size exponent
# ---------------------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert spans.percentile(values, 50) == 50.0
    assert spans.percentile(values, 90) == 90.0
    assert spans.percentile([3.0], 90) == 3.0
    assert spans.percentile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 50) == 4.0
    with pytest.raises(ValueError):
        spans.percentile([], 50)


@pytest.mark.parametrize("name", ["oracle-wide", "closed-form-large", "bridge-exact"])
def test_positions_beyond_p90_hold_ten_calls_in_a_minimal_run(name):
    # Percentiles rank the cycle positions; a run has at least MIN_INSTANCES
    # calls, so the positions above p90 hold at least ten calls.
    positions = len(workloads.WORKLOADS[name].build(1, 0))
    calls_each = max(1, -(-worker.MIN_INSTANCES // positions))
    beyond = positions - max(1, -(-90 * positions // 100))
    assert beyond * calls_each >= 10


def test_n_exp_recovers_the_power_law_from_bucket_medians():
    quad = {n: [3e-9 * n * n, 3e-9 * n * n * 1.01, 1.0] for n in (1000, 2000, 4000, 8000)}
    # the outlier 1.0 s per bucket is not the median of three
    quad = {n: [ts[0], ts[1], ts[0] * 0.99] for n, ts in quad.items()}
    assert spans.n_exp(quad) == pytest.approx(2.0, abs=0.01)
    lin = {n: [1e-6 * n] for n in (12, 24, 48, 96)}
    assert spans.n_exp(lin) == pytest.approx(1.0)
    assert spans.n_exp({100: [1.0]}) == 0.0
    assert spans.median([3.0, 1.0, 2.0, 10.0]) == 2.5


def test_speed_factor_reads_the_samples_around_the_call():
    m = speed.Meter()
    for i in range(40):  # the reference costs 2 ms until t = 5 s, then 1 ms
        t = 0.25 * i
        m.marks.append(t)
        m.costs.append(2 * speed.REFERENCE_S if t < 5 else speed.REFERENCE_S)
    assert m.factor(1.0, 1.1) == pytest.approx(0.5)
    assert m.factor(8.0, 8.1) == pytest.approx(1.0)
    # Far from every sample, the nearest MIN_SAMPLES decide.
    assert m.factor(100.0, 100.1) == pytest.approx(1.0)
    assert m.factor(-100.0, -99.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        speed.Meter().factor(0.0, 1.0)
    live = speed.Meter()
    live.sample(3)
    assert len(live.costs) == 3 and all(c > 0 for c in live.costs)


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _snapshot() -> dict:
    snap = {}
    for mod in spans._package_modules():
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = value
    for cls in (seqcore.Window, hs.RatioProblem):
        for key, value in vars(cls).items():
            snap[(cls.__name__, key)] = value
    return snap


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_wrappers_trace_every_import_and_are_removed_afterwards():
    before = _snapshot()
    tr = spans.Tracer()
    u = hs.Window(0, (1.0, 2.0, 0.5, 3.0))
    v = hs.Window(0, (2.0, 1.0, 1.0, 0.5))
    prob = hs.RatioProblem(u, v, hs.Window(0, (1.0,) * 4), 0.5, math.inf, hs.ANTIGOP_SUP)
    with spans.traced(tr, worker.TARGETS):
        assert not _same(before, _snapshot())
        hs.char_gop(u, v, v, 2.0, 3.0)
        hs.oracle.equivalence_ratio(hs.RatioProblem(u, v, v, 2.0, 3.0, hs.GOP), hs.OracleConfig(restarts=1, iterations=2))
        hs.spike_oracle(prob)
    assert _same(before, _snapshot())
    names = {tr.names[i] for i in tr.name}
    # char_gop is reached through the package and through oracle's own import
    assert {"charformulas.char_gop.I", "oracle.brute_force_constant", "oracle.spike_oracle",
            "seqcore.Window", "seqcore.as_array", "hardyops.RatioProblem"} <= names
    assert tr.counters["oracle.evaluations"] > 0
    calls_after = len(tr.start)
    hs.char_gop(u, v, v, 2.0, 3.0)
    assert len(tr.start) == calls_after


def test_wrappers_are_removed_when_the_traced_pass_raises():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Tracer(), worker.TARGETS):
            raise RuntimeError("boom")
    assert _same(before, _snapshot())


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def test_per_suite_calls_reproduce_the_combined_report():
    spec = hs.SweepSpec(seed=0)
    combined = hs.run_verification(spec)
    total = 0
    for suite in spec.suites:
        one = hs.run_verification(hs.SweepSpec(seed=0, suites=(suite,)))
        assert one["suites"][suite] == combined["suites"][suite]
        total += workloads.suite_checks(spec, suite)
        counted = workloads.reported_checks(spec, one["suites"][suite])
        if suite == "chain-equivalence":
            assert counted is None  # its report holds no count
        else:
            assert counted == workloads.suite_checks(spec, suite)
    assert total == 2120


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    wl = workloads.WORKLOADS[name]
    a, b, c = wl.build(5, 0), wl.build(5, 0), wl.build(6, 0)
    assert [i.args for i in a] == [i.args for i in b]
    assert [i.args for i in a] != [i.args for i in c]
    assert sum(i.weight for i in a) >= 1


def test_checks_catch_wrong_outputs():
    wl = workloads.WORKLOADS["oracle-wide"]
    inst = next(i for i in wl.build(1, 0) if i.n == 16 and i.tag == "gop-III")
    out = wl.call(inst)
    res = workloads.Outcome()
    wl.check(inst, out, res)
    assert res.failed == 0
    lowered = type(out)(out.constant * (1 - 1e-9), out.argmax, out.certificate, out.evaluations)
    wl.check(inst, lowered, res)
    assert res.failed == 1

    cf = workloads.WORKLOADS["closed-form-large"]
    env = next(i for i in cf.build(1, 0) if i.kind == "envelope")
    good = cf.call(env)
    res = workloads.Outcome()
    cf.check(env, good, res)
    assert res.failed == 0
    bad = good.with_values([x * 1.5 for x in good.values])
    cf.check(env, bad, res)
    assert res.failed == 1


def test_wide_range_slice_is_counted_apart_from_failures():
    cf = workloads.WORKLOADS["closed-form-large"]
    wide = [i for i in cf.build(1, 0) if i.tag.endswith("-wide") and i.n == 1000 and i.kind == "char_gop"]
    res = workloads.Outcome()
    for inst in wide:
        cf.check(inst, cf.call(inst), res)
    assert res.failed == 0
    assert res.notes.get("charformulas.wide_range_in_range", 0) >= res.notes.get("charformulas.wide_range_wrong", 0)
