import dataclasses
import json
import math

import numpy as np
import pytest

from hardyseq import blocks, bridge, hardyops, oracle, verification
from hardyseq.verification import (
    ALL_SUITES,
    SweepSpec,
    _pick,
    _weight_triple,
    rand_dyadic_window,
    rand_window,
    replay_instance,
    run_verification,
)


def test_all_suites_pass_on_small_ensemble():
    spec = SweepSpec(seed=9, ensemble=6, window_sizes=(3, 6), regimes=((1.0, 1.0), (0.5, 0.5)))
    report = run_verification(spec)
    assert report["passed"] is True
    assert set(report["suites"]) == set(ALL_SUITES)
    assert report["schema_version"] == 1
    stats = report["suites"]["equivalence-ratio"]["ratio_stats"]
    for entry in stats.values():
        assert entry["min"] <= entry["median"] <= entry["max"]


@pytest.mark.parametrize("exponent", [600.0, 1000.0])
def test_wide_weight_sweep_records_failures(exponent):
    """Weights over 2^+-600 and 2^+-1000 overflow the closed forms and the
    oracle; the sweep records those as failures and never raises."""
    spec = SweepSpec(seed=1, weight_exponent=exponent, ensemble=20)
    with np.errstate(all="ignore"):  # overflow is what these weights test
        report = run_verification(spec)
    assert report["passed"] is False
    assert any(suite["failures"] for suite in report["suites"].values())
    json.dumps(report)


def test_report_is_json_serializable_and_deterministic():
    spec = SweepSpec(seed=4, ensemble=3, suites=("chain", "doubling"))
    r1 = json.dumps(run_verification(spec), sort_keys=True)
    r2 = json.dumps(run_verification(spec), sort_keys=True)
    assert r1 == r2


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(suites=())
    with pytest.raises(ValueError):
        SweepSpec(suites=("nope",))
    with pytest.raises(ValueError):
        SweepSpec(regimes=())
    with pytest.raises(ValueError):
        SweepSpec(regimes=((0.0, 1.0),))
    with pytest.raises(ValueError, match="p finite"):
        SweepSpec(regimes=((math.inf, 2.0),))
    assert SweepSpec(regimes=((2.0, math.inf),)).regimes == ((2.0, math.inf),)
    with pytest.raises(ValueError):
        SweepSpec(ensemble=0)
    with pytest.raises(ValueError):
        SweepSpec(window_sizes=())


def test_spec_json_round_trip():
    entry = {"suite": "chain", "a": {"start": 0, "values": [1.0, 1.0]}, "p": 0.5, "n": 0}
    for spec in (
        SweepSpec(seed=7, ensemble=5, out="report.json"),
        SweepSpec(seed=7, ensemble=5, replay=(entry,)),
    ):
        again = SweepSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert again == spec
    assert "replay" not in SweepSpec().to_json()


@pytest.mark.parametrize("value", [2.5, True, "3"])
@pytest.mark.parametrize("field", ["seed", "ensemble", "window_sizes"])
def test_spec_rejects_non_integer_fields(field, value):
    """``int`` would truncate these; an integral float still reads as an
    integer."""
    obj = {field: [4, value] if field == "window_sizes" else value}
    with pytest.raises(ValueError, match="must be an integer"):
        SweepSpec.from_json(obj)
    whole = {field: [4, 3.0] if field == "window_sizes" else 3.0}
    ints = {field: [4, 3] if field == "window_sizes" else 3}
    assert SweepSpec.from_json(whole) == SweepSpec.from_json(ints)


@pytest.mark.parametrize("value", [True, "3", None])
@pytest.mark.parametrize("field", ["regimes", "weight_exponent"])
def test_spec_rejects_non_numeric_fields(field, value):
    """``float`` would read ``true`` as 1.0 and ``"3"`` as 3.0; an int still
    reads as a float."""
    if field == "regimes":
        bad, ints, floats = [[[2, value]], [[value, 2]]], [[2, 3]], [[2.0, 3.0]]
    else:
        bad, ints, floats = [value], 3, 3.0
    for x in bad:
        with pytest.raises(ValueError, match="must be a number"):
            SweepSpec.from_json({field: x})
    assert SweepSpec.from_json({field: ints}) == SweepSpec.from_json({field: floats})


@pytest.mark.parametrize("value", [True, "0.5", None])
@pytest.mark.parametrize(
    "entry,key",
    [({"suite": "chain", "a": {"start": 0, "values": [1, 2]}, "p": 0.5, "n": 0}, "p"),
     ({"suite": "equivalence-ratio", **{k: {"start": 0, "values": [1, 2]} for k in "uvw"},
       "p": 2.0, "q": 3.0, "form": "gop"}, "q"),
     ({"suite": "doubling", "b": {"start": 0, "values": [1, 2, 4]},
       "c": {"start": 0, "values": [1, 1, 1]}, "alpha": 0.5}, "alpha")],
)
def test_replay_rejects_a_non_numeric_exponent(entry, key, value):
    """Replay reads ``p``, ``q`` and ``alpha`` as the sweep recorded them:
    numbers, never ``true`` or a string."""
    replay_instance(entry)
    with pytest.raises(ValueError, match=f"{key} must be a number"):
        replay_instance({**entry, key: value})


@pytest.mark.parametrize("value", [0.5, True, "0"])
@pytest.mark.parametrize(
    "entry",
    [{"suite": "chain", "a": {"start": 0, "values": [1, 2]}, "p": 0.5, "n": 0},
     {"suite": "partition", "w": {"start": 0, "values": [1, 1, 1, 1]}, "n0": 0}],
)
def test_replay_rejects_a_non_integer_index(entry, value):
    key = "n" if "n" in entry else "n0"
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        replay_instance({**entry, key: value})


def test_rand_window_respects_zero_prob():
    rng = np.random.default_rng(0)
    w = rand_window(rng, 50, exponent=2.0, zero_prob=0.5)
    assert any(v == 0 for v in w.values)
    assert any(v > 0 for v in w.values)
    assert all(0.25 <= v <= 4.0 for v in w.values if v > 0)


def test_pick_draws_what_generator_choice_draws():
    """The sweeps' draws, and so their reports, are those of
    ``Generator.choice``: the same entries, and the stream left in the same
    state."""
    for seq in ((3, 5, 8), [0.25, 0.5, 1.0], [5], (1, 2, 3, 4, 6, 8, 12, 16, 24)):
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        assert [_pick(ours, seq) for _ in range(1000)] == [theirs.choice(seq) for _ in range(1000)]
        assert ours.random() == theirs.random()


def test_rand_dyadic_window_is_exactly_dyadic():
    rng = np.random.default_rng(1)
    w = rand_dyadic_window(rng, 30)
    for v in w.values:
        assert (v * 8) == int(v * 8)


def test_replay_unknown_suite():
    with pytest.raises(ValueError):
        replay_instance({"suite": "mystery"})


def test_replay_all_suites():
    entries = [
        {"suite": "chain", "a": {"start": 0, "values": [1, 2]}, "p": 0.5, "n": 0},
        {
            "suite": "bridge",
            "u": {"start": 0, "values": [1]},
            "v": {"start": 0, "values": [1]},
            "w": {"start": 0, "values": [1]},
            "a": {"start": 0, "values": [2]},
            "q": 2,
        },
        {"suite": "partition", "w": {"start": 0, "values": [1, 1, 1, 1]}, "n0": 0},
        {
            "suite": "linft",
            "u": {"start": 0, "values": [2, 1]},
            "v": {"start": 0, "values": [4, 1]},
            "p": 1.0,
        },
        {
            "suite": "equivalence-ratio",
            "u": {"start": 0, "values": [1, 1]},
            "v": {"start": 0, "values": [1, 1]},
            "w": {"start": 0, "values": [1, 1]},
            "p": 1.0,
            "q": 1.0,
            "form": "gop",
        },
        {
            "suite": "chain-equivalence",
            "u": {"start": 0, "values": [1, 1]},
            "v": {"start": 0, "values": [1, 1]},
            "w": {"start": 0, "values": [1, 1]},
            "p": 0.5,
            "q": 1.0,
            "family": "antigop",
        },
        {
            "suite": "doubling",
            "b": {"start": 0, "values": [1, 2, 4]},
            "c": {"start": 0, "values": [1, 1, 1]},
            "alpha": 1.0,
        },
    ]
    for entry in entries:
        out = replay_instance(entry)
        assert out["passed"], entry["suite"]


def _oracle_suite_reference(spec):
    """The two oracle suites' reports and per-instance observations, rebuilt
    by drawing in the suites' order and calling the singular oracle functions
    on one instance at a time."""
    sizes = [n for n in spec.window_sizes if n <= 8] or [5]
    rng = np.random.default_rng((spec.seed, ALL_SUITES.index("equivalence-ratio")))
    eq_obs, stats = [], {}
    for p, q in spec.regimes:
        for form in ("gop", "antigop"):
            cell = []
            for _ in range(spec.ensemble):
                u, v, w = _weight_triple(rng, int(rng.choice(sizes)), spec.weight_exponent)
                prob = hardyops.RatioProblem(u, v, w, p, q, hardyops.form_by_name(form))
                eq = oracle.equivalence_ratio(prob, oracle.FAST_CONFIG)
                cell.append({"F": eq.formula, "B": eq.brute, "ratio": eq.ratio})
            eq_obs += cell
            arr = np.asarray([obs["ratio"] for obs in cell])
            stats[f"{form}:p={p},q={q}"] = {
                "min": float(arr.min()),
                "median": float(np.median(arr)),
                "max": float(arr.max()),
            }
    rng = np.random.default_rng((spec.seed, ALL_SUITES.index("chain-equivalence")))
    chain_obs = []
    for p, q in [(p, q) for p, q in spec.regimes if p <= 1]:
        for family in ("antigop", "gop", "simple"):
            for _ in range(max(spec.ensemble // 4, 1)):
                u, v, w = _weight_triple(rng, int(rng.choice(sizes)), spec.weight_exponent)
                rep = oracle.chain_equivalence_sweep(u, v, w, p, q, oracle.FAST_CONFIG, family)
                chain_obs.append(rep.to_json())
    reports = {
        "equivalence-ratio": {"passed": True, "ratio_stats": stats, "failures": []},
        "chain-equivalence": {
            "passed": True,
            "max_ratio_A3_A1": max(obs["ratio_A3_A1"] for obs in chain_obs),
            "failures": [],
        },
    }
    return reports, {"equivalence-ratio": eq_obs, "chain-equivalence": chain_obs}


def test_oracle_suites_match_one_instance_at_a_time(monkeypatch):
    """Checking a whole ensemble in one call gives the report, and every
    instance the observation, that one-instance calls in draw order give."""
    spec = SweepSpec(
        seed=5, suites=("equivalence-ratio", "chain-equivalence"), ensemble=8,
        window_sizes=(3, 5, 8), regimes=((2.0, 3.0), (1.0, 0.5), (0.5, 1.0), (0.5, 0.25)),
    )
    want_reports, want_obs = _oracle_suite_reference(spec)
    observed = {}
    real = verification._check

    def spy(failures, suite, instances):
        out = real(failures, suite, instances)
        observed.setdefault(suite, []).extend(out)
        return out

    monkeypatch.setattr(verification, "_check", spy)
    report = run_verification(spec)
    assert report["suites"] == want_reports
    assert observed == want_obs


def _failing_invariants(report):
    report.record("first_step", 1, False)
    return report


def _antigop_above_discrete(res):
    if res.form == "gop":
        return res
    return dataclasses.replace(res, continuous_lhs_pow=res.discrete_lhs_pow + 1)


# (module, library call, change to its result) per suite.  The three oracle
# suites check their whole ensemble through one list call, so their change
# maps over the list; chain and doubling check their probes as rows, through
# the row kernel that the public entry points share, so theirs maps over the
# kernel's per-row results.  Each change fails exactly one predicate of the
# suite's check.  For bridge, linft, chain-equivalence and doubling it is a
# predicate that a weaker replay would skip: the reflected form, the
# brute-force bound, the finiteness of A3/A1 and the sup pair.
REPLAY_FAULTS = {
    "chain": (
        hardyops,
        "_chain_rows",
        lambda ts: [(t[2] + 1.0, t[1], t[2]) for t in ts],
    ),
    "bridge": (bridge, "bridge_check", _antigop_above_discrete),
    "partition": (blocks, "verify_partition_invariants", _failing_invariants),
    "linft": (
        oracle,
        "brute_force_constants",
        lambda rs: [dataclasses.replace(r, constant=r.constant / 2) for r in rs],
    ),
    "equivalence-ratio": (
        oracle,
        "equivalence_ratios",
        lambda rs: [dataclasses.replace(r, ratio=math.inf, sentinel=False) for r in rs],
    ),
    "chain-equivalence": (
        oracle,
        "chain_equivalence_sweeps",
        lambda rs: [
            dataclasses.replace(r, ratio31=math.inf, sentinel=False, violations=0)
            for r in rs
        ],
    ),
    "doubling": (
        blocks,
        "_doubling_rows",
        lambda sums: [sums[0], [3.0 * x for x in sums[3]], sums[2], sums[3]],
    ),
}


@pytest.mark.parametrize("suite", ALL_SUITES)
def test_replay_reproduces_the_sweep_verdict(suite, monkeypatch):
    module, name, alter = REPLAY_FAULTS[suite]
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: alter(real(*args, **kwargs)))
    spec = SweepSpec(
        seed=3, suites=(suite,), ensemble=2, window_sizes=(3,), regimes=((1.0, 1.0),)
    )
    report = run_verification(spec)
    failures = report["suites"][suite]["failures"]
    assert failures and report["passed"] is False
    for entry in failures:
        recorded = json.loads(json.dumps(entry))
        out = replay_instance(recorded)
        assert out["passed"] is False
        assert out["observed"] == recorded["observed"]


@pytest.mark.parametrize("scale", [0.4, 2.5])
def test_gop_spike_range_ratio_outside_its_bracket_fails(scale, monkeypatch):
    """In regime III the oracle's gop constant is the spike maximum C, and
    F lies in [C, 2^(1/q) C] (``_check_equivalence``).  A constant scaled
    by 0.4 puts F/B above 2^(1/q) = 2, one scaled by 2.5 puts it below 1:
    each gop instance fails, and so does its replay; antigop instances,
    which have no such bracket, still pass.  The fault is planted in the
    search of each group, which ``equivalence_ratios`` reaches through
    ``_equivalences``."""
    real = oracle._search
    monkeypatch.setattr(
        oracle,
        "_search",
        lambda *a, **k: [dataclasses.replace(r, constant=r.constant * scale) for r in real(*a, **k)],
    )
    spec = SweepSpec(seed=4, suites=("equivalence-ratio",), ensemble=3,
                     window_sizes=(3, 5), regimes=((1.0, 1.0), (0.5, 1.0)))
    report = run_verification(spec)
    failures = report["suites"]["equivalence-ratio"]["failures"]
    assert len(failures) == 6 and report["passed"] is False
    for entry in failures:
        assert entry["form"] == "gop"
        ratio = entry["observed"]["ratio"]
        assert ratio > 2.0 if scale < 1 else ratio < 1.0
        out = replay_instance(json.loads(json.dumps(entry)))
        assert out["passed"] is False
        assert out["observed"] == entry["observed"]


@pytest.mark.parametrize(
    "alter,failing",
    [(lambda t: (t[0], t[1], t[1]), 533), (lambda t: (t[0], t[0], t[0]), 671)],
    ids=["powered-sum-dropped", "all-the-max"],
)
def test_chain_check_catches_a_wrong_chain(alter, failing, monkeypatch):
    """The chain triple is held to independent values, not only to its own
    order: a chain kernel (``hardyops._chain_rows``, which the sweep and
    ``elementary_chain_check`` share) that returns s2 for s3, or s1 for all
    three, still satisfies ``s1 <= s2 <= s3`` but fails the default sweep at
    seed 0, in every probe whose tail has two positive entries (and p < 1
    for the first).  Unchanged, every probe passes, also at weights
    2^(+-300) and 2^(+-1000)."""
    for exponent in (3.0, 300.0, 1000.0):
        spec = SweepSpec(seed=0, suites=("chain",), weight_exponent=exponent)
        assert run_verification(spec)["passed"], exponent
    real = hardyops._chain_rows
    monkeypatch.setattr(
        hardyops, "_chain_rows", lambda tails, p: [alter(t) for t in real(tails, p)]
    )
    report = run_verification(SweepSpec(seed=0, suites=("chain",)))
    assert len(report["suites"]["chain"]["failures"]) == failing
    for entry in report["suites"]["chain"]["failures"][:20]:
        observed = entry["observed"]
        assert observed[0] <= observed[1] <= observed[2]


def _probes_alone(spec, suite):
    """The chain or doubling probes of ``spec``, drawn one at a time into
    windows (``rand_window``, ``Window``) as the suites drew them before
    they drew into rows, kept as the reference for the rows; chunked as
    the suites chunk them."""
    rng = np.random.default_rng((spec.seed, ALL_SUITES.index(suite)))

    def chain():
        n_len = int(_pick(rng, spec.window_sizes))
        a = rand_window(rng, n_len, int(rng.integers(-4, 5)), spec.weight_exponent, 0.2)
        p = float(rng.uniform(0.05, 1.0)) if rng.random() < 0.8 else 1.0
        return {"a": a, "p": p, "n": int(rng.integers(a.start, a.stop))}

    def doubling():
        n_len = int(rng.integers(3, 10))
        factors = rng.uniform(2.0, 4.0, size=n_len - 1)
        b = verification.Window(0, np.concatenate([[rng.uniform(0.5, 2.0)], factors]).cumprod())
        c = rand_window(rng, n_len, 0, spec.weight_exponent, 0.3)
        return {"b": b, "c": c, "alpha": _pick(rng, (0.25, 0.5, 1.0))}

    draw, count = {"chain": (chain, max(spec.ensemble * 25, 100)),
                   "doubling": (doubling, max(spec.ensemble * 10, 50))}[suite]
    size = verification._CHUNK_PROBES
    return [[draw() for _ in range(min(size, count - done))] for done in range(0, count, size)]


def _kernel_rows(chunk, suite):
    """The rows a chunk of reference probes gives its kernel, group by
    group in order of first appearance: the tails and ``p`` per tail length
    for chain, ``b``, ``c`` and ``alpha`` per length and ``alpha`` for
    doubling."""
    groups = {}
    for x in chunk:
        if suite == "chain":
            groups.setdefault(x["a"].stop - x["n"], []).append(x)
        else:
            groups.setdefault((len(x["b"]), x["alpha"]), []).append(x)
    if suite == "chain":
        return [(np.stack([x["a"].values[x["n"] - x["a"].start:] for x in xs]).tobytes(),
                 np.array([x["p"] for x in xs]).tobytes()) for xs in groups.values()]
    return [(np.stack([x["b"].values for x in xs]).tobytes(),
             np.stack([x["c"].values for x in xs]).tobytes(), xs[0]["alpha"])
            for xs in groups.values()]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "fields",
    [{}, {"window_sizes": (1, 9, 16, 33)}, {"weight_exponent": 1000.0}, {"ensemble": 41},
     {"ensemble": 103}],
    ids=["default", "sizes-1-33", "exponent-1000", "ensemble-41", "ensemble-103"],
)
def test_probe_rows_are_the_windows_drawn_one_at_a_time(seed, fields, monkeypatch):
    """The chain and doubling suites draw into rows with the Generator calls
    of the per-probe windows they drew before: every chunk holds the same
    probes (window bytes, starts, ``p``, ``n``, ``alpha``), chunked at the
    same boundaries, and every kernel call gets the rows, exponents and
    groups that stacking those windows gives.  Ensemble 41 draws 1,025
    chain probes and 103 draws 1,030 doubling probes, two chunks each."""
    spec = SweepSpec(seed=seed, suites=("chain", "doubling"), **fields)
    chunks, calls = {"chain": [], "doubling": []}, {"chain": [], "doubling": []}
    real_check, real_chain, real_doubling = verification._check, hardyops._chain_rows, blocks._doubling_rows

    def check(failures, suite, instances):
        chunks[suite].append(instances)
        return real_check(failures, suite, instances)

    def chain_rows(tails, p):
        assert tails.flags.c_contiguous
        calls["chain"].append((tails.tobytes(), p.tobytes()))
        return real_chain(tails, p)

    def doubling_rows(bb, cc, alpha):
        assert bb.flags.c_contiguous and cc.flags.c_contiguous
        calls["doubling"].append((bb.tobytes(), cc.tobytes(), alpha))
        return real_doubling(bb, cc, alpha)

    monkeypatch.setattr(verification, "_check", check)
    monkeypatch.setattr(hardyops, "_chain_rows", chain_rows)
    monkeypatch.setattr(blocks, "_doubling_rows", doubling_rows)
    assert run_verification(spec)["passed"]
    for suite in ("chain", "doubling"):
        want = _probes_alone(spec, suite)
        assert [len(rows.lengths) for rows in chunks[suite]] == [len(c) for c in want]
        for rows, ref in zip(chunks[suite], want):
            for i, x in enumerate(ref):
                if suite == "chain":
                    a = rows.values[i, -rows.lengths[i]:]
                    assert (rows.starts[i], rows.p[i], rows.n[i]) == (x["a"].start, x["p"], x["n"])
                    assert a.tobytes() == x["a"].values.tobytes()
                else:
                    length = rows.lengths[i]
                    assert (rows.starts[i], rows.alpha[i]) == (0, x["alpha"])
                    assert rows.b[i, :length].tobytes() == x["b"].values.tobytes()
                    assert rows.c[i, :length].tobytes() == x["c"].values.tobytes()
        assert calls[suite] == [g for ref in want for g in _kernel_rows(ref, suite)]


def test_a_passing_probe_sweep_builds_no_window(monkeypatch):
    """The chain and doubling suites draw their probes into rows and build
    a window only to replay one: their default sweep, 1,000 and 400 probes
    that pass, builds none (1,800 when each probe drew its windows)."""
    built = []
    real = verification.Window.__init__

    def init(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(verification.Window, "__init__", init)
    assert run_verification(SweepSpec(suites=("chain", "doubling")))["passed"]
    assert len(built) == 0
