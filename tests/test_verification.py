import dataclasses
import json
import math

import numpy as np
import pytest

from hardyseq import blocks, bridge, hardyops, oracle, verification
from hardyseq.verification import (
    ALL_SUITES,
    SweepSpec,
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


# (module, library call, change to its result) per suite.  The two oracle
# suites check their whole ensemble through one list call, so their change
# maps over the list.  Each change fails exactly one predicate of the suite's
# check.  For bridge, linft,
# chain-equivalence and doubling it is a predicate that a weaker replay would
# skip: the reflected form, the brute-force bound, the finiteness of A3/A1
# and the sup pair.
REPLAY_FAULTS = {
    "chain": (hardyops, "elementary_chain_check", lambda t: (t[2] + 1.0, t[1], t[2])),
    "bridge": (bridge, "bridge_check", _antigop_above_discrete),
    "partition": (blocks, "verify_partition_invariants", _failing_invariants),
    "linft": (
        oracle,
        "brute_force_constant",
        lambda r: dataclasses.replace(r, constant=r.constant / 2),
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
        "doubling_lemma_check",
        lambda r: dataclasses.replace(r, lhs_sup=3.0 * r.rhs_sup),
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
