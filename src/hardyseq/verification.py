"""Seeded verification sweeps: property suites with machine-readable reports.

Each suite draws random instances from a seeded generator and runs its
check on them.  A check takes a list of instances (each a dict of inputs:
windows and scalars) and returns one ``(observed, passed)`` per instance, in
order.  The two oracle suites draw an ensemble first and check it in one
call, which hands the whole list to the oracle's list entry points, so that
same-shaped problems are searched as one stack: ``chain-equivalence`` its
whole ensemble, ``equivalence-ratio`` one (p, q, form) cell at a time.  The
other suites check each instance as it is drawn, their per-instance check
mapped over a list of one.  A failing instance is recorded as its suite
name, its inputs in the wire format (windows as ``{"start", "values"}``,
scalars as numbers or strings) and the observed numbers.
:func:`replay_instance` decodes such a record and runs the same check on a
list of one, so a replay reproduces the sweep's ``observed`` and verdict bit
for bit (the oracle gives every problem the bits it has alone).  All
randomness flows from the sweep seed; reports are deterministic.

Observed values per suite: ``chain`` the triple ``[sup, sum, powered sum]``;
``bridge`` ``{"gop": ..., "antigop": ...}``, the two bridge results;
``partition`` the invariant report plus the ``partition`` itself; ``linft``
``{"exact", "brute"}``, the closed form and the oracle's constant (its spike
maximum, since the suite's inputs lie in the spike range);
``equivalence-ratio`` ``{"F", "B", "ratio"}``; ``chain-equivalence`` the
chain report; ``doubling`` both sides of the sum and the sup pair.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Callable

import numpy as np

from . import blocks, bridge, charformulas, hardyops, oracle
from .hardyops import ANTIGOP_SUP, RatioProblem
from .oracle import FAST_CONFIG
from .seqcore import Window, _wire_int

__all__ = ["SweepSpec", "run_verification", "replay_instance", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

ALL_SUITES = (
    "chain",
    "bridge",
    "partition",
    "linft",
    "equivalence-ratio",
    "chain-equivalence",
    "doubling",
)

DEFAULT_REGIMES = ((2.0, 3.0), (3.0, 2.0), (1.0, 1.0), (0.5, 1.0), (1.0, 0.5), (0.5, 0.25))


@dataclass(frozen=True)
class SweepSpec:
    seed: int = 0
    suites: tuple[str, ...] = ALL_SUITES
    regimes: tuple[tuple[float, float], ...] = DEFAULT_REGIMES
    window_sizes: tuple[int, ...] = (3, 5, 8)
    ensemble: int = 40
    weight_exponent: float = 3.0
    out: str | None = None
    replay: tuple[dict, ...] = ()

    def __post_init__(self) -> None:
        if not self.suites:
            raise ValueError("suite list must not be empty")
        for s in self.suites:
            if s not in ALL_SUITES:
                raise ValueError(f"unknown suite {s!r}; known: {ALL_SUITES}")
        if not self.regimes:
            raise ValueError("regime list must not be empty")
        for pq in self.regimes:
            if len(pq) != 2 or not (pq[0] > 0 and pq[1] > 0):
                raise ValueError(f"regimes must be positive (p, q) pairs, got {pq}")
        if self.ensemble < 1:
            raise ValueError("ensemble size must be >= 1")
        if not self.window_sizes or not all(n >= 1 for n in self.window_sizes):
            raise ValueError("window sizes must be a non-empty list of values >= 1")

    @classmethod
    def from_json(cls, obj: dict) -> "SweepSpec":
        if not isinstance(obj, dict):
            raise ValueError("sweep spec must be a JSON object")
        kwargs: dict[str, Any] = {}
        if "seed" in obj:
            kwargs["seed"] = _wire_int(obj["seed"], "seed")
        if "suites" in obj:
            kwargs["suites"] = tuple(obj["suites"])
        if "regimes" in obj:
            kwargs["regimes"] = tuple((float(p), float(q)) for p, q in obj["regimes"])
        if "window_sizes" in obj:
            kwargs["window_sizes"] = tuple(_wire_int(n, "window size") for n in obj["window_sizes"])
        if "ensemble" in obj:
            kwargs["ensemble"] = _wire_int(obj["ensemble"], "ensemble")
        if "weight_exponent" in obj:
            kwargs["weight_exponent"] = float(obj["weight_exponent"])
        if "out" in obj and obj["out"] is not None:
            kwargs["out"] = str(obj["out"])
        if "replay" in obj:
            kwargs["replay"] = tuple(obj["replay"])
        return cls(**kwargs)

    def to_json(self) -> dict:
        obj = {
            "seed": self.seed,
            "suites": list(self.suites),
            "regimes": [list(pq) for pq in self.regimes],
            "window_sizes": list(self.window_sizes),
            "ensemble": self.ensemble,
            "weight_exponent": self.weight_exponent,
            "out": self.out,
        }
        if self.replay:  # omitted when empty, so default reports keep their bytes
            obj["replay"] = list(self.replay)
        return obj


# ---------------------------------------------------------------------------
# Random instance generators (shared with the test suite)
# ---------------------------------------------------------------------------

def rand_window(
    rng: np.random.Generator,
    n: int,
    start: int = 0,
    exponent: float = 3.0,
    zero_prob: float = 0.0,
) -> Window:
    """Log-uniform positive entries ``2**U(-e, e)``, optionally zeroed."""
    vals = 2.0 ** rng.uniform(-exponent, exponent, size=n)
    if zero_prob > 0:
        mask = rng.random(n) < zero_prob
        if mask.all():
            mask[rng.integers(0, n)] = False
        vals = np.where(mask, 0.0, vals)
    return Window(start, vals)


def rand_dyadic_window(
    rng: np.random.Generator, n: int, start: int = 0, allow_zero: bool = False
) -> Window:
    """Random dyadic rationals k / 2**j, exactly representable as floats."""
    num = rng.integers(0 if allow_zero else 1, 17, size=n)
    den = 2.0 ** rng.integers(0, 4, size=n)
    return Window(start, num / den)


def _weight_triple(rng: np.random.Generator, n: int, exponent: float) -> tuple[Window, Window, Window]:
    start = int(rng.integers(-4, 5))
    return (
        rand_window(rng, n, start, exponent),
        rand_window(rng, n, start, exponent),
        rand_window(rng, n, start, exponent),
    )


# ---------------------------------------------------------------------------
# Checks: one per suite, shared by the sweep and by replay
# ---------------------------------------------------------------------------

def _check_chain(a: Window, p: float, n: int) -> tuple[Any, bool]:
    s1, s2, s3 = hardyops.elementary_chain_check(a, p, n)
    return [s1, s2, s3], s1 <= s2 <= s3


def _check_bridge(
    u: Window, v: Window, w: Window, a: Window, q: float
) -> tuple[Any, bool]:
    res = bridge.bridge_check(u, v, w, a, 1.0, q, form="gop")
    anti = bridge.bridge_check(u, v, w, a, 1.0, q, form="antigop")
    ok = res.lhs_equal and res.rhs_equal and res.exact_lhs and res.exact_rhs
    ok = ok and anti.continuous_lhs_pow <= anti.discrete_lhs_pow and anti.rhs_equal
    return {"gop": res.to_json(), "antigop": anti.to_json()}, ok


def _check_partition(w: Window, n0: int) -> tuple[Any, bool]:
    bp = blocks.block_partition(w, n0)
    report = blocks.verify_partition_invariants(w, bp)
    return {**report.to_json(), "partition": bp.to_json()}, report.all_pass


def _check_linft(u: Window, v: Window, p: float) -> tuple[Any, bool]:
    ones = Window(u.start, (1.0,) * len(u))
    prob = RatioProblem(u, v, ones, p, math.inf, ANTIGOP_SUP)
    exact = charformulas.char_linft_exact(u, v, p)
    brute = oracle.brute_force_constant(prob, FAST_CONFIG)
    ok = math.isclose(brute.constant, exact, rel_tol=1e-9, abs_tol=0.0)
    return {"exact": exact, "brute": brute.constant}, ok


def _check_doubling(b: Window, c: Window, alpha: float) -> tuple[Any, bool]:
    out = blocks.doubling_lemma_check(b, c, alpha, b.start, b.last)
    ok = out.lhs_sum <= 2.0 * out.rhs_sum and out.lhs_sup <= 2.0 * out.rhs_sup
    return asdict(out), ok


def _check_equivalence(instances: list[dict]) -> list[tuple[Any, bool]]:
    problems = [
        RatioProblem(
            x["u"], x["v"], x["w"], x["p"], x["q"], hardyops.form_by_name(x["form"])
        )
        for x in instances
    ]
    return [
        (
            {"F": eq.formula, "B": eq.brute, "ratio": eq.ratio},
            eq.sentinel or 0 < eq.ratio < math.inf,
        )
        for eq in oracle.equivalence_ratios(problems, FAST_CONFIG)
    ]


def _check_chain_equivalence(instances: list[dict]) -> list[tuple[Any, bool]]:
    reps = oracle.chain_equivalence_sweeps(
        [(x["u"], x["v"], x["w"], x["p"], x["q"], x["family"]) for x in instances],
        FAST_CONFIG,
    )
    return [
        (rep.to_json(), not rep.violations and (rep.sentinel or rep.ratio31 < math.inf))
        for rep in reps
    ]


def _each(check: Callable[..., tuple[Any, bool]]) -> Callable[[list[dict]], list]:
    """The list form of a check that takes one instance's inputs."""
    return lambda instances: [check(**inputs) for inputs in instances]


#: Each suite's check: a list of instances (dicts of inputs) in, one
#: ``(observed, passed)`` per instance out.
_CHECKS: dict[str, Callable[[list[dict]], list[tuple[Any, bool]]]] = {
    "chain": _each(_check_chain),
    "bridge": _each(_check_bridge),
    "partition": _each(_check_partition),
    "linft": _each(_check_linft),
    "equivalence-ratio": _check_equivalence,
    "chain-equivalence": _check_chain_equivalence,
    "doubling": _each(_check_doubling),
}

#: The input fields of each suite's instances.
_FIELDS: dict[str, tuple[str, ...]] = {
    "chain": ("a", "p", "n"),
    "bridge": ("u", "v", "w", "a", "q"),
    "partition": ("w", "n0"),
    "linft": ("u", "v", "p"),
    "equivalence-ratio": ("u", "v", "w", "p", "q", "form"),
    "chain-equivalence": ("u", "v", "w", "p", "q", "family"),
    "doubling": ("b", "c", "alpha"),
}

#: How replay decodes each recorded input field.
_DECODE: dict[str, Callable[[Any], Any]] = {
    **dict.fromkeys("abcuvw", Window.from_json),
    "p": float,
    "q": float,
    "alpha": float,
    "n": lambda x: _wire_int(x, "n"),
    "n0": lambda x: _wire_int(x, "n0"),
    "form": str,
    "family": str,
}


def _check(failures: list, suite: str, instances: list[dict]) -> list:
    """Run the suite's check on every instance; record each failure, in
    instance order, as a replayable entry; return the observed values."""
    outcomes = _CHECKS[suite](instances)
    for inputs, (observed, passed) in zip(instances, outcomes):
        if not passed:
            encoded = {
                k: x.to_json() if isinstance(x, Window) else x for k, x in inputs.items()
            }
            failures.append({"suite": suite, **encoded, "observed": observed})
    return [observed for observed, _ in outcomes]


def replay_instance(entry: dict) -> dict:
    """Re-run one recorded failure through its suite's check, as a list of one."""
    suite = entry.get("suite")
    if suite not in _CHECKS:
        raise ValueError(f"cannot replay suite {suite!r}")
    inputs = {k: _DECODE[k](entry[k]) for k in _FIELDS[suite]}
    [(observed, passed)] = _CHECKS[suite]([inputs])
    return {"suite": suite, "observed": observed, "passed": passed}


# ---------------------------------------------------------------------------
# Suites.  equivalence-ratio checks one (p, q, form) cell per call: problems
# of different cells never share a stack, and holding the whole ensemble with
# its results at once costs memory for nothing.
# ---------------------------------------------------------------------------

def _suite_chain(spec: SweepSpec, rng: np.random.Generator) -> dict:
    failures: list = []
    probes = max(spec.ensemble * 25, 100)
    for _ in range(probes):
        n_len = int(rng.choice(spec.window_sizes))
        a = rand_window(rng, n_len, int(rng.integers(-4, 5)), spec.weight_exponent, 0.2)
        p = float(rng.uniform(0.05, 1.0)) if rng.random() < 0.8 else 1.0
        n = int(rng.integers(a.start, a.stop))
        _check(failures, "chain", [{"a": a, "p": p, "n": n}])
    return {"passed": not failures, "probes": probes, "failures": failures}


def _suite_bridge(spec: SweepSpec, rng: np.random.Generator) -> dict:
    failures: list = []
    for _ in range(spec.ensemble):
        n_len = int(min(max(spec.window_sizes), 12))
        n_len = int(rng.integers(1, n_len + 1))
        start = int(rng.integers(-4, 5))
        u = rand_dyadic_window(rng, n_len, start)
        v = rand_dyadic_window(rng, n_len, start)
        w = rand_dyadic_window(rng, n_len, start)
        a = rand_dyadic_window(rng, n_len, start, allow_zero=True)
        q = float(rng.integers(1, 4))
        _check(failures, "bridge", [{"u": u, "v": v, "w": w, "a": a, "q": q}])
    return {"passed": not failures, "checks": spec.ensemble, "failures": failures}


def _suite_partition(spec: SweepSpec, rng: np.random.Generator) -> dict:
    failures: list = []
    for _ in range(spec.ensemble):
        n_len = int(rng.choice(spec.window_sizes))
        w = rand_window(rng, n_len, int(rng.integers(-4, 5)), spec.weight_exponent, 0.25)
        n0 = int(rng.integers(w.start, w.stop))
        _check(failures, "partition", [{"w": w, "n0": n0}])
    return {"passed": not failures, "checks": spec.ensemble, "failures": failures}


def _suite_linft(spec: SweepSpec, rng: np.random.Generator) -> dict:
    failures: list = []
    for _ in range(spec.ensemble):
        n_len = int(rng.choice(spec.window_sizes))
        start = int(rng.integers(-4, 5))
        u = rand_window(rng, n_len, start, spec.weight_exponent)
        v = rand_window(rng, n_len, start, spec.weight_exponent)
        p = float(rng.choice([0.25, 0.5, 1.0]))
        _check(failures, "linft", [{"u": u, "v": v, "p": p}])
    return {"passed": not failures, "checks": spec.ensemble, "failures": failures}


def _suite_equivalence(spec: SweepSpec, rng: np.random.Generator) -> dict:
    failures: list = []
    stats: dict[str, dict] = {}
    for p, q in spec.regimes:
        for form in ("gop", "antigop"):
            cell = []
            for _ in range(spec.ensemble):
                n_len = int(rng.choice([n for n in spec.window_sizes if n <= 8] or [5]))
                u, v, w = _weight_triple(rng, n_len, spec.weight_exponent)
                cell.append({"u": u, "v": v, "w": w, "p": p, "q": q, "form": form})
            observed = _check(failures, "equivalence-ratio", cell)
            arr = np.asarray([obs["ratio"] for obs in observed])
            stats[f"{form}:p={p},q={q}"] = {
                "min": float(arr.min()),
                "median": float(np.median(arr)),
                "max": float(arr.max()),
            }
    return {"passed": not failures, "ratio_stats": stats, "failures": failures}


def _suite_chain_equivalence(spec: SweepSpec, rng: np.random.Generator) -> dict:
    failures: list = []
    regimes = [(p, q) for p, q in spec.regimes if p <= 1] or [(1.0, 1.0)]
    instances = []
    for p, q in regimes:
        for family in ("antigop", "gop", "simple"):
            for _ in range(max(spec.ensemble // 4, 1)):
                n_len = int(rng.choice([n for n in spec.window_sizes if n <= 8] or [5]))
                u, v, w = _weight_triple(rng, n_len, spec.weight_exponent)
                instances.append(
                    {"u": u, "v": v, "w": w, "p": p, "q": q, "family": family}
                )
    ratios = [obs["ratio_A3_A1"] for obs in _check(failures, "chain-equivalence", instances)]
    return {
        "passed": not failures,
        "max_ratio_A3_A1": float(max(ratios)) if ratios else None,
        "failures": failures,
    }


def _suite_doubling(spec: SweepSpec, rng: np.random.Generator) -> dict:
    failures: list = []
    probes = max(spec.ensemble * 10, 50)
    for _ in range(probes):
        n_len = int(rng.integers(3, 10))
        factors = rng.uniform(2.0, 4.0, size=n_len - 1)
        b = Window(0, np.concatenate([[rng.uniform(0.5, 2.0)], factors]).cumprod())
        c = rand_window(rng, n_len, 0, spec.weight_exponent, 0.3)
        alpha = float(rng.choice([0.25, 0.5, 1.0]))
        _check(failures, "doubling", [{"b": b, "c": c, "alpha": alpha}])
    return {"passed": not failures, "probes": probes, "failures": failures}


_SUITE_RUNNERS: dict[str, Callable[[SweepSpec, np.random.Generator], dict]] = {
    "chain": _suite_chain,
    "bridge": _suite_bridge,
    "partition": _suite_partition,
    "linft": _suite_linft,
    "equivalence-ratio": _suite_equivalence,
    "chain-equivalence": _suite_chain_equivalence,
    "doubling": _suite_doubling,
}


def run_verification(spec: SweepSpec) -> dict:
    """Run the selected suites; returns the full report as a JSON-able dict."""
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "spec": spec.to_json(),
        "suites": {},
    }
    for name in spec.suites:
        rng = np.random.default_rng((spec.seed, ALL_SUITES.index(name)))
        report["suites"][name] = _SUITE_RUNNERS[name](spec, rng)
    if spec.replay:
        report["replay"] = [replay_instance(entry) for entry in spec.replay]
    report["passed"] = all(s["passed"] for s in report["suites"].values()) and all(
        r["passed"] for r in report.get("replay", [])
    )
    return report
