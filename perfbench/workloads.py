"""The benchmark's four workloads: seeded inputs, one timed call per instance,
and the checks that decide whether each output is right.

Inputs come from ``numpy.random.default_rng((seed, cycle, ...))``; the
library sees only the windows and problems built here, through its public
API.  A *cycle* is one pass over a workload's instance list, and a cycle
position always makes the same kind of call on the same size, so that every
run holds the same mix and each position's median is over like calls.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

import hardyseq as hs

# (p, q) per regime, taken from the acceptance tests' representative pairs.
REGIMES = {"I": (2.0, 3.0), "II": (3.0, 2.0), "III": (0.5, 1.0), "IV": (1.0, 0.5)}
# char_antigop variants that obey the scaling laws in each regime (the
# printed II/IV readings are not homogeneous, so they are not probed).
HOMOGENEOUS = {("printed", "I"), ("printed", "III")} | {("flipped", r) for r in REGIMES}
# Criterion 9's relative tolerance for the scaling laws.
SCALING_RTOL = 1e-10
# log of the float range used for the wide-weight reference (|ln C| < 700).
LOG_RANGE = 700.0


@dataclass
class Instance:
    """One timed call: ``kind`` selects the call, ``n`` is the window size.

    ``weight`` is the number of checks the instance counts for (a
    verification suite counts each of its checks).
    """

    kind: str
    n: int
    args: tuple
    tag: str = ""
    weight: int = 1


@dataclass
class Outcome:
    """Checks over a run: failed weight, messages and known-defect counts.

    An execution counts as failed once however many of its checks fail;
    ``key`` tells executions apart (by default, the instance).
    """

    failures: dict[Any, int] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)
    notes: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, inst: Instance, why: str, weight: int | None = None, key: Any = None) -> None:
        k = id(inst) if key is None else key
        self.failures[k] = max(self.failures.get(k, 0), inst.weight if weight is None else weight)
        if len(self.messages) < 20:
            self.messages.append(f"{inst.kind}[{inst.tag}] n={inst.n}: {why}")

    def note(self, key: str, amount: float = 1) -> None:
        self.notes[key] = self.notes.get(key, 0) + amount


def rel_close(a: float, b: float, rtol: float) -> bool:
    """Relative closeness on [0, inf]; equal infinities and zeros match."""
    if math.isnan(a) or math.isnan(b):
        return False
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _window(rng: np.random.Generator, n: int, start: int, zero_prob: float = 0.0, scale_exp: int = 0) -> hs.Window:
    """Entries ``2**U(-3, 3) * 2**scale_exp``, some zeroed (never all)."""
    vals = 2.0 ** rng.uniform(-3.0, 3.0, size=n)
    if zero_prob:
        mask = rng.random(n) < zero_prob
        mask[int(rng.integers(0, n))] = False
        vals[mask] = 0.0
    return hs.Window(start, tuple(np.ldexp(vals, scale_exp).tolist()))


def _dyadic(rng: np.random.Generator, n: int, start: int, allow_zero: bool = False) -> hs.Window:
    num = rng.integers(0 if allow_zero else 1, 17, size=n)
    den = 2.0 ** rng.integers(0, 4, size=n)
    return hs.Window(start, tuple((num / den).tolist()))


def _to_jsonable(out: Any) -> Any:
    if hasattr(out, "to_json"):
        return out.to_json()
    if isinstance(out, tuple):
        return [_to_jsonable(x) for x in out]
    return out


class Workload:
    name = ""
    #: cycles with distinct inputs built for a measured run
    cycles = 1

    def build(self, seed: int, cycle: int) -> list[Instance]:
        raise NotImplementedError

    def call(self, inst: Instance) -> Any:
        raise NotImplementedError

    def check(self, inst: Instance, out: Any, res: Outcome) -> None:
        raise NotImplementedError

    def summary(self, out: Any) -> str:
        """Canonical text of an output, for the digest and repeat checks."""
        return json.dumps(_to_jsonable(out), sort_keys=True)


# ---------------------------------------------------------------------------
# verify-default
# ---------------------------------------------------------------------------

def suite_checks(spec: hs.SweepSpec, suite: str) -> int:
    """Number of checks the suite runs under ``spec``.

    Mirrors the loop bounds of each suite; :func:`reported_checks` reads the
    count back from the report wherever the report holds one.
    """
    e = spec.ensemble
    low_p = [pq for pq in spec.regimes if pq[0] <= 1] or [(1.0, 1.0)]
    return {
        "chain": max(e * 25, 100),
        "bridge": e,
        "partition": e,
        "linft": e,
        "equivalence-ratio": len(spec.regimes) * 2 * e,
        "chain-equivalence": len(low_p) * 3 * max(e // 4, 1),
        "doubling": max(e * 10, 50),
    }[suite]


def reported_checks(spec: hs.SweepSpec, report: dict) -> int | None:
    """The check count a suite report shows, or None where it shows none.

    Most suites report ``probes`` or ``checks``.  equivalence-ratio reports
    one ``ratio_stats`` entry per (regime, form), each over ``ensemble``
    checks.  chain-equivalence reports no count at all, so its count cannot
    be checked.
    """
    if "probes" in report or "checks" in report:
        return report.get("probes", report.get("checks"))
    if "ratio_stats" in report:
        return len(report["ratio_stats"]) * spec.ensemble
    return None


def sweep_seed(seed: int, cycle: int) -> int:
    """The sweep seed of a cycle: cycle 0 runs ``seed`` itself."""
    return seed if cycle == 0 else int(np.random.SeedSequence((seed, cycle)).generate_state(1)[0])


class VerifyDefault(Workload):
    """``run_verification`` with the default spec, one call per suite.

    Each cycle is the sweep of another seed, so that a run's per-suite
    medians average over several sweeps' inputs, not one.
    """

    name = "verify-default"
    cycles = 6

    def build(self, seed: int, cycle: int) -> list[Instance]:
        out = []
        for suite in hs.SweepSpec().suites:
            spec = hs.SweepSpec(seed=sweep_seed(seed, cycle), suites=(suite,))
            out.append(Instance("suite", 0, (spec,), suite, suite_checks(spec, suite)))
        return out

    def call(self, inst: Instance) -> Any:
        return hs.run_verification(inst.args[0])

    def check(self, inst: Instance, out: Any, res: Outcome) -> None:
        report = out["suites"][inst.tag]
        counted = reported_checks(inst.args[0], report)
        if counted is not None and counted != inst.weight:
            res.fail(inst, f"suite counted {counted} checks, expected {inst.weight}")
        elif not (out["passed"] and report["passed"]):
            res.fail(inst, "suite did not pass", max(1, len(report["failures"])))


# ---------------------------------------------------------------------------
# oracle-wide
# ---------------------------------------------------------------------------

ORACLE_SIZES = (16, 24, 32, 48, 64)
# Between FAST_CONFIG (2 restarts, 40 iterations) and the default (32, 500).
ORACLE_CONFIG = hs.OracleConfig(restarts=4, iterations=80, dirichlet_per_restart=8)
# (tag, form, p, q); p = None draws p from {0.25, 0.5, 1} with w = 1.
ORACLE_COMBOS = [(f"{name}-{r}", form, *REGIMES[r]) for name, form in (("gop", hs.GOP), ("antigop", hs.ANTIGOP)) for r in REGIMES] + [
    ("antigop-sup-qinf", hs.ANTIGOP_SUP, None, math.inf),
    ("antigop-psum-III", hs.antigop_psum(0.5), 0.5, 2.0),
]
# Criterion 2's tolerance for the brute force against the exact q = inf formula.
LINFT_RTOL = 1e-6
# Re-evaluation of the argmax and the best single spike (observed <= 8.1e-16).
ORACLE_RTOL = 1e-12


class OracleWide(Workload):
    """``brute_force_constant`` on windows of 16 to 64 entries."""

    name = "oracle-wide"
    cycles = 12

    def build(self, seed: int, cycle: int) -> list[Instance]:
        out = []
        for n in ORACLE_SIZES:
            for ci, (tag, form, p, q) in enumerate(ORACLE_COMBOS):
                rng = np.random.default_rng((seed, cycle, n, ci))
                start = int(rng.integers(-4, 5))
                u, v = _window(rng, n, start), _window(rng, n, start)
                if p is None:
                    p = float(rng.choice([0.25, 0.5, 1.0]))
                    w = hs.Window(start, (1.0,) * n)
                else:
                    w = _window(rng, n, start)
                out.append(Instance("oracle", n, (hs.RatioProblem(u, v, w, p, q, form),), tag))
        return out

    def call(self, inst: Instance) -> Any:
        return hs.brute_force_constant(inst.args[0], ORACLE_CONFIG)

    def check(self, inst: Instance, out: Any, res: Outcome) -> None:
        prob = inst.args[0]
        c = out.constant
        if not (0 < c < math.inf):
            res.fail(inst, f"constant {c} not positive and finite")
            return
        again = hs.ratio(prob, out.argmax)
        if not rel_close(again, c, ORACLE_RTOL):
            res.fail(inst, f"ratio at argmax {again!r} != constant {c!r}")
        if prob.form in (hs.GOP, hs.ANTIGOP) and prob.p <= 1.0 <= prob.q:
            spike = max(
                hs.ratio(prob, hs.Window(prob.u.start, tuple(float(i == k) for i in range(inst.n))))
                for k in range(inst.n)
            )
            if not rel_close(c, spike, ORACLE_RTOL):
                res.fail(inst, f"constant {c!r} != best spike {spike!r}")
        if math.isinf(prob.q):
            exact = hs.char_linft_exact(prob.u, prob.v, prob.p)
            if not abs(c - exact) <= LINFT_RTOL * exact:
                res.fail(inst, f"constant {c!r} vs exact q=inf value {exact!r}")
        res.note("oracle.log_constant", math.log(c))
        res.note("oracle.instances")


# ---------------------------------------------------------------------------
# closed-form-large
# ---------------------------------------------------------------------------

LARGE_SIZES = (1000, 2000, 4000, 8000)
ITER_FORMS = (hs.GOP, hs.ANTIGOP, hs.GOP_SUP, hs.ANTIGOP_SUP)
ENVELOPES = tuple(hs.EnvelopeKind)
# Wide-range weights: each window is scaled by 2**k, k uniform in this range.
WIDE_EXP = 300


def _char(kind: str, u, v, w, p, q, variant: str):
    if kind == "char_gop":
        return hs.char_gop(u, v, w, p, q)
    return hs.char_antigop(u, v, w, p, q, variant)


def _iterated_reference(u: np.ndarray, a: np.ndarray, form: hs.OperatorForm) -> np.ndarray:
    right = form.inner_dir == "right"
    x = a[::-1] if right else a
    inner = np.cumsum(x) if form.inner_kind == "sum" else np.maximum.accumulate(x)
    prod = u * (inner[::-1] if right else inner)
    if form.outer == "tail":
        return np.maximum.accumulate(prod[::-1])[::-1]
    return np.maximum.accumulate(prod)


def _envelope_reference(x: np.ndarray, kind: hs.EnvelopeKind) -> np.ndarray:
    acc = np.maximum if kind.bound == "upper" else np.minimum
    from_left = (kind.direction == "increasing") == (kind.bound == "upper")
    return acc.accumulate(x) if from_left else acc.accumulate(x[::-1])[::-1]


class ClosedFormLarge(Workload):
    """Closed forms, partitions and single evaluations at N = 10^3 .. 8*10^3."""

    name = "closed-form-large"
    cycles = 4

    def build(self, seed: int, cycle: int) -> list[Instance]:
        out = []
        for n in LARGE_SIZES:
            rng = np.random.default_rng((seed, cycle, n))
            start = int(rng.integers(-4, 5))
            u = _window(rng, n, start, 0.1)
            v = _window(rng, n, start)
            w = _window(rng, n, start, 0.1)
            a = _window(rng, n, start, 0.1)
            t = float(2.0 ** rng.uniform(-4.0, 4.0))
            for r, (p, q) in REGIMES.items():
                out.append(Instance("char_gop", n, (u, v, w, p, q, "printed", t), f"{r}"))
                for variant in ("printed", "flipped"):
                    out.append(Instance("char_antigop", n, (u, v, w, p, q, variant, t), f"{r}-{variant}"))
            # From the midpoint: still O(N^2) today, at half the cost of n0 = start.
            out.append(Instance("partition", n, (w, w.start + n // 2)))
            # Every kind and form at every size: a cycle position always
            # times the same call, so its median is over like samples.
            for kind in ENVELOPES:
                out.append(Instance("envelope", n, (u, kind), kind.name))
            for form in ITER_FORMS:
                out.append(Instance("ratio", n, (u, v, w, 2.0, 3.0, form, a, t), form.name))
                out.append(Instance("apply_iterated", n, (u, a, form), form.name))
            # The same shapes with each weight scaled by 2**k, |k| <= 300.
            ku, kv, kw = (int(k) for k in rng.integers(-WIDE_EXP, WIDE_EXP + 1, size=3))
            wu = _window(rng, n, start, 0.1, ku)
            wv = _window(rng, n, start, 0.0, kv)
            ww = _window(rng, n, start, 0.1, kw)
            for r, (p, q) in REGIMES.items():
                out.append(Instance("char_gop", n, (wu, wv, ww, p, q, "printed"), f"{r}-wide"))
                out.append(Instance("char_antigop", n, (wu, wv, ww, p, q, "flipped"), f"{r}-flipped-wide"))
        return out

    def call(self, inst: Instance) -> Any:
        k, args = inst.kind, inst.args
        if k in ("char_gop", "char_antigop"):
            return _char(k, *args[:6])
        if k == "partition":
            bp = hs.block_partition(*args)
            return bp, hs.verify_partition_invariants(args[0], bp)
        if k == "envelope":
            return hs.envelope(*args)
        if k == "ratio":
            u, v, w, p, q, form, a, _ = args
            return hs.ratio(hs.RatioProblem(u, v, w, p, q, form), a)
        return hs.apply_iterated(*args)

    def check(self, inst: Instance, out: Any, res: Outcome) -> None:
        k, args = inst.kind, inst.args
        if k in ("char_gop", "char_antigop"):
            self._check_char(inst, out.value, res)
        elif k == "partition":
            if not out[1].all_pass:
                res.fail(inst, f"partition invariants failed: {out[1].failures[:3]}")
        elif k == "envelope":
            ref = _envelope_reference(args[0].as_array(), args[1])
            if not np.array_equal(out.as_array(), ref):
                res.fail(inst, "envelope differs from the scan reference")
        elif k == "ratio":
            u, v, w, p, q, form, a, t = args
            if not out >= 0:
                res.fail(inst, f"ratio {out!r} not in [0, inf]")
            elif inst.n == LARGE_SIZES[0]:
                scaled = hs.ratio(hs.RatioProblem(u, v, w, p, q, form), a.scaled(t))
                if not rel_close(scaled, out, SCALING_RTOL):
                    res.fail(inst, f"ratio not scale invariant: {out!r} vs {scaled!r}")
        else:
            ref = _iterated_reference(args[0].as_array(), args[1].as_array(), args[2])
            got = out.as_array()
            if not np.allclose(got, ref, rtol=1e-12, atol=0.0):
                res.fail(inst, "iterated entries differ from the scan reference")

    def _check_char(self, inst: Instance, value: float, res: Outcome) -> None:
        u, v, w, p, q, variant = inst.args[:6]
        regime = inst.tag.split("-")[0]
        if math.isnan(value) or value < 0:
            res.fail(inst, f"value {value!r} not in [0, inf]")
            return
        homogeneous = inst.kind == "char_gop" or (variant, regime) in HOMOGENEOUS
        if inst.tag.endswith("-wide"):
            self._check_wide(inst, value, res)
        elif homogeneous and inst.n == LARGE_SIZES[0]:
            t = inst.args[6]
            laws = (
                ((u.scaled(t), v, w), t),
                ((u, v.scaled(t), w), t ** (-1.0 / p)),
                ((u, v, w.scaled(t)), t ** (1.0 / q)),
            )
            for (uu, vv, ww), factor in laws:
                got = _char(inst.kind, uu, vv, ww, p, q, variant).value
                if not rel_close(got, factor * value, SCALING_RTOL):
                    res.fail(inst, f"scaling law broken: {got!r} vs {factor * value!r}")
                    return

    def _check_wide(self, inst: Instance, value: float, res: Outcome) -> None:
        """Compare against the scaling law applied to max-normalised weights.

        A disagreement is a known defect of full-range arithmetic; it is
        counted, not filtered, and kept apart from the failures.
        """
        u, v, w, p, q, variant = inst.args[:6]
        mu, mv, mw = (max(x.values) for x in (u, v, w))
        base = _char(inst.kind, u.scaled(1.0 / mu), v.scaled(1.0 / mv), w.scaled(1.0 / mw), p, q, variant).value
        if not 0 < base < math.inf:
            return
        log_ref = math.log(base) + math.log(mu) - math.log(mv) / p + math.log(mw) / q
        if abs(log_ref) >= LOG_RANGE:
            return
        res.note("charformulas.wide_range_in_range")
        if not (0 < value < math.inf and abs(math.log(value) - log_ref) <= SCALING_RTOL):
            res.note("charformulas.wide_range_wrong")


# ---------------------------------------------------------------------------
# bridge-exact
# ---------------------------------------------------------------------------

BRIDGE_SIZES = (12, 24, 48, 96)
BRIDGE_Q = (1, 2, 3)


class BridgeExact(Workload):
    """``bridge_check`` in rational arithmetic on dyadic step data."""

    name = "bridge-exact"
    cycles = 14

    def build(self, seed: int, cycle: int) -> list[Instance]:
        out = []
        for n in BRIDGE_SIZES:
            for q in BRIDGE_Q:
                rng = np.random.default_rng((seed, cycle, n, q))
                start = int(rng.integers(-4, 5))
                u, v, w = (_dyadic(rng, n, start) for _ in range(3))
                a = _dyadic(rng, n, start, allow_zero=True)
                for form in ("gop", "antigop"):
                    out.append(Instance("bridge", n, (u, v, w, a, 1.0, float(q), form), f"{form}-q{q}"))
        return out

    def call(self, inst: Instance) -> Any:
        *args, form = inst.args
        return hs.bridge_check(*args, form=form)

    def check(self, inst: Instance, out: Any, res: Outcome) -> None:
        if not (out.exact_lhs and out.exact_rhs and out.rhs_equal):
            res.fail(inst, "right sides differ or arithmetic was not exact")
        elif out.form == "gop" and not out.lhs_equal:
            res.fail(inst, "gop discrete and continuous left sides differ")
        elif out.form == "antigop" and not out.continuous_lhs_pow <= out.discrete_lhs_pow:
            res.fail(inst, "antigop continuous left side exceeds the discrete one")

    def summary(self, out: Any) -> str:
        exact = [str(getattr(out, f)) for f in ("discrete_lhs_pow", "continuous_lhs_pow", "discrete_rhs_pow")]
        return json.dumps([out.to_json(), exact], sort_keys=True)


WORKLOADS: dict[str, Workload] = {
    wl.name: wl for wl in (VerifyDefault(), OracleWide(), ClosedFormLarge(), BridgeExact())
}
