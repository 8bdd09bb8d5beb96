"""One benchmark process: set up a workload, then measure or trace it.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` set to the
checkout's ``src`` and every BLAS pinned to one thread.  ``--t0`` is the
``time.monotonic()`` reading taken just before the process was started, so
``ready_s`` covers interpreter start, ``import hardyseq``, building the
inputs and one warm-up instance.  In ``setup`` mode the worker stops there.
Its last stdout line is one JSON object with the raw figures, which
``run.py`` turns into metrics.

    python3 perfbench/worker.py --workload oracle-wide --seed 1 --mode measure --seconds 20 --t0 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
from time import monotonic, perf_counter
from typing import Any

import hardyseq as hs
import numpy as np

import spans
import speed
import workloads
from workloads import Instance, Outcome, Workload

SUITES = hs.SweepSpec().suites
REGIMES = tuple(workloads.REGIMES)
# Every run holds at least this many timed instances (weights counted), so
# that at least ten lie beyond p90.
MIN_INSTANCES = 100


def _size(*args, **kwargs) -> int:
    return len(args[0])


def _problem_size(*args, **kwargs) -> int:
    return args[0].size


def _count_evals(tracer: spans.Tracer, args: tuple, result: Any) -> None:
    tracer.count("oracle.evaluations", result.evaluations)
    tracer.count("oracle.entry_evaluations", result.evaluations * len(result.argmax))


def _regime(result: Any) -> str:
    return result.regime.case_id.value


TARGETS = [
    spans.Target("seqcore.Window", "hardyseq.seqcore:Window", "__init__"),
    spans.Target("seqcore.as_array", "hardyseq.seqcore:Window", "as_array"),
    spans.Target("envelopes.envelope", "hardyseq.envelopes", "envelope", _size),
    spans.Target("hardyops.RatioProblem", "hardyseq.hardyops:RatioProblem", "__init__"),
    spans.Target("hardyops.ratio", "hardyseq.hardyops", "ratio", lambda *a, **k: len(a[1])),
    spans.Target("hardyops.apply_iterated", "hardyseq.hardyops", "apply_iterated", _size),
    spans.Target("charformulas.char_gop", "hardyseq.charformulas", "char_gop", _size, _regime),
    spans.Target("charformulas.char_antigop", "hardyseq.charformulas", "char_antigop", _size, _regime),
    spans.Target("charformulas.char_linft_exact", "hardyseq.charformulas", "char_linft_exact", _size),
    spans.Target("blocks.block_partition", "hardyseq.blocks", "block_partition", _size),
    spans.Target("blocks.verify_partition_invariants", "hardyseq.blocks", "verify_partition_invariants", _size),
    spans.Target("bridge.bridge_check", "hardyseq.bridge", "bridge_check", _size),
    spans.Target("bridge.sup_weighted_tail", "hardyseq.bridge", "sup_weighted_tail", lambda *a, **k: len(a[0].values)),
    spans.Target("oracle.brute_force_constant", "hardyseq.oracle", "brute_force_constant", _problem_size, None, _count_evals),
    spans.Target("oracle.spike_oracle", "hardyseq.oracle", "spike_oracle", _problem_size, None, _count_evals),
    spans.Target("oracle.equivalence_ratio", "hardyseq.oracle", "equivalence_ratio", _problem_size),
    spans.Target("oracle.chain_equivalence_sweep", "hardyseq.oracle", "chain_equivalence_sweep", _size),
    spans.Target("verification.run_verification", "hardyseq.verification", "run_verification"),
]


Call = tuple[Any, float, float, "str | None"]


def _timed(wl: Workload, inst: Instance) -> Call:
    """The output, start and end of one call, and the error it raised."""
    t0 = perf_counter()
    try:
        out = wl.call(inst)
        err = None
    except Exception as exc:  # a failing instance is counted, not fatal
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, t0, perf_counter(), err


def _run_cycle(
    wl: Workload,
    cycle: list[Instance],
    tracer: spans.Tracer | None = None,
    meter: speed.Meter | None = None,
    until: float | None = None,
) -> list[Call]:
    """Call each instance in turn; start none once ``until`` has passed."""
    results = []
    for inst in cycle:
        if until is not None and perf_counter() >= until:
            break
        if meter is not None:
            meter.tick()
        if tracer is None:
            results.append(_timed(wl, inst))
            continue
        name = f"verification.{inst.tag}" if inst.kind == "suite" else f"instance.{inst.kind}"
        with tracer.span(name, inst.n):
            results.append(_timed(wl, inst))
    return results


class Checker:
    """Checks each distinct output once and compares repeats with it."""

    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        self.res = Outcome()
        self.attempted = 0
        self.first: dict[tuple[int, int], tuple[Instance, Any, str | None]] = {}
        self.summaries: dict[tuple[int, int], str] = {}

    def add(self, run: int, key: int, cycle: list[Instance], results: list) -> None:
        """Record pass number ``run`` over the cycle with inputs ``key``."""
        for i, (inst, (out, _, _, err)) in enumerate(zip(cycle, results)):
            self.attempted += inst.weight
            if (key, i) not in self.first:
                self.first[(key, i)] = (inst, out, err)
            elif err is None and self.first[(key, i)][2] is None:
                # Same inputs again: the output must repeat bit for bit.
                if self.wl.summary(out) != self._summary(key, i):
                    self.res.fail(inst, "output differs on identical inputs", key=(run, i))
            if err is not None:
                self.res.fail(inst, err, key=(run, i))

    def _summary(self, key: int, i: int) -> str:
        if (key, i) not in self.summaries:
            self.summaries[(key, i)] = self.wl.summary(self.first[(key, i)][1])
        return self.summaries[(key, i)]

    def finish(self) -> tuple[Outcome, str]:
        """Run the checks; return the outcome and the digest of cycle 0."""
        h = hashlib.sha256()
        for (key, i), (inst, out, err) in sorted(self.first.items(), key=lambda kv: kv[0]):
            if err is not None:
                continue
            try:
                self.wl.check(inst, out, self.res)
            except Exception as exc:  # a check that raises counts as failed
                self.res.fail(inst, f"check raised {type(exc).__name__}: {exc}")
            if key == 0:
                h.update(self._summary(key, i).encode())
                h.update(b"\n")
        return self.res, h.hexdigest()


def timing_figures(medians: list[float], per_cycle: int) -> dict[str, float]:
    """Throughput and latency percentiles from each cycle position's median.

    The throughput is one cycle's instances (checks, for a suite) over the
    sum of the medians.  Each position weighs once in the percentiles, so
    that the rank of p50 and p90 does not move with where the last, partial
    cycle stopped: neighbouring positions can differ tenfold in time.  On
    verify-default a position is one suite call: spreading a suite's time
    over its checks would put p50 between the chain and doubling suites,
    whose per-check costs are nearly equal, and make it jump between them.
    """
    return {
        "instances_per_s": per_cycle / sum(medians),
        "instance_ms_p50": 1e3 * spans.percentile(medians, 50),
        "instance_ms_p90": 1e3 * spans.percentile(medians, 90),
    }


def measure(wl: Workload, cycles: list[list[Instance]], seconds: float) -> dict:
    """Run cycles for ``seconds``, and on until ``MIN_INSTANCES`` were timed.

    The first cycle runs whole; a later one stops where the time runs out.

    The machine's speed drifts by tens of percent over seconds, so each call
    is scaled to the reference speed measured around it (``speed.py``), and
    each cycle position is timed by its median over the run's cycles.  The
    unscaled figures are kept under ``raw``.
    """
    checker = Checker(wl)
    meter = speed.Meter()
    meter.sample(speed.MIN_SAMPLES)
    calls: list[list[tuple[float, float]]] = [[] for _ in cycles[0]]
    per_cycle = sum(inst.weight for inst in cycles[0])
    k = timed = 0
    t_end = perf_counter() + seconds
    while True:
        cycle = cycles[k % len(cycles)]
        until = t_end if k and timed >= MIN_INSTANCES else None
        results = _run_cycle(wl, cycle, meter=meter, until=until)
        for i, (_, t0, t1, _) in enumerate(results):
            calls[i].append((t0, t1))
        checker.add(k, k % len(cycles), cycle, results)
        timed += sum(inst.weight for inst in cycle[: len(results)])
        if k == 0:
            # The first cycle makes every call once.  Later ones repeat them,
            # and the outputs held for the checks grow with how many ran.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        k += 1
        if perf_counter() >= t_end and timed >= MIN_INSTANCES:
            break
    meter.sample(speed.MIN_SAMPLES)
    res, digest = checker.finish()
    scaled = [spans.median([(t1 - t0) * meter.factor(t0, t1) for t0, t1 in c]) for c in calls]
    raw = [spans.median([t1 - t0 for t0, t1 in c]) for c in calls]
    return {
        "cycles": k,
        "instances": timed,
        "latency_samples": sum(len(c) for c in calls),
        **timing_figures(scaled, per_cycle),
        "peak_rss_mb": peak_rss_mb,
        "raw": timing_figures(raw, per_cycle),
        "reference_ms": 1e3 * spans.median(list(meter.costs)),
        **_outcome(checker, res, digest),
    }


def trace(wl: Workload, cycle: list[Instance], seconds: float) -> dict:
    """Alternate untraced and traced passes over one cycle; per-pass figures.

    Layer times are wall times; the overhead compares pass times scaled to
    the reference speed, as ``measure`` does.
    """
    checker = Checker(wl)
    tracer = spans.Tracer()
    meter = speed.Meter()
    meter.sample(speed.MIN_SAMPLES)
    plain: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    t_start = perf_counter()
    while not plain or perf_counter() - t_start < seconds:
        t0 = perf_counter()
        results = _run_cycle(wl, cycle, meter=meter)
        plain.append((t0, perf_counter()))
        checker.add(2 * len(plain), 0, cycle, results)
        with spans.traced(tracer, TARGETS):
            t0 = perf_counter()
            results = _run_cycle(wl, cycle, tracer, meter)
            traced.append((t0, perf_counter()))
        checker.add(2 * len(traced) + 1, 0, cycle, results)
    meter.sample(speed.MIN_SAMPLES)
    res, digest = checker.finish()

    def pass_s(passes: list[tuple[float, float]]) -> float:
        return spans.median([(t1 - t0) * meter.factor(t0, t1) for t0, t1 in passes])

    metrics = layer_metrics(tracer, len(traced))
    metrics["trace.overhead_frac"] = pass_s(traced) / pass_s(plain) - 1.0
    metrics.update(check_metrics(res))
    return {"passes": len(traced), "metrics": metrics, **_outcome(checker, res, digest)}


def _outcome(checker: Checker, res: Outcome, digest: str) -> dict:
    return {
        "attempted": checker.attempted,
        "failed": res.failed,
        "messages": res.messages,
        "notes": res.notes,
        "digest": digest,
    }


def layer_metrics(tracer: spans.Tracer, passes: int) -> dict[str, float]:
    """Per-layer figures from the traced passes, per pass (one cycle)."""
    stats = spans.summarize(tracer)

    def st(name: str) -> spans.NameStats:
        return stats.get(name, spans.NameStats())

    def self_s(name: str) -> float:
        return st(name).self_s / passes

    def calls(name: str) -> float:
        return st(name).calls / passes

    def n_exp(*names: str) -> float:
        by_size: dict[int, list[float]] = {}
        for name in names:
            for n, ts in spans.durations_by_size(tracer, name).items():
                by_size.setdefault(n, []).extend(ts)
        return spans.n_exp(by_size)

    m: dict[str, float] = {}
    for name in ("seqcore.Window", "seqcore.as_array"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("envelopes.envelope", "hardyops.RatioProblem", "hardyops.ratio", "hardyops.apply_iterated"):
        m[f"{name}.self_s"] = self_s(name)
    m["hardyops.ratio.n_exp"] = n_exp("hardyops.ratio")
    for fn in ("char_gop", "char_antigop"):
        for r in REGIMES:
            m[f"charformulas.{fn}.{r}.self_s"] = self_s(f"charformulas.{fn}.{r}")
    m["charformulas.char_gop.n_exp"] = n_exp("charformulas.char_gop")
    # Regime III of char_antigop has no iterated-weight scan; the exponent is
    # read over the regimes that have one.
    m["charformulas.char_antigop.n_exp"] = n_exp(*(f"charformulas.char_antigop.{r}" for r in ("I", "II", "IV")))
    m["charformulas.char_linft_exact.self_s"] = self_s("charformulas.char_linft_exact")
    for name in ("blocks.block_partition", "blocks.verify_partition_invariants", "bridge.bridge_check"):
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.n_exp"] = n_exp(name)
    m["bridge.sup_weighted_tail.calls"] = calls("bridge.sup_weighted_tail")
    m["bridge.sup_weighted_tail.self_s"] = self_s("bridge.sup_weighted_tail")
    bfc = "oracle.brute_force_constant"
    m[f"{bfc}.calls"] = calls(bfc)
    m[f"{bfc}.self_s"] = self_s(bfc)
    m[f"{bfc}.n_exp"] = n_exp(bfc)
    evals = tracer.counters.get("oracle.evaluations", 0)
    oracle_s = st(bfc).total_s + st("oracle.spike_oracle").total_s
    m["oracle.evaluations"] = evals / passes
    m["oracle.evals_per_s"] = evals / oracle_s if oracle_s else 0.0
    m["oracle.entry_evals_per_s"] = tracer.counters.get("oracle.entry_evaluations", 0) / oracle_s if oracle_s else 0.0
    for name in ("oracle.equivalence_ratio", "oracle.chain_equivalence_sweep", "oracle.spike_oracle"):
        m[f"{name}.self_s"] = self_s(name)
    for suite in SUITES:
        m[f"verification.{suite}.s"] = st(f"verification.{suite}").total_s / passes
    m["verification.run_verification.self_s"] = self_s("verification.run_verification")
    return m


def check_metrics(res: Outcome) -> dict[str, float]:
    """Figures the checks produce: oracle tightness and the wide-range defect."""
    n = res.notes.get("oracle.instances", 0)
    return {
        "oracle.bound_gmean": math.exp(res.notes["oracle.log_constant"] / n) if n else 0.0,
        "charformulas.wide_range_in_range": res.notes.get("charformulas.wide_range_in_range", 0),
        "charformulas.wide_range_wrong": res.notes.get("charformulas.wide_range_wrong", 0),
    }


def provenance() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name", "") + " " + str(deps[k].get("version", "")) for k in ("blas", "lapack") if k in deps}
    except Exception:  # provenance is informative only
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "hardyseq": hs.__version__,
        "hardyseq_path": hs.__file__,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    # A set-up probe builds every cycle the measuring process builds, so that
    # set-up time covers all of a run's inputs.
    n_cycles = 1 if args.mode == "trace" else wl.cycles
    cycles = [wl.build(args.seed, k) for k in range(n_cycles)]
    wl.call(cycles[0][0])  # warm-up instance
    ready_s = monotonic() - args.t0
    if args.mode == "setup":
        out = {}
    elif args.mode == "measure":
        out = measure(wl, cycles, args.seconds)
    else:
        out = trace(wl, cycles[0], args.seconds)
    out.update(ready_s=ready_s, provenance=provenance())
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
