"""Benchmark entry point for ``hardyseq``.

    python3 perfbench/run.py --workload closed-form-large --seed 1 --seconds 21 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout.  Every process it starts is a fresh
interpreter importing ``hardyseq`` from the checkout's ``src`` with BLAS
pinned to one thread, and every process is waited for.  With ``--trace 0``
it times set-up in several fresh processes, then measures the workload for
``--seconds`` in one more; with ``--trace 1`` it runs the traced passes that
give the per-layer metrics.  The last stdout line is the result object; the
line before it holds provenance, sample counts, the output digest and the
known-defect counts.  ``--workload all`` runs every workload both ways and
prints each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else {}
WORKLOADS = [w["name"] for w in BENCHMARK.get("workloads", [])]
UNITS = {m["name"]: m["unit"] for m in BENCHMARK.get("end_to_end", []) + BENCHMARK.get("per_layer", [])}

# Set-up is timed in this many fresh processes before the measuring one and
# as many after it, so the median spans the run's drift in machine speed.
SETUP_PROBES = 6
# Machine-speed samples taken just before and just after each set-up probe.
SPEED_SAMPLES = 5
# Every process started here is ended before the run reaches this age.
DEADLINE_S = 170.0
PINNED = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class BenchError(RuntimeError):
    pass


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = str(SRC)
    # Imports read cached bytecode, as they do for users; the first set-up
    # probe of a fresh checkout writes it under src/.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _worker(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON result line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} passed the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Returns (result object, info object)."""
    deadline = monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    meter = speed.Meter()

    def setup_probe() -> tuple[float, float]:
        """Set-up time of one fresh process: scaled to the reference speed, and raw."""
        meter.sample(SPEED_SAMPLES)
        t0 = perf_counter()
        ready = _worker([*base, "--mode", "setup"], deadline)["ready_s"]
        t1 = perf_counter()
        meter.sample(SPEED_SAMPLES)
        return ready * meter.factor(t0, t1), ready

    unscaled = {}
    if trace:
        raw = _worker([*base, "--mode", "trace"], deadline)
        values = raw["metrics"]
        samples = {name: raw["passes"] for name in values}
    else:
        setups = [setup_probe() for _ in range(SETUP_PROBES)]
        raw = _worker([*base, "--mode", "measure"], deadline)
        setups += [setup_probe() for _ in range(SETUP_PROBES)]
        values = {
            "setup_s": spans.median([s for s, _ in setups]),
            **{k: raw[k] for k in ("instances_per_s", "instance_ms_p50", "instance_ms_p90", "peak_rss_mb")},
        }
        unscaled = {"setup_s": spans.median([r for _, r in setups]), **raw["raw"], "reference_ms": raw["reference_ms"]}
        samples = {"setup_s": len(setups), "instances_per_s": raw["instances"], "instance_ms_p50": raw["latency_samples"],
                   "instance_ms_p90": raw["latency_samples"], "peak_rss_mb": 1}
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": UNITS.get(k, "")} for k, v in values.items()},
    }
    prov = raw["provenance"]
    prov.update(cpu=cpu_model(), nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)), pinned=PINNED)
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "samples": samples,
        "digest": raw["digest"],
        "unscaled": unscaled,
        "notes": raw["notes"],
        "failures": raw["messages"],
        "provenance": prov,
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="hardyseq benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=BENCHMARK.get("run_seconds", 20))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hardyseq" / "__init__.py").is_file() or not WORKLOADS:
        print(f"error: run from a checkout holding src/hardyseq and BENCHMARK.json (looked in {ROOT})", file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result, info = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(info))
            print(json.dumps(result))
            return 0
        for name in WORKLOADS:
            for trace in (False, True):
                result, info = run_one(name, args.seed, args.seconds, trace)
                print(f"== {name} trace={int(trace)} correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} digest={info['digest'][:16]}")
                for metric, val in result["metrics"].items():
                    print(f"   {metric:48s} {val['value']:>14.6g} {val['unit']:6s} n={info['samples'][metric]}")
                if info["notes"].get("charformulas.wide_range_in_range"):
                    print(f"   known defect, full-range arithmetic: {info['notes'].get('charformulas.wide_range_wrong', 0)} of "
                          f"{info['notes']['charformulas.wide_range_in_range']} in-range wide-weight instances wrong")
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
