"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads oracle-wide,bridge-exact]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time,
and prints for each metric the median, the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, and that share over the metric's bound.  A benchmark is steady when
every spread, ``setup_s``'s too, is below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    worst = 0.0
    for wl in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{wl} seed {seed}: incorrect, {result['failed']} failed", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl:18s} seed {seed:3d} " + " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
                  flush=True)
        for name, vals in values.items():
            s = spread(vals)
            worst = max(worst, s / bounds[name])
            print(f"{wl:18s} {name:16s} median {statistics.median(vals):12.6g}  spread {s:7.4f}  "
                  f"bound {bounds[name]:.2f}  spread/bound {s / bounds[name]:.2f}  n={len(vals)}", flush=True)
    print(f"worst spread/bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
