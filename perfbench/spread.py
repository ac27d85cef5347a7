#!/usr/bin/env python3
"""Spread report: the evidence behind the bounds in BENCHMARK.json.

Runs each workload N times with consecutive seeds and prints, for every
end-to-end metric, the median, the quartiles (statistics.quantiles with
n=4) and the spread (q3 - q1) / median next to the metric's bound. Run
from the root of a checkout:

    python3 perfbench/spread.py --runs 10 [--workloads essd-mix,ssd-gc]
        [--first-seed 1] [--seconds 10]

With --trace, each seed runs the traced mode twice instead: count metrics
must repeat exactly between the two runs (on the single-threaded
workloads), and every per-layer metric is summarised the same way.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads(Path("BENCHMARK.json").read_text())
RUN = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]
THREADED = {"serve-uds"}


def run(workload, seed, seconds, trace):
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarise(name, values, bound=None):
    if len(values) < 2:
        print(f"  {name:44s} {values[0]:<14.6g}", flush=True)
        return
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    row = f"  {name:44s} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} spread {spread:7.2%}"
    if bound is not None:
        verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        row += f"  bound {bound:.0%}  {verdict}"
    print(row, flush=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    metrics = SPEC["per_layer" if args.trace else "end_to_end"]
    mismatched = False
    for workload in args.workloads.split(","):
        print(f"{workload}: {args.runs} run(s), seeds {args.first_seed}..", flush=True)
        values = {m["name"]: [] for m in metrics}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            first = run(workload, seed, args.seconds, args.trace)
            if args.trace and workload not in THREADED:
                second = run(workload, seed, args.seconds, True)
                for m in metrics:
                    name = m["name"]
                    if m["unit"] in ("count", "bytes") and first[name] != second[name]:
                        mismatched = True
                        print(f"  seed {seed}: {name} {first[name]} != {second[name]}")
            for name, v in first.items():
                values[name].append(v)
            if not args.trace:
                print(f"  seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in first.items()),
                      flush=True)
        for m in metrics:
            summarise(m["name"], values[m["name"]], m.get("bound"))
    if mismatched:
        sys.exit("count metrics differ between two traced runs")


if __name__ == "__main__":
    main()
