#!/usr/bin/env python3
"""Builds the benchmark from source and runs one measurement.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`). The last
line of standard output is the run's JSON result. It is printed only when
the run reported exactly the metrics that BENCHMARK.json lists for the
mode (end-to-end for --trace 0, per-layer for --trace 1); a run whose
output check failed prints it with "correct": false. Any failure exits
non-zero.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def expected_metrics(trace):
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = Path(target) / "release" / "perfbench"
    if "serve-uds" in sys.argv:
        # The closed loop never runs the client and server threads at the
        # same time. Keeping both on one CPU takes the cross-CPU wake-up
        # out of every round trip; on a shared VM that wake-up doubled the
        # round trip and made its tail swing by more than 2x between runs.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = subprocess.run([str(exe), *sys.argv[1:]], stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if not lines:
        print(f"perfbench: run failed (exit {run.returncode})", file=sys.stderr)
        return run.returncode or 1
    result = json.loads(lines[-1])
    trace = "--trace" in sys.argv and sys.argv[sys.argv.index("--trace") + 1] == "1"
    got, want = set(result["metrics"]), expected_metrics(trace)
    if got != want:
        print(f"perfbench: metrics differ from BENCHMARK.json: missing {sorted(want - got)}, "
              f"unlisted {sorted(got - want)}", file=sys.stderr)
        return 1
    # An incorrect run still prints its result, with "correct": false,
    # and exits non-zero.
    print("\n".join(lines))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
