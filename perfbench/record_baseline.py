"""Record the benchmark's baseline: every workload, untraced and traced.

Run from the repository root::

    python3 perfbench/record_baseline.py --seed 1 --seconds 20

Each run is a separate ``run.py`` process; the last JSON line of each is
collected into ``perfbench/baseline.json`` together with the host
metadata every ``BENCH_*.json`` carries.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("life", "gps", "session", "service", "service_ladder")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    sys.path.insert(0, ROOT)
    from benchmarks._host import host_metadata

    runs = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            runs[f"{name}/trace{trace}"] = json.loads(done.stdout.strip().splitlines()[-1])
            print(f"{name} trace {trace}: done", file=sys.stderr)
    baseline = {"seed": args.seed, "seconds": args.seconds, "runs": runs,
                "host": host_metadata()}
    with open(os.path.join(HERE, "baseline.json"), "w") as out:
        json.dump(baseline, out, indent=2)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
