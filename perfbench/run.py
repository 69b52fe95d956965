"""Benchmark of the paper's case studies and the service tier.

Run from the repository root::

    python3 perfbench/run.py --workload life --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``life``, ``gps``, ``session``, ``service`` and
``service_ladder`` (``NOTES.md`` says why each; ``BENCHMARK.json`` gates
the first four).  With ``--trace 0`` the run measures the end-to-end
metrics with nothing installed; with ``--trace 1`` it spends
half the time untraced and half under the per-layer wrappers of
``tracer.py``, prints the per-layer metrics and checks that the wrappers
counted exactly what the program's own counters counted.  Either way the
output checks run after the timed phase, a human-readable report goes to
standard output and the last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``setup_s`` is the median of three cold set-ups (this process and two
``--setup-only`` child processes): imports, input generation, first
compiles and fused-kernel generation.

The run pins itself to one CPU (see ``pin_to_one_cpu``).  The time
metrics of the gated workloads (``ops_per_s``, ``op_p50_ms``,
``op_p99_ms``, ``setup_s``) are rescaled to a nominal host speed by a
reference kernel timed between ops (``hostspeed.py`` says why and how),
and the single-threaded workloads time their ops by the thread's CPU time
(``workloads.closed_loop`` says why); the report prints the raw and
wall-clock figures beside them.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 120


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("life", "gps", "session", "service",
                                 "service_ladder"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print it as JSON")
    return parser.parse_args(argv)


def cold_setup(name: str, seed: int):
    """Import the program, build the inputs and warm the caches; the set-up
    time is rescaled to the nominal host speed."""
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT, HERE]
    from hostspeed import scaled_setup_s
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.setup()
    return workload, scaled_setup_s(time.perf_counter() - _STARTED)


def child_setup_s(name: str, seed: int) -> float:
    """One cold set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(workload, phase, setup_s: float, peak_rss_mb: float,
               mismatches: int) -> dict:
    """The end-to-end metrics of one untraced phase."""
    import numpy as np
    from workloads import quantile_ms, tail_latency

    ops = len(phase.latencies)
    if workload.name == "service_ladder":
        ops_per_s = phase.detail["goodput"] / phase.wall_s
        p50_ms = quantile_ms(phase.latencies, 0.5)
    else:
        ops_per_s = ops / phase.wall_s
        # The mean of segment medians moves smoothly as the share of
        # slow ops changes, where one median of all ops can sit on the
        # border between two kinds of op (session) and jump.
        p50_ms = (statistics.fmean(phase.segment_p50s) if phase.segment_p50s
                  else float(np.median(phase.latencies))) * 1e3
    fail = (phase.failed + mismatches) / phase.attempted
    return {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50_ms, "ms"),
        "op_p99_ms": (tail_latency(phase.latencies)[0] * 1e3, "ms"),
        "ok_share": (1.0 - fail, "share"),
        "samples_per_op": (phase.engine_samples / max(ops, 1), "count"),
        "decision_accuracy": (
            1.0 - phase.wrong_decisions / max(phase.decisions, 1), "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def report_end_to_end(workload, phase, metrics: dict, checked: int,
                      mismatches: int) -> None:
    """Human-readable report, including the metrics the JSON line omits."""
    from workloads import quantile_ms, tail_latency

    print(f"workload {workload.name}: {phase.attempted} ops attempted in "
          f"{phase.wall_s:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<20} {value:.6g} {unit}")
    print(f"  op_p99_ms is the {tail_latency(phase.latencies)[1]}")
    if phase.host_probe_ms:
        print(f"  as measured, before rescaling (host probe median "
              f"{phase.host_probe_ms:.4g} ms, nominal {phase.probe_nominal_ms:g} ms):")
        print(f"    ops_per_s          {len(phase.raw_latencies) / phase.raw_wall_s:.6g} 1/s")
        print(f"    op_p50_ms          {quantile_ms(phase.raw_latencies, 0.5):.6g} ms")
        print(f"    op_p99_ms          {tail_latency(phase.raw_latencies)[0] * 1e3:.6g} ms")
    if phase.wall_latencies is not phase.raw_latencies:
        lost = 1.0 - phase.raw_wall_s / phase.clock_wall_s
        print(f"  wall clock, as measured ({lost:.2%} of it the thread was not "
              f"running):")
        print(f"    ops_per_s          {len(phase.wall_latencies) / phase.clock_wall_s:.6g} 1/s")
        print(f"    op_p50_ms          {quantile_ms(phase.wall_latencies, 0.5):.6g} ms")
        print(f"    op_p99_ms          {tail_latency(phase.wall_latencies)[0] * 1e3:.6g} ms")
    print(f"  fail_share           {1.0 - metrics['ok_share'][0]:.6g} share")
    print(f"  decision_error_rate  "
          f"{phase.wrong_decisions / max(phase.decisions, 1):.6g} share")
    if workload.name == "service_ladder":
        print(f"  max_rate_rps         {phase.detail['max_rate_rps']} 1/s "
              f"(p99 <= {workload.LIMIT_S * 1e3:.0f} ms, no shed, no backlog)")
        for p in workload.phases:
            print(f"    rate {p['rate']:>5} rps  sent {p['sent']:>5}  ok {p['succeeded']:>5}"
                  f"  failed {p['failed']}  shed {p['shed']}  p50 {p['p50_ms']:.2f} ms"
                  f"  tail {p['tail_ms']:.2f} ms  backlog "
                  f"{p['backlog']}  sustained {p['sustained']}")
    print(f"  output check: {checked} compared, {mismatches} mismatched")


def pin_to_one_cpu() -> None:
    """Keep this process and its threads on one CPU.

    The service's event loop and worker thread hand every batch to each
    other; on two vCPUs the cost of that hand-off depends on where the
    scheduler happens to put the threads, and the tail latency of
    ``service`` moved by a quarter from one run to the next.  On one CPU
    it does not.  The child set-up processes inherit the pinning.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    workload, own_setup_s = cold_setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0
    if args.trace:
        from layers import traced_run

        result = traced_run(workload, args.seconds)
        metrics = result["metrics"]
        for name, (value, unit) in metrics.items():
            print(f"  {name:<32} {value:.6g} {unit}")
        for line in result["coverage_errors"]:
            print(f"coverage mismatch: {line}")
        print(f"  output check: {result['checked']} compared, "
              f"{result['mismatches']} mismatched")
        correct = not result["coverage_errors"] and result["mismatches"] == 0
        attempted, failed = result["attempted"], result["failed"]
    else:
        setup_s = statistics.median([own_setup_s] + [
            child_setup_s(args.workload, args.seed) for _ in range(SETUP_RUNS - 1)])
        phase = workload.run(args.seconds)
        # Read before the output checks, whose reference runs are not timed.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked, mismatches = workload.check()
        metrics = end_to_end(workload, phase, setup_s, peak_rss_mb, mismatches)
        report_end_to_end(workload, phase, metrics, checked, mismatches)
        correct = mismatches == 0
        attempted = phase.attempted
        failed = phase.failed + mismatches
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
