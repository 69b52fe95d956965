"""The traced run: per-layer metrics and the wrapper coverage check."""

from __future__ import annotations

import numpy as np

from repro import runtime
from repro.core.ledger import ledger_stats
from repro.core.structural import structural_cache_stats

from tracer import LayerTracer
from workloads import quantile_ms

#: Engines on some workload's path (``interpreter`` and ``parallel`` are on none).
ENGINES = ("numpy", "fused")


def _delta(after: dict, before: dict) -> dict:
    """``after - before`` for every numeric leaf of two counter snapshots."""
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = _delta(value, before.get(key, {}))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = value - before.get(key, 0)
    return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _per_op(phase) -> float:
    return phase.wall_s / max(len(phase.latencies), 1)


def coverage_mismatches(tracer: LayerTracer, counters: dict, structural: dict,
                        service_stats: "dict | None") -> list[str]:
    """Every place where a wrapper's count differs from the program's."""
    checks = [
        ("compile_plan calls", tracer.calls("plan.compile"),
         counters["plans"]["compiled"] + counters["plans"]["cache_hits"]),
        ("compile_plan cache hits", tracer.extra("plan.compile", "hits"),
         counters["plans"]["cache_hits"]),
        ("StructuralCache.key_for keyed lookups",
         tracer.extra("structural.key", "keyed"),
         structural["hits"] + structural["misses"]),
        ("StructuralCache.key_for hits", tracer.extra("structural.key", "hits"),
         structural["hits"]),
        ("HypothesisTest.run calls", tracer.calls("sprt"), counters["tests"]["runs"]),
        ("HypothesisTest.run samples", tracer.extra("sprt", "samples"),
         counters["tests"]["samples"]),
        ("expected_value calls", tracer.calls("expectation"),
         counters["expectations"]["runs"]),
        ("SampleLedger reads (serve + refused windows)",
         tracer.calls("ledger.serve") + tracer.extra("ledger.window", "refused"),
         counters["ledger"]["hits"] + counters["ledger"]["misses"]
         + counters["ledger"]["bypasses"]),
    ]
    for name in set(ENGINES) | set(counters["engines"]):
        engine = counters["engines"].get(name, {"batches": 0, "samples": 0})
        checks.append((f"engine {name} sample calls",
                       tracer.calls(f"engine.{name}"), engine["batches"]))
        checks.append((f"engine {name} samples",
                       tracer.extra(f"engine.{name}", "samples"), engine["samples"]))
    if service_stats is not None:
        checks.append(("evaluate_batch calls", tracer.calls("service.batch"),
                       service_stats["batches"]))
        checks.append(("evaluate_batch requests",
                       tracer.extra("service.batch", "requests"),
                       service_stats["requests_total"]))
    return [f"{name}: wrappers counted {ours:g}, program counted {theirs:g}"
            for name, ours, theirs in checks if ours != theirs]


def traced_run(workload, seconds: float,
               exclude_modules: "frozenset[str]" = frozenset()) -> dict:
    """Half the time untraced, half traced; per-layer metrics of the latter.

    ``exclude_modules`` is passed to :class:`LayerTracer` (self-test only).
    """
    untraced = workload.run(seconds / 2)
    untraced_detail = dict(untraced.detail)
    counters_before = runtime.stats()
    structural_before = structural_cache_stats()
    with LayerTracer(exclude_modules) as tracer:
        traced = workload.run(seconds / 2, tracer=tracer)
    counters = _delta(runtime.stats(), counters_before)
    structural = _delta(structural_cache_stats(), structural_before)
    service_stats = getattr(workload, "service_stats", None)
    checked, mismatches = workload.check()
    ops = max(len(traced.latencies), 1)
    t = tracer

    def calls(name):
        return (t.calls(name), "count")

    def seconds_of(name):
        return (t.self_s(name), "s")

    metrics = {
        "graph.build_s": seconds_of("graph.build"),
        "graph.nodes_per_op": (t.extra("graph.build", "nodes") / ops, "count"),
        "plan.compile_calls": calls("plan.compile"),
        "plan.compile_self_s": seconds_of("plan.compile"),
        "plan.cache_hit_share": (_share(t.extra("plan.compile", "hits"),
                                        t.calls("plan.compile")), "share"),
        "structural.key_s": seconds_of("structural.key"),
        "structural.hit_share": (_share(t.extra("structural.key", "hits"),
                                        t.extra("structural.key", "keyed")), "share"),
        "optimizer.calls": calls("optimizer"),
        "optimizer.self_s": seconds_of("optimizer"),
        "optimizer.applied_share": (_share(t.extra("optimizer", "applied"),
                                           t.calls("optimizer")), "share"),
        "certify.rewrite_s": seconds_of("certify.rewrite"),
    }
    for name in ENGINES:
        layer = f"engine.{name}"
        samples = t.extra(layer, "samples")
        metrics[f"{layer}.calls"] = calls(layer)
        metrics[f"{layer}.self_s"] = seconds_of(layer)
        metrics[f"{layer}.samples"] = (samples, "count")
        metrics[f"{layer}.ns_per_sample"] = (_share(t.self_s(layer) * 1e9, samples), "ns")
    fused = counters["fused"]
    ledger = counters["ledger"]
    tests = counters["tests"]
    metrics.update({
        "fused.kernel_hit_share": (_share(fused["kernel_hits"],
                                          fused["kernel_hits"] + fused["kernels_built"]),
                                   "share"),
        "ledger.serve_calls": calls("ledger.serve"),
        "ledger.serve_s": seconds_of("ledger.serve"),
        "ledger.hit_share": (_share(ledger["hits"], ledger["hits"] + ledger["misses"]),
                             "share"),
        "ledger.rows_reused": (ledger["rows_reused"], "count"),
        "ledger.rows_drawn": (ledger["rows_drawn"], "count"),
        "ledger.suffix_extensions": (ledger["suffix_extensions"], "count"),
        "ledger.bytes": (ledger_stats()["bytes"], "B"),
        "sprt.runs": calls("sprt"),
        "sprt.self_s": seconds_of("sprt"),
        "sprt.steps_per_run": (_share(tests["sprt_steps"], tests["runs"]), "count"),
        "sprt.samples_per_run": (_share(t.extra("sprt", "samples"), t.calls("sprt")),
                                 "count"),
        "sprt.inconclusive_share": (_share(t.extra("sprt", "inconclusive"),
                                           t.calls("sprt")), "share"),
        "expectation.calls": calls("expectation"),
        "expectation.self_s": seconds_of("expectation"),
        "bayes.posterior_calls": calls("bayes.posterior"),
        "bayes.posterior_self_s": seconds_of("bayes.posterior"),
    })

    waits = traced.detail.get("waits", [])
    batches = t.calls("service.batch")
    metrics.update({
        "service.queue_wait_p50_ms": (quantile_ms(waits, 0.5), "ms"),
        "service.queue_wait_p99_ms": (quantile_ms(waits, 0.99), "ms"),
        "service.batches": (batches, "count"),
        "service.batch_size_mean": (_share(t.extra("service.batch", "requests"), batches),
                                    "count"),
        "service.batch_self_s": seconds_of("service.batch"),
    })

    pauses = [seconds for _, seconds in t.gc_pauses]
    if workload.name == "service_ladder":
        # Open loop: compare latency at the reference rate, not wall time.
        overhead = _share(quantile_ms(traced.latencies, 0.5),
                          quantile_ms(untraced.latencies, 0.5)) - 1.0
        traced_wall = sum(p["wall_s"] for p in workload.phases)
    else:
        overhead = _share(_per_op(traced), _per_op(untraced)) - 1.0
        # The tracer's self times are wall-clock times.
        traced_wall = traced.clock_wall_s
    metrics.update({
        "py.gc_pause_s": (sum(pauses), "s"),
        "py.gc_gen2_count": (sum(1 for g, _ in t.gc_pauses if g == 2), "count"),
        "py.gc_max_pause_ms": (max(pauses, default=0.0) * 1e3, "ms"),
        "bench.unattributed_s": (traced_wall - t.attributed_s(), "s"),
        "bench.trace_overhead_share": (overhead, "share"),
        "bench.host_probe_ms": (traced.host_probe_ms, "ms"),
        "fail_share": (_share(untraced.failed + traced.failed + mismatches,
                              untraced.attempted + traced.attempted), "share"),
        "decision_error_rate": (_share(untraced.wrong_decisions + traced.wrong_decisions,
                                       untraced.decisions + traced.decisions), "share"),
    })
    if workload.name == "service_ladder":
        # Only the open loop can shed, degrade, fall behind or find a limit.
        late = traced.detail["late_ms"]
        metrics.update({
            "service.shed": (service_stats["shed"], "count"),
            "service.degraded": (service_stats["degradation"]["degraded_requests"],
                                 "count"),
            "service.max_rate_rps": (untraced_detail["max_rate_rps"], "1/s"),
            "bench.generator_late_p99_ms": (
                float(np.quantile(late, 0.99)) if late else 0.0, "ms"),
        })
    return {
        "metrics": metrics,
        "coverage_errors": coverage_mismatches(t, counters, structural, service_stats),
        "checked": checked,
        "mismatches": mismatches,
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed + mismatches,
    }
