"""Process-global runtime metrics for the sampling runtime.

The plan/engine layer answers "what did this process spend its sampling
time on": how many plans were compiled (vs served from cache), how many
samples each engine drew and how long it took, how many SPRT batches the
conditionals consumed.  The counters live in a single process-global
:class:`RuntimeMetrics` registry (:data:`METRICS`), cheap enough to stay
on by default — recording is plain attribute arithmetic on the hot path,
locking only on snapshot/reset.

``repro.runtime.stats()`` returns a snapshot; selection is governed by
``EvaluationConfig.metrics``:

- ``True`` (default) — record into the global registry;
- ``False``/``None`` — record nothing;
- a :class:`RuntimeMetrics` instance — record into that instance (for
  scoped measurement, e.g. per-request accounting under
  ``evaluation_config(metrics=RuntimeMetrics())``).

This module must stay import-light (stdlib only): every ``repro.core``
module imports it, so it can depend on none of them.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable

#: Default latency bucket upper bounds in seconds: log-spaced 1-2.5-5 decades
#: from 100 µs to 10 s.  Bounded (17 buckets + overflow), so a histogram is a
#: fixed-size integer array no matter how many observations it absorbs —
#: p50/p99 stay derivable without storing or tracing individual latencies.
DEFAULT_LATENCY_BOUNDS = (
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
    10.0, 30.0,
)


class LatencyHistogram:
    """Bounded-bucket latency histogram (Prometheus ``histogram`` semantics).

    ``bounds[i]`` is the *inclusive* upper edge of bucket ``i``
    (Prometheus ``le``); one overflow bucket catches everything above the
    last bound.  :meth:`quantile` reconstructs percentiles by linear
    interpolation inside the target bucket — the same estimator as
    PromQL's ``histogram_quantile`` — so p50/p99 are derivable from the
    counters alone, with error bounded by bucket width.
    """

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds: tuple = DEFAULT_LATENCY_BOUNDS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b <= 0 for b in bounds):
            raise ValueError("bucket bounds must be positive")
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # [..buckets.., overflow]
        self.count = 0
        self.sum = 0.0

    def observe(self, seconds: float) -> None:
        self.counts[bisect_left(self.bounds, seconds)] += 1
        self.count += 1
        self.sum += seconds

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile in seconds (``nan`` when empty).

        The target bucket is the first whose cumulative count reaches
        ``q * count``; the estimate interpolates linearly between its
        edges.  Observations in the overflow bucket clamp to the last
        finite bound (a deliberate *under*-estimate, as in Prometheus).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            previous = cumulative
            cumulative += n
            if cumulative >= rank:
                if i >= len(self.bounds):  # overflow bucket
                    return self.bounds[-1]
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i]
                fraction = (rank - previous) / n
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
        return self.bounds[-1]  # pragma: no cover - rank <= count always hits

    def as_dict(self) -> dict:
        cumulative, running = [], 0
        for n in self.counts[:-1]:
            running += n
            cumulative.append(running)
        return {
            "count": self.count,
            "sum": self.sum,
            "bounds": list(self.bounds),
            "cumulative": cumulative,  # per-bound cumulative counts (le=)
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
        }


class EngineStats:
    """Per-engine sampling counters (samples drawn, batches, wall time).

    ``latency`` is a bounded :class:`LatencyHistogram` of per-batch wall
    times, so p50/p99 engine latency is derivable from the counters
    without tracing (the seconds total alone only supports means).
    """

    __slots__ = ("batches", "samples", "seconds", "latency")

    def __init__(self) -> None:
        self.batches = 0
        self.samples = 0
        self.seconds = 0.0
        self.latency = LatencyHistogram()

    def as_dict(self) -> dict:
        return {
            "batches": self.batches,
            "samples": self.samples,
            "seconds": self.seconds,
            "latency": self.latency.as_dict(),
        }


class RuntimeMetrics:
    """Counter registry for the sampling runtime.

    One instance is process-global (:data:`METRICS`); independent
    instances can be installed per evaluation scope via
    ``evaluation_config(metrics=RuntimeMetrics())``.  Counters are plain
    attributes updated without a lock (the runtime records from the
    coordinating process only); :meth:`snapshot` and :meth:`reset` take a
    lock so concurrent readers see a consistent copy.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    # -- recording (hot path: no locks, plain arithmetic) -------------------

    def record_compile(self) -> None:
        self.plans_compiled += 1

    def record_cache_hit(self) -> None:
        self.plan_cache_hits += 1

    def record_structural(self, hit: bool) -> None:
        """One plan's structural key computed (on first use), matching a
        registered shape (``hit``) or registering a new one."""
        if hit:
            self.structural_hits += 1
        else:
            self.structural_misses += 1

    def record_fused(
        self, built: int = 0, rejected: int = 0, kernel_hits: int = 0,
        certified: int = 0, probed: int = 0,
    ) -> None:
        """Fused-backend events: kernels generated, verification rejections,
        plans served by an already-generated kernel (same shape), and how
        fresh kernels were admitted — statically certified stream-safe
        (probe run skipped) vs dynamically probe-verified."""
        self.fused_kernels_built += built
        self.fused_kernels_rejected += rejected
        self.fused_kernel_hits += kernel_hits
        self.fused_kernels_certified += certified
        self.fused_kernels_probed += probed

    def record_engine(self, engine: str, n: int, seconds: float) -> None:
        stats = self.engines.get(engine)
        if stats is None:
            stats = self.engines.setdefault(engine, EngineStats())
        stats.batches += 1
        stats.samples += int(n)
        stats.seconds += seconds
        stats.latency.observe(seconds)

    def record_test(self, kind: str, steps: int, samples: int) -> None:
        """One hypothesis-test run: ``steps`` batch draws, ``samples`` total."""
        self.sprt_tests += 1
        self.sprt_steps += int(steps)
        self.sprt_samples += int(samples)
        self.tests_by_kind[kind] = self.tests_by_kind.get(kind, 0) + 1

    def record_expectation(self, kind: str, samples: int) -> None:
        self.expectations += 1
        self.expectation_samples += int(samples)
        if kind == "adaptive":
            self.adaptive_expectations += 1

    def record_conditional(self, samples_used: int) -> None:
        self.conditionals += 1
        self.conditional_samples += int(samples_used)

    def record_parallel(
        self, chunks: int = 0, retries: int = 0, crashes: int = 0,
        fallbacks: int = 0, serial_rescues: int = 0,
        payload_skips: int = 0, payload_misses: int = 0,
        auto_serial: int = 0,
    ) -> None:
        self.parallel_chunks += chunks
        self.parallel_retries += retries
        self.worker_crashes += crashes
        self.parallel_fallbacks += fallbacks
        self.parallel_serial_rescues += serial_rescues
        self.parallel_payload_skips += payload_skips
        self.parallel_payload_misses += payload_misses
        self.parallel_auto_serial += auto_serial

    def record_ledger(
        self, hits: int = 0, misses: int = 0, suffix_extensions: int = 0,
        rows_reused: int = 0, rows_drawn: int = 0, evictions: int = 0,
        probes: int = 0, certified: int = 0, rejections: int = 0,
        bypasses: int = 0, invalidations: int = 0,
        bytes_now: int | None = None, entries_now: int | None = None,
    ) -> None:
        """Sample-ledger events (``repro.core.ledger``).

        Counters accumulate (cache hits, suffix extensions, reused vs
        freshly drawn rows, evictions, certify-or-probe outcomes);
        ``bytes_now``/``entries_now`` are gauges overwritten with the
        ledger's current footprint after each mutation.
        """
        self.ledger_hits += hits
        self.ledger_misses += misses
        self.ledger_suffix_extensions += suffix_extensions
        self.ledger_rows_reused += rows_reused
        self.ledger_rows_drawn += rows_drawn
        self.ledger_evictions += evictions
        self.ledger_probes += probes
        self.ledger_certified += certified
        self.ledger_rejections += rejections
        self.ledger_bypasses += bypasses
        self.ledger_invalidations += invalidations
        if bytes_now is not None:
            self.ledger_bytes = int(bytes_now)
        if entries_now is not None:
            self.ledger_entries = int(entries_now)

    # -- resilience layer ---------------------------------------------------

    def record_nonfinite(
        self, policy: str, rows: int = 0, resamples: int = 0
    ) -> None:
        """One batch containing non-finite samples, handled under ``policy``."""
        self.nonfinite_batches += 1
        self.nonfinite_rows += int(rows)
        self.nonfinite_resamples += int(resamples)
        self.nonfinite_by_policy[policy] = (
            self.nonfinite_by_policy.get(policy, 0) + 1
        )

    def record_source(
        self, retries: int = 0, failures: int = 0, fallbacks: int = 0,
        trips: int = 0, recoveries: int = 0,
    ) -> None:
        """ResilientSource events: retries, breaker trips, fallback draws."""
        self.source_retries += retries
        self.source_failures += failures
        self.source_fallbacks += fallbacks
        self.breaker_trips += trips
        self.breaker_recoveries += recoveries

    def record_degradation(
        self, transitions: int = 0, degraded: int = 0, shed: int = 0,
        cancelled: int = 0, bulkhead_rejections: int = 0,
        level_now: int | None = None, breakers_open_now: int | None = None,
    ) -> None:
        """Overload-control events from the service tier.

        Counters accumulate (brownout level transitions, requests
        answered degraded, shed at the queue bound, cancelled mid-flight,
        refused by a group bulkhead); ``level_now`` and
        ``breakers_open_now`` are gauges overwritten with the current
        brownout level / count of non-closed group breakers.
        """
        self.degradation_transitions += transitions
        self.degraded_requests += degraded
        self.shed_requests += shed
        self.cancelled_evaluations += cancelled
        self.bulkhead_rejections += bulkhead_rejections
        if level_now is not None:
            self.degradation_level = int(level_now)
        if breakers_open_now is not None:
            self.group_breakers_open = int(breakers_open_now)

    def record_inconclusive(self, policy: str) -> None:
        """One truncated hypothesis test, handled under ``policy``."""
        self.inconclusive_tests += 1
        self.inconclusive_by_policy[policy] = (
            self.inconclusive_by_policy.get(policy, 0) + 1
        )

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self.plans_compiled = 0
            self.plan_cache_hits = 0
            self.structural_hits = 0
            self.structural_misses = 0
            self.fused_kernels_built = 0
            self.fused_kernels_rejected = 0
            self.fused_kernel_hits = 0
            self.fused_kernels_certified = 0
            self.fused_kernels_probed = 0
            self.engines: dict[str, EngineStats] = {}
            self.sprt_tests = 0
            self.sprt_steps = 0
            self.sprt_samples = 0
            self.tests_by_kind: dict[str, int] = {}
            self.expectations = 0
            self.expectation_samples = 0
            self.adaptive_expectations = 0
            self.conditionals = 0
            self.conditional_samples = 0
            self.parallel_chunks = 0
            self.parallel_retries = 0
            self.worker_crashes = 0
            self.parallel_fallbacks = 0
            self.parallel_serial_rescues = 0
            self.parallel_payload_skips = 0
            self.parallel_payload_misses = 0
            self.parallel_auto_serial = 0
            self.ledger_hits = 0
            self.ledger_misses = 0
            self.ledger_suffix_extensions = 0
            self.ledger_rows_reused = 0
            self.ledger_rows_drawn = 0
            self.ledger_evictions = 0
            self.ledger_probes = 0
            self.ledger_certified = 0
            self.ledger_rejections = 0
            self.ledger_bypasses = 0
            self.ledger_invalidations = 0
            self.ledger_bytes = 0
            self.ledger_entries = 0
            self.nonfinite_batches = 0
            self.nonfinite_rows = 0
            self.nonfinite_resamples = 0
            self.nonfinite_by_policy: dict[str, int] = {}
            self.source_retries = 0
            self.source_failures = 0
            self.source_fallbacks = 0
            self.breaker_trips = 0
            self.breaker_recoveries = 0
            self.inconclusive_tests = 0
            self.inconclusive_by_policy: dict[str, int] = {}
            self.degradation_transitions = 0
            self.degraded_requests = 0
            self.shed_requests = 0
            self.cancelled_evaluations = 0
            self.bulkhead_rejections = 0
            self.degradation_level = 0
            self.group_breakers_open = 0

    def snapshot(self) -> dict:
        """A consistent, JSON-serialisable copy of every counter.

        Schema (see ``docs/runtime.md``): top-level keys ``plans``,
        ``engines``, ``tests``, ``expectations``, ``conditionals``,
        ``parallel``, ``ledger``, ``health``, ``sources``, and
        ``degradation``.
        """
        with self._lock:
            return {
                "plans": {
                    "compiled": self.plans_compiled,
                    "cache_hits": self.plan_cache_hits,
                    "structural_hits": self.structural_hits,
                    "structural_misses": self.structural_misses,
                },
                "fused": {
                    "kernels_built": self.fused_kernels_built,
                    "kernels_rejected": self.fused_kernels_rejected,
                    "kernel_hits": self.fused_kernel_hits,
                    "kernels_certified": self.fused_kernels_certified,
                    "kernels_probed": self.fused_kernels_probed,
                },
                "engines": {
                    name: stats.as_dict() for name, stats in self.engines.items()
                },
                "tests": {
                    "runs": self.sprt_tests,
                    "sprt_steps": self.sprt_steps,
                    "samples": self.sprt_samples,
                    "by_kind": dict(self.tests_by_kind),
                    "inconclusive": self.inconclusive_tests,
                    "inconclusive_by_policy": dict(self.inconclusive_by_policy),
                },
                "expectations": {
                    "runs": self.expectations,
                    "samples": self.expectation_samples,
                    "adaptive_runs": self.adaptive_expectations,
                },
                "conditionals": {
                    "runs": self.conditionals,
                    "samples": self.conditional_samples,
                },
                "parallel": {
                    "chunks": self.parallel_chunks,
                    "retries": self.parallel_retries,
                    "worker_crashes": self.worker_crashes,
                    "serial_fallbacks": self.parallel_fallbacks,
                    "serial_rescues": self.parallel_serial_rescues,
                    "payload_skips": self.parallel_payload_skips,
                    "payload_misses": self.parallel_payload_misses,
                    "auto_serial": self.parallel_auto_serial,
                },
                "ledger": {
                    "hits": self.ledger_hits,
                    "misses": self.ledger_misses,
                    "suffix_extensions": self.ledger_suffix_extensions,
                    "rows_reused": self.ledger_rows_reused,
                    "rows_drawn": self.ledger_rows_drawn,
                    "evictions": self.ledger_evictions,
                    "probes": self.ledger_probes,
                    "certified": self.ledger_certified,
                    "rejections": self.ledger_rejections,
                    "bypasses": self.ledger_bypasses,
                    "invalidations": self.ledger_invalidations,
                    "bytes": self.ledger_bytes,
                    "entries": self.ledger_entries,
                },
                "health": {
                    "nonfinite_batches": self.nonfinite_batches,
                    "nonfinite_rows": self.nonfinite_rows,
                    "resamples": self.nonfinite_resamples,
                    "by_policy": dict(self.nonfinite_by_policy),
                },
                "sources": {
                    "retries": self.source_retries,
                    "failures": self.source_failures,
                    "fallbacks": self.source_fallbacks,
                    "breaker_trips": self.breaker_trips,
                    "breaker_recoveries": self.breaker_recoveries,
                },
                "degradation": {
                    "transitions": self.degradation_transitions,
                    "degraded_requests": self.degraded_requests,
                    "shed_requests": self.shed_requests,
                    "cancelled_evaluations": self.cancelled_evaluations,
                    "bulkhead_rejections": self.bulkhead_rejections,
                    "level": self.degradation_level,
                    "group_breakers_open": self.group_breakers_open,
                },
            }

    def total_samples(self) -> int:
        """Samples drawn across every engine (convenience for budgets)."""
        return sum(stats.samples for stats in self.engines.values())

    def render_prometheus(self, prefix: str = "repro") -> str:
        """This registry's counters in Prometheus text exposition format."""
        return render_prometheus(self.snapshot(), prefix=prefix)


# ---------------------------------------------------------------------------
# Prometheus text exposition (format version 0.0.4).  Stdlib-only by design:
# the service tier serves this from a plain http.server handler.
# ---------------------------------------------------------------------------


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: dict | None) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_histogram(
    name: str, hist_dict: dict, labels: dict | None = None
) -> list[str]:
    """Prometheus ``histogram`` series for a :class:`LatencyHistogram` dict.

    Emits cumulative ``<name>_bucket{le="..."}`` samples (including the
    mandatory ``le="+Inf"``), plus ``<name>_sum`` and ``<name>_count``.
    """
    labels = dict(labels or {})
    lines = []
    for bound, cumulative in zip(hist_dict["bounds"], hist_dict["cumulative"]):
        bucket_labels = dict(labels)
        bucket_labels["le"] = format(bound, "g")
        lines.append(
            f"{name}_bucket{_format_labels(bucket_labels)} {cumulative}"
        )
    inf_labels = dict(labels)
    inf_labels["le"] = "+Inf"
    lines.append(f"{name}_bucket{_format_labels(inf_labels)} {hist_dict['count']}")
    lines.append(f"{name}_sum{_format_labels(labels)} {_format_value(hist_dict['sum'])}")
    lines.append(f"{name}_count{_format_labels(labels)} {hist_dict['count']}")
    return lines


#: ``by_*`` snapshot keys rendered as labelled series: key -> label name.
_LABELLED_KEYS = {
    "by_kind": "kind",
    "by_policy": "policy",
    "inconclusive_by_policy": "policy",
}


def render_prometheus(snapshot: dict, prefix: str = "repro") -> str:
    """Flatten a :meth:`RuntimeMetrics.snapshot` into Prometheus text.

    Naming scheme: section and counter join with underscores
    (``repro_plans_compiled``), per-engine counters carry an
    ``engine=`` label (``repro_engine_samples{engine="fused"}``), and
    the per-engine latency histograms render as native Prometheus
    histograms (``repro_engine_latency_seconds_bucket{engine=...,le=...}``)
    so p50/p99 come out of ``histogram_quantile()`` — or out of
    :meth:`LatencyHistogram.quantile` offline.
    """
    lines: list[str] = []
    for section, payload in snapshot.items():
        if section == "engines":
            base = f"{prefix}_engine"
            lines.append(f"# TYPE {base}_latency_seconds histogram")
            for engine, stats in sorted(payload.items()):
                labels = {"engine": engine}
                for key in ("batches", "samples", "seconds"):
                    lines.append(
                        f"{base}_{key}{_format_labels(labels)} "
                        f"{_format_value(stats[key])}"
                    )
                lines.extend(
                    render_histogram(
                        f"{base}_latency_seconds", stats["latency"], labels
                    )
                )
            continue
        for key, value in payload.items():
            name = f"{prefix}_{section}_{key}"
            if isinstance(value, dict):
                label = _LABELLED_KEYS.get(key, "key")
                base = f"{prefix}_{section}_{key.replace('by_', '')}"
                for k, v in sorted(value.items()):
                    lines.append(
                        f"{base}{_format_labels({label: k})} {_format_value(v)}"
                    )
            else:
                lines.append(f"{name} {_format_value(value)}")
    return "\n".join(lines) + "\n"


#: The process-global registry that ``repro.runtime.stats()`` reads.
METRICS = RuntimeMetrics()


# ---------------------------------------------------------------------------
# Sink resolution.  ``repro.core.conditionals`` binds a resolver returning
# the active config's ``metrics`` selection; until it does (or when running
# without a config), the global registry is used.
# ---------------------------------------------------------------------------

_resolver: Callable[[], object] | None = None


def bind_resolver(resolver: Callable[[], object]) -> None:
    """Install the callable that yields the active ``metrics`` selection."""
    global _resolver
    _resolver = resolver


def active() -> RuntimeMetrics | None:
    """The metrics sink the runtime should record into right now.

    ``None`` means recording is disabled for the active evaluation scope.
    """
    if _resolver is None:
        return METRICS
    selection = _resolver()
    if selection is True:
        return METRICS
    if not selection:
        return None
    return selection  # a RuntimeMetrics instance
