"""Per-layer timing from wrappers installed around each layer's entry points.

The benchmark measures end-to-end numbers with nothing installed, then
repeats the workload under :class:`LayerTracer`, which replaces each
layer's public function with a timing wrapper *where its callers look it
up*: every loaded ``repro`` module attribute bound to the original
function, plus the methods callers reach through a class or a
process-global instance.  Each wrapped call records its duration and its
*self* time: the duration minus the time covered by wrapped calls nested
inside it, so ``ExecutionEngine.sample`` does not also count the
``optimize_plan`` it triggers, and ``compile_plan`` does not count
``StructuralCache.key_for``.

Nothing inside ``src/`` is modified; :meth:`LayerTracer.uninstall`
restores every original binding.  ``layers.coverage_mismatches`` compares
the wrappers' call and sample counts with the program's own counters, so
a lookup site the tracer missed fails the benchmark instead of silently
under-reporting a layer.
"""

from __future__ import annotations

import gc
import importlib
import sys
import threading
from collections import defaultdict
from time import perf_counter

_MISSING = object()

#: Layer name -> (module, attribute) of functions callers import by name.
FUNCTIONS = {
    "graph.build": [
        ("repro.life.sensors", "sensor_sum"),
        ("repro.life.sensors", "corrected_sensor_sum"),
        ("repro.gps.walking", "uncertain_speed_mph"),
    ],
    "plan.compile": [("repro.core.plan", "compile_plan")],
    "optimizer": [("repro.core.optimizer", "optimize_plan")],
    "certify.rewrite": [("repro.analysis.certify", "certify_rewrite")],
    "expectation": [("repro.core.expectation", "expected_value")],
    "bayes.posterior": [("repro.core.bayes", "posterior")],
    "service.batch": [("repro.service.coalescer", "evaluate_batch")],
}


class LayerStat:
    """Calls and self seconds, plus layer-specific counts."""

    __slots__ = ("calls", "self_time", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.self_time = 0.0
        self.extra: "defaultdict[str, float]" = defaultdict(float)


class LayerTracer:
    """Install timing wrappers, accumulate per-layer stats, restore on exit.

    Thread-safe: the service evaluates batches on a worker thread, so the
    nesting stack is per thread and aggregation takes a lock.
    ``exclude_modules`` leaves the named modules' bindings unwrapped (the
    benchmark's self-test uses it to prove the coverage check fires).
    """

    def __init__(self, exclude_modules: "frozenset[str]" = frozenset()) -> None:
        self.stats: "defaultdict[str, LayerStat]" = defaultdict(LayerStat)
        #: Per-request batch start times by request uid (service queue wait).
        self.batch_started: dict[int, float] = {}
        #: (generation, seconds) of every collector pause while installed.
        self.gc_pauses: list[tuple[int, float]] = []
        self._exclude = exclude_modules
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list = []
        self._gc_start = 0.0

    # -- wrapping ----------------------------------------------------------

    def _timed(self, name_of, fn, observe=None, before=None):
        """Wrap ``fn``.  ``name_of(args)`` names the layer per call;
        ``before(args)`` runs ahead of the call and its value reaches
        ``observe(stat, args, result, start, pre)``, which records counts.
        Time spent in ``observe`` is kept out of the caller's self time."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            pre = before(args) if before is not None else None
            stack.append(0.0)
            result = _MISSING
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                mark = perf_counter()
                with tracer._lock:
                    stat = tracer.stats[name_of(args)]
                    stat.calls += 1
                    stat.self_time += elapsed - nested
                    if observe is not None and result is not _MISSING:
                        observe(stat, args, result, start, pre)
                if stack:
                    stack[-1] += elapsed + (perf_counter() - mark)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self) -> "LayerTracer":
        import repro.core.ledger as ledger_mod
        import repro.core.structural as structural_mod
        from repro.core.engines import ExecutionEngine
        from repro.core.graph import node_count
        from repro.core.sprt import HypothesisTest, TestDecision

        def graph_observe(stat, args, result, start, pre):
            stat.extra["nodes"] += node_count(result.node)

        def compile_before(args):
            return args[0]._compiled_plan is not None

        def compile_observe(stat, args, result, start, was_cached):
            stat.extra["hits"] += int(was_cached)

        def optimizer_observe(stat, args, result, start, pre):
            stat.extra["applied"] += int(result[0] is not args[0])

        def batch_observe(stat, args, result, start, pre):
            stat.extra["requests"] += len(args[0])
            for request in args[0]:
                self.batch_started[request.uid] = start

        observers = {
            "graph.build": (graph_observe, None),
            "plan.compile": (compile_observe, compile_before),
            "optimizer": (optimizer_observe, None),
            "service.batch": (batch_observe, None),
        }
        for layer, sites in FUNCTIONS.items():
            observe, before = observers.get(layer, (None, None))
            for module_name, attr in sites:
                original = getattr(importlib.import_module(module_name), attr)
                wrapped = self._timed(
                    lambda args, layer=layer: layer, original, observe, before)
                for name, module in list(sys.modules.items()):
                    if name.startswith("repro") and name not in self._exclude \
                            and vars(module).get(attr) is original:
                        self._set(module, attr, wrapped)

        def key_observe(stat, args, result, start, pre):
            stat.extra["keyed"] += int(result[0] is not None)
            stat.extra["hits"] += int(result[1])

        cache = structural_mod.STRUCTURAL_CACHE
        self._set(cache, "key_for", self._timed(
            lambda args: "structural.key", cache.key_for, key_observe))

        ledger = ledger_mod.LEDGER
        self._set(ledger, "serve", self._timed(
            lambda args: "ledger.serve", ledger.serve))

        def window_observe(stat, args, result, start, pre):
            stat.extra["refused"] += int(result is None)

        self._set(ledger, "open_window", self._timed(
            lambda args: "ledger.window", ledger.open_window, window_observe))

        def engine_observe(stat, args, result, start, pre):
            stat.extra["samples"] += int(args[2])

        self._set(ExecutionEngine, "sample", self._timed(
            lambda args: f"engine.{args[0].name}",
            vars(ExecutionEngine)["sample"], engine_observe))

        def test_observe(stat, args, result, start, pre):
            stat.extra["samples"] += result.samples_used
            stat.extra["inconclusive"] += int(
                result.decision is TestDecision.INCONCLUSIVE)

        self._set(HypothesisTest, "run", self._timed(
            lambda args: "sprt", vars(HypothesisTest)["run"], test_observe))

        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_pauses.append(
                (info["generation"], perf_counter() - self._gc_start))

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- readout -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def self_s(self, name: str) -> float:
        return self.stats[name].self_time if name in self.stats else 0.0

    def extra(self, name: str, key: str) -> float:
        return self.stats[name].extra.get(key, 0.0) if name in self.stats else 0.0

    def attributed_s(self) -> float:
        """Sum of self times over every wrapped layer."""
        return sum(s.self_time for s in self.stats.values())
