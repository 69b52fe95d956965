"""Microbenchmarks for the three-stage plan compiler.

Two workloads, both shaped like the paper's SPRT conditional (Section
4.3) — many small sequential batches (k=10) over a non-trivial network:

- ``sprt_compiled`` (the original bench): compiled numpy engine vs. the
  per-batch graph interpreter on a 24-node comparison network; asserts
  the compiled engine is at least 1.5x faster.
- ``fig08_fused``: the Figure 8 / GPS walking-speed expression over
  mixed distributions, run per "session" on fresh isomorphic graphs to
  exercise the structural plan cache, then timed on the interpreter,
  the optimized numpy engine, and the fused-kernel engine; asserts the
  fused engine is >= 5x the interpreter AND strictly faster than numpy.

Both write their numbers into sections of ``BENCH_plan.json`` at the
repo root (read-modify-write, so each test updates only its section).
"""

from __future__ import annotations

import json
import operator
import time
from pathlib import Path

import numpy as np

from benchmarks._host import stamp_host

from repro.core.conditionals import evaluation_config
from repro.core.engines import get_engine
from repro.core.graph import BinaryOpNode, LeafNode, node_count
from repro.core.plan import compile_plan
from repro.core.uncertain import Uncertain
from repro.dists import Exponential, Gaussian, Uniform
from repro.rng import default_rng
from repro.runtime.metrics import RuntimeMetrics

BATCHES = 150
BATCH_K = 10
REPEATS = 7
SESSIONS = 8
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_plan.json"


def _update_results(section: str, payload: dict) -> None:
    """Merge one bench section into BENCH_plan.json without clobbering."""
    data: dict = {}
    if RESULT_PATH.exists():
        try:
            loaded = json.loads(RESULT_PATH.read_text())
            if isinstance(loaded, dict):
                data = loaded
        except (OSError, ValueError):
            pass
    data[section] = payload
    stamp_host(data)
    RESULT_PATH.write_text(json.dumps(data, indent=2) + "\n")


def _sprt_shaped_root() -> BinaryOpNode:
    """A >= 20-node comparison network: a 12-leaf sum tested against a
    shared leaf, mimicking `usum(sensors) > threshold`."""
    leaves = [LeafNode(Gaussian(0.0, 1.0)) for _ in range(12)]
    acc = leaves[0]
    for leaf in leaves[1:]:
        acc = BinaryOpNode(operator.add, acc, leaf, "+")
    return BinaryOpNode(operator.gt, acc, leaves[0], ">")


def _run_batches(engine, plan, seed: int) -> np.ndarray:
    rng = default_rng(seed)
    chunks = [engine.sample(plan, BATCH_K, rng) for _ in range(BATCHES)]
    return np.concatenate(chunks)


def _best_time(engine, plan) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _run_batches(engine, plan, seed=0)
        best = min(best, time.perf_counter() - start)
    return best


def test_plan_compilation_speedup(benchmark):
    root = _sprt_shaped_root()
    nodes = node_count(root)
    assert nodes >= 20

    plan = compile_plan(root)
    compiled_engine = get_engine("numpy")
    interpreter = get_engine("interpreter")

    # Correctness before speed: both engines must emit the same stream.
    assert np.array_equal(
        _run_batches(compiled_engine, plan, seed=1),
        _run_batches(interpreter, plan, seed=1),
    )

    # Warm up (plan program specialization, allocator), then time.
    _run_batches(compiled_engine, plan, seed=0)
    compiled_s = _best_time(compiled_engine, plan)
    interpreted_s = _best_time(interpreter, plan)
    speedup = interpreted_s / compiled_s

    result = {
        "workload": {
            "nodes": nodes,
            "batches": BATCHES,
            "batch_k": BATCH_K,
            "repeats": REPEATS,
        },
        "compiled_engine": compiled_engine.name,
        "interpreted_engine": interpreter.name,
        "compiled_seconds": compiled_s,
        "interpreted_seconds": interpreted_s,
        "speedup": speedup,
        "compiled_batches_per_second": BATCHES / compiled_s,
        "interpreted_batches_per_second": BATCHES / interpreted_s,
    }
    _update_results("sprt_compiled", result)
    print()
    print(
        f"plan compilation: {nodes} nodes, {BATCHES} batches of k={BATCH_K}: "
        f"compiled {compiled_s * 1e3:.2f} ms, interpreted "
        f"{interpreted_s * 1e3:.2f} ms, speedup {speedup:.2f}x"
    )

    benchmark.pedantic(
        lambda: _run_batches(compiled_engine, plan, seed=0), rounds=3, iterations=1
    )
    assert speedup >= 1.5, (
        f"compiled engine only {speedup:.2f}x faster than the interpreter "
        f"(need >= 1.5x); see {RESULT_PATH}"
    )


def _mean(fixes):
    acc = fixes[0]
    for f in fixes[1:]:
        acc = acc + f
    return acc / float(len(fixes))


WINDOW = 16  # GPS fixes per moving-average window (1 Hz receiver)


def _sliding_means(fixes):
    """Previous/current window means sharing the common middle sum.

    ``prev = (f0 + common) / w`` and ``cur = (common + fw) / w`` where
    ``common = f1 + ... + f(w-1)`` — the ``(y + x) + x`` sharing pattern
    of Figure 8, exactly as sliding-window user code writes it.
    """
    w = float(len(fixes) - 1)
    common = fixes[1]
    for f in fixes[2:-1]:
        common = common + f
    return (fixes[0] + common) / w, (common + fixes[-1]) / w


def _fig08_root():
    """GPS walking-speed detection in the Figure 8 dependence shape.

    The paper's GPS example (Fig. 5) smoothed over a window of fixes:
    each coordinate's previous/current position is a 16-fix moving
    average and the two windows *share* the 15-fix middle sum — the
    ``(y+x)+x`` sharing pattern of Figure 8 at scale.  The workload
    exercises every compiler stage the way real GPS code does: 34
    same-family Gaussian fixes (one coalesced bulk draw for the fused
    backend), degree→radian/earth-radius/mph→m·s⁻¹ unit-conversion
    chains built from named point-mass constants (constant-fold bait),
    repeated window divisors (structurally identical point masses, CSE
    bait), and the distance through a lifted ``np.sqrt``.  The seed
    interpreter re-walks the whole ~100-node DAG per batch; the
    optimized engines run the folded slot program and the fused engine
    collapses it into one generated kernel.
    """
    lat_fixes = [
        Uncertain(Gaussian(47.6097, 2.5e-5)) for _ in range(WINDOW + 1)
    ]
    lon_fixes = [
        Uncertain(Gaussian(-122.3331, 2.5e-5)) for _ in range(WINDOW + 1)
    ]
    prev_lat, cur_lat = _sliding_means(lat_fixes)
    prev_lon, cur_lon = _sliding_means(lon_fixes)
    dt = Uncertain(Uniform(0.9, 1.1))
    drift = Uncertain(Exponential(4.0))

    deg2rad = Uncertain.pointmass(np.pi) / Uncertain.pointmass(180.0)
    # IUGG mean earth radius R1 = (2a + b) / 3 from the WGS84 axes.
    earth_r = (
        Uncertain.pointmass(2.0) * Uncertain.pointmass(6_378_137.0)
        + Uncertain.pointmass(6_356_752.3)
    ) / Uncertain.pointmass(3.0)
    cos_lat = Uncertain.pointmass(0.6756)  # cos(47.6°), flat-earth step
    dy = (cur_lat * deg2rad - prev_lat * deg2rad) * earth_r
    dx = (cur_lon * deg2rad - prev_lon * deg2rad) * (earth_r * cos_lat)
    dist_m = (dx * dx + dy * dy).map(np.sqrt, vectorized=True)
    speed_mps = (dist_m + drift) / dt
    # Threshold stated in mph (the paper's 4 mph walk test), converted to
    # the native m/s of the speed estimate through named constants.
    threshold_mps = (
        Uncertain.pointmass(4.0)
        * (Uncertain.pointmass(1.609344) * Uncertain.pointmass(1000.0))
        / Uncertain.pointmass(3600.0)
    )
    return (speed_mps > threshold_mps).node


def _run_batches_raw(engine, plan, seed: int) -> np.ndarray:
    """Like :func:`_run_batches` but through the raw ``run`` entry point
    (engines.py: "``run`` stays raw for callers that benchmark")."""
    rng = default_rng(seed)
    root = plan.root_slot
    chunks = [engine.run(plan, BATCH_K, rng)[root] for _ in range(BATCHES)]
    return np.concatenate(chunks)


def _best_time_raw(engine, plan) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _run_batches_raw(engine, plan, seed=0)
        best = min(best, time.perf_counter() - start)
    return best


def test_fused_fig08_speedup(benchmark):
    # One fresh isomorphic graph per "session": the structural cache must
    # recognise the repeated shape so fused kernels amortise across them.
    # Keys are computed on first use, which is what the fused kernel
    # cache does with each session's plan.
    metrics = RuntimeMetrics()
    with evaluation_config(metrics=metrics):
        plans = [compile_plan(_fig08_root()) for _ in range(SESSIONS)]
        keys = {plan.structural_hash for plan in plans}
    assert len(keys) == 1 and None not in keys
    nodes = node_count(plans[0].root)
    assert nodes >= 20
    plan_stats = metrics.snapshot()["plans"]
    structural_hits = plan_stats["structural_hits"]
    structural_misses = plan_stats["structural_misses"]
    assert structural_hits >= SESSIONS - 1

    plan = plans[0]
    opt = plan.optimized(2)
    fused = get_engine("fused")
    compiled = get_engine("numpy")
    interpreter = get_engine("interpreter")

    # Correctness before speed: all three backends, one stream.  The
    # fused and numpy engines run the optimized plan, the seed
    # interpreter re-walks the raw DAG — the bit-identity contract
    # spans the optimizer, the codegen, and the engines.
    reference = _run_batches_raw(interpreter, plan, seed=1)
    assert np.array_equal(_run_batches_raw(compiled, opt, seed=1), reference)
    assert np.array_equal(_run_batches_raw(fused, opt, seed=1), reference)

    _run_batches_raw(fused, opt, seed=0)  # warm-up: codegen + verification
    _run_batches_raw(compiled, opt, seed=0)
    fused_s = _best_time_raw(fused, opt)
    compiled_s = _best_time_raw(compiled, opt)
    interpreted_s = _best_time_raw(interpreter, plan)
    fused_speedup = interpreted_s / fused_s
    compiled_speedup = interpreted_s / compiled_s

    result = {
        "workload": {
            "nodes": nodes,
            "sessions": SESSIONS,
            "batches": BATCHES,
            "batch_k": BATCH_K,
            "repeats": REPEATS,
        },
        "interpreted_seconds": interpreted_s,
        "compiled_seconds": compiled_s,
        "fused_seconds": fused_s,
        "speedup_compiled_vs_interpreter": compiled_speedup,
        "speedup_fused_vs_interpreter": fused_speedup,
        "speedup_fused_vs_compiled": compiled_s / fused_s,
        "structural_cache": {
            "sessions": SESSIONS,
            "hits": structural_hits,
            "misses": structural_misses,
            "hit_rate": structural_hits
            / max(1, structural_hits + structural_misses),
        },
    }
    _update_results("fig08_fused", result)
    print()
    print(
        f"fig08 fused: {nodes} nodes, {BATCHES} batches of k={BATCH_K}: "
        f"interpreted {interpreted_s * 1e3:.2f} ms, compiled "
        f"{compiled_s * 1e3:.2f} ms, fused {fused_s * 1e3:.2f} ms "
        f"({fused_speedup:.1f}x vs interpreter, "
        f"{compiled_s / fused_s:.1f}x vs numpy); structural cache "
        f"{structural_hits}/{structural_hits + structural_misses} hits"
    )

    benchmark.pedantic(
        lambda: _run_batches_raw(fused, opt, seed=0), rounds=3, iterations=1
    )
    assert fused_speedup >= 5.0, (
        f"fused engine only {fused_speedup:.2f}x faster than the "
        f"interpreter (need >= 5x); see {RESULT_PATH}"
    )
    assert fused_s < compiled_s, (
        f"fused engine ({fused_s * 1e3:.2f} ms) must beat the numpy "
        f"engine ({compiled_s * 1e3:.2f} ms); see {RESULT_PATH}"
    )


def test_plan_cache_amortises_compilation(benchmark):
    """Compiling once must dominate: repeated compile_plan calls on the
    same root are cache hits, not re-lowering."""
    root = _sprt_shaped_root()
    first = compile_plan(root)
    result = benchmark(lambda: compile_plan(root))
    assert result is first
