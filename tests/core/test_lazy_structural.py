"""Structural keys are computed on first use, not at compile time.

Compiling a plan registers nothing in the structural cache.  The key is
fingerprinted once, when a consumer asks for it: the fused kernel cache,
the sample ledger, parallel payloads, service coalescing or the rewrite
certifier.  Service coalescing keys the request graph itself, before any
plan exists.  Isomorphic plans still resolve to equal keys on every path.
"""

import numpy as np
import pytest

from repro.core.conditionals import evaluation_config
from repro.core.fused import fused_program
from repro.core.ledger import clear_ledger, ledger_stats
from repro.core.plan import compile_plan, graph_structural_hash
from repro.core.structural import clear_structural_cache, structural_cache_stats
from repro.core.uncertain import Uncertain
from repro.dists.gaussian import Gaussian
from repro.runtime.metrics import RuntimeMetrics
from repro.service import QueryRequest


def speed(mean: float = 4.0) -> Uncertain:
    """A fresh graph of one fixed shape per call (no foldable constants)."""
    east = Uncertain(Gaussian(mean, 1.0))
    north = Uncertain(Gaussian(mean, 1.0))
    return (east * east + north * north) ** 0.5


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_structural_cache()
    clear_ledger()
    yield
    clear_ledger()


def test_compile_computes_no_key():
    metrics = RuntimeMetrics()
    with evaluation_config(metrics=metrics):
        plan = compile_plan(speed().node)
    assert structural_cache_stats()["entries"] == 0
    plans = metrics.snapshot()["plans"]
    assert plans["compiled"] == 1
    assert plans["structural_hits"] == plans["structural_misses"] == 0
    assert plan.structural_hash is not None


def test_numpy_draw_computes_no_key():
    before = structural_cache_stats()
    value = speed() > 5.0
    with evaluation_config(engine="numpy", optimize=2, sample_cache=False):
        value.samples(100, rng=1)
        bool(value)
        speed().expected_value(200, rng=2)
    assert structural_cache_stats() == before


def test_first_use_counts_once():
    metrics = RuntimeMetrics()
    with evaluation_config(metrics=metrics):
        p1 = compile_plan(speed().node)
        p2 = compile_plan(speed().node)
        assert p1.structural_hash == p2.structural_hash
        assert p1.structural_hash == p2.structural_hash  # cached on the plan
    plans = metrics.snapshot()["plans"]
    assert (plans["structural_misses"], plans["structural_hits"]) == (1, 1)
    stats = structural_cache_stats()
    assert (stats["misses"], stats["hits"]) == (1, 1)


def test_fused_kernels_share_a_key_across_isomorphic_plans():
    a, b = speed(), speed()
    with evaluation_config(engine="fused", optimize=2):
        first = a.samples(64, rng=3)
        second = b.samples(64, rng=3)
    assert np.array_equal(first, second)
    pa, pb = a.plan.optimized(2), b.plan.optimized(2)
    assert pa.structural_hash == pb.structural_hash is not None
    assert fused_program(pa).structural_hash == fused_program(pb).structural_hash


def test_ledger_shares_an_entry_across_isomorphic_plans():
    with evaluation_config(sample_cache=True):
        first = speed().samples(100, rng=4)
        second = speed().samples(100, rng=4)
    assert np.array_equal(first, second)
    assert ledger_stats()["entries"] == 1


def test_service_groups_isomorphic_plans():
    requests = [
        QueryRequest(value=speed(), kind="samples", samples=8, seed=i)
        for i in range(2)
    ]
    keys = {request.group_key() for request in requests}
    assert len(keys) == 1 and None not in keys
    # Keyed from the graphs: nothing was compiled.
    assert all(r.value.node._compiled_plan is None for r in requests)
    assert keys == {compile_plan(speed().node).structural_hash}


def test_graph_keys_count_like_plan_keys():
    # plans.structural_hits/misses count a graph-keyed lookup exactly as
    # EvaluationPlan.structural_hash counts a plan-keyed one.
    def counts(key_of):
        clear_structural_cache()
        metrics = RuntimeMetrics()
        with evaluation_config(metrics=metrics):
            keys = [key_of(speed()) for _ in range(3)]
            keys.append(key_of(speed().map(lambda v: v, vectorized=True)))
        plans = metrics.snapshot()["plans"]
        stats = structural_cache_stats()
        assert (plans["structural_misses"], plans["structural_hits"]) == (
            stats["misses"], stats["hits"])
        return keys, plans["structural_misses"], plans["structural_hits"]

    by_graph = counts(lambda u: graph_structural_hash(u.node))
    by_plan = counts(lambda u: compile_plan(u.node).structural_hash)
    assert by_graph == by_plan
    keys, misses, hits = by_graph
    assert (misses, hits) == (1, 2) and keys[3] is None


def test_graph_key_reuses_a_compiled_plans_key():
    value = speed()
    plan = compile_plan(value.node)
    key = plan.structural_hash
    before = structural_cache_stats()
    assert graph_structural_hash(value.node) == key
    assert structural_cache_stats() == before


def test_parallel_payloads_key_isomorphic_plans_alike():
    from repro.runtime.parallel import ParallelEngine

    engine = ParallelEngine(workers=2)
    try:
        k1, _ = engine._payload_for(speed().plan)
        k2, _ = engine._payload_for(speed().plan)
    finally:
        engine.shutdown()
    assert k1 == k2 and not k1.startswith("plan-")


def test_certified_rewrite_records_the_key():
    x = Uncertain(Gaussian(0.0, 1.0))
    plan = compile_plan((x * (Uncertain.pointmass(2.0) + 1.0)).node)
    optimized = plan.optimized(2)
    (record,) = optimized.certification_records()
    assert record.structural_hash == optimized.structural_hash is not None
