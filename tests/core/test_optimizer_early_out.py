"""Differential tests for the optimizer's early-out.

``optimize_plan`` skips the passes, the re-lowering and the rewrite
certifier when the plan's lowering found nothing to fold or merge.  The
early-out must be invisible: on a generated corpus of plans it returns
exactly what the full pipeline (``_run_passes``) returns — the same
object for a no-op, equal provenance records — and sampling stays
bit-identical at every optimizer level.
"""

import operator

import numpy as np
import pytest

import repro.analysis.certify as certify_mod
import repro.core.optimizer as optimizer_mod
from repro.core.conditionals import evaluation_config
from repro.core.engines import InterpreterEngine, NumpyEngine
from repro.core.graph import BinaryOpNode, LeafNode, UnaryOpNode
from repro.core.joint import ComponentNode
from repro.core.optimizer import _run_passes, optimize_plan
from repro.core.plan import compile_plan, graph_structural_hash
from repro.core.structural import (
    graph_fingerprint,
    node_token,
)
from repro.core.uncertain import Uncertain
from repro.dists.exponential import Exponential
from repro.dists.gaussian import Gaussian, MultivariateGaussian
from repro.dists.uniform import Uniform

CORPUS_SIZE = 160
N = 64

_BINARY = [
    (operator.add, "+"),
    (operator.sub, "-"),
    (operator.mul, "*"),
    (operator.truediv, "/"),
]


def _leaf(rng) -> Uncertain:
    kind = rng.integers(3)
    if kind == 0:
        return Uncertain(Gaussian(float(rng.normal()), 1.0 + float(rng.random())))
    if kind == 1:
        return Uncertain(Uniform(0.0, 1.0 + float(rng.random())))
    return Uncertain(Exponential(1.0 + float(rng.random())))


def _constant(rng) -> Uncertain:
    # Few distinct values, so equal scalar point masses recur.
    value = [1.0, 2.0, 0.5, 3][int(rng.integers(4))]
    return Uncertain.pointmass(value)


def _components(rng) -> list[Uncertain]:
    leaf = LeafNode(MultivariateGaussian(np.zeros(2), np.eye(2)))
    picks = [int(rng.integers(2)) for _ in range(2)]
    # Two projections of one leaf: equal indices are a CSE duplicate.
    return [Uncertain.from_node(ComponentNode(leaf, i)) for i in picks]


def generate_plan(seed: int) -> Uncertain:
    """A random DAG over a pool of values that later steps reuse.

    Covers constant sub-DAGs, ApplyNodes over constants, duplicate
    deterministic nodes, duplicate scalar point masses, ComponentNodes
    and shared leaves; a third of the plans use stochastic operands only.
    """
    rng = np.random.default_rng(seed)
    stochastic_only = seed % 3 == 0
    pool: list[Uncertain] = [_leaf(rng) for _ in range(1 + int(rng.integers(3)))]
    if not stochastic_only and rng.random() < 0.3:
        pool.extend(_components(rng))
    for _ in range(2 + int(rng.integers(6))):
        choice = int(rng.integers(7))
        a = pool[int(rng.integers(len(pool)))]
        b = pool[int(rng.integers(len(pool)))]
        if choice <= 2:
            op, symbol = _BINARY[int(rng.integers(len(_BINARY)))]
            if stochastic_only:
                pool.append(Uncertain.from_node(BinaryOpNode(op, a.node, b.node, symbol)))
            else:
                pool.append(Uncertain.from_node(
                    BinaryOpNode(op, a.node, _constant(rng).node, symbol)))
        elif choice == 3:
            pool.append(-a if rng.random() < 0.5 else abs(a))
        elif choice == 4 and not stochastic_only:
            # A constant sub-DAG feeding stochastic structure.
            const = _constant(rng) * _constant(rng)
            pool.append(a + const)
        elif choice == 5:
            # The same operator over the same operands, built twice.
            op, symbol = _BINARY[int(rng.integers(len(_BINARY)))]
            pool.append(Uncertain.from_node(BinaryOpNode(op, a.node, b.node, symbol)))
            pool.append(Uncertain.from_node(BinaryOpNode(op, a.node, b.node, symbol)))
        elif choice == 6 and not stochastic_only:
            # ApplyNode over a constant: a recorded fold barrier.
            lifted = _constant(rng).map(np.sqrt, vectorized=True)
            pool.append(a * lifted)
        else:
            pool.append(Uncertain.from_node(UnaryOpNode(operator.neg, a.node, "-")))
    root = pool[-1]
    for value in pool[:-1]:
        if rng.random() < 0.4:
            root = root + value
    return root


def _records(records) -> list:
    return [r.as_dict() for r in records]


def _draw(engine, plan, seed: int) -> np.ndarray:
    return np.asarray(engine.run(plan, N, np.random.default_rng(seed))[plan.root_slot])


def _assert_same_samples(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype
    assert np.array_equal(a, b, equal_nan=a.dtype.kind in "fc")


@pytest.fixture(scope="module")
def corpus():
    return [generate_plan(seed) for seed in range(CORPUS_SIZE)]


def test_corpus_covers_both_branches(corpus):
    plans = [compile_plan(value.node) for value in corpus]
    skipped = sum(1 for p in plans if not p.foldable and not p.mergeable)
    folds = sum(1 for p in plans if p.foldable)
    merges = sum(1 for p in plans if p.mergeable)
    assert skipped >= CORPUS_SIZE // 5
    assert folds >= CORPUS_SIZE // 5
    assert merges >= CORPUS_SIZE // 5


@pytest.mark.parametrize("level", [1, 2])
def test_early_out_matches_full_pipeline(corpus, level):
    rewritten = 0
    for value in corpus:
        plan = compile_plan(value.node)
        fast, fast_records = optimize_plan(plan, level)
        full, full_records = _run_passes(plan, level)
        assert (fast is plan) == (full is plan)
        if full is not plan:
            rewritten += 1
            assert [s.kind for s in fast.steps] == [s.kind for s in full.steps]
        assert _records(fast_records) == _records(full_records)
        candidate = plan.foldable or (level >= 2 and plan.mergeable)
        if not candidate:
            # Soundness of the early-out: the pipeline had nothing to do.
            assert full is plan
        for seed in (0, 1):
            _assert_same_samples(_draw(NumpyEngine(), fast, seed),
                                 _draw(NumpyEngine(), full, seed))
    assert rewritten > 0


def test_samples_bit_identical_across_levels(corpus):
    interpreter = InterpreterEngine()
    for i, value in enumerate(corpus):
        reference = _draw(interpreter, compile_plan(value.node), seed=i)
        for level in (0, 2):
            with evaluation_config(optimize=level, sample_cache=False):
                got = np.asarray(value.samples(N, rng=np.random.default_rng(i)))
            _assert_same_samples(got, reference)


def test_no_op_plan_runs_no_pass_and_no_certifier(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the optimizer ran a pass on a no-op plan")

    monkeypatch.setattr(optimizer_mod, "constant_fold", forbidden)
    monkeypatch.setattr(optimizer_mod, "eliminate_common_subexpressions", forbidden)
    monkeypatch.setattr(certify_mod, "certify_rewrite", forbidden)
    x = Uncertain(Gaussian(0.0, 1.0))
    y = Uncertain(Uniform(0.0, 2.0))
    plan = compile_plan(((x + y) * x - 1.5).node)
    assert not plan.foldable and not plan.mergeable
    for level in (1, 2):
        optimized, records = optimize_plan(plan, level)
        assert optimized is plan
        assert [r.name for r in records][-1] == "dead-slot-elim"


def test_candidate_plan_still_runs_the_pipeline(monkeypatch):
    calls = []
    real = optimizer_mod.constant_fold

    def counting(root):
        calls.append(root)
        return real(root)

    monkeypatch.setattr(optimizer_mod, "constant_fold", counting)
    x = Uncertain(Gaussian(0.0, 1.0))
    plan = compile_plan((x * (Uncertain.pointmass(2.0) + 1.0)).node)
    assert plan.foldable
    optimized, _ = optimize_plan(plan, 2)
    assert calls and optimized is not plan
    assert len(optimized.steps) < len(plan.steps)


def test_lowering_keeps_iter_nodes_order(corpus):
    from repro.core.graph import iter_nodes

    for value in corpus:
        plan = compile_plan(value.node)
        assert [s.node for s in plan.steps] == list(iter_nodes(value.node))
        assert [entry[2] for entry in plan.program] == list(range(len(plan.steps)))


def test_graph_keys_equal_plan_keys(corpus):
    # Keying a graph before it is lowered gives the key its plan gets,
    # and ``None`` for opaque graphs.
    keyed = 0
    for seed, value in enumerate(corpus):
        fresh = generate_plan(seed)  # same shape, nodes never lowered
        graph_key = graph_structural_hash(fresh.node)
        assert fresh.node._compiled_plan is None
        plan = compile_plan(value.node)
        assert graph_key == plan.structural_hash
        # A graph's tokens are its plan's steps (parent indices = slots),
        # for raw and optimized plans alike.
        for lowered in (plan, plan.optimized(2)):
            assert graph_fingerprint(lowered.root)[:-1] == tuple(
                node_token(s.node, s.parent_slots) for s in lowered.steps)
        hidden = fresh.map(lambda v: v, vectorized=True)
        assert graph_fingerprint(hidden.node) is None
        assert graph_structural_hash(hidden.node) is None
        assert compile_plan(hidden.node).structural_hash is None
        keyed += graph_key is not None
    assert keyed == CORPUS_SIZE
