"""Compilation of Bayesian networks into reusable evaluation plans.

The paper's runtime samples the Uncertain<T> network "much like a JIT"
(Section 4.2).  The seed implementation re-walked the DAG on every batch:
each SPRT batch draw built a fresh memo table, re-discovered the
topological order, and paid per-node ``id()``-dict overhead.  This module
performs that discovery exactly once: :func:`compile_plan` lowers a
:class:`~repro.core.graph.Node` DAG into an :class:`EvaluationPlan` — a
flat, topologically ordered program whose instructions reference their
operands by *slot index* instead of by dictionary lookup.

Key properties:

- **Shared subexpressions become shared slots.**  Each distinct node gets
  exactly one slot, so `x + x` reads the same slot twice — the SSA-like
  dependence analysis of Figure 8, now resolved at compile time.  The plan
  holds strong references to its nodes, which also removes the seed's
  GC-pinning workaround (``id()`` keys are only unique while the object is
  alive; slots are unique forever).
- **Plans are cached per root node.**  The cache is keyed on graph
  identity (the root object) and is weak: when a graph dies, its plan is
  collected.  :func:`invalidate_plan` / :func:`clear_plan_cache` provide
  the explicit invalidation path.
- **Plan order matches the seed interpreter's traversal order**, so the
  compiled engines consume the RNG stream in exactly the same sequence —
  seed-for-seed identical samples (see ``tests/core/test_plan.py``).

Execution of a plan is the job of an engine (:mod:`repro.core.engines`).
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Callable, Iterator

from repro.core.graph import (
    ApplyNode,
    BinaryOpNode,
    Node,
    PointMassNode,
    UnaryOpNode,
)
from repro.core.optimizer import cse_key
from repro.core.structural import STRUCTURAL_CACHE
from repro.runtime import metrics as _metrics
from repro.runtime import trace as _trace

#: Sentinel distinguishing "structural hash not computed yet" from the
#: legitimate ``None`` result of an opaque (unshareable) plan.
_UNSET = object()

#: Stack marker of the lowering walk: the node below it has all its
#: parents placed and takes the next slot.
_EMIT = object()


@dataclasses.dataclass
class PlanTelemetry:
    """Counters describing plan compilation and execution activity.

    Install a sink with ``evaluation_config(plan_telemetry=PlanTelemetry())``
    (or :meth:`EvaluationConfig.enable_plan_telemetry`); engines then record
    into it.  This is the Figure 14(b)-style instrumentation for the
    sampling runtime itself rather than for the hypothesis tests.
    """

    #: Number of plans lowered from a ``Node`` DAG.
    plans_compiled: int = 0
    #: Number of :func:`compile_plan` calls satisfied from the cache.
    plan_cache_hits: int = 0
    #: Number of batch executions (one per ``engine.sample`` / context fill).
    batches_executed: int = 0
    #: Number of node evaluations across all batches.
    nodes_evaluated: int = 0
    #: Total samples produced for root nodes (sum of batch sizes).
    samples_generated: int = 0
    #: Wall-clock seconds spent evaluating nodes, keyed by node kind
    #: (``LeafNode``, ``BinaryOpNode``, ...).
    node_seconds: dict[str, float] = dataclasses.field(default_factory=dict)

    def record_node(self, kind: str, seconds: float) -> None:
        self.nodes_evaluated += 1
        self.node_seconds[kind] = self.node_seconds.get(kind, 0.0) + seconds

    def record_batch(self, n: int) -> None:
        self.batches_executed += 1
        self.samples_generated += int(n)

    def reset(self) -> None:
        self.plans_compiled = 0
        self.plan_cache_hits = 0
        self.batches_executed = 0
        self.nodes_evaluated = 0
        self.samples_generated = 0
        self.node_seconds = {}

    def as_dict(self) -> dict:
        return {
            "plans_compiled": self.plans_compiled,
            "plan_cache_hits": self.plan_cache_hits,
            "batches_executed": self.batches_executed,
            "nodes_evaluated": self.nodes_evaluated,
            "samples_generated": self.samples_generated,
            "node_seconds": dict(self.node_seconds),
        }


#: Instruction tags, chosen at compile time so the hot loop can dispatch
#: without re-inspecting node types.
OP_SOURCE = 0  # no parents: leaves, point masses (needs n and rng)
OP_UNARY = 1  # UnaryOpNode: values[out] = op(values[a])
OP_BINARY = 2  # BinaryOpNode: values[out] = op(values[a], values[b])
OP_GENERAL = 3  # anything else: node.evaluate_batch(parent values, n, rng)


class PlanStep:
    """One instruction of a compiled plan.

    ``slot`` is this step's output slot (== its index in ``plan.steps``);
    ``parent_slots`` are the operand slots; ``opcode`` is one of the ``OP_*``
    tags above.
    """

    __slots__ = ("node", "slot", "parent_slots", "opcode", "kind")

    def __init__(self, node: Node, slot: int, parent_slots: tuple[int, ...]) -> None:
        self.node = node
        self.slot = slot
        self.parent_slots = parent_slots
        self.kind = type(node).__name__
        if not parent_slots:
            self.opcode = OP_SOURCE
        elif type(node) is BinaryOpNode:
            self.opcode = OP_BINARY
        elif type(node) is UnaryOpNode:
            self.opcode = OP_UNARY
        else:
            self.opcode = OP_GENERAL

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ops = getattr(self, "ops", None)
        if ops:
            # Fused super-ops (repro.core.fused) list their constituent
            # operations so traces and describe() stay debuggable.
            return (
                f"<{type(self).__name__} {self.slot}: {self.kind} "
                f"[{', '.join(ops)}] <- {self.parent_slots}>"
            )
        return f"<PlanStep {self.slot}: {self.kind} {self.node.label!r} <- {self.parent_slots}>"


class EvaluationPlan:
    """A ``Node`` DAG lowered into a flat, topologically ordered program.

    ``steps[i]`` writes slot ``i``; parents always occupy lower slots, so a
    single forward pass evaluates the whole network.  The root's value is
    in ``steps[-1]`` (``root_slot``).
    """

    __slots__ = (
        "root",
        "steps",
        "slot_of",
        "root_slot",
        "leaf_slots",
        "foldable",
        "mergeable",
        "optimization_level",
        "provenance",
        "_program",
        "_structural",
        "_optimized",
        "_fused",
        "__weakref__",
    )

    def __init__(self, root: Node) -> None:
        self.root = root
        slot_of: dict[Node, int] = {}
        steps: list[PlanStep] = []
        leaf_slots: list[int] = []
        foldable = mergeable = False
        merge_keys: set = set()
        # One iterative post-order walk in exactly ``iter_nodes``' order
        # (parents pushed left to right, so visited right to left): slot
        # order is the order every engine consumes the RNG stream in.  A
        # node waiting for its parents sits under an ``_EMIT`` marker; a
        # node whose parents are all placed is emitted on the spot, which
        # is where ``iter_nodes`` would pop it next anyway.
        stack: list = [root]
        pop = stack.pop
        push = stack.append
        while stack:
            node = pop()
            if node is _EMIT:
                node = pop()
            elif node in slot_of:
                continue
            else:
                mark = len(stack)
                for p in node.parents:
                    if p not in slot_of:
                        push(p)
                if len(stack) != mark:
                    stack[mark:mark] = (node, _EMIT)
                    continue
            slot = len(steps)
            parents = node.parents
            kind = type(node)
            # Each step also feeds the optimizer's rewrite-candidate
            # facts: an inner node over point masses only is where
            # constant folding starts (or records an ApplyNode fold
            # barrier), and a repeated CSE key (``cse_key`` over operand
            # slots, inlined for the two operator kinds) is where a merge
            # starts.  With neither, every pass is the identity (see
            # optimize_plan).
            if kind is BinaryOpNode:
                a, b = parents
                sa = slot_of[a]
                sb = slot_of[b]
                parent_slots = (sa, sb)
                step = PlanStep(node, slot, parent_slots)
                if type(a) is PointMassNode and type(b) is PointMassNode:
                    foldable = True
                key = ("bin", node.op, sa, sb)
            elif kind is UnaryOpNode:
                (a,) = parents
                sa = slot_of[a]
                parent_slots = (sa,)
                step = PlanStep(node, slot, parent_slots)
                if type(a) is PointMassNode:
                    foldable = True
                key = ("un", node.op, sa)
            elif not parents:
                parent_slots = ()
                step = PlanStep(node, slot, parent_slots)
                leaf_slots.append(slot)
                key = cse_key(node, parent_slots) if kind is PointMassNode else None
            else:
                parent_slots = tuple([slot_of[p] for p in parents])
                step = PlanStep(node, slot, parent_slots)
                if kind is ApplyNode and not foldable:
                    foldable = all([type(p) is PointMassNode for p in parents])
                key = cse_key(node, parent_slots)
            if key is not None and not mergeable:
                if key in merge_keys:
                    mergeable = True
                else:
                    merge_keys.add(key)
            steps.append(step)
            slot_of[node] = slot
        self.steps: tuple[PlanStep, ...] = tuple(steps)
        self.slot_of = slot_of
        self.root_slot = slot_of[root]
        self.leaf_slots = tuple(leaf_slots)
        #: Some inner node has only point-mass operands (constant-fold
        #: has a sub-DAG to fold, or an ApplyNode barrier to record).
        self.foldable = foldable
        #: Two steps share a CSE merge key (same op over the same operand
        #: slots, or equal scalar point masses).
        self.mergeable = mergeable
        #: 0 for a raw lowering; set by :meth:`optimized` (and preserved
        #: through pickling) on plans produced by the optimizer pipeline.
        self.optimization_level = 0
        #: Compiler provenance trail: pass-by-pass
        #: :class:`~repro.core.optimizer.PassRecord` entries plus
        #: :class:`~repro.analysis.certify.CertificationRecord` entries
        #: from the static stream-safety certifier (rewrite + kernel).
        self.provenance: tuple = ()
        self._program = None
        self._structural = _UNSET
        self._optimized = None
        self._fused = None

    @property
    def program(self) -> tuple[tuple, ...]:
        """Specialized instruction tuples for the hot execution loop.

        Each entry front-loads everything a step needs — opcode, the bound
        callable, output slot, operand slots, and the node (for error
        reporting) — so engines dispatch without per-step attribute
        lookups.  Built on first use and cached on the plan: plans served
        by fused kernels never need it, and every tuple it would hold is
        one more object for the cyclic collector to traverse.
        """
        if self._program is None:
            entries = []
            for s in self.steps:
                if s.opcode == OP_BINARY:
                    a, b = s.parent_slots
                    entries.append((OP_BINARY, s.node.op, s.slot, a, b, s.node))
                elif s.opcode == OP_UNARY:
                    entries.append(
                        (OP_UNARY, s.node.op, s.slot, s.parent_slots[0], s.node)
                    )
                elif s.opcode == OP_SOURCE:
                    entries.append((OP_SOURCE, s.node.evaluate_batch, s.slot, s.node))
                else:
                    entries.append(
                        (
                            OP_GENERAL,
                            s.node.evaluate_batch,
                            s.slot,
                            s.parent_slots,
                            s.node,
                        )
                    )
            self._program = tuple(entries)
        return self._program

    # -- compiler pipeline ---------------------------------------------------

    @property
    def structural_hash(self) -> str | None:
        """Canonical structural key of this plan's shape (lazy, cached).

        ``None`` marks an opaque plan (lambdas, user sampling functions)
        that can never be shared structurally.  Computed through the
        process-global :class:`~repro.core.structural.StructuralCache`,
        so equal shapes across sessions resolve to the same key.  Nothing
        computes it at compile time: the first consumer that needs it
        (fused kernel cache, sample ledger, parallel payloads, service
        coalescing, the rewrite certifier) pays for the fingerprint, and
        plans that never meet one never hash.
        """
        if self._structural is _UNSET:
            key, hit = STRUCTURAL_CACHE.key_for(self)
            self._structural = key
            metrics = _metrics.active()
            if metrics is not None and key is not None:
                metrics.record_structural(hit)
        return self._structural

    def optimized(self, level: int = 2) -> "EvaluationPlan":
        """This plan lowered through the optimizer pipeline at ``level``.

        Cached per level; returns ``self`` when ``level`` is 0, when this
        plan is already at (or above) the requested level, or when no
        pass changes the graph.  See :mod:`repro.core.optimizer` for the
        pass order and the bit-identity contract.
        """
        if not level or self.optimization_level >= level:
            return self
        cache = self._optimized
        if cache is None:
            cache = self._optimized = {}
        plan = cache.get(level)
        if plan is None:
            from repro.core.optimizer import optimize_plan

            plan, records = optimize_plan(self, level)
            if plan is not self:
                plan.optimization_level = level
            plan.provenance = records
            cache[level] = plan
        return plan

    def certification_records(self) -> tuple:
        """Stream-safety :class:`CertificationRecord` entries in provenance.

        One ``stream-certify`` record per optimizer rewrite and one
        ``kernel-certify`` record per fused-kernel admission decision;
        empty for plans that were never optimized or fused.
        """
        return tuple(
            r for r in self.provenance
            if getattr(r, "subject", None) in (
                "optimizer-rewrite", "fused-kernel",
            )
        )

    # -- introspection ------------------------------------------------------

    @property
    def num_slots(self) -> int:
        return len(self.steps)

    @property
    def node_count(self) -> int:
        return len(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[PlanStep]:
        return iter(self.steps)

    def op_histogram(self) -> dict[str, int]:
        """Number of steps per node kind (useful for telemetry displays)."""
        hist: dict[str, int] = {}
        for step in self.steps:
            hist[step.kind] = hist.get(step.kind, 0) + 1
        return hist

    def __reduce__(self):
        # Plans serialise as their root graph and recompile on load: the
        # lowering is cheap and deterministic, and shipping the graph keeps
        # the payload small (no steps/program/bound methods).  This is what
        # lets ParallelEngine send a plan to worker processes once.  The
        # optimization level and structural hash travel along so an
        # optimized plan does not silently unpickle as a raw one (the
        # optimized *root* is shipped, so no pass re-runs on load) and
        # receivers key their per-shape caches identically to the sender.
        return (_rebuild_plan, (self.root, self.optimization_level, self.structural_hash))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<EvaluationPlan {self.num_slots} slots, root "
            f"{self.root.label!r} @ {self.root_slot}>"
        )


def _rebuild_plan(
    root: Node, optimization_level: int = 0, structural_hash=_UNSET
) -> "EvaluationPlan":
    """Unpickle target: recompile (and re-cache) the plan for ``root``.

    The sender's optimization level and structural key are re-seeded on
    the rebuilt plan: the shipped root already *is* the optimized root,
    so marking the level prevents engines from re-running the passes, and
    adopting the sender's structural key lets hash-keyed caches (fused
    kernels, worker-side plan caches) hit without re-fingerprinting.
    """
    plan = compile_plan(root)
    if structural_hash is not _UNSET:
        plan._structural = structural_hash
    if optimization_level and plan.optimization_level < optimization_level:
        plan.optimization_level = optimization_level
    return plan


# ---------------------------------------------------------------------------
# Plan cache: keyed on graph identity by storing the plan on the root node
# itself (``Node._compiled_plan``), so plan lifetime equals graph lifetime
# and nothing needs pinning.  A weak registry of planned roots supports the
# cache-wide operations.  Nodes are immutable after construction, so a
# cached plan can never go stale; the explicit invalidation path exists for
# exotic callers (e.g. a node class that mutates its distribution in place).
# ---------------------------------------------------------------------------

_PLANNED_ROOTS: "weakref.WeakSet[Node]" = weakref.WeakSet()


def compile_plan(
    root: Node,
    telemetry: PlanTelemetry | None = None,
    analyze: "Callable[[EvaluationPlan], object] | None" = None,
) -> EvaluationPlan:
    """Lower ``root``'s DAG into an :class:`EvaluationPlan`, cached per root.

    Repeated calls with the same root object return the same plan, which is
    what amortises graph traversal across the SPRT's repeated batch draws.

    ``analyze``, when given, is invoked once per *fresh* compile (never on
    cache hits) with the new plan — the hook
    :mod:`repro.analysis` uses to surface UNC101-class diagnostics exactly
    once per cached plan (see
    :meth:`~repro.core.conditionals.EvaluationConfig.enable_plan_analysis`).
    Its return value is ignored; exceptions propagate to the caller.
    """
    plan = root._compiled_plan
    metrics = _metrics.active()
    if plan is not None:
        if telemetry is not None:
            telemetry.plan_cache_hits += 1
        if metrics is not None:
            metrics.record_cache_hit()
        return plan
    with _trace.span("plan.compile", root=root.label) as span_attrs:
        plan = EvaluationPlan(root)
        span_attrs["slots"] = len(plan.steps)
    root._compiled_plan = plan
    _PLANNED_ROOTS.add(root)
    if telemetry is not None:
        telemetry.plans_compiled += 1
    if metrics is not None:
        metrics.record_compile()
    if analyze is not None:
        analyze(plan)
    return plan


def _invalidate_ledger(plan) -> None:
    """Drop sample-ledger entries derived from ``plan``, if the ledger is
    live.  Resolved through ``sys.modules`` so processes that never used
    the ledger (parallel workers, import-light tools) don't import it."""
    import sys

    ledger_mod = sys.modules.get("repro.core.ledger")
    if ledger_mod is not None and plan is not None:
        ledger_mod.LEDGER.invalidate_entries(plan)


def invalidate_plan(root: Node) -> bool:
    """Drop the cached plan for ``root``; returns whether one existed.

    Cached sample columns derived from the plan (the cross-query ledger,
    :mod:`repro.core.ledger`) are invalidated with it.
    """
    had = root._compiled_plan is not None
    if had:
        _invalidate_ledger(root._compiled_plan)
    root._compiled_plan = None
    _PLANNED_ROOTS.discard(root)
    return had


def clear_plan_cache() -> None:
    """Drop every cached plan (all future draws recompile).

    Ledger entries keyed by the dropped plans' shapes are dropped too.
    """
    for node in list(_PLANNED_ROOTS):
        if node._compiled_plan is not None:
            _invalidate_ledger(node._compiled_plan)
        node._compiled_plan = None
    _PLANNED_ROOTS.clear()


def plan_cache_size() -> int:
    """Number of live cached plans (diagnostics)."""
    return sum(1 for node in _PLANNED_ROOTS if node._compiled_plan is not None)
