"""Stage 1 of the plan compiler: graph-rewrite optimizer passes.

:func:`optimize_plan` lowers an :class:`~repro.core.plan.EvaluationPlan`
through a fixed pipeline of rewrite passes and returns the optimized plan
together with a pass-by-pass :class:`PassRecord` provenance trail:

1. **constant-fold** — a sub-DAG built only from point masses combined by
   deterministic operators (the shape rule UNC105 diagnoses) is evaluated
   once at compile time and replaced by a single
   :class:`~repro.core.graph.PointMassNode` carrying the computed value
   (dtype-preserving: the folded value is the ``numpy`` scalar the
   original chain would have produced).  ``ApplyNode`` is a fold barrier:
   lifted user functions may be impure, so folding one could change
   observable behaviour; such sub-DAGs are *rejected* and recorded.
2. **cse** — common-subexpression elimination by structure: deterministic
   inner nodes (binary/unary operators with identical op identity,
   component projections, equal scalar point masses) whose rewritten
   parents are the *same objects* merge into one node.  Stochastic nodes
   never merge — merging two ``Gaussian`` leaves would turn independent
   draws into one shared draw, changing both the distribution and the
   consumed RNG stream.
3. **dead-slot-elim** — the optimized graph is re-lowered from its root,
   which retains exactly the reachable slots; this pass records the net
   slot reduction and enforces the safety gate below.

Bit-identity contract
---------------------

Every accepted rewrite preserves the RNG stream consumed at execution
time sample for sample: folded sub-DAGs and merged deterministic nodes
never touch the generator, and the **leaf-order guard** verifies that the
optimized plan evaluates the *same stochastic source objects in the same
slot order* as the original.  An optimization that would drop or reorder
a stochastic source is rejected outright — ``optimize_plan`` returns the
original plan with the rejection recorded in provenance — rather than
silently applied.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np

from repro.core.graph import (
    ApplyNode,
    BinaryOpNode,
    LeafNode,
    Node,
    PointMassNode,
    UnaryOpNode,
    iter_nodes,
)

#: Mirrors the engines' IEEE-semantics suppression so folding ``1/0`` at
#: compile time warns exactly as much as evaluating it per batch (not at
#: all); defined locally to keep this module import-independent of
#: :mod:`repro.core.engines`.
_ERRSTATE = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}

_SCALAR_TYPES = (int, float, bool, np.integer, np.floating, np.bool_)


@dataclasses.dataclass(frozen=True)
class PassRecord:
    """Provenance for one optimizer pass over one plan."""

    #: Pass name: ``"constant-fold"``, ``"cse"``, ``"dead-slot-elim"``.
    name: str
    #: Node counts on entry/exit of the pass (graph nodes, == plan slots).
    nodes_before: int
    nodes_after: int
    #: Human-readable notes for each rewrite the pass performed.
    rewrites: tuple[str, ...] = ()
    #: Rewrites the pass declined, with reasons (fold barriers, guards).
    rejected: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "pass": self.name,
            "nodes_before": self.nodes_before,
            "nodes_after": self.nodes_after,
            "rewrites": list(self.rewrites),
            "rejected": list(self.rejected),
        }


def resolve_level(optimize) -> int:
    """Normalise an ``EvaluationConfig.optimize`` value to a pass level.

    ``False``/``0``/``None`` → 0 (off), ``1`` → constant folding + dead
    slot elimination, ``True``/``2`` (or higher) → plus CSE.
    """
    if optimize is True:
        return 2
    if not optimize:
        return 0
    return min(int(optimize), 2)


def is_stochastic(node: Node) -> bool:
    """Does evaluating ``node`` itself draw from the RNG stream?

    Point masses never draw; distribution leaves always do.  Unknown
    parentless node kinds are treated as stochastic (conservative), and
    unknown *inner* kinds are handled by the passes themselves (never
    folded, never merged).
    """
    return not node.parents and type(node) is not PointMassNode


def _clone_with_parents(node: Node, parents: tuple[Node, ...]) -> Node:
    """A copy of ``node`` rewired to ``parents`` (plan cache not copied)."""
    clone = copy.copy(node)
    clone.parents = parents
    return clone


def _rebuild(root: Node, replacement: "dict[int, Node]") -> Node:
    """Rebuild the graph from ``root`` applying ``replacement`` (id-keyed).

    Nodes outside the replacement map are kept by identity unless a parent
    changed, in which case they are cloned with rewired parents — the
    original graph is never mutated.
    """
    new_of: dict[int, Node] = {}
    for node in iter_nodes(root):
        target = replacement.get(id(node))
        if target is not None:
            new_of[id(node)] = target
            continue
        new_parents = tuple(new_of[id(p)] for p in node.parents)
        if new_parents == node.parents:
            new_of[id(node)] = node
        else:
            new_of[id(node)] = _clone_with_parents(node, new_parents)
    return new_of[id(root)]


# ---------------------------------------------------------------------------
# Pass 1: constant folding.
# ---------------------------------------------------------------------------


def _fold_value(node: Node):
    """Evaluate a constant sub-DAG once (n=1) and return its scalar value.

    Uses the nodes' own ``evaluate_batch`` so the folded value has exactly
    the dtype the runtime chain would produce (``np.full`` with a numpy
    scalar reproduces it downstream).
    """
    memo: dict[int, np.ndarray] = {}

    def ev(nd: Node):
        out = memo.get(id(nd))
        if out is None:
            vals = [ev(p) for p in nd.parents]
            out = nd.evaluate_batch(vals, 1, None)
            memo[id(nd)] = out
        return out

    with np.errstate(**_ERRSTATE):
        return np.asarray(ev(node))[0]


def constant_fold(root: Node) -> tuple[Node, PassRecord]:
    """Replace maximal point-mass-only sub-DAGs with single point masses."""
    order = list(iter_nodes(root))
    before = len(order)
    constant: dict[int, bool] = {}
    rejected: list[str] = []
    for node in order:
        kind = type(node)
        if kind is PointMassNode:
            constant[id(node)] = True
        elif kind in (BinaryOpNode, UnaryOpNode) and node.parents:
            constant[id(node)] = all(constant.get(id(p), False) for p in node.parents)
        else:
            if (
                kind is ApplyNode
                and node.parents
                and all(constant.get(id(p), False) for p in node.parents)
            ):
                rejected.append(
                    f"apply node {node.label!r} has constant operands but "
                    "lifted functions may be impure; not folded"
                )
            constant[id(node)] = False
    consumers: dict[int, list[Node]] = {}
    for node in order:
        for parent in node.parents:
            consumers.setdefault(id(parent), []).append(node)
    replacement: dict[int, Node] = {}
    rewrites: list[str] = []
    for node in order:
        if not constant.get(id(node)) or not node.parents:
            continue
        used_by = consumers.get(id(node), ())
        if used_by and all(constant.get(id(c), False) for c in used_by):
            continue  # an interior constant; its maximal ancestor folds
        try:
            value = _fold_value(node)
        except Exception as exc:  # exotic operand types: leave it in place
            rejected.append(
                f"constant sub-DAG at {node.label!r} failed compile-time "
                f"evaluation ({type(exc).__name__}); not folded"
            )
            continue
        replacement[id(node)] = PointMassNode(value)
        rewrites.append(f"folded constant sub-DAG at {node.label!r} -> {value!r}")
    new_root = _rebuild(root, replacement) if replacement else root
    after = sum(1 for _ in iter_nodes(new_root)) if replacement else before
    return new_root, PassRecord(
        "constant-fold", before, after, tuple(rewrites), tuple(rejected)
    )


# ---------------------------------------------------------------------------
# Pass 2: common-subexpression elimination.
# ---------------------------------------------------------------------------


def cse_key(node: Node, operands: tuple):
    """Merge key for deterministic nodes; ``None`` = never merge.

    ``operands`` identifies the node's inputs: the CSE pass passes the ids
    of the *rewritten* parents, so only true common subexpressions over
    the same inputs merge; plan lowering passes operand slots to find
    plans where the pass has something to merge.
    """
    kind = type(node)
    if kind is BinaryOpNode:
        return ("bin", node.op, operands[0], operands[1])
    if kind is UnaryOpNode:
        return ("un", node.op, operands[0])
    if kind is PointMassNode:
        value = node.value
        if isinstance(value, _SCALAR_TYPES):
            return ("pm", type(value), value.item() if hasattr(value, "item") else value)
        return None
    if kind.__name__ == "ComponentNode" and len(operands) == 1:
        index = getattr(node, "index", None)
        if index is not None:
            return ("comp", int(index), operands[0])
    # LeafNode (stochastic), ApplyNode (possibly impure) and unknown node
    # kinds never merge.
    return None


def eliminate_common_subexpressions(root: Node) -> tuple[Node, PassRecord]:
    """Merge structurally identical deterministic nodes over shared inputs."""
    order = list(iter_nodes(root))
    before = len(order)
    canon: dict[object, Node] = {}
    new_of: dict[int, Node] = {}
    rewrites: list[str] = []
    for node in order:
        new_parents = tuple(new_of[id(p)] for p in node.parents)
        key = cse_key(node, tuple(map(id, new_parents)))
        if key is not None:
            existing = canon.get(key)
            if existing is not None:
                new_of[id(node)] = existing
                rewrites.append(
                    f"merged duplicate {type(node).__name__} {node.label!r}"
                )
                continue
        if new_parents == node.parents:
            rebuilt = node
        else:
            rebuilt = _clone_with_parents(node, new_parents)
        if key is not None:
            canon[key] = rebuilt
        new_of[id(node)] = rebuilt
    new_root = new_of[id(root)]
    after = sum(1 for _ in iter_nodes(new_root)) if rewrites else before
    return new_root, PassRecord("cse", before, after, tuple(rewrites))


# ---------------------------------------------------------------------------
# The pipeline.
# ---------------------------------------------------------------------------


def optimize_plan(plan, level: int = 2):
    """Run the optimizer pipeline over ``plan`` at ``level``.

    Returns ``(optimized_plan, records)``.  ``level`` 0 is the identity;
    1 runs constant folding (+ the dead-slot rebuild); 2 adds CSE.  When
    no pass changes the graph — or when the leaf-order safety guard
    rejects the rewritten graph — the *original* plan object is returned,
    so callers can detect no-ops with ``is``.

    Plans whose lowering found nothing to fold (``plan.foldable``) and,
    at level 2, nothing to merge (``plan.mergeable``) skip the passes,
    the re-lowering and the certifier: every pass would be the identity,
    so the plan comes back with the provenance the pipeline would give.
    """
    if not plan.foldable and not (level >= 2 and plan.mergeable):
        n = len(plan.steps)
        records = [PassRecord("constant-fold", n, n)] if level >= 1 else []
        if level >= 2:
            records.append(PassRecord("cse", n, n))
        records.append(PassRecord("dead-slot-elim", n, n))
        return plan, tuple(records)
    return _run_passes(plan, level)


def _run_passes(plan, level: int):
    """The full pipeline behind :func:`optimize_plan` (no early-out)."""
    from repro.core.plan import EvaluationPlan

    records: list[PassRecord] = []
    root = plan.root
    if level >= 1:
        root, record = constant_fold(root)
        records.append(record)
    if level >= 2:
        root, record = eliminate_common_subexpressions(root)
        records.append(record)
    if root is plan.root:
        records.append(
            PassRecord("dead-slot-elim", len(plan.steps), len(plan.steps))
        )
        return plan, tuple(records)
    optimized = EvaluationPlan(root)
    # Safety gate: the optimized plan must evaluate the same stochastic
    # source objects in the same order, or the RNG stream would diverge
    # from the reference engines.  The passes above preserve this by
    # construction; the static stream-safety certifier
    # (repro.analysis.certify) proves it per rewrite, emitting a
    # CertificationRecord into provenance — an uncertifiable rewrite is
    # rejected with UNC401, not silently applied.
    from repro.analysis.certify import certify_rewrite

    certificate = certify_rewrite(plan, optimized)
    if not certificate.certified:
        records.append(
            PassRecord(
                "dead-slot-elim",
                len(plan.steps),
                len(plan.steps),
                rejected=(
                    "optimized graph would reorder or drop stochastic "
                    "sources; optimization rejected to preserve the RNG "
                    "stream",
                ),
            )
        )
        records.append(certificate)
        return plan, tuple(records)
    records.append(
        PassRecord(
            "dead-slot-elim",
            len(plan.steps),
            len(optimized.steps),
            rewrites=(
                f"{len(plan.steps) - len(optimized.steps)} slot(s) "
                "eliminated by re-lowering from the rewritten root",
            ),
        )
    )
    records.append(certificate)
    return optimized, tuple(records)


__all__ = [
    "PassRecord",
    "constant_fold",
    "eliminate_common_subexpressions",
    "is_stochastic",
    "optimize_plan",
    "resolve_level",
]
