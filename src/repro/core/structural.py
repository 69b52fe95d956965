"""Canonical structural hashing of evaluation plans.

Stage 2 of the plan compiler: two plans that describe the *same shape* of
Bayesian network — identical op kinds, arities, distribution parameters
and sharing topology, regardless of which session built the node objects —
get the same **structural hash**.  The process-wide
:class:`StructuralCache` is the registry that hands out these keys (a
bounded LRU of shapes; it holds no plans).  The keys index the
fused-kernel cache of :mod:`repro.core.fused`, the sample ledger,
parallel worker payloads and service coalescing, so many sessions
compiling the paper's ``(y + x) + x``-shaped GPS plan share one
generated kernel.  A plan's key is computed on first use by one of
those consumers (``EvaluationPlan.structural_hash``), never at compile
time.

Canonical form
--------------

A plan's fingerprint is the sequence of per-step tokens in slot (topo)
order.  Each token records the node kind, its operation identity
(``module.qualname`` for named functions, the ufunc name for ufuncs),
its distribution's :meth:`~repro.dists.base.Distribution.structural_params`
for leaves, the point-mass value for constants, and the *parent slot
indices* — which is what makes the fingerprint capture sharing: ``x + x``
(one leaf read twice) and ``x1 + x2`` (two leaves) produce different
parent-index sequences even though the node kinds agree.

Anything whose behaviour cannot be proven equal from structure alone —
lambdas, closures, bound methods, ``FunctionDistribution``, hardened
``ResilientSource`` wrappers, unknown node kinds — makes the plan
**opaque**: :func:`plan_fingerprint` returns ``None``, the plan never
enters the structural cache, and downstream consumers (fused codegen,
worker-side payload sharing) fall back to per-plan behaviour.

Collisions
----------

The digest is a 128-bit BLAKE2b over the fingerprint's canonical repr.
The cache nevertheless refuses to trust the digest alone: on a digest
hit it compares the stored fingerprint for full structural equality and,
if the fingerprints differ (a true hash collision), assigns the newcomer
a salted variant key (``<digest>#1``, ``#2``, ...) so colliding shapes
never share cache entries or kernels.
"""

from __future__ import annotations

import hashlib
import threading
import types
from collections import OrderedDict

import numpy as np

from repro.core.graph import (
    ApplyNode,
    BinaryOpNode,
    LeafNode,
    Node,
    PointMassNode,
    UnaryOpNode,
)
from repro.dists.base import Distribution, Support


class StructuralOpaque(Exception):
    """Raised while fingerprinting when a value has no canonical form."""


# ---------------------------------------------------------------------------
# Canonicalisation of parameter values.
# ---------------------------------------------------------------------------


def canonical_value(value):
    """A hashable, repr-stable token for ``value``, or ``StructuralOpaque``.

    Floats canonicalise through ``repr`` (exact round-trip, stable across
    processes); arrays through a content digest; nested distributions
    recurse.  Callables and unknown objects are opaque — equality of
    behaviour cannot be derived from structure.
    """
    if value is None:
        return ("none",)
    if isinstance(value, (bool, np.bool_)):
        return ("b", bool(value))
    if isinstance(value, (int, np.integer)):
        return ("i", int(value))
    if isinstance(value, (float, np.floating)):
        return ("f", repr(float(value)))
    if isinstance(value, str):
        return ("s", value)
    if isinstance(value, (tuple, list)):
        return ("t", tuple(canonical_value(v) for v in value))
    if isinstance(value, dict):
        return (
            "d",
            tuple(
                (str(k), canonical_value(v)) for k, v in sorted(value.items())
            ),
        )
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            return ("t", tuple(canonical_value(v) for v in value.ravel().tolist()))
        data = np.ascontiguousarray(value)
        digest = hashlib.blake2b(data.tobytes(), digest_size=16).hexdigest()
        return ("a", value.shape, str(value.dtype), digest)
    if isinstance(value, Support):
        return ("sup", repr(float(value.lower)), repr(float(value.upper)))
    if isinstance(value, Distribution):
        return dist_token(value)
    raise StructuralOpaque(
        f"no canonical form for {type(value).__name__} value {value!r}"
    )


def callable_token(fn) -> tuple:
    """Identity token for an operation: ``module.qualname`` or ufunc name.

    Only *named, closure-free, module-level* callables are shareable —
    two sessions resolving ``operator.add`` or ``numpy.sqrt`` get the
    same behaviour from the same token.  Lambdas, local functions,
    closures and bound methods are opaque.
    """
    if isinstance(fn, np.ufunc):
        return ("ufunc", fn.__name__)
    if isinstance(fn, (types.FunctionType, types.BuiltinFunctionType)):
        module = getattr(fn, "__module__", None)
        qualname = getattr(fn, "__qualname__", "")
        if (
            not module
            or not qualname
            or "<lambda>" in qualname
            or "<locals>" in qualname
            or getattr(fn, "__closure__", None)
        ):
            raise StructuralOpaque(f"callable {fn!r} has no stable identity")
        return ("fn", module, qualname)
    raise StructuralOpaque(f"callable {fn!r} has no stable identity")


def dist_token(dist: Distribution) -> tuple:
    """Structural token for a leaf distribution (kind + canonical params)."""
    params = dist.structural_params()
    if params is None:
        raise StructuralOpaque(
            f"{type(dist).__name__} declares itself structurally opaque"
        )
    items = tuple(
        (str(k), canonical_value(v)) for k, v in sorted(params.items())
    )
    return ("dist", type(dist).__module__, type(dist).__qualname__, items)


# ---------------------------------------------------------------------------
# Plan fingerprints.
# ---------------------------------------------------------------------------

_COMPONENT_NODE = None


def _component_node_type():
    global _COMPONENT_NODE
    if _COMPONENT_NODE is None:
        from repro.core.joint import ComponentNode

        _COMPONENT_NODE = ComponentNode
    return _COMPONENT_NODE


def node_token(node: Node, parent_slots: tuple[int, ...]) -> tuple:
    """Canonical token for one plan step (raises ``StructuralOpaque``)."""
    kind = type(node)
    if kind is LeafNode:
        return ("leaf", dist_token(node.dist))
    if kind is PointMassNode:
        return ("pm", canonical_value(node.value))
    if kind is BinaryOpNode:
        return ("bin", node.label, callable_token(node.op), parent_slots)
    if kind is UnaryOpNode:
        return ("un", node.label, callable_token(node.op), parent_slots)
    if kind is ApplyNode:
        return (
            "apply",
            bool(node.vectorized),
            callable_token(node.fn),
            parent_slots,
        )
    if kind is _component_node_type():
        return ("comp", int(node.index), parent_slots)
    raise StructuralOpaque(f"unknown node kind {kind.__name__}")


def plan_fingerprint(plan) -> tuple | None:
    """Canonical fingerprint of ``plan``, or ``None`` when opaque.

    Isomorphic DAGs — same shape built from fresh node objects — produce
    equal fingerprints; differing distribution parameters, op identities,
    point-mass values or sharing topology produce different ones.
    """
    try:
        tokens = tuple(
            node_token(step.node, step.parent_slots) for step in plan.steps
        )
    except StructuralOpaque:
        return None
    return tokens + (("root", plan.root_slot),)


def fingerprint_digest(fingerprint: tuple) -> str:
    """128-bit BLAKE2b hex digest of a fingerprint's canonical repr."""
    return hashlib.blake2b(
        repr(fingerprint).encode("utf-8"), digest_size=16
    ).hexdigest()


# ---------------------------------------------------------------------------
# The structural cache.
# ---------------------------------------------------------------------------


class StructuralCache:
    """Bounded LRU of plan shapes keyed by structural digest.

    ``key_for(plan)`` returns ``(key, hit)``: the plan's structural key
    (``None`` for opaque plans, which are never cached) and whether a
    structurally *equal* plan was already registered.  Digest collisions
    fall back to full fingerprint equality before any reuse is reported;
    genuinely colliding shapes receive salted variant keys.
    """

    def __init__(self, limit: int = 512) -> None:
        self.limit = int(limit)
        self._lock = threading.Lock()
        # digest -> list of (fingerprint, key) variants sharing that digest.
        self._entries: OrderedDict[str, list[tuple[tuple, str]]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.collisions = 0

    def key_for(self, plan) -> tuple[str | None, bool]:
        fingerprint = plan_fingerprint(plan)
        if fingerprint is None:
            return None, False
        digest = fingerprint_digest(fingerprint)
        with self._lock:
            variants = self._entries.get(digest)
            if variants is None:
                self._entries[digest] = [(fingerprint, digest)]
                self.misses += 1
                while len(self._entries) > self.limit:
                    self._entries.popitem(last=False)
                return digest, False
            self._entries.move_to_end(digest)
            for stored, key in variants:
                if stored == fingerprint:
                    self.hits += 1
                    return key, True
            # True digest collision: same digest, different structure.
            key = f"{digest}#{len(variants)}"
            variants.append((fingerprint, key))
            self.collisions += 1
            self.misses += 1
            return key, False

    def __len__(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._entries.values())

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": sum(len(v) for v in self._entries.values()),
                "hits": self.hits,
                "misses": self.misses,
                "collisions": self.collisions,
                "limit": self.limit,
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.collisions = 0


#: Process-global key registry behind ``EvaluationPlan.structural_hash``.
STRUCTURAL_CACHE = StructuralCache()


def structural_cache_stats() -> dict:
    """Hit/miss/collision counters of the process-global structural cache."""
    return STRUCTURAL_CACHE.stats()


def clear_structural_cache() -> None:
    """Drop every registered plan shape (counters reset too)."""
    STRUCTURAL_CACHE.clear()


__all__ = [
    "STRUCTURAL_CACHE",
    "StructuralCache",
    "StructuralOpaque",
    "callable_token",
    "canonical_value",
    "clear_structural_cache",
    "dist_token",
    "fingerprint_digest",
    "node_token",
    "plan_fingerprint",
    "structural_cache_stats",
]
