"""Canonical structural hashing of evaluation graphs.

Stage 2 of the plan compiler: two graphs that describe the *same shape*
of Bayesian network — identical op kinds, arities, distribution
parameters and sharing topology, regardless of which session built the
node objects — get the same **structural key**.  The process-wide
:class:`StructuralCache` is the registry that hands out these keys: an
interned map from fingerprint to key (a bounded LRU of shapes; it holds
no plans).  The keys index the fused-kernel cache of
:mod:`repro.core.fused`, the sample ledger, parallel worker payloads and
service coalescing, so many sessions compiling the paper's
``(y + x) + x``-shaped GPS plan share one generated kernel.  A plan's key
is its root's key, computed on first use by one of those consumers
(``EvaluationPlan.structural_hash``), never at compile time.  A graph
that has not been lowered yet is keyed the same way
(``graph_structural_hash`` in :mod:`repro.core.plan`): service
coalescing keys every request so and compiles only the plan each group
runs.

Canonical form
--------------

A fingerprint (:func:`graph_fingerprint`) is the sequence of per-node
tokens in ``iter_nodes`` post-order, which is the slot order of the
lowered plan.  Each token records the node kind, its operation identity
(``module.qualname`` for named functions, the ufunc name for ufuncs),
its distribution's :meth:`~repro.dists.base.Distribution.structural_params`
for leaves, the point-mass value for constants, and the *parent slot
indices* — which is what makes the fingerprint capture sharing: ``x + x``
(one leaf read twice) and ``x1 + x2`` (two leaves) produce different
parent-index sequences even though the node kinds agree.

Anything whose behaviour cannot be proven equal from structure alone —
lambdas, closures, bound methods, ``FunctionDistribution``, hardened
``ResilientSource`` wrappers, unknown node kinds — makes the graph
**opaque**: :func:`graph_fingerprint` returns ``None``, the shape never
enters the structural cache, and downstream consumers (fused codegen,
worker-side payload sharing) fall back to per-plan behaviour.

Interning and collisions
------------------------

A key is the 128-bit BLAKE2b digest of the fingerprint's canonical
repr.  The cache interns fingerprints: a shape seen before gets its key
from a dict lookup (the fingerprint tuple's hash plus full equality), so
the repr and the digest are computed once per shape, on the miss that
registers it.  Token values are tagged strings and ints (floats through
their ``repr``), so tuple equality is repr equality: ``-0.0`` and ``0.0``
stay apart and a NaN parameter equals itself.  The digest alone is never
trusted either: when a new fingerprint's digest is already taken by a
different fingerprint (a true hash collision), the newcomer gets a salted
variant key (``<digest>#1``, ``#2``, ...) so colliding shapes never share
cache entries or kernels.
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
    iter_nodes,
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
    if type(value) is float:  # the common case: leaf params, constants
        return ("f", repr(value))
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
# Graph fingerprints.
# ---------------------------------------------------------------------------

_COMPONENT_NODE = None


def _component_node_type():
    global _COMPONENT_NODE
    if _COMPONENT_NODE is None:
        from repro.core.joint import ComponentNode

        _COMPONENT_NODE = ComponentNode
    return _COMPONENT_NODE


def node_token(node: Node, parent_slots: tuple[int, ...]) -> tuple:
    """Canonical token for one node (raises ``StructuralOpaque``)."""
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


def graph_fingerprint(root: Node) -> tuple | None:
    """Canonical fingerprint of the graph under ``root``, or ``None``
    when opaque.

    Isomorphic DAGs — same shape built from fresh node objects — produce
    equal fingerprints; differing distribution parameters, op identities,
    point-mass values or sharing topology produce different ones.  Nodes
    are visited in ``iter_nodes`` post-order, the slot order of the
    :class:`~repro.core.plan.EvaluationPlan` the graph lowers to, so
    parent indices are that plan's parent slots.
    """
    slot_of: dict[Node, int] = {}
    tokens: list[tuple] = []
    try:
        for node in iter_nodes(root):
            slot_of[node] = len(tokens)
            tokens.append(
                node_token(node, tuple([slot_of[p] for p in node.parents]))
            )
    except StructuralOpaque:
        return None
    tokens.append(("root", len(tokens) - 1))
    return tuple(tokens)


def fingerprint_digest(fingerprint: tuple) -> str:
    """128-bit BLAKE2b hex digest of a fingerprint's canonical repr."""
    return hashlib.blake2b(
        repr(fingerprint).encode("utf-8"), digest_size=16
    ).hexdigest()


# ---------------------------------------------------------------------------
# The structural cache.
# ---------------------------------------------------------------------------


class StructuralCache:
    """Bounded LRU of interned shape fingerprints and their keys.

    ``key_for(root)`` returns ``(key, hit)`` for the graph under the
    ``Node`` ``root``: the structural key (``None`` for opaque graphs,
    which are never cached) and whether a
    structurally *equal* shape was already registered.  A hit is one dict
    lookup on the fingerprint; the digest is computed on a miss only, and
    a digest already taken by a different fingerprint gets a salted
    variant key.
    """

    def __init__(self, limit: int = 512) -> None:
        self.limit = int(limit)
        self._lock = threading.Lock()
        # fingerprint -> (key, digest): the interned shapes.
        self._keys: dict[tuple, tuple[str, str]] = {}
        # digest -> fingerprints sharing that digest, in LRU order.
        self._digests: OrderedDict[str, list[tuple]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.collisions = 0

    def key_for(self, root: Node) -> tuple[str | None, bool]:
        fingerprint = graph_fingerprint(root)
        if fingerprint is None:
            return None, False
        with self._lock:
            interned = self._keys.get(fingerprint)
            if interned is not None:
                key, digest = interned
                self._digests.move_to_end(digest)
                self.hits += 1
                return key, True
            self.misses += 1
            digest = fingerprint_digest(fingerprint)
            variants = self._digests.get(digest)
            if variants is None:
                key = digest
                self._digests[digest] = [fingerprint]
                while len(self._digests) > self.limit:
                    for evicted in self._digests.popitem(last=False)[1]:
                        del self._keys[evicted]
            else:
                # True digest collision: same digest, different structure.
                key = f"{digest}#{len(variants)}"
                variants.append(fingerprint)
                self._digests.move_to_end(digest)
                self.collisions += 1
            self._keys[fingerprint] = (key, digest)
            return key, False

    def __len__(self) -> int:
        with self._lock:
            return len(self._keys)

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._keys),
                "hits": self.hits,
                "misses": self.misses,
                "collisions": self.collisions,
                "limit": self.limit,
            }

    def clear(self) -> None:
        with self._lock:
            self._keys.clear()
            self._digests.clear()
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
    "graph_fingerprint",
    "node_token",
    "structural_cache_stats",
]
