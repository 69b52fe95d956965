"""Property tests for structural plan hashing (stage 2 of the compiler).

Contract: two plans get the same structural key iff their programs are
interchangeable — same op kinds, arities, distribution parameters, and
topology — and plans containing anything whose sampling behaviour the
hash cannot capture (lambdas, closures, stateful sources) are opaque.
"""

import numpy as np
import pytest

import repro.core.structural as structural_mod
from repro.core.plan import compile_plan
from repro.core.structural import (
    StructuralCache,
    canonical_value,
    clear_structural_cache,
    graph_fingerprint,
    structural_cache_stats,
)
from repro.core.uncertain import Uncertain
from repro.dists.exponential import Exponential
from repro.dists.gaussian import Gaussian
from repro.dists.uniform import Uniform


#: The one digest every fingerprint gets when a collision is simulated.
COLLIDING_DIGEST = "c0" * 16


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_structural_cache()
    yield
    clear_structural_cache()


def gps_speed(mu=1.5):
    a = Uncertain(Gaussian(mu, 0.3))
    b = Uncertain(Gaussian(mu + 1.0, 0.4))
    d = b - a
    return (d * d) / Uncertain(Uniform(0.5, 2.0)) + 1.0


class TestHashEquality:
    def test_isomorphic_plans_hash_equal(self):
        p1 = compile_plan(gps_speed().node)
        p2 = compile_plan(gps_speed().node)
        assert p1.root is not p2.root
        assert p1.structural_hash is not None
        assert p1.structural_hash == p2.structural_hash

    def test_hash_is_stable_across_recompiles(self):
        u = gps_speed()
        first = compile_plan(u.node).structural_hash
        assert compile_plan(u.node).structural_hash == first

    def test_differing_dist_params_differ(self):
        p1 = compile_plan(gps_speed(mu=1.5).node)
        p2 = compile_plan(gps_speed(mu=2.5).node)
        assert p1.structural_hash != p2.structural_hash

    def test_differing_dist_family_differs(self):
        g = Uncertain(Gaussian(1.0, 1.0)) + 1.0
        e = Uncertain(Exponential(1.0)) + 1.0
        assert (
            compile_plan(g.node).structural_hash
            != compile_plan(e.node).structural_hash
        )

    def test_differing_topology_differs(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        shared = compile_plan((x + x).node)
        y1, y2 = Uncertain(Gaussian(0.0, 1.0)), Uncertain(Gaussian(0.0, 1.0))
        independent = compile_plan((y1 + y2).node)
        assert shared.structural_hash != independent.structural_hash

    def test_differing_op_differs(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        assert (
            compile_plan((x + 1.0).node).structural_hash
            != compile_plan((x - 1.0).node).structural_hash
        )

    def test_point_mass_value_is_structural(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        assert (
            compile_plan((x + 2.0).node).structural_hash
            != compile_plan((x + 3.0).node).structural_hash
        )


class TestOpacity:
    def test_lambda_apply_is_opaque(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        y = x.map(lambda v: v * 2, vectorized=True)
        assert compile_plan(y.node).structural_hash is None

    def test_ufunc_apply_is_hashable(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        y = (x * x).map(np.sqrt, vectorized=True)
        assert compile_plan(y.node).structural_hash is not None

    def test_opaque_plans_do_not_pollute_the_cache(self):
        x = Uncertain(Gaussian(0.0, 1.0))
        compile_plan(x.map(lambda v: v, vectorized=True).node)
        assert structural_cache_stats()["entries"] == 0


class TestCollisionHandling:
    def test_hit_requires_full_fingerprint_equality(self):
        cache = StructuralCache()
        p1 = compile_plan(gps_speed(mu=1.5).node)
        key1, hit1 = cache.key_for(p1.root)
        assert not hit1
        # Another plan with an equal fingerprint hits the same key only
        # after the stored fingerprint compares equal in full.
        p2 = compile_plan(gps_speed(mu=1.5).node)
        key2, hit2 = cache.key_for(p2.root)
        assert (key2, hit2) == (key1, True)

    def test_true_digest_collision_gets_salted_key(self, monkeypatch):
        # Simulate a BLAKE2b collision: every fingerprint gets the same
        # digest.  The cache must notice that the fingerprints differ and
        # salt the newcomer's key rather than alias it.
        monkeypatch.setattr(structural_mod, "fingerprint_digest",
                            lambda fingerprint: COLLIDING_DIGEST)
        cache = StructuralCache()
        key1, hit1 = cache.key_for(gps_speed(mu=1.5).node)
        assert (key1, hit1) == (COLLIDING_DIGEST, False)
        key1b, hit1b = cache.key_for(gps_speed(mu=2.5).node)
        assert key1b == f"{key1}#1"
        assert not hit1b
        assert cache.stats()["collisions"] == 1
        # The salted variant is now registered: the same shape hits it
        # and the first shape keeps its own key.
        assert cache.key_for(gps_speed(mu=2.5).node) == (key1b, True)
        assert cache.key_for(gps_speed(mu=1.5).node) == (key1, True)
        assert cache.stats()["collisions"] == 1

    @pytest.mark.parametrize("collide", [False, True], ids=["blake2b", "one-digest"])
    @pytest.mark.parametrize(
        "a, b", [(0.0, -0.0), (float("nan"), 0.0), (float("nan"), -0.0)],
        ids=["zero-vs-negzero", "nan-vs-zero", "nan-vs-negzero"])
    def test_equal_comparing_or_nan_params_never_alias(
            self, monkeypatch, collide, a, b):
        # 0.0 == -0.0 (with equal hashes) and nan != nan: an interned
        # fingerprint holding raw floats would alias the first pair and
        # never hit the second.  Keys must tell both apart from every
        # other shape and stay stable for the same shape.
        if collide:
            monkeypatch.setattr(structural_mod, "fingerprint_digest",
                                lambda fingerprint: COLLIDING_DIGEST)
        cache = StructuralCache()

        def shapes(v):
            x = Uncertain(Gaussian(0.0, 1.0))
            return [x + v, Uncertain(Gaussian(v, 1.0)) * 2.0]

        for first, second in zip(shapes(a), shapes(b)):
            key_a, _ = cache.key_for(first.node)
            key_b, _ = cache.key_for(second.node)
            assert key_a != key_b
        for value in (a, b):
            again = shapes(value)
            keys = [cache.key_for(u.node) for u in again]
            plan_keys = [cache.key_for(compile_plan(u.node).root) for u in again]
            assert all(hit for _, hit in keys + plan_keys)
            assert [k for k, _ in keys] == [k for k, _ in plan_keys]
        assert cache.stats()["entries"] == 4

    def test_reuse_requires_identical_fingerprints(self):
        p1 = compile_plan(gps_speed(mu=1.5).node)
        p2 = compile_plan(gps_speed(mu=2.0).node)
        assert graph_fingerprint(p1.root) != graph_fingerprint(p2.root)
        assert p1.structural_hash != p2.structural_hash


class TestCacheBounds:
    def test_lru_eviction_respects_limit(self):
        cache = StructuralCache(limit=4)
        for i in range(10):
            plan = compile_plan((Uncertain(Gaussian(float(i), 1.0)) + float(i)).node)
            cache.key_for(plan.root)
        assert len(cache) <= 4

    def test_global_stats_shape(self):
        compile_plan(gps_speed().node)
        stats = structural_cache_stats()
        assert set(stats) >= {"entries", "hits", "misses", "collisions"}


class TestCanonicalValues:
    def test_scalars_and_arrays_round_trip(self):
        assert canonical_value(1.5) == canonical_value(1.5)
        assert canonical_value(np.float64(1.5)) == canonical_value(1.5)
        assert canonical_value(True) != canonical_value(1)
        a = canonical_value(np.arange(3))
        b = canonical_value(np.arange(3))
        assert a == b
        assert canonical_value(np.arange(3)) != canonical_value(np.arange(4))
