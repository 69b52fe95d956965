"""Tests for the cross-query sample ledger (``repro.core.ledger``).

The load-bearing property is the acceptance contract: with
``sample_cache`` on, every query result is bit-identical to the same
query with the ledger off, seed-for-seed, on both the numpy and fused
engines — for raw samples, E, CI, percentiles, evidence, and full SPRT
runs — while repeated queries stop paying for rows they already drew.
"""

import numpy as np
import pytest

from repro.core.conditionals import evaluation_config
from repro.core.ledger import (
    LEDGER,
    SampleLedger,
    clear_ledger,
    ledger_stats,
)
from repro.core.plan import clear_plan_cache, compile_plan, invalidate_plan
from repro.core.sampling import SampleBudgetExceeded
from repro.core.uncertain import Uncertain
from repro.dists.gaussian import Gaussian
from repro.dists.categorical import PointMass
from repro.dists.uniform import Uniform
from repro.resilience import NonFiniteError
from repro.runtime.metrics import RuntimeMetrics

ENGINES = ["numpy", "fused"]


@pytest.fixture(autouse=True)
def _fresh_ledger():
    clear_ledger()
    yield
    clear_ledger()


def certified_value() -> Uncertain:
    """Single stochastic bulk draw: certified stream mode on every engine."""
    return Uncertain(Gaussian(5.0, 2.0)) * 1.5 + 3.0


def replay_value() -> Uncertain:
    """Two stochastic leaves: interleaved draws force replay mode."""
    return Uncertain(Gaussian(0.0, 1.0)) + Uncertain(Uniform(0.0, 1.0))


class TestBitIdentity:
    """Ledger-on must equal ledger-off, seed-for-seed (acceptance suite)."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("make", [certified_value, replay_value])
    def test_samples_expectation_ci_percentiles_evidence(self, engine, make):
        u = make()
        b = u > 6.0
        with evaluation_config(engine=engine):
            off = (
                u.samples(300, rng=42),
                u.expected_value(n=1000, rng=7),
                u.confidence_interval(0.95, samples=2000, rng=11),
                u.percentiles(20, samples=2000, rng=13),
                b.evidence(2000, rng=17),
            )
        with evaluation_config(engine=engine, sample_cache=True):
            on = (
                u.samples(300, rng=42),
                u.expected_value(n=1000, rng=7),
                u.confidence_interval(0.95, samples=2000, rng=11),
                u.percentiles(20, samples=2000, rng=13),
                b.evidence(2000, rng=17),
            )
        assert np.array_equal(off[0], on[0])
        assert off[1] == on[1]
        assert off[2] == on[2]
        assert np.array_equal(off[3], on[3])
        assert off[4] == on[4]

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("make", [certified_value, replay_value])
    def test_sprt_verdict_and_evidence_path(self, engine, make):
        b = make() > 6.0
        with evaluation_config(engine=engine):
            off = b.test(rng=21)
        with evaluation_config(engine=engine, sample_cache=True):
            on = b.test(rng=21)
            again = b.test(rng=21)
        assert on.decision == off.decision
        assert on.samples_used == off.samples_used
        assert on.p_hat == off.p_hat
        # A repeated identical test replays the cached stream exactly.
        assert again.p_hat == on.p_hat
        assert again.samples_used == on.samples_used

    @pytest.mark.parametrize("engine", ENGINES)
    def test_suffix_extension_equals_fresh_run(self, engine):
        u = certified_value()
        with evaluation_config(engine=engine):
            fresh = u.samples(500, rng=99)
        with evaluation_config(engine=engine, sample_cache=True):
            head = u.samples(120, rng=99)
            extended = u.samples(500, rng=99)
        assert np.array_equal(head, fresh[:120])
        assert np.array_equal(extended, fresh)


class TestSampleEconomics:
    def test_budget_charges_only_the_suffix(self):
        u = certified_value()
        with evaluation_config(sample_cache=True) as cfg:
            u.samples(100, rng=5)
            assert cfg.samples_executed == 100
            u.samples(250, rng=5)  # 100 cached + 150 drawn
            assert cfg.samples_executed == 250
            u.samples(250, rng=5)  # fully cached
            assert cfg.samples_executed == 250
            u.samples(40, rng=5)  # prefix read
            assert cfg.samples_executed == 250

    def test_budget_still_enforced_on_the_suffix(self):
        u = certified_value()
        with evaluation_config(sample_cache=True, sample_budget=150):
            u.samples(100, rng=5)
            with pytest.raises(SampleBudgetExceeded):
                u.samples(300, rng=5)  # needs 200 more > 50 remaining

    def test_sprt_rerun_draws_no_new_rows(self):
        b = certified_value() > 6.0
        scoped = RuntimeMetrics()
        with evaluation_config(sample_cache=True, metrics=scoped):
            first = b.test(rng=31)
            drawn_after_first = scoped.ledger_rows_drawn
            second = b.test(rng=31)
        assert second.p_hat == first.p_hat
        assert scoped.ledger_rows_drawn == drawn_after_first
        assert scoped.ledger_rows_reused >= first.samples_used

    def test_replay_exact_n_repeats_hit(self):
        m = replay_value()
        scoped = RuntimeMetrics()
        with evaluation_config(sample_cache=True, metrics=scoped):
            a = m.samples(400, rng=3)
            b = m.samples(400, rng=3)
        assert np.array_equal(a, b)
        assert scoped.ledger_hits >= 1
        assert scoped.ledger_rows_drawn == 400
        assert ledger_stats()["modes"] == {"replay": 1}


class TestStreamSemantics:
    def test_ambient_repeated_queries_reuse_rows(self):
        u = certified_value()
        with evaluation_config(sample_cache=True) as cfg:
            cfg.rng.standard_normal(5)  # an advanced, ambient stream
            a = u.samples(200)
            b = u.samples(200)
        assert np.array_equal(a, b)

    def test_ambient_single_draws_stay_fresh_per_call(self):
        u = certified_value()
        with evaluation_config(sample_cache=True) as cfg:
            cfg.rng.standard_normal(5)
            draws = [u.sample() for _ in range(8)]
        assert len(set(draws)) > 1  # cursor advances; no frozen loop values

    @pytest.mark.parametrize("engine", ENGINES)
    def test_seeded_single_draws_repeat_like_ledger_off(self, engine):
        u = certified_value()
        draws = {}
        for cache in (False, True):
            with evaluation_config(sample_cache=cache, engine=engine):
                draws[cache] = (
                    [float(u.samples(1, rng=1234)[0]) for _ in range(3)]
                    + [float(u.sample(rng=1234)) for _ in range(3)]
                )
        assert draws[True] == draws[False]
        assert len(set(draws[True])) == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_held_generator_single_draws_advance_like_ledger_off(self, engine):
        u = certified_value()
        draws = {}
        for cache in (False, True):
            held = np.random.default_rng(1234)
            with evaluation_config(sample_cache=cache, engine=engine):
                draws[cache] = [float(u.sample(rng=held)) for _ in range(4)]
        assert draws[True] == draws[False]
        assert len(set(draws[True])) == 4

    def test_serving_never_consumes_the_caller_generator(self):
        u = certified_value()
        with evaluation_config(sample_cache=True) as cfg:
            before = cfg.rng.bit_generator.state
            u.samples(500)
            assert cfg.rng.bit_generator.state == before

    def test_returned_arrays_are_private_copies(self):
        u = certified_value()
        with evaluation_config(sample_cache=True):
            a = u.samples(50, rng=1)
            a[:] = -1.0
            b = u.samples(50, rng=1)
        assert not np.array_equal(a, b)


class TestEvictionAndRebuild:
    def test_lru_eviction_respects_byte_budget_and_rebuilds_identically(self):
        values = [
            Uncertain(Gaussian(float(i), 1.0)) * 2.0 for i in range(3)
        ]
        with evaluation_config(sample_cache=True):
            reference = [v.samples(200, rng=77) for v in values]
        clear_ledger()
        # ~1600 bytes per column; room for two entries only.
        with evaluation_config(sample_cache=4000):
            for v in values:
                v.samples(200, rng=77)
            stats = ledger_stats()
            assert stats["bytes"] <= 4000
            assert stats["entries"] < 3
            # Evicted entries rebuild bit-identically on demand.
            rebuilt = [v.samples(200, rng=77) for v in values]
        for ref, re in zip(reference, rebuilt):
            assert np.array_equal(ref, re)

    def test_clear_ledger_drops_everything(self):
        u = certified_value()
        with evaluation_config(sample_cache=True):
            u.samples(100, rng=1)
        assert ledger_stats()["entries"] == 1
        clear_ledger()
        stats = ledger_stats()
        assert stats["entries"] == 0 and stats["bytes"] == 0
        assert stats["verdicts"] == {}


class TestInvalidation:
    def test_invalidate_plan_drops_ledger_entries(self):
        u = certified_value()
        with evaluation_config(sample_cache=True):
            u.samples(100, rng=1)
        assert ledger_stats()["entries"] == 1
        invalidate_plan(u.node)
        assert ledger_stats()["entries"] == 0

    def test_clear_plan_cache_drops_ledger_entries(self):
        u = certified_value()
        with evaluation_config(sample_cache=True):
            u.samples(100, rng=1)
        assert ledger_stats()["entries"] == 1
        clear_plan_cache()
        assert ledger_stats()["entries"] == 0

    def test_health_repair_poisons_nothing(self):
        # An always-infinite plan: cached under the default policy, then
        # repaired (unsuccessfully) under "resample" — the repair attempt
        # must drop the cached columns even though it ends in an error.
        bad = Uncertain(Gaussian(0.0, 1.0)) / Uncertain(PointMass(0.0))
        with evaluation_config(sample_cache=True):
            rows = bad.samples(50, rng=1)
            assert np.all(~np.isfinite(rows))
        assert ledger_stats()["entries"] == 1
        with evaluation_config(on_nonfinite="resample", nonfinite_retries=2):
            with pytest.raises(NonFiniteError):
                bad.samples(50, rng=1)
        assert ledger_stats()["entries"] == 0

    def test_resample_policy_bypasses_the_ledger(self):
        u = certified_value()
        scoped = RuntimeMetrics()
        with evaluation_config(
            sample_cache=True, on_nonfinite="resample", metrics=scoped
        ):
            u.samples(100, rng=1)
        assert ledger_stats()["entries"] == 0
        assert scoped.ledger_bypasses >= 1


class TestGating:
    def test_opaque_plans_bypass(self):
        u = certified_value().map(lambda x: x + 1.0)
        assert u.plan.structural_hash is None
        with evaluation_config(sample_cache=True):
            a = u.samples(100, rng=1)
            b = u.samples(100, rng=1)
        assert np.array_equal(a, b)  # fresh generator per call either way
        assert ledger_stats()["entries"] == 0

    def test_parallel_engine_bypasses(self):
        u = certified_value()
        with evaluation_config(sample_cache=True, engine="parallel"):
            u.samples(100, rng=1)
        assert ledger_stats()["entries"] == 0

    def test_off_by_default(self):
        u = certified_value()
        u.samples(100, rng=1)
        assert ledger_stats()["entries"] == 0

    def test_shared_context_draws_bypass(self):
        from repro.core.sampling import SampleContext

        u = certified_value()
        with evaluation_config(sample_cache=True):
            ctx = SampleContext(64, rng=5)
            ctx.value_of(u.node)
        assert ledger_stats()["entries"] == 0

    def test_certify_verdicts_are_sticky_per_shape(self):
        u = certified_value()
        m = replay_value()
        with evaluation_config(sample_cache=True):
            u.samples(50, rng=1)
            m.samples(50, rng=1)
        stats = ledger_stats()
        assert sorted(stats["verdicts"].values()) == ["replay", "stream"]
        # Clearing entries alone (eviction) keeps verdicts; full clear drops.
        assert ledger_stats()["modes"] == {"replay": 1, "stream": 1}

    def test_fill_failure_drops_the_entry(self):
        u = certified_value()
        with evaluation_config(sample_cache=True):
            u.samples(50, rng=1)
            assert ledger_stats()["entries"] == 1
            with evaluation_config(sample_cache=True, on_nonfinite="raise"):
                # force an extension failure via a poisoned plan sharing
                # nothing with u: the entry for u must survive...
                bad = Uncertain(Gaussian(0.0, 1.0)) / Uncertain(
                    PointMass(0.0)
                )
                with pytest.raises(NonFiniteError):
                    bad.samples(10, rng=2)
            stats = ledger_stats()
            # ...and the poisoned plan's half-built entry must not.
            assert stats["entries"] == 1


class TestMetricsExposition:
    def test_prometheus_renders_ledger_series(self):
        u = certified_value()
        scoped = RuntimeMetrics()
        with evaluation_config(sample_cache=True, metrics=scoped):
            u.samples(100, rng=1)
            u.samples(100, rng=1)
        text = scoped.render_prometheus()
        assert "repro_ledger_hits" in text
        assert "repro_ledger_suffix_extensions" in text
        assert "repro_ledger_bytes" in text
        snap = scoped.snapshot()["ledger"]
        assert snap["hits"] >= 1
        assert snap["rows_drawn"] == 100
        assert snap["rows_reused"] >= 100

    def test_instance_isolated_from_global(self):
        ledger = SampleLedger(max_bytes=10)
        assert ledger.stats()["entries"] == 0
        assert ledger is not LEDGER
