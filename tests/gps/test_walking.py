"""Tests for the GPS-Walking application."""

import numpy as np
import pytest

from repro.gps.geo import GeoCoordinate
from repro.gps.sensor import GpsFix, GpsSensor
from repro.gps.trace import WalkConfig, WalkTrace, generate_walk
from repro.gps.units import MPS_TO_MPH
from repro.gps.walking import (
    GpsWalkingDecision,
    WalkingResult,
    naive_speed_mph,
    naive_speeds_mph,
    run_naive_walking,
    run_uncertain_walking,
    uncertain_speed_mph,
)
from repro.rng import default_rng

ORIGIN = GeoCoordinate(47.64, -122.13)


class _ReplaySensor:
    """Returns pre-made fixes in order, whatever it is asked to measure."""

    def __init__(self, fixes) -> None:
        self._fixes = iter(fixes)

    def measure(self, position, timestamp):
        return next(self._fixes)


def fixes_apart(distance_m: float, epsilon: float = 4.0) -> tuple[GpsFix, GpsFix]:
    return (
        GpsFix(ORIGIN, epsilon, 0.0),
        GpsFix(ORIGIN.offset_m(distance_m, 0.0), epsilon, 1.0),
    )


class TestNaiveSpeed:
    def test_exact_distance_over_time(self):
        f1, f2 = fixes_apart(10.0)
        assert naive_speed_mph(f1, f2) == pytest.approx(10.0 * MPS_TO_MPH, rel=1e-4)

    def test_sequence(self):
        f1, f2 = fixes_apart(10.0)
        f3 = GpsFix(ORIGIN.offset_m(10.0, 10.0), 4.0, 2.0)
        speeds = naive_speeds_mph([f1, f2, f3])
        assert len(speeds) == 2

    def test_time_ordering_enforced(self):
        f1, f2 = fixes_apart(10.0)
        with pytest.raises(ValueError):
            naive_speed_mph(f2, f1)

    def test_too_few_fixes(self):
        f1, _ = fixes_apart(10.0)
        with pytest.raises(ValueError):
            naive_speeds_mph([f1])


class TestUncertainSpeed:
    def test_distribution_centres_above_fix_distance(self, fixed_rng):
        # The posterior speed is Rice distributed; its mean exceeds the
        # naive point estimate (this inflation is analysed in
        # EXPERIMENTS.md).
        f1, f2 = fixes_apart(10.0)
        speed = uncertain_speed_mph(f1, f2)
        naive = naive_speed_mph(f1, f2)
        assert speed.expected_value(10_000, fixed_rng) >= naive * 0.95

    def test_large_distance_dominates_noise(self, fixed_rng):
        f1, f2 = fixes_apart(1_000.0, epsilon=2.0)
        speed = uncertain_speed_mph(f1, f2)
        expected = 1_000.0 * MPS_TO_MPH
        assert speed.expected_value(2_000, fixed_rng) == pytest.approx(
            expected, rel=0.01
        )

    def test_evidence_responds_to_distance(self, fixed_rng):
        slow = uncertain_speed_mph(*fixes_apart(0.5))
        fast = uncertain_speed_mph(*fixes_apart(10.0))
        threshold = 4.0
        assert (fast > threshold).evidence(4_000, fixed_rng) > (
            slow > threshold
        ).evidence(4_000, fixed_rng)

    def test_time_ordering_enforced(self):
        f1, f2 = fixes_apart(10.0)
        with pytest.raises(ValueError):
            uncertain_speed_mph(f2, f1)


class TestRunWalking:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_walk(WalkConfig(duration_s=60.0), rng=default_rng(10))

    def test_naive_run_shapes(self, trace):
        result = run_naive_walking(trace, GpsSensor(4.0, rng=default_rng(11)))
        assert len(result.speeds_mph) == len(trace) - 1
        assert len(result.decisions) == len(trace) - 1
        assert all(isinstance(d, GpsWalkingDecision) for d in result.decisions)

    def test_naive_never_silent(self, trace):
        result = run_naive_walking(trace, GpsSensor(4.0, rng=default_rng(12)))
        assert GpsWalkingDecision.SILENT not in result.decisions

    def test_uncertain_run_shapes(self, trace):
        result = run_uncertain_walking(
            trace, GpsSensor(4.0, rng=default_rng(13)), rng=default_rng(14)
        )
        assert len(result.speeds_mph) == len(trace) - 1
        assert len(result.decisions) == len(trace) - 1

    def test_prior_tightens_estimates(self, trace):
        from repro.gps.priors import walking_speed_prior

        plain = run_uncertain_walking(
            trace, GpsSensor(4.0, rng=default_rng(15)), rng=default_rng(16)
        )
        improved = run_uncertain_walking(
            trace,
            GpsSensor(4.0, rng=default_rng(15)),
            prior=walking_speed_prior(),
            rng=default_rng(17),
        )
        assert improved.speeds_mph.max() < plain.speeds_mph.max()
        assert improved.speeds_mph.max() <= 10.0  # prior support

    def test_glitch_the_prior_rules_out_stays_silent(self):
        # 100 m in 1 s at 4 m accuracy: ~220 mph, outside the walking-speed
        # prior's support, so SIR has no posterior for that second.
        from repro.gps.priors import walking_speed_prior

        glitch = fixes_apart(100.0)
        normal = GpsFix(ORIGIN.offset_m(101.5, 0.0), 4.0, 2.0)
        trace = WalkTrace(
            WalkConfig(duration_s=2.0),
            np.array([0.0, 1.0, 2.0]),
            (ORIGIN, ORIGIN.offset_m(100.0, 0.0), ORIGIN.offset_m(101.5, 0.0)),
            np.array([3.0, 3.0]),
        )
        result = run_uncertain_walking(
            trace, _ReplaySensor([*glitch, normal]),
            prior=walking_speed_prior(), rng=default_rng(18),
        )
        assert result.decisions[0] is GpsWalkingDecision.SILENT
        assert np.isnan(result.speeds_mph[0])
        assert np.isfinite(result.speeds_mph[1])
        assert result.running_reports == 0
        assert result.max_speed_mph == result.speeds_mph[1]

    def test_posterior_conflict_is_a_named_error(self):
        from repro.core.bayes import PriorConflict, posterior
        from repro.gps.priors import walking_speed_prior

        speed = uncertain_speed_mph(*fixes_apart(100.0))
        with pytest.raises(PriorConflict, match="zero weight"):
            posterior(speed, walking_speed_prior(), n_proposals=2_000,
                      rng=default_rng(19))

    def test_seconds_above_and_max(self):
        result = WalkingResult(
            speeds_mph=np.array([3.0, 8.0, 25.0]),
            decisions=[GpsWalkingDecision.GOOD_JOB] * 3,
            true_speeds_mph=np.array([3.0, 3.0, 3.0]),
            running_reports=1,
        )
        assert result.seconds_above[7.0] == 2
        assert result.seconds_above[20.0] == 1
        assert result.max_speed_mph == 25.0

    def test_unfair_speedups_counts_only_fast_truth(self):
        result = WalkingResult(
            speeds_mph=np.array([3.0, 3.0]),
            decisions=[GpsWalkingDecision.SPEED_UP, GpsWalkingDecision.SPEED_UP],
            true_speeds_mph=np.array([5.0, 2.0]),
            running_reports=0,
        )
        assert result.unfair_speedups() == 1
