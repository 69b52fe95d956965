"""The GPS-Walking application (Figure 5), naive and Uncertain versions.

GPS-Walking encourages users to walk faster than 4 mph.  Each second it
takes two GPS fixes and computes ``Speed = Distance / dt``:

- The **naive** version (Figure 5a) treats fixes as facts, producing the
  absurd speeds of Figure 3 and unfair admonishments.
- The **Uncertain** version (Figure 5b) computes a speed *distribution* and
  branches on evidence: ``if Speed > 4: GoodJob()`` (more likely than not)
  and ``elif (Speed < 4).pr(0.9): SpeedUp()`` (strong evidence before
  admonishing).  An optional walking-speed prior produces the "Improved
  speed" series of Figure 13.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Sequence

import numpy as np

from repro.core.bayes import Prior, PriorConflict, posterior
from repro.core.uncertain import Uncertain
from repro.gps.geo import enu_distance_m
from repro.gps.sensor import GpsFix, GpsSensor, gps_posterior_enu
from repro.gps.trace import WalkTrace
from repro.gps.units import MPS_TO_MPH, RUNNING_MPH, TARGET_WALK_MPH


class GpsWalkingDecision(enum.Enum):
    """What the app tells the user this second."""

    GOOD_JOB = "good_job"
    SPEED_UP = "speed_up"
    SILENT = "silent"  # Uncertain version only: insufficient evidence either way


def naive_speed_mph(fix1: GpsFix, fix2: GpsFix) -> float:
    """Figure 5(a): treat both fixes as facts."""
    dt = fix2.timestamp - fix1.timestamp
    if dt <= 0:
        raise ValueError(f"fixes must be time-ordered, got dt={dt}")
    return enu_distance_m(fix1.coordinate, fix2.coordinate) / dt * MPS_TO_MPH


def naive_speeds_mph(fixes: Sequence[GpsFix]) -> np.ndarray:
    """Per-interval naive speeds for a whole fix sequence (Figure 3)."""
    if len(fixes) < 2:
        raise ValueError("need at least two fixes to compute a speed")
    return np.asarray(
        [naive_speed_mph(a, b) for a, b in zip(fixes, fixes[1:])]
    )


def uncertain_speed_mph(fix1: GpsFix, fix2: GpsFix) -> Uncertain:
    """Figure 5(b): the speed distribution implied by two fixes.

    Built from planar (east, north) posterior components so the whole
    network evaluates vectorised: Speed = |L2 - L1| / dt, converted to mph.
    """
    dt = fix2.timestamp - fix1.timestamp
    if dt <= 0:
        raise ValueError(f"fixes must be time-ordered, got dt={dt}")
    origin = fix1.coordinate
    east1, north1 = gps_posterior_enu(fix1, origin)
    east2, north2 = gps_posterior_enu(fix2, origin)
    distance_m = ((east2 - east1) ** 2 + (north2 - north1) ** 2) ** 0.5
    return distance_m / dt * MPS_TO_MPH


@dataclasses.dataclass
class WalkingResult:
    """Outcome of running GPS-Walking over a trace."""

    speeds_mph: np.ndarray  # the app's per-second speed estimates
    decisions: list[GpsWalkingDecision]
    true_speeds_mph: np.ndarray
    #: Seconds the app's *conditional* reported a running pace (> 7 mph) —
    #: the paper's headline accuracy metric (30 s naive vs 4 s Uncertain).
    running_reports: int = 0

    @property
    def seconds_above(self) -> dict[float, int]:
        """Seconds the estimate exceeded notable thresholds (Figure 3)."""
        return {t: int(np.sum(self.speeds_mph > t)) for t in (7.0, 10.0, 20.0)}

    @property
    def max_speed_mph(self) -> float:
        return float(np.nanmax(self.speeds_mph))

    def unfair_speedups(self, slack_mph: float = 0.0) -> int:
        """SpeedUp messages issued while the user truly walked fast enough."""
        truly_fast = self.true_speeds_mph >= TARGET_WALK_MPH - slack_mph
        return sum(
            1
            for fast, decision in zip(truly_fast, self.decisions)
            if fast and decision is GpsWalkingDecision.SPEED_UP
        )


def measure_trace(trace: WalkTrace, sensor: GpsSensor) -> list[GpsFix]:
    """Run the sensor over the whole ground-truth trace."""
    return [
        sensor.measure(pos, float(t))
        for pos, t in zip(trace.positions, trace.timestamps)
    ]


def run_naive_walking(trace: WalkTrace, sensor: GpsSensor) -> WalkingResult:
    """Figure 5(a)'s program over a trace: speeds as facts, naive branches."""
    fixes = measure_trace(trace, sensor)
    speeds = naive_speeds_mph(fixes)
    decisions = [
        GpsWalkingDecision.GOOD_JOB if s > TARGET_WALK_MPH else GpsWalkingDecision.SPEED_UP
        for s in speeds
    ]
    running = int(np.sum(speeds > RUNNING_MPH))
    return WalkingResult(speeds, decisions, trace.true_speeds_mph, running)


def run_uncertain_walking(
    trace: WalkTrace,
    sensor: GpsSensor,
    prior: Prior | None = None,
    speedup_evidence: float = 0.9,
    running_evidence: float | None = 0.9,
    expectation_samples: int = 500,
    posterior_proposals: int = 2_000,
    rng: np.random.Generator | None = None,
) -> WalkingResult:
    """Figure 5(b)'s program over a trace.

    With ``prior`` set (e.g. :func:`repro.gps.priors.walking_speed_prior`),
    each second's speed distribution is first improved by Bayesian
    resampling — the "Improved speed" series of Figure 13.

    ``running_evidence`` controls the ">7 mph" accuracy telemetry: ``None``
    uses the implicit more-likely-than-not conditional; a value uses the
    explicit ``.pr(value)`` operator.  See EXPERIMENTS.md — under the
    published error model the posterior is centred on the *measured* fix,
    which inflates distances (a Rice-median effect), so the false-positive
    control the paper reports comes from demanding strong evidence.

    A second whose fixes the prior rules out entirely (a glitch implying
    an impossible walking speed) has no posterior: the app stays SILENT,
    its speed is NaN and it does not count as running.
    """
    fixes = measure_trace(trace, sensor)
    speeds = []
    decisions = []
    running = 0
    for fix1, fix2 in zip(fixes, fixes[1:]):
        speed = uncertain_speed_mph(fix1, fix2)
        if prior is not None:
            try:
                speed = posterior(
                    speed, prior, n_proposals=posterior_proposals, rng=rng
                )
            except PriorConflict:
                decisions.append(GpsWalkingDecision.SILENT)
                speeds.append(np.nan)
                continue
        if speed > TARGET_WALK_MPH:  # implicit: more likely than not
            decisions.append(GpsWalkingDecision.GOOD_JOB)
        elif (speed < TARGET_WALK_MPH).pr(speedup_evidence):
            decisions.append(GpsWalkingDecision.SPEED_UP)
        else:
            decisions.append(GpsWalkingDecision.SILENT)
        running_cond = speed > RUNNING_MPH  # ">7 mph for N seconds" metric
        if running_evidence is None:
            if running_cond:
                running += 1
        elif running_cond.pr(running_evidence):
            running += 1
        speeds.append(speed.expected_value(expectation_samples))
    return WalkingResult(np.asarray(speeds), decisions, trace.true_speeds_mph, running)
