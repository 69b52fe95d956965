"""Self-test of the benchmark: wrappers count what the program counts.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent), str(HERE)]

from layers import traced_run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_equal_program_counters(name):
    workload = WORKLOADS[name](seed=1)
    workload.setup()
    result = traced_run(workload, seconds=1.0)
    assert result["coverage_errors"] == []
    assert result["mismatches"] == 0
    assert result["metrics"]["bench.unattributed_s"][0] >= 0.0


def test_a_missed_lookup_site_fails_the_coverage_check():
    # Life's conditionals compile through ``Uncertain.plan``, which looks
    # ``compile_plan`` up in ``repro.core.uncertain``; leaving that binding
    # unwrapped must surface as a mismatch, not as a smaller number.
    workload = WORKLOADS["life"](seed=1)
    workload.setup()
    result = traced_run(workload, seconds=0.5,
                        exclude_modules=frozenset({"repro.core.uncertain"}))
    assert any(line.startswith("compile_plan calls")
               for line in result["coverage_errors"])


def test_a_phase_is_rescaled_by_its_median_probe():
    from hostspeed import NOMINAL_PROBE_S, HostScale
    from workloads import Phase

    scale = HostScale()
    # A host at half speed, with one probe slowed by the op before it.
    scale.probes = [2 * NOMINAL_PROBE_S] * 3 + [9 * NOMINAL_PROBE_S]
    phase = Phase(raw_latencies=[0.002, 0.004], raw_wall_s=0.006,
                  segment_p50s=[0.003])
    phase.rescale(scale)
    assert phase.latencies == pytest.approx([0.001, 0.002])
    assert phase.wall_s == pytest.approx(0.003)
    assert phase.segment_p50s == pytest.approx([0.0015])
    assert phase.raw_wall_s == pytest.approx(0.006)
    assert phase.host_probe_ms == pytest.approx(2 * NOMINAL_PROBE_S * 1e3)
