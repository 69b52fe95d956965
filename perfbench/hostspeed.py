"""Host speed: a fixed reference kernel timed between the program's ops.

The 2-vCPU VMs this benchmark runs on share their host, and their speed
drifts by up to 60% over seconds to minutes: a fixed pure-Python loop took
16 ms in one minute and 27 ms two minutes later, in process time as in
wall time.  A 20 s run can fall wholly inside a slow spell, so raw times
of the same code differ from one set of runs to the next by more than any
useful bound.

Every timed phase therefore calls :meth:`HostScale.probe` between ops and
multiplies its times by ``NOMINAL_PROBE_S / median probe time`` of the
phase: the time metrics read as they would on a host where the probe
takes ``NOMINAL_PROBE_S``.  One factor per phase, not per stretch of a
few ops: a probe right after one of the session's large queries is slowed
by that query, and per-stretch factors carried that into the result.  The kernel never calls the program, so
a change to the program cannot move it; it mixes the work the workloads
do (attribute and dict access in Python, numpy on tiny arrays, one pass
over an 800 kB array) so that a slow spell slows it as it slows them.  It
allocates no objects the collector tracks and runs with collection off,
so garbage the program leaves behind is never collected inside it.
"""

from __future__ import annotations

import asyncio
import gc
import statistics
from time import perf_counter

import numpy as np

#: Probe time the rescaled metrics are expressed at (about this VM's median).
NOMINAL_PROBE_S = 0.7e-3
#: The same for a probe handed to a worker thread (``probe_in_thread``).
NOMINAL_THREAD_PROBE_S = 0.8e-3


class _Node:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight

    def value(self) -> int:
        return self.weight + 1


_NODES = [_Node(i & 31, i) for i in range(300)]
_SMALL = np.random.default_rng(0).normal(size=(8, 10))
_BIG = np.random.default_rng(1).normal(size=100_000)
_OUT = np.empty_like(_BIG)
_TABLE: dict = {}


def _kernel() -> float:
    table = _TABLE
    table.clear()
    for node in _NODES:
        table[node.key] = table.get(node.key, 0) + node.value()
    total = 0.0
    for _ in range(40):
        total += float(((_SMALL * 1.5 + _SMALL) > 0.1).mean())
    np.multiply(_BIG, 1.5, out=_OUT)
    np.add(_OUT, _BIG, out=_OUT)
    return total + float(_OUT.sum())


def probe() -> float:
    """Seconds the reference kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostScale:
    """The probe times of one phase, and the factor they give."""

    def __init__(self, nominal_s: float = NOMINAL_PROBE_S) -> None:
        self.nominal_s = nominal_s
        self.probes: list[float] = []

    def probe(self, times: int = 1) -> None:
        """Run the probe ``times`` times."""
        for _ in range(times):
            self.probes.append(probe())

    async def probe_in_thread(self, executor, times: int = 1) -> None:
        """Run the probe ``times`` times on ``executor``, each timed from
        the hand-off to the return, as a service hands its batches over."""
        loop = asyncio.get_running_loop()
        for _ in range(times):
            start = perf_counter()
            await loop.run_in_executor(executor, probe)
            self.probes.append(perf_counter() - start)

    def median_s(self) -> float:
        """Median probe time (probing now if nothing was probed yet)."""
        if not self.probes:
            self.probe(5)
        return statistics.median(self.probes)

    def factor(self) -> float:
        """What raw times are multiplied by to read at nominal speed."""
        return self.nominal_s / self.median_s()


def scaled_setup_s(raw_s: float, probes: int = 15) -> float:
    """A set-up time rescaled by probes run right after it."""
    scale = HostScale()
    scale.probe(probes)
    return raw_s * scale.factor()
