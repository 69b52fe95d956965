"""The workloads: the paper's case studies plus the service tier.

Each workload builds its inputs from a seed, warms the program's caches in
``setup`` (the benchmark's ``setup_s``), runs for a fixed number of seconds
in ``run`` and checks a sampled subset of its outputs against a reference
in ``check``, outside the timed phase.  ``NOTES.md`` says why each
workload was chosen and which layers it uses or bypasses.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter, thread_time

import numpy as np

from repro import runtime
from repro.core.conditionals import EvaluationConfig, evaluation_config, set_config

from hostspeed import NOMINAL_THREAD_PROBE_S, HostScale

#: The case studies run under today's default evaluation settings, pinned
#: so that a change of default shows as a change of workload, not of speed.
CASE_STUDY_CONFIG = dict(engine="numpy", optimize=2, sample_cache=False)
#: The analyst session turns the sample ledger on.
SESSION_CONFIG = dict(CASE_STUDY_CONFIG, sample_cache=True)


@dataclasses.dataclass
class Phase:
    """What one timed phase did.

    Latencies are in seconds.  The loops record ``raw_latencies``,
    ``raw_wall_s`` (time spent in ops or service rounds, without the
    probes between them) and ``segment_p50s`` as measured;
    :meth:`rescale` then fills ``latencies`` and ``wall_s`` at the nominal
    host speed of ``hostspeed.py`` and rescales ``segment_p50s``.  On the
    single-threaded closed loops the raw figures are the thread's CPU
    time (see :func:`closed_loop`); ``wall_latencies`` and
    ``clock_wall_s`` keep the wall clock for the report and the tracer.
    """

    wall_s: float = 0.0
    latencies: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    decisions: int = 0
    wrong_decisions: int = 0
    engine_samples: int = 0
    #: Median latency of each full closed-loop segment.
    segment_p50s: list = dataclasses.field(default_factory=list)
    raw_wall_s: float = 0.0
    raw_latencies: list = dataclasses.field(default_factory=list)
    clock_wall_s: float = 0.0
    wall_latencies: list = dataclasses.field(default_factory=list)
    #: Median probe time of the phase and the probe time it is rescaled
    #: to, in milliseconds (0: not probed).
    host_probe_ms: float = 0.0
    probe_nominal_ms: float = 0.0
    #: Workload-specific numbers for the human-readable report.
    detail: dict = dataclasses.field(default_factory=dict)

    def rescale(self, scale: HostScale) -> None:
        """Rescale the raw figures by the phase's median probe time."""
        factor = scale.factor()
        self.latencies = [x * factor for x in self.raw_latencies]
        self.wall_s = self.raw_wall_s * factor
        self.segment_p50s = [x * factor for x in self.segment_p50s]
        self.host_probe_ms = scale.median_s() * 1e3
        self.probe_nominal_ms = scale.nominal_s * 1e3


def engine_samples() -> int:
    """Joint samples drawn so far, by the program's own counter."""
    return sum(e["samples"] for e in runtime.stats()["engines"].values())


def closed_loop(seconds: float, op, phase: Phase, cycle: int = 1,
                segment: int = 1, prepare=None, probe_every: int = 1,
                probes: int = 1) -> Phase:
    """One caller issuing ``op(i)`` back to back for ``seconds``.

    The loop stops only after a whole ``cycle`` of ops, so a workload that
    rotates through ``cycle`` kinds of op always runs them in equal numbers.
    Every ``segment`` ops (a multiple of ``cycle``) it records the segment's
    median latency.  After every ``probe_every`` ops it runs the host-speed
    probe ``probes`` times.  ``prepare(i)`` makes inputs before op ``i``;
    its time is not measured.

    An op's latency is the CPU time of the calling thread during the op.
    The ops never wait for anything, so that is their wall time less the
    time the VM's CPU was taken away from them: on a shared host 3% of
    ``gps`` ops lost more than 2 ms that way in busy spells, enough to
    double the p99.  The wall clock is kept in ``wall_latencies``.
    """
    scale = HostScale()
    latencies = phase.raw_latencies
    wall = phase.wall_latencies
    samples_before = engine_samples()
    end = perf_counter() + seconds
    i = 0
    while True:
        if prepare is not None:
            t = perf_counter()
            prepare(i)
            end += perf_counter() - t
        t = perf_counter()
        if t >= end and i % cycle == 0:
            break
        c = thread_time()
        op(i)
        latencies.append(thread_time() - c)
        wall.append(perf_counter() - t)
        i += 1
        if i % probe_every == 0:
            scale.probe(probes)
        if i % segment == 0:
            phase.segment_p50s.append(float(np.median(latencies[-segment:])))
    phase.raw_wall_s = sum(latencies)
    phase.clock_wall_s = sum(wall)
    phase.attempted = i
    phase.engine_samples = engine_samples() - samples_before
    phase.rescale(scale)
    return phase


def run_as(config: EvaluationConfig, fn, *args):
    """Call ``fn`` with ``config`` installed as the ambient configuration."""
    previous = set_config(config)
    try:
        return fn(*args)
    finally:
        set_config(previous)


# ---------------------------------------------------------------------------
# life: Fig. 14 SensorLife and BayesLife
# ---------------------------------------------------------------------------


class Life:
    """Cell updates of SensorLife and BayesLife at sigma 0.1 and 0.3.

    Four streams (variant x sigma) take turns, one cell update each, so any
    stopping point leaves the same mix.  Each stream walks random 12x12
    boards for 6 exact generations (the fig14 fast protocol), then starts a
    fresh board.
    """

    name = "life"
    ROWS = COLS = 12
    GENERATIONS = 6
    DENSITY = 0.35
    CHECK_EVERY = 97

    def __init__(self, seed: int) -> None:
        from repro.life.variants import BayesLife, SensorLife

        root = np.random.SeedSequence([seed, 14])
        self.streams = []
        for child, (factory, sigma) in zip(root.spawn(4), [
            (SensorLife, 0.1), (SensorLife, 0.3), (BayesLife, 0.1), (BayesLife, 0.3),
        ]):
            board_seed, draw_seed = child.spawn(2)
            rng = np.random.default_rng(draw_seed)
            self.streams.append(dict(
                variant=factory(sigma),
                boards=np.random.default_rng(board_seed),
                rng=rng,
                config=EvaluationConfig(rng=rng, **CASE_STUDY_CONFIG),
                board=None, counts=None, cell=0, generation=0,
            ))
        self.checks: list = []

    def _next_cell(self, stream):
        from repro.life.engine import neighbor_counts, random_board, step_board

        rows, cols = self.ROWS, self.COLS
        if stream["board"] is None or stream["cell"] == rows * cols:
            if stream["board"] is None or stream["generation"] + 1 == self.GENERATIONS:
                stream["board"] = random_board(rows, cols, self.DENSITY, stream["boards"])
                stream["generation"] = 0
            else:
                stream["board"] = step_board(stream["board"])
                stream["generation"] += 1
            stream["counts"] = neighbor_counts(stream["board"])
            stream["cell"] = 0
        r, c = divmod(stream["cell"], cols)
        stream["cell"] += 1
        return r, c

    def setup(self) -> None:
        # Import the decision path and run one cell per stream untimed.
        for i in range(len(self.streams)):
            self._op(i, Phase(), record=False)

    def _op(self, i: int, phase: Phase, record: bool = True) -> None:
        from repro.life.engine import neighbor_states, true_decision

        stream = self.streams[i % len(self.streams)]
        r, c = self._next_cell(stream)
        board = stream["board"]
        is_alive = bool(board[r, c])
        states = neighbor_states(board, r, c)
        check = record and i % self.CHECK_EVERY == 0
        state = stream["rng"].bit_generator.state if check else None
        outcome = run_as(stream["config"], stream["variant"].decide,
                         is_alive, states, stream["rng"])
        if check:
            self.checks.append((stream, is_alive, states, state,
                                outcome.will_be_alive))
        phase.decisions += 1
        if outcome.will_be_alive != true_decision(is_alive, int(stream["counts"][r, c])):
            phase.wrong_decisions += 1

    def run(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        return closed_loop(seconds, lambda i: self._op(i, phase), phase,
                           cycle=len(self.streams), segment=400, probe_every=40,
                           probes=2)

    def check(self) -> tuple[int, int]:
        """Replay sampled cell updates on the reference interpreter."""
        mismatches = 0
        for stream, is_alive, states, state, decided in self.checks:
            rng = np.random.default_rng()
            rng.bit_generator.state = state
            with evaluation_config(rng=rng, engine="interpreter", optimize=0,
                                   sample_cache=False):
                reference = stream["variant"].decide(is_alive, states, rng)
            mismatches += reference.will_be_alive != decided
        return len(self.checks), mismatches


# ---------------------------------------------------------------------------
# gps: Fig. 13 GPS-Walking with the walking-speed prior
# ---------------------------------------------------------------------------


class _ReplaySensor:
    """Hands ``run_uncertain_walking`` fixes measured ahead of time."""

    def __init__(self, fixes) -> None:
        self._fixes = iter(fixes)

    def measure(self, position, timestamp):
        return next(self._fixes)


class Gps:
    """One walk second per op: speed graph, SIR posterior, E, conditionals.

    Walks of 60 s are generated from the seed and measured by the fig03
    walking sensor; a new walk starts when one runs out, outside the timed
    op.  The walker's speed reverts to its mean within seconds, so short
    walks sample the same process as fig13's 300 s walk, and many of them
    spread the rare seconds near 4 mph (long SPRTs) evenly over a run.
    """

    name = "gps"
    WALK_S = 60.0
    CHECK_EVERY = 53

    def __init__(self, seed: int) -> None:
        from repro.gps.priors import walking_speed_prior

        root = np.random.SeedSequence([seed, 13])
        self._walk_seeds, draw_seed = root.spawn(2)
        self.rng = np.random.default_rng(draw_seed)
        self.config = EvaluationConfig(rng=self.rng, **CASE_STUDY_CONFIG)
        self.prior = walking_speed_prior()
        self.walks = 0
        self.trace = self.fixes = None
        self.second = 0
        self.checks: list = []
        self._next_walk()

    def _next_walk(self) -> None:
        from repro.experiments.fig03_naive_speed import WALK_SENSOR
        from repro.gps.sensor import GpsSensor
        from repro.gps.trace import WalkConfig, generate_walk
        from repro.gps.walking import measure_trace

        walk_seed, sensor_seed = self._walk_seeds.spawn(1)[0].spawn(2)
        self.trace = generate_walk(WalkConfig(duration_s=self.WALK_S),
                                   rng=np.random.default_rng(walk_seed))
        self.fixes = measure_trace(self.trace, GpsSensor(
            rng=np.random.default_rng(sensor_seed), **WALK_SENSOR))
        self.second = 0
        self.walks += 1

    def _interval(self):
        from repro.gps.trace import WalkTrace

        s = self.second
        trace = self.trace
        sub = WalkTrace(trace.config, trace.timestamps[s:s + 2],
                        trace.positions[s:s + 2], trace.true_speeds_mph[s:s + 1])
        return sub, self.fixes[s:s + 2]

    def _decide(self, sub, fixes, rng):
        from repro.gps.walking import run_uncertain_walking

        result = run_uncertain_walking(sub, _ReplaySensor(fixes),
                                       prior=self.prior, rng=rng)
        return result.decisions[0]

    def setup(self) -> None:
        sub, fixes = self._interval()
        run_as(self.config, self._decide, sub, fixes, self.rng)

    def _op(self, i: int, phase: Phase) -> None:
        from repro.gps.units import TARGET_WALK_MPH
        from repro.gps.walking import GpsWalkingDecision

        sub, fixes = self._interval()
        self.second += 1
        check = i % self.CHECK_EVERY == 0
        state = self.rng.bit_generator.state if check else None
        try:
            decision = run_as(self.config, self._decide, sub, fixes, self.rng)
        except ValueError:
            # On a glitched fix the walking-speed prior can give every SIR
            # proposal zero weight and ``posterior`` raises: a failed op.
            phase.failed += 1
            return
        if check:
            self.checks.append((sub, fixes, state, decision))
        phase.decisions += 1
        fast = sub.true_speeds_mph[0] >= TARGET_WALK_MPH
        if (decision is GpsWalkingDecision.GOOD_JOB and not fast) or (
                decision is GpsWalkingDecision.SPEED_UP and fast):
            phase.wrong_decisions += 1

    def run(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()

        def prepare(i: int) -> None:
            if self.second == len(self.fixes) - 1:
                self._next_walk()

        closed_loop(seconds, lambda i: self._op(i, phase), phase,
                    segment=100, prepare=prepare, probe_every=10, probes=2)
        phase.detail["walks"] = self.walks
        return phase

    def check(self) -> tuple[int, int]:
        """Replay sampled walk seconds on the reference interpreter."""
        mismatches = 0
        for sub, fixes, state, decided in self.checks:
            rng = np.random.default_rng()
            rng.bit_generator.state = state
            with evaluation_config(rng=rng, engine="interpreter", optimize=0,
                                   sample_cache=False):
                mismatches += self._decide(sub, fixes, rng) is not decided
        return len(self.checks), mismatches


# ---------------------------------------------------------------------------
# session: the fig08 analyst session with the sample ledger on
# ---------------------------------------------------------------------------


#: GPS fixes per moving-average window of the fig08 plan (1 Hz receiver).
FIG08_WINDOW = 16


def _sliding_means(fixes):
    """Previous and current window means sharing the common middle sum.

    ``prev = (f0 + common) / w`` and ``cur = (common + fw) / w`` where
    ``common = f1 + ... + f(w-1)``: Figure 8's ``(y + x) + x`` sharing.
    """
    w = float(len(fixes) - 1)
    common = fixes[1]
    for f in fixes[2:-1]:
        common = common + f
    return (fixes[0] + common) / w, (common + fixes[-1]) / w


def fig08_root():
    """The 110-node fig08 plan: GPS walking-speed detection over 16-fix
    moving averages whose windows share their 15-fix middle sum.

    Kept here, not imported, so the session workload stays fixed while
    the program's own benchmarks change.  34 Gaussian fixes, unit
    conversions built from named point masses (constant-fold and CSE
    bait), a lifted ``np.sqrt`` and the paper's 4 mph test.
    """
    from repro.core.uncertain import Uncertain
    from repro.dists import Exponential, Gaussian, Uniform

    lat_fixes = [Uncertain(Gaussian(47.6097, 2.5e-5)) for _ in range(FIG08_WINDOW + 1)]
    lon_fixes = [Uncertain(Gaussian(-122.3331, 2.5e-5)) for _ in range(FIG08_WINDOW + 1)]
    prev_lat, cur_lat = _sliding_means(lat_fixes)
    prev_lon, cur_lon = _sliding_means(lon_fixes)
    dt = Uncertain(Uniform(0.9, 1.1))
    drift = Uncertain(Exponential(4.0))

    deg2rad = Uncertain.pointmass(np.pi) / Uncertain.pointmass(180.0)
    # IUGG mean earth radius R1 = (2a + b) / 3 from the WGS84 axes.
    earth_r = (
        Uncertain.pointmass(2.0) * Uncertain.pointmass(6_378_137.0)
        + Uncertain.pointmass(6_356_752.3)
    ) / Uncertain.pointmass(3.0)
    cos_lat = Uncertain.pointmass(0.6756)  # cos(47.6 deg), flat-earth step
    dy = (cur_lat * deg2rad - prev_lat * deg2rad) * earth_r
    dx = (cur_lon * deg2rad - prev_lon * deg2rad) * (earth_r * cos_lat)
    dist_m = (dx * dx + dy * dy).map(np.sqrt, vectorized=True)
    speed_mps = (dist_m + drift) / dt
    # The paper's 4 mph walk test, converted to m/s through named constants.
    threshold_mps = (
        Uncertain.pointmass(4.0)
        * (Uncertain.pointmass(1.609344) * Uncertain.pointmass(1000.0))
        / Uncertain.pointmass(3600.0)
    )
    return (speed_mps > threshold_mps).node


class Session:
    """Repeated queries on the 110-node fig08 plan, ledger on.

    Refreshes alternate between a seed from a small pool the analyst keeps
    re-asking (ledger reads) and a seed never seen before (ledger misses
    that draw and store).  A refresh is four queries, each one op: the
    SPRT verdict, ``E`` at 1e5, the 95% CI and a 20-point percentile curve
    at 2e5 samples.
    """

    name = "session"
    POOL = 3
    E_SAMPLES = 100_000
    TAIL_SAMPLES = 200_000
    CHECK_EVERY = 9
    MAX_CHECKS = 6

    def __init__(self, seed: int) -> None:
        from repro.core.uncertain import Uncertain, UncertainBool

        node = fig08_root()
        self.walking = UncertainBool.from_node(node)
        self.speed = Uncertain.from_node(node.parents[0])
        seeds = np.random.default_rng([seed, 8]).integers(1, 2**31, size=4096)
        self.pool = [int(s) for s in seeds[:self.POOL]]
        self._fresh = iter(int(s) for s in seeds[self.POOL:])
        self.refresh_seed = None
        self.checks: list = []

    def _query(self, kind: int, seed: int):
        if kind == 0:
            result = self.walking.test(0.5, rng=seed)
            return (result.decision, result.samples_used)
        if kind == 1:
            return self.speed.expected_value(self.E_SAMPLES, rng=seed + 1)
        if kind == 2:
            return self.speed.confidence_interval(
                0.95, samples=self.TAIL_SAMPLES, rng=seed + 2)
        return self.speed.percentiles(20, samples=self.TAIL_SAMPLES, rng=seed + 3)

    def _seed_for(self, i: int) -> int:
        refresh, kind = divmod(i, 4)
        if kind == 0:
            if refresh % 2 == 0:
                self.refresh_seed = self.pool[(refresh // 2) % self.POOL]
            else:
                self.refresh_seed = next(self._fresh)
        return self.refresh_seed

    def setup(self) -> None:
        from repro.core.ledger import clear_ledger

        clear_ledger()
        with evaluation_config(**SESSION_CONFIG):
            self.walking.plan, self.speed.plan
            for seed in self.pool:
                for kind in range(4):
                    self._query(kind, seed)

    def _op(self, i: int, phase: Phase) -> None:
        kind = i % 4
        seed = self._seed_for(i)
        answer = self._query(kind, seed)
        if kind == 0:
            phase.decisions += 1
            # Pr[speed > 4 mph] is below 1e-6 on this plan: the truth is
            # "not walking fast", so only a rejecting verdict is right.
            phase.wrong_decisions += answer[0].as_bool()
        if i % self.CHECK_EVERY == 0 and len(self.checks) < self.MAX_CHECKS:
            self.checks.append((kind, seed, answer))

    def run(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        with evaluation_config(**SESSION_CONFIG):
            # A cycle is one pool refresh and one fresh refresh.
            closed_loop(seconds, lambda i: self._op(i, phase), phase,
                        cycle=8, segment=8, probes=3)
        return phase

    def check(self) -> tuple[int, int]:
        """Ledger-on answers must equal ledger-off answers bit for bit."""
        mismatches = 0
        with evaluation_config(**CASE_STUDY_CONFIG):
            for kind, seed, answer in self.checks:
                reference = self._query(kind, seed)
                mismatches += not np.array_equal(
                    np.asarray(reference, dtype=object), np.asarray(answer, dtype=object))
        return len(self.checks), mismatches


# ---------------------------------------------------------------------------
# service: requests into Service(engine="fused"), closed loop and open loop
# ---------------------------------------------------------------------------


_MPS_TO_MPH = 2.23693629
#: GPS error model of the service load benchmark: ~4 m 95% CEP over 1 s.
_SIGMA_MPH = 2.0 * _MPS_TO_MPH
_WALK_MPH = 3.1
_LIMIT_MPH = 4.0


def speeding_query(slow: bool = False):
    """A walker's speeding test on a fresh graph.

    The common shape asks ``speed > 4`` (GOOD_JOB); the second shape is
    GPS-Walking's SPEED_UP conditional, ``speed < 4`` at 0.9 evidence.
    """
    from repro import Uncertain
    from repro.dists import Gaussian

    v_east = Uncertain(Gaussian(_WALK_MPH * 0.6, _SIGMA_MPH))
    v_north = Uncertain(Gaussian(_WALK_MPH * 0.8, _SIGMA_MPH))
    speed = (v_east * v_east + v_north * v_north) ** 0.5
    return speed < _LIMIT_MPH if slow else speed > _LIMIT_MPH


def exact_answers() -> dict:
    """Exact decisions of both query shapes (speed is Rice distributed)."""
    from scipy.stats import rice

    p_fast = float(rice.sf(_LIMIT_MPH / _SIGMA_MPH, _WALK_MPH / _SIGMA_MPH))
    return {False: p_fast > 0.5, True: (1.0 - p_fast) > 0.9}


class _ServiceMix:
    """Requests and output check shared by both service workloads.

    Most requests are seedless ``speed > 4`` ``pr`` queries at 500
    samples (the coalescer pools them into one fused run), some carry a
    seed (evaluated solo inside the batch) and some are the ``speed < 4``
    shape at 0.9 evidence.  Every request has a fresh graph, so the front
    end runs once per request.
    """

    SAMPLES = 500
    MAX_CHECKS = 200

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng([seed, 7])
        self.exact = exact_answers()
        self.seeded: list = []
        self.service_stats: "dict | None" = None

    def _request(self, kind: str):
        """A request of ``kind`` (``pooled``, ``seeded`` or ``slow``) and
        whether it has the slow shape."""
        from repro.service import QueryRequest

        if kind == "slow":
            return QueryRequest(value=speeding_query(slow=True), kind="pr",
                                threshold=0.9, samples=self.SAMPLES), True
        seed = int(self.rng.integers(1, 2**31)) if kind == "seeded" else None
        return QueryRequest(value=speeding_query(), kind="pr",
                            samples=self.SAMPLES, seed=seed), False

    def _keep_for_check(self, request, result) -> None:
        if request.seed is not None and len(self.seeded) < self.MAX_CHECKS:
            self.seeded.append((request, result))

    def setup(self) -> None:
        from repro.service import Service

        async def warm():
            async with Service(engine="fused") as service:
                for kind in ("pooled", "seeded", "slow"):
                    await service.submit(self._request(kind)[0])

        asyncio.run(warm())

    def check(self) -> tuple[int, int]:
        """Seeded answers must equal solo ``evaluate_request`` bit for bit."""
        from repro.service import evaluate_request

        mismatches = 0
        for request, result in self.seeded:
            solo = evaluate_request(request, engine="fused")
            mismatches += (solo.value != result.value
                           or solo.extra["evidence"] != result.extra["evidence"])
        return len(self.seeded), mismatches


class ServiceLoad(_ServiceMix):
    """Closed loop at fixed concurrency into ``Service(engine="fused")``.

    Each round builds ``len(MIX)`` fresh request graphs (untimed), submits
    them all at once, as that many callers would, and awaits every answer.
    Every round has the same mix, so the coalescer sees the same batch.  A
    request's latency runs from the round's submission to its answer; one
    op is one answered request.
    """

    name = "service"
    MIX = ("pooled",) * 24 + ("seeded",) * 3 + ("slow",) * 3
    #: Rounds per closed-loop segment.
    SEGMENT_ROUNDS = 12
    #: Host-speed probes after each round (between rounds nothing runs).
    #: They run on a thread of their own, timed from the hand-off to the
    #: return, because the service hands every batch to a worker thread
    #: and the cost of that hand-off drifts with the host as well.
    PROBES_PER_ROUND = 2

    async def _rounds(self, service, seconds: float, phase: Phase, tracer,
                      executor) -> None:
        waits = phase.detail["waits"] = []
        latencies = phase.raw_latencies

        async def one(request, slow, sent_at):
            try:
                result = await service.submit(request)
            except Exception:  # noqa: BLE001 - counted, the run goes on
                phase.failed += 1
                return
            latencies.append(perf_counter() - sent_at)
            phase.decisions += 1
            phase.wrong_decisions += result.value != self.exact[slow]
            if tracer is not None and request.uid in tracer.batch_started:
                waits.append(tracer.batch_started.pop(request.uid) - sent_at)
            self._keep_for_check(request, result)

        scale = HostScale(NOMINAL_THREAD_PROBE_S)
        samples_before = engine_samples()
        end = perf_counter() + seconds
        rounds = 0
        while True:
            t = perf_counter()
            requests = [self._request(kind) for kind in self.MIX]
            end += perf_counter() - t
            sent_at = perf_counter()
            if sent_at >= end:
                break
            await asyncio.gather(*(one(request, slow, sent_at)
                                   for request, slow in requests))
            phase.raw_wall_s += perf_counter() - sent_at
            phase.attempted += len(requests)
            rounds += 1
            await scale.probe_in_thread(executor, self.PROBES_PER_ROUND)
            if rounds % self.SEGMENT_ROUNDS == 0:
                segment = self.SEGMENT_ROUNDS * len(self.MIX)
                phase.segment_p50s.append(float(np.median(latencies[-segment:])))
        phase.engine_samples = engine_samples() - samples_before
        phase.clock_wall_s = phase.raw_wall_s
        phase.wall_latencies = phase.raw_latencies
        phase.rescale(scale)

    def run(self, seconds: float, tracer=None) -> Phase:
        from repro.service import Service

        phase = Phase()

        async def serve():
            async with Service(engine="fused") as service:
                await self._rounds(service, seconds, phase, tracer, executor)
                return service.stats()

        executor = ThreadPoolExecutor(max_workers=1)
        try:
            self.service_stats = asyncio.run(serve())
        finally:
            executor.shutdown(wait=True)
        return phase


class ServiceLadder(_ServiceMix):
    """Open-loop Poisson arrivals from one process at a fixed rate ladder.

    80% of requests are pooled, 10% seeded and 10% have the slow shape.
    Every request's graph is built before its rate phase starts.  The
    reference rate gets the longest phase; ``ops_per_s`` (goodput),
    ``op_p50_ms`` and ``op_p99_ms`` are read there, ``max_rate_rps`` over
    the ladder.  Not among the gated workloads (``NOTES.md`` says why).
    """

    name = "service_ladder"
    REFERENCE_RPS = 1000
    LADDER_RPS = (1000, 2000, 3000, 4000, 6000)
    REFERENCE_SHARE = 0.5
    LIMIT_S = 0.200
    SEEDED_SHARE = 0.1
    SLOW_SHARE = 0.1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.phases: list[dict] = []

    def _draw_request(self):
        u = self.rng.random()
        if u < self.SLOW_SHARE:
            return self._request("slow")
        return self._request(
            "seeded" if u < self.SLOW_SHARE + self.SEEDED_SHARE else "pooled")

    async def _phase(self, service, rate: float, seconds: float,
                     tracer=None, reference: bool = False) -> dict:
        """Send Poisson arrivals at ``rate`` for ``seconds``; await all."""
        from repro.service.errors import ServiceOverloaded

        gc_mark = len(tracer.gc_pauses) if tracer is not None else 0
        gaps = self.rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
        due = np.cumsum(gaps)
        due = due[due < seconds]
        requests = [self._draw_request() for _ in range(len(due))]
        outcome = dict(rate=rate, seconds=seconds, sent=len(due), succeeded=0,
                       failed=0, shed=0, within_limit=0, decisions=0,
                       wrong_decisions=0)
        latencies: list[float] = []
        late: list[float] = []
        waits: list[float] = []

        async def one(request, slow, due_at):
            try:
                result = await service.submit(request)
            except ServiceOverloaded:
                outcome["shed"] += 1
                return
            except Exception:  # noqa: BLE001 - counted, the phase goes on
                outcome["failed"] += 1
                return
            done = perf_counter()
            latency = done - due_at
            latencies.append(latency)
            outcome["succeeded"] += 1
            outcome["within_limit"] += latency <= self.LIMIT_S
            outcome["decisions"] += 1
            outcome["wrong_decisions"] += result.value != self.exact[slow]
            if tracer is not None and request.uid in tracer.batch_started:
                waits.append(tracer.batch_started.pop(request.uid) - sent_at[request.uid])
            if reference:
                self._keep_for_check(request, result)

        # The graphs above exist only because the generator builds them
        # ahead of time; a live service would receive them over time.
        # Keep them out of every collection, so the pauses measured are
        # the program's own.
        gc.collect()
        gc.freeze()
        if tracer is not None:
            # Pauses while the inputs were built, and the collection above,
            # are the benchmark's; only pauses inside the phase count.
            del tracer.gc_pauses[gc_mark:]
        sent_at: dict[int, float] = {}
        # Pending requests only: a finished task is dropped at once.
        pending: set = set()
        loop_start = perf_counter()
        i = 0
        while i < len(due):
            now = perf_counter() - loop_start
            while i < len(due) and due[i] <= now:
                request, slow = requests[i]
                # Let each request die once answered, as it would in a
                # live service, so its compiled plan does not pile up.
                requests[i] = None
                late.append(now - due[i])
                sent_at[request.uid] = perf_counter()
                task = asyncio.ensure_future(one(request, slow, loop_start + due[i]))
                pending.add(task)
                task.add_done_callback(pending.discard)
                i += 1
            if i < len(due):
                await asyncio.sleep(max(0.0, due[i] - (perf_counter() - loop_start)))
        outstanding_at_last_send = len(pending)
        while pending:
            await asyncio.wait(set(pending))
        outcome["wall_s"] = perf_counter() - loop_start
        gc.unfreeze()
        lat = np.asarray(latencies)
        outcome["p50_ms"] = quantile_ms(lat, 0.5) if len(lat) else float("inf")
        outcome["tail_ms"] = tail_latency(lat)[0] * 1e3 if len(lat) else float("inf")
        outcome["backlog"] = outstanding_at_last_send
        # Sustained: the latency limit holds at the tail, nothing failed or
        # was shed, and the queue left behind by the last send is no more
        # than the limit's worth of arrivals (a growing backlog is not).
        outcome["sustained"] = bool(
            outcome["tail_ms"] <= self.LIMIT_S * 1e3
            and outcome["failed"] == 0 and outcome["shed"] == 0
            and outstanding_at_last_send <= rate * self.LIMIT_S)
        outcome["late_ms"] = [x * 1e3 for x in late]
        outcome["latencies"] = latencies
        outcome["waits"] = waits
        return outcome

    def run(self, seconds: float, tracer=None) -> Phase:
        from repro.service import Service

        self.phases = []
        others = [r for r in self.LADDER_RPS if r != self.REFERENCE_RPS]
        ref_s = seconds * self.REFERENCE_SHARE
        other_s = (seconds - ref_s) / len(others)

        async def ladder():
            async with Service(engine="fused") as service:
                for rate in self.LADDER_RPS:
                    reference = rate == self.REFERENCE_RPS
                    before = engine_samples()
                    outcome = await self._phase(
                        service, rate, ref_s if reference else other_s,
                        tracer, reference)
                    outcome["engine_samples"] = engine_samples() - before
                    self.phases.append(outcome)
                return service.stats()

        self.service_stats = asyncio.run(ladder())
        ref = next(p for p in self.phases if p["rate"] == self.REFERENCE_RPS)
        phase = Phase(
            wall_s=ref["wall_s"],
            latencies=ref["latencies"],
            raw_wall_s=ref["wall_s"],
            raw_latencies=ref["latencies"],
            clock_wall_s=ref["wall_s"],
            wall_latencies=ref["latencies"],
            attempted=ref["sent"],
            failed=ref["failed"] + ref["shed"],
            decisions=ref["decisions"],
            wrong_decisions=ref["wrong_decisions"],
            engine_samples=ref["engine_samples"],
        )
        phase.detail["goodput"] = ref["within_limit"]
        sustained = [p["rate"] for p in self.phases if p["sustained"]]
        phase.detail["max_rate_rps"] = max(sustained, default=0)
        phase.detail["waits"] = [w for p in self.phases for w in p["waits"]]
        phase.detail["late_ms"] = [x for p in self.phases for x in p["late_ms"]]
        return phase


def tail_quantile(count: int, preferred: float = 0.99, beyond: int = 10) -> float:
    """The highest of ``preferred`` and lower quantiles with at least
    ``beyond`` samples above it (p99 needs 1,000 samples)."""
    if count <= beyond:
        return 0.5
    return min(preferred, 1.0 - beyond / count)


def quantile_ms(values, q: float) -> float:
    """The ``q`` quantile of latencies in seconds, in milliseconds (0 if none)."""
    return float(np.quantile(np.asarray(values), q) * 1e3) if len(values) else 0.0


def tail_latency(latencies) -> tuple[float, str]:
    """The tail latency in seconds, and how it was taken: the highest of
    p99 and lower quantiles of all latencies with ten samples beyond it.

    All latencies of the run, not a median over windows: on ``service``
    every 80th round or so waits for a gen-2 collection of 60 to 90 ms,
    about 1.2% of requests, and a median of 1,000-request window p99s
    flipped between stalled and clean windows from one run to the next.
    """
    count = len(latencies)
    q = tail_quantile(count)
    return float(np.quantile(latencies, q)), f"p{100 * q:.2f} of {count} latencies"


WORKLOADS = {w.name: w for w in (Life, Gps, Session, ServiceLoad, ServiceLadder)}
