"""The three benchmark workloads.

Each workload builds its inputs from the seed, times its set-up several
times, warms up, then measures closed-loop operations for a window of
at least ``seconds``.  In a traced run the window runs twice: once
untraced (the overhead baseline) and once traced.

``cold_texture60``  the paper's cold pipeline at TEXTURE60 scale: one
                    operation is a round of exact k-NN radii for a fresh
                    500-query workload followed by the mini, cutoff and
                    resampled predictions, each on a fresh simulated disk.
``warm_texture60``  one fitted tenant in a one-worker service, two
                    clients each keeping 8 requests of 32 queries in
                    flight: warm serving bound by the counting kernel.
``warm_routed_small`` a two-shard, two-replica cluster over 4,000 x 8
                    points, two clients sending one 32-query request at
                    a time: warm serving bound by per-request overhead.
"""

from __future__ import annotations

import inspect
import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stats import (
    FAILED_LATENCY_S,
    latency_samples,
    percentile_ms,
    tail_percentile,
)
from tracer import Tracer

from repro import (
    IndexCostPredictor,
    KNNWorkload,
    PredictionCluster,
    PredictionService,
    ReproError,
    TenantQuota,
    fit_model,
)
from repro.data.datasets import TEXTURE60
from repro.workload.queries import density_biased_knn_workload, exact_knn_radii

#: the serving configuration; passed only where the constructor still
#: takes the keyword, so removing the knob needs no benchmark change
SERVE_KWARGS = {"coalesce": True}

TEXTURE60_SCALE = 0.5
TEXTURE60_MEMORY = 20_000
COLD_QUERIES = 500
K_TEXTURE = 21
WARM_POOL = 512
WARM_BATCH = 32
WARM_DEPTH = 8
#: with two workers the coalescing service settles for tens of seconds
#: in one of two modes -- one worker takes every queued request while
#: the other idles, or each takes one client's -- and throughput then
#: differs by 1.7x between runs of the same code; one worker is steady
WARM_WORKERS = 1
ROUTED_POINTS = 4_000
ROUTED_DIM = 8
ROUTED_K = 5
ROUTED_POOL = 1_024
CLIENTS = 2
#: warm metrics are medians over chunks of about a second of requests,
#: so a burst of outside load moves one chunk rather than the result
WARM_CHUNK = 100
ROUTED_CHUNK = 250
#: a warm window runs until this many requests completed, so that ten
#: samples lie beyond the p99 printed for it
MIN_WARM_REQUESTS = 1_000
#: the untraced cold window runs until it holds this many rounds (about
#: 45 s): the host's speed drifts over periods of 10-20 s, and the median
#: of four 5-s rounds moved 15-25 % between runs of the same code
MIN_COLD_ROUNDS = 8
#: a traced run reports per-layer figures only, so both its cold
#: windows need just enough rounds to trace
MIN_TRACED_COLD_ROUNDS = 2
#: a window that has not met its minimum by then stops anyway
MAX_WINDOW_S = 75.0
WARMUP_S = 1.5

#: per-method accuracy EXPERIMENTS.md asserts (FIG2 for the mini-index,
#: TAB3 for cutoff and resampled): (bound on |error|, bound on error)
ACCURACY = {
    "mini": (0.10, None),
    "cutoff": (None, 0.05),
    "resampled": (0.15, None),
}
METHODS = ("mini", "cutoff", "resampled")
LAYER_OF = {"mini": "core.minindex", "cutoff": "core.cutoff",
            "resampled": "core.resampled"}


def serve_kwargs(cls) -> dict:
    accepted = inspect.signature(cls).parameters
    return {k: v for k, v in SERVE_KWARGS.items() if k in accepted}


def reset_peak_rss() -> None:
    """Restart the resident-memory high-water mark at the current size,
    so that set-up, reference and ground-truth work done before a
    window cannot set the peak read after it."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def peak_rss_mb() -> float:
    """The resident-memory high-water mark since the last reset, in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def texture60_points() -> np.ndarray:
    """The fixed dataset; the seed varies the queries, not the data."""
    return TEXTURE60.generate(scale=TEXTURE60_SCALE, seed=0)


def sliced(pool: KNNWorkload, size: int) -> list[KNNWorkload]:
    return [
        KNNWorkload(
            k=pool.k,
            query_ids=pool.query_ids[i:i + size],
            queries=pool.queries[i:i + size],
            radii=pool.radii[i:i + size],
        )
        for i in range(0, pool.n_queries - size + 1, size)
    ]


@dataclass
class Window:
    """One measured window of closed-loop operations.

    ``outcomes`` holds each operation's latency in seconds, or ``None``
    when it failed.  With a ``chunk`` size, ``marks`` holds the wall and
    CPU clocks at the start and after every ``chunk`` outcomes, and
    :meth:`end_to_end` reports medians over those chunks.
    ``peak_rss_mb`` is the process's resident-memory peak during the
    window (set for the untraced window only).
    """

    chunk: int | None = None
    outcomes: list = field(default_factory=list)
    marks: list = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0

    def start(self) -> None:
        self.marks = [(time.perf_counter(), time.process_time())]

    def record(self, latency_s: float | None) -> None:
        self.outcomes.append(latency_s)
        if self.chunk and len(self.outcomes) % self.chunk == 0:
            self.marks.append((time.perf_counter(), time.process_time()))

    def finish(self) -> None:
        wall0, cpu0 = self.marks[0]
        self.wall_s = time.perf_counter() - wall0
        self.cpu_s = time.process_time() - cpu0

    @property
    def completed(self) -> int:
        return sum(1 for x in self.outcomes if x is not None)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return self.attempted - self.completed

    @property
    def n_chunks(self) -> int:
        return len(self.marks) - 1 if self.chunk else 0

    def end_to_end(self) -> dict[str, float]:
        if not self.n_chunks:
            return _summary(self.outcomes, self.wall_s, self.cpu_s)
        chunks = [
            _summary(self.outcomes[i * self.chunk:(i + 1) * self.chunk],
                     wall1 - wall0, cpu1 - cpu0)
            for i, ((wall0, cpu0), (wall1, cpu1))
            in enumerate(zip(self.marks, self.marks[1:]))
        ]
        return {name: statistics.median(c[name] for c in chunks)
                for name in chunks[0]}

    def tail(self) -> tuple[float | None, float]:
        """The highest percentile the whole window supports, and its
        latency in milliseconds (the maximum when none is supported)."""
        samples = latency_samples(
            [x for x in self.outcomes if x is not None], self.failed)
        p = tail_percentile(samples.size)
        return p, percentile_ms(samples, 100.0 if p is None else p)


def _summary(outcomes: list, wall_s: float, cpu_s: float) -> dict:
    ok = [x for x in outcomes if x is not None]
    samples = latency_samples(ok, len(outcomes) - len(ok))
    return {
        "req_per_s": len(ok) / wall_s,
        "latency_p50_ms": percentile_ms(samples, 50),
        "cpu_ms_per_req": cpu_s / max(len(ok), 1) * 1e3,
    }


@dataclass
class Outcome:
    """What one run hands back to ``run.py``."""

    setup_s: float
    setups: int              # how many set-ups the median is over
    windows: dict            # label -> Window ("untraced", "traced")
    checks: list             # failed output checks, as messages
    lines: list              # human-readable report lines
    layer_extra: dict = field(default_factory=dict)
    #: the program's own counters over the traced window
    service_delta: dict = field(default_factory=dict)
    router_delta: dict = field(default_factory=dict)


class Checks:
    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok and len(self.failures) < 20:
            self.failures.append(message)
        return ok


def _timed_setups(build, repeats: int, tracer: Tracer | None,
                  teardown=None):
    """Run ``build`` ``repeats`` times; the median time and the last
    result.  Earlier results go to ``teardown``, outside the timing."""
    times, built = [], None
    for _ in range(repeats):
        if built is not None and teardown is not None:
            teardown(built)
        if tracer is not None:
            tracer.phase = "setup"
        start = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.phase = None
    return statistics.median(times), built


def _windows(measure, seconds: float, tracer: Tracer | None) -> dict:
    """The untraced window, and in a traced run the traced one after it."""
    reset_peak_rss()
    windows = {"untraced": measure(seconds)}
    windows["untraced"].peak_rss_mb = peak_rss_mb()
    if tracer is not None:
        tracer.phase = "window"
        try:
            windows["traced"] = measure(seconds)
        finally:
            tracer.phase = None
    return windows


# ----------------------------------------------------------------------
# cold_texture60
# ----------------------------------------------------------------------

def cold_texture60(seed: int, seconds: float, tracer: Tracer | None,
                   scratch: Path) -> Outcome:
    points = texture60_points()
    checks = Checks()

    def build():
        # the cold pipeline has no set-up of its own: each phased method
        # makes its own disk.  setup_s here is a stand-in, the predictor
        # plus the dataset on a fresh simulated disk, because every
        # workload reports every end-to-end metric
        predictor = IndexCostPredictor(dim=points.shape[1],
                                       memory=TEXTURE60_MEMORY)
        predictor.new_file(points)
        return predictor

    setups = 31
    setup_s, predictor = _timed_setups(build, setups, tracer)

    def one_round():
        """A fresh workload and the three predictions; per-phase times."""
        times = {}
        start = time.perf_counter()
        workload = predictor.make_workload(points, COLD_QUERIES, K_TEXTURE,
                                           seed=seed)
        times["radii"] = time.perf_counter() - start
        results = {}
        for method in METHODS:
            start = time.perf_counter()
            results[method] = predictor.predict(points, workload,
                                                method=method)
            times[method] = time.perf_counter() - start
        return workload, results, times

    # the warm-up round also yields the workload the truth is measured on
    workload0, results0, _ = one_round()
    truth = predictor.measure(points, workload0).mean_accesses
    errors = {}
    for method in METHODS:
        checks.expect(
            results0[method].detail.get("degradation", {}).get(
                "method_used", method) == method,
            f"{method}: the warm-up prediction degraded")
        error = results0[method].relative_error(truth)
        errors[method] = abs(error)
        abs_bound, signed_bound = ACCURACY[method]
        if abs_bound is not None:
            checks.expect(abs(error) < abs_bound,
                          f"{method}: |error| {abs(error):.4f} >= {abs_bound}")
        if signed_bound is not None:
            checks.expect(error < signed_bound,
                          f"{method}: error {error:+.4f} >= {signed_bound}")

    phase_times: dict[str, list] = {}

    def measure(min_seconds: float) -> Window:
        min_rounds = (MIN_COLD_ROUNDS if tracer is None
                      else MIN_TRACED_COLD_ROUNDS)
        # one round per chunk: throughput, like latency, is a median
        # over rounds, so one round slowed from outside moves neither
        window = Window(chunk=1)
        window.start()
        wall0 = time.perf_counter()

        def more() -> bool:
            elapsed = time.perf_counter() - wall0
            if elapsed >= MAX_WINDOW_S:
                return window.attempted < MIN_TRACED_COLD_ROUNDS
            return window.attempted < min_rounds or elapsed < min_seconds

        while more():
            start = time.perf_counter()
            try:
                workload, results, times = one_round()
            except ReproError as error:
                checks.expect(False, f"cold round raised {error!r}")
                window.record(None)
                continue
            elapsed = time.perf_counter() - start
            ok = checks.expect(
                np.array_equal(workload.radii, workload0.radii),
                "workload differs between rounds of one run")
            for method in METHODS:
                result = results[method]
                used = result.detail.get("degradation", {}).get(
                    "method_used", method)
                ok &= used == method
                ok &= checks.expect(
                    np.array_equal(result.per_query,
                                   results0[method].per_query),
                    f"{method} prediction differs between rounds")
            window.record(elapsed if ok else None)
            if ok and (tracer is None or tracer.phase is None):
                for phase, value in times.items():
                    phase_times.setdefault(phase, []).append(value)
        window.finish()
        return window

    windows = _windows(measure, seconds, tracer)
    resampled = results0["resampled"].io_cost
    lines = [
        f"truth {truth:.2f} mean leaf accesses (on-disk index, "
        f"{COLD_QUERIES} x {K_TEXTURE}-NN)",
        *(f"{name}_s {statistics.median(values):.4f} s "
          f"(median of {len(values)} rounds)"
          for name, values in phase_times.items()),
        *(f"abs_rel_err_{method} {errors[method]:.6f} ratio"
          for method in METHODS),
        f"sim_io_s {resampled.seconds():.4f} s (resampled, simulated: "
        f"{resampled.seeks} seeks, {resampled.transfers} transfers)",
    ]
    extra = {f"{LAYER_OF[m]}.abs_rel_err": errors[m] for m in METHODS}
    return Outcome(setup_s, setups, windows, checks.failures, lines, extra)


# ----------------------------------------------------------------------
# closed-loop warm clients
# ----------------------------------------------------------------------

def closed_loop(issue, collect, *, depth: int, chunk: int,
                min_seconds: float, min_requests: int) -> Window:
    """``CLIENTS`` threads, each keeping ``depth`` operations in flight.

    ``issue(client, seq)`` starts one operation and returns a handle,
    or raises :class:`ReproError` when it is refused; ``collect(handle,
    seq)`` waits for it and returns whether it succeeded.  Clients
    stop issuing once the window has lasted ``min_seconds`` and holds
    ``min_requests`` outcomes.
    """
    window = Window(chunk=chunk)
    lock = threading.Lock()
    errors: list[BaseException] = []
    window.start()
    wall0 = time.perf_counter()

    def done() -> bool:
        elapsed = time.perf_counter() - wall0
        return elapsed >= MAX_WINDOW_S or (
            elapsed >= min_seconds and window.attempted >= min_requests)

    def client(index: int) -> None:
        inflight: list = []
        seq = index
        try:
            while True:
                while len(inflight) < depth and not done():
                    started = time.perf_counter()
                    try:
                        inflight.append((started, seq, issue(index, seq)))
                    except ReproError:
                        with lock:
                            window.record(None)
                        seq += CLIENTS
                        break
                    seq += CLIENTS
                if not inflight:
                    if done():
                        return
                    continue
                started, number, handle = inflight.pop(0)
                ok = collect(handle, number)
                elapsed = time.perf_counter() - started
                with lock:
                    window.record(elapsed if ok else None)
        except BaseException as error:  # re-raised on the main thread
            errors.append(error)

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(MAX_WINDOW_S + FAILED_LATENCY_S)
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise TimeoutError("a benchmark client did not finish")
    window.finish()
    return window


def _delta(before: dict, after: dict) -> dict:
    return {key: after.get(key, 0) - before.get(key, 0) for key in after}


def _service_counters(services) -> dict:
    totals: dict[str, float] = {}
    for service in services:
        metrics = service.metrics()
        batching = metrics.get("batching", {})
        for key in ("batches_dispatched", "batched_requests"):
            totals[key] = totals.get(key, 0) + batching.get(key, 0)
        totals["shed_overload"] = (totals.get("shed_overload", 0)
                                   + metrics.get("shed_overload", 0))
    return totals


def _warm_windows(issue, collect, *, depth: int, chunk: int, seconds: float,
                  tracer: Tracer | None, services, router=None):
    """Warm up, then the measured window(s); also returns the program's
    own service and router counters over the last window."""
    closed_loop(issue, collect, depth=depth, chunk=chunk,
                min_seconds=WARMUP_S, min_requests=0)
    before = {}

    def measure(min_seconds: float) -> Window:
        before["service"] = _service_counters(services())
        before["router"] = router.metrics() if router is not None else {}
        return closed_loop(issue, collect, depth=depth, chunk=chunk,
                           min_seconds=min_seconds,
                           min_requests=MIN_WARM_REQUESTS)

    windows = _windows(measure, seconds, tracer)
    service_delta = _delta(before["service"], _service_counters(services()))
    router_delta = {}
    if router is not None:
        after = router.metrics()
        router_delta = _delta(before["router"], {
            "hedges": after.get("hedges", 0),
            "failovers": after.get("failovers", 0)})
        router_delta["legs"] = after.get("legs", 0)
    return windows, service_delta, router_delta


# ----------------------------------------------------------------------
# warm_texture60
# ----------------------------------------------------------------------

def warm_texture60(seed: int, seconds: float, tracer: Tracer | None,
                   scratch: Path) -> Outcome:
    points = texture60_points()
    rng = np.random.default_rng(seed)
    ids = rng.choice(points.shape[0], size=WARM_POOL, replace=False)
    pool = KNNWorkload(
        k=K_TEXTURE, query_ids=ids, queries=points[ids],
        radii=exact_knn_radii(points, points[ids], K_TEXTURE,
                              chunk_rows=8_192),
    )
    requests = sliced(pool, WARM_BATCH)
    predictor = IndexCostPredictor(dim=points.shape[1],
                                   memory=TEXTURE60_MEMORY)
    reference_model = fit_model(points, c_data=predictor.c_data,
                                c_dir=predictor.c_dir,
                                memory=TEXTURE60_MEMORY, seed=0)
    reference = [reference_model.predict(w).per_query for w in requests]
    checks = Checks()
    quota = TenantQuota(max_inflight=CLIENTS * WARM_DEPTH)

    def build():
        service = PredictionService(workers=WARM_WORKERS,
                                    memory=TEXTURE60_MEMORY,
                                    **serve_kwargs(PredictionService))
        service.register_tenant("texture60", points, quota=quota)
        return service.start()

    setups = 7
    setup_s, service = _timed_setups(build, setups, tracer,
                                     teardown=PredictionService.stop)
    try:
        def issue(client, seq):
            return service.submit("texture60", requests[seq % len(requests)])

        def collect(pending, seq):
            response = pending.result(FAILED_LATENCY_S)
            if response.status != "ok":
                return False
            return checks.expect(
                np.array_equal(response.result.per_query,
                               reference[seq % len(requests)]),
                f"warm response {seq} differs from FittedModel.predict")

        windows, service_delta, router_delta = _warm_windows(
            issue, collect, depth=WARM_DEPTH, chunk=WARM_CHUNK,
            seconds=seconds, tracer=tracer, services=lambda: [service])
    finally:
        service.stop()
    lines = [f"tenant leaves {reference_model.geometry.k}, "
             f"{len(requests)} distinct requests of {WARM_BATCH} queries"]
    return Outcome(setup_s, setups, windows, checks.failures, lines,
                   service_delta=service_delta, router_delta=router_delta)


# ----------------------------------------------------------------------
# warm_routed_small
# ----------------------------------------------------------------------

def blobs() -> np.ndarray:
    """Two Gaussian blobs, fixed; the seed varies the queries."""
    rng = np.random.default_rng(0)
    half = ROUTED_POINTS // 2
    return np.vstack([
        rng.normal(0.0, 1.0, size=(half, ROUTED_DIM)),
        rng.normal(6.0, 0.5, size=(ROUTED_POINTS - half, ROUTED_DIM)),
    ])


def warm_routed_small(seed: int, seconds: float, tracer: Tracer | None,
                      scratch: Path) -> Outcome:
    data = blobs()
    rng = np.random.default_rng(seed)
    tuning = density_biased_knn_workload(data, 64, ROUTED_K, rng)
    requests = sliced(
        density_biased_knn_workload(data, ROUTED_POOL, ROUTED_K, rng),
        WARM_BATCH)
    checks = Checks()
    builds = itertools.count()

    def build():
        # every build gets an empty artifact directory: a warm start from
        # an earlier build's artifacts would skip the fits being timed
        return PredictionCluster(
            data, tuning, artifact_root=scratch / f"cluster-{next(builds)}",
            n_shards=2, n_replicas=2, replication=2, workers_per_replica=1,
            **serve_kwargs(PredictionCluster))

    setups = 31
    setup_s, cluster = _timed_setups(build, setups, tracer,
                                     teardown=PredictionCluster.stop)
    try:
        models = {
            shard: fit_model(
                cluster.shard_points[shard], c_data=config.c_data,
                c_dir=config.c_dir, memory=cluster.memory,
                seed=cluster.fit_seed)
            for shard, config in cluster.shard_configs.items()
        }
        reference = []
        for workload in requests:
            expected = np.full(workload.n_queries, np.nan)
            shards = cluster.shard_of(workload.queries)
            for shard in np.unique(shards):
                mask = shards == shard
                sub = KNNWorkload(k=workload.k,
                                  query_ids=workload.query_ids[mask],
                                  queries=workload.queries[mask],
                                  radii=workload.radii[mask])
                expected[mask] = models[int(shard)].predict(sub).per_query
            reference.append(expected)

        def issue(client, seq):
            return cluster.predict(requests[seq % len(requests)])

        def collect(prediction, seq):
            if any(r.status != "ok" for r in prediction.responses):
                return False
            return checks.expect(
                np.array_equal(prediction.per_query,
                               reference[seq % len(requests)]),
                f"routed response {seq} differs from FittedModel.predict")

        windows, service_delta, router_delta = _warm_windows(
            issue, collect, depth=1, chunk=ROUTED_CHUNK, seconds=seconds,
            tracer=tracer,
            services=lambda: [r.service for r in cluster.replicas.values()
                              if r.service is not None],
            router=cluster.router)
    finally:
        cluster.stop()
    lines = [f"shards {sorted(cluster.shard_configs)}, leaves per shard "
             f"{[m.geometry.k for m in models.values()]}"]
    return Outcome(setup_s, setups, windows, checks.failures, lines,
                   service_delta=service_delta, router_delta=router_delta)


WORKLOADS = {
    "cold_texture60": cold_texture60,
    "warm_texture60": warm_texture60,
    "warm_routed_small": warm_routed_small,
}
