"""Which program entry points the traced run wraps, and the per-layer metrics.

Every entry below names a module, the attribute path inside it, and the
span name it records under.  Names imported into several modules are
listed once per consumer, under one span name.  Entries whose module or
attribute no longer exists are skipped; their metrics then read zero.

``LAYER_MAP`` records, for every per-layer metric, the end-to-end metric
and workload it is expected to move.  Sums over the measured window are
reported per operation (a cold round, or a warm request); gauges and
event counts (``shed``, ``hedges`` ...) are window totals.
"""

from __future__ import annotations

import importlib
import threading

import numpy as np

from stats import percentile_ms, tail_percentile
from tracer import Tracer


def _rows(array) -> int:
    return int(np.shape(array)[0])


def _knn_pairs(args, kwargs, result):
    geometry, queries = args[1], args[2]
    return {"pairs": _rows(queries) * int(geometry.k)}


def _grid_pairs(args, kwargs, result):
    return {"pairs": int(np.size(result)) * int(args[1].k)}


def _brute_force_pairs(args, kwargs, result):
    # point-query pairs a full brute-force scan compares, worked out from
    # the argument shapes: not a count of what the program evaluates
    points, queries = args[0], np.atleast_2d(args[1])
    return {"brute_force_pairs": _rows(points) * _rows(queries)}


def _tree_points(args, kwargs, result):
    return {"points_loaded": _rows(args[0])}


def _subtree_points(args, kwargs, result):
    return {"points_loaded": _rows(args[1])}


def _io_counts(args, kwargs, result):
    cost = result.io_cost
    return {"seeks": cost.seeks, "transfers": cost.transfers}


def _dispatch_bytes(args, kwargs, result):
    workload = args[2]
    return {"bytes": sum(np.asarray(getattr(workload, field)).nbytes
                         for field in ("queries", "radii", "query_ids"))}


#: (module, attribute path, span name, counter function)
WRAPS = [
    ("repro.workload.queries", "exact_knn_radii",
     "workload.exact_knn_radii", _brute_force_pairs),
    ("repro.disk.pagefile", "PointFile.read_range", "disk.pagefile.read", None),
    ("repro.disk.pagefile", "PointFile.read_point", "disk.pagefile.read", None),
    ("repro.disk.pagefile", "PointFile.write_range",
     "disk.pagefile.write", None),
    ("repro.core.cutoff", "scan_and_sample",
     "core.sampling_io.scan_and_sample", None),
    ("repro.core.resampled", "scan_and_sample",
     "core.sampling_io.scan_and_sample", None),
    ("repro.core.cutoff", "build_upper_tree",
     "core.phases.build_upper_tree", None),
    ("repro.core.resampled", "build_upper_tree",
     "core.phases.build_upper_tree", None),
    ("repro.core.phases", "build_tree", "rtree.bulkload.build_tree",
     _tree_points),
    ("repro.rtree.tree", "build_tree", "rtree.bulkload.build_tree",
     _tree_points),
    ("repro.rtree.sstree", "build_tree", "rtree.bulkload.build_tree",
     _tree_points),
    ("repro.core.resampled", "build_subtree", "rtree.bulkload.build_subtree",
     _subtree_points),
    ("repro.core.minindex", "count_accesses", "core.counting.count_accesses",
     None),
    ("repro.core.cutoff", "count_accesses", "core.counting.count_accesses",
     None),
    ("repro.core.resampled", "count_accesses",
     "core.counting.count_accesses", None),
    ("repro.service.artifacts", "count_accesses",
     "core.counting.count_accesses", None),
    ("repro.core.minindex", "MiniIndexModel.predict", "core.minindex",
     _io_counts),
    ("repro.core.cutoff", "CutoffModel.predict", "core.cutoff", _io_counts),
    ("repro.core.resampled", "ResampledModel.predict", "core.resampled",
     _io_counts),
    ("repro.service.server", "fit_model", "service.artifacts.fit_model",
     None),
    ("repro.service.artifacts", "FittedModel.predict",
     "service.artifacts.predict", None),
    ("repro.service.artifacts", "FittedModel.predict_many",
     "service.artifacts.predict", None),
    ("repro.service.server", "PredictionService.submit", "service.submit",
     None),
    # a worker's busy time: serving one claimed batch, or one request
    # when coalescing is off (nested calls are counted once)
    ("repro.service.server", "PredictionService._serve_claimed",
     "service.worker.serve", None),
    ("repro.service.server", "PredictionService._serve_one",
     "service.worker.serve", None),
    ("repro.cluster.cluster", "PredictionCluster.predict", "cluster.predict",
     None),
    ("repro.cluster.routing", "Router.dispatch", "cluster.routing.dispatch",
     _dispatch_bytes),
]

#: kernel methods, wrapped on the class of the kernel in use
KERNEL_WRAPS = [
    ("count_knn", "kernels.count_knn", _knn_pairs),
    ("count_grid", "kernels.count_grid", _grid_pairs),
]

#: per-layer metric -> (unit, the end-to-end metric and workload it moves)
LAYER_MAP = {
    "workload.exact_knn_radii.s": (
        "s", "latency_p50_ms on cold_texture60 (the radii phase)"),
    "workload.exact_knn_radii.brute_force_pairs": (
        "count", "latency_p50_ms on cold_texture60 (the radii phase); "
        "points x queries from the argument shapes, not a measured count"),
    "disk.pagefile.read_s": (
        "s", "latency_p50_ms on cold_texture60 (cutoff and resampled)"),
    "disk.pagefile.write_s": (
        "s", "latency_p50_ms on cold_texture60 (cutoff and resampled)"),
    "disk.seeks": ("count", "simulated I/O of cold_texture60, exact"),
    "disk.transfers": ("count", "simulated I/O of cold_texture60, exact"),
    "disk.cutoff.seeks": ("count", "simulated I/O of the cutoff method"),
    "disk.cutoff.transfers": ("count", "simulated I/O of the cutoff method"),
    "disk.resampled.seeks": (
        "count", "simulated I/O of the resampled method"),
    "disk.resampled.transfers": (
        "count", "simulated I/O of the resampled method"),
    "core.sampling_io.scan_and_sample.s": (
        "s", "latency_p50_ms on cold_texture60 (cutoff and resampled)"),
    "core.phases.build_upper_tree.s": (
        "s", "latency_p50_ms on cold_texture60 (cutoff and resampled)"),
    "rtree.bulkload.build_tree.s": (
        "s", "latency_p50_ms on cold_texture60 (mini, upper trees)"),
    "rtree.bulkload.build_subtree.s": (
        "s", "latency_p50_ms on cold_texture60 (resampled lower trees)"),
    "rtree.bulkload.points_loaded": (
        "count", "latency_p50_ms on cold_texture60"),
    "rtree.bulkload.calls": ("count", "latency_p50_ms on cold_texture60"),
    "setup.rtree.bulkload.build_tree.s": (
        "s", "setup_s on warm_texture60; warm request metrics unmoved"),
    "core.minindex.s": ("s", "latency_p50_ms on cold_texture60 (mini)"),
    "core.cutoff.s": ("s", "latency_p50_ms on cold_texture60 (cutoff)"),
    "core.resampled.s": (
        "s", "latency_p50_ms on cold_texture60 (resampled)"),
    "core.minindex.self_s": ("s", "latency_p50_ms on cold_texture60"),
    "core.cutoff.self_s": ("s", "latency_p50_ms on cold_texture60"),
    "core.resampled.self_s": (
        "s", "latency_p50_ms on cold_texture60 (box assignment lives here)"),
    "core.resampled.self_and_bulkload_share": (
        "ratio", "share of the resampled method in its own self time plus "
        "lower-tree bulk loading"),
    "core.minindex.abs_rel_err": ("ratio", "accuracy check of cold_texture60"),
    "core.cutoff.abs_rel_err": ("ratio", "accuracy check of cold_texture60"),
    "core.resampled.abs_rel_err": (
        "ratio", "accuracy check of cold_texture60"),
    "kernels.count_knn.s": (
        "s", "latency_p50_ms on cold_texture60 (mini, cutoff); req_per_s "
        "and latency on warm_texture60; no change on warm_routed_small"),
    "kernels.count_knn.calls": ("count", "as kernels.count_knn.s"),
    "kernels.count_knn.pairs": ("count", "as kernels.count_knn.s"),
    "kernels.count_grid.s": ("s", "as kernels.count_knn.s, fused grids"),
    "kernels.pairs_per_s": ("1/s", "as kernels.count_knn.s"),
    "kernels.share_of_cpu": (
        "ratio", "kernel wall time over process CPU time: most of the "
        "busy time on warm_texture60"),
    "kernels.share_of_latency": (
        "ratio", "kernel wall time over summed request latency: small on "
        "warm_routed_small"),
    "kernels.share_of_worker_busy": (
        "ratio", "kernel wall time over service worker busy time: most of "
        "it on warm_texture60"),
    "service.queue_wait_ms.p50": (
        "ms", "latency and req_per_s on both warm workloads"),
    "service.queue_wait_ms.p99": (
        "ms", "latency and req_per_s on both warm workloads"),
    "service.exec_ms.p50": (
        "ms", "latency and req_per_s on both warm workloads"),
    "service.worker.busy_s": (
        "s", "req_per_s and cpu_ms_per_req on both warm workloads"),
    "service.batch.mean_size": (
        "count", "batching pays on warm_texture60; the coalesce window "
        "costs on warm_routed_small"),
    "service.batch.dispatched": ("count", "as service.batch.mean_size"),
    "service.shed": ("count", "failures on both warm workloads"),
    "service.refused": ("count", "failures on both warm workloads"),
    "service.artifacts.fit_model.s": (
        "s", "setup_s on both warm workloads"),
    "service.artifacts.predict.s": (
        "s", "req_per_s on both warm workloads"),
    "cluster.predict.self_ms": (
        "ms", "latency_p50_ms and peak_rss_mb on warm_routed_small"),
    "cluster.routing.dispatch_ms.p50": (
        "ms", "latency on warm_routed_small"),
    "cluster.routing.hedges": ("count", "latency on warm_routed_small"),
    "cluster.routing.failovers": ("count", "latency on warm_routed_small"),
    "cluster.routing.legs_retained": (
        "count", "peak_rss_mb on warm_routed_small (Router leg history)"),
    "cluster.routing.bytes_per_dispatch": (
        "bytes", "latency_p50_ms on warm_routed_small"),
    "trace.spans": ("count", "spans recorded in the traced window"),
    "trace.overhead_cpu_ms_per_req": (
        "ms", "traced minus untraced process CPU time per operation"),
    "trace.overhead_latency_p50_ms": (
        "ms", "traced minus untraced latency_p50_ms"),
}


def _resolve(module_name: str, path: str):
    """``(owner, attribute)`` for a dotted path, or ``None`` if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner, attr


def install(tracer: Tracer) -> list[str]:
    """Wrap every entry point that exists; returns the wrapped paths."""
    wrapped = []
    for module_name, path, name, counts in WRAPS:
        target = _resolve(module_name, path)
        if target is not None and tracer.wrap(*target, name, counts=counts):
            wrapped.append(f"{module_name}.{path}")
    registry = importlib.import_module("repro.kernels.registry")
    kernel_class = type(registry.get_kernel())
    for attr, name, counts in KERNEL_WRAPS:
        if tracer.wrap(kernel_class, attr, name, counts=counts):
            wrapped.append(f"{kernel_class.__name__}.{attr}")
    return wrapped


class ResponseLog:
    """Service responses seen by clients and the router, once each.

    Wraps ``PendingPrediction.result`` (an observer, not a span): the
    router may read one leg's response several times.
    """

    def __init__(self, tracer: Tracer):
        self._lock = threading.Lock()
        self._seen: dict[int, object] = {}
        self.responses: list = []
        target = _resolve("repro.service.server", "PendingPrediction.result")
        if target is not None:
            tracer.wrap(*target, "service.result", observe=self._observe,
                        span=False)

    def _observe(self, args, kwargs, response) -> None:
        with self._lock:
            if id(args[0]) not in self._seen:
                self._seen[id(args[0])] = args[0]
                self.responses.append(response)


def layer_metrics(tracer: Tracer, *, ops: int, window_cpu_s: float,
                  latency_sum_s: float, n_setups: int, service_delta: dict,
                  router_delta: dict, responses: list,
                  extra: dict) -> dict[str, float]:
    """Every per-layer metric from one traced run.

    ``ops`` is the number of operations the window completed, the
    divisor of every per-operation sum.  ``service_delta`` and
    ``router_delta`` are the program's own counters over the window;
    ``extra`` carries values the workload measured itself (accuracy,
    overhead).
    """
    window = ("window",)
    both = ("setup", "window")
    per_op = 1.0 / max(ops, 1)
    own = tracer.self_s_by_name(window)

    def total(name):
        return tracer.total_s(name, window)

    def count(name):
        return tracer.counter(name, window)

    kernel_s = total("kernels.count_knn") + total("kernels.count_grid")
    kernel_pairs = (count("kernels.count_knn.pairs")
                    + count("kernels.count_grid.pairs"))
    resampled_s = total("core.resampled")
    waits = np.array([r.queue_wait_s for r in responses])
    execs = np.array([r.latency_s - r.queue_wait_s for r in responses])
    dispatch = np.array([s.duration for s in tracer.select(
        "cluster.routing.dispatch", window)])
    tail = tail_percentile(waits.size) or 50.0  # p99 from 1,000 waits
    served = tracer.select("service.worker.serve", window)
    served_ids = {s.sid for s in served}
    busy_s = sum(s.duration for s in served if s.parent not in served_ids)
    batches = service_delta.get("batches_dispatched", 0)
    metrics = {
        "workload.exact_knn_radii.s": total("workload.exact_knn_radii"),
        "workload.exact_knn_radii.brute_force_pairs":
            count("workload.exact_knn_radii.brute_force_pairs"),
        "disk.pagefile.read_s": total("disk.pagefile.read"),
        "disk.pagefile.write_s": total("disk.pagefile.write"),
        "disk.seeks": sum(count(f"{m}.seeks") for m in (
            "core.minindex", "core.cutoff", "core.resampled")),
        "disk.transfers": sum(count(f"{m}.transfers") for m in (
            "core.minindex", "core.cutoff", "core.resampled")),
        "disk.cutoff.seeks": count("core.cutoff.seeks"),
        "disk.cutoff.transfers": count("core.cutoff.transfers"),
        "disk.resampled.seeks": count("core.resampled.seeks"),
        "disk.resampled.transfers": count("core.resampled.transfers"),
        "core.sampling_io.scan_and_sample.s":
            total("core.sampling_io.scan_and_sample"),
        "core.phases.build_upper_tree.s": total("core.phases.build_upper_tree"),
        "rtree.bulkload.build_tree.s": total("rtree.bulkload.build_tree"),
        "rtree.bulkload.build_subtree.s":
            total("rtree.bulkload.build_subtree"),
        "rtree.bulkload.points_loaded":
            count("rtree.bulkload.build_tree.points_loaded")
            + count("rtree.bulkload.build_subtree.points_loaded"),
        "rtree.bulkload.calls": count("rtree.bulkload.build_tree.calls")
            + count("rtree.bulkload.build_subtree.calls"),
        "core.minindex.s": total("core.minindex"),
        "core.cutoff.s": total("core.cutoff"),
        "core.resampled.s": resampled_s,
        "core.minindex.self_s": own["core.minindex"],
        "core.cutoff.self_s": own["core.cutoff"],
        "core.resampled.self_s": own["core.resampled"],
        "kernels.count_knn.s": total("kernels.count_knn"),
        "kernels.count_knn.calls": count("kernels.count_knn.calls"),
        "kernels.count_knn.pairs": count("kernels.count_knn.pairs"),
        "kernels.count_grid.s": total("kernels.count_grid"),
        "service.artifacts.predict.s": total("service.artifacts.predict"),
        "service.worker.busy_s": busy_s,
        "cluster.predict.self_ms": own["cluster.predict"] * 1e3,
        "cluster.routing.bytes_per_dispatch": (
            count("cluster.routing.dispatch.bytes") / max(dispatch.size, 1)),
    }
    # everything above is a window sum: report it per operation
    for name in list(metrics):
        if name != "cluster.routing.bytes_per_dispatch":
            metrics[name] *= per_op
    bulk_and_self = (own["core.resampled"]
                     + total("rtree.bulkload.build_subtree"))
    metrics.update({
        "setup.rtree.bulkload.build_tree.s": tracer.total_s(
            "rtree.bulkload.build_tree", ("setup",)) / max(n_setups, 1),
        "core.resampled.self_and_bulkload_share": (
            bulk_and_self / resampled_s if resampled_s else 0.0),
        "kernels.pairs_per_s": kernel_pairs / kernel_s if kernel_s else 0.0,
        "kernels.share_of_cpu": (
            kernel_s / window_cpu_s if window_cpu_s else 0.0),
        "kernels.share_of_latency": (
            kernel_s / latency_sum_s if latency_sum_s else 0.0),
        "kernels.share_of_worker_busy": kernel_s / busy_s if busy_s else 0.0,
        "service.queue_wait_ms.p50": (
            percentile_ms(waits, 50) if waits.size else 0.0),
        "service.queue_wait_ms.p99": (
            percentile_ms(waits, tail) if waits.size else 0.0),
        "service.exec_ms.p50": (
            percentile_ms(execs, 50) if execs.size else 0.0),
        "service.batch.mean_size": (
            service_delta.get("batched_requests", 0) / batches
            if batches else 0.0),
        "service.batch.dispatched": batches,
        "service.shed": service_delta.get("shed_overload", 0),
        "service.refused": count("service.submit.raised"),
        "service.artifacts.fit_model.s": tracer.total_s(
            "service.artifacts.fit_model", both) / max(n_setups, 1),
        "cluster.routing.dispatch_ms.p50": (
            percentile_ms(dispatch, 50) if dispatch.size else 0.0),
        "cluster.routing.hedges": router_delta.get("hedges", 0),
        "cluster.routing.failovers": router_delta.get("failovers", 0),
        "cluster.routing.legs_retained": router_delta.get("legs", 0),
        "trace.spans": sum(1 for s in tracer.spans if s.phase in window),
    })
    # accuracy is measured on the cold workload only
    for layer in ("core.minindex", "core.cutoff", "core.resampled"):
        metrics[f"{layer}.abs_rel_err"] = 0.0
    metrics.update(extra)
    missing = set(LAYER_MAP) - set(metrics)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: float(metrics[name]) for name in LAYER_MAP}
