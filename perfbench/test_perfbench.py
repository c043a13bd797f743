"""Tests of the benchmark's own arithmetic and plumbing.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from stats import (  # noqa: E402
    FAILED_LATENCY_S,
    check_metric_name,
    tail_percentile,
)
from tracer import Span, Tracer, self_times  # noqa: E402

from repro.errors import ServiceOverloadedError  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- self time ----------------------------------------------------------

def test_self_time_subtracts_children_once():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 1, "window"),
        Span(1, "a", 1.0, 4.0, 0, 1, "window"),
        Span(2, "b", 3.0, 6.0, 0, 1, "window"),    # overlaps a
        Span(3, "a.leaf", 2.0, 3.0, 1, 1, "window"),
        Span(4, "late", 9.0, 12.0, 0, 1, "window"),  # runs past root
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_nests_spans_per_thread():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.phase = "window"
    outer = tracer.begin("outer")
    clock.now = 1.0
    inner = tracer.begin("inner")
    parents = {}

    def other_thread():
        token = tracer.begin("worker")   # no open span on this thread
        parents["worker"] = token[3]
        tracer.end(token)

    thread = threading.Thread(target=other_thread)
    thread.start()
    thread.join(5)
    assert not thread.is_alive()
    clock.now = 3.0
    tracer.end(inner)
    clock.now = 4.0
    tracer.end(outer)
    assert parents["worker"] is None
    assert tracer.self_s_by_name(("window",))["outer"] == pytest.approx(2.0)
    assert tracer.total_s("inner", ("window",)) == pytest.approx(2.0)


def test_tracer_stacks_survive_many_threads():
    tracer = Tracer()
    tracer.phase = "window"

    class Box:
        def leaf(self):
            return 1

        def node(self):
            return self.leaf() + self.leaf()

    assert tracer.wrap(Box, "leaf", "leaf")
    assert tracer.wrap(Box, "node", "node")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [Box().node()
                                                    for _ in range(200)])
                   for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        tracer.unwrap_all()
    by_sid = {s.sid: s for s in tracer.spans}
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 8 * 200 * 2
    for leaf in leaves:
        parent = by_sid[leaf.parent]
        assert parent.name == "node" and parent.thread == leaf.thread
    assert tracer.counter("node.calls", ("window",)) == 8 * 200


def test_missing_entry_point_records_nothing_and_unwrap_restores():
    class Base:
        def inherited(self):
            return "base"

    class Child(Base):
        def own(self):
            return "own"

    tracer = Tracer()
    assert not tracer.wrap(Child, "gone", "gone")
    assert tracer.wrap(Child, "inherited", "inherited")
    assert tracer.wrap(Child, "own", "own")
    tracer.phase = "window"
    assert Child().inherited() == "base" and Child().own() == "own"
    tracer.unwrap_all()
    assert "inherited" not in vars(Child)
    assert Child.own.__name__ == "own" and not hasattr(Child.own,
                                                       "__wrapped__")
    assert tracer.counter("gone.calls", ("window",)) == 0
    assert tracer.counter("own.calls", ("window",)) == 1


def test_layer_metrics_read_zero_for_layers_a_workload_bypasses():
    tracer = Tracer()
    metrics = layers.layer_metrics(
        tracer, ops=1, window_cpu_s=1.0, latency_sum_s=1.0, n_setups=1,
        service_delta={}, router_delta={}, responses=[],
        extra={"trace.overhead_cpu_ms_per_req": 0.0,
               "trace.overhead_latency_p50_ms": 0.0})
    assert set(metrics) == set(layers.LAYER_MAP)
    assert all(value == 0.0 for value in metrics.values())


def test_worker_busy_time_counts_nested_serves_once():
    tracer = Tracer()
    tracer.spans = [
        # a claimed batch serving one member alone, then a fused kernel
        Span(0, "service.worker.serve", 0.0, 10.0, None, 1, "window"),
        Span(1, "service.worker.serve", 1.0, 3.0, 0, 1, "window"),
        Span(2, "kernels.count_knn", 4.0, 9.0, 0, 1, "window"),
        # the other worker, coalescing off
        Span(3, "service.worker.serve", 0.0, 5.0, None, 2, "window"),
        Span(4, "kernels.count_knn", 1.0, 4.0, 3, 2, "window"),
    ]
    metrics = layers.layer_metrics(
        tracer, ops=3, window_cpu_s=1.0, latency_sum_s=1.0, n_setups=1,
        service_delta={}, router_delta={}, responses=[],
        extra={"trace.overhead_cpu_ms_per_req": 0.0,
               "trace.overhead_latency_p50_ms": 0.0})
    assert metrics["service.worker.busy_s"] == pytest.approx(15.0 / 3)
    assert metrics["kernels.share_of_worker_busy"] == pytest.approx(8.0 / 15)


def test_peak_rss_covers_only_what_follows_a_reset():
    block = np.ones((16, 1 << 20))  # 128 MiB, every page touched
    before = workloads.peak_rss_mb()
    del block
    workloads.reset_peak_rss()
    assert workloads.peak_rss_mb() < before - 64


# -- percentile rule and failures ---------------------------------------

@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (100, 90.0), (999, 95.0), (1_000, 99.0),
    (9_999, 99.0), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_failed_operations_miss_every_latency_limit():
    window = workloads.Window()
    window.start()
    for _ in range(989):
        window.record(0.001)
    for _ in range(11):
        window.record(None)
    window.finish()
    assert window.failed == 11 and window.completed == 989
    assert window.tail() == (99.0, pytest.approx(FAILED_LATENCY_S * 1e3))
    assert window.end_to_end()["latency_p50_ms"] == pytest.approx(1.0)


def test_refused_requests_count_as_failed():
    calls = {"n": 0}

    def issue(client, seq):
        calls["n"] += 1
        if calls["n"] % 4 == 0:
            raise ServiceOverloadedError(1, 1)
        return seq

    window = workloads.closed_loop(issue, lambda handle, seq: True,
                                   depth=2, chunk=100, min_seconds=0.0,
                                   min_requests=1_000)
    assert window.failed > window.attempted // 10
    assert window.attempted == window.completed + window.failed >= 1_000
    assert window.n_chunks >= 10
    assert window.tail() == (99.0, pytest.approx(FAILED_LATENCY_S * 1e3))


def test_chunked_metrics_are_medians_over_chunks():
    window = workloads.Window(chunk=2)
    window.marks = [(0.0, 0.0), (1.0, 0.5), (3.0, 0.6), (4.0, 1.6)]
    window.outcomes = [0.1, 0.1, 0.2, 0.2, 0.3, 0.3]
    e2e = window.end_to_end()
    assert window.n_chunks == 3
    assert e2e["req_per_s"] == pytest.approx(2.0)
    assert e2e["latency_p50_ms"] == pytest.approx(200.0)
    assert e2e["cpu_ms_per_req"] == pytest.approx(250.0)


# -- names and the benchmark file ---------------------------------------

def test_metric_names_match_the_pattern():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    for name in names:
        assert check_metric_name(name) == name
        assert all(c.isalnum() or c in "_.-" for c in name)
    for bad in ("", "has space", ".leading", "x" * 65, "p99%", "ü"):
        with pytest.raises(ValueError):
            check_metric_name(bad)


def test_benchmark_file_matches_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        run.END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: unit for name, (unit, _) in layers.LAYER_MAP.items()}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        workloads.WORKLOADS)
    assert BENCHMARK["end_to_end"][0]["name"] == "setup_s"


def test_serving_knob_is_passed_only_where_accepted():
    class WithKnob:
        def __init__(self, *, coalesce=False):
            pass

    class WithoutKnob:
        def __init__(self, *, workers=1):
            pass

    assert workloads.serve_kwargs(WithKnob) == {"coalesce": True}
    assert workloads.serve_kwargs(WithoutKnob) == {}
    assert "coalesce_window_ms" not in workloads.SERVE_KWARGS


def test_failed_output_check_exits_nonzero(monkeypatch, capsys, tmp_path):
    def fake_workload(seed, seconds, tracer, scratch):
        window = workloads.Window()
        window.start()
        window.record(0.01)
        window.record(None)
        window.finish()
        return workloads.Outcome(0.5, 1, {"untraced": window},
                                 ["response 1 differs"], [])

    monkeypatch.setitem(workloads.WORKLOADS, "warm_routed_small",
                        fake_workload)
    code = run.main(["--workload", "warm_routed_small", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


def test_routed_dataset_is_fixed():
    a = workloads.blobs()
    assert np.array_equal(a, workloads.blobs())
    assert a.shape == (workloads.ROUTED_POINTS, workloads.ROUTED_DIM)
