"""Summary statistics the benchmark reports.

Latency percentiles follow one rule: report the median and the highest
percentile that still has at least ten samples beyond it.  A request
that failed, was shed or was refused never met any latency limit, so it
enters the distribution at ``FAILED_LATENCY_S`` -- the time a client
waits before giving up on a request.
"""

from __future__ import annotations

import re

import numpy as np

#: how long a client waits for one reply before it gives up; a failed
#: or refused request is charged this latency
FAILED_LATENCY_S = 60.0

#: percentiles the tail rule chooses from, highest first
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 50.0)

#: samples that must lie beyond a reported tail percentile
MIN_BEYOND = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def tail_percentile(n_samples: int) -> float | None:
    """The highest candidate percentile with ``MIN_BEYOND`` samples past it.

    ``None`` when even the median has fewer than ``MIN_BEYOND`` samples
    beyond it.  p99 needs 1,000 samples; p99.9 needs 10,000.
    """
    for p in TAIL_CANDIDATES:
        if n_samples * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def latency_samples(ok_latencies_s, n_failed: int) -> np.ndarray:
    """Completed latencies plus one ``FAILED_LATENCY_S`` per failure."""
    ok = np.asarray(ok_latencies_s, dtype=np.float64)
    return np.concatenate([ok, np.full(int(n_failed), FAILED_LATENCY_S)])


def percentile_ms(samples_s: np.ndarray, p: float) -> float:
    """The ``p``-th percentile of latencies in seconds, in milliseconds."""
    if samples_s.size == 0:
        raise ValueError("no latency samples")
    return float(np.percentile(samples_s, p)) * 1e3


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise."""
    if not METRIC_NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name
