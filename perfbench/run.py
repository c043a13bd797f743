"""The repository benchmark: one workload per run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_texture60 --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures with the program untouched and reports the
end-to-end metrics.  ``--trace 1`` wraps each layer's entry points (see
``layers.py``), measures the window once untraced and once traced, and
reports the per-layer metrics, including the tracing overhead.  The
last line of standard output is the JSON result; the lines before it
are the same numbers for people, with the environment stamp.  A failed
output check exits 1; a checkout without the program's sources exits 2.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: end-to-end metrics, in report order, with their units
END_TO_END = (
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head_file = root / ".git" / "HEAD"
    try:
        head = head_file.read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    from repro.kernels.registry import get_kernel

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel": get_kernel().name,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_sha": git_sha(ROOT),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(
        "cold_texture60", "warm_texture60", "warm_routed_small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import layers
        import workloads
        from stats import check_metric_name
        from tracer import Tracer
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{error}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    tracer = response_log = None
    if args.trace:
        tracer = Tracer()
        wrapped = layers.install(tracer)
        response_log = layers.ResponseLog(tracer)
        print(f"traced entry points: {len(wrapped)}")
    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    runner = workloads.WORKLOADS[args.workload]
    try:
        outcome = runner(args.seed, args.seconds, tracer, scratch)
    finally:
        if tracer is not None:
            tracer.unwrap_all()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    untraced = outcome.windows["untraced"]
    values = {
        "setup_s": outcome.setup_s,
        **untraced.end_to_end(),
        "peak_rss_mb": untraced.peak_rss_mb,
    }
    if untraced.chunk == 1:
        basis = f"median over {untraced.n_chunks} operations"
    elif untraced.n_chunks:
        basis = (f"median over {untraced.n_chunks} chunks of "
                 f"{untraced.chunk} operations")
    else:
        basis = f"over {untraced.attempted} operations"
    notes = {
        "setup_s": f"median of {outcome.setups} set-ups",
        "req_per_s": basis,
        "latency_p50_ms": basis,
    }
    for name, unit in END_TO_END:
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} {values[name]:.6g} {unit}{note}")
    print(f"cpu_ms_per_req {values['cpu_ms_per_req']:.6g} ms ({basis}; "
          f"not gated)")
    tail, tail_ms = untraced.tail()
    if tail is None:
        print(f"latency_max_ms {tail_ms:.6g} ms (n={untraced.attempted}, "
              f"too few for a tail percentile; not gated)")
    else:
        print(f"latency_p{tail:g}_ms {tail_ms:.6g} ms "
              f"(n={untraced.attempted}, whole window; not gated)")
    print(f"failed_frac {untraced.failed / max(untraced.attempted, 1):.6g} "
          f"ratio ({untraced.failed} of {untraced.attempted} operations "
          f"failed, degraded, shed or refused)")
    for line in outcome.lines:
        print(line)

    windows = list(outcome.windows.values())
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    if args.trace:
        traced = outcome.windows["traced"]
        traced_e2e = traced.end_to_end()
        untraced_e2e = untraced.end_to_end()
        extra = dict(outcome.layer_extra)
        for name in ("cpu_ms_per_req", "latency_p50_ms"):
            extra[f"trace.overhead_{name}"] = (
                traced_e2e[name] - untraced_e2e[name])
        metrics = layers.layer_metrics(
            tracer, ops=traced.completed, window_cpu_s=traced.cpu_s,
            latency_sum_s=sum(x for x in traced.outcomes if x is not None),
            n_setups=outcome.setups, service_delta=outcome.service_delta,
            router_delta=outcome.router_delta,
            responses=response_log.responses, extra=extra)
        units = {name: unit for name, (unit, _) in layers.LAYER_MAP.items()}
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]} "
                  f"(moves: {layers.LAYER_MAP[name][1]})")
    else:
        units = dict(END_TO_END)
        metrics = {name: values[name] for name in units}

    for message in outcome.checks:
        print(f"CHECK FAILED: {message}")
    result = {
        "correct": not outcome.checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            check_metric_name(name): {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
