"""Runs one workload in this (fresh) process and writes its result as JSON.

Started by run.py, which owns the timeout and the clean-up.  Usage:
    python3 perfbench/child.py --workload maintain --seed 1 --seconds 6 \
        --trace 0 --work DIR --out FILE --spec BENCHMARK.json
"""

from __future__ import annotations

import argparse
import json
import os
import time


def host_probe_ms() -> float:
    """A fixed pure-Python loop: the host-speed reference of this run."""
    t0 = time.perf_counter()
    s = 0
    for i in range(200_000):
        s += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def cpu_ticks() -> list:
    """The machine's cpu line of /proc/stat: user, nice, system, idle,
    iowait, irq, softirq, steal (in ticks)."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def steal_pct(before: list, after: list) -> float:
    """Share of the machine's CPU time between two samples that the host
    gave to other tenants (steal), in percent."""
    d = [b - a for a, b in zip(before, after)]
    return 100.0 * d[7] / max(1, sum(d))


def host_state() -> dict:
    return {"loadavg": list(os.getloadavg()),
            "probe_ms": sorted(host_probe_ms() for _ in range(5))[2],
            "cpu_ticks": cpu_ticks()}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spec", required=True)
    a = ap.parse_args()
    with open(a.spec) as f:
        spec = json.load(f)

    import pyarrow as pa

    import lifecycle
    import probes

    # one client thread: Arrow's IO pool would otherwise spread each docs
    # read over up to 8 threads, and their latency on a shared host follows
    # how many vCPUs the neighbours leave free
    pa.set_io_thread_count(1)

    before = host_state()
    run = lifecycle.Run(a.workload, a.seed, a.seconds, bool(a.trace), a.work)
    t0 = time.perf_counter()
    lifecycle.WORKLOADS[a.workload](run)
    lifecycle.latency_metrics(run)
    wall = time.perf_counter() - t0
    after = host_state()

    if a.trace:
        probes.self_times(run)
        run.tr.dump(os.path.join(a.work, "spans.json"))
        values = run.layers
        wanted = spec["per_layer"]
    else:
        values = run.metrics
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if a.trace:  # a layer the workload does not call reads 0
        values = {**{n: 0.0 for n in missing}, **values}
        missing = []
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    result = {
        "correct": not run.errors,
        "attempted": sum(run.attempted.values()),
        "failed": sum(run.failed.values()),
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
        "details": {
            "workload": a.workload, "seed": a.seed, "trace": a.trace,
            "wall_s": wall, "host_before": before, "host_after": after,
            "steal_pct": steal_pct(before["cpu_ticks"], after["cpu_ticks"]),
            "attempted": dict(run.attempted), "failed": dict(run.failed),
            "failures": run.fail_kinds, "errors": run.errors[:20],
            "samples": {k: len(v) for k, v in run.lat.items()},
            "end_to_end": run.metrics, "notes": run.notes,
        },
    }
    with open(a.out, "w") as f:
        json.dump(result, f, default=str)


if __name__ == "__main__":
    main()
