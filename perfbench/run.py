"""Benchmark entry point.

    python3 perfbench/run.py --workload {build_serve,maintain} --seed N \
        --seconds S --trace {0,1}

Runs the workload in a fresh child process with a hard timeout, then stops
every process the child left behind (its Ray session included, found by a
marker in their environment) and waits until each has ended.  The last line
of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics.  Everything the run writes stays
under ``.pbt/`` in the checkout; ``.pbt/results/`` keeps each run's details
(host load and speed probe before and after, per-op-type counts, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
TIMEOUT_S = 150
WORKLOADS = ("build_serve", "maintain")


def marked_pids(marker: str) -> list:
    """Processes whose environment carries this run's marker."""
    needle = f"PERFBENCH_RUN={marker}".encode()
    pids = []
    for d in os.listdir("/proc"):
        if not d.isdigit() or int(d) == os.getpid():
            continue
        try:
            with open(f"/proc/{d}/environ", "rb") as f:
                if needle in f.read().split(b"\0"):
                    pids.append(int(d))
        except OSError:
            continue
    return pids


def stop_all(proc: subprocess.Popen, marker: str) -> None:
    """Kill the child's process group and every marked process, then wait
    until all of them have ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.time() + 20
    while True:
        left = marked_pids(marker)
        if not left:
            return
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if time.time() > deadline:
            raise RuntimeError(f"processes {left} did not end")
        time.sleep(0.2)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not (ROOT / "stocksight_ray" / "__init__.py").is_file():
        print(f"perfbench: no stocksight_ray package in {ROOT}", file=sys.stderr)
        return 2

    base = ROOT / ".pbt"
    marker = uuid.uuid4().hex[:12]
    work = base / f"w-{marker}"
    ray_tmp = base / "r"
    results = base / "results"
    for d in (work / "tmp", ray_tmp, results):
        d.mkdir(parents=True, exist_ok=True)
    out = work / "result.json"
    log = work / "child.log"
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT), str(HERE)]),
        PERFBENCH_RUN=marker,
        PERFBENCH_RAY_TMP=str(ray_tmp),
        RAY_TMPDIR=str(work / "tmp"),
        TMPDIR=str(work / "tmp"),
        RAY_USAGE_STATS_ENABLED="0",
        OMP_NUM_THREADS="1",
    )
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--work", str(work), "--out", str(out),
           "--spec", str(ROOT / "BENCHMARK.json")]
    with open(log, "wb") as logf:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=logf,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        stop_all(proc, marker)

    result = None
    if code == 0 and out.is_file():
        result = json.loads(out.read_text())
        name = f"{a.workload}-{a.seed}-{a.trace}-{marker}.json"
        (results / name).write_text(json.dumps(result, indent=1))
    else:
        why = "timed out" if code is None else f"exited with {code}"
        tail = log.read_text(errors="replace").splitlines()[-25:]
        print(f"perfbench: {a.workload} {why}\n" + "\n".join(tail),
              file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    for session in ray_tmp.glob("session_*"):
        shutil.rmtree(session, ignore_errors=True)
    if result is None:
        return 1

    d = result.pop("details")
    print(f"perfbench: {a.workload} seed={a.seed} wall={d['wall_s']:.1f}s "
          f"samples={d['samples']} failed={d['failed']} "
          f"load={d['host_before']['loadavg'][0]:.2f}->"
          f"{d['host_after']['loadavg'][0]:.2f} "
          f"probe_ms={d['host_before']['probe_ms']:.1f}/"
          f"{d['host_after']['probe_ms']:.1f} steal={d['steal_pct']:.1f}%",
          file=sys.stderr)
    for e in d["errors"]:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
