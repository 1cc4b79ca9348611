"""Steadiness check: run each workload on several seeds and report, for
every end-to-end metric, the median, the quartiles and the quartile spread
as a share of the median, next to the metric's bound.

    python3 perfbench/spread.py [--workloads build_serve maintain]
                                [--seeds 1 2 ... 10] [--json OUT]

Runs are sequential; each one is a full ``run.py`` invocation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "bound": bound}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--json")
    a = ap.parse_args()
    report = {}
    for w in a.workloads:
        runs = []
        for seed in a.seeds:
            out = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(out.stderr[-2000:], file=sys.stderr)
                return 1
            res = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append(res)
            print(f"{w} seed={seed} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        rows = {m["name"]: summarize(
            [r["metrics"][m["name"]]["value"] for r in runs], m["bound"])
            for m in spec["end_to_end"]}
        report[w] = {"seeds": a.seeds, "failed_shares": sorted(shares),
                     "correct": all(r["correct"] for r in runs),
                     "metrics": rows}
        print(f"\n{w}: failed share {sorted(shares)}  "
              f"correct={report[w]['correct']}")
        print(f"{'metric':28s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'spread':>7s} {'bound':>6s}")
        for name, r in rows.items():
            print(f"{name:28s} {r['median']:10.4g} {r['q1']:10.4g} "
                  f"{r['q3']:10.4g} {r['spread']:7.3f} {r['bound']:6.2f}")
    if a.json:
        Path(a.json).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
