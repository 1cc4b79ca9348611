"""Per-selectivity-class latency of the BM25 OR scorer on a built index.

Index terms are ranked by the index's own df and split into three classes:
head (the top 1%), mid (the next 9%) and tail (the rest).  For each class
the script draws N queries of 1-3 distinct terms, opens a warm whole-index
``QueryEngine`` (no Ray), runs every query once untimed, then times every
query in three interleaved passes and prints p50/p90 ms per class (k=10).
A query's text is its index terms; the analyzer maps almost every stem to
itself.

Usage: python scripts/scorer_classes.py INDEX_DIR [--queries N] [--seed S]
"""

import argparse
import os
import random
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

PASSES = 3
K = 10


def df_classes(index_dir: str):
    """{class: [term]} by df rank over ``index_dir/index/part-*.parquet``."""
    import pyarrow.dataset as pads

    t = pads.dataset(os.path.join(index_dir, "index")).to_table(
        columns=["term", "df"])
    terms = t["term"].to_numpy(zero_copy_only=False)
    order = np.lexsort((terms, -t["df"].to_numpy(zero_copy_only=False)))
    ranked = terms[order].tolist()
    head = max(1, len(ranked) // 100)
    mid = max(head + 1, len(ranked) // 10)
    return {"head": ranked[:head], "mid": ranked[head:mid],
            "tail": ranked[mid:]}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("index_dir")
    ap.add_argument("--queries", type=int, default=150,
                    help="queries per class (default 150)")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    from stocksight_ray.index.query import QueryEngine

    classes = df_classes(args.index_dir)
    rng = random.Random(args.seed)
    queries = [(c, " ".join(rng.sample(terms, min(len(terms),
                                                  rng.randint(1, 3)))))
               for _ in range(args.queries)
               for c, terms in classes.items() if terms]
    eng = QueryEngine(args.index_dir)
    eng.warm()
    for _, q in queries:
        eng.search(q, K)
    lat = {c: [] for c in classes}
    for _ in range(PASSES):
        for c, q in queries:
            t0 = time.perf_counter()
            eng.search(q, K)
            lat[c].append(time.perf_counter() - t0)
    print(f"{args.index_dir}: {eng.N} docs, "
          f"{sum(map(len, classes.values()))} terms, k={K}")
    print(f"{'class':6} {'terms':>7} {'p50_ms':>8} {'p90_ms':>8}")
    for c, v in lat.items():
        if v:
            p50, p90 = 1e3 * np.percentile(v, [50, 90])
            print(f"{c:6} {len(classes[c]):7d} {p50:8.3f} {p90:8.3f}")


if __name__ == "__main__":
    main()
