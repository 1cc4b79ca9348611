"""Duplicate-cluster graph operators: distributed connected components and
the fuzzy-dedup clustering built on top of it.

The reference deduplicates per-item against an in-memory list
(/root/reference/sentiment.py:54,158,281); real web-corpus pipelines
additionally need the TRANSITIVE closure of the near-duplicate relation —
if A~B and B~C, then {A, B, C} is one duplicate cluster even when A and C
never form a verified pair.  ``dup_clusters`` produces those clusters:
verified near-dup pairs (``dedup.ngram_jaccard_pairs``) become an edge
list, and ``connected_components`` labels every endpoint with the smallest
doc id reachable from it.

Scale shape of ``connected_components``
---------------------------------------
The edge set is O(duplicate pairs) — typically orders of magnitude smaller
than the corpus — but can still be billions of rows at 100 TB, so the
distributed path never collects it:

* state is a ``(node, lbl)`` Dataset, one row per edge endpoint;
* each round runs min-label propagation (``L(v) <- min(L(v), min of
  L(u) over neighbors u)``) followed by POINTER JUMPING (``L(v) <-
  L(L(v))``), both as two-input ``geometry.bucket_groups`` joins of the
  queries with the label table — 3 bucketed shuffles per round over
  O(E + V) slim int64 rows;
* pointer jumping halves the depth of every label chain, so convergence
  is O(log n) rounds regardless of component diameter (a 100-long path
  converges in ~7 rounds, not 100) — the standard MapReduce CC recipe
  (Kiveris et al., "Connected Components in MapReduce and Beyond");
* convergence is detected by summing per-node changed flags computed
  inside the reduce (no extra compare pass) — the loop stops after the
  first round that changes nothing.

Small edge sets short-circuit to a driver-side numpy kernel (same
min-propagation + pointer jumping, one process, no shuffles) under
``DRIVER_CC_MAX_EDGES`` — the same measured trade as ingest's
driver-slim dedup fast path: below ~a few million edges, per-round
launch latency dominates the actual work.  Both paths produce identical
labels (tested by forcing the distributed path with
``driver_max_edges=0``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa

from ..geometry import bucket_groups

# Edge count at/below which connected_components runs the driver-side numpy
# kernel (64 MiB of int64 pairs at the default).
DRIVER_CC_MAX_EDGES = 4_000_000


def _cc_local(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(nodes, component) for an edge list, via min-label propagation with
    pointer jumping — all numpy, O(E log n)."""
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    e = len(a)
    ia, ib = inv[:e], inv[e:]
    lbl = np.arange(len(nodes), dtype=np.int64)
    while True:
        new = lbl.copy()
        if e:
            m = np.minimum(lbl[ia], lbl[ib])
            np.minimum.at(new, ia, m)
            np.minimum.at(new, ib, m)
        new = new[new]  # pointer jump: label-of-label
        if np.array_equal(new, lbl):
            break
        lbl = new
    return nodes, nodes[lbl]


def _attach_labels(rows, labels, num_buckets: Optional[int]):
    """Co-partition join: ``rows`` is (k, v), ``labels`` is (node, lbl) with
    UNIQUE node; returns (v, lbl=L(k)).  Every k MUST exist in labels (true
    by construction here: label values are always node ids)."""

    def attach(q: pd.DataFrame, l: pd.DataFrame) -> pa.Table:
        j = q[["k", "v"]].merge(l, on="k")
        return pa.table({
            "v": pa.array(j["v"].to_numpy(np.int64)),
            "lbl": pa.array(j["lbl"].to_numpy(np.int64)),
        })

    return bucket_groups(
        "k", attach, rows, labels.rename_columns({"node": "k"}),
        num_buckets=num_buckets,
    )


def connected_components(
    edges,
    *,
    max_iters: int = 50,
    num_buckets: Optional[int] = None,
    driver_max_edges: Optional[int] = None,
):
    """Connected components of an undirected edge list.

    edges: Dataset with int64 columns (a, b) — duplicate edges and either
    orientation are fine; self-loops are ignored (they add the node).
    Returns a Dataset (node:int64, component:int64) with one row per
    distinct endpoint; ``component`` is the smallest node id in the
    component.  ``max_iters`` bounds the O(log n) pointer-jumping rounds
    (50 covers any graph that fits in 2**50 nodes); hitting the bound
    raises rather than returning partial labels."""
    import ray.data as rd

    cap = DRIVER_CC_MAX_EDGES if driver_max_edges is None else driver_max_edges
    edges = edges.select_columns(["a", "b"]).materialize()
    n_edges = edges.count()

    if n_edges <= cap:
        pdf = edges.to_pandas()
        nodes, comp = _cc_local(
            pdf["a"].to_numpy(np.int64), pdf["b"].to_numpy(np.int64)
        )
        return rd.from_arrow(
            pa.table({"node": pa.array(nodes), "component": pa.array(comp)})
        )

    # round 0 folds init + first neighbor-min: L(v) = min(v, min nbrs)
    def both_dirs(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "k": pa.array(np.concatenate([a, b])),
            "v": pa.array(np.concatenate([b, a])),
        })

    def init_labels(g: pd.DataFrame) -> pa.Table:
        m = g.groupby("k")["v"].min()
        node = m.index.to_numpy(np.int64)
        return pa.table({
            "node": pa.array(node),
            "lbl": pa.array(np.minimum(node, m.to_numpy(np.int64))),
        })

    sym = edges.map_batches(both_dirs, batch_format="pyarrow").materialize()
    labels = bucket_groups("k", init_labels, sym,
                           num_buckets=num_buckets).materialize()

    def reduce_min(msgs: pd.DataFrame, own: pd.DataFrame) -> pa.Table:
        # own: every node's previous label; msgs: (v=node, lbl=L(nbr))
        new = pd.concat([msgs, own]).groupby("v")["lbl"].min()
        old = own.set_index("v")["lbl"].reindex(new.index).to_numpy(np.int64)
        lbl = new.to_numpy(np.int64)
        return pa.table({
            "node": pa.array(new.index.to_numpy(np.int64)),
            "lbl": pa.array(lbl),
            "_chg": pa.array((lbl < old).astype(np.int64)),
        })

    for _ in range(max_iters):
        # phase 1: neighbor-min.  messages (v=node, lbl=L(nbr)) from the
        # static symmetric edge list, then min with the node's own label.
        msgs = _attach_labels(sym, labels, num_buckets)
        merged = bucket_groups(
            "v", reduce_min, msgs, labels.rename_columns({"node": "v"}),
            num_buckets=num_buckets,
        ).materialize()
        changed = int(merged.sum("_chg") or 0)
        l1 = merged.drop_columns(["_chg"]).materialize()

        # phase 2: pointer jump L(v) <- L(L(v)) (label values are node ids,
        # so L(L(v)) always resolves)
        def as_query(batch: pa.Table) -> pa.Table:
            return pa.table({"k": batch["lbl"], "v": batch["node"]})

        jumped = _attach_labels(
            l1.map_batches(as_query, batch_format="pyarrow"), l1, num_buckets
        )

        def rename(batch: pa.Table) -> pa.Table:
            return pa.table({"node": batch["v"], "lbl": batch["lbl"]})

        labels = jumped.map_batches(rename, batch_format="pyarrow").materialize()
        if changed == 0:
            # the jump after an unchanged propagation is a no-op too
            return labels.map_batches(
                lambda b: pa.table({"node": b["node"], "component": b["lbl"]}),
                batch_format="pyarrow",
            )
    raise RuntimeError(
        f"connected_components did not converge in {max_iters} rounds"
    )


def dup_clusters(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    *,
    ngram: int = 3,
    threshold: float = 0.5,
    num_perm: int = 64,
    bands: int = 16,
    num_buckets: Optional[int] = None,
):
    """Near-duplicate clusters over a corpus: every doc that belongs to a
    cluster of 2+ near-duplicates, labeled with the cluster's smallest doc
    id and the cluster size.

    Pipeline: ``ngram_jaccard_pairs`` (exact word-n-gram Jaccard >=
    threshold, LSH candidates) -> edge list -> ``connected_components`` ->
    per-cluster size.  Returns a Dataset (id_col, cluster_id, cluster_size)
    covering only docs with at least one verified near-dup (singleton docs
    are every other doc — emitting them would be a full-corpus pass for
    rows that carry no information).

    Cluster sizes attach via a broadcast probe: the (cluster_id -> size)
    table is O(#clusters) — tiny next to the corpus — so it ships once via
    ``ray.put`` instead of a join shuffle."""
    import ray

    from .dedup import ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(
        ds, text_col, id_col, ngram=ngram, threshold=threshold,
        num_perm=num_perm, bands=bands, num_buckets=num_buckets,
    )
    cc = connected_components(
        pairs.select_columns(["a", "b"]), num_buckets=num_buckets
    ).materialize()
    if cc.count() == 0:
        import ray.data as rd

        return rd.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "cluster_id": pa.array([], pa.int64()),
            "cluster_size": pa.array([], pa.int64()),
        }))

    sizes = cc.groupby("component").count().to_pandas()
    size_ref = ray.put(
        pd.Series(
            sizes["count()"].to_numpy(np.int64),
            index=sizes["component"].to_numpy(np.int64),
        )
    )

    def attach_size(batch: pa.Table) -> pa.Table:
        lut = ray.get(size_ref)
        comp = batch["component"].to_numpy(zero_copy_only=False)
        return pa.table({
            id_col: batch["node"],
            "cluster_id": batch["component"],
            "cluster_size": pa.array(
                lut.reindex(comp).to_numpy(np.int64), pa.int64()
            ),
        })

    return cc.map_batches(attach_size, batch_format="pyarrow")
