"""Tombstone deletes + segment compaction for the committed index.

The reference's Elasticsearch backend supports document deletes natively —
every doc it indexes via ``es.index`` (/root/reference/sentiment.py:227,
/root/reference/stockprice.py:91) can be deleted/updated through ES, and
Lucene implements that with live-docs bitsets: a delete marks the docid,
queries filter it, and stats stay stale until a segment merge purges it.
This module is the Ray-native analogue over the parquet index layout of
build.py/segments.py:

* ``delete_docs(out_dir, ids)`` records tombstones under
  ``out_dir/deletes/del-{bucket:05d}.parquet`` (sorted unique int64
  ``doc_id`` per bucket; bucket = doc_id // bucket_docs, aligned to the
  segment shard size when the index is sharded).  Writes are atomic per
  bucket and only touched buckets are rewritten — a delete of k docs costs
  O(k + existing tombstones in the touched buckets), never an index pass.
* The query engine (query.QueryEngine, over the whole index or one shard's
  id range) loads the tombstone set at init — O(deletes) memory, the same
  contract as Lucene's live-docs — and filters every scorer path exactly
  (OR/AND/phrase/sorted).  **BM25 stats (N, avgdl, df)
  intentionally stay stale until compaction**, matching Lucene: deleted
  docs still count toward idf, so surviving docs keep their pre-delete
  scores (rank-identical across whole-index and shard serving).
* ``compact(out_dir)`` purges tombstoned postings physically: one Ray task
  per (shard, partition-file) decodes, filters, re-encodes (codec round
  trip), norms are filtered per shard, lineage doc counts updated, and
  ``segments.assemble`` rebuilds the final index + manifest with the NEW
  N/avgdl/df.  Tombstones are cleared last.  Parallelism is O(shards x
  partitions) independent tasks — no shuffle, read volume = touched shards
  only.

Deletes are INDEX-side state: a later ``build_resumable`` over the original
(unfiltered) corpus rebuilds purged shards from source and resurrects the
docs — persisting a delete across rebuilds requires filtering the source,
exactly as with ES reindex-from-source.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np
import pyarrow as pa

DEFAULT_BUCKET_DOCS = 1 << 20


def _deletes_dir(out_dir: str) -> str:
    from .. import fsio

    return fsio.join(out_dir, "deletes")


def _bucket_docs(out_dir: str) -> int:
    """Tombstone bucket width: the segment shard size when sharded (so a
    bucket maps 1:1 onto a segment at compaction), else a fixed default.
    Recorded in deletes/_meta.json on first delete so later calls and
    readers agree even if the manifest evolves."""
    from .. import fsio

    meta_p = fsio.join(_deletes_dir(out_dir), "_meta.json")
    if fsio.exists(meta_p):
        return int(fsio.read_json(meta_p)["bucket_docs"])
    manifest = fsio.read_json(fsio.join(out_dir, "manifest.json"))
    segs = manifest.get("segments") or []
    if segs:
        return int(segs[0]["doc_id_hi"]) - int(segs[0]["doc_id_lo"])
    return DEFAULT_BUCKET_DOCS


def _normalize_ids(ids, id_col: str) -> np.ndarray:
    """Accept a Ray Dataset, pyarrow Table, pandas/numpy/list → sorted
    unique int64 array.  The delete set is O(deletes) — the same set every
    query engine must hold in memory to filter with, so collecting the id
    COLUMN (never payloads) driver-side is the honest bound, not a leak."""
    try:
        import ray.data as rd

        if isinstance(ids, rd.Dataset):
            ids = ids.select_columns([id_col]).to_pandas()[id_col].to_numpy()
    except ImportError:  # pragma: no cover
        pass
    if isinstance(ids, pa.Table):
        ids = ids[id_col].to_numpy(zero_copy_only=False)
    arr = np.unique(np.asarray(ids, dtype=np.int64))
    return arr


def delete_docs(out_dir: str, ids, *, id_col: str = "doc_id") -> dict:
    """Tombstone the given doc_ids.  Idempotent (re-deleting is a no-op
    union).  Single-writer like every mutation in this index (build,
    append, compact): the per-bucket update is read-union-write with an
    atomic replace, so two CONCURRENT delete_docs calls hitting the same
    bucket would last-write-win and drop the other's ids — serialize
    deletes through one maintenance process, batching ids per call (the
    Dataset input exists for exactly that).
    Returns {n_requested, n_new, buckets_touched, n_total}."""
    from .. import fsio

    arr = _normalize_ids(ids, id_col)
    ddir = _deletes_dir(out_dir)
    bucket_docs = _bucket_docs(out_dir)
    fsio.makedirs(ddir)
    meta_p = fsio.join(ddir, "_meta.json")
    if not fsio.exists(meta_p):
        fsio.write_json_atomic({"bucket_docs": bucket_docs}, meta_p)

    n_new = 0
    n_total = 0
    buckets = np.unique(arr // bucket_docs) if arr.size else np.array([], np.int64)
    for b in buckets:
        sub = arr[(arr // bucket_docs) == b]
        path = fsio.join(ddir, f"del-{int(b):05d}.parquet")
        if fsio.exists(path):
            prev = fsio.read_table(path)["doc_id"].to_numpy(zero_copy_only=False)
            merged = np.union1d(prev, sub)
            n_new += merged.size - prev.size
        else:
            merged = sub
            n_new += merged.size
        fsio.write_table_atomic(
            pa.table({"doc_id": pa.array(merged, pa.int64())}), path
        )
        n_total += merged.size
    return {
        "n_requested": int(arr.size),
        "n_new": int(n_new),
        "buckets_touched": [int(b) for b in buckets],
        "n_total_in_touched_buckets": int(n_total),
    }


def load_deletes(out_dir: str,
                 lo: Optional[int] = None, hi: Optional[int] = None) -> np.ndarray:
    """Sorted unique int64 array of tombstoned doc_ids, optionally
    restricted to [lo, hi) (a shard range — bucket files outside it are
    never read: bucket boundaries are id-aligned)."""
    from .. import fsio

    ddir = _deletes_dir(out_dir)
    if not fsio.isdir(ddir):
        return np.empty(0, dtype=np.int64)
    bucket_docs = _bucket_docs(out_dir)
    parts: List[np.ndarray] = []
    for name in sorted(fsio.listdir(ddir)):
        if not (name.startswith("del-") and name.endswith(".parquet")):
            continue
        b = int(name[4:-8])
        if lo is not None and (b + 1) * bucket_docs <= lo:
            continue
        if hi is not None and b * bucket_docs >= hi:
            continue
        parts.append(
            fsio.read_table(fsio.join(ddir, name))["doc_id"]
            .to_numpy(zero_copy_only=False).astype(np.int64)
        )
    if not parts:
        return np.empty(0, dtype=np.int64)
    out = np.concatenate(parts)
    out.sort(kind="stable")
    if lo is not None or hi is not None:
        s = np.searchsorted(out, lo) if lo is not None else 0
        e = np.searchsorted(out, hi) if hi is not None else out.size
        out = out[s:e]
    return out


def live_mask(deleted: np.ndarray, docs: np.ndarray) -> np.ndarray:
    """Boolean mask of docs NOT in the sorted ``deleted`` array."""
    if deleted.size == 0:
        return np.ones(docs.size, dtype=bool)
    pos = np.searchsorted(deleted, docs)
    hit = (pos < deleted.size) & (deleted[np.minimum(pos, deleted.size - 1)] == docs)
    return ~hit


def clear_deletes(out_dir: str) -> None:
    from .. import fsio

    fsio.remove_dir(_deletes_dir(out_dir))


def undelete_docs(out_dir: str, ids, *, id_col: str = "doc_id") -> dict:
    """Remove ids from the tombstone store — the revival half of an upsert
    (a re-indexed doc is live again, ES ``es.index``-overwrite semantics).
    Ids not currently tombstoned are ignored.  Same single-writer contract
    as :func:`delete_docs` (read-diff-write with atomic per-bucket replace).
    Returns {n_requested, n_removed, buckets_touched}."""
    from .. import fsio

    arr = _normalize_ids(ids, id_col)
    ddir = _deletes_dir(out_dir)
    if arr.size == 0 or not fsio.isdir(ddir):
        return {"n_requested": int(arr.size), "n_removed": 0,
                "buckets_touched": []}
    bucket_docs = _bucket_docs(out_dir)
    n_removed = 0
    touched = []
    for b in np.unique(arr // bucket_docs):
        path = fsio.join(ddir, f"del-{int(b):05d}.parquet")
        if not fsio.exists(path):
            continue
        prev = fsio.read_table(path)["doc_id"].to_numpy(zero_copy_only=False)
        kept = prev[live_mask(arr, prev)]  # prev minus the revived ids
        if kept.size == prev.size:
            continue
        n_removed += prev.size - kept.size
        touched.append(int(b))
        if kept.size:
            fsio.write_table_atomic(
                pa.table({"doc_id": pa.array(kept, pa.int64())}), path
            )
        else:
            fsio.remove_file(path)
    return {"n_requested": int(arr.size), "n_removed": int(n_removed),
            "buckets_touched": touched}


# ---------------------------------------------------------------------------
# compaction
# ---------------------------------------------------------------------------

def _purge_postings_table(tbl: pa.Table, deleted: np.ndarray,
                          norm_ids: np.ndarray, norm_lens: np.ndarray) -> pa.Table:
    """Decode → drop tombstoned docids → re-encode every term of one
    postings table.  Terms whose postings empty out are dropped."""
    from . import codec

    terms, dfs, cfs, metas, payloads = [], [], [], [], []
    for term, m, p in zip(
        tbl["term"].to_pylist(), tbl["meta"].to_pylist(), tbl["payload"].to_pylist()
    ):
        docids, tfs = codec.decode_postings(m, p)
        keep = live_mask(deleted, docids)
        if not keep.all():
            docids, tfs = docids[keep], tfs[keep]
        if docids.size == 0:
            continue
        dls = norm_lens[np.searchsorted(norm_ids, docids)]
        meta_b, payload = codec.encode_postings(docids, tfs, dls)
        terms.append(term)
        dfs.append(int(docids.size))
        cfs.append(int(tfs.sum()))
        metas.append(meta_b)
        payloads.append(payload)
    return pa.table({
        "term": pa.array(terms, pa.string()),
        "df": pa.array(dfs, pa.int64()),
        "cf": pa.array(cfs, pa.int64()),
        "meta": pa.array(metas, pa.binary()),
        "payload": pa.array(payloads, pa.binary()),
    })


def compact(out_dir: str) -> dict:
    """Physically purge tombstoned docs.  Sharded index: per-(shard, part)
    Ray tasks rewrite only shards whose range holds deletes, lineage doc
    counts are updated, then ``segments.assemble`` rebuilds the global
    index/norms/manifest with the post-delete N, avgdl and df.  Single-pass
    index (no segments): the global partition files and norms are purged in
    place and the manifest's corpus stats rewritten.  Tombstones are
    cleared LAST (a crash re-runs compaction idempotently: purging an
    already-purged file is a no-op).  Single-writer maintenance op: like a
    Lucene merge, it must not run concurrently with another writer, and
    serving engines should be (re)constructed after it completes — per-file
    writes are atomic but the index directory as a whole is rewritten.
    Returns the new manifest."""
    import ray.data as rd

    from .. import fsio

    t0 = time.time()
    manifest = fsio.read_json(fsio.join(out_dir, "manifest.json"))
    deleted_all = load_deletes(out_dir)
    segs = manifest.get("segments") or []

    if deleted_all.size == 0:
        return manifest

    if segs:
        touched = [
            s for s in segs
            if np.searchsorted(deleted_all, s["doc_id_hi"])
            > np.searchsorted(deleted_all, s["doc_id_lo"])
        ]
        # PHASE 1 — one work item per (shard, part file): every partition
        # file purges in its own task, so compaction parallelism is
        # shards x partitions, not shards.  Norms are only READ here (for
        # doc-length lookups); they rewrite in phase 2, after the barrier —
        # a tmp+rename replace is atomic, but a concurrent pyarrow read can
        # stat the old file and open the new one (observed torn read), so
        # the two phases never overlap on the same file.
        work = []
        for s in touched:
            seg = fsio.join(out_dir, "segments", f"shard-{int(s['shard']):05d}")
            work += [
                {"shard": int(s["shard"]), "lo": int(s["doc_id_lo"]),
                 "hi": int(s["doc_id_hi"]), "name": n}
                for n in fsio.listdir(seg)
                if n.startswith("part-") and n.endswith(".parquet")
            ]

        def purge_part_file(batch: pa.Table) -> pa.Table:
            from .. import fsio as _fsio

            out = {"shard": [], "name": []}
            for shard, lo, hi, name in zip(
                batch["shard"].to_pylist(), batch["lo"].to_pylist(),
                batch["hi"].to_pylist(), batch["name"].to_pylist(),
            ):
                seg = _fsio.join(out_dir, "segments", f"shard-{shard:05d}")
                dele = load_deletes(out_dir, lo, hi)
                norms = _fsio.read_table(_fsio.join(seg, "norms.parquet"))
                ids = norms["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
                lens = norms["doc_len"].to_numpy(zero_copy_only=False)
                path = _fsio.join(seg, name)
                purged = _purge_postings_table(
                    _fsio.read_table(path), dele, ids, lens
                )
                _fsio.write_table_atomic(purged, path)
                out["shard"].append(shard)
                out["name"].append(name)
            return pa.table({k: pa.array(v) for k, v in out.items()})

        if work:
            rd.from_items(work).map_batches(
                purge_part_file, batch_format="pyarrow", batch_size=1
            ).materialize()

        # PHASE 2 — per-shard norms + lineage rewrite (tiny: one slim
        # columnar file and a json per touched shard, driver-side loop)
        for s in touched:
            shard = int(s["shard"])
            seg = fsio.join(out_dir, "segments", f"shard-{shard:05d}")
            dele = load_deletes(out_dir, int(s["doc_id_lo"]), int(s["doc_id_hi"]))
            norms = fsio.read_table(fsio.join(seg, "norms.parquet"))
            ids = norms["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            lens = norms["doc_len"].to_numpy(zero_copy_only=False)
            keep = live_mask(dele, ids)
            fsio.write_table_atomic(
                pa.table({
                    "doc_id": pa.array(ids[keep], pa.int64()),
                    "doc_len": pa.array(lens[keep], norms["doc_len"].type),
                }),
                fsio.join(seg, "norms.parquet"),
            )
            lin = fsio.read_json(fsio.join(seg, "lineage.json"))
            lin["n_docs"] = int(keep.sum())
            lin["total_terms"] = int(np.asarray(lens)[keep].sum())
            lin["compacted_deletes"] = int(
                lin.get("compacted_deletes", 0) + (~keep).sum()
            )
            fsio.write_json_atomic(lin, fsio.join(seg, "lineage.json"), indent=1)
        from .segments import assemble, carry_manifest_keys

        new_manifest = carry_manifest_keys(out_dir, manifest, assemble(
            out_dir,
            analyzer=manifest["analyzer"],
            num_partitions=int(manifest["num_partitions"]),
            salt_range=int(manifest.get("salt_range", 1 << 62)),
        ))
        # tombstones clear only after assemble commits the purged global
        # index — a crash anywhere above re-runs compaction idempotently
        # (re-purging purged files is a no-op), and engines constructed in
        # the window still filter correctly (stale tombstones point at
        # already-absent docs, a harmless no-op mask)
        clear_deletes(out_dir)
        return new_manifest

    # ---- single-pass layout: purge global partitions + norms directly ----
    import ray

    # read each norms file ONCE: the per-file tables serve both the global
    # doc-length arrays (postings purge lookups) and the per-file rewrite
    # below — no second scan of the doc-length store
    norms_dir = fsio.join(out_dir, "norms")
    norms_files = [
        fsio.join(norms_dir, n) for n in sorted(fsio.listdir(norms_dir))
        if n.endswith(".parquet")
    ]
    norms_tbls = {p: fsio.read_table(p) for p in norms_files}
    norms_tbl = (
        pa.concat_tables(norms_tbls.values()) if norms_tbls
        else pa.table({"doc_id": pa.array([], pa.int64()),
                       "doc_len": pa.array([], pa.int64())})
    )
    if norms_tbl.num_rows == 0:
        # a compactable index always has a nonempty doc-length store; an
        # empty one with live tombstones means the norms were lost (e.g. a
        # pre-fix crash window) — refuse rather than commit num_docs=0
        raise RuntimeError(
            f"compact: norms dataset at {out_dir}/norms is empty while "
            f"{deleted_all.size} tombstones are pending — refusing to "
            "compact (doc-length store missing or corrupt)"
        )
    nids = norms_tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(nids, kind="stable")
    # big corpus-wide arrays ship via the object store ONCE (ray.put), not
    # serialized into every per-partition-file task closure
    norms_ref = ray.put((deleted_all, nids[order],
                         norms_tbl["doc_len"].to_numpy(zero_copy_only=False)[order]))

    idx_dir = fsio.join(out_dir, "index")
    part_files = [
        n for n in fsio.listdir(idx_dir)
        if n.startswith("part-") and n.endswith(".parquet")
    ]

    def purge_part(batch: pa.Table) -> pa.Table:
        import ray as _ray

        from .. import fsio as _fsio

        dele, nids_sorted, nlens_sorted = _ray.get(norms_ref)
        out = {"part": [], "n_terms": [], "n_postings": [], "bytes": []}
        for name in batch["name"].to_pylist():
            path = _fsio.join(idx_dir, name)
            purged = _purge_postings_table(
                _fsio.read_table(path), dele, nids_sorted, nlens_sorted
            )
            _fsio.write_table_atomic(purged, path)
            out["part"].append(int(name[5:-8]))
            out["n_terms"].append(purged.num_rows)
            out["n_postings"].append(
                int(pa.compute.sum(purged["df"]).as_py() or 0)
            )
            out["bytes"].append(_fsio.getsize(path))
        return pa.table({k: pa.array(v) for k, v in out.items()})

    part_stats = (
        rd.from_items([{"name": n} for n in part_files])
        .map_batches(purge_part, batch_format="pyarrow", batch_size=1)
        .to_pandas()
    )

    # norms rewrite per-FILE in place (atomic tmp+rename each), mirroring the
    # sharded branch: a readable, consistent norms set exists at every
    # instant and a crashed compaction re-runs idempotently (filtering an
    # already-filtered file is a no-op) — never delete-dir-then-write
    n_docs, total_len = 0, 0
    for fpath, ftbl in norms_tbls.items():
        fids = ftbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        fkeep = live_mask(deleted_all, fids)
        if not fkeep.all():
            ftbl = ftbl.filter(pa.array(fkeep))
            fsio.write_table_atomic(ftbl, fpath)
        n_docs += ftbl.num_rows
        total_len += int(pa.compute.sum(ftbl["doc_len"]).as_py() or 0)
    manifest.update({
        "num_docs": int(n_docs),
        "avgdl": (total_len / n_docs) if n_docs else 0.0,
        "total_terms": total_len,
        "partitions": sorted(
            part_stats.to_dict("records"), key=lambda r: r["part"]
        ),
        "compact_wall_sec": round(time.time() - t0, 3),
    })
    fsio.write_json_atomic(
        manifest, fsio.join(out_dir, "manifest.json"), indent=1, default=int
    )
    clear_deletes(out_dir)
    return manifest
