"""Upsert / reindex-by-id — the ES ``es.index``-overwrite semantic.

The reference writes every document through ``es.index(id=...)``
(/root/reference/sentiment.py:227): indexing an id that already exists
REPLACES the stored document atomically; Lucene implements that as a
tombstone on the old internal docid plus an append of the new one.  This
module is the Ray-native analogue over the range-sharded segment layout
(segments.py), composed entirely of the existing primitives:

1. **overlay** — the merged corpus is ``docs`` with every updated id
   masked out, unioned with ``updates`` (update ids broadcast once via
   ``ray.put``; O(updates) driver state, the same honest bound as the
   tombstone set itself).  The corpus is never collected — the overlay is
   one streamed ``map_batches`` filter.
2. **incremental rebuild** — ``build_resumable`` over the merged corpus:
   each committed shard carries a content fingerprint of its (id → text)
   range, so ONLY shards whose range holds an updated/new id rebuild;
   every untouched shard is reused as-is.  The touched shards are rebuilt
   together, in passes of up to 16 shards of ``build.index_pass`` (the
   same SPIMI chain as ``build_index``).  Cost: one projected (id, text)
   corpus scan + O(touched shards) rebuild — not a full build.
3. **revive** — pending tombstones on the upserted ids are removed
   (``deletes.undelete_docs``): a re-indexed doc is live again, exactly
   ES.  Other tombstones keep filtering; a rebuilt shard may physically
   resurrect *other* tombstoned docs in its range, but serving masks them
   via the untouched tombstone store (the pre-compaction state, still
   rank-identical) — the deletes-module contract that persisting a delete
   across rebuilds requires filtering the SOURCE is unchanged.

On the single-pass (unsegmented) layout there is no per-shard reuse to
exploit; the overlay still streams but the rebuild is a full
``build_index`` (documented O(corpus) — use the sharded layout when
upserts are part of the workload)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def upsert_docs(
    out_dir: str,
    updates,
    docs,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    batch_size: int = 1024,
) -> dict:
    """Replace-or-add documents by id (see module docstring).

    ``updates``: Ray Dataset / pyarrow Table of (id_col, text_col) rows —
    the new versions.  ``docs``: the full current corpus Dataset (source
    of truth; the index stores postings, not text, so shard rebuilds read
    text from here).  Index geometry (analyzer, partitions, salt range,
    shard size) comes from the committed manifest.  Returns the new
    manifest."""
    import ray
    import ray.data as rd

    from .. import fsio
    from .build import build_index
    from .deletes import live_mask, undelete_docs
    from .segments import build_resumable, carry_manifest_keys

    manifest = fsio.read_json(fsio.join(out_dir, "manifest.json"))

    if isinstance(updates, rd.Dataset):
        upd_tbl = pa.Table.from_pandas(
            updates.select_columns([id_col, text_col]).to_pandas(),
            preserve_index=False,
        )
    elif isinstance(updates, pa.Table):
        upd_tbl = updates.select([id_col, text_col])
    else:
        upd_tbl = pa.table(updates).select([id_col, text_col])
    upd_ids = np.unique(
        upd_tbl[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    )
    if upd_ids.size != upd_tbl.num_rows:
        raise ValueError("updates must hold one row per doc_id")
    upd_ids_ref = ray.put(upd_ids)

    def drop_updated(batch: pa.Table) -> pa.Table:
        import ray as _ray

        dead = _ray.get(upd_ids_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.select([id_col, text_col]).filter(
            pa.array(live_mask(dead, ids))
        )

    merged = (
        docs.select_columns([id_col, text_col])
        .map_batches(drop_updated, batch_format="pyarrow")
        .union(rd.from_arrow(upd_tbl))
    )

    segs = manifest.get("segments") or []
    if segs:
        shard_docs = int(segs[0]["doc_id_hi"]) - int(segs[0]["doc_id_lo"])
        new_manifest = build_resumable(
            merged, out_dir,
            text_col=text_col, id_col=id_col,
            analyzer=manifest["analyzer"],
            num_partitions=int(manifest["num_partitions"]),
            salt_range=int(manifest.get("salt_range", shard_docs)),
            shard_docs=shard_docs,
            batch_size=batch_size,
        )
    else:
        new_manifest = build_index(
            merged, out_dir,
            text_col=text_col, id_col=id_col,
            analyzer=manifest["analyzer"],
            num_partitions=int(manifest["num_partitions"]),
            batch_size=batch_size,
            salt_range=manifest.get("salt_range"),
        )

    # revive: upserted ids are live again even if previously tombstoned
    undelete_docs(out_dir, upd_ids, id_col=id_col)

    # serving config (docs_path, docs_text_col, ...) survives the rebuild
    return carry_manifest_keys(out_dir, manifest, new_manifest)
