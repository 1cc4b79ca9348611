"""Resumable, segment-based index build (north rule: per-partition
checkpoints, lineage, throughput metrics; SURVEY.md §4 checkpoint/resume).

The corpus is split into SHARDS of contiguous doc_id ranges (aligned to the
salt range).  Each shard is an independent SEGMENT, built by the same SPIMI
chain as ``build.build_index`` (``build.index_pass``; one pass builds up to
``PASS_SHARDS`` = 16 shards), and commits atomically:

    out/segments/shard-{i:05d}/part-{p:05d}.parquet   postings runs
    out/segments/shard-{i:05d}/norms.parquet          (doc_id, doc_len)
    out/segments/shard-{i:05d}/lineage.json           inputs, counts, wall,
                                                      docs/s, versions
    out/segments/shard-{i:05d}/_SUCCESS               commit marker

A re-run SKIPS every shard with a marker (resume = re-invoke; at most the
one in-flight pass of <= 16 shards is rebuilt).  Because shard ranges are
disjoint, increasing, and salt-aligned, final assembly concatenates each
term's encoded block runs WITHOUT re-encoding (codec.concat_runs) — one
cheap parallel pass per index partition, also atomic.  The final index layout and
query results are IDENTICAL to the single-pass builder's (tested).

Incremental ingest (reference W1: the unbounded poll loop): new documents
get doc_ids beyond the current maximum → they form new shards; re-running
``build_resumable`` + ``assemble`` folds them in — the Ray-native analogue
of ES adding and merging Lucene segments.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from . import codec
from .build import (
    DEFAULT_NUM_PARTITIONS,
    DEFAULT_SALT_RANGE,
    index_pass,
    make_partition_writer,
)

FORMAT_VERSION = 1


def _shard_dir(out_dir: str, shard: int) -> str:
    from .. import fsio

    return fsio.join(out_dir, "segments", f"shard-{shard:05d}")


def _begin_segment(seg: str) -> str:
    """Staging dir for a segment build (fsio portability, VERDICT r3 #6):
    on a local filesystem, a ``<seg>.tmp`` dir later committed by atomic
    rename; on object-store URIs (no atomic dir rename) the final prefix
    itself — the ``_SUCCESS`` marker written LAST is the commit, which is
    exactly what the resume check keys on."""
    from .. import fsio

    if fsio.is_local(seg):
        tmp = seg + ".tmp"
        fsio.remove_dir(tmp)
        fsio.makedirs(tmp)
        return tmp
    fsio.remove_dir(seg)
    fsio.makedirs(seg)
    return seg


def _commit_segment(tmp: str, seg: str) -> None:
    from .. import fsio

    if tmp != seg:
        fsio.commit_dir(tmp, seg)  # atomic local rename


def shard_stats(docs, id_col: str, text_col: str, shard_docs: int) -> dict:
    """One projected pass over (id, text): per shard, (row count, content
    fingerprint).  The fingerprint is an order-invariant sum of
    crc32(text)*(doc_id+1) mod 2^61 — it changes whenever any (doc_id →
    text) assignment in the range changes, which catches the rank-shift
    case where an upstream append renumbers docs but leaves interior-shard
    COUNTS identical (count alone would silently keep a stale segment)."""
    import zlib

    from ray.data.aggregate import Sum

    MOD = (1 << 61) - 1

    def local(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = batch[text_col].to_pylist()
        shard = ids // shard_docs
        fp = np.fromiter(
            (
                (zlib.crc32((t or "").encode()) * (int(i) + 1)) % MOD
                for i, t in zip(ids, texts)
            ),
            np.int64,
            len(ids),
        )
        t = pa.table({"shard": pa.array(shard), "fp": pa.array(fp)})
        g = pa.TableGroupBy(t, "shard").aggregate([("fp", "sum"), ([], "count_all")])
        # int64 wraparound on the sums is fine AND required to stay
        # partition-invariant: mod-2^64 addition is associative/commutative,
        # so the final fingerprint is identical under any batching.
        return g.rename_columns(["shard", "p_fp", "p_cnt"])

    rows = (
        docs.select_columns([id_col, text_col])
        .map_batches(local, batch_format="pyarrow")
        .groupby("shard")
        .aggregate(Sum("p_fp", alias_name="fp"), Sum("p_cnt", alias_name="cnt"))
        .take_all()
    )
    return {int(r["shard"]): {"cnt": int(r["cnt"]), "fp": int(r["fp"])} for r in rows}


PASS_SHARDS = 16  # shards per build pass: bounds what a mid-pass crash rebuilds


def build_segment_group(
    shard_ds,
    out_dir: str,
    shards: List[int],
    shard_docs: int,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    analyzer: str = "english",
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    salt_range: int = DEFAULT_SALT_RANGE,
    batch_size: int = 1024,
    content_fps: Optional[dict] = None,
) -> List[dict]:
    """Build ``len(shards)`` shard segments in ONE pass of
    ``build.index_pass`` (VERDICT r2 'Next round' #6: a loop of one pass
    per shard pays ~3 barriers of fixed overhead per shard; at 100 TB with
    256k-doc shards that is millions of sequential barriers).  Per-shard
    atomicity is preserved: every shard gets its own tmp dir, lineage and
    _SUCCESS marker, committed only after the pass — a mid-pass crash
    rebuilds at most the pass (``PASS_SHARDS``).

    The partials use salt range ``min(salt_range, shard_docs)``, so every
    (part, salt) merge group lies in one shard (shard = salt //
    salts_per_shard) and the writer routes its runs to that shard's dir.

    ``shard_ds`` holds the (id, text) rows of all ``shards`` (shard
    membership is derived from ``id_col // shard_docs``, so no tag column
    is needed).  Returns lineage records in ``shards`` order."""
    from .. import fsio

    t0 = time.time()
    content_fps = content_fps or {}
    tmp_dirs = {}
    for shard in shards:
        tmp_dirs[shard] = _begin_segment(_shard_dir(out_dir, shard))

    seg_salt = min(salt_range, shard_docs)
    tokenized, part_rows = index_pass(
        shard_ds,
        make_partition_writer(out_dir, tmp_dirs, shard_docs // seg_salt),
        text_col=text_col, id_col=id_col, analyzer=analyzer,
        num_partitions=num_partitions, salt_range=seg_salt,
        batch_size=batch_size,
    )

    # norms: the pass's (doc_id, doc_len) rows, collected in this process —
    # 12 B/doc for at most PASS_SHARDS shards — split into each shard's
    # sorted file
    norms = tokenized.select_columns(["doc_id", "doc_len"]).to_pandas()
    if not len(norms):  # the pass holds no rows: typed, empty columns
        norms = pd.DataFrame({"doc_id": np.zeros(0, np.int64),
                              "doc_len": np.zeros(0, np.int32)})
    norms = norms.sort_values("doc_id", kind="stable")
    norm_shard = norms["doc_id"].to_numpy(np.int64) // shard_docs
    parts_per_shard = (
        part_rows.groupby("shard")["part"].count().to_dict() if len(part_rows)
        else {}
    )

    # commit every shard: lineage + marker into tmp, then atomic rename
    wall = time.time() - t0
    lineages = []
    for shard in shards:
        g = norms[norm_shard == shard]
        n_docs, total_terms = len(g), int(g["doc_len"].sum())
        fsio.write_table_atomic(pa.Table.from_pandas(g, preserve_index=False),
                                fsio.join(tmp_dirs[shard], "norms.parquet"))
        lineage = {
            "shard": shard,
            "doc_id_lo": shard * shard_docs,
            "doc_id_hi": (shard + 1) * shard_docs,
            "n_docs": n_docs,
            "total_terms": total_terms,
            "n_parts_written": int(parts_per_shard.get(shard, 0)),
            "analyzer": analyzer,
            "num_partitions": num_partitions,
            "salt_range": salt_range,
            "format_version": FORMAT_VERSION,
            "content_fp": content_fps.get(shard),
            "group_shards": list(shards),
            "wall_sec": round(wall, 3),
            "docs_per_sec": round(n_docs / max(wall, 1e-9), 1),
        }
        fsio.write_json_atomic(
            lineage, fsio.join(tmp_dirs[shard], "lineage.json"), indent=1
        )
        fsio.write_text(fsio.join(tmp_dirs[shard], "_SUCCESS"), "ok")
        _commit_segment(tmp_dirs[shard], _shard_dir(out_dir, shard))
        lineages.append(lineage)
    return lineages


def build_resumable(
    docs,
    out_dir: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    analyzer: str = "english",
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    salt_range: int = DEFAULT_SALT_RANGE,
    shard_docs: int = DEFAULT_SALT_RANGE,
    batch_size: int = 1024,
    max_shards: Optional[int] = None,
    extra_manifest: Optional[dict] = None,
) -> dict:
    """Sharded resumable build.  One of ``shard_docs`` and ``salt_range``
    must divide the other (keeps shard runs salt-aligned so assembly is
    pure concatenation).  The shards to (re)build go through
    ``build_segment_group`` in passes of at most ``PASS_SHARDS``.
    ``max_shards`` stops early (used by the kill/resume test to simulate a
    crash).  ``extra_manifest`` keys (e.g. serving config such as
    ``docs_path``/``docs_text_col``) are written into the manifest, as in
    ``build_index``.  Returns the manifest from ``assemble`` (or a
    partial-progress dict when stopped early)."""
    if shard_docs % salt_range and salt_range % shard_docs:
        raise ValueError(
            f"shard_docs ({shard_docs}) must align with salt_range ({salt_range})"
        )
    from .. import fsio

    fsio.makedirs(out_dir)

    # shard planning: [0, max_doc_id] in fixed ranges — derived from data,
    # O(#shards) driver state.  One cheap aggregation pass (id column only)
    # counts docs per shard, so an APPEND that lands new docs inside an
    # already-committed boundary shard invalidates just that shard.
    stats = shard_stats(docs, id_col, text_col, shard_docs)
    n_shards = max(stats) + 1 if stats else 0
    todo = range(n_shards) if max_shards is None else range(min(n_shards, max_shards))

    # decide reuse up front so the staging pass below writes only the shards
    # that actually need (re)building
    reuse: dict = {}
    need: List[int] = []
    for shard in todo:
        seg = _shard_dir(out_dir, shard)
        marker = fsio.join(seg, "_SUCCESS")
        cur = stats.get(shard, {"cnt": 0, "fp": 0})
        if fsio.exists(marker):
            lin = fsio.read_json(fsio.join(seg, "lineage.json"))
            if lin["n_docs"] == cur["cnt"] and lin.get("content_fp") == cur["fp"]:
                reuse[shard] = lin
                continue
            # shard range changed since commit — gained docs (append
            # boundary) OR same count with different (doc_id → text)
            # content (upstream renumbering) — rebuild it
        need.append(shard)

    # ONE projected pass over the corpus partitions the to-build shards into
    # a hive-layout staging dir, so each pass reads ONLY its shards' rows —
    # total read volume is O(corpus + rebuilt shards), not O(corpus x passes)
    import ray.data as rd

    staging = fsio.join(out_dir, "_staging")
    if need:
        fsio.remove_dir(staging)
        need_arr = np.asarray(need, dtype=np.int64)

        def tag_and_filter(batch: pa.Table) -> pa.Table:
            ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            sh = ids // shard_docs
            mask = np.isin(sh, need_arr)
            out = batch.select([id_col, text_col]).filter(pa.array(mask))
            return out.append_column("_shard", pa.array(sh[mask]))

        docs.select_columns([id_col, text_col]).map_batches(
            tag_and_filter, batch_format="pyarrow"
        ).write_parquet(staging, partition_cols=["_shard"])

    built: List[dict] = [reuse[s] for s in todo if s in reuse]
    for i in range(0, len(need), PASS_SHARDS):
        grp = need[i : i + PASS_SHARDS]
        # list the parquet files explicitly: a LIST of _-prefixed dirs is
        # not expanded by read_parquet (underscore paths are "hidden" to
        # Arrow dataset discovery; single-dir reads work, lists don't).  A
        # list of URIs is read through the staging dir's filesystem.
        paths = [
            fsio.resolve(fsio.join(p, f))[1]
            for s in grp
            if fsio.isdir(p := fsio.join(staging, f"_shard={s}"))
            for f in fsio.listdir(p)
            if f.endswith(".parquet")
        ]
        if paths:
            grp_ds = rd.read_parquet(paths, columns=[id_col, text_col],
                                     filesystem=fsio.resolve(staging)[0])
        else:  # the pass's shard ranges hold no rows
            grp_ds = rd.from_arrow(pa.table({
                id_col: pa.nulls(0, pa.int64()),
                text_col: pa.nulls(0, pa.string()),
            }))
        built.extend(
            build_segment_group(
                grp_ds, out_dir, grp, shard_docs,
                text_col=text_col, id_col=id_col, analyzer=analyzer,
                num_partitions=num_partitions, salt_range=salt_range,
                batch_size=batch_size,
                content_fps={
                    s: stats.get(s, {"cnt": 0, "fp": 0})["fp"] for s in grp
                },
            )
        )
    if max_shards is not None and max_shards < n_shards:
        return {"partial": True, "shards_built": len(built), "n_shards": n_shards}
    fsio.remove_dir(staging)
    return assemble(out_dir, analyzer=analyzer, num_partitions=num_partitions,
                    salt_range=salt_range, extra_manifest=extra_manifest)


def assemble(
    out_dir: str,
    *,
    analyzer: str = "english",
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    salt_range: int = DEFAULT_SALT_RANGE,
    extra_manifest: Optional[dict] = None,
) -> dict:
    """Final assembly: per index partition, concatenate every committed
    shard's encoded runs per term with ``build.assemble_partition_table``
    (runs ordered by shard = docid order → valid concat_runs input).  One
    parallel Ray-Data pass over partition ids; atomic per-partition writes;
    manifest written last, with ``extra_manifest`` keys added."""
    import ray.data as rd

    from .. import fsio

    seg_root = fsio.join(out_dir, "segments")
    shards = sorted(
        int(d.split("-")[1])
        for d in fsio.listdir(seg_root)
        if d.startswith("shard-") and not d.endswith(".tmp")
        and fsio.exists(fsio.join(seg_root, d, "_SUCCESS"))
    )
    lineages = [
        fsio.read_json(fsio.join(seg_root, f"shard-{s:05d}", "lineage.json"))
        for s in shards
    ]

    t0 = time.time()
    fsio.remove_dir(fsio.join(out_dir, "index"))
    fsio.remove_dir(fsio.join(out_dir, "norms"))
    fsio.makedirs(fsio.join(out_dir, "index"))
    fsio.makedirs(fsio.join(out_dir, "norms"))

    write_partition = make_partition_writer(out_dir)

    def assemble_part(batch: pa.Table) -> pa.Table:
        from .. import fsio as _fsio

        out_rows = []
        for part in batch["part"].to_pylist():
            frames = []
            for s in shards:
                p = _fsio.join(seg_root, f"shard-{s:05d}", f"part-{part:05d}.parquet")
                if _fsio.exists(p):
                    t = _fsio.read_table(p)
                    if t.num_rows:
                        # the shard orders the runs, as the salt does in a build
                        frames.append(t.to_pandas().assign(part=part, salt=s))
            if frames:
                out_rows.append(write_partition(pd.concat(frames, ignore_index=True)))
        if not out_rows:
            return pa.table({k: pa.array([], pa.int64())
                             for k in ("part", "n_terms", "n_postings", "bytes")})
        return pa.Table.from_pandas(pd.concat(out_rows), preserve_index=False)

    stats = (
        rd.from_items([{"part": p} for p in range(num_partitions)])
        .map_batches(assemble_part, batch_format="pyarrow", batch_size=4)
        .to_pandas()
    )

    # norms: copy shard norms into the final layout (atomic per file)
    for s in shards:
        src = fsio.join(seg_root, f"shard-{s:05d}", "norms.parquet")
        dst = fsio.join(out_dir, "norms", f"shard-{s:05d}.parquet")
        fsio.write_table_atomic(fsio.read_table(src), dst)

    n_docs = int(sum(l["n_docs"] for l in lineages))
    total_len = int(sum(l["total_terms"] for l in lineages))
    manifest = {
        "format_version": FORMAT_VERSION,
        "num_docs": n_docs,
        "avgdl": (total_len / n_docs) if n_docs else 0.0,
        "total_terms": total_len,
        "analyzer": analyzer,
        "k1": codec.K1,
        "b": codec.B,
        "block_size": codec.BLOCK_SIZE,
        "num_partitions": num_partitions,
        "salt_range": salt_range,
        "segments": lineages,
        "partitions": sorted(stats.to_dict("records"), key=lambda r: r["part"]),
        "assemble_wall_sec": round(time.time() - t0, 3),
        "build_docs_per_sec_sum": round(
            sum(l["docs_per_sec"] for l in lineages), 1
        ),
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    fsio.write_json_atomic(
        manifest, fsio.join(out_dir, "manifest.json"), indent=1, default=int
    )
    return manifest


# Keys a rebuild intentionally refreshes are never copied forward; every
# OTHER old-manifest key (docs_path, docs_text_col, any extra_manifest the
# index was built with) is preserved across a rebuild — preserving by
# mechanism, not by whitelist, so future serving-config keys survive too.
# Transient per-operation stats are also dropped (stale after a rebuild).
_TRANSIENT_KEYS = ("compact_wall_sec",)


def carry_manifest_keys(out_dir: str, old: dict, new: dict) -> dict:
    """Copy the keys of ``old`` that ``new`` lacks into ``new`` and rewrite
    ``out_dir/manifest.json`` — after a rebuild (upsert) or a re-assembly
    (segmented compact) wrote a manifest from scratch.  Returns ``new``."""
    from .. import fsio

    preserved = {
        k: v for k, v in old.items()
        if k not in new and k not in _TRANSIENT_KEYS
    }
    if preserved:
        new.update(preserved)
        fsio.write_json_atomic(
            new, fsio.join(out_dir, "manifest.json"), indent=1, default=int,
        )
    return new
