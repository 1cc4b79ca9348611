"""Resumable, segment-based index build (north rule: per-partition
checkpoints, lineage, throughput metrics; SURVEY.md §4 checkpoint/resume).

The corpus is split into SHARDS of contiguous doc_id ranges (aligned to the
salt range).  Each shard builds an independent SEGMENT — the same SPIMI
pipeline as ``build.build_index`` restricted to its range — and commits
atomically:

    out/segments/shard-{i:05d}/part-{p:05d}.parquet   postings runs
    out/segments/shard-{i:05d}/norms.parquet          (doc_id, doc_len)
    out/segments/shard-{i:05d}/lineage.json           inputs, counts, wall,
                                                      docs/s, versions
    out/segments/shard-{i:05d}/_SUCCESS               commit marker

A re-run SKIPS every shard with a marker (resume = re-invoke; at most the
one in-flight shard is rebuilt).  Because shard ranges are disjoint,
increasing, and salt-aligned, final assembly concatenates each term's
encoded block runs WITHOUT re-encoding (codec.concat_runs) — one cheap
parallel pass per index partition, also atomic.  The final index layout and
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
    TokenizeStage,
    make_spimi_partial,
    merge_bucket,
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


def build_segment(
    docs,
    out_dir: str,
    shard: int,
    lo: int,
    hi: int,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    analyzer: str = "english",
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    salt_range: int = DEFAULT_SALT_RANGE,
    batch_size: int = 1024,
    content_fp: Optional[int] = None,
) -> dict:
    """Build one shard segment over doc_ids in [lo, hi).  Atomic commit via
    tmp-dir rename (local) or marker file (object stores); returns the
    lineage record."""
    from .. import fsio

    t0 = time.time()
    seg = _shard_dir(out_dir, shard)
    tmp = _begin_segment(seg)

    sub = docs.filter(expr=f"{id_col} >= {lo} and {id_col} < {hi}")
    tokenize_kwargs = dict(
        fn_constructor_kwargs={"analyzer": analyzer, "text_col": text_col, "id_col": id_col},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=(1, 8),
    )
    tokenized = sub.map_batches(TokenizeStage, **tokenize_kwargs).materialize()

    # norms + stats
    norms = tokenized.select_columns(["doc_id", "doc_len"]).to_pandas()
    norms = norms.sort_values("doc_id", kind="stable")
    fsio.write_table_atomic(pa.Table.from_pandas(norms, preserve_index=False),
                            fsio.join(tmp, "norms.parquet"))
    n_docs = len(norms)
    total_len = int(norms["doc_len"].sum())

    partials = tokenized.map_batches(
        make_spimi_partial(num_partitions, salt_range),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    merged = partials.groupby(["part", "salt"]).map_groups(
        merge_bucket, batch_format="pandas"
    )

    def write_part(group: pd.DataFrame) -> pd.DataFrame:
        from .. import fsio as _fsio
        from .build import assemble_partition_table

        part = int(group["part"].iloc[0])
        tbl = assemble_partition_table(group)
        _fsio.write_table_atomic(tbl, _fsio.join(tmp, f"part-{part:05d}.parquet"))
        return pd.DataFrame({"part": [part], "n_terms": [tbl.num_rows]})

    part_rows = (
        merged.groupby("part").map_groups(write_part, batch_format="pandas").to_pandas()
    )

    wall = time.time() - t0
    lineage = {
        "shard": shard,
        "doc_id_lo": lo,
        "doc_id_hi": hi,
        "n_docs": n_docs,
        "total_terms": total_len,
        "n_parts_written": int(len(part_rows)),
        "analyzer": analyzer,
        "num_partitions": num_partitions,
        "salt_range": salt_range,
        "format_version": FORMAT_VERSION,
        "content_fp": content_fp,
        "wall_sec": round(wall, 3),
        "docs_per_sec": round(n_docs / max(wall, 1e-9), 1),
    }
    fsio.write_json_atomic(lineage, fsio.join(tmp, "lineage.json"), indent=1)
    fsio.write_text(fsio.join(tmp, "_SUCCESS"), "ok")  # marker LAST
    _commit_segment(tmp, seg)
    return lineage


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
    """Build ``len(shards)`` shard segments in ONE Ray pass (VERDICT r2
    'Next round' #6: the per-shard driver loop pays ~3 barriers of fixed
    overhead per shard; at 100 TB with 256k-doc shards that is millions of
    sequential barriers).  Grouping k shards amortizes the tokenize
    materialize + merge shuffle + write shuffle over k shards, while
    per-shard atomicity is preserved: every shard still gets its own tmp
    dir, lineage and _SUCCESS marker, committed only after the pass — a
    mid-pass crash rebuilds at most the group (bounded by
    ``geometry.auto_shard_group``'s cap).

    Requires ``shard_docs % salt_range == 0`` so every (part, salt) merge
    group lands in exactly one shard (shard = salt * salt_range //
    shard_docs) — the caller falls back to per-shard builds otherwise.

    ``shard_ds`` holds the (id, text) rows of all ``shards`` (shard
    membership is derived from ``id_col // shard_docs``, so no tag column
    is needed).  Returns lineage records in ``shards`` order."""
    from .. import fsio

    assert shard_docs % salt_range == 0
    t0 = time.time()
    content_fps = content_fps or {}
    tmp_dirs = {}
    for shard in shards:
        tmp_dirs[shard] = _begin_segment(_shard_dir(out_dir, shard))

    tokenized = shard_ds.map_batches(
        TokenizeStage,
        fn_constructor_kwargs={
            "analyzer": analyzer, "text_col": text_col, "id_col": id_col,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=(1, 8),
    ).materialize()

    # norms: one grouped pass writes each shard's sorted norms file into its
    # tmp dir (tasks share the filesystem, as build_segment's writers already
    # assume) and returns the per-shard doc/term counts for lineage.
    def write_norms(group: pd.DataFrame) -> pd.DataFrame:
        from .. import fsio as _fsio

        shard = int(group["_shard"].iloc[0])
        g = group.sort_values("doc_id", kind="stable").drop(columns=["_shard"])
        _fsio.write_table_atomic(
            pa.Table.from_pandas(g, preserve_index=False),
            _fsio.join(tmp_dirs[shard], "norms.parquet"),
        )
        return pd.DataFrame({
            "shard": [shard],
            "n_docs": [len(g)],
            "total_terms": [int(g["doc_len"].sum())],
        })

    def tag_shard(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column(
            "_shard", pa.array(ids // shard_docs, pa.int64())
        )

    stats_rows = (
        tokenized.select_columns(["doc_id", "doc_len"])
        .map_batches(tag_shard, batch_format="pyarrow")
        .groupby("_shard")
        .map_groups(write_norms, batch_format="pandas")
        .to_pandas()
    )
    counts = {
        int(r["shard"]): (int(r["n_docs"]), int(r["total_terms"]))
        for _, r in stats_rows.iterrows()
    }

    partials = tokenized.map_batches(
        make_spimi_partial(num_partitions, salt_range),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    merged = partials.groupby(["part", "salt"]).map_groups(
        merge_bucket, batch_format="pandas"
    )

    def tag_merged(b: pd.DataFrame) -> pd.DataFrame:
        b["_shard"] = b["salt"].to_numpy(np.int64) * salt_range // shard_docs
        return b

    def write_part(group: pd.DataFrame) -> pd.DataFrame:
        from .. import fsio as _fsio
        from .build import assemble_partition_table

        shard = int(group["_shard"].iloc[0])
        part = int(group["part"].iloc[0])
        tbl = assemble_partition_table(group.drop(columns=["_shard"]))
        _fsio.write_table_atomic(
            tbl, _fsio.join(tmp_dirs[shard], f"part-{part:05d}.parquet")
        )
        return pd.DataFrame({
            "shard": [shard], "part": [part], "n_terms": [tbl.num_rows],
        })

    part_rows = (
        merged.map_batches(tag_merged, batch_format="pandas")
        .groupby(["_shard", "part"])
        .map_groups(write_part, batch_format="pandas")
        .to_pandas()
    )
    parts_per_shard = (
        part_rows.groupby("shard")["part"].count().to_dict() if len(part_rows)
        else {}
    )

    # commit every shard: lineage + marker into tmp, then atomic rename
    wall = time.time() - t0
    lineages = []
    for shard in shards:
        n_docs, total_terms = counts.get(shard, (0, 0))
        if n_docs == 0:  # empty shard range: write an empty norms file
            fsio.write_table_atomic(
                pa.table({
                    "doc_id": pa.nulls(0, pa.int64()),
                    "doc_len": pa.nulls(0, pa.int32()),
                }),
                fsio.join(tmp_dirs[shard], "norms.parquet"),
            )
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
    shard_group: Optional[int] = None,
) -> dict:
    """Sharded resumable build.  ``shard_docs`` must be a multiple of
    ``salt_range`` (keeps shard runs salt-aligned so assembly is pure
    concatenation).  ``max_shards`` stops early (used by the kill/resume
    test to simulate a crash).  ``shard_group`` = shards built per Ray pass
    (default: ``geometry.auto_shard_group`` — scales with cluster CPUs);
    grouping amortizes per-pass barriers without changing per-shard commit
    atomicity.  Returns the manifest from ``assemble`` (or a
    partial-progress dict when stopped early)."""
    assert shard_docs % salt_range == 0 or shard_docs == salt_range or salt_range % shard_docs == 0, (
        "shard_docs must align with salt_range"
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
    # a hive-layout staging dir, so each build_segment reads ONLY its range —
    # total read volume is O(corpus + rebuilt shards), not O(corpus x shards)
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

    from ..geometry import auto_shard_group

    grp_size = shard_group or auto_shard_group()
    if shard_docs % salt_range != 0:
        grp_size = 1  # salt spans shards — (part, salt) groups not shard-local

    built: List[dict] = [reuse[s] for s in todo if s in reuse]
    if grp_size > 1:
        for i in range(0, len(need), grp_size):
            grp = need[i : i + grp_size]
            # list the parquet files explicitly: a LIST of _-prefixed dirs is
            # not expanded by read_parquet (underscore paths are "hidden" to
            # Arrow dataset discovery; single-dir reads work, lists don't)
            paths = [
                fsio.join(p, f)
                for s in grp
                if fsio.isdir(p := fsio.join(staging, f"_shard={s}"))
                for f in fsio.listdir(p)
                if f.endswith(".parquet")
            ]
            if paths:
                grp_ds = rd.read_parquet(paths, columns=[id_col, text_col])
            else:
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
    else:
        for shard in need:
            shard_path = fsio.join(staging, f"_shard={shard}")
            if fsio.isdir(shard_path):
                shard_ds = rd.read_parquet(shard_path, columns=[id_col, text_col])
            else:  # shard range holds no rows
                shard_ds = rd.from_arrow(pa.table({
                    id_col: pa.nulls(0, pa.int64()),
                    text_col: pa.nulls(0, pa.string()),
                }))
            built.append(
                build_segment(
                    shard_ds, out_dir, shard,
                    shard * shard_docs, (shard + 1) * shard_docs,
                    text_col=text_col, id_col=id_col, analyzer=analyzer,
                    num_partitions=num_partitions, salt_range=salt_range,
                    batch_size=batch_size,
                    content_fp=stats.get(shard, {"cnt": 0, "fp": 0})["fp"],
                )
            )
    if max_shards is not None and max_shards < n_shards:
        return {"partial": True, "shards_built": len(built), "n_shards": n_shards}
    fsio.remove_dir(staging)
    return assemble(out_dir, analyzer=analyzer, num_partitions=num_partitions,
                    salt_range=salt_range)


def assemble(
    out_dir: str,
    *,
    analyzer: str = "english",
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    salt_range: int = DEFAULT_SALT_RANGE,
) -> dict:
    """Final assembly: per index partition, concatenate every committed
    shard's encoded runs per term (shard order = docid order → valid
    concat_runs input).  One parallel Ray-Data pass over partition ids;
    atomic per-partition writes; manifest written last."""
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

    def assemble_part(batch: pa.Table) -> pa.Table:
        from .. import fsio as _fsio

        out_rows = {"part": [], "n_terms": [], "n_postings": [], "bytes": []}
        for part in batch["part"].to_pylist():
            frames = []
            for s in shards:
                p = _fsio.join(seg_root, f"shard-{s:05d}", f"part-{part:05d}.parquet")
                if _fsio.exists(p):
                    t = _fsio.read_table(p)
                    if t.num_rows:
                        frames.append(t.to_pandas().assign(_shard=s))
            if not frames:
                continue
            allp = pd.concat(frames, ignore_index=True)
            terms, dfs, cfs, metas, payloads = [], [], [], [], []
            for term, g in allp.groupby("term", sort=True):
                g = g.sort_values("_shard", kind="stable")  # docid order
                meta_b, payload = codec.concat_runs(list(zip(g["meta"], g["payload"])))
                terms.append(term)
                dfs.append(int(g["df"].sum()))
                cfs.append(int(g["cf"].sum()))
                metas.append(meta_b)
                payloads.append(payload)
            tbl = pa.table(
                {
                    "term": pa.array(terms, pa.string()),
                    "df": pa.array(dfs, pa.int64()),
                    "cf": pa.array(cfs, pa.int64()),
                    "meta": pa.array(metas, pa.binary()),
                    "payload": pa.array(payloads, pa.binary()),
                }
            )
            final = _fsio.join(out_dir, "index", f"part-{part:05d}.parquet")
            _fsio.write_table_atomic(tbl, final)
            out_rows["part"].append(part)
            out_rows["n_terms"].append(len(terms))
            out_rows["n_postings"].append(int(sum(dfs)))
            out_rows["bytes"].append(_fsio.getsize(final))
        return pa.table({k: pa.array(v) for k, v in out_rows.items()})

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
