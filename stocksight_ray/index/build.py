"""Distributed inverted-index build (SPIMI) — SURVEY.md §7 step 4.

Replaces the ES/Lucene segment build the reference delegates to
``es.index(...)`` (/root/reference/sentiment.py:227-240) with an explicit
Ray Data pipeline:

    docs (id, text)
      → map_batches(_tokenize_task) → materialize         # analyzer terms
      → map_batches(spimi_partial, per block)             # local invert per
            block → rows (part, term, salt, df, cf, ids/tfs/dls varbyte)
      → repartition(shuffle_num_blocks)                   # coalesce
      → groupby([part, salt]).map_groups(merge)           # shuffle 1: merge
            partials per term within a salt range → encoded block runs
      → groupby(part).map_groups(write_partition)         # shuffle 2 (small,
            compressed): assemble per-(shard, part) term files, atomic write

``index_pass`` is this chain, and the only one: ``build_index`` runs it
once over the whole corpus (one shard), ``segments.build_resumable`` once
per pass over up to 16 range shards.

Skew handling: ``salt = doc_id // salt_range`` splits a head term's postings
into bounded docid ranges, so no merge task ever holds more than
``salt_range`` docs of one term; stage-2 outputs are block runs with absolute
first-docids, so partition assembly concatenates them WITHOUT re-encoding
(codec.concat_runs).  ``part = crc32(term) % num_partitions`` is the
query-side routing key.

Scale notes: tokenization runs ONCE; the tokenized (doc_id, tokens, doc_len)
dataset is materialized into the object store and feeds both the norms write
and the partials pass.  At 100-TB scale the object store spills the tokens
column to disk — spill-once was measured cheaper than tokenize-twice (the
analyzer dominates CPU).
"""

from __future__ import annotations

import time
import zlib
from typing import Dict, List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from . import codec

DEFAULT_NUM_PARTITIONS = 64
DEFAULT_SALT_RANGE = 1 << 18  # docids per salt bucket (bounds merge memory)


def term_partition(term: str, num_partitions: int) -> int:
    """Deterministic, process-stable term → partition routing (crc32;
    python hash() is salted per process and must not be used)."""
    return zlib.crc32(term.encode("utf-8")) % num_partitions


class TokenizeStage:
    """Per-worker stage: text → analyzer terms + doc_len.

    Analyzer state (stopword sets, stem memo cache) is built once per stage
    in __init__ — the reference instead re-enters NLTK per record
    (/root/reference/sentiment.py:130-144)."""

    def __init__(self, analyzer: str = "english", text_col: str = "text", id_col: str = "doc_id"):
        from ..functions.analyzer import make_cached_analyzer

        self._analyze = make_cached_analyzer(analyzer)
        self._text_col = text_col
        self._id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self._text_col].to_pylist()
        tokens = [self._analyze(t) if t else [] for t in texts]
        doc_len = np.fromiter((len(t) for t in tokens), dtype=np.int32, count=len(tokens))
        return pa.table(
            {
                "doc_id": batch[self._id_col].cast(pa.int64()),
                "tokens": pa.array(tokens, pa.list_(pa.string())),
                "doc_len": pa.array(doc_len),
            }
        )


_TOKENIZE_CACHE: dict = {}


def _tokenize_task(batch: pa.Table, *, analyzer, text_col, id_col) -> pa.Table:
    """Task-form TokenizeStage: one stage per (worker process, config),
    reused across tasks — the stem memo cache then persists for the whole
    worker lifetime.  Construction is free (analyzer state is module data +
    an empty memo cache — measured ~3 ms), so tasks on warm worker
    processes beat an actor pool's cold-start ramp and CPU pinning, and
    never wait on a pool that holds the only CPU."""
    key = (analyzer, text_col, id_col)
    stage = _TOKENIZE_CACHE.get(key)
    if stage is None:
        stage = _TOKENIZE_CACHE.setdefault(
            key, TokenizeStage(analyzer=analyzer, text_col=text_col, id_col=id_col)
        )
    return stage(batch)


def _pack(arr: np.ndarray, delta: bool) -> bytes:
    v = arr.astype(np.uint64)
    if delta:
        # first element stays absolute: diff with prepend=0 → [v0, v1-v0, ...]
        v = np.diff(v, prepend=np.uint64(0))
    return codec.varbyte_encode(v)


def _unpack(buf: bytes, delta: bool) -> np.ndarray:
    v = codec.varbyte_decode(buf)
    if delta:
        v = np.cumsum(v.astype(np.int64))
        return v
    return v.astype(np.int64)


def make_spimi_partial(num_partitions: int, salt_range: int):
    """Stateless map_batches kernel: local invert of one batch of
    (doc_id, tokens, doc_len) into partial-posting rows."""

    def spimi_partial(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        dls = batch["doc_len"].to_numpy(zero_copy_only=False).astype(np.int64)
        tok = batch["tokens"]
        if isinstance(tok, pa.ChunkedArray):
            tok = tok.combine_chunks()
        lengths = pa.compute.list_value_length(tok).to_numpy(zero_copy_only=False)
        lengths = np.nan_to_num(lengths).astype(np.int64)
        flat_terms = tok.flatten().to_pandas()
        flat_ids = np.repeat(ids, lengths)
        flat_dls = np.repeat(dls, lengths)

        if len(flat_terms) == 0:
            return pa.table(
                {
                    "part": pa.array([], pa.int32()),
                    "term": pa.array([], pa.string()),
                    "salt": pa.array([], pa.int64()),
                    "df": pa.array([], pa.int64()),
                    "cf": pa.array([], pa.int64()),
                    "ids_b": pa.array([], pa.binary()),
                    "tfs_b": pa.array([], pa.binary()),
                    "dls_b": pa.array([], pa.binary()),
                }
            )

        df = pd.DataFrame({"term": flat_terms, "doc_id": flat_ids, "dl": flat_dls})
        tf = (
            df.groupby(["term", "doc_id"], sort=True)
            .agg(tf=("dl", "size"), dl=("dl", "first"))
            .reset_index()
        )
        tf["salt"] = tf["doc_id"].to_numpy() // salt_range
        # sorted by (term, doc_id) → (term, salt) groups are contiguous
        terms = tf["term"].to_numpy()
        salts = tf["salt"].to_numpy()
        doc_arr = tf["doc_id"].to_numpy()
        tf_arr = tf["tf"].to_numpy()
        dl_arr = tf["dl"].to_numpy()
        boundary = np.flatnonzero(
            np.concatenate(([True], (terms[1:] != terms[:-1]) | (salts[1:] != salts[:-1])))
        )
        ends = np.append(boundary[1:], terms.size)
        # one vectorized encode pass over ALL runs (byte-identical to the
        # per-run _pack calls it replaced — those were 97% of this stage's
        # wall at 5-8k runs/batch, profiled r3)
        run_terms = terms[boundary]
        ids_b = codec.varbyte_encode_segments(
            codec.delta_encode_segments(doc_arr, boundary), boundary
        )
        tfs_b = codec.varbyte_encode_segments(tf_arr, boundary)
        dls_b = codec.varbyte_encode_segments(dl_arr, boundary)
        cfs = np.add.reduceat(tf_arr, boundary)
        # partition routing: crc32 per UNIQUE term (vocab << runs), must stay
        # term_partition — the query side locates terms with the same fn
        uniq, inv = np.unique(run_terms, return_inverse=True)
        parts_u = np.fromiter(
            (term_partition(t, num_partitions) for t in uniq),
            np.int32, len(uniq),
        )
        return pa.table(
            {
                "part": pa.array(parts_u[inv], pa.int32()),
                "term": pa.array(run_terms, pa.string()),
                "salt": pa.array(salts[boundary].astype(np.int64)),
                "df": pa.array((ends - boundary).astype(np.int64)),
                "cf": pa.array(cfs.astype(np.int64)),
                "ids_b": pa.array(ids_b, pa.binary()),
                "tfs_b": pa.array(tfs_b, pa.binary()),
                "dls_b": pa.array(dls_b, pa.binary()),
            }
        )

    return spimi_partial


def merge_bucket(group: pd.DataFrame) -> pd.DataFrame:
    """Per-(part, salt) merge: for each term, merge-sort its partial postings
    and encode into block runs.

    Decode is batched: ALL partial runs in the group are concatenated and
    decoded in three vectorized passes (ids additionally need a per-run
    cumsum reset, ``codec.segmented_cumsum``), then sliced per term — the
    round-2 shape made ~3 tiny decode calls per (term, partial-run), which
    was the merge stage's wall (profiled r3).  Output is byte-identical."""
    rows = {"part": [], "term": [], "salt": [], "df": [], "cf": [], "meta": [], "payload": []}
    if not len(group):
        return pd.DataFrame(rows)
    part = int(group["part"].iloc[0])
    salt = int(group["salt"].iloc[0])
    g = group.sort_values("term", kind="stable")  # within-term row order kept
    dfs_run = g["df"].to_numpy(np.int64)
    ids_flat, run_starts = codec.varbyte_decode_concat(g["ids_b"], dfs_run)
    ids_flat = codec.segmented_cumsum(ids_flat, run_starts, dfs_run)
    tfs_flat = codec.varbyte_decode_concat(g["tfs_b"], dfs_run)[0].astype(np.int64)
    dls_flat = codec.varbyte_decode_concat(g["dls_b"], dfs_run)[0].astype(np.int64)
    terms_run = g["term"].to_numpy()
    first_run_of_term = np.flatnonzero(
        np.concatenate(([True], terms_run[1:] != terms_run[:-1]))
    )
    term_val_starts = run_starts[first_run_of_term]
    term_val_ends = np.append(term_val_starts[1:], ids_flat.size)
    for ri, lo, hi in zip(first_run_of_term, term_val_starts, term_val_ends):
        ids = ids_flat[lo:hi]
        tfs = tfs_flat[lo:hi]
        dls = dls_flat[lo:hi]
        order = np.argsort(ids, kind="stable")
        ids, tfs, dls = ids[order], tfs[order], dls[order]
        meta_b, payload = codec.encode_postings(ids, tfs, dls)
        rows["part"].append(part)
        rows["term"].append(terms_run[ri])
        rows["salt"].append(salt)
        rows["df"].append(ids.size)
        rows["cf"].append(int(tfs.sum()))
        rows["meta"].append(meta_b)
        rows["payload"].append(payload)
    return pd.DataFrame(rows)


def assemble_partition_table(group: pd.DataFrame) -> pa.Table:
    """Shared partition assembly: sort encoded runs by (term, salt) — the
    docid order concat_runs requires — and concatenate per term into the
    final (term, df, cf, meta, payload) table.  Used by the single-pass
    writer AND the segment writer so the two paths cannot diverge."""
    group = group.sort_values(["term", "salt"], kind="stable")
    terms: List[str] = []
    dfs: List[int] = []
    cfs: List[int] = []
    metas: List[bytes] = []
    payloads: List[bytes] = []
    for term, g in group.groupby("term", sort=True):
        meta_b, payload = codec.concat_runs(list(zip(g["meta"], g["payload"])))
        terms.append(term)
        dfs.append(int(g["df"].sum()))
        cfs.append(int(g["cf"].sum()))
        metas.append(meta_b)
        payloads.append(payload)
    return pa.table(
        {
            "term": pa.array(terms, pa.string()),
            "df": pa.array(dfs, pa.int64()),
            "cf": pa.array(cfs, pa.int64()),
            "meta": pa.array(metas, pa.binary()),
            "payload": pa.array(payloads, pa.binary()),
        }
    )


def make_partition_writer(out_dir: str,
                          shard_dirs: Optional[Dict[int, str]] = None,
                          salts_per_shard: Optional[int] = None):
    """Per-partition assembly + atomic write (fsio: local tmp+rename, or
    direct visibility-atomic PUT on object-store URIs — resolved inside the
    worker task).  Writes ``out_dir/index/part-NNNNN.parquet``; with
    ``shard_dirs``, each shard's runs (shard = ``salt // salts_per_shard``)
    go to ``shard_dirs[shard]/part-NNNNN.parquet`` instead.  Returns one
    manifest row per file (plus its ``shard`` when sharded)."""

    def write_partition(group: pd.DataFrame) -> pd.DataFrame:
        from .. import fsio

        part = int(group["part"].iloc[0])
        if shard_dirs is None:
            pieces = [(None, fsio.join(out_dir, "index"), group)]
        else:
            shard = group["salt"].to_numpy(np.int64) // salts_per_shard
            pieces = [(int(s), shard_dirs[int(s)], group[shard == s])
                      for s in np.unique(shard)]
        rows = []
        for s, d, g in pieces:
            tbl = assemble_partition_table(g)
            fsio.makedirs(d)
            final = fsio.join(d, f"part-{part:05d}.parquet")
            fsio.write_table_atomic(tbl, final)  # atomic per-partition checkpoint
            row = {} if s is None else {"shard": s}
            row.update(part=part, n_terms=tbl.num_rows,
                       n_postings=int(pa.compute.sum(tbl["df"]).as_py() or 0),
                       bytes=fsio.getsize(final))
            rows.append(row)
        return pd.DataFrame(rows)

    return write_partition


def auto_salt_range(n_docs: int, cpus: int,
                    num_partitions: int = DEFAULT_NUM_PARTITIONS) -> int:
    """Salt range sized so the (part, salt) merge shuffle lands ~6 groups
    per CPU: one or two coarse waves leave cores idle behind the fattest
    term groups (profiled r3: 471k docs -> 2 salts x 32 parts = 64 groups on
    30 CPUs ran 2 skewed waves, 12 s of an otherwise ~10 s index build).
    More salts = more groups AND a tighter per-task memory bound; the write
    stage re-concatenates per-term runs, so the layout is unchanged.
    Power of two, floor 4096 docs, capped at DEFAULT_SALT_RANGE."""
    target_groups = 6 * max(1, cpus)
    salts_needed = max(1, -(-target_groups // max(1, num_partitions)))
    sr = 4096
    while sr * 2 <= max(4096, n_docs // salts_needed):
        sr *= 2
    return min(sr, DEFAULT_SALT_RANGE)


def index_pass(
    docs,
    write_partition,
    *,
    text_col: str,
    id_col: str,
    analyzer: str,
    num_partitions: int,
    salt_range: int,
    batch_size: int,
):
    """The SPIMI chain of the module docstring over ``docs``, written by
    ``write_partition`` (a ``make_partition_writer``).  Returns the
    materialized (doc_id, tokens, doc_len) dataset, for the caller's norms,
    and the writer's manifest rows as a DataFrame.

    The partial pass runs per BLOCK (batch_size=None): every batch re-emits
    one row per (term, salt) it touches, so doc-count batches multiply
    partial rows for common terms ~(docs-per-block / batch_size)-fold
    (profiled r3: 6.4M -> 3.4M rows on the 500k-page corpus).  Before the
    merge shuffle, coalesce to a data-sized block count — the sort's
    intermediate-object count is quadratic in blocks
    (geometry.shuffle_num_blocks; merge wall 9.6 s -> 3.1 s at 32 CPUs on
    the same corpus)."""
    from ..geometry import shuffle_num_blocks

    tokenized = docs.map_batches(
        _tokenize_task,
        fn_kwargs={"analyzer": analyzer, "text_col": text_col, "id_col": id_col},
        batch_format="pyarrow",
        batch_size=batch_size,
    ).materialize()
    partials = tokenized.map_batches(
        make_spimi_partial(num_partitions, salt_range),
        batch_format="pyarrow",
        batch_size=None,
    ).repartition(shuffle_num_blocks(tokenized.size_bytes()))
    merged = partials.groupby(["part", "salt"]).map_groups(
        merge_bucket, batch_format="pandas"
    )
    rows = (
        merged.groupby("part")
        .map_groups(write_partition, batch_format="pandas")
        .to_pandas()
    )
    return tokenized, rows


def build_index(
    docs,
    out_dir: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    analyzer: str = "english",
    num_partitions: int = DEFAULT_NUM_PARTITIONS,
    salt_range: Optional[int] = DEFAULT_SALT_RANGE,
    batch_size: int = 1024,
    extra_manifest: Optional[dict] = None,
) -> dict:
    """Build a full index layout under ``out_dir`` from a Dataset of
    (id_col:int64, text_col:string).  Returns the manifest dict.

    Layout:
        out_dir/norms/*.parquet      (doc_id, doc_len)
        out_dir/index/part-*.parquet (term, df, cf, meta, payload)
        out_dir/manifest.json        N, avgdl, analyzer, bm25 params, lineage
    """
    t0 = time.time()
    from .. import fsio

    fsio.makedirs(out_dir)

    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8))
    if salt_range is None:
        # derive from corpus size when the row count is metadata-cheap
        # (materialized input); lazy inputs keep the default — counting
        # them would execute the upstream pipeline twice
        from ray.data.dataset import MaterializedDataset

        if isinstance(docs, MaterializedDataset):
            salt_range = auto_salt_range(docs.count(), cpus, num_partitions)
        else:
            salt_range = DEFAULT_SALT_RANGE

    # Clear first: Ray's write_parquet appends UUID-named files, so a
    # rebuild into the same out_dir would double every doc (wrong
    # N/avgdl/idf).
    fsio.remove_dir(fsio.join(out_dir, "norms"))
    fsio.remove_dir(fsio.join(out_dir, "index"))
    tokenized, manifest_rows = index_pass(
        docs, make_partition_writer(out_dir),
        text_col=text_col, id_col=id_col, analyzer=analyzer,
        num_partitions=num_partitions, salt_range=salt_range,
        batch_size=batch_size,
    )
    # Norms table — the query-side doc_len store.
    tokenized.select_columns(["doc_id", "doc_len"]).write_parquet(
        fsio.join(out_dir, "norms")
    )

    # Corpus stats from the written norms (cheap columnar scan, no shuffle).
    import pyarrow.dataset as pads

    _nfs, _npath = fsio.resolve(fsio.join(out_dir, "norms"))
    norms = pads.dataset(_npath, filesystem=_nfs)
    n_docs = norms.count_rows()
    total_len = 0
    for frag_batch in norms.to_batches(columns=["doc_len"]):
        total_len += int(pa.compute.sum(frag_batch["doc_len"]).as_py() or 0)
    avgdl = (total_len / n_docs) if n_docs else 0.0

    manifest = {
        "format_version": 1,
        "num_docs": int(n_docs),
        "avgdl": float(avgdl),
        "total_terms": int(total_len),
        "analyzer": analyzer,
        "k1": codec.K1,
        "b": codec.B,
        "block_size": codec.BLOCK_SIZE,
        "num_partitions": num_partitions,
        "salt_range": salt_range,
        "partitions": sorted(
            manifest_rows.to_dict("records"), key=lambda r: r["part"]
        ),
        "build_wall_sec": round(time.time() - t0, 3),
        "docs_per_sec": round(n_docs / max(time.time() - t0, 1e-9), 1),
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    fsio.write_json_atomic(
        manifest, fsio.join(out_dir, "manifest.json"), indent=1, default=int
    )
    return manifest
