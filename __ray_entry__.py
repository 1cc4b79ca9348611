"""Driver contract: entry() smoke, queries() per-operator pipelines, and
oracle_sql() DuckDB equivalents (SURVEY.md §2 coverage → CORRECTNESS gate).

Ray is initialised by the driver BEFORE this module is imported — nothing
here calls ray.init()/ray.shutdown().

Column-name parity: every aggregate/computed column is named identically in
the Ray pipeline and the SQL (the driver hashes values after sorting columns
by name).  Float policy: integer aggregates are exact; float *sums* are
rounded to a fixed number of decimals on BOTH sides (summation order differs
between engines); per-row float arithmetic uses the same IEEE op order on
both sides and is left unrounded where safe, rounded otherwise.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa

# Metadata-stripping parquet reader: the driver's testdata parquet carries a
# b'pandas' footer blob that makes pyarrow-16 schemas unhashable, defeating
# Ray's schema-dedup early exit and spamming 'Failed to hash the schemas'
# warnings (VERDICT r2 #5/#7) — stocksight_ray.io for the full story.
from stocksight_ray.io import read_parquet_clean as _read_pq

SF_SMOKE = "/root/testdata/sf0.001"

# Kept in sync with stocksight_ray.functions.textstats.QUALITY_STOPWORDS.
_STOP_SQL = "('the','a','an','and','or','of','to','in','is','it')"
_TOKEN_RE = "[A-Za-z]+|[0-9]+|[^A-Za-z0-9 ]"
_PUNCT_RE = "[.,!?;:]"

# Shared shingle CTE for the near-dup oracles (q54/q55): per-doc DISTINCT
# word-3-gram shingle sets, mirroring dedup._shingle_hashes_batch (docs with
# 0 < W < 3 words collapse to one shingle over all W words; Jaccard over the
# string sets equals the Ray side's Jaccard over 64-bit shingle hashes up to
# negligible collision mass — parity verified at sf0.001/sf0.01).
_SHINGLE_CTE = (
    # whitespace-run regex split with empties dropped == Python str.split()
    # (the pipeline's tokenization in dedup._word_hashes_flat); a plain
    # string_split on ' ' would keep empty tokens on double spaces and not
    # split tabs/newlines
    "toks AS (SELECT doc_id, source, "
    "list_filter(string_split_regex(lower(text), '\\s+'), x -> x <> '') AS w "
    "FROM documents), "
    "sh AS (SELECT doc_id, source, CASE WHEN len(w) >= 3 THEN "
    "list_distinct([w[i+1]||' '||w[i+2]||' '||w[i+3] for i in range(len(w)-2)]) "
    "ELSE [array_to_string(w, ' ')] END AS sset FROM toks), "
    "ex AS (SELECT doc_id, source, unnest(sset) AS s, len(sset) AS n FROM sh)"
)


def _docs(sf_dir: str, columns=None):
    """documents table; pass ``columns`` to prune at the READ for
    map_batches consumers (select_columns pushdown only reaches the read
    for relational operators, not opaque batch functions)."""
    import ray.data as rd

    return _read_pq(
        os.path.join(sf_dir, "documents.parquet"), columns=columns
    )


def _events(sf_dir: str):
    import ray.data as rd

    return _read_pq(os.path.join(sf_dir, "events.parquet"))


def _round_cols(df: pd.DataFrame, spec: dict) -> pd.DataFrame:
    for col, nd in spec.items():
        df[col] = df[col].astype(float).round(nd)
    return df


# ---------------------------------------------------------------------------
# SQL-checked queries
# ---------------------------------------------------------------------------

def q01_lang_topk(sf_dir: str):
    from stocksight_ray.pipelines.aggs import terms_topk

    return terms_topk(_docs(sf_dir, ["lang"]), "lang", k=5)


def q02_token_topk(sf_dir: str):
    from stocksight_ray.pipelines.aggs import token_topk

    return token_topk(_docs(sf_dir, ["text"]), "text", k=25)


def q03_text_counts(sf_dir: str):
    from stocksight_ray.functions.textstats import quality_stats_batch

    out = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        quality_stats_batch, batch_format="pyarrow"
    )
    return out.select_columns(
        ["doc_id", "n_ws_tokens", "n_re_tokens", "n_punct", "n_stopwords"]
    )


def q04_text_ratios(sf_dir: str):
    from stocksight_ray.functions.textstats import quality_stats_batch

    out = _docs(sf_dir, ["doc_id", "text"]).map_batches(
        quality_stats_batch, batch_format="pyarrow"
    )
    return out.select_columns(["doc_id", "punct_ratio", "stopword_ratio"])


def q05_exact_dedup(sf_dir: str):
    from stocksight_ray.pipelines.dedup import exact_dedup

    return exact_dedup(_docs(sf_dir, ["doc_id", "text"])).select_columns(["doc_id"])


def q06_admission(sf_dir: str):
    """F1-style min-token admission filter over the ws-token count."""
    import pyarrow.compute as pc

    from stocksight_ray.functions.textstats import ws_token_count

    def admit(batch: pa.Table) -> pa.Table:
        n = ws_token_count(batch["text"])
        return batch.select(["doc_id"]).filter(pc.greater_equal(n, 50))

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(admit, batch_format="pyarrow")


def q07_metric_nchars(sf_dir: str):
    from stocksight_ray.pipelines.aggs import metric_aggs

    df = metric_aggs(_docs(sf_dir, ["n_chars"]), "n_chars")
    return _round_cols(df, {"avg_n_chars": 6})


def q08_median_nchars(sf_dir: str):
    from stocksight_ray.pipelines.aggs import exact_median

    med = exact_median(_docs(sf_dir, ["n_chars"]), "n_chars")
    return pd.DataFrame([{"median_n_chars": float(med)}])


def q09_date_histogram(sf_dir: str):
    from stocksight_ray.pipelines.aggs import date_histogram

    df = date_histogram(_events(sf_dir), "ts", 7200, value_cols=["value"]).to_pandas()
    return _round_cols(df, {"sum_value": 4})


def q10_event_type_topk(sf_dir: str):
    from stocksight_ray.pipelines.aggs import terms_topk

    return terms_topk(_events(sf_dir), "event_type", k=10)


def q11_last_value_per_user(sf_dir: str):
    """K2 latest-value pick — bucketed: one vectorized pandas groupby per
    key-hash bucket (no per-user task)."""
    from stocksight_ray.geometry import bucket_groups

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        out = (
            g.groupby("user_id", sort=False)["value"]
            .nth(-1)  # last ROW's value (not last non-null)
            .rename("last_value")
        )
        return pd.DataFrame({
            "user_id": g.loc[out.index, "user_id"].to_numpy(),
            "last_value": out.to_numpy(),
        })

    return bucket_groups(
        "user_id", pick,
        _events(sf_dir).select_columns(["user_id", "ts", "event_id", "value"]),
    )


def q12_pct_change_per_user(sf_dir: str):
    """P8 pct-change of the last two values per user — bucketed and
    vectorized via groupby.tail(2)."""
    from stocksight_ray.geometry import bucket_groups

    def chg(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable")
        t2 = (
            g.groupby("user_id", sort=False)
            .tail(2)
            .groupby("user_id", sort=False)["value"]
            .agg(["first", "last", "count"])
        )
        ok = (t2["count"] == 2) & (t2["first"] != 0)
        change = np.where(
            ok, (t2["last"] - t2["first"]) / t2["first"] * 100.0, 0.0
        ).round(6)
        return pd.DataFrame({
            "user_id": t2.index.to_numpy(), "change": change,
        })

    return bucket_groups(
        "user_id", chg,
        _events(sf_dir).select_columns(["user_id", "ts", "event_id", "value"]),
    )


def q13_lineitem_pricing(sf_dir: str):
    """TPC-H Q1-style pricing summary: local combine in map_batches, then a
    tiny groupby over (flag, status) partials — the canonical
    partial-aggregation pattern (sum_qty is exact: integral doubles)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = _read_pq(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def combine(batch: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(batch, ["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ("l_extendedprice", "sum"), ("l_discount", "sum"), ([], "count_all")]
        )
        return g.rename_columns(
            ["l_returnflag", "l_linestatus", "p_qty", "p_price", "p_disc", "p_cnt"]
        )

    agg = (
        ds.map_batches(combine, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("p_qty", alias_name="sum_qty"),
            Sum("p_price", alias_name="sum_base_price"),
            Sum("p_disc", alias_name="s_disc"),
            Sum("p_cnt", alias_name="count_order"),
        )
        .to_pandas()
    )
    agg["avg_disc"] = (agg["s_disc"] / agg["count_order"]).round(6)
    agg["sum_base_price"] = agg["sum_base_price"].round(2)
    return agg.drop(columns=["s_disc"]).sort_values(
        ["l_returnflag", "l_linestatus"]
    ).reset_index(drop=True)


def q14_orders_status(sf_dir: str):
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = _read_pq(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderstatus", "o_totalprice"]
    )

    def combine(batch: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(batch, "o_orderstatus").aggregate(
            [("o_totalprice", "sum"), ([], "count_all")]
        )
        return g.rename_columns(["o_orderstatus", "p_price", "p_cnt"])

    df = (
        ds.map_batches(combine, batch_format="pyarrow")
        .groupby("o_orderstatus")
        .aggregate(Sum("p_cnt", alias_name="cnt"), Sum("p_price", alias_name="sum_totalprice"))
        .to_pandas()
    )
    return _round_cols(df, {"sum_totalprice": 2})


# Per-worker probe-Series cache for q15's broadcast join (built once per
# worker process from the zero-copy Arrow broadcast).  SINGLE slot keyed by
# the object ref: each q15 invocation ray.puts a fresh table, so a dict
# keyed by ref would grow one customer-sized Series per run per worker.
_Q15_LUT_CACHE: dict = {}


def q15_orders_mktsegment(sf_dir: str):
    """Broadcast hash join: the small customer table is put into the object
    store ONCE (ray.put) and read zero-copy by every orders task — no
    shuffle join for a small dimension side (SURVEY.md §4 skew guidance)."""
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    )
    # Broadcast the ARROW table (zero-copy in the object store; a dict would
    # unpickle whole on every read); each worker builds its probe Series
    # once via the per-worker cache (round-3 task-form policy — stage state
    # is cheap, so no actor pool / hard-pinned concurrency).
    lookup_ref = ray.put(cust)

    orders = _read_pq(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey", "o_totalprice"]
    )

    def join_combine(batch: pa.Table) -> pa.Table:
        key = lookup_ref.hex()
        if _Q15_LUT_CACHE.get("key") == key:
            lut = _Q15_LUT_CACHE["lut"]
        else:
            t = ray.get(lookup_ref)  # zero-copy Arrow read
            lut = pd.Series(
                t["c_mktsegment"].to_numpy(zero_copy_only=False),
                index=t["c_custkey"].to_numpy(),
            )
            _Q15_LUT_CACHE.clear()
            _Q15_LUT_CACHE.update({"key": key, "lut": lut})
        # C-level probe (VERDICT r3 #7): reindex on the broadcast Series
        # replaces the per-row dict.get loop; misses come back NaN -> null
        segs = pa.array(
            lut.reindex(batch["o_custkey"].to_numpy()).to_numpy(),
            pa.string(), from_pandas=True,
        )
        t = pa.table(
            {"c_mktsegment": segs, "o_totalprice": batch["o_totalprice"]}
        ).filter(pa.compute.is_valid(segs))
        g = pa.TableGroupBy(t, "c_mktsegment").aggregate(
            [("o_totalprice", "sum"), ([], "count_all")]
        )
        return g.rename_columns(["c_mktsegment", "p_price", "p_cnt"])

    df = (
        orders.map_batches(join_combine, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .aggregate(Sum("p_cnt", alias_name="order_cnt"), Sum("p_price", alias_name="sum_totalprice"))
        .to_pandas()
    )
    return _round_cols(df, {"sum_totalprice": 2})


def q16_knn(sf_dir: str):
    import pyarrow.parquet as pq

    from stocksight_ray.pipelines.similarity import brute_force_topk

    import ray.data as rd

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    emb = pq.read_table(emb_path)
    by_id = {v: e for v, e in zip(emb["vec_id"].to_pylist(), emb["embedding"].to_pylist())}
    queries = np.array([by_id[0], by_id[1], by_id[2]], dtype=np.float64)
    ds = _read_pq(emb_path)
    out = brute_force_topk(ds, queries, k=10).to_pandas()
    return _round_cols(out, {"score": 6})


def q17_events_ohlc(sf_dir: str):
    from stocksight_ray.pipelines.stockprice import ohlc_bucket

    # tiebreak on event_id matches the oracle's ORDER BY ts, event_id —
    # without it, duplicate (user_id, ts) rows would make open/close
    # nondeterministic
    return ohlc_bucket(
        _events(sf_dir), "user_id", "ts", "value", 86400,
        tiebreak_cols=("event_id",),
    )


# ---------------------------------------------------------------------------
# rows-only queries (non-SQL-expressible: stateful index, lexicon scoring,
# LSH, approximate search, binary decode)
# ---------------------------------------------------------------------------

def q18_bm25(sf_dir: str):
    """Full inverted-index build + BM25 top-10 over the documents table.
    Not SQL-expressible (Porter analyzer + index state) — deterministic."""
    from stocksight_ray.index.build import build_index
    from stocksight_ray.index.query import QueryEngine

    import shutil

    out_dir = tempfile.mkdtemp(prefix="q18_index_")
    try:
        build_index(
            _docs(sf_dir), out_dir, text_col="text", id_col="doc_id",
            num_partitions=8, batch_size=256,
        )
        eng = QueryEngine(out_dir)
        queries = ["table scan", "window sort merge", "spark query", "hash join batch", "stream"]
        frames = []
        for qid, q in enumerate(queries):
            t = eng.search_table(q, k=10).to_pandas()
            t.insert(0, "query_id", qid)
            frames.append(t)
        res = pd.concat(frames, ignore_index=True)
        res["score"] = res["score"].round(6)
        return res
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def q19_minhash_dedup(sf_dir: str):
    from stocksight_ray.pipelines.dedup import minhash_keep_ids

    # the operator streams unsorted (no corpus-wide sort); the consumed
    # result is small enough to order here for deterministic output
    out = minhash_keep_ids(
        _docs(sf_dir, ["doc_id", "text"]), threshold=0.7
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q20_simhash(sf_dir: str):
    from stocksight_ray.pipelines.dedup import _simhash_batch

    def add(batch: pa.Table) -> pa.Table:
        h = _simhash_batch(batch["text"].to_pylist())
        # uint64 -> int64 via the usual -2^63 shift (XOR the top bit then
        # reinterpret), preserving order and all 64 bits
        hs = (h ^ np.uint64(1 << 63)).view(np.int64)
        return pa.table(
            {"doc_id": batch["doc_id"], "simhash": pa.array(hs, pa.int64())}
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(add, batch_format="pyarrow")


def q21_fingerprint(sf_dir: str):
    from stocksight_ray.functions.textstats import fingerprint_batch

    return (
        _docs(sf_dir)
        .map_batches(fingerprint_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "fingerprint"])
    )


def q22_lang_id(sf_dir: str):
    from stocksight_ray.functions.textstats import lang_id_batch

    return (
        _docs(sf_dir)
        .map_batches(lang_id_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "lang_pred"])
    )


def q23_sentiment(sf_dir: str):
    """Reference sentiment stage (M1) over documents.text — actor pool."""
    from stocksight_ray.functions.sentiment import sentiment_analysis

    class Scorer:
        def __call__(self, batch: pa.Table) -> pa.Table:
            pol, sub, lab = [], [], []
            for t in batch["text"].to_pylist():
                p, s, l = sentiment_analysis(t or "")
                pol.append(round(p, 6)); sub.append(round(s, 6)); lab.append(l)
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "polarity": pa.array(pol, pa.float64()),
                    "subjectivity": pa.array(sub, pa.float64()),
                    "sentiment": pa.array(lab, pa.string()),
                }
            )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(
        Scorer, batch_format="pyarrow", concurrency=2
    )


def q24_ivf_knn(sf_dir: str):
    import pyarrow.parquet as pq
    import ray.data as rd

    import shutil
    import tempfile

    from stocksight_ray.pipelines.similarity import (
        ivf_partition, ivf_topk_from_disk, ivf_write, train_centroids,
    )

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    emb = pq.read_table(emb_path)
    by_id = {v: e for v, e in zip(emb["vec_id"].to_pylist(), emb["embedding"].to_pylist())}
    queries = np.array([by_id[0], by_id[1]], dtype=np.float64)
    ds = _read_pq(emb_path)
    cent = train_centroids(ds, nlist=8)
    # full 100-TB path: bucket → write partitioned-by-bucket → top-k reading
    # ONLY the probed buckets' files (directory-level prune at the read)
    ivf_dir = tempfile.mkdtemp(prefix="q24_ivf_", dir="/tmp")
    try:
        ivf_write(ivf_partition(ds, cent), ivf_dir)
        out = ivf_topk_from_disk(
            ivf_dir, cent, queries, k=10, nprobe=4
        ).to_pandas()
    finally:
        shutil.rmtree(ivf_dir, ignore_errors=True)
    return _round_cols(out, {"score": 6})


def q25_image_features(sf_dir: str):
    """Multimodal plumbing: binary payload → feature vectors (stub decoder,
    deterministic).  Input is the package's synthetic binary table (no
    binary column in the sf tables)."""
    import ray.data as rd

    from stocksight_ray.pipelines.multimodal import image_features, synth_binary_table

    t = synth_binary_table(200)
    out = image_features(rd.from_arrow(t), concurrency=2).to_pandas()
    # scalar encoding of the vector so the result is sortable/hashable
    out["features"] = out["features"].map(
        lambda f: ",".join(f"{float(x):.5f}" for x in f)
    )
    return out.sort_values("id").reset_index(drop=True)


def q26_webtext_ingest(sf_dir: str):
    """Flagship webtext chain on a deterministic synthetic corpus (the sf
    tables carry no html column): extract → clean → dedup → doc_ids →
    enrich.  Returns per-doc admission/sentiment summary."""
    import ray.data as rd

    from stocksight_ray.pipelines.ingest import ingest_webtext
    from stocksight_ray.webtext import generate_table

    n_pages = 800
    ds = rd.from_arrow(generate_table(n_pages, seed=42))
    out = ingest_webtext(ds).drop_columns(["tokens"])

    def summarize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "url": batch["url"],
                "doc_len": batch["doc_len"],
                "admitted": batch["admitted"],
                "sentiment": batch["sentiment"],
            }
        )

    return out.map_batches(summarize, batch_format="pyarrow")


def q27_news_headlines(sf_dir: str):
    """News mode (reference NewsHeadlineListener): <h3> extraction →
    dedup → admission + sentiment.  Deterministic synthetic corpus."""
    import ray.data as rd

    from stocksight_ray.pipelines.news import news_pipeline
    from stocksight_ray.webtext import generate_table

    ds = rd.from_arrow(generate_table(800, seed=42))
    out = news_pipeline(ds).to_pandas()
    out["polarity"] = out["polarity"].round(6)
    out["subjectivity"] = out["subjectivity"].round(6)
    return out.sort_values(["message"]).reset_index(drop=True)


def q28_sentiment_dashboard(sf_dir: str):
    """Kibana-dashboard closure over the enriched webtext docs table:
    terms agg on sentiment (size 5), metric aggs + exact median on
    polarity, 2h date_histogram of doc counts — the reference's
    export.json panels as one summary frame (rows-only)."""
    import ray.data as rd

    from stocksight_ray.pipelines.aggs import (
        date_histogram, exact_median, metric_aggs, terms_topk,
    )
    from stocksight_ray.pipelines.ingest import ingest_webtext
    from stocksight_ray.webtext import generate_table

    ds = rd.from_arrow(generate_table(800, seed=42))
    docs = ingest_webtext(ds).drop_columns(["tokens"]).materialize()

    sent = terms_topk(docs, "sentiment", k=5).to_pandas()
    pol = metric_aggs(docs, "polarity")
    med = exact_median(docs, "polarity")
    hist = date_histogram(docs, "warc_ts", 7200).to_pandas()

    rows = []
    for _, r in sent.iterrows():
        rows.append(("sentiment_terms", str(r["sentiment"]), float(r["cnt"])))
    rows.append(("polarity_avg", "", round(float(pol["avg_polarity"].iloc[0]), 6)))
    rows.append(("polarity_min", "", round(float(pol["min_polarity"].iloc[0]), 6)))
    rows.append(("polarity_max", "", round(float(pol["max_polarity"].iloc[0]), 6)))
    rows.append(("polarity_median", "", round(float(med), 6)))
    rows.append(("histogram_buckets", "", float(len(hist))))
    rows.append(("histogram_docs", "", float(hist["cnt"].sum())))
    return pd.DataFrame(rows, columns=["panel", "key", "value"])


def q29_asof_join(sf_dir: str):
    """Backward as-of join: each event picks the latest order (by bucketed
    key) with o_orderdate <= ts — pad+union, one groupby shuffle,
    vectorized merge_asof per key (pipelines/joins.py)."""
    import ray.data as rd
    from ray.data.aggregate import Max

    from stocksight_ray.pipelines.joins import asof_join

    def key_events(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "event_id": batch["event_id"],
                "k": pc.cast(
                    pc.subtract(
                        batch["user_id"],
                        pc.multiply(pc.divide(batch["user_id"], 50), 50),
                    ),
                    pa.int64(),
                ),
                "ts": batch["ts"],
            }
        )

    def key_orders(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = pa.table(
            {
                "k": pc.cast(
                    pc.subtract(
                        batch["o_custkey"],
                        pc.multiply(pc.divide(batch["o_custkey"], 50), 50),
                    ),
                    pa.int64(),
                ),
                "o_orderdate": batch["o_orderdate"],
                "value": batch["o_totalprice"],
            }
        )
        g = pa.TableGroupBy(t, ["k", "o_orderdate"]).aggregate([("value", "max")])
        return g.rename_columns(["k", "o_orderdate", "value"])

    left = _events(sf_dir).map_batches(key_events, batch_format="pyarrow")
    # determinism guard: unique (k, o_orderdate) globally — max(value);
    # per-batch max in key_orders is the local combine
    right = (
        _read_pq(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_custkey", "o_orderdate", "o_totalprice"],
        )
        .map_batches(key_orders, batch_format="pyarrow")
        .groupby(["k", "o_orderdate"])
        .aggregate(Max("value", alias_name="value"))
    )
    out = asof_join(
        left, right, by="k", left_ts="ts", right_ts="o_orderdate",
        right_value="value",
    )
    return out.select_columns(["event_id", "k", "value"])


def q30_rolling_mean(sf_dir: str):
    """Trailing 5-row mean of event value per user (windowed aggregate)."""
    from stocksight_ray.pipelines.joins import rolling_mean

    out = rolling_mean(
        _events(sf_dir), key="user_id", order_cols=["ts", "event_id"],
        value="value", window=5, id_cols=["event_id"],
    ).to_pandas()
    return _round_cols(out, {"rmean": 6})


def q31_url_extract(sf_dir: str):
    """P3 url extraction over the synthetic webtext text column
    (sentiment.py:88-90); rows-only (corpus is package-generated)."""
    import ray.data as rd

    from stocksight_ray.functions.clean import extract_urls_batch
    from stocksight_ray.webtext import generate_table

    ds = rd.from_arrow(generate_table(800, seed=42))
    out = ds.map_batches(
        lambda b: extract_urls_batch(b, "text"), batch_format="pyarrow"
    )
    return out.select_columns(["url", "n_urls"])


def q32_prices_pipeline(sf_dir: str):
    """Stock-price parity chain over the seeded prices fixture: last
    non-null pick + pct change + daily OHLC (rows-only, deterministic)."""
    import ray.data as rd

    from stocksight_ray.pipelines.stockprice import (
        generate_prices, latest_nonnull, ohlc_bucket, pct_change_last,
    )

    prices = rd.from_arrow(generate_prices(days=2)).materialize()
    last = latest_nonnull(
        prices, "symbol", "ts", ["close", "high", "low", "volume"]
    ).to_pandas()
    chg = pct_change_last(prices, "symbol", "ts", "close").to_pandas()
    ohlc = ohlc_bucket(prices, "symbol", "ts", "close", 86400).to_pandas()
    last = last.merge(chg, on="symbol")
    last["n_ohlc_buckets"] = last["symbol"].map(
        ohlc.groupby("symbol").size()
    ).astype(int)
    for c in ["last_close", "last_high", "last_low", "change"]:
        last[c] = last[c].astype(float).round(6)
    return last.drop(columns=["last_ts"]).sort_values("symbol").reset_index(drop=True)


def q33_mod_sample(sf_dir: str):
    """Deterministic fraction sample (id % 100 < 17) — reproducible under
    any partitioning / resume, unlike random_sample."""
    from stocksight_ray.pipelines.sampling import mod_sample

    return mod_sample(_docs(sf_dir), "doc_id", 17, 100).select_columns(
        ["doc_id", "lang"]
    )


def q34_stratified_head(sf_dir: str):
    """Per-language cap of 20 docs in doc_id order (class balancing)."""
    from stocksight_ray.pipelines.sampling import stratified_head

    out = stratified_head(_docs(sf_dir), "lang", 20, ["doc_id"])
    return out.select_columns(["doc_id", "lang"])


def q35_normalize(sf_dir: str):
    """Text normalization: lowercase + whitespace collapse + trim
    (vectorized Arrow kernels, matching SQL semantics exactly)."""
    import pyarrow.compute as pc

    def norm(batch: pa.Table) -> pa.Table:
        low = pc.utf8_lower(batch["text"])
        collapsed = pc.replace_substring_regex(low, r" +", " ")
        return pa.table(
            {"doc_id": batch["doc_id"], "text_norm": pc.utf8_trim_whitespace(collapsed)}
        )

    return _docs(sf_dir).map_batches(norm, batch_format="pyarrow")


def q36_hash_join(sf_dir: str):
    """Large-large co-partitioned hash join (lineitem x orders on orderkey)
    -> revenue by order priority.  No broadcast: both sides shuffle once on
    the join key; revenue aggregated with the partial-combine pattern."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from stocksight_ray.pipelines.joins import hash_join

    lineitem = _read_pq(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def revenue(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        rev = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        return pa.table({"o_orderkey": batch["l_orderkey"], "rev": rev})

    left = lineitem.map_batches(revenue, batch_format="pyarrow")
    orders = _read_pq(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderpriority"],
    )
    joined = hash_join(
        left, orders, on="o_orderkey",
        left_cols=["rev"], right_cols=["o_orderpriority"],
    )

    def combine(batch: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(batch.select(["o_orderpriority", "rev"]), "o_orderpriority").aggregate(
            [("rev", "sum"), ([], "count_all")]
        )
        return g.rename_columns(["o_orderpriority", "p_rev", "p_cnt"])

    df = (
        joined.map_batches(combine, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("p_rev", alias_name="revenue"), Sum("p_cnt", alias_name="n_items"))
        .to_pandas()
    )
    return _round_cols(df, {"revenue": 2})


def q37_bm25_modes(sf_dir: str):
    """Query-surface parity beyond OR: conjunctive (ES match operator=and)
    and phrase (match_phrase) over the documents index — rows-only,
    deterministic (index state + Porter analyzer not SQL-expressible)."""
    import pyarrow.parquet as pq

    from stocksight_ray.index.build import build_index
    from stocksight_ray.index.query import QueryEngine

    import shutil

    out_dir = tempfile.mkdtemp(prefix="q37_index_")
    docs_path = os.path.join(sf_dir, "documents.parquet")
    build_index(
        _docs(sf_dir), out_dir, text_col="text", id_col="doc_id",
        num_partitions=8, batch_size=256,
        extra_manifest={"docs_path": docs_path, "docs_text_col": "text"},
    )
    eng = QueryEngine(out_dir)
    frames = []
    for qid, (mode, q) in enumerate(
        [
            ("and", "table scan merge"),
            ("and", "window sort"),
            ("and", "stream zzzmissing"),
            ("phrase", "table scan"),
            ("phrase", "window sort"),
            ("phrase", "scan table"),
        ]
    ):
        hits = (
            eng.search_and(q, k=10) if mode == "and" else eng.search_phrase(q, k=10)
        )
        for rank, (d, sc) in enumerate(hits, start=1):
            frames.append((qid, mode, q, rank, d, round(sc, 6)))
    out = pd.DataFrame(
        frames, columns=["query_id", "mode", "query", "rank", "doc_id", "score"]
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    return out


def q38_uniq_users_daily(sf_dir: str):
    """Exact count-distinct per day bucket (pre-reduced two-stage shuffle
    bounded by distinct-pair cardinality)."""
    import pyarrow.compute as pc

    from stocksight_ray.pipelines.aggs import count_distinct

    def bucketize(batch: pa.Table) -> pa.Table:
        secs = pc.divide(pc.cast(batch["ts"], pa.int64()), 1_000_000)
        bucket = pc.cast(
            pc.multiply(
                pc.floor(pc.divide(pc.cast(secs, pa.float64()), 86400)), 86400.0
            ),
            pa.int64(),
        )
        return pa.table({"bucket": bucket, "user_id": batch["user_id"]})

    ds = _events(sf_dir).map_batches(bucketize, batch_format="pyarrow")
    # ~30 daily buckets — final_partitions keeps the last groupby free of
    # empty sort partitions (silences Ray's schemaless-empty warnings)
    return count_distinct(
        ds, "bucket", "user_id", out="uniq_users", final_partitions=8
    )


def q39_quantile_sketch(sf_dir: str):
    """Approximate quantiles (mergeable weighted summary) beside the exact
    median.  chunk_key makes the sketch PARTITION-INVARIANT (chunks are
    event_id ranges, not Ray blocks), so the result is deterministic in any
    session and carries a golden oracle."""
    from stocksight_ray.pipelines.aggs import approx_quantiles, exact_median

    qs = approx_quantiles(
        _events(sf_dir), "value", [0.1, 0.5, 0.9], chunk_key="event_id"
    )
    med = exact_median(_events(sf_dir), "value")
    return pd.DataFrame(
        {
            "stat": ["p10_approx", "p50_approx", "p90_approx", "p50_exact"],
            "value": [round(q, 4) for q in qs] + [round(med, 4)],
        }
    )


def q40_hll_distinct(sf_dir: str):
    """HyperLogLog distinct estimate vs the exact count (rows-only)."""
    from stocksight_ray.pipelines.aggs import approx_count_distinct

    est = approx_count_distinct(_events(sf_dir), "user_id", p=12)
    return pd.DataFrame([{"stat": "hll_user_id", "estimate": round(est, 1)}])


def q41_pack_sequences(sf_dir: str):
    """LLM-training sequence packing manifest over documents (rows-only,
    deterministic under any partitioning)."""
    from stocksight_ray.pipelines.packing import pack_sequences

    out = pack_sequences(_docs(sf_dir), max_len=256).to_pandas()
    out["doc_ids"] = out["doc_ids"].map(lambda x: ",".join(str(int(i)) for i in x))
    return out.sort_values("example_id").reset_index(drop=True)


def q42_avg_events_per_user(sf_dir: str):
    """Nested aggregation: mean over per-user event counts (pre-reduced
    count, then a single global mean)."""
    from ray.data.aggregate import Mean, Sum

    def combine(batch: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(batch.select(["user_id"]), "user_id").aggregate(
            [([], "count_all")]
        )
        return g.rename_columns(["user_id", "partial"])

    per_user = (
        _events(sf_dir)
        .map_batches(combine, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("partial", alias_name="c"))
    )
    row = per_user.aggregate(Mean("c", alias_name="avg_events"))
    return pd.DataFrame([{"avg_events": round(float(row["avg_events"]), 6)}])


def q43_top_users_by_value(sf_dir: str):
    """Top-5 users by summed value (sum-ordered top-k with deterministic
    ties; float sum rounded on both sides)."""
    from ray.data.aggregate import Sum

    def combine(batch: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(
            batch.select(["user_id", "value"]), "user_id"
        ).aggregate([("value", "sum")])
        return g.rename_columns(["user_id", "partial"])

    agg = (
        _events(sf_dir)
        .map_batches(combine, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("partial", alias_name="total_value"))
        .sort(["total_value", "user_id"], descending=[True, False])
        .limit(5)
        .to_pandas()
    )
    return _round_cols(agg, {"total_value": 4})


def q44_link_score_fold(sf_dir: str):
    """J2 link-score fold (/root/reference/sentiment.py:201-222): linked-page
    sentiment folded into each doc's score with the reference's
    order-dependent (a+b)/2 rule.  Pages table = the enriched corpus itself;
    doc→link edges are synthesized deterministically over corpus urls (the
    edge synthesis is test wiring — the operator takes any urls column), and
    urls embedded in text stay dangling, exercising the failed-fetch skip.
    Rows-only (the ordered fold is not SQL-expressible)."""
    import ray
    import ray.data as rd

    from stocksight_ray.pipelines.ingest import ingest_webtext
    from stocksight_ray.pipelines.linkfold import link_score_fold
    from stocksight_ray.webtext import generate_table

    ds = rd.from_arrow(generate_table(800, seed=42))
    docs = ingest_webtext(ds).drop_columns(["tokens"]).materialize()

    url_df = docs.select_columns(["doc_id", "url"]).to_pandas()
    n = len(url_df)
    url_map = dict(zip(url_df["doc_id"].astype(int), url_df["url"]))
    ref = ray.put(url_map)

    def add_urls(batch: pa.Table) -> pa.Table:
        m = ray.get(ref)
        urls = []
        for d in batch["doc_id"].to_pylist():
            d = int(d)
            urls.append([m[(d * 7 + 3) % n], m[(d * 13 + 5) % n]][: d % 3])
        return batch.append_column("urls", pa.array(urls, pa.list_(pa.string())))

    linked = docs.select_columns(
        ["doc_id", "polarity", "subjectivity", "sentiment"]
    ).map_batches(add_urls, batch_format="pyarrow")
    # F5: pages whose text contains the reference's twitter-page marker are
    # skipped like failed fetches (no-op on this corpus; unit-tested)
    from stocksight_ray.pipelines.linkfold import filter_pages_substring

    pages = filter_pages_substring(
        docs.select_columns(
            ["url", "polarity", "subjectivity", "sentiment", "text"]
        )
    ).select_columns(["url", "polarity", "subjectivity", "sentiment"])
    out = link_score_fold(linked, pages).to_pandas()
    out["polarity"] = out["polarity"].round(6)
    out["subjectivity"] = out["subjectivity"].round(6)
    return out.sort_values("doc_id").reset_index(drop=True)


def q45_sessionize(sf_dir: str):
    """Gap-window sessionization (30-min inactivity) over the event stream —
    per-user session rows with count + span; window-function SQL oracle."""
    from stocksight_ray.pipelines.sessions import sessionize

    out = sessionize(_events(sf_dir), gap_sec=1800).to_pandas()
    out["start_us"] = out["session_start"].astype("int64")
    out["end_us"] = out["session_end"].astype("int64")
    out = out.drop(columns=["session_start", "session_end"])
    return out.sort_values(["user_id", "session_id"]).reset_index(drop=True)


def q46_anti_join(sf_dir: str):
    """Distributed anti-join: customers with no URGENT order.  The right
    side ships distinct keys only (pruned at the read + filtered
    map-side); per-bucket membership test stays in Arrow."""
    import ray.data as rd

    from stocksight_ray.pipelines.joins import semi_join

    cust = _read_pq(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name"],
    )
    urgent = (
        _read_pq(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_custkey", "o_orderpriority"],
        )
        .filter(expr="o_orderpriority == '1-URGENT'")
        .select_columns(["o_custkey"])
        .rename_columns({"o_custkey": "c_custkey"})
    )
    out = semi_join(
        cust, urgent, on="c_custkey", left_cols=["c_custkey", "c_name"],
        anti=True,
    ).to_pandas()
    return out.sort_values("c_custkey").reset_index(drop=True)


def q47_props_extract(sf_dir: str):
    """Typed JSON metadata extraction (props.k) + grouped aggregate —
    pre-reduced inside map_batches before the small groupby."""
    from ray.data.aggregate import Sum

    from stocksight_ray.functions.jsonx import json_int_field

    def local(batch: pa.Table) -> pa.Table:
        b = json_int_field(
            batch.select(["event_type", "props"]), "props", "k", "k"
        )
        # ("k", "count") counts only non-null parsed values — avg_k must
        # divide by that (SQL avg() ignores nulls), while n is count(*)
        g = pa.TableGroupBy(b.select(["event_type", "k"]), "event_type").aggregate(
            [("k", "sum"), ("k", "count"), ([], "count_all")]
        )
        return g.rename_columns(["event_type", "p_sum", "p_kcnt", "p_cnt"])

    agg = (
        _events(sf_dir)
        .map_batches(local, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("p_sum", alias_name="sum_k"),
            Sum("p_kcnt", alias_name="_n_k"),
            Sum("p_cnt", alias_name="n"),
        )
        .to_pandas()
    )
    agg["avg_k"] = (agg["sum_k"] / agg["_n_k"]).round(6)
    del agg["_n_k"]
    agg = agg[["event_type", "n", "sum_k", "avg_k"]]
    return agg.sort_values("event_type").reset_index(drop=True)


def q48_repetition_stats(sf_dir: str):
    """Gopher-style intra-doc repetition signals (distinct-word ratio,
    top word/bigram fractions, max word length) — SQL-checked."""
    from stocksight_ray.functions.textstats import repetition_stats_batch

    return (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(repetition_stats_batch, batch_format="pyarrow")
        .select_columns([
            "doc_id", "n_words", "n_distinct_words", "distinct_ratio",
            "top_word_frac", "top_bigram_frac", "max_word_len",
        ])
    )


def q49_mix_sources(sf_dir: str):
    """Deterministic dataset mixing: per-source admission rate
    100 - 5*source_index (% of id space) — SQL-checked."""
    from stocksight_ray.pipelines.sampling import mix_sources

    rates = {f"src{i}": 100 - 5 * i for i in range(20)}
    out = mix_sources(
        _docs(sf_dir).select_columns(["doc_id", "source"]), rates
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q50_decontaminate(sf_dir: str):
    """Benchmark decontamination: docs sharing an 8-word-gram with the
    'benchmark' subset (doc_id % 97 == 0, derived from the same table so
    the oracle can compute it) get flagged; SQL-checked via an n-gram
    overlap join."""
    from stocksight_ray.pipelines.decontam import decontaminate

    docs = _docs(sf_dir).select_columns(["doc_id", "text"])

    def bench_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % 97 == 0))

    bench = docs.map_batches(bench_rows, batch_format="pyarrow")
    out = decontaminate(docs, bench, ngram=8).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q53_hopping_windows(sf_dir: str):
    """Hopping-window counts per event_type (1 h window, 15 min slide) —
    the sliding member of the window family; SQL oracle via
    generate_series."""
    from stocksight_ray.pipelines.sessions import hopping_window_counts

    out = hopping_window_counts(
        _events(sf_dir), width_sec=3600, slide_sec=900, by="event_type"
    ).to_pandas()
    return out.sort_values(["window_start", "event_type"]).reset_index(drop=True)


def q52_scrub_pii(sf_dir: str):
    """Pattern scrubbing (PII-style masking) over the webtext corpus: urls
    embedded in page text are redacted to <URL> with per-row counts.
    Deterministic rows-only (package corpus; email/ipv4 patterns covered
    by unit tests)."""
    import ray.data as rd

    from stocksight_ray.functions.clean import scrub_batch
    from stocksight_ray.webtext import generate_table

    ds = rd.from_arrow(generate_table(800, seed=42))
    out = (
        ds.map_batches(
            lambda b: scrub_batch(b, "text"), batch_format="pyarrow"
        )
        .select_columns(["url", "n_url", "n_email", "n_ipv4", "text_scrubbed"])
        .to_pandas()
    )
    out["scrub_len"] = out["text_scrubbed"].str.len()
    return (
        out.drop(columns=["text_scrubbed"])
        .sort_values("url").reset_index(drop=True)
    )


def q54_dup_clusters(sf_dir: str):
    """Near-duplicate CLUSTERS (transitive closure): exact word-3-gram
    Jaccard >= 0.5 pairs -> connected components (min-label + pointer
    jumping, `graph.connected_components`) -> (doc_id, cluster_id,
    cluster_size) for every clustered doc.  SQL oracle: shingle self-join
    Jaccard + recursive-CTE min-label reachability."""
    from stocksight_ray.pipelines.graph import dup_clusters

    out = dup_clusters(
        _docs(sf_dir, ["doc_id", "text"]), threshold=0.5
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q55_cross_dedup(sf_dir: str):
    """Cross-dataset near-dedup (decontamination by near-duplicate): docs
    from odd-numbered sources are dropped when their exact word-3-gram
    Jaccard against ANY even-source doc reaches 0.5
    (`dedup.cross_dedup`, side-tagged LSH over the union)."""
    import pyarrow.compute as pc

    from stocksight_ray.pipelines.dedup import cross_dedup

    full = _docs(sf_dir, ["doc_id", "text", "source"])

    def parity(want: int):
        def f(batch: pa.Table) -> pa.Table:
            p = pc.cast(pc.utf8_slice_codeunits(batch["source"], 3, 99), pa.int64())
            return batch.filter(pc.equal(pc.bit_wise_and(p, 1), want))
        return f

    cand = full.map_batches(parity(1), batch_format="pyarrow")
    ref = full.map_batches(parity(0), batch_format="pyarrow")
    out = cross_dedup(cand, ref, threshold=0.5).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def q56_delete_compact_search(sf_dir: str):
    """Index lifecycle: build → tombstone-delete (doc_id ≡ 3 mod 17) →
    BM25 search with the live-docs filter (stats stale, Lucene semantics)
    → compact (physical purge + stats rebuild) → search again.  The two
    phases differ exactly where the semantics say: tombstoned results
    exclude deleted docs at pre-delete scores; compacted results rescore
    with the post-delete N/avgdl/df (`index/deletes.py`).  Deterministic;
    golden oracle."""
    import shutil

    import pyarrow.compute as pc

    from stocksight_ray.index.build import build_index
    from stocksight_ray.index.deletes import compact, delete_docs
    from stocksight_ray.index.query import QueryEngine

    out_dir = tempfile.mkdtemp(prefix="q56_index_")
    try:
        docs = _docs(sf_dir)
        build_index(
            docs, out_dir, text_col="text", id_col="doc_id",
            num_partitions=8, batch_size=256,
        )

        def pick(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            return batch.select(["doc_id"]).filter(pa.array(ids % 17 == 3))

        delete_docs(
            out_dir,
            docs.select_columns(["doc_id"]).map_batches(
                pick, batch_format="pyarrow"
            ),
        )
        queries = ["table scan", "window sort merge", "spark query",
                   "hash join batch", "stream"]
        frames = []
        for phase in ("tombstoned", "compacted"):
            if phase == "compacted":
                compact(out_dir)
            eng = QueryEngine(out_dir)
            for qid, q in enumerate(queries):
                t = eng.search_table(q, k=10).to_pandas()
                t.insert(0, "query_id", qid)
                t.insert(0, "phase", phase)
                frames.append(t)
        res = pd.concat(frames, ignore_index=True)
        res["score"] = res["score"].round(6)
        return res
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def q57_query_string(sf_dir: str):
    """Lucene-mini query-string surface (index/qparse.py — the Kibana
    search-bar syntax the reference user types,
    /root/reference/export.json searchSourceJSON): bare-term OR, AND,
    quoted phrases, NOT exclusion, ``field:value`` filter-context clauses
    (incl. numeric ranges), trailing-wildcard expansion and grouping, all
    composed over the BM25 index primitives.  Deterministic; golden
    oracle."""
    import shutil

    from stocksight_ray.index.build import build_index
    from stocksight_ray.index.query import QueryEngine

    out_dir = tempfile.mkdtemp(prefix="q57_index_")
    docs_path = os.path.join(sf_dir, "documents.parquet")
    try:
        build_index(
            _docs(sf_dir), out_dir, text_col="text", id_col="doc_id",
            num_partitions=8, batch_size=256,
            extra_manifest={"docs_path": docs_path, "docs_text_col": "text"},
        )
        eng = QueryEngine(out_dir)
        qstrings = [
            "window sort merge",                # bare terms: OR, score-sum
            "table AND scan AND merge",         # conjunction
            '"table scan"',                     # phrase
            "lang:en AND merge",                # metadata filter + match
            "merge AND NOT stream",             # exclusion
            "(scan OR sort) AND lang:de",       # grouping + filter
            "n_chars:>=400 AND query",          # numeric range filter
            'lang:zh AND "window sort"',        # filter + phrase
            "wind* AND lang:es",                # wildcard expansion + filter
        ]
        frames = []
        for qid, qs in enumerate(qstrings):
            for rank, (d, sc) in enumerate(eng.search_query(qs, k=10), start=1):
                frames.append((qid, qs, rank, d, round(sc, 6)))
        return pd.DataFrame(
            frames, columns=["query_id", "query", "rank", "doc_id", "score"]
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def q58_query_context_agg(sf_dir: str):
    """Kibana dashboard panel semantics: a terms agg recomputed over the
    search-bar QUERY CONTEXT (`qparse.matching_docs` → the existing
    `aggs.terms_topk` operator, unchanged).  The query here is pure filter
    context (`lang:en AND n_chars:>=300`), which is exactly
    SQL-expressible — so unlike the BM25 queries this composition carries
    an independent DuckDB oracle."""
    import shutil

    from stocksight_ray.index.build import build_index
    from stocksight_ray.index.query import QueryEngine
    from stocksight_ray.pipelines.aggs import terms_topk

    out_dir = tempfile.mkdtemp(prefix="q58_index_")
    docs_path = os.path.join(sf_dir, "documents.parquet")
    try:
        build_index(
            _docs(sf_dir), out_dir, text_col="text", id_col="doc_id",
            num_partitions=8, batch_size=256,
            extra_manifest={"docs_path": docs_path, "docs_text_col": "text"},
        )
        eng = QueryEngine(out_dir)
        scoped = eng.matching_docs(
            "lang:en AND n_chars:>=300", columns=["source"]
        )
        out = terms_topk(scoped, "source", k=10)
        return out.to_pandas() if hasattr(out, "to_pandas") else out
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def q51_topk_per_group(sf_dir: str):
    """Nested aggregation (ES sub-agg): top-5 users by summed value per
    event_type — pre-reduced sums + bucketed vectorized per-group head."""
    from stocksight_ray.pipelines.aggs import grouped_topk

    out = grouped_topk(
        _events(sf_dir), group="event_type", key="user_id", value="value",
        k=5, out="total_value",
    ).to_pandas()
    out = _round_cols(out, {"total_value": 4})
    return out.sort_values(["event_type", "total_value", "user_id"],
                           ascending=[True, False, True]).reset_index(drop=True)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "q01_lang_topk": q01_lang_topk,
        "q02_token_topk": q02_token_topk,
        "q04_text_ratios": q04_text_ratios,
        "q05_exact_dedup": q05_exact_dedup,
        "q06_admission": q06_admission,
        "q08_median_nchars": q08_median_nchars,
        "q09_date_histogram": q09_date_histogram,
        "q11_last_value_per_user": q11_last_value_per_user,
        "q12_pct_change_per_user": q12_pct_change_per_user,
        "q13_lineitem_pricing": q13_lineitem_pricing,
        "q15_orders_mktsegment": q15_orders_mktsegment,
        "q16_knn": q16_knn,
        "q17_events_ohlc": q17_events_ohlc,
        "q18_bm25": q18_bm25,
        "q19_minhash_dedup": q19_minhash_dedup,
        "q20_simhash": q20_simhash,
        "q21_fingerprint": q21_fingerprint,
        "q22_lang_id": q22_lang_id,
        "q23_sentiment": q23_sentiment,
        "q24_ivf_knn": q24_ivf_knn,
        "q25_image_features": q25_image_features,
        "q26_webtext_ingest": q26_webtext_ingest,
        "q27_news_headlines": q27_news_headlines,
        "q28_sentiment_dashboard": q28_sentiment_dashboard,
        "q29_asof_join": q29_asof_join,
        "q30_rolling_mean": q30_rolling_mean,
        "q31_url_extract": q31_url_extract,
        "q32_prices_pipeline": q32_prices_pipeline,
        "q34_stratified_head": q34_stratified_head,
        "q36_hash_join": q36_hash_join,
        "q37_bm25_modes": q37_bm25_modes,
        "q38_uniq_users_daily": q38_uniq_users_daily,
        "q39_quantile_sketch": q39_quantile_sketch,
        "q40_hll_distinct": q40_hll_distinct,
        "q41_pack_sequences": q41_pack_sequences,
        "q43_top_users_by_value": q43_top_users_by_value,
        "q44_link_score_fold": q44_link_score_fold,
        "q45_sessionize": q45_sessionize,
        "q46_anti_join": q46_anti_join,
        "q47_props_extract": q47_props_extract,
        "q48_repetition_stats": q48_repetition_stats,
        "q49_mix_sources": q49_mix_sources,
        "q50_decontaminate": q50_decontaminate,
        "q51_topk_per_group": q51_topk_per_group,
        "q52_scrub_pii": q52_scrub_pii,
        "q53_hopping_windows": q53_hopping_windows,
        "q54_dup_clusters": q54_dup_clusters,
        "q55_cross_dedup": q55_cross_dedup,
        "q56_delete_compact_search": q56_delete_compact_search,
        "q57_query_string": q57_query_string,
    }


def rotated_queries() -> dict[str, Callable[[str], Any]]:
    """Queries rotated OUT of queries() (VERDICT r3 #3): the driver's
    correctness snapshot caps at 50 entries, which left q51-q53 without
    driver evidence.  These three are each subsumed by a richer sibling
    still in queries() — q03's token/punct/stopword counts by q04's ratios
    (same kernels, extra arithmetic), q14's orders groupby by q13's richer
    lineitem aggregation (same operator family), q42's global avg by q43's
    per-key aggregation path, q10's terms_topk by q01/q02 (identical
    operator, different column), q35's normalize map by the q26 clean
    chain + q21/q22 per-doc kernels (round 4: these two rotated out to
    make driver room for the new q54 duplicate-cluster and q55 cross-dedup
    operators), q07's single-column metric aggs by q13's richer multi-
    aggregate lineitem pricing (same metric-agg operator family; rotated
    for the q56 index delete/compact lifecycle; round 5: q33's hash-mod
    sampling rotated out for the q57 query-string parser — the same
    deterministic hash-sampling operator family keeps driver evidence via
    q34 stratified sampling and q49 source mixing).  They stay implemented,
    oracle-checked by scripts/check_entry.py, and covered by tests."""
    return {
        "q03_text_counts": q03_text_counts,
        "q07_metric_nchars": q07_metric_nchars,
        "q10_event_type_topk": q10_event_type_topk,
        "q14_orders_status": q14_orders_status,
        "q33_mod_sample": q33_mod_sample,
        "q35_normalize": q35_normalize,
        "q42_avg_events_per_user": q42_avg_events_per_user,
        # not rotated OUT — q58 was born here: the 50-slot driver snapshot
        # is full, and the local gate gives it the same oracle check
        "q58_query_context_agg": q58_query_context_agg,
    }


def oracle_sql() -> dict[str, str]:
    # Deterministic non-SQL kernels (simhash / rolling fingerprint / n-gram
    # lang-id) use GOLDEN-PARQUET oracles: the SQL selects a committed file
    # produced by scripts/make_goldens.py over the sf0.01 tables (the sf the
    # driver's correctness gate runs at).  This pins cross-round determinism
    # and the exact value profile; kernel changes must regenerate goldens
    # deliberately, which shows up in the git diff.
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tests", "golden")
    return {
        "q01_lang_topk": (
            "SELECT lang, count(*) AS cnt FROM documents "
            "GROUP BY lang ORDER BY cnt DESC, lang LIMIT 5"
        ),
        "q02_token_topk": (
            "SELECT term, count(*) AS cnt FROM ("
            "  SELECT unnest(string_split(text, ' ')) AS term FROM documents"
            ") WHERE term <> '' GROUP BY term ORDER BY cnt DESC, term LIMIT 25"
        ),
        "q04_text_ratios": (
            "SELECT doc_id, "
            f"CAST(len(regexp_extract_all(text, '{_PUNCT_RE}')) AS DOUBLE)"
            " / greatest(length(text), 1) AS punct_ratio, "
            f"CAST(len(list_filter(string_split(text, ' '), x -> x IN {_STOP_SQL})) AS DOUBLE)"
            " / greatest(len(string_split(text, ' ')), 1) AS stopword_ratio "
            "FROM documents"
        ),
        "q05_exact_dedup": (
            "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text"
        ),
        "q06_admission": (
            "SELECT doc_id FROM documents WHERE len(string_split(text, ' ')) >= 50"
        ),
        "q08_median_nchars": (
            "SELECT CAST(median(n_chars) AS DOUBLE) AS median_n_chars FROM documents"
        ),
        "q09_date_histogram": (
            "SELECT CAST(floor(epoch(ts)/7200)*7200 AS BIGINT) AS bucket, "
            "count(*) AS cnt, round(sum(value), 4) AS sum_value "
            "FROM events GROUP BY bucket ORDER BY bucket"
        ),
        "q11_last_value_per_user": (
            "SELECT user_id, value AS last_value FROM ("
            "  SELECT user_id, value, row_number() OVER ("
            "    PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn"
            "  FROM events) WHERE rn = 1"
        ),
        "q12_pct_change_per_user": (
            "WITH ordered AS (SELECT user_id, value, row_number() OVER ("
            "  PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn FROM events) "
            "SELECT l.user_id, round(CASE WHEN p.prev IS NOT NULL AND p.prev <> 0 "
            "THEN (l.v - p.prev) / p.prev * 100.0 ELSE 0.0 END, 6) AS change "
            "FROM (SELECT user_id, value AS v FROM ordered WHERE rn = 1) l "
            "LEFT JOIN (SELECT user_id, value AS prev FROM ordered WHERE rn = 2) p "
            "USING (user_id)"
        ),
        "q13_lineitem_pricing": (
            "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, "
            "round(sum(l_extendedprice), 2) AS sum_base_price, "
            "round(sum(l_discount) / count(*), 6) AS avg_disc, "
            "count(*) AS count_order "
            "FROM lineitem GROUP BY l_returnflag, l_linestatus "
            "ORDER BY l_returnflag, l_linestatus"
        ),
        "q15_orders_mktsegment": (
            "SELECT c_mktsegment, count(*) AS order_cnt, "
            "round(sum(o_totalprice), 2) AS sum_totalprice "
            "FROM orders JOIN customer ON o_custkey = c_custkey "
            "GROUP BY c_mktsegment"
        ),
        "q16_knn": (
            "WITH q AS ("
            "  SELECT 0 AS query_idx, (SELECT embedding FROM embeddings WHERE vec_id = 0) AS qv"
            "  UNION ALL SELECT 1, (SELECT embedding FROM embeddings WHERE vec_id = 1)"
            "  UNION ALL SELECT 2, (SELECT embedding FROM embeddings WHERE vec_id = 2)"
            "), scored AS ("
            "  SELECT q.query_idx, e.vec_id, "
            "  list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), CAST(q.qv AS DOUBLE[])) AS s"
            "  FROM embeddings e CROSS JOIN q"
            "), ranked AS ("
            "  SELECT query_idx, vec_id, s, CAST(row_number() OVER ("
            "    PARTITION BY query_idx ORDER BY s DESC, vec_id) - 1 AS BIGINT) AS rank"
            "  FROM scored) "
            "SELECT query_idx, rank, vec_id, round(s, 6) AS score "
            "FROM ranked WHERE rank < 10 ORDER BY query_idx, rank"
        ),
        "q29_asof_join": (
            "WITH a AS (SELECT event_id, user_id % 50 AS k, ts FROM events), "
            "b AS (SELECT o_custkey % 50 AS k, o_orderdate, "
            "max(o_totalprice) AS value FROM orders GROUP BY 1, 2) "
            "SELECT a.event_id, a.k, b.value FROM a ASOF JOIN b "
            "ON a.k = b.k AND a.ts >= b.o_orderdate"
        ),
        "q30_rolling_mean": (
            "SELECT event_id, round(avg(value) OVER ("
            "PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS BETWEEN 4 PRECEDING AND CURRENT ROW), 6) AS rmean FROM events"
        ),
        "q34_stratified_head": (
            "SELECT doc_id, lang FROM (SELECT doc_id, lang, row_number() "
            "OVER (PARTITION BY lang ORDER BY doc_id) AS rn FROM documents) "
            "WHERE rn <= 20"
        ),
        "q36_hash_join": (
            "SELECT o_orderpriority, "
            "round(sum(l_extendedprice * (1.0 - l_discount)), 2) AS revenue, "
            "count(*) AS n_items "
            "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
            "GROUP BY o_orderpriority"
        ),
        "q38_uniq_users_daily": (
            "SELECT CAST(floor(epoch(ts)/86400)*86400 AS BIGINT) AS bucket, "
            "count(DISTINCT user_id) AS uniq_users FROM events GROUP BY bucket"
        ),
        "q43_top_users_by_value": (
            "SELECT user_id, round(sum(value), 4) AS total_value FROM events "
            "GROUP BY user_id ORDER BY sum(value) DESC, user_id LIMIT 5"
        ),
        "q20_simhash": (
            f"SELECT doc_id, simhash FROM read_parquet('{golden}/q20_simhash_sf001.parquet')"
        ),
        "q21_fingerprint": (
            f"SELECT doc_id, fingerprint FROM read_parquet('{golden}/q21_fingerprint_sf001.parquet')"
        ),
        "q22_lang_id": (
            f"SELECT doc_id, lang_pred FROM read_parquet('{golden}/q22_lang_id_sf001.parquet')"
        ),
        # golden oracles for the remaining deterministic non-SQL pipelines —
        # each verified session-independent (scripts/check_determinism.py:
        # identical content hash in fresh 4- and 16-cpu sessions) before
        # pinning; regenerate deliberately via scripts/make_goldens.py.
        **{
            name: f"SELECT * FROM read_parquet('{golden}/{name}_sf001.parquet')"
            for name in (
                "q18_bm25", "q19_minhash_dedup", "q23_sentiment",
                "q24_ivf_knn", "q25_image_features", "q26_webtext_ingest",
                "q27_news_headlines", "q28_sentiment_dashboard",
                "q31_url_extract", "q32_prices_pipeline", "q37_bm25_modes",
                "q40_hll_distinct", "q41_pack_sequences",
                "q44_link_score_fold", "q52_scrub_pii",
                "q39_quantile_sketch", "q56_delete_compact_search",
                "q57_query_string",
            )
        },
        "q45_sessionize": (
            "WITH e AS (SELECT user_id, ts, event_id, CASE WHEN lag(ts) OVER w "
            "IS NULL OR epoch_us(ts) - epoch_us(lag(ts) OVER w) > 1800 * 1000000 "
            "THEN 1 ELSE 0 END AS brk FROM events "
            "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)), "
            "s AS (SELECT user_id, ts, CAST(SUM(brk) OVER (PARTITION BY user_id "
            "ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id "
            "FROM e) "
            "SELECT user_id, session_id, count(*) AS n_events, "
            "epoch_us(min(ts)) AS start_us, epoch_us(max(ts)) AS end_us "
            "FROM s GROUP BY user_id, session_id ORDER BY user_id, session_id"
        ),
        "q48_repetition_stats": (
            "WITH base AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents), "
            "w AS (SELECT doc_id, unnest(l) AS w FROM base), "
            "wc AS (SELECT doc_id, max(c) AS topw FROM "
            "  (SELECT doc_id, w, count(*) AS c FROM w GROUP BY doc_id, w) GROUP BY doc_id), "
            "b AS (SELECT doc_id, unnest(list_transform(range(1, len(l)), "
            "  i -> l[i] || ' ' || l[i+1])) AS bg FROM base), "
            "bc AS (SELECT doc_id, max(c) AS topb FROM "
            "  (SELECT doc_id, bg, count(*) AS c FROM b GROUP BY doc_id, bg) GROUP BY doc_id) "
            "SELECT base.doc_id, len(l) AS n_words, "
            "len(list_distinct(l)) AS n_distinct_words, "
            "len(list_distinct(l)) / greatest(len(l), 1) AS distinct_ratio, "
            "wc.topw / greatest(len(l), 1) AS top_word_frac, "
            "coalesce(bc.topb, 0) / greatest(len(l) - 1, 1) AS top_bigram_frac, "
            "list_max(list_transform(l, x -> length(x))) AS max_word_len "
            "FROM base JOIN wc USING (doc_id) LEFT JOIN bc USING (doc_id) "
            "ORDER BY base.doc_id"
        ),
        "q49_mix_sources": (
            "SELECT doc_id, source FROM documents "
            "WHERE doc_id % 100 < 100 - 5 * CAST(substr(source, 4) AS INT) "
            "ORDER BY doc_id"
        ),
        "q50_decontaminate": (
            "WITH base AS (SELECT doc_id, string_split(text, ' ') AS l FROM documents), "
            "grams AS (SELECT DISTINCT doc_id, unnest(list_transform("
            "  range(1, greatest(len(l) - 7, 0) + 1), "
            "  i -> array_to_string(list_slice(l, i, i + 7), ' '))) AS g FROM base), "
            "bg AS (SELECT DISTINCT g FROM grams WHERE doc_id % 97 = 0), "
            "hits AS (SELECT grams.doc_id, count(*) AS n_hits FROM grams "
            "  JOIN bg USING (g) GROUP BY grams.doc_id) "
            "SELECT base.doc_id, coalesce(n_hits, 0) AS n_hits, "
            "coalesce(n_hits, 0) > 0 AS contaminated "
            "FROM base LEFT JOIN hits USING (doc_id) ORDER BY base.doc_id"
        ),
        "q46_anti_join": (
            "SELECT c_custkey, c_name FROM customer "
            "WHERE NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey "
            "AND o_orderpriority = '1-URGENT') ORDER BY c_custkey"
        ),
        "q54_dup_clusters": (
            f"WITH RECURSIVE {_SHINGLE_CTE}, "
            "pairs AS (SELECT a.doc_id AS ida, b.doc_id AS idb, "
            "count(*)*1.0/(any_value(a.n)+any_value(b.n)-count(*)) AS j "
            "FROM ex a JOIN ex b ON a.s = b.s AND a.doc_id < b.doc_id "
            "GROUP BY 1, 2), "
            "sym AS (SELECT ida AS a, idb AS b FROM pairs WHERE j >= 0.5 "
            "UNION ALL SELECT idb, ida FROM pairs WHERE j >= 0.5), "
            "cc(node, lbl) AS (SELECT DISTINCT a, a FROM sym UNION "
            "SELECT sym.a, cc.lbl FROM sym JOIN cc ON sym.b = cc.node), "
            "mincc AS (SELECT node, MIN(lbl) AS cluster_id FROM cc GROUP BY node) "
            "SELECT m.node AS doc_id, m.cluster_id, s.cluster_size "
            "FROM mincc m JOIN (SELECT cluster_id, count(*)::BIGINT AS "
            "cluster_size FROM mincc GROUP BY 1) s USING (cluster_id) "
            "ORDER BY doc_id"
        ),
        "q55_cross_dedup": (
            f"WITH {_SHINGLE_CTE}, "
            "hits AS (SELECT c.doc_id AS cid, "
            "count(*)*1.0/(any_value(c.n)+any_value(r.n)-count(*)) AS j "
            "FROM ex c JOIN ex r ON c.s = r.s "
            "WHERE CAST(substr(c.source,4) AS INT) % 2 = 1 "
            "AND CAST(substr(r.source,4) AS INT) % 2 = 0 "
            "GROUP BY c.doc_id, r.doc_id), "
            "dropped AS (SELECT DISTINCT cid FROM hits WHERE j >= 0.5) "
            "SELECT d.doc_id, d.doc_id NOT IN (SELECT cid FROM dropped) AS keep "
            "FROM documents d WHERE CAST(substr(d.source,4) AS INT) % 2 = 1 "
            "ORDER BY doc_id"
        ),
        "q53_hopping_windows": (
            "WITH e AS (SELECT event_type, epoch_us(ts) // 1000000 AS t FROM events) "
            "SELECT k * 900 AS window_start, event_type, count(*) AS cnt FROM ("
            "  SELECT event_type, unnest(generate_series("
            "    (t - 3600) // 900 + 1, t // 900)) AS k FROM e) "
            "GROUP BY 1, 2 ORDER BY 1, 2"
        ),
        "q51_topk_per_group": (
            "SELECT event_type, user_id, round(total, 4) AS total_value FROM ("
            "  SELECT event_type, user_id, sum(value) AS total, "
            "  row_number() OVER (PARTITION BY event_type "
            "    ORDER BY sum(value) DESC, user_id) AS rn "
            "  FROM events GROUP BY event_type, user_id) "
            "WHERE rn <= 5 ORDER BY event_type, total DESC, user_id"
        ),
        "q47_props_extract": (
            "SELECT event_type, count(*) AS n, "
            "CAST(sum(CAST(props->>'k' AS BIGINT)) AS BIGINT) AS sum_k, "
            "round(avg(CAST(props->>'k' AS BIGINT)), 6) AS avg_k "
            "FROM events GROUP BY event_type ORDER BY event_type"
        ),
        "q17_events_ohlc": (
            "WITH b AS (SELECT user_id, CAST(floor(epoch(ts)/86400)*86400 AS BIGINT)"
            "  AS bucket, ts, event_id, value FROM events), "
            "o AS (SELECT user_id, bucket, value, "
            "  row_number() OVER (PARTITION BY user_id, bucket ORDER BY ts, event_id) AS rn_a, "
            "  row_number() OVER (PARTITION BY user_id, bucket ORDER BY ts DESC, event_id DESC) AS rn_d "
            "FROM b) "
            "SELECT user_id, bucket, "
            "max(CASE WHEN rn_a = 1 THEN value END) AS open, "
            "max(value) AS high, min(value) AS low, "
            "max(CASE WHEN rn_d = 1 THEN value END) AS close, "
            "count(*) AS n FROM o GROUP BY user_id, bucket"
        ),
    }


def rotated_oracle_sql() -> dict[str, str]:
    """DuckDB oracles for rotated_queries() — still exercised locally by
    scripts/check_entry.py even though the driver snapshot omits them."""
    return {
        "q03_text_counts": (
            "SELECT doc_id, "
            "len(string_split(text, ' ')) AS n_ws_tokens, "
            f"len(regexp_extract_all(text, '{_TOKEN_RE}')) AS n_re_tokens, "
            f"len(regexp_extract_all(text, '{_PUNCT_RE}')) AS n_punct, "
            f"len(list_filter(string_split(text, ' '), x -> x IN {_STOP_SQL})) AS n_stopwords "
            "FROM documents"
        ),
        "q07_metric_nchars": (
            "SELECT count(*) AS cnt, round(avg(n_chars), 6) AS avg_n_chars, "
            "min(n_chars) AS min_n_chars, max(n_chars) AS max_n_chars FROM documents"
        ),
        "q10_event_type_topk": (
            "SELECT event_type, count(*) AS cnt FROM events "
            "GROUP BY event_type ORDER BY cnt DESC, event_type LIMIT 10"
        ),
        "q14_orders_status": (
            "SELECT o_orderstatus, count(*) AS cnt, "
            "round(sum(o_totalprice), 2) AS sum_totalprice "
            "FROM orders GROUP BY o_orderstatus"
        ),
        "q33_mod_sample": (
            "SELECT doc_id, lang FROM documents WHERE doc_id % 100 < 17"
        ),
        # pure filter-context query scope == SQL WHERE exactly (the BM25
        # text-clause scopes are covered by the q57 golden instead)
        "q58_query_context_agg": (
            "SELECT source, count(*) AS cnt FROM documents "
            "WHERE lang = 'en' AND n_chars >= 300 "
            "GROUP BY source ORDER BY cnt DESC, source LIMIT 10"
        ),
        "q35_normalize": (
            "SELECT doc_id, trim(regexp_replace(lower(text), ' +', ' ', 'g')) "
            "AS text_norm FROM documents"
        ),
        "q42_avg_events_per_user": (
            "SELECT round(avg(c), 6) AS avg_events FROM ("
            "SELECT count(*) AS c FROM events GROUP BY user_id)"
        ),
    }


def entry() -> Any:
    """Flagship: full webtext chain at smoke scale — synthetic corpus →
    extract/clean/dedup/doc-ids/enrich → SPIMI index build → BM25 top-k —
    plus a documents-table read from sf0.001 to prove the sf contract."""
    import ray.data as rd

    from stocksight_ray.index.build import build_index
    from stocksight_ray.index.query import QueryEngine
    from stocksight_ray.pipelines.ingest import ingest_webtext
    from stocksight_ray.webtext import generate_table

    corpus = generate_table(600, seed=42)
    enriched = ingest_webtext(rd.from_arrow(corpus))
    docs = enriched.drop_columns(["tokens"]).materialize()

    import shutil

    out_dir = tempfile.mkdtemp(prefix="entry_index_")
    build_index(docs, out_dir, text_col="text_clean", num_partitions=8, batch_size=256)
    eng = QueryEngine(out_dir)

    rows = []
    for qid, q in enumerate(["stock market earnings", "investor fears", "quarterly report"]):
        t = eng.search_table(q, k=10).to_pandas()
        t.insert(0, "query_id", qid)
        rows.append(t)
    res = pd.concat(rows, ignore_index=True)
    shutil.rmtree(out_dir, ignore_errors=True)

    # sf contract: touch the driver-generated table too
    n_docs = _read_pq(os.path.join(SF_SMOKE, "documents.parquet")).count()
    res["sf_docs"] = n_docs
    return res
