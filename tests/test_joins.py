"""asof_join / rolling_mean operators vs pandas oracles (interleaved
timestamps, missing keys, exact-match boundaries)."""

from datetime import datetime, timedelta

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _mk(ts_offsets):
    base = datetime(2022, 1, 1)
    return [base + timedelta(minutes=int(m)) for m in ts_offsets]


def test_asof_join_interleaved(ray_session):
    import ray.data as rd

    from stocksight_ray.pipelines.joins import asof_join

    left = pa.table(
        {
            "id": pa.array(range(8), pa.int64()),
            "k": pa.array([1, 1, 1, 2, 2, 3, 3, 9], pa.int64()),
            "lts": pa.array(_mk([10, 25, 5, 12, 40, 7, 8, 10]), pa.timestamp("us")),
        }
    )
    right = pa.table(
        {
            "k": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
            "rts": pa.array(_mk([0, 10, 20, 15, 30, 8]), pa.timestamp("us")),
            "price": pa.array([100.0, 110.0, 120.0, 200.0, 210.0, 300.0]),
        }
    )
    got = (
        asof_join(
            rd.from_arrow(left), rd.from_arrow(right),
            by="k", left_ts="lts", right_ts="rts", right_value="price",
        )
        .to_pandas()
        .sort_values("id")
        .set_index("id")
    )
    exp = pd.merge_asof(
        left.to_pandas().sort_values("lts"),
        right.to_pandas().sort_values("rts").rename(columns={"rts": "lts", "price": "price"}),
        on="lts", by="k", direction="backward", allow_exact_matches=True,
    ).dropna(subset=["price"]).set_index("id")
    assert sorted(got.index) == sorted(exp.index)
    for i in exp.index:
        assert got.loc[i, "price"] == exp.loc[i, "price"]
    # exact-match boundary: id=0 (k=1, t=10) must take the t=10 row (110)
    assert got.loc[0, "price"] == 110.0
    # id=2 (k=1, t=5) takes t=0 row; id=7 (k=9) has no right side → dropped
    assert got.loc[2, "price"] == 100.0
    assert 7 not in got.index


def test_asof_join_outer(ray_session):
    import ray.data as rd

    from stocksight_ray.pipelines.joins import asof_join

    left = pa.table(
        {
            "id": pa.array([0, 1], pa.int64()),
            "k": pa.array([1, 9], pa.int64()),
            "lts": pa.array(_mk([10, 10]), pa.timestamp("us")),
        }
    )
    right = pa.table(
        {
            "k": pa.array([1], pa.int64()),
            "rts": pa.array(_mk([5]), pa.timestamp("us")),
            "price": pa.array([42.0]),
        }
    )
    got = (
        asof_join(
            rd.from_arrow(left), rd.from_arrow(right),
            by="k", left_ts="lts", right_ts="rts", right_value="price",
            inner=False,
        )
        .to_pandas()
        .sort_values("id")
    )
    assert len(got) == 2
    assert got.iloc[0]["price"] == 42.0
    assert pd.isna(got.iloc[1]["price"])


def test_rolling_mean(ray_session):
    import ray.data as rd

    from stocksight_ray.pipelines.joins import rolling_mean

    rng = np.random.RandomState(1)
    n = 200
    t = pa.table(
        {
            "rid": pa.array(range(n), pa.int64()),
            "k": pa.array(rng.randint(0, 5, n), pa.int64()),
            "ts": pa.array(_mk(rng.permutation(n)), pa.timestamp("us")),
            "v": pa.array(rng.rand(n) * 100),
        }
    )
    got = (
        rolling_mean(
            rd.from_arrow(t), key="k", order_cols=["ts", "rid"], value="v",
            window=5, id_cols=["rid"],
        )
        .to_pandas()
        .sort_values("rid")
        .reset_index(drop=True)
    )
    pdf = t.to_pandas()
    exp = []
    for k, g in pdf.groupby("k"):
        g = g.sort_values(["ts", "rid"])
        r = g["v"].rolling(5, min_periods=1).mean()
        exp.extend(zip(g["rid"], r))
    exp = pd.DataFrame(exp, columns=["rid", "rmean"]).sort_values("rid").reset_index(drop=True)
    np.testing.assert_allclose(got["rmean"], exp["rmean"], rtol=1e-12)


def test_url_extract_and_lang_filter(ray_session, webtext_table):
    import ray.data as rd

    from stocksight_ray.functions.clean import extract_urls, extract_urls_batch
    from stocksight_ray.pipelines.ingest import ingest_webtext

    assert extract_urls("see https://a.b/c and http://d.e f") == [
        "https://a.b/c", "http://d.e",
    ]
    out = (
        rd.from_arrow(webtext_table)
        .map_batches(lambda b: extract_urls_batch(b, "text"), batch_format="pyarrow")
        .to_pandas()
    )
    import re

    pat = re.compile(r"(https?://[^\s]+)")
    for _, r in out.head(50).iterrows():
        assert list(r["urls"]) == pat.findall(r["text"] or "")

    only_en = ingest_webtext(
        rd.from_arrow(webtext_table), batch_size=128,
        langs=("en",),
    ).to_pandas()
    assert set(only_en["lang"]) == {"en"}
    langs_in = set(webtext_table.column("lang").to_pylist())
    assert langs_in - {"en"}  # corpus does contain non-en rows


def test_fused_dedup_ids_matches_two_shuffle(ray_session, webtext_table):
    """dedup_and_assign_ids == dedup_newest_wins → assign_doc_ids at
    several partition counts (ids, keeper rows, texts)."""
    import ray.data as rd

    from stocksight_ray.pipelines.ingest import (
        assign_doc_ids, clean_filter_batch, dedup_and_assign_ids,
        dedup_newest_wins, extract_batch,
    )

    for nb in (1, 4, 16):
        ds = rd.from_arrow(webtext_table).repartition(nb)
        pre = ds.map_batches(extract_batch, batch_format="pyarrow", batch_size=64).map_batches(
            clean_filter_batch, batch_format="pyarrow", batch_size=64
        )
        old = (
            assign_doc_ids(dedup_newest_wins(pre), "url")
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        new = (
            dedup_and_assign_ids(pre, "url", "warc_ts")
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert list(old["doc_id"]) == list(new["doc_id"])
        assert list(old["url"]) == list(new["url"])
        assert list(old["warc_ts"]) == list(new["warc_ts"])
        assert list(old["text"]) == list(new["text"])


def test_dedup_ids_driver_slim_fastpath_matches_distributed(
    ray_session, webtext_table, monkeypatch
):
    """The driver-slim small-corpus fast path and the distributed slim-sort
    + broadcast path must produce identical (doc_id, url, warc_ts, text) —
    DRIVER_SLIM_MAX=0 forces the distributed machinery on the same input."""
    import ray.data as rd

    from stocksight_ray.pipelines import ingest as ing

    pre = (
        rd.from_arrow(webtext_table)
        .repartition(4)
        .map_batches(ing.extract_batch, batch_format="pyarrow", batch_size=64)
        .map_batches(ing.clean_filter_batch, batch_format="pyarrow", batch_size=64)
    )
    fast = (
        ing.dedup_and_assign_ids(pre, "url", "warc_ts")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    monkeypatch.setattr(ing, "DRIVER_SLIM_MAX", 0)
    dist = (
        ing.dedup_and_assign_ids(pre, "url", "warc_ts")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    for col in ("doc_id", "url", "warc_ts", "text"):
        assert list(fast[col]) == list(dist[col]), col


def test_hash_join_vs_pandas(ray_session):
    import ray.data as rd

    from stocksight_ray.pipelines.joins import hash_join

    left = pa.table(
        {"k": pa.array([1, 2, 2, 3, 5], pa.int64()),
         "a": pa.array([10.0, 20.0, 21.0, 30.0, 50.0])}
    )
    right = pa.table(
        {"k": pa.array([1, 2, 4], pa.int64()),
         "b": pa.array(["x", "y", "z"], pa.string())}
    )
    got = (
        hash_join(rd.from_arrow(left), rd.from_arrow(right),
                  on="k", left_cols=["a"], right_cols=["b"])
        .to_pandas().sort_values(["k", "a"]).reset_index(drop=True)
    )
    exp = (
        left.to_pandas().merge(right.to_pandas(), on="k", how="inner")
        .sort_values(["k", "a"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["k", "a", "b"]], exp[["k", "a", "b"]])
    # left join keeps unmatched
    got_l = (
        hash_join(rd.from_arrow(left), rd.from_arrow(right),
                  on="k", left_cols=["a"], right_cols=["b"], how="left")
        .to_pandas()
    )
    assert len(got_l) == 5
    assert got_l[got_l["k"] == 5]["b"].isna().all()


def test_sampling_ops(ray_session):
    import ray.data as rd

    from stocksight_ray.pipelines.sampling import (
        hash_sample, mod_sample, stratified_head,
    )

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")
    pdf = pd.read_parquet("/root/testdata/sf0.001/documents.parquet")
    got = mod_sample(docs, "doc_id", 17, 100).to_pandas()
    assert sorted(got["doc_id"]) == sorted(pdf[pdf["doc_id"] % 100 < 17]["doc_id"])
    # hash_sample deterministic across runs and partitionings
    h1 = sorted(hash_sample(docs, "text", 30, 100).to_pandas()["doc_id"])
    h2 = sorted(
        hash_sample(docs.repartition(7), "text", 30, 100).to_pandas()["doc_id"]
    )
    assert h1 == h2 and 0 < len(h1) < len(pdf)
    st = stratified_head(docs, "lang", 10, ["doc_id"]).to_pandas()
    exp = pdf.sort_values("doc_id").groupby("lang").head(10)
    assert sorted(st["doc_id"]) == sorted(exp["doc_id"])


def test_hash_join_rejects_unsupported_mode(ray_session):
    import ray.data as rd

    from stocksight_ray.pipelines.joins import hash_join

    t = pa.table({"k": pa.array([1], pa.int64()), "a": pa.array([1.0])})
    with pytest.raises(ValueError):
        hash_join(rd.from_arrow(t), rd.from_arrow(t), on="k",
                  left_cols=["a"], right_cols=["a"], how="outer")


def test_brute_force_tie_handling(ray_session):
    """Score-tied vectors at the k boundary must resolve by id asc."""
    import ray.data as rd

    from stocksight_ray.pipelines.similarity import brute_force_topk

    v = [1.0, 0.0]
    t = pa.table({
        "vec_id": pa.array([9, 3, 7, 1, 5], pa.int64()),
        "embedding": pa.array([v, v, v, v, [0.0, 1.0]], pa.list_(pa.float64())),
    })
    got = brute_force_topk(rd.from_arrow(t).repartition(3), np.array([v]), k=3).to_pandas()
    assert list(got["vec_id"]) == [1, 3, 7]  # tied score -> smallest ids


def test_exact_median_ignores_nulls(ray_session):
    import ray.data as rd

    from stocksight_ray.pipelines.aggs import exact_median

    t = pa.table({"x": pa.array([1.0, None, None, None, 2.0], pa.float64())})
    assert exact_median(rd.from_arrow(t), "x") == 1.5


def test_ingest_without_lang_column(ray_session, webtext_table):
    import ray.data as rd

    from stocksight_ray.pipelines.ingest import ingest_webtext

    no_lang = webtext_table.select(["url", "warc_ts", "html"])
    out = ingest_webtext(rd.from_arrow(no_lang), batch_size=128)
    assert out.count() > 0
    with pytest.raises(ValueError):
        ingest_webtext(rd.from_arrow(no_lang), langs=("en",)).count()


def test_fused_dedup_ids_property(ray_session):
    """Property test: random duplicate-heavy (url, ts) corpora — the fused
    single-sort path must match the two-shuffle path at any partitioning,
    including adjacent duplicates straddling block boundaries."""
    from datetime import datetime, timedelta

    import ray.data as rd

    from stocksight_ray.pipelines.ingest import (
        assign_doc_ids, dedup_and_assign_ids, dedup_newest_wins,
    )

    rng = np.random.RandomState(99)
    for trial in range(3):
        n_urls = rng.randint(20, 60)
        rows = []
        for i in range(rng.randint(100, 250)):
            u = f"https://s.example/{rng.randint(0, n_urls)}"
            ts = datetime(2021, 1, 1) + timedelta(seconds=int(rng.randint(0, 10**6)))
            rows.append((u, ts, f"text {i}"))
        t = pa.table({
            "url": pa.array([r[0] for r in rows], pa.string()),
            "warc_ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "text": pa.array([r[2] for r in rows], pa.string()),
        })
        for nb in (1, 5, 13):
            ds = rd.from_arrow(t).repartition(nb)
            old = (
                assign_doc_ids(dedup_newest_wins(ds), "url")
                .to_pandas().sort_values("doc_id").reset_index(drop=True)
            )
            new = (
                dedup_and_assign_ids(ds, "url", "warc_ts")
                .to_pandas().sort_values("doc_id").reset_index(drop=True)
            )
            assert list(old["doc_id"]) == list(new["doc_id"]), (trial, nb)
            assert list(old["url"]) == list(new["url"]), (trial, nb)
            assert list(old["text"]) == list(new["text"]), (trial, nb)
