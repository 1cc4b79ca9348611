"""News-headline pipeline (E2/S2 parity) and query-serving actors."""

import numpy as np
import pandas as pd
import pytest


def test_news_pipeline(ray_session, webtext_table):
    import ray.data as rd

    from stocksight_ray.functions.htmlx import extract_headlines
    from stocksight_ray.functions.sentiment import sentiment_analysis
    from stocksight_ray.pipelines.news import news_pipeline

    out = news_pipeline(rd.from_arrow(webtext_table), enrich_concurrency=2).to_pandas()
    assert set(out.columns) == {
        "location", "date", "message", "admitted", "polarity", "subjectivity", "sentiment",
    }
    # oracle: flat-map + first-seen dedup in pandas
    rows = []
    pdf = webtext_table.to_pandas()
    for _, r in pdf.iterrows():
        for h in extract_headlines(r["html"]):
            rows.append((r["url"], r["warc_ts"], h))
    exp = pd.DataFrame(rows, columns=["location", "date", "message"])
    exp = exp.sort_values(["message", "date", "location"], kind="stable").drop_duplicates(
        "message", keep="first"
    )
    assert len(out) == len(exp)
    got = out.sort_values("message").reset_index(drop=True)
    exp = exp.sort_values("message").reset_index(drop=True)
    assert list(got["message"]) == list(exp["message"])
    assert list(got["location"]) == list(exp["location"])
    # sentiment matches the scalar kernel
    for _, r in got.head(20).iterrows():
        p, s, lab = sentiment_analysis(r["message"])
        assert r["polarity"] == pytest.approx(p)
        assert r["sentiment"] == lab


@pytest.fixture(scope="module")
def built_index(ray_session, webtext_table, tmp_path_factory):
    import ray.data as rd

    from stocksight_ray.index.build import build_index
    from stocksight_ray.pipelines.ingest import ingest_webtext

    docs = (
        ingest_webtext(rd.from_arrow(webtext_table), enrich_concurrency=2, batch_size=128)
        .drop_columns(["tokens"])
        .materialize()
    )
    out = str(tmp_path_factory.mktemp("serve_index"))
    build_index(docs, out, text_col="text_clean", num_partitions=8, batch_size=128)
    return out


def test_search_dataset_stage(ray_session, built_index):
    import ray.data as rd

    from stocksight_ray.index.query import QueryEngine
    from stocksight_ray.index.serve import search_dataset

    queries = ["stock market earnings", "investor fears", "quarterly report", "zzzunseen"]
    qds = rd.from_items(
        [{"query_id": i, "query": q} for i, q in enumerate(queries)]
    )
    got = search_dataset(qds, built_index, k=5, concurrency=2).to_pandas()
    eng = QueryEngine(built_index)
    for i, q in enumerate(queries):
        exp = eng.search(q, 5)
        sub = got[got["query_id"] == i].sort_values("rank")
        assert [(int(d), float(s)) for d, s in zip(sub["doc_id"], sub["score"])] == [
            (d, pytest.approx(s)) for d, s in exp
        ]


def test_search_dataset_query_string_mode(ray_session, built_index):
    import ray.data as rd

    from stocksight_ray.index.query import QueryEngine
    from stocksight_ray.index.serve import search_dataset

    queries = ["stock AND market", "earn* OR investor", "market AND NOT stock"]
    qds = rd.from_items(
        [{"query_id": i, "query": q} for i, q in enumerate(queries)]
    )
    got = search_dataset(
        qds, built_index, k=5, concurrency=2, mode="query_string"
    ).to_pandas()
    eng = QueryEngine(built_index)
    for i, q in enumerate(queries):
        exp = eng.search_query(q, 5)
        sub = got[got["query_id"] == i].sort_values("rank")
        assert [(int(d), float(s)) for d, s in zip(sub["doc_id"], sub["score"])] == [
            (d, pytest.approx(s)) for d, s in exp
        ]


def test_sharded_query_service(ray_session, webtext_table, tmp_path):
    """Per-segment shard actors + distributed top-k merge == the global
    engine exactly (scores comparable because idf/avgdl are global)."""
    import ray.data as rd

    from stocksight_ray.index.query import QueryEngine
    from stocksight_ray.index.segments import build_resumable
    from stocksight_ray.index.serve import ShardedQueryService
    from stocksight_ray.pipelines.ingest import ingest_webtext

    docs = (
        ingest_webtext(rd.from_arrow(webtext_table), enrich_concurrency=2, batch_size=128)
        .drop_columns(["tokens"])
        .materialize()
    )
    out = str(tmp_path / "sharded_serve")
    m = build_resumable(
        docs, out, text_col="text_clean",
        num_partitions=4, salt_range=128, shard_docs=128, batch_size=64,
    )
    assert len(m["segments"]) >= 3
    svc = ShardedQueryService(out)
    eng = QueryEngine(out)
    for q in ["stock market earnings", "investor fears", "running traditional",
              "buy sell hold", "zzzunseen"]:
        assert svc.search(q, 10) == eng.search(q, 10, method="exhaustive"), q
    svc.shutdown()


def test_sharded_service_k_guard(ray_session, webtext_table, tmp_path):
    import ray.data as rd

    from stocksight_ray.index.segments import build_resumable
    from stocksight_ray.index.query import QueryEngine
    from stocksight_ray.index.serve import ShardedQueryService
    from stocksight_ray.pipelines.ingest import ingest_webtext

    docs = (
        ingest_webtext(rd.from_arrow(webtext_table), enrich_concurrency=2, batch_size=128)
        .drop_columns(["tokens"]).materialize()
    )
    out = str(tmp_path / "kguard")
    build_resumable(docs, out, text_col="text_clean", num_partitions=4,
                    salt_range=256, shard_docs=256, batch_size=128)
    svc = ShardedQueryService(out)
    assert svc.search("stock market", k=0) == []
    assert svc.search("stock market", k=-1) == []
    assert QueryEngine(out, shard=0).search("stock market", k=0) == []
    svc.shutdown()
