"""End-to-end index build + BM25 top-k: rank- and score-identity vs the
naive oracle at k = 1, 10, 100, pruned top k ≡ exhaustive ranking,
partition-count invariance (SURVEY.md §5.2, §5.6)."""

import math

import pytest

import ray.data as rd

from stocksight_ray.functions.analyzer import english_analyzer
from stocksight_ray.index.build import build_index
from stocksight_ray.index.query import QueryEngine
from stocksight_ray.pipelines.ingest import ingest_webtext

from .oracle import naive_bm25_topk

QUERIES = [
    "market stocks",
    "falling profits",
    "terrible losses fears",
    "connection",          # stemming-sensitive: matches connected/connecting
    "the and of",          # stopword-only → empty after analysis
    "xyzzyunseenterm",     # unseen term → no hits
    "stock",               # head term (high df)
    "earnings report analysts strong",
    "zq0x0 zq1x7",         # synthetic tail terms
    "Investor's growth",   # possessive + stem
]


@pytest.fixture(scope="module")
def built(ray_session, webtext_table, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("idx"))
    ds = ingest_webtext(rd.from_arrow(webtext_table), batch_size=128)
    admitted = ds.filter(expr="admitted")
    docs = admitted.select_columns(["doc_id", "text_clean"])
    manifest = build_index(
        docs,
        out,
        text_col="text_clean",
        analyzer="english",
        num_partitions=8,
        batch_size=128,
    )
    # oracle corpus: same docs, same analyzer
    rows = admitted.select_columns(["doc_id", "text_clean"]).take_all()
    doc_tokens = {r["doc_id"]: english_analyzer(r["text_clean"]) for r in rows}
    return out, manifest, doc_tokens


def test_manifest_stats(built):
    out, manifest, doc_tokens = built
    assert manifest["num_docs"] == len(doc_tokens)
    total = sum(len(v) for v in doc_tokens.values())
    assert manifest["total_terms"] == total
    assert math.isclose(manifest["avgdl"], total / len(doc_tokens))


def _assert_equals_oracle(eng, doc_tokens, query):
    """Same ids, same order and the same float scores as the oracle at
    k = 1, 10 and 100 (both fold the per-doc sum in query-term order)."""
    for k in (1, 10, 100):
        want = naive_bm25_topk(doc_tokens, english_analyzer(query), k=k)
        assert eng.search(query, k=k) == want, (query, k)


@pytest.mark.parametrize("query", QUERIES)
def test_rank_identical_vs_oracle(built, query):
    out, _, doc_tokens = built
    _assert_equals_oracle(QueryEngine(out), doc_tokens, query)


@pytest.mark.parametrize("query", QUERIES)
def test_wand_equals_exhaustive(built, query, monkeypatch):
    """The pruned top k (only docs at or above a sampled lower bound on the
    k-th score are extracted and sorted) equals the exhaustive ranking: a
    full (score desc, doc_id asc) sort of every matching doc.  The sample
    size is also shrunk so that the threshold path runs on this corpus."""
    from stocksight_ray.index import query as qmod

    out, _, _ = built
    eng = QueryEngine(out)
    docs, scores = eng._match(query, "or")
    ranked = sorted(zip(docs.tolist(), scores.tolist()),
                    key=lambda r: (-r[1], r[0]))
    for sample in (qmod._SAMPLE, 8, 32, 256):
        monkeypatch.setattr(qmod, "_SAMPLE", sample)
        for k in (1, 10, 100):
            assert eng.search(query, k=k) == ranked[:k], (query, sample, k)


def test_partition_count_invariance(ray_session, webtext_table, tmp_path):
    """Same corpus indexed under different block/partition structure must
    produce identical results (shuffle-invariance)."""
    ds = ingest_webtext(
        rd.from_arrow(webtext_table).repartition(7),
        batch_size=64,
    )
    docs = ds.filter(expr="admitted").select_columns(["doc_id", "text_clean"])
    out2 = str(tmp_path / "idx2")
    build_index(
        docs,
        out2,
        text_col="text_clean",
        num_partitions=3,
        batch_size=97,
        salt_range=64,  # force many salt buckets → exercises run concat
    )
    eng2 = QueryEngine(out2)
    doc_tokens = {r["doc_id"]: english_analyzer(r["text_clean"])
                  for r in docs.take_all()}
    for query in QUERIES[:6]:
        _assert_equals_oracle(eng2, doc_tokens, query)


def test_doc_ids_deterministic_across_partitioning(ray_session, webtext_table):
    a = ingest_webtext(rd.from_arrow(webtext_table), batch_size=128)
    b = ingest_webtext(
        rd.from_arrow(webtext_table).repartition(13), batch_size=31
    )
    ta = sorted((r["url"], r["doc_id"]) for r in a.select_columns(["url", "doc_id"]).take_all())
    tb = sorted((r["url"], r["doc_id"]) for r in b.select_columns(["url", "doc_id"]).take_all())
    assert ta == tb


def test_extreme_head_term_skew(ray_session, tmp_path):
    """One term in EVERY doc + tiny salt_range: the head term's postings
    split across many salt buckets (no single merge task sees them all) and
    the salted merge must still produce docID-sorted, rank-identical
    results at different partition counts."""
    import pyarrow as pa
    import ray.data as rd

    from stocksight_ray.index.build import build_index
    from stocksight_ray.index.query import QueryEngine

    n = 1000
    texts = [
        f"ubiquitous term plus unique{i} filler words number {i}" for i in range(n)
    ]
    docs = pa.table(
        {"doc_id": pa.array(range(n), pa.int64()), "text": pa.array(texts, pa.string())}
    )
    outs = []
    for parts, salt in ((2, 64), (8, 128)):
        out = str(tmp_path / f"skew_{parts}_{salt}")
        build_index(
            rd.from_arrow(docs).repartition(4), out, text_col="text",
            num_partitions=parts, salt_range=salt, batch_size=128,
        )
        outs.append(out)
    e1, e2 = QueryEngine(outs[0]), QueryEngine(outs[1])
    # df of the ubiquitous term must be N in both
    p1, p2 = e1.lookup("ubiquit"), e2.lookup("ubiquit")
    assert p1 is not None and p1.df == n and p2.df == n
    # salted merge produced >= n/salt_range blocks' worth of runs, sorted
    import numpy as np

    ids1, _ = p1.full()
    assert np.array_equal(ids1, np.arange(n))
    for q in ["ubiquitous term", "unique42 filler", "term number"]:
        assert e1.search(q, 10) == e2.search(q, 10)


@pytest.fixture(scope="module")
def sharded(ray_session, tmp_path_factory):
    """A 3-shard segmented index (serving its docs table) and its
    ShardedQueryService."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from stocksight_ray.index.segments import build_resumable
    from stocksight_ray.index.serve import ShardedQueryService

    n = 40
    texts = [f"stock market report {'strong' if i % 3 else 'weak'} {i}"
             for i in range(n)]
    docs = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                     "text": pa.array(texts, pa.string()),
                     "n": pa.array(range(n), pa.int64())})
    out = str(tmp_path_factory.mktemp("sharded_modes"))
    docs_path = os.path.join(out, "docs.parquet")
    pq.write_table(docs, docs_path)
    build_resumable(rd.from_arrow(docs), out, text_col="text",
                    num_partitions=2, salt_range=16, shard_docs=16,
                    batch_size=16, extra_manifest={"docs_path": docs_path})
    svc = ShardedQueryService(out)
    yield out, svc
    svc.shutdown()


@pytest.mark.parametrize("target, bad", [
    ("engine", "wand_doc"), ("engine", "auto"), ("engine", "Exhaustive"),
    ("shard", "wand_doc"), ("shard", "auto"),
    ("service", "AND"), ("service", "phrase"), ("service", ""),
    ("sorted", "AND"), ("sorted", "xor"),
    ("filtered", "AND"), ("filtered", "xor"),
])
def test_bad_method_or_mode_raises(sharded, target, bad):
    """An unknown match mode fails loudly instead of silently running an
    OR, and so does a scorer ``method`` (the option is gone: there is one
    OR scorer); the valid values still answer."""
    from stocksight_ray.index.serve import SegmentEngine

    out, svc = sharded
    eng = QueryEngine(out)
    if target in ("engine", "shard"):
        e = eng if target == "engine" else SegmentEngine(out, 1)
        with pytest.raises(TypeError, match="method"):
            e.search("strong market", k=10, method=bad)
        assert e.search("strong market", k=10)
        return
    if target in ("sorted", "filtered"):
        q = "strong market"
        if target == "sorted":
            run = lambda mode: [d for d, _ in eng.search_sorted(
                q, k=100, sort_col="n", mode=mode)]
        else:
            run = lambda mode: [d for d, _ in eng.search_filtered(
                q, k=100, filters=[("n", ">=", 0)], mode=mode)]
        with pytest.raises(ValueError, match="mode"):
            run(bad)
        and_ids = {d for d, _ in eng.search_and(q, k=100)}
        or_ids = {d for d, _ in eng.search(q, k=100)}
        assert and_ids < or_ids
        assert set(run("and")) == and_ids and set(run("or")) == or_ids
        return
    with pytest.raises(ValueError, match="mode"):
        svc.search("strong market", k=10, mode=bad)
    assert svc.search("strong market", k=10, mode="and") == \
        eng.search_and("strong market", k=10)
    assert svc.search("strong market", k=10, mode="or") == \
        eng.search("strong market", k=10)


def test_binary_views_rejects_other_offset_types():
    """Postings blobs are read as int32-offset binary; a large_binary (or
    any other) column raises instead of decoding garbage offsets."""
    import pyarrow as pa

    from stocksight_ray.index.query import _binary_views

    blobs = [b"ab", b"", b"cde"]
    arr = pa.array(blobs, pa.binary())
    assert [bytes(v) for v in _binary_views(arr.slice(1))] == blobs[1:]
    for bad in (pa.array(blobs, pa.large_binary()), pa.array(["ab"])):
        with pytest.raises(TypeError, match="binary"):
            _binary_views(bad)
