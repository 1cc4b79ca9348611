"""Tombstone deletes + compaction (index/deletes.py): every scorer path
filters deleted docs exactly; survivors keep their pre-delete scores
(stale-stats, Lucene live-docs semantics); compaction is equivalent to a
fresh build over the filtered corpus; sharded serving stays rank-identical
to the global engine under tombstones."""

import numpy as np
import pytest

import ray.data as rd

from stocksight_ray.index.build import build_index
from stocksight_ray.index.deletes import compact, delete_docs, load_deletes
from stocksight_ray.index.query import QueryEngine
from stocksight_ray.pipelines.ingest import ingest_webtext

QUERIES = [
    "stock market earnings",
    "investor fears",
    "quarterly report",
    "running traditional",
    "technology energy",
]


@pytest.fixture(scope="module")
def corpus(ray_session, webtext_table):
    ds = ingest_webtext(
        rd.from_arrow(webtext_table), batch_size=128
    )
    return (
        ds.filter(expr="admitted")
        .select_columns(["doc_id", "text_clean"])
        .materialize()
    )


def _build(corpus, out, **kw):
    return build_index(
        corpus, out, text_col="text_clean",
        num_partitions=8, batch_size=128, **kw,
    )


@pytest.fixture(scope="module")
def victim_ids(ray_session, corpus, tmp_path_factory):
    """Doc ids that actually appear in result lists (so deletes are
    observable) plus some that don't."""
    out = str(tmp_path_factory.mktemp("probe"))
    _build(corpus, out)
    eng = QueryEngine(out)
    hits = {d for q in QUERIES for d, _ in eng.search(q, k=10)}
    ids = sorted(hits)[::2] + [0, 1]
    return sorted(set(ids))


def test_deletes_filter_every_path(ray_session, corpus, victim_ids, tmp_path):
    out = str(tmp_path / "idx")
    _build(corpus, out)
    pre = QueryEngine(out)
    pre_scores = {
        q: dict(pre.search(q, k=1 << 20)) for q in QUERIES
    }
    info = delete_docs(out, np.array(victim_ids))
    assert info["n_new"] == len(victim_ids)

    eng = QueryEngine(out)
    assert eng.refresh_deletes() == len(victim_ids)
    del_set = set(victim_ids)
    for q in QUERIES:
        res = eng.search(q, k=10)
        assert not del_set & {d for d, _ in res}, q
        # stale-stats semantics: surviving docs score EXACTLY as before
        for d, s in res:
            assert s == pre_scores[q][d], (q, d)
        and_res = eng.search_and(q, k=10)
        assert not del_set & {d for d, _ in and_res}, (q, "and")


def test_delete_entire_topk_surfaces_next_tier(ray_session, corpus, tmp_path):
    """Deleting ALL of a query's top-k must surface the next tier with
    identical scores — the harshest case for the top-k cut, whose k-th
    score must be taken over live docs only."""
    out = str(tmp_path / "idx")
    _build(corpus, out)
    pre = QueryEngine(out)
    for q in QUERIES:
        full = pre.search(q, k=1 << 20)
        if len(full) < 15:
            continue
        top10 = [d for d, _ in full[:10]]
        delete_docs(out, top10)
        eng = QueryEngine(out)
        expected = [(d, s) for d, s in full if d not in set(top10)][:10]
        assert eng.search(q, k=10) == expected, q
        # reset tombstones for the next query's clean slate
        from stocksight_ray.index.deletes import clear_deletes

        clear_deletes(out)


def test_delete_docs_idempotent_and_unions(ray_session, corpus, victim_ids, tmp_path):
    out = str(tmp_path / "idx")
    _build(corpus, out)
    first = delete_docs(out, victim_ids[:3])
    again = delete_docs(out, victim_ids[:3])
    more = delete_docs(out, victim_ids)
    assert first["n_new"] == 3
    assert again["n_new"] == 0
    assert more["n_new"] == len(victim_ids) - 3
    assert load_deletes(out).tolist() == victim_ids


def test_compact_equals_filtered_rebuild(ray_session, corpus, victim_ids, tmp_path):
    out = str(tmp_path / "idx")
    _build(corpus, out)
    delete_docs(out, victim_ids)
    manifest = compact(out)

    filt = corpus.filter(
        lambda r: r["doc_id"] not in set(victim_ids)
    ).materialize()
    ref = str(tmp_path / "ref")
    ref_manifest = _build(filt, ref)

    assert manifest["num_docs"] == ref_manifest["num_docs"]
    assert manifest["avgdl"] == pytest.approx(ref_manifest["avgdl"])
    assert load_deletes(out).size == 0  # tombstones cleared

    got, exp = QueryEngine(out), QueryEngine(ref)
    for q in QUERIES:
        assert got.search(q, k=10) == exp.search(q, k=10)
        assert got.search_and(q, k=10) == exp.search_and(q, k=10)


def test_deletes_survive_incremental_append(ray_session, tmp_path):
    """Tombstones stay valid across an incremental append: new shards fold
    in (reusing committed ones), assemble refreshes the global index, and
    queries still exclude the tombstoned docs.  Compacting afterwards
    purges them while keeping the appended docs."""
    import pyarrow as pa

    from stocksight_ray.index.segments import build_resumable

    def mk_docs(lo, hi, seed_word):
        return pa.table({
            "doc_id": pa.array(range(lo, hi), pa.int64()),
            "text": pa.array(
                [f"{seed_word} market stock document number {i} with "
                 f"earnings data" for i in range(lo, hi)],
                pa.string(),
            ),
        })

    out = str(tmp_path / "incr")
    build_resumable(
        rd.from_arrow(mk_docs(0, 300, "alpha")), out, text_col="text",
        num_partitions=4, salt_range=128, shard_docs=128, batch_size=64,
    )
    victims = [5, 17, 100, 255]
    delete_docs(out, victims)

    m2 = build_resumable(
        rd.from_arrow(mk_docs(0, 500, "alpha")), out, text_col="text",
        num_partitions=4, salt_range=128, shard_docs=128, batch_size=64,
    )
    assert m2["num_docs"] == 500  # stale-until-compact (appended docs in)
    eng = QueryEngine(out)
    hits = {d for d, _ in eng.search("market stock earnings", k=1 << 20)}
    assert not set(victims) & hits
    assert len(hits) == 500 - len(victims)

    manifest = compact(out)
    assert manifest["num_docs"] == 500 - len(victims)
    eng = QueryEngine(out)
    hits = {d for d, _ in eng.search("market stock earnings", k=1 << 20)}
    assert not set(victims) & hits and len(hits) == 500 - len(victims)


def test_sharded_deletes_and_compact(ray_session, corpus, victim_ids, tmp_path):
    from stocksight_ray.index.segments import build_resumable
    from stocksight_ray.index.serve import ShardedQueryService

    out = str(tmp_path / "seg")
    build_resumable(
        corpus, out, text_col="text_clean",
        num_partitions=8, salt_range=256, shard_docs=256, batch_size=128,
    )
    delete_docs(out, victim_ids)

    glob = QueryEngine(out)
    svc = ShardedQueryService(out, warm=True)
    try:
        for q in QUERIES:
            assert svc.search(q, k=10) == glob.search(q, k=10)
            assert svc.search(q, k=10, mode="and") == glob.search_and(q, k=10)
        assert svc.search("stock xyzzyunseenterm", k=5, mode="and") == []
    finally:
        svc.shutdown()

    manifest = compact(out)
    filt = corpus.filter(
        lambda r: r["doc_id"] not in set(victim_ids)
    ).materialize()
    ref = str(tmp_path / "ref")
    ref_manifest = build_resumable(
        filt, ref, text_col="text_clean",
        num_partitions=8, salt_range=256, shard_docs=256, batch_size=128,
    )
    assert manifest["num_docs"] == ref_manifest["num_docs"]
    assert manifest["avgdl"] == pytest.approx(ref_manifest["avgdl"])
    got, exp = QueryEngine(out), QueryEngine(ref)
    for q in QUERIES:
        assert got.search(q, k=10) == exp.search(q, k=10)
