"""AND / phrase query modes vs naive oracles, plus hypothesis property
tests for the posting codec."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stocksight_ray.index import codec


# ---------------------------------------------------------------------------
# codec property tests
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=0, max_size=300))
@settings(max_examples=60, deadline=None)
def test_varbyte_roundtrip(vals):
    arr = np.array(sorted(vals), dtype=np.uint64)
    assert np.array_equal(codec.varbyte_decode(codec.varbyte_encode(arr)), arr)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**31),
            st.integers(min_value=1, max_value=1000),
            st.integers(min_value=1, max_value=500),
        ),
        min_size=1,
        max_size=400,
        unique_by=lambda t: t[0],
    )
)
@settings(max_examples=40, deadline=None)
def test_postings_roundtrip(rows):
    rows.sort()
    ids = np.array([r[0] for r in rows], dtype=np.int64)
    tfs = np.array([r[1] for r in rows], dtype=np.int64)
    dls = np.array([r[2] for r in rows], dtype=np.int64)
    meta_b, payload = codec.encode_postings(ids, tfs, dls)
    out_ids, out_tfs = codec.decode_postings(meta_b, payload)
    assert np.array_equal(out_ids, ids)
    assert np.array_equal(out_tfs, tfs)
    meta = codec.decode_meta(meta_b)
    assert int(meta["count"].sum()) == ids.size
    assert meta[0]["first"] == ids[0] and meta[-1]["last"] == ids[-1]


@given(
    st.lists(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**6),
                st.integers(min_value=1, max_value=50),
            ),
            min_size=1,
            max_size=50,
            unique_by=lambda t: t[0],
        ),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=30, deadline=None)
def test_concat_runs_equals_single_encode(runs_rows):
    """Concatenating independently encoded disjoint increasing runs must
    decode identically to encoding the concatenation — only when run ranges
    are disjoint and increasing AND block boundaries align, so rebase each
    run's ids into its own disjoint range first."""
    runs = []
    all_ids, all_tfs = [], []
    base = 0
    for rows in runs_rows:
        rows.sort()
        ids = np.array([r[0] for r in rows], dtype=np.int64) + base
        tfs = np.array([r[1] for r in rows], dtype=np.int64)
        dls = np.ones(ids.size, dtype=np.int64) * 7
        base = int(ids[-1]) + 1
        runs.append(codec.encode_postings(ids, tfs, dls))
        all_ids.append(ids)
        all_tfs.append(tfs)
    meta_b, payload = codec.concat_runs(runs)
    out_ids, out_tfs = codec.decode_postings(meta_b, payload)
    assert np.array_equal(out_ids, np.concatenate(all_ids))
    assert np.array_equal(out_tfs, np.concatenate(all_tfs))


# ---------------------------------------------------------------------------
# AND / phrase modes
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_index(ray_session, tmp_path_factory):
    import ray.data as rd

    from stocksight_ray.index.build import build_index

    texts = [
        "the stock market rises on strong earnings reports today",
        "market conditions weaken as investors fear recession",
        "strong earnings lift the stock price to record highs",
        "earnings reports disappoint while the market falls",
        "stock earnings market market stock earnings repeated words",
        "completely unrelated cooking recipe with pasta and sauce",
        "the market rises the market rises the market rises",
        "strong stock with rising earnings and growing market share",
    ]
    docs = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    out = str(tmp_path_factory.mktemp("modes_index"))
    import pyarrow.parquet as pq
    import os

    docs_path = os.path.join(out, "docs.parquet")
    pq.write_table(docs, docs_path)
    build_index(
        rd.from_arrow(docs), out, text_col="text",
        num_partitions=4, batch_size=4,
        extra_manifest={"docs_path": docs_path, "docs_text_col": "text"},
    )
    return out, texts


def test_search_and(ray_session, small_index):
    from stocksight_ray.functions.analyzer import english_analyzer
    from stocksight_ray.index.query import QueryEngine

    out, texts = small_index
    eng = QueryEngine(out)
    got = eng.search_and("stock earnings", k=10)
    # oracle: docs whose analyzed token set contains both terms
    q_terms = english_analyzer("stock earnings")
    exp_ids = [
        i for i, t in enumerate(texts)
        if all(term in english_analyzer(t) for term in q_terms)
    ]
    assert sorted(d for d, _ in got) == sorted(exp_ids)
    # AND scores equal the OR scores for the same docs
    or_scores = dict(eng.search(" ".join(q_terms), k=100))
    for d, s in got:
        assert s == pytest.approx(or_scores[d], rel=1e-12)
    # missing term empties the conjunction
    assert eng.search_and("stock zzznotfound", k=5) == []


def test_search_phrase(ray_session, small_index):
    from stocksight_ray.functions.analyzer import english_analyzer
    from stocksight_ray.index.query import QueryEngine

    out, texts = small_index
    eng = QueryEngine(out)
    got = eng.search_phrase("strong earnings", k=10)
    q = english_analyzer("strong earnings")
    exp = []
    for i, t in enumerate(texts):
        toks = english_analyzer(t)
        if any(toks[j : j + len(q)] == q for j in range(len(toks) - len(q) + 1)):
            exp.append(i)
    assert sorted(d for d, _ in got) == sorted(exp)
    assert exp  # fixture must actually contain the phrase
    # phrase is stricter than AND
    and_ids = {d for d, _ in eng.search_and("strong earnings", k=100)}
    assert {d for d, _ in got} <= and_ids
    # absent phrase with present terms
    assert eng.search_phrase("earnings strong", k=10) == [] or all(
        "earnings strong" in " ".join(english_analyzer(texts[d]))
        for d, _ in eng.search_phrase("earnings strong", k=10)
    )


def test_search_sorted_by_metadata(ray_session, small_index, tmp_path):
    """Saved-search parity: matches ordered by a metadata column."""
    import os

    import pyarrow.parquet as pq

    from stocksight_ray.index.query import QueryEngine

    out, texts = small_index
    # docs table with a date column: doc_id i -> day i
    from datetime import datetime, timedelta

    docs_path = os.path.join(str(tmp_path), "docs_meta.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "warc_ts": pa.array(
                    [datetime(2021, 1, 1) + timedelta(days=i) for i in range(len(texts))],
                    pa.timestamp("us"),
                ),
            }
        ),
        docs_path,
    )
    eng = QueryEngine(out)
    hits = eng.search_sorted("market", k=3, docs_path=docs_path)
    match_ids = {d for d, _ in eng.search("market", k=100)}
    exp = sorted(match_ids, reverse=True)[:3]  # newest = highest doc_id here
    assert [d for d, _ in hits] == exp
    asc = eng.search_sorted("market", k=3, docs_path=docs_path, descending=False)
    assert [d for d, _ in asc] == sorted(match_ids)[:3]


def test_search_filtered(ray_session, small_index, tmp_path):
    """ES bool filter-context parity: metadata predicates admit docs
    without touching scores (the Kibana `_type: tweet` phrase-filter
    pattern)."""
    import os

    import pyarrow.parquet as pq

    from stocksight_ray.index.query import QueryEngine

    out, texts = small_index
    docs_path = os.path.join(str(tmp_path), "docs_flt.parquet")
    kinds = ["tweet" if i % 2 == 0 else "news" for i in range(len(texts))]
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "kind": pa.array(kinds, pa.string()),
            "views": pa.array([10 * i for i in range(len(texts))], pa.int64()),
        }),
        docs_path,
    )
    eng = QueryEngine(out)
    base = eng.search("market", k=100)
    scores = dict(base)

    got = eng.search_filtered(
        "market", k=10, filters=[("kind", "==", "tweet")], docs_path=docs_path
    )
    exp = [(d, s) for d, s in base if kinds[d] == "tweet"]
    assert got == exp  # scores unchanged, order preserved, filter exact

    got = eng.search_filtered(
        "market", k=10,
        filters=[("kind", "==", "tweet"), ("views", ">=", 20)],
        docs_path=docs_path,
    )
    assert got == [(d, s) for d, s in base if kinds[d] == "tweet" and 10 * d >= 20]

    got = eng.search_filtered(
        "market", k=10, filters=[("kind", "in", ["news"])], docs_path=docs_path
    )
    assert got == [(d, s) for d, s in base if kinds[d] == "news"]
    assert all(scores[d] == s for d, s in got)

    assert eng.search_filtered(
        "market", k=10, filters=[("views", "<", 0)], docs_path=docs_path
    ) == []
    with pytest.raises(ValueError):
        eng.search_filtered("market", filters=[("kind", "~", "x")],
                            docs_path=docs_path)


def test_highlight(ray_session, small_index):
    from stocksight_ray.index.query import QueryEngine

    out, _ = small_index
    eng = QueryEngine(out)
    got = eng.highlight("the market rises on earnings", "market earning")
    # stemming: query "earning" highlights "earnings"
    assert got == "the <em>market</em> rises on <em>earnings</em>"
    assert eng.highlight("", "x") == ""
    assert eng.highlight("plain words here", "zzz") == "plain words here"


def test_phrase_with_stopword_stem(ray_session, tmp_path):
    """'willing' stems to 'will' which is a stopword on re-analysis — the
    phrase path must not round-trip terms through the analyzer."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from stocksight_ray.functions.analyzer import english_analyzer
    from stocksight_ray.index.build import build_index
    from stocksight_ray.index.query import QueryEngine

    assert english_analyzer("willing") == ["will"]
    assert english_analyzer("will") == []  # the trap
    texts = [
        "a willing buyer met a willing seller",
        "completely unrelated text about gardens",
        "the buyer was not willing at all",
    ]
    docs = pa.table({
        "doc_id": pa.array(range(3), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    out = str(tmp_path / "stopstem")
    docs_path = os.path.join(out, "docs.parquet")
    os.makedirs(out, exist_ok=True)
    pq.write_table(docs, docs_path)
    build_index(rd.from_arrow(docs), out, text_col="text", num_partitions=2,
                batch_size=4, extra_manifest={"docs_path": docs_path})
    eng = QueryEngine(out)
    hits = eng.search_phrase("willing buyer", k=10)
    assert [d for d, _ in hits] == [0]  # doc 0 has the phrase; doc 2 has not


def test_build_into_same_dir_no_doubling(ray_session, tmp_path):
    import ray.data as rd

    from stocksight_ray.index.build import build_index

    docs = pa.table({
        "doc_id": pa.array(range(50), pa.int64()),
        "text": pa.array([f"market doc {i}" for i in range(50)], pa.string()),
    })
    out = str(tmp_path / "rebuild")
    m1 = build_index(rd.from_arrow(docs), out, text_col="text", num_partitions=2, batch_size=16)
    m2 = build_index(rd.from_arrow(docs), out, text_col="text", num_partitions=2, batch_size=16)
    assert m1["num_docs"] == m2["num_docs"] == 50
    assert m2["avgdl"] == m1["avgdl"]
