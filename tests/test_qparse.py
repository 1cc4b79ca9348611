"""Query-string parser (index/qparse.py): AST shape, and execution
equivalence against the dedicated search/search_and/search_phrase/
search_filtered primitives on a small index."""

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from stocksight_ray.index.qparse import (
    And, Filter, Not, Or, Phrase, Term, parse,
)


# ---------------------------------------------------------------------------
# parser unit tests (pure — no Ray, no index)
# ---------------------------------------------------------------------------

def test_parse_bare_terms_default_or():
    assert parse("a b c") == Or((Term("a"), Term("b"), Term("c")))
    assert parse("a OR b") == Or((Term("a"), Term("b")))


def test_parse_and_binds_tighter_than_or():
    assert parse("a AND b OR c") == Or((And((Term("a"), Term("b"))), Term("c")))
    assert parse("a OR b AND c") == Or((Term("a"), And((Term("b"), Term("c")))))


def test_parse_parens_override():
    assert parse("a AND (b OR c)") == And((Term("a"), Or((Term("b"), Term("c")))))


def test_parse_not_and_minus():
    assert parse("a AND NOT b") == And((Term("a"), Not(Term("b"))))
    assert parse("a AND -b") == And((Term("a"), Not(Term("b"))))
    # structural validity is checked at parse time (data-independent):
    # a top-level / double negation has no positive clause to stand on
    with pytest.raises(ValueError):
        parse("NOT NOT a")
    with pytest.raises(ValueError):
        parse("a AND NOT (NOT b NOT c)")


def test_parse_phrase_and_field():
    assert parse('"stock market"') == Phrase("stock market")
    assert parse("lang:en") == Filter("lang", "==", "en")
    assert parse('kind:"news item"') == Filter("kind", "==", "news item")
    # values stay raw text: the docs column's type decides (docstore)
    assert parse("n_chars:>=500") == Filter("n_chars", ">=", "500")
    assert parse("score:<0.5") == Filter("score", "<", "0.5")
    assert parse("code:007") == Filter("code", "==", "007")
    assert parse('sentiment:negative AND "stock market"') == And(
        (Filter("sentiment", "==", "negative"), Phrase("stock market"))
    )


def test_parse_errors():
    for bad in ("", "AND", "a AND", "(a", "a)", "lang:"):
        with pytest.raises(ValueError):
            parse(bad)


@pytest.mark.parametrize("query", [
    "te?m", "market~2", "market^2", '"stock market"~2',
    "[a TO b]", "{a TO b}", "a && b", "a || b",
])
def test_parse_unsupported_lucene_syntax_raises(query):
    # each of these used to parse into terms that analyze to something else
    # (``market~2`` -> market OR 2, ``a && b`` -> a OR b) and match silently
    with pytest.raises(ValueError):
        parse(query)


# ---------------------------------------------------------------------------
# execution equivalence on a small index
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def qs_index(ray_session, tmp_path_factory):
    import pyarrow.parquet as pq
    import ray.data as rd

    from stocksight_ray.index.build import build_index

    rows = [
        ("the stock market rises on strong earnings reports today", "tweet", 10),
        ("market conditions weaken as investors fear recession", "news", 20),
        ("strong earnings lift the stock price to record highs", "tweet", 30),
        ("earnings reports disappoint while the market falls", "news", 40),
        ("stock earnings market market stock earnings repeated words", "tweet", 50),
        ("completely unrelated cooking recipe with pasta and sauce", "news", 60),
        ("the market rises the market rises the market rises", "tweet", 70),
        ("strong stock with rising earnings and growing market share", "news", 80),
    ]
    docs = pa.table(
        {
            "doc_id": pa.array(range(len(rows)), pa.int64()),
            "text": pa.array([r[0] for r in rows], pa.string()),
            "kind": pa.array([r[1] for r in rows], pa.string()),
            "n": pa.array([r[2] for r in rows], pa.int64()),
        }
    )
    out = str(tmp_path_factory.mktemp("qs_index"))
    docs_path = os.path.join(out, "docs.parquet")
    pq.write_table(docs, docs_path)
    build_index(
        rd.from_arrow(docs), out, text_col="text",
        num_partitions=4, batch_size=4,
        extra_manifest={"docs_path": docs_path, "docs_text_col": "text"},
    )
    return out, rows


def _engine(out):
    from stocksight_ray.index.query import QueryEngine

    return QueryEngine(out)


def test_qs_or_equals_search(ray_session, qs_index):
    out, _ = qs_index
    eng = _engine(out)
    got = eng.search_query("stock earnings market", k=10)
    exp = eng.search("stock earnings market", k=10)
    assert got == exp  # float-identical, same tie order


def test_qs_and_equals_search_and(ray_session, qs_index):
    out, _ = qs_index
    eng = _engine(out)
    got = eng.search_query("stock AND earnings", k=10)
    exp = eng.search_and("stock earnings", k=10)
    assert got == exp
    assert eng.search_query("stock AND zzznotfound", k=5) == []


def test_qs_phrase_equals_search_phrase(ray_session, qs_index):
    out, _ = qs_index
    eng = _engine(out)
    got = eng.search_query('"strong earnings"', k=10)
    exp = eng.search_phrase("strong earnings", k=10)
    assert got == exp
    assert got  # fixture contains the phrase


def test_qs_filter_equals_search_filtered(ray_session, qs_index):
    out, _ = qs_index
    eng = _engine(out)
    got = eng.search_query("kind:tweet AND market", k=10)
    exp = eng.search_filtered("market", k=10, filters=[("kind", "==", "tweet")])
    assert got == exp
    # range filter
    got = eng.search_query("n:>=50 AND market", k=10)
    exp = eng.search_filtered("market", k=10, filters=[("n", ">=", 50)])
    assert got == exp


def test_qs_not_excludes(ray_session, qs_index):
    out, rows = qs_index
    eng = _engine(out)
    got = eng.search_query("market AND NOT stock", k=10)
    market_ids = {d for d, _ in eng.search("market", k=100)}
    stock_ids = {d for d, _ in eng.search("stock", k=100)}
    assert {d for d, _ in got} == market_ids - stock_ids
    # scores are the market-clause scores, untouched by the exclusion
    m_scores = dict(eng.search("market", k=100))
    for d, s in got:
        assert s == pytest.approx(m_scores[d], rel=1e-12)


def test_qs_pure_filter_scores_zero(ray_session, qs_index):
    out, rows = qs_index
    eng = _engine(out)
    got = eng.search_query("kind:news", k=10)
    exp_ids = [i for i, r in enumerate(rows) if r[1] == "news"]
    assert got == [(i, 0.0) for i in exp_ids]


def test_qs_grouping_or_inside_and(ray_session, qs_index):
    out, _ = qs_index
    eng = _engine(out)
    got = eng.search_query("(recipe OR recession) AND kind:news", k=10)
    ids = {d for d, _ in got}
    exp = {d for d, _ in eng.search_filtered(
        "recipe recession", k=10, filters=[("kind", "==", "news")]
    )}
    assert ids == exp


def test_qs_pure_negative_raises(ray_session, qs_index):
    out, _ = qs_index
    eng = _engine(out)
    with pytest.raises(ValueError):
        eng.search_query("NOT stock", k=5)
    with pytest.raises(ValueError):
        eng.search_query("NOT a NOT b", k=5)


def test_qs_default_or_negation(ray_session, qs_index):
    """'market -recipe' (the standard Kibana negation) = should:[market],
    must_not:[recipe] — same result set as 'market AND NOT recipe' when
    there's a single positive."""
    out, _ = qs_index
    eng = _engine(out)
    got = eng.search_query("market -recipe", k=20)
    exp = eng.search_query("market AND NOT recipe", k=20)
    assert got == exp
    assert got
    assert eng.search_query("market NOT recipe", k=20) == exp


def test_qs_stopword_clause_drops(ray_session, qs_index):
    """A clause that analyzes to zero tokens (stopword) is removed from
    the boolean query, not evaluated as the empty set — search_and parity
    (its analyzer drops the stopword identically)."""
    out, _ = qs_index
    eng = _engine(out)
    assert eng.search_query("the AND market", k=10) == \
        eng.search_and("the market", k=10)
    assert eng.search_query("the market", k=10) == \
        eng.search(" market", k=10)
    # all clauses analyzed away → no hits, no error
    assert eng.search_query("the AND a", k=10) == []
    # analyzed-away negative excludes nothing
    assert eng.search_query("market AND NOT the", k=10) == \
        eng.search(" market", k=10)


def test_qs_field_value_wildcard_rejected():
    with pytest.raises(ValueError):
        parse("kind:a*")


def test_parse_prefix():
    from stocksight_ray.index.qparse import Prefix

    assert parse("mark*") == Prefix("mark")
    assert parse("MARK* AND stock") == And((Prefix("mark"), Term("stock")))
    for bad in ("*", "m*k", "**", "ma*k*"):
        with pytest.raises(ValueError):
            parse(bad)


def test_prefix_range_supplementary_plane():
    """Terms whose next code point after the prefix lies above U+FFFF are
    expanded too (a ``prefix + "\uffff"`` upper bound sorts below them)."""
    from stocksight_ray.index.qparse import prefix_range

    terms = sorted(["a", "ab", "a\uffff", "a\U0001F600", "a\U0001F600x",
                    "a\U0010FFFF", "b", "\U0001F600"])
    exp = [t for t in terms if t.startswith("a")]
    assert prefix_range(terms, "a") == exp
    assert prefix_range(terms, "a", limit=2) == exp[:2]
    assert prefix_range(terms, "a\U0001F600") == ["a\U0001F600", "a\U0001F600x"]
    assert prefix_range(terms, "\U0001F600") == ["\U0001F600"]
    assert prefix_range(terms, "c") == []


def test_qs_prefix_equals_manual_expansion(ray_session, qs_index):
    out, _ = qs_index
    eng = _engine(out)
    exp_terms = eng.expand_prefix("re")
    assert exp_terms  # recession/recipe/record/report... stems
    assert all(t.startswith("re") for t in exp_terms)
    got = eng.search_query("re*", k=20)
    exp = eng.search(" ".join(exp_terms), k=20)
    assert got == exp
    # no-match prefix is empty, not an error
    assert eng.search_query("zzz*", k=5) == []
    # limit caps deterministically at the lexicographic head
    assert eng.expand_prefix("re", limit=1) == exp_terms[:1]


def test_matching_docs_scoped_aggs(ray_session, qs_index):
    """Kibana dashboard query context: panel aggs recompute over the
    search-bar match set."""
    import pandas as pd

    from stocksight_ray.pipelines.aggs import metric_aggs, terms_topk

    out, rows = qs_index
    eng = _engine(out)
    q = "market AND NOT recipe"
    match_ids = sorted(
        d for d, _ in eng.search_query(q, k=1 << 30)
    )
    ds = eng.matching_docs(q, columns=["doc_id", "kind", "n"])
    got_rows = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert got_rows["doc_id"].tolist() == match_ids
    # the caller's projection is honored exactly (doc_id used internally
    # for the match filter is dropped when not requested)
    assert eng.matching_docs(q, columns=["kind"]).schema().names == ["kind"]

    # terms agg over the query scope == pandas oracle on the match set
    got = terms_topk(eng.matching_docs(q, columns=["kind"]), "kind", k=5)
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    oracle = (
        pd.DataFrame({"kind": [rows[i][1] for i in match_ids]})
        .value_counts("kind").reset_index(name="cnt")
        .sort_values(["cnt", "kind"], ascending=[False, True])
        .reset_index(drop=True)
    )
    got = got.sort_values(["cnt", "kind"], ascending=[False, True]).reset_index(drop=True)
    assert got["kind"].tolist() == oracle["kind"].tolist()
    assert got["cnt"].tolist() == oracle["cnt"].tolist()

    # metric agg over the scope
    m = metric_aggs(eng.matching_docs(q, columns=["n"]), "n")
    exp_vals = [rows[i][2] for i in match_ids]
    assert int(m["cnt"].iloc[0]) == len(exp_vals)
    assert float(m["avg_n"].iloc[0]) == pytest.approx(
        sum(exp_vals) / len(exp_vals)
    )


def test_qs_sharded_equals_global(ray_session, tmp_path):
    """ShardedQueryService.search_query must equal QueryEngine.search_query
    exactly — per-shard evaluation with global stats restricted to disjoint
    id ranges, merged."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from stocksight_ray.index.query import QueryEngine
    from stocksight_ray.index.segments import build_resumable
    from stocksight_ray.index.serve import ShardedQueryService

    rng = np.random.RandomState(11)
    words = ["stock", "market", "earnings", "strong", "weak", "recipe",
             "pasta", "rises", "falls", "investor", "report", "record"]
    n = 500
    texts = [" ".join(rng.choice(words, size=rng.randint(5, 14)))
             for _ in range(n)]
    docs = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "kind": pa.array([("tweet" if i % 3 else "news") for i in range(n)],
                         pa.string()),
        "n": pa.array([i * 10 for i in range(n)], pa.int64()),
    })
    out = str(tmp_path / "shq")
    docs_path = str(tmp_path / "docs.parquet")
    pq.write_table(docs, docs_path)
    build_resumable(
        rd.from_arrow(docs), out, text_col="text",
        num_partitions=4, salt_range=128, shard_docs=128, batch_size=64,
        extra_manifest={"docs_path": docs_path, "docs_text_col": "text"},
    )

    eng = QueryEngine(out)
    svc = ShardedQueryService(out)
    try:
        for qs in [
            "stock market earnings",
            "stock AND market AND strong",
            '"strong earnings"',
            "kind:tweet AND market",
            "market AND NOT recipe",
            "(recipe OR pasta) AND kind:news",
            "n:>=2500 AND investor",
            "kind:news",
            "re* AND stock",
            "inve*",
            "market -recipe",
            "the AND market",
        ]:
            assert svc.search_query(qs, k=10) == eng.search_query(qs, k=10), qs
    finally:
        svc.shutdown()


# ---------------------------------------------------------------------------
# DocStore (index/docstore.py): phrase / filter clauses served from the
# engine's in-memory docs columns == an independent scan of the docs table
# ---------------------------------------------------------------------------

_PHRASES = ["strong earnings", "market rises", "the market rises",
            "rises the market", "stock market", "earnings reports",
            "market market", "recipe pasta", "earnings strong",
            "zzz market"]
_FILTERS = [("kind:tweet", "kind", "==", "tweet"),
            ("kind:news", "kind", "==", "news"),
            ("n:>=50", "n", ">=", 50),
            ("n:<30", "n", "<", 30)]


def _scan_phrase(docs: pa.Table, live, phrase: str):
    """Docs whose analyzed text holds the analyzed phrase consecutively —
    every row analyzed with the uncached english analyzer."""
    from stocksight_ray.functions.analyzer import english_analyzer

    q = english_analyzer(phrase)
    n = len(q)
    out = []
    for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        toks = english_analyzer(t)
        if d in live and any(toks[i: i + n] == q
                             for i in range(len(toks) - n + 1)):
            out.append(d)
    return sorted(out)


def _scan_filter(docs: pa.Table, live, col, op, value):
    import pyarrow.compute as pc

    fn = {"==": pc.equal, ">=": pc.greater_equal, "<": pc.less}[op]
    c = docs[col]
    mask = fn(c, pa.scalar(value, c.type))
    return sorted(d for d in docs["doc_id"].filter(mask).to_pylist() if d in live)


def _assert_engine_equals_scan(eng, docs, live):
    """Phrase and filter hits at k=all equal the scans; phrase scores are
    the engine's own AND-match scores."""
    for ph in _PHRASES:
        got = eng.search_query(f'"{ph}"', k=1 << 20)
        assert sorted(d for d, _ in got) == _scan_phrase(docs, live, ph), ph
        and_scores = dict(eng.search_query(  # one clause per distinct word
            " AND ".join(dict.fromkeys(ph.split())), k=1 << 20))
        assert all(s == and_scores[d] for d, s in got), ph
        assert got == sorted(got, key=lambda ds: (-ds[1], ds[0]))
    for qs, col, op, v in _FILTERS:
        got = eng.search_query(qs, k=1 << 20)
        assert got == [(d, 0.0) for d in _scan_filter(docs, live, col, op, v)], qs


def _set_docs(out, docs_path):
    import json

    mpath = os.path.join(out, "manifest.json")
    with open(mpath) as f:
        m = json.load(f)
    m.update({"docs_path": docs_path, "docs_text_col": "text"})
    with open(mpath, "w") as f:
        json.dump(m, f)


def _meta_docs(rows):
    """qs_index rows plus a timestamp and a lang column."""
    from datetime import datetime, timedelta

    return pa.table({
        "doc_id": pa.array(range(len(rows)), pa.int64()),
        "text": pa.array([r[0] for r in rows], pa.string()),
        "kind": pa.array([r[1] for r in rows], pa.string()),
        "n": pa.array([r[2] for r in rows], pa.int64()),
        "lang": pa.array(["en", "de", "de", "en", "de", "ja", "de", "en"]),
        "warc_ts": pa.array(
            [datetime(2021, 1, 1) + timedelta(days=4 * i)
             for i in range(len(rows))], pa.timestamp("us")),
    })


def test_filter_value_cast_to_column_type(ray_session, qs_index, tmp_path):
    """``warc_ts:>=<date>`` compares as a timestamp (checked against a
    pyarrow.compute scan); a value the column type cannot hold raises
    ValueError naming the field instead of matching nothing."""
    from datetime import datetime

    src, rows = qs_index
    out = str(shutil.copytree(src, tmp_path / "idx"))
    docs = _meta_docs(rows)
    docs_path = str(tmp_path / "docs_meta.parquet")
    pq.write_table(docs, docs_path)
    _set_docs(out, docs_path)
    eng = _engine(out)
    live = set(range(len(rows)))

    exp = _scan_filter(docs, live, "warc_ts", ">=", datetime(2021, 1, 15))
    assert 0 < len(exp) < len(rows)
    assert eng.search_query("warc_ts:>=2021-01-15", k=100) == \
        [(d, 0.0) for d in exp]
    got = eng.search_query("market AND warc_ts:>=2021-01-15", k=100)
    market = {d for d, _ in eng.search("market", k=100)}
    assert sorted(d for d, _ in got) == sorted(market & set(exp))
    # an int value against a float-free int column, a float against it
    assert eng.search_query("n:>=45", k=100) == \
        [(d, 0.0) for d in _scan_filter(docs, live, "n", ">=", 45)]
    assert eng.search_query("n:<25.5", k=100) == [(0, 0.0), (1, 0.0)]

    for bad, field in [("warc_ts:>=2021-13-45", "warc_ts"),
                       ("market AND warc_ts:>=someday", "warc_ts"),
                       ("n:>=abc", "n")]:
        with pytest.raises(ValueError, match=field):
            eng.search_query(bad, k=10)
    with pytest.raises(ValueError, match="nosuchcol"):
        eng.search_query("nosuchcol:x", k=10)


def test_filter_value_keeps_text_for_string_column(ray_session, qs_index,
                                                   tmp_path):
    """A numeric-looking value against a string column compares as the
    text typed: ``code:007`` matches ``"007"`` and not ``"7"``."""
    src, rows = qs_index
    out = str(shutil.copytree(src, tmp_path / "idx"))
    codes = ["007", "7", "07", "007", "7.0", "x", "7", "007"]
    docs = _meta_docs(rows).append_column("code", pa.array(codes))
    docs_path = str(tmp_path / "docs_code.parquet")
    pq.write_table(docs, docs_path)
    _set_docs(out, docs_path)
    eng = _engine(out)
    for value in ("007", "7", "7.0"):
        exp = [(i, 0.0) for i, c in enumerate(codes) if c == value]
        assert eng.search_query(f"code:{value}", k=100) == exp, value
    assert eng.search_query("code:>=7", k=100) == \
        [(i, 0.0) for i, c in enumerate(codes) if c >= "7"]


def test_docstore_single_pass_equals_scan_through_compact(
        ray_session, qs_index, tmp_path):
    """QueryEngine phrase/filter hits == independent scans before and
    after delete + compact; after compact a filter-only query never
    returns a purged doc; per-call docs paths (search_sorted /
    search_filtered) are cached per path."""
    from stocksight_ray.index.deletes import compact, delete_docs

    src, rows = qs_index
    out = str(shutil.copytree(src, tmp_path / "idx"))
    docs = _meta_docs(rows)
    docs_path = str(tmp_path / "docs_meta.parquet")
    pq.write_table(docs, docs_path)
    _set_docs(out, docs_path)
    alt = docs.set_column(docs.schema.get_field_index("lang"), "lang",
                          pa.array(["de"] * len(rows)))
    alt_path = str(tmp_path / "docs_alt.parquet")
    pq.write_table(alt, alt_path)

    live = set(range(len(rows)))
    victims = [1, 6]  # 'de' docs holding phrase and filter matches
    for stage in ("built", "deleted", "compacted"):
        if stage == "deleted":
            delete_docs(out, victims)
            live -= set(victims)
        elif stage == "compacted":
            compact(out)
        eng = _engine(out)
        eng.warm(deep=True)
        _assert_engine_equals_scan(eng, docs, live)
        de = _scan_filter(docs, live, "lang", "==", "de")
        assert eng.search_query("lang:de", k=100) == [(d, 0.0) for d in de]

        base = eng.search("market", k=100)
        for path, tbl in ((docs_path, docs), (alt_path, alt)):
            langs = dict(zip(tbl["doc_id"].to_pylist(),
                             tbl["lang"].to_pylist()))
            got = eng.search_filtered("market", k=100, docs_path=path,
                                      filters=[("lang", "==", "de")])
            assert got == [(d, s) for d, s in base if langs[d] == "de"]
        ts = dict(zip(docs["doc_id"].to_pylist(), docs["warc_ts"].to_pylist()))
        got = eng.search_sorted("market", k=100, docs_path=docs_path)
        assert got == sorted(((d, ts[d]) for d, _ in base),
                             key=lambda r: r[1], reverse=True)


def test_docstore_sharded_equals_scan_through_compact(
        ray_session, qs_index, tmp_path):
    """Shard engines and ShardedQueryService phrase/filter hits ==
    independent scans == QueryEngine, before and after delete + compact;
    a segmented compact keeps docs_path / docs_text_col."""
    import json

    import ray.data as rd

    from stocksight_ray.index.deletes import compact, delete_docs
    from stocksight_ray.index.segments import build_resumable
    from stocksight_ray.index.query import QueryEngine
    from stocksight_ray.index.serve import ShardedQueryService

    _, rows = qs_index
    docs = _meta_docs(rows)
    docs_path = str(tmp_path / "docs.parquet")
    pq.write_table(docs, docs_path)
    out = str(tmp_path / "seg")
    build_resumable(rd.from_arrow(docs.select(["doc_id", "text"])), out,
                    text_col="text", num_partitions=4, salt_range=4,
                    shard_docs=4, batch_size=4,
                    extra_manifest={"docs_path": docs_path,
                                    "docs_text_col": "text"})

    live = set(range(len(rows)))
    for stage in ("built", "compacted"):
        if stage == "compacted":
            delete_docs(out, [0, 6])
            live -= {0, 6}
            compact(out)
            with open(os.path.join(out, "manifest.json")) as f:
                m = json.load(f)
            assert m["docs_path"] == docs_path and m["docs_text_col"] == "text"
        eng = _engine(out)
        _assert_engine_equals_scan(eng, docs, live)
        shards = [s["shard"] for s in eng.manifest["segments"]]
        assert len(shards) == 2
        segs = [QueryEngine(out, shard=s) for s in shards]
        for seg in segs:
            seg.warm()
        svc = ShardedQueryService(out)
        try:
            for qs in [f'"{p}"' for p in _PHRASES] + [f[0] for f in _FILTERS]:
                exp = eng.search_query(qs, k=1 << 20)
                merged = sorted((h for seg in segs
                                 for h in seg.search_query(qs, k=1 << 20)),
                                key=lambda ds: (-ds[1], ds[0]))
                assert merged == exp, qs
                assert svc.search_query(qs, k=1 << 20) == exp, qs
        finally:
            svc.shutdown()
