"""Property test: qparse evaluation MEMBERSHIP equals a naive per-doc
evaluator on random boolean query trees (precedence, negation, neutral
stopword clauses, wildcard expansion, filter context).  Scores are
covered by the exact-equality tests in test_qparse.py; membership is
where boolean-logic bugs hide."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stocksight_ray.index.qparse import (
    And, Filter, Not, Or, Phrase, Prefix, Term, _NEUTRAL, execute,
)

WORDS = ["stock", "market", "the", "a", "recipe", "strong", "zzzabsent"]
PREFIXES = ["sto", "re", "zz", "q"]
KINDS = ["tweet", "news"]


def _prop_docs():
    rng = np.random.RandomState(7)
    n = 60
    texts = [
        " ".join(rng.choice(
            ["stock", "market", "recipe", "strong", "earnings", "rises"],
            size=rng.randint(3, 9),
        ))
        for _ in range(n)
    ]
    return pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "kind": pa.array([KINDS[i % 2] for i in range(n)], pa.string()),
        "n": pa.array([i * 5 for i in range(n)], pa.int64()),
    })


@pytest.fixture(scope="module")
def prop_index(ray_session, tmp_path_factory):
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from stocksight_ray.index.build import build_index

    docs = _prop_docs()
    out = str(tmp_path_factory.mktemp("prop_index"))
    docs_path = os.path.join(out, "docs.parquet")
    pq.write_table(docs, docs_path)
    build_index(
        rd.from_arrow(docs), out, text_col="text",
        num_partitions=4, batch_size=16,
        extra_manifest={"docs_path": docs_path, "docs_text_col": "text"},
    )
    from stocksight_ray.index.query import QueryEngine

    return QueryEngine(out), docs


SEG_DELETES = [0, 5, 17, 18, 33, 59]  # spread over every shard


@pytest.fixture(scope="module")
def prop_seg_index(ray_session, tmp_path_factory):
    """The prop_index corpus as a segmented index of 4 shards, fresh and
    after ``delete_docs``: [(global engine, shard engines)] per state."""
    import os
    import shutil

    import pyarrow.parquet as pq
    import ray.data as rd

    from stocksight_ray.index.deletes import delete_docs
    from stocksight_ray.index.query import QueryEngine
    from stocksight_ray.index.segments import build_resumable

    docs = _prop_docs()
    root = str(tmp_path_factory.mktemp("prop_seg_index"))
    docs_path = os.path.join(root, "docs.parquet")
    pq.write_table(docs, docs_path)
    out = os.path.join(root, "built")
    m = build_resumable(rd.from_arrow(docs.select(["doc_id", "text"])), out,
                        text_col="text", num_partitions=4, salt_range=16,
                        shard_docs=16, batch_size=16,
                        extra_manifest={"docs_path": docs_path,
                                        "docs_text_col": "text"})
    deleted = shutil.copytree(out, os.path.join(root, "deleted"))
    delete_docs(deleted, SEG_DELETES)

    shards = [s["shard"] for s in m["segments"]]
    assert len(shards) >= 3
    return [(QueryEngine(d), [QueryEngine(d, shard=s) for s in shards])
            for d in (out, deleted)]


# ---------------------------------------------------------------------------
# naive reference evaluator (per-doc, pure python)
# ---------------------------------------------------------------------------

def naive_eval(node, docs_tokens, docs_meta):
    """→ set of matching doc_ids, or _NEUTRAL if the clause analyzed away.
    Raises ValueError on pure-negative bool nodes, like the real one."""
    from stocksight_ray.functions.analyzer import english_analyzer

    if isinstance(node, Term):
        terms = english_analyzer(node.text)
        if not terms:
            return _NEUTRAL
        return {
            d for d, toks in docs_tokens.items()
            if any(t in toks for t in terms)
        }
    if isinstance(node, Prefix):
        return {
            d for d, toks in docs_tokens.items()
            if any(t.startswith(node.text) for t in toks)
        }
    if isinstance(node, Phrase):
        terms = english_analyzer(node.text)
        if not terms:
            return _NEUTRAL
        n = len(terms)
        return {
            d for d, toks in docs_tokens.items()
            if any(toks[i: i + n] == terms for i in range(len(toks) - n + 1))
        }
    if isinstance(node, Filter):
        def ok(v):
            return (v == node.value if node.op == "==" else
                    v < node.value if node.op == "<" else
                    v <= node.value if node.op == "<=" else
                    v > node.value if node.op == ">" else
                    v >= node.value)
        return {d for d, m in docs_meta.items() if ok(m[node.col])}
    if isinstance(node, (And, Or)):
        pos = [c for c in node.children if not isinstance(c, Not)]
        neg = [c.child for c in node.children if isinstance(c, Not)]
        if not pos:
            raise ValueError("pure negative")
        evald = [
            e for c in pos
            if (e := naive_eval(c, docs_tokens, docs_meta)) is not _NEUTRAL
        ]
        if not evald:
            return set()
        if isinstance(node, Or):
            out = set().union(*evald)
        else:
            out = set.intersection(*evald)
        for nn in neg:
            e = naive_eval(nn, docs_tokens, docs_meta)
            if e is not _NEUTRAL:
                out -= e
        return out
    raise TypeError(node)


# ---------------------------------------------------------------------------
# random AST strategy
# ---------------------------------------------------------------------------

leaf = st.one_of(
    st.sampled_from(WORDS).map(Term),
    st.sampled_from(PREFIXES).map(Prefix),
    st.sampled_from(KINDS).map(lambda k: Filter("kind", "==", k)),
    st.sampled_from([("<", 100), (">=", 150), (">", 250)]).map(
        lambda ov: Filter("n", ov[0], ov[1])
    ),
    st.sampled_from(["stock market", "the market", "strong earnings"]).map(
        Phrase
    ),
)


def _bool(children):
    kids = tuple(
        Not(c[1]) if c[0] else c[1] for c in children
    )
    return kids


node_strategy = st.recursive(
    leaf,
    lambda inner: st.tuples(
        st.sampled_from([And, Or]),
        st.lists(st.tuples(st.booleans(), inner), min_size=2, max_size=3),
    ).map(lambda t: t[0](_bool(t[1]))),
    max_leaves=6,
)


@given(node=node_strategy)
@settings(max_examples=60, deadline=None)
def test_qparse_membership_matches_naive(prop_index, node):
    from stocksight_ray.functions.analyzer import english_analyzer

    eng, docs = prop_index
    docs_tokens = {
        int(d): english_analyzer(t)
        for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())
    }
    docs_meta = {
        int(d): {"kind": k, "n": int(n)}
        for d, k, n in zip(
            docs["doc_id"].to_pylist(), docs["kind"].to_pylist(),
            docs["n"].to_pylist(),
        )
    }
    # independent structural-validity oracle: any And/Or whose children
    # are all Nots is invalid, wherever it sits (validity is data-independent)
    def invalid(n):
        if isinstance(n, (And, Or)):
            if all(isinstance(c, Not) for c in n.children):
                return True
            return any(
                invalid(c.child if isinstance(c, Not) else c)
                for c in n.children
            )
        return False

    if invalid(node):
        with pytest.raises(ValueError):
            execute(eng, node, k=1 << 30)
        return
    exp = naive_eval(node, docs_tokens, docs_meta)
    got = execute(eng, node, k=1 << 30)
    exp_set = set() if exp is _NEUTRAL else exp
    assert {d for d, _ in got} == exp_set, node


# ---------------------------------------------------------------------------
# sharded = global: per-shard engines merged equal the whole-index engine
# ---------------------------------------------------------------------------

def render(node) -> str:
    """A query string that parses back to ``node``'s boolean structure."""
    if isinstance(node, Term):
        return node.text
    if isinstance(node, Prefix):
        return node.text + "*"
    if isinstance(node, Phrase):
        return f'"{node.text}"'
    if isinstance(node, Filter):
        return f"{node.col}:{'' if node.op == '==' else node.op}{node.value}"
    if isinstance(node, Not):
        return f"NOT {render(node.child)}"
    sep = " AND " if isinstance(node, And) else " OR "
    return "(" + sep.join(render(c) for c in node.children) + ")"


def _merged(shards, fn, k):
    hits = sorted((h for e in shards for h in fn(e)),
                  key=lambda ds: (-ds[1], ds[0]))
    return hits[:k]


@given(words=st.lists(st.sampled_from(WORDS + ["earnings", "rises"]),
                      min_size=1, max_size=3),
       node=node_strategy, k=st.integers(min_value=1, max_value=12))
@settings(max_examples=30, deadline=None)
def test_sharded_equals_global(prop_seg_index, words, node, k):
    text, qs = " ".join(words), render(node)
    for glob, shards in prop_seg_index:
        for method in ("wand", "exhaustive"):
            assert _merged(shards, lambda e: e.search(text, k, method), k) \
                == glob.search(text, k, method), (text, method)
        assert _merged(shards, lambda e: e.search_and(text, k), k) == \
            glob.search_and(text, k), text
        try:
            exp = glob.search_query(qs, k)
        except ValueError:
            for e in shards:
                with pytest.raises(ValueError):
                    e.search_query(qs, k)
            continue
        assert _merged(shards, lambda e: e.search_query(qs, k), k) == exp, qs
