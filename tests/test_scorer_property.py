"""Property test: the OR scorer (``QueryEngine.search``) equals the naive
oracle (tests/oracle.py) on random small corpora — same ids, same order,
same float scores — at k = 1, 10 and 100.

The corpora repeat a few random texts many times, so exact score ties
straddle the k-th place with more than 4k matches (the top-k cut runs).
Queries may repeat a term.  Each example checks the whole-index engine
and the merged shard engines fresh and after tombstoning random ids, and
an engine over the live docs with their ids kept (ids with gaps: the
layout ``compact`` leaves, so the accumulator maps ids through the norm
slots).  The sampled lower bound of the top-k cut is forced at small
size by shrinking ``query._SAMPLE``.

Indexes are written in-process by the build's own stage functions
(tokenize, SPIMI partial, per-(part, salt) merge, partition writer),
grouped with pandas instead of Ray, so an example costs milliseconds."""

import json
import os
import random
import tempfile
from unittest import mock

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from stocksight_ray.functions.analyzer import english_analyzer
from stocksight_ray.index import codec, query
from stocksight_ray.index.build import (
    _tokenize_task, make_partition_writer, make_spimi_partial, merge_bucket,
)
from stocksight_ray.index.deletes import delete_docs
from stocksight_ray.index.query import QueryEngine

from .oracle import naive_bm25_topk

WORDS = ["stock", "market", "rally", "bond", "yield", "crash", "gold", "oil"]
NUM_PARTS = 3
SHARD_DOCS = 64
KS = (1, 10, 100)


def write_index(root: str, ids, texts) -> None:
    """A segmented index of (ids, texts) under ``root``: ``index/`` +
    ``norms/`` + ``manifest.json`` for the whole index and one
    ``segments/shard-NNNNN/`` per SHARD_DOCS ids, as build_resumable
    lays them out."""
    tok = _tokenize_task(
        pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        analyzer="english", text_col="text", id_col="doc_id")
    partial = make_spimi_partial(NUM_PARTS, SHARD_DOCS)(tok).to_pandas()
    merged = pd.concat(
        [merge_bucket(g) for _, g in partial.groupby(["part", "salt"])])
    shard_of = np.asarray(ids) // SHARD_DOCS
    seg = {int(s): os.path.join(root, "segments", f"shard-{s:05d}")
           for s in np.unique(shard_of)}
    for write in (make_partition_writer(root),
                  make_partition_writer(root, seg, 1)):
        for _, g in merged.groupby("part"):
            write(g)
    norms = tok.select(["doc_id", "doc_len"])
    os.makedirs(os.path.join(root, "norms"))
    pq.write_table(norms, os.path.join(root, "norms", "part-00000.parquet"))
    for s, d in seg.items():
        os.makedirs(d, exist_ok=True)
        pq.write_table(norms.filter(pa.array(shard_of == s)),
                       os.path.join(d, "norms.parquet"))
        with open(os.path.join(d, "lineage.json"), "w") as f:
            json.dump({"doc_id_lo": s * SHARD_DOCS,
                       "doc_id_hi": (s + 1) * SHARD_DOCS}, f)
    total = int(pa.compute.sum(norms["doc_len"]).as_py())
    with open(os.path.join(root, "manifest.json"), "w") as f:
        json.dump({"num_docs": len(ids), "avgdl": total / len(ids),
                   "total_terms": total, "analyzer": "english",
                   "k1": codec.K1, "b": codec.B,
                   "num_partitions": NUM_PARTS}, f)


def engines(root: str, ids):
    """The whole-index engine and the shard engines of ``root``."""
    shards = sorted({int(i) // SHARD_DOCS for i in ids})
    return QueryEngine(root), [QueryEngine(root, shard=s) for s in shards]


def merged(shards, text: str, k: int):
    hits = sorted((h for e in shards for h in e.search(text, k)),
                  key=lambda h: (-h[1], h[0]))
    return hits[:k]


def check(root, ids, tokens, text, gone=()):
    """Every engine over ``root`` answers ``text`` like the oracle over
    ``tokens`` (stats over all of them), with the ``gone`` ids dropped."""
    glob, shards = engines(root, ids)
    full = naive_bm25_topk(tokens, english_analyzer(text), k=len(tokens))
    live = [h for h in full if h[0] not in set(gone)]
    for k in KS:
        if len(live) > 4 * k and live[k - 1][1] == live[k][1]:
            event(f"k={k}: a tie at the k-th place past the cut")
        assert glob.search(text, k) == live[:k], (text, k)
        assert merged(shards, text, k) == live[:k], (text, k)
    # the top-k contract holds for candidates in any order
    docs, scores = glob._or_arrays(glob.analyze_query(text))
    perm = np.random.RandomState(len(docs)).permutation(len(docs))
    for k in KS:
        got = query._pairs(*query._top_k(docs[perm], scores[perm], k))
        assert got == live[:k], (text, k)


@st.composite
def corpora(draw):
    """Token lists: a few random texts, each repeated up to 40 times, in
    random order."""
    texts = draw(st.lists(st.lists(st.sampled_from(WORDS), min_size=1,
                                   max_size=5), min_size=1, max_size=6))
    copies = draw(st.lists(st.integers(1, 40), min_size=len(texts),
                           max_size=len(texts)))
    docs = [" ".join(t) for t, c in zip(texts, copies) for _ in range(c)]
    draw(st.randoms(use_true_random=False)).shuffle(docs)
    return docs


@given(docs=corpora(),
       words=st.lists(st.sampled_from(WORDS + ["absent"]), min_size=1,
                      max_size=4),
       gone_frac=st.floats(0.0, 0.6),
       sample=st.sampled_from([4096, 16, 3]),
       seed=st.integers(0, 2 ** 16))
@example(docs=["stock market"] * 30 + ["stock"] * 30, words=["stock"],
         gone_frac=0.2, sample=4096, seed=0)
@example(docs=["stock market"] * 30 + ["stock"] * 30, words=["stock"],
         gone_frac=0.2, sample=3, seed=0)
@example(docs=["gold oil"] * 25 + ["oil"] * 25 + ["gold"] * 25,
         words=["oil", "gold", "oil"], gone_frac=0.0, sample=16, seed=1)
@settings(max_examples=100, deadline=None)
def test_search_equals_oracle(docs, words, gone_frac, sample, seed):
    text = " ".join(words)
    ids = list(range(len(docs)))
    tokens = {i: english_analyzer(t) for i, t in zip(ids, docs)}
    rng = random.Random(seed)
    gone = sorted(rng.sample(ids, int(gone_frac * len(ids))))
    live_ids = [i for i in ids if i not in set(gone)]
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(query, "_SAMPLE", sample):
        root = os.path.join(tmp, "dense")
        write_index(root, ids, docs)
        check(root, ids, tokens, text)
        if not gone:
            return
        delete_docs(root, gone)
        check(root, ids, tokens, text, gone)
        # the live docs under their own ids: stats over the live docs only
        root = os.path.join(tmp, "gaps")
        write_index(root, live_ids, [docs[i] for i in live_ids])
        check(root, live_ids, {i: tokens[i] for i in live_ids}, text)
