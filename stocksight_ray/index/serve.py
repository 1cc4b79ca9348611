"""Query serving: BM25 top-k as an actor-pool stage and as a persistent
actor service (SURVEY.md §2.7 J3 — the query-side term→postings lookup is
actor state, loaded once).

Two forms:

* ``search_dataset(queries, index_dir)`` — Ray-Data-idiomatic batch scoring:
  a Dataset of (query_id, query[, k]) flows through
  ``map_batches(SearchStage, concurrency=N)``; each actor holds ONE warm
  QueryEngine (built in __init__) and scores its batches vectorized.  Use
  for bulk evaluation (the reference query set, offline relevance jobs).

* ``QueryService`` — a handle over ``n`` detached-lifetime=no, named=no
  ``QueryServerActor``s for online lookups with round-robin routing.  Use
  when latency matters and the index fits per-actor memory; at 10^12 docs
  each actor instead holds one doc_id-range shard and the service fans out
  + merges (scores are shard-independent: idf/avgdl are global manifest
  constants), which is the standard distributed top-k merge.
"""

from __future__ import annotations

from typing import List, Optional

import pyarrow as pa

from .query import QueryEngine


class SearchStage:
    """map_batches actor: (query_id, query[, k]) → (query_id, rank, doc_id,
    score) rows.  Engine + partitions load once per actor.
    ``mode="match"`` scores the row's text as a plain BM25 match (the
    ``method`` scorer); ``mode="query_string"`` parses it with the
    Lucene-mini grammar (index/qparse.py) — bulk offline evaluation of
    saved searches."""

    def __init__(self, index_dir: str, default_k: int = 10,
                 method: str = "auto", mode: str = "match"):
        if mode not in ("match", "query_string"):
            raise ValueError(f"mode must be match|query_string, got {mode!r}")
        self.engine = QueryEngine(index_dir)
        self.engine.warm(deep=True)
        self.default_k = default_k
        self.method = method
        self.mode = mode

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, ranks, docs, scores = [], [], [], []
        ks = (
            batch["k"].to_pylist()
            if "k" in batch.column_names
            else [self.default_k] * batch.num_rows
        )
        for qid, q, k in zip(
            batch["query_id"].to_pylist(), batch["query"].to_pylist(), ks
        ):
            hits = (
                self.engine.search_query(q, int(k))
                if self.mode == "query_string"
                else self.engine.search(q, int(k), self.method)
            )
            for rank, (d, s) in enumerate(hits, start=1):
                qids.append(qid)
                ranks.append(rank)
                docs.append(d)
                scores.append(s)
        return pa.table(
            {
                "query_id": pa.array(qids, pa.int64()),
                "rank": pa.array(ranks, pa.int32()),
                "doc_id": pa.array(docs, pa.int64()),
                "score": pa.array(scores, pa.float64()),
            }
        )


def search_dataset(
    queries,
    index_dir: str,
    *,
    k: int = 10,
    method: str = "auto",
    mode: str = "match",
    concurrency=(1, 8),
    batch_size: int = 64,
):
    """Bulk top-k over a Dataset of (query_id:int64, query:string[, k]).
    ``mode="query_string"`` evaluates each row with the Lucene-mini
    grammar instead of a plain match."""
    return queries.map_batches(
        SearchStage,
        fn_constructor_kwargs={
            "index_dir": index_dir, "default_k": k,
            "method": method, "mode": mode,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


class SegmentEngine:
    """Query engine over ONE committed segment (a doc_id-range shard from
    index/segments.py), scoring with the GLOBAL stats (N, avgdl, per-term
    df) so shard scores are directly comparable across shards.

    Memory is shard-bounded: only this shard's postings + norms are held,
    plus a {term: df} dict for the shard's OWN term set, built at init from
    column-projected (term, df) reads of the global index partitions —
    never the global payloads or the global norms — and the DocStore's
    docs columns for the shard's ids only.  The dense per-query
    accumulator is shard-sized (the point of sharding)."""

    def __init__(self, out_dir: str, shard: int):
        import numpy as np

        from .. import fsio
        from ..functions.analyzer import make_cached_analyzer
        from .docstore import DocStore
        from .query import read_postings_table

        manifest = fsio.read_json(fsio.join(out_dir, "manifest.json"))
        self.manifest = manifest
        self.N = int(manifest["num_docs"])
        self.avgdl = float(manifest["avgdl"]) or 1.0
        self.k1 = float(manifest["k1"])
        self.b = float(manifest["b"])
        self._analyze = make_cached_analyzer(manifest["analyzer"])

        seg = fsio.join(out_dir, "segments", f"shard-{shard:05d}")
        self.lineage = fsio.read_json(fsio.join(seg, "lineage.json"))
        self._tables = {}
        for name in fsio.listdir(seg):
            if name.startswith("part-") and name.endswith(".parquet"):
                self._tables.update(read_postings_table(fsio.join(seg, name)))

        # global df for ONLY this shard's terms: projected (term, df) read
        # of the global partitions, filtered columnar (no per-row Python
        # loop over the full dictionary, no payload bytes off storage)
        import pyarrow as pa
        import pyarrow.compute as pc

        self._global_df = {}
        own = pa.array(sorted(self._tables), pa.string())
        idx_dir = fsio.join(out_dir, "index")
        for name in fsio.listdir(idx_dir):
            if not (name.startswith("part-") and name.endswith(".parquet")):
                continue
            t = fsio.read_table(fsio.join(idx_dir, name), columns=["term", "df"])
            t = t.filter(pc.is_in(t["term"], value_set=own))
            self._global_df.update(
                zip(t["term"].to_pylist(), (int(x) for x in t["df"].to_pylist()))
            )

        norms = fsio.read_table(fsio.join(seg, "norms.parquet"))
        self._ids = norms["doc_id"].to_numpy(zero_copy_only=False).astype("int64")
        self._lens = norms["doc_len"].to_numpy(zero_copy_only=False).astype("int32")

        # tombstones restricted to THIS shard's id range (deletes.py) —
        # same exact filter as the global engine, so sharded serving stays
        # rank-identical to it under deletes
        from .deletes import load_deletes

        self._deleted = load_deletes(
            out_dir,
            int(self.lineage["doc_id_lo"]), int(self.lineage["doc_id_hi"]),
        )
        # docs-table columns for THIS shard's ids only (index/docstore.py):
        # phrase texts and filter columns stay shard-bounded
        self.docstore = DocStore(self._ids)

    def warm(self) -> None:
        """Pre-decode every term's postings AND pre-resolve its scatter
        positions + full BM25 contribution vector (idf x tf-norm — both
        fixed per term: df/N/avgdl are global constants and doc lengths are
        shard state), so a warm query is ONE scatter-add per term — no
        varbyte decode, no searchsorted, no log/tf-norm on the serving
        path.  Memory stays shard-bounded (~12 B/posting: int32 position +
        float64 contribution).  Also loads the shard's rows of the manifest
        docs table's text column into the DocStore (phrase verification)."""
        import numpy as np

        from . import codec

        self._resolved = {}
        for t, p in self._tables.items():
            docids, tfs = p.full()
            df = self._global_df.get(t, p.df)
            w = float(np.log(1.0 + (self.N - df + 0.5) / (df + 0.5)))
            pos = np.searchsorted(self._ids, docids).astype(np.int32)
            contrib = w * codec.tf_norm(
                tfs, self._lens[pos], self.avgdl, self.k1, self.b
            )
            self._resolved[t] = (pos, contrib)
        docs_path = self.manifest.get("docs_path")
        if docs_path is not None:
            self.docstore.column(
                docs_path, self.manifest.get("docs_text_col", "text")
            )

    def search(self, query: str, k: int = 10, mode: str = "or"):
        """Top-k within this shard, scored with GLOBAL df/N/avgdl (dense
        term-at-a-time over the shard-sized accumulator — same float order
        as the global exhaustive oracle).  ``mode="and"`` keeps only docs
        containing EVERY query term — a shard-local predicate (shards
        partition disjoint doc ranges), so the cross-shard merge stays
        exactly the global conjunction; a term absent from this shard
        empties its contribution (absent from all shards == absent
        globally == empty conjunction, matching QueryEngine.search_and)."""
        return self._search_terms(self.analyze_query(query), k, mode == "and")

    def _search_and_terms(self, terms, k: int):
        """AND over pre-analyzed terms (docstore.search_phrase candidates)."""
        return self._search_terms(terms, k, True)

    def _search_terms(self, terms, k: int, conj: bool):
        import numpy as np

        from . import codec

        if k <= 0:
            return []
        acc = np.zeros(self._ids.size, dtype=np.float64)
        touched = np.zeros(self._ids.size, dtype=bool)
        nhits = np.zeros(self._ids.size, dtype=np.int32) if conj else None
        resolved = getattr(self, "_resolved", None)
        for t in terms:
            if resolved is not None:
                hit = resolved.get(t)
                if hit is None:
                    if conj:
                        return []
                    continue
                pos, contrib = hit
                acc[pos] += contrib
                touched[pos] = True
                if conj:
                    nhits[pos] += 1
                continue
            p = self._tables.get(t)
            if p is None:
                if conj:
                    return []
                continue
            df = self._global_df.get(t, p.df)
            w = float(np.log(1.0 + (self.N - df + 0.5) / (df + 0.5)))
            docids, tfs = p.full()
            pos = np.searchsorted(self._ids, docids)
            dls = self._lens[pos]
            acc[pos] += w * codec.tf_norm(tfs, dls, self.avgdl, self.k1, self.b)
            touched[pos] = True
            if conj:
                nhits[pos] += 1
        idx = (
            np.flatnonzero(nhits == len(terms)) if conj and terms
            else np.flatnonzero(touched)
        )
        if idx.size == 0:
            return []
        scores = acc[idx]
        docs = self._ids[idx]
        if self._deleted.size:
            from .deletes import live_mask

            m = live_mask(self._deleted, docs)
            docs, scores = docs[m], scores[m]
        order = np.lexsort((docs, -scores))[:k]
        return [(int(docs[i]), float(scores[i])) for i in order]

    # -- QueryEngine-compatible surface for index/qparse.py ----------------
    # The parser evaluates pointwise per doc with global stats, so running
    # it per shard and merging shard top-ks IS the global evaluation
    # restricted to disjoint id ranges (the same argument as search()).

    class _GlobalDfPostings:
        """Shard postings re-badged with the GLOBAL df, so qparse's
        ``engine.idf(p.df)`` weights terms exactly like the global engine."""

        __slots__ = ("df", "cf", "_p")

        def __init__(self, df: int, p):
            self.df = df
            self.cf = p.cf
            self._p = p

        def full(self):
            return self._p.full()

    def analyze_query(self, query: str):
        seen = set()
        return [t for t in self._analyze(query)
                if not (t in seen or seen.add(t))]

    def lookup(self, term: str):
        p = self._tables.get(term)
        if p is None:
            return None
        return SegmentEngine._GlobalDfPostings(
            self._global_df.get(term, p.df), p
        )

    def idf(self, df: int) -> float:
        import numpy as np

        return float(np.log(1.0 + (self.N - df + 0.5) / (df + 0.5)))

    def expand_prefix(self, prefix: str, limit=None):
        """Shard-local wildcard expansion (qparse Prefix).  Uncapped
        shard-local expansion unions to EXACTLY the global expansion set
        (every global term lives in ≥1 shard and a term absent from this
        shard contributes nothing here), so sharded search_query stays
        equal to the global engine; a per-shard ``limit`` would break that
        and is accepted only for explicit local use."""
        from .qparse import prefix_range

        allt = getattr(self, "_sorted_terms", None)
        if allt is None:
            allt = self._sorted_terms = sorted(self._tables)
        return prefix_range(allt, prefix, limit)

    def doc_lens(self, docids):
        import numpy as np

        return self._lens[np.searchsorted(self._ids, docids)]

    def _live(self, docs):
        from .deletes import live_mask

        return live_mask(self._deleted, docs)

    def search_phrase(self, query: str, k: int = 10):
        """Phrase match within this shard (global-scored): conjunctive
        candidates from the shard postings, then exact consecutive-terms
        verification of their texts from the shard-bounded DocStore — the
        same verification path as QueryEngine (docstore.search_phrase)."""
        from .docstore import search_phrase as _sp

        return _sp(self, query, k)

    def search_query(self, query: str, k: int = 10):
        """Lucene-mini query string over THIS shard (see index/qparse.py)."""
        from .qparse import search_query as _sq

        return _sq(self, query, k)


class ShardedQueryService:
    """One actor per segment shard; a query fans out and the per-shard
    top-k lists merge by (score desc, doc_id asc) — EXACTLY the global
    top-k, because every shard scores with the same global df/N/avgdl
    (shards partition disjoint doc_id ranges)."""

    def __init__(self, out_dir: str, warm: bool = True):
        import ray

        from .. import fsio

        manifest = fsio.read_json(fsio.join(out_dir, "manifest.json"))
        shards = [s["shard"] for s in manifest.get("segments", [])]
        if not shards:
            raise ValueError("index has no segments (built single-pass?)")

        @ray.remote
        class ShardActor:
            def __init__(self, out_dir: str, shard: int, warm: bool):
                self.eng = SegmentEngine(out_dir, shard)
                if warm:
                    self.eng.warm()

            def ready(self) -> bool:
                return True

            def search(self, query: str, k: int, mode: str = "or"):
                return self.eng.search(query, k, mode)

            def search_query(self, query: str, k: int):
                return self.eng.search_query(query, k)

        self._actors = [ShardActor.remote(out_dir, s, warm) for s in shards]
        ray.get([a.ready.remote() for a in self._actors])  # block until warm

    def search(self, query: str, k: int = 10, mode: str = "or"):
        import ray

        if k <= 0:
            return []
        parts = ray.get([a.search.remote(query, k, mode) for a in self._actors])
        return self._merge(parts, k)

    def search_query(self, query: str, k: int = 10):
        """Query-string search (index/qparse.py) fanned across shards.
        Per-shard evaluation with global stats is the global evaluation
        restricted to disjoint id ranges, so the shard top-k merge equals
        ``QueryEngine.search_query`` exactly — including pure-filter
        queries (all scores 0.0, merge degrades to doc_id order)."""
        import ray

        if k <= 0:
            return []
        parts = ray.get(
            [a.search_query.remote(query, k) for a in self._actors]
        )
        return self._merge(parts, k)

    @staticmethod
    def _merge(parts, k: int):
        merged = [hit for p in parts for hit in p]
        merged.sort(key=lambda ds_: (-ds_[1], ds_[0]))
        return [(int(d), float(s)) for d, s in merged[:k]]

    def shutdown(self):
        import ray

        for a in self._actors:
            ray.kill(a)
        self._actors = []


class QueryService:
    """Round-robin pool of warm query actors for online serving."""

    def __init__(self, index_dir: str, num_actors: int = 2, method: str = "auto"):
        import ray

        @ray.remote
        class QueryServerActor:
            def __init__(self, index_dir: str, method: str):
                self.engine = QueryEngine(index_dir)
                self.engine.warm(deep=True)
                self.method = method

            def search(self, query: str, k: int = 10):
                return self.engine.search(query, k, self.method)

            def search_many(self, queries: List[str], k: int = 10):
                return [self.engine.search(q, k, self.method) for q in queries]

        self._actors = [
            QueryServerActor.remote(index_dir, method) for _ in range(num_actors)
        ]
        self._rr = 0

    def _next(self):
        a = self._actors[self._rr % len(self._actors)]
        self._rr += 1
        return a

    def search(self, query: str, k: int = 10):
        import ray

        return ray.get(self._next().search.remote(query, k))

    def search_many(self, queries: List[str], k: int = 10):
        """Fan queries across the pool; preserves input order."""
        import ray

        chunks = [[] for _ in self._actors]
        idx = [[] for _ in self._actors]
        for i, q in enumerate(queries):
            a = i % len(self._actors)
            chunks[a].append(q)
            idx[a].append(i)
        futs = [
            actor.search_many.remote(ch, k)
            for actor, ch in zip(self._actors, chunks)
            if ch
        ]
        out = [None] * len(queries)
        fi = 0
        for a, ch in enumerate(chunks):
            if not ch:
                continue
            for i, res in zip(idx[a], ray.get(futs[fi])):
                out[i] = res
            fi += 1
        return out

    def shutdown(self):
        import ray

        for a in self._actors:
            ray.kill(a)
        self._actors = []
