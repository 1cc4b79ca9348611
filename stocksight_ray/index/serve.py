"""Query serving: BM25 top-k as an actor-pool stage and as a sharded
actor service (SURVEY.md §2.7 J3 — the query-side term→postings lookup is
actor state, loaded once).

Two forms:

* ``search_dataset(queries, index_dir)`` — Ray-Data-idiomatic batch scoring:
  a Dataset of (query_id, query[, k]) flows through
  ``map_batches(SearchStage, concurrency=N)``; each actor holds ONE warm
  QueryEngine (built in __init__) and scores its batches vectorized.  Use
  for bulk evaluation (the reference query set, offline relevance jobs).

* ``ShardedQueryService(out_dir)`` — online lookups over a segmented index
  (index/segments.py): one actor per committed segment, each holding a
  warm shard engine (``QueryEngine(out_dir, shard=s)``); a query fans out
  and the per-shard top-k lists merge (scores are shard-independent: N,
  avgdl and df are the global ones), which is the standard distributed
  top-k merge of an ES coordinating node.
"""

from __future__ import annotations

import pyarrow as pa

from .query import QueryEngine, check_mode


class SearchStage:
    """map_batches actor: (query_id, query[, k]) → (query_id, rank, doc_id,
    score) rows.  Engine + partitions load once per actor.
    ``mode="match"`` scores the row's text as a plain BM25 OR match;
    ``mode="query_string"`` parses it with the Lucene-mini grammar
    (index/qparse.py) — bulk offline evaluation of saved searches."""

    def __init__(self, index_dir: str, default_k: int = 10,
                 mode: str = "match"):
        if mode not in ("match", "query_string"):
            raise ValueError(f"mode must be match|query_string, got {mode!r}")
        self.engine = QueryEngine(index_dir)
        self.engine.warm()
        self.default_k = default_k
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
                else self.engine.search(q, int(k))
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
    mode: str = "match",
    concurrency=None,
    batch_size: int = 64,
):
    """Bulk top-k over a Dataset of (query_id:int64, query:string[, k]).
    ``mode="query_string"`` evaluates each row with the Lucene-mini
    grammar instead of a plain match.  ``concurrency`` defaults to an actor
    pool of 1 to min(8, cluster CPUs) engines."""
    from ..geometry import cluster_cpus

    if concurrency is None:
        concurrency = (1, min(8, cluster_cpus()))
    return queries.map_batches(
        SearchStage,
        fn_constructor_kwargs={
            "index_dir": index_dir, "default_k": k, "mode": mode,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


class SegmentEngine(QueryEngine):
    """The engine a shard actor runs: ``QueryEngine`` over one committed
    segment, whose ``search`` answers ``mode="or"`` with the OR scorer
    and ``mode="and"`` with ``search_and``."""

    def __init__(self, out_dir: str, shard: int):
        super().__init__(out_dir, shard=shard)

    def search(self, query: str, k: int = 10, mode: str = "or"):
        check_mode(mode)
        if mode == "and":
            return self.search_and(query, k)
        return super().search(query, k)


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

            def search(self, query: str, k: int, mode: str):
                return self.eng.search(query, k, mode=mode)

            def search_query(self, query: str, k: int):
                return self.eng.search_query(query, k)

        self._actors = [ShardActor.remote(out_dir, s, warm) for s in shards]
        ray.get([a.ready.remote() for a in self._actors])  # block until warm

    def search(self, query: str, k: int = 10, mode: str = "or"):
        """Top-k OR (``mode="or"``) or AND (``mode="and"``) match across
        shards; any other mode raises ``ValueError``."""
        import ray

        check_mode(mode)
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
