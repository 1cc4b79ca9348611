"""BM25 top-k query engine over the built index (SURVEY.md §7 step 5).

Replaces the ES/Lucene query side the reference reaches through Kibana
(/root/reference/export.json ``stocksight_savesearch``): Okapi BM25
(k1=1.2, b=0.75 — the ES 5.x defaults) with Lucene's idf

    idf(t)     = ln(1 + (N - df + 0.5) / (df + 0.5))
    tf_norm    = tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl))
    score(d,q) = Σ_t idf(t) · tf_norm(t, d)

One OR scorer, term-at-a-time (``_accumulate`` → ``_or_arrays`` →
``_top_k``): each query term's ``idf · tf_norm`` is added, in query-term
order, into a dense float64 accumulator over the norm slots of the posted
doc-id range (smallest first doc … largest last doc of the query's
postings); tombstoned slots are zeroed.  Past 4,096 postings the k-th
largest score of a strided sample of the accumulator is a lower bound on
the k-th best score, and only docs at or above it are taken out.  With
more than 4k candidates ``_top_k`` keeps every score >= the k-th largest
(an ``np.partition`` cut, so every tie at the k-th place survives) and
``np.lexsort((docs, -scores))`` orders only the survivors.  The per-doc
sums fold in query-term order, the order tests/oracle.py uses, so scores
and exact ties are reproducible bit for bit.

Ties broken by doc_id ascending (explicit, so rank-identity is well-defined).
Duplicate query terms are deduplicated (one contribution per distinct term).

A windowed block-max scorer (skip 16k-doc windows whose summed per-block
upper bounds cannot beat the running k-th score) and a dense scorer that
lexsorted every match were both replaced by this one: block-max's
per-window Python loop costs more than the windows it skips, and the full
sort was what made the dense pass slow on head terms.  p50/p90 ms per df
class (150 queries of 1-3 terms per class: top 1%, next 9%, rest of the
terms by df), k=10, warm whole-index engines, generated corpora, 8
partitions, 1 vCPU:

    | docs | class | block-max   | dense, full sort | this scorer |
    |------|-------|-------------|------------------|-------------|
    | 20k  | head  | 0.430/0.643 | 0.627/1.442      | 0.170/0.291 |
    | 20k  | mid   | 0.246/0.352 | 0.121/0.226      | 0.095/0.150 |
    | 20k  | tail  | 0.202/0.269 | 0.061/0.082      | 0.064/0.082 |
    | 200k | head  | 2.890/4.672 | 7.929/20.18      | 2.170/4.534 |
    | 200k | mid   | 1.382/2.083 | 1.359/2.832      | 0.417/0.647 |
    | 200k | tail  | 1.067/1.574 | 0.262/0.420      | 0.265/0.388 |

Planning block-max windows vectorized (``np.maximum.at`` bounds per
window, windows in descending bound order) was no faster than block-max
at 20k docs.  ``codec.block_upper_bounds`` stays part of the postings
format.  ``scripts/scorer_classes.py`` prints the per-class latencies of
an index.

One engine serves either the whole index (``QueryEngine(index_dir)``) or one
committed segment of a segmented index (``QueryEngine(index_dir, shard=s)``,
index/segments.py): a shard engine reads the shard's postings, norms and
tombstones, and replaces each term's df with the GLOBAL df, so its scores
equal the global engine's and the per-shard top-k lists of
``serve.ShardedQueryService`` merge into exactly the global top-k (the
coordinating-node merge of an ES search).  A shard's accumulator spans
only its own norm ids.

The engine is a library object (loadable inside query-serving actors); it
memory-maps nothing mutable — index partitions are immutable parquet files
loaded lazily per ``part = crc32(term) % P`` and cached.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa

from ..functions.analyzer import make_cached_analyzer
from . import codec
from .build import term_partition
from .deletes import live_mask
from .docstore import DocStore


_NO_HITS = (np.empty(0, np.int64), np.empty(0, np.float64))
_SAMPLE = 4096  # accumulator slots sampled for the top-k lower bound


def _top_k(docs: np.ndarray, scores: np.ndarray,
           k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The k best (docs, scores) by (score desc, doc_id asc).  Past 4k
    candidates a partition cut first keeps every score >= the k-th largest
    (ties included), so only the survivors are sorted."""
    if scores.size > 4 * k:
        kth = np.partition(scores, scores.size - k)[scores.size - k]
        keep = scores >= kth
        docs, scores = docs[keep], scores[keep]
    order = np.lexsort((docs, -scores))[:k]
    return docs[order], scores[order]


def _pairs(docs: np.ndarray, scores: np.ndarray) -> List[Tuple[int, float]]:
    return list(zip(docs.tolist(), scores.tolist()))


class _TermPostings:
    __slots__ = ("df", "cf", "meta", "payload", "_full")

    def __init__(self, df: int, cf: int, meta: np.ndarray, payload: bytes):
        self.df = df
        self.cf = cf
        self.meta = meta  # decoded block-meta structured array
        self.payload = payload
        self._full = None

    def full(self):
        """Concatenated (docids, tfs) across all blocks, decoded once and
        cached — the warm serving path (head terms recur across queries).
        Bounded per serving shard (salt-range sharding at trillion-doc
        scale)."""
        if self._full is None:
            parts = [
                codec.decode_block(self.payload, self.meta[bi])
                for bi in range(self.meta.size)
            ]
            self._full = (
                np.concatenate([d for d, _ in parts]),
                np.concatenate([t for _, t in parts]),
            )
        return self._full


def check_mode(mode: str) -> None:
    """The boolean match modes: "or" and "and"; anything else raises."""
    if mode not in ("or", "and"):
        raise ValueError(f"mode must be 'or' or 'and', got {mode!r}")


def _binary_views(arr: pa.Array):
    """Zero-copy per-row memoryview slices of an Arrow binary column — the
    blobs stay in the Arrow data buffer (kept alive by the views) instead of
    being copied out into one Python ``bytes`` per row via ``to_pylist``.
    ``np.frombuffer`` (codec.decode_meta / varbyte_decode) reads memoryviews
    directly.  Only ``pa.binary()`` (int32 offsets) is accepted; any other
    type raises ``TypeError``."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.type != pa.binary():
        raise TypeError(f"expected a binary column, got {arr.type}")
    bufs = arr.buffers()  # [validity, offsets(int32), data]
    offsets = np.frombuffer(bufs[1], dtype=np.int32)[
        arr.offset: arr.offset + len(arr) + 1
    ]
    data = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b"")
    return [data[offsets[i]: offsets[i + 1]] for i in range(len(arr))]


def read_postings_table(path: str) -> Dict[str, _TermPostings]:
    """Load one postings parquet file → {term: _TermPostings} (one
    partition of the index or of a segment).  Arrow-native:
    df/cf come out as numpy, meta/payload as zero-copy buffer views — only
    the term strings (dict keys) materialize as Python objects."""
    from .. import fsio

    table: Dict[str, _TermPostings] = {}
    if fsio.exists(path):
        t = fsio.read_table(path)
        if t.num_rows == 0:
            return table
        dfs = t["df"].to_numpy(zero_copy_only=False)
        cfs = t["cf"].to_numpy(zero_copy_only=False)
        metas = _binary_views(t["meta"])
        payloads = _binary_views(t["payload"])
        for i, term in enumerate(t["term"].to_pylist()):
            table[term] = _TermPostings(
                int(dfs[i]), int(cfs[i]),
                codec.decode_meta(metas[i]), payloads[i],
            )
    return table


class QueryEngine:
    """BM25 engine over the whole index, or over one committed segment when
    ``shard`` is given (see the module docstring)."""

    def __init__(self, index_dir: str, shard: Optional[int] = None):
        import pyarrow.dataset as pads

        from .. import fsio
        from .deletes import load_deletes

        self.manifest = fsio.read_json(fsio.join(index_dir, "manifest.json"))
        self.index_dir = index_dir
        self.shard = shard
        self.N = int(self.manifest["num_docs"])
        self.avgdl = float(self.manifest["avgdl"]) or 1.0
        self.k1 = float(self.manifest["k1"])
        self.b = float(self.manifest["b"])
        self.num_partitions = int(self.manifest["num_partitions"])
        # memoized analyzer (at most 1M cached surface tokens): one per
        # engine, the same chain that built the index
        self._analyze = make_cached_analyzer(self.manifest["analyzer"])
        self._parts: Dict[int, Dict[str, _TermPostings]] = {}

        # where postings, norms and tombstones come from: the final index,
        # or one segment's own files and its lineage's doc_id range
        if shard is None:
            self._postings_dir = fsio.join(index_dir, "index")
            norms_path = fsio.join(index_dir, "norms")
            self._id_range: Tuple[Optional[int], Optional[int]] = (None, None)
        else:
            self._postings_dir = fsio.join(
                index_dir, "segments", f"shard-{shard:05d}")
            norms_path = fsio.join(self._postings_dir, "norms.parquet")
            lineage = fsio.read_json(
                fsio.join(self._postings_dir, "lineage.json"))
            self._id_range = (int(lineage["doc_id_lo"]),
                              int(lineage["doc_id_hi"]))

        # doc_len store: doc_id-indexed dense array when ids are dense,
        # else (sorted ids, lens) for searchsorted lookup.
        _nfs, _npath = fsio.resolve(norms_path)
        norms = pads.dataset(_npath, filesystem=_nfs).to_table()
        ids = norms["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lens = norms["doc_len"].to_numpy(zero_copy_only=False).astype(np.int32)
        order = np.argsort(ids, kind="stable")
        self._norm_ids = ids[order]
        self._norm_lens = lens[order]
        self._dense = bool(
            self._norm_ids.size
            and self._norm_ids[0] == 0
            and self._norm_ids[-1] == self._norm_ids.size - 1
        )
        # tf_norm's per-doc length term, once per doc (codec.length_norm)
        self._length_norms = codec.length_norm(
            self._norm_lens, self.avgdl, self.k1, self.b)
        # docs-table columns for phrase verification and field filters,
        # limited to the indexed ids (index/docstore.py)
        self.docstore = DocStore(self._norm_ids)

        # tombstoned doc_ids (index/deletes.py): sorted array, O(deletes)
        # memory — every scorer path filters against it exactly; N/avgdl/df
        # stay the manifest's (stale-until-compact, Lucene live-docs
        # semantics) so scores of surviving docs are unchanged by a delete.
        self._deleted = load_deletes(index_dir, *self._id_range)

    def refresh_deletes(self) -> int:
        """Re-read the tombstone set (after a delete_docs on a live
        engine).  Returns the number of tombstoned ids."""
        from .deletes import load_deletes

        self._deleted = load_deletes(self.index_dir, *self._id_range)
        return int(self._deleted.size)

    def _live(self, docs: np.ndarray) -> np.ndarray:
        return live_mask(self._deleted, docs)

    # ------------------------------------------------------------------
    def doc_lens(self, docids: np.ndarray) -> np.ndarray:
        if self._dense:
            return self._norm_lens[docids]
        idx = np.searchsorted(self._norm_ids, docids)
        return self._norm_lens[idx]

    def _load_part(self, part: int) -> Dict[str, _TermPostings]:
        cached = self._parts.get(part)
        if cached is not None:
            return cached
        from .. import fsio

        name = f"part-{part:05d}.parquet"
        table = read_postings_table(fsio.join(self._postings_dir, name))
        if self.shard is not None and table:
            # a segment's df counts its own docs: replace it with the
            # global df from a projected (term, df) read of the same
            # partition of the final index, so shard scores equal global
            import pyarrow.compute as pc

            g = fsio.read_table(fsio.join(self.index_dir, "index", name),
                                columns=["term", "df"])
            g = g.filter(pc.is_in(g["term"],
                                  value_set=pa.array(list(table), pa.string())))
            for t, df in zip(g["term"].to_pylist(), g["df"].to_pylist()):
                table[t].df = int(df)
        self._parts[part] = table
        return table

    def lookup(self, term: str) -> Optional[_TermPostings]:
        return self._load_part(term_partition(term, self.num_partitions)).get(term)

    def expand_prefix(self, prefix: str, limit: Optional[int] = None) -> List[str]:
        """Dictionary terms starting with ``prefix``, sorted (wildcard-term
        expansion for index/qparse.py).  The full sorted vocabulary of the
        served directory (the index, or one segment) is built lazily from
        projected term-column reads of every partition (strings only — no
        df/payload bytes) and cached; term dictionaries are O(vocabulary),
        tiny next to postings even at corpus scale.  A segment's expansions
        union over all shards to exactly the global expansion set, so
        sharded ``search_query`` equals the global one as long as ``limit``
        stays None."""
        allt = getattr(self, "_all_terms", None)
        if allt is None:
            from .. import fsio

            terms: List[str] = []
            for name in fsio.listdir(self._postings_dir):
                if name.startswith("part-") and name.endswith(".parquet"):
                    terms.extend(
                        fsio.read_table(
                            fsio.join(self._postings_dir, name), columns=["term"]
                        )["term"].to_pylist()
                    )
            allt = self._all_terms = sorted(terms)
        from .qparse import prefix_range

        return prefix_range(allt, prefix, limit)

    def warm(self, deep: bool = True) -> None:
        """Preload every index partition (term dictionary + block metadata).
        A serving actor calls this once in __init__ so query latency never
        pays cold parquet reads.  ``deep`` (the default) also decodes every
        term's postings into the cache (one-time cost ~ index size) and
        loads the manifest docs table's text column into the DocStore, so
        even the first query per term or phrase runs at warm latency."""
        for part in range(self.num_partitions):
            table = self._load_part(part)
            if deep:
                for p in table.values():
                    p.full()
        docs_path = self.manifest.get("docs_path")
        if deep and docs_path is not None:
            self.docstore.column(
                docs_path, self.manifest.get("docs_text_col", "text")
            )

    def idf(self, df: int) -> float:
        return float(np.log(1.0 + (self.N - df + 0.5) / (df + 0.5)))

    def analyze_query(self, query: str) -> List[str]:
        seen = set()
        out = []
        for t in self._analyze(query):
            if t not in seen:
                seen.add(t)
                out.append(t)
        return out

    # ------------------------------------------------------------------
    def search(self, query: str, k: int = 10) -> List[Tuple[int, float]]:
        """Top-k [(doc_id, score)] for an OR (match) query, by (score desc,
        doc_id asc)."""
        if k <= 0:
            return []
        return _pairs(*_top_k(*self._or_arrays(self.analyze_query(query), k), k))

    def _positions(self, docids: np.ndarray) -> np.ndarray:
        """Map docids → norm slots (identity when ids are dense;
        at 10^12 docs a serving actor holds one salt-range shard, so the
        accumulator is shard-sized, not corpus-sized)."""
        if self._dense:
            return docids
        return np.searchsorted(self._norm_ids, docids)

    def _or_arrays(self, terms: List[str],
                   k: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """(doc_ids ascending, scores) of every live doc matching any of
        ``terms`` — the OR scoring kernel (see the module docstring).  With
        ``k`` and more than ``_SAMPLE`` postings, only the docs scoring at
        least the k-th largest score of a strided sample of the accumulator
        (at most ``_SAMPLE`` slots): a superset of the top k and of every
        tie at its k-th place."""
        base, acc, n_postings = self._accumulate(terms)
        theta = 0.0
        if k is not None and n_postings > _SAMPLE:
            sample = acc[::max(1, acc.size // _SAMPLE)]
            if sample.size > k:
                theta = np.partition(sample, sample.size - k)[sample.size - k]
        # a match scores > 0 (idf > 0 as df <= N; tf >= 1), so the
        # zero slots are the docs that match no term, or are tombstoned
        slots = np.flatnonzero(acc >= theta if theta > 0 else acc > 0)
        scores = acc[slots]
        slots += base
        return (slots if self._dense else self._norm_ids[slots]), scores

    def _accumulate(self, terms: List[str]) -> Tuple[int, np.ndarray, int]:
        """(first slot, dense float64 scores over the norm slots of the
        posted doc-id range, postings read): each term's ``idf · tf_norm``
        added term at a time in query-term order; tombstoned slots are
        zeroed."""
        posts = [p for p in map(self.lookup, terms) if p is not None]
        if not posts:
            return 0, np.zeros(0), 0
        lo = min(int(p.meta["first"][0]) for p in posts)
        hi = max(int(p.meta["last"][-1]) for p in posts)
        if self._dense:
            base, end = lo, hi + 1
        else:
            base = int(np.searchsorted(self._norm_ids, lo))
            end = int(np.searchsorted(self._norm_ids, hi, side="right"))
        acc = np.zeros(end - base, dtype=np.float64)
        for i, p in enumerate(posts):
            docids, tfs = p.full()
            pos = self._positions(docids)
            contrib = self.idf(p.df) * codec.saturate(
                tfs, self._length_norms[pos], self.k1)
            if i == 0:  # 0.0 + x == x: the first term is a plain store
                acc[pos - base] = contrib
            else:
                acc[pos - base] += contrib
        if self._deleted.size:
            dead = self._deleted[
                np.searchsorted(self._deleted, lo):
                np.searchsorted(self._deleted, hi, side="right")]
            pos = self._positions(dead)
            acc[pos[self._norm_ids[pos] == dead] - base] = 0.0
        return base, acc, sum(p.df for p in posts)

    # ------------------------------------------------------------------
    def search_and(self, query: str, k: int = 10) -> List[Tuple[int, float]]:
        """Conjunctive (operator=AND) match: only docs containing EVERY
        query term, scored with the same BM25 sum (ES ``match`` with
        ``operator: and``).  Vectorized: smallest-df term first, running
        intersection of decoded docid arrays, then score the survivors."""
        return self._search_and_terms(self.analyze_query(query), k)

    def _search_and_terms(self, terms: List[str], k: int) -> List[Tuple[int, float]]:
        """AND over PRE-ANALYZED terms — callers that already hold index
        terms (search_phrase) must NOT round-trip them through the analyzer:
        the stop filter runs before Porter stemming, so a stem that equals a
        stopword (e.g. 'willing' → 'will') would vanish on re-analysis."""
        if k <= 0:
            return []
        return _pairs(*_top_k(*self._and_arrays(terms), k))

    def _and_arrays(self, terms: List[str]) -> Tuple[np.ndarray, np.ndarray]:
        """(doc_ids ascending, scores) of every live doc containing every
        one of ``terms``."""
        posts = [(t, self.lookup(t)) for t in terms]
        if not posts or any(p is None for _, p in posts):
            return _NO_HITS  # a missing term empties the conjunction
        posts_sorted = sorted(posts, key=lambda tp: tp[1].df)
        cand: Optional[np.ndarray] = None
        decoded = {}
        for t, p in posts_sorted:
            ids, tfs = p.full()
            decoded[t] = (ids, tfs)
            cand = ids if cand is None else cand[np.isin(cand, ids, assume_unique=True)]
            if cand.size == 0:
                return _NO_HITS
        if self._deleted.size:
            cand = cand[self._live(cand)]
        # score candidates in query-term order (same float order as OR path)
        scores = np.zeros(cand.size, dtype=np.float64)
        dls = self.doc_lens(cand)
        for t, p in posts:  # original order
            ids, tfs = decoded[t]
            pos = np.searchsorted(ids, cand)
            scores += self.idf(p.df) * codec.tf_norm(
                tfs[pos], dls, self.avgdl, self.k1, self.b
            )
        return cand, scores

    def _match(self, query: str, mode: str) -> Tuple[np.ndarray, np.ndarray]:
        """(doc_ids ascending, scores) of every live doc matching ``query``
        as an OR (``mode="or"``) or AND (``mode="and"``); any other mode
        raises ``ValueError``."""
        check_mode(mode)
        terms = self.analyze_query(query)
        return self._and_arrays(terms) if mode == "and" else self._or_arrays(terms)

    def search_phrase(
        self, query: str, k: int = 10, docs_path: Optional[str] = None,
        text_col: Optional[str] = None,
    ) -> List[Tuple[int, float]]:
        """Phrase match (ES ``match_phrase``, the reference's Kibana
        saved-search filter): conjunctive candidates from the index, then
        exact consecutive-terms verification of their texts, taken from the
        engine's in-memory DocStore (index/docstore.py::search_phrase)."""
        from .docstore import search_phrase as _sp

        return _sp(self, query, k, docs_path, text_col)

    def search_sorted(
        self, query: str, k: int = 10, *,
        sort_col: str = "warc_ts", descending: bool = True,
        docs_path: Optional[str] = None, mode: str = "or",
    ) -> List[Tuple[int, object]]:
        """The reference's Kibana saved search (sort: ["date","desc"],
        /root/reference/export.json stocksight_savesearch): matching docs
        ordered by a METADATA column instead of score.  Candidates come from
        the index (OR or AND match); their sort keys are taken from the
        ``sort_col`` column the DocStore holds in memory for ``docs_path``
        (read once per path and column).  Returns [(doc_id, sort_value)] —
        ties by doc_id asc.  ``mode`` is "or" or "and"; anything else raises
        ``ValueError``."""
        check_mode(mode)
        docs_path = docs_path or self.manifest.get("docs_path")
        if docs_path is None:
            raise ValueError("search_sorted needs docs_path (or manifest docs_path)")
        docs, _ = self._match(query, mode)
        if not docs.size:
            return []
        ids, vals = self.docstore.take(docs_path, sort_col, docs)
        rows = [
            (d, v)
            for d, v in zip(ids.tolist(), vals.to_pylist())
            if v is not None  # ES sorts missing last; we drop them (documented)
        ]
        if descending:
            rows.sort(key=lambda r: (r[1], -r[0]), reverse=True)  # val desc, id asc
        else:
            rows.sort(key=lambda r: (r[1], r[0]))
        return rows[:k]

    def search_filtered(
        self, query: str, k: int = 10, *,
        filters: List[Tuple[str, str, object]],
        docs_path: Optional[str] = None, mode: str = "or",
    ) -> List[Tuple[int, float]]:
        """ES bool query with FILTER CONTEXT (the reference's Kibana phrase
        filters, e.g. ``_type: tweet`` at /root/reference/export.json:40,82
        combined with the match query): score with BM25 as usual, admit
        only docs satisfying every metadata predicate, scores unaffected
        by the filter (non-scoring filter context, exactly ES).

        filters: [(column, op, value)] with op in
        {"==", "!=", "<", "<=", ">", ">=", "in"}.  Each predicate is one
        vectorized comparison over the column the DocStore holds in memory
        for ``docs_path`` (read once per path and column, limited to the
        indexed ids); the value is cast to the column's type, and a value
        that cannot be cast raises ``ValueError``, and so does a ``mode``
        other than "or"/"and"."""
        check_mode(mode)
        docs_path = docs_path or self.manifest.get("docs_path")
        if docs_path is None:
            raise ValueError("search_filtered needs docs_path (or manifest docs_path)")
        docs, scores = self._match(query, mode)
        if not docs.size or k <= 0:
            return []
        for col, op, val in filters:
            keep = ~live_mask(self.docstore.match(docs_path, col, op, val), docs)
            docs, scores = docs[keep], scores[keep]
        return _pairs(*_top_k(docs, scores, k))

    def highlight(self, text: str, query: str, pre: str = "<em>", post: str = "</em>") -> str:
        """Kibana-style highlightAll: wrap every word whose ANALYZED form
        matches an analyzed query term (so stemming variants highlight too,
        matching the english-analyzer search semantics)."""
        terms = set(self.analyze_query(query))
        if not terms or not text:
            return text or ""
        out = []
        for w in text.split(" "):
            # a word may analyze to several terms (hyphenated compounds);
            # highlight when ANY of them matches, per Kibana highlightAll
            if any(t in terms for t in self._analyze(w)):
                out.append(f"{pre}{w}{post}")
            else:
                out.append(w)
        return " ".join(out)

    def search_query(self, query: str, k: int = 10) -> List[Tuple[int, float]]:
        """Lucene-mini query-string search (the Kibana search-bar surface):
        ``sentiment:negative AND "stock market"``, AND/OR/NOT, quoted
        phrases, wildcards (``mark*``), ``field:value`` filter-context
        clauses — parsed and composed over the primitives above.  See
        index/qparse.py for the grammar and ES bool-query semantics.

        A ``field:value`` clause is a non-scoring filter that contributes
        score 0 to a scored OR, so ``market OR lang:en`` returns every
        English doc (ranked below the BM25 matches of ``market``).  ES
        ``query_string`` differs: it scores ``field:value`` as a term
        query."""
        from .qparse import search_query as _sq

        return _sq(self, query, k)

    def matching_docs(self, query: str, *, columns=None, docs_path=None):
        """Query-context Dataset (Kibana dashboard scope): the docs
        matching a query string, streamed for downstream aggs — see
        ``index/qparse.py::matching_docs``."""
        from .qparse import matching_docs as _md

        return _md(self, query, columns=columns, docs_path=docs_path)

    # ------------------------------------------------------------------
    def search_table(self, query: str, k: int = 10) -> pa.Table:
        hits = self.search(query, k)
        return pa.table(
            {
                "rank": pa.array(range(1, len(hits) + 1), pa.int32()),
                "doc_id": pa.array([d for d, _ in hits], pa.int64()),
                "score": pa.array([s for _, s in hits], pa.float64()),
            }
        )
