"""Lucene-mini query-string parser + evaluator (the ES ``query_string`` /
Kibana search-bar surface the reference user actually types into —
/root/reference/export.json ``searchSourceJSON`` query panels; the repo's
separate search/search_and/search_phrase/search_filtered calls compose
under one string syntax here).

Grammar::

    query    := or_expr
    or_expr  := and_expr (OR and_expr)*
    and_expr := unary (AND unary)*
    unary    := (NOT | '-') unary | atom
    atom     := '(' or_expr ')' | FIELD ':' value | PHRASE | TERM
    value    := PHRASE | [>,>=,<,<=] TERM

Semantics (ES bool query):

* default operator between bare clauses is **OR** (Lucene default:
  ``a b`` ≡ ``a OR b``); ``AND`` binds tighter than ``OR``;
* text clauses — bare terms and ``"quoted phrases"`` — score BM25 against
  the indexed text field; an OR sums the scores of the clauses a doc
  matches (ES ``should``), an AND requires every positive clause and sums
  their scores (ES ``must``);
* ``NOT x`` / ``-x`` excludes matching docs without contributing score
  (ES ``must_not``); a query whose top level has no positive clause is an
  error (like ES, which cannot iterate the complement);
* ``field:value`` is non-scoring **filter context** over a docs-table
  metadata column (the Kibana filter pill): equality by default,
  ``field:>=5``-style prefixes for numeric ranges, quoted values for
  strings with spaces.  Evaluated over the docs column the engine holds
  in memory (index/docstore.py), the value cast to the column's type;
* tombstoned docs (index/deletes.py) are filtered from the final result;
* ties break by doc_id ascending, matching every other scorer here.

Scoring parity: clause contributions fold left-to-right in query order —
``parse+execute("a b")`` is float-identical to ``engine.search("a b",
method="exhaustive")`` and ``"a AND b"`` to ``engine.search_and``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Term:
    text: str


@dataclass(frozen=True)
class Phrase:
    text: str


@dataclass(frozen=True)
class Prefix:
    """Trailing-wildcard term (``mark*``): expands against the index term
    dictionary (ES query_string wildcard, scoring_boolean rewrite — each
    expanded term scores BM25 and the doc sums matching terms).  The
    prefix is lowercased but NOT stemmed (wildcard terms skip analysis in
    ES too), so it matches the stored stemmed vocabulary directly."""

    text: str


@dataclass(frozen=True)
class Filter:
    col: str
    op: str  # ==, <, <=, >, >=
    value: object


@dataclass(frozen=True)
class Not:
    child: "Node"


@dataclass(frozen=True)
class And:
    children: Tuple["Node", ...]


@dataclass(frozen=True)
class Or:
    children: Tuple["Node", ...]


Node = Union[Term, Phrase, Prefix, Filter, Not, And, Or]


# ---------------------------------------------------------------------------
# Tokenizer + recursive-descent parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<lparen>\() |
        (?P<rparen>\)) |
        (?P<phrase>"[^"]*") |
        (?P<minus>-(?=\S)) |
        (?P<word>[^\s()":]+) |
        (?P<colon>:)
    )""",
    re.VERBOSE,
)


def _tokenize(s: str) -> List[Tuple[str, str]]:
    toks, pos = [], 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if m is None:
            rest = s[pos:].strip()
            if not rest:
                break
            raise ValueError(f"query syntax error at {rest[:20]!r}")
        pos = m.end()
        for kind in ("lparen", "rparen", "phrase", "minus", "word", "colon"):
            v = m.group(kind)
            if v is not None:
                toks.append((kind, v))
                break
    return toks


class _Parser:
    def __init__(self, toks: List[Tuple[str, str]]):
        self.toks = toks
        self.i = 0

    def peek(self) -> Optional[Tuple[str, str]]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> Tuple[str, str]:
        t = self.peek()
        if t is None:
            raise ValueError("unexpected end of query")
        self.i += 1
        return t

    # or_expr := and_expr (OR? and_expr)*  — bare juxtaposition is OR
    def or_expr(self) -> Node:
        parts = [self.and_expr()]
        while True:
            t = self.peek()
            if t is None or t[0] == "rparen":
                break
            if t[0] == "word" and t[1] == "OR":
                self.next()
            parts.append(self.and_expr())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def and_expr(self) -> Node:
        parts = [self.unary()]
        while True:
            t = self.peek()
            if t is not None and t[0] == "word" and t[1] == "AND":
                self.next()
                parts.append(self.unary())
            else:
                break
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary(self) -> Node:
        t = self.peek()
        if t is not None and (
            t[0] == "minus" or (t[0] == "word" and t[1] == "NOT")
        ):
            self.next()
            return Not(self.unary())
        return self.atom()

    def atom(self) -> Node:
        kind, v = self.next()
        if kind == "lparen":
            inner = self.or_expr()
            close = self.next()
            if close[0] != "rparen":
                raise ValueError("expected ')'")
            return inner
        if kind == "phrase":
            return Phrase(v[1:-1])
        if kind == "word":
            if v in ("AND", "OR", "NOT"):
                raise ValueError(f"operator {v} needs operands")
            t = self.peek()
            if t is not None and t[0] == "colon":
                self.next()
                return self._field_clause(v)
            if "*" in v:
                if not (v.endswith("*") and "*" not in v[:-1] and len(v) > 1):
                    raise ValueError(
                        f"only trailing-wildcard terms are supported: {v!r}"
                    )
                return Prefix(v[:-1].lower())
            return Term(v)
        raise ValueError(f"unexpected token {v!r}")

    def _field_clause(self, col: str) -> Filter:
        kind, v = self.next()
        if kind == "phrase":
            return Filter(col, "==", v[1:-1])  # quoted value = literal
        if kind != "word":
            raise ValueError(f"{col}: needs a value")
        if "*" in v:
            # fail loudly rather than comparing the literal '*' and
            # silently matching nothing (quote the value to mean a literal)
            raise ValueError(
                f"wildcards are not supported in field values: {col}:{v}"
            )
        op = "=="
        for pre in (">=", "<=", ">", "<"):
            if v.startswith(pre):
                op, v = pre, v[len(pre):]
                break
        return Filter(col, op, v)


def prefix_range(sorted_terms: List[str], prefix: str,
                 limit: Optional[int] = None) -> List[str]:
    """Terms in a sorted vocabulary starting with ``prefix`` — the one
    wildcard-expansion kernel behind QueryEngine.expand_prefix (over the
    index or one shard's vocabulary).  ``limit`` caps at the lexicographically
    FIRST ``limit`` matches (ES max_expansions-style, deterministic)."""
    import bisect

    lo = bisect.bisect_left(sorted_terms, prefix)
    # the matches are the run from lo while terms start with the prefix (no
    # sentinel upper bound: prefix + "\uffff" sorts below supplementary-
    # plane code points and would miss their terms)
    hi = bisect.bisect_left(sorted_terms, True, lo=lo,
                            key=lambda t: not t.startswith(prefix))
    out = sorted_terms[lo:hi]
    return out[:limit] if limit is not None else out


def _validate(node: Node) -> None:
    """Structural validity, checked UP FRONT (parse time and execute
    time): a query's validity must not depend on data — the evaluator
    short-circuits empty conjunctions before touching negatives, which
    would otherwise hide a nested pure-negative only when the positives
    happen to match nothing."""
    if isinstance(node, Not):
        raise ValueError("NOT is only valid alongside a positive clause")
    if isinstance(node, (And, Or)):
        if not any(not isinstance(c, Not) for c in node.children):
            raise ValueError("pure-negative query (every clause is NOT)")
        for c in node.children:
            _validate(c.child if isinstance(c, Not) else c)


def parse(s: str) -> Node:
    toks = _tokenize(s)
    if not toks:
        raise ValueError("empty query")
    p = _Parser(toks)
    node = p.or_expr()
    if p.peek() is not None:
        raise ValueError(f"trailing input at token {p.peek()!r}")
    _validate(node)
    return node


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

_EMPTY = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))

# A clause whose text analyzes to zero tokens (stopword-only, e.g. 'the')
# is REMOVED from the boolean query — Lucene/ES query_string drops
# analyzed-away clauses rather than matching nothing, so 'the AND market'
# equals 'market' (and search_and parity holds: its analyzer drops the
# stopword the same way).  Distinct from a real token absent from the
# corpus, which correctly evaluates to the empty set.
_NEUTRAL = object()


def _eval(engine, node: Node):
    """→ (ids sorted int64, scores float64 | None) — scores=None marks a
    pure filter-context subtree (non-scoring) — or ``_NEUTRAL`` when the
    clause analyzed away entirely (see above)."""
    from . import codec

    if isinstance(node, (Term, Prefix)):
        if isinstance(node, Term):
            terms = engine.analyze_query(node.text)
            if not terms:
                return _NEUTRAL
        else:
            # expansion set = every dictionary term with the prefix, folded
            # in lexicographic order (deterministic; shard-local expansion
            # unions to exactly the global set, so sharded serving stays
            # equal).  Zero expansions = a real no-match, not neutral.
            terms = engine.expand_prefix(node.text)
        ids, scores = _EMPTY
        for t in terms:
            p = engine.lookup(t)
            if p is None:
                continue
            tids, tfs = p.full()
            contrib = engine.idf(p.df) * codec.tf_norm(
                tfs, engine.doc_lens(tids), engine.avgdl, engine.k1, engine.b
            )
            ids, scores = _union_sum(ids, scores, tids, contrib)
        return ids, scores

    if isinstance(node, Phrase):
        if not engine.analyze_query(node.text):
            return _NEUTRAL
        hits = engine.search_phrase(node.text, k=1 << 30)
        if not hits:
            return _EMPTY
        ids = np.array([d for d, _ in hits], dtype=np.int64)
        scores = np.array([s for _, s in hits], dtype=np.float64)
        order = np.argsort(ids, kind="stable")
        return ids[order], scores[order]

    if isinstance(node, Filter):
        return _eval_filter(engine, node), None

    if isinstance(node, (Or, And)):
        pos = [c for c in node.children if not isinstance(c, Not)]
        neg = [c.child for c in node.children if isinstance(c, Not)]
        if not pos:  # backstop — _validate rejects this before evaluation
            raise ValueError("pure-negative query (every clause is NOT)")
        evald = [e for c in pos if (e := _eval(engine, c)) is not _NEUTRAL]
        if not evald:
            # every positive clause analyzed away → the bool query is empty
            return _EMPTY

        if isinstance(node, Or):
            # ES bool: should-clauses union with score sums; must_not
            # ('a -b', 'a OR NOT b') applies at the bool level, excluding
            # without scoring — the standard Lucene default-OR negation
            ids, scores = _EMPTY
            any_scored = False
            for cids, cscores in evald:
                if cscores is None:
                    cscores = np.zeros(cids.size, dtype=np.float64)
                else:
                    any_scored = True
                ids, scores = _union_sum(ids, scores, cids, cscores)
            ids, scores = _exclude(engine, ids, scores, neg)
            return ids, (scores if any_scored else None)

        cand = None
        for cids, _ in evald:
            cand = cids if cand is None else _intersect(cand, cids)
            if cand.size == 0:
                return _EMPTY
        cand, _unused = _exclude(engine, cand, None, neg)
        if cand.size == 0:
            return _EMPTY
        any_scored = any(s is not None for _, s in evald)
        if not any_scored:
            return cand, None
        # sum child scores at the surviving docs, in clause order (same
        # float fold order as _search_and_terms' original-order loop)
        scores = np.zeros(cand.size, dtype=np.float64)
        for cids, cscores in evald:
            if cscores is None:
                continue
            pos_idx = np.searchsorted(cids, cand)
            scores += cscores[pos_idx]
        return cand, scores

    if isinstance(node, Not):
        raise ValueError("NOT is only valid alongside a positive clause")
    raise TypeError(f"unknown node {node!r}")


def _exclude(engine, ids: np.ndarray, scores, neg_nodes):
    """Drop docs matching any negative clause (ES must_not: non-scoring).
    Analyzed-away negatives exclude nothing."""
    for n in neg_nodes:
        if ids.size == 0:
            break
        e = _eval(engine, n)
        if e is _NEUTRAL:
            continue
        nids, _ = e
        if nids.size:
            keep = ~_member(nids, ids)
            ids = ids[keep]
            if scores is not None:
                scores = scores[keep]
    return ids, scores


def _eval_filter(engine, node: Filter) -> np.ndarray:
    """Sorted doc ids passing a ``field:value`` clause: one vectorized
    comparison over the docs column the engine's DocStore holds in memory
    (index/docstore.py — read once per engine, limited to its indexed ids,
    so a shard engine sees only its range and compacted-away docs never
    match).  The value is cast to the column's type; a value that does not
    cast (``warc_ts:>=someday``) raises ValueError naming the field."""
    docs_path = engine.manifest.get("docs_path")
    if docs_path is None:
        raise ValueError(
            f"{node.col}:{node.value} needs docs_path in the index manifest"
        )
    return engine.docstore.match(docs_path, node.col, node.op, node.value)


def _member(sorted_arr: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """bool mask: vals ∈ sorted_arr (both int64; vals need not be sorted).
    The one sorted-membership kernel in the index package — inverse of
    deletes.live_mask."""
    from .deletes import live_mask

    return ~live_mask(sorted_arr, vals)


def _intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[_member(b, a)]


def _union_sum(
    ids: np.ndarray, scores: Optional[np.ndarray],
    new_ids: np.ndarray, new_scores: np.ndarray,
):
    """(ids, scores) ∪ (new_ids, new_scores) with scores summed where a doc
    appears in both — the running left-fold keeps float addition in clause
    order (ES should-clause sum)."""
    if scores is None:
        scores = np.zeros(ids.size, dtype=np.float64)
    if ids.size == 0:
        return new_ids.copy(), new_scores.astype(np.float64, copy=True)
    if new_ids.size == 0:
        return ids, scores
    merged = np.union1d(ids, new_ids)
    out = np.zeros(merged.size, dtype=np.float64)
    pos_old = np.searchsorted(merged, ids)
    out[pos_old] += scores
    pos_new = np.searchsorted(merged, new_ids)
    out[pos_new] += new_scores
    return merged, out


def execute(engine, node: Node, k: int = 10) -> List[Tuple[int, float]]:
    """Evaluate a parsed query against a QueryEngine → top-k
    [(doc_id, score)], score desc then doc_id asc; a pure-filter query
    (no text clause anywhere) returns score 0.0 for every match, ordered
    by doc_id; a query whose every clause analyzes away (stopwords only)
    matches nothing."""
    _validate(node)
    e = _eval(engine, node)
    if e is _NEUTRAL:
        return []
    ids, scores = e
    if ids.size and engine._deleted.size:
        live = engine._live(ids)
        ids = ids[live]
        scores = scores[live] if scores is not None else None
    if ids.size == 0 or k <= 0:
        return []
    if scores is None:
        return [(int(d), 0.0) for d in ids[:k]]
    order = np.lexsort((ids, -scores))[:k]
    return [(int(ids[i]), float(scores[i])) for i in order]


def search_query(engine, query: str, k: int = 10) -> List[Tuple[int, float]]:
    """Parse + execute in one call (the `QueryEngine.search_query` body)."""
    return execute(engine, parse(query), k)


def matching_docs(engine, query: str, *, columns=None, docs_path=None):
    """The Kibana DASHBOARD QUERY CONTEXT as a Ray Dataset: every panel in
    the reference's dashboard (/root/reference/export.json — metric /
    terms / date_histogram aggs) recomputes over the docs matching the
    search-bar query; this returns that match set as a streaming Dataset
    so the existing agg operators (`pipelines/aggs.py` terms_topk /
    date_histogram / metric_aggs, any groupby) compose directly:

        eng = QueryEngine(index_dir)
        terms_topk(matching_docs(eng, 'lang:en AND market'), "source", k=5)

    The matched id set ships ONCE via ``ray.put`` (sorted int64 — the same
    O(matches) driver bound as a search result) and each read batch
    filters vectorized (searchsorted); the docs read streams with column
    projection — the corpus is never collected."""
    import ray
    import ray.data as rd

    from .. import fsio

    docs_path = docs_path or engine.manifest.get("docs_path")
    if docs_path is None:
        raise ValueError("matching_docs needs docs_path (or manifest docs_path)")
    e = _eval(engine, parse(query))
    ids = e[0] if e is not _NEUTRAL else _EMPTY[0]
    if ids.size and engine._deleted.size:
        ids = ids[engine._live(ids)]
    ids_ref = ray.put(ids)

    # doc_id is needed for the match filter; honor the caller's projection
    # exactly by dropping it again after filtering when it wasn't requested
    drop_id = columns is not None and "doc_id" not in columns
    read_cols = (["doc_id"] + list(columns)) if drop_id else columns
    _dfs, _dpath = fsio.resolve(docs_path)
    ds = rd.read_parquet(_dpath, filesystem=_dfs, columns=read_cols)

    def keep(batch):
        import ray as _ray

        allowed = _ray.get(ids_ref)
        bids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        import pyarrow as pa_

        out = batch.filter(pa_.array(_member(allowed, bids)))
        return out.drop_columns(["doc_id"]) if drop_id else out

    return ds.map_batches(keep, batch_format="pyarrow")
