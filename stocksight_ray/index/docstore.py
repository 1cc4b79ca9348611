"""In-memory docs-table columns for one serving engine.

The index stores no positions and no metadata, so phrase verification
(ES ``match_phrase``) and field filters (``lang:de``, ``polarity:>=0.5``)
read the docs table.  Elasticsearch answers both from index-resident
structures; here each engine (``QueryEngine``, over the whole index or one
shard) holds one ``DocStore`` that reads a docs column ONCE, on first use,
and serves every later phrase or filter clause from memory:

* a column is cached per ``(docs_path, column)`` — ``search_sorted`` /
  ``search_filtered`` accept a per-call docs path, so the path is part of
  the key;
* it is kept sorted by ``doc_id`` and limited to the engine's indexed ids
  (its norms: a shard engine holds only its shard's id range, and docs
  purged by ``compact`` are gone from the norms, so they are gone here);
* phrase candidates fetch their texts with one ``take``; a filter clause is
  one ``pyarrow.compute`` comparison over the cached column.

Memory bound: the Arrow bytes of the loaded columns for the engine's ids —
the text column dominates (~460 B/doc of ``text_clean``: ~215 MB over all
shards at 471k docs), metadata columns are a few bytes per doc each.
Columns stay until the engine is dropped; engines are rebuilt after index
maintenance (``compact``, ``upsert_docs``), which is also when the docs
table changes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .deletes import live_mask

_CMP = {
    "==": pc.equal, "!=": pc.not_equal,
    "<": pc.less, "<=": pc.less_equal,
    ">": pc.greater, ">=": pc.greater_equal,
}


def _numeric(t: pa.DataType) -> bool:
    return pa.types.is_integer(t) or pa.types.is_floating(t)


def _as_column_type(value, typ: pa.DataType, col: str):
    """The filter value as an Arrow scalar/array comparable with ``typ`` —
    the one place a filter value gets its type (the query-string parser
    keeps the raw text, so ``code:007`` against a string column matches
    ``"007"``).  Numbers against a numeric column keep their own type
    (compute kernels promote int/float pairs exactly); anything else is
    cast to the column type (``warc_ts:>=2021-01-15`` → timestamp), and a
    string the integer cast rejects is cast to float64 (``n:>=2.5`` on an
    int column).  A value that does not cast is a loud ``ValueError``
    naming the field, never a filter that silently matches nothing."""
    v = pa.array(list(value)) if isinstance(value, (list, tuple, set)) \
        else pa.scalar(value)
    if v.type == typ or (_numeric(v.type) and _numeric(typ)):
        return v
    casts = [typ]
    if pa.types.is_integer(typ) and pa.types.is_string(v.type):
        casts.append(pa.float64())
    for to in casts:
        try:
            return v.cast(to)
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError,
                pa.ArrowTypeError) as e:
            err = e
    raise ValueError(
        f"{col}: cannot compare {value!r} with the docs column type {typ}"
    ) from err


class DocStore:
    """Docs columns for ONE engine's indexed ids (see module docstring).
    ``ids`` is the engine's sorted int64 doc_id array (its norms)."""

    def __init__(self, ids: np.ndarray):
        self._ids = ids
        self._cols: Dict[Tuple[str, str], Tuple[np.ndarray, pa.Array]] = {}

    def column(self, docs_path: str, col: str) -> Tuple[np.ndarray, pa.Array]:
        """(sorted doc ids, values aligned with them) for one docs column,
        read on first use.  Only ids the engine indexes are kept."""
        key = (docs_path, col)
        hit = self._cols.get(key)
        if hit is None:
            hit = self._cols[key] = self._load(docs_path, col)
        return hit

    def _load(self, docs_path: str, col: str) -> Tuple[np.ndarray, pa.Array]:
        import pyarrow.dataset as pads

        from .. import fsio

        fs, path = fsio.resolve(docs_path)
        dset = pads.dataset(path, filesystem=fs)
        for name in ("doc_id", col):
            if name not in dset.schema.names:
                raise ValueError(f"docs table {docs_path} has no column {name!r}")
        if self._ids.size == 0:
            return np.empty(0, np.int64), pa.array([], dset.schema.field(col).type)
        # the id-range predicate prunes row groups outside the engine's ids
        # (a shard reads only its range); the exact membership mask below
        # drops ids the engine does not index (e.g. purged by compact)
        doc_id = pads.field("doc_id")
        tbl = dset.to_table(
            columns=["doc_id", col],
            filter=(doc_id >= int(self._ids[0])) & (doc_id <= int(self._ids[-1])),
        )
        ids = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ~live_mask(self._ids, ids)
        ids = ids[keep]
        order = np.argsort(ids, kind="stable")
        vals = tbl[col].filter(pa.array(keep)).take(pa.array(order))
        return ids[order], vals.combine_chunks()

    def take(self, docs_path: str, col: str,
             ids: np.ndarray) -> Tuple[np.ndarray, pa.Array]:
        """Values of ``col`` for ``ids`` (input order kept); ids absent from
        the docs table are dropped.  → (found ids, values)."""
        have, vals = self.column(docs_path, col)
        pos = np.searchsorted(have, ids)
        ok = pos < have.size
        ok[ok] = have[pos[ok]] == ids[ok]
        return ids[ok], vals.take(pa.array(pos[ok]))

    def match(self, docs_path: str, col: str, op: str, value) -> np.ndarray:
        """Sorted doc ids whose ``col`` satisfies ``op value`` — op in
        {==, !=, <, <=, >, >=, in}; rows with a null value never match."""
        if op != "in" and op not in _CMP:
            raise ValueError(f"unsupported filter op {op!r}")
        have, vals = self.column(docs_path, col)
        v = _as_column_type(value, vals.type, col)
        mask = (pc.is_in(vals, value_set=v) if op == "in"
                else _CMP[op](vals, v))
        return have[mask.fill_null(False).to_numpy(zero_copy_only=False)]


def search_phrase(engine, query: str, k: int, docs_path: Optional[str] = None,
                  text_col: Optional[str] = None) -> List[Tuple[int, float]]:
    """Phrase match (ES ``match_phrase``, the body of
    ``QueryEngine.search_phrase``): conjunctive candidates from the
    engine's postings (scored with its BM25 AND path),
    then exact consecutive-terms verification of each candidate's text
    from the engine's ``DocStore`` — the standard positionless design.
    Texts are analyzed with the engine's memoized analyzer, the same chain
    that built the index."""
    docs_path = docs_path or engine.manifest.get("docs_path")
    text_col = text_col or engine.manifest.get("docs_text_col", "text")
    if docs_path is None:
        raise ValueError("search_phrase needs docs_path (or manifest docs_path)")
    terms = engine._analyze(query)  # keep duplicates + order
    if not terms:
        return []
    # pre-analyzed terms go straight to the AND scorer — no re-analysis
    cand = engine._search_and_terms(list(dict.fromkeys(terms)), 1 << 30)
    if not cand:
        return []
    score_of = dict(cand)
    found, texts = engine.docstore.take(
        docs_path, text_col, np.fromiter(score_of, np.int64, len(score_of))
    )
    out = []
    n = len(terms)
    for doc_id, text in zip(found.tolist(), texts.to_pylist()):
        toks = engine._analyze(text or "")
        if any(toks[i: i + n] == terms for i in range(len(toks) - n + 1)):
            out.append((doc_id, score_of[doc_id]))
    # candidates arrive in (score desc, doc_id asc) order and take keeps it
    return out[:k]
