"""Output checks that do not trust the program.

Each check compares an output against a computation made here (pyarrow
group_by, the benchmark's own inversion, a naive BM25) or a property the
method must have.  Each returns a list of error strings; empty means the
output passed.  ``self_test`` feeds every check a corrupted copy of a real
output and reports any check that fails to reject it.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from corpus import Inversion

K1, B = 1.2, 0.75
SCORE_RTOL = 1e-9

Hits = List[Tuple[int, float]]


# ---------------------------------------------------------------------------
# Build outputs
# ---------------------------------------------------------------------------

def extraction(pages: pa.Table, docs: pa.Table) -> List[str]:
    """Extracted text is byte-identical to the generator's ground truth,
    keyed on (url, warc_ts) — urls alone repeat by design."""
    truth = {(u, ts): t for u, ts, t in zip(
        pages["url"].to_pylist(), pages["warc_ts"].to_pylist(),
        pages["text"].to_pylist())}
    errs = []
    for u, ts, t in zip(docs["url"].to_pylist(), docs["warc_ts"].to_pylist(),
                        docs["text"].to_pylist()):
        want = truth.get((u, ts))
        if want is None:
            errs.append(f"doc for unknown page {u} @ {ts}")
        elif want.encode() != t.encode():
            errs.append(f"text differs for {u} @ {ts}")
    return errs[:5]


def dedup_ids(pages: pa.Table, docs: pa.Table) -> List[str]:
    """Newest-wins dedup over the pages that survive the empty-text filter,
    recomputed with a pyarrow group_by; doc_ids dense and unique."""
    from stocksight_ray.functions.clean import clean_text_array

    nonempty = pc.greater(pc.utf8_length(clean_text_array(pages["text"])), 0)
    kept = pages.filter(nonempty).group_by("url").aggregate([("warc_ts", "max")])
    want = set(zip(kept["url"].to_pylist(), kept["warc_ts_max"].to_pylist()))
    got = list(zip(docs["url"].to_pylist(), docs["warc_ts"].to_pylist()))
    errs = []
    if len(got) != len(set(got)) or set(got) != want:
        errs.append(f"dedup keeps {len(set(got))} (url, warc_ts) of "
                    f"{len(want)} expected, {len(set(got) ^ want)} differ")
    ids = np.sort(docs["doc_id"].to_numpy(zero_copy_only=False))
    if not np.array_equal(ids, np.arange(len(ids))):
        errs.append("doc_ids are not dense and unique")
    return errs


def norms(manifest: dict, norm_ids, norm_lens, inv: Inversion) -> List[str]:
    """num_docs and avgdl match the norms, and the norms match the
    benchmark's own analysis of the indexed text."""
    errs = []
    n = len(norm_ids)
    if manifest["num_docs"] != n or n != inv.n_docs:
        errs.append(f"num_docs {manifest['num_docs']} norms {n} "
                    f"expected {inv.n_docs}")
    if n and not math.isclose(manifest["avgdl"], float(np.sum(norm_lens)) / n,
                              rel_tol=1e-12):
        errs.append("manifest avgdl does not match the norms")
    if not math.isclose(manifest["avgdl"], inv.avgdl, rel_tol=1e-12):
        errs.append(f"avgdl {manifest['avgdl']} expected {inv.avgdl}")
    bad = [int(d) for d, l in zip(norm_ids, norm_lens)
           if inv.doc_len.get(int(d)) != int(l)]
    if bad:
        errs.append(f"{len(bad)} doc lengths differ, e.g. doc {bad[0]}")
    return errs


def postings(lookup, inv: Inversion, terms: Iterable[str]) -> List[str]:
    """Sampled terms' df and (doc_id, tf) postings match the inversion.
    ``lookup(term)`` returns (df, doc_ids, tfs) read from the index."""
    errs = []
    for t in terms:
        want = inv.postings.get(t, {})
        got = lookup(t)
        if got is None:
            errs.append(f"term {t!r} missing from the index")
            continue
        df, ids, tfs = got
        wids = np.array(sorted(want), dtype=np.int64)
        wtfs = np.array([want[d] for d in wids], dtype=np.int64)
        if df != len(want) or not np.array_equal(ids, wids) \
                or not np.array_equal(tfs, wtfs):
            errs.append(f"postings of {t!r} differ (df {df} vs {len(want)})")
    return errs


# ---------------------------------------------------------------------------
# Query outputs
# ---------------------------------------------------------------------------

def bm25_scores(inv: Inversion, terms: Sequence[str]) -> Dict[int, float]:
    """Naive BM25 over the inversion: Lucene idf, k1=1.2, b=0.75, summed in
    query-term order."""
    n, avgdl = inv.n_docs, inv.avgdl
    acc: Dict[int, float] = {}
    for t in dict.fromkeys(terms):
        post = inv.postings.get(t)
        if not post:
            continue
        idf = math.log(1.0 + (n - len(post) + 0.5) / (len(post) + 0.5))
        for d, tf in post.items():
            dl = inv.doc_len[d]
            acc[d] = acc.get(d, 0.0) + idf * tf * (K1 + 1.0) / (
                tf + K1 * (1.0 - B + B * dl / avgdl))
    return acc


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=SCORE_RTOL, abs_tol=1e-12)


def ranked(hits: Hits, scores: Dict[int, float], k: int) -> List[str]:
    """``hits`` is the top-k of ``scores`` by (score desc, doc_id asc);
    scores agree within 1e-9 relative; a swap is accepted only between
    docs whose reference scores tie within that tolerance."""
    want = sorted(scores.items(), key=lambda x: (-x[1], x[0]))[:k]
    if len(hits) != len(want):
        return [f"{len(hits)} hits, expected {len(want)}"]
    for r, ((d, s), (wd, ws)) in enumerate(zip(hits, want)):
        if d not in scores:
            return [f"rank {r}: doc {d} does not match the query"]
        if not _close(s, scores[d]):
            return [f"rank {r}: doc {d} score {s!r} expected {scores[d]!r}"]
        if d != wd and not _close(scores[d], ws):
            return [f"rank {r}: doc {d}, expected doc {wd}"]
    for (d1, s1), (d2, s2) in zip(hits, hits[1:]):
        if s2 > s1 or (s2 == s1 and d2 < d1):
            return [f"hits out of order at doc {d2}"]
    return []


def eval_spec(spec, inv: Inversion, docs: pa.Table) -> np.ndarray:
    """Sorted doc_ids matching a query-string structure (corpus.Op.spec),
    with docs-table predicates evaluated by pyarrow.compute."""
    op = spec[0]
    live = inv.doc_ids
    if op == "term":
        return np.array(sorted(inv.postings.get(spec[1], {})), dtype=np.int64)
    if op == "prefix":
        out = set()
        for t, post in inv.postings.items():
            if t.startswith(spec[1]):
                out.update(post)
        return np.array(sorted(out), dtype=np.int64)
    if op in ("eq", "ge"):
        col = docs[spec[1]]
        mask = pc.equal(col, spec[2]) if op == "eq" else \
            pc.greater_equal(col, pa.scalar(spec[2], col.type))
        ids = docs["doc_id"].filter(mask).to_numpy(zero_copy_only=False)
        return np.intersect1d(ids, live)
    if op == "not":
        return np.setdiff1d(live, eval_spec(spec[1], inv, docs))
    parts = [eval_spec(s, inv, docs) for s in spec[1:]]
    out = parts[0]
    for p in parts[1:]:
        out = np.intersect1d(out, p) if op == "and" else np.union1d(out, p)
    return out


def matches(hits: Hits, match_ids: np.ndarray, k: int) -> List[str]:
    """Every hit satisfies the query and the hit count is min(k, matches)."""
    got = [d for d, _ in hits]
    bad = [d for d in got if not np.isin(d, match_ids)]
    if bad:
        return [f"doc {bad[0]} does not satisfy the query"]
    if len(set(got)) != len(got):
        return ["a doc is returned twice"]
    if len(got) != min(k, len(match_ids)):
        return [f"{len(got)} hits, expected {min(k, len(match_ids))}"]
    return []


def phrase_scan(inv: Inversion, t1: str, t2: str) -> np.ndarray:
    """Docs whose analyzed text holds ``t1`` immediately followed by ``t2``."""
    cand = set(inv.postings.get(t1, {})) & set(inv.postings.get(t2, {}))
    out = []
    for d in cand:
        toks = inv.tokens[d]
        if any(a == t1 and b == t2 for a, b in zip(toks, toks[1:])):
            out.append(d)
    return np.array(sorted(out), dtype=np.int64)


def none_deleted(hits: Hits, deleted: np.ndarray) -> List[str]:
    bad = [d for d, _ in hits if np.isin(d, deleted)]
    return [f"deleted doc {bad[0]} returned"] if bad else []


def same_hits(a: Hits, b: Hits) -> List[str]:
    """Two engines over the same index return the same ranked hits."""
    if [d for d, _ in a] != [d for d, _ in b]:
        return ["sharded and single-engine hits differ"]
    if not all(_close(x, y) for (_, x), (_, y) in zip(a, b)):
        return ["sharded and single-engine scores differ"]
    return []


# ---------------------------------------------------------------------------
# Self-test: every check must reject a corrupted output
# ---------------------------------------------------------------------------

def self_test(inv: Inversion, scored: Optional[Tuple[Hits, Dict[int, float]]],
              pages: Optional[pa.Table] = None,
              docs: Optional[pa.Table] = None,
              deleted: Optional[np.ndarray] = None) -> List[str]:
    """Corrupt real outputs four ways and require each to be rejected:
    a swapped rank, a score off by 1e-6, a deleted id in a hit list, one
    changed byte of text.  Returns the corruptions that passed."""
    missed = []
    if scored is not None:
        hits, scores = scored
        i = next((j for j in range(len(hits) - 1)
                  if not _close(hits[j][1], hits[j + 1][1])), None)
        if i is not None:
            swapped = list(hits)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            if not ranked(swapped, scores, len(hits)):
                missed.append("swapped rank")
        off = [(d, s + 1e-6 if j == 0 else s) for j, (d, s) in enumerate(hits)]
        if not ranked(off, scores, len(hits)):
            missed.append("score off by 1e-6")
        if deleted is not None and deleted.size:
            bad = [(int(deleted[0]), hits[0][1])] + list(hits[1:])
            if not none_deleted(bad, deleted):
                missed.append("deleted id in hits")
    if pages is not None and docs is not None and docs.num_rows:
        texts = docs["text"].to_pylist()
        j = next(i for i, t in enumerate(texts) if t)
        t = texts[j]
        texts[j] = t[:-1] + chr(ord(t[-1]) ^ 1)
        bad_docs = docs.set_column(docs.schema.get_field_index("text"), "text",
                                   pa.array(texts, pa.string()))
        if not extraction(pages, bad_docs):
            missed.append("changed byte of text")
    return missed
