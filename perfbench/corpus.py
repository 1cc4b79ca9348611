"""Seeded inputs: webtext pages, the benchmark's own inversion of the indexed
text, and the query mix drawn from it.

Everything here is computed from the seed and the generated pages alone; the
program under test only ever receives the pages (and, for maintenance, id
batches and replacement text).  The inversion doubles as the independent
reference the output checks compare against.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, List

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

TEXT_COL = "text_clean"
NUM_PARTITIONS = 8
# A range filter on the timestamp column.  Its value does not depend on the
# seed, so the op fails (or succeeds) the same way in every run.
WARC_TS_QUERY = "stock AND warc_ts:>=2021-01-15"
WARC_TS_FROM = datetime(2021, 1, 15)
MARKER = "qqmarkerzz"

_WORD_RE = re.compile(r"^[a-z][a-z0-9]*$")


def write_pages(path: str, n_pages: int, seed: int) -> pa.Table:
    """Generate ``n_pages`` webtext pages (~5% duplicate urls, ~90% ``en``)
    and write them as one Parquet file.  Returns the table, ground-truth
    ``text`` included (the program reads only url, warc_ts, html, lang)."""
    from stocksight_ray.webtext import generate_table

    table = generate_table(n_pages, seed=seed)
    pq.write_table(table, path)
    return table


@dataclass
class Inversion:
    """term -> {doc_id: tf} over the analyzed ``text_clean`` of every doc,
    computed with the analyzer alone (no index code)."""

    doc_ids: np.ndarray
    doc_len: Dict[int, int]
    postings: Dict[str, Dict[int, int]]
    tokens: Dict[int, List[str]]
    surface: Dict[str, str] = field(default_factory=dict)

    @property
    def n_docs(self) -> int:
        return len(self.doc_len)

    @property
    def avgdl(self) -> float:
        return sum(self.doc_len.values()) / max(1, self.n_docs)

    def df(self, term: str) -> int:
        return len(self.postings.get(term, ()))


def invert(ids, texts) -> Inversion:
    from stocksight_ray.functions.analyzer import make_cached_analyzer

    analyze = make_cached_analyzer("english")
    postings: Dict[str, Dict[int, int]] = {}
    doc_len: Dict[int, int] = {}
    tokens: Dict[int, List[str]] = {}
    surface: Dict[str, str] = {}
    word_terms: Dict[str, List[str]] = {}
    for d, text in zip(ids, texts):
        d = int(d)
        toks = analyze(text or "")
        tokens[d] = toks
        doc_len[d] = len(toks)
        for t, c in Counter(toks).items():
            postings.setdefault(t, {})[d] = c
        for w in (text or "").split():
            w = w.rstrip(".,;:!?").lower()
            if w in word_terms or not _WORD_RE.match(w):
                continue
            at = word_terms[w] = analyze(w)
            if len(at) == 1:
                surface.setdefault(at[0], w)
    return Inversion(np.array(sorted(doc_len), dtype=np.int64), doc_len,
                     postings, tokens, surface)


def with_changes(inv: Inversion, deleted, updates: Dict[int, str]) -> Inversion:
    """The inversion of the live corpus after deleting ``deleted`` and
    replacing the text of the ids in ``updates``."""
    from stocksight_ray.functions.analyzer import make_cached_analyzer

    analyze = make_cached_analyzer("english")
    gone = {int(d) for d in deleted}
    tokens = {d: t for d, t in inv.tokens.items() if d not in gone}
    for d, text in updates.items():
        tokens[int(d)] = analyze(text)
    postings: Dict[str, Dict[int, int]] = {}
    for d, toks in tokens.items():
        for t, c in Counter(toks).items():
            postings.setdefault(t, {})[d] = c
    doc_len = {d: len(t) for d, t in tokens.items()}
    return Inversion(np.array(sorted(doc_len), dtype=np.int64), doc_len,
                     postings, tokens, inv.surface)


# ---------------------------------------------------------------------------
# Query mix
# ---------------------------------------------------------------------------

CLASSES = ("head", "mid", "tail")


def df_classes(inv: Inversion) -> Dict[str, List[str]]:
    """Terms that have a surface word, split by document frequency:
    head >= 10% of docs, tail <= 0.2% of docs (at least 2), mid between."""
    n = inv.n_docs
    head_min, tail_max = 0.10 * n, max(2.0, 0.002 * n)
    out: Dict[str, List[str]] = {c: [] for c in CLASSES}
    for t in sorted(inv.surface):
        df = inv.df(t)
        c = "head" if df >= head_min else "tail" if df <= tail_max else "mid"
        out[c].append(t)
    for c in CLASSES:
        if not out[c]:
            raise RuntimeError(f"corpus has no {c} terms; raise the page count")
    return out


@dataclass
class Op:
    kind: str        # "bm25" | "qstring" | "phrase"
    text: str        # what is sent to the engine
    cls: str = ""    # bm25: df class; qstring: template name
    spec: tuple = () # structure the output check evaluates independently


def _bm25_ops(rng, classes, inv, n) -> List[Op]:
    ops = []
    for i in range(n):
        c = CLASSES[i % 3]
        terms = rng.sample(classes[c], min(len(classes[c]), rng.randint(1, 3)))
        ops.append(Op("bm25", " ".join(inv.surface[t] for t in terms), c,
                      tuple(terms)))
    return ops


# Query-string templates.  ``spec`` is a small boolean tree over analyzed
# terms, prefixes and docs-table predicates:
#   ("term", t) | ("prefix", p) | ("eq", col, v) | ("ge", col, v)
#   ("and", a, b, ...) | ("or", a, b, ...) | ("not", a)
QSTRING_TEMPLATES = ("and", "and_not", "group", "wildcard", "lang",
                     "sentiment", "polarity", "warc_ts")


def _qstring_op(rng, name, classes, inv) -> Op:
    head, mid = classes["head"], classes["mid"]

    def word(pool):
        t = rng.choice(pool)
        return inv.surface[t], ("term", t)

    if name == "and":
        (a, sa), (b, sb) = word(head), word(mid)
        return Op("qstring", f"{a} AND {b}", name, ("and", sa, sb))
    if name == "and_not":
        (a, sa), (b, sb) = word(mid), word(head)
        return Op("qstring", f"{a} AND NOT {b}", name, ("and", sa, ("not", sb)))
    if name == "group":
        (a, sa), (b, sb), (c, sc) = word(mid), word(mid), word(head)
        return Op("qstring", f"({a} OR {b}) AND {c}", name,
                  ("and", ("or", sa, sb), sc))
    if name == "wildcard":
        (a, sa) = word(head)
        w = inv.surface[rng.choice(mid)]
        p = w[: max(3, min(5, len(w) - 1))]
        return Op("qstring", f"{p}* AND {a}", name,
                  ("and", ("prefix", p), sa))
    if name == "lang":
        (a, sa) = word(head)
        v = rng.choice(["en", "de", "ja"])
        return Op("qstring", f"{a} AND lang:{v}", name,
                  ("and", sa, ("eq", "lang", v)))
    if name == "sentiment":
        (a, sa) = word(mid)
        v = rng.choice(["positive", "negative", "neutral"])
        return Op("qstring", f"{a} AND sentiment:{v}", name,
                  ("and", sa, ("eq", "sentiment", v)))
    if name == "polarity":
        (a, sa), (b, sb) = word(mid), word(head)
        v = rng.choice([0.0, 0.1, 0.25, 0.5])
        return Op("qstring", f"({a} OR {b}) AND polarity:>={v}", name,
                  ("and", ("or", sa, sb), ("ge", "polarity", v)))
    if name == "warc_ts":
        return Op("qstring", WARC_TS_QUERY, name,
                  ("and", ("term", "stock"), ("ge", "warc_ts", WARC_TS_FROM)))
    raise ValueError(name)


def _phrase_ops(rng, ids, texts, inv, n) -> List[Op]:
    """Two-word phrases from adjacent whitespace tokens of the corpus text,
    both words analyzing to exactly one term (so each phrase has a hit).

    Phrase cost follows the number of docs holding both words, which spans
    three orders of magnitude, so the ops are stratified on it: ``n`` target
    counts are spaced evenly in log scale from 1 doc to 10% of the docs, the
    pool phrase nearest each target is taken, and the picks are ordered along
    a golden-ratio sequence so that every prefix (the phrases one run
    reaches) covers the whole range.  Every seed then gets the same spread
    of phrase selectivity."""
    from stocksight_ray.functions.analyzer import make_cached_analyzer

    analyze = make_cached_analyzer("english")
    pool: List[tuple] = []
    seen = set()
    order = list(range(len(ids)))
    rng.shuffle(order)
    for i in order:
        words = (texts[i] or "").split()
        if len(words) < 2:
            continue
        j = rng.randrange(len(words) - 1)
        w1, w2 = words[j].lower(), words[j + 1].lower()
        if not (_WORD_RE.match(w1) and _WORD_RE.match(w2)):
            continue
        t1, t2 = analyze(w1), analyze(w2)
        if len(t1) != 1 or len(t2) != 1 or (w1, w2) in seen:
            continue
        seen.add((w1, w2))
        both = len(inv.postings[t1[0]].keys() & inv.postings[t2[0]].keys())
        pool.append((both, w1, w2, t1[0], t2[0]))
        if len(pool) == 8 * n:
            break
    if len(pool) < n:
        raise RuntimeError(f"{len(pool)} candidate phrases for {n} phrase ops; "
                           "raise the page count")
    top = math.log(max(2.0, 0.1 * inv.n_docs))
    picked = []
    for i in range(n):
        target = top * (i + 0.5) / n
        j = min(range(len(pool)), key=lambda j: abs(math.log(pool[j][0]) - target))
        picked.append(pool.pop(j))
    spread = sorted(range(n), key=lambda i: (i * 0.6180339887498949) % 1.0)
    return [Op("phrase", f'"{w1} {w2}"', "phrase", (t1, t2))
            for _, w1, w2, t1, t2 in (picked[i] for i in spread)]


@dataclass
class Round:
    """One round of the closed-loop client: the same operation counts in
    every round, so the failed share is the same in every run."""

    bm25: int
    qstring: int  # multiple of len(QSTRING_TEMPLATES)
    phrase: int


def make_rounds(seed: int, inv: Inversion, ids, texts, shape: Round,
                n_rounds: int) -> List[List[Op]]:
    """``n_rounds`` rounds of interleaved ops, drawn from the seed."""
    rng = random.Random(f"ops:{seed}")
    classes = df_classes(inv)
    bm25 = _bm25_ops(rng, classes, inv, shape.bm25 * n_rounds)
    reps = shape.qstring // len(QSTRING_TEMPLATES)
    qs = [_qstring_op(rng, name, classes, inv)
          for _ in range(reps * n_rounds) for name in QSTRING_TEMPLATES]
    phrases = _phrase_ops(rng, ids, texts, inv, max(1, shape.phrase * n_rounds))
    rounds = []
    for r in range(n_rounds):
        ops = (bm25[r * shape.bm25:(r + 1) * shape.bm25]
               + qs[r * shape.qstring:(r + 1) * shape.qstring]
               + [phrases[(r * shape.phrase + i) % len(phrases)]
                  for i in range(shape.phrase)])
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def pick(rng: random.Random, ids: np.ndarray, n: int) -> List[int]:
    return sorted(int(x) for x in rng.sample(list(ids), min(n, len(ids))))

