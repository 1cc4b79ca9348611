"""News-headline mode — the reference's second pipeline
(/root/reference/sentiment.py:267-337, NewsHeadlineListener) re-expressed
as Ray Data stages over the webtext table:

    read_parquet(url, warc_ts, html)
      → map_batches(extract_headlines)   E2: <h3> .next^4 rule, flat-map one
                                         row per headline
      → dedup by headline text           the reference's self.headlines list
                                         (A1) as a shuffle, first-seen wins
                                         (earliest warc_ts, then url)
      → map_batches(NewsEnrichStage)     T1 tokens (normalized — the
                                         reference keeps news tokens
                                         mixed-case at sentiment.py:296, an
                                         asymmetry we deliberately normalize,
                                         documented in FIXTURES.md) +
                                         F1-F3 admission + M1 sentiment
      → newsheadline table (date, location, message, polarity,
        subjectivity, sentiment) — the ES newsheadline mapping
        (/root/reference/sentiment.py:813-853)
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.htmlx import extract_headlines
from ..functions.sentiment import sentiment_analysis
from ..functions.tokenize import nltk_style_tokens
from ..geometry import bucket_groups


def headlines_batch(batch: pa.Table) -> pa.Table:
    """E2 flat-map: one output row per extracted headline."""
    urls, tss, texts = [], [], []
    for url, ts, html in zip(
        batch["url"].to_pylist(),
        batch["warc_ts"].to_pylist(),
        batch["html"].to_pylist(),
    ):
        for h in extract_headlines(html):
            urls.append(url)
            tss.append(ts)
            texts.append(h)
    return pa.table(
        {
            "location": pa.array(urls, pa.string()),   # reference field name:
            "date": pa.array(tss, pa.timestamp("us")),  # source url = location
            "message": pa.array(texts, pa.string()),
        }
    )


def _dedup_headline(group: pd.DataFrame) -> pd.DataFrame:
    g = group.sort_values(["message", "date", "location"], kind="stable")
    return g.drop_duplicates("message", keep="first")


def dedup_headlines(ds, num_buckets: Optional[int] = None):
    """The reference's in-process ``self.headlines`` list
    (/root/reference/sentiment.py:272,281-282) as a shuffle: BUCKET of
    hash(message) partitions (fixed count — one vectorized pandas dedup per
    bucket, not one task per distinct headline); earliest (date, location)
    wins deterministically.  Bucket values only steer the shuffle (equal
    messages always co-locate)."""
    return bucket_groups("message", _dedup_headline, ds,
                         num_buckets=num_buckets)


class NewsEnrichStage:
    """Enrich stage, run by ``_news_enrich_task``: tokens + admission
    (F1-F3 with the news-mode min_tokens from sentiment.py:300) + sentiment
    (M1)."""

    def __init__(
        self,
        min_tokens: int = 5,
        tokens_required: Tuple[str, ...] = (),
        tokens_ignored: Tuple[str, ...] = (),
        min_required: int = 1,
    ):
        self.min_tokens = min_tokens
        self.required = tuple(tokens_required)
        self.ignored = frozenset(tokens_ignored)
        self.min_required = min_required

    def __call__(self, batch: pa.Table) -> pa.Table:
        msgs = batch["message"].to_pylist()
        tokens = [nltk_style_tokens(m) for m in msgs]
        admitted: List[bool] = []
        for toks in tokens:
            ok = len(toks) >= self.min_tokens
            if ok and self.ignored and not self.ignored.isdisjoint(toks):
                ok = False
            if ok and self.required:
                found = sum(1 for t in self.required if t in toks)
                ok = found >= self.min_required
            admitted.append(ok)
        pol = np.empty(len(msgs))
        sub = np.empty(len(msgs))
        labels: List[str] = []
        for i, m in enumerate(msgs):
            p, s, lab = sentiment_analysis(m)
            pol[i] = p
            sub[i] = s
            labels.append(lab)
        return (
            batch.append_column("admitted", pa.array(admitted, pa.bool_()))
            .append_column("polarity", pa.array(pol, pa.float64()))
            .append_column("subjectivity", pa.array(sub, pa.float64()))
            .append_column("sentiment", pa.array(labels, pa.string()))
        )


_NEWS_ENRICH_CACHE: dict = {}


def _news_enrich_task(batch: pa.Table, *, min_tokens, tokens_required,
                      tokens_ignored) -> pa.Table:
    """Task-form NewsEnrichStage: one stage per (worker process, config),
    reused across tasks — see news_pipeline."""
    key = (min_tokens, tuple(tokens_required), tuple(tokens_ignored))
    stage = _NEWS_ENRICH_CACHE.get(key)
    if stage is None:
        stage = _NEWS_ENRICH_CACHE.setdefault(
            key,
            NewsEnrichStage(
                min_tokens=min_tokens,
                tokens_required=tokens_required,
                tokens_ignored=tokens_ignored,
            ),
        )
    return stage(batch)


def news_pipeline(
    input_path,
    *,
    min_tokens: int = 5,
    tokens_required: Tuple[str, ...] = (),
    tokens_ignored: Tuple[str, ...] = (),
    batch_size: int = 512,
):
    """Full news mode: webtext → newsheadline table (lazy Dataset)."""
    import ray.data as rd

    if isinstance(input_path, str):
        ds = rd.read_parquet(input_path, columns=["url", "warc_ts", "html"])
    else:
        ds = input_path

    ds = ds.map_batches(headlines_batch, batch_format="pyarrow", batch_size=batch_size)
    ds = dedup_headlines(ds)
    # task form, same policy as ingest_webtext: stage construction is free
    # (lexicons are module data)
    return ds.map_batches(
        _news_enrich_task,
        fn_kwargs=dict(
            min_tokens=min_tokens,
            tokens_required=tokens_required,
            tokens_ignored=tokens_ignored,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
