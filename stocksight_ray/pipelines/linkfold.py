"""J2: link-score fold — the reference's merge of linked-article sentiment
into the parent document's score (/root/reference/sentiment.py:201-222).

Reference semantics, reproduced exactly (order matters):

    urls_pol = urls_sub = 0
    for each link WITH a fetchable page (None results skipped):
        urls_pol = (urls_pol + link_pol) / 2      # recent links weigh more
        urls_sub = (urls_sub + link_sub) / 2
        sentiment = "positive" if either is positive
                    else "negative" if either is negative else "neutral"
    if urls_pol > 0: polarity = (polarity + urls_pol) / 2      # quirk: only
    if urls_sub > 0: subjectivity = (subjectivity + urls_sub) / 2  # when > 0

``fold_link_scores`` is the scalar reference-parity kernel (golden-tested);
``link_score_fold`` is the distributed operator: TWO ``bucket_groups``
shuffles — one on url attaches page scores to exploded (doc, pos, url)
rows (links missing from ``pages`` are skipped, the analogue of the
reference's failed fetches), then one on the doc id replays the ordered
fold per document.  Both run vectorized pandas per bucket (no per-key
task) and neither side is broadcast — the pages table may be corpus-sized.
"""

from __future__ import annotations


from typing import Iterable, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..geometry import bucket_groups


def fold_link_scores(
    polarity: float,
    subjectivity: float,
    sentiment: str,
    link_results: Iterable[Tuple[float, float, str]],
) -> Tuple[float, float, str]:
    """Scalar J2 fold, bit-matching /root/reference/sentiment.py:201-222."""
    urls_pol = 0.0
    urls_sub = 0.0
    for pol, sub, sen in link_results:
        urls_pol = (urls_pol + pol) / 2
        urls_sub = (urls_sub + sub) / 2
        if sentiment == "positive" or sen == "positive":
            sentiment = "positive"
        elif sentiment == "negative" or sen == "negative":
            sentiment = "negative"
        else:
            sentiment = "neutral"
    if urls_pol > 0:
        polarity = (polarity + urls_pol) / 2
    if urls_sub > 0:
        subjectivity = (subjectivity + urls_sub) / 2
    return polarity, subjectivity, sentiment


def link_score_fold(
    docs,
    pages,
    *,
    id_col: str = "doc_id",
    urls_col: str = "urls",
    pol_col: str = "polarity",
    sub_col: str = "subjectivity",
    sen_col: str = "sentiment",
    url_col: str = "url",
    num_buckets: Optional[int] = None,
):
    """Fold linked-page sentiment into each doc's scores.

    docs:  Dataset (id_col, pol, sub, sen, urls: list<string>)
    pages: Dataset (url_col, pol, sub, sen) — unique per url (first wins)
    returns Dataset (id_col, polarity, subjectivity, sentiment) folded.
    """

    # ---- stage 1: attach page scores to exploded (doc, pos, url) rows ----
    def explode(batch: pa.Table) -> pa.Table:
        lists = batch[urls_col].combine_chunks()
        lens = pc.list_value_length(lists).fill_null(0).to_numpy()
        return pa.table({
            id_col: batch[id_col].cast(pa.int64()).take(
                pc.list_parent_indices(lists)
            ),
            "pos": pa.array(
                np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)
            ),
            url_col: pc.list_flatten(lists).cast(pa.string()),
        })

    def attach(e: pd.DataFrame, d: pd.DataFrame) -> pa.Table:
        d = d.drop_duplicates(url_col)
        j = e.merge(
            d[[url_col, pol_col, sub_col, sen_col]], on=url_col, how="inner"
        )  # inner: links without a page are skipped (failed fetch -> None)
        return pa.table({
            id_col: pa.array(j[id_col].to_numpy(np.int64)),
            "pos": pa.array(j["pos"].to_numpy(np.int64)),
            "lpol": pa.array(j[pol_col].to_numpy(np.float64)),
            "lsub": pa.array(j[sub_col].to_numpy(np.float64)),
            "lsen": pa.array(j[sen_col].astype(str), pa.string()),
        })

    links = bucket_groups(
        url_col, attach,
        docs.select_columns([id_col, urls_col]).map_batches(
            explode, batch_format="pyarrow"
        ),
        pages.select_columns([url_col, pol_col, sub_col, sen_col]),
        num_buckets=num_buckets,
    )

    # ---- stage 2: replay the ordered fold per doc ----
    def fold(base: pd.DataFrame, ln: pd.DataFrame) -> pa.Table:
        ln = ln.sort_values([id_col, "pos"], kind="stable")
        # fast path: a doc with zero links folds to itself (urls_pol/sub
        # stay 0, sentiment untouched) — the typical majority; only
        # link-bearing docs replay the order-dependent sequential fold
        has_links = base[id_col].isin(ln[id_col].unique())
        plain = base[~has_links]
        ids = plain[id_col].to_numpy(np.int64).tolist()
        pols = plain[pol_col].to_numpy(np.float64).tolist()
        subs = plain[sub_col].to_numpy(np.float64).tolist()
        sens = plain[sen_col].tolist()
        by_doc = {
            did: list(zip(sub["lpol"], sub["lsub"], sub["lsen"]))
            for did, sub in ln.groupby(id_col)
        }
        for _, r in base[has_links].iterrows():
            did = int(r[id_col])
            p, s, lab = fold_link_scores(
                float(r[pol_col]), float(r[sub_col]), r[sen_col],
                by_doc.get(did, ()),
            )
            ids.append(did)
            pols.append(p)
            subs.append(s)
            sens.append(lab)
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "polarity": pa.array(pols, pa.float64()),
            "subjectivity": pa.array(subs, pa.float64()),
            "sentiment": pa.array(sens, pa.string()),
        })

    return bucket_groups(
        id_col, fold,
        docs.select_columns([id_col, pol_col, sub_col, sen_col]), links,
        num_buckets=num_buckets,
    )


def filter_pages_substring(
    pages,
    *,
    text_col: str = "text",
    marker: str = "Tweet with a location",
):
    """F5 (/root/reference/sentiment.py:538-541): linked pages whose text
    contains ``marker`` (the reference's twitter-web-page check) are
    dropped from the pages table entirely — the fold then skips those
    links exactly like the reference's ``return None``.  Map-side
    vectorized substring predicate; no shuffle."""

    def f(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.invert(pc.match_substring(batch[text_col], marker))
        )

    return pages.map_batches(f, batch_format="pyarrow")
