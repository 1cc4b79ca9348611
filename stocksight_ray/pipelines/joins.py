"""Join operators Ray Data lacks natively, each one ``geometry.bucket_groups``
call over its inputs plus a vectorized per-bucket kernel (SURVEY.md §2.7;
custom-operator guidance: composition of map_batches + groupby().map_groups
+ sort).

Partitioning assumption (documented per the custom-operator contract): both
sides hash-partition on the join key in one shuffle, and each key's rows
fit a task's memory (time-series per key; salt wide keys upstream if a
single key's history is huge).  Each kernel gets every side as its own
Arrow table or pandas frame with the side's exact column types, so no
kernel pads, tags or re-casts a side.

* ``asof_join``   backward as-of (latest right row with right_ts <= left_ts
  per key) — the sentiment×price time-alignment the reference does visually
  in Kibana (shared time axis, /root/reference/export.json dashboard).
* ``hash_join``   large-large equi-join (inner / left).
* ``rolling_mean`` per-key trailing-window mean ordered by explicit columns
  (windowed aggregate family).
* ``semi_join``   semi / anti join (SQL EXISTS / NOT EXISTS).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..geometry import bucket_groups


def asof_join(
    left,
    right,
    *,
    by: str,
    left_ts: str,
    right_ts: str,
    right_value: str,
    inner: bool = True,
    num_buckets: Optional[int] = None,
):
    """Backward as-of join: for each left row, the latest right row of the
    same ``by`` key with ``right_ts <= left_ts`` (exact matches included).
    Output: the left columns except ``left_ts``, plus ``right_value`` as
    float64 (null for an unmatched left row when ``inner=False``).

    One bucketed shuffle of both sides on ``by``, then a vectorized
    ``pd.merge_asof(by=...)`` per bucket over the key and time columns
    only; the output takes left rows by position, so left columns keep
    their types.  Right side must be unique per (by, right_ts) for
    determinism — enforce upstream (e.g. pre-aggregate).
    """

    def merge(l: pa.Table, r: pa.Table) -> pa.Table:
        out = l.drop_columns([left_ts])
        if l.num_rows == 0 or (r.num_rows == 0 and inner):
            return out.slice(0, 0).append_column(
                right_value, pa.nulls(0, pa.float64())
            )
        if r.num_rows == 0:
            return out.append_column(
                right_value, pa.nulls(l.num_rows, pa.float64())
            )
        lk = pd.DataFrame({
            "_ts": l[left_ts].cast(pa.timestamp("us")).to_pandas(),
            by: l[by].to_pandas(),
            "_row": np.arange(l.num_rows),
        }).sort_values(["_ts", by], kind="stable")
        rk = pd.DataFrame({
            "_ts": r[right_ts].cast(pa.timestamp("us")).to_pandas(),
            by: r[by].cast(l.schema.field(by).type).to_pandas(),
            "_v": r[right_value].cast(pa.float64()).to_pandas(),
        }).sort_values(["_ts", by], kind="stable")
        j = pd.merge_asof(lk, rk, on="_ts", by=by, direction="backward",
                          allow_exact_matches=True)
        if inner:
            j = j[j["_v"].notna()]
        return out.take(pa.array(j["_row"].to_numpy(np.int64))).append_column(
            right_value, pa.array(j["_v"].to_numpy(np.float64), from_pandas=True)
        )

    return bucket_groups(by, merge, left, right, batch_format="pyarrow",
                         num_buckets=num_buckets)


def hash_join(
    left,
    right,
    *,
    on: str,
    left_cols: Sequence[str],
    right_cols: Sequence[str],
    how: str = "inner",
    num_buckets: Optional[int] = None,
):
    """Large-large equi-join: both sides co-partition on ``on`` in ONE
    bucketed shuffle (no broadcast — use the ray.put broadcast pattern
    instead when one side is small, see __ray_entry__.q15), then an Arrow
    hash join per bucket.  Output columns: ``on``, then ``left_cols`` and
    ``right_cols`` without ``on``, with their source types.  Null keys
    never match (SQL semantics).

    Skew note: a pathological hot key lands one group on one task; salt the
    key upstream (duplicate the small-side rows per salt) when a single key's
    rows exceed task memory.
    """
    if how not in ("inner", "left"):
        raise ValueError(f"hash_join supports how='inner'|'left', got {how!r}")
    lcols = [on] + [c for c in left_cols if c != on]
    rcols = [on] + [c for c in right_cols if c != on]
    join_type = "inner" if how == "inner" else "left outer"

    def merge(l: pa.Table, r: pa.Table) -> pa.Table:
        r = r.set_column(0, on, r[on].cast(l.schema.field(on).type))
        return l.join(r, on, join_type=join_type, use_threads=False).select(
            lcols + rcols[1:]
        )

    return bucket_groups(
        on, merge, left.select_columns(lcols), right.select_columns(rcols),
        batch_format="pyarrow", num_buckets=num_buckets,
    )


def rolling_mean(
    ds,
    *,
    key: str,
    order_cols: Sequence[str],
    value: str,
    window: int,
    out: str = "rmean",
    id_cols: Optional[Sequence[str]] = None,
    num_buckets: Optional[int] = None,
):
    """Per-key trailing-window mean (ROWS BETWEEN window-1 PRECEDING AND
    CURRENT ROW), ordered by ``order_cols``.  ONE bucketed shuffle on
    ``key``; the per-bucket pandas groupby(key).rolling runs vectorized
    across every key in the bucket — high-cardinality keys cost no extra
    tasks."""
    keep = list(id_cols) if id_cols else None

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key] + list(order_cols), kind="stable").copy()
        g[out] = (
            g.groupby(key, sort=False)[value]
            .rolling(window, min_periods=1)
            .mean()
            .reset_index(level=0, drop=True)
        )
        return g[keep + [out]] if keep else g

    return bucket_groups(key, roll, ds, num_buckets=num_buckets)


def semi_join(
    left,
    right,
    *,
    on: str,
    left_cols: Sequence[str],
    anti: bool = False,
    num_buckets: Optional[int] = None,
):
    """Semi-join (left rows WITH a right match) / anti-join (WITHOUT).

    The right side collapses to its per-batch DISTINCT keys before the
    shuffle, so the exchange carries bare keys for the right side; the
    per-bucket membership test is an Arrow ``is_in`` — left rows never
    round-trip through pandas and keep their exact dtypes."""
    out_cols = list(left_cols)
    lcols = out_cols if on in out_cols else [on] + out_cols

    def distinct_keys(batch: pa.Table) -> pa.Table:
        return pa.table({on: pc.unique(batch[on].combine_chunks())})

    def merge(l: pa.Table, r: pa.Table) -> pa.Table:
        # right-side nulls never match any left key (SQL IN/EXISTS) — drop
        # them from the probe set so is_in can't return null for them
        key_type = l.schema.field(on).type
        keys = (pc.drop_null(pc.unique(r[on].combine_chunks())).cast(key_type)
                if r.num_rows else pa.array([], key_type))
        mask = pc.is_in(l[on].combine_chunks(), value_set=keys)
        # SQL EXISTS / NOT EXISTS semantics for null keys: a null never
        # matches, so semi drops null-key rows and ANTI KEEPS them.
        # (pc.is_in yields null for null inputs and filter drops null-mask
        # rows, which silently violated NOT EXISTS — ADVICE r2.)
        if anti:
            mask = pc.fill_null(pc.invert(mask), True)
        else:
            mask = pc.fill_null(mask, False)
        return l.filter(mask).select(out_cols)

    return bucket_groups(
        on, merge,
        left.select_columns(lcols),
        right.select_columns([on]).map_batches(distinct_keys,
                                               batch_format="pyarrow"),
        batch_format="pyarrow", num_buckets=num_buckets,
    )
