"""Sessionization — split per-user event streams into sessions at
inactivity gaps (the standard windowed log/clickstream operator; the
reference's Kibana dashboards bucket by fixed time only, this is the
gap-window generalization).

Shape: ONE ``bucket_groups`` shuffle on the user key (vectorized pandas
per bucket — no per-user task), sort within bucket by
(user, ts, id), vectorized gap detection via diff/cumsum.  Assumes one
user's events fit a task (same contract as the other per-key windowed ops;
salt upstream if a single user's history is huge).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from ..geometry import bucket_groups


def sessionize(
    ds,
    *,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    gap_sec: int = 1800,
    num_buckets: Optional[int] = None,
):
    """Events -> one row per session:
    (user_col, session_id, n_events, session_start, session_end).

    session_id is the 1-based session rank within the user in time order;
    a new session starts when the gap to the previous event exceeds
    ``gap_sec`` (strictly greater, matching SQL ``ts - lag(ts) > interval``).
    Ties on ts break by ``id_col`` so the split is deterministic.
    """

    def sessions(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values([user_col, ts_col, id_col], kind="stable")
        ts = g[ts_col].to_numpy("datetime64[us]").astype(np.int64)
        users = g[user_col].to_numpy(np.int64)
        new_user = np.concatenate(([True], users[1:] != users[:-1]))
        gap = np.concatenate(([0], ts[1:] - ts[:-1]))
        brk = new_user | (gap > gap_sec * 1_000_000)
        sess_rank = np.cumsum(brk)  # global within bucket, monotone
        # per-session reduce (vectorized: boundaries of the brk flags)
        starts = np.where(brk)[0]
        ends = np.append(starts[1:], len(ts))
        # session_id = rank within user: cumcount of sessions per user
        sess_users = users[starts]
        sid = np.ones(len(starts), dtype=np.int64)
        same = np.concatenate(([False], sess_users[1:] == sess_users[:-1]))
        run = np.zeros(len(starts), dtype=np.int64)
        # cumulative run length of equal consecutive users
        for i in range(1, len(starts)):  # O(#sessions in bucket), tiny
            run[i] = run[i - 1] + 1 if same[i] else 0
        sid = run + 1
        return pa.table({
            user_col: pa.array(sess_users),
            "session_id": pa.array(sid),
            "n_events": pa.array(ends - starts),
            "session_start": pa.array(
                ts[starts].astype("datetime64[us]"), pa.timestamp("us")
            ),
            "session_end": pa.array(
                ts[ends - 1].astype("datetime64[us]"), pa.timestamp("us")
            ),
        })

    return bucket_groups(
        user_col, sessions, ds.select_columns([user_col, ts_col, id_col]),
        num_buckets=num_buckets,
    )


def hopping_window_counts(
    ds,
    *,
    ts_col: str = "ts",
    width_sec: int = 3600,
    slide_sec: int = 900,
    by: str = None,
):
    """Hopping (sliding) time-window counts: every event lands in the
    width/slide windows covering it (window_start ≡ 0 mod slide, start ≤ t
    < start+width).  Completes the window family beside tumbling
    (date_histogram), gap (sessionize), and row (rolling_mean) windows.

    Map-side the covering windows explode vectorized AND pre-reduce per
    batch (TableGroupBy), so the shuffle carries (window, by, partial)
    rows bounded by window-cardinality × blocks — not event count."""
    from ray.data.aggregate import Sum

    cols = [ts_col] + ([by] if by else [])
    keys = (["window_start"] + ([by] if by else []))

    def explode(batch: pa.Table) -> pa.Table:
        t = (
            batch[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
            // 1_000_000
        )
        k_lo = (t - width_sec) // slide_sec + 1
        k_hi = t // slide_sec  # inclusive
        reps = (k_hi - k_lo + 1).astype(np.int64)
        offs = np.concatenate([np.arange(r) for r in reps]) if len(t) else np.array([], dtype=np.int64)
        ks = np.repeat(k_lo, reps) + offs
        cols_out = {"window_start": pa.array(ks * slide_sec)}
        if by:
            vals = batch[by].take(
                pa.array(np.repeat(np.arange(len(t)), reps))
            )
            cols_out[by] = vals
        tb = pa.table(cols_out)
        g = pa.TableGroupBy(tb, keys).aggregate([([], "count_all")])
        return g.rename_columns(keys + ["partial"])

    return (
        ds.select_columns(cols)
        .map_batches(explode, batch_format="pyarrow")
        .groupby(keys if len(keys) > 1 else keys[0])
        .aggregate(Sum("partial", alias_name="cnt"))
    )
