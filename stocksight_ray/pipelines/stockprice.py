"""Stock-price capability parity (reference stockprice.py).

The reference polls Yahoo Finance and, per poll, takes the LAST non-null
close/high/low/volume from the returned arrays ([-1] else [-2] else [-3]
fallback, /root/reference/stockprice.py:57-85) and computes ``change`` as
the pct diff of the last two closes.  Re-expressed over a bounded
time-series table: per-key ordered reductions, one ``bucket_groups`` shuffle
on the symbol/user key with vectorized pandas per bucket.

Also ships a deterministic synthetic ``prices`` table (FIXTURES.md §4) with
injected nulls to exercise the fallback.
"""

from __future__ import annotations

import hashlib
from datetime import datetime, timedelta
from typing import List, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa

from ..geometry import bucket_groups


def latest_nonnull(ds, key: str, ts: str, value_cols: Sequence[str]):
    """Per key: last non-null value of each value column in ts order (the
    reference's [-1]-else-[-2] pick generalized to full backfill), plus the
    ts at which the row set ends.  Output: one row per key."""

    cols = list(value_cols)

    # bucketed: one task per key-hash bucket, all keys inside a bucket
    # reduced by ONE vectorized pandas groupby (no per-key Python call)
    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts], kind="stable")
        gb = g.groupby(key, sort=False)
        out = gb[ts].last().rename(f"last_{ts}").to_frame()
        for c in cols:
            out[f"last_{c}"] = gb[c].last()  # pandas last() skips NaN
        return out.reset_index()

    return bucket_groups(key, pick, ds)


def pct_change_last(ds, key: str, ts: str, col: str):
    """Per key: pct change between the last two non-null values of ``col``
    (reference ``change`` = (last - prev)/prev * 100,
    /root/reference/stockprice.py:78-85).  Output (key, change)."""

    # bucketed + vectorized: last two non-null values per key via a
    # groupby-tail(2) over one sorted frame (no per-key Python call)
    def chg(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts], kind="stable")
        all_keys = pd.Index(g[key].unique(), name=key)
        nn = g[g[col].notna()]
        t2 = (
            nn.groupby(key, sort=False)
            .tail(2)
            .groupby(key, sort=False)[col]
            .agg(["first", "last", "count"])
            .reindex(all_keys)
        )
        ok = (t2["count"] == 2) & (t2["first"] != 0)
        change = np.where(
            ok, (t2["last"] - t2["first"]) / t2["first"] * 100.0, 0.0
        )
        return pd.DataFrame({key: all_keys.to_numpy(), "change": change})

    return bucket_groups(key, chg, ds)


def ohlc_bucket(ds, key: str, ts: str, price_col: str, interval_sec: int = 7200,
                tiebreak_cols=()):
    """Per (key, time bucket): open/high/low/close of ``price_col`` —
    the stock-chart aggregation Kibana renders (date_histogram + metric
    aggs, /root/reference/export.json stocksight_stockprice panel).
    Vectorized local combine per batch, merged per group."""
    import pyarrow.compute as pc

    def bucketize(batch: pa.Table) -> pa.Table:
        secs = pc.divide(pc.cast(batch[ts], pa.int64()), 1_000_000)
        bucket = pc.cast(
            pc.multiply(
                pc.floor(pc.divide(pc.cast(secs, pa.float64()), interval_sec)),
                float(interval_sec),
            ),
            pa.int64(),
        )
        cols = {key: batch[key], "bucket": bucket, ts: batch[ts], price_col: batch[price_col]}
        for c in tiebreak_cols:
            cols[c] = batch[c]
        return pa.table(cols)

    order_cols = [ts] + list(tiebreak_cols)

    # bucketed on a hash of ``key``: one vectorized pandas groupby covers
    # every (key, time-bucket) pair in the hash bucket — no per-pair task.
    # pandas first/last/max/min skip NaN, matching the non-null OHLC pick.
    def ohlc(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, "bucket"] + order_cols, kind="stable")
        gb = g.groupby([key, "bucket"], sort=False)
        out = gb[price_col].agg(
            open="first", high="max", low="min", close="last"
        )
        out["n"] = gb.size()
        return out.reset_index()[
            [key, "bucket", "open", "high", "low", "close", "n"]
        ]

    return bucket_groups(
        key, ohlc, ds.map_batches(bucketize, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# deterministic prices fixture (FIXTURES.md §4)
# ---------------------------------------------------------------------------

def generate_prices(
    symbols: Sequence[str] = ("TSLA", "AAPL", "MSFT", "AMZN", "NVDA"),
    days: int = 5,
    step_sec: int = 120,
    seed: int = 42,
) -> pa.Table:
    """Seeded random-walk price series on a 2-minute grid with injected
    nulls in close/high/low/volume (exercises the last-non-null fallback)."""
    base = datetime(2021, 3, 1)
    rows = {"symbol": [], "ts": [], "close": [], "high": [], "low": [], "volume": []}
    n_steps = days * 24 * 3600 // step_sec
    for s_i, sym in enumerate(symbols):
        h = int.from_bytes(hashlib.sha256(f"{seed}:{sym}".encode()).digest()[:8], "big")
        rng = np.random.RandomState(h % (2**32))
        price = 50.0 + (h % 400)
        for i in range(n_steps):
            price = max(1.0, price * (1.0 + rng.normal(0, 0.001)))
            hi = price * (1 + abs(rng.normal(0, 0.0005)))
            lo = price * (1 - abs(rng.normal(0, 0.0005)))
            vol = int(rng.randint(100, 10000))
            null_draw = rng.rand()
            rows["symbol"].append(sym)
            rows["ts"].append(base + timedelta(seconds=i * step_sec))
            rows["close"].append(None if null_draw < 0.05 else round(price, 4))
            rows["high"].append(None if 0.05 <= null_draw < 0.08 else round(hi, 4))
            rows["low"].append(None if 0.08 <= null_draw < 0.11 else round(lo, 4))
            rows["volume"].append(None if 0.11 <= null_draw < 0.13 else vol)
    return pa.table(
        {
            "symbol": pa.array(rows["symbol"], pa.string()),
            "ts": pa.array(rows["ts"], pa.timestamp("us")),
            "close": pa.array(rows["close"], pa.float64()),
            "high": pa.array(rows["high"], pa.float64()),
            "low": pa.array(rows["low"], pa.float64()),
            "volume": pa.array(rows["volume"], pa.int64()),
        }
    )
