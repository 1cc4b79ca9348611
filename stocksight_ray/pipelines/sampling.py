"""Deterministic sampling operators for training-data curation.

Random sampling (``Dataset.random_sample``) is non-reproducible across
partitionings; curation pipelines need SAMPLES THAT ARE A PURE FUNCTION OF
THE ROW so a re-run (or a resume) selects the same rows.  Two forms:

* ``mod_sample``        keep rows where ``id % den < num`` — exact fraction
  on dense ids, trivially SQL-checkable, stable under any partitioning.
* ``hash_sample``       keep rows where ``crc32(key) % den < num`` — for
  string keys / non-dense ids; stable, correlated ONLY with the key bytes.
* ``stratified_head``   per-strata cap: keep the first ``n`` rows per group
  in a deterministic order (groupby shuffle + per-group head) — the
  class-balancing primitive.
"""

from __future__ import annotations

import zlib
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..geometry import bucket_groups


def mod_sample(ds, id_col: str, num: int, den: int):
    """Keep rows with id_col % den < num (deterministic num/den fraction)."""

    def f(batch: pa.Table) -> pa.Table:
        ids = batch[id_col]
        mod = pc.subtract(ids, pc.multiply(pc.divide(ids, den), den))
        return batch.filter(pc.less(mod, num))

    return ds.map_batches(f, batch_format="pyarrow")


def hash_sample(ds, key_col: str, num: int, den: int):
    """Keep rows with crc32(key) % den < num (process-stable string hash)."""

    def f(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_pylist()
        h = np.fromiter(
            (zlib.crc32(str(k).encode()) % den for k in keys), np.int64, len(keys)
        )
        return batch.filter(pa.array(h < num))

    return ds.map_batches(f, batch_format="pyarrow")


def stratified_head(ds, strata: str, n: int, order_cols: Sequence[str]):
    """Per-strata cap: the first ``n`` rows of each group in the
    deterministic (order_cols) order.  One bucketed groupby on a hash of
    the strata key; the per-bucket cap is one vectorized pandas
    groupby.head over every stratum in the bucket."""
    cols = list(order_cols)

    def head(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([strata] + cols, kind="stable")
        return g.groupby(strata, sort=False).head(n)

    return bucket_groups(strata, head, ds)


def mix_sources(ds, rates: dict, *, source_col: str = "source",
                id_col: str = "doc_id", den: int = 100, default: int = 0):
    """Deterministic dataset mixing: admit a row iff ``id % den <
    rates[source]`` — the per-source quota step of training-data mixture
    construction (each source independently downsampled to its rate, stable
    across runs and partitionings).  ``rates`` is a tiny dict shipped in the
    task closure; one map pass, no shuffle."""

    def f(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        srcs = batch[source_col].to_pylist()
        r = np.fromiter((rates.get(s, default) for s in srcs), np.int64, len(srcs))
        return batch.filter(pa.array((ids % den) < r))

    return ds.map_batches(f, batch_format="pyarrow")
