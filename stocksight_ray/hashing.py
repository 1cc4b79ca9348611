"""Vectorized string hashing for bucket steering.

``hash_strings`` returns a uint64 hash per string, computed by the fastest
available kernel:

* polars ``Series.hash`` (Rust, reads Arrow string buffers directly — no
  per-object Python overhead; ~18x the round-2 per-row ``zlib.crc32`` loop
  on 200k URL-like keys, vs ~3x for pandas ``hash_array`` over objects);
* pandas ``hash_array`` as the fallback when polars is absent.

Cross-process determinism is REQUIRED: the same key hashed in two Ray
worker tasks must land in the same bucket or co-grouping breaks.  Both
kernels are deterministic for a fixed seed within one environment, but the
two kernels disagree with EACH OTHER — so the kernel choice is pinned once
per process from ``STOCKSIGHT_HASH_KERNEL`` (``polars`` | ``pandas``;
default: polars when importable, else pandas).  On a multi-node cluster set
that env var cluster-wide (e.g. via ``runtime_env={"env_vars": ...}``) so a
node missing polars cannot silently bucket the same key differently.
Polars hashes are additionally not stable ACROSS polars versions, which is
why callers must use this only for values that steer shuffles — bucket
ids, shard routing — never for values that are part of results or on-disk
formats, e.g. HLL registers or the ingest row keys."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

try:
    import polars as pl

    _HAVE_POLARS = True
except Exception:  # pragma: no cover
    _HAVE_POLARS = False

_SEED = 0x5F0C_517E

# Resolved once per process; uniform across a cluster as long as the env var
# (or library availability) is uniform — pin it explicitly for mixed fleets.
_KERNEL = os.environ.get("STOCKSIGHT_HASH_KERNEL", "").strip().lower() or (
    "polars" if _HAVE_POLARS else "pandas"
)
if _KERNEL not in ("polars", "pandas"):  # pragma: no cover
    raise ValueError(f"STOCKSIGHT_HASH_KERNEL must be polars|pandas, got {_KERNEL!r}")
if _KERNEL == "polars" and not _HAVE_POLARS:  # pragma: no cover
    raise ImportError("STOCKSIGHT_HASH_KERNEL=polars but polars is not importable")

# pandas hash_array requires a hash_key of exactly 16 bytes.
_PD_HASH_KEY = "stocksight-hstr0"


def kernel_name() -> str:
    """The hash kernel this process is pinned to (``polars`` or ``pandas``)."""
    return _KERNEL


def hash_strings(keys, seed: int = _SEED) -> np.ndarray:
    """uint64 hash per element of an Arrow string array / ChunkedArray /
    numpy object array / list of str.  Nulls/None hash like ''."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    if _KERNEL == "polars":
        if not isinstance(keys, pa.Array):
            keys = pa.array(
                np.asarray(keys, dtype=object), pa.string(), from_pandas=True
            )
        s = pl.from_arrow(keys.fill_null(""))
        return s.hash(seed=seed).to_numpy()
    import pandas as pd

    if isinstance(keys, pa.Array):
        obj = keys.fill_null("").to_numpy(zero_copy_only=False)
    else:
        obj = np.asarray([k or "" for k in keys], dtype=object)
    if seed == _SEED:
        key = _PD_HASH_KEY
    else:
        # Fold the seed into the SipHash key itself (exactly 16 bytes) so a
        # distinct seed is a genuinely independent hash family — not a fixed
        # bijection of the unseeded hash (which would preserve all collisions).
        # The key is "ss" + 14 hex digits, so only the seed's low 56 bits
        # reach it: on this kernel, seeds that differ only above bit 55 are
        # the same hash family (the polars kernel uses the whole seed).
        key = f"ss{seed & 0xFFFFFFFFFFFFFF:014x}"
    return pd.util.hash_array(obj, hash_key=key, categorize=False)
