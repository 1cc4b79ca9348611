"""Shuffle geometry and the one bucketed-shuffle helper.

``bucket_groups`` is where every hash-grouped pipeline operator decides its
bucket count, its pre-shuffle coalesce and the batch format its kernel
sees.  Operators hand it a key, a per-bucket kernel and one or more input
Datasets; none of them hashes, pads, tags or sizes a shuffle itself.

Sizing rule
-----------
Every bucketed grouped op shuffles on a FIXED bucket count so
``map_groups`` runs O(buckets) vectorized pandas/Arrow calls — never one
per key.  The bucket count must satisfy two constraints:

* enough buckets that one round of bucket tasks saturates the cluster with
  a few waves: ``buckets >= 4 x cluster CPUs`` (rounded up to a power of
  two);
* small enough payload per bucket that a task's heap holds it twice
  (input + grouped copy): ``buckets >= size_bytes / target_bucket_bytes``
  with a 128 MiB target — i.e. buckets scale LINEARLY with data size once
  the corpus outgrows ``floor x 128 MiB`` (~32 GiB at the 256 floor).

The historical constant (256 buckets) is kept as the FLOOR so small-corpus
behavior — and every golden/bench number — is unchanged on the test box;
results are bucket-count-invariant by construction (bucket values only
steer grouping), which ``tests`` prove by running dedup families, the join
family and the ingest id-assignment at two forced bucket counts.

Coalesce rule
-------------
``bucket_groups`` materializes each input (the all-to-all would hold it in
the object store anyway; this surfaces its size and schema for free) and
coalesces the inputs to ``shuffle_num_blocks(total size)`` blocks between
them, shared in proportion to size: Ray's sort-based shuffle creates
O(in_blocks x out_partitions) intermediates.

``Dataset.repartition(n, keys=...)`` would be the natural hash shuffle, but
on Ray 2.49 it requires ``DataContext.shuffle_strategy=HASH_SHUFFLE``, a
process-wide switch that also changes ``build_index``'s shuffles — so the
helper keeps ``groupby(bucket).map_groups``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DEFAULT_BUCKET_FLOOR = 256
TARGET_BUCKET_BYTES = 128 << 20
BUCKET_CAP = 1 << 20  # 2^20 buckets = 128 TiB of payload at the target


def cluster_cpus(default: int = 8) -> int:
    """Total cluster CPUs; ``default`` when Ray isn't initialized (library
    code must never trigger ray.init)."""
    try:
        import ray

        if ray.is_initialized():
            return int(ray.cluster_resources().get("CPU", default))
    except Exception:
        pass
    return default


def _pow2_at_least(x: float) -> int:
    n = 1
    while n < x:
        n <<= 1
    return n


def auto_buckets(size_bytes: Optional[int] = None, *,
                 floor: int = DEFAULT_BUCKET_FLOOR,
                 target_bucket_bytes: int = TARGET_BUCKET_BYTES,
                 cap: int = BUCKET_CAP) -> int:
    """Power-of-two shuffle bucket count per the module sizing rule."""
    b = max(floor, _pow2_at_least(4 * cluster_cpus()))
    if size_bytes:
        b = max(b, _pow2_at_least(size_bytes / target_bucket_bytes))
    return min(_pow2_at_least(b), cap)


TARGET_SHUFFLE_BLOCK_BYTES = 64 << 20


def shuffle_num_blocks(size_bytes: Optional[int], *,
                       cpus: Optional[int] = None,
                       target_block_bytes: int = TARGET_SHUFFLE_BLOCK_BYTES) -> int:
    """Input-block count for an all-to-all op (sort / groupby / repartition).

    Ray's sort-based shuffle creates O(input_blocks x output_partitions)
    intermediate objects with output_partitions ~ input_blocks, so feeding a
    sort the map-stage block count (4 x CPUs of ~2 MiB blocks) is
    quadratically pure overhead on small data — profiled r3 on the 500k-page
    corpus: the slim dedup sort of a ~40 MiB projection took 10.4 s at
    128 blocks / 32 CPUs and ~1 s at 32 blocks; the SPIMI merge shuffle
    dropped 9.6 s -> 3.1 s when its 236 MiB input went 128 -> 32 blocks.

    Rule: one block per CPU (a single task wave on both shuffle sides),
    growing data-proportionally once blocks would exceed
    ``target_block_bytes`` — at 100 TB the byte term dominates and block
    count is bounded by memory, not CPUs.  Coalesce with a plain
    ``ds.repartition(n)`` (split/merge, no shuffle) right before the
    all-to-all op.
    """
    c = cpus or cluster_cpus()
    b = c
    if size_bytes:
        b = max(b, -(-int(size_bytes) // target_block_bytes))
    return b


# Internal columns of the shuffled table.  Input ``i``'s column ``c`` rides
# as ``__i.c``; the other inputs' columns are typed nulls on its rows, so
# the union has one schema and each input gets its own columns back, with
# their types, by one filter on ``_SIDE``.
_BUCKET, _SIDE = "__bucket", "__side"
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd multiplier for multi-column keys


def _string_bucket(keys, num_buckets: int) -> pa.Array:
    """Vectorized hash bucket for non-integer key columns: one C-level hash
    pass (``hashing.hash_strings``, deterministic across runs/workers)
    instead of the round-2 per-row ``zlib.crc32(str(k))`` Python loop.
    Nulls hash like ''."""
    return pa.array((_column_hash(keys) % np.uint64(num_buckets)).astype(np.int32))


def _column_hash(col) -> np.ndarray:
    """uint64 per row: integer keys are their own hash (so a single int key
    buckets by its low bits), anything else goes through the string hash.
    Nulls hash like 0 / ''."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type):
        v = pc.fill_null(col, 0).to_numpy(zero_copy_only=False)
        return v.astype(np.int64, copy=False).view(np.uint64)
    from .hashing import hash_strings  # imports polars: string keys only

    if not (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)):
        col = pc.cast(col, pa.string())
    return hash_strings(col)


def bucket_ids(table: pa.Table, key: Sequence[str], num_buckets: int) -> np.ndarray:
    """int32 bucket per row of ``table`` for the key column(s) ``key``."""
    h = np.zeros(table.num_rows, np.uint64)
    with np.errstate(over="ignore"):
        for c in key:
            h = h * _MIX + _column_hash(table[c])
    return (h % np.uint64(num_buckets)).astype(np.int32)


def _arrow_schema(schema) -> pa.Schema:
    """A Ray Dataset schema as a pa.Schema (null types where unknown)."""
    if schema is None:
        return pa.schema([])
    if isinstance(schema.base_schema, pa.Schema):
        return schema.base_schema
    return pa.schema([
        (n, t if isinstance(t, pa.DataType) else pa.null())
        for n, t in zip(schema.names, schema.types)
    ])


def _tag(side: int, key: Sequence[str], num_buckets: int, schemas):
    def tag(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {
            _BUCKET: pa.array(bucket_ids(batch, key, num_buckets)),
            _SIDE: pa.array(np.full(n, side, np.int8)),
        }
        for i, schema in enumerate(schemas):
            for f in schema:
                cols[f"__{i}.{f.name}"] = (
                    batch[f.name] if i == side else pa.nulls(n, f.type)
                )
        return pa.table(cols)

    return tag


def bucket_groups(key: Union[str, Sequence[str]], fn: Callable, *datasets,
                  batch_format: str = "pandas",
                  num_buckets: Optional[int] = None):
    """Run ``fn`` once per hash bucket of ``key`` over one or more Datasets.

    Every input is hashed on the same ``key`` (one column name or several)
    to one of ``num_buckets`` buckets (default: ``auto_buckets`` of the
    inputs' total size), so equal keys of every input meet in one call.
    ``fn(*parts)`` gets one part per input, in input order, each holding
    only that input's columns with their exact types — as a ``pa.Table``
    (``batch_format="pyarrow"``) or a ``pd.DataFrame`` (``"pandas"``).  A
    bucket may hold many keys, and an input with no rows in the bucket
    arrives as a zero-row part of its schema.  ``fn`` returns a table or
    frame; the result is the Dataset of all returned rows.
    """
    if batch_format not in ("pandas", "pyarrow"):
        raise ValueError(f"batch_format must be pandas|pyarrow, got {batch_format!r}")
    key = [key] if isinstance(key, str) else list(key)
    mats = [ds.materialize() for ds in datasets]
    sizes = [m.size_bytes() or 0 for m in mats]
    total = sum(sizes)
    nb = num_buckets or auto_buckets(total or None)
    n_total = shuffle_num_blocks(total or None)
    schemas = [_arrow_schema(m.schema()) for m in mats]
    tagged = []
    for side, (m, size) in enumerate(zip(mats, sizes)):
        n_blocks = max(1, round(n_total * size / max(total, 1)))
        if m.num_blocks() > n_blocks:
            m = m.repartition(n_blocks)
        tagged.append(m.map_batches(_tag(side, key, nb, schemas),
                                    batch_format="pyarrow"))
    shuffled = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]

    def run(g: pa.Table):
        args = []
        for side, schema in enumerate(schemas):
            t = g if len(schemas) == 1 else g.filter(pc.equal(g[_SIDE], side))
            t = t.select([f"__{side}.{n}" for n in schema.names])
            t = t.rename_columns(schema.names)
            args.append(t.to_pandas() if batch_format == "pandas" else t)
        return fn(*args)

    return shuffled.groupby(_BUCKET).map_groups(run, batch_format="pyarrow")
