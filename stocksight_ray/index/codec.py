"""Posting-list codec: delta + varbyte compression in docID-sorted blocks
with block-max metadata (SURVEY.md §2.8 A6, §7 step 4).

Replaces the Lucene segment posting format the reference gets from ES
(/root/reference/sentiment.py:227 ``es.index``).  Format per term:

* postings are split into blocks of ≤ ``BLOCK_SIZE`` (128) docids;
* each block stores its **absolute** first docid, so runs of blocks built
  independently for disjoint docid ranges (salted SPIMI sub-postings) can be
  concatenated WITHOUT re-encoding — that is what makes the two-stage
  salted merge scale to head terms;
* block payload = varbyte(deltas of docids within block) || varbyte(tfs);
* block metadata arrays (first_docid, last_docid, count, payload offset,
  max_tfnorm) are kept as packed numpy buffers for block-max WAND skipping.

Varbyte is LSB-first with a continuation high bit (protobuf style); encode
and decode are fully vectorized numpy (no per-int Python loops).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

BLOCK_SIZE = 128
K1 = 1.2
B = 0.75


def varbyte_encode(values: np.ndarray) -> bytes:
    """Vectorized varbyte encode of a uint64 array."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    # bytes needed per value
    nbytes = np.ones(v.size, dtype=np.int64)
    rest = v >> np.uint64(7)
    while rest.any():
        nbytes += (rest > 0).astype(np.int64)
        rest >>= np.uint64(7)
    ends = np.cumsum(nbytes)
    starts = ends - nbytes
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    max_b = int(nbytes.max())
    for k in range(max_b):
        mask = nbytes > k
        pos = starts[mask] + k
        byte = (v[mask] >> np.uint64(7 * k)) & np.uint64(0x7F)
        cont = (nbytes[mask] - 1 > k).astype(np.uint8) * np.uint8(0x80)
        out[pos] = byte.astype(np.uint8) | cont
    return out.tobytes()


def varbyte_encode_segments(values: np.ndarray, seg_starts: np.ndarray) -> list:
    """Encode MANY varbyte runs in one vectorized pass: ``values`` is the
    concatenation of all runs, ``seg_starts`` their start indices (ascending,
    first 0); run i covers ``[seg_starts[i], seg_starts[i+1])``, the last
    ending at ``values.size``.  Returns one ``bytes`` per run, byte-identical
    to calling :func:`varbyte_encode` per run — but with O(1) numpy
    dispatches instead of O(runs) (the SPIMI partial makes ~5-8k runs per
    batch; per-run calls were 97% of that stage's wall, profiled r3)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    seg_starts = np.asarray(seg_starts, dtype=np.int64)
    n_seg = seg_starts.size
    if v.size == 0:
        return [b""] * n_seg
    nbytes = np.ones(v.size, dtype=np.int64)
    rest = v >> np.uint64(7)
    while rest.any():
        nbytes += (rest > 0).astype(np.int64)
        rest >>= np.uint64(7)
    ends = np.cumsum(nbytes)
    starts = ends - nbytes
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    max_b = int(nbytes.max())
    for k in range(max_b):
        mask = nbytes > k
        pos = starts[mask] + k
        byte = (v[mask] >> np.uint64(7 * k)) & np.uint64(0x7F)
        cont = (nbytes[mask] - 1 > k).astype(np.uint8) * np.uint8(0x80)
        out[pos] = byte.astype(np.uint8) | cont
    buf = out.tobytes()
    seg_val_ends = np.append(seg_starts[1:], v.size)
    byte_lo = starts[np.minimum(seg_starts, v.size - 1)]
    byte_hi = ends[seg_val_ends - 1]
    # empty run guard (seg start == next start): zero-length byte slice
    byte_lo = np.where(seg_val_ends > seg_starts, byte_lo, 0)
    byte_hi = np.where(seg_val_ends > seg_starts, byte_hi, 0)
    return [buf[a:b] for a, b in zip(byte_lo.tolist(), byte_hi.tolist())]


def delta_encode_segments(values: np.ndarray, seg_starts: np.ndarray) -> np.ndarray:
    """Per-run delta transform matching ``_pack(..., delta=True)``: within
    each run the first element stays absolute, the rest become diffs.
    Vectorized over all runs at once."""
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return v
    d = np.diff(v, prepend=np.uint64(0))
    seg_starts = np.asarray(seg_starts, dtype=np.int64)
    live = seg_starts[seg_starts < v.size]
    d[live] = v[live]
    return d


def segmented_cumsum(d: np.ndarray, seg_starts: np.ndarray,
                     seg_lengths: np.ndarray) -> np.ndarray:
    """Inverse of :func:`delta_encode_segments` over concatenated runs:
    cumulative sum that RESETS at each run start."""
    vals = d.astype(np.int64)
    if vals.size == 0:
        return vals
    c = np.cumsum(vals)
    base = c[seg_starts] - vals[seg_starts]
    return c - np.repeat(base, seg_lengths)


def varbyte_decode_concat(bufs, counts: np.ndarray):
    """Decode MANY varbyte runs in one pass: ``bufs`` is an iterable of the
    per-run encoded bytes, ``counts`` the known value count per run.
    Returns (flat_values, run_value_starts).  Byte-identical inverse of
    per-run :func:`varbyte_decode` calls (the per-(part,salt) merge made
    ~40k tiny decode calls per group; one concatenated decode replaces
    them)."""
    joined = b"".join(bufs)
    flat = varbyte_decode(joined)
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1])) if counts.size else counts
    return flat, starts


def varbyte_decode(buf: bytes, offset: int = 0, length: int = -1) -> np.ndarray:
    """Vectorized varbyte decode of the byte range → uint64 array."""
    b = np.frombuffer(buf, dtype=np.uint8, count=length, offset=offset)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    is_end = (b & 0x80) == 0
    starts = np.empty(int(is_end.sum()), dtype=np.int64)
    starts[0] = 0
    ends = np.flatnonzero(is_end)
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    offs = np.arange(b.size, dtype=np.int64) - np.repeat(starts, lengths)
    contribs = (b & np.uint8(0x7F)).astype(np.uint64) << (np.uint64(7) * offs.astype(np.uint64))
    return np.add.reduceat(contribs, starts)


def tf_norm(tfs: np.ndarray, dls: np.ndarray, avgdl: float, k1: float = K1, b: float = B) -> np.ndarray:
    """BM25 term-frequency component incl. the (k1+1) numerator:
    tf*(k1+1) / (tf + k1*(1-b+b*dl/avgdl)).  Used for scores and block-max."""
    return saturate(tfs, length_norm(dls, avgdl, k1, b), k1)


def length_norm(dls: np.ndarray, avgdl: float, k1: float = K1, b: float = B) -> np.ndarray:
    """k1*(1-b+b*dl/avgdl), the per-doc part of tf_norm's denominator — a
    serving engine computes it once per doc."""
    return k1 * (1.0 - b + b * dls.astype(np.float64) / avgdl)


def saturate(tfs: np.ndarray, norms: np.ndarray, k1: float = K1) -> np.ndarray:
    """tf*(k1+1) / (tf + norm) for ``length_norm`` values ``norms``:
    float-identical to ``tf_norm`` over the same docs."""
    tfs = tfs.astype(np.float64)
    return tfs * (k1 + 1.0) / (tfs + norms)


# Block metadata layout: structured array persisted as raw bytes.
# (max_tf, min_dl) rather than a precomputed max tf-norm: tf_norm is
# increasing in tf and decreasing in dl, so tf_norm(max_tf, min_dl, avgdl) is
# a valid per-block upper bound for ANY avgdl — encoding stays independent of
# global corpus stats (single-pass SPIMI; avgdl is only fixed at manifest
# time).
_META_DTYPE = np.dtype(
    [
        ("first", "<i8"),
        ("last", "<i8"),
        ("count", "<i4"),
        ("doc_off", "<i8"),   # payload offset of docid-delta section
        ("tf_off", "<i8"),    # payload offset of tf section
        ("end_off", "<i8"),   # payload end of this block
        ("max_tf", "<i4"),
        ("min_dl", "<i4"),
    ]
)


def block_upper_bounds(meta: np.ndarray, avgdl: float, k1: float = K1, b: float = B) -> np.ndarray:
    """Per-block tf-norm upper bounds from (max_tf, min_dl) metadata."""
    return tf_norm(meta["max_tf"], meta["min_dl"], avgdl, k1, b)


def encode_postings(
    docids: np.ndarray, tfs: np.ndarray, dls: np.ndarray
) -> Tuple[bytes, bytes]:
    """Encode docID-sorted postings → (meta_bytes, payload_bytes)."""
    n = docids.size
    assert n > 0
    nblocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    meta = np.zeros(nblocks, dtype=_META_DTYPE)
    payload_parts: List[bytes] = []
    off = 0
    for bi in range(nblocks):
        lo, hi = bi * BLOCK_SIZE, min((bi + 1) * BLOCK_SIZE, n)
        ids = docids[lo:hi].astype(np.uint64)
        deltas = np.diff(ids, prepend=ids[:1])  # first delta = 0
        doc_bytes = varbyte_encode(deltas)
        tf_bytes = varbyte_encode(tfs[lo:hi].astype(np.uint64))
        meta[bi]["first"] = int(docids[lo])
        meta[bi]["last"] = int(docids[hi - 1])
        meta[bi]["count"] = hi - lo
        meta[bi]["doc_off"] = off
        meta[bi]["tf_off"] = off + len(doc_bytes)
        meta[bi]["end_off"] = off + len(doc_bytes) + len(tf_bytes)
        meta[bi]["max_tf"] = int(tfs[lo:hi].max())
        meta[bi]["min_dl"] = int(dls[lo:hi].min())
        payload_parts.append(doc_bytes)
        payload_parts.append(tf_bytes)
        off += len(doc_bytes) + len(tf_bytes)
    return meta.tobytes(), b"".join(payload_parts)


def decode_meta(meta_bytes: bytes) -> np.ndarray:
    return np.frombuffer(meta_bytes, dtype=_META_DTYPE)


def decode_block(payload: bytes, meta_row) -> Tuple[np.ndarray, np.ndarray]:
    """Decode one block → (docids int64, tfs int64)."""
    deltas = varbyte_decode(
        payload, int(meta_row["doc_off"]), int(meta_row["tf_off"] - meta_row["doc_off"])
    )
    docids = np.cumsum(deltas.astype(np.int64)) + int(meta_row["first"])
    tfs = varbyte_decode(
        payload, int(meta_row["tf_off"]), int(meta_row["end_off"] - meta_row["tf_off"])
    ).astype(np.int64)
    return docids, tfs


def decode_postings(meta_bytes: bytes, payload: bytes) -> Tuple[np.ndarray, np.ndarray]:
    """Decode all blocks → (docids, tfs)."""
    meta = decode_meta(meta_bytes)
    ids: List[np.ndarray] = []
    tfs: List[np.ndarray] = []
    for row in meta:
        i, t = decode_block(payload, row)
        ids.append(i)
        tfs.append(t)
    return np.concatenate(ids), np.concatenate(tfs)


def concat_runs(runs: List[Tuple[bytes, bytes]]) -> Tuple[bytes, bytes]:
    """Concatenate encoded block runs covering disjoint, increasing docid
    ranges — no decode needed (absolute first docid per block; payload
    offsets are rebased)."""
    metas = []
    payloads = []
    off = 0
    for meta_bytes, payload in runs:
        m = np.frombuffer(meta_bytes, dtype=_META_DTYPE).copy()
        m["doc_off"] += off
        m["tf_off"] += off
        m["end_off"] += off
        metas.append(m)
        payloads.append(payload)
        off += len(payload)
    return np.concatenate(metas).tobytes(), b"".join(payloads)
