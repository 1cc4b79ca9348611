"""Resumable segment build: equivalence with the single-pass builder,
kill/resume behavior, lineage records (SURVEY.md §5.5)."""

import json
import os
import shutil

import pytest


@pytest.fixture(scope="module")
def docs_ds(ray_session, webtext_table):
    import ray.data as rd

    from stocksight_ray.pipelines.ingest import ingest_webtext

    ds = ingest_webtext(rd.from_arrow(webtext_table), batch_size=128)
    return ds.drop_columns(["tokens"]).materialize()


QUERIES = [
    "stock market earnings", "investor fears", "quarterly report",
    "running traditional", "buy sell hold", "technology energy",
]


def _results(index_dir):
    from stocksight_ray.index.query import QueryEngine

    eng = QueryEngine(index_dir)
    return {q: eng.search(q, k=10) for q in QUERIES}


def test_sharded_build_matches_single_pass(ray_session, docs_ds, tmp_path):
    from stocksight_ray.index.build import build_index
    from stocksight_ray.index.segments import build_resumable

    single = str(tmp_path / "single")
    sharded = str(tmp_path / "sharded")
    build_index(
        docs_ds, single, text_col="text_clean",
        num_partitions=8, salt_range=256, batch_size=128,
    )
    manifest = build_resumable(
        docs_ds, sharded, text_col="text_clean",
        num_partitions=8, salt_range=256, shard_docs=256, batch_size=128,
    )
    assert manifest["num_docs"] > 0
    with open(os.path.join(single, "manifest.json")) as f:
        m1 = json.load(f)
    assert manifest["num_docs"] == m1["num_docs"]
    assert manifest["avgdl"] == pytest.approx(m1["avgdl"])
    assert len(manifest["segments"]) >= 2  # corpus spans multiple shards
    assert _results(single) == _results(sharded)


def test_kill_resume(ray_session, docs_ds, tmp_path):
    from stocksight_ray.index.segments import build_resumable

    out = str(tmp_path / "resume")
    fresh = str(tmp_path / "fresh")

    partial = build_resumable(
        docs_ds, out, text_col="text_clean",
        num_partitions=8, salt_range=256, shard_docs=256, batch_size=128,
        max_shards=1,
    )
    assert partial.get("partial") is True
    # shard 0 committed, later shards absent — the "crash" point
    assert os.path.exists(os.path.join(out, "segments", "shard-00000", "_SUCCESS"))
    assert not os.path.exists(os.path.join(out, "manifest.json"))
    lineage0 = json.load(
        open(os.path.join(out, "segments", "shard-00000", "lineage.json"))
    )

    # resume: shard 0 must be SKIPPED (lineage identical object), rest built
    manifest = build_resumable(
        docs_ds, out, text_col="text_clean",
        num_partitions=8, salt_range=256, shard_docs=256, batch_size=128,
    )
    assert manifest["segments"][0] == lineage0  # untouched checkpoint
    assert all("docs_per_sec" in s and "wall_sec" in s for s in manifest["segments"])

    build_resumable(
        docs_ds, fresh, text_col="text_clean",
        num_partitions=8, salt_range=256, shard_docs=256, batch_size=128,
    )
    assert _results(out) == _results(fresh)


def test_resume_idempotent(ray_session, docs_ds, tmp_path):
    """Running the build twice changes nothing (dedup/property test)."""
    from stocksight_ray.index.segments import build_resumable

    out = str(tmp_path / "idem")
    m1 = build_resumable(
        docs_ds, out, text_col="text_clean",
        num_partitions=4, salt_range=256, shard_docs=256, batch_size=128,
    )
    r1 = _results(out)
    m2 = build_resumable(
        docs_ds, out, text_col="text_clean",
        num_partitions=4, salt_range=256, shard_docs=256, batch_size=128,
    )
    assert m2["segments"] == m1["segments"]
    assert _results(out) == r1


def test_incremental_append(ray_session, tmp_path):
    """W1 incremental ingest: new docs with doc_ids beyond the current max
    arrive as new shards; re-running build_resumable folds them in without
    touching committed shards, and the result equals a fresh full build."""
    import ray.data as rd
    import pyarrow as pa

    from stocksight_ray.index.segments import build_resumable

    def mk_docs(lo, hi, seed_word):
        texts = [
            f"{seed_word} market stock document number {i} with earnings data"
            for i in range(lo, hi)
        ]
        return pa.table({
            "doc_id": pa.array(range(lo, hi), pa.int64()),
            "text": pa.array(texts, pa.string()),
        })

    batch1 = mk_docs(0, 300, "alpha")
    batch2 = mk_docs(300, 500, "beta")
    out = str(tmp_path / "incr")
    fresh = str(tmp_path / "freshfull")

    m1 = build_resumable(
        rd.from_arrow(batch1), out, text_col="text",
        num_partitions=4, salt_range=128, shard_docs=128, batch_size=64,
    )
    n_shards_1 = len(m1["segments"])
    lineage1 = m1["segments"]

    both = pa.concat_tables([batch1, batch2])
    m2 = build_resumable(
        rd.from_arrow(both), out, text_col="text",
        num_partitions=4, salt_range=128, shard_docs=128, batch_size=64,
    )
    assert len(m2["segments"]) > n_shards_1
    # committed shards untouched (identical lineage records)
    assert m2["segments"][:n_shards_1 - 1] == lineage1[:n_shards_1 - 1]
    assert m2["num_docs"] == 500

    build_resumable(
        rd.from_arrow(both), fresh, text_col="text",
        num_partitions=4, salt_range=128, shard_docs=128, batch_size=64,
    )
    assert _results(out) == _results(fresh)


def test_stale_shard_detected_on_renumbering(ray_session, tmp_path):
    """Same per-shard COUNTS but shifted (doc_id -> text) assignment — the
    content fingerprint must force a rebuild (count-only checks would keep
    the stale segment and silently corrupt queries)."""
    import pyarrow as pa
    import ray.data as rd

    from stocksight_ray.index.segments import build_resumable

    def mk(texts):
        return pa.table({
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        })

    base = [f"market doc number {i} earnings data" for i in range(256)]
    out = str(tmp_path / "stale")
    build_resumable(rd.from_arrow(mk(base)), out, text_col="text",
                    num_partitions=4, salt_range=128, shard_docs=128, batch_size=64)

    # renumber: insert a new doc at the front — every id keeps shard counts
    # (2 full shards of 128) but the (id -> text) mapping shifts
    shifted = ["zzz brand new first doc"] + base[:-1]
    m = build_resumable(rd.from_arrow(mk(shifted)), out, text_col="text",
                        num_partitions=4, salt_range=128, shard_docs=128, batch_size=64)
    fresh = str(tmp_path / "stale_fresh")
    build_resumable(rd.from_arrow(mk(shifted)), fresh, text_col="text",
                    num_partitions=4, salt_range=128, shard_docs=128, batch_size=64)
    assert _results(out) == _results(fresh)


def test_sub_salt_sharding(ray_session, docs_ds, tmp_path):
    """shard_docs smaller than salt_range (a salt bucket split across
    shards): runs still concatenate in docid order and results match the
    single-pass build."""
    from stocksight_ray.index.build import build_index
    from stocksight_ray.index.segments import build_resumable

    single = str(tmp_path / "subsalt_single")
    sharded = str(tmp_path / "subsalt_sharded")
    build_index(docs_ds, single, text_col="text_clean",
                num_partitions=4, salt_range=512, batch_size=128)
    build_resumable(docs_ds, sharded, text_col="text_clean",
                    num_partitions=4, salt_range=512, shard_docs=128, batch_size=128)
    assert _results(single) == _results(sharded)



def test_empty_shard_ranges(ray_session, tmp_path):
    """Doc ids with a gap wider than a shard: the shard ranges holding no
    docs commit empty segments, and the index equals the single-pass
    build."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from stocksight_ray.index.build import build_index
    from stocksight_ray.index.segments import build_resumable

    ids = list(range(100)) + list(range(300, 400))
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array([f"stock doc{i} market m{i % 7}" for i in ids]),
    }))
    single, sharded = str(tmp_path / "single"), str(tmp_path / "sharded")
    build_index(docs, single, text_col="text", num_partitions=4,
                salt_range=64, batch_size=32)
    m = build_resumable(docs, sharded, text_col="text", num_partitions=4,
                        salt_range=64, shard_docs=64, batch_size=32)
    assert [s["n_docs"] for s in m["segments"]] == [64, 36, 0, 0, 20, 64, 16]
    empty = pq.read_table(
        os.path.join(sharded, "segments", "shard-00002", "norms.parquet"))
    assert empty.num_rows == 0 and empty.column_names == ["doc_id", "doc_len"]
    from stocksight_ray.index.query import QueryEngine

    e1, e2 = QueryEngine(single), QueryEngine(sharded)
    for q in ("stock", "doc7 doc350", "market m3"):
        assert e1.search(q, k=50) == e2.search(q, k=50)


_ONE_CPU_CHILD = r"""
import json, sys
import pyarrow as pa
import ray, ray.data as rd
from stocksight_ray.index.build import build_index
from stocksight_ray.index.query import QueryEngine
from stocksight_ray.index.segments import build_resumable

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
rd.DataContext.get_current().enable_progress_bars = False
words = ["stock", "market", "earnings", "strong", "weak", "investor",
         "report", "record", "falls", "rises", "quarterly", "fears"]
texts = [" ".join(words[(i * 7 + j * 5) % len(words)] for j in range(3 + i % 9))
         + f" doc{i}" for i in range(300)]
docs = pa.table({"doc_id": pa.array(range(300), pa.int64()),
                 "text": pa.array(texts)})
out, single = sys.argv[1], sys.argv[2]
m = build_resumable(rd.from_arrow(docs), out, text_col="text",
                    num_partitions=4, salt_range=128, shard_docs=128,
                    batch_size=64)
build_index(rd.from_arrow(docs), single, text_col="text", num_partitions=4,
            salt_range=128, batch_size=64)
queries = ["stock market", "strong earnings report", "fears", "doc7 record"]
print(json.dumps({
    "shards": len(m["segments"]),
    "sharded": [QueryEngine(out).search(q, k=20) for q in queries],
    "single": [QueryEngine(single).search(q, k=20) for q in queries],
}))
ray.shutdown()
"""


def test_build_resumable_on_one_cpu(tmp_path):
    """A segmented build finishes on a Ray session with ONE CPU (no stage
    may wait on an actor pool that holds the only CPU) and equals the
    single-pass build.  Runs in its own process and Ray session, killed
    with everything it started if it does not finish in 120 s."""
    import signal
    import subprocess
    import sys
    import time
    import uuid

    marker = f"ONE_CPU_TEST={uuid.uuid4().hex}"
    env = dict(os.environ, ONE_CPU_TEST=marker.split("=", 1)[1],
               RAY_USAGE_STATS_ENABLED="0",
               PYTHONPATH=os.path.dirname(os.path.dirname(__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_CHILD, str(tmp_path / "seg"),
         str(tmp_path / "single")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        # the child's Ray processes carry its environment marker
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        deadline = time.time() + 20
        while time.time() < deadline:
            left = []
            for d in filter(str.isdigit, os.listdir("/proc")):
                try:
                    with open(f"/proc/{d}/environ", "rb") as f:
                        if marker.encode() in f.read().split(b"\0"):
                            left.append(int(d))
                except OSError:
                    continue
            if not left:
                break
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.2)
    assert stdout is not None, "build_resumable did not finish in 120 s on 1 CPU"
    assert proc.returncode == 0
    got = json.loads(stdout.decode().strip().splitlines()[-1])
    assert got["shards"] == 3
    assert got["sharded"] == got["single"]
    assert any(got["single"])
