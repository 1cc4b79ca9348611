"""Filesystem-portable index IO (fsio.py, VERDICT r3 #6): the path layer's
contract against a mocked non-local filesystem, and a full build+query
round-trip over a ``file://`` URI — proving no index write/read assumes a
shared POSIX mount reachable by plain ``os`` paths."""

import os

import pyarrow as pa
import pytest

from stocksight_ray import fsio


@pytest.fixture
def mock_fs(tmp_path):
    """A non-local-looking filesystem: SubTreeFileSystem registered under
    the ``mock`` scheme.  fsio treats it like an object store (no tmp+rename
    atomicity, direct writes, marker commits)."""
    from pyarrow import fs as pafs

    base = tmp_path / "mockroot"
    base.mkdir()
    fs = pafs.SubTreeFileSystem(str(base), pafs.LocalFileSystem())
    fsio.register_filesystem("mock", fs)
    yield base
    fsio.unregister_filesystem("mock")


def test_join_is_uri_safe():
    assert fsio.join("/a/b", "c", "d.parquet") == "/a/b/c/d.parquet"
    assert fsio.join("s3://bkt/pre", "c", "d") == "s3://bkt/pre/c/d"
    assert fsio.join("file:///a", "b") == "file:///a/b"


def test_local_and_file_uri_resolve():
    assert fsio.is_local("/tmp/x")
    assert fsio.is_local("file:///tmp/x")


def test_mock_fs_ops(mock_fs):
    root = "mock://idx"
    assert not fsio.is_local(root)
    fsio.makedirs(fsio.join(root, "index"))
    assert fsio.isdir(fsio.join(root, "index"))
    assert fsio.listdir(root) == ["index"]

    tbl = pa.table({"a": pa.array([1, 2, 3], pa.int64())})
    p = fsio.join(root, "index", "part-00000.parquet")
    fsio.write_table_atomic(tbl, p)
    assert fsio.exists(p)
    assert fsio.getsize(p) > 0
    assert fsio.read_table(p).equals(tbl)
    assert fsio.read_table(p, columns=["a"]).num_rows == 3
    # no stray .tmp left behind on the non-local path (direct PUT)
    assert fsio.listdir(fsio.join(root, "index")) == ["part-00000.parquet"]

    fsio.write_json_atomic({"k": 1}, fsio.join(root, "manifest.json"))
    assert fsio.read_json(fsio.join(root, "manifest.json")) == {"k": 1}
    fsio.write_text(fsio.join(root, "_SUCCESS"), "ok")
    assert fsio.read_text(fsio.join(root, "_SUCCESS")) == "ok"

    fsio.remove_dir(fsio.join(root, "index"))
    assert not fsio.exists(p)
    fsio.remove_dir(fsio.join(root, "never-existed"))  # ignore-missing


def test_segment_staging_policy(mock_fs, tmp_path):
    """Local segments stage in <seg>.tmp (rename commit); non-local ones
    build in the final prefix and commit via the _SUCCESS marker."""
    from stocksight_ray.index.segments import _begin_segment, _commit_segment

    local_seg = str(tmp_path / "seg" / "shard-00000")
    os.makedirs(os.path.dirname(local_seg), exist_ok=True)
    staged = _begin_segment(local_seg)
    assert staged == local_seg + ".tmp" and os.path.isdir(staged)
    fsio.write_text(fsio.join(staged, "_SUCCESS"), "ok")
    _commit_segment(staged, local_seg)
    assert os.path.isdir(local_seg) and not os.path.exists(staged)

    remote_seg = "mock://segs/shard-00000"
    staged = _begin_segment(remote_seg)
    assert staged == remote_seg and fsio.isdir(remote_seg)
    _commit_segment(staged, remote_seg)  # no-op, already in place


def test_build_query_roundtrip_file_uri(ray_session, webtext_table, tmp_path):
    """build_index AND the resumable segment build both write through fsio;
    a file:// URI round-trips byte-for-byte with a plain-path build."""
    import ray.data as rd

    from stocksight_ray.index.build import build_index
    from stocksight_ray.index.query import QueryEngine
    from stocksight_ray.index.segments import build_resumable
    from stocksight_ray.pipelines.ingest import ingest_webtext

    docs = (
        ingest_webtext(
            rd.from_arrow(webtext_table), batch_size=128
        )
        .drop_columns(["tokens"])
        .materialize()
    )
    plain = str(tmp_path / "plain")
    uri = "file://" + str(tmp_path / "uri")
    m1 = build_index(docs, plain, text_col="text_clean", num_partitions=8,
                     batch_size=256)
    m2 = build_index(docs, uri, text_col="text_clean", num_partitions=8,
                     batch_size=256)
    assert m1["num_docs"] == m2["num_docs"] > 0
    e1, e2 = QueryEngine(plain), QueryEngine(uri)
    for q in ("stock market earnings", "investor fears", "quarterly report"):
        assert e1.search(q, k=10) == e2.search(q, k=10)

    # resumable/segmented build + re-run reuse over the URI
    seg_uri = "file://" + str(tmp_path / "seg_uri")
    ms = build_resumable(
        docs, seg_uri, text_col="text_clean",
        num_partitions=8, salt_range=128, shard_docs=128, batch_size=128,
    )
    assert ms["num_docs"] == m1["num_docs"]
    es = QueryEngine(seg_uri)
    for q in ("stock market earnings", "buy sell hold"):
        assert es.search(q, k=10) == e1.search(q, k=10)
    ms2 = build_resumable(
        docs, seg_uri, text_col="text_clean",
        num_partitions=8, salt_range=128, shard_docs=128, batch_size=128,
    )
    assert ms2["num_docs"] == ms["num_docs"]  # full reuse, no rebuild
