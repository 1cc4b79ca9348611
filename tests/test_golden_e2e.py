"""End-to-end golden test (SURVEY.md §5.6): tiny corpus → full ingest →
index build → reference query set, compared against the committed golden
results file.  Catches any rank/score drift from refactors of the
extraction, analyzer, codec, or scorer — across partition counts and with
the resumable builder."""

import json
import os

import pytest

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_bm25.json")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def golden_docs(ray_session, golden):
    import ray.data as rd

    from stocksight_ray.pipelines.ingest import ingest_webtext
    from stocksight_ray.webtext import generate_table

    corpus = generate_table(golden["n_pages"], seed=golden["seed"])
    return (
        ingest_webtext(rd.from_arrow(corpus), enrich_concurrency=2, batch_size=128)
        .drop_columns(["tokens"])
        .materialize()
    )


def _check(index_dir, golden, methods=("wand", "exhaustive")):
    from stocksight_ray.index.query import QueryEngine

    eng = QueryEngine(index_dir)
    for q, exp in golden["results"].items():
        exp_pairs = [(int(d), float(s)) for d, s in exp]
        for m in methods:
            got = [(d, round(s, 10)) for d, s in eng.search(q, k=10, method=m)]
            assert got == exp_pairs, (q, m)


def test_golden_single_pass(ray_session, golden, golden_docs, tmp_path):
    from stocksight_ray.index.build import build_index

    out = str(tmp_path / "idx")
    build_index(
        golden_docs, out, text_col="text_clean",
        num_partitions=golden["num_partitions"], batch_size=128,
    )
    _check(out, golden)


def test_golden_other_partitioning(ray_session, golden, golden_docs, tmp_path):
    """Different index partition count and input blocks — same results."""
    from stocksight_ray.index.build import build_index

    out = str(tmp_path / "idx3")
    build_index(
        golden_docs.repartition(3), out, text_col="text_clean",
        num_partitions=3, batch_size=64,
    )
    _check(out, golden, methods=("wand",))


def test_golden_resumable(ray_session, golden, golden_docs, tmp_path):
    from stocksight_ray.index.segments import build_resumable

    out = str(tmp_path / "idxseg")
    build_resumable(
        golden_docs, out, text_col="text_clean",
        num_partitions=golden["num_partitions"], salt_range=128,
        shard_docs=128, batch_size=64,
    )
    _check(out, golden, methods=("wand",))
