"""Per-layer figures of a traced run.

Each probe times calls into one layer's public functions from here, after
the workload's own (spanned) calls, so it never slows the end-to-end path.
A workload probes the layers it stresses; every other per-layer metric of a
traced run reads 0.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import pyarrow.dataset as pads

from corpus import NUM_PARTITIONS, TEXT_COL

perf = time.perf_counter
LAYERS = ("ray", "ingest", "build", "codec", "query", "qparse", "segments",
          "serve", "deletes", "upsert")
_STAGES: dict = {}
MIN_ROUNDS = 21  # sharded timing rounds: >= 1,000 bm25 ops, >= 880 qstring


def _median_ms(fn, args_list, reps: int = 1) -> float:
    out = []
    for args in args_list:
        for _ in range(reps):
            t0 = perf()
            fn(*args)
            out.append(perf() - t0)
    return 1e3 * statistics.median(out) if out else 0.0


# ---------------------------------------------------------------------------
# build workload: ingest and build stages with a barrier between stages
# ---------------------------------------------------------------------------

def _enrich(batch):
    from stocksight_ray.pipelines.ingest import EnrichStage

    stage = _STAGES.get("enrich") or _STAGES.setdefault("enrich", EnrichStage())
    return stage(batch)


def _tokenize(batch):
    from stocksight_ray.index.build import TokenizeStage

    stage = _STAGES.get("tok") or _STAGES.setdefault(
        "tok", TokenizeStage(text_col=TEXT_COL))
    return stage(batch)


def _timed(fn):
    t0 = perf()
    out = fn()
    return out, perf() - t0


def ingest_build_stages(run, pages_path: str, docs_dir: str,
                        build_index_s: float) -> None:
    import ray.data as rd
    from stocksight_ray.geometry import shuffle_num_blocks
    from stocksight_ray.index.build import (DEFAULT_SALT_RANGE,
                                            make_partition_writer,
                                            make_spimi_partial, merge_bucket)
    from stocksight_ray.pipelines.ingest import (clean_filter_batch,
                                                 dedup_and_assign_ids,
                                                 extract_batch)

    L = run.layers
    pages = rd.read_parquet(pages_path, columns=["url", "warc_ts", "html", "lang"])
    L["ingest.rows_in"] = pages.count()
    ex, L["ingest.extract_s"] = _timed(lambda: pages.map_batches(
        extract_batch, batch_format="pyarrow", batch_size=512).materialize())
    cl, L["ingest.clean_s"] = _timed(lambda: ex.map_batches(
        clean_filter_batch, batch_format="pyarrow", batch_size=512).materialize())
    schema = cl.schema().base_schema
    dd, L["ingest.dedup_ids_s"] = _timed(lambda: dedup_and_assign_ids(
        cl, "url", "warc_ts", schema=schema).materialize())
    en, L["ingest.enrich_s"] = _timed(lambda: dd.map_batches(
        _enrich, batch_format="pyarrow", batch_size=512).materialize())
    L["ingest.docs_out"] = en.count()

    docs = rd.read_parquet(docs_dir, columns=["doc_id", TEXT_COL])
    tok, L["build.tokenize_s"] = _timed(lambda: docs.map_batches(
        _tokenize, batch_format="pyarrow", batch_size=1024).materialize())
    part, L["build.spimi_s"] = _timed(lambda: tok.map_batches(
        make_spimi_partial(NUM_PARTITIONS, DEFAULT_SALT_RANGE),
        batch_format="pyarrow", batch_size=None).materialize())
    L["build.partial_rows"] = part.count()
    merged, L["build.merge_s"] = _timed(lambda: part.repartition(
        shuffle_num_blocks(tok.size_bytes())).groupby(["part", "salt"])
        .map_groups(merge_bucket, batch_format="pandas").materialize())
    out = run.path("stages")

    def write():
        tok.select_columns(["doc_id", "doc_len"]).write_parquet(
            os.path.join(out, "norms"))
        merged.groupby("part").map_groups(
            make_partition_writer(out), batch_format="pandas").materialize()

    _, L["build.write_s"] = _timed(write)
    L["build.gap_s"] = build_index_s - sum(
        L[k] for k in ("build.tokenize_s", "build.spimi_s", "build.merge_s",
                       "build.write_s"))


def codec(run, eng) -> None:
    """encode_postings / decode_postings in-process on the built postings."""
    from stocksight_ray.index import codec as C

    idx = os.path.join(eng.index_dir, "index")
    rows = []
    for name in sorted(os.listdir(idx)):
        t = pads.dataset(os.path.join(idx, name)).to_table(
            columns=["meta", "payload"])
        rows += zip(t["meta"].to_pylist(), t["payload"].to_pylist())
    t0 = perf()
    decoded = [C.decode_postings(m, p) for m, p in rows]
    dec_s = perf() - t0
    dls = [eng.doc_lens(ids) for ids, _ in decoded]
    t0 = perf()
    encoded = [C.encode_postings(ids, tfs, dl)
               for (ids, tfs), dl in zip(decoded, dls)]
    enc_s = perf() - t0
    for (ids, tfs), (m, p) in zip(decoded, encoded):
        i2, t2 = C.decode_postings(m, p)
        if not (np.array_equal(ids, i2) and np.array_equal(tfs, t2)):
            run.check("codec", ["encode/decode round trip differs"])
            break
    n_post = sum(ids.size for ids, _ in decoded)
    n_bytes = sum(len(m) + len(p) for m, p in encoded)
    run.layers["codec.decode_postings_per_s"] = n_post / dec_s
    run.layers["codec.encode_mb_per_s"] = n_bytes / 1e6 / enc_s
    run.layers["build.index_bytes"] = sum(
        os.path.getsize(os.path.join(r, f))
        for d in ("index", "norms")
        for r, _, fs in os.walk(os.path.join(eng.index_dir, d)) for f in fs)


# ---------------------------------------------------------------------------
# serve workload: query and query-string layers
# ---------------------------------------------------------------------------

def query_layers(run, eng, rounds, inv) -> None:
    from stocksight_ray.index import qparse

    L = run.layers
    opens = run.notes["engine_open"]
    L["query.open_s"] = statistics.median(o for o, _ in opens)
    L["query.warm_s"] = statistics.median(w for _, w in opens)
    ops = [op for r in rounds[:40] for op in r]
    bm25 = [op for op in ops if op.kind == "bm25"]
    qs = [op for op in ops if op.kind == "qstring" and op.cls != "warc_ts"]
    phrases = list({op.text: op for op in ops if op.kind == "phrase"}.values())

    L["query.analyze_us"] = 1e3 * _median_ms(
        eng.analyze_query, [(op.text,) for op in bm25], reps=3)
    terms = [t for op in bm25 for t in op.spec]
    L["query.lookup_us"] = 1e3 * _median_ms(eng.lookup, [(t,) for t in terms],
                                            reps=3)
    for c in ("head", "mid", "tail"):
        L[f"query.search_{c}_ms"] = _median_ms(
            eng.search, [(op.text, 10) for op in bm25 if op.cls == c], reps=3)
    L["query.postings_per_query"] = float(np.mean(
        [sum(inv.df(t) for t in op.spec) for op in bm25]))
    L["qparse.parse_us"] = 1e3 * _median_ms(qparse.parse,
                                            [(op.text,) for op in qs], reps=3)
    prefixes = [op.spec[1][1] for op in qs if op.cls == "wildcard"]
    L["qparse.prefix_expand_us"] = 1e3 * _median_ms(
        eng.expand_prefix, [(p,) for p in prefixes], reps=3)
    L["query.and_ms"] = _median_ms(
        eng.search_and, [(op.text.replace(" AND ", " "), 10)
                         for op in qs if op.cls == "and"], reps=3)
    L["qparse.filter_ms"] = _median_ms(
        eng.search_query, [("lang:de", 10), ("sentiment:negative", 10),
                           ("polarity:>=0.5", 10)], reps=5)
    cands, verify = [], []
    for op in phrases:
        words = op.text.strip('"')
        t0 = perf()
        cand = eng.search_and(words, 1 << 30)
        t1 = perf()
        eng.search_phrase(words, 10)
        t2 = perf()
        cands.append(len(cand))
        verify.append((t2 - t1) - (t1 - t0))
    L["query.phrase_candidates"] = float(np.mean(cands))
    L["query.phrase_verify_ms"] = 1e3 * statistics.median(verify)


# ---------------------------------------------------------------------------
# maintain workload: segments, shard serving, deletes, upsert
# ---------------------------------------------------------------------------

def cycle(run, c: dict) -> None:
    L = run.layers
    L["deletes.delete_ms"] = 1e3 * c["delete_s"]
    L["deletes.compact_s"] = c["compact_s"]
    L["deletes.bytes_rewritten"] = c["bytes_rewritten"]
    if "upsert_s" in c:
        L["upsert.upsert_s"] = c["upsert_s"]


def maintain_layers(run, svc, idx: str, rounds, seg_wall: float, opens,
                    rebuilt: int) -> None:
    from stocksight_ray import fsio
    from stocksight_ray.index.serve import SegmentEngine

    L = run.layers
    manifest = fsio.read_json(os.path.join(idx, "manifest.json"))
    shards = [s["shard"] for s in manifest["segments"]]
    L["segments.build_s"] = seg_wall
    L["segments.shards"] = len(shards)
    L["serve.open_s"] = statistics.median(opens)
    engines = [SegmentEngine(idx, s) for s in shards]
    for e in engines:
        e.warm()
    bm25 = [op for r in rounds[:8] for op in r if op.kind == "bm25"]
    slowest, fanout = [], []
    for op in bm25:
        per = []
        for e in engines:
            t0 = perf()
            e.search(op.text, 10)
            per.append(perf() - t0)
        t0 = perf()
        svc.search(op.text, 10)
        wall = perf() - t0
        slowest.append(max(per))
        fanout.append(wall - max(per))
    L["serve.shard_engine_ms"] = 1e3 * statistics.median(slowest)
    L["serve.fanout_ms"] = 1e3 * statistics.median(fanout)
    lat = {"bm25": [], "qstring": [], "phrase": []}
    for r in rounds[:MIN_ROUNDS]:
        # one phrase per round keeps a traced run well inside its timeout
        first_phrase = next(op for op in r if op.kind == "phrase")
        for op in r:
            if op.cls == "warc_ts" or (op.kind == "phrase"
                                       and op is not first_phrase):
                continue
            fn = svc.search if op.kind == "bm25" else svc.search_query
            t0 = perf()
            fn(op.text, 10)
            lat[op.kind].append(perf() - t0)
    for kind, v in lat.items():
        L[f"serve.{kind}_p50_ms"] = 1e3 * statistics.median(v)
    for kind in ("bm25", "qstring"):
        L[f"serve.{kind}_p99_ms"] = 1e3 * float(np.quantile(lat[kind], 0.99))
    L["upsert.shards_rebuilt"] = rebuilt
    cycle(run, run.notes["cycles"][-1])


def self_times(run) -> None:
    st = run.tr.self_times()
    for layer in LAYERS:
        run.layers[f"{layer}.self_s"] = st.get(layer, 0.0)
    run.layers["trace.spans"] = len(run.tr.spans)
    run.layers["trace.overhead_s"] = len(run.tr.spans) * run.tr.span_cost_s()
