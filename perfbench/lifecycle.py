"""The workloads.

Every workload builds an index from seeded pages, runs maintenance cycles on
it and then, with Ray shut down, serves a closed-loop query mix with one warm
``QueryEngine``, so every end-to-end metric has a value in every workload.
Every Ray-phase metric is the median of several samples spread over the run,
so a host slowdown that lasts part of a run moves only some of them.  What
differs:

* ``build_serve``  single-pass index: two Ray sessions, each a start and
                   page -> index builds, each build followed by a delete +
                   compact + reopen (three of each in all).
* ``maintain``     segmented index: ``build_resumable``, ``ShardedQueryService``
                   opens, and two delete + upsert + compact + reopen cycles
                   on one shard; the sharded service must return the same
                   hits as the engine on a sample of the ops.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import time
from collections import Counter, defaultdict
from typing import Dict, List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import checks
import corpus
from corpus import MARKER, NUM_PARTITIONS, TEXT_COL, Round
from tracing import Tracer

RAY_CPUS = 2
K = 10
PAGES = {"build_serve": 2000, "maintain": 1500}
SHARD_DOCS = 768          # maintain: ~1.4k docs -> 2 shards
SHAPES = {"build_serve": Round(48, 48, 4), "maintain": Round(48, 48, 4)}
MIN_OK = 500              # successful bm25 and qstring ops per run
SESSIONS = (1, 2)         # build_serve: build + cycle rounds per Ray session
CYCLES = 2                # maintain: maintenance cycles, on one shard
DELETE_BATCH = 40
UPSERT_BATCH = 40
CHECK_SAMPLE = 40         # checked ops per kind per run
SETTLE_S = 2.0            # unrecorded ops before each serving phase

perf = time.perf_counter
ALL_CPUS = frozenset(os.sched_getaffinity(0))


class Run:
    """State of one workload run: latencies, op counts, check errors and
    the per-layer figures of a traced run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 work: str):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work = work
        self.tr = Tracer(trace)
        self.lat: Dict[str, List[float]] = defaultdict(list)
        self.by_cls: Dict[str, List[float]] = defaultdict(list)
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.fail_kinds: Dict[str, str] = {}
        self.errors: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.notes: Dict[str, object] = {}

    def mark(self, phase: str) -> None:
        """Record the wall time since the previous mark (run notes only)."""
        now = perf()
        last = getattr(self, "_last", None)
        if last is not None:
            self.notes.setdefault("phases", {})[phase] = round(now - last, 3)
        self._last = now

    def check(self, name: str, errs: List[str]) -> None:
        self.errors.extend(f"{name}: {e}" for e in errs)

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)


# ---------------------------------------------------------------------------
# Ray session
# ---------------------------------------------------------------------------

def _noop(x):
    return x


def _warm_imports(batch):
    """Import the modules the builds run in this worker, so the first build
    of a session does not pay for them."""
    import stocksight_ray.index.build  # noqa: F401
    import stocksight_ray.index.segments  # noqa: F401
    import stocksight_ray.pipelines.ingest  # noqa: F401

    return batch


def ray_start(run: Run, pinned: bool) -> float:
    """Start a 2-CPU Ray session and warm its workers (first tasks, the
    program's imports, a first Ray Data pipeline); then, if ``pinned``, pin
    the session to one vCPU (see ``pin_run``).  Returns the seconds of the
    start and warm-up."""
    import ray
    import ray.data as rd
    from ray.data import DataContext

    t0 = perf()
    with run.tr.span("ray.init"):
        ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
                 logging_level="ERROR", object_store_memory=256 << 20,
                 _temp_dir=os.environ["PERFBENCH_RAY_TMP"],
                 _plasma_directory=os.environ["PERFBENCH_RAY_TMP"])
        DataContext.get_current().enable_progress_bars = False
        noop = ray.remote(_noop)
        ray.get([noop.remote(i) for i in range(RAY_CPUS)])
        rd.range(4 * RAY_CPUS, override_num_blocks=RAY_CPUS).map_batches(
            _warm_imports, batch_format="pyarrow").materialize()
    seconds = perf() - t0
    if pinned:
        pin_run({max(ALL_CPUS)})
    return seconds


def ray_stop() -> None:
    """Stop Ray and give this process every vCPU back."""
    import ray

    ray.shutdown()
    pin_run(ALL_CPUS)


def pin_run(cpus) -> None:
    """Set the CPU affinity of every thread of every process of this run
    (this process and its Ray session, found by the run's marker).

    ``build_serve`` runs its Ray phases pinned to one vCPU.  Spread over the
    vCPUs, each hand-off between Ray's processes can wait for a vCPU the
    host is running another tenant on, and short Ray phases followed the
    host's steal time: over six sessions of each, alternated, the quartile
    spread of the per-session median build time was 0.27 unpinned and 0.13
    pinned (delete + compact + reopen: 0.22 and 0.11), at 20-35% more wall
    time.  ``maintain``'s Ray phases start one actor per shard and a
    tokenizer pool per rebuilt shard; pinned they took 1.5-1.6x the wall
    time and were no steadier, so it runs them unpinned."""
    from run import marked_pids

    for pid in marked_pids(os.environ["PERFBENCH_RUN"]) + [os.getpid()]:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:  # a process that ended meanwhile
            continue
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), cpus)
            except OSError:
                pass


# ---------------------------------------------------------------------------
# Index builds
# ---------------------------------------------------------------------------

def ingest(run: Run, pages_path: str, out: str) -> str:
    from stocksight_ray.pipelines.ingest import ingest_webtext

    with run.tr.span("ingest.ingest_webtext"):
        ingest_webtext(pages_path, out)
    return os.path.join(out, "docs")


def build_single(run: Run, pages_path: str, out: str):
    """Pages -> committed single-pass index.  Returns (manifest, docs dir,
    wall seconds, build_index seconds)."""
    from stocksight_ray.index.build import build_index
    import ray.data as rd

    t0 = perf()
    docs_dir = ingest(run, pages_path, os.path.join(out, "ingest"))
    t1 = perf()
    with run.tr.span("build.build_index"):
        manifest = build_index(
            rd.read_parquet(docs_dir, columns=["doc_id", TEXT_COL]),
            os.path.join(out, "index"), text_col=TEXT_COL,
            num_partitions=NUM_PARTITIONS,
            extra_manifest={"docs_path": docs_dir, "docs_text_col": TEXT_COL})
    t2 = perf()
    return manifest, docs_dir, t2 - t0, t2 - t1


def dir_bytes(*dirs: str) -> int:
    return sum(os.path.getsize(os.path.join(r, f))
               for d in dirs for r, _, fs in os.walk(d) for f in fs)


def text_bytes(docs: pa.Table) -> int:
    return int(pc.sum(pc.binary_length(docs[TEXT_COL])).as_py())


def read_docs(docs_dir: str) -> pa.Table:
    return pads.dataset(docs_dir).to_table().sort_by("doc_id")


def check_build(run: Run, pages: pa.Table, docs: pa.Table, idx: str,
                inv: corpus.Inversion, rng: random.Random) -> None:
    """Build outputs against the pages and the benchmark's inversion."""
    from stocksight_ray.index.query import QueryEngine

    run.check("extraction", checks.extraction(pages, docs))
    run.check("dedup", checks.dedup_ids(pages, docs))
    with open(os.path.join(idx, "manifest.json")) as f:
        manifest = json.load(f)
    norms = pads.dataset(os.path.join(idx, "norms")).to_table()
    run.check("norms", checks.norms(manifest, norms["doc_id"].to_pylist(),
                                    norms["doc_len"].to_pylist(), inv))
    eng = QueryEngine(idx)

    def lookup(t):
        p = eng.lookup(t)
        return None if p is None else (p.df, *p.full())

    classes = corpus.df_classes(inv)
    terms = [t for c in corpus.CLASSES for t in rng.sample(classes[c], 5)]
    run.check("postings", checks.postings(lookup, inv, terms))


# ---------------------------------------------------------------------------
# Closed-loop client
# ---------------------------------------------------------------------------

def settle(eng, rounds, seconds: float = SETTLE_S) -> None:
    """Unrecorded ops until ``seconds`` pass: a freshly started service or a
    just-stopped Ray session leaves processes starting or exiting for a few
    seconds, and the measured rounds should not sit in that transient."""
    ops = [op for op in rounds[0] if op.cls != "warc_ts"]
    t_end = perf() + seconds
    while perf() < t_end:
        for op in ops:
            fn = eng.search if op.kind == "bm25" else eng.search_query
            fn(op.text, K)


def serve_rounds(run: Run, eng, rounds, seconds: float, first: int,
                 results: list, min_rounds: int = 0) -> int:
    """One client, one op in flight.  Runs whole rounds until ``seconds``
    have passed and at least ``min_rounds`` ran.  Returns the next round."""
    # the benchmark's own reference data (inversion, pages) is large; keep
    # the collector from walking it in the middle of timed ops
    gc.collect()
    gc.freeze()
    allowed = os.sched_getaffinity(0)
    client = {max(allowed)}
    pin(client, allowed - client)
    try:
        return _client(run, eng, rounds, seconds, first, results, min_rounds)
    finally:
        pin(allowed, allowed)


def pin(client, others) -> None:
    """Set the CPU affinity of every thread of this process.  The client's
    threads (the main thread and Arrow's pools, which carry the main
    thread's name) run on ``client``, so the hand-offs between them stay on
    one vCPU instead of waiting for a vCPU the host's other tenants hold;
    Ray's and gRPC's background threads run on ``others``."""
    main = _comm(os.getpid())
    for tid in os.listdir("/proc/self/task"):
        try:
            cpus = client if _comm(int(tid)) == main else others
            os.sched_setaffinity(int(tid), cpus)
        except OSError:  # a thread that ended meanwhile
            pass


def _comm(tid: int) -> str:
    with open(f"/proc/self/task/{tid}/comm") as f:
        return f.read().strip()


SPANS = {"bm25": "query.search", "qstring": "qparse.search_query",
         "phrase": "qparse.search_query"}


def _client(run: Run, eng, rounds, seconds, first, results, min_rounds):
    settle(eng, rounds)
    t_end = perf() + seconds
    r = first
    while True:
        for op in rounds[r % len(rounds)]:
            fn = eng.search if op.kind == "bm25" else eng.search_query
            run.attempted[op.kind] += 1
            run.tr.request = len(results)
            t0 = perf()
            try:
                with run.tr.span(SPANS[op.kind]):
                    hits = fn(op.text, K)
            except Exception as e:  # counted, reported, kept out of latency
                run.failed[op.kind] += 1
                run.fail_kinds[op.cls] = f"{type(e).__name__}: {e}"[:160]
                continue
            dt = perf() - t0
            run.lat[op.kind].append(dt)
            run.by_cls[op.cls].append(dt)
            results.append((op, hits))
        r += 1
        if perf() >= t_end and r - first >= min_rounds:
            return r


def rounds_for_min(shape: Round) -> int:
    ok_q = shape.qstring - shape.qstring // len(corpus.QSTRING_TEMPLATES)
    return -(-MIN_OK // min(shape.bm25, ok_q))


def check_results(run: Run, results, inv: corpus.Inversion, docs: pa.Table,
                  rng: random.Random, tag: str, deleted=None):
    """Check a seeded sample of successful ops against the oracles.
    Returns one (hits, reference scores) pair for the self-test."""
    by_kind = defaultdict(dict)
    for op, hits in results:
        by_kind[op.kind].setdefault(op.text, (op, hits))
    scored = None
    for kind, seen in by_kind.items():
        sample = list(seen.values())
        sample = rng.sample(sample, min(CHECK_SAMPLE, len(sample)))
        for op, hits in sample:
            if kind == "bm25":
                scores = checks.bm25_scores(inv, op.spec)
                run.check(f"{tag} bm25 {op.text!r}", checks.ranked(hits, scores, K))
                if scored is None and len(hits) > 2:
                    scored = (hits, scores)
            elif kind == "qstring":
                m = checks.eval_spec(op.spec, inv, docs)
                run.check(f"{tag} qstring {op.text!r}", checks.matches(hits, m, K))
            else:
                m = checks.phrase_scan(inv, *op.spec)
                run.check(f"{tag} phrase {op.text!r}", checks.matches(hits, m, K))
    if deleted is not None:
        for op, hits in results:
            run.check(f"{tag} {op.text!r}", checks.none_deleted(hits, deleted))
    return scored


# ---------------------------------------------------------------------------
# Maintenance
# ---------------------------------------------------------------------------

def cycle_single(run: Run, idx: str, deleted: np.ndarray):
    """delete + compact + reopen on a single-pass index (an upsert there is
    a full rebuild, which the build metric already measures).  Returns the
    cycle's wall seconds and the reopened engine."""
    from stocksight_ray.index.deletes import compact, delete_docs

    t0 = perf()
    with run.tr.span("deletes.delete_docs"):
        delete_docs(idx, deleted)
    t1 = perf()
    before = file_stamps(idx)
    with run.tr.span("deletes.compact"):
        compact(idx)
    t2 = perf()
    eng = open_engine(run, idx)
    t3 = perf()
    run.notes.setdefault("cycles", []).append(
        {"delete_s": t1 - t0, "compact_s": t2 - t1, "reopen_s": t3 - t2,
         "bytes_rewritten": rewritten(before, file_stamps(idx))})
    return t3 - t0, eng


def open_engine(run: Run, idx: str):
    from stocksight_ray.index.query import QueryEngine

    t0 = perf()
    with run.tr.span("query.QueryEngine"):
        eng = QueryEngine(idx)
    t1 = perf()
    with run.tr.span("query.warm"):
        eng.warm(deep=True)
    run.notes.setdefault("engine_open", []).append((t1 - t0, perf() - t1))
    return eng


def attach_docs(idx: str, docs_dir: str) -> None:
    """Point the index manifest at its docs table.  The segmented build
    takes no extra manifest keys and ``compact`` rewrites the manifest
    without them, so this runs after each of those calls."""
    from stocksight_ray import fsio

    path = os.path.join(idx, "manifest.json")
    manifest = fsio.read_json(path)
    manifest.update(docs_path=docs_dir, docs_text_col=TEXT_COL)
    fsio.write_json_atomic(manifest, path, indent=1, default=int)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _pages(run: Run):
    path = run.path("pages.parquet")
    return path, corpus.write_pages(path, PAGES[run.workload], run.seed)


def _rounds(run: Run, inv, docs, n):
    return corpus.make_rounds(run.seed, inv, docs["doc_id"].to_pylist(),
                              docs[TEXT_COL].to_pylist(),
                              SHAPES[run.workload], n)


def _finish_serving(run: Run, results, inv, docs, rng, deleted, self_pages):
    scored = check_results(run, results, inv, docs, rng, "serve", deleted)
    missed = checks.self_test(inv, scored, self_pages, docs_for_selftest(docs),
                              deleted)
    if scored is None:
        missed.append("no scored hit list to corrupt")
    run.check("self-test accepted a corrupted output", missed)


def docs_for_selftest(docs: pa.Table) -> pa.Table:
    return docs.select(["url", "warc_ts", "text"])


def workload_build_serve(run: Run) -> None:
    """Two Ray sessions with three page -> index builds between them, each
    build followed by a delete + compact + reopen.  After each session, with
    Ray shut down, the client runs half of the serving time on the last
    reopened QueryEngine, so the serving samples, like the build samples,
    are spread over the whole run."""
    rng = random.Random(f"build_serve:{run.seed}")
    run.mark("start")
    pages_path, pages = _pages(run)
    run.mark("pages")
    shape = SHAPES[run.workload]
    min_rounds = -(-rounds_for_min(shape) // len(SESSIONS))
    setups, walls, build_walls, cycles, results = [], [], [], [], []
    docs = inv = deleted = rounds = None
    nxt = 0
    for i, n_builds in enumerate(SESSIONS):
        setups.append(ray_start(run, pinned=True))
        run.mark(f"setup{i}")
        for _ in range(n_builds):
            b = len(walls)
            out = run.path(f"build-{b}")
            manifest, docs_dir, wall, build_wall = build_single(run, pages_path,
                                                                out)
            walls.append(wall)
            build_walls.append(build_wall)
            run.mark(f"build{b}")
            idx = os.path.join(out, "index")
            if docs is None:
                docs = read_docs(docs_dir)
                inv = corpus.invert(docs["doc_id"].to_pylist(),
                                    docs[TEXT_COL].to_pylist())
                check_build(run, pages, docs, idx, inv, rng)
                deleted = np.array(corpus.pick(rng, inv.doc_ids, DELETE_BATCH),
                                   np.int64)
                rounds = _rounds(run, inv, docs, 4 * rounds_for_min(shape))
            elif not read_docs(docs_dir).equals(docs):
                run.check("build", [f"build {b} made other docs than build 0"])
            run.mark(f"check{b}")
            if run.tr.enabled and b == sum(SESSIONS) - 1:
                import probes

                probes.ingest_build_stages(run, pages_path, docs_dir,
                                           statistics.median(build_walls))
                run.mark("probe_stages")
            cycle_s, eng = cycle_single(run, idx, deleted)
            cycles.append(cycle_s)
            run.mark(f"cycle{b}")
        ray_stop()
        run.mark(f"ray_stop{i}")
        nxt = serve_rounds(run, eng, rounds, run.seconds / len(SESSIONS), nxt,
                           results, min_rounds)
        run.mark(f"serve{i}")
    run.notes.update(setup_s=setups, build_s=walls, cycle_s=cycles)
    run.metrics["setup_s"] = statistics.median(setups)
    run.metrics["build_docs_per_s"] = manifest["num_docs"] / statistics.median(walls)
    run.metrics["index_bytes_per_text_byte"] = (
        dir_bytes(os.path.join(idx, "index"), os.path.join(idx, "norms"))
        / text_bytes(docs))
    run.metrics["maintain_s"] = statistics.median(cycles)
    live = corpus.with_changes(inv, deleted, {})
    _finish_serving(run, results, live, docs, rng, deleted, pages)
    run.mark("check_serve")
    if run.tr.enabled:
        import probes

        probes.query_layers(run, eng, rounds, live)
        probes.codec(run, eng)
        probes.cycle(run, run.notes["cycles"][-1])


def workload_maintain(run: Run) -> None:
    """One Ray session: build_resumable, the sharded service opened, two
    delete + upsert + compact + reopen cycles, the sharded service checked
    against the engine; then Ray shut down and a warm QueryEngine on the
    maintained index under the client."""
    import ray.data as rd
    from stocksight_ray.index.deletes import compact, delete_docs
    from stocksight_ray.index.query import QueryEngine
    from stocksight_ray.index.segments import build_resumable
    from stocksight_ray.index.serve import ShardedQueryService
    from stocksight_ray.index.upsert import upsert_docs

    rng = random.Random(f"maintain:{run.seed}")
    run.mark("start")
    pages_path, pages = _pages(run)
    run.mark("pages")
    ray_s = ray_start(run, pinned=False)
    run.mark("ray")
    docs_dir = ingest(run, pages_path, run.path("ingest"))
    run.mark("ingest")
    docs = read_docs(docs_dir)
    inv = corpus.invert(docs["doc_id"].to_pylist(), docs[TEXT_COL].to_pylist())
    idx = run.path("index")
    t0 = perf()
    with run.tr.span("segments.build_resumable"):
        manifest = build_resumable(
            rd.read_parquet(docs_dir, columns=["doc_id", TEXT_COL]), idx,
            text_col=TEXT_COL, num_partitions=NUM_PARTITIONS,
            salt_range=SHARD_DOCS, shard_docs=SHARD_DOCS)
    seg_wall = perf() - t0
    run.mark("build_resumable")
    n_shards = len(manifest["segments"])
    attach_docs(idx, write_docs_table(run, "docs_v1", docs))
    check_build(run, pages, docs, idx, inv, rng)
    run.metrics["build_docs_per_s"] = manifest["num_docs"] / seg_wall
    run.metrics["index_bytes_per_text_byte"] = (
        dir_bytes(os.path.join(idx, "index"), os.path.join(idx, "norms"))
        / text_bytes(docs))
    run.mark("check_build")

    t0 = perf()
    with run.tr.span("serve.ShardedQueryService"):
        svc = ShardedQueryService(idx)
    opens = [perf() - t0]
    run.mark("open")

    # the maintenance cycles, on one seeded shard: each deletes a batch of
    # its docs and upserts another batch (the corpus as it stands as the
    # upsert's source), compacts and reopens the service.  Confined to one
    # shard, every cycle rebuilds and compacts that shard alone and does the
    # same work: compact updates a shard's doc count but not its content
    # fingerprint, so an upsert after it rebuilds every shard compact touched
    shard = rng.randrange(n_shards)
    in_shard = inv.doc_ids[inv.doc_ids // SHARD_DOCS == shard]
    picked = corpus.pick(rng, in_shard, CYCLES * (DELETE_BATCH + UPSERT_BATCH))
    rng.shuffle(picked)
    text_of = dict(zip(docs["doc_id"].to_pylist(), docs[TEXT_COL].to_pylist()))
    cur, purged, new_text = docs, np.array([], np.int64), {}
    cycles, rebuilt = [], []
    for c in range(CYCLES):
        batch = picked[c * (DELETE_BATCH + UPSERT_BATCH):
                       (c + 1) * (DELETE_BATCH + UPSERT_BATCH)]
        deleted_c = np.array(sorted(batch[:DELETE_BATCH]), np.int64)
        upd_ids = sorted(batch[DELETE_BATCH:])
        upd_text = {d: f"{text_of[d]} {MARKER}" for d in upd_ids}
        updates = pa.table({"doc_id": pa.array(upd_ids, pa.int64()),
                            TEXT_COL: pa.array([upd_text[d] for d in upd_ids])})
        # docs an earlier compact purged are out of the source; this
        # cycle's deletes are still in it, masked by their tombstones until
        # compact purges them
        live_rows = pa.array(~np.isin(cur["doc_id"].to_numpy(), purged))
        source = rd.from_arrow(cur.select(["doc_id", TEXT_COL]).filter(live_rows))
        cur = replace_text(cur, upd_text)
        new_text.update(upd_text)
        cur_dir = write_docs_table(run, f"docs_v{c + 2}", cur)
        seg_before = segment_stamps(idx)
        run.mark(f"prepare{c}")

        t0 = perf()
        with run.tr.span("deletes.delete_docs"):
            delete_docs(idx, deleted_c)
        t1 = perf()
        with run.tr.span("upsert.upsert_docs"):
            upsert_docs(idx, updates, source, text_col=TEXT_COL)
        t2 = perf()
        seg_after = segment_stamps(idx)
        bytes_mid = file_stamps(idx)
        with run.tr.span("deletes.compact"):
            compact(idx)
        t3 = perf()
        attach_docs(idx, cur_dir)
        svc.shutdown()
        with run.tr.span("serve.ShardedQueryService"):
            svc = ShardedQueryService(idx)
        t4 = perf()
        purged = np.union1d(purged, deleted_c)
        cycles.append(t4 - t0)
        opens.append(t4 - t3)
        rebuilt.append(sum(seg_before.get(k) != v for k, v in seg_after.items()))
        run.notes.setdefault("cycles", []).append(
            {"delete_s": t1 - t0, "upsert_s": t2 - t1, "compact_s": t3 - t2,
             "reopen_s": t4 - t3,
             "bytes_rewritten": rewritten(bytes_mid, file_stamps(idx))})
        run.mark(f"cycle{c}")
    run.notes.update(cycle_s=cycles, open_s=opens, shards_rebuilt=rebuilt)
    run.metrics["maintain_s"] = statistics.median(cycles)
    run.metrics["setup_s"] = ray_s + statistics.median(opens)
    deleted = purged

    # the sharded service answers like the engine over the same index, and
    # the marker token finds exactly the upserted docs
    live = corpus.with_changes(inv, deleted, new_text)
    shape = SHAPES["maintain"]
    rounds = _rounds(run, inv, docs, 4 * rounds_for_min(shape))
    single = QueryEngine(idx)
    single.warm(deep=True)
    compare_engines(run, svc, untimed(single, rounds[-1]), rng, "sharded")
    marker = svc.search(MARKER, K + len(new_text))
    if sorted(d for d, _ in marker) != sorted(new_text):
        run.check("marker", [f"{len(marker)} marker hits, expected the "
                             f"{len(new_text)} upserted ids"])
    run.mark("check_sharded")
    if run.tr.enabled:
        import probes

        probes.maintain_layers(run, svc, idx, rounds, seg_wall, opens,
                               rebuilt[-1])
        run.mark("probe_layers")
    svc.shutdown()
    ray_stop()
    run.mark("ray_stop")

    results: list = []
    serve_rounds(run, single, rounds, run.seconds, 0, results,
                 min_rounds=rounds_for_min(shape))
    run.mark("serve")
    _finish_serving(run, results, live, cur, rng, deleted, pages)
    run.mark("check_serve")


def untimed(eng, ops) -> list:
    """(op, hits) of ``ops`` on ``eng``, failing ops left out."""
    out = []
    for op in ops:
        fn = eng.search if op.kind == "bm25" else eng.search_query
        try:
            out.append((op, fn(op.text, K)))
        except Exception:  # the failing template is counted in serving
            pass
    return out


def write_docs_table(run: Run, name: str, docs: pa.Table) -> str:
    """The docs table the maintain index serves filters and phrases from,
    as one Parquet file."""
    out = run.path(name)
    os.makedirs(out)
    pq.write_table(docs, os.path.join(out, "docs.parquet"))
    return out


def replace_text(docs: pa.Table, new_text: Dict[int, str]) -> pa.Table:
    ids = docs["doc_id"].to_pylist()
    texts = [new_text.get(d, t) for d, t in zip(ids, docs[TEXT_COL].to_pylist())]
    i = docs.schema.get_field_index(TEXT_COL)
    return docs.set_column(i, TEXT_COL, pa.array(texts, pa.string()))


def compare_engines(run: Run, svc, results, rng, tag: str) -> None:
    """Sharded hits equal single-engine hits on the same index."""
    sample = rng.sample(results, min(2 * CHECK_SAMPLE, len(results)))
    for op, hits in sample:
        fn = svc.search if op.kind == "bm25" else svc.search_query
        run.check(f"{tag} sharded vs single {op.text!r}",
                  checks.same_hits(fn(op.text, K), hits))


def segment_stamps(idx: str) -> Dict[str, float]:
    root = os.path.join(idx, "segments")
    return {d: os.path.getmtime(os.path.join(root, d, "lineage.json"))
            for d in sorted(os.listdir(root))
            if os.path.exists(os.path.join(root, d, "lineage.json"))}


def rewritten(before: Dict[str, tuple], after: Dict[str, tuple]) -> int:
    """Bytes of the files that are new or changed between two stamps."""
    return sum(size for p, (size, mt) in after.items()
               if before.get(p) != (size, mt))


def file_stamps(idx: str) -> Dict[str, tuple]:
    out = {}
    for r, _, fs in os.walk(idx):
        for f in fs:
            p = os.path.join(r, f)
            st = os.stat(p)
            out[p] = (st.st_size, st.st_mtime_ns)
    return out


WORKLOADS = {"build_serve": workload_build_serve,
             "maintain": workload_maintain}


def latency_metrics(run: Run) -> None:
    def q(kind, p):
        v = run.lat[kind]
        if p == 50:
            return 1e3 * statistics.median(v)
        if len(v) < MIN_OK:
            raise RuntimeError(f"only {len(v)} {kind} samples for p{p}")
        return 1e3 * float(np.quantile(v, p / 100.0))

    # p50 and p90 per bm25 class and qstring template, for the run details
    run.notes["by_cls"] = {c: [round(1e3 * float(np.quantile(v, p)), 3)
                               for p in (0.5, 0.9)]
                           for c, v in run.by_cls.items()}
    run.metrics.update(bm25_p50_ms=q("bm25", 50), bm25_p90_ms=q("bm25", 90),
                       qstring_p50_ms=q("qstring", 50),
                       qstring_p90_ms=q("qstring", 90),
                       phrase_p50_ms=q("phrase", 50))
