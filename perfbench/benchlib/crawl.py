"""The two crawl workloads: ``crawl-bulk`` and ``crawl-polite``.

Both drive :class:`CrawlPipeline` through its public entry points in a
closed loop (one round at a time, the next issued when the last returns)
and check every round against a :class:`GoldenCrawl` of the same corpus
and config after the timed window. A run crawls the corpus at least
``MIN_CRAWLS`` times, each in a fresh pipeline, and times every round
by the fastest of its repetitions.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from . import procfs
from .stats import median

ROUND_DEADLINE_S = 60.0
RESUME_DEADLINE_S = 90.0
SETUP_DEADLINE_S = 90.0
PROBE_PAGES = 2048
# Crawls per run at least. Steal on the shared host slows every round of
# a crawl for seconds at a time; with each round's fastest wall over
# three crawls, a round slowed in one or two of them does not move the
# throughput, and over five seeds the quartile spread of one crawl's
# throughput halved.
MIN_CRAWLS = 3


@dataclass(frozen=True)
class CrawlSpec:
    name: str
    corpus: dict
    config: dict
    extra: dict
    max_rounds: int | None = None       # stop the crawl after this many rounds
    resume_after: int | None = None     # a traced run's first crawl resumes here
    delay_by_rank: bool = False         # see rank_delays


_POOLS = {"n_store_shards": 4, "n_cutoff_actors": 2}

BULK = CrawlSpec(
    name="crawl-bulk",
    corpus=dict(n_pages=12_000, n_hosts=100, n_seeds=60, min_words=60, max_words=180),
    config=dict(n_fetch_buckets=32, n_seen_shards=2, seen_shard_capacity=1 << 19,
                round_ms=1_200_000, max_per_host_round=20_000),
    extra=dict(_POOLS, host_salt=2, enrich=True, checkpoint_every=5),
    # the BFS peaks by round 4 and is exhausted after 9 or 10 rounds;
    # stopping at 7 keeps the per-page rounds and drops the seed-dependent
    # tail of a few dozen URLs per round
    max_rounds=7,
)

POLITE = CrawlSpec(
    name="crawl-polite",
    corpus=dict(n_pages=8_000, n_hosts=100, n_seeds=100),
    config=dict(n_fetch_buckets=32, n_seen_shards=2, seen_shard_capacity=1 << 19),
    extra=dict(_POOLS, enrich=False, checkpoint_every=1),
    # the tail runs to round 24-28 depending on the seed; a fixed 22
    # rounds keeps the tail share the same in every run
    max_rounds=22,
    resume_after=14,
    delay_by_rank=True,
)

# robots crawl delays of the generated corpus, assigned by host rank
RANK_DELAYS_MS = (1000, 500, 100, 0)


def rank_delays(corpus: str) -> None:
    """Rewrite the corpus's robots table so host j (j-th most popular:
    the generator draws hosts from a Zipf law in index order) gets
    ``RANK_DELAYS_MS[j % 4]``. The generator draws each host's delay
    from the same four values by seed, so whether the most popular host
    is slow, and with it the length of the politeness tail, would
    change with the seed; by rank, every seed has the tail."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    path = corpus + "/robots.parquet"
    t = pq.read_table(path)
    rank = [int(h[1:5]) for h in t["host"].to_pylist()]
    delays = pa.array([RANK_DELAYS_MS[j % len(RANK_DELAYS_MS)] for j in rank], pa.int32())
    pq.write_table(t.set_column(t.schema.get_field_index("crawl_delay_ms"),
                                "crawl_delay_ms", delays), path)


@dataclass
class Rep:
    """One crawl of the corpus, from a fresh pipeline."""

    out_dir: str
    prepare_s: float = 0.0
    round_s: dict[int, float] = field(default_factory=dict)  # ordinary rounds' walls
    round_ops: list[int] = field(default_factory=list)   # OpLog index per round
    resume_s: float | None = None
    measured_s: float = 0.0     # crawl wall, resume included
    cpu_s: float = 0.0          # process-tree CPU of the crawl without the resume op
    cpu: dict = field(default_factory=dict)  # CPU by group, before the actors go away
    peak_kb: int = 0            # summed VmHWM peak while the crawl's pipeline ran
    scheduled: dict[int, int] = field(default_factory=dict)  # round → scheduled URLs


def make_config(spec: CrawlSpec, corpus: str, index_dir: str, out_dir: str):
    from ethereum_raw_data_crawler_ray.config import CrawlConfig

    return CrawlConfig(
        pages_path=corpus + "/pages.parquet",
        index_dir=index_dir,
        out_dir=out_dir,
        **spec.config,
        extra={
            "robots_path": corpus + "/robots.parquet",
            "seeds_path": corpus + "/seeds.parquet",
            **spec.extra,
        },
    )


def golden(spec: CrawlSpec, cfg) -> dict:
    import pyarrow.parquet as pq

    from ethereum_raw_data_crawler_ray.pipelines.golden import GoldenCrawl
    from ethereum_raw_data_crawler_ray.state.politeness import load_robots

    g = GoldenCrawl(
        cfg.pages_path,
        load_robots(cfg.extra["robots_path"]),
        n_seen_shards=cfg.n_seen_shards,
        seen_shard_capacity=cfg.seen_shard_capacity,
        round_ms=cfg.round_ms,
        default_crawl_delay_ms=cfg.default_crawl_delay_ms,
        max_per_host_round=cfg.max_per_host_round,
        max_retries=cfg.max_retries,
        skip_rounds=cfg.skip_rounds,
        host_salt=int(cfg.extra.get("host_salt", 1)),
        host_skew_threshold=cfg.host_skew_threshold,
    )
    return g.run(pq.read_table(cfg.extra["seeds_path"]),
                 max_rounds=spec.max_rounds or cfg.max_rounds)


def _build_index(run, spec: CrawlSpec, corpus: str, index_dir: str) -> float:
    """The fetch-index build, once per run: every crawl of the run reads
    the same index (``prepare()`` skips a built one). → seconds taken."""
    from ethereum_raw_data_crawler_ray.stages.fetch import build_fetch_index

    cfg = make_config(spec, corpus, index_dir, "")
    t0 = time.perf_counter()
    with run.deadline(SETUP_DEADLINE_S), run.tracer.span("stages.fetch.build_fetch_index"):
        build_fetch_index(cfg.pages_path, cfg.index_dir, cfg.n_fetch_buckets)
    return time.perf_counter() - t0


def _setup(run, cfg):
    """``prepare()`` of a fresh pipeline: a crawl's own set-up."""
    from ethereum_raw_data_crawler_ray.pipelines.crawl import CrawlPipeline

    t0 = time.perf_counter()
    with run.deadline(SETUP_DEADLINE_S):
        pipe = CrawlPipeline(cfg)
        with run.tracer.span("pipelines.crawl.prepare"):
            pipe.prepare()
    return pipe, time.perf_counter() - t0


def _op(run, rep: Rep, name: str, deadline_s: float, fn):
    """Run one op under its deadline and log it; → (result, wall) or
    None when it raised (the crawl stops there)."""
    from .session import describe

    t0 = time.perf_counter()
    try:
        with run.deadline(deadline_s):
            out = fn()
    except Exception as e:  # a raise or a session.Deadline: the op failed
        rep.round_ops.append(run.log.add(name, time.perf_counter() - t0, describe(e)))
        return None
    wall = time.perf_counter() - t0
    rep.round_ops.append(run.log.add(name, wall))
    return out, wall


def _round(run, pipe, r: int, rep: Rep) -> bool:
    """One op: round 0 through ``run`` (it bootstraps the frontier from
    the seeds), later rounds through ``run_round``."""
    if r == 0:
        def fn():
            with run.tracer.span("pipelines.crawl.run"):
                return pipe.run(max_rounds=1)
    else:
        def fn():
            with run.tracer.span("pipelines.crawl.run_round"):
                return pipe.run_round(r)
    res = _op(run, rep, f"round {r}", ROUND_DEADLINE_S, fn)
    if res is None:
        return False
    out, wall = res
    rep.round_s[r] = wall
    if r:
        run.round_stats.append(out)
    return True


def _resume(run, cfg, old, rep: Rep, r: int):
    """Close the pipeline and resume in a fresh one. The op's wall is
    ``resume_s``: from constructing the pipeline to the return of the
    first resumed round. → the new pipeline, or None."""
    from ethereum_raw_data_crawler_ray.pipelines.crawl import CrawlPipeline

    with run.tracer.span("pipelines.crawl.close"):
        old.close()

    def fn():
        pipe = CrawlPipeline(cfg)
        with run.tracer.span("pipelines.crawl.prepare"):
            pipe.prepare()
        with run.tracer.span("pipelines.crawl.run"):
            pipe.run(max_rounds=1)
        return pipe

    res = _op(run, rep, f"resume at round {r}", RESUME_DEADLINE_S, fn)
    if res is None:
        return None
    rep.resume_s = res[1]
    return res[0]


def crawl_once(run, spec: CrawlSpec, corpus: str, gold: dict, k: int) -> Rep | None:
    """Set up a fresh pipeline and crawl the corpus for as many rounds as
    the golden crawl has; None when an op failed. In a traced run the
    first crawl (``k`` 0) closes its pipeline at ``spec.resume_after``
    and resumes in a fresh one. The untraced runs leave the resume out:
    no end-to-end metric counts it, and it would cost each run 7 s."""
    cfg = make_config(spec, corpus, os.path.join(run.work, "index"),
                      os.path.join(run.work, f"rep{k}", "out"))
    rep = Rep(out_dir=cfg.out_dir)
    pipe, rep.prepare_s = _setup(run, cfg)

    run.monitor.reset_window()
    mark = run.monitor.mark()
    t0 = time.perf_counter()
    skip_cpu = 0.0
    ok = True
    for r in range(len(gold["fetch_order"])):
        if r == spec.resume_after and k == 0 and run.tracer.enabled:
            m0 = run.monitor.mark()
            run.monitor.peak_paused = True
            pipe = _resume(run, cfg, pipe, rep, r)
            run.monitor.peak_paused = False
            skip_cpu += run.monitor.cpu_since(m0)["total"]
            ok = pipe is not None
        else:
            ok = _round(run, pipe, r, rep)
        if not ok:
            break
    t_rounds = time.perf_counter() - t0
    run.windows.append((t0, t0 + t_rounds))
    if ok:  # untimed: seen membership is read while the actors live
        counts = pipe.seen.counts()
        if counts != gold["seen_counts"]:
            run.log.fail(rep.round_ops[-1], f"seen counts {counts} != golden {gold['seen_counts']}")
        if run.tracer.enabled:
            _probe_state(run, pipe, corpus)
    rep.cpu = run.monitor.cpu_since(mark)
    rep.peak_kb = run.monitor.window_peak_kb
    t1 = time.perf_counter()
    if pipe is not None:
        with run.tracer.span("pipelines.crawl.close"):
            pipe.close()
    run.windows.append((t1, time.perf_counter()))
    rep.measured_s = t_rounds + (time.perf_counter() - t1)
    rep.cpu_s = run.monitor.cpu_since(mark)["total"] - skip_cpu
    return rep if ok else None


def _probe_state(run, pipe, corpus: str) -> None:
    """Traced run only: time the store's scatter fetch and the seen
    filter's claim on fixed inputs, after the crawl and its checks."""
    import pyarrow.parquet as pq

    from ethereum_raw_data_crawler_ray.functions.hashing import hash_strings
    from ethereum_raw_data_crawler_ray.state.store import fetch_scatter

    urls = np.asarray(pq.read_table(corpus + "/pages.parquet", columns=["url"])
                      ["url"].to_pylist()[:PROBE_PAGES], dtype=object)
    hashes = hash_strings(urls)
    t0 = time.perf_counter()
    got = fetch_scatter(pipe.store.handles, urls, hashes)
    run.probe["state.store.fetch_us_per_url"] = (time.perf_counter() - t0) / len(urls) * 1e6
    if sum(g is None for g in got):
        run.log.fail(len(run.log.ops) - 1, "store probe missed corpus pages")
    fresh = np.random.default_rng(run.seed).integers(0, 2**63, 20_000, dtype=np.int64)
    t0 = time.perf_counter()
    pipe.seen.check_and_insert(fresh.astype(np.uint64))
    run.probe["state.seen.claim_us_per_url"] = (time.perf_counter() - t0) / len(fresh) * 1e6


# --- correctness, after the timed window --------------------------------------
def _fetched_by_round(out_dir: str) -> dict[int, tuple[set, dict]]:
    """Round → (fetched url set, url → text) from the committed rounds."""
    import pyarrow.dataset as pads

    from ethereum_raw_data_crawler_ray.state.politeness import GATE_FETCH

    out = {}
    rounds = os.path.join(out_dir, "rounds")
    for name in sorted(os.listdir(rounds)):
        if not name.startswith("round_") or name.endswith(".tmp"):
            continue
        d = os.path.join(rounds, name, "row_kind=page")
        t = pads.dataset(d, format="parquet").to_table(columns=["url", "gate", "text"])
        df = t.to_pandas()
        df = df[df["gate"] == GATE_FETCH]
        out[int(name[6:])] = (set(df["url"]), dict(zip(df["url"], df["text"])))
    return out


def check_rep(run, rep: Rep, gold: dict, corpus_text: dict) -> None:
    """Per round: the fetched URLs equal the golden round's and the
    fetched text equals the corpus text."""
    got = _fetched_by_round(rep.out_dir)
    ops = rep.round_ops
    for r, gold_urls in enumerate(gold["fetch_order"][: len(ops)]):
        op = ops[r]
        urls, texts = got.get(r, (set(), {}))
        if urls != set(gold_urls):
            run.log.fail(op, f"round {r}: {len(urls ^ set(gold_urls))} fetched urls differ from golden")
        bad = sum(corpus_text.get(u) != t for u, t in texts.items())
        if bad:
            run.log.fail(op, f"round {r}: {bad} fetched texts differ from the corpus")
    if len(got) != min(len(gold["fetch_order"]), len(ops)):
        run.log.fail(ops[-1], f"{len(got)} rounds committed, golden has {len(gold['fetch_order'])}")


def round_rows(out_dir: str) -> dict[str, list[int]]:
    """Per-round row counts from the committed outputs: frontier rows
    (the previous round's carry + discovered rows; the seeds for round
    0), fetched, carry and discovered rows, and the outlinks of the
    page rows (discovered rows are the novel ones among them)."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    def rows(d: str) -> int:
        return pads.dataset(d, format="parquet").count_rows() if os.path.isdir(d) else 0

    lin = pads.dataset(os.path.join(out_dir, "lineage"), format="parquet").to_table(
        columns=["round", "urls_fetched"]).to_pandas().groupby("round")["urls_fetched"].sum()
    out = {"frontier": [], "fetched": [], "carry": [], "discovered": [], "outlinks": []}
    prev = rows(os.path.join(out_dir, "frontier", "round_00000"))
    for r in sorted(lin.index):
        d = os.path.join(out_dir, "rounds", f"round_{r:05d}")
        carry, disc = rows(os.path.join(d, "row_kind=carry")), rows(os.path.join(d, "row_kind=discovered"))
        out["frontier"].append(prev)
        out["fetched"].append(int(lin[r]))
        out["carry"].append(carry)
        out["discovered"].append(disc)
        links = pads.dataset(os.path.join(d, "row_kind=page"), format="parquet").to_table(
            columns=["outlinks"])["outlinks"]
        out["outlinks"].append(int(pc.sum(pc.list_value_length(links)).as_py() or 0))
        prev = carry + disc
    return out


def scheduled_by_round(out_dir: str) -> dict[int, int]:
    """Round → URLs the committed round scheduled."""
    import pyarrow.dataset as pads

    t = pads.dataset(os.path.join(out_dir, "lineage"), format="parquet").to_table(
        columns=["round", "urls_scheduled"]).to_pandas()
    return {int(r): int(n) for r, n in t.groupby("round")["urls_scheduled"].sum().items()}


def run_workload(run, spec: CrawlSpec) -> None:
    import pyarrow.parquet as pq

    from ethereum_raw_data_crawler_ray.testdata import ensure_corpus

    from .session import start_ray
    from .stats import fastest, tail_percentile

    corpus = ensure_corpus(**spec.corpus, seed=run.seed,
                           base_dir=os.path.join(run.work, "corpus"))
    if spec.delay_by_rank:
        rank_delays(corpus)
    run.phase("inputs")
    gold = golden(spec, make_config(spec, corpus, "", ""))
    pages = pq.read_table(corpus + "/pages.parquet", columns=["url", "text"])
    corpus_text = dict(zip(pages["url"].to_pylist(), pages["text"].to_pylist()))
    run.phase("golden")
    if run.tracer.enabled:
        run.probe_functions(corpus + "/pages.parquet")

    run.ray_start_s = start_ray(run.root)
    run.phase("ray")
    index_s = _build_index(run, spec, corpus, os.path.join(run.work, "index"))
    reps: list[Rep] = []
    while len(reps) < MIN_CRAWLS or run.more_reps(sum(rep.measured_s for rep in reps), len(reps)):
        rep = crawl_once(run, spec, corpus, gold, len(reps))
        if rep is None:
            break
        # untimed from here
        rep.scheduled = scheduled_by_round(rep.out_dir)
        check_rep(run, rep, gold, corpus_text)
        if run.tracer.enabled:
            run.rows.append(round_rows(rep.out_dir))
        shutil.rmtree(os.path.dirname(rep.out_dir), ignore_errors=True)
        reps.append(rep)
        run.phase(f"rep{len(reps)}")
    if not reps:
        return
    # every crawl schedules the same URLs per round (the golden check)
    best = fastest([rep.round_s for rep in reps])
    rounds = [s for rep in reps for s in rep.round_s.values()]
    run.record_e2e(
        setup_s=run.ray_start_s + index_s + median([rep.prepare_s for rep in reps]),
        items_per_s=sum(reps[0].scheduled[r] for r in best) / sum(best.values()),
        # a crawl's peak moves with how many task workers Ray happens to
        # keep alive (two or three, ~100 MB each); the smallest is steady
        rss_kb=min(rep.peak_kb for rep in reps),
    )
    items = sum(rep.scheduled[r] for rep in reps for r in rep.round_s)
    run.layer["runtime.cpu_ms_per_item"] = sum(rep.cpu_s for rep in reps) / items * 1e3
    run.layer["pipelines.crawl.round_p50_s"] = median(rounds)
    tail = tail_percentile(rounds)
    run.layer["pipelines.crawl.round_tail_s"] = tail[1] if tail else max(rounds)
    run.notes["round_tail"] = {"percentile": tail[0] if tail else 100, "samples": len(rounds)}
    resumes = [rep.resume_s for rep in reps if rep.resume_s is not None]
    if resumes:
        run.layer["pipelines.crawl.resume_s"] = median(resumes)
    for g in procfs.GROUPS + ("reaped",):
        run.layer_cpu[g] = sum(rep.cpu.get(g, 0.0) for rep in reps)
