"""End-to-end crawl pipeline tests (FIXTURES.md test cases 2,3,5,6,7 —
the reference's per-block fetch→parse→store tests recast as
frontier-round completeness, seen-set equality and checkpoint-resume).
"""

import os
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ethereum_raw_data_crawler_ray.config import CrawlConfig  # noqa: F401
from ethereum_raw_data_crawler_ray.pipelines import crawl as crawl_mod
from ethereum_raw_data_crawler_ray.pipelines.crawl import (
    CrawlPipeline,
    events_output,
    health_output,
    lineage_output,
    pages_output,
)
from ethereum_raw_data_crawler_ray.pipelines.golden import GoldenCrawl
from ethereum_raw_data_crawler_ray.state.cuckoo import CuckooFilter, slots_for
from ethereum_raw_data_crawler_ray.state.politeness import ORDER_COLS, load_robots

ERR_PERMILLE = 40  # inject deterministic transient fetch errors → retry path


def make_cfg(corpus_dir: str, tag: str) -> CrawlConfig:
    return CrawlConfig(
        pages_path=corpus_dir + "/pages.parquet",
        index_dir=f"/tmp/crawl_test_idx",  # index is corpus-derived: share
        out_dir=f"/tmp/crawl_test_out_{tag}",
        n_fetch_buckets=8,
        n_seen_shards=4,
        seen_shard_capacity=1 << 16,
        extra={
            "robots_path": corpus_dir + "/robots.parquet",
            "seeds_path": corpus_dir + "/seeds.parquet",
            "error_permille": ERR_PERMILLE,
        },
    )


@pytest.fixture(scope="module")
def crawl_run(corpus_dir, ray_session):
    """One uninterrupted crawl; most tests assert against its outputs."""
    cfg = make_cfg(corpus_dir, "main")
    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    pipe = CrawlPipeline(cfg)
    # keep every round's stats: run() itself returns only the totals
    pipe.round_stats = []
    run_round = pipe.run_round

    def recorded(r):
        pipe.round_stats.append(run_round(r))
        return pipe.round_stats[-1]

    pipe.run_round = recorded
    totals = pipe.run(max_rounds=60)
    del pipe.run_round
    return cfg, pipe, totals


# 256 buckets × 4 slots a seen shard: this corpus fills them to load
# ~0.35, and every shard admits SNAPSHOT_FRACTION of the capacity
# (~113 claims) by round 2 or 3, so it snapshots mid-crawl
SNAP_CAPACITY = 900


def snap_cfg(corpus_dir: str, tag: str) -> CrawlConfig:
    return CrawlConfig(**{**make_cfg(corpus_dir, tag).__dict__,
                          "seen_shard_capacity": SNAP_CAPACITY})


def _snapshots(out_dir: str, shard: int) -> list[int]:
    """Rounds of the seen snapshots shard ``shard`` wrote."""
    d = os.path.join(out_dir, "seen", f"shard_{shard}")
    return sorted(int(f[6:11]) for f in os.listdir(d)) if os.path.isdir(d) else []


@pytest.fixture(scope="module")
def snap_run(corpus_dir, ray_session):
    """One uninterrupted crawl whose seen shards snapshot mid-crawl."""
    cfg = snap_cfg(corpus_dir, "snap")
    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    pipe = CrawlPipeline(cfg)
    totals = pipe.run(max_rounds=60)
    pipe.close()
    return cfg, totals


def _golden(corpus_dir: str, cfg: CrawlConfig, **kwargs) -> dict:
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
        error_permille=ERR_PERMILLE,
        **kwargs,
    )
    return g.run(pq.read_table(corpus_dir + "/seeds.parquet"), max_rounds=60)


@pytest.fixture(scope="module")
def golden_run(corpus_dir):
    return _golden(corpus_dir, make_cfg(corpus_dir, "golden-unused"))


def _rounds_df(out_dir: str) -> pd.DataFrame:
    return pages_output(out_dir).to_pandas()


def _assert_same_crawl(ref_dir: str, out_dir: str) -> None:
    """Same fetched pages and the same full lineage (seen-shard digests
    included; ``wall_s`` excepted) as the crawl under ``ref_dir``."""
    a = _rounds_df(ref_dir).sort_values("url").reset_index(drop=True)
    b = _rounds_df(out_dir).sort_values("url").reset_index(drop=True)
    cols = ["url", "text", "round", "depth"]
    pd.testing.assert_frame_equal(a[cols], b[cols])
    la, lb = (lineage_output(d).to_pandas().sort_values(["round", "partition_id"])
              .reset_index(drop=True).drop(columns=["wall_s"]) for d in (ref_dir, out_dir))
    pd.testing.assert_frame_equal(la, lb)


def _wait_restarted(handle) -> None:
    """ray.kill is delivered out-of-band: wait until the actor's restart
    is visible, so it lands at a round boundary."""
    import ray

    for _ in range(600):
        if ray.get(handle.health.remote())["reconstructed"]:
            return
        time.sleep(0.05)
    raise AssertionError("pool actor never reconstructed")


class TestRoundCompleteness:
    def test_every_url_accounted(self, crawl_run):
        # every frontier URL lands in exactly one of
        # {fetched, error→retry, deferred, skipped, robots_denied}
        cfg, _, totals = crawl_run
        lin = lineage_output(cfg.out_dir).to_pandas()
        per_round = lin.groupby("round")[
            ["urls_scheduled", "urls_fetched", "errors"]
        ].sum()
        assert (
            per_round["urls_scheduled"]
            == per_round["urls_fetched"] + per_round["errors"]
        ).all()
        assert totals["fetched"] > 1000  # the bulk of the 1500-page corpus

    def test_transient_errors_retried_to_success(self, crawl_run):
        cfg, _, totals = crawl_run
        assert totals["errors"] > 0  # injection actually fired
        lin = lineage_output(cfg.out_dir).to_pandas()
        assert lin["errors"].sum() > 0


class TestDedup:
    def test_no_duplicate_pages(self, crawl_run):
        # mirror of E11000-duplicate-key-as-success: each URL stored once
        cfg, _, _ = crawl_run
        df = _rounds_df(cfg.out_dir)
        assert not df["url"].duplicated().any()

    def test_seen_membership_equals_stored_plus_failed(self, crawl_run):
        cfg, pipe, _ = crawl_run
        from ethereum_raw_data_crawler_ray.functions.hashing import hash_strings

        df = _rounds_df(cfg.out_dir)
        hashes = hash_strings(df["url"].to_numpy())
        assert pipe.seen.contains(hashes).all()


class TestExtractionOracle:
    def test_text_byte_identical(self, crawl_run, corpus_dir):
        cfg, _, _ = crawl_run
        pages = pq.read_table(corpus_dir + "/pages.parquet", columns=["url", "text"])
        oracle = dict(zip(pages["url"].to_pylist(), pages["text"].to_pylist()))
        df = _rounds_df(cfg.out_dir)
        assert len(df) > 0
        for u, t in zip(df["url"], df["text"]):
            assert oracle[u] == t


class TestGoldenParity:
    """The parallel engine reproduces the single-threaded golden crawl
    bit-for-bit: same per-round crawl order, same pages, same seen set."""

    def test_fetch_order(self, crawl_run, golden_run):
        # crawl order = (round, priority, depth, warc_ts, url) — the
        # analog of strict block-number order within each range
        cfg, _, _ = crawl_run
        import pyarrow.dataset as pads

        for r, golden_order in enumerate(golden_run["fetch_order"]):
            d = os.path.join(cfg.out_dir, "rounds", f"round_{r:05d}")
            page_dir = os.path.join(d, "row_kind=page")
            t = pads.dataset(
                page_dir if os.path.exists(page_dir) else d, format="parquet"
            ).to_table(columns=["url", "gate"] + ORDER_COLS)
            g = t.to_pandas()
            g = g[g["gate"] == "fetch"].sort_values(ORDER_COLS, kind="mergesort")
            assert list(g["url"]) == golden_order, f"round {r} order differs"

    def test_pages_and_text(self, crawl_run, golden_run):
        cfg, _, _ = crawl_run
        df = _rounds_df(cfg.out_dir)
        eng = {u: t for u, t in zip(df["url"], df["text"])}
        gold = {u: p["text"] for u, p in golden_run["pages"].items()}
        assert eng == gold

    def test_seen_counts(self, crawl_run, golden_run):
        cfg, pipe, _ = crawl_run
        assert pipe.seen.counts() == golden_run["seen_counts"]

    def test_events(self, crawl_run, golden_run):
        cfg, _, _ = crawl_run
        ev = events_output(cfg.out_dir).to_pandas()
        eng = set(zip(ev["url"], ev["n_bytes"], ev["lang"], ev["round"]))
        gold = set(
            (e["url"], e["n_bytes"], e["lang"], e["round"]) for e in golden_run["events"]
        )
        assert eng == gold


class TestEventsGating:
    def test_events_iff_stored(self, crawl_run):
        # mirror of publish-only-after-DB-success (crawler_service.go:592-607)
        cfg, _, _ = crawl_run
        ev = events_output(cfg.out_dir).to_pandas()
        pages = _rounds_df(cfg.out_dir)
        assert set(ev["url"]) == set(pages["url"])
        assert not ev["url"].duplicated().any()


class TestRobots:
    def test_disallowed_never_fetched(self, crawl_run):
        cfg, _, _ = crawl_run
        df = _rounds_df(cfg.out_dir)
        assert not df["url"].str.contains("/private/").any()


class TestAltConfigPaths:
    def test_ckpt_interval_matches_golden(self, snap_run, corpus_dir):
        # a crawl whose seen shards snapshot mid-crawl (filter load above
        # 0.2) must still equal the golden simulator's at that capacity
        cfg, totals = snap_run
        for j in range(cfg.n_seen_shards):
            snaps = _snapshots(cfg.out_dir, j)
            assert snaps and snaps[0] < totals["last_round"], (j, snaps)
        h = health_output(cfg.out_dir).to_pandas()
        assert h.loc[h["component"] == "seen", "load_factor"].max() > 0.2
        gold = _golden(corpus_dir, cfg)
        df = _rounds_df(cfg.out_dir)
        assert dict(zip(df["url"], df["text"])) == {
            u: pg["text"] for u, pg in gold["pages"].items()
        }
        ev = events_output(cfg.out_dir).to_pandas()
        assert set(zip(ev["url"], ev["n_bytes"], ev["lang"], ev["round"])) == {
            (e["url"], e["n_bytes"], e["lang"], e["round"]) for e in gold["events"]
        }


class TestLazyStoreMode:
    def test_lazy_store_matches_preload(self, crawl_run, corpus_dir, monkeypatch):
        # the eviction receipt: store shards hold only a hash→row-group
        # index + an LRU of decoded groups; with an LRU of 4 groups the
        # shards evict all crawl long, and the output must equal the
        # main crawl's, whose 64-group LRU holds every row group
        from ethereum_raw_data_crawler_ray.state import store

        cfg_main, _, _ = crawl_run
        cfg = make_cfg(corpus_dir, "lazystore")
        monkeypatch.setattr(store, "LRU_GROUPS", 4)
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        p = CrawlPipeline(cfg)
        p.run(max_rounds=60)
        p.close()
        a = _rounds_df(cfg_main.out_dir).sort_values("url").reset_index(drop=True)
        b = _rounds_df(cfg.out_dir).sort_values("url").reset_index(drop=True)
        cols = ["url", "text", "round", "depth", "n_bytes"]
        pd.testing.assert_frame_equal(a[cols], b[cols])


class TestAutoSkewSalting:
    def test_mega_host_salted_and_matches_golden(self, corpus_dir, ray_session):
        # with a tiny skew threshold the corpus's biggest hosts exceed it:
        # the engine must salt them automatically (hot files written) and
        # STILL match the golden simulator (budget exactness + ordering
        # are preserved because golden applies the same rule)
        thr = 25
        cfg = make_cfg(corpus_dir, "autosalt")
        cfg = CrawlConfig(**{**cfg.__dict__, "host_skew_threshold": thr})
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        pipe = CrawlPipeline(cfg)
        pipe.run(max_rounds=60)
        pipe.close()

        import glob
        import json

        from ethereum_raw_data_crawler_ray.state.politeness import load_robots

        hot_files = sorted(glob.glob(os.path.join(cfg.out_dir, "hot", "*.json")))
        assert hot_files, "auto-salting never triggered at threshold 25"
        assert any(json.load(open(f)) for f in hot_files)

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
            error_permille=ERR_PERMILLE,
            host_skew_threshold=thr,
        )
        gold = g.run(pq.read_table(corpus_dir + "/seeds.parquet"), max_rounds=60)
        df = _rounds_df(cfg.out_dir)
        eng = {u: t for u, t in zip(df["url"], df["text"])}
        assert eng == {u: p["text"] for u, p in gold["pages"].items()}
        # per-round fetch sets identical (budget exactness under salting)
        by_round = df.groupby("round")["url"].apply(set).to_dict()
        for r, order in enumerate(gold["fetch_order"]):
            fetched_gold = {
                u for u in order if u in gold["pages"] and gold["pages"][u]["round"] == r
            }
            assert by_round.get(r, set()) >= fetched_gold


class TestErrorBackoff:
    def test_backoff_matches_golden_and_resumes(self, corpus_dir, ray_session):
        # error_backoff shrinks an erroring host's next-round budget
        # (reference analog: ethereum_service.go:594-624). With injected
        # transient errors the engine must match a golden simulator
        # running the same rule, and a killed+resumed run must rebuild
        # the error counts from the committed round output.
        cfg = make_cfg(corpus_dir, "backoff")
        cfg = CrawlConfig(
            **{**cfg.__dict__, "extra": {**cfg.extra, "error_backoff": True}}
        )
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        pipe = CrawlPipeline(cfg)
        totals = pipe.run(max_rounds=60)
        pipe.close()
        assert totals["errors"] > 0  # injection fired → backoff exercised

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
            error_permille=ERR_PERMILLE,
            error_backoff=True,
        )
        gold = g.run(pq.read_table(corpus_dir + "/seeds.parquet"), max_rounds=60)
        df = _rounds_df(cfg.out_dir)
        assert {u: t for u, t in zip(df["url"], df["text"])} == {
            u: p["text"] for u, p in gold["pages"].items()
        }

        # crash after round 2 → resume must re-derive err counts and
        # produce the identical crawl
        cfg2 = make_cfg(corpus_dir, "backoff_resume")
        cfg2 = CrawlConfig(
            **{**cfg2.__dict__, "extra": {**cfg2.extra, "error_backoff": True}}
        )
        shutil.rmtree(cfg2.out_dir, ignore_errors=True)
        p1 = CrawlPipeline(cfg2)
        p1.run(max_rounds=3)
        p1.close()
        p2 = CrawlPipeline(cfg2)
        p2.run(max_rounds=60)
        p2.close()
        a = _rounds_df(cfg.out_dir).sort_values("url").reset_index(drop=True)
        b = _rounds_df(cfg2.out_dir).sort_values("url").reset_index(drop=True)
        cols = ["url", "text", "round", "depth"]
        pd.testing.assert_frame_equal(a[cols], b[cols])


class TestBackoffPlusAutoSalt:
    def test_combined_features_match_golden(self, corpus_dir, ray_session):
        # error backoff and automatic skew salting BOTH rewrite budgets
        # (shrink host budget, then split across salts) — the engine and
        # golden must agree on the composition order
        thr = 25
        cfg = make_cfg(corpus_dir, "backoffsalt")
        cfg = CrawlConfig(
            **{
                **cfg.__dict__,
                "host_skew_threshold": thr,
                "extra": {**cfg.extra, "error_backoff": True},
            }
        )
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        pipe = CrawlPipeline(cfg)
        totals = pipe.run(max_rounds=60)
        pipe.close()
        assert totals["errors"] > 0

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
            error_permille=ERR_PERMILLE,
            host_skew_threshold=thr,
            error_backoff=True,
        )
        gold = g.run(pq.read_table(corpus_dir + "/seeds.parquet"), max_rounds=60)
        df = _rounds_df(cfg.out_dir)
        assert {u: t for u, t in zip(df["url"], df["text"])} == {
            u: p["text"] for u, p in gold["pages"].items()
        }


def backoff_cfg(corpus_dir: str, tag: str) -> CrawlConfig:
    cfg = make_cfg(corpus_dir, tag)
    return CrawlConfig(**{**cfg.__dict__, "extra": {**cfg.extra, "error_backoff": True}})


class TestBackoffShardRestart:
    def test_cutoff_shard_kill_matches_golden_and_uninterrupted(self, corpus_dir,
                                                                ray_session):
        # a restarted cutoff shard has lost the error counts that shrink
        # the next round's budgets: the driver must set them again from
        # the committed round output, so the crawl still equals the
        # golden backoff crawl and the uninterrupted run's lineage
        import pyarrow.compute as pc
        import ray

        from ethereum_raw_data_crawler_ray.state.pool import host_owner

        ref = backoff_cfg(corpus_dir, "backoff_ref")
        shutil.rmtree(ref.out_dir, ignore_errors=True)
        p = CrawlPipeline(ref)
        p.run(max_rounds=60)
        p.close()

        cfg = backoff_cfg(corpus_dir, "backoff_kill")
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        pipe = CrawlPipeline(cfg)
        pipe.prepare()
        # the kill follows round 2, whose fetch errors include a host of
        # cutoff shard 0 (round 1's error hosts all live elsewhere)
        t = pq.read_table(os.path.join(ref.out_dir, "rounds", "round_00002",
                                       "row_kind=page"), columns=["host", "status"])
        err_hosts = t.filter(pc.equal(t["status"], "error"))["host"].to_numpy()
        assert (host_owner(err_hosts, len(pipe.cutoff_pool.handles)) == 0).any()
        pipe.bootstrap(pq.read_table(corpus_dir + "/seeds.parquet"))
        pipe._backfill_offers(0)
        r = 0
        while r < 60 and pipe._frontier_count(r) > 0:
            stats = pipe.run_round(r)
            if r == 2:
                ray.kill(pipe.cutoff_pool.handles[0], no_restart=False)
                _wait_restarted(pipe.cutoff_pool.handles[0])
            r += 1
            if stats["next_frontier"] == 0:
                break
        pipe._join_bg()
        pipe.close()

        h = health_output(cfg.out_dir).to_pandas()
        assert ("cutoff", 0) in set(zip(h.loc[h["reconstructed"], "component"],
                                        h.loc[h["reconstructed"], "shard_id"]))
        gold = _golden(corpus_dir, cfg, error_backoff=True)
        df = _rounds_df(cfg.out_dir)
        assert {u: t for u, t in zip(df["url"], df["text"])} == {
            u: pg["text"] for u, pg in gold["pages"].items()
        }
        _assert_same_crawl(ref.out_dir, cfg.out_dir)


class TestCutoffShardRestartInRound:
    def test_restart_after_finalize_fails_round_then_resumes(self, crawl_run,
                                                             golden_run, corpus_dir):
        # a pool actor that restarts after the driver finalized round r's
        # cutoffs has lost them: the round's cutoff pulls must fail it
        # loudly before anything commits (a shard with no cutoffs reads
        # as "fewer candidates than budget", so its hosts would fetch
        # every candidate), and a fresh pipeline resumes to the
        # uninterrupted crawl
        import ray

        from ethereum_raw_data_crawler_ray.state.pool import host_owner

        cfg_main, _, _ = crawl_run
        cfg = make_cfg(corpus_dir, "cutoff_restart")
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        r = 2
        pipe = CrawlPipeline(cfg)
        pipe.run(max_rounds=r)
        hosts = pd.concat(pq.read_table(f).to_pandas()["host"]
                          for _, f, _ in pipe._frontier_plan(r))
        assert (host_owner(hosts.to_numpy(), len(pipe.cutoff_pool.handles)) == 0).any()
        finalize = pipe.cutoff_pool.finalize

        def finalize_then_restart(*args, **kwargs):
            out = finalize(*args, **kwargs)
            ray.kill(pipe.cutoff_pool.handles[0], no_restart=False)
            _wait_restarted(pipe.cutoff_pool.handles[0])
            return out

        pipe.cutoff_pool.finalize = finalize_then_restart
        with pytest.raises(KeyError, match="not resident"):
            pipe.run_round(r)
        assert not os.path.exists(os.path.join(cfg.out_dir, "rounds", f"round_{r:05d}"))
        assert pipe.last_complete_round() == r - 1
        pipe.close()

        p2 = CrawlPipeline(cfg)
        p2.run(max_rounds=60)
        p2.close()
        df = _rounds_df(cfg.out_dir)
        assert {u: t for u, t in zip(df["url"], df["text"])} == {
            u: pg["text"] for u, pg in golden_run["pages"].items()
        }
        _assert_same_crawl(cfg_main.out_dir, cfg.out_dir)


class TestActorFaultTolerance:
    def test_shard_kills_mid_crawl_match_uninterrupted(self, crawl_run, corpus_dir):
        # kill one seen shard, one page-store shard and one cutoff shard
        # between rounds: restarts rebuild deterministically (seen from
        # the newest npz dump, store from the immutable index, cutoffs
        # via driver-detected offer backfill) and the crawl still matches
        # the uninterrupted run exactly
        import ray

        cfg_main, _, _ = crawl_run
        cfg = make_cfg(corpus_dir, "kills")
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        pipe = CrawlPipeline(cfg)
        pipe.prepare()
        pipe.bootstrap(pq.read_table(corpus_dir + "/seeds.parquet"))
        pipe._backfill_offers(0)
        r = 0
        while r < 60 and pipe._frontier_count(r) > 0:
            stats = pipe.run_round(r)
            if r == 1:
                ray.kill(pipe.seen.handles[0], no_restart=False)
                ray.kill(pipe.store.handles[0], no_restart=False)
                ray.kill(pipe.cutoff_pool.handles[0], no_restart=False)
            r += 1
            if stats["next_frontier"] == 0:
                break
        pipe._join_bg()

        a = _rounds_df(cfg_main.out_dir).sort_values("url").reset_index(drop=True)
        b = _rounds_df(cfg.out_dir).sort_values("url").reset_index(drop=True)
        cols = ["url", "text", "round", "depth"]
        pd.testing.assert_frame_equal(a[cols], b[cols])
        la = lineage_output(cfg_main.out_dir).to_pandas().sort_values(
            ["round", "partition_id"]
        ).reset_index(drop=True)
        lb = lineage_output(cfg.out_dir).to_pandas().sort_values(
            ["round", "partition_id"]
        ).reset_index(drop=True)
        keep = [c for c in la.columns if c != "wall_s"]
        pd.testing.assert_frame_equal(la[keep], lb[keep])
        # component-health rows (SystemHealth analog): the killed shards
        # must show up as reconstructed in a later round's health output
        h = health_output(cfg.out_dir).to_pandas()
        assert set(h["component"]) == {"seen", "store", "cutoff"}
        rec = h[h["reconstructed"]]
        assert {("seen", 0), ("store", 0), ("cutoff", 0)} <= set(
            zip(rec["component"], rec["shard_id"])
        )
        pipe.close()


class TestStatePool:
    """The store, seen and cutoff roles share one actor pool: actor j
    hosts store, seen and cutoff shard j (state/pool.py)."""

    @pytest.fixture(scope="class")
    def pool_run(self, corpus_dir, ray_session):
        # prepare, record the processes behind every facade's handles,
        # then crawl with ONE kill of the actor hosting shard 2 of all
        # three roles
        import ray

        cfg = make_cfg(corpus_dir, "pool_kill")
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        pipe = CrawlPipeline(cfg)
        pipe.prepare()
        facades = (pipe.seen, pipe.store, pipe.cutoff_pool)
        n_handles = sum(len(f.handles) for f in facades)
        pids = {
            ray.get(h.health.remote())["pid"] for f in facades for h in f.handles
        }
        pipe.bootstrap(pq.read_table(corpus_dir + "/seeds.parquet"))
        pipe._backfill_offers(0)
        victim = pipe.store.handles[2]
        r = 0
        while r < 60 and pipe._frontier_count(r) > 0:
            stats = pipe.run_round(r)
            if r == 1:
                ray.kill(victim, no_restart=False)
                # the kill is delivered out-of-band: wait for the restart
                # so it is detected at a round boundary
                for _ in range(600):
                    if ray.get(victim.health.remote())["reconstructed"]:
                        break
                    time.sleep(0.05)
                else:
                    raise AssertionError("pool actor never reconstructed")
            r += 1
            if stats["next_frontier"] == 0:
                break
        pipe._join_bg()
        pipe.close()
        return cfg, n_handles, pids

    def test_prepare_spawns_one_process_per_pool_actor(self, pool_run):
        # 4 seen + 8 store + 8 cutoff shards: 20 handles, max(4, 8, 8)
        # processes (one per role shard before the shared pool)
        _, n_handles, pids = pool_run
        assert n_handles == 20
        assert len(pids) == 8

    def test_one_kill_reconstructs_every_cohosted_role(self, pool_run, crawl_run):
        cfg, _, _ = pool_run
        cfg_main, _, _ = crawl_run
        h = health_output(cfg.out_dir).to_pandas()
        rec = h[h["reconstructed"]]
        assert set(zip(rec["component"], rec["shard_id"])) == {
            ("seen", 2), ("store", 2), ("cutoff", 2)
        }
        # round 1's health rows are written after the kill that follows it
        assert rec["round"].min() >= 1
        a = _rounds_df(cfg_main.out_dir).sort_values("url").reset_index(drop=True)
        b = _rounds_df(cfg.out_dir).sort_values("url").reset_index(drop=True)
        cols = ["url", "text", "round", "depth"]
        pd.testing.assert_frame_equal(a[cols], b[cols])
        la = lineage_output(cfg_main.out_dir).to_pandas().sort_values(
            ["round", "partition_id"]).reset_index(drop=True)
        lb = lineage_output(cfg.out_dir).to_pandas().sort_values(
            ["round", "partition_id"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            la.drop(columns=["wall_s"]), lb.drop(columns=["wall_s"])
        )


_ONE_CPU_CRAWL = """
import json, os, sys
sys.path.insert(0, os.getcwd())
import ray
from ethereum_raw_data_crawler_ray.logquiet import logging_env
from ethereum_raw_data_crawler_ray.pipelines.crawl import CrawlPipeline
from tests.test_crawl import make_cfg

os.environ.update(logging_env())
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR", runtime_env={"env_vars": logging_env()})
cfg = make_cfg(sys.argv[1], "cpu1")
# 4 pool actors (4 seen shards), not 8: spawn is serial at 1 CPU
cfg.extra.update(n_store_shards=2, n_cutoff_actors=2)
pipe = CrawlPipeline(cfg)
totals = pipe.run(max_rounds=60)
counts = pipe.seen.counts()
pipe.close()
ray.shutdown()
print("RESULT " + json.dumps({"totals": totals, "seen_counts": counts}))
"""


class TestOneCpuSession:
    def test_crawl_under_one_cpu_matches_golden(self, corpus_dir, golden_run):
        # a 1-CPU Ray session: the state pool reserves 0 CPU on one node,
        # so the 1-CPU round task schedules. Own session in a subprocess,
        # in its own process group so a hang leaves no raylet/GCS behind.
        import json
        import signal
        import subprocess
        import sys

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out_dir = make_cfg(corpus_dir, "cpu1").out_dir
        shutil.rmtree(out_dir, ignore_errors=True)
        env = {**os.environ, "PYTHONPATH": repo}
        proc = subprocess.Popen(
            [sys.executable, "-c", _ONE_CPU_CRAWL, corpus_dir], cwd=repo,
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=300)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            out = None
        finally:
            for _ in range(100):  # until no process of the group is left
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    break
                time.sleep(0.1)
        if out is None:
            pytest.fail("crawl under a 1-CPU Ray session did not finish in 300 s")
        assert proc.returncode == 0, out[-3000:]
        res = json.loads(out.split("RESULT ", 1)[1])
        assert res["seen_counts"] == golden_run["seen_counts"]
        df = _rounds_df(out_dir)
        eng = {u: t for u, t in zip(df["url"], df["text"])}
        assert eng == {u: p["text"] for u, p in golden_run["pages"].items()}


def _frontier_rows(n: int, start: int = 0) -> pa.Table:
    """``n`` frontier rows whose ``url_hash`` counts up from ``start``."""
    from ethereum_raw_data_crawler_ray.schema import FRONTIER

    i = np.arange(start, start + n)
    return pa.table(
        {
            "url": [f"http://h{k % 7}.test/p{k}" for k in i],
            "url_hash": i.astype(np.uint64),
            "host": [f"h{k % 7}.test" for k in i],
            "priority": np.zeros(n, dtype=np.int32),
            "depth": np.zeros(n, dtype=np.int32),
            "warc_ts": pd.to_datetime(i, unit="s").values,
            "attempts": np.zeros(n, dtype=np.int32),
            "skip_until_round": np.zeros(n, dtype=np.int32),
        },
        schema=FRONTIER,
    )


class TestBalancedItems:
    def test_packing_complete_disjoint_capped(self):
        # the shuffle-free replacement for repartition(ntasks): at most
        # max_tasks items covering every frontier row exactly once, each
        # round_step call within the row bound, both row kinds in every
        # item, and no file (so no row group) read by two spans of one
        # item; the item count stays O(max_tasks) however large the
        # frontier (a 10^10-URL round must not build one item per batch)
        plan = [("carry", "a", 100), ("carry", "b", 5), ("carry", "c", 2048),
                ("discovered", "d", 0), ("discovered", "e", 999),
                ("discovered", "f", 3001)]
        kind = {f: src for src, f, _ in plan}
        for max_tasks, bound in [(1, 2048), (2, 2048), (3, 512), (4, 2048), (8, 300)]:
            items = CrawlPipeline._balanced_items(plan, max_tasks, bound)
            assert len(items) == max_tasks
            assert sorted(it["task"] for it in items) == list(range(max_tasks))
            rows = [sum(it["lengths"]) for it in items]
            assert sum(rows) == 6153
            assert max(rows) - min(rows) <= 2  # one row a source
            for it in items:
                assert sum(it["calls"]) == sum(it["lengths"])
                assert all(0 < c <= bound for c in it["calls"])
                assert len(it["calls"]) == -(-sum(it["lengths"]) // bound)
                assert len(set(it["paths"])) == len(it["paths"])
                assert {kind[p] for p in it["paths"]} == {"carry", "discovered"}
            cov: dict = {}
            for it in items:
                for p, o, ln in zip(it["paths"], it["offsets"], it["lengths"]):
                    assert ln > 0
                    cov.setdefault(p, []).append((o, ln))
            for _, f, n in plan:
                if n == 0:
                    assert f not in cov
                    continue
                pos = 0
                for o, ln in sorted(cov[f]):
                    assert o == pos
                    pos += ln
                assert pos == n
        # item count capped at max_tasks regardless of frontier size
        many = CrawlPipeline._balanced_items([("carry", "x", 100_000)], 8, 2048)
        assert len(many) == 8
        assert sum(sum(i["lengths"]) for i in many) == 100_000
        assert all(len(i["calls"]) == 7 for i in many)
        assert CrawlPipeline._balanced_items([("carry", "x", 0)], 4, 2048) == []

    def test_read_span_row_group_selective(self, tmp_path):
        # _read_span must decode only the row groups covering the span
        # yet return exactly the same rows as a full-read slice (r03
        # ADVICE: whole-file decode per span amplified reads ~4×ncpu)
        from ethereum_raw_data_crawler_ray.stages.roundstep import (
            _FRONTIER_COLS,
            _read_span,
        )

        n = 1000
        p = str(tmp_path / "frontier.parquet")
        pq.write_table(_frontier_rows(n), p, row_group_size=128)  # 8 row groups
        full = pq.read_table(p, columns=_FRONTIER_COLS)
        for off, ln in [(0, n), (0, 128), (100, 200), (127, 2), (128, 128),
                        (500, 500), (999, 1), (130, 1)]:
            parts = list(_read_span(p, off, ln))
            # one table per row group the span overlaps
            assert len(parts) == (off + ln - 1) // 128 - off // 128 + 1, (off, ln)
            assert pa.concat_tables(parts).equals(full.slice(off, ln)), (off, ln)

    def test_item_frames_decode_each_row_group_once(self, tmp_path, monkeypatch):
        # an item's calls cut across spans and row groups: each frame
        # holds its call's rows in span order, and every row group the
        # item reads is decoded once, however many calls it feeds
        from ethereum_raw_data_crawler_ray.stages import roundstep

        paths = []
        for k, n in enumerate((1000, 900)):  # told apart by their row counts
            p = str(tmp_path / f"part-{k}.parquet")
            pq.write_table(_frontier_rows(n, start=1000 * k), p, row_group_size=300)
            paths.append(p)
        decoded = []
        read_row_group = pq.ParquetFile.read_row_group

        def counted(self, i, *args, **kwargs):
            decoded.append((self.metadata.num_rows, i))
            return read_row_group(self, i, *args, **kwargs)

        monkeypatch.setattr(pq.ParquetFile, "read_row_group", counted)
        item = {"task": 0, "paths": paths, "offsets": [150, 0],
                "lengths": [850, 700], "calls": [517, 517, 516]}
        frames = list(roundstep._item_frames(item))
        assert [len(f) for f in frames] == item["calls"]
        got = np.concatenate([f["url_hash"].to_numpy() for f in frames])
        want = np.r_[np.arange(150, 1000), np.arange(1000, 1700)].astype(np.uint64)
        assert (got == want).all()
        # file 0: row groups 0..3 (150 starts in group 0); file 1: 0..2
        assert len(decoded) == len(set(decoded)) == 4 + 3


class TestRoundStats:
    def test_stage_seconds_present_and_bounded(self, crawl_run):
        # each round reports its tasks' stage seconds: every stage, none
        # negative, and no more than every task busy for the whole
        # submit → commit window (t_main is rounded to 10 ms)
        from ethereum_raw_data_crawler_ray.stages.roundstep import STAGES

        cfg, pipe, totals = crawl_run
        stats = pipe.round_stats
        assert len(stats) == totals["rounds"]
        frontier = pq.read_metadata(os.path.join(
            cfg.out_dir, "frontier", "round_00000", "part-0.parquet")).num_rows
        for s in stats:
            assert set(s["stage_s"]) == set(STAGES)
            assert all(v >= 0 for v in s["stage_s"].values()), s
            assert s["tasks"] >= 1
            assert sum(s["stage_s"].values()) <= s["tasks"] * (s["t_main"] + 0.005), s
            # the tasks read every frontier row of the round once
            assert s["rows"] == frontier, s
            frontier = s["next_frontier"]

    def test_carry_offers_count_toward_offers(self, corpus_dir, ray_session,
                                              monkeypatch):
        # the carry offers run while the seen claims are in flight; their
        # seconds belong to ``offers``, not ``explode_seen``, and a
        # call's stage seconds still sum to its wall
        from ethereum_raw_data_crawler_ray.stages import roundstep

        cfg = make_cfg(corpus_dir, "stage_attr")
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        pipe = CrawlPipeline(cfg)
        try:
            pipe.prepare()
            pipe.bootstrap(pq.read_table(corpus_dir + "/seeds.parquet"))
            pipe._backfill_offers(0)
            pipe.cutoff_pool.finalize(0, cfg.host_skew_threshold, pipe._n_salt)
            df = pq.read_table(os.path.join(cfg.out_dir, "frontier", "round_00000"),
                               columns=roundstep._FRONTIER_COLS).to_pandas()
            # every other row sits in a skip window: it is carried as is
            df.loc[::2, "skip_until_round"] = 5
            slow_s, calls = 0.5, []
            offer = roundstep.offer_candidates

            def slow_offer(*args, **kwargs):
                calls.append(1)
                time.sleep(slow_s)
                return offer(*args, **kwargs)

            monkeypatch.setattr(roundstep, "offer_candidates", slow_offer)
            t0 = time.perf_counter()
            parts, durs, _, _ = roundstep.round_step(
                df, round_no=0, robots_ref=pipe.robots_ref,
                store_handles=pipe.store.handles, seen_handles=pipe.seen.handles,
                max_retries=cfg.max_retries, skip_rounds=cfg.skip_rounds,
                error_permille=ERR_PERMILLE, hot_gate={}, hot_offer={},
                **pipe._politeness_kwargs())
            wall = time.perf_counter() - t0
        finally:
            pipe.close()
        assert len(parts[roundstep.ROW_CARRY]) and len(parts[roundstep.ROW_DISC])
        assert list(durs) == list(roundstep.STAGES[1:])
        assert len(calls) == 2  # carry, then the novel discovered rows
        assert durs["offers"] >= 2 * slow_s
        assert durs["explode_seen"] < slow_s
        assert wall - 0.05 <= sum(durs.values()) <= wall


class TestRoundPartWriter:
    """``write_round_part`` without Ray: one task's output per batch
    group in, the round's hive ``row_kind=`` layout out."""

    @staticmethod
    def _groups():
        def t(kind, n, start):
            return pa.table({"url": [f"http://{kind}.test/{start + i}" for i in range(n)],
                             "round": pa.array([3] * n, type=pa.int32())})

        return [{"page": t("page", 3, 0), "carry": t("carry", 2, 0),
                 "discovered": t("discovered", 4, 0)},
                {"page": t("page", 2, 3), "discovered": t("discovered", 0, 4)}]

    @staticmethod
    def _files(d):
        return {os.path.relpath(os.path.join(root, f), d): pq.read_table(os.path.join(root, f))
                for root, _, fs in os.walk(d) for f in fs}

    def test_retry_overwrites_its_own_files(self, tmp_path):
        from ethereum_raw_data_crawler_ray.stages.roundstep import write_round_part

        once, twice = str(tmp_path / "once"), str(tmp_path / "twice")
        write_round_part(self._groups(), once, 7)

        def dies_after_first_group():
            yield self._groups()[0]
            raise RuntimeError("worker lost")

        with pytest.raises(RuntimeError):
            write_round_part(dies_after_first_group(), twice, 7)
        write_round_part(self._groups(), twice, 7)  # the retry
        a, b = self._files(once), self._files(twice)
        assert sorted(a) == sorted(b) == [
            f"row_kind={k}/part-00007.parquet" for k in ("carry", "discovered", "page")]
        for f in a:
            assert a[f].equals(b[f]), f

    def test_no_rows_no_file(self, tmp_path):
        from ethereum_raw_data_crawler_ray.stages.roundstep import write_round_part

        d = str(tmp_path / "empty")
        os.makedirs(d)
        empty = {k: t.slice(0, 0) for k, t in self._groups()[0].items()}
        write_round_part([empty, {}], d, 0)
        assert os.listdir(d) == []

    def test_hive_layout_reads_back_the_task_output(self, tmp_path):
        import pyarrow.dataset as pads

        from ethereum_raw_data_crawler_ray.stages.roundstep import write_round_part

        d = str(tmp_path / "round")
        write_round_part(self._groups(), d, 0)
        write_round_part(self._groups()[1:], d, 1)
        back = pads.dataset(d, format="parquet", partitioning="hive").to_table()
        assert back.schema.names == ["url", "round", "row_kind"]
        back = back.to_pandas()
        for kind in ("page", "carry", "discovered"):
            want = [u for g in self._groups() + self._groups()[1:] if kind in g
                    for u in g[kind]["url"].to_pylist()]
            got = back[back["row_kind"] == kind]
            assert sorted(got["url"]) == sorted(want), kind
            assert (got["round"] == 3).all()


class TestLineageCounts:
    def test_driver_recount_equals_committed_lineage(self, crawl_run):
        # round tasks return per-batch lineage_counts and the driver sums
        # them; recounting the committed round output with the same
        # function must give the committed lineage every round
        import pyarrow.dataset as pads

        from ethereum_raw_data_crawler_ray.stages.roundstep import lineage_counts

        cfg, _, totals = crawl_run
        lin = lineage_output(cfg.out_dir).to_pandas()
        cols = ["urls_scheduled", "urls_fetched", "urls_deferred",
                "urls_failed", "errors"]
        assert sorted(lin["round"].unique()) == list(range(totals["rounds"]))
        for r, want in lin.groupby("round"):
            t = pads.dataset(os.path.join(cfg.out_dir, "rounds", f"round_{r:05d}"),
                             format="parquet", partitioning="hive").to_table(
                columns=["url_hash", "gate", "status", "row_kind"]).to_pandas()
            got = lineage_counts(
                t["url_hash"].to_numpy(dtype=np.uint64),
                (t["row_kind"] == "page").to_numpy(dtype=bool),
                t["gate"].to_numpy(dtype=object), t["status"].to_numpy(dtype=object),
                cfg.n_seen_shards)
            want = want.sort_values("partition_id")[cols].to_numpy().T
            assert got.shape == (5, cfg.n_seen_shards)
            assert (got == want).all(), r


class TestShortRoundGuard:
    def test_short_round_raises_and_never_commits(self, corpus_dir, ray_session,
                                                  monkeypatch):
        # no path may drop rows without counting them: a round whose
        # tasks read fewer rows than its frontier holds raises before
        # its output or its lineage commits
        cfg = make_cfg(corpus_dir, "short_round")
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        pipe = CrawlPipeline(cfg)
        pipe.prepare()
        try:
            pipe.bootstrap(pq.read_table(corpus_dir + "/seeds.parquet"))
            pipe._backfill_offers(0)
            r = 0
            while len(pipe._round_items(r)) < 2:  # a round of several items
                assert pipe.run_round(r)["next_frontier"] > 0
                r += 1
            round_items = pipe._round_items
            monkeypatch.setattr(pipe, "_round_items", lambda rr: round_items(rr)[1:])
            with pytest.raises(RuntimeError, match="frontier rows"):
                pipe.run_round(r)
            pipe._join_bg()
            assert not os.path.exists(os.path.join(cfg.out_dir, "rounds", f"round_{r:05d}"))
            assert not os.path.exists(
                os.path.join(cfg.out_dir, "lineage", f"round_{r:05d}", "_COMPLETE"))
            assert os.path.exists(
                os.path.join(cfg.out_dir, "lineage", f"round_{r - 1:05d}", "_COMPLETE"))
        finally:
            pipe.close()


class TestEmptyRound:
    def test_round_without_frontier_raises_before_any_side_effect(self, ray_session):
        # this corpus runs out of frontier: running the round after the
        # last one raises at once, commits no round, leaves no failed
        # background write behind, and the crawl still resumes
        from ethereum_raw_data_crawler_ray.testdata import ensure_corpus

        corpus = ensure_corpus(300, n_hosts=10, n_seeds=10, seed=3,
                               base_dir="/tmp/test_corpus")
        cfg = CrawlConfig(**{**make_cfg(corpus, "empty_round").__dict__,
                             "index_dir": "/tmp/crawl_test_idx_n300_s3"})
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        pipe = CrawlPipeline(cfg)
        try:
            totals = pipe.run(max_rounds=60)
            r = totals["last_round"] + 1
            assert totals["rounds"] == r and pipe._frontier_count(r) == 0
            with pytest.raises(ValueError, match="no frontier rows"):
                pipe.run_round(r)
            pipe._join_bg()
            assert not os.path.exists(os.path.join(cfg.out_dir, "rounds", f"round_{r:05d}"))
            assert pipe.last_complete_round() == r - 1
        finally:
            pipe.close()
        pipe = CrawlPipeline(cfg)
        try:
            again = pipe.run(max_rounds=60)
        finally:
            pipe.close()
        assert again["rounds"] == 0 and again["last_round"] == r - 1


class TestOneWave:
    def test_round_items_one_per_cpu(self, corpus_dir, ray_session):
        # one wave: a round of more than ncpu × MIN_TASK_ROWS rows runs
        # exactly ncpu items, a smaller one fewer, each with one call a
        # batch bound of rows
        import ray

        ncpu = int(ray.cluster_resources()["CPU"])
        assert ncpu >= 2
        pipe = CrawlPipeline(make_cfg(corpus_dir, "one_wave"))
        big = ncpu * crawl_mod.MIN_TASK_ROWS + 1
        pipe._fplan_cache[3] = [("carry", "a", 300), ("discovered", "b", big - 300)]
        items = pipe._round_items(3)
        assert len(items) == ncpu
        assert all(len(it["calls"]) == 1 for it in items)
        pipe._fplan_cache[4] = [("carry", "a", 2 * crawl_mod.MIN_TASK_ROWS + 1)]
        assert len(pipe._round_items(4)) == 2
        pipe._fplan_cache[5] = [("carry", "a", 5 * 2048 * ncpu)]
        assert [len(it["calls"]) for it in pipe._round_items(5)] == [5] * ncpu

    def test_two_items_run_at_once(self, tmp_path, ray_session):
        # each item marks that it started, then waits for the other's
        # mark: both return True only if the two tasks overlap in time
        from ethereum_raw_data_crawler_ray.stages.roundstep import fan_out

        def meet(item, *, d):
            open(os.path.join(d, str(item["task"])), "w").close()
            deadline = time.time() + 120
            while time.time() < deadline:
                if len(os.listdir(d)) == 2:
                    return True
                time.sleep(0.01)
            return False

        assert fan_out(meet, [{"task": 0}, {"task": 1}], d=str(tmp_path)) == [True, True]


class TestHealthOutput:
    def test_healthy_run_all_components_not_reconstructed(self, crawl_run):
        cfg, _, totals = crawl_run
        h = health_output(cfg.out_dir).to_pandas()
        assert set(h["component"]) == {"seen", "store", "cutoff"}
        assert not h["reconstructed"].any()
        # one row per shard per round for every component
        per_round = h.groupby(["round", "component"])["shard_id"].nunique()
        assert (per_round.xs("seen", level="component") == cfg.n_seen_shards).all()
        assert h["round"].nunique() == totals["rounds"]
        # seen item counts are monotone in rounds (claims only grow)
        seen_items = h[h["component"] == "seen"].groupby("round")["items"].sum()
        assert (seen_items.diff().dropna() >= 0).all()
        # resource gauges (crawler_metrics.go:18-43 analog): every shard
        # row carries a live RSS reading and a cumulative CPU counter
        # that never decreases per (component, shard) across rounds
        assert (h["rss_kb"] > 0).all()
        assert (h["cpu_s"] >= 0).all()
        mono = h.sort_values("round").groupby(["component", "shard_id"])[
            "cpu_s"].apply(lambda s: (s.diff().dropna() >= 0).all())
        assert mono.all()
        # seen filter load (items / slots) and its analytic FP bound;
        # store and cutoff rows read 0, and a shard's load never falls
        slots = slots_for(cfg.seen_shard_capacity)
        assert slots == CuckooFilter(cfg.seen_shard_capacity).table.size
        seen = h[h["component"] == "seen"]
        assert np.allclose(seen["load_factor"], seen["items"] / slots)
        assert np.allclose(seen["fp_bound"], 8 * seen["load_factor"] / 2**16)
        other = h[h["component"] != "seen"]
        assert (other["load_factor"] == 0).all() and (other["fp_bound"] == 0).all()
        grows = seen.sort_values("round").groupby("shard_id")["load_factor"].apply(
            lambda s: (s.diff().dropna() >= 0).all())
        assert grows.all()


class TestSeenGapHeal:
    def test_shard_kill_with_sparse_checkpoints_matches(self, crawl_run, corpus_dir):
        # ADVICE r02: a restarted seen shard must not forget the claims
        # made since its last snapshot. At this capacity no snapshot is
        # ever due, so the killed shard rebuilds from the empty filter by
        # replaying the committed claims — crawl output AND the full
        # lineage, seen-shard digests included, must match the
        # uninterrupted run exactly
        import ray

        cfg_main, _, _ = crawl_run
        cfg = make_cfg(corpus_dir, "gapheal")
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        pipe = CrawlPipeline(cfg)
        pipe.prepare()
        pipe.bootstrap(pq.read_table(corpus_dir + "/seeds.parquet"))
        pipe._backfill_offers(0)
        r = 0
        while r < 60 and pipe._frontier_count(r) > 0:
            stats = pipe.run_round(r)
            if r == 1:
                ray.kill(pipe.seen.handles[1], no_restart=False)
                _wait_restarted(pipe.seen.handles[1])
            r += 1
            if stats["next_frontier"] == 0:
                break
        pipe._join_bg()
        pipe.close()
        assert not any(_snapshots(cfg.out_dir, j) for j in range(cfg.n_seen_shards))
        _assert_same_crawl(cfg_main.out_dir, cfg.out_dir)


class TestSeenSnapshots:
    """Recovery from a mid-crawl snapshot: the shard restores it and
    replays only the committed rounds after it."""

    def test_shard_kill_after_snapshot_matches(self, snap_run, corpus_dir):
        import ray

        cfg_ref, _ = snap_run
        cfg = snap_cfg(corpus_dir, "snap_kill")
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        pipe = CrawlPipeline(cfg)
        pipe.prepare()
        pipe.bootstrap(pq.read_table(corpus_dir + "/seeds.parquet"))
        pipe._backfill_offers(0)
        killed = None
        r = 0
        while r < 60 and pipe._frontier_count(r) > 0:
            stats = pipe.run_round(r)
            # kill shard 0 once it has a snapshot older than this round,
            # so the restart restores it AND replays a round after it
            snaps = _snapshots(cfg.out_dir, 0)
            if killed is None and snaps and snaps[-1] < r:
                ray.kill(pipe.seen.handles[0], no_restart=False)
                _wait_restarted(pipe.seen.handles[0])
                killed = r
            r += 1
            if stats["next_frontier"] == 0:
                break
        pipe._join_bg()
        pipe.close()
        assert killed is not None
        _assert_same_crawl(cfg_ref.out_dir, cfg.out_dir)

    def test_resume_after_snapshot_matches(self, snap_run, corpus_dir):
        cfg_ref, _ = snap_run
        cfg = snap_cfg(corpus_dir, "snap_resume")
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        p1 = CrawlPipeline(cfg)
        p1.run(max_rounds=5)  # "crash" after round 4
        p1.close()
        assert any(_snapshots(cfg.out_dir, j) and _snapshots(cfg.out_dir, j)[-1] < 4
                   for j in range(cfg.n_seen_shards))
        p2 = CrawlPipeline(cfg)  # fresh pipeline object = new process
        p2.run(max_rounds=60)
        p2.close()
        _assert_same_crawl(cfg_ref.out_dir, cfg.out_dir)


class TestWatchIngest:
    """Incremental ingest (the WS-push analog): pages published to a
    watched directory mid-run are picked up at the next round boundary;
    resume across a push stays bit-identical."""

    N_PUSH = 60

    def _push_file(self, corpus_dir: str) -> str:
        from ethereum_raw_data_crawler_ray.testdata import gen_chunk

        path = "/tmp/watch_push_1500.parquet"
        if not os.path.exists(path):
            t = gen_chunk(1500, 1500 + self.N_PUSH, 1500, 20, 42)
            pq.write_table(t, path)
        return path

    def _drive(self, cfg, corpus_dir, push_at: int, stop_pre: int | None = None):
        pipe = CrawlPipeline(cfg)
        pipe.prepare()
        pipe.bootstrap(pq.read_table(corpus_dir + "/seeds.parquet"))
        pipe._backfill_offers(0)
        r = 0
        while r < 30:
            if r == push_at:
                shutil.copy(
                    self._push_file(corpus_dir),
                    os.path.join(cfg.extra["watch_dir"], "push1.parquet"),
                )
            pipe.ingest_new_pages(r)
            if stop_pre is not None and r == stop_pre:
                pipe._join_bg()
                pipe.close()
                return  # simulated crash AFTER ingest, BEFORE the round
            if pipe._frontier_count(r) == 0:
                break
            pipe.run_round(r)
            r += 1
        pipe._join_bg()
        pipe.close()

    def _watch_cfg(self, corpus_dir, tag):
        cfg = make_cfg(corpus_dir, tag)
        wd = f"/tmp/watch_dir_{tag}"
        shutil.rmtree(wd, ignore_errors=True)
        os.makedirs(wd, exist_ok=True)
        # own index dir: ingest APPENDS to the index, which must not leak
        # into the tests sharing the read-only corpus index
        idx = f"/tmp/watch_idx_{tag}"
        shutil.rmtree(idx, ignore_errors=True)
        return CrawlConfig(
            **{
                **cfg.__dict__,
                "index_dir": idx,
                "extra": {**cfg.extra, "watch_dir": wd},
            }
        )

    def test_pushed_pages_crawled(self, corpus_dir, ray_session):
        cfg = self._watch_cfg(corpus_dir, "watch")
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        self._drive(cfg, corpus_dir, push_at=2)
        df = _rounds_df(cfg.out_dir)
        pushed = pq.read_table(self._push_file(corpus_dir), columns=["url"])
        pushed_public = [u for u in pushed["url"].to_pylist() if "/private/" not in u]
        got = set(df["url"])
        hit = sum(1 for u in pushed_public if u in got)
        assert hit == len(pushed_public), f"only {hit}/{len(pushed_public)} pushed pages crawled"
        # pushed pages enter at the push round or later
        sub = df[df["url"].isin(pushed_public)]
        assert (sub["round"] >= 2).all()

    def test_push_with_lazy_store_mode(self, corpus_dir, ray_session, monkeypatch):
        # store shards index pushed files incrementally: the new (hash,
        # file, row group) entries merge into the sorted index of the
        # live shard, so pushed pages are found with their payload, also
        # while a 4-group LRU evicts
        from ethereum_raw_data_crawler_ray.state import store

        cfg = self._watch_cfg(corpus_dir, "watch_lazy")
        monkeypatch.setattr(store, "LRU_GROUPS", 4)
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        self._drive(cfg, corpus_dir, push_at=2)
        df = _rounds_df(cfg.out_dir)
        pushed = pq.read_table(self._push_file(corpus_dir), columns=["url", "text"])
        want = {
            u: t for u, t in zip(pushed["url"].to_pylist(), pushed["text"].to_pylist())
            if "/private/" not in u
        }
        got = dict(zip(df["url"], df["text"]))
        assert {u: got.get(u) for u in want} == want

    def test_idle_fallback_revives_on_late_push(self, corpus_dir, ray_session):
        # hybrid fallback/switchback (scheduler_service.go:250-263,
        # 427-519 analog): frontier exhausts, the run idles polling the
        # watch dir instead of terminating, a LATE push arrives, the loop
        # switches back and crawls it
        import threading

        base = self._watch_cfg(corpus_dir, "watch_idle")
        shutil.rmtree(base.out_dir, ignore_errors=True)
        p1 = CrawlPipeline(base)
        p1.run(max_rounds=60)  # crawl to frontier exhaustion, no pushes
        p1.close()

        cfg = CrawlConfig(
            **{
                **base.__dict__,
                "extra": {
                    **base.extra,
                    "watch_idle_rounds": 400,
                    "watch_poll_s": 0.05,
                },
            }
        )

        def late_push():
            shutil.copy(
                self._push_file(corpus_dir),
                os.path.join(cfg.extra["watch_dir"], "late.parquet"),
            )

        # resume on the exhausted frontier: the loop must IDLE (not
        # terminate) until the push lands 2 s later, then switch back
        t = threading.Timer(2.0, late_push)
        t.start()
        pipe = CrawlPipeline(cfg)
        try:
            pipe.run(max_rounds=60)
        finally:
            t.join()
            pipe.close()
        df = _rounds_df(cfg.out_dir)
        pushed = pq.read_table(self._push_file(corpus_dir), columns=["url"])
        pushed_public = [u for u in pushed["url"].to_pylist() if "/private/" not in u]
        got = set(df["url"])
        assert all(u in got for u in pushed_public), "late push not crawled"

    def test_resume_across_push_bit_identical(self, corpus_dir, ray_session):
        ref = self._watch_cfg(corpus_dir, "watch_ref")
        shutil.rmtree(ref.out_dir, ignore_errors=True)
        self._drive(ref, corpus_dir, push_at=2)

        # crash AFTER the round-2 ingest but BEFORE round 2 executes —
        # resume must re-claim the ingested rows (same seen state) and
        # finish identically
        cfg = self._watch_cfg(corpus_dir, "watch_resume")
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        self._drive(cfg, corpus_dir, push_at=2, stop_pre=2)
        p2 = CrawlPipeline(cfg)
        p2.run(max_rounds=60)
        p2.close()

        a = _rounds_df(ref.out_dir).sort_values("url").reset_index(drop=True)
        b = _rounds_df(cfg.out_dir).sort_values("url").reset_index(drop=True)
        cols = ["url", "text", "round", "depth"]
        pd.testing.assert_frame_equal(a[cols], b[cols])

    def test_crash_before_lineage_resumes_identically(self, corpus_dir, ray_session):
        # a crash while round 1's lineage is still being written, with a
        # push already waiting: round 2's ingest must not land before
        # round 1 is complete, else the resume re-runs round 1 and admits
        # the pushed URLs a second time as discovered rows. The resume
        # re-runs round 1, which now sees the push, so the crawl must
        # equal an uninterrupted one pushed at round 1, full lineage
        # included.
        ref = self._watch_cfg(corpus_dir, "watch_lin_ref")
        shutil.rmtree(ref.out_dir, ignore_errors=True)
        self._drive(ref, corpus_dir, push_at=1)

        cfg = self._watch_cfg(corpus_dir, "watch_lin_crash")
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        pipe = CrawlPipeline(cfg)
        pipe.prepare()
        pipe.bootstrap(pq.read_table(corpus_dir + "/seeds.parquet"))
        pipe._backfill_offers(0)
        lineage = pipe._lineage

        def crash_in_round_1(r, *a, **kw):
            if r == 1:
                raise RuntimeError("killed before lineage _COMPLETE")
            return lineage(r, *a, **kw)

        pipe._lineage = crash_in_round_1
        for r in range(2):
            pipe.ingest_new_pages(r)
            pipe.run_round(r)
        shutil.copy(self._push_file(corpus_dir),
                    os.path.join(cfg.extra["watch_dir"], "push1.parquet"))
        with pytest.raises(RuntimeError, match="background"):
            pipe.ingest_new_pages(2)
        pipe.close()
        assert pipe.last_complete_round() == 0
        assert not os.path.exists(os.path.join(cfg.out_dir, "ingest", "round_00002"))
        p2 = CrawlPipeline(cfg)
        p2.run(max_rounds=60)
        p2.close()
        _assert_same_crawl(ref.out_dir, cfg.out_dir)

    def test_urls_and_logs_channels(self, corpus_dir, ray_session):
        # the reference's three WS subscription types
        # (websocket_listener.go:119-196) map to three watch channels:
        # pages/ (newHeads), urls/ (newPendingTransactions), logs/
        # (filtered logs). urls/ announces ids with NO payload — they
        # enter the frontier but fetch as misses (timeout-class) and
        # never produce a fetched page; logs/ rows are committed to the
        # external output, filtered by watch_log_event_types, and never
        # touch the frontier.
        import pyarrow as pa

        from ethereum_raw_data_crawler_ray.pipelines.crawl import (
            external_events_output,
        )

        cfg = self._watch_cfg(corpus_dir, "watch_multi")
        cfg = CrawlConfig(
            **{**cfg.__dict__,
               "extra": {**cfg.extra, "watch_log_event_types": ["alert"]}}
        )
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        wd = cfg.extra["watch_dir"]
        os.makedirs(os.path.join(wd, "urls"), exist_ok=True)
        os.makedirs(os.path.join(wd, "logs"), exist_ok=True)
        ghost_urls = [f"http://ghost{i}.test/page{i}" for i in range(4)]
        pq.write_table(pa.table({"url": pa.array(ghost_urls)}),
                       os.path.join(wd, "urls", "announce1.parquet"))
        pq.write_table(
            pa.table({"event_type": pa.array(["alert", "noise", "alert"]),
                      "payload": pa.array(["a", "b", "c"])}),
            os.path.join(wd, "logs", "ext1.parquet"),
        )

        pipe = CrawlPipeline(cfg)
        pipe.prepare()
        pipe.bootstrap(pq.read_table(corpus_dir + "/seeds.parquet"))
        pipe._backfill_offers(0)
        r = 0
        while r < 30 and pipe._frontier_count(r) > 0:
            pipe.ingest_new_pages(r)
            pipe.run_round(r)
            r += 1
        pipe._join_bg()
        pipe.close()

        import pyarrow.dataset as pads

        # pages_output filters to fetched rows — read ALL round rows
        allrows = pads.dataset(
            os.path.join(cfg.out_dir, "rounds"), format="parquet",
            partitioning="hive",
        ).to_table().to_pandas()
        ghosts = allrows[allrows["url"].isin(ghost_urls)]
        # announced urls entered the frontier and were attempted …
        assert set(ghosts["url"]) == set(ghost_urls)
        assert (ghosts[ghosts["row_kind"] == "page"]["status"] == "error").all()
        # … but have no payload: misses are timeout-class errors that
        # retry (carry rows) and never fetch
        assert len(ghosts[ghosts["row_kind"] == "carry"]) > 0
        assert not (ghosts["status"] == "fetched").any()
        assert not set(_rounds_df(cfg.out_dir)["url"]) & set(ghost_urls)
        # second scan of the same files is a no-op (manifest relpaths)
        assert pipe._processed_watch_files() >= {
            os.path.join("urls", "announce1.parquet"),
            os.path.join("logs", "ext1.parquet"),
        }
        ext = external_events_output(cfg.out_dir).to_pandas()
        assert sorted(ext["payload"]) == ["a", "c"]
        assert set(ext["event_type"]) == {"alert"}

    def test_logs_channel_edge_cases(self, corpus_dir, ray_session):
        # schema-divergent files merge permissively; an all-filtered
        # batch commits nothing; a filter with no event_type column
        # fails loudly instead of passing every row
        import pyarrow as pa

        cfg = self._watch_cfg(corpus_dir, "watch_logs_edge")
        cfg = CrawlConfig(
            **{**cfg.__dict__,
               "extra": {**cfg.extra, "watch_log_event_types": ["alert"]}}
        )
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        wd = cfg.extra["watch_dir"]
        os.makedirs(os.path.join(wd, "logs"), exist_ok=True)

        pipe = CrawlPipeline(cfg)
        pipe.prepare()
        pipe.bootstrap(pq.read_table(corpus_dir + "/seeds.parquet"))
        pipe._backfill_offers(0)

        # batch 1: two files with DIVERGENT schemas, all rows filtered out
        pq.write_table(pa.table({"event_type": pa.array(["noise"]),
                                 "payload": pa.array(["x"])}),
                       os.path.join(wd, "logs", "a.parquet"))
        pq.write_table(pa.table({"event_type": pa.array(["noise"]),
                                 "payload": pa.array(["y"]),
                                 "extra": pa.array([1])}),
                       os.path.join(wd, "logs", "b.parquet"))
        pipe.ingest_new_pages(0)
        assert not os.path.exists(os.path.join(cfg.out_dir, "external"))
        # the files ARE marked processed (manifest), so no reprocessing
        assert {os.path.join("logs", "a.parquet"),
                os.path.join("logs", "b.parquet")} <= pipe._processed_watch_files()

        # batch 2: surviving rows from divergent schemas null-fill
        pq.write_table(pa.table({"event_type": pa.array(["alert"]),
                                 "payload": pa.array(["z"]),
                                 "extra": pa.array([7])}),
                       os.path.join(wd, "logs", "c.parquet"))
        pq.write_table(pa.table({"event_type": pa.array(["alert"])}),
                       os.path.join(wd, "logs", "d.parquet"))
        pipe.ingest_new_pages(0)
        from ethereum_raw_data_crawler_ray.pipelines.crawl import (
            external_events_output,
        )
        ext = external_events_output(cfg.out_dir).to_pandas()
        assert len(ext) == 2 and set(ext["event_type"]) == {"alert"}

        # batch 3: configured filter + file without event_type → the
        # poison file is QUARANTINED (manifest-marked + _REJECTED.json)
        # instead of wedging every subsequent scan (ADVICE r04: the
        # reference WS listener logs-and-continues on a bad message)
        import glob as _glob
        import json as _json

        pq.write_table(pa.table({"payload": pa.array(["q"])}),
                       os.path.join(wd, "logs", "e.parquet"))
        pipe.ingest_new_pages(0)  # must NOT raise
        assert os.path.join("logs", "e.parquet") in pipe._processed_watch_files()
        rej: dict = {}
        for p in _glob.glob(os.path.join(cfg.out_dir, "ingest", "*", "*",
                                         "_REJECTED.json")):
            with open(p) as f:
                rej.update(_json.load(f))
        assert "event_type" in rej[os.path.join("logs", "e.parquet")]

        # the loop keeps ingesting good pushes after the poison file
        pq.write_table(pa.table({"event_type": pa.array(["alert"]),
                                 "payload": pa.array(["w"])}),
                       os.path.join(wd, "logs", "f.parquet"))
        pipe.ingest_new_pages(0)
        ext = external_events_output(cfg.out_dir).to_pandas()
        assert sorted(ext[ext["payload"].notna()]["payload"]) == ["w", "z"]
        pipe._join_bg()
        pipe.close()

    def test_malformed_push_quarantined_all_channels(self, corpus_dir,
                                                     ray_session):
        # ADVICE r04 (medium): one bad external push must never halt the
        # watch loop — per channel: garbage bytes, missing required
        # columns, wrong column type → quarantined; the GOOD file in the
        # same batch still ingests
        import glob as _glob
        import json as _json

        import pyarrow as pa

        cfg = self._watch_cfg(corpus_dir, "watch_poison")
        shutil.rmtree(cfg.out_dir, ignore_errors=True)
        wd = cfg.extra["watch_dir"]
        os.makedirs(os.path.join(wd, "urls"), exist_ok=True)
        os.makedirs(os.path.join(wd, "pages"), exist_ok=True)

        # bad pages: not parquet at all / missing warc_ts / int url
        with open(os.path.join(wd, "pages", "junk.parquet"), "wb") as f:
            f.write(b"these are not parquet bytes")
        pq.write_table(pa.table({"url": pa.array(["http://a.test/x"])}),
                       os.path.join(wd, "pages", "no_ts.parquet"))
        pq.write_table(
            pa.table({"url": pa.array([1, 2]),
                      "warc_ts": pa.array([0, 0], pa.int64())}),
            os.path.join(wd, "pages", "int_url.parquet"),
        )
        # bad urls announcement: missing url column
        pq.write_table(pa.table({"link": pa.array(["http://b.test/y"])}),
                       os.path.join(wd, "urls", "no_url.parquet"))
        # one GOOD announcement in the same batch
        pq.write_table(pa.table({"url": pa.array(["http://good.test/ok"])}),
                       os.path.join(wd, "urls", "good.parquet"))
        # two individually-VALID pages files with divergent schemas
        # (warc_ts int64 vs timestamp; an extra column in one): frontier
        # rows build per file, so the pair must ingest — a whole-batch
        # concat would crash on the mismatch
        def _page(url, ts, extra=False):
            cols = {"url": pa.array([url]),
                    "warc_ts": ts,
                    "html": pa.array([b"<p>x</p>"], pa.binary()),
                    "lang": pa.array(["en"])}
            if extra:
                cols["extra_col"] = pa.array(["meta"])
            return pa.table(cols)

        pq.write_table(
            _page("http://good.test/p1", pa.array([7], pa.int64())),
            os.path.join(wd, "pages", "good_a.parquet"),
        )
        pq.write_table(
            _page("http://good.test/p2",
                  pa.array([pd.Timestamp(8, unit="s")], pa.timestamp("us")),
                  extra=True),
            os.path.join(wd, "pages", "good_b.parquet"),
        )
        # pages file missing lang: the store shards read it from every
        # index file, so this must quarantine too
        pq.write_table(
            pa.table({"url": pa.array(["http://good.test/p3"]),
                      "warc_ts": pa.array([9], pa.int64()),
                      "html": pa.array([b"<p>y</p>"], pa.binary())}),
            os.path.join(wd, "pages", "no_lang.parquet"),
        )
        # valid pages file with a NULL warc_ts: must ingest with epoch 0,
        # not INT64_MIN (frontier-ordering extreme — review r05)
        pq.write_table(
            _page("http://good.test/p4",
                  pa.array([None], pa.timestamp("us"))),
            os.path.join(wd, "pages", "null_ts.parquet"),
        )

        pipe = CrawlPipeline(cfg)
        pipe.prepare()
        pipe.bootstrap(pq.read_table(corpus_dir + "/seeds.parquet"))
        pipe._backfill_offers(0)
        n = pipe.ingest_new_pages(0)  # must NOT raise
        # good announcement + two schema-divergent pages + the null-ts one
        assert n >= 4
        import pyarrow.dataset as pads

        ing = pads.dataset(
            os.path.join(cfg.out_dir, "ingest"), format="parquet"
        ).to_table().to_pandas()
        p4 = ing[ing["url"] == "http://good.test/p4"]
        assert len(p4) == 1
        # null warc_ts fills to epoch 0, never INT64_MIN
        assert p4["warc_ts"].iloc[0] == pd.Timestamp(0)

        bad = {os.path.join("pages", "junk.parquet"),
               os.path.join("pages", "no_ts.parquet"),
               os.path.join("pages", "int_url.parquet"),
               os.path.join("pages", "no_lang.parquet"),
               os.path.join("urls", "no_url.parquet")}
        processed = pipe._processed_watch_files()
        assert bad | {os.path.join("urls", "good.parquet"),
                      os.path.join("pages", "good_a.parquet"),
                      os.path.join("pages", "good_b.parquet")} <= processed
        rej: dict = {}
        for p in _glob.glob(os.path.join(cfg.out_dir, "ingest", "*", "*",
                                         "_REJECTED.json")):
            with open(p) as f:
                rej.update(_json.load(f))
        assert set(rej) == bad
        # a second scan re-reads nothing (poison files never re-probe)
        assert pipe.ingest_new_pages(0) == 0
        pipe._join_bg()
        pipe.close()


class TestResume:
    def test_bit_identical_resume(self, crawl_run, corpus_dir):
        # FIXTURES.md case 6: kill after round 2, resume, outputs and
        # lineage (incl. seen-shard digests) identical to uninterrupted
        cfg_main, _, _ = crawl_run
        cfg = make_cfg(corpus_dir, "resume")
        shutil.rmtree(cfg.out_dir, ignore_errors=True)

        p1 = CrawlPipeline(cfg)
        p1.run(max_rounds=3)  # "crash" after round 2
        p1.close()
        assert os.path.exists(
            os.path.join(cfg.out_dir, "lineage", "round_00002", "_COMPLETE")
        )
        p2 = CrawlPipeline(cfg)  # fresh pipeline object = new process
        p2.run(max_rounds=60)
        p2.close()

        a = _rounds_df(cfg_main.out_dir).sort_values("url").reset_index(drop=True)
        b = _rounds_df(cfg.out_dir).sort_values("url").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            a[["url", "text", "lang", "round", "depth", "n_bytes"]],
            b[["url", "text", "lang", "round", "depth", "n_bytes"]],
        )
        la = lineage_output(cfg_main.out_dir).to_pandas().sort_values(
            ["round", "partition_id"]
        ).reset_index(drop=True)
        lb = lineage_output(cfg.out_dir).to_pandas().sort_values(
            ["round", "partition_id"]
        ).reset_index(drop=True)
        cols = [c for c in la.columns if c != "wall_s"]
        pd.testing.assert_frame_equal(la[cols], lb[cols])


class TestCutoffPullTransport:
    """r04 verdict #3: politeness cutoffs stay shard-RESIDENT and gating
    tasks pull only their batch's pkey slice — the driver payload is one
    count per shard plus the (tiny) hot-host set, flat in the number of
    active hosts. Every crawl test runs this transport."""

    def test_driver_payload_flat_in_host_count(self, corpus_dir,
                                               ray_session):
        # synthetic many-host frontier offered straight to a pool: the
        # driver-visible finalize payload must stay O(shards + hot
        # hosts) while the resident cutoffs cover every host, and pulled
        # slices must equal the full resident dict
        import numpy as np

        from ethereum_raw_data_crawler_ray.functions.hashing import (
            hash_strings,
        )
        from ethereum_raw_data_crawler_ray.state.politeness import (
            CutoffPool,
            pull_cutoffs_for,
        )

        n_hosts = 50_000
        per_host = 3
        hosts = np.repeat(
            np.array([f"h{i}.test" for i in range(n_hosts)], dtype=object),
            per_host,
        )
        n = len(hosts)
        urls = np.array([f"http://{h}/p{i}" for i, h in enumerate(hosts)],
                        dtype=object)
        df = pd.DataFrame(
            {
                "url": urls,
                "url_hash": hash_strings(urls),
                "host": hosts,
                "priority": np.zeros(n, dtype=np.int64),
                "depth": np.zeros(n, dtype=np.int64),
                "warc_ts": np.zeros(n, dtype="datetime64[us]"),
                "attempts": np.zeros(n, dtype=np.int32),
                "skip_until_round": np.full(n, -1, dtype=np.int32),
            }
        )
        pool = CutoffPool(4, None, round_ms=1000,
                          default_delay_ms=0, max_per_host=1)
        try:
            from ethereum_raw_data_crawler_ray.state.politeness import (
                offer_candidates,
            )

            for j in range(0, n, 30_000):  # batched like round tasks
                offer_candidates(
                    df.iloc[j:j + 30_000],
                    robots={}, round_no=5, round_ms=1000,
                    default_delay_ms=0, max_per_host=1, n_salt=1,
                    cutoff_handles=pool.handles,
                )
            n_cutoffs, hot = pool.finalize(5, hot_threshold=1_000_000,
                                           base_salt=1)
            # budget 1 < 3 candidates → every host has a cutoff, but the
            # driver only ever saw per-shard counts + an empty hot set
            assert n_cutoffs == n_hosts
            assert hot == {}
            # pulled slices == the full resident dict, pkey for pkey
            pulled = {}
            for j in range(0, n, 30_000):
                pulled.update(pull_cutoffs_for(
                    df.iloc[j:j + 30_000], pool.handles,
                    round_no=5, n_salt=1, hot=None,
                ))
            full = pool.fetch_ready(5)
            assert pulled == full and len(full) == n_hosts
        finally:
            pool.kill()
