"""The crawl round loop — the engine's flagship pipeline.

Ray-native lifecycle (SURVEY.md §3.4), replacing the reference's
WebSocket-listener/scheduler/worker-pool loop (``scheduler_service.go``,
``crawler_service.go``) with a driver-side round loop. Each round is
ONE fan-out of Ray tasks, one per balanced frontier item, each running
the fused ``round_step`` stage (stages/roundstep.py — gate → fetch from
the page-store actors → extract → enrich → carry → discover/seen-claim
→ politeness offers for r+1) and writing its part of the round table,
hive-partitioned by ``row_kind`` so the next round's frontier read
touches only thin carry/discovered files:

  round r:
    collect politeness cutoffs for r (offered during round r-1's tasks)
    fan_out(round_task) over frontier_r's spans → rounds/round_r (atomic)
    seen end_round(r): chain each shard's digest over the round's
      admitted claims (O(round); a rare snapshot when one is due)
    events projection + per-shard lineage (overlapped with round r+1)

No all-to-all shuffle anywhere: politeness selection is exact
per-(host,salt) top-k via offered partial top-ks + broadcast cutoffs,
and round dedup is the seen-shard first claim over discovered rows that
are pure functions of (url, round).

Resume starts at the round after the last complete one (lineage
``_COMPLETE``): the seen shards rebuild from their newest snapshot plus
the committed claims after it (state/seen.py; a round's watch ingest
lands only once the round before it is complete, so it is always
replayed as the resumed round's claims), everything else is
re-derived from the committed outputs (deterministic → bit-identical;
tests kill -9 and compare). No decision anywhere reads a wall clock and
every write is an idempotent tmp-dir + rename (:func:`_commit`). All
state lives in the actor pools (seen shards, page store, cutoff
buckets) or in checkpoint Parquet — never in driver mutexes (the
reference's single-process ceiling, SURVEY.md §4).
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ..config import CrawlConfig
from ..functions.hashing import hash_strings
from ..functions.urlnorm import normalize_many
from ..schema import FRONTIER, LINEAGE, frontier_table
from ..stages.fetch import STATUS_ERROR, STATUS_FETCHED, build_fetch_index
from ..stages.roundstep import STAGES, fan_out, offer_task, round_task
from ..state.cuckoo import slots_for
from ..state.politeness import (
    CutoffPool,
    errors_by_shard,
    load_robots,
    offer_candidates,
    salt_count_for,
)
from ..state.pool import StatePool, url_owner
from ..state.seen import ActorSeenSet
from ..state.store import ActorPageStore

# finalized cutoffs up to this many go to the round tasks as ONE
# broadcast dict (fewer RPCs — the single-node fast path); more stay
# resident on their shards and each batch pulls its slice
MAX_CUTOFF_BROADCAST = 500_000


def _commit(final_dir: str, table: pa.Table | None = None, fill=None):
    """Publish ``final_dir`` atomically: fill a fresh ``.tmp`` sibling —
    ``table`` as ``part-0.parquet`` (nothing when None), then
    ``fill(tmp)`` for any other files — and swap it in by rename.
    Idempotent: a replayed write overwrites the same dir. → what
    ``fill`` returned."""
    tmp = final_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    if table is not None:
        pq.write_table(table, os.path.join(tmp, "part-0.parquet"))
    filled = fill(tmp) if fill is not None else None
    shutil.rmtree(final_dir, ignore_errors=True)
    os.rename(tmp, final_dir)
    return filled


def frontier_from_seeds(seeds: pa.Table) -> pa.Table:
    """Seed list → frontier rows (analog of START_BLOCK_NUMBER bootstrap,
    crawler_service.go:199-226). Malformed seed URLs are dropped."""
    urls, hosts, ok = normalize_many(seeds["url"].to_pylist())
    return frontier_table(urls[ok], hosts[ok], seeds["priority"].to_numpy()[ok],
                          seeds["depth"].to_numpy()[ok], 0)


class CrawlPipeline:
    def __init__(self, cfg: CrawlConfig):
        self.cfg = cfg
        self.out = cfg.out_dir
        self.seen: ActorSeenSet | None = None
        self.store: ActorPageStore | None = None
        self.cutoff_pool: CutoffPool | None = None
        self.pool: StatePool | None = None
        self.robots_ref = None
        self._robots: dict = {}  # driver-side copy (ingest offers)
        self._prepared = False
        # the previous round's events/lineage writer and its failure
        self._bg = None
        self._bg_exc: BaseException | None = None
        # round → [(frontier file, n_rows)] — footers read once per round
        # (shared by the count, the balanced task assignment and resume
        # healing; invalidated when watch-mode ingest adds files)
        self._fplan_cache: dict[int, list] = {}

    # --- layout helpers ---------------------------------------------------
    def _p(self, *parts: str) -> str:
        return os.path.join(self.out, *parts)

    def _round_complete(self, r: int) -> bool:
        return os.path.exists(self._p("lineage", f"round_{r:05d}", "_COMPLETE"))

    def last_complete_round(self) -> int:
        r = -1
        while self._round_complete(r + 1):
            r += 1
        return r

    # --- setup ------------------------------------------------------------
    def close(self) -> None:
        """Release the state actor pool (seen state is rebuilt from the
        committed claims and seen/ snapshots; the store from the index)."""
        self._join_bg()
        if self.pool is not None:
            self.pool.kill()
        self.pool = self.seen = self.store = self.cutoff_pool = None
        self._prepared = False

    def prepare(self) -> None:
        # idempotent: run() always calls prepare(), but a caller that
        # prepared explicitly (bench setup, watch loops) must NOT pay a
        # second actor-pool spinup + full store-index reload inside its
        # timed window — the live pool is reused; close() resets.
        # The guard flag is set at the END, so a prepare() that failed
        # partway (e.g. pool creation raised) is retried in full rather
        # than leaving a half-initialized pipeline.
        if self._prepared:
            return
        cfg = self.cfg
        os.makedirs(self.out, exist_ok=True)
        build_fetch_index(cfg.pages_path, cfg.index_dir, cfg.n_fetch_buckets)
        robots_path = cfg.extra.get("robots_path")
        self._robots = load_robots(robots_path) if robots_path else {}
        self.robots_ref = ray.put(self._robots)
        # the three state roles share ONE actor pool: actor j hosts store,
        # seen and cutoff shard j (state/pool.py) — spawning processes is
        # the set-up cost, so the pool spawns max(n) of them, not the sum
        self.pool = StatePool()
        self.seen = ActorSeenSet(
            cfg.n_seen_shards, cfg.seen_shard_capacity,
            out_dir=self.out, pool=self.pool,
        )
        n_store = int(cfg.extra.get("n_store_shards", min(8, cfg.n_fetch_buckets)))
        self.store = ActorPageStore(
            cfg.index_dir, cfg.n_fetch_buckets, n_store,
            mode=cfg.extra.get("store_mode", "preload"),
            lru_groups=int(cfg.extra.get("store_lru_groups", 64)),
            pool=self.pool,
        )
        self.cutoff_pool = CutoffPool(
            int(cfg.extra.get("n_cutoff_actors", 8)),
            robots_path,
            cfg.round_ms,
            cfg.default_crawl_delay_ms,
            cfg.max_per_host_round,
            pool=self.pool,
        )
        self.pool.start()
        self.store.wait_ready()  # index loads ONCE per run, not per round
        self.cutoff_pool.consume_fresh()  # clear the initial flags
        self._prepared = True

    def bootstrap(self, seeds: pa.Table) -> None:
        """Write frontier/round=0 from the seed list, claiming seeds in
        the seen set (duplicate seeds collapse, mirror of dedup layer 1)."""
        t = frontier_from_seeds(seeds)
        hashes = np.asarray(t["url_hash"].to_pandas(), dtype=np.uint64)
        novel = self.seen.check_and_insert(hashes)
        _commit(self._p("frontier", "round_00000"), t.filter(pa.array(novel)))

    # --- frontier source (each round's output embeds the next frontier,
    #     hive-partitioned by row_kind so frontier reads touch only the
    #     thin carry/discovered files and counts are metadata-only; round
    #     0 reads the bootstrap dir) ---------------------------------------
    def _frontier_source(self, r: int) -> list[str]:
        """Parquet file paths holding round r's frontier rows."""
        import glob as _glob

        if r == 0:
            d = self._p("frontier", "round_00000")
            dirs = [d] if os.path.exists(d) else []
        else:
            base = self._p("rounds", f"round_{r - 1:05d}")
            dirs = [
                p
                for kind in ("carry", "discovered")
                if os.path.exists(p := os.path.join(base, f"row_kind={kind}"))
            ]
        # watch-mode pushed rows for this round (WS-push analog)
        ing = self._p("ingest", f"round_{r:05d}")
        if os.path.exists(ing):
            dirs.append(ing)
        files: list[str] = []
        for d in dirs:
            files.extend(sorted(_glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True)))
        return files

    def _frontier_plan(self, r: int) -> list:
        """[(file, n_rows)] for round r's frontier — footer metadata only,
        read in a thread pool and cached per round."""
        plan = self._fplan_cache.get(r)
        if plan is None:
            from concurrent.futures import ThreadPoolExecutor

            files = self._frontier_source(r)
            if len(files) > 4:
                with ThreadPoolExecutor(max_workers=16) as ex:
                    rows = list(
                        ex.map(lambda f: pq.ParquetFile(f).metadata.num_rows, files)
                    )
            else:
                rows = [pq.ParquetFile(f).metadata.num_rows for f in files]
            plan = self._fplan_cache[r] = list(zip(files, rows))
        return plan

    def _frontier_count(self, r: int) -> int:
        return sum(n for _, n in self._frontier_plan(r))

    def _round_items(self, r: int) -> list[dict]:
        """Round r's frontier as ~4 waves of equal task items: file
        sizes follow the producing tasks' skew, so balance comes from
        packing spans to equal row counts, not from moving rows."""
        ncpu = int(ray.cluster_resources().get("CPU", 8))
        n = self._frontier_count(r)
        batch = max(256, min(self.cfg.extract_batch_size, -(-n // (4 * ncpu))))
        return self._balanced_items(self._frontier_plan(r), batch, 4 * ncpu)

    @staticmethod
    def _balanced_items(plan: list, batch: int, max_tasks: int) -> list[dict]:
        """Pack frontier file spans into ``batch``-row processing groups,
        then those groups into ≤ ``max_tasks`` task items numbered by
        ``task``: tasks balance by the assignment, not by moving rows,
        and the item count stays O(cluster cores) however large the
        frontier (a task handles one batch group at a time)."""
        groups: list[tuple[list, list, list]] = []
        cur_p: list = []
        cur_o: list = []
        cur_l: list = []
        cur_rows = 0
        for f, n in plan:
            off = 0
            while off < n:
                take = min(n - off, batch - cur_rows)
                cur_p.append(f)
                cur_o.append(off)
                cur_l.append(take)
                cur_rows += take
                off += take
                if cur_rows >= batch:
                    groups.append((cur_p, cur_o, cur_l))
                    cur_p, cur_o, cur_l, cur_rows = [], [], [], 0
        if cur_rows:
            groups.append((cur_p, cur_o, cur_l))
        if not groups:
            return []
        # round-robin batch groups across tasks: consecutive groups read
        # consecutive file regions, so striding also spreads any residual
        # per-file skew across tasks
        n_tasks = max(1, min(len(groups), max_tasks))
        return [
            {
                "task": t,
                "paths": [p for g in mine for p in g[0]],
                "offsets": [o for g in mine for o in g[1]],
                "lengths": [ln for g in mine for ln in g[2]],
                "batch_id": [bi for bi, g in enumerate(mine) for _ in g[0]],
            }
            for t, mine in enumerate(groups[t::n_tasks] for t in range(n_tasks))
        ]

    # --- automatic host-skew salting state (SURVEY.md §4) ----------------
    # hot maps host → per-host salt count for one specific round; decided
    # at collect(r) from round r's raw candidate counts (so a host that
    # exceeds host_skew_threshold in round r is salted from round r+1 on)
    # and persisted per round for deterministic resume.
    def _hot_path(self, r: int) -> str:
        return self._p("hot", f"round_{r:05d}.json")

    def _load_hot(self, r: int) -> dict:
        import json

        p = self._hot_path(r)
        if not os.path.exists(p):
            return {}
        with open(p) as f:
            return {str(k): int(v) for k, v in json.load(f).items()}

    def _save_hot(self, r: int, hot: dict) -> None:
        import json

        if not hot and not os.path.exists(self._hot_path(r)):
            return
        os.makedirs(self._p("hot"), exist_ok=True)
        tmp = self._hot_path(r) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(hot, f, sort_keys=True)
        os.replace(tmp, self._hot_path(r))

    def _hot_next(self, host_counts: dict) -> dict:
        out = {}
        for h, c in host_counts.items():
            n = salt_count_for(c, self.cfg.host_skew_threshold, self._n_salt)
            if n > self._n_salt:
                out[h] = n
        return out

    @property
    def _n_salt(self) -> int:
        """The global host-salt base (``extra["host_salt"]``)."""
        return max(1, int(self.cfg.extra.get("host_salt", 1)))

    def _politeness_kwargs(self) -> dict:
        """The budget and routing arguments every offer and round task
        shares."""
        cfg = self.cfg
        return dict(
            round_ms=cfg.round_ms,
            default_delay_ms=cfg.default_crawl_delay_ms,
            max_per_host=cfg.max_per_host_round,
            n_salt=self._n_salt,
            cutoff_handles=self.cutoff_pool.handles,
        )

    def _backfill_offers(self, r: int) -> None:
        """Offer round ``r``'s frontier to the politeness cutoffs — needed
        at bootstrap and at resume, where the producing round's offers
        are gone with the old process. The same task fan-out as a round,
        over the thin frontier columns; everything is re-derived
        deterministically."""
        fan_out(offer_task, self._round_items(r), robots_ref=self.robots_ref,
                round_no=r, hot=self._load_hot(r), **self._politeness_kwargs())

    def _set_errors(self, r: int, hosts, error_classes) -> None:
        """Fold round ``r``'s fetch-error hosts into per-host (timeout,
        rate_limit) counts and SET them on every cutoff shard, the error
        backoff signal for round r+1's budgets."""
        rl = np.asarray(error_classes, dtype=object) == "rate_limit"
        handles = self.cutoff_pool.handles
        per_shard = errors_by_shard(np.asarray(hosts, dtype=object), rl, len(handles))
        # an authoritative overwrite: shards with no errors are set too
        ray.get([h.set_errors.remote(r, per_shard.get(j, {}))
                 for j, h in enumerate(handles)])

    def _backfill_errors(self, r: int) -> None:
        """Re-derive round ``r``'s fetch errors from its committed output
        and set them (resume / shard-restart path for error backoff)."""
        src = self._p("rounds", f"round_{r:05d}")
        if r < 0 or not os.path.exists(src):
            return
        # only page rows carry a status: carry/discovered rows filter out
        t = pads.dataset(src, format="parquet").to_table(
            columns=["host", "error_class"], filter=pc.field("status") == STATUS_ERROR
        )
        self._set_errors(r, t["host"].to_pylist(), t["error_class"].to_pylist())

    # --- incremental ingest (watch mode — the WS-push analog of
    #     websocket_scheduler.go:110-130: newly published pages are picked
    #     up at the next round boundary without restarting the run) -------
    def _processed_watch_files(self) -> set:
        import glob as _glob
        import json

        out: set = set()
        for mf in _glob.glob(self._p("ingest", "*", "*", "_MANIFEST.json")):
            with open(mf) as f:
                out |= set(json.load(f))
        return out

    def ingest_new_pages(self, r: int) -> int:
        """Scan ``extra["watch_dir"]`` for pushed files not yet consumed.
        Three push CHANNELS mirror the reference's three WebSocket
        subscription types (``websocket_listener.go:119-196``), routed
        by subdirectory:

        - ``<watch_dir>/*.parquet`` or ``<watch_dir>/pages/`` — full
          page payloads (the ``newHeads`` analog): rows are appended to
          the fetch index (per-bucket files — restarted store shards
          re-read them for free), loaded into the resident store
          shards, seen-claimed and written as frontier rows.
        - ``<watch_dir>/urls/`` — URL-only announcements (the
          ``newPendingTransactions`` analog: a unit id whose payload
          may not exist yet): seen-claimed + frontier rows ONLY — no
          index/store write; if the payload never arrives the fetch
          fails through the normal attempts/skip retry machinery.
          Columns: ``url`` (+ optional ``priority:int32``).
        - ``<watch_dir>/logs/`` — externally-published event rows (the
          filtered ``logs`` subscription analog): rows matching
          ``extra["watch_log_event_types"]`` (a list; None = all) are
          committed under ``external/round_r/batch_k/`` — they never
          touch the frontier.

        Frontier rows land in ingest/round_r/batch_k/; new candidates
        are offered to the politeness cutoffs. Returns the number of
        new frontier rows. Driver-side work is bounded by the pushed
        batch size (the reference handles one block per WS message; a
        push batch is the analog)."""
        import glob as _glob
        import json

        cfg = self.cfg
        wd = cfg.extra.get("watch_dir")
        if not wd or not os.path.isdir(wd):
            return 0
        processed = self._processed_watch_files()

        def _new(pattern: str) -> list[str]:
            return sorted(
                f
                for f in _glob.glob(os.path.join(wd, pattern))
                if os.path.relpath(f, wd) not in processed
            )

        files = _new("*.parquet") + _new(os.path.join("pages", "*.parquet"))
        url_files = _new(os.path.join("urls", "*.parquet"))
        log_files = _new(os.path.join("logs", "*.parquet"))
        if not files and not url_files and not log_files:
            return 0
        # round r-1 must be complete (lineage _COMPLETE) before any of
        # round r's ingest lands: a crash then resumes at round r or later
        # and replays this ingest as round r's claims, never at r-1, whose
        # re-run would admit the ingested URLs again as discovered rows
        self._join_bg()

        # A malformed external push must never wedge the watch loop: the
        # reference WS listener logs-and-continues on a bad message
        # (websocket_listener.go), and consumer.py dead-letters the same
        # poison case after MaxDeliver. Each channel validates PER FILE;
        # an unreadable / schema-broken file is quarantined — recorded in
        # the batch manifest (so it is never re-scanned) plus a
        # _REJECTED.json error map for the operator (ADVICE r04).
        rejected: dict[str, str] = {}
        _PUSH_ERRORS = (KeyError, ValueError, OSError, pa.ArrowInvalid,
                        pa.ArrowNotImplementedError, pa.ArrowTypeError)

        def _quarantine(path: str, err: Exception) -> None:
            import logging

            rel = os.path.relpath(path, wd)
            rejected[rel] = f"{type(err).__name__}: {err}"
            logging.getLogger(__name__).warning(
                "quarantined pushed file %s: %s", rel, rejected[rel]
            )

        def _read_push(path: str, required: tuple[str, ...]) -> pa.Table:
            t = pq.read_table(path)
            for col in required:
                if col not in t.schema.names:
                    raise KeyError(
                        f"pushed file missing required column {col!r}"
                    )
            if "url" in required and not pa.types.is_string(
                t.schema.field("url").type
            ) and not pa.types.is_large_string(t.schema.field("url").type):
                raise ValueError(
                    f"pushed url column has non-string type "
                    f"{t.schema.field('url').type}"
                )
            return t

        tables = []
        files_by_bucket: dict[int, list[str]] = {}
        batch_no = len(_glob.glob(self._p("ingest", f"round_{r:05d}", "batch_*")))
        tag = f"r{r:05d}b{batch_no}"
        for fi, path in enumerate(files):
            try:
                # pages payloads feed the fetch index: the store shards
                # read (url, warc_ts, html, lang) from every index file,
                # so all four are required — a file missing one would
                # poison every later store load, not just this batch
                t = _read_push(path, ("url", "warc_ts", "html", "lang"))
                # the frontier build casts warc_ts→int64: validate now so
                # a bad file is quarantined instead of poisoning the
                # per-file frontier build below
                t["warc_ts"].combine_chunks().cast(pa.int64())
            except _PUSH_ERRORS as e:
                _quarantine(path, e)
                continue
            tables.append(t)
            # append to the fetch index under deterministic names
            buckets = url_owner(hash_strings(t["url"]), cfg.n_fetch_buckets)
            for b in np.unique(buckets):
                dest_dir = os.path.join(cfg.index_dir, f"bucket={b}")
                os.makedirs(dest_dir, exist_ok=True)
                dest = os.path.join(dest_dir, f"ingest_{tag}_f{fi}.parquet")
                if not os.path.exists(dest):
                    tmp = dest + ".tmp"
                    pq.write_table(t.filter(pa.array(buckets == b)), tmp)
                    os.replace(tmp, dest)
                files_by_bucket.setdefault(int(b), []).append(dest)
        self.store.load_new_files(files_by_bucket)

        def _frontier_rows(url_list, ts_us: np.ndarray | None,
                           prio: np.ndarray | None) -> pa.Table:
            """Normalized frontier rows for THIS round (depth r,
            deterministic — warc_ts from the push or epoch 0)."""
            urls, hosts, ok = normalize_many(url_list)
            return frontier_table(urls[ok], hosts[ok], 0 if prio is None else prio[ok],
                                  r, 0 if ts_us is None else ts_us[ok])

        fts = []
        # pages channel (newHeads analog): payload + frontier. Frontier
        # rows build PER FILE — concatenating whole pushed tables would
        # reintroduce the cross-file poison the quarantine just removed
        # (two individually-valid files with divergent payload schemas
        # crash a plain concat); _frontier_rows output is always the
        # fixed FRONTIER schema, so the fts concat below is safe.
        for t in tables:
            # fill nulls BEFORE the numpy cast (same rule as the urls
            # channel's priority): a null warc_ts would silently become
            # INT64_MIN and jump the row to an extreme of the frontier
            # ordering (warc_ts is the comparator's third key)
            fts.append(_frontier_rows(
                t["url"].to_pylist(),
                np.asarray(
                    pc.fill_null(
                        t["warc_ts"].combine_chunks().cast(pa.int64()), 0
                    ).to_pandas(),
                    dtype=np.int64,
                ),
                None,
            ))
        for path in url_files:
            # urls channel (newPendingTransactions analog): frontier only
            try:
                t = _read_push(path, ("url",))
                prio = None
                if "priority" in t.schema.names:
                    # fill nulls BEFORE the numpy cast: NaN→int32 silently
                    # becomes INT32_MIN, which would jump the announcement
                    # to an extreme of the frontier ordering (priority is
                    # the comparator's first key) instead of the default 0
                    prio = np.asarray(
                        pc.fill_null(pc.cast(t["priority"].combine_chunks(),
                                             pa.int32()), 0).to_pandas(),
                        dtype=np.int32,
                    )
            except _PUSH_ERRORS as e:
                _quarantine(path, e)
                continue
            fts.append(_frontier_rows(t["url"].to_pylist(), None, prio))
        ft = (pa.concat_tables(fts) if fts
              else pa.table({f.name: pa.nulls(0, f.type) for f in FRONTIER},
                            schema=FRONTIER))
        hashes = np.asarray(ft["url_hash"].to_pandas(), dtype=np.uint64)
        novel = self.seen.check_and_insert(hashes)
        ft = ft.filter(pa.array(novel))

        # logs channel (filtered logs-subscription analog): externally
        # published event rows committed per ingest batch, never frontier
        if log_files:
            kinds = cfg.extra.get("watch_log_event_types")
            lts = []
            for path in log_files:
                try:
                    t = pq.read_table(path)
                    if kinds is not None and "event_type" not in t.schema.names:
                        # a configured filter with no column to filter on
                        # would silently pass EVERY row — quarantine the
                        # file instead of wedging the loop (ADVICE r04)
                        raise KeyError(
                            "watch_log_event_types is configured but the "
                            "pushed logs file has no event_type column"
                        )
                except _PUSH_ERRORS as e:
                    _quarantine(path, e)
                    continue
                lts.append(t)
            # permissive promote: pushers evolve their log schema; a
            # missing column in one file must null-fill, not poison the
            # watch loop with an ArrowInvalid on every restart
            lt = (pa.concat_tables(lts, promote_options="permissive")
                  if lts else pa.table({}))
            if kinds is not None and len(lt):
                keep = np.isin(
                    np.asarray(lt["event_type"].to_pandas(), dtype=object),
                    np.asarray(list(kinds), dtype=object),
                )
                lt = lt.filter(pa.array(keep))
            if len(lt):
                _commit(self._p("external", f"round_{r:05d}", f"batch_{batch_no}"), lt)
            # all-filtered batch: the manifest alone marks the files
            # processed — an empty committed dir would only break
            # external_events_output's parquet read

        def _manifest(tmp: str) -> None:
            with open(os.path.join(tmp, "_MANIFEST.json"), "w") as f:
                # quarantined files are manifest-marked too: processed
                # means "never re-scan", which is exactly the poison-pill
                # contract
                json.dump(
                    sorted(os.path.relpath(p, wd)
                           for p in (*files, *url_files, *log_files)),
                    f,
                )
            if rejected:
                with open(os.path.join(tmp, "_REJECTED.json"), "w") as f:
                    json.dump(rejected, f)

        _commit(self._p("ingest", f"round_{r:05d}", f"batch_{batch_no}"),
                ft if len(ft) else None, fill=_manifest)
        # new frontier files for this round → re-plan it
        self._fplan_cache.pop(r, None)

        if len(ft):
            offer_candidates(ft.to_pandas(), robots=self._robots, round_no=r,
                             hot=self._load_hot(r), **self._politeness_kwargs())
        return len(ft)

    # --- one round --------------------------------------------------------
    def run_round(self, r: int) -> dict:
        """ONE task fan-out per round: each round_task reads its frontier
        spans, runs round_step and writes its part of the round table
        (stages/roundstep.py); the round commits by one rename, and only
        if the tasks read every frontier row. → stats: ``t_main`` times
        submit → commit; ``stage_s`` sums the ``tasks`` tasks' stage
        seconds; ``rows`` counts the frontier rows read."""
        cfg = self.cfg
        t0 = time.perf_counter()
        rounds_dir = self._p("rounds", f"round_{r:05d}")
        n_frontier = self._frontier_count(r)

        if self.cutoff_pool.consume_fresh():
            # a cutoff shard restarted: its buffered offers for this
            # round are gone; drop the round's offer state on ALL shards
            # and re-derive it deterministically from the frontier
            self.cutoff_pool.drop_round(r)
            self._backfill_offers(r)
            if self.cfg.extra.get("error_backoff"):
                self._backfill_errors(r - 1)
        hot_r = self._load_hot(r)
        # shard-resident collect (r04 verdict #3): cutoffs stay on their
        # shards; the driver sees one count per shard plus the hot-host
        # subset (flat in active-host count), and fetches the cutoffs
        # only when they are few enough to broadcast
        n_cutoffs, hot_counts = self.cutoff_pool.finalize(
            r, cfg.host_skew_threshold, self._n_salt
        )
        hot_next = self._hot_next(hot_counts)
        self._save_hot(r + 1, hot_next)  # persisted BEFORE the round runs
        cutoff_pull = n_cutoffs > MAX_CUTOFF_BROADCAST
        cutoffs_ref = ray.put(
            {} if cutoff_pull else self.cutoff_pool.fetch_ready(r)
        )
        kwargs = dict(
            round_no=r,
            cutoffs_ref=cutoffs_ref,
            cutoff_pull=cutoff_pull,
            hot_gate=hot_r,
            hot_offer=hot_next,
            robots_ref=self.robots_ref,
            store_handles=self.store.handles,
            seen_handles=self.seen.handles,
            max_retries=cfg.max_retries,
            skip_rounds=cfg.skip_rounds,
            error_permille=int(cfg.extra.get("error_permille", 0)),
            enrich=bool(cfg.extra.get("enrich", False)),
            **self._politeness_kwargs(),
        )
        items = self._round_items(r)

        def fill(tmp: str) -> list[dict]:
            res = fan_out(round_task, items, out_dir=tmp, **kwargs)
            rows = sum(x["rows"] for x in res)
            if rows != n_frontier:
                raise RuntimeError(
                    f"round {r}: the tasks read {rows} of {n_frontier} frontier rows")
            return res

        t_m0 = time.perf_counter()
        res = _commit(rounds_dir, fill=fill)
        t_main = time.perf_counter() - t_m0
        if cfg.extra.get("error_backoff"):
            self._set_errors(r, [h for x in res for h in x["error_hosts"]],
                             [c for x in res for c in x["error_classes"]])
        # every task returned + output committed → claim logs for
        # this round can never be replayed again; the shards chain their
        # lineage digests over the round's admitted claims
        t_c0 = time.perf_counter()
        digests = self.seen.end_round(r)
        t_ckpt = time.perf_counter() - t_c0

        lin_counts = self.cutoff_pool.collect_lineage([x["lineage"] for x in res])

        # next-frontier size from file metadata (cheap, needed now for the
        # loop decision)
        n_next = self._frontier_count(r + 1)

        # events + lineage only read the committed rounds dir — overlap
        # them with the next round's execution (1-deep: joined before the
        # following round's bookkeeping, and at run() end)
        wall = time.perf_counter() - t0

        def _post():
            try:
                self._write_events(r, rounds_dir)
                self._write_health(r)
                self._lineage(r, lin_counts, digests, wall)
            except BaseException as e:  # surfaced by the next _join_bg
                self._bg_exc = e

        self._join_bg()
        import threading

        self._bg = threading.Thread(target=_post, daemon=False)
        self._bg.start()
        return {
            "round": r,
            "next_frontier": n_next,
            "wall_s": wall,
            "t_main": round(t_main, 2),
            "t_ckpt": round(t_ckpt, 2),
            "tasks": len(items),
            "rows": sum(x["rows"] for x in res),
            "stage_s": {k: sum(x["stage_s"][k] for x in res) for k in STAGES},
        }

    def _join_bg(self) -> None:
        if self._bg is not None:
            self._bg.join()
            self._bg = None
            exc, self._bg_exc = self._bg_exc, None
            if exc is not None:
                raise RuntimeError(
                    "background events/lineage write failed"
                ) from exc

    def _write_events(self, r: int, rounds_dir: str) -> None:
        """Events projection — written only after the rounds-dir rename
        (the publish-after-DB-success gating mirror,
        crawler_service.go:592-607). Per-round events are bounded by the
        round's fetch budget, so a driver-side pyarrow write. Carry and
        discovered rows have null status, so the status filter selects
        page rows only."""
        page_dir = os.path.join(rounds_dir, "row_kind=page")
        src = page_dir if os.path.exists(page_dir) else rounds_dir
        t = pads.dataset(src, format="parquet").to_table(
            columns=["url", "url_hash", "host", "page_ts", "n_bytes", "lang"],
            filter=pc.field("status") == STATUS_FETCHED,
        )
        ev = pa.table(
            {
                "url": t["url"],
                "url_hash": t["url_hash"],
                "host": t["host"],
                "warc_ts": t["page_ts"],
                "n_bytes": t["n_bytes"],
                "lang": t["lang"],
                "round": pa.array(np.full(len(t), r, dtype=np.int32)),
            }
        )
        _commit(self._p("events", f"round_{r:05d}"), ev)

    def _write_health(self, r: int) -> None:
        """Per-round component-health rows — the SystemHealth analog
        (``crawler_metrics.go:46-68``; reconnect-on-failure
        ``crawler_service.go:822-861``): one row per (component, logical
        shard) with its reconstruction flag and state size, so a cluster
        operator can see which components restarted in which round.
        The roles share pool actors (state/pool.py): the store, seen and
        cutoff rows of shard j come from the same process, so they report
        the same ``reconstructed`` flag and the same process ``cpu_s`` /
        ``rss_kb``. Seen rows also carry the shard's filter load factor
        (items / slots) and the analytic false-positive bound
        ``8·load/2^16`` (2 buckets × 4 slots of 16-bit fingerprints);
        store and cutoff rows read 0 there. Written BEFORE the lineage
        _COMPLETE marker, so every complete round has health rows."""
        comps = [
            ("seen", self.seen.health()),
            ("store", self.store.health()),
            ("cutoff", self.cutoff_pool.health()),
        ]
        comp_col, shard_col, rec_col, items_col = [], [], [], []
        cpu_col, rss_col, load_col = [], [], []
        seen_slots = slots_for(self.cfg.seen_shard_capacity)
        for name, rows in comps:
            for j, h in enumerate(rows):
                comp_col.append(name)
                shard_col.append(j)
                rec_col.append(bool(h["reconstructed"]))
                items_col.append(int(h["items"]))
                cpu_col.append(float(h.get("cpu_s", 0.0)))
                rss_col.append(int(h.get("rss_kb", 0)))
                load_col.append(h["items"] / seen_slots if name == "seen" else 0.0)
        load = np.asarray(load_col, dtype=np.float64)
        t = pa.table(
            {
                "round": pa.array(
                    np.full(len(comp_col), r, dtype=np.int32), type=pa.int32()
                ),
                "component": pa.array(comp_col, type=pa.string()),
                "shard_id": pa.array(
                    np.asarray(shard_col, dtype=np.int32), type=pa.int32()
                ),
                "reconstructed": pa.array(rec_col, type=pa.bool_()),
                "items": pa.array(
                    np.asarray(items_col, dtype=np.int64), type=pa.int64()
                ),
                # resource gauges (crawler_metrics.go:18-43 analog):
                # cumulative actor-process CPU seconds + resident memory
                "cpu_s": pa.array(
                    np.asarray(cpu_col, dtype=np.float64), type=pa.float64()
                ),
                "rss_kb": pa.array(
                    np.asarray(rss_col, dtype=np.int64), type=pa.int64()
                ),
                "load_factor": pa.array(load, type=pa.float64()),
                "fp_bound": pa.array(8 * load / 2**16, type=pa.float64()),
            }
        )
        _commit(self._p("health", f"round_{r:05d}"), t)

    def _lineage(self, r: int, counts: np.ndarray, digests: list[bytes],
                 wall_s: float) -> None:
        cfg = self.cfg
        scheduled, fetched, deferred, failed, errors = counts

        rows = {
            "round": np.full(cfg.n_seen_shards, r, dtype=np.int32),
            "partition_id": np.arange(cfg.n_seen_shards, dtype=np.int32),
            "seen_shard_digest": digests,
            "urls_scheduled": scheduled.astype(np.int64),
            "urls_fetched": fetched.astype(np.int64),
            "urls_deferred": deferred.astype(np.int64),
            "urls_failed": failed.astype(np.int64),
            "errors": errors.astype(np.int64),
            "wall_s": np.full(cfg.n_seen_shards, wall_s, dtype=np.float64),
        }
        lt = pa.table(
            {k: pa.array(v, type=LINEAGE.field(k).type) for k, v in rows.items()},
            schema=LINEAGE,
        )
        d = self._p("lineage", f"round_{r:05d}")
        _commit(d, lt)
        # the round-complete marker lands only after the rename
        with open(os.path.join(d, "_COMPLETE"), "w") as f:
            f.write("ok")

    # --- full run ---------------------------------------------------------
    def run(self, seeds: pa.Table | None = None, max_rounds: int | None = None) -> dict:
        """Crawl to frontier exhaustion (or max_rounds). Resumes after the
        last complete round if one exists."""
        cfg = self.cfg
        self.prepare()
        start = self.last_complete_round() + 1
        # outputs of rounds past the last complete one are re-executed:
        # drop them first, so the seen shards rebuild from complete
        # rounds only (a restarted shard replays the rounds/ on disk)
        r = start
        while os.path.isdir(d := self._p("rounds", f"round_{r:05d}")):
            shutil.rmtree(d)
            r += 1
        if os.path.exists(self._p("frontier", "round_00000")):
            self.seen.load()
        else:
            if seeds is None:
                seeds = pq.read_table(cfg.extra["seeds_path"])
            self.bootstrap(seeds)
        # the resumed/bootstrap round's politeness offers came from an
        # execution that no longer exists — re-derive them
        self._backfill_offers(start)
        if self.cfg.extra.get("error_backoff") and start > 0:
            self._backfill_errors(start - 1)

        limit = max_rounds if max_rounds is not None else cfg.max_rounds
        totals = {"rounds": 0, "fetched": 0, "scheduled": 0, "errors": 0, "failed": 0}
        r = start
        # hybrid fallback (scheduler_service.go:250-263,427-519 analog):
        # with watch mode on, an exhausted frontier does not terminate the
        # run immediately — the loop idles up to watch_idle_rounds poll
        # ticks re-scanning the watch dir, and switches back to crawling
        # the moment pushed pages revive the frontier. The idle wait is
        # pure polling (no state written), so determinism of the outputs
        # is untouched: they remain a function of which files appear.
        idle_limit = int(cfg.extra.get("watch_idle_rounds", 0))
        poll_s = float(cfg.extra.get("watch_poll_s", 0.05))
        idle = 0
        while r < start + limit:
            # watch mode: pick up newly published pages at the round
            # boundary — they can revive an otherwise-empty frontier
            self.ingest_new_pages(r)
            if self._frontier_count(r) == 0:
                if cfg.extra.get("watch_dir") and idle < idle_limit:
                    idle += 1
                    time.sleep(poll_s)
                    continue
                break
            idle = 0
            self.run_round(r)
            totals["rounds"] += 1
            r += 1
        self._join_bg()
        totals["last_round"] = r - 1
        if totals["rounds"]:
            # rounds defer their counting to the background lineage
            # writer — aggregate from the lineage checkpoints
            lin = pads.dataset(self._p("lineage"), format="parquet").to_table(
                columns=["round", "urls_scheduled", "urls_fetched", "urls_failed", "errors"]
            ).to_pandas()
            lin = lin[(lin["round"] >= start) & (lin["round"] <= totals["last_round"])]
            totals["scheduled"] = int(lin["urls_scheduled"].sum())
            totals["fetched"] = int(lin["urls_fetched"].sum())
            totals["failed"] = int(lin["urls_failed"].sum())
            totals["errors"] = int(lin["errors"].sum())
        return totals


def pages_output(out_dir: str) -> rd.Dataset:
    """The stored-pages dataset (analog of reading the transactions
    collection): fetched rows across all rounds."""
    return rd.read_parquet(
        os.path.join(out_dir, "rounds"),
        filter=(pc.field("status") == STATUS_FETCHED),
    )


def events_output(out_dir: str) -> rd.Dataset:
    return rd.read_parquet(os.path.join(out_dir, "events"))


def lineage_output(out_dir: str) -> rd.Dataset:
    return rd.read_parquet(os.path.join(out_dir, "lineage"))


def health_output(out_dir: str) -> rd.Dataset:
    return rd.read_parquet(os.path.join(out_dir, "health"))


def external_events_output(out_dir: str) -> rd.Dataset:
    """Rows pushed through the watch-mode ``logs/`` channel (the
    filtered logs-subscription analog), committed per ingest batch."""
    return rd.read_parquet(os.path.join(out_dir, "external"))
