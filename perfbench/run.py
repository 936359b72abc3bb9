#!/usr/bin/env python3
"""The repository benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload crawl-polite --seed 1 --seconds 15 --trace 0

``BENCHMARK.json`` lists ``crawl-polite`` and ``queries``; ``crawl-bulk``
runs by hand (``perfbench/README.md`` says why it is not listed).

Run it from the repository root. It builds its inputs from ``--seed``
under ``.bench_work/`` and removes them at the end, starts a 2-CPU Ray
session, measures a closed loop of ops (crawl rounds or queries) over
at least three crawls or query passes and at least ``--seconds`` of
measured time, checks every op's output after the timed window, and
prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` a separate
traced run's per-layer metrics (and writes its spans next to the work
dir as ``.bench_work/trace-<workload>-<seed>.json``). See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = "ethereum_raw_data_crawler_ray"
WORKLOADS = ("crawl-bulk", "crawl-polite", "queries")
MAX_REPS = 6
# Every op's deadline is cut to what is left of this budget, so a run
# ends, shut-down included, inside the 180 s a run may take.
RUN_BUDGET_S = 150.0
# A repetition (a crawl, a query pass) starts only with this much left.
REP_RESERVE_S = 60.0

E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "rss_mb": "MB",
}


def per_layer_names() -> list[tuple[str, str]]:
    from benchlib.queries import QUERY_NAMES

    names = [
        ("functions.extract_us_per_page", "us"),
        ("functions.enrich_us_per_page", "us"),
        ("stages.roundstep.self_s", "s"),
        ("stages.roundstep.cpu_s", "s"),
        ("stages.roundstep.frontier_rows", "count"),
        ("stages.roundstep.fetched_rows", "count"),
        ("stages.roundstep.carry_rows", "count"),
        ("stages.roundstep.discovered_rows", "count"),
        ("stages.roundstep.carry_ratio", "ratio"),
        ("state.store.wait_ready_s", "s"),
        ("state.store.fetch_us_per_url", "us"),
        ("state.store.cpu_s", "s"),
        ("state.store.rss_mb", "MB"),
        ("state.politeness.finalize_calls", "count"),
        ("state.politeness.finalize_s", "s"),
        ("state.politeness.fetch_ready_calls", "count"),
        ("state.politeness.fetch_ready_s", "s"),
        ("state.politeness.collect_lineage_calls", "count"),
        ("state.politeness.collect_lineage_s", "s"),
        ("state.politeness.cpu_s", "s"),
        ("state.seen.save_s", "s"),
        ("state.seen.digests_s", "s"),
        ("state.seen.load_s", "s"),
        ("state.seen.claim_us_per_url", "us"),
        ("state.seen.novel_ratio", "ratio"),
        ("state.seen.cpu_s", "s"),
        ("state.seen.rss_mb", "MB"),
        ("pipelines.crawl.prepare_s", "s"),
        ("pipelines.crawl.round_main_s", "s"),
        ("pipelines.crawl.round_ckpt_s", "s"),
        ("pipelines.crawl.round_driver_s", "s"),
        ("pipelines.crawl.round_p50_s", "s"),
        ("pipelines.crawl.round_tail_s", "s"),
        ("pipelines.crawl.resume_s", "s"),
        ("stages.query.queries_s", "s"),
        ("stages.query.p50_s", "s"),
    ]
    for q in QUERY_NAMES:
        short = q.split("_")[0]
        names += [(f"stages.query.{short}.plan_s", "s"), (f"stages.query.{short}.exec_s", "s")]
    names += [
        ("stages.query.cpu_s", "s"),
        ("runtime.ray_start_s", "s"),
        ("runtime.cpu_ms_per_item", "ms"),
        ("runtime.daemons_cpu_s", "s"),
        ("runtime.driver_cpu_s", "s"),
        ("runtime.reaped_cpu_s", "s"),
        ("host.steal_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.items_per_s", "items/s"),
        ("trace.span_cost_s", "s"),
    ]
    return names


class Run:
    """State of one benchmark run, shared by the workload drivers."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        from benchlib.procfs import TreeMonitor
        from benchlib.stats import OpLog
        from benchlib.trace import Tracer

        self.workload = workload
        self.root = ROOT
        self.work = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer(enabled=trace)
        self.monitor = TreeMonitor()
        self.log = OpLog()
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.layer_cpu: dict[str, float] = {}
        self.probe: dict[str, float] = {}
        self.rows: list[dict] = []
        self.round_stats: list[dict] = []
        self.ray_start_s = 0.0
        self.windows: list[tuple[float, float]] = []  # measured windows
        self.phases: list[tuple[str, float]] = []
        self.notes: dict = {}

    def remaining(self) -> float:
        return T_START + RUN_BUDGET_S - time.perf_counter()

    def deadline(self, seconds: float):
        """An op's deadline, cut to the run's remaining budget."""
        from benchlib.session import deadline

        return deadline(min(seconds, self.remaining()))

    def more_reps(self, measured_s: float, done: int) -> bool:
        """Whether to start another repetition of the workload."""
        return (measured_s < self.seconds and done < MAX_REPS
                and self.remaining() > REP_RESERVE_S)

    def phase(self, name: str) -> None:
        """Note the end of a phase of the run (seconds since start)."""
        self.phases.append((name, round(time.perf_counter() - T_START, 2)))

    def record_e2e(self, *, setup_s, items_per_s, rss_kb=None):
        """``rss_kb`` defaults to the peak over the whole run."""
        rss_kb = self.monitor.peak_kb if rss_kb is None else rss_kb
        self.e2e.update(setup_s=setup_s, items_per_s=items_per_s, rss_mb=rss_kb / 1024)

    def probe_functions(self, pages_path: str) -> None:
        """Time the per-page kernels on the first pages of the corpus,
        called directly in this process (median of three)."""
        import pyarrow.parquet as pq

        from ethereum_raw_data_crawler_ray.functions.extract import extract_batch
        from ethereum_raw_data_crawler_ray.functions.textstats import enrich_batch

        from benchlib.crawl import PROBE_PAGES
        from benchlib.stats import median

        html = pq.read_table(pages_path, columns=["html"])["html"].to_pylist()[:PROBE_PAGES]
        ext, enr = [], []
        for _ in range(3):
            t0 = time.perf_counter()
            texts, _links = extract_batch(html)
            t1 = time.perf_counter()
            enrich_batch(list(texts), n_bands=4)
            t2 = time.perf_counter()
            ext.append((t1 - t0) / len(html) * 1e6)
            enr.append((t2 - t1) / len(html) * 1e6)
        self.probe["functions.extract_us_per_page"] = median(ext)
        self.probe["functions.enrich_us_per_page"] = median(enr)


def install_spans(run: Run) -> None:
    """Traced run: spans around the layers' public calls."""
    import ray.data

    from ethereum_raw_data_crawler_ray.state.politeness import CutoffPool
    from ethereum_raw_data_crawler_ray.state.seen import ActorSeenSet
    from ethereum_raw_data_crawler_ray.state.store import ActorPageStore

    t = run.tracer
    for attr in ("finalize", "fetch_ready", "collect_lineage"):
        t.wrap(CutoffPool, attr, f"state.politeness.{attr}")
    for attr in ("save", "digests", "load", "end_round"):
        t.wrap(ActorSeenSet, attr, f"state.seen.{attr}")
    t.wrap(ActorPageStore, "wait_ready", "state.store.wait_ready")

    def write_name():
        inside_round = t.current() in ("pipelines.crawl.run_round", "pipelines.crawl.run")
        return "stages.roundstep" if inside_round else "ray.data.write_parquet"

    t.wrap(ray.data.Dataset, "write_parquet", write_name)


def span_cost_s(n_spans: int) -> float:
    """Measured cost of recording ``n_spans`` spans in this process."""
    from benchlib.trace import Tracer

    t = Tracer()
    k = 20_000
    t0 = time.perf_counter()
    for _ in range(k):
        with t.span("x"):
            pass
    return (time.perf_counter() - t0) / k * n_spans


def layer_metrics(run: Run) -> dict[str, float]:
    """Every per-layer metric; a layer the workload does not run reads 0."""
    st = run.tracer.self_times()
    out = {name: 0.0 for name, _ in per_layer_names()}
    out.update(run.probe)
    out.update({k: v for k, v in run.layer.items() if k in out})

    def total(name, key="total_s"):
        return st.get(name, {}).get(key, 0.0)

    for attr in ("finalize", "fetch_ready", "collect_lineage"):
        out[f"state.politeness.{attr}_calls"] = total(f"state.politeness.{attr}", "calls")
        out[f"state.politeness.{attr}_s"] = total(f"state.politeness.{attr}")
    for attr in ("save", "digests", "load"):
        out[f"state.seen.{attr}_s"] = total(f"state.seen.{attr}")
    out["state.store.wait_ready_s"] = total("state.store.wait_ready")
    out["stages.roundstep.self_s"] = total("stages.roundstep", "self_s")
    out["pipelines.crawl.prepare_s"] = total("pipelines.crawl.prepare")
    out["pipelines.crawl.round_driver_s"] = total("pipelines.crawl.run_round", "self_s")
    out["pipelines.crawl.round_main_s"] = sum(s.get("t_main", 0.0) for s in run.round_stats)
    out["pipelines.crawl.round_ckpt_s"] = sum(s.get("t_ckpt", 0.0) for s in run.round_stats)
    if run.rows:
        sums = {k: sum(sum(r[k]) for r in run.rows) for k in run.rows[0] if k != "outlinks"}
        for k in ("frontier", "fetched", "carry", "discovered"):
            out[f"stages.roundstep.{k}_rows"] = sums[k] / len(run.rows)
        out["stages.roundstep.carry_ratio"] = sums["carry"] / max(1, sums["frontier"])
        links = sum(sum(r["outlinks"]) for r in run.rows)
        out["state.seen.novel_ratio"] = sums["discovered"] / max(1, links)
    cpu = run.layer_cpu
    crawl = run.workload.startswith("crawl")
    out["stages.roundstep.cpu_s" if crawl else "stages.query.cpu_s"] = cpu.get("workers", 0.0)
    for g in ("state.store", "state.politeness", "state.seen"):
        out[f"{g}.cpu_s"] = cpu.get(g, 0.0)
    for g in ("state.store", "state.seen"):
        out[f"{g}.rss_mb"] = run.monitor.peak_group_kb.get(g, 0) / 1024
    out["runtime.ray_start_s"] = run.ray_start_s
    out["runtime.daemons_cpu_s"] = cpu.get("daemons", 0.0)
    out["runtime.driver_cpu_s"] = cpu.get("driver", 0.0)
    out["runtime.reaped_cpu_s"] = cpu.get("reaped", 0.0)
    out["host.steal_s"] = run.steal
    out["trace.unattributed_s"] = sum(run.tracer.unattributed(a, b) for a, b in run.windows)
    out["trace.items_per_s"] = run.e2e.get("items_per_s", 0.0)
    out["trace.span_cost_s"] = span_cost_s(len(run.tracer.spans))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, PACKAGE, "__init__.py")):
        print(f"perfbench: the engine package {PACKAGE}/ is not next to perfbench/ "
              f"in {ROOT}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)

    from benchlib import crawl, procfs, queries, session

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(run.work, exist_ok=True)
    if run.tracer.enabled:
        install_spans(run)
    steal0 = procfs.steal_s()
    run.monitor.start()
    try:
        if args.workload == "queries":
            queries.run_workload(run)
        else:
            crawl.run_workload(run, crawl.BULK if args.workload == "crawl-bulk" else crawl.POLITE)
    except Exception as e:  # reported as a failed op, not a crash
        run.log.add("workload", 0.0, session.describe(e))
    finally:
        run.steal = procfs.steal_s() - steal0
        session.stop_ray(ROOT)
        run.monitor.stop()
        run.tracer.restore()
        run.phase("shutdown")

    complete = set(E2E_UNITS) <= set(run.e2e)
    if run.tracer.enabled:
        units = dict(per_layer_names())
        values = layer_metrics(run)
        with open(os.path.join(ROOT, ".bench_work", f"trace-{args.workload}-{args.seed}.json"), "w") as f:
            json.dump({"spans": [sp.__dict__ for sp in run.tracer.spans],
                       "self_times": run.tracer.self_times(), "rows": run.rows}, f)
    else:
        units = E2E_UNITS
        values = run.e2e
    shutil.rmtree(run.work, ignore_errors=True)
    summary = {
        "workload": args.workload, "seed": args.seed, "fail_ratio": run.log.fail_ratio,
        "notes": run.notes, "steal_s": run.steal,
        "ray_start_s": run.ray_start_s, "errors": run.log.errors()[:10],
        "op_walls": [round(op.wall_s, 3) for op in run.log.ops], "phases": run.phases,
    }
    print(json.dumps(summary), file=sys.stderr)
    if run.log.attempted == 0:
        run.log.add("workload", 0.0, "no op was issued")
    result = {
        "correct": complete and run.log.failed == 0,
        "attempted": run.log.attempted,
        "failed": run.log.failed,
        "metrics": {k: {"value": float(values.get(k, 0.0)), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
