"""The ``queries`` workload: the twelve queries ``bench.py`` times, run
back to back in passes over fixed tables, each pass in a seeded order.

The ten oracled queries are compared with DuckDB through
``oracle_check.compare``; the two row-only ones (``q26``, ``q27``) must
give the same output digest in every pass as in the warm-up pass.
The throughput times each query by the fastest of its passes.
"""

from __future__ import annotations

import hashlib
import os
import random
import time

from .stats import median

QUERY_NAMES = (
    "q01_pricing_summary", "q10_revenue_by_nation", "q20_exact_dedup",
    "q26_minhash_pairs", "q28_knn_brute", "q31_window_tumbling",
    "q44_asof_join", "q46_percentiles", "q52_inverted_index",
    "q55_jaccard_pairs", "q64_connected_components", "q27_dedup_groups",
)
QUERY_DEADLINE_S = 60.0
# Passes per run at least: the throughput takes each query's fastest
# wall over the passes, so a query slowed by the host in one or two
# passes does not move it.
MIN_PASSES = 3
# The tables stand in for the repository's fixed sf tables, so they are
# the same in every run; the benchmark seed permutes the query order.
TABLES_SEED = 42


def digest(df) -> str:
    from ethereum_raw_data_crawler_ray.pipelines.oracle_check import canon

    return hashlib.sha256(canon(df).to_csv(index=False).encode()).hexdigest()


def expected_frames(sf_dir: str, cache_dir: str) -> dict:
    """DuckDB's answers to the oracled queries on the tables in
    ``sf_dir``. Computing them takes about 5 s and the tables are the
    same in every run, so they are kept in ``cache_dir`` under a digest
    of the tables' bytes, the SQL and the oracle's source: a change to
    any of them misses."""
    import pandas as pd

    from ethereum_raw_data_crawler_ray.pipelines import oracle_check
    from ethereum_raw_data_crawler_ray.pipelines.queries import ORACLE_SQL

    oracled = [q for q in QUERY_NAMES if q in ORACLE_SQL]
    h = hashlib.sha256()
    with open(oracle_check.__file__, "rb") as fh:
        h.update(fh.read())
    for root, dirs, files in os.walk(sf_dir):
        dirs.sort()
        for f in sorted(files):
            path = os.path.join(root, f)
            h.update(os.path.relpath(path, sf_dir).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    for q in oracled:
        h.update(f"{q}\0{ORACLE_SQL[q]}\0".encode())
    path = os.path.join(cache_dir, f"oracle-{h.hexdigest()[:20]}.pkl")
    if os.path.exists(path):
        return pd.read_pickle(path)
    con = oracle_check.oracle_connect(sf_dir)
    expected = {q: con.execute(ORACLE_SQL[q]).fetchdf() for q in oracled}
    con.close()
    tmp = f"{path}.{os.getpid()}.tmp"
    pd.to_pickle(expected, tmp)
    os.replace(tmp, path)
    return expected


def _one(run, sf_dir: str, name: str, timed: bool):
    """→ (plan seconds, execution seconds, output frame) for one query;
    raises on failure or deadline."""
    from ethereum_raw_data_crawler_ray.pipelines.oracle_check import to_pandas
    from ethereum_raw_data_crawler_ray.pipelines.queries import QUERIES

    with run.deadline(QUERY_DEADLINE_S), run.tracer.span(f"stages.query.{name}" if timed else "warmup"):
        t0 = time.perf_counter()
        plan = QUERIES[name](sf_dir)
        t1 = time.perf_counter()
        df = to_pandas(plan)
        t2 = time.perf_counter()
    return t1 - t0, t2 - t1, df


def run_workload(run) -> None:
    from ethereum_raw_data_crawler_ray.pipelines.oracle_check import compare

    from . import tables
    from .session import describe, start_ray
    from .stats import tail_percentile

    sf_dir = tables.generate(os.path.join(run.work, "tables"), TABLES_SEED)
    expected = expected_frames(sf_dir, os.path.dirname(run.work))
    run.phase("inputs")
    if run.tracer.enabled:
        from ethereum_raw_data_crawler_ray.testdata import ensure_corpus

        from .crawl import PROBE_PAGES

        corpus = ensure_corpus(PROBE_PAGES, n_hosts=100, n_seeds=10, seed=run.seed,
                               min_words=60, max_words=180,
                               base_dir=os.path.join(run.work, "corpus"))
        run.probe_functions(corpus + "/pages.parquet")

    order = random.Random(run.seed)
    setup0 = start_ray(run.root)
    run.ray_start_s = setup0
    run.phase("ray")
    # warm-up: the first executions mostly measure worker spawn
    t0 = time.perf_counter()
    reference = {}
    for name in order.sample(QUERY_NAMES, len(QUERY_NAMES)):
        _, _, df = _one(run, sf_dir, name, timed=False)
        if name not in expected:
            reference[name] = digest(df)
    warmup = time.perf_counter() - t0
    run.phase("warmup")

    passes: list[float] = []
    walls: list[float] = []
    per_query: dict[str, list[tuple[float, float]]] = {q: [] for q in QUERY_NAMES}
    cpu = 0.0
    ok = True
    while ok and (len(passes) < MIN_PASSES or run.more_reps(sum(passes), len(passes))):
        mark = run.monitor.mark()
        t_pass = time.perf_counter()
        total = 0.0
        outputs = []
        for name in order.sample(QUERY_NAMES, len(QUERY_NAMES)):
            t0 = time.perf_counter()
            try:
                plan_s, exec_s, df = _one(run, sf_dir, name, timed=True)
            except Exception as e:  # the op failed; the pass stops
                run.log.add(name, time.perf_counter() - t0, describe(e))
                ok = False
                break
            outputs.append((run.log.add(name, plan_s + exec_s), name, df))
            total += plan_s + exec_s
            walls.append(plan_s + exec_s)
            per_query[name].append((plan_s, exec_s))
        run.windows.append((t_pass, time.perf_counter()))
        by_group = run.monitor.cpu_since(mark)
        cpu += by_group.pop("total")
        for g, v in by_group.items():
            run.layer_cpu[g] = run.layer_cpu.get(g, 0.0) + v
        # untimed: the checks
        for op, name, df in outputs:
            if name in expected:
                problems = compare(name, df, expected[name])
                if problems:
                    run.log.fail(op, "; ".join(problems[:3]))
            elif digest(df) != reference[name]:
                run.log.fail(op, "output digest differs from the warm-up pass")
        if ok:
            passes.append(total)
        run.phase(f"pass{len(passes)}")
    if not passes:
        return
    n = len(QUERY_NAMES) * len(passes)
    fastest = sum(min(p + e for p, e in samples) for samples in per_query.values())
    run.record_e2e(setup_s=setup0 + warmup, items_per_s=len(QUERY_NAMES) / fastest)
    run.layer["runtime.cpu_ms_per_item"] = cpu / n * 1e3
    run.layer["stages.query.queries_s"] = median(passes)
    run.layer["stages.query.p50_s"] = median(walls)
    tail = tail_percentile(walls)
    run.notes["query_tail"] = None if tail is None else {
        "percentile": tail[0], "value_s": tail[1], "samples": len(walls)}
    for name, samples in per_query.items():
        short = name.split("_")[0]
        run.layer[f"stages.query.{short}.plan_s"] = median([p for p, _ in samples])
        run.layer[f"stages.query.{short}.exec_s"] = median([e for _, e in samples])
