"""Seeded generator of the query workload's tables.

Writes the seven tables the twelve benched queries read (``lineitem``,
``orders``, ``customer``, ``nation``, ``events``, ``documents``,
``embeddings``) with the schemas and value shapes of the repository's
synthetic sf tables: uniform keys, two-decimal money, a 30-word
vocabulary for document text. A share of the documents are near copies
of earlier ones, so the near-duplicate queries have pairs to verify.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = (
    "a the data row column table key value hash sort merge join group agg "
    "filter scan query stream batch window part line order customer vector "
    "spark fast slow big small"
).split()
LANGS = ["en", "en", "en", "zh", "es", "fr", "de"]
EVENT_TYPES = ["click", "view", "purchase", "signup", "error"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]


def _money(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, n), 2)


def _days(rng, start: str, n_days: int, n: int) -> np.ndarray:
    return np.datetime64(start, "us") + rng.integers(0, n_days, n) * np.timedelta64(1, "D")


def _documents(rng, n: int) -> pa.Table:
    texts: list[str] = []
    for i in range(n):
        if i >= 10 and rng.random() < 0.15:
            # near copy of an earlier document: a few words replaced
            words = texts[int(rng.integers(0, i))].split()
            for j in rng.integers(0, len(words), max(1, len(words) // 20)):
                words[j] = VOCAB[int(rng.integers(0, len(VOCAB)))]
        else:
            words = [VOCAB[k] for k in rng.integers(0, len(VOCAB), int(rng.integers(8, 80)))]
        texts.append(" ".join(words))
    return pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array([LANGS[k] for k in rng.integers(0, len(LANGS), n)], pa.string()),
        "source": pa.array([f"src{i % 20}" for i in range(n)], pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


def generate(out_dir: str, seed: int, n_orders: int = 7_500) -> str:
    """Write the tables under ``out_dir`` (once) and return it. Sizes
    follow the sf tables' ratios: per order 4 line items, 0.1 customers
    and 0.67 events; documents and embeddings are fixed-size corpora."""
    if os.path.exists(os.path.join(out_dir, "_COMPLETE")):
        return out_dir
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    n_cust, n_items, n_events = n_orders // 10, 4 * n_orders, (2 * n_orders) // 3
    n_parts, n_supp, n_users = max(1, n_orders // 8), max(1, n_orders // 150), max(1, n_orders // 10)
    tables = {
        "nation": pa.table({
            "n_nationkey": pa.array(np.arange(25), pa.int32()),
            "n_name": pa.array([f"NATION_{i}" for i in range(25)], pa.string()),
            "n_regionkey": pa.array(np.arange(25) % 5, pa.int32()),
        }),
        "customer": pa.table({
            "c_custkey": pa.array(np.arange(n_cust), pa.int64()),
            "c_name": pa.array([f"Customer#{i:09d}" for i in range(n_cust)], pa.string()),
            "c_nationkey": pa.array(rng.integers(0, 25, n_cust), pa.int32()),
            "c_acctbal": pa.array(_money(rng, -999.99, 9999.99, n_cust), pa.float64()),
            "c_mktsegment": pa.array([SEGMENTS[k] for k in rng.integers(0, 5, n_cust)], pa.string()),
        }),
        "orders": pa.table({
            "o_orderkey": pa.array(np.arange(n_orders), pa.int64()),
            "o_custkey": pa.array(rng.integers(0, n_cust, n_orders), pa.int64()),
            "o_orderstatus": pa.array([("F", "O", "P")[k] for k in rng.integers(0, 3, n_orders)], pa.string()),
            "o_totalprice": pa.array(_money(rng, 1000.0, 500000.0, n_orders), pa.float64()),
            "o_orderdate": pa.array(_days(rng, "1995-01-01", 2404, n_orders), pa.timestamp("us")),
            "o_orderpriority": pa.array([PRIORITIES[k] for k in rng.integers(0, 5, n_orders)], pa.string()),
        }),
        "lineitem": pa.table({
            "l_orderkey": pa.array(rng.integers(0, n_orders, n_items), pa.int64()),
            "l_partkey": pa.array(rng.integers(0, n_parts, n_items), pa.int64()),
            "l_suppkey": pa.array(rng.integers(0, n_supp, n_items), pa.int64()),
            "l_linenumber": pa.array(rng.integers(1, 8, n_items), pa.int32()),
            "l_quantity": pa.array(rng.integers(1, 51, n_items).astype(np.float64), pa.float64()),
            "l_extendedprice": pa.array(_money(rng, 900.0, 100000.0, n_items), pa.float64()),
            "l_discount": pa.array(rng.integers(0, 11, n_items) / 100.0, pa.float64()),
            "l_tax": pa.array(rng.integers(0, 9, n_items) / 100.0, pa.float64()),
            "l_returnflag": pa.array([("A", "N", "R")[k] for k in rng.integers(0, 3, n_items)], pa.string()),
            "l_linestatus": pa.array([("F", "O")[k] for k in rng.integers(0, 2, n_items)], pa.string()),
            "l_shipdate": pa.array(_days(rng, "1995-01-02", 2498, n_items), pa.timestamp("us")),
        }),
        "events": pa.table({
            "event_id": pa.array(np.arange(n_events), pa.int64()),
            "ts": pa.array(np.datetime64("2024-01-01", "us") + np.sort(
                rng.integers(0, 30 * 86_400_000_000, n_events)).astype("timedelta64[us]"),
                pa.timestamp("us")),
            "user_id": pa.array(rng.integers(0, n_users, n_events), pa.int64()),
            "event_type": pa.array([EVENT_TYPES[k] for k in rng.integers(0, 5, n_events)], pa.string()),
            "value": pa.array(np.round(rng.exponential(50.0, n_events), 2), pa.float64()),
            "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, n_events)], pa.string()),
        }),
        "documents": _documents(rng, 400),
        "embeddings": pa.table({
            "vec_id": pa.array(np.arange(500), pa.int64()),
            "embedding": pa.array(list(rng.normal(0.0, 0.125, (500, 64)).astype(np.float32)),
                                  pa.list_(pa.float32())),
            "label": pa.array(rng.integers(0, 10, 500), pa.int32()),
        }),
    }
    for name, t in tables.items():
        pq.write_table(t, os.path.join(out_dir, f"{name}.parquet"))
    with open(os.path.join(out_dir, "_COMPLETE"), "w") as f:
        f.write("ok")
    return out_dir
