"""Connected-components operator: the driver-finish path is pinned by
the q64 oracle sweep (test_queries); these pin the DISTRIBUTED path
(DRIVER_CAP=0 forces dual-routed bucket contraction to fixpoint) against
the exact local kernel on adversarial shapes — long chains that span
blocks and buckets, stars, duplicate/reversed edges, self-loops."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from ethereum_raw_data_crawler_ray.stages import graph
from ethereum_raw_data_crawler_ray.stages.graph import connected_components, local_cc


def _expected(u, v):
    nodes, roots = local_cc(np.asarray(u, np.int64), np.asarray(v, np.int64))
    return dict(zip(nodes.tolist(), roots.tolist()))


def _run(u, v, **kw):
    edges = rd.from_arrow(
        pa.table({"a": pa.array(u, pa.int64()), "b": pa.array(v, pa.int64())})
    ).repartition(8)  # force multi-block so pass-0 contraction is partial
    df = connected_components(edges, **kw).to_pandas()
    assert df["node"].is_unique, "one row per node"
    return dict(zip(df["node"].tolist(), df["component"].tolist()))


def _graph_cases(rng):
    # long chain (diameter stress for the O(log d) pass bound), a big
    # star, two random blobs, duplicate + reversed + self edges
    chain = np.arange(1000, 2000)
    u = list(chain[:-1])
    v = list(chain[1:])
    u += [5000] * 50
    v += list(range(5050, 5100))
    for base in (7000, 9000):
        uu = rng.integers(base, base + 60, 150)
        vv = rng.integers(base, base + 60, 150)
        u += list(uu)
        v += list(vv)
    u += [1000, 1500, 1500, 42]
    v += [1001, 1499, 1500, 42]  # dup, reversed, self-loop (x2 kinds)
    return np.asarray(u, np.int64), np.asarray(v, np.int64)


def test_local_cc_kernel():
    u = np.array([1, 2, 3, 10, 20], dtype=np.int64)
    v = np.array([2, 3, 4, 11, 20], dtype=np.int64)
    nodes, roots = local_cc(u, v)
    got = dict(zip(nodes.tolist(), roots.tolist()))
    assert got == {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10, 20: 20}


def test_driver_path_matches_kernel(ray_session):
    rng = np.random.default_rng(7)
    u, v = _graph_cases(rng)
    exp = _expected(u[u != v], v[u != v])
    assert _run(u, v) == exp


def _force_distributed(monkeypatch, spy, plan: str) -> list:
    monkeypatch.setattr(graph, "DRIVER_CAP", 0)
    return spy(graph, plan)


def test_distributed_path_matches_kernel(ray_session, monkeypatch, spy):
    rng = np.random.default_rng(11)
    u, v = _graph_cases(rng)
    exp = _expected(u[u != v], v[u != v])
    ran = _force_distributed(monkeypatch, spy, "_components_distributed")
    got = _run(u, v, n_buckets=5, max_passes=24)
    assert len(ran) == 1
    assert got == exp


def test_distributed_equals_driver_on_random(ray_session, monkeypatch, spy):
    rng = np.random.default_rng(3)
    u = rng.integers(0, 4000, 6000).astype(np.int64)
    v = rng.integers(0, 4000, 6000).astype(np.int64)
    m = u != v
    exp = _expected(u[m], v[m])
    ran = _force_distributed(monkeypatch, spy, "_components_distributed")
    got = _run(u, v, n_buckets=7, max_passes=24)
    assert len(ran) == 1
    assert got == exp


def test_empty_edges(ray_session):
    out = connected_components(
        rd.from_arrow(pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}))
    ).to_pandas()
    assert len(out) == 0


# --------------------------------------------------------------------------
# PageRank
# --------------------------------------------------------------------------
def _pr_edges(rng):
    u = rng.integers(0, 300, 1500).astype(np.int64)
    v = rng.integers(0, 300, 1500).astype(np.int64)
    # add dangling sinks (nodes appearing only as dst) and a hub
    u = np.concatenate([u, np.full(30, 7, np.int64)])
    v = np.concatenate([v, np.arange(9000, 9030)])
    m = u != v
    return u[m], v[m]


def test_pagerank_driver_path_properties(ray_session):
    from ethereum_raw_data_crawler_ray.stages.graph import _pagerank_kernel, pagerank

    rng = np.random.default_rng(21)
    u, v = _pr_edges(rng)
    edges = rd.from_arrow(pa.table({"a": u, "b": v})).repartition(6)
    out = pagerank(edges, n_iter=12).to_pandas().sort_values("node")
    assert out["node"].is_unique
    np.testing.assert_allclose(out["rank"].sum(), 1.0, rtol=1e-9)
    # matches the reference kernel on the distinct edge set
    pairs = np.unique(np.stack([u, v], axis=1), axis=0)
    nodes, inv = np.unique(pairs.ravel(order="F"), return_inverse=True)
    exp = _pagerank_kernel(
        inv[: len(pairs)], inv[len(pairs):], len(nodes), 0.85, 12
    )
    assert (out["node"].to_numpy() == nodes).all()
    np.testing.assert_allclose(out["rank"].to_numpy(), exp, rtol=1e-12)
    # the hub's 30 sink targets are symmetric (identical rank) and sit
    # strictly above the no-inlink floor (1-d)/n
    sinks = out[out["node"] >= 9000]["rank"].to_numpy()
    assert len(sinks) == 30
    np.testing.assert_allclose(sinks, sinks[0], rtol=1e-12)
    assert (sinks > 0.15 / len(nodes)).all()


def test_pagerank_distributed_equals_driver(ray_session, monkeypatch, spy):
    rng = np.random.default_rng(23)
    u, v = _pr_edges(rng)
    edges = rd.from_arrow(pa.table({"a": u, "b": v})).repartition(6)
    drv = graph.pagerank(edges, n_iter=6).to_pandas().sort_values("node")
    ran = _force_distributed(monkeypatch, spy, "_pagerank_distributed")
    dist = graph.pagerank(edges, n_iter=6, n_buckets=5).to_pandas().sort_values("node")
    assert len(ran) == 1
    assert (drv["node"].to_numpy() == dist["node"].to_numpy()).all()
    np.testing.assert_allclose(
        drv["rank"].to_numpy(), dist["rank"].to_numpy(), rtol=1e-9
    )


def test_pagerank_empty(ray_session):
    from ethereum_raw_data_crawler_ray.stages.graph import pagerank

    out = pagerank(
        rd.from_arrow(pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}))
    ).to_pandas()
    assert len(out) == 0
