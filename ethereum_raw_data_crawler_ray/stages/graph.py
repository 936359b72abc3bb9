"""Distributed connected components over an edge Dataset.

The reference engine has no graph operator (its nearest analog is the
dedup invariant over the URL-seen set, `internal/domain/service/`
SURVEY.md §2.8); this extends the engine for the training-data axis —
near-dup *groups*, link-graph components, user-identity stitching all
reduce to connected components over a pair table.

Distributed recipe (hash-to-min / star-contraction family, Rastogi et
al. "Finding Connected Components in MapReduce"):

1. **Local contraction** (``map_batches``, no shuffle): run a
   vectorized min-label CC over each *block's* edges and emit its
   spanning star edges ``(node → local min root)``.  The union of
   per-block stars preserves global connectivity exactly (spanning
   forest union argument), and the edge count drops to the number of
   non-root nodes — for dense blocks a large contraction for free.
2. **Driver finish** (the common case): if the contracted edge count
   fits :data:`DRIVER_CAP`, pull the stars and finish with the same
   vectorized min-label kernel — one dict-free exact pass; emit
   ``(node, component)`` with ``component = min node id`` of the
   component, matching the SQL min-label convention.
3. **Distributed loop** (the 100-TB path, :func:`_components_distributed`):
   otherwise, iterate bucket-contraction passes — route every star edge to BOTH
   endpoints' buckets with a FIXED hash seed (see ``route_both`` for
   why both choices are load-bearing), run the local CC per *bucket*
   (``groupby("__bucket").map_groups``, keys amortized per the
   joins.py bucket contract) and re-emit stars.  Dual routing
   contracts every 2-hop star chain each pass (hash-to-min family,
   O(log n) expected passes); each pass is ONE all-to-all over the
   *contracted* edge set (≤ 2·#nodes rows, never the input).
   Fixpoint is detected by a commutative 64-bit signature
   (XOR-reduce of mixed pairs ⊕ row count — the fixed seed makes each
   pass deterministic, so signature equality between consecutive
   passes ⟺ the label multiset stopped changing); at fixpoint the
   star edges ARE the answer.

Partitioning assumptions (operator contract): per-bucket node count
must fit a worker heap (size ``n_buckets`` accordingly at real scale);
a single component may be the whole graph — its final star is
output-sized rows, never materialized in one task (only in the
driver-finish path, which is gated by :data:`DRIVER_CAP`).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..functions.hashing import mix64 as _mix64
from .joins import _default_buckets, exchange

# contracted star edges (connected_components) / distinct edges
# (pagerank) up to which the graph is pulled and finished on the driver
DRIVER_CAP = 2_000_000


def local_cc(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact connected components of the edge list ``(u, v)`` via
    vectorized min-label propagation + pointer jumping.

    Returns ``(nodes, roots)``: the sorted distinct node values and,
    aligned, each node's component label = the MINIMUM node value in
    its component (np.unique sorts, so min index == min value).
    O(E · log n) numpy work, no Python per-edge loop.
    """
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    ui, vi = inv[: len(u)], inv[len(u):]
    lab = np.arange(len(nodes), dtype=np.int64)
    while True:
        prev = lab
        l2 = lab.copy()
        np.minimum.at(l2, ui, lab[vi])
        np.minimum.at(l2, vi, lab[ui])
        while True:  # pointer jumping: compress chains to roots
            l3 = l2[l2]
            if np.array_equal(l3, l2):
                break
            l2 = l3
        lab = l2
        if np.array_equal(lab, prev):
            break
    return nodes, nodes[lab]


def _star_table(u: np.ndarray, v: np.ndarray) -> pa.Table:
    """Contract an edge array to its spanning star edges (node, root),
    node != root (roots drop out as self-loops)."""
    if len(u) == 0:
        return pa.table({"__u": pa.array([], pa.int64()), "__v": pa.array([], pa.int64())})
    nodes, roots = local_cc(u, v)
    m = nodes != roots
    return pa.table({"__u": nodes[m], "__v": roots[m]})


def connected_components(
    edges: rd.Dataset,
    *,
    a: str = "a",
    b: str = "b",
    n_buckets: int | None = None,
    max_passes: int = 12,
) -> rd.Dataset:
    """Connected components of the undirected graph given by edge
    columns ``(a, b)`` (duplicate edges and either orientation are
    fine; self-loops are ignored).  Returns a Dataset with columns
    ``(node:int64, component:int64)`` — one row per distinct endpoint,
    ``component`` = min node value of its component.
    """

    def contract_block(t: pa.Table) -> pa.Table:
        u = t[a].to_numpy(zero_copy_only=False).astype(np.int64)
        v = t[b].to_numpy(zero_copy_only=False).astype(np.int64)
        m = u != v
        return _star_table(u[m], v[m])

    stars = edges.map_batches(contract_block, batch_format="pyarrow").materialize()
    if stars.count() > DRIVER_CAP:
        return _components_distributed(stars, n_buckets or _default_buckets(),
                                       max_passes)
    import ray

    # empty upstream blocks surface as schema-less 0-row blocks —
    # and an empty PANDAS block (e.g. an empty map_groups bucket in
    # the caller) skips the map UDF entirely and comes back as a
    # DataFrame from to_arrow_refs; drop both shapes before concat
    tabs = []
    for t in ray.get(stars.to_arrow_refs()):
        if isinstance(t, pd.DataFrame):
            if not len(t):
                continue  # schema-less empty bucket — nothing to keep
            t = pa.Table.from_pandas(t, preserve_index=False)
        if t.num_rows:
            tabs.append(t)
    tbl = pa.concat_tables(tabs) if tabs else None
    if tbl is None or tbl.num_rows == 0:
        return rd.from_arrow(
            pa.table({"node": pa.array([], pa.int64()), "component": pa.array([], pa.int64())})
        )
    u = tbl["__u"].to_numpy().astype(np.int64)
    v = tbl["__v"].to_numpy().astype(np.int64)
    nodes, roots = local_cc(u, v)
    return rd.from_arrow(pa.table({"node": nodes, "component": roots}))


def _components_distributed(stars: rd.Dataset, n_buckets: int,
                            max_passes: int) -> rd.Dataset:
    """Step 3 of the module recipe: alternating-side bucket contraction
    of the star edges ``(__u, __v)`` to fixpoint."""

    def checksum(ds: rd.Dataset) -> int:
        def part(t: pa.Table) -> pa.Table:
            x = _mix64(t["__u"].to_numpy().astype(np.uint64), 1)
            y = _mix64(t["__v"].to_numpy().astype(np.uint64), 2)
            s = int(np.bitwise_xor.reduce(x * np.uint64(3) + y)) if len(x) else 0
            return pa.table({"s": pa.array([s], pa.uint64()), "n": pa.array([len(x)], pa.int64())})

        parts = ds.map_batches(part, batch_format="pyarrow").take_all()
        sig = 0
        n = 0
        for r in parts:
            sig ^= int(r["s"])
            n += int(r["n"])
        return (sig << 20) ^ n

    def route_both(t: pa.Table, _seed: int) -> pa.Table:
        """Send each star edge to BOTH endpoints' buckets (one copy if
        they coincide).  Dual routing guarantees any two edges sharing
        an endpoint co-locate in the shared node's bucket, so every
        2-hop star chain contracts every pass — one-sided bucketing
        deadlocks on chains where the shared node is src in one edge
        and dst in the other.  The seed is FIXED across passes: shared-
        endpoint co-location (hence progress) holds for any seed, and a
        fixed seed makes each pass a deterministic function of its
        input, so the output multiset stabilizes exactly when the
        labels do — a reseeding pass keeps churning duplicate rows at
        the label fixpoint and the checksum never settles."""
        u = t["__u"].to_numpy().astype(np.int64)
        v = t["__v"].to_numpy().astype(np.int64)
        ku = (_mix64(u.astype(np.uint64), _seed) % np.uint64(n_buckets)).astype(np.int64)
        kv = (_mix64(v.astype(np.uint64), _seed) % np.uint64(n_buckets)).astype(np.int64)
        m = ku != kv
        return pa.table(
            {
                "__u": np.concatenate([u, u[m]]),
                "__v": np.concatenate([v, v[m]]),
                "__bucket": np.concatenate([ku, kv[m]]),
            }
        )

    def contract_bucket(t: pa.Table) -> pa.Table:
        return _star_table(
            t["__u"].to_numpy().astype(np.int64), t["__v"].to_numpy().astype(np.int64)
        )

    # Labels only ever decrease and stay within the true component
    # (induction over emitted stars), so the loop converges to stars
    # rooted at component minima.  Any node's label row set is a
    # function of its (monotone) label, so multiset equality between
    # consecutive passes ⟺ no label changed ⟺ converged.
    prev_sig = checksum(stars)
    for p in range(max_passes):
        stars = (
            stars.map_batches(
                route_both, batch_format="pyarrow", fn_kwargs={"_seed": 1}
            )
            .groupby("__bucket")
            .map_groups(contract_bucket, batch_format="pyarrow")
            .materialize()
        )
        sig = checksum(stars)
        if sig == prev_sig:
            break
        prev_sig = sig
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_passes} passes; "
            "raise max_passes (expected O(log n) for dual-routed star contraction)"
        )

    # At fixpoint stars are (node -> global min root), possibly with
    # duplicate rows from dual routing.  One final __v-keyed exchange
    # emits the output: all rows of a root share its bucket, so
    # per-bucket pair-dedup + distinct-root self-rows are globally
    # distinct — no driver-side unique() over the component set.
    def emit(t: pa.Table) -> pa.Table:
        u = t["__u"].to_numpy().astype(np.int64)
        v = t["__v"].to_numpy().astype(np.int64)
        pairs = np.unique(np.stack([u, v], axis=1), axis=0)
        rts = np.unique(v)
        return pa.table(
            {
                "node": np.concatenate([pairs[:, 0], rts]),
                "component": np.concatenate([pairs[:, 1], rts]),
            }
        )

    return exchange(stars, "__v", emit, n_buckets=n_buckets,
                    batch_format="pyarrow")


# --------------------------------------------------------------------------
# PageRank (iterative link analysis — frontier-priority signal)
# --------------------------------------------------------------------------
def _pagerank_kernel(
    ui: np.ndarray, vi: np.ndarray, n: int, damping: float, n_iter: int
) -> np.ndarray:
    """Vectorized power iteration over index-encoded distinct edges:
    r' = (1−d)/n + d·(Σ_in r/deg + dangling_mass/n)."""
    deg = np.bincount(ui, minlength=n)
    dangling = deg == 0
    r = np.full(n, 1.0 / n)
    for _ in range(n_iter):
        contrib = np.zeros(n)
        np.add.at(contrib, vi, r[ui] / deg[ui])
        r = (1.0 - damping) / n + damping * (contrib + r[dangling].sum() / n)
    return r


def pagerank(
    edges: rd.Dataset,
    *,
    a: str = "a",
    b: str = "b",
    damping: float = 0.85,
    n_iter: int = 20,
    n_buckets: int | None = None,
) -> rd.Dataset:
    """PageRank over the directed graph ``a → b`` (duplicate edges count
    once; self-loops ignored; dangling mass redistributed uniformly).
    Returns ``(node:int64, rank:float64)``, Σrank = 1.  In the crawl
    domain this is the frontier-priority signal: the reference's
    priority column (SURVEY.md §1.4) ordered by link authority instead
    of seed depth.

    Scale shape: edges are deduped with ONE bucketed exchange and then
    only ever STREAMED (map_batches partials) — the corpus-sized side
    never lands on the driver.  The rank/degree vectors are node-sized
    and live on the driver + one ``ray.put`` broadcast per iteration:
    the operator assumes the NODE set fits one machine's memory (web
    graphs are edge-dominated ~50:1, so this is the GraphChi-style
    sweet spot); a node set beyond that needs rank sharding on top of
    the same contribution pass.  Up to :data:`DRIVER_CAP` edges, the whole
    iteration runs in one numpy kernel on the pulled edge list; past it
    :func:`_pagerank_distributed` streams the edges each iteration.
    """
    import ray

    def to_pairs(t: pa.Table) -> pa.Table:
        u = t[a].to_numpy(zero_copy_only=False).astype(np.int64)
        v = t[b].to_numpy(zero_copy_only=False).astype(np.int64)
        m = u != v
        return pa.table({"__u": u[m], "__v": v[m]})

    def dedup_bucket(t: pa.Table) -> pa.Table:
        pairs = np.unique(
            np.stack(
                [t["__u"].to_numpy().astype(np.int64), t["__v"].to_numpy().astype(np.int64)],
                axis=1,
            ),
            axis=0,
        )
        return pa.table({"__u": pairs[:, 0], "__v": pairs[:, 1]})

    # all edges of a src share a bucket, so per-bucket distinct is global
    dedges = exchange(edges.map_batches(to_pairs, batch_format="pyarrow"), "__u",
                      dedup_bucket, n_buckets=n_buckets,
                      batch_format="pyarrow").materialize()
    n_edges = dedges.count()

    if n_edges == 0:
        return rd.from_arrow(
            pa.table({"node": pa.array([], pa.int64()), "rank": pa.array([], pa.float64())})
        )

    if n_edges > DRIVER_CAP:
        return _pagerank_distributed(dedges, damping, n_iter)
    tabs = [t for t in ray.get(dedges.to_arrow_refs()) if t.num_rows]
    tbl = pa.concat_tables(tabs)
    u = tbl["__u"].to_numpy().astype(np.int64)
    v = tbl["__v"].to_numpy().astype(np.int64)
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    r = _pagerank_kernel(inv[: len(u)], inv[len(u):], len(nodes), damping, n_iter)
    return rd.from_arrow(pa.table({"node": nodes, "rank": r}))


def _pagerank_distributed(dedges: rd.Dataset, damping: float,
                          n_iter: int) -> rd.Dataset:
    """:func:`pagerank` past :data:`DRIVER_CAP` distinct edges: the node
    vector on the driver, the edges ``(__u, __v)`` streamed."""
    import ray

    def node_partial(t: pa.Table) -> pa.Table:
        u = t["__u"].to_numpy().astype(np.int64)
        v = t["__v"].to_numpy().astype(np.int64)
        nodes = np.unique(np.concatenate([u, v]))
        deg_nodes, deg_counts = np.unique(u, return_counts=True)
        return pa.table(
            {
                "nodes": pa.array([nodes.tobytes()], pa.binary()),
                "deg_nodes": pa.array([deg_nodes.tobytes()], pa.binary()),
                "deg_counts": pa.array([deg_counts.tobytes()], pa.binary()),
            }
        )

    parts = dedges.map_batches(node_partial, batch_format="pyarrow").take_all()
    nodes = np.unique(
        np.concatenate([np.frombuffer(r["nodes"], dtype=np.int64) for r in parts])
    )
    n = len(nodes)
    deg = np.zeros(n, dtype=np.int64)
    for r_ in parts:
        dn = np.frombuffer(r_["deg_nodes"], dtype=np.int64)
        dc = np.frombuffer(r_["deg_counts"], dtype=np.int64)
        deg[np.searchsorted(nodes, dn)] += dc
    # index-encode the static edge set ONCE (the iteration loop would
    # otherwise pay two O(E log N) searchsorted passes per iteration)
    nodes_ref = ray.put(nodes)

    def encode(t: pa.Table, _n=nodes_ref) -> pa.Table:
        nd = ray.get(_n)
        return pa.table(
            {
                "ui": np.searchsorted(nd, t["__u"].to_numpy().astype(np.int64)),
                "vi": np.searchsorted(nd, t["__v"].to_numpy().astype(np.int64)),
            }
        )

    enc = dedges.map_batches(encode, batch_format="pyarrow").materialize()
    dangling = deg == 0
    rank = np.full(n, 1.0 / n)

    for _ in range(n_iter):
        w = np.zeros(n)
        w[~dangling] = rank[~dangling] / deg[~dangling]
        w_ref = ray.put(w)

        def contrib_partial(t: pa.Table, _w=w_ref) -> pa.Table:
            wv = ray.get(_w)
            ui = t["ui"].to_numpy().astype(np.int64)
            vi = t["vi"].to_numpy().astype(np.int64)
            dst, inv2 = np.unique(vi, return_inverse=True)
            sums = np.bincount(inv2, weights=wv[ui])
            return pa.table(
                {
                    "dst": pa.array([dst.tobytes()], pa.binary()),
                    "sums": pa.array([sums.tobytes()], pa.binary()),
                }
            )

        contrib = np.zeros(n)
        for r_ in enc.map_batches(contrib_partial, batch_format="pyarrow").take_all():
            contrib[np.frombuffer(r_["dst"], dtype=np.int64)] += np.frombuffer(
                r_["sums"], dtype=np.float64
            )
        rank = (1.0 - damping) / n + damping * (contrib + rank[dangling].sum() / n)

    return rd.from_arrow(pa.table({"node": nodes, "rank": rank}))
