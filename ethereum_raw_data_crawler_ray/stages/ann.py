"""Similarity search over an embedding column (``list<float>``).

Four paths, cheapest-exact to scale-ready:
* :func:`knn_bruteforce` — exact cosine top-k baseline: the query
  matrix is broadcast (``ray.put`` once, read in every actor), each
  batch does one numpy matmul and emits its partial top-k, and a final
  tiny groupby merges partials. The corpus streams, nothing
  materializes.
* :func:`knn_ivf` — streaming IVF: coarse quantizer trained on a
  deterministic order-independent hash sample; each batch rescores only
  rows assigned to a query's n_probe nearest cells.
* :func:`knn_ivf_indexed` (+ :func:`build_ivf_index`) — the 100-TB
  shape: cell id stored as a hive partition column so a query's probe
  prunes at the Parquet READ (only probe-cell directories are opened);
  returns exactly the streaming-IVF result for the same quantizer.
* :func:`knn_lsh` — multi-table random-hyperplane buckets with probe
  rings, exact rescoring within the candidate union; best suited to the
  high-cosine near-dup regime (at moderate cosine it needs many tables
  to reach recall — recall pinned vs brute force in tests).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from ..functions.hashing import mix64
from .joins import _pool


def _normalize(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def hash_sample(ds: rd.Dataset, id_col: str, n_target: int, seed: int) -> "pd.DataFrame":
    """Deterministic, order-independent ~n_target-row sample: keep rows
    whose mixed id hash falls under a threshold derived from the table
    size. Replaces round 1's ``ds.limit(n)`` ("first N rows"), which on
    a sorted/clustered corpus trains biased centroids."""
    n = ds.count()
    if n <= n_target:
        return ds.to_pandas()
    frac = n_target / n
    thresh = np.int64(int(frac * (2**63 - 1)))
    sd = np.uint64(seed * 0x9E3779B97F4A7C15 % 2**64)

    def keep(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col].to_pandas(), dtype=np.uint64)
        m = (mix64(ids ^ sd) >> np.uint64(1)).astype(np.int64) < thresh
        return t.filter(pa.array(m))

    # NO trailing limit(): a limit would truncate in dataset order and
    # reintroduce the order dependence this function exists to remove;
    # the binomial sample size (~n_target) is what k-means needs
    return ds.map_batches(keep, batch_format="pyarrow").to_pandas()


def _brute_topk_batch(t: pa.Table, *, q_ref, k: int) -> pa.Table:
    """Stateless per-batch exact partial top-k. A plain TASK stage: the
    only 'state' is the broadcast query matrix, resolved once per worker
    process via the get_broadcast cache — an actor pool here paid its
    spin-up cost inside a ~2 s query (the BENCH_r02 q28 regression)."""
    from ..functions.broadcast import get_broadcast

    q = get_broadcast(q_ref)  # (nq, d), L2-normalized
    vecs = _normalize(np.asarray(t["embedding"].to_pylist(), dtype=np.float32))
    ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
    sims = q @ vecs.T  # (nq, batch)
    q_out, id_out, s_out = [], [], []
    for qi in range(sims.shape[0]):
        kk = min(k, sims.shape[1])
        part = np.argpartition(-sims[qi], kk - 1)[:kk]
        for j in part:
            q_out.append(qi)
            id_out.append(int(ids[j]))
            s_out.append(float(sims[qi, j]))
    return pa.table(
        {
            "query_id": pa.array(q_out, type=pa.int64()),
            "vec_id": pa.array(id_out, type=pa.int64()),
            "cosine": pa.array(s_out, type=pa.float64()),
        }
    )


def knn_bruteforce(ds: rd.Dataset, queries: np.ndarray, k: int = 10) -> rd.Dataset:
    """Exact top-k by cosine for each query row. Result: (query_id,
    vec_id, cosine, rank), rank 0-based, ties broken by vec_id."""
    import ray

    q_ref = ray.put(_normalize(np.asarray(queries, dtype=np.float32)))
    partials = ds.map_batches(
        _brute_topk_batch,
        fn_kwargs={"q_ref": q_ref, "k": k},
        batch_format="pyarrow",
        batch_size=4096,
    )

    return _merge_topk(partials, k)


def _topk(g: pd.DataFrame, k: int) -> pd.DataFrame:
    """One query's k best partial rows (cosine desc, vec_id asc), ranked."""
    g = g.sort_values(["cosine", "vec_id"], ascending=[False, True]).head(k)
    g = g.reset_index(drop=True)
    g["rank"] = np.arange(len(g), dtype=np.int64)
    return g


def _merge_topk(partials: rd.Dataset, k: int) -> rd.Dataset:
    """The final merge of every kNN path: per-batch partial top-k rows →
    the global top-k per ``query_id``."""
    return partials.groupby("query_id").map_groups(
        _topk, fn_kwargs={"k": k}, batch_format="pandas")


def _bucket_of(mat: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (mat @ planes.T) > 0  # (n, n_bits)
    return (bits.astype(np.uint64) << np.arange(bits.shape[1], dtype=np.uint64)).sum(
        axis=1
    )


class _LshTopK:
    """Multi-table hyperplane LSH probe: a row is a candidate for a
    query if its bucket is in the query's probe ring (exact + single-bit
    flips) in ANY of the L independent tables — the standard recall fix
    when neighbors sit at moderate cosine (a single table's collision
    probability is too small)."""

    def __init__(self, q_ref, planes_ref, k: int, n_probe_bits: int):
        import ray

        self.q = ray.get(q_ref)
        self.planes = ray.get(planes_ref)  # (L, n_bits, d)
        self.k = k
        n_tables, n_bits, _ = self.planes.shape
        # probe[t][qi] = set of probed buckets in table t for query qi
        self.probe: list[list[set]] = []
        for ti in range(n_tables):
            qb = _bucket_of(self.q, self.planes[ti])
            per_q = []
            for b in qb:
                s = {int(b)}
                for j in range(min(n_bits, n_probe_bits)):
                    s.add(int(np.uint64(b) ^ (np.uint64(1) << np.uint64(j))))
                per_q.append(s)
            self.probe.append(per_q)

    def __call__(self, t: pa.Table) -> pa.Table:
        vecs = _normalize(np.asarray(t["embedding"].to_pylist(), dtype=np.float32))
        ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
        n_tables = self.planes.shape[0]
        buckets = [_bucket_of(vecs, self.planes[ti]) for ti in range(n_tables)]
        q_out, id_out, s_out = [], [], []
        for qi in range(len(self.q)):
            mask = np.zeros(len(ids), dtype=bool)
            for ti in range(n_tables):
                mask |= np.isin(buckets[ti], list(self.probe[ti][qi]))
            if not mask.any():
                continue
            sims = vecs[mask] @ self.q[qi]
            cand_ids = ids[mask]
            k = min(self.k, len(sims))
            part = np.argpartition(-sims, k - 1)[:k]
            for j in part:
                q_out.append(qi)
                id_out.append(int(cand_ids[j]))
                s_out.append(float(sims[j]))
        return pa.table(
            {
                "query_id": pa.array(q_out, type=pa.int64()),
                "vec_id": pa.array(id_out, type=pa.int64()),
                "cosine": pa.array(s_out, type=pa.float64()),
            }
        )


def kmeans_centroids(
    sample: np.ndarray, n_cells: int, n_iter: int = 5, seed: int = 23
) -> np.ndarray:
    """Deterministic Lloyd's k-means on a (small) driver-side sample —
    the IVF coarse quantizer training step. Spherical variant: centroids
    re-normalized each iteration (cosine geometry)."""
    rng = np.random.default_rng(seed)
    sample = _normalize(sample.astype(np.float32))
    init_ix = rng.choice(len(sample), size=min(n_cells, len(sample)), replace=False)
    cent = sample[np.sort(init_ix)].copy()
    for _ in range(n_iter):
        assign = (sample @ cent.T).argmax(axis=1)
        for c in range(len(cent)):
            members = sample[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
        cent = _normalize(cent)
    return cent


class _IvfTopK:
    """Per-batch IVF search: assign batch rows to cells, keep only rows
    in the query's n_probe nearest cells, exact-rescore those."""

    def __init__(self, q_ref, cent_ref, k: int, n_probe: int):
        import ray

        self.q = ray.get(q_ref)
        self.cent = ray.get(cent_ref)
        self.k = k
        probe = np.argsort(-(self.q @ self.cent.T), axis=1)[:, :n_probe]
        self.probe = [set(map(int, row)) for row in probe]

    def __call__(self, t: pa.Table) -> pa.Table:
        vecs = _normalize(np.asarray(t["embedding"].to_pylist(), dtype=np.float32))
        ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
        cells = (vecs @ self.cent.T).argmax(axis=1)
        q_out, id_out, s_out = [], [], []
        for qi in range(len(self.q)):
            mask = np.isin(cells, list(self.probe[qi]))
            if not mask.any():
                continue
            sims = vecs[mask] @ self.q[qi]
            cand_ids = ids[mask]
            k = min(self.k, len(sims))
            part = np.argpartition(-sims, k - 1)[:k]
            for j in part:
                q_out.append(qi)
                id_out.append(int(cand_ids[j]))
                s_out.append(float(sims[j]))
        return pa.table(
            {
                "query_id": pa.array(q_out, type=pa.int64()),
                "vec_id": pa.array(id_out, type=pa.int64()),
                "cosine": pa.array(s_out, type=pa.float64()),
            }
        )


def knn_ivf(
    ds: rd.Dataset,
    queries: np.ndarray,
    k: int = 10,
    n_cells: int = 16,
    n_probe: int = 4,
    train_sample: int = 10_000,
    seed: int = 23,
) -> rd.Dataset:
    """IVF approximate top-k — the scale path: train a coarse quantizer
    on a bounded sample, then each batch checks only rows whose cell is
    in the query's probe list (≈ n_probe/n_cells of the corpus scanned).
    At real scale the cell assignment is precomputed once and stored as a
    partition column so probing prunes at the READ (Parquet filter), not
    per batch; this streaming variant keeps the same math."""
    import ray

    qn = _normalize(np.asarray(queries, dtype=np.float32))
    sample = hash_sample(ds, "vec_id", train_sample, seed)
    mat = np.asarray(sample["embedding"].to_list(), dtype=np.float32)
    cent = kmeans_centroids(mat, n_cells, seed=seed)
    q_ref = ray.put(qn)
    c_ref = ray.put(cent)
    partials = ds.map_batches(
        _IvfTopK,
        fn_constructor_args=(q_ref, c_ref, k, n_probe),
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=_pool(),
    )

    return _merge_topk(partials, k)


def build_ivf_index(
    ds: rd.Dataset,
    index_dir: str,
    n_cells: int = 16,
    train_sample: int = 10_000,
    seed: int = 23,
) -> str:
    """Materialized IVF index — THE scale path: train the coarse
    quantizer once, stamp every row's cell id, and write the corpus
    hive-partitioned by ``ivf_cell`` so a query's probe prunes at the
    Parquet READ (only n_probe/n_cells of the files are opened), not per
    batch. Centroids are stored beside the partitions. One all-to-all
    pass at build time, amortized over every subsequent query."""
    import os

    import ray

    marker = os.path.join(index_dir, "_COMPLETE")
    if os.path.exists(marker):
        return index_dir
    sample = hash_sample(ds, "vec_id", train_sample, seed)
    cent = kmeans_centroids(
        np.asarray(sample["embedding"].to_list(), dtype=np.float32), n_cells, seed=seed
    )
    c_ref = ray.put(cent)

    def assign(t: pa.Table) -> pa.Table:
        from ..functions.broadcast import get_broadcast

        c = get_broadcast(c_ref)
        vecs = _normalize(np.asarray(t["embedding"].to_pylist(), dtype=np.float32))
        cells = (vecs @ c.T).argmax(axis=1).astype(np.int64)
        return t.append_column("ivf_cell", pa.array(cells, type=pa.int64()))

    # partitions under data/ — read_parquet must not trip over the
    # centroids sidecar file
    ds.map_batches(assign, batch_format="pyarrow").write_parquet(
        os.path.join(index_dir, "data"), partition_cols=["ivf_cell"]
    )
    np.save(os.path.join(index_dir, "centroids.npy"), cent)
    with open(marker, "w") as f:
        f.write("ok")
    return index_dir


def knn_ivf_indexed(
    index_dir: str, queries: np.ndarray, k: int = 10, n_probe: int = 4
) -> rd.Dataset:
    """Query a :func:`build_ivf_index` index: read ONLY the probe cells'
    partitions (filter on the hive partition column → file pruning), then
    exact-rescore candidates per query within its own probe set."""
    import os

    import ray

    cent = np.load(os.path.join(index_dir, "centroids.npy"))
    qn = _normalize(np.asarray(queries, dtype=np.float32))
    probe = np.argsort(-(qn @ cent.T), axis=1)[:, :n_probe]
    union_cells = sorted({int(c) for row in probe for c in row})
    q_ref = ray.put(qn)
    probe_ref = ray.put([set(map(int, row)) for row in probe])

    class _StoredCellTopK:
        def __init__(self):
            self.q = ray.get(q_ref)
            self.probe = ray.get(probe_ref)
            self.k = k

        def __call__(self, t: pa.Table) -> pa.Table:
            vecs = _normalize(np.asarray(t["embedding"].to_pylist(), dtype=np.float32))
            ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
            cells = np.asarray(t["ivf_cell"].to_pylist(), dtype=np.int64)
            q_out, id_out, s_out = [], [], []
            for qi in range(len(self.q)):
                mask = np.isin(cells, list(self.probe[qi]))
                if not mask.any():
                    continue
                sims = vecs[mask] @ self.q[qi]
                cand_ids = ids[mask]
                kk = min(self.k, len(sims))
                part = np.argpartition(-sims, kk - 1)[:kk]
                for j in part:
                    q_out.append(qi)
                    id_out.append(int(cand_ids[j]))
                    s_out.append(float(sims[j]))
            return pa.table(
                {
                    "query_id": pa.array(q_out, type=pa.int64()),
                    "vec_id": pa.array(id_out, type=pa.int64()),
                    "cosine": pa.array(s_out, type=pa.float64()),
                }
            )

    # explicit partition pruning: only the probe cells' directories are
    # ever opened — the 100-TB read-amplification win
    parts = []
    for c in union_cells:
        d = os.path.join(index_dir, "data", f"ivf_cell={c}")
        if not os.path.isdir(d):
            continue

        def stamp(t: pa.Table, c=c) -> pa.Table:
            return t.append_column(
                "ivf_cell", pa.array(np.full(len(t), c, dtype=np.int64))
            )

        parts.append(
            rd.read_parquet(d, columns=["vec_id", "embedding"]).map_batches(
                stamp, batch_format="pyarrow"
            )
        )
    if not parts:
        # every probe cell is empty (k-means can leave cells memberless on
        # tiny/degenerate corpora) — return an empty, correctly-typed result
        empty = pa.table(
            {
                "query_id": pa.array([], type=pa.int64()),
                "vec_id": pa.array([], type=pa.int64()),
                "cosine": pa.array([], type=pa.float64()),
                "rank": pa.array([], type=pa.int64()),
            }
        )
        return rd.from_arrow(empty)
    pruned = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
    partials = pruned.map_batches(
        _StoredCellTopK, batch_format="pyarrow", batch_size=4096, concurrency=_pool()
    )

    return _merge_topk(partials, k)


def knn_lsh(
    ds: rd.Dataset,
    queries: np.ndarray,
    k: int = 10,
    n_bits: int = 8,
    n_probe_bits: int = 8,
    n_tables: int = 12,
    seed: int = 17,
) -> rd.Dataset:
    """Approximate top-k: L independent random-hyperplane tables, probe
    ring (exact bucket + single-bit flips) per table, exact rescoring
    within the union of candidates. NOTE: hyperplane LSH is the weakest
    path when neighbors sit at moderate cosine (it needs many tables to
    reach recall, scanning a large corpus fraction) — prefer
    :func:`knn_ivf` / :func:`knn_ivf_indexed` for such corpora; this
    exists for the high-cosine near-dup regime."""
    import ray

    qn = _normalize(np.asarray(queries, dtype=np.float32))
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((n_tables, n_bits, qn.shape[1])).astype(np.float32)
    q_ref = ray.put(qn)
    p_ref = ray.put(planes)
    partials = ds.map_batches(
        _LshTopK,
        fn_constructor_args=(q_ref, p_ref, k, n_probe_bits),
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=_pool(),
    )

    return _merge_topk(partials, k)


# --------------------------------------------------------------------------
# distributed k-means (iterative algorithm over the full dataset)
# --------------------------------------------------------------------------
def _vec_matrix(t: pa.Table, vec_col: str, dim: int | None = None) -> np.ndarray:
    """Zero-ish-copy list<float> column → (n, dim) float32 matrix via the
    Arrow flatten path (no per-row to_pylist).  ``dim`` disambiguates the
    0-row case (reshape(0, -1) is a ValueError)."""
    if len(t) == 0:
        return np.zeros((0, dim or 0), dtype=np.float32)
    col = t[vec_col].combine_chunks()
    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0)
    if hasattr(col, "flatten") and not isinstance(col, pa.ExtensionArray):
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float32)
        return flat.reshape(len(t), -1)
    # Ray's ArrowTensorArray (from_pandas ndarray cells) and other
    # extension arrays: to_numpy gives the (n, dim) matrix directly —
    # except variable-shape tensor columns, which come back as an
    # object array of row ndarrays and need an explicit stack
    arr = col.to_numpy(zero_copy_only=False)
    if getattr(arr, "dtype", None) == object:
        return np.stack([np.asarray(v, dtype=np.float32) for v in arr])
    return np.asarray(arr).astype(np.float32)


def grouped_centroids(
    ds: "rd.Dataset",
    *,
    group: str,
    vec_col: str = "embedding",
    scale: int = 1_000_000_000,
) -> "pd.DataFrame":
    """Per-group element-wise vector mean — the class-centroid
    primitive (label prototypes, cluster summaries, per-source
    embedding drift).  EXACT despite being a float reduction: each
    coordinate is scaled to int64 fixed-point (×``scale``, half-away
    rounding — DuckDB ROUND parity) in the map stage, so the per-batch
    (group → dim int64 sums + count) partials merge exactly in any
    order, and the mean is ONE IEEE division of exact integers —
    bit-equal to the oracle's explicit CAST arithmetic (the q92/q98
    lesson: never oracle a float kernel whose association you can't
    replicate).

    Per-batch partial: n_groups_in_batch × dim rows of
    (group, pos, sum_sc, n) via a stable-sort + ``np.add.reduceat``
    scatter — KB per block; driver merge is O(#groups × dim).  Rows
    with a NULL vector are skipped; NULL group keys form one group.
    Returns (group, pos 1-based, sum_sc, n, centroid_sc =
    sum_sc/n, i.e. the mean in fixed-point units), (group, pos)-sorted.
    """
    import pyarrow.compute as pc

    def part(t: pa.Table) -> pa.Table:
        # pin the group's arrow type from the BLOCK schema so an empty
        # (or all-null-vector) block emits the same schema as the rest
        gt = t.schema.field(group).type
        t = t.filter(pc.is_valid(t[vec_col]))
        if len(t) == 0:
            return pa.table({group: pa.array([], gt),
                             "pos": pa.array([], pa.int64()),
                             "sum_sc": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        m = _vec_matrix(t, vec_col).astype(np.float64) * scale
        sc = (np.sign(m) * np.floor(np.abs(m) + 0.5)).astype(np.int64)
        codes, uniq = pd.factorize(t[group].to_pandas(), use_na_sentinel=False)
        order = np.argsort(codes, kind="stable")
        starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
        sums = np.add.reduceat(sc[order], starts, axis=0)
        counts = np.diff(np.append(starts, len(codes)))
        k, dim = sums.shape
        groups_per_run = pd.Series(uniq[codes[order][starts]])
        return pa.table(
            {
                group: pa.Array.from_pandas(
                    groups_per_run.repeat(dim).reset_index(drop=True),
                    type=gt),
                "pos": pa.array(np.tile(np.arange(1, dim + 1), k)),
                "sum_sc": pa.array(sums.ravel()),
                "n": pa.array(np.repeat(counts.astype(np.int64), dim)),
            }
        )

    parts = ds.map_batches(part, batch_format="pyarrow").to_pandas()
    if not len(parts):
        return pd.DataFrame({group: pd.Series(dtype=object),
                             **{c: pd.Series(dtype=np.int64)
                                for c in ("pos", "sum_sc", "n")},
                             "centroid_sc": pd.Series(dtype=np.float64)})
    out = (
        parts.groupby([group, "pos"], sort=True, dropna=False)[["sum_sc", "n"]]
        .sum()
        .astype(np.int64)
        .reset_index()
    )
    out["centroid_sc"] = (out["sum_sc"].to_numpy(np.float64)
                          / out["n"].to_numpy(np.float64))
    return out.reset_index(drop=True)


def kmeans_fit(
    ds: rd.Dataset,
    *,
    k: int,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_iter: int = 10,
    sample_n: int = 4096,
    seed: int = 23,
) -> tuple[np.ndarray, list[float]]:
    """Distributed spherical Lloyd's k-means over the WHOLE dataset —
    unlike :func:`kmeans_centroids` (the IVF quantizer, which trains on
    a driver-side sample).  Each iteration is one streaming pass: the
    E-step runs as ``map_batches`` partials (per-cell vector sums +
    counts + similarity total, one small binary blob per block), the
    M-step is a k×dim driver reduce — nothing corpus-sized ever leaves
    the object store, and centroids are broadcast once per iteration
    via ``ray.put``.  The normalized vector projection is materialized
    ONCE so the iteration loop re-reads blocks, not parquet.

    Returns ``(centroids, inertia_history)`` where inertia is mean
    (1 − cosine) to the assigned centroid — non-increasing up to
    empty-cell re-normalization (pinned by tests).
    """
    import ray

    init_df = hash_sample(ds.select_columns([id_col, vec_col]), id_col, sample_n, seed)
    init_mat = np.asarray(init_df[vec_col].to_list(), dtype=np.float32)
    cent = kmeans_centroids(init_mat, k, n_iter=3, seed=seed)
    k = cent.shape[0]  # kmeans_centroids clamps to the sample size

    def project(t: pa.Table) -> pa.Table:
        return pa.table({vec_col: t[vec_col]})

    vecs_ds = ds.map_batches(project, batch_format="pyarrow").materialize()

    history: list[float] = []
    for _ in range(n_iter):
        ref = ray.put(cent)

        def partial(t: pa.Table, _ref=ref, _k=k) -> pa.Table:
            c = ray.get(_ref)
            v = _normalize(_vec_matrix(t, vec_col, dim=c.shape[1]))
            sims = v @ c.T
            a = sims.argmax(axis=1)
            sums = np.zeros((_k, v.shape[1]), dtype=np.float64)
            np.add.at(sums, a, v.astype(np.float64))
            counts = np.bincount(a, minlength=_k).astype(np.int64)
            sim_total = float(sims[np.arange(len(a)), a].sum())
            return pa.table(
                {
                    "sums": pa.array([sums.tobytes()], pa.binary()),
                    "counts": pa.array([counts.tobytes()], pa.binary()),
                    "sim_total": pa.array([sim_total], pa.float64()),
                    "n": pa.array([len(a)], pa.int64()),
                }
            )

        parts = vecs_ds.map_batches(partial, batch_format="pyarrow").take_all()
        dim = cent.shape[1]
        sums = np.zeros((k, dim), dtype=np.float64)
        counts = np.zeros(k, dtype=np.int64)
        sim_total, n_total = 0.0, 0
        for r in parts:
            sums += np.frombuffer(r["sums"], dtype=np.float64).reshape(k, dim)
            counts += np.frombuffer(r["counts"], dtype=np.int64)
            sim_total += r["sim_total"]
            n_total += r["n"]
        nonempty = counts > 0
        new_cent = cent.astype(np.float64).copy()
        new_cent[nonempty] = sums[nonempty] / counts[nonempty, None]
        cent = _normalize(new_cent.astype(np.float32))
        history.append(1.0 - sim_total / max(n_total, 1))
    return cent, history


def kmeans_assign(
    ds: rd.Dataset,
    centroids: np.ndarray,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> rd.Dataset:
    """Assign every row to its nearest (cosine) centroid — one broadcast
    + one vectorized map pass.  Output: (id_col, cell:int64,
    cosine:float64)."""
    import ray

    ref = ray.put(_normalize(centroids.astype(np.float32)))

    def assign(t: pa.Table) -> pa.Table:
        c = ray.get(ref)
        v = _normalize(_vec_matrix(t, vec_col, dim=c.shape[1]))
        sims = v @ c.T
        a = sims.argmax(axis=1)
        return pa.table(
            {
                id_col: t[id_col],
                "cell": pa.array(a.astype(np.int64)),
                "cosine": pa.array(
                    sims[np.arange(len(a)), a].astype(np.float64)
                ),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow")


def vector_norms(
    ds: "rd.Dataset",
    *,
    id_col: str = "vec_id",
    label_col: str = "label",
    vec_col: str = "embedding",
    scale: int = 1_000_000,
) -> "rd.Dataset":
    """Per-vector EXACT L2 norm — the embedding-hygiene primitive
    (zero/degenerate-vector screens, normalization audits).  Each
    coordinate scales to int64 fixed-point (×``scale``, half-away —
    DuckDB ROUND parity), the squared-norm accumulates as an exact
    int64 row sum (a per-batch magnitude check fails loud before any
    wrap), and the norm is ``sqrt(float(n2)) / scale`` — sqrt is
    correctly rounded by IEEE on both engines, so the mirrored
    expression is bit-equal to the SQL oracle.  Shuffle-free map;
    NULL vectors are dropped (the oracle's unnest emits no rows).
    Returns (id, label, norm2_sc, norm) streaming."""
    import pyarrow.compute as pc

    def stage(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[vec_col]))
        _EMPTY = pa.table({id_col: pa.array([], pa.int64()),
                           label_col: pa.array([], pa.int64()),
                           "norm2_sc": pa.array([], pa.int64()),
                           "norm": pa.array([], pa.float64())})
        if len(t) == 0:
            return _EMPTY
        col = t[vec_col].combine_chunks()
        try:
            lens = np.asarray(pc.list_value_length(col))
        except pa.ArrowNotImplementedError:
            # Ray tensor-extension column (from_pandas inputs) — no
            # list kernels; per-row probe is fine on this cold path
            lens = np.fromiter(
                (0 if v is None else len(v) for v in col.to_pylist()),
                np.int64, len(col))
        # empty lists: the oracle's unnest emits no rows → omit the id
        keep = lens != 0
        if not keep.all():
            t = t.filter(pa.array(keep))
            lens = lens[keep]
        if len(t) == 0:
            return _EMPTY
        if np.unique(lens).size > 1:  # fixed-dim matrix contract
            raise ValueError("ragged embeddings unsupported")
        m = _vec_matrix(t, vec_col).astype(np.float64) * scale
        if np.isnan(m).any():
            raise ValueError("NULL embedding element")
        # guard on the FLOAT magnitudes BEFORE the int64 cast: a value
        # past 2^63 would wrap in the cast itself and dodge any
        # post-cast check (np.abs(INT64_MIN) stays negative)
        peak = float(np.abs(m).max()) + 1.0
        if peak * peak * m.shape[1] >= float(1 << 62):
            raise ValueError(
                "vector_norms row sum could overflow int64 — reduce "
                "scale")
        sc = (np.sign(m) * np.floor(np.abs(m) + 0.5)).astype(np.int64)
        n2 = (sc * sc).sum(axis=1)
        return pa.table(
            {
                id_col: t[id_col],
                label_col: pc.cast(t[label_col], pa.int64()),
                "norm2_sc": pa.array(n2),
                "norm": pa.array(np.sqrt(n2.astype(np.float64))
                                 / float(scale)),
            }
        )

    return ds.map_batches(stage, batch_format="pyarrow")
