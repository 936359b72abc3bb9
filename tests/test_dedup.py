"""Dedup-operator tests: distributed near-dup grouping (no driver
materialization of the documents table), blocked exact embedding pairs,
and the LSH scale path's recall vs the exact operator."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from ethereum_raw_data_crawler_ray.stages import dedup


def _mk_docs(n: int, n_clusters: int, seed: int = 5) -> pd.DataFrame:
    """n docs; the first 2*n_clusters ids form n_clusters planted
    near-dup pairs (one word changed out of ~80); the rest are unique."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(500)]
    rows = []
    did = 0
    for c in range(n_clusters):
        words = list(rng.choice(vocab, size=80))
        rows.append((did, " ".join(words)))
        did += 1
        mutated = list(words)
        mutated[10] = "CHANGED"
        rows.append((did, " ".join(mutated)))
        did += 1
    while did < n:
        rows.append((did, " ".join(rng.choice(vocab, size=80))))
        did += 1
    return pd.DataFrame(rows, columns=["doc_id", "text"])


class TestNearDupGroups:
    def test_planted_pairs_grouped_rest_singleton(self, ray_session):
        docs = _mk_docs(3_000, 20)
        ds = rd.from_pandas(docs).repartition(8)
        out = dedup.near_dup_groups(ds, "text", "doc_id", threshold=0.6).to_pandas()
        assert len(out) == len(docs)
        g = dict(zip(out["doc_id"], out["group_id"]))
        for c in range(20):  # planted pair (2c, 2c+1) shares a group
            assert g[2 * c] == g[2 * c + 1] == 2 * c
        # group representative is always a member ≤ every member
        assert (out["group_id"] <= out["doc_id"]).all()
        # random-unique docs stay singletons (overwhelmingly)
        uniq = out[out["doc_id"] >= 40]
        frac_singleton = (uniq["group_id"] == uniq["doc_id"]).mean()
        assert frac_singleton > 0.99

    def test_shuffle_plan_equivalent_to_broadcast(self, ray_session):
        # r04 verdict #2: the fully-distributed plan (semi-join +
        # inverted-gram count join + distributed connected components)
        # must match the driver/broadcast plan EXACTLY — including
        # transitive group merges and the empty-doc 0/0 = 1.0 edge
        docs = _mk_docs(2_000, 15)
        # plant a CHAIN a~b, b~c with a!~c so grouping needs transitivity
        base = docs.loc[0, "text"].split(" ")
        n = len(base)
        va = list(base)
        vb = list(base)
        for i in range(0, n // 3):
            vb[i] = "XB%d" % i
        vc = list(vb)
        for i in range(2 * n // 3, n):
            vc[i] = "XC%d" % i
        extra = pd.DataFrame(
            {"doc_id": [9001, 9002, 9003],
             "text": [" ".join(va), " ".join(vb), " ".join(vc)]}
        )
        # two empty docs: verified as dups (jaccard 0/0 = 1.0 contract)
        empties = pd.DataFrame({"doc_id": [9101, 9102], "text": ["", ""]})
        docs = pd.concat([docs, extra, empties], ignore_index=True)
        ds = rd.from_pandas(docs).repartition(8)
        kw = dict(threshold=0.5, n_perm=64, n_bands=16)
        a = dedup.near_dup_groups(
            ds, "text", "doc_id", distribute="broadcast", **kw
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
        b = dedup.near_dup_groups(
            ds, "text", "doc_id", distribute="shuffle", **kw
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)
        g = dict(zip(a["doc_id"], a["group_id"]))
        assert g[9101] == g[9102]  # both-empty pair verified
        assert g[2] == g[3] == 2  # a planted near-dup pair survived
        # auto picks the shuffle plan past the pair guard — same output
        c = dedup.near_dup_groups(
            ds, "text", "doc_id", distribute="auto", max_driver_pairs=1,
            **kw
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, c)

    def test_no_candidates_all_singletons(self, ray_session):
        docs = pd.DataFrame(
            {"doc_id": [1, 2, 3], "text": ["aa bb cc dd", "ee ff gg hh", "ii jj kk ll"]}
        )
        out = dedup.near_dup_groups(
            rd.from_pandas(docs), "text", "doc_id", threshold=0.8
        ).to_pandas()
        assert (out["group_id"].to_numpy() == out["doc_id"].to_numpy()).all()


class TestSimhashPairs:
    def test_exact_within_hamming_and_planted_found(self, ray_session):
        from ethereum_raw_data_crawler_ray.functions.textstats import simhash64

        docs = _mk_docs(1_000, 15)
        ds = rd.from_pandas(docs).repartition(4)
        out = dedup.simhash_pairs(ds, "text", "doc_id", max_hamming=3).to_pandas()
        sh = {i: simhash64(t) for i, t in zip(docs["doc_id"], docs["text"])}

        def ham(a, b):
            return bin(sh[a] ^ sh[b]).count("1")

        # every emitted pair really is within the Hamming bound
        for a, b in zip(out["id_a"], out["id_b"]):
            assert ham(int(a), int(b)) <= 3
        # pigeonhole exactness: every true pair ≤ 3 is found
        ids = docs["doc_id"].to_numpy()
        got = {(int(a), int(b)) for a, b in zip(out["id_a"], out["id_b"])}
        import itertools

        truth = set()
        for a, b in itertools.combinations(ids[:120], 2):  # bounded check
            if ham(int(a), int(b)) <= 3:
                truth.add((int(a), int(b)))
        assert truth <= got


def _mk_embeddings(n: int, d: int = 16, n_dup: int = 15, seed: int = 9):
    """n vectors; ids (2i, 2i+1) for i < n_dup are near-duplicates
    (cosine ≳ 0.99); the rest are random (low pairwise cosine)."""
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, d)).astype(np.float32)
    for i in range(n_dup):
        mat[2 * i + 1] = mat[2 * i] + 0.05 * rng.standard_normal(d).astype(np.float32)
    return pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64), "embedding": list(mat)})


def _exact_reference(df: pd.DataFrame, threshold: float) -> set:
    mat = np.asarray(df["embedding"].to_list(), dtype=np.float32)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = mat @ mat.T
    ii, jj = np.nonzero(sims >= threshold)
    return {(int(a), int(b)) for a, b in zip(ii, jj) if a < b}


class TestEmbeddingDedup:
    def test_blocked_exact_matches_reference_multichunk(self, ray_session):
        df = _mk_embeddings(600)
        ds = rd.from_pandas(df).repartition(6)
        out = dedup.embedding_dedup_pairs(ds, threshold=0.9, chunk_rows=64).to_pandas()
        got = {(int(a), int(b)) for a, b in zip(out["id_a"], out["id_b"])}
        assert got == _exact_reference(df, 0.9)

    def test_lsh_recall_vs_exact(self, ray_session):
        df = _mk_embeddings(600)
        ds = rd.from_pandas(df).repartition(6)
        ref = _exact_reference(df, 0.9)
        assert len(ref) >= 15
        out = dedup.embedding_dedup_lsh(ds, threshold=0.9).to_pandas()
        got = {(int(a), int(b)) for a, b in zip(out["id_a"], out["id_b"])}
        # LSH result is a SUBSET of the exact pairs (within-bucket exact
        # rescoring never fabricates a pair) with high recall
        assert got <= ref
        recall = len(got & ref) / len(ref)
        assert recall >= 0.8, f"LSH recall {recall}"


class TestCanonicalEmission:
    """Round-3: pair distinctness comes from canonical-band/-table
    emission inside the bucket groups — no second all-to-all distinct
    shuffle. These pin (a) no duplicate pairs, (b) the pair SETS are
    unchanged (simhash exactness test above already pins the set; the
    LSH set equals the per-table union deduped)."""

    def test_simhash_pairs_distinct(self, ray_session):
        docs = _mk_docs(1_000, 15)
        out = dedup.simhash_pairs(
            rd.from_pandas(docs).repartition(4), "text", "doc_id", max_hamming=3
        ).to_pandas()
        assert not out.duplicated(subset=["id_a", "id_b"]).any()
        assert len(out) > 0

    def test_embedding_lsh_pairs_distinct_and_equal_union(self, ray_session):
        df = _mk_embeddings(600)
        ds = rd.from_pandas(df).repartition(6)
        out = dedup.embedding_dedup_lsh(ds, threshold=0.9).to_pandas()
        assert not out.duplicated(subset=["id_a", "id_b"]).any()
        # reference: per-table brute-force union (what the old
        # emit-everywhere + distinct produced)
        mat = np.asarray(df["embedding"].to_list(), dtype=np.float32)
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        rng = np.random.default_rng(31)
        n_tables, n_bits = 6, 8
        planes = rng.standard_normal((n_tables, n_bits, mat.shape[1])).astype(np.float32)
        ref = set()
        for ti in range(n_tables):
            bits = (mat @ planes[ti].T) > 0
            key = (bits.astype(np.int64) << np.arange(n_bits, dtype=np.int64)).sum(axis=1)
            for k in np.unique(key):
                ix = np.flatnonzero(key == k)
                sims = mat[ix] @ mat[ix].T
                ii, jj = np.nonzero(sims >= 0.9)
                ref |= {
                    (int(ix[a]), int(ix[b])) for a, b in zip(ii, jj) if ix[a] < ix[b]
                }
        got = {(int(a), int(b)) for a, b in zip(out["id_a"], out["id_b"])}
        assert got == ref


class TestExactPathGuard:
    def test_chunk_explosion_raises(self, ray_session):
        df = _mk_embeddings(600)
        ds = rd.from_pandas(df).repartition(6)
        with pytest.raises(ValueError, match="embedding_dedup_lsh"):
            dedup.embedding_dedup_pairs(ds, chunk_rows=16, max_chunks=8)


class TestBatchedMinhashStage:
    def test_batched_equals_scalar(self):
        from ethereum_raw_data_crawler_ray.functions.textstats import (
            char_shingles, lsh_band_keys, minhash_signature)

        docs = _mk_docs(64, 4)
        t = pa.table({"doc_id": docs["doc_id"].astype("int64"), "text": docs["text"]})
        out = dedup.minhash_stage(t, text_col="text", id_col="doc_id")
        # rebuild the scalar-path signatures and band keys
        sigs = np.stack(
            [minhash_signature(char_shingles(x)) for x in docs["text"]]
        )
        keys = lsh_band_keys(sigs, 16).reshape(-1).view(np.int64)
        got_keys = np.asarray(out["band_key"].to_pandas(), dtype=np.int64)
        assert (got_keys == keys).all()
        sig_bytes = [sigs[i].tobytes() for i in range(len(docs)) for _ in range(16)]
        assert out["sig"].to_pylist() == sig_bytes


class TestParagraphDedup:
    def test_keep_first_and_reassemble(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.dedup import dedup_paragraphs

        docs = pd.DataFrame(
            {
                "doc_id": pd.array([1, 2], dtype="int64"),
                "text": ["aa\n\nbb\n\naa\n\ncc",  # within-doc dup of aa
                         "bb\n\ndd"],             # cross-doc dup of bb
            }
        )
        kept = (
            dedup_paragraphs(rd.from_pandas(docs), reassemble=False)
            .to_pandas().sort_values(["doc_id", "para_idx"])
        )
        assert list(zip(kept.doc_id, kept.para_idx, kept.para)) == [
            (1, 1, "aa"), (1, 2, "bb"), (1, 4, "cc"), (2, 2, "dd")
        ]
        re = (
            dedup_paragraphs(rd.from_pandas(docs))
            .to_pandas().sort_values("doc_id").set_index("doc_id")["text_dedup"]
        )
        assert re.to_dict() == {1: "aa\n\nbb\n\ncc", 2: "dd"}

    def test_all_dropped_doc_vanishes(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.dedup import dedup_paragraphs

        docs = pd.DataFrame(
            {
                "doc_id": pd.array([1, 2], dtype="int64"),
                "text": ["xx", "xx"],  # doc 2's only paragraph is a dup
            }
        )
        re = dedup_paragraphs(rd.from_pandas(docs)).to_pandas()
        assert re.set_index("doc_id")["text_dedup"].to_dict() == {1: "xx"}


class TestMinhashCandidatePaths:
    def test_three_key_paths_equivalent(self, ray_session):
        # the multi-bucket key set must never be forced through the
        # driver on dup-heavy corpora: driver count-merge + broadcast
        # (default), distributed count + broadcast, and distributed
        # count + semi-join must all emit the SAME candidate pairs
        docs = _mk_docs(1_500, 12)
        ds = rd.from_pandas(docs).repartition(6)

        def pairs(**kw):
            out = dedup.minhash_candidates(ds, "text", "doc_id", **kw)
            df = out.to_pandas().drop_duplicates(["id_a", "id_b"])
            return sorted(map(tuple, df[["id_a", "id_b"]].to_numpy()))

        a = pairs()
        b = pairs(driver_merge_rows=0)                      # distributed count
        c = pairs(driver_merge_rows=0, max_keys_broadcast=0)  # semi-join keys
        assert a == b == c
        assert len(a) >= 12  # the planted near-dup pairs are all there


def _reference_bucket_pairs(df: pd.DataFrame, max_bucket: int) -> pd.DataFrame:
    """The per-band-key pandas function :func:`dedup._bucket_pairs`
    replaced, run over every key of ``df`` in input order."""
    out = [pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                         "id_b": pd.Series(dtype=np.int64),
                         "est_sim": pd.Series(dtype=np.float64)})]
    for _, g in df.groupby("band_key", sort=False):
        g = g.drop_duplicates(subset=["doc_id"]).sort_values("doc_id")
        n = len(g)
        if n > max_bucket or n < 2:
            continue
        ids = g["doc_id"].to_numpy()
        mat = np.stack([np.frombuffer(s, dtype=np.uint64) for s in g["sig"]])
        ii, jj = np.triu_indices(n, k=1)
        est = (mat[ii] == mat[jj]).mean(axis=1)
        out.append(pd.DataFrame({"id_a": ids[ii], "id_b": ids[jj], "est_sim": est}))
    return pd.concat(out, ignore_index=True)


def _canon_pairs(df: pd.DataFrame) -> np.ndarray:
    """(id_a, id_b, est_sim bits) rows, sorted: a bit-exact multiset."""
    m = np.stack([df["id_a"].to_numpy(np.int64), df["id_b"].to_numpy(np.int64),
                  df["est_sim"].to_numpy(np.float64).view(np.int64)], axis=1)
    return m[np.lexsort(m.T[::-1])]


class TestBucketPairsKernel:
    """The vectorized MinHash-LSH exchange kernel emits the same
    (id_a, id_b, est_sim) multiset, bit for bit, as the per-key pandas
    function it replaced. No Ray session."""

    N_PERM = 8

    def _table(self, keys, ids, seed: int = 3) -> pd.DataFrame:
        # one signature per id; slot values from a tiny alphabet so the
        # estimated similarities spread over (0, 1]
        rng = np.random.default_rng(seed)
        ids = np.asarray(ids, dtype=np.int64)
        sigs = {int(i): rng.integers(0, 3, self.N_PERM).astype(np.uint64).tobytes()
                for i in np.unique(ids)}
        return pd.DataFrame({"doc_id": ids,
                             "band_key": np.asarray(keys, dtype=np.int64),
                             "sig": [sigs[int(i)] for i in ids]})

    def _check(self, df: pd.DataFrame, max_bucket: int, table: pa.Table = None):
        t = table if table is not None else pa.Table.from_pandas(df, preserve_index=False)
        got = dedup._bucket_pairs(t, id_col="doc_id", n_perm=self.N_PERM,
                                  max_bucket=max_bucket)
        assert got.schema == dedup._CAND_SCHEMA
        ref = _reference_bucket_pairs(df, max_bucket)
        assert np.array_equal(_canon_pairs(got.to_pandas()), _canon_pairs(ref))
        return got

    def test_seeded_random_tables(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(50, 3_000))
            # ids repeat inside a key (repeated (key, id) rows) and most
            # keys are singletons
            df = self._table(rng.integers(0, n // 2, n), rng.integers(0, n // 3, n), seed)
            assert len(self._check(df, max_bucket=6)) > 0

    def test_singletons_and_max_bucket_edges(self):
        mb = 5
        keys = [7] * mb + [8] * (mb + 1) + [9, 10, 11]  # exact cap, cap + 1, singletons
        ids = list(range(mb)) + list(range(100, 100 + mb + 1)) + [1, 2, 3]
        got = self._check(self._table(keys, ids), max_bucket=mb)
        assert len(got) == mb * (mb - 1) // 2  # only the key at the cap
        # 8 rows but 5 distinct ids (the cap) emit; repeats of one id
        # alone emit nothing
        got = self._check(self._table([1] * 8 + [2, 2], [4, 5, 4, 6, 5, 7, 8, 4, 9, 9]),
                          max_bucket=mb)
        assert len(got) == 10

    def test_empty_table(self):
        df = self._table([], [])
        t = pa.table({"doc_id": pa.array([], pa.int64()),
                      "band_key": pa.array([], pa.int64()),
                      "sig": pa.array([], pa.binary())})
        assert len(self._check(df, max_bucket=4, table=t)) == 0

    def test_sliced_and_chunked_signatures(self):
        rng = np.random.default_rng(11)
        df = self._table(rng.integers(0, 40, 400), rng.integers(0, 150, 400))
        t = pa.Table.from_pandas(df, preserve_index=False)
        # a slice: every column starts at an offset into its buffers
        sliced = pa.Table.from_pandas(pd.concat([df.iloc[:3], df]),
                                      preserve_index=False).slice(3)
        assert sliced["sig"].num_chunks == 1 and sliced["sig"].chunks[0].offset == 3
        self._check(df, max_bucket=8, table=sliced)
        # several chunks, the middle one sliced
        parts = pa.concat_tables([t.slice(0, 97), t.slice(97, 150), t.slice(247)])
        assert parts["sig"].num_chunks == 3
        self._check(df, max_bucket=8, table=parts)

    def test_compare_chunks(self, monkeypatch):
        # one bucket of 120 ids holds 7,140 pairs: more than a compare
        # chunk of 1,000, so the chunk loop runs 8 steps with a ragged tail
        monkeypatch.setattr(dedup, "_PAIR_CHUNK", 1_000)
        rng = np.random.default_rng(5)
        ids = rng.permutation(120)
        df = self._table(np.r_[np.full(120, 3), rng.integers(10, 30, 60)],
                         np.r_[ids, rng.integers(0, 120, 60)])
        assert len(self._check(df, max_bucket=120)) > 1_000

    def test_bad_signature_width_raises(self):
        df = self._table([1, 1], [1, 2])
        df.loc[1, "sig"] = df.loc[1, "sig"][:-8]
        with pytest.raises(pa.ArrowInvalid):
            dedup._bucket_pairs(pa.Table.from_pandas(df, preserve_index=False),
                                id_col="doc_id", n_perm=self.N_PERM, max_bucket=4)


class TestTypedEmptyPairs:
    def test_empty_and_nonempty_schemas_equal(self, ray_session):
        none = pd.DataFrame({"doc_id": [1, 2, 3],
                             "text": ["aa bb cc dd", "ee ff gg hh", "ii jj kk ll"]})
        some = _mk_docs(300, 4)
        for fn in (dedup.minhash_candidates, dedup.simhash_pairs):
            empty = fn(rd.from_pandas(none), "text", "doc_id")
            full = fn(rd.from_pandas(some), "text", "doc_id")
            assert empty.count() == 0 and full.count() > 0
            a, b = empty.schema().base_schema, full.schema().base_schema
            assert a.equals(b, check_metadata=True), (a, b)
            assert not a.metadata  # no pandas schema metadata
