"""Corpus-index operator tests (stages/corpus.py, stages/joins.keyed_gaps).

Oracle parity for q52-q56 is covered by tests/test_queries.py's
check_all sweep; these pin the properties the oracles can't see —
conservation laws, the stop-gram cap's candidate-subset semantics, the
plan each model-size guard picks, and the singleton-key drop rule.
"""

import os

import numpy as np
import ray.data as rd

from ethereum_raw_data_crawler_ray.pipelines.oracle_check import to_pandas
from ethereum_raw_data_crawler_ray.stages import corpus
from ethereum_raw_data_crawler_ray.stages.corpus import (
    inverted_index,
    jaccard_ngram_pairs,
    repetition_stats,
    tfidf_topk,
)
from ethereum_raw_data_crawler_ray.stages.joins import keyed_gaps


def _docs(sf_dir):
    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])


class TestInvertedIndex:
    def test_conservation(self, sf_dir, ray_session):
        """Σ tf over the index == total token occurrences; df ≤ n_docs
        and df ≤ tf for every token."""
        idx = to_pandas(inverted_index(_docs(sf_dir)))
        docs = to_pandas(_docs(sf_dir))
        total_occurrences = int(sum(len(t.split()) for t in docs["text"]))
        assert int(idx["tf"].sum()) == total_occurrences
        assert (idx["df"] <= len(docs)).all()
        assert (idx["df"] <= idx["tf"]).all()
        assert (idx["df"] >= 1).all()


class TestTfidf:
    def test_rank_and_guard(self, sf_dir, ray_session):
        out = to_pandas(tfidf_topk(_docs(sf_dir), k=3))
        per = out.groupby("doc_id")
        assert (per.size() <= 3).all()
        assert (per["rnk"].min() == 1).all()
        # score really is tf * (N / df)
        n = len(to_pandas(_docs(sf_dir)))
        expect = out["tf"].to_numpy(np.float64) * (n / out["df"].to_numpy(np.float64))
        assert (out["score"].to_numpy() == expect).all()

    def test_shuffle_path_bit_identical(self, sf_dir, ray_session,
                                        monkeypatch, spy):
        # past MAX_VOCAB_BROADCAST the shuffle join runs (r03 verdict
        # #3), and it agrees with the broadcast plan bit-for-bit (same
        # per-row float expression on both paths)
        def run():
            return (
                to_pandas(tfidf_topk(_docs(sf_dir), k=3))
                .sort_values(["doc_id", "rnk"])
                .reset_index(drop=True)
            )

        shuffle = spy(corpus, "_tfidf_topk_shuffle")
        b = run()
        assert not shuffle
        monkeypatch.setattr(corpus, "MAX_VOCAB_BROADCAST", 2)
        s = run()
        assert len(shuffle) == 1
        assert list(b.columns) == list(s.columns)
        assert b.equals(s)
        assert len(b) > 0


class TestRepetitionStats:
    def test_bounds(self, sf_dir, ray_session):
        out = to_pandas(repetition_stats(_docs(sf_dir)))
        assert len(out) == 500
        assert (out["n_distinct"] <= out["n_words"]).all()
        assert out["distinct_ratio"].between(0, 1).all()
        # the most common token accounts for at least 1/n_words of mass
        m = out["n_words"] > 0
        assert (out.loc[m, "top_word_frac"] >= 1 / out.loc[m, "n_words"]).all()
        assert out["top_bigram_frac"].between(0, 1).all()


class TestJaccardPairs:
    def test_posting_cap_is_subset(self, sf_dir, ray_session):
        """max_posting degrades exact pairs to candidate generation:
        capped output ⊆ exact output, and pairs sharing only capped
        grams are the ones missed."""
        exact = to_pandas(jaccard_ngram_pairs(_docs(sf_dir), threshold=0.5))
        capped = to_pandas(
            jaccard_ngram_pairs(_docs(sf_dir), threshold=0.5, max_posting=2)
        )
        e = set(zip(exact["id_a"], exact["id_b"]))
        # a fully-capped run can be empty; 0-row pandas conversion drops cols
        c = set(zip(capped["id_a"], capped["id_b"])) if len(capped) else set()
        assert c <= e
        assert len(e) > 0  # the corpus plants near-dup pairs

    def test_agrees_with_textstats_kernel(self, sf_dir, ray_session):
        """Every emitted jaccard equals the scalar verification kernel
        q27 uses (same gram hash, same division)."""
        from ethereum_raw_data_crawler_ray.functions.textstats import (
            jaccard_hashed,
            word_gram_hash_set,
        )

        pairs = to_pandas(jaccard_ngram_pairs(_docs(sf_dir), threshold=0.5))
        docs = to_pandas(_docs(sf_dir)).set_index("doc_id")["text"]
        for r in pairs.itertuples():
            ja = jaccard_hashed(
                word_gram_hash_set(docs[r.id_a]), word_gram_hash_set(docs[r.id_b])
            )
            assert ja == r.jaccard


class TestKeyedGaps:
    def test_singletons_dropped_and_counts(self, sf_dir, ray_session):
        ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                             columns=["user_id", "ts"])
        out = to_pandas(keyed_gaps(ev, by="user_id", ts_col="ts"))
        per_user = to_pandas(ev).groupby("user_id").size()
        multi = per_user[per_user >= 2]
        assert set(out["user_id"]) == set(multi.index)
        merged = out.set_index("user_id")["n_events"]
        assert (merged.sort_index() == multi.sort_index()).all()
        assert (out["min_gap_us"] <= out["max_gap_us"]).all()
        assert (out["avg_gap_us"] >= out["min_gap_us"]).all()
        assert (out["avg_gap_us"] <= out["max_gap_us"]).all()


class TestLmScore:
    def test_in_domain_scores_higher(self, ray_session):
        """A document made of the training corpus's common bigrams must
        out-score one made of never-seen word pairs; both deterministic."""
        import pandas as pd

        from ethereum_raw_data_crawler_ray.stages.corpus import lm_score

        train = pd.DataFrame(
            {
                "doc_id": pd.array(range(50), dtype="int64"),
                "text": ["the quick fox jumps over the lazy dog"] * 25
                + ["a quiet stream flows past the old mill"] * 25,
            }
        )
        score = pd.DataFrame(
            {
                "doc_id": pd.array([0, 1, 2], dtype="int64"),
                "text": [
                    "the quick fox jumps",          # in-domain bigrams
                    "dog lazy the over jumps fox",  # seen words, unseen order
                    "zz yy xx ww",                  # unseen vocabulary
                ],
            }
        )
        out = (
            lm_score(rd.from_pandas(train), rd.from_pandas(score))
            .to_pandas().set_index("doc_id")["avg_logp"]
        )
        # in-domain text beats both corruptions; note add-α smoothing
        # penalizes an unseen bigram after a FREQUENT word harder than
        # unseen vocabulary (denominator c_uni + αV), so doc1 vs doc2
        # ordering is a smoothing artifact, not asserted
        assert out[0] > out[1] and out[0] > out[2]
        assert out[0] > -1.0  # in-domain bigrams are all high-probability
        again = (
            lm_score(rd.from_pandas(train), rd.from_pandas(score))
            .to_pandas().set_index("doc_id")["avg_logp"]
        )
        assert (out.sort_index() == again.sort_index()).all()

    def test_short_docs_zero(self, ray_session):
        import pandas as pd

        from ethereum_raw_data_crawler_ray.stages.corpus import lm_score

        train = pd.DataFrame({"doc_id": pd.array([0], dtype="int64"),
                              "text": ["a b c"]})
        score = pd.DataFrame({"doc_id": pd.array([0, 1], dtype="int64"),
                              "text": ["a", "a b"]})
        out = lm_score(rd.from_pandas(train), rd.from_pandas(score)).to_pandas()
        one = out.set_index("doc_id")
        assert one.loc[0, "n_bigrams"] == 0 and one.loc[0, "avg_logp"] == 0.0
        assert one.loc[1, "n_bigrams"] == 1 and one.loc[1, "avg_logp"] < 0.0

    def test_shuffle_path_matches_broadcast(self, sf_dir, ray_session,
                                            monkeypatch, spy):
        def run():
            return (
                corpus.lm_score(_docs(sf_dir), _docs(sf_dir))
                .to_pandas()
                .sort_values("doc_id")
                .reset_index(drop=True)
            )

        shuffle = spy(corpus, "_lm_score_shuffle")
        b = run()
        assert not shuffle
        # past MAX_MODEL_BROADCAST model rows the shuffle join runs
        monkeypatch.setattr(corpus, "MAX_MODEL_BROADCAST", 2)
        s = run()
        assert len(shuffle) == 1
        assert (b["doc_id"] == s["doc_id"]).all()
        assert (b["n_bigrams"] == s["n_bigrams"]).all()
        # the shuffle path groups equal bigrams before the log, so the
        # sum associates differently — equal to roundoff, not bit-exact
        np.testing.assert_allclose(b["avg_logp"], s["avg_logp"], rtol=1e-12, atol=1e-12)


class TestKeyedGapsStringKeys:
    def test_string_by_column(self, ray_session):
        import pandas as pd

        ev = pd.DataFrame(
            {
                "host": ["a.com", "a.com", "b.com", "a.com", "b.com", "c.com"],
                "ts": pd.to_datetime(
                    ["2024-01-01 00:00:00", "2024-01-01 00:00:10",
                     "2024-01-01 00:00:05", "2024-01-01 00:00:25",
                     "2024-01-01 00:00:35", "2024-01-01 00:01:00"]
                ).astype("datetime64[us]"),
            }
        )
        out = (
            keyed_gaps(rd.from_pandas(ev), by="host", ts_col="ts")
            .to_pandas().set_index("host")
        )
        # c.com has one event -> dropped; gaps in microseconds
        assert set(out.index) == {"a.com", "b.com"}
        assert out.loc["a.com", "n_events"] == 3
        assert out.loc["a.com", "min_gap_us"] == 10_000_000
        assert out.loc["a.com", "max_gap_us"] == 15_000_000
        assert out.loc["b.com", "n_gaps"] == 1
        assert out.loc["b.com", "max_gap_us"] == 30_000_000


class TestDecontaminate:
    def test_flags_overlap_only(self, ray_session):
        import pandas as pd

        from ethereum_raw_data_crawler_ray.stages.corpus import decontaminate

        bench = pd.DataFrame({"doc_id": pd.array([100], dtype="int64"),
                              "text": ["alpha beta gamma delta epsilon"]})
        corpus = pd.DataFrame(
            {
                "doc_id": pd.array([1, 2, 3, 4], dtype="int64"),
                "text": [
                    "alpha beta gamma delta epsilon zeta",  # 3 shared 3-grams
                    "alpha beta gamma unrelated words here",  # 1 shared
                    "totally different text with no overlap at all",  # 0
                    "xx",  # < k tokens → no grams
                ],
            }
        )
        out = (
            decontaminate(rd.from_pandas(corpus), rd.from_pandas(bench),
                          k=3, min_shared=2)
            .to_pandas().set_index("doc_id")["n_shared"]
        )
        assert out.to_dict() == {1: 3}
        # min_shared=1 also catches doc 2
        out1 = (
            decontaminate(rd.from_pandas(corpus), rd.from_pandas(bench),
                          k=3, min_shared=1)
            .to_pandas().set_index("doc_id")["n_shared"]
        )
        assert out1.to_dict() == {1: 3, 2: 1}


class TestPackSequences:
    def test_invariants(self, sf_dir, ray_session):
        from ethereum_raw_data_crawler_ray.stages.corpus import pack_sequences

        max_tokens = 128
        out = to_pandas(pack_sequences(_docs(sf_dir), max_tokens=max_tokens))
        docs = to_pandas(_docs(sf_dir))
        # every document packed exactly once, token counts correct
        assert sorted(out["doc_id"]) == sorted(docs["doc_id"])
        ref_counts = {
            r.doc_id: len([w for w in r.text.split(" ") if w])
            for r in docs.itertuples()
        }
        assert all(ref_counts[r.doc_id] == r.n_tokens for r in out.itertuples())
        # no bin overflows (a bin may hold ONE oversized doc)
        per_bin = out.groupby("bin_id").agg(tot=("n_tokens", "sum"),
                                            n=("n_tokens", "size"))
        over = per_bin[per_bin["tot"] > max_tokens]
        assert (over["n"] == 1).all()
        # bin_pos is a clean 0..k-1 sequence within each bin
        for _, g in out.groupby("bin_id"):
            assert sorted(g["bin_pos"]) == list(range(len(g)))
        # utilization sanity: next-fit wastes < one doc per bin on average
        multi = per_bin[per_bin["n"] > 1]
        assert multi["tot"].mean() > max_tokens * 0.5

    def test_partition_invariant_and_next_fit(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.corpus import pack_sequences

        docs = pd.DataFrame(
            {
                "doc_id": pd.array(range(8), dtype="int64"),
                "text": ["w " * n for n in (3, 4, 5, 10, 2, 2, 9, 1)],
            }
        )
        a = to_pandas(pack_sequences(rd.from_pandas(docs).repartition(1),
                                     max_tokens=10, n_buckets=1))
        b = to_pandas(pack_sequences(rd.from_pandas(docs).repartition(5),
                                     max_tokens=10, n_buckets=1))
        a = a.sort_values("doc_id").reset_index(drop=True)
        b = b.sort_values("doc_id").reset_index(drop=True)
        assert a.equals(b)  # packing is partition-invariant
        # next-fit reference, docs in id order, counts 3,4,5,10,2,2,9,1:
        # bin0=[3,4] (+5 overflows) | bin1=[5] (+10 overflows) |
        # bin2=[10] (full) | bin3=[2,2] (+9 overflows) | bin4=[9,1] full
        expect = {0: 0, 1: 0, 2: 1, 3: 2, 4: 3, 5: 3, 6: 4, 7: 4}
        got = dict(zip(a["doc_id"], a["bin_id"]))
        assert got == expect

    def test_null_text_counts_zero(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.corpus import pack_sequences

        docs = pd.DataFrame(
            {"doc_id": pd.array([1, 2, 3], dtype="int64"),
             "text": ["a b c", None, "d e"]}
        )
        out = to_pandas(pack_sequences(rd.from_pandas(docs), max_tokens=4,
                                       n_buckets=1)).set_index("doc_id")
        assert out.loc[2, "n_tokens"] == 0
        assert sorted(out.index) == [1, 2, 3]  # exactly-once incl. null doc
        per_bin = out.groupby("bin_id")["n_tokens"].sum()
        assert (per_bin <= 4).all()


class TestTopBigrams:
    def test_counts_ties_and_empties(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.corpus import top_bigrams

        df = pd.DataFrame({
            "doc_id": [0, 1, 2],
            # doc 0: "a b" x2 via overlap; double space must not mint
            # '' tokens ("x  y" pairs as "x y")
            "text": ["a b a b", "x  y", "b a b"],
        })
        out = top_bigrams(rd.from_pandas(df), k=3)
        ref = {"a b": 3, "b a": 2, "x y": 1}
        got = dict(zip(out["bigram"], out["cnt"]))
        assert got == ref
        # tie at the k boundary: deterministic (cnt DESC, bigram ASC)
        out2 = top_bigrams(rd.from_pandas(df), k=2)
        assert out2["bigram"].tolist() == ["a b", "b a"]
        # bigrams never span documents
        assert "b x" not in got and "y b" not in got

    def test_bucket_and_partition_invariance(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.corpus import top_bigrams

        rng = np.random.default_rng(13)
        words = np.array(["the", "cat", "sat", "on", "mat", "dog"])
        docs = [" ".join(rng.choice(words, rng.integers(2, 40)))
                for _ in range(300)]
        df = pd.DataFrame({"doc_id": np.arange(300), "text": docs})
        outs = [
            top_bigrams(rd.from_pandas(df).repartition(p), k=10,
                        n_buckets=b)
            for p, b in ((1, 1), (7, 16))
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_empty_corpus(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.corpus import top_bigrams

        df = pd.DataFrame({"doc_id": [0, 1], "text": ["solo", ""]})
        out = top_bigrams(rd.from_pandas(df), k=5)
        assert out.empty


class TestCleanCorpus:
    def test_gates_and_dedup(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.corpus import clean_corpus

        good = " ".join(f"w{i}" for i in range(30))          # passes
        shorty = "a b c"                                     # < 20 words
        repet = " ".join(["spam"] * 30)                      # top 100%
        lowdiv = " ".join(["a"] * 5 + ["b"] * 5 + ["c"] * 20)  # 3/30 distinct
        df = pd.DataFrame({
            "doc_id": [5, 1, 2, 3, 4],
            "text": [good, good, shorty, repet, lowdiv],
        })
        out = (clean_corpus(rd.from_pandas(df).repartition(3))
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
        # only the good text survives, deduped to the min id
        assert out["doc_id"].tolist() == [1]
        assert out["n_words"].tolist() == [30]

    def test_double_space_and_boundaries(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.corpus import clean_corpus

        # exactly at the gates: 20 words, exactly 30% distinct (6/20),
        # top exactly 10% (2/20)
        words = ([f"u{i}" for i in range(4)] * 4  # 4 distinct x4 = 16
                 + ["x", "x", "y", "z"])          # + 4 more, x twice
        txt = "  ".join(words)                    # double spaces: no '' tokens
        df = pd.DataFrame({"doc_id": [9], "text": [txt]})
        out = clean_corpus(rd.from_pandas(df)).to_pandas()
        # n=20, distinct=7 (u0..u3,x,y,z) -> 70>=60 ok; top=5 ('u0'..=4? )
        # recompute: u0..u3 each 4x -> top=4; 10*4=40 <= 20? NO -> dropped
        assert len(out) == 0


class TestGramNovelty:
    def test_bruteforce_and_invariance(self, ray_session):
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from ethereum_raw_data_crawler_ray.stages.corpus import gram_novelty

        docs = {
            0: "a b c d e",        # grams abc bcd cde
            1: "a b c x y",        # shares abc with 0
            2: "p q r s",          # all unique
            3: "a b",              # < 3 tokens -> excluded
        }
        df = pd.DataFrame({"doc_id": list(docs), "text": list(docs.values())})
        out = (gram_novelty(rd.from_pandas(df).repartition(2), k=3)
               .to_pandas().set_index("doc_id").sort_index())
        assert 3 not in out.index
        # doc 0: 3 grams, 'a b c' shared -> 2 unique
        assert out.loc[0, "n_grams"] == 3 and out.loc[0, "n_unique"] == 2
        assert out.loc[1, "n_grams"] == 3 and out.loc[1, "n_unique"] == 2
        assert out.loc[2, "n_grams"] == 2 and out.loc[2, "novelty"] == 1.0
        assert abs(out.loc[0, "novelty"] - 2 / 3) < 1e-15
        # bucket invariance
        out1 = (gram_novelty(rd.from_pandas(df), k=3, n_buckets=1)
                .to_pandas().set_index("doc_id").sort_index())
        pd.testing.assert_frame_equal(out, out1)
