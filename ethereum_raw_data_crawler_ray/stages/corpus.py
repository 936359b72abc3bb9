"""Corpus-level text-index operators for training-data pipelines:
inverted-index vocabulary statistics, TF-IDF distinctive terms,
repetition/quality statistics (the Gopher-style repetition signals of
Rae et al. 2021, arXiv:2112.11446 — public), and EXACT n-gram Jaccard
near-dup pairs via a distributed inverted-gram join.

These extend the engine beyond the reference's operator set for the
web-text training-data axis (the reference's payload handling stops at
the raw entity fields, internal/domain/entity/block.go:1-45 — it has no
content-analysis operators at all); each has a
DuckDB oracle (q52-q55) because every step is integer counting plus one
IEEE-754 division/multiplication, both of which are correctly rounded
and therefore bit-identical across engines.

Scale notes (the partitioning contracts, per SURVEY.md §2.11):

- ``inverted_index``: per-batch (token, doc) pre-aggregation means the
  shuffle moves one row per DISTINCT (token, doc) pair, never one per
  occurrence; the final groupby is vocabulary×avg-df sized.
- ``tfidf_topk`` / ``lm_score``: the model table (document
  frequencies / n-gram counts) is broadcast via ``ray.put`` (read once
  per actor, not per batch) while it fits — natural-language
  vocabularies are ≤ ~10M tokens.  Past :data:`MAX_VOCAB_BROADCAST` /
  :data:`MAX_MODEL_BROADCAST` rows (a web-garbage vocabulary is 10⁸+
  entries) both run the token-keyed shuffle-join scale path (one bucketed
  exchange of thin gram rows against the model; documents never
  shuffle) — equivalence-tested against the broadcast path.
- ``repetition_stats``: embarrassingly parallel, no shuffle; the only
  per-row Python is the per-document Counter, which is inherent to
  variable-length text (same stance as functions/textstats.enrich_batch).
- ``jaccard_ngram_pairs``: the exact-set-similarity plan that does NOT
  compare all N² documents — explode distinct grams, bucket-join on
  gram (pairs emitted per posting list), then one thin pair-count
  shuffle. Work is Σ_g df(g)², so a stop-gram (a gram occurring in a
  large fraction of the corpus) is the skew risk; ``max_posting`` caps
  it, trading exactness for candidate-generation semantics (verify the
  survivors with :func:`..functions.textstats.jaccard_hashed` as
  stages/dedup.near_dup_groups does).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..functions.broadcast import get_broadcast
from ..functions.hashing import hash_strings
from .joins import exchange

__all__ = [
    "inverted_index",
    "tfidf_topk",
    "repetition_stats",
    "jaccard_ngram_pairs",
    "lm_score",
    "decontaminate",
    "pack_sequences",
]


# --------------------------------------------------------------------------
# tokenization shared by the index operators
# --------------------------------------------------------------------------
def _explode_tokens(t: pa.Table, text_col: str, id_col: str) -> pd.DataFrame:
    """(doc_id, token) occurrence rows for one batch — Arrow split +
    flatten (no per-row Python), empty tokens dropped so a stray double
    space can never mint a '' vocabulary entry."""
    toks = pc.split_pattern(t[text_col].combine_chunks(), pattern=" ")
    flat = toks.flatten()
    doc_idx = pc.list_parent_indices(toks)
    ids = np.asarray(t[id_col].to_pandas(), dtype=np.int64)
    df = pd.DataFrame(
        {
            "doc_id": ids[np.asarray(doc_idx)],
            "token": flat.to_pandas(),
        }
    )
    return df[df["token"] != ""]


def _per_doc_tf(t: pa.Table, text_col: str, id_col: str) -> pd.DataFrame:
    """(doc_id, token, tf) — per-batch pre-aggregation. A document never
    spans batches (rows are atomic), so batch-local counts are already
    the global per-document term frequencies."""
    occ = _explode_tokens(t, text_col, id_col)
    return (
        occ.groupby(["doc_id", "token"], sort=False)
        .size()
        .rename("tf")
        .reset_index()
    )


# --------------------------------------------------------------------------
# inverted index (vocabulary statistics)
# --------------------------------------------------------------------------
def inverted_index(ds: rd.Dataset, text_col: str = "text",
                   id_col: str = "doc_id",
                   n_buckets: int | None = None) -> rd.Dataset:
    """Vocabulary table (token, df, tf): document frequency and total
    term frequency per whitespace token.

    One shuffle, carrying one row per distinct (token, document) pair —
    the per-batch ``groupby(doc, token).size()`` pre-aggregation is the
    combiner, so occurrence counts never leave the map task.  The
    reduce side is hash-BUCKETED (~2×CPU groups, pandas C-kernel
    groupby inside), not ``groupby(token).aggregate``: a web-scale
    vocabulary is 10⁸+ singleton-dominated keys and Ray's sort-based
    aggregate pays per-KEY overhead there, while the per-bucket cost is
    per-ROW.
    """

    def stage(t: pa.Table) -> pa.Table:
        per = _per_doc_tf(t, text_col, id_col)
        return pa.table(
            {
                "token": pa.array(per["token"], type=pa.string()),
                "tf_doc": pa.array(per["tf"].to_numpy(np.int64), type=pa.int64()),
            }
        )

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = (
            g.groupby("token", sort=False)
            .agg(df=("tf_doc", "size"), tf=("tf_doc", "sum"))
            .reset_index()
        )
        return agg.astype({"df": np.int64, "tf": np.int64})

    return exchange(ds.map_batches(stage, batch_format="pyarrow"), "token",
                    reduce_bucket, n_buckets=n_buckets)


# --------------------------------------------------------------------------
# TF-IDF distinctive terms
# --------------------------------------------------------------------------
# vocabulary rows up to which tfidf_topk broadcasts the df table
MAX_VOCAB_BROADCAST = 10_000_000


def tfidf_topk(ds: rd.Dataset, text_col: str = "text", id_col: str = "doc_id",
               k: int = 3, n_buckets: int | None = None) -> rd.Dataset:
    """Top-``k`` most distinctive terms per document, scored
    ``tf × (N / df)`` (a log-free inverse-document-frequency variant:
    one division and one multiplication, both correctly rounded IEEE-754,
    so the score is bit-identical to the SQL oracle — ``log`` is NOT
    correctly rounded across libm implementations and would make the
    oracle flaky; raw tf and df ship in the output so callers can apply
    any idf curve downstream).

    Model distribution: up to :data:`MAX_VOCAB_BROADCAST` vocabulary
    rows the df table ships once per worker via ``ray.put`` (the right
    plan for natural-language vocabularies, ≤ ~10M tokens) — scoring is
    then a shuffle-free map with per-batch top-k.  Past it,
    :func:`_tfidf_topk_shuffle` runs the web-garbage-vocabulary scale
    path (10⁸+ tokens).  Both paths compute the identical per-row float
    expression, so their outputs are bit-identical (equivalence-tested).

    Returns (doc_id, token, tf, df, score, rnk), rnk 1-based.
    """
    import ray

    idx = inverted_index(ds, text_col, id_col).materialize()
    n_docs = float(ds.count())
    # size check BEFORE any driver pull: count() on the materialized
    # index is metadata-only, so an oversized vocabulary reroutes
    # without shipping a row
    if idx.count() > MAX_VOCAB_BROADCAST:
        return _tfidf_topk_shuffle(ds, idx, text_col, id_col, k, n_docs,
                                   n_buckets)
    df_tab = idx.take_all()
    df_map = {r["token"]: r["df"] for r in df_tab}
    df_ref = ray.put(df_map)

    def score_stage(t: pa.Table, *, df_ref, n_docs: float, k: int) -> pa.Table:
        dfm = get_broadcast(df_ref)  # fetched once per worker process
        per = _per_doc_tf(t, text_col, id_col)
        dfv = per["token"].map(dfm).to_numpy(np.int64)
        tf = per["tf"].to_numpy(np.int64)
        score = tf.astype(np.float64) * (n_docs / dfv.astype(np.float64))
        per = per.assign(df=dfv, score=score)
        # per-doc top-k: score desc, token asc — a lexsort + stable
        # group-head take, no per-group pandas apply
        per = per.sort_values(["doc_id", "score", "token"],
                              ascending=[True, False, True], kind="mergesort")
        rnk = per.groupby("doc_id", sort=False).cumcount() + 1
        keep = per[rnk <= k]
        return pa.table(
            {
                "doc_id": pa.array(keep["doc_id"].to_numpy(np.int64), type=pa.int64()),
                "token": pa.array(keep["token"], type=pa.string()),
                "tf": pa.array(keep["tf"].to_numpy(np.int64), type=pa.int64()),
                "df": pa.array(keep["df"].to_numpy(np.int64), type=pa.int64()),
                "score": pa.array(keep["score"].to_numpy(np.float64), type=pa.float64()),
                "rnk": pa.array((rnk[rnk <= k]).to_numpy(np.int64), type=pa.int64()),
            }
        )

    return ds.map_batches(
        score_stage, batch_format="pyarrow",
        fn_kwargs=dict(df_ref=df_ref, n_docs=n_docs, k=k),
    )


def _tfidf_topk_shuffle(ds: rd.Dataset, idx: rd.Dataset, text_col: str,
                        id_col: str, k: int, n_docs: float,
                        n_buckets: int | None) -> rd.Dataset:
    """Shuffle-join TF-IDF scale path (vocabulary too large to
    broadcast): per-doc tf rows ⋈ df table on token (one bucketed
    exchange via :func:`~.joins.hash_join` — inner join is exact here
    because every tf token is by construction in the vocabulary), then
    a doc-keyed bucket exchange for the per-doc top-k.  Same float
    expression as the broadcast path ⇒ bit-identical output."""
    from .joins import hash_join

    def tf_stage(t: pa.Table) -> pa.Table:
        per = _per_doc_tf(t, text_col, id_col)
        return pa.table(
            {
                "doc_id": pa.array(per["doc_id"].to_numpy(np.int64), type=pa.int64()),
                "token": pa.array(per["token"], type=pa.string()),
                "tf": pa.array(per["tf"].to_numpy(np.int64), type=pa.int64()),
            }
        )

    joined = hash_join(
        ds.map_batches(tf_stage, batch_format="pyarrow"),
        idx,
        on="token",
        right_cols=["df"],
        how="inner",
        left_fields=[pa.field("doc_id", pa.int64()),
                     pa.field("token", pa.string()),
                     pa.field("tf", pa.int64())],
        right_fields=[pa.field("token", pa.string()),
                      pa.field("df", pa.int64())],
        n_buckets=n_buckets,
    )

    def score(t: pa.Table) -> pa.Table:
        doc = np.asarray(t["doc_id"].to_pandas(), dtype=np.int64)
        tf = np.asarray(t["tf"].to_pandas(), dtype=np.int64)
        dfv = np.asarray(t["df"].to_pandas(), dtype=np.int64)
        score = tf.astype(np.float64) * (n_docs / dfv.astype(np.float64))
        return pa.table(
            {
                "doc_id": pa.array(doc, type=pa.int64()),
                "token": t["token"].combine_chunks(),
                "tf": pa.array(tf, type=pa.int64()),
                "df": pa.array(dfv, type=pa.int64()),
                "score": pa.array(score, type=pa.float64()),
            }
        )

    def topk_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "score", "token"],
                          ascending=[True, False, True], kind="mergesort")
        rnk = g.groupby("doc_id", sort=False).cumcount() + 1
        keep = g[rnk <= k]
        return pd.DataFrame(
            {
                "doc_id": keep["doc_id"].to_numpy(np.int64),
                "token": keep["token"].to_numpy(),
                "tf": keep["tf"].to_numpy(np.int64),
                "df": keep["df"].to_numpy(np.int64),
                "score": keep["score"].to_numpy(np.float64),
                "rnk": rnk[rnk <= k].to_numpy(np.int64),
            }
        )

    return exchange(joined.map_batches(score, batch_format="pyarrow"),
                    "doc_id", topk_bucket, n_buckets=n_buckets)


# --------------------------------------------------------------------------
# repetition / quality statistics
# --------------------------------------------------------------------------
def repetition_stats(ds: rd.Dataset, text_col: str = "text",
                     id_col: str = "doc_id") -> rd.Dataset:
    """Per-document repetition signals (Gopher-style quality filters):
    token count, distinct-token count and ratio, most-common-token mass
    fraction, most-common-word-bigram mass fraction. Shuffle-free.

    All fractions are one integer/integer IEEE division, so they match
    the SQL oracle bit-for-bit. Documents with < 2 tokens define the
    bigram fraction as 0.0 on both sides.
    """

    def stage(t: pa.Table) -> pa.Table:
        from collections import Counter

        texts = t[text_col].to_pylist()
        ids = np.asarray(t[id_col].to_pandas(), dtype=np.int64)
        n = len(texts)
        n_words = np.empty(n, np.int64)
        n_distinct = np.empty(n, np.int64)
        top_word = np.empty(n, np.int64)
        top_bigram = np.empty(n, np.float64)
        for i, x in enumerate(texts):
            w = [tok for tok in x.split(" ") if tok]
            c = Counter(w)
            n_words[i] = len(w)
            n_distinct[i] = len(c)
            top_word[i] = max(c.values()) if c else 0
            if len(w) >= 2:
                bc = Counter(zip(w, w[1:]))
                top_bigram[i] = max(bc.values()) / float(len(w) - 1)
            else:
                top_bigram[i] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            distinct_ratio = np.where(
                n_words > 0, n_distinct / n_words.astype(np.float64), 0.0
            )
            top_word_frac = np.where(
                n_words > 0, top_word / n_words.astype(np.float64), 0.0
            )
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_words": pa.array(n_words, type=pa.int64()),
                "n_distinct": pa.array(n_distinct, type=pa.int64()),
                "distinct_ratio": pa.array(distinct_ratio, type=pa.float64()),
                "top_word_frac": pa.array(top_word_frac, type=pa.float64()),
                "top_bigram_frac": pa.array(top_bigram, type=pa.float64()),
            }
        )

    return ds.map_batches(stage, batch_format="pyarrow")


def top_bigrams(ds: rd.Dataset, text_col: str = "text",
                id_col: str = "doc_id", k: int = 50,
                n_buckets: int | None = None) -> pd.DataFrame:
    """Global top-k word bigrams by count — the corpus phrase-statistics
    primitive.  Tokenization: space split, empty tokens dropped (same
    contract as :func:`_explode_tokens`), bigrams pair consecutive
    surviving tokens within a document.

    Scale shape: per-batch ``np.unique`` combiner collapses each
    block's occurrences to (bigram, n) partials; ONE hash-bucket
    exchange co-locates each bigram's partials (buckets partition the
    bigram space); each bucket sums and keeps only its LOCAL top-k —
    valid globally because a bigram's full count lives in exactly one
    bucket — and the driver merges k×n_buckets candidate rows.  Ties
    break deterministically by (count DESC, bigram ASC), mirrored in
    the oracle's ORDER BY … LIMIT k.

    Returns a k-row (bigram, cnt) DataFrame sorted count-desc."""

    def bigram_counts(t: pa.Table) -> pa.Table:
        occ = _explode_tokens(t, text_col, id_col)
        toks = occ["token"].to_numpy()
        doc = occ["doc_id"].to_numpy()
        if len(toks) < 2:
            return pa.table({"bigram": pa.array([], type=pa.string()),
                             "cnt": pa.array([], type=pa.int64())})
        same = doc[1:] == doc[:-1]
        big = np.char.add(np.char.add(toks[:-1].astype(str), " "),
                          toks[1:].astype(str))[same]
        if not big.size:
            return pa.table({"bigram": pa.array([], type=pa.string()),
                             "cnt": pa.array([], type=pa.int64())})
        bg, bc = np.unique(big, return_counts=True)
        return pa.table({"bigram": pa.array(bg, type=pa.string()),
                         "cnt": pa.array(bc.astype(np.int64))})

    def topk_bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("bigram", sort=False)["cnt"].sum().reset_index()
        agg = agg.sort_values(["cnt", "bigram"],
                              ascending=[False, True], kind="mergesort")
        return agg.head(k).astype({"cnt": np.int64})

    cands = exchange(ds.map_batches(bigram_counts, batch_format="pyarrow"),
                     "bigram", topk_bucket, n_buckets=n_buckets).to_pandas()
    if not len(cands):
        return pd.DataFrame({"bigram": pd.Series(dtype=object),
                             "cnt": pd.Series(dtype=np.int64)})
    return (cands.sort_values(["cnt", "bigram"],
                              ascending=[False, True], kind="mergesort")
            .head(k)[["bigram", "cnt"]].reset_index(drop=True))


def clean_corpus(ds: rd.Dataset, text_col: str = "text",
                 id_col: str = "doc_id", *,
                 min_words: int = 20,
                 min_distinct_pct10: int = 3,
                 max_top_pct10: int = 1) -> rd.Dataset:
    """The pretraining-pipeline composition: Gopher-style quality
    filter → exact dedup → clean-corpus emit, all streaming.  Quality
    gates use INTEGER comparisons (``10·n_distinct ≥ pct10·n_words``,
    ``10·top_c ≤ pct10·n_words``) so there is no float boundary to
    drift against the SQL oracle.  Duplicate texts have identical
    stats, so filter-then-dedup equals dedup-then-filter; the dedup
    groups on the text itself (the oracle's key, so two distinct texts
    never merge), keeps the minimum id, and the survivors' shared
    ``n_words`` rides along as a second Min.

    Returns a (doc_id, n_words) Dataset of kept documents."""
    from ray.data.aggregate import Min

    def flt(t: pa.Table) -> pa.Table:
        from collections import Counter

        texts = t[text_col].to_pylist()
        ids = np.asarray(t[id_col].to_pandas(), dtype=np.int64)
        keep_t, keep_id, keep_n = [], [], []
        for i, x in enumerate(texts):
            if x is None:  # NULL text: the oracle's unnest emits no rows
                continue
            c = Counter(tok for tok in x.split(" ") if tok)
            n = sum(c.values())
            if (n >= min_words
                    and 10 * len(c) >= min_distinct_pct10 * n
                    and 10 * max(c.values(), default=0)
                        <= max_top_pct10 * n):
                keep_t.append(x)
                keep_id.append(int(ids[i]))
                keep_n.append(n)
        return pa.table(
            {
                text_col: pa.array(keep_t, type=pa.string()),
                id_col: pa.array(keep_id, type=pa.int64()),
                "n_words": pa.array(keep_n, type=pa.int64()),
            }
        )

    return (
        ds.map_batches(flt, batch_format="pyarrow")
        .groupby(text_col)
        .aggregate(Min(id_col, alias_name=id_col + "_keep"),
                   Min("n_words", alias_name="n_words"))
        .select_columns([id_col + "_keep", "n_words"])
        .rename_columns({id_col + "_keep": id_col})
    )


def gram_novelty(ds: rd.Dataset, text_col: str = "text",
                 id_col: str = "doc_id", k: int = 3,
                 n_buckets: int | None = None) -> rd.Dataset:
    """Per-document k-gram NOVELTY: the share of a document's distinct
    word-k-grams that appear in NO other document — high novelty marks
    fresh content, low novelty marks boilerplate / near-copies (a
    standard curation signal next to dedup).

    Scale shape: the :func:`_gram_rows` inverted-gram stream (distinct
    hashed grams per doc — documents never shuffle) buckets by gram
    hash; a gram's FULL posting list lives in one bucket, so per-bucket
    document frequency is global, and each bucket emits per-doc
    (n_part, unique_part) partials; a thin doc-keyed Sum aggregate
    merges them (Σ n_part = the doc's distinct-gram count).  The
    novelty is one IEEE division of exact int64 counts — bit-equal to
    the oracle's CAST arithmetic.  Documents with < k tokens are
    excluded (no k-gram exists), mirroring the oracle's len filter.
    Returns (doc_id, n_grams, n_unique, novelty) streaming."""
    from ray.data.aggregate import Sum

    def rows(t: pa.Table) -> pa.Table:
        return _gram_rows(t, text_col, id_col, k)

    def bucket_partials(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                                 "n_part": pd.Series(dtype=np.int64),
                                 "u_part": pd.Series(dtype=np.int64)})
        df_cnt = g.groupby("gram")["doc_id"].transform("size")
        p = (g.assign(__u=(df_cnt == 1).astype(np.int64))
             .groupby("doc_id", sort=False)
             .agg(n_part=("__u", "size"), u_part=("__u", "sum"))
             .reset_index())
        return p.astype({"doc_id": np.int64, "n_part": np.int64,
                         "u_part": np.int64})

    agg = (
        exchange(ds.map_batches(rows, batch_format="pyarrow"), "gram",
                 bucket_partials, n_buckets=n_buckets)
        .groupby("doc_id")
        .aggregate(Sum("n_part", alias_name="n_grams"),
                   Sum("u_part", alias_name="n_unique"))
    )

    def final(t: pa.Table) -> pa.Table:
        n = np.asarray(t["n_grams"], dtype=np.int64)
        u = np.asarray(t["n_unique"], dtype=np.int64)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_grams": pa.array(n),
                "n_unique": pa.array(u),
                "novelty": pa.array(u.astype(np.float64)
                                    / n.astype(np.float64)),
            }
        )

    return agg.map_batches(final, batch_format="pyarrow")


# --------------------------------------------------------------------------
# exact n-gram Jaccard pairs (inverted-gram join)
# --------------------------------------------------------------------------
def _gram_rows(t: pa.Table, text_col: str, id_col: str, k: int) -> pa.Table:
    """Distinct word-k-gram hash rows (gram, doc_id, n_grams) for one
    batch. Tokenization is raw whitespace split — the SAME token stream
    as every other corpus.py operator AND the q55 oracle's
    ``string_split(text, ' ')`` (textstats' ``word_gram_hash_set``
    lowercases through ``\\w+``, which would silently diverge from the
    oracle on cased/punctuated text; on the clean corpus the two agree,
    which the kernel-parity test pins). Documents with < k tokens are
    excluded (no k-gram exists) — the oracle's ``len(w) >= k`` filter.
    n_grams rides on every row so the pair stage needs no side lookup."""
    from ..functions.textstats import _rolling_poly

    texts = t[text_col].to_pylist()
    ids = np.asarray(t[id_col].to_pandas(), dtype=np.int64)
    grams, out_ids, out_n = [], [], []
    for i, x in enumerate(texts):
        w = [tok for tok in x.split(" ") if tok]
        if len(w) < k:
            continue
        g = np.unique(_rolling_poly(hash_strings(w), k))
        grams.append(g)
        out_ids.append(np.full(g.size, ids[i], np.int64))
        out_n.append(np.full(g.size, g.size, np.int64))
    if not grams:
        return pa.table(
            {
                "gram": pa.array([], type=pa.int64()),
                "doc_id": pa.array([], type=pa.int64()),
                "n_grams": pa.array([], type=pa.int64()),
            }
        )
    return pa.table(
        {
            # int64 bit-view: Ray groupby keys must fit signed 64-bit
            "gram": pa.array(np.concatenate(grams).view(np.int64), type=pa.int64()),
            "doc_id": pa.array(np.concatenate(out_ids), type=pa.int64()),
            "n_grams": pa.array(np.concatenate(out_n), type=pa.int64()),
        }
    )


def _posting_pairs(g: pd.DataFrame, max_posting: int | None) -> pd.DataFrame:
    """Emit (id_a, id_b, na, nb) for every co-occurrence within each
    gram posting list of one bucket — vectorized: run-length encode the
    sorted gram column, then for each distinct posting LENGTH stack the
    runs into a matrix and take its upper-triangle pairs in one shot.
    No per-gram pandas apply (the 50-100 µs/group trap)."""
    if len(g) == 0:
        return pd.DataFrame(
            {c: pd.Series(dtype=np.int64) for c in ("id_a", "id_b", "na", "nb")}
        )
    g = g.sort_values(["gram", "doc_id"], kind="mergesort")
    grams = g["gram"].to_numpy()
    docs = g["doc_id"].to_numpy(np.int64)
    ngr = g["n_grams"].to_numpy(np.int64)
    # run-length encode
    change = np.empty(len(grams), bool)
    change[0] = True
    np.not_equal(grams[1:], grams[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    lens = np.diff(np.append(starts, len(grams)))
    out_a, out_b, out_na, out_nb = [], [], [], []
    for length in np.unique(lens):
        if length < 2 or (max_posting is not None and length > max_posting):
            continue
        s = starts[lens == length]
        idx = s[:, None] + np.arange(length)[None, :]
        dmat, nmat = docs[idx], ngr[idx]
        ii, jj = np.triu_indices(int(length), k=1)
        out_a.append(dmat[:, ii].ravel())
        out_b.append(dmat[:, jj].ravel())
        out_na.append(nmat[:, ii].ravel())
        out_nb.append(nmat[:, jj].ravel())
    if not out_a:
        return pd.DataFrame(
            {c: pd.Series(dtype=np.int64) for c in ("id_a", "id_b", "na", "nb")}
        )
    return pd.DataFrame(
        {
            "id_a": np.concatenate(out_a),
            "id_b": np.concatenate(out_b),
            "na": np.concatenate(out_na),
            "nb": np.concatenate(out_nb),
        }
    )


def jaccard_ngram_pairs(ds: rd.Dataset, text_col: str = "text",
                        id_col: str = "doc_id", k: int = 3,
                        threshold: float = 0.5,
                        n_buckets: int | None = None,
                        max_posting: int | None = None) -> rd.Dataset:
    """EXACT word-k-gram Jaccard near-dup pairs ≥ ``threshold`` —
    the inverted-index set-similarity join, not an N² document compare:

    1. explode each document's DISTINCT gram hashes (map, no shuffle);
    2. hash-bucket grams into ~2×CPU buckets and emit co-occurrence
       pairs per posting list (one exchange; per-bucket kernel fully
       vectorized via run-length × triu);
    3. hash-bucket the PAIRS and count shared grams per (id_a, id_b)
       inside each bucket (second thin exchange — pairs only, never
       documents; bucketed because Ray's sort-based aggregate pays
       ~0.2-1 ms per key on a singleton-dominated pair key space,
       while a per-bucket pandas groupby is one C kernel);
    4. jaccard = |∩| / (na + nb − |∩|), filter ≥ threshold.

    Work is Σ_g df(g)² — with ``max_posting`` set, stop-grams are
    dropped and the result degrades to candidate generation (document
    pairs sharing ONLY capped grams are missed); leave it None for the
    exact/oracle semantics. Gram identity is the 64-bit rolling-poly
    hash (functions/textstats.word_gram_hash_set); a cross-document
    collision would need ~2³² distinct grams to become likely.
    """

    def rows(t: pa.Table) -> pa.Table:
        return _gram_rows(t, text_col, id_col, k)

    def count_pairs(g: pd.DataFrame) -> pd.DataFrame:
        agg = (
            g.groupby(["id_a", "id_b"], sort=False)
            .agg(n_common=("na", "size"), na=("na", "min"), nb=("nb", "min"))
            .reset_index()
        )
        inter = agg["n_common"].to_numpy(np.int64)
        union = agg["na"].to_numpy(np.int64) + agg["nb"].to_numpy(np.int64) - inter
        jac = inter / union.astype(np.float64)
        keep = jac >= threshold
        return pd.DataFrame(
            {
                "id_a": agg["id_a"].to_numpy(np.int64)[keep],
                "id_b": agg["id_b"].to_numpy(np.int64)[keep],
                "n_common": inter[keep],
                "n_union": union[keep],
                "jaccard": jac[keep],
            }
        )

    pairs = exchange(ds.map_batches(rows, batch_format="pyarrow"), "gram",
                     lambda g: _posting_pairs(g, max_posting),
                     n_buckets=n_buckets)
    return exchange(pairs, ["id_a", "id_b"], count_pairs, n_buckets=n_buckets)


# --------------------------------------------------------------------------
# bigram language-model quality score (CCNet-style filtering primitive)
# --------------------------------------------------------------------------
# model rows up to which lm_score broadcasts the count table
MAX_MODEL_BROADCAST = 20_000_000


def lm_score(train_ds: rd.Dataset, score_ds: rd.Dataset,
             text_col: str = "text", id_col: str = "doc_id",
             alpha: float = 0.1) -> rd.Dataset:
    """Per-document mean bigram log-probability under an add-α-smoothed
    bigram model counted from ``train_ds`` — the in-domain/perplexity
    quality signal large corpus pipelines use for filtering (CCNet,
    Wenzek et al. 2020, arXiv:1911.00359 — public).

    Two phases: (1) bigram + unigram counts via the same per-batch
    combiner + bucketed reduce as :func:`inverted_index`; (2) scoring.
    Up to :data:`MAX_MODEL_BROADCAST` model rows the count table ships
    once per worker and scoring is a shuffle-free map; past it
    :func:`_lm_score_shuffle` hash-joins per-doc distinct (bigram,
    multiplicity) rows against the model (documents never shuffle).
    The shuffle path groups equal bigrams before the log, so its sums
    associate differently — equality is to float-roundoff, not
    bit-exact (rows-only operator; the ordering properties are pinned
    by tests).  Rows-only by design: ``log`` is not correctly-rounded across libm
    implementations, so no SQL oracle can be bit-identical.

    Returns (doc_id, n_bigrams, avg_logp); documents with < 2 tokens
    get avg_logp = 0.0 and n_bigrams = 0.
    """
    import ray

    def bigram_stage(t: pa.Table) -> pa.Table:
        occ = _explode_tokens(t, text_col, id_col)
        toks = occ["token"].to_numpy()
        doc = occ["doc_id"].to_numpy()
        if len(toks) == 0:
            return pa.table({"gram": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64())})
        same = doc[1:] == doc[:-1]
        big = np.char.add(np.char.add(toks[:-1].astype(str), " "),
                          toks[1:].astype(str))[same]
        uni, uc = np.unique(toks, return_counts=True)
        bg, bc = (np.unique(big, return_counts=True) if big.size
                  else (np.array([], dtype=str), np.array([], dtype=np.int64)))
        # unigrams and bigrams share one count table; a bigram key
        # contains a space, a unigram key cannot (tokens are split on it)
        grams = np.concatenate([uni, bg])
        counts = np.concatenate([uc, bc]).astype(np.int64)
        return pa.table({"gram": pa.array(grams, type=pa.string()),
                         "n": pa.array(counts, type=pa.int64())})

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("gram", sort=False)["n"].sum().reset_index()
        return agg.astype({"n": np.int64})

    model = exchange(train_ds.map_batches(bigram_stage, batch_format="pyarrow"),
                     "gram", reduce_bucket).materialize()
    # size check BEFORE the driver pull (count on materialized = metadata)
    if model.count() > MAX_MODEL_BROADCAST:
        return _lm_score_shuffle(model, score_ds, text_col, id_col, alpha)
    model_rows = model.take_all()
    counts = {r["gram"]: r["n"] for r in model_rows}
    vocab = sum(1 for k in counts if " " not in k)
    model_ref = ray.put((counts, vocab))

    def score_stage(t: pa.Table, *, model_ref, alpha: float) -> pa.Table:
        from math import log  # scalar libm call, ~10× cheaper than np.log on scalars

        counts, vocab = get_broadcast(model_ref)
        texts = t[text_col].to_pylist()
        ids = np.asarray(t[id_col].to_pandas(), dtype=np.int64)
        n_big = np.zeros(len(texts), np.int64)
        avg = np.zeros(len(texts), np.float64)
        denom_base = alpha * max(vocab, 1)
        for i, x in enumerate(texts):
            w = [tok for tok in x.split(" ") if tok]
            if len(w) < 2:
                continue
            s = 0.0
            for a, b in zip(w, w[1:]):
                c_big = counts.get(a + " " + b, 0)
                c_uni = counts.get(a, 0)
                s += log((c_big + alpha) / (c_uni + denom_base))
            n_big[i] = len(w) - 1
            avg[i] = s / (len(w) - 1)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_bigrams": pa.array(n_big, type=pa.int64()),
                "avg_logp": pa.array(avg, type=pa.float64()),
            }
        )

    return score_ds.map_batches(
        score_stage, batch_format="pyarrow",
        fn_kwargs=dict(model_ref=model_ref, alpha=alpha),
    )


def _lm_score_shuffle(model: rd.Dataset, score_ds: rd.Dataset, text_col: str,
                      id_col: str, alpha: float,
                      n_buckets: int | None = None) -> rd.Dataset:
    """Shuffle-join LM-scoring scale path (model too large to
    broadcast).  Per document, emit one THIN row per DISTINCT bigram
    (doc_id, big, uni, m=multiplicity) — never the text — then two
    gram-keyed :func:`~.joins.hash_join` exchanges against the count
    table (bigram count, unigram count; unmatched → 0, matching the
    broadcast path's ``counts.get(..., 0)``), and one doc-keyed bucket
    reduce computing Σ m·log((c_big+α)/(c_uni+αV)).  Unigram and
    bigram entries share the model table: a bigram key always contains
    a space and a unigram key never does, so each join only ever
    matches its own kind.  A <2-token document emits a sentinel row
    (big='', m=0) so it still appears in the output with
    (n_bigrams=0, avg_logp=0.0)."""
    from .joins import hash_join

    # V = unigram vocabulary size — a distributed count over the model
    # (one int per block to the driver), mirroring the broadcast path's
    # `sum(1 for k in counts if " " not in k)`
    def uni_partial(t: pa.Table) -> pa.Table:
        spaces = pc.sum(pc.cast(pc.match_substring(t["gram"], " "),
                                pa.int64())).as_py() or 0
        return pa.table({"v": pa.array([len(t) - spaces], type=pa.int64())})

    vocab = model.map_batches(uni_partial, batch_format="pyarrow").sum("v") or 0
    denom_base = alpha * max(vocab, 1)

    def bigram_rows(t: pa.Table) -> pa.Table:
        from collections import Counter

        texts = t[text_col].to_pylist()
        ids = np.asarray(t[id_col].to_pandas(), dtype=np.int64)
        doc, big, uni, mult = [], [], [], []
        for i, x in enumerate(texts):
            w = [tok for tok in x.split(" ") if tok]
            if len(w) < 2:
                doc.append(ids[i]); big.append(""); uni.append(""); mult.append(0)
                continue
            for (a, b), m in Counter(zip(w, w[1:])).items():
                doc.append(ids[i]); big.append(a + " " + b); uni.append(a)
                mult.append(m)
        return pa.table(
            {
                "doc_id": pa.array(np.asarray(doc, dtype=np.int64), type=pa.int64()),
                "big": pa.array(big, type=pa.string()),
                "uni": pa.array(uni, type=pa.string()),
                "m": pa.array(np.asarray(mult, dtype=np.int64), type=pa.int64()),
            }
        )

    def as_lookup(key: str, val: str):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({key: t["gram"], val: t["n"]})
        return f

    rows = score_ds.map_batches(bigram_rows, batch_format="pyarrow")
    j1 = hash_join(
        rows,
        model.map_batches(as_lookup("big", "c_big"), batch_format="pyarrow"),
        on="big", right_cols=["c_big"], how="left", fill_value={"c_big": 0},
        left_fields=[pa.field("doc_id", pa.int64()), pa.field("big", pa.string()),
                     pa.field("uni", pa.string()), pa.field("m", pa.int64())],
        right_fields=[pa.field("big", pa.string()), pa.field("c_big", pa.int64())],
        n_buckets=n_buckets,
    )
    j2 = hash_join(
        j1,
        model.map_batches(as_lookup("uni", "c_uni"), batch_format="pyarrow"),
        on="uni", right_cols=["c_uni"], how="left", fill_value={"c_uni": 0},
        left_fields=[pa.field("doc_id", pa.int64()), pa.field("big", pa.string()),
                     pa.field("uni", pa.string()), pa.field("m", pa.int64()),
                     pa.field("c_big", pa.int64())],
        right_fields=[pa.field("uni", pa.string()), pa.field("c_uni", pa.int64())],
        n_buckets=n_buckets,
    )

    def reduce_doc(g: pd.DataFrame) -> pd.DataFrame:
        m = g["m"].to_numpy(np.int64)
        c_big = g["c_big"].to_numpy(np.int64)
        c_uni = g["c_uni"].to_numpy(np.int64)
        contrib = m * np.log((c_big + alpha) / (c_uni + denom_base))
        agg = (
            pd.DataFrame({"doc_id": g["doc_id"].to_numpy(np.int64),
                          "s": contrib, "m": m})
            .groupby("doc_id", sort=False)
            .agg(s=("s", "sum"), n_bigrams=("m", "sum"))
            .reset_index()
        )
        n_big = agg["n_bigrams"].to_numpy(np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            avg = np.where(n_big > 0, agg["s"].to_numpy(np.float64) / n_big, 0.0)
        return pd.DataFrame(
            {
                "doc_id": agg["doc_id"].to_numpy(np.int64),
                "n_bigrams": n_big,
                "avg_logp": avg,
            }
        )

    return exchange(j2, "doc_id", reduce_doc, n_buckets=n_buckets)


# --------------------------------------------------------------------------
# benchmark decontamination (k-gram overlap semi-join)
# --------------------------------------------------------------------------
def decontaminate(ds: rd.Dataset, bench: rd.Dataset,
                  text_col: str = "text", id_col: str = "doc_id",
                  k: int = 3, min_shared: int = 1,
                  n_buckets: int | None = None) -> rd.Dataset:
    """Benchmark decontamination — the standard pre-training hygiene
    stage (GPT-3 appendix C / PaLM style, Brown et al. 2020,
    arXiv:2005.14165 — public): flag every corpus document sharing
    ≥ ``min_shared`` DISTINCT word-``k``-grams with the benchmark set.
    Returns thin (doc_id, n_shared) rows for the flagged documents; drop
    them downstream with an anti-join on doc_id (q58 machinery).

    Plan (same inverted-gram identity as :func:`jaccard_ngram_pairs` —
    64-bit rolling-poly hashes, whitespace tokens, ``len(w) >= k``
    filter, so the q55/q77 oracles share one gram definition):

    1. explode per-doc DISTINCT gram hashes on both sides (thin int64
       rows; documents themselves never shuffle),
    2. Bloom-prefiltered semi :func:`~.joins.hash_join` of corpus grams
       against benchmark grams — benchmarks are tiny next to a corpus,
       so the broadcast Bloom filter drops almost every corpus gram
       BEFORE the one bucketed exchange,
    3. per-doc bucket count of surviving rows (already distinct per
       doc) with the ``min_shared`` threshold applied bucket-side.
    """
    from .joins import hash_join

    def doc_grams(t: pa.Table) -> pa.Table:
        g = _gram_rows(t, text_col, id_col, k)
        return g.select(["gram", "doc_id"])

    def bench_grams(t: pa.Table) -> pa.Table:
        return _gram_rows(t, text_col, id_col, k).select(["gram"])

    hits = hash_join(
        ds.map_batches(doc_grams, batch_format="pyarrow"),
        bench.map_batches(bench_grams, batch_format="pyarrow"),
        on="gram",
        right_cols=[],
        how="semi",
        left_fields=[pa.field("gram", pa.int64()), pa.field("doc_id", pa.int64())],
        right_fields=[pa.field("gram", pa.int64())],
        n_buckets=n_buckets,
        bloom_prefilter=True,
    )

    def count_doc(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("doc_id", sort=False).size().rename("n_shared").reset_index()
        agg = agg[agg["n_shared"] >= min_shared]
        return pd.DataFrame(
            {
                "doc_id": agg["doc_id"].to_numpy(np.int64),
                "n_shared": agg["n_shared"].to_numpy(np.int64),
            }
        )

    return exchange(hits, "doc_id", count_doc, n_buckets=n_buckets)

# --------------------------------------------------------------------------
# sequence packing (training-batch assembly)
# --------------------------------------------------------------------------
def pack_sequences(ds: rd.Dataset, text_col: str = "text",
                   id_col: str = "doc_id", max_tokens: int = 512,
                   n_buckets: int | None = None) -> rd.Dataset:
    """Pack documents into training context windows of ≤ ``max_tokens``
    whitespace tokens — the sequence-packing stage an LLM training
    pipeline runs between cleaning and tokenized-shard writing (greedy
    next-fit, the standard streaming packer).

    Scale plan: ONE exchange of thin (doc_id, n_tokens) rows — text
    never shuffles — hash-bucketed by doc id; each bucket packs
    INDEPENDENTLY (deterministic doc_id order, next-fit: open a new bin
    when the next document would overflow) and bin ids are globally
    unique as ``bucket · 2⁴⁰ + local_bin``.  Cross-bucket packing would
    need a global sequential scan; next-fit-per-bucket wastes at most
    one partial bin per bucket — negligible at corpus scale — and keeps
    packing embarrassingly parallel.  A single document longer than
    ``max_tokens`` gets a bin of its own (truncation is the tokenizer's
    job, not the packer's).

    Returns (doc_id, n_tokens, bin_id, bin_pos) — bin_pos is the
    document's 0-based position within its bin.
    """
    if max_tokens < 1:
        raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")

    def count_stage(t: pa.Table) -> pa.Table:
        # non-empty whitespace token count, vectorized: total splits
        # minus empty splits (adjacent separators), same token stream as
        # every other corpus op.  Null text counts as 0 tokens (fill
        # BEFORE the split: list_value_length's null would otherwise
        # cast to INT64_MIN and silently wreck the bucket's fill
        # arithmetic) — packing keeps the exactly-once invariant even
        # for empty documents.
        toks = pc.split_pattern(
            pc.fill_null(
                pc.cast(t[text_col].combine_chunks(), pa.string()), ""
            ),
            pattern=" ",
        )
        total = np.asarray(pc.list_value_length(toks), dtype=np.int64)
        flat = toks.flatten()
        parent = np.asarray(pc.list_parent_indices(toks))
        empty = np.asarray(pc.equal(flat, ""), dtype=bool)
        n_empty = np.bincount(parent[empty], minlength=len(t)) if len(flat) \
            else np.zeros(len(t), dtype=np.int64)
        counts = total - n_empty
        ids = np.asarray(t[id_col].to_pandas(), dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_tokens": pa.array(counts.astype(np.int64), type=pa.int64()),
            }
        )

    def pack_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="mergesort")
        ids = g["doc_id"].to_numpy(np.int64)
        nt = g["n_tokens"].to_numpy(np.int64)
        bucket = int(g["__bucket"].iloc[0]) if len(g) else 0
        bins = np.empty(len(g), np.int64)
        pos = np.empty(len(g), np.int64)
        b, fill, p = 0, 0, 0
        # scalar next-fit over thin int rows (inherently sequential —
        # a reset-on-overflow cumsum has no vectorized form); the rows
        # are (id, count) pairs, never documents
        for i in range(len(g)):
            need = nt[i]
            if fill > 0 and fill + need > max_tokens:
                b += 1
                fill, p = 0, 0
            bins[i] = b
            pos[i] = p
            fill += need
            p += 1
            if fill >= max_tokens:  # exactly full or oversized singleton
                b += 1
                fill, p = 0, 0
        return pd.DataFrame(
            {
                "doc_id": ids,
                "n_tokens": nt,
                "bin_id": (np.int64(bucket) << np.int64(40)) + bins,
                "bin_pos": pos,
            }
        )

    return exchange(ds.map_batches(count_stage, batch_format="pyarrow"),
                    "doc_id", pack_bucket, n_buckets=n_buckets)
