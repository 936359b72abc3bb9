"""Text-analysis primitives for training-data pipelines: language ID,
quality scoring, token counting, fingerprinting, SimHash, MinHash.

These extend the engine beyond the reference's own operator set (the
reference has no text analytics) with the operations a large-scale
training-data pipeline needs; each is exposed as a ``queries()`` entry.
All functions are per-batch (arrays in / arrays out) with patterns
compiled at module import — once per Ray worker process.
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

from .hashing import mix64

_WORD_RE = re.compile(r"\w+", re.UNICODE)
# BPE-ish pre-tokenizer: word pieces OR single non-space symbols
_BPE_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)
_PUNCT_RE = re.compile(r"[^\w\s]")

# tiny stopword profiles per language (n-gram-free heuristic language ID)
_STOPWORDS = {
    "en": {"the", "and", "of", "a", "to", "in", "is", "it", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "zu", "mit", "auf"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "pour", "dans", "que"},
    "vi": {"và", "là", "của", "có", "không", "người", "trong", "một", "được", "cho"},
    "ja": {"の", "に", "は", "を", "た", "が", "で", "て", "と", "し"},
}


def token_count_simple(text: str) -> int:
    """Whitespace-split token count — ORACLE-MATCHED: must stay equal to
    DuckDB ``len(string_split(text, ' '))`` (split on single space)."""
    return text.count(" ") + 1 if text else 1


def token_count_bpe(text: str) -> int:
    return len(_BPE_RE.findall(text))


def lang_id(text: str) -> str:
    """Stopword-profile language guess; 'und' when nothing matches."""
    words = set(_WORD_RE.findall(text.lower())[:200])
    best, best_n = "und", 0
    for lang, sw in _STOPWORDS.items():
        n = len(words & sw)
        if n > best_n:
            best, best_n = lang, n
    return best


def quality_stats(text: str) -> tuple[int, int, int, int]:
    """(n_chars, n_tokens_ws, n_punct, n_stop_en) — the integer raw stats
    behind quality scoring; kept integer so the DuckDB oracle can
    reproduce them exactly."""
    n_chars = len(text)
    n_tokens = token_count_simple(text)
    n_punct = len(_PUNCT_RE.findall(text))
    words = _WORD_RE.findall(text.lower())
    n_stop = sum(1 for w in words if w in _STOPWORDS["en"])
    return n_chars, n_tokens, n_punct, n_stop


_FP_BASE = 1099511628211
_FP_OFF = 14695981039346656037
_M64_INT = (1 << 64) - 1


def fingerprint64(text: str) -> int:
    """FNV-1a 64-bit document fingerprint (public-domain algorithm) —
    the analog of the reference's content hash identity (block.go:13).
    Plain-Python-int arithmetic with a 64-bit mask per step: identical
    output to the spec, ~100× faster than np.uint64 scalar ops (the
    per-byte numpy-scalar loop was the round-1 hot-path sin)."""
    h = _FP_OFF
    for b in text.encode("utf-8"):
        h = ((h ^ b) * _FP_BASE) & _M64_INT
    return h


def _token_hashes(text: str) -> np.ndarray:
    import pandas as pd

    toks = _WORD_RE.findall(text.lower())
    if not toks:
        return np.empty(0, dtype=np.uint64)
    return pd.util.hash_array(np.asarray(toks, dtype=object), categorize=False)


def simhash64(text: str) -> int:
    """Charikar SimHash over word-level hashes (public algorithm).
    Bit counting via unpackbits over the raw hash bytes — ~7× faster
    than the shift-matrix formulation, identical output (tested)."""
    h = _token_hashes(text)
    if h.size == 0:
        return 0
    bits = np.unpackbits(h[:, None].view(np.uint8), axis=1, bitorder="little")
    v = bits.sum(axis=0, dtype=np.int64) * 2 - np.int64(h.size)
    out = np.packbits((v > 0).astype(np.uint8), bitorder="little")
    return int(np.frombuffer(out.tobytes(), dtype=np.uint64)[0])


_POLY_BASE = np.uint64(1099511628211)  # FNV prime as the polynomial base


def _rolling_poly(vals: np.ndarray, k: int) -> np.ndarray:
    """All k-gram polynomial hashes of a uint64 value sequence,
    vectorized: H[i] = Σ_j vals[i+j]·B^(k-1-j) (mod 2^64), then a
    splitmix64 finalizer. k shifted multiply-adds total — no Python
    loop over positions."""
    n = len(vals) - k + 1
    h = np.zeros(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        pw = np.uint64(1)
        for j in range(k - 1, -1, -1):
            h += vals[j : j + n] * pw
            pw = pw * _POLY_BASE
    return mix64(h)


def word_shingles(text: str, k: int = 3) -> np.ndarray:
    """Word k-gram shingle hashes — ~5-10× fewer shingles than character
    grams; the cheap path for in-flight MinHash. Gram hash is a rolling
    polynomial over the (vectorized) per-token hashes."""
    h = _token_hashes(text)
    if len(h) < k:
        return h
    return _rolling_poly(h, k)


def char_shingles(text: str, k: int = 5) -> np.ndarray:
    """k-gram character shingle hashes: rolling polynomial over the
    utf-8 byte sequence (vectorized — the round-1 per-gram Python slice
    + hash_array loop dominated q26's wall time)."""
    b = np.frombuffer(text.lower().encode("utf-8", "ignore"), dtype=np.uint8)
    if len(b) < k:
        return _token_hashes(text)
    return _rolling_poly(b.astype(np.uint64), k)


@lru_cache(maxsize=16)
def _mh_coeffs(n_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """MinHash permutation coefficients — a pure function of (n_perm,
    seed), cached per worker process (round 1 rebuilt the RNG and both
    arrays per DOCUMENT inside the crawl enrichment loop)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 2**63, size=n_perm, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, 2**63, size=n_perm, dtype=np.uint64)
    return a, b


def minhash_signature(shingle_hashes: np.ndarray, n_perm: int = 64, seed: int = 7) -> np.ndarray:
    """n_perm MinHash values via universal hashing h_i(x) = a_i*x + b_i
    (Broder's MinHash, public algorithm). Empty docs → all-max sentinel."""
    if shingle_hashes.size == 0:
        return np.full(n_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
    a, b = _mh_coeffs(n_perm, seed)
    with np.errstate(over="ignore"):
        vals = a[None, :] * shingle_hashes[:, None] + b[None, :]
    return vals.min(axis=0)


def minhash_many(
    shingle_arrays: list, n_perm: int = 64, seed: int = 7,
    chunk_shingles: int = 1024,
) -> np.ndarray:
    """Batched :func:`minhash_signature` over many documents — one
    (total_shingles × n_perm) multiply-add per chunk + a per-document
    ``np.minimum.reduceat``. ``chunk_shingles`` bounds the temporary
    matrix; 1024 (a 512 KB temp) measured 6× faster than 64k chunks —
    the big chunks' 32 MB temporaries fall out of cache and the kernel
    goes memory-bound. Output identical to the scalar function per
    document (same uint64 wraparound arithmetic; equivalence-tested)."""
    n = len(shingle_arrays)
    out = np.full((n, n_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
    if n == 0:
        return out
    a, b = _mh_coeffs(n_perm, seed)
    lens = np.fromiter((len(s) for s in shingle_arrays), dtype=np.int64, count=n)
    nz = np.flatnonzero(lens > 0)
    lo = 0
    while lo < nz.size:
        # greedy chunk: docs until the shingle total exceeds the bound
        hi, total = lo, 0
        while hi < nz.size and (total == 0 or total + lens[nz[hi]] <= chunk_shingles):
            total += lens[nz[hi]]
            hi += 1
        docs = nz[lo:hi]
        allsh = np.concatenate([shingle_arrays[i] for i in docs])
        with np.errstate(over="ignore"):
            vals = a[None, :] * allsh[:, None] + b[None, :]
        offs = np.zeros(len(docs), dtype=np.int64)
        np.cumsum(lens[docs][:-1], out=offs[1:])
        out[docs] = np.minimum.reduceat(vals, offs, axis=0)
        lo = hi
    return out


def lsh_band_keys(sig: np.ndarray, n_bands: int = 16) -> np.ndarray:
    """Split the signature into bands; one 64-bit key per band (band id
    mixed in). Docs sharing any band key are near-dup candidates.
    Accepts one signature (1-D) or a stack of them (2-D, one row per
    doc); returns uint64 keys of shape (n_bands,) / (n_docs, n_bands).
    Fully vectorized fold (round 1 paid a pd.util.hash_array call per
    band per document)."""
    sig = np.asarray(sig, dtype=np.uint64)
    one = sig.ndim == 1
    if one:
        sig = sig[None, :]
    rows = sig.shape[1] // n_bands
    bands = sig[:, : rows * n_bands].reshape(sig.shape[0], n_bands, rows)
    with np.errstate(over="ignore"):
        keys = mix64(
            np.arange(n_bands, dtype=np.uint64)[None, :]
            ^ np.uint64(0x9E3779B97F4A7C15)
        ) * np.ones((sig.shape[0], 1), dtype=np.uint64)
        for c in range(rows):
            keys = mix64(keys ^ bands[:, :, c])
    return keys[0] if one else keys


def quality_score(n_chars: int, n_tok: int, n_punct: int, n_stop: int) -> float:
    """The engine's document quality heuristic (length × cleanliness ×
    stopword-density terms), shared by the enrichment path and q23."""
    score = min(1.0, n_tok / 64.0) * (1.0 - n_punct / max(1, n_chars))
    score *= 0.5 + 0.5 * min(1.0, n_stop / max(1, n_tok) * 5)
    return round(score, 6)


def enrich_batch(texts: list[str], n_bands: int = 4, n_perm: int = 64,
                 seed: int = 7) -> dict:
    """Batched per-page enrichment — the crawl's hot loop. One
    tokenization pass per document (shared by language-ID, quality and
    shingles — the scalar functions each re-tokenized), ONE
    ``hash_array`` call for every token in the batch (its fixed cost
    dominated per-doc hashing), SimHash via a single unpackbits +
    reduceat, and batch-level LSH band keys. Per-document outputs are
    IDENTICAL to the scalar functions (equivalence-tested)."""
    import pandas as pd

    n = len(texts)
    toks = [_WORD_RE.findall(t.lower()) for t in texts]
    counts = np.fromiter((len(t) for t in toks), dtype=np.int64, count=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    if total:
        allt = np.empty(total, dtype=object)
        pos = 0
        for t in toks:
            allt[pos : pos + len(t)] = t
            pos += len(t)
        th = pd.util.hash_array(allt, categorize=False)
    else:
        th = np.empty(0, dtype=np.uint64)

    # simhash per doc over the SHARED token hashes (np.add.reduceat on
    # the full 2-D bit matrix measured 6× slower than per-doc sums)
    sim = np.zeros(n, dtype=np.uint64)
    for i in np.flatnonzero(counts > 0):
        h = th[offsets[i] : offsets[i + 1]]
        bits = np.unpackbits(h[:, None].view(np.uint8), axis=1, bitorder="little")
        v = bits.sum(axis=0, dtype=np.int64) * 2 - np.int64(len(h))
        packed = np.packbits((v > 0).astype(np.uint8), bitorder="little")
        sim[i] = np.frombuffer(packed.tobytes(), dtype=np.uint64)[0]

    # word-shingle MinHash signatures from the shared token hashes —
    # batched across the whole batch (minhash_many: one multiply-add
    # matrix per ~64k shingles + per-doc reduceat)
    shingles = []
    for i in range(n):
        h = th[offsets[i] : offsets[i + 1]]
        shingles.append(_rolling_poly(h, 3) if len(h) >= 3 else h)
    sigs = minhash_many(shingles, n_perm, seed)
    bands = lsh_band_keys(sigs, n_bands)

    sw_en = _STOPWORDS["en"]
    lang = np.empty(n, dtype=object)
    qual = np.zeros(n, dtype=np.float64)
    ntok_bpe = np.zeros(n, dtype=np.int64)
    fp = np.zeros(n, dtype=np.uint64)
    for i, text in enumerate(texts):
        words = toks[i]
        wset = set(words[:200])
        best, best_n = "und", 0
        for lg, sw in _STOPWORDS.items():
            m = len(wset & sw)
            if m > best_n:
                best, best_n = lg, m
        lang[i] = best
        n_stop = sum(1 for w in words if w in sw_en)
        qual[i] = quality_score(
            len(text), token_count_simple(text), len(_PUNCT_RE.findall(text)), n_stop
        )
        ntok_bpe[i] = len(_BPE_RE.findall(text))
        fp[i] = fingerprint64(text)

    return {
        "lang_guess": lang,
        "quality": qual,
        "n_tokens_bpe": ntok_bpe,
        "simhash": sim,
        "fingerprint": fp,
        "minhash_bands": bands,  # (n, n_bands) uint64
    }


def jaccard_ngrams(a: str, b: str, k: int = 3) -> float:
    """Word n-gram Jaccard similarity (verification step after LSH)."""
    aw = _WORD_RE.findall(a.lower())
    bw = _WORD_RE.findall(b.lower())
    sa = {tuple(aw[i : i + k]) for i in range(max(1, len(aw) - k + 1))}
    sb = {tuple(bw[i : i + k]) for i in range(max(1, len(bw) - k + 1))}
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def word_gram_hash_set(text: str, k: int = 3) -> np.ndarray:
    """Sorted UNIQUE word-k-gram hashes of a document — the reusable
    form of the Jaccard verification input. Computing this once per
    candidate document (instead of re-tokenizing both sides per PAIR —
    each candidate appears in many pairs) turns near-dup verification
    into an array intersection. Docs with < k tokens contribute one
    whole-sequence gram, mirroring :func:`jaccard_ngrams`."""
    h = _token_hashes(text)
    if h.size == 0:
        return h
    kk = min(k, int(h.size))
    return np.unique(_rolling_poly(h, kk))


def jaccard_hashed(a: np.ndarray, b: np.ndarray) -> float:
    """Jaccard over pre-computed gram-hash sets (sorted unique)."""
    if a.size == 0 and b.size == 0:
        return 1.0
    inter = np.intersect1d(a, b, assume_unique=True).size
    return inter / (a.size + b.size - inter)
