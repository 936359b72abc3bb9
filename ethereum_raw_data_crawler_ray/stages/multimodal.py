"""Multimodal column plumbing — opaque binary payloads + typed metadata.

Image/audio/video payloads are opaque ``binary`` columns with typed
metadata columns beside them (the Arrow-native replacement for the
reference's hex-sanitized binary handling, ``sanitizeData``,
``ethereum_service.go:317-325``, which is dropped — Arrow binary needs
no escaping).

Compressed-media libraries (PIL/ffmpeg/torchaudio) are not
dependencies, so the compressed-image codec step is STUBBED:
:class:`DecodeStage` and :class:`ResizeStage` do all the real Ray-side
work (actor-pool lifecycle, batch sizing for wide binary rows, schema
in/out) around the deterministic fake codec (it parses the fake payload
header). Swapping in a real decoder is a one-function change; the
distributed plumbing is exercised by tests either way. The numpy
PPM/WAV/Y4M codecs below are real.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa
import ray.data as rd

from .joins import _pool

_MAGIC = b"FAKEIMG1"


def _seed_rng(seed_text: str) -> np.random.Generator:
    """THE deterministic text→rng seeding used by every blob factory
    (one place to change the hash policy)."""
    import pandas as pd

    h = int(
        pd.util.hash_array(np.asarray([seed_text], dtype=object), categorize=False)[0]
    )
    return np.random.default_rng(h % (2**32))


def _attach(ds: rd.Dataset, text_col: str, id_col: str, factory, batch_size: int):
    """Shared fixture scaffold: documents → (id, blob, n_bytes) with
    ``factory(text) -> bytes`` payloads."""

    def gen(t: pa.Table) -> pa.Table:
        blobs = [factory(x) for x in t[text_col].to_pylist()]
        return pa.table(
            {
                id_col: t[id_col],
                "blob": pa.array(blobs, type=pa.binary()),
                "n_bytes": pa.array([len(b) for b in blobs], type=pa.int64()),
            }
        )

    return ds.map_batches(gen, batch_format="pyarrow", batch_size=batch_size)


def make_fake_blob(seed_text: str, width: int, height: int) -> bytes:
    """Deterministic fake 'image': 16-byte header + pseudo-pixel bytes.
    Stands in for real media payloads in tests/benches."""
    rng = _seed_rng(seed_text)
    body = rng.integers(0, 256, size=min(width * height, 4096), dtype=np.uint8)
    return _MAGIC + struct.pack("<II", width, height) + body.tobytes()


def attach_blobs(ds: rd.Dataset, text_col: str, id_col: str) -> rd.Dataset:
    """documents → (id, blob, n_bytes): derive a deterministic binary
    payload per row (the fixture generator for multimodal pipelines)."""
    return _attach(
        ds, text_col, id_col,
        lambda x: make_fake_blob(x, 32 + (len(x) % 64), 32 + (len(x) % 48)),
        1024,
    )


def _no_codec(codec: str):
    raise NotImplementedError(
        f"codec {codec!r} requires media libraries this package does "
        "not depend on; the deterministic 'fake' codec and the real "
        "numpy PPM/WAV/Y4M codecs run everywhere"
    )


class DecodeStage:
    """map_batches actor: decode binary payloads → typed metadata
    (+ optionally a feature vector). Codec state is 'loaded' once per
    actor in __init__ — the real-codec analog would open the model /
    library handle here; the fake codec parses the fake header
    (deterministic, no deps)."""

    def __init__(self, with_features: bool = False):
        self.with_features = with_features

    def _decode_one(self, blob: bytes) -> tuple[int, int, str]:
        if blob[:8] != _MAGIC or len(blob) < 16:
            # bad magic OR a truncated header (struct.unpack would
            # raise and kill the actor pool — same guard as ResizeStage)
            return -1, -1, "unknown"
        w, h = struct.unpack("<II", blob[8:16])
        return int(w), int(h), "fakeimg"

    def __call__(self, t: pa.Table) -> pa.Table:
        blobs = t["blob"].to_pylist()
        meta = [self._decode_one(b) for b in blobs]
        cols = dict(zip(t.schema.names, t.columns))
        cols["width"] = pa.array([m[0] for m in meta], type=pa.int32())
        cols["height"] = pa.array([m[1] for m in meta], type=pa.int32())
        cols["format"] = pa.array([m[2] for m in meta], type=pa.string())
        if self.with_features:
            # stand-in feature extractor: mean/std of payload bytes
            feats = []
            for b in blobs:
                arr = np.frombuffer(b[16:], dtype=np.uint8).astype(np.float32)
                feats.append(
                    [float(arr.mean()), float(arr.std())] if arr.size else [0.0, 0.0]
                )
            cols["features"] = pa.array(feats, type=pa.list_(pa.float32()))
        return pa.table(cols)


class ResizeStage:
    """map_batches actor: image payload → resized payload + new dims.
    The real-codec analog would hold the decoder/encoder handles from
    __init__; the fake codec rewrites the header and subsamples the
    pseudo-pixel body deterministically. Output keeps the binary-column
    + typed-metadata layout so stages compose (decode → resize →
    feature-extract)."""

    def __init__(self, target_w: int, target_h: int):
        self.tw, self.th = int(target_w), int(target_h)

    def _resize_one(self, blob: bytes) -> tuple[bytes, bool]:
        """→ (payload, ok). A decode/resize failure passes the ORIGINAL
        blob through with ok=False — corrupt inputs must not kill the
        pool, but downstream must be able to filter wrong-size payloads
        instead of silently treating them as resized (ADVICE r04)."""
        if blob[:8] != _MAGIC or len(blob) < 16:
            # bad magic OR a truncated header (magic present but fewer
            # than 16 bytes would crash struct.unpack): flag, don't kill
            return blob, False
        w, h = struct.unpack("<II", blob[8:16])
        body = np.frombuffer(blob[16:], dtype=np.uint8)
        n_out = min(self.tw * self.th, 4096)
        if body.size == 0:
            out = body
        else:
            # deterministic nearest-neighbor-ish subsample of the body
            ix = (np.arange(n_out, dtype=np.int64) * body.size) // max(1, n_out)
            out = body[np.clip(ix, 0, body.size - 1)]
        return _MAGIC + struct.pack("<II", self.tw, self.th) + out.tobytes(), True

    def __call__(self, t: pa.Table) -> pa.Table:
        done = [self._resize_one(b) for b in t["blob"].to_pylist()]
        blobs = [b for b, _ in done]
        ok = np.array([k for _, k in done], dtype=bool)
        cols = dict(zip(t.schema.names, t.columns))
        cols["blob"] = pa.array(blobs, type=pa.binary())
        cols["n_bytes"] = pa.array([len(b) for b in blobs], type=pa.int64())
        # failed rows keep their PRE-resize dims (the passthrough blob's
        # real shape) so width/height never lie about the payload
        old_w = (np.asarray(t["width"].to_pandas(), dtype=np.int32)
                 if "width" in t.schema.names
                 else np.full(len(blobs), -1, dtype=np.int32))
        old_h = (np.asarray(t["height"].to_pandas(), dtype=np.int32)
                 if "height" in t.schema.names
                 else np.full(len(blobs), -1, dtype=np.int32))
        cols["width"] = pa.array(np.where(ok, np.int32(self.tw), old_w))
        cols["height"] = pa.array(np.where(ok, np.int32(self.th), old_h))
        cols["resize_ok"] = pa.array(ok)
        return pa.table(cols)


def resize_pipeline(ds: rd.Dataset, target_w: int = 64, target_h: int = 64) -> rd.Dataset:
    return ds.map_batches(
        ResizeStage,
        fn_constructor_args=(target_w, target_h),
        batch_format="pyarrow",
        batch_size=256,
        concurrency=_pool(),
        num_cpus=1,
    )


class FrameSampleStage:
    """map_batches actor: video payload → one row per sampled frame
    (flat_map shape: N input rows → N×k output rows).

    codec="y4m"  → REAL demux of YUV4MPEG2 containers (the third WS
                   subscription type's media analog,
                   websocket_listener.go:119-196): stream-header parse,
                   per-FRAME offset scan, O(1) seek to each sampled
                   frame's luma plane, per-frame luma features —
                   skipped frames' pixel bytes are never touched.
    codec="fake" → fixed-size body slicing (the generic-plumbing fake).
    Compressed containers (ffmpeg formats) stay feature-detected stubs.
    """

    def __init__(self, frame_bytes: int = 256, stride: int = 4,
                 max_frames: int = 8, codec: str = "fake"):
        if codec not in ("fake", "y4m"):
            _no_codec(codec)  # compressed-video demux needs ffmpeg
        self.codec = codec
        self.frame_bytes = frame_bytes
        self.stride = stride
        self.max_frames = max_frames

    def _call_y4m(self, t: pa.Table) -> pa.Table:
        ids = t.column(0).to_pylist()
        id_name = t.schema.names[0]
        out = {k: [] for k in ("id", "frame_no", "width", "height",
                               "y_mean", "y_std", "frame")}
        for rid, blob in zip(ids, t["blob"].to_pylist()):
            hdr, offs = scan_y4m(blob)
            picked = range(0, hdr["n_frames"], self.stride)
            for f in list(picked)[: self.max_frames]:
                y = y4m_luma(blob, hdr, offs[f])
                out["id"].append(rid)
                out["frame_no"].append(f)
                out["width"].append(hdr["width"])
                out["height"].append(hdr["height"])
                out["y_mean"].append(float(y.mean()))
                out["y_std"].append(float(y.std()))
                out["frame"].append(y.tobytes())
        return pa.table(
            {
                id_name: pa.array(out["id"], type=pa.int64()),
                "frame_no": pa.array(out["frame_no"], type=pa.int64()),
                "width": pa.array(out["width"], type=pa.int32()),
                "height": pa.array(out["height"], type=pa.int32()),
                "y_mean": pa.array(out["y_mean"], type=pa.float64()),
                "y_std": pa.array(out["y_std"], type=pa.float64()),
                "frame": pa.array(out["frame"], type=pa.binary()),
            }
        )

    def __call__(self, t: pa.Table) -> pa.Table:
        if self.codec == "y4m":
            return self._call_y4m(t)
        ids = t.column(0).to_pylist()
        id_name = t.schema.names[0]
        out_id, out_frame, out_blob = [], [], []
        for rid, blob in zip(ids, t["blob"].to_pylist()):
            body = blob[16:] if blob[:8] == _MAGIC else blob
            n_frames = max(1, len(body) // self.frame_bytes)
            picked = list(range(0, n_frames, self.stride))[: self.max_frames]
            for f in picked:
                out_id.append(rid)
                out_frame.append(f)
                out_blob.append(body[f * self.frame_bytes : (f + 1) * self.frame_bytes])
        return pa.table(
            {
                id_name: pa.array(out_id, type=pa.int64()),
                "frame_no": pa.array(out_frame, type=pa.int64()),
                "frame": pa.array(out_blob, type=pa.binary()),
            }
        )


def frame_sample_pipeline(ds: rd.Dataset, stride: int = 4,
                          max_frames: int = 8,
                          codec: str = "fake") -> rd.Dataset:
    return ds.map_batches(
        FrameSampleStage,
        fn_constructor_args=(256, stride, max_frames, codec),
        batch_format="pyarrow",
        batch_size=256,
        concurrency=_pool(),
        num_cpus=1,
    )


def decode_pipeline(ds: rd.Dataset, with_features: bool = False) -> rd.Dataset:
    """Standard multimodal decode shape: small batches (wide binary
    rows), bounded actor pool."""
    return ds.map_batches(
        DecodeStage,
        fn_constructor_args=(with_features,),
        batch_format="pyarrow",
        batch_size=256,  # binary payloads are wide — keep batches small
        concurrency=_pool(),
        num_cpus=1,
    )


# --------------------------------------------------------------------------
# REAL codec: PPM (P6) — binary RGB, decodable with numpy alone
# --------------------------------------------------------------------------
def encode_ppm(img: np.ndarray) -> bytes:
    """(h, w, 3) uint8 → binary PPM (P6).  A real, widely-readable image
    format that needs no media library — this makes the decode path
    REAL end-to-end; compressed formats remain stubbed."""
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError(f"expected (h, w, 3) uint8, got {img.shape} {img.dtype}")
    h, w, _ = img.shape
    return b"P6\n%d %d\n255\n" % (w, h) + img.tobytes()


def decode_ppm(blob: bytes) -> np.ndarray:
    """Binary PPM (P6) → (h, w, 3) uint8; raises ValueError on anything
    that isn't a well-formed P6."""
    if blob[:2] != b"P6":
        raise ValueError("not a P6 PPM")
    # header = magic, width, height, maxval — whitespace separated,
    # '#' comments allowed between tokens
    tokens: list[bytes] = []
    i = 2
    while len(tokens) < 3:
        while i < len(blob) and blob[i : i + 1].isspace():
            i += 1
        if blob[i : i + 1] == b"#":
            while i < len(blob) and blob[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(blob) and not blob[j : j + 1].isspace():
            j += 1
        tokens.append(blob[i:j])
        i = j
    i += 1  # single whitespace after maxval
    w, h, maxval = (int(t) for t in tokens)
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval}")
    body = np.frombuffer(blob, dtype=np.uint8, count=w * h * 3, offset=i)
    return body.reshape(h, w, 3)


def resize_nearest(img: np.ndarray, tw: int, th: int) -> np.ndarray:
    """Real nearest-neighbor resize via index-grid sampling."""
    h, w = img.shape[:2]
    yi = (np.arange(th) * h) // th
    xi = (np.arange(tw) * w) // tw
    return img[yi][:, xi]


def ppm_features(img: np.ndarray) -> np.ndarray:
    """Per-channel mean/std + 8-bin luma histogram (normalized) — a
    real, deterministic feature vector (14 floats)."""
    f = img.astype(np.float32)
    means = f.mean(axis=(0, 1)) / 255.0
    stds = f.std(axis=(0, 1)) / 255.0
    luma = (0.299 * f[..., 0] + 0.587 * f[..., 1] + 0.114 * f[..., 2]).ravel()
    hist = np.histogram(luma, bins=8, range=(0.0, 256.0))[0].astype(np.float32)
    hist /= max(1.0, float(luma.size))
    return np.concatenate([means, stds, hist]).astype(np.float32)


def make_ppm_blob(seed_text: str, width: int, height: int) -> bytes:
    """Deterministic real PPM image per document: a smooth gradient
    plus hash-seeded noise (so features/fingerprints differ per doc)."""
    rng = _seed_rng(seed_text)
    gy = np.linspace(0, 255, height, dtype=np.float32)[:, None]
    gx = np.linspace(0, 255, width, dtype=np.float32)[None, :]
    img = np.stack(
        [
            gy + 0 * gx,
            0 * gy + gx,
            (gy + gx) / 2,
        ],
        axis=-1,
    )
    img = img + rng.normal(0, 24, size=img.shape)
    return encode_ppm(np.clip(img, 0, 255).astype(np.uint8))


def attach_ppm_blobs(ds: rd.Dataset, text_col: str, id_col: str) -> rd.Dataset:
    """documents → (id, blob, n_bytes) with REAL PPM payloads."""
    return _attach(
        ds, text_col, id_col,
        lambda x: make_ppm_blob(x, 24 + (len(x) % 40), 24 + (len(x) % 32)),
        512,
    )


class PpmStage:
    """map_batches actor over REAL PPM payloads: decode → (optional)
    nearest-neighbor resize → re-encode + typed metadata + feature
    vector.  Same actor-pool/batch-sizing contract as DecodeStage; the
    codec here is genuinely executed (numpy PPM), so the whole
    decode→transform→encode loop is real — only compressed-format
    codecs (PIL/ffmpeg) stay stubbed."""

    def __init__(self, target_w: int | None = None, target_h: int | None = None,
                 with_features: bool = True, with_blob: bool = True):
        self.tw, self.th = target_w, target_h
        self.with_features = with_features
        self.with_blob = with_blob  # skip the re-encode for metadata-only callers

    def __call__(self, t: pa.Table) -> pa.Table:
        ws, hs, blobs_out, feats = [], [], [], []
        for blob in t["blob"].to_pylist():
            img = decode_ppm(blob)
            if self.tw is not None:
                img = resize_nearest(img, self.tw, self.th or self.tw)
            hs.append(img.shape[0])
            ws.append(img.shape[1])
            if self.with_blob:
                blobs_out.append(encode_ppm(img))
            if self.with_features:
                feats.append(ppm_features(img))
        cols = {t.schema.names[0]: t.column(0)}
        if self.with_blob:
            cols["blob"] = pa.array(blobs_out, type=pa.binary())
        cols["width"] = pa.array(np.asarray(ws, dtype=np.int32))
        cols["height"] = pa.array(np.asarray(hs, dtype=np.int32))
        cols["format"] = pa.array(["ppm"] * len(t), type=pa.string())
        if self.with_features:
            cols["features"] = pa.array(
                [f.tolist() for f in feats], type=pa.list_(pa.float32())
            )
        return pa.table(cols)


def ppm_pipeline(
    ds: rd.Dataset, *, target_w: int = 32, target_h: int = 32, with_blob: bool = True
) -> rd.Dataset:
    """The real-image path: decode + resize + featurize as an actor-pool
    stage (small batches — binary rows are wide)."""
    return ds.map_batches(
        PpmStage,
        fn_constructor_args=(target_w, target_h, True, with_blob),
        batch_format="pyarrow",
        batch_size=128,
        concurrency=_pool(),
        num_cpus=1,
    )


# --------------------------------------------------------------------------
# REAL codec: WAV (PCM16) — the audio analog of the PPM path
# --------------------------------------------------------------------------
def encode_wav(samples: np.ndarray, rate: int = 16_000) -> bytes:
    """mono int16 samples → RIFF/WAVE PCM16 bytes (numpy + struct only)."""
    if samples.dtype != np.int16 or samples.ndim != 1:
        raise ValueError(f"expected 1-d int16 samples, got {samples.dtype} ndim={samples.ndim}")
    data = samples.tobytes()
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE",
        b"fmt ", 16, 1, 1, rate, rate * 2, 2, 16,
        b"data", len(data),
    )
    return hdr + data


def decode_wav(blob: bytes) -> tuple[np.ndarray, int]:
    """RIFF/WAVE PCM16 mono → (int16 samples, sample_rate); raises
    ValueError on anything else."""
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE blob")
    if len(blob) < 44:
        raise ValueError("truncated wav header")  # keep the ValueError contract
    fmt, ch, rate, bits = struct.unpack("<HHIxxxxxxH", blob[20:36])
    if (fmt, ch, bits) != (1, 1, 16):
        raise ValueError(f"unsupported wav (fmt={fmt} ch={ch} bits={bits})")
    if blob[36:40] != b"data":
        raise ValueError("missing data chunk")
    n = struct.unpack("<I", blob[40:44])[0]
    return np.frombuffer(blob, dtype=np.int16, count=n // 2, offset=44), rate


def wav_features(samples: np.ndarray, rate: int) -> np.ndarray:
    """duration_s, RMS (normalized), zero-crossing rate, peak — 4 real
    audio features."""
    f = samples.astype(np.float32) / 32768.0
    dur = len(f) / float(rate)
    rms = float(np.sqrt(np.mean(f * f))) if len(f) else 0.0
    zcr = float(np.mean(np.signbit(f[1:]) != np.signbit(f[:-1]))) if len(f) > 1 else 0.0
    peak = float(np.abs(f).max()) if len(f) else 0.0
    return np.asarray([dur, rms, zcr, peak], dtype=np.float32)


def make_wav_blob(seed_text: str, n_samples: int = 2048, rate: int = 16_000) -> bytes:
    """Deterministic real WAV per document: hash-seeded tone + noise."""
    rng = _seed_rng(seed_text)
    t = np.arange(n_samples, dtype=np.float32) / rate
    freq = 200.0 + float(rng.integers(0, 1000))
    sig = 0.5 * np.sin(2 * np.pi * freq * t) + rng.normal(0, 0.05, n_samples)
    return encode_wav((np.clip(sig, -1, 1) * 32767).astype(np.int16), rate)


class WavStage:
    """map_batches actor over REAL WAV payloads: decode → features
    (duration/RMS/ZCR/peak) — genuinely executed, same contract as
    PpmStage."""

    def __call__(self, t: pa.Table) -> pa.Table:
        durs, rates, feats = [], [], []
        for blob in t["blob"].to_pylist():
            samples, rate = decode_wav(blob)
            fv = wav_features(samples, rate)
            durs.append(float(fv[0]))
            rates.append(rate)
            feats.append(fv)
        return pa.table(
            {
                t.schema.names[0]: t.column(0),
                "sample_rate": pa.array(np.asarray(rates, dtype=np.int32)),
                "duration_s": pa.array(np.asarray(durs, dtype=np.float64)),
                "features": pa.array([f.tolist() for f in feats], type=pa.list_(pa.float32())),
            }
        )


def wav_pipeline(ds: rd.Dataset) -> rd.Dataset:
    return ds.map_batches(
        WavStage,
        batch_format="pyarrow",
        batch_size=256,
        concurrency=_pool(),
        num_cpus=1,
    )


def attach_wav_blobs(ds: rd.Dataset, text_col: str, id_col: str) -> rd.Dataset:
    """documents → (id, blob, n_bytes) with REAL WAV payloads."""
    return _attach(
        ds, text_col, id_col, lambda x: make_wav_blob(x, 1024 + (len(x) % 64) * 32), 512
    )


# --------------------------------------------------------------------------
# REAL codec: Y4M (YUV4MPEG2) — uncompressed video, demuxable with numpy
# --------------------------------------------------------------------------
def encode_y4m(y: np.ndarray, u: np.ndarray | None = None,
               v: np.ndarray | None = None,
               fps: tuple[int, int] = (25, 1)) -> bytes:
    """Planar frames → a YUV4MPEG2 stream (the standard uncompressed
    video container ffmpeg/mjpegtools read — numpy + bytes only, like
    :func:`encode_ppm`/:func:`encode_wav`). ``y`` is ``(n, h, w)``
    uint8 luma; pass matching ``(n, h/2, w/2)`` chroma planes for
    C420jpeg, or neither for Cmono (luma-only)."""
    y = np.asarray(y)
    if y.ndim != 3 or y.dtype != np.uint8:
        raise ValueError(f"expected (n, h, w) uint8 luma, got {y.shape} {y.dtype}")
    n, h, w = y.shape
    if (u is None) != (v is None):
        raise ValueError("pass both chroma planes or neither")
    if u is not None:
        u = np.asarray(u)
        v = np.asarray(v)
        if h % 2 or w % 2:
            raise ValueError("C420 needs even luma dimensions")
        if u.shape != (n, h // 2, w // 2) or v.shape != u.shape:
            raise ValueError("chroma planes must be (n, h/2, w/2)")
        if u.dtype != np.uint8 or v.dtype != np.uint8:
            raise ValueError("chroma planes must be uint8")
    cs = b"Cmono" if u is None else b"C420jpeg"
    parts = [b"YUV4MPEG2 W%d H%d F%d:%d Ip A1:1 %s\n"
             % (w, h, fps[0], fps[1], cs)]
    for i in range(n):
        parts.append(b"FRAME\n")
        parts.append(y[i].tobytes())
        if u is not None:
            parts.append(u[i].tobytes())
            parts.append(v[i].tobytes())
    return b"".join(parts)


def _y4m_header(blob: bytes) -> tuple[dict, int]:
    """Parse the YUV4MPEG2 stream header → (header dict incl. the fixed
    per-frame payload size, offset of the first FRAME line)."""
    if blob[:9] != b"YUV4MPEG2":
        raise ValueError("not a YUV4MPEG2 stream")
    nl = blob.find(b"\n")
    if nl < 0:
        raise ValueError("unterminated YUV4MPEG2 header")
    w = h = None
    cs = "C420jpeg"  # the spec default is 4:2:0
    fps = (25, 1)
    for tok in blob[9:nl].split():
        tag, val = tok[:1], tok[1:]
        if tag == b"W":
            w = int(val)
        elif tag == b"H":
            h = int(val)
        elif tag == b"F":
            num, den = val.split(b":")
            fps = (int(num), int(den))
        elif tag == b"C":
            cs = "C" + val.decode()  # the tag letter is part of the name
    if not w or not h:
        raise ValueError("Y4M header missing W/H")
    if cs.startswith("C420"):
        if w % 2 or h % 2:
            raise ValueError("C420 stream with odd dimensions")
        frame_size = w * h + 2 * ((w // 2) * (h // 2))
    elif cs.startswith("C444"):
        frame_size = 3 * w * h
    elif cs.startswith("Cmono"):
        frame_size = w * h
    else:
        raise ValueError(f"unsupported Y4M colorspace {cs!r}")
    return (
        {"width": w, "height": h, "fps": fps, "colorspace": cs,
         "frame_size": frame_size},
        nl + 1,
    )


def scan_y4m(blob: bytes) -> tuple[dict, np.ndarray]:
    """Real demux scan: stream header + every FRAME header → (header,
    int64 array of per-frame DATA offsets). No pixel bytes are touched
    — sampling stages use this to seek straight to the frames they
    keep, the fixed-frame-size seek a real demuxer does."""
    hdr, off = _y4m_header(blob)
    fsize = hdr["frame_size"]
    offsets = []
    n = len(blob)
    while off < n:
        if blob[off:off + 5] != b"FRAME":
            raise ValueError(f"bad FRAME header at byte {off}")
        nl = blob.find(b"\n", off)
        if nl < 0:
            raise ValueError("unterminated FRAME header")
        data0 = nl + 1
        if data0 + fsize > n:
            raise ValueError("truncated Y4M frame payload")
        offsets.append(data0)
        off = data0 + fsize
    hdr["n_frames"] = len(offsets)
    return hdr, np.asarray(offsets, dtype=np.int64)


def y4m_luma(blob: bytes, hdr: dict, data_off: int) -> np.ndarray:
    """Zero-copy (h, w) uint8 view of one frame's luma plane."""
    w, h = hdr["width"], hdr["height"]
    return np.frombuffer(
        blob, dtype=np.uint8, count=w * h, offset=int(data_off)
    ).reshape(h, w)


def demux_y4m(blob: bytes, frames: list[int] | None = None
              ) -> tuple[dict, list[tuple[int, np.ndarray]]]:
    """→ (header, [(frame_no, luma plane)]) for the requested frame
    numbers (None = all) — the round-trip/test companion of
    :func:`scan_y4m`."""
    hdr, offs = scan_y4m(blob)
    want = None if frames is None else {int(f) for f in frames}
    return hdr, [
        (i, y4m_luma(blob, hdr, o).copy())
        for i, o in enumerate(offs)
        if want is None or i in want
    ]


def make_y4m_blob(seed_text: str, width: int = 32, height: int = 24,
                  n_frames: int = 12) -> bytes:
    """Deterministic synthetic C420 'video': per-frame drifting gradient
    + noise luma (features vary frame to frame) over flat chroma."""
    rng = _seed_rng(seed_text)
    xs = np.arange(width, dtype=np.float64)[None, :]
    base = rng.integers(0, 128, size=(height, width), dtype=np.uint8)
    y = np.empty((n_frames, height, width), dtype=np.uint8)
    for f in range(n_frames):
        drift = ((xs * (f + 1) * 255.0 / (width * n_frames))).astype(np.uint8)
        y[f] = base // 2 + drift
    u = np.full((n_frames, height // 2, width // 2), 128, dtype=np.uint8)
    return encode_y4m(y, u, u)


def attach_y4m_blobs(ds: rd.Dataset, text_col: str, id_col: str) -> rd.Dataset:
    """documents → (id, blob, n_bytes) with REAL Y4M payloads."""
    return _attach(
        ds, text_col, id_col,
        lambda x: make_y4m_blob(x, 16 + 2 * (len(x) % 12),
                                12 + 2 * (len(x) % 8),
                                6 + len(x) % 20),
        256,
    )
