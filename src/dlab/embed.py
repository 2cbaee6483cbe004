"""Hashed n-gram embeddings, a binary matrix format, and exact top-k retrieval.

Texts are embedded by signed feature hashing of word n-grams: each n-gram is
hashed with keyed blake2b into a bucket and a sign, accumulated, then L2
normalized. No vocabulary is stored, so any text embeds into the same space
as long as (dim, ngram_range, seed) agree.
"""
from __future__ import annotations

import hashlib
import heapq
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TOKEN_RE = re.compile(r"[a-z0-9']+")

EMBX_MAGIC = b"EMBX"
EMBX_VERSION = 1
_HEADER = struct.Struct("<4sHIQ")  # magic, version, dim, rows
_CHECKSUM_BYTES = 8
# float64 values of one row chunk cosine_scores converts at a time (1 MB)
_SCORE_CHUNK_FLOATS = 1 << 17


class EmbxError(ValueError):
    """Base class for embedding-file format errors."""


class EmbxMagicError(EmbxError):
    """Wrong magic bytes or unsupported version."""


class EmbxRowCountError(EmbxError):
    """Row count in header disagrees with the id block or payload size."""


class EmbxChecksumError(EmbxError):
    """Checksum mismatch or truncated file."""


@dataclass(frozen=True)
class EmbedderConfig:
    dim: int = 4096
    ngram_range: tuple[int, int] = (1, 2)
    seed: int = 0

    def __post_init__(self):
        if self.dim < 8:
            raise ValueError(f"dim must be >= 8, got {self.dim}")
        lo, hi = self.ngram_range
        if not (1 <= lo <= hi):
            raise ValueError(f"bad ngram_range {self.ngram_range}")


def _hash_key(seed: int) -> bytes:
    return seed.to_bytes(8, "little", signed=False)


def embed_text(text: str, cfg: EmbedderConfig, *,
               _slots: dict[str, tuple[int, float]] | None = None) -> np.ndarray:
    """Embed one text. Unit norm, or the zero vector when no n-grams exist.

    The zero vector is the unnormalizable case; callers can detect it with
    a norm check. Deterministic: same (text, cfg) always gives the same
    vector, and token order only matters through the n-grams themselves.
    `_slots` is embed_texts' memo of n-gram -> (bucket, sign): it holds
    buckets and signs for one cfg only, so it must be a fresh dict for each
    cfg and never be shared with a call under another cfg.
    """
    slots = {} if _slots is None else _slots
    tokens = TOKEN_RE.findall(text.lower())
    key = _hash_key(cfg.seed)
    buckets, signs = [], []
    lo, hi = cfg.ngram_range
    for n in range(lo, hi + 1):
        for i in range(len(tokens) - n + 1):
            gram = " ".join(tokens[i:i + n])
            slot = slots.get(gram)
            if slot is None:
                digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8, key=key).digest()
                h = int.from_bytes(digest, "little")
                slot = slots[gram] = (h % cfg.dim, 1.0 if (h >> 63) & 1 else -1.0)
            buckets.append(slot[0])
            signs.append(slot[1])
    # every entry is a sum of +-1.0, an exact integer, so the order of the
    # additions cannot change a bit
    vec = np.bincount(np.array(buckets, dtype=np.intp), weights=signs, minlength=cfg.dim)
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec.astype(np.float32)


def _id_index(ids: list[str]) -> dict[str, int]:
    index: dict[str, int] = {}
    for i, rid in enumerate(ids):
        if rid in index:
            raise ValueError(f"duplicate id {rid!r}")
        index[rid] = i
    return index


@dataclass
class EmbeddingMatrix:
    """Dense float32 matrix with aligned, unique string ids."""

    ids: list[str]
    data: np.ndarray
    norms: np.ndarray = field(init=False, repr=False)
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 2:
            raise ValueError(f"data must be 2-D, got shape {self.data.shape}")
        if len(self.ids) != self.data.shape[0]:
            raise ValueError(
                f"{len(self.ids)} ids for {self.data.shape[0]} rows")
        self._index = _id_index(self.ids)
        # one 1-D norm per row, as cosine_similarity takes it: the axis=1 form
        # sums in another order and differs in the last bits
        self.norms = np.array(
            [np.linalg.norm(row.astype(np.float64)) for row in self.data], dtype=np.float64)

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def __len__(self) -> int:
        return self.data.shape[0]

    def __contains__(self, rid: str) -> bool:
        return rid in self._index

    def row(self, rid: str) -> np.ndarray:
        return self.data[self._index[rid]]

    def row_index(self, rid: str) -> int:
        return self._index[rid]


def embed_texts(items, cfg: EmbedderConfig) -> EmbeddingMatrix:
    """Embed an iterable of (id, text) pairs into one matrix.

    A duplicate id fails before any text is embedded. Each distinct n-gram
    is hashed once per call; the memo is freed when the call returns.
    """
    items = list(items)
    ids = [str(rid) for rid, _ in items]
    _id_index(ids)
    data = np.empty((len(items), cfg.dim), dtype=np.float32)
    slots: dict[str, tuple[int, float]] = {}
    for i, (_, text) in enumerate(items):
        data[i] = embed_text(text, cfg, _slots=slots)
    return EmbeddingMatrix(ids=ids, data=data)


def export_embeddings(matrix: EmbeddingMatrix, path) -> None:
    """Write the EMBX binary format.

    Layout: magic "EMBX", u16 version, u32 dim, u64 rows (all little
    endian), float32 row-major payload, newline-terminated UTF-8 ids, and
    an 8-byte blake2b checksum of everything before it.
    """
    for rid in matrix.ids:
        if "\n" in rid or "\r" in rid:
            raise ValueError(f"id {rid!r} contains a newline")
    buf = bytearray()
    buf += _HEADER.pack(EMBX_MAGIC, EMBX_VERSION, matrix.dim, len(matrix))
    buf += np.ascontiguousarray(matrix.data, dtype="<f4").tobytes()
    for rid in matrix.ids:
        buf += rid.encode("utf-8") + b"\n"
    checksum = hashlib.blake2b(bytes(buf), digest_size=_CHECKSUM_BYTES).digest()
    Path(path).write_bytes(bytes(buf) + checksum)


def import_embeddings(path) -> EmbeddingMatrix:
    """Read an EMBX file; round-trips export_embeddings bit-exactly."""
    blob = Path(path).read_bytes()
    if len(blob) < 4 or blob[:4] != EMBX_MAGIC:
        raise EmbxMagicError(f"{path}: bad magic")
    if len(blob) < _HEADER.size:
        raise EmbxChecksumError(f"{path}: truncated header")
    _, version, dim, rows = _HEADER.unpack_from(blob)
    if version != EMBX_VERSION:
        raise EmbxMagicError(f"{path}: unsupported version {version}")
    float_bytes = rows * dim * 4
    min_len = _HEADER.size + float_bytes + _CHECKSUM_BYTES
    if len(blob) < min_len:
        raise EmbxChecksumError(f"{path}: truncated file")
    payload, checksum = blob[:-_CHECKSUM_BYTES], blob[-_CHECKSUM_BYTES:]
    expected = hashlib.blake2b(payload, digest_size=_CHECKSUM_BYTES).digest()
    if checksum != expected:
        raise EmbxChecksumError(f"{path}: checksum mismatch")
    data = np.frombuffer(
        payload, dtype="<f4", count=rows * dim, offset=_HEADER.size
    ).reshape(rows, dim).copy()
    id_block = payload[_HEADER.size + float_bytes:]
    if rows == 0:
        ids = []
        if id_block:
            raise EmbxRowCountError(f"{path}: id block present for 0 rows")
    else:
        if not id_block.endswith(b"\n"):
            raise EmbxRowCountError(f"{path}: id block not newline-terminated")
        ids = id_block[:-1].decode("utf-8").split("\n")
    if len(ids) != rows:
        raise EmbxRowCountError(f"{path}: header says {rows} rows, id block has {len(ids)}")
    return EmbeddingMatrix(ids=ids, data=data)


def text_checksum(body: str) -> str:
    """Hex blake2b digest (8 bytes, as in EMBX) of a UTF-8 text body."""
    return hashlib.blake2b(body.encode("utf-8"), digest_size=_CHECKSUM_BYTES).hexdigest()


def write_checksummed_text(path, body: str) -> None:
    """Write a newline-terminated text body plus a trailing
    'checksum <hex>' line over it."""
    Path(path).write_text(body + f"checksum {text_checksum(body)}\n", encoding="utf-8")


def read_checksummed_text(path, error: type[Exception]) -> list[str]:
    """Body lines of a file written by write_checksummed_text.

    Raises `error` when the checksum line is missing or does not match.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[-1].startswith("checksum "):
        raise error(f"{path}: malformed file, missing checksum line")
    body = "\n".join(lines[:-1]) + "\n"
    if text_checksum(body) != lines[-1].split(" ", 1)[1].strip():
        raise error(f"{path}: checksum mismatch")
    return lines[:-1]


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine in [-1, 1]; zero-norm inputs map to 0 by convention."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(min(1.0, max(-1.0, float(u @ v) / (nu * nv))))


def cosine_scores(queries: np.ndarray, rows: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """(q, n) cosines of a (q, d) block of queries against an (n, d) block
    of matrix rows.

    `norms` are the rows' stored norms (EmbeddingMatrix.norms). Each score
    equals cosine_similarity(query, row) bit for bit: zero-norm rows and a
    zero-norm query score 0, and scores are clipped to [-1, 1]. A score
    depends on its own query and row only, so the rows are converted to
    float64 and scored in chunks of at most _SCORE_CHUNK_FLOATS values, and
    scores of a sub-block are the matching entries of the block's scores.
    """
    queries = np.asarray(queries, dtype=np.float64)
    # one 1-D norm per query, as cosine_similarity takes it (norm(axis=1)
    # sums in another order)
    qnorms = np.array([np.linalg.norm(query) for query in queries], dtype=np.float64)
    scores = np.zeros((len(queries), len(norms)), dtype=np.float64)
    live_q, live = np.flatnonzero(qnorms > 0.0), np.flatnonzero(norms > 0.0)
    if not (live_q.size and live.size):
        return scores
    live_queries = queries[live_q][:, None, :, None]
    step = max(1, _SCORE_CHUNK_FLOATS // rows.shape[1])
    for start in range(0, live.size, step):
        chunk = live[start:start + step]
        rows64 = np.asarray(rows[chunk], dtype=np.float64)
        # a stack of 1×d · d×1 products: numpy hands each to the BLAS dot that
        # a single `row @ query` reaches, so every score keeps its summation
        # order; a matrix-vector product `rows @ query` sums in another order
        # and differs in the last bits
        dots = np.matmul(rows64[None, :, None, :], live_queries)[..., 0, 0]
        scores[np.ix_(live_q, chunk)] = np.clip(
            dots / (norms[chunk] * qnorms[live_q, None]), -1.0, 1.0)
    return scores


def rank_scores(scores: np.ndarray, keys: list, k: int) -> list[tuple[int, float]]:
    """The first k (position, score) pairs by descending score, then
    ascending key."""
    values = scores.tolist()
    # documented as equal to sorted(...)[:k], ties included; on pools of
    # 500 rows and more it is two to three times faster than the full sort
    order = heapq.nsmallest(k, range(len(keys)), key=lambda i: (-values[i], keys[i]))
    return [(i, values[i]) for i in order]


def top_k_similar(query: np.ndarray, matrix: EmbeddingMatrix, k: int,
                  exclude: frozenset | set | None = None) -> list[tuple[str, float]]:
    """Exact k nearest rows by cosine, ties broken by ascending id.

    Excluded ids never appear; fewer than k candidates returns all of them,
    sorted. The scan is exhaustive, not approximate.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (matrix.dim,):
        raise ValueError(f"query dim {query.shape} != matrix dim {matrix.dim}")
    exclude = exclude or frozenset()
    keep = [i for i, rid in enumerate(matrix.ids) if rid not in exclude]
    ids = [matrix.ids[i] for i in keep]
    scores = cosine_scores(query[None, :], matrix.data[keep], matrix.norms[keep])[0]
    return [(ids[i], score) for i, score in rank_scores(scores, ids, k)]
