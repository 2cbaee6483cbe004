"""Hashed n-gram embeddings, a binary matrix format, and exact top-k retrieval.

Texts are embedded by signed feature hashing of word n-grams: each n-gram is
hashed with keyed blake2b into a bucket and a sign, accumulated, then L2
normalized. No vocabulary is stored, so any text embeds into the same space
as long as (dim, ngram_range, seed) agree.
"""
from __future__ import annotations

import base64
import hashlib
import json
import math
import os
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
# float64 products of one chunk of cosine_scores, queries times stored
# entries (1 MB)
_SCORE_CHUNK_FLOATS = 1 << 17
# float32 bytes of one chunk of dense rows: embed_texts embeds into one, and
# EMBX files are written and read in them
_CHUNK_BYTES = 1 << 18


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
        # the hash key and the bucket arithmetic take Python ints; a bool
        # would hash as 0 or 1
        for name, value in (("dim", self.dim), ("ngram_range", self.ngram_range[0]),
                            ("ngram_range", self.ngram_range[-1]), ("seed", self.seed)):
            if type(value) is not int:
                raise ValueError(f"embedder {name} must hold integers, got {value!r}")
        if self.dim < 8:
            raise ValueError(f"dim must be >= 8, got {self.dim}")
        lo, hi = self.ngram_range
        if not (1 <= lo <= hi):
            raise ValueError(f"bad ngram_range {self.ngram_range}")
        # the hash key is the seed's 8 unsigned little-endian bytes
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"embedder seed must lie in [0, 2**64), got {self.seed}")


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
    """float32 rows with aligned, unique string ids, stored once as CSR.

    Row i holds `values[indptr[i]:indptr[i + 1]]` at the ascending int32
    columns `indices[indptr[i]:indptr[i + 1]]`, and +0.0 everywhere else;
    `norms[i]` is the float64 norm of the dense row. Besides the ids, memory
    is 8 bytes per stored entry plus 16 bytes per row, not 4 * dim bytes per
    row. `take` is the one way to dense rows.
    """

    ids: list[str]
    dim: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    norms: np.ndarray = field(repr=False)
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self._index = _id_index(self.ids)

    @classmethod
    def from_dense(cls, ids, data) -> EmbeddingMatrix:
        """The matrix of a dense (rows, dim) array, converted to float32."""
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.ndim != 2:
            raise ValueError(f"data must be 2-D, got shape {data.shape}")
        if len(ids) != data.shape[0]:
            raise ValueError(f"{len(ids)} ids for {data.shape[0]} rows")
        step = _chunk_rows(data.shape[1], len(data))
        parts = [_sparse_rows(data[start:start + step]) for start in range(0, len(data), step)]
        return _from_parts(list(ids), data.shape[1], parts, sum(part[1].size for part in parts))

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, rid: str) -> bool:
        return rid in self._index

    def row(self, rid: str) -> np.ndarray:
        return self.take([self._index[rid]])[0]

    def row_index(self, rid: str) -> int:
        return self._index[rid]

    def take(self, rows, dtype=np.float32) -> np.ndarray:
        """A new dense (len(rows), dim) array of the given rows, in the given
        order, repeats allowed. Each row is bit-equal to the float32 row it
        was stored from; dtype=np.float64 converts it exactly."""
        rows = np.asarray(rows, dtype=np.intp)
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        positions = ranges(starts, counts)
        out = np.zeros((rows.size, self.dim), dtype=dtype)
        # one flat scatter: each entry's output row offset plus its column
        targets = np.repeat(np.arange(rows.size) * self.dim, counts) + self.indices[positions]
        out.reshape(-1)[targets] = self.values[positions]
        return out


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The integer ranges [starts[i], starts[i] + counts[i]) one after
    another, as one array: the positions of some rows' stored entries."""
    # entry j sits at its range's start plus j minus the place of that
    # range's first entry
    out = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    out += np.arange(out.size)
    return out


def chunks(sizes: np.ndarray, budget: int, most: int | None = None):
    """(start, stop) bounds of consecutive runs of `sizes` that sum to at
    most `budget` and hold at most `most` entries, but at least one."""
    ends = np.cumsum(sizes)
    start = 0
    while start < len(ends):
        stop = int(np.searchsorted(ends, ends[start] - sizes[start] + budget, side="right"))
        stop = max(stop, start + 1)
        if most is not None:
            stop = min(stop, start + most)
        yield start, stop
        start = stop


def _chunk_rows(dim: int, rows: int) -> int:
    """Rows per chunk of about _CHUNK_BYTES of float32 values."""
    return max(1, _CHUNK_BYTES // (4 * dim)) if dim else max(1, rows)


def _sparse_rows(chunk: np.ndarray) -> tuple:
    """The set entries of a dense float32 (r, dim) chunk: each row's entry
    count, the int32 columns and float32 values row after row, and each
    row's norm.

    An entry is set when any of its bits is, so a -0.0 is kept and
    EmbeddingMatrix.take gives each row back bit for bit. Each norm is the
    1-D norm of the dense row, as the scalar cosine oracle in
    tests/test_batch_oracles.py takes it: the norm of the set values alone,
    or the axis=1 form, sums in another order and differs in the last bits.
    """
    flat = (chunk.view(np.int32) != 0).ravel().nonzero()[0]
    rows, cols = np.divmod(flat, chunk.shape[1])
    dense = chunk.astype(np.float64)[:, None, :]
    # a stack of 1×d · d×1 products: numpy hands each to the BLAS dot that
    # np.linalg.norm's x.dot(x) reaches, so each norm keeps its summation order
    norms = np.sqrt(np.matmul(dense, dense.transpose(0, 2, 1))[:, 0, 0])
    return (np.bincount(rows, minlength=len(chunk)), cols.astype(np.int32),
            chunk.ravel()[flat], norms)


def _from_parts(ids: list[str], dim: int, parts, nnz: int) -> EmbeddingMatrix:
    """A matrix filled from the _sparse_rows parts of its row chunks, in
    order, with nnz entries in all, into CSR arrays allocated once."""
    indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    indices = np.empty(nnz, dtype=np.int32)
    values = np.empty(nnz, dtype=np.float32)
    norms = np.empty(len(ids), dtype=np.float64)
    start = 0
    for counts, cols, chunk_values, chunk_norms in parts:
        stop, lo = start + len(counts), indptr[start]
        indices[lo:lo + cols.size] = cols
        values[lo:lo + cols.size] = chunk_values
        indptr[start + 1:stop + 1] = lo + np.cumsum(counts)
        norms[start:stop] = chunk_norms
        start = stop
    return EmbeddingMatrix(ids, dim, indptr, indices, values, norms)


def embed_texts(items, cfg: EmbedderConfig) -> EmbeddingMatrix:
    """Embed an iterable of (id, text) pairs into one matrix.

    A duplicate id fails before any text is embedded. Each distinct n-gram
    is hashed once per call; the memo is freed when the call returns. The
    dense rows are kept in one reused chunk of about 256 KB until their set
    entries are taken.
    """
    items = list(items)
    ids = [str(rid) for rid, _ in items]
    _id_index(ids)
    slots: dict[str, tuple[int, float]] = {}
    step = _chunk_rows(cfg.dim, len(items))
    buffer = np.empty((min(step, len(items)), cfg.dim), dtype=np.float32)
    parts = []
    for start in range(0, len(items), step):
        chunk = buffer[:min(step, len(items) - start)]
        for j, (_, text) in enumerate(items[start:start + step]):
            chunk[j] = embed_text(text, cfg, _slots=slots)
        parts.append(_sparse_rows(chunk))
    return _from_parts(ids, cfg.dim, parts, sum(part[1].size for part in parts))


def export_embeddings(matrix: EmbeddingMatrix, path) -> None:
    """Write the EMBX binary format, streamed in row chunks.

    Layout: magic "EMBX", u16 version, u32 dim, u64 rows (all little
    endian), float32 row-major payload, newline-terminated UTF-8 ids, and
    an 8-byte blake2b checksum of everything before it.
    """
    for rid in matrix.ids:
        if "\n" in rid or "\r" in rid:
            raise ValueError(f"id {rid!r} contains a newline")
    digest = hashlib.blake2b(digest_size=_CHECKSUM_BYTES)
    step = _chunk_rows(matrix.dim, len(matrix))
    with open(path, "wb") as out:
        def write(part) -> None:
            digest.update(part)
            out.write(part)

        write(_HEADER.pack(EMBX_MAGIC, EMBX_VERSION, matrix.dim, len(matrix)))
        for start in range(0, len(matrix), step):
            rows = range(start, min(start + step, len(matrix)))
            write(matrix.take(rows).astype("<f4", copy=False))
        write(b"".join(rid.encode("utf-8") + b"\n" for rid in matrix.ids))
        out.write(digest.digest())


def _read_row_chunks(stream, rows: int, dim: int):
    """Read `rows` float32 rows of `dim` values in chunks: (raw bytes, (r, dim) array)."""
    step = _chunk_rows(dim, rows)
    for start in range(0, rows, step):
        count = min(step, rows - start)
        raw = stream.read(count * dim * 4)
        yield raw, np.frombuffer(raw, dtype="<f4").reshape(count, dim)


def import_embeddings(path) -> EmbeddingMatrix:
    """Read an EMBX file; round-trips export_embeddings bit-exactly.

    Two streamed passes in row chunks: the first checks the checksum and
    counts the set entries, the second fills the CSR arrays.
    """
    with open(path, "rb") as stream:
        size = os.fstat(stream.fileno()).st_size
        head = stream.read(_HEADER.size)
        if len(head) < 4 or head[:4] != EMBX_MAGIC:
            raise EmbxMagicError(f"{path}: bad magic")
        if len(head) < _HEADER.size:
            raise EmbxChecksumError(f"{path}: truncated header")
        _, version, dim, rows = _HEADER.unpack(head)
        if version != EMBX_VERSION:
            raise EmbxMagicError(f"{path}: unsupported version {version}")
        float_bytes = rows * dim * 4
        if size < _HEADER.size + float_bytes + _CHECKSUM_BYTES:
            raise EmbxChecksumError(f"{path}: truncated file")
        digest = hashlib.blake2b(head, digest_size=_CHECKSUM_BYTES)
        nnz = 0
        for raw, chunk in _read_row_chunks(stream, rows, dim):
            digest.update(raw)
            nnz += int(np.count_nonzero(chunk.view("<i4")))
        id_block = stream.read(size - _HEADER.size - float_bytes - _CHECKSUM_BYTES)
        digest.update(id_block)
        if stream.read() != digest.digest():
            raise EmbxChecksumError(f"{path}: checksum mismatch")
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
        stream.seek(_HEADER.size)
        parts = (_sparse_rows(chunk) for _, chunk in _read_row_chunks(stream, rows, dim))
        return _from_parts(ids, dim, parts, nnz)


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


def write_checksummed_container(path, header: dict, payloads) -> None:
    """Write, by write_checksummed_text, the JSON header (sorted keys) and
    one base64 line of each payload array's row-major bytes."""
    body = [json.dumps(header, sort_keys=True)]
    body += [base64.b64encode(np.asarray(a).tobytes()).decode("ascii") for a in payloads]
    write_checksummed_text(path, "\n".join(body) + "\n")


def read_checksummed_container(path, error: type[Exception], fields: dict, payloads):
    """The header and payload arrays of a file written by
    write_checksummed_container.

    `fields` maps each key the header must hold to its converter.
    `payloads(header)` gives the (dtype, shape) of each payload from the
    converted header. A missing or unconvertible key, a payload that is
    missing or of another size, or a line beyond the payloads raises `error`
    naming the file.
    """
    lines = read_checksummed_text(path, error)
    try:
        raw = json.loads(lines[0]) if lines else {}
        header = {key: convert(raw[key]) for key, convert in fields.items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise error(f"{path}: malformed header ({type(exc).__name__}: {exc})")
    layout = payloads(header)
    if len(lines) != 1 + len(layout):
        raise error(f"{path}: malformed file, {len(layout)} payload lines expected")
    arrays = []
    for line, (dtype, shape) in zip(lines[1:], layout):
        try:
            data = base64.b64decode(line)
        except ValueError as exc:
            raise error(f"{path}: payload is not base64 ({exc})")
        size = np.dtype(dtype).itemsize * math.prod(shape)
        if len(data) != size:
            raise error(f"{path}: payload of {len(data)} bytes, header gives {size}")
        arrays.append(np.frombuffer(data, dtype=dtype).reshape(shape))
    return header, arrays


def _stored_dots(queries: np.ndarray, matrix: EmbeddingMatrix, starts: np.ndarray,
                 counts: np.ndarray) -> np.ndarray:
    """(q, r) dots of float64 queries with r rows of the matrix, given by
    where their stored entries start and how many there are: each row's
    first product plus numpy's pairwise sum of the others, in column order.
    Every row stores at least one entry. The products are freed on return,
    before the next chunk's are made."""
    positions = ranges(starts, counts)
    products = np.take(queries, matrix.indices[positions], axis=1)
    products *= matrix.values[positions]
    return np.add.reduceat(products, np.cumsum(counts) - counts, axis=1)


def cosine_scores(queries: np.ndarray, matrix: EmbeddingMatrix, rows) -> np.ndarray:
    """(q, n) cosines of a (q, d) block of queries against the matrix rows
    at positions `rows` (repeats allowed).

    A score is the dot product over the row's stored entries, in column
    order: the first product plus numpy's pairwise sum of the others
    (`np.add.reduceat`), then + 0.0, so a zero dot is +0.0. It divides by
    the stored row norm (EmbeddingMatrix.norms) times the query's 1-D norm
    and is clipped to [-1, 1]; zero-norm rows and a zero-norm query score
    0. The dot is a fixed numpy sum, not a BLAS dot, so it does not depend
    on the BLAS build or its threads (the norms are 1-D BLAS dots, as
    np.linalg.norm takes them); a score lies within nnz * 2**-53 of the
    cosine of the exactly summed dot, plus the division's rounding. Only rows of non-zero norm are
    read, in blocks of queries and chunks of rows whose products, queries
    times the chunk's stored entries, stay within _SCORE_CHUNK_FLOATS
    values (1 MB), unless one row alone stores more. A score depends on its
    own query and row only, so scores of a sub-block are the matching
    entries of the block's scores.
    """
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != matrix.dim:
        raise ValueError(f"queries of shape {queries.shape} for a matrix of dim {matrix.dim}")
    rows = np.asarray(rows, dtype=np.intp)
    norms = matrix.norms[rows]
    # one 1-D norm per query, from a stack of 1×d · d×1 products: numpy
    # hands each to the BLAS dot that np.linalg.norm's x.dot(x) reaches
    # (norm(axis=1) sums in another order)
    qnorms = np.sqrt(np.matmul(queries[:, None, :], queries[:, :, None])[:, 0, 0])
    scores = np.zeros((len(queries), rows.size), dtype=np.float64)
    live_q, live = np.flatnonzero(qnorms > 0.0), np.flatnonzero(norms > 0.0)
    if not (live_q.size and live.size):
        return scores
    # a row of non-zero norm stores at least one entry
    starts = matrix.indptr[rows[live]]
    counts = matrix.indptr[rows[live] + 1] - starts
    dots = np.empty((len(queries), live.size))
    # blocks of queries, views and not copies, small enough that one
    # block's products with any row, which stores at most d entries, stay
    # within the budget
    q_step = max(1, _SCORE_CHUNK_FLOATS // matrix.dim)
    for q in range(0, len(queries), q_step):
        block = queries[q:q + q_step]
        for lo, hi in chunks(counts, _SCORE_CHUNK_FLOATS // len(block)):
            dots[q:q + len(block), lo:hi] = _stored_dots(block, matrix, starts[lo:hi],
                                                         counts[lo:hi])
    dots += 0.0
    scores[np.ix_(live_q, live)] = np.clip(
        dots[live_q] / (norms[live] * qnorms[live_q, None]), -1.0, 1.0)
    return scores


def rank_scores(scores: np.ndarray, order, k: int) -> list[tuple[int, float]]:
    """The first k (position, score) pairs of the positions in `order` by
    descending score, then by their place in `order`.

    `order` lists the candidate positions by ascending key, equal keys by
    position, so the result is the full sort by (-score, key, position)
    cut at k: one stable argsort, in which -0.0 and 0.0 tie.
    """
    order = np.asarray(order, dtype=np.intp)
    ranked = order[(-scores[order]).argsort(kind="stable")[:k]]
    return list(zip(ranked.tolist(), scores[ranked].tolist()))


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
    scores = cosine_scores(query[None, :], matrix, keep)[0]
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return [(ids[i], score) for i, score in rank_scores(scores, order, k)]
