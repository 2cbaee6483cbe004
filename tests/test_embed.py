import hashlib
import struct
from pathlib import Path

import numpy as np
import pytest
from conftest import dense, traced_peak
from test_batch_oracles import cosine_similarity, same_bits, stored_order_cosine

import dlab.embed
from dlab.embed import (
    EmbedderConfig,
    EmbeddingMatrix,
    EmbxChecksumError,
    EmbxMagicError,
    EmbxRowCountError,
    cosine_scores,
    embed_text,
    embed_texts,
    export_embeddings,
    import_embeddings,
    rank_scores,
    top_k_similar,
)
from dlab.model import ModelParams, save_model

CFG = EmbedderConfig(dim=64, ngram_range=(1, 2), seed=3)


# ---------------------------------------------------------------------------
# the embedder

def test_embed_deterministic():
    a = embed_text("the cat sat on the mat", CFG)
    b = embed_text("the cat sat on the mat", CFG)
    assert np.array_equal(a, b)
    assert a.dtype == np.float32


def test_embed_unit_norm_or_zero():
    v = embed_text("hello world", CFG)
    assert abs(float(np.linalg.norm(v)) - 1.0) < 1e-6
    z = embed_text("!!! ---", CFG)  # no tokens at all
    assert not z.any()
    assert embed_text("", CFG).shape == (64,)


def test_embed_seed_and_dim_matter():
    a = embed_text("same text", CFG)
    b = embed_text("same text", EmbedderConfig(dim=64, ngram_range=(1, 2), seed=4))
    assert not np.array_equal(a, b)
    c = embed_text("same text", EmbedderConfig(dim=128, ngram_range=(1, 2), seed=3))
    assert c.shape == (128,)


def test_embed_case_and_tokenization():
    assert np.array_equal(embed_text("Cats RULE", CFG), embed_text("cats rule", CFG))
    # punctuation is not a token; apostrophes stay inside tokens
    assert np.array_equal(embed_text("don't stop", CFG), embed_text("don't, stop!", CFG))


def test_ngram_range_changes_vector():
    uni = EmbedderConfig(dim=64, ngram_range=(1, 1), seed=3)
    assert not np.array_equal(embed_text("a b c", CFG), embed_text("a b c", uni))


def test_embedder_config_validation():
    with pytest.raises(ValueError):
        EmbedderConfig(dim=4)
    with pytest.raises(ValueError):
        EmbedderConfig(ngram_range=(2, 1))
    # the hash key is the seed's 8 unsigned bytes
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            EmbedderConfig(seed=seed)
    assert embed_text("a b", EmbedderConfig(dim=8, seed=2 ** 64 - 1)).shape == (8,)
    with pytest.raises(TypeError):  # hashed n-grams are the only embedder
        EmbedderConfig(kind="learned")


@pytest.mark.parametrize("settings", [
    dict(dim=8, seed=2.5), dict(ngram_range=(1, 2.5)), dict(dim=8.5), dict(seed=True),
    dict(dim=True), dict(ngram_range=(True, 2)), dict(seed=np.uint64(3)),
], ids=["seed-2.5", "ngram-2.5", "dim-8.5", "seed-True", "dim-True", "ngram-True", "seed-uint64"])
def test_embedder_config_takes_only_integers(settings):
    # a float would fail in embed_text, not here, and a bool would hash as 0 or 1
    with pytest.raises(ValueError, match="must hold integers"):
        EmbedderConfig(**settings)


# ---------------------------------------------------------------------------
# the matrix

def test_embed_texts_and_matrix_lookup():
    m = embed_texts([("a", "one two"), ("b", "three"), ("c", "!!!")], CFG)
    assert m.ids == ["a", "b", "c"]
    assert len(m) == 3 and m.dim == 64
    assert "a" in m and "z" not in m
    assert np.array_equal(m.row("a"), embed_text("one two", CFG))
    assert m.norms[2] == 0.0  # "!!!" has no n-grams


def test_matrix_duplicate_ids_rejected(monkeypatch):
    calls = []
    real = dlab.embed.embed_text

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    # embed_texts calls embed_text through the module, once per text, and
    # checks the ids before the first call
    monkeypatch.setattr(dlab.embed, "embed_text", counted)
    with pytest.raises(ValueError, match="duplicate id 'a'"):
        embed_texts([("a", "x"), ("b", "y"), ("a", "z")], CFG)
    with pytest.raises(ValueError, match="duplicate id '1'"):
        embed_texts([(1, "x"), ("1", "y")], CFG)
    assert calls == []
    embed_texts([("a", "x y"), ("b", "x y")], CFG)
    assert calls == ["x y", "x y"]


def test_embed_texts_rows_do_not_depend_on_the_chunk_size(monkeypatch):
    items = [(f"t{i}", f"word{i} shared words {i % 3}") for i in range(10)] + [("none", "!!")]
    whole = embed_texts(items, CFG)
    # three rows per chunk: the last chunk is shorter than the buffer
    monkeypatch.setattr(dlab.embed, "_CHUNK_BYTES", 3 * 4 * CFG.dim)
    chunked = embed_texts(items, CFG)
    assert np.array_equal(dense(chunked).view(np.int32), dense(whole).view(np.int32))
    assert np.array_equal(chunked.norms.view(np.int64), whole.norms.view(np.int64))
    assert np.array_equal(dense(whole)[-1], np.zeros(CFG.dim)) and whole.norms[-1] == 0.0


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        EmbeddingMatrix.from_dense(["a"], np.zeros((2, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        EmbeddingMatrix.from_dense(["a"], np.zeros(4, dtype=np.float32))


# ---------------------------------------------------------------------------
# the EMBX file format

def _sample_matrix():
    return embed_texts([("p1", "title words"), ("c1", "I like trains"),
                        ("c2", "the weather turned")], CFG)


def test_embx_roundtrip_bit_exact(tmp_path):
    m = _sample_matrix()
    path = tmp_path / "m.embx"
    export_embeddings(m, path)
    back = import_embeddings(path)
    assert back.ids == m.ids
    assert np.array_equal(dense(back), dense(m))
    assert dense(back).dtype == np.float32
    # export is byte-stable
    export_embeddings(back, tmp_path / "m2.embx")
    assert path.read_bytes() == (tmp_path / "m2.embx").read_bytes()


def test_embx_matches_independent_writer(tmp_path):
    """A from-scratch writer using only the documented layout must interoperate."""
    rows = np.array([[1.5, -2.0], [0.0, 3.25]], dtype="<f4")
    ids = ["idA", "idB"]
    buf = struct.pack("<4sHIQ", b"EMBX", 1, 2, 2)
    buf += rows.tobytes()
    buf += b"idA\nidB\n"
    buf += hashlib.blake2b(buf, digest_size=8).digest()
    path = tmp_path / "foreign.embx"
    path.write_bytes(buf)
    m = import_embeddings(path)
    assert m.ids == ids
    assert np.array_equal(dense(m), rows)
    # and our writer produces those exact bytes back
    export_embeddings(m, tmp_path / "ours.embx")
    assert (tmp_path / "ours.embx").read_bytes() == buf


def test_embx_read_by_independent_reader(tmp_path):
    m = _sample_matrix()
    path = tmp_path / "m.embx"
    export_embeddings(m, path)
    blob = path.read_bytes()
    magic, version, dim, rows = struct.unpack_from("<4sHIQ", blob)
    assert (magic, version, dim, rows) == (b"EMBX", 1, 64, 3)
    payload_end = 18 + rows * dim * 4
    data = np.frombuffer(blob, dtype="<f4", count=rows * dim, offset=18).reshape(rows, dim)
    assert np.array_equal(data, dense(m))
    ids = blob[payload_end:-8].decode().rstrip("\n").split("\n")
    assert ids == m.ids
    assert blob[-8:] == hashlib.blake2b(blob[:-8], digest_size=8).digest()


def oracle_export_embeddings(ids, rows, path):
    """The dense writer export_embeddings replaced: the whole file built in
    one buffer, then checksummed."""
    buf = bytearray()
    buf += struct.pack("<4sHIQ", b"EMBX", 1, rows.shape[1], rows.shape[0])
    buf += np.ascontiguousarray(rows, dtype="<f4").tobytes()
    for rid in ids:
        buf += rid.encode("utf-8") + b"\n"
    checksum = hashlib.blake2b(bytes(buf), digest_size=8).digest()
    Path(path).write_bytes(bytes(buf) + checksum)


def embx_cases():
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((7, 24)).astype(np.float32)
    rows[2] = 0.0  # an all-zero row
    rows[4, ::2] = -0.0
    rows[5, 3], rows[5, 7], rows[6, 1] = np.nan, np.inf, np.float32(1e-45)  # a subnormal
    sample = _sample_matrix()
    return [
        (["idA", "idB", "é", "x y", "5", "", "last"], rows),
        (sample.ids, dense(sample)),
        ([], np.zeros((0, 16), dtype=np.float32)),
    ]


# the default chunk, one row per chunk, and three rows per chunk, so chunk
# boundaries fall inside the payload
@pytest.mark.parametrize("chunk_rows", [None, 1, 3])
def test_embx_streams_the_dense_writers_bytes(tmp_path, monkeypatch, chunk_rows):
    for case, (ids, rows) in enumerate(embx_cases()):
        if chunk_rows is not None:
            monkeypatch.setattr(dlab.embed, "_CHUNK_BYTES", chunk_rows * 4 * rows.shape[1] + 5)
        matrix = EmbeddingMatrix.from_dense(ids, rows)
        path, want = tmp_path / f"{case}.embx", tmp_path / f"{case}-oracle.embx"
        export_embeddings(matrix, path)
        oracle_export_embeddings(ids, rows, want)
        assert path.read_bytes() == want.read_bytes()
        back = import_embeddings(path)
        assert back.ids == ids and back.dim == rows.shape[1]
        assert np.array_equal(dense(back).view(np.int32), rows.view(np.int32))
        assert np.array_equal(back.norms.view(np.int64), matrix.norms.view(np.int64))
        export_embeddings(back, tmp_path / "again.embx")
        assert (tmp_path / "again.embx").read_bytes() == want.read_bytes()


def test_hashed_matrix_memory_is_proportional_to_its_entries():
    texts = [(f"t{i}", " ".join(f"w{(i * 7 + j) % 97}" for j in range(30))) for i in range(300)]
    matrix = embed_texts(texts, EmbedderConfig(dim=4096))
    arrays = [value for value in vars(matrix).values() if isinstance(value, np.ndarray)]
    # no (rows, dim) array, nor any array of rows x dim entries
    assert all(a.ndim == 1 and a.size < len(matrix) * 4096 // 20 for a in arrays)
    nnz = matrix.values.size
    assert matrix.indices.size == nnz and 0 < nnz
    # int32 column and float32 value per entry; int64 indptr and float64 norm per row
    assert sum(a.nbytes for a in arrays) <= 8 * nnz + 16 * len(matrix) + 8


def test_embx_empty_matrix_roundtrip(tmp_path):
    m = EmbeddingMatrix.from_dense([], np.zeros((0, 16), dtype=np.float32))
    path = tmp_path / "empty.embx"
    export_embeddings(m, path)
    back = import_embeddings(path)
    assert back.ids == [] and back.dim == 16


def test_embx_newline_in_id_rejected(tmp_path):
    m = EmbeddingMatrix.from_dense(["a\nb"], np.zeros((1, 8), dtype=np.float32))
    with pytest.raises(ValueError, match="newline"):
        export_embeddings(m, tmp_path / "x.embx")


def test_embx_bad_magic(tmp_path):
    m = _sample_matrix()
    path = tmp_path / "m.embx"
    export_embeddings(m, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(EmbxMagicError):
        import_embeddings(path)


def test_embx_bad_version(tmp_path):
    m = _sample_matrix()
    path = tmp_path / "m.embx"
    export_embeddings(m, path)
    blob = bytearray(path.read_bytes())
    blob[4:6] = struct.pack("<H", 9)
    # re-stamp the checksum so only the version check can fire
    body = bytes(blob[:-8])
    path.write_bytes(body + hashlib.blake2b(body, digest_size=8).digest())
    with pytest.raises(EmbxMagicError, match="version"):
        import_embeddings(path)


def test_embx_checksum_mismatch(tmp_path):
    m = _sample_matrix()
    path = tmp_path / "m.embx"
    export_embeddings(m, path)
    blob = bytearray(path.read_bytes())
    blob[20] ^= 0xFF  # flip a payload byte
    path.write_bytes(bytes(blob))
    with pytest.raises(EmbxChecksumError, match="checksum"):
        import_embeddings(path)


def test_embx_truncation_is_checksum_error(tmp_path):
    m = _sample_matrix()
    path = tmp_path / "m.embx"
    export_embeddings(m, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(EmbxChecksumError):
        import_embeddings(path)


def test_embx_checks_run_in_order(tmp_path):
    # magic, truncated header, version, truncated file, checksum: each file
    # fails the named check and later ones too, and the named one must win
    path = tmp_path / "m.embx"
    export_embeddings(_sample_matrix(), path)
    blob = path.read_bytes()
    bad_version = blob[:4] + struct.pack("<H", 9) + blob[6:]
    cases = [
        (b"EMB", EmbxMagicError, "bad magic"),
        (b"EMBX\x01", EmbxChecksumError, "truncated header"),
        (bad_version[:40], EmbxMagicError, "version"),
        (blob[:40], EmbxChecksumError, "truncated file"),
        (blob[:-9] + b"\x00" + blob[-8:], EmbxChecksumError, "checksum mismatch"),
    ]
    for data, error, message in cases:
        path.write_bytes(data)
        with pytest.raises(error, match=message):
            import_embeddings(path)


def test_embx_row_count_mismatch(tmp_path):
    m = _sample_matrix()
    path = tmp_path / "m.embx"
    export_embeddings(m, path)
    blob = bytearray(path.read_bytes())
    # drop the last id line, keep the header row count, re-stamp the checksum
    body = bytes(blob[:-8])
    body = body[: body.rstrip(b"\n").rfind(b"\n") + 1]
    path.write_bytes(body + hashlib.blake2b(body, digest_size=8).digest())
    with pytest.raises(EmbxRowCountError):
        import_embeddings(path)


def test_checksummed_containers_keep_their_bytes(tmp_path):
    # a model with a non-contiguous weight view, written from fixed params;
    # the digest is that of the file save_model wrote before it shared one
    # container writer
    grid = np.arange(24, dtype=np.float64).reshape(4, 6) / 7.0 - 1.5
    save_model(ModelParams(weights=grid[::2, ::2], bias=np.array([0.25, -0.125]), gamma=2.0,
                           alpha=(0.3, 0.7), seed=5, epochs=3, learning_rate=0.01,
                           loss_history=[0.5, 0.25, 0.125],
                           embedder=EmbedderConfig(dim=64, ngram_range=(1, 2), seed=9)),
               tmp_path / "model.txt")
    assert hashlib.sha256((tmp_path / "model.txt").read_bytes()).hexdigest() == (
        "6d23771661fa5b3543de07c3913bab20c774953678d8532711ea0fbe07700a1c")


# ---------------------------------------------------------------------------
# cosine and retrieval

def test_cosine_fixture():
    assert cosine_similarity([1, 2, 2], [2, 1, 2]) == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert cosine_similarity([1, 0], [1, 0]) == 1.0
    assert cosine_similarity([1, 0], [-1, 0]) == -1.0
    assert cosine_similarity([0, 0], [1, 0]) == 0.0


def test_cosine_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        cosine_similarity([1, 2], [1, 2, 3])


def brute_top_k(query, matrix, k, exclude=frozenset()):
    rows = []
    for rid in matrix.ids:
        if rid in exclude:
            continue
        rows.append((rid, stored_order_cosine(query, matrix, matrix.row_index(rid))))
    rows.sort(key=lambda t: (-t[1], t[0]))
    return rows[:k]


def test_top_k_matches_brute_force(monkeypatch):
    rng = np.random.default_rng(11)
    data = rng.standard_normal((20, 8)).astype(np.float32)
    data[7] = 0.0  # a zero row
    matrix = EmbeddingMatrix.from_dense([f"r{i:02d}" for i in range(20)], data)
    query = rng.standard_normal(8)
    # the default chunk, then chunks of one and of three rows, which split
    # the scored rows
    for chunk_floats in (dlab.embed._SCORE_CHUNK_FLOATS, 8, 3 * 8 + 7):
        monkeypatch.setattr(dlab.embed, "_SCORE_CHUNK_FLOATS", chunk_floats)
        for exclude in (frozenset(), {"r00", "r07", "r13", "r19"}):
            for k in (1, 3, 20, 50):
                got = top_k_similar(query, matrix, k, exclude=exclude)
                want = brute_top_k(query, matrix, k, exclude)
                assert [rid for rid, _ in got] == [rid for rid, _ in want]
                assert same_bits(np.array([s for _, s in got]), np.array([s for _, s in want]))


@pytest.mark.parametrize("n_queries", [1, 64])
def test_cosine_scores_peak_memory_stays_near_the_chunk_budget(n_queries):
    # 400 rows at dim 4096, 12.5 MB as dense float64 rows: 399 rows of 35
    # stored entries and one fully dense row, whose products with 64
    # queries take 2 MB unless the queries are cut into blocks as well
    rng = np.random.default_rng(7)
    dim, n = 4096, 400
    rows = np.zeros((n, dim), dtype=np.float32)
    for row in rows:
        cols = rng.choice(dim, 35, replace=False)
        row[cols] = rng.standard_normal(cols.size)
    rows[n // 2] = rng.standard_normal(dim)
    matrix = EmbeddingMatrix.from_dense([f"r{i}" for i in range(n)], rows)
    queries = rng.standard_normal((n_queries, dim))
    scores, peak = traced_peak(lambda: cosine_scores(queries, matrix, range(n)))
    assert scores.shape == (n_queries, n) and scores[:, n // 2].any()
    # the scores, the dots they are taken from, and one chunk's products of
    # at most _SCORE_CHUNK_FLOATS values beside its entry positions
    assert peak <= 2 * scores.nbytes + dlab.embed._SCORE_CHUNK_FLOATS * 8 * 3 // 2


def key_order(keys):
    """The positions of `keys` by ascending key, equal keys by position: the
    order rank_scores breaks score ties by."""
    return sorted(range(len(keys)), key=keys.__getitem__)


def scalar_ranking(query, matrix, keys):
    """The ranking rank_scores(cosine_scores(...)) must reproduce: one
    stored_order_cosine per row, sorted by descending score, then ascending
    key (stable)."""
    scored = [(i, stored_order_cosine(query, matrix, i)) for i in range(len(keys))]
    return sorted(scored, key=lambda pair: (-pair[1], keys[pair[0]]))


@pytest.mark.parametrize("n,dim,seed", [(1, 8, 0), (9, 7, 1), (40, 64, 2), (67, 1024, 3)])
def test_rank_by_cosine_matches_scalar_oracle(n, dim, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, dim)).astype(np.float32)
    # one row repeated at every third position and in the last rows of the
    # block, so duplicates sit wherever a blocked kernel would split rows
    data[::3] = data[0]
    data[-3:] = data[0]
    data[n // 2] = 0.0  # an all-zero row
    matrix = EmbeddingMatrix.from_dense([f"r{i}" for i in range(n)], data)
    # keys in shuffled order, so exact ties among the duplicates break by key;
    # the (cid, text) keys repeat, as a comment that repeats a sentence does
    shuffled = [f"k{i:03d}" for i in rng.permutation(n)]
    tuples = [("c0" if i % 2 else "c1", f"s{i % 5}") for i in range(n)]
    queries = np.vstack([rng.standard_normal(dim), data[0], np.zeros(dim)])
    # every query in one call
    block = cosine_scores(queries, matrix, range(n))
    assert block.shape == (len(queries), n)
    for query, scores in zip(queries, block):
        for keys in (shuffled, tuples):
            assert rank_scores(scores, key_order(keys), n) == scalar_ranking(query, matrix, keys)


def test_rank_scores_top_k_is_the_full_sort_prefix():
    # exact ties, -0.0 beside 0.0, and repeated (cid, text) keys, as when one
    # comment repeats a sentence
    scores = np.array([0.5, -0.0, 0.0, 0.5, 0.25, 0.0, -0.0, 0.5, -0.25, 0.25, 0.5, 0.0])
    keyings = [
        [("c1", "a"), ("c0", "b"), ("c1", "a"), ("c1", "a"), ("c0", "b"), ("c0", "b"),
         ("c1", "a"), ("c0", "a"), ("c2", "z"), ("c1", "a"), ("c1", "a"), ("c0", "b")],
        [f"k{i}" for i in (5, 3, 3, 1, 0, 9, 2, 7, 4, 8, 1, 6)],
        ["same"] * len(scores),
    ]
    n = len(scores)
    values = scores.tolist()
    for keys in keyings:
        # the full stable sort by descending score, then ascending key
        full = [(i, values[i]) for i in sorted(range(n), key=lambda i: (-values[i], keys[i]))]
        for k in (1, 5, n, n + 3):
            got = rank_scores(scores, key_order(keys), k)
            assert got == full[:k]
            # the signs of the zeros come through as well
            assert [np.signbit(s) for _, s in got] == [np.signbit(s) for _, s in full[:k]]
            # a category filter's positions, taken in key order
            admitted = [i for i in key_order(keys) if i % 3]
            assert rank_scores(scores, admitted, k) == [p for p in full if p[0] % 3][:k]
        assert rank_scores(scores, [], 5) == []


def test_top_k_tie_broken_by_id():
    row = np.array([1.0, 0.0], dtype=np.float32)
    matrix = EmbeddingMatrix.from_dense(["zz", "aa", "mm"], np.vstack([row, row, row]))
    got = top_k_similar(np.array([1.0, 0.0]), matrix, 3)
    assert [rid for rid, _ in got] == ["aa", "mm", "zz"]
    assert all(s == 1.0 for _, s in got)


def test_top_k_exclude_and_zero_norms():
    data = np.array([[1, 0], [0, 0], [0.6, 0.8]], dtype=np.float32)
    matrix = EmbeddingMatrix.from_dense(["a", "z", "b"], data)
    got = top_k_similar(np.array([1.0, 0.0]), matrix, 3, exclude={"a"})
    assert [rid for rid, _ in got] == ["b", "z"]
    assert got[1][1] == 0.0  # the zero row scores 0, never NaN
    zero_q = top_k_similar(np.zeros(2), matrix, 2)
    assert all(s == 0.0 for _, s in zero_q)


def test_top_k_validation():
    matrix = _sample_matrix()
    with pytest.raises(ValueError):
        top_k_similar(np.zeros(64), matrix, 0)
    with pytest.raises(ValueError):
        top_k_similar(np.zeros(63), matrix, 1)
