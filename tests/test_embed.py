import hashlib
import struct

import numpy as np
import pytest

from dlab.embed import (
    EmbedderConfig,
    EmbeddingMatrix,
    EmbxChecksumError,
    EmbxMagicError,
    EmbxRowCountError,
    cosine_scores,
    cosine_similarity,
    embed_text,
    embed_texts,
    export_embeddings,
    import_embeddings,
    rank_scores,
    top_k_similar,
)

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
    with pytest.raises(TypeError):  # hashed n-grams are the only embedder
        EmbedderConfig(kind="learned")


# ---------------------------------------------------------------------------
# the matrix

def test_embed_texts_and_matrix_lookup():
    m = embed_texts([("a", "one two"), ("b", "three"), ("c", "!!!")], CFG)
    assert m.ids == ["a", "b", "c"]
    assert len(m) == 3 and m.dim == 64
    assert "a" in m and "z" not in m
    assert np.array_equal(m.row("a"), embed_text("one two", CFG))
    assert m.norms[2] == 0.0  # "!!!" has no n-grams


def test_matrix_duplicate_ids_rejected():
    with pytest.raises(ValueError, match="duplicate id"):
        embed_texts([("a", "x"), ("a", "y")], CFG)


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        EmbeddingMatrix(ids=["a"], data=np.zeros((2, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        EmbeddingMatrix(ids=["a"], data=np.zeros(4, dtype=np.float32))


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
    assert np.array_equal(back.data, m.data)
    assert back.data.dtype == np.float32
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
    assert np.array_equal(m.data, rows)
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
    assert np.array_equal(data, m.data)
    ids = blob[payload_end:-8].decode().rstrip("\n").split("\n")
    assert ids == m.ids
    assert blob[-8:] == hashlib.blake2b(blob[:-8], digest_size=8).digest()


def test_embx_empty_matrix_roundtrip(tmp_path):
    m = EmbeddingMatrix(ids=[], data=np.zeros((0, 16), dtype=np.float32))
    path = tmp_path / "empty.embx"
    export_embeddings(m, path)
    back = import_embeddings(path)
    assert back.ids == [] and back.dim == 16


def test_embx_newline_in_id_rejected(tmp_path):
    m = EmbeddingMatrix(ids=["a\nb"], data=np.zeros((1, 8), dtype=np.float32))
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
        rows.append((rid, cosine_similarity(query, matrix.row(rid))))
    rows.sort(key=lambda t: (-t[1], t[0]))
    return rows[:k]


def test_top_k_matches_brute_force():
    rng = np.random.default_rng(11)
    data = rng.standard_normal((20, 8)).astype(np.float32)
    matrix = EmbeddingMatrix(ids=[f"r{i:02d}" for i in range(20)], data=data)
    query = rng.standard_normal(8)
    for k in (1, 3, 20, 50):
        got = top_k_similar(query, matrix, k)
        want = brute_top_k(query, matrix, k)
        assert [rid for rid, _ in got] == [rid for rid, _ in want]
        assert np.allclose([s for _, s in got], [s for _, s in want], atol=1e-12)


def scalar_ranking(query, rows, keys):
    """The ranking rank_scores(cosine_scores(...)) must reproduce: one cosine_similarity per
    row, sorted by descending score, then ascending key (stable)."""
    scored = [(i, cosine_similarity(query, rows[i])) for i in range(len(keys))]
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
    matrix = EmbeddingMatrix(ids=[f"r{i}" for i in range(n)], data=data)
    # keys in shuffled order, so exact ties among the duplicates break by key;
    # the (cid, text) keys repeat, as a comment that repeats a sentence does
    shuffled = [f"k{i:03d}" for i in rng.permutation(n)]
    tuples = [("c0" if i % 2 else "c1", f"s{i % 5}") for i in range(n)]
    queries = [rng.standard_normal(dim), data[0], np.zeros(dim)]
    for query in queries:
        for keys in (shuffled, tuples):
            got = rank_scores(cosine_scores(query, matrix.data, matrix.norms), keys)
            assert got == scalar_ranking(query, matrix.data, keys)


def test_top_k_tie_broken_by_id():
    row = np.array([1.0, 0.0], dtype=np.float32)
    matrix = EmbeddingMatrix(
        ids=["zz", "aa", "mm"], data=np.vstack([row, row, row]))
    got = top_k_similar(np.array([1.0, 0.0]), matrix, 3)
    assert [rid for rid, _ in got] == ["aa", "mm", "zz"]
    assert all(s == 1.0 for _, s in got)


def test_top_k_exclude_and_zero_norms():
    data = np.array([[1, 0], [0, 0], [0.6, 0.8]], dtype=np.float32)
    matrix = EmbeddingMatrix(ids=["a", "z", "b"], data=data)
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
