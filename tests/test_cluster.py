import json
import math
import tracemalloc

import numpy as np
import pytest
from conftest import dense

from dlab.cluster import (
    ClusterModel,
    kmeans,
    kmeans_plus_plus_init,
    nearest_to_centroid,
    silhouette,
    truncated_svd,
    write_inspection_file,
)
from dlab.embed import EmbeddingMatrix


def random_matrix(n, d, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d)).astype(np.float32)
    return EmbeddingMatrix.from_dense([f"r{i:03d}" for i in range(n)], data)


# ---------------------------------------------------------------------------
# truncated SVD

def test_svd_captured_variance_matches_dense_oracle():
    m = random_matrix(40, 20, seed=5)
    t = 5
    reduced = truncated_svd(m, t, seed=1)
    captured = float((dense(reduced).astype(np.float64) ** 2).sum())
    A = dense(m).astype(np.float64)
    svals = np.linalg.svd(A - A.mean(axis=0), compute_uv=False)
    want = float((svals[:t] ** 2).sum())
    assert captured == pytest.approx(want, rel=1e-4)
    assert reduced.ids == m.ids and dense(reduced).shape == (40, t)


def test_svd_components_orthonormal():
    m = random_matrix(30, 12, seed=7)
    _, components, mean = truncated_svd(m, 4, seed=0, return_components=True)
    assert components.shape == (4, 12) and mean.shape == (12,)
    assert np.allclose(components @ components.T, np.eye(4), atol=1e-10)


def test_svd_reconstructs_low_rank_data():
    rng = np.random.default_rng(3)
    data = (rng.standard_normal((25, 3)) @ rng.standard_normal((3, 10))).astype(np.float32)
    m = EmbeddingMatrix.from_dense([f"x{i}" for i in range(25)], data)
    reduced, components, mean = truncated_svd(m, 3, seed=2, return_components=True)
    recon = dense(reduced).astype(np.float64) @ components + mean
    assert np.allclose(recon, data, atol=1e-5)


def test_svd_rank_deficient_pads_and_warns():
    # integer outer products stay exactly rank 2 through float32 storage
    a = np.arange(1, 21, dtype=np.float64)
    c = np.where(np.arange(20) % 3 == 0, 2.0, -1.0)
    col1 = np.arange(8, dtype=np.float64)
    col2 = np.array([3, -1, 4, -1, 5, -9, 2, 6], dtype=np.float64)
    data = (np.outer(a, col1) + np.outer(c, col2)).astype(np.float32)
    m = EmbeddingMatrix.from_dense([f"x{i}" for i in range(20)], data)
    with pytest.warns(UserWarning, match="rank"):
        reduced, components, _ = truncated_svd(m, 5, seed=0, return_components=True)
    assert not components[2:].any()
    assert not dense(reduced)[:, 2:].any()
    assert dense(reduced)[:, :2].any()


def test_svd_deterministic_and_validated():
    m = random_matrix(16, 10, seed=8)
    a = truncated_svd(m, 3, seed=5)
    b = truncated_svd(m, 3, seed=5)
    assert np.array_equal(dense(a), dense(b))
    with pytest.raises(ValueError):
        truncated_svd(m, 0)
    with pytest.raises(ValueError):
        truncated_svd(m, 11)


# ---------------------------------------------------------------------------
# k-means against an independent Lloyd implementation

def lloyd_oracle(data, k, seed):
    """Plain Lloyd's from the same seeding, with direct squared distances."""
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    centroids = kmeans_plus_plus_init(data, k, np.random.default_rng(seed))

    def dists(cents):
        return np.array([[float(((p - c) ** 2).sum()) for c in cents] for p in data])

    labels = np.zeros(n, dtype=int)
    for _ in range(300):
        d2 = dists(centroids)
        labels = d2.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        if (counts == 0).any():
            own = d2[np.arange(n), labels].copy()
            for empty in np.flatnonzero(counts == 0):
                far = int(own.argmax())
                centroids[empty] = data[far]
                labels[far] = empty
                own[far] = 0.0
            d2 = dists(centroids)
            labels = d2.argmin(axis=1)
        new = centroids.copy()
        for j in range(k):
            if (labels == j).any():
                new[j] = data[labels == j].mean(axis=0)
        move = float(np.linalg.norm(new - centroids, axis=1).max())
        centroids = new
        if move < 1e-4:
            break
    d2 = dists(centroids)
    labels = d2.argmin(axis=1)
    return labels, float(d2[np.arange(n), labels].sum())


@pytest.mark.parametrize("n,d,k,seed", [(24, 3, 3, 0), (40, 6, 4, 1), (30, 2, 5, 2)])
def test_kmeans_matches_lloyd_oracle(n, d, k, seed):
    m = random_matrix(n, d, seed=seed + 100)
    model = kmeans(m, k, seed=seed)
    want_labels, want_inertia = lloyd_oracle(dense(m), k, seed)
    got_labels = np.array([model.assignment[rid] for rid in m.ids])
    assert np.array_equal(got_labels, want_labels)
    assert model.inertia == pytest.approx(want_inertia, abs=1e-9)


def test_kmeans_k_equals_n_distinct_points():
    m = random_matrix(8, 2, seed=6)
    model = kmeans(m, 8, seed=3)
    assert model.inertia == pytest.approx(0.0, abs=1e-12)
    assert sorted(model.assignment.values()) == list(range(8))


def test_kmeans_two_blobs_of_duplicates():
    data = np.array([[0.0, 0.0]] * 4 + [[9.0, 9.0]] * 3, dtype=np.float32)
    m = EmbeddingMatrix.from_dense([f"p{i}" for i in range(7)], data)
    model = kmeans(m, 2, seed=0)
    assert model.inertia == pytest.approx(0.0, abs=1e-12)
    left = {model.assignment[f"p{i}"] for i in range(4)}
    right = {model.assignment[f"p{i}"] for i in range(4, 7)}
    assert len(left) == 1 and len(right) == 1 and left != right


def test_kmeans_history_monotone_and_clusters_populated():
    m = random_matrix(50, 4, seed=9)
    model = kmeans(m, 4, seed=7)
    hist = model.inertia_history
    assert len(hist) >= 2 and hist[-1] == pytest.approx(model.inertia)
    for prev, cur in zip(hist, hist[1:]):
        assert cur <= prev + 1e-9
    sizes = [len(model.members(c)) for c in range(4)]
    assert all(s > 0 for s in sizes) and sum(sizes) == 50


def test_kmeans_deterministic_and_validated():
    m = random_matrix(20, 3, seed=12)
    a = kmeans(m, 3, seed=5)
    b = kmeans(m, 3, seed=5)
    assert a.assignment == b.assignment
    assert np.array_equal(a.centroids, b.centroids)
    assert a.inertia_history == b.inertia_history
    with pytest.raises(ValueError):
        kmeans(m, 0)
    with pytest.raises(ValueError):
        kmeans(m, 21)


def test_kmeans_seeding_varies_with_rng():
    data = np.asarray(dense(random_matrix(64, 3, seed=1)), dtype=np.float64)
    a = kmeans_plus_plus_init(data, 4, np.random.default_rng(0))
    b = kmeans_plus_plus_init(data, 4, np.random.default_rng(1))
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# silhouette against a quadratic oracle

def silhouette_oracle(matrix, model):
    ids = matrix.ids
    X = dense(matrix).astype(np.float64)
    labels = [model.assignment[rid] for rid in ids]
    out = {}
    for i, rid in enumerate(ids):
        c = labels[i]
        same = [j for j in range(len(ids)) if labels[j] == c and j != i]
        if not same:
            out[rid] = 0.0
            continue
        a = sum(np.linalg.norm(X[i] - X[j]) for j in same) / len(same)
        b = math.inf
        for other in range(model.k):
            if other == c:
                continue
            members = [j for j in range(len(ids)) if labels[j] == other]
            if members:
                b = min(b, sum(np.linalg.norm(X[i] - X[j]) for j in members) / len(members))
        denom = max(a, b)
        out[rid] = 0.0 if denom == 0.0 else (b - a) / denom
    return out


def test_silhouette_matches_oracle():
    m = random_matrix(30, 4, seed=13)
    model = kmeans(m, 3, seed=2)
    report = silhouette(m, model)
    want = silhouette_oracle(m, model)
    assert set(report.per_point) == set(want)
    for rid, score in want.items():
        assert report.per_point[rid] == pytest.approx(score, abs=1e-9)
    assert report.mean == pytest.approx(sum(want.values()) / len(want), abs=1e-9)


def test_silhouette_memory_is_bounded_by_bytes():
    # one block of 200 rows would be a 164 MB (200, 200, 512) float64 array
    m = random_matrix(200, 512, seed=5)
    model = kmeans(m, 3, seed=2)
    tracemalloc.start()
    try:
        report = silhouette(m, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    want = silhouette_oracle(m, model)
    for rid, score in want.items():
        assert report.per_point[rid] == pytest.approx(score, abs=1e-9)


def test_silhouette_singleton_scores_zero():
    data = np.array([[0, 0], [0.1, 0], [9, 9]], dtype=np.float32)
    m = EmbeddingMatrix.from_dense(["a", "b", "lone"], data)
    model = ClusterModel(k=2, centroids=np.zeros((2, 2)),
                         assignment={"a": 0, "b": 0, "lone": 1},
                         inertia=0.0, seed=0)
    report = silhouette(m, model)
    assert report.per_point["lone"] == 0.0
    assert report.per_point["a"] > 0.9  # tight pair far from the singleton


def test_silhouette_separated_blobs_near_one():
    rng = np.random.default_rng(2)
    blob_a = rng.normal(0.0, 0.01, size=(10, 3))
    blob_b = rng.normal(50.0, 0.01, size=(10, 3))
    m = EmbeddingMatrix.from_dense([f"p{i}" for i in range(20)],
                                   np.vstack([blob_a, blob_b]).astype(np.float32))
    model = kmeans(m, 2, seed=0)
    assert silhouette(m, model).mean > 0.99


def test_silhouette_requires_two_clusters():
    m = random_matrix(5, 2, seed=0)
    model = kmeans(m, 1, seed=0)
    with pytest.raises(ValueError, match="two clusters"):
        silhouette(m, model)


# ---------------------------------------------------------------------------
# inspection helpers

def test_nearest_to_centroid_orders_and_ties():
    data = np.array([[1, 0], [0, 1], [2, 0], [0, 0]], dtype=np.float32)
    m = EmbeddingMatrix.from_dense(["a", "b", "c", "d"], data)
    model = ClusterModel(k=1, centroids=np.zeros((1, 2)),
                         assignment={i: 0 for i in m.ids}, inertia=0.0, seed=0)
    assert nearest_to_centroid(model, m, 0, 3) == ["d", "a", "b"]
    assert nearest_to_centroid(model, m, 0, 10) == ["d", "a", "b", "c"]
    with pytest.raises(ValueError):
        nearest_to_centroid(model, m, 1, 2)


def test_nearest_to_centroid_empty_cluster_warns():
    m = random_matrix(4, 2, seed=0)
    model = ClusterModel(k=2, centroids=np.zeros((2, 2)),
                         assignment={i: 0 for i in m.ids}, inertia=0.0, seed=0)
    with pytest.warns(UserWarning, match="no members"):
        assert nearest_to_centroid(model, m, 1, 2) == []


def test_write_inspection_file_deterministic(tmp_path):
    m = random_matrix(15, 3, seed=30)
    model = kmeans(m, 3, seed=1)
    texts = {rid: f"text for {rid}" for rid in m.ids}
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_inspection_file(model, m, texts, n=2, seed=5, path=p1)
    write_inspection_file(model, m, texts, n=2, seed=5, path=p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = [json.loads(x) for x in p1.read_text().splitlines()]
    assert [rec["cluster"] for rec in lines] == [0, 1, 2]
    for rec in lines:
        assert rec["size"] == len(model.members(rec["cluster"]))
        assert len(rec["nearest"]) <= 2 and len(rec["random"]) <= 2
        assert all(t["text"] == f"text for {t['comment_id']}" for t in rec["nearest"])
