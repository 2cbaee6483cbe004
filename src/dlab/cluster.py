"""Dimensionality reduction and k-means diagnostics for comment embeddings.

The reduction is a seeded randomized truncated SVD (range finder with
oversampling and power iterations) on mean-centered data; clustering is
k-means++ plus Lloyd iterations with a deterministic empty-cluster repair.
Everything downstream (silhouette, centroid neighbors) is exact, not
approximate.
"""
from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field

import numpy as np
# numpy imports its random module on first use; import it here, with the
# rest of the program, rather than inside the first k-means call
import numpy.random  # noqa: F401

from .corpus import write_jsonl
from .embed import EmbeddingMatrix

_CONVERGENCE_TOL = 1e-4
_MAX_ITERS = 300
_SVD_OVERSAMPLE = 10
_SVD_POWER_ITERS = 2
# largest (rows, n, dim) float64 difference block silhouette builds at once
BLOCK_BYTES = 32 * 2**20


def truncated_svd(matrix: EmbeddingMatrix, target_dim: int, seed: int = 0,
                  return_components: bool = False):
    """Project rows onto the top right-singular directions of centered data.

    Randomized subspace iteration: a Gaussian sketch of target_dim + 10
    columns, two power iterations with QR re-orthonormalization,
    then an exact SVD of the small projected matrix. Deterministic for a
    given seed. If the data rank is below target_dim the surplus columns
    are zero and a warning is raised.

    Returns the reduced EmbeddingMatrix (same ids, not normalized); with
    return_components=True also the (target_dim, dim) component matrix and
    the column mean.
    """
    if target_dim < 1:
        raise ValueError(f"target_dim must be >= 1, got {target_dim}")
    n, d = len(matrix), matrix.dim
    if target_dim > min(n, d):
        raise ValueError(f"target_dim {target_dim} exceeds min(n, d) = {min(n, d)}")
    rng = np.random.default_rng(seed)
    # the one dense copy of the rows, centered in place
    A = matrix.take(range(n), dtype=np.float64)
    mean = A.mean(axis=0)
    A -= mean

    q = min(target_dim + _SVD_OVERSAMPLE, min(n, d))
    sketch = rng.standard_normal((d, q))
    Y = A @ sketch
    Q, _ = np.linalg.qr(Y)
    for _ in range(_SVD_POWER_ITERS):
        Z, _ = np.linalg.qr(A.T @ Q)
        Q, _ = np.linalg.qr(A @ Z)
    B = Q.T @ A
    _, svals, vt = np.linalg.svd(B, full_matrices=False)
    components = vt[:target_dim]
    svals = svals[:target_dim]

    tol = max(n, d) * np.finfo(np.float64).eps * (svals[0] if svals.size else 0.0)
    dead = svals <= tol
    if dead.any():
        rank = int((~dead).sum())
        warnings.warn(
            f"data rank {rank} is below target_dim {target_dim}; "
            f"padding {int(dead.sum())} zero component(s)"
        )
        components = components.copy()
        components[dead] = 0.0

    projected = (A @ components.T).astype(np.float32)
    reduced = EmbeddingMatrix.from_dense(list(matrix.ids), projected)
    if return_components:
        return reduced, components, mean
    return reduced


@dataclass
class ClusterModel:
    k: int
    centroids: np.ndarray  # (k, dim) float64
    assignment: dict[str, int]  # comment id -> cluster index
    inertia: float
    seed: int
    # total within-cluster squared distance after each Lloyd iteration
    inertia_history: list[float] = field(default_factory=list)

    def members(self, cluster: int) -> list[str]:
        return sorted(cid for cid, c in self.assignment.items() if c == cluster)


def kmeans_plus_plus_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Standard k-means++ seeding: first centroid uniform, the rest D^2-weighted."""
    n = data.shape[0]
    centroids = np.empty((k, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = data[first]
    dist2 = ((data - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(dist2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))  # all points coincide with a centroid
        else:
            idx = int(rng.choice(n, p=dist2 / total))
        centroids[j] = data[idx]
        dist2 = np.minimum(dist2, ((data - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _pairwise_sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # (n, k) squared Euclidean distances, clipped at 0 against rounding
    sq = (
        (points ** 2).sum(axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + (centroids ** 2).sum(axis=1)[None, :]
    )
    return np.maximum(sq, 0.0)


def kmeans(matrix: EmbeddingMatrix, k: int, seed: int = 0) -> ClusterModel:
    """Lloyd's algorithm from a k-means++ start.

    Ties in assignment go to the lowest cluster index. A cluster that
    empties is re-seeded at the point farthest from its current centroid.
    Converges when no centroid moves more than 1e-4 (Euclidean) or after
    300 iterations. Same seed, same input: identical model.
    """
    n = len(matrix)
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}], got {k}")
    data = matrix.take(range(n), dtype=np.float64)
    rng = np.random.default_rng(seed)
    centroids = kmeans_plus_plus_init(data, k, rng)

    history: list[float] = []
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(_MAX_ITERS):
        sq = _pairwise_sq_dists(data, centroids)
        labels = sq.argmin(axis=1)  # argmin takes the lowest index on ties

        # deterministic empty-cluster repair: move each empty centroid onto
        # the point currently farthest from its own centroid
        counts = np.bincount(labels, minlength=k)
        if (counts == 0).any():
            own = sq[np.arange(n), labels].copy()
            for empty in np.flatnonzero(counts == 0):
                far = int(own.argmax())
                centroids[empty] = data[far]
                labels[far] = empty
                own[far] = 0.0
            sq = _pairwise_sq_dists(data, centroids)
            labels = sq.argmin(axis=1)

        history.append(float(sq[np.arange(n), labels].sum()))
        new_centroids = centroids.copy()
        for j in range(k):
            members = labels == j
            if members.any():
                new_centroids[j] = data[members].mean(axis=0)
        movement = float(np.linalg.norm(new_centroids - centroids, axis=1).max())
        centroids = new_centroids
        if movement < _CONVERGENCE_TOL:
            break

    sq = _pairwise_sq_dists(data, centroids)
    labels = sq.argmin(axis=1)
    inertia = float(sq[np.arange(n), labels].sum())
    history.append(inertia)
    assignment = {rid: int(labels[i]) for i, rid in enumerate(matrix.ids)}
    return ClusterModel(
        k=k, centroids=centroids, assignment=assignment,
        inertia=inertia, seed=seed, inertia_history=history,
    )


@dataclass
class SilhouetteReport:
    mean: float
    per_point: dict[str, float]


def silhouette(matrix: EmbeddingMatrix, model: ClusterModel) -> SilhouetteReport:
    """Exact silhouette: s = (b - a) / max(a, b), singletons score 0.

    a is the mean distance to the point's own cluster (self excluded), b the
    smallest mean distance to any other cluster. Requires k >= 2. Memory is
    bounded by processing points in row blocks of at most BLOCK_BYTES.
    """
    if model.k < 2:
        raise ValueError("silhouette needs at least two clusters")
    ids = matrix.ids
    n = len(ids)
    data = matrix.take(range(n), dtype=np.float64)
    labels = np.array([model.assignment[rid] for rid in ids], dtype=np.int64)
    counts = np.bincount(labels, minlength=model.k)

    onehot = np.zeros((n, model.k), dtype=np.float64)
    onehot[np.arange(n), labels] = 1.0

    scores = np.zeros(n, dtype=np.float64)
    block = max(1, min(512, n, BLOCK_BYTES // (8 * max(n * data.shape[1], 1))))
    for start in range(0, n, block):
        stop = min(start + block, n)
        # (b, n) exact Euclidean distances for this row block
        diff = data[start:stop, None, :] - data[None, :, :]
        dists = np.sqrt(np.square(diff, out=diff).sum(axis=2))
        del diff  # so that the next block is not allocated beside this one
        sums = dists @ onehot  # (b, k) summed distance to each cluster
        for row, i in enumerate(range(start, stop)):
            c = labels[i]
            if counts[c] <= 1:
                scores[i] = 0.0
                continue
            a = sums[row, c] / (counts[c] - 1)
            b = np.inf
            for other in range(model.k):
                if other != c and counts[other] > 0:
                    b = min(b, sums[row, other] / counts[other])
            denom = max(a, b)
            scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return SilhouetteReport(
        mean=float(scores.mean()) if n else 0.0,
        per_point={rid: float(scores[i]) for i, rid in enumerate(ids)},
    )


def nearest_to_centroid(model: ClusterModel, matrix: EmbeddingMatrix,
                        cluster: int, n: int) -> list[str]:
    """The n member comments closest to a cluster's centroid (ties by id)."""
    if not (0 <= cluster < model.k):
        raise ValueError(f"cluster {cluster} out of range for k={model.k}")
    member_ids = [rid for rid in matrix.ids if model.assignment.get(rid) == cluster]
    if not member_ids:
        warnings.warn(f"cluster {cluster} has no members")
        return []
    centroid = model.centroids[cluster]
    ranked = sorted(
        member_ids,
        key=lambda rid: (float(np.linalg.norm(matrix.row(rid).astype(np.float64) - centroid)), rid),
    )
    return ranked[:n]


# ---------------------------------------------------------------------------
# inspection

def write_inspection_file(model: ClusterModel, matrix: EmbeddingMatrix,
                          texts: dict[str, str], n: int, seed: int, path) -> None:
    """Review JSONL per cluster: n centroid-nearest plus n random members."""
    records = []
    for cluster in range(model.k):
        nearest = nearest_to_centroid(model, matrix, cluster, n)
        members = model.members(cluster)
        rng = random.Random(f"{seed}|{cluster}")
        sampled = rng.sample(members, min(n, len(members))) if members else []
        records.append({
            "cluster": cluster,
            "size": len(members),
            "nearest": [{"comment_id": cid, "text": texts.get(cid, "")} for cid in nearest],
            "random": [{"comment_id": cid, "text": texts.get(cid, "")} for cid in sampled],
        })
    write_jsonl(path, records)
