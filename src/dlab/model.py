"""Verdict prediction: fused features, focal loss, a linear softmax model.

Features concatenate the post embedding with the mean of the sampled
context embeddings (zero half when the context is empty), so the context
route and the post-only baseline share one architecture; each distinct half
is stored once. Training is mini-batch Adam on focal loss with an analytic
gradient; gamma=0 recovers alpha-weighted cross-entropy exactly.
"""
from __future__ import annotations

import base64
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import stdtr

from .corpus import VERDICT_LABELS
from .embed import EmbeddingMatrix, read_checksummed_text, write_checksummed_text
from .sampler import ContextSet

logger = logging.getLogger(__name__)

# class index 0 is the majority class; prediction ties resolve to it
LABELS = VERDICT_LABELS
_LABEL_INDEX = {lab: i for i, lab in enumerate(LABELS)}


class ModelFileError(ValueError):
    """Bad model file: checksum mismatch or malformed container."""


def _label_index(label) -> int:
    if isinstance(label, str):
        try:
            return _LABEL_INDEX[label]
        except KeyError:
            raise ValueError(f"unknown label {label!r}; expected one of {LABELS}")
    idx = int(label)
    if idx not in (0, 1):
        raise ValueError(f"label index must be 0 or 1, got {label}")
    return idx


def encode_labels(labels) -> np.ndarray:
    """Class indices (0 NTA, 1 YTA) of an iterable of labels or indices."""
    return np.array([_label_index(label) for label in labels], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Features:
    """n feature rows stored once per distinct half.

    `block` is a (u, d) float64 array of half-rows and `index` an (n, 2)
    integer array; row i is [block[index[i, 0]] ‖ block[index[i, 1]]]. Train
    gathers batches with a clipping `np.take`, so the index is checked here:
    an entry outside [0, u) raises ValueError instead of being clamped.
    """
    block: np.ndarray
    index: np.ndarray

    def __post_init__(self):
        block, index = self.block, self.index
        if not (isinstance(block, np.ndarray) and block.ndim == 2
                and block.dtype == np.float64):
            raise ValueError("block must be a 2-D float64 array")
        if not (isinstance(index, np.ndarray) and index.ndim == 2 and index.shape[1] == 2
                and np.issubdtype(index.dtype, np.integer)):
            raise ValueError("index must be an (n, 2) integer array")
        if index.size and (index.min() < 0 or index.max() >= len(block)):
            raise ValueError(f"index entries must lie in [0, {len(block)})")

    def __len__(self) -> int:
        return len(self.index)

    @property
    def dim(self) -> int:
        return 2 * self.block.shape[1]

    def rows(self) -> np.ndarray:
        """The dense (n, 2d) feature matrix."""
        return self.block[self.index].reshape(len(self.index), self.dim)


def build_features(contexts: list[ContextSet], embeddings: EmbeddingMatrix,
                   sentences: EmbeddingMatrix | None = None) -> Features:
    """The features of n contexts, one row each: [post embedding ‖ mean
    context embedding].

    The post half is the context's post row of `embeddings`. Comment items
    resolve against `embeddings` by comment id, sentence items against
    `sentences` (pipeline.embed_sentences) by their text. The mean is taken
    over the item rows in item order; if every item row is unit norm (by the
    matrices' stored norms, within 1e-3) it is re-normalized to unit,
    keeping the two halves on the same scale. An empty context yields an
    exact zero half, block row 0. Each distinct post and each distinct
    sequence of item keys gets one block row, computed once.
    """
    d = embeddings.dim
    posts: dict[str, int] = {}
    for ctx in contexts:
        posts.setdefault(ctx.post_id, 1 + len(posts))
    post_rows = [embeddings.row_index(pid) for pid in posts]
    # the first context of each distinct item sequence, and its block row
    sequences: dict[tuple, int] = {}
    firsts: list[ContextSet] = []
    index = []
    for ctx in contexts:
        half = 0
        if ctx.items:
            key = tuple((item.unit, item.source_comment_id if item.unit == "comment"
                         else item.text) for item in ctx.items)
            if key not in sequences:
                sequences[key] = 1 + len(posts) + len(firsts)
                firsts.append(ctx)
            half = sequences[key]
        index.append((posts[ctx.post_id], half))

    block = np.zeros((1 + len(posts) + len(firsts), d))
    block[1:1 + len(posts)] = embeddings.data[post_rows]
    for half, ctx in enumerate(firsts, start=1 + len(posts)):
        stacked = np.empty((len(ctx.items), d))
        all_unit = True
        for j, item in enumerate(ctx.items):
            matrix, key = ((embeddings, item.source_comment_id) if item.unit == "comment"
                           else (sentences, item.text))
            if matrix is None or key not in matrix:
                raise ValueError(
                    f"cannot resolve a vector for context item {item.source_comment_id!r}")
            if matrix.dim != d:
                raise ValueError(f"context dim {matrix.dim} != post dim {d}")
            row = matrix.row_index(key)
            stacked[j] = matrix.data[row]
            all_unit = all_unit and abs(matrix.norms[row] - 1.0) <= 1e-3
        mean = stacked.mean(axis=0)
        mean_norm = float(np.linalg.norm(mean))
        if all_unit and mean_norm > 0.0:
            mean = mean / mean_norm
        block[half] = mean
    return Features(block, np.array(index, dtype=np.int64).reshape(len(contexts), 2))


def focal_loss_batch(z: np.ndarray, y: np.ndarray, alpha_t: np.ndarray,
                     gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row focal losses and their exact gradients with respect to the logits.

    z: (n, 2) logits, y: (n,) true class indices, alpha_t: (n,) weight of
    each row's true class. FL = -alpha_t (1 - p_t)^gamma log p_t with
    p = softmax(z); gamma=0 reduces to alpha-weighted cross-entropy. The
    gradient handles p_t -> 1 (its limit is 0) without blowing up.
    """
    rows = np.arange(len(y))
    zmax = z.max(axis=1, keepdims=True)
    logp = z - (zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True)))
    p = np.exp(logp)
    pt = p[rows, y]
    log_pt = logp[rows, y]
    one_minus = 1.0 - pt
    if gamma == 0.0:
        coeff = np.ones_like(pt)
    else:
        # limit of (1-p)^g - g p (1-p)^{g-1} log p as p -> 1 is 0
        coeff = np.zeros_like(pt)
        live = one_minus > 0.0
        coeff[live] = (
            one_minus[live] ** gamma
            - gamma * pt[live] * one_minus[live] ** (gamma - 1.0) * log_pt[live]
        )
    losses = -alpha_t * one_minus ** gamma * log_pt
    # (alpha_t coeff) (p - onehot(y)), built in p
    p[rows, y] -= 1.0
    p *= (alpha_t * coeff)[:, None]
    return losses, p


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    learning_rate: float = 1e-3
    focal_gamma: float = 2.0
    # None derives inverse class frequency from the training set
    focal_alpha: tuple[float, float] | None = None
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (math.isfinite(self.focal_gamma) and self.focal_gamma >= 0):
            raise ValueError(f"focal_gamma must be finite and >= 0, got {self.focal_gamma}")
        if self.focal_alpha is not None and not (
                len(self.focal_alpha) == 2
                and all(math.isfinite(a) and a > 0 for a in self.focal_alpha)):
            raise ValueError(
                f"focal_alpha must be two finite positive weights, got {self.focal_alpha}")


@dataclass
class ModelParams:
    weights: np.ndarray  # (2, feature_dim)
    bias: np.ndarray  # (2,)
    gamma: float
    alpha: tuple[float, float]
    seed: int
    epochs: int
    learning_rate: float
    # mean training loss after each epoch
    loss_history: list[float] = field(default_factory=list)


def _inverse_frequency_alpha(y: np.ndarray) -> tuple[float, float]:
    counts = np.bincount(y, minlength=2)
    if (counts == 0).any():
        raise ValueError(
            "training set lacks a class; pass focal_alpha explicitly")
    n = float(len(y))
    return (n / (2.0 * counts[0]), n / (2.0 * counts[1]))


def _check_labels(features: Features, y) -> np.ndarray:
    y = np.asarray(y)
    if y.shape != (len(features),):
        raise ValueError(f"need y of shape ({len(features)},), got {y.shape}")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be class indices 0 (NTA) or 1 (YTA)")
    return y.astype(np.int64)


def train(features: Features, y, cfg: TrainConfig) -> ModelParams:
    """Mini-batch Adam on focal loss from zero-initialized parameters.

    features: n rows (build_features), y: (n,) class indices
    (encode_labels). Each batch's rows are gathered from the small feature
    block into one reused buffer. Deterministic for a fixed config seed;
    learning_rate 0 leaves the zero parameters untouched by construction.
    """
    y = _check_labels(features, y)
    if not len(y):
        raise ValueError("empty training set")
    n, dim = len(y), features.dim
    block, index = features.block, features.index
    alpha = cfg.focal_alpha or _inverse_frequency_alpha(y)
    alpha_arr = np.asarray(alpha, dtype=np.float64)
    gamma = float(cfg.focal_gamma)

    # W and b are views of one parameter array, as are their gradients, so
    # one Adam update covers both
    params = np.zeros((2, dim + 1))
    W, b = params[:, :dim], params[:, dim]
    grad = np.empty_like(params)
    gW, gb = grad[:, :dim], grad[:, dim]
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    alpha_t = alpha_arr[y]
    buf = np.empty((min(cfg.batch_size, n), 2, block.shape[1]))

    rng = np.random.default_rng(cfg.seed)
    history: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            rows = len(idx)
            # mode "raise" would buffer out; Features has checked the index
            Xb = np.take(block, index[idx], axis=0, out=buf[:rows],
                         mode="clip").reshape(rows, dim)
            losses, gz = focal_loss_batch(Xb @ W.T + b, y[idx], alpha_t[idx], gamma)
            epoch_loss += float(losses.sum())
            gz /= rows
            np.matmul(gz.T, Xb, out=gW)
            gz.sum(axis=0, out=gb)

            step += 1
            m *= beta1; m += (1 - beta1) * grad
            v *= beta2; v += (1 - beta2) * grad ** 2
            mhat = m / (1 - beta1 ** step)
            vhat = v / (1 - beta2 ** step)
            params -= cfg.learning_rate * mhat / (np.sqrt(vhat) + eps)
        history.append(epoch_loss / n)
        logger.debug("epoch %d: mean loss %.6f", epoch + 1, history[-1])

    return ModelParams(
        weights=W, bias=b, gamma=gamma, alpha=(float(alpha[0]), float(alpha[1])),
        seed=cfg.seed, epochs=cfg.epochs, learning_rate=cfg.learning_rate,
        loss_history=history,
    )


def predict(params: ModelParams, features: Features) -> np.ndarray:
    """Class indices of the feature rows from the logits X @ W.T + b over
    their dense matrix X, the product train fits; exact ties go to NTA."""
    z = features.rows() @ params.weights.T + params.bias
    return (z[:, 1] > z[:, 0]).astype(np.int64)


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class EvalReport:
    n: int
    accuracy: float
    macro_f1: float
    per_class: dict[str, ClassMetrics]
    # 1/0 per test example, aligned with the dataset order; feeds the
    # example-level significance test
    correctness: np.ndarray | None = None


def compute_report(y_true, y_pred) -> EvalReport:
    """Accuracy, per-class precision/recall/F1, and macro F1.

    Zero denominators score 0; a class absent from both truth and
    predictions contributes F1 = 0 to the macro average, with a warning.
    """
    import warnings as _warnings

    yt = np.array([_label_index(v) for v in y_true], dtype=np.int64)
    yp = np.array([_label_index(v) for v in y_pred], dtype=np.int64)
    if yt.shape != yp.shape or yt.size == 0:
        raise ValueError("y_true and y_pred must be equal-length and non-empty")
    correctness = (yt == yp).astype(np.int64)
    per_class: dict[str, ClassMetrics] = {}
    f1s = []
    for idx, lab in enumerate(LABELS):
        tp = int(((yp == idx) & (yt == idx)).sum())
        fp = int(((yp == idx) & (yt != idx)).sum())
        fn = int(((yp != idx) & (yt == idx)).sum())
        support = int((yt == idx).sum())
        if support == 0 and tp + fp == 0:
            _warnings.warn(f"class {lab} absent from truth and predictions; F1 = 0")
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[lab] = ClassMetrics(precision, recall, f1, support)
        f1s.append(f1)
    return EvalReport(
        n=int(yt.size),
        accuracy=float(correctness.mean()),
        macro_f1=float(np.mean(f1s)),
        per_class=per_class,
        correctness=correctness,
    )


def evaluate(params: ModelParams, features: Features, y) -> EvalReport:
    """Score the model on the feature rows with class indices y."""
    y = _check_labels(features, y)
    return compute_report(y, predict(params, features))


def significance_test(correct_a, correct_b) -> tuple[float, float]:
    """Welch's two-sample t-test over per-example correctness indicators.

    Returns (t, two-sided p) with Welch-Satterthwaite degrees of freedom.
    Conventions: two zero-variance samples give (0, 1) when the means are
    equal and (±inf, 0) otherwise. Needs at least two examples per side.
    """
    a = np.asarray(correct_a, dtype=np.float64)
    b = np.asarray(correct_b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size < 2 or b.size < 2:
        raise ValueError("need at least two observations per sample")
    na, nb = a.size, b.size
    ma, mb = float(a.mean()), float(b.mean())
    va, vb = float(a.var(ddof=1)), float(b.var(ddof=1))
    if va == 0.0 and vb == 0.0:
        if ma == mb:
            return 0.0, 1.0
        return math.copysign(math.inf, ma - mb), 0.0
    se2 = va / na + vb / nb
    t = (ma - mb) / math.sqrt(se2)
    df = se2 ** 2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    p = 2.0 * float(stdtr(df, -abs(t)))
    return t, min(1.0, max(0.0, p))


# ---------------------------------------------------------------------------
# serialization

def save_model(params: ModelParams, path) -> None:
    """Text container: JSON header, base64 little-endian float64 weights and
    bias, trailing checksum line."""
    header = {
        "feature_dim": int(params.weights.shape[1]),
        "gamma": params.gamma,
        "alpha": list(params.alpha),
        "seed": params.seed,
        "epochs": params.epochs,
        "learning_rate": params.learning_rate,
        "loss_history": params.loss_history,
    }
    wbytes = np.ascontiguousarray(params.weights, dtype="<f8").tobytes()
    bbytes = np.ascontiguousarray(params.bias, dtype="<f8").tobytes()
    write_checksummed_text(path, (
        json.dumps(header, sort_keys=True) + "\n"
        + base64.b64encode(wbytes).decode("ascii") + "\n"
        + base64.b64encode(bbytes).decode("ascii") + "\n"
    ))


def load_model(path) -> ModelParams:
    lines = read_checksummed_text(path, ModelFileError)
    if len(lines) != 3:
        raise ModelFileError(f"{path}: malformed model file")
    header = json.loads(lines[0])
    dim = int(header["feature_dim"])
    weights = np.frombuffer(base64.b64decode(lines[1]), dtype="<f8").reshape(2, dim).copy()
    bias = np.frombuffer(base64.b64decode(lines[2]), dtype="<f8").copy()
    return ModelParams(
        weights=weights, bias=bias, gamma=float(header["gamma"]),
        alpha=tuple(header["alpha"]), seed=int(header["seed"]),
        epochs=int(header["epochs"]), learning_rate=float(header["learning_rate"]),
        loss_history=list(header["loss_history"]),
    )
