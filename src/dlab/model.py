"""Verdict prediction: fused features, focal loss, a linear softmax model.

Features concatenate the post embedding with the mean of the sampled
context embeddings (zero block when the context is empty), so the context
route and the post-only baseline share one architecture. Training is
mini-batch Adam on focal loss with an analytic gradient; gamma=0 recovers
alpha-weighted cross-entropy exactly.
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


def build_features(contexts: list[ContextSet], embeddings: EmbeddingMatrix,
                   sentences: EmbeddingMatrix | None = None) -> np.ndarray:
    """The (n, 2d) float64 feature matrix of n contexts, one row each:
    [post embedding ‖ mean context embedding].

    The post block is the context's post row of `embeddings`. Comment items
    resolve against `embeddings` by comment id, sentence items against
    `sentences` (pipeline.embed_sentences) by their text. The mean is taken
    over the item rows in item order; if every item row is unit norm (by the
    matrices' stored norms, within 1e-3) it is re-normalized to unit,
    keeping the two blocks on the same scale. An empty context yields an
    exact zero block.
    """
    d = embeddings.dim
    X = np.zeros((len(contexts), 2 * d))
    X[:, :d] = embeddings.data[[embeddings.row_index(ctx.post_id) for ctx in contexts]]
    for i, ctx in enumerate(contexts):
        if not ctx.items:
            continue
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
        X[i, d:] = mean
    return X


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
    onehot = np.zeros_like(p)
    onehot[rows, y] = 1.0
    grads = (alpha_t * coeff)[:, None] * (p - onehot)
    return losses, grads


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


def focal_loss(logits, label, gamma: float = TrainConfig.focal_gamma, alpha=(0.5, 0.5)):
    """Focal loss of one example and its gradient with respect to the logits
    (see focal_loss_batch)."""
    z = np.asarray(logits, dtype=np.float64)
    if z.shape != (2,):
        raise ValueError(f"expected two logits, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("logits must be finite")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (2,) or (alpha <= 0).any():
        raise ValueError("alpha must be two positive weights")
    t = _label_index(label)
    losses, grads = focal_loss_batch(z[None, :], np.array([t]), alpha[[t]], float(gamma))
    return float(losses[0]), grads[0]


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


def _check_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError(f"need X of shape (n, dim) and y of shape (n,), got {X.shape} "
                         f"and {y.shape}")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be class indices 0 (NTA) or 1 (YTA)")
    return X, y.astype(np.int64)


def train(X, y, cfg: TrainConfig) -> ModelParams:
    """Mini-batch Adam on focal loss from zero-initialized parameters.

    X: (n, dim) features (build_features), y: (n,) class indices
    (encode_labels). Deterministic for a fixed config seed; learning_rate 0
    leaves the zero parameters untouched by construction.
    """
    X, y = _check_xy(X, y)
    if not len(y):
        raise ValueError("empty training set")
    n, dim = X.shape
    alpha = cfg.focal_alpha or _inverse_frequency_alpha(y)
    alpha_arr = np.asarray(alpha, dtype=np.float64)
    gamma = float(cfg.focal_gamma)

    W = np.zeros((2, dim))
    b = np.zeros(2)
    mW = np.zeros_like(W); vW = np.zeros_like(W)
    mb = np.zeros_like(b); vb = np.zeros_like(b)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    alpha_t = alpha_arr[y]

    rng = np.random.default_rng(cfg.seed)
    history: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            Xb, yb = X[idx], y[idx]
            losses, gz = focal_loss_batch(Xb @ W.T + b, yb, alpha_t[idx], gamma)
            epoch_loss += float(losses.sum())
            gz /= len(idx)
            gW = gz.T @ Xb
            gb = gz.sum(axis=0)

            step += 1
            for param, grad, m, v in ((W, gW, mW, vW), (b, gb, mb, vb)):
                m *= beta1; m += (1 - beta1) * grad
                v *= beta2; v += (1 - beta2) * grad ** 2
                mhat = m / (1 - beta1 ** step)
                vhat = v / (1 - beta2 ** step)
                param -= cfg.learning_rate * mhat / (np.sqrt(vhat) + eps)
        history.append(epoch_loss / n)
        logger.debug("epoch %d: mean loss %.6f", epoch + 1, history[-1])

    return ModelParams(
        weights=W, bias=b, gamma=gamma, alpha=(float(alpha[0]), float(alpha[1])),
        seed=cfg.seed, epochs=cfg.epochs, learning_rate=cfg.learning_rate,
        loss_history=history,
    )


def predict(params: ModelParams, features) -> tuple[str, np.ndarray]:
    """Predicted label and class probabilities of one feature row; exact
    ties go to NTA."""
    x = np.asarray(features, dtype=np.float64)
    z = params.weights @ x + params.bias
    zmax = z.max()
    p = np.exp(z - zmax)
    p /= p.sum()
    # argmax returns the first (NTA) index on exact ties
    return LABELS[int(np.argmax(p))], p


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


def evaluate(params: ModelParams, X, y) -> EvalReport:
    """Score the model on feature rows X with class indices y."""
    X, y = _check_xy(X, y)
    # one matrix-vector product per row, as predict computes it; X @ W.T
    # is another BLAS call and may round differently
    y_pred = [_LABEL_INDEX[predict(params, x)[0]] for x in X]
    return compute_report(y, y_pred)


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
