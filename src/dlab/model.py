"""Verdict prediction: fused features, focal loss, a linear softmax model.

Features concatenate the post embedding with the mean of the sampled
context embeddings (zero half when the context is empty), so the context
route and the post-only baseline share one architecture; each distinct half
is stored once, the post halves on the columns some post row stores and the
context halves on the columns some context item row stores. Training is
mini-batch Adam on focal loss with an analytic gradient over each half's
own columns; gamma=0 recovers alpha-weighted cross-entropy exactly.
"""
from __future__ import annotations

import logging
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np
# numpy imports its random module on first use; import it here, with the
# rest of the program, rather than inside the first training call
import numpy.random  # noqa: F401

from .corpus import VERDICT_LABELS, json_int, json_number, json_numbers
from .embed import (EmbedderConfig, EmbeddingMatrix, chunks, ranges,
                    read_checksummed_container, write_checksummed_container)
from .sampler import ContextSet

logger = logging.getLogger(__name__)

# class index 0 is the majority class; prediction ties resolve to it
LABELS = VERDICT_LABELS
_LABEL_INDEX = {lab: i for i, lab in enumerate(LABELS)}
# float64 values of the block of context means build_features sums at a
# time (256 KB)
_MEAN_CHUNK_FLOATS = 1 << 15


class ModelFileError(ValueError):
    """Bad model file: checksum mismatch or malformed container."""


def _label_index(label) -> int:
    """The class index of a label string, or of an integer class index 0 or
    1 (Python or numpy, not a bool); anything else is a ValueError."""
    if isinstance(label, str):
        try:
            return _LABEL_INDEX[label]
        except KeyError:
            raise ValueError(f"unknown label {label!r}; expected one of {LABELS}")
    if isinstance(label, bool) or not isinstance(label, (int, np.integer)):
        raise ValueError(f"a label must be one of {LABELS} or a class index 0 or 1, "
                         f"got {label!r}")
    if label not in (0, 1):
        raise ValueError(f"label index must be 0 or 1, got {label}")
    return int(label)


def encode_labels(labels) -> np.ndarray:
    """Class indices (0 NTA, 1 YTA) of an iterable of label strings or
    integer class indices."""
    return np.array([_label_index(label) for label in labels], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Features:
    """n feature rows, each distinct half stored once, on its own half's
    stored columns.

    `posts` is a (P, kp) and `contexts` an (S, kc) float64 array of
    half-rows, and `index` an (n, 2) integer array: `index[:, 0]` addresses
    `posts` and `index[:, 1]` addresses `contexts`. `post_columns` and
    `context_columns` are the ascending kp and kc positions, within a half
    of `width` d, that each block's columns hold; every other position of a
    half is +0.0. So row i is [p(index[i, 0]) ‖ c(index[i, 1])], where p(j)
    is the d-vector that holds posts[j] at `post_columns` and c(j) the one
    that holds contexts[j] at `context_columns`. By default a block holds
    the first positions of its half, columns = arange(k), and the width is
    the wider block's k. Train gathers batches with a clipping `np.take`,
    so the index is checked here: an entry outside its block's rows raises
    ValueError instead of being clamped.
    """
    posts: np.ndarray
    contexts: np.ndarray
    index: np.ndarray
    post_columns: np.ndarray = None
    context_columns: np.ndarray = None
    width: int = None

    def __post_init__(self):
        index = self.index
        if not (isinstance(index, np.ndarray) and index.ndim == 2 and index.shape[1] == 2
                and np.issubdtype(index.dtype, np.integer)):
            raise ValueError("index must be an (n, 2) integer array")
        halves = (("post", self.posts, "post_columns"),
                  ("context", self.contexts, "context_columns"))
        for name, block, _ in halves:
            if not (isinstance(block, np.ndarray) and block.ndim == 2
                    and block.dtype == np.float64):
                raise ValueError(f"the {name} block must be a 2-D float64 array")
        if self.width is None:
            object.__setattr__(self, "width", max(self.posts.shape[1], self.contexts.shape[1]))
        width = self.width
        if not (isinstance(width, (int, np.integer)) and width >= 0):
            raise ValueError(f"width must be a non-negative integer, got {width!r}")
        for half, (name, block, attr) in enumerate(halves):
            u, k = block.shape
            entries = index[:, half]
            if entries.size and (entries.min() < 0 or entries.max() >= u):
                raise ValueError(f"index[:, {half}] entries must lie in [0, {u}), "
                                 f"the rows of the {name} block")
            if getattr(self, attr) is None:
                object.__setattr__(self, attr, np.arange(k))
            columns = getattr(self, attr)
            if not (isinstance(columns, np.ndarray) and columns.ndim == 1
                    and np.issubdtype(columns.dtype, np.integer) and len(columns) == k):
                raise ValueError(f"{attr} must be a 1-D integer array of the {name} "
                                 f"block's {k} columns")
            if k and (columns[0] < 0 or columns[-1] >= width or (np.diff(columns) <= 0).any()):
                raise ValueError(f"{attr} must ascend strictly within [0, {width})")

    def __len__(self) -> int:
        return len(self.index)

    @property
    def dim(self) -> int:
        return 2 * self.width

    def rows(self) -> np.ndarray:
        """The dense (n, 2d) feature matrix, +0.0 off each half's stored
        columns."""
        X = np.zeros((len(self.index), self.dim))
        X[:, self.post_columns] = self.posts[self.index[:, 0]]
        X[:, self.width + self.context_columns] = self.contexts[self.index[:, 1]]
        return X


def build_features(contexts: list[ContextSet], embeddings: EmbeddingMatrix,
                   sentences: EmbeddingMatrix | None = None) -> Features:
    """The features of n contexts, one row each: [post embedding ‖ mean
    context embedding].

    The post half is the context's post row of `embeddings`. Comment items
    resolve against `embeddings` by comment id, sentence items against
    `sentences` (pipeline.embed_sentences) by their text. The mean is taken
    over the item rows in item order; if every item row is unit norm (by the
    matrices' stored norms, within 1e-3) it is re-normalized to unit,
    keeping the two halves on the same scale. Each distinct post gets one
    post block row, and each distinct sequence of item keys one context
    block row, computed once; an empty context yields an exact zero half,
    context block row 0. The post block keeps only the columns that some
    post row stores, and the context block only those that some context
    item row stores; every other column of each half is exactly +0.0.
    The means are summed in chunks of sequences, each into a (sequences x
    d) block of at most _MEAN_CHUNK_FLOATS values (256 KB).
    """
    d = embeddings.dim
    posts: dict[str, int] = {}
    for ctx in contexts:
        posts.setdefault(ctx.post_id, len(posts))
    # the first context of each distinct item sequence, and its block row
    sequences: dict[tuple, int] = {}
    firsts: list[ContextSet] = []
    index = []
    for ctx in contexts:
        half = 0
        if ctx.items:
            key = tuple([(item.unit, item.source_comment_id if item.unit == "comment"
                          else item.text) for item in ctx.items])
            if key not in sequences:
                sequences[key] = 1 + len(firsts)
                firsts.append(ctx)
            half = sequences[key]
        index.append((posts[ctx.post_id], half))

    # the columns that a post row stores, and the post block on them (a set
    # entry is any set bit, so a stored -0.0 keeps its column)
    post_rows = embeddings.take([embeddings.row_index(pid) for pid in posts])
    post_columns = np.flatnonzero(post_rows.view(np.int32).any(axis=0))
    post_block = np.take(post_rows, post_columns, axis=1).astype(np.float64)

    # pass 1: each distinct item, keyed as in its sequence's key, resolved
    # once to its row and whether that row is a sentence row; and the
    # distinct item of each item
    distinct: dict[tuple, int] = {}
    rows, in_sentences, item_ids = [], [], []
    for key, ctx in zip(sequences, firsts):
        for part, item in zip(key, ctx.items):
            i = distinct.get(part)
            if i is None:
                matrix = embeddings if item.unit == "comment" else sentences
                if matrix is None or part[1] not in matrix:
                    raise ValueError(
                        f"cannot resolve a vector for context item {item.source_comment_id!r}")
                if matrix.dim != d:
                    raise ValueError(f"context dim {matrix.dim} != post dim {d}")
                i = distinct[part] = len(rows)
                rows.append(matrix.row_index(part[1]))
                in_sentences.append(matrix is not embeddings)
            item_ids.append(i)

    # each distinct item's stored entries, where they start in its matrix
    # and how many, and whether its row is unit norm (by the stored norm,
    # within 1e-3); the columns that they store, marked in chunks of rows.
    # Only the matrices that some item resolves against are read.
    rows, in_sentences = np.array(rows, dtype=np.intp), np.array(in_sentences, dtype=bool)
    starts, counts = np.empty(len(rows), dtype=np.int64), np.empty(len(rows), dtype=np.int64)
    unit_norm = np.empty(len(rows), dtype=bool)
    stored = np.zeros(d, dtype=bool)
    matrices = [(flag, matrix) for flag, matrix in ((False, embeddings), (True, sentences))
                if (in_sentences == flag).any()]
    for flag, matrix in matrices:
        mine = in_sentences == flag
        starts[mine] = matrix.indptr[rows[mine]]
        counts[mine] = matrix.indptr[rows[mine] + 1] - starts[mine]
        unit_norm[mine] = np.abs(matrix.norms[rows[mine]] - 1.0) <= 1e-3
        for lo, hi in chunks(counts[mine], _MEAN_CHUNK_FLOATS):
            stored[matrix.indices[ranges(starts[mine][lo:hi], counts[mine][lo:hi])]] = True
    context_columns = np.flatnonzero(stored)
    # the same for each item, through its distinct item
    item_ids = np.array(item_ids, dtype=np.intp)
    starts, counts = starts[item_ids], counts[item_ids]
    in_sentences, unit_norm = in_sentences[item_ids], unit_norm[item_ids]
    # each sequence's item count, as a float for the mean, and first item
    lengths = np.array([len(ctx.items) for ctx in firsts], dtype=np.int64)
    divisors = lengths.astype(np.float64)
    item_starts = np.cumsum(lengths) - lengths

    # pass 2: the context block on those columns, row 0 the empty context,
    # in chunks of sequences: one bincount of the chunk's item entries into a
    # (sequences x d) block of at most _MEAN_CHUNK_FLOATS values, holding at
    # most that many entries unless one sequence alone holds more
    context_block = np.zeros((1 + len(firsts), len(context_columns)))
    for lo, hi in chunks(np.add.reduceat(counts, item_starts), _MEAN_CHUNK_FLOATS,
                         max(1, _MEAN_CHUNK_FLOATS // max(d, 1))):
        first, last = item_starts[lo], item_starts[hi - 1] + lengths[hi - 1]
        entries = counts[first:last]
        # the entries of the chunk's items one after another, in item order
        positions = ranges(starts[first:last], entries)
        cols = np.empty(positions.size, dtype=np.int64)
        values = np.empty(positions.size, dtype=np.float32)
        for flag, matrix in matrices:
            mine = np.repeat(in_sentences[first:last] == flag, entries)
            cols[mine] = matrix.indices[positions[mine]]
            values[mine] = matrix.values[positions[mine]]
        # each column's stored values summed in item order from +0.0, as the
        # dense rows' mean(axis=0) sums them: adding their +0.0 entries
        # changes no partial sum, which is never -0.0 (over no entry at all
        # bincount counts in integers)
        cols += np.repeat(np.repeat(np.arange(hi - lo) * d, lengths[lo:hi]), entries)
        means = np.bincount(cols, weights=values, minlength=(hi - lo) * d).astype(
            np.float64, copy=False).reshape(hi - lo, d)
        means /= divisors[lo:hi, None]
        # a stack of 1×d · d×1 products: numpy hands each to the BLAS dot
        # that np.linalg.norm's x.dot(x) reaches, so each norm keeps its order
        norms = np.sqrt(np.matmul(means[:, None, :], means[:, :, None])[:, 0, 0])
        rescale = np.logical_and.reduceat(unit_norm[first:last], item_starts[lo:hi] - first)
        rescale &= norms > 0.0
        means[rescale] /= norms[rescale, None]
        np.take(means, context_columns, axis=1, out=context_block[1 + lo:1 + hi])
    return Features(post_block, context_block,
                    np.array(index, dtype=np.int64).reshape(len(contexts), 2),
                    post_columns, context_columns, d)


# each row's one-hot class mask is its label against these class indices
_CLASSES = np.arange(len(LABELS))
# below every non-zero 1 - p_t (at least 2^-53), and finite raised to any
# power in (-1, 0)
_TINY = np.finfo(np.float64).tiny


def focal_loss_batch(z: np.ndarray, y: np.ndarray, alpha_t: np.ndarray,
                     gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row focal losses and their exact gradients with respect to the logits.

    z: (n, 2) logits, y: (n,) true class indices or their (n, 2) one-hot
    class mask `y[:, None] == [0, 1]` (train builds the mask once per
    epoch), alpha_t: (n,) weight of each row's true class. FL = -alpha_t
    (1 - p_t)^gamma log p_t with p = softmax(z); gamma=0 reduces to
    alpha-weighted cross-entropy. The gradient handles p_t -> 1 (its limit
    is 0) without blowing up or warning. Each row's true class is selected
    with `np.where` from its two classes, so the kernel indexes nothing by
    position or mask.
    """
    onehot = y if y.ndim == 2 else y[:, None] == _CLASSES
    yta = onehot[:, 1]
    zmax = np.maximum(z[:, 0], z[:, 1])[:, None]
    e = np.exp(z - zmax)
    logp = z - (zmax + np.log(e[:, 0] + e[:, 1])[:, None])
    p = np.exp(logp)
    pt = np.where(yta, p[:, 1], p[:, 0])
    log_pt = np.where(yta, logp[:, 1], logp[:, 0])
    one_minus = 1.0 - pt
    focal = one_minus ** gamma
    if gamma == 0.0:
        weight = alpha_t
    else:
        # limit of (1-p)^g - g p (1-p)^{g-1} log p as p -> 1 is 0. Below
        # g = 1, 0^(g-1) would divide by zero, so the base of a row at p = 1
        # is raised from 0 to _TINY; that row's coefficient is dropped
        # below, and every other row keeps its base
        base = one_minus if gamma >= 1.0 else np.maximum(one_minus, _TINY)
        coeff = focal - gamma * pt * base ** (gamma - 1.0) * log_pt
        weight = alpha_t * np.where(one_minus > 0.0, coeff, 0.0)
    losses = -alpha_t * focal * log_pt
    # (alpha_t coeff) (p - onehot(y))
    p -= onehot
    p *= weight[:, None]
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
        for name, low in (("epochs", 0), ("batch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}")
            # a numpy integer would reach the model file's JSON header
            object.__setattr__(self, name, int(value))
        for name in ("learning_rate", "focal_gamma"):
            value = getattr(self, name)
            if not (_is_real(value) and math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
            object.__setattr__(self, name, float(value))
        alpha = self.focal_alpha
        if alpha is not None:
            if not (isinstance(alpha, (tuple, list)) and len(alpha) == 2 and all(
                    _is_real(a) and math.isfinite(a) and a > 0 for a in alpha)):
                raise ValueError(f"focal_alpha must be two finite positive weights, got {alpha!r}")
            object.__setattr__(self, "focal_alpha", tuple(float(a) for a in alpha))


def _is_real(value) -> bool:
    """True for an int or float, numpy's included, and False for a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))


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
    # the embedder whose rows the features were built from
    embedder: EmbedderConfig | None = None


def _inverse_frequency_alpha(y: np.ndarray) -> tuple[float, float]:
    counts = np.bincount(y, minlength=2)
    if (counts == 0).any():
        raise ValueError(
            "training set lacks a class; pass focal_alpha explicitly")
    n = float(len(y))
    return (n / (2.0 * counts[0]), n / (2.0 * counts[1]))


def _check_labels(features: Features | np.ndarray, y) -> np.ndarray:
    """y as int64 class indices, one per feature row; an array of anything
    but integers 0 and 1 (floats and bools included) is a ValueError."""
    y = np.asarray(y)
    if y.shape != (len(features),):
        raise ValueError(f"need y of shape ({len(features)},), got {y.shape}")
    if y.size and (y.dtype.kind not in "iu" or not ((y == 0) | (y == 1)).all()):
        raise ValueError("labels must be class indices 0 (NTA) or 1 (YTA)")
    return y.astype(np.int64)


@dataclass(frozen=True)
class Fits:
    """The fits of one `train` call, fit r seeded cfg.seed + r.

    `epochs` is the number of lockstep epochs the call ran, cfg.epochs.
    perfbench's tracer adds it up over `train` results to report the time
    per epoch; it can go once perfbench reads the run's trace.json
    (ROADMAP item 3).
    """
    params: tuple[ModelParams, ...]
    epochs: int


def train(features: Features, y, cfg: TrainConfig, runs: int = 1) -> Fits:
    """`runs` fits of mini-batch Adam on focal loss from zero-initialized
    parameters, fit r seeded cfg.seed + r.

    features: n rows (build_features), y: (n,) class indices
    (encode_labels). The fits step in lockstep: each epoch draws one
    permutation from each fit's own generator, and each step gathers the
    fits' batches into two reused buffers, runs x min(batch, n) x kp of the
    post block and runs x min(batch, n) x kc of the context block. The
    epoch's row indices, class masks and class weights are gathered once per
    epoch, and each batch's views of them and of the buffers are made once
    per call, so a step makes only its arithmetic calls. A step takes the
    logits as the post half's product plus the context half's product plus
    the bias, in that order, then the focal loss, one gradient product per
    half and the Adam update, in one call each over every fit.
    Each of those calls works on each fit's slice alone (one BLAS product
    per slice, lane-wise ufuncs, a sum along that fit's rows), so fit r is
    bit for bit the single fit seeded cfg.seed + r. A half's weights off its
    own stored columns have a gradient of exactly zero at every step, so
    they are never touched: each fit's weights hold the fitted post weights
    at `features.post_columns` of the post half, the fitted context weights
    at `features.context_columns` of the context half, and +0.0 elsewhere.
    Each fit owns its weights and bias. learning_rate 0 leaves the zero
    parameters untouched by construction.
    """
    if isinstance(runs, bool) or not isinstance(runs, (int, np.integer)) or runs < 1:
        raise ValueError(f"runs must be an integer >= 1, got {runs!r}")
    y = _check_labels(features, y)
    if not len(y):
        raise ValueError("empty training set")
    posts, contexts, index = features.posts, features.contexts, features.index
    n, kp, kc = len(y), posts.shape[1], contexts.shape[1]
    k = kp + kc
    alpha = cfg.focal_alpha or _inverse_frequency_alpha(y)
    alpha_arr = np.asarray(alpha, dtype=np.float64)
    gamma = float(cfg.focal_gamma)

    # each fit's post weights, context weights and bias are views of one
    # parameter row per class, as are their gradients, so one Adam update
    # covers them all; Wp_T and Wc_T hold each fit's half weights
    # transposed, b each fit's bias as a (1, 2) row
    params = np.zeros((runs, 2, k + 1))
    Wp_T, Wc_T = params[:, :, :kp].transpose(0, 2, 1), params[:, :, kp:k].transpose(0, 2, 1)
    b = params[:, None, :, k]
    grad = np.empty_like(params)
    gWp, gWc, gb = grad[:, :, :kp], grad[:, :, kp:k], grad[:, :, k]
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    # the update's two scratch arrays
    update, scale = np.empty_like(params), np.empty_like(params)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    # the epoch's (runs, n) orders laid out batch-major: each batch's
    # (runs, rows) block one after another, so a batch is one contiguous
    # slice. Each epoch gathers its rows' post and context indices, class
    # masks and class weights into these arrays, once.
    batches = range(0, n, cfg.batch_size)
    layout = np.concatenate([(np.arange(runs)[:, None] * n
                              + np.arange(start, min(start + cfg.batch_size, n))).ravel()
                             for start in batches])
    post_index, context_index = index[:, 0], index[:, 1]
    order_posts = np.empty(runs * n, dtype=post_index.dtype)
    order_contexts = np.empty(runs * n, dtype=context_index.dtype)
    order_onehot = np.empty((runs * n, 2), dtype=bool)
    order_alpha = np.empty(runs * n)
    alpha_t = alpha_arr[y]

    # each batch's views of those arrays, and of the two gather buffers and
    # the two logit buffers, made once: every full batch shares one set of
    # buffer views, and a shorter last batch has its own
    size = runs * min(cfg.batch_size, n)
    post_buf, context_buf = np.empty(size * kp), np.empty(size * kc)
    z_buf, context_z_buf = np.empty(size * 2), np.empty(size * 2)
    buffers = {}
    steps = []
    for start in batches:
        rows = min(start + cfg.batch_size, n) - start
        size = runs * rows
        if rows not in buffers:
            z = z_buf[:size * 2].reshape(runs, rows, 2)
            buffers[rows] = (post_buf[:size * kp].reshape(runs, rows, kp),
                             context_buf[:size * kc].reshape(runs, rows, kc),
                             z, z.reshape(size, 2),
                             context_z_buf[:size * 2].reshape(runs, rows, 2))
        batch = slice(runs * start, runs * start + size)
        steps.append((rows, order_posts[batch].reshape(runs, rows),
                      order_contexts[batch].reshape(runs, rows), order_onehot[batch],
                      order_alpha[batch], *buffers[rows]))

    add = np.add.reduce
    rngs = [np.random.default_rng(cfg.seed + r) for r in range(runs)]
    history = np.empty((runs, cfg.epochs))
    for epoch in range(cfg.epochs):
        order = np.stack([rng.permutation(n) for rng in rngs]).ravel()[layout]
        post_index.take(order, out=order_posts)
        context_index.take(order, out=order_contexts)
        np.equal(y.take(order)[:, None], _CLASSES, out=order_onehot)
        alpha_t.take(order, out=order_alpha)
        epoch_loss = np.zeros(runs)
        for rows, batch_posts, batch_contexts, onehot, batch_alpha, Xp, Xc, z, z2, cz in steps:
            # mode "raise" would buffer out; Features has checked the index
            posts.take(batch_posts, axis=0, out=Xp, mode="clip")
            contexts.take(batch_contexts, axis=0, out=Xc, mode="clip")
            np.matmul(Xp, Wp_T, out=z)
            z += np.matmul(Xc, Wc_T, out=cz)
            z += b
            losses, gz = focal_loss_batch(z2, onehot, batch_alpha, gamma)
            epoch_loss += add(losses.reshape(runs, rows), axis=1)
            gz /= rows
            gz = gz.reshape(runs, rows, 2)
            gz_T = gz.transpose(0, 2, 1)
            np.matmul(gz_T, Xp, out=gWp)
            np.matmul(gz_T, Xc, out=gWc)
            add(gz, axis=1, out=gb)

            # Adam: m and v in place, then params -= lr mhat / (sqrt(vhat) + eps)
            step += 1
            m *= beta1; m += np.multiply(grad, 1 - beta1, out=update)
            v *= beta2; v += np.multiply(np.square(grad, out=update), 1 - beta2, out=update)
            np.divide(m, 1 - beta1 ** step, out=update)
            np.divide(v, 1 - beta2 ** step, out=scale)
            np.sqrt(scale, out=scale)
            scale += eps
            update *= cfg.learning_rate
            update /= scale
            params -= update
        history[:, epoch] = epoch_loss / n
        logger.debug("epoch %d: mean losses %s", epoch + 1, history[:, epoch])

    fits = []
    for r in range(runs):
        weights = np.zeros((2, 2, features.width))
        weights[:, 0, features.post_columns] = params[r, :, :kp]
        weights[:, 1, features.context_columns] = params[r, :, kp:k]
        fits.append(ModelParams(
            weights=weights.reshape(2, features.dim), bias=params[r, :, k].copy(),
            gamma=gamma, alpha=(float(alpha[0]), float(alpha[1])), seed=cfg.seed + r,
            epochs=cfg.epochs, learning_rate=cfg.learning_rate,
            loss_history=history[r].tolist(),
        ))
    return Fits(tuple(fits), cfg.epochs)


def predict(params: ModelParams, features: Features | np.ndarray) -> np.ndarray:
    """Class indices of the feature rows from the logits X @ W.T + b over
    their dense matrix X, one full-width product; exact ties go to NTA.
    `features` is a Features, whose `rows()` X is, or X itself, which a
    caller scoring several fits on the same rows builds once. Train sums its
    logits half by half over each half's stored columns, so its logits and
    these can differ in the last bits."""
    X = features.rows() if isinstance(features, Features) else features
    z = X @ params.weights.T + params.bias
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
    return _report(encode_labels(y_true), encode_labels(y_pred))


def _report(yt: np.ndarray, yp: np.ndarray) -> EvalReport:
    """compute_report over int64 class-index arrays."""
    import warnings as _warnings

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


def evaluate(params: ModelParams, features: Features | np.ndarray, y) -> EvalReport:
    """Score the model on the feature rows with class indices y; the rows
    are a Features or its dense matrix, as `predict` takes them."""
    return _report(_check_labels(features, y), predict(params, features))


def significance_test(correct_a, correct_b) -> tuple[float, float]:
    """Welch's two-sample t-test over per-example correctness indicators.

    Returns (t, two-sided p) with Welch-Satterthwaite degrees of freedom.
    Conventions: two zero-variance samples give (0, 1) when the means are
    equal and (±inf, 0) otherwise. Needs at least two finite examples per
    side; a variance that is not finite, or overflows when squared, is a
    ValueError.

    The two-sided tail is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df/(df+t²), summed as a continued fraction (`_student_t_two_sided`).
    Against `2 * stdtr(df, -|t|)`, the Student-t CDF that tests/test_model.py
    takes as its oracle, over 300,000 random draws with df in [1, 1e5] and
    |t| in [1e-6, 60], the largest relative gap was 7.4e-12, and p printed
    with `.6g` agreed except where the oracle's tail was subnormal. Tails
    below the smallest normal float read 0.0. Above df = 1e5 the gap grows
    about as df × 1e-16.
    """
    a = np.asarray(correct_a, dtype=np.float64)
    b = np.asarray(correct_b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size < 2 or b.size < 2:
        raise ValueError("need at least two observations per sample")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("observations must be finite")
    na, nb = a.size, b.size
    with np.errstate(over="ignore", invalid="ignore"):
        ma, mb = float(a.mean()), float(b.mean())
        va, vb = float(a.var(ddof=1)), float(b.var(ddof=1))
    # the degrees of freedom square the variances
    if not math.isfinite((va + vb) * (va + vb)):
        raise ValueError("a sample variance is not finite, or overflows when squared")
    if va == 0.0 and vb == 0.0:
        if ma == mb:
            return 0.0, 1.0
        return math.copysign(math.inf, ma - mb), 0.0
    se2 = va / na + vb / nb
    t = (ma - mb) / math.sqrt(se2)
    df = se2 ** 2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    p = _student_t_two_sided(t, df)
    return t, min(1.0, max(0.0, p))


_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_FRACTION_TINY = 1e-300
_FRACTION_EPS = 3e-16
_FRACTION_MAX_TERMS = 10_000


def _student_t_two_sided(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with df > 0 degrees of freedom.

    That is I_x(a, 1/2) with a = df/2 and x = df/(df+t²). x and 1-x are
    both formed from r = t²/df, never 1-x by subtraction, so a tail near
    x = 1 keeps its digits. Following Numerical Recipes' betai, the fraction
    is summed for I_x(a, 1/2) below x = (a+1)/(a+5/2) and for
    I_{1-x}(1/2, a) above it, where I_x(a, 1/2) = 1 - I_{1-x}(1/2, a).
    """
    r = t * t / df
    if r == 0.0:
        return 1.0
    a = 0.5 * df
    log1p_r = math.log1p(r)
    x, y = 1.0 / (1.0 + r), r / (1.0 + r)
    # log of x^a (1-x)^(1/2) / B(a, 1/2)
    log_front = -a * log1p_r + 0.5 * (math.log(r) - log1p_r) - _log_beta_half(a)
    if x < (a + 1.0) / (a + 2.5):
        p = math.exp(log_front) * _beta_fraction(a, 0.5, x) / a
    else:
        p = 1.0 - 2.0 * math.exp(log_front) * _beta_fraction(0.5, a, y)
    # a subnormal tail has lost digits; the reference stdtr mostly reads it as 0
    return p if p >= sys.float_info.min else 0.0


def _log_beta_half(a: float) -> float:
    """log B(a, 1/2). Above a = 50, lgamma(a) - lgamma(a+1/2) cancels to
    about 1e-10 relative, so log Γ(a+1/2) - log Γ(a) comes from its
    asymptotic series instead: 1/2 log a - 1/(8a) + 1/(192a³) - 1/(640a⁵)
    + 17/(14336a⁷), whose first dropped term is below 1e-18 at a = 50."""
    if a < 50.0:
        return math.lgamma(a) + _LOG_SQRT_PI - math.lgamma(a + 0.5)
    z = 1.0 / (a * a)
    series = (1.0 / 8.0 - z * (1.0 / 192.0 - z * (1.0 / 640.0 - z * (17.0 / 14336.0)))) / a
    return _LOG_SQRT_PI - 0.5 * math.log(a) + series


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), summed by the modified Lentz
    method (Numerical Recipes' betacf); converges for x < (a+1)/(a+b+2)."""
    def guard(v: float) -> float:
        return v if abs(v) > _FRACTION_TINY else _FRACTION_TINY

    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / guard(1.0 - qab * x / qap)
    h = d
    for m in range(1, _FRACTION_MAX_TERMS):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / guard(1.0 + aa * d)
        c = guard(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / guard(1.0 + aa * d)
        c = guard(1.0 + aa / c)
        step = d * c
        h *= step
        if abs(step - 1.0) < _FRACTION_EPS:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")


# ---------------------------------------------------------------------------
# serialization

# each header key of a model file but feature_dim and embedder, with the
# converter load_model reads it with
_MODEL_HEADER = {"gamma": json_number, "alpha": lambda raw: json_numbers(raw, 2),
                 "seed": json_int, "epochs": json_int, "learning_rate": json_number,
                 "loss_history": lambda raw: list(json_numbers(raw, finite=False))}


def save_model(params: ModelParams, path) -> None:
    """Text container: JSON header, base64 little-endian float64 weights and
    bias, trailing checksum line. The header holds the embedder config
    (dim, ngram_range, seed), so params without one are a ValueError."""
    if params.embedder is None:
        raise ValueError("model params carry no embedder config")
    header = {key: getattr(params, key) for key in _MODEL_HEADER}
    header["feature_dim"] = int(params.weights.shape[1])
    header["embedder"] = asdict(params.embedder)
    write_checksummed_container(path, header, [np.asarray(params.weights, dtype="<f8"),
                                               np.asarray(params.bias, dtype="<f8")])


def load_model(path) -> ModelParams:
    """The params save_model wrote; a malformed file, or a feature_dim not
    twice the embedder's dim, is a ModelFileError naming the file."""
    header, (weights, bias) = read_checksummed_container(
        path, ModelFileError,
        {"feature_dim": json_int, "embedder": _embedder_config, **_MODEL_HEADER},
        lambda h: [("<f8", (2, h["feature_dim"])), ("<f8", (2,))])
    if header["feature_dim"] != 2 * header["embedder"].dim:
        raise ModelFileError(f"{path}: model has feature_dim {header['feature_dim']}, "
                             f"not twice its embedder dim {header['embedder'].dim}")
    return ModelParams(weights=weights.copy(), bias=bias.copy(), embedder=header["embedder"],
                       **{key: header[key] for key in _MODEL_HEADER})


def _embedder_config(raw: dict) -> EmbedderConfig:
    """The EmbedderConfig of a model header's "embedder" entry."""
    lo, hi = raw["ngram_range"]
    return EmbedderConfig(dim=json_int(raw["dim"]), ngram_range=(json_int(lo), json_int(hi)),
                          seed=json_int(raw["seed"]))
