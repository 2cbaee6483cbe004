"""The batch sampler, feature builder, trainer and scorer against the code
they replaced.

`sample_context` samples a whole partition in one call and memoises each
pair's cosine scores across conditions; `build_features` stores a
partition's features once per distinct post and item sequence; `train`
gathers each batch from that block; `predict` scores a partition's feature
rows in one product. The per-pair code, the dense feature matrix and the
dense trainer they replaced are kept below as oracles, and the results must
equal them exactly: the same context ids in the same order with the same
similarity floats, feature rows equal element for element, the same
weights, bias and losses bit for bit, and the same class for every row.
"""
import math
import random

import numpy as np
import pytest

from dlab.disclosure import HighLevelCategory, attach_clusters, build_profiles
from dlab.embed import EmbedderConfig, EmbeddingMatrix, cosine_scores, rank_scores
from dlab.model import ModelParams, TrainConfig, build_features, encode_labels, predict, train
from dlab.pipeline import cluster_comments, embed_corpus, embed_sentences
from dlab.sampler import (
    SENTENCE_STRATEGIES,
    STRATEGIES,
    CategoryFilter,
    ContextItem,
    ContextSet,
    SamplerConfig,
    full_pool_context,
    sample_context,
)
from dlab.seeds import derive_seed
from dlab.synthgen import PopulationSpec, generate_population

ECFG = EmbedderConfig(dim=64, ngram_range=(1, 2), seed=0)


# ---------------------------------------------------------------------------
# oracles: the per-pair code

def oracle_sample_context(annotator_id, post_id, corpus, embeddings, profiles, cfg,
                          sentences=None):
    """One pair's context: the pool filtered first, then ranked or drawn."""
    if annotator_id not in corpus.annotator_index:
        raise ValueError(f"unknown annotator {annotator_id!r}")
    if post_id not in corpus.posts:
        raise ValueError(f"unknown post {post_id!r}")
    candidates = list(corpus.annotator_index[annotator_id])
    if cfg.category_filter is not None:
        candidates = [cid for cid in candidates if cfg.category_filter.admits(profiles[cid])]
    unit = "sentence" if cfg.strategy in SENTENCE_STRATEGIES else "comment"
    if unit == "sentence":
        units = [
            (cid, idx, corpus.comments[cid].text[a:b])
            for cid in candidates
            for idx, (a, b) in enumerate(corpus.comments[cid].sentence_spans())
        ]
    else:
        units = [(cid, None, corpus.comments[cid].text) for cid in candidates]

    if cfg.strategy.startswith("random_"):
        rng = random.Random(derive_seed(cfg.seed, annotator_id, post_id))
        chosen = [(u, None) for u in rng.sample(units, min(cfg.max_samples, len(units)))]
    else:
        chosen = []
        if units:
            matrix, row_ids = ((sentences, [text for _, _, text in units]) if unit == "sentence"
                               else (embeddings, candidates))
            rows = [matrix.row_index(rid) for rid in row_ids]
            ranked = rank_scores(
                cosine_scores(embeddings.row(post_id), matrix.data[rows], matrix.norms[rows]),
                [(cid, text) for cid, _, text in units])
            chosen = [(units[i], score) for i, score in ranked[:cfg.max_samples]]
    items = [ContextItem(cid, text, score, unit, sentence_index=idx)
             for (cid, idx, text), score in chosen]
    return ContextSet(annotator_id=annotator_id, post_id=post_id, items=items)


def oracle_fused(post_emb, context, embeddings, sentences):
    """One pair's [post ‖ mean context] vector, built vector by vector."""
    post_emb = np.asarray(post_emb, dtype=np.float64)
    if not context.items:
        return np.concatenate([post_emb, np.zeros_like(post_emb)])
    vectors = []
    for item in context.items:
        matrix, key = ((embeddings, item.source_comment_id) if item.unit == "comment"
                       else (sentences, item.text))
        vectors.append(np.asarray(matrix.row(key), dtype=np.float64))
    stacked = np.vstack(vectors)
    mean = stacked.mean(axis=0)
    norms = np.linalg.norm(stacked, axis=1)
    all_unit = bool((norms > 0.0).all() and np.abs(norms - 1.0).max() <= 1e-3)
    mean_norm = float(np.linalg.norm(mean))
    if all_unit and mean_norm > 0.0:
        mean = mean / mean_norm
    return np.concatenate([post_emb, mean])


def oracle_features(contexts, embeddings, sentences):
    """The training matrix: one fused vector per pair, stacked."""
    return np.vstack([oracle_fused(embeddings.row(c.post_id), c, embeddings, sentences)
                      for c in contexts])


def oracle_dense_features(contexts, embeddings, sentences=None):
    """The dense (n, 2d) float64 matrix, one row per context, as
    build_features returned it before it stored each distinct half once."""
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
            row = matrix.row_index(key)
            stacked[j] = matrix.data[row]
            all_unit = all_unit and abs(matrix.norms[row] - 1.0) <= 1e-3
        mean = stacked.mean(axis=0)
        mean_norm = float(np.linalg.norm(mean))
        if all_unit and mean_norm > 0.0:
            mean = mean / mean_norm
        X[i, d:] = mean
    return X


def oracle_focal_loss_batch(z, y, alpha_t, gamma):
    """Focal losses and logit gradients with a separate one-hot matrix."""
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
        coeff = np.zeros_like(pt)
        live = one_minus > 0.0
        coeff[live] = (
            one_minus[live] ** gamma
            - gamma * pt[live] * one_minus[live] ** (gamma - 1.0) * log_pt[live]
        )
    losses = -alpha_t * one_minus ** gamma * log_pt
    onehot = np.zeros_like(p)
    onehot[rows, y] = 1.0
    return losses, (alpha_t * coeff)[:, None] * (p - onehot)


def oracle_dense_train(X, y, cfg):
    """(weights, bias, loss history): mini-batch Adam over rows copied out of
    a dense X, with separate W and b updates."""
    n, dim = X.shape
    # inverse class frequency unless the config sets the weights
    alpha = cfg.focal_alpha or len(y) / (2.0 * np.bincount(y, minlength=2))
    alpha_t = np.asarray(alpha, dtype=np.float64)[y]
    W, b = np.zeros((2, dim)), np.zeros(2)
    mW, vW, mb, vb = np.zeros_like(W), np.zeros_like(W), np.zeros_like(b), np.zeros_like(b)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    rng = np.random.default_rng(cfg.seed)
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            Xb, yb = X[idx], y[idx]
            losses, gz = oracle_focal_loss_batch(Xb @ W.T + b, yb, alpha_t[idx],
                                                 float(cfg.focal_gamma))
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
    return W, b, history


def oracle_predict(params, x):
    """One row's class: W @ x + b, softmax, then the first maximum, so an
    exact tie goes to NTA (class 0)."""
    z = params.weights @ np.asarray(x, dtype=np.float64) + params.bias
    p = np.exp(z - z.max())
    p /= p.sum()
    return int(np.argmax(p))


# ---------------------------------------------------------------------------
# fixtures

@pytest.fixture(scope="module")
def world():
    corpus, _ = generate_population(PopulationSpec(
        n_annotators=8, n_posts=16, comments_per_annotator=(4, 9),
        verdicts_per_annotator=(5, 8), seed=3))
    corpus.annotator_index["silent"] = []  # an empty pool
    embeddings = embed_corpus(corpus, ECFG)
    sentences = embed_sentences(corpus, ECFG)
    profiles = build_profiles(corpus)
    model, _ = cluster_comments(embeddings, profiles, 3, 4, svd_seed=1, kmeans_seed=1)
    profiles = attach_clusters(profiles, model.assignment)
    pairs = [(v.annotator_id, v.post_id) for v in corpus.verdicts]
    pairs.append(("silent", min(corpus.posts)))
    return corpus, embeddings, sentences, profiles, pairs


def rescaled(matrix, scales):
    """The matrix with row i scaled by scales[i % len(scales)]: non-unit and
    all-zero rows."""
    factors = np.array([scales[i % len(scales)] for i in range(len(matrix))], dtype=np.float32)
    return EmbeddingMatrix(ids=list(matrix.ids), data=matrix.data * factors[:, None])


def randomized(matrix, seed):
    """The matrix with dense random rows whose entries span 2^-40 to 2^40:
    float32 rows of like magnitude sum exactly in float64, in any order, but
    these do not, so a mean taken in another item order shows in its bits."""
    rng = np.random.default_rng(seed)
    shape = matrix.data.shape
    data = rng.normal(size=shape) * np.exp2(rng.integers(-40, 41, size=shape))
    return EmbeddingMatrix(ids=list(matrix.ids), data=data)


FILTERS = [None] + [CategoryFilter(theory=c) for c in HighLevelCategory] + \
    [CategoryFilter(cluster=i) for i in range(3)]


def configs():
    """Every strategy unfiltered, and similar_comments, the one strategy
    category filters pair with, under every filter; its filters come first,
    so the score memo is filled by filtered conditions and then read by the
    unfiltered one."""
    return [SamplerConfig(strategy=strategy, max_samples=3, seed=5, category_filter=filt)
            for strategy in STRATEGIES
            for filt in (FILTERS[1:] if strategy == "similar_comments" else []) + FILTERS[:1]]


# ---------------------------------------------------------------------------
# the sampler

@pytest.mark.parametrize("scales", [(1.0,), (1.0, 2.5, 0.0, 0.3)], ids=["unit", "non-unit"])
def test_batch_sampler_matches_per_pair_oracle(world, scales):
    corpus, embeddings, sentences, profiles, pairs = world
    if scales != (1.0,):
        embeddings, sentences = rescaled(embeddings, scales), rescaled(sentences, scales)
    memo = {}
    empty = filled = 0
    for cfg in configs():
        want = [oracle_sample_context(a, p, corpus, embeddings, profiles, cfg, sentences)
                for a, p in pairs]
        got = sample_context(pairs, corpus, embeddings, profiles, cfg=cfg,
                             sentences=sentences, scores=memo)
        assert got == want, (cfg.strategy, cfg.category_filter)
        # without a memo too
        assert sample_context(pairs, corpus, embeddings, profiles, cfg=cfg,
                              sentences=sentences) == want
        empty += sum(len(c) == 0 for c in got)
        filled += sum(len(c) > 0 for c in got)
    assert empty > 0 and filled > 0
    # one score vector per unit and pair with a non-empty pool, however many
    # conditions read it
    assert set(memo) == {(unit, a, p) for unit in ("comment", "sentence")
                         for a, p in pairs if corpus.annotator_index[a]}


# ---------------------------------------------------------------------------
# the feature matrix

@pytest.mark.parametrize("scales", [(1.0,), (1.0, 2.5, 0.0, 0.3), (1.0005, 0.9995, 1.01),
                                    "random"],
                         ids=["unit", "non-unit", "near-unit", "random"])
def test_feature_matrix_matches_per_pair_oracle(world, scales):
    corpus, embeddings, sentences, profiles, pairs = world
    if scales == "random":
        embeddings, sentences = randomized(embeddings, 1), randomized(sentences, 2)
    elif scales != (1.0,):
        embeddings, sentences = rescaled(embeddings, scales), rescaled(sentences, scales)
    memo = {}
    partitions = [
        [ContextSet(a, p, []) for a, p in pairs],
        full_pool_context(pairs, corpus),
    ]
    for cfg in configs():
        partitions.append(sample_context(pairs, corpus, embeddings, profiles, cfg=cfg,
                                         sentences=sentences, scores=memo))
    # a context mixing comment items (the full pool) and sentence items
    # (similar_sentences, the last config)
    sentence_ctx = partitions[-1][0]
    mixed = ContextSet(sentence_ctx.annotator_id, sentence_ctx.post_id,
                       partitions[1][0].items[:2] + sentence_ctx.items[:2])
    assert {item.unit for item in mixed.items} == {"comment", "sentence"}
    partitions.append([mixed])
    # every pair of one partition twice (the full pool's contexts already
    # repeat per annotator), and each context beside its items reversed: the
    # same items in another order are another sequence
    partitions.append(partitions[-2] * 2)
    partitions.append(partitions[1] + [ContextSet(c.annotator_id, c.post_id, c.items[::-1])
                                       for c in partitions[1]])
    for contexts in partitions:
        features = build_features(contexts, embeddings, sentences)
        X = features.rows()
        assert X.dtype == np.float64 and X.flags.c_contiguous
        assert np.array_equal(X, oracle_features(contexts, embeddings, sentences))
        assert np.array_equal(X, oracle_dense_features(contexts, embeddings, sentences))
        sequences = {tuple((item.unit, item.text if item.unit == "sentence"
                            else item.source_comment_id) for item in ctx.items)
                     for ctx in contexts if ctx.items}
        assert len(features.block) <= 1 + len({c.post_id for c in contexts}) + len(sequences)
    # one half-row per distinct post and per annotator's pool, not two per pair
    assert len(build_features(partitions[1], embeddings).block) < len(pairs)


# ---------------------------------------------------------------------------
# training

TRAIN_CONFIGS = {
    # 32 does not divide n
    "gamma2": TrainConfig(epochs=3, focal_gamma=2.0, batch_size=32, seed=1),
    "gamma0": TrainConfig(epochs=3, learning_rate=0.01, focal_gamma=0.0, batch_size=7, seed=2),
    "gamma0.5-alpha": TrainConfig(epochs=3, learning_rate=0.01, focal_gamma=0.5,
                                  focal_alpha=(0.3, 1.7), batch_size=32, seed=3),
    "lr0": TrainConfig(epochs=2, learning_rate=0.0, batch_size=32, seed=4),
    # one batch larger than n
    "n-below-batch": TrainConfig(epochs=4, learning_rate=0.05, batch_size=1000, seed=5),
}


@pytest.mark.parametrize("cfg", TRAIN_CONFIGS.values(), ids=TRAIN_CONFIGS.keys())
def test_train_matches_dense_oracle(world, cfg):
    corpus, embeddings, sentences, profiles, pairs = world
    y = encode_labels([v.label for v in corpus.verdicts] + ["NTA"])
    assert len(y) == len(pairs) and len(pairs) % 32 and len(pairs) < 1000
    partitions = {
        # sentence items, and an empty context for the silent annotator
        "sentences": sample_context(pairs, corpus, embeddings, profiles, sentences=sentences,
                                    cfg=SamplerConfig(strategy="similar_sentences",
                                                      max_samples=3, seed=5)),
        # one repeated context per annotator
        "full-pool": full_pool_context(pairs, corpus),
        "empty": [ContextSet(a, p, []) for a, p in pairs],
    }
    for name, contexts in partitions.items():
        features = build_features(contexts, embeddings, sentences)
        W, b, history = oracle_dense_train(
            oracle_dense_features(contexts, embeddings, sentences), y, cfg)
        params = train(features, y, cfg)
        assert np.array_equal(params.weights, W), name
        assert np.array_equal(params.bias, b), name
        assert params.loss_history == history, name
        assert all(math.isfinite(loss) for loss in history)
        assert params.weights.any() == (cfg.learning_rate > 0)


# ---------------------------------------------------------------------------
# scoring

def test_batch_predict_matches_per_row_oracle(world):
    corpus, embeddings, sentences, profiles, pairs = world
    # a second, wider world: 1,024-dim embeddings, as the pipeline's default
    wide, _ = generate_population(PopulationSpec(
        n_annotators=40, n_posts=40, comments_per_annotator=(4, 8),
        verdicts_per_annotator=(6, 10), seed=8))
    wide_embeddings = embed_corpus(wide, EmbedderConfig(dim=1024, seed=2))
    datasets = []
    for corp, matrix, sents, profs, cfg in (
            (corpus, embeddings, sentences, profiles,
             SamplerConfig(strategy="similar_sentences", max_samples=3, seed=5)),
            (wide, wide_embeddings, None, None,
             SamplerConfig(strategy="similar_comments", max_samples=5, seed=5))):
        verdicts = corp.verdicts
        contexts = sample_context([(v.annotator_id, v.post_id) for v in verdicts], corp,
                                  matrix, profs, cfg=cfg, sentences=sents)
        datasets.append((build_features(contexts, matrix, sents),
                         encode_labels(v.label for v in verdicts)))
    for features, y in datasets:
        X = features.rows()
        dim = X.shape[1]
        models = [train(features, y, TrainConfig(epochs=epochs, seed=3)) for epochs in (1, 10)]
        # zero parameters, and equal non-zero rows: every logit pair ties exactly
        ties = [ModelParams(weights=w, bias=np.full(2, b), gamma=2.0, alpha=(0.5, 0.5),
                            seed=0, epochs=0, learning_rate=0.0)
                for w, b in ((np.zeros((2, dim)), 0.0), (np.tile(X[0], (2, 1)), 0.25))]
        for params in models + ties:
            got = predict(params, features)
            assert got.dtype == np.int64
            assert got.tolist() == [oracle_predict(params, x) for x in X]
        for params in ties:
            assert not predict(params, features).any()
        assert all(0 < predict(params, features).sum() < len(y) for params in models[1:])
