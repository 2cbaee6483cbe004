"""The batch sampler and feature builder against their per-pair originals.

`sample_context` samples a whole partition in one call and memoises each
pair's cosine scores across conditions; `build_features` builds a
partition's feature matrix in one call. The per-pair code they replaced is
kept below as the oracle, and the batch results must equal it exactly:
the same context ids in the same order with the same similarity floats, and
a feature matrix equal element for element.
"""
import random

import numpy as np
import pytest

from dlab.disclosure import HighLevelCategory, attach_clusters, build_profiles
from dlab.embed import EmbedderConfig, EmbeddingMatrix, rank_by_cosine
from dlab.model import build_features
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
            ranked = rank_by_cosine(embeddings.row(post_id), matrix.data[rows], matrix.norms[rows],
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

@pytest.mark.parametrize("scales", [(1.0,), (1.0, 2.5, 0.0, 0.3), (1.0005, 0.9995, 1.01)],
                         ids=["unit", "non-unit", "near-unit"])
def test_feature_matrix_matches_per_pair_oracle(world, scales):
    corpus, embeddings, sentences, profiles, pairs = world
    if scales != (1.0,):
        embeddings, sentences = rescaled(embeddings, scales), rescaled(sentences, scales)
    memo = {}
    partitions = [
        [ContextSet(a, p, []) for a, p in pairs],
        [full_pool_context(a, p, corpus) for a, p in pairs],
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
    for contexts in partitions:
        X = build_features(contexts, embeddings, sentences)
        assert X.dtype == np.float64 and X.flags.c_contiguous
        assert np.array_equal(X, oracle_features(contexts, embeddings, sentences))
