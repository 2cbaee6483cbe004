"""The sentence splitter, the memoised extractor and embedder, the batch
cosine kernel, sampler, feature builder, trainer and scorer against the code
they replaced.

`segment_sentences` trims each span with `str.strip` on the slice instead of
one `isspace` test per character; `extract_corpus` matches the category
patterns once per distinct sentence text; `embed_texts` hashes each distinct
n-gram once per call and `embed_text` accumulates a row with one
`np.bincount`; `EmbeddingMatrix` stores rows as CSR and `take` gathers dense
ones; `cosine_scores` scores a block of queries against matrix rows over
their stored entries, in chunks, summing each row's products in a fixed
numpy order; `sample_context` samples a whole
partition in one call, scores each annotator's pool for all its posts at
once and memoises each pair's cosine scores across conditions;
`rank_scores` ranks a pool in key order with one stable argsort;
`dump_contexts` fills each context line into a template;
`build_features` stores a partition's features once per distinct post and
item sequence and sums the context means of a chunk of sequences with one
`np.bincount` of their items' stored entries;
`train` gathers each batch from the post and context blocks, each on the
columns some row of its half stores, fits only those, sums the logits
half by half, and steps every fit of a call in lockstep;
`predict` scores a partition's feature rows
in one product. The character-wise trim, the per-comment
extractor, the per-gram embedder, the dense row array, the scalar cosine,
the per-pair code, the `heapq.nsmallest` ranking, the `json.dumps` writer,
the per-sequence means, the dense feature matrix and the dense trainer they
replaced are kept below as oracles, and the results must equal them
exactly: the same spans, the same embedding bits, the same rows and norms
bit for bit, the same context ids in the same order with the same
similarity floats, the same context file bytes, features bit for bit, the
same weights, bias and losses bit for bit (the dense trainer's logits
summed half by half over the same stored columns; as one product over every
column, the two differ in the last bits only), and the same class for every
row. The cosine kernel sums in another order than the scalar cosine's BLAS
dot: its scores equal, bit for bit, a per-row sum in its own order
(`stored_order_cosine`) and lie within nnz * 2**-53 of an exactly summed
cosine; on synthgen rows they also equal the scalar cosine's bit for bit.
"""
import hashlib
import heapq
import json
import math
import random
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import dense

import dlab.embed
import dlab.model
import dlab.sampler
from dlab.corpus import _BOUNDARY_RE, Comment, Corpus, Post, Verdict, segment_sentences
from dlab.disclosure import (
    CategoryProfile,
    DisclosureSpan,
    HighLevelCategory,
    LowLevelCategory,
    PatternSet,
    attach_clusters,
    build_profiles,
    comment_profile,
    default_patterns,
    extract_corpus,
)
from dlab.embed import (
    TOKEN_RE,
    EmbedderConfig,
    EmbeddingMatrix,
    cosine_scores,
    embed_text,
    embed_texts,
)
from dlab.model import (Features, ModelParams, TrainConfig, build_features, encode_labels,
                        predict, train)
from dlab.pipeline import cluster_comments, embed_corpus, embed_sentences
from dlab.sampler import (
    SENTENCE_STRATEGIES,
    STRATEGIES,
    CategoryFilter,
    ContextItem,
    ContextSet,
    SamplerConfig,
    annotator_pool,
    dump_contexts,
    full_pool_context,
    load_contexts,
    sample_context,
)
from dlab.seeds import derive_seed
from dlab.synthgen import PopulationSpec, generate_population

ECFG = EmbedderConfig(dim=64, ngram_range=(1, 2), seed=0)


# ---------------------------------------------------------------------------
# oracles: the per-comment and per-pair code

def oracle_segment_sentences(text):
    """Sentence spans, each trimmed one `isspace` test per character."""
    spans = []

    def push(a, b):
        while a < b and text[a].isspace():
            a += 1
        while b > a and text[b - 1].isspace():
            b -= 1
        if a < b:
            spans.append((a, b))

    pos = 0
    for m in _BOUNDARY_RE.finditer(text):
        end = m.start() if text[m.start()] in "\r\n" else m.end()
        push(pos, end)
        pos = m.end()
    push(pos, len(text))
    return spans


def oracle_extract_disclosures(comment, pats):
    """One comment's spans: every category pattern run over every sentence,
    with no memo."""
    out = []
    text = comment.text
    for sent_idx, (a, b) in enumerate(comment.sentence_spans()):
        sentence = text[a:b]
        for cat in LowLevelCategory:
            for m in pats.compiled[cat].finditer(sentence):
                if m.start() == m.end():
                    continue
                out.append(DisclosureSpan(
                    comment_id=comment.id, sentence_index=sent_idx, category=cat,
                    start=a + m.start(), end=a + m.end(),
                    matched_text=sentence[m.start():m.end()]))
    order = {c: i for i, c in enumerate(LowLevelCategory)}
    out.sort(key=lambda s: (s.start, s.end, order[s.category]))
    return out


def oracle_extract_corpus(corpus, pats):
    """Every comment's spans, one fresh extraction per comment."""
    return {cid: oracle_extract_disclosures(corpus.comments[cid], pats)
            for cid in sorted(corpus.comments)}


def oracle_embed_text(text, cfg):
    """One text's vector, one blake2b hash and one indexed add per n-gram
    occurrence."""
    vec = np.zeros(cfg.dim, dtype=np.float64)
    tokens = TOKEN_RE.findall(text.lower())
    key = cfg.seed.to_bytes(8, "little", signed=False)
    lo, hi = cfg.ngram_range
    for n in range(lo, hi + 1):
        for i in range(len(tokens) - n + 1):
            gram = " ".join(tokens[i:i + n])
            digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8, key=key).digest()
            h = int.from_bytes(digest, "little")
            sign = 1.0 if (h >> 63) & 1 else -1.0
            vec[h % cfg.dim] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec.astype(np.float32)


def cosine_similarity(u, v):
    """The scalar cosine, in [-1, 1]; zero-norm inputs map to 0 by
    convention. Every score of `cosine_scores` must equal it bit for bit."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(min(1.0, max(-1.0, float(u @ v) / (nu * nv))))


def oracle_cosine_scores(query, rows, norms):
    """One query's cosines against a block of dense rows, one BLAS dot per
    row. On synthgen rows every score of `cosine_scores` equals it bit for
    bit; on arbitrary rows the two sum in another order."""
    query = np.asarray(query, dtype=np.float64)
    scores = np.zeros(len(norms), dtype=np.float64)
    qnorm = float(np.linalg.norm(query))
    if qnorm > 0.0:
        live = np.flatnonzero(norms > 0.0)
        dots = np.array([np.asarray(rows[i], dtype=np.float64) @ query for i in live])
        scores[live] = np.clip(dots / (norms[live] * qnorm), -1.0, 1.0)
    return scores


def stored_order_cosine(query, matrix, row):
    """One score as `cosine_scores` defines it, row by row: the query times
    the row's stored entries in column order, summed as the first product
    plus `np.add.reduce` of the others, then + 0.0, over the stored row norm
    times the query's norm, clipped to [-1, 1]; 0 for a zero-norm query or
    row."""
    query = np.asarray(query, dtype=np.float64)
    qnorm, norm = float(np.linalg.norm(query)), matrix.norms[row]
    if not (qnorm > 0.0 and norm > 0.0):
        return 0.0
    lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
    products = query[matrix.indices[lo:hi]] * matrix.values[lo:hi].astype(np.float64)
    dot = products[0] + np.add.reduce(products[1:]) + 0.0
    return float(min(1.0, max(-1.0, dot / (norm * qnorm))))


# the unit roundoff of float64
U = 2.0 ** -53


def assert_near_fsum_cosine(score, query, matrix, row):
    """`score` lies within nnz * u of the cosine whose dot is the exactly
    rounded sum (math.fsum) of the row's nnz stored products, plus the
    division's rounding: the dot-product bound (Higham, "Accuracy and
    Stability of Numerical Algorithms", 2002, section 3.1) on products
    whose sum of magnitudes is at most the norms' product."""
    query = np.asarray(query, dtype=np.float64)
    qnorm, norm = float(np.linalg.norm(query)), matrix.norms[row]
    if not (qnorm > 0.0 and norm > 0.0):
        assert score == 0.0
        return
    lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
    products = query[matrix.indices[lo:hi]] * matrix.values[lo:hi].astype(np.float64)
    exact = min(1.0, max(-1.0, math.fsum(products.tolist()) / (norm * qnorm)))
    assert abs(score - exact) <= (hi - lo) * U + 2 * U * abs(exact), (score, exact, hi - lo)


def oracle_full_sort(scores, keys, k):
    """The first k (position, score) pairs of the full sort by descending
    score, then ascending key."""
    values = scores.tolist()
    return [(i, values[i]) for i in sorted(range(len(keys)),
                                           key=lambda i: (-values[i], keys[i]))[:k]]


def oracle_rank_scores(scores, keys, k):
    """The same pairs from heapq.nsmallest over one (-score, key) tuple per
    candidate."""
    values = scores.tolist()
    order = heapq.nsmallest(k, range(len(keys)), key=lambda i: (-values[i], keys[i]))
    return [(i, values[i]) for i in order]


def oracle_dump_contexts(contexts, path):
    """JSONL, one json.dumps(record, ensure_ascii=False) per context."""
    with open(path, "w", encoding="utf-8") as fh:
        for ctx in contexts:
            fh.write(json.dumps({
                "annotator_id": ctx.annotator_id,
                "post_id": ctx.post_id,
                "items": [{"comment_id": item.source_comment_id,
                           "similarity": item.similarity,
                           "unit": item.unit, "sentence_index": item.sentence_index}
                          for item in ctx.items],
            }, ensure_ascii=False) + "\n")


def oracle_sample_context(annotator_id, post_id, corpus, embeddings, profiles, cfg,
                          sentences=None, rank=oracle_full_sort):
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
            scores = oracle_cosine_scores(embeddings.row(post_id), matrix.take(rows),
                                          matrix.norms[rows])
            keys = [(cid, text) for cid, _, text in units]
            chosen = [(units[i], score) for i, score in rank(scores, keys, cfg.max_samples)]
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
    X[:, :d] = embeddings.take([embeddings.row_index(ctx.post_id) for ctx in contexts])
    for i, ctx in enumerate(contexts):
        if not ctx.items:
            continue
        stacked = np.empty((len(ctx.items), d))
        all_unit = True
        for j, item in enumerate(ctx.items):
            matrix, key = ((embeddings, item.source_comment_id) if item.unit == "comment"
                           else (sentences, item.text))
            row = matrix.row_index(key)
            stacked[j] = matrix.take([row])[0]
            all_unit = all_unit and abs(matrix.norms[row] - 1.0) <= 1e-3
        mean = stacked.mean(axis=0)
        mean_norm = float(np.linalg.norm(mean))
        if all_unit and mean_norm > 0.0:
            mean = mean / mean_norm
        X[i, d:] = mean
    return X


def oracle_build_features(contexts, embeddings, sentences=None):
    """The factored features with one mean per distinct item sequence,
    summed by its own full-width bincount, divided, normed by
    np.linalg.norm and cut to the context columns, sequence by sequence."""
    d = embeddings.dim
    posts, sequences, firsts, index = {}, {}, [], []
    for ctx in contexts:
        posts.setdefault(ctx.post_id, len(posts))
    for ctx in contexts:
        half = 0
        if ctx.items:
            key = tuple((item.unit, item.source_comment_id if item.unit == "comment"
                         else item.text) for item in ctx.items)
            if key not in sequences:
                sequences[key] = 1 + len(firsts)
                firsts.append(ctx)
            half = sequences[key]
        index.append((posts[ctx.post_id], half))
    post_rows = embeddings.take([embeddings.row_index(pid) for pid in posts])
    post_columns = np.flatnonzero(post_rows.view(np.int32).any(axis=0))
    stored = np.zeros(d, dtype=bool)
    item_rows = []
    for ctx in firsts:
        rows = []
        for item in ctx.items:
            matrix, key = ((embeddings, item.source_comment_id) if item.unit == "comment"
                           else (sentences, item.text))
            row = matrix.row_index(key)
            rows.append((matrix, row))
            stored[matrix.indices[matrix.indptr[row]:matrix.indptr[row + 1]]] = True
        item_rows.append(rows)
    context_columns = np.flatnonzero(stored)
    context_block = np.zeros((1 + len(firsts), len(context_columns)))
    for half, rows in enumerate(item_rows, start=1):
        cols, values, all_unit = [], [], True
        for matrix, row in rows:
            lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
            cols.append(matrix.indices[lo:hi])
            values.append(matrix.values[lo:hi])
            all_unit = all_unit and abs(matrix.norms[row] - 1.0) <= 1e-3
        mean = np.bincount(np.concatenate(cols), weights=np.concatenate(values),
                           minlength=d) / len(rows)
        mean_norm = float(np.linalg.norm(mean))
        if all_unit and mean_norm > 0.0:
            mean = mean / mean_norm
        context_block[half] = mean[context_columns]
    return Features(np.take(post_rows, post_columns, axis=1).astype(np.float64), context_block,
                    np.array(index, dtype=np.int64).reshape(len(contexts), 2),
                    post_columns, context_columns, d)


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


def oracle_dense_train(X, y, cfg, columns=None):
    """(weights, bias, loss history): mini-batch Adam over rows copied out of
    a dense X, with separate W and b updates. Given `columns`, a pair of
    half-row column sets, the logits are the post half's product over the
    first set plus the context half's product over the second, then plus
    the bias, in train's order; by default they are one product over every
    column plus the bias. The gradient and the updates stay full-width."""
    n, dim = X.shape
    halves = [np.arange(dim)] if columns is None else [columns[0], dim // 2 + columns[1]]
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
            # C-ordered copies of the columns: a fancy index along axis 1
            # is Fortran-ordered, which BLAS sums in another order
            z = np.take(Xb, halves[0], axis=1) @ np.take(W, halves[0], axis=1).T
            for cols in halves[1:]:
                z += np.take(Xb, cols, axis=1) @ np.take(W, cols, axis=1).T
            z += b
            losses, gz = oracle_focal_loss_batch(z, yb, alpha_t[idx], float(cfg.focal_gamma))
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
    model, _ = cluster_comments(embeddings, profiles, 3, 4, 1)
    profiles = attach_clusters(profiles, model.assignment)
    pairs = [(v.annotator_id, v.post_id) for v in corpus.verdicts]
    pairs.append(("silent", min(corpus.posts)))
    return corpus, embeddings, sentences, profiles, pairs


def rescaled(matrix, scales):
    """The matrix with row i scaled by scales[i % len(scales)]: non-unit and
    all-zero rows."""
    factors = np.array([scales[i % len(scales)] for i in range(len(matrix))], dtype=np.float32)
    return EmbeddingMatrix.from_dense(list(matrix.ids), dense(matrix) * factors[:, None])


def randomized(matrix, seed):
    """The matrix with dense random rows whose entries span 2^-40 to 2^40:
    float32 rows of like magnitude sum exactly in float64, in any order, but
    these do not, so a mean taken in another item order shows in its bits."""
    rng = np.random.default_rng(seed)
    shape = (len(matrix), matrix.dim)
    data = rng.normal(size=shape) * np.exp2(rng.integers(-40, 41, size=shape))
    return EmbeddingMatrix.from_dense(list(matrix.ids), data)


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
# the extractor

# sentences that carry one category, several overlapping ones, or none, with
# and without their own end punctuation
EXTRACT_SENTENCES = [
    "I'm 23 and a nurse.", "Im 23 and most of my paycheck goes to textbooks.",
    "My brother eats my leftovers!", "I think people should call first?",
    "I have three old bikes", "24F here.", "NTA.", "Edit: I work as a night nurse",
    "I like hiking, I love rain.", "i LIKE cats and I like dogs", "The elevator is broken.",
    "I am a woman", "",
]
EXTRACT_SEPARATORS = [" ", "  ", "\n", "\n\n", "! ", "?! ", ""]


# terminators, newline runs, and whitespace that is not ASCII: the file and
# unit separators, NEL, a thin space and the ideographic space
SEGMENT_CHARS = list(".!?\r\n \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2009\u3000\xa0") + [
    "a", "Z", "3", ".5", "é", "東"]


@settings(max_examples=300, deadline=None)
@given(text=st.lists(st.sampled_from(SEGMENT_CHARS), max_size=40).map("".join))
def test_segment_sentences_matches_charwise_trim_oracle(text):
    assert segment_sentences(text) == oracle_segment_sentences(text)


def empty_matching_patterns():
    """The default patterns with Hobby able to match the empty string."""
    raw = dict(default_patterns().raw)
    raw[LowLevelCategory.HOBBY] = "(?:I like)?"
    return PatternSet.loads(PatternSet.dumps(raw))


@st.composite
def extract_corpus_strategy(draw):
    """A corpus whose comments draw from a small pool of sentences, so one
    sentence recurs at other offsets, in other comments and at other sentence
    indices, after newline and !? boundaries."""
    keys = draw(st.lists(st.integers(0, 99), unique=True, max_size=6))
    sentence = st.tuples(st.sampled_from(EXTRACT_SENTENCES), st.sampled_from(EXTRACT_SEPARATORS))
    comments = {}
    for k in keys:
        lead = draw(st.sampled_from(["", " ", "\n", "NTA. "]))
        parts = draw(st.lists(sentence, max_size=6))
        comments[f"c{k}"] = Comment(id=f"c{k}", author_id="a",
                                    text=lead + "".join(s + sep for s, sep in parts))
    return Corpus(posts={}, comments=comments, verdicts=[])


def fresh_copy(corpus):
    """The corpus with new Comment objects, so no sentence spans are cached."""
    return Corpus(posts={}, verdicts=[], comments={
        cid: Comment(id=c.id, author_id=c.author_id, text=c.text)
        for cid, c in corpus.comments.items()})


@pytest.mark.parametrize("patterns", [default_patterns, empty_matching_patterns],
                         ids=["default", "empty-match"])
@settings(max_examples=60, deadline=None)
@given(corpus=extract_corpus_strategy())
def test_extract_corpus_matches_per_comment_oracle(patterns, corpus):
    pats = patterns()
    want = oracle_extract_corpus(fresh_copy(corpus), pats)
    got = extract_corpus(corpus, pats)
    assert list(got) == sorted(corpus.comments)
    # span equality compares comment id, sentence index, category, offsets
    # and matched text
    assert got == want
    for cid, spans in got.items():
        text = corpus.comments[cid].text
        assert all(text[s.start:s.end] == s.matched_text != "" for s in spans)
    assert build_profiles(fresh_copy(corpus), pats) == {
        cid: comment_profile(corpus.comments[cid], spans) for cid, spans in want.items()}


# ---------------------------------------------------------------------------
# the embedder

# apostrophes, digits, non-ASCII letters (separators for the ASCII tokenizer),
# mixed case and words that repeat within a text
EMBED_WORDS = ["the", "The", "cat", "CAT", "don't", "I'm", "'", "''", "42", "x9",
               "café", "naïve", "ß", "İ", "東京", "a", "a", "b"]
EMBED_SEPARATORS = [" ", "  ", ", ", "! ", "\n", "-", ""]


@st.composite
def embed_texts_strategy(draw):
    words = st.lists(st.tuples(st.sampled_from(EMBED_WORDS), st.sampled_from(EMBED_SEPARATORS)),
                     max_size=14).map(lambda pairs: "".join(w + sep for w, sep in pairs))
    return draw(st.lists(st.one_of(words, st.text(max_size=30), st.just("")), max_size=8))


@pytest.mark.parametrize("dim", [8, 1024, 4096])
@pytest.mark.parametrize("ngram_range", [(1, 1), (1, 2), (2, 3)])
@settings(max_examples=40, deadline=None)
@given(texts=embed_texts_strategy())
def test_embed_rows_match_per_gram_oracle(ngram_range, dim, texts):
    cfg = EmbedderConfig(dim=dim, ngram_range=ngram_range, seed=7)
    items = [(f"t{i}", text) for i, text in enumerate(texts)]
    matrix = embed_texts(items, cfg)
    # the same texts in reversed order fill the n-gram memo in another order
    backwards = embed_texts(items[::-1], cfg)
    assert dense(matrix).shape == (len(texts), dim)
    for rid, text in items:
        want = oracle_embed_text(text, cfg).view(np.int32)
        assert np.array_equal(matrix.row(rid).view(np.int32), want)
        assert np.array_equal(backwards.row(rid).view(np.int32), want)
        assert np.array_equal(embed_text(text, cfg).view(np.int32), want)
        # the norm of the dense row
        assert matrix.norms[matrix.row_index(rid)] == np.linalg.norm(
            want.view(np.float32).astype(np.float64))


# ---------------------------------------------------------------------------
# the row store

@st.composite
def stored_rows(draw, dim):
    """Dense float32 rows, all-zero ones among them: rows with a few entries
    anywhere, -0.0, subnormals, infinities and NaN included, and rows of up
    to 60 normal draws, whose norm sums in another order when the zeros are
    left out; and a selection of them, empty, unsorted or repeating."""
    rows = np.zeros((draw(st.integers(0, 6)), dim), dtype=np.float32)
    for row in rows:
        if draw(st.booleans()):
            rng = np.random.default_rng(draw(st.integers(0, 2**32)))
            cols = rng.choice(dim, min(dim, draw(st.integers(0, 60))), replace=False)
            row[cols] = rng.standard_normal(cols.size)
        for col, value in draw(st.lists(st.tuples(st.integers(0, dim - 1), st.floats(width=32)),
                                        max_size=12)):
            row[col] = value
    picks = draw(st.lists(st.integers(0, len(rows) - 1), max_size=9)) if len(rows) else []
    return rows, picks


@pytest.mark.parametrize("dim", [8, 1024, 4096])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_take_matches_dense_oracle(dim, data):
    rows, picks = data.draw(stored_rows(dim))
    ids = [f"r{i}" for i in range(len(rows))]
    matrix = EmbeddingMatrix.from_dense(ids, rows)
    for selection in (picks, list(range(len(rows))), []):
        got = matrix.take(selection)
        assert got.dtype == np.float32 and got.shape == (len(selection), dim)
        assert np.array_equal(got.view(np.int32), rows[selection].view(np.int32))
        assert np.array_equal(matrix.take(selection, dtype=np.float64).view(np.int64),
                              rows[selection].astype(np.float64).view(np.int64))
    # each norm is the 1-D norm of the dense row
    want = np.array([np.linalg.norm(row.astype(np.float64)) for row in rows], dtype=np.float64)
    assert np.array_equal(matrix.norms.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# the cosine kernel

def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# the default budget, then budgets that cut the queries into blocks of one
# and of four and the rows into chunks of one to a few, so chunk boundaries
# fall between the live rows of every selection
@pytest.mark.parametrize("chunk_rows", [None, 1, 4])
@pytest.mark.parametrize("dim", [7, 64, 1023, 1024])
def test_cosine_scores_match_per_row_oracle(dim, chunk_rows, monkeypatch):
    if chunk_rows is not None:
        monkeypatch.setattr(dlab.embed, "_SCORE_CHUNK_FLOATS", chunk_rows * dim + dim - 1)
    rng = np.random.default_rng(dim)
    n = 41
    rows = rng.standard_normal((n, dim)).astype(np.float32)
    rows[5] = rows[17] = 0.0  # all-zero rows
    rows[n - 1] = rows[0]
    # rows that store a few entries, one entry, and -0.0 beside a value
    rows[10:15] *= rng.random((5, dim)) < 0.1
    rows[15] = 0.0
    rows[15, dim // 2] = -3.0
    rows[16, ::2] = -0.0
    # rows far from unit norm, in both directions
    rows[20:30] *= np.float32(1e20)
    rows[30:40] *= np.float32(1e-20)
    matrix = EmbeddingMatrix.from_dense([f"r{i}" for i in range(n)], rows)
    queries = np.vstack([
        rng.standard_normal((3, dim)).astype(np.float32),
        np.zeros((1, dim), dtype=np.float32),  # a zero query
        rows[0][None, :],  # a query equal to a row
        rows[25][None, :] * np.float32(1e-20),
    ])
    # a query that is 0 where row 15 stores its one entry: the dot is -0.0
    # before + 0.0
    queries[0, dim // 2] = 0.0
    # the whole matrix, reversed, one row, one zero row, only zero rows, a
    # scattered subset, repeated positions, and no rows
    for idx in (np.arange(n), np.arange(n)[::-1], [0], [5], [17, 5], [3, 5, 25, 35, 40],
                [25, 3, 25, 17, 40, 0, 3, 3], [12, 15, 16], []):
        idx = np.asarray(idx, dtype=np.intp)
        got = cosine_scores(queries, matrix, idx)
        assert got.shape == (len(queries), len(idx))
        for query, scores in zip(queries, got):
            assert same_bits(scores, np.array([stored_order_cosine(query, matrix, i)
                                               for i in idx], dtype=np.float64))
    got = cosine_scores(queries, matrix, range(n))
    for query, scores in zip(queries, got):
        for row, score in enumerate(scores):
            assert_near_fsum_cosine(score, query, matrix, row)
    assert not got[3].any() and not got[:, [5, 17]].any()
    # a zero dot scores +0.0
    assert got[0, 15] == 0.0 and not (np.signbit(got) & (got == 0.0)).any()
    assert abs(got[4, 0] - 1.0) < 1e-12 and np.abs(got).max() <= 1.0


def test_cosine_scores_match_dense_oracle_on_synthgen_rows(world, wide_matrices):
    # a hashed n-gram row holds a few multiples of one float32 magnitude,
    # so on synthgen text the stored-entry sum and the dense BLAS dot round
    # alike: every post's score against every comment and every sentence,
    # the pools the sampler ranks, equals the dense oracle's bit for bit, at
    # dims 64 and 1024
    corpus, embeddings, sentences, _, _ = world
    for embeddings, sentences in ((embeddings, sentences), wide_matrices):
        queries = embeddings.take([embeddings.row_index(pid) for pid in sorted(corpus.posts)])
        for matrix, pool in ((embeddings, [embeddings.row_index(cid) for cid in corpus.comments]),
                             (sentences, range(len(sentences)))):
            got = cosine_scores(queries, matrix, pool)
            rows = matrix.take(pool)
            for query, scores in zip(queries, got):
                assert same_bits(scores, oracle_cosine_scores(query, rows, matrix.norms[pool]))


def test_cosine_scores_refuse_queries_of_another_dim(world):
    embeddings = world[1]
    with pytest.raises(ValueError, match="dim"):
        cosine_scores(np.zeros((2, embeddings.dim + 1)), embeddings, [0])
    with pytest.raises(ValueError, match="dim"):
        cosine_scores(np.zeros(embeddings.dim), embeddings, [0])


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
        # the full sort and heapq.nsmallest rank alike
        assert want == [oracle_sample_context(a, p, corpus, embeddings, profiles, cfg,
                                              sentences, rank=oracle_rank_scores)
                        for a, p in pairs]
        got = sample_context(pairs, corpus, embeddings, profiles, cfg=cfg,
                             sentences=sentences, scores=memo)
        assert got == want, (cfg.strategy, cfg.category_filter)
        assert signed(got) == signed(want)
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


def test_grouped_memo_fill_matches_per_pair_oracle(world, monkeypatch):
    corpus, embeddings, sentences, profiles, pairs = world
    calls = []

    def counted(queries, matrix, rows):
        calls.append(len(queries))
        return cosine_scores(queries, matrix, rows)

    monkeypatch.setattr(dlab.sampler, "cosine_scores", counted)
    # an earlier call, filtered or on part of the partition, scores some of
    # an annotator's pairs; the later call scores the rest of its posts at once
    filt = CategoryFilter(cluster=0)
    earlier = [pair for i, pair in enumerate(pairs) if i % 3 == 0]
    for unit, first, cfg in (
            ("comment", SamplerConfig(strategy="similar_comments", max_samples=3,
                                      category_filter=filt), SamplerConfig(
                strategy="similar_comments", max_samples=3)),
            ("sentence", SamplerConfig(strategy="similar_sentences", max_samples=2),
             SamplerConfig(strategy="similar_sentences", max_samples=4))):
        memo = {}
        sample_context(earlier, corpus, embeddings, profiles, cfg=first,
                       sentences=sentences, scores=memo)
        prefilled = dict(memo)
        posts = {}
        for a, p in pairs:
            posts.setdefault(a, set()).add((unit, a, p) in prefilled)
        # an annotator with scored and unscored posts
        assert {True, False} in posts.values()
        calls.clear()
        got = sample_context(pairs, corpus, embeddings, profiles, cfg=cfg,
                             sentences=sentences, scores=memo)
        # one kernel call per annotator with unscored posts, each post once
        assert sorted(calls) == sorted(
            len({p for b, p in pairs if b == a and (unit, a, p) not in prefilled})
            for a in posts if corpus.annotator_index[a] and False in posts[a])
        assert got == [oracle_sample_context(a, p, corpus, embeddings, profiles, cfg, sentences)
                       for a, p in pairs]
        # one entry per unit and pair with a non-empty pool; the earlier ones kept
        assert set(memo) == {(unit, a, p) for a, p in pairs if corpus.annotator_index[a]}
        assert all(memo[key] is scores for key, scores in prefilled.items())
        matrix = sentences if unit == "sentence" else embeddings
        for (_, a, p), scores in memo.items():
            units, _ = annotator_pool(corpus, a, None, None, unit)
            rows = [matrix.row_index(text if unit == "sentence" else cid)
                    for cid, _, text in units]
            assert same_bits(scores, oracle_cosine_scores(embeddings.row(p), matrix.take(rows),
                                                          matrix.norms[rows]))


def signed(contexts):
    """Each context's items with their similarity's repr, which tells -0.0
    from 0.0 and shows NaN, where ContextItem equality does neither."""
    return [(ctx.annotator_id, ctx.post_id,
             [(item.source_comment_id, item.text, repr(item.similarity), item.unit,
               item.sentence_index) for item in ctx.items]) for ctx in contexts]


@pytest.fixture(scope="module")
def tied_world():
    """Pools whose keys repeat: comments c1 and c2 share a text, c0 and c3
    repeat a sentence, so (comment id, text) keys repeat among sentences;
    "solo" has one comment. Hand-made profiles put the comments in theory
    categories and clusters."""
    texts = {"c0": ("judge", "Same here. Same here."), "c1": ("judge", "Same here."),
             "c2": ("judge", "Same here."),
             "c3": ("judge", "I am a nurse. Same here. I am a nurse."),
             "c4": ("judge", "Other words here."), "s0": ("solo", "Only one.")}
    corpus = Corpus(
        posts={pid: Post(id=pid, author_id="op", title=pid, body="same words")
               for pid in ("p0", "p1")},
        comments={cid: Comment(id=cid, author_id=aid, text=text)
                  for cid, (aid, text) in texts.items()},
        verdicts=[Verdict(pid, aid, "NTA") for pid in ("p0", "p1") for aid in ("judge", "solo")])
    categories = list(HighLevelCategory)
    profiles = {cid: CategoryProfile(cid, frozenset(categories[i % 4:i % 4 + 2]), True,
                                     cluster_id=i % 2)
                for i, cid in enumerate(texts)}
    return (corpus, embed_corpus(corpus, ECFG), embed_sentences(corpus, ECFG), profiles,
            [(v.annotator_id, v.post_id) for v in corpus.verdicts])


TIED_SCORES = [1.0, 0.5, 5e-324, 0.0, -0.0, -5e-324, -0.5, -1.0]
TIED_FILTERS = [None] + [CategoryFilter(theory=c) for c in HighLevelCategory] + [
    CategoryFilter(cluster=i) for i in range(2)]
TIED_CONFIGS = [SamplerConfig(strategy="similar_comments", max_samples=k, category_filter=filt)
                for k in (1, 3, 5) for filt in TIED_FILTERS] + [
    SamplerConfig(strategy="similar_sentences", max_samples=k) for k in (1, 3, 20)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sampler_ranks_tied_pools_as_nsmallest_oracle(tied_world, data):
    # exact ties, -0.0 beside 0.0, repeated keys, and k above the pool size,
    # on score vectors put into the memo, so no cosine can break a tie
    corpus, embeddings, sentences, profiles, pairs = tied_world
    memo = {}
    for unit in ("comment", "sentence"):
        for a, p in pairs:
            units, _ = annotator_pool(corpus, a, None, None, unit)
            memo[unit, a, p] = np.array(data.draw(st.lists(
                st.sampled_from(TIED_SCORES), min_size=len(units), max_size=len(units))))
    for cfg in TIED_CONFIGS:
        want = []
        for a, p in pairs:
            units, admitted = annotator_pool(corpus, a, profiles, cfg.category_filter, cfg.unit)
            candidates = [units[i] for i in admitted]
            ranked = oracle_rank_scores(memo[cfg.unit, a, p][admitted],
                                        [(cid, text) for cid, _, text in candidates],
                                        cfg.max_samples)
            want.append(ContextSet(a, p, [
                ContextItem(candidates[i][0], candidates[i][2], score, cfg.unit,
                            sentence_index=candidates[i][1]) for i, score in ranked]))
        got = sample_context(pairs, corpus, embeddings, profiles, cfg=cfg,
                             sentences=sentences, scores=dict(memo))
        assert signed(got) == signed(want), cfg


# ids with JSON's escapes, other control characters, characters Python's
# str.splitlines breaks at, non-ASCII and astral characters
ID_CHARS = list('"\\/ a\x00\x08\t\n\x0c\r\x1f\x7f\x85\u2028\u2029\xe9\u6771') + [
    "\U0001f600", "\U0010ffff"]
SIMILARITIES = [None, 0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1060, 1.0, -1.0, math.nan, math.inf,
                -math.inf, 0.1, 1 / 3]


@st.composite
def dumped_contexts(draw):
    """A corpus of comments and contexts whose items name its comments and
    sentences, with any similarity and, for comment items, any sentence index."""
    ids = st.text(st.sampled_from(ID_CHARS), max_size=5) | st.text(max_size=5)
    texts = st.lists(st.sampled_from(["Same here.", "I am a nurse.", "Hm"]), max_size=3)
    comments = {}
    for cid in draw(st.lists(ids, min_size=1, max_size=4, unique=True)):
        comments[cid] = Comment(id=cid, author_id="a", text=" ".join(draw(texts)))
    contexts = []
    for _ in range(draw(st.integers(0, 4))):
        items = []
        for _ in range(draw(st.integers(0, 4))):
            comment = comments[draw(st.sampled_from(sorted(comments)))]
            similarity = draw(st.sampled_from(SIMILARITIES) | st.floats())
            spans = comment.sentence_spans()
            if spans and draw(st.booleans()):
                index = draw(st.integers(0, len(spans) - 1))
                a, b = spans[index]
                items.append(ContextItem(comment.id, comment.text[a:b], similarity, "sentence",
                                         sentence_index=index))
            else:
                index = draw(st.none() | st.integers())
                items.append(ContextItem(comment.id, comment.text, similarity, "comment",
                                         sentence_index=index))
        contexts.append(ContextSet(draw(ids), draw(ids), items))
    return Corpus(posts={}, comments=comments, verdicts=[]), contexts


@settings(max_examples=300, deadline=None)
@given(drawn=dumped_contexts())
def test_dump_contexts_matches_json_dumps_oracle(drawn):
    corpus, contexts = drawn
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.jsonl", Path(tmp) / "want.jsonl"
        dump_contexts(contexts, got)
        oracle_dump_contexts(contexts, want)
        assert got.read_bytes() == want.read_bytes()
        assert signed(load_contexts(got, corpus)) == signed(contexts)


# ---------------------------------------------------------------------------
# the feature matrix

FEATURE_SCALES = {"unit": (1.0,), "non-unit": (1.0, 2.5, 0.0, 0.3),
                  "near-unit": (1.0005, 0.9995, 1.01), "random": "random"}


def feature_partitions(world, scales):
    """The world's matrices, rescaled (zero and non-unit rows among them) or
    made dense and random, and partitions of their pairs' contexts: empty
    contexts, the full pool, every sampler config's, a context that mixes
    comment and sentence items, a partition whose pairs repeat, and the full
    pool beside its items reversed."""
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
    # a context alternating sentence items (similar_sentences, the last
    # config) and comment items (the full pool)
    sentence_ctx = partitions[-1][0]
    mixed = ContextSet(sentence_ctx.annotator_id, sentence_ctx.post_id,
                       [item for pair in zip(sentence_ctx.items, partitions[1][0].items[:2])
                        for item in pair])
    assert [item.unit for item in mixed.items] == ["sentence", "comment"] * 2
    partitions.append([mixed])
    # every pair of one partition twice (the full pool's contexts already
    # repeat per annotator), and each context beside its items reversed: the
    # same items in another order are another sequence
    partitions.append(partitions[-2] * 2)
    partitions.append(partitions[1] + [ContextSet(c.annotator_id, c.post_id, c.items[::-1])
                                       for c in partitions[1]])
    # contexts of zero rows only (scaled by 0.0, they store -0.0 entries),
    # beside others
    zero = [ContextItem(cid, corpus.comments[cid].text, None, "comment")
            for cid in sorted(corpus.comments) if not embeddings.norms[embeddings.row_index(cid)]]
    if zero:
        a, p = pairs[0]
        partitions.append([ContextSet(a, p, zero[:1]), ContextSet(a, p, zero[:3])]
                          + partitions[1][:2])
    return embeddings, sentences, partitions


@pytest.mark.parametrize("scales", FEATURE_SCALES.values(), ids=FEATURE_SCALES.keys())
def test_feature_matrix_matches_per_pair_oracle(world, scales):
    corpus, _, _, _, pairs = world
    embeddings, sentences, partitions = feature_partitions(world, scales)
    for contexts in partitions:
        features = build_features(contexts, embeddings, sentences)
        X = features.rows()
        assert X.dtype == np.float64 and X.flags.c_contiguous
        assert np.array_equal(X, oracle_features(contexts, embeddings, sentences))
        assert np.array_equal(X, oracle_dense_features(contexts, embeddings, sentences))
        sequences = {tuple((item.unit, item.text if item.unit == "sentence"
                            else item.source_comment_id) for item in ctx.items)
                     for ctx in contexts if ctx.items}
        assert len(features.posts) == len({c.post_id for c in contexts})
        assert len(features.contexts) <= 1 + len(sequences)
    # one half-row per distinct post and per annotator's pool, not two per pair
    pooled = build_features(partitions[1], embeddings)
    assert len(pooled.posts) + len(pooled.contexts) < len(pairs)


def same_features(a, b):
    """Two Features with the same blocks, index, columns and width, bit for bit."""
    return (same_bits(a.posts, b.posts) and same_bits(a.contexts, b.contexts)
            and np.array_equal(a.index, b.index) and a.width == b.width
            and np.array_equal(a.post_columns, b.post_columns)
            and np.array_equal(a.context_columns, b.context_columns))


@pytest.mark.parametrize("scales", FEATURE_SCALES.values(), ids=FEATURE_SCALES.keys())
def test_build_features_matches_per_sequence_oracle(world, scales, monkeypatch):
    embeddings, sentences, partitions = feature_partitions(world, scales)
    d = embeddings.dim
    # the default chunks; one sequence per chunk; and three sequences per
    # block but at most 3d + 1 entries, which cuts the longer sequences'
    # chunks by their entries
    for chunk_floats in (dlab.model._MEAN_CHUNK_FLOATS, 1, 3 * d + 1):
        monkeypatch.setattr(dlab.model, "_MEAN_CHUNK_FLOATS", chunk_floats)
        for contexts in partitions:
            assert same_features(build_features(contexts, embeddings, sentences),
                                 oracle_build_features(contexts, embeddings, sentences))


@pytest.mark.parametrize("chunk_floats", [None, 1])
def test_build_features_over_rows_that_store_no_entry(chunk_floats, monkeypatch):
    # +0.0 rows store no entry: a chunk of such items alone sums over no
    # entry at all, and its means are +0.0, unscaled
    if chunk_floats is not None:
        monkeypatch.setattr(dlab.model, "_MEAN_CHUNK_FLOATS", chunk_floats)
    rows = np.zeros((4, 8), dtype=np.float32)
    rows[0, 0] = rows[3, 1] = 1.0
    matrix = EmbeddingMatrix.from_dense(["p", "z1", "z2", "c"], rows)
    assert matrix.indptr[1] == matrix.indptr[3]
    item = {cid: ContextItem(cid, cid, None, "comment") for cid in ("z1", "z2", "c")}
    contexts = [ContextSet("a", "p", [item["z1"]]), ContextSet("a", "p", [item["z1"], item["z2"]]),
                ContextSet("a", "p", [item["z2"], item["c"]]), ContextSet("a", "p", [])]
    features = build_features(contexts, matrix)
    assert same_features(features, oracle_build_features(contexts, matrix))
    assert features.context_columns.tolist() == [1]
    assert features.contexts.tolist() == [[0.0], [0.0], [0.0], [0.5]]
    assert not np.signbit(features.contexts).any()


def test_feature_mean_sums_each_column_in_item_order():
    # column 2 cancels: 1 - 1 + 2^-60 in item order, but 2^-60 - 1 + 1 = 0
    # in reverse; column 5 stores -0.0 in every item, column 6 in two of three
    d = 8
    rows = np.zeros((4, d), dtype=np.float32)
    rows[0] = 3.0  # the post
    rows[1, [0, 2]] = 0.5, 1.0
    rows[2, 2] = -1.0
    rows[3, 2] = 2.0 ** -60
    rows[1:4, 5] = -0.0
    rows[[1, 3], 6] = -0.0
    matrix = EmbeddingMatrix.from_dense(["p", "c1", "c2", "c3"], rows)
    items = [ContextItem(cid, cid, None, "comment") for cid in ("c1", "c2", "c3")]
    contexts = [ContextSet("a", "p", items), ContextSet("a", "p", items[::-1])]
    X = build_features(contexts, matrix).rows()
    assert same_bits(X, oracle_dense_features(contexts, matrix))
    assert X[0, d + 2] == 2.0 ** -60 / 3 and X[1, d + 2] == 0.0
    # the dense mean sums from +0.0, so a column of -0.0 entries averages to +0.0
    assert not np.signbit(X[:, d + 5:d + 7]).any()


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
    # one row per step
    "batch1": TrainConfig(epochs=2, learning_rate=0.01, batch_size=1, seed=6),
}


# the world's rows at the benchmark's dim: its partitions store a few
# hundred of the 1,024 columns of each half
WIDE = EmbedderConfig(dim=1024, ngram_range=(1, 2), seed=0)


@pytest.fixture(scope="module")
def wide_matrices(world):
    corpus = world[0]
    return embed_corpus(corpus, WIDE), embed_sentences(corpus, WIDE)


def train_partitions(world, embeddings, sentences):
    """The world's pairs under three kinds of context, sampled from the
    given matrices, and their class indices."""
    corpus, _, _, profiles, pairs = world
    y = encode_labels([v.label for v in corpus.verdicts] + ["NTA"])
    assert len(y) == len(pairs) and len(pairs) % 32 and len(pairs) < 1000
    return y, {
        # sentence items, and an empty context for the silent annotator
        "sentences": sample_context(pairs, corpus, embeddings, profiles, sentences=sentences,
                                    cfg=SamplerConfig(strategy="similar_sentences",
                                                      max_samples=3, seed=5)),
        # one repeated context per annotator
        "full-pool": full_pool_context(pairs, corpus),
        "empty": [ContextSet(a, p, []) for a, p in pairs],
    }


def half_columns(features):
    """The stored columns of each half, as oracle_dense_train takes them."""
    return features.post_columns, features.context_columns


def lockstep_fits(features, y, cfg, X, columns=None):
    """(runs, fit, oracle) for every fit of a runs = 1, 3 and 5 train call,
    where the oracle is the dense trainer's fit seeded cfg.seed + r for
    fit r: fit r of each call is the single fit of that seed."""
    oracles = [oracle_dense_train(X, y, replace(cfg, seed=cfg.seed + r), columns)
               for r in range(5)]
    for runs in (1, 3, 5):
        fits = train(features, y, cfg, runs)
        assert fits.epochs == cfg.epochs and len(fits.params) == runs
        for r, params in enumerate(fits.params):
            assert params.seed == cfg.seed + r
            yield runs, params, oracles[r]


@pytest.mark.parametrize("cfg", TRAIN_CONFIGS.values(), ids=TRAIN_CONFIGS.keys())
def test_train_matches_dense_oracle(world, wide_matrices, cfg):
    for embeddings, sentences in (world[1:3], wide_matrices):
        y, partitions = train_partitions(world, embeddings, sentences)
        for name, contexts in partitions.items():
            # every row, and 33 rows, whose last batch of 32 is one row
            for n in (len(y), 33):
                features = build_features(contexts[:n], embeddings, sentences)
                X = oracle_dense_features(contexts[:n], embeddings, sentences)
                for runs, params, (W, b, history) in lockstep_fits(
                        features, y[:n], cfg, X, half_columns(features)):
                    assert np.array_equal(params.weights, W), (name, n, runs)
                    assert np.array_equal(params.bias, b), (name, n, runs)
                    assert params.loss_history == history, (name, n, runs)
                    assert all(math.isfinite(loss) for loss in history)
                    assert params.weights.any() == (cfg.learning_rate > 0)


@pytest.mark.parametrize("cfg", TRAIN_CONFIGS.values(), ids=TRAIN_CONFIGS.keys())
def test_train_on_every_column_matches_full_width_oracle(world, cfg):
    # dense random rows store every column, so train's logits sum each
    # half's product over the whole half, as the oracle's do over every
    # column of each half
    embeddings, sentences = randomized(world[1], 1), randomized(world[2], 2)
    y, partitions = train_partitions(world, embeddings, sentences)
    every = np.arange(embeddings.dim)
    for name, contexts in partitions.items():
        features = build_features(contexts, embeddings, sentences)
        assert features.post_columns.tolist() == every.tolist(), name
        if name != "empty":
            assert features.context_columns.tolist() == every.tolist(), name
        for runs, params, (W, b, history) in lockstep_fits(
                features, y, cfg, features.rows(), half_columns(features)):
            assert same_bits(params.weights, W), (name, runs)
            assert same_bits(params.bias, b), (name, runs)
            assert params.loss_history == history, (name, runs)


def test_lockstep_fit_equals_single_fit_of_its_seed(world, wide_matrices):
    y, partitions = train_partitions(world, *wide_matrices)
    for cfg in TRAIN_CONFIGS.values():
        for name, contexts in partitions.items():
            features = build_features(contexts, *wide_matrices)
            for r, params in enumerate(train(features, y, cfg, 5).params):
                single, = train(features, y, replace(cfg, seed=cfg.seed + r)).params
                assert same_bits(params.weights, single.weights), (name, r)
                assert same_bits(params.bias, single.bias), (name, r)
                assert params.loss_history == single.loss_history, (name, r)


@pytest.mark.parametrize("cfg", TRAIN_CONFIGS.values(), ids=TRAIN_CONFIGS.keys())
def test_train_on_stored_columns_stays_near_full_width_oracle(world, wide_matrices, cfg):
    # logits summed over the stored columns alone differ from full-width
    # ones in the last bits; the weights stay within 1e-12 of the largest
    # weight, and every row gets the class the full-width weights give it
    y, partitions = train_partitions(world, *wide_matrices)
    for name, contexts in partitions.items():
        features = build_features(contexts, *wide_matrices)
        assert len(features.post_columns) < features.width, name
        assert len(features.context_columns) < features.width, name
        W, b, _ = oracle_dense_train(features.rows(), y, cfg)
        params, = train(features, y, cfg).params
        assert np.abs(params.weights - W).max() <= 1e-12 * np.abs(W).max(), name
        full = ModelParams(weights=W, bias=b, gamma=cfg.focal_gamma, alpha=params.alpha,
                           seed=cfg.seed, epochs=cfg.epochs, learning_rate=cfg.learning_rate)
        assert np.array_equal(predict(params, features), predict(full, features)), name


def test_train_leaves_unstored_columns_exactly_zero(world, wide_matrices):
    y, partitions = train_partitions(world, *wide_matrices)
    for name, contexts in partitions.items():
        features = build_features(contexts, *wide_matrices)
        params, = train(features, y, TrainConfig(epochs=3, learning_rate=0.05, seed=1)).params
        halves = params.weights.reshape(2, 2, features.width)
        for half, columns in enumerate(half_columns(features)):
            unstored = np.ones(features.width, dtype=bool)
            unstored[columns] = False
            assert unstored.any(), (name, half)
            # +0.0, not -0.0
            assert not halves[:, half, unstored].view(np.int64).any(), (name, half)
            assert halves[:, half, columns].any() == bool(len(columns)), (name, half)
        # the post half stores columns, and only the empty contexts none
        assert len(features.post_columns), name
        assert (len(features.context_columns) == 0) == (name == "empty"), name


def test_train_on_empty_contexts_fits_zero_context_weights(world, wide_matrices):
    # no_comments: every context is empty, so the context half stores no
    # column and trains no weight, and its weights are all +0.0
    corpus, _, _, _, pairs = world
    embeddings = wide_matrices[0]
    y = encode_labels([v.label for v in corpus.verdicts] + ["NTA"])
    features = build_features([ContextSet(a, p, []) for a, p in pairs], embeddings)
    assert features.contexts.shape == (1, 0) and features.context_columns.size == 0
    assert not features.index[:, 1].any()
    for params in train(features, y, TrainConfig(epochs=3, learning_rate=0.05, seed=1),
                        3).params:
        halves = params.weights.reshape(2, 2, features.width)
        assert not halves[:, 1].view(np.int64).any()
        assert halves[:, 0, features.post_columns].all()


def test_train_without_stored_columns_fits_zero_weights(world):
    corpus, embeddings, _, _, pairs = world
    # every post and comment row empty, as for texts without an n-gram
    zero = EmbeddingMatrix.from_dense(embeddings.ids, np.zeros((len(embeddings), embeddings.dim)))
    y = encode_labels([v.label for v in corpus.verdicts] + ["NTA"])
    cfg = TrainConfig(epochs=2, learning_rate=0.05, batch_size=7, seed=1)
    for contexts in (full_pool_context(pairs, corpus), [ContextSet(a, p, []) for a, p in pairs]):
        features = build_features(contexts, zero)
        assert features.posts.shape[1] == features.contexts.shape[1] == 0
        assert features.width == zero.dim
        for runs, params, (W, b, history) in lockstep_fits(
                features, y, cfg, features.rows(), half_columns(features)):
            assert params.weights.shape == (2, 2 * zero.dim)
            assert not params.weights.view(np.int64).any()
            assert same_bits(params.weights, W) and same_bits(params.bias, b)
            assert params.loss_history == history


@pytest.mark.parametrize("gamma", [0.5, 2.0])
def test_train_matches_dense_oracle_where_rows_saturate(gamma):
    # post halves ±40 apart by class and a large learning rate: within a few
    # steps most rows' true-class probability rounds to exactly 1.0, where
    # the focal coefficient's (1 - p_t)^(gamma - 1) reads 0^-0.5 at
    # gamma 0.5; a floating-point warning there would fail the test
    rng = np.random.default_rng(11)
    n, width = 40, 3
    y = np.arange(n) % 2
    posts = rng.normal(0.0, 1.0, (n, width))
    posts[:, 0] += np.where(y == 1, 20.0, -20.0)
    contexts = rng.normal(0.0, 1.0, (4, width))
    index = np.stack([np.arange(n), np.arange(n) % 4], axis=1)
    features = Features(posts, contexts, index)
    cfg = TrainConfig(epochs=6, learning_rate=0.5, focal_gamma=gamma, batch_size=8, seed=3)
    X = features.rows()
    W, b, _ = oracle_dense_train(X, y, cfg, half_columns(features))
    z = X @ W.T + b
    logp = z - np.logaddexp(z[:, :1], z[:, 1:])
    assert (np.exp(logp[np.arange(n), y]) == 1.0).sum() >= n // 2
    for runs, params, (W, b, history) in lockstep_fits(features, y, cfg, X,
                                                       half_columns(features)):
        if runs > 3:
            break
        assert same_bits(params.weights, W) and same_bits(params.bias, b), runs
        assert params.loss_history == history, runs


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
        models = [train(features, y, TrainConfig(epochs=epochs, seed=3)).params[0]
                  for epochs in (1, 10)]
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
