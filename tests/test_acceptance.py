"""Release gate: one test per headline guarantee, with pinned tolerances.

Each test prints a single summary line so a -v run doubles as a scorecard.
The heavy end-to-end fixture (criteria 4 and 5) is built once per module.
"""
import json
import math
import random
import time

import numpy as np
import pytest
from conftest import dense
from test_disclosure import GOLDEN

from dlab.cluster import kmeans, kmeans_plus_plus_init, silhouette, truncated_svd
from dlab.corpus import Corpus, Post, Verdict, make_split, verify_split
from dlab.disclosure import HighLevelCategory, LowLevelCategory, build_profiles, extract_disclosures
from dlab.embed import (
    EmbedderConfig,
    EmbeddingMatrix,
    embed_texts,
    export_embeddings,
    import_embeddings,
    top_k_similar,
)
from dlab.model import (
    TrainConfig,
    build_features,
    compute_report,
    encode_labels,
    focal_loss_batch,
    predict,
    significance_test,
    train,
)
from dlab.pipeline import parse_config, run_pipeline
from dlab.sampler import CategoryFilter, Contexts, SamplerConfig, sample_context
from dlab.synthgen import PopulationSpec, generate_population


# ---------------------------------------------------------------------------
# criterion 1: every golden disclosure sentence lands in its category

def test_criterion_1_taxonomy_golden_suite():
    start = time.perf_counter()
    misses = []
    for text, category in GOLDEN:
        found = {span.category for span in extract_disclosures(text)}
        if category not in found:
            misses.append((text[:40], category.value, sorted(c.value for c in found)))
    # age/gender shorthand is gender, not age
    shorthand = {s.category for s in extract_disclosures("24F here.")}
    elapsed = time.perf_counter() - start
    assert misses == [], f"golden misses: {misses}"
    assert shorthand == {LowLevelCategory.GENDER}
    assert elapsed < 1.0, f"golden suite took {elapsed:.3f}s"
    print(f"criterion 1 PASS: {len(GOLDEN)} golden sentences + shorthand in {elapsed * 1000:.0f}ms")


# ---------------------------------------------------------------------------
# criterion 2: fuzzed grouped splits never leak a group across partitions

def fuzz_corpus(seed):
    """Random little corpus; the first annotator judges every post so both
    grouped split kinds always have enough distinct groups."""
    rng = random.Random(seed)
    post_ids = [f"p{i}" for i in range(rng.randint(4, 12))]
    posts = {
        pid: Post(id=pid, author_id=f"op{pid}", title=f"title {pid}",
                  body=f"body {pid}")
        for pid in post_ids
    }
    verdicts = []
    for a in range(rng.randint(4, 12)):
        aid = f"a{a}"
        judged = post_ids if a == 0 else rng.sample(post_ids, rng.randint(1, len(post_ids)))
        for pid in judged:
            verdicts.append(Verdict(pid, aid, rng.choice(("NTA", "YTA"))))
    return Corpus(posts=posts, comments={}, verdicts=verdicts)


def count_pairwise_leaks(corpus, spec):
    # independent quadratic check: any two verdicts sharing the group key
    # must sit in the same partition
    if spec.kind == "situation":
        keys = [v.post_id for v in corpus.verdicts]
    else:
        keys = [v.annotator_id for v in corpus.verdicts]
    parts = [spec.assignment[i] for i in range(len(keys))]
    leaks = 0
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            if keys[i] == keys[j] and parts[i] != parts[j]:
                leaks += 1
    return leaks


def test_criterion_2_split_safety_fuzz():
    start = time.perf_counter()
    n_splits = 0
    for seed in range(500):
        corpus = fuzz_corpus(seed)
        for kind in ("situation", "author"):
            spec = make_split(corpus, kind, seed=seed)
            report = verify_split(spec, corpus)
            assert report.ok, f"{kind} split seed {seed}: {report.messages()}"
            assert count_pairwise_leaks(corpus, spec) == 0, f"{kind} seed {seed} leaked"
            n_splits += 1
    elapsed = time.perf_counter() - start
    assert n_splits == 1000
    assert elapsed < 60.0, f"fuzz took {elapsed:.1f}s"
    print(f"criterion 2 PASS: {n_splits} fuzzed splits, zero leaks, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: numerical kernels match independent oracles on small fixtures

def lloyd_oracle(data, k, seed):
    # plain-python Lloyd sharing only the seeding routine, same tie and
    # empty-cluster policy as the library
    rng = np.random.default_rng(seed)
    centroids = kmeans_plus_plus_init(data, k, rng)
    n = data.shape[0]
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(300):
        sq = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = sq.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        if (counts == 0).any():
            own = sq[np.arange(n), labels].copy()
            for empty in np.flatnonzero(counts == 0):
                far = int(own.argmax())
                centroids[empty] = data[far]
                labels[far] = empty
                own[far] = 0.0
            sq = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            labels = sq.argmin(axis=1)
        new = centroids.copy()
        for j in range(k):
            if (labels == j).any():
                new[j] = data[labels == j].mean(axis=0)
        moved = float(np.linalg.norm(new - centroids, axis=1).max())
        centroids = new
        if moved < 1e-4:
            break
    sq = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = sq.argmin(axis=1)
    return labels, float(sq[np.arange(n), labels].sum())


def silhouette_oracle(data, labels):
    n = data.shape[0]
    dist = np.sqrt(((data[:, None, :] - data[None, :, :]) ** 2).sum(axis=2))
    scores = np.zeros(n)
    for i in range(n):
        same = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not same:
            continue
        a = float(np.mean([dist[i, j] for j in same]))
        b = math.inf
        for other in set(labels) - {labels[i]}:
            members = [j for j in range(n) if labels[j] == other]
            b = min(b, float(np.mean([dist[i, j] for j in members])))
        scores[i] = (b - a) / max(a, b)
    return scores


def test_criterion_3_numerical_oracles():
    # focal gradient vs central differences, 100 random draws
    rng = np.random.default_rng(2024)
    h = 1e-6
    # the logits, then logit i moved by +h and -h for i = 0, 1
    steps = np.array([[0.0, 0.0], [h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    worst = 0.0
    for _ in range(100):
        logits = rng.uniform(-4.0, 4.0, size=2)
        gamma = float(rng.choice([0.0, 0.5, 1.0, 2.0, 3.0]))
        alpha = (float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0)))
        t = int(rng.integers(2))
        losses, grads = focal_loss_batch(logits + steps, np.full(5, t), np.full(5, alpha[t]),
                                         gamma)
        for i in range(2):
            numeric = (losses[1 + 2 * i] - losses[2 + 2 * i]) / (2.0 * h)
            rel = abs(numeric - grads[0, i]) / max(abs(numeric), abs(grads[0, i]), 1e-6)
            worst = max(worst, rel)
    assert worst <= 1e-4, f"worst focal gradient error {worst:.2e}"

    # k-means and silhouette vs quadratic oracles on a 48-point fixture
    rng = np.random.default_rng(7)
    blobs = np.concatenate([
        rng.normal(loc=center, scale=0.3, size=(12, 6))
        for center in (np.zeros(6), np.full(6, 4.0), np.full(6, -4.0),
                       np.array([4.0, -4.0, 4.0, -4.0, 4.0, -4.0]))
    ])
    matrix = EmbeddingMatrix.from_dense([f"r{i:02d}" for i in range(48)], blobs)
    model = kmeans(matrix, k=4, seed=5)
    want_labels, want_inertia = lloyd_oracle(blobs.astype(np.float64), 4, seed=5)
    got_labels = np.array([model.assignment[rid] for rid in matrix.ids])
    assert np.array_equal(got_labels, want_labels)
    # the oracle sums (x - c)^2 directly while the library expands the
    # quadratic; same partition, slightly different rounding
    assert model.inertia == pytest.approx(want_inertia, rel=1e-6)

    # scores live in [-1, 1]; 1e-7 absolute absorbs the same rounding split
    sil = silhouette(matrix, model)
    want_scores = silhouette_oracle(blobs.astype(np.float64), want_labels)
    for i, rid in enumerate(matrix.ids):
        assert abs(sil.per_point[rid] - want_scores[i]) <= 1e-7
    assert abs(sil.mean - float(want_scores.mean())) <= 1e-7

    # three distinct points, each four times: k-means++ draws a point that
    # coincides with a centroid, and Lloyd re-seeds a cluster that empties
    repeated = np.repeat(rng.normal(size=(3, 6)), 4, axis=0)
    repeated_matrix = EmbeddingMatrix.from_dense([f"d{i:02d}" for i in range(12)], repeated)
    for k in (4, 5):
        for seed in (0, 1, 2):
            model_k = kmeans(repeated_matrix, k=k, seed=seed)
            want_k, _ = lloyd_oracle(dense(repeated_matrix).astype(np.float64), k, seed)
            assert [model_k.assignment[rid] for rid in repeated_matrix.ids] == want_k.tolist()

    # exact top-k vs a brute-force ranking on 40 rows
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(40, 8))
    ids = [f"v{i:02d}" for i in range(40)]
    ranked = EmbeddingMatrix.from_dense(ids, rows)
    query = rng.normal(size=8)
    got = top_k_similar(query, ranked, k=7)
    data64 = dense(ranked).astype(np.float64)
    sims = data64 @ query / (np.linalg.norm(data64, axis=1) * np.linalg.norm(query))
    brute = sorted(zip(ids, np.clip(sims, -1.0, 1.0)), key=lambda p: (-p[1], p[0]))[:7]
    assert [rid for rid, _ in got] == [rid for rid, _ in brute]
    for (_, s_got), (_, s_want) in zip(got, brute):
        assert abs(s_got - s_want) <= 1e-12

    # truncated SVD captured variance vs a dense decomposition; the sketch
    # covers the full 10-dim row space here, so agreement is tight
    rng = np.random.default_rng(13)
    wide = rng.normal(size=(30, 10))
    svd_matrix = EmbeddingMatrix.from_dense([f"s{i:02d}" for i in range(30)], wide)
    reduced = truncated_svd(svd_matrix, target_dim=4, seed=3)
    captured = float((dense(reduced).astype(np.float64) ** 2).sum())
    wide64 = dense(svd_matrix).astype(np.float64)
    centered = wide64 - wide64.mean(axis=0)
    singulars = np.linalg.svd(centered, compute_uv=False)
    want_captured = float((singulars[:4] ** 2).sum())
    assert captured == pytest.approx(want_captured, rel=1e-4)

    # macro F1 on a hand-counted confusion fixture
    y_true = ["YTA", "YTA", "YTA", "YTA", "NTA", "NTA", "NTA", "NTA", "NTA", "NTA"]
    y_pred = ["YTA", "YTA", "YTA", "NTA", "YTA", "NTA", "NTA", "NTA", "NTA", "NTA"]
    report = compute_report(y_true, y_pred)
    assert abs(report.accuracy - 0.8) <= 1e-12
    # YTA: p=3/4 r=3/4 f1=3/4; NTA: p=5/6 r=5/6 f1=5/6; macro=(3/4+5/6)/2
    assert abs(report.macro_f1 - (3.0 / 4.0 + 5.0 / 6.0) / 2.0) <= 1e-12
    print(f"criterion 3 PASS: focal FD worst {worst:.2e}, k-means/silhouette/top-k/SVD/F1 match")


# ---------------------------------------------------------------------------
# criteria 4 and 5: end-to-end signal recovery on keyed synthetic populations

EMB_CFG = EmbedderConfig(dim=1024, ngram_range=(1, 2), seed=0)
TRAIN_CFG = TrainConfig(epochs=10, learning_rate=1e-3, batch_size=32, seed=7)


def build_world(spec):
    corpus, _ = generate_population(spec)
    items = [(pid, post.query_text()) for pid, post in sorted(corpus.posts.items())]
    items += [(cid, comment.text) for cid, comment in sorted(corpus.comments.items())]
    matrix = embed_texts(items, EMB_CFG)
    split = make_split(corpus, "situation", (0.8, 0.1, 0.1), seed=101)
    assert verify_split(split, corpus).ok
    profiles = build_profiles(corpus)
    return corpus, matrix, split, profiles


def run_condition(world, sampler_cfg):
    """Train on the train partition, report on test; returns an EvalReport."""
    corpus, matrix, split, profiles = world
    datasets = {}
    for part in ("train", "test"):
        verdicts = [corpus.verdicts[i] for i in split.indices(part)]
        if sampler_cfg is None:
            contexts = Contexts.empty([(v.annotator_id, v.post_id) for v in verdicts])
        else:
            contexts = sample_context([(v.annotator_id, v.post_id) for v in verdicts], corpus,
                                      matrix, profiles, cfg=sampler_cfg)
        datasets[part] = (build_features(contexts, matrix),
                          encode_labels(v.label for v in verdicts))
    params = train(*datasets["train"], TRAIN_CFG).params[0]
    X_test, y_test = datasets["test"]
    return compute_report(y_test, predict(params, X_test))


@pytest.fixture(scope="module")
def signal_worlds():
    """Two seed-fixed demographic-keyed populations and five trained models:
    the dense world for the baseline sanity and retrieval checks, and a
    sparse variant where key disclosures sit in only ~10% of comments."""
    start = time.perf_counter()
    dense = build_world(PopulationSpec(
        n_annotators=200, n_posts=300, judgment_rule="demographic_keyed",
        nta_base_rate=0.7, seed=404))
    similar5 = SamplerConfig(strategy="similar_comments", max_samples=5, seed=11)
    demographics5 = SamplerConfig(
        strategy="similar_comments", max_samples=5, seed=11,
        category_filter=CategoryFilter(theory=HighLevelCategory.DEMOGRAPHICS))
    random5 = SamplerConfig(strategy="random_comments", max_samples=5, seed=11)

    corpus, _, split, _ = dense
    test_labels = [corpus.verdicts[i].label for i in split.indices("test")]
    nta_share = test_labels.count("NTA") / len(test_labels)

    sparse = build_world(PopulationSpec(
        n_annotators=200, n_posts=300, judgment_rule="demographic_keyed",
        nta_base_rate=0.7, seed=405,
        disclosure_mix={"Demographics": 0.1, "Experiences": 0.3,
                        "Attitudes": 0.3, "Relationships": 0.2}))

    worlds = {
        "majority": max(nta_share, 1.0 - nta_share),
        "no_comments": run_condition(dense, None),
        "similar5": run_condition(dense, similar5),
        "similar5_demographics": run_condition(dense, demographics5),
        "sparse_similar5": run_condition(sparse, similar5),
        "sparse_random5": run_condition(sparse, random5),
        "elapsed": time.perf_counter() - start,
    }
    return worlds


def test_criterion_4_signal_recovery(signal_worlds):
    w = signal_worlds
    base_gap = abs(w["no_comments"].accuracy - w["majority"])
    demo_acc = w["similar5_demographics"].accuracy
    sparse_gap = w["sparse_similar5"].accuracy - w["sparse_random5"].accuracy
    assert base_gap <= 0.05, f"baseline {w['no_comments'].accuracy:.4f} vs majority {w['majority']:.4f}"
    assert demo_acc >= 0.90, f"demographics-filtered accuracy {demo_acc:.4f}"
    assert sparse_gap >= 0.10, (
        f"sparse similar {w['sparse_similar5'].accuracy:.4f} vs "
        f"random {w['sparse_random5'].accuracy:.4f}")
    assert w["elapsed"] < 300.0, f"end-to-end fixture took {w['elapsed']:.0f}s"
    print(f"criterion 4 PASS: baseline gap {base_gap:.3f} <= 0.05, "
          f"demographics acc {demo_acc:.3f} >= 0.90, "
          f"sparse margin {sparse_gap:+.3f} >= 0.10, {w['elapsed']:.0f}s")


def test_criterion_5_ordering_significance(signal_worlds):
    w = signal_worlds
    t, p = significance_test(w["similar5"].correctness, w["no_comments"].correctness)
    assert t > 0.0
    assert p < 0.01, f"p = {p:.3g}"
    print(f"criterion 5 PASS: similar-vs-baseline t {t:.2f}, p {p:.3g} < 0.01")


# ---------------------------------------------------------------------------
# criterion 6: determinism of the full pipeline and the embedding container

PIPELINE_INI = """\
[synth]
enabled = true
n_annotators = 8
n_posts = 20
comments_lo = 4
comments_hi = 6
verdicts_lo = 6
verdicts_hi = 8
judgment_rule = demographic_keyed
nta_base_rate = 0.7

[corpus]
min_comments = 1

[embed]
dim = 256

[split]
kind = situation
ratios = 0.7,0.1,0.2

[sampler]
strategies = similar_comments
max_samples = 3
baselines = no_comments

[train]
epochs = 2
runs = 2

[run]
seed = 13
baseline = no_comments
"""


def test_criterion_6_determinism(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(PIPELINE_INI)
    outdir = tmp_path / "out"
    tracked = ("report.tsv", "summary.json", "effective.cfg", "split.jsonl",
               "contexts/no_comments.jsonl", "contexts/similar_comments-k3.jsonl")

    run_pipeline(parse_config(ini, {"run.out": str(outdir)}))
    first = {name: (outdir / name).read_bytes() for name in tracked}
    run_pipeline(parse_config(ini, {"run.out": str(outdir)}))
    second = {name: (outdir / name).read_bytes() for name in tracked}
    assert first == second, "pipeline rerun changed artifact bytes"

    # embedding container round-trips bit-exactly
    rng = np.random.default_rng(21)
    matrix = EmbeddingMatrix.from_dense([f"e{i}" for i in range(17)],
                                        rng.normal(size=(17, 12)).astype(np.float32))
    path = tmp_path / "round.embx"
    export_embeddings(matrix, path)
    loaded = import_embeddings(path)
    assert loaded.ids == matrix.ids
    assert dense(loaded).dtype == dense(matrix).dtype
    assert np.array_equal(dense(loaded), dense(matrix))
    second_path = tmp_path / "round2.embx"
    export_embeddings(loaded, second_path)
    assert second_path.read_bytes() == path.read_bytes()
    print(f"criterion 6 PASS: {len(tracked)} pipeline artifacts byte-stable, "
          f"container round-trip bit-exact")


# ---------------------------------------------------------------------------
# criterion 7: majority-class arithmetic on a 70/30 test set

def test_criterion_7_baseline_arithmetic():
    y_true = ["NTA"] * 70 + ["YTA"] * 30
    y_pred = ["NTA"] * 100
    report = compute_report(y_true, y_pred)
    # NTA f1 = 2*0.7/1.7 = 14/17, YTA f1 = 0, macro = 7/17 = 0.41176...
    assert abs(report.accuracy - 0.700) <= 0.001
    assert abs(report.macro_f1 - 0.412) <= 0.002
    assert abs(report.macro_f1 - 7.0 / 17.0) <= 1e-12
    print(f"criterion 7 PASS: majority accuracy {report.accuracy:.3f}, "
          f"macro F1 {report.macro_f1:.4f}")
