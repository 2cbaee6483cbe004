import json

import pytest

from dlab.corpus import (Comment, Corpus, CorpusError, Post, Verdict, load_split, make_split,
                         save_split)
from dlab.disclosure import HighLevelCategory, attach_clusters, build_profiles
from dlab.embed import EmbedderConfig, cosine_similarity, embed_text
from dlab.pipeline import embed_corpus, embed_sentences
from dlab.sampler import (
    BoxStats,
    CategoryFilter,
    ContextItem,
    ContextSet,
    SamplerConfig,
    STRATEGIES,
    box_stats,
    category_coverage,
    dump_contexts,
    full_pool_context,
    load_contexts,
    sample_context,
    similar_post_diversity,
)

ECFG = EmbedderConfig(dim=128, ngram_range=(1, 2), seed=0)


def vec(text):
    return embed_text(text, ECFG)


def sample(annotator_id, post_id, corpus, embeddings, profiles, cfg, sentences=None):
    """The context of one pair, through the batch sampler."""
    [ctx] = sample_context([(annotator_id, post_id)], corpus, embeddings, profiles, cfg=cfg,
                           sentences=sentences)
    return ctx


def matrices(corpus):
    """The post/comment matrix and the sentence matrix the pipeline builds."""
    return embed_corpus(corpus, ECFG), embed_sentences(corpus, ECFG)


def build_corpus(comment_specs, post_specs=None):
    """comment_specs: list of (cid, annotator, text)."""
    post_specs = post_specs or [("p0", "cats and kittens", "my cat knocked over the plant")]
    posts = {pid: Post(id=pid, author_id=f"op_{pid}", title=title, body=body)
             for pid, title, body in post_specs}
    comments = {cid: Comment(id=cid, author_id=aid, text=text)
                for cid, aid, text in comment_specs}
    verdicts = [Verdict(pid, aid, "NTA")
                for pid in posts for aid in sorted({a for _, a, _ in comment_specs})]
    corpus = Corpus(posts=posts, comments=comments, verdicts=verdicts)
    corpus.check_invariants()
    return corpus


@pytest.fixture
def ranked_corpus():
    return build_corpus([
        ("ca1", "judge", "I love my cat and kittens."),
        ("ca2", "judge", "the plant was knocked over."),
        ("ca3", "judge", "tax season is stressful."),
        ("ca4", "judge", "my cat sat on the plant."),
        ("cb1", "rival", "cats and kittens my cat knocked over the plant"),
    ])


# ---------------------------------------------------------------------------
# similarity strategies

def test_similar_comments_matches_brute_ranking(ranked_corpus):
    cfg = SamplerConfig(strategy="similar_comments", max_samples=3, seed=1)
    matrix, _ = matrices(ranked_corpus)
    ctx = sample("judge", "p0", ranked_corpus, matrix, None, cfg)
    query = vec(ranked_corpus.posts["p0"].query_text())
    want = sorted(
        ((cid, cosine_similarity(query, vec(ranked_corpus.comments[cid].text)))
         for cid in ["ca1", "ca2", "ca3", "ca4"]),
        key=lambda pair: (-pair[1], pair[0]),
    )[:3]
    assert [(i.source_comment_id, i.similarity) for i in ctx.items] == want
    assert all(i.unit == "comment" for i in ctx.items)
    assert ctx.items[0].text == ranked_corpus.comments[ctx.items[0].source_comment_id].text


def test_similarity_needs_some_embedding_route(ranked_corpus):
    cfg = SamplerConfig(strategy="similar_comments", max_samples=2, seed=1)
    with pytest.raises(ValueError, match="embed"):
        sample("judge", "p0", ranked_corpus, None, None, cfg)


def test_similar_sentences_ranks_sentence_units():
    corpus = build_corpus([
        ("cx", "judge", "My cat knocked the plant again. Taxes are due in spring."),
        ("cy", "judge", "I bought new shoes."),
    ])
    cfg = SamplerConfig(strategy="similar_sentences", max_samples=2, seed=1)
    matrix, sentences = matrices(corpus)
    ctx = sample("judge", "p0", corpus, matrix, None, cfg, sentences)
    assert len(ctx) == 2
    top = ctx.items[0]
    assert (top.source_comment_id, top.sentence_index) == ("cx", 0)
    spans = corpus.comments["cx"].sentence_spans()
    a, b = spans[0]
    assert top.text == corpus.comments["cx"].text[a:b]
    # scores descend and every unit is a sentence
    assert ctx.items[0].similarity >= ctx.items[1].similarity
    assert all(i.unit == "sentence" for i in ctx.items)
    with pytest.raises(ValueError, match="sentence matrix"):
        sample("judge", "p0", corpus, matrix, None, cfg)
    # the two sentences embed alike; the tie breaks by comment id, then text
    tied = build_corpus([("cz", "judge", "cats rule. Cats rule!")])
    tied_matrix, tied_sentences = matrices(tied)
    ctx = sample("judge", "p0", tied, tied_matrix, None, cfg, tied_sentences)
    assert [(i.text, i.sentence_index) for i in ctx.items] == \
        [("Cats rule!", 1), ("cats rule.", 0)]
    assert ctx.items[0].similarity == ctx.items[1].similarity


# ---------------------------------------------------------------------------
# random strategies

def test_random_comments_without_replacement(ranked_corpus):
    cfg = SamplerConfig(strategy="random_comments", max_samples=3, seed=9)
    ctx = sample("judge", "p0", ranked_corpus, None, None, cfg)
    ids = [i.source_comment_id for i in ctx.items]
    assert len(ids) == 3 and len(set(ids)) == 3
    assert set(ids) <= {"ca1", "ca2", "ca3", "ca4"}
    assert all(i.similarity is None and i.unit == "comment" for i in ctx.items)
    # more samples than pool: the whole pool comes back
    big = SamplerConfig(strategy="random_comments", max_samples=50, seed=9)
    assert len(sample("judge", "p0", ranked_corpus, None, None, big)) == 4


def test_random_sentences_draw_distinct_units():
    corpus = build_corpus([
        ("cx", "judge", "One here. Two here. Three here."),
        ("cy", "judge", "Four here. Five here."),
    ])
    cfg = SamplerConfig(strategy="random_sentences", max_samples=4, seed=3)
    ctx = sample("judge", "p0", corpus, None, None, cfg)
    units = [(i.source_comment_id, i.sentence_index) for i in ctx.items]
    assert len(units) == 4 and len(set(units)) == 4
    for item in ctx.items:
        spans = corpus.comments[item.source_comment_id].sentence_spans()
        a, b = spans[item.sentence_index]
        assert item.text == corpus.comments[item.source_comment_id].text[a:b]


def test_random_sampling_is_per_pair_deterministic(ranked_corpus):
    cfg = SamplerConfig(strategy="random_comments", max_samples=2, seed=4)
    a = sample("judge", "p0", ranked_corpus, None, None, cfg)
    b = sample("judge", "p0", ranked_corpus, None, None, cfg)
    assert a.items == b.items
    other_seed = SamplerConfig(strategy="random_comments", max_samples=2, seed=5)
    c = sample("judge", "p0", ranked_corpus, None, None, other_seed)
    assert a.items != c.items  # derived rng depends on the seed


def test_random_sampling_varies_across_posts():
    corpus = build_corpus(
        [(f"c{i}", "judge", f"filler text number {i}.") for i in range(12)],
        post_specs=[(f"p{i}", f"title {i}", f"body {i}") for i in range(6)],
    )
    cfg = SamplerConfig(strategy="random_comments", max_samples=3, seed=0)
    draws = {
        tuple(i.source_comment_id
              for i in sample("judge", pid, corpus, None, None, cfg).items)
        for pid in corpus.posts
    }
    assert len(draws) > 1  # the pair, not just the seed, feeds the rng


# ---------------------------------------------------------------------------
# leakage and pool discipline

@pytest.mark.parametrize("strategy", STRATEGIES)
def test_samples_come_only_from_annotator_pool(ranked_corpus, strategy):
    # rival's cb1 is a verbatim copy of the post and would win any
    # similarity ranking if it could leak into judge's pool
    cfg = SamplerConfig(strategy=strategy, max_samples=10, seed=2)
    matrix, sentences = matrices(ranked_corpus)
    ctx = sample("judge", "p0", ranked_corpus, matrix, None, cfg, sentences)
    assert len(ctx) > 0
    pool = set(ranked_corpus.annotator_index["judge"])
    assert {i.source_comment_id for i in ctx.items} <= pool
    assert "cb1" not in {i.source_comment_id for i in ctx.items}


def test_empty_pool_yields_empty_context():
    corpus = build_corpus([("c0", "someone", "hello there world.")])
    corpus.annotator_index["silent"] = []
    matrix, sentences = matrices(corpus)
    for strategy in STRATEGIES:
        cfg = SamplerConfig(strategy=strategy, max_samples=3, seed=0)
        ctx = sample("silent", "p0", corpus, matrix, None, cfg, sentences)
        assert ctx.items == []


def test_unknown_ids_rejected(ranked_corpus):
    cfg = SamplerConfig(strategy="random_comments", max_samples=1, seed=0)
    with pytest.raises(ValueError, match="annotator"):
        sample("nobody", "p0", ranked_corpus, None, None, cfg)
    with pytest.raises(ValueError, match="post"):
        sample("judge", "p77", ranked_corpus, None, None, cfg)


# ---------------------------------------------------------------------------
# category filters

@pytest.fixture
def categorized_corpus():
    return build_corpus([
        ("c_demo", "judge", "I'm 22 yrs old and moving."),
        ("c_work", "judge", "I work as a nurse."),
        ("c_plain", "judge", "the bus was late again."),
    ])


def test_theory_filter_restricts_pool(categorized_corpus):
    profiles = build_profiles(categorized_corpus)
    cfg = SamplerConfig(
        strategy="similar_comments", max_samples=5, seed=0,
        category_filter=CategoryFilter(theory=HighLevelCategory.DEMOGRAPHICS),
    )
    matrix, _ = matrices(categorized_corpus)
    ctx = sample("judge", "p0", categorized_corpus, matrix, profiles, cfg)
    assert [i.source_comment_id for i in ctx.items] == ["c_demo"]
    cfg_exp = SamplerConfig(
        strategy="similar_comments", max_samples=5, seed=0,
        category_filter=CategoryFilter(theory=HighLevelCategory.EXPERIENCES),
    )
    ctx = sample("judge", "p0", categorized_corpus, matrix, profiles, cfg_exp)
    assert [i.source_comment_id for i in ctx.items] == ["c_work"]


def test_cluster_filter_restricts_pool():
    # cluster ids only attach to phrase-filter-passing comments
    corpus = build_corpus([
        ("c_f1", "judge", "I am a nurse at night."),
        ("c_f2", "judge", "I like trains a lot."),
        ("c_f3", "judge", "the bus was late again."),
    ])
    profiles = attach_clusters(build_profiles(corpus), {"c_f1": 0, "c_f2": 1})
    cfg = SamplerConfig(
        strategy="similar_comments", max_samples=5, seed=0,
        category_filter=CategoryFilter(cluster=1),
    )
    ctx = sample("judge", "p0", corpus, matrices(corpus)[0], profiles, cfg)
    assert [i.source_comment_id for i in ctx.items] == ["c_f2"]


def test_category_filter_requires_profiles(categorized_corpus):
    cfg = SamplerConfig(
        strategy="similar_comments", max_samples=5, seed=0,
        category_filter=CategoryFilter(theory=HighLevelCategory.ATTITUDES),
    )
    with pytest.raises(ValueError, match="profiles"):
        sample("judge", "p0", categorized_corpus, matrices(categorized_corpus)[0],
                       None, cfg)


def test_category_filter_validation():
    with pytest.raises(ValueError):
        CategoryFilter()
    with pytest.raises(ValueError):
        CategoryFilter(theory=HighLevelCategory.ATTITUDES, cluster=2)
    assert CategoryFilter(cluster=3).label() == "cluster:3"
    assert CategoryFilter(theory=HighLevelCategory.DEMOGRAPHICS).label() == \
        "theory:Demographics"


def test_replication_mode_guards_filter_pairing():
    filt = CategoryFilter(cluster=0)
    with pytest.raises(ValueError, match="similar_comments"):
        SamplerConfig(strategy="random_comments", max_samples=3, category_filter=filt)
    with pytest.raises(ValueError, match="max_samples"):
        SamplerConfig(strategy="similar_comments", max_samples=6, category_filter=filt)
    # conforming combinations raise nothing
    cfg = SamplerConfig(strategy="similar_comments", max_samples=5, category_filter=filt)
    assert cfg.category_filter is filt


def test_sampler_config_validation():
    with pytest.raises(ValueError, match="strategy"):
        SamplerConfig(strategy="psychic", max_samples=3)
    with pytest.raises(ValueError, match="max_samples"):
        SamplerConfig(strategy="random_comments", max_samples=0)


# ---------------------------------------------------------------------------
# whole-pool contexts

def test_full_pool_context_in_id_order(ranked_corpus):
    pairs = [("judge", "p0"), ("rival", "p0"), ("judge", "p0")]
    contexts = full_pool_context(pairs, ranked_corpus)
    assert [(c.annotator_id, c.post_id) for c in contexts] == pairs
    assert [[i.source_comment_id for i in c.items] for c in contexts] == [
        ["ca1", "ca2", "ca3", "ca4"], ["cb1"], ["ca1", "ca2", "ca3", "ca4"]]
    assert all(i.similarity is None and i.unit == "comment" for c in contexts for i in c.items)
    with pytest.raises(ValueError, match="unknown annotator"):
        full_pool_context([("judge", "p0"), ("nobody", "p0")], ranked_corpus)


# ---------------------------------------------------------------------------
# diagnostics

def test_category_coverage_hand_counts(categorized_corpus):
    profiles = attach_clusters(build_profiles(categorized_corpus), {"c_demo": 2})
    items = [
        ContextItem("c_demo", "", None, "comment"),
        ContextItem("c_work", "", None, "comment"),
        ContextItem("c_plain", "", None, "comment"),
        ContextItem("c_demo", "", None, "comment"),
    ]
    table = category_coverage([ContextSet("judge", "p0", items)], profiles)
    assert table.n_items == 4
    assert table.theory_pct["Demographics"] == pytest.approx(50.0)
    assert table.theory_pct["Experiences"] == pytest.approx(25.0)
    assert table.theory_pct["none"] == pytest.approx(25.0)
    assert table.cluster_pct["2"] == pytest.approx(50.0)
    assert table.cluster_pct["none"] == pytest.approx(50.0)


def test_category_coverage_multi_membership_exceeds_100():
    corpus = build_corpus([
        ("c_multi", "judge", "I'm 22 yrs old. I think people deserve a second chance."),
    ])
    profiles = build_profiles(corpus)
    items = [ContextItem("c_multi", "", None, "comment")]
    table = category_coverage([ContextSet("judge", "p0", items)], profiles)
    assert table.theory_pct["Demographics"] == pytest.approx(100.0)
    assert table.theory_pct["Attitudes"] == pytest.approx(100.0)
    assert sum(table.theory_pct.values()) > 100.0


def test_category_coverage_empty():
    table = category_coverage([], {})
    assert table.n_items == 0 and table.theory_pct == {} and table.cluster_pct == {}


def test_box_stats_fixture():
    stats = box_stats([1, 2, 3, 4, 5, 100])
    assert stats == BoxStats(lower_whisker=1.0, q1=2.25, median=3.5,
                             q3=4.75, upper_whisker=5.0)
    single = box_stats([7.0])
    assert single == BoxStats(7.0, 7.0, 7.0, 7.0, 7.0)
    with pytest.raises(ValueError):
        box_stats([])


def test_diversity_coverage_and_rank_ratio():
    corpus = build_corpus([
        ("d1", "a1", "alpha text one."),
        ("d2", "a1", "alpha text two."),
        ("d3", "a1", "alpha text three."),
        ("d4", "a1", "alpha text four."),
        ("e1", "a2", "beta text one."),
    ])
    mk = lambda cid: ContextItem(cid, "", None, "comment")
    contexts = [
        ContextSet("a1", "p0", [mk("d1"), mk("d2")]),
        ContextSet("a1", "p0", [mk("d1"), mk("d2")]),
        ContextSet("a1", "p0", [mk("d1"), mk("d2")]),
        ContextSet("a1", "p0", [mk("d1"), mk("d2")]),
        ContextSet("a1", "p0", [mk("d1"), mk("d2")]),
        ContextSet("a1", "p0", [mk("d1")]),
        ContextSet("a2", "p0", [mk("e1")]),
    ]
    report = similar_post_diversity(contexts, corpus)
    # a1 touched 2 of 4 comments, a2 1 of 1
    assert sorted(report.coverage_values) == [50.0, 100.0]
    # a1: d1 six times over d2 five times; a2 has one distinct comment, skipped
    assert report.rank_ratio_values == [pytest.approx(1.2)]
    assert report.rank_ratio.median == pytest.approx(1.2)


def test_diversity_empty_pool_warns():
    corpus = build_corpus([("d1", "a1", "alpha text one.")])
    corpus.annotator_index["ghost"] = []
    contexts = [
        ContextSet("a1", "p0", [ContextItem("d1", "", None, "comment")]),
        ContextSet("ghost", "p0", []),
    ]
    with pytest.warns(UserWarning, match="empty pool"):
        report = similar_post_diversity(contexts, corpus)
    assert report.coverage_values == [100.0]


# ---------------------------------------------------------------------------
# serialization

def test_contexts_roundtrip_through_jsonl(tmp_path, ranked_corpus):
    corpus = build_corpus([
        ("cx", "judge", "My cat knocked the plant again. Taxes are due in spring."),
        ("cy", "judge", "I bought new shoes."),
    ])
    matrix, sentences = matrices(corpus)
    contexts = [
        sample("judge", "p0", corpus, matrix, None,
                       SamplerConfig(strategy="similar_sentences", max_samples=2, seed=1),
                       sentences),
        sample("judge", "p0", corpus, None, None,
                       SamplerConfig(strategy="random_comments", max_samples=2, seed=1)),
        ContextSet("judge", "p0", []),
    ]
    path = tmp_path / "contexts.jsonl"
    dump_contexts(contexts, path)
    back = load_contexts(path, corpus)
    assert back == contexts


def context_line(**item):
    """A dumped context record of judge/p0 holding one item."""
    return json.dumps({"annotator_id": "judge", "post_id": "p0",
                       "items": [dict(item, similarity=None)]})


@pytest.mark.parametrize("line,message", [
    (context_line(comment_id="nope", unit="comment", sentence_index=None),
     "line 2: unknown comment 'nope'"),
    (context_line(comment_id="cx", unit="sentence", sentence_index=2),
     "line 2: comment 'cx' has no sentence 2"),
    (context_line(comment_id="cx", unit="sentence", sentence_index=-1),
     "line 2: comment 'cx' has no sentence -1"),
    (context_line(comment_id="cx", unit="paragraph", sentence_index=None),
     "line 2: unknown unit 'paragraph'"),
    ("[]", "line 2: record is not an object"),
    ('{"annotator_id": "judge", "post_id": "p0"}', "line 2: .*KeyError: 'items'"),
    (context_line(unit="comment", sentence_index=None), "line 2: .*KeyError: 'comment_id'"),
    ('{"annotator_id": "judge", ', "line 2: malformed JSON"),
], ids=["unknown-comment", "sentence-past-end", "negative-sentence", "unknown-unit",
        "non-object", "missing-items", "missing-comment-id", "bad-json"])
def test_load_contexts_rejects_unknown_items(tmp_path, line, message):
    corpus = build_corpus([
        ("cx", "judge", "My cat knocked the plant again. Taxes are due in spring."),
    ])
    path = tmp_path / "contexts.jsonl"
    dump_contexts([ContextSet("judge", "p0", [])], path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    with pytest.raises(CorpusError, match=message):
        load_contexts(path, corpus)


def test_non_ascii_ids_round_trip(tmp_path):
    corpus = build_corpus([
        ("c_é", "a_ü", "My cat knocked the plant again. Taxes are due in spring."),
    ])
    contexts = [ContextSet("a_ü", "p0", [
        ContextItem("c_é", "", 0.5, "comment"),
        ContextItem("c_é", "", 0.25, "sentence", sentence_index=1),
    ])]
    path = tmp_path / "contexts.jsonl"
    dump_contexts(contexts, path)
    assert "c_é".encode("utf-8") in path.read_bytes()
    [ctx] = load_contexts(path, corpus)
    assert (ctx.annotator_id, ctx.post_id) == ("a_ü", "p0")
    assert [(i.source_comment_id, i.text, i.similarity, i.unit) for i in ctx.items] == [
        ("c_é", corpus.comments["c_é"].text, 0.5, "comment"),
        ("c_é", "Taxes are due in spring.", 0.25, "sentence"),
    ]

    spec = make_split(corpus, "verdict", seed=0)
    save_split(spec, tmp_path / "split.jsonl")
    assert load_split(tmp_path / "split.jsonl") == spec
