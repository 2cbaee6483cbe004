import json
import random

import pytest

from dlab.corpus import (
    Comment,
    Corpus,
    CorpusError,
    Post,
    Verdict,
    filter_annotators,
    ingest_corpus,
    load_split,
    make_split,
    save_split,
    verify_split,
)

from conftest import make_corpus, write_jsonl


# ---------------------------------------------------------------------------
# ingest

def test_ingest_ok(corpus_files):
    corpus, report = ingest_corpus(*corpus_files)
    assert report.n_posts == 2
    assert report.n_comments == 3
    assert report.n_verdicts == 3
    assert report.n_self_verdicts_dropped == 0
    assert corpus.annotator_index == {"a1": ["c1", "c2"], "a2": ["c3"]}
    assert corpus.verdicts[1].justification == "seems fine"


def test_ingest_missing_file(tmp_path, corpus_files):
    posts, comments, _ = corpus_files
    with pytest.raises(CorpusError, match="not found"):
        ingest_corpus(posts, comments, tmp_path / "nope.jsonl")


def test_ingest_malformed_json_reports_line(tmp_path, corpus_files):
    posts, comments, verdicts = corpus_files
    bad = tmp_path / "bad_posts.jsonl"
    bad.write_text(posts.read_text() + "{oops\n")
    with pytest.raises(CorpusError, match=r"bad_posts\.jsonl line 3"):
        ingest_corpus(bad, comments, verdicts)


def test_ingest_duplicate_post_id(tmp_path, corpus_files):
    posts, comments, verdicts = corpus_files
    dup = tmp_path / "dup.jsonl"
    rec = {"id": "p1", "author_id": "x", "title": "t", "body": "b"}
    dup.write_text(posts.read_text() + json.dumps(rec) + "\n")
    with pytest.raises(CorpusError, match="duplicate post id"):
        ingest_corpus(dup, comments, verdicts)


def test_ingest_comment_id_collides_with_post(tmp_path, corpus_files):
    posts, comments, verdicts = corpus_files
    clash = tmp_path / "clash.jsonl"
    rec = {"id": "p1", "author_id": "a9", "text": "hello"}
    clash.write_text(comments.read_text() + json.dumps(rec) + "\n")
    with pytest.raises(CorpusError, match="collides"):
        ingest_corpus(posts, clash, verdicts)


def test_ingest_unknown_post_reference(tmp_path, corpus_files):
    posts, comments, verdicts = corpus_files
    bad = tmp_path / "v.jsonl"
    rec = {"post_id": "p9", "annotator_id": "a1", "label": "YTA"}
    bad.write_text(verdicts.read_text() + json.dumps(rec) + "\n")
    with pytest.raises(CorpusError, match="unknown post id"):
        ingest_corpus(posts, comments, bad)


def test_ingest_bad_label(tmp_path, corpus_files):
    posts, comments, verdicts = corpus_files
    bad = tmp_path / "v.jsonl"
    rec = {"post_id": "p1", "annotator_id": "a7", "label": "ESH"}
    bad.write_text(verdicts.read_text() + json.dumps(rec) + "\n")
    with pytest.raises(CorpusError, match="unknown verdict label"):
        ingest_corpus(posts, comments, bad)


def test_ingest_duplicate_pair(tmp_path, corpus_files):
    posts, comments, verdicts = corpus_files
    bad = tmp_path / "v.jsonl"
    rec = {"post_id": "p1", "annotator_id": "a1", "label": "NTA"}
    bad.write_text(verdicts.read_text() + json.dumps(rec) + "\n")
    with pytest.raises(CorpusError, match="duplicate verdict"):
        ingest_corpus(posts, comments, bad)


def test_ingest_missing_field_reports_location(tmp_path, corpus_files):
    posts, comments, verdicts = corpus_files
    bad = tmp_path / "p.jsonl"
    bad.write_text(json.dumps({"id": "p1", "author_id": "x", "title": "t"}) + "\n")
    with pytest.raises(CorpusError, match=r"line 1.*'body'"):
        ingest_corpus(bad, comments, verdicts)


def test_self_verdicts_dropped_and_reported(tmp_path, corpus_files):
    posts, comments, verdicts = corpus_files
    lined = tmp_path / "v.jsonl"
    rec = {"post_id": "p1", "annotator_id": "op1", "label": "YTA"}
    lined.write_text(verdicts.read_text() + json.dumps(rec) + "\n")
    corpus, report = ingest_corpus(posts, comments, lined)
    assert report.n_self_verdicts_dropped == 1
    assert report.self_verdicts_dropped == [(4, "p1", "op1")]
    assert all(v.annotator_id != "op1" for v in corpus.verdicts)


def test_post_query_text(corpus_files):
    corpus, _ = ingest_corpus(*corpus_files)
    assert corpus.posts["p1"].query_text() == "t one\n\nb one"


def test_check_invariants_catches_corruption():
    corpus = make_corpus()
    corpus.verdicts.append(Verdict("p0", "a1", "YTA"))  # duplicate pair
    with pytest.raises(CorpusError):
        corpus.check_invariants()


# ---------------------------------------------------------------------------
# annotator filtering

def _counted_corpus(counts):
    posts = {"p0": Post(id="p0", author_id="op", title="t", body="b")}
    comments = {}
    verdicts = []
    i = 0
    for aid, n in counts.items():
        for _ in range(n):
            comments[f"c{i}"] = Comment(id=f"c{i}", author_id=aid, text="x")
            i += 1
        verdicts.append(Verdict("p0", aid, "NTA"))
    return Corpus(posts=posts, comments=comments, verdicts=verdicts)


def test_filter_annotators_bounds_inclusive():
    corpus = _counted_corpus({"low": 19, "edge": 20, "mid": 100, "top": 500, "over": 501})
    kept, report = filter_annotators(corpus, 20, 500)
    kept_ids = {v.annotator_id for v in kept.verdicts}
    assert kept_ids == {"edge", "mid", "top"}
    assert report.n_annotators_before == 5
    assert report.n_annotators_kept == 3
    assert report.n_verdicts_kept == 3
    # posts and comments are untouched
    assert set(kept.comments) == set(corpus.comments)


def test_filter_annotators_widening_is_monotone():
    corpus = _counted_corpus({f"a{i}": i for i in range(1, 40)})
    narrow, _ = filter_annotators(corpus, 10, 20)
    wide, _ = filter_annotators(corpus, 5, 30)
    narrow_ids = {v.annotator_id for v in narrow.verdicts}
    wide_ids = {v.annotator_id for v in wide.verdicts}
    assert narrow_ids <= wide_ids


def test_filter_annotators_bad_bounds():
    corpus = _counted_corpus({"a": 3})
    with pytest.raises(ValueError):
        filter_annotators(corpus, 10, 5)


# ---------------------------------------------------------------------------
# splits

def _largest_remainder_oracle(n, ratios):
    quotas = [n * r for r in ratios]
    sizes = [int(q) for q in quotas]
    rem = n - sum(sizes)
    order = sorted(range(3), key=lambda i: (-(quotas[i] - sizes[i]), i))
    for i in order[:rem]:
        sizes[i] += 1
    return sizes


def _random_corpus(rng, n_posts, n_annotators, n_verdicts):
    posts = {
        f"p{i}": Post(id=f"p{i}", author_id=f"op{i}", title="t", body="b")
        for i in range(n_posts)
    }
    annotators = [f"a{i}" for i in range(n_annotators)]
    comments = {
        f"c{i}": Comment(id=f"c{i}", author_id=annotators[i % n_annotators], text="x")
        for i in range(n_annotators)
    }
    pairs = [(p, a) for p in posts for a in annotators]
    rng.shuffle(pairs)
    verdicts = [
        Verdict(p, a, rng.choice(("YTA", "NTA")))
        for p, a in pairs[:n_verdicts]
    ]
    return Corpus(posts=posts, comments=comments, verdicts=verdicts)


def test_verdict_split_sizes_match_largest_remainder():
    rng = random.Random(0)
    for n in (3, 7, 10, 23, 57):
        corpus = _random_corpus(rng, n_posts=max(3, n // 2), n_annotators=4,
                                n_verdicts=n)
        for ratios in ((0.8, 0.1, 0.1), (0.6, 0.2, 0.2), (0.5, 0.3, 0.2)):
            spec = make_split(corpus, "verdict", ratios, seed=1)
            sizes = spec.sizes()
            expected = _largest_remainder_oracle(n, ratios)
            assert [sizes["train"], sizes["val"], sizes["test"]] == expected


def test_verdict_split_covers_everything_once():
    corpus = _random_corpus(random.Random(1), 10, 5, 40)
    spec = make_split(corpus, "verdict", seed=3)
    all_indices = sorted(
        i for part in ("train", "val", "test") for i in spec.indices(part))
    assert all_indices == list(range(40))


def _brute_force_disjoint(spec, corpus, keyfn):
    groups = {}
    for idx, part in spec.assignment.items():
        key = keyfn(corpus.verdicts[idx])
        groups.setdefault(key, set()).add(part)
    return all(len(parts) == 1 for parts in groups.values())


@pytest.mark.parametrize("kind,keyfn", [
    ("situation", lambda v: v.post_id),
    ("author", lambda v: v.annotator_id),
])
def test_group_splits_are_disjoint(kind, keyfn):
    rng = random.Random(7)
    for trial in range(25):
        corpus = _random_corpus(
            rng,
            n_posts=rng.randint(4, 12),
            n_annotators=rng.randint(4, 10),
            n_verdicts=rng.randint(12, 60),
        )
        spec = make_split(corpus, kind, seed=trial)
        assert _brute_force_disjoint(spec, corpus, keyfn)
        report = verify_split(spec, corpus)
        assert report.ok, report.messages()


def test_group_split_needs_three_groups():
    corpus = _random_corpus(random.Random(2), n_posts=2, n_annotators=5,
                            n_verdicts=8)
    with pytest.raises(CorpusError, match="group"):
        make_split(corpus, "situation")


def test_verify_split_names_the_leaky_group():
    corpus = _random_corpus(random.Random(3), 6, 4, 20)
    spec = make_split(corpus, "situation", seed=0)
    # corrupt: move one verdict to a different partition than its post-mates
    by_post = {}
    for idx in range(len(corpus.verdicts)):
        by_post.setdefault(corpus.verdicts[idx].post_id, []).append(idx)
    victim_post = next(p for p, idxs in by_post.items() if len(idxs) >= 2)
    idx = by_post[victim_post][0]
    spec.assignment[idx] = ("train" if spec.assignment[idx] != "train" else "test")
    report = verify_split(spec, corpus)
    if not _brute_force_disjoint(spec, corpus, lambda v: v.post_id):
        assert not report.ok
        assert any(victim_post in msg for msg in report.messages())


def test_verify_split_catches_missing_coverage():
    corpus = _random_corpus(random.Random(4), 6, 4, 20)
    spec = make_split(corpus, "verdict", seed=0)
    del spec.assignment[0]
    report = verify_split(spec, corpus)
    assert not report.ok


def test_verify_split_reports_an_unknown_kind():
    corpus = _random_corpus(random.Random(4), 6, 4, 20)
    spec = make_split(corpus, "verdict", seed=0)
    spec.kind = "bogus"
    assert verify_split(spec, corpus).messages() == ["kind: bogus: unknown split kind"]


def test_split_determinism_and_seed_sensitivity():
    corpus = _random_corpus(random.Random(5), 12, 6, 60)
    a = make_split(corpus, "situation", seed=11)
    b = make_split(corpus, "situation", seed=11)
    c = make_split(corpus, "situation", seed=12)
    assert a.assignment == b.assignment
    assert a.assignment != c.assignment


def test_split_unknown_kind_and_bad_ratios():
    corpus = _random_corpus(random.Random(6), 5, 4, 15)
    with pytest.raises(ValueError):
        make_split(corpus, "bogus")
    with pytest.raises(ValueError):
        make_split(corpus, "verdict", ratios=(0.5, 0.3, 0.3))
    with pytest.raises(ValueError):
        make_split(corpus, "verdict", ratios=(1.0, 0.0, 0.0))


def test_split_roundtrip(tmp_path):
    corpus = _random_corpus(random.Random(8), 8, 5, 30)
    spec = make_split(corpus, "author", seed=4)
    path = tmp_path / "split.jsonl"
    save_split(spec, path)
    loaded = load_split(path)
    assert loaded.kind == spec.kind
    assert loaded.seed == spec.seed
    assert tuple(loaded.ratios) == tuple(spec.ratios)
    assert loaded.assignment == spec.assignment
