import pytest
from conftest import profile_records

from dlab.corpus import ingest_corpus
from dlab.disclosure import (
    HighLevelCategory,
    build_profiles,
    extract_disclosures,
    matches_phrase_filter,
)
from dlab.synthgen import (
    _DISTRACTORS,
    PopulationSpec,
    SynthesisError,
    generate_population,
    write_population,
)

SMALL = PopulationSpec(
    n_annotators=12,
    n_posts=30,
    comments_per_annotator=(6, 10),
    verdicts_per_annotator=(8, 12),
    judgment_rule="demographic_keyed",
    nta_base_rate=0.7,
    seed=11,
)


def test_generation_deterministic():
    corpus_a, truth_a = generate_population(SMALL)
    corpus_b, truth_b = generate_population(SMALL)
    assert corpus_a.posts == corpus_b.posts
    assert {c: corpus_a.comments[c].text for c in corpus_a.comments} == \
        {c: corpus_b.comments[c].text for c in corpus_b.comments}
    assert corpus_a.verdicts == corpus_b.verdicts
    assert truth_a == truth_b


def test_generation_seed_sensitive():
    corpus_a, _ = generate_population(SMALL)
    other = PopulationSpec(
        n_annotators=12, n_posts=30, comments_per_annotator=(6, 10),
        verdicts_per_annotator=(8, 12), judgment_rule="demographic_keyed",
        nta_base_rate=0.7, seed=12,
    )
    corpus_b, _ = generate_population(other)
    texts_a = sorted(c.text for c in corpus_a.comments.values())
    texts_b = sorted(c.text for c in corpus_b.comments.values())
    assert texts_a != texts_b


def test_every_annotator_covers_every_active_category():
    corpus, _ = generate_population(SMALL)
    profiles = profile_records(build_profiles(corpus))
    active = {HighLevelCategory(name) for name, p in SMALL.disclosure_mix.items() if p > 0}
    assert active  # the default mix activates all four
    for aid, pool in corpus.annotator_index.items():
        covered = set()
        for cid in pool:
            covered |= profiles[cid].theory_categories
        assert active <= covered, f"annotator {aid} missing {active - covered}"


def test_distractors_carry_no_disclosure_signal():
    for text in _DISTRACTORS:
        assert extract_disclosures(text) == []
        assert not matches_phrase_filter(text)


def test_keyed_rule_fidelity():
    corpus, truth = generate_population(SMALL)
    assert {f"{v.post_id}|{v.annotator_id}" for v in corpus.verdicts} == set(truth)
    for v in corpus.verdicts:
        gt = truth[f"{v.post_id}|{v.annotator_id}"]
        assert gt["label"] == v.label
        assert gt["rule"] == "demographic_keyed"
        # bands alternate with annotator index
        idx = int(v.annotator_id[1:])
        assert gt["band"] == ("young" if idx % 2 == 0 else "old")
        # the planted rule, re-derived: YTA exactly on marked post + young band
        want = "YTA" if (gt["post_marked"] and gt["band"] == "young") else "NTA"
        assert v.label == want


def test_attitude_rule_uses_strict_band():
    spec = PopulationSpec(
        n_annotators=8, n_posts=24, comments_per_annotator=(4, 6),
        verdicts_per_annotator=(6, 10), judgment_rule="attitude_keyed",
        nta_base_rate=0.7, seed=3,
    )
    corpus, truth = generate_population(spec)
    assert {gt["band"] for gt in truth.values()} == {"strict", "lenient"}
    for v in corpus.verdicts:
        gt = truth[f"{v.post_id}|{v.annotator_id}"]
        want = "YTA" if (gt["post_marked"] and gt["band"] == "strict") else "NTA"
        assert v.label == want
    yta = [v for v in corpus.verdicts if v.label == "YTA"]
    assert yta, "no YTA verdicts generated at all"


def test_nta_share_concentrates_on_base_rate():
    spec = PopulationSpec(
        n_annotators=60, n_posts=120, comments_per_annotator=(5, 8),
        verdicts_per_annotator=(15, 25), judgment_rule="demographic_keyed",
        nta_base_rate=0.7, seed=42,
    )
    corpus, _ = generate_population(spec)
    share = sum(v.label == "NTA" for v in corpus.verdicts) / len(corpus.verdicts)
    assert share == pytest.approx(0.7, abs=0.02)


def test_random_rule_marks_nothing_and_tracks_base_rate():
    spec = PopulationSpec(
        n_annotators=60, n_posts=120, comments_per_annotator=(5, 8),
        verdicts_per_annotator=(15, 25), judgment_rule="random",
        nta_base_rate=0.6, seed=8,
    )
    corpus, truth = generate_population(spec)
    assert not any(gt["post_marked"] for gt in truth.values())
    assert all(gt["band"] is None for gt in truth.values())
    share = sum(v.label == "NTA" for v in corpus.verdicts) / len(corpus.verdicts)
    assert share == pytest.approx(0.6, abs=0.03)


def test_infeasible_base_rate_rejected_for_keyed_rules():
    with pytest.raises(SynthesisError, match="infeasible"):
        PopulationSpec(judgment_rule="demographic_keyed", nta_base_rate=0.4)
    # the random rule has no marked fraction, so any rate goes
    spec = PopulationSpec(judgment_rule="random", nta_base_rate=0.4)
    assert spec.nta_base_rate == 0.4


def test_spec_validation():
    with pytest.raises(SynthesisError, match="rule"):
        PopulationSpec(judgment_rule="astrology")
    with pytest.raises(SynthesisError, match="annotator"):
        PopulationSpec(n_annotators=0)
    with pytest.raises(SynthesisError):
        PopulationSpec(comments_per_annotator=(5, 2))
    with pytest.raises(SynthesisError):
        PopulationSpec(verdicts_per_annotator=(0, 4))
    with pytest.raises(SynthesisError, match="disclosure_mix"):
        PopulationSpec(disclosure_mix={"Demographics": 1.5})
    with pytest.raises(SynthesisError, match="category"):
        PopulationSpec(disclosure_mix={"Horoscopes": 0.2})
    with pytest.raises(SynthesisError):
        PopulationSpec(nta_base_rate=1.2)


def test_population_roundtrips_through_ingest(tmp_path):
    corpus, truth = generate_population(SMALL)
    paths = write_population(corpus, truth, tmp_path)
    loaded, report = ingest_corpus(paths["posts"], paths["comments"], paths["verdicts"])
    assert report.n_self_verdicts_dropped == 0
    assert report.n_posts == len(corpus.posts)
    assert report.n_comments == len(corpus.comments)
    assert report.n_verdicts == len(corpus.verdicts)
    assert set(loaded.posts) == set(corpus.posts)
    assert {c.text for c in loaded.comments.values()} == \
        {c.text for c in corpus.comments.values()}
    assert sorted((v.post_id, v.annotator_id, v.label) for v in loaded.verdicts) == \
        sorted((v.post_id, v.annotator_id, v.label) for v in corpus.verdicts)
    # ground truth file lines match the in-memory map
    lines = paths["ground_truth"].read_text().splitlines()
    assert len(lines) == len(truth)
