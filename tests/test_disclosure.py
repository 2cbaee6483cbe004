import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlab.disclosure
from dlab.corpus import Comment, Corpus, Post, Verdict
from dlab.disclosure import (
    PHRASES,
    AuditRecord,
    CategoryProfile,
    HighLevelCategory,
    LowLevelCategory,
    PatternError,
    PatternSet,
    attach_clusters,
    audit_sample,
    build_profiles,
    default_patterns,
    extract_disclosures,
    iter_phrase_matches,
    matches_phrase_filter,
    ngram_stats,
    segment_sentences,
)
from dlab.synthgen import PopulationSpec, generate_population


# ---------------------------------------------------------------------------
# sentence segmentation

def spans_to_texts(text):
    return [text[a:b] for a, b in segment_sentences(text)]


def test_segment_basic():
    assert spans_to_texts("Hi there! Bye.") == ["Hi there!", "Bye."]


def test_segment_empty_and_whitespace():
    assert segment_sentences("") == []
    assert segment_sentences("   \n\t ") == []


def test_segment_no_terminator_is_one_span():
    assert segment_sentences("no punctuation here") == [(0, 19)]


def test_segment_decimal_number_not_split():
    assert spans_to_texts("Pi is 3.14 roughly. Yes.") == ["Pi is 3.14 roughly.", "Yes."]


def test_segment_newlines_split_without_joining_terminator():
    assert spans_to_texts("first line\nsecond line") == ["first line", "second line"]
    assert spans_to_texts("a.\r\nb") == ["a.", "b"]


def test_segment_punctuation_runs_stay_inside():
    assert spans_to_texts("What?! Really...") == ["What?!", "Really..."]


def test_segment_trims_whitespace():
    text = "  spaced out .  \n  next  "
    texts = spans_to_texts(text)
    assert texts == ["spaced out .", "next"]


@settings(max_examples=200)
@given(st.text(alphabet="ab .!?\n\r\t", max_size=60))
def test_segment_properties(text):
    spans = segment_sentences(text)
    prev_end = -1
    covered = set()
    for a, b in spans:
        assert 0 <= a < b <= len(text)
        assert a > prev_end or prev_end == -1
        assert a >= prev_end
        prev_end = b
        assert not text[a].isspace() and not text[b - 1].isspace()
        covered.update(range(a, b))
    non_ws = {i for i, ch in enumerate(text) if not ch.isspace()}
    assert non_ws <= covered
    assert all(i in non_ws or text[i] in " \t" or i in covered for i in covered)


# ---------------------------------------------------------------------------
# the taxonomy golden suite

GOLDEN = [
    ("I'm 22 yrs old and my mom is telling everyone that she isn't spending "
     "alot of money on Christmas this year.", LowLevelCategory.AGE),
    ("I'm an 100% cis woman totally comfortable in my gender identity",
     LowLevelCategory.GENDER),
    ("I'm an omnivore but I make food for myself that happens to be vegan",
     LowLevelCategory.IDENTITY),
    ("I'm happily married and attractive thanks", LowLevelCategory.IDENTITY),
    ("I like to play video\\board games and have no friends and am super awkward",
     LowLevelCategory.HOBBY),
    ("I have five cats and they love to watch the cat and nature shows on youtube",
     LowLevelCategory.POSSESSION),
    ("I work as a civil engineer and the salary is decent but definitely not "
     "enough to be shelling out $60K for a master's program",
     LowLevelCategory.WORK),
    ("I think it’s ridiculous that people aren’t allowed to use "
     "computers in tests in this day and age", LowLevelCategory.ATTITUDE),
    ("I consider American policing one of the most authoritarian parts of my "
     "government", LowLevelCategory.ATTITUDE),
    ("I got the feeling that my sister & friends think everything I have was "
     "handed to me or came easily.", LowLevelCategory.RELATIONSHIP),
    ("I have a friend I have known for a couple of years now, she lives in "
     "another country but we have seen each others a couple of times and we "
     "talk daily and I would say she is a very good friend of mine.",
     LowLevelCategory.RELATIONSHIP),
]


@pytest.mark.parametrize("text,category", GOLDEN,
                         ids=[c.value + str(i) for i, (_, c) in enumerate(GOLDEN)])
def test_golden_examples(text, category):
    found = {span.category for span in extract_disclosures(text)}
    assert category in found, f"expected {category.value} in {sorted(c.value for c in found)}"


def test_age_gender_shorthand_is_gender_only():
    spans = extract_disclosures("24F here.")
    assert {s.category for s in spans} == {LowLevelCategory.GENDER}
    spans = extract_disclosures("M24 checking in.")
    assert {s.category for s in spans} == {LowLevelCategory.GENDER}


def test_plain_age_still_extracts():
    found = {s.category for s in extract_disclosures("I'm 22 and live at home.")}
    assert LowLevelCategory.AGE in found
    assert LowLevelCategory.GENDER not in found


def test_high_level_rollup():
    assert LowLevelCategory.AGE.high_level is HighLevelCategory.DEMOGRAPHICS
    assert LowLevelCategory.GENDER.high_level is HighLevelCategory.DEMOGRAPHICS
    assert LowLevelCategory.IDENTITY.high_level is HighLevelCategory.DEMOGRAPHICS
    assert LowLevelCategory.HOBBY.high_level is HighLevelCategory.EXPERIENCES
    assert LowLevelCategory.POSSESSION.high_level is HighLevelCategory.EXPERIENCES
    assert LowLevelCategory.WORK.high_level is HighLevelCategory.EXPERIENCES
    assert LowLevelCategory.ATTITUDE.high_level is HighLevelCategory.ATTITUDES
    assert LowLevelCategory.RELATIONSHIP.high_level is HighLevelCategory.RELATIONSHIPS


# ---------------------------------------------------------------------------
# extraction orchestration vs a naive re-application oracle

def naive_extract(text, pats):
    """Re-apply each compiled pattern per sentence, independently."""
    out = set()
    for idx, (a, b) in enumerate(segment_sentences(text)):
        sentence = text[a:b]
        for cat in LowLevelCategory:
            for m in pats.compiled[cat].finditer(sentence):
                if m.start() == m.end():
                    continue
                out.add((idx, cat, a + m.start(), a + m.end()))
    return out


def test_extraction_matches_naive_oracle():
    pats = default_patterns()
    texts = [
        "I'm 23F and I work at a bakery. My brother disagrees!\nI think he is wrong.",
        "24F here. I have three cats, and I love hiking.",
        "Nothing personal in this one. Just weather talk.",
        "I am a mother of two and I believe in second chances.",
    ]
    for text in texts:
        got = {(s.sentence_index, s.category, s.start, s.end)
               for s in extract_disclosures(text, pats)}
        assert got == naive_extract(text, pats)


def test_extraction_spans_are_ordered_and_offsets_global():
    text = "The bus was late. I'm 22 and mad about it."
    spans = extract_disclosures(text, default_patterns())
    assert spans, "expected at least one span"
    starts = [(s.start, s.end) for s in spans]
    assert starts == sorted(starts)
    for s in spans:
        assert text[s.start:s.end] == s.matched_text
        assert s.sentence_index == 1


def test_matching_never_crosses_sentences():
    # the trigger and the would-be tail sit in different sentences
    spans = extract_disclosures("I work. As a clown at parties.")
    assert all(s.category is not LowLevelCategory.WORK for s in spans)


# ---------------------------------------------------------------------------
# pattern file integrity

def test_default_patterns_checksum_and_sections():
    pats = default_patterns()
    assert len(pats.raw) == len(LowLevelCategory) == 8
    assert re.fullmatch(r"[0-9a-f]{16}", pats.checksum)


def test_pattern_checksum_tamper_detected():
    text = PatternSet.dumps(default_patterns().raw)
    assert PatternSet.loads(text).raw == default_patterns().raw
    tampered = text.replace("[Gender]", "[Gender] ", 1)
    with pytest.raises(PatternError, match="checksum mismatch"):
        PatternSet.loads(tampered)


def test_pattern_missing_section_detected():
    raw = dict(default_patterns().raw)
    text = PatternSet.dumps(raw)
    # drop one section and re-stamp the checksum so only the schema fails
    body_lines = []
    skipping = False
    header, _, body = text.partition("# checksum:")
    checksum_line, _, body = body.partition("\n")
    for line in body.splitlines():
        if line == "[Age]":
            skipping = True
            continue
        if skipping:
            skipping = False
            continue
        body_lines.append(line)
    new_body = "\n".join(body_lines) + "\n"
    import hashlib
    digest = hashlib.blake2b(new_body.encode(), digest_size=8).hexdigest()
    with pytest.raises(PatternError, match="missing sections"):
        PatternSet.loads(header + "# checksum: " + digest + "\n" + new_body)


def test_pattern_invalid_regex_detected():
    raw = dict(default_patterns().raw)
    raw[LowLevelCategory.AGE] = r"(?P<broken"
    with pytest.raises(PatternError, match="invalid regex"):
        PatternSet.loads(PatternSet.dumps(raw))


# ---------------------------------------------------------------------------
# phrase filter vs an independent scan oracle

def phrase_oracle(text):
    low = text.lower()

    def wordish(ch):
        return ch.isalnum() or ch == "_"

    for phrase in PHRASES:
        needle = phrase.lower()
        start = 0
        while True:
            i = low.find(needle, start)
            if i < 0:
                break
            j = i + len(needle)
            if (i == 0 or not wordish(low[i - 1])) and (j == len(low) or not wordish(low[j])):
                return True
            start = i + 1
    return False


FILTER_CASES = [
    ("I'm tired of this", True),
    ("Im tired of this", True),
    ("i am TIRED", True),
    ("slim pickings today", False),        # "Im" inside a word
    ("this is important to him", False),   # "Im" inside "important"/"him"
    ("TIME flies", False),
    ("I haven't decided", False),          # "I have" blocked by the n
    ("I have decided", True),
    ("he said I think too much", True),
    ("thinking it over", False),
    ("", False),
    ("I value honesty.", True),
    ("values are valuable", False),
]


@pytest.mark.parametrize("text,expected", FILTER_CASES)
def test_phrase_filter_cases(text, expected):
    assert matches_phrase_filter(text) is expected
    assert phrase_oracle(text) is expected


WORDS = ["important", "time", "claim", "dim", "I", "am", "Im", "I'm", "think",
         "have", "hard", "a", "myself", "describe", "would", "learned",
         "that", "slim", "rim", "value", "i", "tend", "to", "feel"]


@settings(max_examples=300)
@given(st.lists(st.sampled_from(WORDS), max_size=8))
def test_phrase_filter_matches_oracle(words):
    text = " ".join(words)
    assert matches_phrase_filter(text) == phrase_oracle(text)


def test_phrase_matching_prefers_longest_alternative():
    text = "I have a hard time with mornings"
    m = next(iter_phrase_matches(text))
    assert text[m.start():m.end()] == "I have a hard time"


# the oracle: one lookbehind inside each alternative
ORACLE_PHRASE_RE = re.compile(
    "|".join(r"(?<!\w)" + re.escape(p) + r"(?!\w)"
             for p in sorted(PHRASES, key=len, reverse=True)),
    re.IGNORECASE,
)

# whole phrases and their words, word characters that glue onto them, and
# boundaries; case is flipped per character below
PHRASE_FRAGMENTS = sorted({w for p in PHRASES for w in [p, *p.split()]})
GLUE = ["x", "_", "9", "é", "'", " ", "  ", ".", ",", "!", "-", "\n", "ve", "m"]


@st.composite
def phrase_texts(draw):
    parts = draw(st.lists(st.sampled_from(PHRASE_FRAGMENTS + GLUE), max_size=12))
    text = "".join(parts)
    flips = draw(st.lists(st.booleans(), min_size=len(text), max_size=len(text)))
    return "".join(ch.swapcase() if flip else ch for ch, flip in zip(text, flips))


def _spans(matches):
    return [(m.start(), m.end(), m.group()) for m in matches]


@settings(max_examples=400)
@given(phrase_texts())
def test_phrase_regex_matches_per_alternative_oracle(text):
    assert _spans(iter_phrase_matches(text)) == _spans(ORACLE_PHRASE_RE.finditer(text))
    assert matches_phrase_filter(text) == (ORACLE_PHRASE_RE.search(text) is not None)


def test_ngram_stats_match_per_alternative_oracle(monkeypatch):
    corpus, _ = generate_population(PopulationSpec(
        n_annotators=6, n_posts=4, comments_per_annotator=(5, 8),
        verdicts_per_annotator=(2, 3), seed=4))
    tables = {(n, pos): ngram_stats(corpus, n, pos) for n in (1, 2, 3) for pos in ("before", "after")}
    # synthgen sentences open with their phrase, so no trigram precedes a match end
    assert all(table for key, table in tables.items() if key != (3, "before"))
    monkeypatch.setattr(dlab.disclosure, "_PHRASE_RE", ORACLE_PHRASE_RE)
    for (n, pos), table in tables.items():
        assert ngram_stats(corpus, n, pos) == table


def test_phrase_list_is_exactly_the_published_set():
    assert len(PHRASES) == 34
    assert len(set(p.lower() for p in PHRASES)) == 34


# ---------------------------------------------------------------------------
# n-gram windows

def _one_comment_corpus(text):
    posts = {"p0": Post(id="p0", author_id="op", title="t", body="b")}
    comments = {"c0": Comment(id="c0", author_id="a0", text=text)}
    return Corpus(posts=posts, comments=comments,
                  verdicts=[Verdict("p0", "a0", "NTA")])


def test_ngram_window_fixture():
    corpus = _one_comment_corpus("so I think cats rule.")
    before = dict(ngram_stats(corpus, 1, "before"))
    after = dict(ngram_stats(corpus, 1, "after"))
    assert before == {"so": 1, "i": 1, "think": 1}
    assert after == {"cats": 1, "rule": 1}


def test_ngram_window_bigrams():
    corpus = _one_comment_corpus("so I think cats rule.")
    before = dict(ngram_stats(corpus, 2, "before"))
    after = dict(ngram_stats(corpus, 2, "after"))
    assert before == {"so i": 1, "i think": 1}
    assert after == {"cats rule": 1}


def test_ngram_windows_are_sentence_bounded():
    corpus = _one_comment_corpus("Cats are fine. I think dogs rule. Birds sing.")
    after = dict(ngram_stats(corpus, 1, "after"))
    assert "birds" not in after
    assert after == {"dogs": 1, "rule": 1}


def test_ngram_sorting_and_validation():
    corpus = _one_comment_corpus("I think aa. I think aa. I think bb.")
    rows = ngram_stats(corpus, 1, "after")
    assert rows[0] == ("aa", 2)
    with pytest.raises(ValueError):
        ngram_stats(corpus, 4, "after")
    with pytest.raises(ValueError):
        ngram_stats(corpus, 1, "middle")


# ---------------------------------------------------------------------------
# audit sampling and profiles

def _mixed_corpus():
    texts = {
        "c0": "I'm 22 and in the dorms.",           # Demographics
        "c1": "I work as a nurse.",                  # Experiences
        "c2": "The bus was late again.",             # none
        "c3": "I think rules matter. I'm 51.",       # Attitudes + Demographics
        "c4": "My brother is loud.",                 # Relationships (no phrase)
    }
    posts = {"p0": Post(id="p0", author_id="op", title="t", body="b")}
    comments = {cid: Comment(id=cid, author_id="a0", text=t) for cid, t in texts.items()}
    return Corpus(posts=posts, comments=comments,
                  verdicts=[Verdict("p0", "a0", "YTA")])


def test_audit_sample_deterministic_and_bounded():
    corpus = _mixed_corpus()
    recs = audit_sample(corpus, "Demographics", 10, seed=5)
    assert {r.comment_id for r in recs} == {"c0", "c3"}
    again = audit_sample(corpus, HighLevelCategory.DEMOGRAPHICS, 10, seed=5)
    assert [r.comment_id for r in recs] == [r.comment_id for r in again]
    one = audit_sample(corpus, "Demographics", 1, seed=5)
    assert len(one) == 1
    assert all(isinstance(r, AuditRecord) and r.spans for r in recs)


def test_audit_sample_empty_category_warns():
    corpus = _one_comment_corpus("Nothing to see here.")
    with pytest.warns(UserWarning, match="empty"):
        assert audit_sample(corpus, "Attitudes", 3, seed=0) == []


def test_audit_sample_unknown_group():
    with pytest.raises(ValueError, match="unknown high-level"):
        audit_sample(_mixed_corpus(), "Vibes", 3, seed=0)


def test_audit_sample_spans_carry_category():
    corpus = _mixed_corpus()
    profiles = build_profiles(corpus)
    for group in HighLevelCategory:
        recs = audit_sample(corpus, group, 10, seed=0)
        assert {r.comment_id for r in recs} == {
            cid for cid, prof in profiles.items() if group in prof.theory_categories}
        for rec in recs:
            assert group in {s.high_level for s in rec.spans}
            assert rec.spans == extract_disclosures(corpus.comments[rec.comment_id])


def test_build_profiles():
    corpus = _mixed_corpus()
    profiles = build_profiles(corpus)
    assert profiles["c0"].theory_categories == {HighLevelCategory.DEMOGRAPHICS}
    assert profiles["c3"].theory_categories == {
        HighLevelCategory.ATTITUDES, HighLevelCategory.DEMOGRAPHICS}
    assert profiles["c2"].theory_categories == frozenset()
    assert profiles["c0"].passes_phrase_filter
    assert not profiles["c4"].passes_phrase_filter  # "My brother" has no phrase
    assert profiles["c0"].cluster_id is None


def test_build_profiles_cluster_on_unfiltered_comment_rejected():
    corpus = _mixed_corpus()
    attach_clusters(build_profiles(corpus), {"c0": 1})  # fine: c0 passes
    with pytest.raises(ValueError, match="phrase filter"):
        attach_clusters(build_profiles(corpus), {"c4": 0})


def test_profile_dataclass_is_frozen():
    prof = CategoryProfile("c", frozenset(), True)
    with pytest.raises(Exception):
        prof.passes_phrase_filter = False
