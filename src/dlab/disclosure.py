"""Self-disclosure extraction with a theory-based category taxonomy.

Eight low-level categories (Identity, Gender, Age, Hobby, Possession, Work,
Attitude, Relationship) roll up into four high-level ones (Demographics,
Experiences, Attitudes, Relationships). Extraction is regex-driven and runs
per sentence; the pattern set lives in a versioned, checksummed text file so
pattern drift is an explicit, reviewable event.
"""
from __future__ import annotations

import random
import re
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache
from importlib import resources

import numpy as np

from .corpus import Comment, Corpus, segment_sentences, write_jsonl
from .embed import TOKEN_RE, text_checksum


class PatternError(ValueError):
    """Bad pattern file: checksum mismatch, missing section, or invalid regex."""


class LowLevelCategory(Enum):
    IDENTITY = "Identity"
    GENDER = "Gender"
    AGE = "Age"
    HOBBY = "Hobby"
    POSSESSION = "Possession"
    WORK = "Work"
    ATTITUDE = "Attitude"
    RELATIONSHIP = "Relationship"

    @property
    def high_level(self) -> "HighLevelCategory":
        return LOW_TO_HIGH[self]


class HighLevelCategory(Enum):
    DEMOGRAPHICS = "Demographics"
    EXPERIENCES = "Experiences"
    ATTITUDES = "Attitudes"
    RELATIONSHIPS = "Relationships"


LOW_TO_HIGH = {
    LowLevelCategory.IDENTITY: HighLevelCategory.DEMOGRAPHICS,
    LowLevelCategory.GENDER: HighLevelCategory.DEMOGRAPHICS,
    LowLevelCategory.AGE: HighLevelCategory.DEMOGRAPHICS,
    LowLevelCategory.HOBBY: HighLevelCategory.EXPERIENCES,
    LowLevelCategory.POSSESSION: HighLevelCategory.EXPERIENCES,
    LowLevelCategory.WORK: HighLevelCategory.EXPERIENCES,
    LowLevelCategory.ATTITUDE: HighLevelCategory.ATTITUDES,
    LowLevelCategory.RELATIONSHIP: HighLevelCategory.RELATIONSHIPS,
}

_CATEGORY_ORDER = {c: i for i, c in enumerate(LowLevelCategory)}


# ---------------------------------------------------------------------------
# pattern set

_CHECKSUM_MARKER = "# checksum:"


@dataclass
class PatternSet:
    """One regex per low-level category, loaded from a checksummed file."""

    raw: dict[LowLevelCategory, str]
    compiled: dict[LowLevelCategory, re.Pattern]
    checksum: str

    @classmethod
    def loads(cls, text: str) -> "PatternSet":
        idx = text.find(_CHECKSUM_MARKER)
        if idx < 0:
            raise PatternError("pattern file has no checksum header")
        nl = text.find("\n", idx)
        if nl < 0:
            raise PatternError("pattern file truncated after checksum header")
        declared = text[idx + len(_CHECKSUM_MARKER):nl].strip()
        body = text[nl + 1:]
        actual = text_checksum(body)
        if declared != actual:
            raise PatternError(
                f"pattern checksum mismatch: header says {declared}, body is {actual}"
            )

        sections: dict[str, str | None] = {}
        current: str | None = None
        for rawline in body.splitlines():
            line = rawline.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1]
                if current in sections:
                    raise PatternError(f"duplicate section [{current}]")
                sections[current] = None
            else:
                if current is None:
                    raise PatternError("pattern line outside any section")
                if sections[current] is not None:
                    raise PatternError(f"multiple pattern lines in section [{current}]")
                sections[current] = line

        expected = [c.value for c in LowLevelCategory]
        missing = [name for name in expected if sections.get(name) is None]
        extra = [name for name in sections if name not in expected]
        if missing:
            raise PatternError(f"pattern file missing sections: {missing}")
        if extra:
            raise PatternError(f"pattern file has unknown sections: {extra}")

        raw = {c: sections[c.value] for c in LowLevelCategory}
        compiled = {}
        for cat, pat in raw.items():
            try:
                compiled[cat] = re.compile(pat, re.IGNORECASE)
            except re.error as exc:
                raise PatternError(f"section [{cat.value}] has invalid regex: {exc}")
        return cls(raw=raw, compiled=compiled, checksum=actual)

    @staticmethod
    def dumps(raw: dict[LowLevelCategory, str]) -> str:
        lines = []
        for cat in LowLevelCategory:
            lines.append(f"[{cat.value}]")
            lines.append(raw[cat])
        body = "\n".join(lines) + "\n"
        header = (
            "# dlab disclosure pattern set\n"
            "# version: 1\n"
            f"{_CHECKSUM_MARKER} {text_checksum(body)}\n"
        )
        return header + body


@lru_cache(maxsize=1)
def default_patterns() -> PatternSet:
    """The pattern set shipped with the package."""
    text = resources.files("dlab").joinpath("data/disclosure_patterns.txt").read_text("utf-8")
    return PatternSet.loads(text)


# ---------------------------------------------------------------------------
# extraction

@dataclass(frozen=True)
class DisclosureSpan:
    comment_id: str
    sentence_index: int
    category: LowLevelCategory
    start: int  # offsets into the full comment text
    end: int
    matched_text: str

    @property
    def high_level(self) -> HighLevelCategory:
        return self.category.high_level


def span_record(span: DisclosureSpan) -> dict:
    """A span's categories, offsets and matched text, as the spans file of
    `dlab extract` and the audit file write them."""
    return {
        "category": span.category.value,
        "high_level": span.high_level.value,
        "start": span.start,
        "end": span.end,
        "matched_text": span.matched_text,
    }


def _as_comment(c: Comment | str) -> Comment:
    if isinstance(c, str):
        return Comment(id="", author_id="", text=c)
    return c


def extract_disclosures(c: Comment | str, patterns: PatternSet | None = None, *,
                        _memo: dict | None = None) -> list[DisclosureSpan]:
    """Run every category pattern over every sentence of a comment.

    Matching never crosses sentence boundaries (patterns are applied to the
    sentence slice), offsets are into the full comment text, and spans come
    back in document order. A sentence can emit several categories.

    `_memo` maps a sentence text to the (category, start, end) of its
    non-empty matches, offsets within the sentence. It holds the matches of
    one pattern set, so it must be a fresh dict per pattern set; only
    `extract_corpus` passes one.
    """
    comment = _as_comment(c)
    pats = patterns or default_patterns()
    memo = {} if _memo is None else _memo
    out: list[DisclosureSpan] = []
    text = comment.text
    for sent_idx, (a, b) in enumerate(comment.sentence_spans()):
        sentence = text[a:b]
        found = memo.get(sentence)
        if found is None:
            found = memo[sentence] = tuple(
                (cat, m.start(), m.end())
                for cat, regex in pats.compiled.items()
                for m in regex.finditer(sentence)
                if m.start() != m.end()
            )
        out.extend(DisclosureSpan(comment.id, sent_idx, cat, a + start, a + end,
                                  sentence[start:end])
                   for cat, start, end in found)
    out.sort(key=lambda s: (s.start, s.end, _CATEGORY_ORDER[s.category]))
    return out


def extract_corpus(corpus: Corpus,
                   patterns: PatternSet | None = None) -> dict[str, list[DisclosureSpan]]:
    """The disclosure spans of every comment, in sorted id order.

    Each distinct sentence text is matched once per call; the memo is freed
    when the call returns.
    """
    pats = patterns or default_patterns()
    memo: dict = {}
    return {cid: extract_disclosures(corpus.comments[cid], pats, _memo=memo)
            for cid in sorted(corpus.comments)}


# ---------------------------------------------------------------------------
# phrase filter

# First-person disclosure phrases; a comment must contain at least one of
# these (case-insensitive, bounded by non-word characters) to enter the
# clustering route. Plain substring matching would let "Im" fire inside
# words like "important" and make the filter useless.
PHRASES = (
    "I am", "I'm", "Im", "I have", "I like", "I love", "I hate", "I enjoy",
    "I think", "I feel", "I believe", "I wish", "I need", "I want", "I fear",
    "I worry", "I tend to", "I see myself as", "I value", "I strive to",
    "I consider myself", "I would describe myself as",
    "I would define myself as", "I pride myself on", "I am good at",
    "I struggle with", "I find it easy to", "I have a hard time",
    "I excel at", "I know that I", "Ive learned that I",
    "I've learned that I", "I have learned that I", "I realize that",
)

# longest alternative first so "I have a hard time" beats "I have"; the
# lookbehind depends on the position alone, so it stands once before the
# alternatives and is tested once per position
_PHRASE_RE = re.compile(
    r"(?<!\w)(?:"
    + "|".join(re.escape(p) + r"(?!\w)" for p in sorted(PHRASES, key=len, reverse=True))
    + ")",
    re.IGNORECASE,
)


def matches_phrase_filter(text: str) -> bool:
    """True iff any first-person disclosure phrase occurs in the text."""
    return _PHRASE_RE.search(text) is not None


def iter_phrase_matches(text: str):
    """Non-overlapping phrase occurrences, longest alternative first."""
    return _PHRASE_RE.finditer(text)


# ---------------------------------------------------------------------------
# audit sampling and n-gram statistics

@dataclass
class AuditRecord:
    comment_id: str
    text: str
    spans: list[DisclosureSpan]


def _as_high_level(group: HighLevelCategory | str) -> HighLevelCategory:
    if isinstance(group, HighLevelCategory):
        return group
    try:
        return HighLevelCategory(group)
    except ValueError:
        raise ValueError(f"unknown high-level category {group!r}")


def audit_sample(corpus: Corpus, group: HighLevelCategory | str, n: int,
                 seed: int) -> list[AuditRecord]:
    """Uniformly sample (without replacement) comments carrying a category.

    Deterministic for a fixed seed. Asking for more than exist returns all
    of them; an empty category yields [] with a warning.
    """
    if n < 0:
        raise ValueError("sample size must be non-negative")
    group = _as_high_level(group)
    spans = extract_corpus(corpus)
    candidates = [cid for cid, found in spans.items()
                  if any(s.high_level is group for s in found)]
    if not candidates:
        warnings.warn(f"no comments carry category {group.value}; audit sample is empty")
        return []
    rng = random.Random(seed)
    chosen = rng.sample(candidates, min(n, len(candidates)))
    return [AuditRecord(cid, corpus.comments[cid].text, spans[cid]) for cid in chosen]


def write_audit_file(records: list[AuditRecord], path) -> None:
    """Review JSONL: one comment per line with its highlighted spans."""
    write_jsonl(path, ({
        "comment_id": rec.comment_id,
        "text": rec.text,
        "spans": [span_record(s) for s in rec.spans],
    } for rec in records))


def ngram_stats(corpus: Corpus, n: int, position: str) -> list[tuple[str, int]]:
    """Frequency table of n-grams around disclosure-phrase matches.

    Windows are sentence-bounded. For each phrase occurrence, the "before"
    window holds the tokens starting before the match's end (the phrase's
    own tokens included), and the "after" window the tokens from the match
    end onward. Returned sorted by count descending, then alphabetically.
    """
    if n not in (1, 2, 3):
        raise ValueError("n must be 1, 2, or 3")
    if position not in ("before", "after"):
        raise ValueError("position must be 'before' or 'after'")
    counts: Counter[str] = Counter()
    for cid in sorted(corpus.comments):
        comment = corpus.comments[cid]
        for a, b in comment.sentence_spans():
            s = comment.text[a:b].lower()
            tokens = [(m.start(), m.group()) for m in TOKEN_RE.finditer(s)]
            for pm in iter_phrase_matches(s):
                end = pm.end()
                if position == "before":
                    window = [tok for pos, tok in tokens if pos < end]
                else:
                    window = [tok for pos, tok in tokens if pos >= end]
                for i in range(len(window) - n + 1):
                    counts[" ".join(window[i:i + n])] += 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


# ---------------------------------------------------------------------------
# category profiles

# each high-level category's bit in a Profiles theory mask, in enum order
THEORY_BITS = {cat: 1 << i for i, cat in enumerate(HighLevelCategory)}


@dataclass(frozen=True, eq=False)
class Profiles:
    """Per-comment membership used by category-conditioned sampling, as
    columns aligned with the sorted comment ids: a uint8 mask of the
    comment's theory categories (THEORY_BITS), whether it passes the phrase
    filter, and its int32 cluster id (-1 for none)."""

    comment_ids: list[str]
    theory: np.ndarray
    phrase: np.ndarray
    cluster: np.ndarray

    def __len__(self) -> int:
        return len(self.comment_ids)

    def __contains__(self, comment_id: str) -> bool:
        return comment_id in self._index

    @cached_property
    def _index(self) -> dict[str, int]:
        return {cid: i for i, cid in enumerate(self.comment_ids)}

    def rows(self, comment_ids) -> np.ndarray:
        """The row of each of the comment ids."""
        index = self._index
        return np.fromiter((index[cid] for cid in comment_ids), dtype=np.intp,
                           count=len(comment_ids))

    def categories(self, row: int) -> list[HighLevelCategory]:
        """The theory categories of a row, in enum order."""
        mask = int(self.theory[row])
        return [cat for cat, bit in THEORY_BITS.items() if mask & bit]


def _category_bits(sentence: str, pats: PatternSet) -> int:
    """The THEORY_BITS of the categories with a non-empty match in the
    sentence, as extract_disclosures finds them."""
    bits = 0
    for cat, regex in pats.compiled.items():
        bit = THEORY_BITS[cat.high_level]
        if not bits & bit and any(m.end() > m.start() for m in regex.finditer(sentence)):
            bits |= bit
    return bits


def build_profiles(corpus: Corpus, patterns: PatternSet | None = None) -> Profiles:
    """The profiles of every comment, without cluster ids (attach_clusters
    adds them).

    A comment's theory mask is the union of its sentences' category bits.
    Each distinct comment text is segmented and phrase-matched once per
    call, and each distinct sentence text matched once; the memos are freed
    when the call returns, and no sentence spans are cached on the comments.
    """
    pats = patterns or default_patterns()
    ids = sorted(corpus.comments)
    sentence_bits: dict[str, int] = {}
    seen: dict[str, tuple[int, bool]] = {}  # comment text -> (mask, phrase)
    masks, phrases = [], []
    for cid in ids:
        text = corpus.comments[cid].text
        found = seen.get(text)
        if found is None:
            mask = 0
            for a, b in segment_sentences(text):
                sentence = text[a:b]
                bits = sentence_bits.get(sentence)
                if bits is None:
                    bits = sentence_bits[sentence] = _category_bits(sentence, pats)
                mask |= bits
            found = seen[text] = (mask, matches_phrase_filter(text))
        masks.append(found[0])
        phrases.append(found[1])
    return Profiles(ids, np.array(masks, dtype=np.uint8), np.array(phrases, dtype=bool),
                    np.full(len(ids), -1, dtype=np.int32))


def attach_clusters(profiles: Profiles, cluster_assignment: dict[str, int]) -> Profiles:
    """The profiles with the cluster ids of an assignment filled in; ids
    the profiles lack are ignored.

    Cluster ids may only be attached to comments that pass the phrase
    filter, mirroring how the clustering route is built.
    """
    known = [cid for cid in cluster_assignment if cid in profiles]
    rows = profiles.rows(known)
    refused = rows[~profiles.phrase[rows]]
    if refused.size:
        raise ValueError(f"comment {profiles.comment_ids[refused.min()]!r} has a cluster id "
                         "but fails the phrase filter")
    cluster = profiles.cluster.copy()
    cluster[rows] = [cluster_assignment[cid] for cid in known]
    return replace(profiles, cluster=cluster)
