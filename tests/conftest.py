import json
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest

from dlab.corpus import Corpus, Comment, Post, Verdict
from dlab.disclosure import (THEORY_BITS, DisclosureSpan, HighLevelCategory, Profiles,
                             matches_phrase_filter)
from dlab.sampler import CategoryFilter, Contexts, Units


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def make_corpus(n_posts=3, annotators=("a1", "a2"), comments_per=3,
                verdicts=None):
    """Small hand-built corpus; verdicts defaults to every (post, annotator)."""
    posts = {
        f"p{i}": Post(id=f"p{i}", author_id=f"op{i}", title=f"title {i}",
                      body=f"body of post {i}")
        for i in range(n_posts)
    }
    comments = {}
    counter = 0
    for aid in annotators:
        for _ in range(comments_per):
            cid = f"c{counter}"
            comments[cid] = Comment(id=cid, author_id=aid,
                                    text=f"comment {counter} by {aid}")
            counter += 1
    if verdicts is None:
        verdicts = [
            Verdict(pid, aid, "NTA" if (i + j) % 2 else "YTA")
            for i, pid in enumerate(sorted(posts))
            for j, aid in enumerate(annotators)
        ]
    corpus = Corpus(posts=posts, comments=comments, verdicts=verdicts)
    corpus.check_invariants()
    return corpus


@pytest.fixture
def corpus_files(tmp_path):
    """A valid little JSONL trio on disk; returns the three paths."""
    posts = [
        {"id": "p1", "author_id": "op1", "title": "t one", "body": "b one"},
        {"id": "p2", "author_id": "op2", "title": "t two", "body": "b two"},
    ]
    comments = [
        {"id": "c1", "author_id": "a1", "text": "I'm 22 and tired."},
        {"id": "c2", "author_id": "a1", "text": "The bus was late."},
        {"id": "c3", "author_id": "a2", "text": "I work as a nurse."},
    ]
    verdicts = [
        {"post_id": "p1", "annotator_id": "a1", "label": "YTA"},
        {"post_id": "p2", "annotator_id": "a1", "label": "NTA",
         "justification": "seems fine"},
        {"post_id": "p1", "annotator_id": "a2", "label": "NTA"},
    ]
    paths = (tmp_path / "posts.jsonl", tmp_path / "comments.jsonl",
             tmp_path / "verdicts.jsonl")
    for path, recs in zip(paths, (posts, comments, verdicts)):
        write_jsonl(path, recs)
    return paths


def dense(matrix):
    """Every row of an EmbeddingMatrix as one dense float32 array."""
    return matrix.take(range(len(matrix)))


def traced_peak(call):
    """The result of call() and the peak of the memory its allocations held
    at once, in bytes, as tracemalloc counts it (numpy's arrays included)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


@dataclass(frozen=True)
class Item:
    """One context item as a plain record, for comparing contexts item by
    item: its comment, its text, its similarity (None under random
    strategies and whole pools), its unit and, for a sentence, its index."""

    source_comment_id: str
    text: str
    similarity: float | None
    unit: str  # "comment" | "sentence"
    sentence_index: int | None = None


@dataclass
class Record:
    """One context as a plain record: its pair and its items."""

    annotator_id: str
    post_id: str
    items: list[Item] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.items)


def records_of(contexts: Contexts) -> list[Record]:
    """One Record per context of the columns, with an Item per item."""
    units = contexts.units
    sims = ([None] * len(contexts.positions) if contexts.similarity is None
            else contexts.similarity.tolist())
    items = [Item(units.comment_ids[i], units.texts[i], sim,
                  "sentence" if s >= 0 else "comment", s if s >= 0 else None)
             for i, s, sim in zip(contexts.positions.tolist(),
                                  units.sentence_index[contexts.positions].tolist(), sims)]
    bounds = contexts.offsets.tolist()
    return [Record(a, p, items[lo:hi]) for a, p, lo, hi in
            zip(contexts.annotator_ids, contexts.post_ids, bounds, bounds[1:])]


def contexts_of(records) -> Contexts:
    """The columns of Records, one unit per item; the items carry a
    similarity each or none does."""
    items = [item for ctx in records for item in ctx.items]
    sims = [item.similarity for item in items]
    assert None not in sims or not any(sim is not None for sim in sims)
    units = Units([item.source_comment_id for item in items], [item.text for item in items],
                  np.array([-1 if item.sentence_index is None else item.sentence_index
                            for item in items], dtype=np.int64))
    return Contexts.of([(ctx.annotator_id, ctx.post_id) for ctx in records], units,
                       [len(ctx.items) for ctx in records], np.arange(len(items)),
                       None if None in sims else np.array(sims, dtype=np.float64))


@dataclass(frozen=True)
class CategoryProfile:
    """One comment's profile as a plain record, for comparing profiles row
    by row: its theory categories, whether it passes the phrase filter, and
    its cluster id (None for none)."""

    comment_id: str
    theory_categories: frozenset[HighLevelCategory]
    passes_phrase_filter: bool
    cluster_id: int | None = None


def comment_profile(comment: Comment, spans: list[DisclosureSpan]) -> CategoryProfile:
    """The profile of one comment from its extracted disclosure spans."""
    return CategoryProfile(
        comment_id=comment.id,
        theory_categories=frozenset(s.high_level for s in spans),
        passes_phrase_filter=matches_phrase_filter(comment.text),
    )


def profile_records(profiles: Profiles) -> dict[str, CategoryProfile]:
    """One CategoryProfile per row of the columns, by comment id."""
    return {cid: CategoryProfile(cid, frozenset(profiles.categories(row)), phrase,
                                 None if cluster < 0 else cluster)
            for row, (cid, phrase, cluster) in enumerate(zip(
                profiles.comment_ids, profiles.phrase.tolist(), profiles.cluster.tolist()))}


def profiles_of(records: dict[str, CategoryProfile]) -> Profiles:
    """The columns of CategoryProfiles, in comment id order."""
    ids = sorted(records)
    return Profiles(
        ids,
        np.array([sum(THEORY_BITS[c] for c in records[cid].theory_categories) for cid in ids],
                 dtype=np.uint8),
        np.array([records[cid].passes_phrase_filter for cid in ids], dtype=bool),
        np.array([-1 if records[cid].cluster_id is None else records[cid].cluster_id
                  for cid in ids], dtype=np.int32))


def admits(filt: CategoryFilter, profile: CategoryProfile) -> bool:
    """Whether a category filter admits a comment of that profile."""
    if filt.theory is not None:
        return filt.theory in profile.theory_categories
    return profile.cluster_id == filt.cluster
