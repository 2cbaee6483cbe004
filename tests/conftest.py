import json
import tracemalloc

import pytest

from dlab.corpus import Corpus, Comment, Post, Verdict


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
