"""Corpus ingestion, validation, annotator filtering, and leakage-controlled splits.

A corpus ties together three JSONL files: situation posts, annotators'
background comments, and verdicts (one annotator judging one post). The
split machinery supports three regimes with different generalization
semantics: random over verdicts, post-disjoint, and annotator-disjoint.
"""
from __future__ import annotations

import json
import math
import random
import re
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

VERDICT_LABELS = ("NTA", "YTA")
PARTITIONS = ("train", "val", "test")
SPLIT_KINDS = ("verdict", "situation", "author")
# filter_annotators' comment-count bounds and make_split's ratios by default
MIN_COMMENTS, MAX_COMMENTS = 20, 500
SPLIT_RATIOS = (0.8, 0.1, 0.1)


class CorpusError(ValueError):
    """Malformed or internally inconsistent corpus data."""


@dataclass(frozen=True)
class Post:
    """A situation post: the thing annotators pass judgment on."""

    id: str
    author_id: str
    title: str
    body: str

    def query_text(self) -> str:
        """Text used when the post acts as a similarity query: title + body."""
        return self.title + "\n\n" + self.body


# A sentence ends at a run of .!? followed by whitespace or end-of-text, or
# at a newline run. No abbreviation handling; "3.14" stays intact because
# the dot is not followed by whitespace.
_BOUNDARY_RE = re.compile(r"[.!?]+(?=\s|$)|[\r\n]+")


def segment_sentences(text: str) -> list[tuple[int, int]]:
    """Split text into sentence character spans.

    Spans are trimmed of surrounding whitespace, never overlap, appear in
    order, and cover every non-whitespace character. Empty input yields [];
    text with no terminators is one span.
    """
    spans: list[tuple[int, int]] = []

    def push(a: int, b: int) -> None:
        while a < b and text[a].isspace():
            a += 1
        while b > a and text[b - 1].isspace():
            b -= 1
        if a < b:
            spans.append((a, b))

    pos = 0
    for m in _BOUNDARY_RE.finditer(text):
        # punctuation stays inside the sentence; newline runs do not
        end = m.start() if text[m.start()] in "\r\n" else m.end()
        push(pos, end)
        pos = m.end()
    push(pos, len(text))
    return spans


@dataclass
class Comment:
    """A background comment written by an annotator, independent of any verdict."""

    id: str
    author_id: str
    text: str
    _sentence_spans: list[tuple[int, int]] | None = field(
        default=None, repr=False, compare=False
    )

    def sentence_spans(self) -> list[tuple[int, int]]:
        """Character spans of the comment's sentences, computed lazily."""
        if self._sentence_spans is None:
            self._sentence_spans = segment_sentences(self.text)
        return self._sentence_spans


@dataclass(frozen=True)
class Verdict:
    """One annotator's judgment of one post."""

    post_id: str
    annotator_id: str
    label: str  # "YTA" | "NTA"
    justification: str = ""


@dataclass
class Corpus:
    posts: dict[str, Post]
    comments: dict[str, Comment]
    verdicts: list[Verdict]
    # annotator id -> sorted comment ids; every verdict's annotator has an
    # entry here even when they wrote no comments.
    annotator_index: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.annotator_index:
            self.annotator_index = _build_annotator_index(self.comments, self.verdicts)

    def annotators(self) -> list[str]:
        """Annotators appearing in verdicts, sorted."""
        return sorted({v.annotator_id for v in self.verdicts})

    def check_invariants(self) -> None:
        shared = self.posts.keys() & self.comments.keys()
        if shared:
            raise CorpusError(f"ids shared between posts and comments: {sorted(shared)[:5]}")
        seen_pairs = set()
        for v in self.verdicts:
            if v.post_id not in self.posts:
                raise CorpusError(f"verdict references unknown post id {v.post_id!r}")
            if v.label not in VERDICT_LABELS:
                raise CorpusError(f"verdict label {v.label!r} not in {VERDICT_LABELS}")
            if v.annotator_id not in self.annotator_index:
                raise CorpusError(f"annotator {v.annotator_id!r} missing from index")
            pair = (v.post_id, v.annotator_id)
            if pair in seen_pairs:
                raise CorpusError(f"duplicate verdict for pair {pair}")
            seen_pairs.add(pair)
        for aid, cids in self.annotator_index.items():
            for cid in cids:
                c = self.comments.get(cid)
                if c is None or c.author_id != aid:
                    raise CorpusError(f"annotator index broken at {aid!r}/{cid!r}")


def _build_annotator_index(comments, verdicts) -> dict[str, list[str]]:
    index: dict[str, list[str]] = defaultdict(list)
    for c in comments.values():
        index[c.author_id].append(c.id)
    for v in verdicts:
        index.setdefault(v.annotator_id, [])
    return {aid: sorted(cids) for aid, cids in index.items()}


@dataclass
class IngestReport:
    n_posts: int = 0
    n_comments: int = 0
    n_verdicts: int = 0
    # (line number in verdicts file, post id, annotator id) of dropped
    # self-judgments: the post author voting on their own post.
    self_verdicts_dropped: list[tuple[int, str, str]] = field(default_factory=list)

    @property
    def n_self_verdicts_dropped(self) -> int:
        return len(self.self_verdicts_dropped)

    def to_dict(self) -> dict:
        return {
            "n_posts": self.n_posts,
            "n_comments": self.n_comments,
            "n_verdicts": self.n_verdicts,
            "n_self_verdicts_dropped": self.n_self_verdicts_dropped,
            "self_verdicts_dropped": [list(t) for t in self.self_verdicts_dropped],
        }


def iter_jsonl(path: Path):
    """Yield (line_number, record) pairs; malformed JSON is a hard error."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path.name} line {lineno}: malformed JSON ({exc.msg})")
            if not isinstance(rec, dict):
                raise CorpusError(f"{path.name} line {lineno}: record is not an object")
            yield lineno, rec


def _require_str(rec: dict, key: str, where: str) -> str:
    val = rec.get(key)
    if not isinstance(val, str):
        raise CorpusError(f"{where}: field {key!r} missing or not a string")
    return val


def read_comments(comments_path, post_ids=frozenset()) -> dict[str, Comment]:
    """Load and validate a comments JSONL file.

    Hard errors: malformed JSON, a missing or non-string field, a duplicate
    comment id, and a comment id that is also one of post_ids.
    """
    comments_path = Path(comments_path)
    comments: dict[str, Comment] = {}
    for lineno, rec in iter_jsonl(comments_path):
        where = f"{comments_path.name} line {lineno}"
        cid = _require_str(rec, "id", where)
        if cid in comments:
            raise CorpusError(f"{where}: duplicate comment id {cid!r}")
        if cid in post_ids:
            raise CorpusError(f"{where}: comment id {cid!r} collides with a post id")
        comments[cid] = Comment(
            id=cid,
            author_id=_require_str(rec, "author_id", where),
            text=_require_str(rec, "text", where),
        )
    return comments


def ingest_corpus(posts_path, comments_path, verdicts_path) -> tuple[Corpus, IngestReport]:
    """Load and validate the three JSONL files into a Corpus.

    Hard errors: malformed JSON (with line number), duplicate ids (including
    a post and a comment sharing an id, since they share one embedding id
    space downstream), verdicts referencing unknown posts, labels outside
    {YTA, NTA}, duplicate (post, annotator) verdict pairs.

    Verdicts where the annotator authored the judged post are dropped and
    listed in the report rather than kept: they would leak the situation
    into its own context pool.
    """
    posts_path, comments_path, verdicts_path = (
        Path(posts_path), Path(comments_path), Path(verdicts_path))
    for p in (posts_path, comments_path, verdicts_path):
        if not p.exists():
            raise CorpusError(f"input file not found: {p}")

    posts: dict[str, Post] = {}
    for lineno, rec in iter_jsonl(posts_path):
        where = f"{posts_path.name} line {lineno}"
        pid = _require_str(rec, "id", where)
        post = Post(
            id=pid,
            author_id=_require_str(rec, "author_id", where),
            title=_require_str(rec, "title", where),
            body=_require_str(rec, "body", where),
        )
        if pid in posts:
            raise CorpusError(f"{where}: duplicate post id {pid!r}")
        posts[pid] = post

    comments = read_comments(comments_path, posts)

    verdicts: list[Verdict] = []
    report = IngestReport(n_posts=len(posts), n_comments=len(comments))
    seen_pairs: set[tuple[str, str]] = set()
    for lineno, rec in iter_jsonl(verdicts_path):
        where = f"{verdicts_path.name} line {lineno}"
        post_id = _require_str(rec, "post_id", where)
        annotator_id = _require_str(rec, "annotator_id", where)
        label = _require_str(rec, "label", where)
        if label not in VERDICT_LABELS:
            raise CorpusError(f"{where}: unknown verdict label {label!r}")
        if post_id not in posts:
            raise CorpusError(f"{where}: verdict references unknown post id {post_id!r}")
        pair = (post_id, annotator_id)
        if pair in seen_pairs:
            raise CorpusError(f"{where}: duplicate verdict for pair {pair}")
        seen_pairs.add(pair)
        if posts[post_id].author_id == annotator_id:
            report.self_verdicts_dropped.append((lineno, post_id, annotator_id))
            continue
        verdicts.append(
            Verdict(post_id, annotator_id, label, rec.get("justification", "") or "")
        )

    report.n_verdicts = len(verdicts)
    corpus = Corpus(posts=posts, comments=comments, verdicts=verdicts)
    corpus.check_invariants()
    return corpus, report


def write_jsonl(path, records) -> None:
    """One JSON object per line, UTF-8, non-ASCII text written raw."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def write_json(path, obj) -> None:
    """One JSON document, indented with sorted keys, ending in a newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_tsv(path, rows) -> None:
    """One tab-joined line per row of already formatted fields."""
    Path(path).write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")


def write_corpus(corpus: Corpus, outdir) -> dict[str, Path]:
    """Write posts/comments/verdicts JSONL in the layout ingest_corpus reads
    (posts and comments in id order); returns the file paths."""
    outdir = Path(outdir)
    paths = {name: outdir / f"{name}.jsonl" for name in ("posts", "comments", "verdicts")}
    write_jsonl(paths["posts"], (
        {"id": p.id, "author_id": p.author_id, "title": p.title, "body": p.body}
        for _, p in sorted(corpus.posts.items())))
    write_jsonl(paths["comments"], (
        {"id": c.id, "author_id": c.author_id, "text": c.text}
        for _, c in sorted(corpus.comments.items())))
    write_jsonl(paths["verdicts"], (
        {"post_id": v.post_id, "annotator_id": v.annotator_id,
         "label": v.label, "justification": v.justification}
        for v in corpus.verdicts))
    return paths


@dataclass
class FilterReport:
    min_comments: int
    max_comments: int
    n_annotators_before: int = 0
    n_annotators_kept: int = 0
    n_verdicts_before: int = 0
    n_verdicts_kept: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def validate_comment_bounds(min_comments: int, max_comments: int) -> None:
    """filter_annotators' bounds need 0 <= min_comments <= max_comments."""
    if not (0 <= min_comments <= max_comments):
        raise ValueError(f"bad bounds: min_comments={min_comments} max_comments={max_comments}")


def filter_annotators(corpus: Corpus, min_comments: int = MIN_COMMENTS,
                      max_comments: int = MAX_COMMENTS) -> tuple[Corpus, FilterReport]:
    """Keep only verdicts whose annotator's comment count is within bounds.

    Posts and comments are retained untouched; only the verdict list (and
    hence the set of modeled annotators) shrinks. Widening the bounds never
    removes a previously retained verdict.
    """
    validate_comment_bounds(min_comments, max_comments)
    annotators_before = {v.annotator_id for v in corpus.verdicts}
    kept = [
        v for v in corpus.verdicts
        if min_comments <= len(corpus.annotator_index[v.annotator_id]) <= max_comments
    ]
    report = FilterReport(
        min_comments=min_comments,
        max_comments=max_comments,
        n_annotators_before=len(annotators_before),
        n_annotators_kept=len({v.annotator_id for v in kept}),
        n_verdicts_before=len(corpus.verdicts),
        n_verdicts_kept=len(kept),
    )
    filtered = Corpus(
        posts=corpus.posts,
        comments=corpus.comments,
        verdicts=kept,
        annotator_index=dict(corpus.annotator_index),
    )
    return filtered, report


@dataclass
class SplitSpec:
    """Assignment of every verdict index to train/val/test."""

    kind: str
    ratios: tuple[float, float, float]
    seed: int
    assignment: dict[int, str]

    def indices(self, partition: str) -> list[int]:
        if partition not in PARTITIONS:
            raise ValueError(f"unknown partition {partition!r}")
        return sorted(i for i, p in self.assignment.items() if p == partition)

    def sizes(self) -> dict[str, int]:
        out = {p: 0 for p in PARTITIONS}
        for p in self.assignment.values():
            out[p] += 1
        return out


def validate_ratios(ratios) -> tuple[float, float, float]:
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3:
        raise ValueError("ratios must have exactly three entries (train, val, test)")
    if any(r <= 0 for r in ratios):
        raise ValueError(f"ratios must be positive: {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1: {ratios}")
    return ratios


def _largest_remainder_sizes(n: int, ratios) -> list[int]:
    exact = [r * n for r in ratios]
    base = [math.floor(e) for e in exact]
    leftover = n - sum(base)
    # hand leftover units to the largest fractional parts; ties go to the
    # earlier partition so the result is order-deterministic
    order = sorted(range(3), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def make_split(corpus: Corpus, kind: str, ratios=SPLIT_RATIOS, seed: int = 0) -> SplitSpec:
    """Partition verdicts into train/val/test under one of three regimes.

    verdict: uniform over verdicts; sizes match ratios exactly up to
    rounding (largest-remainder).

    situation / author: all verdicts sharing a post (resp. annotator) move
    as one group. Groups are shuffled with the seed and each is assigned to
    the partition with the largest remaining verdict-count deficit, so
    partition sizes track the ratios as closely as group sizes allow.
    """
    if kind not in SPLIT_KINDS:
        raise ValueError(f"unknown split kind {kind!r}; expected one of {SPLIT_KINDS}")
    ratios = validate_ratios(ratios)
    n = len(corpus.verdicts)
    if n == 0:
        raise CorpusError("cannot split an empty verdict list")
    rng = random.Random(seed)
    assignment: dict[int, str] = {}

    if kind == "verdict":
        indices = list(range(n))
        rng.shuffle(indices)
        sizes = _largest_remainder_sizes(n, ratios)
        pos = 0
        for part, size in zip(PARTITIONS, sizes):
            for i in indices[pos:pos + size]:
                assignment[i] = part
            pos += size
        return SplitSpec(kind=kind, ratios=ratios, seed=seed, assignment=assignment)

    key = (lambda v: v.post_id) if kind == "situation" else (lambda v: v.annotator_id)
    groups: dict[str, list[int]] = defaultdict(list)
    for i, v in enumerate(corpus.verdicts):
        groups[key(v)].append(i)
    if len(groups) < len(PARTITIONS):
        raise CorpusError(
            f"{kind} split needs at least {len(PARTITIONS)} groups, got {len(groups)}"
        )
    group_keys = sorted(groups)
    rng.shuffle(group_keys)
    targets = [r * n for r in ratios]
    filled = [0, 0, 0]
    for gk in group_keys:
        deficits = [targets[i] - filled[i] for i in range(3)]
        part_idx = max(range(3), key=lambda i: (deficits[i], -i))
        for vi in groups[gk]:
            assignment[vi] = PARTITIONS[part_idx]
        filled[part_idx] += len(groups[gk])
    return SplitSpec(kind=kind, ratios=ratios, seed=seed, assignment=assignment)


@dataclass
class SplitViolation:
    kind: str  # "coverage" | "shared_post" | "shared_annotator"
    subject: str
    detail: str


@dataclass
class SplitReport:
    violations: list[SplitViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def messages(self) -> list[str]:
        return [f"{v.kind}: {v.subject}: {v.detail}" for v in self.violations]


def verify_split(spec: SplitSpec, corpus: Corpus) -> SplitReport:
    """Check a split against the corpus; empty report iff all invariants hold.

    Every verdict must be assigned to exactly one known partition; under
    situation (author) splits no post (annotator) may appear in two
    partitions. Violating ids are listed individually.
    """
    report = SplitReport()
    n = len(corpus.verdicts)
    expected = set(range(n))
    got = set(spec.assignment)
    for i in sorted(expected - got):
        report.violations.append(SplitViolation("coverage", str(i), "verdict not assigned"))
    for i in sorted(got - expected):
        report.violations.append(SplitViolation("coverage", str(i), "assignment for unknown verdict index"))
    for i, part in sorted(spec.assignment.items()):
        if part not in PARTITIONS:
            report.violations.append(SplitViolation("coverage", str(i), f"unknown partition {part!r}"))

    def check_disjoint(keyfn, kind: str):
        seen: dict[str, set[str]] = defaultdict(set)
        for i, v in enumerate(corpus.verdicts):
            part = spec.assignment.get(i)
            if part in PARTITIONS:
                seen[keyfn(v)].add(part)
        for gid in sorted(seen):
            parts = seen[gid]
            if len(parts) > 1:
                report.violations.append(
                    SplitViolation(kind, gid, f"appears in {','.join(sorted(parts))}")
                )

    if spec.kind == "situation":
        check_disjoint(lambda v: v.post_id, "shared_post")
    elif spec.kind == "author":
        check_disjoint(lambda v: v.annotator_id, "shared_annotator")
    return report


def save_split(spec: SplitSpec, path) -> None:
    """Write a split as JSONL: a header object, then one row per verdict."""
    header = {"kind": spec.kind, "ratios": list(spec.ratios), "seed": spec.seed}
    write_jsonl(path, [header, *({"verdict_index": i, "partition": spec.assignment[i]}
                                 for i in sorted(spec.assignment))])


def load_split(path) -> SplitSpec:
    path = Path(path)
    rows = list(iter_jsonl(path))
    if not rows:
        raise CorpusError(f"{path.name}: empty split file")
    _, header = rows[0]
    for key in ("kind", "ratios", "seed"):
        if key not in header:
            raise CorpusError(f"{path.name}: split header missing {key!r}")
    assignment: dict[int, str] = {}
    for lineno, rec in rows[1:]:
        try:
            assignment[int(rec["verdict_index"])] = str(rec["partition"])
        except (KeyError, TypeError, ValueError):
            raise CorpusError(f"{path.name} line {lineno}: bad split row")
    return SplitSpec(
        kind=str(header["kind"]),
        ratios=tuple(float(r) for r in header["ratios"]),
        seed=int(header["seed"]),
        assignment=assignment,
    )
