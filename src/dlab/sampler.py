"""Per-annotator context sampling for (annotator, post) prediction pairs.

Four strategies: random or similarity-ranked, over whole comments or single
sentences. Sampling draws only from the annotator's background comments, so
the judged situation can never leak into its own context. Randomness is
derived per (seed, annotator, post), making every pair independently
reproducible regardless of evaluation order.
"""
from __future__ import annotations

import math
import random
import warnings
from collections import Counter
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from .corpus import Corpus, CorpusError, iter_jsonl
from .disclosure import CategoryProfile, HighLevelCategory
from .embed import EmbeddingMatrix, cosine_scores, rank_scores
from .seeds import derive_seed

STRATEGIES = (
    "random_comments",
    "random_sentences",
    "similar_comments",
    "similar_sentences",
)
SENTENCE_STRATEGIES = ("random_sentences", "similar_sentences")

_REPLICATION_MAX_SAMPLES = 5


@dataclass(frozen=True)
class CategoryFilter:
    """Restrict the candidate pool to one category (theory or cluster)."""

    theory: HighLevelCategory | None = None
    cluster: int | None = None

    def __post_init__(self):
        if (self.theory is None) == (self.cluster is None):
            raise ValueError("set exactly one of theory / cluster")

    def admits(self, profile: CategoryProfile) -> bool:
        if self.theory is not None:
            return self.theory in profile.theory_categories
        return profile.cluster_id == self.cluster

    def label(self) -> str:
        if self.theory is not None:
            return f"theory:{self.theory.value}"
        return f"cluster:{self.cluster}"

    @classmethod
    def parse(cls, token: str, clusters: int | None) -> list["CategoryFilter | None"]:
        """The filters a category token stands for: [None] for 'none', the
        filter whose label() it is, or its whole family for 'theory:*' and
        'cluster:*'. `clusters` is the number of clusters the profiles carry,
        None when they carry none."""
        if token == "none":
            return [None]
        family, _, value = token.partition(":")
        if family == "theory":
            filters = [cls(theory=c) for c in HighLevelCategory]
        elif family == "cluster" and clusters is not None:
            filters = [cls(cluster=i) for i in range(clusters)]
        elif family == "cluster":
            raise ValueError(f"{token!r} filters by cluster, but there are no clusters")
        else:
            raise ValueError(f"bad category token {token!r}")
        chosen = [f for f in filters if token in (f"{family}:*", f.label())]
        if not chosen:
            raise ValueError(f"unknown theory category {value!r}" if family == "theory" else
                             f"cluster id {value!r} out of range for k={clusters}")
        return chosen


@dataclass(frozen=True)
class SamplerConfig:
    strategy: str
    max_samples: int
    category_filter: CategoryFilter | None = None
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {self.max_samples}")
        # the reference protocol pairs category filters with similarity
        # ranking over whole comments and at most 5 samples
        if self.category_filter is not None and not (
                self.strategy == "similar_comments"
                and self.max_samples <= _REPLICATION_MAX_SAMPLES):
            raise ValueError(
                "category filters pair with similar_comments and "
                f"max_samples <= {_REPLICATION_MAX_SAMPLES}; got "
                f"{self.strategy} / {self.max_samples}")

    @property
    def unit(self) -> str:
        """What the strategy samples: "comment" or "sentence"."""
        return "sentence" if self.strategy in SENTENCE_STRATEGIES else "comment"


@dataclass(frozen=True, slots=True, init=False)
class ContextItem:
    source_comment_id: str
    text: str
    similarity: float | None  # None under random strategies
    unit: str  # "comment" | "sentence"
    sentence_index: int | None = None

    def __init__(self, source_comment_id: str, text: str, similarity: float | None,
                 unit: str, sentence_index: int | None = None):
        # the generated frozen __init__ sets each field through
        # object.__setattr__; the slots' own setters build an item in about
        # half the time, and the frozen __setattr__ still refuses every
        # later assignment
        _set_source_comment_id(self, source_comment_id)
        _set_text(self, text)
        _set_similarity(self, similarity)
        _set_unit(self, unit)
        _set_sentence_index(self, sentence_index)


(_set_source_comment_id, _set_text, _set_similarity, _set_unit,
 _set_sentence_index) = (getattr(ContextItem, f.name).__set__ for f in fields(ContextItem))


@dataclass
class ContextSet:
    annotator_id: str
    post_id: str
    items: list[ContextItem] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.items)


def annotator_pool(corpus: Corpus, annotator_id: str,
                   profiles: dict[str, CategoryProfile] | None,
                   filt: CategoryFilter | None,
                   unit: str = "comment") -> tuple[list[tuple], list[int]]:
    """The annotator's whole pool of units, (comment id, sentence index,
    text) in pool order, and the positions of those the category filter
    admits (all of them without a filter)."""
    cids = corpus.annotator_index[annotator_id]
    if unit == "sentence":
        units = [
            (cid, idx, corpus.comments[cid].text[a:b])
            for cid in cids
            for idx, (a, b) in enumerate(corpus.comments[cid].sentence_spans())
        ]
    else:
        units = [(cid, None, corpus.comments[cid].text) for cid in cids]
    if filt is None:
        return units, list(range(len(units)))
    if profiles is None:
        raise ValueError("category filter requires comment profiles")
    return units, [i for i, (cid, _, _) in enumerate(units) if filt.admits(profiles[cid])]


def sample_context(pairs, corpus: Corpus,
                   embeddings: EmbeddingMatrix | None,
                   profiles: dict[str, CategoryProfile] | None, *,
                   cfg: SamplerConfig,
                   sentences: EmbeddingMatrix | None = None,
                   scores: dict | None = None) -> list[ContextSet]:
    """Draw up to max_samples context items for each (annotator, post) pair.

    Similarity strategies rank the candidate pool by cosine against the post
    (title + body) row of `embeddings`, breaking ties by comment id, then
    text; comments are looked up in `embeddings`, sentences in `sentences`,
    the matrix of sentence texts (pipeline.embed_sentences). Random
    strategies sample uniformly without replacement with a per-pair derived
    RNG. Fewer candidates than max_samples returns them all; an empty pool
    returns an empty context.

    Each annotator's pool is built once per call. `scores` memoises each
    pair's cosine scores over the annotator's whole, unfiltered pool, keyed
    by (unit, annotator, post); passing one dict to every call on the same
    corpus and matrices scores each pair once, whatever the category filter.
    The pairs a call must score are scored per annotator: its pool rows
    against all its posts in one cosine_scores call, which reads the rows
    from the matrix one chunk of at most 1 MB at a time.
    """
    unit = cfg.unit
    similar = cfg.strategy.startswith("similar_")
    scores = {} if scores is None else scores
    pools: dict[str, tuple] = {}
    unscored: dict[str, dict[str, None]] = {}  # annotator -> posts, in pair order
    for annotator_id, post_id in pairs:
        if annotator_id not in corpus.annotator_index:
            raise ValueError(f"unknown annotator {annotator_id!r}")
        if post_id not in corpus.posts:
            raise ValueError(f"unknown post {post_id!r}")
        if annotator_id not in pools:
            units, admitted = annotator_pool(corpus, annotator_id, profiles,
                                             cfg.category_filter, unit)
            if similar:
                # by (comment id, text), equal keys in pool order: the key
                # order rank_scores breaks score ties by
                admitted = np.array(sorted(admitted, key=lambda i: (units[i][0], units[i][2])),
                                    dtype=np.intp)
            pools[annotator_id] = (units, admitted)
        if not similar:
            continue
        if unit == "sentence" and sentences is None:
            raise ValueError("similar_sentences requires a sentence matrix")
        if len(pools[annotator_id][1]):
            if embeddings is None or post_id not in embeddings:
                raise ValueError(f"no embedding for post {post_id!r}")
            if (unit, annotator_id, post_id) not in scores:
                unscored.setdefault(annotator_id, {})[post_id] = None

    matrix = sentences if unit == "sentence" else embeddings
    for annotator_id, posts in unscored.items():
        rows = [matrix.row_index(text if unit == "sentence" else cid)
                for cid, _, text in pools[annotator_id][0]]
        queries = embeddings.take([embeddings.row_index(post_id) for post_id in posts])
        block = cosine_scores(queries, matrix, rows)
        for post_id, row in zip(posts, block):
            scores[(unit, annotator_id, post_id)] = row

    out = []
    for annotator_id, post_id in pairs:
        units, admitted = pools[annotator_id]
        if not similar:
            rng = random.Random(derive_seed(cfg.seed, annotator_id, post_id))
            chosen = [(units[i], None) for i in
                      rng.sample(admitted, min(cfg.max_samples, len(admitted)))]
        elif len(admitted):
            ranked = rank_scores(scores[(unit, annotator_id, post_id)], admitted,
                                 cfg.max_samples)
            chosen = [(units[i], score) for i, score in ranked]
        else:
            chosen = []
        items = [ContextItem(cid, text, score, unit, sentence_index=idx)
                 for (cid, idx, text), score in chosen]
        out.append(ContextSet(annotator_id=annotator_id, post_id=post_id, items=items))
    return out


def full_pool_context(pairs, corpus: Corpus) -> list[ContextSet]:
    """Every background comment of each pair's annotator, in id order (All
    Comments). Each annotator's items are built once per call."""
    pools: dict[str, list[ContextItem]] = {}
    out = []
    for annotator_id, post_id in pairs:
        if annotator_id not in pools:
            if annotator_id not in corpus.annotator_index:
                raise ValueError(f"unknown annotator {annotator_id!r}")
            units, _ = annotator_pool(corpus, annotator_id, None, None)
            pools[annotator_id] = [ContextItem(cid, text, None, "comment")
                                   for cid, _, text in units]
        out.append(ContextSet(annotator_id, post_id, list(pools[annotator_id])))
    return out


# ---------------------------------------------------------------------------
# diagnostics

@dataclass
class CoverageTable:
    """What categories the sampled items actually covered, in percent.

    A multi-category comment counts toward each of its theory categories,
    so the theory row can exceed 100; "none" holds items without any
    category (resp. without a cluster id).
    """

    n_items: int
    theory_pct: dict[str, float]
    cluster_pct: dict[str, float]


def category_coverage(contexts: list[ContextSet],
                      profiles: dict[str, CategoryProfile]) -> CoverageTable:
    theory_counts = Counter()
    cluster_counts = Counter()
    n_items = 0
    for ctx in contexts:
        for item in ctx.items:
            n_items += 1
            prof = profiles[item.source_comment_id]
            if prof.theory_categories:
                for cat in prof.theory_categories:
                    theory_counts[cat.value] += 1
            else:
                theory_counts["none"] += 1
            if prof.cluster_id is not None:
                cluster_counts[str(prof.cluster_id)] += 1
            else:
                cluster_counts["none"] += 1
    def pct(counts: Counter) -> dict[str, float]:
        if n_items == 0:
            return {}
        return {key: 100.0 * counts[key] / n_items for key in sorted(counts)}
    return CoverageTable(
        n_items=n_items, theory_pct=pct(theory_counts), cluster_pct=pct(cluster_counts)
    )


@dataclass
class BoxStats:
    lower_whisker: float
    q1: float
    median: float
    q3: float
    upper_whisker: float


def box_stats(values) -> BoxStats:
    """Tukey box summary: quartiles plus whiskers at the last points within
    1.5 IQR of the box."""
    vals = np.asarray(sorted(values), dtype=np.float64)
    if vals.size == 0:
        raise ValueError("box_stats needs at least one value")
    q1, med, q3 = np.percentile(vals, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    in_lo = vals[vals >= q1 - 1.5 * iqr]
    in_hi = vals[vals <= q3 + 1.5 * iqr]
    return BoxStats(
        lower_whisker=float(in_lo[0]),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        upper_whisker=float(in_hi[-1]),
    )


@dataclass
class DiversityReport:
    """How much of each annotator's pool similarity sampling actually touches.

    coverage: percent of the annotator's comments sampled at least once
    across their contexts. rank_ratio: count of their most-sampled comment
    over their second most-sampled (annotators with fewer than two distinct
    sampled comments are skipped).
    """

    coverage_values: list[float]
    coverage: BoxStats
    rank_ratio_values: list[float]
    rank_ratio: BoxStats | None


def similar_post_diversity(contexts: list[ContextSet], corpus: Corpus) -> DiversityReport:
    per_annotator: dict[str, Counter] = {}
    for ctx in contexts:
        per_annotator.setdefault(ctx.annotator_id, Counter())
        for item in ctx.items:
            per_annotator[ctx.annotator_id][item.source_comment_id] += 1

    coverage_values: list[float] = []
    ratio_values: list[float] = []
    for aid in sorted(per_annotator):
        pool = len(corpus.annotator_index.get(aid, []))
        counts = per_annotator[aid]
        if pool == 0:
            warnings.warn(f"annotator {aid!r} has an empty pool; skipped in coverage")
        else:
            coverage_values.append(100.0 * len(counts) / pool)
        top = counts.most_common(2)
        if len(top) >= 2:
            ratio_values.append(top[0][1] / top[1][1])
    if not coverage_values:
        raise ValueError("no annotators with non-empty pools")
    return DiversityReport(
        coverage_values=coverage_values,
        coverage=box_stats(coverage_values),
        rank_ratio_values=ratio_values,
        rank_ratio=box_stats(ratio_values) if ratio_values else None,
    )


# ---------------------------------------------------------------------------
# serialization

_CONTEXT_LINE = '{"annotator_id": %s, "post_id": %s, "items": [%s]}\n'
_CONTEXT_ITEM = '{"comment_id": %s, "similarity": %s, "unit": %s, "sentence_index": %s}'


class _Quoted(dict):
    """JSON string literals of the strings looked up, each encoded once."""

    def __missing__(self, text: str) -> str:
        quoted = self[text] = encode_basestring(text)
        return quoted


def _json_number(value) -> str:
    """An int, float or None as json.dumps writes it."""
    if value is None:
        return "null"
    if isinstance(value, int):
        return int.__repr__(value)
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


def dump_contexts(contexts: list[ContextSet], path) -> None:
    """JSONL: one context per line; texts are re-derivable from the corpus.

    Each line is the one json.dumps(record, ensure_ascii=False) writes for
    {"annotator_id", "post_id", "items": [{"comment_id", "similarity",
    "unit", "sentence_index"}, ...]}, filled into a template.
    """
    quoted = _Quoted()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_CONTEXT_LINE % (
            quoted[ctx.annotator_id], quoted[ctx.post_id], ", ".join([
                _CONTEXT_ITEM % (quoted[item.source_comment_id], _json_number(item.similarity),
                                 quoted[item.unit], _json_number(item.sentence_index))
                for item in ctx.items]))
            for ctx in contexts)


def load_contexts(path, corpus: Corpus) -> list[ContextSet]:
    """Rebuild dumped contexts, resolving texts against the corpus, so a
    training run can be repeated without re-sampling. A line that is not a
    dumped context, or names a unit, comment or sentence the corpus lacks,
    is a CorpusError naming the file and line."""
    path = Path(path)
    out: list[ContextSet] = []
    for lineno, rec in iter_jsonl(path):
        where = f"{path.name} line {lineno}"
        try:
            items = [_load_item(it, corpus, where) for it in rec["items"]]
            out.append(ContextSet(rec["annotator_id"], rec["post_id"], items))
        except (KeyError, TypeError) as exc:
            raise CorpusError(f"{where}: malformed context record ({type(exc).__name__}: {exc})")
    return out


def _load_item(it: dict, corpus: Corpus, where: str) -> ContextItem:
    cid, index, unit = it["comment_id"], it["sentence_index"], it["unit"]
    comment = corpus.comments.get(cid)
    if comment is None:
        raise CorpusError(f"{where}: unknown comment {cid!r}")
    if unit not in ("comment", "sentence"):
        raise CorpusError(f"{where}: unknown unit {unit!r}")
    text = comment.text
    if unit == "sentence":
        spans = comment.sentence_spans()
        if not (isinstance(index, int) and 0 <= index < len(spans)):
            raise CorpusError(f"{where}: comment {cid!r} has no sentence {index}")
        a, b = spans[index]
        text = text[a:b]
    return ContextItem(cid, text, it["similarity"], unit, sentence_index=index)
