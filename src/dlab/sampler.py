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
import struct
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from .corpus import Corpus, CorpusError, iter_jsonl
from .disclosure import THEORY_BITS, HighLevelCategory, Profiles
from .embed import EmbeddingMatrix, chunks, cosine_scores, rank_scores, ranges
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

    def mask(self, profiles: Profiles) -> np.ndarray:
        """Whether the filter admits each row of the profiles."""
        if self.theory is not None:
            return (profiles.theory & THEORY_BITS[self.theory]) != 0
        return profiles.cluster == self.cluster

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
        for name in ("max_samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {self.max_samples}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
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


@dataclass(frozen=True, eq=False)
class Units:
    """A table of context units, each a whole comment or one sentence of it:
    its comment id, its text, and its sentence index (-1 for a whole
    comment)."""

    comment_ids: list[str]
    texts: Sequence[str]
    sentence_index: np.ndarray

    def __len__(self) -> int:
        return len(self.comment_ids)

    def keys(self, positions) -> list[str]:
        """The matrix key of each unit at `positions`: a comment's id, or a
        sentence's text."""
        return [self.texts[i] if s >= 0 else self.comment_ids[i]
                for i, s in zip(positions, self.sentence_index[positions].tolist())]


class _Texts(Sequence):
    """The texts of a table's units, each read from its comment or cut from
    it when asked for, so that a run's tables hold no copy of them."""

    def __init__(self, comments: dict, comment_ids: list[str], sentence_index: np.ndarray):
        self.comments, self.comment_ids = comments, comment_ids
        self.sentence_index = sentence_index

    def __len__(self) -> int:
        return len(self.comment_ids)

    def __getitem__(self, i: int) -> str:
        comment, index = self.comments[self.comment_ids[i]], self.sentence_index[i]
        if index < 0:
            return comment.text
        a, b = comment.sentence_spans()[index]
        return comment.text[a:b]


_NO_UNITS = Units([], [], np.zeros(0, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class Contexts:
    """The contexts of n (annotator, post) pairs, as columns.

    Context i is the pair (annotator_ids[i], post_ids[i]) and holds the items
    offsets[i]:offsets[i + 1]; item j is unit positions[j] of `units`, with
    similarity[j] when the items carry one (`similarity` is None under
    random strategies and whole pools).
    """

    annotator_ids: list[str]
    post_ids: list[str]
    offsets: np.ndarray
    units: Units
    positions: np.ndarray
    similarity: np.ndarray | None = None

    def __post_init__(self):
        n, m = len(self.annotator_ids), len(self.positions)
        offsets = self.offsets
        if len(self.post_ids) != n or offsets.shape != (n + 1,):
            raise ValueError(f"{n} annotator ids need {n} post ids and {n + 1} offsets")
        if offsets[0] != 0 or offsets[-1] != m or (np.diff(offsets) < 0).any():
            raise ValueError(f"offsets must rise from 0 to the {m} items")
        if m and (self.positions.min() < 0 or self.positions.max() >= len(self.units)):
            raise ValueError(f"item positions must lie in [0, {len(self.units)})")
        if self.similarity is not None and self.similarity.shape != (m,):
            raise ValueError(f"similarity must hold one float per item, {m}")

    def __len__(self) -> int:
        return len(self.annotator_ids)

    def used_units(self) -> tuple[np.ndarray, np.ndarray]:
        """The table positions that some item names, ascending, and a lookup
        from table position to place among them: lookup[positions] numbers
        each item's unit."""
        named = np.zeros(len(self.units), dtype=bool)
        named[self.positions] = True
        used = np.flatnonzero(named)
        lookup = np.zeros(len(self.units), dtype=np.intp)
        lookup[used] = np.arange(len(used))
        return used, lookup

    @classmethod
    def of(cls, pairs, units: Units, counts, positions,
           similarity: np.ndarray | None = None) -> "Contexts":
        """The contexts of `pairs`, pair i holding the next counts[i] items."""
        offsets = np.zeros(len(pairs) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls([a for a, _ in pairs], [p for _, p in pairs], offsets, units,
                   np.asarray(positions, dtype=np.intp), similarity)

    @classmethod
    def empty(cls, pairs) -> "Contexts":
        """An empty context for each pair (No Comments)."""
        return cls.of(pairs, _NO_UNITS, np.zeros(len(pairs), dtype=np.int64), [])

    @classmethod
    def concat(cls, parts: list["Contexts"]) -> "Contexts":
        """The contexts of `parts` one after another. The parts point into
        one unit table, and carry similarities all or none."""
        units, sims = parts[0].units, [part.similarity for part in parts]
        if any(part.units is not units for part in parts):
            raise ValueError("contexts to concatenate must point into one unit table")
        missing = [sim is None for sim in sims]
        if any(missing) and not all(missing):
            raise ValueError("some contexts carry similarities and others none")
        shifts = np.cumsum([0] + [len(part.positions) for part in parts])
        return cls([a for part in parts for a in part.annotator_ids],
                   [p for part in parts for p in part.post_ids],
                   np.concatenate([shifts[:1]] + [part.offsets[1:] + shift
                                                  for part, shift in zip(parts, shifts)]),
                   units, np.concatenate([part.positions for part in parts]),
                   None if any(missing) else np.concatenate(sims))

    def take(self, which) -> "Contexts":
        """The contexts at places `which`, in that order, each with its
        items, pointing into the same unit table."""
        which = np.asarray(which, dtype=np.intp)
        counts = np.diff(self.offsets)[which]
        chosen = ranges(self.offsets[which], counts)
        return Contexts.of([(self.annotator_ids[i], self.post_ids[i]) for i in which.tolist()],
                           self.units, counts, self.positions[chosen],
                           None if self.similarity is None else self.similarity[chosen])


class Pools:
    """Every annotator's pool of comments and of sentences, and the units
    each category filter admits, built on first use and kept.

    Each unit's pools lie in one table, an annotator's a run of it in pool
    order: its comments in id order, or their sentences in order. A run
    keeps one Pools for all its conditions, as it keeps the scores memo.
    """

    def __init__(self, corpus: Corpus, profiles: Profiles | None = None):
        self.corpus, self.profiles = corpus, profiles
        self._tables: dict[str, tuple[Units, dict[str, tuple[int, int]]]] = {}
        self._rows: dict[str, np.ndarray] = {}  # unit -> each unit's profile row
        self._masks: dict[tuple, np.ndarray] = {}
        self._admitted: dict[tuple, dict[str, range | np.ndarray]] = {}
        self._keyed: dict[str, dict[str, np.ndarray]] = {}

    def table(self, unit: str) -> tuple[Units, dict[str, tuple[int, int]]]:
        """The unit's table and each annotator's (start, stop) in it."""
        if unit not in self._tables:
            comments, spans = self.corpus.comments, {}
            cids, sentence_index = [], []
            for annotator_id, pool in self.corpus.annotator_index.items():
                start = len(cids)
                for cid in pool:
                    if unit == "sentence":
                        count = len(comments[cid].sentence_spans())
                        cids += [cid] * count
                        sentence_index += range(count)
                    else:
                        cids.append(cid)
                spans[annotator_id] = (start, len(cids))
            # a comment table's indexes are one -1 seen len(cids) times
            index = (np.array(sentence_index, dtype=np.int32) if unit == "sentence"
                     else np.broadcast_to(np.int32(-1), (len(cids),)))
            self._tables[unit] = (Units(cids, _Texts(comments, cids, index), index), spans)
        return self._tables[unit]

    def mask(self, filt: CategoryFilter, unit: str = "comment") -> np.ndarray:
        """Whether the filter admits each unit of the table."""
        key = (unit, filt)
        if key not in self._masks:
            if self.profiles is None:
                raise ValueError("category filter requires comment profiles")
            if unit not in self._rows:
                self._rows[unit] = self.profiles.rows(self.table(unit)[0].comment_ids)
            self._masks[key] = filt.mask(self.profiles)[self._rows[unit]]
        return self._masks[key]

    def admitted(self, filt: CategoryFilter | None,
                 unit: str = "comment") -> dict[str, range | np.ndarray]:
        """Each annotator's table positions of the units the filter admits,
        in pool order: a range of all of them without a filter."""
        key = (unit, filt)
        if key not in self._admitted:
            spans = self.table(unit)[1]
            if filt is None:
                admitted = {a: range(*span) for a, span in spans.items()}
            else:
                mask = self.mask(filt, unit)
                admitted = {a: np.flatnonzero(mask[start:stop]) + start
                            for a, (start, stop) in spans.items()}
            self._admitted[key] = admitted
        return self._admitted[key]

    def keyed(self, unit: str) -> dict[str, np.ndarray]:
        """Each annotator's pool, as places in it, by (comment id, text),
        equal keys in pool order: the key order rank_scores breaks score
        ties by."""
        if unit not in self._keyed:
            units, spans = self.table(unit)
            cids, texts = units.comment_ids, units.texts
            self._keyed[unit] = {
                a: np.array(sorted(range(start, stop), key=lambda i: (cids[i], texts[i])),
                            dtype=np.intp) - start
                for a, (start, stop) in spans.items()}
        return self._keyed[unit]


def _check_pairs(pairs, corpus: Corpus) -> None:
    for annotator_id, post_id in pairs:
        if annotator_id not in corpus.annotator_index:
            raise ValueError(f"unknown annotator {annotator_id!r}")
        if post_id not in corpus.posts:
            raise ValueError(f"unknown post {post_id!r}")


class Ranking:
    """Each pair's pool of one unit in rank order, for a list of pairs.

    A pool ranks by descending cosine score against the pair's post, then by
    (comment id, text), then by pool position: each row of rank_scores over
    the whole pool, ties and the signs of zero scores included. The units a
    category filter admits keep that order among themselves, so the first k
    of them are that filter's ranking cut at k: every similarity condition
    of the unit, filtered or not, selects its contexts from one Ranking.

    The ranking is kept cut at `depth` entries a pair (None: whole pools),
    ragged: pair i's entries are offsets[i]:offsets[i + 1], each its place
    in the pool (uint16, or int32 when a pool holds more than 65,536 units)
    and its float64 score, 10 bytes an entry. The first sample_context call
    given the ranking ranks the pairs, from the scores memo; every later
    call on the same pairs selects from it.
    """

    def __init__(self, pairs, unit: str, depth: int | None = None):
        if unit not in ("comment", "sentence"):
            raise ValueError(f"unknown unit {unit!r}")
        if depth is not None and depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.pairs, self.unit, self.depth = pairs, unit, depth
        self.offsets: np.ndarray | None = None  # None until ranked
        self.starts = self.places = self.similarity = None

    def serves(self, cfg: SamplerConfig) -> bool:
        """Whether the cut keeps every entry the sampler can select."""
        return cfg.unit == self.unit and (self.depth is None or (
            cfg.category_filter is None and cfg.max_samples <= self.depth))

    def rank(self, scores: dict, pools: Pools) -> None:
        """Rank each pair's memoised scores, scores[unit, annotator, post]
        over the annotator's whole pool in `pools`, by the pool's key order:
        each annotator's pairs in one rank_scores call."""
        pairs, unit = self.pairs, self.unit
        spans, keyed = pools.table(unit)[1], pools.keyed(unit)
        groups: dict[str, list[int]] = {}  # annotator -> its pairs' places
        for i, (annotator_id, _) in enumerate(pairs):
            groups.setdefault(annotator_id, []).append(i)
        sizes = {a: len(keyed[a]) for a in groups}
        counts = np.zeros(len(pairs), dtype=np.int64)
        for annotator_id, places in groups.items():
            counts[places] = min(sizes[annotator_id], self.depth or sizes[annotator_id])
        offsets = np.zeros(len(pairs) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        widest = max(sizes.values(), default=0)
        self.places = np.empty(offsets[-1], dtype=np.uint16 if widest <= 1 << 16 else np.int32)
        self.similarity = np.empty(offsets[-1], dtype=np.float64)
        for annotator_id, places in groups.items():
            order = keyed[annotator_id]
            if len(order):
                block = np.array([scores[unit, annotator_id, pairs[i][1]] for i in places])
                chosen, values = rank_scores(block, order, self.depth or len(order))
                slots = offsets[places][:, None] + np.arange(chosen.shape[1])
                self.places[slots] = chosen
                self.similarity[slots] = values
        self.starts = np.array([spans[a][0] for a, _ in pairs], dtype=np.int64)
        self.offsets = offsets

    def select(self, admitted: np.ndarray | None, k: int):
        """Each pair's first k entries whose unit `admitted` (a mask over
        the table, None for all units) holds: their count per pair, their
        table positions and their scores, in pair order."""
        offsets = self.offsets
        lengths = np.diff(offsets)
        if admitted is None:
            counts = np.minimum(lengths, k)
            chosen = ranges(offsets[:-1], counts)
        else:
            held = admitted[np.repeat(self.starts, lengths) + self.places]
            seen = np.zeros(len(held) + 1, dtype=np.int64)
            np.cumsum(held, out=seen[1:])
            before = seen[offsets[:-1]]
            counts = np.minimum(seen[offsets[1:]] - before, k)
            chosen = np.flatnonzero(held & (seen[1:] <= np.repeat(before + k, lengths)))
        return (counts, np.repeat(self.starts, counts) + self.places[chosen],
                self.similarity[chosen])


def sample_context(pairs, corpus: Corpus,
                   embeddings: EmbeddingMatrix | None,
                   profiles: Profiles | None, *,
                   cfg: SamplerConfig,
                   sentences: EmbeddingMatrix | None = None,
                   scores: dict | None = None,
                   pools: Pools | None = None,
                   ranking: Ranking | None = None) -> Contexts:
    """Draw up to max_samples context items for each (annotator, post) pair.

    Similarity strategies rank the candidate pool by cosine against the post
    (title + body) row of `embeddings`, breaking ties by comment id, then
    text; comments are looked up in `embeddings`, sentences in `sentences`,
    the matrix of sentence texts (pipeline.embed_sentences). Random
    strategies sample uniformly without replacement with a per-pair derived
    RNG. Fewer candidates than max_samples returns them all; an empty pool
    returns an empty context. The items point into the `pools` table of the
    strategy's unit.

    `pools` (Pools(corpus, profiles), a new one unless given) keeps each
    annotator's pool and admitted units. `scores` memoises each pair's
    cosine scores over the annotator's whole, unfiltered pool, keyed by
    (unit, annotator, post); passing one dict to every call on the same
    corpus and matrices scores each pair once, whatever the category filter.
    The pairs a call must score are scored per annotator: its pool rows
    against all its posts in one cosine_scores call, which reads the rows
    from the matrix one chunk of at most 1 MB at a time.

    A similarity strategy selects from `ranking`, a Ranking of exactly
    these pairs (the same object) and the strategy's unit, cut deep enough
    for the sampler; a new one cut at max_samples unless given (at no cut
    under a category filter). The first call given a ranking scores what
    the memo lacks and ranks the pairs; passing one ranking, one memo and
    one Pools to every call on the same pairs ranks each pair once.
    """
    if pools is None:
        pools = Pools(corpus, profiles)
    elif pools.corpus is not corpus or pools.profiles is not profiles:
        raise ValueError("pools must be built from the same corpus and profiles")
    scores = {} if scores is None else scores
    unit, k, filt = cfg.unit, cfg.max_samples, cfg.category_filter
    _check_pairs(pairs, corpus)
    units, spans = pools.table(unit)
    if not cfg.strategy.startswith("similar_"):
        admitted = pools.admitted(filt, unit)
        counts, chosen = [], []
        for annotator_id, post_id in pairs:
            rng = random.Random(derive_seed(cfg.seed, annotator_id, post_id))
            drawn = rng.sample(admitted[annotator_id], min(k, len(admitted[annotator_id])))
            counts.append(len(drawn))
            chosen += drawn
        return Contexts.of(pairs, units, counts, chosen)

    if ranking is None:
        ranking = Ranking(pairs, unit, k if filt is None else None)
    elif ranking.pairs is not pairs:
        raise ValueError("the ranking ranks another list of pairs")
    elif not ranking.serves(cfg):
        raise ValueError(f"a {ranking.unit} ranking cut at depth {ranking.depth} cannot "
                         f"serve {cfg.strategy} at k={k} with filter {filt}")
    if ranking.offsets is None:
        if unit == "sentence" and sentences is None:
            raise ValueError("similar_sentences requires a sentence matrix")
        _score_pools(pairs, unit, embeddings, sentences, scores, units, spans)
        ranking.rank(scores, pools)
    mask = None if filt is None else pools.mask(filt, unit)
    return Contexts.of(pairs, units, *ranking.select(mask, k))


def _score_pools(pairs, unit: str, embeddings: EmbeddingMatrix | None,
                 sentences: EmbeddingMatrix | None, scores: dict, units: Units,
                 spans: dict[str, tuple[int, int]]) -> None:
    """Put into `scores` each pair's cosine scores over its annotator's
    non-empty pool, unless it holds them: per annotator, its pool rows
    against all its unscored posts in one cosine_scores call."""
    unscored: dict[str, dict[str, None]] = {}  # annotator -> posts, in pair order
    for annotator_id, post_id in pairs:
        start, stop = spans[annotator_id]
        if stop > start:
            if embeddings is None or post_id not in embeddings:
                raise ValueError(f"no embedding for post {post_id!r}")
            if (unit, annotator_id, post_id) not in scores:
                unscored.setdefault(annotator_id, {})[post_id] = None
    matrix = sentences if unit == "sentence" else embeddings
    for annotator_id, posts in unscored.items():
        rows = [matrix.row_index(key) for key in units.keys(range(*spans[annotator_id]))]
        queries = embeddings.take([embeddings.row_index(post_id) for post_id in posts])
        block = cosine_scores(queries, matrix, rows)
        for post_id, row in zip(posts, block):
            scores[(unit, annotator_id, post_id)] = row


def full_pool_context(pairs, corpus: Corpus, pools: Pools | None = None) -> Contexts:
    """Every background comment of each pair's annotator, in id order (All
    Comments), pointing into the comment table of `pools` (a new Pools
    unless given)."""
    if pools is None:
        pools = Pools(corpus)
    _check_pairs(pairs, corpus)
    units, spans = pools.table("comment")
    starts, stops = np.array([spans[a] for a, _ in pairs], dtype=np.int64).reshape(-1, 2).T
    return Contexts.of(pairs, units, stops - starts, ranges(starts, stops - starts))


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


def category_coverage(contexts: Contexts, profiles: Profiles) -> CoverageTable:
    n_items = len(contexts.positions)
    if n_items == 0:
        return CoverageTable(n_items=0, theory_pct={}, cluster_pct={})
    used, lookup = contexts.used_units()
    rows = profiles.rows([contexts.units.comment_ids[i] for i in used.tolist()])
    counts = np.bincount(lookup[contexts.positions])  # items per used unit
    # items per theory mask, and per cluster id + 1 (0 for none): sums of
    # integers, exact in float64
    by_mask = np.bincount(profiles.theory[rows], weights=counts, minlength=1 << len(THEORY_BITS))
    masks = np.arange(len(by_mask))
    theory = {cat.value: by_mask[(masks & bit) != 0].sum() for cat, bit in THEORY_BITS.items()}
    theory["none"] = by_mask[0]
    by_cluster = np.bincount(profiles.cluster[rows] + 1, weights=counts)
    cluster = {"none" if c == 0 else str(c - 1): count for c, count in enumerate(by_cluster)}

    def pct(counts: dict) -> dict[str, float]:
        return {key: 100.0 * float(counts[key]) / n_items
                for key in sorted(counts) if counts[key]}
    return CoverageTable(n_items=n_items, theory_pct=pct(theory), cluster_pct=pct(cluster))


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


def similar_post_diversity(contexts: Contexts, corpus: Corpus) -> DiversityReport:
    annotators = sorted(set(contexts.annotator_ids))
    number = {aid: i for i, aid in enumerate(annotators)}
    owners = np.repeat([number[aid] for aid in contexts.annotator_ids],
                       np.diff(contexts.offsets)).astype(np.int64)
    used, lookup = contexts.used_units()
    comments = np.unique(np.array([contexts.units.comment_ids[i] for i in used.tolist()],
                                  dtype=object), return_inverse=True)[1]
    # each (annotator, comment) sampled, by annotator, and how often
    pairs, counts = np.unique(np.stack([owners, comments[lookup[contexts.positions]]]),
                              axis=1, return_counts=True)
    distinct = np.bincount(pairs[0], minlength=len(annotators)).tolist()
    # each annotator's counts, largest first
    ranked = counts[np.lexsort((-counts, pairs[0]))].tolist()
    coverage_values: list[float] = []
    ratio_values: list[float] = []
    first = 0
    for aid, n in zip(annotators, distinct):
        pool = len(corpus.annotator_index.get(aid, []))
        if pool == 0:
            warnings.warn(f"annotator {aid!r} has an empty pool; skipped in coverage")
        else:
            coverage_values.append(100.0 * n / pool)
        if n >= 2:
            ratio_values.append(ranked[first] / ranked[first + 1])
        first += n
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

_CONTEXT_HEAD = '{"annotator_id": %s, "post_id": %s, "items": ['
_ITEM_HEAD = '{"comment_id": %s, "similarity": '
_ITEM_TAILS = (', "unit": "comment", "sentence_index": null}',
               ', "unit": "sentence", "sentence_index": %d}')
# context items dump_contexts formats at a time
_DUMP_CHUNK_ITEMS = 1024


class _Quoted(dict):
    """JSON string literals of the strings looked up, each encoded once."""

    def __missing__(self, text: str) -> str:
        quoted = self[text] = encode_basestring(text)
        return quoted


class JsonNumbers(dict):
    """JSON numbers, as json.dumps writes them, of the float64 values
    looked up by their bits (int64), each formatted once: -0.0 and 0.0 have
    their own bits, and a NaN, equal to nothing, is found by its bits."""

    def __missing__(self, bits: int) -> str:
        value = _FLOAT.unpack(_BITS.pack(bits))[0]
        if math.isfinite(value):
            number = float.__repr__(value)
        else:
            number = "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
        self[bits] = number
        return number


_BITS, _FLOAT = struct.Struct("=q"), struct.Struct("=d")


def dump_contexts(contexts: Contexts, path, numbers: JsonNumbers | None = None) -> None:
    """JSONL: one context per line; texts are re-derivable from the corpus.

    Each line is the one json.dumps(record, ensure_ascii=False) writes for
    {"annotator_id", "post_id", "items": [{"comment_id", "similarity",
    "unit", "sentence_index"}, ...]}, filled into a template: the head and
    tail of each unit an item names are formatted once, each similarity
    once per `numbers` memo (a new one unless given; a run passes one to
    every dump), and each chunk of contexts (at most _DUMP_CHUNK_ITEMS
    items, unless one context alone holds more) is written as one join of
    its line heads, its items' heads, similarities and tails, and its line
    ends.
    """
    quoted = _Quoted()
    numbers = JsonNumbers() if numbers is None else numbers
    units, sims, offsets = contexts.units, contexts.similarity, contexts.offsets
    if sims is not None:
        sims = np.asarray(sims, dtype=np.float64)
    used, lookup = contexts.used_units()
    heads = [_ITEM_HEAD % quoted[units.comment_ids[i]] for i in used.tolist()]
    tails = [_ITEM_TAILS[1] % s if s >= 0 else _ITEM_TAILS[0]
             for s in units.sentence_index[used].tolist()]
    if sims is None:
        heads = [head + "null" + tail for head, tail in zip(heads, tails)]
    # a unit's head after the first item of a context follows a separator;
    # an item is its head, or its head, similarity and tail
    heads = np.array(heads + [", " + head for head in heads], dtype=object)
    tails = np.array(tails, dtype=object)
    width = 1 if sims is None else 3
    with open(path, "w", encoding="utf-8") as fh:
        for lo, hi in chunks(np.diff(offsets), _DUMP_CHUNK_ITEMS):
            first, last = offsets[lo], offsets[hi]
            starts, counts = offsets[lo:hi] - first, np.diff(offsets[lo:hi + 1])
            codes = lookup[contexts.positions[first:last]]
            later = np.ones(len(codes), dtype=bool)
            later[starts[counts > 0]] = False
            # each context's pieces: its line head, its items' pieces and its
            # line end
            lines = 2 * np.arange(hi - lo)
            items = np.repeat(lines, counts) + 1 + width * np.arange(len(codes))
            pieces = np.empty(2 * (hi - lo) + width * len(codes), dtype=object)
            pieces[lines + width * starts] = list(map(_CONTEXT_HEAD.__mod__, zip(
                map(quoted.__getitem__, contexts.annotator_ids[lo:hi]),
                map(quoted.__getitem__, contexts.post_ids[lo:hi]))))
            pieces[lines + 1 + width * (starts + counts)] = "]}\n"
            pieces[items] = heads[codes + later * len(used)]
            if sims is not None:
                pieces[items + 1] = list(map(numbers.__getitem__,
                                             sims[first:last].view(np.int64).tolist()))
                pieces[items + 2] = tails[codes]
            fh.write("".join(pieces.tolist()))


def load_contexts(path, corpus: Corpus) -> Contexts:
    """Rebuild dumped contexts, resolving texts against the corpus, so a
    training run can be repeated without re-sampling. A line that is not a
    dumped context, gives an annotator or post id that is not a string,
    names a unit, comment or sentence the corpus lacks, or gives a
    similarity where an earlier item gave none (or the other way round), is
    a CorpusError naming the file and line."""
    path = Path(path)
    pairs, counts, cids, texts, indexes, sims = [], [], [], [], [], []
    for lineno, rec in iter_jsonl(path):
        where = f"{path.name} line {lineno}"
        try:
            for key in ("annotator_id", "post_id"):
                if type(rec[key]) is not str:
                    raise CorpusError(f"{where}: {key} {rec[key]!r} is not a string")
            for it in rec["items"]:
                cid, text, index, sim = _load_item(it, corpus, where)
                if sims and (sim is None) != (sims[0] is None):
                    raise CorpusError(f"{where}: an item with similarity {sim!r} among items "
                                      f"with{'out' if sims[0] is None else ''} one")
                cids.append(cid)
                texts.append(text)
                indexes.append(index)
                sims.append(sim)
            pairs.append((rec["annotator_id"], rec["post_id"]))
            counts.append(len(rec["items"]))
        except (KeyError, TypeError) as exc:
            raise CorpusError(f"{where}: malformed context record ({type(exc).__name__}: {exc})")
    return Contexts.of(pairs, Units(cids, texts, np.array(indexes, dtype=np.int64)), counts,
                       np.arange(len(cids)),
                       None if not sims or sims[0] is None else np.array(sims, dtype=np.float64))


def _load_item(it: dict, corpus: Corpus, where: str) -> tuple[str, str, int, float | None]:
    """An item's comment id, text, sentence index (-1 for a whole comment)
    and similarity."""
    cid, index, unit, sim = it["comment_id"], it["sentence_index"], it["unit"], it["similarity"]
    comment = corpus.comments.get(cid)
    if comment is None:
        raise CorpusError(f"{where}: unknown comment {cid!r}")
    if unit not in ("comment", "sentence"):
        raise CorpusError(f"{where}: unknown unit {unit!r}")
    if not (sim is None or type(sim) in (int, float)):
        raise CorpusError(f"{where}: similarity {sim!r} is not a number")
    if unit == "comment":
        if index is not None:
            raise CorpusError(f"{where}: comment {cid!r} is whole but has sentence index {index}")
        return cid, comment.text, -1, sim
    spans = comment.sentence_spans()
    if not (type(index) is int and 0 <= index < len(spans)):
        raise CorpusError(f"{where}: comment {cid!r} has no sentence {index}")
    a, b = spans[index]
    return cid, comment.text[a:b], index, sim
