"""End-to-end experiment runner: config in, deterministic report out.

A run wires the whole chain together: corpus (ingested or synthesized),
annotator filtering, embeddings, category profiles (theory and optionally
cluster), a leakage-controlled split, a grid of sampling conditions plus
baselines, focal-loss training with repeated runs, evaluation, and Welch
significance against a baseline condition. Reruns of the same config write
byte-identical outputs: no timestamps, fixed float formatting, fixed row
order, and every random choice derived from the one seed in the config.
"""
from __future__ import annotations

import configparser
import json
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .cluster import ClusterModel, kmeans, truncated_svd
from .corpus import (MAX_COMMENTS, MIN_COMMENTS, SPLIT_KINDS, SPLIT_RATIOS, Corpus,
                     CorpusError, FilterReport, SplitSpec, filter_annotators, ingest_corpus,
                     make_split, save_split, validate_comment_bounds, validate_ratios,
                     verify_split, write_json, write_tsv)
from .disclosure import Profiles, attach_clusters, build_profiles
from .embed import EmbedderConfig, EmbeddingMatrix, embed_texts, import_embeddings
from .model import (Features, TrainConfig, build_features, encode_labels, evaluate,
                    significance_test, train)
from .sampler import (
    SENTENCE_STRATEGIES,
    CategoryFilter,
    Contexts,
    JsonNumbers,
    Pools,
    Ranking,
    SamplerConfig,
    dump_contexts,
    full_pool_context,
    load_contexts,
    sample_context,
)
from .seeds import derive_seed
from .synthgen import PopulationSpec, generate_population, write_population

BASELINE_CONDITIONS = ("no_comments", "all_comments")


class ConfigError(ValueError):
    """Unusable experiment config: unknown keys, bad values, missing parts."""


class InvariantViolation(RuntimeError):
    """A mid-run integrity check failed (e.g. a leaky split)."""


@dataclass(frozen=True)
class Condition:
    name: str
    sampler: SamplerConfig | None = None  # None for a baseline


@dataclass
class ExperimentConfig:
    seed: int = 42
    out: str = "runs/exp"
    corpus_paths: tuple[str, str, str] | None = None
    synth: PopulationSpec | None = None
    min_comments: int = MIN_COMMENTS
    max_comments: int = MAX_COMMENTS
    embed_dim: int = EmbedderConfig.dim
    ngram_range: tuple[int, int] = EmbedderConfig.ngram_range
    embx_path: str | None = None
    cluster_enabled: bool = False
    cluster_k: int = 10
    reduce_dim: int = 5
    split_kind: str = "situation"
    split_ratios: tuple[float, float, float] = SPLIT_RATIOS
    strategies: tuple[str, ...] = ("similar_comments",)
    max_samples_list: tuple[int, ...] = (5,)
    categories: tuple[str, ...] = ("none",)
    baselines: tuple[str, ...] = ("no_comments",)
    baseline_condition: str = "no_comments"
    epochs: int = TrainConfig.epochs
    learning_rate: float = TrainConfig.learning_rate
    focal_gamma: float = TrainConfig.focal_gamma
    focal_alpha: tuple[float, float] | None = TrainConfig.focal_alpha
    batch_size: int = TrainConfig.batch_size
    runs: int = 5
    save_contexts: bool = True

    def validate(self) -> None:
        if (self.corpus_paths is None) == (self.synth is None):
            raise ConfigError("configure exactly one of [corpus] paths or [synth]")
        for b in self.baselines:
            if b not in BASELINE_CONDITIONS:
                raise ConfigError(f"unknown baseline {b!r}")
        if self.baseline_condition and self.baseline_condition not in self.baselines:
            raise ConfigError(
                f"baseline_condition {self.baseline_condition!r} not in baselines")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.split_kind not in SPLIT_KINDS:
            raise ConfigError(
                f"unknown split kind {self.split_kind!r}; expected one of {SPLIT_KINDS}")
        for key, value in (("k", self.cluster_k), ("reduce_dim", self.reduce_dim)):
            if value < 1:
                raise ConfigError(f"[cluster] {key} must be >= 1, got {value}")
        if self.embx_path and any(s in SENTENCE_STRATEGIES for s in self.strategies):
            # EMBX files hold post and comment rows only; sentence vectors
            # from the hashed embedder would live in another space
            raise ConfigError("[embed] embx cannot be combined with sentence strategies")
        try:
            self.train_config("")
            self.embedder_config()
            validate_ratios(self.split_ratios)
            validate_comment_bounds(self.min_comments, self.max_comments)
            _build_grid(self)
        except ValueError as exc:
            raise ConfigError(str(exc))

    def embedder_config(self) -> EmbedderConfig:
        return EmbedderConfig(dim=self.embed_dim, ngram_range=self.ngram_range,
                              seed=derive_seed(self.seed, "embed"))

    def train_config(self, condition: str) -> TrainConfig:
        """The settings of the condition's fits; `train` seeds fit r with
        the config's seed + r."""
        return TrainConfig(
            epochs=self.epochs, learning_rate=self.learning_rate,
            focal_gamma=self.focal_gamma, focal_alpha=self.focal_alpha,
            batch_size=self.batch_size, seed=derive_seed(self.seed, "train", condition),
        )


# ---------------------------------------------------------------------------
# config file parsing

def _str_list(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in _str_list(raw))


def _categories(raw: str) -> tuple[str, ...]:
    return _str_list(raw) or ExperimentConfig.categories


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"must be a boolean, got {raw!r}")


def ratio_triple(raw: str) -> tuple[float, ...]:
    """Comma-separated train, val and test ratios; validate_ratios checks them."""
    return tuple(float(r) for r in raw.split(","))


def float_pair(raw: str) -> tuple[float, float] | None:
    """Two comma-separated numbers, or None for an empty value."""
    if not raw:
        return None
    pair = tuple(float(x) for x in raw.split(","))
    if len(pair) != 2:
        raise ValueError(f"expected two comma-separated numbers, got {raw!r}")
    return pair


# Every config key: (section, key) -> (field, item, converter). Keys of
# [synth] set PopulationSpec fields, all others ExperimentConfig fields. The
# item is None when the key sets the whole field, else the index of one
# entry of a tuple field or the key of one entry of a dict field. [synth]
# enabled sets no field; it says whether to synthesize at all.
CONFIG_KEYS: dict[tuple[str, str], tuple[str | None, int | str | None, Callable[[str], object]]] = {
    ("corpus", "posts"): ("corpus_paths", 0, str),
    ("corpus", "comments"): ("corpus_paths", 1, str),
    ("corpus", "verdicts"): ("corpus_paths", 2, str),
    ("corpus", "min_comments"): ("min_comments", None, int),
    ("corpus", "max_comments"): ("max_comments", None, int),
    ("synth", "enabled"): (None, None, _bool),
    ("synth", "n_annotators"): ("n_annotators", None, int),
    ("synth", "n_posts"): ("n_posts", None, int),
    ("synth", "comments_lo"): ("comments_per_annotator", 0, int),
    ("synth", "comments_hi"): ("comments_per_annotator", 1, int),
    ("synth", "verdicts_lo"): ("verdicts_per_annotator", 0, int),
    ("synth", "verdicts_hi"): ("verdicts_per_annotator", 1, int),
    ("synth", "judgment_rule"): ("judgment_rule", None, str),
    ("synth", "nta_base_rate"): ("nta_base_rate", None, float),
    ("synth", "mix_demographics"): ("disclosure_mix", "Demographics", float),
    ("synth", "mix_experiences"): ("disclosure_mix", "Experiences", float),
    ("synth", "mix_attitudes"): ("disclosure_mix", "Attitudes", float),
    ("synth", "mix_relationships"): ("disclosure_mix", "Relationships", float),
    ("embed", "dim"): ("embed_dim", None, int),
    ("embed", "ngram_lo"): ("ngram_range", 0, int),
    ("embed", "ngram_hi"): ("ngram_range", 1, int),
    ("embed", "embx"): ("embx_path", None, str),
    ("cluster", "enabled"): ("cluster_enabled", None, _bool),
    ("cluster", "k"): ("cluster_k", None, int),
    ("cluster", "reduce_dim"): ("reduce_dim", None, int),
    ("split", "kind"): ("split_kind", None, str),
    ("split", "ratios"): ("split_ratios", None, ratio_triple),
    ("sampler", "strategies"): ("strategies", None, _str_list),
    ("sampler", "max_samples"): ("max_samples_list", None, _int_list),
    ("sampler", "categories"): ("categories", None, _categories),
    ("sampler", "baselines"): ("baselines", None, _str_list),
    ("train", "epochs"): ("epochs", None, int),
    ("train", "learning_rate"): ("learning_rate", None, float),
    ("train", "focal_gamma"): ("focal_gamma", None, float),
    ("train", "focal_alpha"): ("focal_alpha", None, float_pair),
    ("train", "batch_size"): ("batch_size", None, int),
    ("train", "runs"): ("runs", None, int),
    ("run", "seed"): ("seed", None, int),
    ("run", "out"): ("out", None, str),
    ("run", "baseline"): ("baseline_condition", None, str),
    ("run", "save_contexts"): ("save_contexts", None, _bool),
}


def _section_fields(section: str, values) -> dict:
    """The dataclass fields that one section's keys set.

    `values` maps the section's keys to converted values; a key that is
    absent leaves its field at the default. Entries given for a
    dict field replace the whole default; items given for a tuple field
    replace only their own.
    """
    owner = PopulationSpec if section == "synth" else ExperimentConfig
    fields: dict = {}
    for (sec, key), (name, item, _) in CONFIG_KEYS.items():
        value = values.get(key)
        if sec != section or name is None or value is None:
            continue
        if item is None:
            fields[name] = value
        elif isinstance(item, str):
            fields.setdefault(name, {})[item] = value
        else:
            # corpus_paths is the one tuple field without a default
            items = list(fields.get(name) or getattr(owner, name) or (None,) * 3)
            items[item] = value
            fields[name] = tuple(items)
    return fields


def parse_config(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Load an INI experiment config, apply section.key=value overrides,
    convert every key by CONFIG_KEYS (unknown keys are errors) and validate.
    Values are read literally: `%` is not an interpolation character."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        found = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"bad config file: {exc}")
    if not found:
        raise ConfigError(f"config file not found: {path}")
    for key, value in (overrides or {}).items():
        if "." not in key:
            raise ConfigError(f"override {key!r} must look like section.key")
        section, opt = key.split(".", 1)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, opt, value)

    values: dict[str, dict] = {section: {} for section, _ in CONFIG_KEYS}
    for section in parser.sections():
        if section not in values:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in CONFIG_KEYS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                values[section][key] = CONFIG_KEYS[section, key][2](raw)
            except ValueError as exc:
                raise ConfigError(f"bad config value: [{section}] {key}: {exc}")

    fields: dict = {}
    for section, given in values.items():
        if section != "synth":
            fields.update(_section_fields(section, given))
    if None in fields.get("corpus_paths", ()):
        raise ConfigError("[corpus] needs posts, comments, and verdicts paths")
    if values["synth"].get("enabled"):
        seed = derive_seed(fields.get("seed", ExperimentConfig.seed), "synth")
        try:
            fields["synth"] = PopulationSpec(**_section_fields("synth", values["synth"]),
                                             seed=seed)
        except ValueError as exc:
            raise ConfigError(f"bad config value: {exc}")
    cfg = ExperimentConfig(**fields)
    cfg.validate()
    return cfg


def effective_config_text(cfg: ExperimentConfig) -> str:
    """Canonical one-value-per-line rendering used for provenance."""
    lines = [f"dlab.version = {__version__}"]
    for key in sorted(vars(cfg)):
        value = getattr(cfg, key)
        if isinstance(value, PopulationSpec):
            for skey in sorted(vars(value)):
                sval = getattr(value, skey)
                if isinstance(sval, dict):
                    sval = json.dumps(sval, sort_keys=True)
                lines.append(f"synth.{skey} = {sval}")
            continue
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# conditions

def category_filters(cfg: ExperimentConfig,
                     tokens: tuple[str, ...] | None = None) -> list[CategoryFilter | None]:
    """The filters of the category tokens (the config's [sampler]
    categories unless given), by CategoryFilter.parse with the config's
    clusters; ConfigError for a bad token."""
    clusters = cfg.cluster_k if cfg.cluster_enabled else None
    try:
        return [filt for token in tokens or cfg.categories
                for filt in CategoryFilter.parse(token, clusters)]
    except ValueError as exc:
        raise ConfigError(f"[sampler] categories: {exc}")


def build_conditions(cfg: ExperimentConfig) -> list[Condition]:
    """The baselines, then one grid cell with its sampler settings per
    strategy, sample size and category filter. A cell the sampler rejects
    raises ValueError; bad category tokens and duplicate names ConfigError."""
    filters = category_filters(cfg)
    conditions = [Condition(name=b) for b in cfg.baselines]
    seed = derive_seed(cfg.seed, "sampler")
    for strategy in cfg.strategies:
        for m in cfg.max_samples_list:
            for filt in filters:
                sampler = SamplerConfig(strategy=strategy, max_samples=m,
                                        category_filter=filt, seed=seed)
                name = f"{strategy}-k{m}" + (f"-{filt.label()}" if filt else "")
                conditions.append(Condition(name=name, sampler=sampler))
    names = [c.name for c in conditions]
    if len(names) != len(set(names)):
        raise ConfigError("duplicate condition names in grid")
    return conditions


# validate() builds the grid under this second name, so that code which
# rebinds build_conditions (to time or trace a run) sees only the run's call
_build_grid = build_conditions


# ---------------------------------------------------------------------------
# run state

@dataclass
class RunState:
    """What sampling and features read, and the config it was set up from.
    A run adds the verdict indices of its train and test partitions, whose
    (annotator, post) pairs are listed, and class indices encoded, once,
    here, and the depth to which its conditions rank each unit's pools."""
    cfg: ExperimentConfig
    corpus: Corpus
    embeddings: EmbeddingMatrix
    sentences: EmbeddingMatrix | None  # only when some context unit is a sentence
    profiles: Profiles | None = None  # None: no category filters
    # the verdict indices of each partition the run samples, by name
    partitions: dict[str, list[int]] = field(default_factory=dict)
    # each unit's ranking cut, ranking_depths of the run's conditions; a
    # unit not named ranks whole pools
    depths: dict[str, int | None] = field(default_factory=dict)
    pairs: dict[str, tuple[tuple[str, str], ...]] = field(init=False)
    labels: dict[str, np.ndarray] = field(init=False)
    # each pair's cosine scores over its annotator's whole pool, each
    # annotator's pools and admitted units, each partition's ranking per
    # unit and the JSON text of each similarity dumped, filled as the grid
    # runs and shared by every condition
    scores: dict = field(default_factory=dict)
    pools: Pools = field(init=False)
    rankings: dict[tuple[str, str], Ranking] = field(init=False, default_factory=dict)
    numbers: JsonNumbers = field(init=False, default_factory=JsonNumbers)

    def __post_init__(self):
        verdicts = self.corpus.verdicts
        self.pools = Pools(self.corpus, self.profiles)
        self.pairs = {part: tuple((verdicts[vi].annotator_id, verdicts[vi].post_id)
                                  for vi in indices)
                      for part, indices in self.partitions.items()}
        self.labels = {part: encode_labels(verdicts[vi].label for vi in indices)
                       for part, indices in self.partitions.items()}

    def ranking(self, unit: str, partition: str) -> Ranking:
        """The ranking of the partition's pairs over pools of `unit`, cut at
        the unit's depth."""
        key = (unit, partition)
        if key not in self.rankings:
            self.rankings[key] = Ranking(self.pairs[partition], unit, self.depths.get(unit))
        return self.rankings[key]


def ranking_depths(conditions) -> dict[str, int | None]:
    """Each unit's ranking cut for the similarity conditions among
    `conditions`: the largest sample size of the unit's, or None (whole
    pools) when one of them selects through a category filter."""
    depths: dict[str, int | None] = {}
    for condition in conditions:
        sampler = condition.sampler
        if sampler is None or not sampler.strategy.startswith("similar_"):
            continue
        unit = sampler.unit
        if sampler.category_filter is not None or (unit in depths and depths[unit] is None):
            depths[unit] = None
        else:
            depths[unit] = max(depths.get(unit, 0), sampler.max_samples)
    return depths


def condition_state(cfg: ExperimentConfig, corpus: Corpus, units, *,
                    embeddings: EmbeddingMatrix | None = None, **fields) -> RunState:
    """The state for contexts of `units`: the corpus matrix (setup_embeddings'
    unless given) and, when the units include "sentence", the matrix of the
    corpus's sentence texts from the config's embedder. `fields` set the
    other RunState fields."""
    if embeddings is None:
        embeddings = setup_embeddings(cfg, corpus)
    sentences = embed_sentences(corpus, cfg.embedder_config()) if "sentence" in units else None
    return RunState(cfg=cfg, corpus=corpus, embeddings=embeddings, sentences=sentences, **fields)


_SHARED: RunState | None = None


def _init_worker(state: RunState) -> None:
    global _SHARED
    _SHARED = state


def condition_contexts(state: RunState, condition: Condition, partition: str) -> Contexts:
    """The contexts of the partition's pairs under the condition: empty,
    the annotator's whole pool, or the sampler's draw; a similarity
    strategy selects from the partition's ranking."""
    pairs, sampler = state.pairs[partition], condition.sampler
    if condition.name == "no_comments":
        return Contexts.empty(pairs)
    if condition.name == "all_comments":
        return full_pool_context(pairs, state.corpus, state.pools)
    ranking = (state.ranking(sampler.unit, partition)
               if sampler.strategy.startswith("similar_") else None)
    return sample_context(pairs, state.corpus, state.embeddings, state.profiles,
                          cfg=sampler, sentences=state.sentences, scores=state.scores,
                          pools=state.pools, ranking=ranking)


def partition_data(state: RunState, contexts: Contexts,
                   partition: str) -> tuple[Features, np.ndarray]:
    """The features of a partition's contexts, one per verdict of the
    partition in order, and the class indices of those verdicts."""
    return (build_features(contexts, state.embeddings, state.sentences),
            state.labels[partition])


def _five_plus_pct(state: RunState, condition: Condition) -> float:
    """Share of annotators with at least five comments available under the
    condition's pool definition."""
    annotators = state.corpus.annotators()
    if condition.name == "no_comments" or not annotators:
        return 0.0
    filt = condition.sampler.category_filter if condition.sampler else None
    admitted = state.pools.admitted(filt)
    count = sum(len(admitted[aid]) >= 5 for aid in annotators)
    return 100.0 * count / len(annotators)


def run_condition(state: RunState, condition: Condition) -> dict:
    """Sample each partition's contexts and build its features once,
    dump the contexts when the run saves them, then train cfg.runs models
    in one lockstep call, evaluate each on one dense test matrix,
    aggregate."""
    cfg = state.cfg
    data = {}
    contexts = []
    for part in ("train", "test"):
        contexts.append(condition_contexts(state, condition, part))
        data[part] = partition_data(state, contexts[-1], part)
    if cfg.save_contexts:
        dump_contexts(Contexts.concat(contexts),
                      Path(cfg.out) / "contexts" / f"{condition.name}.jsonl", state.numbers)

    fits = train(*data["train"], cfg.train_config(condition.name), cfg.runs)
    test_features, test_y = data["test"]
    test_rows = test_features.rows()
    reports = [evaluate(params, test_rows, test_y) for params in fits.params]

    acc_runs = [r.accuracy for r in reports]
    f1_runs = [r.macro_f1 for r in reports]
    return {
        "condition": condition.name,
        "n_train": len(data["train"][1]),
        "n_test": len(data["test"][1]),
        "five_plus_pct": _five_plus_pct(state, condition),
        "accuracy": float(np.mean(acc_runs)),
        "macro_f1": float(np.mean(f1_runs)),
        "acc_runs": acc_runs,
        "f1_runs": f1_runs,
        # per-example correctness concatenated across runs; feeds the
        # example-level Welch test between conditions
        "correctness": np.concatenate([r.correctness for r in reports]).tolist(),
    }


# ---------------------------------------------------------------------------
# set-up: what a run fixes before its conditions. These functions write
# nothing; run_pipeline and the stage commands of the CLI compose them.

def embed_corpus(corpus: Corpus, embed_cfg: EmbedderConfig) -> EmbeddingMatrix:
    """One matrix of the post query texts then the comments, each in id order."""
    items = [(pid, corpus.posts[pid].query_text()) for pid in sorted(corpus.posts)]
    items += [(cid, corpus.comments[cid].text) for cid in sorted(corpus.comments)]
    return embed_texts(items, embed_cfg)


def embed_sentences(corpus: Corpus, embed_cfg: EmbedderConfig) -> EmbeddingMatrix:
    """One matrix row per distinct comment-sentence text, keyed by the text,
    in text order.

    Keyed by text rather than by (comment, sentence index) because corpora
    repeat sentences; each text is embedded and stored once.
    """
    texts = sorted({comment.text[a:b] for comment in corpus.comments.values()
                    for a, b in comment.sentence_spans()})
    return embed_texts([(text, text) for text in texts], embed_cfg)


def _phrase_filtered(profiles: Profiles, k: int) -> list[str]:
    """The ids of the comments that pass the phrase filter, the ones k-means
    clusters, in id order; ConfigError when they are fewer than k."""
    eligible = [profiles.comment_ids[i] for i in np.flatnonzero(profiles.phrase).tolist()]
    if len(eligible) < k:
        raise ConfigError(f"only {len(eligible)} phrase-filtered comments for k={k}")
    return eligible


def cluster_comments(embeddings: EmbeddingMatrix, profiles: Profiles,
                     k: int, reduce_dim: int, seed: int) -> tuple[ClusterModel, EmbeddingMatrix]:
    """k-means over the SVD-reduced embeddings of the phrase-filtered comments.

    Returns the model and the reduced matrix it was fitted on. The SVD and
    k-means seeds derive from `seed`, a run's seed. The reduced dimension
    is clamped to what the eligible rows allow.
    """
    eligible = _phrase_filtered(profiles, k)
    sub = embeddings.select([embeddings.row_index(cid) for cid in eligible])
    target = min(reduce_dim, len(eligible), sub.dim)
    reduced = truncated_svd(sub, target, seed=derive_seed(seed, "svd"))
    return kmeans(reduced, k, seed=derive_seed(seed, "kmeans")), reduced


def check_split(split: SplitSpec, corpus: Corpus, *partitions: str) -> None:
    """Raise InvariantViolation, naming the first violations, when the
    split fails verify_split against the corpus, and ConfigError when one
    of the named partitions holds no verdict."""
    violations = verify_split(split, corpus)
    if not violations.ok:
        raise InvariantViolation(
            "split verification failed: " + "; ".join(violations.messages()[:5]))
    sizes = split.sizes()
    for part in partitions:
        if not sizes[part]:
            counts = ", ".join(f"{p} {n}" for p, n in sizes.items())
            raise ConfigError(f"the split leaves the {part} partition empty ({counts} verdicts)")


def check_contexts(path, corpus: Corpus) -> Contexts:
    """The contexts of the file at `path`, read against the corpus; a
    CorpusError naming the file when a pair names an annotator or post the
    corpus lacks, is listed twice or holds a comment another annotator
    wrote."""
    contexts = load_contexts(path, corpus)
    cids, bounds = contexts.units.comment_ids, contexts.offsets.tolist()
    seen = set()
    for i, (annotator_id, post_id) in enumerate(zip(contexts.annotator_ids, contexts.post_ids)):
        where = f"{path}: pair ({annotator_id}, {post_id})"
        if annotator_id not in corpus.annotator_index:
            raise CorpusError(f"{where} names an annotator the corpus lacks")
        if post_id not in corpus.posts:
            raise CorpusError(f"{where} names a post the corpus lacks")
        if (annotator_id, post_id) in seen:
            raise CorpusError(f"{where} is listed twice")
        seen.add((annotator_id, post_id))
        for j in contexts.positions[bounds[i]:bounds[i + 1]].tolist():
            author = corpus.comments[cids[j]].author_id
            if author != annotator_id:
                raise CorpusError(f"{where} holds comment {cids[j]!r} by annotator {author!r}")
    return contexts


def setup_corpus(cfg: ExperimentConfig) -> tuple[Corpus, dict, FilterReport,
                                                  tuple[Corpus, dict] | None]:
    """The config's corpus after the annotator filter, its ingest and filter
    reports, and for [synth] the population as generated with its ground
    truth (None for [corpus] files). ConfigError when no verdict survives
    the filter."""
    population = None
    if cfg.synth is not None:
        population = generate_population(cfg.synth)
        corpus = population[0]
        ingest_report = {
            "n_posts": len(corpus.posts),
            "n_comments": len(corpus.comments),
            "n_verdicts": len(corpus.verdicts),
            "synthesized": True,
        }
    else:
        corpus, report = ingest_corpus(*cfg.corpus_paths)
        ingest_report = report.to_dict()
    corpus, filter_report = filter_annotators(corpus, cfg.min_comments, cfg.max_comments)
    if not corpus.verdicts:
        raise ConfigError("no verdicts survive annotator filtering")
    return corpus, ingest_report, filter_report, population


def setup_embeddings(cfg: ExperimentConfig, corpus: Corpus) -> EmbeddingMatrix:
    """The [embed] embx file's matrix, which must hold every post and comment
    id of the corpus, or else the corpus embedded with the config's embedder."""
    if cfg.embx_path:
        matrix = import_embeddings(cfg.embx_path)
        missing = [pid for pid in corpus.posts if pid not in matrix]
        missing += [cid for cid in corpus.comments if cid not in matrix]
        if missing:
            raise ConfigError(
                f"imported embeddings lack {len(missing)} corpus ids "
                f"(first: {sorted(missing)[:3]})")
        return matrix
    return embed_corpus(corpus, cfg.embedder_config())


def _by_cluster(filters) -> bool:
    return any(filt is not None and filt.cluster is not None for filt in filters)


def setup_profiles(cfg: ExperimentConfig, corpus: Corpus, filters) -> Profiles | None:
    """The theory profiles of the corpus comments when one of the category
    `filters` reads them (None stands for no filter), else None. When one
    filters by cluster, the phrase-filtered comments are counted here, from
    text alone, so that too few for [cluster] k is a ConfigError before
    anything is embedded; setup_clusters adds the cluster ids."""
    if not any(filt is not None for filt in filters):
        return None
    profiles = build_profiles(corpus)
    if _by_cluster(filters):
        _phrase_filtered(profiles, cfg.cluster_k)
    return profiles


def setup_clusters(cfg: ExperimentConfig, corpus: Corpus, profiles: Profiles | None, filters,
                   embeddings: EmbeddingMatrix | None = None
                   ) -> tuple[Profiles | None, tuple[ClusterModel, EmbeddingMatrix] | None]:
    """When one of `filters` filters by cluster, setup_profiles' profiles
    with cluster ids, the cluster model and the reduced matrix it was fitted
    on, fitted on `embeddings` (setup_embeddings' unless given); else the
    profiles unchanged and None."""
    if not _by_cluster(filters):
        return profiles, None
    if embeddings is None:
        embeddings = setup_embeddings(cfg, corpus)
    clusters = cluster_comments(embeddings, profiles, cfg.cluster_k, cfg.reduce_dim, cfg.seed)
    return attach_clusters(profiles, clusters[0].assignment), clusters


def setup_split(cfg: ExperimentConfig, corpus: Corpus) -> SplitSpec:
    """The run's split of the corpus verdicts, which check_split has passed
    with non-empty train and test partitions."""
    split = make_split(corpus, cfg.split_kind, cfg.split_ratios,
                       seed=derive_seed(cfg.seed, "split"))
    check_split(split, corpus, "train", "test")
    return split


# ---------------------------------------------------------------------------
# the full run

def run_pipeline(cfg: ExperimentConfig, workers: int = 1) -> list[dict]:
    """Execute the configured experiment; returns the report rows.

    Conditions are independent and may run in a process pool (workers > 1);
    results are merged in configured order so parallel and sequential runs
    emit identical bytes. The pool uses the platform's start method; where
    that is not fork, a script must make a workers > 1 call under
    `if __name__ == "__main__":`.
    """
    cfg.validate()
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)

    corpus, ingest_report, filter_report, population = setup_corpus(cfg)
    if population is not None:
        write_population(*population, outdir / "synth")
    # profiles and clusters only for the category filters of the grid cells
    filters = category_filters(cfg) if cfg.strategies and cfg.max_samples_list else []
    profiles = setup_profiles(cfg, corpus, filters)
    embeddings = setup_embeddings(cfg, corpus)
    profiles, _ = setup_clusters(cfg, corpus, profiles, filters, embeddings)
    split = setup_split(cfg, corpus)
    partitions = {part: split.indices(part) for part in ("train", "test")}
    save_split(split, outdir / "split.jsonl")

    conditions = build_conditions(cfg)
    state = condition_state(
        cfg, corpus, {c.sampler.unit for c in conditions if c.sampler},
        embeddings=embeddings, profiles=profiles, partitions=partitions,
        depths=ranking_depths(conditions))
    if cfg.save_contexts:
        (outdir / "contexts").mkdir(exist_ok=True)

    if workers > 1:
        # imported here, so that a sequential run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(state,)) as pool:
            rows = list(pool.map(_run_condition_global, conditions))
    else:
        rows = [run_condition(state, c) for c in conditions]

    baseline_correct = None
    for row in rows:
        if row["condition"] == cfg.baseline_condition:
            baseline_correct = row["correctness"]
    for row in rows:
        if baseline_correct is None or row["condition"] == cfg.baseline_condition:
            row["t_vs_baseline"] = None
            row["p_vs_baseline"] = None
        else:
            t, p = significance_test(row["correctness"], baseline_correct)
            row["t_vs_baseline"] = t
            row["p_vs_baseline"] = p

    test_labels = [corpus.verdicts[i].label for i in partitions["test"]]
    nta_share = test_labels.count("NTA") / len(test_labels)
    summary = {
        "version": __version__,
        "n_annotators": len(corpus.annotators()),
        "n_posts": len(corpus.posts),
        "n_comments": len(corpus.comments),
        "n_verdicts": len(corpus.verdicts),
        "ingest": ingest_report,
        "filter": filter_report.to_dict(),
        "split_sizes": split.sizes(),
        "test_nta_share": nta_share,
        "test_majority_accuracy": max(nta_share, 1.0 - nta_share),
    }
    write_json(outdir / "summary.json", summary)
    (outdir / "effective.cfg").write_text(effective_config_text(cfg), encoding="utf-8")
    write_report_tsv(rows, cfg, outdir / "report.tsv")
    return rows


def _run_condition_global(condition: Condition) -> dict:
    # runs inside a pool worker; state was installed by the initializer
    assert _SHARED is not None
    return run_condition(_SHARED, condition)


# ---------------------------------------------------------------------------
# report output

def _fmt(value, spec: str = ".6f") -> str:
    if value is None:
        return ""
    return format(value, spec)


def _fmt_runs(values) -> str:
    return ";".join(_fmt(v) for v in values)


# each report column, in order, with the formatter of its row value
REPORT_COLUMNS = {
    "condition": str,
    "n_train": str,
    "n_test": str,
    "five_plus_pct": lambda v: _fmt(v, ".1f"),
    "accuracy": _fmt,
    "macro_f1": _fmt,
    "acc_runs": _fmt_runs,
    "f1_runs": _fmt_runs,
    "t_vs_baseline": lambda v: _fmt(v, ".4f"),
    "p_vs_baseline": lambda v: _fmt(v, ".6g"),
}


def write_report_tsv(rows: list[dict], cfg: ExperimentConfig, path) -> None:
    """Condition rows with pinned formatting and embedded provenance."""
    lines = [[f"# dlab {__version__} report"]]
    lines += [[f"# {cfg_line}"] for cfg_line in effective_config_text(cfg).strip().split("\n")]
    lines.append(list(REPORT_COLUMNS))
    lines += [[fmt(row[col]) for col, fmt in REPORT_COLUMNS.items()] for row in rows]
    write_tsv(path, lines)


def read_report_tsv(path) -> list[dict]:
    """The rows of a report as strings keyed by REPORT_COLUMNS; a file with
    another header, or a row with another field count, is a CorpusError."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    data = [(n, ln.split("\t")) for n, ln in enumerate(lines, 1) if ln and not ln.startswith("#")]
    if not data or tuple(data[0][1]) != tuple(REPORT_COLUMNS):
        raise CorpusError(f"{path}: report header is not {' '.join(REPORT_COLUMNS)}")
    for n, fields in data[1:]:
        if len(fields) != len(REPORT_COLUMNS):
            raise CorpusError(f"{path} line {n}: {len(fields)} fields, not {len(REPORT_COLUMNS)}")
    return [dict(zip(REPORT_COLUMNS, fields)) for _, fields in data[1:]]


def merge_reports(paths, layout: str, out_path) -> None:
    """Merge condition rows from several reports into one table.

    layout "category": one row per condition with 5+%/accuracy/macro F1.
    layout "grid": strategies (plus any category suffix, so filtered
    conditions keep their own row) as rows, sample sizes as columns; a
    condition given twice has one cell, so it is a CorpusError.
    """
    rows = []
    for p in paths:
        rows.extend(read_report_tsv(p))
    if layout == "category":
        header = ["condition", "five_plus_pct", "accuracy", "macro_f1"]
        lines = [header, *([row[col] for col in header] for row in rows)]
    elif layout == "grid":
        cells: dict[str, dict[int, tuple[str, str]]] = {}
        counts: set[int] = set()
        for row in rows:
            name = row["condition"]
            if "-k" not in name:
                continue
            strategy, _, rest = name.partition("-k")
            m_str, _, category = rest.partition("-")
            try:
                m = int(m_str)
            except ValueError:
                continue
            counts.add(m)
            key = f"{strategy}-{category}" if category else strategy
            if m in cells.setdefault(key, {}):
                raise CorpusError(f"condition {name!r} appears more than once in the grid")
            cells[key][m] = (row["accuracy"], row["macro_f1"])
        ordered = sorted(counts)
        lines = [["strategy", "\t".join(f"acc@{m}\tf1@{m}" for m in ordered)]]
        for strategy in sorted(cells):
            parts = [strategy]
            for m in ordered:
                parts.extend(cells[strategy].get(m, ("", "")))
            lines.append(parts)
    else:
        raise ConfigError(f"unknown layout {layout!r}")
    write_tsv(out_path, lines)
