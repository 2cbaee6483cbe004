"""Command-line surface: one subcommand per module boundary plus `run`.

Exit codes: 0 success, 1 usage error (bad flags, missing inputs), 2 data
error (malformed files), 3 invariant violation (e.g. a leaky split).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .cluster import (
    ClusterModelError,
    load_cluster_model,
    save_cluster_model,
    silhouette,
    write_inspection_file,
)
from .corpus import (
    MAX_COMMENTS,
    MIN_COMMENTS,
    PARTITIONS,
    SPLIT_KINDS,
    SPLIT_RATIOS,
    Corpus,
    CorpusError,
    filter_annotators,
    ingest_corpus,
    load_split,
    make_split,
    read_comments,
    save_split,
    verify_split,
    write_corpus,
    write_json,
    write_jsonl,
    write_tsv,
)
from .disclosure import (
    PatternError,
    PatternSet,
    attach_clusters,
    audit_sample,
    build_profiles,
    comment_profile,
    default_patterns,
    extract_disclosures,
    ngram_stats,
    span_record,
    write_audit_file,
)
from .embed import EmbedderConfig, EmbxError, export_embeddings
from .model import (
    ModelFileError,
    TrainConfig,
    build_features,
    encode_labels,
    evaluate,
    load_model,
    save_model,
    significance_test,
    train,
)
from .pipeline import (
    ConfigError,
    ExperimentConfig,
    InvariantViolation,
    cluster_comments,
    effective_config_text,
    embed_corpus,
    embed_sentences,
    float_pair,
    merge_reports,
    parse_config,
    ratio_triple,
    run_pipeline,
    section_fields,
)
from .sampler import (
    SENTENCE_STRATEGIES,
    STRATEGIES,
    CategoryFilter,
    SamplerConfig,
    category_coverage,
    dump_contexts,
    load_contexts,
    sample_context,
    similar_post_diversity,
)
from .synthgen import (JUDGMENT_RULES, PopulationSpec, SynthesisError, generate_population,
                       write_population)

_DATA_ERRORS = (
    CorpusError, EmbxError, PatternError, ModelFileError, ClusterModelError,
    ConfigError, SynthesisError, json.JSONDecodeError, UnicodeDecodeError,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _require_files(*paths) -> None:
    for p in paths:
        if p is not None and not Path(p).exists():
            raise UsageError(f"input not found: {p}")


def _load_corpus(args) -> Corpus:
    _require_files(args.posts, args.comments, args.verdicts)
    corpus, _ = ingest_corpus(args.posts, args.comments, args.verdicts)
    return corpus


def _load_comments(comments_path) -> Corpus:
    _require_files(comments_path)
    return Corpus(posts={}, comments=read_comments(comments_path), verdicts=[])


def _patterns(args) -> PatternSet:
    if getattr(args, "patterns", None):
        _require_files(args.patterns)
        return PatternSet.load(args.patterns)
    return default_patterns()


def _profiles(args, corpus: Corpus) -> dict:
    """Theory profiles of the corpus comments, with the cluster ids of
    --cluster-model when one is given."""
    profiles = build_profiles(corpus, _patterns(args))
    if args.cluster_model:
        _require_files(args.cluster_model)
        profiles = attach_clusters(profiles, load_cluster_model(args.cluster_model).assignment)
    return profiles


def _embed_cfg(args) -> EmbedderConfig:
    return EmbedderConfig(
        dim=args.dim, ngram_range=(args.ngram_lo, args.ngram_hi), seed=args.embed_seed)


def _add_corpus_flags(p) -> None:
    p.add_argument("--posts", required=True)
    p.add_argument("--comments", required=True)
    p.add_argument("--verdicts", required=True)


def _add_embed_flags(p) -> None:
    p.add_argument("--dim", type=int, default=EmbedderConfig.dim)
    p.add_argument("--ngram-lo", type=int, default=EmbedderConfig.ngram_range[0])
    p.add_argument("--ngram-hi", type=int, default=EmbedderConfig.ngram_range[1])
    p.add_argument("--embed-seed", type=int, default=EmbedderConfig.seed)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_ingest(args) -> int:
    _require_files(args.posts, args.comments, args.verdicts)
    corpus, report = ingest_corpus(args.posts, args.comments, args.verdicts)
    filtered, filter_report = filter_annotators(corpus, args.min_comments, args.max_comments)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_corpus(filtered, outdir)
    write_json(outdir / "ingest_report.json", report.to_dict())
    write_json(outdir / "filter_report.json", filter_report.to_dict())
    print(f"posts={report.n_posts} comments={report.n_comments} "
          f"verdicts_kept={filter_report.n_verdicts_kept} "
          f"self_verdicts_dropped={report.n_self_verdicts_dropped}")
    return 0


def _cmd_extract(args) -> int:
    corpus = _load_comments(args.comments)
    pats = _patterns(args)
    spans = {cid: extract_disclosures(corpus.comments[cid], pats)
             for cid in sorted(corpus.comments)}
    write_jsonl(args.spans_out, ({
        "comment_id": span.comment_id,
        "sentence_index": span.sentence_index,
        **span_record(span),
    } for found in spans.values() for span in found))
    if args.profiles_out:
        profiles = (comment_profile(corpus.comments[cid], found) for cid, found in spans.items())
        write_jsonl(args.profiles_out, ({
            "comment_id": prof.comment_id,
            "theory_categories": sorted(c.value for c in prof.theory_categories),
            "passes_phrase_filter": prof.passes_phrase_filter,
        } for prof in profiles))
    print(f"comments={len(corpus.comments)} spans={sum(map(len, spans.values()))}")
    return 0


def _cmd_cluster(args) -> int:
    corpus = _load_comments(args.comments)
    profiles = build_profiles(corpus, _patterns(args))
    model, reduced = cluster_comments(
        embed_corpus(corpus, _embed_cfg(args)), profiles, args.k, args.reduce_dim,
        svd_seed=args.seed, kmeans_seed=args.seed)
    save_cluster_model(model, args.model_out)
    sil = silhouette(reduced, model) if args.k >= 2 else None
    if args.inspect_out:
        texts = {cid: corpus.comments[cid].text for cid in reduced.ids}
        write_inspection_file(model, reduced, texts, args.inspect_n, args.seed, args.inspect_out)
    msg = f"k={args.k} inertia={model.inertia:.4f}"
    if sil is not None:
        msg += f" silhouette={sil.mean:.4f}"
    print(msg)
    return 0


def _cmd_split(args) -> int:
    corpus = _load_corpus(args)
    spec = make_split(corpus, args.kind, args.ratios, seed=args.seed)
    report = verify_split(spec, corpus)
    save_split(spec, args.out)
    sizes = spec.sizes()
    print(f"train={sizes['train']} val={sizes['val']} test={sizes['test']}")
    if not report.ok:
        for msg in report.messages():
            print(f"violation: {msg}", file=sys.stderr)
        return 3
    return 0


def _cmd_sample(args) -> int:
    corpus = _load_corpus(args)
    profiles = _profiles(args, corpus)
    cfg = _embed_cfg(args)
    matrix = embed_corpus(corpus, cfg)
    sampler_cfg = SamplerConfig(
        strategy=args.strategy,
        max_samples=args.max_samples,
        category_filter=(CategoryFilter.parse(args.category)
                         if args.category not in (None, "none") else None),
        seed=args.seed,
    )
    sentences = embed_sentences(corpus, cfg) if args.strategy in SENTENCE_STRATEGIES else None
    contexts = sample_context([(v.annotator_id, v.post_id) for v in corpus.verdicts],
                              corpus, matrix, profiles, cfg=sampler_cfg, sentences=sentences)
    dump_contexts(contexts, args.out)
    print(f"contexts={len(contexts)}")
    return 0


def _features_for(args, corpus, indices):
    """Features and class indices of the verdicts in `indices`, with
    their contexts from --contexts."""
    cfg = _embed_cfg(args)
    matrix = embed_corpus(corpus, cfg)
    loaded = load_contexts(args.contexts, corpus)
    by_pair = {(c.annotator_id, c.post_id): c for c in loaded}
    sentences = None
    if any(item.unit == "sentence" for c in loaded for item in c.items):
        sentences = embed_sentences(corpus, cfg)
    contexts = []
    for vi in indices:
        v = corpus.verdicts[vi]
        try:
            contexts.append(by_pair[(v.annotator_id, v.post_id)])
        except KeyError:
            raise CorpusError(
                f"contexts file lacks pair ({v.annotator_id}, {v.post_id})")
    return (build_features(contexts, matrix, sentences),
            encode_labels(corpus.verdicts[vi].label for vi in indices))


def _cmd_train(args) -> int:
    corpus = _load_corpus(args)
    _require_files(args.contexts, args.split)
    split = load_split(args.split)
    features, y = _features_for(args, corpus, split.indices("train"))
    tc = TrainConfig(
        epochs=args.epochs, learning_rate=args.learning_rate,
        focal_gamma=args.focal_gamma, focal_alpha=args.focal_alpha,
        batch_size=args.batch_size, seed=args.seed,
    )
    params = train(features, y, tc)
    save_model(params, args.model_out)
    print(f"trained on {len(y)} examples; final loss "
          f"{params.loss_history[-1]:.6f}" if params.loss_history else
          f"trained on {len(y)} examples")
    return 0


def _cmd_evaluate(args) -> int:
    corpus = _load_corpus(args)
    _require_files(args.model, args.contexts, args.split)
    params = load_model(args.model)
    split = load_split(args.split)
    report = evaluate(params, *_features_for(args, corpus, split.indices(args.partition)))
    payload = {
        "n": report.n,
        "accuracy": report.accuracy,
        "macro_f1": report.macro_f1,
        "per_class": {
            lab: {"precision": m.precision, "recall": m.recall,
                  "f1": m.f1, "support": m.support}
            for lab, m in report.per_class.items()
        },
        "correctness": report.correctness.tolist(),
    }
    write_json(args.report_out, payload)
    print(f"n={report.n} accuracy={report.accuracy:.4f} macro_f1={report.macro_f1:.4f}")
    return 0


def _cmd_analyze(args) -> int:
    if args.what == "coverage":
        _require_files(args.contexts, args.cluster_model)
        corpus = _load_comments(args.comments)
        profiles = _profiles(args, corpus)
        contexts = load_contexts(args.contexts, corpus)
        table = category_coverage(contexts, profiles)
        write_tsv(args.out, [
            ["family", "bucket", "percent"],
            *(["theory", bucket, f"{pct:.2f}"] for bucket, pct in table.theory_pct.items()),
            *(["cluster", bucket, f"{pct:.2f}"] for bucket, pct in table.cluster_pct.items()),
        ])
        print(f"items={table.n_items}")
    elif args.what == "diversity":
        _require_files(args.contexts)
        corpus = _load_comments(args.comments)
        contexts = load_contexts(args.contexts, corpus)
        report = similar_post_diversity(contexts, corpus)
        rows = [["measure", "lower_whisker", "q1", "median", "q3", "upper_whisker", "n"]]
        for measure, box, values in (("coverage", report.coverage, report.coverage_values),
                                     ("rank_ratio", report.rank_ratio, report.rank_ratio_values)):
            if box is not None:
                rows.append([measure, *(f"{v:.4f}" for v in (
                    box.lower_whisker, box.q1, box.median, box.q3, box.upper_whisker)),
                    str(len(values))])
        write_tsv(args.out, rows)
        print(f"annotators={len(report.coverage_values)}")
    elif args.what == "ngrams":
        corpus = _load_comments(args.comments)
        rows = ngram_stats(corpus, args.n, args.position)
        kept = rows[:args.top] if args.top else rows
        write_tsv(args.out, [["ngram", "count"], *([gram, str(count)] for gram, count in kept)])
        print(f"ngrams={len(rows)}")
    elif args.what == "audit":
        corpus = _load_comments(args.comments)
        records = audit_sample(corpus, args.category, args.n, args.seed, _patterns(args))
        write_audit_file(records, args.out)
        print(f"sampled={len(records)}")
    elif args.what == "significance":
        _require_files(args.report_a, args.report_b)
        a = json.loads(Path(args.report_a).read_text(encoding="utf-8"))
        b = json.loads(Path(args.report_b).read_text(encoding="utf-8"))
        t, p = significance_test(a["correctness"], b["correctness"])
        print(f"t={t:.4f} p={p:.6g}")
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown analyze target {args.what!r}")
    return 0


def _cmd_synth(args) -> int:
    # the flags' destinations are the [synth] keys of a config file
    spec = PopulationSpec(**section_fields("synth", vars(args)), seed=args.seed)
    corpus, ground_truth = generate_population(spec)
    paths = write_population(corpus, ground_truth, args.out)
    print(f"posts={len(corpus.posts)} comments={len(corpus.comments)} "
          f"verdicts={len(corpus.verdicts)} -> {paths['posts'].parent}")
    return 0


def _cmd_embed(args) -> int:
    corpus = _load_corpus(args)
    cfg = _embed_cfg(args)
    matrix = embed_corpus(corpus, cfg)
    export_embeddings(matrix, args.out)
    print(f"rows={len(matrix)} dim={matrix.dim}")
    return 0


def _cmd_run(args) -> int:
    _require_files(args.config)
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects section.key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    # --seed / --out are shorthand for [run] overrides; routing them through
    # the parser keeps seeds derived at parse time (synth) consistent
    if args.seed is not None:
        overrides["run.seed"] = str(args.seed)
    if args.out:
        overrides["run.out"] = args.out
    cfg = parse_config(args.config, overrides)
    if args.print_effective_config:
        sys.stdout.write(effective_config_text(cfg))
        return 0
    _require_files(*(cfg.corpus_paths or ()), cfg.embx_path)
    rows = run_pipeline(cfg, workers=args.workers)
    for row in rows:
        p = row.get("p_vs_baseline")
        suffix = f" p={p:.4g}" if p is not None else ""
        print(f"{row['condition']}: acc={row['accuracy']:.4f} "
              f"f1={row['macro_f1']:.4f}{suffix}")
    return 0


def _cmd_report(args) -> int:
    _require_files(*args.inputs)
    merge_reports(args.inputs, args.layout, args.out)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="validate and filter a corpus")
    _add_corpus_flags(p)
    p.add_argument("--min-comments", type=int, default=MIN_COMMENTS)
    p.add_argument("--max-comments", type=int, default=MAX_COMMENTS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("extract", help="extract disclosure spans and profiles")
    p.add_argument("--comments", required=True)
    p.add_argument("--patterns")
    p.add_argument("--spans-out", required=True)
    p.add_argument("--profiles-out")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("embed", help="embed a corpus into an EMBX file")
    _add_corpus_flags(p)
    _add_embed_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("cluster", help="cluster phrase-filtered comments")
    p.add_argument("--comments", required=True)
    p.add_argument("--patterns")
    _add_embed_flags(p)
    p.add_argument("--k", type=positive_int, required=True)
    p.add_argument("--reduce-dim", type=positive_int, default=ExperimentConfig.reduce_dim)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model-out", required=True)
    p.add_argument("--inspect-out")
    p.add_argument("--inspect-n", type=int, default=5)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("split", help="make and verify a train/val/test split")
    _add_corpus_flags(p)
    p.add_argument("--kind", choices=SPLIT_KINDS, required=True)
    p.add_argument("--ratios", type=ratio_triple, default=SPLIT_RATIOS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("sample", help="sample contexts for every verdict pair")
    _add_corpus_flags(p)
    _add_embed_flags(p)
    p.add_argument("--patterns")
    p.add_argument("--strategy", choices=STRATEGIES, required=True)
    p.add_argument("--max-samples", type=int, required=True)
    p.add_argument("--category")
    p.add_argument("--cluster-model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("train", help="train a verdict model from dumped contexts")
    _add_corpus_flags(p)
    _add_embed_flags(p)
    p.add_argument("--contexts", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--focal-gamma", type=float, default=TrainConfig.focal_gamma)
    p.add_argument("--focal-alpha", type=float_pair)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved model on a partition")
    _add_corpus_flags(p)
    _add_embed_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--contexts", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--partition", choices=PARTITIONS, default="test")
    p.add_argument("--report-out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("analyze", help="coverage, diversity, ngrams, audit, significance")
    asub = p.add_subparsers(dest="what", required=True, parser_class=_Parser)

    pa = asub.add_parser("coverage")
    pa.add_argument("--contexts", required=True)
    pa.add_argument("--comments", required=True)
    pa.add_argument("--patterns")
    pa.add_argument("--cluster-model")
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=_cmd_analyze)

    pa = asub.add_parser("diversity")
    pa.add_argument("--contexts", required=True)
    pa.add_argument("--comments", required=True)
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=_cmd_analyze)

    pa = asub.add_parser("ngrams")
    pa.add_argument("--comments", required=True)
    pa.add_argument("--n", type=int, choices=(1, 2, 3), required=True)
    pa.add_argument("--position", choices=("before", "after"), required=True)
    pa.add_argument("--top", type=int, default=0)
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=_cmd_analyze)

    pa = asub.add_parser("audit")
    pa.add_argument("--comments", required=True)
    pa.add_argument("--patterns")
    pa.add_argument("--category", required=True)
    pa.add_argument("--n", type=int, default=20)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--out", required=True)
    pa.set_defaults(func=_cmd_analyze)

    pa = asub.add_parser("significance")
    pa.add_argument("--report-a", required=True)
    pa.add_argument("--report-b", required=True)
    pa.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synth", help="generate a synthetic population")
    p.add_argument("--annotators", dest="n_annotators", type=int,
                   default=PopulationSpec.n_annotators)
    p.add_argument("--posts", dest="n_posts", type=int, default=PopulationSpec.n_posts)
    p.add_argument("--comments-lo", type=int, default=PopulationSpec.comments_per_annotator[0])
    p.add_argument("--comments-hi", type=int, default=PopulationSpec.comments_per_annotator[1])
    p.add_argument("--verdicts-lo", type=int, default=PopulationSpec.verdicts_per_annotator[0])
    p.add_argument("--verdicts-hi", type=int, default=PopulationSpec.verdicts_per_annotator[1])
    p.add_argument("--rule", dest="judgment_rule", choices=JUDGMENT_RULES,
                   default=PopulationSpec.judgment_rule)
    p.add_argument("--nta-base-rate", type=float, default=PopulationSpec.nta_base_rate)
    p.add_argument("--mix-demographics", type=float)
    p.add_argument("--mix-experiences", type=float)
    p.add_argument("--mix-attitudes", type=float)
    p.add_argument("--mix-relationships", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="run a full experiment from an INI config")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--workers", type=int)
    p.add_argument("--print-effective-config", action="store_true")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="merge condition rows into a table layout")
    p.add_argument("--layout", choices=("grid", "category"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:
        raise
    except UsageError as exc:
        print(f"dlab: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"dlab: invariant violation: {exc}", file=sys.stderr)
        return 3
    except _DATA_ERRORS as exc:
        print(f"dlab: data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"dlab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
