"""Command-line surface: one subcommand per module boundary plus `run`.

Every command but `report` and `analyze significance` takes a `dlab run`
config (--config), reads every setting from it and sets up through the
library functions `dlab run` calls. Every command categorises with the
packaged, checksum-verified pattern set, the one every run uses.

Exit codes: 0 success, 1 usage error (bad flags, missing inputs, an output
that cannot be written), 2 data error (malformed files), 3 invariant
violation (e.g. a leaky split).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .cluster import silhouette, write_inspection_file
from .corpus import (
    PARTITIONS,
    Corpus,
    CorpusError,
    json_numbers,
    load_split,
    save_split,
    write_corpus,
    write_json,
    write_jsonl,
    write_tsv,
)
from .disclosure import (
    HighLevelCategory,
    PatternError,
    audit_sample,
    comment_profile,
    extract_corpus,
    ngram_stats,
    span_record,
    write_audit_file,
)
from .embed import EmbxError, export_embeddings
from .model import (
    ModelFileError,
    evaluate,
    load_model,
    save_model,
    significance_test,
    train,
)
from .pipeline import (
    Condition,
    ConfigError,
    ExperimentConfig,
    InvariantViolation,
    build_conditions,
    check_contexts,
    check_split,
    condition_contexts,
    condition_state,
    effective_config_text,
    merge_reports,
    parse_config,
    partition_data,
    run_pipeline,
    setup_corpus,
    setup_embeddings,
    setup_profiles,
    setup_split,
)
from .sampler import category_coverage, dump_contexts, similar_post_diversity
from .seeds import derive_seed
from .synthgen import SynthesisError, generate_population, write_population

_DATA_ERRORS = (
    CorpusError, EmbxError, PatternError, ModelFileError, ConfigError, SynthesisError,
    json.JSONDecodeError, UnicodeDecodeError,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_at_least(raw: str, lo: int) -> int:
    value = int(raw)
    if value < lo:
        raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
    return value


def positive_int(raw: str) -> int:
    return _int_at_least(raw, 1)


def non_negative_int(raw: str) -> int:
    return _int_at_least(raw, 0)


def _require_files(*paths) -> None:
    for p in paths:
        if p is not None and not Path(p).exists():
            raise UsageError(f"input not found: {p}")


def _config(path, overrides=None) -> ExperimentConfig:
    """The run config at `path` with `overrides`; the config and the corpus
    and EMBX files it names must exist."""
    _require_files(path)
    cfg = parse_config(path, overrides)
    _require_files(*(cfg.corpus_paths or ()), cfg.embx_path)
    return cfg


def _model_config(args) -> ExperimentConfig:
    """The --config of train or evaluate, which embed with the hashed
    embedder a model file records; --contexts and --split must exist."""
    cfg = _config(args.config)
    if cfg.embx_path:
        raise ConfigError("[embed] embx: a model file records the hashed embedder its "
                          "features came from, so train and evaluate take no imported "
                          "embeddings")
    _require_files(args.contexts, args.split)
    return cfg


def _condition(cfg: ExperimentConfig, name: str) -> Condition:
    """The condition of the config's grid that report.tsv calls `name`."""
    conditions = {c.name: c for c in build_conditions(cfg)}
    if name not in conditions:
        raise UsageError(f"--condition {name!r} is not in the config's grid; "
                         f"it has {', '.join(conditions)}")
    return conditions[name]


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_ingest(args) -> int:
    corpus, ingest_report, filter_report, _ = setup_corpus(_config(args.config))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_corpus(corpus, outdir)
    write_json(outdir / "ingest_report.json", ingest_report)
    write_json(outdir / "filter_report.json", filter_report.to_dict())
    print(f"annotators_kept={filter_report.n_annotators_kept} "
          f"verdicts_kept={filter_report.n_verdicts_kept}")
    return 0


def _cmd_extract(args) -> int:
    corpus = setup_corpus(_config(args.config))[0]
    spans = extract_corpus(corpus)
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
    cfg = _config(args.config)
    if not cfg.cluster_enabled:
        raise ConfigError("dlab cluster fits a run's clusters; the config needs "
                          "[cluster] enabled = true")
    corpus = setup_corpus(cfg)[0]
    _, (model, reduced) = setup_profiles(cfg, corpus)
    write_jsonl(args.out, ({"comment_id": cid, "cluster": model.assignment[cid]}
                           for cid in sorted(model.assignment)))
    if args.inspect_out:
        texts = {cid: corpus.comments[cid].text for cid in reduced.ids}
        write_inspection_file(model, reduced, texts, args.inspect_n, cfg.seed, args.inspect_out)
    msg = f"k={model.k} inertia={model.inertia:.4f}"
    if model.k >= 2:
        msg += f" silhouette={silhouette(reduced, model).mean:.4f}"
    print(msg)
    return 0


def _cmd_split(args) -> int:
    cfg = _config(args.config)
    spec = setup_split(cfg, setup_corpus(cfg)[0])
    save_split(spec, args.out)
    sizes = spec.sizes()
    print(f"train={sizes['train']} val={sizes['val']} test={sizes['test']}")
    return 0


def _cmd_sample(args) -> int:
    cfg = _config(args.config)
    condition = _condition(cfg, args.condition)
    corpus = setup_corpus(cfg)[0]
    embeddings = setup_embeddings(cfg, corpus)
    profiles, _ = setup_profiles(cfg, corpus, embeddings)
    units = {condition.sampler.unit} if condition.sampler else set()
    state = condition_state(cfg, corpus, units, embeddings=embeddings, profiles=profiles)
    contexts = condition_contexts(state, condition, range(len(corpus.verdicts)))
    dump_contexts(contexts, args.out)
    print(f"contexts={len(contexts)}")
    return 0


def _partition_data(args, cfg, partition):
    """Features and class indices of the verdicts in one partition of the
    --split, which must pass check_split with that partition, with their
    contexts from --contexts, which must pass check_contexts and hold every
    one of their pairs, and rows from the config's embedder."""
    corpus = setup_corpus(cfg)[0]
    split = load_split(args.split)
    check_split(split, corpus, partition)
    indices = split.indices(partition)
    loaded = check_contexts(args.contexts, corpus)
    by_pair = {(c.annotator_id, c.post_id): c for c in loaded}
    contexts = []
    for vi in indices:
        v = corpus.verdicts[vi]
        try:
            contexts.append(by_pair[(v.annotator_id, v.post_id)])
        except KeyError:
            raise CorpusError(
                f"contexts file lacks pair ({v.annotator_id}, {v.post_id})")
    state = condition_state(cfg, corpus, {item.unit for c in loaded for item in c.items})
    return partition_data(state, contexts, indices)


def _cmd_train(args) -> int:
    cfg = _model_config(args)
    # a run's first fit of the condition
    train_cfg = cfg.train_config(_condition(cfg, args.condition).name)
    features, y = _partition_data(args, cfg, "train")
    params = replace(train(features, y, train_cfg).params[0], embedder=cfg.embedder_config())
    save_model(params, args.model_out)
    print(f"trained on {len(y)} examples; final loss "
          f"{params.loss_history[-1]:.6f}" if params.loss_history else
          f"trained on {len(y)} examples")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _model_config(args)
    _require_files(args.model)
    params = load_model(args.model)
    if params.embedder != cfg.embedder_config():
        raise ModelFileError(f"{args.model}: model embedder {params.embedder} is not the "
                             f"config's {cfg.embedder_config()}")
    report = evaluate(params, *_partition_data(args, cfg, args.partition))
    write_json(args.report_out, {**asdict(report), "correctness": report.correctness.tolist()})
    print(f"n={report.n} accuracy={report.accuracy:.4f} macro_f1={report.macro_f1:.4f}")
    return 0


def _correctness(path) -> tuple[float, ...]:
    """The per-example correctness list of an evaluation report JSON: two
    or more finite numbers, each in [0, 1]."""
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(report, dict) or not isinstance(report.get("correctness"), list):
        raise CorpusError(f"{path}: not an evaluation report (no 'correctness' list)")
    try:
        values = json_numbers(report["correctness"])
    except ValueError:
        values = ()
    if len(values) < 2 or not all(0.0 <= v <= 1.0 for v in values):
        raise CorpusError(f"{path}: 'correctness' must hold two or more numbers in [0, 1]")
    return values


def _run_contexts(args) -> tuple[ExperimentConfig, Corpus, list]:
    """The --config, its run's corpus and the --contexts file, which must
    pass check_contexts against that corpus."""
    cfg = _config(args.config)
    _require_files(args.contexts)
    corpus = setup_corpus(cfg)[0]
    return cfg, corpus, check_contexts(args.contexts, corpus)


def _cmd_coverage(args) -> int:
    cfg, corpus, contexts = _run_contexts(args)
    table = category_coverage(contexts, setup_profiles(cfg, corpus)[0])
    write_tsv(args.out, [
        ["family", "bucket", "percent"],
        *(["theory", bucket, f"{pct:.2f}"] for bucket, pct in table.theory_pct.items()),
        *(["cluster", bucket, f"{pct:.2f}"] for bucket, pct in table.cluster_pct.items()),
    ])
    print(f"items={table.n_items}")
    return 0


def _cmd_diversity(args) -> int:
    _, corpus, contexts = _run_contexts(args)
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
    return 0


def _cmd_ngrams(args) -> int:
    rows = ngram_stats(setup_corpus(_config(args.config))[0], args.n, args.position)
    kept = rows[:args.top] if args.top else rows
    write_tsv(args.out, [["ngram", "count"], *([gram, str(count)] for gram, count in kept)])
    print(f"ngrams={len(rows)}")
    return 0


def _cmd_audit(args) -> int:
    cfg = _config(args.config)
    records = audit_sample(setup_corpus(cfg)[0], args.category, args.n,
                           derive_seed(cfg.seed, "audit"))
    write_audit_file(records, args.out)
    print(f"sampled={len(records)}")
    return 0


def _cmd_significance(args) -> int:
    _require_files(args.report_a, args.report_b)
    t, p = significance_test(_correctness(args.report_a), _correctness(args.report_b))
    print(f"t={t:.4f} p={p:.6g}")
    return 0


def _cmd_synth(args) -> int:
    cfg = _config(args.config)
    if cfg.synth is None:
        raise ConfigError("dlab synth writes a run's population; the config needs "
                          "[synth] enabled = true")
    corpus, ground_truth = generate_population(cfg.synth)
    paths = write_population(corpus, ground_truth, args.out)
    print(f"posts={len(corpus.posts)} comments={len(corpus.comments)} "
          f"verdicts={len(corpus.verdicts)} -> {paths['posts'].parent}")
    return 0


def _cmd_embed(args) -> int:
    cfg = _config(args.config)
    matrix = setup_embeddings(cfg, setup_corpus(cfg)[0])
    export_embeddings(matrix, args.out)
    print(f"rows={len(matrix)} dim={matrix.dim}")
    return 0


def _cmd_run(args) -> int:
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
    if args.print_effective_config:
        _require_files(args.config)
        sys.stdout.write(effective_config_text(parse_config(args.config, overrides)))
        return 0
    rows = run_pipeline(_config(args.config, overrides), workers=args.workers)
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

def _stage(sub, name: str, func, text: str, *flags: str) -> argparse.ArgumentParser:
    """A stage command's parser with --config and the other required `flags`."""
    p = sub.add_parser(name, help=text)
    for flag in ("--config", *flags):
        p.add_argument(flag, required=True)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # the stage commands read every setting from a `dlab run` config
    p = _stage(sub, "extract", _cmd_extract, "write a run's disclosure spans and profiles",
               "--spans-out")
    p.add_argument("--profiles-out")
    _stage(sub, "synth", _cmd_synth, "write a run's synthetic population", "--out")
    _stage(sub, "ingest", _cmd_ingest, "write a run's corpus after the annotator filter",
           "--out")
    _stage(sub, "embed", _cmd_embed, "embed a run's corpus into an EMBX file", "--out")
    p = _stage(sub, "cluster", _cmd_cluster, "fit a run's clusters of phrase-filtered comments",
               "--out")
    p.add_argument("--inspect-out")
    p.add_argument("--inspect-n", type=non_negative_int, default=5)
    _stage(sub, "split", _cmd_split, "make and verify a run's train/val/test split", "--out")
    _stage(sub, "sample", _cmd_sample, "sample a run condition's context of every verdict pair",
           "--condition", "--out")
    _stage(sub, "train", _cmd_train, "fit a run condition's first model on dumped contexts",
           "--condition", "--contexts", "--split", "--model-out")
    p = _stage(sub, "evaluate", _cmd_evaluate, "evaluate a saved model on a partition",
               "--model", "--contexts", "--split", "--report-out")
    p.add_argument("--partition", choices=PARTITIONS, default="test")

    p = sub.add_parser("analyze", help="coverage, diversity, ngrams, audit, significance")
    asub = p.add_subparsers(dest="what", required=True, parser_class=_Parser)

    _stage(asub, "coverage", _cmd_coverage, "category and cluster shares of a run's contexts",
           "--contexts", "--out")
    _stage(asub, "diversity", _cmd_diversity, "how much of each pool a run's contexts draw",
           "--contexts", "--out")

    pa = _stage(asub, "ngrams", _cmd_ngrams, "n-gram counts around a run's disclosure phrases",
                "--out")
    pa.add_argument("--n", type=int, choices=(1, 2, 3), required=True)
    pa.add_argument("--position", choices=("before", "after"), required=True)
    pa.add_argument("--top", type=non_negative_int, default=0)
    pa = _stage(asub, "audit", _cmd_audit, "sample a run's comments of one category for review",
                "--out")
    pa.add_argument("--category", choices=[c.value for c in HighLevelCategory], required=True)
    pa.add_argument("--n", type=non_negative_int, default=20)

    pa = asub.add_parser("significance")
    pa.add_argument("--report-a", required=True)
    pa.add_argument("--report-b", required=True)
    pa.set_defaults(func=_cmd_significance)

    p = sub.add_parser("run", help="run a full experiment from an INI config")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--workers", type=positive_int, default=1)
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
        # every output lands in its directory, made here when missing
        for key, value in vars(args).items():
            if value and (key == "out" or key.endswith("_out")):
                Path(value).parent.mkdir(parents=True, exist_ok=True)
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
    except (ValueError, OSError) as exc:
        print(f"dlab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
