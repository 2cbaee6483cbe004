import dataclasses
import json
import multiprocessing
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

import dlab.cli
import dlab.disclosure
from dlab.cli import main
from dlab.corpus import ingest_corpus
from dlab.embed import EmbeddingMatrix, cosine_similarity, embed_text, export_embeddings
from dlab.pipeline import (
    CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    build_conditions,
    effective_config_text,
    merge_reports,
    parse_config,
    read_report_tsv,
    run_pipeline,
    write_report_tsv,
)
from dlab.sampler import SamplerConfig, load_contexts
from dlab.seeds import derive_seed
from dlab.synthgen import PopulationSpec, generate_population, write_population
from tests.conftest import write_jsonl

MINIMAL_CORPUS_INI = """\
[corpus]
posts = /data/posts.jsonl
comments = /data/comments.jsonl
verdicts = /data/verdicts.jsonl
"""

SYNTH_INI = """\
[synth]
enabled = true
n_annotators = 8
n_posts = 20
comments_lo = 4
comments_hi = 6
verdicts_lo = 6
verdicts_hi = 8
judgment_rule = demographic_keyed
nta_base_rate = 0.7

[corpus]
min_comments = 1
max_comments = 500

[embed]
dim = 256

[split]
kind = verdict
ratios = 0.7,0.1,0.2

[sampler]
strategies = similar_comments
max_samples = 3
baselines = no_comments

[train]
epochs = 2
runs = 2
learning_rate = 0.01
batch_size = 16

[run]
seed = 7
baseline = no_comments
"""


# ---------------------------------------------------------------------------
# config parsing

def test_parse_config_defaults(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(MINIMAL_CORPUS_INI)
    cfg = parse_config(path)
    assert cfg.corpus_paths == ("/data/posts.jsonl", "/data/comments.jsonl",
                                "/data/verdicts.jsonl")
    assert cfg.synth is None
    assert cfg.seed == 42 and cfg.embed_dim == 4096
    assert cfg.min_comments == 20 and cfg.max_comments == 500
    assert cfg.strategies == ("similar_comments",)
    assert cfg.max_samples_list == (5,)
    assert cfg.categories == ("none",) and cfg.baselines == ("no_comments",)
    assert cfg.split_kind == "situation" and cfg.split_ratios == (0.8, 0.1, 0.1)
    assert cfg.runs == 5 and cfg.epochs == 10 and cfg.save_contexts


def test_parse_config_synth_and_mix(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SYNTH_INI.replace(
        "[corpus]", "mix_demographics = 0.9\nmix_attitudes = 0.1\n\n[corpus]"))
    cfg = parse_config(path)
    assert cfg.corpus_paths is None
    spec = cfg.synth
    assert spec.n_annotators == 8 and spec.n_posts == 20
    assert spec.comments_per_annotator == (4, 6)
    assert spec.judgment_rule == "demographic_keyed"
    assert spec.disclosure_mix == {"Demographics": 0.9, "Attitudes": 0.1}
    # the synth seed is derived from the run seed, not equal to it
    assert spec.seed != cfg.seed


def test_parse_config_overrides(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(MINIMAL_CORPUS_INI)
    cfg = parse_config(path, {"train.epochs": "3", "run.seed": "9",
                              "sampler.max_samples": "1, 5"})
    assert cfg.epochs == 3 and cfg.seed == 9
    assert cfg.max_samples_list == (1, 5)
    with pytest.raises(ConfigError, match="section.key"):
        parse_config(path, {"epochs": "3"})


def test_parse_config_rejects_unknowns(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(MINIMAL_CORPUS_INI + "\n[astrology]\nsign = leo\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config(path)
    path.write_text(MINIMAL_CORPUS_INI + "\n[train]\nlearning = fast\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(path)


def test_parse_config_value_errors(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(MINIMAL_CORPUS_INI + "\n[train]\nepochs = soon\n")
    with pytest.raises(ConfigError, match="bad config value"):
        parse_config(path)
    path.write_text(MINIMAL_CORPUS_INI + "\n[cluster]\nenabled = perhaps\n")
    with pytest.raises(ConfigError, match="boolean"):
        parse_config(path)
    path.write_text(MINIMAL_CORPUS_INI + "\n[train]\nfocal_alpha = 0.3\n")
    with pytest.raises(ConfigError, match="focal_alpha"):
        parse_config(path)
    path.write_text("[corpus]\nposts = only.jsonl\n")
    with pytest.raises(ConfigError, match="needs posts, comments"):
        parse_config(path)


@pytest.mark.parametrize("key,value", [
    ("runs", "0"), ("batch_size", "0"), ("epochs", "-1"),
    ("focal_gamma", "-0.5"), ("focal_alpha", "0.5,0"),
    ("dim", "4"), ("ratios", "0.5,0.5,0.5"),
    ("learning_rate", "-1"), ("learning_rate", "nan"), ("learning_rate", "inf"),
    ("focal_alpha", "nan,1"), ("focal_gamma", "nan"), ("focal_gamma", "inf"),
    ("kind", "bogus"), ("k", "0"), ("reduce_dim", "0"), ("min_comments", "50"),
])
def test_bad_training_settings_fail_at_parse_time(tmp_path, capsys, key, value):
    section = {"dim": "embed", "ratios": "split", "kind": "split", "k": "cluster",
               "reduce_dim": "cluster", "min_comments": "corpus"}.get(key, "train")
    overrides = {f"{section}.{key}": value}
    # what the bad value needs beside it to reach the stage that would reject it
    overrides.update({"k": {"cluster.enabled": "true"},
                      "reduce_dim": {"cluster.enabled": "true"},
                      "min_comments": {"corpus.max_comments": "10"}}.get(key, {}))
    path = tmp_path / "exp.ini"
    path.write_text(MINIMAL_CORPUS_INI)
    with pytest.raises(ConfigError, match=key):
        parse_config(path, overrides)
    out = tmp_path / "out"
    sets = [arg for item in overrides.items() for arg in ("--set", "=".join(item))]
    code = main(["run", "--config", str(path), *sets, "--out", str(out)])
    assert code == 2 and not out.exists()
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("overrides,message", [
    (["sampler.strategies=random_comments", "sampler.categories=theory:*"],
     "category filters"),
    (["sampler.max_samples=6", "sampler.categories=theory:*"], "category filters"),
    (["sampler.strategies=similar_comments,similar_comments"], "duplicate"),
    (["sampler.baselines=no_comments,no_comments"], "duplicate"),
], ids=["filter-with-random", "filter-with-k6", "duplicate-strategy", "duplicate-baseline"])
def test_bad_grids_fail_at_parse_time(tmp_path, capsys, overrides, message):
    path = tmp_path / "exp.ini"
    path.write_text(SYNTH_INI)
    with pytest.raises(ConfigError, match=message):
        parse_config(path, dict(item.split("=", 1) for item in overrides))
    out = tmp_path / "out"
    argv = ["run", "--config", str(path), "--out", str(out)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2 and not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("posts = /data/posts.jsonl\n", "no section headers"),
    (MINIMAL_CORPUS_INI + "posts = /data/other.jsonl\n", "already exists"),
], ids=["no-section-header", "duplicate-key"])
def test_bad_config_files_fail_at_parse_time(tmp_path, capsys, text, message):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2 and not out.exists()
    assert message in capsys.readouterr().err


def test_config_values_keep_percent_signs(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text(MINIMAL_CORPUS_INI.replace("/posts.jsonl", "/a%.jsonl")
                    .replace("/comments.jsonl", "/b%%.jsonl"))
    assert main(["run", "--config", str(path), "--print-effective-config"]) == 0
    assert "corpus_paths = ('/data/a%.jsonl', '/data/b%%.jsonl', " in capsys.readouterr().out


def test_readme_lists_every_config_key_with_its_default(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \| ([^|]*?) \|", section, re.MULTILINE)
    assert sorted((sec, key) for sec, key, _ in rows) == sorted(CONFIG_KEYS)

    # a file that spells out every default the README gives parses to the
    # same config as a file that leaves them out
    def ini(sections):
        return "".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                       for sec, keys in sections.items())

    given: dict[str, dict[str, str]] = {}
    for sec, key, default in rows:
        if default.startswith("`"):
            given.setdefault(sec, {})[key] = default.strip("`")
    paths = {"posts": "p", "comments": "c", "verdicts": "v"}
    for route in ({"corpus": paths}, {"synth": {"enabled": "true"}}):
        full = {sec: dict(keys) for sec, keys in given.items()}
        for sec, keys in route.items():
            full[sec].update(keys)
        (tmp_path / "minimal.ini").write_text(ini(route))
        (tmp_path / "full.ini").write_text(ini(full))
        assert (effective_config_text(parse_config(tmp_path / "full.ini"))
                == effective_config_text(parse_config(tmp_path / "minimal.ini")))


def test_embx_with_sentence_strategy_fails_at_parse_time(tmp_path, capsys):
    # an EMBX file has no sentence rows, and hashed sentence vectors would
    # live in another space than its post rows
    embx = tmp_path / "vectors.embx"
    export_embeddings(EmbeddingMatrix(ids=["p1"], data=np.ones((1, 64))), embx)
    path = tmp_path / "exp.ini"
    path.write_text(MINIMAL_CORPUS_INI + f"\n[embed]\nembx = {embx}\ndim = 256\n")
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--set", "sampler.strategies=similar_sentences",
                 "--out", str(out)])
    assert code == 2 and not out.exists()
    assert "embx" in capsys.readouterr().err


def test_parse_config_corpus_xor_synth(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(MINIMAL_CORPUS_INI + "\n[synth]\nenabled = true\n")
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(path)
    path.write_text("[run]\nseed = 1\n")
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(path)


def test_effective_config_text_shape(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(SYNTH_INI)
    cfg = parse_config(path)
    text = effective_config_text(cfg)
    lines = text.strip().split("\n")
    assert lines[0].startswith("dlab.version = ")
    assert any(ln.startswith("synth.n_annotators = 8") for ln in lines)
    assert any(ln.startswith("embed_dim = 256") for ln in lines)
    assert text == effective_config_text(cfg)


# ---------------------------------------------------------------------------
# condition grids

def test_build_conditions_order_and_names():
    cfg = ExperimentConfig(
        corpus_paths=("p", "c", "v"),
        strategies=("similar_comments", "random_comments"),
        max_samples_list=(1, 5),
        categories=("none",),
        baselines=("no_comments", "all_comments"),
        baseline_condition="no_comments",
    )
    names = [c.name for c in build_conditions(cfg)]
    assert names == [
        "no_comments", "all_comments",
        "similar_comments-k1", "similar_comments-k5",
        "random_comments-k1", "random_comments-k5",
    ]
    baseline, _, grid = build_conditions(cfg)[:3]
    assert baseline.sampler is None
    assert grid.sampler == SamplerConfig(strategy="similar_comments", max_samples=1,
                                         seed=derive_seed(cfg.seed, "sampler"))


def test_build_conditions_theory_star_expands():
    cfg = ExperimentConfig(
        corpus_paths=("p", "c", "v"),
        strategies=("similar_comments",),
        max_samples_list=(5,),
        categories=("theory:*",),
    )
    names = [c.name for c in build_conditions(cfg)]
    assert names == [
        "no_comments",
        "similar_comments-k5-theory:Demographics",
        "similar_comments-k5-theory:Experiences",
        "similar_comments-k5-theory:Attitudes",
        "similar_comments-k5-theory:Relationships",
    ]


def test_build_conditions_cluster_rules():
    base = dict(corpus_paths=("p", "c", "v"), strategies=("similar_comments",),
                max_samples_list=(5,))
    with pytest.raises(ConfigError, match="cluster"):
        build_conditions(ExperimentConfig(categories=("cluster:1",), **base))
    with pytest.raises(ConfigError, match="out of range"):
        build_conditions(ExperimentConfig(
            categories=("cluster:7",), cluster_enabled=True, cluster_k=4, **base))
    cfg = ExperimentConfig(categories=("cluster:*",), cluster_enabled=True,
                           cluster_k=3, **base)
    names = [c.name for c in build_conditions(cfg)]
    assert names[1:] == [f"similar_comments-k5-cluster:{i}" for i in range(3)]


def test_build_conditions_duplicates_rejected():
    cfg = ExperimentConfig(
        corpus_paths=("p", "c", "v"),
        strategies=("similar_comments", "similar_comments"),
        max_samples_list=(5,),
    )
    with pytest.raises(ConfigError, match="duplicate"):
        build_conditions(cfg)


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="strategy"):
        ExperimentConfig(corpus_paths=("p", "c", "v"),
                         strategies=("psychic",)).validate()
    with pytest.raises(ConfigError, match="baseline"):
        ExperimentConfig(corpus_paths=("p", "c", "v"),
                         baselines=("coin_flip",)).validate()
    with pytest.raises(ConfigError, match="not in baselines"):
        ExperimentConfig(corpus_paths=("p", "c", "v"),
                         baseline_condition="all_comments").validate()
    with pytest.raises(ConfigError, match="max_samples"):
        ExperimentConfig(corpus_paths=("p", "c", "v"), max_samples_list=(5, 0)).validate()


# ---------------------------------------------------------------------------
# full pipeline runs

@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    """One tiny end-to-end pipeline run, shared by the assertions below."""
    root = tmp_path_factory.mktemp("pipe")
    ini = root / "exp.ini"
    ini.write_text(SYNTH_INI)
    outdir = root / "out"
    cfg = parse_config(ini, {"run.out": str(outdir)})
    rows = run_pipeline(cfg)
    return ini, outdir, cfg, rows


def test_pipeline_rows_and_artifacts(synth_run):
    _, outdir, cfg, rows = synth_run
    assert [r["condition"] for r in rows] == ["no_comments", "similar_comments-k3"]
    base, grid = rows
    assert base["t_vs_baseline"] is None and base["p_vs_baseline"] is None
    assert grid["p_vs_baseline"] is not None and 0.0 <= grid["p_vs_baseline"] <= 1.0
    for row in rows:
        assert row["n_train"] > 0 and row["n_test"] > 0
        assert 0.0 <= row["accuracy"] <= 1.0 and 0.0 <= row["macro_f1"] <= 1.0
        assert len(row["acc_runs"]) == cfg.runs
        assert row["accuracy"] == float(np.mean(row["acc_runs"]))
        assert row["macro_f1"] == float(np.mean(row["f1_runs"]))
        assert "contexts" not in row  # each condition writes its own dump
    for name in ("report.tsv", "summary.json", "effective.cfg", "split.jsonl"):
        assert (outdir / name).is_file()
    assert (outdir / "synth" / "posts.jsonl").is_file()
    assert (outdir / "contexts" / "no_comments.jsonl").is_file()
    assert (outdir / "contexts" / "similar_comments-k3.jsonl").is_file()
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["n_verdicts"] > 0
    assert summary["test_majority_accuracy"] >= 0.5
    assert summary["split_sizes"]["train"] + summary["split_sizes"]["val"] + \
        summary["split_sizes"]["test"] == summary["n_verdicts"]


def test_pipeline_rerun_is_byte_identical(synth_run):
    ini, outdir, cfg, _ = synth_run
    first = (outdir / "report.tsv").read_bytes()
    first_summary = (outdir / "summary.json").read_bytes()
    run_pipeline(parse_config(ini, {"run.out": str(outdir)}))
    assert (outdir / "report.tsv").read_bytes() == first
    assert (outdir / "summary.json").read_bytes() == first_summary


def test_pipeline_workers_match_sequential(synth_run):
    ini, outdir, cfg, _ = synth_run
    first = (outdir / "report.tsv").read_bytes()
    run_pipeline(parse_config(ini, {"run.out": str(outdir)}), workers=2)
    assert (outdir / "report.tsv").read_bytes() == first


def test_pipeline_spawn_pool_matches_sequential(synth_run, monkeypatch):
    ini, outdir, _, _ = synth_run

    def files():
        return {str(p.relative_to(outdir)): p.read_bytes()
                for p in sorted(outdir.rglob("*")) if p.is_file()}

    run_pipeline(parse_config(ini, {"run.out": str(outdir)}))
    first = files()
    methods = []
    spawn = multiprocessing.get_context("spawn")

    def record(method=None):
        methods.append(method)
        return spawn

    monkeypatch.setattr(multiprocessing, "get_context", record)
    run_pipeline(parse_config(ini, {"run.out": str(outdir)}), workers=2)
    assert methods == [None]  # the pool takes the platform's default start method
    assert files() == first


def test_pipeline_sentence_strategies(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(SYNTH_INI)
    outdir = tmp_path / "out"
    cfg = parse_config(ini, {"sampler.strategies": "similar_sentences,random_sentences",
                             "run.out": str(outdir)})

    def run(workers):
        shutil.rmtree(outdir, ignore_errors=True)
        run_pipeline(cfg, workers=workers)
        return {str(p.relative_to(outdir)): p.read_bytes()
                for p in sorted(outdir.rglob("*")) if p.is_file()}

    first = run(1)
    assert "contexts/similar_sentences-k3.jsonl" in first
    assert run(1) == first
    assert run(2) == first

    # every ranked sentence scores exactly what the scalar cosine gives
    corpus, _ = ingest_corpus(*(outdir / "synth" / f"{n}.jsonl"
                                for n in ("posts", "comments", "verdicts")))
    ecfg = cfg.embedder_config()
    items = 0
    for ctx in load_contexts(outdir / "contexts" / "similar_sentences-k3.jsonl", corpus):
        post = embed_text(corpus.posts[ctx.post_id].query_text(), ecfg)
        for item in ctx.items:
            assert item.unit == "sentence"
            assert item.similarity == cosine_similarity(post, embed_text(item.text, ecfg))
            items += 1
    assert items > 0
    for ctx in load_contexts(outdir / "contexts" / "random_sentences-k3.jsonl", corpus):
        assert all(i.unit == "sentence" and i.similarity is None for i in ctx.items)


def test_pipeline_report_roundtrip(synth_run):
    _, outdir, _, rows = synth_run
    parsed = read_report_tsv(outdir / "report.tsv")
    assert [r["condition"] for r in parsed] == [r["condition"] for r in rows]
    assert parsed[1]["accuracy"] == f"{rows[1]['accuracy']:.6f}"
    assert parsed[0]["t_vs_baseline"] == ""


def test_pipeline_corpus_path_route(tmp_path):
    spec = PopulationSpec(
        n_annotators=6, n_posts=15, comments_per_annotator=(4, 6),
        verdicts_per_annotator=(5, 8), judgment_rule="demographic_keyed",
        nta_base_rate=0.7, seed=2,
    )
    corpus, truth = generate_population(spec)
    paths = write_population(corpus, truth, tmp_path / "data")
    ini = tmp_path / "exp.ini"
    ini.write_text(f"""\
[corpus]
posts = {paths['posts']}
comments = {paths['comments']}
verdicts = {paths['verdicts']}
min_comments = 1

[embed]
dim = 128

[split]
kind = verdict
ratios = 0.7,0.1,0.2

[sampler]
strategies = random_comments
max_samples = 2
baselines = no_comments

[train]
epochs = 1
runs = 1

[run]
seed = 3
out = {tmp_path / 'out'}
baseline = no_comments
""")
    rows = run_pipeline(parse_config(ini))
    assert [r["condition"] for r in rows] == ["no_comments", "random_comments-k2"]
    assert (tmp_path / "out" / "report.tsv").is_file()
    assert not (tmp_path / "out" / "synth").exists()


# ---------------------------------------------------------------------------
# report merging

FAKE_ROW = dict(n_train=80, n_test=20, five_plus_pct=75.0,
                acc_runs=[0.7], f1_runs=[0.5], t_vs_baseline=None,
                p_vs_baseline=None)


def _fake_report(path, cfg, conditions):
    rows = [dict(FAKE_ROW, condition=name, accuracy=acc, macro_f1=f1)
            for name, acc, f1 in conditions]
    write_report_tsv(rows, cfg, path)


def test_merge_reports_layouts(tmp_path):
    cfg = ExperimentConfig(corpus_paths=("p", "c", "v"))
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    _fake_report(a, cfg, [("no_comments", 0.60, 0.40),
                          ("similar_comments-k1", 0.65, 0.45)])
    _fake_report(b, cfg, [("similar_comments-k5", 0.72, 0.55),
                          ("random_comments-k5", 0.62, 0.42)])

    cat = tmp_path / "cat.tsv"
    merge_reports([a, b], "category", cat)
    lines = cat.read_text().splitlines()
    assert lines[0] == "condition\tfive_plus_pct\taccuracy\tmacro_f1"
    assert len(lines) == 5 and lines[1].startswith("no_comments\t")

    # category-filtered rows keep their own grid row instead of overwriting
    # the unfiltered strategy's cell
    c = tmp_path / "c.tsv"
    _fake_report(c, cfg, [("similar_comments-k5-theory:Demographics", 0.80, 0.60),
                          ("similar_comments-k5-theory:Attitudes", 0.55, 0.35)])
    grid = tmp_path / "grid.tsv"
    merge_reports([a, b, c], "grid", grid)
    lines = grid.read_text().splitlines()
    assert lines[0] == "strategy\tacc@1\tf1@1\tacc@5\tf1@5"
    by_name = {ln.split("\t")[0]: ln.split("\t") for ln in lines[1:]}
    assert by_name["similar_comments"][1] == "0.650000"
    assert by_name["similar_comments"][3] == "0.720000"
    assert by_name["random_comments"][3] == "0.620000"
    assert by_name["similar_comments-theory:Demographics"][3] == "0.800000"
    assert by_name["similar_comments-theory:Attitudes"][1:] == ["", "", "0.550000", "0.350000"]
    assert len(lines) == 5


# ---------------------------------------------------------------------------
# command line

def test_cli_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_cli_missing_input_is_usage_error(tmp_path, capsys):
    code = main(["ingest", "--posts", str(tmp_path / "nope.jsonl"),
                 "--comments", str(tmp_path / "nope2.jsonl"),
                 "--verdicts", str(tmp_path / "nope3.jsonl"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "nope.jsonl" in capsys.readouterr().err

    # analyze checks --contexts (and coverage's --cluster-model) up front
    ctx = tmp_path / "ctx.jsonl"
    ctx.write_text("")
    for argv, missing in (
        (["coverage", "--contexts", str(tmp_path / "nope.jsonl")], "nope.jsonl"),
        (["coverage", "--contexts", str(ctx), "--cluster-model",
          str(tmp_path / "nope.model")], "nope.model"),
        (["diversity", "--contexts", str(tmp_path / "nope.jsonl")], "nope.jsonl"),
    ):
        code = main(["analyze", *argv, "--comments", str(ctx),
                     "--out", str(tmp_path / "out.tsv")])
        assert code == 1
        assert f"input not found: {tmp_path / missing}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--k", "--reduce-dim"])
def test_cli_cluster_sizes_below_one_are_usage_errors(flag, capsys):
    # rejected while parsing, before the comments file is read
    argv = {"--k": "3", "--reduce-dim": "4", flag: "0"}
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "--comments", "c", "--model-out", "m",
              *(tok for item in argv.items() for tok in item)])
    assert exc.value.code == 1
    assert f"argument {flag}: must be >= 1, got 0" in capsys.readouterr().err


def test_cli_extract_runs_extraction_once_per_comment(tmp_path, corpus_files, monkeypatch):
    comments = corpus_files[1]
    calls = []
    extract = dlab.disclosure.extract_disclosures

    def counted(comment, patterns=None):
        calls.append(comment.id)
        return extract(comment, patterns)

    monkeypatch.setattr(dlab.disclosure, "extract_disclosures", counted)
    monkeypatch.setattr(dlab.cli, "extract_disclosures", counted)
    assert main(["extract", "--comments", str(comments), "--spans-out", str(tmp_path / "s"),
                 "--profiles-out", str(tmp_path / "p")]) == 0
    assert calls == ["c1", "c2", "c3"]
    profiles = [json.loads(line) for line in (tmp_path / "p").read_text().splitlines()]
    assert profiles == [
        {"comment_id": "c1", "theory_categories": ["Demographics"], "passes_phrase_filter": True},
        {"comment_id": "c2", "theory_categories": [], "passes_phrase_filter": False},
        {"comment_id": "c3", "theory_categories": ["Experiences"], "passes_phrase_filter": False},
    ]


def test_cli_malformed_data_is_data_error(tmp_path, capsys):
    posts = tmp_path / "posts.jsonl"
    posts.write_text('{"id": "p1", "author_id": "op1", "title": "t", "body": "b"}\n'
                     "this is not json\n")
    write_jsonl(tmp_path / "comments.jsonl",
                [{"id": "c1", "author_id": "a1", "text": "hi there."}])
    write_jsonl(tmp_path / "verdicts.jsonl",
                [{"post_id": "p1", "annotator_id": "a1", "label": "NTA"}])
    code = main(["ingest", "--posts", str(posts),
                 "--comments", str(tmp_path / "comments.jsonl"),
                 "--verdicts", str(tmp_path / "verdicts.jsonl"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err

    # a contexts line that is not a context record
    contexts = tmp_path / "contexts.jsonl"
    contexts.write_text("[]\n")
    code = main(["analyze", "diversity", "--contexts", str(contexts),
                 "--comments", str(tmp_path / "comments.jsonl"),
                 "--out", str(tmp_path / "diversity.tsv")])
    assert code == 2
    assert "contexts.jsonl line 1: record is not an object" in capsys.readouterr().err

    # a context item whose unit is neither comment nor sentence
    write_jsonl(tmp_path / "good_posts.jsonl",
                [{"id": "p1", "author_id": "op1", "title": "t", "body": "b"}])
    write_jsonl(tmp_path / "split.jsonl",
                [{"kind": "verdict", "ratios": [1.0, 0.0, 0.0], "seed": 0},
                 {"verdict_index": 0, "partition": "train"}])
    write_jsonl(contexts, [{"annotator_id": "a1", "post_id": "p1", "items": [
        {"comment_id": "c1", "similarity": None, "unit": "paragraph", "sentence_index": None}]}])
    code = main(["train", "--posts", str(tmp_path / "good_posts.jsonl"),
                 "--comments", str(tmp_path / "comments.jsonl"),
                 "--verdicts", str(tmp_path / "verdicts.jsonl"), "--dim", "64",
                 "--contexts", str(contexts), "--split", str(tmp_path / "split.jsonl"),
                 "--model-out", str(tmp_path / "model.txt")])
    assert code == 2
    assert "contexts.jsonl line 1: unknown unit 'paragraph'" in capsys.readouterr().err


@pytest.mark.parametrize("ini,flags", [
    (MINIMAL_CORPUS_INI, []),
    (SYNTH_INI, ["--set", "embed.embx=/data/vectors.embx"]),
], ids=["corpus", "embx"])
def test_cli_run_missing_input_is_usage_error(tmp_path, capsys, ini, flags):
    # checked before any stage runs, so nothing is written
    (tmp_path / "exp.ini").write_text(ini.replace("/data", str(tmp_path)))
    code = main(["run", "--config", str(tmp_path / "exp.ini"), "--out", str(tmp_path / "out"),
                 *(flag.replace("/data", str(tmp_path)) for flag in flags)])
    assert code == 1
    assert f"input not found: {tmp_path}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_print_effective_config(tmp_path, capsys):
    ini = tmp_path / "exp.ini"
    ini.write_text(SYNTH_INI)
    code = main(["run", "--config", str(ini), "--seed", "99",
                 "--print-effective-config"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("dlab.version = ")
    assert "seed = 99" in out
    # the convenience --seed flag must reach the derived synth seed too
    baseline = parse_config(ini, {"run.seed": "99"})
    assert f"synth.seed = {baseline.synth.seed}" in out


def test_cli_synth_flags_build_the_synth_section_population(tmp_path, monkeypatch):
    specs = []

    class Generated(Exception):
        pass

    def record(spec):
        specs.append(spec)
        raise Generated

    monkeypatch.setattr(dlab.cli, "generate_population", record)
    with pytest.raises(Generated):
        main(["synth", "--out", str(tmp_path / "raw")])
    with pytest.raises(Generated):
        main(["synth", "--annotators", "8", "--posts", "20", "--comments-lo", "4",
              "--comments-hi", "6", "--verdicts-lo", "6", "--verdicts-hi", "8",
              "--mix-demographics", "0.9", "--mix-attitudes", "0.1", "--seed", "5",
              "--out", str(tmp_path / "raw")])
    ini = tmp_path / "exp.ini"
    ini.write_text(SYNTH_INI.replace(
        "[corpus]", "mix_demographics = 0.9\nmix_attitudes = 0.1\n\n[corpus]"))
    assert specs == [PopulationSpec(), dataclasses.replace(parse_config(ini).synth, seed=5)]


def test_cli_train_focal_alpha_takes_two_numbers(capsys):
    # the flag goes through the config file's converter, so a bad pair is a
    # usage error before any input is read
    files = ["--posts", "p", "--comments", "c", "--verdicts", "v", "--contexts", "x",
             "--split", "s", "--model-out", "m"]
    with pytest.raises(SystemExit) as exc:
        main(["train", *files, "--focal-alpha", "0.3"])
    assert exc.value.code == 1
    assert "--focal-alpha" in capsys.readouterr().err


def test_cli_full_chain(tmp_path, capsys):
    d = tmp_path
    embed_flags = ["--dim", "256"]

    assert main(["synth", "--annotators", "8", "--posts", "16",
                 "--comments-lo", "3", "--comments-hi", "5",
                 "--verdicts-lo", "5", "--verdicts-hi", "7",
                 "--seed", "3", "--out", str(d / "raw")]) == 0
    raw = [str(d / "raw" / f"{n}.jsonl") for n in ("posts", "comments", "verdicts")]

    assert main(["ingest", "--posts", raw[0], "--comments", raw[1],
                 "--verdicts", raw[2], "--min-comments", "1",
                 "--max-comments", "99", "--out", str(d / "corpus")]) == 0
    trio = []
    for name in ("posts", "comments", "verdicts"):
        path = d / "corpus" / f"{name}.jsonl"
        assert path.is_file()
        trio += [f"--{name}", str(path)] if name != "posts" else [f"--{name}", str(path)]
    corpus_flags = trio

    assert main(["extract", "--comments", str(d / "corpus" / "comments.jsonl"),
                 "--spans-out", str(d / "spans.jsonl"),
                 "--profiles-out", str(d / "profiles.jsonl")]) == 0
    assert (d / "spans.jsonl").is_file() and (d / "profiles.jsonl").is_file()

    assert main(["embed", *corpus_flags, *embed_flags,
                 "--out", str(d / "vectors.embx")]) == 0

    assert main(["cluster", "--comments", str(d / "corpus" / "comments.jsonl"),
                 *embed_flags, "--k", "3", "--reduce-dim", "4",
                 "--model-out", str(d / "clusters.model"),
                 "--inspect-out", str(d / "inspect.jsonl")]) == 0

    assert main(["split", *corpus_flags, "--kind", "verdict",
                 "--ratios", "0.7,0.1,0.2", "--seed", "5",
                 "--out", str(d / "split.jsonl")]) == 0

    assert main(["sample", *corpus_flags, *embed_flags,
                 "--strategy", "similar_comments", "--max-samples", "3",
                 "--seed", "5", "--out", str(d / "ctx.jsonl")]) == 0

    assert main(["train", *corpus_flags, *embed_flags,
                 "--contexts", str(d / "ctx.jsonl"), "--split", str(d / "split.jsonl"),
                 "--epochs", "2", "--seed", "5",
                 "--model-out", str(d / "model.txt")]) == 0

    assert main(["evaluate", *corpus_flags, *embed_flags,
                 "--model", str(d / "model.txt"),
                 "--contexts", str(d / "ctx.jsonl"), "--split", str(d / "split.jsonl"),
                 "--partition", "test",
                 "--report-out", str(d / "eval.json")]) == 0
    report = json.loads((d / "eval.json").read_text())
    assert 0.0 <= report["accuracy"] <= 1.0 and report["correctness"]

    assert main(["analyze", "significance",
                 "--report-a", str(d / "eval.json"),
                 "--report-b", str(d / "eval.json")]) == 0
    assert "p=1" in capsys.readouterr().out

    assert main(["analyze", "coverage", "--contexts", str(d / "ctx.jsonl"),
                 "--comments", str(d / "corpus" / "comments.jsonl"),
                 "--cluster-model", str(d / "clusters.model"),
                 "--out", str(d / "coverage.tsv")]) == 0
    assert (d / "coverage.tsv").read_text().startswith("family\tbucket\tpercent")

    assert main(["analyze", "diversity", "--contexts", str(d / "ctx.jsonl"),
                 "--comments", str(d / "corpus" / "comments.jsonl"),
                 "--out", str(d / "diversity.tsv")]) == 0

    assert main(["analyze", "ngrams", "--comments", str(d / "corpus" / "comments.jsonl"),
                 "--n", "1", "--position", "before", "--top", "10",
                 "--out", str(d / "ngrams.tsv")]) == 0

    assert main(["analyze", "audit", "--comments", str(d / "corpus" / "comments.jsonl"),
                 "--category", "Demographics", "--n", "5", "--seed", "1",
                 "--out", str(d / "audit.jsonl")]) == 0
    assert len((d / "audit.jsonl").read_text().splitlines()) == 5
