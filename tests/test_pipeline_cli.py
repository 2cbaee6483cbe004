import dataclasses
import json
import multiprocessing
import random
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from test_batch_oracles import cosine_similarity

import dlab.cli
import dlab.disclosure
import dlab.embed
import dlab.model
import dlab.pipeline
from dlab.cli import main
from dlab.corpus import CorpusError, ingest_corpus, load_split
from dlab.disclosure import audit_sample
from dlab.embed import (EmbedderConfig, EmbeddingMatrix, embed_text, export_embeddings,
                        read_checksummed_text, write_checksummed_text)
from dlab.model import ModelFileError, ModelParams, load_model, save_model
from dlab.pipeline import (
    CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    build_conditions,
    category_filters,
    effective_config_text,
    embed_corpus,
    merge_reports,
    parse_config,
    ranking_depths,
    read_report_tsv,
    run_pipeline,
    setup_corpus,
    setup_profiles,
    write_report_tsv,
)
from dlab.sampler import SamplerConfig, load_contexts
from dlab.seeds import derive_seed
from dlab.synthgen import PopulationSpec, generate_population, write_population
from tests.conftest import profile_records, records_of, write_jsonl

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

# the settings of a staged test corpus: no annotator filter, dim 64;
# `extra` adds sections other than [corpus] and [embed]
STAGE_INI = """\
[corpus]
posts = {data}/posts.jsonl
comments = {data}/comments.jsonl
verdicts = {data}/verdicts.jsonl
min_comments = 0

[embed]
dim = 64

{extra}
"""


def write_stage_config(path, data, extra="") -> str:
    """A `dlab run` config at `path` over the corpus files in `data`."""
    path.write_text(STAGE_INI.format(data=data, extra=extra))
    return str(path)


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


def test_parse_config_embedder_seed_is_derived_in_range(tmp_path, capsys):
    # the embedder seed has no key of its own: [embed] seed fails at parse
    # time, and any [run] seed derives one in [0, 2**64)
    path = tmp_path / "exp.ini"
    path.write_text(MINIMAL_CORPUS_INI + "\n[embed]\nseed = -1\n")
    with pytest.raises(ConfigError, match=r"unknown key 'seed' in section \[embed\]"):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2 and not out.exists()
    assert "unknown key 'seed'" in capsys.readouterr().err
    path.write_text(MINIMAL_CORPUS_INI)
    assert 0 <= parse_config(path, {"run.seed": "-1"}).embedder_config().seed < 2 ** 64


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
    export_embeddings(EmbeddingMatrix.from_dense(["p1"], np.ones((1, 64))), embx)
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


def test_ranking_depths_follow_the_built_conditions():
    # each unit ranks to the largest k of its similarity conditions, or
    # whole pools when one of them filters by category; random strategies
    # and baselines rank nothing
    base = dict(corpus_paths=("p", "c", "v"), max_samples_list=(3, 1, 5))
    cases = [
        (dict(strategies=("similar_comments", "similar_sentences")), {"comment": 5, "sentence": 5}),
        (dict(strategies=("similar_comments",), categories=("none", "theory:*")),
         {"comment": None}),
        (dict(strategies=("similar_comments",), categories=("theory:*",)), {"comment": None}),
        (dict(strategies=("random_comments", "random_sentences")), {}),
    ]
    for fields, depths in cases:
        conditions = build_conditions(ExperimentConfig(**base, **fields))
        assert ranking_depths(conditions) == depths, fields
        assert ranking_depths(conditions[-1:] + conditions[:-1]) == depths, fields


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


# each token's verdict from `dlab run` with [cluster] k = 3 and with
# clustering off; `dlab sample` reads the same grid from the same config
CATEGORY_TOKENS = {
    "none": (True, True),
    "theory:Demographics": (True, True),
    "theory:*": (True, True),
    "theory:Nope": (False, False),
    "cluster:0": (True, False),
    "cluster:2": (True, False),
    "cluster:3": (False, False),
    "cluster:9": (False, False),
    "cluster:*": (True, False),
    "cluster:x": (False, False),
    "bogus": (False, False),
}


@pytest.fixture(scope="module")
def sample_inputs(tmp_path_factory):
    """A tiny corpus on disk and the directory of its files."""
    root = tmp_path_factory.mktemp("sample")
    spec = PopulationSpec(n_annotators=3, n_posts=4, comments_per_annotator=(3, 3),
                          verdicts_per_annotator=(2, 2), seed=4)
    write_population(*generate_population(spec), root / "data")
    return root, root / "data"


@pytest.mark.parametrize("token", list(CATEGORY_TOKENS))
def test_category_tokens_mean_the_same_to_run_and_sample(token, sample_inputs, tmp_path,
                                                         capsys):
    # `dlab sample --condition` takes every name of the grid a token gives,
    # and a token the grid rejects fails the config before anything is read
    _, data = sample_inputs
    expected = CATEGORY_TOKENS[token]
    for clusters, accepted in zip((3, None), expected):
        cfg = ExperimentConfig(corpus_paths=("p", "c", "v"), categories=(token,),
                               max_samples_list=(3,), cluster_enabled=clusters is not None,
                               cluster_k=clusters or 10)
        try:
            names = [c.name for c in build_conditions(cfg)]
        except ConfigError:
            assert not accepted
            names = ["no_comments"]
        else:
            assert accepted
        config = write_stage_config(
            tmp_path / f"{clusters}.ini", data,
            f"[cluster]\nenabled = {clusters is not None}\nk = {clusters or 10}\n\n"
            f"[sampler]\nmax_samples = 3\ncategories = {token}\n")
        for name in names:
            out = tmp_path / f"{clusters}-{name.replace(':', '_')}.jsonl"
            code = main(["sample", "--config", config, "--condition", name, "--out", str(out)])
            if accepted:
                assert code == 0 and len(out.read_text().splitlines()) == 6
            else:
                assert code == 2 and not out.exists()
                assert "[sampler] categories" in capsys.readouterr().err


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


def test_run_condition_scores_every_fit_as_evaluate_does(tmp_path, monkeypatch):
    # runs = 3, plus two fits whose logits tie exactly on every row (zero
    # weights, and equal weight rows): each condition scores all of its fits
    # on one dense test matrix, and each report equals evaluate over the
    # test partition's Features field for field
    ini = tmp_path / "exp.ini"
    ini.write_text(SYNTH_INI)
    cfg = parse_config(ini, {"run.out": str(tmp_path / "out"), "train.runs": "3"})
    partitions, fitted, scored = [], [], []
    partition_data, train, evaluate = (dlab.pipeline.partition_data, dlab.pipeline.train,
                                       dlab.pipeline.evaluate)

    def partition(*args):
        partitions.append(partition_data(*args))
        return partitions[-1]

    def fit(features, y, train_cfg, runs):
        fits = train(features, y, train_cfg, runs)
        assert len(fits.params) == runs == 3
        ties = tuple(ModelParams(weights=weights, bias=np.full(2, bias), gamma=2.0,
                                 alpha=(0.5, 0.5), seed=0, epochs=0, learning_rate=0.0)
                     for weights, bias in (
                         (np.zeros((2, features.dim)), 0.0),
                         (np.tile(np.linspace(-1.0, 1.0, features.dim), (2, 1)), 0.25)))
        fitted.append(fits.params + ties)
        return dataclasses.replace(fits, params=fitted[-1])

    def score(params, rows, y):
        scored.append((rows, evaluate(params, rows, y)))
        return scored[-1][1]

    monkeypatch.setattr(dlab.pipeline, "partition_data", partition)
    monkeypatch.setattr(dlab.pipeline, "train", fit)
    monkeypatch.setattr(dlab.pipeline, "evaluate", score)
    rows = run_pipeline(cfg)
    assert len(fitted) == len(rows) == 2 and len(scored) == 2 * 5
    for c, (row, fits) in enumerate(zip(rows, fitted)):
        features, y = partitions[2 * c + 1]
        reports = scored[5 * c:5 * c + 5]
        # one matrix, the partition's dense rows, serves every fit
        assert all(matrix is reports[0][0] for matrix, _ in reports)
        assert np.array_equal(reports[0][0], features.rows())
        for params, (_, got) in zip(fits, reports):
            want = dlab.model.evaluate(params, features, y)
            assert got.n == want.n
            assert got.accuracy == want.accuracy and got.macro_f1 == want.macro_f1
            assert got.per_class == want.per_class
            assert np.array_equal(got.correctness, want.correctness)
        # the ties go to NTA
        for _, got in reports[3:]:
            assert got.correctness.tolist() == (y == 0).astype(np.int64).tolist()
        assert row["acc_runs"] == [got.accuracy for _, got in reports]
        assert row["correctness"] == np.concatenate(
            [got.correctness for _, got in reports]).tolist()


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
    for ctx in records_of(load_contexts(outdir / "contexts" / "similar_sentences-k3.jsonl",
                                        corpus)):
        post = embed_text(corpus.posts[ctx.post_id].query_text(), ecfg)
        for item in ctx.items:
            assert item.unit == "sentence"
            assert item.similarity == cosine_similarity(post, embed_text(item.text, ecfg))
            items += 1
    assert items > 0
    for ctx in records_of(load_contexts(outdir / "contexts" / "random_sentences-k3.jsonl",
                                        corpus)):
        assert all(i.unit == "sentence" and i.similarity is None for i in ctx.items)


def _count_calls(monkeypatch, module, *names) -> list[str]:
    """The names of `module` called from now on, in call order."""
    calls = []
    for name in names:
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def _without_provenance(directory, *keys) -> dict[str, bytes]:
    """Every file under the directory, less the effective.cfg and report.tsv
    lines of the given keys."""
    files = {}
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name in ("effective.cfg", "report.tsv"):
                data = b"".join(line for line in data.splitlines(keepends=True)
                                if not line.lstrip(b"# ").startswith(
                                    tuple(key.encode() for key in keys)))
            files[str(path.relative_to(directory))] = data
    return files


def test_run_builds_profiles_and_clusters_only_for_its_filters(tmp_path, monkeypatch):
    # with clustering on, a grid without a category token builds no profiles
    # and fits no clusters (nor counts the phrase-filtered comments, so a k
    # above them is no error), and writes what the run without clustering
    # writes; a theory token builds the profiles once and fits no clusters;
    # a cluster token does both
    ini = tmp_path / "exp.ini"
    ini.write_text(SYNTH_INI)
    calls = _count_calls(monkeypatch, dlab.pipeline, "build_profiles", "truncated_svd", "kmeans")
    plain = {"cluster.enabled": "false"}
    for name, categories, expected in (
            ("none", "none", []),
            ("theory", "none,theory:*", ["build_profiles"]),
            ("cluster", "none,cluster:1", ["build_profiles", "truncated_svd", "kmeans"])):
        sampler = {"sampler.categories": categories}
        clustered = {"cluster.enabled": "true", "cluster.k": "1000" if name == "none" else "2"}
        run_pipeline(parse_config(ini, {"run.out": str(tmp_path / name), **sampler, **clustered}))
        assert calls == expected
        del calls[:]
        if name != "cluster":
            run_pipeline(parse_config(ini, {"run.out": str(tmp_path / f"{name}-plain"),
                                            **sampler, **plain}))
            assert _without_provenance(tmp_path / name, "out =", "cluster_") == \
                _without_provenance(tmp_path / f"{name}-plain", "out =", "cluster_")
            del calls[:]


def test_cli_sample_fits_clusters_only_for_a_cluster_condition(sample_inputs, tmp_path,
                                                              monkeypatch):
    # one config, clustering on, with theory and cluster tokens: `dlab
    # sample` builds profiles for a filtered condition only, and fits the
    # clusters for a cluster condition only; the unfiltered condition's
    # contexts are those of the config without clustering
    _, data = sample_inputs
    sampler = "[sampler]\nmax_samples = 3\ncategories = none,theory:*,cluster:*\n"
    config = write_stage_config(tmp_path / "on.ini", data,
                                f"[cluster]\nenabled = true\nk = 3\n\n{sampler}")
    calls = _count_calls(monkeypatch, dlab.pipeline, "build_profiles", "truncated_svd", "kmeans")
    for condition, expected in (
            ("no_comments", []), ("similar_comments-k3", []),
            ("similar_comments-k3-theory:Attitudes", ["build_profiles"]),
            ("similar_comments-k3-cluster:1", ["build_profiles", "truncated_svd", "kmeans"])):
        out = tmp_path / f"{condition.replace(':', '_')}.jsonl"
        assert main(["sample", "--config", config, "--condition", condition,
                     "--out", str(out)]) == 0
        assert calls == expected, condition
        del calls[:]
    config = write_stage_config(tmp_path / "off.ini", data,
                                sampler.replace(",cluster:*", ""))
    assert main(["sample", "--config", config, "--condition", "similar_comments-k3",
                 "--out", str(tmp_path / "off.jsonl")]) == 0
    assert (tmp_path / "off.jsonl").read_bytes() == \
        (tmp_path / "similar_comments-k3.jsonl").read_bytes()


@pytest.mark.parametrize("command", ["run", "sample", "cluster"])
def test_too_few_phrase_filtered_comments_fail_before_embedding(sample_inputs, tmp_path,
                                                                monkeypatch, capsys, command):
    # the count needs only the comments' text, so a k above it is a data
    # error before any text is embedded and before the run writes a split
    _, data = sample_inputs
    config = write_stage_config(
        tmp_path / "k.ini", data,
        "[cluster]\nenabled = true\nk = 1000\n\n[sampler]\ncategories = none,cluster:0\n")
    calls = _count_calls(monkeypatch, dlab.embed, "embed_text")
    argv = {"run": ["run", "--config", config, "--out", str(tmp_path / "out")],
            "sample": ["sample", "--config", config, "--condition",
                       "similar_comments-k5-cluster:0", "--out", str(tmp_path / "s.jsonl")],
            "cluster": ["cluster", "--config", config, "--out", str(tmp_path / "c.jsonl")]}
    assert main(argv[command]) == 2
    assert re.search(r"data error: only \d+ phrase-filtered comments for k=1000",
                     capsys.readouterr().err)
    assert calls == []
    assert not (tmp_path / "out" / "split.jsonl").exists()


def test_pipeline_empty_partition_is_data_error(tmp_path, capsys):
    # three posts split by situation at 0.8/0.1/0.1 put every verdict in train
    (tmp_path / "exp.ini").write_text(
        "[synth]\nenabled = true\nn_annotators = 6\nn_posts = 3\nverdicts_lo = 3\n"
        "verdicts_hi = 3\n\n[corpus]\nmin_comments = 1\n\n[train]\nruns = 1\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(tmp_path / "exp.ini"), "--seed", "1",
                 "--out", str(out)]) == 2
    assert ("data error: the split leaves the test partition empty "
            "(train 18, val 0, test 0 verdicts)") in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["synth"]


def test_pipeline_report_roundtrip(synth_run):
    _, outdir, _, rows = synth_run
    parsed = read_report_tsv(outdir / "report.tsv")
    assert [r["condition"] for r in parsed] == [r["condition"] for r in rows]
    assert parsed[1]["accuracy"] == f"{rows[1]['accuracy']:.6f}"
    assert parsed[0]["t_vs_baseline"] == ""


def test_pipeline_embx_run_matches_hashed_run(synth_run, tmp_path):
    # vectors exported from the hashed embedder and read back through
    # [embed] embx give the run the same rows, so the same artifacts
    ini, outdir, cfg, _ = synth_run
    corpus, _ = ingest_corpus(*(outdir / "synth" / f"{n}.jsonl"
                                for n in ("posts", "comments", "verdicts")))
    embx = tmp_path / "vectors.embx"
    export_embeddings(embed_corpus(corpus, cfg.embedder_config()), embx)
    out = tmp_path / "out"
    run_pipeline(parse_config(ini, {"run.out": str(out), "embed.embx": str(embx)}))

    def files(root):
        return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
                if p.is_file() and p.parent.name in ("contexts", root.name)
                and p.name not in ("report.tsv", "effective.cfg")}

    assert files(out) == files(outdir) and "split.jsonl" in files(out)
    hashed, imported = (set((root / "report.tsv").read_text().splitlines())
                        for root in (outdir, out))
    assert hashed ^ imported == {"# embx_path = None", f"# embx_path = {embx}",
                                 f"# out = {outdir}", f"# out = {out}"}


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


def test_report_grid_refuses_a_repeated_condition(tmp_path, capsys):
    # the grid has one cell per condition, so a repeat would overwrite it
    cfg = ExperimentConfig(corpus_paths=("p", "c", "v"))
    report = tmp_path / "a.tsv"
    _fake_report(report, cfg, [("no_comments", 0.60, 0.40), ("similar_comments-k1", 0.65, 0.45)])
    grid = tmp_path / "grid.tsv"
    assert main(["report", "--layout", "grid", "--out", str(grid), str(report), str(report)]) == 2
    assert ("data error: condition 'similar_comments-k1' appears more than once in the grid"
            in capsys.readouterr().err)
    assert not grid.exists()
    # the category layout lists every row
    table = tmp_path / "category.tsv"
    assert main(["report", "--layout", "category", "--out", str(table),
                 str(report), str(report)]) == 0
    assert [ln.split("\t")[0] for ln in table.read_text().splitlines()[1:]] == [
        "no_comments", "similar_comments-k1"] * 2


@pytest.mark.parametrize("edit,message", [
    (lambda lines: [ln.replace("\tfive_plus_pct", "").replace("\tmacro_f1", "")
                    for ln in lines], "report header"),
    (lambda lines: [ln for ln in lines if ln.startswith("#")], "report header"),
    (lambda lines: lines[:-1] + [lines[-1] + "\textra"], r"a\.tsv line \d+: 11 fields, not 10"),
], ids=["columns-missing", "no-header", "extra-field"])
def test_report_of_another_shape_is_data_error(tmp_path, capsys, edit, message):
    cfg = ExperimentConfig(corpus_paths=("p", "c", "v"))
    report = tmp_path / "a.tsv"
    _fake_report(report, cfg, [("no_comments", 0.60, 0.40), ("similar_comments-k1", 0.65, 0.45)])
    assert [row["condition"] for row in read_report_tsv(report)] == [
        "no_comments", "similar_comments-k1"]
    report.write_text("\n".join(edit(report.read_text().splitlines())) + "\n")
    out = tmp_path / "merged.tsv"
    assert main(["report", "--layout", "category", "--out", str(out), str(report)]) == 2
    assert f"{report}" in capsys.readouterr().err and not out.exists()
    with pytest.raises(CorpusError, match=message):
        read_report_tsv(report)


# ---------------------------------------------------------------------------
# command line

def test_cli_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_cli_missing_input_is_usage_error(sample_inputs, tmp_path, capsys):
    # a stage command's config, and the corpus files it names, must exist
    out = tmp_path / "out"
    for config, missing in ((tmp_path / "nope.ini", "nope.ini"),
                            (write_stage_config(tmp_path / "stage.ini", tmp_path), "posts.jsonl")):
        for command in STAGE_FLAGS:
            assert main(_stage_argv_with(command, config, out)) == 1
            assert f"input not found: {tmp_path / missing}" in capsys.readouterr().err
            assert not out.exists()

    # coverage and diversity check --contexts before reading the corpus
    config = write_stage_config(tmp_path / "run.ini", sample_inputs[1])
    for command in ("coverage", "diversity"):
        code = main(["analyze", command, "--config", config,
                     "--contexts", str(tmp_path / "nope.jsonl"), "--out", str(out)])
        assert code == 1
        assert f"input not found: {tmp_path / 'nope.jsonl'}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("flag,value,message", [
    # k and reduce_dim are [cluster] keys of the config
    ("--k", "0", "unrecognized arguments: --k 0"),
    ("--reduce-dim", "0", "unrecognized arguments: --reduce-dim 0"),
    ("--inspect-n", "-1", "argument --inspect-n: must be >= 0, got -1"),
    # eligibility is the fixed phrase filter, so a pattern file is no option
    ("--patterns", "p.txt", "unrecognized arguments: --patterns p.txt"),
], ids=["--k", "--reduce-dim", "--inspect-n", "--patterns"])
def test_cli_cluster_sizes_below_one_are_usage_errors(flag, value, message, capsys):
    # rejected while parsing, before the config is read
    with pytest.raises(SystemExit) as exc:
        main(["cluster", "--config", "c.ini", "--out", "m", flag, value])
    assert exc.value.code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,value,bound", [
    ("sample", "--max-samples", "0", 1),
    ("train", "--batch-size", "0", 1),
    ("train", "--epochs", "-1", 0),
    ("ngrams", "--top", "-1", 0),
    ("audit", "--n", "-1", 0),
])
def test_cli_sample_and_train_sizes_below_bound_are_usage_errors(command, flag, value, bound,
                                                                  capsys):
    # rejected while parsing, before any input is read or embedded; sample
    # and train take their sizes from the config, so the flags are unknown
    stage = ["--config", "c.ini", "--condition", "no_comments"]
    argv = {"sample": ["sample", *stage, "--out", "o"],
            "train": ["train", *stage, "--contexts", "c", "--split", "s", "--model-out", "m"],
            "ngrams": ["analyze", "ngrams", "--config", "c.ini", "--n", "1",
                       "--position", "before", "--out", "o"],
            "audit": ["analyze", "audit", "--config", "c.ini", "--category", "Demographics",
                      "--out", "o"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 1
    assert (f"argument {flag}: must be >= {bound}, got {value}" if command in ("ngrams", "audit")
            else f"unrecognized arguments: {flag} {value}") in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--category", "Bogus"], "argument --category: invalid choice: 'Bogus'"),
    (["--category", "Demographics", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["--category", "Demographics", "--patterns", "p"], "unrecognized arguments: --patterns p"),
    (["--category", "Demographics", "--comments", "c"], "unrecognized arguments: --comments c"),
], ids=["category", "seed", "patterns", "comments"])
def test_cli_audit_category_and_dropped_flags_are_usage_errors(argv, message, capsys):
    # rejected while parsing, before the config (which does not exist) or
    # any corpus is read; the audit seed derives from the config's seed, and
    # the categories come from the packaged pattern set
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "audit", "--config", "c.ini", "--out", "o", *argv])
    assert exc.value.code == 1
    assert message in capsys.readouterr().err


# each stage command's required flags beside --config
STAGE_FLAGS = {"synth": ["--out"], "ingest": ["--out"], "extract": ["--spans-out"],
               "embed": ["--out"], "cluster": ["--out"], "split": ["--out"],
               "sample": ["--condition", "--out"],
               "train": ["--condition", "--contexts", "--split", "--model-out"],
               "evaluate": ["--model", "--contexts", "--split", "--report-out"],
               "coverage": ["--contexts", "--out"], "diversity": ["--contexts", "--out"],
               "ngrams": ["--out"], "audit": ["--out"]}
# the required flags of ngrams and audit that name no file
ANALYSIS_ARGS = {"ngrams": ["--n", "1", "--position", "before"],
                 "audit": ["--category", "Demographics"]}


def _stage_argv_with(command, config, value) -> list[str]:
    """A stage command over `config` with `value` for each other flag."""
    return [*(["analyze"] if command in ("coverage", "diversity", *ANALYSIS_ARGS) else []),
            command, "--config", str(config), *ANALYSIS_ARGS.get(command, ()),
            *(arg for flag in STAGE_FLAGS[command] for arg in (flag, str(value)))]


@pytest.mark.parametrize("command,key,value,message", [
    ("synth", "split.kind", "bogus", "unknown split kind 'bogus'"),
    ("ingest", "corpus.max_comments", "-1", "bad bounds: min_comments=20 max_comments=-1"),
    ("embed", "embed.dim", "4", "dim must be >= 8, got 4"),
    ("cluster", "cluster.k", "0", "[cluster] k must be >= 1, got 0"),
    ("cluster", "cluster.reduce_dim", "0", "[cluster] reduce_dim must be >= 1, got 0"),
    ("split", "split.ratios", "0.5,0.5,0.5", "ratios must sum to 1"),
    ("sample", "sampler.max_samples", "0", "max_samples must be >= 1, got 0"),
    ("train", "train.batch_size", "0", "batch_size must be >= 1"),
    ("train", "train.epochs", "-1", "epochs must be >= 0"),
    ("evaluate", "corpus.min_comments", "600", "bad bounds: min_comments=600"),
    ("coverage", "cluster.k", "0", "[cluster] k must be >= 1, got 0"),
    ("diversity", "corpus.min_comments", "600", "bad bounds: min_comments=600"),
    ("extract", "corpus.max_comments", "-1", "bad bounds: min_comments=20 max_comments=-1"),
    ("ngrams", "corpus.min_comments", "600", "bad bounds: min_comments=600"),
    ("audit", "embed.dim", "4", "dim must be >= 8, got 4"),
], ids=["synth-split_kind", "ingest-max_comments", "embed-dim", "cluster-k",
        "cluster-reduce_dim", "split-ratios", "sample-max_samples", "train-batch_size",
        "train-epochs", "evaluate-min_comments", "coverage-cluster_k", "diversity-min_comments",
        "extract-max_comments", "ngrams-min_comments", "audit-dim"])
def test_cli_stage_settings_are_config_errors(tmp_path, capsys, command, key, value, message):
    # the config's settings are checked as `dlab run` checks them (exit 2),
    # before the stage looks for its corpus files, which do not exist
    section, name = key.split(".")
    config = tmp_path / "stage.ini"
    config.write_text(MINIMAL_CORPUS_INI + ("" if section == "corpus" else f"[{section}]\n")
                      + f"{name} = {value}\n")
    out = tmp_path / "out"
    assert main(_stage_argv_with(command, config, out)) == 2 and not out.exists()
    err = capsys.readouterr().err
    assert f"data error: {message}" in err and "input not found" not in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_cli_run_workers_below_one_is_usage_error(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", "exp.ini", "--workers", value])
    assert exc.value.code == 1
    assert f"argument --workers: must be >= 1, got {value}" in capsys.readouterr().err


def test_cli_train_checks_its_settings_before_reading_inputs(tmp_path, capsys):
    # the inputs do not exist; the config's bad learning rate is reported first
    config = tmp_path / "stage.ini"
    config.write_text(MINIMAL_CORPUS_INI + "[train]\nlearning_rate = -1\n")
    code = main(_stage_argv_with("train", config, tmp_path / "x"))
    err = capsys.readouterr().err
    assert code == 2 and "learning_rate" in err and "input not found" not in err


def test_cli_extract_runs_extraction_once_per_comment(tmp_path, corpus_files, monkeypatch):
    config = write_stage_config(tmp_path / "stage.ini", corpus_files[0].parent)
    calls = []
    extract = dlab.disclosure.extract_disclosures

    def counted(comment, patterns=None, **kw):
        calls.append(comment.id)
        return extract(comment, patterns, **kw)

    monkeypatch.setattr(dlab.disclosure, "extract_disclosures", counted)
    assert main(["extract", "--config", config, "--spans-out", str(tmp_path / "s"),
                 "--profiles-out", str(tmp_path / "p")]) == 0
    assert calls == ["c1", "c2", "c3"]
    profiles = [json.loads(line) for line in (tmp_path / "p").read_text().splitlines()]
    assert profiles == [
        {"comment_id": "c1", "theory_categories": ["Demographics"], "passes_phrase_filter": True},
        {"comment_id": "c2", "theory_categories": [], "passes_phrase_filter": False},
        {"comment_id": "c3", "theory_categories": ["Experiences"], "passes_phrase_filter": False},
    ]


@pytest.mark.parametrize("source", ["corpus", "synth"])
def test_cli_corpus_analyses_read_the_run_corpus(tmp_path, source):
    # extract writes the profiles the run builds, and audit samples the
    # run's corpus with the seed derived from the config's seed
    spec = PopulationSpec(n_annotators=5, n_posts=8, comments_per_annotator=(4, 6),
                          verdicts_per_annotator=(3, 5), seed=2)
    if source == "corpus":
        write_population(*generate_population(spec), tmp_path / "data")
        config = write_stage_config(tmp_path / "run.ini", tmp_path / "data", "[run]\nseed = 9\n")
    else:
        config = tmp_path / "run.ini"
        config.write_text(SYNTH_INI)
    cfg = parse_config(config)
    corpus = setup_corpus(cfg)[0]
    profiles = tmp_path / "profiles.jsonl"
    assert main(["extract", "--config", str(config), "--spans-out", str(tmp_path / "spans.jsonl"),
                 "--profiles-out", str(profiles)]) == 0
    assert [json.loads(line) for line in profiles.read_text().splitlines()] == [
        {"comment_id": cid, "theory_categories": sorted(c.value for c in prof.theory_categories),
         "passes_phrase_filter": prof.passes_phrase_filter}
        for cid, prof in sorted(profile_records(setup_profiles(
            cfg, corpus, category_filters(cfg, ("theory:*",)))).items())]

    audit = tmp_path / "audit.jsonl"
    assert main(["analyze", "audit", "--config", str(config), "--category", "Demographics",
                 "--n", "3", "--out", str(audit)]) == 0
    sampled = audit_sample(corpus, "Demographics", 3, derive_seed(cfg.seed, "audit"))
    assert [json.loads(line)["comment_id"] for line in audit.read_text().splitlines()] == [
        rec.comment_id for rec in sampled]
    assert len(sampled) == 3


def test_cli_run_prints_its_rows_and_report_merges_them(tmp_path, capsys):
    ini = tmp_path / "exp.ini"
    ini.write_text(SYNTH_INI.replace("baselines = no_comments",
                                     "baselines = no_comments,all_comments"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(ini), "--out", str(out)]) == 0
    rows = read_report_tsv(out / "report.tsv")
    printed = capsys.readouterr().out.splitlines()
    assert [row["condition"] for row in rows] == [
        "no_comments", "all_comments", "similar_comments-k3"]
    assert len(printed) == len(rows)
    for line, row in zip(printed, rows):
        name, acc, f1, *p = line.split(" ")
        assert name == f"{row['condition']}:"
        assert abs(float(acc.removeprefix("acc=")) - float(row["accuracy"])) <= 5.1e-5
        assert abs(float(f1.removeprefix("f1=")) - float(row["macro_f1"])) <= 5.1e-5
        # a p-value against the baseline on every row but the baseline's
        assert bool(p) == (row["condition"] != "no_comments")

    # all_comments gives each pair its annotator's whole pool, in id order
    corpus, _ = ingest_corpus(*(out / "synth" / f"{n}.jsonl"
                                for n in ("posts", "comments", "verdicts")))
    dumped = records_of(load_contexts(out / "contexts" / "all_comments.jsonl", corpus))
    assert dumped
    for context in dumped:
        assert [item.source_comment_id for item in context.items] == sorted(
            cid for cid, c in corpus.comments.items() if c.author_id == context.annotator_id)
        assert all(item.unit == "comment" and item.similarity is None for item in context.items)

    grid = tmp_path / "grid.tsv"
    assert main(["report", "--layout", "grid", "--out", str(grid), str(out / "report.tsv")]) == 0
    assert capsys.readouterr().out == f"wrote {grid}\n"
    k3 = rows[2]
    assert grid.read_text().splitlines() == [
        "strategy\tacc@3\tf1@3", f"similar_comments\t{k3['accuracy']}\t{k3['macro_f1']}"]


def test_cli_malformed_data_is_data_error(tmp_path, capsys):
    posts = tmp_path / "posts.jsonl"
    posts.write_text('{"id": "p1", "author_id": "op1", "title": "t", "body": "b"}\n'
                     "this is not json\n")
    write_jsonl(tmp_path / "comments.jsonl",
                [{"id": "c1", "author_id": "a1", "text": "hi there."}])
    write_jsonl(tmp_path / "verdicts.jsonl",
                [{"post_id": "p1", "annotator_id": "a1", "label": "NTA"}])
    config = write_stage_config(tmp_path / "stage.ini", tmp_path)
    code = main(["ingest", "--config", config, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "posts.jsonl line 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

    # a contexts line that is not a context record
    write_jsonl(tmp_path / "posts.jsonl",
                [{"id": "p1", "author_id": "op1", "title": "t", "body": "b"}])
    contexts = tmp_path / "contexts.jsonl"
    contexts.write_text("[]\n")
    code = main(["analyze", "diversity", "--config", config, "--contexts", str(contexts),
                 "--out", str(tmp_path / "diversity.tsv")])
    assert code == 2
    assert "contexts.jsonl line 1: record is not an object" in capsys.readouterr().err

    # a context item whose unit is neither comment nor sentence
    write_jsonl(tmp_path / "split.jsonl",
                [{"kind": "verdict", "ratios": [1.0, 0.0, 0.0], "seed": 0},
                 {"verdict_index": 0, "partition": "train"}])
    write_jsonl(contexts, [{"annotator_id": "a1", "post_id": "p1", "items": [
        {"comment_id": "c1", "similarity": None, "unit": "paragraph", "sentence_index": None}]}])
    train = ["train", "--config", config, "--condition", "no_comments",
             "--contexts", str(contexts), "--split", str(tmp_path / "split.jsonl"), "--model-out", str(tmp_path / "model.txt")]
    code = main(train)
    assert code == 2
    assert "contexts.jsonl line 1: unknown unit 'paragraph'" in capsys.readouterr().err

    # split headers whose ratios are not three numbers, whose seed is not an
    # integer, or whose kind is unknown; the split is read before the contexts
    for header, message in (
        ({"kind": "verdict", "ratios": "abc", "seed": 0}, "expected 3 finite numbers, got 'abc'"),
        ({"kind": "verdict", "ratios": [1.0, 0.0, 0.0], "seed": "x"},
         "expected an integer, got 'x'"),
        ({"kind": "bogus", "ratios": [1.0, 0.0, 0.0], "seed": 0}, "unknown split kind 'bogus'"),
    ):
        write_jsonl(tmp_path / "split.jsonl", [header, {"verdict_index": 0, "partition": "train"}])
        code = main(train)
        err = capsys.readouterr().err
        assert code == 2
        assert "data error: split.jsonl: malformed split header" in err and message in err

    # significance inputs that are not evaluation reports: no correctness
    # list, a correctness that is not a list, not an object at all, and
    # correctness lists that are not two or more finite numbers in [0, 1]
    # (a NaN, numbers whose variance overflows, JSON booleans)
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"correctness": [1, 0, 1]}))
    not_report = "not an evaluation report"
    bad_values = "'correctness' must hold two or more numbers in [0, 1]"
    for name, payload, message in (
        ("counts.json", {"n": 3}, not_report),
        ("text.json", {"correctness": "101"}, not_report),
        ("list.json", [1, 2], not_report),
        ("letters.json", {"correctness": ["a", "b"]}, bad_values),
        ("single.json", {"correctness": [1]}, bad_values),
        ("nan.json", {"correctness": [float("nan"), 1, 0]}, bad_values),
        ("huge.json", {"correctness": [1e308, -1e308, 1e308]}, bad_values),
        ("bools.json", {"correctness": [True, False, True]}, bad_values),
    ):
        (tmp_path / name).write_text(json.dumps(payload))
        code = main(["analyze", "significance", "--report-a", str(report),
                     "--report-b", str(tmp_path / name)])
        assert code == 2
        assert f"{tmp_path / name}: {message}" in capsys.readouterr().err


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


def _files(directory) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(Path(directory).iterdir())}


def test_cli_synth_writes_the_run_population(tmp_path):
    # `dlab synth` writes the synth/ directory of `dlab run` on the same
    # config, its mix_ keys included; `dlab run --seed 5` is [run] seed = 5
    ini = SYNTH_INI.replace("[corpus]", "mix_demographics = 0.9\nmix_attitudes = 0.1\n\n[corpus]")
    configs = {seed: tmp_path / f"seed{seed}.ini" for seed in (5, 7)}
    for seed, config in configs.items():
        config.write_text(ini.replace("seed = 7\n", f"seed = {seed}\n"))
    assert main(["run", "--config", str(configs[7]), "--seed", "5",
                 "--out", str(tmp_path / "run")]) == 0
    population = _files(tmp_path / "run" / "synth")
    assert list(population) == ["comments.jsonl", "ground_truth.jsonl", "posts.jsonl",
                                "verdicts.jsonl"]
    for seed, config in configs.items():
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / str(seed))]) == 0
        assert (_files(tmp_path / str(seed)) == population) == (seed == 5)


def test_cli_synth_needs_the_config_population(sample_inputs, tmp_path, capsys):
    _, data = sample_inputs
    out = tmp_path / "synth"
    assert main(["synth", "--config", write_stage_config(tmp_path / "stage.ini", data),
                 "--out", str(out)]) == 2
    assert "needs [synth] enabled = true" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("source", ["synth", "corpus"])
def test_cli_ingest_writes_the_run_reports(tmp_path, source):
    # `dlab ingest` writes the filtered corpus and the ingest and filter
    # entries of the run's summary.json; min_comments = 5 drops annotators
    ini = SYNTH_INI.replace("min_comments = 1", "min_comments = 5").replace(
        "n_annotators = 8", "n_annotators = 16")
    config = tmp_path / "exp.ini"
    config.write_text(ini)
    if source == "corpus":
        # the [synth] population's files, read through [corpus]
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "data")]) == 0
        paths = "".join(f"{n} = {tmp_path / 'data' / n}.jsonl\n"
                        for n in ("posts", "comments", "verdicts"))
        config.write_text(ini[ini.index("[corpus]"):].replace("[corpus]\n", "[corpus]\n" + paths))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    assert main(["ingest", "--config", str(config), "--out", str(tmp_path / "corpus")]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert 0 < summary["filter"]["n_annotators_kept"] < summary["filter"]["n_annotators_before"]
    assert summary["ingest"].get("synthesized", False) == (source == "synth")
    for name in ("ingest", "filter"):
        report = json.loads((tmp_path / "corpus" / f"{name}_report.json").read_text())
        assert report == summary[name]
    corpus, _ = ingest_corpus(*(tmp_path / "corpus" / f"{n}.jsonl"
                                for n in ("posts", "comments", "verdicts")))
    assert len(corpus.verdicts) == summary["n_verdicts"] == summary["filter"]["n_verdicts_kept"]


def test_cli_train_focal_alpha_takes_two_numbers(tmp_path, capsys):
    # [train] focal_alpha goes through the config file's converter, so a bad
    # pair is a config error before any input is read
    config = tmp_path / "stage.ini"
    config.write_text(MINIMAL_CORPUS_INI + "[train]\nfocal_alpha = 0.3\n")
    assert main(_stage_argv_with("train", config, tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert "[train] focal_alpha: expected two comma-separated numbers" in err
    assert "input not found" not in err


def test_cli_full_chain(tmp_path, capsys):
    d = tmp_path

    (d / "synth.ini").write_text(
        "[synth]\nenabled = true\nn_annotators = 8\nn_posts = 16\ncomments_lo = 3\n"
        "comments_hi = 5\nverdicts_lo = 5\nverdicts_hi = 7\n\n[run]\nseed = 3\n")
    assert main(["synth", "--config", str(d / "synth.ini"), "--out", str(d / "raw")]) == 0

    (d / "ingest.ini").write_text("[corpus]\n" + "".join(
        f"{n} = {d / 'raw' / n}.jsonl\n" for n in ("posts", "comments", "verdicts"))
        + "min_comments = 1\nmax_comments = 99\n")
    assert main(["ingest", "--config", str(d / "ingest.ini"), "--out", str(d / "corpus")]) == 0
    for name in ("posts", "comments", "verdicts"):
        assert (d / "corpus" / f"{name}.jsonl").is_file()
    config = ["--config", write_stage_config(
        d / "stage.ini", d / "corpus",
        "[cluster]\nenabled = true\nk = 3\nreduce_dim = 4\n\n"
        "[split]\nkind = verdict\nratios = 0.7,0.1,0.2\n\n"
        "[sampler]\nmax_samples = 3\n\n[train]\nepochs = 2\n\n[run]\nseed = 5\n")]
    condition = ["--condition", "similar_comments-k3"]

    assert main(["extract", *config, "--spans-out", str(d / "spans.jsonl"),
                 "--profiles-out", str(d / "profiles.jsonl")]) == 0
    assert (d / "spans.jsonl").is_file() and (d / "profiles.jsonl").is_file()

    assert main(["embed", *config, "--out", str(d / "vectors.embx")]) == 0

    assert main(["cluster", *config, "--out", str(d / "clusters.jsonl"),
                 "--inspect-out", str(d / "inspect.jsonl")]) == 0
    profiles = [json.loads(line) for line in (d / "profiles.jsonl").read_text().splitlines()]
    assert [json.loads(line)["comment_id"] for line in
            (d / "clusters.jsonl").read_text().splitlines()] == [
        p["comment_id"] for p in profiles if p["passes_phrase_filter"]]

    assert main(["split", *config, "--out", str(d / "split.jsonl")]) == 0

    assert main(["sample", *config, *condition, "--out", str(d / "ctx.jsonl")]) == 0

    assert main(["train", *config, *condition,
                 "--contexts", str(d / "ctx.jsonl"), "--split", str(d / "split.jsonl"),
                 "--model-out", str(d / "model.txt")]) == 0

    assert main(["evaluate", *config, "--model", str(d / "model.txt"),
                 "--contexts", str(d / "ctx.jsonl"), "--split", str(d / "split.jsonl"),
                 "--partition", "test",
                 "--report-out", str(d / "eval.json")]) == 0
    report = json.loads((d / "eval.json").read_text())
    assert 0.0 <= report["accuracy"] <= 1.0 and report["correctness"]

    assert main(["analyze", "significance",
                 "--report-a", str(d / "eval.json"),
                 "--report-b", str(d / "eval.json")]) == 0
    assert "p=1" in capsys.readouterr().out

    assert main(["analyze", "coverage", *config, "--contexts", str(d / "ctx.jsonl"),
                 "--out", str(d / "coverage.tsv")]) == 0
    assert (d / "coverage.tsv").read_text().startswith("family\tbucket\tpercent")

    assert main(["analyze", "diversity", *config, "--contexts", str(d / "ctx.jsonl"),
                 "--out", str(d / "diversity.tsv")]) == 0

    assert main(["analyze", "ngrams", *config, "--n", "1", "--position", "before", "--top", "10",
                 "--out", str(d / "ngrams.tsv")]) == 0

    assert main(["analyze", "audit", *config, "--category", "Demographics", "--n", "5",
                 "--out", str(d / "audit.jsonl")]) == 0
    assert len((d / "audit.jsonl").read_text().splitlines()) == 5


def test_cli_stage_chain_reproduces_a_run_condition(tmp_path):
    # given a run's config, `dlab split` writes the run's split, `dlab sample
    # --condition` each condition's contexts, `train` and `evaluate` score
    # the condition's first fit, and `dlab cluster` fits the run's clusters
    spec = PopulationSpec(n_annotators=6, n_posts=20, comments_per_annotator=(4, 6),
                          verdicts_per_annotator=(8, 10), seed=5)
    corpus, truth = generate_population(spec)
    paths = write_population(corpus, truth, tmp_path / "data")
    sources = {
        # each filter drops some annotators: three of the corpus files' six
        # have four comments, and two of the synthesized six have five
        "corpus": "[corpus]\n" + "".join(f"{n} = {paths[n]}\n"
                                        for n in ("posts", "comments", "verdicts"))
                  + "min_comments = 5\n",
        "synth": "[synth]\nenabled = true\nn_annotators = 6\nn_posts = 20\ncomments_lo = 4\n"
                 "comments_hi = 6\nverdicts_lo = 8\nverdicts_hi = 10\n\n"
                 "[corpus]\nmin_comments = 6\n",
    }
    grids = {
        "grid": "[sampler]\nstrategies = similar_comments,similar_sentences,random_comments\n"
                "baselines = no_comments,all_comments\n",
        "clustered": "[cluster]\nenabled = true\nk = 3\n\n"
                     "[sampler]\ncategories = none,theory:*,cluster:*\n",
    }

    def run_and_stage(name, sections, embed="dim = 128", train=True):
        ini = tmp_path / f"{name}.ini"
        ini.write_text(f"{sections}\n[embed]\n{embed}\n\n[split]\nratios = 0.6,0.2,0.2\n\n"
                       f"[train]\nepochs = 3\nruns = 1\n\n[run]\nseed = 11\n"
                       f"out = {tmp_path / name}\n".replace("[sampler]\n",
                                                             "[sampler]\nmax_samples = 3\n"))
        out = tmp_path / name
        fits = []  # one train call per condition, in grid order
        fit_model = dlab.pipeline.train
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dlab.pipeline, "train",
                          lambda *a: fits.append(fit_model(*a)) or fits[-1])
            rows = {row["condition"]: row for row in run_pipeline(parse_config(ini))}
        config = ["--config", str(ini)]
        split = tmp_path / f"{name}-split.jsonl"
        assert main(["split", *config, "--out", str(split)]) == 0
        assert split.read_bytes() == (out / "split.jsonl").read_bytes()
        # runs = 1, so each call made one fit
        for (condition, row), (fit,) in zip(rows.items(), (f.params for f in fits)):
            ctx, model, report = (tmp_path / f"{name}-{condition}.{ext}"
                                  for ext in ("jsonl", "model", "json"))
            assert main(["sample", *config, "--condition", condition, "--out", str(ctx)]) == 0
            dumped = (out / "contexts" / f"{condition}.jsonl").read_text().splitlines()
            assert len(dumped) == row["n_train"] + row["n_test"]
            assert set(dumped) <= set(ctx.read_text().splitlines())
            if not train:
                continue
            inputs = ["--contexts", str(ctx), "--split", str(split)]
            assert main(["train", *config, "--condition", condition, *inputs,
                         "--model-out", str(model)]) == 0
            trained = load_model(model)
            assert trained.seed == fit.seed and trained.loss_history == fit.loss_history
            assert trained.weights.tobytes() == fit.weights.tobytes()
            assert main(["evaluate", *config, "--model", str(model), *inputs,
                         "--report-out", str(report)]) == 0
            evaluated = json.loads(report.read_text())
            assert evaluated["n"] == row["n_test"]
            assert f"{evaluated['accuracy']:.6f}" == f"{row['acc_runs'][0]:.6f}"
        return ini, out, rows

    for source, sections in sources.items():
        _, out, rows = run_and_stage(f"{source}-grid", sections + grids["grid"])
        assert list(rows) == ["no_comments", "all_comments", "similar_comments-k3",
                              "similar_sentences-k3", "random_comments-k3"]
        summary = json.loads((out / "summary.json").read_text())
        assert 0 < summary["filter"]["n_annotators_kept"] < summary["filter"]["n_annotators_before"]

        ini, out, rows = run_and_stage(f"{source}-clustered", sections + grids["clustered"])
        assert len([name for name in rows if name.startswith("similar_comments-k3-")]) == 7
        clusters = tmp_path / f"{source}-k3.jsonl"
        assert main(["cluster", "--config", str(ini), "--out", str(clusters)]) == 0
        assignment = {rec["comment_id"]: rec["cluster"] for rec in map(
            json.loads, clusters.read_text().splitlines())}
        for cluster in range(3):
            items = [item for c in records_of(load_contexts(
                out / "contexts" / f"similar_comments-k3-cluster:{cluster}.jsonl",
                ingest_corpus(*(paths[n] for n in ("posts", "comments", "verdicts")))[0]
                if source == "corpus" else generate_population(parse_config(ini).synth)[0]
            )) for item in c.items]
            assert items and all(assignment[i.source_comment_id] == cluster for i in items)

    # the run's vectors exported by `dlab embed` and imported through
    # [embed] embx, which train and evaluate refuse
    sections = sources["corpus"] + "[sampler]\nstrategies = similar_comments,random_comments\n"
    ini, _, _ = run_and_stage("hashed", sections, train=False)
    embx = tmp_path / "vectors.embx"
    assert main(["embed", "--config", str(ini), "--out", str(embx)]) == 0
    _, out, rows = run_and_stage("imported", sections, f"embx = {embx}", train=False)
    for condition in rows:
        assert ((out / "contexts" / f"{condition}.jsonl").read_bytes()
                == (tmp_path / "hashed" / "contexts" / f"{condition}.jsonl").read_bytes())


@pytest.fixture(scope="module")
def staged(sample_inputs):
    """sample_inputs' corpus with a 4/1/1 verdict split, random_comments-k2
    contexts and that condition's model at dim 64, and their config."""
    root, data = sample_inputs
    config = write_stage_config(
        root / "staged.ini", data, "[split]\nkind = verdict\nratios = 0.6,0.2,0.2\n\n"
        "[sampler]\nstrategies = random_comments\nmax_samples = 2\n\n[train]\nepochs = 1\n")
    inputs = {"--contexts": str(root / "ctx.jsonl"), "--split": str(root / "split.jsonl")}
    condition = ["--condition", "random_comments-k2"]
    assert main(["split", "--config", config, "--out", inputs["--split"]]) == 0
    assert main(["sample", "--config", config, *condition, "--out", inputs["--contexts"]]) == 0
    assert main(["train", "--config", config, *condition,
                 *(a for kv in inputs.items() for a in kv),
                 "--model-out", str(root / "model.txt")]) == 0
    return root, config, inputs


def _no_embedding(monkeypatch):
    def embed_texts(*args, **kwargs):
        raise AssertionError("embedded before the inputs were checked")

    monkeypatch.setattr(dlab.pipeline, "embed_texts", embed_texts)


def _stage_argv(command, root, config, inputs, model=None):
    if command in ("coverage", "diversity"):
        return ["analyze", command, "--config", config, "--contexts", inputs["--contexts"],
                "--out", str(root / "unused.tsv")]
    argv = [command, "--config", config, *(a for kv in inputs.items() for a in kv)]
    if command == "train":
        return [*argv, "--condition", "random_comments-k2",
                "--model-out", str(root / "unused.model")]
    return [*argv, "--model", str(model or root / "model.txt"),
            "--report-out", str(root / "unused.json")]


@pytest.mark.parametrize("edit,message", [
    (lambda rows: [*rows, {"verdict_index": 999, "partition": "test"}],
     "coverage: 999: assignment for unknown verdict index"),
    (lambda rows: rows[:-1], "verdict not assigned"),
], ids=["unknown-index", "missing-verdict"])
def test_cli_train_and_evaluate_verify_the_split(staged, tmp_path, monkeypatch, capsys, edit,
                                                message):
    root, config, inputs = staged
    header, *rows = Path(inputs["--split"]).read_text().splitlines()
    write_jsonl(tmp_path / "split.jsonl", [json.loads(header),
                                           *edit([json.loads(row) for row in rows])])
    _no_embedding(monkeypatch)
    for command in ("train", "evaluate"):
        code = main(_stage_argv(command, root, config,
                                {**inputs, "--split": str(tmp_path / "split.jsonl")}))
        err = capsys.readouterr().err
        assert code == 3
        assert "invariant violation: split verification failed" in err and message in err


@pytest.mark.parametrize("command,empty", [("train", "train"), ("evaluate", "test")])
def test_cli_train_and_evaluate_reject_an_empty_partition(staged, tmp_path, monkeypatch, capsys,
                                                         command, empty):
    root, config, inputs = staged
    header, *rows = Path(inputs["--split"]).read_text().splitlines()
    other = "test" if empty == "train" else "train"
    split = tmp_path / "split.jsonl"
    write_jsonl(split, [json.loads(header), *({**json.loads(row), "partition": other}
                                              for row in rows)])
    _no_embedding(monkeypatch)
    assert main(_stage_argv(command, root, config, {**inputs, "--split": str(split)})) == 2
    assert f"data error: the split leaves the {empty} partition empty" in capsys.readouterr().err


def _repeated_pair(records):
    first = records[0]
    return [*records, first], first, "is listed twice"


def _comment_of_another_annotator(records):
    first = records[0]
    other = next(r for r in records if r["annotator_id"] != first["annotator_id"] and r["items"])
    item = other["items"][0]
    return ([{**first, "items": [item]}, *records[1:]], first,
            f"holds comment {item['comment_id']!r} by annotator {other['annotator_id']!r}")


def _unknown_annotator(records):
    ghost = {**records[0], "annotator_id": "ghost", "items": []}
    return [*records, ghost], ghost, "names an annotator the corpus lacks"


def _unknown_post(records):
    nope = {**records[0], "post_id": "nope", "items": []}
    return [*records, nope], nope, "names a post the corpus lacks"


@pytest.mark.parametrize("command", ["train", "evaluate", "coverage", "diversity"])
@pytest.mark.parametrize("edit", [_repeated_pair, _comment_of_another_annotator,
                                  _unknown_annotator, _unknown_post],
                         ids=["repeated-pair", "another-annotator", "unknown-annotator",
                              "unknown-post"])
def test_cli_train_and_evaluate_reject_leaky_or_repeated_contexts(staged, tmp_path, monkeypatch,
                                                                 capsys, edit, command):
    # every reader of --contexts applies check_contexts
    root, config, inputs = staged
    records, first, message = edit([json.loads(line) for line in
                                    Path(inputs["--contexts"]).read_text().splitlines()])
    contexts = tmp_path / "contexts.jsonl"
    write_jsonl(contexts, records)
    _no_embedding(monkeypatch)
    argv = _stage_argv(command, root, config, {**inputs, "--contexts": str(contexts)})
    assert main(argv) == 2
    assert (f"data error: {contexts}: pair ({first['annotator_id']}, {first['post_id']}) "
            f"{message}" in capsys.readouterr().err)
    assert not Path(argv[-1]).exists()


def test_cli_train_and_evaluate_pick_contexts_by_pair(staged, tmp_path):
    # a file of only the partition's pairs in verdict order, and the whole
    # dump with its lines shuffled, which holds the other partitions' pairs
    # too: the same model and report bytes
    root, config, inputs = staged
    lines = Path(inputs["--contexts"]).read_text(encoding="utf-8").splitlines(keepends=True)
    split = load_split(inputs["--split"])
    assert len(lines) == len(split.assignment)
    files = {"own": {}, "shuffled": dict.fromkeys(("train", "test"), tmp_path / "shuffled.jsonl")}
    for part in ("train", "test"):
        files["own"][part] = tmp_path / f"own-{part}.jsonl"
        files["own"][part].write_text("".join(lines[i] for i in split.indices(part)),
                                      encoding="utf-8")
    shuffled = lines[:]
    random.Random(0).shuffle(shuffled)
    assert shuffled != lines
    files["shuffled"]["train"].write_text("".join(shuffled), encoding="utf-8")
    written = {}
    for kind, paths in files.items():
        model, report = tmp_path / f"{kind}.model", tmp_path / f"{kind}.json"
        assert main(["train", "--config", config, "--condition", "random_comments-k2",
                     "--contexts", str(paths["train"]), "--split", inputs["--split"],
                     "--model-out", str(model)]) == 0
        assert main(["evaluate", "--config", config, "--contexts", str(paths["test"]),
                     "--split", inputs["--split"], "--model", str(root / "model.txt"),
                     "--report-out", str(report)]) == 0
        written[kind] = model.read_bytes(), report.read_bytes()
    assert written["shuffled"] == written["own"]
    assert written["own"][0] == (root / "model.txt").read_bytes()


def test_cli_split_writes_no_split_that_fails_the_check(sample_inputs, tmp_path, monkeypatch,
                                                      capsys):
    _, data = sample_inputs
    make_split = dlab.pipeline.make_split

    def leaky(corpus, *args, **kwargs):
        spec = make_split(corpus, *args, **kwargs)
        spec.assignment.pop(0)
        return spec

    out = tmp_path / "split.jsonl"
    argv = ["split", "--config", write_stage_config(tmp_path / "stage.ini", data,
                                                    "[split]\nkind = verdict\n"),
            "--out", str(out)]
    with monkeypatch.context() as patch:
        patch.setattr(dlab.pipeline, "make_split", leaky)
        assert main(argv) == 3
    assert "coverage: 0: verdict not assigned" in capsys.readouterr().err
    assert not out.exists()
    # at the default ratios the 6 verdicts of sample_inputs' corpus split 5/1/0
    assert main(argv) == 2
    assert ("data error: the split leaves the test partition empty "
            "(train 5, val 1, test 0 verdicts)") in capsys.readouterr().err
    assert not out.exists()


def test_cli_evaluate_checks_the_model_dim_before_embedding(staged, tmp_path, monkeypatch,
                                                           capsys):
    # features from the header's embedder would not fit the weights
    root, config, inputs = staged
    model = tmp_path / "dim-128.model"
    save_model(dataclasses.replace(load_model(root / "model.txt"),
                                   embedder=EmbedderConfig(dim=128)), model)
    _no_embedding(monkeypatch)
    assert main(_stage_argv("evaluate", root, config, inputs, model=model)) == 2
    assert (f"data error: {model}: model has feature_dim 128, not twice its embedder dim 128"
            in capsys.readouterr().err)


def test_cli_evaluate_needs_the_model_embedder(staged, tmp_path, monkeypatch, capsys):
    root, config, inputs = staged
    header, *payloads = read_checksummed_text(root / "model.txt", ValueError)
    header = json.loads(header)
    del header["embedder"]
    model = tmp_path / "no-embedder.model"
    write_checksummed_text(model, "\n".join([json.dumps(header), *payloads]) + "\n")
    _no_embedding(monkeypatch)
    assert main(_stage_argv("evaluate", root, config, inputs, model=model)) == 2
    assert (f"data error: {model}: malformed header (KeyError: 'embedder')"
            in capsys.readouterr().err)


def test_cli_evaluate_rejects_a_negative_embedder_seed(staged, tmp_path, monkeypatch, capsys):
    # the embedder hashes with the seed's 8 unsigned bytes
    root, config, inputs = staged
    header, *payloads = read_checksummed_text(root / "model.txt", ValueError)
    header = json.loads(header)
    header["embedder"]["seed"] = -1
    model = tmp_path / "negative-seed.model"
    write_checksummed_text(model, "\n".join([json.dumps(header), *payloads]) + "\n")
    _no_embedding(monkeypatch)
    assert main(_stage_argv("evaluate", root, config, inputs, model=model)) == 2
    assert (f"data error: {model}: malformed header (ValueError: embedder seed must lie in "
            "[0, 2**64), got -1)" in capsys.readouterr().err)


@pytest.mark.parametrize("edit", [
    lambda ini: ini.replace("dim = 64", "dim = 128"),
    lambda ini: ini + "\n[run]\nseed = 9\n",
], ids=["embed-dim", "run-seed"])
def test_cli_evaluate_refuses_a_model_of_another_embedder(staged, tmp_path, monkeypatch, capsys,
                                                         edit):
    # evaluate embeds with the config's embedder, which must be the one the
    # model's features came from
    root, config, inputs = staged
    other = tmp_path / "other.ini"
    other.write_text(edit(Path(config).read_text()))
    model = root / "model.txt"
    _no_embedding(monkeypatch)
    argv = _stage_argv("evaluate", root, str(other), inputs)
    assert main(argv) == 2
    assert (f"data error: {model}: model embedder {load_model(model).embedder} is not the "
            f"config's {parse_config(other).embedder_config()}" in capsys.readouterr().err)
    assert not Path(argv[-1]).exists()


@pytest.mark.parametrize("command", ["sample", "train"])
def test_cli_unknown_condition_is_usage_error_naming_the_grid(staged, tmp_path, monkeypatch,
                                                             capsys, command):
    _, config, inputs = staged
    outs = {"sample": ["--out", str(tmp_path / "unused.jsonl")],
            "train": [*(a for kv in inputs.items() for a in kv),
                      "--model-out", str(tmp_path / "unused.model")]}[command]
    _no_embedding(monkeypatch)
    assert main([command, "--config", config, "--condition", "random_comments-k5", *outs]) == 1
    assert ("dlab: --condition 'random_comments-k5' is not in the config's grid; it has "
            "no_comments, random_comments-k2") in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_cli_train_and_evaluate_refuse_imported_embeddings(staged, tmp_path, capsys, command):
    # a model file records the hashed embedder its features came from
    root, config, inputs = staged
    embx = tmp_path / "vectors.embx"
    embx.write_text("")
    imported = tmp_path / "imported.ini"
    imported.write_text(Path(config).read_text().replace("dim = 64", f"embx = {embx}"))
    argv = _stage_argv(command, root, str(imported), inputs)
    assert main(argv) == 2
    assert "data error: [embed] embx: a model file records" in capsys.readouterr().err
    assert not Path(argv[-1]).exists()


def test_cli_cluster_needs_the_config_clusters(staged, tmp_path, capsys):
    _, config, _ = staged
    out = tmp_path / "clusters.jsonl"
    assert main(["cluster", "--config", config, "--out", str(out)]) == 2
    assert "needs [cluster] enabled = true" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("body,message", [
    ("{}\n", "malformed header (KeyError: 'feature_dim')"),
    ("MODEL\nAAAA\nAAAA\n", "payload of 3 bytes, header gives 2048"),
], ids=["model-header", "model-payload"])
def test_cli_malformed_model_files_are_data_errors(staged, tmp_path, capsys, body, message):
    root, config, inputs = staged
    model = tmp_path / "broken.model"
    header = dict(feature_dim=128, gamma=2.0, alpha=[0.5, 0.5], seed=0, epochs=1,
                  learning_rate=0.01, loss_history=[],
                  embedder=dict(dim=64, ngram_range=[1, 2], seed=0))
    write_checksummed_text(model, body.replace("MODEL", json.dumps(header)))
    assert main(_stage_argv("evaluate", root, config, inputs, model=model)) == 2
    assert f"data error: {model}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    ("synth --config {synth}", "--out"),
    ("ingest --config {config}", "--out"),
    ("extract --config {config}", "--spans-out"),
    ("extract --config {config} --spans-out {tmp}/spans.jsonl", "--profiles-out"),
    ("embed --config {config}", "--out"),
    ("cluster --config {clustered}", "--out"),
    ("cluster --config {clustered} --out {tmp}/clusters.jsonl", "--inspect-out"),
    ("split --config {config}", "--out"),
    ("sample --config {config} --condition random_comments-k2", "--out"),
    ("train --config {config} --condition random_comments-k2 --contexts {contexts} "
     "--split {split}", "--model-out"),
    ("evaluate --config {config} --model {model} --contexts {contexts} --split {split}",
     "--report-out"),
    ("analyze coverage --config {config} --contexts {contexts}", "--out"),
    ("analyze diversity --config {config} --contexts {contexts}", "--out"),
    ("analyze ngrams --config {config} --n 1 --position before", "--out"),
    ("analyze audit --config {config} --category Demographics", "--out"),
    ("run --config {synth}", "--out"),
    ("report --layout category {report}", "--out"),
], ids=lambda value: (value.lstrip("-") if value.startswith("--")
                      else value.removeprefix("analyze ").split()[0]))
def test_cli_outputs_make_their_directories(staged, tmp_path, capsys, argv, flag):
    # an output goes into its directory, made when missing; an output whose
    # directory cannot be made is a usage error of one line
    root, config, inputs = staged
    synth, clustered, report = tmp_path / "synth.ini", tmp_path / "clustered.ini", tmp_path / "r.tsv"
    synth.write_text(SYNTH_INI)
    clustered.write_text(Path(config).read_text() + "\n[cluster]\nenabled = true\nk = 3\n")
    _fake_report(report, parse_config(config), [("no_comments", 0.6, 0.4)])
    argv = argv.format(config=config, synth=synth, clustered=clustered, report=report,
                       tmp=tmp_path, model=root / "model.txt",
                       contexts=inputs["--contexts"], split=inputs["--split"]).split()
    out = tmp_path / "a" / "b" / "output"
    assert main([*argv, flag, str(out)]) == 0 and out.exists()
    capsys.readouterr()
    blocked = tmp_path / "file"
    blocked.write_text("")
    assert main([*argv, flag, str(blocked / "output")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"dlab: [Errno 17] File exists: '{blocked}'") and err.count("\n") == 1


def test_cli_run_out_over_a_file_is_usage_error(staged, tmp_path, capsys):
    _, config, _ = staged
    out = tmp_path / "out"
    out.write_text("")
    assert main(["run", "--config", config, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"dlab: [Errno 17] File exists: '{out}'\n"


def _written_record(kind, path):
    """A split or model file as dlab writes it, and the function that reads
    it back."""
    if kind == "split":
        write_jsonl(path, [{"kind": "verdict", "ratios": [0.6, 0.2, 0.2], "seed": 0},
                           {"verdict_index": 0, "partition": "train"}])
        return load_split
    if kind == "model":
        save_model(ModelParams(weights=np.zeros((2, 16)), bias=np.zeros(2), gamma=2.0,
                               alpha=(0.5, 0.5), seed=3, epochs=2, learning_rate=0.01,
                               loss_history=[0.5, float("nan")],
                               embedder=EmbedderConfig(dim=8)), path)
        return load_model


@pytest.mark.parametrize("kind,key,values", [
    ("split", "seed", (2.7, True, "3")),
    ("split", "ratios", ("abc", [0.6, 0.4], [0.6, 0.2, "0.2"], [0.6, 0.2, float("inf")])),
    ("split", "verdict_index", (0.9, True, "0")),
    ("model", "feature_dim", (16.9, 16.0, "16")),
    ("model", "seed", (2.7, True, "3")),
    ("model", "epochs", (2.7, True, "2")),
    ("model", "alpha", ("ab", [0.5], [0.5, True], [0.5, float("nan")])),
    ("model", "loss_history", ("xyz", [0.5, "x"], [0.5, False])),
    ("model", "embedder.dim", (8.9, 8.0, "8")),
    ("model", "embedder.ngram_range", ("ab", [1, 2.0], [True, 2])),
    ("model", "embedder.seed", (2.7, True, "3")),
    ("model", "embedder.seed", (-1, 2 ** 64)),
    ("model", "gamma", ("2", True, float("nan"))),
    ("model", "learning_rate", ("0.01", True, float("inf"))),
])
def test_record_integers_and_number_lists_are_read_strictly(tmp_path, kind, key, values):
    # a value json.loads gives as another type, a list of the wrong length
    # or with a non-number entry, a non-finite ratio, alpha, gamma or
    # learning rate, and an embedder seed outside [0, 2**64) are data errors
    # naming the file, not truncated or coerced; a NaN loss reads back.
    # Split rows hold verdict_index
    path = tmp_path / f"record.{kind}"
    read = _written_record(kind, path)
    read(path)
    error = {"split": CorpusError, "model": ModelFileError}[kind]
    assert error in dlab.cli._DATA_ERRORS
    lines = (path.read_text().splitlines() if kind == "split"
             else read_checksummed_text(path, ValueError))
    outer, _, inner = key.partition(".")
    at = next(n for n, line in enumerate(lines)
              if line.startswith("{") and outer in json.loads(line))
    for value in values:
        record = json.loads(lines[at])
        record[outer] = {**record[outer], inner: value} if inner else value
        body = "\n".join([*lines[:at], json.dumps(record), *lines[at + 1:]]) + "\n"
        if kind == "split":
            path.write_text(body)
        else:
            write_checksummed_text(path, body)
        with pytest.raises(error, match=re.escape(path.name)):
            read(path)
