"""Each artifact check passes on a real run and fails on a broken artifact.

Run from the repository root:  python3 -m pytest -q perfbench/test_checks.py
"""
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import (artifact_digests, check_artifacts, check_contexts,  # noqa: E402
                    check_report, check_same, check_split, recovery_gain_pp)
from dlab.corpus import filter_annotators, ingest_corpus  # noqa: E402
from dlab.pipeline import parse_config, run_pipeline  # noqa: E402
from dlab.synthgen import PopulationSpec, generate_population, write_population  # noqa: E402

CONDITIONS = ["no_comments", "similar_comments-k2"]


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    corpus, truth = generate_population(PopulationSpec(
        n_annotators=10, n_posts=15, comments_per_annotator=(6, 8), seed=3))
    paths = write_population(corpus, truth, root / "corpus")
    ini = root / "workload.ini"
    ini.write_text(f"""
[corpus]
posts = {paths['posts']}
comments = {paths['comments']}
verdicts = {paths['verdicts']}
min_comments = 5
[embed]
dim = 64
[sampler]
strategies = similar_comments
max_samples = 2
baselines = no_comments
[train]
epochs = 2
runs = 1
[run]
seed = 3
out = {root / 'out'}
""", encoding="utf-8")
    cfg = parse_config(ini)
    run_pipeline(cfg, workers=1)
    corpus, _ = ingest_corpus(*cfg.corpus_paths)
    corpus, _ = filter_annotators(corpus, cfg.min_comments, cfg.max_comments)
    return root / "out", corpus


@pytest.fixture
def out(run, tmp_path):
    copy = tmp_path / "out"
    shutil.copytree(run[0], copy)
    return copy


def test_intact_run_passes_every_check(run):
    out, corpus = run
    assert check_artifacts(out, corpus, CONDITIONS) == []
    assert check_same(artifact_digests(out), artifact_digests(out), "rerun") == []
    assert isinstance(recovery_gain_pp(out), float)


def test_split_missing_a_verdict_fails(run, out):
    lines = (out / "split.jsonl").read_text().splitlines()
    (out / "split.jsonl").write_text("\n".join(lines[:-1]) + "\n")
    assert any("coverage" in p for p in check_split(out, run[1]))


def test_context_from_another_annotator_fails(run, out):
    corpus = run[1]
    path = out / "contexts" / "similar_comments-k2.jsonl"
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    rec = next(r for r in recs if r["items"])
    other = next(c for c in corpus.comments.values() if c.author_id != rec["annotator_id"])
    rec["items"][0]["comment_id"] = other.id
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    assert check_contexts(out, corpus)


def test_report_missing_a_condition_fails(out):
    lines = (out / "report.tsv").read_text().splitlines()
    (out / "report.tsv").write_text("\n".join(lines[:-1]) + "\n")
    assert check_report(out, CONDITIONS)


def test_report_without_test_pairs_fails(out):
    lines = (out / "report.tsv").read_text().splitlines()
    cells = lines[-1].split("\t")
    cells[2] = "0"
    lines[-1] = "\t".join(cells)
    (out / "report.tsv").write_text("\n".join(lines) + "\n")
    assert check_report(out, CONDITIONS)


def test_report_without_context_dump_fails(out):
    (out / "contexts" / "no_comments.jsonl").unlink()
    assert check_report(out, CONDITIONS)


def test_changed_artifact_bytes_fail(run, out):
    reference = artifact_digests(run[0])
    with open(out / "contexts" / "similar_comments-k2.jsonl", "a") as fh:
        fh.write("\n")
    assert check_same(artifact_digests(out), reference, "rerun") == [
        "rerun: contexts/similar_comments-k2.jsonl differs"]
