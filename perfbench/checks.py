"""Correctness checks on the artifacts of one `run_pipeline` call.

Each check returns a list of problems; an empty list means the artifacts
pass. `test_checks.py` feeds every check a deliberately broken artifact.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from dlab.corpus import Corpus, load_split, verify_split
from dlab.pipeline import read_report_tsv

# the byte-identical artifact set; timings never enter these files
ARTIFACTS = ("report.tsv", "summary.json", "split.jsonl", "effective.cfg")


def artifact_digests(out: Path) -> dict[str, str]:
    """sha256 of every deterministic artifact, keyed by path under out."""
    files = [out / name for name in ARTIFACTS]
    files += sorted((out / "contexts").glob("*.jsonl"))
    return {str(f.relative_to(out)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in files}


def check_split(out: Path, corpus: Corpus) -> list[str]:
    """The saved split passes `verify_split` with zero violations."""
    report = verify_split(load_split(out / "split.jsonl"), corpus)
    return [f"split: {msg}" for msg in report.messages()]


def check_report(out: Path, expected: list[str]) -> list[str]:
    """Report rows name exactly the expected conditions, in order, each with
    test pairs, and each condition has its context dump."""
    rows = read_report_tsv(out / "report.tsv")
    names = [row["condition"] for row in rows]
    if names != expected:
        return [f"report: conditions {names} != expected {expected}"]
    problems = [f"report: {row['condition']} has n_test {row['n_test']}"
                for row in rows if int(row["n_test"]) <= 0]
    problems += [f"report: no context dump for {name}" for name in expected
                 if not (out / "contexts" / f"{name}.jsonl").is_file()]
    return problems


def check_contexts(out: Path, corpus: Corpus) -> list[str]:
    """Every dumped context item comes from a comment the judging annotator
    wrote."""
    problems = []
    for path in sorted((out / "contexts").glob("*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                rec = json.loads(line)
                for item in rec["items"]:
                    comment = corpus.comments.get(item["comment_id"])
                    if comment is None or comment.author_id != rec["annotator_id"]:
                        problems.append(
                            f"contexts: {path.name}:{lineno}: item {item['comment_id']!r} "
                            f"is not by annotator {rec['annotator_id']!r}")
    return problems


def check_artifacts(out: Path, corpus: Corpus, expected: list[str]) -> list[str]:
    return check_split(out, corpus) + check_report(out, expected) + check_contexts(out, corpus)


def check_same(digests: dict[str, str], reference: dict[str, str], what: str) -> list[str]:
    """Artifacts are byte-identical to a reference run's."""
    differing = sorted(k for k in digests.keys() | reference.keys()
                       if digests.get(k) != reference.get(k))
    return [f"{what}: {name} differs" for name in differing]


def report_pairs(out: Path) -> int:
    """Condition-pairs of the grid: sum of n_train + n_test over conditions."""
    return sum(int(r["n_train"]) + int(r["n_test"]) for r in read_report_tsv(out / "report.tsv"))


def recovery_gain_pp(out: Path) -> float:
    """Best similar_* accuracy minus no_comments accuracy, in points."""
    acc = {r["condition"]: float(r["accuracy"]) for r in read_report_tsv(out / "report.tsv")}
    best = max(v for k, v in acc.items() if k.startswith("similar_"))
    return 100.0 * (best - acc["no_comments"])
