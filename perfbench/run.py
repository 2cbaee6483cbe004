"""dlab's benchmark: time whole ablation runs and check their artifacts.

Usage (from the repository root):

    python3 perfbench/run.py --workload sentences_grid --seed 1 --seconds 55 --trace 0

The benchmark generates a synthetic corpus from --seed with `dlab.synthgen`,
writes the workload's INI config next to it, and then repeats one
`parse_config` + `run_pipeline` call, each repetition in a fresh process
(`child.py`), for about --seconds seconds. Every repetition's artifacts are
checked; the last line of standard output is one JSON object with the
medians of the metrics that BENCHMARK.json names (end-to-end ones with
--trace 0, per-layer ones with --trace 1). See README.md for the workloads
and the metrics.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Corpus size: the ROADMAP reference shape scaled down from 200 annotators
# and 300 posts so that one repetition takes a few seconds on one core. Each
# annotator gets the mean of synthgen's default ranges (20-40 comments,
# 20-30 verdicts), so the amount of work does not vary with the seed.
N_ANNOTATORS = 20
N_POSTS = 30
COMMENTS_PER_ANNOTATOR = (30, 30)
VERDICTS_PER_ANNOTATOR = (25, 25)
# calibrate.calibration_s() on the 2-vCPU VM the benchmark was defined on; times are
# reported as if the host ran the calibration kernel in this many seconds
REFERENCE_CALIBRATION_S = 0.035
# no repetition starts or runs past this many seconds after start-up
DEADLINE_S = 160.0
START = perf_counter()

COMMON_INI = """\
[corpus]
posts = corpus/posts.jsonl
comments = corpus/comments.jsonl
verdicts = corpus/verdicts.jsonl

[embed]
dim = 1024

[train]
runs = 3

[run]
seed = {seed}
out = out
baseline = no_comments
"""

CATEGORY_INI = """
[cluster]
enabled = true
k = 10

[sampler]
strategies = similar_comments
max_samples = 5
categories = none,theory:*,cluster:*
baselines = no_comments
"""

CATEGORY_CONDITIONS = (
    ["no_comments", "similar_comments-k5"]
    + [f"similar_comments-k5-theory:{c}"
       for c in ("Demographics", "Experiences", "Attitudes", "Relationships")]
    + [f"similar_comments-k5-cluster:{i}" for i in range(10)]
)


@dataclass(frozen=True)
class Workload:
    ini: str
    conditions: list[str]
    # pool size of an untimed first repetition whose artifacts every timed
    # (sequential) repetition must equal byte for byte; 0 for none
    check_workers: int = 0


WORKLOADS = {
    # Sampling-bound: similar_sentences embeds every candidate sentence per
    # pair, so sample_context and embed_text dominate the run.
    "sentences_grid": Workload(
        ini="""
[sampler]
strategies = similar_comments,random_comments,similar_sentences
max_samples = 5
baselines = no_comments,all_comments
""",
        conditions=["no_comments", "all_comments", "similar_comments-k5",
                    "random_comments-k5", "similar_sentences-k5"],
    ),
    # Training-bound: 16 conditions over whole comments, with clustering and
    # the second profiles pass in set-up; few embed_text calls. A run on a
    # 2-worker pool must write the same bytes as the sequential runs.
    "category_grid": Workload(ini=CATEGORY_INI, conditions=CATEGORY_CONDITIONS,
                              check_workers=2),
}


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "dlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def git_sha() -> str:
    """HEAD's commit when the checkout is a git repository, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_inputs(workdir: Path, name: str, seed: int) -> None:
    from dlab.synthgen import PopulationSpec, generate_population, write_population

    corpus, truth = generate_population(
        PopulationSpec(n_annotators=N_ANNOTATORS, n_posts=N_POSTS,
                       comments_per_annotator=COMMENTS_PER_ANNOTATOR,
                       verdicts_per_annotator=VERDICTS_PER_ANNOTATOR, seed=seed))
    write_population(corpus, truth, workdir / "corpus")
    ini = COMMON_INI.format(seed=seed) + WORKLOADS[name].ini
    (workdir / "workload.ini").write_text(ini, encoding="utf-8")


def load_checked_corpus(workdir: Path):
    """The corpus as the pipeline sees it after annotator filtering."""
    from dlab.corpus import filter_annotators, ingest_corpus
    from dlab.pipeline import parse_config

    cfg = parse_config(workdir / "workload.ini")
    corpus, _ = ingest_corpus(*(workdir / p for p in cfg.corpus_paths))
    corpus, _ = filter_annotators(corpus, cfg.min_comments, cfg.max_comments)
    return corpus


def run_child(workdir: Path, workers: int, traced: bool, timeout: float) -> dict:
    """One repetition in a fresh process; raises on failure."""
    shutil.rmtree(workdir / "out", ignore_errors=True)
    (workdir / "spans.json").unlink(missing_ok=True)
    result = workdir / "result.json"
    result.unlink(missing_ok=True)
    # its own process group, so that a timeout also ends its pool workers
    with subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(workdir), str(workers),
         "1" if traced else "0", str(result)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        try:
            _, stderr = proc.communicate(timeout=timeout)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def normalize(result: dict, scale: float, pairs: int) -> None:
    """Scale a repetition's times to the reference host speed, keeping the
    measured figures under raw_*."""
    for key in ("run_s", "setup_s", "cpu_s"):
        result["raw_" + key] = result[key]
        result[key] *= scale
    result["pairs_per_s"] = pairs / (result["run_s"] - result["setup_s"])


def median_metrics(runs: list[dict]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def summary_line(values: list[float]) -> str:
    return f"median {statistics.median(values):.6g}  max {max(values):.6g}  n {len(values)}"


class Repetitions:
    """Runs repetitions of one workload and checks each one's artifacts."""

    def __init__(self, workload: Workload, workdir: Path, corpus):
        self.workload = workload
        self.workdir = workdir
        self.corpus = corpus
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] | None = None
        self.reference_problems: list[str] = []
        self.untraced: list[dict] = []
        self.traced: list[dict] = []

    def run(self, kind: str, timeout: float) -> None:
        from checks import (artifact_digests, check_artifacts, check_same, recovery_gain_pp,
                            report_pairs)
        from spans import layer_metrics

        self.attempted += 1
        workers = self.workload.check_workers if kind == "check" else 1
        try:
            result = run_child(self.workdir, workers, kind == "traced", timeout)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            self.failed += 1
            print(f"perfbench: repetition {self.attempted} failed: {exc}", file=sys.stderr)
            return
        out = self.workdir / "out"
        digests = artifact_digests(out)
        if digests == self.reference:
            problems = self.reference_problems  # same bytes, same verdict
        else:
            problems = check_artifacts(out, self.corpus, self.workload.conditions)
            if self.reference is None:
                self.reference, self.reference_problems = digests, problems
            else:
                what = ("run vs run with another pool size" if self.workload.check_workers
                        else "rerun with the same seed")
                problems += check_same(digests, self.reference, what)
        if problems:
            self.failed += 1
            for problem in problems[:10]:
                print(f"perfbench: repetition {self.attempted}: {problem}", file=sys.stderr)
            return
        host = statistics.fmean([result.pop("calibration_before_s"),
                                 result.pop("calibration_after_s")])
        normalize(result, REFERENCE_CALIBRATION_S / host, report_pairs(out))
        result["model.recovery_gain_pp"] = recovery_gain_pp(out)
        print(f"perfbench: repetition {self.attempted} ({kind}, calibration {host:.4f} s): "
              + " ".join(f"{k} {v:.4f}" for k, v in sorted(result.items())), file=sys.stderr)
        if kind == "traced":
            spans = json.loads((self.workdir / "spans.json").read_text(encoding="utf-8"))
            result.update(layer_metrics(spans))
            self.traced.append(result)
        elif kind == "untraced":
            self.untraced.append(result)


def measure(reps: Repetitions, seconds: float, trace: bool) -> None:
    """Repeat until `seconds` have passed, and at least three measured
    repetitions (with --trace, alternately untraced and traced)."""
    first = 1 if reps.workload.check_workers else 0
    start = perf_counter()
    longest = 0.0
    while reps.attempted < first + 3 or perf_counter() - start + longest <= seconds:
        left = DEADLINE_S - (perf_counter() - START)
        if left < 1.0:
            break
        i = reps.attempted - first
        kind = "check" if i < 0 else "traced" if trace and i % 2 else "untraced"
        rep_start = perf_counter()
        reps.run(kind, timeout=left)
        longest = max(longest, perf_counter() - rep_start)


def metrics_of(reps: Repetitions, wanted: list[dict], trace: bool, name: str) -> dict:
    """Medians of the metrics BENCHMARK.json names, printed one per line."""
    runs = reps.traced if trace else reps.untraced
    if not runs or not reps.untraced:
        return {}
    medians = median_metrics(runs)
    if trace:
        untraced = statistics.median(r["run_s"] for r in reps.untraced)
        medians["trace.overhead_pct"] = 100.0 * (medians["run_s"] / untraced - 1.0)
    else:
        for key in ("run_s", "setup_s", "cpu_s"):
            print(f"{name}  {'raw_' + key:<34} {'s':<6} "
                  + summary_line([r["raw_" + key] for r in runs]))
    metrics = {}
    for m in wanted:
        key = m["name"]
        metrics[key] = {"value": medians[key], "unit": m["unit"]}
        line = summary_line([r[key] for r in runs]) if key in runs[0] else f"{medians[key]:.6g}"
        print(f"{name}  {key:<34} {m['unit']:<6} {line}")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # end like an exception on SIGTERM, so the running child is killed and
    # the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (SRC / "dlab" / "__init__.py").is_file():
        print(f"perfbench: no dlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        write_inputs(workdir, args.workload, args.seed)
        reps = Repetitions(WORKLOADS[args.workload], workdir, load_checked_corpus(workdir))
        measure(reps, args.seconds, bool(args.trace))
        print("# env " + json.dumps(environment(), sort_keys=True))
        metrics = metrics_of(reps, wanted, bool(args.trace), args.workload)
        print(json.dumps({
            "correct": reps.failed == 0 and bool(metrics),
            "attempted": reps.attempted,
            "failed": reps.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
