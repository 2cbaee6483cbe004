"""Spans around calls into dlab's modules, recorded from outside the program.

`Tracer.install()` rebinds the public names that `dlab.pipeline` (and
`dlab.embed` for `embed_text`) call through, so every call into a layer
opens a span. A span is a list ``[name, layer, start, end, parent]`` kept in
memory; `Tracer.dump()` writes them out when the run ends, and
`layer_metrics()` turns a dump into the per-layer metrics of the benchmark.
Traced runs are sequential: spans recorded in pool workers would be lost.
"""
from __future__ import annotations

import json
import os
import pickle
from collections import Counter
from pathlib import Path
from time import perf_counter

import dlab.embed
import dlab.pipeline

LAYERS = ("corpus", "disclosure", "embed", "cluster", "sampler", "model", "pipeline")
STRATEGIES = ("similar_comments", "random_comments", "similar_sentences")


def _strategy(args, kwargs) -> str:
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[5]
    return cfg.strategy


class Tracer:
    """In-memory span recorder; one per process, installed once."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.texts: set[str] = set()

    def _wrap(self, module, attr: str, name, layer: str, after=None) -> None:
        fn = getattr(module, attr)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name(args, kwargs) if callable(name) else name, layer,
                   0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def install(self) -> None:
        p, c = dlab.pipeline, self.counters

        def ingested(args, kwargs, result):
            report = result[1]
            c["corpus.ingest_records"] += report.n_posts + report.n_comments + report.n_verdicts

        def verified(args, kwargs, result):
            c["corpus.split_violations"] += len(result.violations)

        def profiled(args, kwargs, result):
            c["disclosure.profiles_calls"] += 1

        def embedded(args, kwargs, result):
            c["embed.text_calls"] += 1
            self.texts.add(args[0])

        def clustered(args, kwargs, result):
            c["cluster.kmeans_iters"] += len(result.inertia_history) - 1

        def sampled(args, kwargs, result):
            c["sampler.calls." + _strategy(args, kwargs)] += 1
            c["sampler.empty_contexts"] += len(result) == 0

        def dumped(args, kwargs, result):
            c["sampler.dump_bytes"] += os.path.getsize(args[1])

        def featured(args, kwargs, result):
            c["model.features_calls"] += 1

        def trained(args, kwargs, result):
            c["model.fits"] += 1
            c["model.epochs"] += result.epochs

        def condition_done(args, kwargs, result):
            c["pipeline.conditions"] += 1
            c["pipeline.row_bytes"] += len(pickle.dumps(result))

        self._wrap(p, "parse_config", "pipeline.parse_config", "pipeline")
        self._wrap(p, "run_pipeline", "pipeline.run", "pipeline")
        self._wrap(p, "build_conditions", "pipeline.build_conditions", "pipeline")
        self._wrap(p, "run_condition", "pipeline.condition", "pipeline", condition_done)
        self._wrap(p, "write_report_tsv", "pipeline.write_report", "pipeline")
        self._wrap(p, "ingest_corpus", "corpus.ingest", "corpus", ingested)
        self._wrap(p, "filter_annotators", "corpus.filter", "corpus")
        self._wrap(p, "make_split", "corpus.split", "corpus")
        self._wrap(p, "verify_split", "corpus.split", "corpus", verified)
        self._wrap(p, "save_split", "corpus.save_split", "corpus")
        self._wrap(p, "build_profiles", "disclosure.profiles", "disclosure", profiled)
        self._wrap(p, "embed_texts", "embed.matrix", "embed")
        self._wrap(dlab.embed, "embed_text", "embed.text", "embed", embedded)
        self._wrap(p, "truncated_svd", "cluster.svd", "cluster")
        self._wrap(p, "kmeans", "cluster.kmeans", "cluster", clustered)
        self._wrap(p, "sample_context",
                   lambda a, kw: "sampler.sample." + _strategy(a, kw), "sampler", sampled)
        self._wrap(p, "full_pool_context", "sampler.full_pool", "sampler")
        self._wrap(p, "dump_contexts", "sampler.dump", "sampler", dumped)
        self._wrap(p, "build_features", "model.features", "model", featured)
        self._wrap(p, "train", "model.train", "model", trained)
        self._wrap(p, "evaluate", "model.evaluate", "model")
        self._wrap(p, "significance_test", "model.significance", "model")

    def dump(self, path: Path) -> None:
        """Write the spans, the counters and the number of distinct embedded
        texts as JSON."""
        Path(path).write_text(json.dumps({
            "spans": self.spans, "counters": dict(self.counters),
            "texts": len(self.texts),
        }), encoding="utf-8")


# ---------------------------------------------------------------------------
# analysis

def _span_times(spans: list[list]) -> tuple[list[float], list[float]]:
    """Exclusive time of each span, and its time within its own layer.

    Exclusive time is the duration minus what direct children cover. Layer
    time also adds back the layer time of children in the same layer, so it
    is the span's time minus the calls it made into other layers.
    """
    n = len(spans)
    excl = [s[3] - s[2] for s in spans]
    own = [0.0] * n
    for i in range(n):
        parent = spans[i][4]
        if parent >= 0:
            excl[parent] -= spans[i][3] - spans[i][2]
    # children are opened after their parent, so reverse order settles them first
    for i in range(n - 1, -1, -1):
        own[i] += excl[i]
        parent = spans[i][4]
        if parent >= 0 and spans[parent][1] == spans[i][1]:
            own[parent] += own[i]
    return excl, own


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics from the `Tracer.dump()` of one traced run."""
    by_name: Counter = Counter()
    self_s: Counter = Counter()
    counters = Counter(dump["counters"])
    condition_max = 0.0
    run_end = last_dump_end = 0.0
    spans = dump["spans"]
    excl, own = _span_times(spans)
    for (name, layer, start, end, _), e, o in zip(spans, excl, own):
        by_name[name] += o
        self_s[layer] += e
        if name == "embed.text":
            by_name["embed.text_total"] += end - start
        elif name == "pipeline.condition":
            condition_max = max(condition_max, end - start)
        elif name == "pipeline.run":
            run_end = end
        elif name == "sampler.dump":
            last_dump_end = max(last_dump_end, end)

    def per(total: float, count: float, scale: float) -> float:
        return scale * total / count if count else 0.0

    m = {
        "corpus.ingest_s": by_name["corpus.ingest"],
        "corpus.ingest_records": counters["corpus.ingest_records"],
        "corpus.split_s": by_name["corpus.split"],
        "corpus.split_violations": counters["corpus.split_violations"],
        "disclosure.profiles_s": by_name["disclosure.profiles"],
        "disclosure.profiles_calls": counters["disclosure.profiles_calls"],
        "embed.matrix_s": by_name["embed.matrix"],
        "embed.text_calls": counters["embed.text_calls"],
        "embed.text_s": by_name["embed.text_total"],
        "embed.us_per_text": per(by_name["embed.text_total"], counters["embed.text_calls"], 1e6),
        "embed.unique_text_ratio": per(dump["texts"], counters["embed.text_calls"], 1.0),
        "cluster.svd_s": by_name["cluster.svd"],
        "cluster.kmeans_s": by_name["cluster.kmeans"],
        "cluster.kmeans_iters": counters["cluster.kmeans_iters"],
    }
    for s in STRATEGIES:
        m[f"sampler.sample_s.{s}"] = by_name[f"sampler.sample.{s}"]
        m[f"sampler.calls.{s}"] = counters[f"sampler.calls.{s}"]
        m[f"sampler.us_per_pair.{s}"] = per(by_name[f"sampler.sample.{s}"],
                                            counters[f"sampler.calls.{s}"], 1e6)
    m.update({
        "sampler.empty_contexts": counters["sampler.empty_contexts"],
        "sampler.full_pool_s": by_name["sampler.full_pool"],
        "sampler.dump_s": by_name["sampler.dump"],
        "sampler.dump_bytes": counters["sampler.dump_bytes"],
        "model.features_s": by_name["model.features"],
        "model.features_calls": counters["model.features_calls"],
        "model.train_s": by_name["model.train"],
        "model.fits": counters["model.fits"],
        "model.ms_per_epoch": per(by_name["model.train"], counters["model.epochs"], 1e3),
        "model.evaluate_s": by_name["model.evaluate"],
        "pipeline.conditions": counters["pipeline.conditions"],
        "pipeline.condition_s.max": condition_max,
        "pipeline.row_bytes": counters["pipeline.row_bytes"],
        "pipeline.write_s": max(run_end - last_dump_end, 0.0) if last_dump_end else 0.0,
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    return m

