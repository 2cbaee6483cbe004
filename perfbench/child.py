"""One repetition of a workload, in a fresh process.

Usage: python3 child.py WORKDIR WORKERS TRACE RESULT_JSON

Runs ``parse_config`` + ``run_pipeline`` on ``WORKDIR/workload.ini`` with the
working directory set to WORKDIR, so the config's relative ``out`` path is
the same in every repetition. Writes wall, set-up, CPU and peak-memory
figures to RESULT_JSON, with the host-speed calibration timed just before
and just after the run; with TRACE=1 it also records spans around every
call into dlab's modules and writes them to ``WORKDIR/spans.json``.
"""
import os
import sys

# one BLAS thread, as dlab's README promises one core; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import resource
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dlab.pipeline  # noqa: E402
from calibrate import calibration_s  # noqa: E402


def cpu_seconds() -> float:
    """User + system time of this process and its ended children so far."""
    return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                  resource.getrusage(resource.RUSAGE_CHILDREN)))


def main() -> None:
    workdir, workers, trace, result_path = sys.argv[1:5]
    os.chdir(workdir)
    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    marks: list[float] = []
    build_conditions = dlab.pipeline.build_conditions

    def mark_setup_end(cfg):
        # the grid starts at the single call into build_conditions
        marks.append(perf_counter())
        return build_conditions(cfg)

    dlab.pipeline.build_conditions = mark_setup_end

    before = calibration_s()
    cpu_start = cpu_seconds()
    start = perf_counter()
    cfg = dlab.pipeline.parse_config("workload.ini")
    dlab.pipeline.run_pipeline(cfg, workers=int(workers))
    end = perf_counter()
    cpu_end = cpu_seconds()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    after = calibration_s()

    result = {
        "run_s": end - start,
        "setup_s": marks[0] - start,
        "cpu_s": cpu_end - cpu_start,
        # ru_maxrss is in KiB; the workers' figure is the largest worker's
        "peak_rss_mb": (own.ru_maxrss + kids.ru_maxrss) / 1024.0,
        "calibration_before_s": before,
        "calibration_after_s": after,
    }
    if tracer is not None:
        tracer.dump(Path("spans.json"))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
