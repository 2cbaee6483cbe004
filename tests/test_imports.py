"""The package's import graph, read from the source of src/dlab, the
imports that the test session's warning filters must let through, and a
run that must not import scipy."""
import ast
import importlib
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

from tests.test_pipeline_cli import SYNTH_INI

SRC = Path(__file__).resolve().parents[1] / "src" / "dlab"


def relative_imports(path: Path) -> set[str]:
    """The package modules one file imports, function-level imports included.
    `from . import __version__` reads a package attribute, not a module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module)
            else:
                found.update(alias.name for alias in node.names if alias.name != "__version__")
    return found


def test_import_graph_has_no_cycle():
    graph = {path.stem: relative_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert "corpus" in graph and graph["__init__"]
    assert set().union(*graph.values()) <= set(graph)
    try:
        list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))


def test_hypothesis_failure_report_imports_under_warning_filters(monkeypatch):
    # hypothesis imports hypothesis.extra._patching, and with it libcst, to
    # report a falsifying example; a warning raised as an error there ends
    # the whole session in an INTERNALERROR instead of one failed test.
    # importorskip imports with warnings ignored, so the modules it loads are
    # dropped and imported again under the session's filters.
    pytest.importorskip("libcst")
    for name in [m for m in sys.modules
                 if m.split(".")[0] == "libcst" or m == "hypothesis.extra._patching"]:
        monkeypatch.delitem(sys.modules, name)
    importlib.import_module("hypothesis.extra._patching")


def run_python(script: str) -> subprocess.CompletedProcess:
    """Run a script in a fresh interpreter that imports dlab from src."""
    path = [str(SRC.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)


def test_package_and_a_run_need_no_scipy(tmp_path):
    # scipy is a test dependency only; with sys.modules["scipy"] set to None
    # any import of it, top-level or lazy, raises ImportError
    ini = tmp_path / "run.ini"
    ini.write_text(SYNTH_INI, encoding="utf-8")
    script = f"""
import importlib, pkgutil, sys
sys.modules["scipy"] = None
import dlab
for info in pkgutil.iter_modules(dlab.__path__):
    importlib.import_module("dlab." + info.name)
from dlab.pipeline import parse_config, run_pipeline
rows = run_pipeline(parse_config({str(ini)!r}, {{"run.out": {str(tmp_path / "out")!r}}}))
assert any(row["p_vs_baseline"] is not None for row in rows), rows
"""
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr


def test_a_sequential_run_loads_no_multiprocessing(tmp_path):
    # only a run with workers > 1 needs a process pool
    ini = tmp_path / "run.ini"
    ini.write_text(SYNTH_INI, encoding="utf-8")
    script = f"""
import sys
import dlab.cli
from dlab.pipeline import parse_config, run_pipeline
run_pipeline(parse_config({str(ini)!r}, {{"run.out": {str(tmp_path / "out")!r}}}))
loaded = [m for m in sys.modules if m.split(".")[0] == "multiprocessing"
          or m == "concurrent.futures.process"]
assert not loaded, loaded
"""
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
