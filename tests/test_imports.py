"""The package's import graph, read from the source of src/dlab."""
import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

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
