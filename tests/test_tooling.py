"""Repository checks that need no installed tool: the benchmark tracer's
targets exist, the package modules import nothing they do not use, and
liehouse.__all__ names exactly what the package re-exports."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liehouse"


def _load_tracer():
    """perfbench/tracer.py as a module of its own, without running the
    benchmark or patching anything."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_functions_resolve():
    for _, module, name in _load_tracer().FUNCTIONS:
        target = getattr(importlib.import_module(module), name, None)
        assert callable(target), (module, name)


def test_tracer_methods_are_defined_on_their_classes():
    for _, module, cls, method in _load_tracer().METHODS:
        owner = getattr(importlib.import_module(module), cls)
        assert method in vars(owner), (module, cls, method)


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("name", sorted(
    path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py"))
def test_module_has_no_unused_import(name):
    # __init__.py imports to re-export, so it is left out
    assert _unused_imports(PACKAGE / name) == []


def test_package_all_names_resolve():
    import liehouse
    missing = [name for name in liehouse.__all__
               if not hasattr(liehouse, name)]
    assert missing == []


def test_package_all_has_no_duplicates():
    import liehouse
    assert len(set(liehouse.__all__)) == len(liehouse.__all__)


def test_package_all_lists_what_init_imports():
    import liehouse
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported == set(liehouse.__all__)
