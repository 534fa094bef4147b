"""Guards on the public API of the library modules (every module but the
CLI): no answer may depend on a seed or a search budget."""

import ast
import importlib
import inspect
import pathlib

import pytest

LIBRARY = ("linalg", "algebra", "structure", "homology", "trivext",
           "gorenstein", "morita")


def _public_functions(mod):
    """(name, function) for the public functions defined in mod and the
    constructors and public methods of its classes."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) \
                != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)
                if inspect.isfunction(fn) and (attr == "__init__"
                                               or not attr.startswith("_")):
                    yield f"{name}.{attr}", fn


@pytest.mark.parametrize("layer", LIBRARY)
def test_no_library_function_takes_a_seed_or_budget(layer):
    mod = importlib.import_module(f"extalg.{layer}")
    found = list(_public_functions(mod))
    assert found
    assert [name for name, fn in found
            if {"seed", "budget"} & set(inspect.signature(fn).parameters)] \
        == []


def test_no_unused_imports():
    """Every name a library or CLI module imports is used in it."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "extalg"
    paths = sorted(src.glob("*.py"))
    assert paths
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}: {alias.asname or alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name).split(".")[0]
                           not in used]
    assert unused == []
