"""Source layout: every import sits at module level, the modules of the
package import each other in one direction only, and every export has a
reader outside the tests."""

import ast
import importlib
import os
import re

import pytest

import outerspace
from outerspace.graphs import MarkedMetricGraph

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src", "outerspace")

# each module imports only modules listed before it
LAYERS = ["errors", "words", "graphs", "simplex", "docs", "stretch", "plmaps",
          "folding", "fixtures", "repro", "cli", "__init__"]


def parse(name):
    with open(os.path.join(SRC, f"{name}.py"), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def package_imports(tree):
    """The package modules a module imports, by their short names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module)
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_layers_list_every_module():
    names = sorted(f[:-3] for f in os.listdir(SRC) if f.endswith(".py"))
    assert sorted(LAYERS) == names


@pytest.mark.parametrize("name", LAYERS)
def test_no_import_inside_a_function(name):
    for fn in ast.walk(parse(name)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = [node.lineno for node in ast.walk(fn)
                     if isinstance(node, (ast.Import, ast.ImportFrom))]
            assert not inner, f"{name}.{fn.name} imports at lines {inner}"


@pytest.mark.parametrize("name", LAYERS)
def test_modules_import_in_one_direction(name):
    earlier = set(LAYERS[:LAYERS.index(name)])
    assert package_imports(parse(name)) <= earlier


@pytest.mark.parametrize("name", LAYERS)
def test_no_nested_function_refers_to_itself(name):
    """A nested function that calls itself holds a reference cycle through
    its closure, which only the cycle collector frees."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for fn in ast.walk(parse(name)):
        if isinstance(fn, functions):
            for inner in ast.walk(fn):
                if inner is not fn and isinstance(inner, functions) and any(
                        isinstance(node, ast.Name) and node.id == inner.name
                        for node in ast.walk(inner)):
                    found.append(f"{fn.name}.{inner.name}")
    assert not found, f"{name}: {found} refer to themselves"


def traced_names():
    """The ``TRACED`` (module, function) pairs of the benchmark's tracer,
    read from its source without importing it."""
    with open(os.path.join(ROOT, "bench", "tracing.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED list")


def test_traced_names_exist():
    """The tracer wraps these by name; renaming one breaks traced runs."""
    traced = traced_names()
    assert traced
    for module, function in traced:
        mod = importlib.import_module(f"outerspace.{module}")
        assert callable(getattr(mod, function, None)), f"{module}.{function}"
    assert callable(getattr(MarkedMetricGraph, "star", None))


def names_read(tree):
    """The names a module reads: loaded names, attributes, and strings that
    name something (as the tracer's ``TRACED`` pairs do); imports and
    definitions are not reads."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out.add(node.value)
    return out


def names_read_outside_tests():
    """The names that the package (but for `__init__`, which only imports
    and lists the exports), README or the benchmark read."""
    read = set()
    for name in LAYERS:
        if name != "__init__":
            read |= names_read(parse(name))
    bench = os.path.join(ROOT, "bench")
    for f in sorted(os.listdir(bench)):
        if f.endswith(".py"):
            with open(os.path.join(bench, f), encoding="utf-8") as fh:
                read |= names_read(ast.parse(fh.read()))
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        read |= set(re.findall(r"\w+", fh.read()))
    return read


def test_every_export_has_a_reader():
    """Each public name is read by the package, by README or by the
    benchmark; a name only tests read is a second spelling to retire."""
    read = names_read_outside_tests()
    unread = [name for name in outerspace.__all__ if name not in read]
    assert not unread, f"exported but read only by tests: {unread}"


# the library layers; `fixtures` builds the inputs of reports and tests
LIBRARY = ["words", "graphs", "simplex", "docs", "stretch", "plmaps",
           "folding"]


@pytest.mark.parametrize("name", LIBRARY)
def test_every_public_definition_has_a_reader(name):
    """Each public module-level function and class of a library layer is
    read outside the tests, as the exports are."""
    read = names_read_outside_tests()
    unread = [node.name for node in parse(name).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in read]
    assert not unread, f"{name}: defined but read only by tests: {unread}"
