"""The benchmark under bench/ reaches into the package by name: its tracer
wraps the functions that bench/tracing.py lists in TRACED, and the
workloads in bench/workloads.py call module attributes.  These tests fail
when a change to the package removes or renames a name the benchmark still
uses, instead of leaving the failure to ``bench/run.py --trace 1``."""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _resolve(module_name, qualname):
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)      # AttributeError names the missing part
    return obj


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, qualname in tracing.TRACED:
        assert callable(_resolve("degenlab." + module, qualname))


def _package_names(tree):
    """(module, name) for every package name the parsed code uses: each
    attribute of an ``import degenlab.x as X`` alias and each name of a
    ``from degenlab.x import ...``."""
    aliases = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((alias.asname, alias.name) for alias in node.names
                           if alias.name.startswith("degenlab.")
                           and alias.asname)
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("degenlab"):
            used.update((node.module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in aliases:
            used.add((aliases[node.value.id], node.attr))
    return sorted(used)


def test_every_name_the_workloads_use_resolves():
    names = _package_names(ast.parse((BENCH / "workloads.py").read_text()))
    assert {module for module, _ in names} >= {
        "degenlab.assembly", "degenlab.cli", "degenlab.coefficients",
        "degenlab.harness", "degenlab.norms", "degenlab.mesh"}
    for module, name in names:
        _resolve(module, name)
