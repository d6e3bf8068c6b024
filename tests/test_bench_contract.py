"""The benchmark under bench/ reaches into the package by name: its tracer
wraps the functions that bench/tracing.py lists in TRACED, and the
workloads in bench/workloads.py call module attributes.  These tests fail
when a change to the package removes or renames a name the benchmark still
uses, instead of leaving the failure to ``bench/run.py --trace 1``.  Two
fail the other way round: when the package exports a function or class
that only its own unit tests use, and when it defines a module-level name
that nothing reads.  One more keeps the modules below the harness from
patching an object after it is built."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import degenlab

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _resolve(module_name, qualname):
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)      # AttributeError names the missing part
    return obj


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def test_every_traced_function_resolves():
    traced = _traced()
    assert traced
    for module, qualname in traced:
        assert callable(_resolve("degenlab." + module, qualname))


def _package_names(tree):
    """(module, name) for every package name the parsed code uses: each
    attribute of an ``import degenlab.x as X`` alias and each name of a
    ``from degenlab.x import ...`` or, inside the package, of a
    ``from .x import ...``."""
    aliases = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((alias.asname, alias.name) for alias in node.names
                           if alias.name.startswith("degenlab.")
                           and alias.asname)
        elif isinstance(node, ast.ImportFrom) and node.level:
            used.update(("degenlab." + (node.module or ""), alias.name)
                        for alias in node.names)
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


def _public_members(cls):
    """The public methods and properties that cls defines itself."""
    return [name for name, member in vars(cls).items()
            if not name.startswith("_")
            and (inspect.isfunction(member)
                 or isinstance(member, (property, classmethod, staticmethod)))]


def test_every_exported_function_and_class_has_a_program_user():
    """Each function or class in ``degenlab.__all__`` is read somewhere in
    the package outside ``__init__.py``, by the benchmark (its workloads or
    TRACED), or by the acceptance tests; one that only its own unit tests
    use goes.  The same holds one level down: each public method or
    property that an exported class defines is read as an attribute (or
    listed in TRACED) by those same files."""
    users = [p for p in sorted((ROOT / "src" / "degenlab").glob("*.py"))
             if p.name != "__init__.py"]
    users += sorted(BENCH.glob("*.py")) + [ROOT / "tests" /
                                           "test_acceptance.py"]
    used = {part for _, qualname in _traced() for part in qualname.split(".")}
    attrs = set(used)
    for path in users:
        tree = ast.parse(path.read_text())
        used.update(name for _, name in _package_names(tree))
        used.update(node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load))
        attrs.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.ctx, ast.Load))
    exported = [name for name in degenlab.__all__
                if inspect.isfunction(getattr(degenlab, name))
                or inspect.isclass(getattr(degenlab, name))]
    assert len(exported) > 40
    assert sorted(set(exported) - used) == []
    members = [(cls, name) for cls in exported
               if inspect.isclass(getattr(degenlab, cls))
               for name in _public_members(getattr(degenlab, cls))]
    assert len(members) > 40
    assert ["%s.%s" % m for m in members if m[1] not in attrs] == []


def test_no_unused_imports():
    """Every name a module imports is read in that module; the package's
    ``__init__.py`` is skipped, as its imports are the re-exports."""
    paths = [p for p in sorted((ROOT / "src" / "degenlab").glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    paths += sorted((ROOT / "tests" / "golden").glob("*.py"))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += ["%s:%d %s" % (path.relative_to(ROOT), line, name)
                   for name, line in sorted(imported.items())
                   if name not in used]
    assert unused == []


def test_every_module_level_name_is_read():
    """Each top-level function, class and assigned name of a module of the
    package is loaded somewhere in the package, by the benchmark or by the
    acceptance tests, or is listed in TRACED: a name nothing reads, such as
    a table left behind when its last user goes, fails here.  A name that
    the package's ``__init__.py`` imports counts only when it is read
    elsewhere too, since the re-export alone reads nothing."""
    sources = sorted((ROOT / "src" / "degenlab").glob("*.py"))
    users = sources + sorted(BENCH.glob("*.py")) + [ROOT / "tests" /
                                                    "test_acceptance.py"]
    loaded = {part for _, qualname in _traced()
              for part in qualname.split(".")}
    for path in users:
        tree = ast.parse(path.read_text())
        if path.name != "__init__.py":
            loaded.update(name for _, name in _package_names(tree))
        loaded.update(node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name)
                      and isinstance(node.ctx, ast.Load))
    defined = []
    for path in sources:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
            else:
                continue
            defined += ["%s:%s" % (path.name, name) for name in names
                        if not (name.startswith("__") and name.endswith("__"))]
    assert len(defined) > 100
    assert [d for d in defined if d.split(":")[1] not in loaded] == []


def _patches(tree):
    """The line of every assignment (plain, augmented or annotated) to an
    attribute, or to an item or slice of one, of any name but ``self``,
    and of every ``setattr`` or ``object.__setattr__`` on such a name."""
    def foreign(node):
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return not (isinstance(node, ast.Name) and node.id == "self")

    def patched(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(patched(t) for t in target.elts)
        if isinstance(target, ast.Starred):
            return patched(target.value)
        while isinstance(target, ast.Subscript):
            target = target.value
        return isinstance(target, ast.Attribute) and foreign(target)

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call) and node.args and (
                ast.unparse(node.func) in ("setattr", "object.__setattr__")):
            targets = []
            if foreign(node.args[0]):
                lines.append(node.lineno)
        else:
            continue
        lines += [node.lineno for t in targets if patched(t)]
    return sorted(lines)


def test_no_object_is_patched_after_it_is_built():
    """In each module listed, every module of the package but the harness
    and the import shims, an object gets its state when it is built, and
    keeps what it derives through ``mesh._cached``: no code sets an
    attribute of an object other than ``self``.  ``harness.py`` is not
    held to this while ``locally_homogeneous_solution`` sets four local
    attributes on its solution, two of which (``homogeneous_cylinder`` and
    ``source_bound``) ``bench/workloads.py:217-218`` reads."""
    modules = ("mesh.py", "fields.py", "norms.py", "solver.py",
               "assembly.py", "coefficients.py", "mms.py", "cli.py")
    assert _patches(ast.parse("a.b = 1\nself.c[0].d += 2\nx, e.f[1] = g\n"
                              "self.h[2] = 3\nsetattr(i, 'j', 4)\n"
                              "object.__setattr__(self, 'k', 5)\n"
                              "l.m().n[:] = 6\nl.m()[:] = 7\n")) == \
        [1, 3, 5, 7]
    assert {m: _patches(ast.parse((ROOT / "src" / "degenlab" / m)
                                  .read_text())) for m in modules} == \
        dict.fromkeys(modules, [])
