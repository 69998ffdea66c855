"""Properties of the package source itself."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cvrep

SOURCE = Path(cvrep.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips assert statements, so none may guard an invariant.
    found = [
        f"{path.relative_to(SOURCE)}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in cvrep: {found}"


# the private slots an ``__init__`` derives from its fields and sets itself,
# by (module, class, slot); every field is set through ``Value._set``
_DERIVED_SLOTS = {("codes.py", "EdgeBasis", "_index"), ("codes.py", "StabilizerCode", "_blocks")}


def test_the_package_generates_no_code_and_sets_fields_only_through_its_base():
    # No module builds code at run time: the op table's constructors are
    # closures over its rows.  ``object.__setattr__`` (or a slot's
    # ``__set__``) gets past a value's refusing ``__setattr__``; it is called
    # in ``Value._set`` and for the derived slots named above, nowhere else.
    generated, setters = [], set()
    for path in sorted(SOURCE.rglob("*.py")):
        module, tree = path.relative_to(SOURCE).as_posix(), ast.parse(path.read_text(encoding="utf-8"))
        owner = {node: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("exec", "eval", "compile"):
                generated.append(f"{module}:{node.lineno} {func.id}")
            elif isinstance(func, ast.Attribute) and (
                func.attr == "__set__" or func.attr == "__setattr__" and ast.unparse(func.value) == "object"
            ):
                slot = node.args[1] if len(node.args) > 1 else None
                setters.add((module, owner.get(node), slot.value if isinstance(slot, ast.Constant) else None))
    assert not generated, f"code generated at run time: {generated}"
    assert setters == {("_value.py", "Value", None), *_DERIVED_SLOTS}


def test_every_name_in_every_all_resolves():
    # A name left in __all__ after its definition goes breaks only
    # ``from module import *``; this finds it.  ``__main__`` runs the CLI.
    modules = [cvrep] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(cvrep.__path__, "cvrep.")
        if not info.name.endswith(".__main__")
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert cvrep.gaussian in modules and cvrep.circuits.ir in modules
    assert not missing, f"unresolved names in __all__: {missing}"


@pytest.mark.parametrize("package", [cvrep, cvrep.circuits], ids=lambda package: package.__name__)
def test_each_package_exports_exactly_its_submodules_all(package):
    # A package's public names are written down once, in the __all__ of the
    # submodule that defines them; the package re-exports those lists.
    # ``__main__`` runs the CLI; ``cli`` has no __all__.
    submodules = [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
        if info.name != "__main__"
    ]
    lists = {module.__name__: module.__all__ for module in submodules if hasattr(module, "__all__")}
    counts = Counter(name for names in lists.values() for name in names)
    assert not [name for name, count in counts.items() if count > 1], "a name is in two submodules' __all__"
    assert sorted(package.__all__) == sorted(counts)
    moved = [
        f"{module}.{name}"
        for module, names in lists.items()
        for name in names
        if getattr(package, name) is not getattr(sys.modules[module], name)
    ]
    assert not moved, f"package names that are not their submodule's object: {moved}"


@pytest.mark.parametrize("package", [cvrep, cvrep.circuits], ids=lambda package: package.__name__)
def test_no_exported_name_shadows_a_submodule(package):
    # ``import package.sub as m`` reads the package attribute ``sub``; an
    # exported name equal to a submodule's name would bind that instead.
    submodules = [info.name for info in pkgutil.iter_modules(package.__path__) if info.name != "__main__"]
    shadowed = [
        name
        for name in submodules
        if getattr(package, name, None) is not sys.modules.get(f"{package.__name__}.{name}")
    ]
    assert not shadowed, f"submodules shadowed by a package attribute: {shadowed}"


def test_the_cli_imports_its_modules_and_no_dataclasses():
    # A fresh ``import cvrep.cli`` loads every cvrep module and no
    # ``dataclasses``: the value types share one base, and no import is
    # deferred into a command, where it would only move the time it takes.
    code = (
        "import sys, numpy, argparse, json; base = 'dataclasses' in sys.modules; import cvrep.cli; "
        "print(base, 'dataclasses' in sys.modules, *sorted(m for m in sys.modules if m.split('.')[0] == 'cvrep'))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SOURCE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    base, with_cli, *modules = done.stdout.split()
    assert with_cli == base
    assert modules == [
        "cvrep",
        "cvrep._introws",
        "cvrep._value",
        "cvrep.circuits",
        "cvrep.circuits.interpreter",
        "cvrep.circuits.ir",
        "cvrep.circuits.recovery",
        "cvrep.circuits.rules",
        "cvrep.circuits.synthesis",
        "cvrep.cli",
        "cvrep.codes",
        "cvrep.gaussian",
        "cvrep.homology",
        "cvrep.replication",
        "cvrep.tolerances",
    ]


def test_every_traced_benchmark_name_resolves():
    # The benchmark's tracer wraps names from outside the package; a name
    # deleted or renamed here would otherwise fail only when the benchmark runs.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name, module_name, attr in tracing.TARGETS + tracing.COUNTED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{name}: {module_name}.{attr}")
    assert tracing.TARGETS and tracing.COUNTED
    assert not missing, f"traced names that no longer resolve: {missing}"


def test_the_readme_quick_start_runs():
    # Nothing else runs the README's example, so a name it uses could be
    # deleted unnoticed.  A line ending in ``# <Python literal>`` must
    # evaluate to that literal.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(block, "README.md quick start", "exec"), namespace)
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expected = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        if code.strip():
            assert eval(code, namespace) == expected, line
            checked += 1
    assert checked >= 4
