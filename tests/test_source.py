"""Properties of the package source itself."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

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
