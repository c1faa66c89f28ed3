import ast
import builtins
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "kuzureader"
TESTS = ROOT / "tests"


def test_every_declared_script_target_imports():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attribute = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attribute)), name


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in allowed, f"{path.name} imports {module}"


def test_autodiff_imports_no_other_package_module():
    for node in ast.walk(ast.parse((PACKAGE / "autodiff.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            modules = ["." * node.level + (node.module or "")]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        for module in modules:
            assert not module.startswith(".") and module.split(".")[0] != "kuzureader", \
                f"autodiff.py:{node.lineno} imports {module}"


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in dependencies]
    assert names == ["numpy"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_model_modules_raise_no_bare_value_error(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            assert not (isinstance(exc, ast.Name) and exc.id == "ValueError"), \
                f"{path.name}:{node.lineno} raises a bare ValueError; raise a typed error"


def test_only_the_three_typed_errors_are_defined():
    classes = [node for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
               if isinstance(node, ast.ClassDef)]
    exceptions = {name for name, value in vars(builtins).items()
                  if isinstance(value, type) and issubclass(value, BaseException)}
    defined: set[str] = set()
    while True:  # grow until no class derives from a builtin or an already found exception
        found = {node.name for node in classes
                 if any(getattr(base, "id", getattr(base, "attr", None)) in exceptions | defined
                        for base in node.bases)}
        if found == defined:
            break
        defined = found
    assert defined == {"DimensionError", "NumericError", "DatasetError"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda path: f"{path.parent.name}/{path.stem}")
def test_every_module_level_import_is_used(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue  # kept on purpose, for a module that looks the name up here
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            assert name in used, f"{path.parent.name}/{path.name}:{node.lineno} imports {name}, unused"
