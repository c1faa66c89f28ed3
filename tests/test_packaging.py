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
BENCH = ROOT / "bench"

# public names that nothing outside the tests calls yet, each with its reason
UNCALLED = {
    "autodiff.sum_all": "a test helper: the tests' losses",
    "autodiff.grad_check": "a test helper: the tests' finite-difference checks",
    "metrics.evaluate": "for the eval command of the training CLI (ROADMAP)",
    "metrics.EvalReport.to_json": "for the eval command of the training CLI (ROADMAP)",
    "metrics.EvalReport.to_text": "for the eval command of the training CLI (ROADMAP)",
    "vocab.Vocabulary.decode": "for the recognize command of the training CLI (ROADMAP)",
    "vocab.Vocabulary.sha256": "for the training CLI's checkpoint (ROADMAP)",
    "model.Recognizer.load_parameter_values": "for the training CLI's checkpoint (ROADMAP)",
}


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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
                         + sorted(BENCH.glob("*.py")), ids=lambda path: f"{path.parent.name}/{path.stem}")
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


def _public_definitions():
    """(path, qualified name, node, is_member) for each public definition of the package.

    That is every top-level function and class whose name has no leading
    ``_``, and every such method or property of those classes.
    """
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, f"{path.stem}.{node.name}", node, False
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path, f"{path.stem}.{node.name}.{item.name}", item, True


def _uses(path):
    """(name, line, is_attribute_of_an_object) for each name that ``path`` references.

    A name counts through a ``Name``, an ``Attribute``, an imported name or a
    string constant (``bench/spans.py`` wraps functions by name). The flag is
    set on an ``Attribute`` whose receiver is not an imported module, the
    only use that counts for a method or property.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module == "kuzureader" or
                                                   (node.level and node.module is None)):
            modules |= {alias.asname or alias.name for alias in node.names
                        if (PACKAGE / f"{alias.name}.py").exists()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            receiver = node.value.id if isinstance(node.value, ast.Name) else None
            yield node.attr, node.lineno, receiver not in modules
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno, False) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno, False


def test_every_public_name_has_a_caller_outside_the_tests():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    callers = sorted(PACKAGE.glob("*.py")) + [
        path for path in sorted(BENCH.glob("*.py")) if not path.name.startswith("test_")]
    uses = [(path, *use) for path in callers for use in _uses(path)]
    uses += [(PYPROJECT, target.rpartition(":")[2].split(".")[-1], 0, True)
             for target in scripts.values()]
    definitions = list(_public_definitions())
    defined = {qualified for _, qualified, _, _ in definitions}
    uncalled = {qualified for path, qualified, node, is_member in definitions
                if not any(name == node.name and (on_object or not is_member)
                           and not (where == path and node.lineno <= line <= node.end_lineno)
                           for where, name, line, on_object in uses)}
    assert set(UNCALLED) <= defined, f"allow-listed but not defined: {sorted(set(UNCALLED) - defined)}"
    assert uncalled <= set(UNCALLED), \
        f"public names with no caller outside the tests: {sorted(uncalled - set(UNCALLED))}"
    assert set(UNCALLED) <= uncalled, \
        f"allow-listed names that now have a caller: {sorted(set(UNCALLED) - uncalled)}"
