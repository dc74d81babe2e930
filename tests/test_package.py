"""The package's public names: every export resolves, none is an alias, each
is used somewhere in the project, each import is used in its module, and
each public definition is reached from the package or the benchmark, not
from tests alone."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import nlflow

MODULES = ["nlflow"] + [f"nlflow.{info.name}"
                        for info in pkgutil.iter_modules(nlflow.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve_to_distinct_objects(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    missing = [n for n in exports if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing objects: {missing}"
    owners: dict[int, str] = {}
    aliases = []
    for n in exports:
        first = owners.setdefault(id(getattr(module, n)), n)
        if first != n:
            aliases.append((first, n))
    assert not aliases, f"{name}.__all__ binds one object twice: {aliases}"


def test_the_package_root_exports_only_its_version():
    # callers import from the modules; the root re-exports nothing
    assert nlflow.__all__ == ["__version__"]


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _referenced_names(tops=("src", "tests", "perfbench")) -> set[str]:
    """Every name a Python file under `tops` loads, reads as an attribute or
    imports by name."""
    names: set[str] = set()
    for top in tops:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_used():
    # a name only its own module's __all__ mentions is dead code
    used = _referenced_names()
    dead = [f"{name}.{n}" for name in MODULES
            for n in getattr(importlib.import_module(name), "__all__", [])
            if n not in used]
    assert not dead, f"exported but never referenced: {dead}"


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    # an imported name that its module neither uses nor exports is left over
    # from code that went
    module = importlib.import_module(name)
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used - set(getattr(module, "__all__", [])))
    assert not unused, f"{name} imports names it never uses: {unused}"


# public names only tests reach, each kept for a stated reason
TEST_ONLY = {
    "bilinear_form": "the pair-sum reference the operator tests compare to",
    "scan_derived_envelope": "the C^{1,alpha} linearization (ROADMAP item 5)",
    "verify_linearization": "the C^{1,alpha} linearization (ROADMAP item 5)",
    "rescaling_sequence": "the Holder induction of Lemma 3 (ROADMAP item 4)",
}


def test_every_public_definition_is_reached_outside_the_tests():
    # a public top-level function or class that only tests call is a second
    # path to keep in step with the one the CLI and the benchmark take
    used = _referenced_names(("src", "perfbench"))
    defined = [(path.stem, node.name)
               for path in (ROOT / "src" / "nlflow").glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    unreached = sorted(f"{module}.{name}" for module, name in defined
                       if name not in used and name not in TEST_ONLY)
    assert not unreached, f"reached only from tests: {unreached}"
    # an entry goes once the package drops its name or starts to reach it
    names = {name for _, name in defined}
    stale = sorted(n for n in TEST_ONLY if n not in names or n in used)
    assert not stale, f"TEST_ONLY lists names it need not: {stale}"


def _calls_by_name(tops=("src", "perfbench")) -> dict[str, list]:
    """Every call under `tops`, by the name it calls (a plain or an
    attribute name)."""
    calls: dict[str, list] = {}
    for top in tops:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or \
                        getattr(node.func, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def _sets(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether `call` passes the parameter `name`, at `position` among the
    positional ones when it can be passed so; a call that unpacks *args or
    **kwargs counts as passing every parameter it could."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or \
        any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_is_set_outside_the_tests():
    # a default that no package or benchmark call overrides is a knob only
    # tests turn: a second path to keep in step with the one users take
    calls = _calls_by_name()
    unset = []
    for path in (ROOT / "src" / "nlflow").glob("*.py"):
        tree = ast.parse(path.read_text())
        defs = [(node.name, node, 0) for node in tree.body
                if isinstance(node, ast.FunctionDef)]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            defs += [(cls.name if node.name == "__init__" else node.name,
                      node, 0 if any(getattr(d, "id", None) == "staticmethod"
                                     for d in node.decorator_list) else 1)
                     for node in cls.body
                     if isinstance(node, ast.FunctionDef)]
        for name, node, skip in defs:
            if name in TEST_ONLY:
                continue
            args = node.args
            positional = (args.posonlyargs + args.args)[skip:]
            defaulted = [(a.arg, i) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs,
                                                       args.kw_defaults)
                          if d is not None]
            unset += [f"{path.stem}.{name}({arg})" for arg, i in defaulted
                      if not any(_sets(c, arg, i)
                                 for c in calls.get(name, []))]
    assert not unset, f"defaults only tests set: {sorted(unset)}"


def _caught_names(node: ast.AST) -> set[str]:
    """The names of the classes an `except` clause or an isinstance call
    tests against: a name, an attribute or a tuple of them."""
    items = node.elts if isinstance(node, ast.Tuple) else [node]
    return {getattr(n, "id", None) or getattr(n, "attr", None)
            for n in items}


def test_every_exception_class_is_caught_in_the_package():
    # the CLI's exit codes tell a refusal from an abort, so a class that no
    # `except` clause or isinstance call in the package names is one more
    # name for an error that callers already handle alike
    defined, caught = [], set()
    for path in (ROOT / "src" / "nlflow").glob("*.py"):
        module = importlib.import_module(
            "nlflow" if path.stem == "__init__" else f"nlflow.{path.stem}")
        tree = ast.parse(path.read_text())
        defined += [f"{path.stem}.{node.name}" for node in tree.body
                    if isinstance(node, ast.ClassDef) and issubclass(
                        getattr(module, node.name), BaseException)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type:
                caught |= _caught_names(node.type)
            elif isinstance(node, ast.Call) and len(node.args) == 2 and \
                    getattr(node.func, "id", None) == "isinstance":
                caught |= _caught_names(node.args[1])
    assert defined, "no exception class found"
    uncaught = [name for name in defined
                if name.split(".")[1] not in caught]
    assert not uncaught, f"exception classes nothing catches: {uncaught}"
