"""The package root exports every name the demos and the README import,
every name the benchmark traces still resolves, and every public name of
the library has a caller outside the tests."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

import hlpaths

ROOT = Path(__file__).resolve().parents[1]


def names_imported_from_hlpaths(source: str) -> list[str]:
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "hlpaths"
        for alias in node.names
    ]


def test_public_names_exist():
    assert len(set(hlpaths.__all__)) == len(hlpaths.__all__)
    for name in hlpaths.__all__:
        assert hasattr(hlpaths, name), name


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_imports_are_public(demo):
    names = names_imported_from_hlpaths(demo.read_text(encoding="utf-8"))
    assert names
    assert set(names) <= set(hlpaths.__all__)


def test_readme_imports_are_public():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    names = [
        name
        for block in re.findall(r"```python\n(.*?)```", readme, re.S)
        for name in names_imported_from_hlpaths(block)
    ]
    assert names
    assert set(names) <= set(hlpaths.__all__)


def _hooks(tree):
    """The (module, attribute) pairs of a module's ``HOOKS`` assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets
        ):
            return [(hook.elts[0].value, hook.elts[1].value) for hook in node.value.elts]
    return []


def test_traced_names_resolve():
    """Every (module, attribute) the benchmark's tracer wraps still exists,
    so a refactor cannot silently drop a per-layer span."""
    tracing = ROOT / "bench" / "tracing.py"
    if not tracing.exists():
        pytest.skip("bench/tracing.py is absent")
    names = _hooks(ast.parse(tracing.read_text(encoding="utf-8")))
    assert names
    for module, attribute in names:
        target = importlib.import_module(module)
        for part in attribute.split("."):
            assert hasattr(target, part), f"{module}.{attribute}"
            target = getattr(target, part)


def _references(node):
    """Names and attribute names read under ``node``; strings, docstrings
    included, are no reference."""
    names, attributes = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attributes[sub.attr] += 1
    return names, attributes


def _public_definitions(tree):
    """(name, is_method, node) for every public module-level function and
    class, and every public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, False, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield sub.name, True, sub


def unreferenced_public_names(root):
    """The public names of ``src/hlpaths`` that no code outside the tests
    reads: not another place in the library, not a demo, not a script
    under ``bench/`` (whose tracer ``HOOKS`` count) and not a Python block
    of the README. A bare name counts only in a file that defines it or
    imports it from ``hlpaths``; an attribute counts anywhere."""
    units = {path: ast.parse(path.read_text(encoding="utf-8"))
             for pattern in ("src/hlpaths/*.py", "demos/*.py", "bench/*.py")
             for path in sorted(root.glob(pattern))}
    readme = (root / "README.md").read_text(encoding="utf-8")
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        units[f"README block {i}"] = ast.parse(block)
    hooked = {part for tree in units.values() for _, attribute in _hooks(tree)
              for part in attribute.split(".")}
    reads = {}
    for unit, tree in units.items():
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "hlpaths")
            for alias in node.names
        }
        reads[unit] = (imported, *_references(tree))
    missing = []
    for path in sorted((root / "src" / "hlpaths").glob("*.py")):
        for name, is_method, node in _public_definitions(units[path]):
            own_names, own_attributes = _references(node)
            def read_in(unit):
                imported, names, attributes = reads[unit]
                here = unit == path
                n_attributes = attributes[name] - (own_attributes[name] if here else 0)
                n_names = names[name] - (own_names[name] if here else 0)
                bare = not is_method and (here or name in imported)
                return n_attributes > 0 or (bare and n_names > 0)
            if name not in hooked and not any(map(read_in, units)):
                missing.append(f"{path.stem}: {name}")
    return missing


def test_every_public_name_has_a_caller():
    """Library code that only the tests call is surface without a user:
    delete it, or make it private when the library needs it."""
    assert unreferenced_public_names(ROOT) == []
