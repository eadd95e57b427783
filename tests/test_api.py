"""The package root exports every name the demos and the README import, and
every name the benchmark traces still resolves."""

import ast
import importlib
import re
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


def test_traced_names_resolve():
    """Every (module, attribute) the benchmark's tracer wraps still exists,
    so a refactor cannot silently drop a per-layer span."""
    tracing = ROOT / "bench" / "tracing.py"
    if not tracing.exists():
        pytest.skip("bench/tracing.py is absent")
    hooks = next(
        node.value
        for node in ast.parse(tracing.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets)
    )
    names = [(hook.elts[0].value, hook.elts[1].value) for hook in hooks.elts]
    assert names
    for module, attribute in names:
        target = importlib.import_module(module)
        for part in attribute.split("."):
            assert hasattr(target, part), f"{module}.{attribute}"
            target = getattr(target, part)
