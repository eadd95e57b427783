"""The package root exports every name the demos and the README import."""

import ast
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
