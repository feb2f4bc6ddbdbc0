"""The kernel's separated term lists stay inside greenfn.

greenfn states the truncated profiles' terms once and hands the other
modules only whole kernels, time halves and normal derivatives; this
parses every package module and checks that no other module defines,
imports or reaches for the term-list helpers.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fracloc"
TERM_HELPERS = frozenset({"_time_factors", "_gradient_terms", "_value_terms", "_derivative"})
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "greenfn.py")


def _named(tree):
    """(line, name) of every definition, import and attribute in tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.lineno, node.id
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.name.rsplit(".", 1)[-1]
                if alias.asname:
                    yield node.lineno, alias.asname
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr


def test_every_package_module_is_checked():
    names = {p.name for p in MODULES}
    assert {"measure.py", "locate_multi.py", "locate_one.py", "cli.py"} <= names
    assert (PACKAGE / "greenfn.py").exists()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_term_helpers_stay_in_greenfn(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    leaks = [f"{path.name}:{line} {name}" for line, name in _named(tree) if name in TERM_HELPERS]
    assert not leaks
