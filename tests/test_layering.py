"""Each rule of the pipeline stays inside the module that owns it.

greenfn states the truncated profiles' terms once and hands the other
modules only whole kernels, time halves and normal derivatives;
locate_multi alone turns select_truncation's count into a truncation
level; mesh alone constructs a Mesh, whose boundary loop it derives.
An inclusion set's per-triangle conductivity (gamma_of_tag) reaches
only the march in forward, and the mesh's arc weights only the boundary
quadratures in forward and measure.  Threads start in one place only:
forward.side_by_side alone reaches for a ThreadPoolExecutor (the march,
the forward command's writer and locate-multi's kernel rows all start
their workers through it), and no module names threading.  A worker
computes under its caller's floating-point state (side_by_side), so
np.errstate is named in three functions only: cli.main,
forward.side_by_side, and measure._contract, which refuses a
measurement that is not finite also outside the CLI.  This parses every
package module and checks that no other module defines, imports or
reaches for what its owners own.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fracloc"
TERM_HELPERS = frozenset({"_time_factors", "_gradient_terms", "_value_terms", "_derivative"})
PACKAGE_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in PACKAGE_MODULES if p.name != "greenfn.py"]


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


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


def _referenced(tree):
    """(line, name) of every name in tree, also the names it reads."""
    yield from _named(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.lineno, node.id


def _constructed(tree):
    """(line, name) of every called name or attribute in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield node.lineno, func.id
            elif isinstance(func, ast.Attribute):
                yield node.lineno, func.attr


def test_every_package_module_is_checked():
    names = {p.name for p in MODULES}
    assert {"measure.py", "locate_multi.py", "locate_one.py", "cli.py"} <= names
    assert (PACKAGE / "greenfn.py").exists()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_term_helpers_stay_in_greenfn(path):
    leaks = [f"{path.name}:{line} {name}" for line, name in _named(_parse(path)) if name in TERM_HELPERS]
    assert not leaks


@pytest.mark.parametrize(
    "owners, name, find",
    [
        ({"locate_multi.py"}, "select_truncation", _referenced),
        ({"mesh.py"}, "Mesh", _constructed),
        ({"mesh.py", "forward.py"}, "gamma_of_tag", _referenced),
        ({"mesh.py", "forward.py"}, "arc_weights", _referenced),
        ({"forward.py"}, "ThreadPoolExecutor", _referenced),
        (set(), "threading", _referenced),
    ],
    ids=["select_truncation", "Mesh", "gamma_of_tag", "arc_weights", "ThreadPoolExecutor", "threading"],
)
def test_only_the_owner_reaches_for_its_rule(owners, name, find):
    for owner in owners:
        assert any(n == name for _, n in find(_parse(PACKAGE / owner)))
    leaks = [
        f"{path.name}:{line}"
        for path in PACKAGE_MODULES
        if path.name not in owners
        for line, n in find(_parse(path))
        if n == name
    ]
    assert not leaks


def _sites(tree, scope, name):
    """The qualified name of the innermost function or class around each
    use of name in tree; a decorator counts as its function's."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}"
        if getattr(node, "attr", None) == name or getattr(node, "id", None) == name:
            yield scope
        yield from _sites(node, inner, name)


def _package_sites(name):
    return sorted(site for path in PACKAGE_MODULES for site in _sites(_parse(path), path.stem, name))


def test_only_side_by_side_starts_threads():
    assert _package_sites("ThreadPoolExecutor") == ["forward.side_by_side"]


def test_errstate_is_set_in_main_side_by_side_and_contract_only():
    assert _package_sites("errstate") == ["cli.main", "forward.side_by_side", "measure._contract"]
