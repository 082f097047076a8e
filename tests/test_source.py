"""Checks on the package source itself, run without a linter."""

import ast

from conftest import REPO_ROOT

SOURCES = sorted((REPO_ROOT / "src" / "hcimpact").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """``(line, name)`` of each name a module imports and never references;
    a name listed in its ``__all__`` counts as referenced."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    assert SOURCES
    unused = [f"{path.name}:{line}: {name}" for path in SOURCES
              for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert unused == []
