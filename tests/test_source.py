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


#: The modules at the input boundary, where every located error is raised.
BOUNDARY = ("io.py", "manifest.py", "report.py", "cli.py")


def _hand_built_locations(tree: ast.Module) -> list[int]:
    """The line of each ``raise ValidationError(f"{…}:…")``, an f-string that
    opens with a formatted value and then text starting with ``:``, outside
    the function ``_fail``, the one place that writes a location."""
    exempt = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_fail" for node in ast.walk(fn)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and id(node) not in exempt and isinstance(
                node.exc, ast.Call) and isinstance(node.exc.func, ast.Name) and (
                node.exc.func.id == "ValidationError") and node.exc.args:
            text = node.exc.args[0]
            if (isinstance(text, ast.JoinedStr) and len(text.values) > 1
                    and isinstance(text.values[0], ast.FormattedValue)
                    and isinstance(text.values[1], ast.Constant)
                    and str(text.values[1].value).startswith(":")):
                lines.append(node.lineno)
    return lines


def test_every_located_input_error_is_raised_through_io_fail():
    paths = [path for path in SOURCES if path.name in BOUNDARY]
    assert [path.name for path in paths] == sorted(BOUNDARY)
    found = [f"{path.name}:{line}" for path in paths
             for line in _hand_built_locations(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
