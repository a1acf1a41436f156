"""Checks on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ispflow"


def test_package_has_no_assert_statements():
    """python -O strips assert statements, so a check on a result must
    raise instead."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_are_used():
    """Every name a module imports is used in that module; __init__.py
    imports to re-export, so it is left out."""
    modules = sorted(p for p in PACKAGE.glob("*.py")
                     if p.name != "__init__.py")
    assert modules, f"no modules under {PACKAGE}"
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_package_private_names_are_used():
    """Every single-underscore module-level function, class or constant
    is referenced somewhere in the package, so a helper left behind by a
    refactor is caught."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert trees, f"no modules under {PACKAGE}"
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{name}:{node.lineno} {d}" for d in defined
                       if d.startswith("_") and not d.startswith("__")
                       and d not in used]
    assert unused == []


def test_golden_is_imported_only_where_pinned():
    """The published tables are test references: the library reads them
    only in ``coeffs --check`` and in the closed-form sector evaluator,
    each inside the function, so importing the package never builds
    them."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(node.name, node) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if not any(n.rpartition(".")[2] == "golden" for n in names):
                continue
            owner = [name for name, fn in scopes
                     if fn.lineno <= node.lineno <= fn.end_lineno]
            found.add(f"{path.stem}.{owner[-1] if owner else '<module>'}")
    assert found == {"cli.cmd_coeffs"}


def test_library_makes_no_series_composition():
    """The exact derivations come from closed forms, so no module calls
    ``substitute_var``; series composition is left to the tests' plug-back
    oracles."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "substitute_var"]
    assert found == []
