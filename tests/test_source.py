import ast
from pathlib import Path

import quartic_census

SRC = Path(quartic_census.__file__).parent

#: (module, name) pairs imported on purpose without being used
ALLOWED_UNUSED = {
    # perfbench/tracer.py times the factorization by wrapping census.factorize
    ("census", "factorize"),
}


def _scopes(tree):
    """The module and every function or class in it, each with the import
    nodes directly in it (not in a nested scope)."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []

    def walk(scope, node, imports):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, kinds):
                inner = []
                walk(child, child, inner)
                out.append((child, inner))
            else:
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    imports.append(child)
                walk(scope, child, imports)

    top = []
    walk(tree, tree, top)
    out.append((tree, top))
    return out


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    unused = []
    for scope, imports in _scopes(tree):
        # a name counts as used anywhere in its scope, nested scopes included
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for node in imports:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and (path.stem, name) not in ALLOWED_UNUSED:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_no_unused_imports():
    # __init__.py imports are the package's exports, so it is left out
    files = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(files) >= 10
    assert [u for p in files for u in _unused_imports(p)] == []


def test_unused_import_scan_sees_local_imports(tmp_path):
    # the scan itself: module-level and function-local imports, aliases and
    # dotted names, used or not
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import os.path\n"
        "import sys as system\n"
        "from math import gcd, isqrt\n"
        "def f():\n"
        "    from json import dumps, loads\n"
        "    return dumps(gcd(os.path.sep, 1))\n"
        "def g():\n"
        "    return loads\n"
    )
    assert sorted(_unused_imports(mod)) == ["mod.py:2 system", "mod.py:3 isqrt", "mod.py:5 loads"]
