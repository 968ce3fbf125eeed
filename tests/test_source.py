import ast
from pathlib import Path

import quartic_census

SRC = Path(quartic_census.__file__).parent

#: (module, name) pairs imported on purpose without being used
ALLOWED_UNUSED = {
    # perfbench/tracer.py times the factorization by wrapping census.factorize
    ("census", "factorize"),
}

#: (module, name) private helpers kept on purpose without a caller in src/
ALLOWED_UNCALLED = {
    # the row HNF is the reference tests/test_order_oracle.py checks the
    # radical basis against
    ("order_oracle", "_hnf_rows"),
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


def _referenced(node) -> set[str]:
    """Names a statement refers to: bare names, attributes and imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def _dead_helpers(files) -> list[str]:
    """Top-level _-prefixed functions that no top-level statement of the
    given files refers to, other than their own definition."""
    stmts = [(p, node) for p in files for node in ast.parse(p.read_text()).body]
    refs = [(node, _referenced(node)) for _, node in stmts]
    dead = []
    for p, node in stmts:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = node.name
        if not name.startswith("_") or name.startswith("__"):
            continue
        if (p.stem, name) in ALLOWED_UNCALLED:
            continue
        if not any(name in used for other, used in refs if other is not node):
            dead.append(f"{p.name} {name}")
    return dead


def test_no_dead_helpers():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 11
    assert _dead_helpers(files) == []


def test_dead_helper_scan(tmp_path):
    # the scan itself: callers by name, attribute and import, in the same or
    # another module; a helper that only calls itself is still dead, and
    # methods are not scanned
    (tmp_path / "a.py").write_text(
        "def _by_name():\n    return 1\n"
        "def _by_import():\n    return 2\n"
        "def _by_attr():\n    return 3\n"
        "def _dead():\n    return 4\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
        "class K:\n    def _method(self):\n        return _by_name()\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "from .a import _by_import\n"
        "def public():\n    return a._by_attr() + _by_import()\n"
    )
    files = sorted(tmp_path.glob("*.py"))
    assert _dead_helpers(files) == ["a.py _dead", "a.py _recursive"]
