import ast
import os
import subprocess
import sys
from pathlib import Path

import quartic_census

SRC = Path(quartic_census.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: (module, name) pairs imported on purpose without being used
ALLOWED_UNUSED = {
    # perfbench/tracer.py times the factorization by wrapping census.factorize
    ("census", "factorize"),
}

#: (module, name) private helpers kept on purpose without a caller in src/
ALLOWED_UNCALLED: set[tuple[str, str]] = set()


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


def _module_level_imports(path: Path) -> list[str]:
    """'file:line package' for every absolute import at module level, that
    is outside every function and class."""
    tree = ast.parse(path.read_text())
    module, imports = _scopes(tree)[-1]
    assert module is tree
    out = []
    for node in imports:
        if isinstance(node, ast.ImportFrom):
            names = [node.module] if node.level == 0 else []
        else:
            names = [alias.name for alias in node.names]
        out += [f"{path.name}:{node.lineno} {name.split('.')[0]}" for name in names]
    return out


def test_no_module_level_scipy():
    # only the quadrature routes of asymptotics use scipy; imported at module
    # level it would load with every census run
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 11
    assert [i for p in files for i in _module_level_imports(p) if i.endswith(" scipy")] == []


def test_module_level_import_scan(tmp_path):
    # the scan itself: plain, dotted, aliased and from-imports at module
    # level, also inside a try; relative and function-local imports left out
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import os.path, numpy as np\n"
        "from scipy.integrate import quad\n"
        "from . import sibling\n"
        "try:\n"
        "    import scipy\n"
        "except ImportError:\n"
        "    pass\n"
        "def f():\n"
        "    from scipy import special\n"
        "    return special\n"
    )
    assert _module_level_imports(mod) == ["mod.py:1 os", "mod.py:1 numpy", "mod.py:2 scipy", "mod.py:5 scipy"]


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


def test_benchmark_tracer_installs():
    # perfbench/tracer.py wraps engine functions and methods by name, so a
    # rename or a deletion in src/ must fail here, not only in a traced
    # benchmark run; in a fresh interpreter, as install() patches modules.
    # A traced 2-shard census must hand back the span of its forked shard,
    # whose id carries the child's pid
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PERFBENCH), str(SRC.parent), env.get("PYTHONPATH")]))
    code = (
        "import os, tracer\n"
        "t = tracer.install()\n"
        "from quartic_census import census\n"
        "census.run_census(census.CensusConfig(x=20000, shards=2, emit=True))\n"
        "pids = {s[0] >> 32 for s in t.spans if s[2] == 'census.shard'}\n"
        "assert pids and os.getpid() not in pids, pids\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
