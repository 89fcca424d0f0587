"""Source hygiene of src/chebring: no unused imports, no unreferenced private code."""

import ast
import functools
import gc
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chebring"


def _used_names(tree: ast.AST) -> set[str]:
    """Every name a tree reads: bare names, attributes and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def _defined_names(stmt: ast.stmt) -> list[str]:
    """Names a module-level statement binds: a function, a class, or the
    plain-name targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    stores = [node for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
    return [node.id for node in stores if isinstance(node.ctx, ast.Store)]


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """Module-level _-prefixed functions, classes and constants (dunders such
    as __all__ excluded) that no statement outside their own definition
    reads, in any of the given modules."""
    statements = [(name, stmt) for name, source in sources.items() for stmt in ast.parse(source).body]
    out = []
    for module, stmt in statements:
        for name in _defined_names(stmt):
            if name.startswith("_") and not name.startswith("__"):
                if not any(name in _used_names(other) for _, other in statements if other is not stmt):
                    out.append(f"{module}.{name}")
    return out


def _library() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_no_unused_imports():
    found = {name: unused_imports(source) for name, source in _library().items() if name != "__init__"}
    assert {name: names for name, names in found.items() if names} == {}


def test_no_unreferenced_private_code():
    assert unreferenced_private(_library()) == []


def test_checks_see_what_they_look_for():
    module = "from functools import cached_property, lru_cache\nimport numpy as np\n\n"
    module += "@lru_cache\ndef f(x):\n    return np.sqrt(x)\n"
    assert unused_imports(module) == ["cached_property"]
    private = "def _used():\n    return 1\n\ndef _dead():\n    return _dead()\n\nclass _Gone:\n    pass\n"
    private += "_TABLE = (2, 3)\n_LIMIT: int = 5\n_DEAD_TABLE = (41, 43)\n__all__ = []\n"
    b = "from .a import _used\n\ndef f(n):\n    return n < a._LIMIT and n in _TABLE\n"
    assert unreferenced_private({"a": private, "b": b}) == ["a._dead", "a._Gone", "a._DEAD_TABLE"]


def test_every_cache_is_module_level(workloads):
    """Each functools cache the package defines is one the benchmark resets
    between ops: a module-level function, or a method of a module-level
    class, listed in perfbench/workloads.CACHES."""
    for path in SRC.glob("*.py"):
        importlib.import_module(f"chebring.{path.stem}" if path.stem != "__init__" else "chebring")
    defined = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, functools._lru_cache_wrapper) and (obj.__module__ or "").split(".")[0] == "chebring"
    ]
    assert {"_legendre_table", "_walk_orders", "_zeta_array"} <= {obj.__qualname__ for obj in defined}
    reachable = {id(cache) for cache in workloads.CACHES}
    assert [obj.__qualname__ for obj in defined if id(obj) not in reachable] == []
