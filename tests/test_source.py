"""Source hygiene of src/chebring: no unused imports, no unreferenced private code."""

import ast
import functools
import gc
import importlib
from pathlib import Path

import numpy as np
import pytest

from chebring import expsum, structure
from chebring.structure import CYCLOTOMIC_CAP, ResourceLimitError

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


def array_data(value) -> bool:
    """Is a cached value one complex, or read-only numeric ndarrays (one, or a
    tuple of them), never a Python container of ints nor an object array?"""
    if isinstance(value, complex):
        return True
    arrays = value if isinstance(value, tuple) else (value,)
    return all(isinstance(x, np.ndarray) and x.dtype != object and not x.flags.writeable for x in arrays)


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
    frozen, boxed = np.arange(3), np.arange(3).astype(object)
    frozen.setflags(write=False)
    boxed.setflags(write=False)
    assert array_data(frozen) and array_data((frozen, frozen)) and array_data(1j)
    for mixed in ({0: 4}, (0, 2), (frozen, (0, 2)), np.arange(3), boxed):
        assert not array_data(mixed)


def test_per_prime_caches_hold_arrays():
    """A set at one prime has one representation: each per-prime cache holds
    read-only arrays over [0, p) or R_p, or the one complex of the Weil sum."""
    per_prime = (structure._legendre_table, structure._r_characters, structure._walk_orders)
    for cache in (*per_prime, expsum._zeta_array, expsum.weil_sum):
        assert array_data(cache(101)), cache.__qualname__


def _package_caches() -> list:
    """Every functools cache a module of the package defines."""
    for path in SRC.glob("*.py"):
        importlib.import_module(f"chebring.{path.stem}" if path.stem != "__init__" else "chebring")
    return [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, functools._lru_cache_wrapper) and (obj.__module__ or "").split(".")[0] == "chebring"
    ]


def test_every_cache_is_module_level(workloads):
    """Each functools cache the package defines is one the benchmark resets
    between ops: a module-level function, or a method of a module-level
    class, listed in perfbench/workloads.CACHES."""
    defined = _package_caches()
    per_prime = {"_legendre_table", "_r_characters", "_walk_orders", "_zeta_array", "weil_sum"}
    assert per_prime <= {obj.__qualname__ for obj in defined}
    reachable = {id(cache) for cache in workloads.CACHES}
    assert [obj.__qualname__ for obj in defined if id(obj) not in reachable] == []


def test_every_cache_is_bounded():
    """Each cache keeps a finite number of entries, but _cyclotomic_coeffs,
    whose keys stop at CYCLOTOMIC_CAP, as it refuses any index past it."""
    sizes = {obj.__qualname__: obj.cache_parameters()["maxsize"] for obj in _package_caches()}
    assert {"_walk_orders", "_is_odd_prime", "_cyclotomic_coeffs"} <= set(sizes)
    assert sizes.pop("_cyclotomic_coeffs") is None
    assert {name: size for name, size in sizes.items() if size is None} == {}
    with pytest.raises(ResourceLimitError):
        structure._cyclotomic_coeffs(CYCLOTOMIC_CAP + 1)
