"""Source hygiene: no module of the package imports a name it never uses,
defines a private top-level name it never uses or reads a private name of
another package module, each module imports only the layers below it,
every cache and every module-level mutable container is inventoried, and
every function the benchmark's tracer wraps still exists where it looks
for it."""

import ast
import importlib
from pathlib import Path

import structcode

PACKAGE = Path(structcode.__file__).resolve().parent
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def unused_imports(source):
    """Top-level imported names that the rest of the module never mentions."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def unused_private_names(source):
    """Private top-level names (``_x``, not dunders) the module defines but
    never mentions again."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        defined[n.id] = node.lineno
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items()
                  if name.startswith("_") and not name.startswith("__")
                  and name not in used)


def test_unused_imports_detected():
    src = "import os\nfrom x import a, b as c\nfrom __future__ import annotations\nc()\n"
    assert unused_imports(src) == [(1, "os"), (2, "a")]


def test_package_has_no_unused_imports():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def test_unused_private_names_detected():
    src = ("_A = 1\n_B = 2\n__all__ = []\n"
           "def _f():\n    return _B\n"
           "class _C:\n    pass\n"
           "def g():\n    return _f()\n")
    assert unused_private_names(src) == [(1, "_A"), (6, "_C")]


def test_package_has_no_unused_private_names():
    found = {path.name: unused_private_names(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _package_module(node):
    """The package module an ``ImportFrom`` reads from, "structcode" for
    the package itself, or None for another package's."""
    if node.level:
        return node.module or "structcode"
    module = node.module or ""
    if module == "structcode" or module.startswith("structcode."):
        return module.split(".")[-1]
    return None


def private_reads(source):
    """(line, module, name) for each private name (``_x``, not dunders) of
    another package module that a module imports, or reads as an attribute
    of a package module it imported by name."""
    tree = ast.parse(source)
    modules, found = {}, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = _package_module(node)
        for alias in node.names if module else ():
            if module == "structcode":
                modules[alias.asname or alias.name] = alias.name
            if _is_private(alias.name):
                found.append((node.lineno, module, alias.name))
    found += [(node.lineno, modules[node.value.id], node.attr)
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and _is_private(node.attr)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules]
    return sorted(found)


def test_private_reads_detected():
    src = ("from .core import _a, b\nfrom . import formats as f\n"
           "from structcode.marker import _d\nimport os\n"
           "from os import _exit\n"
           "def g():\n    f._c()\n    self._e\n    b._g\n    f.__doc__\n")
    assert private_reads(src) == [(1, "core", "_a"), (3, "marker", "_d"),
                                  (7, "formats", "_c")]


def test_package_reads_no_private_names_of_other_modules():
    found = {path.name: private_reads(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


# module -> the package modules it may import; None for any
LAYERS = {
    "__init__": set(),
    "core": set(),
    "denseq": {"core"},
    "marker": {"core"},
    "backforth": {"core"},
    "codings": {"core", "denseq"},
    "fslin": {"core", "denseq", "backforth"},
    "interp": {"core", "marker"},
    "formats": {"core", "denseq", "interp"},
    "cli": None,
}


def package_imports(source):
    """The package modules a module imports anywhere in its body."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module
                         else [alias.name for alias in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) \
                else [alias.name for alias in node.names]
            found.update(n.split(".")[1] for n in names
                         if n.startswith("structcode."))
    return found


def test_modules_import_only_lower_layers():
    src = ("from . import formats\nfrom .core import x\n"
           "def f():\n    from .fslin import y\n"
           "import structcode.marker\nimport os\n")
    assert package_imports(src) == {"formats", "core", "fslin", "marker"}
    found = {path.stem: package_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert set(found) == set(LAYERS)
    assert {name: sorted(mods - LAYERS[name]) for name, mods in found.items()
            if LAYERS[name] is not None and not mods <= LAYERS[name]} == {}


# module -> {function: maxsize} for every functools cache in the package.
# A cache is kept only for traffic that pays for it: adding, removing or
# resizing one is an edit here, with its measured reason in CHANGES.md.
CACHES = {
    "backforth": {"_move_formula": 512, "_literals": 256},
    "core": {"_values_of": 1024, "_shared": 4096, "atom_places": 256},
}


def _cache_kind(node):
    """``"lru_cache"`` or ``"cache"`` when an expression names one of them,
    by name or as an attribute, else None."""
    name = node.attr if isinstance(node, ast.Attribute) else \
        getattr(node, "id", None)
    return name if name in ("lru_cache", "cache") else None


def caches(source):
    """{function: maxsize} for each function decorated with a functools
    cache: None when unbounded, 128 for a bare ``lru_cache``.  A cache made
    by a call anywhere else is listed as ``"line N"`` with maxsize "?"."""
    found, decorating = {}, set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            func = dec.func if isinstance(dec, ast.Call) else dec
            kind = _cache_kind(func)
            if kind is None:
                continue
            decorating.add(dec)
            if dec is func:
                found[node.name] = 128 if kind == "lru_cache" else None
            else:
                given = [k.value for k in dec.keywords if k.arg == "maxsize"]
                given += dec.args
                found[node.name] = ast.literal_eval(given[0]) if given else 128
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _cache_kind(node.func) and \
                node not in decorating:
            found[f"line {node.lineno}"] = "?"
    return found


def test_caches_detected():
    src = ("import functools\nfrom functools import lru_cache, cache\n"
           "@functools.lru_cache(maxsize=8)\ndef _a(x):\n    return x\n"
           "@lru_cache(16)\ndef b(x):\n    return x\n"
           "@functools.lru_cache\ndef c(x):\n    return x\n"
           "@cache\ndef d(x):\n    return x\n"
           "class K:\n    @functools.lru_cache(maxsize=None)\n"
           "    def e(self):\n        return 1\n"
           "f = functools.lru_cache(maxsize=4)(len)\n")
    assert caches(src) == {"_a": 8, "b": 16, "c": 128, "d": None, "e": None,
                           "line 19": "?"}


def test_caches_are_inventoried():
    found = {path.stem: caches(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == CACHES


# module -> the names it binds at its top level to a mutable container.
# Each is a constant table; a memo or a reference count kept at module level
# would outlive the calls that fill it, so adding one is an edit here, with
# its reason in CHANGES.md.
CONTAINERS = {
    "cli": {"HANDLERS"},
    "core": {"_SPLICED"},
}

_CONTAINER_CALLS = ("dict", "set", "list", "Counter", "defaultdict",
                    "OrderedDict")


def _is_container(node):
    """Whether an expression makes a dict, set or list: a display, a
    comprehension, or a call of one of ``_CONTAINER_CALLS``, by name or as
    an attribute."""
    if isinstance(node, (ast.Dict, ast.Set, ast.List, ast.DictComp,
                         ast.SetComp, ast.ListComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        return name in _CONTAINER_CALLS
    return False


def module_containers(source):
    """The names a module binds, in a statement at its top level, to a
    mutable container (see ``_is_container``)."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if _is_container(node.value):
            found.update(n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name))
    return found


def test_module_containers_detected():
    src = ("import collections\nfrom collections import Counter\n"
           "_memo = {}\n_seen = set()\n_refs = Counter()\n"
           "_parents = collections.defaultdict(int)\nA = B = []\n"
           "_table: dict = {k: k for k in 'ab'}\n"
           "KEEP = (1, 2)\nNAMES = frozenset({'a'})\n"
           "def f():\n    local = {}\n    return local\n"
           "class K:\n    attr = []\n")
    assert module_containers(src) == {"_memo", "_seen", "_refs", "_parents",
                                      "A", "B", "_table"}


def test_module_containers_are_inventoried():
    found = {path.stem: module_containers(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == CONTAINERS


def test_traced_targets_resolve():
    # the tracer's tables are literals: read them without running the file
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in ast.parse(TRACING.read_text(encoding="utf-8")).body
              if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("SPANS", "COUNTERS")}
    targets = [t[:3] for t in tables["SPANS"].values()]
    targets += list(tables["COUNTERS"].values())
    missing = []
    for mod, cls, attr in targets:
        module = importlib.import_module(mod)
        if cls is None:
            found = callable(getattr(module, attr, None))
        else:
            # the tracer swaps methods in the owning class's own __dict__,
            # so a method moved to a base class or a helper breaks it
            owner = getattr(module, cls, None)
            found = owner is not None and attr in vars(owner)
        if not found:
            missing.append((mod, cls, attr))
    assert targets and missing == []
