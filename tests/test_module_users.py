"""Every module under ``src/repro`` has a user outside the test suite.

A module is used when the import graph reaches it from a root: the
command line (``repro.cli``), any script under ``benchmarks/`` or any
file under ``perfbench/``.  Tests, examples and docs are not roots, so a
module that only its own tests exercise is named here.

How the walk counts a use:

* ``import a.b`` and ``from a import b`` (absolute or relative) use the
  module they name.
* ``from pkg import name`` uses the module that *defines* ``name``,
  following the package's re-exports; a package ``__init__`` importing a
  module does not by itself count as a use of it.
* A string literal equal to a ``repro.*`` module name counts as an import
  of it (perfbench's tracer loads its hook sites with ``importlib``).
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
ROOT_DIRS = ("benchmarks", "perfbench")


def _module_files() -> dict[str, Path]:
    files = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


MODULES = _module_files()
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


@lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _absolute(module: str | None, level: int, here: str | None) -> str | None:
    """The module an ``ImportFrom`` names, seen from module ``here``."""
    if level == 0:
        return module
    if here is None:  # a relative import in a script outside the package
        return None
    package = here if here in PACKAGES else here.rpartition(".")[0]
    for _ in range(level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{module}" if module else package


def _defining_module(source: str, name: str) -> str | None:
    """The module ``from source import name`` loads ``name`` from."""
    if f"{source}.{name}" in MODULES:
        return f"{source}.{name}"
    if source not in PACKAGES:
        return source if source in MODULES else None
    for node in ast.walk(_parse(MODULES[source])):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    origin = _absolute(node.module, node.level, source)
                    return _defining_module(origin, alias.name)
    return None  # defined in the package body itself


def _uses(here: str | None, path: Path) -> set[str]:
    """The non-package ``repro`` modules the file at ``path`` uses."""
    used = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(node.module, node.level, here)
            if source is not None:
                used.update(_defining_module(source, a.name) for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return {name for name in used if name in MODULES and name not in PACKAGES}


def reached_modules() -> set[str]:
    """Every non-package module the roots reach, the roots included."""
    frontier = ["repro.cli"]
    for directory in ROOT_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            frontier.extend(_uses(None, path))
    reached: set[str] = set()
    while frontier:
        module = frontier.pop()
        if module not in reached:
            reached.add(module)
            frontier.extend(_uses(module, MODULES[module]))
    return reached


def test_every_module_has_a_user():
    unreached = sorted(set(MODULES) - PACKAGES - reached_modules())
    assert not unreached, (
        "no CLI command, benchmark or perfbench workload reaches "
        + ", ".join(unreached)
    )
