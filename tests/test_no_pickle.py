"""No module under ``src/`` imports a deserialiser that can run code.

Durable state — run journals and service studies, compacted or not — is
JSON, so resuming a run or loading a store root never executes what a
file on disk says.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

FORBIDDEN = {"pickle", "marshal", "shelve"}


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_src_imports_no_pickle_marshal_or_shelve():
    found = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if name.split(".")[0] in FORBIDDEN
    ]
    assert found == []
