#!/usr/bin/env python
"""Zero-dependency line-coverage estimator for the test suite.

CI measures coverage properly with ``coverage.py`` (see the ``coverage``
job in ``.github/workflows/ci.yml``); this tool exists for environments
where that package is not installable.  It traces the test run with
``sys.settrace`` and ``threading.settrace``, so code that runs on threads
the tests start (an in-process ``StudyServer``) counts too; subprocesses
are not traced.  It records which
lines of ``src/repro`` execute and divides by the executable-line count
derived from each module's compiled code objects (``co_lines``), which is
the same line universe coverage.py uses.  Expect agreement within a
couple of points — decorators and module-level constants are attributed
slightly differently.

Usage::

    PYTHONPATH=src python tools/measure_coverage.py [pytest args...]

e.g. ``python tools/measure_coverage.py -m "not slow" -q``.  Prints a
per-file table plus the total, and exits non-zero if pytest failed.
"""

from __future__ import annotations

import dis
import sys
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"


def executable_lines(path: Path) -> set[int]:
    """Line numbers coverage.py would consider executable, via co_lines."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        for const in obj.co_consts:
            if hasattr(const, "co_lines"):
                stack.append(const)
        for _, _, lineno in obj.co_lines():
            if lineno is not None:
                lines.add(lineno)
    return lines


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(SRC_ROOT)
    executed: dict[str, set[int]] = {}

    def local_trace(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local_trace

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set())
        return local_trace

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        status = pytest.main(argv or ["-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    rows = []
    total_hit = total_lines = 0
    for path in sorted(SRC_ROOT.rglob("*.py")):
        lines = executable_lines(path)
        if not lines:
            continue
        hit = len(lines & executed.get(str(path), set()))
        total_hit += hit
        total_lines += len(lines)
        rows.append((path.relative_to(REPO_ROOT), hit, len(lines)))

    width = max(len(str(name)) for name, _, _ in rows)
    for name, hit, n in rows:
        print(f"{str(name):<{width}}  {hit:5d}/{n:<5d}  {100 * hit / n:6.1f}%")
    print("-" * (width + 22))
    print(
        f"{'TOTAL':<{width}}  {total_hit:5d}/{total_lines:<5d}  "
        f"{100 * total_hit / total_lines:6.1f}%"
    )
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
