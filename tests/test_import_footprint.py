"""The program's entry points must not import ``scipy.stats``.

``scipy.stats`` roughly doubles the set-up import time and adds ~20 MB
to every process that loads it, yet the program only ever needed the
standard normal cdf and pdf (``scipy.special.ndtr`` and one numpy
expression).  The check runs in a fresh interpreter so that modules the
test session itself loaded cannot mask an import.
"""

import subprocess
import sys
from pathlib import Path

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

PROBE = """
import sys
sys.path.insert(0, {src!r})
import repro.cli
import repro.experiments.setup
import repro.service.server
loaded = sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats'])
print(loaded)
"""


def test_entry_points_do_not_import_scipy_stats():
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(src=SRC_DIR)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]", f"scipy.stats modules loaded: {out.strip()}"
