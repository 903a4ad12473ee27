"""The program's entry points must not import ``scipy.stats``,
``scipy.optimize`` or a process pool.

``scipy.stats`` roughly doubles the set-up import time and adds ~20 MB
to every process that loads it, yet the program only ever needed the
standard normal cdf and pdf (``scipy.special.ndtr`` and one numpy
expression).  ``scipy.optimize`` adds ~17 MB more and is needed only
when a GP fits its hyper-parameters or the NNLS ablation runs, so it is
imported there, on first use.  Nor do they import ``multiprocessing``
or ``concurrent.futures.process``: the evaluation pool trains in-process.
The checks run in a fresh interpreter so that modules the test session
itself loaded cannot mask an import.
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


OPTIMIZE_PROBE = PROBE.replace("['scipy', 'stats']", "['scipy', 'optimize']")


def test_entry_points_do_not_import_scipy_optimize():
    out = subprocess.run(
        [sys.executable, "-c", OPTIMIZE_PROBE.format(src=SRC_DIR)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]", f"scipy.optimize modules loaded: {out.strip()}"


PROCESS_PROBE = PROBE.replace(
    "m.split('.')[:2] == ['scipy', 'stats']",
    "m.split('.')[0] == 'multiprocessing' or m == 'concurrent.futures.process'",
)


def test_entry_points_do_not_import_process_pools():
    out = subprocess.run(
        [sys.executable, "-c", PROCESS_PROBE.format(src=SRC_DIR)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]", f"process-pool modules loaded: {out.strip()}"
