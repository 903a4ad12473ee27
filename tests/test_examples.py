"""Smoke tests for the example scripts (opt-in — each takes seconds to a
minute of CPU).

Set ``REPRO_RUN_EXAMPLES=1`` to run every script in ``examples/`` in a
subprocess and check it exits cleanly with plausible output.  Tier-1
skips them; CI's ``examples`` job opts in for every script except
``reproduce_paper.py``, so an example that imports a removed name fails
there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_RUN_EXAMPLES") != "1",
    reason="set REPRO_RUN_EXAMPLES=1 to smoke-run the example scripts",
)

#: Script name -> fragment its stdout must contain.
EXPECTED_OUTPUT = {
    "quickstart.py": "best test error",
    "power_model_training.py": "a-priori check",
    "constrained_search_cifar10.py": "more samples in the same budget",
    "embedded_tx1.py": "iso-power accuracy improvement",
    "method_comparison.py": "best-error trajectory",
    "latency_constrained.py": "all three budgets satisfied",
    "imagenet_future_work.py": "GPU-days",
    "serve_study.py": "bit-exact after restart",
    "multifidelity_rungs.py": "more configurations in the same simulated budget",
}


def test_every_example_is_listed():
    scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    # reproduce_paper.py is exercised separately (it takes minutes).
    assert scripts - {"reproduce_paper.py"} == set(EXPECTED_OUTPUT)


@pytest.mark.parametrize("script", sorted(EXPECTED_OUTPUT))
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert EXPECTED_OUTPUT[script] in completed.stdout


def test_reproduce_paper_tiny(tmp_path):
    completed = subprocess.run(
        [
            sys.executable,
            str(EXAMPLES_DIR / "reproduce_paper.py"),
            "--scale", "0.05",
            "--repeats", "1",
            "--out", str(tmp_path / "artifacts"),
        ],
        capture_output=True,
        text=True,
        timeout=1800,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    produced = {p.name for p in (tmp_path / "artifacts").glob("*.txt")}
    assert {"table1.txt", "table2.txt", "headlines.txt"} <= produced
