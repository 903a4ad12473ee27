"""Shared fixtures for the test suite."""

import os
from pathlib import Path

import pytest

#: Directory holding the committed golden telemetry fixtures.
GOLDEN_DIR = Path(__file__).parent / "golden"


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite the golden telemetry fixtures from the current code "
        "instead of comparing against them",
    )


@pytest.fixture(scope="session")
def regen_golden(request):
    """Whether this run regenerates the golden fixtures."""
    return request.config.getoption("--regen-golden")


@pytest.fixture(scope="session")
def golden_dir():
    """Directory of the committed golden telemetry fixtures."""
    return GOLDEN_DIR


@pytest.fixture(scope="session")
def service_backend():
    """Transport for the study-service tests.

    CI's service job runs the ``-m service`` selection once per transport
    by setting ``SERVICE_BACKEND``: ``serial`` calls the StudyStore
    in-process, ``thread`` goes through a StudyServer + StudyClient over
    HTTP in one process, and ``process`` launches ``repro.cli serve`` as
    a subprocess.  Locally the serial transport keeps the default run
    fast.
    """
    return os.environ.get("SERVICE_BACKEND", "serial")


@pytest.fixture(scope="session")
def chaos_seed():
    """Seed of the deterministic storage-fault stream for chaos tests.

    CI's chaos lane runs the ``-m chaos`` selection over a ``CHAOS_SEED``
    matrix (crossed with the service transports): every seed must leave
    the chaos-driven service bit-identical to its fault-free twin.
    """
    return int(os.environ.get("CHAOS_SEED", "0"))
