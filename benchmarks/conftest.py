"""Pytest configuration for the benchmark suite.

The shared scale/result helpers live in ``_config.py`` (imported directly by
the benchmark modules); this conftest makes sure the results directory
exists before any benchmark writes to it and shares the test suite's
per-slot availability oracle (``perslot_oracle``).
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tests.oracle import perslot_oracle  # noqa: E402,F401  (shared fixture)

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session", autouse=True)
def _ensure_results_dir():
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    yield
