"""Shared fixtures: the benchmark's workload module, whose CACHES lists every
functools cache of the package, and a cold start for tests that count or
corrupt the work those caches would otherwise skip."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="session")
def workloads():
    """perfbench/workloads.py: its CACHES is the one scan for the package's
    caches, the list its clear_caches resets before every benchmark op."""
    if "workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
        sys.modules["workloads"] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["workloads"]


@pytest.fixture
def cold_caches(workloads) -> None:
    """Empty every cache of the package, counters included, before the test."""
    workloads.clear_caches()
