"""Shared fixtures: the benchmark's workload module, whose CACHES lists every
functools cache of the package, a cold start for tests that count or
corrupt the work those caches would otherwise skip, and the three-term
recurrence for T_n(x + shift), the oracle of the exact polynomials."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from chebring.structure import IntPolynomial

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


def _chebyshev_t_recurrence(n: int, shift: int = 0) -> IntPolynomial:
    """T_n(x + shift) over the integers by T_{k+1} = 2(x + shift) T_k - T_{k-1},
    dense O(n^2): independent of the closed-form coefficients under test."""
    # Start from T_{-1} = T_1 = x + shift and T_0 = 1, so that n steps give T_n.
    prev = np.zeros(n + 2, dtype=object)
    prev[0], prev[1] = shift, 1
    cur = np.zeros(n + 2, dtype=object)
    cur[0] = 1
    two_shift = 2 * shift
    for _ in range(n):
        nxt = np.zeros(n + 2, dtype=object)
        nxt[1:] = 2 * cur[:-1]
        if two_shift:
            nxt += two_shift * cur
        nxt -= prev
        prev, cur = cur, nxt
    return IntPolynomial.of(cur.tolist())


@pytest.fixture(scope="session")
def chebyshev_recurrence():
    """The exact T_n(x + shift) by the three-term recurrence."""
    return _chebyshev_t_recurrence
