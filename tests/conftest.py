"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.core import (
    CDAG,
    chain_cdag,
    diamond_cdag,
    outer_product_cdag,
    reduction_tree_cdag,
)
from repro.machine import CRAY_XT5, IBM_BGQ


def make_random_dag(seed: int, n: int, extra_edge_prob: float = 0.15) -> CDAG:
    """A seeded random connected DAG on ``n`` vertices; sources are
    tagged input, sinks output (valid under flexible RBW tagging).
    Shared by the scheduler- and move-log-equivalence suites via the
    ``random_dag`` fixture."""
    rng = np.random.default_rng(seed)
    edges = set()
    for j in range(1, n):
        edges.add((int(rng.integers(0, j)), j))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < extra_edge_prob:
                edges.add((i, j))
    edge_list = sorted(edges)
    has_pred = {j for _, j in edge_list}
    has_succ = {i for i, _ in edge_list}
    return CDAG.from_edge_list(
        vertices=[("v", i) for i in range(n)],
        edges=[(("v", i), ("v", j)) for i, j in edge_list],
        inputs=[("v", i) for i in range(n) if i not in has_pred],
        outputs=[("v", i) for i in range(n) if i not in has_succ],
        name=f"rand{n}",
    )


@pytest.fixture
def random_dag():
    """Factory fixture: ``random_dag(seed, n, extra_edge_prob=0.15)``."""
    return make_random_dag


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_chain():
    return chain_cdag(5)


@pytest.fixture
def small_tree():
    return reduction_tree_cdag(8)


@pytest.fixture
def small_diamond():
    return diamond_cdag(5, 4)


@pytest.fixture
def small_outer():
    return outer_product_cdag(3)


@pytest.fixture
def bgq():
    return IBM_BGQ


@pytest.fixture
def xt5():
    return CRAY_XT5
