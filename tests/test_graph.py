"""Weighted graphs and their Laplacians."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gridpi import WeightedGraph


def test_path_laplacian_matches_hand_computation():
    g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
    expected = np.array([
        [1.0, -1.0, 0.0],
        [-1.0, 2.0, -1.0],
        [0.0, -1.0, 1.0],
    ])
    assert_allclose(g.laplacian, expected)
    # eigenvalues of the unit path on three nodes
    assert_allclose(np.linalg.eigvalsh(g.laplacian), [0.0, 1.0, 3.0], atol=1e-12)
    # built once with the graph, so no caller may change it
    with pytest.raises(ValueError, match="read-only"):
        g.laplacian[0, 0] = 5.0


def test_weights_enter_linearly():
    g = WeightedGraph(2, ((0, 1, 2.5),))
    assert_allclose(g.laplacian, [[2.5, -2.5], [-2.5, 2.5]])


def test_laplacian_structural_properties():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        edges = []
        seen = set()
        for v in range(1, n):
            u = int(rng.integers(0, v))
            edges.append((u, v, float(rng.uniform(0.1, 4.0))))
            seen.add((u, v))
        for _ in range(int(rng.integers(0, n))):
            i, j = (int(k) for k in rng.integers(0, n, 2))
            if i != j and (min(i, j), max(i, j)) not in seen:
                seen.add((min(i, j), max(i, j)))
                edges.append((min(i, j), max(i, j), float(rng.uniform(0.1, 4.0))))
        lap = WeightedGraph(n, tuple(edges)).laplacian
        assert_allclose(lap, lap.T)
        assert_allclose(lap @ np.ones(n), np.zeros(n), atol=1e-12)
        assert np.linalg.eigvalsh(lap)[0] > -1e-10  # positive semidefinite


def test_connectivity():
    # decided once with the graph
    assert WeightedGraph(1, ()).connected
    assert WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0))).connected
    assert WeightedGraph(3, ((2, 1, 1.0), (0, 2, 1.0))).connected
    assert not WeightedGraph(3, ((0, 1, 1.0),)).connected
    assert not WeightedGraph(2, ()).connected
    assert not WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0))).connected


def test_n_edges():
    g = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
    assert len(g.edges) == 2
