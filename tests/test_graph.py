"""Weighted graphs and their Laplacians."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gridpi import WeightedGraph, is_connected, laplacian


def test_path_laplacian_matches_hand_computation():
    g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
    expected = np.array([
        [1.0, -1.0, 0.0],
        [-1.0, 2.0, -1.0],
        [0.0, -1.0, 1.0],
    ])
    assert_allclose(laplacian(g), expected)
    # eigenvalues of the unit path on three nodes
    assert_allclose(np.linalg.eigvalsh(laplacian(g)), [0.0, 1.0, 3.0], atol=1e-12)


def test_weights_enter_linearly():
    g = WeightedGraph(2, ((0, 1, 2.5),))
    assert_allclose(laplacian(g), [[2.5, -2.5], [-2.5, 2.5]])


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
        lap = laplacian(WeightedGraph(n, tuple(edges)))
        assert_allclose(lap, lap.T)
        assert_allclose(lap @ np.ones(n), np.zeros(n), atol=1e-12)
        assert np.linalg.eigvalsh(lap)[0] > -1e-10  # positive semidefinite


def test_connectivity():
    assert is_connected(WeightedGraph(1, ()))
    assert is_connected(WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0))))
    assert not is_connected(WeightedGraph(3, ((0, 1, 1.0),)))
    assert not is_connected(WeightedGraph(2, ()))


def test_edge_validation():
    with pytest.raises(ValueError):
        WeightedGraph(2, ((0, 0, 1.0),))  # self loop
    with pytest.raises(ValueError):
        WeightedGraph(2, ((0, 2, 1.0),))  # endpoint out of range
    with pytest.raises(ValueError):
        WeightedGraph(2, ((0, 1, 0.0),))  # weight must be positive
    with pytest.raises(ValueError):
        WeightedGraph(2, ((0, 1, -1.0),))
    with pytest.raises(ValueError):
        WeightedGraph(2, ((0, 1, np.inf),))  # weight must be finite
    with pytest.raises(ValueError):
        WeightedGraph(2, ((0, 1, np.nan),))
    with pytest.raises(ValueError):
        WeightedGraph(3, ((0, 1, 1.0), (1, 0, 2.0)))  # duplicate pair
    with pytest.raises(ValueError):
        WeightedGraph(0, ())


def test_n_edges():
    g = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
    assert g.n_edges == 2
