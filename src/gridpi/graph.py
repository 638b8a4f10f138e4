"""Weighted undirected graphs and their Laplacians.

Edges carry strictly positive, finite weights.  The Laplacian L = D - W
has zero row sums, is symmetric positive semidefinite, and annihilates the
all-ones vector; for a connected graph the zero eigenvalue is simple.
Connectivity is decided by traversal rather than spectrally, so the
answer does not depend on how small the edge weights are.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph on nodes 0..n_nodes-1 with positive finite edge weights."""

    n_nodes: int
    edges: tuple = field(default_factory=tuple)  # ((i, j, weight), ...)

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError(f"graph needs at least one node, got {self.n_nodes}")
        cleaned = []
        seen = set()
        for edge in self.edges:
            i, j, w = edge
            i, j, w = int(i), int(j), float(w)
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ValueError(f"edge ({i}, {j}) references a node outside 0..{self.n_nodes - 1}")
            if i == j:
                raise ValueError(f"self-loop at node {i} is not allowed")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge between nodes {key[0]} and {key[1]}")
            seen.add(key)
            if not 0.0 < w < np.inf:
                raise ValueError(f"edge ({i}, {j}) needs a positive finite weight, got {w}")
            cleaned.append((i, j, w))
        object.__setattr__(self, "edges", tuple(cleaned))

    @property
    def n_edges(self):
        return len(self.edges)


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Dense weighted Laplacian L = D - W of shape (n_nodes, n_nodes)."""
    n = g.n_nodes
    lap = np.zeros((n, n))
    for i, j, w in g.edges:
        lap[i, i] += w
        lap[j, j] += w
        lap[i, j] -= w
        lap[j, i] -= w
    return lap


def is_connected(g: WeightedGraph) -> bool:
    """Breadth-first reachability of every node from node 0."""
    if g.n_nodes == 1:
        return True
    adjacency = [[] for _ in range(g.n_nodes)]
    for i, j, _ in g.edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    seen = np.zeros(g.n_nodes, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for other in adjacency[node]:
            if not seen[other]:
                seen[other] = True
                queue.append(other)
    return bool(seen.all())
