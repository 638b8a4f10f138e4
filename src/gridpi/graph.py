"""Weighted undirected graphs and their Laplacians.

Edges carry strictly positive, finite weights, and the weighted degrees
(the diagonal D) must be finite too.  The Laplacian L = D - W
has zero row sums, is symmetric positive semidefinite, and annihilates the
all-ones vector; for a connected graph the zero eigenvalue is simple.
Connectivity is decided by traversal rather than spectrally, so the
answer does not depend on how small the edge weights are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class SettingError(ValueError):
    """A refused value and its place, for a caller to name its own way (a file
    reader by line and bus id): setting is "kp", "ki", "power", "eta", "gamma",
    "network" or "edges" (a graph's edge list), index the bus or edge at fault
    (None: the whole setting), and reason the fault without it: what an edge
    does wrong, the quantity a bus's value makes non-finite, or the message."""

    def __init__(self, setting, index, reason, message=None):
        super().__init__(message or reason)
        self.setting, self.index, self.reason = setting, index, reason


def _edge_error(index, i, j, reason):
    return SettingError("edges", index, reason, f"edge ({i}, {j}) {reason}")


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph on nodes 0..n_nodes-1 with positive finite edge
    weights whose sums at each node, the weighted degrees, are finite too.

    laplacian is the dense weighted Laplacian L = D - W of shape
    (n_nodes, n_nodes), built once from the validated edges and read-only;
    connected is whether every node is reachable from node 0.
    """

    n_nodes: int
    edges: tuple = field(default_factory=tuple)  # ((i, j, weight), ...)
    laplacian: np.ndarray = field(init=False, repr=False, compare=False)
    connected: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError(f"graph needs at least one node, got {self.n_nodes}")
        cleaned = []
        seen = set()
        for index, edge in enumerate(self.edges):
            i, j, w = edge
            i, j, w = int(i), int(j), float(w)
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise _edge_error(index, i, j, f"references a node outside 0..{self.n_nodes - 1}")
            if i == j:
                raise _edge_error(index, i, j, "is a self-loop")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise _edge_error(index, i, j, "duplicates an earlier edge")
            seen.add(key)
            if not 0.0 < w < np.inf:
                raise _edge_error(index, i, j, f"needs a positive finite weight, got {w}")
            cleaned.append((i, j, w))
        object.__setattr__(self, "edges", tuple(cleaned))
        lap = np.zeros((self.n_nodes, self.n_nodes))
        degree = [0.0] * self.n_nodes  # Python floats: an overflow gives inf without a warning
        adjacency = [[] for _ in range(self.n_nodes)]
        for index, (i, j, w) in enumerate(cleaned):
            degree[i] += w
            degree[j] += w
            if degree[i] == np.inf or degree[j] == np.inf:
                raise _edge_error(index, i, j, "makes the weighted degree of an endpoint overflow")
            lap[i, j] -= w
            lap[j, i] -= w
            adjacency[i].append(j)
            adjacency[j].append(i)
        np.fill_diagonal(lap, degree)
        lap.flags.writeable = False
        object.__setattr__(self, "laplacian", lap)
        reached, stack = {0}, [0]  # depth-first reachability from node 0
        while stack:
            for other in adjacency[stack.pop()]:
                if other not in reached:
                    reached.add(other)
                    stack.append(other)
        object.__setattr__(self, "connected", len(reached) == self.n_nodes)

