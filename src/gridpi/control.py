"""Controller families for output regulation of networked systems.

Three kinds, all diagonal in the gains, acting on the measured output
y = c x + eta (eta a constant measurement offset):

  P        u = -K_p y
  DEC_PI   u = -K_p y + K_i z,  z' = -y
  DIST_PI  u = -K_p y + K_i z,  z' = -y - gamma * L_c z

DIST_PI augments per-node integrators with consensus filtering of the
integral states over a communication graph (Laplacian L_c), which is what
restores a well-posed steady state and proportional sharing of the control
effort.  Integral gains may be derived from cost coefficients as
K_i = 1 / cost, which makes cost_i * u_i uniform across nodes at steady
state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph as graphmod

P = "p"
DEC_PI = "dec_pi"
DIST_PI = "dist_pi"
KINDS = (P, DEC_PI, DIST_PI)


@dataclass(frozen=True)
class ControllerSpec:
    """Validated controller parameters.

    kp and ki are the diagonals of the gain matrices (one entry per
    controlled node).  gamma and comm apply to DIST_PI only; gamma may be
    left None while a value is still being chosen, but closing the loop
    requires it.  cost, when present, records the coefficients the integral
    gains were derived from (ki * cost == 1 to rounding).
    """

    kind: str
    kp: np.ndarray
    ki: np.ndarray = None
    gamma: float = None
    comm: graphmod.WeightedGraph = None
    cost: np.ndarray = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown controller kind {self.kind!r}, expected one of {KINDS}")
        kp = np.atleast_1d(np.asarray(self.kp, dtype=float))
        if kp.ndim != 1:
            raise ValueError("kp must be a vector (diagonal of the proportional gain)")
        if not np.all(kp > 0.0):
            raise ValueError("all proportional gains must be strictly positive")
        object.__setattr__(self, "kp", kp)

        if self.kind == P:
            if self.ki is not None or self.gamma is not None or self.comm is not None:
                raise ValueError("P controller takes no ki, gamma, or communication graph")
        else:
            if self.ki is None:
                raise ValueError(f"{self.kind} controller requires integral gains ki")
            ki = np.atleast_1d(np.asarray(self.ki, dtype=float))
            if ki.shape != kp.shape:
                raise ValueError(f"ki shape {ki.shape} does not match kp shape {kp.shape}")
            if not np.all(ki > 0.0):
                raise ValueError("all integral gains must be strictly positive")
            object.__setattr__(self, "ki", ki)

        if self.kind == DEC_PI:
            if self.gamma is not None or self.comm is not None:
                raise ValueError("decentralized PI takes no gamma or communication graph")

        if self.kind == DIST_PI:
            if self.comm is None:
                raise ValueError("distributed PI requires a communication graph")
            if self.comm.n_nodes != self.kp.shape[0]:
                raise ValueError(
                    f"communication graph has {self.comm.n_nodes} nodes "
                    f"but gains cover {self.kp.shape[0]}"
                )
            if not self.comm.connected:
                raise ValueError("communication graph must be connected")
            if self.gamma is not None:
                gamma = float(self.gamma)
                if not gamma > 0.0:
                    raise ValueError(f"averaging gain gamma must be positive, got {gamma}")
                object.__setattr__(self, "gamma", gamma)

        if self.cost is not None:
            cost = np.atleast_1d(np.asarray(self.cost, dtype=float))
            if self.ki is None or cost.shape != self.ki.shape:
                raise ValueError("cost coefficients must match the integral gains")
            if not np.all(cost > 0.0):
                raise ValueError("cost coefficients must be strictly positive")
            # ki = 1/cost up to the two roundings of reciprocal and product
            if not np.all(np.abs(self.ki * cost - 1.0) <= 5e-16):
                raise ValueError("integral gains must equal 1 / cost")
            object.__setattr__(self, "cost", cost)

    @property
    def n_nodes(self):
        return self.kp.shape[0]

    @property
    def has_integrator(self):
        return self.kind != P

