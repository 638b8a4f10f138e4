"""Power-network swing model, its LTI form, and closed-loop simulation.

The network model is the linearized swing equation per bus i:

    m_i omega_i' = -sum_j k_ij (delta_i - delta_j) - d_i omega_i + u_i + p_i

with electrical coupling k_ij = |V_i||V_j| b_ij, measured output y = omega
(plus measurement offset eta), and reference r = omega_ref * 1.  States are
stacked x = [delta; omega].

Simulation runs in deviation coordinates: omega relative to omega_ref and
delta in the frame rotating at omega_ref.  The shift is exact here because
the uniform-delta direction lies in the null space of every closed-loop
matrix, so it only moves the constant forcing term.  Reported outputs are
absolute.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import control as ctrlmod
from . import graph as graphmod
from . import numerics

# Default integration step for power scenarios. [s]
DEFAULT_STEP = 1.0e-3


# ---------------------------------------------------------------------------
# network description
# ---------------------------------------------------------------------------

class BusValueError(ValueError):
    """A non-positive per-bus parameter: name is the PowerNetwork field and
    index the bus, so that a parser can name the file line and bus id."""

    def __init__(self, name, index):
        super().__init__(f"all {name} values must be strictly positive")
        self.name = name
        self.index = index


@dataclass(frozen=True)
class PowerNetwork:
    """Bus parameters plus transmission lines.

    inertia [kg m^2], damping [W s^2 / rad^2], voltage [V] are per bus and
    strictly positive; power [W] is the net injected power (negative for a
    consuming bus) and may have any sign; all are finite.  lines holds
    (i, j, susceptance) with susceptance in siemens, positive and finite.
    omega_ref is in rad/s.
    """

    inertia: np.ndarray
    damping: np.ndarray
    voltage: np.ndarray
    power: np.ndarray
    lines: tuple = field(default_factory=tuple)
    omega_ref: float = 2.0 * np.pi * 50.0

    def __post_init__(self):
        arrays = {}
        for name in ("inertia", "damping", "voltage", "power"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a vector")
            arrays[name] = arr
        n = arrays["inertia"].shape[0]
        for name, arr in arrays.items():
            if arr.shape[0] != n:
                raise ValueError(f"{name} has {arr.shape[0]} entries, expected {n}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"all {name} values must be finite")
            object.__setattr__(self, name, arr)
        for name in ("inertia", "damping", "voltage"):
            bad = np.flatnonzero(~(arrays[name] > 0.0))
            if bad.size:
                raise BusValueError(name, int(bad[0]))
        if not 0.0 < float(self.omega_ref) < np.inf:
            raise ValueError("omega_ref must be positive and finite")
        object.__setattr__(self, "omega_ref", float(self.omega_ref))
        # WeightedGraph validates endpoints, susceptances and duplicates.
        topology = graphmod.WeightedGraph(n, tuple(self.lines))
        if not graphmod.is_connected(topology):
            raise ValueError("transmission network must be connected")
        object.__setattr__(self, "lines", topology.edges)

    @property
    def n_buses(self):
        return self.inertia.shape[0]

    def coupling_graph(self) -> graphmod.WeightedGraph:
        """Graph weighted by the electrical stiffness k_ij = |V_i||V_j| b_ij."""
        v = self.voltage
        return graphmod.WeightedGraph(self.n_buses,
                                      tuple((i, j, v[i] * v[j] * b) for i, j, b in self.lines))

    def coupling_laplacian(self) -> np.ndarray:
        return graphmod.laplacian(self.coupling_graph())

    def with_power(self, power) -> "PowerNetwork":
        """Copy with a different net injected power vector."""
        return replace(self, power=np.asarray(power, dtype=float))


# ---------------------------------------------------------------------------
# LTI form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LtiSystem:
    """x' = a x + b u + d,  y = c x + eta, with constant reference r.

    blocks names meaningful slices of the state vector (the swing model uses
    "delta" and "omega"); generic systems carry a single "x" block.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    eta: np.ndarray
    r: np.ndarray
    blocks: dict = None

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"a must be square, got {a.shape}")
        n = a.shape[0]
        if b.shape[0] != n or b.ndim != 2:
            raise ValueError(f"b shape {b.shape} incompatible with state dimension {n}")
        if c.shape[1] != n or c.ndim != 2:
            raise ValueError(f"c shape {c.shape} incompatible with state dimension {n}")
        m = c.shape[0]
        if b.shape[1] != m:
            raise ValueError(f"b has {b.shape[1]} inputs but c has {m} outputs")
        d = np.asarray(self.d, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        r = np.asarray(self.r, dtype=float)
        if d.shape != (n,):
            raise ValueError(f"d shape {d.shape}, expected ({n},)")
        if eta.shape != (m,):
            raise ValueError(f"eta shape {eta.shape}, expected ({m},)")
        if r.shape != (m,):
            raise ValueError(f"r shape {r.shape}, expected ({m},)")
        for name, arr in (("a", a), ("b", b), ("c", c), ("d", d), ("eta", eta), ("r", r)):
            object.__setattr__(self, name, arr)
        if self.blocks is None:
            object.__setattr__(self, "blocks", {"x": slice(0, n)})

    @property
    def n_states(self):
        return self.a.shape[0]

    @property
    def n_outputs(self):
        return self.c.shape[0]


def swing_to_lti(net: PowerNetwork, eta=None) -> LtiSystem:
    """LTI form of the swing network with y = omega and r = omega_ref * 1."""
    n = net.n_buses
    minv = 1.0 / net.inertia  # accelerations scale with inverse inertia
    lap_k = net.coupling_laplacian()
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = np.eye(n)
    a[n:, :n] = -minv[:, None] * lap_k
    a[n:, n:] = -np.diag(minv * net.damping)
    b = np.zeros((2 * n, n))
    b[n:, :] = np.diag(minv)
    c = np.zeros((n, 2 * n))
    c[:, n:] = np.eye(n)
    d = np.zeros(2 * n)
    d[n:] = minv * net.power
    if eta is None:
        eta = np.zeros(n)
    eta = np.asarray(eta, dtype=float)
    r = net.omega_ref * np.ones(n)
    blocks = {"delta": slice(0, n), "omega": slice(n, 2 * n)}
    return LtiSystem(a=a, b=b, c=c, d=d, eta=eta, r=r, blocks=blocks)


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedLoop:
    """Autonomous closed-loop system x_dev' = system_matrix x_dev + forcing_dev.

    forcing_dev is the affine term after the rotating frame / reference
    shift (see _deviation_shift) and is what the integrator uses.  For
    systems without delta/omega structure it is the affine term of the
    loop as written.
    """

    system: LtiSystem
    controller: ctrlmod.ControllerSpec
    system_matrix: np.ndarray
    forcing_dev: np.ndarray
    output_selector: np.ndarray
    state_layout: dict
    output_offset: np.ndarray  # y = output_selector @ x_dev + output_offset

    @property
    def dim(self):
        return self.system_matrix.shape[0]


def close_loop(sys: LtiSystem, ctrl: ctrlmod.ControllerSpec) -> ClosedLoop:
    """Assemble the closed loop for any of the controller kinds.

    P:        x' = (a - b Kp c) x + d + b Kp (r - eta)
    DEC_PI:   [x; z]' = [[a - b Kp c, b Ki], [-c, 0]] [x; z]
                        + [d; 0] + [b Kp; I] (r - eta)
    DIST_PI:  same with the lower-right block -gamma * L_c.
    """
    n, m = sys.n_states, sys.n_outputs
    if ctrl.n_nodes != m:
        raise ValueError(f"controller covers {ctrl.n_nodes} nodes but the plant has {m} outputs")
    kp = np.diag(ctrl.kp)
    a_fb = sys.a - sys.b @ kp @ sys.c
    base_force = sys.d + sys.b @ (ctrl.kp * (sys.r - sys.eta))

    if ctrl.kind == ctrlmod.P:
        e = a_fb
        forcing = base_force
        c_ext = sys.c
        layout = dict(sys.blocks)
    else:
        if ctrl.kind == ctrlmod.DIST_PI and ctrl.gamma is None:
            raise ValueError("closing a distributed PI loop requires gamma")
        e = np.zeros((n + m, n + m))
        e[:n, :n] = a_fb
        e[:n, n:] = sys.b * ctrl.ki[None, :]
        e[n:, :n] = -sys.c
        if ctrl.kind == ctrlmod.DIST_PI:
            lap_c = graphmod.laplacian(ctrl.comm)
            e[n:, n:] = -ctrl.gamma * lap_c
        forcing = np.concatenate([base_force, sys.r - sys.eta])
        c_ext = np.zeros((m, n + m))
        c_ext[:, :n] = sys.c
        layout = dict(sys.blocks)
        layout["z"] = slice(n, n + m)

    forcing_dev, y_offset = _deviation_shift(sys, e, forcing, c_ext)
    return ClosedLoop(
        system=sys,
        controller=ctrl,
        system_matrix=e,
        forcing_dev=forcing_dev,
        output_selector=c_ext,
        state_layout=layout,
        output_offset=y_offset,
    )


def _deviation_shift(sys, e, forcing, c_ext):
    """Move the loop into deviation coordinates when it has swing structure.

    With xi(t) = xi0 + t * xi1, where xi0 puts omega_ref on the omega block
    and xi1 puts omega_ref on the delta block, the substitution
    x = x_dev + xi(t) turns the affine term into forcing + e @ xi0 - xi1
    (exact because e @ xi1 = 0).  Outputs gain the constant c_ext @ xi0.
    """
    blocks = sys.blocks
    if "delta" not in blocks or "omega" not in blocks:
        return forcing, sys.eta.copy()
    if np.ptp(sys.r) != 0.0:
        raise ValueError("swing-structured systems expect a uniform reference")
    omega_ref = float(sys.r[0])
    dim = e.shape[0]
    xi0 = np.zeros(dim)
    xi0[blocks["omega"]] = omega_ref
    xi1 = np.zeros(dim)
    xi1[blocks["delta"]] = omega_ref
    drift = e @ xi1
    if np.linalg.norm(drift) > 1e-9 * max(np.linalg.norm(e), 1.0) * abs(omega_ref):
        raise ValueError("uniform-angle direction is not invariant; cannot shift frame")
    forcing_dev = forcing + e @ xi0 - xi1
    y_offset = c_ext @ xi0 + sys.eta
    return forcing_dev, y_offset


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationTrace:
    """Sampled closed-loop run.

    states are deviation coordinates (rotating-frame delta, omega relative
    to omega_ref, integrator z); outputs are the absolute measured outputs
    y including eta; controls are reconstructed from the control law.
    """

    times: np.ndarray     # (k,)
    states: np.ndarray    # (k, dim)
    outputs: np.ndarray   # (k, m)
    controls: np.ndarray  # (k, m)
    diverged: bool


def _reconstruct(cl: ClosedLoop, states: np.ndarray):
    """Outputs and controls along a trace, by the measurement and control laws."""
    y = states @ cl.output_selector.T + cl.output_offset[None, :]
    z = states[:, cl.state_layout["z"]] if cl.controller.has_integrator else None
    return y, ctrlmod.control_output(cl.controller, cl.system.r, y, z)


def simulate(cl: ClosedLoop, t_end: float, h: float = DEFAULT_STEP, x0=None) -> SimulationTrace:
    """Integrate the closed loop from x0 (default: all-zero deviations)."""
    return simulate_schedule([(0.0, cl)], t_end, h=h, x0=x0)


def _shares_loop(cl: ClosedLoop, other: ClosedLoop) -> bool:
    """Same loop matrix, output map, reference and controller: only the forcing may differ."""
    return other.controller is cl.controller and all(
        np.array_equal(a, b) for a, b in (
            (cl.system_matrix, other.system_matrix),
            (cl.output_selector, other.output_selector),
            (cl.output_offset, other.output_offset),
            (cl.system.r, other.system.r),
        ))


def simulate_schedule(segments, t_end: float, h: float = DEFAULT_STEP, x0=None) -> SimulationTrace:
    """Integrate one closed loop under a piecewise-constant load schedule.

    segments is a list of (t_start, ClosedLoop) with t_start sorted and the
    first at 0.  The segments share one closed loop (loop matrix, output
    map, reference and controller) and differ only in their forcing, i.e.
    the loads.  The integrator restarts at every switch time, so no step
    straddles a forcing discontinuity; the state is continuous across
    switches.  x0 defaults to all-zero deviations.
    """
    if not segments:
        raise ValueError("schedule needs at least one segment")
    starts = [float(t) for t, _ in segments]
    if starts[0] != 0.0:
        raise ValueError(f"first segment must start at t = 0, got {starts[0]}")
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise ValueError("segment start times must be strictly increasing")
    if starts[-1] >= t_end:
        raise ValueError("last segment starts after t_end")
    cl = segments[0][1]
    if not all(_shares_loop(cl, other) for _, other in segments[1:]):
        raise ValueError("all segments must share one closed loop and differ only in forcing")

    if x0 is None:
        x0 = np.zeros(cl.dim)
    result = numerics.integrate_rk4(cl.system_matrix, x0,
                                    [(t, seg.forcing_dev) for t, seg in segments], t_end, h)
    y, u = _reconstruct(cl, result.states)
    return SimulationTrace(
        times=result.times,
        states=result.states,
        outputs=y,
        controls=u,
        diverged=result.diverged,
    )
