"""Power-network swing model, its closed loop, and closed-loop simulation.

The network model is the linearized swing equation per bus i:

    m_i omega_i' = -sum_j k_ij (delta_i - delta_j) - d_i omega_i + u_i + p_i

with electrical coupling k_ij = |V_i||V_j| b_ij.  The model is written in
deviation coordinates throughout: the states x = [delta; w] hold delta in
the frame rotating at omega_ref and w = omega - omega_ref, so the swing
equation reads m_i w_i' = -sum_j k_ij (delta_i - delta_j) - d_i w_i + u_i
+ p_i - d_i omega_ref.  The measured output is y = w + eta (eta the
measurement offset).  Traces and the loop forcing are both in these
coordinates; callers add omega_ref back to report absolute frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import control as ctrlmod
from . import graph as graphmod
from . import numerics

# Default integration step for power scenarios. [s]
DEFAULT_STEP = 1.0e-3


# ---------------------------------------------------------------------------
# network description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerNetwork:
    """Bus parameters plus transmission lines.

    inertia [kg m^2], damping [W s^2 / rad^2], voltage [V] are per bus and
    strictly positive; power [W] is the net injected power (negative for a
    consuming bus) and may have any sign; all are finite.  lines holds
    (i, j, susceptance) with susceptance in siemens; it and the coupling
    |V_i||V_j| susceptance are positive and finite.  omega_ref is in rad/s.
    The M^-1-scaled blocks and the forcing of its swing form must be finite
    too.  A load stage is not a new network but close_loop's power argument.
    coupling is the graph weighted by the electrical stiffness
    k_ij = |V_i||V_j| b_ij, built while validating; its Laplacian is L_k.
    plant is the load-free swing form (a, b, c) in deviation coordinates,
    x' = a x + b u + [0; M^-1 (p - D omega_ref)] and y = c x (+ eta) with
    x = [delta; w], built once while validating and read-only; close_loop
    adds the forcing of the loads p.
    """

    inertia: np.ndarray
    damping: np.ndarray
    voltage: np.ndarray
    power: np.ndarray
    lines: tuple = field(default_factory=tuple)
    omega_ref: float = 2.0 * np.pi * 50.0
    coupling: graphmod.WeightedGraph = field(init=False, repr=False, compare=False)
    plant: tuple = field(init=False, repr=False, compare=False)

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
            if not np.all(arrays[name] > 0.0):
                raise ValueError(f"all {name} values must be strictly positive")
        if not 0.0 < float(self.omega_ref) < np.inf:
            raise ValueError("omega_ref must be positive and finite")
        object.__setattr__(self, "omega_ref", float(self.omega_ref))
        # WeightedGraph validates endpoints, susceptances and duplicates, and
        # through the coupling graph each k_ij = |V_i||V_j| b_ij
        topology = graphmod.WeightedGraph(n, tuple(self.lines))
        if not topology.connected:
            raise ValueError("transmission network must be connected")
        object.__setattr__(self, "lines", topology.edges)
        v = arrays["voltage"].tolist()  # Python floats: an overflow gives inf without a warning
        try:
            coupling = graphmod.WeightedGraph(
                n, tuple((i, j, v[i] * v[j] * b) for i, j, b in topology.edges))
        except graphmod.SettingError as exc:
            i, j, _ = topology.edges[exc.index]
            raise graphmod._edge_error(exc.index, i, j, f"gives a coupling |V_i||V_j| b that "
                                       f"{exc.reason}") from exc
        object.__setattr__(self, "coupling", coupling)
        # the swing form's M^-1-scaled blocks: an infinite entry breaks LAPACK
        a = np.zeros((2 * n, 2 * n))
        a[:n, n:] = np.eye(n)
        b = np.zeros((2 * n, n))
        c = np.eye(n, 2 * n, n)
        with np.errstate(over="ignore", invalid="ignore"):
            minv = 1.0 / self.inertia  # accelerations scale with inverse inertia
            a[n:, :n] = -minv[:, None] * coupling.laplacian
            a[n:, n:] = -np.diag(minv * self.damping)
            b[n:, :] = np.diag(minv)
            forcing = _swing_forcing(self.inertia, self.power, self.damping, self.omega_ref)
        for name, block in (("M^-1 = 1/inertia", b[n:]), ("M^-1 Lk", a[n:, :n]),
                            ("M^-1 D", a[n:, n:]), ("M^-1 (p - D omega_ref)", forcing)):
            if not np.isfinite(block).all():
                raise ValueError(f"the swing form's {name} is not finite")
        for block in (a, b, c):
            block.flags.writeable = False
        object.__setattr__(self, "plant", (a, b, c))

    @property
    def n_buses(self):
        return self.inertia.shape[0]


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------

def _swing_forcing(inertia, power, damping, omega_ref):
    """M^-1 (p - D omega_ref): the swing form's forcing, per bus."""
    return (1.0 / inertia) * (power - damping * omega_ref)


def _per_bus(n, values, name, default):
    """values as a float vector of n entries, default when None."""
    values = default if values is None else np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"{name} shape {values.shape}, expected ({n},)")
    return values


class ClosedLoop(NamedTuple):
    """Autonomous closed-loop system x' = system_matrix x + forcing_dev.

    The control law is the affine map u = control_gain x + control_offset
    of the loop state; the outputs are y = output_selector x + eta.
    forcing_dev is the affine term of the loop, in deviation coordinates
    like the system itself.  state_layout maps "delta", "omega" and (under
    PI) "z" to their slices of the state.
    """

    system_matrix: np.ndarray
    forcing_dev: np.ndarray
    output_selector: np.ndarray
    control_gain: np.ndarray
    control_offset: np.ndarray
    state_layout: dict

    @property
    def dim(self):
        return self.system_matrix.shape[0]


def _loop_terms(net: PowerNetwork, ctrl: ctrlmod.ControllerSpec, eta, power):
    """The forcing M^-1 (p - D omega_ref - Kp eta) of close_loop's plant rows
    and its law's offset -Kp eta, in O(n).  A graph.SettingError names the
    first bus where a term is not finite, in this order: kp's M^-1 (D + Kp),
    ki's M^-1 Ki, power's net injection and M^-1 (p - D omega_ref), and eta's
    Kp eta, M^-1 Kp eta and M^-1 (p - D omega_ref - Kp eta)."""
    minv = 1.0 / net.inertia  # as net.plant's b scales the input
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, unwarned
        offset = -ctrl.kp * eta
        forcing = _swing_forcing(net.inertia, power, net.damping, net.omega_ref)
        terms = [("kp", "the closed loop's M^-1 (D + Kp)", minv * net.damping + minv * ctrl.kp),
                 ("ki", "the closed loop's M^-1 Ki", minv * (ctrl.ki if ctrl.has_integrator else 0.0)),
                 ("power", "the net injection", power),
                 ("power", "the swing form's M^-1 (p - D omega_ref)", forcing),
                 ("eta", "the control offset Kp eta", offset),
                 ("eta", "the closed loop's M^-1 Kp eta", minv * offset),
                 ("eta", "the closed loop's M^-1 (p - D omega_ref - Kp eta)", forcing + minv * offset)]
    for setting, quantity, values in terms:
        if not (finite := np.isfinite(values)).all():
            raise graphmod.SettingError(setting, int(np.argmin(finite)), quantity,
                                        f"{quantity} is not finite")
    return terms[-1][2], offset


def close_loop(net: PowerNetwork, ctrl: ctrlmod.ControllerSpec, eta=None,
               power=None) -> ClosedLoop:
    """The swing network closed by any of the controller kinds at the load
    stage power, the net injections (net.power by default).

    With the plant (a, b, c) = net.plant and y = c x + eta (eta the
    measurement offsets, zero by default), the law u = -Kp y + Ki z is the
    affine map u = [-Kp c, Ki] [x; z] - Kp eta (no Ki block for P); it
    enters the plant rows as x' = a x + b u + d, with the forcing d = [0;
    M^-1 (p - D omega_ref)], refused as _loop_terms refuses it.  The integrator
    rows are z' = -y (DEC_PI) or z' = -y - gamma L_c z (DIST_PI), where a
    gamma L_c that overflows is gamma's graph.SettingError.
    """
    n = net.n_buses
    if ctrl.n_nodes != n:
        raise ValueError(f"controller covers {ctrl.n_nodes} nodes but the network has {n} buses")
    if ctrl.kind == ctrlmod.DIST_PI and ctrl.gamma is None:
        raise ValueError("closing a distributed PI loop requires gamma")
    eta = _per_bus(n, eta, "eta", np.zeros(n))
    power = _per_bus(n, power, "power", net.power)
    a, b, c = net.plant
    xs = 2 * n  # the plant states [delta; w]
    dim = xs + n if ctrl.has_integrator else xs
    gain = np.zeros((n, dim))
    gain[:, :xs] = -ctrl.kp[:, None] * c
    e = np.zeros((dim, dim))
    forcing = np.zeros(dim)
    forcing[n:xs], offset = _loop_terms(net, ctrl, eta, power)
    layout = {"delta": slice(0, n), "omega": slice(n, xs)}
    if ctrl.has_integrator:
        zs = slice(xs, dim)
        gain[:, zs] = np.diag(ctrl.ki)
        e[zs, :xs] = -c
        if ctrl.kind == ctrlmod.DIST_PI:
            with np.errstate(over="ignore", invalid="ignore"):  # refused below, unwarned
                e[zs, zs] = -ctrl.gamma * ctrl.comm.laplacian
            if not np.isfinite(e[zs, zs]).all():  # an infinite entry breaks LAPACK
                raise graphmod.SettingError("gamma", None, "the product gamma Lc overflows; the "
                                            "averaging gain is too large for the communication weights")
        forcing[zs] = -eta
        layout["z"] = zs
    e[:xs, :xs] = a
    e[:xs] += b @ gain  # finite: its blocks are M^-1 Kp and M^-1 Ki, checked above
    return ClosedLoop(system_matrix=e, forcing_dev=forcing,
                      output_selector=np.eye(n, dim, n),
                      control_gain=gain, control_offset=offset, state_layout=layout)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def simulate_schedule(stages, loop: ClosedLoop, t_end: float, h: float = DEFAULT_STEP,
                      x0=None) -> numerics.SimulationTrace:
    """Integrate the closed loop under a piecewise-constant load schedule.

    stages is a list of (t_start, forcing_dev): a load stage changes only
    the forcing of the one loop, as close_loop's power argument does.
    integrate_rk4 enforces the time rules (first start at 0, strictly
    increasing, last below t_end) and each forcing's shape.  The
    integrator restarts at every switch time, so no step straddles a
    forcing discontinuity; the state is continuous across switches.  x0
    defaults to all-zero deviations.  The inputs of any row are
    states @ loop.control_gain.T + loop.control_offset.
    """
    if x0 is None:
        x0 = np.zeros(loop.dim)
    return numerics.integrate_rk4(loop.system_matrix, x0, stages, t_end, h)
