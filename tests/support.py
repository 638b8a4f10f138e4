"""Shared helpers for the test suite: bundled data paths, random systems,
the swing form's rank, the paper's per-direction cubic, the closed-form
unobservable subspace and the reference gamma search, the integrator's two
references, quantities read off a trace, and the trace CSV reader."""

import math
from dataclasses import replace
from importlib.resources import files

import numpy as np
import scipy.linalg

import gridpi
from gridpi.analysis import _MAX_DOUBLINGS, _SEARCH_REL_TOL
from gridpi.numerics import DIVERGENCE_LIMIT


def bundled(name):
    """Filesystem path of a bundled data file as a string."""
    return str(files("gridpi").joinpath("data", name))


def random_network(rng, n_min=3, n_max=10):
    """Connected random network with O(1) coupling weights.

    Spanning tree plus a few extra edges; voltages fixed at 1 kV so a
    susceptance of b microsiemens gives a coupling of b W/rad.
    """
    n = int(rng.integers(n_min, n_max + 1))
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    for _ in range(int(rng.integers(0, n))):
        i, j = (int(k) for k in rng.integers(0, n, 2))
        if i != j:
            edges.add((min(i, j), max(i, j)))
    lines = tuple((i, j, float(rng.uniform(0.5, 5.0)) * 1e-6) for (i, j) in sorted(edges))
    return gridpi.PowerNetwork(
        inertia=rng.uniform(0.5, 2.0, n),
        damping=rng.uniform(0.2, 1.5, n),
        voltage=np.full(n, 1.0e3),
        power=rng.uniform(-500.0, 500.0, n),
        lines=lines,
    )


def random_dist_controller(rng, net, gamma=None):
    """DIST_PI controller with random positive gains over the coupling graph."""
    n = net.n_buses
    return gridpi.ControllerSpec(
        kind=gridpi.DIST_PI,
        kp=rng.uniform(0.5, 5.0, n),
        ki=rng.uniform(0.5, 5.0, n),
        gamma=gamma,
        comm=net.coupling,
    )


def random_wide_gain_loop(rng):
    """A random_network draw whose bus parameters and gains span decades,
    with the coupling graph for communication: (net, DIST_PI controller).

    inertia 10^U(-1, 1.5), damping 10^U(-2, 1), kp 10^U(-3, 1) and ki
    10^U(-2, 4).  Unlike random_dist_controller's gains, these can give
    loops that are unstable on some range of gamma.
    """
    net = random_network(rng)
    n = net.n_buses
    net = replace(net, inertia=10 ** rng.uniform(-1, 1.5, n), damping=10 ** rng.uniform(-2, 1, n))
    ctrl = gridpi.ControllerSpec(gridpi.DIST_PI, kp=10 ** rng.uniform(-3, 1, n),
                                 ki=10 ** rng.uniform(-2, 4, n), comm=net.coupling)
    return net, ctrl


def two_bus_network(power=(0.0, 0.0)):
    """The unit two-machine network: m = d = 1, coupling k_12 = 1."""
    return gridpi.PowerNetwork(
        inertia=np.ones(2),
        damping=np.ones(2),
        voltage=np.array([1.0e3, 1.0e3]),
        power=np.asarray(power, dtype=float),
        lines=((0, 1, 1.0e-6),),
    )


def _laplacian(n, edges):
    lap = np.zeros((n, n))
    for i, j, w in edges:
        lap[[i, j, i, j], [i, j, j, i]] += (w, w, -w, -w)
    return lap


def swing_loop(net, ctrl, eta, power=None):
    """(matrix, forcing, gain, offset) of the closed loop x' = matrix x +
    forcing, u = gain x + offset, written out from the swing equation and
    the control law with Laplacians built from the lines, the voltages and
    the communication edges.  States are [delta; w; z] with w = omega -
    omega_ref (z under PI only), power defaults to net.power, eta to zeros:
        m w' = -L_k delta - d (omega_ref + w) + p + u
        u    = -kp (w + eta) + ki z
        z'   = -(w + eta)  [- gamma L_c z under distributed PI]
    """
    n, v, pi = net.n_buses, net.voltage, ctrl.kind != gridpi.P
    eta = np.zeros(n) if eta is None else np.asarray(eta, dtype=float)
    power = net.power if power is None else power
    gain = np.hstack([np.zeros((n, n)), np.diag(-ctrl.kp)] + ([np.diag(ctrl.ki)] if pi else []))
    offset, minv = -ctrl.kp * eta, 1.0 / net.inertia
    w, z = slice(n, 2 * n), slice(2 * n, gain.shape[1])
    matrix, forcing = np.zeros((gain.shape[1],) * 2), np.zeros(gain.shape[1])
    matrix[:n, w] = np.eye(n)
    matrix[w] = minv[:, None] * gain
    matrix[w, :n] -= minv[:, None] * _laplacian(n, [(i, j, v[i] * v[j] * b)
                                                    for i, j, b in net.lines])
    matrix[w, w] -= np.diag(minv * net.damping)
    forcing[w] = minv * (power - net.damping * net.omega_ref + offset)
    if pi:
        matrix[z, w], forcing[z] = -np.eye(n), -eta
    if ctrl.kind == gridpi.DIST_PI:
        matrix[z, z] = -ctrl.gamma * _laplacian(n, ctrl.comm.edges)
    return matrix, forcing, gain, offset


def swing_rank(net):
    """The rank test's answer for any swing form, in any units: the delta' =
    w rows equal the y = w rows and M^-1 is invertible, so the 3n x 3n
    test matrix has rank exactly 2n, deficiency n, whatever Lk and D."""
    n = net.n_buses
    return gridpi.XiRankResult(dim=3 * n, rank=2 * n)


def stability_cubic(net, ctrl, gamma, x):
    """Coefficients (a3, a2, a1, a0) of the scalar cubic obtained by pinching
    the characteristic matrix polynomial with a unit vector x: the paper's
    cubic, an independent reference for the bounds of gamma_bar.

    a3 = x^T M x                                     (M = diag(m_i))
    a2 = x^T ((D + Kp) + gamma M Lc) x
    a1 = x^T (gamma (D + Kp) Lc + Ki + Lk) x
    a0 = gamma x^T Lk Lc x
    """
    lap_k, lap_c = net.coupling.laplacian, ctrl.comm.laplacian
    x = np.asarray(x, dtype=float)
    d_plus_kp = np.diag(net.damping + ctrl.kp)
    m = np.diag(net.inertia)
    a3 = float(x @ (m @ x))
    a2 = float(x @ (d_plus_kp @ x) + gamma * x @ (m @ (lap_c @ x)))
    a1 = float(gamma * x @ (d_plus_kp @ (lap_c @ x)) + x @ (np.diag(ctrl.ki) @ x)
               + x @ (lap_k @ x))
    a0 = float(gamma * x @ (lap_k @ (lap_c @ x)))
    return a3, a2, a1, a0


def closed_form_split(cl, net, ctrl):
    """(B, W) of a closed loop: an orthonormal basis B of its unobservable
    subspace in closed form and one W of the orthogonal complement.

    On an unobservable trajectory of a swing loop omega = 0, so delta is
    constant.  Under P, L_k delta = 0 leaves the uniform angle; under
    distributed PI too, since L_k delta = K_i z with z' = -gamma L_c z
    forces z = c 1, and summing the rows gives c = 0.  Under decentralized
    PI it is the equilibria {(delta, 0, K_i^-1 L_k delta)}.
    """
    basis = np.zeros((cl.dim, net.n_buses))
    basis[cl.state_layout["delta"]] = np.eye(net.n_buses)
    if ctrl.kind == gridpi.DEC_PI:
        basis[cl.state_layout["z"]] = net.coupling.laplacian / ctrl.ki[:, None]
    else:
        basis = basis.mean(axis=1, keepdims=True)
    basis, _ = np.linalg.qr(basis)
    q, _ = np.linalg.qr(basis, mode="complete")
    return basis, q[:, basis.shape[1]:]


def reference_gamma_star_search(net, ctrl):
    """gamma_star_search as doubling plus plain bisection, with a closed
    loop and a full output_stability_check per probe: the reference for
    the single-split secant search."""
    def _stable(gamma):
        cl = gridpi.close_loop(net, replace(ctrl, gamma=float(gamma)))
        return gridpi.output_stability_check(cl).output_stable

    gb = gridpi.gamma_bar(net, ctrl).gamma_bar
    lo = gb if math.isfinite(gb) else 1.0
    if not _stable(lo):
        raise ValueError(f"closed loop already fails the eigenvalue check at gamma = {lo}")
    hi = None
    probe = lo
    for _ in range(_MAX_DOUBLINGS):
        probe *= 2.0
        if not _stable(probe):
            hi = probe
            break
        lo = probe
    if hi is None:
        return math.inf
    while hi - lo > _SEARCH_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if _stable(mid):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# references for integrate_rk4 under a load schedule [(t_start, offset), ...]
# ---------------------------------------------------------------------------

def plain_rk4(matrix, x0, schedule, t_end, h):
    """Textbook four-stage RK4 of x' = matrix @ x + offset on the documented
    grid: it restarts at every start, takes full steps of h and then one
    shortened step onto the segment's end, unless a remainder after a full
    step is within 1e-9 * h.  Stops after the first row that is non-finite
    or beyond DIVERGENCE_LIMIT.  Returns (times, states, diverged)."""
    mat = np.asarray(matrix, dtype=float)
    times, states = [0.0], [np.asarray(x0, dtype=float)]
    stops = [start for start, _ in schedule[1:]] + [t_end]
    with np.errstate(over="ignore", invalid="ignore"):
        for (start, offset), stop in zip(schedule, stops):
            span = stop - start
            full = math.floor(span / h + 1e-9)
            grid = [(start + j * h, h) for j in range(1, full + 1)]
            if span - full * h > 1e-9 * h or not full:
                grid.append((start + span, span - full * h))
            for t, dt in grid:
                x = states[-1]
                k1 = mat @ x + offset
                k2 = mat @ (x + 0.5 * dt * k1) + offset
                k3 = mat @ (x + 0.5 * dt * k2) + offset
                k4 = mat @ (x + dt * k3) + offset
                times.append(t)
                states.append(x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
                if not np.all(np.abs(states[-1]) <= DIVERGENCE_LIMIT):
                    return np.array(times), np.array(states), True
    return np.array(times), np.array(states), False


def exact_flow(matrix, x0, schedule, t):
    """The exact state at time t: per segment up to t, one matrix exponential
    of the augmented system [[matrix, offset], [0, 0]]."""
    mat = np.asarray(matrix, dtype=float)
    n = mat.shape[0]
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = mat
    y = np.append(np.asarray(x0, dtype=float), 1.0)
    stops = [start for start, _ in schedule[1:]] + [math.inf]
    for (start, offset), stop in zip(schedule, stops):
        if start >= t:
            break
        aug[:n, n] = offset
        y = scipy.linalg.expm(aug * (min(stop, t) - start)) @ y
    return y[:n]


# ---------------------------------------------------------------------------
# quantities read off a trace
# ---------------------------------------------------------------------------

def frequencies_hz(net, states):
    """Absolute bus frequencies in Hz of swing-loop states (a row or rows)."""
    n = net.n_buses
    return (states[..., n:2 * n] + net.omega_ref) / (2.0 * np.pi)


def scenario_inputs(scn, result, states):
    """Inputs of a run_scenario result at states (a row or rows): the
    control law of swing_loop under the run's controller."""
    _, _, gain, offset = swing_loop(scn.network.net, result.analysis.controller, scn.eta)
    return states @ gain.T + offset


def read_trace_csv(path):
    """Read a trace CSV back: (column names, float64 array of shape (k, c))."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: header names {len(header)} columns but rows have {data.shape[1]}")
    return header, data


# ---------------------------------------------------------------------------
# file writers (the inverse of load_network / load_scenario, for round trips)
# ---------------------------------------------------------------------------

BUS_KEYS = ("inertia", "damping", "voltage_kv", "load_kw")


def _num(x):
    """Shortest text that reads back as the same float64."""
    return repr(float(x))


def _nums(values):
    return " ".join(_num(v) for v in values)


def write_network_file(path, net, bus_ids, defaults=BUS_KEYS):
    """Write net as a .grid file whose bus k has file id bus_ids[k].

    Each key in defaults goes to [defaults] with bus 0's value, and a bus
    overrides it only where its own value differs; the other keys are
    written on every bus line.  Returns the path as a string.
    """
    values = {"inertia": net.inertia, "damping": net.damping,
              "voltage_kv": net.voltage / 1.0e3, "load_kw": -net.power / 1.0e3}
    lines = ["schema = 1", "[network]", f"frequency_hz = {_num(net.omega_ref / (2.0 * np.pi))}",
             "[defaults]"]
    lines += [f"{key} = {_num(values[key][0])}" for key in defaults]
    lines.append("[buses]")
    for k, bus_id in enumerate(bus_ids):
        overrides = [f"{key}={_num(arr[k])}" for key, arr in values.items()
                     if key not in defaults or arr[k] != arr[0]]
        lines.append(" ".join([str(bus_id)] + overrides))
    lines.append("[lines]")
    lines += [f"{bus_ids[i]} {bus_ids[j]} {_num(b)}" for i, j, b in net.lines]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def write_scenario_file(path, network_file, bus_ids, kind, kp, *, ki=None, cost=None,
                        gamma=None, comm_edges=None, schedule=(), eta=None,
                        horizon=10.0, step=1.0e-3):
    """Write a .scn file from model-side values.

    comm_edges are (i, j, weight) on bus indices and select
    comm_topology = edges; schedule holds (time_s, bus index, delta_w) net
    injection steps as in Scenario.schedule; eta is in rad/s per bus.
    """
    lines = ["schema = 1", "[scenario]", f"network = {network_file}",
             f"horizon_s = {_num(horizon)}", f"step_s = {_num(step)}",
             "[controller]", f"kind = {kind}", f"kp = {_nums(kp)}"]
    if ki is not None:
        lines.append(f"ki = {_nums(ki)}")
    if cost is not None:
        lines.append(f"cost_coeffs = {_nums(cost)}")
    if gamma is not None:
        lines.append(f"gamma = {gamma if gamma == 'auto' else _num(gamma)}")
    if comm_edges is not None:
        lines += ["comm_topology = edges", "[comm_edges]"]
        lines += [f"{bus_ids[i]} {bus_ids[j]} {_num(w)}" for i, j, w in comm_edges]
    lines.append("[disturbances]")
    lines += [f"{_num(t)} {bus_ids[k]} {_num(-w / 1.0e3)}" for t, k, w in schedule]
    if eta is not None:
        lines.append("[noise]")
        lines += [f"{b} {_num(e / (2.0 * np.pi))}" for b, e in zip(bus_ids, eta)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)
