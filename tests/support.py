"""Shared helpers for the test suite: bundled data paths, random systems."""

from importlib.resources import files

import numpy as np

import gridpi


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
        comm=net.coupling_graph(),
    )


def two_bus_network(power=(0.0, 0.0)):
    """The unit two-machine network: m = d = 1, coupling k_12 = 1."""
    return gridpi.PowerNetwork(
        inertia=np.ones(2),
        damping=np.ones(2),
        voltage=np.array([1.0e3, 1.0e3]),
        power=np.asarray(power, dtype=float),
        lines=((0, 1, 1.0e-6),),
    )


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
