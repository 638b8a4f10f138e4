"""Swing-network modelling, loop assembly, and simulation."""

from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gridpi import (DEC_PI, DIST_PI, P, ControllerSpec, PowerNetwork, WeightedGraph, close_loop,
                    integrate_rk4, simulate_schedule, stationary_state)
from support import random_dist_controller, random_network, swing_loop, two_bus_network

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# network and swing form
# ---------------------------------------------------------------------------


def test_coupling_weights_scale_with_voltages_and_susceptance():
    net = PowerNetwork(inertia=np.ones(2), damping=np.ones(2),
                       voltage=np.array([2.0e3, 5.0e2]), power=np.zeros(2),
                       lines=((0, 1, 3.0e-6),))
    # k_12 = |V_1||V_2| b_12 = 2000 * 500 * 3e-6 = 3
    assert_allclose(net.coupling.laplacian, [[3.0, -3.0], [-3.0, 3.0]])


def test_net_plant_assembly():
    net = PowerNetwork(inertia=np.array([2.0, 4.0]), damping=np.array([0.5, 1.0]),
                       voltage=np.full(2, 1e3), power=np.array([10.0, -6.0]),
                       lines=((0, 1, 1.0e-6),))
    a, b, c = net.plant
    assert_allclose(a, [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-0.5, 0.5, -0.25, 0.0],
        [0.25, -0.25, 0.0, -0.25],
    ])
    assert_allclose(b, [[0.0, 0.0], [0.0, 0.0], [0.5, 0.0], [0.0, 0.25]])
    assert_allclose(c, [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    # built once with the network, so no caller may change it
    for block in (a, b, c):
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 5.0
    # the loads are the loop's forcing, not the plant's: in deviation
    # coordinates M^-1 (p - D omega_ref), at net.power unless power is given
    ctrl = ControllerSpec(kind=P, kp=np.ones(2))
    for power in (None, [4.0, 0.0]):
        p = net.power if power is None else power
        assert_allclose(close_loop(net, ctrl, power=power).forcing_dev,
                        [0.0, 0.0, (p[0] - 0.5 * net.omega_ref) / 2.0,
                         (p[1] - net.omega_ref) / 4.0])


def test_measurement_offsets_are_stored():
    # in the loop's law, u = ... - kp eta, and in the integrator rows, z' = -(w + eta)
    ctrl = ControllerSpec(kind=DEC_PI, kp=[2.0, 3.0], ki=np.ones(2))
    loop = close_loop(two_bus_network(), ctrl, eta=[0.1, -0.2])
    assert_allclose(loop.control_offset, [-0.2, 0.6])
    assert_allclose(loop.forcing_dev[loop.state_layout["z"]], [-0.1, 0.2])


# ---------------------------------------------------------------------------
# loop assembly: the LOOPS table, each row against the swing equation
# written out, and the checks that span several loops
# ---------------------------------------------------------------------------

class Loop(NamedTuple):
    """close_loop(net, ctrl, eta, power), checked against support.swing_loop;
    pins maps "u", "x'", "z'", "sum z'" or "omega" to the loop's values at the
    states at (one per row of at, or "stationary" for the stationary state)."""
    id: str
    net: PowerNetwork
    ctrl: ControllerSpec
    eta: np.ndarray = None
    at: object = None
    pins: dict = {}
    power: np.ndarray = None


def hand_loops():
    """The laws on 2-, 3- and 4-bus swing plants, where y = omega + eta, the
    forcing, and three stationary points."""
    net2, pair = two_bus_network(), WeightedGraph(2, ((0, 1, 1.0),))
    # u = kp (r - y): a reference r enters as the measurement offset eta = -r
    yield Loop("proportional-law", net2, ControllerSpec(P, [2.0, 3.0]), -np.ones(2),
               [0, 0, 0.5, 2.0], {"u": [1.0, -3.0]})
    yield Loop("pi-law-adds-weighted-integral-state", net2,
               ControllerSpec(DEC_PI, [2.0, 3.0], [0.5, 4.0]), -np.ones(2),
               [0, 0, 0, 0, 2.0, -1.0], {"u": [2.0 + 1.0, 3.0 - 4.0]})
    yield Loop("decentralized-integrator-is-the-tracking-error",
               random_network(np.random.default_rng(1), 3, 3),
               ControllerSpec(DEC_PI, np.ones(3), np.ones(3)), -np.ones(3),
               [0, 0, 0, 0, 2.0, 1.0, 3.0, -1.0, 2.0], {"z'": [1.0, -1.0, 0.0]})
    yield Loop("consensus-term-vanishes-on-agreement", net2,
               ControllerSpec(DIST_PI, np.ones(2), np.ones(2), 3.0, pair), None,
               [0, 0, 0, 0, 5.0, 5.0], {"z'": [0.0, 0.0]})
    # unit edge, gamma = 1, z = (1, 0), y = 0: z' = -L z = (-1, 1)
    yield Loop("consensus-term-on-a-disagreeing-pair", net2,
               ControllerSpec(DIST_PI, np.ones(2), np.ones(2), 1.0, pair), None,
               [0, 0, 0, 0, 1.0, 0.0], {"z'": [-1.0, 1.0]})
    # 1' L = 0, so sum(z') = -sum(omega + eta) whatever z
    rng = np.random.default_rng(12)
    ring = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (0, 3, 1.5)))
    eta, states = rng.normal(size=4), rng.normal(size=(30, 12))
    yield Loop("averaging-preserves-the-integral-sum", random_network(rng, 4, 4),
               ControllerSpec(DIST_PI, np.ones(4), np.ones(4), 2.0, ring), eta, states,
               {"sum z'": -(states[:, 4:8] + eta).sum(axis=1)})
    # the P loop carries no integrator states
    yield Loop("integrator-requires-state", net2, ControllerSpec(P, np.ones(2)))
    # the rates at the zero state are the forcing: m w' = p - d omega_ref - kp eta, z' = -eta
    net = PowerNetwork(inertia=[2.0, 4.0], damping=[0.5, 1.0], voltage=np.full(2, 1e3),
                       power=[30.0, -5.0], lines=((0, 1, 1.0e-6),))
    eta, kp = np.array([0.05, -0.02]), np.array([3.0, 7.0])
    omega_rows = (net.power - net.damping * net.omega_ref - kp * eta) / net.inertia
    yield Loop("deviation-forcing-rows", net,
               ControllerSpec(DIST_PI, kp, np.ones(2), 0.4, net.coupling), eta, np.zeros(6),
               {"x'": np.concatenate([np.zeros(2), omega_rows, -eta])})
    # droop settles at a uniform frequency offset, so the angles ramp
    rng = np.random.default_rng(41)
    net = random_network(rng)
    yield Loop("stationary-state-for-droop-control-rides-the-angle-ramp", net,
               ControllerSpec(P, rng.uniform(0.5, 5.0, net.n_buses)))
    rng = np.random.default_rng(37)
    net = random_network(rng)
    yield Loop("stationary-angles-are-mean-free", net, random_dist_controller(rng, net, 0.4))
    # under offsets the frequency settles at -mean(eta)
    rng = np.random.default_rng(39)
    net = random_network(rng)
    eta = rng.normal(0.0, 0.5, net.n_buses)
    yield Loop("prediction-offset-under-measurement-bias", net,
               random_dist_controller(rng, net, 0.6), eta, "stationary",
               {"omega": np.full(net.n_buses, -eta.mean())})


def random_loops(seed=70, draws=3):
    """Each draw under P, decentralized PI, and distributed PI over the
    coupling graph and over a ring, without and with measurement offsets,
    at the draw's loads and at a load stage stepped from them."""
    rng, steps = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    for k in range(draws):
        net = random_network(rng)
        n = net.n_buses
        (kp, ki), eta = rng.uniform(0.5, 5.0, (2, n)), rng.normal(0.0, 0.3, n)
        ring = WeightedGraph(n, [(i, (i + 1) % n, rng.uniform(0.5, 5.0)) for i in range(n)])
        gamma = float(rng.uniform(0.1, 2.0))
        stage = net.power + steps.uniform(-1e3, 1e3, n)
        for name, ctrl in (("p", ControllerSpec(P, kp)),
                           ("dec_pi", ControllerSpec(DEC_PI, kp, ki)),
                           ("dist_pi", ControllerSpec(DIST_PI, kp, ki, gamma, net.coupling)),
                           ("dist_pi-ring", ControllerSpec(DIST_PI, kp, ki, gamma, ring))):
            yield Loop(f"{name}-{seed}-{k}", net, ctrl)
            yield Loop(f"{name}-{seed}-{k}-eta", net, ctrl, eta)
            yield Loop(f"{name}-{seed}-{k}-stage", net, ctrl, power=stage)
            yield Loop(f"{name}-{seed}-{k}-eta-stage", net, ctrl, eta, power=stage)


LOOPS = [*hand_loops(), *random_loops()]


@pytest.mark.parametrize("row", LOOPS, ids=[row.id for row in LOOPS])
def test_closed_loop(row):
    net, ctrl, n = row.net, row.ctrl, row.net.n_buses
    loop = close_loop(net, ctrl, eta=row.eta, power=row.power)
    matrix, forcing, gain, offset = swing_loop(net, ctrl, row.eta, row.power)
    # entry by entry: the same zeros, the rest within a few ulp
    for got, want in ((loop.system_matrix, matrix), (loop.forcing_dev, forcing),
                      (loop.control_gain, gain), (loop.control_offset, offset)):
        assert got.shape == want.shape and np.array_equal(got == 0, want == 0)
        assert np.all(np.abs(got - want) <= 4 * EPS * np.abs(want))
    blocks = ("delta", "omega", "z") if ctrl.has_integrator else ("delta", "omega")
    assert loop.state_layout == {b: slice(k * n, (k + 1) * n) for k, b in enumerate(blocks)}
    assert np.array_equal(loop.output_selector, np.eye(n, loop.dim, n))
    # where a stationary point exists: a fixed point of the written-out loop
    # up to the uniform angle ramp at its frequency offset, angles mean-free
    # a load stage is the network with those loads, bit for bit
    staged = net if row.power is None else replace(net, power=row.power)
    assert all(np.array_equal(got, want) for got, want in
               zip(loop[:5], close_loop(staged, ctrl, eta=row.eta)[:5]))
    if row.eta is None or ctrl.kind == DIST_PI:
        x = stationary_state(net, ctrl, eta=row.eta, power=row.power)
        assert np.array_equal(x, stationary_state(staged, ctrl, eta=row.eta))
        ramp = np.concatenate([x[n:2 * n], np.zeros(loop.dim - n)])
        scale = np.max(np.abs(matrix) @ np.abs(x) + np.abs(forcing))
        assert np.ptp(x[n:2 * n]) == 0.0
        assert np.all(np.abs(matrix @ x + forcing - ramp) <= 8 * EPS * scale)
        assert abs(x[:n].sum()) <= 1e-13 * np.abs(x[:n]).sum()
    if row.pins:
        at = x if isinstance(row.at, str) else np.asarray(row.at, dtype=float)
        rate, zs = at @ loop.system_matrix.T + loop.forcing_dev, slice(2 * n, loop.dim)
        values = {"u": at @ loop.control_gain.T + loop.control_offset, "x'": rate,
                  "z'": rate[..., zs], "sum z'": rate[..., zs].sum(axis=-1),
                  "omega": at[..., n:2 * n]}
        for name, want in row.pins.items():
            assert_allclose(values[name], want, rtol=1e-13, atol=1e-14, err_msg=name)


def test_uniform_rotation_is_invariant_for_all_kinds():
    net = two_bus_network()
    controllers = [
        ControllerSpec(kind=P, kp=np.ones(2)),
        ControllerSpec(kind=DEC_PI, kp=np.ones(2), ki=np.ones(2)),
        ControllerSpec(kind=DIST_PI, kp=np.ones(2), ki=np.ones(2),
                       gamma=0.3, comm=net.coupling),
    ]
    for ctrl in controllers:
        cl = close_loop(net, ctrl)
        v = np.zeros(cl.dim)
        v[cl.state_layout["delta"]] = 1.0
        assert_allclose(cl.system_matrix @ v, np.zeros(cl.dim), atol=1e-14)


def test_distributed_loop_reduces_to_decentralized_without_averaging():
    net = two_bus_network()
    dec = close_loop(net, ControllerSpec(kind=DEC_PI, kp=np.ones(2), ki=np.ones(2)))
    gamma = 0.7
    dist = close_loop(net, ControllerSpec(kind=DIST_PI, kp=np.ones(2), ki=np.ones(2),
                                          gamma=gamma, comm=net.coupling))
    diff = dist.system_matrix - dec.system_matrix
    zs = dist.state_layout["z"]
    expected = np.zeros_like(diff)
    expected[zs, zs] = -gamma * net.coupling.laplacian
    assert_allclose(diff, expected, atol=1e-14)
    assert_allclose(dist.forcing_dev, dec.forcing_dev)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_trace_outputs_and_controls_follow_the_laws():
    rng = np.random.default_rng(22)
    net = random_network(rng)
    eta = rng.normal(0.0, 0.1, net.n_buses)
    ctrl = random_dist_controller(rng, net, gamma=0.8)
    cl = close_loop(net, ctrl, eta=eta)
    tr = simulate_schedule([(0.0, cl.forcing_dev)], cl, 2.0, h=0.01)
    ow, zs = cl.state_layout["omega"], cl.state_layout["z"]
    # inputs reproduce the feedback law on the measured output (frequency
    # deviation plus the constant offset) sample by sample
    expected_u = -ctrl.kp * (tr.states[:, ow] + eta) + ctrl.ki * tr.states[:, zs]
    assert_allclose(tr.states @ cl.control_gain.T + cl.control_offset, expected_u, atol=1e-9)


def test_schedule_with_single_segment_equals_plain_simulation():
    net = two_bus_network()
    ctrl = ControllerSpec(kind=DEC_PI, kp=np.ones(2), ki=np.ones(2))
    cl = close_loop(net, ctrl)
    direct = integrate_rk4(cl.system_matrix, np.zeros(cl.dim), [(0.0, cl.forcing_dev)], 1.0, 0.01)
    scheduled = simulate_schedule([(0.0, cl.forcing_dev)], cl, 1.0, h=0.01)
    assert_allclose(scheduled.times, direct.times)
    assert_allclose(scheduled.states, direct.states)
