"""Swing-network modelling, loop assembly, and simulation."""

import numpy as np
from numpy.testing import assert_allclose

from gridpi import (
    DEC_PI,
    DIST_PI,
    P,
    ControllerSpec,
    LtiSystem,
    PowerNetwork,
    close_loop,
    integrate_rk4,
    simulate_schedule,
    swing_to_lti,
)
from support import random_dist_controller, random_network, two_bus_network


# ---------------------------------------------------------------------------
# network and LTI form
# ---------------------------------------------------------------------------


def test_coupling_weights_scale_with_voltages_and_susceptance():
    net = PowerNetwork(inertia=np.ones(2), damping=np.ones(2),
                       voltage=np.array([2.0e3, 5.0e2]), power=np.zeros(2),
                       lines=((0, 1, 3.0e-6),))
    # k_12 = |V_1||V_2| b_12 = 2000 * 500 * 3e-6 = 3
    assert_allclose(net.coupling.laplacian, [[3.0, -3.0], [-3.0, 3.0]])


def test_swing_lti_assembly():
    net = PowerNetwork(inertia=np.array([2.0, 4.0]), damping=np.array([0.5, 1.0]),
                       voltage=np.full(2, 1e3), power=np.array([10.0, -6.0]),
                       lines=((0, 1, 1.0e-6),))
    sys = swing_to_lti(net)
    assert_allclose(sys.a, [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-0.5, 0.5, -0.25, 0.0],
        [0.25, -0.25, 0.0, -0.25],
    ])
    assert_allclose(sys.b, [[0.0, 0.0], [0.0, 0.0], [0.5, 0.0], [0.0, 0.25]])
    assert_allclose(sys.c, [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    # deviation coordinates: d = M^-1 (p - D omega_ref)
    assert_allclose(sys.d, [0.0, 0.0, (10.0 - 0.5 * net.omega_ref) / 2.0,
                            (-6.0 - net.omega_ref) / 4.0])
    assert sys.blocks["delta"] == slice(0, 2)
    assert sys.blocks["omega"] == slice(2, 4)
    assert_allclose(sys.eta, np.zeros(2))


def test_measurement_offsets_are_stored():
    sys = swing_to_lti(two_bus_network(), eta=[0.1, -0.2])
    assert_allclose(sys.eta, [0.1, -0.2])


# ---------------------------------------------------------------------------
# loop assembly
# ---------------------------------------------------------------------------

def test_closed_loop_layouts():
    net = two_bus_network()
    p_loop = close_loop(swing_to_lti(net), ControllerSpec(kind=P, kp=np.ones(2)))
    assert p_loop.dim == 4
    assert "z" not in p_loop.state_layout

    pi_loop = close_loop(swing_to_lti(net),
                         ControllerSpec(kind=DEC_PI, kp=np.ones(2), ki=np.ones(2)))
    assert pi_loop.dim == 6
    assert pi_loop.state_layout["z"] == slice(4, 6)


def test_uniform_rotation_is_invariant_for_all_kinds():
    net = two_bus_network()
    sys = swing_to_lti(net)
    controllers = [
        ControllerSpec(kind=P, kp=np.ones(2)),
        ControllerSpec(kind=DEC_PI, kp=np.ones(2), ki=np.ones(2)),
        ControllerSpec(kind=DIST_PI, kp=np.ones(2), ki=np.ones(2),
                       gamma=0.3, comm=net.coupling),
    ]
    for ctrl in controllers:
        cl = close_loop(sys, ctrl)
        v = np.zeros(cl.dim)
        v[cl.state_layout["delta"]] = 1.0
        assert_allclose(cl.system_matrix @ v, np.zeros(cl.dim), atol=1e-14)


def test_deviation_forcing_rows():
    net = PowerNetwork(inertia=np.array([2.0, 4.0]), damping=np.array([0.5, 1.0]),
                       voltage=np.full(2, 1e3), power=np.array([30.0, -5.0]),
                       lines=((0, 1, 1.0e-6),))
    eta = np.array([0.05, -0.02])
    kp = np.array([3.0, 7.0])
    ctrl = ControllerSpec(kind=DIST_PI, kp=kp, ki=np.ones(2), gamma=0.4,
                          comm=net.coupling)
    cl = close_loop(swing_to_lti(net, eta=eta), ctrl)
    omega_rows = (net.power - net.damping * net.omega_ref - kp * eta) / net.inertia
    assert_allclose(cl.forcing_dev[cl.state_layout["delta"]], np.zeros(2), atol=1e-12)
    assert_allclose(cl.forcing_dev[cl.state_layout["omega"]], omega_rows)
    assert_allclose(cl.forcing_dev[cl.state_layout["z"]], -eta)


def test_distributed_loop_reduces_to_decentralized_without_averaging():
    net = two_bus_network()
    sys = swing_to_lti(net)
    dec = close_loop(sys, ControllerSpec(kind=DEC_PI, kp=np.ones(2), ki=np.ones(2)))
    gamma = 0.7
    dist = close_loop(sys, ControllerSpec(kind=DIST_PI, kp=np.ones(2), ki=np.ones(2),
                                          gamma=gamma, comm=net.coupling))
    diff = dist.system_matrix - dec.system_matrix
    zs = dist.state_layout["z"]
    expected = np.zeros_like(diff)
    expected[zs, zs] = -gamma * net.coupling.laplacian
    assert_allclose(diff, expected, atol=1e-14)
    assert_allclose(dist.forcing_dev, dec.forcing_dev)


def test_generic_system_closes_without_swing_blocks():
    sys = LtiSystem(a=[[2.0]], b=[[1.0]], c=[[1.0]], d=[0.0], eta=[0.0])
    cl = close_loop(sys, ControllerSpec(kind=P, kp=np.array([0.5])))
    # not stabilizable with this gain: 2 - 0.5 > 0
    assert_allclose(cl.system_matrix, [[1.5]])
    tr = simulate_schedule([(0.0, cl)], 100.0, h=0.01, x0=np.array([1.0]))
    assert tr.diverged
    assert np.all(np.isfinite(tr.states))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_trace_outputs_and_controls_follow_the_laws():
    rng = np.random.default_rng(22)
    net = random_network(rng)
    eta = rng.normal(0.0, 0.1, net.n_buses)
    ctrl = random_dist_controller(rng, net, gamma=0.8)
    cl = close_loop(swing_to_lti(net, eta=eta), ctrl)
    tr = simulate_schedule([(0.0, cl)], 2.0, h=0.01)
    ow, zs = cl.state_layout["omega"], cl.state_layout["z"]
    # inputs reproduce the feedback law on the measured output (frequency
    # deviation plus the constant offset) sample by sample
    expected_u = -ctrl.kp * (tr.states[:, ow] + eta) + ctrl.ki * tr.states[:, zs]
    assert_allclose(tr.states @ cl.control_gain.T + cl.control_offset, expected_u, atol=1e-9)


def test_schedule_with_single_segment_equals_plain_simulation():
    net = two_bus_network()
    ctrl = ControllerSpec(kind=DEC_PI, kp=np.ones(2), ki=np.ones(2))
    cl = close_loop(swing_to_lti(net), ctrl)
    direct = integrate_rk4(cl.system_matrix, np.zeros(cl.dim), [(0.0, cl.forcing_dev)], 1.0, 0.01)
    scheduled = simulate_schedule([(0.0, cl)], 1.0, h=0.01)
    assert_allclose(scheduled.times, direct.times)
    assert_allclose(scheduled.states, direct.states)
