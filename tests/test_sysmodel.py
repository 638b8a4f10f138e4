"""Swing-network modelling, loop assembly, and simulation."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import gridpi
from gridpi import (
    DEC_PI,
    DIST_PI,
    P,
    ControllerSpec,
    LtiSystem,
    PowerNetwork,
    close_loop,
    simulate,
    simulate_schedule,
    swing_to_lti,
)
from support import random_dist_controller, random_network, two_bus_network


def _xi_vectors(cl):
    """Coordinate-shift vectors: xi0 on the omega block, xi1 on delta."""
    n = cl.system.n_outputs
    xi0 = np.zeros(cl.dim)
    xi1 = np.zeros(cl.dim)
    xi0[cl.state_layout["omega"]] = cl.system.r
    xi1[cl.state_layout["delta"]] = cl.system.r
    return xi0, xi1


# ---------------------------------------------------------------------------
# network and LTI form
# ---------------------------------------------------------------------------

def test_network_validation():
    with pytest.raises(ValueError):
        two_bus_network().with_power([1.0])  # wrong length
    with pytest.raises(ValueError):
        PowerNetwork(inertia=np.array([1.0, -1.0]), damping=np.ones(2),
                     voltage=np.full(2, 1e3), power=np.zeros(2),
                     lines=((0, 1, 1e-6),))
    with pytest.raises(ValueError):  # grid graph must be connected
        PowerNetwork(inertia=np.ones(3), damping=np.ones(3),
                     voltage=np.full(3, 1e3), power=np.zeros(3),
                     lines=((0, 1, 1e-6),))


@pytest.mark.parametrize("field, value, needle", [
    ("power", [np.nan, 0.0], "power values must be finite"),
    ("power", [np.inf, 0.0], "power values must be finite"),
    ("inertia", [np.inf, 1.0], "inertia values must be finite"),
    ("damping", [1.0, np.nan], "damping values must be finite"),
    ("voltage", [1e3, np.inf], "voltage values must be finite"),
    ("lines", ((0, 1, np.inf),), "positive finite weight"),
    ("lines", ((0, 1, np.nan),), "positive finite weight"),
    ("lines", ((0, 1, 0.0),), "positive finite weight"),
    ("lines", ((0, 2, 1e-6),), "outside 0..1"),
    ("omega_ref", np.inf, "omega_ref must be positive and finite"),
])
def test_network_rejects_non_finite_parameters(field, value, needle):
    params = dict(inertia=np.ones(2), damping=np.ones(2), voltage=np.full(2, 1e3),
                  power=np.zeros(2), lines=((0, 1, 1e-6),))
    params[field] = value
    with pytest.raises(ValueError, match=needle):
        PowerNetwork(**params)


def test_coupling_weights_scale_with_voltages_and_susceptance():
    net = PowerNetwork(inertia=np.ones(2), damping=np.ones(2),
                       voltage=np.array([2.0e3, 5.0e2]), power=np.zeros(2),
                       lines=((0, 1, 3.0e-6),))
    # k_12 = |V_1||V_2| b_12 = 2000 * 500 * 3e-6 = 3
    assert_allclose(net.coupling_laplacian(), [[3.0, -3.0], [-3.0, 3.0]])


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
    assert_allclose(sys.d, [0.0, 0.0, 5.0, -1.5])
    assert_allclose(sys.r, np.full(2, net.omega_ref))
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
                       gamma=0.3, comm=net.coupling_graph()),
    ]
    for ctrl in controllers:
        cl = close_loop(sys, ctrl)
        v = np.zeros(cl.dim)
        v[cl.state_layout["delta"]] = 1.0
        assert_allclose(cl.system_matrix @ v, np.zeros(cl.dim), atol=1e-14)


def test_deviation_shift_is_exact():
    # the shifted forcing must satisfy  f_raw + E xi0 = f_dev + xi1
    rng = np.random.default_rng(21)
    for _ in range(10):
        net = random_network(rng)
        eta = rng.normal(0.0, 0.2, net.n_buses)
        sys = swing_to_lti(net, eta=eta)
        cl = close_loop(sys, random_dist_controller(rng, net, gamma=0.5))
        xi0, xi1 = _xi_vectors(cl)
        assert_allclose(cl.forcing + cl.system_matrix @ xi0,
                        cl.forcing_dev + xi1, atol=1e-9)


def test_deviation_forcing_rows():
    net = PowerNetwork(inertia=np.array([2.0, 4.0]), damping=np.array([0.5, 1.0]),
                       voltage=np.full(2, 1e3), power=np.array([30.0, -5.0]),
                       lines=((0, 1, 1.0e-6),))
    eta = np.array([0.05, -0.02])
    kp = np.array([3.0, 7.0])
    ctrl = ControllerSpec(kind=DIST_PI, kp=kp, ki=np.ones(2), gamma=0.4,
                          comm=net.coupling_graph())
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
                                          gamma=gamma, comm=net.coupling_graph()))
    diff = dist.system_matrix - dec.system_matrix
    zs = dist.state_layout["z"]
    expected = np.zeros_like(diff)
    expected[zs, zs] = -gamma * net.coupling_laplacian()
    assert_allclose(diff, expected, atol=1e-14)
    assert_allclose(dist.forcing, dec.forcing)


def test_generic_system_closes_without_swing_blocks():
    sys = LtiSystem(a=[[2.0]], b=[[1.0]], c=[[1.0]], d=[0.0], eta=[0.0], r=[0.0])
    cl = close_loop(sys, ControllerSpec(kind=P, kp=np.array([0.5])))
    # not stabilizable with this gain: 2 - 0.5 > 0
    assert_allclose(cl.system_matrix, [[1.5]])
    tr = simulate(cl, 100.0, h=0.01, x0=np.array([1.0]))
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
    tr = simulate(cl, 2.0, h=0.01)
    ow, zs = cl.state_layout["omega"], cl.state_layout["z"]
    # measured output is the absolute frequency plus the constant offset
    assert_allclose(tr.outputs, tr.states[:, ow] + net.omega_ref + eta, atol=1e-12)
    # inputs reproduce the feedback law sample by sample
    expected_u = (ctrl.kp * (net.omega_ref - tr.outputs)
                  + ctrl.ki * tr.states[:, zs])
    assert_allclose(tr.controls, expected_u, atol=1e-9)


def test_simulation_matches_matrix_exponential():
    rng = np.random.default_rng(23)
    for _ in range(5):
        net = random_network(rng, n_max=5)
        ctrl = random_dist_controller(rng, net, gamma=0.4)
        cl = close_loop(swing_to_lti(net), ctrl)
        x0 = rng.normal(size=cl.dim)
        tr = simulate(cl, 1.0, h=0.002, x0=x0)
        aug = np.zeros((cl.dim + 1, cl.dim + 1))
        aug[:cl.dim, :cl.dim] = cl.system_matrix
        aug[:cl.dim, cl.dim] = cl.forcing_dev
        exact = (scipy.linalg.expm(aug) @ np.append(x0, 1.0))[:cl.dim]
        assert_allclose(tr.states[-1], exact, atol=1e-8 * max(np.abs(exact).max(), 1.0))


def test_schedule_with_single_segment_equals_plain_simulation():
    net = two_bus_network()
    ctrl = ControllerSpec(kind=DEC_PI, kp=np.ones(2), ki=np.ones(2))
    cl = close_loop(swing_to_lti(net), ctrl)
    direct = simulate(cl, 1.0, h=0.01)
    scheduled = simulate_schedule([(0.0, cl)], 1.0, h=0.01)
    assert_allclose(scheduled.times, direct.times)
    assert_allclose(scheduled.states, direct.states)


def test_schedule_split_at_a_grid_point_is_seamless():
    net = two_bus_network()
    ctrl = ControllerSpec(kind=DEC_PI, kp=np.ones(2), ki=np.ones(2))
    cl = close_loop(swing_to_lti(net), ctrl)
    direct = simulate(cl, 2.0, h=0.01)
    split = simulate_schedule([(0.0, cl), (1.0, cl)], 2.0, h=0.01)
    assert_allclose(split.times, direct.times, atol=1e-12)
    assert_allclose(split.states, direct.states, atol=1e-12)


def test_schedule_applies_a_load_step_exactly():
    rng = np.random.default_rng(24)
    net = two_bus_network(power=(20.0, -20.0))
    stepped = net.with_power([220.0, -20.0])
    ctrl = random_dist_controller(rng, net, gamma=0.3)
    cl0 = close_loop(swing_to_lti(net), ctrl)
    cl1 = close_loop(swing_to_lti(stepped), ctrl)
    x0 = rng.normal(size=cl0.dim)
    tr = simulate_schedule([(0.0, cl0), (1.0, cl1)], 2.0, h=0.005, x0=x0)

    def _flow(cl, x, t):
        aug = np.zeros((cl.dim + 1, cl.dim + 1))
        aug[:cl.dim, :cl.dim] = cl.system_matrix
        aug[:cl.dim, cl.dim] = cl.forcing_dev
        return (scipy.linalg.expm(aug * t) @ np.append(x, 1.0))[:cl.dim]

    exact = _flow(cl1, _flow(cl0, x0, 1.0), 1.0)
    assert_allclose(tr.states[-1], exact, atol=1e-8 * max(np.abs(exact).max(), 1.0))
    assert tr.times.shape[0] == 401  # no duplicated boundary sample
    assert np.all(np.diff(tr.times) > 0)


def test_schedule_validation():
    net = two_bus_network()
    ctrl = ControllerSpec(kind=DEC_PI, kp=np.ones(2), ki=np.ones(2))
    cl = close_loop(swing_to_lti(net), ctrl)
    with pytest.raises(ValueError):
        simulate_schedule([], 1.0)
    with pytest.raises(ValueError):
        simulate_schedule([(0.5, cl)], 1.0)  # must start at zero
    with pytest.raises(ValueError):
        simulate_schedule([(0.0, cl), (0.7, cl), (0.3, cl)], 1.0)  # unsorted
    dist = ControllerSpec(kind=DIST_PI, kp=np.ones(2), ki=np.ones(2), comm=net.coupling_graph())
    loops = [close_loop(swing_to_lti(net), replace(dist, gamma=g)) for g in (0.5, 0.8)]
    with pytest.raises(ValueError, match="share one closed loop"):
        simulate_schedule([(0.0, loops[0]), (0.5, loops[1])], 1.0)  # different gamma
