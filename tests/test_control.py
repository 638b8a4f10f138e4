"""Controller parameter validation and the control laws themselves."""

import numpy as np
from numpy.testing import assert_allclose

import gridpi
from gridpi import (
    DEC_PI,
    DIST_PI,
    P,
    ControllerSpec,
    LtiSystem,
    WeightedGraph,
    close_loop,
)

PAIR = WeightedGraph(2, ((0, 1, 1.0),))


def test_scalar_gains_broadcast_to_vectors():
    ctrl = ControllerSpec(kind=DEC_PI, kp=2.0, ki=0.5)
    assert ctrl.kp.shape == (1,)
    assert ctrl.n_nodes == 1
    assert ctrl.has_integrator


def test_p_controller_has_no_integrator():
    ctrl = ControllerSpec(kind=P, kp=np.array([1.0, 2.0]))
    assert not ctrl.has_integrator
    assert ctrl.n_nodes == 2


def test_gamma_may_stay_open_until_the_loop_is_closed():
    ctrl = ControllerSpec(kind=DIST_PI, kp=np.ones(2), ki=np.ones(2),
                          gamma=None, comm=PAIR)
    assert ctrl.gamma is None


def test_cost_coefficients_round_trip():
    cost = np.array([2.0e-4, 1.0e-4, 5.0e-4])
    ki = 1.0 / cost
    assert_allclose(ki, [5000.0, 10000.0, 2000.0])
    ctrl = ControllerSpec(kind=DEC_PI, kp=np.ones(3), ki=ki, cost=cost)
    assert_allclose(ctrl.cost, cost)


def test_random_costs_always_validate():
    rng = np.random.default_rng(11)
    for _ in range(200):
        cost = rng.uniform(1e-5, 1e-2, 4)
        ControllerSpec(kind=DEC_PI, kp=np.ones(4), ki=1.0 / cost, cost=cost)


# ---------------------------------------------------------------------------
# control laws
# ---------------------------------------------------------------------------

def _plant(m, eta=None):
    """Plant with c = I, so y = x + eta and the loop's z-rows read z' from x and z."""
    eta = np.zeros(m) if eta is None else eta
    return LtiSystem(a=-np.eye(m), b=np.eye(m), c=np.eye(m), d=np.zeros(m), eta=eta)


def _law(ctrl, eta, x, z=None):
    """u from the control law of the loop that close_loop assembles, for
    the plant state x (so y = x + eta) and integrator state z."""
    cl = close_loop(_plant(ctrl.n_nodes, eta), ctrl)
    state = x if z is None else np.concatenate([x, z])
    return cl.control_gain @ state + cl.control_offset


def test_proportional_law():
    # u = kp (r - y): a reference r enters as the measurement offset eta = -r
    ctrl = ControllerSpec(kind=P, kp=np.array([2.0, 3.0]))
    r = np.array([1.0, 1.0])
    y = np.array([0.5, 2.0])
    assert_allclose(_law(ctrl, -r, y), [1.0, -3.0])


def test_pi_law_adds_weighted_integral_state():
    ctrl = ControllerSpec(kind=DEC_PI, kp=np.array([2.0, 3.0]), ki=np.array([0.5, 4.0]))
    u = _law(ctrl, -np.ones(2), np.zeros(2), z=np.array([2.0, -1.0]))
    assert_allclose(u, [2.0 + 1.0, 3.0 - 4.0])


def _z_rate(ctrl, r, y, z):
    """z' from the integrator rows of the loop that close_loop assembles;
    a reference r enters as the measurement offset eta = -r."""
    cl = close_loop(_plant(ctrl.n_nodes, -np.asarray(r, dtype=float)), ctrl)
    zs = cl.state_layout["z"]
    return cl.system_matrix[zs] @ np.concatenate([y, z]) + cl.forcing_dev[zs]


def test_decentralized_integrator_is_the_tracking_error():
    ctrl = ControllerSpec(kind=DEC_PI, kp=np.ones(3), ki=np.ones(3))
    r = np.array([1.0, 1.0, 1.0])
    y = np.array([0.0, 2.0, 1.0])
    assert_allclose(_z_rate(ctrl, r, y, z=np.array([3.0, -1.0, 2.0])), r - y)


def test_consensus_term_vanishes_on_agreement():
    ctrl = ControllerSpec(kind=DIST_PI, kp=np.ones(2), ki=np.ones(2),
                          gamma=3.0, comm=PAIR)
    r = y = np.zeros(2)
    dz = _z_rate(ctrl, r, y, z=np.array([5.0, 5.0]))
    assert_allclose(dz, np.zeros(2), atol=1e-14)


def test_consensus_term_on_a_disagreeing_pair():
    # unit edge, gamma = 1, z = (1, 0), r = y: dz = -L z = (-1, 1)
    ctrl = ControllerSpec(kind=DIST_PI, kp=np.ones(2), ki=np.ones(2),
                          gamma=1.0, comm=PAIR)
    dz = _z_rate(ctrl, np.zeros(2), np.zeros(2), z=np.array([1.0, 0.0]))
    assert_allclose(dz, [-1.0, 1.0])


def test_averaging_preserves_the_integral_sum():
    # 1' L = 0, so sum(dz) = sum(r - y) independent of z
    rng = np.random.default_rng(12)
    g = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (0, 3, 1.5)))
    ctrl = ControllerSpec(kind=DIST_PI, kp=np.ones(4), ki=np.ones(4),
                          gamma=2.0, comm=g)
    for _ in range(30):
        r, y, z = rng.normal(size=(3, 4))
        dz = _z_rate(ctrl, r, y, z=z)
        assert abs(dz.sum() - (r - y).sum()) < 1e-12


def test_integrator_requires_state():
    # the P loop carries no integrator states
    cl = close_loop(_plant(2), ControllerSpec(kind=P, kp=np.ones(2)))
    assert "z" not in cl.state_layout and cl.dim == 2
