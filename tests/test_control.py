"""Controller parameter validation; the control laws are rows of LOOPS in
test_sysmodel.py."""

import numpy as np
from numpy.testing import assert_allclose

from gridpi import DEC_PI, DIST_PI, P, ControllerSpec, WeightedGraph

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
