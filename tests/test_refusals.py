"""Every refusal of the library's own checks as one table.

A row is id, a call with no arguments, the exception type it must raise
(that type itself, not a subclass), its message, compared whole, and for a
graph.SettingError the setting and the bus or edge index that it names.
The file readers' file:line diagnostics are rows of test_scenario.py's
FILE_REFUSALS, and the command line's are rows of test_cli.py.
"""

from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np
import pytest

from gridpi import (DEC_PI, DIST_PI, P, ControllerSpec, PowerNetwork, WeightedGraph, close_loop,
                    gamma_bar, integrate_rk4, simulate_schedule, stationary_state, xi_rank_test)
from gridpi.graph import SettingError
from support import two_bus_network


class Refusal(NamedTuple):
    id: str
    call: Callable
    error: type
    message: str
    setting: str = None  # of a SettingError
    index: int = None


NET = two_bus_network()
PAIR = WeightedGraph(2, ((0, 1, 1.0),))
WIDE_PAIR = WeightedGraph(2, ((0, 1, 2.0),))  # 2 * 1e308 overflows
DEC = ControllerSpec(kind=DEC_PI, kp=np.ones(2), ki=np.ones(2))
# gamma left open, as while a value is still being chosen
DIST = ControllerSpec(kind=DIST_PI, kp=np.ones(2), ki=np.ones(2), comm=PAIR)
# a four-bus path whose two outer lines couple at 1e23 W/rad and whose middle one at 1 W/rad
STIFF_PATH = PowerNetwork(inertia=np.ones(4), damping=np.ones(4), voltage=np.full(4, 1e3),
                          power=np.zeros(4), lines=((0, 1, 1e17), (1, 2, 1e-6), (2, 3, 1e17)))
SCHEDULE_RULE = "schedule must start at t = 0 with strictly increasing times below t_end"


def rk4(*schedule, matrix=np.eye(2), x0=np.zeros(2), t_end=1.0, h=0.1):
    """integrate_rk4 on two states; schedule defaults to one zero offset."""
    return integrate_rk4(matrix, x0, list(schedule) or [(0.0, np.zeros(2))], t_end, h)


def loop(ctrl=DEC, eta=None):
    """The closed loop of the unit two-bus network under ctrl."""
    return close_loop(NET, ctrl, eta=eta)


REFUSALS = [
    # graphs
    Refusal("graph-no-nodes", lambda: WeightedGraph(0, ()), ValueError,
            "graph needs at least one node, got 0"),
    Refusal("graph-self-loop", lambda: WeightedGraph(2, ((0, 0, 1.0),)), SettingError,
            "edge (0, 0) is a self-loop", "edges", 0),
    Refusal("graph-endpoint-out-of-range", lambda: WeightedGraph(2, ((0, 2, 1.0),)), SettingError,
            "edge (0, 2) references a node outside 0..1", "edges", 0),
    *(Refusal(f"graph-{name}-weight", lambda w=w: WeightedGraph(2, ((0, 1, w),)), SettingError,
              f"edge (0, 1) needs a positive finite weight, got {w}", "edges", 0)
      for name, w in [("zero", 0.0), ("negative", -1.0), ("infinite", np.inf), ("nan", np.nan)]),
    Refusal("graph-duplicate-pair", lambda: WeightedGraph(3, ((0, 1, 1.0), (1, 0, 2.0))),
            SettingError, "edge (1, 0) duplicates an earlier edge", "edges", 1),
    # node 1's degree 2e308 overflowed the Laplacian's diagonal with RuntimeWarnings
    Refusal("graph-degree-overflows", lambda: WeightedGraph(3, ((0, 1, 1e308), (1, 2, 1e308))),
            SettingError, "edge (1, 2) makes the weighted degree of an endpoint overflow", "edges",
            1),
    # networks; replace builds a new network, which validates again
    Refusal("network-power-length", lambda: replace(NET, power=[1.0]), ValueError,
            "power has 1 entries, expected 2"),
    Refusal("network-not-a-vector", lambda: replace(NET, inertia=np.ones((2, 2))), ValueError,
            "inertia must be a vector"),
    Refusal("network-negative-inertia", lambda: replace(NET, inertia=[1.0, -1.0]), ValueError,
            "all inertia values must be strictly positive"),
    *(Refusal(f"network-{field}-{bad}", lambda field=field, value=value:
              replace(NET, **{field: value}), ValueError, f"all {field} values must be finite")
      for field, bad, value in [
          ("power", "nan", [np.nan, 0.0]), ("power", "inf", [np.inf, 0.0]),
          ("inertia", "inf", [np.inf, 1.0]), ("damping", "nan", [1.0, np.nan]),
          ("voltage", "inf", [1e3, np.inf])]),
    *(Refusal(f"network-line-{name}", lambda w=w: replace(NET, lines=((0, 1, w),)), SettingError,
              f"edge (0, 1) needs a positive finite weight, got {w}", "edges", 0)
      for name, w in [("zero", 0.0), ("infinite", np.inf), ("nan", np.nan)]),
    Refusal("network-line-endpoint", lambda: replace(NET, lines=((0, 2, 1e-6),)), SettingError,
            "edge (0, 2) references a node outside 0..1", "edges", 0),
    # PowerNetwork names the line whose coupling |V_i||V_j| b (1e6 * 1e303 W/rad) overflows
    Refusal("network-coupling-overflows",
            lambda: replace(NET, lines=((0, 1, 1e303),), voltage=[1e3, 1e3]), SettingError,
            "edge (0, 1) gives a coupling |V_i||V_j| b that needs a positive finite weight, got "
            "inf", "edges", 0),
    Refusal("network-omega-ref-infinite", lambda: replace(NET, omega_ref=np.inf), ValueError,
            "omega_ref must be positive and finite"),
    Refusal("network-disconnected", lambda: replace(NET, lines=()), ValueError,
            "transmission network must be connected"),
    # controllers
    Refusal("controller-unknown-kind", lambda: ControllerSpec(kind="pid", kp=1.0), ValueError,
            "unknown controller kind 'pid', expected one of ('p', 'dec_pi', 'dist_pi')"),
    Refusal("controller-kp-not-a-vector", lambda: ControllerSpec(kind=P, kp=np.ones((2, 2))),
            ValueError, "kp must be a vector (diagonal of the proportional gain)"),
    *(Refusal(f"controller-kp-{name}", lambda kp=kp: ControllerSpec(kind=P, kp=kp), ValueError,
              "all proportional gains must be strictly positive")
      for name, kp in [("zero", 0.0), ("negative", -1.0)]),
    Refusal("controller-p-with-ki", lambda: ControllerSpec(kind=P, kp=1.0, ki=1.0), ValueError,
            "P controller takes no ki, gamma, or communication graph"),
    Refusal("controller-no-ki", lambda: ControllerSpec(kind=DEC_PI, kp=1.0), ValueError,
            "dec_pi controller requires integral gains ki"),
    Refusal("controller-negative-ki", lambda: ControllerSpec(kind=DEC_PI, kp=1.0, ki=-0.1),
            ValueError, "all integral gains must be strictly positive"),
    Refusal("controller-ki-shape",
            lambda: ControllerSpec(kind=DEC_PI, kp=np.ones(2), ki=np.ones(3)), ValueError,
            "ki shape (3,) does not match kp shape (2,)"),
    Refusal("controller-decentralized-with-gamma",
            lambda: ControllerSpec(kind=DEC_PI, kp=1.0, ki=1.0, gamma=0.5), ValueError,
            "decentralized PI takes no gamma or communication graph"),
    Refusal("controller-no-graph", lambda: replace(DIST, comm=None), ValueError,
            "distributed PI requires a communication graph"),
    *(Refusal(f"controller-{name}-gamma", lambda gamma=gamma: replace(DIST, gamma=gamma),
              ValueError, f"averaging gain gamma must be positive, got {gamma}")
      for name, gamma in [("zero", 0.0), ("negative", -1.0)]),
    Refusal("controller-graph-size", lambda: replace(DIST, kp=np.ones(3), ki=np.ones(3)),
            ValueError, "communication graph has 2 nodes but gains cover 3"),
    Refusal("controller-disconnected-graph", lambda: replace(DIST, comm=WeightedGraph(2, ())),
            ValueError, "communication graph must be connected"),
    Refusal("controller-cost-shape", lambda: replace(DEC, cost=np.ones(3)), ValueError,
            "cost coefficients must match the integral gains"),
    Refusal("controller-cost-not-positive", lambda: replace(DEC, cost=[1.0, -1.0]), ValueError,
            "cost coefficients must be strictly positive"),
    Refusal("controller-ki-not-one-over-cost", lambda: replace(DEC, ki=[2.0, 2.0], cost=[1.0, 1.0]),
            ValueError, "integral gains must equal 1 / cost"),
    # closed loops and their schedules
    Refusal("loop-node-count", lambda: loop(ControllerSpec(kind=P, kp=np.ones(3))), ValueError,
            "controller covers 3 nodes but the network has 2 buses"),
    Refusal("loop-without-gamma", lambda: loop(DIST), ValueError,
            "closing a distributed PI loop requires gamma"),
    Refusal("loop-eta-shape", lambda: loop(eta=[0.0, 0.0, 0.0]), ValueError,
            "eta shape (3,), expected (2,)"),
    Refusal("loop-power-shape", lambda: close_loop(NET, DEC, power=[0.0]), ValueError,
            "power shape (1,), expected (2,)"),
    # a load stage's M^-1 (p - D omega_ref) overflows at inertia 1e-10, unwarned
    Refusal("loop-stage-forcing-overflows",
            lambda: close_loop(replace(NET, inertia=[1e-10, 1.0]), DEC, power=[1e300, 0.0]),
            SettingError, "the swing form's M^-1 (p - D omega_ref) is not finite", "power", 0),
    Refusal("loop-stage-injection-infinite", lambda: close_loop(NET, DEC, power=[0.0, np.inf]),
            SettingError, "the net injection is not finite", "power", 1),
    # at inertia 0.5 the gain blocks overflowed with a RuntimeWarning, and
    # the check after them ended in "SVD did not converge"
    Refusal("loop-kp-block-overflows",
            lambda: close_loop(replace(NET, inertia=[0.5, 1.0]),
                               ControllerSpec(kind=P, kp=np.full(2, 1e308))),
            SettingError, "the closed loop's M^-1 (D + Kp) is not finite", "kp", 0),
    Refusal("loop-ki-block-overflows",
            lambda: close_loop(replace(NET, inertia=[1.0, 0.5]), replace(DEC, ki=[1.0, 1e308])),
            SettingError, "the closed loop's M^-1 Ki is not finite", "ki", 1),
    # Kp eta overflowed with RuntimeWarnings into the loop's offset and forcing
    Refusal("loop-control-offset-overflows",
            lambda: close_loop(NET, ControllerSpec(kind=P, kp=[1e308, 1.0]), eta=[10.0, 0.0]),
            SettingError, "the control offset Kp eta is not finite", "eta", 0),
    Refusal("loop-offset-forcing-overflows",
            lambda: close_loop(replace(NET, inertia=[0.5, 1.0]),
                               ControllerSpec(kind=P, kp=[5e307, 1.0]), eta=[2.0, 0.0]),
            SettingError, "the closed loop's M^-1 Kp eta is not finite", "eta", 0),
    # M^-1 (p - D omega_ref) = -1.5e308 and M^-1 Kp eta = -1e308 are finite, their sum is not
    Refusal("loop-offset-and-load-forcing-overflows",
            lambda: close_loop(NET, ControllerSpec(kind=P, kp=[1.0, 1e308]), eta=[0.0, 1.0],
                               power=[0.0, -1.5e308]),
            SettingError, "the closed loop's M^-1 (p - D omega_ref - Kp eta) is not finite", "eta",
            1),
    # gamma Lc overflowed in the loop matrix: RuntimeWarnings, then "SVD did not converge"
    Refusal("loop-gamma-overflows",
            lambda: loop(replace(DIST, gamma=1e308, comm=WeightedGraph(2, ((0, 1, 2.0),)))),
            SettingError, "the product gamma Lc overflows; the averaging gain is too large for the "
            "communication weights", "gamma"),
    # a schedule is one loop and its stage forcings; integrate_rk4 keeps the time rules
    Refusal("schedule-empty", lambda: simulate_schedule([], loop(), 1.0), ValueError,
            SCHEDULE_RULE),
    Refusal("schedule-late-start",
            lambda: simulate_schedule([(0.5, loop().forcing_dev)], loop(), 1.0),
            ValueError, SCHEDULE_RULE),
    Refusal("schedule-unsorted",
            lambda: simulate_schedule([(t, loop().forcing_dev) for t in (0.0, 0.7, 0.3)],
                                      loop(), 1.0),
            ValueError, SCHEDULE_RULE),
    # the integrator
    Refusal("rk4-negative-step", lambda: rk4(h=-0.1), ValueError,
            "step size must be positive, got -0.1"),
    Refusal("rk4-matrix-not-square", lambda: rk4(matrix=np.ones((2, 3))), ValueError,
            "matrix must be square, got shape (2, 3)"),
    Refusal("rk4-x0-shape", lambda: rk4(x0=np.zeros(3)), ValueError,
            "x0 shape (3,) does not match state dimension 2"),
    Refusal("rk4-offset-shape", lambda: rk4((0.0, np.zeros(3))), ValueError,
            "offset shape (3,) does not match state dimension 2"),
    Refusal("rk4-later-offset-shape", lambda: rk4((0.0, np.zeros(2)), (0.5, np.zeros(3))),
            ValueError, "offset shape (3,) does not match state dimension 2"),
    Refusal("rk4-late-start", lambda: rk4((0.5, np.zeros(2))), ValueError, SCHEDULE_RULE),
    Refusal("rk4-equal-starts", lambda: rk4((0.0, np.zeros(2)), (0.0, np.ones(2))), ValueError,
            SCHEDULE_RULE),
    Refusal("rk4-last-segment-empty", lambda: rk4((0.0, np.zeros(2)), (1.0, np.ones(2))),
            ValueError, SCHEDULE_RULE),
    Refusal("rk4-negative-end", lambda: rk4(t_end=-1.0), ValueError, SCHEDULE_RULE),
    Refusal("rk4-nothing-to-integrate", lambda: rk4(t_end=0.0), ValueError, SCHEDULE_RULE),
    # 1e300 s at a 1e-10 s step ended in an OverflowError from int(inf)
    Refusal("rk4-step-count-not-finite",
            lambda: rk4((0.0, np.zeros(2)), (1.0, np.ones(2)), matrix=-np.eye(2), t_end=1e300,
                        h=1e-10),
            ValueError, "step 1e-10 s: a segment of 1e+300 s takes a non-finite number of steps"),
    # analysis; the rank test reads a plant x' = a x + b u, y = c x
    Refusal("rank-test-shapes", lambda: xi_rank_test([[-1.0, 0.0]], [[1.0], [1.0]], [[1.0, 1.0]]),
            ValueError, "a, b and c must be n x n, n x m and m x n, got (1, 2), (2, 1) and (1, 2)"),
    Refusal("rank-test-no-state-or-output",
            lambda: xi_rank_test(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0))),
            ValueError, "a plant with no state and no output has no test matrix"),
    Refusal("gamma-bar-decentralized", lambda: gamma_bar(NET, DEC), ValueError,
            "the averaging-gain bound applies to the distributed PI controller"),
    Refusal("gamma-bar-mismatched-communication-weights",
            lambda: gamma_bar(
                PowerNetwork(inertia=np.ones(4), damping=np.ones(4), voltage=np.full(4, 1e3),
                             power=np.zeros(4), lines=((0, 1, 1e-6), (1, 2, 1e-6), (2, 3, 1e-6))),
                ControllerSpec(kind=DIST_PI, kp=np.ones(4), ki=np.ones(4), comm=WeightedGraph(
                    4, ((0, 3, 0.4), (1, 2, 1.6), (1, 3, 7.6), (2, 3, 1.4))))),
            ValueError, "x^T Lk Lc x takes negative values (lambda_min = -1.210e+00); choose the "
            "communication weights proportional to the electrical coupling to satisfy the "
            "bound's precondition"),
    # a product that overflows is the gains' when D Lc alone is finite, and the network's
    # otherwise; each was an OverflowError that the file reader took apart again
    *(Refusal(f"gamma-bar-{name}-overflow", lambda net=net, ctrl=ctrl: gamma_bar(net, ctrl),
              SettingError, f"the product {product} overflows; {cause} too large for the "
              "averaging-gain bound", setting)
      for name, net, ctrl, product, cause, setting in [
          ("gains", NET, replace(DIST, kp=[1e308, 1.0], comm=WIDE_PAIR), "(D + Kp) Lc",
           "the damping and proportional gains are", "kp"),
          ("damping", replace(NET, damping=[1e305, 1.0]),
           replace(DIST, comm=WeightedGraph(2, ((0, 1, 1e4),))),
           "(D + Kp) Lc", "the damping and proportional gains are", "network"),
          ("couplings", replace(NET, lines=((0, 1, 1e194),)),
           replace(DIST, comm=WeightedGraph(2, ((0, 1, 1e200),))),
           "Lk Lc of the coupling and communication Laplacians", "the couplings are", "network"),
          ("inertias", replace(NET, inertia=[1e308, 1.0]), replace(DIST, comm=WIDE_PAIR), "M Lc",
           "the inertias are", "network")]),
    *(Refusal(f"stationary-eta-{name}",
              lambda ctrl=ctrl: stationary_state(NET, ctrl, eta=np.zeros(2)),
              ValueError, "the stationary point under eta needs the distributed PI controller "
              "with gamma set")
      for name, ctrl in [("decentralized", DEC), ("p", ControllerSpec(kind=P, kp=np.ones(2))),
                         ("open-gamma", DIST)]),
    Refusal("stationary-eta-shape",
            lambda: stationary_state(NET, replace(DIST, gamma=1.0), eta=[0.0]),
            ValueError, "eta shape (1,), expected (2,)"),
    Refusal("stationary-power-shape", lambda: stationary_state(NET, DEC, power=np.zeros(3)),
            ValueError, "power shape (3,), expected (2,)"),
    # the bordered solve printed NaN inputs here, and its run left the integrator's range
    Refusal("stationary-consensus-overflows",
            lambda: stationary_state(NET, replace(DEC, ki=[1e-320, 1e-320])), SettingError,
            "the stationary point's consensus -sum(p - D omega_ref) / sum(Ki) is not finite",
            "ki"),
    Refusal("stationary-frequency-offset-overflows",
            lambda: stationary_state(replace(NET, damping=[1e-300, 1e-300], power=[1e300, 1e300]),
                                     ControllerSpec(kind=P, kp=[1e-300, 1e-300])), SettingError,
            "the stationary point's frequency offset sum(p - D omega_ref) / sum(D + Kp) is not "
            "finite", "kp"),
    # two stiff lines apart: grounding an end of one leaves the other's rows, [1e23, -1e23]
    # and [-1e23, 1e23 + 1] = [-1e23, 1e23] in float64, singular
    Refusal("stationary-force-balance-singular",
            lambda: stationary_state(STIFF_PATH, ControllerSpec(kind=P, kp=np.ones(4))),
            SettingError, "float64 cannot resolve the stationary point (Singular matrix)",
            "network"),
    # flows of 1e10 W over a coupling of 1e-300 W/rad need angles beyond float64
    Refusal("stationary-angles-overflow",
            lambda: stationary_state(replace(NET, lines=((0, 1, 1e-306),), power=[1e10, -1e10]),
                                     DEC),
            SettingError, "float64 cannot resolve the stationary point (the solution is not "
            "finite)", "network"),
    # the integrators' spread (mean(eta) - eta) / (gamma Lc) is beyond float64 at gamma 1e-320
    Refusal("stationary-spread-overflows",
            lambda: stationary_state(NET, replace(DIST, gamma=1e-320), eta=[0.1, 0.0]),
            SettingError, "float64 cannot resolve the stationary point (the solution is not "
            "finite)", "gamma"),
]


@pytest.mark.parametrize("row", REFUSALS, ids=[row.id for row in REFUSALS])
def test_refusal(row):
    with pytest.raises(row.error) as err:
        row.call()
    placed = (getattr(err.value, "setting", None), getattr(err.value, "index", None))
    assert (err.type, str(err.value), *placed) == (row.error, row.message, row.setting, row.index)
