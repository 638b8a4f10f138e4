"""Simulation and analysis of distributed PI frequency control.

The package models a synchronous power network as a linear second-order
swing system, closes the loop with proportional, decentralized PI, or
distributed-averaging PI controllers, and provides the analysis tools
that go with them: an integral-action feasibility (rank) test, an output
stability check that discounts the unobservable angle-translation mode,
a sufficient bound on the consensus gain, and closed-form steady-state
predictions.  Scenario files drive reproducible simulations from the
command line (`gridpi simulate ...`).
"""

from .analysis import (
    GammaBound,
    StabilityReport,
    SteadyStatePrediction,
    XiRankResult,
    gamma_bar,
    gamma_star_search,
    output_stability_check,
    predict_steady_state,
    stability_cubic,
    stationary_state,
    xi_rank_test,
)
from .control import (
    DEC_PI,
    DIST_PI,
    KINDS,
    P,
    ControllerSpec,
    control_output,
    gains_from_cost,
)
from .graph import WeightedGraph, is_connected, laplacian
from .numerics import (
    IntegrationResult,
    integrate_rk4,
    numerical_rank,
)
from .scenario import (
    LoadedNetwork,
    ParseError,
    Scenario,
    ScenarioResult,
    analyze_scenario,
    load_network,
    load_scenario,
    read_trace_csv,
    run_scenario,
)
from .sysmodel import (
    ClosedLoop,
    LtiSystem,
    PowerNetwork,
    SimulationTrace,
    close_loop,
    simulate,
    simulate_schedule,
    swing_to_lti,
)

__version__ = "0.1.0"

__all__ = [
    "ClosedLoop",
    "ControllerSpec",
    "DEC_PI",
    "DIST_PI",
    "GammaBound",
    "IntegrationResult",
    "KINDS",
    "LoadedNetwork",
    "LtiSystem",
    "P",
    "ParseError",
    "PowerNetwork",
    "Scenario",
    "ScenarioResult",
    "SimulationTrace",
    "StabilityReport",
    "SteadyStatePrediction",
    "WeightedGraph",
    "XiRankResult",
    "analyze_scenario",
    "close_loop",
    "control_output",
    "gains_from_cost",
    "gamma_bar",
    "gamma_star_search",
    "integrate_rk4",
    "is_connected",
    "laplacian",
    "load_network",
    "load_scenario",
    "numerical_rank",
    "output_stability_check",
    "predict_steady_state",
    "read_trace_csv",
    "run_scenario",
    "simulate",
    "simulate_schedule",
    "stability_cubic",
    "stationary_state",
    "swing_to_lti",
    "xi_rank_test",
]
