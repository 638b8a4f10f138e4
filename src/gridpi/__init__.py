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
    stationary_state,
    xi_rank_test,
)
from .control import (
    DEC_PI,
    DIST_PI,
    KINDS,
    P,
    ControllerSpec,
)
from .graph import WeightedGraph
from .numerics import SimulationTrace, integrate_rk4
from .scenario import (
    LoadedNetwork,
    ParseError,
    Scenario,
    ScenarioResult,
    analyze_scenario,
    load_network,
    load_scenario,
    run_scenario,
)
from .sysmodel import (
    ClosedLoop,
    PowerNetwork,
    close_loop,
    simulate_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "ClosedLoop",
    "ControllerSpec",
    "DEC_PI",
    "DIST_PI",
    "GammaBound",
    "KINDS",
    "LoadedNetwork",
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
    "gamma_bar",
    "gamma_star_search",
    "integrate_rk4",
    "load_network",
    "load_scenario",
    "output_stability_check",
    "run_scenario",
    "simulate_schedule",
    "stationary_state",
    "xi_rank_test",
]
