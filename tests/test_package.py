"""The public surface of the package."""

import gridpi

PUBLIC_NAMES = [
    "ClosedLoop", "ControllerSpec", "DEC_PI", "DIST_PI", "GammaBound",
    "KINDS", "LoadedNetwork", "LtiSystem", "P",
    "ParseError", "PowerNetwork", "Scenario", "ScenarioResult", "SimulationTrace",
    "StabilityReport", "SteadyStatePrediction", "WeightedGraph", "XiRankResult",
    "analyze_scenario", "close_loop",
    "gamma_bar", "gamma_star_search", "integrate_rk4", "is_connected", "laplacian",
    "load_network", "load_scenario", "numerical_rank", "output_stability_check",
    "predict_steady_state", "run_scenario", "simulate",
    "simulate_schedule", "stability_cubic", "stationary_state", "swing_to_lti",
    "xi_rank_test",
]


def test_all_lists_exactly_the_public_names_and_each_resolves():
    # a name added to or dropped from the surface has to change this list
    assert sorted(gridpi.__all__) == PUBLIC_NAMES
    assert len(set(gridpi.__all__)) == len(PUBLIC_NAMES) == 37
    for name in PUBLIC_NAMES:
        assert getattr(gridpi, name) is not None, name
