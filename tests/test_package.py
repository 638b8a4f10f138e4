"""The public surface of the package."""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import gridpi

PUBLIC_NAMES = [
    "ClosedLoop", "ControllerSpec", "DEC_PI", "DIST_PI", "GammaBound",
    "KINDS", "LoadedNetwork", "P",
    "ParseError", "PowerNetwork", "Scenario", "ScenarioResult", "SimulationTrace",
    "StabilityReport", "SteadyStatePrediction", "WeightedGraph", "XiRankResult",
    "analyze_scenario", "close_loop",
    "gamma_bar", "gamma_star_search", "integrate_rk4",
    "load_network", "load_scenario", "output_stability_check",
    "run_scenario", "simulate_schedule", "stationary_state", "xi_rank_test",
]


def test_all_lists_exactly_the_public_names_and_each_resolves():
    # a name added to or dropped from the surface has to change this list
    assert sorted(gridpi.__all__) == PUBLIC_NAMES
    assert len(set(gridpi.__all__)) == len(PUBLIC_NAMES) == 29
    for name in PUBLIC_NAMES:
        assert getattr(gridpi, name) is not None, name


def test_only_the_validated_inputs_are_dataclasses():
    # the three types whose __post_init__ validates stay dataclasses (callers
    # dataclasses.replace them); every other public record is a named tuple
    public = [getattr(gridpi, name) for name in PUBLIC_NAMES]
    types = [t for t in public if isinstance(t, type) and not issubclass(t, Exception)]
    validated = sorted(t.__name__ for t in types if dataclasses.is_dataclass(t))
    assert validated == ["ControllerSpec", "PowerNetwork", "WeightedGraph"]
    records = [t for t in types if not dataclasses.is_dataclass(t)]
    records += [gridpi.analysis.ZeroMode, gridpi.scenario.AnalysisReport]  # reached as fields
    assert len(records) == 11
    for record in records:
        assert issubclass(record, tuple), record.__name__


def test_a_run_takes_its_settings_from_the_scenario_record_alone():
    # a shorter or finer run is run_scenario(scn._replace(horizon=..., step=...));
    # the CSV destination is the caller's argument and is not echoed back
    assert list(inspect.signature(gridpi.run_scenario).parameters) == ["scn", "csv_path"]
    assert "trace_csv" not in gridpi.Scenario._fields
    assert "csv_path" not in gridpi.ScenarioResult._fields


def test_importing_the_cli_leaves_logging_out():
    # the CLI's start-up cost: beyond what the bare interpreter holds, only the
    # standard library (logging not even), numpy and gridpi, so no test extra
    code = ("import sys; bare = set(sys.modules); import gridpi.cli; "
            "allowed = sys.stdlib_module_names | {'numpy', 'gridpi'}; "
            "print(sorted(m for m in set(sys.modules) - bare if m.split('.')[0] not in allowed)); "
            "print('logging' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(gridpi.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\nFalse\n"


def test_table_row_ids_are_unique():
    # pytest would suffix a repeated id, and a folded test's successor is its row id
    import test_analysis, test_cli, test_numerics, test_refusals, test_scenario, test_sysmodel
    tables = (test_cli.CASES, test_refusals.REFUSALS, test_analysis.VERDICTS, test_numerics.RUNS,
              test_scenario.SCENARIO_RUNS, test_scenario.FILE_REFUSALS, test_sysmodel.LOOPS)
    for rows in tables:
        ids = [row.id for row in rows]
        assert len(set(ids)) == len(ids), [i for i in ids if ids.count(i) > 1]
