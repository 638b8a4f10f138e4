"""Network/scenario file parsing, orchestration, CSV traces, and the CLI."""

from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gridpi
from gridpi import scenario as scenario_mod
from gridpi import ParseError, load_network, load_scenario, read_trace_csv, run_scenario
from gridpi.cli import main as cli_main
from support import bundled

TWO_PI = 2.0 * np.pi
GOLDEN = Path(__file__).parent / "golden"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


MINIMAL_GRID = """\
schema = 1
[network]
frequency_hz = 50.0
[defaults]
inertia = 2.0
damping = 0.5
voltage_kv = 10.0
load_kw = 0.0
[buses]
1
2 load_kw=40.0
3 inertia=4.0
[lines]
1 2 2.0e-7
2 3 2.0e-7
"""


def quiet_scenario(tmp_path, extra="", kind="dist_pi", gamma="auto"):
    write(tmp_path / "net.grid", MINIMAL_GRID)
    controller = {
        "dist_pi": f"kind = dist_pi\nkp = 5.0\nki = 2.0\ngamma = {gamma}",
        "dec_pi": "kind = dec_pi\nkp = 5.0\nki = 2.0",
        "p": "kind = p\nkp = 5.0",
    }[kind]
    return write(tmp_path / "quiet.scn", f"""\
schema = 1
[scenario]
network = net.grid
horizon_s = 5.0
step_s = 0.01
output_every_s = 0.1
[controller]
{controller}
{extra}
""")


# ---------------------------------------------------------------------------
# network files
# ---------------------------------------------------------------------------

def test_network_defaults_overrides_and_unit_conversions(tmp_path):
    loaded = load_network(write(tmp_path / "n.grid", MINIMAL_GRID))
    net = loaded.net
    assert loaded.bus_ids == (1, 2, 3)
    assert_allclose(net.inertia, [2.0, 2.0, 4.0])
    assert_allclose(net.damping, [0.5, 0.5, 0.5])
    assert_allclose(net.voltage, [1.0e4, 1.0e4, 1.0e4])      # kV -> V
    assert_allclose(net.power, [0.0, -4.0e4, 0.0])           # 40 kW load -> -40 kW net
    assert_allclose(net.omega_ref, TWO_PI * 50.0)
    # coupling: (1e4)^2 * 2e-7 = 20 W/rad
    assert_allclose(net.coupling_laplacian()[0, 1], -20.0)


def test_bundled_networks_load():
    for name, buses in (("net2.grid", 2), ("net5ring.grid", 5), ("net30.grid", 30)):
        loaded = load_network(bundled(name))
        assert loaded.net.n_buses == buses
    net30 = load_network(bundled("net30.grid")).net
    # every nonzero Laplacian eigenvalue of the complete uniform graph is n*k
    eigs = np.linalg.eigvalsh(net30.coupling_laplacian())
    assert_allclose(eigs[1:], eigs[-1], rtol=1e-9)


@pytest.mark.parametrize("mutation, lineno", [
    ("schema = 1", None),                          # dropped entirely below
    ("schema = 2", 1),
    ("1 2 2.0e-7", None),
])
def test_schema_is_checked(tmp_path, mutation, lineno):
    if mutation == "schema = 2":
        text = MINIMAL_GRID.replace("schema = 1", "schema = 2")
    else:
        text = MINIMAL_GRID.replace("schema = 1\n", "")
    with pytest.raises(ParseError) as err:
        load_network(write(tmp_path / "bad.grid", text))
    assert "schema" in str(err.value)


def test_parse_errors_carry_file_and_line(tmp_path):
    text = MINIMAL_GRID.replace("2 3 2.0e-7", "2 9 2.0e-7")
    with pytest.raises(ParseError) as err:
        load_network(write(tmp_path / "bad.grid", text))
    assert str(err.value).startswith(str(tmp_path / "bad.grid") + ":15:")
    assert "unknown bus id 9" in str(err.value)


@pytest.mark.parametrize("before, after, needle", [
    ("2 load_kw=40.0", "2 load_kw=forty", "expected a number"),
    ("2 load_kw=40.0", "1 load_kw=40.0", "duplicate bus id"),
    ("2 load_kw=40.0", "2 color=red", "unknown bus field"),
    ("1 2 2.0e-7", "1 2", "expected: <bus id> <bus id> <susceptance_s>"),
    ("damping = 0.5", "dampening = 0.5", "unknown default"),
    ("2 3 2.0e-7", "2 1 2.0e-7", "bad.grid:15: lines: edge 2 1 duplicates an earlier edge"),
    ("3 inertia=4.0", "3 inertia=-1.0", "bad.grid:12: inertia of bus 3 must be strictly positive, got -1"),
    ("damping = 0.5", "damping = 0.0", "bad.grid:6: damping of bus 1 must be strictly positive, got 0"),
    ("voltage_kv = 10.0", "voltage_kv = -10.0",
     "bad.grid:7: voltage_kv of bus 1 must be strictly positive, got -10"),
])
def test_network_diagnostics(tmp_path, before, after, needle):
    with pytest.raises(ParseError) as err:
        load_network(write(tmp_path / "bad.grid", MINIMAL_GRID.replace(before, after)))
    assert needle in str(err.value)


def test_missing_bus_value_without_default(tmp_path):
    text = MINIMAL_GRID.replace("inertia = 2.0\n", "")
    with pytest.raises(ParseError) as err:
        load_network(write(tmp_path / "bad.grid", text))
    assert "missing 'inertia'" in str(err.value)


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

def test_scenario_parsing_and_conversions(tmp_path):
    write(tmp_path / "net.grid", MINIMAL_GRID)
    scn = load_scenario(write(tmp_path / "s.scn", """\
schema = 1
[scenario]
network = net.grid
horizon_s = 20.0
step_s = 0.002
settle_tol_hz = 5.0e-3
[controller]
kind = dist_pi
kp = 1.0 2.0 3.0
ki = 4.0
gamma = 0.7
comm_topology = edges
[comm_edges]
1 2 1.5
2 3 0.5
[disturbances]
4.0 3 -12.5
1.0 2 30.0
[noise]
2 0.01
[outputs]
trace_csv = out/run.csv
"""))
    assert scn.kind == gridpi.DIST_PI
    assert_allclose(scn.kp, [1.0, 2.0, 3.0])
    assert_allclose(scn.ki, [4.0, 4.0, 4.0])
    assert scn.gamma_request == 0.7
    assert scn.comm.n_edges == 2
    # schedule sorted by time, kW -> W with the consumption sign flipped
    assert scn.schedule == ((1.0, 1, -30.0e3), (4.0, 2, 12.5e3))
    assert_allclose(scn.eta, [0.0, TWO_PI * 0.01, 0.0])
    assert scn.horizon == 20.0
    assert scn.trace_csv.endswith("out/run.csv")


def test_bundled_scenarios_load():
    for name in ("dist30_step.scn", "dec30_bias.scn", "ring_share.scn"):
        scn = load_scenario(bundled(name))
        assert scn.network.net.n_buses in (5, 30)
    share = load_scenario(bundled("ring_share.scn"))
    assert_allclose(share.ki * share.cost, np.ones(5))


@pytest.mark.parametrize("before, after, needle", [
    ("kind = dist_pi", "kind = fuzzy", "unknown controller kind"),
    ("gamma = 0.7", "gamma = -1.0", "gamma must be positive"),
    ("comm_topology = edges", "comm_topology = ring", "comm_topology must be"),
    ("4.0 3 -12.5", "40.0 3 -12.5", "beyond the horizon"),
    ("4.0 3 -12.5", "-1.0 3 -12.5", "must be >= 0"),
    ("4.0 3 -12.5", "4.0 8 -12.5", "bus id 8"),
    ("2 0.01", "9 0.01", "unknown bus id"),
    ("2 3 0.5", "2 99 0.5", "bad.scn:13: comm_edges: unknown bus id 99"),
    ("ki = 4.0", "ki = 4.0 5.0", "expected 1 or 3 values"),
    ("horizon_s = 20.0", "horizon_s = inf", "horizon_s: expected a finite number"),
    ("4.0 3 -12.5", "4.0 3 nan", "load_delta_kw: expected a finite number"),
    ("2 3 0.5", "2 1 0.5", "bad.scn:13: comm_edges: edge 2 1 duplicates an earlier edge"),
    ("2 3 0.5", "3 3 0.5", "bad.scn:13: comm_edges: edge 3 3 is a self-loop"),
], ids=["kind", "gamma", "topology", "late", "negative-time", "bad-bus",
        "noise-bus", "comm-bus", "gain-arity", "infinite-horizon", "nan-load",
        "comm-reversed-duplicate", "comm-self-loop"])
def test_scenario_diagnostics(tmp_path, before, after, needle):
    write(tmp_path / "net.grid", MINIMAL_GRID)
    base = """\
schema = 1
[scenario]
network = net.grid
horizon_s = 20.0
[controller]
kind = dist_pi
kp = 1.0
ki = 4.0
gamma = 0.7
comm_topology = edges
[comm_edges]
1 2 1.5
2 3 0.5
[disturbances]
4.0 3 -12.5
[noise]
2 0.01
"""
    with pytest.raises(ParseError) as err:
        load_scenario(write(tmp_path / "bad.scn", base.replace(before, after)))
    assert needle in str(err.value)


def test_ki_and_cost_are_mutually_exclusive(tmp_path):
    write(tmp_path / "net.grid", MINIMAL_GRID)
    with pytest.raises(ParseError) as err:
        load_scenario(write(tmp_path / "bad.scn", """\
schema = 1
[scenario]
network = net.grid
[controller]
kind = dec_pi
kp = 1.0
ki = 4.0
cost_coeffs = 0.25
"""))
    assert "not both" in str(err.value)


def test_gamma_rejected_for_decentralized(tmp_path):
    write(tmp_path / "net.grid", MINIMAL_GRID)
    with pytest.raises(ParseError) as err:
        load_scenario(write(tmp_path / "bad.scn", """\
schema = 1
[scenario]
network = net.grid
[controller]
kind = dec_pi
kp = 1.0
ki = 4.0
gamma = 0.5
"""))
    assert "dist_pi" in str(err.value)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def test_quiet_scenario_stays_settled(tmp_path):
    scn = load_scenario(quiet_scenario(tmp_path))
    result = run_scenario(scn)
    assert result.settled
    assert not result.trace.diverged
    assert result.analysis.positive
    assert result.csv_path is None
    # no disturbance, no noise: parked at 50 Hz throughout
    assert np.max(np.abs(result.omega_hz - 50.0)) < 1e-9
    assert result.omega_hat_hz == 50.0


def test_gamma_auto_uses_half_the_bound(tmp_path):
    scn = load_scenario(quiet_scenario(tmp_path))
    result = run_scenario(scn)
    assert_allclose(result.analysis.gamma_used,
                    result.analysis.gamma_bound.gamma_bar / 2.0, rtol=1e-12)


def test_horizon_and_tolerance_overrides(tmp_path):
    scn = load_scenario(quiet_scenario(tmp_path))
    result = run_scenario(scn, horizon=1.0)
    assert result.trace.times[-1] == 1.0


def test_decentralized_scenario_reports_failed_rank(tmp_path):
    scn = load_scenario(quiet_scenario(tmp_path, kind="dec_pi"))
    result = run_scenario(scn)
    assert result.analysis.rank is not None
    assert not result.analysis.rank.full_rank
    assert not result.analysis.positive
    assert result.analysis.verdict_reasons()
    assert result.analysis.prediction is None


def test_load_step_moves_the_operating_point(tmp_path):
    # the generous gamma keeps the consensus redistribution fast enough
    # to settle well inside the shortened horizon
    scn = load_scenario(quiet_scenario(tmp_path, gamma="0.5",
                                       extra="[disturbances]\n1.0 2 25.0\n"))
    result = run_scenario(scn, horizon=40.0)
    u = result.trace.controls
    # pre-step: damping compensation plus the 40 kW base load of bus 2
    net = scn.network.net
    comp = net.omega_ref * net.damping.sum()
    assert_allclose(u[0].sum(), comp + 4.0e4, rtol=1e-9)
    assert_allclose(u[-1].sum(), comp + 4.0e4 + 25.0e3, rtol=1e-6)
    assert result.settled


# ---------------------------------------------------------------------------
# CSV traces
# ---------------------------------------------------------------------------

def test_trace_round_trips_bit_exact(tmp_path):
    scn = load_scenario(quiet_scenario(tmp_path, extra="[noise]\n1 0.02\n"))
    out = tmp_path / "trace.csv"
    result = run_scenario(scn, csv_path=str(out))
    assert result.csv_path == str(out)
    header, data = read_trace_csv(str(out))
    assert header[0] == "time"
    assert header[1:4] == ["omega_1_hz", "omega_2_hz", "omega_3_hz"]
    assert header[4:7] == ["u_1_w", "u_2_w", "u_3_w"]
    assert header[7:10] == ["z_1", "z_2", "z_3"]
    # stride 0.1 s at a 0.01 s step: rows 0, 10, ..., 500
    assert data.shape == (51, 10)
    picks = np.arange(0, 501, 10)
    assert np.array_equal(data[:, 0], result.trace.times[picks])
    assert np.array_equal(data[:, 1:4], result.omega_hz[picks])
    assert np.array_equal(data[:, 4:7], result.trace.controls[picks])


def test_trace_always_includes_the_endpoint(tmp_path):
    scn = load_scenario(quiet_scenario(tmp_path))
    out = tmp_path / "t.csv"
    run_scenario(scn, horizon=0.55, csv_path=str(out))
    _, data = read_trace_csv(str(out))
    assert data[-1, 0] == 0.55


def test_step_override_keeps_the_output_spacing(tmp_path):
    scn = load_scenario(quiet_scenario(tmp_path))
    out = tmp_path / "fine.csv"
    result = run_scenario(scn, horizon=1.0, step=scn.step / 4, csv_path=str(out))
    _, data = read_trace_csv(str(out))
    # 0.1 s apart at a 0.0025 s step: rows 0, 40, ..., 400
    assert result.trace.times.shape[0] == 401
    assert np.array_equal(data[:, 0], result.trace.times[::40])
    assert_allclose(np.diff(data[:, 0]), scn.output_every, rtol=1e-9)


def test_csv_rows_match_per_value_formatting(tmp_path):
    scn = load_scenario(quiet_scenario(tmp_path))
    result = run_scenario(scn, horizon=0.1, csv_path="")
    loop = gridpi.close_loop(gridpi.swing_to_lti(scn.network.net), result.analysis.controller)
    # subnormal, signed zero, negative, integer-valued and 17-digit values
    special = np.array([5e-324, -2.5e-310, -0.0, 0.0, 3.0, -7.0, 2.0 ** 53,
                        -1.0 / 3.0, 1e-300, 123456789.0, 0.1, -1e16])
    rows = result.trace.times.shape[0]
    trace = gridpi.SimulationTrace(
        times=np.arange(rows, dtype=float),
        states=np.resize(special, (rows, loop.dim)),
        outputs=result.trace.outputs,
        controls=np.resize(special[::-1], (rows, 3)),
        diverged=False,
    )
    omega_hz = np.resize(np.roll(special, 5), (rows, 3))
    out = tmp_path / "special.csv"
    # a step equal to output_every writes every row
    scenario_mod.write_trace_csv(str(out), scn, loop, trace, omega_hz, scn.output_every)
    table = np.hstack([trace.times[:, None], omega_hz, trace.controls,
                       trace.states[:, loop.state_layout["z"]]])
    header = out.read_text(encoding="utf-8").split("\n", 1)[0]
    expected = [header] + [",".join("%.17g" % value for value in row) for row in table]
    assert out.read_text(encoding="utf-8") == "\n".join(expected) + "\n"


def test_proportional_trace_has_no_integrator_columns(tmp_path):
    scn = load_scenario(quiet_scenario(tmp_path, kind="p"))
    out = tmp_path / "p.csv"
    run_scenario(scn, csv_path=str(out))
    header, data = read_trace_csv(str(out))
    assert len(header) == 7  # time + 3 omega + 3 u
    assert data.shape[1] == 7


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_simulate_quiet(tmp_path, capsys):
    scn_path = quiet_scenario(tmp_path)
    code = cli_main(["simulate", scn_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "settled: yes" in out
    assert "verdict: positive" in out


def test_cli_simulate_writes_requested_trace(tmp_path, capsys):
    scn_path = quiet_scenario(tmp_path)
    target = tmp_path / "cli_trace.csv"
    code = cli_main(["simulate", scn_path, "--output", str(target), "--horizon", "1.0"])
    assert code == 0
    assert target.exists()
    assert "trace written" in capsys.readouterr().out


def test_cli_analyze_negative_verdict_exits_one(tmp_path, capsys):
    scn_path = quiet_scenario(tmp_path, kind="dec_pi")
    code = cli_main(["analyze", scn_path])
    out = capsys.readouterr().out
    assert code == 1
    assert "rank test" in out
    assert "verdict: negative" in out


@pytest.mark.parametrize("name, status", [
    ("ring_share", 0), ("dist30_step", 0), ("dec30_bias", 1),
])
def test_cli_analyze_output_of_the_bundled_scenarios_is_pinned(capsys, name, status):
    # the README quotes these lines; tests/golden holds them byte for byte
    code = cli_main(["analyze", bundled(f"{name}.scn")])
    golden = (GOLDEN / f"analyze_{name}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden
    assert code == status


def test_cli_rank_test(capsys):
    code = cli_main(["rank-test", bundled("net2.grid"), "--ki", "1.0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "deficiency 2" in out


def test_cli_gamma_bound(capsys):
    code = cli_main(["gamma-bound", bundled("net2.grid"), "--kp", "1.0", "--ki", "1.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "gamma_bar = 0.5" in out


def test_cli_parse_failure_exits_two(tmp_path, capsys):
    bad = write(tmp_path / "bad.scn", "schema = 3\n")
    code = cli_main(["simulate", bad])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_an_infinite_horizon_override(tmp_path, capsys):
    code = cli_main(["simulate", quiet_scenario(tmp_path), "--horizon", "inf"])
    assert code == 2
    assert "horizon must be a positive finite number" in capsys.readouterr().err


def test_step_outside_the_rk4_stability_region_is_refused(capsys):
    # at 0.5 s RK4 amplifies the ring's fastest decaying mode; integrated
    # anyway, the run reached 7e16 Hz in 6 steps and ended as "not settled"
    scn = load_scenario(bundled("ring_share.scn"))
    with pytest.raises(ValueError, match="outside the RK4 stability region") as err:
        run_scenario(scn, step=0.5, csv_path="")
    assert ("mode lambda = -124.572+0j 1/s has |R(h lambda)| = 588728 >= 1; "
            "a step of 0.015625 s passes") in str(err.value)
    # the suggested step is the largest halving that passes ...
    with pytest.raises(ValueError, match="outside the RK4 stability region"):
        run_scenario(scn, step=0.03125, csv_path="")
    # ... and tracks the scenario's own 2 ms step
    coarse = run_scenario(scn, step=0.015625, horizon=20.0, csv_path="")
    fine = run_scenario(scn, horizon=20.0, csv_path="")
    assert not coarse.trace.diverged
    assert_allclose(coarse.omega_hz[-1], fine.omega_hz[-1], atol=1e-6)

    assert cli_main(["simulate", bundled("ring_share.scn"), "--step", "0.5", "--output", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a step of 0.015625 s passes" in captured.err


def test_cli_missing_file_exits_two(tmp_path, capsys):
    code = cli_main(["simulate", str(tmp_path / "nope.scn")])
    assert code == 2


def test_cli_bad_gain_string_exits_two(capsys):
    cases = [
        (["rank-test", bundled("net2.grid"), "--ki", "abc"], "--ki: expected a number"),
        (["rank-test", bundled("net2.grid"), "--ki", "inf"], "--ki: expected a finite number"),
        (["rank-test", bundled("net2.grid"), "--ki", "1, nan"], "--ki: expected a finite number"),
        (["rank-test", bundled("net2.grid"), "--ki", ""], "--ki: empty value"),
        (["gamma-bound", bundled("net2.grid"), "--kp", "inf", "--ki", "1"],
         "--kp: expected a finite number"),
        (["gamma-bound", bundled("net2.grid"), "--kp", "1", "--ki", " , "], "--ki: empty value"),
        (["rank-test", bundled("net2.grid"), "--ki", "0"], "integral gains must be strictly positive"),
        (["gamma-bound", bundled("net2.grid"), "--kp", "-1", "--ki", "1"],
         "all proportional gains must be strictly positive"),
    ]
    for argv, needle in cases:
        code = cli_main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert needle in captured.err, argv
        assert captured.out == "", argv
