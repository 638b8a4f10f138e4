"""Network/scenario file parsing, orchestration, CSV traces, and the CLI."""

import os
import shutil
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gridpi
from gridpi import scenario as scenario_mod
from gridpi import ParseError, load_network, load_scenario, run_scenario
from gridpi.cli import main as cli_main
from support import (BUS_KEYS, bundled, frequencies_hz, random_network, read_trace_csv,
                     scenario_inputs, write_network_file, write_scenario_file)

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
    ("3 inertia=4.0", "3 inertia=-1.0", "bad.grid:12: inertia of bus 3 must be positive"),
    ("damping = 0.5", "damping = 0.0", "bad.grid:6: damping of bus 1 must be positive"),
    ("voltage_kv = 10.0", "voltage_kv = -10.0",
     "bad.grid:7: voltage_kv of bus 1 must be positive"),
    ("frequency_hz = 50.0", "frequncy_hz = 60.0", "bad.grid:3: unknown [network] key 'frequncy_hz'"),
    ("schema = 1\n", "schema = 1\nfrequency_hz = 60.0\n",
     "bad.grid:2: unknown key 'frequency_hz' before the first section"),
    ("frequency_hz = 50.0", "frequency_hz = 1e308",
     "bad.grid:3: frequency_hz: 2*pi*1e308 rad/s is not finite"),
    # values that overflow in model units, at the line that sets them
    ("load_kw = 0.0", "load_kw = 1e306", "bad.grid:8: load_kw of bus 1: 1e3*1e306 W is not finite"),
    ("voltage_kv = 10.0", "voltage_kv = 1e306",
     "bad.grid:7: voltage_kv of bus 1: 1e3*1e306 V is not finite"),
    ("3 inertia=4.0", "3 inertia=4.0 load_kw=-1e306",
     "bad.grid:12: load_kw of bus 3: 1e3*-1e306 W is not finite"),
    # couplings |V_i||V_j| b that overflow or underflow, at their [lines] row
    ("voltage_kv = 10.0", "voltage_kv = 1e200",
     "bad.grid:14: lines: edge 1 2 gives a coupling |V_i||V_j| b that needs a positive "
     "finite weight, got inf"),
    ("voltage_kv = 10.0", "voltage_kv = 1e-200",
     "bad.grid:14: lines: edge 1 2 gives a coupling |V_i||V_j| b that needs a positive "
     "finite weight, got 0.0"),
    ("[buses]", "[buses", "bad.grid:9: unterminated section header"),
    ("[lines]", "[ ]", "bad.grid:13: empty section name"),
    ("schema = 1\n", "schema = 1\ninertia\n",
     "bad.grid:2: expected key = value before the first section"),
    ("frequency_hz = 50.0", "frequency_hz 50.0",
     "bad.grid:3: expected key = value, got 'frequency_hz 50.0'"),
    ("damping = 0.5\n", "damping = 0.5\ndamping = 0.5\n", "bad.grid:7: duplicate key 'damping'"),
    ("2 load_kw=40.0", "two load_kw=40.0", "bad.grid:11: bus id: expected an integer, got 'two'"),
    ("1\n2 load_kw=40.0\n3 inertia=4.0\n", "",
     "bad.grid: network file needs a non-empty [buses] section"),
    ("2 load_kw=40.0", "2 load_kw", "bad.grid:11: expected key=value override, got 'load_kw'"),
    ("2 3 2.0e-7\n", "", "bad.grid: transmission network must be connected"),
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
"""))
    assert scn.kind == gridpi.DIST_PI
    assert_allclose(scn.kp, [1.0, 2.0, 3.0])
    assert_allclose(scn.ki, [4.0, 4.0, 4.0])
    assert scn.gamma_request == 0.7
    assert len(scn.comm.edges) == 2
    # schedule sorted by time, kW -> W with the consumption sign flipped
    assert scn.schedule == ((1.0, 1, -30.0e3), (4.0, 2, 12.5e3))
    assert_allclose(scn.eta, [0.0, TWO_PI * 0.01, 0.0])
    assert scn.horizon == 20.0


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
    ("horizon_s = 20.0", "horizon = 200.0", "bad.scn:4: unknown [scenario] key 'horizon'"),
    ("gamma = 0.7", "gama = auto", "bad.scn:9: unknown [controller] key 'gama'"),
    ("2 0.01", "2 0.01\n[outputs]\ntrace_csv = run.csv", "bad.scn: unknown section [outputs] in scenario file"),
    ("schema = 1\n", "schema = 1\nnetwork = net.grid\n",
     "bad.scn:2: unknown key 'network' before the first section"),
    ("kind = dist_pi", "kind = p", "bad.scn:8: ki does not apply to the p kind"),
    ("kind = dist_pi\nkp = 1.0\nki = 4.0", "kind = p\nkp = 1.0\ncost_coeffs = 0.25",
     "bad.scn:8: cost_coeffs does not apply to the p kind"),
    ("comm_topology = edges", "comm_topology = same-as-grid",
     "bad.scn:12: [comm_edges] is read only with comm_topology = edges"),
    ("kp = 1.0", "kp = -1.0", "bad.scn:7: kp: values must be strictly positive"),
    ("kp = 1.0", "kp = 1.0 0 1.0", "bad.scn:7: kp: values must be strictly positive"),
    ("ki = 4.0", "ki = 4.0 0.0 4.0", "bad.scn:8: ki: values must be strictly positive"),
    ("ki = 4.0", "ki = -4.0", "bad.scn:8: ki: values must be strictly positive"),
    ("ki = 4.0", "cost_coeffs = -1.0", "bad.scn:8: cost_coeffs: values must be strictly positive"),
    ("ki = 4.0", "cost_coeffs = 0.25 0 0.25", "bad.scn:8: cost_coeffs: values must be strictly positive"),
    ("\n2 3 0.5", "",
     "bad.scn:10: comm_topology = edges: the [comm_edges] graph must be connected"),
    ("2 0.01", "2 1e308", "bad.scn:17: eta_hz: 2*pi*1e308 rad/s is not finite"),
    # an offset of the nominal frequency or more: 1e300 Hz was analyzed as a
    # positive verdict at -2e+299 Hz, and its run left the integrator's range
    ("2 0.01", "2 1e300",
     "bad.scn:17: eta_hz: |1e300| Hz is not below the nominal frequency 50 Hz"),
    ("2 0.01", "2 50", "bad.scn:17: eta_hz: |50| Hz is not below the nominal frequency 50 Hz"),
    ("2 0.01", "2 -50", "bad.scn:17: eta_hz: |-50| Hz is not below the nominal frequency 50 Hz"),
    ("4.0 3 -12.5", "4.0 3 1e306", "bad.scn:15: load_delta_kw: 1e3*1e306 W is not finite"),
    # the steps apply in time order, so the later line 15 is the one that overflows
    ("4.0 3 -12.5", "4.0 3 1e305\n2.0 3 1e305",
     "bad.scn:15: disturbances: this step makes the net injection of bus 3 non-finite at t = 4 s"),
    ("2 0.01", "2 0.01\n2 0.02", "bad.scn:18: noise: duplicate bus id 2"),
    # a cost whose reciprocal gain overflows, quoted as the reciprocal it takes
    ("ki = 4.0", "cost_coeffs = 0.25 1e-320 0.25", "bad.scn:8: cost_coeffs: 1/1e-320 is not finite"),
    ("network = net.grid\n", "", "bad.scn: [scenario] must name a network file"),
    ("kind = dist_pi\n", "", "bad.scn: [controller] must set kind"),
    ("kp = 1.0\n", "", "bad.scn: [controller] must set kp"),
    ("ki = 4.0\n", "", "bad.scn: dist_pi controller needs ki or cost_coeffs"),
    ("4.0 3 -12.5", "4.0 3", "bad.scn:15: expected: <time_s> <bus id> <load_delta_kw>"),
    ("2 0.01", "2", "bad.scn:17: expected: <bus id> <eta_hz>"),
    ("horizon_s = 20.0", "horizon_s = 0", "bad.scn:4: horizon_s must be positive"),
], ids=["kind", "gamma", "topology", "late", "negative-time", "bad-bus",
        "noise-bus", "comm-bus", "gain-arity", "infinite-horizon", "nan-load",
        "comm-reversed-duplicate", "comm-self-loop", "scenario-key", "controller-key",
        "outputs-section", "top-level-key", "p-with-ki", "p-with-cost", "orphan-comm-edges",
        "negative-kp", "zero-kp", "zero-ki", "negative-ki", "negative-cost", "zero-cost", "disconnected-comm", "noise-overflow",
        "noise-beyond-nominal", "noise-at-nominal", "noise-at-minus-nominal",
        "load-overflow", "summed-load-overflow", "noise-duplicate", "cost-reciprocal-overflow",
        "no-network", "no-kind", "no-kp", "no-ki", "short-disturbance", "short-noise",
        "zero-horizon"])
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


def _file_ids(rng, n):
    """n distinct positive bus ids in random order."""
    return [int(b) for b in rng.choice(np.arange(1, 10 * n + 1), size=n, replace=False)]


def test_random_networks_round_trip_through_the_file_format(tmp_path):
    rng = np.random.default_rng(71)
    for k in range(20):
        net = random_network(rng)
        net = replace(net, omega_ref=TWO_PI * float(rng.choice([50.0, 60.0])))
        ids = _file_ids(rng, net.n_buses)
        defaults = tuple(key for key in BUS_KEYS if rng.random() < 0.5)
        loaded = load_network(write_network_file(tmp_path / f"n{k}.grid", net, ids, defaults))
        assert loaded.bus_ids == tuple(ids)
        assert loaded.net.lines == net.lines
        assert np.array_equal(loaded.net.inertia, net.inertia)
        assert np.array_equal(loaded.net.damping, net.damping)
        # written in kV, kW and Hz: one division and one product apart
        assert_allclose(loaded.net.voltage, net.voltage, rtol=1e-15, atol=0.0)
        assert_allclose(loaded.net.power, net.power, rtol=1e-15, atol=0.0)
        assert_allclose(loaded.net.omega_ref, net.omega_ref, rtol=1e-15, atol=0.0)


def test_random_scenarios_round_trip_through_the_file_format(tmp_path):
    rng = np.random.default_rng(72)
    for k in range(18):
        net = random_network(rng)
        n = net.n_buses
        ids = _file_ids(rng, n)
        grid = write_network_file(tmp_path / f"n{k}.grid", net, ids)
        kind = (gridpi.P, gridpi.DEC_PI, gridpi.DIST_PI)[k % 3]
        kp = rng.uniform(0.5, 5.0, n)
        ki = cost = gamma = comm_edges = eta = None
        if kind != gridpi.P and k % 2:
            cost = rng.uniform(0.1, 2.0, n)
        elif kind != gridpi.P:
            ki = rng.uniform(0.5, 5.0, n)
        if kind == gridpi.DIST_PI:
            gamma = "auto" if k % 4 < 2 else float(rng.uniform(0.1, 1.0))
            if rng.random() < 0.5:
                # a spanning tree, with each edge's endpoints in random order
                comm_edges = [tuple(rng.permutation([int(rng.integers(0, v)), v]).tolist())
                              + (float(rng.uniform(0.5, 2.0)),) for v in range(1, n)]
        if rng.random() < 0.5:
            eta = rng.normal(0.0, 0.05, n)
        # several events share a time, some on the same bus
        schedule = [(float(t), int(rng.integers(0, n)), float(rng.uniform(-2e3, 2e3)))
                    for t in rng.choice([0.0, 1.0, 2.5], size=6)]
        scn = load_scenario(write_scenario_file(
            tmp_path / f"s{k}.scn", Path(grid).name, ids, kind, kp, ki=ki, cost=cost,
            gamma=gamma, comm_edges=comm_edges, schedule=schedule, eta=eta))

        assert scn.network.bus_ids == tuple(ids)
        assert scn.kind == kind
        assert np.array_equal(scn.kp, kp)
        if cost is not None:
            assert np.array_equal(scn.cost, cost)
            assert np.array_equal(scn.ki, 1.0 / cost)
        elif ki is not None:
            assert np.array_equal(scn.ki, ki) and scn.cost is None
        else:
            assert scn.ki is None and scn.cost is None
        if kind == gridpi.DIST_PI:
            assert scn.gamma_request == gamma
            want = net.coupling_graph().edges if comm_edges is None else tuple(comm_edges)
            assert scn.comm.edges == want
        else:
            assert scn.gamma_request is None and scn.comm is None
        if eta is None:
            assert np.array_equal(scn.eta, np.zeros(n))
        else:
            assert_allclose(scn.eta, eta, rtol=1e-15, atol=0.0)
        # sorted by time; events at one time keep their file order
        ordered = sorted(schedule, key=lambda ev: ev[0])
        assert [ev[:2] for ev in scn.schedule] == [ev[:2] for ev in ordered]
        assert_allclose([ev[2] for ev in scn.schedule], [ev[2] for ev in ordered],
                        rtol=1e-15, atol=0.0)
        # simultaneous events merge into one load stage
        stages = scenario_mod._power_stages(scn)
        assert [t for t, _ in stages] == sorted({0.0} | {ev[0] for ev in schedule})
        final = net.power.copy()
        for _, bus, delta_w in scn.schedule:
            final[bus] += delta_w
        assert np.array_equal(stages[-1][1], final)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def test_quiet_scenario_stays_settled(tmp_path):
    scn = load_scenario(quiet_scenario(tmp_path))
    result = run_scenario(scn)
    assert result.settled
    assert not result.trace.diverged
    assert result.analysis.positive
    # no disturbance, no noise: parked at 50 Hz throughout
    omega_hz = frequencies_hz(scn.network.net, result.trace.states)
    assert np.max(np.abs(omega_hz - 50.0)) < 1e-9
    assert result.omega_hat_hz == 50.0


def test_gamma_auto_uses_half_the_bound(tmp_path):
    scn = load_scenario(quiet_scenario(tmp_path))
    result = run_scenario(scn)
    assert_allclose(result.analysis.controller.gamma,
                    result.analysis.gamma_bound.gamma_bar / 2.0, rtol=1e-12)


def test_replaced_horizon_ends_the_run(tmp_path):
    scn = load_scenario(quiet_scenario(tmp_path))
    result = run_scenario(scn._replace(horizon=1.0))
    assert result.trace.times[-1] == 1.0


def test_run_that_ends_before_the_first_load_step(tmp_path):
    scn = load_scenario(bundled("dist30_step.scn"))
    assert scn.schedule[0][0] == 1.0
    result = run_scenario(scn._replace(horizon=0.5))
    assert result.trace.times.shape[0] == 101
    assert result.trace.times[-1] == 0.5
    assert result.settled


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
    result = run_scenario(scn._replace(horizon=40.0))
    u = scenario_inputs(scn, result, result.trace.states)
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
    assert out.is_file()
    header, data = read_trace_csv(str(out))
    assert header[0] == "time"
    assert header[1:4] == ["omega_1_hz", "omega_2_hz", "omega_3_hz"]
    assert header[4:7] == ["u_1_w", "u_2_w", "u_3_w"]
    assert header[7:10] == ["z_1", "z_2", "z_3"]
    # stride 0.1 s at a 0.01 s step: rows 0, 10, ..., 500
    assert data.shape == (51, 10)
    picks = np.arange(0, 501, 10)
    assert np.array_equal(data[:, 0], result.trace.times[picks])
    states = result.trace.states[picks]
    assert np.array_equal(data[:, 1:4], frequencies_hz(scn.network.net, states))
    assert np.array_equal(data[:, 4:7], scenario_inputs(scn, result, states))


def test_trace_always_includes_the_endpoint(tmp_path):
    scn = load_scenario(quiet_scenario(tmp_path))
    out = tmp_path / "t.csv"
    run_scenario(scn._replace(horizon=0.55), csv_path=str(out))
    _, data = read_trace_csv(str(out))
    assert data[-1, 0] == 0.55


def test_step_override_keeps_the_output_spacing(tmp_path):
    scn = load_scenario(quiet_scenario(tmp_path))
    out = tmp_path / "fine.csv"
    result = run_scenario(scn._replace(horizon=1.0, step=scn.step / 4), csv_path=str(out))
    _, data = read_trace_csv(str(out))
    # 0.1 s apart at a 0.0025 s step: rows 0, 40, ..., 400
    assert result.trace.times.shape[0] == 401
    assert np.array_equal(data[:, 0], result.trace.times[::40])
    assert_allclose(np.diff(data[:, 0]), scn.output_every, rtol=1e-9)


def test_output_spacing_beyond_the_run_writes_the_first_and_last_rows(tmp_path):
    # 1e308 / 0.002 is inf, which int() refused with an OverflowError after the whole run
    scn = load_scenario(bundled("ring_share.scn"))._replace(horizon=2.0, output_every=1e308)
    out = tmp_path / "every.csv"
    result = run_scenario(scn, csv_path=str(out))
    header, data = read_trace_csv(str(out))
    assert header[0] == "time"
    assert data.shape == (2, len(header))
    assert np.array_equal(data[:, 0], result.trace.times[[0, -1]])


def test_csv_rows_match_per_value_formatting(tmp_path):
    scn = load_scenario(quiet_scenario(tmp_path))
    result = run_scenario(scn._replace(horizon=0.1), csv_path="")
    loop = gridpi.close_loop(gridpi.swing_to_lti(scn.network.net), result.analysis.controller)
    # subnormal, signed zero, negative, integer-valued and 17-digit values
    special = np.array([5e-324, -2.5e-310, -0.0, 0.0, 3.0, -7.0, 2.0 ** 53,
                        -1.0 / 3.0, 1e-300, 123456789.0, 0.1, -1e16])
    rows = result.trace.times.shape[0]
    trace = gridpi.SimulationTrace(
        times=np.arange(rows, dtype=float),
        states=np.resize(special, (rows, loop.dim)),
        diverged=False,
    )
    out = tmp_path / "special.csv"
    # a step equal to output_every writes every row
    scenario_mod.write_trace_csv(str(out), scn._replace(step=scn.output_every), loop, trace)
    inputs = trace.states @ loop.control_gain.T + loop.control_offset
    table = np.hstack([trace.times[:, None], frequencies_hz(scn.network.net, trace.states),
                       inputs, trace.states[:, loop.state_layout["z"]]])
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
    target = tmp_path / "runs" / "cli_trace.csv"  # a missing directory is made
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


@pytest.mark.parametrize("name, status", [
    ("ring_share", 0), ("dist30_step", 0), ("dec30_bias", 1),
])
def test_cli_simulate_output_of_the_bundled_scenarios_is_pinned(capsys, name, status):
    # stdout of the whole run: analysis, final frequencies and the settling verdict
    code = cli_main(["simulate", bundled(f"{name}.scn"), "--output", ""])
    golden = (GOLDEN / f"simulate_{name}.txt").read_text(encoding="utf-8")
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


def _spectral_lines(capsys, *args):
    code = cli_main(["gamma-bound", *args, "--spectral"])
    assert code == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("grid, kp, ki, threshold", [
    ("net30.grid", "1", "1", 0.0499495646),
    ("net5ring.grid", "100", "5000", 390006.188),  # the README example
    # gamma_bar underflows to 0 at ki = 1e-320, and doubling 0 never moves:
    # the search made 81 probes at gamma = 0 and printed inf
    ("net5ring.grid", "1", "1e-320", 127370.139),
])
def test_cli_spectral_threshold_is_pinned(capsys, grid, kp, ki, threshold):
    lines = _spectral_lines(capsys, bundled(grid), "--kp", kp, "--ki", ki)
    label, value = lines[4].split(" ~= ")
    assert label == "eigenvalue-based threshold"
    assert_allclose(float(value), threshold, rtol=1e-6)
    # a bound of 0 certifies nothing, so it gets no conservatism ratio
    assert lines[-1].startswith("bound / threshold = ") == (lines[1] != "gamma_bar = 0")


def test_cli_spectral_without_a_crossing_prints_no_ratio(capsys):
    # no loss of stability within 2**80 gamma_bar: "inf" is no threshold,
    # so there is no conservatism ratio to print
    lines = _spectral_lines(capsys, bundled("net5ring.grid"), "--kp", "1e300", "--ki", "1e-300")
    assert lines[-1] == "eigenvalue-based threshold ~= inf"
    assert not any(line.startswith("bound / threshold") for line in lines)


def ring_copy(tmp_path, replacements, grid_replacements=()):
    """ring_share.scn and net5ring.grid copied into tmp_path with text replaced."""
    for name, pairs in (("ring_share.scn", replacements), ("net5ring.grid", grid_replacements)):
        text = Path(bundled(name)).read_text(encoding="utf-8")
        for before, after in pairs:
            assert before in text
            text = text.replace(before, after)
        write(tmp_path / name, text)
    return str(tmp_path / "ring_share.scn")


@pytest.mark.parametrize("gamma_line, lineno", [("gamma = auto\n", 17), ("", 0)],
                         ids=["explicit", "defaulted"])
def test_cli_auto_gamma_without_a_positive_bound_exits_two_at_the_gamma_line(
        tmp_path, capsys, gamma_line, lineno):
    # gamma_bar underflows to 0 at ki = 1e-320, and half of it is no gamma:
    # the run failed with ControllerSpec's unlocated "must be positive, got 0.0"
    scn = ring_copy(tmp_path, [("kp = 100.0", "kp = 1.0"),
                               ("cost_coeffs = 2.0e-4 1.0e-4 2.5e-4 1.25e-4 5.0e-4", "ki = 1e-320"),
                               ("gamma = auto\n", gamma_line)])
    where = f"{scn}:{lineno}" if lineno else scn
    for command in (["analyze", scn], ["simulate", scn, "--output", ""]):
        code = cli_main(command)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: {where}: gamma = auto: gamma_bar = 0 certifies no "
                                "positive gamma\n")


def test_cli_non_finite_step_map_exits_two(tmp_path, capsys):
    # the P kind skips gamma_bar, so couplings near 2e299 W/rad reach the
    # integrator: the step map overflowed with four RuntimeWarnings, and the
    # run printed NaN frequencies after 2 steps with exit 1
    scn = ring_copy(tmp_path, [("kind = dist_pi", "kind = p"),
                               ("cost_coeffs = 2.0e-4 1.0e-4 2.5e-4 1.25e-4 5.0e-4\n", ""),
                               ("gamma = auto\n", ""), ("comm_topology = same-as-grid\n", "")],
                    [("voltage_kv = 10.0", "voltage_kv = 1e150")])
    code = cli_main(["simulate", scn, "--output", ""])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: step 0.002 s: the RK4 step map is not finite\n"


@pytest.mark.parametrize("replacement, message", [
    (("1.0 2 100.0", "1.0 2 1e12"),
     "t = 1.012 s: omega of bus 2 is -1.10769e+12"),
], ids=["load"])
def test_cli_output_stable_run_that_leaves_the_range_exits_two(tmp_path, capsys, replacement,
                                                                message):
    # the loop passes the analysis (output stable, verdict positive); its
    # run ended as "(diverged)", "settled: no" and exit 1
    scn = ring_copy(tmp_path, [replacement])
    assert cli_main(["analyze", scn]) == 0
    capsys.readouterr()
    code = cli_main(["simulate", scn, "--output", ""])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: the output-stable loop left the integrator's range at "
                            f"{message}, beyond DIVERGENCE_LIMIT = 1e+12\n")


def test_output_unstable_run_that_diverges_is_not_settled(tmp_path, monkeypatch, capsys):
    # Swing loops with positive gains and a symmetric L_c are stable, and the
    # loops the check calls unstable (its tolerance band) stay bounded, so the
    # verdict is forced here: told the loop is output-unstable, the diverging
    # run of the 1e12 kW step keeps its verdict instead of an error
    def unstable(loop):
        return check(loop)._replace(output_stable=False)

    check = scenario_mod.analysismod.output_stability_check
    monkeypatch.setattr(scenario_mod.analysismod, "output_stability_check", unstable)
    scn = ring_copy(tmp_path, [("1.0 2 100.0", "1.0 2 1e12")])
    result = run_scenario(load_scenario(scn), csv_path="")
    assert result.trace.diverged and not result.settled
    assert result.trace.times[-1] == pytest.approx(1.012)
    assert cli_main(["simulate", scn, "--output", ""]) == 1
    out = capsys.readouterr().out
    assert "output stable: no" in out
    assert "simulated 1.012 s in 507 steps (diverged)" in out
    assert out.endswith("settled: no\n")


def test_cli_parse_failure_exits_two(tmp_path, capsys):
    bad = write(tmp_path / "bad.scn", "schema = 3\n")
    code = cli_main(["simulate", bad])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_cli_overflowing_noise_exits_two_at_its_line(tmp_path, capsys, command):
    # 2*pi*1e308 rad/s is not finite: analyze printed a -inf Hz prediction,
    # NaN inputs and a positive verdict, simulate NaN frequencies
    shutil.copy(bundled("net5ring.grid"), tmp_path)
    text = Path(bundled("ring_share.scn")).read_text(encoding="utf-8").rstrip("\n")
    scn = write(tmp_path / "ring_share.scn", text + "\n[noise]\n1 1e308\n")
    lineno = len(text.splitlines()) + 2
    code = cli_main([command, scn] + (["--output", ""] if command == "simulate" else []))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {scn}:{lineno}: eta_hz: 2*pi*1e308 rad/s is not finite\n"


@pytest.mark.parametrize("command", ["analyze", "simulate", "gamma-bound"])
def test_cli_overflowing_coupling_product_exits_two_naming_the_grid(tmp_path, capsys, command):
    # voltage_kv = 1e150 keeps every coupling finite (near 2e299 W/rad), but
    # gamma_bar's Lk Lc overflowed: a RuntimeWarning, then "error: Eigenvalues
    # did not converge" with no file
    text = Path(bundled("net5ring.grid")).read_text(encoding="utf-8")
    assert "voltage_kv = 10.0" in text
    grid = write(tmp_path / "net5ring.grid", text.replace("voltage_kv = 10.0", "voltage_kv = 1e150"))
    scn = shutil.copy(bundled("ring_share.scn"), tmp_path)
    args = {"analyze": [scn], "simulate": [scn, "--output", ""],
            "gamma-bound": [grid, "--kp", "1", "--ki", "1"]}[command]
    code = cli_main([command, *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: {grid}: the product Lk Lc of the coupling and communication "
                            "Laplacians overflows; the couplings are too large for the "
                            "averaging-gain bound\n")


KP_OVERFLOW = "(D + Kp) Lc overflows; the damping and proportional gains are"


@pytest.mark.parametrize("command, kp, inertia, product", [
    ("gamma-bound", "1e308", "10.0", KP_OVERFLOW),
    ("analyze", "1e308", "10.0", KP_OVERFLOW),
    ("gamma-bound", "1", "1.7e308", "M^-1 Lc overflows; the inertias are"),
])
def test_cli_overflowing_gain_products_exit_two_naming_the_grid(tmp_path, capsys, command, kp,
                                                                 inertia, product):
    # kp = 1e308 leaked "RuntimeWarning: overflow encountered in matmul" and
    # then "error: Eigenvalues did not converge" with no file; inertia = 1.7e308
    # leaked the same warning
    scn = ring_copy(tmp_path, [("kp = 100.0", f"kp = {kp}")],
                    [("inertia = 10.0", f"inertia = {inertia}")])
    grid = str(tmp_path / "net5ring.grid")
    code = cli_main([command, scn] if command == "analyze"
                    else [command, grid, "--kp", kp, "--ki", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: {grid}: the product {product} too large for the "
                            "averaging-gain bound\n")


def test_cli_gamma_bound_verifies_a_huge_integral_gain_without_a_warning(capsys):
    # a1 * a2 on the verification grid overflows to +inf, which still orders
    # correctly; it leaked "RuntimeWarning: overflow encountered in multiply"
    code = cli_main(["gamma-bound", bundled("net5ring.grid"), "--kp", "1", "--ki", "1e308"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert "gamma_bar = 1.7592186e+13" in captured.out.splitlines()


def test_cli_rejects_an_infinite_horizon_override(tmp_path, capsys):
    code = cli_main(["simulate", quiet_scenario(tmp_path), "--horizon", "inf"])
    assert code == 2
    assert capsys.readouterr().err == "error: --horizon: expected a finite number, got 'inf'\n"


def test_step_outside_the_rk4_stability_region_is_refused(capsys):
    # at 0.5 s RK4 amplifies the ring's fastest decaying mode; integrated
    # anyway, the run reached 7e16 Hz in 6 steps and ended as "not settled"
    scn = load_scenario(bundled("ring_share.scn"))
    with pytest.raises(ValueError, match="outside the RK4 stability region") as err:
        run_scenario(scn._replace(step=0.5), csv_path="")
    assert ("mode lambda = -124.572+0j 1/s has |R(h lambda)| = 588728 >= 1; "
            "a step of 0.015625 s passes") in str(err.value)
    # the suggested step is the largest halving that passes ...
    with pytest.raises(ValueError, match="outside the RK4 stability region"):
        run_scenario(scn._replace(step=0.03125), csv_path="")
    # ... and tracks the scenario's own 2 ms step
    coarse = run_scenario(scn._replace(step=0.015625, horizon=20.0), csv_path="")
    fine = run_scenario(scn._replace(horizon=20.0), csv_path="")
    assert not coarse.trace.diverged
    assert_allclose(coarse.final_omega_hz, fine.final_omega_hz, atol=1e-6)

    assert cli_main(["simulate", bundled("ring_share.scn"), "--step", "0.5", "--output", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a step of 0.015625 s passes" in captured.err


def test_step_whose_multiplier_rounds_to_one_is_refused_in_bounded_time(capsys):
    # at 1e-16 s R(h lambda) of the slowest decaying mode rounds to 1.0, and
    # the search for a passing step halved it down to 0 and never returned
    def hung(signum, frame):
        raise TimeoutError("the step check did not return")

    scn = load_scenario(bundled("ring_share.scn"))
    stability = scenario_mod.analyze_scenario(scn).stability
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(ValueError) as err:
            scenario_mod._check_step(stability, 1e-16)
        code = cli_main(["simulate", bundled("ring_share.scn"), "--step", "1e-16",
                         "--horizon", "1e-12", "--output", ""])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    message = ("step 1e-16 s is too small for float64: mode lambda = -0.119017+0j 1/s has "
               "|R(h lambda)| rounding to 1, so RK4 does not damp that mode")
    assert str(err.value) == message
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    # 1e-15 s still damps every mode
    scenario_mod._check_step(stability, 1e-15)


def test_cli_step_count_that_overflows_exits_two(capsys):
    # 1e300 s at 1e-10 s printed an OverflowError traceback and exited 1
    code = cli_main(["simulate", bundled("ring_share.scn"), "--step", "1e-10",
                     "--horizon", "1e300", "--output", ""])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: step 1e-10 s: a segment of 1e+300 s takes a non-finite "
                            "number of steps\n")


def test_cli_trace_too_large_to_allocate_exits_two(capsys):
    # 2e14 steps of a 15-state loop is 21.3 PiB, beyond any address space,
    # so the trace allocation fails on every machine; numpy's bare
    # "Unable to allocate 21.3 PiB" named neither the step nor the run
    code = cli_main(["simulate", bundled("ring_share.scn"), "--step", "1e-12", "--output", ""])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: step 1e-12 s: a trace of 2e+14 rows of 15 states "
                            "cannot be allocated\n")


def test_cli_trace_beyond_the_array_dimension_limit_exits_two(capsys):
    # 1e300 rows is beyond numpy's dimension limit, so no memory is asked for;
    # numpy's bare "Maximum allowed dimension exceeded" named neither the step nor the run
    code = cli_main(["simulate", bundled("ring_share.scn"), "--step", "1e-10",
                     "--horizon", "1e290", "--output", ""])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: step 1e-10 s: a trace of 1e+300 rows of 15 states "
                            "cannot be allocated\n")


@pytest.mark.parametrize("target, reason", [
    ("out", "it names a directory"),
    (".", "it names a directory"),
    ("new/", "it names a directory"),
    ("notes.txt/trace.csv", "File exists"),
], ids=["directory", "working-directory", "trailing-separator", "under-a-file"])
def test_cli_unwritable_trace_exits_two(tmp_path, monkeypatch, capsys, target, reason):
    # the destination is probed before the run, so the error names it
    # rather than a temporary file, and comes before the integration
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated although the trace cannot be written")

    monkeypatch.setattr(gridpi.numerics, "integrate_rk4", no_integration)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "notes.txt").write_text("", encoding="utf-8")
    code = cli_main(["simulate", bundled("ring_share.scn"), "--output", target])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot write the trace to {target}: {reason}\n"
    assert ".tmp" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["notes.txt", "out"]
    assert list((tmp_path / "out").iterdir()) == []


def _child_cli_above_the_bound(tmp_path, command, *options):
    """`python -m gridpi.cli command ring_share.scn *options` on a copy with
    gamma = 1e9, above its gamma_bar of 3.27708, in a child process, so that
    stderr is that of a plain run and not pytest's capture."""
    text = Path(bundled("ring_share.scn")).read_text(encoding="utf-8")
    assert "gamma = auto\n" in text
    write(tmp_path / "ring_share.scn", text.replace("gamma = auto\n", "gamma = 1.0e9\n"))
    shutil.copy(bundled("net5ring.grid"), tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(gridpi.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "gridpi.cli", command, "ring_share.scn",
                           *options],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("command, code", [
    (["analyze"], 1),
    # at gamma = 1e9 the 2 ms step is outside the RK4 stability region, so
    # the run takes 100 steps of 1e-11 s, a step that the check passes
    (["simulate", "--horizon", "1e-9", "--step", "1e-11", "--output", ""], 0),
], ids=["analyze", "simulate"])
def test_cli_warns_on_stderr_when_gamma_exceeds_the_bound(tmp_path, command, code):
    res = _child_cli_above_the_bound(tmp_path, *command)
    assert res.returncode == code
    assert res.stderr == ("gamma = 1e+09 exceeds the sufficient bound 3.27708; "
                          "relying on the eigenvalue check alone\n")
    assert "gamma=1e+09" in res.stdout


def test_cli_run_refused_after_the_analysis_prints_no_gamma_warning(tmp_path):
    # the CLI prints the warning with the analysis, so a run that exits 2
    # (here: the 2 ms step at gamma = 1e9) shows only its error
    res = _child_cli_above_the_bound(tmp_path, "simulate", "--horizon", "1", "--output", "")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: step 0.002 s is outside the RK4 stability region")
    assert len(res.stderr.splitlines()) == 1


def test_cli_gamma_bar_below_the_smallest_normal_float_is_zero(tmp_path, capsys):
    # the bound near 7.6e-324 at ki = 1e-320 failed its own grid verification
    # (exit 2, no file), and 7.6e-314 at ki = 1e-310 started the spectral
    # search so low that 80 doublings found no crossing
    grid = write(tmp_path / "net.grid", MINIMAL_GRID)
    for ki in ("1e-320", "1e-310"):
        code = cli_main(["gamma-bound", grid, "--kp", "5", "--ki", ki, "--spectral"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[1] == "gamma_bar = 0"
        assert lines[4] == "eigenvalue-based threshold ~= 1697030.48"
        assert not any(line.startswith("bound / threshold") for line in lines)


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
        (["rank-test", bundled("net2.grid"), "--ki", "0"], "--ki: values must be strictly positive"),
        (["gamma-bound", bundled("net2.grid"), "--kp", "-1", "--ki", "1"],
         "--kp: values must be strictly positive"),
        (["rank-test", bundled("net2.grid"), "--ki", "1, -2"], "--ki: values must be strictly positive"),
        (["gamma-bound", bundled("net2.grid"), "--kp", "0", "--ki", "1"],
         "--kp: values must be strictly positive"),
        (["gamma-bound", bundled("net2.grid"), "--kp", "1", "--ki", "0"],
         "--ki: values must be strictly positive"),
        (["gamma-bound", bundled("net2.grid"), "--kp", "1", "--ki", "-1"],
         "--ki: values must be strictly positive"),
    ]
    for argv, needle in cases:
        code = cli_main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert needle in captured.err, argv
        assert captured.out == "", argv
