"""Network/scenario file parsing, orchestration, CSV traces, and the CLI."""

import errno
import os
import shutil
import signal
import stat
import tracemalloc
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gridpi
from gridpi import scenario as scenario_mod
from gridpi import ParseError, load_network, load_scenario, run_scenario
from gridpi.cli import main as cli_main
from gridpi.graph import SettingError
from support import (BUS_KEYS, bundled, exact_flow, frequencies_hz, random_network,
                     read_trace_csv, swing_loop, write_network_file, write_scenario_file)

TWO_PI = 2.0 * np.pi


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

SCENARIO = """\
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
"""


def quiet_scenario(tmp_path, extra="", kind="dist_pi", gamma="auto", kp="5.0"):
    write(tmp_path / "net.grid", MINIMAL_GRID)
    controller = {
        "dist_pi": f"kind = dist_pi\nkp = {kp}\nki = 2.0\ngamma = {gamma}",
        "dec_pi": f"kind = dec_pi\nkp = {kp}\nki = 2.0",
        "p": f"kind = p\nkp = {kp}",
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
    assert_allclose(net.coupling.laplacian[0, 1], -20.0)


def test_bundled_networks_load():
    for name, buses in (("net2.grid", 2), ("net5ring.grid", 5), ("net30.grid", 30)):
        loaded = load_network(bundled(name))
        assert loaded.net.n_buses == buses
    net30 = load_network(bundled("net30.grid")).net
    # every nonzero Laplacian eigenvalue of the complete uniform graph is n*k
    eigs = np.linalg.eigvalsh(net30.coupling.laplacian)
    assert_allclose(eigs[1:], eigs[-1], rtol=1e-9)


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

def test_scenario_parsing_and_conversions(tmp_path):
    write(tmp_path / "net.grid", MINIMAL_GRID)
    scn = load_scenario(write(tmp_path / "s.scn", SCENARIO))
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


# ---------------------------------------------------------------------------
# file refusals: each row is a reader's whole message
# ---------------------------------------------------------------------------

class FileRefusal(NamedTuple):
    """load refuses net.grid and s.scn, written from MINIMAL_GRID and SCENARIO with file's one
    `before` replaced by after (before None: no file), with file's path followed by rest.
    grid_edit, a (before, after) pair, edits net.grid as well for a row on s.scn."""
    id: str
    load: Callable
    file: str
    before: str
    after: str
    rest: str
    grid_edit: tuple = None


def grid(id, before, after, rest, load=load_network):
    return FileRefusal(id, load, "net.grid", before, after, rest)


def scn(id, before, after, rest, grid_edit=None, load=load_scenario):
    return FileRefusal(id, load, "s.scn", before, after, rest, grid_edit)


def analyze_file(path):
    """The analysis of a scenario file, for refusals that resolving the controller makes."""
    return gridpi.analyze_scenario(load_scenario(path))


POSITIVE = "values must be strictly positive"
BELOW_NOMINAL = "Hz is not below the nominal frequency 50 Hz"
NO_SCHEMA = ": missing schema header (expected 'schema = 1')"
# SCENARIO from its kp line to its noise row, for rows that edit both
CONTROLLER_TO_NOISE = SCENARIO[SCENARIO.index("kp = "):].rstrip("\n")

FILE_REFUSALS = [
    grid("grid-missing", None, None, ": cannot read file (No such file or directory)"),
    grid("grid-schema-missing", "schema = 1\n", "", NO_SCHEMA),
    grid("grid-schema-unsupported", "schema = 1", "schema = 2",
         ":1: unsupported schema version '2' (this build reads 1)"),
    # a header moved below a [lines] row is no header
    grid("grid-schema-below-a-section", MINIMAL_GRID, MINIMAL_GRID.replace("schema = 1\n", "")
         .replace("1 2 2.0e-7", "1 2 2.0e-7\nschema = 1"), NO_SCHEMA),
    grid("grid-top-level-key", "schema = 1\n", "schema = 1\nfrequency_hz = 60.0\n",
         ":2: unknown key 'frequency_hz' before the first section (only 'schema' goes there)"),
    grid("grid-top-level-not-key-value", "schema = 1\n", "schema = 1\ninertia\n",
         ":2: expected key = value before the first section"),
    grid("grid-unterminated-section", "[buses]", "[buses", ":9: unterminated section header"),
    grid("grid-empty-section-name", "[lines]", "[ ]", ":13: empty section name"),
    grid("grid-not-key-value", "frequency_hz = 50.0", "frequency_hz 50.0",
         ":3: expected key = value, got 'frequency_hz 50.0'"),
    grid("grid-network-key", "frequency_hz = 50.0", "frequncy_hz = 60.0",
         ":3: unknown [network] key 'frequncy_hz' (expected one of ('frequency_hz',))"),
    grid("grid-unknown-default", "damping = 0.5", "dampening = 0.5", ":6: unknown default "
         "'dampening' (expected one of ('inertia', 'damping', 'voltage_kv', 'load_kw'))"),
    grid("grid-duplicate-key", "damping = 0.5\n", "damping = 0.5\ndamping = 0.5\n",
         ":7: duplicate key 'damping'"),
    # values, at the line that sets them; a default is named by the bus that takes it
    grid("grid-frequency-overflow", "frequency_hz = 50.0", "frequency_hz = 1e308",
         ":3: frequency_hz: 2*pi*1e308 rad/s is not finite"),
    grid("grid-negative-inertia", "3 inertia=4.0", "3 inertia=-1.0",
         ":12: inertia of bus 3 must be positive"),
    grid("grid-zero-damping", "damping = 0.5", "damping = 0.0",
         ":6: damping of bus 1 must be positive"),
    grid("grid-negative-voltage", "voltage_kv = 10.0", "voltage_kv = -10.0",
         ":7: voltage_kv of bus 1 must be positive"),
    grid("grid-load-overflow", "load_kw = 0.0", "load_kw = 1e306",
         ":8: load_kw of bus 1: 1e3*1e306 W is not finite"),
    grid("grid-voltage-overflow", "voltage_kv = 10.0", "voltage_kv = 1e306",
         ":7: voltage_kv of bus 1: 1e3*1e306 V is not finite"),
    grid("grid-override-overflow", "3 inertia=4.0", "3 inertia=4.0 load_kw=-1e306",
         ":12: load_kw of bus 3: 1e3*-1e306 W is not finite"),
    grid("grid-missing-value", "inertia = 2.0\n", "",
         ":9: bus 1 is missing 'inertia' (no default given)"),
    grid("grid-no-buses", "1\n2 load_kw=40.0\n3 inertia=4.0\n", "",
         ": network file needs a non-empty [buses] section"),
    *(grid(f"grid-{id}", "2 load_kw=40.0", after, f":11: {rest}") for id, after, rest in [
        ("bad-number", "2 load_kw=forty", "load_kw of bus 2: expected a number, got 'forty'"),
        ("bus-id-not-an-integer", "two load_kw=40.0", "bus id: expected an integer, got 'two'"),
        ("duplicate-bus", "1 load_kw=40.0", "duplicate bus id 1"),
        ("override-not-key-value", "2 load_kw", "expected key=value override, got 'load_kw'"),
        ("unknown-bus-field", "2 color=red", "unknown bus field 'color'")]),
    # lines, and couplings |V_i||V_j| b that overflow or underflow, at their row
    grid("grid-short-row", "1 2 2.0e-7", "1 2", ":14: expected: <bus id> <bus id> <susceptance_s>"),
    grid("grid-line-unknown-bus", "2 3 2.0e-7", "2 9 2.0e-7", ":15: lines: unknown bus id 9"),
    grid("grid-line-reversed-duplicate", "2 3 2.0e-7", "2 1 2.0e-7",
         ":15: lines: edge 2 1 duplicates an earlier edge"),
    *(grid(f"grid-coupling-{name}", "voltage_kv = 10.0", f"voltage_kv = {kv}", ":14: lines: edge "
           f"1 2 gives a coupling |V_i||V_j| b that needs a positive finite weight, got {got}")
      for name, kv, got in [("overflow", "1e200", "inf"), ("underflow", "1e-200", "0.0")]),
    # the couplings' sum at bus 2 overflowed: two RuntimeWarnings, then the
    # unlocated "the swing form's M^-1 Lk is not finite"
    grid("grid-coupling-degree-overflow", "2.0e-7\n2 3 2.0e-7", "1.5e300\n2 3 1.5e300",
         ":15: lines: edge 2 3 gives a coupling |V_i||V_j| b that makes the weighted degree of "
         "an endpoint overflow"),
    grid("grid-disconnected", "2 3 2.0e-7\n", "", ": transmission network must be connected"),
    # 1/inertia overflowed in building net.plant: RuntimeWarnings, then "SVD did not converge"
    grid("grid-swing-form-overflow", "inertia = 2.0", "inertia = 1e-310",
         ": the swing form's M^-1 = 1/inertia is not finite"),
    scn("no-network", "network = net.grid\n", "", ": [scenario] must name a network file"),
    scn("network-missing", "network = net.grid", "network = nope.grid",
        ":3: network: cannot read nope.grid (No such file or directory)"),
    # an error inside the network file is at its own file and line
    grid("network-file-error", "3 inertia=4.0", "3 inertia=-1.0",
         ":12: inertia of bus 3 must be positive", load=load_scenario),
    scn("top-level-key", "schema = 1\n", "schema = 1\nnetwork = net.grid\n",
        ":2: unknown key 'network' before the first section (only 'schema' goes there)"),
    scn("outputs-section", "2 0.01", "2 0.01\n[outputs]\ntrace_csv = run.csv",
        ":21: unknown section [outputs] in scenario file"),
    scn("scenario-key", "horizon_s = 20.0", "horizon = 200.0", ":4: unknown [scenario] key "
        "'horizon' (expected one of ('network', 'horizon_s', 'step_s', 'settle_tol_hz', "
        "'output_every_s'))"),
    scn("infinite-horizon", "horizon_s = 20.0", "horizon_s = inf",
        ":4: horizon_s: expected a finite number, got 'inf'"),
    scn("zero-horizon", "horizon_s = 20.0", "horizon_s = 0", ":4: horizon_s must be positive"),
    scn("settle-band-at-nominal", "settle_tol_hz = 5.0e-3", "settle_tol_hz = 50",
        f":6: settle_tol_hz: 50 {BELOW_NOMINAL}"),
    scn("controller-key", "gamma = 0.7", "gama = auto", ":11: unknown [controller] key 'gama' "
        "(expected one of ('kind', 'kp', 'ki', 'cost_coeffs', 'gamma', 'comm_topology'))"),
    scn("no-kind", "kind = dist_pi\n", "", ": [controller] must set kind"),
    scn("kind", "kind = dist_pi", "kind = fuzzy",
        ":8: unknown controller kind 'fuzzy' (expected one of ('p', 'dec_pi', 'dist_pi'))"),
    scn("no-kp", "kp = 1.0 2.0 3.0\n", "", ": [controller] must set kp"),
    scn("empty-kp", "kp = 1.0 2.0 3.0", "kp =", ":9: kp: empty value"),
    *(scn(id, "kp = 1.0 2.0 3.0", f"kp = {kp}", f":9: kp: {POSITIVE}")
      for id, kp in [("negative-kp", "-1.0"), ("zero-kp", "1.0 0 1.0")]),
    *(scn(id, "ki = 4.0", after, f":10: {after.split()[0]}: {POSITIVE}") for id, after in [
        ("zero-ki", "ki = 4.0 0.0 4.0"), ("negative-ki", "ki = -4.0"),
        ("negative-cost", "cost_coeffs = -1.0"), ("zero-cost", "cost_coeffs = 0.25 0 0.25")]),
    scn("gain-arity", "ki = 4.0", "ki = 4.0 5.0", ":10: ki: expected 1 or 3 values, got 2"),
    # a cost whose reciprocal gain overflows, quoted as the reciprocal it takes
    scn("cost-reciprocal-overflow", "ki = 4.0", "cost_coeffs = 0.25 1e-320 0.25",
        ":10: cost_coeffs: 1/1e-320 is not finite"),
    # a gain whose block of the closed loop overflows at bus 3 (inertia 0.5): a
    # RuntimeWarning, LAPACK's DLASCL lines and the unlocated "SVD did not converge"
    *(scn(f"{key}-loop-block-overflow", before, after, f":{line}: {key}: this gain makes the "
          f"closed loop's {block} of bus 3 non-finite", grid_edit=("3 inertia=4.0", "3 inertia=0.5"))
      for key, before, after, line, block in [
          ("kp", "kp = 1.0 2.0 3.0", "kp = 1.0 2.0 1e308", 9, "M^-1 (D + Kp)"),
          ("ki", "ki = 4.0", "ki = 4.0 4.0 1e308", 10, "M^-1 Ki"),
          ("cost_coeffs", "ki = 4.0", "cost_coeffs = 0.25 0.25 1e-308", 10, "M^-1 Ki")]),
    scn("no-ki", "ki = 4.0\n", "", ": dist_pi controller needs ki or cost_coeffs"),
    scn("ki-and-cost", "ki = 4.0", "ki = 4.0\ncost_coeffs = 0.25",
        ":11: give either ki or cost_coeffs, not both"),
    scn("p-with-ki", "kind = dist_pi", "kind = p", ":10: ki does not apply to the p kind"),
    scn("p-with-cost", "dist_pi\nkp = 1.0 2.0 3.0\nki", "p\nkp = 1.0 2.0 3.0\ncost_coeffs",
        ":10: cost_coeffs does not apply to the p kind"),
    scn("gamma-for-dec-pi", "kind = dist_pi", "kind = dec_pi",
        ":11: gamma only applies to the dist_pi kind"),
    scn("gamma", "gamma = 0.7", "gamma = -1.0", ":11: gamma must be positive"),
    # without a bound gamma = auto has no value; a numeric gamma goes on without one
    scn("gamma-auto-without-the-precondition", "gamma = 0.7\ncomm_topology = edges\n[comm_edges]\n"
        "1 2 1.5\n2 3 0.5", "gamma = auto\ncomm_topology = edges\n[comm_edges]\n1 2 1.5\n2 3 0.01",
        ":11: gamma = auto: x^T Lk Lc x takes negative values (lambda_min = -3.950e+00); choose "
        "the communication weights proportional to the electrical coupling to satisfy the "
        "bound's precondition", load=analyze_file),
    scn("topology", "comm_topology = edges", "comm_topology = ring",
        ":12: comm_topology must be same-as-grid or edges, got 'ring'"),
    scn("orphan-comm-edges", "comm_topology = edges", "comm_topology = same-as-grid",
        ":14: [comm_edges] is read only with comm_topology = edges"),
    scn("comm-bus", "2 3 0.5", "2 99 0.5", ":15: comm_edges: unknown bus id 99"),
    scn("comm-reversed-duplicate", "2 3 0.5", "2 1 0.5",
        ":15: comm_edges: edge 2 1 duplicates an earlier edge"),
    scn("comm-self-loop", "2 3 0.5", "3 3 0.5", ":15: comm_edges: edge 3 3 is a self-loop"),
    # the weights' sum at bus 2 overflowed: RuntimeWarnings, then a refusal that
    # blamed the network file and the gains for (D + Kp) Lc
    scn("comm-degree-overflow", "1 2 1.5\n2 3 0.5", "1 2 1e308\n2 3 1e308",
        ":15: comm_edges: edge 2 3 makes the weighted degree of an endpoint overflow"),
    scn("disconnected-comm", "\n2 3 0.5", "",
        ":12: comm_topology = edges: the [comm_edges] graph must be connected"),
    *(scn(id, "4.0 3 -12.5", after, f":17: {rest}") for id, after, rest in [
        ("short-disturbance", "4.0 3", "expected: <time_s> <bus id> <load_delta_kw>"),
        ("negative-time", "-1.0 3 -12.5", "disturbance time must be >= 0"),
        ("late", "40.0 3 -12.5", "disturbance at t = 40.0 is beyond the horizon 20.0"),
        ("bad-bus", "4.0 8 -12.5", "disturbances: unknown bus id 8"),
        ("nan-load", "4.0 3 nan", "load_delta_kw: expected a finite number, got 'nan'"),
        ("load-overflow", "4.0 3 1e306", "load_delta_kw: 1e3*1e306 W is not finite")]),
    # the steps apply in time order, so line 17, the later step, is the one that overflows
    scn("summed-load-overflow", "4.0 3 -12.5", "4.0 3 1e305\n2.0 3 1e305", ":17: disturbances: "
        "this step makes the net injection of bus 3 non-finite at t = 4 s"),
    # the stage's M^-1 (p - D omega_ref) overflowed at bus 3 of inertia 1e-10: exit 2 with
    # the unlocated "the swing form's M^-1 (p - D omega_ref) is not finite"
    scn("stage-swing-form-overflow", "4.0 3 -12.5", "4.0 3 1e300", ":17: disturbances: this step "
        "makes the swing form's M^-1 (p - D omega_ref) of bus 3 non-finite at t = 4 s",
        grid_edit=("3 inertia=4.0", "3 inertia=1e-10")),
    scn("short-noise", "2 0.01", "2", ":20: expected: <bus id> <eta_hz>"),
    scn("noise-bus", "2 0.01", "9 0.01", ":20: noise: unknown bus id 9"),
    scn("noise-duplicate", "2 0.01", "2 0.01\n2 0.02", ":21: noise: duplicate bus id 2"),
    scn("noise-overflow", "2 0.01", "2 1e308", ":20: eta_hz: 2*pi*1e308 rad/s is not finite"),
    # an offset of the nominal frequency or more: 1e300 Hz was analyzed as a
    # positive verdict at -2e+299 Hz, and its run left the integrator's range
    *(scn(id, "2 0.01", f"2 {eta}", f":20: eta_hz: |{eta}| {BELOW_NOMINAL}")
      for id, eta in [("noise-beyond-nominal", "1e300"), ("noise-at-nominal", "50"),
                      ("noise-at-minus-nominal", "-50")]),
    # an offset that the gain of its bus makes overflow: RuntimeWarnings, and a
    # loop whose offset and forcing were not finite
    *(scn(f"noise-{name}-overflows", CONTROLLER_TO_NOISE, CONTROLLER_TO_NOISE.replace(
          "kp = 1.0 2.0 3.0", f"kp = 1.0 {kp} 3.0").replace("2 0.01", "2 49.0"),
          f":20: noise: this offset makes the {what} of bus 2 non-finite", grid_edit=grid_edit)
      for name, kp, what, grid_edit in [
          ("offset", "1e306", "control offset Kp eta", None),
          ("forcing", "5e305", "closed loop's M^-1 Kp eta",
           ("2 load_kw=40.0", "2 load_kw=40.0 inertia=0.5"))]),
    # the run's starting point, at the line of the integral gains or at the network file
    scn("consensus-overflows", "ki = 4.0", "ki = 1e-320", ":10: ki: the stationary point's "
        "consensus -sum(p - D omega_ref) / sum(Ki) is not finite"),
    grid("stationary-angles-overflow", "1 2 2.0e-7", "1 2 1e-315", ": float64 cannot resolve "
         "the stationary point (the solution is not finite)", load=load_scenario),
]


@pytest.mark.parametrize("row", FILE_REFUSALS, ids=[row.id for row in FILE_REFUSALS])
def test_scenario_diagnostics(tmp_path, row):
    texts = {"net.grid": MINIMAL_GRID, "s.scn": SCENARIO}
    edits = [(row.file, row.before, row.after)]
    if row.grid_edit:
        edits.append(("net.grid", *row.grid_edit))
    for name, before, after in edits:
        if before is None:
            del texts[name]
        else:
            assert texts[name].count(before) == 1, before
            texts[name] = texts[name].replace(before, after)
    for name, text in texts.items():
        write(tmp_path / name, text)
    with pytest.raises(ParseError) as err:
        row.load(tmp_path / ("net.grid" if row.load is load_network else "s.scn"))
    assert (err.type, str(err.value)) == (ParseError, f"{tmp_path / row.file}{row.rest}")



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
            want = net.coupling.edges if comm_edges is None else tuple(comm_edges)
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
# scenario runs: each row is a run with a CSV
# ---------------------------------------------------------------------------

class ScenarioRun(NamedTuple):
    """A run of a bundled .scn file, or of quiet_scenario when source is a
    controller kind, with overrides of its horizon, step or output_every.  It
    pins the rows of the trace and of the CSV, settled and the verdict; rtol
    bounds each written value's distance from the exact flow, relative to the
    largest exact value of its block of columns (omega, u or z)."""
    id: str
    source: str
    overrides: dict
    rows: int
    csv_rows: int
    rtol: float
    settled: bool = True
    positive: bool = True
    gamma: str = "auto"
    kp: str = "5.0"
    extra: str = ""


SCENARIO_RUNS = [
    # no disturbance, no noise: parked at 50 Hz throughout
    ScenarioRun("quiet", "dist_pi", {}, 501, 51, 1e-11),
    # swing dynamics fail decentralized PI's rank test: the verdict is negative
    ScenarioRun("quiet-dec_pi", "dec_pi", {}, 501, 51, 1e-11, positive=False),
    # droop holds the load at a frequency offset; the CSV has no z_ columns
    ScenarioRun("quiet-p", "p", {}, 501, 51, 1e-11, settled=False),
    # the last row is written although 0.55 s is no multiple of the spacing
    ScenarioRun("quiet-endpoint", "dist_pi", dict(horizon=0.55), 56, 7, 1e-11),
    # 0.1 s apart at a 0.0025 s step: rows 0, 40, ..., 400
    ScenarioRun("quiet-fine-step", "dist_pi", dict(horizon=1.0, step=0.0025), 401, 11, 1e-11),
    # round(0.1 / 0.003) = 33 steps apart: times 0, 0.099, ..., 0.99 and the last, 1.0
    ScenarioRun("quiet-step-not-dividing-the-spacing", "dist_pi", dict(horizon=1.0, step=0.003),
                335, 12, 1e-11),
    # an offset on bus 1 moves the target by 0.02 / 3 Hz, not reached in 5 s
    ScenarioRun("quiet-noise", "dist_pi", {}, 501, 51, 1e-10, settled=False,
                extra="[noise]\n1 0.02\n"),
    # unequal gains and offsets on every bus
    ScenarioRun("quiet-laws", "dist_pi", dict(horizon=2.0), 201, 21, 1e-10, settled=False,
                gamma="0.8", kp="3.0 5.0 7.0", extra="[noise]\n1 0.02\n2 -0.05\n3 0.01\n"),
    # the generous gamma settles the 25 kW step well inside 40 s, and the
    # 1 ms step keeps RK4 within 1e-10 of the exact flow
    ScenarioRun("quiet-load-step", "dist_pi", dict(horizon=40.0, step=0.001), 40001, 401, 1e-10,
                gamma="0.5", extra="[disturbances]\n1.0 2 25.0\n"),
    # runs that end before the load step at 1 s: the prediction was the
    # post-step one, though the run never reached those loads
    ScenarioRun("dist30-before-the-step", "dist30_step.scn", dict(horizon=0.5), 101, 6, 1e-12),
    ScenarioRun("ring-before-the-step", "ring_share.scn", dict(horizon=0.5), 251, 6, 1e-12),
    # 1e308 / 0.002 is inf, which int() refused with an OverflowError after the whole run
    ScenarioRun("ring-spacing-beyond-the-run", "ring_share.scn",
                dict(horizon=2.0, output_every=1e308), 1001, 2, 1e-8, settled=False),
    # decentralized PI drifts under the offsets of every bus
    ScenarioRun("dec30-bias", "dec30_bias.scn", dict(horizon=0.5), 101, 6, 1e-12, settled=False,
                positive=False),
]


@pytest.mark.parametrize("run", SCENARIO_RUNS, ids=[run.id for run in SCENARIO_RUNS])
def test_scenario_run(tmp_path, run):
    source = (bundled(run.source) if run.source.endswith(".scn")
              else quiet_scenario(tmp_path, run.extra, run.source, run.gamma, run.kp))
    scn, out = load_scenario(source)._replace(**run.overrides), str(tmp_path / "t.csv")
    result = run_scenario(scn, csv_path=out)
    report, times, net, n = result.analysis, result.trace.times, scn.network.net, scn.eta.size
    ctrl, has_z = report.controller, scn.kind != gridpi.P
    # the documented grid, run to the end; the CSV holds every stride-th row and the last
    assert (times[0], times[-1], times.size) == (0.0, scn.horizon, run.rows)
    assert not result.trace.diverged
    stride = max(round(min(scn.output_every / scn.step, times.size)), 1)
    assert_allclose(np.diff(times[::stride]), stride * scn.step, rtol=1e-9)
    picks = np.unique(np.append(np.arange(0, times.size, stride), times.size - 1))
    header, data = read_trace_csv(out)
    blocks = ["omega_{}_hz", "u_{}_w"] + ["z_{}"] * has_z
    assert header == ["time"] + [name.format(b) for name in blocks for b in scn.network.bus_ids]
    assert data.shape[0] == picks.size == run.csv_rows
    assert np.array_equal(data[:, 0], times[picks])
    # the written rows are the states under the law u = -kp (omega + eta) +
    # ki z of the swing equation written out (support.swing_loop), bit for bit
    matrix, forcing, gain, offset = swing_loop(net, ctrl, scn.eta)
    ws, zs = slice(n, 2 * n), slice(2 * n, matrix.shape[0])

    def table(x):
        return np.hstack([(x[:, ws] + net.omega_ref) / TWO_PI, x @ gain.T + offset, x[:, zs]])

    assert np.array_equal(data[:, 1:], table(result.trace.states[picks]))
    # and within rtol of its exact flow from the stationary start under the
    # loads that the run reaches
    power, schedule = net.power.copy(), [(0.0, forcing)]
    for t, bus, delta_w in (event for event in scn.schedule if event[0] < scn.horizon):
        power[bus] += delta_w
        schedule.append((t, swing_loop(net, ctrl, scn.eta, power)[1]))
    x0 = gridpi.stationary_state(net, ctrl)
    exact = np.array([exact_flow(matrix, x0, schedule, t) for t in data[:, 0]])
    want = table(exact).reshape(data.shape[0], -1, n)
    error = np.abs(data[:, 1:].reshape(want.shape) - want)
    assert np.all(error <= run.rtol * np.abs(want).max(axis=(0, 2), keepdims=True))
    # settled as the exact final frequencies are, and the verdict: only
    # decentralized PI has a rank test (swing dynamics fail it), and only
    # distributed PI a prediction
    target = (net.omega_ref - np.mean(scn.eta)) / TWO_PI
    settled = bool(np.max(np.abs(want[-1, 0] - target)) < scn.settle_tol_hz)
    assert (result.settled, settled, result.omega_hat_hz) == (run.settled, run.settled, target)
    assert np.array_equal(result.final_omega_hz, data[-1, 1:n + 1])
    assert report.positive == run.positive
    assert (report.rank is None or report.rank.full_rank) == (scn.kind != gridpi.DEC_PI)
    assert (report.prediction is None) == (scn.kind != gridpi.DIST_PI)
    if scn.gamma_request == "auto":
        assert ctrl.gamma == report.gamma_bound.gamma_bar / 2.0
    if report.prediction is not None and run.settled:
        assert_allclose(data[-1, n + 1:2 * n + 1], report.prediction.u_stationary, rtol=1e-8)


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


def test_load_stages_build_no_network(monkeypatch):
    # a load stage is close_loop's power argument; each stage was a copy of
    # the grid, validated again (two on this run, 303 on a 300-step storm)
    scn = load_scenario(bundled("dist30_step.scn"))

    def built(net):
        raise AssertionError("a PowerNetwork was built after loading")

    monkeypatch.setattr(gridpi.PowerNetwork, "__post_init__", built)
    result = run_scenario(scn._replace(horizon=1.5))
    assert 1.0 in result.trace.times and not result.trace.diverged
    assert result.analysis.prediction is not None


def test_load_stages_keep_only_their_forcing(tmp_path):
    # each load stage kept a closed loop of its own, so a run grew by one
    # loop, O(n^2), per stage: a 301-stage storm on 64 buses peaked at 146 MB
    # traced.  A stage is now its forcing, O(n); both runs here integrate the
    # same 3 s, so their traces are the same size
    shutil.copy(bundled("net30.grid"), tmp_path)
    peaks = {}
    for stages in (25, 250):
        events = "\n".join(f"{0.01 * k:.2f} {k % 30 + 1} {(-1) ** k * 20.0}"
                           for k in range(1, stages + 1))
        scn = load_scenario(write(tmp_path / f"storm{stages}.scn", f"""\
schema = 1
[scenario]
network = net30.grid
horizon_s = 3.0
step_s = 0.005
[controller]
kind = dist_pi
kp = 80000.0
ki = 40000.0
gamma = auto
comm_topology = same-as-grid
[disturbances]
{events}
"""))
        tracemalloc.start()
        try:
            assert not run_scenario(scn).trace.diverged
            _, peaks[stages] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    loop_bytes = sum(block.nbytes for block in scenario_loop(scn)[:-1])
    assert peaks[250] - peaks[25] < 0.1 * (250 - 25) * loop_bytes


def test_trace_always_includes_the_endpoint(tmp_path):
    scn = load_scenario(quiet_scenario(tmp_path))
    out = tmp_path / "t.csv"
    run_scenario(scn._replace(horizon=0.55), csv_path=str(out))
    _, data = read_trace_csv(str(out))
    assert data[-1, 0] == 0.55


# ---------------------------------------------------------------------------
# CSV traces
# ---------------------------------------------------------------------------

def special_trace(loop, rows):
    """A trace of rows rows.  The first 12 rows cycle through values that
    test the formatting: subnormal, signed zero, negative, integer-valued
    and 17-digit; the rows after them hold random values whose inputs round."""
    special = np.array([5e-324, -2.5e-310, -0.0, 0.0, 3.0, -7.0, 2.0 ** 53,
                        -1.0 / 3.0, 1e-300, 123456789.0, 0.1, -1e16])
    states = np.resize(special, (rows, loop.dim))
    states[special.size:] = np.random.default_rng(0).standard_normal(states.shape)[special.size:]
    return gridpi.SimulationTrace(times=np.arange(rows, dtype=float), states=states,
                                  diverged=False)


def scenario_loop(scn):
    ctrl = gridpi.analyze_scenario(scn).controller
    return gridpi.close_loop(scn.network.net, ctrl)


# 11 rows fit one writer block and are all special rows; 2 * 256 + 1 rows
# span two blocks and one row more, whose product alone numpy hands to gemv,
# which rounds otherwise (ring_share's random last row does: a writer that
# cut it off as a block of its own fails [ring_share-513]).  The 513-row cases
# compare the control law over blocks of 256 to 511 rows with its product over
# the whole table, bit for bit: they pin OpenBLAS's behaviour (a block of 256
# rows or more uses the kernel of the whole table), so a failure there on
# another CPU or BLAS thread count reads as a BLAS change, not a writer bug
@pytest.mark.parametrize("name, rows", [("dist_pi", 11), ("ring_share", 513), ("p", 513)])
def test_csv_rows_match_per_value_formatting(tmp_path, name, rows):
    # ring_share's gains (ki = 1/cost) make products that round
    scn = load_scenario(bundled("ring_share.scn") if name == "ring_share"
                        else quiet_scenario(tmp_path, kind=name))
    loop = scenario_loop(scn)
    trace = special_trace(loop, rows)
    out = tmp_path / "special.csv"
    # a step equal to output_every writes every row
    scenario_mod.write_trace_csv(str(out), scn._replace(step=scn.output_every), loop, trace)
    inputs = trace.states @ loop.control_gain.T + loop.control_offset
    table = [trace.times[:, None], frequencies_hz(scn.network.net, trace.states), inputs]
    if name != "p":
        table.append(trace.states[:, loop.state_layout["z"]])
    header = out.read_text(encoding="utf-8").split("\n", 1)[0]
    expected = [header] + [",".join("%.17g" % value for value in row) for row in np.hstack(table)]
    assert out.read_text(encoding="utf-8") == "\n".join(expected) + "\n"


def test_csv_writer_holds_one_block_of_rows(tmp_path):
    # the writer held the whole table, its rows as text, their join and a
    # copy of it: a traced peak of over 4 times the file's size
    scn = load_scenario(quiet_scenario(tmp_path))
    loop = scenario_loop(scn)
    trace = special_trace(loop, 4001)
    out = tmp_path / "long.csv"
    tracemalloc.start()
    try:
        scenario_mod.write_trace_csv(str(out), scn._replace(step=scn.output_every), loop, trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * out.stat().st_size


def test_trace_file_mode_follows_the_umask(tmp_path):
    # the temporary file came from mkstemp, and the rename kept its mode 0o600
    scn = load_scenario(quiet_scenario(tmp_path))
    out, plain = tmp_path / "t.csv", tmp_path / "plain.txt"
    previous = os.umask(0o027)
    try:
        run_scenario(scn._replace(horizon=0.1), csv_path=str(out))
        plain.write_text("", encoding="utf-8")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode) == 0o640


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("grid, kp, ki, threshold", [
    ("net30.grid", "1", "1", 0.0499495646),
    ("net5ring.grid", "100", "5000", 390006.188),  # the README example
    # gamma_bar underflows to 0 at ki = 1e-320, and doubling 0 never moves:
    # the search made 81 probes at gamma = 0 and printed inf
    ("net5ring.grid", "1", "1e-320", 127370.139),
])
def test_cli_spectral_threshold_is_pinned(capsys, grid, kp, ki, threshold):
    # not a row of test_cli.py's table: the last digits of the threshold follow
    # the BLAS, so it is compared to rtol 1e-6 rather than as text
    assert cli_main(["gamma-bound", bundled(grid), "--kp", kp, "--ki", ki, "--spectral"]) == 0
    lines = capsys.readouterr().out.splitlines()
    label, value = lines[4].split(" ~= ")
    assert label == "eigenvalue-based threshold"
    assert_allclose(float(value), threshold, rtol=1e-6)
    # a bound of 0 certifies nothing, so it gets no conservatism ratio
    assert lines[-1].startswith("bound / threshold = ") == (lines[1] != "gamma_bar = 0")


def test_output_unstable_run_that_diverges_is_not_settled(tmp_path, monkeypatch, capsys):
    # Swing loops with positive gains and a symmetric L_c are stable, and the
    # loops the check calls unstable (its tolerance band) stay bounded, so the
    # verdict is forced here: told the loop is output-unstable, the diverging
    # run of the 1e12 kW step keeps its verdict instead of an error.  Not a
    # row of test_cli.py's table, since it monkeypatches the check
    def unstable(loop):
        return check(loop)._replace(output_stable=False)

    check = scenario_mod.analysismod.output_stability_check
    monkeypatch.setattr(scenario_mod.analysismod, "output_stability_check", unstable)
    shutil.copy(bundled("net5ring.grid"), tmp_path)
    text = Path(bundled("ring_share.scn")).read_text(encoding="utf-8")
    scn = write(tmp_path / "ring_share.scn", text.replace("1.0 2 100.0", "1.0 2 1e12"))
    result = run_scenario(load_scenario(scn), csv_path="")
    assert result.trace.diverged and not result.settled
    assert result.trace.times[-1] == pytest.approx(1.012)
    assert cli_main(["simulate", scn, "--output", ""]) == 1
    out = capsys.readouterr().out
    assert "output stable: no" in out
    assert "simulated 1.012 s in 507 steps (diverged)" in out
    assert out.endswith("settled: no\n")


# a setting replaced after loading is refused with no location, as the library's
# graph.SettingError: located, the first three would name the line that set the old
# value ("ring_share.scn:9: step_s: step 0.5 s is ...", "dist30_step.scn:17: gamma = auto:
# ...", "ring_share.scn:15: kp: ..."); a replaced eta or schedule has no [noise] or
# [disturbances] row to name
@pytest.mark.parametrize("name, replaced, run, setting, message", [
    ("ring_share.scn", {"step": 0.5}, run_scenario, "step",
     "step 0.5 s is outside the RK4 stability region: mode lambda = -124.572+0j 1/s has "
     "|R(h lambda)| = 588728 >= 1; a step of 0.015625 s passes"),
    ("dist30_step.scn", {"gamma_request": 1e308}, gridpi.analyze_scenario, "gamma",
     "the product gamma Lc overflows; the averaging gain is too large for the communication "
     "weights"),
    ("ring_share.scn", {"kp": np.full(5, 1e308)}, gridpi.analyze_scenario, "kp",
     "the product (D + Kp) Lc overflows; the damping and proportional gains are too large for "
     "the averaging-gain bound"),
    ("ring_share.scn", {"eta": np.array([1e307, 0.0, 0.0, 0.0, 0.0])}, gridpi.analyze_scenario,
     "eta", "the control offset Kp eta is not finite"),
    # decentralized PI has no prediction, so the stage's loop is the first to see the step
    ("dec30_bias.scn", {"schedule": ((0.1, 0, -1e308), (0.2, 0, -1e308))}, run_scenario, "power",
     "the net injection is not finite")], ids=["step", "gamma", "kp", "eta", "schedule"])
def test_replaced_setting_is_refused_unlocated(name, replaced, run, setting, message):
    with pytest.raises(ValueError) as err:
        run(load_scenario(bundled(name))._replace(**replaced))
    assert (err.type, err.value.setting, str(err.value)) == (SettingError, setting, message)


def test_step_outside_the_rk4_stability_region_is_refused():
    # at 0.5 s RK4 amplifies the ring's fastest decaying mode; integrated
    # anyway, the run reached 7e16 Hz in 6 steps and ended as "not settled";
    # the command's exit and message are test_cli.py's
    # step-outside-the-stability-region row, the library's refusal the step row
    # of test_replaced_setting_is_refused_unlocated
    scn = load_scenario(bundled("ring_share.scn"))
    # the suggested step is the largest halving that passes ...
    with pytest.raises(ValueError, match="outside the RK4 stability region"):
        run_scenario(scn._replace(step=0.03125), csv_path="")
    # ... and tracks the scenario's own 2 ms step
    coarse = run_scenario(scn._replace(step=0.015625, horizon=20.0), csv_path="")
    fine = run_scenario(scn._replace(horizon=20.0), csv_path="")
    assert not coarse.trace.diverged
    assert_allclose(coarse.final_omega_hz, fine.final_omega_hz, atol=1e-6)


def test_step_whose_multiplier_rounds_to_one_is_refused_in_bounded_time(capsys):
    # at 1e-16 s R(h lambda) of the slowest decaying mode rounds to 1.0, and
    # the search for a passing step halved it down to 0 and never returned;
    # the command's exit and message are test_cli.py's step-rounds-to-one rows
    def hung(signum, frame):
        raise TimeoutError("the step check did not return")

    scn = load_scenario(bundled("ring_share.scn"))
    stability = scenario_mod.analyze_scenario(scn).stability
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(ValueError) as err:
            scenario_mod._check_step(stability, 1e-16)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert str(err.value) == ("step 1e-16 s is too small for float64: mode lambda = -0.119017+0j "
                              "1/s has |R(h lambda)| rounding to 1, so RK4 does not damp that mode")
    # 1e-15 s still damps every mode
    scenario_mod._check_step(stability, 1e-15)


@pytest.mark.parametrize("target, reason", [
    ("out", "it names a directory"),
    (".", "it names a directory"),
    ("new/", "it names a directory"),
    ("notes.txt/trace.csv", "File exists"),
], ids=["directory", "working-directory", "trailing-separator", "under-a-file"])
def test_cli_unwritable_trace_exits_two(tmp_path, monkeypatch, capsys, target, reason):
    # the destination is probed before the run, so the error names it
    # rather than a temporary file, and comes before the integration.  Not a
    # row of test_cli.py's table: it checks, by monkeypatching, that nothing
    # was integrated, and that no file was left behind
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


def test_cli_refused_run_leaves_no_directory_behind(tmp_path, monkeypatch, capsys):
    # the probe of the destination makes newdir/sub and removes it again; the
    # run is then refused on its step, and it left the empty newdir/sub behind
    monkeypatch.chdir(tmp_path)
    code = cli_main(["simulate", bundled("ring_share.scn"), "--step", "0.5",
                     "--output", "newdir/sub/t.csv"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == ("error: --step: step 0.5 s is outside the RK4 stability region: mode "
                            "lambda = -124.572+0j 1/s has |R(h lambda)| = 588728 >= 1; a step of "
                            "0.015625 s passes\n")
    assert list(tmp_path.iterdir()) == []


def refused(*args, **kwargs):
    raise PermissionError(errno.EACCES, "Permission denied")


def refuse_the_temporary_file(os_open):
    # the probe of the destination opens its own temporary file with os.open
    def opened(path, *args, **kwargs):
        if str(path).endswith(".tmp"):
            refused()
        return os_open(path, *args, **kwargs)
    return opened


def fill_the_disk_after_the_first_chunk(fdopen):
    def no_space(chunk):
        raise OSError(errno.ENOSPC, "No space left on device")

    def opened(*args, **kwargs):
        fh = fdopen(*args, **kwargs)

        def write(chunk):  # the header reaches the file, the next chunk does not
            fh.write = no_space
            type(fh).write(fh, chunk)
            fh.flush()
        fh.write = write
        return fh
    return opened


@pytest.mark.parametrize("name, fake, reason", [
    ("open", refuse_the_temporary_file, "Permission denied"),
    ("replace", lambda os_replace: refused, "Permission denied"),
    ("fdopen", fill_the_disk_after_the_first_chunk, "No space left on device"),
], ids=["os.open", "os.replace", "write"])
def test_cli_trace_write_failure_names_its_destination(tmp_path, monkeypatch, capsys, name, fake,
                                                       reason):
    # the destination passed the probe, but making the temporary file,
    # writing it or renaming it into place failed: the rename's error was the
    # unlocated "[Errno 13] Permission denied", and no temporary file may be
    # left behind.  Not a row of test_cli.py's table, since it monkeypatches
    monkeypatch.setattr(os, name, fake(getattr(os, name)))
    monkeypatch.chdir(tmp_path)
    code = cli_main(["simulate", bundled("ring_share.scn"), "--horizon", "1", "--output", "t.csv"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: cannot write the trace to t.csv: {reason}\n"
    assert list(tmp_path.iterdir()) == []
