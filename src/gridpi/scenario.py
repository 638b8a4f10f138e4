"""Scenario layer: network/scenario files, experiment orchestration, CSV.

Both file kinds are line-oriented sectioned key-value text with a
`schema = 1` header.  Network files describe buses and lines; scenario
files pick a network, a controller, a piecewise-constant load schedule,
and constant per-bus measurement offsets.  Frequencies are written in Hz
at the file boundary and converted to rad/s internally; loads are written
as consumption in kW and enter the model as negative net injection in W.

A run starts from the pre-step stationary state of the closed loop (angles
pinned to zero mean, integrators on consensus), switches the forcing at
the scheduled times with an integrator restart at each switch, and reports
whether the final frequencies settled to omega_ref - mean(eta) within the
scenario tolerance.
"""

from __future__ import annotations

import logging
import math
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from . import analysis as analysismod
from . import control as ctrlmod
from . import graph as graphmod
from . import numerics
from . import sysmodel

log = logging.getLogger("gridpi.scenario")

SCHEMA_VERSION = 1
TWO_PI = 2.0 * np.pi

# Scenario defaults.
DEFAULT_HORIZON = 200.0      # [s]
DEFAULT_SETTLE_TOL = 1.0e-3  # [Hz]
DEFAULT_OUTPUT_EVERY = 0.1   # [s] CSV decimation
CSV_FORMAT = "%.17g"         # 17 significant digits round-trips float64


class ParseError(ValueError):
    """Parse/validation failure with position information.

    path None marks text that did not come from a file (a CLI option).
    """

    def __init__(self, path, lineno, message):
        self.path = path
        self.lineno = lineno
        if path is None:
            super().__init__(message)
        else:
            super().__init__(f"{path}:{lineno}: {message}" if lineno else f"{path}: {message}")


# ---------------------------------------------------------------------------
# low-level reader
# ---------------------------------------------------------------------------

def _read_sections(path):
    """Split a file into (top_level, sections) keeping line numbers.

    top_level is a dict of key -> (value, lineno) for lines before any
    section header; sections maps a name to a list of (lineno, text) in
    order.  Comments (#) and blank lines are dropped.
    """
    top = {}
    sections = {}
    current = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file ({exc.strerror})") from exc
    for lineno, line in enumerate(raw, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("["):
            if not text.endswith("]"):
                raise ParseError(path, lineno, "unterminated section header")
            current = text[1:-1].strip()
            if not current:
                raise ParseError(path, lineno, "empty section name")
            sections.setdefault(current, [])
            continue
        if current is None:
            if "=" not in text:
                raise ParseError(path, lineno, "expected key = value before the first section")
            key, value = (part.strip() for part in text.split("=", 1))
            top[key] = (value, lineno)
        else:
            sections[current].append((lineno, text))
    return top, sections


def _check_schema(path, top):
    for key, (_, lineno) in top.items():
        if key != "schema":
            raise ParseError(path, lineno, f"unknown key {key!r} before the first section "
                             "(only 'schema' goes there)")
    if "schema" not in top:
        raise ParseError(path, 0, "missing schema header (expected 'schema = 1')")
    value, lineno = top["schema"]
    if value.strip() != str(SCHEMA_VERSION):
        raise ParseError(path, lineno, f"unsupported schema version {value!r} (this build reads {SCHEMA_VERSION})")


def _kv_lines(path, entries, known, what):
    """Interpret section lines as key = value, keeping line numbers; a key
    outside known fails at its line as an unknown `what`."""
    out = {}
    for lineno, text in entries:
        if "=" not in text:
            raise ParseError(path, lineno, f"expected key = value, got {text!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in known:
            raise ParseError(path, lineno, f"unknown {what} {key!r} (expected one of {known})")
        if key in out:
            raise ParseError(path, lineno, f"duplicate key {key!r}")
        out[key] = (value, lineno)
    return out


def _float(path, lineno, token, what):
    try:
        value = float(token)
    except ValueError:
        raise ParseError(path, lineno, f"{what}: expected a number, got {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(path, lineno, f"{what}: expected a finite number, got {token!r}")
    return value


def _int(path, lineno, token, what):
    try:
        return int(token)
    except ValueError:
        raise ParseError(path, lineno, f"{what}: expected an integer, got {token!r}") from None


def _bus_index(path, lineno, index, token, what):
    """Model index of the file bus id in token, from the id -> index map
    index; unknown ids fail at path:lineno."""
    bus_id = _int(path, lineno, token, "bus id")
    if bus_id not in index:
        raise ParseError(path, lineno, f"{what}: unknown bus id {bus_id}")
    return index[bus_id]


def _edge_rows(path, entries, bus_ids, what, weight, build):
    """build(edges) for the `<bus id> <bus id> <weight>` rows of section
    what, with edges ((i, j, weight), ...) in model indices.  A
    graph.EdgeError from build fails at the line of the edge it names."""
    index = {bus_id: k for k, bus_id in enumerate(bus_ids)}
    edges = []
    for lineno, text in entries:
        tokens = text.split()
        if len(tokens) != 3:
            raise ParseError(path, lineno, f"expected: <bus id> <bus id> <{weight}>")
        i, j = (_bus_index(path, lineno, index, t, what) for t in tokens[:2])
        edges.append((i, j, _float(path, lineno, tokens[2], weight)))
    try:
        return build(tuple(edges))
    except graphmod.EdgeError as exc:
        i, j, _ = edges[exc.index]
        raise ParseError(path, entries[exc.index][0],
                         f"{what}: edge {bus_ids[i]} {bus_ids[j]} {exc.reason}") from exc


# ---------------------------------------------------------------------------
# network files
# ---------------------------------------------------------------------------

_BUS_KEYS = ("inertia", "damping", "voltage_kv", "load_kw")


@dataclass(frozen=True)
class LoadedNetwork:
    net: sysmodel.PowerNetwork
    bus_ids: tuple  # file-facing bus ids, in order of appearance


def load_network(path) -> LoadedNetwork:
    """Parse a network file into a PowerNetwork plus its bus-id mapping."""
    path = os.fspath(path)
    top, sections = _read_sections(path)
    _check_schema(path, top)
    for name in sections:
        if name not in ("network", "defaults", "buses", "lines"):
            raise ParseError(path, 0, f"unknown section [{name}] in network file")

    meta = _kv_lines(path, sections.get("network", []), ("frequency_hz",), "[network] key")
    freq_hz = 50.0
    if "frequency_hz" in meta:
        value, lineno = meta["frequency_hz"]
        freq_hz = _float(path, lineno, value, "frequency_hz")
        if freq_hz <= 0.0:
            raise ParseError(path, lineno, "frequency_hz must be positive")

    # bus values are kept as (value, lineno) so that a rejected one can be located
    defaults = {"load_kw": (0.0, 0)}
    for key, (value, lineno) in _kv_lines(path, sections.get("defaults", []), _BUS_KEYS,
                                          "default").items():
        defaults[key] = (_float(path, lineno, value, key), lineno)

    if "buses" not in sections or not sections["buses"]:
        raise ParseError(path, 0, "network file needs a non-empty [buses] section")
    bus_ids, rows = [], []
    for lineno, text in sections["buses"]:
        tokens = text.split()
        bus_id = _int(path, lineno, tokens[0], "bus id")
        if bus_id in bus_ids:
            raise ParseError(path, lineno, f"duplicate bus id {bus_id}")
        values = dict(defaults)
        for token in tokens[1:]:
            if "=" not in token:
                raise ParseError(path, lineno, f"expected key=value override, got {token!r}")
            key, value = token.split("=", 1)
            if key not in _BUS_KEYS:
                raise ParseError(path, lineno, f"unknown bus field {key!r}")
            values[key] = (_float(path, lineno, value, key), lineno)
        for key in _BUS_KEYS:
            if key not in values:
                raise ParseError(path, lineno, f"bus {bus_id} is missing {key!r} (no default given)")
        bus_ids.append(bus_id)
        rows.append(values)

    def network(lines):
        return sysmodel.PowerNetwork(
            inertia=np.array([row["inertia"][0] for row in rows]),
            damping=np.array([row["damping"][0] for row in rows]),
            voltage=np.array([1.0e3 * row["voltage_kv"][0] for row in rows]),
            power=np.array([-1.0e3 * row["load_kw"][0] for row in rows]),
            lines=lines,
            omega_ref=TWO_PI * freq_hz,
        )

    try:
        net = _edge_rows(path, sections.get("lines", []), bus_ids, "lines", "susceptance_s", network)
    except ParseError:
        raise  # a [lines] row, already at its line
    except sysmodel.BusValueError as exc:
        key = "voltage_kv" if exc.name == "voltage" else exc.name
        value, lineno = rows[exc.index][key]
        raise ParseError(path, lineno, f"{key} of bus {bus_ids[exc.index]} must be "
                         f"strictly positive, got {value:g}") from exc
    except ValueError as exc:
        raise ParseError(path, 0, str(exc)) from exc
    return LoadedNetwork(net=net, bus_ids=tuple(bus_ids))


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    path: str
    network: LoadedNetwork
    kind: str
    kp: np.ndarray
    ki: np.ndarray           # None for P
    cost: np.ndarray         # None unless gains came from cost coefficients
    gamma_request: object    # "auto" | float | None
    comm: graphmod.WeightedGraph  # None unless DIST_PI
    schedule: tuple          # ((time_s, bus_index, delta_w), ...) net-injection deltas
    eta: np.ndarray          # rad/s, per bus
    horizon: float
    step: float
    settle_tol_hz: float
    output_every: float
    trace_csv: str = None


def _gain_vector(path, lineno, value, n, what):
    """One finite number per bus from a comma/space list; a single value broadcasts."""
    tokens = value.replace(",", " ").split()
    if not tokens:
        raise ParseError(path, lineno, f"{what}: empty value")
    values = np.array([_float(path, lineno, t, what) for t in tokens])
    if values.shape[0] == 1:
        return np.full(n, values[0])
    if values.shape[0] != n:
        raise ParseError(path, lineno, f"{what}: expected 1 or {n} values, got {values.shape[0]}")
    return values


_SCENARIO_KEYS = ("network", "horizon_s", "step_s", "settle_tol_hz", "output_every_s")
_CONTROLLER_KEYS = ("kind", "kp", "ki", "cost_coeffs", "gamma", "comm_topology")


def load_scenario(path) -> Scenario:
    """Parse and cross-validate a scenario file (loads its network too)."""
    path = os.fspath(path)
    top, sections = _read_sections(path)
    _check_schema(path, top)
    known = ("scenario", "controller", "comm_edges", "disturbances", "noise", "outputs")
    for name in sections:
        if name not in known:
            raise ParseError(path, 0, f"unknown section [{name}] in scenario file")

    meta = _kv_lines(path, sections.get("scenario", []), _SCENARIO_KEYS, "[scenario] key")
    if "network" not in meta:
        raise ParseError(path, 0, "[scenario] must name a network file")
    net_value, net_line = meta["network"]
    net_path = os.path.join(os.path.dirname(os.path.abspath(path)), net_value)
    loaded = load_network(net_path)
    n = loaded.net.n_buses
    index = {bus_id: k for k, bus_id in enumerate(loaded.bus_ids)}

    def _meta_float(key, default, positive=True):
        if key not in meta:
            return default
        value, lineno = meta[key]
        out = _float(path, lineno, value, key)
        if positive and out <= 0.0:
            raise ParseError(path, lineno, f"{key} must be positive")
        return out

    horizon = _meta_float("horizon_s", DEFAULT_HORIZON)
    step = _meta_float("step_s", sysmodel.DEFAULT_STEP)
    settle_tol = _meta_float("settle_tol_hz", DEFAULT_SETTLE_TOL)
    output_every = _meta_float("output_every_s", DEFAULT_OUTPUT_EVERY)

    ctrl_kv = _kv_lines(path, sections.get("controller", []), _CONTROLLER_KEYS, "[controller] key")
    if "kind" not in ctrl_kv:
        raise ParseError(path, 0, "[controller] must set kind")
    kind_value, kind_line = ctrl_kv["kind"]
    kind = kind_value.strip()
    if kind not in ctrlmod.KINDS:
        raise ParseError(path, kind_line, f"unknown controller kind {kind!r} (expected {ctrlmod.KINDS})")
    if "kp" not in ctrl_kv:
        raise ParseError(path, 0, "[controller] must set kp")
    kp = _gain_vector(path, ctrl_kv["kp"][1], ctrl_kv["kp"][0], n, "kp")

    ki = cost = None
    if kind == ctrlmod.P:
        for key in ("ki", "cost_coeffs"):
            if key in ctrl_kv:
                raise ParseError(path, ctrl_kv[key][1], f"{key} does not apply to the p kind")
    else:
        if "ki" in ctrl_kv and "cost_coeffs" in ctrl_kv:
            raise ParseError(path, ctrl_kv["cost_coeffs"][1], "give either ki or cost_coeffs, not both")
        if "ki" in ctrl_kv:
            ki = _gain_vector(path, ctrl_kv["ki"][1], ctrl_kv["ki"][0], n, "ki")
        elif "cost_coeffs" in ctrl_kv:
            cost = _gain_vector(path, ctrl_kv["cost_coeffs"][1], ctrl_kv["cost_coeffs"][0], n, "cost_coeffs")
            ki = ctrlmod.gains_from_cost(cost)
        else:
            raise ParseError(path, 0, f"{kind} controller needs ki or cost_coeffs")

    gamma_request = None
    comm = None
    if kind == ctrlmod.DIST_PI:
        if "gamma" not in ctrl_kv:
            gamma_request = "auto"
        else:
            value, lineno = ctrl_kv["gamma"]
            if value.strip() == "auto":
                gamma_request = "auto"
            else:
                gamma_request = _float(path, lineno, value, "gamma")
                if gamma_request <= 0.0:
                    raise ParseError(path, lineno, "gamma must be positive (or 'auto')")
        topo_value, topo_line = ctrl_kv.get("comm_topology", ("same-as-grid", 0))
        topo = topo_value.strip()
        if topo == "same-as-grid":
            comm = loaded.net.coupling_graph()
        elif topo == "edges":
            comm = _edge_rows(path, sections.get("comm_edges", []), loaded.bus_ids, "comm_edges",
                              "weight", lambda edges: graphmod.WeightedGraph(n, edges))
        else:
            raise ParseError(path, topo_line, f"comm_topology must be same-as-grid or edges, got {topo!r}")
    else:
        for key in ("gamma", "comm_topology"):
            if key in ctrl_kv:
                raise ParseError(path, ctrl_kv[key][1], f"{key} only applies to the dist_pi kind")
    orphan = sections.get("comm_edges")
    if orphan and ctrl_kv.get("comm_topology", ("",))[0] != "edges":
        raise ParseError(path, orphan[0][0], "[comm_edges] is read only with comm_topology = edges")

    schedule = []
    for lineno, text in sections.get("disturbances", []):
        tokens = text.split()
        if len(tokens) != 3:
            raise ParseError(path, lineno, "expected: <time_s> <bus id> <load_delta_kw>")
        t = _float(path, lineno, tokens[0], "time_s")
        if t < 0.0:
            raise ParseError(path, lineno, "disturbance time must be >= 0")
        if t >= horizon:
            raise ParseError(path, lineno, f"disturbance at t = {t} is beyond the horizon {horizon}")
        bus = _bus_index(path, lineno, index, tokens[1], "disturbances")
        delta_kw = _float(path, lineno, tokens[2], "load_delta_kw")
        schedule.append((t, bus, -1.0e3 * delta_kw))  # consumption -> net injection

    eta = np.zeros(n)
    for lineno, text in sections.get("noise", []):
        tokens = text.split()
        if len(tokens) != 2:
            raise ParseError(path, lineno, "expected: <bus id> <eta_hz>")
        bus = _bus_index(path, lineno, index, tokens[0], "noise")
        eta[bus] = TWO_PI * _float(path, lineno, tokens[1], "eta_hz")

    trace_csv = None
    out_kv = _kv_lines(path, sections.get("outputs", []), ("trace_csv",), "[outputs] key")
    if "trace_csv" in out_kv:
        trace_csv = os.path.join(os.path.dirname(os.path.abspath(path)), out_kv["trace_csv"][0])

    return Scenario(
        path=path,
        network=loaded,
        kind=kind,
        kp=kp,
        ki=ki,
        cost=cost,
        gamma_request=gamma_request,
        comm=comm,
        schedule=tuple(sorted(schedule, key=lambda ev: ev[0])),
        eta=eta,
        horizon=horizon,
        step=step,
        settle_tol_hz=settle_tol,
        output_every=output_every,
        trace_csv=trace_csv,
    )


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisReport:
    controller: ctrlmod.ControllerSpec
    gamma_bound: analysismod.GammaBound   # None unless DIST_PI
    rank: analysismod.XiRankResult        # None unless DEC_PI
    stability: analysismod.StabilityReport
    prediction: analysismod.SteadyStatePrediction  # None unless DIST_PI
    positive: bool

    def verdict_reasons(self):
        reasons = []
        if self.rank is not None and not self.rank.full_rank:
            reasons.append(
                f"integral-action rank test fails: rank {self.rank.rank} of "
                f"{self.rank.dim} (deficiency {self.rank.deficiency})"
            )
        if not self.stability.output_stable:
            reasons.append("closed loop has an observable non-decaying mode")
        return reasons


@dataclass(frozen=True)
class ScenarioResult:
    analysis: AnalysisReport
    trace: sysmodel.SimulationTrace
    omega_hz: np.ndarray      # (k, n) absolute frequencies
    settled: bool
    omega_hat_hz: float
    csv_path: str = None


def _resolve_controller(scn: Scenario):
    """The concrete ControllerSpec with gamma = auto resolved, and the
    gamma_bar bound (None unless DIST_PI)."""
    ctrl = ctrlmod.ControllerSpec(kind=scn.kind, kp=scn.kp, ki=scn.ki, comm=scn.comm,
                                  cost=scn.cost)
    if ctrl.kind != ctrlmod.DIST_PI:
        return ctrl, None
    bound = analysismod.gamma_bar(scn.network.net, ctrl)
    if scn.gamma_request == "auto":
        gamma = bound.gamma_bar / 2.0 if math.isfinite(bound.gamma_bar) else 1.0
    else:
        gamma = float(scn.gamma_request)
        if math.isfinite(bound.gamma_bar) and gamma > bound.gamma_bar:
            log.warning("gamma = %.6g exceeds the sufficient bound %.6g; "
                        "relying on the eigenvalue check alone", gamma, bound.gamma_bar)
    return replace(ctrl, gamma=gamma), bound


def _power_stages(scn: Scenario):
    """Piecewise-constant net-injection vectors: [(t_start, power), ...]."""
    current = scn.network.net.power.copy()
    stages = [(0.0, current)]
    for t, bus, delta_w in scn.schedule:
        current = current.copy()
        current[bus] += delta_w
        if stages[-1][0] == t:
            stages.pop()
        stages.append((t, current))
    return stages


def analyze_scenario(scn: Scenario) -> AnalysisReport:
    """Feasibility/stability/steady-state analysis without simulating."""
    net = scn.network.net
    ctrl, bound = _resolve_controller(scn)
    stages = _power_stages(scn)
    final_net = net.with_power(stages[-1][1])

    # eta enters only the loop's forcing; the rank test reads a, b and c
    sys = sysmodel.swing_to_lti(net, eta=scn.eta)
    rank = None
    if ctrl.kind == ctrlmod.DEC_PI:
        rank = analysismod.xi_rank_test(sys, ctrl.ki)

    loop = sysmodel.close_loop(sys, ctrl)
    stability = analysismod.output_stability_check(loop)

    prediction = None
    if ctrl.kind == ctrlmod.DIST_PI:
        prediction = analysismod.predict_steady_state(final_net, ctrl, eta=scn.eta)

    positive = stability.output_stable and (rank is None or rank.full_rank)
    return AnalysisReport(
        controller=ctrl,
        gamma_bound=bound,
        rank=rank,
        stability=stability,
        prediction=prediction,
        positive=positive,
    )


def _override(value, default, what):
    """A positive finite override, or the scenario's own value when None."""
    if value is None:
        return default
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{what} must be a positive finite number, got {value}")
    return value


def _check_step(stability: analysismod.StabilityReport, h: float):
    """Refuse a step at which RK4 does not damp every mode that the
    stability check counts as decaying (Re lam < -STABILITY_TOL * scale)."""
    lam = stability.eigenvalues
    lam = lam[lam.real < -analysismod.STABILITY_TOL * stability.scale]
    mult = np.abs(numerics.rk4_multiplier(h * lam))
    if np.all(mult < 1.0):
        return
    ok = h / 2.0
    # ends: a small enough step damps every mode with Re lam < 0
    while np.any(np.abs(numerics.rk4_multiplier(ok * lam)) >= 1.0):
        ok /= 2.0
    worst = int(np.argmax(mult))
    raise ValueError(f"step {h:g} s is outside the RK4 stability region: mode lambda = "
                     f"{complex(lam[worst]):.6g} 1/s has |R(h lambda)| = {mult[worst]:.6g} >= 1; "
                     f"a step of {ok:g} s passes")


def run_scenario(scn: Scenario, horizon=None, settle_tol_hz=None, csv_path=None,
                 step=None) -> ScenarioResult:
    """Simulate the scenario and check settling against the predicted target.

    Keyword arguments override the scenario-file values; csv_path replaces
    the file's trace output destination (pass "" to suppress writing).
    """
    net = scn.network.net
    horizon = _override(horizon, scn.horizon, "horizon")
    settle_tol = _override(settle_tol_hz, scn.settle_tol_hz, "settle_tol_hz")
    h = _override(step, scn.step, "step")

    report = analyze_scenario(scn)
    _check_step(report.stability, h)
    ctrl = report.controller

    x0 = analysismod.stationary_state(net, ctrl)
    segments = []
    for t_start, power in _power_stages(scn):
        if t_start >= horizon:
            break
        stage_sys = sysmodel.swing_to_lti(net.with_power(power), eta=scn.eta)
        segments.append((t_start, sysmodel.close_loop(stage_sys, ctrl)))
    trace = sysmodel.simulate_schedule(segments, horizon, h=h, x0=x0)

    omega_slice = segments[0][1].state_layout["omega"]
    omega_hz = (trace.states[:, omega_slice] + net.omega_ref) / TWO_PI
    omega_hat = net.omega_ref - float(np.mean(scn.eta))
    omega_hat_hz = omega_hat / TWO_PI
    settled = (not trace.diverged) and bool(
        np.max(np.abs(omega_hz[-1] - omega_hat_hz)) < settle_tol
    )

    destination = scn.trace_csv if csv_path is None else (csv_path or None)
    written = None
    if destination:
        written = write_trace_csv(destination, scn, segments[0][1], trace, omega_hz, h)
    return ScenarioResult(
        analysis=report,
        trace=trace,
        omega_hz=omega_hz,
        settled=settled,
        omega_hat_hz=omega_hat_hz,
        csv_path=written,
    )


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _atomic_write(path, payload):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    handle, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trace_csv(path, scn: Scenario, loop: sysmodel.ClosedLoop,
                    trace: sysmodel.SimulationTrace, omega_hz: np.ndarray, step: float) -> str:
    """Write the trace of a run integrated with step `step`, one row per
    output_every seconds; the final sample is always included.

    Columns: time, omega_<id>_hz per bus, u_<id>_w per bus, and z_<id> per
    bus when the controller has integrators.  Values carry 17 significant
    digits so a reread reproduces the binary floats exactly.  The file is
    written to a temporary name and renamed into place.
    """
    stride = max(int(round(scn.output_every / step)), 1)
    picks = list(range(0, trace.times.shape[0], stride))
    if picks[-1] != trace.times.shape[0] - 1:
        picks.append(trace.times.shape[0] - 1)

    ids = scn.network.bus_ids
    columns = ["time"]
    columns += [f"omega_{b}_hz" for b in ids]
    columns += [f"u_{b}_w" for b in ids]
    blocks = [trace.times[picks, None], omega_hz[picks], trace.controls[picks]]
    if "z" in loop.state_layout:
        columns += [f"z_{b}" for b in ids]
        blocks.append(trace.states[picks][:, loop.state_layout["z"]])
    table = np.hstack(blocks)

    # one % per row; rows are boxed one at a time, since a whole-table
    # tolist() would hold every value as a Python float at once
    line = ",".join([CSV_FORMAT] * table.shape[1])
    rows = [",".join(columns)]
    rows.extend(line % tuple(row.tolist()) for row in table)
    _atomic_write(path, "\n".join(rows) + "\n")
    return path


def read_trace_csv(path):
    """Read a trace CSV back: (column names, float64 array of shape (k, c))."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: header names {len(header)} columns but rows have {data.shape[1]}")
    return header, data
