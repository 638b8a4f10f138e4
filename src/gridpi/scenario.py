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

import contextlib
import math
import os
import tempfile
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import analysis as analysismod
from . import control as ctrlmod
from . import graph as graphmod
from . import numerics
from . import sysmodel

SCHEMA_VERSION = 1
TWO_PI = 2.0 * np.pi

# Scenario defaults.
DEFAULT_HORIZON = 200.0      # [s]
DEFAULT_SETTLE_TOL = 1.0e-3  # [Hz]
DEFAULT_OUTPUT_EVERY = 0.1   # [s] CSV decimation
CSV_FORMAT = "%.17g"         # 17 significant digits round-trips float64
_UNWRITABLE = "cannot write the trace to {}: {}"  # the CSV destination, and why
_CSV_BLOCK_ROWS = 256        # the CSV writer's blocks hold 256 to 511 rows (all, when fewer)


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

def _read_sections(path, known, kind):
    """The sections of a `kind` file, each a list of (lineno, text) in order.

    Only `schema = 1` goes before the first section, and every section
    must be one of known.  Comments (#) and blank lines are dropped.
    """
    top = {}
    sections, headers = {}, {}
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
            headers.setdefault(current, lineno)
            continue
        if current is None:
            if "=" not in text:
                raise ParseError(path, lineno, "expected key = value before the first section")
            key, value = (part.strip() for part in text.split("=", 1))
            top[key] = (value, lineno)
        else:
            sections[current].append((lineno, text))
    for key, (_, lineno) in top.items():
        if key != "schema":
            raise ParseError(path, lineno, f"unknown key {key!r} before the first section "
                             "(only 'schema' goes there)")
    if "schema" not in top:
        raise ParseError(path, 0, "missing schema header (expected 'schema = 1')")
    value, lineno = top["schema"]
    if value.strip() != str(SCHEMA_VERSION):
        raise ParseError(path, lineno, f"unsupported schema version {value!r} (this build reads {SCHEMA_VERSION})")
    for name in sections:
        if name not in known:
            raise ParseError(path, headers[name], f"unknown section [{name}] in {kind} file")
    return sections


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


# file unit -> model unit: (factor, the factor as a message writes it, model unit)
_AS_WRITTEN = (1.0, "1", "")
_KW_TO_W = (1.0e3, "1e3", "W")
_KV_TO_V = (1.0e3, "1e3", "V")
_HZ_TO_RAD_S = (TWO_PI, "2*pi", "rad/s")


def _float(path, lineno, token, what, unit=_AS_WRITTEN):
    """The number in token times unit's factor; both must be finite."""
    try:
        value = float(token)
    except ValueError:
        raise ParseError(path, lineno, f"{what}: expected a number, got {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(path, lineno, f"{what}: expected a finite number, got {token!r}")
    factor, written, model = unit
    if not math.isfinite(value * factor):
        raise ParseError(path, lineno, f"{what}: {written}*{token} {model} is not finite")
    return value * factor


def _positive(path, lineno, token, what, unit=_AS_WRITTEN):
    """_float, refusing a value that is not above 0."""
    value = _float(path, lineno, token, what, unit)
    if value <= 0.0:
        raise ParseError(path, lineno, f"{what} must be positive")
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
    graph.SettingError from build fails at the line of the edge it names."""
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
    except graphmod.SettingError as exc:
        i, j, _ = edges[exc.index]
        raise ParseError(path, entries[exc.index][0],
                         f"{what}: edge {bus_ids[i]} {bus_ids[j]} {exc.reason}") from exc


# ---------------------------------------------------------------------------
# network files
# ---------------------------------------------------------------------------

_BUS_KEYS = ("inertia", "damping", "voltage_kv", "load_kw")
_BUS_UNITS = {"voltage_kv": _KV_TO_V, "load_kw": _KW_TO_W}


class LoadedNetwork(NamedTuple):
    net: sysmodel.PowerNetwork
    bus_ids: tuple  # file-facing bus ids, in order of appearance
    path: str       # the network file


def load_network(path) -> LoadedNetwork:
    """Parse a network file into a PowerNetwork plus its bus-id mapping."""
    path = os.fspath(path)
    sections = _read_sections(path, ("network", "defaults", "buses", "lines"), "network")

    meta = _kv_lines(path, sections.get("network", []), ("frequency_hz",), "[network] key")
    omega_ref = TWO_PI * 50.0
    if "frequency_hz" in meta:
        value, lineno = meta["frequency_hz"]
        omega_ref = _positive(path, lineno, value, "frequency_hz", _HZ_TO_RAD_S)

    # bus values are kept as (token, lineno) until each bus reads them, so
    # that a rejected one is located by its line, its key and the bus id
    defaults = {"load_kw": ("0.0", 0)}
    for key, (value, lineno) in _kv_lines(path, sections.get("defaults", []), _BUS_KEYS,
                                          "default").items():
        _float(path, lineno, value, key)  # a malformed default fails even if every bus overrides it
        defaults[key] = (value, lineno)

    if "buses" not in sections or not sections["buses"]:
        raise ParseError(path, 0, "network file needs a non-empty [buses] section")
    bus_ids, columns = [], {key: [] for key in _BUS_KEYS}
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
            values[key] = (value, lineno)
        for key in _BUS_KEYS:
            if key not in values:
                raise ParseError(path, lineno, f"bus {bus_id} is missing {key!r} (no default given)")
            token, at = values[key]
            read = _float if key == "load_kw" else _positive  # a load may have either sign
            columns[key].append(read(path, at, token, f"{key} of bus {bus_id}",
                                     _BUS_UNITS.get(key, _AS_WRITTEN)))
        bus_ids.append(bus_id)

    def network(lines):
        return sysmodel.PowerNetwork(
            inertia=np.array(columns["inertia"]),
            damping=np.array(columns["damping"]),
            voltage=np.array(columns["voltage_kv"]),
            power=-np.array(columns["load_kw"]),  # consumption -> injection
            lines=lines,
            omega_ref=omega_ref,
        )

    try:
        net = _edge_rows(path, sections.get("lines", []), bus_ids, "lines", "susceptance_s", network)
    except ParseError:
        raise  # a [lines] row, already at its line
    except ValueError as exc:
        raise ParseError(path, 0, str(exc)) from exc
    return LoadedNetwork(net=net, bus_ids=tuple(bus_ids), path=path)


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

class Scenario(NamedTuple):
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
    # (file, line, name, value) of "kp", "ki", "gamma", "step", ("eta", bus) (a [noise] row)
    # and ("power", bus, t) (the [disturbances] row of bus's step at t): where each was set
    # (line 0: defaulted), how a refusal names it, and the setting's value read there
    sources: dict


def _gain_vector(path, lineno, value, n, what):
    """One strictly positive finite number per bus from a comma/space list;
    a single value broadcasts."""
    tokens = value.replace(",", " ").split()
    if not tokens:
        raise ParseError(path, lineno, f"{what}: empty value")
    values = np.array([_float(path, lineno, t, what) for t in tokens])
    if not np.all(values > 0.0):
        raise ParseError(path, lineno, f"{what}: values must be strictly positive")
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
    sections = _read_sections(path, ("scenario", "controller", "comm_edges", "disturbances", "noise"),
                              "scenario")

    meta = _kv_lines(path, sections.get("scenario", []), _SCENARIO_KEYS, "[scenario] key")
    if "network" not in meta:
        raise ParseError(path, 0, "[scenario] must name a network file")
    net_value, net_line = meta["network"]
    net_path = os.path.join(os.path.dirname(os.path.abspath(path)), net_value)
    try:
        loaded = load_network(net_path)
    except ParseError as exc:
        if not isinstance(exc.__cause__, OSError):  # an error inside a readable network file
            raise
        raise ParseError(path, net_line, f"network: cannot read {net_value} "
                         f"({exc.__cause__.strerror})") from exc
    n = loaded.net.n_buses
    index = {bus_id: k for k, bus_id in enumerate(loaded.bus_ids)}

    # every [scenario] key but network is a positive number
    numbers = {key: _positive(path, lineno, token, key)
               for key, (token, lineno) in meta.items() if key != "network"}
    horizon = numbers.get("horizon_s", DEFAULT_HORIZON)
    # a band as wide as the nominal frequency would call a bus at 0 Hz settled
    if not numbers.get("settle_tol_hz", 0.0) * TWO_PI < loaded.net.omega_ref:
        token, lineno = meta["settle_tol_hz"]
        raise ParseError(path, lineno, f"settle_tol_hz: {token} Hz is not below the nominal "
                         f"frequency {loaded.net.omega_ref / TWO_PI:g} Hz")

    ctrl_kv = _kv_lines(path, sections.get("controller", []), _CONTROLLER_KEYS, "[controller] key")
    if "kind" not in ctrl_kv:
        raise ParseError(path, 0, "[controller] must set kind")
    kind_value, kind_line = ctrl_kv["kind"]
    kind = kind_value.strip()
    if kind not in ctrlmod.KINDS:
        raise ParseError(path, kind_line, f"unknown controller kind {kind!r} (expected one of {ctrlmod.KINDS})")

    def _gains(key):
        value, lineno = ctrl_kv[key]
        return _gain_vector(path, lineno, value, n, key)

    if "kp" not in ctrl_kv:
        raise ParseError(path, 0, "[controller] must set kp")
    kp = _gains("kp")

    ki = cost = None
    if kind == ctrlmod.P:
        for key in ("ki", "cost_coeffs"):
            if key in ctrl_kv:
                raise ParseError(path, ctrl_kv[key][1], f"{key} does not apply to the p kind")
    else:
        if "ki" in ctrl_kv and "cost_coeffs" in ctrl_kv:
            raise ParseError(path, ctrl_kv["cost_coeffs"][1], "give either ki or cost_coeffs, not both")
        if "ki" in ctrl_kv:
            ki = _gains("ki")
        elif "cost_coeffs" in ctrl_kv:
            cost = _gains("cost_coeffs")
            for c in cost.tolist():  # Python floats overflow to inf without a warning
                if not math.isfinite(1.0 / c):
                    raise ParseError(path, ctrl_kv["cost_coeffs"][1], f"cost_coeffs: 1/{c!r} is not finite")
            ki = 1.0 / cost
        else:
            raise ParseError(path, 0, f"{kind} controller needs ki or cost_coeffs")
    sources = {"kp": (path, ctrl_kv["kp"][1], "kp", kp)}
    if ki is not None:
        ki_key = "ki" if "ki" in ctrl_kv else "cost_coeffs"
        sources["ki"] = (path, ctrl_kv[ki_key][1], ki_key, ki)

    gamma_request = None
    comm = None
    if kind == ctrlmod.DIST_PI:
        value, gamma_line = ctrl_kv.get("gamma", ("auto", 0))
        gamma_request = "auto" if value == "auto" else _positive(path, gamma_line, value, "gamma")
        sources["gamma"] = (path, gamma_line, f"gamma = {value}", gamma_request)
        topo_value, topo_line = ctrl_kv.get("comm_topology", ("same-as-grid", 0))
        topo = topo_value.strip()
        if topo == "same-as-grid":
            comm = loaded.net.coupling
        elif topo == "edges":
            comm = _edge_rows(path, sections.get("comm_edges", []), loaded.bus_ids, "comm_edges",
                              "weight", lambda edges: graphmod.WeightedGraph(n, edges))
            if not comm.connected:
                raise ParseError(path, topo_line, "comm_topology = edges: the [comm_edges] "
                                 "graph must be connected")
        else:
            raise ParseError(path, topo_line, f"comm_topology must be same-as-grid or edges, got {topo!r}")
    else:
        for key in ("gamma", "comm_topology"):
            if key in ctrl_kv:
                raise ParseError(path, ctrl_kv[key][1], f"{key} only applies to the dist_pi kind")
    orphan = sections.get("comm_edges")
    if orphan and ctrl_kv.get("comm_topology", ("",))[0] != "edges":
        raise ParseError(path, orphan[0][0], "[comm_edges] is read only with comm_topology = edges")

    events = []
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
        load_w = _float(path, lineno, tokens[2], "load_delta_kw", _KW_TO_W)
        events.append((t, bus, -load_w, lineno))  # consumption -> net injection
    events.sort(key=lambda ev: ev[0])  # stable, so equal times keep file order, as the stages do
    schedule = tuple(ev[:3] for ev in events)
    for t, bus, _, lineno in events:  # a later row of a stage's bus is the one named
        sources["power", bus, t] = (path, lineno, "disturbances", schedule)

    eta = np.zeros(n)
    for lineno, text in sections.get("noise", []):
        tokens = text.split()
        if len(tokens) != 2:
            raise ParseError(path, lineno, "expected: <bus id> <eta_hz>")
        bus = _bus_index(path, lineno, index, tokens[0], "noise")
        if ("eta", bus) in sources:
            raise ParseError(path, lineno, f"noise: duplicate bus id {loaded.bus_ids[bus]}")
        sources["eta", bus] = (path, lineno, "noise", eta)
        eta[bus] = _float(path, lineno, tokens[1], "eta_hz", _HZ_TO_RAD_S)
        # a bias as large as the nominal frequency is no measurement error: at nominal
        # operation the bus would read 0 Hz or less, or twice the nominal or more
        if not abs(eta[bus]) < loaded.net.omega_ref:
            raise ParseError(path, lineno, f"eta_hz: |{tokens[1]}| Hz is not below the nominal "
                             f"frequency {loaded.net.omega_ref / TWO_PI:g} Hz")

    step = numbers.get("step_s", sysmodel.DEFAULT_STEP)
    sources["step"] = (path, meta.get("step_s", (None, 0))[1], "step_s", step)
    scn = Scenario(
        network=loaded,
        kind=kind,
        kp=kp,
        ki=ki,
        cost=cost,
        gamma_request=gamma_request,
        comm=comm,
        schedule=schedule,
        eta=eta,
        horizon=horizon,
        step=step,
        settle_tol_hz=numbers.get("settle_tol_hz", DEFAULT_SETTLE_TOL),
        output_every=numbers.get("output_every_s", DEFAULT_OUTPUT_EVERY),
        sources=sources,
    )
    ctrl = ctrlmod.ControllerSpec(kind, kp, ki, comm=comm)
    for t, power in _power_stages(scn):  # every stage's loop terms, in O(n) each
        with _located(loaded, sources, scn, t):
            sysmodel._loop_terms(loaded.net, ctrl, eta, power)
    # the starting point, refused after what resolving the controller refuses, as in analyze
    try:
        analysismod.stationary_state(loaded.net, ctrl)
    except graphmod.SettingError as exc:
        _resolve_controller(scn)
        with _located(loaded, sources, scn):
            raise exc
    return scn


# the Scenario field of a setting, where graph.SettingError names it otherwise
_FIELDS = {"gamma": "gamma_request", "power": "schedule"}
# what a refusal at a bus calls the value of each setting
_BUS_VALUES = {"kp": "gain", "ki": "gain", "power": "step", "eta": "offset"}


@contextlib.contextmanager
def _located(loaded, sources, scn=None, t=None):
    """A graph.SettingError of the block as a ParseError where the value at
    fault was set: loaded's file for the network, else the sources entry (see
    Scenario.sources; file None is a flag) of its setting, or of ("eta", bus)
    or ("power", bus, t) for a bus's offset or the step at the stage from t.
    It goes on unlocated if no entry names the place, or if scn (None: none to
    compare) no longer holds the entry's value, as after a _replace of it."""
    try:
        yield
    except graphmod.SettingError as exc:
        setting, bus = exc.setting, exc.index
        if setting == "network":
            raise ParseError(loaded.path, 0, str(exc)) from exc
        entry = sources.get({"eta": (setting, bus), "power": (setting, bus, t)}.get(setting, setting))
        field = _FIELDS.get(setting, setting)
        if entry is None or scn is not None and getattr(scn, field) is not entry[3]:
            raise
        path, lineno, name, _ = entry
        if bus is None:
            raise ParseError(path, lineno, f"{name}: {exc}") from exc
        at = f" at t = {t:g} s" if setting == "power" else ""
        raise ParseError(path, lineno, f"{name}: this {_BUS_VALUES[setting]} makes {exc.reason} "
                         f"of bus {loaded.bus_ids[bus]} non-finite{at}") from exc


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

class AnalysisReport(NamedTuple):
    controller: ctrlmod.ControllerSpec
    gamma_bound: analysismod.GammaBound   # None unless DIST_PI (see _resolve_controller)
    rank: analysismod.XiRankResult        # None unless DEC_PI
    stability: analysismod.StabilityReport
    prediction: analysismod.SteadyStatePrediction  # None unless DIST_PI

    @property
    def positive(self):
        return not self.verdict_reasons()

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


class ScenarioResult(NamedTuple):
    analysis: AnalysisReport
    trace: numerics.SimulationTrace
    final_omega_hz: np.ndarray  # (n,) absolute frequencies at the last row
    settled: bool
    omega_hat_hz: float


def _resolve_controller(scn: Scenario):
    """The concrete ControllerSpec with gamma = auto resolved, and the
    gamma_bar bound: None unless DIST_PI, and None under a numeric gamma
    when the communication graph fails the bound's precondition, which
    gamma = auto is refused for at the gamma line."""
    ctrl = ctrlmod.ControllerSpec(kind=scn.kind, kp=scn.kp, ki=scn.ki, comm=scn.comm,
                                  cost=scn.cost)
    if ctrl.kind != ctrlmod.DIST_PI:
        return ctrl, None
    with _located(scn.network, scn.sources, scn):
        try:
            bound = analysismod.gamma_bar(scn.network.net, ctrl)
        except graphmod.SettingError:
            raise
        except ValueError as exc:  # the precondition on x^T Lk Lc x
            if scn.gamma_request == "auto":
                raise graphmod.SettingError("gamma", None, str(exc)) from exc
            bound = None
        if scn.gamma_request == "auto":
            gamma = bound.gamma_bar / 2.0 if math.isfinite(bound.gamma_bar) else 1.0
            if not gamma > 0.0:
                raise graphmod.SettingError("gamma", None, f"gamma_bar = {bound.gamma_bar:.6g} "
                                            "certifies no positive gamma")
        else:
            gamma = float(scn.gamma_request)
    return replace(ctrl, gamma=gamma), bound


def _power_stages(scn: Scenario):
    """Net injections of the load stages that start before scn.horizon: [(t_start, power), ...]."""
    current = scn.network.net.power.copy()
    stages = [(0.0, current)]
    with np.errstate(over="ignore"):  # close_loop refuses an injection that overflows
        for t, bus, delta_w in scn.schedule:
            if t >= scn.horizon:  # a horizon shortened by _replace can end before a step
                break
            current = current.copy()
            current[bus] += delta_w
            if stages[-1][0] == t:
                stages.pop()
            stages.append((t, current))
    return stages


def analyze_scenario(scn: Scenario) -> AnalysisReport:
    """Feasibility/stability/steady-state analysis without simulating.  The
    loop is closed at the loads at rest; the prediction is the stationary
    state at the injections of the run's last load stage."""
    net = scn.network.net
    ctrl, bound = _resolve_controller(scn)

    rank = None
    if ctrl.kind == ctrlmod.DEC_PI:  # eta and the loads enter only the forcing, not a, b or c
        rank = analysismod.xi_rank_test(*net.plant)

    with _located(scn.network, scn.sources, scn):
        loop = sysmodel.close_loop(net, ctrl, scn.eta)
        stability = analysismod.output_stability_check(loop)

        prediction = None
        if ctrl.kind == ctrlmod.DIST_PI:  # the law at the stationary point of the run's last stage
            x = analysismod.stationary_state(net, ctrl, scn.eta, _power_stages(scn)[-1][1])
            prediction = analysismod.SteadyStatePrediction(
                omega_hat=net.omega_ref + float(x[loop.state_layout["omega"]][0]),
                u_stationary=loop.control_gain @ x + loop.control_offset)

    return AnalysisReport(
        controller=ctrl,
        gamma_bound=bound,
        rank=rank,
        stability=stability,
        prediction=prediction,
    )


def _check_step(stability: analysismod.StabilityReport, h: float):
    """Refuse a step at which RK4 does not damp every mode that the
    stability check counts as decaying (stability.decaying)."""
    lam = stability.decaying

    def damping(step):
        # |R| overflows for a huge step or mode, and inf - inf is NaN: both are undamped
        with np.errstate(over="ignore", invalid="ignore"):
            mult = np.abs(numerics.rk4_multiplier(step * lam))
        return np.where(np.isnan(mult), np.inf, mult)

    # this also covers a shortened tail step t*h: |R(z)| < 1 is star-shaped in Re z < 0
    mult = damping(h)
    if np.all(mult < 1.0):
        return
    worst = int(np.argmax(mult))
    mode = f"mode lambda = {complex(lam[worst]):.6g} 1/s has |R(h lambda)|"
    if mult[worst] == 1.0:  # h lam so small that R rounds to 1: halving h cannot help
        raise ValueError(f"step {h:g} s is too small for float64: {mode} rounding to 1, "
                         "so RK4 does not damp that mode")
    ok = h / 2.0
    # ends by the first ok with ok * max|lam| < 2.6: |R(z)| < 1 on the left
    # half-disk of that radius; a decaying mode has Re(ok lam) < -(ok * scale) times the
    # check's relative band, with ok * scale >= 1.3: too far from 0 for |R| to round to 1
    while np.any(damping(ok) >= 1.0):
        ok /= 2.0
    raise ValueError(f"step {h:g} s is outside the RK4 stability region: {mode} = "
                     f"{mult[worst]:.6g} >= 1; a step of {ok:g} s passes")


def _range_error(trace, loop, bus_ids):
    """Where a trace that diverged left the integrator's range: its last
    row is the first one with a component beyond DIVERGENCE_LIMIT."""
    row = trace.states[-1]
    worst = int(np.argmax(np.nan_to_num(np.abs(row), nan=np.inf)))
    block, at = next((name, cut) for name, cut in loop.state_layout.items()
                     if cut.start <= worst < cut.stop)
    return (f"the output-stable loop left the integrator's range at t = {trace.times[-1]:.6g} s: "
            f"{block} of bus {bus_ids[worst - at.start]} is {row[worst]:.6g}, beyond "
            f"DIVERGENCE_LIMIT = {numerics.DIVERGENCE_LIMIT:g}")


def run_scenario(scn: Scenario, csv_path=None) -> ScenarioResult:
    """Simulate the scenario for scn.horizon seconds at step scn.step and
    check settling against the predicted target.

    A shorter or finer run is run_scenario(scn._replace(horizon=..., step=...)).
    A step that the RK4 check or the integrator refuses is step's
    graph.SettingError, located as _located locates it (unlocated after a
    _replace of the step).  Each load stage is the power argument of
    close_loop on the one loaded network, and only its forcing is kept:
    the first stage's loop is the one integrated.
    The trace is written to csv_path (see write_trace_csv) when it is
    non-empty, and nowhere otherwise.  A run that crosses
    numerics.DIVERGENCE_LIMIT although the analysis calls the loop
    output-stable raises ValueError naming the time and the state
    component; an output-unstable loop's divergence ends as not settled.
    """
    net = scn.network.net
    if csv_path:
        _check_destination(csv_path)

    report = analyze_scenario(scn)
    ctrl = report.controller
    x0 = analysismod.stationary_state(net, ctrl)
    stages = []
    for t_start, power in _power_stages(scn):
        with _located(scn.network, scn.sources, scn, t_start):
            stage = sysmodel.close_loop(net, ctrl, scn.eta, power)
        if not stages:
            loop = stage  # the stages differ only in forcing; the rest is freed
        stages.append((t_start, stage.forcing_dev))
    with _located(scn.network, scn.sources, scn):
        try:
            _check_step(report.stability, scn.step)
            trace = sysmodel.simulate_schedule(stages, loop, scn.horizon, h=scn.step, x0=x0)
        except ValueError as exc:  # the schedule and the loop are the scenario's own
            raise graphmod.SettingError("step", None, str(exc)) from exc
    if trace.diverged and report.stability.output_stable:
        raise ValueError(_range_error(trace, loop, scn.network.bus_ids))

    final_omega_hz = (trace.states[-1, loop.state_layout["omega"]] + net.omega_ref) / TWO_PI
    omega_hat = net.omega_ref - float(np.mean(scn.eta))
    omega_hat_hz = omega_hat / TWO_PI
    settled = (not trace.diverged) and bool(
        np.max(np.abs(final_omega_hz - omega_hat_hz)) < scn.settle_tol_hz
    )

    if csv_path:
        write_trace_csv(csv_path, scn, loop, trace)
    return ScenarioResult(
        analysis=report,
        trace=trace,
        final_omega_hz=final_omega_hz,
        settled=settled,
        omega_hat_hz=omega_hat_hz,
    )


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _check_destination(path):
    """Fail before any work, naming path, when a CSV cannot be written
    there: path is a directory, or its directory cannot be made or written.
    The probe removes the directories it made, so a refused run leaves none."""
    if os.path.isdir(path) or path.endswith(os.sep):
        raise IsADirectoryError(_UNWRITABLE.format(path, "it names a directory"))
    directory = os.path.dirname(os.path.abspath(path))
    missing, parent = [], directory  # the directories makedirs is to make, deepest first
    while not os.path.exists(parent):
        missing.append(parent)
        parent = os.path.dirname(parent)
    try:
        os.makedirs(directory, exist_ok=True)
        with tempfile.TemporaryFile(dir=directory):
            pass
    except OSError as exc:
        raise OSError(_UNWRITABLE.format(path, exc.strerror)) from exc
    finally:
        for made in missing:
            with contextlib.suppress(OSError):  # makedirs may have stopped short of it
                os.rmdir(made)


def _atomic_write(path, chunks):
    """Write the text chunks, in order, to a temporary file beside path (made
    with its directory) and rename it into place; the temporary file is
    removed when a step fails."""
    tmp = None
    try:
        name = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
        os.makedirs(os.path.dirname(name), exist_ok=True)
        # mode 0o666 less the umask, as open(path, "w") gives (tempfile.mkstemp
        # gives 0o600, which the rename would keep)
        handle = os.open(name, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        tmp = name
        with os.fdopen(handle, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(_UNWRITABLE.format(path, exc.strerror)) from exc
    finally:  # after a rename there is no tmp left
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def write_trace_csv(path, scn: Scenario, loop: sysmodel.ClosedLoop,
                    trace: numerics.SimulationTrace) -> str:
    """Write the trace of a run of loop integrated at step scn.step to path:
    the rows round(scn.output_every / scn.step) steps apart (at least one;
    0.099 s for output_every 0.1 s at step 0.003 s) and the final sample.
    Returns path.

    Columns: time, omega_<id>_hz per bus, u_<id>_w per bus, and z_<id> per
    bus when the controller has integrators.  Frequencies and the inputs
    (the loop's law applied to the states) are computed for the written
    rows only, one block of rows at a time, and each block is formatted and
    written before the next is computed.  Values carry 17 significant
    digits so a reread reproduces the binary floats exactly.  The file is
    written to a temporary name and renamed into place.
    """
    rows = trace.times.shape[0]
    # every stride of rows or more picks the same rows, the first and the last
    stride = max(int(round(min(scn.output_every / scn.step, rows))), 1)
    picks = np.arange(0, rows, stride)
    if picks[-1] != rows - 1:
        picks = np.append(picks, rows - 1)

    ids = scn.network.bus_ids
    columns = ["time"]
    columns += [f"omega_{b}_hz" for b in ids]
    columns += [f"u_{b}_w" for b in ids]
    z = loop.state_layout.get("z")
    if z is not None:
        columns += [f"z_{b}" for b in ids]
    line = ",".join([CSV_FORMAT] * len(columns)) + "\n"
    omega_ref = scn.network.net.omega_ref

    def chunks():
        yield ",".join(columns) + "\n"
        # no short last block: BLAS picks its kernel by the shape of a product,
        # and the kernel for a few rows can round the inputs differently from
        # the one for a long table
        for block in np.array_split(picks, max(picks.size // _CSV_BLOCK_ROWS, 1)):
            states = trace.states[block]
            table = [trace.times[block, None],
                     (states[:, loop.state_layout["omega"]] + omega_ref) / TWO_PI,
                     states @ loop.control_gain.T + loop.control_offset]
            if z is not None:
                table.append(states[:, z])
            # rows are boxed one at a time: a whole-block tolist() holds more
            # Python floats than the block's text has bytes
            yield "".join([line % tuple(row.tolist()) for row in np.hstack(table)])

    _atomic_write(path, chunks())
    return path
