"""Output checks for the benchmark's CLI ops.

Each check_* function takes what one `gridpi` child process left behind
(exit status, stdout, written files) and returns a list of problems; an
empty list means the op passed.  The simulate check compares the last CSV
row against an exact reference: the closed loop is rebuilt here from the
parsed scenario, independently of gridpi's own loop assembly, and
propagated segment by segment with scipy.linalg.expm.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np
import scipy.linalg

# Final-row tolerances against the expm reference.  RK4 at the scenario
# steps differs from the exact flow by about 1e-13 (Hz, or relative) on
# the workloads here; a rewrite of the propagator that keeps RK4
# arithmetic changes results by ~1e-12 relative.  Both pass with room to
# spare; a corrupted value, a skipped segment or a wrong step count does not.
FREQ_TOL_HZ = 1.0e-9
REL_TOL = 1.0e-9  # inputs and integrator states, relative to the row's largest magnitude
# Settling verdicts within this share of the tolerance are not checked.
SETTLE_MARGIN = 1.0e-3

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# exact reference
# ---------------------------------------------------------------------------

def _laplacian(n, edges):
    lap = np.zeros((n, n))
    for i, j, w in edges:
        lap[i, i] += w
        lap[j, j] += w
        lap[i, j] -= w
        lap[j, i] -= w
    return lap


def _coupling(net):
    v = net.voltage
    return _laplacian(net.n_buses, [(i, j, v[i] * v[j] * b) for i, j, b in net.lines])


def deviation_loop(scn):
    """(E, forcing) of x' = E x + forcing(power) in deviation coordinates.

    States are [delta; w; z] with w = omega - omega_ref and delta in the
    frame rotating at omega_ref (z only for the PI kinds):
        m w'  = -Lk delta - d (omega_ref + w) + p + u
        u     = kp (-w - eta) + ki z
        z'    = -w - eta  [- gamma Lc z for dist_pi]
    Only the forcing changes between load stages.
    """
    net = scn.network.net
    n = net.n_buses
    lap_k = _coupling(net)
    minv = 1.0 / net.inertia
    pi = scn.ki is not None
    dim = 3 * n if pi else 2 * n
    e = np.zeros((dim, dim))
    base = np.zeros(dim)
    e[:n, n:2 * n] = np.eye(n)
    e[n:2 * n, :n] = -minv[:, None] * lap_k
    e[n:2 * n, n:2 * n] = -np.diag(minv * (net.damping + scn.kp))
    base[n:2 * n] = -minv * (net.damping * net.omega_ref + scn.kp * scn.eta)
    if pi:
        e[n:2 * n, 2 * n:] = np.diag(minv * scn.ki)
        e[2 * n:, n:2 * n] = -np.eye(n)
        base[2 * n:] = -scn.eta
        if scn.kind == "dist_pi":
            e[2 * n:, 2 * n:] = -_gamma(scn) * _laplacian(n, scn.comm.edges)

    def forcing(power):
        f = base.copy()
        f[n:2 * n] += minv * power
        return f

    return e, forcing


def _gamma(scn):
    if scn.gamma_request != "auto":
        return float(scn.gamma_request)
    # gamma = auto is gamma_bar / 2; gamma_bar is the program's own analysis
    # and is checked separately by the gamma-bound op.
    from gridpi import analysis, control
    probe = control.ControllerSpec(kind=scn.kind, kp=scn.kp, ki=scn.ki, comm=scn.comm,
                                   cost=scn.cost)
    return analysis.gamma_bar(scn.network.net, probe).gamma_bar / 2.0


def initial_state(scn):
    """Stationary point at t = 0: the network's own loads, no measurement offsets.

    PI kinds: w = 0, z on consensus k, Lk delta - ki k = p - d omega_ref,
    sum(delta) = 0.  P: uniform offset w that balances the injections,
    Lk delta = p - d omega_ref - (d + kp) w.
    """
    net = scn.network.net
    n = net.n_buses
    lap_k = _coupling(net)
    rhs = net.power - net.damping * net.omega_ref
    if scn.ki is not None:
        k = -float(np.sum(rhs)) / float(np.sum(scn.ki))
        delta = np.linalg.lstsq(lap_k, rhs + scn.ki * k, rcond=None)[0]
        return np.concatenate([delta - delta.mean(), np.zeros(n), np.full(n, k)])
    w = float(np.sum(rhs)) / float(np.sum(net.damping + scn.kp))
    delta = np.linalg.lstsq(lap_k, rhs - (net.damping + scn.kp) * w, rcond=None)[0]
    return np.concatenate([delta - delta.mean(), np.full(n, w)])


def load_stages(scn, horizon):
    """[(t_start, power)] with simultaneous events merged, cut at the horizon."""
    power = scn.network.net.power.copy()
    stages = [(0.0, power.copy())]
    for t, bus, delta_w in sorted(scn.schedule, key=lambda ev: ev[0]):
        power[bus] += delta_w
        if t == stages[-1][0]:
            stages[-1] = (t, power.copy())
        elif t < horizon:
            stages.append((t, power.copy()))
    return stages


class Reference:
    """Exact final state of a scenario run, by expm per load segment."""

    def __init__(self, scn):
        self.scn = scn
        horizon = scn.horizon
        stages = load_stages(scn, horizon)
        x = initial_state(scn)
        ends = [t for t, _ in stages[1:]] + [horizon]
        e, forcing = deviation_loop(scn)
        flows = {}  # segment length -> (exp(E dt), its integral)
        for (t0, power), t1 in zip(stages, ends):
            dt = t1 - t0
            key = round(dt, 12)
            if key not in flows:
                flows[key] = _flow(e, dt)
            phi, psi = flows[key]
            x = phi @ x + psi @ forcing(power)
        n = scn.network.net.n_buses
        net = scn.network.net
        w = x[n:2 * n]
        self.omega_hz = (w + net.omega_ref) / TWO_PI
        u = scn.kp * (-w - scn.eta)
        self.z = None
        if scn.ki is not None:
            self.z = x[2 * n:]
            u = u + scn.ki * self.z
        self.u = u
        self.omega_hat_hz = (net.omega_ref - float(np.mean(scn.eta))) / TWO_PI
        self.final_dev_hz = float(np.max(np.abs(self.omega_hz - self.omega_hat_hz)))
        self.segments = [(t0, t1 - t0) for (t0, _), t1 in zip(stages, ends)]

    def expected_settled(self):
        """True/False, or None when the deviation sits too close to the tolerance."""
        tol = self.scn.settle_tol_hz
        if abs(self.final_dev_hz - tol) <= SETTLE_MARGIN * tol:
            return None
        return self.final_dev_hz < tol

    def trace_rows(self):
        """Integrated samples: t = 0 plus every step, with a shortened tail per segment."""
        h = self.scn.step
        rows = 1
        for _, dt in self.segments:
            full = int(math.floor(dt / h + 1e-9))
            rows += full + (1 if dt - full * h > 1e-9 * h else 0)
        return rows

    def csv_rows(self):
        """Data rows of the decimated CSV: every stride-th sample plus the last."""
        rows = self.trace_rows()
        stride = max(int(round(self.scn.output_every / self.scn.step)), 1)
        kept = len(range(0, rows, stride))
        return kept + (0 if (rows - 1) % stride == 0 else 1)


def _flow(e, dt):
    """(exp(E dt), integral_0^dt exp(E s) ds) from one augmented expm."""
    dim = e.shape[0]
    aug = np.zeros((2 * dim, 2 * dim))
    aug[:dim, :dim] = e
    aug[:dim, dim:] = np.eye(dim)
    big = scipy.linalg.expm(aug * dt)
    return big[:dim, :dim], big[:dim, dim:]


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def _line(stdout, prefix):
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def _verdict_problems(stdout, expect_positive):
    verdict = _line(stdout, "verdict:")
    want = "positive" if expect_positive else "negative"
    return [] if verdict == want else [f"verdict {verdict!r}, expected {want!r}"]


def check_simulate(ref, exit_code, stdout, csv_path, expect_positive):
    """Exit status and verdict lines, CSV shape, final row against the reference."""
    scn = ref.scn
    problems = _verdict_problems(stdout, expect_positive)
    settled = _line(stdout, "settled:")
    want = ref.expected_settled()
    if settled not in ("yes", "no"):
        problems.append(f"no settled line (got {settled!r})")
    elif want is not None and settled != ("yes" if want else "no"):
        problems.append(f"settled: {settled}, reference deviation {ref.final_dev_hz:.6g} Hz "
                        f"against tolerance {scn.settle_tol_hz:g} Hz")
    if settled in ("yes", "no") and exit_code != (0 if settled == "yes" else 1):
        problems.append(f"exit status {exit_code} with settled: {settled}")
    steps = _line(stdout, "simulated")
    if steps is None or not steps.endswith(f"in {ref.trace_rows()} steps"):
        problems.append(f"simulated line {steps!r}, expected {ref.trace_rows()} steps")
    if _line(stdout, "trace written to") != csv_path:
        problems.append("no 'trace written to' line for the requested CSV")
    if not os.path.isfile(csv_path):
        return problems + [f"CSV {csv_path} missing"]
    return problems + check_csv(ref, csv_path)


def check_csv(ref, csv_path):
    scn = ref.scn
    ids = scn.network.bus_ids
    header = ["time"] + [f"omega_{b}_hz" for b in ids] + [f"u_{b}_w" for b in ids]
    if scn.ki is not None:
        header += [f"z_{b}" for b in ids]
    with open(csv_path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].split(",") != header:
        return ["CSV header does not name time, omega, u (and z) per bus"]
    if len(lines) - 1 != ref.csv_rows():
        return [f"CSV has {len(lines) - 1} rows, expected {ref.csv_rows()}"]
    try:
        last = np.array([float(v) for v in lines[-1].split(",")])
    except ValueError:
        return ["CSV final row is not numeric"]
    if last.shape[0] != len(header):
        return [f"CSV final row has {last.shape[0]} fields, expected {len(header)}"]
    n = len(ids)
    problems = []
    if abs(last[0] - scn.horizon) > 1e-9 * scn.horizon:
        problems.append(f"CSV ends at t = {last[0]!r}, expected {scn.horizon!r}")
    freq_err = float(np.max(np.abs(last[1:n + 1] - ref.omega_hz)))
    if not freq_err <= FREQ_TOL_HZ:
        problems.append(f"final frequencies off the reference by {freq_err:.3g} Hz")
    blocks = [("inputs", last[n + 1:2 * n + 1], ref.u)]
    if ref.z is not None:
        blocks.append(("integrator states", last[2 * n + 1:], ref.z))
    for name, got, want in blocks:
        scale = max(float(np.max(np.abs(want))), 1.0)
        err = float(np.max(np.abs(got - want))) / scale
        if not err <= REL_TOL:
            problems.append(f"final {name} off the reference by {err:.3g} relative")
    return problems


_RANK = re.compile(r"^rank: (\d+) \(deficiency (\d+)\)$", re.M)
_BUSES = re.compile(r"^network: .* \((\d+) buses\)$", re.M)


def check_rank_test(exit_code, stdout, n_buses):
    """Swing networks are rank deficient by exactly the bus count (exit 1)."""
    problems = []
    match, buses = _RANK.search(stdout), _BUSES.search(stdout)
    if match is None or buses is None:
        return ["rank-test output lacks the rank or network line"]
    if int(buses.group(1)) != n_buses:
        problems.append(f"reports {buses.group(1)} buses, expected {n_buses}")
    if int(match.group(2)) != n_buses:
        problems.append(f"deficiency {match.group(2)}, expected {n_buses}")
    if _line(stdout, "integral action feasible:") != "no" or exit_code != 1:
        problems.append(f"expected 'feasible: no' and exit 1, got exit {exit_code}")
    return problems


def check_gamma_bound(exit_code, stdout):
    """The sufficient bound may not exceed the eigenvalue-based threshold."""
    if exit_code != 0:
        return [f"exit status {exit_code}"]
    bar, star = _line(stdout, "gamma_bar ="), _line(stdout, "eigenvalue-based threshold ~=")
    try:
        bar, star = float(bar), float(star)
    except (TypeError, ValueError):
        return ["gamma-bound output lacks gamma_bar or the threshold"]
    if not (math.isfinite(bar) and bar > 0.0 and star >= bar):
        return [f"threshold {star!r} below gamma_bar {bar!r}"]
    return []


_ZERO = re.compile(r"^zero modes: (\d+) \((\d+) observable\)$", re.M)


def check_analyze(exit_code, stdout):
    """Positive verdict with exactly one zero mode, and that one unobservable."""
    problems = _verdict_problems(stdout, True)
    match = _ZERO.search(stdout)
    if match is None or (int(match.group(1)), int(match.group(2))) != (1, 0):
        problems.append(f"zero modes line {match.group(0) if match else None!r}, "
                        "expected exactly one unobservable zero mode")
    if exit_code != 0:
        problems.append(f"exit status {exit_code}")
    return problems
