"""End-to-end acceptance checks.

One test per headline property of the toolkit, each with its tolerance
pinned and a single pass/fail line printed straight to the terminal (the
lines bypass pytest's capture so the verdict list is always visible).
"""

import time

import numpy as np
import pytest
import scipy.linalg

import gridpi
from gridpi import (
    ControllerSpec,
    DIST_PI,
    close_loop,
    gamma_bar,
    load_network,
    load_scenario,
    run_scenario,
    simulate,
    stability_cubic,
    stationary_state,
    swing_to_lti,
    xi_rank_test,
)
from support import bundled, random_dist_controller, random_network

TWO_PI = 2.0 * np.pi


@pytest.fixture
def report(request):
    """Verdict printer that sidesteps output capture.

    Capture in this runner happens at the file-descriptor level, so a
    plain print would only surface on failure; routing through the capture
    manager keeps one visible line per criterion in every run.
    """
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _report(criterion, ok, detail):
        tag = "PASS" if ok else "FAIL"
        line = f"[acceptance] {criterion}: {tag} ({detail})"
        if capman is None:
            print(line, flush=True)
        else:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        assert ok, f"{criterion}: {detail}"

    return _report


def test_criterion_1_rank_deficiency_on_all_bundled_networks(report):
    worst_elapsed = 0.0
    deficiencies = {}
    for name in ("net2.grid", "net5ring.grid", "net30.grid"):
        net = load_network(bundled(name)).net
        start = time.perf_counter()
        result = xi_rank_test(swing_to_lti(net), ki=np.full(net.n_buses, 1.7))
        worst_elapsed = max(worst_elapsed, time.perf_counter() - start)
        deficiencies[name] = (result.deficiency, net.n_buses)
    ok = all(d == n for d, n in deficiencies.values()) and worst_elapsed < 1.0
    report(
        "criterion 1, per-node integral action is structurally infeasible",
        ok,
        f"deficiency == n on {len(deficiencies)} networks, slowest test {worst_elapsed:.3f} s",
    )


def test_criterion_2_decentralized_integrators_drift_under_bias(report):
    scn = load_scenario(bundled("dec30_bias.scn"))
    result = run_scenario(scn, csv_path="")
    dev = np.abs(result.omega_hz - 50.0)
    i_half = int(np.argmin(np.abs(result.trace.times - 100.0)))
    at_half = dev[i_half].max()
    at_end = dev[-1].max()
    ok = (not result.settled) and at_end > at_half
    report(
        "criterion 2, decentralized PI with measurement bias never settles",
        ok,
        f"not settled over 200 s; max deviation {at_end:.2e} Hz at t_end "
        f"vs {at_half:.2e} Hz at t_end/2",
    )


def test_criterion_3_distributed_pi_restores_frequency_and_shares_load(report):
    start = time.perf_counter()
    scn = load_scenario(bundled("dist30_step.scn"))
    result = run_scenario(scn, csv_path="")
    elapsed = time.perf_counter() - start

    freq_dev = np.max(np.abs(result.omega_hz[-1] - 50.0))
    u = result.trace.controls[-1]
    u_spread = np.ptp(u) / np.abs(u.mean())
    net = scn.network.net
    target_total = 3 * 200.0e3 + net.omega_ref * net.damping.sum()
    total_err = abs(u.sum() - target_total) / target_total

    ok = (result.settled and freq_dev <= 1.0e-3 and u_spread <= 1.0e-6
          and total_err <= 1.0e-6 and elapsed < 30.0)
    report(
        "criterion 3, distributed PI recovers 50 Hz and equalizes inputs",
        ok,
        f"|f-50| = {freq_dev:.1e} Hz, input spread {u_spread:.1e} rel, "
        f"total-input error {total_err:.1e} rel, {elapsed:.1f} s",
    )


def test_criterion_4_steady_frequency_offset_equals_mean_bias(report):
    net = load_network(bundled("net5ring.grid")).net
    n = net.n_buses
    probe = ControllerSpec(kind=DIST_PI, kp=np.full(n, 100.0), ki=np.full(n, 5000.0),
                           gamma=None, comm=net.coupling_graph())
    gamma = gamma_bar(net, probe).gamma_bar / 2.0
    ctrl = ControllerSpec(kind=DIST_PI, kp=probe.kp, ki=probe.ki,
                          gamma=gamma, comm=net.coupling_graph())
    x0 = stationary_state(net, ctrl)
    worst = 0.0
    rng = np.random.default_rng(404)
    for _ in range(10):
        eta = rng.normal(0.0, TWO_PI * 0.05, n)
        loop = close_loop(swing_to_lti(net, eta=eta), ctrl)
        trace = simulate(loop, 120.0, h=2.0e-3, x0=x0)
        f_end = (trace.states[-1, loop.state_layout["omega"]] + net.omega_ref) / TWO_PI
        f_hat = (net.omega_ref - eta.mean()) / TWO_PI
        worst = max(worst, float(np.max(np.abs(f_end - f_hat))))
    ok = worst < 1.0e-4
    report(
        "criterion 4, steady frequency sits at reference minus mean bias",
        ok,
        f"worst offset error over 10 random draws: {worst:.2e} Hz",
    )


def test_criterion_5_single_marginal_mode_below_the_bound(report):
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    checked = 0
    worst_residual = 0.0
    worst_margin = np.inf
    ok = True
    for _ in range(20):
        net = random_network(rng)
        n = net.n_buses
        ctrl = random_dist_controller(rng, net)
        bound = gamma_bar(net, ctrl)
        for frac in (0.1, 0.5, 0.99):
            loop = close_loop(swing_to_lti(net), ControllerSpec(
                kind=DIST_PI, kp=ctrl.kp, ki=ctrl.ki,
                gamma=frac * bound.gamma_bar, comm=net.coupling_graph()))
            e = loop.system_matrix
            values, vectors = np.linalg.eig(e)
            small = np.abs(values) < 1.0e-8 * np.linalg.norm(e, 2)
            if small.sum() != 1:
                ok = False
                continue
            vec = vectors[:, int(np.argmax(small))]
            target = np.zeros(3 * n, dtype=complex)
            target[:n] = 1.0 / np.sqrt(n)
            residual = np.linalg.norm(vec - np.vdot(target, vec) * target)
            worst_residual = max(worst_residual, float(residual))
            margin = -float(np.max(values[~small].real))
            worst_margin = min(worst_margin, margin)
            if residual >= 1.0e-6 or margin <= 0.0:
                ok = False
            checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and checked == 60 and elapsed < 60.0
    report(
        "criterion 5, below the bound: one marginal uniform-angle mode, rest decaying",
        ok,
        f"{checked} loops, worst eigenvector residual {worst_residual:.1e}, "
        f"smallest decay rate {worst_margin:.1e} 1/s, {elapsed:.1f} s",
    )


def test_criterion_6_gain_bound_is_consistent_and_tight_to_its_own_edge(report):
    rng = np.random.default_rng(606)
    worst_gap = 0.0
    ok = True
    for _ in range(10):
        net = random_network(rng)
        bound = gamma_bar(net, random_dist_controller(rng, net))
        gbar = bound.gamma_bar
        if not np.isfinite(gbar):
            continue
        for j in range(1, 101):
            a1, a2, a0a3 = bound.evaluate(gbar * j / 101.0)
            if not (a1 > 0.0 and a2 > 0.0 and a0a3 < a1 * a2):
                ok = False

        def margin(g):
            a1, a2, a0a3 = bound.evaluate(g)
            return min(a1, a2, a1 * a2 - a0a3)

        lo, hi = 0.0, 1.5 * gbar
        while margin(hi) > 0.0:  # min root lies below, margin negative beyond
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if margin(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        worst_gap = max(worst_gap, abs(0.5 * (lo + hi) - gbar) / gbar)
    ok = ok and worst_gap <= 1.0e-9
    report(
        "criterion 6, coefficient bounds hold on a 100-point grid up to the edge",
        ok,
        f"bisected edge matches the closed form within {worst_gap:.1e} rel",
    )


def test_criterion_7_coefficient_conditions_imply_stable_cubic_roots(report):
    rng = np.random.default_rng(707)
    tested = 0
    worst_real = -np.inf
    for _ in range(1000):
        net = random_network(rng, n_min=3, n_max=3)
        ctrl = random_dist_controller(rng, net)
        gamma = float(rng.uniform(0.01, 20.0))
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        a3, a2, a1, a0 = stability_cubic(net, ctrl, gamma, x)
        if not (a3 > 0 and a2 > 0 and a1 > 0 and a0 > 0 and a0 * a3 < a1 * a2):
            continue
        companion = np.array([
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [-a0 / a3, -a1 / a3, -a2 / a3],
        ])
        roots = np.linalg.eigvals(companion)
        worst_real = max(worst_real, float(roots.real.max()))
        tested += 1
    ok = tested > 500 and worst_real <= 1.0e-9
    report(
        "criterion 7, positive coefficients with a1 a2 > a0 a3 give stable roots",
        ok,
        f"{tested} of 1000 draws met the conditions, max Re(root) = {worst_real:.1e}",
    )


def test_criterion_8_cost_weighted_sharing_in_prediction_and_simulation(report):
    net = load_network(bundled("net5ring.grid")).net
    n = net.n_buses
    rng = np.random.default_rng(808)
    stepped = net.with_power(net.power + np.array([0.0, 100.0e3, 0.0, 0.0, 0.0]))
    worst_pred = worst_sim = 0.0
    for _ in range(3):
        cost = rng.uniform(1.0e-4, 5.0e-4, n)
        ki = gridpi.gains_from_cost(cost)
        probe = ControllerSpec(kind=DIST_PI, kp=np.full(n, 100.0), ki=ki,
                               gamma=None, comm=net.coupling_graph(), cost=cost)
        gamma = gamma_bar(net, probe).gamma_bar / 2.0
        ctrl = ControllerSpec(kind=DIST_PI, kp=probe.kp, ki=ki,
                              gamma=gamma, comm=net.coupling_graph(), cost=cost)

        pred = gridpi.predict_steady_state(stepped, ctrl)
        weighted = cost * pred.u_stationary
        worst_pred = max(worst_pred, float(np.ptp(weighted) / np.abs(weighted.mean())))

        loop = close_loop(swing_to_lti(stepped), ctrl)
        trace = simulate(loop, 200.0, h=2.0e-3, x0=stationary_state(net, ctrl))
        weighted = cost * trace.controls[-1]
        worst_sim = max(worst_sim, float(np.ptp(weighted) / np.abs(weighted.mean())))
    ok = worst_pred <= 1.0e-6 and worst_sim <= 1.0e-6
    report(
        "criterion 8, cost-weighted inputs equalize at steady state",
        ok,
        f"cost*input spread: {worst_pred:.1e} rel predicted, {worst_sim:.1e} rel simulated",
    )


def test_criterion_9_integrator_shows_fourth_order_convergence(report):
    net = load_network(bundled("net2.grid")).net
    ctrl = ControllerSpec(kind=DIST_PI, kp=np.ones(2), ki=np.ones(2),
                          gamma=0.25, comm=net.coupling_graph())
    loop = close_loop(swing_to_lti(net), ctrl)
    dim = loop.dim
    aug = np.zeros((dim + 1, dim + 1))
    aug[:dim, :dim] = loop.system_matrix
    aug[:dim, dim] = loop.forcing_dev
    exact = (scipy.linalg.expm(aug) @ np.append(np.zeros(dim), 1.0))[:dim]

    errors = []
    for h in (0.05, 0.025, 0.0125, 0.00625):
        trace = simulate(loop, 1.0, h=h)
        errors.append(np.linalg.norm(trace.states[-1] - exact))
    ratios = [errors[k] / errors[k + 1] for k in range(3)]
    ok = all(14.0 <= r <= 18.0 for r in ratios)
    report(
        "criterion 9, halving the step cuts the endpoint error 16-fold",
        ok,
        "error ratios " + ", ".join(f"{r:.2f}" for r in ratios),
    )
