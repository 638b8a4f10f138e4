"""Command-line front end.

Subcommands:

    simulate     run a scenario file, report settling, optionally write CSV
    analyze      feasibility / stability / steady-state report, no simulation
    rank-test    integral-action feasibility test for a network file
    gamma-bound  sufficient consensus-gain bound for a network file

Exit status: 0 on success (and settled / analysis-positive where that
applies), 1 when the run or analysis reaches a negative verdict, 2 on bad
input or a failed computation.  Set GRIDPI_LOG=DEBUG (or INFO, ...) for
progress logging on stderr.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

import numpy as np

from . import analysis as analysismod
from . import control as ctrlmod
from . import scenario as scenariomod
from . import sysmodel

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

log = logging.getLogger("gridpi.cli")


def _configure_logging():
    level_name = os.environ.get("GRIDPI_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _fmt_vec(values, unit=""):
    body = ", ".join("%.6g" % v for v in np.asarray(values).ravel())
    return f"[{body}]{(' ' + unit) if unit else ''}"


def _print_stability(report):
    n_zero = len(report.zero_modes)
    print(f"zero modes: {n_zero} "
          f"({sum(1 for m in report.zero_modes if m.observable)} observable)")
    print(f"max Re(lambda) outside zero modes: {report.max_real_part_excluding_zero_modes:.6g} 1/s")
    print(f"output stable: {'yes' if report.output_stable else 'no'}")


def _print_analysis(report):
    ctrl = report.controller
    bits = [f"kind={ctrl.kind}", f"kp={_fmt_vec(ctrl.kp)}"]
    if ctrl.ki is not None:
        bits.append(f"ki={_fmt_vec(ctrl.ki)}")
    if report.gamma_used is not None:
        bits.append(f"gamma={report.gamma_used:.6g}")
    print("controller: " + "  ".join(bits))
    if report.gamma_bound is not None:
        print(f"gamma_bar = {report.gamma_bound.gamma_bar:.6g}")
    if report.rank is not None:
        r = report.rank
        print(f"rank test: rank {r.rank} of {r.dim} "
              f"(deficiency {r.deficiency}) -> {'pass' if r.full_rank else 'fail'}")
    _print_stability(report.stability)
    if report.prediction is not None:
        p = report.prediction
        print(f"predicted frequency: {p.omega_hat / scenariomod.TWO_PI:.9g} Hz")
        print(f"predicted inputs: {_fmt_vec(p.u_stationary, 'W')}")
    for reason in report.verdict_reasons():
        print(f"note: {reason}")
    print(f"verdict: {'positive' if report.positive else 'negative'}")


def _cmd_simulate(args):
    scn = scenariomod.load_scenario(args.scenario)
    result = scenariomod.run_scenario(
        scn,
        horizon=args.horizon,
        settle_tol_hz=args.settle_tol,
        csv_path=args.output,
        step=args.step,
    )
    _print_analysis(result.analysis)
    trace = result.trace
    print(f"simulated {trace.times[-1]:.6g} s in {trace.times.shape[0]} steps"
          + (" (diverged)" if trace.diverged else ""))
    final_dev = np.max(np.abs(result.omega_hz[-1] - result.omega_hat_hz))
    print(f"final frequencies: {_fmt_vec(result.omega_hz[-1], 'Hz')}")
    print(f"target {result.omega_hat_hz:.9g} Hz, worst deviation {final_dev:.3g} Hz")
    print(f"settled: {'yes' if result.settled else 'no'}")
    if result.csv_path:
        print(f"trace written to {result.csv_path}")
    return EXIT_OK if result.settled else EXIT_NEGATIVE


def _cmd_analyze(args):
    scn = scenariomod.load_scenario(args.scenario)
    report = scenariomod.analyze_scenario(scn)
    _print_analysis(report)
    return EXIT_OK if report.positive else EXIT_NEGATIVE


def _cmd_rank_test(args):
    loaded = scenariomod.load_network(args.network)
    n = loaded.net.n_buses
    ki = scenariomod._gain_vector(None, 0, args.ki, n, "--ki")
    result = analysismod.xi_rank_test(sysmodel.swing_to_lti(loaded.net), ki)
    print(f"network: {args.network} ({n} buses)")
    print(f"matrix size: {result.dim} x {result.dim}")
    print(f"rank: {result.rank} (deficiency {result.deficiency})")
    print(f"integral action feasible: {'yes' if result.full_rank else 'no'}")
    return EXIT_OK if result.full_rank else EXIT_NEGATIVE


def _cmd_gamma_bound(args):
    loaded = scenariomod.load_network(args.network)
    n = loaded.net.n_buses
    kp = scenariomod._gain_vector(None, 0, args.kp, n, "--kp")
    ki = scenariomod._gain_vector(None, 0, args.ki, n, "--ki")
    ctrl = ctrlmod.ControllerSpec(
        kind=ctrlmod.DIST_PI, kp=kp, ki=ki, gamma=None,
        comm=loaded.net.coupling_graph(),
    )
    bound = analysismod.gamma_bar(loaded.net, ctrl)
    print(f"network: {args.network} ({n} buses)")
    print(f"gamma_bar = {bound.gamma_bar:.9g}")
    print(f"  alpha = {bound.alpha:.6g}  beta = {bound.beta:.6g}  sigma = {bound.sigma:.6g}")
    print(f"  kappa1 = {bound.kappa1:.6g}  kappa2 = {bound.kappa2:.6g}")
    if args.spectral:
        gamma_star = analysismod.gamma_star_search(loaded.net, ctrl)
        print(f"eigenvalue-based threshold ~= {gamma_star:.9g}")
        if math.isfinite(bound.gamma_bar) and gamma_star > 0.0:
            print(f"bound / threshold = {bound.gamma_bar / gamma_star:.3g}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gridpi",
        description="Distributed PI frequency control: simulation and analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario file")
    p_sim.add_argument("scenario", help="path to a .scn scenario file")
    p_sim.add_argument("--output", default=None, metavar="CSV",
                       help="write the trace here (overrides the scenario; '' disables)")
    p_sim.add_argument("--horizon", type=float, default=None, metavar="S",
                       help="override the simulation horizon in seconds")
    p_sim.add_argument("--settle-tol", type=float, default=None, metavar="HZ",
                       help="override the settling tolerance in Hz")
    p_sim.add_argument("--step", type=float, default=None, metavar="S",
                       help="override the integration step in seconds")
    p_sim.set_defaults(func=_cmd_simulate)

    p_an = sub.add_parser("analyze", help="analysis report without simulating")
    p_an.add_argument("scenario", help="path to a .scn scenario file")
    p_an.set_defaults(func=_cmd_analyze)

    p_rank = sub.add_parser("rank-test", help="integral-action feasibility for a network")
    p_rank.add_argument("network", help="path to a .grid network file")
    p_rank.add_argument("--ki", required=True,
                        help="integral gains: one value or a comma list per bus")
    p_rank.set_defaults(func=_cmd_rank_test)

    p_gb = sub.add_parser("gamma-bound", help="sufficient consensus-gain bound")
    p_gb.add_argument("network", help="path to a .grid network file")
    p_gb.add_argument("--kp", required=True, help="proportional gains")
    p_gb.add_argument("--ki", required=True, help="integral gains")
    p_gb.add_argument("--spectral", action="store_true",
                      help="also bisect the actual stability threshold")
    p_gb.set_defaults(func=_cmd_gamma_bound)
    return parser


def main(argv=None):
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
