"""Command-line front end.

Subcommands:

    simulate     run a scenario file, report settling, optionally write CSV
    analyze      feasibility / stability / steady-state report, no simulation
    rank-test    integral-action feasibility test for a network file
    gamma-bound  sufficient consensus-gain bound for a network file

Exit status: 0 on success (and settled / analysis-positive where that
applies), 1 when the run or analysis reaches a negative verdict, 2 on bad
input or a failed computation.  Results go to stdout; errors and the
warning for a gamma above gamma_bar go to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import analysis as analysismod
from . import control as ctrlmod
from . import scenario as scenariomod

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

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
    ctrl, bound = report.controller, report.gamma_bound
    if bound is not None and math.isfinite(bound.gamma_bar) and ctrl.gamma > bound.gamma_bar:
        print(f"gamma = {ctrl.gamma:.6g} exceeds the sufficient bound {bound.gamma_bar:.6g}; "
              "relying on the eigenvalue check alone", file=sys.stderr)
    bits = [f"kind={ctrl.kind}", f"kp={_fmt_vec(ctrl.kp)}"]
    if ctrl.ki is not None:
        bits.append(f"ki={_fmt_vec(ctrl.ki)}")
    if ctrl.gamma is not None:
        bits.append(f"gamma={ctrl.gamma:.6g}")
    print("controller: " + "  ".join(bits))
    if bound is not None:
        print(f"gamma_bar = {bound.gamma_bar:.6g}")
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
    if args.horizon is not None:
        scn = scn._replace(horizon=scenariomod._positive(None, 0, args.horizon, "--horizon"))
    if args.step is not None:
        step = scenariomod._positive(None, 0, args.step, "--step")
        scn = scn._replace(step=step, sources={**scn.sources, "step": (None, 0, "--step", step)})
    result = scenariomod.run_scenario(scn, csv_path=args.output)
    _print_analysis(result.analysis)
    trace = result.trace
    print(f"simulated {trace.times[-1]:.6g} s in {trace.times.shape[0]} steps"
          + (" (diverged)" if trace.diverged else ""))
    final_dev = np.max(np.abs(result.final_omega_hz - result.omega_hat_hz))
    print(f"final frequencies: {_fmt_vec(result.final_omega_hz, 'Hz')}")
    print(f"target {result.omega_hat_hz:.9g} Hz, worst deviation {final_dev:.3g} Hz")
    print(f"settled: {'yes' if result.settled else 'no'}")
    if args.output:
        print(f"trace written to {args.output}")
    return EXIT_OK if result.settled else EXIT_NEGATIVE


def _cmd_analyze(args):
    scn = scenariomod.load_scenario(args.scenario)
    report = scenariomod.analyze_scenario(scn)
    _print_analysis(report)
    return EXIT_OK if report.positive else EXIT_NEGATIVE


def _cmd_rank_test(args):
    loaded = scenariomod.load_network(args.network)
    n = loaded.net.n_buses
    scenariomod._gain_vector(None, 0, args.ki, n, "--ki")  # checked, though no gain moves the rank
    result = analysismod.xi_rank_test(*loaded.net.plant)
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
    ctrl = ctrlmod.ControllerSpec(kind=ctrlmod.DIST_PI, kp=kp, ki=ki, gamma=None,
                                  comm=loaded.net.coupling)
    with scenariomod._located(loaded, {"kp": (None, 0, "--kp", kp), "ki": (None, 0, "--ki", ki)}):
        bound = analysismod.gamma_bar(loaded.net, ctrl)
        if args.spectral:  # before the first line, so that a refusal prints nothing
            gamma_star = analysismod.gamma_star_search(loaded.net, ctrl)
    print(f"network: {args.network} ({n} buses)")
    print(f"gamma_bar = {bound.gamma_bar:.9g}")
    print(f"  alpha = {bound.alpha:.6g}  beta = {bound.beta:.6g}  sigma = {bound.sigma:.6g}")
    print(f"  kappa1 = {bound.kappa1:.6g}  kappa2 = {bound.kappa2:.6g}")
    if args.spectral:
        print(f"eigenvalue-based threshold ~= {gamma_star:.9g}")
        if 0.0 < bound.gamma_bar < math.inf and math.isfinite(gamma_star):
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
                       help="write the trace here ('' or no flag writes none)")
    p_sim.add_argument("--horizon", default=None, metavar="S",
                       help="override the simulation horizon in seconds")
    p_sim.add_argument("--step", default=None, metavar="S",
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
                      help="also search the eigenvalue-based stability threshold")
    p_gb.set_defaults(func=_cmd_gamma_bound)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # ParseError is a ValueError; MemoryError/OSError: a trace too large to allocate or to write
    except (ValueError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
