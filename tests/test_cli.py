"""The command-line cases as one table, run in process through cli.main
and again as a child process of the `gridpi` console script when one is
on PATH (CI installs the package; without a script those runs skip).

A row is id, argv (split like a shell line), the exit status, stderr
exactly, a regular expression for the whole of stdout (re.DOTALL) or None,
edits, and csv: (file, lines) of a trace the run writes.  In argv, stderr
and stdout, {data} is the directory of the bundled files, {tmp} the row's
scratch directory and {line} the line on which the row's last edit ends
(escaped in stdout).  A run starts in {tmp}, which holds a copy of every
bundled file; an edit (file, pattern, replacement) replaces the one match
of a multiline regular expression in a copy (pattern None: a new file).
The stdout of the analyze-<name> and simulate-<name> rows is
tests/golden/<command>_<name>.txt byte for byte.
Every row bans Traceback and Warning on stderr and a nan on stdout, must
exit within 60 s, and on an exit 2 prints nothing on stdout.
"""

import os
import re
import shlex
import shutil
import signal
import subprocess
import warnings
from pathlib import Path
from typing import NamedTuple

import pytest

from gridpi.cli import main as cli_main
from support import bundled

GOLDEN = Path(__file__).parent / "golden"


class Case(NamedTuple):
    id: str
    argv: str
    status: int
    err: str = ""
    out: str = None
    edits: tuple = ()
    csv: tuple = None


RING, NET2, NET5 = "{data}/ring_share.scn", "{data}/net2.grid", "{data}/net5ring.grid"
RUN = "simulate ring_share.scn --output ''"


def ring(pattern, replacement):
    """The edit of the ring_share.scn copy."""
    return (("ring_share.scn", pattern, replacement),)


GAMMA_1E9 = ring(r"^gamma = auto$", "gamma = 1.0e9")
ABOVE_THE_BOUND = ("gamma = 1e+09 exceeds the sufficient bound 3.27708; relying on the "
                   "eigenvalue check alone\n")
POSITIVE = "values must be strictly positive"
# every coupling near 2e299 W/rad: finite, but products of two of them overflow
COUPLING_1E150 = (("net5ring.grid", r"^voltage_kv = 10\.0$", "voltage_kv = 1e150"),)
LOAD_1E12 = ring(r"^1\.0 2 100\.0$", "1.0 2 1e12")
# draw 3 of support.random_wide_gain_loop at default_rng(3), and its gains
WIDE3 = (("wide3.grid", None, "schema = 1\n[defaults]\nvoltage_kv = 1.0\n[buses]\n"
          "1 inertia=0.7788050516484665 damping=7.714950502212401 load_kw=-0.03692156570936095\n"
          "2 inertia=6.269996892196494 damping=0.025528942155606263 load_kw=-0.3576882934374721\n"
          "3 inertia=0.15647494980591667 damping=0.022188734727600804 load_kw=-0.1400189912242148\n"
          "4 inertia=14.658791898004662 damping=4.809119511003307 load_kw=-0.14347245413602638\n"
          "5 inertia=15.514035490203186 damping=0.15972621473257692 load_kw=0.10905121101698655\n"
          "[lines]\n1 2 3.587679325933291e-06\n1 4 3.0244038995219727e-06\n"
          "2 3 3.4868436356957395e-06\n4 5 4.443939063759741e-06\n"),)
WIDE3_GAINS = ("--kp 0.012062664712935744,0.03379548209613433,0.4345258002212354,"
               "0.004425624710015177,0.08884961814982095 --ki 91.26504773544563,"
               "211.170387728031,0.011846100331848937,733.4635730582642,4.027889955884952")
# inertias 81-fold apart (test_analysis.unequal_two_bus_loop), and its gains
UNEQUAL2 = (("unequal2.grid", None, "schema = 1\n[defaults]\nvoltage_kv = 1.0\n[buses]\n"
             "1 inertia=19.8334194 damping=0.00704343\n2 inertia=0.24347019 damping=0.0015217\n"
             "[lines]\n1 2 1.5623229377059443e-05\n"),)
UNEQUAL2_GAINS = "--kp 2.62109904,3.22225286 --ki 3.0663319,411.3702417"
# net5ring.grid at a twentieth of its inertia: M^-1 = 2, so gains near 1e308 overflow in the loop
LIGHT = (("net5ring.grid", r"^inertia = 10\.0$", "inertia = 0.5"),)
BUS3 = (("bus3.grid", None, "schema = 1\n[defaults]\ninertia = 2.0\ndamping = 0.5\n"
         "voltage_kv = 10.0\n[buses]\n1\n2\n3\n[lines]\n1 2 2.0e-7\n2 3 2.0e-7\n"),)


def net5_lines(susceptance):
    """The edit of the net5ring.grid copy that gives all five lines the susceptance."""
    return (("net5ring.grid", r"^1 2 2\.17e-7(\n\d \d 2\.17e-7)+",
             "\n".join(f"{i} {i % 5 + 1} {susceptance}" for i in range(1, 6))),)


CASES = [
    # the README quotes these; dec30_bias's rank test fails, so its verdict is negative
    *(Case(f"{command}-{name}", f"{command} {{data}}/{name}.scn{options}", status,
           out=re.escape((GOLDEN / f"{command}_{name}.txt").read_text(encoding="utf-8")))
      for name, status in [("ring_share", 0), ("dist30_step", 0), ("dec30_bias", 1)]
      for command, options in [("analyze", ""), ("simulate", " --output ''")]),
    # swing dynamics fail the rank test; the bound is reported either way
    Case("rank-test-net2", f"rank-test {NET2} --ki 1.0", 1,
         out=r"network: {data}/net2\.grid \(2 buses\)\nmatrix size: 6 x 6\n"
             r"rank: 4 \(deficiency 2\)\nintegral action feasible: no\n"),
    Case("rank-test-net30", "rank-test {data}/net30.grid --ki 1", 1),
    # no positive gain moves the rank: M^-1 Ki = 1e-325 underflowed to 0 and
    # printed "rank: 59 (deficiency 31)"
    Case("rank-test-ki-underflows", "rank-test {data}/net30.grid --ki 1e-320", 1,
         out=r".*\nrank: 60 \(deficiency 30\)\n.*"),
    # the units decided the rank: the first two printed "rank: 5 (deficiency
    # 10)"; at inertia 0.5, M^-1 Ki overflowed with a RuntimeWarning and two
    # LAPACK DLASCL lines, then "rank: 0 (deficiency 15)"
    *(Case(id, f"rank-test net5ring.grid --ki {ki}", 1, out=r".*\nrank: 10 \(deficiency 5\)\n.*",
           edits=edits)
      for id, ki, edits in [
          ("rank-test-ki-huge", "1e308", ()),
          ("rank-test-inertia-tiny", "1", (("net5ring.grid", r"^inertia = 10\.0$",
                                             "inertia = 1e-300"),)),
          ("rank-test-ki-overflows", "1e308", LIGHT)]),
    Case("gamma-bound-net2", f"gamma-bound {NET2} --kp 1.0 --ki 1.0", 0,
         out=r"network: {data}/net2\.grid \(2 buses\)\ngamma_bar = 0\.5\n"
             r"  alpha = 0  beta = 0  sigma = 4\n  kappa1 = 1  kappa2 = 2\n"),
    Case("gamma-bound-net30", "gamma-bound {data}/net30.grid --kp 1 --ki 1", 0),
    # sigma took the smallest inertia: "sigma = 237.71" and "gamma_bar =
    # 0.0187826361", yet the loop is unstable from gamma ~= 0.0146 on
    Case("gamma-bound-unequal-inertias", f"gamma-bound unequal2.grid {UNEQUAL2_GAINS}", 0,
         out=r"network: unequal2\.grid \(2 buses\)\ngamma_bar = 0\.000412090423\n"
             r"  alpha = -0\.236183  beta = -62\.2891  sigma = 19364\.2\n"
             r"  kappa1 = 3\.06633  kappa2 = 2\.62814\n", edits=UNEQUAL2),
    Case("spectral-readme-example", f"gamma-bound {NET5} --kp 100 --ki 5000 --spectral", 0),
    # no loss of stability within 2**80 gamma_bar: "inf" is no threshold, so
    # there is no conservatism ratio, and the threshold is the last line
    Case("spectral-without-a-crossing", f"gamma-bound {NET5} --kp 1e300 --ki 1e-300 --spectral",
         0, out=r".*\neigenvalue-based threshold ~= inf\n"),
    # the loop fails the check already at gamma_bar: the search skipped start
    # and printed "eigenvalue-based threshold ~= 0.424920613" with exit 0; the
    # inertias differ, so the bound with the largest one is lower than the
    # 2.72654572e-05 that the smallest gave (the check's band still fails it)
    Case("spectral-fails-at-gamma-bar", f"gamma-bound wide3.grid {WIDE3_GAINS} --spectral", 2,
         "error: wide3.grid: closed loop already fails the eigenvalue check at gamma = "
         "2.79133639e-07\n", edits=WIDE3),
    # the search's refusal came after "gamma_bar = 324463.042" on stdout, and
    # named no file
    Case("spectral-refusal-prints-nothing", f"gamma-bound {NET5} --kp 1 --ki 1e10 --spectral", 2,
         "error: {data}/net5ring.grid: closed loop already fails the eigenvalue check at "
         "gamma = 324463.042\n"),
    # a missing file, a grid given as a scenario, a network that cannot be
    # read (at the scenario line that names it) and an unsupported schema
    Case("scenario-missing", "simulate nope.scn", 2,
         "error: nope.scn: cannot read file (No such file or directory)\n"),
    Case("grid-as-scenario", f"analyze {NET5}", 2,
         "error: {data}/net5ring.grid:5: unknown section [network] in scenario file\n"),
    *(Case(f"network-{what}", "analyze ring_share.scn", 2, f"error: ring_share.scn:{{line}}: "
           f"network: cannot read {name} ({reason})\n",
           edits=ring(r"^network = net5ring\.grid$", f"network = {name}"))
      for what, name, reason in [("missing", "nope.grid", "No such file or directory"),
                                 ("directory", ".", "Is a directory")]),
    Case("schema-unsupported", "simulate bad.scn", 2,
         "error: bad.scn:1: unsupported schema version '3' (this build reads 1)\n",
         edits=(("bad.scn", None, "schema = 3\n"),)),
    # header plus 201 rows; 20 s is too short to settle
    Case("csv-trace", f"simulate {RING} --horizon 20 --output trace.csv", 1,
         csv=("trace.csv", 202)),
    # a missing output directory is made; the run ends before the load step
    Case("csv-into-a-new-directory", f"simulate {RING} --horizon 1 --output runs/trace.csv", 0,
         out=r".*\nsettled: yes\ntrace written to runs/trace\.csv\n", csv=("runs/trace.csv", 12)),
    # the prediction is at the loads in effect when the run ends: it was the
    # post-step [17512.2, 35024.4, 14009.8, 28019.5, 7004.88] W, yet the last
    # CSV row holds the pre-step inputs
    Case("prediction-before-the-load-step", "simulate ring_share.scn --horizon 0.5 --output t.csv",
         0, out=r".*\npredicted inputs: \[270\.827, 541\.654, 216\.662, 433\.323, 108\.331\] W\n.*",
         csv=("t.csv", 7)),
    # an output spacing longer than the run writes the first and the last row
    Case("csv-spacing-beyond-the-run", "simulate ring_share.scn --horizon 2 --output every.csv", 1,
         edits=ring(r"^output_every_s = 0\.1$", "output_every_s = 1e308"), csv=("every.csv", 3)),
    Case("csv-to-a-directory", f"simulate {RING} --horizon 1 --output .", 2,
         "error: cannot write the trace to .: it names a directory\n"),
    # analyze printed a -inf Hz prediction, NaN inputs and a positive verdict,
    # simulate NaN frequencies
    *(Case(id, argv, 2, "error: ring_share.scn:{line}: eta_hz: 2*pi*1e308 rad/s is not finite\n",
           edits=ring(r"\Z", "\n[noise]\n1 1e308\n"))
      for id, argv in [("noise-overflows", "analyze ring_share.scn"),
                       ("noise-overflows-simulate", RUN)]),
    Case("noise-beyond-nominal", "analyze ring_share.scn", 2, "error: ring_share.scn:{line}: "
         "eta_hz: |1e300| Hz is not below the nominal frequency 50 Hz\n",
         edits=ring(r"\Z", "\n[noise]\n1 1e300\n")),
    # a band that wide called a bus at 0 Hz settled: the run printed final
    # frequencies from 12.7 to 62.2 Hz, "settled: yes" and exit 0
    Case("settle-band-beyond-nominal", f"{RUN} --horizon 2", 2, "error: ring_share.scn:{line}: "
         "settle_tol_hz: 1e308 Hz is not below the nominal frequency 50 Hz\n",
         edits=ring(r"^settle_tol_hz = 1\.0e-3$", "settle_tol_hz = 1e308")),
    Case("cost-reciprocal-overflows", "analyze ring_share.scn", 2,
         "error: ring_share.scn:{line}: cost_coeffs: 1/1e-320 is not finite\n",
         edits=ring(r"5\.0e-4$", "1e-320")),
    # above gamma_bar the command warns and the eigenvalue check decides; at
    # 1e9 the 2 ms step is outside the RK4 stability region, but 1e-11 s is not
    Case("gamma-above-the-bound-analyze", "analyze ring_share.scn", 1, ABOVE_THE_BOUND,
         r".*  gamma=1e\+09\n.*", GAMMA_1E9),
    Case("gamma-above-the-bound-simulate", f"{RUN} --horizon 1e-9 --step 1e-11", 0,
         ABOVE_THE_BOUND, r".*  gamma=1e\+09\n.*", GAMMA_1E9),
    # gamma_bar underflows to 0 at ki = 1e-320, and half of it is no gamma: the
    # run failed with ControllerSpec's unlocated "must be positive, got 0.0";
    # a defaulted gamma has no line to name
    *(Case(f"gamma-auto-without-a-bound-{how}-{argv.split()[0]}", argv, 2,
           f"error: ring_share.scn{where}: gamma = auto: gamma_bar = 0 certifies no positive "
           "gamma\n", edits=ring(r"^kp = 100\.0$", "kp = 1.0")
           + ring(r"^cost_coeffs = .+$", "ki = 1e-320") + ring(r"^gamma = auto\n", gamma_line))
      for how, where, gamma_line in [("explicit", ":{line}", "gamma = auto\n"),
                                     ("defaulted", "", "")]
      for argv in ("analyze ring_share.scn", RUN)),
    # a communication path that fails gamma_bar's precondition: a numeric gamma
    # exited 2 with the precondition's unlocated message; it is analyzed without
    # a bound, so no gamma_bar line is printed (gamma = auto is refused at its line)
    Case("gamma-numeric-without-the-precondition", "analyze ring_share.scn", 0,
         out=r"controller: [^\n]*  gamma=1\nzero modes: 1 \(0 observable\)\n.*"
             r"verdict: positive\n",
         edits=ring(r"^gamma = auto$", "gamma = 1.0") + ring(
             r"^comm_topology = same-as-grid$",
             "comm_topology = edges\n[comm_edges]\n1 3 1\n3 5 5\n5 2 0.2\n2 4 1")),
    # the warning comes with the analysis report, so a refused run shows only its error
    Case("gamma-above-the-bound-refused-run", f"{RUN} --horizon 1", 2,
         "error: ring_share.scn:9: step_s: step 0.002 s is outside the RK4 stability region: mode "
         "lambda = -7.85113e+10+0j 1/s has |R(h lambda)| = 2.53302e+31 >= 1; a step of "
         "2.98023e-11 s passes\n", edits=GAMMA_1E9),
    # gamma Lc overflowed in the loop matrix: RuntimeWarnings, a LAPACK DLASCL
    # message on stdout, then an unlocated "SVD did not converge"
    *(Case(f"gamma-overflows-{argv.split()[0]}", argv, 2, "error: ring_share.scn:{line}: gamma = "
           "1e308: the product gamma Lc overflows; the averaging gain is too large for the "
           "communication weights\n", edits=ring(r"^gamma = auto$", "gamma = 1e308"))
      for argv in ("analyze ring_share.scn", RUN)),
    # a gamma_bar below the smallest normal float is 0: a bound of 0 gets no
    # conservatism ratio, so the threshold is the last line
    *(Case(f"gamma-bar-subnormal-{ki}", f"gamma-bound bus3.grid --kp 5 --ki {ki} --spectral", 0,
           out=r".*\ngamma_bar = 0\n.*\neigenvalue-based threshold ~= 2291665.52\n", edits=BUS3)
      for ki in ("1e-320", "1e-310")),
    # at gamma_bar = 1.6e285 the rung start * 2**80 is not finite: the search
    # ended in "OverflowError: math range error" from math.ldexp; the finite
    # rungs, up to start * 2**63, all pass
    Case("spectral-ladder-overflows",
         "gamma-bound net5ring.grid --kp 1e300 --ki 1e-300 --spectral", 0,
         out=r".*\ngamma_bar = 1\.62231524e\+285\n.*\neigenvalue-based threshold ~= inf\n",
         edits=net5_lines("2.17e-152")),
    # lo * f_hi of the secant step overflowed: "RuntimeWarning: overflow
    # encountered in scalar multiply"; the step falls back to the geometric mean
    Case("spectral-secant-overflows", f"gamma-bound {NET5} --kp 1e200 --ki 1 --spectral", 0,
         out=r".*\ngamma_bar = 1\.62231524e\+195\n.*\neigenvalue-based threshold ~= \S+e\+205\n.*"),
    # gamma_bar * arange(1, 101) on the verification grid (since removed)
    # overflowed: two RuntimeWarnings, then "error: gamma_bar failed its own
    # grid verification"; a bound this close to the largest float must print
    Case("gamma-bar-grid-overflows", "gamma-bound net5ring.grid --kp 1 --ki 1", 0,
         out=r"network: net5ring\.grid \(5 buses\)\ngamma_bar = 3\.31374938e\+306\n.*",
         edits=net5_lines("2.17e-300")),
    # a gain product that overflows is the gains' fault when D Lc is finite
    Case("kp-overflows-flag", f"gamma-bound {NET5} --kp 1e308 --ki 1", 2,
         "error: --kp: the product (D + Kp) Lc overflows; the damping and proportional gains "
         "are too large for the averaging-gain bound\n"),
    Case("kp-overflows-line", "analyze ring_share.scn", 2,
         "error: ring_share.scn:{line}: kp: the product (D + Kp) Lc overflows; the damping and "
         "proportional gains are too large for the averaging-gain bound\n",
         edits=ring(r"^kp = 100\.0$", "kp = 1e308")),
    # a1 * a2 on the verification grid (since removed) overflowed to +inf and
    # leaked "RuntimeWarning: overflow encountered in multiply"
    Case("ki-huge", f"gamma-bound {NET5} --kp 1 --ki 1e308", 0,
         out=r".*\ngamma_bar = 1\.7592186e\+13\n.*"),
    # gamma_bar's Lk Lc overflowed: a RuntimeWarning, then "error: Eigenvalues
    # did not converge" with no file; a scenario's grid is named by the
    # absolute path that the scenario resolves
    *(Case(f"coupling-product-overflows{suffix}", argv, 2, f"error: {grid}: the product Lk Lc "
           "of the coupling and communication Laplacians overflows; the couplings are too large "
           "for the averaging-gain bound\n", edits=COUPLING_1E150)
      for suffix, argv, grid in [("", "gamma-bound net5ring.grid --kp 1 --ki 1", "net5ring.grid"),
                                 ("-analyze", "analyze ring_share.scn", "{tmp}/net5ring.grid"),
                                 ("-simulate", RUN, "{tmp}/net5ring.grid")]),
    # gains whose blocks of the closed loop overflow at inertia 0.5: RuntimeWarnings,
    # LAPACK's DLASCL lines, then "error: SVD did not converge" with no location
    # ("error: net5ring.grid: SVD did not converge" from gamma-bound)
    *(Case(f"loop-gain-overflows-{kind}-{command}", argv, 2,
           f"error: ring_share.scn:{{line}}: {key}: this gain makes the closed loop's {block} of "
           "bus 1 non-finite\n", edits=LIGHT + ring(r"^kind = dist_pi\n(.+\n){3}comm_topology = "
                                                    r"same-as-grid$", controller))
      for kind, key, block, controller in [
          ("dec_pi", "ki", "M^-1 Ki", "kind = dec_pi\nkp = 100.0\nki = 1e308"),
          ("p", "kp", "M^-1 (D + Kp)", "kind = p\nkp = 1e308")]
      for command, argv in [("analyze", "analyze ring_share.scn"), ("simulate", RUN)]),
    Case("loop-gain-overflows-spectral", "gamma-bound net5ring.grid --kp 1 --ki 1e308 --spectral",
         2, "error: --ki: this gain makes the closed loop's M^-1 Ki of bus 1 non-finite\n",
         edits=LIGHT),
    # without --spectral no loop is closed, so the bound stands
    Case("loop-gain-overflows-bound-only", "gamma-bound net5ring.grid --kp 1 --ki 1e308", 0,
         out=r".*\ngamma_bar = 1\.63189876e\+16\n.*", edits=LIGHT),
    # an error inside the network file that a scenario names is reported at
    # its own file and line, not at the scenario's network line
    Case("network-file-error-analyze", "analyze ring_share.scn", 2,
         "error: {tmp}/net5ring.grid:{line}: inertia of bus 1 must be positive\n",
         edits=(("net5ring.grid", r"^inertia = 10\.0$", "inertia = -1"),)),
    # it leaked "RuntimeWarning: overflow encountered in matmul"; the product
    # was named M^-1 Lc, but M^-1 = 1/inertia in the swing form
    Case("inertia-product-overflows", "gamma-bound net5ring.grid --kp 1 --ki 1", 2,
         "error: net5ring.grid: the product M Lc overflows; the inertias are too large for "
         "the averaging-gain bound\n",
         edits=(("net5ring.grid", r"^inertia = 10\.0$", "inertia = 1.7e308"),)),
    # M^-1 Lk overflowed: LAPACK's DLASCL messages, then "rank: 0 (deficiency 15)" and exit 1
    Case("swing-form-overflows", "rank-test net5ring.grid --ki 1", 2, "error: net5ring.grid: the "
         "swing form's M^-1 Lk is not finite\n", edits=(("net5ring.grid", r"^inertia = 10\.0$",
         "inertia = 1e-300"), ("net5ring.grid", r"^voltage_kv = 10\.0$", "voltage_kv = 1e6"))),
    *(Case(id, f"{command} {NET2} {flags}", 2, f"error: {message}\n")
      for id, command, flags, message in [
          ("ki-abc", "rank-test", "--ki abc", "--ki: expected a number, got 'abc'"),
          ("ki-inf", "rank-test", "--ki inf", "--ki: expected a finite number, got 'inf'"),
          ("ki-nan", "rank-test", "--ki '1, nan'", "--ki: expected a finite number, got 'nan'"),
          ("ki-empty", "rank-test", "--ki ''", "--ki: empty value"),
          ("kp-inf", "gamma-bound", "--kp inf --ki 1", "--kp: expected a finite number, got 'inf'"),
          ("ki-blank", "gamma-bound", "--kp 1 --ki ' , '", "--ki: empty value"),
          ("ki-zero-rank-test", "rank-test", "--ki 0", f"--ki: {POSITIVE}"),
          ("kp-negative", "gamma-bound", "--kp -1 --ki 1", f"--kp: {POSITIVE}"),
          ("ki-negative-in-a-list", "rank-test", "--ki '1, -2'", f"--ki: {POSITIVE}"),
          ("kp-zero", "gamma-bound", "--kp 0 --ki 1", f"--kp: {POSITIVE}"),
          ("ki-zero", "gamma-bound", "--kp 1 --ki 0", f"--ki: {POSITIVE}"),
          ("ki-negative", "gamma-bound", "--kp 1 --ki -1", f"--ki: {POSITIVE}")]),
    Case("horizon-inf", f"simulate {RING} --horizon inf", 2,
         "error: --horizon: expected a finite number, got 'inf'\n"),
    # a run shorter than 1e-9 steps was dropped as rounding: "simulated 0 s in 1 steps"
    Case("horizon-below-the-rounding-band", f"simulate {RING} --horizon 1e-13 --output ''", 0,
         out=r".*\nsimulated 1e-13 s in 2 steps\n.*"),
    # a refused step is named where it was set: the --step flag or the step_s
    # line (line 9 of ring_share.scn); these messages named neither.
    # RK4 amplifies the ring's fastest decaying mode at 0.5 s: integrated
    # anyway, the run reached 7e16 Hz in 6 steps and ended as "not settled"
    Case("step-outside-the-stability-region", f"simulate {RING} --step 0.5 --output ''", 2,
         "error: --step: step 0.5 s is outside the RK4 stability region: mode lambda = -124.572+0j "
         "1/s has |R(h lambda)| = 588728 >= 1; a step of 0.015625 s passes\n"),
    # R(h lambda) rounds to 1: the search for a passing step never returned
    *(Case(f"step-rounds-to-one-{where}", argv, 2, f"error: {at}: step 1e-16 s is too small for "
           "float64: mode lambda = -0.119017+0j 1/s has |R(h lambda)| rounding to 1, so RK4 does "
           "not damp that mode\n", edits=edits)
      for where, argv, at, edits in [
          ("flags", f"simulate {RING} --step 1e-16 --horizon 1e-12 --output ''", "--step", ()),
          ("file", RUN, "ring_share.scn:{line}: step_s",
           ring(r"^step_s = 0\.002$", "step_s = 1e-16"))]),
    Case("step-rounds-to-one-dist30", "simulate dist30_step.scn --output ''", 2,
         "error: dist30_step.scn:{line}: step_s: step 1e-310 s is too small for float64: mode "
         "lambda = -0.158158+0j 1/s has |R(h lambda)| rounding to 1, so RK4 does not damp that "
         "mode\n", edits=(("dist30_step.scn", r"^step_s = 0\.005$", "step_s = 1e-310"),)),
    # |R| overflowed with a RuntimeWarning, and NaN >= 1 ended the halving early
    *(Case(id, f"{RUN} --horizon 5", 2, f"error: ring_share.scn:{{line}}: step_s: step {shown} s is "
           "outside the RK4 stability region: mode lambda = -0.119017+0j 1/s has |R(h lambda)| = "
           f"inf >= 1; a step of {ok} s passes\n", edits=ring(r"^step_s = 0\.002$", f"step_s = {step}"))
      for id, step, shown, ok in [("step-huge", "1e300", "1e+300", "0.0116658"),
                                  ("step-huge-1e308", "1e308", "1e+308", "0.0173834")]),
    Case("step-huge-suggestion-passes", f"{RUN} --horizon 5 --step 0.0116658", 1,
         edits=ring(r"^step_s = 0\.002$", "step_s = 1e300")),
    Case("kp-huge-mode", f"{RUN} --horizon 5", 2, "error: ring_share.scn:9: step_s: step 0.002 s "
         "is outside the RK4 stability region: mode lambda = -1e+199+0j 1/s has |R(h lambda)| = "
         "inf >= 1; a step of 1.33777e-200 s passes\n", edits=ring(r"^kp = 100\.0$", "kp = 1e200")),
    *(Case(f"step-count-overflows-{where}", argv, 2, f"error: {at}: step 1e-10 s: a segment of "
           "1e+300 s takes a non-finite number of steps\n", edits=edits)
      for where, argv, at, edits in [
          ("flags", f"simulate {RING} --step 1e-10 --horizon 1e300 --output ''", "--step", ()),
          ("file", RUN, "ring_share.scn:{line}: step_s", ring(r"^horizon_s = 200\.0$", "horizon_s = 1e300")
           + ring(r"^step_s = 0\.002$", "step_s = 1e-10"))]),
    # 2e14 steps of a 15-state loop is 21.3 PiB, beyond any address space
    Case("trace-too-large", f"simulate {RING} --step 1e-12 --output ''", 2,
         "error: --step: step 1e-12 s: a trace of 2e+14 rows of 15 states cannot be allocated\n"),
    # 1e300 rows is beyond numpy's dimension limit, so no memory is asked for;
    # numpy's bare "Maximum allowed dimension exceeded" named neither the step nor the run
    Case("trace-beyond-the-dimension-limit",
         f"simulate {RING} --step 1e-10 --horizon 1e290 --output ''", 2,
         "error: --step: step 1e-10 s: a trace of 1e+300 rows of 15 states cannot be allocated\n"),
    # the P kind skips gamma_bar, so the couplings reach the integrator: the
    # step map overflowed with four RuntimeWarnings, and the run printed NaN
    # frequencies after 2 steps with exit 1
    Case("step-map-not-finite", RUN, 2, "error: ring_share.scn:9: step_s: step 0.002 s: the RK4 "
         "step map is not finite\n",
         edits=ring(r"^kind = dist_pi\n(.+\n){3}comm_topology = same-as-grid$",
                    "kind = p\nkp = 100.0") + COUPLING_1E150),
    # the loop passes the analysis, output stable; its run ended as
    # "(diverged)", "settled: no" and exit 1
    Case("load-leaves-the-range-analyze", "analyze ring_share.scn", 0,
         out=r".*\noutput stable: yes\n.*\nverdict: positive\n", edits=LOAD_1E12),
    Case("load-leaves-the-range-simulate", RUN, 2, "error: the output-stable loop left the "
         "integrator's range at t = 1.012 s: omega of bus 2 is -1.10769e+12, beyond "
         "DIVERGENCE_LIMIT = 1e+12\n", edits=LOAD_1E12),
    # equal integral gains share equally at any size: the bordered solve of the
    # stationary point lost its row of ones to rounding and predicted NaN inputs
    Case("prediction-at-huge-ki", "analyze dist30_step.scn", 1,
         out=r".*\npredicted inputs: \[(20314\.2, ){{29}}20314\.2\] W\n.*",
         edits=(("dist30_step.scn", r"^ki = 40000\.0$", "ki = 1e308"),)),
    # the consensus overflows: analyze judged the loop, and the run started from
    # NaN states, "left the integrator's range at t = 0.005 s" with no location
    *(Case(f"consensus-overflows-{argv.split()[0]}", argv, 2, "error: dec30_bias.scn:{line}: ki: "
           "the stationary point's consensus -sum(p - D omega_ref) / sum(Ki) is not finite\n",
           edits=(("dec30_bias.scn", r"^ki = 0\.04$", "ki = 1e-320"),))
      for argv in ("analyze dec30_bias.scn", "simulate dec30_bias.scn --horizon 1.5 --output ''")),
    # the consensus of a later load stage, and the integrators' spread under eta, were
    # refused with no location.  The 1e10 kW step is finite and the swing form takes it:
    # the consensus sum(p - D omega_ref) / sum(Ki) overflows because Ki = 1/cost is 1e-300,
    # so the cost_coeffs line is named.  The spread z of gamma Lc z = mean(eta) - eta
    # scales as 1/gamma: a 1 mHz offset is ordinary, and gamma = 1e-320 (subnormal in
    # float64) puts z beyond float64, so the gamma line is named as written
    *(Case(f"{what}-{argv.split()[0]}", argv, 2, f"error: ring_share.scn:{{line}}: {message}\n",
           edits=edits)
      for what, message, edits in [
          ("later-stage-consensus-overflows", "cost_coeffs: the stationary point's consensus "
           "-sum(p - D omega_ref) / sum(Ki) is not finite",
           ring(r"^1\.0 2 100\.0$", "1.0 2 1.0e10") + ring(r"^cost_coeffs = .+$",
                                                           "cost_coeffs = 1e300")),
          ("spread-under-eta-overflows", "gamma = 1e-320: float64 cannot resolve the "
           "stationary point (the solution is not finite)",
           ring(r"\Z", "\n[noise]\n1 1.0e-3\n") + ring(r"^gamma = auto$", "gamma = 1e-320"))]
      for argv in ("analyze ring_share.scn", RUN)),
    # the droop's frequency offset overflows at damping and kp 1e-300: the run
    # printed "settled: no" with exit 1
    *(Case(f"frequency-offset-overflows-{argv.split()[0]}", argv, 2, "error: ring_share.scn:{line}: "
           "kp: the stationary point's frequency offset sum(p - D omega_ref) / sum(D + Kp) is not "
           "finite\n", edits=(("net5ring.grid", r"^damping = 1\.0\nvoltage_kv = 10\.0\nload_kw = "
                               r"0\.0$", "damping = 1e-300\nvoltage_kv = 10.0\nload_kw = 1e300"),)
           + ring(r"^kind = dist_pi\n(.+\n){3}comm_topology = same-as-grid$", "kind = p\nkp = 1e-300"))
      for argv in ("analyze ring_share.scn", f"{RUN} --horizon 2")),
    # two stiff lines apart: analyze exited 1, and the run printed final
    # frequencies of -8.8e35 Hz
    *(Case(f"force-balance-singular-{argv.split()[0]}", argv, 2, "error: {tmp}/net5ring.grid: "
           "float64 cannot resolve the stationary point (Singular matrix)\n",
           edits=tuple(("net5ring.grid", rf"^{ends} 2\.17e-7$", f"{ends} 99999999999999999999999")
                       for ends in ("1 2", "4 5")))
      for argv in ("analyze ring_share.scn", f"{RUN} --horizon 2")),
    # Kp eta overflowed with RuntimeWarnings: analyze printed a positive verdict
    *(Case(f"control-offset-overflows-{argv.split()[0]}", argv, 2, "error: ring_share.scn:{line}: "
           "noise: this offset makes the control offset Kp eta of bus 2 non-finite\n",
           edits=ring(r"^kind = dist_pi\n(.+\n){3}comm_topology = same-as-grid$",
                      "kind = p\nkp = 1e308") + ring(r"\Z", "\n[noise]\n2 49.0\n"))
      for argv in ("analyze ring_share.scn", RUN)),
]


def edit_copies(case, data, tmp):
    """Copy the bundled files into tmp, apply case.edits, return {line}."""
    shutil.copytree(data, tmp, dirs_exist_ok=True)
    line = None
    for name, pattern, replacement in case.edits:
        text = "" if pattern is None else (tmp / name).read_text(encoding="utf-8")
        matches = [m.span() for m in re.finditer(pattern or r"\A", text, re.MULTILINE)]
        assert len(matches) == 1, (name, pattern)
        (start, stop), = matches
        text = text[:start] + replacement + text[stop:]
        (tmp / name).write_text(text, encoding="utf-8")
        line = text.count("\n", 0, start + len(replacement) - 1) + 1
    return line


def in_process(argv, capfd):
    """cli.main(argv) with its output captured at the file descriptors, so
    that LAPACK's own messages count."""
    def hung(signum, frame):
        pytest.fail("no exit within 60 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        status = cli_main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return (status, *capfd.readouterr())


@pytest.fixture(scope="session")
def installed(tmp_path_factory):
    """The gridpi script on PATH, the environment of its runs (no PYTHONPATH,
    overflow warnings as errors) and the data directory of its package, as
    the interpreter on the script's #! line finds it."""
    script = shutil.which("gridpi")
    if script is None:
        pytest.skip("no gridpi console script on PATH; install the package to run these rows")
    with open(script, "rb") as fh:
        first = fh.readline().decode(errors="replace")
    if not first.startswith("#!"):
        pytest.skip(f"{script} names no interpreter on a #! line")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    where = "from importlib.resources import files; print(files('gridpi') / 'data')"
    try:
        res = subprocess.run([*shlex.split(first[2:]), "-c", where], env=env,
                             cwd=tmp_path_factory.mktemp("where"), capture_output=True, text=True)
    except OSError as err:
        pytest.skip(f"{script}: its interpreter does not start ({err})")
    if res.returncode != 0:
        last = (res.stderr.strip().splitlines() or [f"exit {res.returncode}"])[-1]
        pytest.skip(f"{script}: its interpreter cannot import gridpi ({last})")
    return script, env, Path(res.stdout.strip())


@pytest.mark.parametrize("mode", ["in-process", "installed"])
@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_cli_case(case, mode, request, tmp_path, monkeypatch, capfd):
    if mode == "installed":
        script, env, data = request.getfixturevalue("installed")
    else:
        data = Path(bundled("net2.grid")).parent
    fields = {"data": data, "tmp": tmp_path, "line": edit_copies(case, data, tmp_path)}
    argv = [word.format(**fields) for word in shlex.split(case.argv)]
    if mode == "installed":
        res = subprocess.run([script, *argv], cwd=tmp_path, env=env, capture_output=True,
                             text=True, timeout=60)
        status, out, err = res.returncode, res.stdout, res.stderr
    else:
        monkeypatch.chdir(tmp_path)
        status, out, err = in_process(argv, capfd)
    assert "Traceback" not in err and "Warning" not in err
    assert not re.search(r"\bnan\b", out)
    assert (status, err) == (case.status, case.err.format(**fields))
    if status == 2:
        assert out == ""
    escaped = {key: re.escape(str(value)) for key, value in fields.items()}
    assert re.fullmatch((case.out or ".*").format(**escaped), out, re.DOTALL), out
    if case.csv is not None:
        name, lines = case.csv
        assert len((tmp_path / name).read_text(encoding="utf-8").splitlines()) == lines


# ---------------------------------------------------------------------------
# the value sweep of ROADMAP item 7
# ---------------------------------------------------------------------------

SWEEP_VALUES = ("0", "-0", "1e-320", "1e-300", "1e300", "-1e300", "1e308", "nan", "inf",
                "99999999999999999999999")
# each command runs the scenario named in place of {}
SWEEP_COMMANDS = {"analyze": ["analyze", "{}"],
                  "simulate": ["simulate", "{}", "--horizon", "2", "--output", ""]}
# ring_share.scn with a second load step and a [noise] row, so that the sweep reaches a
# later stage's stationary point, the prediction under eta and the [noise] checks
RING_NOISE = (Path(bundled("ring_share.scn")).read_text(encoding="utf-8")
              + "1.5 4 -50.0\n\n[noise]\n3 0.002\n")
SWEEP_NUMBER = re.compile(r"(?<![\w.])[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")
# an exit 2 names its file, file and line, or flag
SWEEP_LOCATED = re.compile(r"error: (ring_(share|noise)\.scn|\S*net5ring\.grid)(:\d+)?: "
                           r"|error: --[a-z]+: ")
# "max Re(lambda) outside zero modes: -inf" when no eigenvalue falls outside the band (item 3)
BAND = "prints the zero-mode band's -inf"
# the run leaves the integrator's range with no file or line named
RANGE = "unlocated range error"
# (file:line command) -> why each value on that line that fails the sweep's rule fails it
SWEEP_LEAKS = {
    "ring_share.scn:16 analyze": BAND,  # cost_coeffs at 1e-300
    **{f"net5ring.grid:{line} {command}": BAND for command in SWEEP_COMMANDS
       for line in (9, 11, 22, 23, 24, 25, 26)},  # inertia, voltage_kv and the lines
    **{f"{where} simulate": RANGE for where in (
        "net5ring.grid:6", "net5ring.grid:12", "ring_share.scn:21")},  # frequency, loads at 1e300
    "ring_noise.scn:16 analyze": BAND,  # cost_coeffs at 1e-300, as in ring_share.scn
    **{f"ring_noise.scn:{line} simulate": RANGE for line in (21, 22)},  # both loads at 1e300
}


def sweep_edits():
    """(file, line, edited text) for each numeric token of ring_share.scn,
    net5ring.grid and ring_noise.scn (RING_NOISE) outside comments and the
    schema header, and each value."""
    texts = {name: Path(bundled(name)).read_text(encoding="utf-8")
             for name in ("ring_share.scn", "net5ring.grid")}
    for name, text in {**texts, "ring_noise.scn": RING_NOISE}.items():
        start = 0
        for lineno, line in enumerate(text.splitlines(keepends=True), start=1):
            body = line.split("#", 1)[0]
            if not body.strip().startswith("schema"):
                for m in SWEEP_NUMBER.finditer(body):
                    for value in SWEEP_VALUES:
                        yield name, lineno, text[:start + m.start()] + value + text[start + m.end():]
            start += len(line)


def test_value_sweep_leaks_only_what_is_pinned(tmp_path, monkeypatch, capfd):
    # every run exits 0 or 1 without a nan or inf on stdout, or 2 with a located
    # message, but for SWEEP_LEAKS: a mended leak shows up as a pin to remove
    monkeypatch.chdir(tmp_path)
    leaks, runs = {}, 0
    for name, lineno, edited in sweep_edits():
        for other in ("ring_share.scn", "net5ring.grid"):
            shutil.copy(bundled(other), tmp_path)
        (tmp_path / name).write_text(edited, encoding="utf-8")
        scenario = name if name.endswith(".scn") else "ring_share.scn"
        for command, argv in SWEEP_COMMANDS.items():
            runs += 1
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                status, out, err = in_process([a.format(scenario) for a in argv], capfd)
            if (status in (0, 1) and not re.search(r"\b(nan|inf)\b", out)
                    or status == 2 and SWEEP_LOCATED.match(err)):
                continue
            cause = (BAND if "outside zero modes: -inf" in out else
                     RANGE if err.startswith("error: the output-stable loop left") else
                     f"exit {status}: {err or out}")
            leaks.setdefault(f"{name}:{lineno} {command}", set()).add(cause)
    assert runs == 1120
    assert leaks == {where: {cause} for where, cause in SWEEP_LEAKS.items()}
