#!/usr/bin/env python3
"""Seeded input generator for the gridpi benchmark.

Writes connected mesh networks (.grid) and distributed-PI / P scenarios
(.scn) for the generated workloads.  The same seed always produces
byte-identical files: every number comes from one numpy Generator seeded
with (seed, workload) and is written with a fixed format.

    python3 perfbench/gen.py --seed 7 --workload event_storm [--out DIR]

Without --out the files go to a fresh temporary directory, whose path is
printed; the generator never writes into the source tree on its own.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

import numpy as np

# Machine and line parameters in the range of the bundled 30-bus network:
# time constants of seconds, so a 10 ms RK4 step is well inside the
# stability region while the integrators still visibly restore frequency.
VOLTAGE_KV = 132.0
INERTIA = 1.0e5        # [kg m^2], spread +-20 %
DAMPING = 1.0          # [W s^2 / rad^2], spread +-20 %
LINE_COUPLING = 2.0e3  # [W/rad] per line, spread +-50 %
KP, KI = 8.0e4, 4.0e4  # controller gains, spread +-10 %

# Workload sizes.  design_sweep: one mesh per entry (bus count); sizes are
# fixed so that seeds only change topology details and parameter draws.
DESIGN_BUSES = (100, 120)
STORM_BUSES = 64
STORM_EVENTS = 300
STORM_EVENT_GRID_S = 0.02   # event times are multiples of this
STORM_HORIZON_S = 20.0
STORM_STEP_S = 0.01

WORKLOADS = ("paper_scenarios", "design_sweep", "event_storm")
_WORKLOAD_KEY = {name: k for k, name in enumerate(WORKLOADS)}


def _num(x):
    return "%.9g" % x


def mesh_edges(rng, n):
    """Connected mesh on n buses: a near-square grid lattice plus n // 10 chords."""
    cols = int(np.ceil(np.sqrt(n)))
    edges = set()
    for v in range(n):
        if v % cols + 1 < cols and v + 1 < n:
            edges.add((v, v + 1))
        if v + cols < n:
            edges.add((v, v + cols))
    target = len(edges) + n // 10
    while len(edges) < target:
        i, j = sorted(int(k) for k in rng.integers(0, n, 2))
        if i != j:
            edges.add((i, j))
    return sorted(edges)


def write_mesh(path, rng, n):
    """Write a connected n-bus mesh network file."""
    edges = mesh_edges(rng, n)
    inertia = INERTIA * rng.uniform(0.8, 1.2, n)
    damping = DAMPING * rng.uniform(0.8, 1.2, n)
    load_kw = rng.uniform(0.0, 100.0, n)
    v2 = (1.0e3 * VOLTAGE_KV) ** 2
    lines = ["schema = 1", "", "[network]", "frequency_hz = 50.0", "",
             "[defaults]", f"voltage_kv = {_num(VOLTAGE_KV)}", "", "[buses]"]
    for k in range(n):
        lines.append(f"{k + 1} inertia={_num(inertia[k])} damping={_num(damping[k])} "
                     f"load_kw={_num(load_kw[k])}")
    lines += ["", "[lines]"]
    for i, j in edges:
        b = LINE_COUPLING * rng.uniform(0.5, 1.5) / v2
        lines.append(f"{i + 1} {j + 1} {_num(b)}")
    _write(path, lines)


def _gain_list(values):
    return ", ".join(_num(v) for v in values)


def controller_gains(rng, n):
    """Per-bus (kp, ki) for a generated network."""
    return KP * rng.uniform(0.9, 1.1, n), KI * rng.uniform(0.9, 1.1, n)


def write_scenario(path, network_file, kind, kp, ki, events, horizon, step,
                   output_every):
    """Write a dist_pi or p scenario; events are (time_s, bus_id, delta_kw)."""
    lines = ["schema = 1", "", "[scenario]", f"network = {network_file}",
             f"horizon_s = {_num(horizon)}", f"step_s = {_num(step)}",
             "settle_tol_hz = 1.0e-3", f"output_every_s = {_num(output_every)}",
             "", "[controller]", f"kind = {kind}", f"kp = {_gain_list(kp)}"]
    if kind == "dist_pi":
        lines += [f"ki = {_gain_list(ki)}", "gamma = auto", "comm_topology = same-as-grid"]
    lines += ["", "[disturbances]"]
    lines += [f"{_num(t)} {bus} {_num(kw)}" for t, bus, kw in events]
    _write(path, lines)


def _write(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def storm_events(rng, n):
    """STORM_EVENTS load steps at distinct grid times in the first half of the horizon."""
    slots = int(round(0.5 * STORM_HORIZON_S / STORM_EVENT_GRID_S))
    picks = np.sort(rng.choice(np.arange(1, slots), size=STORM_EVENTS, replace=False))
    buses = rng.integers(1, n + 1, STORM_EVENTS)
    kw = rng.uniform(-50.0, 50.0, STORM_EVENTS)
    return [(p * STORM_EVENT_GRID_S, int(b), float(d)) for p, b, d in zip(picks, buses, kw)]


def generate(workload, seed, out_dir):
    """Write the generated inputs of one workload into out_dir.

    Returns a dict name -> metadata, where metadata holds the file paths
    and the per-bus gains the CLI ops need.  paper_scenarios uses only the
    bundled files and generates nothing.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([int(seed), _WORKLOAD_KEY[workload]])
    os.makedirs(out_dir, exist_ok=True)
    made = {}
    if workload == "design_sweep":
        for n in DESIGN_BUSES:
            grid = f"mesh{n}.grid"
            write_mesh(os.path.join(out_dir, grid), rng, n)
            kp, ki = controller_gains(rng, n)
            events = [(1.0, int(b), 200.0) for b in sorted(rng.choice(n, 3, replace=False) + 1)]
            scn = os.path.join(out_dir, f"mesh{n}_dist.scn")
            write_scenario(scn, grid, "dist_pi", kp, ki, events, 200.0, 0.005, 0.1)
            made[f"mesh{n}"] = {"grid": os.path.join(out_dir, grid), "scn": scn,
                                "kp": kp, "ki": ki, "n": n}
    elif workload == "event_storm":
        n = STORM_BUSES
        grid = f"storm{n}.grid"
        write_mesh(os.path.join(out_dir, grid), rng, n)
        kp, ki = controller_gains(rng, n)
        events = storm_events(rng, n)
        for kind in ("dist_pi", "p"):
            scn = os.path.join(out_dir, f"storm{n}_{kind}.scn")
            write_scenario(scn, grid, kind, kp, ki, events, STORM_HORIZON_S,
                           STORM_STEP_S, STORM_STEP_S)
            made[f"storm_{kind}"] = {"grid": os.path.join(out_dir, grid), "scn": scn,
                                     "kp": kp, "ki": ki, "n": n}
    return made


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--out", default=None, help="output directory (default: a new temp dir)")
    args = parser.parse_args(argv)
    out = args.out or tempfile.mkdtemp(prefix="gridpi-bench-")
    made = generate(args.workload, args.seed, out)
    print(out)
    for name, meta in made.items():
        print(f"{name}: {meta['grid']} {meta['scn']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
