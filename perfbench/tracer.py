"""Traced `gridpi` CLI process: spans around every public layer function.

    python3 -X importtime perfbench/tracer.py SPANS.json -- <gridpi CLI arguments>

Imports gridpi.cli, replaces each public function of the layer modules by
a wrapper at its module attribute (inside this process only; no source is
changed), runs the CLI's main() and writes the spans to SPANS.json.  The
modules call each other through module attributes, so the wrappers see
every call between layers.  Exit status and stdout are the CLI's own.

Each span is [name, start_s, end_s, parent_index]; counts taken from
arguments and results sit beside them.  Only the standard library is
imported before gridpi.cli, so -X importtime attributes numpy and scipy
to the gridpi modules that pull them in.
"""

import functools
import inspect
import json
import sys
import time

LAYERS = ("scenario", "analysis", "sysmodel", "numerics", "graph", "control")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {"rk4_steps": 0, "trace_bytes": 0, "integrated_rows": 0,
                       "stages": 0, "csv_files": []}

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self.stack.pop()
            self.count(name, args, result)
            return result
        return traced

    def count(self, name, args, result):
        c = self.counts
        if name == "numerics.integrate_rk4":
            c["rk4_steps"] += result.states.shape[0] - 1
            c["trace_bytes"] += result.states.nbytes
        elif name == "sysmodel.simulate_schedule":
            c["stages"] += len(args[0])
        elif name == "scenario.write_trace_csv":
            # Rows and bytes are counted from the file after the process ends,
            # so that reading it back costs no time inside the spans.
            c["integrated_rows"] += args[3].times.shape[0]
            c["csv_files"].append(result)


def install(tracer, package):
    for layer in LAYERS:
        module = getattr(package, layer)
        for attr, fn in inspect.getmembers(module, inspect.isfunction):
            if not attr.startswith("_") and fn.__module__ == module.__name__:
                setattr(module, attr, tracer.wrap(f"{layer}.{attr}", fn))


def main():
    out_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <gridpi arguments>")
    import gridpi.cli

    tracer = Tracer()
    install(tracer, gridpi)
    start = time.perf_counter()
    try:
        code = gridpi.cli.main(cli_args)
    finally:
        main_s = time.perf_counter() - start
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"main_s": main_s, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
