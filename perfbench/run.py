"""dynheat benchmark: run one workload, check every result, print metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload mass --seed 1 --seconds 8 --trace 0

With ``--trace 0`` the workload runs untraced, in passes, until
``--seconds`` have elapsed (at least one pass; a pass longer than that
runs whole), and the end-to-end metrics are printed.  With ``--trace 1``
the run makes one untraced pass and then one pass under the span tracer
(``tracer.py``) and prints the per-layer metrics, including the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when an op raised or
missed its tolerance, 2 when dynheat cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 6      # extra set-ups in fresh child processes; setup_s is the median
TRACE_DIR = os.path.join(ROOT, ".perfbench")


def set_up(workload, seed):
    """Import dynheat from this checkout and build the workload's ops.

    Returns (ops, seconds).  Raises ImportError when ``src/dynheat`` is
    missing, including when some other dynheat would be imported instead.
    """
    t0 = time.perf_counter()
    import dynheat
    if os.path.dirname(os.path.dirname(os.path.abspath(dynheat.__file__))) != SRC:
        raise ImportError(f"dynheat imported from {dynheat.__file__}, not from {SRC}")
    import workloads
    ops = workloads.build(workload, seed)
    return ops, time.perf_counter() - t0


class Tally:
    """Op latencies and failure accounting, pooled over passes."""

    def __init__(self):
        self.latencies = []
        self.pass_s = []
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.failures = []

    def run_pass(self, ops):
        state = {}
        t_pass = time.perf_counter()
        for op in ops:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                res = op.call(state)
            except Exception as exc:  # an op that raises is a failed, incorrect op
                self.latencies.append(time.perf_counter() - t0)
                self._fail(op, False, f"raised {type(exc).__name__}: {exc}")
                continue
            self.latencies.append(time.perf_counter() - t0)
            within, converged = op.check(res, state)
            if not (within and converged):
                self._fail(op, within, f"within_tolerance={within} converged={converged}")
        self.pass_s.append(time.perf_counter() - t_pass)

    def _fail(self, op, within, why):
        self.failed += 1
        self.incorrect += not within
        if len(self.failures) < 20:
            self.failures.append(f"{op.label}: {why}")


def tail(latencies, q=0.99):
    """(q-quantile by nearest rank, samples beyond it)."""
    xs = sorted(latencies)
    k = max(1, math.ceil(q * len(xs)))
    return xs[k - 1], len(xs) - k


def setup_probe_times(workload, seed):
    """Set-up time measured in fresh child processes."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def end_to_end(tally, setups):
    p50 = statistics.median(tally.latencies) * 1e3
    p99, beyond = tail(tally.latencies)
    n = len(tally.latencies)
    return [
        ("wall_s", statistics.median(tally.pass_s), "s",
         f"median of {len(tally.pass_s)} pass(es)"),
        ("op_p50_ms", p50, "ms", f"{n} pooled op samples"),
        ("op_p99_ms", p99 * 1e3 if beyond >= 10 else None, "ms",
         f"{beyond} samples beyond it" + ("" if beyond >= 10 else
                                         "; not reported, needs at least 10")),
        ("fail_frac", tally.failed / tally.attempted, "1",
         f"{tally.failed} failed of {tally.attempted} attempted"),
        ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
         "peak resident set of this process"),
    ]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    sys.path[:0] = [SRC, HERE]
    try:
        ops, setup_s = set_up(args.workload, args.seed)
    except ImportError as exc:
        print(f"perfbench: cannot import dynheat from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    if args.trace:
        return traced_run(args, ops, spec)

    tally = Tally()
    t0 = time.perf_counter()
    while not tally.pass_s or time.perf_counter() - t0 < args.seconds:
        tally.run_pass(ops)
    setups = [setup_s] + setup_probe_times(args.workload, args.seed)
    rows = end_to_end(tally, setups)
    print(f"workload {args.workload} seed {args.seed}: {len(tally.pass_s)} pass(es) "
          f"of {len(ops)} ops, untraced")
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<12} {shown:>12} {unit:<3} ({note})")
    for line in tally.failures:
        print(f"  failed op: {line}")
    declared = [m["name"] for m in spec["end_to_end"]]
    values = {name: (value, unit) for name, value, unit, _ in rows}
    metrics = {name: {"value": values[name][0], "unit": values[name][1]} for name in declared}
    return finish(tally, metrics)


def traced_run(args, ops, spec):
    untraced = Tally()
    untraced.run_pass(ops)
    import tracer

    tr = tracer.Tracer()
    tr.install()
    traced = Tally()
    try:
        traced.run_pass(ops)
    finally:
        tr.uninstall()
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace_{args.workload}.npz")
    tr.save(path)
    m = tr.metrics()
    m["trace.wall_s"] = (traced.pass_s[0], "s")
    m["trace.untraced_wall_s"] = (untraced.pass_s[0], "s")
    m["trace.overhead_s"] = (traced.pass_s[0] - untraced.pass_s[0], "s")
    if tr.count["quadrature.panel_mismatches"]:
        traced.incorrect += 1
        traced.failures.append(f"tracer: {tr.count['quadrature.panel_mismatches']} _adaptive "
                               "calls whose panels != segments + 2 * subdivisions")
    print(f"workload {args.workload} seed {args.seed}: traced pass of {len(ops)} ops, "
          f"{len(tr.span_start)} spans written to {os.path.relpath(path, ROOT)}")
    for name in sorted(m):
        value, unit = m[name]
        print(f"  {name:<44} {value:>16.6g} {unit}")
    for line in traced.failures:
        print(f"  failed op: {line}")
    metrics = {d["name"]: {"value": m[d["name"]][0], "unit": m[d["name"]][1]}
               for d in spec["per_layer"]}
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    traced.incorrect += untraced.incorrect
    return finish(traced, metrics)


def finish(tally, metrics):
    correct = tally.incorrect == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
