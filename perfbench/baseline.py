"""Repeat benchmark runs over seeds and record medians, quartiles and spreads.

Usage (from the repository root):

    python3 perfbench/baseline.py --seeds 1-10

For every workload of ``BENCHMARK.json`` it runs ``perfbench/run.py`` once
per seed, one run at a time, and reports for each end-to-end metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median.  It
then makes one traced run per workload (first seed) for the per-layer
baseline, records the environment (CPU, core count, Python, numpy, scipy,
OpenBLAS and its thread count) and writes the record to
``perfbench/results/baseline.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900, cwd=ROOT)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1]), elapsed


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def openblas():
    """(library, config string, thread count) of each bundled OpenBLAS."""
    import numpy
    import scipy

    out = []
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            info = {"package": pkg.__name__, "library": os.path.basename(path)}
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    info["config"] = get_config().decode()
                    info["threads"] = get_threads()
                    break
            out.append(info)
    return out


def environment():
    import numpy
    import scipy

    cpu = {}
    for line in subprocess.run(["lscpu"], capture_output=True, text=True).stdout.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            cpu[key.strip()] = value.strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": openblas()}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    record = {"environment": environment(), "run_seconds": seconds,
              "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results, elapsed = [], []
        for seed in args.seeds:
            res, dt = run(workload, seed, seconds, 0)
            results.append(res)
            elapsed.append(dt)
            print(f"{workload} seed {seed}: {dt:.1f}s correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
        entry = {"run_elapsed_s": summarize(elapsed),
                 "correct": all(r["correct"] for r in results),
                 "failed": [r["failed"] for r in results],
                 "attempted": [r["attempted"] for r in results],
                 "end_to_end": {}}
        for name in bounds:
            s = summarize([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            s["bound"] = bounds[name]
            entry["end_to_end"][name] = s
            print(f"  {workload} {name}: median {s['median']:.5g} spread {s['spread']:.3f} "
                  f"(bound {bounds[name]})", flush=True)
        res, dt = run(workload, args.seeds[0], seconds, 1)
        entry["per_layer"] = {"seed": args.seeds[0], "elapsed_s": dt,
                              "correct": res["correct"],
                              "metrics": {k: v["value"] for k, v in res["metrics"].items()}}
        print(f"  {workload} traced: {dt:.1f}s overhead "
              f"{res['metrics']['trace.overhead_s']['value']:.3f}s", flush=True)
        record["workloads"][workload] = entry
    with open(os.path.join(HERE, "results", "baseline.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
