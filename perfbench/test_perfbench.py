"""Self-checks of the benchmark and its tracer.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import itertools
import json
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import dynheat as dh  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNTS = ("calls", "panels", "component_evals", "bisections", "nonconverged",
          "components", "probes", "steps", "lu_nnz", "spans")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def traced_pass(ops):
    tr = tracer.Tracer()
    tr.install()
    try:
        state = {}
        for op in ops:
            op.check(op.call(state), state)
    finally:
        tr.uninstall()
    return tr


@pytest.fixture(scope="module")
def rates_traces():
    ops = workloads.build("rates", 3)
    return traced_pass(ops), traced_pass(ops)


def test_metric_names_are_well_formed():
    spec = load_spec()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_tracer_produces_every_declared_per_layer_metric(rates_traces):
    produced = set(rates_traces[0].metrics()) | {"trace.wall_s", "trace.untraced_wall_s",
                                                 "trace.overhead_s"}
    for name in produced:
        assert NAME.fullmatch(name), name
    declared = {m["name"] for m in load_spec()["per_layer"]}
    assert declared <= produced, declared - produced


def test_pinned_inputs_match_repository_configs():
    def config(name):
        with open(os.path.join(ROOT, "configs", name)) as fh:
            return json.load(fh)

    mass = config("mass_check.json")
    for axis, values in workloads.MASS_AXES.items():
        assert tuple(mass[axis]) == values
    assert mass["tol"] == workloads.MASS_TOL
    oracle = config("oracle_compare.json")
    assert oracle["grid"] == workloads.ORACLE["grid"]
    assert tuple(oracle["times"]) == workloads.ORACLE["times"]
    assert oracle["tol"] == workloads.ORACLE["tol"]
    assert (oracle["window"]["x"], oracle["window"]["z"]) == workloads.ORACLE["window"]
    assert oracle["data"]["boundary"]["a"] == workloads.ORACLE["boundary_a"]
    bounds = config("bounds_check.json")
    assert bounds["samples_per_region"] == workloads.SANDWICH["per_region"]
    assert tuple(dh.EXPERIMENTS) == workloads.RATE_EXPERIMENTS


def test_pinned_inputs_match_the_acceptance_suite(monkeypatch):
    """The criterion-1 and criterion-3 checks call the library on the same inputs."""
    calls = {}

    def recorder(name):
        def record(*args):
            calls.setdefault(name, []).append(args)
            return SimpleNamespace(value=1.0)
        return record

    for name in ("total_mass", "total_mass_radial", "heat_neumann_kernel",
                 "laplace_dynamic_kernel", "dirichlet_layer_kernel"):
        monkeypatch.setattr(dh.verification, name, recorder(name))
    spec, seed = dh.QuadSpec(), 11
    dh.verification._check_mass(spec, seed)
    dh.verification._check_positivity(spec, seed)

    def params(p):
        return (p.epsilon, p.delta, p.kappa, p.dim)

    grid = [(e, d, k, n, xn, t) for e, d, k, n, xn, t in itertools.product(
        *workloads.MASS_AXES.values())]
    assert sorted(params(p) + (xn, t) for p, xn, t, _ in calls["total_mass"]) == sorted(grid)
    assert tuple(params(p) + (xn, t) for p, xn, t, _ in calls["total_mass_radial"]) \
        == workloads.RADIAL_SPOTS

    draw = workloads.positivity_samples(np.random.default_rng(seed + 1))
    assert [(x.tangential, x.normal, y.normal, t, e, k)
            for e, k, x, y, t, _n, _s in calls["heat_neumann_kernel"]] \
        == [(r, xn, yn, t, e, k) for r, xn, yn, t, e, _d, k in draw]
    assert [(d, k) for d, k, *_ in calls["laplace_dynamic_kernel"]] \
        == [(d, k) for *_, d, k in draw]
    assert len(calls["dirichlet_layer_kernel"]) == sum(xn > 0 for _, xn, *_ in draw)


def test_same_seed_same_inputs():
    for w in workloads.WORKLOADS:
        a = [op.label for op in workloads.build(w, 5)]
        b = [op.label for op in workloads.build(w, 5)]
        assert a == b
    assert len(workloads.build("mass", 1)) == 490
    assert len(workloads.build("rates", 1)) == 19
    assert [op.label for op in workloads.build("pointwise", 1)] \
        != [op.label for op in workloads.build("pointwise", 2)]


def test_panels_equal_segments_plus_two_per_subdivision(rates_traces):
    tr = rates_traces[0]
    assert tr.count["quadrature.calls"] > 0
    assert tr.count["quadrature.panel_mismatches"] == 0


def test_panel_identity_on_nested_mass_and_pointwise_ops():
    ops = [op for op in workloads.build("mass", 1)
           if "radial" not in op.label][:20] + workloads.build("pointwise", 1)[::200]
    tr = traced_pass(ops)
    assert tr.count["quadrature.calls"] > len(ops)
    assert tr.count["quadrature.panel_mismatches"] == 0


def test_two_traced_runs_give_identical_counts(rates_traces):
    a, b = (dict(tr.metrics()) for tr in rates_traces)
    counts = [name for name in a if name.rpartition(".")[2] in COUNTS]
    assert len(counts) >= 10
    for name in counts:
        assert a[name] == b[name], name


def test_self_times_partition_the_root_spans(rates_traces):
    tr = rates_traces[0]
    start = np.frombuffer(tr.span_start, dtype=np.int64)
    end = np.frombuffer(tr.span_end, dtype=np.int64)
    roots = np.frombuffer(tr.span_parent, dtype=np.int64) == -1
    assert sum(tr.self_ns.values()) == int(np.sum(end[roots] - start[roots]))


def test_uninstall_restores_every_binding():
    before = (dh.dynamic._adaptive, dh.solutions.tan_conv, dh.verification.solve_grid,
              dh.fdsolver.spla, dh.quadrature._eval_panel)
    tr = tracer.Tracer()
    tr.install()
    assert dh.dynamic._adaptive is not before[0]
    assert dh.solutions.tan_conv is not before[1]
    tr.uninstall()
    after = (dh.dynamic._adaptive, dh.solutions.tan_conv, dh.verification.solve_grid,
             dh.fdsolver.spla, dh.quadrature._eval_panel)
    assert all(x is y for x, y in zip(before, after))


def test_fdsolver_counts_on_a_small_grid():
    grid = dh.FdGrid(Lx=4.0, Lz=4.0, nx=16, nz=16, dt=0.01)
    data = dh.InitialData(boundary=dh.Boundary("heat_gaussian", a=0.5))
    tr = tracer.Tracer()
    tr.install()
    try:
        dh.fd_solve(dh.Params(1.0, 1.0, 1.0, 2), data, grid, 0.5)
    finally:
        tr.uninstall()
    m = tr.metrics()
    assert m["fdsolver.steps"][0] == 50
    assert m["fdsolver.lu_nnz"][0] > 0
    assert m["fdsolver.assemble_s"][0] > 0 and m["fdsolver.factor_s"][0] > 0
    assert m["fdsolver.bytes_per_step_computed"][0] > 12 * m["fdsolver.lu_nnz"][0]


def test_untraced_run_does_not_load_the_tracer():
    code = ("import sys, contextlib, io; sys.path.insert(0, sys.argv[1]); import run; "
            "out = io.StringIO(); "
            "ctx = contextlib.redirect_stdout(out); ctx.__enter__(); "
            "rc = run.main(['--workload', 'rates', '--seed', '1', '--seconds', '0', "
            "'--trace', '0']); ctx.__exit__(None, None, None); "
            "print(rc, 'tracer' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, HERE], capture_output=True,
                          text=True, timeout=170, cwd=ROOT, check=True)
    assert proc.stdout.split() == ["0", "False"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rates",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
