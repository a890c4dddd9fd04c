"""Batch front end: run identity suites, kernel evaluations, solution
sweeps, limit experiments and oracle comparisons from a JSON config.

Subcommands: eval-kernel, mass-check, identity-suite, solve, bounds-check,
limit-rate, opnorm, oracle-compare, report.  Results are written as CSV
tables (RFC-4180 quoting) and JSON summaries, named after the config file
up to its first dot; identical configs produce byte-identical outputs.
Exit codes: 0 every check passed and every quadrature converged, 1 a
check failed or a quadrature did not converge (reports are still
written; for report, also when it found no summary), 2 configuration or
I/O error, or a value the library rejects.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from .data import Boundary, InitialData, Interior, NormalProfile
from .dynamic import (
    dirichlet_layer_kernel,
    exchange_kernel,
    fundamental_kernel,
    heat_neumann_kernel,
    laplace_dynamic_kernel,
)
from .fdsolver import FdGrid, SchemeError
from .kernels import (
    HalfSpacePoint,
    Params,
    dirichlet_kernel,
    free_heat_radial,
    neumann_kernel,
    poisson_kernel,
    tangential_offset,
)
from .quadrature import EvaluationError, QuadResult, QuadSpec, _positive
from .solutions import PROBLEM_TAGS, first_axis, solve_grid
from .verification import _DIM_AXIS, _PARAM_AXIS, _T_AXIS, _XN_AXIS, _mass_grid, _worst
from .verification import (
    _REFERENCE,
    EXPERIMENTS,
    IDENTITIES,
    check_identity,
    default_experiment,
    opnorm_decay,
    oracle_compare,
    run_limit,
    sandwich_check,
)

__all__ = ["main", "entry", "validate"]


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config validation: one table, one function
# ---------------------------------------------------------------------------
#
# A kind is a function (value, where) -> typed value that raises ConfigError.
# Value ranges are left to the library constructors, validators and time
# rule (a ValueError); the CLI has no sign rule of its own.

def _finite(v, where):
    """A finite JSON number, returned as written (theta and the opnorm
    exponents are echoed into the outputs unchanged)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where} must be a number")
    if not abs(v) <= sys.float_info.max:  # NaN, +-inf, ints beyond float range
        raise ConfigError(f"{where} must be finite")
    return v


def _num(v, where):
    return float(_finite(v, where))


def _measured(v, where):
    """A number a run measured: NaN and infinities pass, since a failed
    check may report them."""
    return v if isinstance(v, float) else _num(v, where)


def _int(v, where):
    if not _num(v, where).is_integer():
        raise ConfigError(f"{where} must be an integer")
    return int(v)


def _str(v, where):
    if not isinstance(v, str):
        raise ConfigError(f"{where} must be a string")
    return v


def _bool(v, where):
    if not isinstance(v, bool):
        raise ConfigError(f"{where} must be true or false")
    return v


def _kernel_time(v, where):
    """eval-kernel's t under the time rule, 0 admitted (the Poisson kernel does not read it)."""
    return float(_positive(_num(v, where), where, zero=True))


def _exponent(v, where):
    return v if v == "inf" else _finite(v, where)


def _tangential(v, where):
    return tuple(_list(_num)(v, where)) if isinstance(v, list) else _num(v, where)


def _choice(names):
    def check(v, where):
        if _str(v, where) not in names:
            raise ConfigError(f"{where} must be one of: {', '.join(sorted(names))}")
        return v
    return check


def _list(kind):
    def check(v, where):
        if not isinstance(v, list) or not v:
            raise ConfigError(f"{where} must be a non-empty list")
        return [kind(x, f"{where}[{i}]") for i, x in enumerate(v)]
    return check


def _mapping(kind):
    def check(v, where):
        if not isinstance(v, dict) or not v:
            raise ConfigError(f"{where} must be a non-empty object")
        return {k: kind(x, f"{where}.{k}") for k, x in v.items()}
    return check


def _block(name):
    return lambda v, where: validate(v, name, where)


_REQUIRED = object()


def _owned(owner, **kinds):
    """Keys that default to ``owner``'s attribute of their name, required where it has none."""
    return {key: (kind, getattr(owner, key, _REQUIRED)) for key, kind in kinds.items()}


def _theta(c):
    """eval-kernel's theta, which h_tilde requires: the library states no default."""
    if c.theta is None:
        raise ConfigError(f"{c.kernel} requires theta")
    return c.theta


# eval-kernel's kernels: name -> function of the validated config, returning
# a float (the closed forms) or a QuadResult
_KERNELS = {
    # x' is the point of R^d
    "gamma": lambda c: free_heat_radial(c.d, np.linalg.norm(c.x.tangential_vector(c.d + 1)),
                                        c.t),
    "g0": lambda c: dirichlet_kernel(c.x, c.y, c.t, c.params.dim),
    "gn": lambda c: neumann_kernel(c.x, c.y, c.t, c.params.dim),
    "poisson": lambda c: poisson_kernel(tangential_offset(c.x, c.y, c.params.dim),
                                        c.x.normal, c.params.dim),
    "h": lambda c: exchange_kernel(c.params, c.x, c.y, c.t, c.quad),
    "g": lambda c: fundamental_kernel(c.params, c.x, c.y, c.t, c.quad),
    "h_tilde": lambda c: dirichlet_layer_kernel(c.params, _theta(c), c.x, c.y, c.t, c.quad),
    "g_ldd": lambda c: laplace_dynamic_kernel(c.params.delta, c.params.kappa, c.x, c.y, c.t,
                                              c.params.dim, c.quad),
    "g_hdn": lambda c: heat_neumann_kernel(c.params.epsilon, c.params.kappa, c.x, c.y, c.t,
                                           c.params.dim, c.quad),
}

# block name -> (constructor, {key: (kind, default)}).  A missing key takes its
# default, which is checked like a given value; a default of None also
# admits null and stands for "not given".  A library block's defaults are its
# class's (``params``: the reference point); the CLI states only its own.
_TABLE = {
    "params": (Params, _owned(_REFERENCE, epsilon=_num, delta=_num, kappa=_num, dim=_int)),
    "quad": (QuadSpec, _owned(QuadSpec, rel_tol=_num, abs_tol=_num, max_subdivisions=_int)),
    "point": (HalfSpacePoint, {
        "tangential": (_tangential, 0.0), "normal": (_num, _REQUIRED)}),
    "data": (InitialData, {"interior": (_block("interior"), {"kind": "zero"}),
                           "boundary": (_block("boundary"), {"kind": "zero"})}),
    "interior": (Interior, _owned(Interior, kind=_str, c=_num, center=_num, a=_num,
                                  normal=_block("normal"))),
    "normal": (NormalProfile, _owned(NormalProfile, kind=_str, m=_num, b=_num, lo=_num,
                                     hi=_num, alpha=_num)),
    "boundary": (Boundary, _owned(Boundary, kind=_str, c=_num, center=_num, a=_num, rho=_num)),
    "grid": (FdGrid, _owned(FdGrid, Lx=_num, Lz=_num, nx=_int, nz=_int, dt=_num,
                            scheme=_str, flux=_str)),
    "window": (SimpleNamespace, {"x": (_num, 2.0), "z": (_num, 2.0)}),
    # the *.summary.json files that report reads
    "summary": (dict, {
        "experiment": (_str, None), "theorem": (_str, ""), "detail": (_str, ""),
        "slope": (_measured, None), "max_deviation": (_measured, None),
        "sup_rel": (_measured, None), "pass": (_bool, _REQUIRED),
        "results": (_mapping(_block("identity result")), None),
        "tolerance": (_num, None), "r2": (_measured, None),
        "expected_slope": (_num, None), "mode": (_str, None),
        "p": (_exponent, None), "q": (_exponent, None),
        "upper_constant": (_measured, None), "lower_constant": (_measured, None),
        "stability": (_measured, None)}),
    "identity result": (dict, {
        "statement": (_str, ""), "tolerance": (_num, _REQUIRED),
        "max_deviation": (_measured, _REQUIRED), "pass": (_bool, _REQUIRED)}),
}

_COMMAND_KEYS = {
    "eval-kernel": {
        "kernel": (_choice(_KERNELS), _REQUIRED), "params": (_block("params"), {}),
        "theta": (_finite, None), "t": (_kernel_time, _REQUIRED),
        "x": (_block("point"), _REQUIRED), "y": (_block("point"), {"normal": 0.0}),
        "quad": (_block("quad"), {}), "d": (_int, 1)},
    # criterion 1: the mass identity's axes and tolerance
    "mass-check": {
        "epsilon": (_list(_num), list(_PARAM_AXIS)), "delta": (_list(_num), list(_PARAM_AXIS)),
        "kappa": (_list(_num), list(_PARAM_AXIS)), "dim": (_list(_int), list(_DIM_AXIS)),
        "x_n": (_list(_num), list(_XN_AXIS)), "t": (_list(_num), list(_T_AXIS)),
        "tol": (_num, IDENTITIES["mass"][1]), "quad": (_block("quad"), {})},
    "identity-suite": {
        "identities": (_list(_choice(IDENTITIES)), sorted(IDENTITIES)),
        "seed": (_int, 2024), "quad": (_block("quad"), {})},
    "solve": {
        "tag": (_choice(PROBLEM_TAGS), _REQUIRED), "params": (_block("params"), {}),
        "theta": (_finite, None), "data": (_block("data"), {}),
        "points": (_list(_block("point")), _REQUIRED),
        "times": (_list(_num), _REQUIRED), "quad": (_block("quad"), {})},
    "bounds-check": {
        "params": (_block("params"), {}), "samples_per_region": (_int, 500),
        "seed": (_int, 7)},
    "limit-rate": {
        "which": (_choice(EXPERIMENTS), _REQUIRED), "ladder": (_list(_num), None),
        "quad": (_block("quad"), {})},
    "opnorm": {
        "p": (_exponent, _REQUIRED), "q": (_exponent, _REQUIRED),
        "params": (_block("params"), {}),
        "t_ladder": (_list(_num), [1.0, 2.0, 4.0, 8.0]), "quad": (_block("quad"), {})},
    "oracle-compare": {
        "params": (_block("params"), {}),
        "data": (_block("data"), {"boundary": {"kind": "heat_gaussian", "a": 0.5}}),
        "grid": (_block("grid"), {}), "times": (_list(_num), [0.25, 0.5, 1.0]),
        "window": (_block("window"), {}), "tol": (_num, 2e-2),
        "quad": (_block("quad"), {})},
    "report": {},
}
# "command" may repeat the subcommand's own name and nothing else
_TABLE.update({name: (SimpleNamespace, {"command": (_choice((name,)), name), **keys})
               for name, keys in _COMMAND_KEYS.items()})


def validate(block, name, where="config"):
    """Check ``block`` against ``_TABLE[name]`` and return its typed value.

    Unknown and missing keys, wrong types, non-finite numbers, non-integral
    integers and empty lists raise ConfigError, as do the ValueErrors of the
    library constructor that builds the value.
    """
    build, keys = _TABLE[name]
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")
    missing = [k for k, (_, default) in keys.items()
               if default is _REQUIRED and k not in block]
    if missing:
        raise ConfigError(f"missing keys in {where}: {', '.join(missing)}")
    values = {}
    for key, (kind, default) in keys.items():
        v = block.get(key, default)
        values[key] = None if v is None and default is None else kind(v, f"{where}.{key}")
    try:
        return build(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


# ---------------------------------------------------------------------------
# output helpers (atomic, deterministic bytes)
# ---------------------------------------------------------------------------

def _atomic_write(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_csv(path, header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    _atomic_write(path, buf.getvalue())


def write_summary(path, obj):
    _atomic_write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _param_cols(p: Params, theta=None):
    return [repr(p.epsilon), repr(p.delta), repr(p.kappa),
            "" if theta is None else repr(theta), p.dim]


_PARAM_HEADER = ["epsilon", "delta", "kappa", "theta", "dim"]


def _stem(args):
    """The name of every output of a run: its config file's name up to the
    first dot, so that several configs of one subcommand run into one
    output directory each keep their outputs; without one, the
    subcommand's name with underscores."""
    stem = "" if args.config is None else os.path.basename(args.config).split(".")[0]
    return stem or args.command.replace("-", "_")


def _finish(out, stem, summary, line, passed, converged):
    """The one exit rule: a run passes when its check passed and every
    quadrature converged.  Write ``<stem>.summary.json`` with that verdict
    as ``pass``, print ``<line> -> PASS|FAIL`` and return the exit code."""
    passed = bool(passed) and bool(converged)
    write_summary(os.path.join(out, f"{stem}.summary.json"), {**summary, "pass": passed})
    print(f"{line} -> {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# subcommands: each takes the validated config, the output directory and
# the stem that names its outputs
# ---------------------------------------------------------------------------

def cmd_eval_kernel(c, out, stem):
    res = _KERNELS[c.kernel](c)
    value, converged = ((res.value, res.converged) if isinstance(res, QuadResult)
                        else (float(res), True))
    print(f"{c.kernel} = {value!r}")
    write_csv(os.path.join(out, f"{stem}.csv"),
              _PARAM_HEADER + ["kernel", "t", "value", "converged"],
              [_param_cols(c.params, c.theta) + [c.kernel, repr(c.t), repr(value),
                                                 bool(converged)]])
    return 0 if converged else 1


def cmd_mass_check(c, out, stem):
    grid = _mass_grid(c.quad, c.epsilon, c.delta, c.kappa, c.dim, c.x_n, c.t)
    devs = [abs(res.value - 1.0) for *_, res in grid]
    write_csv(os.path.join(out, f"{stem}.csv"),
              _PARAM_HEADER + ["theorem", "x_n", "t", "mass", "deviation"],
              [_param_cols(p) + ["total-mass identity", repr(xn), repr(t),
                                 repr(res.value), repr(dev)]
               for (p, xn, t, res), dev in zip(grid, devs)])
    max_dev = _worst(devs)
    return _finish(out, stem,
                   {"experiment": "mass-check", "theorem": "total-mass identity",
                    "max_deviation": max_dev, "tolerance": c.tol},
                   f"mass-check: max deviation {max_dev:.3e} (tol {c.tol:g})",
                   max_dev <= c.tol, all(res.converged for *_, res in grid))


def cmd_identity_suite(c, out, stem):
    reps = []
    for name in c.identities:
        reps.append(rep := check_identity(name, c.quad, c.seed))
        print(f"identity {name}: max dev {rep.max_dev:.3e} (tol {rep.tol:g}) "
              f"-> {'PASS' if rep.passed else 'FAIL'}")
    write_csv(os.path.join(out, f"{stem}.csv"),
              ["identity", "statement", "tolerance", "max_deviation", "pass"],
              [[r.name, r.statement, repr(r.tol), repr(r.max_dev), r.passed] for r in reps])
    # identity rows carry no converged flag yet (ROADMAP item 5)
    return _finish(out, stem,
                   {"experiment": "identity-suite",
                    "results": {r.name: {"statement": r.statement, "tolerance": r.tol,
                                         "max_deviation": r.max_dev, "pass": r.passed}
                                for r in reps}},
                   f"identity-suite: {len(reps)} identities",
                   all(r.passed for r in reps), True)


def cmd_solve(c, out, stem):
    p = c.params
    xp = np.array([first_axis(q, p.dim) for q in c.points])
    xn = np.array([q.normal for q in c.points])
    rows = []
    converged = True
    for t in c.times:
        # err bounds the quadrature error at every probe of this time
        u, err, conv = solve_grid(c.tag, p, c.data, xp, xn, t, c.quad, theta=c.theta)
        converged = converged and conv
        for xpi, xni, val in zip(xp, xn, u):
            rows.append(_param_cols(p, c.theta) +
                        [c.tag, repr(t), repr(float(xpi)), repr(float(xni)),
                         repr(float(val)), repr(err), bool(conv)])
    write_csv(os.path.join(out, f"{stem}.csv"),
              _PARAM_HEADER + ["tag", "t", "x_tangential", "x_normal", "value",
                               "error", "converged"],
              rows)
    print(f"solve: wrote {len(rows)} values to {stem}.csv")
    return 0 if converged else 1


def cmd_bounds_check(c, out, stem):
    p = c.params
    res = sandwich_check(p, n_per_region=c.samples_per_region, seed=c.seed)
    rows = [_param_cols(p) + ["two-sided envelopes", tag,
                                 repr(v["upper_max"]), repr(v["lower_max"])]
            for tag, v in sorted(res.per_region.items())]
    write_csv(os.path.join(out, f"{stem}.csv"),
              _PARAM_HEADER + ["theorem", "region", "kernel_over_upper_max",
                               "lower_over_kernel_max"], rows)
    return _finish(out, stem,
                   {"experiment": "bounds-check",
                    "theorem": "two-sided envelope stability",
                    "upper_constant": res.upper_max, "lower_constant": res.lower_max,
                    "stability": res.stability,
                    "detail": f"empirical constants ({res.upper_max:.4g}, "
                              f"{res.lower_max:.4g}), doubling stability "
                              f"{res.stability:.4g}"},
                   f"bounds-check: constants ({res.upper_max:.3f}, {res.lower_max:.3f}), "
                   f"stability {res.stability:.3f}", res.passed, res.converged)


def cmd_limit_rate(c, out, stem):
    exp = default_experiment(c.which)
    if c.ladder is not None:
        exp = replace(exp, ladder=tuple(c.ladder))
    res = run_limit(exp, c.quad)
    rows = [[res.which, res.theorem, repr(float(h)), repr(float(e))]
            for h, e in res.table]
    write_csv(os.path.join(out, f"{stem}.csv"),
              ["experiment", "theorem", "ladder_value", "sup_error"], rows)
    return _finish(out, stem,
                   {"experiment": c.which, "theorem": res.theorem,
                    "slope": None if res.fit is None else res.fit.slope,
                    "r2": None if res.fit is None else res.fit.r_squared,
                    "expected_slope": res.expected_slope,
                    "tolerance": res.tolerance, "mode": res.mode, "detail": res.detail},
                   f"limit-rate {c.which}: {res.detail}", res.passed, res.converged)


def cmd_opnorm(c, out, stem):
    p_exp, q_exp = (math.inf if v == "inf" else v for v in (c.p, c.q))
    res = opnorm_decay(p_exp, q_exp, c.params, tuple(c.t_ladder), c.quad)
    write_csv(os.path.join(out, f"{stem}.csv"),
              ["p", "q", "theorem", "t", "ratio"],
              [[str(c.p), str(c.q), "operator-norm decay",
                repr(float(t)), repr(float(v))] for t, v in res.table])
    return _finish(out, stem,
                   {"experiment": "opnorm", "theorem": "operator-norm decay",
                    "p": c.p, "q": c.q,
                    "slope": None if res.fit is None else res.fit.slope,
                    "expected_slope": res.expected_slope, "detail": res.detail},
                   f"opnorm ({c.p},{c.q}): {res.detail}", res.passed, res.converged)


def cmd_oracle_compare(c, out, stem):
    p = c.params
    table, converged, _ = oracle_compare(p, c.data, c.grid, c.times,
                                         (c.window.x, c.window.z), c.quad)
    worst = _worst(sup for _, sup, _ in table)
    rows = [_param_cols(p) + ["kernel/finite-difference agreement",
                              repr(t), repr(sup), repr(l2)] for t, sup, l2 in table]
    write_csv(os.path.join(out, f"{stem}.csv"),
              _PARAM_HEADER + ["theorem", "t", "sup_rel", "l2_rel"], rows)
    return _finish(out, stem,
                   {"experiment": "oracle-compare",
                    "theorem": "kernel/finite-difference agreement",
                    "sup_rel": worst, "tolerance": c.tol},
                   f"oracle-compare: sup rel {worst:.3e} (tol {c.tol:g})",
                   worst <= c.tol, converged)


def cmd_report(c, out, stem):
    summaries = []
    for name in sorted(os.listdir(out)):
        if name.endswith(".summary.json"):
            with open(os.path.join(out, name)) as fh:
                summaries.append((name, validate(json.load(fh), "summary", name)))
    entries = []   # each row names the summary file it came from by its stem
    for name, s in summaries:
        stem = name[:-len(".summary.json")]
        if s["results"] is not None:  # identity suite: one row per identity
            for k, v in sorted(s["results"].items()):
                entries.append((stem, k, v["statement"], "",
                                f"{v['max_deviation']:.3e} <= {v['tolerance']:g}",
                                v["pass"]))
            continue
        detail = s["detail"] or (
            f"max dev {s['max_deviation']:.3e}" if s["max_deviation"] is not None
            else f"sup {s['sup_rel']:.3e}" if s["sup_rel"] is not None
            else "")
        entries.append((stem, name if s["experiment"] is None else s["experiment"],
                        s["theorem"], "" if s["slope"] is None else f"{s['slope']:.3f}",
                        detail, s["pass"]))
    lines = ["# Verification report", "",
             "| summary | experiment | statement | slope | detail | pass |",
             "|---|---|---|---|---|---|"]
    for e in entries:
        cells = [str(x) for x in e[:5]] + ["yes" if e[5] else "NO"]
        lines.append("| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |")
    _atomic_write(os.path.join(out, "report.md"), "\n".join(lines) + "\n")
    print(f"report: {len(entries)} entries -> report.md")
    # a report over no summary checked nothing
    return 0 if summaries and all(e[5] for e in entries) else 1


_COMMANDS = {
    "eval-kernel": cmd_eval_kernel,
    "mass-check": cmd_mass_check,
    "identity-suite": cmd_identity_suite,
    "solve": cmd_solve,
    "bounds-check": cmd_bounds_check,
    "limit-rate": cmd_limit_rate,
    "opnorm": cmd_opnorm,
    "oracle-compare": cmd_oracle_compare,
    "report": cmd_report,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="dynheat",
                                 description="dynamical-boundary heat kernel lab")
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--config", help="JSON run configuration")
    ap.add_argument("--out", default="out", help="output directory")
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = {}
        if args.config is not None:
            with open(args.config) as fh:
                cfg = json.load(fh)
        c = validate(cfg, args.command)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](c, args.out, _stem(args))
    except (OSError, ValueError, EvaluationError, SchemeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":  # python -m dynheat.cli
    entry()
