"""Batch front end: run identity suites, kernel evaluations, solution
sweeps, limit experiments and oracle comparisons from a JSON config.

Subcommands: eval-kernel, mass-check, identity-suite, solve, bounds-check,
limit-rate, opnorm, oracle-compare, report.  Results are written as CSV
tables (RFC-4180 quoting) and JSON summaries; identical configs produce
byte-identical outputs.  Exit codes: 0 all checks passed, 1 a check
failed (reports are still written), 2 configuration or I/O error, or a
value the library rejects.
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
    total_mass,
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
from .quadrature import DEFAULT_SPEC, EvaluationError, QuadSpec
from .solutions import PROBLEM_TAGS, first_axis, solve_grid
from .verification import (
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
# Value ranges are left to the library constructors and validators; a sign
# rule appears only where the library has no clean check of its own.

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


def _nonneg(v, where):
    if _num(v, where) < 0:
        raise ConfigError(f"{where} must be nonnegative")
    return float(v)


def _positive(v, where):
    if _num(v, where) <= 0:
        raise ConfigError(f"{where} must be positive")
    return float(v)


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
_KERNELS = ("gamma", "g0", "gn", "poisson", "h", "g", "h_tilde", "g_ldd", "g_hdn")
_AXIS = [0.5, 1.0, 2.0]

# block name -> (constructor, {key: (kind, default)}).  A missing key takes its
# default, which is checked like a given value; a default of None also
# admits null and stands for "not given".
_TABLE = {
    "params": (Params, {
        "epsilon": (_num, 1.0), "delta": (_num, 1.0), "kappa": (_num, 1.0),
        "dim": (_int, 2)}),
    "quad": (QuadSpec, {
        "rel_tol": (_num, DEFAULT_SPEC.rel_tol),
        "abs_tol": (_num, DEFAULT_SPEC.abs_tol),
        "max_subdivisions": (_int, DEFAULT_SPEC.max_subdivisions)}),
    "point": (HalfSpacePoint, {
        "tangential": (_tangential, 0.0), "normal": (_num, _REQUIRED)}),
    "data": (InitialData.of, {
        "interior": (_block("interior"), None), "boundary": (_block("boundary"), None)}),
    "interior": (Interior, {
        "kind": (_str, _REQUIRED), "c": (_num, 1.0), "center": (_num, 0.0),
        "a": (_num, 1.0), "normal": (_block("normal"), None)}),
    "normal": (NormalProfile, {
        "kind": (_str, _REQUIRED), "m": (_num, 0.0), "b": (_num, 1.0),
        "lo": (_num, 0.0), "hi": (_num, 1.0), "alpha": (_num, 0.5)}),
    "boundary": (Boundary, {
        "kind": (_str, _REQUIRED), "c": (_num, 1.0), "center": (_num, 0.0),
        "a": (_num, 1.0), "rho": (_num, 1.0)}),
    "grid": (FdGrid, {
        "Lx": (_num, 8.0), "Lz": (_num, 8.0), "nx": (_int, 256), "nz": (_int, 256),
        "dt": (_num, 1e-3), "scheme": (_str, "crank_nicolson"),
        "flux": (_str, "compact")}),
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
        "grid_approximate": (_bool, None), "upper_constant": (_measured, None),
        "lower_constant": (_measured, None), "stability": (_measured, None)}),
    "identity result": (dict, {
        "statement": (_str, ""), "tolerance": (_num, _REQUIRED),
        "max_deviation": (_measured, _REQUIRED), "pass": (_bool, _REQUIRED)}),
}

_COMMAND_KEYS = {
    "eval-kernel": {
        "kernel": (_choice(_KERNELS), _REQUIRED), "params": (_block("params"), {}),
        "theta": (_finite, None), "t": (_nonneg, _REQUIRED),
        "x": (_block("point"), _REQUIRED), "y": (_block("point"), {"normal": 0.0}),
        "quad": (_block("quad"), {}), "d": (_int, 1)},
    "mass-check": {
        "epsilon": (_list(_num), _AXIS), "delta": (_list(_num), _AXIS),
        "kappa": (_list(_num), _AXIS), "dim": (_list(_int), [2, 3]),
        "x_n": (_list(_nonneg), [0.0, 0.5, 3.0]),
        "t": (_list(_positive), [0.1, 1.0, 10.0]),
        "tol": (_num, 1e-6), "quad": (_block("quad"), {})},
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
        "seed": (_int, 7), "stability_factor": (_num, 1.5)},
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


def _json_default(o):
    if isinstance(o, (np.bool_, np.integer, np.floating)):
        return o.item()
    raise TypeError(f"not JSON serializable: {type(o)}")


def write_summary(path, obj):
    _atomic_write(path, json.dumps(obj, sort_keys=True, indent=2,
                                   default=_json_default) + "\n")


def _param_cols(p: Params, theta=None):
    return [repr(p.epsilon), repr(p.delta), repr(p.kappa),
            "" if theta is None else repr(theta), p.dim]


_PARAM_HEADER = ["epsilon", "delta", "kappa", "theta", "dim"]


# ---------------------------------------------------------------------------
# subcommands: each takes the validated config, the output directory and
# the parsed flags
# ---------------------------------------------------------------------------

def cmd_eval_kernel(c, out, args):
    p, spec, x, y, t, kern = c.params, c.quad, c.x, c.y, c.t, c.kernel
    converged = True
    if kern == "gamma":  # x' is the point of R^d
        r = np.linalg.norm(x.tangential_vector(c.d + 1))
        value = float(free_heat_radial(c.d, r, t))
    elif kern == "g0":
        value = float(dirichlet_kernel(x, y, t, p.dim))
    elif kern == "gn":
        value = float(neumann_kernel(x, y, t, p.dim))
    elif kern == "poisson":
        value = float(poisson_kernel(tangential_offset(x, y, p.dim), x.normal, p.dim))
    else:
        theta = 1.0 if c.theta is None else c.theta
        fn = {"h": lambda: exchange_kernel(p, x, y, t, spec),
              "g": lambda: fundamental_kernel(p, x, y, t, spec),
              "h_tilde": lambda: dirichlet_layer_kernel(p, theta, x, y, t, spec),
              "g_ldd": lambda: laplace_dynamic_kernel(p.delta, p.kappa, x, y, t, p.dim, spec),
              "g_hdn": lambda: heat_neumann_kernel(p.epsilon, p.kappa, x, y, t, p.dim, spec),
              }[kern]
        res = fn()
        value, converged = res.value, res.converged
    print(f"{kern} = {value!r}")
    write_csv(os.path.join(out, "eval_kernel.csv"),
              _PARAM_HEADER + ["kernel", "t", "value", "converged"],
              [_param_cols(p, c.theta) + [kern, repr(t), repr(value),
                                          bool(converged)]])
    return 0 if (converged or not args.strict) else 1


def cmd_mass_check(c, out, args):
    grid = [Params(eps, delta, kappa, dim) for dim in c.dim for eps in c.epsilon
            for delta in c.delta for kappa in c.kappa]
    rows = []
    max_dev = 0.0
    flagged = False
    for p in grid:
        for xn in c.x_n:
            for t in c.t:
                res = total_mass(p, xn, t, c.quad)
                dev = abs(res.value - 1.0)
                max_dev = max(max_dev, dev)
                flagged = flagged or not res.converged
                rows.append(_param_cols(p) + ["total-mass identity", repr(xn), repr(t),
                                              repr(res.value), repr(dev)])
    write_csv(os.path.join(out, "mass_check.csv"),
              _PARAM_HEADER + ["theorem", "x_n", "t", "mass", "deviation"], rows)
    passed = max_dev <= c.tol and not (args.strict and flagged)
    write_summary(os.path.join(out, "mass_check.summary.json"),
                  {"experiment": "mass-check", "theorem": "total-mass identity",
                   "max_deviation": max_dev, "tolerance": c.tol, "pass": passed})
    print(f"mass-check: max deviation {max_dev:.3e} (tol {c.tol:g}) -> "
          f"{'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_identity_suite(c, out, args):
    rows = []
    summary = {}
    ok = True
    for name in c.identities:
        rep = check_identity(name, c.quad, c.seed)
        rows.append([rep.name, rep.statement, repr(rep.tol), repr(rep.max_dev),
                     rep.passed])
        summary[rep.name] = {"statement": rep.statement, "tolerance": rep.tol,
                             "max_deviation": rep.max_dev, "pass": rep.passed}
        ok = ok and rep.passed
        print(f"identity {rep.name}: max dev {rep.max_dev:.3e} "
              f"(tol {rep.tol:g}) -> {'PASS' if rep.passed else 'FAIL'}")
    write_csv(os.path.join(out, "identity_suite.csv"),
              ["identity", "statement", "tolerance", "max_deviation", "pass"], rows)
    write_summary(os.path.join(out, "identity_suite.summary.json"),
                  {"experiment": "identity-suite", "results": summary, "pass": ok})
    return 0 if ok else 1


def cmd_solve(c, out, args):
    p = c.params
    xp = np.array([first_axis(q, p.dim) for q in c.points])
    xn = np.array([q.normal for q in c.points])
    rows = []
    flagged = False
    for t in c.times:
        # err bounds the quadrature error at every probe of this time
        u, err, conv = solve_grid(c.tag, p, c.data, xp, xn, t, c.quad, theta=c.theta)
        flagged = flagged or not conv
        for xpi, xni, val in zip(xp, xn, u):
            rows.append(_param_cols(p, c.theta) +
                        [c.tag, repr(t), repr(float(xpi)), repr(float(xni)),
                         repr(float(val)), repr(err), bool(conv)])
    write_csv(os.path.join(out, "solve.csv"),
              _PARAM_HEADER + ["tag", "t", "x_tangential", "x_normal", "value",
                               "error", "converged"],
              rows)
    print(f"solve: wrote {len(rows)} values")
    return 0 if (not flagged or not args.strict) else 1


def cmd_bounds_check(c, out, args):
    p = c.params
    res = sandwich_check(p, n_per_region=c.samples_per_region, seed=c.seed,
                         stability_factor=c.stability_factor)
    passed = res.passed and not (args.strict and not res.converged)
    rows = [_param_cols(p) + ["two-sided envelopes", tag,
                                 repr(v["upper_max"]), repr(v["lower_max"])]
            for tag, v in sorted(res.per_region.items())]
    write_csv(os.path.join(out, "bounds_check.csv"),
              _PARAM_HEADER + ["theorem", "region", "kernel_over_upper_max",
                               "lower_over_kernel_max"], rows)
    write_summary(os.path.join(out, "bounds_check.summary.json"),
                  {"experiment": "bounds-check",
                   "theorem": "two-sided envelope stability",
                   "upper_constant": res.upper_max, "lower_constant": res.lower_max,
                   "stability": res.stability,
                   "detail": f"empirical constants ({res.upper_max:.4g}, "
                             f"{res.lower_max:.4g}), doubling stability "
                             f"{res.stability:.4g}",
                   "pass": passed})
    print(f"bounds-check: constants ({res.upper_max:.3f}, {res.lower_max:.3f}), "
          f"stability {res.stability:.3f} -> {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_limit_rate(c, out, args):
    exp = default_experiment(c.which)
    if c.ladder is not None:
        exp = replace(exp, ladder=tuple(c.ladder))
    res = run_limit(exp, c.quad)
    rows = [[res.which, res.theorem, repr(float(h)), repr(float(e))]
            for h, e in res.table]
    write_csv(os.path.join(out, f"limit_{c.which}.csv"),
              ["experiment", "theorem", "ladder_value", "sup_error"], rows)
    passed = res.passed and not (args.strict and not res.converged)
    write_summary(os.path.join(out, f"limit_{c.which}.summary.json"),
                  {"experiment": c.which, "theorem": res.theorem,
                   "slope": None if res.fit is None else res.fit.slope,
                   "r2": None if res.fit is None else res.fit.r_squared,
                   "expected_slope": res.expected_slope,
                   "tolerance": res.tolerance, "mode": res.mode,
                   "detail": res.detail, "pass": passed})
    print(f"limit-rate {c.which}: {res.detail} -> {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_opnorm(c, out, args):
    p_exp, q_exp = (math.inf if v == "inf" else v for v in (c.p, c.q))
    res = opnorm_decay(p_exp, q_exp, c.params, tuple(c.t_ladder), c.quad)
    passed = res.passed and not (args.strict and not res.converged)
    write_csv(os.path.join(out, "opnorm.csv"),
              ["p", "q", "theorem", "t", "ratio"],
              [[str(c.p), str(c.q), "operator-norm decay",
                repr(float(t)), repr(float(v))] for t, v in res.table])
    write_summary(os.path.join(out, "opnorm.summary.json"),
                  {"experiment": "opnorm", "theorem": "operator-norm decay",
                   "p": c.p, "q": c.q,
                   "slope": None if res.fit is None else res.fit.slope,
                   "expected_slope": res.expected_slope,
                   "grid_approximate": res.grid_approximate,
                   "detail": res.detail, "pass": passed})
    print(f"opnorm ({c.p},{c.q}): {res.detail} -> "
          f"{'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_oracle_compare(c, out, args):
    p = c.params
    table, converged, _ = oracle_compare(p, c.data, c.grid, c.times,
                                         (c.window.x, c.window.z), c.quad)
    worst = max(sup for _, sup, _ in table)
    rows = [_param_cols(p) + ["kernel/finite-difference agreement",
                              repr(t), repr(sup), repr(l2)] for t, sup, l2 in table]
    write_csv(os.path.join(out, "oracle_compare.csv"),
              _PARAM_HEADER + ["theorem", "t", "sup_rel", "l2_rel"], rows)
    passed = worst <= c.tol and not (args.strict and not converged)
    write_summary(os.path.join(out, "oracle_compare.summary.json"),
                  {"experiment": "oracle-compare",
                   "theorem": "kernel/finite-difference agreement",
                   "sup_rel": worst, "tolerance": c.tol, "pass": passed})
    print(f"oracle-compare: sup rel {worst:.3e} (tol {c.tol:g}) -> "
          f"{'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_report(c, out, args):
    summaries = []
    for name in sorted(os.listdir(out)):
        if name.endswith(".summary.json"):
            with open(os.path.join(out, name)) as fh:
                summaries.append((name, validate(json.load(fh), "summary", name)))
    entries = []
    for name, s in summaries:
        if s["results"] is not None:  # identity suite: one row per identity
            for k, v in sorted(s["results"].items()):
                entries.append((k, v["statement"], "",
                                f"{v['max_deviation']:.3e} <= {v['tolerance']:g}",
                                v["pass"]))
            continue
        detail = s["detail"] or (
            f"max dev {s['max_deviation']:.3e}" if s["max_deviation"] is not None
            else f"sup {s['sup_rel']:.3e}" if s["sup_rel"] is not None
            else "")
        entries.append((name if s["experiment"] is None else s["experiment"],
                        s["theorem"], "" if s["slope"] is None else f"{s['slope']:.3f}",
                        detail, s["pass"]))
    lines = ["# Verification report", "",
             "| experiment | statement | slope | detail | pass |",
             "|---|---|---|---|---|"]
    for e in entries:
        cells = [str(e[0]), str(e[1]), str(e[2]), str(e[3]),
                 "yes" if e[4] else "NO"]
        lines.append("| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |")
    _atomic_write(os.path.join(out, "report.md"), "\n".join(lines) + "\n")
    print(f"report: {len(entries)} entries -> report.md")
    return 0 if all(e[4] for e in entries) else 1


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
    ap.add_argument("--strict", action="store_true",
                    help="treat flagged quadrature as failure (every "
                         "subcommand but identity-suite and report)")
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
        return _COMMANDS[args.command](c, args.out, args)
    except (OSError, ValueError, EvaluationError, SchemeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():  # console-script hook
    raise SystemExit(main())
