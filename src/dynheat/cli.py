"""Batch front end: run identity suites, kernel evaluations, solution
sweeps, limit experiments and oracle comparisons from a JSON config.

Subcommands: eval-kernel, mass-check, identity-suite, solve, bounds-check,
limit-rate, opnorm, oracle-compare, report.  Results are written as CSV
tables (RFC-4180 quoting) and JSON summaries; identical configs produce
byte-identical outputs.  Exit codes: 0 all checks passed, 1 a check
failed (reports are still written), 2 configuration or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .data import Boundary, InitialData, Interior, NormalProfile, UnsupportedDataError
from .dynamic import (
    dirichlet_layer_kernel,
    exchange_kernel,
    fundamental_kernel,
    heat_neumann_kernel,
    laplace_dynamic_kernel,
    total_mass,
)
from .kernels import (
    HalfSpacePoint,
    Params,
    dirichlet_kernel,
    free_heat_kernel,
    neumann_kernel,
    poisson_kernel,
)
from .quadrature import DEFAULT_SPEC, QuadSpec
from .solutions import PROBLEM_TAGS, solve_grid
from .verification import (
    EXPERIMENTS,
    IDENTITIES,
    LimitExperiment,
    check_identity,
    default_experiment,
    opnorm_decay,
    run_limit,
    sandwich_check,
)

__all__ = ["main", "entry"]


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config validation (unknown keys rejected)
# ---------------------------------------------------------------------------

def _require_keys(block, allowed, required=(), where="config"):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")
    missing = sorted(set(required) - set(block))
    if missing:
        raise ConfigError(f"missing keys in {where}: {', '.join(missing)}")


def _number(block, key, where, default=None, positive=False):
    if key not in block:
        if default is None:
            raise ConfigError(f"missing {where}.{key}")
        return default
    v = block[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(f"{where}.{key} must be a number")
    if not abs(v) <= sys.float_info.max:  # NaN, +-inf, ints beyond float range
        raise ConfigError(f"{where}.{key} must be finite")
    if positive and v <= 0:
        raise ConfigError(f"{where}.{key} must be positive")
    return float(v)


def _number_list(block, key, where, default=None, positive=False):
    values = block.get(key, default)
    if not isinstance(values, list):
        raise ConfigError(f"{where}.{key} must be a list")
    return [_number({key: v}, key, where, positive=positive) for v in values]


def parse_params(block, where="params") -> Params:
    _require_keys(block, ("epsilon", "delta", "kappa", "dim"), where=where)
    try:
        return Params(_number(block, "epsilon", where, 1.0),
                      _number(block, "delta", where, 1.0),
                      _number(block, "kappa", where, 1.0),
                      int(block.get("dim", 2)))
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def parse_quad(block, where="quad") -> QuadSpec:
    if block is None:
        return DEFAULT_SPEC
    _require_keys(block, ("rel_tol", "abs_tol", "max_subdivisions", "tail_cut"),
                  where=where)
    try:
        return QuadSpec(_number(block, "rel_tol", where, DEFAULT_SPEC.rel_tol),
                        _number(block, "abs_tol", where, DEFAULT_SPEC.abs_tol),
                        int(block.get("max_subdivisions", DEFAULT_SPEC.max_subdivisions)),
                        _number(block, "tail_cut", where, DEFAULT_SPEC.tail_cut))
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def parse_data(block, where="data") -> InitialData:
    if block is None:
        return InitialData()
    _require_keys(block, ("interior", "boundary"), where=where)
    interior = Interior("zero")
    boundary = Boundary("zero")
    try:
        if "interior" in block:
            b = block["interior"]
            _require_keys(b, ("kind", "c", "center", "a", "normal"),
                          required=("kind",), where=f"{where}.interior")
            normal = None
            if "normal" in b:
                nb = b["normal"]
                _require_keys(nb, ("kind", "m", "b", "lo", "hi", "alpha"),
                              required=("kind",), where=f"{where}.interior.normal")
                normal = NormalProfile(nb["kind"], m=_number(nb, "m", where, 0.0),
                                       b=_number(nb, "b", where, 1.0),
                                       lo=_number(nb, "lo", where, 0.0),
                                       hi=_number(nb, "hi", where, 1.0),
                                       alpha=_number(nb, "alpha", where, 0.5))
            interior = Interior(b["kind"], c=_number(b, "c", where, 1.0),
                                center=_number(b, "center", where, 0.0),
                                a=_number(b, "a", where, 1.0), normal=normal)
        if "boundary" in block:
            b = block["boundary"]
            _require_keys(b, ("kind", "c", "center", "a", "rho"),
                          required=("kind",), where=f"{where}.boundary")
            boundary = Boundary(b["kind"], c=_number(b, "c", where, 1.0),
                                center=_number(b, "center", where, 0.0),
                                a=_number(b, "a", where, 1.0),
                                rho=_number(b, "rho", where, 1.0))
    except (UnsupportedDataError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc
    return InitialData(interior, boundary)


def parse_point(block, where="point") -> HalfSpacePoint:
    _require_keys(block, ("tangential", "normal"), required=("normal",), where=where)
    tang = block.get("tangential", 0.0)
    if isinstance(tang, list):
        tang = tuple(float(v) for v in tang)
    return HalfSpacePoint(tang, _number(block, "normal", where, 0.0))


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
    for row in rows:
        w.writerow(row)
    _atomic_write(path, buf.getvalue())


def _json_default(o):
    if isinstance(o, (np.bool_, np.integer, np.floating)):
        return o.item()
    raise TypeError(f"not JSON serializable: {type(o)}")


def write_summary(path, obj):
    _atomic_write(path, json.dumps(obj, sort_keys=True, indent=2,
                                   default=_json_default) + "\n")


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return x


def _param_block(p: Params, theta=None):
    return {"epsilon": p.epsilon, "delta": p.delta, "kappa": p.kappa,
            "theta": theta, "dim": p.dim}


def _param_cols(p: Params, theta=None):
    return [repr(p.epsilon), repr(p.delta), repr(p.kappa),
            "" if theta is None else repr(theta), p.dim]


_PARAM_HEADER = ["epsilon", "delta", "kappa", "theta", "dim"]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_KERNELS = ("gamma", "g0", "gn", "poisson", "h", "g", "h_tilde", "g_ldd", "g_hdn")


def cmd_eval_kernel(cfg, out, args):
    _require_keys(cfg, ("command", "kernel", "params", "theta", "t", "x", "y",
                        "quad", "d"), required=("kernel", "t", "x"), where="config")
    kern = cfg["kernel"]
    if kern not in _KERNELS:
        raise ConfigError(f"unknown kernel {kern!r}")
    p = parse_params(cfg.get("params", {}))
    spec = parse_quad(cfg.get("quad"))
    t = _number(cfg, "t", "config", positive=(kern != "g_ldd"))
    x = parse_point(cfg["x"])
    y = parse_point(cfg.get("y", {"tangential": 0.0, "normal": 0.0}))
    theta = cfg.get("theta")
    converged = True
    if kern == "gamma":
        value = float(free_heat_kernel(int(cfg.get("d", 1)), np.asarray(x.tangential), t))
    elif kern == "g0":
        value = float(dirichlet_kernel(x, y, t, p.dim))
    elif kern == "gn":
        value = float(neumann_kernel(x, y, t, p.dim))
    elif kern == "poisson":
        value = float(poisson_kernel(np.abs(np.asarray(x.tangential)), x.normal, p.dim))
    else:
        fn = {"h": lambda: exchange_kernel(p, x, y, t, spec),
              "g": lambda: fundamental_kernel(p, x, y, t, spec),
              "h_tilde": lambda: dirichlet_layer_kernel(p, float(theta or 1.0), x, y, t, spec),
              "g_ldd": lambda: laplace_dynamic_kernel(p.delta, p.kappa, x, y, t, p.dim, spec),
              "g_hdn": lambda: heat_neumann_kernel(p.epsilon, p.kappa, x, y, t, p.dim, spec),
              }[kern]
        res = fn()
        value, converged = res.value, res.converged
    print(f"{kern} = {value!r}")
    write_csv(os.path.join(out, "eval_kernel.csv"),
              _PARAM_HEADER + ["kernel", "t", "value", "converged"],
              [_param_cols(p, theta) + [kern, repr(t), repr(value),
                                        bool(converged)]])
    return 0 if (converged or not args.strict) else 1


def cmd_mass_check(cfg, out, args):
    _require_keys(cfg, ("command", "epsilon", "delta", "kappa", "dim", "x_n", "t",
                        "tol", "quad"), where="config")
    spec = parse_quad(cfg.get("quad"))
    tol = _number(cfg, "tol", "config", 1e-6)
    grid = [parse_params({"epsilon": eps, "delta": delta, "kappa": kappa, "dim": dim},
                         where="config")
            for dim in _number_list(cfg, "dim", "config", [2, 3])
            for eps in _number_list(cfg, "epsilon", "config", [0.5, 1.0, 2.0])
            for delta in _number_list(cfg, "delta", "config", [0.5, 1.0, 2.0])
            for kappa in _number_list(cfg, "kappa", "config", [0.5, 1.0, 2.0])]
    times = _number_list(cfg, "t", "config", [0.1, 1.0, 10.0], positive=True)
    points = [(xn, t) for xn in _number_list(cfg, "x_n", "config", [0.0, 0.5, 3.0])
              for t in times]
    if any(xn < 0 for xn, _ in points):
        raise ConfigError("config.x_n must be nonnegative")
    rows = []
    max_dev = 0.0
    flagged = False
    for p in grid:
        for xn, t in points:
            res = total_mass(p, xn, t, spec)
            dev = abs(res.value - 1.0)
            max_dev = max(max_dev, dev)
            flagged = flagged or not res.converged
            rows.append(_param_cols(p) + ["total-mass identity", repr(xn), repr(t),
                                          repr(res.value), repr(dev)])
    write_csv(os.path.join(out, "mass_check.csv"),
              _PARAM_HEADER + ["theorem", "x_n", "t", "mass", "deviation"], rows)
    passed = max_dev <= tol and not (args.strict and flagged)
    write_summary(os.path.join(out, "mass_check.summary.json"),
                  {"experiment": "mass-check", "theorem": "total-mass identity",
                   "max_deviation": max_dev, "tolerance": tol, "pass": passed})
    print(f"mass-check: max deviation {max_dev:.3e} (tol {tol:g}) -> "
          f"{'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_identity_suite(cfg, out, args):
    _require_keys(cfg, ("command", "identities", "seed", "quad"), where="config")
    spec = parse_quad(cfg.get("quad"))
    names = cfg.get("identities", sorted(IDENTITIES))
    for n in names:
        if n not in IDENTITIES:
            raise ConfigError(f"unknown identity {n!r}")
    seed = int(cfg.get("seed", 2024))

    def one(name):
        return check_identity(name, spec, seed)

    with ThreadPoolExecutor(max_workers=args.threads) as ex:
        reports = list(ex.map(one, names))
    rows = []
    summary = {}
    ok = True
    for rep in reports:
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


def cmd_solve(cfg, out, args):
    _require_keys(cfg, ("command", "tag", "params", "theta", "data", "points",
                        "times", "quad"), required=("tag", "points", "times"),
                  where="config")
    tag = cfg["tag"]
    if tag not in PROBLEM_TAGS:
        raise ConfigError(f"unknown problem tag {tag!r}")
    p = parse_params(cfg.get("params", {}))
    spec = parse_quad(cfg.get("quad"))
    data = parse_data(cfg.get("data"))
    theta = cfg.get("theta")
    pts = [parse_point(b, f"points[{i}]") for i, b in enumerate(cfg["points"])]
    xp = np.array([float(np.atleast_1d(np.asarray(q.tangential))[0]) for q in pts])
    xn = np.array([q.normal for q in pts])
    times = _number_list(cfg, "times", "config", positive=True)
    rows = []
    flagged = False
    try:
        for t in times:
            u, err, conv = solve_grid(tag, p, data, xp, xn, t, spec,
                                      theta=theta)
            flagged = flagged or not conv
            for q, val in zip(pts, u):
                rows.append(_param_cols(p, theta) +
                            [tag, repr(float(t)),
                             repr(float(np.atleast_1d(np.asarray(q.tangential))[0])),
                             repr(q.normal), repr(float(val))])
    except (UnsupportedDataError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    write_csv(os.path.join(out, "solve.csv"),
              _PARAM_HEADER + ["tag", "t", "x_tangential", "x_normal", "value"],
              rows)
    print(f"solve: wrote {len(rows)} values")
    return 0 if (not flagged or not args.strict) else 1


def cmd_bounds_check(cfg, out, args):
    _require_keys(cfg, ("command", "params", "samples_per_region", "seed",
                        "stability_factor"), where="config")
    p = parse_params(cfg.get("params", {}))
    res = sandwich_check(p,
                         n_per_region=int(cfg.get("samples_per_region", 500)),
                         seed=int(cfg.get("seed", 7)),
                         stability_factor=_number(cfg, "stability_factor",
                                                  "config", 1.5))
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
                   "pass": res.passed})
    print(f"bounds-check: constants ({res.upper_max:.3f}, {res.lower_max:.3f}), "
          f"stability {res.stability:.3f} -> {'PASS' if res.passed else 'FAIL'}")
    return 0 if res.passed else 1


def cmd_limit_rate(cfg, out, args):
    _require_keys(cfg, ("command", "which", "ladder", "quad", "density"),
                  required=("which",), where="config")
    which = cfg["which"]
    if which not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {which!r}; "
                          f"choose from {', '.join(sorted(EXPERIMENTS))}")
    exp = default_experiment(which)
    if "ladder" in cfg:
        ladder = tuple(float(v) for v in cfg["ladder"])
        if len(ladder) < (4 if exp.mode in ("slope", "bound") else 1):
            raise ConfigError("ladder too short for a rate fit")
        exp = LimitExperiment(**{**exp.__dict__, "ladder": ladder})
    spec = parse_quad(cfg.get("quad"))
    res = run_limit(exp, spec, density=int(cfg.get("density", 1)))
    rows = [[res.which, res.theorem, repr(float(h)), repr(float(e))]
            for h, e in res.table]
    write_csv(os.path.join(out, f"limit_{which}.csv"),
              ["experiment", "theorem", "ladder_value", "sup_error"], rows)
    write_summary(os.path.join(out, f"limit_{which}.summary.json"),
                  {"experiment": which, "theorem": res.theorem,
                   "slope": None if res.fit is None else res.fit.slope,
                   "r2": None if res.fit is None else res.fit.r_squared,
                   "expected_slope": res.expected_slope,
                   "tolerance": res.slope_tol, "mode": res.mode,
                   "detail": res.detail, "pass": res.passed})
    print(f"limit-rate {which}: {res.detail} -> {'PASS' if res.passed else 'FAIL'}")
    return 0 if res.passed else 1


def cmd_opnorm(cfg, out, args):
    _require_keys(cfg, ("command", "p", "q", "params", "t_ladder", "quad"),
                  required=("p", "q"), where="config")
    p_exp = math.inf if cfg["p"] == "inf" else float(cfg["p"])
    q_exp = math.inf if cfg["q"] == "inf" else float(cfg["q"])
    pp = parse_params(cfg.get("params", {}))
    spec = parse_quad(cfg.get("quad"))
    res = opnorm_decay(p_exp, q_exp, pp.epsilon, pp.delta, pp.kappa,
                       tuple(cfg.get("t_ladder", (1.0, 2.0, 4.0, 8.0))),
                       spec, pp.dim)
    write_csv(os.path.join(out, "opnorm.csv"),
              ["p", "q", "theorem", "t", "ratio"],
              [[str(cfg["p"]), str(cfg["q"]), "operator-norm decay",
                repr(float(t)), repr(float(v))] for t, v in res.table])
    write_summary(os.path.join(out, "opnorm.summary.json"),
                  {"experiment": "opnorm", "theorem": "operator-norm decay",
                   "p": cfg["p"], "q": cfg["q"],
                   "slope": None if res.fit is None else res.fit.slope,
                   "expected_slope": res.expected_slope,
                   "grid_approximate": res.grid_approximate,
                   "detail": res.detail, "pass": res.passed})
    print(f"opnorm ({cfg['p']},{cfg['q']}): {res.detail} -> "
          f"{'PASS' if res.passed else 'FAIL'}")
    return 0 if res.passed else 1


def cmd_oracle_compare(cfg, out, args):
    from .fdsolver import FdGrid, fd_solve, compare

    _require_keys(cfg, ("command", "params", "data", "grid", "times", "window",
                        "tol", "quad"), where="config")
    p = parse_params(cfg.get("params", {}))
    spec = parse_quad(cfg.get("quad"))
    data = parse_data(cfg.get("data", {
        "boundary": {"kind": "heat_gaussian", "a": 0.5}}))
    gb = cfg.get("grid", {})
    _require_keys(gb, ("Lx", "Lz", "nx", "nz", "dt", "scheme", "flux"),
                  where="config.grid")
    grid = FdGrid(Lx=_number(gb, "Lx", "grid", 8.0), Lz=_number(gb, "Lz", "grid", 8.0),
                  nx=int(gb.get("nx", 256)), nz=int(gb.get("nz", 256)),
                  dt=_number(gb, "dt", "grid", 1e-3),
                  scheme=gb.get("scheme", "crank_nicolson"),
                  flux=gb.get("flux", "compact"))
    times = [float(t) for t in cfg.get("times", (0.25, 0.5, 1.0))]
    tol = _number(cfg, "tol", "config", 2e-2)
    win = cfg.get("window", {})
    _require_keys(win, ("x", "z"), where="config.window")
    wx = _number(win, "x", "window", 2.0)
    wz = _number(win, "z", "window", 2.0)
    res = fd_solve(p, data, grid, max(times), snapshots=times)
    xs, zs = grid.x_nodes(), grid.z_nodes()
    jj = np.nonzero(np.abs(xs) <= wx)[0]
    ii = np.nonzero(zs <= wz)[0]
    xp = np.repeat(xs[jj], len(ii))
    xn = np.tile(zs[ii], len(jj))
    rows = []
    worst = 0.0
    for t in times:
        uk, _, _ = solve_grid("HDD", p, data, xp, xn, t, spec)
        uf = res.field_at(t)[np.ix_(ii, jj)].T.ravel()
        sup, l2 = compare(uk, uf)
        worst = max(worst, sup)
        rows.append(_param_cols(p) + ["kernel/finite-difference agreement",
                                      repr(t), repr(sup), repr(l2)])
    write_csv(os.path.join(out, "oracle_compare.csv"),
              _PARAM_HEADER + ["theorem", "t", "sup_rel", "l2_rel"], rows)
    passed = worst <= tol
    write_summary(os.path.join(out, "oracle_compare.summary.json"),
                  {"experiment": "oracle-compare",
                   "theorem": "kernel/finite-difference agreement",
                   "sup_rel": worst, "tolerance": tol, "pass": passed})
    print(f"oracle-compare: sup rel {worst:.3e} (tol {tol:g}) -> "
          f"{'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_report(cfg, out, args):
    entries = []
    for name in sorted(os.listdir(out)):
        if not name.endswith(".summary.json"):
            continue
        with open(os.path.join(out, name)) as fh:
            obj = json.load(fh)
        if "results" in obj:  # identity suite: one row per identity
            for k, v in sorted(obj["results"].items()):
                entries.append((k, v.get("statement", ""), "",
                                f"{v['max_deviation']:.3e} <= {v['tolerance']:g}",
                                v["pass"]))
        else:
            detail = obj.get("detail") or (
                f"max dev {obj.get('max_deviation'):.3e}" if "max_deviation" in obj
                else f"sup {obj.get('sup_rel'):.3e}" if "sup_rel" in obj
                else "")
            slope = obj.get("slope")
            entries.append((obj.get("experiment", name),
                            obj.get("theorem", ""),
                            "" if slope is None else f"{slope:.3f}",
                            detail, obj["pass"]))
    lines = ["# Verification report", "",
             "| experiment | statement | slope | detail | pass |",
             "|---|---|---|---|---|"]
    for e in entries:
        cells = [str(e[0]), str(e[1]), str(e[2]), str(e[3]),
                 "yes" if e[4] else "NO"]
        lines.append("| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |")
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
    ap.add_argument("--threads", type=int, default=0,
                    help="experiment-level parallelism (0 = auto)")
    ap.add_argument("--strict", action="store_true",
                    help="treat flagged quadrature as failure")
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.threads == 0:
        args.threads = min(8, os.cpu_count() or 1)
    if args.threads < 1:
        print("error: --threads must be nonnegative", file=sys.stderr)
        return 2
    cfg = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
    if not isinstance(cfg, dict):
        print("error: config root must be a JSON object", file=sys.stderr)
        return 2
    if "command" in cfg and cfg["command"] != args.command:
        print("error: config command does not match CLI command", file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](cfg, args.out, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():  # console-script hook
    raise SystemExit(main())
