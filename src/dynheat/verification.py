"""Executable verification suites: identity checks, diffusion-limit rate
experiments, envelope-bound stability, operator-norm decay, and the
kernel-vs-finite-difference comparison.

Every experiment reports the theorem-style tag it exercises, the measured
quantity, the tolerance it is held to, and a pass flag.  Suprema over
probe regions are maxima over finite grids; rate tolerances absorb
quadrature noise and the sub-leading terms visible at desk-scale ladders
and are documented per experiment in ``EXPERIMENTS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Boundary, InitialData, Interior, NormalProfile, interior_value
from .dynamic import (
    dirichlet_layer_kernel,
    envelope_log,
    exchange_log_grid,
    exchange_marginal_boundary,
    exchange_marginal_interior,
    fundamental_grid,
    heat_neumann_kernel,
    heat_neumann_mass,
    laplace_dynamic_kernel,
    laplace_dynamic_mass,
    marginal_boundary_reference,
    marginal_interior_reference,
    region_tag,
    total_mass,
    total_mass_radial,
)
from .fdsolver import FdGrid, compare, fd_solve
from .kernels import (
    HalfSpacePoint,
    Params,
    dirichlet_radial,
    neumann_kernel,
    poisson_kernel,
)
from .quadrature import DEFAULT_SPEC, TAIL_EXPONENT, QuadSpec, integrate, integrate_nested
from .solutions import _BOUNDARY_ONLY, _INTERIOR_ONLY, solve_grid, witness_response

__all__ = [
    "RateFit",
    "fit_rate",
    "LimitExperiment",
    "LimitResult",
    "EXPERIMENTS",
    "default_experiment",
    "run_limit",
    "IdentityReport",
    "IDENTITIES",
    "check_identity",
    "SandwichResult",
    "sandwich_check",
    "OpnormResult",
    "opnorm_decay",
    "witness_norm",
    "oracle_compare",
]


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

@dataclass
class RateFit:
    """Least-squares line through (log h, log e)."""

    slope: float
    log_prefactor: float
    r_squared: float
    points: list


def fit_rate(points) -> RateFit:
    """Fit a power law to positive (parameter, error) pairs."""
    pts = [(float(h), float(e)) for h, e in points]
    if len(pts) < 4:
        raise ValueError("fit_rate needs at least 4 points")
    h = np.array([q[0] for q in pts])
    e = np.array([q[1] for q in pts])
    if np.any(h <= 0) or np.any(e <= 0):
        raise ValueError("fit_rate needs positive values")
    lh, le = np.log(h), np.log(e)
    A = np.vstack([lh, np.ones_like(lh)]).T
    sol, *_ = np.linalg.lstsq(A, le, rcond=None)
    pred = A @ sol
    denom = float(np.sum((le - le.mean()) ** 2))
    r2 = 1.0 if denom == 0.0 else 1.0 - float(np.sum((le - pred) ** 2)) / denom
    return RateFit(float(sol[0]), float(sol[1]), r2, pts)


# ---------------------------------------------------------------------------
# probe grids
# ---------------------------------------------------------------------------

def _grid(xn_values, xp_values, times):
    xp, xn, ts = np.meshgrid(np.asarray(xp_values, dtype=float),
                             np.asarray(xn_values, dtype=float),
                             np.asarray(times, dtype=float), indexing="ij")
    return xp.ravel(), xn.ravel(), ts.ravel()


_XN_DEFAULT = (0.0, 0.25, 0.5, 1.0, 2.0)
_XP_DEFAULT = (0.0, 0.5, 1.0, 2.0)
_I_DEFAULT = (0.25, 0.5, 1.0)
_LATE = (1.0, 2.0, 4.0)


def probe_points(region: str):
    """Finite probe grids for the uniformity regions of the limit
    statements."""
    if region == "omega_L_I":
        return _grid(_XN_DEFAULT, _XP_DEFAULT, _I_DEFAULT)
    if region in ("Q", "Q1"):  # x_N + t > R with R = 0.5, or x_N + t >= 1
        gxp, gxn, gts = _grid(_XN_DEFAULT, _XP_DEFAULT, _I_DEFAULT)
        m = gxn + gts > 0.5 if region == "Q" else gxn + gts >= 1.0
        return gxp[m], gxn[m], gts[m]
    if region == "omega_c":  # x_N > L = 0.5
        return _grid((1.0, 2.0, 3.0), _XP_DEFAULT, _I_DEFAULT)
    if region == "K":        # compact interior set
        return _grid((0.5, 1.0, 2.0), (0.0, 1.0), _I_DEFAULT)
    if region == "late":     # Omega x (T, infinity), T = 1
        return _grid(_XN_DEFAULT, _XP_DEFAULT, _LATE)
    if region == "omega_late":
        return _grid((0.25, 0.5, 1.0, 2.0), _XP_DEFAULT, (1.0, 2.0))
    raise ValueError(f"unknown probe region {region!r}")


# ---------------------------------------------------------------------------
# limit experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitExperiment:
    """One diffusion-limit experiment: which pair of solutions is compared
    on which probe region as parameters run down the ladder, and the
    documented slope expectation.

    At ladder value h, side A solves ``tags[0]`` with ``Params(1, 1, 1,
    dim)`` and ``theta``, each name in ``vary`` (a ``Params`` field or
    ``"theta"``) set to h.  Side B, ``tags[1]``, is a problem tag that
    reuses those values and sees only the part of ``data`` it admits;
    None compares with zero and ``"data"`` with the interior data."""

    which: str
    theorem: str
    tags: tuple
    vary: tuple
    data: InitialData
    ladder: tuple
    region: str
    mode: str                    # "slope" | "bound" | "plain" | "log_corrected"
    expected_slope: float | None = None
    slope_tol: float = 0.1
    plain_tol: float = 1e-2
    theta: float | None = None
    dim: int = 2


_GAUSS_PHI = Interior("heat_gaussian", a=0.5,
                      normal=NormalProfile("gaussian", m=0.5, b=0.25))
_GAUSS_PHI_L1 = Interior("heat_gaussian", a=0.3,
                         normal=NormalProfile("gaussian", m=0.5, b=0.2))
_GAUSS_PSI = Boundary("heat_gaussian", a=0.5)
_GAUSS_PSI_L1 = Boundary("heat_gaussian", a=0.3)
_ONE_PHI = Interior("constant", c=1.0)
_ONE_PSI = Boundary("constant", c=1.0)

EXPERIMENTS = {e.which: e for e in (
    # the ladder sits below the max-principle saturation of the erf factor
    LimitExperiment("eps_to_0", "bulk-time limit (rate 1/2)",
                    ("HDD", "LDD"), ("epsilon",), InitialData(_ONE_PHI, _GAUSS_PSI),
                    (0.02, 0.01, 0.005, 0.0025), "omega_L_I", "slope", 0.5, 0.1),
    # complement-indicator data keeps the rate sharp
    LimitExperiment("k_to_0", "surface-diffusivity limit (rate 1)", ("HDD", "HD"), ("kappa",),
                    InitialData(boundary=Boundary("complement_indicator", rho=1.0)),
                    (0.2, 0.1, 0.05, 0.025), "Q1", "slope", 1.0, 0.15),
    LimitExperiment("delta_to_0", "capacity limit to diffusive Neumann (rate 1)",
                    ("HDD", "HDN"), ("delta",), InitialData(_GAUSS_PHI),
                    (0.2, 0.1, 0.05, 0.025), "Q", "slope", 1.0, 0.15),
    # constant interior data per the sharpness witness
    LimitExperiment("delta_to_inf", "large-capacity limit (rate -1)",
                    ("HDD", "HDpsi"), ("delta",), InitialData(_ONE_PHI),
                    (4.0, 8.0, 16.0, 32.0), "omega_c", "slope", -1.0, 0.15),
    LimitExperiment("k_to_inf_theta",
                    "joint large-diffusivity limit at fixed ratio (rate -1)",
                    ("HDD", "HDPsi"), ("delta", "kappa"), InitialData(_ONE_PHI),
                    (8.0, 16.0, 32.0, 64.0), "omega_L_I", "slope", -1.0, 0.15, theta=1.0),
    # high ladder: the power law carries a slow 1/sqrt(k) correction
    LimitExperiment("k_to_inf_fp", "large-diffusivity error law, N=2 p=1 (rate -1/2)",
                    ("HDD", "HD0"), ("kappa",), InitialData(_GAUSS_PHI_L1, _GAUSS_PSI_L1),
                    (32.0, 64.0, 128.0, 256.0, 512.0), "Q", "slope", -0.5, 0.1),
    # e(k) k / log k held constant within a factor 1.3
    LimitExperiment("k_to_inf_fp_log",
                    "large-diffusivity error law at the threshold index (N=3, p=1)",
                    ("HDD", "HD0"), ("kappa",), InitialData(_GAUSS_PHI_L1, _GAUSS_PSI_L1),
                    (16.0, 32.0, 64.0, 128.0), "Q", "log_corrected", None, 0.0, 1.3, dim=3),
    # the family data is integrable, so the attained law is the p=1 instance
    LimitExperiment("hdn_eps_to_0", "diffusive-Neumann decay in the bulk-time limit",
                    ("HDN", None), ("epsilon",), InitialData(_GAUSS_PHI_L1),
                    (0.05, 0.025, 0.0125, 0.00625), "late", "slope", 1.0, 0.15),
    # one-sided: the measured decay must be at least as fast as the p=2 bound
    LimitExperiment("hdn_eps_to_0_p2", "diffusive-Neumann decay, p=2 upper bound",
                    ("HDN", None), ("epsilon",), InitialData(_GAUSS_PHI_L1),
                    (0.05, 0.025, 0.0125, 0.00625), "late", "bound", 0.5, 0.1),
    LimitExperiment("hdn_k_to_0", "diffusive-to-plain Neumann (rate 1)",
                    ("HDN", "HhN"), ("kappa",), InitialData(_GAUSS_PHI_L1),
                    (0.1, 0.05, 0.025, 0.0125), "Q", "slope", 1.0, 0.15),
    LimitExperiment("hdn_k_to_inf",
                    "diffusive Neumann to absorbing wall, N=2 p=1 (rate -1/2)",
                    ("HDN", "HD0"), ("kappa",), InitialData(_GAUSS_PHI_L1),
                    (16.0, 32.0, 64.0, 128.0, 256.0), "Q", "slope", -0.5, 0.15),
    LimitExperiment("ldd_delta_to_0",
                    "harmonic-layer decay in the small-capacity limit (rate 1)",
                    ("LDD", None), ("delta",), InitialData(boundary=_GAUSS_PSI_L1),
                    (0.1, 0.05, 0.025, 0.0125), "late", "slope", 1.0, 0.15),
    LimitExperiment("ldd_k_to_inf",
                    "harmonic-layer decay in the large-diffusivity limit (rate -1/2)",
                    ("LDD", None), ("kappa",), InitialData(boundary=_GAUSS_PSI_L1),
                    (16.0, 32.0, 64.0, 128.0), "late", "slope", -0.5, 0.15),
    LimitExperiment("ldd_delta_to_inf", "large-capacity harmonic limit (plain)",
                    ("LDD", "LDpsi"), ("delta",), InitialData(boundary=_GAUSS_PSI),
                    (1000.0,), "omega_c", "plain", None, 0.0),
    LimitExperiment("eps_to_inf", "slow-bulk limit freezes the interior data (plain)",
                    ("HDD", "data"), ("epsilon",), InitialData(_GAUSS_PHI, _ONE_PSI),
                    (4096.0,), "K", "plain", None, 0.0),
    LimitExperiment("hdpsi_eps_to_0", "fixed-Dirichlet to harmonic extension (rate 1/2)",
                    ("HDpsi", "LDpsi"), ("epsilon",), InitialData(boundary=_ONE_PSI),
                    (0.1, 0.05, 0.025, 0.0125), "omega_late", "slope", 0.5, 0.1),
    LimitExperiment("hdpsi_theta_to_0",
                    "fast surface diffusion empties the layer (rate 1/2 at p=1)",
                    ("HDPsi", "HD0"), ("theta",), InitialData(boundary=_GAUSS_PSI_L1),
                    (0.04, 0.02, 0.01, 0.005), "Q", "slope", 0.5, 0.15),
    LimitExperiment("hdpsi_theta_to_inf",
                    "slow surface diffusion freezes the layer (rate -1)",
                    ("HDPsi", "HDpsi"), ("theta",),
                    InitialData(boundary=Boundary("complement_indicator", rho=2.0)),
                    (8.0, 16.0, 32.0, 64.0), "omega_c", "slope", -1.0, 0.15),
    LimitExperiment("hdpsi_eps_to_inf", "slow-bulk limit with diffusing layer (plain)",
                    ("HDPsi", "data"), ("epsilon",), InitialData(_GAUSS_PHI, _ONE_PSI),
                    (4096.0,), "K", "plain", None, 0.0, theta=1.0),
)}


def default_experiment(which: str) -> LimitExperiment:
    try:
        return EXPERIMENTS[which]
    except KeyError:
        raise ValueError(f"unknown experiment {which!r}") from None


@dataclass
class LimitResult:
    which: str
    theorem: str
    table: list                  # (ladder value, sup error)
    fit: RateFit | None
    expected_slope: float | None
    tolerance: float             # the verdict's: plain_tol or slope_tol by mode
    mode: str
    passed: bool
    monotone: bool
    converged: bool              # every solve_grid down the ladder converged
    detail: str = ""


def _admitted(tag: str, data: InitialData) -> InitialData:
    """The part of ``data`` that problem ``tag`` admits."""
    if tag in _BOUNDARY_ONLY:
        return InitialData(boundary=data.boundary)
    if tag in _INTERIOR_ONLY:
        return InitialData(data.interior)
    return data


def _sup_error(exp: LimitExperiment, h: float, spec: QuadSpec):
    """(sup |u_A - u_B| over the probe region, converged) at ladder value h."""
    p = replace(Params(1, 1, 1, exp.dim), **{f: h for f in exp.vary if f != "theta"})
    theta = h if "theta" in exp.vary else exp.theta
    tag_a, tag_b = exp.tags
    xp, xn, ts = probe_points(exp.region)
    sup, converged = 0.0, True
    for t in sorted(set(ts.tolist())):
        m = ts == t
        ua, _, conv = solve_grid(tag_a, p, exp.data, xp[m], xn[m], t, spec, theta=theta)
        converged = converged and bool(conv)
        if tag_b is None:
            ub = 0.0
        elif tag_b == "data":
            ub = interior_value(exp.data.interior, np.abs(xp[m]), xn[m], exp.dim)
        else:
            ub, _, conv = solve_grid(tag_b, p, _admitted(tag_b, exp.data), xp[m], xn[m],
                                     t, spec, theta=theta)
            converged = converged and bool(conv)
        sup = max(sup, float(np.max(np.abs(ua - ub))))
    return sup, converged


def run_limit(exp: LimitExperiment | str, spec: QuadSpec = DEFAULT_SPEC) -> LimitResult:
    """Run a diffusion-limit experiment: sup errors down the parameter
    ladder, a log-log fit where a rate is stated, and a pass flag."""
    if isinstance(exp, str):
        exp = default_experiment(exp)
    if len(exp.ladder) < {"slope": 4, "bound": 4, "log_corrected": 2}.get(exp.mode, 1):
        raise ValueError("ladder too short for a rate fit")
    if exp.mode == "log_corrected" and min(exp.ladder) <= 1:
        raise ValueError("log_corrected ladder values must exceed 1")
    rungs = [_sup_error(exp, h, spec) for h in exp.ladder]
    table = [(h, e) for h, (e, _) in zip(exp.ladder, rungs)]
    errs = np.array([e for _, e in table])
    monotone = bool(np.all(errs[1:] <= errs[:-1] * 1.01)) if errs.size > 1 else True
    fit = None
    detail = ""
    tol = exp.plain_tol if exp.mode in ("plain", "log_corrected") else exp.slope_tol
    if exp.mode == "plain":
        passed = bool(errs[-1] <= tol)
        detail = f"extreme-rung error {errs[-1]:.3e} vs tolerance {tol:g}"
    elif exp.mode == "log_corrected":
        k = np.array([h for h, _ in table])
        q = errs * k / np.log(k)
        ratio = float(q.max() / q.min())
        passed = ratio <= tol
        detail = f"corrected-constancy ratio {ratio:.3f} vs {tol:g}"
    else:
        fit = fit_rate(table)
        if exp.mode == "bound":
            passed = fit.slope >= exp.expected_slope - tol
            detail = (f"slope {fit.slope:.3f} vs one-sided bound "
                      f">= {exp.expected_slope - tol:.3f}")
        else:
            passed = (abs(fit.slope - exp.expected_slope) <= tol
                      and fit.r_squared >= 0.98 and monotone)
            detail = (f"slope {fit.slope:.3f} vs {exp.expected_slope:+.3f}"
                      f" +/- {tol:g}, R^2 {fit.r_squared:.4f}")
    return LimitResult(exp.which, exp.theorem, table, fit, exp.expected_slope,
                       tol, exp.mode, passed, monotone,
                       all(c for _, c in rungs), detail)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

@dataclass
class IdentityReport:
    name: str
    statement: str
    tol: float
    max_dev: float
    passed: bool
    rows: list = field(default_factory=list)   # (label, deviation)


_PARAM_AXIS = (0.5, 1.0, 2.0)
_XN_AXIS = (0.0, 0.5, 3.0)
_T_AXIS = (0.1, 1.0, 10.0)


def _check_mass(spec, seed):
    rows = []
    for dim in (2, 3):
        for eps in _PARAM_AXIS:
            for delta in _PARAM_AXIS:
                for kappa in _PARAM_AXIS:
                    p = Params(eps, delta, kappa, dim)
                    for xn in _XN_AXIS:
                        for t in _T_AXIS:
                            res = total_mass(p, xn, t, spec)
                            rows.append((f"eps={eps},delta={delta},kappa={kappa},"
                                         f"N={dim},x_n={xn},t={t}",
                                         abs(res.value - 1.0)))
    # spot configurations with the tangential integral done numerically
    for (eps, delta, kappa, dim, xn, t) in ((1.0, 1.0, 1.0, 2, 0.5, 1.0),
                                            (2.0, 0.5, 1.0, 3, 0.0, 1.0),
                                            (0.5, 2.0, 0.5, 2, 0.0, 0.1),
                                            (1.0, 1.0, 2.0, 3, 0.5, 0.5)):
        res = total_mass_radial(Params(eps, delta, kappa, dim), xn, t, spec)
        rows.append((f"radial eps={eps},delta={delta},kappa={kappa},N={dim},"
                     f"x_n={xn},t={t}", abs(res.value - 1.0)))
    return rows, "interior + weighted boundary mass equals 1"


def _check_mass_ldd(spec, seed):
    rows = []
    for dim in (2, 3):
        for delta in _PARAM_AXIS:
            for kappa in _PARAM_AXIS:
                for xn in _XN_AXIS:
                    for t in _T_AXIS:
                        res = laplace_dynamic_mass(delta, kappa, xn, t, dim, spec)
                        rows.append((f"delta={delta},kappa={kappa},N={dim},"
                                     f"x_n={xn},t={t}", abs(res.value - 1.0)))
    return rows, "boundary mass of the harmonic dynamic kernel equals 1"


def _check_mass_hdn(spec, seed):
    rows = []
    for dim in (2, 3):
        for eps in _PARAM_AXIS:
            for kappa in _PARAM_AXIS:
                for xn in _XN_AXIS:
                    for t in _T_AXIS:
                        res = heat_neumann_mass(eps, kappa, xn, t, dim, spec)
                        rows.append((f"eps={eps},kappa={kappa},N={dim},"
                                     f"x_n={xn},t={t}", abs(res.value - 1.0)))
    return rows, "interior mass of the diffusive-Neumann kernel equals 1"


def _check_marginal(spec, seed):
    rows = []
    for eps in _PARAM_AXIS:
        for delta in _PARAM_AXIS:
            p = Params(eps, delta, 1.0, 2)
            for xn in _XN_AXIS:
                for t in _T_AXIS:
                    # deep-tail configurations: tie the absolute floor to
                    # the Gaussian magnitude so the comparison stays relative
                    sc = max(math.exp(max(-eps * xn * xn / (4.0 * t), -600.0)), 1e-260)
                    s2 = replace(spec, abs_tol=spec.abs_tol * sc)
                    mi = exchange_marginal_interior(p, xn, t, s2)
                    ri = marginal_interior_reference(p, xn, t)
                    mb = exchange_marginal_boundary(p, xn, t, s2)
                    rb = marginal_boundary_reference(p, xn, t)
                    di = abs(mi.value / delta - ri) / abs(ri)
                    db = abs(mb.value / eps - rb) / abs(rb)
                    rows.append((f"interior eps={eps},delta={delta},x_n={xn},t={t}", di))
                    rows.append((f"boundary eps={eps},delta={delta},x_n={xn},t={t}", db))
    return rows, "2-D marginal quadrature matches the closed forms (relative)"


def _check_symmetry(spec, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(500):
        dim = 2 if i % 2 == 0 else 3
        p = Params(*rng.uniform(0.5, 2.0, 3), dim)
        t = rng.uniform(0.1, 5.0)
        xv = rng.uniform(-2, 2, dim - 1)
        yv = rng.uniform(-2, 2, dim - 1)
        x = HalfSpacePoint(tuple(xv), rng.uniform(0, 2))
        y = HalfSpacePoint(tuple(yv), rng.uniform(0, 2))
        r_xy = float(np.linalg.norm(np.asarray(xv) - np.asarray(yv)))
        # G(x, y), G(y, x), and G with y on the wall and x at height
        # x_N + y_N, where G0 vanishes and G = H/delta: three equal
        # exchange components in one batch
        s_xy = x.normal + y.normal
        (g1, g2, h1), _, _, _ = fundamental_grid(
            p, r_xy, [x.normal, y.normal, s_xy], [y.normal, x.normal, 0.0], t, spec)
        if g1 <= 0.0 or h1 <= 0.0:
            rows.append((f"positivity sample {i}", float("inf")))
            continue
        rows.append((f"sample {i}", abs(g1 - g2) / g1))
    return rows, "kernel symmetry (relative) and strict positivity"


def _check_positivity(spec, seed):
    rng = np.random.default_rng(seed + 1)
    rows = []
    for i in range(500):
        r = rng.uniform(0, 3)
        xn = rng.uniform(0, 2)
        yn = rng.uniform(0, 2)
        t = rng.uniform(0.1, 5.0)
        e, d, k = rng.uniform(0.5, 2.0, 3)
        x, y = HalfSpacePoint(r, xn), HalfSpacePoint(0.0, yn)
        vals = [
            heat_neumann_kernel(e, k, x, y, t, 2, spec).value,
            laplace_dynamic_kernel(d, k, x, y, t, 2, spec).value,
        ]
        if xn > 0:
            vals.append(dirichlet_layer_kernel(Params(e, d, k, 2), d / max(k, 1e-6),
                                               x, y, t, spec).value)
        dev = 0.0 if all(v > 0.0 for v in vals) else float("inf")
        rows.append((f"sample {i}", dev))
    return rows, "strict positivity of the limit kernels on admissible samples"


def _check_semigroup(spec, seed):
    p = Params(1.0, 1.0, 1.0, 2)
    tight = QuadSpec(rel_tol=1e-7, abs_tol=1e-10,
                     max_subdivisions=spec.max_subdivisions)
    t = s = 0.5
    rows = []
    lc = TAIL_EXPONENT
    spread = max(t / p.epsilon, max(p.delta, p.kappa * p.epsilon) * t / (p.epsilon * p.delta))
    for (x1, xnn, y1, ynn) in ((0.0, 0.7, 0.5, 0.2), (0.3, 0.0, 0.0, 1.0)):
        lhs = fundamental_grid(p, abs(x1 - y1), xnn, ynn, t + s, tight)[0]
        R = math.sqrt(4 * spread * lc) + max(abs(x1), abs(y1)) + 2.0
        Zc = math.sqrt(4 * t * lc / p.epsilon) + max(xnn, ynn) + 2.0

        def tangential(zns):
            def inner(z1s):
                Z1, ZN = z1s[:, None], zns[None, :]
                ga = fundamental_grid(p, np.abs(x1 - Z1), xnn, ZN, t, tight)[0]
                gc = fundamental_grid(p, np.abs(Z1 - y1), ZN, ynn, s, tight)[0]
                return ga * gc
            return integrate(inner, -R, R, tight)

        bulk = integrate_nested(tangential, 0.0, Zc, tight)

        def line(z1s):
            ga = fundamental_grid(p, np.abs(x1 - z1s), xnn, 0.0, t, tight)[0]
            gc = fundamental_grid(p, np.abs(z1s - y1), 0.0, ynn, s, tight)[0]
            return ga * gc

        bd = integrate(line, -R, R, tight)
        rhs = float(np.max(bulk.value)) + (p.delta / p.epsilon) * bd.value
        rows.append((f"pair ({x1},{xnn})->({y1},{ynn})", abs(rhs - lhs) / lhs))
    return rows, "one-step composition reproduces the kernel (relative)"


def _d1c(f, h):
    return (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)


def _d2c(f, h):
    return (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)


def _check_pde_residual(spec, seed):
    tight = QuadSpec(rel_tol=1e-12, abs_tol=1e-15,
                     max_subdivisions=spec.max_subdivisions)
    rng = np.random.default_rng(seed + 2)
    rows = []
    h = 6e-3

    def G(p, r, xn, yn, t):
        return float(fundamental_grid(p, r, xn, yn, t, tight)[0])

    for i in range(25):
        p = Params(*rng.uniform(0.5, 2.0, 3), 2)
        r = rng.uniform(0.3, 1.5)
        xn = rng.uniform(0.2, 1.2)
        yn = rng.uniform(0.1, 1.0)
        t = rng.uniform(0.3, 1.2)
        ft = [G(p, r, xn, yn, t + k * h) for k in (-2, -1, 0, 1, 2)]
        fr = [G(p, r + k * h, xn, yn, t) for k in (-2, -1, 0, 1, 2)]
        fz = [G(p, r, xn + k * h, yn, t) for k in (-2, -1, 0, 1, 2)]
        gt = _d1c(ft, h)
        lap = _d2c(fr, h) + _d2c(fz, h)
        scale = max(abs(p.epsilon * gt), 1e-12)
        rows.append((f"interior {i}", abs(p.epsilon * gt - lap) / scale))
    worst_neg = float("inf")
    for i in range(25):
        p = Params(*rng.uniform(0.5, 2.0, 3), 2)
        r = rng.uniform(0.3, 1.5)
        yn = rng.uniform(0.1, 1.0)
        t = rng.uniform(0.3, 1.2)
        ft = [G(p, r, 0.0, yn, t + k * h) for k in (-2, -1, 0, 1, 2)]
        fr = [G(p, r + k * h, 0.0, yn, t) for k in (-2, -1, 0, 1, 2)]
        fz = [G(p, r, k * h, yn, t) for k in (0, 1, 2, 3)]
        gt = _d1c(ft, h)
        gpp = _d2c(fr, h)
        gz = (-11 * fz[0] + 18 * fz[1] - 9 * fz[2] + 2 * fz[3]) / (6 * h)
        scale = max(abs(p.delta * gt), 1e-12)
        res = abs(p.delta * gt - p.kappa * gpp - gz) / scale
        # negative control: the absorbing kernel alone violates the
        # boundary operator by its full wall flux
        g0z = [float(dirichlet_radial(r, k * h, yn, t / p.epsilon, 2))
               for k in (0, 1, 2, 3)]
        neg = abs((-11 * g0z[0] + 18 * g0z[1] - 9 * g0z[2] + 2 * g0z[3]) / (6 * h)) / scale
        worst_neg = min(worst_neg, neg / max(res, 1e-300))
        rows.append((f"boundary {i} (x10 weight)", res / 10.0))
    rows.append(("negative-control separation (passes iff >= 100x)",
                 1e-4 * 100.0 / worst_neg))
    return rows, "pointwise PDE residuals of the kernel (scaled; boundary rows /10)"


def _check_k0_poisson(spec, seed):
    rng = np.random.default_rng(seed + 3)
    rows = []
    for i in range(200):
        dim = 2 if i % 2 == 0 else 3
        r = rng.uniform(0, 3)
        xn = rng.uniform(0, 2)
        yn = rng.uniform(0, 2)
        t = rng.uniform(0.1, 3)
        d = rng.uniform(0.5, 2)
        x, y = HalfSpacePoint(r, xn), HalfSpacePoint(0.0, yn)
        got = laplace_dynamic_kernel(d, 0.0, x, y, t, dim, spec).value
        ref = poisson_kernel(r, xn + yn + t / d, dim)
        rows.append((f"sample {i}", abs(got - ref) / ref))
    return rows, "zero surface diffusivity collapses to the harmonic kernel (relative)"


def _check_k0_neumann(spec, seed):
    rng = np.random.default_rng(seed + 4)
    rows = []
    for i in range(200):
        dim = 2 if i % 2 == 0 else 3
        r = rng.uniform(0, 3)
        xn = rng.uniform(0, 2)
        yn = rng.uniform(0, 2)
        t = rng.uniform(0.1, 3)
        e = rng.uniform(0.5, 2)
        x, y = HalfSpacePoint(r, xn), HalfSpacePoint(0.0, yn)
        got = heat_neumann_kernel(e, 0.0, x, y, t, dim, spec).value
        ref = float(neumann_kernel(x, y, t / e, dim))
        rows.append((f"sample {i}", abs(got - ref) / ref))
    return rows, "zero surface diffusivity collapses to the reflecting kernel (relative)"


IDENTITIES = {
    "mass": (_check_mass, 1e-6),
    "mass_ldd": (_check_mass_ldd, 1e-6),
    "mass_hdn": (_check_mass_hdn, 1e-6),
    "marginal_masses": (_check_marginal, 1e-7),
    "symmetry": (_check_symmetry, 1e-10),
    "positivity": (_check_positivity, 1e-12),
    "semigroup": (_check_semigroup, 1e-4),
    "pde_residual": (_check_pde_residual, 1e-4),
    "k0_poisson": (_check_k0_poisson, 1e-8),
    "k0_neumann": (_check_k0_neumann, 1e-8),
}


def check_identity(which: str, spec: QuadSpec = DEFAULT_SPEC,
                   seed: int = 2024) -> IdentityReport:
    """Run one identity suite; failures are reported, not raised."""
    try:
        fn, tol = IDENTITIES[which]
    except KeyError:
        raise ValueError(f"unknown identity {which!r}") from None
    rows, statement = fn(spec, seed)
    max_dev = max(d for _, d in rows)
    return IdentityReport(which, statement, tol, float(max_dev),
                          bool(max_dev <= tol), rows)


# ---------------------------------------------------------------------------
# envelope sandwich
# ---------------------------------------------------------------------------

@dataclass
class SandwichResult:
    upper_max: float
    lower_max: float
    per_region: dict
    stability: float
    passed: bool


# Consecutive rejected draws after which a region counts as unreachable;
# feasible parameters reject at most one draw in a row.
_MAX_REJECTIONS = 1000


def _sample_regions(p: Params, n_per: int, rng):
    """``n_per`` stratified (r, s, t) samples per envelope region; raises
    ValueError when a region cannot be sampled for ``p``."""
    scale_t = 12.0 * p.delta**2 / p.epsilon
    t_ranges = {"D1": (0.05, 0.99 * scale_t), "D2": (scale_t, 4.0 * scale_t),
                "D3": (1e-3, 0.12 * p.delta**2 / p.epsilon), "D4": (0.05, 8.0)}
    out = {}
    for tag, (t_lo, t_hi) in t_ranges.items():
        if not t_lo < t_hi:
            raise ValueError(f"region {tag} cannot be sampled for {p}: "
                             f"empty time interval [{t_lo:g}, {t_hi:g}]")
        out[tag], rejected = [], 0
        while len(out[tag]) < n_per:
            t = rng.uniform(t_lo, t_hi)
            s0 = math.sqrt(6.0 * t / p.epsilon)
            if tag in ("D1", "D2"):
                s = rng.uniform(0.0, s0 * 0.999)
            elif tag == "D3":  # t <= 0.12 delta^2/eps keeps s0 below the upper end
                s = rng.uniform(s0, (p.delta / p.epsilon - t / p.delta) * 0.9999)
            else:
                s = rng.uniform(s0, s0 + 6.0)
            r = rng.uniform(0.0, 4.0)
            if str(region_tag(p.epsilon, p.delta, s, t)) == tag:
                out[tag].append((r, s, t))
                rejected = 0
            else:
                rejected += 1
                if rejected == _MAX_REJECTIONS:
                    raise ValueError(f"region {tag} cannot be sampled for {p}: "
                                     f"{_MAX_REJECTIONS} consecutive draws rejected")
    return out


def sandwich_check(p: Params | None = None, n_per_region: int = 500,
                   seed: int = 7, stability_factor: float = 1.5) -> SandwichResult:
    """Empirical two-sided envelope constants over stratified samples.

    The maxima of kernel/upper-envelope and lower-envelope/kernel are the
    empirical comparison constants; sample doubling (the first half vs
    the full set, nested) must move them by less than the stability
    factor.
    """
    if n_per_region < 2:
        raise ValueError("sandwich_check needs n_per_region >= 2")
    p = p or Params(1.0, 1.0, 1.0, 2)
    spec = QuadSpec(rel_tol=1e-8, abs_tol=1e-12)
    rng = np.random.default_rng(seed)
    samples = _sample_regions(p, n_per_region, rng)
    per_region = {}
    ups, lows = [], []
    for tag, pts in samples.items():
        lu_r, ll_r, lh_r = [], [], []
        for (r, s, t) in pts:
            lh, _, _, _ = exchange_log_grid(p, [r], [s], t, spec)
            lu, ll, _ = envelope_log(p, np.array([r]), np.array([s]), t)
            lh_r.append(lh[0])
            lu_r.append(lu[0])
            ll_r.append(ll[0])
        up = np.exp(np.array(lh_r) - np.array(lu_r))
        low = np.exp(np.array(ll_r) - np.array(lh_r))
        per_region[tag] = {"upper_max": float(up.max()), "lower_max": float(low.max())}
        ups.append(up)
        lows.append(low)
    up_all = np.concatenate(ups)
    low_all = np.concatenate(lows)
    half = slice(0, n_per_region // 2)
    up_half = np.concatenate([u[half] for u in ups])
    low_half = np.concatenate([w[half] for w in lows])
    stability = max(up_all.max() / up_half.max(), low_all.max() / low_half.max())
    finite = bool(np.all(np.isfinite(up_all)) and np.all(np.isfinite(low_all))
                  and np.all(up_all > 0) and np.all(low_all > 0))
    passed = finite and stability < stability_factor
    return SandwichResult(float(up_all.max()), float(low_all.max()),
                          per_region, float(stability), passed)


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------

def witness_norm(p_exp: float, eps: float, t, dim: int = 2) -> float:
    """Closed Lebesgue norm of the witness profile at time t."""
    t = float(t)
    T = t / eps
    if p_exp == math.inf:
        return (eps / (2.0 * t)) * math.sqrt(2.0 * T) \
            * (4.0 * math.pi * T) ** (-dim / 2.0) * math.exp(-0.5)
    q = p_exp
    tang = (4.0 * math.pi * T) ** (-(dim - 1) * q / 2.0) \
        * (4.0 * math.pi * T / q) ** ((dim - 1) / 2.0)
    beta = q / (4.0 * T)
    norm_n = (4.0 * math.pi * T) ** (-q / 2.0) * 0.5 * math.gamma((q + 1) / 2.0) \
        * beta ** (-(q + 1) / 2.0)
    return ((eps / (2.0 * t)) ** q * tang * norm_n) ** (1.0 / q)


@dataclass
class OpnormResult:
    p_exp: float
    q_exp: float
    table: list
    fit: RateFit | None
    expected_slope: float | None
    passed: bool
    detail: str
    grid_approximate: bool = False


def opnorm_decay(p_exp: float, q_exp: float, epsilon: float = 1.0,
                 delta: float = 1.0, kappa: float = 1.0,
                 t_ladder=(1.0, 2.0, 4.0, 8.0),
                 spec: QuadSpec = DEFAULT_SPEC, dim: int = 2) -> OpnormResult:
    """Witness-based lower-bound curve for the operator norm between
    Lebesgue exponents, fitted in time.

    For p == q the constant pair (1, 1) is propagated instead and the
    ratio must equal 1.  For q < inf the output norm is evaluated on the
    probe grid (grid-approximate, flagged).
    """
    if not 1 <= p_exp <= q_exp:
        raise ValueError("opnorm_decay needs 1 <= p <= q")
    p = Params(epsilon, delta, kappa, dim)
    if p_exp == q_exp:
        ones = InitialData(Interior("constant", c=1.0), Boundary("constant", c=1.0))
        xp, xn, _ = probe_points("omega_L_I")
        ratios = []
        for t in t_ladder:
            u, _, _ = solve_grid("HDD", p, ones, xp, xn, t, spec)
            ratios.append(float(np.max(np.abs(u))))
        dev = max(abs(rr - 1.0) for rr in ratios)
        return OpnormResult(p_exp, q_exp, list(zip(t_ladder, ratios)), None, 0.0,
                            dev <= 1e-6, f"max |ratio - 1| = {dev:.2e}")
    xp, xn, _ = probe_points("omega_L_I")
    grid_approx = q_exp != math.inf
    table = []
    for t in t_ladder:
        u, _, _ = witness_response(p, xp, xn, t, spec)
        if q_exp == math.inf:
            num = float(np.max(np.abs(u)))
        else:
            num = float(np.mean(np.abs(u) ** q_exp) ** (1.0 / q_exp))
        table.append((t, num / witness_norm(p_exp, epsilon, t, dim)))
    fit = fit_rate(table)
    expected = -(dim / 2.0) * (1.0 / p_exp - (0.0 if q_exp == math.inf else 1.0 / q_exp))
    passed = abs(fit.slope - expected) <= 0.1 and fit.r_squared >= 0.98
    return OpnormResult(p_exp, q_exp, table, fit, expected, passed,
                        f"slope {fit.slope:.3f} vs {expected:+.3f} +/- 0.1",
                        grid_approx)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def oracle_compare(p: Params, data: InitialData, grid: FdGrid, times,
                   window=(2.0, 2.0), spec: QuadSpec = DEFAULT_SPEC):
    """The kernel route (``HDD``) against ``fd_solve`` on the grid nodes
    with |x| <= window[0] and z <= window[1].

    One ``fd_solve`` runs to max(times).  Returns the rows (t, sup_rel,
    l2_rel), one per time, whether every ``solve_grid`` converged, and the
    ``FdResult``.
    """
    # checked here, not by solve_grid, so that bad times fail before the march
    if len(times) == 0 or not all(t > 0 for t in times):
        raise ValueError("oracle times must be non-empty and positive")
    res = fd_solve(p, data, grid, max(times), snapshots=times)
    xs, zs = grid.x_nodes(), grid.z_nodes()
    jj = np.nonzero(np.abs(xs) <= window[0])[0]
    ii = np.nonzero(zs <= window[1])[0]
    xp = np.repeat(xs[jj], len(ii))
    xn = np.tile(zs[ii], len(jj))
    rows, converged = [], True
    for t in times:
        uk, _, conv = solve_grid("HDD", p, data, xp, xn, t, spec)
        converged = converged and bool(conv)
        sup, l2 = compare(uk, res.field_at(t)[np.ix_(ii, jj)].T.ravel())
        rows.append((t, sup, l2))
    return rows, converged, res
