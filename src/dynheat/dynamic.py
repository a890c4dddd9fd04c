"""Kernels of the dynamical-boundary problems and their sharp envelopes.

The bulk-boundary exchange kernel is a time integral whose integrand
develops a Gaussian boundary layer at the upper endpoint.  Two exact
parametrisations are implemented:

* ``tau``: direct integration in the original time variable, split at
  t(1 - 1e-4) so the adaptive rule keeps the layer in its own panels;
* ``xi``: the stabilising change of variables
  xi = sqrt(t / (t - tau)) * (x_N + y_N + tau / delta), under which the
  exponential factor becomes a plain Gaussian exp(-eps xi^2 / 4t) and the
  remaining factors stay smooth and bounded.  The inverse map is closed
  form: with z = x_N + y_N + t/delta,
  sqrt(t - tau) = 2 sqrt(t) z / (xi + sqrt(xi^2 + 4 t z / delta)).

``auto`` switches to ``xi`` where eps (x_N + y_N + t/delta)^2 >= 6 t,
which is exactly the regime where the tau-integrand concentrates.

The full kernels are composed in one place each: ``fundamental_grid``
builds G = G0 + H/delta and ``heat_neumann_grid`` the diffusive-Neumann
kernel G0 + H_N, on broadcast arrays of (r, x_N, y_N) in one batch.  The
pointwise kernels and every quadrature over G call them.

Batched evaluation shares one subdivision tree across all requested
components (arrays ``r``, ``s``); results are identical to sequential
evaluation of the same component set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (
    Params,
    HalfSpacePoint,
    exp_flush,
    dirichlet_radial,
    free_heat_radial,
    sphere_area,
    tangential_offset,
)
from .quadrature import (
    QuadSpec,
    QuadResult,
    DEFAULT_SPEC,
    _adaptive,
    _finalize,
    add_terms,
    integrate,
    integrate_nested,
    tail_exponent,
)

__all__ = [
    "Region",
    "Envelope",
    "SingularConfigurationError",
    "exchange_kernel",
    "fundamental_kernel",
    "dirichlet_layer_kernel",
    "laplace_dynamic_kernel",
    "heat_neumann_kernel",
    "classify_region",
    "envelope",
    "exchange_log_grid",
    "exchange_marginal_interior",
    "exchange_marginal_boundary",
    "marginal_interior_reference",
    "marginal_boundary_reference",
    "total_mass",
    "total_mass_radial",
    "laplace_dynamic_mass",
    "heat_neumann_mass",
]

_SLIVER = 1e-4


class SingularConfigurationError(ValueError):
    """Kernel evaluated where it degenerates to a boundary point mass."""


def _log_heat(d, r, t):
    """log of the whole-space heat kernel at radius r (no flush)."""
    with np.errstate(divide="ignore"):
        return -(d / 2.0) * np.log(4.0 * np.pi * np.asarray(t, dtype=float)) \
            - np.asarray(r, dtype=float) ** 2 / (4.0 * np.asarray(t, dtype=float))


def _unit_tan(T, idx):
    return 1.0


# ---------------------------------------------------------------------------
# exchange kernel core
# ---------------------------------------------------------------------------

def _exchange_core(eps, delta, kappa, s, t, spec, tan_fn, log_shift, path):
    """Shared-grid evaluation of the exchange integral for components ``s``.

    ``tan_fn(T, idx)`` supplies the tangential factor for components
    ``idx`` at Gaussian time arguments ``T``; ``log_shift`` is subtracted
    from the exponent of each component (output is the shifted value).
    Returns (values, errors, subdivisions, converged).
    """
    s = np.asarray(s, dtype=float)
    m = s.size
    idx_all = np.arange(m)
    if path == "auto":
        z = s + t / delta
        use_xi = eps * z * z >= 6.0 * t
        if use_xi.all():
            path = "xi"
        elif not use_xi.any():
            path = "tau"
        else:
            out_v = np.empty(m)
            out_e = np.empty(m)
            nsub = 0
            conv = True
            for sub_path, sel in (("xi", use_xi), ("tau", ~use_xi)):
                idx = np.nonzero(sel)[0]
                sub_tan = lambda T, j, idx=idx: tan_fn(T, idx[j])
                v, e, ns, cv = _exchange_core(
                    eps, delta, kappa, s[idx], t, spec,
                    sub_tan, log_shift[idx], sub_path)
                out_v[idx] = v
                out_e[idx] = e
                nsub += ns
                conv = conv and cv
            return out_v, out_e, nsub, conv

    if path == "xi":
        z = s + t / delta
        lc = tail_exponent(spec)
        eta_max = math.sqrt(4.0 * t * lc / eps)
        log_pref = math.log(2.0 * eps) + 0.5 * (math.log(eps) - math.log(4.0 * math.pi * t))

        def f(eta):
            xi = s[None, :] + eta[:, None]
            disc = np.sqrt(xi * xi + (4.0 * t / delta) * z[None, :])
            q = 2.0 * math.sqrt(t) * z[None, :] / (xi + disc)
            w = q * q
            t_tan = w / eps + (kappa / delta) * (t - w)
            ratio = xi / (xi + (2.0 / delta) * np.sqrt(t * w))
            logg = log_pref - eps * xi * xi / (4.0 * t) - log_shift[None, :]
            return tan_fn(t_tan, idx_all) * ratio * exp_flush(logg)

        return _adaptive(f, [(0.0, eta_max)], spec)

    if path == "tau":
        split = t * (1.0 - _SLIVER)

        def f(tau):
            w = (t - tau)[:, None]
            ztau = s[None, :] + tau[:, None] / delta
            t_tan = w / eps + kappa * tau[:, None] / delta
            with np.errstate(divide="ignore"):
                logg = np.log(eps * ztau) - np.log(w) \
                    - 0.5 * (math.log(4.0 * math.pi / eps) + np.log(w)) \
                    - eps * ztau * ztau / (4.0 * w) - log_shift[None, :]
            return tan_fn(t_tan, idx_all) * exp_flush(logg)

        return _adaptive(f, [(0.0, split), (split, t)], spec)

    raise ValueError(f"unknown path {path!r}")


def _pointwise_tan(dim, r, log_ref=None):
    r = np.asarray(r, dtype=float)

    def fn(T, idx):
        lg = _log_heat(dim - 1, r[idx][None, :], T)
        if log_ref is not None:
            lg = lg - log_ref[idx][None, :]
        return exp_flush(lg)

    return fn


def exchange_log_grid(p: Params, r, s, t: float, spec: QuadSpec = DEFAULT_SPEC,
                      path: str = "auto"):
    """log of the exchange kernel on arrays of (r, s) pairs at fixed t.

    Internally every component is rescaled by its dominant exponential
    magnitude so that the relative accuracy of the adaptive rule applies
    even deep in the Gaussian tails.  Returns (log_values, rel_errors,
    subdivisions, converged); values of exactly zero map to -inf.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    r, s = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(s, dtype=float))
    shape = r.shape
    r = r.ravel()
    s = s.ravel()
    log_ref = _log_heat(p.dim - 1, r, t / p.epsilon)
    g_shift = -p.epsilon * s * s / (4.0 * t)
    tan = _pointwise_tan(p.dim, r, log_ref)
    vals, errs, nsub, conv = _exchange_core(
        p.epsilon, p.delta, p.kappa, s, t, spec, tan, g_shift, path)
    total_shift = g_shift + log_ref
    with np.errstate(divide="ignore"):
        logv = np.where(vals > 0.0, np.log(np.maximum(vals, 1e-320)), -np.inf) + total_shift
        rel = np.where(vals > 0.0, errs / np.maximum(vals, 1e-320), errs)
    return logv.reshape(shape), rel.reshape(shape), nsub, conv


def exchange_weighted(p: Params, s, t: float, spec: QuadSpec, tan_fn,
                      path: str = "auto"):
    """Exchange integral with a caller-supplied tangential factor.

    Used by the solution operators, where ``tan_fn`` is the closed
    tangential convolution of the data.  No rescaling: values carry the
    natural magnitude of the data.
    """
    s = np.asarray(s, dtype=float).ravel()
    return _exchange_core(p.epsilon, p.delta, p.kappa, s, t, spec, tan_fn,
                          np.zeros(s.size), path)


def exchange_kernel(p: Params, x: HalfSpacePoint, y: HalfSpacePoint, t: float,
                    spec: QuadSpec = DEFAULT_SPEC, path: str = "auto") -> QuadResult:
    """Bulk-boundary exchange kernel (the dynamical part of the
    fundamental solution), evaluated pointwise."""
    r = tangential_offset(x, y, p.dim)
    logv, rel, nsub, conv = exchange_log_grid(p, [r], [x.normal + y.normal], t, spec, path)
    value = exp_flush(logv[0])
    return QuadResult(float(value), float(rel[0]) * float(value), nsub, conv)


def fundamental_grid(p: Params, r, xn, yn, t: float, spec: QuadSpec = DEFAULT_SPEC,
                     path: str = "auto"):
    """Fundamental solution G = G0 + H/delta on broadcast arrays of
    tangential offsets ``r`` and normal coordinates ``xn``, ``yn``.

    G0 is the absorbing-boundary kernel at time t/epsilon, H the exchange
    kernel; all components share one exchange batch.  Returns (values,
    errors, subdivisions, converged) with values and errors in the
    broadcast shape; the error is that of H/delta (G0 is closed form).
    """
    r, xn, yn = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (r, xn, yn)))
    logh, rel, nsub, conv = exchange_log_grid(p, r, xn + yn, t, spec, path)
    h = exp_flush(logh)
    g0 = dirichlet_radial(r, xn, yn, t / p.epsilon, p.dim)
    return g0 + h / p.delta, rel * h / p.delta, nsub, conv


def fundamental_kernel(p: Params, x: HalfSpacePoint, y: HalfSpacePoint, t: float,
                       spec: QuadSpec = DEFAULT_SPEC, path: str = "auto") -> QuadResult:
    """Fundamental solution: absorbing-boundary part plus the exchange
    part weighted by the boundary capacity."""
    r = tangential_offset(x, y, p.dim)
    return _finalize(*fundamental_grid(p, [r], [x.normal], [y.normal], t, spec, path))


# ---------------------------------------------------------------------------
# limit kernels
# ---------------------------------------------------------------------------

def hdn_batch(eps, kappa, dim, s, t, spec, tan_fn):
    """Exchange part of the diffusive-Neumann heat kernel.

    Semi-infinite integral written in the shifted Gaussian variable
    v = s/(2 sqrt(T)) + eta with T = t/eps; the tangential time argument
    is T + 2 kappa sqrt(T) eta, independent of the normal offset.
    """
    s = np.asarray(s, dtype=float).ravel()
    idx_all = np.arange(s.size)
    T = t / eps
    v0 = s / (2.0 * math.sqrt(T))
    eta_max = math.sqrt(tail_exponent(spec))
    log_norm = -0.5 * math.log(4.0 * math.pi * T)

    def f(eta):
        v = v0[None, :] + eta[:, None]
        t_tan = T + 2.0 * kappa * math.sqrt(T) * eta[:, None]
        with np.errstate(divide="ignore"):
            logm = np.log(4.0 * v) + log_norm - v * v
        return tan_fn(t_tan, idx_all) * exp_flush(logm)

    return _adaptive(f, [(0.0, eta_max)], spec)


def heat_neumann_grid(epsilon: float, kappa: float, r, xn, yn, t: float,
                      dim: int = 2, spec: QuadSpec = DEFAULT_SPEC):
    """Diffusive-Neumann kernel G0 + H_N on broadcast arrays of tangential
    offsets ``r`` and normal coordinates ``xn``, ``yn``, in one
    ``hdn_batch``.  Returns (values, errors, subdivisions, converged) in
    the broadcast shape."""
    r, xn, yn = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (r, xn, yn)))
    vals, errs, nsub, conv = hdn_batch(epsilon, kappa, dim, (xn + yn).ravel(), t, spec,
                                       _pointwise_tan(dim, r.ravel()))
    g0 = dirichlet_radial(r, xn, yn, t / epsilon, dim)
    return g0 + vals.reshape(r.shape), errs.reshape(r.shape), nsub, conv


def heat_neumann_kernel(epsilon: float, kappa: float, x: HalfSpacePoint,
                        y: HalfSpacePoint, t: float, dim: int = 2,
                        spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Fundamental solution of the heat equation with the diffusive
    Neumann boundary condition."""
    if t <= 0:
        raise ValueError("time must be positive")
    if epsilon <= 0 or kappa < 0:
        raise ValueError("need epsilon > 0 and kappa >= 0")
    r = tangential_offset(x, y, dim)
    return _finalize(*heat_neumann_grid(epsilon, kappa, [r], [x.normal], [y.normal], t,
                                        dim, spec))


def gauss_layer_batch(dim, z, A, spec, tan_fn):
    """Poisson-type layer with tangential pre-smoothing.

    Evaluates -2 * int_0^inf tan(A + tau) d/dz Gamma_1(z, tau) dtau via the
    substitution tau = (z / 2w)^2, which turns the measure into the unit
    Gaussian weight (2/sqrt(pi)) exp(-w^2) dw on (0, inf).  ``A = 0`` and a
    point tangential factor reproduce the harmonic-extension kernel.
    """
    z = np.asarray(z, dtype=float).ravel()
    if np.any(z <= 0):
        raise SingularConfigurationError("normal offset must be positive")
    A = np.broadcast_to(np.asarray(A, dtype=float), z.shape)
    idx_all = np.arange(z.size)
    w_max = math.sqrt(tail_exponent(spec))
    pref = 2.0 / math.sqrt(math.pi)

    def f(w):
        t_tan = A[None, :] + (z[None, :] / (2.0 * w[:, None])) ** 2
        return tan_fn(t_tan, idx_all) * (pref * np.exp(-w * w))[:, None]

    # Tangential factors with a distant centre spike in a narrow w-window
    # near zero; dyadic seed panels let the adaptive rule find it at any
    # scale down to 2^-40 of the range.
    edges = [0.0] + [w_max * 2.0**-k for k in range(40, 0, -1)] + [w_max]
    segments = list(zip(edges[:-1], edges[1:]))
    return _adaptive(f, segments, spec)


def laplace_dynamic_kernel(delta: float, kappa: float, x: HalfSpacePoint,
                           y: HalfSpacePoint, t: float, dim: int = 2,
                           spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Fundamental solution of the Laplace equation with the diffusive
    dynamical boundary condition (boundary-to-bulk kernel)."""
    if delta <= 0 or kappa < 0:
        raise ValueError("need delta > 0 and kappa >= 0")
    if t < 0:
        raise ValueError("time must be nonnegative")
    z = x.normal + y.normal + t / delta
    if z <= 0:
        raise SingularConfigurationError(
            "kernel degenerates to a point mass at x_N + y_N + t/delta = 0")
    r = tangential_offset(x, y, dim)
    tan = _pointwise_tan(dim, np.array([r]))
    return _finalize(*gauss_layer_batch(dim, [z], kappa * t / delta, spec, tan))


def dirichlet_layer_batch(eps, dim, xn, t, theta, spec, tan_fn):
    """Boundary layer of the Dirichlet problem with (optionally) diffusing
    surface data; ``theta=None`` freezes the surface data in time.

    Uses v = (x_N / 2) sqrt(eps / t) + eta, under which the normal factor
    is (2 eps / sqrt(pi)) exp(-v^2) and the elapsed bulk time is
    w = eps x_N^2 / (4 v^2).  Strictly interior points only (x_N > 0).
    """
    xn = np.asarray(xn, dtype=float).ravel()
    if np.any(xn <= 0):
        raise ValueError("dirichlet_layer_batch needs x_N > 0")
    idx_all = np.arange(xn.size)
    v0 = 0.5 * xn * math.sqrt(eps / t)
    eta_max = math.sqrt(tail_exponent(spec))
    log_pref = math.log(2.0 * eps) - 0.5 * math.log(math.pi)

    def f(eta):
        v = v0[None, :] + eta[:, None]
        w = eps * xn[None, :] ** 2 / (4.0 * v * v)
        t_tan = w / eps
        if theta is not None:
            t_tan = t_tan + (t - w) / theta
        return tan_fn(t_tan, idx_all) * exp_flush(log_pref - v * v)

    return _adaptive(f, [(0.0, eta_max)], spec)


def dirichlet_layer_kernel(p: Params, theta: float, x: HalfSpacePoint,
                           y: HalfSpacePoint, t: float,
                           spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Kernel carrying diffusing boundary data into the bulk through the
    absorbing-boundary heat flow (the second point is read as a boundary
    point; its normal part is ignored)."""
    if t <= 0:
        raise ValueError("time must be positive")
    if theta <= 0:
        raise ValueError("theta must be positive")
    if x.normal == 0.0:
        return QuadResult(0.0, 0.0, 0, True)
    r = tangential_offset(x, y, p.dim)
    tan = _pointwise_tan(p.dim, np.array([r]))
    return _finalize(*dirichlet_layer_batch(p.epsilon, p.dim, [x.normal], t, theta, spec, tan))


# ---------------------------------------------------------------------------
# regions and envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Region:
    """Tag of the envelope region together with the extreme tangential
    time scales Lambda = max(delta, kappa * epsilon), lambda = min(...)."""

    tag: str
    lambda_big: float
    lambda_small: float


@dataclass(frozen=True)
class Envelope:
    """Two-sided envelope values (upper and lower profiles times their
    tangential Gaussians); the unknown comparison constant is not
    included."""

    upper: float
    lower: float
    region: str


def region_tag(eps, delta, s, t):
    """Vectorised region classifier on (s, t) with s = x_N + y_N."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    near = eps * s * s < 6.0 * t
    early = t < 12.0 * delta * delta / eps
    shallow = s + t / delta < delta / eps
    tags = np.where(near, np.where(early, "D1", "D2"),
                    np.where(shallow, "D3", "D4"))
    return tags


def classify_region(p: Params, x: HalfSpacePoint, y: HalfSpacePoint, t: float) -> Region:
    if p.kappa <= 0:
        raise ValueError("region classification requires kappa > 0")
    if t <= 0:
        raise ValueError("time must be positive")
    tag = str(region_tag(p.epsilon, p.delta, x.normal + y.normal, t))
    return Region(tag, max(p.delta, p.kappa * p.epsilon),
                  min(p.delta, p.kappa * p.epsilon))


def envelope_log(p: Params, r, s, t):
    """log of the upper/lower envelopes on arrays (r, s) at fixed t."""
    if p.kappa <= 0:
        raise ValueError("envelopes require kappa > 0")
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    lam_big = max(p.delta, p.kappa * p.epsilon)
    lam_small = min(p.delta, p.kappa * p.epsilon)
    tags = region_tag(p.epsilon, p.delta, s, t)
    log_h1 = _log_heat(1, s, t / p.epsilon)
    log_h2 = _log_heat(1, s, t / (2.0 * p.epsilon))
    log_lin = np.log(s + t / p.delta)
    zero = np.zeros_like(log_h1)
    log_up = np.where(tags == "D1", zero,
                      np.where(tags == "D3", log_lin + log_h1, log_h1))
    log_low = np.where(tags == "D1", zero,
                       np.where(tags == "D3", log_lin + log_h2, log_h2))
    scale = t / (p.epsilon * p.delta)
    log_up = log_up + _log_heat(p.dim - 1, r, lam_big * scale)
    log_low = log_low + _log_heat(p.dim - 1, r, lam_small * scale)
    return log_up, log_low, tags


def envelope(p: Params, x: HalfSpacePoint, y: HalfSpacePoint, t: float) -> Envelope:
    if t <= 0:
        raise ValueError("time must be positive")
    r = tangential_offset(x, y, p.dim)
    lu, ll, tags = envelope_log(p, r, x.normal + y.normal, t)
    return Envelope(float(exp_flush(lu)), float(exp_flush(ll)), str(tags))


# ---------------------------------------------------------------------------
# marginal masses and total-mass checks
# ---------------------------------------------------------------------------

def exchange_marginal_boundary(p: Params, xn: float, t: float,
                               spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Boundary marginal of the exchange kernel (tangential integral done
    in closed form; the remaining time integral by quadrature)."""
    return _finalize(*exchange_weighted(p, [xn], t, spec, _unit_tan))


def exchange_marginal_interior(p: Params, xn: float, t: float,
                               spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Interior marginal of the exchange kernel: a genuinely 2-D
    (normal x time) quadrature with the tangential direction closed."""
    ycut = math.sqrt(4.0 * t * tail_exponent(spec) / p.epsilon) + 1.0
    return integrate_nested(
        lambda ys: exchange_weighted(p, xn + ys, t, spec, _unit_tan), 0.0, ycut, spec)


def marginal_interior_reference(p: Params, xn: float, t: float,
                                spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Closed 1-D form of the interior marginal (including the capacity
    weight 2/delta), integrated directly in the original time variable."""

    def f(tau):
        return 2.0 / p.delta * free_heat_radial(1, xn + tau / p.delta,
                                                (t - tau) / p.epsilon)

    return integrate(f, 0.0, t, spec)


def marginal_boundary_reference(p: Params, xn: float, t: float,
                                spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Closed 1-D form of the boundary marginal (including the 1/epsilon
    weight), integrated directly in the original time variable."""
    eps, delta = p.epsilon, p.delta

    def f(tau):
        w = t - tau
        zt = xn + tau / delta
        with np.errstate(divide="ignore"):
            logv = -0.5 * (np.log(4.0 * math.pi * w) - math.log(eps)) \
                + np.log(zt) - np.log(w) - eps * zt * zt / (4.0 * w)
        return exp_flush(logv)

    split = t * (1.0 - _SLIVER)
    return _finalize(*_adaptive(f, [(0.0, split), (split, t)], spec))


def dirichlet_mass(eps: float, xn: float, t: float,
                   spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Interior mass of the absorbing-boundary kernel at height ``xn``."""
    T = t / eps
    ycut = xn + math.sqrt(4.0 * T * tail_exponent(spec)) + 1.0

    def f(y):
        return free_heat_radial(1, xn - y, T) - free_heat_radial(1, xn + y, T)

    return integrate(f, 0.0, ycut, spec)


def total_mass(p: Params, xn: float, t: float,
               spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Interior plus weighted boundary mass of the fundamental solution;
    equals 1 identically."""
    return QuadResult(*add_terms(dirichlet_mass(p.epsilon, xn, t, spec),
                                 (exchange_marginal_interior(p, xn, t, spec), p.delta),
                                 (exchange_marginal_boundary(p, xn, t, spec), p.epsilon)))


def total_mass_radial(p: Params, xn: float, t: float,
                      spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Total mass with the tangential integral done numerically (radial
    reduction), exercising the dimension-dependent factors."""
    lc = tail_exponent(spec)
    area = sphere_area(p.dim - 2)
    spread = max(t / p.epsilon,
                 max(p.delta, p.kappa * p.epsilon) * t / (p.epsilon * p.delta))
    rcut = math.sqrt(4.0 * spread * lc) + 2.0
    ycut = xn + math.sqrt(4.0 * t * lc / p.epsilon) + 1.0

    def kernel_slice(rs, yn):
        """area-weighted radial integrand of G at normal height(s) yn."""
        g, err, nsub, conv = fundamental_grid(p, rs, xn, yn, t, spec)
        rr = np.broadcast_to(rs, g.shape)
        w = np.where(rr > 0, rr, 0.0) ** (p.dim - 2) if p.dim > 2 else np.ones_like(rr)
        return area * w * g, area * w * err, nsub, conv

    interior = integrate_nested(
        lambda ys: integrate_nested(
            lambda rs: kernel_slice(rs[:, None], ys[None, :]), 0.0, rcut, spec),
        0.0, ycut, spec)
    bdry = integrate_nested(lambda rs: kernel_slice(rs, 0.0), 0.0, rcut, spec)
    return QuadResult(*add_terms(interior, (bdry, p.epsilon / p.delta)))


def laplace_dynamic_mass(delta: float, kappa: float, xn: float, t: float,
                         dim: int = 2, spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Boundary mass of the Laplace dynamic kernel via radial quadrature
    (power-law tails: integrated through the compactifying map)."""
    z = xn + t / delta
    if z <= 0:
        raise SingularConfigurationError("x_N + t/delta must be positive")
    area = sphere_area(dim - 2)

    def f(rs):
        tan = _pointwise_tan(dim, rs)
        vals, errs, nsub, conv = gauss_layer_batch(dim, np.full(rs.size, z),
                                                   kappa * t / delta, spec, tan)
        w = rs ** (dim - 2) if dim > 2 else np.ones_like(rs)
        return area * w * vals, area * w * errs, nsub, conv

    return integrate_nested(f, 0.0, np.inf, spec)


def heat_neumann_mass(epsilon: float, kappa: float, xn: float, t: float,
                      dim: int = 2, spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Interior mass of the diffusive-Neumann heat kernel via radial and
    normal quadrature; equals 1 identically."""
    lc = tail_exponent(spec)
    T = t / epsilon
    tau_cut = 2.0 * math.sqrt(T * lc)
    rcut = math.sqrt(4.0 * (T + kappa * tau_cut) * lc) + 2.0
    ycut = xn + math.sqrt(4.0 * T * lc) + 1.0
    area = sphere_area(dim - 2)

    def slice_at(rs, yn):
        g, err, nsub, conv = heat_neumann_grid(epsilon, kappa, rs, xn, yn, t, dim, spec)
        rr = np.broadcast_to(rs, g.shape)
        w = rr ** (dim - 2) if dim > 2 else np.ones_like(rr)
        return area * w * g, area * w * err, nsub, conv

    return integrate_nested(
        lambda ys: integrate_nested(
            lambda rs: slice_at(rs[:, None], ys[None, :]), 0.0, rcut, spec),
        0.0, ycut, spec)
