"""Solution operators for the dynamical-boundary problems and their limits.

Tags name the problem being solved:

========  ==========================================================
HDD       heat flow, diffusive dynamical boundary condition
HD        HDD at kappa = 0 (non-diffusive dynamical condition)
LDD       Laplace equation, diffusive dynamical condition
LD        LDD at kappa = 0 (non-diffusive dynamical condition)
HDN       heat flow, diffusive Neumann condition
HhN       heat flow, homogeneous Neumann condition
HD0       heat flow, homogeneous Dirichlet condition
HDpsi     heat flow, fixed Dirichlet boundary data
HDPsi     heat flow, Dirichlet data diffusing with capacity theta
LDpsi     harmonic extension of fixed boundary data
LDPsi     harmonic extension of diffusing boundary data
========  ==========================================================

Tangential integrals are eliminated in closed form through the data
family; what remains is one 1-D time integral for boundary data, a 2-D
(time x normal) integral for interior data against the exchange kernel,
and a 1-D normal integral for the reflected/absorbed part.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .data import (
    Boundary,
    InitialData,
    Interior,
    UnsupportedDataError,
    boundary_value,
    tan_conv,
)
from .dynamic import (
    dirichlet_layer_batch,
    exchange_weighted,
    fundamental_grid,
    gauss_layer_batch,
    hdn_batch,
)
from .kernels import (
    HalfSpacePoint,
    Params,
    free_heat_radial,
)
from .quadrature import (
    DEFAULT_SPEC,
    QuadSpec,
    add_terms,
    integrate,
    integrate_nested,
    TAIL_EXPONENT,
    _time,
)

__all__ = [
    "PROBLEM_TAGS",
    "first_axis",
    "solve_grid",
]

PROBLEM_TAGS = ("HDD", "HD", "LDD", "LD", "HDN", "HhN", "HD0",
                "HDpsi", "HDPsi", "LDpsi", "LDPsi")

_NEEDS_THETA = ("HDPsi", "LDPsi")
_BOUNDARY_ONLY = ("LDD", "LD", "LDpsi", "LDPsi")
_INTERIOR_ONLY = ("HDN", "HhN", "HD0")


def _zero(m):
    return np.zeros(m), np.zeros(m), 0, True


def _per_probe(res):
    """A QuadResult over the probes as a term 4-tuple of arrays."""
    return (np.atleast_1d(res.value), np.atleast_1d(res.error_estimate),
            res.subdivisions_used, res.converged)


def _tan_factory(data, offsets, dim):
    """tan_fn(T) evaluating the closed tangential convolution of ``data``
    at Gaussian time arguments ``T``, one column per entry of ``offsets``."""
    offsets = np.asarray(offsets, dtype=float)[None, :]

    def fn(T):
        return tan_conv(data, offsets, T, dim)

    return fn


def _normal_window(phi: Interior, xn, reach):
    """Normal profile of ``phi`` (None when the data is constant in the
    normal direction) and the upper end of the normal integral: ``reach``
    past the deepest probe, or the end of the profile if that comes first.
    An end at or below 0 means the profile is below exp(-TAIL_EXPONENT) on
    the whole half-space, and its term is zero."""
    prof = phi.normal if phi.kind == "heat_gaussian" else None
    cut_kernel = float(np.max(xn)) + reach + 1.0
    return prof, (cut_kernel if prof is None
                  else min(prof.support_cut(TAIL_EXPONENT), cut_kernel))


def _reflected_term(eps, dim, phi: Interior, off, xn, t, spec, sign):
    """Interior data against the absorbing (sign=-1) or reflecting
    (sign=+1) half-space kernel; tangential part closed, 1-D normal
    quadrature."""
    if phi.kind == "zero":
        return _zero(off.size)
    T = t / eps
    prof, ycut = _normal_window(phi, xn, math.sqrt(4.0 * T * TAIL_EXPONENT))
    if ycut <= 0.0:
        return _zero(off.size)
    tanfac = np.asarray(tan_conv(phi, off, T, dim), dtype=float)

    def f(ys):
        k = free_heat_radial(1, xn[None, :] - ys[:, None], T) \
            + sign * free_heat_radial(1, xn[None, :] + ys[:, None], T)
        if prof is not None:
            k = k * prof.value(ys)[:, None]
        return k

    vals, errs, nsub, conv = _per_probe(integrate(f, 0.0, ycut, spec))
    return tanfac * vals, np.abs(tanfac) * errs, nsub, conv


def _exchange_boundary_term(p, psi: Boundary, off, xn, t, spec):
    """Boundary data against the exchange kernel (no 1/eps weight)."""
    if psi.kind == "zero":
        return _zero(off.size)
    return exchange_weighted(p, xn, t, spec, _tan_factory(psi, off, p.dim))


def _interior_term(dim, phi: Interior, off, xn, reach, spec, batch):
    """Interior data against an exchange-type kernel: 2-D (normal x time)
    quadrature with the tangential factor closed inside the time integral
    ``batch(s, tan_fn)``; ``reach`` is the normal extent of the kernel,
    TAIL_EXPONENT^(1/2) Gaussian widths, and the normal integral runs
    through ``integrate_nested``'s sinh map scaled to that width."""
    m = off.size
    if phi.kind == "zero":
        return _zero(m)
    prof, ycut = _normal_window(phi, xn, reach)
    if ycut <= 0.0:
        return _zero(m)

    def inner(ys):
        n = ys.size
        s = (xn[None, :] + ys[:, None]).ravel()
        off_flat = np.broadcast_to(off[None, :], (n, m)).ravel()
        vals, errs, nsub, conv = batch(s, _tan_factory(phi, off_flat, dim))
        h, e = vals.reshape(n, m), errs.reshape(n, m)
        if prof is not None:
            w = prof.value(ys)[:, None]
            h, e = h * w, e * np.abs(w)
        return h, e, nsub, conv

    return _per_probe(integrate_nested(inner, 0.0, ycut, spec,
                                       width=reach / math.sqrt(TAIL_EXPONENT)))


def _exchange_interior_term(p, phi: Interior, off, xn, t, spec):
    """Interior data against the exchange kernel (no 1/delta weight)."""
    reach = math.sqrt(4.0 * t * TAIL_EXPONENT / p.epsilon)
    return _interior_term(p.dim, phi, off, xn, reach, spec,
                          lambda s, tan: exchange_weighted(p, s, t, spec, tan))


def _hdn_interior_term(p, phi: Interior, off, xn, t, spec):
    """Interior data against the diffusive-Neumann exchange part."""
    reach = math.sqrt(4.0 * (t / p.epsilon) * TAIL_EXPONENT)
    return _interior_term(
        p.dim, phi, off, xn, reach, spec,
        lambda s, tan: hdn_batch(p.epsilon, p.kappa, p.dim, s, t, spec, tan))


def _layer_term(dim, psi: Boundary, off, z, trace, batch):
    """Boundary data carried into the bulk by the layer kernel
    ``batch(idx, tan_fn)`` at the probes ``idx`` with z > 0; probes on the
    boundary get ``trace(offsets)``."""
    m = off.size
    if psi.kind == "zero":
        return _zero(m)
    out, err = np.empty(m), np.zeros(m)
    nsub, conv = 0, True
    on_bdry = z <= 0.0
    if on_bdry.any():
        out[on_bdry] = trace(off[on_bdry])
    if (~on_bdry).any():
        idx = np.nonzero(~on_bdry)[0]
        out[idx], err[idx], nsub, conv = batch(idx, _tan_factory(psi, off[idx], dim))
    return out, err, nsub, conv


def _dirichlet_layer_term(p, psi: Boundary, off, xn, t, theta, spec):
    """Boundary data carried into the bulk by the Dirichlet boundary
    layer; on the boundary itself the trace value is returned (times
    eps, cancelling the caller's 1/eps weight)."""
    def trace(offb):
        if theta is None:
            return p.epsilon * np.asarray(boundary_value(psi, offb, p.dim), dtype=float)
        return p.epsilon * np.asarray(tan_conv(psi, offb, t / theta, p.dim), dtype=float)

    return _layer_term(p.dim, psi, off, xn, trace, lambda idx, tan: dirichlet_layer_batch(
        p.epsilon, p.dim, xn[idx], t, theta, spec, tan))


def _harmonic_layer_term(dim, psi: Boundary, off, z, smoothing, spec):
    """Harmonic-extension layer with tangential pre-smoothing; at z = 0
    the trace of the (smoothed) data is returned."""
    def trace(offb):
        if smoothing > 0.0:
            return np.asarray(tan_conv(psi, offb, smoothing, dim), dtype=float)
        return np.asarray(boundary_value(psi, offb, dim), dtype=float)

    return _layer_term(dim, psi, off, z, trace, lambda idx, tan: gauss_layer_batch(
        dim, z[idx], smoothing, spec, tan))


def _power_cutoff_term(p, phi: Interior, xp, xn, t, spec):
    """Interior data with radial power-law cutoff profile
    |y|^(-alpha) chi_{|y|<1} times the tangential Gaussian factor
    (N = 2): direct polar quadrature of the full kernel.  The radius runs
    as rho = s^k with k = 1/(2 - alpha), whose Jacobian k s^(k - 1) cancels
    the polar factor rho^(1 - alpha): the s integrand is k times the
    kernel and the tangential factor, bounded at s = 0."""
    m = xp.size
    k = 1.0 / (2.0 - phi.normal.alpha)

    def radial(thetas):
        n = thetas.size
        ct = np.cos(thetas)
        st = np.sin(thetas)

        def inner(ss):
            kk = ss.size
            rhos = ss ** k
            y1 = rhos[:, None, None] * ct[None, :, None]
            yn = rhos[:, None, None] * st[None, :, None]
            g, err, nsub, conv = fundamental_grid(
                p, np.abs(xp[None, None, :] - y1), xn[None, None, :], yn, t, spec)
            w = k * free_heat_radial(1, y1 - phi.center, phi.a)
            return (g * w).reshape(kk, n * m), (err * w).reshape(kk, n * m), nsub, conv

        vals, errs, nsub, conv = integrate_nested(inner, 0.0, 1.0, spec)
        return np.reshape(vals, (n, m)), np.reshape(errs, (n, m)), nsub, conv

    return _per_probe(integrate_nested(radial, 0.0, math.pi, spec))


def _validate(tag, p: Params, data: InitialData, theta):
    if tag not in PROBLEM_TAGS:
        raise ValueError(f"unknown problem tag {tag!r}")
    if tag in _NEEDS_THETA and (theta is None or not theta > 0):
        raise ValueError(f"{tag} requires theta > 0")
    if tag in _BOUNDARY_ONLY and data.interior.kind != "zero":
        raise UnsupportedDataError(f"{tag} admits boundary data only")
    if tag in _INTERIOR_ONLY and data.boundary.kind != "zero":
        raise UnsupportedDataError(f"{tag} admits interior data only")
    if data.interior.kind == "heat_gaussian" and data.interior.is_power_cutoff:
        if tag not in ("HDD", "HD") or p.dim != 2:
            raise UnsupportedDataError(
                "power-cutoff data is supported for HDD/HD with N = 2 only")
        if data.boundary.kind != "zero":
            raise UnsupportedDataError(
                "power-cutoff data requires zero boundary data")


def _solve(tag, p: Params, data: InitialData, xp, xn, t, spec, theta):
    """(values, per-probe errors, subdivisions, converged) of solve_grid."""
    _validate(tag, p, data, theta)
    if tag in ("HD", "LD"):  # the kappa = 0 aliases
        return _solve(tag + "D", replace(p, kappa=0.0), data, xp, xn, t, spec, theta)
    _time(t)
    xp = np.atleast_1d(np.asarray(xp, dtype=float))
    xn = np.atleast_1d(np.asarray(xn, dtype=float))
    if xp.shape != xn.shape:
        raise ValueError("xp and xn must have matching shapes")
    if not np.all(np.isfinite(xp)):
        raise ValueError("tangential coordinates must be finite")
    if not np.all((xn >= 0) & (xn < np.inf)):
        raise ValueError("normal coordinates must be finite and nonnegative")
    if xp.size == 0:
        return _zero(0)
    phi, psi = data.interior, data.boundary
    off_i = np.abs(xp - phi.center) if phi.kind != "zero" else xp
    off_b = np.abs(xp - psi.center) if psi.kind != "zero" else xp

    def reflected(sign):
        return _reflected_term(p.epsilon, p.dim, phi, off_i, xn, t, spec, sign)

    if tag == "HDD":
        boundary = (_exchange_boundary_term(p, psi, off_b, xn, t, spec), p.epsilon)
        if phi.kind == "heat_gaussian" and phi.is_power_cutoff:
            return add_terms(_power_cutoff_term(p, phi, xp, xn, t, spec), boundary)
        return add_terms(reflected(-1.0),
                          (_exchange_interior_term(p, phi, off_i, xn, t, spec), p.delta),
                          boundary)
    if tag == "HD0":
        return reflected(-1.0)
    if tag == "HhN":
        return reflected(+1.0)
    if tag == "HDN":
        return add_terms(reflected(-1.0),
                          (_hdn_interior_term(p, phi, off_i, xn, t, spec), 1.0))
    if tag in ("HDpsi", "HDPsi"):
        layer_theta = theta if tag == "HDPsi" else None
        return add_terms(reflected(-1.0), (_dirichlet_layer_term(
            p, psi, off_b, xn, t, layer_theta, spec), p.epsilon))
    if tag == "LDD":
        return _harmonic_layer_term(p.dim, psi, off_b, xn + t / p.delta,
                                    p.kappa * t / p.delta, spec)
    if tag == "LDpsi":
        return _harmonic_layer_term(p.dim, psi, off_b, xn, 0.0, spec)
    return _harmonic_layer_term(p.dim, psi, off_b, xn, t / theta, spec)  # LDPsi


def solve_grid(tag: str, p: Params, data: InitialData, xp, xn, t: float,
               spec: QuadSpec = DEFAULT_SPEC, theta: float | None = None):
    """Solution values on a grid of probe points at one time.

    ``xp`` are signed first-axis tangential coordinates, ``xn`` normal
    coordinates (arrays of equal length).  Returns (values, error,
    converged); ``error`` bounds the quadrature error at every probe.
    """
    u, err, _, conv = _solve(tag, p, data, xp, xn, t, spec, theta)
    return u, float(np.max(err, initial=0.0)), conv


def first_axis(x: HalfSpacePoint, dim: int) -> float:
    """Signed first-axis coordinate of a probe point in dimension ``dim``;
    the solution operators take probes on the first tangential axis only."""
    xv = x.tangential_vector(dim)
    if np.any(xv[1:] != 0.0):
        raise ValueError("probe points must lie on the first tangential axis")
    return float(xv[0])

