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
family.  ``_solve`` sums each problem's terms: a 1-D normal integral for
the reflected/absorbed part, a 2-D (normal x time) integral for interior
data against an exchange-type kernel, a 1-D time integral for boundary
data against the exchange kernel or a layer kernel.  At a probe on the
wall a layer term is the boundary data carried by the tangential heat
flow for the layer's time.
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
    tan_conv,
)
from .dynamic import (
    dirichlet_layer_batch,
    exchange_weighted,
    fundamental_grid,
    gauss_layer_batch,
    hdn_batch,
)
from .kernels import HalfSpacePoint, Params, reflected_normal
from .quadrature import (
    DEFAULT_SPEC,
    QuadSpec,
    add_terms,
    integrate,
    integrate_nested,
    TAIL_EXPONENT,
    _finite,
    _positive,
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
    return lambda T: tan_conv(data, offsets, T, dim)


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
        k = reflected_normal(xn[None, :], ys[:, None], T, sign)
        if prof is not None:
            k = k * prof.value(ys)[:, None]
        return k

    vals, errs, nsub, conv = _per_probe(integrate(f, 0.0, ycut, spec))
    return tanfac * vals, np.abs(tanfac) * errs, nsub, conv


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


def _layer_term(dim, psi: Boundary, off, z, T, weight, batch):
    """Boundary data carried into the bulk by the layer kernel
    ``batch(z, tan_fn)`` at the probes with z > 0.  A probe on the wall
    gets ``weight`` times the data carried by the tangential heat flow for
    the time ``T``: the data itself when T = 0."""
    m = off.size
    if psi.kind == "zero":
        return _zero(m)
    out, err = np.empty(m), np.zeros(m)
    nsub, conv = 0, True
    wall = z <= 0.0
    if wall.any():
        out[wall] = weight * np.asarray(tan_conv(psi, off[wall], T, dim), dtype=float)
    if (~wall).any():
        idx = np.nonzero(~wall)[0]
        out[idx], err[idx], nsub, conv = batch(z[idx], _tan_factory(psi, off[idx], dim))
    return out, err, nsub, conv


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
            w = k * tan_conv(phi, y1 - phi.center, 0.0, p.dim)
            return (g * w).reshape(kk, n * m), (err * w).reshape(kk, n * m), nsub, conv

        vals, errs, nsub, conv = integrate_nested(inner, 0.0, 1.0, spec)
        return np.reshape(vals, (n, m)), np.reshape(errs, (n, m)), nsub, conv

    return _per_probe(integrate_nested(radial, 0.0, math.pi, spec))


def _validate(tag, p: Params, data: InitialData, theta):
    if tag not in PROBLEM_TAGS:
        raise ValueError(f"unknown problem tag {tag!r}")
    if tag in _NEEDS_THETA:
        if theta is None:
            raise ValueError(f"{tag} requires theta")
        _positive(theta, "theta")
    if tag in _BOUNDARY_ONLY and data.interior.kind != "zero":
        raise UnsupportedDataError(f"{tag} admits boundary data only")
    if tag in _INTERIOR_ONLY and data.boundary.kind != "zero":
        raise UnsupportedDataError(f"{tag} admits interior data only")
    if data.interior.is_power_cutoff:
        if tag not in ("HDD", "HD") or p.dim != 2:
            raise UnsupportedDataError(
                "power-cutoff data is supported for HDD/HD with N = 2 only")
        if data.boundary.kind != "zero":
            raise UnsupportedDataError(
                "power-cutoff data requires zero boundary data")


def _admitted(tag, data: InitialData) -> InitialData:
    """The part of ``data`` that problem ``tag`` admits."""
    if tag in _BOUNDARY_ONLY:
        return InitialData(boundary=data.boundary)
    if tag in _INTERIOR_ONLY:
        return InitialData(data.interior)
    return data


def _solve(tag, p: Params, data: InitialData, xp, xn, t, spec, theta):
    """(values, per-probe errors, subdivisions, converged) of solve_grid."""
    _validate(tag, p, data, theta)
    if tag in ("HD", "LD"):  # the kappa = 0 aliases
        return _solve(tag + "D", replace(p, kappa=0.0), data, xp, xn, t, spec, theta)
    _positive(t)
    xp = np.atleast_1d(np.asarray(xp, dtype=float))
    xn = np.atleast_1d(np.asarray(xn, dtype=float))
    if xp.ndim != 1 or xp.shape != xn.shape:
        raise ValueError("xp and xn must be 1-D arrays of matching shapes")
    _finite(xp, "tangential coordinates")
    _positive(xn, "normal coordinates", zero=True)
    if xp.size == 0:
        return _zero(0)
    phi, psi = data.interior, data.boundary
    off_i = np.abs(xp - phi.center) if phi.kind != "zero" else xp
    off_b = np.abs(xp - psi.center) if psi.kind != "zero" else xp

    def reflected(sign):
        return _reflected_term(p.epsilon, p.dim, phi, off_i, xn, t, spec, sign)

    if tag == "HDD":
        boundary = (_zero(xp.size) if psi.kind == "zero" else exchange_weighted(
            p, xn, t, spec, _tan_factory(psi, off_b, p.dim)), p.epsilon)
        if phi.is_power_cutoff:
            return add_terms(_power_cutoff_term(p, phi, xp, xn, t, spec), boundary)
        interior = _interior_term(p.dim, phi, off_i, xn,
                                  math.sqrt(4.0 * t * TAIL_EXPONENT / p.epsilon), spec,
                                  lambda s, tan: exchange_weighted(p, s, t, spec, tan))
        return add_terms(reflected(-1.0), (interior, p.delta), boundary)
    if tag in ("HD0", "HhN"):  # absorbing or reflecting wall
        return reflected(-1.0 if tag == "HD0" else +1.0)
    if tag == "HDN":
        interior = _interior_term(
            p.dim, phi, off_i, xn, math.sqrt(4.0 * (t / p.epsilon) * TAIL_EXPONENT), spec,
            lambda s, tan: hdn_batch(p.epsilon, p.kappa, p.dim, s, t, spec, tan))
        return add_terms(reflected(-1.0), (interior, 1.0))
    if tag in ("HDpsi", "HDPsi"):
        # surface data frozen (theta None) or diffusing; the wall weight eps
        # cancels the layer's 1/eps divisor
        layer_theta = theta if tag == "HDPsi" else None
        layer = _layer_term(p.dim, psi, off_b, xn, t / layer_theta if layer_theta else 0.0,
                            p.epsilon, lambda zs, tan: dirichlet_layer_batch(
                                p.epsilon, p.dim, zs, t, layer_theta, spec, tan))
        return add_terms(reflected(-1.0), (layer, p.epsilon))
    # the harmonic layers, their data pre-smoothed for the time A
    z, A = xn, 0.0  # LDpsi
    if tag == "LDD":
        z, A = xn + t / p.delta, p.kappa * t / p.delta
    elif tag == "LDPsi":
        A = t / theta
    return _layer_term(p.dim, psi, off_b, z, A, 1.0,
                       lambda zs, tan: gauss_layer_batch(p.dim, zs, A, spec, tan))


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

