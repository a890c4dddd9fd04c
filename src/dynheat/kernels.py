"""Closed-form elementary kernels on the half-space.

All kernels depend on the tangential variables only through the offset
|x' - y'|, so every function here accepts plain radii (or signed first-axis
coordinates) next to full vectors.  Exponentials are evaluated in log space
and flushed to exact zero below exp(-745) to keep ratio-based checks free
of NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import _count, _finite

__all__ = [
    "LOG_FLUSH",
    "Params",
    "HalfSpacePoint",
    "exp_flush",
    "free_heat_radial",
    "dirichlet_kernel",
    "neumann_kernel",
    "poisson_kernel",
    "gaussian_interval_mass",
    "sphere_area",
]

LOG_FLUSH = -745.0


@dataclass(frozen=True)
class Params:
    """Model parameters: bulk time scale, boundary capacity, surface
    diffusivity and space dimension."""

    epsilon: float
    delta: float
    kappa: float = 0.0
    dim: int = 2

    def __post_init__(self):
        if _finite(self.epsilon, "epsilon") <= 0:
            raise ValueError("epsilon must be positive")
        if _finite(self.delta, "delta") <= 0:
            raise ValueError("delta must be positive")
        if _finite(self.kappa, "kappa") < 0:
            raise ValueError("kappa must be nonnegative")
        if _count(self.dim, "dim") < 2:
            raise ValueError("dim must be at least 2")


@dataclass(frozen=True)
class HalfSpacePoint:
    """Point of the closed half-space.

    ``tangential`` is either a full (N-1) vector or a signed coordinate on
    the first tangential axis (lossless for kernel evaluation because every
    kernel sees only |x' - y'|).  ``normal`` is the distance to the
    boundary and must be nonnegative.
    """

    tangential: float | tuple | np.ndarray
    normal: float

    def __post_init__(self):
        tang = self.tangential  # a scalar stays scalar: no array per point
        for v in (tang,) if isinstance(tang, (int, float)) else np.ravel(tang):
            _finite(v, "tangential coordinate")
        if _finite(self.normal, "normal coordinate") < 0:
            raise ValueError("normal coordinate must be nonnegative")

    def tangential_vector(self, dim: int) -> np.ndarray:
        if dim < 2:
            raise ValueError(f"no tangential axis in dimension {dim}; dim must be at least 2")
        v = np.atleast_1d(np.asarray(self.tangential, dtype=float))
        if v.size == dim - 1:
            return v
        if v.size == 1:
            out = np.zeros(dim - 1)
            out[0] = v[0]
            return out
        raise ValueError(f"tangential part has size {v.size}, expected {dim - 1}")


def tangential_offset(x: HalfSpacePoint, y: HalfSpacePoint, dim: int) -> float:
    return float(np.linalg.norm(x.tangential_vector(dim) - y.tangential_vector(dim)))


def exp_flush(logv):
    """exp with hard flush to zero below the double-precision floor.

    Arrays with no entry below ``LOG_FLUSH`` take numpy's contiguous exp
    loop.  The others take a masked exp into zeros, which also skips exp's
    slow underflow path on deep tails.  NaN is never below the floor, so
    it reaches exp and comes out NaN on both paths.
    """
    logv = np.asarray(logv, dtype=float)
    low = logv < LOG_FLUSH
    if np.logical_or.reduce(low, axis=None):
        out = np.zeros_like(logv)
        np.exp(logv, out=out, where=~low)
    else:
        out = np.exp(logv)
    if out.ndim == 0:
        return float(out)
    return out


def _log_heat(d, r, t):
    """log of the whole-space heat kernel of R^d at radius ``r`` and time
    ``t`` (broadcast), with no check on ``t`` and no flush; numpy's
    division-by-zero warning is silenced."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        return -(d / 2.0) * np.log(4.0 * np.pi * t) - r * r / (4.0 * t)


def free_heat_radial(d: int, r, t):
    """Whole-space heat kernel of R^d at radius ``r`` and time ``t``.

    Vectorized over ``r`` and ``t`` (broadcast).  t must be positive.
    """
    if not (np.asarray(t, dtype=float) > 0).all():
        raise ValueError("time must be positive")
    return exp_flush(_log_heat(d, r, t))


def dirichlet_kernel(x: HalfSpacePoint, y: HalfSpacePoint, t: float, dim: int):
    """Half-space heat kernel with absorbing boundary (reflection difference).

    Computed in the factored form: tangential Gaussian times the difference
    of the two 1-D normal Gaussians, which vanishes when either point sits
    on the boundary.
    """
    r = tangential_offset(x, y, dim)
    return dirichlet_radial(r, x.normal, y.normal, t, dim)


def dirichlet_radial(r, xn, yn, t, dim: int):
    tang = free_heat_radial(dim - 1, r, t)
    return tang * (free_heat_radial(1, np.asarray(xn) - yn, t)
                   - free_heat_radial(1, np.asarray(xn) + yn, t))


def neumann_kernel(x: HalfSpacePoint, y: HalfSpacePoint, t: float, dim: int):
    """Half-space heat kernel with reflecting boundary (reflection sum)."""
    r = tangential_offset(x, y, dim)
    return neumann_radial(r, x.normal, y.normal, t, dim)


def neumann_radial(r, xn, yn, t, dim: int):
    tang = free_heat_radial(dim - 1, r, t)
    return tang * (free_heat_radial(1, np.asarray(xn) - yn, t)
                   + free_heat_radial(1, np.asarray(xn) + yn, t))


def poisson_kernel(offset, height, dim: int):
    """Harmonic-extension kernel of the half-space.

    ``offset`` is the tangential offset |x' - y'| (scalar or array) and
    ``height`` the normal coordinate, which must be positive.
    """
    height = np.asarray(height, dtype=float)
    if not np.all(height > 0):
        raise ValueError("height must be positive")
    r = np.asarray(offset, dtype=float)
    c = math.pi ** (-dim / 2.0) * math.gamma(dim / 2.0)
    out = c * height * (r * r + height * height) ** (-dim / 2.0)
    if out.ndim == 0:
        return float(out)
    return out


def gaussian_interval_mass(x, lo, hi, t):
    """Integral of the 1-D heat kernel centred at ``x`` over [lo, hi]."""
    from scipy.special import erf

    t = np.asarray(t, dtype=float)
    if not np.all(t > 0):
        raise ValueError("time must be positive")
    s = 2.0 * np.sqrt(t)
    out = 0.5 * (erf((np.asarray(x) - lo) / s) - erf((np.asarray(x) - hi) / s))
    if np.ndim(out) == 0:
        return float(out)
    return out


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^(d+1): |S^d|."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)
