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

from .quadrature import _count, _finite, _positive

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
        _positive(self.epsilon, "epsilon")
        _positive(self.delta, "delta")
        _positive(self.kappa, "kappa", zero=True)
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
        _finite(self.tangential, "tangential coordinate")
        _positive(self.normal, "normal coordinate", zero=True)

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

    Arrays whose least entry is at or above ``LOG_FLUSH`` take numpy's
    contiguous exp loop.  The others take a masked exp into zeros, which
    also skips exp's slow underflow path on deep tails.  A NaN makes the
    least entry NaN, so its array takes the masked path; NaN is never
    below the floor, so it reaches exp there and comes out NaN.
    """
    logv = np.asarray(logv, dtype=float)
    if np.minimum.reduce(logv, axis=None, initial=np.inf) >= LOG_FLUSH:
        out = np.exp(logv)
    else:
        low = logv < LOG_FLUSH
        out = np.zeros_like(logv)
        np.exp(logv, out=out, where=~low)
    if out.ndim == 0:
        return float(out)
    return out


def _log_heat(d, r, t):
    """log of the whole-space heat kernel of R^d at radius ``r`` and time
    ``t`` (broadcast), with no check on ``t`` and no flush.  At t = 0
    numpy warns of a division by zero unless the caller has silenced it;
    the entry points that can reach t = 0 do, once per call."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    log_t = np.log(4.0 * np.pi * t)
    log_t *= -(d / 2.0)
    return log_t - r * r / (4.0 * t)


def free_heat_radial(d: int, r, t):
    """Whole-space heat kernel of R^d at radius ``r`` and time ``t``.

    Vectorized over ``r`` and ``t`` (broadcast); every t passes the time
    rule (``_positive``).
    """
    return exp_flush(_log_heat(d, r, _positive(t)))


def reflected_normal(xn, yn, t, sign):
    """Normal factor of the half-space heat kernel: the 1-D Gaussian at
    xn - yn plus ``sign`` times its wall image at xn + yn, with sign -1
    for an absorbing wall and +1 for a reflecting one."""
    xn = np.asarray(xn)
    return free_heat_radial(1, xn - yn, t) + sign * free_heat_radial(1, xn + yn, t)


def dirichlet_kernel(x: HalfSpacePoint, y: HalfSpacePoint, t: float, dim: int):
    """Half-space heat kernel with absorbing boundary (reflection difference).

    Computed in the factored form: tangential Gaussian times the difference
    of the two 1-D normal Gaussians, which vanishes when either point sits
    on the boundary.
    """
    r = tangential_offset(x, y, dim)
    return dirichlet_radial(r, x.normal, y.normal, t, dim)


def dirichlet_radial(r, xn, yn, t, dim: int):
    return free_heat_radial(dim - 1, r, t) * reflected_normal(xn, yn, t, -1.0)


def neumann_kernel(x: HalfSpacePoint, y: HalfSpacePoint, t: float, dim: int):
    """Half-space heat kernel with reflecting boundary (reflection sum)."""
    r = tangential_offset(x, y, dim)
    return free_heat_radial(dim - 1, r, t) * reflected_normal(x.normal, y.normal, t, 1.0)


def poisson_kernel(offset, height, dim: int):
    """Harmonic-extension kernel of the half-space.

    ``offset`` is the tangential offset |x' - y'| (scalar or array) and
    ``height`` the normal coordinate, which must be positive.
    """
    height = np.asarray(_positive(height, "height"), dtype=float)
    r = np.asarray(offset, dtype=float)
    c = math.pi ** (-dim / 2.0) * math.gamma(dim / 2.0)
    out = c * height * (r * r + height * height) ** (-dim / 2.0)
    if out.ndim == 0:
        return float(out)
    return out


def gaussian_interval_mass(x, lo, hi, t):
    """Integral of the 1-D heat kernel centred at ``x`` over [lo, hi];
    every t passes the time rule (``_positive``)."""
    from scipy.special import erf

    s = 2.0 * np.sqrt(_positive(t))
    out = 0.5 * (erf((np.asarray(x) - lo) / s) - erf((np.asarray(x) - hi) / s))
    if np.ndim(out) == 0:
        return float(out)
    return out


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^(d+1): |S^d|."""
    _positive(d, "d", zero=True)
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)
