"""Admissible initial data and its closed tangential convolutions.

The data family is closed under tangential heat convolution: constants
pass through, tangential Gaussians add variances, and interval
indicators (available for N = 2 only) convolve to erf differences.
Every solution integral in :mod:`dynheat.solutions` therefore needs
numerical quadrature only in the normal and time variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import free_heat_radial, gaussian_interval_mass

__all__ = [
    "NormalProfile",
    "Interior",
    "Boundary",
    "InitialData",
    "UnsupportedDataError",
    "tan_conv",
    "interior_value",
    "boundary_value",
]


class UnsupportedDataError(ValueError):
    """Raised for (problem, data) combinations outside the closed family."""


@dataclass(frozen=True)
class NormalProfile:
    """Profile of separable interior data in the normal direction.

    kinds: ``gaussian`` (1-D heat kernel centred at ``m`` with parameter
    ``b``), ``indicator`` (of [lo, hi]), ``gaussian_slope`` (the
    normal-derivative profile y/(2b) Gamma_1(y, b) used by the
    operator-norm witness), ``power_cutoff`` (|y|^(-alpha) restricted to
    the unit half-ball; N = 2 only, handled by a dedicated quadrature
    path).
    """

    kind: str
    m: float = 0.0
    b: float = 1.0
    lo: float = 0.0
    hi: float = 1.0
    alpha: float = 0.5

    def __post_init__(self):
        if self.kind not in ("gaussian", "indicator", "gaussian_slope",
                             "power_cutoff"):
            raise UnsupportedDataError(f"unknown normal profile {self.kind!r}")
        if self.kind in ("gaussian", "gaussian_slope") and not self.b > 0:
            raise ValueError("gaussian profile needs b > 0")
        if self.kind == "indicator" and not (0 <= self.lo < self.hi):
            raise ValueError("indicator profile needs 0 <= lo < hi")

    def value(self, y):
        y = np.asarray(y, dtype=float)
        if self.kind == "gaussian":
            return free_heat_radial(1, y - self.m, self.b)
        if self.kind == "gaussian_slope":
            return y / (2.0 * self.b) * free_heat_radial(1, y, self.b)
        if self.kind == "indicator":
            return ((y >= self.lo) & (y <= self.hi)).astype(float)
        raise UnsupportedDataError("power_cutoff has no pointwise-profile form")

    def support_cut(self, exponent: float) -> float:
        """y beyond which the profile is below exp(-exponent) relatively."""
        if self.kind in ("gaussian", "gaussian_slope"):
            return self.m + 2.0 * np.sqrt(self.b * exponent) + 1.0
        if self.kind == "indicator":
            return self.hi
        return 1.0


@dataclass(frozen=True)
class Interior:
    """Interior data: zero, a constant, or tangential-Gaussian times a
    normal profile."""

    kind: str
    c: float = 1.0
    center: float = 0.0
    a: float = 1.0
    normal: NormalProfile | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "heat_gaussian"):
            raise UnsupportedDataError(f"unknown interior data {self.kind!r}")
        if self.kind == "heat_gaussian":
            if not self.a > 0:
                raise ValueError("tangential parameter a must be positive")
            if self.normal is None:
                raise ValueError("heat_gaussian interior data needs a normal profile")

    @property
    def is_power_cutoff(self) -> bool:
        return self.kind == "heat_gaussian" and self.normal.kind == "power_cutoff"


@dataclass(frozen=True)
class Boundary:
    """Boundary data: zero, constant, tangential Gaussian, or the
    indicator / complement indicator of a centred ball (N = 2 only)."""

    kind: str
    c: float = 1.0
    center: float = 0.0
    a: float = 1.0
    rho: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "heat_gaussian",
                             "indicator", "complement_indicator"):
            raise UnsupportedDataError(f"unknown boundary data {self.kind!r}")
        if self.kind == "heat_gaussian" and not self.a > 0:
            raise ValueError("tangential parameter a must be positive")
        if self.kind in ("indicator", "complement_indicator") and not self.rho > 0:
            raise ValueError("indicator radius must be positive")


@dataclass(frozen=True)
class InitialData:
    interior: Interior = Interior("zero")
    boundary: Boundary = Boundary("zero")

    @staticmethod
    def of(interior: Interior | None = None, boundary: Boundary | None = None):
        return InitialData(interior or Interior("zero"), boundary or Boundary("zero"))


def _check_indicator_dim(dim: int):
    if dim != 2:
        raise UnsupportedDataError("indicator data is available for N = 2 only")


def tan_conv(data, offset, T, dim: int):
    """Closed tangential heat convolution of ``data`` at offset |x'-c'|.

    ``T`` is the Gaussian time argument (array ok); returns the value of
    (heat kernel at time T) * data evaluated at tangential offset
    ``offset`` from the data centre.
    """
    T = np.asarray(T, dtype=float)
    if data.kind == "zero":
        return np.zeros(np.broadcast(offset, T).shape)
    if data.kind == "constant":
        return np.broadcast_to(float(data.c), np.broadcast(offset, T).shape).copy()
    if data.kind == "heat_gaussian":
        return free_heat_radial(dim - 1, offset, T + data.a)
    if data.kind == "indicator":
        _check_indicator_dim(dim)
        return gaussian_interval_mass(offset, -data.rho, data.rho, T)
    if data.kind == "complement_indicator":
        _check_indicator_dim(dim)
        return 1.0 - gaussian_interval_mass(offset, -data.rho, data.rho, T)
    raise UnsupportedDataError(f"no tangential convolution for {data.kind!r}")


def boundary_value(psi: Boundary, offset, dim: int):
    """Pointwise value of boundary data at tangential offset from its centre."""
    off = np.asarray(offset, dtype=float)
    if psi.kind == "zero":
        return np.zeros_like(off)
    if psi.kind == "constant":
        return np.full_like(off, float(psi.c))
    if psi.kind == "heat_gaussian":
        return free_heat_radial(dim - 1, off, psi.a)
    if psi.kind == "indicator":
        _check_indicator_dim(dim)
        return (np.abs(off) <= psi.rho).astype(float)
    if psi.kind == "complement_indicator":
        _check_indicator_dim(dim)
        return (np.abs(off) > psi.rho).astype(float)
    raise UnsupportedDataError(psi.kind)


def interior_value(phi: Interior, offset, xn, dim: int):
    """Pointwise value of interior data."""
    off = np.asarray(offset, dtype=float)
    xn = np.asarray(xn, dtype=float)
    if phi.kind == "zero":
        return np.zeros(np.broadcast(off, xn).shape)
    if phi.kind == "constant":
        return np.full(np.broadcast(off, xn).shape, float(phi.c))
    if phi.is_power_cutoff:
        rr = off * off + xn * xn
        inside = rr < 1.0
        with np.errstate(divide="ignore"):
            out = np.where(inside, rr ** (-phi.normal.alpha / 2.0), 0.0)
        return free_heat_radial(dim - 1, off, phi.a) * out
    return free_heat_radial(dim - 1, off, phi.a) * phi.normal.value(xn)
