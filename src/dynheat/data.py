"""Admissible initial data and its closed tangential convolutions.

The data family is closed under tangential heat convolution: constants
pass through, tangential Gaussians add variances, and interval
indicators (available for N = 2 only) convolve to erf differences.
Every solution integral in :mod:`dynheat.solutions` therefore needs
numerical quadrature only in the normal and time variables.

``tan_conv`` is the one evaluator of a datum's tangential part, at every
time T >= 0; at T = 0 it gives the data itself, so the boundary data at
the wall, the finite-difference start and ``interior_value`` read it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import free_heat_radial, gaussian_interval_mass
from .quadrature import _finite, _positive

__all__ = [
    "NormalProfile",
    "Interior",
    "Boundary",
    "InitialData",
    "UnsupportedDataError",
    "tan_conv",
    "interior_value",
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
    the unit half-ball, finite alpha < 2; N = 2 only, handled by a
    dedicated quadrature path).
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
        # |y|^(-alpha) is integrable on the unit half-disc for alpha < 2 only
        if self.kind == "power_cutoff" and not -np.inf < self.alpha < 2.0:
            raise ValueError("power_cutoff profile needs a finite alpha < 2")
        for name in ("m", "hi", "alpha"):
            _finite(getattr(self, name), name)
        _positive(self.b, "b")
        _positive(self.lo, "lo", zero=True)  # a normal coordinate, as hi
        if self.kind == "indicator" and not self.lo < self.hi:
            raise ValueError("indicator profile needs lo < hi")

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
        if self.kind in ("gaussian", "gaussian_slope"):  # gaussian alone reads m
            m = self.m if self.kind == "gaussian" else 0.0
            return m + 2.0 * np.sqrt(self.b * exponent) + 1.0
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
        _finite(self.c, "c")
        _finite(self.center, "center")
        _positive(self.a, "a")
        if self.kind == "heat_gaussian" and self.normal is None:
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
        _finite(self.c, "c")
        _finite(self.center, "center")
        _positive(self.a, "a")
        _positive(self.rho, "rho")


@dataclass(frozen=True)
class InitialData:
    interior: Interior = Interior("zero")
    boundary: Boundary = Boundary("zero")


def tan_conv(data, offset, T, dim: int):
    """Closed tangential heat convolution of ``data`` at offset |x'-c'|.

    ``T`` >= 0 is the Gaussian time argument (array ok); returns the value
    of (heat kernel at time T) * data at tangential offset ``offset`` from
    the data centre.  A T that is exactly 0 in every entry gives the data
    itself: for the indicators the indicator, without erf.
    """
    T = np.asarray(T, dtype=float)
    shape = np.broadcast(offset, T).shape
    if data.kind == "zero":
        return np.zeros(shape)
    if data.kind == "constant":
        return np.full(shape, float(data.c))
    if data.kind == "heat_gaussian":
        return free_heat_radial(dim - 1, offset, T + data.a)
    if data.kind in ("indicator", "complement_indicator"):
        if dim != 2:
            raise UnsupportedDataError("indicator data is available for N = 2 only")
        inside = (gaussian_interval_mass(offset, -data.rho, data.rho, T) if T.any()
                  else np.broadcast_to(np.abs(offset) <= data.rho, shape).astype(float))
        return inside if data.kind == "indicator" else 1.0 - inside
    raise UnsupportedDataError(f"no tangential convolution for {data.kind!r}")


def interior_value(phi: Interior, offset, xn, dim: int):
    """Pointwise value of interior data: its tangential part (``tan_conv``
    at T = 0) times its normal profile."""
    xn = np.asarray(xn, dtype=float)
    tang = tan_conv(phi, offset, 0.0, dim)
    if phi.kind != "heat_gaussian":  # constant in the normal direction
        return tang * np.ones_like(xn)
    if phi.is_power_cutoff:
        off = np.asarray(offset, dtype=float)
        rr = off * off + xn * xn
        with np.errstate(divide="ignore"):
            return tang * np.where(rr < 1.0, rr ** (-phi.normal.alpha / 2.0), 0.0)
    return tang * phi.normal.value(xn)
