"""Adaptive Gauss-Kronrod quadrature with certified error estimates.

The integrators below are deliberately self-contained: panel ordering,
subdivision choices and final accumulation are all deterministic, so two
calls with identical inputs return bit-identical results.  Integrands are
called with a 1-D numpy array of nodes and may return either a matching
1-D array (scalar integrand) or a 2-D array ``(nodes, m)`` for ``m``
integrands sharing one subdivision tree (the panel error is then the
worst component).

Each panel is one integrand call on its 15 nodes and one ``_eval_panel``,
so an integral over ``k`` seed segments with ``n`` bisections makes
``k + 2 n`` integrand calls; the benchmark tracer asserts that count, so
evaluating several panels per call waits for a tracer that counts panels
another way.

A single-range integral starts from the two halves of its range
(``_halves``), since almost every root panel would be bisected and its
15 nodes thrown away.  Where the root would be bisected the result keeps
its bits; ``subdivisions_used`` and ``max_subdivisions`` count the
bisections after those two seed panels, and an integral that would
converge on one panel costs two.

Iterated integrals all go through ``integrate_nested`` and share one
error rule: the error of the outer integral is its own estimate plus the
length of the range the outer rule runs on times the largest absolute
inner error at any outer node, the errors taking the same map and
Jacobian as the values.  On [a, b] that range is [a, b] itself; on
[a, inf) it is u in (0, 1] with Jacobian 1/u^2; with a ``width`` w it is
v in [0, asinh((b - a)/w)] with x = a + w sinh(v) and Jacobian
w cosh(v), which puts the nodes of a Gaussian tail of width w near a
instead of spreading them over its reach.  The K15 weights are positive
and sum to the range's length, so this bounds the error the inner
estimates carry into the outer sum.

Weighted sums of terms all go through ``add_terms`` and share one rule:
each term's value and error are divided by the same divisor, the
subdivisions add, and ``converged`` is the AND of the terms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadSpec",
    "QuadResult",
    "EvaluationError",
    "integrate",
    "integrate_semi_infinite",
    "integrate_nested",
]


class EvaluationError(RuntimeError):
    """Integrand returned NaN or an infinity inside a panel."""


# 15-point Kronrod extension of 7-point Gauss (nodes on [-1, 1]).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Ascending node layout: -x0..-x6, 0, x6..x0.
_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_WK = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_WGFULL = np.zeros(15)
_WGFULL[1:14:2] = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])

_EPS = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny


def _finite(value, name):
    """``value`` if it is a finite real number, ValueError for NaN and
    infinities (NaN fails every comparison, so a range check alone lets
    it through)."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return value


def _count(value, name):
    """``value`` if it is an integer (numpy integers included, bool not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer")
    return value


@dataclass(frozen=True)
class QuadSpec:
    """Tolerance contract for one integral."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if _finite(self.rel_tol, "rel_tol") <= 0 or _finite(self.abs_tol, "abs_tol") <= 0:
            raise ValueError("tolerances must be positive")
        if _count(self.max_subdivisions, "max_subdivisions") < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_SPEC = QuadSpec()

# Exponent budget L of truncated integrals: exp(-L) tails fall below 1e-14,
# and the margin of 40 absorbs polynomially growing prefactors.
TAIL_EXPONENT = -np.log(1e-14) + 40.0


@dataclass
class QuadResult:
    """Certified value of an integral.

    ``value`` is a float for scalar integrands and an ndarray for
    vector-valued ones; ``error_estimate`` matches its shape.
    """

    value: float
    error_estimate: float
    subdivisions_used: int
    converged: bool

    def tolerance(self, spec: QuadSpec) -> float:
        return max(spec.abs_tol, spec.rel_tol * abs(self.value))

    def __iter__(self):  # unpacks like the tuple of the adaptive core
        return iter((self.value, self.error_estimate, self.subdivisions_used,
                     self.converged))


def _eval_panel(f, a, b):
    """One G7/K15 panel; returns (value, err, resabs) per component."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _NODES), dtype=float)
    if fx.ndim == 0:
        fx = np.full(15, float(fx))
    if fx.ndim == 1:
        fx = fx[:, None]
    if fx.shape[0] != 15:
        raise ValueError("integrand must return one value per node")
    # The K15 weights are positive, so resabs is NaN or inf where a column
    # of fx holds a NaN or an infinity (or sums past the float range), and
    # so is its sum (0 for an empty batch).  Checked before the Gauss
    # matvec, whose zero weights turn an inf into a NaN.
    dev = np.abs(fx)
    resabs = abs(half) * (_WK @ dev)
    if not math.isfinite(np.add.reduce(resabs)):
        raise EvaluationError(f"integrand returned NaN or inf on panel [{a}, {b}]")
    lo = np.minimum.reduce(resabs, initial=np.inf)
    sk = _WK @ fx
    sg = _WGFULL @ fx
    value = half * sk
    mean = 0.5 * sk
    np.subtract(fx, mean, out=dev)
    resasc = abs(half) * (_WK @ np.abs(dev, out=dev))
    err = np.abs(half * (sk - sg))
    # QUADPACK-style sharpening of the raw K15-G7 difference, then a floor
    # of 50 eps resabs where resabs is above underflow.  With every resasc
    # positive and every resabs above underflow both masks below are all
    # true (a zero err sharpens to the same +0.0), so they are skipped.
    if lo > _UFLOW / (50.0 * _EPS) and np.minimum.reduce(resasc, initial=np.inf) > 0.0:
        err = resasc * np.minimum(1.0, (200.0 * err / resasc)**1.5)
        return value, np.maximum(err, 50.0 * _EPS * resabs), resabs
    mask = (resasc != 0.0) & (err != 0.0)
    scaled = np.ones_like(err)
    np.divide(200.0 * err, resasc, out=scaled, where=mask)
    err = np.where(mask, resasc * np.minimum(1.0, scaled**1.5), err)
    floor = 50.0 * _EPS * resabs
    err = np.where(resabs > _UFLOW / (50.0 * _EPS), np.maximum(err, floor), err)
    return value, err, resabs


def _adaptive(f, segments, spec: QuadSpec):
    """Adaptive bisection over the initial ``segments`` list.

    Returns (value, error, nsub, converged) with per-component arrays.
    """
    lefts, rights, vals, errs = [], [], [], []
    # largest component error of each panel, in panel order; the buffer
    # doubles when full
    worst_err = np.empty(len(segments) + 16)
    for i, (a, b) in enumerate(segments):
        v, e, _ = _eval_panel(f, a, b)
        lefts.append(a)
        rights.append(b)
        vals.append(v)
        errs.append(e)
        worst_err[i] = np.maximum.reduce(e, initial=-np.inf)
    total_v = np.sum(vals, axis=0)
    total_e = np.sum(errs, axis=0)
    nsub = 0
    while True:
        thresh = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total_v))
        if (total_e <= thresh).all():
            converged = True
            break
        if nsub >= spec.max_subdivisions:
            converged = False
            break
        # Worst panel first; np.argmax takes the lowest index on ties and
        # the first NaN.
        n = len(errs)
        worst = int(worst_err[:n].argmax())
        a, b = lefts[worst], rights[worst]
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            converged = False  # panel no longer bisectable in float
            break
        v1, e1, _ = _eval_panel(f, a, m)
        v2, e2, _ = _eval_panel(f, m, b)
        total_v = total_v - vals[worst] + v1 + v2
        total_e = total_e - errs[worst] + e1 + e2
        lefts[worst], rights[worst], vals[worst], errs[worst] = a, m, v1, e1
        lefts.append(m)
        rights.append(b)
        vals.append(v2)
        errs.append(e2)
        if n == worst_err.size:
            worst_err = np.concatenate([worst_err, worst_err])
        worst_err[worst] = np.maximum.reduce(e1, initial=-np.inf)
        worst_err[n] = np.maximum.reduce(e2, initial=-np.inf)
        nsub += 1
    # Canonical accumulation: sum panels sorted by left endpoint so the
    # result does not depend on the subdivision history.
    order = np.argsort(np.asarray(lefts), kind="stable")
    value = np.add.reduce([vals[i] for i in order])
    error = np.add.reduce([errs[i] for i in order])
    return value, error, nsub, converged


def _halves(a, b):
    """Seed list of a single-range integral: the two halves of [a, b], or
    [a, b] itself when its midpoint is not strictly inside in float."""
    m = 0.5 * (a + b)
    if a < m < b:
        return [(a, m), (m, b)]
    return [(a, b)]


def _finalize(value, error, nsub, converged) -> QuadResult:
    if value.shape[-1] == 1 and value.ndim == 1:
        return QuadResult(float(value[0]), float(error[0]), nsub, converged)
    return QuadResult(value, error, nsub, converged)


def integrate(f, a: float, b: float, spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Integrate ``f`` over the finite interval [a, b]."""
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("integrate needs finite endpoints")
    if not a < b:
        raise ValueError("integrate needs a < b")
    value, error, nsub, converged = _adaptive(f, _halves(a, b), spec)
    return _finalize(value, error, nsub, converged)


def integrate_semi_infinite(f, a: float, spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Integrate ``f`` over [a, infinity).

    The interval is mapped onto (0, 1] via u = 1/(1 + (x - a)); integrands
    must decay faster than any power.
    """
    if not np.isfinite(a):
        raise ValueError("lower endpoint must be finite")

    def mapped(u):
        x = a + (1.0 - u) / u
        fx = np.asarray(f(x), dtype=float)
        w = 1.0 / (u * u)
        return fx * w[:, None] if fx.ndim == 2 else fx * w

    value, error, nsub, converged = _adaptive(mapped, _halves(0.0, 1.0), spec)
    return _finalize(value, error, nsub, converged)


def integrate_nested(inner, a: float, b: float,
                     spec: QuadSpec = DEFAULT_SPEC, *,
                     width: float | None = None) -> QuadResult:
    """Outer integral over [a, b] (``b`` may be ``np.inf``) of an inner
    quadrature run at each batch of outer nodes.

    ``inner(nodes)`` returns ``(values, errors, subdivisions, converged)``
    (or a QuadResult) with a leading node axis; values and errors already
    carry the caller's weights.  The outer rule sees the values only.
    Errors compose by the module's rule; ``converged`` needs the outer and
    every inner integral, and ``subdivisions_used`` counts all of them.

    ``width`` (finite ``b`` only) is the scale of an integrand that lives
    near ``a``: the outer rule then runs in v on [0, asinh((b - a)/width)]
    with x = a + width sinh(v), so its nodes crowd where the integrand is.
    """
    semi = np.isinf(b)
    if width is not None and (semi or not (math.isfinite(width) and width > 0)):
        raise ValueError("width must be finite and positive, on a finite range")
    inner_sup = 0.0
    inner_ok = True
    inner_sub = 0

    def values(x):
        nonlocal inner_sup, inner_ok, inner_sub
        if width is not None:  # x holds v; the Jacobian is width cosh(v)
            jac = width * np.cosh(x)
            x = a + width * np.sinh(x)
        v, e, nsub, converged = inner(x)
        e = np.abs(np.asarray(e, dtype=float))
        column = (-1,) + (1,) * (e.ndim - 1)
        if semi:  # 1/u^2 at u = 1/(1 + (x - a))
            e = e * ((1.0 + (x - a)) ** 2).reshape(column)
        elif width is not None:
            jac = jac.reshape(column)
            v, e = np.asarray(v, dtype=float) * jac, e * jac
        inner_sup = np.maximum(inner_sup, e.max(axis=0))
        inner_ok = inner_ok and converged
        inner_sub += nsub
        return v

    if semi:
        outer = integrate_semi_infinite(values, a, spec)
        length = 1.0
    elif width is None:
        outer = integrate(values, a, b, spec)
        length = b - a
    else:
        length = math.asinh((b - a) / width)
        outer = integrate(values, 0.0, length, spec)
    error = np.reshape(outer.error_estimate + length * inner_sup, np.shape(outer.value))
    return QuadResult(outer.value, error if error.ndim else float(error),
                      outer.subdivisions_used + inner_sub,
                      outer.converged and inner_ok)


def add_terms(first, *weighted):
    """Sum ``first`` and the (term, divisor) pairs of ``weighted``.

    Terms are ``(values, errors, subdivisions, converged)`` tuples or
    QuadResults.  Values and errors take the same divisor, subdivisions
    add and ``converged`` is the AND of the terms; returns the same 4-tuple.
    """
    u, err, nsub, conv = first
    for (vals, errs, ns, cv), divisor in weighted:
        u = u + vals / divisor
        err = err + errs / divisor
        nsub += ns
        conv = conv and cv
    return u, err, nsub, conv
