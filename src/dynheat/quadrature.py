"""Adaptive Gauss-Kronrod quadrature with certified error estimates.

The integrators below are deliberately self-contained: panel ordering,
subdivision choices and final accumulation are all deterministic, so two
calls with identical inputs return bit-identical results.  Integrands are
called with a 1-D numpy array of nodes and may return either a matching
1-D array (scalar integrand) or a 2-D array ``(nodes, m)`` for ``m``
integrands sharing one subdivision tree (the panel error is then the
worst component).

Every panel runs QUADPACK's qk21 rule: 10-point Gauss and its 21-point
Kronrod extension, exact for polynomials of degree 19 and 31.  Each panel
is one integrand call on its 21 nodes and one ``_eval_panel``, so an
integral over ``k`` seed segments with ``n`` bisections makes ``k + 2 n``
integrand calls; the benchmark tracer asserts that count, so evaluating
several panels per call waits for a tracer that counts panels another
way.

A single-range integral starts from the two halves of its range
(``_halves``), since almost every root panel would be bisected and its
21 nodes thrown away.  Where the root would be bisected the result keeps
its bits; ``subdivisions_used`` and ``max_subdivisions`` count the
bisections after those two seed panels, and an integral that would
converge on one panel costs two.

Iterated integrals all go through ``integrate_nested`` and share one
error rule: the error of the outer integral is its own estimate plus the
outer K21 rule's integral of the absolute inner errors over its final
panels, the errors taking the same map and Jacobian as the values (the
global sum over final panels of QUADPACK, Piessens et al. 1983).  The
outer rule runs on [a, b] itself; on [a, inf) on u in (0, 1] with
x = a + (1 - u)/u and Jacobian 1/u^2; with a ``width`` w on v in
[0, asinh((b - a)/w)] with x = a + w sinh(v) and Jacobian w cosh(v),
which puts the nodes of a Gaussian tail of width w near a instead of
spreading them over its reach.  The K21 weights are positive, so this is
the outer rule's own estimate of the error the inner estimates carry
into its sum.  A panel that a later bisection replaced adds nothing, so
the carried error depends on the final panels only, not on the
bisection history.

Weighted sums of terms all go through ``add_terms`` and share one rule:
each term's value and error are divided by the same divisor, the
subdivisions add, and ``converged`` is the AND of the terms.
"""

from __future__ import annotations

import bisect
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


# 21-point Kronrod extension of 10-point Gauss (nodes on [-1, 1]), the
# constants of QUADPACK's qk21 (Piessens et al. 1983).
_XGK = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
# Gauss weights of the nodes _XGK[1], _XGK[3], ..., _XGK[9]
_WG = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])

# Ascending node layout: -x0..-x9, 0, x9..x0; the Gauss nodes sit at the
# odd indices, and the middle node 0 is a Kronrod node only.
_NODES = np.concatenate([-_XGK[:10], [0.0], _XGK[9::-1]])
_WK = np.concatenate([_WGK[:10], [_WGK[10]], _WGK[9::-1]])
_WGFULL = np.zeros(21)
_WGFULL[1:20:2] = np.concatenate([_WG, _WG[::-1]])

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
    """One G10/K21 panel; returns (value, err, resabs) per component."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _NODES), dtype=float)
    if fx.ndim == 0:
        fx = np.full(_NODES.size, float(fx))
    if fx.ndim == 1:
        fx = fx[:, None]
    if fx.shape[0] != _NODES.size:
        raise ValueError("integrand must return one value per node")
    # The K21 weights are positive, so resabs is NaN or inf where a column
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
    # QUADPACK-style sharpening of the raw K21-G10 difference, then a floor
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


def _seeds(a, b):
    """``_halves(a, b)`` of a finite range with a < b, ValueError otherwise."""
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("integrate needs finite endpoints")
    if not a < b:
        raise ValueError("integrate needs a < b")
    return _halves(a, b)


def integrate(f, a: float, b: float, spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Integrate ``f`` over the finite interval [a, b]."""
    return _finalize(*_adaptive(f, _seeds(a, b), spec))


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

    return _finalize(*_adaptive(mapped, _halves(0.0, 1.0), spec))


def _final_panel_sum(records):
    """Sum of the per-panel terms of ``records``, (midpoint, half-width,
    term) in call order, over the panels that no later call bisected.  A
    bisected panel's two halves have their midpoints half its half-width
    from its own, and every other later panel lies outside it, so the test
    is a later midpoint within three quarters of the half-width."""
    total = 0.0
    later = []  # sorted midpoints of the calls after the current one
    for mid, half, term in reversed(records):
        k = bisect.bisect_right(later, mid - 0.75 * half)
        if k == len(later) or later[k] >= mid + 0.75 * half:
            total = total + term
        bisect.insort(later, mid)
    return total


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
    if semi:
        if not np.isfinite(a):
            raise ValueError("lower endpoint must be finite")
        seeds = _halves(0.0, 1.0)
    elif width is None:
        seeds = _seeds(a, b)
    else:
        seeds = _seeds(0.0, math.asinh((b - a) / width))
    records = []  # (midpoint, half-width, K21 sum of the mapped inner errors)
    inner_ok = True
    inner_sub = 0

    def outer(u):
        nonlocal inner_ok, inner_sub
        if semi:  # x = a + (1 - u)/u, Jacobian 1/u^2
            x, jac = a + (1.0 - u) / u, 1.0 / (u * u)
        elif width is not None:  # u holds v; the Jacobian is width cosh(v)
            x, jac = a + width * np.sinh(u), width * np.cosh(u)
        else:
            x, jac = u, None
        v, e, nsub, converged = inner(x)
        v = np.asarray(v, dtype=float)
        e = np.abs(np.asarray(e, dtype=float))
        if jac is not None:
            jac = jac.reshape((-1,) + (1,) * (v.ndim - 1))
            v, e = v * jac, e * jac
        half = (u[-1] - u[0]) / (2.0 * _XGK[0])
        records.append((u[u.size // 2], half, half * (_WK @ e)))
        inner_ok = inner_ok and converged
        inner_sub += nsub
        return v

    outer_res = _finalize(*_adaptive(outer, seeds, spec))
    error = np.reshape(outer_res.error_estimate + _final_panel_sum(records),
                       np.shape(outer_res.value))
    return QuadResult(outer_res.value, error if error.ndim else float(error),
                      outer_res.subdivisions_used + inner_sub,
                      outer_res.converged and inner_ok)


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
