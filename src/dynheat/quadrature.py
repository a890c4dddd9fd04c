"""Adaptive Gauss-Kronrod quadrature with certified error estimates.

The integrators below are deliberately self-contained: panel ordering,
subdivision choices and final accumulation are all deterministic, so two
calls with identical inputs return bit-identical results.  Integrands are
called with a 1-D numpy array of nodes and may return either a matching
1-D array (scalar integrand) or a 2-D array ``(nodes, m)`` for ``m``
integrands sharing one subdivision tree (the panel error is then the
worst component).

Every panel runs QUADPACK's qk31 rule: 15-point Gauss and its 31-point
Kronrod extension, exact for polynomials of degree 29 and 46.  Each panel
is one integrand call on its 31 nodes and one ``_eval_panel``, so an
integral over ``k`` seed segments with ``n`` bisections makes ``k + 2 n``
integrand calls; the benchmark tracer asserts that count, so evaluating
several panels per call waits for a tracer that counts panels another
way.

A single-range integral starts from the two halves of its range
(``_halves``): on the benchmark's traced passes a root seed took ``mass``
from 4,050 to 5,456 panels and ``rates`` from 2,808 to 4,185, and
``pointwise`` from 11,308 to 10,722, as 55% of its roots converge (the
README has the times).  Where the root would be bisected the result
keeps its bits; ``subdivisions_used`` and ``max_subdivisions`` count the
bisections after those two seed panels, and an integral that would
converge on one panel costs two.

Every range goes through ``_range`` and keeps one rule: ``a`` finite,
``b`` finite and above ``a`` or +inf, and a ``width`` on a finite ``b``
only; anything else, NaN and b = -inf included, is a ValueError.  The
rule runs on [a, b] itself; on [a, inf) on u in (0, 1] with
x = a + (1 - u)/u and Jacobian 1/u^2 (integrands must then decay faster
than any power); with a ``width`` w (``integrate_nested`` only) on v in
[0, asinh((b - a)/w)] with x = a + w sinh(v) and Jacobian w cosh(v),
which puts the nodes of a Gaussian tail of width w near a instead of
spreading them over its reach (a ``rates`` pass: 2,808 panels, 2,992 without).

Iterated integrals all go through ``integrate_nested`` and share one
error rule: the error of the outer integral is its own estimate plus the
outer K31 rule's integral of the absolute inner errors over its final
panels, the errors taking the same map and Jacobian as the values (the
global sum over final panels of QUADPACK, Piessens et al. 1983).  The
K31 weights are positive, so this is the outer rule's own estimate of
the error the inner estimates carry into its sum.  A panel that a later
bisection replaced adds nothing, so the carried error depends on the
final panels only, not on the bisection history.

Weighted sums of terms all go through ``add_terms`` and share one rule:
each term's value and error are divided by the same divisor, the
subdivisions add, and ``converged`` is the AND of the terms.

``tally()`` yields a ``Tally`` that counts each ``_adaptive`` integral,
at any depth, that ends unconverged while it is open; a ``ContextVar``
holds the open tallies, so no signature carries them.
"""

from __future__ import annotations

import bisect
import math
import numbers
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadSpec",
    "QuadResult",
    "EvaluationError",
    "integrate",
    "integrate_nested",
    "tally",
]


class EvaluationError(RuntimeError):
    """Integrand returned NaN or an infinity inside a panel."""


# 31-point Kronrod extension of 15-point Gauss (nodes on [-1, 1]), the
# constants of QUADPACK's qk31 (Piessens et al. 1983).
_XGK = np.array([
    0.998002298693397060285172840152271,
    0.987992518020485428489565718586613,
    0.967739075679139134257347978784337,
    0.937273392400705904307758947710209,
    0.897264532344081900882509656454496,
    0.848206583410427216200648320774217,
    0.790418501442465932967649294817947,
    0.724417731360170047416186054613938,
    0.650996741297416970533735895313275,
    0.570972172608538847537226737253911,
    0.485081863640239680693655740232351,
    0.394151347077563369897207370981045,
    0.299180007153168812166780024266389,
    0.201194093997434522300628303394596,
    0.101142066918717499027074231447392,
    0.0,
])
_WGK = np.array([
    0.005377479872923348987792051430128,
    0.015007947329316122538374763075807,
    0.025460847326715320186874001019653,
    0.035346360791375846222037948478360,
    0.044589751324764876608227299373280,
    0.053481524690928087265343147239430,
    0.062009567800670640285139230960803,
    0.069854121318728258709520077099147,
    0.076849680757720378894432777482659,
    0.083080502823133021038289247286104,
    0.088564443056211770647275443693774,
    0.093126598170825321225486872747346,
    0.096642726983623678505179907627589,
    0.099173598721791959332393173484603,
    0.100769845523875595044946662617570,
    0.101330007014791549017374792767493,
])
# Gauss weights of the nodes _XGK[1], _XGK[3], ..., _XGK[13] and of the
# middle node 0
_WG = np.array([
    0.030753241996117268354628393577204,
    0.070366047488108124709267416450667,
    0.107159220467171935011869546685869,
    0.139570677926154314447804794511028,
    0.166269205816993933553200860481209,
    0.186161000015562211026800561866423,
    0.198431485327111576456118326443839,
    0.202578241925561272880620199967519,
])

# Ascending node layout: -x0..-x14, 0, x14..x0; the Gauss nodes, the
# middle node 0 among them, sit at the odd indices.
_NODES = np.concatenate([-_XGK[:15], _XGK[15::-1]])
_WK = np.concatenate([_WGK[:15], _WGK[15::-1]])
_WGFULL = np.zeros(31)
_WGFULL[1:30:2] = np.concatenate([_WG, _WG[6::-1]])

_EPS = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny
# QUADPACK's error floor 50 eps resabs, applied where resabs is above
# _UFLOW / (50 eps)
_FLOOR = 50.0 * _EPS
_FLOOR_FROM = _UFLOW / _FLOOR


_ARRAYS = (list, tuple, np.ndarray)
_MAX = math.nextafter(math.inf, 0.0)  # the largest float


def _span(value):
    """(value, least entry, greatest entry) for ``_finite`` and ``_positive``,
    the range rule of every layer: a list, tuple or ndarray as a float array,
    anything else as one number, compared and returned as given.  Each test
    is written so that NaN, or an int beyond float range, fails it."""
    if not isinstance(value, _ARRAYS):
        return value, value, value
    try:
        value = np.asarray(value, dtype=float)
    except OverflowError:  # an int beyond float range
        return value, math.nan, math.nan
    return (value, np.minimum.reduce(value, axis=None, initial=np.inf),
            np.maximum.reduce(value, axis=None, initial=-np.inf))


def _finite(value, name):
    """``value`` if it is finite, ValueError for NaN and infinities."""
    value, lo, hi = _span(value)
    if not (-_MAX <= lo and hi <= _MAX):
        raise ValueError(f"{name} must be finite")
    return value


def _positive(value, name="time", zero=False):
    """``value`` if it is finite and > 0 (>= 0 when ``zero``), ValueError
    otherwise; times, scales and tolerances all pass this rule."""
    value, lo, hi = _span(value)
    if not ((0.0 <= lo if zero else 0.0 < lo) and hi <= _MAX):
        raise ValueError(f"{name} must be finite and " + ("nonnegative" if zero else "positive"))
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
        _positive(self.rel_tol, "rel_tol")
        _positive(self.abs_tol, "abs_tol")
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


@dataclass
class Tally:
    unconverged: int = 0  # integrals that ended unconverged in the scope


_TALLIES: ContextVar[tuple] = ContextVar("dynheat_tallies", default=())


@contextmanager
def tally():
    """Open a scope and yield its ``Tally``; an integral counts in every open tally."""
    run = Tally()
    token = _TALLIES.set(_TALLIES.get() + (run,))
    try:
        yield run
    finally:
        _TALLIES.reset(token)


def _eval_panel(f, a, b):
    """One G15/K31 panel; returns (value, err, resabs) per component."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _NODES), dtype=float)
    if fx.ndim == 1:
        fx = fx[:, None]
    if fx.ndim != 2 or fx.shape[0] != _NODES.size:
        raise ValueError("integrand must return one value per node")
    # The K31 weights are positive, so resabs is NaN or inf where a column
    # of fx holds a NaN or an infinity (or sums past the float range), and
    # so is its sum (0 for an empty batch).  Checked before the Gauss
    # matvec, whose zero weights turn an inf into a NaN.
    dev = np.abs(fx)
    abs_half = abs(half)
    resabs = abs_half * (_WK @ dev)
    if not math.isfinite(np.add.reduce(resabs)):
        raise EvaluationError(f"integrand returned NaN or inf on panel [{a}, {b}]")
    lo = np.minimum.reduce(resabs, initial=np.inf)
    sk = _WK @ fx
    sg = _WGFULL @ fx
    value = half * sk
    mean = 0.5 * sk
    np.subtract(fx, mean, out=dev)
    resasc = abs_half * (_WK @ np.abs(dev, out=dev))
    err = np.abs(half * (sk - sg))
    # QUADPACK-style sharpening of the raw K31-G15 difference, then a floor
    # of 50 eps resabs where resabs is above underflow.  With every resasc
    # positive and every resabs above underflow both masks below are all
    # true (a zero err sharpens to the same +0.0), so they are skipped.
    if lo > _FLOOR_FROM and np.minimum.reduce(resasc, initial=np.inf) > 0.0:
        err = resasc * np.minimum(1.0, (200.0 * err / resasc)**1.5)
        return value, np.maximum(err, _FLOOR * resabs), resabs
    mask = (resasc != 0.0) & (err != 0.0)
    scaled = np.ones_like(err)
    np.divide(200.0 * err, resasc, out=scaled, where=mask)
    err = np.where(mask, resasc * np.minimum(1.0, scaled**1.5), err)
    floor = _FLOOR * resabs
    err = np.where(resabs > _FLOOR_FROM, np.maximum(err, floor), err)
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
    # the seed panels' sum, left to right (one addition for two halves)
    total_v = sum(vals[1:], vals[0])
    total_e = sum(errs[1:], errs[0])
    nsub = 0
    while True:
        thresh = np.abs(total_v)
        thresh *= spec.rel_tol
        np.maximum(thresh, spec.abs_tol, out=thresh)
        if (total_e <= thresh).all():
            converged = True
            break
        if nsub >= spec.max_subdivisions:
            converged = False
            break
        # Worst panel first; np.argmax takes the lowest index on ties.
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
    if not converged:
        for run in _TALLIES.get():
            run.unconverged += 1
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


def _range(a, b, width=None):
    """(seeds, to_x) of [a, b] under the module's range rule, ValueError
    outside it; ``to_x(u)`` gives the (x, Jacobian) of the rule's nodes
    u, and is None on the identity map."""
    if not math.isfinite(a):
        raise ValueError("lower endpoint must be finite")
    if width is not None:
        if b == math.inf or not (math.isfinite(width) and width > 0):
            raise ValueError("width must be finite and positive, on a finite range")
        lo, hi = 0.0, math.asinh((b - a) / width)

        def to_x(u):  # u holds v; x = a + width sinh(v)
            return a + width * np.sinh(u), width * np.cosh(u)
    elif b == math.inf:
        lo, hi = 0.0, 1.0

        def to_x(u):  # x = a + (1 - u)/u
            return a + (1.0 - u) / u, 1.0 / (u * u)
    else:
        lo, hi, to_x = a, b, None
    if not lo < hi < math.inf:
        raise ValueError("need a finite a and a b above it, finite or +inf")
    return _halves(lo, hi), to_x


def integrate(f, a: float, b: float, spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Integrate ``f`` over [a, b], ``b`` finite or ``np.inf`` (the
    module's range rule)."""
    seeds, to_x = _range(a, b)
    if to_x is None:
        return _finalize(*_adaptive(f, seeds, spec))

    def mapped(u):
        x, w = to_x(u)
        fx = np.asarray(f(x), dtype=float)
        return fx * w[:, None] if fx.ndim == 2 else fx * w

    return _finalize(*_adaptive(mapped, seeds, spec))


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
    seeds, to_x = _range(a, b, width)
    records = []  # (midpoint, half-width, K31 sum of the mapped inner errors)
    inner_ok = True
    inner_sub = 0

    def outer(u):
        nonlocal inner_ok, inner_sub
        x, jac = (u, None) if to_x is None else to_x(u)
        v, e, nsub, converged = inner(x)
        v = np.asarray(v, dtype=float)
        e = np.abs(np.asarray(e, dtype=float))
        if jac is not None:
            jac = jac.reshape((-1,) + (1,) * (v.ndim - 1))
            v, e = v * jac, e * jac
        # the panel's half-width, from its outermost nodes +-_NODES[-1]
        half = (u[-1] - u[0]) / (2.0 * _NODES[-1])
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
