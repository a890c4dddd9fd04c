"""Kernels of the dynamical-boundary problems and their sharp envelopes.

The bulk-boundary exchange kernel is a time integral whose integrand
develops a Gaussian boundary layer at the upper endpoint.  It is
evaluated in one exact parametrisation, the stabilising change of
variables xi = sqrt(t / (t - tau)) * (x_N + y_N + tau / delta) = s + eta,
under which the exponential factor becomes a plain Gaussian
exp(-eps xi^2 / 4t) and the remaining factors stay smooth and bounded.
The inverse map is closed form: with z = x_N + y_N + t/delta,
sqrt(t - tau) = 2 sqrt(t) z / (xi + sqrt(xi^2 + 4 t z / delta)).

The exchange kernel and the three limit batches share one integral,
``_framed``, and state only their closed forms and a per-component sinh
frame.  ``exchange_log_grid`` centres it on the peak of the whole
integrand and shifts by the peak's log-mass (``_frame``), so relative
accuracy holds deep in the Gaussian tails and no factor overflows;
``exchange_weighted``, ``hdn_batch``, ``dirichlet_layer_batch`` and
``gauss_layer_batch`` scale it to the normal Gaussian's width, the
shifted Gaussian's unit width, the near-wall window and the peak of w
times the Gauss layer's integrand.

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
from dataclasses import dataclass, replace

import numpy as np

from .kernels import (
    Params,
    HalfSpacePoint,
    _log_heat,
    exp_flush,
    dirichlet_radial,
    sphere_area,
    tangential_offset,
)
from .quadrature import (
    QuadSpec,
    QuadResult,
    DEFAULT_SPEC,
    _adaptive,
    _finalize,
    _halves,
    _positive,
    add_terms,
    integrate_nested,
    TAIL_EXPONENT,
)

__all__ = [
    "Envelope",
    "SingularConfigurationError",
    "exchange_kernel",
    "fundamental_kernel",
    "dirichlet_layer_kernel",
    "laplace_dynamic_kernel",
    "heat_neumann_kernel",
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

class SingularConfigurationError(ValueError):
    """Kernel evaluated where it degenerates to a boundary point mass."""


# ---------------------------------------------------------------------------
# exchange kernel core
# ---------------------------------------------------------------------------

def _xi_map(eps, delta, kappa, s, t):
    """``normal(eta)``: the tangential time argument and the log of the
    normal factor of the exchange integrand at xi = s + eta, for the
    components ``s``; ``eta`` broadcasts against ``s[None, :]``.  At
    xi = 0 the log is -inf and numpy warns of a division by zero unless
    the caller has silenced it (the exchange entry points do, once per
    call).

    With z = s + t/delta, q = 2 sqrt(t) z / (xi + sqrt(xi^2 + (4t/delta) z))
    and w = q^2 (the elapsed bulk time t - tau):
    t_tan = w/eps + (kappa/delta)(t - w) and
    log_n = log_pref + log(xi) - log(xi + (2/delta) sqrt(t) q) - eps xi^2/(4t).
    The terms in s and t alone are formed once, when the map is made.
    Each array operation of ``normal`` works in place on a buffer it
    owns; it applies the same operation to the same operands as that
    formula read left to right (a product or sum with its operands
    swapped is the same float), so the values are those of the formula.
    """
    s = s[None, :]
    z = s + t / delta
    z_root = (4.0 * t / delta) * z
    z_num = 2.0 * math.sqrt(t) * z
    log_pref = math.log(2.0 * eps) + 0.5 * (math.log(eps) - math.log(4.0 * math.pi * t))
    w_scale, q_scale, four_t = kappa / delta, (2.0 / delta) * math.sqrt(t), 4.0 * t

    def normal(eta):
        xi = s + eta
        q = xi * xi
        q += z_root
        np.sqrt(q, out=q)
        q += xi
        np.divide(z_num, q, out=q)
        w = q * q
        t_tan = w / eps
        np.subtract(t, w, out=w)
        w *= w_scale
        t_tan += w
        q *= q_scale
        q += xi
        log_n = np.log(xi, out=w)
        log_n -= np.log(q, out=q)
        log_n += log_pref
        np.multiply(xi, eps, out=q)
        q *= xi
        q /= four_t
        log_n -= q
        return t_tan, log_n

    return normal


# Peak-search nodes in units of the normal Gaussian's reach: the coarse
# grid is geometric towards 0 (boundary-layer peaks), uniform on [0, 1]
# and geometric up to 64 (tangential factors that grow with eta); the
# frame's widths are the rungs 8^-17 .. 1 of the reach.
_COARSE = np.unique(np.concatenate([4.0 ** -np.arange(26.0, 2.0, -1.0),
                                    np.linspace(0.0, 1.0, 33), 2.0 ** np.arange(1.0, 7.0)]))
_ZOOM = np.linspace(0.0, 1.0, 17)[:, None]
_RUNGS = 8.0 ** np.arange(-17.0, 1.0)
# components per peak search of ``_frame``
_FRAME_CHUNK = 256


def _frame(p, r, s, t):
    """Per-component (log_mass, centre, scale, eta_hi) of the exchange
    integrand exp(log_n(eta)) times the heat kernel of R^(N-1) at (r, T),
    eta >= 0, taken unimodal.  Its peak is bracketed on ``_COARSE``, then
    the bracket is zoomed (17 nodes, 8x narrower per pass) while the log
    drops by more than 2 from the best node to a neighbour.  The pass that
    ends a component's search sets ``scale``: the distance to that pass's
    nearest node more than 1 below the peak, less 1e-12 of it (a distance
    that rounds onto a rung stays there), rounded up to a rung
    reach * ``_RUNGS``; ``reach`` past the last rung or with no such node.
    ``log_mass`` is log(peak * scale) and ``eta_hi`` the first coarse node
    past the last one within exp(-TAIL_EXPONENT) of the peak.

    The search runs on ``_FRAME_CHUNK`` components at a time.  Each of its
    steps is per component, so the chunks bound the size of its arrays
    and leave every result bit as it is."""
    if s.size > _FRAME_CHUNK:
        parts = [_frame(p, r[lo:lo + _FRAME_CHUNK], s[lo:lo + _FRAME_CHUNK], t)
                 for lo in range(0, s.size, _FRAME_CHUNK)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    lc = TAIL_EXPONENT
    reach = math.sqrt(4.0 * t * lc / p.epsilon)
    rungs = reach * _RUNGS

    def log_f(eta, idx):
        t_tan, log_n = _xi_map(p.epsilon, p.delta, p.kappa, s[idx], t)(eta)
        return log_n + _log_heat(p.dim - 1, r[idx][None, :], t_tan)

    active = np.arange(s.size)
    grid = reach * _COARSE[:, None]  # one column that every component shares
    lg = log_f(grid, active)
    peak = np.maximum.reduce(lg, axis=0)
    last = len(grid) - 1 - (lg >= peak - lc)[::-1].argmax(axis=0)
    eta_hi = reach * _COARSE[np.minimum(last + 1, len(grid) - 1)]
    centre, scale, lo, hi = np.empty((4, s.size))
    while True:  # the bracket shrinks 8x per pass until nodes coincide
        a = np.arange(active.size)
        g = np.arange(grid.shape[1])  # [0] broadcasts the shared column
        j = lg.argmax(axis=0)
        below, above = np.maximum(j - 1, 0), np.minimum(j + 1, len(grid) - 1)
        centre[active], lo[active], hi[active] = grid[j, g], grid[below, g], grid[above, g]
        near = np.minimum.reduce(np.where(lg < peak[active] - 1.0,
                                          np.abs(grid - centre[active]), np.inf), axis=0)
        scale[active] = rungs.take(np.searchsorted(rungs, near * (1.0 - 1e-12)), mode="clip")
        active = active[lg[j, a] - np.minimum(lg[below, a], lg[above, a]) > 2.0]
        if not active.size:
            break
        grid = lo[active] + (hi[active] - lo[active]) * _ZOOM
        lg = log_f(grid, active)
        peak[active] = np.maximum(peak[active], np.maximum.reduce(lg, axis=0))
    return peak + np.log(scale), centre, scale, np.maximum(eta_hi, centre + scale)


def _framed(normal, frame, spec, tan_fn):
    """Shared-tree integral over eta >= 0 of exp(log_n) times a tangential
    factor.  ``normal(eta)`` returns (T, log_n), the tangential time
    arguments and the log normal factor, each broadcasting to one column
    per component.  ``frame = (log_shift, centre, scale, eta_hi)`` per
    component, or one element that every component shares: each component
    is integrated over eta in [0, eta_hi] through
    eta = centre + scale * sinh(v), v linear in the shared variable u in
    [0, 1], and ``log_shift`` is subtracted from its exponent (output is
    the shifted value).  ``tan_fn(T, log_w)`` returns the tangential
    factor at ``T`` times the weight exp(log_w).  Returns (values, errors,
    subdivisions, converged).
    """
    log_shift, centre, scale, eta_hi = frame
    v0 = np.arcsinh(-centre / scale)
    dv = np.arcsinh((eta_hi - centre) / scale) - v0
    log_len = np.log(scale * dv) - log_shift

    def f(u):
        # v = v0 + dv u, eta = max(centre + scale sinh(v), 0) and the weight
        # log_n + log(cosh(v)) + log_len, in place as in ``_xi_map``
        v = dv * u[:, None]
        v += v0
        eta = np.sinh(v)
        eta *= scale
        eta += centre
        np.maximum(eta, 0.0, out=eta)
        t_tan, log_n = normal(eta)
        log_n += np.log(np.cosh(v, out=v), out=v)
        log_n += log_len
        del v, eta  # freed before tan_fn makes its arrays: a lower peak memory
        return tan_fn(t_tan, log_n)

    return _adaptive(f, _halves(0.0, 1.0), spec)


def _weighted(tan_fn):
    """``_framed``'s ``tan_fn(T, log_w)`` for a factor ``tan_fn(T)``."""
    return lambda T, log_w: tan_fn(T) * exp_flush(log_w)


def _exchange_core(eps, delta, kappa, s, t, spec, tan_fn, frame, path):
    """``_framed`` on the exchange integrand in xi = s + eta (``_xi_map``)."""
    if path != "xi":  # kept because the benchmark tracer wraps this signature
        raise ValueError(f"unknown path {path!r}")
    return _framed(_xi_map(eps, delta, kappa, s, t), frame, spec, tan_fn)


def _pointwise_tan(dim, r):
    """``tan_fn(T)`` of the heat kernel of R^(dim-1) at the offsets ``r``,
    one column each.  Where T is so small that r^2/4T overflows, the
    factor is 0 and numpy's overflow warning is silenced.  A T that
    underflowed to 0 stands for a time below the float range: the factor
    is 0 there for r >= 1e-150, where exp(-r^2/4T) times any power of T is
    0 in float, and unknown closer to the origin, so it is NaN and the
    quadrature rejects it; the division and invalid-value warnings of
    log(0) and r^2/0 are silenced with the overflow."""
    r = np.asarray(r, dtype=float)[None, :]
    at_zero = np.where(r >= 1e-150, -np.inf, np.nan)
    # above this T no r^2/4T overflows (NaN fails the test, and takes the
    # checked path)
    t_safe = np.max(r * r, initial=0.0) * 2.5e-309

    def fn(T):
        if np.minimum.reduce(T, axis=None) > t_safe:
            return exp_flush(_log_heat(dim - 1, r, T))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            log_h = _log_heat(dim - 1, r, T)
        return exp_flush(np.where(T == 0, at_zero, log_h))

    return fn


def exchange_log_grid(p: Params, r, s, t: float, spec: QuadSpec = DEFAULT_SPEC):
    """log of the exchange kernel on arrays of (r, s) pairs at fixed t,
    each component framed and shifted by ``_frame``; both offsets are
    distances, finite and >= 0 by the range rule.  Returns (log_values,
    rel_errors, subdivisions, converged); values of exactly zero map to
    -inf.  numpy's divide and invalid warnings are silenced for the whole
    call: log(0) at xi = 0 in the frame and the integrand, and log(0) and
    0/0 on a zero value.

    The relative error is the quadrature's plus 12 spacings of the
    returned log.  Where the integrand has its mass, the shifted
    exponent sums terms as large as the shift, and these 12 roundings have
    results of that size: the normal Gaussian eps xi^2/4t (two products and
    a quotient), the tangential one r^2/4T (a square and a quotient), the
    map's log-length minus the shift (one difference), the five sums that
    join them (log_n - eps xi^2/4t, + log cosh v, + the log-length,
    log(4 pi T) term - r^2/4T, + the weight) and the return's log(value) +
    shift.  Each is at most half the spacing of a result below twice the
    returned log, so at most one of its spacings.  The node's own rounding
    moves every term together, and the roundings of T enter r^2/4T as
    relative errors of a few eps that average out over the nodes.
    """
    _positive(t)
    r, s = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(s, dtype=float))
    _positive(r, "tangential offsets r", zero=True)
    _positive(s, "normal offsets s", zero=True)
    shape, r, s = r.shape, r.ravel(), s.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        frame = _frame(p, r, s, t)
        vals, errs, nsub, conv = _exchange_core(
            p.epsilon, p.delta, p.kappa, s, t, spec,
            lambda T, log_w: exp_flush(_log_heat(p.dim - 1, r[None, :], T) + log_w), frame, "xi")
        logv = np.log(vals) + frame[0]
        # the error of the value plus one spacing per rounding of the
        # exponent (the docstring's 12)
        rel = np.where(vals > 0.0, errs / vals + 12.0 * np.spacing(np.abs(logv)), errs)
    return logv.reshape(shape), rel.reshape(shape), nsub, conv


def exchange_weighted(p: Params, s, t: float, spec: QuadSpec, tan_fn):
    """Exchange integral with a caller-supplied tangential factor
    ``tan_fn(T)`` of the Gaussian time arguments ``T``, one column per
    component of ``s``.

    Used by the solution operators, where ``tan_fn`` is the closed
    tangential convolution of the data.  No rescaling: values carry the
    natural magnitude of the data.  numpy's divide warning is silenced
    for the whole call (log(0) at xi = 0).
    """
    s = np.asarray(s, dtype=float).ravel()
    # the data factor's peak is unknown: no shift, and one frame for every
    # component, the normal Gaussian's width sqrt(4t/eps) and its reach
    frame = (0.0, 0.0, math.sqrt(4.0 * t / p.epsilon),
             math.sqrt(4.0 * t * TAIL_EXPONENT / p.epsilon))
    with np.errstate(divide="ignore"):
        return _exchange_core(p.epsilon, p.delta, p.kappa, s, t, spec, _weighted(tan_fn),
                              frame, "xi")


def exchange_kernel(p: Params, x: HalfSpacePoint, y: HalfSpacePoint, t: float,
                    spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Bulk-boundary exchange kernel (the dynamical part of the
    fundamental solution), evaluated pointwise."""
    r = tangential_offset(x, y, p.dim)
    logv, rel, nsub, conv = exchange_log_grid(p, [r], [x.normal + y.normal], t, spec)
    value = exp_flush(logv[0])
    return QuadResult(float(value), float(rel[0]) * float(value), nsub, conv)


def fundamental_grid(p: Params, r, xn, yn, t: float, spec: QuadSpec = DEFAULT_SPEC):
    """Fundamental solution G = G0 + H/delta on broadcast arrays of
    tangential offsets ``r`` and normal coordinates ``xn``, ``yn``.

    G0 is the absorbing-boundary kernel at time t/epsilon, H the exchange
    kernel; all components share one exchange batch.  Returns (values,
    errors, subdivisions, converged) with values and errors in the
    broadcast shape; the error is that of H/delta (G0 is closed form).
    """
    r, xn, yn = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (r, xn, yn)))
    logh, rel, nsub, conv = exchange_log_grid(p, r, xn + yn, t, spec)
    h = exp_flush(logh)
    g0 = dirichlet_radial(r, xn, yn, t / p.epsilon, p.dim)
    return g0 + h / p.delta, rel * h / p.delta, nsub, conv


def fundamental_kernel(p: Params, x: HalfSpacePoint, y: HalfSpacePoint, t: float,
                       spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Fundamental solution: absorbing-boundary part plus the exchange
    part weighted by the boundary capacity."""
    r = tangential_offset(x, y, p.dim)
    return _finalize(*fundamental_grid(p, [r], [x.normal], [y.normal], t, spec))


# ---------------------------------------------------------------------------
# limit kernels
# ---------------------------------------------------------------------------

def hdn_batch(eps, kappa, dim, s, t, spec, tan_fn):
    """Exchange part of the diffusive-Neumann heat kernel.

    Semi-infinite integral written in the shifted Gaussian variable
    v = s/(2 sqrt(T)) + eta with T = t/eps; the tangential time argument
    is T + 2 kappa sqrt(T) eta, independent of the normal offset.  numpy's
    divide warning is silenced for the whole call (log(0) at v = 0).
    """
    s = np.asarray(s, dtype=float).ravel()
    T = t / eps
    v0 = s / (2.0 * math.sqrt(T))
    log_norm = -0.5 * math.log(4.0 * math.pi * T)

    def normal(eta):
        v = v0 + eta
        log_n = np.log(4.0 * v) + log_norm - v * v
        return T + 2.0 * kappa * math.sqrt(T) * eta, log_n

    frame = (0.0, 0.0, 1.0, math.sqrt(TAIL_EXPONENT))  # the Gaussian's unit width
    with np.errstate(divide="ignore"):
        return _framed(normal, frame, spec, _weighted(tan_fn))


def heat_neumann_grid(p: Params, r, xn, yn, t: float, spec: QuadSpec = DEFAULT_SPEC):
    """Diffusive-Neumann kernel G0 + H_N on broadcast arrays of tangential
    offsets ``r`` and normal coordinates ``xn``, ``yn``, in one
    ``hdn_batch``; reads epsilon, kappa and the dimension of ``p``.
    Returns (values, errors, subdivisions, converged) in the broadcast
    shape."""
    _positive(t)
    r, xn, yn = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (r, xn, yn)))
    vals, errs, nsub, conv = hdn_batch(p.epsilon, p.kappa, p.dim, (xn + yn).ravel(), t, spec,
                                       _pointwise_tan(p.dim, r.ravel()))
    g0 = dirichlet_radial(r, xn, yn, t / p.epsilon, p.dim)
    return g0 + vals.reshape(r.shape), errs.reshape(r.shape), nsub, conv


def heat_neumann_kernel(epsilon: float, kappa: float, x: HalfSpacePoint,
                        y: HalfSpacePoint, t: float, dim: int = 2,
                        spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Fundamental solution of the heat equation with the diffusive
    Neumann boundary condition.  The parameters are checked as a
    ``Params`` with delta = 1, which the kernel does not read."""
    p = Params(epsilon, 1.0, kappa, dim)
    r = tangential_offset(x, y, p.dim)
    return _finalize(*heat_neumann_grid(p, [r], [x.normal], [y.normal], t, spec))


# The scale-search nodes of ``gauss_layer_batch`` in units of w_max.
_GAUSS_NODES = 2.0 ** -np.arange(41.0)[:, None]


def gauss_layer_batch(dim, z, A, spec, tan_fn):
    """Poisson-type layer with tangential pre-smoothing.

    Evaluates -2 * int_0^inf tan(A + tau) d/dz Gamma_1(z, tau) dtau via the
    substitution tau = (z / 2w)^2, which turns the measure into the unit
    Gaussian weight (2/sqrt(pi)) exp(-w^2) dw on (0, inf).  ``A = 0`` and a
    point tangential factor reproduce the harmonic-extension kernel.

    The range is w in [0, w_max] with w_max = sqrt(TAIL_EXPONENT).  Each
    component's sinh frame is scaled to the node of largest w times its
    integrand among w_max 2^-k, k = 0..40 (one call of ``tan_fn``),
    capped at 1: a tangential factor with a distant centre puts its mass
    in a narrow window near w = 0, at any scale down to 2^-40 of the
    range.
    """
    z = np.asarray(z, dtype=float).ravel()
    if not np.all(z > 0):  # written so that NaN fails
        raise SingularConfigurationError("kernel degenerates to a point mass at "
                                         "normal offset z = x_N + y_N + t/delta <= 0")
    w_max = math.sqrt(TAIL_EXPONENT)
    log_pref = math.log(2.0 / math.sqrt(math.pi))

    def t_tan(w):
        return A + (z / (2.0 * w)) ** 2

    nodes = _GAUSS_NODES * w_max
    weighted = nodes * np.exp(-nodes * nodes) * np.abs(tan_fn(t_tan(nodes)))
    scale = np.minimum(nodes[np.argmax(weighted, axis=0), 0], 1.0)
    return _framed(lambda eta: (t_tan(eta), log_pref - eta * eta),
                   (0.0, 0.0, scale, w_max), spec, _weighted(tan_fn))


def laplace_dynamic_kernel(delta: float, kappa: float, x: HalfSpacePoint,
                           y: HalfSpacePoint, t: float, dim: int = 2,
                           spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Fundamental solution of the Laplace equation with the diffusive
    dynamical boundary condition (boundary-to-bulk kernel).  The
    parameters are checked as a ``Params`` with epsilon = 1, which the
    kernel does not read."""
    p = Params(1.0, delta, kappa, dim)
    _positive(t, zero=True)
    r = tangential_offset(x, y, p.dim)
    tan = _pointwise_tan(p.dim, np.array([r]))
    return _finalize(*gauss_layer_batch(p.dim, [x.normal + y.normal + t / p.delta],
                                        p.kappa * t / p.delta, spec, tan))


def dirichlet_layer_batch(eps, dim, xn, t, theta, spec, tan_fn):
    """Boundary layer of the Dirichlet problem with (optionally) diffusing
    surface data; ``theta=None`` freezes the surface data in time.

    Uses v = (x_N / 2) sqrt(eps / t) + eta, under which the normal factor
    is (2 eps / sqrt(pi)) exp(-v^2) and the elapsed bulk time is
    w = eps x_N^2 / (4 v^2).  Strictly interior points only (x_N > 0).
    """
    xn = _positive(np.asarray(xn, dtype=float).ravel(), "x_N")
    v0 = 0.5 * xn * math.sqrt(eps / t)
    log_pref = math.log(2.0 * eps) - 0.5 * math.log(math.pi)

    def normal(eta):
        v = v0 + eta
        w = eps * xn ** 2 / (4.0 * v * v)
        t_tan = w / eps
        if theta is not None:
            t_tan = t_tan + (t - w) / theta
        return t_tan, log_pref - v * v

    # scaled to the near-wall window v0; the floor keeps asinh(eta_hi/scale) finite
    frame = (0.0, 0.0, np.clip(v0, 1e-8, 1.0), math.sqrt(TAIL_EXPONENT))
    return _framed(normal, frame, spec, _weighted(tan_fn))


def dirichlet_layer_kernel(p: Params, theta: float, x: HalfSpacePoint,
                           y: HalfSpacePoint, t: float,
                           spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Kernel carrying diffusing boundary data into the bulk through the
    absorbing-boundary heat flow (the second point is read as a boundary
    point; its normal part is ignored)."""
    _positive(t)
    _positive(theta, "theta")
    if x.normal == 0.0:
        return QuadResult(0.0, 0.0, 0, True)
    r = tangential_offset(x, y, p.dim)
    tan = _pointwise_tan(p.dim, np.array([r]))
    return _finalize(*dirichlet_layer_batch(p.epsilon, p.dim, [x.normal], t, theta, spec, tan))


# ---------------------------------------------------------------------------
# regions and envelopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Envelope:
    """Two-sided envelope values (upper and lower profiles times their
    tangential Gaussians); the unknown comparison constant is not
    included."""

    upper: float
    lower: float
    region: str


def region_tag(eps, delta, s, t):
    """Region D1-D4 of the scalar pair (s, t) with s = x_N + y_N; a NaN
    fails every predicate and lands in D4."""
    if eps * s * s < 6.0 * t:  # near
        return "D1" if t < 12.0 * delta * delta / eps else "D2"  # early
    return "D3" if s + t / delta < delta / eps else "D4"  # shallow


def envelope_log(p: Params, r, s, t):
    """log of the upper and lower envelopes at the scalar tangential
    offset ``r`` and s = x_N + y_N at time t, and the region of (s, t).
    Every heat-kernel time it forms passes the time rule under its own
    name, so a t whose quotient underflows to 0 is a ValueError."""
    _positive(p.kappa, "kappa of an envelope")
    tag = region_tag(p.epsilon, p.delta, s, t)
    log_up = log_low = 0.0
    if tag != "D1":
        log_up = _log_heat(1, s, _positive(t / p.epsilon, "t/epsilon"))
        log_low = _log_heat(1, s, _positive(t / (2.0 * p.epsilon), "t/(2 epsilon)"))
        if tag == "D3":
            log_lin = np.log(s + t / p.delta)
            log_up, log_low = log_lin + log_up, log_lin + log_low
    scale = t / (p.epsilon * p.delta)
    t_big = _positive(max(p.delta, p.kappa * p.epsilon) * scale, "Lambda t/(epsilon delta)")
    t_small = _positive(min(p.delta, p.kappa * p.epsilon) * scale, "lambda t/(epsilon delta)")
    log_up = log_up + _log_heat(p.dim - 1, r, t_big)
    log_low = log_low + _log_heat(p.dim - 1, r, t_small)
    return log_up, log_low, tag


def envelope(p: Params, x: HalfSpacePoint, y: HalfSpacePoint, t: float) -> Envelope:
    """Upper and lower envelopes of the exchange kernel at (x, y, t), and
    the region D1-D4 that (x_N + y_N, t) lies in."""
    _positive(t)
    r = tangential_offset(x, y, p.dim)
    lu, ll, tag = envelope_log(p, r, x.normal + y.normal, t)
    return Envelope(exp_flush(lu), exp_flush(ll), tag)


# ---------------------------------------------------------------------------
# marginal masses and total-mass checks
# ---------------------------------------------------------------------------

def _check_xn_t(xn, t, zero=False):
    """The time rule ``_positive`` on ``t``, and its finite, nonnegative form
    on the normal coordinate ``xn``."""
    _positive(xn, "x_N", zero=True)
    _positive(t, zero=zero)


def exchange_marginal_boundary(p: Params, xn: float, t: float,
                               spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Boundary marginal of the exchange kernel (tangential integral done
    in closed form; the remaining time integral by quadrature)."""
    _check_xn_t(xn, t)
    return _finalize(*exchange_weighted(p, [xn], t, spec, lambda T: 1.0))


def exchange_marginal_interior(p: Params, xn: float, t: float,
                               spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Interior marginal of the exchange kernel: a genuinely 2-D
    (normal x time) quadrature with the tangential direction closed."""
    _check_xn_t(xn, t)
    ycut = math.sqrt(4.0 * t * TAIL_EXPONENT / p.epsilon) + 1.0
    return integrate_nested(
        lambda ys: exchange_weighted(p, xn + ys, t, spec, lambda T: 1.0), 0.0, ycut, spec,
        width=math.sqrt(4.0 * t / p.epsilon))


def _marginal_terms(p: Params, xn: float, t: float):
    """erfc(a) and e^(-a^2) erfcx(c) with a = sqrt(eps) x_N / (2 sqrt(t))
    and c = sqrt(eps) (x_N + 2t/delta) / (2 sqrt(t))."""
    from scipy.special import erfcx

    a = math.sqrt(p.epsilon) * xn / (2.0 * math.sqrt(t))
    c = math.sqrt(p.epsilon) * (xn + 2.0 * t / p.delta) / (2.0 * math.sqrt(t))
    return math.erfc(a), math.exp(-a * a) * float(erfcx(c))


def marginal_interior_reference(p: Params, xn: float, t: float) -> float:
    """Closed form of the interior marginal (including the capacity weight
    2/delta): erfc(a) - e^(-a^2) erfcx(c), see ``_marginal_terms``."""
    outside, boundary = _marginal_terms(p, xn, t)
    return outside - boundary


def marginal_boundary_reference(p: Params, xn: float, t: float) -> float:
    """Closed form of the boundary marginal (including the 1/epsilon
    weight): e^(-a^2) erfcx(c), see ``_marginal_terms``.  With the
    absorbing-boundary mass erf(a) the two marginals sum to 1."""
    return _marginal_terms(p, xn, t)[1]


def total_mass(p: Params, xn: float, t: float,
               spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Interior plus weighted boundary mass of the fundamental solution;
    equals 1 identically.  The absorbing-boundary mass is the closed form
    erf(sqrt(eps) x_N / (2 sqrt(t))); the exchange marginals are quadratures.

    Both marginals close the tangential integral, so the result reads
    neither kappa nor the dimension: rows of a mass grid that differ only
    in those return bit-identical results.  ``total_mass_radial`` is the
    route that exercises them."""
    _check_xn_t(xn, t)
    g0 = math.erf(math.sqrt(p.epsilon) * xn / (2.0 * math.sqrt(t)))
    return QuadResult(*add_terms((g0, 0.0, 0, True),
                                 (exchange_marginal_interior(p, xn, t, spec), p.delta),
                                 (exchange_marginal_boundary(p, xn, t, spec), p.epsilon)))


def _area_weighted(dim, kernel):
    """Radial integrand |S^(N-2)| r^(N-2) K of a kernel grid
    ``kernel(rs, yn)`` that returns (values, errors, subdivisions,
    converged)."""
    area = sphere_area(dim - 2)

    def weighted(rs, yn):
        g, err, nsub, conv = kernel(rs, yn)
        w = area * np.broadcast_to(rs, np.shape(g)) ** (dim - 2)
        return w * g, w * err, nsub, conv

    return weighted


def _bulk_mass(weighted, rcut, rwidth, ycut, ywidth, spec):
    """Integral of an area-weighted radial integrand over r in [0, rcut]
    (inner) and y_N in [0, ycut] (outer).  Each range is cut at a
    Gaussian's reach and runs through ``integrate_nested``'s sinh map
    scaled to that Gaussian's width (``rwidth``, ``ywidth``)."""
    return integrate_nested(
        lambda ys: integrate_nested(
            lambda rs: weighted(rs[:, None], ys[None, :]), 0.0, rcut, spec, width=rwidth),
        0.0, ycut, spec, width=ywidth)


def total_mass_radial(p: Params, xn: float, t: float,
                      spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Total mass with the tangential integral done numerically (radial
    reduction), exercising the dimension-dependent factors."""
    _check_xn_t(xn, t)
    lc = TAIL_EXPONENT
    spread = max(t / p.epsilon,
                 max(p.delta, p.kappa * p.epsilon) * t / (p.epsilon * p.delta))
    rcut = math.sqrt(4.0 * spread * lc) + 2.0
    ycut = xn + math.sqrt(4.0 * t * lc / p.epsilon) + 1.0
    rwidth = math.sqrt(4.0 * spread)
    kernel_slice = _area_weighted(p.dim, lambda rs, yn: fundamental_grid(p, rs, xn, yn, t, spec))
    interior = _bulk_mass(kernel_slice, rcut, rwidth, ycut, math.sqrt(4.0 * t / p.epsilon), spec)
    bdry = integrate_nested(lambda rs: kernel_slice(rs, 0.0), 0.0, rcut, spec, width=rwidth)
    return QuadResult(*add_terms(interior, (bdry, p.epsilon / p.delta)))


def laplace_dynamic_mass(p: Params, xn: float, t: float,
                         spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Boundary mass of the Laplace dynamic kernel via radial quadrature
    (power-law tails: integrated through the compactifying map).

    The inner Gauss layers run on ``rel_tol`` alone: their integrand is
    positive, and the outer rule multiplies each inner error by the
    unbounded (1 + r)^2 |S^(N-2)| r^(N-2), so an absolute inner tolerance
    would not bound the error carried into the outer sum.  Reads delta,
    kappa and the dimension of ``p``."""
    _check_xn_t(xn, t, zero=True)
    inner_spec = replace(spec, abs_tol=1e-300)
    f = _area_weighted(p.dim, lambda rs, _: gauss_layer_batch(
        p.dim, np.full(rs.size, xn + t / p.delta), p.kappa * t / p.delta, inner_spec,
        _pointwise_tan(p.dim, rs)))
    return integrate_nested(lambda rs: f(rs, None), 0.0, np.inf, spec)


def heat_neumann_mass(p: Params, xn: float, t: float,
                      spec: QuadSpec = DEFAULT_SPEC) -> QuadResult:
    """Interior mass of the diffusive-Neumann heat kernel via radial and
    normal quadrature; equals 1 identically.  Reads epsilon, kappa and
    the dimension of ``p``."""
    _check_xn_t(xn, t)
    lc = TAIL_EXPONENT
    T = t / p.epsilon
    tau_cut = 2.0 * math.sqrt(T * lc)
    rcut = math.sqrt(4.0 * (T + p.kappa * tau_cut) * lc) + 2.0
    ycut = xn + math.sqrt(4.0 * T * lc) + 1.0
    rwidth = math.sqrt(4.0 * (T + p.kappa * tau_cut))
    return _bulk_mass(_area_weighted(p.dim, lambda rs, yn: heat_neumann_grid(
        p, rs, xn, yn, t, spec)), rcut, rwidth, ycut, math.sqrt(4.0 * T), spec)
