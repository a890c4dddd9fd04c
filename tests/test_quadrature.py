import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynheat.quadrature import (
    EvaluationError,
    QuadResult,
    QuadSpec,
    _NODES,
    _WGFULL,
    _WK,
    _adaptive,
    add_terms,
    integrate,
    integrate_nested,
    tally,
)

SPEC = QuadSpec()


def _moment_miss(weights, k):
    """Distance of the rule's integral of the Legendre polynomial P_k on
    [-1, 1] from the exact one, in units of the rounding bound
    (k + 1) eps sum |w P_k|: the k steps of its recurrence and the weight.
    Unlike x^k, P_k stays of size 1, so the miss of a rule one degree past
    its exactness stands far above that bound."""
    exact = 2.0 if k == 0 else 0.0
    terms = weights * np.polynomial.legendre.legval(_NODES, np.eye(k + 1)[k])
    scale = (k + 1) * np.finfo(float).eps * math.fsum(np.abs(terms))
    return abs(math.fsum(terms) - exact) / scale


def test_rule_constants():
    # K31 integrates P_k exactly up to degree 46 and G15 up to degree 29, to
    # rounding; neither at the next even degree, so a mistyped digit that
    # moves a moment past rounding fails here
    assert _NODES.size == 31
    assert max(_moment_miss(_WK, k) for k in range(47)) <= 1.0
    assert max(_moment_miss(_WGFULL, k) for k in range(30)) <= 1.0
    assert _moment_miss(_WK, 48) > 1e3
    assert _moment_miss(_WGFULL, 30) > 1e3
    assert np.all(np.diff(_NODES) > 0) and _NODES[_NODES.size // 2] == 0.0
    np.testing.assert_array_equal(_NODES, -_NODES[::-1])
    np.testing.assert_array_equal(_WK, _WK[::-1])
    np.testing.assert_array_equal(_WGFULL, _WGFULL[::-1])
    assert np.all(_WK > 0)
    # G15 lives on the odd nodes, the middle one among them, the
    # Gauss-Legendre rule of that order
    gx, gw = np.polynomial.legendre.leggauss(15)
    assert np.count_nonzero(_WGFULL) == 15
    np.testing.assert_allclose(_NODES[1::2], gx, rtol=0, atol=1e-15)
    np.testing.assert_allclose(_WGFULL[1::2], gw, rtol=0, atol=1e-15)
    # QUADPACK's qk31 table: the outermost Kronrod node and weight, and the
    # outermost Gauss node and weight
    assert _NODES[-1] == 0.998002298693397060285172840152271
    assert _WK[-1] == 0.005377479872923348987792051430128
    assert _NODES[-2] == 0.987992518020485428489565718586613
    assert _WGFULL[-2] == 0.030753241996117268354628393577204


def test_polynomial():
    res = integrate(lambda x: x * x, 0.0, 1.0)
    assert abs(res.value - 1.0 / 3.0) <= res.tolerance(SPEC)
    assert res.converged


def test_gaussian_antiderivative():
    from dynheat.kernels import free_heat_radial

    res = integrate(lambda x: free_heat_radial(1, x, 1.0), 0.0, 1.0)
    assert res.value == pytest.approx(0.260249938906523268, rel=1e-12)


def test_sine():
    res = integrate(np.sin, 0.0, math.pi)
    assert res.value == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("f,expected", [
    (lambda x: np.exp(-x), 1.0),
    (lambda x: x * np.exp(-x * x), 0.5),
])
def test_semi_infinite(f, expected):
    res = integrate(f, 0.0, np.inf)
    assert res.value == pytest.approx(expected, rel=1e-9)
    assert res.converged


def test_semi_infinite_gaussian_half():
    from dynheat.kernels import free_heat_radial

    res = integrate(lambda x: free_heat_radial(1, x, 1.0), 0.0, np.inf)
    assert res.value == pytest.approx(0.5, rel=1e-10)


def test_2d_unit_square():
    res = integrate_nested(
        lambda xs: integrate(lambda ys: np.ones((ys.size, xs.size)), 0.0, 1.0), 0.0, 1.0)
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_2d_semi_infinite_inner():
    res = integrate_nested(
        lambda xs: integrate(
            lambda ys: np.exp(-ys)[:, None] * np.ones(xs.size), 0.0, np.inf), 0.0, 1.0)
    assert res.value == pytest.approx(1.0, rel=1e-9)


def test_2d_product_of_halves():
    from dynheat.kernels import free_heat_radial

    def inner(xs):
        return integrate(
            lambda ys: free_heat_radial(1, xs[None, :], 1.0)
            * free_heat_radial(1, ys[:, None], 1.0), 0.0, np.inf)

    res = integrate_nested(inner, 0.0, 40.0)
    assert res.value == pytest.approx(0.25, rel=1e-9)
    # the same range through a sinh map scaled to the Gaussians' width
    # puts the outer nodes near 0 and needs fewer outer bisections
    mapped = integrate_nested(inner, 0.0, 40.0, width=2.0)
    assert mapped.value == pytest.approx(0.25, rel=1e-9)
    assert mapped.subdivisions_used < res.subdivisions_used


def test_nested_error_covers_inner_errors():
    # negative control: inner errors of 1e-3 at every node of [0, 2] add up
    # to 2e-3 (the sup alone would report 1e-3), also when the outer rule
    # runs in the sinh variable and the errors carry its Jacobian; one
    # unconverged batch taints the result
    for width in (None, 0.5):
        batches = []

        def inner(x):
            batches.append(x.size)
            return np.sqrt(x), np.full_like(x, 1e-3), 1, len(batches) != 2

        res = integrate_nested(inner, 0.0, 2.0, width=width)
        if width is None:
            outer = integrate(np.sqrt, 0.0, 2.0)
        else:
            outer = integrate(lambda v: np.sqrt(width * np.sinh(v)) * width * np.cosh(v),
                              0.0, math.asinh(2.0 / width))
        assert len(batches) > 2
        assert res.value == pytest.approx(2.0 / 3.0 * 2.0**1.5, rel=1e-8)
        assert res.error_estimate >= 2e-3
        assert not res.converged
        assert res.subdivisions_used == outer.subdivisions_used + len(batches)


@pytest.mark.parametrize("f", [lambda x: x, np.sqrt], ids=["linear", "sqrt"])
def test_nested_error_sums_inner_errors_over_the_final_panels(f):
    # inner errors c x on [0, 1] carry their integral c/2, where the largest
    # inner error at any node times the length would be about c; sqrt
    # bisects the outer range, and its discarded panels add nothing
    c = 1e-3
    res = integrate_nested(lambda x: (f(x), c * x, 0, True), 0.0, 1.0)
    outer = integrate(f, 0.0, 1.0)
    assert (res.value, res.subdivisions_used) == (outer.value, outer.subdivisions_used)
    assert res.error_estimate - outer.error_estimate == pytest.approx(c / 2, rel=1e-12)


@pytest.mark.parametrize("width, b", [
    (math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (-1.0, 1.0), (1.0, math.inf),
])
def test_nested_width_preconditions(width, b):
    with pytest.raises(ValueError):
        integrate_nested(lambda x: (x, 0.0 * x, 0, True), 0.0, b, width=width)


def test_nested_semi_infinite_maps_inner_errors():
    # inner errors 1e-3 exp(-x) integrate to 1e-3 over [0, inf)
    def inner(x):
        return np.exp(-x), 1e-3 * np.exp(-x), 0, True

    res = integrate_nested(inner, 0.0, np.inf)
    assert res.value == pytest.approx(1.0, rel=1e-9)
    assert res.error_estimate >= 1e-3
    assert res.converged


_BAD_RANGES = [(0.0, -math.inf), (0.0, math.nan), (math.nan, 1.0), (math.nan, math.inf),
               (-math.inf, 1.0), (math.inf, math.inf), (1.0, 1.0), (1.0, 0.0)]


@pytest.mark.parametrize("a, b", _BAD_RANGES)
def test_range_rule_rejects(a, b):
    # a finite, b finite and above a or +inf; b = -inf used to run the
    # nested rule over [a, inf) and return 1 for exp(-x), converged
    calls = []

    def f(x):
        calls.append(x.size)
        return np.exp(-np.abs(x))

    with pytest.raises(ValueError):
        integrate(f, a, b)
    with pytest.raises(ValueError):
        integrate_nested(lambda x: (f(x), 0.0 * x, 0, True), a, b)
    assert calls == []


# (value, error, subdivisions, converged) of [a, inf) integrals, pinned to
# the bits of the u = 1/(1 + x - a) rule they have always run through
_SEMI_INFINITE_GOLDEN = {
    "exp": ((["0x1.ffffffffffff8p-1"], ["0x1.0fc6d12b6d116p-33"]), 1, True),
    "shifted_gauss": ((["0x1.b60e4bace8730p-1"], ["0x1.f79344daba38ep-41"]), 2, True),
    "poisson_tail": ((["0x1.0000000000000p+0"], ["0x1.9000000000000p-47"]), 0, True),
    "batch": ((["0x1.78b56362cef34p-1", "0x1.152aaa3bf81cbp-3", "0x1.5fc21041027adp-14"],
               ["0x1.e529296c7d434p-35", "0x1.194343faefba2p-49", "0x1.12cf9cb2caa84p-60"]),
              2, True),
}


@pytest.mark.parametrize("name", sorted(_SEMI_INFINITE_GOLDEN))
def test_semi_infinite_golden(name):
    from dynheat.kernels import free_heat_radial, poisson_kernel

    f, a, spec = {
        "exp": (lambda x: np.exp(-x), 0.0, SPEC),
        "shifted_gauss": (lambda x: free_heat_radial(1, x, 1.0), -1.5, SPEC),
        "poisson_tail": (lambda r: 2.0 * poisson_kernel(r, 0.5, 2), 0.0,
                         QuadSpec(rel_tol=1e-12)),
        "batch": (lambda x: np.exp(-np.outer(x, [0.5, 1.0, 4.0])), 2.0, SPEC),
    }[name]
    res = integrate(f, a, np.inf, spec)
    assert (_pin(res.value, res.error_estimate), res.subdivisions_used,
            res.converged) == _SEMI_INFINITE_GOLDEN[name]


def test_add_terms_sum_rule():
    # divisors 1, 2 and 4; the second term did not converge
    first = (1.0, 1e-3, 3, True)
    second = QuadResult(2.0, 2e-3, 5, False)
    third = (np.array([4.0, 8.0]), np.array([4e-3, 8e-3]), 7, True)
    u, err, nsub, conv = add_terms(first, (second, 2.0), (third, 4.0))
    assert u == pytest.approx(np.array([1.0 + 1.0 + 1.0, 1.0 + 1.0 + 2.0]), rel=1e-15)
    assert err == pytest.approx(1e-3 + 2e-3 / 2 + third[1] / 4, rel=1e-15)
    assert nsub == 15
    assert conv is False


def test_preconditions():
    with pytest.raises(ValueError):
        integrate(np.sin, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(np.sin, 0.0, -np.inf)
    with pytest.raises(ValueError):
        QuadSpec(rel_tol=-1.0)
    with pytest.raises(ValueError):
        QuadSpec(max_subdivisions=0)


@pytest.mark.parametrize("kwargs", [
    {"rel_tol": math.nan}, {"abs_tol": math.inf},
    {"max_subdivisions": 2.5}, {"max_subdivisions": 2000.0}, {"max_subdivisions": True},
])
def test_spec_rejects_nonfinite_and_fractional(kwargs):
    # a NaN tolerance once ran every integral to max_subdivisions and
    # returned converged=False without an error
    with pytest.raises(ValueError):
        QuadSpec(**kwargs)
    QuadSpec(max_subdivisions=np.int64(5))


def test_nan_raises_evaluation_error():
    def bad(x):
        return np.where(x > 0.5, np.nan, x)

    # the seed half that holds the NaN is named
    with pytest.raises(EvaluationError,
                       match=r"^integrand returned NaN or inf on panel \[0\.5, 1\.0\]$"):
        integrate(bad, 0.0, 1.0)


@pytest.mark.parametrize("f", [
    lambda x: np.ones(x.size - 1), lambda x: 1.0, lambda x: np.ones((x.size, 2, 2)),
], ids=["short", "scalar", "3-d"])
def test_integrand_must_return_one_value_per_node(f):
    # 1-D and 2-D returns only: a scalar is not spread over the nodes
    with pytest.raises(ValueError, match="^integrand must return one value per node$"):
        integrate(f, 0.0, 1.0)


def test_unbisectable_panel_is_not_converged():
    # a one-ulp range has no float midpoint inside it, so a panel whose K31
    # and G15 sums disagree stops there, flagged, instead of looping
    a = 1.0
    b = math.nextafter(a, math.inf)
    pattern = np.abs(np.sin(np.arange(float(_NODES.size)) ** 2))
    res = integrate(lambda x: pattern, a, b, QuadSpec(rel_tol=1e-15, abs_tol=1e-300))
    assert res.error_estimate > 0.0
    assert (res.subdivisions_used, res.converged) == (0, False)


def test_nonconvergence_flagged():
    spec = QuadSpec(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=3)
    res = integrate(lambda x: np.abs(x - 1.0 / 3.0) ** 0.5, 0.0, 1.0, spec)
    assert not res.converged


def test_determinism_bit_identical():
    def f(x):
        return np.exp(-x) * np.sin(7.0 * x) + np.sqrt(np.abs(x - 0.3))

    a = integrate(f, 0.0, 2.0)
    b = integrate(f, 0.0, 2.0)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.subdivisions_used == b.subdivisions_used


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_linearity(alpha, beta):
    f = lambda x: np.exp(-x * x)
    g = lambda x: x * x * np.cos(x)
    lhs = integrate(lambda x: alpha * f(x) + beta * g(x), 0.0, 2.0)
    rf = integrate(f, 0.0, 2.0)
    rg = integrate(g, 0.0, 2.0)
    tol = 2.0 * max(lhs.tolerance(SPEC), rf.tolerance(SPEC) + rg.tolerance(SPEC))
    assert abs(lhs.value - (alpha * rf.value + beta * rg.value)) <= tol + 1e-14


def test_vector_valued_matches_sequential():
    def fv(x):
        return np.stack([np.exp(-x), np.cos(x), x ** 3], axis=1)

    res = integrate(fv, 0.0, 1.0)
    seq = [integrate(lambda x: np.exp(-x), 0.0, 1.0).value,
           integrate(np.cos, 0.0, 1.0).value,
           integrate(lambda x: x ** 3, 0.0, 1.0).value]
    assert np.allclose(res.value, seq, rtol=1e-10)


# Error-estimate honesty: analytically known corpus, true error within
# 5x the reported estimate (endpoint-decay entries mimic the boundary
# layer of the exchange integrand).
def _corpus():
    from scipy.special import erf

    gauss = lambda s: (lambda x: np.exp(-x * x / s) / math.sqrt(math.pi * s))
    out = [
        (lambda x: np.ones_like(x), 0.0, 1.0, 1.0),
        (lambda x: x, 0.0, 1.0, 0.5),
        (lambda x: x ** 2, 0.0, 2.0, 8.0 / 3.0),
        (lambda x: x ** 5, -1.0, 1.0, 0.0),
        (lambda x: x ** 6, 0.0, 1.0, 1.0 / 7.0),
        (np.sin, 0.0, math.pi, 2.0),
        (np.cos, 0.0, 1.0, math.sin(1.0)),
        (lambda x: np.exp(x), 0.0, 1.0, math.e - 1.0),
        (gauss(1.0), -8.0, 8.0, float(erf(8.0))),
        (gauss(0.25), -8.0, 8.0, float(erf(16.0))),
        (lambda x: x * np.exp(-x * x), 0.0, 30.0, 0.5),
        (lambda x: np.exp(-x), 0.0, 50.0, 1.0 - math.exp(-50.0)),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
        (lambda x: np.sqrt(np.maximum(x, 0.0)), 0.0, 1.0, 2.0 / 3.0),
        (lambda x: np.sqrt(np.maximum(1.0 - x, 0.0)), 0.0, 1.0, 2.0 / 3.0),
        (lambda x: np.log(np.maximum(x, 1e-320)), 1e-320, 1.0, -1.0),
        # Gaussian-times-power with endpoint decay toward x -> 1
        (lambda x: np.where(x < 1.0, np.exp(-1.0 / np.maximum(1.0 - x, 1e-320))
                            / np.maximum(1.0 - x, 1e-320) ** 2, 0.0),
         0.0, 1.0, math.exp(-1.0)),
        (lambda x: x * np.sin(10.0 * x), 0.0, math.pi,
         (math.sin(10 * math.pi) - 10 * math.pi * math.cos(10 * math.pi)) / 100.0),
        (lambda x: np.exp(-2.0 * x) * np.cos(x), 0.0, 40.0,
         (2.0 - math.exp(-80.0) * (2 * math.cos(40.0) - math.sin(40.0))) / 5.0),
        (lambda x: 1.0 / np.sqrt(np.maximum(x, 1e-320)), 1e-12, 1.0,
         2.0 - 2e-6),
    ]
    return out


@pytest.mark.parametrize("idx", range(20))
def test_error_estimate_honesty(idx):
    f, a, b, exact = _corpus()[idx]
    res = integrate(f, a, b)
    true_err = abs(res.value - exact)
    assert true_err <= 5.0 * max(res.error_estimate, 1e-15)


# Golden pins of the adaptive core: float.hex of value and error (a
# sha256 prefix of their bytes for wide batches), subdivisions and the
# converged flag.  Any change to panel arithmetic, worst-panel order or
# final accumulation moves at least one of them.
_PEAK_C = np.linspace(0.02, 0.98, 225)
_PEAK_W = np.geomspace(1e-4, 1e-1, 225)[np.argsort(np.sin(np.arange(225.0)))]


def _pin(value, error):
    v = np.asarray(value, dtype=float).ravel()
    e = np.asarray(error, dtype=float).ravel()
    if v.size <= 3:
        return [float(x).hex() for x in v], [float(x).hex() for x in e]
    return hashlib.sha256(v.tobytes() + e.tobytes()).hexdigest()[:32]


def _golden_runs():
    from dynheat.dynamic import _pointwise_tan, gauss_layer_batch

    return {
        "scalar_smooth": lambda: _adaptive(
            lambda x: np.exp(-x) * np.cos(3.0 * x) + np.sqrt(x + 0.1), [(0.0, 2.0)],
            QuadSpec(rel_tol=1e-13, abs_tol=1e-15)),
        "peaked_batch_225": lambda: _adaptive(
            lambda x: np.exp(-((x[:, None] - _PEAK_C) / _PEAK_W) ** 2) / _PEAK_W,
            [(0.0, 1.0)], SPEC),
        # one sinh frame per component, scaled to its integrand's peak
        "gauss_layer_framed": lambda: gauss_layer_batch(
            2, [0.05, 0.5, 2.0], 0.3, SPEC, _pointwise_tan(2, np.array([0.0, 1.0, 3.0]))),
        "max_subdivisions": lambda: _adaptive(
            lambda x: np.abs(x - 1.0 / 3.0) ** 0.5, [(0.0, 1.0)],
            QuadSpec(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=60)),
    }


_GOLDEN = {
    "scalar_smooth": ((["0x1.0aabeec406a38p+1"], ["0x1.77f6855f5ffb8p-43"]), 1, True),
    "peaked_batch_225": ("770b40e77772b330aab6ee503c1209fa", 335, True),
    "gauss_layer_framed": ((["0x1.f54aeff5031f3p-2", "0x1.9e789c7b43a00p-3",
                             "0x1.b1c67b874fb99p-5"],
                            ["0x1.71504712deec2p-37", "0x1.33cdc26022170p-41",
                             "0x1.57c5f6939322bp-51"]), 2, True),
    "max_subdivisions": ((["0x1.f6f9d66120528p-2"], ["0x1.972efb75e2bf7p-48"]), 60, False),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_adaptive_golden(name):
    value, error, nsub, converged = _golden_runs()[name]()
    assert (_pin(value, error), nsub, converged) == _GOLDEN[name]


def _kernel_golden_points():
    from dynheat.dynamic import (exchange_log_grid, heat_neumann_kernel,
                                 laplace_dynamic_kernel)
    from dynheat.kernels import HalfSpacePoint as P, Params

    out = []
    for p, r, s, t in [(Params(1.0, 1.0, 1.0, 2), 0.5, 0.3, 1.0),
                       (Params(0.3, 2.0, 0.5, 3), 2.0, 0.05, 0.2),
                       (Params(4.0, 0.5, 2.0, 2), 0.0, 1.5, 3.0)]:
        logv, rel, nsub, conv = exchange_log_grid(p, [r], [s], t)
        out.append((float(logv[0]).hex(), float(rel[0]).hex(), nsub, conv))
    for eps, kappa, x, y, t, d in [(1.0, 1.0, P(0.0, 0.5), P(0.4, 0.2), 1.0, 2),
                                   (0.2, 0.0, P(1.0, 0.0), P(0.0, 0.1), 0.5, 3),
                                   (3.0, 2.0, P(2.0, 1.0), P(0.0, 0.0), 4.0, 2)]:
        res = heat_neumann_kernel(eps, kappa, x, y, t, d)
        out.append((res.value.hex(), res.error_estimate.hex(), res.subdivisions_used,
                    res.converged))
    for delta, kappa, x, y, t, d in [(1.0, 0.0, P(0.0, 1.0), P(0.0, 0.0), 1.0, 2),
                                     (0.5, 1.0, P(1.0, 0.2), P(0.0, 0.0), 0.3, 3),
                                     (2.0, 0.2, P(3.0, 0.0), P(0.0, 0.1), 2.0, 2)]:
        res = laplace_dynamic_kernel(delta, kappa, x, y, t, d)
        out.append((res.value.hex(), res.error_estimate.hex(), res.subdivisions_used,
                    res.converged))
    # a 78-wide batch in which 5 components run one pass of the frame's zoom
    # loop; its s = 0 column meets log(0)
    logv, rel, nsub, conv = exchange_log_grid(
        Params(0.5, 2, 0.5, 2), np.linspace(0, 6, 13)[:, None], [[0, 0.01, 0.1, 0.5, 1, 3]],
        0.1)
    hexes = " ".join(float(x).hex() for x in np.concatenate([logv.ravel(), rel.ravel()]))
    out.append((hashlib.sha256(hexes.encode()).hexdigest()[:32], nsub, conv))
    return out


def test_kernel_golden():
    # exchange_log_grid (log value, relative error), then heat_neumann_kernel
    # and laplace_dynamic_kernel (value, error), three points each; all
    # count bisections after their two seed halves.  The limit-kernel rows
    # run through their batches' sinh frames.  Each value is within 6 ulp of
    # the nearest double to a 40-digit quadrature of the same integral, each
    # limit-kernel value within 3 (the second and third heat_neumann_kernel
    # rows), and the first laplace_dynamic_kernel row, 1/(2 pi), within 1.
    # The last row pins a zoomed exchange batch by a sha256 prefix of float.hex
    assert _kernel_golden_points() == [
        ("-0x1.2572de5a2c2ddp+1", "0x1.c97ea56c3a776p-46", 0, True),
        ("-0x1.08d3c4821772ap+3", "0x1.d4cc689cfe012p-42", 0, True),
        ("-0x1.bf7b22c8d5f63p+1", "0x1.7408a012cbfa2p-44", 0, True),
        ("0x1.a9ba9ae3b1af3p-4", "0x1.df8794c1e3cfap-50", 0, True),
        ("0x1.506d6b1591c4bp-7", "0x1.4da78711383cap-51", 0, True),
        ("0x1.6b8db104064a4p-5", "0x1.8879df4a3f142p-51", 0, True),
        ("0x1.45f306dc9c882p-3", "0x1.e47eb87925586p-47", 0, True),
        ("0x1.72f44f8f98c10p-5", "0x1.3f828b399c72bp-45", 0, True),
        ("0x1.38cdb2f4a85f3p-5", "0x1.367b0f19f7a5ap-51", 0, True),
        ("e939a382d4367cdc3c4dee51b187ef6e", 3, True),
    ]


def test_empty_batch_converges_at_once():
    # a batch with no components has nothing to bisect
    value, error, nsub, converged = _adaptive(lambda x: np.zeros((x.size, 0)),
                                              [(0.0, 1.0), (1.0, 2.0)], SPEC)
    assert value.shape == error.shape == (0,)
    assert (nsub, converged) == (0, True)


def test_infinite_panel_raises_after_one_call():
    # an infinity of either sign is rejected like a NaN, on the first panel
    # that holds it, instead of being bisected towards until max_subdivisions
    for bad in (np.inf, -np.inf):
        calls = []

        def f(x):
            calls.append(x[x.size // 2])
            return np.column_stack([x, np.where(x > 0.5, bad, x)])

        with pytest.raises(EvaluationError,
                           match=r"^integrand returned NaN or inf on panel \[0\.0, 1\.0\]$"):
            _adaptive(f, [(0.0, 1.0)], QuadSpec(max_subdivisions=30))
        assert calls == [0.5]


def test_equal_panel_errors_bisect_the_lower_index_first():
    # an integrand that ignores x gives every panel of equal length the same
    # error; the lower index is bisected first, then the longer panel
    pattern = np.abs(np.sin(np.arange(float(_NODES.size)) ** 2))
    mids = []

    def f(x):
        mids.append(x[x.size // 2])
        return pattern

    _adaptive(f, [(0.0, 1.0), (1.0, 2.0)],
              QuadSpec(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=2))
    assert mids == [0.5, 1.5, 0.25, 0.75, 1.25, 1.75]


# Single-range integrals start from the two halves of their range.  Where
# one root panel would be bisected, the first bisection makes exactly those
# halves, so the bits stay and one subdivision fewer is counted.
_ROOT_BISECTED = [i for i, (f, a, b, _) in enumerate(_corpus())
                  if _adaptive(f, [(a, b)], SPEC)[2] > 0]


def test_corpus_bisects_the_root_often_enough():
    assert len(_ROOT_BISECTED) >= 10


@pytest.mark.parametrize("idx", _ROOT_BISECTED)
def test_seed_halves_keep_the_bits_of_a_bisected_root(idx):
    f, a, b, _ = _corpus()[idx]
    value, error, nsub, converged = _adaptive(f, [(a, b)], SPEC)
    res = integrate(f, a, b)
    assert res.value.hex() == float(value[0]).hex()
    assert res.error_estimate.hex() == float(error[0]).hex()
    assert (res.subdivisions_used, res.converged) == (nsub - 1, converged)


def test_constant_integrand_makes_two_calls():
    mids = []

    def f(x):
        mids.append(x[x.size // 2])
        return np.ones_like(x)

    res = integrate(f, 0.0, 1.0)
    assert mids == [0.25, 0.75]
    assert (res.value, res.subdivisions_used, res.converged) == (1.0, 0, True)


def test_range_without_interior_midpoint_has_one_seed():
    a = 1.0
    b = math.nextafter(a, math.inf)
    calls = []

    def f(x):
        calls.append(x.size)
        return np.ones_like(x)

    res = integrate(f, a, b)
    assert calls == [_NODES.size]
    assert res.value == b - a
    assert res.converged


def test_tally_counts_each_unconverged_integral_in_every_open_scope():
    # the capped nested integral counts its outer rule and each of its 4
    # inner ones (one per outer panel: 2 seeds, 2 halves of one bisection); a scope
    # left by an exception stops counting, and so does a closed one
    capped = QuadSpec(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=1)
    with tally() as outer:
        assert not integrate(np.sqrt, 0.0, 1.0, capped).converged
        with tally() as inner:
            integrate(np.square, 0.0, 1.0)
            integrate_nested(lambda x: integrate(lambda y: np.sqrt(np.outer(y, x)), 0.0, 1.0,
                                                 capped), 0.0, 1.0, capped)
        with pytest.raises(RuntimeError), tally() as left:
            integrate(np.sqrt, 0.0, 1.0, capped)
            raise RuntimeError
    integrate(np.sqrt, 0.0, 1.0, capped)
    assert (outer.unconverged, inner.unconverged, left.unconverged) == (7, 5, 1)
