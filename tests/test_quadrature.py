import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynheat.quadrature import (
    EvaluationError,
    QuadResult,
    QuadSpec,
    add_terms,
    integrate,
    integrate_nested,
    integrate_semi_infinite,
)

SPEC = QuadSpec()


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
    res = integrate_semi_infinite(f, 0.0)
    assert res.value == pytest.approx(expected, rel=1e-9)
    assert res.converged


def test_semi_infinite_gaussian_half():
    from dynheat.kernels import free_heat_radial

    res = integrate_semi_infinite(lambda x: free_heat_radial(1, x, 1.0), 0.0)
    assert res.value == pytest.approx(0.5, rel=1e-10)


def test_2d_unit_square():
    res = integrate_nested(
        lambda xs: integrate(lambda ys: np.ones((ys.size, xs.size)), 0.0, 1.0), 0.0, 1.0)
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_2d_semi_infinite_inner():
    res = integrate_nested(
        lambda xs: integrate_semi_infinite(
            lambda ys: np.exp(-ys)[:, None] * np.ones(xs.size), 0.0), 0.0, 1.0)
    assert res.value == pytest.approx(1.0, rel=1e-9)


def test_2d_product_of_halves():
    from dynheat.kernels import free_heat_radial

    def inner(xs):
        return integrate_semi_infinite(
            lambda ys: free_heat_radial(1, xs[None, :], 1.0)
            * free_heat_radial(1, ys[:, None], 1.0), 0.0)

    res = integrate_nested(inner, 0.0, 40.0)
    assert res.value == pytest.approx(0.25, rel=1e-9)


def test_nested_error_covers_inner_errors():
    # negative control: inner errors of 1e-3 at every node of [0, 2] add up
    # to 2e-3 (the sup alone would report 1e-3); one unconverged batch
    # taints the result
    batches = []

    def inner(x):
        batches.append(x.size)
        return np.sqrt(x), np.full_like(x, 1e-3), 1, len(batches) != 2

    res = integrate_nested(inner, 0.0, 2.0)
    assert len(batches) > 2
    assert res.value == pytest.approx(2.0 / 3.0 * 2.0**1.5, rel=1e-8)
    assert res.error_estimate >= 2e-3
    assert not res.converged
    assert res.subdivisions_used == \
        integrate(np.sqrt, 0.0, 2.0).subdivisions_used + len(batches)


def test_nested_semi_infinite_maps_inner_errors():
    # inner errors 1e-3 exp(-x) integrate to 1e-3 over [0, inf)
    def inner(x):
        return np.exp(-x), 1e-3 * np.exp(-x), 0, True

    res = integrate_nested(inner, 0.0, np.inf)
    assert res.value == pytest.approx(1.0, rel=1e-9)
    assert res.error_estimate >= 1e-3
    assert res.converged


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
        integrate(np.sin, 0.0, np.inf)
    with pytest.raises(ValueError):
        QuadSpec(rel_tol=-1.0)
    with pytest.raises(ValueError):
        QuadSpec(max_subdivisions=0)


def test_nan_raises_evaluation_error():
    def bad(x):
        return np.where(x > 0.5, np.nan, x)

    with pytest.raises(EvaluationError):
        integrate(bad, 0.0, 1.0)


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
