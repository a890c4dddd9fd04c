import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynheat.data import Boundary, Interior, NormalProfile, tan_conv
from dynheat.kernels import (
    LOG_FLUSH,
    HalfSpacePoint,
    Params,
    dirichlet_kernel,
    exp_flush,
    free_heat_radial,
    gaussian_interval_mass,
    neumann_kernel,
    poisson_kernel,
    sphere_area,
)
from dynheat.quadrature import integrate


class TestExpFlush:
    # the subnormal band [-745, -708.4), normal values, and the flush
    # threshold itself
    ABOVE = np.concatenate([[LOG_FLUSH, np.nextafter(LOG_FLUSH, 0.0)],
                            np.linspace(LOG_FLUSH, -708.4, 1001)[:-1],
                            np.linspace(-708.4, 50.0, 997)])
    BELOW = np.array([-np.inf, -1e308, -2000.0, -800.0, -745.1,
                      np.nextafter(LOG_FLUSH, -np.inf)])

    def test_below_flush_is_exact_zero(self):
        out = exp_flush(self.BELOW)
        assert out.dtype == float and np.all(out == 0.0)
        assert not np.signbit(out).any()
        # exp itself leaves the smallest subnormal just below the threshold
        assert np.exp(self.BELOW[-1]) > 0.0

    @pytest.mark.parametrize("deep", [False, True])
    def test_at_or_above_flush_has_the_bits_of_exp(self, deep):
        # with and without flushed entries in the same array
        x = np.concatenate([self.ABOVE, self.BELOW]) if deep else self.ABOVE
        out = exp_flush(x)[:self.ABOVE.size]
        assert np.array_equal(out.view(np.int64), np.exp(self.ABOVE).view(np.int64))
        assert (out[2:1001] < np.finfo(float).tiny).all() and (out[2:1001] > 0.0).all()

    @pytest.mark.parametrize("x", [[np.nan, -1.0, 0.5], [np.nan, -1.0, -900.0]])
    def test_nan_in_nan_out(self, x):
        out = exp_flush(np.array(x))
        assert np.isnan(out[0]) and out[1] == math.exp(-1.0)
        assert not np.isnan(out[1:]).any()

    def test_shapes_and_scalars(self):
        for x in (-1.0, np.float64(-800.0), np.array(-2.0), np.nan):
            assert type(exp_flush(x)) is float
        assert exp_flush(-800.0) == 0.0 and exp_flush(0.0) == 1.0
        for shape in [(0,), (3, 4), (15, 1), (2, 3, 5)]:
            x = np.linspace(-900.0, 1.0, math.prod(shape)).reshape(shape)
            assert exp_flush(x).shape == shape
            assert exp_flush(x.T).shape == shape[::-1]

    def test_no_runtime_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exp_flush(np.concatenate([self.ABOVE, self.BELOW, [np.nan]]))
            exp_flush(self.ABOVE)
            exp_flush(np.full((65, 4225), -1e4))


class TestFreeHeatKernel:
    def test_scalar_values(self):
        assert free_heat_radial(1, 0.0, 1.0) == pytest.approx(
            0.2820947917738781, abs=1e-15)
        assert free_heat_radial(2, 0.0, 0.25) == pytest.approx(
            1.0 / math.pi, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            free_heat_radial(1, 0.0, 0.0)
        with pytest.raises(ValueError):
            free_heat_radial(1, 0.0, -1.0)

    @pytest.mark.parametrize("d,t", [(1, 0.7), (1, 0.1), (1, 10.0), (2, 1.0),
                                     (2, 0.1), (2, 10.0)])
    def test_unit_mass(self, d, t):
        if d == 1:
            res = integrate(lambda x: free_heat_radial(1, x, t),
                            -40.0 * math.sqrt(t), 40.0 * math.sqrt(t))
        else:
            res = integrate(
                lambda r: sphere_area(d - 1) * r ** (d - 1) * free_heat_radial(d, r, t),
                0.0, 50.0 * math.sqrt(t))
        assert res.value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("t,s", [(0.4, 0.6), (1.0, 2.0)])
    def test_semigroup(self, t, s):
        for x in (0.0, 0.7, 2.0):
            res = integrate(
                lambda z: free_heat_radial(1, x - z, t) * free_heat_radial(1, z, s),
                -50.0, 50.0)
            assert res.value == pytest.approx(free_heat_radial(1, x, t + s), rel=1e-9)

    def test_underflow_flush(self):
        assert free_heat_radial(1, 200.0, 1.0) == 0.0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.floats(0, 5), st.floats(0.05, 5))
    def test_positive_below_flush(self, r, t):
        assert free_heat_radial(1, r, t) > 0.0


class TestHalfSpaceKernels:
    X = HalfSpacePoint(0.0, 1.0)
    Y = HalfSpacePoint(0.0, 1.0)

    def test_dirichlet_value(self):
        assert dirichlet_kernel(self.X, self.Y, 1.0, 2) == pytest.approx(
            0.05030255578378808, abs=1e-15)

    def test_dirichlet_boundary_vanishes(self):
        x0 = HalfSpacePoint(0.7, 0.0)
        assert dirichlet_kernel(x0, self.Y, 0.5, 2) == 0.0
        assert dirichlet_kernel(self.Y, x0, 0.5, 2) == 0.0

    def test_dirichlet_symmetry(self):
        a = HalfSpacePoint(0.3, 0.8)
        b = HalfSpacePoint(-0.9, 1.7)
        assert dirichlet_kernel(a, b, 0.6, 2) == dirichlet_kernel(b, a, 0.6, 2)

    def test_neumann_value(self):
        assert neumann_kernel(self.X, self.Y, 1.0, 2) == pytest.approx(
            0.10885238730810724, abs=1e-15)

    def test_neumann_on_wall_doubles(self):
        a = HalfSpacePoint(0.5, 0.0)
        b = HalfSpacePoint(-0.5, 0.0)
        gn = neumann_kernel(a, b, 0.8, 2)
        assert gn == pytest.approx(2.0 * free_heat_radial(2, 1.0, 0.8),
                                   rel=1e-14)

    def test_neumann_mass(self):
        # reflection makes the half-space mass exactly one
        from dynheat.quadrature import integrate_nested

        def inner(y1):
            return integrate(
                lambda yn: free_heat_radial(1, np.abs(y1)[None, :], 1.0)
                * (free_heat_radial(1, 1.0 - yn[:, None], 1.0)
                   + free_heat_radial(1, 1.0 + yn[:, None], 1.0)), 0.0, np.inf)

        res = integrate_nested(inner, -30.0, 30.0)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.floats(0, 3), st.floats(0, 2), st.floats(0, 2), st.floats(0.05, 4))
    def test_reflection_identity(self, r, xn, yn, t):
        # absorbing + reflecting = twice the free kernel, exactly
        x, y = HalfSpacePoint(r, xn), HalfSpacePoint(0.0, yn)
        g0 = dirichlet_kernel(x, y, t, 2)
        gn = neumann_kernel(x, y, t, 2)
        free = 2.0 * free_heat_radial(1, r, t) * free_heat_radial(1, xn - yn, t)
        assert g0 + gn == pytest.approx(free, rel=1e-14, abs=1e-300)


class TestPoisson:
    def test_values(self):
        assert poisson_kernel(0.0, 1.0, 2) == pytest.approx(1.0 / math.pi, abs=1e-16)
        assert poisson_kernel(0.0, 2.0, 2) == pytest.approx(
            0.15915494309189535, abs=1e-16)

    def test_normalisation(self):
        res = integrate(lambda r: 2.0 * poisson_kernel(r, 0.5, 2), 0.0, np.inf)
        assert res.value == pytest.approx(1.0, rel=1e-9)

    def test_normalisation_3d(self):
        res = integrate(
            lambda r: sphere_area(1) * r * poisson_kernel(r, 1.3, 3), 0.0, np.inf)
        assert res.value == pytest.approx(1.0, rel=1e-8)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            poisson_kernel(1.0, 0.0, 2)


class TestPoints:
    def test_tangential_vector(self):
        p = HalfSpacePoint(1.5, 0.0)
        assert np.allclose(p.tangential_vector(3), [1.5, 0.0])
        q = HalfSpacePoint((1.0, 2.0), 0.5)
        assert np.allclose(q.tangential_vector(3), [1.0, 2.0])
        with pytest.raises(ValueError):  # R^1 has no tangential axis to pad into
            HalfSpacePoint(0.5, 0).tangential_vector(1)

    def test_negative_normal_rejected(self):
        with pytest.raises(ValueError):
            HalfSpacePoint(0.0, -0.1)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            Params(0.0, 1.0)
        with pytest.raises(ValueError):
            Params(1.0, -1.0)
        with pytest.raises(ValueError):
            Params(1.0, 1.0, -0.5)
        with pytest.raises(ValueError):
            Params(1.0, 1.0, 1.0, 1)
        Params(1.0, 1.0, 0.0, 2)  # kappa = 0 allowed

    @pytest.mark.parametrize("args", [
        (1, 1, math.nan), (1, 1, math.inf), (math.inf, 1, 1, 2),
        (1, 1, 1, 2.5), (1, 1, 1, 2.0), (1, 1, 1, True),
    ])
    def test_params_reject_nonfinite_and_fractional(self, args):
        with pytest.raises(ValueError):
            Params(*args)
        Params(np.float64(1.0), 1, np.float64(0.0), np.int64(3))


class TestSurfaceHeat:
    """The tangential heat flow with capacity theta, whose solution at time t
    is the tangential convolution at T = t / theta."""

    def test_constant(self):
        psi = Boundary("constant", c=1.0)
        for t, th in ((0.5, 1.0), (3.0, 0.2)):
            assert tan_conv(psi, 1.3, t / th, 2) == pytest.approx(1.0)

    def test_gaussian_semigroup(self):
        psi = Boundary("heat_gaussian", a=0.7)
        v = tan_conv(psi, 0.4, 1.2 / 2.0, 2)
        assert v == pytest.approx(free_heat_radial(1, 0.4, 1.2 / 2.0 + 0.7), rel=1e-14)

    def test_indicator_approximate_identity(self):
        psi = Boundary("indicator", rho=1.0)
        assert tan_conv(psi, 0.0, 1e-8, 2) == pytest.approx(1.0, abs=1e-12)

    def test_interval_mass_is_erf_difference(self):
        from scipy.special import erf

        v = gaussian_interval_mass(0.3, -1.0, 1.0, 0.5)
        s = 2.0 * math.sqrt(0.5)
        assert v == pytest.approx(0.5 * (erf(1.3 / s) - erf(-0.7 / s)), rel=1e-14)

    def test_unsupported_dim(self):
        from dynheat.data import UnsupportedDataError

        with pytest.raises(UnsupportedDataError):
            tan_conv(Boundary("indicator", rho=1.0), 0.0, 1.0, 3)


class TestDataValues:
    def test_normal_profiles(self):
        g = NormalProfile("gaussian", m=0.5, b=0.25)
        assert g.value(0.5) == pytest.approx(free_heat_radial(1, 0.0, 0.25))
        ind = NormalProfile("indicator", lo=0.0, hi=1.0)
        assert np.allclose(ind.value(np.array([0.5, 1.5])), [1.0, 0.0])
        with pytest.raises(Exception):
            NormalProfile("bogus")

    def test_interior_validation(self):
        with pytest.raises(ValueError):
            Interior("heat_gaussian", a=1.0)  # missing normal profile
        with pytest.raises(Exception):
            Interior("nope")
