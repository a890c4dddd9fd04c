import numpy as np
import pytest

from dynheat.dynamic import (
    Envelope,
    SingularConfigurationError,
    classify_region,
    dirichlet_layer_kernel,
    envelope,
    exchange_kernel,
    exchange_log_grid,
    exchange_marginal_boundary,
    exchange_marginal_interior,
    fundamental_grid,
    fundamental_kernel,
    heat_neumann_grid,
    heat_neumann_kernel,
    heat_neumann_mass,
    laplace_dynamic_kernel,
    laplace_dynamic_mass,
    marginal_boundary_reference,
    marginal_interior_reference,
    total_mass,
    total_mass_radial,
)
from dynheat.kernels import (
    HalfSpacePoint,
    Params,
    exp_flush,
    free_heat_radial,
    neumann_kernel,
    poisson_kernel,
)
from dynheat.quadrature import QuadSpec, integrate

P111 = Params(1.0, 1.0, 1.0, 2)


def exchange_direct(p, r, s, t, spec=QuadSpec()):
    """Independent route: direct quadrature of the defining time integral."""
    def f(tau):
        w = (t - tau) / p.epsilon
        zt = s + tau / p.delta
        return (free_heat_radial(p.dim - 1, r, w + p.kappa * tau / p.delta)
                * (p.epsilon * zt / (t - tau)) * free_heat_radial(1, zt, w))

    split = t * (1.0 - 1e-4)
    return integrate(f, 0.0, split, spec).value + integrate(f, split, t, spec).value


class TestExchangeKernel:
    @pytest.mark.parametrize("params", [P111, Params(1.3, 0.7, 0.9, 2),
                                        Params(0.5, 2.0, 0.0, 2),
                                        Params(2.0, 0.5, 1.5, 3)])
    def test_against_direct_quadrature(self, params):
        rng = np.random.default_rng(5)
        for _ in range(6):
            r, s, t = rng.uniform(0, 3), rng.uniform(0, 4), rng.uniform(0.2, 3)
            lv, rel, _, conv = exchange_log_grid(params, [r], [s], t)
            got = exp_flush(lv[0])
            ref = exchange_direct(params, r, s, t)
            assert conv
            assert got == pytest.approx(ref, rel=1e-9)

    def test_paths_agree(self):
        rng = np.random.default_rng(6)
        rs = rng.uniform(0, 3, 10)
        ss = rng.uniform(0, 5, 10)
        for t in (0.1, 1.0, 5.0):
            a, _, _, _ = exchange_log_grid(P111, rs, ss, t, path="xi")
            b, _, _, _ = exchange_log_grid(P111, rs, ss, t, path="tau")
            assert np.max(np.abs(a - b)) < 1e-11

    def test_symmetry_structural(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = HalfSpacePoint(rng.uniform(-2, 2), rng.uniform(0, 2))
            y = HalfSpacePoint(rng.uniform(-2, 2), rng.uniform(0, 2))
            t = rng.uniform(0.1, 4)
            h1 = exchange_kernel(P111, x, y, t).value
            h2 = exchange_kernel(P111, y, x, t).value
            assert h1 > 0
            assert abs(h1 - h2) <= 1e-12 * h1

    def test_batch_matches_pointwise(self):
        rs = np.array([0.0, 0.5, 1.5])
        ss = np.array([0.2, 1.0, 2.5])
        t = 0.7
        lv, _, _, _ = exchange_log_grid(P111, rs, ss, t)
        for r, s, ref in zip(rs, ss, exp_flush(lv)):
            one = exchange_kernel(P111, HalfSpacePoint(r, s), HalfSpacePoint(0.0, 0.0), t)
            assert one.value == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("grid, pointwise", [
        (lambda r, xn, yn, t: fundamental_grid(P111, r, xn, yn, t),
         lambda x, y, t: fundamental_kernel(P111, x, y, t)),
        (lambda r, xn, yn, t: heat_neumann_grid(1.0, 1.0, r, xn, yn, t),
         lambda x, y, t: heat_neumann_kernel(1.0, 1.0, x, y, t)),
    ], ids=["fundamental", "heat_neumann"])
    def test_grid_matches_pointwise(self, grid, pointwise):
        # one batch over a broadcast 3 x 4 (r, y_N) grid
        rs = np.array([0.0, 0.7, 1.9])[:, None]
        yns = np.array([0.0, 0.3, 1.0, 2.5])[None, :]
        xn, t = 0.4, 0.8
        vals, errs, _, conv = grid(rs, xn, yns, t)
        assert conv
        assert vals.shape == errs.shape == (3, 4)
        for i, j in np.ndindex(3, 4):
            one = pointwise(HalfSpacePoint(rs[i, 0], xn), HalfSpacePoint(0.0, yns[0, j]), t)
            assert abs(vals[i, j] - one.value) <= errs[i, j] + one.error_estimate

    def test_fundamental_on_wall_is_pure_exchange(self):
        x = HalfSpacePoint(0.4, 0.0)
        y = HalfSpacePoint(0.0, 0.0)
        g = fundamental_kernel(P111, x, y, 0.9)
        h = exchange_kernel(P111, x, y, 0.9)
        assert g.value == pytest.approx(h.value / P111.delta, rel=1e-14)

    def test_time_domain_error(self):
        with pytest.raises(ValueError):
            exchange_log_grid(P111, [0.0], [0.0], 0.0)


class TestMarginals:
    @pytest.mark.parametrize("eps,delta,xn,t", [
        (1.0, 1.0, 0.3, 0.5),
        (2.0, 0.5, 0.7, 1.3),
        (0.5, 2.0, 0.0, 0.1),
    ])
    def test_interior_marginal_matches_reference(self, eps, delta, xn, t):
        p = Params(eps, delta, 1.0, 2)
        got = exchange_marginal_interior(p, xn, t).value / delta
        ref = marginal_interior_reference(p, xn, t).value
        assert got == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("eps,delta,xn,t", [
        (1.0, 1.0, 0.3, 0.5),
        (2.0, 0.5, 0.7, 1.3),
    ])
    def test_boundary_marginal_matches_reference(self, eps, delta, xn, t):
        p = Params(eps, delta, 1.0, 2)
        got = exchange_marginal_boundary(p, xn, t).value / eps
        ref = marginal_boundary_reference(p, xn, t).value
        assert got == pytest.approx(ref, rel=1e-8)

    def test_marginals_are_kappa_free(self):
        a = exchange_marginal_boundary(Params(1, 1, 0.0, 2), 0.4, 0.8).value
        b = exchange_marginal_boundary(Params(1, 1, 2.0, 2), 0.4, 0.8).value
        assert a == pytest.approx(b, rel=1e-10)


class TestMasses:
    @pytest.mark.parametrize("eps,delta,kappa,xn,t,dim", [
        (2.0, 0.5, 1.0, 0.7, 1.3, 2),
        (1.0, 1.0, 1.0, 0.0, 0.1, 2),
        (0.5, 2.0, 0.5, 3.0, 10.0, 3),
    ])
    def test_total_mass(self, eps, delta, kappa, xn, t, dim):
        res = total_mass(Params(eps, delta, kappa, dim), xn, t)
        assert res.converged
        assert abs(res.value - 1.0) < 1e-8

    def test_total_mass_radial(self):
        res = total_mass_radial(Params(1.0, 1.0, 1.0, 2), 0.5, 1.0)
        assert abs(res.value - 1.0) < 1e-6
        res = total_mass_radial(Params(2.0, 0.5, 1.0, 3), 0.0, 1.0)
        assert abs(res.value - 1.0) < 1e-6

    @pytest.mark.parametrize("delta,kappa,xn,t,dim", [
        (1.0, 1.0, 0.5, 0.8, 2), (0.5, 2.0, 0.0, 1.0, 3), (1.0, 2.0, 3.0, 10.0, 3),
    ])
    def test_laplace_dynamic_mass(self, delta, kappa, xn, t, dim):
        res = laplace_dynamic_mass(delta, kappa, xn, t, dim)
        assert abs(res.value - 1.0) < 1e-8

    @pytest.mark.parametrize("eps,kappa,xn,t,dim", [
        (1.0, 1.0, 0.5, 1.0, 2), (0.5, 2.0, 0.0, 1.0, 3),
    ])
    def test_heat_neumann_mass(self, eps, kappa, xn, t, dim):
        res = heat_neumann_mass(eps, kappa, xn, t, dim)
        assert abs(res.value - 1.0) < 1e-8


class TestLimitKernels:
    def test_laplace_dynamic_at_zero_diffusivity_is_poisson(self):
        # forced value: offset 0, height 2 in the plane
        x, y = HalfSpacePoint(0.0, 1.0), HalfSpacePoint(0.0, 0.0)
        v = laplace_dynamic_kernel(1.0, 0.0, x, y, 1.0, 2).value
        assert v == pytest.approx(0.15915494309189535, rel=1e-12)

    def test_laplace_dynamic_collapse_random(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            dim = int(rng.integers(2, 4))
            r, xn, yn = rng.uniform(0, 3), rng.uniform(0, 2), rng.uniform(0, 2)
            t, d = rng.uniform(0.1, 3), rng.uniform(0.5, 2)
            v = laplace_dynamic_kernel(d, 0.0, HalfSpacePoint(r, xn),
                                       HalfSpacePoint(0.0, yn), t, dim).value
            ref = poisson_kernel(r, xn + yn + t / d, dim)
            assert v == pytest.approx(ref, rel=1e-10)

    def test_laplace_dynamic_symmetry(self):
        x, y = HalfSpacePoint(0.7, 0.3), HalfSpacePoint(-0.2, 1.1)
        a = laplace_dynamic_kernel(1.0, 2.0, x, y, 0.5, 2).value
        b = laplace_dynamic_kernel(1.0, 2.0, y, x, 0.5, 2).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_laplace_dynamic_singular_configuration(self):
        with pytest.raises(SingularConfigurationError):
            laplace_dynamic_kernel(1.0, 1.0, HalfSpacePoint(0.0, 0.0),
                                   HalfSpacePoint(0.0, 0.0), 0.0, 2)

    def test_heat_neumann_collapse_random(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            dim = int(rng.integers(2, 4))
            x = HalfSpacePoint(rng.uniform(0, 3), rng.uniform(0, 2))
            y = HalfSpacePoint(0.0, rng.uniform(0, 2))
            t, e = rng.uniform(0.1, 3), rng.uniform(0.5, 2)
            v = heat_neumann_kernel(e, 0.0, x, y, t, dim).value
            ref = float(neumann_kernel(x, y, t / e, dim))
            assert v == pytest.approx(ref, rel=1e-10)

    def test_heat_neumann_symmetry(self):
        x, y = HalfSpacePoint(0.7, 0.3), HalfSpacePoint(-0.2, 1.1)
        a = heat_neumann_kernel(1.0, 2.0, x, y, 0.5, 2).value
        b = heat_neumann_kernel(1.0, 2.0, y, x, 0.5, 2).value
        assert a == pytest.approx(b, rel=1e-12)


class TestDirichletLayer:
    def test_matches_reversed_exchange_family(self):
        # with theta = delta/kappa the layer kernel equals the boundary
        # exchange integrand with the normal offset frozen at x_N
        eps, delta, kappa = 1.0, 1.0, 2.0
        p = Params(eps, delta, kappa, 2)
        theta = delta / kappa
        for (r, xn, t) in ((0.5, 0.7, 1.0), (0.0, 1.5, 0.4), (2.0, 0.2, 2.0)):
            got = dirichlet_layer_kernel(p, theta, HalfSpacePoint(r, xn),
                                         HalfSpacePoint(0.0, 0.0), t).value

            def f(tau):
                w = (t - tau) / eps
                return (free_heat_radial(1, r, w + tau / theta)
                        * (xn / w) * free_heat_radial(1, xn, w))

            split = t * (1 - 1e-4)
            ref = integrate(f, 0.0, split).value + integrate(f, split, t).value
            assert got == pytest.approx(ref, rel=1e-8)

    def test_far_field_decay(self):
        v = dirichlet_layer_kernel(P111, 1.0, HalfSpacePoint(0.0, 50.0),
                                   HalfSpacePoint(0.0, 0.0), 1.0).value
        assert 0.0 <= v < 1e-12

    def test_nonnegative_samples(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            v = dirichlet_layer_kernel(
                P111, rng.uniform(0.2, 3), HalfSpacePoint(rng.uniform(-2, 2),
                                                          rng.uniform(0.01, 2)),
                HalfSpacePoint(rng.uniform(-2, 2), 0.0), rng.uniform(0.1, 2)).value
            assert v >= 0.0

    def test_wall_value_is_zero(self):
        v = dirichlet_layer_kernel(P111, 1.0, HalfSpacePoint(0.3, 0.0),
                                   HalfSpacePoint(0.0, 0.0), 1.0)
        assert v.value == 0.0


class TestRegions:
    def test_examples(self):
        p = Params(1.0, 1.0, 1.0, 2)
        mk = lambda s: (HalfSpacePoint(0.0, s), HalfSpacePoint(0.0, 0.0))
        x, y = mk(0.0)
        assert classify_region(p, x, y, 1.0).tag == "D1"
        assert classify_region(p, x, y, 13.0).tag == "D2"
        x, y = mk(10.0)
        assert classify_region(p, x, y, 1.0).tag == "D4"
        p2 = Params(1.0, 100.0, 1.0, 2)
        x, y = mk(3.0)
        assert classify_region(p2, x, y, 1.0).tag == "D3"

    def test_lambda_fields(self):
        reg = classify_region(Params(2.0, 0.5, 3.0, 2), HalfSpacePoint(0.0, 0.0),
                              HalfSpacePoint(0.0, 0.0), 1.0)
        assert reg.lambda_big == max(0.5, 3.0 * 2.0)
        assert reg.lambda_small == min(0.5, 3.0 * 2.0)

    def test_kappa_zero_unsupported(self):
        with pytest.raises(ValueError):
            classify_region(Params(1, 1, 0.0, 2), HalfSpacePoint(0.0, 0.0),
                            HalfSpacePoint(0.0, 0.0), 1.0)


class TestEnvelope:
    def test_d1_reduces_to_tangential_gaussian(self):
        x, y = HalfSpacePoint(0.7, 0.0), HalfSpacePoint(0.0, 0.0)
        env = envelope(P111, x, y, 1.0)
        assert env.region == "D1"
        g = free_heat_radial(1, 0.7, 1.0)  # Lambda t/(eps delta) = t here
        assert env.upper == pytest.approx(g, rel=1e-13)
        assert env.lower == pytest.approx(g, rel=1e-13)

    def test_d2_profile_value(self):
        x, y = HalfSpacePoint(0.0, 0.0), HalfSpacePoint(0.0, 0.0)
        env = envelope(P111, x, y, 13.0)
        assert env.region == "D2"
        prof = free_heat_radial(1, 0.0, 13.0)
        assert prof == pytest.approx(0.07823901817554268, rel=1e-12)
        assert env.upper == pytest.approx(prof * free_heat_radial(1, 0.0, 13.0),
                                          rel=1e-12)
        # lower profile uses the doubled bulk scale
        assert env.lower == pytest.approx(
            free_heat_radial(1, 0.0, 6.5) * free_heat_radial(1, 0.0, 13.0), rel=1e-12)

    def test_d3_linear_factor(self):
        p = Params(1.0, 100.0, 1.0, 2)
        x, y = HalfSpacePoint(0.0, 3.0), HalfSpacePoint(0.0, 0.0)
        env = envelope(p, x, y, 1.0)
        assert env.region == "D3"
        lin = 3.0 + 1.0 / 100.0
        assert env.upper == pytest.approx(
            lin * free_heat_radial(1, 3.0, 1.0)
            * free_heat_radial(1, 0.0, 100.0 * 1.0 / 100.0), rel=1e-12)

    def test_envelopes_positive(self):
        env = envelope(P111, HalfSpacePoint(2.0, 4.0), HalfSpacePoint(0.0, 4.0), 0.3)
        assert isinstance(env, Envelope)
        assert env.upper > 0.0 and env.lower > 0.0
