import math
from dataclasses import replace

import numpy as np
import pytest

from dynheat.kernels import Params
from dynheat.verification import (
    EXPERIMENTS,
    IDENTITIES,
    check_identity,
    default_experiment,
    fit_rate,
    opnorm_decay,
    probe_points,
    run_limit,
    sandwich_check,
    witness_norm,
)


class TestFitRate:
    def test_exact_power(self):
        fit = fit_rate([(1.0, 2.0), (0.5, 1.0), (0.25, 0.5), (0.125, 0.25)])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert math.exp(fit.log_prefactor) == pytest.approx(2.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_half_power(self):
        h = [0.1, 0.05, 0.025, 0.0125, 0.00625]
        fit = fit_rate([(x, math.sqrt(x)) for x in h])
        assert fit.slope == pytest.approx(0.5, abs=1e-12)

    def test_requires_four_points(self):
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0), (0.5, 0.5), (0.25, 0.25)])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_rate([(1.0, 1.0), (0.5, 0.5), (0.25, -0.25), (0.1, 0.1)])


class TestProbePoints:
    def test_regions_nonempty(self):
        for region in ("omega_L_I", "Q", "Q1", "omega_c", "K", "late", "omega_late"):
            xp, xn, ts = probe_points(region)
            assert len(xp) == len(xn) == len(ts) > 0

    def test_q_region_filter(self):
        xp, xn, ts = probe_points("Q")
        assert np.all(xn + ts > 0.5)
        xp, xn, ts = probe_points("Q1")
        assert np.all(xn + ts >= 1.0)


class TestRunLimit:
    def test_fast_slope_experiment(self):
        res = run_limit("hdpsi_eps_to_0")
        assert res.passed
        assert res.fit is not None
        assert abs(res.fit.slope - 0.5) <= 0.1
        assert res.monotone
        assert res.converged

    def test_plain_experiment(self):
        res = run_limit("ldd_delta_to_inf")
        assert res.passed
        assert res.fit is None

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_limit("nope")

    def test_rejects_short_ladder(self):
        exp = default_experiment("hdpsi_eps_to_0")
        with pytest.raises(ValueError, match="ladder too short"):
            run_limit(replace(exp, ladder=(0.1, 0.05)))
        log = default_experiment("k_to_inf_fp_log")
        with pytest.raises(ValueError, match="ladder too short"):
            run_limit(replace(log, ladder=(16.0,)))
        for ladder in ((0.5, 2.0), (1.0, 16.0)):
            with pytest.raises(ValueError, match="must exceed 1"):
                run_limit(replace(log, ladder=ladder))

    def test_registry_complete(self):
        for name in EXPERIMENTS:
            exp = default_experiment(name)
            assert exp.which == name


class TestIdentities:
    def test_marginal_masses(self):
        rep = check_identity("marginal_masses")
        assert rep.passed
        assert rep.max_dev < rep.tol

    def test_k0_poisson(self):
        rep = check_identity("k0_poisson")
        assert rep.passed

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            check_identity("nope")

    def test_registry_names(self):
        assert set(IDENTITIES) == {
            "mass", "mass_ldd", "mass_hdn", "marginal_masses", "symmetry",
            "positivity", "semigroup", "pde_residual", "k0_poisson", "k0_neumann"}


class TestSandwich:
    def test_small_run_stable(self):
        res = sandwich_check(n_per_region=60, seed=11)
        assert res.passed
        assert res.upper_max > 0 and res.lower_max > 0
        assert math.isfinite(res.upper_max) and math.isfinite(res.lower_max)
        assert set(res.per_region) == {"D1", "D2", "D3", "D4"}

    @pytest.mark.filterwarnings("error")
    def test_no_overflow_off_the_unit_box(self):
        # kappa/delta > 1/epsilon: the tangential factor grows along the
        # integrand, which once overflowed to an infinite upper constant
        res = sandwich_check(Params(2.5, 0.5, 1.0, 2), n_per_region=8)
        assert math.isfinite(res.upper_max) and res.upper_max > 0
        assert math.isfinite(res.lower_max) and math.isfinite(res.stability)

    @pytest.mark.parametrize("params, region", [
        (Params(0.5, 20.0, 1.0, 2), "D4"),    # D4 lies beyond every draw
        (Params(0.01, 2.5, 1.0, 2), "D4"),
        (Params(0.5, 0.05, 1.0, 2), "D3"),    # empty D3 time interval
    ])
    def test_unreachable_region_raises(self, params, region):
        with pytest.raises(ValueError, match=f"region {region} cannot be sampled"):
            sandwich_check(params, n_per_region=8)

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_needs_two_samples_per_region(self, n):
        with pytest.raises(ValueError, match="n_per_region >= 2"):
            sandwich_check(n_per_region=n)


class TestOpnorm:
    def test_p_to_p_is_one(self):
        res = opnorm_decay(math.inf, math.inf)
        assert res.passed
        assert all(abs(v - 1.0) <= 1e-6 for _, v in res.table)

    def test_one_to_inf_slope(self):
        res = opnorm_decay(1.0, math.inf)
        assert res.passed
        assert res.fit.slope == pytest.approx(-1.0, abs=0.1)

    def test_witness_norm_closed_forms(self):
        # L1 norm has the explicit value sqrt(eps / (pi t)) / 2
        for t in (0.5, 1.0, 3.0):
            assert witness_norm(1.0, 1.0, t, 2) == pytest.approx(
                0.5 * math.sqrt(1.0 / (math.pi * t)), rel=1e-12)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            opnorm_decay(2.0, 1.0)

    @pytest.mark.parametrize("p_exp", [0.0, -1.0, 0.5, math.nan])
    def test_rejects_p_below_one(self, p_exp):
        with pytest.raises(ValueError, match="1 <= p <= q"):
            opnorm_decay(p_exp, math.inf)
