import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import dynheat.verification as verification
from dynheat.kernels import Params
from dynheat.quadrature import QuadSpec
from dynheat.solutions import _admitted, solve_grid
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

    @pytest.mark.parametrize("row", [(1.0, math.nan), (1.0, math.inf), (math.nan, 1.0),
                                     (-math.inf, 1.0)],
                             ids=["e-nan", "e-inf", "h-nan", "h--inf"])
    def test_rejects_nonfinite(self, row):
        # a NaN row used to give NaN slope, prefactor and R^2, and an inf
        # row an "invalid value" RuntimeWarning
        with pytest.raises(ValueError, match="^fit_rate values must be finite and positive$"):
            fit_rate([row, (0.5, 1.0), (0.25, 0.5), (0.125, 0.25)])


class TestProbePoints:
    def test_regions_nonempty(self):
        for region in ("omega_L_I", "Q", "Q1", "omega_c", "K", "late", "omega_late"):
            xp, xn, ts = probe_points(region)
            assert len(xp) == len(xn) == len(ts) > 0

    def test_unknown_region(self):
        with pytest.raises(ValueError, match="^unknown probe region 'nowhere'$"):
            probe_points("nowhere")

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

    @pytest.mark.parametrize("name", ["eps_to_inf", "hdpsi_eps_to_inf"])
    @pytest.mark.parametrize("center", [1.0, -0.5])
    def test_data_side_reads_the_interior_center(self, name, center):
        # the frozen data is compared at the offset from its centre, as
        # solve_grid reads it on side A
        exp = EXPERIMENTS[name]
        phi = replace(exp.data.interior, center=center)
        res = run_limit(replace(exp, data=replace(exp.data, interior=phi)))
        assert res.passed and res.converged

    def test_registry_complete(self):
        for name in EXPERIMENTS:
            exp = default_experiment(name)
            assert exp.which == name


def _side_b_moves(exp):
    """Whether side B of ``exp`` at the rung parameters of the first or the
    last ladder value differs from side B at Params(1, 1, 1, dim) and the
    experiment's theta, the one solve that run_limit makes."""
    tag = exp.tags[1]
    xp, xn, ts = probe_points(exp.region)

    def side_b(p, theta):
        return [solve_grid(tag, p, _admitted(tag, exp.data), xp[ts == t], xn[ts == t], t,
                           theta=theta)[0] for t in sorted(set(ts.tolist()))]

    base = side_b(Params(1, 1, 1, exp.dim), exp.theta)
    for h in (exp.ladder[0], exp.ladder[-1]):
        p = replace(Params(1, 1, 1, exp.dim), **{f: h for f in exp.vary if f != "theta"})
        rung = side_b(p, h if "theta" in exp.vary else exp.theta)
        if not all(np.array_equal(a, b) for a, b in zip(base, rung)):
            return True
    return False


_TAGGED_SIDE_B = [name for name, exp in EXPERIMENTS.items() if exp.tags[1] not in (None, "data")]


class TestSideB:
    def test_thirteen_experiments_solve_a_tag(self):
        assert len(_TAGGED_SIDE_B) == 13

    @pytest.mark.parametrize("name", _TAGGED_SIDE_B)
    def test_side_b_reads_no_varied_name(self, name):
        assert not _side_b_moves(EXPERIMENTS[name])

    def test_negative_control_side_b_reads_kappa(self):
        # HDN reads kappa, so varying it moves side B
        assert _side_b_moves(replace(EXPERIMENTS["delta_to_0"], vary=("kappa",)))

    def test_side_b_solved_once_per_probe_time(self, monkeypatch):
        calls = Counter()

        def counting(tag, *args, **kwargs):
            calls[tag] += 1
            return solve_grid(tag, *args, **kwargs)

        monkeypatch.setattr(verification, "solve_grid", counting)
        run_limit("delta_to_0")
        # four rungs of side A and one side-B solve at each of the three
        # probe times of region Q
        assert calls == {"HDD": 12, "HDN": 3}


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


class TestNanFails:
    """A NaN deviation fails the verdict wherever it falls in the rows."""

    @staticmethod
    def nan_at(t_nan):
        def solve(tag, p, data, xp, xn, t, *args, **kwargs):
            u, err, conv = solve_grid(tag, p, data, xp, xn, t, *args, **kwargs)
            if t == t_nan:  # the first probe of that time reads NaN
                u = np.where(np.arange(u.size) == 0, math.nan, u)
            return u, err, conv
        return solve

    def test_identity_nan_after_a_finite_row(self, monkeypatch):
        monkeypatch.setitem(IDENTITIES, "nan_rows", (
            lambda spec, seed: ([("finite", 0.0), ("nan", math.nan)], "s"), 1.0))
        rep = check_identity("nan_rows")
        assert math.isnan(rep.max_dev) and rep.passed is False

    def test_run_limit_nan_probe(self, monkeypatch):
        monkeypatch.setattr(verification, "solve_grid", self.nan_at(1.0))
        res = run_limit("eps_to_inf")
        assert math.isnan(res.table[0][1]) and not res.passed

    def test_opnorm_nan_ratio(self, monkeypatch):
        monkeypatch.setattr(verification, "solve_grid", self.nan_at(1.0))
        res = opnorm_decay(math.inf, math.inf, t_ladder=(0.5, 1.0))
        assert math.isnan(res.table[1][1]) and not res.passed

    @staticmethod
    def set_where(value, hit):
        """solve_grid with every value of a call that ``hit(tag, p, t)``
        selects set to ``value``."""
        def solve(tag, p, data, xp, xn, t, *args, **kwargs):
            u, err, conv = solve_grid(tag, p, data, xp, xn, t, *args, **kwargs)
            return np.full_like(u, value) if hit(tag, p, t) else u, err, conv
        return solve

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_run_limit_nonfinite_rung_fails(self, monkeypatch, value):
        # a failed verdict, not fit_rate's ValueError, and no RuntimeWarning
        monkeypatch.setattr(verification, "solve_grid", self.set_where(
            value, lambda tag, p, t: tag == "HDpsi" and p.epsilon == 0.025))
        res = run_limit("hdpsi_eps_to_0")
        assert [h for h, e in res.table if not math.isfinite(e)] == [0.025]
        assert (res.passed, res.fit) == (False, None)
        assert res.detail == f"non-finite value {value!r} at rung 0.025"

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_opnorm_nonfinite_rung_fails(self, monkeypatch, value):
        monkeypatch.setattr(verification, "solve_grid",
                            self.set_where(value, lambda tag, p, t: t == 4.0))
        res = opnorm_decay(1.0, math.inf)
        assert (res.passed, res.fit) == (False, None)
        assert res.detail == f"non-finite value {value!r} at rung 4"

    def test_pde_residual_nan_wall_values(self, monkeypatch):
        monkeypatch.setattr(verification, "dirichlet_radial", lambda *args: math.nan)
        rep = check_identity("pde_residual")
        assert rep.rows[-1][0].startswith("negative-control")
        assert math.isnan(rep.rows[-1][1]) and rep.passed is False


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

    def test_scalar_region_rule_draws_the_same_samples(self, monkeypatch):
        # the sampler's str tags against a copy of the rule that built a
        # string array for every draw
        def array_rule(eps, delta, s, t):
            s = np.asarray(s, dtype=float)
            t = np.asarray(t, dtype=float)
            near = eps * s * s < 6.0 * t
            early = t < 12.0 * delta * delta / eps
            shallow = s + t / delta < delta / eps
            return np.where(near, np.where(early, "D1", "D2"),
                            np.where(shallow, "D3", "D4"))

        p = Params(1.0, 1.0, 1.0, 2)
        for seed in range(1, 6):
            new = verification._sample_regions(p, 1000, np.random.default_rng(seed))
            with monkeypatch.context() as m:
                m.setattr(verification, "region_tag", array_rule)
                old = verification._sample_regions(p, 1000, np.random.default_rng(seed))
            assert new == old

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_needs_two_samples_per_region(self, n):
        with pytest.raises(ValueError, match="n_per_region >= 2"):
            sandwich_check(n_per_region=n)

    @pytest.mark.parametrize("n", [2.5, math.nan])
    def test_samples_per_region_is_a_count(self, n):
        # a TypeError and "not enough values to unpack" before
        with pytest.raises(ValueError, match="^n_per_region must be an integer$"):
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

    @pytest.mark.parametrize("p_exp, q_exp", [(1.0, 2.0), (1.0, 4.0), (2.0, 4.0),
                                              (1.0, 1.5), (1.5, 3.0), (2.0, 8.0),
                                              (1.0, 1.0), (2.0, 2.0)])
    def test_rejects_finite_q_above_p(self, p_exp, q_exp):
        # the probe grid has no L^q norm for finite q, p == q included
        with pytest.raises(ValueError, match="no L\\^q norm"):
            opnorm_decay(p_exp, q_exp)

    @pytest.mark.parametrize("p_exp", [0.0, -1.0, 0.5, math.nan])
    def test_rejects_p_below_one(self, p_exp):
        with pytest.raises(ValueError, match="1 <= p <= q"):
            opnorm_decay(p_exp, math.inf)

    @pytest.mark.parametrize("ladder", [(0.0, 1.0, 2.0, 4.0), (1.0, 2.0, 4.0, math.nan)],
                             ids=["zero-first", "nan-last"])
    def test_rejects_bad_times_before_any_solve(self, monkeypatch, ladder):
        def solve_grid(*args, **kwargs):
            raise AssertionError("solve_grid ran")

        monkeypatch.setattr(verification, "solve_grid", solve_grid)
        with pytest.raises(ValueError, match="^t_ladder must be finite and positive$"):
            opnorm_decay(1.0, math.inf, t_ladder=ladder)

    @pytest.mark.parametrize("p_exp", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("t", [-1.0, 0.0, math.nan, math.inf])
    def test_witness_norm_rejects_bad_time(self, p_exp, t):
        # once a complex number at t < 0, a ZeroDivisionError at t = 0
        with pytest.raises(ValueError, match="^time must be finite and positive$"):
            witness_norm(p_exp, 1.0, t)


class TestMassGrid:
    @pytest.mark.parametrize("axes, match", [
        ({"t": (1.0, 0.0)}, r"^t\[1\] must be finite and positive$"),
        ({"t": (1.0, math.nan)}, r"^t\[1\] must be finite and positive$"),
        ({"x_n": (0.5, -1.0)}, r"^x_n\[1\] must be finite and nonnegative$"),
    ], ids=["t-zero-last", "t-nan-last", "x_n-negative-last"])
    def test_axes_checked_before_the_first_mass(self, monkeypatch, axes, match):
        def total_mass(*args, **kwargs):
            raise AssertionError("total_mass ran")

        monkeypatch.setattr(verification, "total_mass", total_mass)
        with pytest.raises(ValueError, match=match):
            verification._mass_grid(QuadSpec(), **axes)

    def test_mass_rows_converge_near_their_seed_panels(self):
        # total_mass reads neither kappa nor N, so one kappa and one N give
        # criterion 1's 81 distinct rows; a K21 panel rule took 165
        # subdivisions on them
        rows = verification._mass_grid(QuadSpec(), kappa=(1.0,), dim=(2,))
        assert len(rows) == 81
        assert sum(res.subdivisions_used for *_, res in rows) <= 20

    @pytest.mark.parametrize("spot", verification._RADIAL_SPOTS,
                             ids=lambda s: "eps={},delta={},kappa={},N={},x_n={},t={}".format(*s))
    def test_radial_spot_converges_near_its_seed_panels(self, spot):
        # a K21 panel rule took 11, 34, 54 and 48 subdivisions on the four
        eps, delta, kappa, dim, xn, t = spot
        res = verification.total_mass_radial(Params(eps, delta, kappa, dim), xn, t)
        assert res.subdivisions_used <= 15
