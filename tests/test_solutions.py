import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erfc

from dynheat.data import (
    Boundary,
    InitialData,
    Interior,
    NormalProfile,
    UnsupportedDataError,
    interior_value,
    tan_conv,
)
from dynheat.kernels import Params, free_heat_radial
from dynheat.quadrature import QuadSpec
from dynheat.solutions import PROBLEM_TAGS, solve_grid

P111 = Params(1.0, 1.0, 1.0, 2)
ONES = InitialData(Interior("constant", c=1.0), Boundary("constant", c=1.0))
GAUSS_PHI = Interior("heat_gaussian", a=0.4,
                     normal=NormalProfile("gaussian", m=0.6, b=0.3))
GAUSS_PSI = Boundary("heat_gaussian", a=0.5)

XP = np.array([0.0, 0.5, 1.0, 0.0, 2.0])
XN = np.array([0.0, 0.5, 0.25, 2.0, 1.0])


def halfline_gauss_product(x, T, m, b):
    """Closed form of int_0^inf Gamma_1(x - y, T) Gamma_1(y - m, b) dy."""
    mu = (b * x + T * m) / (T + b)
    v = T * b / (T + b)
    return free_heat_radial(1, x - m, T + b) * 0.5 * erfc(-mu / (2.0 * math.sqrt(v)))


def hd0_oracle(p, phi, xp, xn, t):
    """Absorbing-kernel action on separable Gaussian data, fully closed."""
    T = t / p.epsilon
    m, b = phi.normal.m, phi.normal.b
    tang = free_heat_radial(p.dim - 1, np.abs(xp - phi.center), T + phi.a)
    normal = (halfline_gauss_product(xn, T, m, b)
              - halfline_gauss_product(-xn, T, m, b))
    return tang * normal


class TestStationaryAndZero:
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_constants_are_stationary(self, t):
        u, err, conv = solve_grid("HDD", P111, ONES, XP, XN, t)
        assert conv
        assert np.max(np.abs(u - 1.0)) < 1e-9

    def test_constants_other_params(self):
        p = Params(2.0, 0.5, 1.5, 2)
        u, _, _ = solve_grid("HDD", p, ONES, XP, XN, 0.7)
        assert np.max(np.abs(u - 1.0)) < 1e-9

    def test_zero_data_gives_zero(self):
        u, _, _ = solve_grid("HDD", P111, InitialData(), XP, XN, 1.0)
        assert np.all(u == 0.0)

    def test_uniform_bound(self):
        data = InitialData(Interior("constant", c=1.0),
                           Boundary("complement_indicator", rho=1.0))
        u, _, _ = solve_grid("HDD", P111, data, XP, XN, 0.5)
        assert np.max(np.abs(u)) <= 1.0 + 1e-8


class TestLinearityMonotonicity:
    def test_linearity_in_data(self):
        d1 = InitialData(GAUSS_PHI, Boundary("zero"))
        d2 = InitialData(Interior("zero"), GAUSS_PSI)
        u1, e1, _ = solve_grid("HDD", P111, d1, XP, XN, 0.8)
        u2, e2, _ = solve_grid("HDD", P111, d2, XP, XN, 0.8)
        both = InitialData(GAUSS_PHI, GAUSS_PSI)
        u12, e12, _ = solve_grid("HDD", P111, both, XP, XN, 0.8)
        assert np.max(np.abs(u12 - u1 - u2)) <= 2.0 * (e1 + e2 + e12) + 1e-12

    def test_monotone_in_data(self):
        small = InitialData(boundary=GAUSS_PSI)
        peak = float(free_heat_radial(1, 0.0, GAUSS_PSI.a))
        big = InitialData(Interior("constant", c=peak),
                          Boundary("constant", c=peak))
        u_small, _, _ = solve_grid("HDD", P111, small, XP, XN, 0.6)
        u_big, _, _ = solve_grid("HDD", P111, big, XP, XN, 0.6)
        assert np.all(u_small <= u_big + 1e-10)


class TestReductions:
    def test_hd_is_hdd_with_zero_kappa(self):
        data = InitialData(GAUSS_PHI, GAUSS_PSI)
        u_hd, _, _ = solve_grid("HD", P111, data, XP, XN, 0.9)
        u_hdd, _, _ = solve_grid("HDD", Params(1.0, 1.0, 0.0, 2), data, XP, XN, 0.9)
        assert np.all(u_hd == u_hdd)  # same code path, bit for bit

    def test_hd0_closed_form(self):
        data = InitialData(GAUSS_PHI)
        for t in (0.3, 1.2):
            u, _, _ = solve_grid("HD0", P111, data, XP, XN, t)
            ref = hd0_oracle(P111, GAUSS_PHI, XP, XN, t)
            assert np.max(np.abs(u - ref)) < 1e-9

    def test_hd0_closed_form_3d(self):
        p = Params(1.5, 1.0, 1.0, 3)
        data = InitialData(GAUSS_PHI)
        u, _, _ = solve_grid("HD0", p, data, XP, XN, 0.8)
        ref = hd0_oracle(p, GAUSS_PHI, XP, XN, 0.8)
        assert np.max(np.abs(u - ref)) < 1e-9

    def test_ldpsi_indicator_arctan(self):
        rho = 1.0
        data = InitialData(boundary=Boundary("indicator", rho=rho))
        m = XN > 0
        u, _, _ = solve_grid("LDpsi", P111, data, XP[m], XN[m], 1.0)
        ref = (np.arctan((XP[m] + rho) / XN[m])
               - np.arctan((XP[m] - rho) / XN[m])) / math.pi
        assert np.max(np.abs(u - ref)) < 1e-9

    def test_ld_constant_is_one(self):
        data = InitialData(boundary=Boundary("constant", c=1.0))
        u, _, _ = solve_grid("LD", P111, data, XP, XN, 0.7)
        assert np.max(np.abs(u - 1.0)) < 1e-10

    def test_hdpsi_constant_erfc_profile(self):
        data = InitialData(boundary=Boundary("constant", c=1.0))
        for t in (0.5, 2.0):
            u, _, _ = solve_grid("HDpsi", P111, data, XP, XN, t)
            ref = erfc(XN * math.sqrt(P111.epsilon) / (2.0 * math.sqrt(t)))
            assert np.max(np.abs(u - ref)) < 1e-9

    def test_ldpsi_trace_returns_data(self):
        data = InitialData(boundary=GAUSS_PSI)
        u, _, _ = solve_grid("LDpsi", P111, data, XP, np.zeros_like(XP), 1.0)
        assert np.allclose(u, tan_conv(GAUSS_PSI, np.abs(XP), 0.0, 2))

    def test_ldd_reduces_to_ld_at_zero_kappa(self):
        data = InitialData(boundary=GAUSS_PSI)
        p0 = Params(1.0, 1.0, 0.0, 2)
        a, _, _ = solve_grid("LDD", p0, data, XP, XN, 0.8)
        b, _, _ = solve_grid("LD", p0, data, XP, XN, 0.8)
        assert np.max(np.abs(a - b)) < 1e-10


class TestBruteForceOracle:
    def test_full_problem_against_numeric_tangential(self):
        # independent route: numeric tangential integrals of the pointwise
        # kernels (the library eliminates these in closed form)
        from dynheat.dynamic import exchange_log_grid
        from dynheat.kernels import dirichlet_radial, exp_flush
        from dynheat.quadrature import integrate, integrate_nested

        p = Params(1.3, 0.7, 0.9, 2)
        t = 0.8
        data = InitialData(GAUSS_PHI, GAUSS_PSI)
        xs = np.array([0.3, 1.0])
        ns = np.array([0.5, 0.0])
        u, _, _ = solve_grid("HDD", p, data, xs, ns, t)

        def over_window(f):  # y1 in [-20, 20] outer, y_N in [0, 12] inner
            return integrate_nested(lambda y1: integrate(
                lambda yn: f(y1[None, :], yn[:, None]), 0.0, 12.0), -20.0, 20.0).value

        for j in range(len(xs)):
            xpj, xnj = xs[j], ns[j]

            def fb(y1):
                lv, _, _, _ = exchange_log_grid(p, np.abs(xpj - y1),
                                                np.full_like(y1, xnj), t)
                return exp_flush(lv) * free_heat_radial(1, y1, GAUSS_PSI.a)

            B = integrate(fb, -25.0, 25.0).value / p.epsilon

            def fi(y1, yn):
                y1b, ynb = np.broadcast_arrays(y1, yn)
                lv, _, _, _ = exchange_log_grid(p, np.abs(xpj - y1b).ravel(),
                                                (xnj + ynb).ravel(), t)
                h = exp_flush(lv).reshape(y1b.shape)
                return (h * free_heat_radial(1, y1b, GAUSS_PHI.a)
                        * free_heat_radial(1, ynb - 0.6, 0.3))

            I = over_window(fi) / p.delta

            def fg(y1, yn):
                y1b, ynb = np.broadcast_arrays(y1, yn)
                g0 = dirichlet_radial(np.abs(xpj - y1b), xnj, ynb, t / p.epsilon, 2)
                return (g0 * free_heat_radial(1, y1b, GAUSS_PHI.a)
                        * free_heat_radial(1, ynb - 0.6, 0.3))

            A = over_window(fg)
            assert u[j] == pytest.approx(A + B + I, rel=1e-8)


GATE_INTERIORS = (
    Interior("constant", c=1.0),
    GAUSS_PHI,
    Interior("heat_gaussian", a=0.7, center=0.3,
             normal=NormalProfile("indicator", lo=0.2, hi=1.0)),
    Interior("heat_gaussian", a=0.5, normal=NormalProfile("gaussian_slope", b=0.5)),
)
GATE_BOUNDARIES = (Boundary("constant", c=1.0), GAUSS_PSI,
                   Boundary("indicator", rho=1.0),
                   Boundary("complement_indicator", rho=0.5))
POWER_CUTOFF = Interior("heat_gaussian", a=1.0,
                        normal=NormalProfile("power_cutoff", alpha=0.5))


@pytest.mark.parametrize("tag", PROBLEM_TAGS)
def test_empty_probe_set_gives_empty_result(tag):
    # every data kind the tag admits, nonzero interior data included
    cases = [InitialData()]
    if tag not in ("LDD", "LD", "LDpsi", "LDPsi"):
        cases += [InitialData(phi) for phi in GATE_INTERIORS]
    if tag not in ("HDN", "HhN", "HD0"):
        cases += [InitialData(boundary=psi) for psi in GATE_BOUNDARIES]
    if tag in ("HDD", "HD"):
        cases.append(InitialData(POWER_CUTOFF))
    for data in cases:
        u, err, conv = solve_grid(tag, P111, data, [], [], 1.0, theta=1.0)
        assert u.shape == (0,) and err == 0.0 and conv is True


class TestReportedErrorBound:
    # the error reported at rel_tol 1e-4 covers the distance to a
    # reference at rel_tol 1e-11, across tags and the data family
    @pytest.mark.parametrize("case", ["HDD", "HD", "HDN", "HDpsi", "HDPsi", "LDD",
                                      "HDD power cutoff"])
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(draws=st.data())
    def test_error_covers_reference_distance(self, case, draws):
        unit = st.floats(0.5, 2.0)
        p = Params(draws.draw(unit), draws.draw(unit), draws.draw(unit), 2)
        t = draws.draw(st.floats(0.25, 1.0))
        theta = draws.draw(unit)
        pair = dict(min_size=2, max_size=2)
        xp = np.array(draws.draw(st.lists(st.floats(-1.5, 1.5), **pair)))
        xn = np.array(draws.draw(st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 1.5)), **pair)))
        tag = case.split()[0]
        if case == "HDD power cutoff":
            data = InitialData(POWER_CUTOFF)
        else:
            interior = Interior("zero") if tag == "LDD" \
                else draws.draw(st.sampled_from(GATE_INTERIORS))
            boundary = Boundary("zero") if tag == "HDN" \
                else draws.draw(st.sampled_from(GATE_BOUNDARIES))
            data = InitialData(interior, boundary)
        u, err, conv = solve_grid(tag, p, data, xp, xn, t, QuadSpec(rel_tol=1e-4),
                                  theta=theta)
        ref, _, ref_conv = solve_grid(tag, p, data, xp, xn, t,
                                      QuadSpec(rel_tol=1e-11), theta=theta)
        assert conv and ref_conv
        assert err >= np.max(np.abs(u - ref))


class TestValidation:
    def test_boundary_only_tags_reject_interior(self):
        data = InitialData(GAUSS_PHI, GAUSS_PSI)
        for tag in ("LDD", "LD", "LDpsi"):
            with pytest.raises(UnsupportedDataError):
                solve_grid(tag, P111, data, XP, XN, 1.0)

    def test_interior_only_tags_reject_boundary(self):
        data = InitialData(GAUSS_PHI, GAUSS_PSI)
        for tag in ("HDN", "HhN", "HD0"):
            with pytest.raises(UnsupportedDataError):
                solve_grid(tag, P111, data, XP, XN, 1.0)

    def test_theta_required(self):
        data = InitialData(boundary=GAUSS_PSI)
        with pytest.raises(ValueError):
            solve_grid("HDPsi", P111, data, XP, XN, 1.0)
        with pytest.raises(ValueError):
            solve_grid("LDPsi", P111, data, XP, XN, 1.0, theta=-1.0)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            solve_grid("XXX", P111, InitialData(), XP, XN, 1.0)

    def test_power_cutoff_restrictions(self):
        pc = InitialData(Interior("heat_gaussian", a=1.0,
                                  normal=NormalProfile("power_cutoff", alpha=0.5)))
        with pytest.raises(UnsupportedDataError):
            solve_grid("HDN", P111, pc, XP, XN, 1.0)
        with pytest.raises(UnsupportedDataError):
            solve_grid("HDD", Params(1, 1, 1, 3), pc, XP, XN, 1.0)
        with pytest.raises(UnsupportedDataError,
                           match="^power-cutoff data requires zero boundary data$"):
            solve_grid("HDD", P111, InitialData(pc.interior, GAUSS_PSI), XP, XN, 1.0)

    @pytest.mark.parametrize("alpha", [2.0, 2.5, math.inf, -math.inf, math.nan])
    def test_power_cutoff_alpha_rejected(self, alpha):
        # |y|^(-alpha) is not integrable on the unit half-disc for alpha >= 2;
        # alpha = 2 used to return 18.86 and 2.5 return 1.9e31, unconverged,
        # and NaN to fail only after the quadrature
        with pytest.raises(ValueError, match="^power_cutoff profile needs a finite alpha < 2$"):
            NormalProfile("power_cutoff", alpha=alpha)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("make, field", [
        (NormalProfile, "m"), (NormalProfile, "b"), (NormalProfile, "lo"),
        (NormalProfile, "hi"), (NormalProfile, "alpha"),
        (Interior, "c"), (Interior, "center"), (Interior, "a"),
        (Boundary, "c"), (Boundary, "center"), (Boundary, "a"), (Boundary, "rho"),
    ], ids=lambda v: v if isinstance(v, str) else v.__name__)
    def test_nonfinite_data_field_rejected(self, make, field, value):
        # every float field of a datum passes the range rule whatever the
        # kind reads; NormalProfile(m=nan) used to fail inside the
        # quadrature and Interior(a=inf) with a message about time.  As no
        # such datum can be built, solve_grid can no longer return what it
        # did at t = 1 with Params(1, 1, 1, 2): (nan, nan, True) for HD0 on
        # an Interior c = nan, (inf, inf, True) for HhN on c = inf, NaN with
        # error 0.0 converged for HDpsi on a Boundary c = nan and for LDpsi
        # on a heat_gaussian Boundary center = nan (wall probes), and
        # (0.0, 0.0, True) for HD0 on a heat_gaussian Interior center = inf
        kind = "gaussian" if make is NormalProfile else "constant"
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            make(kind, **{field: value})

    @pytest.mark.parametrize("make, kwargs, match", [
        (NormalProfile, {"kind": "indicator", "lo": 1.0, "hi": 1.0},
         "^indicator profile needs lo < hi$"),
        (NormalProfile, {"kind": "indicator", "lo": 2.0, "hi": 1.0},
         "^indicator profile needs lo < hi$"),
        (Boundary, {"kind": "ring"}, "^unknown boundary data 'ring'$"),
    ], ids=["indicator-empty", "indicator-reversed", "boundary-unknown-kind"])
    def test_datum_guards(self, make, kwargs, match):
        with pytest.raises(ValueError, match=match):
            make(**kwargs)

    def test_negative_normal_rejected(self):
        with pytest.raises(ValueError):
            solve_grid("HDD", P111, ONES, [0.0], [-0.5], 1.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("tag", PROBLEM_TAGS)
    def test_nonfinite_time_rejected(self, tag, t):
        # checked up front, as the kernels check it, so that no tag returns
        # a value, converged or not, at a time outside (0, inf)
        data = InitialData(GAUSS_PHI) if tag in ("HDN", "HhN", "HD0") \
            else InitialData(boundary=GAUSS_PSI)
        with pytest.raises(ValueError, match="^time must be finite and positive$"):
            solve_grid(tag, P111, data, [0.0], [0.5], t, theta=1.0)


class TestNormalProfileBelowTheWall:
    # a normal Gaussian centred at y = m < 0 is below exp(-TAIL_EXPONENT)
    # on the whole half-space once its support cut is <= 0: the term is zero
    @pytest.mark.parametrize("tag, inside", [
        ("HDD", 8.32004744e-19), ("HD0", 5.14648569e-20), ("HDN", 1.00017171e-18)])
    def test_far_below_the_wall_is_zero(self, tag, inside):
        def solve(m):
            data = InitialData(Interior("heat_gaussian", a=0.5,
                                        normal=NormalProfile("gaussian", m=m, b=1.0)))
            return solve_grid(tag, P111, data, [0.0], [0.5], 1.0)

        u, err, conv = solve(-20.0)
        assert u.tolist() == [0.0] and err == 0.0 and conv
        u, _, conv = solve(-12.0)   # cut just above 0: the quadrature as before
        assert conv and u[0] == pytest.approx(inside, rel=1e-8)

    def test_gaussian_slope_ignores_m(self):
        # the slope profile y/(2b) Gamma_1(y, b) never reads m, so neither
        # does its support cut: m = -30 used to cut the normal integral at
        # y <= 0 and return [0, 0], error 0, converged
        def solve(m):
            data = InitialData(Interior("heat_gaussian", a=1.0, normal=NormalProfile(
                "gaussian_slope", m=m, b=1.0)))
            return solve_grid("HDD", Params(1, 1, 1, 2), data, [0.0, 0.5], [0.5, 1.0], 1.0)

        u, err, conv = solve(-30.0)
        u0, err0, conv0 = solve(0.0)
        assert u.tolist() == u0.tolist() and err == err0 and conv and conv0
        assert u0 == pytest.approx([0.01030239, 0.01155767], rel=1e-6)


class TestTraceBehaviour:
    def test_gaussian_boundary_trace_small_time(self):
        data = InitialData(boundary=GAUSS_PSI)
        u, _, _ = solve_grid("HDD", P111, data, XP, np.zeros_like(XP), 1e-3)
        target = tan_conv(GAUSS_PSI, np.abs(XP), 0.0, 2)
        assert np.max(np.abs(u - target)) < 0.05

    def test_power_cutoff_subcritical_trace_vanishes(self):
        spec = QuadSpec(rel_tol=1e-6, abs_tol=1e-9)
        pc = InitialData(Interior("heat_gaussian", a=2.0,
                                  normal=NormalProfile("power_cutoff", alpha=0.5)))
        u, _, _ = solve_grid("HDD", P111, pc, [0.0], [0.0], 1e-3, spec)
        assert 0.0 < u[0] < 0.05


class TestWitness:
    # the witness data of opnorm_decay at eps = t = 1
    PHI = Interior("heat_gaussian", a=1.0, normal=NormalProfile("gaussian_slope", b=1.0))

    def test_values(self):
        assert interior_value(self.PHI, 0.0, 1.0, 2) == pytest.approx(
            0.030987498577413244, abs=1e-16)
        assert interior_value(self.PHI, 0.7, 0.0, 2) == 0.0

    def test_norm_scaling_is_exact(self):
        from dynheat.verification import witness_norm

        ts = np.array([1.0, 2.0, 4.0, 8.0])
        vals = np.array([witness_norm(math.inf, 1.0, t, 2) for t in ts])
        slopes = np.log(vals[:-1] / vals[1:]) / math.log(2.0)
        assert np.allclose(slopes, 1.5, atol=1e-12)

    def test_response_reduces_to_time_shift_without_exchange(self):
        # with a huge capacity the exchange term is negligible and the
        # response is the witness at the doubled time
        p = Params(1.0, 1e8, 1.0, 2)
        xp = np.array([0.0, 0.5])
        xn = np.array([0.7, 1.0])
        u, _, _ = solve_grid("HDD", p, InitialData(self.PHI), xp, xn, 1.0)
        rho = np.hypot(xp, xn)
        ref = xn / 4.0 * free_heat_radial(2, rho, 2.0)
        assert np.max(np.abs(u - ref)) < 1e-9


# solve_grid on every tag, pinned bit for bit: each admitted mix of a
# centred interior Gaussian and heat-Gaussian or complement-indicator
# boundary data, two Params and two times, with probes on the wall (x_N = 0)
# and inside.  A tag's row is a sha256 prefix of the float.hex of every
# value and error, and whether every solve converged.
GOLDEN_PHI = Interior("heat_gaussian", a=0.4, center=-0.2,
                      normal=NormalProfile("gaussian", m=0.6, b=0.3))
GOLDEN_PSIS = (Boundary("heat_gaussian", a=0.5, center=0.3),
               Boundary("complement_indicator", rho=0.8))
GOLDEN_XP = np.array([0.0, 0.5, -1.0, 1.2, 0.3])
GOLDEN_XN = np.array([0.0, 0.0, 0.0, 0.4, 1.5])


def _solve_golden(tag):
    if tag in ("LDD", "LD", "LDpsi", "LDPsi"):
        cases = [InitialData(boundary=psi) for psi in GOLDEN_PSIS]
    elif tag in ("HDN", "HhN", "HD0"):
        cases = [InitialData(GOLDEN_PHI)]
    else:
        cases = [InitialData(GOLDEN_PHI, psi) for psi in GOLDEN_PSIS]
    hexes, converged = [], True
    for p in (P111, Params(0.5, 2.0, 0.3, 2)):
        for data in cases:
            for t in (0.5, 2.0):
                u, err, conv = solve_grid(tag, p, data, GOLDEN_XP, GOLDEN_XN, t, theta=0.7)
                hexes += [float(x).hex() for x in u] + [float(err).hex()]
                converged = converged and bool(conv)
    return hashlib.sha256(" ".join(hexes).encode()).hexdigest()[:32], converged


_SOLVE_GOLDEN = {
    "HDD": ("a6dbccfdf13fe4d531830229652adcee", True),
    "HD": ("3d42b244c8c8998eb65f0aa7ccb079ce", True),
    "LDD": ("7044676ac9d26bce9bc54fc2250a8a8a", True),
    "LD": ("b611ef2be857f4874ea582958c2b7afe", True),
    "HDN": ("4e4c4bc07e4fff9e4b0ba6f17b0eb4b4", True),
    "HhN": ("c120163a1c7935c1d4c375e633829a7f", True),
    "HD0": ("9afff57be938a99829e8aa90def98968", True),
    "HDpsi": ("fcf6d67fffdfa5fbf359aba543083a35", True),
    "HDPsi": ("24d5e63bb7ca6aa9e14c90af0bd78f50", True),
    "LDpsi": ("737435dda70feb09aed5d98d41914f88", True),
    "LDPsi": ("3d9bb15d25ac9e36eae1d8ee8fc8ea7e", True),
}


@pytest.mark.parametrize("tag", PROBLEM_TAGS)
def test_solve_golden(tag):
    assert _solve_golden(tag) == _SOLVE_GOLDEN[tag]


_PROFILE_PHI = Interior("heat_gaussian", a=0.5, normal=NormalProfile("gaussian", m=0.6, b=0.3))
_PROFILE_PSI = Boundary("heat_gaussian", a=0.4)
_PROFILE_T = 1e10


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("eps, delta, kappa", [(0.7, 1.3, 0.8), (1.0, 1.0, 1.0),
                                                (2.0, 0.5, 2.0)])
@pytest.mark.parametrize("tag", ["HDD", "HDN"])
def test_large_time_profile(tag, eps, delta, kappa, dim):
    # with the conserved mass M = int phi + (delta/eps) int psi, t^(N/2) u
    # tends to 2 (eps/4 pi)^(N/2) M on bounded sets, the long-time limit of
    # the fundamental solution; HDN with interior data alone conserves
    # M = int phi.  The first check of N = 3 solution values.  Measured at
    # t = 1e10: at most 4.4e-5 (HDD) and 5.0e-5 (HDN), every solve
    # converged; the gate leaves 4x.  A 1.01 delta HDD solve misses by at
    # least 2.4e-3, a 1.01 eps HDN solve by at least 1.0e-2
    phi_mass = 0.5 * math.erfc(-_PROFILE_PHI.normal.m / math.sqrt(4.0 * _PROFILE_PHI.normal.b))
    if tag == "HDD":
        data, mass = InitialData(_PROFILE_PHI, _PROFILE_PSI), phi_mass + delta / eps
        off = Params(eps, 1.01 * delta, kappa, dim)
    else:
        data, mass = InitialData(_PROFILE_PHI), phi_mass
        off = Params(1.01 * eps, delta, kappa, dim)
    limit = 2.0 * (eps / (4.0 * math.pi * _PROFILE_T)) ** (dim / 2) * mass
    xp, xn = [0.0, 1.0], [0.5, 0.0]
    u, _, conv = solve_grid(tag, Params(eps, delta, kappa, dim), data, xp, xn, _PROFILE_T)
    assert conv
    assert np.max(np.abs(u / limit - 1.0)) <= 2e-4
    u_off, _, _ = solve_grid(tag, off, data, xp, xn, _PROFILE_T)
    assert np.min(np.abs(u_off / limit - 1.0)) > 2e-4
