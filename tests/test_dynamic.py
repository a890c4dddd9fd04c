import hashlib
import math
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest

from dynheat import dynamic
from dynheat.data import Boundary, InitialData
from dynheat.dynamic import (
    Envelope,
    SingularConfigurationError,
    _pointwise_tan,
    dirichlet_layer_batch,
    dirichlet_layer_kernel,
    envelope,
    exchange_kernel,
    exchange_log_grid,
    exchange_marginal_boundary,
    exchange_marginal_interior,
    exchange_weighted,
    fundamental_grid,
    fundamental_kernel,
    gauss_layer_batch,
    hdn_batch,
    heat_neumann_grid,
    heat_neumann_kernel,
    heat_neumann_mass,
    laplace_dynamic_kernel,
    laplace_dynamic_mass,
    marginal_boundary_reference,
    marginal_interior_reference,
    region_tag,
    separable_exchange_log,
    total_mass,
    total_mass_radial,
)
from dynheat.kernels import (
    HalfSpacePoint,
    Params,
    dirichlet_kernel,
    exp_flush,
    free_heat_radial,
    gaussian_interval_mass,
    neumann_kernel,
    poisson_kernel,
)
from dynheat.quadrature import DEFAULT_SPEC, EvaluationError, QuadSpec, integrate
from dynheat.solutions import _tan_factory, solve_grid
from dynheat.verification import _DIM_AXIS, _PARAM_AXIS, _T_AXIS, _XN_AXIS

P111 = Params(1.0, 1.0, 1.0, 2)


def parameter_sweep(n=600):
    """Derandomised sweep off the unit box: (epsilon, delta, kappa)
    log-uniform on [0.05, 20], t log-uniform on [1e-3, 10], r and s
    uniform on [0, 5] with s = 0 on every fifth sample, N alternating 2, 3.
    Returns (Params, r, s, t) tuples."""
    rng = np.random.default_rng(7)
    out = []
    for i in range(n):
        eps, delta, kappa = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 3))
        t = math.exp(rng.uniform(math.log(1e-3), math.log(10.0)))
        r = rng.uniform(0.0, 5.0)
        s = 0.0 if i % 5 == 0 else rng.uniform(0.0, 5.0)
        out.append((Params(float(eps), float(delta), float(kappa), 2 + i % 2), float(r), s, t))
    return out


SWEEP = parameter_sweep()


# log H(r, s, t) to 25 digits for samples of SWEEP (every 12th, plus 6, 15,
# 40 and 212: narrow, boundary-layer and distant peaks), computed once with
# mpmath at 40 digits.  The defining time integral was taken in
# u = log(t - tau), split at the integrand's peak and at geometrically
# growing offsets around it; a rerun at 50 digits with a finer split agreed
# to 4e-36.
EXCHANGE_LOG_REF = {
    0: "-144.3139353329020534170374",
    6: "-3484.973798423475174090649",
    12: "-5.147807431961089568868188",
    15: "-1626.764949878393512514405",
    24: "-829.0617737258862034492069",
    36: "-1127.264483293003662895224",
    40: "-18711.36810664670447947344",
    48: "-294.8145469758646249290458",
    60: "-4.161795447978353689918358",
    72: "-14.52262862388811637536535",
    84: "-271.5078603047239145147444",
    96: "-214.3100164399849064198493",
    108: "-24475.20783721817454613563",
    120: "-68.50219518055790944556616",
    132: "-27.89799189939020450868252",
    144: "-23.07812989274388325063218",
    156: "-2.224391102017742273405592",
    168: "-4.725711017234906933952037",
    180: "-7.516815609707664019113911",
    192: "-6432.48774122321774534501",
    204: "-1545.266523892921186856848",
    212: "-5161.92253325707340864084",
    216: "-515.2427962354556123203484",
    228: "-5.944069265930606825010866",
    240: "-475.9819001104943868126974",
    252: "-5.564280126834532918004784",
    264: "-2901.427164473693298631043",
    276: "-1035.498033021007837058828",
    288: "-5.942992862032289432023702",
    300: "-2.667659769629978382557493",
    312: "-100.7721947528909021526425",
    324: "-97.79068875054737947832548",
    336: "-573.6666605096563537028995",
    348: "-6.513444883893227387720353",
    360: "-477.5306585247796339866985",
    372: "-20.66787744334524681381822",
    384: "-48.89604786384998649756397",
    396: "-54.87487390584892081981412",
    408: "-6.918057628158719464894639",
    420: "-4.293087466399137085093205",
    432: "-74163.61368661336832798949",
    444: "-204.4365608963544866420992",
    456: "-7.65253649507028187770937",
    468: "-13.01068250609532870683248",
    480: "-3.833859258162377326272299",
    492: "-50.95727671262101516849158",
    504: "-22.64258337895469881526322",
    516: "-13168.61446787120196130159",
    528: "-78.25400110978768963304165",
    540: "-5.115172533439719610715092",
    552: "-1488.987301498826789158212",
    564: "0.6869485581239077133562661",
    576: "-676.9887701264329428915284",
    588: "-5.517525604345253424161921",
}
# symmetry-suite sample 471 (seed 2024), where the former time-variable
# path missed its reported error
SYMMETRY_471 = (Params(0.6068029278315161, 1.945860573898854, 1.9978966984891953, 3),
                2.3510590577704393, 2.2264213633764087, 0.7599448706433177, "-6.428793899101096520855658")


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
        (lambda r, xn, yn, t: heat_neumann_grid(P111, r, xn, yn, t),
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

    def test_frame_chunks_keep_every_bit(self, monkeypatch):
        # the peak search runs on chunks of components; each of its steps is
        # per component, so one search over the whole batch gives the same
        # frame, and so the same values and errors, bit for bit
        import dynheat.dynamic as dynamic

        rng = np.random.default_rng(3)
        r, s = rng.uniform(0.0, 5.0, 600), rng.uniform(0.0, 5.0, 600)
        s[::17] = 0.0
        p = Params(0.5, 2.0, 0.5, 2)
        assert 2 * dynamic._FRAME_CHUNK < s.size
        chunked = exchange_log_grid(p, r, s, 0.1)
        monkeypatch.setattr(dynamic, "_FRAME_CHUNK", s.size)
        whole = exchange_log_grid(p, r, s, 0.1)
        for a, b in zip(chunked[:2], whole[:2]):
            assert a.tobytes() == b.tobytes()
        assert chunked[2:] == whole[2:]

    def test_frame_evaluates_only_its_search_nodes(self, monkeypatch):
        # the frame reads its width off the nodes of its peak search: each
        # component is evaluated on the coarse grid once and on 17 nodes per
        # zoom pass, and on no further node
        import dynheat.dynamic as dynamic

        calls, xi_map = [], dynamic._xi_map

        def counted(eps, delta, kappa, s, t):
            normal = xi_map(eps, delta, kappa, s, t)

            def wrapped(eta):
                calls.append((eta.shape[0], s.size))
                return normal(eta)

            return wrapped

        monkeypatch.setattr(dynamic, "_xi_map", counted)
        # the quadrature is left out, so only the frame's nodes are counted
        monkeypatch.setattr(dynamic, "_exchange_core",
                            lambda eps, delta, kappa, s, *_: (np.ones(s.size), np.zeros(s.size),
                                                              0, True))
        # the zoomed 78-wide batch of test_kernel_golden: 5 components zoom
        exchange_log_grid(Params(0.5, 2, 0.5, 2), np.linspace(0, 6, 13)[:, None],
                          [[0, 0.01, 0.1, 0.5, 1, 3]], 0.1)
        assert calls[0] == (dynamic._COARSE.size, 78) and dynamic._COARSE.size == 63
        assert len(calls) > 1
        assert all(nodes == 17 and 0 < width < 78 for nodes, width in calls[1:])

    # Deep-tail rows of a single-point draw (default_rng(11): (eps, delta,
    # kappa) log-uniform on [0.01, 100], t on [1e-4, 100], r on [1e-3, 60],
    # s on [1e-4, 30]), each ((eps, delta, kappa, N), r, s, t) and named by
    # its -log H.  Their peaks sit between coarse nodes, so the frame must
    # zoom: a frame that stops after the coarse sweep shifts by a log-mass
    # too low and the integrand overflows (10 of the draw's 3,000 rows
    # raised, these three among them)
    _ZOOMED = [((1.4388806553305686, 0.02762683901028005, 0.0577759986232243, 3),
                13.872586864379063, 1.4674081195453854, 0.00046757620810343995),
               ((45.37075813503974, 2.805706982466495, 0.5503446693881848, 3),
                22.786943599426838, 1.5467889681382334, 0.0038171316655779856),
               ((51.347426362408285, 11.989333962347969, 1.8181894567253278, 2),
                12.757563152863629, 2.214541574614389, 0.0002897886670087776)]

    @pytest.mark.parametrize("params, r, s, t", _ZOOMED, ids=["65215", "245887", "1952611"])
    def test_deep_tail_rows_need_the_zoom(self, params, r, s, t):
        p = Params(*params)
        lv, rel, _, conv = exchange_log_grid(p, [r], [s], t)
        assert conv and np.isfinite(lv[0])
        tight, tight_rel, _, _ = exchange_log_grid(p, [r], [s], t,
                                                   QuadSpec(rel_tol=1e-13, abs_tol=1e-300))
        assert abs(math.expm1(lv[0] - tight[0])) <= rel[0] + tight_rel[0]


class TestExchangeSweep:
    @pytest.mark.filterwarnings("error")
    def test_sweep_is_finite_converged_and_relatively_accurate(self):
        rel_tol = QuadSpec().rel_tol
        for p, r, s, t in SWEEP:
            lv, rel, _, conv = exchange_log_grid(p, [r], [s], t)
            assert conv and np.isfinite(lv[0])
            assert rel[0] <= 2.0 * rel_tol  # the shift makes rel_tol the binding one

    @pytest.mark.filterwarnings("error")
    def test_against_40_digit_values(self):
        cases = [(*SWEEP[i], ref) for i, ref in EXCHANGE_LOG_REF.items()] + [SYMMETRY_471]
        for p, r, s, t, ref in cases:
            lv, rel, _, conv = exchange_log_grid(p, [r], [s], t)
            hi = float(ref)
            lo = float(Decimal(ref) - Decimal(hi))  # hi + lo carries all 25 digits
            assert conv
            assert abs(math.expm1((lv[0] - hi) - lo)) <= rel[0]


_REGIME_PARAMS = [(1.0, 1.0, 1.0), (0.5, 2.0, 0.5), (2.0, 0.5, 2.0)]
_LONG_T, _SHORT_T = 1e10, 1e-8
_X_FAR, _Y_FAR = HalfSpacePoint(0.0, 1.0), HalfSpacePoint(0.5, 0.5)


def _long_time_limit(p):
    """2 (eps/4 pi t)^(N/2) at t = _LONG_T: the wall's capacity is negligible
    against the bulk, and G tends to the Neumann half-space kernel of
    eps u_t = Laplace u with unit bulk mass."""
    return 2.0 * (p.epsilon / (4.0 * math.pi * _LONG_T)) ** (p.dim / 2)


def _short_time_wall(p):
    """Wall points x, y at r = 0.3 sqrt(T), T = kappa t/delta, t = _SHORT_T,
    and the limit (eps/delta) K_(N-1)(r, T) there: the mass starts on the
    wall, where delta u_t = kappa Laplace' u + d_z u."""
    T = p.kappa * _SHORT_T / p.delta
    r = 0.3 * math.sqrt(T)
    limit = p.epsilon / p.delta * free_heat_radial(p.dim - 1, r, T)
    return HalfSpacePoint(r, 0.0), HalfSpacePoint(0.0, 0.0), limit


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("eps, delta, kappa", _REGIME_PARAMS)
class TestTimeRegimes:
    # the fundamental solution at both ends of the time axis, far outside
    # the sweep's t in [1e-3, 10].  Measured deviations: at most 4.4e-5 at
    # t = 1e10 (4.4e-4 at 1e8) and 2.7e-4 at t = 1e-8 (2.7e-3 at 1e-6),
    # every call converged; the gates leave 4.5x and 3.7x.  A kernel built
    # with 1.01 eps misses each limit by about 1e-2

    def test_long_time_limit(self, eps, delta, kappa, dim):
        p = Params(eps, delta, kappa, dim)
        g = fundamental_kernel(p, _X_FAR, _Y_FAR, _LONG_T)
        assert g.converged
        assert abs(g.value / _long_time_limit(p) - 1.0) <= 2e-4
        # the absorbing kernel decays faster: it reads -1
        g0 = dirichlet_kernel(_X_FAR, _Y_FAR, _LONG_T / eps, dim)
        assert g0 / _long_time_limit(p) - 1.0 < -0.99
        off = fundamental_kernel(Params(1.01 * eps, delta, kappa, dim), _X_FAR, _Y_FAR, _LONG_T)
        assert abs(off.value / _long_time_limit(p) - 1.0) > 2e-4

    def test_short_time_wall_limit(self, eps, delta, kappa, dim):
        p = Params(eps, delta, kappa, dim)
        x, y, limit = _short_time_wall(p)
        g = fundamental_kernel(p, x, y, _SHORT_T)
        assert g.converged
        assert abs(g.value / limit - 1.0) <= 1e-3
        # not 1.01 delta: in N = 3 its weight eps/delta and its time
        # kappa t/delta cancel to about 4e-4
        off = fundamental_kernel(Params(1.01 * eps, delta, kappa, dim), x, y, _SHORT_T)
        assert abs(off.value / limit - 1.0) > 1e-3


# Points on kappa eps / delta = 1, where the exchange kernel has a closed
# form (``separable_exchange_log``): the reference point in N = 2 and 3,
# and a point with eps, delta and kappa all off 1.
_SEPARABLE = [Params(1.0, 1.0, 1.0, 2), Params(1.0, 1.0, 1.0, 3), Params(0.5, 2.0, 4.0, 3)]
_SEPARABLE_RS = [(0.0, 0.2), (0.5, 0.5), (1.5, 1.0)]


class TestSeparableSurface:
    @pytest.mark.parametrize("t", [1e160, 1e200, 1e300])
    @pytest.mark.parametrize("p", _SEPARABLE, ids=["111-2", "111-3", "off-unit-3"])
    def test_large_time_matches_the_closed_form(self, p, t):
        # from t of about 5e149 delta, (4t/delta) z passes the float range:
        # the map that did not divide it through by sqrt(z) read log H 185
        # too high at t = 1e160 and 231 at 1e200, both converged, and raised
        # EvaluationError at 1e300.  Measured: within 1.7e-16
        lv, rel, _, conv = exchange_log_grid(p, [0.5], [0.5], t)
        ref = separable_exchange_log(p, 0.5, 0.5, t)
        assert conv
        assert abs(lv[0] - ref) <= 1e-10 * abs(ref)

    def test_large_time_profile_of_the_fundamental_solution(self):
        # t G -> 2 eps / (4 pi) in N = 2 (TestTimeRegimes), here at t = 1e200
        g = fundamental_kernel(P111, _X_FAR, _Y_FAR, 1e200)
        assert g.converged
        assert abs(1e200 * g.value * 2.0 * math.pi - 1.0) <= 1e-10

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("r, s", _SEPARABLE_RS)
    def test_a_kernel_off_the_surface_misses_it(self, r, s, dim):
        # the control: 1.01 kappa leaves kappa eps / delta = 1, and its log H
        # missed the closed form by 7.7e-5 to 1.8e-3 relative on these rows
        p = Params(1.0, 1.0, 1.0, dim)
        ref = separable_exchange_log(p, r, s, 1.0)
        lv, _, _, conv = exchange_log_grid(p, [r], [s], 1.0)
        assert conv and abs(lv[0] - ref) <= 1e-10 * abs(ref)
        off, _, _, conv = exchange_log_grid(Params(1.0, 1.0, 1.01, dim), [r], [s], 1.0)
        assert conv and abs(off[0] - ref) > 1e-10 * abs(ref)

    @pytest.mark.parametrize("off", [1.0, 1.01], ids=["on", "off-1.01-kappa"])
    def test_random_samples_match_the_closed_form(self, off):
        # 400 draws across kappa eps / delta = 1 at QuadSpec(1e-11, 1e-300):
        # all converged, and the worst used 0.242 of its reported error.
        # The control builds the kernel with off * kappa, which leaves the
        # surface: every row then misses its gate, so 40 rows suffice
        spec = QuadSpec(rel_tol=1e-11, abs_tol=1e-300)
        rng = np.random.default_rng(27)
        missed = 0
        n = 400 if off == 1.0 else 40
        for i in range(n):
            eps, delta = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 2))
            r, s = rng.uniform(0.0, 3.0, 2)
            t = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            p = Params(eps, delta, delta / eps, 2 + i % 2)
            lv, rel, _, conv = exchange_log_grid(replace(p, kappa=off * p.kappa),
                                                 [r], [s], t, spec)
            assert conv
            missed += abs(math.expm1(lv[0] - separable_exchange_log(p, r, s, t))) > rel[0]
        assert missed == (0 if off == 1.0 else n)

    def test_the_closed_form_holds_only_on_the_surface(self):
        with pytest.raises(ValueError, match="kappa epsilon / delta = 1"):
            separable_exchange_log(Params(1.0, 1.0, 1.01, 2), 0.5, 0.5, 1.0)


class TestMarginals:
    @pytest.mark.parametrize("eps,delta,xn,t", [
        (1.0, 1.0, 0.3, 0.5),
        (2.0, 0.5, 0.7, 1.3),
        (0.5, 2.0, 0.0, 0.1),
    ])
    def test_interior_marginal_matches_reference(self, eps, delta, xn, t):
        p = Params(eps, delta, 1.0, 2)
        got = exchange_marginal_interior(p, xn, t).value / delta
        ref = marginal_interior_reference(p, xn, t)
        assert got == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("eps,delta,xn,t", [
        (1.0, 1.0, 0.3, 0.5),
        (2.0, 0.5, 0.7, 1.3),
    ])
    def test_boundary_marginal_matches_reference(self, eps, delta, xn, t):
        p = Params(eps, delta, 1.0, 2)
        got = exchange_marginal_boundary(p, xn, t).value / eps
        ref = marginal_boundary_reference(p, xn, t)
        assert got == pytest.approx(ref, rel=1e-8)

    def test_closed_forms_close_the_mass(self):
        # with the absorbing-boundary mass erf(a) the marginals sum to 1
        for p, _, xn, t in SWEEP[::7]:
            a = math.sqrt(p.epsilon) * xn / (2.0 * math.sqrt(t))
            total = (math.erf(a) + marginal_interior_reference(p, xn, t)
                     + marginal_boundary_reference(p, xn, t))
            assert abs(total - 1.0) <= 4e-16

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("side", ["boundary", "interior"])
    def test_sweep_against_closed_forms(self, side):
        spec = QuadSpec()
        # the one boundary-marginal sample whose reported error once
        # missed the truth (5.0e-13 against 4.5e-13)
        miss = (Params(0.05858686973786566, 16.015047282722687, 3.5958456764082305, 2),
                0.0, 0.0, 0.006591049810069323)
        checked = 0
        for p, _, xn, t in SWEEP + [miss]:
            if side == "boundary":
                res, weight = exchange_marginal_boundary(p, xn, t, spec), p.epsilon
                exact = marginal_boundary_reference(p, xn, t)
            else:
                res, weight = exchange_marginal_interior(p, xn, t, spec), p.delta
                exact = marginal_interior_reference(p, xn, t)
            # rounding of the closed form: a few ulps of its two terms,
            # amplified by 2 a^2 through the exponent e^(-a^2)
            a2 = p.epsilon * xn * xn / (4.0 * t)
            rounding = 8.0 * np.finfo(float).eps * (1.0 + a2) * (
                math.erfc(math.sqrt(a2)) + marginal_boundary_reference(p, xn, t))
            true_err = abs(res.value - weight * exact)
            assert res.converged
            assert true_err <= res.tolerance(spec) + weight * rounding
            # the reported error is a bound at every sample, far below
            # abs_tol too (interior sample 174 once missed it)
            assert true_err <= res.error_estimate + weight * rounding
            checked += 1
        assert checked >= 601

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

    @pytest.mark.parametrize("eps,delta,xn,t", [
        (0.5, 2.0, 0.5, 1.0), (2.0, 0.5, 3.0, 0.1), (1.0, 1.0, 0.0, 10.0),
    ])
    def test_total_mass_reads_neither_kappa_nor_dim(self, eps, delta, xn, t):
        # both exchange marginals close the tangential integral, so the
        # (kappa, N) copies of a mass-grid row are one computation; the
        # kappa and N axes of criterion 1 reach the kernel only through
        # total_mass_radial
        results = {repr((tuple(total_mass(p, xn, t)),
                         tuple(exchange_marginal_interior(p, xn, t)),
                         tuple(exchange_marginal_boundary(p, xn, t))))
                   for p in (Params(eps, delta, kappa, dim)
                             for kappa in (0.0, 0.5, 1.0, 2.0) for dim in (2, 3))}
        assert len(results) == 1

    def test_total_mass_radial(self):
        res = total_mass_radial(Params(1.0, 1.0, 1.0, 2), 0.5, 1.0)
        assert abs(res.value - 1.0) < 1e-6
        res = total_mass_radial(Params(2.0, 0.5, 1.0, 3), 0.0, 1.0)
        assert abs(res.value - 1.0) < 1e-6

    @pytest.mark.parametrize("delta,kappa,xn,t,dim", [
        (1.0, 1.0, 0.5, 0.8, 2), (0.5, 2.0, 0.0, 1.0, 3), (1.0, 2.0, 3.0, 10.0, 3),
    ])
    def test_laplace_dynamic_mass(self, delta, kappa, xn, t, dim):
        res = laplace_dynamic_mass(Params(1.0, delta, kappa, dim), xn, t)
        assert abs(res.value - 1.0) < 1e-8

    @pytest.mark.parametrize("eps,kappa,xn,t,dim", [
        (1.0, 1.0, 0.5, 1.0, 2), (0.5, 2.0, 0.0, 1.0, 3),
    ])
    def test_heat_neumann_mass(self, eps, kappa, xn, t, dim):
        res = heat_neumann_mass(Params(eps, 1.0, kappa, dim), xn, t)
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

    def test_near_wall_window_is_resolved(self):
        # the mass sits in eta below x_N sqrt(eps/t)/2 ~ 1.8e-4: a range not
        # mapped to that width puts it under the rule's first node and
        # reports 1.27e-15, converged
        p, x, y = Params(0.25, 1, 1, 2), HalfSpacePoint(8.0, 0.001), HalfSpacePoint(0.0, 0.0)
        tight = QuadSpec(rel_tol=1e-12, abs_tol=1e-300, max_subdivisions=5000)
        ref = dirichlet_layer_kernel(p, 4.0, x, y, 2.0, tight).value
        assert ref == pytest.approx(1.8932e-7, rel=1e-4)
        assert dirichlet_layer_kernel(p, 4.0, x, y, 2.0).value == pytest.approx(ref, rel=1e-6)


def limit_kernel_sweep(n=200):
    """Seeded argument rows of ``dirichlet_layer_kernel`` and
    ``heat_neumann_kernel``: (epsilon, kappa, theta) log-uniform on
    [0.1, 10], t log-uniform on [0.01, 10], x_N log-uniform on [1e-300, 3]
    on every third sample and on [1e-8, 3] otherwise, r uniform on [0, 8],
    y_N = 0 on every fourth sample, N alternating 2, 3.  The Dirichlet rows
    start with the near-wall reproducer.

    The ``laplace_dynamic_kernel`` rows draw from their own generator:
    (delta, kappa) and t as above, with kappa = 0 on every fifth sample and
    t = 0 on every seventh, x_N and y_N as above, r uniform on [0, 3] and
    [0, 100] on alternate pairs, N alternating 2, 3."""
    rng = np.random.default_rng(5)
    rows = {"dirichlet_layer": [(Params(0.25, 1.0, 1.0, 2), 4.0, HalfSpacePoint(8.0, 0.001),
                                 HalfSpacePoint(0.0, 0.0), 2.0)],
            "heat_neumann": []}
    for i in range(n):
        eps, kappa, theta = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 3))
        t = math.exp(rng.uniform(math.log(0.01), math.log(10.0)))
        xn = 10.0 ** rng.uniform(-300.0 if i % 3 == 0 else -8.0, 0.5)
        x = HalfSpacePoint(rng.uniform(0.0, 8.0), xn)
        y = HalfSpacePoint(0.0, 0.0 if i % 4 == 0 else rng.uniform(0.0, 2.0))
        dim = 2 + i % 2
        rows["dirichlet_layer"].append((Params(eps, 1.0, kappa, dim), theta, x, y, t))
        rows["heat_neumann"].append((eps, kappa, x, y, t, dim))
    rng = np.random.default_rng(6)
    rows["laplace_dynamic"] = []
    for i in range(n):
        delta, kappa = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 2))
        t = math.exp(rng.uniform(math.log(0.01), math.log(10.0)))
        xn = 10.0 ** rng.uniform(-300.0 if i % 3 == 0 else -8.0, 0.5)
        x = HalfSpacePoint(rng.uniform(0.0, 100.0 if i // 2 % 2 else 3.0), xn)
        y = HalfSpacePoint(0.0, 0.0 if i % 4 == 0 else rng.uniform(0.0, 2.0))
        rows["laplace_dynamic"].append((delta, 0.0 if i % 5 == 0 else kappa, x, y,
                                        0.0 if i % 7 == 0 else t, 2 + i % 2))
    return rows


LIMIT_SWEEP = limit_kernel_sweep()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name,kernel", [("dirichlet_layer", dirichlet_layer_kernel),
                                         ("heat_neumann", heat_neumann_kernel),
                                         ("laplace_dynamic", laplace_dynamic_kernel)],
                         ids=["dirichlet_layer", "heat_neumann", "laplace_dynamic"])
def test_limit_kernel_converged_means_within_its_error(name, kernel):
    # a converged default-spec value lies within its reported error plus the
    # tolerance of a tight-spec reference
    tight = QuadSpec(rel_tol=1e-12, abs_tol=1e-300, max_subdivisions=5000)
    for args in LIMIT_SWEEP[name]:
        got, ref = kernel(*args), kernel(*args, tight)
        assert ref.converged
        if got.converged:
            assert abs(got.value - ref.value) <= got.error_estimate + ref.tolerance(DEFAULT_SPEC)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("z", [1e-200, 1e-300, 5e-324])
def test_laplace_dynamic_kernel_at_an_underflowed_time(z):
    # (z/2w)^2 underflows to T = 0 at every node; off the tangential origin
    # the point factor is 0 there, so the value is the kappa = 0 closed form
    # z/(pi (r^2 + z^2)) to within abs_tol
    y = HalfSpacePoint(0.0, 0.0)
    res = laplace_dynamic_kernel(1.0, 0.0, HalfSpacePoint(1.0, z), y, 0.0, 2)
    assert res.converged
    assert abs(res.value - poisson_kernel(1.0, z, 2)) <= DEFAULT_SPEC.abs_tol
    # at the origin the factor at T = 0 is unknown: rejected, not guessed
    with pytest.raises(EvaluationError):
        laplace_dynamic_kernel(1.0, 0.0, HalfSpacePoint(0.0, z), y, 0.0, 2)


def test_laplace_dynamic_mass_reports_errors_that_bound_and_are_tight():
    # criterion 2a's rows: each reported error covers |m - 1| and stays
    # below 1e-6 (summed over the final outer panels, not the largest inner
    # error at any node ever evaluated times the range)
    for dim in _DIM_AXIS:
        for delta in _PARAM_AXIS:
            for kappa in _PARAM_AXIS:
                for xn in _XN_AXIS:
                    for t in _T_AXIS:
                        res = laplace_dynamic_mass(Params(1.0, delta, kappa, dim), xn, t)
                        assert abs(res.value - 1.0) <= res.error_estimate <= 1e-6


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the radial map u = 1/(1 + r) never reaches "
                   "the Poisson core of width x_N near r = 0 (ROADMAP item 19)")
@pytest.mark.parametrize("xn", [1e-30, 1e-100])
def test_laplace_dynamic_mass_resolves_a_narrow_core(xn):
    # at t = 0 the kernel is the Poisson kernel of height x_N, whose mass
    # is 1; today this returns 0.0 with error 0.0, converged
    res = laplace_dynamic_mass(Params(1.0, 1.0, 0.0, 2), xn, 0.0)
    assert not res.converged or abs(res.value - 1.0) <= 1e-6


_BATCH_RUNS = {
    "hdn": lambda tan: hdn_batch(1.0, 0.5, 2, [0.1, 0.5, 2.0], 1.0, DEFAULT_SPEC, tan),
    "gauss_layer": lambda tan: gauss_layer_batch(2, [0.05, 0.5, 2.0], 0.3, DEFAULT_SPEC, tan),
    "dirichlet_layer": lambda tan: dirichlet_layer_batch(
        1.0, 2, [0.1, 0.5, 2.0], 1.0, 2.0, DEFAULT_SPEC, tan),
    "exchange_weighted": lambda tan: exchange_weighted(
        P111, [0.1, 0.5, 2.0], 1.0, DEFAULT_SPEC, tan),
}


@pytest.mark.parametrize("name", sorted(_BATCH_RUNS))
def test_batch_tangential_factor_takes_T_alone(name):
    # every component shares the call, so the factor needs no component index
    tan = _pointwise_tan(2, np.array([0.0, 1.0, 3.0]))
    calls = []

    def recording(T):
        calls.append(np.shape(T))
        return tan(T)

    vals, errs, nsub, conv = _BATCH_RUNS[name](recording)
    ref_vals, ref_errs, ref_nsub, ref_conv = _BATCH_RUNS[name](tan)
    assert calls and all(len(shape) == 2 for shape in calls)
    assert vals.tobytes() == ref_vals.tobytes() and errs.tobytes() == ref_errs.tobytes()
    assert (nsub, conv) == (ref_nsub, ref_conv)


# The three shared-frame batches on 20 components whose 5 normal offsets
# repeat in scrambled order, each against its own tangential offset, as the
# solution operators' probe grids call them.  A row pins a sha256 prefix of
# the float.hex of the values, then the errors, with the subdivisions and
# the converged flag; the pins were made by evaluating every component.
_REPEATED_S = np.array([0.05, 0.3, 0.8, 1.5, 2.5])[
    [3, 0, 4, 1, 2, 0, 2, 3, 1, 4, 4, 1, 0, 3, 2, 2, 4, 0, 3, 1]]
_REPEATED_TAN = _tan_factory(Boundary("heat_gaussian", a=0.5), np.linspace(0.0, 3.8, 20), 2)
_P_OFF = Params(0.7, 1.3, 2.0, 2)  # kappa eps / delta != 1: T moves with eta
_REPEATED_RUNS = {
    "exchange_weighted": lambda s, tan: exchange_weighted(_P_OFF, s, 0.8, DEFAULT_SPEC, tan),
    "hdn": lambda s, tan: hdn_batch(0.7, 2.0, 2, s, 0.8, DEFAULT_SPEC, tan),
    "dirichlet_layer": lambda s, tan: dirichlet_layer_batch(
        0.7, 2, s, 0.8, 2.0, DEFAULT_SPEC, tan),
}
_REPEATED_GOLDEN = {
    "dirichlet_layer": ("482bef0a923f2f484c6bf287afdd32f2", 1, True),
    "exchange_weighted": ("e9408f2b3858e171bf50be4b17f4b2f8", 0, True),
    "hdn": ("cc5692eb97a4b1c234c88ab69d7e21f8", 0, True),
}


def _hex_pin(vals, errs):
    hexes = " ".join(float(x).hex() for x in np.concatenate([vals, errs]))
    return hashlib.sha256(hexes.encode()).hexdigest()[:32]


@pytest.mark.parametrize("name", sorted(_REPEATED_RUNS))
def test_repeated_offsets_golden(name):
    vals, errs, nsub, conv = _REPEATED_RUNS[name](_REPEATED_S, _REPEATED_TAN)
    assert (_hex_pin(vals, errs), nsub, conv) == _REPEATED_GOLDEN[name]


# One offset for all 20 components: the normal factor runs on one column,
# and the diffusive-Neumann T, shared by every offset, is one column too
_ONE_OFFSET_GOLDEN = {
    "dirichlet_layer": ("591f6c0c4caddda4f9750a31148d4825", 0, True),
    "exchange_weighted": ("b3c4f4ccd2d3502378f2cc342d89afa8", 0, True),
    "hdn": ("48c66cb0ffc988a9cd1256122bce88a1", 0, True),
}


@pytest.mark.parametrize("name", sorted(_REPEATED_RUNS))
def test_one_repeated_offset_golden(name):
    vals, errs, nsub, conv = _REPEATED_RUNS[name](np.full(20, 0.8), _REPEATED_TAN)
    assert (_hex_pin(vals, errs), nsub, conv) == _ONE_OFFSET_GOLDEN[name]


def test_repeated_offsets_reach_the_normal_factor_once(monkeypatch):
    # the normal factor runs on the 5 distinct offsets, not the 20 components
    sizes = []
    xi_map = dynamic._xi_map

    def recording(eps, delta, kappa, s, t):
        sizes.append(s.size)
        return xi_map(eps, delta, kappa, s, t)

    monkeypatch.setattr(dynamic, "_xi_map", recording)
    _REPEATED_RUNS["exchange_weighted"](_REPEATED_S, _REPEATED_TAN)
    assert sizes == [5]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("name", ["exchange_weighted", "hdn"])
def test_a_nonfinite_repeated_offset_fails_the_panel(name, bad):
    # the range rule names the offsets before any panel runs: no warning
    # of log(-0.5), inf/inf or inf - inf, and no tangential factor called
    s = np.concatenate([_REPEATED_S, [bad, bad]])

    def tan(T):
        raise AssertionError("a panel ran")

    with pytest.raises(ValueError, match="^normal offsets s must be finite and nonnegative$"):
        _REPEATED_RUNS[name](s, tan)


class TestRegions:
    def test_examples(self):
        p = Params(1.0, 1.0, 1.0, 2)
        mk = lambda s: (HalfSpacePoint(0.0, s), HalfSpacePoint(0.0, 0.0))
        x, y = mk(0.0)
        assert envelope(p, x, y, 1.0).region == "D1"
        assert envelope(p, x, y, 13.0).region == "D2"
        x, y = mk(10.0)
        assert envelope(p, x, y, 1.0).region == "D4"
        p2 = Params(1.0, 100.0, 1.0, 2)
        x, y = mk(3.0)
        assert envelope(p2, x, y, 1.0).region == "D3"

    def test_rule_matches_its_three_predicates(self):
        # near: eps s^2 < 6t; early: t < 12 delta^2/eps; shallow:
        # s + t/delta < delta/eps.  A NaN s fails near and shallow: D4.
        for eps, delta, t in [(1.0, 1.0, 1.0), (1.0, 1.0, 13.0), (1.0, 100.0, 1.0),
                              (0.3, 2.0, 0.01)]:
            for s in [0.0, 0.5, 2.0, 3.0, 10.0, math.nan]:
                near = eps * s * s < 6.0 * t
                early = t < 12.0 * delta * delta / eps
                shallow = s + t / delta < delta / eps
                want = ("D1" if early else "D2") if near else ("D3" if shallow else "D4")
                tag = region_tag(eps, delta, s, t)
                assert type(tag) is str
                assert tag == want
                if math.isnan(s):
                    assert tag == "D4"

    def test_kappa_zero_unsupported(self):
        with pytest.raises(ValueError):
            envelope(Params(1, 1, 0.0, 2), HalfSpacePoint(0.0, 0.0),
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

    def test_time_that_underflows_is_rejected(self):
        # t/epsilon underflows to 0 in region D4: the envelopes were NaN
        x, y = HalfSpacePoint(1.0, 1.0), HalfSpacePoint(0.0, 0.5)
        with pytest.raises(ValueError, match="^t/epsilon must be finite and positive$"):
            envelope(Params(2, 1, 1, 2), x, y, 5e-324)

    def test_envelopes_positive(self):
        env = envelope(P111, HalfSpacePoint(2.0, 4.0), HalfSpacePoint(0.0, 4.0), 0.3)
        assert isinstance(env, Envelope)
        assert env.upper > 0.0 and env.lower > 0.0


_X, _Y, _NAN = HalfSpacePoint(0.0, 0.5), HalfSpacePoint(0.0, 0.0), math.nan
_GAUSS_PSI = InitialData(boundary=Boundary("heat_gaussian", a=0.5))


@pytest.mark.parametrize("call", [
    lambda: HalfSpacePoint(0.0, _NAN),
    lambda: HalfSpacePoint(_NAN, 0.5),
    lambda: HalfSpacePoint((0.0, _NAN), 0.5),
    lambda: dirichlet_kernel(_X, _Y, _NAN, 2),
    lambda: poisson_kernel(0, _NAN, 2),
    lambda: envelope(P111, _X, _Y, _NAN),
    lambda: exchange_log_grid(P111, [0.0], [0.5], _NAN),
    lambda: heat_neumann_kernel(1.0, 1.0, _X, _Y, _NAN),
    lambda: heat_neumann_kernel(_NAN, 1.0, _X, _Y, 1.0),
    lambda: heat_neumann_kernel(1.0, _NAN, _X, _Y, 1.0),
    lambda: laplace_dynamic_kernel(_NAN, 1.0, _X, _Y, 1.0),
    lambda: laplace_dynamic_kernel(1.0, _NAN, _X, _Y, 1.0),
    lambda: laplace_dynamic_kernel(1.0, 1.0, _X, _Y, _NAN),
    lambda: dirichlet_layer_kernel(P111, 1.0, _X, _Y, _NAN),
    lambda: dirichlet_layer_kernel(P111, _NAN, _X, _Y, 1.0),
    lambda: solve_grid("HDD", P111, _GAUSS_PSI, [0.0], [0.5], _NAN),
    lambda: solve_grid("HDD", P111, _GAUSS_PSI, [0.0], [_NAN], 1.0),
    lambda: solve_grid("HDPsi", P111, _GAUSS_PSI, [0.0], [0.5], 1.0, theta=_NAN),
    lambda: poisson_kernel(0.0, math.inf, 2),
    lambda: poisson_kernel(0.0, [1.0, math.inf], 2),
    lambda: dirichlet_layer_kernel(P111, math.inf, _X, _Y, 1.0),
    lambda: solve_grid("HDPsi", P111, _GAUSS_PSI, [0.0], [0.5], 1.0, theta=math.inf),
    lambda: solve_grid("LDPsi", P111, _GAUSS_PSI, [0.0], [0.5], 1.0, theta=math.inf),
    lambda: Params(10**400, 1, 1, 2),
    lambda: HalfSpacePoint(0.0, 10**400),
    lambda: HalfSpacePoint((0.0, 10**400), 0.5),
    lambda: exchange_log_grid(P111, [0.5], [-1.0], 1.0),
    lambda: exchange_log_grid(P111, [0.5], [_NAN], 1.0),
    lambda: exchange_log_grid(P111, [0.5], [math.inf], 1.0),
    lambda: exchange_log_grid(P111, [_NAN], [0.5], 1.0),
    lambda: exchange_log_grid(P111, [0.5, 1.0], [[0.5], [-math.inf]], 1.0),
], ids=["point-normal", "point-tangential", "point-vector", "dirichlet-t", "poisson-height",
        "envelope-t", "exchange-t", "hdn-t", "hdn-epsilon", "hdn-kappa", "ldd-delta",
        "ldd-kappa", "ldd-t", "layer-t", "layer-theta", "solve-t", "solve-normal",
        "solve-theta", "poisson-height-inf", "poisson-height-array-inf", "layer-theta-inf",
        "solve-HDPsi-theta-inf", "solve-LDPsi-theta-inf", "params-huge-int",
        "point-huge-int", "point-vector-huge-int", "exchange-s-negative", "exchange-s-nan",
        "exchange-s-inf", "exchange-r-nan", "exchange-s-broadcast-minus-inf"])
def test_nan_input_is_rejected(call):
    # a NaN fails every comparison, so each range check is written to fail
    # on it; the message is the one a finite out-of-range value gets.  The
    # infinite rows returned NaN (the Poisson height) or ran on an infinite
    # theta; an int beyond float range compares above the largest float.
    # The exchange offsets, checked after their broadcast, failed on the
    # first panel with an EvaluationError that named neither
    with pytest.raises(ValueError, match="must be|need|requires"):
        call()


@pytest.mark.parametrize("t", [math.inf, _NAN], ids=["inf", "nan"])
@pytest.mark.parametrize("kernel", [
    lambda t: exchange_kernel(P111, _X, _Y, t),
    lambda t: fundamental_kernel(P111, _X, _Y, t),
    lambda t: exchange_log_grid(P111, [0.0], [0.5], t),
    lambda t: heat_neumann_grid(P111, [0.0], [0.5], [0.0], t),
    lambda t: heat_neumann_kernel(1.0, 1.0, _X, _Y, t),
    lambda t: laplace_dynamic_kernel(1.0, 1.0, _X, _Y, t),
    lambda t: dirichlet_layer_kernel(P111, 1.0, _X, _Y, t),
    lambda t: envelope(P111, _X, _Y, t),
    lambda t: free_heat_radial(1, 0.0, t),
    lambda t: free_heat_radial(2, [0.0, 1.0], [[1.0], [t]]),
    lambda t: dirichlet_kernel(_X, _Y, t, 2),
    lambda t: neumann_kernel(_X, _Y, t, 2),
    lambda t: gaussian_interval_mass(0.0, -1.0, 1.0, [1.0, t]),
], ids=["exchange", "fundamental", "exchange-grid", "hdn-grid", "hdn", "ldd", "layer",
        "envelope", "free", "free-array", "dirichlet", "neumann", "interval-mass"])
def test_pointwise_kernel_rejects_nonfinite_time(kernel, t):
    # as the mass entry points do: t = inf used to warn and raise
    # EvaluationError, return 0.0 converged or give 0/0 envelopes; the
    # closed forms returned 0.0 at t = inf
    with pytest.raises(ValueError, match="^time must be finite and (positive|nonnegative)$"):
        kernel(t)


_BAD_XN_T = [(-0.5, 1.0), (_NAN, 1.0), (math.inf, 1.0), (0.5, -1.0), (0.5, _NAN),
             (0.5, math.inf)]
_BAD_IDS = ["xn-negative", "xn-nan", "xn-inf", "t-negative", "t-nan", "t-inf"]


@pytest.mark.parametrize("mass", [
    lambda xn, t: total_mass(P111, xn, t),
    lambda xn, t: total_mass_radial(P111, xn, t),
    lambda xn, t: exchange_marginal_boundary(P111, xn, t),
    lambda xn, t: exchange_marginal_interior(P111, xn, t),
    lambda xn, t: heat_neumann_mass(P111, xn, t),
    lambda xn, t: laplace_dynamic_mass(P111, xn, t),
], ids=["total", "radial", "marginal-boundary", "marginal-interior", "hdn", "ldd"])
@pytest.mark.parametrize("xn,t", _BAD_XN_T, ids=_BAD_IDS)
def test_mass_rejects_bad_normal_and_time(mass, xn, t):
    # checked up front, before any quadrature can fail on them
    with pytest.raises(ValueError, match="x_N must be|time must be"):
        mass(xn, t)


@pytest.mark.parametrize("mass", [
    lambda t: total_mass(P111, 0.5, t),
    lambda t: total_mass_radial(P111, 0.5, t),
    lambda t: exchange_marginal_boundary(P111, 0.5, t),
    lambda t: exchange_marginal_interior(P111, 0.5, t),
    lambda t: heat_neumann_mass(P111, 0.5, t),
], ids=["total", "radial", "marginal-boundary", "marginal-interior", "hdn"])
def test_mass_rejects_zero_time(mass):
    with pytest.raises(ValueError, match="time must be finite and positive"):
        mass(0.0)


def _hdn_mass(eps, kappa, xn, t, dim=2):
    return heat_neumann_mass(Params(eps, 1.0, kappa, dim), xn, t)


def _ldd_mass(delta, kappa, xn, t, dim=2):
    return laplace_dynamic_mass(Params(1.0, delta, kappa, dim), xn, t)


@pytest.mark.parametrize("mass, args, match", [
    (_hdn_mass, (-1.0, 1.0, 0.5, 1.0), "epsilon must be finite and positive"),
    (_hdn_mass, (1.0, -1.0, 0.5, 1.0), "kappa must be finite and nonnegative"),
    (_hdn_mass, (_NAN, 1.0, 0.5, 1.0), "epsilon must be finite"),
    (_hdn_mass, (1.0, _NAN, 0.5, 1.0), "kappa must be finite"),
    (_hdn_mass, (1.0, 1.0, 0.5, 1.0, 1), "dim must be at least 2"),
    (_hdn_mass, (1.0, 1.0, 0.5, 1.0, 2.5), "dim must be an integer"),
    (_ldd_mass, (-1.0, 1.0, 0.5, 1.0), "delta must be finite and positive"),
    (_ldd_mass, (1.0, -1.0, 0.5, 1.0), "kappa must be finite and nonnegative"),
    (_ldd_mass, (_NAN, 1.0, 0.5, 1.0), "delta must be finite"),
    (_ldd_mass, (1.0, _NAN, 0.5, 1.0), "kappa must be finite"),
    (_ldd_mass, (1.0, 1.0, 0.5, 1.0, 1), "dim must be at least 2"),
    (_ldd_mass, (1.0, 1.0, 0.5, 1.0, 2.5), "dim must be an integer"),
    (_hdn_mass, (math.inf, 1.0, 0.5, 1.0), "epsilon must be finite"),
    (_hdn_mass, (1.0, math.inf, 0.5, 1.0), "kappa must be finite"),
    (_ldd_mass, (math.inf, 1.0, 0.5, 1.0), "delta must be finite"),
    (_ldd_mass, (1.0, math.inf, 0.5, 1.0), "kappa must be finite"),
    (heat_neumann_kernel, (-1.0, 1.0, _X, _Y, 1.0), "epsilon must be finite and positive"),
    (heat_neumann_kernel, (math.inf, 1.0, _X, _Y, 1.0), "epsilon must be finite"),
    (heat_neumann_kernel, (1.0, math.inf, _X, _Y, 1.0), "kappa must be finite"),
    (heat_neumann_kernel, (1.0, 1.0, _X, _Y, 1.0, 0), "dim must be at least 2"),
    (heat_neumann_kernel, (1.0, 1.0, _X, _Y, 1.0, 1), "dim must be at least 2"),
    (heat_neumann_kernel, (1.0, 1.0, _X, _Y, 1.0, 2.0), "dim must be an integer"),
    (laplace_dynamic_kernel, (-1.0, 1.0, _X, _Y, 1.0), "delta must be finite and positive"),
    (laplace_dynamic_kernel, (math.inf, 1.0, _X, _Y, 1.0), "delta must be finite"),
    (laplace_dynamic_kernel, (1.0, math.inf, _X, _Y, 1.0), "kappa must be finite"),
    (laplace_dynamic_kernel, (1.0, 1.0, _X, _Y, 1.0, 0), "dim must be at least 2"),
    (laplace_dynamic_kernel, (1.0, 1.0, _X, _Y, 1.0, 1), "dim must be at least 2"),
    (laplace_dynamic_kernel, (1.0, 1.0, _X, _Y, 1.0, 2.0), "dim must be an integer"),
], ids=["hdn-eps-negative", "hdn-kappa-negative", "hdn-eps-nan", "hdn-kappa-nan",
        "hdn-dim-1", "hdn-dim-fractional", "ldd-delta-negative", "ldd-kappa-negative",
        "ldd-delta-nan", "ldd-kappa-nan", "ldd-dim-1", "ldd-dim-fractional",
        "hdn-eps-inf", "hdn-kappa-inf", "ldd-delta-inf", "ldd-kappa-inf",
        "hdn-kernel-eps-negative", "hdn-kernel-eps-inf", "hdn-kernel-kappa-inf",
        "hdn-kernel-dim-0", "hdn-kernel-dim-1", "hdn-kernel-dim-float",
        "ldd-kernel-delta-negative", "ldd-kernel-delta-inf", "ldd-kernel-kappa-inf",
        "ldd-kernel-dim-0", "ldd-kernel-dim-1", "ldd-kernel-dim-float"])
def test_limit_mass_rejects_bad_parameters(mass, args, match):
    # checked up front by ``Params``, which the masses take and the two
    # limit kernels build from their float arguments
    with pytest.raises(ValueError, match=match):
        mass(*args)


def test_laplace_dynamic_mass_accepts_zero_time():
    # the Laplace kernel is defined at t = 0 (z = x_N), as laplace_dynamic_kernel
    assert abs(laplace_dynamic_mass(P111, 0.5, 0.0).value - 1.0) < 1e-8
    with pytest.raises(SingularConfigurationError):
        laplace_dynamic_mass(P111, 0.0, 0.0)


@pytest.mark.parametrize("xp,xn,match", [
    ([_NAN], [0.5], "tangential coordinates must be finite"),
    ([math.inf], [0.5], "tangential coordinates must be finite"),
    ([0.0, -math.inf], [0.5, 0.5], "tangential coordinates must be finite"),
    ([0.0], [math.inf], "normal coordinates must be finite and nonnegative"),
    ([[0.0]], [[0.5]], "^xp and xn must be 1-D arrays of matching shapes$"),
    ([[0.0], [0.5], [1.0]], [[0.5], [0.5], [0.5]],
     "^xp and xn must be 1-D arrays of matching shapes$"),
    ([[0.0, 0.5, 1.0]], [[0.5, 0.5, 0.5]], "^xp and xn must be 1-D arrays of matching shapes$"),
], ids=["xp-nan", "xp-inf", "xp-minus-inf", "xn-inf", "shape-1x1", "shape-3x1", "shape-1x3"])
def test_solve_grid_rejects_nonfinite_probes(xp, xn, match):
    # checked before any work, as is the shape: a 2-D probe array used to
    # fail deep inside numpy or the quadrature
    with pytest.raises(ValueError, match=match):
        solve_grid("HDD", P111, _GAUSS_PSI, xp, xn, 1.0)
