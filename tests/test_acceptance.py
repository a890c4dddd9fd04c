"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` or ``-v`` to
see them).  Tolerances are pinned here; ladders and probe grids are the
documented defaults of the verification module.
"""

import json
import math
import time
from dataclasses import replace

import pytest

from dynheat.data import Boundary, InitialData, Interior, NormalProfile
from dynheat.fdsolver import FdGrid
from dynheat.kernels import Params
from dynheat.quadrature import QuadSpec
from dynheat import verification
from dynheat.solutions import solve_grid
from dynheat.verification import (
    check_identity,
    fit_rate,
    opnorm_decay,
    oracle_compare,
    run_limit,
    sandwich_check,
    witness_norm,
)


def report(criterion, passed, detail):
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


class TestCriterion01Mass:
    def test_total_mass_identity(self):
        t0 = time.time()
        rep = check_identity("mass")
        dt = time.time() - t0
        report("1 (total mass)", rep.passed and dt <= 60.0,
               f"max |mass - 1| = {rep.max_dev:.3e} <= 1e-6 over "
               f"{len(rep.rows)} configurations in {dt:.1f}s (budget 60s)")


class TestCriterion02LimitMasses:
    def test_laplace_dynamic_mass_grid(self):
        rep = check_identity("mass_ldd")
        report("2a (harmonic-kernel mass)", rep.passed,
               f"max dev {rep.max_dev:.3e} <= 1e-6")

    def test_heat_neumann_mass_grid(self):
        rep = check_identity("mass_hdn")
        report("2b (Neumann-kernel mass)", rep.passed,
               f"max dev {rep.max_dev:.3e} <= 1e-6")


class TestCriterion03SymmetryPositivity:
    def test_symmetry_and_positivity(self):
        rep = check_identity("symmetry")
        rep2 = check_identity("positivity")
        report("3 (symmetry/positivity)", rep.passed and rep2.passed,
               f"max relative asymmetry {rep.max_dev:.3e} <= 1e-10 on 500 "
               f"triples; limit kernels strictly positive on 500 samples")


class TestCriterion04Collapses:
    def test_poisson_collapse(self):
        rep = check_identity("k0_poisson")
        report("4a (harmonic collapse)", rep.passed,
               f"max rel dev {rep.max_dev:.3e} <= 1e-8 on 200 configurations")

    def test_neumann_collapse(self):
        rep = check_identity("k0_neumann")
        report("4b (reflecting collapse)", rep.passed,
               f"max rel dev {rep.max_dev:.3e} <= 1e-8 on 200 configurations")


class TestCriterion05Marginals:
    def test_marginal_masses(self):
        rep = check_identity("marginal_masses")
        report("5 (marginal masses)", rep.passed,
               f"max rel dev {rep.max_dev:.3e} <= 1e-7")


class TestCriterion06Semigroup:
    def test_semigroup_composition(self):
        rep = check_identity("semigroup")
        report("6 (one-step composition)", rep.passed,
               f"max rel dev {rep.max_dev:.3e} <= 1e-4 at (t, s) = (0.5, 0.5)")


class TestCriterion07Residuals:
    def test_pde_residuals(self):
        rep = check_identity("pde_residual")
        interior = max(d for label, d in rep.rows if label.startswith("interior"))
        boundary = 10.0 * max(d for label, d in rep.rows
                              if label.startswith("boundary"))
        control = [d for label, d in rep.rows if label.startswith("negative")][0]
        sep = 100.0 * 1e-4 / control
        report("7 (PDE residuals)", rep.passed,
               f"interior {interior:.2e} <= 1e-4, boundary {boundary:.2e} <= 1e-3 "
               f"(50 probes); negative control {sep:.0f}x >= 100x")


class TestCriterion08Sandwich:
    def test_envelope_constants_stable(self):
        res = sandwich_check(n_per_region=1000, seed=7)
        report("8 (two-sided envelopes)", res.passed,
               f"empirical constants ({res.upper_max:.3f}, {res.lower_max:.3f}) "
               f"finite/positive over 4000 stratified samples; doubling moves "
               f"maxima by {res.stability:.3f}x < 1.5x")


RATE_CASES = [
    ("9a", "eps_to_0", "bulk-time rate 1/2"),
    ("9b", "k_to_0", "surface-diffusivity rate 1"),
    ("9c", "delta_to_0", "capacity-to-Neumann rate 1"),
    ("9d", "delta_to_inf", "large-capacity rate -1"),
    ("9e", "k_to_inf_theta", "fixed-ratio joint limit rate -1"),
    ("9f", "k_to_inf_fp", "error-law rate -1/2 (N=2, p=1)"),
    ("9g", "hdn_eps_to_0", "Neumann decay rate 1 (family-sharp p=1 law)"),
    ("9g'", "hdn_eps_to_0_p2", "Neumann decay p=2 upper bound"),
    ("9h", "ldd_delta_to_0", "harmonic-layer rate 1 (N=2, p=1)"),
    ("9i", "hdn_k_to_0", "diffusive-to-plain Neumann rate 1"),
    ("9j", "hdpsi_eps_to_0", "Dirichlet-to-harmonic rate 1/2"),
    ("9k", "k_to_inf_fp_log", "error law k/log k at the threshold index (N=3, p=1)"),
    ("9l", "hdn_k_to_inf", "diffusive Neumann to absorbing wall rate -1/2"),
    ("9m", "ldd_k_to_inf", "harmonic-layer large-diffusivity rate -1/2"),
    ("9n", "hdpsi_theta_to_0", "fast surface diffusion rate 1/2"),
    ("9o", "hdpsi_theta_to_inf", "slow surface diffusion rate -1"),
]
PLAIN_CASES = [
    ("10a", "ldd_delta_to_inf"),
    ("10b", "eps_to_inf"),
    ("10c", "hdpsi_eps_to_inf"),
]


def test_criteria_9_and_10_run_every_experiment():
    named = [c[1] for c in RATE_CASES] + [which for _, which in PLAIN_CASES]
    assert sorted(named) == sorted(verification.EXPERIMENTS)


class TestCriterion09RateSuite:
    @pytest.mark.parametrize("tag,which,label", RATE_CASES,
                             ids=[c[1] for c in RATE_CASES])
    def test_rate(self, tag, which, label):
        res = run_limit(which)
        report(f"{tag} ({label})", res.passed, res.detail)

    def test_log_corrected_negative_control(self):
        # k_to_inf_fp_log holds e(k) k / log k constant within a ratio of
        # about 1.016: a tolerance of 1 must fail it
        exp = replace(verification.EXPERIMENTS["k_to_inf_fp_log"], tol=1.0)
        res = run_limit(exp)
        report("9k negative control", not res.passed, res.detail)


class TestCriterion10PlainLimits:
    @pytest.mark.parametrize("tag,which", PLAIN_CASES)
    def test_plain_limit(self, tag, which):
        res = run_limit(which)
        report(f"{tag} ({which})", res.passed, res.detail)


class TestCriterion11TraceSharpness:
    SPEC = QuadSpec(rel_tol=1e-6, abs_tol=1e-9)

    @staticmethod
    def _data(alpha):
        return InitialData(Interior("heat_gaussian", a=2.0,
                                    normal=NormalProfile("power_cutoff",
                                                         alpha=alpha)))

    def test_supercritical_blowup_rate(self):
        p = Params(1.0, 1.0, 1.0, 2)
        ts = (3.16e-4, 1e-3, 3.16e-3, 1e-2)
        vals = []
        for t in ts:
            u, _, _ = solve_grid("HDD", p, self._data(1.5), [0.0], [0.0], t,
                                 self.SPEC)
            vals.append(float(u[0]))
        fit = fit_rate(list(zip(ts, vals)))
        ok = abs(fit.slope + 0.25) <= 0.1
        report("11a (blow-up rate, alpha=1.5)", ok,
               f"slope {fit.slope:.3f} vs -0.25 +/- 0.1")

    def test_subcritical_trace_vanishes(self):
        p = Params(1.0, 1.0, 1.0, 2)
        u, _, _ = solve_grid("HDD", p, self._data(0.5), [0.0], [0.0], 1e-3,
                             self.SPEC)
        ok = 0.0 < u[0] < 0.05
        report("11b (trace, alpha=0.5)", ok,
               f"boundary value {u[0]:.4f} < 0.05 at t = 1e-3")


class TestCriterion12OperatorNorms:
    def test_p_to_p_is_one(self):
        res = opnorm_decay(math.inf, math.inf)
        report("12a (norm preserved)", res.passed, res.detail)

    def test_one_to_inf_decay(self):
        res = opnorm_decay(1.0, math.inf)
        ok = res.passed and abs(res.fit.slope + 1.0) <= 0.1
        report("12b (1->inf witness decay)", ok, res.detail)

    def test_witness_norm_scaling(self):
        ts = (1.0, 2.0, 4.0, 8.0)
        fit = fit_rate([(t, witness_norm(math.inf, 1.0, t, 2)) for t in ts])
        ok = abs(fit.slope + 1.5) <= 0.02
        report("12c (witness-norm scaling)", ok,
               f"slope {fit.slope:.4f} vs -1.5 +/- 0.02")


class TestCriterion13Oracle:
    P = Params(1.0, 1.0, 1.0, 2)
    DATA = InitialData(boundary=Boundary("heat_gaussian", a=0.5))
    TIMES = (0.25, 0.5, 1.0)
    # 13a reads about 1.2e-4 at the default grid; a 1% error in delta or a
    # 5% error in kappa reads 9e-3 or more, so the gate sees both
    GATE = 1e-3

    @pytest.fixture(scope="class")
    def default_grid_run(self):
        return oracle_compare(self.P, self.DATA, FdGrid(), self.TIMES)

    def test_default_grid_agreement(self, default_grid_run):
        table, _ = default_grid_run
        worst = max(sup for _, sup, _ in table)
        report("13a (kernel vs finite differences)", worst <= self.GATE,
               f"sup relative discrepancy {worst:.3e} <= {self.GATE:g} "
               f"at t in (0.25, 0.5, 1)")

    @pytest.mark.parametrize("perturbed", [Params(1.0, 0.99, 1.0, 2), Params(1.0, 1.0, 1.05, 2)],
                             ids=["delta-0.99", "kappa-1.05"])
    def test_perturbed_kernel_fails_the_gate(self, monkeypatch, default_grid_run, perturbed):
        # negative control: the kernel at perturbed parameters against the
        # finite-difference field at the true ones, on 13a's window
        monkeypatch.setattr(verification, "fd_solve", lambda *args, **kwargs: default_grid_run[1])
        table, _ = oracle_compare(perturbed, self.DATA, FdGrid(), self.TIMES)
        worst = max(sup for _, sup, _ in table)
        report("13a negative control", worst > self.GATE,
               f"{perturbed}: sup relative discrepancy {worst:.3e} > {self.GATE:g}")

    def test_refinement_order(self):
        # an interior Gaussian away from the wall, and a boundary Gaussian,
        # whose start on the wall row decides the order
        cases = {
            "interior m=2": InitialData(Interior("heat_gaussian", a=0.4,
                                                 normal=NormalProfile("gaussian", m=2.0, b=0.1))),
            "boundary a=0.5": self.DATA,
        }
        t_end = 0.25
        orders = {}
        for name, data in cases.items():
            errs = []
            for nx, steps in ((64, 32), (128, 64), (256, 128)):
                grid = FdGrid(nx=nx, nz=nx, dt=t_end / steps)
                table, _ = oracle_compare(self.P, data, grid, (t_end,))
                errs.append(table[0][1])
            orders[name] = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        ok = all(1.7 <= o <= 2.3 for os in orders.values() for o in os)
        shown = {name: [round(o, 2) for o in os] for name, os in orders.items()}
        report("13b (refinement order)", ok,
               f"observed orders {shown} within [1.7, 2.3]")


class TestCriterion14Determinism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        from dynheat.cli import main

        def run_all(out):
            out.mkdir(exist_ok=True)
            cfg1 = out / "ids.json"
            cfg1.write_text(json.dumps({"identities": ["marginal_masses",
                                                       "k0_poisson"]}))
            assert main(["identity-suite", "--config", str(cfg1),
                         "--out", str(out)]) == 0
            cfg2 = out / "rate.json"
            cfg2.write_text(json.dumps({"which": "hdpsi_eps_to_0"}))
            assert main(["limit-rate", "--config", str(cfg2),
                         "--out", str(out)]) == 0
            cfg3 = out / "bounds.json"
            cfg3.write_text(json.dumps({"samples_per_region": 60, "seed": 3}))
            assert main(["bounds-check", "--config", str(cfg3),
                         "--out", str(out)]) == 0
            assert main(["report", "--out", str(out)]) == 0
            names = ["ids.csv", "ids.summary.json", "rate.csv", "rate.summary.json",
                     "bounds.csv", "bounds.summary.json", "report.md"]
            return {n: (out / n).read_bytes() for n in names}

        a = run_all(tmp_path / "run1")
        b = run_all(tmp_path / "run2")
        ok = a == b
        report("14 (determinism)", ok,
               f"{len(a)} output files byte-identical across repeated runs")
