import json
import math
import os
import tempfile
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dynheat.verification as verification
from dynheat.cli import main
from dynheat.data import Boundary, InitialData
from dynheat.kernels import Params
from dynheat.solutions import solve_grid


def run_cli(tmp_path, command, cfg=None, extra=()):
    args = [command, "--out", str(tmp_path)]
    if cfg is not None:
        cfg_path = tmp_path / f"{command}.config.json"
        cfg_path.write_text(json.dumps(cfg))
        args += ["--config", str(cfg_path)]
    return main(args + list(extra))


class TestEvalKernel:
    def test_forced_value(self, tmp_path, capsys):
        rc = run_cli(tmp_path, "eval-kernel", {
            "kernel": "g_ldd",
            "params": {"delta": 1.0, "kappa": 0.0},
            "t": 1.0,
            "x": {"tangential": 0.0, "normal": 1.0},
            "y": {"tangential": 0.0, "normal": 0.0},
        })
        assert rc == 0
        out = capsys.readouterr().out
        # 1/(2 pi) to within 1 ulp (the nearest double prints ...535)
        assert "0.15915494309189537" in out
        assert (tmp_path / "eval_kernel.csv").exists()

    @pytest.mark.parametrize("kernel, extra, listed, number", [
        ("gamma", {}, [0.5], 0.5),
        ("gamma", {"d": 2}, [0.3, 0.4], 0.5),
        ("poisson", {"params": {"dim": 3}}, [0.6, 0.8], 1.0),
    ])
    def test_list_point_matches_number(self, tmp_path, capsys, kernel, extra, listed,
                                       number):
        # a point's tangential part may be written as a list
        lines = []
        for i, tangential in enumerate((listed, number)):
            (tmp_path / str(i)).mkdir()
            rc = run_cli(tmp_path / str(i), "eval-kernel", {
                "kernel": kernel, "t": 1.0, **extra,
                "x": {"tangential": tangential, "normal": 1.0}})
            assert rc == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]

    def test_poisson_uses_tangential_offset(self, tmp_path, capsys):
        # x' = y' gives the value at offset 0, 1/pi at x_N = 1 in N = 2
        rc = run_cli(tmp_path, "eval-kernel", {
            "kernel": "poisson", "t": 1.0,
            "x": {"tangential": 1.0, "normal": 1.0},
            "y": {"tangential": 1.0, "normal": 0.0}})
        assert rc == 0
        assert capsys.readouterr().out == "poisson = 0.3183098861837907\n"

    def test_unknown_kernel(self, tmp_path):
        rc = run_cli(tmp_path, "eval-kernel", {
            "kernel": "nope", "t": 1.0, "x": {"normal": 0.0}})
        assert rc == 2


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        rc = run_cli(tmp_path, "solve", {
            "tag": "HDD", "points": [{"normal": 0.0}], "times": [1.0], "bogus": 1})
        assert rc == 2

    def test_nested_unknown_key_rejected(self, tmp_path):
        rc = run_cli(tmp_path, "solve", {
            "tag": "HDD", "points": [{"normal": 0.0}], "times": [1.0],
            "params": {"epsilon": 1.0, "oops": 2}})
        assert rc == 2

    def test_missing_config_file(self, tmp_path):
        rc = main(["solve", "--config", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["solve", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 2

    def test_command_mismatch(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "solve"}))
        rc = main(["report", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_rejected(self, tmp_path, bad):
        rc = run_cli(tmp_path, "solve", {
            "tag": "HDD", "points": [{"normal": 0.0}], "times": [bad]})
        assert rc == 2
        assert not (tmp_path / "solve.csv").exists()
        rc = run_cli(tmp_path, "solve", {
            "tag": "HDD", "points": [{"normal": 0.0}], "times": [1.0],
            "params": {"kappa": bad}})
        assert rc == 2

    @pytest.mark.parametrize("axis", [{"epsilon": [-1.0]}, {"dim": [None]},
                                      {"t": [0.0]}, {"x_n": [-0.5]}, {"kappa": 1.0}])
    def test_mass_check_axes_validated(self, tmp_path, axis):
        assert run_cli(tmp_path, "mass-check", axis) == 2

    def test_bounds_check_rejects_quad(self, tmp_path):
        rc = run_cli(tmp_path, "bounds-check", {"quad": {"rel_tol": -1}})
        assert rc == 2

    def test_invalid_params_rejected(self, tmp_path):
        rc = run_cli(tmp_path, "solve", {
            "tag": "HDD", "points": [{"normal": 0.0}], "times": [1.0],
            "params": {"epsilon": -1.0}})
        assert rc == 2


class TestSolveCommand:
    def test_writes_rows_with_param_block(self, tmp_path):
        rc = run_cli(tmp_path, "solve", {
            "tag": "LD",
            "data": {"boundary": {"kind": "heat_gaussian", "a": 0.5}},
            "points": [{"tangential": 0.0, "normal": 0.5},
                       {"tangential": 1.0, "normal": 0.0}],
            "times": [0.5, 1.0]})
        assert rc == 0
        lines = (tmp_path / "solve.csv").read_text().splitlines()
        assert lines[0].startswith("epsilon,delta,kappa,theta,dim,tag")
        assert lines[0].endswith(",tag,t,x_tangential,x_normal,value,error,converged")
        assert len(lines) == 5
        # each row carries its time's error bound and converged flag from
        # solve_grid, the same for every probe of that time
        p = Params(1.0, 1.0, 1.0, 2)
        data = InitialData(boundary=Boundary("heat_gaussian", a=0.5))
        for k, t in enumerate((0.5, 1.0)):
            u, err, conv = solve_grid("LD", p, data, [0.0, 1.0], [0.5, 0.0], t)
            for row, val in zip(lines[1 + 2 * k:3 + 2 * k], u):
                assert row.split(",")[-3:] == [repr(float(val)), repr(err), str(conv)]
            assert 0.0 < err < 1e-6 and conv is True

    def test_unconverged_time_is_flagged(self, tmp_path):
        rc = run_cli(tmp_path, "solve", {
            "tag": "HDD", "data": {"boundary": {"kind": "heat_gaussian", "a": 0.5}},
            "points": [{"tangential": 0.0, "normal": 0.5}], "times": [1.0],
            "quad": {"rel_tol": 1e-15, "abs_tol": 1e-300, "max_subdivisions": 1}})
        assert rc == 0
        row = (tmp_path / "solve.csv").read_text().splitlines()[1]
        assert row.endswith(",False")

    def test_incompatible_data_is_config_error(self, tmp_path):
        rc = run_cli(tmp_path, "solve", {
            "tag": "LD",
            "data": {"interior": {"kind": "constant", "c": 1.0}},
            "points": [{"tangential": 0.0, "normal": 0.5}],
            "times": [1.0]})
        assert rc == 2


class TestChecks:
    def test_mass_check_small_grid(self, tmp_path):
        rc = run_cli(tmp_path, "mass-check", {
            "epsilon": [1.0], "delta": [0.5], "kappa": [1.0], "dim": [2],
            "x_n": [0.5], "t": [0.5]})
        assert rc == 0
        summary = json.loads((tmp_path / "mass_check.summary.json").read_text())
        assert summary["pass"] is True
        assert summary["max_deviation"] <= 1e-6

    def test_identity_suite_subset(self, tmp_path):
        rc = run_cli(tmp_path, "identity-suite",
                     {"identities": ["marginal_masses", "k0_poisson"]})
        assert rc == 0
        summary = json.loads((tmp_path / "identity_suite.summary.json").read_text())
        assert set(summary["results"]) == {"marginal_masses", "k0_poisson"}

    def test_limit_rate_fast(self, tmp_path):
        rc = run_cli(tmp_path, "limit-rate", {"which": "hdpsi_eps_to_0"})
        assert rc == 0
        summary = json.loads(
            (tmp_path / "limit_hdpsi_eps_to_0.summary.json").read_text())
        assert abs(summary["slope"] - 0.5) <= 0.1
        assert summary["pass"] is True

    def test_limit_rate_plain_tolerance(self, tmp_path):
        # the summary's tolerance is the one the plain verdict used
        assert run_cli(tmp_path, "limit-rate", {"which": "ldd_delta_to_inf"}) == 0
        summary = json.loads(
            (tmp_path / "limit_ldd_delta_to_inf.summary.json").read_text())
        assert summary["mode"] == "plain"
        assert summary["tolerance"] == float(summary["detail"].split()[-1]) == 0.01

    def test_limit_rate_custom_ladder_validated(self, tmp_path):
        rc = run_cli(tmp_path, "limit-rate",
                     {"which": "hdpsi_eps_to_0", "ladder": [0.1, 0.05]})
        assert rc == 2

    def test_opnorm_constants(self, tmp_path):
        rc = run_cli(tmp_path, "opnorm", {"p": "inf", "q": "inf",
                                          "t_ladder": [0.5, 1.0]})
        assert rc == 0

    def test_bounds_check_small(self, tmp_path):
        rc = run_cli(tmp_path, "bounds-check", {"samples_per_region": 40})
        assert rc == 0
        summary = json.loads((tmp_path / "bounds_check.summary.json").read_text())
        assert summary["stability"] < 1.5

    def test_oracle_compare_small(self, tmp_path):
        rc = run_cli(tmp_path, "oracle-compare", {
            "grid": {"nx": 96, "nz": 96, "dt": 0.005},
            "times": [0.25], "tol": 0.05,
            "window": {"x": 1.5, "z": 1.5}})
        assert rc == 0


class TestReportAndDeterminism:
    def test_report_aggregates(self, tmp_path):
        run_cli(tmp_path, "limit-rate", {"which": "hdpsi_eps_to_0"})
        run_cli(tmp_path, "opnorm", {"p": "inf", "q": "inf", "t_ladder": [0.5, 1.0]})
        rc = run_cli(tmp_path, "report")
        assert rc == 0
        text = (tmp_path / "report.md").read_text()
        assert "hdpsi_eps_to_0" in text
        assert "| yes |" in text

    def test_byte_identical_outputs(self, tmp_path):
        cfg = {"identities": ["marginal_masses"]}
        run_cli(tmp_path, "identity-suite", cfg)
        first_csv = (tmp_path / "identity_suite.csv").read_bytes()
        first_json = (tmp_path / "identity_suite.summary.json").read_bytes()
        run_cli(tmp_path, "identity-suite", cfg)
        assert (tmp_path / "identity_suite.csv").read_bytes() == first_csv
        assert (tmp_path / "identity_suite.summary.json").read_bytes() == first_json

    def test_unknown_command_exits_2(self, tmp_path):
        assert main(["frobnicate", "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# the exit-2 contract: one error line, no traceback, no output file
# ---------------------------------------------------------------------------

_SOLVE = {"tag": "HDD", "points": [{"normal": 0.5}], "times": [1.0]}
_GAUSS = {"boundary": {"kind": "heat_gaussian", "a": 0.5}}
_ORACLE = {"grid": {"nx": 16, "nz": 16, "dt": 0.05}, "times": [0.25]}

# Wrong types, and values the library rejects: exit 2, never a traceback.
_REJECTED = {
    "limit-rate-ladder-str": ("limit-rate", {"which": "hdpsi_eps_to_0",
                                             "ladder": ["x", 1, 2, 3]}),
    "limit-rate-which-list": ("limit-rate", {"which": []}),
    "limit-rate-log-one-rung": ("limit-rate", {"which": "k_to_inf_fp_log", "ladder": [16]}),
    "limit-rate-log-sub-unit": ("limit-rate", {"which": "k_to_inf_fp_log",
                                               "ladder": [0.5, 2]}),
    "solve-theta-str": ("solve", {**_SOLVE, "tag": "HDPsi", "theta": "abc"}),
    "solve-tangential-str": ("solve", {**_SOLVE,
                                       "points": [{"tangential": ["x"], "normal": 0.5}]}),
    "solve-normal-negative": ("solve", {**_SOLVE, "points": [{"normal": -1.0}]}),
    "solve-points-number": ("solve", {**_SOLVE, "points": 5}),
    "opnorm-p-zero": ("opnorm", {"p": 0, "q": "inf"}),
    "opnorm-p-negative": ("opnorm", {"p": -1, "q": "inf"}),
    "opnorm-p-str": ("opnorm", {"p": "x", "q": "inf"}),
    "opnorm-q-below-p": ("opnorm", {"p": 2, "q": 1}),
    "opnorm-q-finite-above-p": ("opnorm", {"p": 1, "q": 2}),
    "opnorm-t-nan": ("opnorm", {"p": "inf", "q": "inf", "t_ladder": [math.nan, 1.0]}),
    "opnorm-t-empty": ("opnorm", {"p": "inf", "q": "inf", "t_ladder": []}),
    "bounds-samples-zero": ("bounds-check", {"samples_per_region": 0}),
    "bounds-samples-one": ("bounds-check", {"samples_per_region": 1}),
    "bounds-seed-str": ("bounds-check", {"seed": "x"}),
    "bounds-seed-negative": ("bounds-check", {"samples_per_region": 8, "seed": -1}),
    "bounds-region-unreachable": ("bounds-check", {"params": {"epsilon": 0.5, "delta": 20},
                                                   "samples_per_region": 8}),
    "oracle-nx-two": ("oracle-compare", {**_ORACLE, "grid": {"nx": 2}}),
    "oracle-times-empty": ("oracle-compare", {**_ORACLE, "times": []}),
    "oracle-scheme-unknown": ("oracle-compare", {**_ORACLE, "grid": {"scheme": "x"}}),
    "oracle-flux-wide": ("oracle-compare", {**_ORACLE, "grid": {"flux": "wide"}}),
    "oracle-scheme-imex": ("oracle-compare", {**_ORACLE, "grid": {"scheme": "imex_euler"}}),
    "oracle-dim-three": ("oracle-compare", {**_ORACLE, "params": {"dim": 3}}),
    "eval-g_ldd-t-negative": ("eval-kernel", {"kernel": "g_ldd", "t": -1,
                                              "x": {"normal": 1.0}}),
    "eval-gamma-d-str": ("eval-kernel", {"kernel": "gamma", "d": "x", "t": 1.0,
                                         "x": {"normal": 0.0}}),
    "eval-normal-negative": ("eval-kernel", {"kernel": "g", "t": 1.0,
                                             "x": {"normal": -1.0}}),
    "eval-gamma-d-zero": ("eval-kernel", {"kernel": "gamma", "d": 0, "t": 1.0,
                                          "x": {"normal": 0.0}}),
    "eval-gamma-tangential-size": ("eval-kernel", {"kernel": "gamma", "t": 1.0,
                                                   "x": {"tangential": [0.6, 0.8],
                                                         "normal": 0.0}}),
    "eval-poisson-tangential-size": ("eval-kernel", {"kernel": "poisson", "t": 1.0,
                                                     "params": {"dim": 3},
                                                     "x": {"tangential": [1, 2, 3],
                                                           "normal": 1.0}}),
    "quad-tail-cut": ("eval-kernel", {"kernel": "g", "t": 1.0, "x": {"normal": 0.5},
                                      "quad": {"tail_cut": 1e-14}}),
    "identity-seed-str": ("identity-suite", {"identities": ["k0_poisson"], "seed": "x"}),
    "identity-name-list": ("identity-suite", {"identities": [[]]}),
    "report-empty-summary": ("report", "{}"),
}
# Values that must not be rounded, replaced or ignored.
_NOT_COERCED = {
    "eval-h_tilde-theta-zero": ("eval-kernel", {"kernel": "h_tilde", "theta": 0, "t": 1.0,
                                                "x": {"normal": 0.5}}),
    "mass-dim-fraction": ("mass-check", {"epsilon": [1.0], "delta": [1.0], "kappa": [1.0],
                                         "dim": [2.5], "x_n": [0.5], "t": [0.5]}),
    "quad-subdivisions-fraction": ("eval-kernel", {"kernel": "g", "t": 1.0,
                                                   "x": {"normal": 0.5},
                                                   "quad": {"max_subdivisions": 1.9}}),
    "solve-off-axis": ("solve", {**_SOLVE, "params": {"dim": 3}, "data": _GAUSS,
                                 "points": [{"tangential": [0, 1], "normal": 0.5}]}),
    "solve-tangential-length": ("solve", {**_SOLVE, "params": {"dim": 3}, "data": _GAUSS,
                                          "points": [{"tangential": [0, 1, 5],
                                                      "normal": 0.5}]}),
}
# Empty lists: a check over nothing must fail.
_EMPTY = {
    "mass-axis-empty": ("mass-check", {"epsilon": []}),
    "identities-empty": ("identity-suite", {"identities": []}),
    "solve-points-empty": ("solve", {**_SOLVE, "points": []}),
    "solve-times-empty": ("solve", {**_SOLVE, "times": []}),
}


def _run_in(tmp, command, cfg):
    """Run ``command`` with ``cfg`` written beside (not into) ``tmp/out``;
    for ``report`` the cfg text is a summary file placed in the output."""
    out = os.path.join(tmp, "out")
    os.makedirs(out)
    args = [command, "--out", out]
    if command == "report":
        with open(os.path.join(out, "x.summary.json"), "w") as fh:
            fh.write(cfg)
    else:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        args += ["--config", path]
    before = set(os.listdir(out))
    rc = main(args)
    return rc, set(os.listdir(out)) - before


@pytest.mark.parametrize("command,cfg", [
    pytest.param(*case, id=name)
    for name, case in {**_REJECTED, **_NOT_COERCED, **_EMPTY}.items()])
def test_bad_config_exits_2(tmp_path, capsys, command, cfg):
    rc, written = _run_in(str(tmp_path), command, cfg)
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not written


def test_report_lists_failed_run_with_nan(tmp_path):
    (tmp_path / "bounds_check.summary.json").write_text(
        '{"experiment": "bounds-check", "stability": NaN, "upper_constant": Infinity,'
        ' "lower_constant": 1.0, "detail": "d", "pass": false}')
    assert run_cli(tmp_path, "report") == 1
    assert "| bounds-check |  |  | d | NO |" in (tmp_path / "report.md").read_text()


def test_solve_probe_on_first_axis_is_accepted(tmp_path):
    rows = {}
    for tang in (0.5, [0.5, 0.0]):
        out = tmp_path / str(len(rows))
        out.mkdir()
        assert run_cli(out, "solve", {**_SOLVE, "params": {"dim": 3}, "data": _GAUSS,
                                      "points": [{"tangential": tang, "normal": 0.5}]}) == 0
        rows[str(tang)] = (out / "solve.csv").read_text()
    assert len(set(rows.values())) == 1


# a tolerance at rounding level with max_subdivisions 1 leaves a quadrature
# of each case unconverged while its check still passes: |m - 1| = 0 for
# the mass case
_CAPPED = {"rel_tol": 1e-15, "abs_tol": 1e-300, "max_subdivisions": 1}
_STRICT = {
    "eval-kernel": ({"kernel": "g", "t": 1.0, "x": {"normal": 0.5}, "quad": _CAPPED},
                    "eval_kernel.csv"),
    "mass-check": ({"epsilon": [1.0], "delta": [1.0], "kappa": [1.0], "dim": [2],
                    "x_n": [0.5], "t": [1.0], "quad": _CAPPED}, "mass_check.csv"),
    "solve": ({**_SOLVE, "data": _GAUSS, "quad": _CAPPED}, "solve.csv"),
    "bounds-check": ({"samples_per_region": 8}, "bounds_check.csv"),
    "limit-rate": ({"which": "hdpsi_eps_to_0", "quad": _CAPPED},
                   "limit_hdpsi_eps_to_0.csv"),
    "opnorm": ({"p": 1, "q": "inf", "quad": _CAPPED}, "opnorm.csv"),
    "oracle-compare": ({**_ORACLE, "tol": 1.0, "quad": _CAPPED}, "oracle_compare.csv"),
}


@pytest.mark.parametrize("command", sorted(_STRICT))
def test_honours_strict(tmp_path, monkeypatch, command):
    cfg, csv_name = _STRICT[command]
    if command == "bounds-check":  # it takes no quad block: force non-convergence
        exchange = verification.exchange_log_grid
        monkeypatch.setattr(verification, "exchange_log_grid",
                            lambda *a: (*exchange(*a)[:3], False))
    (tmp_path / "plain").mkdir()
    (tmp_path / "strict").mkdir()
    assert run_cli(tmp_path / "plain", command, cfg) == 0
    assert run_cli(tmp_path / "strict", command, cfg, extra=["--strict"]) == 1
    assert ((tmp_path / "plain" / csv_name).read_bytes()
            == (tmp_path / "strict" / csv_name).read_bytes())


def _assert_failed(tmp_path, stem, key):
    summary = json.loads((tmp_path / f"{stem}.summary.json").read_text())
    assert summary["pass"] is False and math.isnan(summary[key])


def test_mass_check_nan_deviation_fails(tmp_path, monkeypatch):
    total_mass = verification.total_mass

    def nan_at_half(p, xn, t, spec):
        res = total_mass(p, xn, t, spec)
        return replace(res, value=math.nan) if xn == 0.5 else res

    monkeypatch.setattr(verification, "total_mass", nan_at_half)
    cfg = {"epsilon": [1.0], "delta": [1.0], "kappa": [1.0], "dim": [2],
           "x_n": [0.0, 0.5], "t": [1.0]}
    assert run_cli(tmp_path, "mass-check", cfg, extra=["--strict"]) == 1
    _assert_failed(tmp_path, "mass_check", "max_deviation")


def test_oracle_compare_nan_at_second_time_fails(tmp_path, monkeypatch):
    compare, calls = verification.compare, []

    def nan_second(*args):
        calls.append(args)
        return (math.nan, math.nan) if len(calls) == 2 else compare(*args)

    monkeypatch.setattr(verification, "compare", nan_second)
    cfg = {**_ORACLE, "times": [0.25, 0.5], "tol": 1.0}
    assert run_cli(tmp_path, "oracle-compare", cfg) == 1
    _assert_failed(tmp_path, "oracle_compare", "sup_rel")


# ---------------------------------------------------------------------------
# fuzz: one bad value or one unknown key never escapes as a traceback
# ---------------------------------------------------------------------------

_SEEDS = {
    "eval-kernel": {"kernel": "g", "params": {"epsilon": 1.0, "delta": 1.0, "kappa": 1.0,
                                              "dim": 2},
                    "t": 1.0, "x": {"tangential": 0.5, "normal": 0.5}},
    "mass-check": {"epsilon": [1.0], "delta": [1.0], "kappa": [1.0], "dim": [2],
                   "x_n": [0.5], "t": [0.5]},
    "identity-suite": {"identities": ["k0_poisson"], "seed": 5},
    "limit-rate": {"which": "hdpsi_eps_to_0"},
    "bounds-check": {"samples_per_region": 8, "seed": 7},
    "opnorm": {"p": "inf", "q": "inf", "t_ladder": [0.5, 1.0]},
    "oracle-compare": {**_ORACLE, "window": {"x": 1.0, "z": 1.0}},
    "solve": {**_SOLVE, "data": _GAUSS, "points": [{"tangential": 0.5, "normal": 0.5}]},
}
_SUMMARIES = [
    {"experiment": "mass-check", "theorem": "total-mass identity",
     "max_deviation": 1e-9, "tolerance": 1e-6, "pass": True},
    {"experiment": "identity-suite", "pass": True,
     "results": {"k0_poisson": {"statement": "s", "tolerance": 1e-8,
                                "max_deviation": 1e-16, "pass": True}}},
    {"experiment": "opnorm", "theorem": "operator-norm decay", "p": "inf", "q": 2,
     "slope": -0.5, "expected_slope": 0.0, "detail": "d", "pass": True},
]
_BAD_VALUES = [None, True, "x", [], {}, math.nan, math.inf, -math.inf, -1, 0, 0.5, 2.5]


def _places(obj, path=()):
    """Every (path, holds-an-object) position below the root of a JSON value."""
    children = (obj.items() if isinstance(obj, dict)
                else enumerate(obj) if isinstance(obj, list) else ())
    for k, v in children:
        yield path + (k,), isinstance(v, dict)
        yield from _places(v, path + (k,))


@st.composite
def _mutated(draw, seed):
    """``seed`` with one value replaced by a bad one, or one unknown key added
    to one of its objects (the root included)."""
    cfg = json.loads(json.dumps(seed))
    path, is_object = draw(st.sampled_from([*_places(cfg), ((), True)]))
    bad = draw(st.sampled_from(_BAD_VALUES))
    parent = cfg
    for k in path[:-1]:
        parent = parent[k]
    if not path or (is_object and draw(st.integers(0, 3)) == 0):
        (parent[path[-1]] if path else cfg)["unknown_key"] = bad
    else:
        parent[path[-1]] = bad
    return cfg


def _assert_contract(command, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        rc, written = _run_in(tmp, command, cfg)
    assert rc in (0, 1, 2)
    if rc == 2:
        assert not written


_FUZZ = settings(max_examples=40, derandomize=True, deadline=None, database=None,
                 suppress_health_check=list(HealthCheck))


@pytest.mark.parametrize("command", sorted(_SEEDS))
@_FUZZ
@given(data=st.data())
def test_fuzz_exit_contract(command, data):
    _assert_contract(command, data.draw(_mutated(_SEEDS[command])))


@_FUZZ
@given(summary=st.sampled_from(_SUMMARIES).flatmap(_mutated))
def test_fuzz_report_exit_contract(summary):
    _assert_contract("report", json.dumps(summary))
