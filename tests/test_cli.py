import json
import math

import pytest

from dynheat.cli import main


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
        assert "0.15915494309189535" in out
        assert (tmp_path / "eval_kernel.csv").exists()

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
        assert len(lines) == 5

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
                     {"identities": ["marginal_masses", "k0_poisson"]},
                     extra=["--threads", "2"])
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
