"""CLI verbs driven in process through main(argv).

Exit codes follow the contract: 0 on success/pass, 1 on a failing
experiment or domain error, 2 on configuration errors.  Output files are
compared byte for byte against the library writers.
"""

import dataclasses
import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartic_lab import analytic, cli, sums, verify
from quartic_lab.cli import EXPERIMENTS, ExperimentConfig, main, run_experiment
from quartic_lab.errors import ConfigError
from quartic_lab.functions import builtin
from quartic_lab.kernels import Grid, fbm_composite_kernel, heat_kernel
from quartic_lab.simulate import load_ensemble, write_ensemble_csv
from quartic_lab.verify import draw_ensemble

# A grid size of 1 followed by 400 zeros: an int that no float holds.
_BEYOND_FLOAT = "1" + "0" * 400


class TestComputeKappa:
    def test_prints_value_and_bound(self, capsys):
        assert main(["compute-kappa", "--tol", "1e-6"]) == 0
        out = capsys.readouterr().out
        assert "kappa = 1.0293453852" in out
        assert "requested 1.0e-06" in out
        assert "series terms =" in out

    def test_default_tolerance(self, capsys):
        assert main(["compute-kappa"]) == 0
        assert "kappa = 1.0293453852" in capsys.readouterr().out


class TestCovTable:
    def test_small_table_files(self, tmp_path, capsys):
        out = str(tmp_path / "tbl")
        assert main(["cov-table", "--n", "64", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "covariance audit at n=64" in stdout and "ok" in stdout

        table = analytic.discrete_cov_table(64)
        lines = (tmp_path / "tbl" / "table.csv").read_text().strip().split("\n")
        assert lines[0] == "j,sigma_sq,sigma_hat"
        assert len(lines) == 1 + 64
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == table.sigma_sq[0]
        assert float(first[2]) == table.sigma_hat[0]

        cross_lines = (tmp_path / "tbl" / "cross.csv").read_text().strip().split("\n")
        assert cross_lines[0] == "i,j,cov"
        assert len(cross_lines) == 1 + 63 * 64 // 2

        audit = json.loads((tmp_path / "tbl" / "audit.json").read_text())
        assert audit["ok"] is True
        assert audit["n"] == 64

    @pytest.mark.parametrize("flags", [["--lag", "-3"], ["--n", "0"], ["--maxj", "0"]])
    def test_bad_flags_are_config_errors(self, tmp_path, capsys, flags):
        assert main(["cov-table", "--n", "64", *flags, "--out", str(tmp_path / "t")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {flags[0]} must be")
        assert not (tmp_path / "t").exists()


class TestSample:
    def test_binary_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "paths.bin")
        code = main(["sample", "--kernel", "heat", "--n", "16", "--M", "3",
                     "--seed", "5", "--out", out])
        assert code == 0
        assert "wrote 3 paths" in capsys.readouterr().out
        ens = load_ensemble(out)
        ref = draw_ensemble(heat_kernel(), Grid(16), 3, 5)
        assert np.array_equal(ens.values, ref.values)
        assert ens.seed == 5

    def test_csv_matches_library_writer(self, tmp_path):
        out = str(tmp_path / "paths.csv")
        assert main(["sample", "--n", "8", "--M", "2", "--seed", "9",
                     "--out", out, "--format", "csv"]) == 0
        ref_path = str(tmp_path / "ref.csv")
        write_ensemble_csv(draw_ensemble(heat_kernel(), Grid(8), 2, 9), ref_path)
        assert open(out).read() == open(ref_path).read()

    def test_brownian_kernel_samples_beyond_dense_range(self, tmp_path, capsys):
        """N = 2^20 would need an 8 TiB dense matrix; the bm sampler is O(N)."""
        out = str(tmp_path / "bm.bin")
        assert main(["sample", "--kernel", "bm", "--n", "1048576", "--M", "2", "--out", out]) == 0
        ens = load_ensemble(out)
        assert ens.values.shape == (2, 1048577) and ens.kernel_id == "bm"

    def test_unknown_kernel_is_config_error(self, tmp_path, capsys):
        code = main(["sample", "--kernel", "nope", "--out", str(tmp_path / "x.bin")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")

    # Every verb, not only `sample`: an input that would need more than
    # physical memory is refused before numpy is asked for the arrays,
    # and a grid size beyond float range before it is converted.
    @pytest.mark.parametrize("argv, reason", [
        (["sample", "--kernel", "fbm", "--n", "100000000000", "--M", "1", "--out", "x.bin"],
         "physical memory"),
        (["sample", "--kernel", "heat", "--n", "256", "--M", "100000000", "--out", "x.bin"],
         "physical memory"),
        (["verify", "--experiment", "ito", "--n", "100000000000", "--M", "2"], "physical memory"),
        (["cov-table", "--n", "64", "--maxj", "100000000000"], "physical memory"),
        (["cov-table", "--n", "64", "--maxj", "1000", "--lag", "100000000000"],
         "physical memory"),
        (["compute-kappa", "--tol", "1e-20"], "float64 cannot certify"),
        (["compute-kappa", "--tol", "1e-300"], "float64 cannot certify"),
        (["sample", "--kernel", "heat", "--n", _BEYOND_FLOAT, "--out", "x.bin"], "float range"),
        (["verify", "--experiment", "ito", "--n", _BEYOND_FLOAT, "--M", "2"], "float range"),
        (["sums", "--functional", "qn", "--n", _BEYOND_FLOAT, "--out", "x.csv"], "float range"),
        (["cov-table", "--n", _BEYOND_FLOAT, "--maxj", "4"], "float range"),
    ], ids=["fbm-circulant", "heat-normals", "ito-grid", "cov-table-maxj", "cov-table-lag",
            "kappa-terms", "kappa-size", "sample-n-overflow", "ito-n-overflow",
            "sums-n-overflow", "cov-table-n-overflow"])
    def test_oversized_draw_is_domain_error(self, tmp_path, monkeypatch, capsys, argv, reason):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainError" and reason in err["message"]


# Path-drawing flags take the config checks of the keys they set, so a bad
# value is a config error (exit 2), as it is in a verify config.
@pytest.mark.parametrize("argv", [
    ["sums", "--functional", "qn", "--M", "0"],
    ["sums", "--functional", "qn", "--t", "-1"],
    ["sample", "--M", "0"],
    ["sample", "--T", "nan"],
])
def test_bad_path_flags_are_config_errors(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


# Every `sums --functional` choice (power at p 3 and 4): its flags and the
# library call whose values the CSV must hold.
_SUMS_CASES = [
    ("midpoint", ["--g", "cube", "--deriv", "1"],
     lambda x, grid: sums.midpoint_sum_ensemble(x, grid, builtin("cube"), 1)),
    ("offset", ["--g", "poly_k", "--coeffs", "1,2,3"],
     lambda x, grid: sums.offset_midpoint_sum_ensemble(
         x, grid, builtin("poly_k", coeffs=[1.0, 2.0, 3.0]))),
    ("trapezoid", ["--g", "sine"],
     lambda x, grid: sums.trapezoid_sum_ensemble(x, grid, builtin("sine"))),
    ("jn", ["--g", "square", "--deriv", "2"],
     lambda x, grid: sums.alt_qv_weighted_ensemble(x, grid, builtin("square"), 2)),
    ("qn", [], sums.qn_process_ensemble),
    ("bn", [], sums.bn_process_ensemble),
    ("bnbar", [], sums.bn_smoothed_ensemble),
    ("power", ["--p", "3", "--g", "linear", "--parity", "odd", "--eval-point", "right"],
     lambda x, grid: sums.power_sum_ensemble(
         x, grid, builtin("linear"), 3, parity="odd", eval_point="right")),
    ("power", ["--p", "4"],
     lambda x, grid: sums.power_sum_ensemble(x, grid, builtin("const"), 4)),
]


class TestSums:
    def test_qn_values_match_library(self, tmp_path, capsys):
        out = str(tmp_path / "qn.csv")
        code = main(["sums", "--functional", "qn", "--n", "64", "--M", "5",
                     "--seed", "11", "--t", "0.5,1.0", "--out", out])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "t=0.5: mean =" in stdout and "t=1: mean =" in stdout

        grid = Grid(64)
        series = sums.qn_process_ensemble(
            draw_ensemble(heat_kernel(), grid, 5, 11).values, grid
        )
        lines = open(out).read().strip().split("\n")
        assert lines[0] == "replicate,t,value"
        assert len(lines) == 1 + 5 * 2
        rep0_half = lines[1].split(",")
        assert rep0_half[0] == "0"
        assert float(rep0_half[2]) == series[0, grid.index_at(0.5)]

    def test_trapezoid_with_function_flags(self, tmp_path):
        out = str(tmp_path / "trap.csv")
        code = main(["sums", "--functional", "trapezoid", "--g", "square",
                     "--deriv", "1", "--n", "32", "--M", "3", "--out", out])
        assert code == 0
        grid = Grid(32)
        series = sums.trapezoid_sum_ensemble(
            draw_ensemble(heat_kernel(), grid, 3, 7).values, grid, builtin("square"), 1
        )
        last = open(out).read().strip().split("\n")[-1].split(",")
        assert float(last[2]) == series[2, grid.index_at(1.0)]

    def test_poly_coeffs_flow_through(self, tmp_path):
        out = str(tmp_path / "p.csv")
        code = main(["sums", "--functional", "midpoint", "--g", "poly_k",
                     "--coeffs", "0,0,1", "--deriv", "1", "--n", "16", "--M", "2",
                     "--out", out])
        assert code == 0

    def test_flag_rejection_for_parameterless_functionals(self, tmp_path, capsys):
        code = main(["sums", "--functional", "bn", "--g", "square",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "--g does not apply" in capsys.readouterr().err

    @pytest.mark.parametrize("functional,flags", [
        ("midpoint", ["--p", "5"]),
        ("midpoint", ["--parity", "odd"]),
        ("midpoint", ["--eval-point", "right"]),
        ("qn", ["--parity", "odd"]),
    ])
    def test_every_flag_the_function_lacks_is_rejected(self, tmp_path, capsys, functional, flags):
        code = main(["sums", "--functional", functional, *flags,
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert f"{flags[0]} does not apply" in capsys.readouterr().err

    def test_power_requires_valid_exponent(self, tmp_path, capsys):
        code = main(["sums", "--functional", "power", "--g", "const",
                     "--p", "5", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "--p must be 3 or 4" in capsys.readouterr().err

    def test_poly_k_requires_coeffs(self, tmp_path, capsys):
        code = main(["sums", "--functional", "midpoint", "--g", "poly_k",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "needs coefficients" in capsys.readouterr().err

    def test_coeffs_only_with_poly_k(self, tmp_path, capsys):
        code = main(["sums", "--functional", "midpoint", "--g", "square",
                     "--coeffs", "1,2", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_probe_beyond_horizon_rejected(self, tmp_path, capsys):
        code = main(["sums", "--functional", "qn", "--t", "2.0", "--T", "1.0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_domain_error_exits_one_with_diagnostic(self, tmp_path, capsys):
        # bnbar needs n >= 16; the failure surfaces as a JSON diagnostic.
        code = main(["sums", "--functional", "bnbar", "--n", "8",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainError"


    def test_unknown_g_is_config_error(self, tmp_path, capsys):
        code = main(["sums", "--functional", "midpoint", "--g", "nope",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize(
        "functional,flags,call", _SUMS_CASES,
        ids=[f"power-p{c[1][1]}" if c[0] == "power" else c[0] for c in _SUMS_CASES],
    )
    def test_every_functional_matches_library(self, tmp_path, functional, flags, call):
        out = str(tmp_path / "s.csv")
        code = main(["sums", "--functional", functional, *flags, "--n", "64", "--M", "4",
                     "--seed", "5", "--t", "0.3,0.5,1.0", "--out", out])
        assert code == 0
        grid = Grid(64)
        series = call(draw_ensemble(heat_kernel(), grid, 4, 5).values, grid)
        rows = [line.split(",") for line in open(out).read().strip().split("\n")[1:]]
        assert len(rows) == 4 * 3
        for row, (rep, t) in zip(rows, [(r, t) for r in range(4) for t in (0.3, 0.5, 1.0)]):
            k = grid.index_at(t)
            assert (int(row[0]), float(row[1])) == (rep, grid.times()[k])
            assert float(row[2]) == series[rep, k]


class TestVerifyVerb:
    def _write_config(self, tmp_path, name, rec):
        path = tmp_path / name
        path.write_text(json.dumps(rec))
        return str(path)

    def test_trapezoid_run_emits_reports(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, "cfg.json", {"n_list": [16, 32], "m": 2})
        out = str(tmp_path / "run")
        code = main(["verify", "--experiment", "trapezoid", "--config", cfg, "--out", out])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "[pass] mse_monotone@t=1" in stdout
        assert "experiment trapezoid: PASS" in stdout
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["experiment"] == "trapezoid"
        assert summary["passed"] is True
        csv_text = (tmp_path / "run" / "replicates.csv").read_text()
        assert csv_text.startswith("n,replicate,t,")

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = self._write_config(
            tmp_path, "cfg.json",
            {"n": 256, "m": 300, "seeds": 1,
             "tolerances": {"ks_tol": 0.15, "mean_tol": 0.15, "var_tol": 0.3}},
        )
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["verify", "--experiment", "ito", "--config", cfg, "--out", out]) == 0
            outs.append(out)
        capsys.readouterr()
        for fname in ("summary.json", "replicates.csv"):
            a = open(os.path.join(outs[0], fname), "rb").read()
            b = open(os.path.join(outs[1], fname), "rb").read()
            assert a == b

    def test_failing_experiment_exits_one(self, tmp_path, capsys):
        cfg = self._write_config(
            tmp_path, "cfg.json",
            {"n": 64, "m": 50, "probes": [1.0], "tolerances": {"ks_tol": 1e-4}},
        )
        out = str(tmp_path / "run")
        code = main(["verify", "--experiment", "bn", "--config", cfg, "--out", out])
        assert code == 1
        stdout = capsys.readouterr().out
        assert "experiment bn: FAIL" in stdout
        assert "[FAIL]" in stdout
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["passed"] is False

    def test_trapezoid_final_gate_failure_exits_one(self, tmp_path, capsys):
        rec = {"g": "cube", "n_list": [64, 256, 1024], "m": 100}
        final = verify.verify_trapezoid_ucp(
            g=builtin("cube"), n_list=(64, 256, 1024), m=100, final_tol=0.05
        ).stats["mse"]["t=1"][-1]
        cfg = self._write_config(
            tmp_path, "cfg.json", dict(rec, tolerances={"final_tol": 0.5 * final})
        )
        code = main(["verify", "--experiment", "trapezoid", "--config", cfg,
                     "--out", str(tmp_path / "run")])
        assert code == 1
        stdout = capsys.readouterr().out
        assert "[FAIL] mse_final@t=1" in stdout
        assert "experiment trapezoid: FAIL" in stdout

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, "cfg.json", {"n": 64, "bogus": 1})
        code = main(["verify", "--experiment", "bn", "--config", cfg,
                     "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "bogus" in err

    def test_wrong_tolerance_key_exits_two(self, tmp_path, capsys):
        cfg = self._write_config(
            tmp_path, "cfg.json", {"n_list": [16, 32], "m": 2, "tolerances": {"ks_tol": 0.1}}
        )
        code = main(["verify", "--experiment", "trapezoid", "--config", cfg,
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "ks_tol" in capsys.readouterr().err

    def test_malformed_config_files(self, tmp_path, capsys):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        assert main(["verify", "--experiment", "bn", "--config", str(bad_json)]) == 2
        listy = tmp_path / "list.json"
        listy.write_text("[1, 2]")
        assert main(["verify", "--experiment", "bn", "--config", str(listy)]) == 2
        assert main(["verify", "--experiment", "bn",
                     "--config", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()

    def test_cli_flags_override_config(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, "cfg.json", {"n": 4096, "m": 1000, "seed": 1})
        out = str(tmp_path / "run")
        code = main(["verify", "--experiment", "bn", "--config", cfg, "--out", out,
                     "--n", "128", "--M", "60", "--seed", "12"])
        assert code in (0, 1)
        capsys.readouterr()
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["config"]["n"] == 128
        assert summary["config"]["m"] == 60
        assert summary["config"]["seed"] == 12

    def test_out_dir_from_config_and_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = self._write_config(
            tmp_path, "cfg.json", {"n_list": [16, 32], "m": 2, "out_dir": "from-config"}
        )
        assert main(["verify", "--experiment", "trapezoid", "--config", cfg]) == 0
        assert (tmp_path / "from-config" / "summary.json").exists()
        cfg2 = self._write_config(tmp_path, "cfg2.json", {"n_list": [16, 32], "m": 2})
        assert main(["verify", "--experiment", "trapezoid", "--config", cfg2]) == 0
        assert (tmp_path / "verify-trapezoid" / "summary.json").exists()
        capsys.readouterr()


class TestExperimentConfig:
    def test_defaults_fill_in(self):
        config = ExperimentConfig.from_dict("bn", {})
        assert config.n == 4096 and config.m == 1000 and config.seed == 7
        assert config.probes == (0.25, 0.5, 0.75, 1.0)
        assert config.kernel.kind == "heat"

    def test_ladder_experiments_use_n_list(self):
        config = ExperimentConfig.from_dict("trapezoid", {"n_list": [64, 128]})
        assert config.n is None
        assert config.n_list == (64, 128)

    def test_kernel_record_accepted(self):
        config = ExperimentConfig.from_dict("bn", {"kernel": {"kind": "bm"}})
        assert config.kernel.kind == "bm"

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict("nope", {})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict("bn", {"n": 1})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict("bn", {"m": 0})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict("bn", {"seed": -1})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict("bn", {"probes": []})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict("ito", {"probes": [2.0], "horizon": 1.0})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict("trapezoid", {"n_list": []})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                "trapezoid", {"tolerances": {"max_inversions": 1.5}}
            )
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict("bn", {"tolerances": {"ks_tol": -0.1}})


# Malformed values that used to escape from_dict as ValueError or
# TypeError, or that it used to accept.
_MALFORMED = [
    ("ito", "seeds", "x"),
    ("ito", "c", "abc"),
    ("ito", "window_start", "x"),
    ("ito", "horizon", "x"),
    ("bn", "probes", "ab"),
    ("bn", "probes", 5),
    ("trapezoid", "n_list", 5),
    ("bn", "tolerances", 3),
    ("ito", "seeds", 2.7),
    ("bn", "m", True),
    ("bn", "probes", [float("nan")]),
    ("trapezoid", "tolerances", {"final_tol": float("inf")}),
    ("expansion", "tolerances", {"max_inversions": True}),
]


class TestTypedConfigErrors:
    @pytest.mark.parametrize(
        "experiment,key,value", _MALFORMED, ids=[f"{k}={v!r}" for _, k, v in _MALFORMED]
    )
    def test_malformed_value_is_config_error(self, experiment, key, value):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(experiment, {key: value})

    def test_main_exits_two_on_malformed_value(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": "x"}))
        assert main(["verify", "--experiment", "ito", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "run").exists()

    def test_main_exits_two_on_bad_poly_k_coeffs(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"g": {"id": "poly_k", "coeffs": "12"}}))
        assert main(["verify", "--experiment", "trapezoid", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_main_exits_two_on_null_g(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"g": None, "n_list": [16, 32], "m": 2}))
        assert main(["verify", "--experiment", "trapezoid", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_two(self, tmp_path, capsys, workers):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_list": [16, 32], "m": 2}))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--experiment", "trapezoid", "--config", str(cfg),
                  "--out", str(tmp_path / "run"), "--workers", workers])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_workers_is_an_unknown_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_list": [16, 32], "m": 2}))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--experiment", "trapezoid", "--config", str(cfg),
                  "--out", str(tmp_path / "run"), "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        # The benchmark's environment record reads this inert default.
        assert cli.build_parser().parse_args(["verify", "--experiment", "ito"]).workers == 1

    @pytest.mark.parametrize(
        "experiment, probes",
        [("trapezoid", [1.0, 1.0]), ("ito", [0.5000001, 0.5000002, 1.0])],
        ids=["exact-duplicate", "same-label"],
    )
    def test_probes_with_one_label_exit_two(self, tmp_path, capsys, experiment, probes):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"probes": probes}))
        assert main(["verify", "--experiment", experiment, "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "run").exists()

    def test_master_seeds_beyond_64_bits_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 2**64 - 2, "seeds": 3}))
        assert main(["verify", "--experiment", "ito", "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert main(["sample", "--seed", str(2**64), "--n", "8", "--M", "2",
                     "--out", str(tmp_path / "paths.bin")]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "paths.bin").exists()


# Every config key of some experiment, plus one that none accepts.
_KEYS = ["kernel", "c", "g", "n", "n_list", "m", "horizon", "probes", "seed", "seeds",
         "window_start", "out_dir", "bogus"]
_TOLERANCE_KEYS = ["ks_tol", "mean_tol", "var_tol", "corr_tol", "final_tol", "max_inversions"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["heat", "fbm", "bm", "cube", "poly_k"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["kind", "c", "components", "id", "coeffs"]), inner, max_size=3
    ),
    max_leaves=8,
)
_RECORDS = st.dictionaries(
    st.sampled_from(_KEYS),
    _JSON | st.dictionaries(st.sampled_from(_TOLERANCE_KEYS), _JSON, max_size=3),
    max_size=5,
)


@settings(max_examples=300, deadline=None, database=None)
@given(experiment=st.sampled_from(EXPERIMENTS), rec=_RECORDS)
def test_fuzzed_configs_return_or_raise_config_error(experiment, rec):
    try:
        config = ExperimentConfig.from_dict(experiment, rec)
    except ConfigError:
        return
    assert config.experiment == experiment


# A small run per experiment and the verify function it must reach.
_SMALL = {
    "ito": ("verify_ito_formula", {"n": 64, "m": 40, "seeds": 2, "probes": [0.5, 1.0],
                                   "tolerances": {"ks_tol": 0.3}}),
    "bn": ("verify_bn_limit", {"n": 64, "m": 40, "probes": [0.5, 1.0]}),
    "trapezoid": ("verify_trapezoid_ucp", {"n_list": [16, 32, 64], "m": 8,
                                           "tolerances": {"final_tol": 0.5}}),
    "expansion": ("verify_expansion_residual", {"n_list": [16, 32], "m": 8, "seed": 3}),
    "fbm-window": ("verify_fbm_window", {"n": 64, "m": 40, "seeds": 1}),
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_table_dispatch_matches_direct_call(experiment):
    function, rec = _SMALL[experiment]
    via_cli = run_experiment(ExperimentConfig.from_dict(experiment, rec))
    kwargs = {k: v for k, v in rec.items() if k != "tolerances"}
    direct = getattr(verify, function)(**kwargs, **rec.get("tolerances", {}))
    assert via_cli.summary_json() == direct.summary_json()
    assert via_cli.replicates_csv() == direct.replicates_csv()
    assert via_cli.experiment == experiment


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_report_config_keys_are_the_signature(experiment):
    function, rec = _SMALL[experiment]
    function = getattr(verify, function)
    kwargs = {k: v for k, v in rec.items() if k != "tolerances"}
    report = function(**kwargs, **rec.get("tolerances", {}))
    params = set(inspect.signature(function).parameters) - {"experiment_name"}
    assert set(report.config) == params | {"experiment"}


def test_experiment_config_fields_are_the_config_keys():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    keys = set().union(*cli._DEFAULTS.values())
    assert fields == {"experiment", "tolerances", "out_dir"} | keys


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_default_kernel_and_g_are_the_signature_objects(experiment):
    config = ExperimentConfig.from_dict(experiment, {})
    params = inspect.signature(getattr(verify, cli._SPECS[experiment][0])).parameters
    for key in ("kernel", "g"):
        if key in params:
            assert getattr(config, key) is params[key].default


def test_fbm_window_defaults_come_from_its_signature():
    config = ExperimentConfig.from_dict("fbm-window", {})
    assert config.window_start == 0.1
    assert config.kernel == fbm_composite_kernel()
    assert config.seeds == 3 and config.n == 4096
    assert ExperimentConfig.from_dict("ito", {}).window_start == 0.0


def test_malloc_pinning_needs_glibc(monkeypatch):
    from quartic_lab import cli

    pin = cli._pin_malloc_thresholds.__wrapped__
    calls = []

    class Libc:
        def mallopt(self, param, value):
            calls.append((param, value))

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
    monkeypatch.setattr(cli.sys, "platform", "darwin")
    pin()
    assert calls == []
    monkeypatch.setattr(cli.sys, "platform", "linux")
    pin()
    assert calls == [(cli._M_MMAP_THRESHOLD, 32 << 20), (cli._M_TRIM_THRESHOLD, 1 << 30)]
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    pin()  # a C library without mallopt is left alone
    assert len(calls) == 2


def _run_fresh_python(code):
    """Run code in a new interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cli_import_leaves_scipy_linalg_unloaded():
    """scipy.linalg loads with the first dense factor, not with the CLI."""
    _run_fresh_python("import sys, quartic_lab.cli; assert 'scipy.linalg' not in sys.modules")


def test_ladder_run_leaves_scipy_stats_unloaded(tmp_path):
    """The rate fit's Student-t quantile comes from scipy.special, not scipy.stats."""
    config = tmp_path / "ladder.json"
    config.write_text(json.dumps({"kernel": "fbm", "g": "cube", "n_list": [64, 128, 256], "m": 20}))
    argv = ["verify", "--experiment", "trapezoid", "--config", str(config), "--out", str(tmp_path)]
    _run_fresh_python(
        "import sys, quartic_lab.cli\n"
        f"assert quartic_lab.cli.main({argv!r}) == 0\n"
        "assert 'scipy.stats' not in sys.modules"
    )
    assert json.loads((tmp_path / "summary.json").read_text())["stats"]["rate"]
