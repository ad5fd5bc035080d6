"""CLI verbs driven in process through main(argv).

Exit codes follow the contract: 0 on success/pass, 1 on a failing
experiment or domain error, 2 on configuration errors.  Output files are
compared byte for byte against the library writers.
"""

import dataclasses
import hashlib
import inspect
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NUMPY_LOG_IS_LIBM, rerun_under_libm_log, run_fresh_python
from quartic_lab import analytic, cli, sums, verify
from quartic_lab.cli import EXPERIMENTS, ExperimentConfig, main, run_experiment
from quartic_lab.errors import ConfigError
from quartic_lab.functions import builtin
from quartic_lab.kernels import Grid, fbm_composite_kernel, heat_kernel
from quartic_lab.simulate import write_ensemble_csv
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

    # Checked as --tol parses: float64 certifies no bound below KAPPA_MIN_TOL.
    @pytest.mark.parametrize("tol, reason", [
        ("inf", "--tol must be a finite number in [1e-15, 0.5], got inf"),
        ("nan", "--tol must be a finite number in [1e-15, 0.5], got nan"),
        ("1", "--tol must be a finite number in [1e-15, 0.5], got 1.0"),
        ("0", "--tol must be a finite number in [1e-15, 0.5], got 0.0"),
        ("1e-20", "--tol must be a finite number in [1e-15, 0.5], got 1e-20"),
        ("1e-300", "--tol must be a finite number in [1e-15, 0.5], got 1e-300"),
    ], ids=["inf", "nan", "one", "zero", "kappa-terms", "kappa-size"])
    def test_tol_is_checked_as_it_parses(self, capsys, tol, reason):
        assert main(["compute-kappa", "--tol", tol]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {reason}")


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
    def test_csv_round_trip(self, tmp_path, capsys):
        out = tmp_path / "paths.csv"
        code = main(["sample", "--kernel", "heat", "--n", "16", "--M", "3",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        assert "wrote 3 paths" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "replicate,j,t,value"
        rows = [line.split(",") for line in lines[1:]]
        assert [row[:2] for row in rows] == [[str(r), str(j)] for r in range(3) for j in range(17)]
        values = np.array([float(row[3]) for row in rows]).reshape(3, 17)
        ref = draw_ensemble(heat_kernel(), Grid(16), 3, 5)
        assert values.tobytes() == ref.values.tobytes()

    def test_csv_matches_library_writer(self, tmp_path):
        out = tmp_path / "paths.csv"
        assert main(["sample", "--n", "8", "--M", "2", "--seed", "9", "--out", str(out)]) == 0
        ref_path = tmp_path / "ref.csv"
        write_ensemble_csv(draw_ensemble(heat_kernel(), Grid(8), 2, 9), ref_path)
        assert out.read_bytes() == ref_path.read_bytes()

    def test_format_is_an_unknown_flag(self, tmp_path, capsys):
        out = tmp_path / "paths.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--n", "8", "--M", "2", "--out", str(out), "--format", "csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err
        assert not out.exists()

    def test_brownian_kernel_samples_beyond_dense_range(self, tmp_path, capsys):
        """N = 2^20 would need an 8 TiB dense matrix; the bm sampler is O(N)."""
        out = tmp_path / "bm.csv"
        assert main(["sample", "--kernel", "bm", "--n", "1048576", "--M", "2", "--out", str(out)]) == 0
        assert "kernel bm, n=1048576" in capsys.readouterr().out
        rows = 0
        with open(out, "rb") as fh:
            assert next(fh) == b"replicate,j,t,value\n"
            for last in fh:
                rows += 1
        assert rows == 2 * 1048577
        assert last.split(b",")[:2] == [b"1", b"1048576"]

    def test_unknown_kernel_is_config_error(self, tmp_path, capsys):
        code = main(["sample", "--kernel", "nope", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")

    # Every verb, not only `sample`: an input that would need more than
    # physical memory is refused before numpy is asked for the arrays,
    # and a grid size beyond float range before it is converted.
    @pytest.mark.parametrize("argv, reason", [
        (["sample", "--kernel", "fbm", "--n", "100000000000", "--M", "1", "--out", "x.csv"],
         "physical memory"),
        (["sample", "--kernel", "heat", "--n", "256", "--M", "100000000", "--out", "x.csv"],
         "physical memory"),
        (["verify", "--experiment", "ito", "--n", "100000000000", "--M", "2"], "physical memory"),
        (["cov-table", "--n", "64", "--maxj", "100000000000"], "physical memory"),
        (["cov-table", "--n", "64", "--maxj", "1000", "--lag", "100000000000"],
         "physical memory"),
        (["sample", "--kernel", "heat", "--n", _BEYOND_FLOAT, "--out", "x.csv"], "float range"),
        (["verify", "--experiment", "ito", "--n", _BEYOND_FLOAT, "--M", "2"], "float range"),
        (["sums", "--functional", "qn", "--n", _BEYOND_FLOAT, "--out", "x.csv"], "float range"),
        (["cov-table", "--n", _BEYOND_FLOAT, "--maxj", "4"], "float range"),
    ], ids=["fbm-circulant", "heat-normals", "ito-grid", "cov-table-maxj", "cov-table-lag",
            "sample-n-overflow", "ito-n-overflow",
            "sums-n-overflow", "cov-table-n-overflow"])
    def test_oversized_draw_is_domain_error(self, tmp_path, monkeypatch, capsys, argv, reason):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainError" and reason in err["message"]


def test_oversized_ladder_tile_is_domain_error(tmp_path, capsys):
    """A bm ladder whose finest tile of normals exceeds physical memory is refused before
    the tile is allocated, with one JSON line, and writes nothing."""
    config = tmp_path / "bm.json"
    config.write_text(json.dumps({
        "kernel": "bm", "g": "cube", "n_list": [2, 2**40], "m": 1,
        "tolerances": {"final_tol": 1.0},
    }))
    out = tmp_path / "run"
    argv = ["verify", "--experiment", "trapezoid", "--config", str(config), "--out", str(out)]
    assert main(argv) == 1
    [line] = capsys.readouterr().err.splitlines()
    err = json.loads(line)
    assert err["error"] == "DomainError" and "physical memory" in err["message"]
    assert not out.exists()


# Path-drawing flags take the config checks of the keys they set, so a bad
# value is a config error (exit 2) that names the flag, the argument before
# the value, as it is in a verify config.  The draw flags are declared once
# for `sample`, `sums` and `verify`, and each verb refuses each of them.
@pytest.mark.parametrize("argv", [
    ["sums", "--functional", "qn", "--M", "0"],
    ["sums", "--functional", "qn", "--t", "-1"],
    ["sample", "--M", "0"],
    ["sample", "--T", "nan"],
    ["sample", "--n", "1"],
    ["sample", "--seed", "-1"],
    ["sums", "--functional", "qn", "--n", "1"],
    ["sums", "--functional", "qn", "--seed", "-1"],
    ["verify", "--experiment", "ito", "--n", "1"],
    ["verify", "--experiment", "ito", "--M", "0"],
    ["verify", "--experiment", "ito", "--seed", "-1"],
])
def test_bad_path_flags_are_config_errors(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {argv[-2]} must be")
    assert not (tmp_path / "x").exists()


# A list flag whose text does not parse is argparse's usage error, which
# names the flag (exit 2).
@pytest.mark.parametrize("argv, flag", [
    (["--t", "a"], "--t"),
    (["--g", "poly_k", "--coeffs", "a"], "--coeffs"),
])
def test_unparsable_list_flags_name_the_flag(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(["sums", "--functional", "offset", *argv, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected a comma-separated float list, got 'a'" in err
    assert not (tmp_path / "x").exists()


# `verify` flags are refused under their own names, not their config keys.
@pytest.mark.parametrize("argv, message", [
    (["--M", "0"], "config error: --M must be an integer >= 1, got 0"),
    (["--n", "16"], "config error: --n does not apply to experiment 'trapezoid'"),
])
def test_verify_flag_errors_name_the_flag(tmp_path, capsys, argv, message):
    assert main(["verify", "--experiment", "trapezoid", *argv, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "run").exists()


# `sums --deriv` is an order of dx that the integrands have, checked as it parses.
@pytest.mark.parametrize("order", ["10", "-1"])
def test_deriv_is_checked_before_any_draw(tmp_path, capsys, monkeypatch, order):
    monkeypatch.setattr(verify, "draw_ensemble", lambda *args: pytest.fail("drew an ensemble"))
    argv = ["sums", "--functional", "midpoint", "--g", "cube", "--deriv", order,
            "--n", "16", "--M", "2", "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    message = f"config error: --deriv must be an integer >= 0 and < 10, got {order}"
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "x.csv").exists()


# A replicate count that an experiment's statistics cannot use is refused
# before any draw, and nothing is written.
@pytest.mark.parametrize("experiment, m, message", [
    ("ito", "1", "ito needs m >= 2 replicates"),
    ("fbm-window", "1", "fbm-window needs m >= 2 replicates"),
    ("bn", "3", "bn needs m >= 4 replicates"),
])
def test_unusable_replicate_counts_are_refused(tmp_path, capsys, experiment, m, message):
    out = tmp_path / "run"
    assert main(["verify", "--experiment", experiment, "--n", "16", "--M", m, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


def test_flags_are_checked_before_the_functional_options(tmp_path, capsys):
    argv = ["sums", "--functional", "qn", "--p", "5", "--n", "1", "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: --n must be an integer >= 2")


# An output path that cannot be written is an OS error: one JSON diagnostic
# line on stderr and exit 1, not a traceback.
_TRAPEZOID_CONFIG = {"n_list": [16, 32], "m": 2}


@pytest.mark.parametrize("verb, out, error", [
    (["sample", "--n", "8", "--M", "2"], "dir", "IsADirectoryError"),
    (["sums", "--functional", "qn", "--n", "8", "--M", "2"], "missing/x.csv",
     "FileNotFoundError"),
    (["verify", "--experiment", "trapezoid"], "file", "FileExistsError"),
    (["cov-table", "--n", "16"], "file", "FileExistsError"),
], ids=["sample", "sums", "verify", "cov-table"])
def test_unwritable_output_is_a_diagnostic(tmp_path, capsys, verb, out, error):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_TRAPEZOID_CONFIG))
    config = ["--config", str(cfg)] if verb[0] == "verify" else []
    assert main([*verb, *config, "--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert json.loads(err)["error"] == error
    assert (tmp_path / "file").read_text() == "" and not (tmp_path / "missing").exists()


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

    # `sums` draws up to its last probe time, so it takes no horizon.
    def test_horizon_flag_is_unrecognized(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sums", "--functional", "qn", "--t", "0.5", "--T", "1.0",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --T 1.0" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    # The bytes of one `sums` CSV, keyed by NUMPY_LOG_IS_LIBM as the other
    # pins are; its normals happen to round alike under both log dispatches.
    _PINNED_CSV = {
        True: "2d0490be8881c132d1cdbf0c8297c13599e5ca7cbe7c05f5a2cc9e9aec49daef",
        False: "2d0490be8881c132d1cdbf0c8297c13599e5ca7cbe7c05f5a2cc9e9aec49daef",
    }

    def test_csv_bytes_are_pinned(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sums", "--functional", "midpoint", "--g", "cube", "--deriv", "1",
                     "--kernel", "fbm", "--n", "256", "--M", "20", "--t", "0.5,1",
                     "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self._PINNED_CSV[NUMPY_LOG_IS_LIBM]

    def test_csv_pin_holds_under_the_libm_log_dispatch(self):
        rerun_under_libm_log(__file__, "csv_bytes_are_pinned")

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

    @pytest.mark.parametrize("experiment", ["expansion", "trapezoid"])
    def test_non_finite_mse_fails_the_monotone_gate(self, tmp_path, capsys, experiment):
        """g = 1e308 x^3 overflows every rung's MSE to NaN, which no ladder may pass."""
        cfg = self._write_config(tmp_path, "cfg.json", {
            "kernel": "heat", "g": {"id": "poly_k", "coeffs": [0, 0, 0, 1e308]},
            "n_list": [16, 32, 64], "m": 8,
        })
        with np.errstate(all="ignore"):
            code = main(["verify", "--experiment", experiment, "--config", cfg,
                         "--out", str(tmp_path / "run")])
        assert code == 1
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert all(np.isnan(summary["stats"]["mse"]["t=1"]))
        (monotone,) = [c for c in summary["checks"] if c["name"] == "mse_monotone@t=1"]
        assert monotone["passed"] is False
        assert "[FAIL] mse_monotone@t=1" in capsys.readouterr().out

    def test_non_finite_kernel_scale_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kernel": {"kind": "composite", "c": float("nan"), "components": [{"kind": "heat"}]},
            "n_list": [16, 32], "m": 2,
        }))
        code = main(["verify", "--experiment", "trapezoid", "--config", str(cfg),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("numbers", [{"c": "1.5"}, {"mean_coeffs": [True, "2"]}],
                             ids=["c-text", "mean-bool-text"])
    def test_kernel_record_non_numbers_exit_two(self, tmp_path, capsys, numbers):
        kernel = {"kind": "composite", "c": 1.0, "components": [{"kind": "heat"}]} | numbers
        with pytest.raises(ConfigError, match="must be numbers"):
            ExperimentConfig.from_dict("trapezoid", {"kernel": kernel})
        cfg = self._write_config(tmp_path, "cfg.json", {"kernel": kernel, "n_list": [16, 32],
                                                        "m": 2})
        code = main(["verify", "--experiment", "trapezoid", "--config", cfg,
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "run").exists()

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
        kwargs = ExperimentConfig.from_dict("bn", {}).kwargs
        assert kwargs["n"] == 4096 and kwargs["m"] == 1000 and kwargs["seed"] == 7
        assert kwargs["probes"] == (0.25, 0.5, 0.75, 1.0)
        assert kwargs["kernel"].kind == "heat"

    def test_ladder_experiments_use_n_list(self):
        kwargs = ExperimentConfig.from_dict("trapezoid", {"n_list": [64, 128]}).kwargs
        assert "n" not in kwargs
        assert kwargs["n_list"] == (64, 128)

    def test_kernel_record_accepted(self):
        config = ExperimentConfig.from_dict("bn", {"kernel": {"kind": "bm"}})
        assert config.kwargs["kernel"].kind == "bm"

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
            ExperimentConfig.from_dict("trapezoid", {"n_list": []})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                "trapezoid", {"tolerances": {"max_inversions": 1.5}}
            )
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict("bn", {"tolerances": {"ks_tol": -0.1}})


def test_a_tolerance_reaches_the_report_as_its_checked_value(tmp_path):
    """Tolerances 1 and 1.0 are one config: both write the same summary.json bytes."""
    summaries = []
    for tol in (1, 1.0):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 64, "m": 20, "probes": [1.0],
                                   "tolerances": {"ks_tol": tol, "corr_tol": tol}}))
        out = tmp_path / repr(tol)
        main(["verify", "--experiment", "bn", "--config", str(cfg), "--out", str(out)])
        summaries.append((out / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]
    assert b'"threshold": 1.0' in summaries[0]
    config = ExperimentConfig.from_dict("trapezoid", {"tolerances": {"max_inversions": 1}})
    assert type(config.kwargs["max_inversions"]) is int


# Malformed values that used to escape from_dict as ValueError or
# TypeError, or that it used to accept.
_MALFORMED = [
    ("ito", "seeds", "x"),
    ("ito", "c", "abc"),
    ("ito", "window_start", "x"),
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
                     "--out", str(tmp_path / "paths.csv")]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "paths.csv").exists()


# Every config key of some experiment, plus one that none accepts.
_KEYS = ["kernel", "c", "g", "n", "n_list", "m", "probes", "seed", "seeds",
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


def test_experiment_config_kwargs_are_the_config_keys():
    """The record is the verify call's arguments: the experiment's keys, plus the tolerances given."""
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == ["experiment", "kwargs", "out_dir"]
    for experiment, (_, tolerances) in cli._SPECS.items():
        keys = cli._DEFAULTS[experiment].keys()
        assert ExperimentConfig.from_dict(experiment, {}).kwargs.keys() == keys
        given = {"tolerances": dict.fromkeys(tolerances, 1)}
        assert ExperimentConfig.from_dict(experiment, given).kwargs.keys() == keys | set(tolerances)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_default_kernel_and_g_are_the_signature_objects(experiment):
    config = ExperimentConfig.from_dict(experiment, {})
    params = inspect.signature(getattr(verify, cli._SPECS[experiment][0])).parameters
    for key in ("kernel", "g"):
        if key in params:
            assert config.kwargs[key] is params[key].default


def test_fbm_window_defaults_come_from_its_signature():
    kwargs = ExperimentConfig.from_dict("fbm-window", {}).kwargs
    assert kwargs["window_start"] == 0.1
    assert kwargs["kernel"] == fbm_composite_kernel()
    assert kwargs["seeds"] == 3 and kwargs["n"] == 4096
    assert ExperimentConfig.from_dict("ito", {}).kwargs["window_start"] == 0.0


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


def test_cli_import_leaves_scipy_linalg_unloaded():
    """Neither the CLI nor a draw of any kernel kind, composites included, loads scipy.linalg."""
    run_fresh_python(
        "import sys, quartic_lab.cli\n"
        "from quartic_lab.kernels import KERNEL_KINDS, CovKernel, Grid, fbm_composite_kernel\n"
        "from quartic_lab.verify import draw_ensemble\n"
        "kinds = [CovKernel(kind) for kind in KERNEL_KINDS if kind != 'composite']\n"
        "for kernel in kinds + [fbm_composite_kernel()]:\n"
        "    draw_ensemble(kernel, Grid(64), 9, 1)\n"
        "assert 'scipy.linalg' not in sys.modules"
    )


def test_ladder_run_leaves_scipy_stats_unloaded(tmp_path):
    """The rate fit's Student-t quantile comes from a table, not scipy.stats or scipy.special."""
    config = tmp_path / "ladder.json"
    config.write_text(json.dumps({"kernel": "fbm", "g": "cube", "n_list": [64, 128, 256], "m": 20}))
    argv = ["verify", "--experiment", "trapezoid", "--config", str(config), "--out", str(tmp_path)]
    run_fresh_python(
        "import sys, quartic_lab.cli\n"
        f"assert quartic_lab.cli.main({argv!r}) == 0\n"
        "assert 'scipy.stats' not in sys.modules\n"
        "assert 'scipy.special' not in sys.modules"
    )
    assert json.loads((tmp_path / "summary.json").read_text())["stats"]["rate"]


def test_draws_and_every_run_but_bn_leave_scipy_special_unloaded(tmp_path):
    """Normals come from rng's own ndtri: only bn's KS statistic loads scipy.special."""
    small = {
        "trapezoid": {"n_list": [16, 32, 64], "m": 8},
        "expansion": {"n_list": [16, 32, 64], "m": 8},
        "ito": {"n": 64, "m": 8, "seeds": 1},
        "fbm-window": {"n": 64, "m": 8, "seeds": 1},
    }
    for name, config in small.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    run_fresh_python(
        "import sys, quartic_lab.cli\n"
        "from quartic_lab.kernels import KERNEL_KINDS, CovKernel, Grid, fbm_composite_kernel\n"
        "from quartic_lab.verify import draw_ensemble\n"
        "kinds = [CovKernel(kind) for kind in KERNEL_KINDS if kind != 'composite']\n"
        "for kernel in kinds + [fbm_composite_kernel()]:\n"
        "    draw_ensemble(kernel, Grid(64), 9, 1)\n"
        f"for name in {list(small)!r}:\n"
        f"    argv = ['verify', '--experiment', name, '--config', {str(tmp_path)!r} + f'/{{name}}.json',\n"
        f"            '--out', {str(tmp_path)!r} + f'/{{name}}']\n"
        "    assert quartic_lab.cli.main(argv) in (0, 1)\n"
        "assert 'scipy.special' not in sys.modules"
    )
    for name in small:
        assert (tmp_path / name / "summary.json").exists()
