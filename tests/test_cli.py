"""Command-line contract: artifacts, exit statuses, determinism."""
import json
import math

import numpy as np
import pytest

import blc_lab.cli as cli
from blc_lab.cli import main

from conftest import GAUSSIAN, MIX_134, MIX_20, MIX_30, tabulated_spec


@pytest.fixture()
def specs(tmp_path):
    paths = {}
    docs = {
        "logistic": {"family": "logistic", "params": {"location": 0, "scale": 1}},
        "laplace": {"family": "laplace", "params": {"location": 0, "scale": 1}},
        "mix134": json.loads(MIX_134.to_json()),
        "mix20": json.loads(MIX_20.to_json()),
        "mix30": json.loads(MIX_30.to_json()),
        "gauss_sinh301": json.loads(tabulated_spec(GAUSSIAN, 301).to_json()),
        "twobump": {
            "family": "grid",
            "params": {
                "abscissas": list(np.concatenate([
                    np.linspace(0, 1, 101), np.linspace(1.01, 1.99, 99),
                    np.linspace(2, 3, 101)])),
                "density_values": list(np.concatenate([
                    np.full(101, 0.5), np.zeros(99), np.full(101, 0.5)])),
            },
        },
        "bad": {"family": "gaussian", "params": {"mean": 0, "sd": -2}},
        "one_node": {"family": "grid", "params": {
            "abscissas": list(range(9)), "density_values": [0, 0, 0, 0, 1, 0, 0, 0, 0]}},
        "inf_density": {"family": "grid", "params": {
            "abscissas": list(range(10)), "density_values": [1, 1, 1, math.inf] + [1] * 6}},
        "nan_abscissa": {"family": "grid", "params": {
            "abscissas": [0, 1, 2, math.nan] + list(range(4, 10)), "density_values": [1] * 10}},
        "gauss_inf_mean": {"family": "gaussian", "params": {"mean": math.inf, "sd": 1}},
        "gauss_inf_sd": {"family": "gaussian", "params": {"mean": 0, "sd": math.inf}},
        "laplace_neg_inf": {"family": "laplace", "params": {"location": -math.inf, "scale": 1}},
        "uniform_inf_hi": {"family": "uniform", "params": {"lo": 0, "hi": math.inf}},
        "mix_nan_mean": {"family": "gaussian_mixture", "params": {
            "weights": [0.5, 0.5], "means": [math.nan, 1], "sds": [1, 1]}},
        "mix_inf_sd": {"family": "gaussian_mixture", "params": {
            "weights": [0.5, 0.5], "means": [-1, 1], "sds": [1, math.inf]}},
        "gauss_text_mean": {"family": "gaussian", "params": {"mean": "abc", "sd": 1}},
        "gauss_text_number_mean": {"family": "gaussian", "params": {"mean": "1.0", "sd": 1}},
        "uniform_text_lo": {"family": "uniform", "params": {"lo": "0", "hi": 1}},
        "mix_text_weight": {"family": "gaussian_mixture", "params": {
            "weights": ["0.5", 0.5], "means": [-1, 1], "sds": [1, 1]}},
        "logistic_bool_location": {"family": "logistic", "params": {"location": True, "scale": 1}},
        "mix_bool_weight": {"family": "gaussian_mixture", "params": {
            "weights": [True, 0.0], "means": [-1, 1], "sds": [1, 1]}},
        "mix_bool_int_weight": {"family": "gaussian_mixture", "params": {
            "weights": [True, 0], "means": [-1, 1], "sds": [1, 1]}},
        "gauss_list_mean": {"family": "gaussian", "params": {"mean": [0.0], "sd": 1}},
        "gauss_null_mean": {"family": "gaussian", "params": {"mean": None, "sd": 1}},
        "mix_ragged_means": {"family": "gaussian_mixture", "params": {
            "weights": [0.5, 0.5], "means": [[-1, 0], 1], "sds": [1, 1]}},
        "params_list": {"family": "gaussian", "params": [1, 2]},
        "params_null": {"family": "gaussian", "params": None},
        "params_text": {"family": "gaussian", "params": "ab"},
        "gauss2d": {
            "dimension": 2,
            "components": [
                {"weight": 1.0, "mean": [0, 0], "cov": [[1, 0], [0, 1]]}],
        },
        "mix2d3": {
            "dimension": 2,
            "components": [
                {"weight": 0.5, "mean": [-3, 0], "cov": [[1, 0], [0, 1]]},
                {"weight": 0.5, "mean": [3, 0], "cov": [[1, 0], [0, 1]]}],
        },
        "mix2d_inf": {
            "dimension": 2,
            "components": [
                {"weight": 0.5, "mean": [math.inf, 0], "cov": [[1, 0], [0, 1]]},
                {"weight": 0.5, "mean": [-math.inf, 0], "cov": [[1, 0], [0, 1]]}],
        },
        "mix2d_empty_mean": {
            "dimension": 2,
            "components": [
                {"weight": 0.5, "mean": [], "cov": [[1, 0], [0, 1]]},
                {"weight": 0.5, "mean": [0, 0], "cov": [[1, 0], [0, 1]]}],
        },
    }
    for name, doc in docs.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = str(p)
    return paths


class TestCertifyCommand:
    def test_certified_exit_zero(self, specs, tmp_path, capsys):
        code = main(["certify", "--spec", specs["logistic"], "-o", str(tmp_path / "o")])
        assert code == 0
        doc = json.loads((tmp_path / "o" / "certify.json").read_text())
        assert doc["status"] == "Certified"
        assert json.loads(capsys.readouterr().out)["status"] == "Certified"

    def test_violated_exit_one_with_witness(self, specs, tmp_path):
        code = main(["certify", "--spec", specs["twobump"], "-o", str(tmp_path / "o")])
        assert code == 1
        doc = json.loads((tmp_path / "o" / "certify.json").read_text())
        assert doc["status"] == "Violated"
        assert doc["witness_x"] is not None

    def test_malformed_spec_diagnostic(self, specs, tmp_path, capsys):
        code = main(["certify", "--spec", specs["bad"], "-o", str(tmp_path / "o")])
        assert code == 3
        assert "sd" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["inf_density", "nan_abscissa"])
    def test_non_finite_grid_is_a_spec_error(self, specs, tmp_path, capsys, name):
        code = main(["certify", "--spec", specs[name], "-o", str(tmp_path / "o")])
        assert code == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["gauss_inf_mean", "gauss_inf_sd", "laplace_neg_inf",
                                      "uniform_inf_hi", "mix_nan_mean", "mix_inf_sd"])
    def test_non_finite_parameter_is_a_spec_error(self, specs, tmp_path, capsys, name):
        code = main(["certify", "--spec", specs[name], "-o", str(tmp_path / "o")])
        assert code == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["gauss_text_mean", "mix_ragged_means",
                                      "gauss_text_number_mean", "uniform_text_lo",
                                      "mix_text_weight", "logistic_bool_location",
                                      "mix_bool_weight", "mix_bool_int_weight",
                                      "gauss_list_mean", "gauss_null_mean",
                                      "params_list", "params_null", "params_text"])
    def test_non_numeric_parameter_is_a_spec_error(self, specs, tmp_path, capsys, name):
        code = main(["certify", "--spec", specs[name], "-o", str(tmp_path / "o")])
        assert code == 3
        assert "must be numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["certify", "iso"])
    def test_single_node_j_range_is_degenerate(self, specs, tmp_path, capsys, command):
        # a runtime failure named as such, not numpy's empty-argmin error
        code = main([command, "--spec", specs["one_node"], "-o", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "degenerate density: J(F) has a single node" in err
        assert "argmin" not in err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["certify", "--spec", str(tmp_path / "none.json"),
                     "-o", str(tmp_path)])
        assert code == 3

    def test_spec_directory_exit_three(self, tmp_path, capsys):
        # an OS error reading the spec is an input error, not a verdict
        code = main(["certify", "--spec", str(tmp_path), "-o", str(tmp_path / "o")])
        assert code == 3
        assert "blc-lab: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["certify", "--spec"], ["convolve", "--x"]])
    def test_out_path_is_a_file_exit_three(self, specs, tmp_path, capsys, command):
        # certify makes the out directory only to write its summary, convolve
        # before its CSV: either way the error is handled
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        argv = [*command, specs["logistic"], "-o", str(taken), "--n", "256"]
        code = main(argv + (["--y", specs["laplace"]] if command[0] == "convolve" else []))
        assert code == 3
        out = capsys.readouterr()
        assert "blc-lab: error:" in out.err and out.out == ""

    @pytest.mark.parametrize("error", [MemoryError, RuntimeError])
    def test_other_failures_exit_four(self, specs, tmp_path, capsys, monkeypatch, error):
        # a failure that is neither an input error nor a verdict exits 4, never 1
        def fail(spec, n_points):
            raise error()

        monkeypatch.setattr(cli, "materialize", fail)
        code = main(["certify", "--spec", specs["logistic"], "-o", str(tmp_path / "o")])
        assert code == 4
        assert f"blc-lab: error: {error.__name__}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["certify"],  # --spec is required
        ["smooth", "--spec", "mix134.json", "--tol", "1e-6"],  # smooth has no --tol
    ], ids=" ".join)
    def test_usage_error_exit_three(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3

    @pytest.mark.parametrize("argv", [
        ["project", "--spec", "gauss2d", "--u", "1,0", "--tol", "-1"],
        ["scan-nd", "--spec", "gauss2d", "--tol", "-1"],
        ["scan-nd", "--spec", "gauss2d", "--directions", "1"],
        ["scan-nd", "--spec", "gauss2d", "--directions", "0"],
        ["smooth", "--spec", "mix134", "--sigmas", "0.5,1"],
        ["smooth", "--spec", "mix134", "--sigmas", "-1"],
        ["iso", "--spec", "mix134", "--rgrid=-1:2:5"],
        ["project", "--spec", "gauss2d", "--u", "1,0,0"],
        ["certify", "--spec", "mix134", "--tol", "nan"],
        ["certify", "--spec", "mix134", "--tol", "inf"],
        ["criterion", "--x", "mix134", "--y", "mix134", "--tol", "nan"],
        ["scan-nd", "--spec", "gauss2d", "--tol", "inf"],
        ["iso", "--spec", "mix134", "--pgrid", "0:1:abc"],
        ["iso", "--spec", "mix134", "--pgrid", "0.01:0.99:2.5"],
        ["iso", "--spec", "mix134", "--pgrid", "0.01:0.99"],
        ["iso", "--spec", "mix134", "--pgrid", "0:1:5"],
        ["iso", "--spec", "mix134", "--rgrid", "0.5:6:x"],
        ["iso", "--spec", "mix134", "--rgrid", "0.5:inf:5"],
        ["iso", "--spec", "mix30", "--rgrid", "nan:6:5"],
        ["iso", "--spec", "mix30", "--rgrid=-1:2:5"],
        ["smooth", "--spec", "mix134", "--sigmas=,"],
    ], ids=" ".join)
    def test_bad_argument_value_exit_three(self, specs, tmp_path, capsys, argv):
        argv = [specs.get(a, a) for a in argv]
        code = main(argv + ["--n", "256", "-o", str(tmp_path / "o")])
        assert code == 3
        assert "blc-lab: error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # nothing is written


class TestIsoCommand:
    def test_artifacts_and_constants(self, specs, tmp_path):
        out = tmp_path / "iso"
        code = main(["iso", "--spec", specs["laplace"], "-o", str(out), "--n", "4096"])
        assert code == 0
        profile = (out / "profile.csv").read_text().splitlines()
        assert profile[0] == "p,I"
        constants = json.loads((out / "constants.json").read_text())
        assert constants["isoperimetric_essinf"] == pytest.approx(1.0, abs=1e-3)
        assert constants["isoperimetric_2fm"] == pytest.approx(1.0, abs=1e-3)
        assert constants["poincare"] == pytest.approx(0.25, abs=1e-3)
        assert constants["concentration_all_within"] is True
        assert (out / "concentration.csv").exists()

    def test_non_blc_input_still_writes_profile(self, specs, tmp_path):
        out = tmp_path / "iso"
        code = main(["iso", "--spec", specs["mix30"], "-o", str(out)])
        assert code == 1
        assert (out / "profile.csv").exists()
        constants = json.loads((out / "constants.json").read_text())
        assert constants["certificate"]["status"] == "Violated"
        assert "isoperimetric_2fm" not in constants


class TestConvolveCommand:
    def test_writes_density_and_certificate(self, specs, tmp_path):
        out = tmp_path / "conv"
        code = main(["convolve", "--x", specs["mix134"], "--y", specs["laplace"],
                     "-o", str(out)])
        assert code == 0
        lines = (out / "convolution.csv").read_text().splitlines()
        assert lines[0] == "x,f,F"
        cert = json.loads((out / "convolution_certificate.json").read_text())
        assert cert["status"] == "Certified"

    def test_coarse_tabulated_factor_in_either_order(self, specs, tmp_path):
        # a Gaussian tabulated on 301 sinh-spaced points carries the sums in
        # both orders; given first, it used to be interpolated onto the
        # mixture's lattice and miss the mass tolerance (exit 4)
        outs = []
        for i, (x, y) in enumerate((("gauss_sinh301", "mix134"), ("mix134", "gauss_sinh301"))):
            outs.append(tmp_path / f"conv{i}")
            code = main(["convolve", "--x", specs[x], "--y", specs[y],
                         "-o", str(outs[-1]), "--n", "512"])
            assert code == 0
        for name in ("convolution.csv", "convolution_certificate.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestCriterionCommand:
    def test_flagship_stable(self, specs, tmp_path):
        out = tmp_path / "crit"
        code = main(["criterion", "--x", specs["mix134"], "--y", specs["mix134"],
                     "-o", str(out), "--tol", "1e-6"])
        assert code == 0
        doc = json.loads((out / "criterion.json").read_text())
        assert doc["verdict"] == "Stable"
        assert doc["min_lower"] >= -1e-6 and doc["min_upper"] >= -1e-6

    def test_supercritical_unstable(self, specs, tmp_path):
        code = main(["criterion", "--x", specs["mix20"], "--y", specs["mix20"],
                     "-o", str(tmp_path / "crit"), "--tol", "1e-6"])
        assert code == 1

    @pytest.mark.parametrize("tol", ["0", "1e-6"])
    def test_tolerance_passed_through(self, specs, tmp_path, monkeypatch, tol):
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs["tolerance"])
            return covariance_criterion(*args, **kwargs)

        covariance_criterion = cli.covariance_criterion
        monkeypatch.setattr(cli, "covariance_criterion", spy)
        main(["criterion", "--x", specs["logistic"], "--y", specs["logistic"],
              "-o", str(tmp_path / "crit"), "--n", "512", "--tol", tol])
        assert seen == [float(tol)]


class TestSmoothCommand:
    def test_distances_csv(self, specs, tmp_path):
        out = tmp_path / "smooth"
        code = main(["smooth", "--spec", specs["mix134"], "-o", str(out),
                     "--sigmas", "0.5,0.25"])
        assert code == 0
        lines = (out / "smooth.csv").read_text().splitlines()
        assert lines[0] == "sigma,L1,L2,Linf,status"
        assert len(lines) == 3
        doc = json.loads((out / "smooth.json").read_text())
        assert doc["all_certified"] is True
        assert doc["l1"][0] > doc["l1"][1]

    def test_coarse_tabulated_input(self, specs, tmp_path):
        # the tabulated input, not the Gaussian kernel, carries the sums
        code = main(["smooth", "--spec", specs["gauss_sinh301"], "-o", str(tmp_path / "smooth"),
                     "--n", "256"])
        assert code == 0

    def test_non_blc_input_exit_one(self, specs, tmp_path, capsys):
        code = main(["smooth", "--spec", specs["mix30"], "-o", str(tmp_path / "smooth")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestProjectAndScan:
    def test_project_writes_density(self, specs, tmp_path):
        out = tmp_path / "proj"
        code = main(["project", "--spec", specs["gauss2d"], "--u", "0.6,0.8",
                     "-o", str(out)])
        assert code == 0
        assert (out / "projection.csv").read_text().splitlines()[0] == "x,f,F"

    def test_scan_certified(self, specs, tmp_path):
        out = tmp_path / "scan"
        code = main(["scan-nd", "--spec", specs["gauss2d"], "--directions", "8",
                     "-o", str(out)])
        assert code == 0
        doc = json.loads((out / "scan.json").read_text())
        assert doc["verdict"] == "Certified"
        assert doc["resolution_rad"] == pytest.approx(math.pi / 16, abs=1e-12)
        header = (out / "scan.csv").read_text().splitlines()[0]
        assert header == "u_1,u_2,slack,status"

    @pytest.mark.parametrize("name", ["mix2d_inf", "mix2d_empty_mean"])
    def test_scan_malformed_mixture_exit_three(self, specs, tmp_path, capsys, name):
        code = main(["scan-nd", "--spec", specs[name], "--directions", "8",
                     "-o", str(tmp_path / "scan")])
        assert code == 3
        assert "invalid spec" in capsys.readouterr().err

    def test_scan_violated_worst_direction(self, specs, tmp_path):
        out = tmp_path / "scan"
        code = main(["scan-nd", "--spec", specs["mix2d3"], "--directions", "16",
                     "-o", str(out)])
        assert code == 1
        doc = json.loads((out / "scan.json").read_text())
        assert doc["verdict"] == "Violated"
        assert abs(doc["worst_direction"][0]) == pytest.approx(1.0, abs=1e-9)



class TestDeterminism:
    def test_byte_identical_reruns(self, specs, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["iso", "--spec", specs["mix134"], "-o", str(out)]) == 0
        for name in ("profile.csv", "constants.json", "concentration.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_csv_float_format(self, specs, tmp_path):
        out = tmp_path / "iso"
        main(["iso", "--spec", specs["logistic"], "-o", str(out)])
        row = (out / "profile.csv").read_text().splitlines()[1]
        p, val = row.split(",")
        assert len(p) <= 14 and len(val) <= 19  # %.12g formatting
