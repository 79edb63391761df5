"""CLI behaviour: reports, exit codes, determinism."""

import json
import subprocess
import sys
from functools import cached_property

import numpy as np
import pytest

from fanning import curve_to_dict, standard_curve
from fanning.cli import main
from fanning.curves import FrameJet, InsufficientOrderError
import fanning.cli as cli_mod
from conftest import tame_polynomial_curve, tan_curve, random_invertible


def write_curve(path, curve):
    path.write_text(json.dumps(curve_to_dict(curve)))
    return str(path)


def write_normal_ode_curve(path, k, n, rng):
    """Normal test curve: P_1 = 0 with random constant higher coefficients."""
    ps = [{"degree": 0, "coefficients": [np.zeros((n, n)).tolist()]}]
    for _ in range(k - 1):
        ps.append(
            {"degree": 0, "coefficients": [(0.4 * rng.standard_normal((n, n))).tolist()]}
        )
    data = {
        "kind": "ode",
        "k": k,
        "n": n,
        "P": ps,
        "A0": np.eye(k * n).tolist(),
    }
    path.write_text(json.dumps(data))
    return str(path)


def write_coefficients(path, coefficients):
    """A k=2, n=1 polynomial curve file with the given 2 x 1 coefficients."""
    data = {"kind": "polynomial", "k": 2, "n": 1, "coefficients": coefficients}
    path.write_text(json.dumps(data))
    return str(path)


# A(t) = (1, t^3): singular juxtaposed matrix at t=0.
CUBIC = [[[1.0], [0.0]], [[0.0], [0.0]], [[0.0], [0.0]], [[0.0], [1.0]]]
# Finite, fanning at t=0 (condition 1) but not at t=0.3 (condition 1.1e17);
# its jet inverse at t=0 overflows.
HUGE = [[[1.0], [0.0]], [[0.0], [1.0]], [[1e300], [1e300]]]


class TestInvariantsCommand:
    def test_standard_curve_all_zero(self, tmp_path, capsys):
        path = write_curve(tmp_path / "std.json", standard_curve(3, 2))
        code = main(["invariants", path, "--grid", "0:0.4:3"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["k"] == 3 and report["n"] == 2
        for point in report["points"]:
            assert np.max(np.abs(point["kappa"])) < 1e-10
            for h in point["h"]:
                assert np.max(np.abs(h)) < 1e-10
            counts = point["reflection_eigencounts"]
            assert counts["minus_one"] == (3 - 1) * 2
            assert counts["plus_one"] == 2

    def test_tan_curve_kappa_one(self, tmp_path, capsys):
        path = write_curve(tmp_path / "tan.json", tan_curve())
        code = main(["invariants", path, "--grid=-0.4:0.4:9"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        for point in report["points"]:
            assert abs(point["kappa"][0][0] - 1.0) < 1e-6

    def test_k4_maurer_cartan_display(self, tmp_path, capsys, rng):
        k, n = 4, 1
        path = write_normal_ode_curve(tmp_path / "normal.json", k, n, rng)
        code = main(
            ["invariants", path, "--grid", "0.1:0.3:2", "--jacobi", "--maurer-cartan", "H"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        for point in report["points"]:
            assert point["was_normal"]
            mc = np.array(point["maurer_cartan"])
            kappa = point["kappa"][0][0]
            # subdiagonal identities and the -3 kappa entries of the H-lift
            for j in range(k - 1):
                assert abs(mc[j + 1, j] - 1.0) < 1e-8
            assert abs(mc[1, 2] + 3 * kappa) < 1e-8
            assert abs(mc[2, 3] + 3 * kappa) < 1e-8
            jac = np.array(point["jacobi"])
            assert abs(jac[2, 2] - 3 * kappa) < 1e-8
            assert abs(jac[3, 3] - 3 * kappa) < 1e-8

    def test_non_fanning_exit_code(self, tmp_path):
        constant = standard_curve(2, 1).coefficients[0]
        data = {
            "kind": "polynomial",
            "k": 2,
            "n": 1,
            "coefficients": [constant.tolist()],
        }
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(data))
        assert main(["invariants", str(path), "--grid", "0:1:2"]) == 3

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        path = write_coefficients(tmp_path / "huge.json", HUGE)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["invariants", path, "--grid", "0:1:3"]) == 6
        assert "numerical failure" in capsys.readouterr().err

    def test_numerical_failure_is_one_line(self, tmp_path):
        path = write_coefficients(tmp_path / "huge.json", HUGE)
        proc = subprocess.run(
            [sys.executable, "-m", "fanning.cli", "invariants", path, "--grid", "0:1:3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 6
        assert proc.stderr.splitlines() == [
            "numerical failure: jet inverse overflowed at order 2"
        ]

    def test_one_note_for_non_normal_frames(self, tmp_path, capsys, rng):
        path = write_curve(tmp_path / "c.json", tame_polynomial_curve(3, 1, rng))
        argv = ["invariants", path, "--grid", "0:0.4:3", "--jacobi", "--maurer-cartan", "H"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert not any(point["was_normal"] for point in json.loads(out)["points"])
        assert err.splitlines() == [
            "note: frame not normal at 3 of 3 grid times (t=0.0 to 0.4); the Jacobi "
            "matrix and pullback are those of the normal frame anchored at each"
        ]

    def test_equation_coefficients_solved_once_per_jet(self, tmp_path, monkeypatch, rng):
        path = write_curve(tmp_path / "c.json", tame_polynomial_curve(3, 2, rng))
        solve = FrameJet.equation_coefficients.func
        solved = []

        def counted(fj):
            solved.append(fj.base_time)
            return solve(fj)

        prop = cached_property(counted)
        prop.__set_name__(FrameJet, "equation_coefficients")
        monkeypatch.setattr(FrameJet, "equation_coefficients", prop)
        argv = ["invariants", path, "--grid", "0:0.4:5", "--jacobi", "--maurer-cartan", "H"]
        assert main(argv) == 0
        # one solve for the input jet and one for its normalized jet
        assert len(solved) == 2 * 5

    def test_fundamental_endomorphism_built_once_per_jet(self, tmp_path, monkeypatch, rng):
        build = FrameJet.fundamental_endomorphism.func
        built = []

        def counted(fj):
            built.append(fj.base_time)
            return build(fj)

        prop = cached_property(counted)
        prop.__set_name__(FrameJet, "fundamental_endomorphism")
        monkeypatch.setattr(FrameJet, "fundamental_endomorphism", prop)
        general = write_curve(tmp_path / "c.json", tame_polynomial_curve(3, 2, rng))
        normal = write_normal_ode_curve(tmp_path / "ode.json", 3, 2, rng)
        for path, jets_per_point in ((general, 2), (normal, 1)):
            built.clear()
            argv = ["invariants", path, "--grid", "0:0.4:5", "--jacobi", "--maurer-cartan", "H"]
            assert main(argv) == 0
            # the input jet, and its normalized jet unless the frame is normal
            assert len(built) == jets_per_point * 5

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["invariants", str(path), "--grid", "0:1:2"]) == 2

    def test_csv_format(self, tmp_path, capsys):
        path = write_curve(tmp_path / "std.json", standard_curve(2, 1))
        code = main(["invariants", path, "--grid", "0:0.2:2", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,name,i,j,value"
        names = {line.split(",")[1] for line in lines[1:]}
        assert "kappa" in names and "fanning_condition" in names


class TestCongruentCommand:
    def test_transformed_pair_accepted(self, tmp_path, capsys, rng):
        k, n = 2, 2
        curve = tame_polynomial_curve(k, n, rng)
        moved = curve.transformed(random_invertible(k * n, rng, cond_max=40))
        a = write_curve(tmp_path / "a.json", curve)
        b = write_curve(tmp_path / "b.json", moved)
        code = main(["congruent", a, b, "--grid", "0:0.4:7"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["verdict"] == "congruent"

    def test_same_curve_twice(self, tmp_path, capsys, rng):
        curve = tame_polynomial_curve(2, 1, rng)
        a = write_curve(tmp_path / "a.json", curve)
        code = main(["congruent", a, a, "--grid", "0:0.4:7"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "congruent"

    def test_perturbed_pair_rejected(self, tmp_path, capsys, rng):
        curve = tame_polynomial_curve(2, 1, rng)
        coeffs = [c.copy() for c in curve.coefficients]
        coeffs[1][0, 0] += 0.1
        perturbed = type(curve)(2, 1, tuple(coeffs))
        a = write_curve(tmp_path / "a.json", curve)
        b = write_curve(tmp_path / "b.json", perturbed)
        code = main(["congruent", a, b, "--grid", "0:0.4:7"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "not_congruent"


class TestFanningCheckedBeforeIntegrating:
    def test_singular_at_first_grid_time(self, tmp_path, capsys):
        path = write_coefficients(tmp_path / "cubic.json", CUBIC)
        assert main(["normal-frame", path, "--grid", "0:1:3"]) == 3
        assert main(["congruent", path, path, "--grid", "0:1:3"]) == 3
        assert "not fanning at t=0.0" in capsys.readouterr().err

    def test_ill_conditioned_grid_time(self, tmp_path, capsys):
        path = write_coefficients(tmp_path / "huge.json", HUGE)
        assert main(["normal-frame", path, "--grid", "0:0.3:2"]) == 3
        assert "not fanning at t=0.3" in capsys.readouterr().err


class TestOtherCommands:
    def test_canonicalize_reports_standard_jet(self, tmp_path, capsys, rng):
        curve = tame_polynomial_curve(3, 1, rng)
        path = write_curve(tmp_path / "c.json", curve)
        code = main(["canonicalize", path, "--t", "0.1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        coeffs = np.array(report["standard_jet"]["coefficients"][0])
        np.testing.assert_allclose(coeffs[:1], np.eye(1), atol=1e-9)
        assert len(report["orbit_coordinates"]) == 2

    def test_normal_frame_residuals(self, tmp_path, capsys, rng):
        curve = tame_polynomial_curve(2, 2, rng)
        path = write_curve(tmp_path / "c.json", curve)
        code = main(["normal-frame", path, "--grid", "0:0.4:5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert max(report["p1_residuals"]) < 1e-7

    def test_verify_standard_curve(self, tmp_path, capsys):
        path = write_curve(tmp_path / "std.json", standard_curve(3, 2))
        code = main(["verify", path])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True

    def test_verify_random_curve_small_residuals(self, tmp_path, capsys, rng):
        curve = tame_polynomial_curve(3, 2, rng)
        path = write_curve(tmp_path / "c.json", curve)
        code = main(["verify", path, "--seed", "42", "--t", "0.1", "--tol", "1e-8"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        for check in report["checks"]:
            assert check["pass"], check
            assert check["residual"] < 1e-8

    @pytest.mark.parametrize("k", [4, 5])
    def test_verify_high_k_curve(self, k, tmp_path, capsys, rng):
        curve = tame_polynomial_curve(k, 1, rng)
        path = write_curve(tmp_path / "c.json", curve)
        code = main(["verify", path, "--t", "0.1"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0, report["checks"]
        assert report["passed"] is True

    def test_verify_non_fanning_exit(self, tmp_path):
        data = {
            "kind": "polynomial",
            "k": 2,
            "n": 1,
            "coefficients": [[[1.0], [0.0]]],
        }
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path)]) == 3


class TestInputValidation:
    @pytest.mark.parametrize(
        "grid",
        ["0:nan:5", "0:inf:3", "-inf:1:3", "0:1:100001", "0:1:0", "0,nan,1", "0.1,inf"],
    )
    def test_bad_grid_exit_2(self, grid, tmp_path, capsys):
        path = write_curve(tmp_path / "std.json", standard_curve(2, 1))
        assert main(["invariants", path, f"--grid={grid}"]) == 2
        assert "grid" in capsys.readouterr().err

    def test_grid_cap_checked_before_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("grid allocated before the cap check")

        monkeypatch.setattr(cli_mod.np, "linspace", refuse)
        with pytest.raises(ValueError):
            cli_mod._parse_grid(f"0:1:{10**12}")

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"k": True}, "JSON integer"),
            ({"n": 1.7}, "JSON integer"),
            ({"k": 2.0}, "JSON integer"),
            ({"n": "1"}, "JSON integer"),
            ({"coefficients": [[[float("nan")], [0.0]], [[0.0], [1.0]]]}, "not finite"),
            ({"coefficients": [[[1.0], [0.0]], [[-float("inf")], [1.0]]]}, "not finite"),
        ],
    )
    def test_bad_curve_file_exit_2(self, change, message, tmp_path, capsys):
        data = curve_to_dict(standard_curve(2, 1))
        data.update(change)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["invariants", str(path), "--grid", "0:0.4:3"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["P", "A0"])
    def test_non_finite_ode_file_exit_2(self, where, tmp_path, capsys, rng):
        path = tmp_path / "ode.json"
        write_normal_ode_curve(path, 2, 1, rng)
        data = json.loads(path.read_text())
        if where == "P":
            data["P"][1]["coefficients"][0][0][0] = float("nan")
        else:
            data["A0"][1][1] = float("inf")
        path.write_text(json.dumps(data))
        assert main(["normal-frame", str(path), "--grid", "0:1:3"]) == 2
        assert "not finite" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["verify", "canonicalize"])
    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_base_time_exit_2(self, command, t, tmp_path, capsys, rng):
        path = write_normal_ode_curve(tmp_path / "ode.json", 2, 1, rng)
        assert main([command, path, f"--t={t}"]) == 2
        assert "--t must be finite" in capsys.readouterr().err


class TestPlumbing:
    def test_byte_identical_reports(self, tmp_path, rng):
        curve = tame_polynomial_curve(2, 2, rng)
        path = write_curve(tmp_path / "c.json", curve)
        out_a = tmp_path / "a.out"
        out_b = tmp_path / "b.out"
        for out in (out_a, out_b):
            code = main(
                ["verify", path, "--seed", "7", "--out", str(out)]
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_insufficient_order_maps_to_exit_4(self, tmp_path, monkeypatch):
        path = write_curve(tmp_path / "c.json", standard_curve(2, 1))

        def boom(config):
            raise InsufficientOrderError("need more")

        monkeypatch.setitem(cli_mod._COMMANDS, "invariants", boom)
        assert main(["invariants", path, "--grid", "0:1:2"]) == 4

    def test_linalg_error_maps_to_exit_6(self, tmp_path, monkeypatch, capsys):
        path = write_curve(tmp_path / "c.json", standard_curve(2, 1))

        def boom(config):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setitem(cli_mod._COMMANDS, "invariants", boom)
        assert main(["invariants", path, "--grid", "0:1:2"]) == 6
        assert "numerical failure: Singular matrix" in capsys.readouterr().err

    def test_env_tolerance_override(self, tmp_path, capsys, monkeypatch):
        path = write_curve(tmp_path / "std.json", standard_curve(2, 1))
        monkeypatch.setenv("FANNING_TOL", "1e-5")
        code = main(["verify", path])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tolerance"] == 1e-5

    def test_bad_env_tolerance(self, tmp_path, monkeypatch):
        path = write_curve(tmp_path / "std.json", standard_curve(2, 1))
        monkeypatch.setenv("FANNING_TOL", "zero")
        assert main(["verify", path]) == 2

    def test_console_entry_point(self, tmp_path):
        path = write_curve(tmp_path / "std.json", standard_curve(2, 1))
        proc = subprocess.run(
            [sys.executable, "-m", "fanning.cli", "verify", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True

    def test_seventeen_digit_floats(self, tmp_path, capsys, rng):
        curve = tame_polynomial_curve(2, 1, rng)
        path = write_curve(tmp_path / "c.json", curve)
        main(["invariants", path, "--grid", "0:0.3:2"])
        text = capsys.readouterr().out
        report = json.loads(text)
        value = report["points"][0]["kappa"][0][0]
        assert f"{value:.17g}" in text
