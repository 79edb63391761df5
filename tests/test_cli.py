"""CLI behaviour: reports, exit codes, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import fanning
from fanning import curve_to_dict, normalized_frame_jet, standard_curve
from fanning.cli import main
from fanning.curves import FrameJet, InsufficientOrderError
import fanning.cli as cli_mod
import fanning.congruence as congruence_mod
import fanning.curves as curves_mod
import fanning.invariants as invariants_mod
import fanning.report as report_mod
from conftest import (
    ALL_KN,
    drifting_ode_curve,
    random_invertible,
    right_multiplied,
    tame_polynomial_curve,
    tan_curve,
    unconjugate_ode_pair,
)


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
# A(t) = (1, (t - 1/2)^3): fanning everywhere but at t = 1/2, where
# P_1 = -1 / (t - 1/2) has its pole; X' = -X P_1 gives X(t) = 1 - 2t.
CROSSING = [[[1.0], [-0.125]], [[0.0], [0.75]], [[0.0], [-1.5]], [[0.0], [1.0]]]
# Finite, fanning at t=0 (condition 1) but not at t=0.3 (condition 1.1e17);
# its jet inverse at t=0 overflows.
HUGE = [[[1.0], [0.0]], [[0.0], [1.0]], [[1e300], [1e300]]]
# A(t) = (1, t + 1e55 t^2): kappa(0) = -3e110 is finite, but the high
# orders of the W_m recursion behind the invariants overflow.
STEEP = [[[1.0], [0.0]], [[0.0], [1.0]], [[0.0], [1e55]]]
# A(t) = (1, t + t^2): fanning everywhere, but t^2 overflows at t=1e200.
QUAD = [[[1.0], [0.0]], [[0.0], [1.0]], [[0.0], [1.0]]]
# A(t) = (1, t + t^3): P_1(0) = 0 but P_1'(0) = -3, so the frame is normal
# at t=0 only to order zero.
POINT_NORMAL = [[[1.0], [0.0]], [[0.0], [1.0]], [[0.0], [0.0]], [[0.0], [1.0]]]
# A(t) = (1, t) and B(t) = (1, t + 0.5 t^4 - 1.5 t^5 + 1.25 t^6): not
# congruent, span distance 2.2e-3 at t=0.4.
LINE = [[[1.0], [0.0]], [[0.0], [1.0]]]
BENT_LINE = LINE + [[[0.0], [0.0]]] * 2 + [[[0.0], [0.5]], [[0.0], [-1.5]], [[0.0], [1.25]]]


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
            "numerical failure: jet solve overflowed at order 1"
        ]

    def test_overflow_beyond_the_reported_orders_is_silent(self, tmp_path):
        path = write_coefficients(tmp_path / "steep.json", STEEP)
        src = str(Path(fanning.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "fanning.cli", "invariants", path, "--grid", "0"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        kappa = json.loads(proc.stdout)["points"][0]["kappa"]
        assert kappa == [[-3.0000000000000001e110]]

    @pytest.mark.parametrize(
        "coefficients, argv",
        [
            (QUAD, ["congruent", "{path}", "{path}", "--grid", "1e200,2e200"]),
            (QUAD, ["invariants", "{path}", "--grid", "1e200,2e200"]),
            (QUAD, ["normal-frame", "{path}", "--grid", "1e200,2e200"]),
            (QUAD, ["canonicalize", "{path}", "--t", "1e200"]),
            (HUGE, ["invariants", "{path}", "--grid", "1e10,2e10"]),
        ],
        ids=["congruent", "invariants", "normal-frame", "canonicalize", "huge-invariants"],
    )
    def test_overflowing_taylor_shift_exit_code(self, coefficients, argv, tmp_path, capsys):
        path = write_coefficients(tmp_path / "c.json", coefficients)
        assert main([arg.format(path=path) for arg in argv]) == 6
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: Taylor shift")

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

    def test_jacobi_of_frame_normal_at_one_point(self, tmp_path, capsys):
        path = write_coefficients(tmp_path / "c.json", POINT_NORMAL)
        assert main(["invariants", path, "--grid", "0,0.1", "--jacobi"]) == 0
        out, err = capsys.readouterr()
        assert [p["was_normal"] for p in json.loads(out)["points"]] == [True, False]
        assert err.startswith("note: frame not normal at 1 of 2 grid times")

    def test_equation_coefficients_solved_once_per_jet(self, tmp_path, monkeypatch, rng):
        path = write_curve(tmp_path / "c.json", tame_polynomial_curve(3, 2, rng))
        solve = FrameJet.equation_coefficients.func
        solved = []

        def counted(fj):
            solved.extend(np.ravel(fj.base_time))
            return solve(fj)

        prop = cached_property(counted)
        prop.__set_name__(FrameJet, "equation_coefficients")
        monkeypatch.setattr(FrameJet, "equation_coefficients", prop)
        argv = ["invariants", path, "--grid", "0:0.4:5", "--jacobi", "--maurer-cartan", "H"]
        assert main(argv) == 0
        # one solve for the input jet and one for its normalized jet
        assert len(solved) == 2 * 5

    @staticmethod
    def count_builds(monkeypatch, name):
        """Base times at which the cached ``FrameJet`` property ``name`` is built."""
        build = getattr(FrameJet, name).func
        built = []

        def counted(fj):
            built.extend(np.ravel(fj.base_time))
            return build(fj)

        prop = cached_property(counted)
        prop.__set_name__(FrameJet, name)
        monkeypatch.setattr(FrameJet, name, prop)
        return built

    def test_fundamental_endomorphism_built_once_per_jet(self, tmp_path, monkeypatch, rng):
        built = self.count_builds(monkeypatch, "fundamental_endomorphism")
        general = write_curve(tmp_path / "c.json", tame_polynomial_curve(3, 2, rng))
        normal = write_normal_ode_curve(tmp_path / "ode.json", 3, 2, rng)
        for path in (general, normal):
            for options in ([], ["--jacobi"], ["--maurer-cartan", "H"]):
                assert main(["invariants", path, "--grid", "0:0.4:5", *options]) == 0
            # invariants reads its endomorphisms from the companion matrix
            assert built == []
            assert main(["verify", path, "--t", "0.2"]) == 0
            # the input jet, its image under the random ambient map, and its
            # normalized jet
            assert len(built) == 3
            built.clear()

    @staticmethod
    def count_bundles(monkeypatch):
        """Base times of every call of the CLI's ``endomorphism_bundle``."""
        build = cli_mod.endomorphism_bundle
        built = []

        def counted(fj):
            built.extend(np.ravel(fj.base_time))
            return build(fj)

        monkeypatch.setattr(cli_mod, "endomorphism_bundle", counted)
        return built

    def test_invariants_builds_no_endomorphism_bundle(self, tmp_path, monkeypatch, rng):
        built = self.count_bundles(monkeypatch)
        general = write_curve(tmp_path / "c.json", tame_polynomial_curve(3, 2, rng))
        normal = write_normal_ode_curve(tmp_path / "ode.json", 3, 2, rng)
        for path in (general, normal):
            for options in ([], ["--jacobi"], ["--maurer-cartan", "H"]):
                assert main(["invariants", path, "--grid", "0:0.4:5", *options]) == 0
        assert built == []

    def test_endomorphism_bundle_built_once_per_jet(self, tmp_path, monkeypatch, rng):
        built = self.count_bundles(monkeypatch)
        general = write_curve(tmp_path / "c.json", tame_polynomial_curve(3, 2, rng))
        normal = write_normal_ode_curve(tmp_path / "ode.json", 3, 2, rng)
        for path in (general, normal):
            built.clear()
            assert main(["verify", path, "--t", "0.2"]) == 0
            # the input jet and its normalized jet; the image under the random
            # ambient map needs only its fundamental endomorphism
            assert built == [0.2, 0.2]

    def test_companion_basis_built_once_per_jet(self, tmp_path, monkeypatch, rng):
        """``--jacobi --maurer-cartan H`` builds C and G of the normalized jet once."""
        build = invariants_mod.companion_stack
        built = []

        def counted(p):
            built.append(p[0].shape[:-3])
            return build(p)

        monkeypatch.setattr(invariants_mod, "companion_stack", counted)
        path = write_curve(tmp_path / "c.json", tame_polynomial_curve(3, 2, rng))
        argv = ["invariants", path, "--grid", "0:0.4:5", "--jacobi", "--maurer-cartan", "H"]
        assert main(argv) == 0
        # the input jet's reflection, then the normalized jet's Jacobi matrix and pullback
        assert built == [(5,), (5,)]

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


    @pytest.mark.parametrize(
        "argv, order",
        [
            (["invariants", "--grid", "0:0.4:5"], 5),
            (["invariants", "--grid", "0:0.4:5", "--jacobi"], 6),
            (["invariants", "--grid", "0:0.4:5", "--maurer-cartan", "kderiv"], 6),
            (["invariants", "--grid", "0:0.4:5", "--jacobi", "--maurer-cartan", "H"], 6),
            (["canonicalize", "--t", "0.2"], 8),
            (["verify", "--t", "0.2"], 8),
        ],
        ids=["plain", "jacobi", "maurer-cartan", "both", "canonicalize", "verify"],
    )
    def test_requested_jet_order(self, argv, order, tmp_path, monkeypatch, capsys, rng):
        # k = 3: 2k-1 for the invariants, 2k for the normal frame's, 2k+2 otherwise.
        path = write_curve(tmp_path / "c.json", tame_polynomial_curve(3, 2, rng))
        build = curves_mod.PolynomialFrameCurve.frame_jets
        orders = []

        def recorded(curve, times, order):
            orders.append(order)
            return build(curve, times, order)

        monkeypatch.setattr(curves_mod.PolynomialFrameCurve, "frame_jets", recorded)
        assert main([argv[0], path, *argv[1:]]) == 0
        assert orders == [order]

    @pytest.mark.parametrize("options", [[], ["--jacobi", "--maurer-cartan", "H"]])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_rendering_calls_do_not_grow_with_the_grid(
        self, options, fmt, tmp_path, monkeypatch, capsys, rng
    ):
        path = write_curve(tmp_path / "c.json", tame_polynomial_curve(3, 2, rng))
        calls = []

        def counted(name):
            render = getattr(report_mod, name)

            def wrapper(*args):
                calls.append(name)
                return render(*args)

            monkeypatch.setattr(report_mod, name, wrapper)

        counted("_write_json")
        counted("matrix_rows")
        counts = []
        for count in (3, 40):
            calls.clear()
            argv = ["invariants", path, "--grid", f"0:0.4:{count}", "--format", fmt, *options]
            assert main(argv) == 0
            counts.append(len(calls))
        capsys.readouterr()
        assert counts[0] == counts[1]
        if fmt == "csv":
            assert counts == [0, 0]


def leaves(tree):
    """The arrays of nested dicts and lists, in order."""
    if isinstance(tree, (dict, list)):
        values = tree.values() if isinstance(tree, dict) else tree
        return [leaf for value in values for leaf in leaves(value)]
    return [tree]


class TestInvariantsJetOrder:
    """``invariants`` values at its reduced jet order equal those at 2k+2 bit for bit."""

    @staticmethod
    def assert_bitwise_equal(curve, order, argv):
        args = cli_mod._validated(cli_mod._build_parser().parse_args(["invariants", "c.json", *argv]))
        low = cli_mod._grid_invariants(curve.frame_jets(args.grid, order), args)
        high = cli_mod._grid_invariants(curve.frame_jets(args.grid, 2 * curve.k + 2), args)
        assert list(low) == list(high)
        for a, b in zip(leaves(low), leaves(high), strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("k, n", ALL_KN)
    def test_polynomial_curves(self, k, n):
        curve = tame_polynomial_curve(k, n, np.random.default_rng(2000 + 10 * k + n))
        self.assert_bitwise_equal(curve, 2 * k - 1, ["--grid", "0:0.5:6"])
        options = ["--jacobi", "--maurer-cartan", "H"]
        self.assert_bitwise_equal(curve, 2 * k, ["--grid", "0:0.5:6", *options])

    @pytest.mark.parametrize("k, n", [(2, 1), (3, 2), (4, 1)])
    def test_ode_curves(self, k, n):
        curve = drifting_ode_curve(np.random.default_rng(3000 + 10 * k + n), k, n)
        self.assert_bitwise_equal(curve, 2 * k - 1, ["--grid=-0.3:0.4:6"])
        options = ["--jacobi", "--maurer-cartan", "kderiv"]
        self.assert_bitwise_equal(curve, 2 * k, ["--grid=-0.3:0.4:6", *options])


class TestConditioningSweep:
    """``B = T A`` with ``cond(T) = c``: a fanning B gets every report that A gets.

    ``T = U diag(geomspace(1, 1/c, kn)) V^T`` with U and V orthogonal; A, then
    U, then V are drawn from ``default_rng(1000 seed + 10 k + n)``, seed 1.
    """

    @pytest.mark.parametrize("c", [1e4, 1e5, 1e6])
    def test_jacobi_and_pullback_of_an_ill_conditioned_image(self, tmp_path, capsys, c):
        argv = ["--grid", "0:0.5:7", "--jacobi", "--maurer-cartan", "H"]
        for k, n in ALL_KN:
            rng = np.random.default_rng(1000 + 10 * k + n)
            a = tame_polynomial_curve(k, n, rng)
            u, v = (np.linalg.qr(rng.standard_normal((k * n, k * n)))[0] for _ in range(2))
            b = a.transformed(u @ np.diag(np.geomspace(1.0, 1.0 / c, k * n)) @ v.T)
            assert main(["invariants", write_curve(tmp_path / "a.json", a), *argv]) == 0
            expected = [p["maurer_cartan"] for p in json.loads(capsys.readouterr().out)["points"]]
            code = main(["invariants", write_curve(tmp_path / "b.json", b), *argv])
            out, err = capsys.readouterr()
            # The gate tests B's frame jets and the normal frames made from them.
            fj = b.frame_jets(np.linspace(0.0, 0.5, 7), 2 * k + 2)
            if not (fj.is_fanning.all() and normalized_frame_jet(fj).is_fanning.all()):
                assert code == 3 and "not fanning" in err, (k, n, err)
                continue
            assert code == 0, (k, n, err)
            for point, mc in zip(json.loads(out)["points"], expected):
                counts = point["reflection_eigencounts"]
                assert (counts["minus_one"], counts["plus_one"]) == ((k - 1) * n, n)
                error = np.max(np.abs(np.subtract(point["maurer_cartan"], mc)))
                assert error <= 1e-6 * max(1.0, np.max(np.abs(mc))), (k, n, error)

    @pytest.mark.parametrize("k, n", [(5, 1), (5, 3)])
    @pytest.mark.parametrize("options", [["--jacobi"], ["--maurer-cartan", "kderiv"]])
    def test_gate_names_the_normal_frame(self, k, n, options, tmp_path, capsys):
        # B itself is fanning (conditions near 1e6); the normal frames made
        # from its jets are not.
        c = 1e6
        rng = np.random.default_rng(1000 + 10 * k + n)
        a = tame_polynomial_curve(k, n, rng)
        u, v = (np.linalg.qr(rng.standard_normal((k * n, k * n)))[0] for _ in range(2))
        b = a.transformed(u @ np.diag(np.geomspace(1.0, 1.0 / c, k * n)) @ v.T)
        path = write_curve(tmp_path / "b.json", b)
        assert main(["invariants", path, "--grid", "0:0.5:7"]) == 0
        conditions = [p["fanning_condition"] for p in json.loads(capsys.readouterr().out)["points"]]
        assert max(conditions) < 2e6
        assert main(["invariants", path, "--grid", "0:0.5:7", *options]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: normal frame is not fanning at t="), err
        assert len(err.splitlines()) == 1


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

    def test_trace_overflow_is_one_line(self, tmp_path):
        # A(t) = (I ; t I + 1e80 t^2 diag(1, 2)): kappa is about -1e160, finite,
        # but tr(kappa^2) overflows, so comparing the curve with itself is no verdict.
        data = {
            "kind": "polynomial",
            "k": 2,
            "n": 2,
            "coefficients": [
                np.eye(4, 2).tolist(),
                np.eye(4, 2, -2).tolist(),
                (np.eye(4, 2, -2) @ np.diag([1e80, 2e80])).tolist(),
            ],
        }
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(data))
        src = str(Path(fanning.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        argv = ["congruent", str(path), str(path), "--grid", "0,1e-200"]
        proc = subprocess.run(
            [sys.executable, "-m", "fanning.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 6, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == "numerical failure: tr(kappa^2) at t=0.0 is not finite\n"


def csv_rows(text):
    """``(t, name)`` of each row of a CSV report, header dropped."""
    return [tuple(line.split(",")[:2]) for line in text.splitlines()[1:]]


def congruent_pair_files(tmp_path, k, n, rng):
    """Files of a tame curve and its image under an ambient map and a frame change."""
    curve = tame_polynomial_curve(k, n, rng, window=(0.0, 0.4))
    moved = curve.transformed(random_invertible(k * n, rng, cond_max=40))
    moved = right_multiplied(moved, random_invertible(n, rng, cond_max=20))
    return write_curve(tmp_path / "a.json", curve), write_curve(tmp_path / "b.json", moved)


WITNESS_KEYS = [
    "command",
    "verdict",
    "samples",
    "conjugator",
    "ambient",
    "residuals",
    "span_distances",
    "conjugator_condition",
    "message",
    "tolerance",
]


class TestCongruenceReport:
    """The ``congruent`` report is the witness, rendered field by field."""

    def run_both(self, capsys, argv):
        """Exit code, JSON report and CSV rows of one ``congruent`` command."""
        code = main(argv)
        report = json.loads(capsys.readouterr().out)
        assert main(argv + ["--format", "csv"]) == code
        return code, report, csv_rows(capsys.readouterr().out)

    @pytest.mark.parametrize("k,n", ALL_KN)
    def test_witness_sign_does_not_follow_the_nullspace_basis(self, k, n, tmp_path, capsys,
                                                              monkeypatch, rng):
        a, b = congruent_pair_files(tmp_path, k, n, rng)
        argv = ["congruent", a, b, "--grid", f"0:0.4:{2 * k + 3}"]
        outputs = []
        for fmt in ("json", "csv"):
            assert main(argv + ["--format", fmt]) == 0
            outputs.append(capsys.readouterr().out)
        nullspace = congruence_mod.nullspace

        def negated(*args, **kwargs):
            return -nullspace(*args, **kwargs)

        monkeypatch.setattr(congruence_mod, "nullspace", negated)
        for fmt, expected in zip(("json", "csv"), outputs):
            assert main(argv + ["--format", fmt]) == 0
            assert capsys.readouterr().out == expected

    def test_trace_refusal(self, tmp_path, capsys, rng):
        curve = tame_polynomial_curve(2, 1, rng)
        coeffs = [c.copy() for c in curve.coefficients]
        coeffs[1][0, 0] += 0.1
        a = write_curve(tmp_path / "a.json", curve)
        b = write_curve(tmp_path / "b.json", type(curve)(2, 1, tuple(coeffs)))
        code, report, rows = self.run_both(capsys, ["congruent", a, b, "--grid", "0:0.4:7"])
        assert code == 1 and report["message"].startswith("invariant traces differ")
        assert list(report) == WITNESS_KEYS
        assert rows == [("", "verdict_not_congruent")]

    def test_no_conjugator(self, tmp_path, capsys):
        a, b = (write_curve(tmp_path / f"{name}.json", curve)
                for name, curve in zip("ab", unconjugate_ode_pair()))
        code, report, rows = self.run_both(capsys, ["congruent", a, b, "--grid", "0:0.4:5"])
        assert code == 1 and report["message"] == "no common conjugator for the sampled invariants"
        assert list(report) == WITNESS_KEYS
        assert rows == [("", "verdict_not_congruent")]

    def test_inconclusive(self, tmp_path, capsys, monkeypatch, rng):
        # Every matrix has condition at least 1, so every conjugator is refused.
        monkeypatch.setattr(congruence_mod, "DEFAULT_CONDITION_LIMIT", 1.0)
        a, b = congruent_pair_files(tmp_path, 2, 2, rng)
        code, report, rows = self.run_both(capsys, ["congruent", a, b, "--grid", "0:0.4:7"])
        assert code == 5 and report["message"].startswith("only ill-conditioned conjugators")
        assert list(report) == WITNESS_KEYS
        assert report["conjugator"] is None and report["conjugator_condition"] >= 1.0
        assert rows == [("", "verdict_inconclusive")]

    @staticmethod
    def witness_rows(verdict, k, n, samples):
        times = [format(t, ".17g") for t in samples]
        return (
            [("", f"verdict_{verdict}")]
            + [("", "conjugator")] * (n * n)
            + [("", "ambient")] * (k * n) ** 2
            + [(t, "residual") for t in times]
            + [(t, "span_distance") for t in times]
        )

    def test_verification_failed(self, tmp_path, capsys):
        a = write_coefficients(tmp_path / "a.json", LINE)
        b = write_coefficients(tmp_path / "b.json", BENT_LINE)
        code, report, rows = self.run_both(capsys, ["congruent", a, b, "--grid", "0,0.4"])
        assert code == 1 and report["message"] == "conjugator found but verification failed"
        assert list(report) == WITNESS_KEYS
        assert rows == self.witness_rows("not_congruent", 2, 1, [0.0, 0.4])

    def test_congruent(self, tmp_path, capsys, rng):
        a, b = congruent_pair_files(tmp_path, 3, 2, rng)
        code, report, rows = self.run_both(capsys, ["congruent", a, b, "--grid", "0:0.4:9"])
        assert code == 0 and report["message"] == ""
        assert list(report) == WITNESS_KEYS
        assert rows == self.witness_rows("congruent", 3, 2, report["samples"])

    def test_a_new_field_reaches_both_formats(self, tmp_path, capsys, monkeypatch, rng):
        @dataclasses.dataclass(frozen=True, eq=False)
        class WitnessWithMargins(congruence_mod.CongruenceWitness):
            singular_values: np.ndarray
            margins: tuple

        def are_congruent(*args, **kwargs):
            w = congruence_mod.are_congruent(*args, **kwargs)
            fields = {f.name: getattr(w, f.name) for f in dataclasses.fields(w)}
            margins = tuple(float(i) for i, _ in enumerate(w.samples))
            return WitnessWithMargins(**fields, singular_values=np.eye(2), margins=margins)

        monkeypatch.setattr(cli_mod, "are_congruent", are_congruent)
        a, b = congruent_pair_files(tmp_path, 2, 1, rng)
        code, report, rows = self.run_both(capsys, ["congruent", a, b, "--grid", "0:0.4:3"])
        assert code == 0
        assert list(report) == WITNESS_KEYS[:-1] + ["singular_values", "margins", "tolerance"]
        assert report["singular_values"] == [[1.0, 0.0], [0.0, 1.0]]
        assert report["margins"] == [0.0, 1.0, 2.0]
        times = [format(t, ".17g") for t in report["samples"]]
        assert rows == (
            self.witness_rows("congruent", 2, 1, report["samples"])
            + [("", "singular_values")] * 4
            + [(t, "margin") for t in times]
        )


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

    @pytest.mark.parametrize("command", ["invariants", "normal-frame"])
    def test_batched_check_names_the_first_grid_time(self, command, tmp_path, capsys):
        path = write_coefficients(tmp_path / "cubic.json", CUBIC)
        assert main([command, path, "--grid", "0:1:3"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: frame is not fanning at t=0.0: condition ")


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

    def test_canonicalize_once_per_command(self, tmp_path, monkeypatch, capsys, rng):
        """The orbit coordinates are read from the standard jet the command holds."""
        path = write_curve(tmp_path / "c.json", tame_polynomial_curve(3, 2, rng))
        calls = []
        original = congruence_mod.canonicalize_jet

        def counting(fj):
            calls.append(fj)
            return original(fj)

        monkeypatch.setattr(congruence_mod, "canonicalize_jet", counting)
        monkeypatch.setattr(cli_mod, "canonicalize_jet", counting)
        assert main(["canonicalize", path, "--t", "0.1"]) == 0
        assert len(calls) == 1
        report = json.loads(capsys.readouterr().out)
        expected = congruence_mod.orbit_coordinates(calls[0]).entries
        assert len(report["orbit_coordinates"]) == len(expected) == 2
        for got, want in zip(report["orbit_coordinates"], expected):
            np.testing.assert_array_equal(got, want)

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

    def test_verify_frame_normal_at_one_point(self, tmp_path, capsys):
        path = write_coefficients(tmp_path / "c.json", POINT_NORMAL)
        assert main(["verify", path, "--t", "0"]) == 0
        for check in json.loads(capsys.readouterr().out)["checks"]:
            assert check["pass"], check

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
        [
            "0:nan:5",
            "0:inf:3",
            "-inf:1:3",
            "0:1:100001",
            "0:1:0",
            "0,nan,1",
            "0.1,inf",
            "0:1:2.0",
            "a:1:3",
        ],
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

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"P": 5}, "P must be a list"),
            ({"P": None}, "P must be a list"),
            ({"A0": "x"}, "A0 must be a matrix of numbers"),
            ({"P": [{"coefficients": []}, {"coefficients": [[[1.0]]]}]}, "P entry 0: "),
        ],
        ids=["P-number", "P-null", "A0-string", "P-entry-empty"],
    )
    def test_malformed_ode_file_exit_2(self, change, message, tmp_path, capsys, rng):
        path = tmp_path / "ode.json"
        write_normal_ode_curve(path, 2, 1, rng)
        data = json.loads(path.read_text())
        data.update(change)
        path.write_text(json.dumps(data))
        assert main(["invariants", str(path), "--grid", "0:1:3"]) == 2
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

    def test_unordered_scalar_grid_exit_2(self, tmp_path, monkeypatch, capsys, rng):
        # An n = 1 pair integrates nothing, and its grid is still checked.
        def refuse(*args, **kwargs):
            raise AssertionError("the normalizing change was integrated")

        monkeypatch.setattr(invariants_mod, "solve_ivp", refuse)
        curve = tame_polynomial_curve(2, 1, rng)
        a = write_curve(tmp_path / "a.json", curve)
        b = write_curve(tmp_path / "b.json", curve.transformed(random_invertible(2, rng)))
        assert main(["congruent", a, b, "--grid", "0,0.2,0.1"]) == 2
        assert "time grid must be strictly monotonic" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["invariants", "congruent", "canonicalize", "normal-frame", "verify"]
    )
    def test_negative_seed_exit_2(self, command, tmp_path, capsys):
        path = write_curve(tmp_path / "std.json", standard_curve(2, 1))
        curves = [path, path] if command == "congruent" else [path]
        grid = [] if command in ("canonicalize", "verify") else ["--grid", "0:0.4:3"]
        assert main([command, *curves, *grid, "--seed", "-3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --seed must be a non-negative integer, got -3\n"

    @pytest.mark.parametrize("command", ["invariants", "normal-frame", "congruent"])
    def test_empty_grid_exit_2(self, command, tmp_path, capsys):
        path = write_curve(tmp_path / "std.json", standard_curve(2, 1))
        curves = [path, path] if command == "congruent" else [path]
        assert main([command, *curves, "--grid", ""]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {command} needs a time grid\n"


class TestPlumbing:
    def test_parser_built_once_per_process(self, tmp_path, capsys):
        path = write_curve(tmp_path / "std.json", standard_curve(2, 1))
        cli_mod._build_parser.cache_clear()
        assert main(["verify", path]) == 0
        assert main(["invariants", path, "--grid", "0:0.2:2"]) == 0
        info = cli_mod._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_cached_parser_keeps_usage_errors_and_help(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(["invariants"])
            assert info.value.code == 2
            assert "the following arguments are required" in capsys.readouterr().err
            with pytest.raises(SystemExit) as info:
                main(["--help"])
            assert info.value.code == 0
            assert capsys.readouterr().out.startswith("usage: fanning")

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        path = write_curve(tmp_path / "std.json", standard_curve(2, 1))
        out = tmp_path / "missing" / "r.json"
        assert main(["verify", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write the report")
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["invariants", "{a}", "--grid", "0:0.2:3", "--jacobi", "--maurer-cartan", "H"],
            ["congruent", "{a}", "{a}", "--grid", "0:0.4:7"],
            ["canonicalize", "{a}", "--t", "0.1"],
            ["normal-frame", "{a}", "--grid", "0:0.4:5"],
            ["verify", "{a}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_json_reports_build_no_csv_rows(self, argv, tmp_path, monkeypatch, capsys, rng):
        path = write_curve(tmp_path / "c.json", tame_polynomial_curve(3, 1, rng))

        def refuse(*args):
            raise AssertionError("CSV rows built for a JSON report")

        monkeypatch.setattr(report_mod, "matrix_rows", refuse)
        assert main([arg.format(a=path) for arg in argv]) == 0
        assert json.loads(capsys.readouterr().out)["command"] == argv[0]

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

    @pytest.mark.parametrize(
        "option, env", [(["--tol", "nan"], None), (["--tol", "inf"], None), ([], "nan")]
    )
    def test_non_finite_tolerance_exit_2(self, option, env, tmp_path, monkeypatch, capsys):
        a = write_coefficients(tmp_path / "a.json", LINE)
        b = write_coefficients(tmp_path / "b.json", BENT_LINE)
        argv = ["congruent", a, b, "--grid", "0,0.4"]
        assert main(argv) == 1
        capsys.readouterr()
        if env is not None:
            monkeypatch.setenv("FANNING_TOL", env)
        assert main(argv + option) == 2
        out, err = capsys.readouterr()
        assert out == "" and "tolerance must be finite and positive" in err

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


class TestIntegratorBoundary:
    """The propagator needs no scipy, stops at its knot budget and at a crossing."""

    def test_commands_load_no_scipy(self, tmp_path, rng):
        poly = write_curve(tmp_path / "c.json", tame_polynomial_curve(3, 2, rng))
        ode = write_normal_ode_curve(tmp_path / "ode.json", 3, 2, rng)
        out = str(tmp_path / "r.json")
        calls = []
        for path in (poly, ode):
            calls += [
                ["invariants", path, "--grid", "0:0.4:5", "--jacobi", "--out", out],
                ["congruent", path, path, "--grid", "0:0.4:5", "--out", out],
                ["canonicalize", path, "--out", out],
                ["normal-frame", path, "--grid", "0:0.4:5", "--out", out],
                ["verify", path, "--out", out],
            ]
        script = (
            "import sys\n"
            "import fanning.cli\n"
            f"for argv in {calls!r}:\n"
            "    assert fanning.cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(fanning.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("command", ["normal-frame", "invariants"])
    def test_integrator_budget_exit_6(self, command, tmp_path, monkeypatch, capsys, rng):
        monkeypatch.setattr(curves_mod, "MAX_KNOTS", 1)
        if command == "normal-frame":
            path = write_curve(tmp_path / "c.json", tame_polynomial_curve(2, 2, rng))
            grid = "0:0.4:5"
        else:
            path = write_normal_ode_curve(tmp_path / "ode.json", 2, 2, rng)
            grid = "-0.4:0.4:5"
        assert main([command, path, f"--grid={grid}"]) == 6
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical failure: integration stopped at t=0.0: ")
        assert "knots exceed the budget of 1" in err

    def test_long_grid_stops_at_the_knot_budget(self, tmp_path):
        # The unit oscillator over [0, 1e6] needs about 2e6 knots.
        data = {
            "kind": "ode",
            "k": 2,
            "n": 1,
            "P": [{"coefficients": [[[0.0]]]}, {"coefficients": [[[1.0]]]}],
            "A0": np.eye(2).tolist(),
        }
        path = tmp_path / "osc.json"
        path.write_text(json.dumps(data))
        src = str(Path(fanning.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "fanning.cli", "normal-frame", str(path), "--grid", "0:1e6:3"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 6, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("numerical failure: integration stopped at t=")
        assert f"knots exceed the budget of {curves_mod.MAX_KNOTS}" in proc.stderr

    @pytest.mark.parametrize(
        "p2, argv, message",
        [
            (1e300, ["invariants", "--grid", "0:1:3"], "integration stopped at t=0.0: "),
            (1e300, ["normal-frame", "--grid", "0:1:3"], "integration stopped at t=0.0: "),
            (1e300, ["verify", "--t", "0.5"], "integration stopped at t=0.0: "),
            (1e300, ["canonicalize", "--t", "0.5"], "integration stopped at t=0.0: "),
            (1e300, ["invariants", "--grid", "0"], "the frame's series at t=0.0 overflowed"),
            # A'' = 1e6 A grows like exp(1000 t) and leaves the float range near t=0.7.
            (-1e6, ["normal-frame", "--grid", "0:1:3"], "integration stopped at t=0.70"),
        ],
        ids=[
            "invariants",
            "normal-frame",
            "verify",
            "canonicalize",
            "invariants-at-0",
            "growing-state",
        ],
    )
    def test_overflow_is_one_line(self, p2, argv, message, tmp_path):
        # No bisection shrinks a series that overflows at its own knot.
        data = {
            "kind": "ode",
            "k": 2,
            "n": 1,
            "P": [{"coefficients": [[[0.0]]]}, {"coefficients": [[[p2]]]}],
            "A0": np.eye(2).tolist(),
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        src = str(Path(fanning.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "fanning.cli", argv[0], str(path), *argv[1:]],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 6, proc.stderr
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("numerical failure: " + message)

    def test_crossing_between_grid_times_exit_3(self, tmp_path, capsys):
        path = write_coefficients(tmp_path / "cross.json", CROSSING)
        assert main(["normal-frame", path, "--grid", "0:1:2"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: frame is not fanning at t=0.5: ")

    def test_normalizer_before_the_crossing_is_exact(self, tmp_path, capsys):
        path = write_coefficients(tmp_path / "cross.json", CROSSING)
        assert main(["normal-frame", path, "--grid", "0:0.45:2"]) == 0
        x = json.loads(capsys.readouterr().out)["x"]
        assert x[0] == [[1.0]]
        assert abs(x[1][0][0] - 0.1) <= 1e-13
