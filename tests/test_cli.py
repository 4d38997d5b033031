"""Command-line interface: subcommands, config files, output formats."""

import math
import warnings

import numpy as np
import pytest

from fraclap import cli, constants, flcore
from fraclap.constants import norm_constants
from fraclap.fields import Gaussian
from fraclap.flcore import fl_regularized
from fraclap.quad import QuadratureError


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_strict(capsys, *argv):
    """run with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(capsys, *argv)


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConstants:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "constants", "--alpha", "1.0", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        table = {r[0]: r[1] for r in rows}
        assert float(table["C_standard"]) == pytest.approx(1.0 / math.pi,
                                                           abs=1e-14)
        assert float(table["A_delta"]) == pytest.approx(math.pi, abs=1e-12)
        nc = norm_constants(1, 1, 1.0)
        assert float(table["A"]) == pytest.approx(nc.a_factor, rel=1e-14)

    def test_distributional_note(self, capsys):
        code, out, _ = run(capsys, "constants", "--alpha", "2.0",
                           "--m", "2", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        cs = [r for r in rows if r[0] == "C_standard"][0]
        assert float(cs[1]) == 0.0 and cs[2] == "distributional"
        assert not any(r[0] == "A_delta" for r in rows)

    def test_domain_error_exit(self, capsys):
        code, _, err = run(capsys, "constants", "--alpha", "-1.0")
        assert code == 2
        assert err.startswith("error:")


class TestDispersion:
    def test_curve(self, capsys):
        code, out, _ = run(capsys, "dispersion", "--delta", "0.8",
                           "--a", "1.5", "--kh-max", "2.0",
                           "--samples", "5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["kh", "omega2_wm"]
        assert len(rows) == 5
        assert float(rows[0][1]) == 0.0          # kh = 0
        assert all(float(r[1]) >= 0.0 for r in rows)

    def test_limit_column_tracks_curve(self, capsys):
        # with a close to 1 the scaled curve and its limit overlay
        code, out, _ = run(capsys, "dispersion", "--delta", "1.5",
                           "--a", "1.02", "--kh-min", "0.5",
                           "--kh-max", "2.0", "--samples", "4", "--limit")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["kh", "omega2_wm", "omega2_limit"]
        for r in rows:
            assert float(r[1]) == pytest.approx(float(r[2]), rel=2e-2)


    @pytest.mark.parametrize("m,top", [(1, 1.9), (2, 3.85), (3, 5.75)])
    def test_limit_column_is_the_closed_form(self, capsys, m, top):
        # kh^delta V(m, delta) / ln a, V by quadrature; finite up to delta
        # near 2m
        for delta in [2 * m * j / 8 for j in range(1, 8)] + [top]:
            code, out, _ = run(capsys, "dispersion", "--delta", str(delta),
                               "--m", str(m), "--a", "1.5", "--kh-min", "0.5",
                               "--kh-max", "2.0", "--samples", "3", "--limit",
                               "--tol", "1e-10")
            assert code == 0
            v = constants.v_integral_quadrature(m, delta)
            for r in parse_csv(out)[1]:
                kh, limit = float(r[0]), float(r[2])
                assert math.isfinite(limit)
                assert limit * math.log(1.5) == pytest.approx(
                    kh ** delta * v, rel=1e-9)

    def test_huge_kh_is_finite(self, capsys):
        # the deep-level amplitude (kh/2)^(2m) overflows a double here
        code, out, err = run(capsys, "dispersion", "--delta", "0.8",
                             "--kh-max", "1e200", "--samples", "3")
        assert code == 0 and err == ""
        rows = parse_csv(out)[1]
        assert all(math.isfinite(float(r[1])) for r in rows)

    def test_finite_near_delta_2m(self, capsys):
        code, out, _ = run(capsys, "dispersion", "--m", "3", "--delta",
                           "5.75", "--a", "1.541", "--tol", "1e-10")
        assert code == 0
        rows = parse_csv(out)[1]
        assert len(rows) == 121
        assert all(math.isfinite(float(r[1])) for r in rows)

    def test_no_direct_level(self, capsys, deadline):
        # every level above s_pos takes the series, so no phase is reduced
        # (from the level above the series, a^s has millions of bits)
        with deadline(5):
            code, out, err = run_strict(capsys, "dispersion", "--delta", "1.5",
                                        "--a", "1.0001", "--kh-min", "5e-324",
                                        "--kh-max", "5e-324", "--samples", "1")
        assert code == 0 and err == ""
        assert math.isfinite(float(parse_csv(out)[1][0][1]))


class TestLevelBudget:
    @pytest.mark.parametrize("argv", [
        ["dispersion", "--delta", "0.8", "--a", "1.000001"],
        ["converge", "--delta", "1.5", "--steps", "30"],
    ])
    def test_small_a_is_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "budget" in err
        assert err.count("\n") == 1


class TestApply:
    def test_alpha_zero_negates_field(self, capsys):
        code, out, _ = run(capsys, "apply", "--alpha", "0", "--rep",
                           "regularized", "--samples", "3",
                           "--x-min", "-1", "--x-max", "1")
        assert code == 0
        _, rows = parse_csv(out)
        for r in rows:
            x, v = float(r[0]), float(r[1])
            assert v == pytest.approx(-math.exp(-x * x), abs=1e-15)

    def test_oracle_column_agrees(self, capsys):
        code, out, _ = run(capsys, "apply", "--alpha", "1.5", "--rep",
                           "regularized", "--samples", "3",
                           "--x-min", "-1", "--x-max", "1")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "value", "oracle", "abs_diff"]
        for r in rows:
            assert float(r[3]) < 1e-5

    def test_regularized_honours_tol(self, capsys):
        # --tol reaches the regularized form unchanged: same bits as the API
        code, out, _ = run(capsys, "apply", "--alpha", "1.3", "--rep",
                           "regularized", "--sigma", "0.8", "--tol", "1e-7",
                           "--samples", "3", "--x-min", "-1", "--x-max", "1")
        assert code == 0
        _, rows = parse_csv(out)
        for r in rows:
            res = fl_regularized(Gaussian(0.8), np.array([float(r[0])]), 1.3,
                                 tol=1e-7)
            assert float(r[1]) == float(np.real(res.value))

    def test_oracle_needs_a_resolving_grid(self, capsys):
        # sigma far below the grid step: the value is right, the oracle
        # is not there, and one note says why
        code, out, err = run(capsys, "apply", "--alpha", "1.5", "--sigma",
                             "1e-8", "--samples", "3")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "value", "oracle", "abs_diff"]
        assert all(r[2] == "nan" and r[3] == "nan" for r in rows)
        exact = -(1e-8 ** -1.5) * 2 ** 1.5 * constants.gamma(1.25) \
            / math.sqrt(math.pi)
        assert float(rows[1][1]) == pytest.approx(exact, rel=1e-9)
        assert err.startswith("note:") and err.count("\n") == 1

    def test_oracle_kept_on_the_coarsest_grid(self, capsys):
        # sigma = 0.6 on 256 samples over 16 is far inside the guard
        code, out, err = run(capsys, "apply", "--alpha", "1.5", "--sigma",
                             "0.6", "--oracle-samples", "256", "--samples",
                             "3", "--x-min", "-1", "--x-max", "1")
        assert code == 0 and err == ""
        assert all(float(r[3]) < 1e-5 for r in parse_csv(out)[1])

    def test_standard_rejects_high_alpha(self, capsys):
        code, _, err = run(capsys, "apply", "--alpha", "2.5", "--rep",
                           "standard")
        assert code == 2 and "error:" in err

    def test_planewave_has_no_oracle_column(self, capsys):
        code, out, _ = run(capsys, "apply", "--alpha", "1.0", "--rep",
                           "standard", "--field", "planewave",
                           "--samples", "2")
        assert code == 0
        header, _ = parse_csv(out)
        assert header == ["x", "value"]


class TestEig:
    def test_sweep_accuracy(self, capsys):
        code, out, _ = run(capsys, "eig", "--rep", "standard",
                           "--alpha", "1.5", "--k-min", "0.5",
                           "--k-max", "2.0", "--samples", "4")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["k", "eigenvalue", "exact", "abs_diff"]
        for r in rows:
            k = float(r[0])
            assert float(r[2]) == -k ** 1.5
            assert float(r[3]) < 1e-6

    def test_rejects_nonpositive_k(self, capsys):
        code, _, err = run(capsys, "eig", "--rep", "standard",
                           "--alpha", "1.0", "--k-min", "0.0")
        assert code == 2


class TestConverge:
    def test_errors_shrink(self, capsys):
        code, out, _ = run(capsys, "converge", "--delta", "1.5",
                           "--a-start", "1.5", "--a-factor", "2",
                           "--steps", "5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["a", "scaled_dispersion", "limit", "abs_diff"]
        diffs = [float(r[3]) for r in rows]
        assert diffs[-1] < diffs[0]


class TestSelftest:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "12/12 passed" in out

    def test_filter(self, capsys):
        code, out, _ = run(capsys, "selftest", "--filter", "constants")
        assert code == 0
        assert "constants.levy_match" in out
        assert "oracle.fft_roundtrip" not in out

    def test_unmatched_filter(self, capsys):
        code, out, _ = run(capsys, "selftest", "--filter", "zzz")
        assert code == 1

    def test_injected_error_detected(self, capsys, monkeypatch):
        # a standard constant off by 1e-6 must fail the checks built on it
        exact = constants.c_standard
        monkeypatch.setattr(constants, "c_standard",
                            lambda n, alpha: exact(n, alpha) * (1.0 + 1e-6))
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert "%-32s FAIL" % "constants.levy_match" in out.splitlines()


class TestInputValidation:
    @pytest.mark.parametrize("argv", [
        ("apply", "--alpha", "1.2", "--tol", "0"),
        ("apply", "--alpha", "1.2", "--tol=-1e-9"),
        ("eig", "--alpha", "1.2", "--tol", "nan"),
        ("dispersion", "--delta", "0.8", "--tol", "inf"),
        ("eig", "--alpha", "inf"),
        ("apply", "--alpha", "nan"),
        ("constants", "--alpha=-inf"),
        ("dispersion", "--delta", "nan"),
        ("converge", "--delta", "inf"),
        ("converge", "--delta", "1", "--a-factor", "0"),
        ("converge", "--delta", "1", "--a-factor", "1"),
        ("dispersion", "--delta", "1", "--kh-max", "inf"),
        ("dispersion", "--delta", "1", "--kh-min", "nan"),
        ("converge", "--delta", "1", "--kh", "nan"),
        ("apply", "--alpha", "1", "--field", "planewave", "--k", "inf"),
        ("apply", "--alpha", "1", "--x-min", "nan"),
    ])
    def test_rejected_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --") and err.count("\n") == 1

    @pytest.mark.parametrize("sigma", ["1e-300", "1e300"])
    def test_sigma_whose_square_is_not_finite(self, capsys, sigma):
        code, out, err = run(capsys, "apply", "--alpha", "1", "--sigma",
                             sigma)
        assert code == 2
        assert out == ""
        assert err.startswith("error: sigma") and err.count("\n") == 1

    def test_config_tol_checked_too(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tol = 0\n")
        code, _, err = run(capsys, "eig", "--alpha", "1.2",
                           "--config", str(cfg))
        assert code == 2 and "--tol" in err


class TestNumericalFailure:
    @pytest.mark.parametrize("exc", [QuadratureError("tolerance not met")])
    def test_exit_three(self, capsys, monkeypatch, exc):
        def failing(*args, **kwargs):
            raise exc
        monkeypatch.setattr(flcore, "fl_standard", failing)
        code, out, err = run(capsys, "apply", "--alpha", "1.2", "--rep",
                             "standard", "--samples", "1")
        assert code == 3
        assert out == ""
        assert err == "error: numerical failure: %s\n" % exc

    def test_non_finite_value(self, capsys):
        # sigma = 1e-12: the line derivatives overflow at x = -2, so the
        # value is nan; it fails instead of printing
        code, out, err = run(capsys, "apply", "--alpha", "1", "--sigma",
                             "1e-12")
        assert code == 3
        assert out == ""
        assert err.endswith("regularized form's value is not finite\n")
        assert err.count("error:") == 1 and "Traceback" not in err


    @pytest.mark.parametrize("n", ["2", "3"])
    def test_nan_ends_the_angular_loop(self, capsys, n):
        # sigma = 1e-30: the first sphere rule's value is already nan, so
        # the loop stops there instead of refining and warning
        code, out, err = run_strict(capsys, "apply", "--alpha", "1",
                                    "--sigma", "1e-30", "--n", n,
                                    "--samples", "1")
        assert code == 3
        assert out == ""
        assert err.endswith("regularized form's value is not finite\n")
        assert err.count("\n") == 1


class TestPlaneWaveExtremes:
    """|k| near the ends of the doubles: an eigenvalue that is a double is
    printed, one past them fails in one line."""

    def test_huge_k_eigenvalue(self, capsys):
        code, out, err = run_strict(capsys, "eig", "--k-min", "1e200",
                                    "--k-max", "1e200", "--alpha", "1.5",
                                    "--samples", "1")
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(-1e300, rel=1e-12)

    def test_tiny_k(self, capsys):
        code, out, err = run_strict(capsys, "apply", "--field", "planewave",
                                    "--k", "1e-300", "--alpha", "1.5",
                                    "--samples", "1")
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert math.isfinite(float(rows[0][1]))

    def test_value_past_the_doubles(self, capsys):
        code, out, err = run_strict(capsys, "apply", "--field", "planewave",
                                    "--k", "1e300", "--alpha", "1.5",
                                    "--samples", "1")
        assert code == 3
        assert out == ""
        assert err == ("error: numerical failure: the regularized form's "
                       "value is not finite\n")


class TestValuePastTheDoubles:
    """Lattice values and the even-alpha branch past the doubles fail in
    one line, with no traceback or warning."""

    @pytest.mark.parametrize("argv,what", [
        (["dispersion", "--delta", "1.5", "--kh-min", "1e300", "--kh-max",
          "1e300", "--samples", "1"], "dispersion's"),
        (["dispersion", "--delta", "1.5", "--a", "1e300", "--kh-min",
          "1e206", "--kh-max", "1e206", "--samples", "1", "--limit"],
         "continuum limit's"),
        (["converge", "--delta", "1.5", "--kh", "1e300"],
         "continuum limit's"),
        (["eig", "--alpha", "2", "--k-min", "1e200", "--k-max", "1e200",
          "--samples", "1"], "regularized form's"),
        (["eig", "--alpha", "4", "--k-min", "1e100", "--k-max", "1e100",
          "--samples", "1"], "regularized form's"),
        (["apply", "--field", "planewave", "--k", "1e200", "--alpha", "2",
          "--samples", "1"], "regularized form's"),
        (["apply", "--alpha", "4", "--sigma", "1e-100", "--samples", "1"],
         "regularized form's"),
        (["apply", "--alpha", "2", "--sigma", "1e-154", "--x-min", "0",
          "--x-max", "0", "--samples", "1"], "regularized form's"),
    ])
    def test_exit_three(self, capsys, deadline, argv, what):
        with deadline(5):
            code, out, err = run_strict(capsys, *argv)
        assert code == 3
        assert out == ""
        # an oracle note may come first
        assert err.endswith("error: numerical failure: the %s value is not "
                            "finite\n" % what)
        assert err.count("error:") == 1


class TestOutputAndConfig:
    def test_out_file_matches_stdout(self, capsys, tmp_path):
        code, out, _ = run(capsys, "eig", "--rep", "regularized",
                           "--alpha", "0.5", "--samples", "2")
        dest = tmp_path / "eig.csv"
        code2 = cli.main(["eig", "--rep", "regularized", "--alpha", "0.5",
                          "--samples", "2", "--out", str(dest)])
        capsys.readouterr()
        assert code == code2 == 0
        data = dest.read_bytes()
        assert data.decode("ascii") == out
        assert b"\r" not in data

    def test_csv_roundtrip_exact(self, capsys):
        # repr floats parse back to the same doubles
        code, out, _ = run(capsys, "eig", "--rep", "standard",
                           "--alpha", "1.5", "--samples", "3")
        _, rows = parse_csv(out)
        for r in rows:
            k = float(r[0])
            assert repr(float(r[1])) == r[1]
            assert float(r[2]) == -(k ** 1.5)

    def test_pretty_table(self, capsys):
        code, out, _ = run(capsys, "constants", "--alpha", "1.0",
                           "--format", "pretty-table")
        assert code == 0
        assert "," not in out.split("\n")[0]
        assert "C_standard" in out

    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults\nalpha = 1.0\nsamples = 2\n")
        code, out, _ = run(capsys, "eig", "--rep", "standard",
                           "--config", str(cfg))
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2
        assert float(rows[0][2]) == -0.5          # alpha 1 at k = 0.5

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1.0\nsamples = 2\n")
        code, out, _ = run(capsys, "eig", "--rep", "standard",
                           "--config", str(cfg), "--samples", "3")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3

    def test_flag_equal_to_its_default_overrides_config(self, capsys,
                                                         tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 0.8\na = 2.0\n")
        argv = ("dispersion", "--samples", "3", "--a", "1.5")
        code, out, _ = run(capsys, *argv, "--config", str(cfg))
        assert code == 0
        assert out == run(capsys, *argv, "--delta", "0.8")[1]

    def test_config_value_outside_choices(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1.0\nformat = xml\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["constants", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "invalid choice: 'xml'" in capsys.readouterr().err

    def test_config_switch_must_be_boolean(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        argv = ("dispersion", "--delta", "0.8", "--samples", "2",
                "--config", str(cfg))
        cfg.write_text("limit = yes please\n")
        code, _, err = run(capsys, *argv)
        assert code == 2 and "limit" in err
        cfg.write_text("limit = yes\n")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("kh,omega2_wm,omega2_limit\n")

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1.0\nbogus = 3\n")
        code, _, err = run(capsys, "eig", "--rep", "standard",
                           "--config", str(cfg))
        assert code == 2 and "bogus" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "eig", "--rep", "standard",
                           "--alpha", "1.0",
                           "--config", str(tmp_path / "absent.cfg"))
        assert code == 2
