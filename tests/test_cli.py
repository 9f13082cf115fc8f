import json
import os
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, workdps
from mpmath.libmp import to_rational

from heightlab.cli import main
from heightlab.radicals import RadicalPoint, RadicalScalar, weighted_projective_height


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _keep_reports(monkeypatch, name: str) -> list:
    """The reports the CLI's binding of the experiment ``name`` returns,
    kept in a list as they are made."""
    from heightlab import cli

    reports, experiment = [], getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args, **kwargs: reports.append(experiment(*args, **kwargs)) or reports[-1])
    return reports


class TestHeightCommand:
    def test_radical_exact_output(self, capsys):
        code, out, err = run(capsys, "height", "rad: 3 ^ 1/5")
        assert code == 0
        assert out.strip() == "1/5*log(3) ≈ 0.2197224577"

    def test_radical_with_gamma(self, capsys):
        code, out, _ = run(capsys, "height", "rad: 2 ^ 1/2", "--gamma", "-1")
        assert code == 0
        # deg 2, gamma -1: (1/2) * (1/2) log 2 = (1/4) log 2
        assert out.strip() == "1/4*log(2) ≈ 0.1732867951"

    def test_radical_with_non_exact_gamma(self, capsys):
        # 2^(-1/3) is irrational, so the weighted height is a ball
        code, out, _ = run(capsys, "height", "rad: 2 ^ 1/2", "--gamma=-1/3")
        assert code == 0
        assert out.strip() == "≈ 0.2750756408974121722037997964082030732 (radius 2.19e-38)"
        # the ball printed, at the default precision of 24 digits
        point = RadicalPoint([RadicalScalar.one(), RadicalScalar({2: Fraction(1, 2)})])
        lo, hi = weighted_projective_height(point, Fraction(-1, 3), 24).numeric.bounds()
        with workdps(60):
            assert lo < mp.cbrt(2) ** -1 * mp.log(2) / 2 < hi

    @pytest.mark.parametrize(
        "poly, gamma, shown",
        [
            ("x^2 - 2", "-1/2", "0.2450645359"),
            ("x^2 - 2", "-1", "0.1732867951"),
            ("x^2 - 2", "-2/3", "0.2183276809"),
            ("x^3 - x - 1", "-1/2", "0.05411688331"),
            ("x^3 - x - 1", "-1", "0.03124439715"),
            ("x^3 - x - 1", "-2/3", "0.04506221836"),
        ],
    )
    def test_algebraic_with_gamma(self, capsys, poly, gamma, shown):
        value, radius = {
            ("x^2 - 2", "-1/2"): ("0.2450645358671367979284754309088083", "2.41e-34"),
            ("x^2 - 2", "-1"): ("0.1732867951399863273543080303645441", "1.8e-34"),
            ("x^2 - 2", "-2/3"): ("0.2183276808656893781851840232949565", "2.19e-34"),
            ("x^3 - x - 1", "-1/2"): ("0.054116883310456733073702687869383", "4.53e-35"),
            ("x^3 - x - 1", "-1"): ("0.03124439714699576072356119600754203", "2.83e-35"),
            ("x^3 - x - 1", "-2/3"): ("0.0450622183597686522789518018951549", "3.9e-35"),
        }[poly, gamma]
        code, out, _ = run(capsys, "height", f"alg: {poly}", f"--gamma={gamma}")
        assert code == 0
        assert out.strip() == f"≈ {value} (radius {radius})"
        assert mp.nstr(mp.mpf(value), 10) == shown

    def test_unfactorable_radical_exit_2(self, capsys, monkeypatch):
        # two 20-digit primes; a small budget keeps the test fast
        from heightlab import numcore

        monkeypatch.setattr(numcore, "_RHO_STEPS", 1 << 12)
        code, out, err = run(capsys, "height", "rad: 300000000000000001940000000000000002091")
        assert code == 2 and out == ""
        assert "Pollard-rho steps" in err

    def test_golden_ratio(self, capsys):
        code, out, err = run(capsys, "height", "alg: x^2 - x - 1")
        assert code == 0
        assert "0.2406059125" in out
        assert err == ""

    def test_reducible_warning(self, capsys):
        code, out, err = run(capsys, "height", "alg: x^2 - 1")
        assert code == 0
        assert "reducible" in err
        # roots of unity: height 0 up to the certified radius
        assert abs(float(out.split("≈")[1].split("(")[0])) < 1e-30

    def test_unit_leading_coefficient_adds_no_rounding_floor(self, capsys):
        # log|lc| = log 1 is exactly 0, not 0 with the absolute-floor
        # allowance 8 * 10^-39 of log_abs at the working precision; what
        # is left is the straddle term of the discs about +-1
        code, out, _ = run(capsys, "height", "alg: x^2 - 1")
        assert code == 0
        assert float(out.split("(radius ")[1].rstrip(")\n")) < 1e-39

    @pytest.mark.parametrize("poly", ["x^2 + x + 1", "x^4 + x^3 + x^2 + x + 1", "x^2 - 1"])
    def test_roots_of_unity_keep_the_radius_of_their_discs(self, capsys, poly):
        # a disc across the unit circle adds [0, ((|v| + r)^2 - 1) / 2],
        # of the order of the disc, not the log of abs_bounds' guard at
        # the working precision (1.84e-40 at 39 digits)
        code, out, _ = run(capsys, "height", f"alg: {poly}")
        assert code == 0
        assert float(out.split("(radius ")[1].rstrip(")\n")) < 1e-60

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "height", "rad: 2 ^^ 3")
        assert code == 2 and "error" in err
        code, _, err = run(capsys, "height", "quux: 1")
        assert code == 2

    def test_bad_precision_exit_2(self, capsys):
        code, _, err = run(capsys, "height", "rad: 2", "--precision", "8")
        assert code == 2
        assert "16" in err

    def test_missing_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestPointHeight:
    def test_rational_point(self, capsys):
        code, out, _ = run(capsys, "point-height", "--coords", "1,2/3")
        assert code == 0
        assert out.strip() == "log(3) ≈ 1.098612289"

    def test_zero_coordinate(self, capsys):
        code, out, _ = run(capsys, "point-height", "--coords", "0,1,2^1/2")
        assert code == 0
        assert "log(2)" in out

    def test_weighted(self, capsys):
        code, out, _ = run(
            capsys, "point-height", "--coords", "1,2^1/2", "--gamma", "-1"
        )
        assert code == 0
        assert out.strip().startswith("1/4*log(2)")

    def test_invalid_point_exit_2(self, capsys):
        code, _, err = run(capsys, "point-height", "--coords", "0,0")
        assert code == 2


class TestLemmaCheck:
    def test_frozen_chain(self, capsys):
        code, out, _ = run(
            capsys,
            "lemma-check",
            "--coords",
            "1,17/2 ^ 1/2,1",
            "--gamma",
            "-1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "verdict: holds"
        assert lines[1] == "index set: [0]"
        # lhs = middle = (1/4) log 17, rhs = (1/8) log 17
        assert "0.708303336" in lines[2]
        assert "0.708303336" in lines[3]
        assert "0.354151668" in lines[4]

    def test_positive_gamma_exit_2(self, capsys):
        code, _, err = run(
            capsys, "lemma-check", "--coords", "1,2^1/2", "--gamma", "1"
        )
        assert code == 2


class TestTowerCommands:
    def test_gen_certify_round_trip(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "tower",
            "gen",
            "--degrees",
            "2,2",
            "--C",
            "0.5",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        spec_path = out.strip().split("spec written to ")[-1]
        assert os.path.dirname(spec_path) == str(tmp_path)
        data = json.loads(Path(spec_path).read_text())
        assert len(data["levels"]) == 2

        code, out, _ = run(
            capsys,
            "tower",
            "certify",
            spec_path,
            "--monomials",
            "40",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert "level 1" in out and "level 2" in out
        assert "FAILED" not in out
        cert_path = out.strip().split("certificate written to ")[-1]
        cert = json.loads(Path(cert_path).read_text())
        assert cert["passed"] is True
        assert len(cert["levels"]) == 2

    def test_gen_deterministic_filename(self, capsys, tmp_path):
        _, out1, _ = run(
            capsys, "tower", "gen", "--degrees", "2", "--C", "0.4",
            "--out", str(tmp_path),
        )
        _, out2, _ = run(
            capsys, "tower", "gen", "--degrees", "2", "--C", "0.4",
            "--out", str(tmp_path),
        )
        p1 = out1.strip().split("spec written to ")[-1]
        p2 = out2.strip().split("spec written to ")[-1]
        assert p1 == p2

    def test_gen_writes_rational_gamma_and_c(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "tower", "gen", "--degrees", "2", "--gamma=-1/3",
            "--C", "7/10", "--out", str(tmp_path),
        )
        assert code == 0
        spec_path = out.strip().split("spec written to ")[-1]
        data = json.loads(Path(spec_path).read_text())
        assert (data["gamma"], data["C"]) == ("-1/3", "7/10")

    def test_gen_digit_cap_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "tower",
            "gen",
            "--degrees",
            "2,2,3,3,5",
            "--C",
            "1000",
            "--out",
            str(tmp_path),
        )
        assert code == 2
        assert "digits" in err

    def test_certify_failure_exit_1(self, capsys, tmp_path):
        # hand-built spec whose level-1 prime is too small for C = 1
        spec = tmp_path / "bad.json"
        spec.write_text(
            '{"gamma": -1.0, "C": 1.0, '
            '"levels": [{"p": "3", "q": "2", "d": 2}]}'
        )
        code, out, _ = run(
            capsys,
            "tower",
            "certify",
            str(spec),
            "--monomials",
            "30",
            "--out",
            str(tmp_path),
        )
        assert code == 1
        assert "FAILED" in out

    @pytest.mark.parametrize(
        "flags", [["--level", "0"], ["--level", "2"], ["--monomials", "0"]]
    )
    def test_certify_bad_level_or_count_exit_2(self, capsys, tmp_path, flags):
        spec = tmp_path / "one.json"
        spec.write_text('{"gamma": "-1", "C": "1", "levels": [{"p": "3", "q": "2", "d": 2}]}')
        code, out, err = run(
            capsys, "tower", "certify", str(spec), *flags, "--out", str(tmp_path)
        )
        assert code == 2 and out == ""
        assert err.startswith("error: --")
        assert [p.name for p in tmp_path.iterdir()] == ["one.json"]

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"C": "1", "levels": [{"p": "3", "q": "2", "d": 2}]}', "lacks the field 'gamma'"),
            ('{"gamma": "-1", "C": "1", "levels": [{"p": "3", "d": 2}]}', "lacks the field 'q'"),
            ('[{"gamma": "-1", "C": "1", "levels": []}]', "must be a JSON object"),
        ],
    )
    def test_certify_malformed_spec_exit_2(self, capsys, tmp_path, text, named):
        spec = tmp_path / "bad.json"
        spec.write_text(text)
        code, out, err = run(capsys, "tower", "certify", str(spec), "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "tower spec" in err and named in err

    def test_certify_non_integer_spec_exit_2(self, capsys, tmp_path):
        # read with int(), this spec would certify the tower (3, 2, 2)
        spec = tmp_path / "bad.json"
        spec.write_text('{"gamma": "-1", "C": "1/2", "levels": [{"p": 3.9, "q": "2", "d": 2.7}]}')
        code, out, err = run(capsys, "tower", "certify", str(spec), "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: tower spec field 'p' must be an integer")

    def test_certify_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "tower", "certify", str(tmp_path / "none.json")
        )
        assert code == 2


class TestCMCommands:
    def test_scan_csv_and_rerun_identity(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "cm", "scan", "--dmax", "40", "--out", str(tmp_path)
        )
        assert code == 0
        path = out.strip().split(" written to ")[-1]
        assert os.path.basename(path).startswith("cm-scan-")
        assert path.endswith(".csv")
        first = Path(path).read_bytes()
        code, out2, _ = run(
            capsys, "cm", "scan", "--dmax", "40", "--out", str(tmp_path)
        )
        path2 = out2.strip().split(" written to ")[-1]
        assert path2 == path
        assert Path(path).read_bytes() == first

    def test_scan_json_format(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "cm",
            "scan",
            "--dmax",
            "30",
            "--format",
            "json",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        path = out.strip().split(" written to ")[-1]
        assert path.endswith(".json")
        data = json.loads(Path(path).read_text())
        assert {r["D"] for r in data["records"]} == {-3, -4, -7, -8, -11, -15,
                                                     -19, -20, -23, -24}

    def test_faltings_value(self, capsys):
        code, out, _ = run(capsys, "cm", "faltings", "-D", "-4")
        assert code == 0
        assert "faltings_height(-4)" in out
        assert "0.18077055" in out

    def test_faltings_rational_offset(self, capsys):
        # 1/3 and 0.1 are read as exact rationals, not as binary floats
        code, out, _ = run(capsys, "cm", "faltings", "-D", "-4", "--offset", "1/3")
        assert code == 0
        assert "≈ 0.8606774738311692986417177228398399451 (radius" in out
        code, out, _ = run(capsys, "cm", "faltings", "-D", "-4", "--offset", "0.1")
        assert code == 0
        # the tighter CM nome leaves room for one more certified digit
        assert "≈ 0.62734414049783596530838438950650661177 (radius" in out

    def test_faltings_bad_disc_exit_2(self, capsys):
        code, _, err = run(capsys, "cm", "faltings", "-D", "-5")
        assert code == 2

    def test_theta_output(self, capsys):
        code, out, _ = run(capsys, "cm", "theta", "-D", "-4")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert lines[0].startswith("theta_0")
        # theta_1 and theta_3 agree to the printed digits
        v1 = lines[1].split("≈")[1].split("(")[0].strip()
        v3 = lines[3].split("≈")[1].split("(")[0].strip()
        assert v1 == v3

    def test_theta_balls_hold_the_theta_nulls(self, capsys, monkeypatch):
        # the nulls are taken at the principal form's nome from exact
        # data (_cm_nome), whose radius is in every bucket's; the
        # reference sums w^(m^2), m = j mod 4, at three times the
        # working precision
        from mpmath import mp, mpc, workdps

        from heightlab import cli

        balls, text = [], cli._ball_text
        monkeypatch.setattr(cli, "_ball_text", lambda ball: balls.append(ball) or text(ball))
        for d in (-3, -4, -23, -47, -71, -163, -199, -383, -991):
            for precision in (16, 24, 40):
                balls.clear()
                code, _, _ = run(capsys, "cm", "theta", "-D", str(d), "--precision", str(precision))
                assert code == 0 and len(balls) == 4
                with workdps(3 * (precision + 15)):
                    w = mp.exp(mp.pi * 1j * mpc(-(d % 2), mp.sqrt(-d)) / 8)
                    for j, ball in enumerate(balls):
                        truth = mp.fsum(w ** (m * m) for m in range(-60, 61) if m % 4 == j)
                        assert abs(ball.value - truth) <= ball.radius, (d, precision, j)

    def test_theta_of_a_huge_discriminant_needs_only_the_principal_form(self, capsys):
        code, out, _ = run(capsys, "cm", "theta", "-D", "-99999999999")
        assert code == 0
        assert [line.split(" ")[0] for line in out.splitlines()] == [f"theta_{j}" for j in range(4)]

    @pytest.mark.parametrize(
        "argv, cap",
        [
            (["cm", "faltings", "-D", "-1000000007"], "MAX_DISCRIMINANT"),
            (["cm", "scan", "--dmax", "100000000000"], "MAX_DMAX"),
            (["cm", "verify-decay", "--dmax", "100001"], "MAX_DMAX"),
            (["cm", "faltings", "-D", "-4", "--precision", "100000"], "MAX_PRECISION"),
            (["height", "alg: x^1001 - 2"], "MAX_DEGREE"),
            (["height", "alg: 3*x^2 + x^0001001"], "MAX_DEGREE"),
        ],
    )
    def test_work_caps_exit_2(self, capsys, tmp_path, argv, cap):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 2 and not out
        assert cap in err

    def test_faltings_work_budget(self, capsys, tmp_path):
        # h(-1000031) = 928 forms: at 10000 digits 928 * 1323.3 units are
        # above MAX_WORK = 10**6 (about 8 minutes of series), at 24 digits
        # 936 units are not; -99999999 at 10000 digits is 9.2 million
        from heightlab.cli import MAX_WORK, faltings_work

        assert faltings_work(928, 10000) > MAX_WORK >= faltings_work(928, 9000)
        assert faltings_work(6976, 10000) > MAX_WORK
        code, out, err = run(capsys, "cm", "faltings", "-D", "-1000031", "--precision", "10000", "--out", str(tmp_path))
        assert code == 2 and not out
        assert "MAX_WORK" in err and str(faltings_work(928, 10000)) in err
        code, out, _ = run(capsys, "cm", "faltings", "-D", "-1000031", "--out", str(tmp_path))
        assert code == 0 and out.startswith("faltings_height(-1000031) ≈ ")

    def test_faltings_work_covers_one_form_at_the_top_precision(self):
        # one form at MAX_PRECISION digits took 1.26 s at D = -3 on a
        # 2-vCPU host when its nome came from a tau ball, above the 1112
        # units (about 1.1 s) charged for it; 1300 units or more cover it
        from heightlab.cli import MAX_PRECISION, faltings_work

        assert faltings_work(1, MAX_PRECISION) >= 1300

    def test_defaults_are_within_the_caps(self):
        from heightlab.cli import HARD_DEFAULTS, MAX_DMAX, MAX_PRECISION, build_parser

        assert HARD_DEFAULTS["precision"] <= MAX_PRECISION
        for command in ("verify-tf", "verify-decay"):
            assert build_parser().parse_args(["cm", command]).dmax <= MAX_DMAX

    def test_finiteness_zero_bound(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "cm",
            "finiteness",
            "--dmax",
            "60",
            "--cprime",
            "0",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert out.strip().startswith("0 discriminants")

    def test_finiteness_bound_just_below_ratio(self, capsys, tmp_path):
        # the ratio of D = -3 is 0.17018604770133491386..., 8.9e-20 above
        # this bound's double; the CLI's 53-bit precision must not decide
        code, out, _ = run(
            capsys, "cm", "finiteness", "--dmax", "3",
            "--cprime", "0.1701860477013349", "--out", str(tmp_path),
        )
        assert code == 0
        assert out.strip().startswith("0 discriminants with ratio <= 0.1701860477013349 ")

    def test_finiteness_rational_bound(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "cm", "finiteness", "--dmax", "4", "--cprime", "1/3",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert out.startswith("2 discriminants with ratio <= 0.3333333333333333 and |D| <= 4\n")
        report = json.loads(Path(out.strip().split(" written to ")[-1]).read_text())
        assert report["c_prime"] == 1 / 3

    @pytest.mark.parametrize("cprime", ["1e400", "1" + "0" * 400])
    def test_finiteness_bound_past_the_doubles_exits_2(self, capsys, tmp_path, cprime):
        # a bound that is no finite double cannot name its artifact
        # (cprime is written as a double): usage error, nothing written
        code, out, err = run(capsys, "cm", "finiteness", "--dmax", "20", "--cprime", cprime, "--out", str(tmp_path))
        assert code == 2 and not out and not os.listdir(tmp_path)
        assert "--cprime" in err and "not finite as a double" in err

    def test_finiteness_prints_ratio_balls(self, capsys, monkeypatch, tmp_path):
        # the printed radius is the computed ball's plus the print's move,
        # at most as much again, rounded up: not the JSON radius, which
        # adds the rounding of the midpoint to a double (8.9e-20 for
        # D = -3, against a ball of radius 1.2e-37)
        reports = _keep_reports(monkeypatch, "finiteness_demo")
        code, out, _ = run(
            capsys, "cm", "finiteness", "--dmax", "20", "--cprime", "1/2",
            "--out", str(tmp_path),
        )
        assert code == 0
        lines = out.splitlines()
        report = json.loads(Path(lines[-1].split(" written to ")[-1]).read_text())
        assert len(lines) == report["count"] + 2
        assert len(reports[0].balls) == report["count"]
        for line, q, ratio in zip(lines[1:], report["qualifying"], reports[0].balls):
            # D=-3 h=1 ratio ≈ value (radius r)
            head, ball = line.split(" ≈ ")
            value, radius = ball.removesuffix(")").split(" (radius ")
            assert head == f"  D={q['D']} h={q['class_number']} ratio"
            assert float(value) == pytest.approx(q["ratio"], rel=1e-9)
            assert ratio.radius <= float(radius) <= 2.02 * ratio.radius

    def test_verify_tf_small(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "cm",
            "verify-tf",
            "--dmax",
            "60",
            "--out",
            str(tmp_path),
            "--precision",
            "18",
        )
        assert code == 0
        assert "fitted constant" in out
        files = os.listdir(tmp_path)
        assert any(f.endswith(".json") for f in files)
        assert any(f.endswith(".dat") for f in files)

    def test_verify_decay_prints_envelope_radii(self, capsys, monkeypatch, tmp_path):
        # as for finiteness: the computed envelope's radius, not the JSON's
        reports = _keep_reports(monkeypatch, "verify_decay")
        code, out, _ = run(
            capsys, "cm", "verify-decay", "--dmax", "400", "--precision", "18",
            "--out", str(tmp_path),
        )
        assert code == 0
        lines = out.splitlines()
        report = json.loads(Path(lines[-1].split(" written to ")[-1]).read_text())
        checkpoints = report["checkpoints"]
        assert len(lines) == len(checkpoints) + 2
        assert len(reports[0].balls) == len(checkpoints)
        for line, c, envelope in zip(lines, checkpoints, reports[0].balls):
            # env(|D| >= X) ≈ value (radius r)
            head, ball = line.split(" ≈ ")
            value, radius = ball.removesuffix(")").split(" (radius ")
            assert head == f"env(|D| >= {c['X_effective']})"
            assert float(value) == pytest.approx(c["envelope"], rel=1e-9)
            assert 0 < envelope.radius <= float(radius) <= 2.02 * envelope.radius


def _printed_disc(line: str):
    """(real, imaginary, radius) of the disc '≈ value (radius r)' ends a
    line with, as exact rationals.  Each decimal is read through Decimal,
    as Fraction(str) refuses more than 4300 digits."""
    value, radius = line.split("≈ ", 1)[1].removesuffix(")").split(" (radius ")
    exact = lambda text: Fraction(Decimal(text))
    if value.startswith("("):
        re, sign, im = value[1:-2].split(" ")
        return exact(re), exact(im) * (1 if sign == "+" else -1), exact(radius)
    return exact(value), Fraction(0), exact(radius)


@pytest.mark.parametrize(
    "argv",
    [
        ["height", "rad: 2 ^ 1/2", "--gamma=-1/3"],
        ["height", "alg: x^3 - x - 1", "--gamma=-2/3"],
        ["height", "alg: x^2 - 2", "--gamma=-1", "--precision", "100"],
        ["cm", "faltings", "-D", "-4"],
        ["cm", "faltings", "-D", "-23", "--offset", "1/3"],
        # past the 4300 digits Python reads into an int at once
        ["cm", "faltings", "-D", "-4", "--precision", "5000"],
        ["cm", "theta", "-D", "-4"],
        ["cm", "theta", "-D", "-71", "--precision", "16"],
        ["cm", "theta", "-D", "-3", "--precision", "4400"],
        ["cm", "verify-tf", "--dmax", "60", "--precision", "18"],
        ["cm", "verify-decay", "--dmax", "400", "--precision", "18"],
        ["cm", "finiteness", "--dmax", "20", "--cprime", "1/2"],
        ["lemma-check", "--coords", "1,2^1/2,3^1/3", "--gamma=-1/2"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_printed_balls_enclose_the_computed_balls(capsys, monkeypatch, tmp_path, argv):
    # |printed - value| + radius <= printed radius, exactly; printing
    # moves the value by at most the radius or, where the digits of its
    # mantissa do not reach the radius, by at most its last binary place
    from heightlab import cli

    balls, text = [], cli._ball_text
    monkeypatch.setattr(cli, "_ball_text", lambda ball: balls.append(ball) or text(ball))
    code, out, _ = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 0
    lines = [line for line in out.splitlines() if "(radius " in line]
    assert balls and len(lines) == len(balls)
    for line, ball in zip(lines, balls):
        re, im, printed = _printed_disc(line)
        v = ball.value
        dr = re - Fraction(*to_rational(mp.re(v)._mpf_))
        di = im - Fraction(*to_rational(mp.im(v)._mpf_))
        r = Fraction(*to_rational(ball.radius._mpf_))
        assert printed >= r and dr * dr + di * di <= (printed - r) ** 2, line
        parts = v._mpc_ if hasattr(v, "_mpc_") else (v._mpf_,)
        ulp = max((Fraction(2) ** t[2] for t in parts if t[1]), default=0)
        assert printed <= (r + max(r, ulp)) * Fraction(101, 100), line


def _round_up_3_exact(num: int, a: int, b: int) -> str:
    """The least 3-digit decimal at or above num / (2**a 10**b) from the
    exact integer quotient alone."""
    e = (num.bit_length() - a - b * 3321929 // 1000000 - 1) * 30103 // 100000 - 4
    c = b + e
    m = -(-num // (10**c << a)) if c >= 0 else -(-num * 10**-c >> a)
    while m > 1000:
        m, e = -(-m // 10), e + 1
    with workdps(15):
        return mp.nstr(m * mp.mpf(10) ** e, 3)


def test_round_up_3_agrees_with_the_exact_quotient():
    # radii from 1e-215727 to 1e300, as dyadics over powers of ten, and
    # ones at or next to a 3-digit decimal, where the 64-bit bracket
    # straddles and the exact quotient decides
    from heightlab.cli import _round_up_3

    rng = random.Random(2302)
    cases = [(0, 0, 0), (1, 716626, 0), (12345 << 40, 716626, 0), (3, 0, 215727), (10**300, 0, 0), (1000, 0, 0), (1001, 0, 0)]
    for _ in range(600):
        a, b = rng.choice((0, rng.randint(0, 4000), rng.randint(700000, 717000))), rng.randint(0, 600)
        num = rng.getrandbits(rng.randint(1, 3000))
        if rng.random() < 0.4:
            num = max((rng.randint(1, 1000) * 10 ** rng.randint(0, 300) << a) * 10**b + rng.randint(-1, 1), 0)
        cases.append((num, a, b))
    for num, a, b in cases:
        assert _round_up_3(num, a, b) == _round_up_3_exact(num, a, b), (num, a, b)


class TestArtifacts:
    # <experiment>-<hash12>.<ext> for fixed parameters; the hashes cover
    # the parameter sets, so a change here renames users' files
    NAMES = [
        "cm-finiteness-bb0a2af7b03c.json",
        "cm-scan-3f686b773fcb.csv",
        "cm-scan-fe2a49b5bb42.json",
        "cm-verify-decay-abedf9541246.dat",
        "cm-verify-decay-abedf9541246.json",
        "cm-verify-tf-0501a5ee5d44.dat",
        "cm-verify-tf-0501a5ee5d44.json",
        "tower-certify-d324309b4f60.json",
        "tower-gen-b53447ace9ce.json",
    ]

    @staticmethod
    def write_all(capsys, out):
        out = str(out)
        code, text, _ = run(capsys, "tower", "gen", "--degrees", "2,2", "--C", "1/2", "--out", out)
        assert code == 0
        spec = text.strip().split("spec written to ")[-1]
        commands = [
            ["tower", "certify", spec, "--monomials", "40"],
            ["cm", "scan", "--dmax", "40"],
            ["cm", "scan", "--dmax", "30", "--format", "json"],
            ["cm", "verify-tf", "--dmax", "60", "--precision", "18"],
            ["cm", "verify-decay", "--dmax", "400", "--precision", "18"],
            ["cm", "finiteness", "--dmax", "60", "--cprime", "0.05"],
        ]
        for argv in commands:
            code, text, _ = run(capsys, *argv, "--out", out)
            assert code == 0, argv
            written = text.strip().split(" written to ")[-1]
            assert os.path.dirname(written) == out
        return {name: (Path(out) / name).read_bytes() for name in sorted(os.listdir(out))}

    def test_names_pinned_and_rerun_identical(self, capsys, tmp_path):
        first = self.write_all(capsys, tmp_path / "a")
        assert list(first) == self.NAMES
        assert self.write_all(capsys, tmp_path / "b") == first


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("precision = 20\nformat = json  # comment\n")
        code, out, _ = run(
            capsys,
            "cm",
            "scan",
            "--dmax",
            "20",
            "--config",
            str(cfg),
            "--out",
            str(tmp_path),
        )
        assert code == 0
        path = out.strip().split(" written to ")[-1]
        assert path.endswith(".json")

    def test_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("format = json\n")
        code, out, _ = run(
            capsys,
            "cm",
            "scan",
            "--dmax",
            "20",
            "--config",
            str(cfg),
            "--format",
            "csv",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        assert out.strip().split(" written to ")[-1].endswith(".csv")

    def test_unknown_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("colour = blue\n")
        code, _, err = run(
            capsys, "cm", "scan", "--dmax", "20", "--config", str(cfg)
        )
        assert code == 2
        assert "unknown config key" in err

    def test_config_precision_validated(self, capsys, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("precision = 4\n")
        code, _, err = run(
            capsys, "cm", "scan", "--dmax", "20", "--config", str(cfg)
        )
        assert code == 2

    def test_missing_config_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "cm", "scan", "--dmax", "20",
            "--config", str(tmp_path / "nope.cfg"),
        )
        assert code == 2
