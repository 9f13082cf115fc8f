import json
import os
from pathlib import Path

import pytest

from heightlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert out.strip() == "≈ 0.2750756409"

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
        assert abs(float(out.split("≈")[1])) < 1e-30

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
