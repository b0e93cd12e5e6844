import csv
import io
import json
import math

import pytest

from lsv_shortmat import cli, heston_rate, rate_solver
from lsv_shortmat.cli import main
from lsv_shortmat.model import model_from_dict
from lsv_shortmat.rate_solver import sabr_rate_closed

TABLE_MODEL = {
    "s0": 1.0, "v0": 0.1, "rho": 0.0, "r": 0.0, "q": 0.0,
    "local_vol": {"kind": "tanh", "f0": 1.0, "f1": -0.5, "x0": 0.0},
    "vol_of_vol": {"kind": "lognormal", "sigma": 2.0, "drift": {"kind": "zero"}},
}


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(TABLE_MODEL))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestTable1:
    def test_header_and_shape(self, capsys):
        code, out, err = run_cli(["table1"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["rho", "sigma_e_atm", "s_e", "kappa_e", "sigma_vix_atm", "s_vix", "kappa_vix"]
        assert [r[0] for r in rows] == ["-0.7", "0", "0.7"]

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run_cli(["table1"], capsys)
        _, out2, _ = run_cli(["table1"], capsys)
        assert out1 == out2

    def test_european_columns_match_reference_table(self, capsys):
        _, out, _ = run_cli(["table1"], capsys)
        _, rows = parse_csv(out)
        got = [(r[1], r[2], r[3]) for r in rows]
        assert got == [("0.316", "-0.429", "0.133"),
                       ("0.316", "-0.079", "0.520"),
                       ("0.316", "0.271", "0.133")]

    def test_vix_level_and_skew_match_reference_table(self, capsys):
        _, out, _ = run_cli(["table1"], capsys)
        _, rows = parse_csv(out)
        got = [(r[4], r[5]) for r in rows]
        assert got == [("1.116", "0.054"), ("1.012", "0.012"), ("0.896", "-0.053")]

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "t1.csv"
        code, out, _ = run_cli(["table1", "--out", str(out_path)], capsys)
        assert code == 0 and out == ""
        assert out_path.read_text().startswith("rho,")


class TestSmile:
    def test_atm_matches_expansion(self, model_file, capsys):
        code, out, err = run_cli(
            ["smile", "--model", model_file, "--product", "european",
             "--kmin", "-0.1", "--kmax", "0.1", "--kcount", "5"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["strike", "log_moneyness", "iv_expansion", "iv_rate"]
        assert len(rows) == 5
        mid = rows[2]
        assert float(mid[1]) == pytest.approx(0.0, abs=1e-12)
        assert float(mid[2]) == pytest.approx(0.3162278, abs=1e-6)
        assert float(mid[3]) == pytest.approx(0.3162278, abs=1e-6)

    def test_vix_expansion_column(self, tmp_path, capsys):
        cfg = dict(TABLE_MODEL)
        cfg["rho"] = 0.7
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(
            ["smile", "--model", str(path), "--product", "vix",
             "--kmin", "-0.2", "--kmax", "0.2", "--kcount", "3"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[1][2]) == pytest.approx(0.8965, abs=5e-4)

    @pytest.mark.parametrize("k", [1e-6, 4.7e-6, 1e-5, 9e-5])
    def test_near_money_rate_column_matches_sabr_closed_form(self, k, tmp_path, capsys):
        # |k| / sqrt(2 J) from a solved J ~ k^2 is off by up to 1e-5 here;
        # the column switches to the expansion below |k| = 1e-4
        cfg = dict(TABLE_MODEL, rho=-0.7, local_vol={"kind": "constant"})
        path = tmp_path / "sabr.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(["smile", "--model", str(path), f"--kmin={-k!r}", f"--kmax={k!r}",
                                "--kcount", "2"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        model = model_from_dict(cfg)
        for row in rows:
            log_m = float(row[1])
            closed = abs(log_m) / math.sqrt(2.0 * sabr_rate_closed(model, math.exp(log_m)))
            assert float(row[3]) == pytest.approx(closed, abs=1e-8)

    def test_near_money_vix_rate_column(self, tmp_path, capsys):
        cfg = dict(TABLE_MODEL, rho=-0.7)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(["smile", "--model", str(path), "--product", "vix",
                                "--kmin=-1.2e-6", "--kmax=1.2e-6", "--kcount", "2"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert float(row[3]) == pytest.approx(float(row[2]), abs=1e-6)

    def test_effective_config_echoed(self, model_file, capsys):
        _, _, err = run_cli(["smile", "--model", model_file, "--kcount", "3"], capsys)
        echoed = json.loads(err.strip().split("\n")[0])
        assert echoed["effective_config"]["model"]["s0"] == 1.0

    def test_invalid_grid_fails(self, model_file, capsys):
        with pytest.raises(SystemExit):
            main(["smile", "--model", model_file, "--kmin", "0.3", "--kmax", "-0.3"])

    def test_empty_grid_fails(self, model_file, capsys):
        with pytest.raises(SystemExit):
            main(["smile", "--model", model_file, "--kcount", "0"])

    def test_missing_model_file(self, capsys):
        code, _, err = run_cli(["smile", "--model", "/nonexistent.json"], capsys)
        assert code == 1
        assert "error" in err


class TestMalformedModelFile:
    @pytest.mark.parametrize("body, key", [
        ({k: v for k, v in TABLE_MODEL.items() if k != "s0"}, "missing key s0"),
        ([TABLE_MODEL], "model must be a JSON object"),
        (dict(TABLE_MODEL, local_vol={"kind": "tanh", "f1": -0.5}), "missing key local_vol.f0"),
        (dict(TABLE_MODEL, local_vol=dict(TABLE_MODEL["local_vol"], x_0=0.3)), "unknown key local_vol.x_0"),
        (dict(TABLE_MODEL, vol_of_vol={"kind": "lognormal", "sigma": 2.0, "drift": {"mu": 0.5}}),
         "vol_of_vol.drift.kind must be one of"),
    ])
    def test_one_error_line(self, body, key, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(body))
        code, out, err = run_cli(["smile", "--model", str(path), "--kcount", "3"], capsys)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and key in lines[0], err


class TestRate:
    def test_rate_columns(self, model_file, capsys):
        code, out, _ = run_cli(
            ["rate", "--model", model_file, "--kmin", "-0.2", "--kmax", "0.2", "--kcount", "5"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["strike", "log_moneyness", "rate", "minimizer_y", "minimizer_z",
                          "iterations", "converged"]
        ks = [float(r[1]) for r in rows]
        rates = [float(r[2]) for r in rows]
        assert rates[2] == pytest.approx(0.0, abs=1e-9)  # ATM
        assert rates[0] > 0 and rates[-1] > 0
        assert all(r[6] == "true" for r in rows)


class TestUncertifiedSolves:
    """iv_rate prints nan where the rate solve does not certify a minimum."""

    def test_smile_square_root(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "sqrt.json"
        path.write_text(json.dumps(dict(TABLE_MODEL, vol_of_vol={"kind": "square_root", "sigma": 1.0})))
        # no Legendre transform is then certified, so no rate solve is
        monkeypatch.setattr(heston_rate, "_GRAD_TOL", 0.0)
        _, out, _ = run_cli(["smile", "--model", str(path), "--kcount", "5"], capsys)
        _, rows = parse_csv(out)
        assert [r[3] for r in rows] == ["nan", "nan", rows[2][2], "nan", "nan"]  # ATM: the expansion

    def test_compare_stopped_solves(self, model_file, capsys, monkeypatch):
        # stopped after one evaluation, a solve leaves a finite, plausible rate
        monkeypatch.setattr(rate_solver, "_MAX_EVALS", 1)
        _, out, _ = run_cli(["rate", "--model", model_file, "--kcount", "3"], capsys)
        _, rows = parse_csv(out)
        assert [r[6] for r in rows] == ["false", "true", "false"]
        assert all(math.isfinite(float(r[2])) for r in rows)
        _, out, _ = run_cli(["compare", "--model", model_file, "--paths", "4096", "--steps", "5",
                             "--kmin", "-0.1", "--kmax", "0.1", "--kcount", "2"], capsys)
        _, rows = parse_csv(out)
        assert [r[3] for r in rows] == ["nan", "nan"]
        assert all(math.isfinite(float(r[4])) for r in rows)


class TestMcAndCompare:
    ARGS = ["--paths", "20000", "--steps", "40", "--seed", "7",
            "--kmin", "-0.1", "--kmax", "0.1", "--kcount", "5"]

    def test_mc_csv(self, model_file, capsys):
        code, out, _ = run_cli(["mc", "--model", model_file, "--product", "european"] + self.ARGS, capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["strike", "log_moneyness", "price", "std_error", "implied_vol", "iv_low", "iv_high"]
        assert len(rows) == 5
        ivs = [float(r[4]) for r in rows]
        assert all(0.2 < iv < 0.5 for iv in ivs)

    def test_mc_omits_skipped_strikes(self, model_file, capsys):
        # e^1.6 lies beyond the 99% sample quantile: compare keeps its row
        # with nan MC columns, mc leaves it out
        args = ["--model", model_file, "--paths", "20000", "--steps", "40", "--seed", "7",
                "--kmin", "-0.05", "--kmax", "1.6", "--kcount", "2"]
        _, mc_rows = parse_csv(run_cli(["mc"] + args, capsys)[1])
        _, compared = parse_csv(run_cli(["compare"] + args, capsys)[1])
        assert [r[0] for r in mc_rows] == [compared[0][0]]
        assert compared[1][4] == "nan"

    def test_seed_changes_mc_only(self, model_file, capsys):
        args = ["compare", "--model", model_file, "--product", "european",
                "--paths", "5000", "--steps", "20",
                "--kmin", "-0.1", "--kmax", "0.1", "--kcount", "3"]
        _, out1, _ = run_cli(args + ["--seed", "1"], capsys)
        _, out2, _ = run_cli(args + ["--seed", "2"], capsys)
        _, rows1 = parse_csv(out1)
        _, rows2 = parse_csv(out2)
        for r1, r2 in zip(rows1, rows2):
            assert r1[:4] == r2[:4]  # strike, k, expansion, rate identical
            assert r1[4] != r2[4]  # MC columns move with the seed

    def test_compare_z_scores_finite(self, model_file, capsys):
        code, out, _ = run_cli(["compare", "--model", model_file, "--product", "european"] + self.ARGS, capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-2:] == ["diff", "z_score"]
        zs = [float(r[-1]) for r in rows]
        assert all(math.isfinite(z) for z in zs)

    def test_deterministic_output(self, model_file, capsys):
        args = ["mc", "--model", model_file] + self.ARGS
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    @pytest.mark.parametrize("command", ["mc", "compare"])
    @pytest.mark.parametrize("half", [["--kmin", "-0.05"], ["--kmax=-0.05"]])
    def test_half_given_range_is_a_usage_error(self, command, half, model_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", model_file, "--kcount", "3"] + half)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--kmin and --kmax must be given together" in err and "effective_config" not in err

    @pytest.mark.parametrize("command", ["smile", "rate", "mc", "compare"])
    @pytest.mark.parametrize("bad, message", [
        (["--kcount", "0"], "--kcount must be at least 1"),
        (["--kmin", "0.3", "--kmax=-0.3"], "--kmin must be below --kmax"),
        (["--kmin", "0.1", "--kmax", "0.1"], "--kmin must be below --kmax"),
        # a nan end passes every order comparison, and an infinite end
        # puts an infinite or nan strike on the grid
        *[(["--kmin=" + end, "--kmax", "0.3"], "--kmin and --kmax must be finite")
          for end in ("nan", "inf", "-inf")],
        *[(["--kmin", "-0.3", "--kmax=" + end], "--kmin and --kmax must be finite")
          for end in ("nan", "inf", "-inf")],
    ])
    def test_bad_strike_grid_is_a_usage_error(self, command, bad, message, model_file, capsys, monkeypatch):
        # rejected before the model is read, the config echoed or a path simulated
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before the strike grid was checked")

        monkeypatch.setattr(cli, "simulate_paths", must_not_run)
        monkeypatch.setattr(cli, "load_model", must_not_run)
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", model_file] + bad)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "effective_config" not in err

    @pytest.mark.parametrize("command", ["mc", "compare"])
    @pytest.mark.parametrize("maturity", ["nan", "inf", "0"])
    def test_bad_maturity_fails_loudly(self, command, maturity, model_file, capsys):
        code, out, err = run_cli([command, "--model", model_file, "--paths", "2000", "--steps", "5",
                                  "--kcount", "3", "--maturity=" + maturity], capsys)
        assert code == 1 and out == ""
        assert "error: maturity must be positive and finite" in err

    def test_fixed_range_default_does_not_leak(self, model_file, capsys):
        # smile and rate default to |k| <= 0.3; mc and compare, built from
        # the same parents, must still default to the quantile grid
        run_cli(["smile", "--model", model_file, "--kcount", "3"], capsys)
        for command in ("mc", "compare"):
            _, _, err = run_cli([command, "--model", model_file, "--paths", "2000", "--steps", "5",
                                 "--kcount", "3"], capsys)
            echoed = json.loads(err.splitlines()[0])["effective_config"]
            assert echoed["kmin"] is None and echoed["kmax"] is None
        _, _, err = run_cli(["rate", "--model", model_file, "--kcount", "3"], capsys)
        echoed = json.loads(err.splitlines()[0])["effective_config"]
        assert (echoed["kmin"], echoed["kmax"]) == (-0.3, 0.3)

    @pytest.mark.parametrize("seed", [4, 5, 8])
    def test_quantile_grid_keeps_end_strikes(self, seed, tmp_path, capsys):
        # on these seeds exp(log(q)) lands an ulp outside the quantile range
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dict(TABLE_MODEL, rho=-0.7)))
        code, out, _ = run_cli(["mc", "--model", str(path), "--product", "vix",
                                "--paths", "16384", "--steps", "20", "--seed", str(seed)], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 21

    def test_quantile_grid_when_unspecified(self, model_file, capsys):
        code, out, _ = run_cli(["mc", "--model", model_file, "--paths", "5000",
                                "--steps", "20", "--seed", "3", "--kcount", "7"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 7
