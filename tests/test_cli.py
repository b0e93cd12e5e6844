import csv
import hashlib
import io
import json
import math
from pathlib import Path

import pytest

from lsv_shortmat import cli, heston_rate, rate_solver
from lsv_shortmat.cli import main
from lsv_shortmat.model import load_model, model_from_dict
from lsv_shortmat.rate_solver import rate_to_impvol, sabr_rate_closed
from lsv_shortmat.smile import SmileExpansion

TABLE_MODEL = {
    "s0": 1.0, "v0": 0.1, "rho": 0.0, "r": 0.0, "q": 0.0,
    "local_vol": {"kind": "tanh", "f0": 1.0, "f1": -0.5, "x0": 0.0},
    "vol_of_vol": {"kind": "lognormal", "sigma": 2.0, "drift": {"kind": "zero"}},
}

MODELS_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "models"


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
        # the column is |k| / sqrt(2 J) from the solve at every k != 0, with
        # J ~ k^2 to its relative precision (TestNearMoneyRateColumn)
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

    @pytest.mark.parametrize("product", ["european", "vix"])
    def test_far_centred_tanh(self, product, tmp_path, capsys):
        # cosh(400)^2 overflows a float; eta is flat at f0 - f1 near the money
        cfg = dict(TABLE_MODEL, local_vol={"kind": "tanh", "f0": 1.0, "f1": -0.5, "x0": 400.0})
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(["smile", "--model", str(path), "--product", product, "--kcount", "5"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 5 and all(math.isfinite(float(v)) for row in rows for v in row), rows

    def test_even_taylor_vix_rate_column(self, tmp_path, capsys):
        # eta = 1 + 0.1 k^2 is equal at both ends of the +-50 window but not
        # constant; the rate column follows the expansion near the money
        cfg = dict(TABLE_MODEL, v0=0.04, rho=-0.5, local_vol={"kind": "taylor_log", "eta0": 1.0, "eta2": 0.1},
                   vol_of_vol={"kind": "lognormal", "sigma": 1.0})
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(["smile", "--model", str(path), "--product", "vix",
                                "--kmin=-0.2", "--kmax=0.2", "--kcount", "5"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert float(row[3]) == pytest.approx(float(row[2]), abs=5e-5), row

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
        # written as the json literals NaN and Infinity
        (dict(TABLE_MODEL, rho=math.nan), "rho must be finite"),
        (dict(TABLE_MODEL, v0=math.inf), "v0 must be finite"),
        # the json literal true and a numeric string are no numbers
        (dict(TABLE_MODEL, s0=True), "s0 must be a number"),
        (dict(TABLE_MODEL, local_vol=dict(TABLE_MODEL["local_vol"], x0="0.25")), "local_vol.x0 must be a number"),
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


class TestNearMoneyRateColumn:
    """Every k != 0 prints the solve, never the expansion, and the solve
    keeps J ~ k^2 to its relative precision: for 1e-8 <= |k| <= 1e-5 its vol
    |k| / sqrt(2 J) meets the quadratic expansion, whose O(k^3) truncation
    is below 1e-12 there.  The square-root VIX expansion lacks the smile's
    k^2 term (about 0.19 k^2 on these models), so there the bound is
    0.25 k^2 + 1e-12."""

    KS = [sign * a for a in (1e-8, 1e-7, 1e-6, 1e-5) for sign in (-1.0, 1.0)]

    @pytest.mark.parametrize("product", ["european", "vix"])
    @pytest.mark.parametrize("name", sorted(p.stem for p in MODELS_DIR.glob("*.json")))
    def test_solve_meets_the_expansion(self, name, product):
        model = load_model(str(MODELS_DIR / f"{name}.json"))
        expansion = cli._expansion_for(model, product)
        reference = cli._reference_level(model, product)
        square_root_vix = product == "vix" and type(model.vol_of_vol).__name__ == "SquareRootVolOfVol"
        for k in self.KS:
            strike = reference * math.exp(k)
            log_m = math.log(strike / reference)
            pt = cli._rate_point(model, product, strike)
            assert pt.converged, k
            vol = rate_to_impvol(pt.rate, log_m)
            tol = 1e-12 + (0.25 * log_m * log_m if square_root_vix else 0.0)
            assert abs(vol - expansion.evaluate(log_m)) <= tol, (k, vol, expansion.evaluate(log_m))
            assert cli._iv_rate_column(model, product, expansion, strike, log_m) == vol

    def test_strikes_rounding_to_the_money(self, model_file, capsys):
        # exp(+-1e-200) is 1.0: every row is at the money and prints the ATM level
        code, out, _ = run_cli(["smile", "--model", model_file, "--kmin=-1e-200", "--kmax=1e-200",
                                "--kcount", "3"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[1] for r in rows] == ["0"] * 3 and all(r[3] == r[2] for r in rows)

    @pytest.mark.parametrize("rate", [0.0, 1e-310, -1e-20, math.nan])
    def test_rate_that_is_no_positive_normal_float(self, rate, model_file, capsys, monkeypatch):
        # |k| / sqrt(2 J) needs a positive normal J: anything else prints nan
        def solve(model, strike):
            return rate_solver.RatePoint(strike, rate, 0.0, 0.1, 1, True)

        monkeypatch.setattr(cli, "european_rate", solve)
        code, out, _ = run_cli(["smile", "--model", model_file, "--kcount", "3"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[3] for r in rows] == ["nan", rows[1][2], "nan"]


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

    @pytest.mark.parametrize("product", ["european", "vix"])
    def test_full_correlation(self, product, tmp_path, capsys):
        # at |rho| = 1 the rate objective divides by 1 - rho^2, so no solve
        # off the money is certified; compare keeps its Monte Carlo columns
        path = tmp_path / "rho1.json"
        path.write_text(json.dumps(dict(TABLE_MODEL, rho=1.0)))
        args = ["--model", str(path), "--product", product, "--kmin=-0.1", "--kmax", "0.1", "--kcount", "3"]
        code, out, _ = run_cli(["smile"] + args, capsys)
        _, rows = parse_csv(out)
        assert code == 0
        assert [r[3] for r in rows] == ["nan", rows[1][2], "nan"]  # ATM: the expansion
        code, out, _ = run_cli(["rate"] + args, capsys)
        _, rows = parse_csv(out)
        assert code == 0
        assert [(r[2], r[6]) for r in rows] == [("nan", "false"), ("0", "true"), ("nan", "false")]
        code, out, _ = run_cli(["compare", "--paths", "4096", "--steps", "10"] + args, capsys)
        _, rows = parse_csv(out)
        assert code == 0
        assert [r[3] for r in rows] == ["nan", rows[1][2], "nan"]
        assert all(math.isfinite(float(x)) for r in rows for x in r[4:])

    @pytest.mark.parametrize("rho, f1", [(1.0, -0.5), (-1.0, 0.5)])
    def test_vanishing_vix_level(self, rho, f1, tmp_path, capsys):
        # sigma = 2 |eta1| sqrt(V0) at |rho| = 1: the ATM VIX level is 0 and
        # the expansion has no skew, so its column is nan
        path = tmp_path / "flat_vix.json"
        path.write_text(json.dumps(dict(TABLE_MODEL, v0=1.0, rho=rho,
                                        local_vol={"kind": "tanh", "f0": 1.0, "f1": f1, "x0": 0.0},
                                        vol_of_vol={"kind": "lognormal", "sigma": 1.0})))
        args = ["--model", str(path), "--product", "vix", "--kcount", "3"]
        code, out, _ = run_cli(["smile"] + args, capsys)
        _, rows = parse_csv(out)
        assert code == 0
        assert [r[2] for r in rows] == ["nan"] * 3
        code, out, _ = run_cli(["compare", "--paths", "4096", "--steps", "10"] + args, capsys)
        _, rows = parse_csv(out)
        assert code == 0 and len(rows) == 3
        assert [r[2] for r in rows] == ["nan"] * 3
        assert all(math.isfinite(float(x)) for r in rows for x in r[4:6])


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
        # exp(k) overflows beyond +-709.78: such a range printed an inf
        # strike row or failed inside the solver
        (["--kmin", "700", "--kmax", "710"], "--kmin and --kmax must lie within +-709.78"),
        (["--kmin=-800", "--kmax=-700"], "--kmin and --kmax must lie within +-709.78"),
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
    @pytest.mark.parametrize("paths", ["2", "3", "5"])
    def test_paths_must_make_two_pairs(self, command, paths, model_file, capsys, monkeypatch):
        # --paths counts simulated paths, drawn as pairs: an odd count has no
        # pairing, and one pair gives no standard error
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before the path count was checked")

        monkeypatch.setattr(cli, "simulate_paths", must_not_run)
        monkeypatch.setattr(cli, "load_model", must_not_run)
        with pytest.raises(SystemExit) as exc:
            main([command, "--model", model_file, "--paths", paths, "--kcount", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--paths must be an even count of at least 4" in err and "effective_config" not in err

    def test_paths_are_antithetic_pairs(self, model_file, capsys):
        from lsv_shortmat.mc_engine import McConfig, simulate_paths, smile_from_mc

        code, out, err = run_cli(["mc", "--model", model_file, "--paths", "4096", "--steps", "5", "--seed", "3",
                                  "--kmin=-0.05", "--kmax", "0.05", "--kcount", "3"], capsys)
        assert code == 0
        echoed = json.loads(err.splitlines()[0])["effective_config"]
        assert (echoed["paths"], echoed["pairs"], echoed["antithetic"]) == (4096, 2048, True)
        samples = simulate_paths(model_from_dict(TABLE_MODEL), McConfig(2048, 5, 1.0 / 12.0, 3, antithetic=True))
        points = smile_from_mc(samples, [math.exp(k) for k in (-0.05, 0.0, 0.05)], "european")
        _, rows = parse_csv(out)
        assert [r[3:] for r in rows] == [[f"{x:.10g}" for x in (p.std_error, p.implied_vol, p.iv_low, p.iv_high)]
                                         for p in points]
        # two pairs are the fewest that give a band
        code, out, _ = run_cli(["mc", "--model", model_file, "--paths", "4", "--steps", "1",
                                "--kmin=-0.01", "--kmax", "0.01", "--kcount", "2"], capsys)
        assert code == 0

    @pytest.mark.parametrize("command", ["smile", "rate", "mc"])
    def test_strike_past_the_floats_fails_loudly(self, command, tmp_path, capsys):
        # each |k| is in range, but s0 e^k overflows
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dict(TABLE_MODEL, s0=1e300)))
        size = ["--paths", "2000", "--steps", "5"] if command == "mc" else []
        code, out, err = run_cli([command, "--model", str(path), "--kmin", "600", "--kmax", "700",
                                  "--kcount", "2"] + size, capsys)
        assert code == 1 and out == ""
        assert "leaves the finite positive floats" in err

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


class TestEuropeanRowsQuoteOnSpot:
    """With r != q the carry forward S0 e^{(r-q)T} is not S0, yet European
    rows of mc and compare quote log(K/S0), as smile and the rate solver do."""

    ARGS = ["--kmin=-0.05", "--kmax", "0.05", "--kcount", "11"]
    MC_ARGS = ["--paths", "20000", "--steps", "50"]

    @pytest.fixture
    def carry_file(self, tmp_path):
        cfg = json.loads((MODELS_DIR / "tanh_lognormal_rho_m07.json").read_text())
        cfg["r"] = 0.05
        path = tmp_path / "carry.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_compare_rate_column_is_the_smile_one(self, carry_file, capsys):
        _, smiled = parse_csv(run_cli(["smile", "--model", carry_file] + self.ARGS, capsys)[1])
        _, compared = parse_csv(run_cli(["compare", "--model", carry_file] + self.MC_ARGS + self.ARGS, capsys)[1])
        # strike, log_moneyness, iv_expansion and iv_rate
        assert [row[:4] for row in compared] == [row[:4] for row in smiled]
        assert all(math.isfinite(float(row[3])) for row in compared)

    def test_mc_prints_the_requested_grid(self, carry_file, capsys):
        _, rows = parse_csv(run_cli(["mc", "--model", carry_file] + self.MC_ARGS + self.ARGS, capsys)[1])
        grid = cli._log_moneyness_grid(-0.05, 0.05, 11)
        assert len(rows) == len(grid)
        assert all(abs(float(row[1]) - k) <= 1e-15 for row, k in zip(rows, grid))


def test_log_moneyness_grid_is_numpy_linspace():
    # the CLI spaces strikes without numpy; its grid must be linspace's, bit for bit
    np = pytest.importorskip("numpy")
    rng = np.random.default_rng(7)
    cases = [(-0.3, 0.3, 21), (-0.3, 0.3, 1), (-0.3, 0.3, 2), (-0.0, 0.3, 1), (0.0, 5e-324, 3),
             (-5e-324, 5e-324, 7), (1.0, 1.0 + 2.0**-52, 9), (-709.0, 709.0, 40)]
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-320.0, 2.8)
        lo, hi = sorted(rng.uniform(-scale, scale, 2))
        cases.append((float(lo), float(hi) if hi > lo else float(np.nextafter(lo, np.inf)), int(rng.integers(1, 60))))
    for kmin, kmax, count in cases:
        grid = cli._log_moneyness_grid(kmin, kmax, count)
        assert np.array(grid).tobytes() == np.linspace(kmin, kmax, count).tobytes(), (kmin, kmax, count)


# SHA-256 of the CSV each command writes, captured at 58931d9, while the
# records were dataclasses and the CSV went through the csv module: the
# plain records and the joined rows leave every byte as it was.  The rate
# rows were captured again when the objective went to deviation form, which
# moved their iteration counts and minimiser digits
PINNED_OUTPUT = {
    ("table1",): "2ded60806c256f7892a45116ea6bbea93c9239422387adbb0156571033398acd",
    ("smile", "tanh_lognormal_rho_m07", "european"): "00aef919bc0f8e2ceaa27b7c1be7629ac5d815b2b712148c856a98f98ba4858e",
    ("smile", "tanh_lognormal_rho_m07", "vix"): "cbc700c557b8b4aad80f578ca538a55e9645bb8073363bb4fc93a48cd354da7c",
    ("rate", "tanh_lognormal_rho_m07", "european"): "e35e6b7d054fdd27928269c16d86e46938e60cbd161636feda26121d53719756",
    ("rate", "tanh_lognormal_rho_m07", "vix"): "256c669816b221911df66522d7c25417153585a550825732d4c16b8d45dbbfff",
    ("smile", "tanh_sqrt_rho_m07", "european"): "cacb71af26ebd6ff1ce82b1315fa455a57fc95ec1212e0d6994b98488e29ff00",
    ("smile", "tanh_sqrt_rho_m07", "vix"): "be6a01e0d456a2a2df76fa508bcbf7eaba528bf2dd5a31aadc5f158765fe641d",
    ("rate", "tanh_sqrt_rho_m07", "european"): "501fb28783a7d88a3b11b3d05c1a6e84157ed26324dff9ca6d53bb5d194947e1",
    ("rate", "tanh_sqrt_rho_m07", "vix"): "5f05c64796e37671b61c1433df5e3aafe3574835cad9acdf23a3b99886e46268",
    ("smile", "constant_lognormal_rho_m07", "european"): "9c62dd2fdc84985d281af2570783c15c1107cbc384dc65f6cb68205284c6389e",
    ("smile", "constant_lognormal_rho_m07", "vix"): "3e9d22ceb61896316e226095b127d29d9285788cf7b7e7d518f29785eb4a2313",
    ("rate", "constant_lognormal_rho_m07", "european"): "96a5b27d9316a557e965316355c08db4e605d8c14c3b1e025f601d3bb0daf382",
    ("rate", "constant_lognormal_rho_m07", "vix"): "0244673fd13ad1f6136e6cbf7391ac9e9ac1443b9819fe9b9dbf27852b6ab004",
}


@pytest.mark.parametrize("run", sorted(PINNED_OUTPUT))
def test_output_bytes_pinned(run, capsys):
    command, *model = run
    argv = [command]
    if model:
        argv += ["--model", str(MODELS_DIR / f"{model[0]}.json"), "--product", model[1], "--kcount", "25"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OUTPUT[run]


# SHA-256 of `smile --product vix` on a wide and a near-money grid, captured
# at 7f50b7e, before the ATM VIX level became one sum of squares.  The
# near-money grids of the tanh models were captured again when the rate
# column became the solve at every k != 0: rows below |k| = 1e-4 print the
# solve instead of the expansion, and the solves at 1e-4 <= |k| <= 1e-3
# moved from about 1e-8 off the expansion onto it
VIX_GRIDS = {"3/61": ["--kmin=-3", "--kmax=3", "--kcount", "61"],
             "1e-3/21": ["--kmin=-0.001", "--kmax=0.001", "--kcount", "21"]}
PINNED_VIX_GRIDS = {
    ("constant_lognormal_rho_m07", "3/61"): "da7b9c6a2a5ef92473e40f8ef5636defbb68cf034a8e9cb0d957af625c8b867d",
    ("constant_lognormal_rho_m07", "1e-3/21"): "7163b00334ea02aedba25962235d8ae73134223a0690ae8420727a0700c3e46a",
    ("tanh_lognormal_rho_m07", "3/61"): "04126b9c29bef728e9dba776b590fc3d11b68da69f419fe5c54837b8f801ca36",
    ("tanh_lognormal_rho_m07", "1e-3/21"): "29abacfe11e6099b37abffa74ed7de14647a04d22bf504909c438d43d0cbc71a",
    ("tanh_sqrt_rho_m07", "3/61"): "8cb652d58740ea5d2e892e437524a798b371c1f2d12830cd4b7b2685f125c66f",
    ("tanh_sqrt_rho_m07", "1e-3/21"): "db806d7639bac280e490ac25f5d86a8cf822ddec23dab5bd75da30da50ccfa1d",
}


@pytest.mark.parametrize("run", sorted(PINNED_VIX_GRIDS))
def test_vix_grid_bytes_pinned(run, capsys):
    model, grid = run
    code, out, _ = run_cli(["smile", "--model", str(MODELS_DIR / f"{model}.json"), "--product", "vix",
                            *VIX_GRIDS[grid]], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_VIX_GRIDS[run]


class TestNonPositiveExpansion:
    """Where the truncated expansion is not positive it is no vol, and its
    column prints nan; the expansion itself stays the paper's polynomial."""

    def test_smile(self, capsys):
        path = str(MODELS_DIR / "tanh_sqrt_rho_m07.json")
        code, out, _ = run_cli(["smile", "--model", path, "--product", "vix",
                                "--kmin=-3", "--kmax=3", "--kcount", "5"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[1] for r in rows] == ["-3", "-1.5", "0", "1.5", "3"]
        assert rows[-1][2] == "nan"
        assert all(float(r[2]) > 0.0 for r in rows[:-1])
        expansion = cli._expansion_for(load_model(path), "vix")
        assert expansion.evaluate(3.0) == pytest.approx(-0.3416166019, abs=1e-10)

    def test_compare(self, model_file, capsys, monkeypatch):
        # an expansion that turns negative inside the Monte Carlo strike range
        monkeypatch.setattr(cli, "_expansion_for", lambda model, product: SmileExpansion(0.316, -5.0, 0.0))
        code, out, _ = run_cli(["compare", "--model", model_file, "--paths", "4096", "--steps", "10",
                                "--kmin=-0.1", "--kmax", "0.1", "--kcount", "3"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r[2]) for r in rows[:2]] == pytest.approx([0.816, 0.316])
        iv_expansion, iv_rate, mc_iv, mc_se, diff, z = rows[2][2:]
        assert (iv_expansion, diff, z) == ("nan", "nan", "nan")
        assert all(math.isfinite(float(x)) for x in (iv_rate, mc_iv, mc_se))
