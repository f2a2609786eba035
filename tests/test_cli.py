"""Command-line surface: exit codes, report formats, file outputs."""

import json

import pytest

from cbizero.classify import classify_zero_state
from cbizero.cli import REPORT_DIR_ENV, _dimension_grid, build_parser, main
from cbizero.mechanisms import QuadraticBranching, StableImmigration

FELLER = "quadratic:b=0,sigma2=2"
BROWNIAN_STABLE = "stable:d=1,alpha=2"
SQRT_IMMIGRATION = "stable:d=1,beta=0.5"


# a valid call of each stochastic command, less --T, --eps, --reps, --seed
STOCHASTIC = {
    "simulate": ("simulate", "--psi", BROWNIAN_STABLE, "--phi", SQRT_IMMIGRATION,
                 "--out", "x.csv"),
    "ou": ("ou", "--alpha", "1.5"),
}


def run_cli(*argv):
    return main(list(argv))


def run_stochastic(command, T, eps, reps, *extra):
    return run_cli(*STOCHASTIC[command], "--T", T, "--eps", eps, "--reps", reps,
                   "--seed", "1", *extra)


class TestConfigValidation:
    def test_seed_mandatory_for_stochastic(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv(REPORT_DIR_ENV, str(tmp_path))
        for command, call in sorted(STOCHASTIC.items()):
            with pytest.raises(SystemExit) as exc:
                run_cli(*call, "--T", "2", "--eps", "0.2", "--reps", "1")
            assert exc.value.code == 1, command
            assert "--seed" in capsys.readouterr().err, command
        assert list(tmp_path.iterdir()) == []


class TestDimensionGrid:
    def test_decades_from_tenth_of_horizon_down_to_eps(self):
        assert _dimension_grid(100.0, 1e-3) == pytest.approx(
            [10.0, 1.0, 0.1, 0.01, 1e-3])

    def test_single_decade_gets_a_second_point(self):
        grid = _dimension_grid(2.0, 0.2)
        assert grid == pytest.approx([0.4, 0.2])

    def test_eps_just_above_a_decade_still_includes_it(self):
        # floating-point slack: eps = 1e-3 must not drop the 1e-3 box
        grid = _dimension_grid(10.0, 1e-3)
        assert grid[-1] == pytest.approx(1e-3)


class TestDeterministicReports:
    def test_vflow_frozen_bytes(self, capsys):
        # Feller flow: v_t = 1/t and v_t(lambda) = lambda / (1 + lambda t)
        assert run_cli("vflow", "--psi", FELLER, "--t", "1,2") == 0
        assert capsys.readouterr().out == (
            "t,v_t,v_t_lambda\n1,1,0.5\n2,0.5,0.333333333333\n")

    def test_laplace_frozen_bytes(self, capsys):
        # L(1) = sqrt(1/pi) for psi = q**2, phi = q/2
        assert run_cli("laplace", "--psi", FELLER,
                       "--phi", "stable:d=0.5,beta=1", "--q", "1") == 0
        assert capsys.readouterr().out == "q,L\n1,0.564189583548\n"

    def test_gzero_frozen_bytes(self, capsys):
        # f(1) = 2 * exp(-2) for psi = q**2, phi = sqrt(q)
        assert run_cli("gzero", "--psi", FELLER,
                       "--phi", SQRT_IMMIGRATION, "--t", "1") == 0
        assert capsys.readouterr().out == "t,density\n1,0.270670566473\n"

    def test_vflow_json_format(self, capsys):
        assert run_cli("vflow", "--psi", FELLER, "--t", "1",
                       "--format", "json") == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows == [{"t": 1, "v_t": 1, "v_t_lambda": 0.5}]

    def test_classify_json_payload(self, capsys):
        assert run_cli("classify", "--psi", BROWNIAN_STABLE,
                       "--phi", "stable:d=1,beta=1") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["zero_class"] == "Polar"
        for key in ("grey", "conservative", "heavy", "intervals",
                    "stationary", "dim_upper", "dim_lower", "method"):
            assert key in report

    def test_classify_csv_format(self, capsys):
        assert run_cli("classify", "--psi", BROWNIAN_STABLE,
                       "--phi", "stable:d=1,beta=1", "--format", "csv") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "key,value"
        assert "zero_class,Polar" in lines

    def test_reruns_are_byte_identical(self, capsys):
        args = ("classify", "--psi", BROWNIAN_STABLE,
                "--phi", "gamma:a=1,b=1")
        run_cli(*args)
        first = capsys.readouterr().out
        run_cli(*args)
        assert capsys.readouterr().out == first


class TestExitCodes:
    def test_parse_error_is_one_with_diagnostic(self, capsys):
        rc = run_cli("classify", "--psi", "stable:d=1",
                     "--phi", "stable:d=1,beta=1")
        assert rc == 1
        assert "cbizero: error:" in capsys.readouterr().err

    def test_domain_error_is_one(self, capsys):
        rc = run_cli("classify", "--psi", "stable:d=-1,alpha=2",
                     "--phi", "stable:d=1,beta=1")
        assert rc == 1
        assert "d > 0" in capsys.readouterr().err

    def test_inconclusive_is_two(self, capsys):
        rc = run_cli("classify", "--psi", BROWNIAN_STABLE,
                     "--phi", "stable:d=0.999,beta=1", "--numeric-only")
        assert rc == 2
        report = json.loads(capsys.readouterr().out)
        assert report["zero_class"] == "Inconclusive"

    def test_usage_error_exits_one(self, capsys):
        # argparse would exit 2, which is reserved for Inconclusive
        with pytest.raises(SystemExit) as exc:
            run_cli("classify", "--psi", BROWNIAN_STABLE)
        assert exc.value.code == 1
        assert "--phi" in capsys.readouterr().err

    def test_missing_seed_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--psi", BROWNIAN_STABLE,
                    "--phi", SQRT_IMMIGRATION, "--T", "2", "--eps", "0.2",
                    "--reps", "1", "--out", "x.csv")
        assert exc.value.code == 1
        assert "--seed" in capsys.readouterr().err

    def test_unknown_command_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 1

    def test_bad_float_list_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("vflow", "--psi", FELLER, "--t", "1,zebra")
        assert exc.value.code == 1
        assert "comma-separated" in capsys.readouterr().err

    def test_reps_zero_is_one(self, capsys):
        rc = run_cli("ou", "--alpha", "1.5", "--T", "2", "--eps", "0.2",
                     "--reps", "0", "--seed", "1")
        assert rc == 1
        assert "reps" in capsys.readouterr().err

    def test_eps_above_tenth_of_horizon_is_one(self, capsys):
        rc = run_cli("ou", "--alpha", "1.5", "--T", "2", "--eps", "0.5",
                     "--reps", "1", "--seed", "1")
        assert rc == 1
        assert "T/10" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(STOCHASTIC))
    @pytest.mark.parametrize("T, eps, reps, message", [
        ("0", "0.2", "1", "horizon T must be positive"),
        ("inf", "0.2", "1", "horizon T must be finite"),
        ("2", "0", "1", "eps must lie in (0, T/10]"),
        ("2", "0.2000001", "1", "eps must lie in (0, T/10]"),
        ("2", "0.2", "0", "reps must be at least 1"),
    ], ids=["horizon", "horizon-inf", "eps-zero", "eps-above-tenth", "reps-zero"])
    def test_stochastic_bounds_are_one(self, command, T, eps, reps, message, capsys,
                                       monkeypatch, tmp_path):
        monkeypatch.setenv(REPORT_DIR_ENV, str(tmp_path))
        assert run_stochastic(command, T, eps, reps) == 1
        assert capsys.readouterr() == ("", f"cbizero: error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, mechanism", [
        ("simulate", ("--psi", "stable:d=1")), ("ou", ("--alpha", "2.5"))],
        ids=["simulate", "ou"])
    def test_bounds_are_checked_before_the_mechanism(self, command, mechanism, capsys):
        assert run_stochastic(command, "2", "0.2", "0", *mechanism) == 1
        assert capsys.readouterr().err == "cbizero: error: reps must be at least 1\n"

    @pytest.mark.parametrize("command", sorted(STOCHASTIC))
    def test_eps_of_a_tenth_of_horizon_is_accepted(self, command, monkeypatch, tmp_path):
        monkeypatch.setenv(REPORT_DIR_ENV, str(tmp_path))
        assert run_stochastic(command, "2", "0.2", "1") == 0

    @pytest.mark.parametrize("phi", ["stable:d=inf,beta=0.5", "stable:d=nan,beta=0.5"])
    def test_non_finite_mechanism_parameter_is_one(self, phi, capsys):
        rc = run_cli("classify", "--psi", BROWNIAN_STABLE, "--phi", phi)
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and "needs a finite dprime" in err

    def test_nan_initial_level_is_one(self, capsys):
        rc = run_cli("vflow", "--psi", FELLER, "--t", "1", "--lam", "nan")
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and "initial level must be >= 0, got nan" in err

    @pytest.mark.parametrize("command, option, value, message", [
        ("laplace", "--q", "inf", "Laplace argument q must be finite, got inf"),
        ("laplace", "--q", "nan", "Laplace argument q must be finite, got nan"),
        ("gzero", "--t", "inf", "density argument t must be finite, got inf"),
        ("gzero", "--t", "nan", "density argument t must be finite, got nan"),
    ], ids=["q-inf", "q-nan", "t-inf", "t-nan"])
    def test_non_finite_law_argument_is_one(self, command, option, value, message, capsys):
        rc = run_cli(command, "--psi", FELLER, "--phi", SQRT_IMMIGRATION, option, value)
        assert rc == 1
        assert capsys.readouterr() == ("", f"cbizero: error: {message}\n")

    def test_out_of_range_stability_index_is_one(self, capsys):
        rc = run_cli("ou", "--alpha", "2.5", "--T", "2", "--eps", "0.2",
                     "--reps", "1", "--seed", "1")
        assert rc == 1
        assert "(0, 2]" in capsys.readouterr().err


class TestReportFiles:
    def simulate(self, monkeypatch, tmp_path, *extra):
        monkeypatch.setenv(REPORT_DIR_ENV, str(tmp_path))
        rc = run_cli("simulate", "--psi", BROWNIAN_STABLE,
                     "--phi", SQRT_IMMIGRATION, "--T", "2", "--eps", "0.2",
                     "--reps", "3", "--seed", "11", "--out", "run.csv",
                     *extra)
        assert rc == 0
        return tmp_path

    def test_replicate_table(self, monkeypatch, tmp_path):
        out = self.simulate(monkeypatch, tmp_path)
        lines = (out / "run.csv").read_text().splitlines()
        assert lines[0] == "seed,lebesgue,g_last,dim_fit"
        assert [row.split(",")[0] for row in lines[1:]] == ["11", "12", "13"]

    def test_summary_json(self, monkeypatch, tmp_path):
        out = self.simulate(monkeypatch, tmp_path)
        summary = json.loads((out / "run.summary.json").read_text())
        assert summary["psi"] == BROWNIAN_STABLE
        assert summary["reps"] == 3
        assert summary["grid_sizes"] == pytest.approx([0.4, 0.2])
        for key in ("lebesgue_mean", "g_last_mean", "dim_fit_mean",
                    "dim_fit_sd"):
            assert isinstance(summary[key], float)

    def test_intervals_dump(self, monkeypatch, tmp_path):
        out = self.simulate(monkeypatch, tmp_path, "--dump-intervals")
        lines = (out / "run.intervals.csv").read_text().splitlines()
        assert lines[0] == "start,end"
        start, end = map(float, lines[1].split(","))
        assert 0.0 <= start < end <= 2.0

    def test_seeded_reruns_are_byte_identical(self, monkeypatch, tmp_path):
        first = self.simulate(monkeypatch, tmp_path / "a")
        second = self.simulate(monkeypatch, tmp_path / "b")
        for name in ("run.csv", "run.summary.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_absolute_out_ignores_report_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(REPORT_DIR_ENV, str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.json"
        rc = run_cli("classify", "--psi", BROWNIAN_STABLE,
                     "--phi", "stable:d=1,beta=1", "--out", str(target))
        assert rc == 0
        assert json.loads(target.read_text())["zero_class"] == "Polar"
        assert not (tmp_path / "elsewhere").exists()

    def test_relative_out_lands_in_report_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(REPORT_DIR_ENV, str(tmp_path))
        rc = run_cli("classify", "--psi", BROWNIAN_STABLE,
                     "--phi", "stable:d=1,beta=1", "--out", "nested/r.json")
        assert rc == 0
        assert (tmp_path / "nested" / "r.json").exists()


class TestOUCommand:
    def test_nontrivial_payload(self, capsys):
        rc = run_cli("ou", "--alpha", "1.5", "--T", "2", "--eps", "0.2",
                     "--reps", "2", "--seed", "7")
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == "Recurrent"
        # the dimension of the pair (q + q^2, q/alpha), 1 - 1/alpha
        pair = QuadraticBranching(b=1.0, sigma2=2.0), StableImmigration(dprime=1.0 / 1.5, beta=1.0)
        want = classify_zero_state(*pair).dim_upper
        assert want == pytest.approx(1.0 - 1.0 / 1.5, rel=1e-12)
        assert payload["dim_theory"] == pytest.approx(want, rel=1e-9)
        assert 0.0 <= payload["dim_fit"] <= 1.0
        assert 0.0 <= payload["ks_pushforward"] < 0.05

    def test_trivial_point_has_null_diagnostics(self, capsys):
        rc = run_cli("ou", "--alpha", "0.8", "--T", "2", "--eps", "0.2",
                     "--reps", "1", "--seed", "7")
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"class": "TrivialPoint", "dim_theory": 0.0,
                           "dim_fit": None, "ks_pushforward": None}

    def test_csv_leaves_null_cells_empty(self, capsys):
        rc = run_cli("ou", "--alpha", "0.8", "--T", "2", "--eps", "0.2",
                     "--reps", "1", "--seed", "7", "--format", "csv")
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "key,value"
        assert "dim_fit," in lines
        assert "ks_pushforward," in lines

    def test_seeded_reruns_match(self, capsys):
        args = ("ou", "--alpha", "1.5", "--T", "2", "--eps", "0.2",
                "--reps", "1", "--seed", "3")
        run_cli(*args)
        first = capsys.readouterr().out
        run_cli(*args)
        assert capsys.readouterr().out == first


class TestParser:
    def test_parser_builds_and_lists_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("classify", "vflow", "laplace", "gzero",
                        "simulate", "ou"):
            assert command in text

    def test_default_formats(self):
        parser = build_parser()
        args = parser.parse_args(["classify", "--psi", BROWNIAN_STABLE,
                                  "--phi", "stable:d=1,beta=1"])
        assert args.format == "json"
        args = parser.parse_args(["laplace", "--psi", FELLER,
                                  "--phi", "stable:d=0.5,beta=1",
                                  "--q", "1"])
        assert args.format == "csv"
