import csv
import dataclasses
import json

import numpy as np
import pytest

from fixedgp.cli import ConfigError, build_config, main, make_parser, parse_config_file
from fixedgp.experiments import ExperimentConfig
from fixedgp.gp import load_dataset


TINY_CFG = """
# desk-size smoke configuration
n_samples = 300
n_burnin = 100
n_replications = 2
n_test_points = 15
n_workers = 1
"""


@pytest.fixture
def tiny_config(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY_CFG)
    return str(p)


class TestConfigFile:
    def test_parse_values(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("d = 2\nn_values = 25, 50\nalpha_0 = 0.7\n"
                     "output_dir = results  # trailing comment\n")
        values = parse_config_file(p)
        assert values == {"d": 2, "n_values": (25, 50), "alpha_0": 0.7,
                          "output_dir": "results"}

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("bogus = 1\n")
        with pytest.raises(ConfigError):
            parse_config_file(p)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config_file("/nonexistent/path.cfg")

    def test_bad_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("just words\n")
        with pytest.raises(ConfigError):
            parse_config_file(p)


class TestSimulate:
    def test_writes_loadable_dataset(self, tmp_path):
        out = str(tmp_path / "sim")
        code = main(["simulate", "--d", "1", "--n", "40", "--seed", "3", "--out", out])
        assert code == 0
        data = load_dataset(tmp_path / "sim" / "dataset.csv")
        assert data.n == 40 and data.design.d == 1
        meta = json.loads((tmp_path / "sim" / "dataset_manifest.json").read_text())
        assert meta["seed"] == 3

    def test_zero_noise_midpoints(self, tmp_path):
        out = str(tmp_path / "sim0")
        main(["simulate", "--n", "4", "--seed", "0", "--out", out, "--zero-noise"])
        data = load_dataset(tmp_path / "sim0" / "dataset.csv")
        assert np.allclose(data.design.coords_1d, [0.125, 0.375, 0.625, 0.875])

    def test_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["simulate", "--n", "10", "--seed", "5", "--out", a])
        main(["simulate", "--n", "10", "--seed", "5", "--out", b])
        assert (tmp_path / "a" / "dataset.csv").read_bytes() == \
               (tmp_path / "b" / "dataset.csv").read_bytes()


class TestTables:
    def test_table1_exit_zero_and_outputs(self, tmp_path, tiny_config, capsys):
        out = str(tmp_path / "t1")
        code = main(["table1", "--config", tiny_config, "--n-values", "25",
                     "--out", out, "--fast-ou"])
        assert code == 0
        assert (tmp_path / "t1" / "table1.csv").exists()
        assert (tmp_path / "t1" / "table1_replications.csv").exists()
        assert (tmp_path / "t1" / "table1_manifest.json").exists()
        assert "e_theta" in capsys.readouterr().out

    def test_table1_dense_flag(self, tmp_path, tiny_config):
        out = str(tmp_path / "t1d")
        code = main(["table1", "--config", tiny_config, "--n-values", "25",
                     "--out", out, "--dense"])
        assert code == 0
        manifest = json.loads((tmp_path / "t1d" / "table1_manifest.json").read_text())
        assert manifest["config"]["likelihood"] == "dense"

    def test_table3_tiny(self, tmp_path, tiny_config):
        out = str(tmp_path / "t3")
        code = main(["table3", "--config", tiny_config, "--n-values", "25", "--out", out])
        assert code == 0
        header = (tmp_path / "t3" / "table3.csv").read_text().splitlines()[0]
        assert header.startswith("n,replications,max_r1")

    def test_bad_config_exit_2(self, tmp_path):
        p = tmp_path / "bad.cfg"
        for line in ("nonsense_key = 3", "zero_noise = true"):
            p.write_text(f"{line}\n")
            code = main(["table1", "--config", str(p)])
            assert code == 2, line

    def test_bad_value_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        for line in ("likelihood = banana", "n_samples = abc", "nu = x", "n_values = 1,a"):
            p.write_text(f"# comment\n{line}\n")
            code = main(["table1", "--config", str(p)])
            assert code == 2, line
            err = capsys.readouterr().err
            assert err.startswith("config error:")
            if "banana" not in line:
                assert f"{p}:2:" in err

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        out = str(tmp_path / "o")
        for command, line in (("table1", "nu = -1"), ("table1", "n_values = 0,5"),
                              ("simulate", "d = 3"), ("contour", "d = 3")):
            p.write_text(f"{line}\n")
            code = main([command, "--config", str(p), "--out", out])
            assert code == 2, (command, line)
            assert capsys.readouterr().err.startswith("config error:")

    def test_failure_budget_exit_3(self, monkeypatch, tmp_path):
        from fixedgp import cli
        from fixedgp.experiments import FailureBudgetExceededError

        def boom(cfg):
            raise FailureBudgetExceededError("forced")

        monkeypatch.setattr(cli, "run_table1", boom)
        code = main(["table1", "--out", str(tmp_path)])
        assert code == 3


class TestTableFlags:
    """Each table flag sets the config field named by its dest, so a new
    flag cannot silently miss the config."""

    # a value that differs from the field's default, as text and as parsed
    VALUES = {"master_seed": ("7", 7), "n_replications": ("3", 3), "output_dir": ("res", "res"),
              "n_workers": ("2", 2), "n_values": ("5,6", (5, 6)), "m_values": ("3,4", (3, 4)),
              "d": ("2", 2)}

    @pytest.mark.parametrize("command", ["table1", "table2", "table3"])
    def test_every_flag_fills_its_field(self, command):
        parser = make_parser()
        sub, = (a for a in parser._actions if a.dest == "command")
        actions = [a for a in sub.choices[command]._actions if a.dest not in ("help", "config")]
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert {a.dest for a in actions} <= fields
        argv, expected = [command], {}
        # the last of the flags that share a dest: --dense, not the default --fast-ou
        for dest, action in {a.dest: a for a in actions}.items():
            if action.nargs == 0:
                argv.append(action.option_strings[0])
                expected[dest] = action.const
            else:
                text, expected[dest] = self.VALUES[dest]
                argv += [action.option_strings[0], text]
        default = ExperimentConfig()
        assert all(getattr(default, k) != v for k, v in expected.items())
        cfg = build_config(parser.parse_args(argv))
        assert {k: getattr(cfg, k) for k in expected} == expected


class TestTruthFailure:
    @pytest.mark.parametrize("command", ["simulate", "contour"])
    def test_truth_that_does_not_factorize_exits_3(self, command, tmp_path, capsys):
        # the nu = 5/2 truth correlation of 400 perturbed grid points fails
        # to factorize (pivot 6): a numerical failure, not a traceback
        cfg = tmp_path / "smooth.cfg"
        cfg.write_text("nu = 2.5\nlikelihood = dense\n")
        code = main([command, "--config", str(cfg), "--n", "400",
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert "n=400" in err and "nu=2.5" in err and "pivot 6" in err
        assert not (tmp_path / "out").exists()


class TestContourCli:
    def test_from_simulated(self, tmp_path):
        out = str(tmp_path / "ct")
        code = main(["contour", "--n", "30", "--seed", "2", "--out", out,
                     "--theta-grid", "0.2:1.0:6", "--alpha-grid", "0.2:3:5"])
        assert code == 0
        lines = (tmp_path / "ct" / "contour_grid.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 6 * 5

    def test_ridge_is_nan_where_the_correlation_fails(self, tmp_path):
        # at nu = 5/2 the n = 100 correlation fails to factorize at small alpha
        cfg = tmp_path / "smooth.cfg"
        cfg.write_text("nu = 2.5\nlikelihood = dense\n")
        out = tmp_path / "ct"
        code = main(["contour", "--config", str(cfg), "--n", "100", "--out", str(out)])
        assert code == 0
        with open(out / "contour_ridge.csv", newline="") as fh:
            ridge = [float(row["theta_tilde"]) for row in csv.DictReader(fh)]
        with open(out / "contour_grid.csv", newline="") as fh:
            failed = {}
            for row in csv.DictReader(fh):
                failed.setdefault(row["alpha"], []).append(float(row["log_profile_limit"]) == -np.inf)
        assert all(len(set(cells)) == 1 for cells in failed.values())
        assert [np.isnan(t) for t in ridge] == [cells[0] for cells in failed.values()]
        assert any(np.isnan(ridge)) and not all(np.isnan(ridge))

    def test_from_dataset_file(self, tmp_path):
        sim = str(tmp_path / "sim")
        main(["simulate", "--n", "25", "--seed", "9", "--out", sim])
        out = str(tmp_path / "ct2")
        code = main(["contour", "--data", str(tmp_path / "sim" / "dataset.csv"),
                     "--out", out, "--theta-grid", "0.2:1.0:4", "--alpha-grid", "0.3:2:4"])
        assert code == 0
        assert (tmp_path / "ct2" / "contour_ridge.csv").exists()


class TestChecks:
    def test_kl_check(self, tmp_path, capsys):
        out = str(tmp_path / "kl")
        code = main(["kl-check", "--n-values", "50,100", "--alphas", "1.0",
                     "--alpha0", "0.5", "--out", out])
        assert code == 0
        content = (tmp_path / "kl" / "kl_check.csv").read_text()
        assert content.splitlines()[0] == "n,alpha,alpha0,r_n,r_limit,gap"

    def test_lambda_check(self, tmp_path):
        out = str(tmp_path / "lam")
        code = main(["lambda-check", "--count", "8", "--n", "15", "--seed", "1",
                     "--out", out])
        assert code == 0
        lines = (tmp_path / "lam" / "lambda_check.csv").read_text().strip().splitlines()
        assert len(lines) == 9


MALFORMED_DATASETS = {
    "bad_header.csv": "s1,y\n0.1,1\n0.5,2\n0.9,1\n",
    "duplicate.csv": "s1,x\n0.1,1\n0.1,2\n0.5,1\n",
    "non_numeric.csv": "s1,x\n0.1,abc\n0.3,1\n0.5,1\n",
    "all_zero.csv": "s1,x\n0.1,0\n0.3,0\n0.5,0\n",
    "nan.csv": "s1,x\n0.1,nan\n0.3,1\n0.5,1\n",
    "empty.csv": "",
}


class TestMalformedInput:
    """Every malformed input exits 2 with a message on stderr, before any
    replication runs and without a traceback."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "-3"],
        ["simulate", "--n", "0"],
        ["simulate", "--seed", "-1"],
        ["lambda-check", "--n", "0"],
        ["lambda-check", "--count", "-1"],
        ["lambda-check", "--count", "0"],
        ["kl-check", "--alphas", "-1"],
        ["kl-check", "--alphas", "nan"],
        ["kl-check", "--alpha0", "0"],
        ["kl-check", "--n-values", "0"],
        ["kl-check", "--n-values", ","],
        ["contour", "--n", "0"],
        ["contour", "--n", "2"],
        ["contour", "--seed", "-1"],
        ["contour", "--alpha-grid", "0:1:3"],
        ["contour", "--theta-grid", "0.1:1:0"],
        ["contour", "--theta-grid", "1:0.5:3"],
        ["contour", "--data", "{tmp}/missing.csv"],
        *(["contour", "--data", f"{{tmp}}/{name}"] for name in MALFORMED_DATASETS),
        ["table1", "--workers", "-1"],
        ["table1", "--seed", "-1"],
    ], ids=lambda argv: " ".join(argv).replace("{tmp}/", ""))
    def test_exit_2_with_message(self, argv, tmp_path, capsys):
        for name, text in MALFORMED_DATASETS.items():
            (tmp_path / name).write_text(text)
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        try:
            code = main(argv + ["--out", str(tmp_path / "out")])
        except SystemExit as stop:   # argparse rejects a bad value itself
            code = stop.code
        err = capsys.readouterr().err
        assert code == 2
        assert err.strip() and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["n_workers = -1", "n_test_points = -5",
                                      "master_seed = -1"])
    def test_negative_config_value_exit_2(self, line, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(f"{line}\n")
        assert main(["table3", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error:")
