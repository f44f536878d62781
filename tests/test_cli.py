import json
import pathlib

import pytest
from click.testing import CliRunner

import stepplan.harness
from stepplan.cli import cli

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

CONFIG = {
    "problem": {"name": "quadratic", "q_diag": [1000.0, 1.0],
                "w_star": [1.0, 1.0], "w0": [-1.0, 2.0]},
    "optimizer": {"name": "csawg", "gamma": 0.0009, "k": 2},
    "budget": {"max_iterations": 400, "error_floor": 1e-12},
    "record_alpha": True,
    "label": "convex-k2",
}


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, config=CONFIG, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


@pytest.fixture
def runs(monkeypatch):
    """The steppers that reached the run loop, in order."""
    started, run_steps = [], stepplan.harness.run_steps

    def counted(stepper, *args, **kw):
        started.append(stepper)
        return run_steps(stepper, *args, **kw)

    monkeypatch.setattr(stepplan.harness, "run_steps", counted)
    return started


class TestRun:
    def test_writes_csv_and_svg(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(cli, ["run", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "convex-k2.csv").exists()
        assert (out / "convex-k2.svg").exists()
        assert "converged" in result.output

    def test_no_svg(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(cli, ["run", "--config", str(cfg), "--out", str(out), "--no-svg"])
        assert result.exit_code == 0
        assert not (out / "convex-k2.svg").exists()

    def test_missing_config_exits_2(self, runner, tmp_path):
        result = runner.invoke(cli, ["run", "--config", str(tmp_path / "missing.json")])
        assert result.exit_code == 2
        assert "missing.json" in result.output

    def test_diverged_run_exits_1(self, runner, tmp_path):
        config = dict(CONFIG, optimizer={"name": "gd", "gamma": 0.1},
                      problem={"name": "rosenbrock"}, label="boom",
                      budget={"max_iterations": 500}, record_alpha=False)
        cfg = write_config(tmp_path, config)
        result = runner.invoke(cli, ["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert "diverged" in result.output

    def test_diverged_stream_writes_csv_and_exits_1(self, runner, tmp_path):
        # exp(710) overflows: the first IDBD sample makes the iterate non-finite
        config = {"problem": {"name": "lms", "w_star": [1.0, -1.0]},
                  "optimizer": {"name": "idbd", "eta": 0.0, "beta0": 710.0},
                  "budget": {"max_iterations": 100}, "label": "boom"}
        cfg = write_config(tmp_path, config)
        out = tmp_path / "o"
        result = runner.invoke(cli, ["run", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 1
        assert "diverged" in result.output
        assert (out / "boom.csv").read_text() == "iteration,grad_evals,error\n1,1,inf\n"
        assert (out / "boom.svg").exists()

    def test_zero_iterations_prints_nan_final_error(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        result = runner.invoke(cli, ["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                                     "--no-svg", "--set", "budget.max_iterations=0"])
        assert result.exit_code == 0, result.output
        assert "iterations=0" in result.output
        assert "final_error=nan" in result.output

    def test_set_override(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(cli, ["run", "--config", str(cfg), "--out", str(out),
                                     "--set", "optimizer.k=10", "--no-svg"])
        assert result.exit_code == 0

    @pytest.mark.parametrize("text", [
        json.dumps({k: v for k, v in CONFIG.items() if k != "budget"}),
        json.dumps(CONFIG)[:40],
        json.dumps(dict(CONFIG, budget=5)),
        json.dumps(dict(CONFIG, budget={"max_iterations": 10, "wall_clock": 60})),
        "[1, 2]",
        "[" * 100000,
    ], ids=["missing-budget", "truncated", "budget-number", "unknown-budget-key", "top-level-list",
            "nested-too-deep"])
    def test_malformed_config_file_exits_2(self, runner, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        out = tmp_path / "out"
        result = runner.invoke(cli, ["run", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "invalid config" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("name", ["convex-planner", "lms-idbd", "rosenbrock-gd"])
    def test_shipped_config_runs(self, runner, tmp_path, name):
        path = CONFIGS / f"{name}.json"
        label = json.loads(path.read_text())["label"]
        out = tmp_path / "out"
        result = runner.invoke(cli, ["run", "--config", str(path), "--out", str(out), "--no-svg",
                                     "--set", "budget.max_iterations=50"])
        assert result.exit_code == 0, result.output
        assert len((out / f"{label}.csv").read_text().splitlines()) == 1 + 50

    def test_bad_override_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        result = runner.invoke(cli, ["run", "--config", str(cfg),
                                     "--set", "nonsense.path=1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("override", ["optimizer.gamma=NaN", "optimizer.gamma=Infinity",
                                          "budget.max_iterations=2.5", "optimizer.k=2.5",
                                          "label=5", "optimizer=[1]", 'seed="a"',
                                          'record_w="yes"', "budget.error_floor=true",
                                          'budget.error_floor="x"'])
    def test_non_finite_or_fractional_override_exits_2(self, runner, tmp_path, override):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(cli, ["run", "--config", str(cfg), "--out", str(out),
                                     "--set", override])
        assert result.exit_code == 2, result.output
        assert "diverged" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("override, field", [
        ('problem={"name": "lms", "noise_std": 0.1}', "w_star"),
        ('problem.noise_std="x"', "noise_std"),
        ('problem.low="a"', "low"),
        ("problem.high=Infinity", "high"),
        ('problem={"name": "lms", "w_star": [1.0], "low": -1e308, "high": 1e308}', "width"),
        ("problem.noise_std=NaN", "noise_std"),
        ("problem.noise_std=null", "noise_std"),
        ("problem.seed=2.5", "seed"),
    ], ids=["no-w_star", "noise_std-string", "low-string", "high-infinite", "width-overflows",
            "noise_std-nan", "noise_std-null", "seed-fractional"])
    def test_bad_lms_parameter_exits_2(self, runner, tmp_path, override, field):
        out = tmp_path / "out"
        result = runner.invoke(cli, ["run", "--config", str(CONFIGS / "lms-idbd.json"),
                                     "--out", str(out), "--set", override])
        assert result.exit_code == 2, result.output
        assert field in result.output
        assert not out.exists()


class TestCompare:
    def test_combined_outputs(self, runner, tmp_path):
        a = write_config(tmp_path, CONFIG, "a.json")
        b_cfg = dict(CONFIG, optimizer={"name": "gd", "gamma": 0.00099}, label="gd",
                     budget={"max_iterations": 400, "error_floor": None}, record_alpha=False)
        b = write_config(tmp_path, b_cfg, "b.json")
        out = tmp_path / "out"
        result = runner.invoke(cli, ["compare", "--config", str(a), "--config", str(b),
                                     "--out", str(out)])
        assert result.exit_code == 0, result.output
        combined = (out / "compare.csv").read_text().splitlines()
        assert combined[0] == "label,iteration,grad_evals,error"
        labels = {line.split(",")[0] for line in combined[1:]}
        assert labels == {"convex-k2", "gd"}
        assert (out / "compare.svg").exists()

    def test_bad_config_stops_before_any_run(self, runner, tmp_path, runs):
        good = dict(CONFIG, optimizer={"name": "heavy_ball", "gamma": 0.0009, "p": 0.5},
                    label="good")
        bad = dict(good, optimizer={"name": "heavy_ball", "gamma": 0.0009, "p": 1.0}, label="bad")
        paths = [write_config(tmp_path, good, "good.json"), write_config(tmp_path, bad, "bad.json")]
        out = tmp_path / "out"
        result = runner.invoke(cli, ["compare", "--config", str(paths[0]), "--config", str(paths[1]),
                                     "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "momentum rate p" in result.output
        assert runs == []
        assert not out.exists()


class TestSweep:
    def test_grid_runs_and_table(self, runner, tmp_path):
        config = dict(CONFIG, optimizer={"name": "gd", "gamma": 0.001},
                      problem={"name": "rosenbrock"}, label="gd", record_alpha=False,
                      budget={"max_iterations": 100, "error_floor": None})
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        result = runner.invoke(cli, ["sweep", "--config", str(cfg), "--out", str(out),
                                     "--grid", "optimizer.gamma=0.0005,0.001", "--no-svg"])
        assert result.exit_code == 0, result.output
        assert "optimizer.gamma=0.0005" in result.output
        csvs = list(out.glob("*.csv"))
        assert len(csvs) == 2

    def test_bad_grid_value_stops_before_any_run(self, runner, tmp_path, runs):
        config = dict(CONFIG, optimizer={"name": "heavy_ball", "gamma": 0.001, "p": 0.5},
                      problem={"name": "rosenbrock"}, label="hb", record_alpha=False,
                      budget={"max_iterations": 100, "error_floor": None})
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        result = runner.invoke(cli, ["sweep", "--config", str(cfg), "--out", str(out),
                                     "--grid", "optimizer.p=0.5,1.0"])
        assert result.exit_code == 2, result.output
        assert "momentum rate p" in result.output
        assert runs == []
        assert not out.exists()

    def test_bad_grid_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        result = runner.invoke(cli, ["sweep", "--config", str(cfg), "--grid", "oops"])
        assert result.exit_code == 2


class TestVerify:
    def test_pass_table_and_report(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(cli, ["verify", "--trials", "20", "--seed", "7",
                                     "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "scalar-rate" in result.output
        assert "pass" in result.output
        report = json.loads((out / "verify_report.json").read_text())
        assert report["trials"] == 20
        assert set(report["checks"]) == {"scalar-rate", "scalar-grid",
                                         "diag-one-step", "ideal-step-grid"}


class TestRepro:
    def test_unknown_preset_exits_2(self, runner, tmp_path):
        result = runner.invoke(cli, ["repro", "warp-speed", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "unknown preset" in result.output

    def test_p5_preset_runs(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(cli, ["repro", "rosenbrock-p5-fig8", "--out", str(out)])
        assert result.exit_code == 0, result.output
        produced = list((out / "rosenbrock-p5-fig8").glob("*.csv"))
        assert len(produced) == 3
        assert (out / "rosenbrock-p5-fig8" / "overlay.svg").exists()


class TestUsage:
    def test_unknown_subcommand_exits_2(self, runner):
        result = runner.invoke(cli, ["optimize"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("sub,flags", [
        ("run", ["--config", "--out", "--seed", "--svg", "--set"]),
        ("compare", ["--config", "--out", "--seed", "--svg", "--set"]),
        ("sweep", ["--config", "--grid", "--out", "--seed", "--svg", "--set"]),
        ("verify", ["--trials", "--d-max", "--seed", "--out"]),
        ("repro", ["--out", "--svg"]),
    ])
    def test_help_lists_flags(self, runner, sub, flags):
        result = runner.invoke(cli, [sub, "--help"])
        assert result.exit_code == 0
        for flag in flags:
            assert flag in result.output
