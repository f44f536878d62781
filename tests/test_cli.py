import csv
import hashlib
import json
import pathlib
import xml.etree.ElementTree as ET

import pytest
from click.testing import CliRunner

import stepplan.cli
import stepplan.harness
from stepplan.cli import cli
from stepplan.harness import ExperimentConfig
from stepplan.presets import PRESETS
from stepplan.theory import RateReport

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
SVG_NS = "{http://www.w3.org/2000/svg}"

CONFIG = {
    "problem": {"name": "quadratic", "q_diag": [1000.0, 1.0],
                "w_star": [1.0, 1.0], "w0": [-1.0, 2.0]},
    "optimizer": {"name": "csawg", "gamma": 0.0009, "k": 2},
    "budget": {"max_iterations": 400, "error_floor": 1e-12},
    "record_alpha": True,
    "label": "convex-k2",
}
# polyak at w0 = w_star: a zero gradient with f(w) = 0 above f* = -1 raises StationaryPointError
STUCK = dict(CONFIG, problem=dict(CONFIG["problem"], w0=[1.0, 1.0]),
             optimizer={"name": "polyak", "f_star": -1.0}, budget={"max_iterations": 50},
             record_alpha=False, label="stuck")


def assert_failed_run(result, label):
    """Exit 1 naming the run and its error, handled by the CLI (no traceback)."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"run {label!r} failed: StationaryPointError" in result.output
    assert "above f* = -1.0" in result.output
    assert "Traceback" not in result.output


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

    def test_overflowing_rosenbrock_writes_csv_and_exits_1(self, runner, tmp_path):
        # gamma = 1e80 puts the first iterate near 1e82, whose value overflows a float
        for optimizer in ({"name": "gd", "gamma": 1e80}, {"name": "csawg", "gamma": 1e80, "k": 2}):
            config = {"problem": {"name": "rosenbrock"}, "optimizer": optimizer,
                      "budget": {"max_iterations": 100}, "label": "boom"}
            out = tmp_path / optimizer["name"]
            result = runner.invoke(cli, ["run", "--config", str(write_config(tmp_path, config)),
                                         "--out", str(out), "--no-svg"])
            assert result.exit_code == 1, result.output
            assert "diverged" in result.output and "Traceback" not in result.output
            assert (out / "boom.csv").read_text() == "iteration,grad_evals,error\n1,1,inf\n"

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

    def test_failed_run_exits_1(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(cli, ["run", "--config", str(write_config(tmp_path, STUCK)),
                                     "--out", str(out)])
        assert_failed_run(result, "stuck")
        assert list(out.iterdir()) == []

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

    def test_seed_option_matches_set_seed(self, runner, tmp_path):
        config = str(CONFIGS / "lms-idbd.json")
        csvs = {}
        for name, args in [("option", ["--seed", "3"]), ("set", ["--set", "seed=3"]),
                           ("config", [])]:
            out = tmp_path / name
            result = runner.invoke(cli, ["run", "--config", config, "--out", str(out),
                                         "--no-svg", "--set", "budget.max_iterations=50", *args])
            assert result.exit_code == 0, result.output
            csvs[name] = (out / "idbd-lms.csv").read_bytes()
        assert csvs["option"] == csvs["set"]
        assert csvs["option"] != csvs["config"]  # the config's own seed is 7

    def test_idbd_off_the_stream_exits_2(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(cli, ["run", "--config", str(CONFIGS / "rosenbrock-gd.json"),
                                     "--out", str(out), "--set",
                                     'optimizer={"name":"idbd","eta":0.02,"beta0":-3.0}'])
        assert result.exit_code == 2, result.output
        assert "the idbd optimizer runs only on the 'lms' problem" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("config", ["lms-idbd.json", "rosenbrock-gd.json"])
    def test_negative_seed_exits_2(self, runner, tmp_path, config):
        out = tmp_path / "out"
        result = runner.invoke(cli, ["run", "--config", str(CONFIGS / config), "--out", str(out),
                                     "--seed", "-1"])
        assert result.exit_code == 2, result.output
        assert "seed must be >= 0" in result.output
        assert not out.exists()

    def test_set_without_equals_exits_2(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(cli, ["run", "--config", str(write_config(tmp_path)),
                                     "--out", str(out), "--set", "optimizer.k"])
        assert result.exit_code == 2, result.output
        assert "--set expects key=value, got 'optimizer.k'" in result.output
        assert not out.exists()

    # 40 and 100 levels parse and fail as a w0 that is not 1-d; 100000 is too deep to parse
    @pytest.mark.parametrize("depth, tail", [(40, "1.0" + "]" * 40), (100, "1.0" + "]" * 100),
                                             (100000, "")], ids=["40", "100", "100000-open"])
    def test_set_nested_too_deep_exits_2(self, runner, tmp_path, runs, depth, tail):
        out = tmp_path / "out"
        result = runner.invoke(cli, ["run", "--config", str(write_config(tmp_path)),
                                     "--out", str(out), "--set", "problem.w0=" + "[" * depth + tail])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Error: " in result.output and "Traceback" not in result.output
        if not tail:
            assert "is nested too deep" in result.output
        assert runs == []
        assert not out.exists()

    def test_bad_override_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        result = runner.invoke(cli, ["run", "--config", str(cfg),
                                     "--set", "nonsense.path=1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("override", ["optimizer.gamma=NaN", "optimizer.gamma=Infinity",
                                          "budget.max_iterations=2.5", "optimizer.k=2.5",
                                          "label=5", "optimizer=[1]", 'seed="a"',
                                          'record_w="yes"', "budget.error_floor=true",
                                          'budget.error_floor="x"', 'optimizer.gamma="0.001"',
                                          "optimizer.gamma=true", "optimizer.gamma=1" + "0" * 400,
                                          "problem.w0={}", "problem.w_star={}", "problem.q_diag={}",
                                          "problem.w0=[1,{}]", "problem.w0=[true,false]",
                                          "problem.w_star=[true,true]", "problem.q_diag=[1,true]",
                                          "problem.w0=[1,1" + "0" * 400 + "]",
                                          'problem={"name":"quadratic","q":5}'])
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
        ("problem.noise_std=true", "noise_std"),
        ("problem.seed=2.5", "seed"),
        ("problem.seed=-1", "seed must be >= 0"),
        ("problem.w_star={}", "w_star"),
        ("problem.w_star=[true,false,true]", "w_star"),
        ('problem.w0=["1","2"]', "w0"),
    ], ids=["no-w_star", "noise_std-string", "low-string", "high-infinite", "width-overflows",
            "noise_std-nan", "noise_std-bool", "seed-fractional", "seed-negative",
            "w_star-dict", "w_star-bools", "w0-strings"])
    def test_bad_lms_parameter_exits_2(self, runner, tmp_path, override, field):
        out = tmp_path / "out"
        result = runner.invoke(cli, ["run", "--config", str(CONFIGS / "lms-idbd.json"),
                                     "--out", str(out), "--set", override])
        assert result.exit_code == 2, result.output
        assert field in result.output
        assert not out.exists()

    @pytest.mark.parametrize("config, section, key", [
        (json.loads((CONFIGS / "lms-idbd.json").read_text()), "problem", "noise_std"),
        (json.loads((CONFIGS / "lms-idbd.json").read_text()), "problem", "seed"),
        (CONFIG, "problem", "w0"),
        (CONFIG, "problem", "w_star"),
        (dict(CONFIG, optimizer={"name": "nesterov", "mode": "convex", "L": 1000.0, "step": 5e-4},
              record_alpha=False), "optimizer", "step"),
    ], ids=["lms-noise_std", "lms-seed", "w0", "w_star", "nesterov-step"])
    def test_null_parameter_counts_as_not_given(self, runner, tmp_path, config, section, key):
        config = dict(config, budget={"max_iterations": 50})
        absent = dict(config, **{section: {k: v for k, v in config[section].items() if k != key}})
        null = dict(config, **{section: dict(config[section], **{key: None})})
        for name, c in (("absent", absent), ("null", null)):
            path = write_config(tmp_path, c, f"{name}.json")
            result = runner.invoke(cli, ["run", "--config", str(path), "--out", str(tmp_path / name),
                                         "--no-svg"])
            assert result.exit_code == 0, result.output
        csv_name = f"{config['label']}.csv"
        assert ((tmp_path / "null" / csv_name).read_bytes()
                == (tmp_path / "absent" / csv_name).read_bytes())

    def test_null_required_parameter_exits_2(self, runner, tmp_path, runs):
        out = tmp_path / "out"
        result = runner.invoke(cli, ["run", "--config", str(write_config(tmp_path)),
                                     "--out", str(out), "--set", "optimizer.gamma=null"])
        assert result.exit_code == 2, result.output
        assert "invalid parameters for 'csawg'" in result.output and "gamma" in result.output
        assert runs == [] and not out.exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_label_utf8_cannot_encode_exits_2(self, runner, tmp_path, runs, command):
        path = write_config(tmp_path, dict(CONFIG, label="a\ud800b"))
        out = tmp_path / "out"
        result = runner.invoke(cli, [command, "--config", str(path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "label must be encodable as UTF-8" in result.output
        assert "Traceback" not in result.output
        assert runs == [] and not out.exists()


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

    def test_label_with_a_comma_or_quote_is_quoted(self, runner, tmp_path):
        path = write_config(tmp_path, dict(CONFIG, label='gd, "fast"'))
        out = tmp_path / "out"
        result = runner.invoke(cli, ["compare", "--config", str(path), "--out", str(out),
                                     "--no-svg"])
        assert result.exit_code == 0, result.output
        with open(out / "compare.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label", "iteration", "grad_evals", "error"]
        assert len(rows) > 1 and all(len(r) == 4 and r[0] == 'gd, "fast"' for r in rows[1:])

    def test_control_character_label_gives_a_parseable_chart(self, runner, tmp_path):
        path = write_config(tmp_path, dict(CONFIG, label="a\u0001b"))
        out = tmp_path / "out"
        result = runner.invoke(cli, ["compare", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 0, result.output
        texts = [t.text for t in ET.parse(out / "compare.svg").getroot().iter(f"{SVG_NS}text")]
        assert "a\ufffdb" in texts

    def test_writes_each_runs_csv(self, runner, tmp_path):
        a = write_config(tmp_path, CONFIG, "a.json")
        b = write_config(tmp_path, {k: v for k, v in CONFIG.items() if k != "label"}, "b.json")
        out = tmp_path / "out"
        result = runner.invoke(cli, ["compare", "--config", str(a), "--config", str(b),
                                     "--out", str(out), "--no-svg"])
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in out.iterdir()) == ["b.csv", "compare.csv", "convex-k2.csv"]
        solo = tmp_path / "solo"
        assert runner.invoke(cli, ["run", "--config", str(a), "--out", str(solo)]).exit_code == 0
        assert (out / "convex-k2.csv").read_bytes() == (solo / "convex-k2.csv").read_bytes()
        assert (out / "b.csv").read_bytes() == (solo / "convex-k2.csv").read_bytes()

    def test_failed_run_keeps_the_others(self, runner, tmp_path, runs):
        paths = [write_config(tmp_path, dict(CONFIG, label="first"), "first.json"),
                 write_config(tmp_path, STUCK, "stuck.json"),
                 write_config(tmp_path, dict(CONFIG, label="last"), "last.json")]
        out = tmp_path / "out"
        result = runner.invoke(cli, ["compare", *(f"--config={p}" for p in paths),
                                     "--out", str(out)])
        assert_failed_run(result, "stuck")
        assert len(runs) == 3
        assert "first: status=converged" in result.output
        assert "last: status=converged" in result.output
        assert sorted(p.name for p in out.iterdir()) == ["compare.csv", "compare.svg",
                                                         "first.csv", "last.csv"]
        labels = [line.split(",")[0] for line in (out / "compare.csv").read_text().splitlines()]
        assert set(labels[1:]) == {"first", "last"}

    @pytest.mark.parametrize("labels", [["same", "same"], ["a b", "a_b"], ["compare"]])
    def test_runs_sharing_a_path_exit_2(self, runner, tmp_path, runs, labels):
        paths = [write_config(tmp_path, dict(CONFIG, label=label), f"{i}.json")
                 for i, label in enumerate(labels)]
        out = tmp_path / "out"
        result = runner.invoke(cli, ["compare", *(f"--config={p}" for p in paths),
                                     "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "would both write" in result.output
        assert runs == []
        assert not out.exists()

    def test_bad_config_stops_before_any_run(self, runner, tmp_path, runs):
        good = dict(CONFIG, optimizer={"name": "heavy_ball", "gamma": 0.0009, "p": 0.5},
                    label="good")
        bad = dict(good, optimizer={"name": "heavy_ball", "gamma": 0.0009, "p": 1.0}, label="bad")
        paths = [write_config(tmp_path, good, "good.json"), write_config(tmp_path, bad, "bad.json")]
        out = tmp_path / "out"
        result = runner.invoke(cli, ["compare", "--config", str(paths[0]), "--config", str(paths[1]),
                                     "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "p must be in [0, 1), got 1.0" in result.output
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
        assert "p must be in [0, 1), got 1.0" in result.output
        assert runs == []
        assert not out.exists()

    def test_failed_run_keeps_the_others(self, runner, tmp_path, runs):
        out = tmp_path / "out"
        result = runner.invoke(cli, ["sweep", "--config", str(write_config(tmp_path, STUCK)),
                                     "--out", str(out), "--grid", "optimizer.f_star=-1,0"])
        assert_failed_run(result, "stuck[optimizer.f_star=-1]")
        assert len(runs) == 2
        assert "stuck[optimizer.f_star=0]" in result.output
        assert sorted(p.name for p in out.iterdir()) == ["stuck_optimizer.f_star_0.csv",
                                                         "sweep.svg"]

    @pytest.mark.parametrize("grid", ["optimizer.gamma=0.001,1e-3", "label=a b,a_b"])
    def test_runs_sharing_a_path_exit_2(self, runner, tmp_path, runs, grid):
        out = tmp_path / "out"
        result = runner.invoke(cli, ["sweep", "--config", str(write_config(tmp_path)),
                                     "--out", str(out), "--grid", grid])
        assert result.exit_code == 2, result.output
        assert "would both write" in result.output
        assert runs == []
        assert not out.exists()

    def test_json_array_values(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(cli, ["sweep", "--config", str(CONFIGS / "convex-planner.json"),
                                     "--out", str(out), "--no-svg",
                                     "--set", "budget.max_iterations=100",
                                     "--grid", "problem.w0=[1.0,1.0],[2.0,2.0]"])
        assert result.exit_code == 0, result.output
        assert "planner-k2[problem.w0=[2.0, 2.0]]" in result.output
        assert sorted(p.name for p in out.glob("*.csv")) == [
            "planner-k2_problem.w0_1.0_1.0.csv", "planner-k2_problem.w0_2.0_2.0.csv"]
        # w0 = w* = (1, 1) stays put; (2, 2) moves
        assert (out / "planner-k2_problem.w0_1.0_1.0.csv").read_text().splitlines()[1] == (
            "1,1,0.0,,")
        assert (out / "planner-k2_problem.w0_2.0_2.0.csv").read_text().splitlines()[1] != (
            "1,1,0.0,,")

    @pytest.mark.parametrize("depth, tail", [(40, "1.0" + "]" * 40), (100, "1.0" + "]" * 100),
                                             (100000, "")], ids=["40", "100", "100000-open"])
    def test_grid_nested_too_deep_exits_2(self, runner, tmp_path, runs, depth, tail):
        out = tmp_path / "out"
        result = runner.invoke(cli, ["sweep", "--config", str(write_config(tmp_path)),
                                     "--out", str(out), "--grid", "problem.w0=" + "[" * depth + tail])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Error: " in result.output and "Traceback" not in result.output
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

    def test_report_golden_bytes(self, runner, tmp_path):
        # sha256 of the report, measured on x86-64.  ``Q @ w`` rounds differently in
        # OpenBLAS's SkylakeX kernel and in its Haswell (AVX2) one, which Zen shares,
        # so the hash measured under each is accepted.
        golden = {"SkylakeX": "14a054ab133cec84e19b37cd41775acf3fc99ae4928228200bea3e8dc652319e",
                  "Haswell": "cfaf18245212cbdffad91346c1d409bf8349ded23f35d04dbe05ff2997521aa9"}
        result = runner.invoke(cli, ["verify", "--trials", "200", "--seed", "0",
                                     "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        digest = hashlib.sha256((tmp_path / "verify_report.json").read_bytes()).hexdigest()
        assert digest in golden.values()

    @pytest.mark.parametrize("args, message", [(["--trials", "0"], "trials"),
                                               (["--d-max", "0"], "d_max"),
                                               (["--d-max", "65"], "d_max")])
    def test_bad_argument_exits_2(self, runner, tmp_path, args, message):
        out = tmp_path / "out"
        result = runner.invoke(cli, ["verify", *args, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert message in result.output and "Traceback" not in result.output
        assert not out.exists()


    def test_failed_check_exits_1(self, runner, tmp_path, monkeypatch):
        failing = RateReport("scalar-rate", rho=0.5, bound=0.25, satisfied=False)
        passing = RateReport("diag-one-step", rho=0.0, bound=0.0, satisfied=True)
        monkeypatch.setattr(stepplan.cli, "verify_theorems", lambda **kw: [failing, passing])
        out = tmp_path / "out"
        result = runner.invoke(cli, ["verify", "--trials", "1", "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "check scalar-rate failed" in result.output
        assert "diag-one-step failed" not in result.output and "Traceback" not in result.output
        checks = json.loads((out / "verify_report.json").read_text())["checks"]
        assert checks["scalar-rate"]["failures"] == 1 and not checks["scalar-rate"]["passed"]


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

    def test_failed_run_keeps_the_others(self, runner, tmp_path, runs, monkeypatch):
        configs = [ExperimentConfig.from_dict(dict(CONFIG, label=label)) for label in "ab"]
        configs.insert(1, ExperimentConfig.from_dict(STUCK))
        monkeypatch.setitem(PRESETS, "stuck-preset", lambda: configs)
        out = tmp_path / "out"
        result = runner.invoke(cli, ["repro", "stuck-preset", "--out", str(out)])
        assert_failed_run(result, "stuck")
        assert len(runs) == 3
        assert "b: status=converged" in result.output
        assert sorted(p.name for p in (out / "stuck-preset").iterdir()) == [
            "a.csv", "a.svg", "b.csv", "b.svg", "overlay.svg"]


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
        # every option shows a description, whatever the line wrapping
        shown = " ".join(result.output.split())
        options = {opt: param for param in cli.commands[sub].params for opt in param.opts}
        for flag in flags:
            assert options[flag].help and " ".join(options[flag].help.split()) in shown, flag
