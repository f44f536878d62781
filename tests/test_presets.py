import hashlib
import json

import pytest

from stepplan.cli import _slug
from stepplan.harness import _prepare, run_experiment
from stepplan.presets import PRESETS
from stepplan.tracing import write_csv


@pytest.mark.parametrize("name, size", [("convex-fig4", 6), ("rosenbrock-fig6", 10),
                                        ("rosenbrock-p5-fig8", 3),
                                        ("rosenbrock-adam-fig10", 36)])
def test_preset_builds_without_running(name, size):
    configs = PRESETS[name]()
    assert len(configs) == size
    labels = [cfg.label for cfg in configs]
    assert len(set(labels)) == size
    assert len({_slug(label) for label in labels}) == size  # one CSV per run
    assert len({json.dumps(cfg.problem, sort_keys=True) for cfg in configs}) == 1
    for cfg in configs:
        assert callable(_prepare(cfg))  # builds the problem, objective and stepper


class TestConvexFig4Bytes:
    """sha256 of the ``convex-fig4`` planner CSVs that ``stepplan repro`` writes,
    measured on x86-64.  The quadratic's ``Q @ w`` rounds differently in
    OpenBLAS's SkylakeX kernel and in its Haswell (AVX2) one, which Zen shares,
    so each case accepts the hash measured under each."""

    @pytest.mark.parametrize("label,golden", [
        ("csawg K2",
         {"SkylakeX": "e335703a9489073283585c87a30c12782f8b9331e45f018be132efd332b6bd87",
          "Haswell": "c2f0698c730ca8be66e8d64cea06c6f7a977776322aec423ad743442a9c5668b"}),
        ("csawg K10",
         {"SkylakeX": "f5cf09cd9b42ff5b35e00c2b7c8284db038766106347ec9afeff135d3adace77",
          "Haswell": "52a30671cfb473ae8757540b489c55860133d304f09a479e11cde3fa1bbf30bb"}),
    ], ids=["K2", "K10"])
    def test_planner_csv_golden_bytes(self, tmp_path, label, golden):
        (cfg,) = [cfg for cfg in PRESETS["convex-fig4"]() if cfg.label == label]
        write_csv(run_experiment(cfg), tmp_path / "t.csv")
        assert hashlib.sha256((tmp_path / "t.csv").read_bytes()).hexdigest() in golden.values()
