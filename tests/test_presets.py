import json

import pytest

from stepplan.cli import _slug
from stepplan.harness import _prepare
from stepplan.presets import PRESETS


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
