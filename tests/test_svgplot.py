import math
import random
import re
import xml.etree.ElementTree as ET

import pytest

from stepplan.core import EvalBudget
from stepplan.harness import ExperimentConfig, run_experiment
from stepplan.svgplot import (HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH, Y_FLOOR,
                              render_svg, render_traces)

SVG_NS = "{http://www.w3.org/2000/svg}"


def series():
    xs = list(range(1, 51))
    return [
        ("fast", xs, [0.5 ** k for k in xs]),
        ("slow", xs, [0.9 ** k for k in xs]),
    ]


def test_output_is_valid_svg_with_polylines(tmp_path):
    path = tmp_path / "chart.svg"
    render_svg(series(), path)
    root = ET.parse(path).getroot()
    assert root.tag == f"{SVG_NS}svg"
    polylines = root.findall(f"{SVG_NS}polyline")
    assert len(polylines) == 2
    texts = [t.text for t in root.findall(f"{SVG_NS}text")]
    assert "fast" in texts and "slow" in texts
    # log decade ticks present
    assert any(t and t.startswith("1e") for t in texts)


def test_label_is_escaped(tmp_path):
    path = tmp_path / "chart.svg"
    render_svg([("a<b & c", [1, 2], [1.0, 0.5])], path)
    texts = [t.text for t in ET.parse(path).getroot().findall(f"{SVG_NS}text")]
    assert "a<b & c" in texts


@pytest.mark.parametrize("label, shown", [
    ("a\x01b", "a\ufffdb"),
    ("a\x00\x08\x0b\x0c\x1fb", "a" + "\ufffd" * 5 + "b"),
    ("a\ud800b\udfff", "a\ufffdb\ufffd"),
    ("a\ufffe\uffffb", "a\ufffd\ufffdb"),
    ("tab\there", "tab\there"),
])
def test_label_characters_xml_cannot_hold_are_replaced(tmp_path, label, shown):
    path = tmp_path / "chart.svg"
    render_svg([(label, [1, 2], [1.0, 0.5])], path)
    texts = [t.text for t in ET.parse(path).getroot().findall(f"{SVG_NS}text")]
    assert shown in texts


def test_byte_identical_across_renders(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_svg(series(), a)
    render_svg(series(), b)
    assert a.read_bytes() == b.read_bytes()


def test_zero_errors_are_clamped(tmp_path):
    path = tmp_path / "zero.svg"
    render_svg([("dead", [1, 2, 3], [1.0, 0.0, 0.0])], path)
    content = path.read_text()
    assert "NaN" not in content and "inf" not in content


def test_non_finite_points_are_left_out(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_svg([("boom", [1, 2, 3], [1.0, 0.5, float("inf")]),
                ("nan", [1, 2], [0.1, float("nan")]), ("gone", [1], [float("inf")])], a)
    render_svg([("boom", [1, 2], [1.0, 0.5]), ("nan", [1], [0.1]), ("gone", [], [])], b)
    assert a.read_bytes() == b.read_bytes()
    assert len(ET.parse(a).getroot().findall(f"{SVG_NS}polyline")) == 2


@pytest.mark.parametrize("series, message", [
    ([("a", [0, math.nan, 2], [1.0, 0.5, 0.25])], "series 'a' has a non-finite x value"),
    ([("a", [math.nan, 1, 2], [1.0, 0.5, 0.25])], "series 'a' has a non-finite x value"),
    ([("ok", [1], [1.0]), ("b", [0, math.inf], [1.0, math.inf])],
     "series 'b' has a non-finite x value"),
    ([("a", [-1.7e308, 1.7e308], [1.0, 1.0])], "series 'a' span more than the float range"),
    ([("lo", [-1.7e308], [1.0]), ("ok", [0], [1.0]), ("hi", [1.7e308], [1.0])],
     "series 'lo', 'hi' span more than the float range"),
    ([("a", [1.7976931348623157e308], [1.0])], "series 'a' span more than the float range"),
    ([("a", [1, 2], [1.0])], "series 'a' has mismatched lengths"),
], ids=["nan-inside", "nan-first", "inf", "overflowing-extent", "extent-across-series",
        "one-value-at-the-float-maximum", "mismatched-lengths"])
def test_non_finite_or_overflowing_x_is_rejected(tmp_path, series, message):
    path = tmp_path / "x.svg"
    with pytest.raises(ValueError, match=re.escape(message)):
        render_svg(series, path)
    assert not path.exists()


def test_one_valued_series_at_any_magnitude(tmp_path):
    # log10 of a clamped value lies in [-16, 308.3], so widening a flat
    # y range by one decade never rounds back onto itself
    path = tmp_path / "flat.svg"
    for y in (1e40, 2.0 ** 60, 1.7e308, 0.0):
        render_svg([("flat", [1, 2], [y, y])], path)
        assert len(ET.parse(path).getroot().findall(f"{SVG_NS}polyline")) == 1


@pytest.mark.parametrize("xs", [[1e16, 1e16 + 2], [1e300], [2.0 ** 53], [0.0, 5e-324],
                                [0.0, 3e-323], [-1.7e308]],
                         ids=["step-below-ulp", "one-huge", "one-at-2^53", "subnormal-span",
                              "subnormal-step", "one-hugely-negative"])
def test_x_extent_at_the_float_limits_plots(tmp_path, xs):
    # the 1-2-5 tick step may be below half an ulp of the ticks, and the
    # span over 6 may round to zero or to a subnormal
    path = tmp_path / "x.svg"
    render_svg([("a", xs, [1.0] * len(xs))], path)
    root = ET.parse(path).getroot()
    assert len(root.findall(f"{SVG_NS}polyline")) == 1
    ticks = [t for t in root.findall(f"{SVG_NS}text") if t.get("text-anchor") == "middle"
             and t.text not in ("gradient evaluations", "error")]
    assert 1 <= len(ticks) <= 7 and "nan" not in path.read_text()
    labels = [t.text for t in ticks]
    assert len(set(labels)) == len(labels)


def test_render_traces_from_runs(tmp_path):
    c = ExperimentConfig(problem={"name": "rosenbrock"},
                         optimizer={"name": "gd", "gamma": 0.001},
                         budget=EvalBudget(max_iterations=100, error_floor=None),
                         label="gd")
    trace = run_experiment(c)
    path = tmp_path / "run.svg"
    render_traces([("gd", trace)], path)
    root = ET.parse(path).getroot()
    assert len(root.findall(f"{SVG_NS}polyline")) == 1


TWO_SERIES_SVG = """\
<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="760" height="480" viewBox="0 0 760 480">
<rect x="0" y="0" width="760" height="480" fill="white"/>
<path d="M 70.00 20.00 L 70.00 435.00 L 590.00 435.00" stroke="black" fill="none" stroke-width="1"/>
<line x1="66.00" y1="435.00" x2="70.00" y2="435.00" stroke="black"/>
<text x="62.00" y="438.00" font-size="11" font-family="sans-serif" text-anchor="end">1e-2</text>
<line x1="66.00" y1="254.65" x2="70.00" y2="254.65" stroke="black"/>
<text x="62.00" y="257.65" font-size="11" font-family="sans-serif" text-anchor="end">1e-1</text>
<line x1="66.00" y1="74.29" x2="70.00" y2="74.29" stroke="black"/>
<text x="62.00" y="77.29" font-size="11" font-family="sans-serif" text-anchor="end">1e0</text>
<line x1="144.29" y1="435.00" x2="144.29" y2="439.00" stroke="black"/>
<text x="144.29" y="451.00" font-size="11" font-family="sans-serif" text-anchor="middle">2</text>
<line x1="292.86" y1="435.00" x2="292.86" y2="439.00" stroke="black"/>
<text x="292.86" y="451.00" font-size="11" font-family="sans-serif" text-anchor="middle">4</text>
<line x1="441.43" y1="435.00" x2="441.43" y2="439.00" stroke="black"/>
<text x="441.43" y="451.00" font-size="11" font-family="sans-serif" text-anchor="middle">6</text>
<line x1="590.00" y1="435.00" x2="590.00" y2="439.00" stroke="black"/>
<text x="590.00" y="451.00" font-size="11" font-family="sans-serif" text-anchor="middle">8</text>
<text x="330.00" y="472.00" font-size="12" font-family="sans-serif" text-anchor="middle">gradient evaluations</text>
<text x="14" y="227.50" font-size="12" font-family="sans-serif" text-anchor="middle" transform="rotate(-90 14 227.50)">error</text>
<polyline points="70.00,74.29 144.29,182.88 292.86,308.94 590.00,435.00" fill="none" stroke="#1f77b4" stroke-width="1.5"/>
<line x1="602.00" y1="30.00" x2="620.00" y2="30.00" stroke="#1f77b4" stroke-width="2"/>
<text x="626.00" y="34.00" font-size="11" font-family="sans-serif">fast</text>
<polyline points="70.00,20.00 218.57,42.53 367.14,82.54 590.00,128.58" fill="none" stroke="#d62728" stroke-width="1.5"/>
<line x1="602.00" y1="46.00" x2="620.00" y2="46.00" stroke="#d62728" stroke-width="2"/>
<text x="626.00" y="50.00" font-size="11" font-family="sans-serif">slow</text>
</svg>
"""


def test_golden_bytes_two_series(tmp_path):
    path = tmp_path / "two.svg"
    render_svg([("fast", [1, 2, 4, 8], [1.0, 0.25, 0.05, 0.01]),
                ("slow", [1, 3, 5, 8], [2.0, 1.5, 0.9, 0.5])], path)
    assert path.read_bytes() == TWO_SERIES_SVG.encode()


def reference_points(series):
    """Each drawn series' log-y polyline points, one f-string per point."""
    kept = []
    for _, xs, ys in series:
        pts = [(float(x), math.log10(max(float(y), Y_FLOOR))) for x, y in zip(xs, ys)]
        kept.append([(x, y) for x, y in pts if math.isfinite(y)])
    flat = [p for pts in kept for p in pts]
    if flat:
        x_lo, x_hi = min(x for x, _ in flat), max(x for x, _ in flat)
        y_lo, y_hi = min(y for _, y in flat), max(y for _, y in flat)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    return [" ".join(f"{MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w:.2f},"
                     f"{MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h:.2f}" for x, y in pts)
            for pts in kept if pts]


def test_polyline_points_match_per_point_formatting(tmp_path):
    rng = random.Random(20240611)
    specials = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, -2.5, 1e300, 1.7e308,
                5e-324]
    path = tmp_path / "fuzz.svg"
    for _ in range(300):
        series = []
        for idx in range(rng.randint(1, 3)):
            n = rng.choice([0, 1, 2, rng.randint(0, 500)])
            if rng.random() < 0.5:
                xs = sorted(rng.randint(0, n // 3 + 1) for _ in range(n))  # repeated x values
            else:
                xs = [rng.uniform(-1e6, 1e6) for _ in range(n)]
            ys = [rng.choice(specials) if rng.random() < 0.1 else 10.0 ** rng.uniform(-40, 40)
                  for _ in range(n)]
            series.append((f"s{idx}", xs, ys))
        render_svg(series, path)
        drawn = re.findall(r'<polyline points="([^"]*)"', path.read_text())
        assert drawn == reference_points(series)
