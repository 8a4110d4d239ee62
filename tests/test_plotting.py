"""SVG emission: determinism, the two-axis styling convention, and the
points' bytes against the per-point formula."""

import re

import numpy as np
import pytest

from dualsim.errors import ConfigError
from dualsim.plotting import Curve, emit_svg_plot


class TestEmitSvgPlot:
    def test_constant_series_is_horizontal_polyline(self):
        svg = emit_svg_plot([0.0, 1.0, 2.0], [Curve("tumour", [4.0, 4.0, 4.0])])
        polyline = [line for line in svg.splitlines() if line.startswith("<polyline")][0]
        points = polyline.split('points="')[1].split('"')[0].split()
        ys = {p.split(",")[1] for p in points}
        assert len(ys) == 1

    def test_two_axes_two_styles(self):
        svg = emit_svg_plot(
            [0.0, 1.0],
            [
                Curve("tumour", [1.0, 2.0]),
                Curve("effector", [5.0, 6.0], secondary=True),
            ],
        )
        polylines = [line for line in svg.splitlines() if line.startswith("<polyline")]
        assert len(polylines) == 2
        assert "stroke-dasharray" not in polylines[0]  # tumour: solid, left
        assert "stroke-dasharray" in polylines[1]  # effector: dotted, right
        assert "tumour (left)" in svg and "effector (right)" in svg
        # both vertical axes are drawn
        assert svg.count('y2="392"') >= 2

    def test_byte_identical_for_identical_input(self):
        curves = [Curve("tumour", [1.0, 3.0, 2.0])]
        a = emit_svg_plot([0.0, 0.5, 1.0], curves, title="t")
        b = emit_svg_plot([0.0, 0.5, 1.0], curves, title="t")
        assert a == b

    def test_empty_series_set_errors(self):
        with pytest.raises(ConfigError):
            emit_svg_plot([0.0, 1.0], [])

    def test_length_mismatch_errors(self):
        with pytest.raises(ConfigError):
            emit_svg_plot([0.0, 1.0], [Curve("x", [1.0])])

    def test_escapes_markup(self):
        svg = emit_svg_plot([0.0, 1.0], [Curve("a<b&c", [0.0, 1.0])], title="x<y")
        assert "a&lt;b&amp;c" in svg
        assert "x&lt;y" in svg


def reference_points(times, curves):
    """The per-point formula of the original writer, kept as the byte
    reference: each curve's polyline points and each axis's (lo, hi)."""
    times = [float(t) for t in times]
    x0, x1 = times[0], times[-1]
    scales = {}
    for axis, members in (("left", [c for c in curves if not c.secondary]),
                          ("right", [c for c in curves if c.secondary])):
        if members:
            lo = min(min(min(c.values) for c in members), 0.0)
            hi = max(max(c.values) for c in members)
            scales[axis] = (lo, hi if hi > lo else lo + 1.0)
    points = []
    for c in curves:
        lo, hi = scales["right" if c.secondary else "left"]
        points.append(" ".join(
            f"{64 + (t - x0) / (x1 - x0) * 632:.2f},{56 + (hi - v) / (hi - lo) * 336:.2f}"
            for t, v in zip(times, c.values)
        ))
    return points, scales


# 0, the axis top 336 = plot_h, and values at half cents: y = 392 - v
TIES = np.concatenate([[0.0, 336.0], (np.arange(6320) * 5 + 0.5) / 100])


def random_curves(rng, n, as_array):
    series = [rng.uniform(0, 1e4, n), rng.normal(0, 1, n) * 10.0 ** rng.uniform(-3, 3, n),
              rng.uniform(-5, 50, n), np.full(n, 7.25)]
    return [Curve(f"c{i}", values if as_array else values.tolist(), secondary=i % 2 == 1)
            for i, values in enumerate(series)]


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "ndarray"])
@pytest.mark.parametrize("times, curves", [
    (np.linspace(0.0, 100.0, 2001), lambda as_array: random_curves(np.random.default_rng(3), 2001, as_array)),
    (np.arange(0.0, 7.0, 1 / 3), lambda as_array: random_curves(np.random.default_rng(4), 21, as_array)),
    (np.array([0.0, 0.1]), lambda as_array: random_curves(np.random.default_rng(5), 2, as_array)),
    (np.linspace(0.0, 1.0, 11), lambda as_array: [Curve("flat", np.full(11, 4.0) if as_array else [4.0] * 11)]),
    (np.linspace(0.0, 1.0, 11), lambda as_array: [Curve("negative", -np.linspace(1, 3, 11) if as_array
                                                        else (-np.linspace(1, 3, 11)).tolist(), secondary=True)]),
    # pixels on half cents, where reordering the arithmetic changes the
    # printed digits of some points
    (np.concatenate([[0.0], np.arange(6320) / 10 + 0.005, [632.0]]),
     lambda as_array: [Curve("ties", TIES if as_array else TIES.tolist())]),
], ids=["random", "off-grid", "two-points", "constant", "negative-right", "ties"])
def test_points_and_axes_match_the_per_point_formula(times, curves, as_array):
    curves = curves(as_array)
    svg = emit_svg_plot(times, curves, title="t")
    points, scales = reference_points(times, curves)
    assert re.findall(r'<polyline points="([^"]*)"', svg) == points
    for lo, hi in scales.values():
        for i in range(5):
            assert f">{lo + (hi - lo) * i / 4.0:.6g}</text>" in svg
    assert svg == emit_svg_plot(times.tolist(), [Curve(c.label, list(c.values), c.secondary) for c in curves],
                                title="t")
