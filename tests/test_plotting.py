"""SVG emission: determinism, the two-axis styling convention, the points'
bytes against the per-point formula, and which points a dense curve keeps."""

import math
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


def m4(xs, ys):
    """The indices of the points the plot keeps, point by point: of each run
    of points in one pixel column ``floor(x)``, all if at most 4, else the
    first, the last, the first lowest and the first highest ``y`` (nan
    aside), and every non-finite ``y``."""
    kept, start = set(), 0
    for end in range(1, len(xs) + 1):
        if end < len(xs) and math.floor(xs[end]) == math.floor(xs[start]):
            continue
        run = range(start, end)
        if len(run) <= 4:
            kept.update(run)
        else:
            kept.update({start, end - 1, *(i for i in run if not math.isfinite(ys[i]))})
            numbers = [i for i in run if not math.isnan(ys[i])]
            if numbers:
                kept.update({min(numbers, key=ys.__getitem__), max(numbers, key=ys.__getitem__)})
        start = end
    return sorted(kept)


def reference_points(times, curves):
    """The per-point formula of the original writer, kept as the byte
    reference and applied to the points ``m4`` keeps: each curve's polyline
    points and each axis's (lo, hi)."""
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
    xs = [64 + (t - x0) / (x1 - x0) * 632 for t in times]
    for c in curves:
        lo, hi = scales["right" if c.secondary else "left"]
        ys = [56 + (hi - v) / (hi - lo) * 336 for v in c.values]
        points.append(" ".join(f"{xs[i]:.2f},{ys[i]:.2f}" for i in m4(xs, ys)))
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
    # printed digits of some points; 10 points per pixel column, so it thins
    (np.concatenate([[0.0], np.arange(6320) / 10 + 0.005, [632.0]]),
     lambda as_array: [Curve("ties", TIES if as_array else TIES.tolist())]),
], ids=["random", "off-grid", "two-points", "constant", "negative-right", "ties"])
def test_points_and_axes_match_the_per_point_formula(times, curves, as_array):
    curves = curves(as_array)
    svg = emit_svg_plot(times, curves, title="t")
    points, scales = reference_points(times, curves)
    assert re.findall(r'<polyline points="([^"]*)"', svg) == points
    # a plot of at most 4 points per pixel column keeps them all
    columns = np.floor(64 + (times - times[0]) / (times[-1] - times[0]) * 632)
    dense = np.unique(columns, return_counts=True)[1].max() > 4
    assert all((len(p.split()) < len(times)) == dense for p in points)
    for lo, hi in scales.values():
        for i in range(5):
            assert f">{lo + (hi - lo) * i / 4.0:.6g}</text>" in svg
    assert svg == emit_svg_plot(times.tolist(), [Curve(c.label, list(c.values), c.secondary) for c in curves],
                                title="t")


def polylines(svg):
    return [points.split() for points in re.findall(r'<polyline points="([^"]*)"', svg)]


def test_each_dropped_point_lies_inside_what_its_column_keeps():
    """A random walk of 10 points per pixel column thins to at most 4 per
    column, and each point left out lies, in y, within the range of the
    points its column keeps, and, in x, between its column's first and last
    kept points."""
    n = 6321
    times = np.linspace(0.0, 10.0, n)
    values = np.cumsum(np.random.default_rng(11).normal(size=n)) + 50.0 * np.sin(times)
    [points] = polylines(emit_svg_plot(times, [Curve("walk", values)]))
    x = 64 + (times - 0.0) / 10.0 * 632
    lo, hi = min(values.min(), 0.0), values.max()
    y = 56 + (hi - values) / (hi - lo) * 336
    # the printed x lie 0.1 pixel apart, so each names its point
    kept = np.rint((np.array([float(p.split(",")[0]) for p in points]) - 64) * 10).astype(int)
    assert points == [f"{x[i]:.2f},{y[i]:.2f}" for i in kept]
    assert kept[0] == 0 and kept[-1] == n - 1 and (np.diff(kept) > 0).all()
    columns = np.floor(x)
    for column in np.unique(columns):
        members = np.flatnonzero(columns == column)
        ours = np.intersect1d(members, kept)
        assert min(len(members), 2) <= len(ours) <= 4
        dropped = np.setdiff1d(members, ours)
        assert ((y[dropped] >= y[ours].min()) & (y[dropped] <= y[ours].max())).all()
        assert ((dropped > ours[0]) & (dropped < ours[-1])).all()
    assert len(kept) < n / 2


def test_a_non_finite_value_is_never_thinned_away():
    """A nan on an axis makes that axis's every y nan, and all those points
    stay; a -inf value turns its own point's y nan (and every other y the axis
    top), and those two points stay while the flat rest thins."""
    n = 6321  # 10 points per pixel column
    times = np.linspace(0.0, 1.0, n)
    x = [f"{64 + t * 632:.2f}" for t in times.tolist()]
    values = np.sin(np.arange(n) / 50.0)
    with_nan, with_minus_inf = values.copy(), values.copy()
    with_nan[17] = math.nan
    with_minus_inf[[17, 3000]] = -math.inf
    with np.errstate(invalid="ignore"):  # -inf makes the axis span inf, and inf / inf is nan
        svg = emit_svg_plot(times, [Curve("-inf", with_minus_inf), Curve("nan", with_nan, secondary=True)])
    minus_inf, nan = polylines(svg)
    assert nan == [f"{px},nan" for px in x]
    assert [p for p in minus_inf if not p.endswith(",56.00")] == [f"{x[17]},nan", f"{x[3000]},nan"]
    assert len(minus_inf) < n / 2
