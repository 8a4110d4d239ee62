"""SVG emission: determinism and the two-axis styling convention."""

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
