import math
import re

import numpy as np
import pytest

from convexproj.errors import ChartFailure
from convexproj.flags import config_from_fg
from convexproj.render import chart_point, render_config_svg


class TestChart:
    def test_affine_normalization(self):
        assert chart_point([1.0, 0.0, 0.0]) == pytest.approx((1.0, 0.0))
        assert chart_point([2.0, 2.0, 0.0]) == pytest.approx((0.5, 0.5))
        assert chart_point([1.0, -1.0, 1.0]) == pytest.approx((1.0, -1.0))

    def test_zero_sum_raises(self):
        with pytest.raises(ChartFailure):
            chart_point([1.0, -1.0, 0.0])
        with pytest.raises(ChartFailure):
            chart_point([1.0, -1.0, 1e-12])

    def test_valid_domain_points_always_chart(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            config = config_from_fg(
                rng.uniform(-2.5, 0.5, 3), rng.uniform(-2.5, 0.5, 3), rng.uniform(-1, 1)
            )
            for point in (*(flag.point for flag in config.inner_flags), *config.meets):
                chart_point(point)
            for outer in config.outer_points:
                chart_point(outer)


class TestSvgStructure:
    def test_counts(self):
        config = config_from_fg((-1.0,) * 3, (-1.0,) * 3, 0.0)
        svg = render_config_svg(config)
        assert svg.count("<polygon") == 4
        assert svg.count("<line") == 3
        assert svg.count("<text") == 6
        assert svg.startswith("<?xml")
        assert 'version="1.1"' in svg

    def test_labels_carry_homogeneous_coordinates(self):
        config = config_from_fg((-1.0,) * 3, (-1.0,) * 3, 0.0)
        svg = render_config_svg(config)
        assert "[1, 0, 0]" in svg
        assert f"[-1, {config.b1:.6g}, {config.c1:.6g}]" in svg


class TestGeometry:
    def test_order_three_symmetry_at_x_one(self):
        # with x = 1 and a fully symmetric tuple, cyclically permuting the
        # coordinates maps the drawn vertex set to itself
        config = config_from_fg((-0.7,) * 3, (-0.7,) * 3, 0.0)
        assert config.x == pytest.approx(1.0)
        vertices = [np.array(flag.point) for flag in config.inner_flags]
        vertices += [np.array(op) for op in config.outer_points]
        charted = sorted(chart_point(v) for v in vertices)
        rotated = sorted(chart_point(np.roll(v, 1)) for v in vertices)
        assert np.allclose(charted, rotated, atol=1e-12)

    def test_triangle_invariant_moves_outer_vertices(self):
        base = config_from_fg((-1.0,) * 3, (-1.0,) * 3, 0.0)
        moved = config_from_fg((-1.0,) * 3, (-1.0,) * 3, 2.0)
        assert moved.a3 == pytest.approx(base.a3 * math.exp(2.0), rel=1e-12)
        assert moved.c1 == pytest.approx(base.c1 * math.exp(-2.0), rel=1e-12)
        assert chart_point(moved.outer_points[2]) != pytest.approx(
            chart_point(base.outer_points[2])
        )

    @pytest.mark.parametrize("tau_plus", [0.0, 20.0, 28.0, 40.0])
    def test_flag_lines_run_along_their_points(self, tau_plus):
        # flag line i passes through inner vertex i and two meets; the drawn
        # segment must be parallel to every chord between them (svg y points down)
        config = config_from_fg((-1.0,) * 3, (-1.0,) * 3, tau_plus)
        (p1, p2, p3), (m13, m12, m23) = (f.point for f in config.inner_flags), config.meets
        svg = render_config_svg(config)
        drawn = re.findall(r'<line x1="(\S+)" y1="(\S+)" x2="(\S+)" y2="(\S+)"', svg)
        assert len(drawn) == 3
        for points, ends in zip([(p1, m13, m12), (p2, m12, m23), (p3, m13, m23)], drawn):
            x1, y1, x2, y2 = map(float, ends)
            along = np.array([x2 - x1, y1 - y2]) / math.hypot(x2 - x1, y2 - y1)
            first, *others = (np.array(chart_point(p)) for p in points)
            for other in others:
                chord = (other - first) / np.linalg.norm(other - first)
                assert abs(along[0] * chord[1] - along[1] * chord[0]) <= 1e-4
