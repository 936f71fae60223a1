import math

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
                chart_point(outer.coords)


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
        vertices += [np.array(op.coords) for op in config.outer_points]
        charted = sorted(chart_point(v) for v in vertices)
        rotated = sorted(chart_point(np.roll(v, 1)) for v in vertices)
        assert np.allclose(charted, rotated, atol=1e-12)

    def test_triangle_invariant_moves_outer_vertices(self):
        base = config_from_fg((-1.0,) * 3, (-1.0,) * 3, 0.0)
        moved = config_from_fg((-1.0,) * 3, (-1.0,) * 3, 2.0)
        assert moved.a3 == pytest.approx(base.a3 * math.exp(2.0), rel=1e-12)
        assert moved.c1 == pytest.approx(base.c1 * math.exp(-2.0), rel=1e-12)
        assert chart_point(moved.outer_points[2].coords) != pytest.approx(
            chart_point(base.outer_points[2].coords)
        )
