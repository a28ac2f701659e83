import math
import random

import pytest
from hypothesis import given, settings

from utm_sim.geom2d import (
    Bounds,
    Vec2,
    distance,
    normalize_angle,
    point_in_rect,
    point_rect_distance,
    point_segment_distance,
    segment_intersects_rect,
    segments_intersect,
)
from utm_sim.obstacle_field import RectObstacle
from utm_sim.params import Params
from utm_sim.rrt_planner import _clearance_limit, _first_blocker

from rect_oracle import axis_gap, oracle_segment_rect_distance, segment_rect_cases
from vo_oracle import angle_of


def rect(cx, cy, w, h, rid="r"):
    return RectObstacle(Vec2(cx, cy), w, h, rid)


class TestVec2:
    def test_arithmetic(self):
        a, b = Vec2(1.0, 2.0), Vec2(3.0, -4.0)
        assert a - b == Vec2(-2.0, 6.0)
        with pytest.raises(ValueError):
            Vec2(1e308, 0.0) - Vec2(-1e308, 0.0)  # the difference overflows

    def test_norm_and_is_zero(self):
        # the zero vector, -0.0 included, has no direction; the least nonzero one has
        assert Vec2(3.0, 4.0).norm() == 5.0
        for zero in (Vec2(0.0, 0.0), Vec2(-0.0, 0.0)):
            with pytest.raises(ValueError, match="zero vector"):
                angle_of(zero)
        assert angle_of(Vec2(0.0, 5e-324)) == math.pi / 2

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Vec2(math.nan, 0.0)
        with pytest.raises(ValueError):
            Vec2(0.0, math.inf)

    def test_integer_too_large_for_a_float_is_value_error(self):
        with pytest.raises(ValueError, match="must be finite"):
            Vec2(10**400, 0)
        with pytest.raises(ValueError, match="must be finite"):
            Vec2(0.0, -10**400)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Vec2(1.0, 2.0).x = 3.0  # type: ignore[misc]


class TestAngles:
    def test_normalize_range_and_fixed_points(self):
        assert normalize_angle(0.0) == 0.0
        assert normalize_angle(math.pi) == math.pi
        # convention: half-open interval, -pi folds to +pi
        assert normalize_angle(-math.pi) == math.pi
        assert normalize_angle(3.0 * math.pi) == pytest.approx(math.pi)
        assert normalize_angle(math.tau) == 0.0

    def test_normalize_idempotent_and_in_range(self):
        rng = random.Random(7)
        for _ in range(2000):
            a = rng.uniform(-50.0, 50.0)
            n = normalize_angle(a)
            assert -math.pi < n <= math.pi
            assert normalize_angle(n) == n
            # same direction as the input angle
            assert math.isclose(math.cos(n), math.cos(a), abs_tol=1e-12)
            assert math.isclose(math.sin(n), math.sin(a), abs_tol=1e-12)

    def test_angle_of_quadrants(self):
        assert angle_of(Vec2(1.0, 0.0)) == 0.0
        assert angle_of(Vec2(0.0, 1.0)) == pytest.approx(math.pi / 2)
        assert angle_of(Vec2(-1.0, 0.0)) == math.pi
        assert angle_of(Vec2(0.0, -1.0)) == pytest.approx(-math.pi / 2)
        assert angle_of(Vec2(1.0, 1.0)) == pytest.approx(math.pi / 4)
        assert angle_of(Vec2(-1.0, -1.0)) == pytest.approx(-3 * math.pi / 4)

    def test_angle_of_sign_matches_components(self):
        rng = random.Random(11)
        for _ in range(2000):
            v = Vec2(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if v.x == 0.0 and v.y == 0.0:
                continue
            a = angle_of(v)
            assert math.copysign(1.0, math.sin(a)) == math.copysign(1.0, v.y) or v.y == 0.0
            d = v.norm()
            assert math.isclose(d * math.cos(a), v.x, abs_tol=1e-9 * max(1.0, d))
            assert math.isclose(d * math.sin(a), v.y, abs_tol=1e-9 * max(1.0, d))

    def test_angle_of_zero_raises(self):
        with pytest.raises(ValueError):
            angle_of(Vec2(0.0, 0.0))


class TestDistance:
    def test_basic(self):
        assert distance(Vec2(0.0, 0.0), Vec2(3.0, 4.0)) == 5.0
        assert distance(Vec2(1.0, 1.0), Vec2(1.0, 1.0)) == 0.0

    def test_symmetry_and_triangle_inequality(self):
        rng = random.Random(3)
        for _ in range(1000):
            pts = [Vec2(rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(3)]
            a, b, c = pts
            assert distance(a, b) == distance(b, a)
            assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


class TestBounds:
    def test_contains_is_closed(self):
        # the planner tests the workspace with the obstacles' closed-box rule
        b = Bounds(0.0, 0.0, 10.0, 20.0)
        assert point_in_rect(Vec2(0.0, 0.0), b)
        assert point_in_rect(Vec2(10.0, 20.0), b)
        assert point_in_rect(Vec2(5.0, 5.0), b)
        assert not point_in_rect(Vec2(-0.001, 5.0), b)
        assert not point_in_rect(Vec2(5.0, 20.001), b)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Bounds(0.0, 0.0, 0.0, 10.0)

    @pytest.mark.parametrize("i", range(4))
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_rejects_non_finite(self, i, value):
        corners = [0.0, 0.0, 10.0, 20.0]
        corners[i] = value
        with pytest.raises(ValueError, match="finite"):
            Bounds(*corners)

    def test_rejects_integer_too_large_for_a_float(self):
        with pytest.raises(ValueError, match=r"^bounds\.max_x must be finite, got an integer "
                                             "too large for a float$"):
            Bounds(0, 0, 10**400, 1)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_rejects_extent_that_overflows(self, axis):
        # each corner is finite, but max - min is not: sampling would draw inf
        lo, hi = (-1e308, -1e308, 1e308, 1e308), (0.0, 0.0, 10.0, 10.0)
        corners = [lo[i] if (i % 2 == 0) == (axis == "x") else hi[i] for i in range(4)]
        with pytest.raises(ValueError, match="bounds extent must be finite"):
            Bounds(*corners)


class TestPointRectDistance:
    def test_regions(self):
        r = rect(0.0, 0.0, 20.0, 10.0)  # x in [-10, 10], y in [-5, 5]
        assert point_rect_distance(Vec2(0.0, 0.0), r) == 0.0  # inside
        assert point_rect_distance(Vec2(10.0, 5.0), r) == 0.0  # corner on boundary
        assert point_rect_distance(Vec2(15.0, 0.0), r) == 5.0  # right face
        assert point_rect_distance(Vec2(0.0, -9.0), r) == 4.0  # bottom face
        assert point_rect_distance(Vec2(13.0, 9.0), r) == 5.0  # 3-4-5 off the corner


class TestSegments:
    def test_point_segment(self):
        a, b = Vec2(0.0, 0.0), Vec2(10.0, 0.0)
        assert point_segment_distance(Vec2(5.0, 3.0), a, b) == 3.0
        assert point_segment_distance(Vec2(-4.0, 3.0), a, b) == 5.0  # clamps to endpoint
        assert point_segment_distance(Vec2(5.0, 0.0), a, b) == 0.0
        assert point_segment_distance(Vec2(2.0, 2.0), a, a) == pytest.approx(math.hypot(2, 2))

    def test_segments_intersect_cases(self):
        z = Vec2(0.0, 0.0)
        assert segments_intersect(z, Vec2(10, 10), Vec2(0, 10), Vec2(10, 0))
        assert not segments_intersect(z, Vec2(1, 1), Vec2(2, 2), Vec2(3, 3))  # collinear, disjoint
        assert segments_intersect(z, Vec2(2, 2), Vec2(1, 1), Vec2(3, 3))  # collinear, overlapping
        assert segments_intersect(z, Vec2(1, 0), Vec2(1, 0), Vec2(2, 0))  # endpoint touch
        assert not segments_intersect(z, Vec2(1, 0), Vec2(0, 1), Vec2(1, 1))  # parallel


class TestSegmentRect:
    def setup_method(self):
        self.r = rect(50.0, 50.0, 20.0, 20.0)  # x,y in [40, 60]

    def test_crossing_segment(self):
        assert oracle_segment_rect_distance(Vec2(0, 50), Vec2(100, 50), self.r) == 0.0
        assert segment_intersects_rect(Vec2(0, 50), Vec2(100, 50), self.r, 0.0)

    def test_endpoint_inside(self):
        assert oracle_segment_rect_distance(Vec2(50, 50), Vec2(200, 200), self.r) == 0.0

    def test_clear_segment_distance(self):
        # horizontal segment passing 10 above the rect
        d = oracle_segment_rect_distance(Vec2(0, 70), Vec2(100, 70), self.r)
        assert d == pytest.approx(10.0)
        assert not segment_intersects_rect(Vec2(0, 70), Vec2(100, 70), self.r, 9.999)
        assert segment_intersects_rect(Vec2(0, 70), Vec2(100, 70), self.r, 10.0)

    def test_degenerate_point_segment(self):
        p = Vec2(70.0, 50.0)
        assert oracle_segment_rect_distance(p, p, self.r) == pytest.approx(10.0)

    def test_inflation_must_be_non_negative(self):
        with pytest.raises(ValueError):
            segment_intersects_rect(Vec2(0, 0), Vec2(1, 1), self.r, -0.1)

    def test_matches_sampled_oracle(self):
        # Randomized cross-check: the exact predicate must agree with a dense
        # sampling of the segment, except within the sampler's own resolution
        # band around the decision threshold.
        rng = random.Random(2024)
        r = self.r
        inflation = 12.0
        checked = 0
        for _ in range(1000):
            p = Vec2(rng.uniform(-20, 120), rng.uniform(-20, 120))
            q = Vec2(rng.uniform(-20, 120), rng.uniform(-20, 120))
            seg_len = distance(p, q)
            samples = 1000
            d_min = min(
                point_rect_distance(
                    Vec2(p.x + (q.x - p.x) * (i / (samples - 1)),
                         p.y + (q.y - p.y) * (i / (samples - 1))), r)
                for i in range(samples)
            )
            # sampling can miss the true closest approach by about half a gap
            band = seg_len / (samples - 1) + 1e-9
            if abs(d_min - inflation) <= band:
                continue
            checked += 1
            assert segment_intersects_rect(p, q, r, inflation) == (d_min < inflation), \
                f"disagreement for {p} -> {q}: sampled min {d_min}"
        assert checked > 800  # the band must not eat the test


class TestExactTest:
    @settings(max_examples=500, deadline=None)
    @given(case=segment_rect_cases())
    def test_equals_oracle(self, case):
        # the first-witness test decides the oracle's `<=` on random segments and
        # on points, touching corners, edge-collinear and inside endpoints
        p, q, r, inflation = case
        assert (segment_intersects_rect(p, q, r, inflation)
                == (oracle_segment_rect_distance(p, q, r) <= inflation))


def _first_blocker_of_plan(r, p, q, inflation):
    """`_first_blocker` on one rectangle, with the limit of a plan whose bounds hold p and q."""
    bounds = Bounds(min(p.x, q.x) - 1.0, min(p.y, q.y) - 1.0,
                    max(p.x, q.x) + 1.0, max(p.y, q.y) + 1.0)
    limit = _clearance_limit([r], Params(inflation=inflation, bounds=bounds))
    return _first_blocker([r], p, q, inflation, limit)


class TestAxisGapExit:
    """The planner's clearance limit settles far rectangles early, with the exact answer."""

    @settings(max_examples=500, deadline=None)
    @given(case=segment_rect_cases())
    def test_equals_exact_test(self, case):
        p, q, r, inflation = case
        blocked = oracle_segment_rect_distance(p, q, r) <= inflation
        assert _first_blocker_of_plan(r, p, q, inflation) is (r if blocked else None)

    def test_slack_covers_distance_rounded_below_gap(self):
        # the computed distance lands below the computed gap, so a rule on
        # `gap > inflation` alone would settle a rectangle the exact test blocks
        p, q, r = Vec2(8.2, 7.9), Vec2(2.4, -2.0), rect(4.5, -8.7, 4.2, 3.4)
        d = oracle_segment_rect_distance(p, q, r)
        assert d < axis_gap(p, q, r)
        assert _first_blocker_of_plan(r, p, q, d) is r
