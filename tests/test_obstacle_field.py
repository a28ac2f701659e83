import math
import random

import pytest

from utm_sim.geom2d import Vec2, distance
from utm_sim.obstacle_field import (
    ObstacleField,
    RectObstacle,
    circle_count,
    discretize_rectangle,
)
from utm_sim.params import Params

P = Params()  # circles of radius 12 at spacing 15


def test_defaults():
    assert P.obstacle_circle_radius == 12.0
    assert P.circle_spacing == 15.0


class TestRectObstacle:
    def test_extents_and_corners(self):
        r = RectObstacle(Vec2(10.0, 20.0), 4.0, 6.0, "a")
        assert (r.min_x, r.max_x, r.min_y, r.max_y) == (8.0, 12.0, 17.0, 23.0)
        assert r.corners() == (
            Vec2(8.0, 17.0), Vec2(12.0, 17.0), Vec2(12.0, 23.0), Vec2(8.0, 23.0),
        )

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            RectObstacle(Vec2(0, 0), 0.0, 5.0, "bad")
        with pytest.raises(ValueError):
            RectObstacle(Vec2(0, 0), 5.0, -1.0, "bad")

    def test_integer_side_too_large_for_a_float_is_value_error(self):
        with pytest.raises(ValueError, match="^rectangle 'r'\\.width must be finite, got an "
                                             "integer too large for a float$"):
            RectObstacle(Vec2(0.0, 0.0), 10**400, 1.0, "r")
        with pytest.raises(ValueError, match="^rectangle 'r'\\.height must be finite, got an "
                                             "integer too large for a float$"):
            RectObstacle(Vec2(0.0, 0.0), 1.0, 10**400, "r")

    @pytest.mark.parametrize("center,width,height", [
        (Vec2(0.0, 0.0), math.inf, 1.0),
        (Vec2(0.0, 0.0), 1.0, -math.inf),
        (Vec2(0.0, 0.0), math.nan, 1.0),
    ])
    def test_non_finite_side_rejected(self, center, width, height):
        with pytest.raises(ValueError, match=r"^rectangle 'r'\.(width|height) must be finite"):
            RectObstacle(center, width, height, "r")

    @pytest.mark.parametrize("center,width,height", [
        (Vec2(1e308, 0.0), 1.7e308, 1.0),  # max_x overflows
        (Vec2(-1e308, 0.0), 1.7e308, 1.0),  # min_x
        (Vec2(0.0, 1e308), 1.0, 1.7e308),  # max_y
        (Vec2(0.0, -1e308), 1.0, 1.7e308),  # min_y
    ])
    def test_extent_that_overflows_rejected(self, center, width, height):
        # each side is finite, but an extent is not: ObstacleField would fail
        # building the corner circles of such a rectangle
        with pytest.raises(ValueError, match="^rectangle 'r' extent must be finite$"):
            RectObstacle(center, width, height, "r")


class TestDiscretize:
    def test_30x15_rect_frozen_layout(self):
        # 30 m edges split once (ceil(30/15) = 2), 15 m edges not at all:
        # 4 corner circles plus one midpoint on each long edge.
        r = RectObstacle(Vec2(0.0, 0.0), 30.0, 15.0, "r")
        circles = discretize_rectangle(r, P)
        centers = {(c.x, c.y) for c in circles}
        assert centers == {
            (-15.0, -7.5), (15.0, -7.5), (15.0, 7.5), (-15.0, 7.5),
            (0.0, -7.5), (0.0, 7.5),
        }
        assert len(circles) == 6
        assert all(isinstance(c, Vec2) for c in circles)

    def test_square_exactly_corner_circles(self):
        r = RectObstacle(Vec2(0.0, 0.0), 15.0, 15.0, "sq")
        circles = discretize_rectangle(r, P)
        assert len(circles) == 4
        assert {(c.x, c.y) for c in circles} == {
            (-7.5, -7.5), (7.5, -7.5), (7.5, 7.5), (-7.5, 7.5),
        }

    def test_count_formula(self):
        # corners + per-edge interiors: 4 + 2*(ceil(w/l)-1) + 2*(ceil(h/l)-1)
        rng = random.Random(5)
        for _ in range(200):
            w = rng.uniform(1.0, 300.0)
            h = rng.uniform(1.0, 300.0)
            r = RectObstacle(Vec2(0, 0), w, h, "x")
            got = len(discretize_rectangle(r, P))
            want = 4 + 2 * (math.ceil(w / 15.0) - 1) + 2 * (math.ceil(h / 15.0) - 1)
            assert got == want

    def test_circle_count_is_the_length_without_building(self):
        rng = random.Random(29)
        for _ in range(200):
            r = RectObstacle(Vec2(rng.uniform(-50, 50), rng.uniform(-50, 50)),
                             rng.uniform(0.1, 300.0), rng.uniform(0.1, 300.0), "x")
            params = Params(circle_spacing=rng.uniform(0.5, 23.9))
            assert circle_count(r, params) == len(discretize_rectangle(r, params))

    def test_spacing_must_allow_overlap(self):
        r = RectObstacle(Vec2(0, 0), 30.0, 15.0, "r")
        with pytest.raises(ValueError, match="circle_spacing must be < 2"):
            Params(obstacle_circle_radius=12.0, circle_spacing=24.0)  # tangent: a gap at the seam
        with pytest.raises(ValueError, match="circle_spacing must be < 2"):
            Params(obstacle_circle_radius=12.0, circle_spacing=30.0)
        # just under the limit is fine
        discretize_rectangle(r, Params(obstacle_circle_radius=12.0, circle_spacing=23.999))

    def test_walk_spacing_and_uniqueness(self):
        rng = random.Random(17)
        for _ in range(100):
            w = rng.uniform(2.0, 250.0)
            h = rng.uniform(2.0, 250.0)
            spacing = rng.uniform(3.0, 23.9)
            r = RectObstacle(Vec2(rng.uniform(-50, 50), rng.uniform(-50, 50)), w, h, "x")
            pts = discretize_rectangle(r, Params(circle_spacing=spacing))
            assert len({(p.x, p.y) for p in pts}) == len(pts)  # no duplicates
            # generation order is the perimeter walk; closing the loop included
            for a, b in zip(pts, pts[1:] + pts[:1]):
                assert distance(a, b) <= spacing + 1e-9

    def test_centers_on_boundary_and_coverage(self):
        # every perimeter point must be within spacing/2 of some center
        rng = random.Random(23)
        r = RectObstacle(Vec2(7.0, -3.0), 83.0, 41.0, "x")
        spacing = 15.0
        circles = discretize_rectangle(r, Params(circle_spacing=spacing))
        corners = list(r.corners())
        for c in circles:
            on_edge = any(
                _on_segment(c, corners[i], corners[(i + 1) % 4])
                for i in range(4)
            )
            assert on_edge, f"center {c} not on the boundary"
        for _ in range(2000):
            edge = rng.randrange(4)
            a, b = corners[edge], corners[(edge + 1) % 4]
            t = rng.random()
            p = Vec2(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)
            nearest = min(distance(p, c) for c in circles)
            assert nearest <= spacing / 2.0 + 1e-9


def _on_segment(p: Vec2, a: Vec2, b: Vec2) -> bool:
    cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
    if abs(cross) > 1e-6:
        return False
    return (min(a.x, b.x) - 1e-9 <= p.x <= max(a.x, b.x) + 1e-9
            and min(a.y, b.y) - 1e-9 <= p.y <= max(a.y, b.y) + 1e-9)


class TestObstacleField:
    def test_groups_and_flat_list(self):
        r1 = RectObstacle(Vec2(0, 0), 30.0, 15.0, "a")
        r2 = RectObstacle(Vec2(100, 100), 15.0, 15.0, "b")
        f = ObstacleField((r1, r2), P)
        assert f.rectangles == (r1, r2)
        circles = [t.position for _, ring, _ in f.rings for t in ring]
        assert len(circles) == 6 + 4
        assert [rect.id for rect, _, _ in f.rings] == ["a", "b"]
        assert all(isinstance(c, Vec2) for c in circles)
        # each ring sits beside its own rectangle: 6 circles for a, 4 for b
        assert [len(ring) for _, ring, _ in f.rings] == [6, 4]

    def test_ring_is_in_x_order_and_keeps_the_perimeter_index(self):
        rects = [RectObstacle(Vec2(0.0, 0.0), 360.0, 30.0, "wall"),
                 RectObstacle(Vec2(-7.3, 41.9), 23.7, 88.1, "post")]
        f = ObstacleField(rects, P)
        for rect, ring, ring_xs in f.rings:
            xs = [t.position.x for t in ring]
            assert xs == sorted(xs)
            assert ring_xs == tuple(xs)
            # each circle is named by its perimeter index k as "<rect id>#<k>"
            index = [int(t.source_id.removeprefix(f"{rect.id}#")) for t in ring]
            # ties in x keep perimeter order
            assert all(i < j for i, j, a, b in zip(index, index[1:], ring, ring[1:])
                       if a.position.x == b.position.x)
            assert sorted(zip(index, (t.position for t in ring))) == list(
                enumerate(discretize_rectangle(rect, P)))

    def test_empty_field(self):
        f = ObstacleField((), P)
        assert f.rectangles == ()
        assert f.rings == ()
