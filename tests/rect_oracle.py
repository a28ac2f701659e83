"""Reference law for segment-rectangle clearance, and the cases that probe it.

The program never computes the distance from a segment to a rectangle; it
decides only whether that distance is <= an inflation, stopping at the first
witness (`geom2d.segment_intersects_rect`) or settling far rectangles by one
clearance limit per plan (`rrt_planner._first_blocker`). Both must answer
`oracle_segment_rect_distance(p, q, rect) <= inflation` on every input.
"""

import math

from hypothesis import strategies as st

from utm_sim.geom2d import Vec2, point_in_rect, point_segment_distance, segments_intersect
from utm_sim.obstacle_field import RectObstacle


def oracle_segment_rect_distance(p, q, rect):
    """Distance from the closed segment pq to the closed solid rectangle; 0 on overlap."""
    if point_in_rect(p, rect) or point_in_rect(q, rect):
        return 0.0
    corners = rect.corners()
    best = math.inf
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        if segments_intersect(p, q, a, b):
            return 0.0
        best = min(
            best,
            point_segment_distance(a, p, q),
            point_segment_distance(b, p, q),
            point_segment_distance(p, a, b),
            point_segment_distance(q, a, b),
        )
    return best


def axis_gap(p, q, r):
    """The largest of the four gaps between pq's bounding box and r, as the planner computes them."""
    return max(r.min_x - max(p.x, q.x), min(p.x, q.x) - r.max_x,
               r.min_y - max(p.y, q.y), min(p.y, q.y) - r.max_y)


def slack(p, q, r):
    m = max(abs(v) for v in (p.x, p.y, q.x, q.y, r.min_x, r.max_x, r.min_y, r.max_y))
    return 1e-9 * (1.0 + m)


_coord = st.floats(-500.0, 500.0)
_unit = st.floats(0.0, 1.0)


@st.composite
def segment_rect_cases(draw):
    """(p, q, rect, inflation) over free segments and the adversarial shapes.

    Kinds: free; a point (p == q); side cases that put the near end `near`
    outside one side of the rectangle and the far end `far` beyond it (0
    gives a segment parallel to that side); a corner as an endpoint; a
    segment through a corner; a segment on the line of an edge; an endpoint
    inside the rectangle. Inflation is free, or one of the thresholds: the
    computed gap, the gap minus or plus the slack (where the far-rectangle
    rule starts), the oracle distance, and 1 ulp either side of each.
    """
    r = RectObstacle(Vec2(draw(_coord), draw(_coord)), draw(st.floats(0.01, 200.0)),
                     draw(st.floats(0.01, 200.0)), "r")
    corners = r.corners()
    kind = draw(st.sampled_from(("free", "point", "side", "corner", "through_corner",
                                 "collinear", "inside")))
    if kind == "side":
        side = draw(st.integers(0, 3))
        near, far = draw(st.floats(0.0, 50.0)), draw(st.sampled_from((0.0, 1.0, 37.5)))
        a, b = (draw(st.floats(-60.0, 60.0)) for _ in range(2))
        if side == 0:
            pts = ((r.min_x - near, r.min_y + a), (r.min_x - near - far, r.max_y + b))
        elif side == 1:
            pts = ((r.max_x + near, r.min_y + a), (r.max_x + near + far, r.max_y + b))
        elif side == 2:
            pts = ((r.min_x + a, r.min_y - near), (r.max_x + b, r.min_y - near - far))
        else:
            pts = ((r.min_x + a, r.max_y + near), (r.max_x + b, r.max_y + near + far))
        p, q = (Vec2(*xy) for xy in draw(st.permutations(pts)))
    elif kind == "corner":
        p, q = draw(st.sampled_from(corners)), Vec2(draw(_coord), draw(_coord))
    elif kind == "through_corner":
        c = draw(st.sampled_from(corners))
        dx, dy = draw(st.floats(-40.0, 40.0)), draw(st.floats(-40.0, 40.0))
        p, q = Vec2(c.x + dx, c.y + dy), Vec2(c.x - dx, c.y - dy)
    elif kind == "collinear":
        i = draw(st.integers(0, 3))
        a, b = corners[i], corners[(i + 1) % 4]
        s, t = draw(st.floats(-1.5, 2.5)), draw(st.floats(-1.5, 2.5))
        p = Vec2(a.x + (b.x - a.x) * s, a.y + (b.y - a.y) * s)
        q = Vec2(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)
    elif kind == "inside":
        p = Vec2(r.min_x + (r.max_x - r.min_x) * draw(_unit),
                 r.min_y + (r.max_y - r.min_y) * draw(_unit))
        q = Vec2(draw(_coord), draw(_coord))
        p, q = draw(st.permutations((p, q)))
    else:
        p = Vec2(draw(_coord), draw(_coord))
        q = p if kind == "point" else Vec2(draw(_coord), draw(_coord))
    g, s, d = axis_gap(p, q, r), slack(p, q, r), oracle_segment_rect_distance(p, q, r)
    thresholds = [v for x in (g, g - s, g + s, d)
                  for v in (x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf))]
    inflation = draw(st.one_of(st.floats(0.0, 60.0), st.sampled_from(thresholds)))
    return p, q, r, max(inflation, 0.0)
