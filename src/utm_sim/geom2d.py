"""Planar vector math and rectangle geometry shared by the planner, avoidance, and engine."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .obstacle_field import RectObstacle

@dataclass(frozen=True, slots=True)
class Vec2:
    """Immutable 2D vector. Positions are meters, velocities meters/second."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite vector components ({self.x}, {self.y})")

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def is_zero(self) -> bool:
        return self.x == 0.0 and self.y == 0.0


ZERO = Vec2(0.0, 0.0)


def distance(a: Vec2, b: Vec2) -> float:
    return math.hypot(b.x - a.x, b.y - a.y)


def normalize_angle(a: float) -> float:
    """Wrap a finite angle into (-pi, pi]. Idempotent; -pi maps to +pi."""
    if not math.isfinite(a):
        raise ValueError(f"non-finite angle {a}")
    r = math.remainder(a, math.tau)
    # remainder returns values in [-pi, pi]; fold the single excluded endpoint
    return math.pi if r <= -math.pi else r


def angle_of(v: Vec2) -> float:
    """Quadrant-correct polar angle of v, in (-pi, pi]. Undefined for the zero vector."""
    if v.is_zero():
        raise ValueError("direction of the zero vector is undefined")
    return normalize_angle(math.atan2(v.y, v.x))


@dataclass(frozen=True, slots=True)
class Bounds:
    """Axis-aligned workspace rectangle."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.min_x, self.min_y, self.max_x, self.max_y))):
            raise ValueError("bounds must be finite")
        if not (self.max_x > self.min_x and self.max_y > self.min_y):
            raise ValueError("bounds must have positive extent")


def point_in_rect(p: Vec2, rect: "RectObstacle | Bounds") -> bool:
    """True when p lies in the closed rectangle, an obstacle or the `Bounds` (boundary counts)."""
    return rect.min_x <= p.x <= rect.max_x and rect.min_y <= p.y <= rect.max_y


def point_rect_distance(p: Vec2, rect: "RectObstacle") -> float:
    """Euclidean distance from p to the closed solid rectangle; 0 inside or on it."""
    dx = max(rect.min_x - p.x, 0.0, p.x - rect.max_x)
    dy = max(rect.min_y - p.y, 0.0, p.y - rect.max_y)
    return math.hypot(dx, dy)


def point_segment_distance(p: Vec2, a: Vec2, b: Vec2) -> float:
    """Distance from p to the closed segment ab (a == b degenerates to a point)."""
    vx, vy = b.x - a.x, b.y - a.y
    wx, wy = p.x - a.x, p.y - a.y
    vv = vx * vx + vy * vy
    if vv == 0.0:
        return math.hypot(wx, wy)
    t = (wx * vx + wy * vy) / vv
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return math.hypot(wx - t * vx, wy - t * vy)


def _orient(a: Vec2, b: Vec2, c: Vec2) -> float:
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def _in_box(a: Vec2, b: Vec2, p: Vec2) -> bool:
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def segments_intersect(p1: Vec2, q1: Vec2, p2: Vec2, q2: Vec2) -> bool:
    """True when closed segments p1q1 and p2q2 share at least one point."""
    d1 = _orient(p2, q2, p1)
    d2 = _orient(p2, q2, q1)
    d3 = _orient(p1, q1, p2)
    d4 = _orient(p1, q1, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) \
            and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True
    # collinear / endpoint-touching cases
    if d1 == 0 and _in_box(p2, q2, p1):
        return True
    if d2 == 0 and _in_box(p2, q2, q1):
        return True
    if d3 == 0 and _in_box(p1, q1, p2):
        return True
    if d4 == 0 and _in_box(p1, q1, q2):
        return True
    return False


def segment_rect_distance(p: Vec2, q: Vec2, rect: "RectObstacle") -> float:
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


def segment_intersects_rect(p: Vec2, q: Vec2, rect: "RectObstacle", inflation: float) -> bool:
    """True when segment pq comes within `inflation` of the solid rectangle.

    Used for edge feasibility: a disc of radius `inflation` swept along pq must
    stay clear of the true rectangle, so the test is distance <= inflation.

    A rectangle whose gap to the segment's bounding box along one axis exceeds
    `inflation` by more than a slack is settled False without the exact
    distance; every other case returns `segment_rect_distance(...) <= inflation`.
    The answer is the exact test's in every case. Let u = 2**-53 and M the
    largest |coordinate| of p, q and the rectangle extents, and take the gap
    g > 0 along x with the rectangle to the right (the other sides are
    symmetric). Both endpoints then lie outside the rectangle. On each edge,
    the signs of p and q against the edge's line are exact (one factor of the
    cross product is exactly 0), so a crossing needs a horizontal edge whose
    line the segment straddles. Its two corners lie on the same side of line
    pq, at |orient| >= |q.y - p.y| * g, against a rounding error below
    13 u M |q.y - p.y|, so no crossing is reported. Each of the 16 point-segment
    distances has an x component of at least g in exact arithmetic; the
    rounding of `w - t * v` and of g itself costs at most 13 u M, and
    `math.hypot` never falls below that component. So every computed
    distance exceeds g - 13 u M. The slack 1e-9 * (1 + M) covers both bounds
    with six orders of magnitude to spare.
    """
    if inflation < 0.0:
        raise ValueError("inflation must be >= 0")
    lo_x, hi_x = (p.x, q.x) if p.x <= q.x else (q.x, p.x)
    lo_y, hi_y = (p.y, q.y) if p.y <= q.y else (q.y, p.y)
    gap = max(rect.min_x - hi_x, lo_x - rect.max_x, rect.min_y - hi_y, lo_y - rect.max_y)
    m = max(hi_x, -lo_x, hi_y, -lo_y, rect.max_x, -rect.min_x, rect.max_y, -rect.min_y)
    if gap > inflation + 1e-9 * (1.0 + m):
        return False
    return segment_rect_distance(p, q, rect) <= inflation
