"""Planar vector math and rectangle geometry shared by the planner, avoidance, and engine."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .obstacle_field import RectObstacle


def finite_float(value: object, name: str) -> float:
    """`value`, an `int` or `float` but not a `bool`, as a finite `float`, or a
    ValueError naming it `name`: the one number rule of every value that enters."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer too large for a float") from None
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return v


@dataclass(frozen=True, slots=True)
class Vec2:
    """Immutable 2D vector. Positions are meters, velocities meters/second."""

    x: float
    y: float

    def __post_init__(self) -> None:
        try:
            if math.isfinite(self.x) and math.isfinite(self.y):
                return
        except OverflowError:  # an int too large for a float
            raise ValueError("vector components must be finite, got an integer "
                             "too large for a float") from None
        raise ValueError(f"non-finite vector components ({self.x}, {self.y})")

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)


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


@dataclass(frozen=True, slots=True)
class Bounds:
    """Axis-aligned workspace rectangle; each corner is stored as `finite_float` returns it."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name,  # frozen
                               finite_float(getattr(self, f.name), f"bounds.{f.name}"))
        if not (self.max_x > self.min_x and self.max_y > self.min_y):
            raise ValueError("bounds must have positive extent")
        # sampling draws min + (max - min) * u, so the extent must be a float too
        if not (math.isfinite(self.max_x - self.min_x) and math.isfinite(self.max_y - self.min_y)):
            raise ValueError("bounds extent must be finite")


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


def segment_intersects_rect(p: Vec2, q: Vec2, rect: "RectObstacle", inflation: float) -> bool:
    """True when the closed segment pq comes within `inflation` of the solid rectangle.

    Used for edge feasibility: a disc of radius `inflation` swept along pq must
    stay clear of the true rectangle. The distance from pq to the rectangle is 0
    when an endpoint lies in it or pq crosses one of its edges, and otherwise
    the least of the point-segment distances from each corner to pq and from
    each endpoint to each edge. That least distance is <= inflation exactly
    when one of them is, so the test returns True at the first such witness.
    No candidate raises, and a NaN candidate is never a witness, just as it
    would never be the least. q is tried against the edges first: the
    planner's p is a tree vertex, already clear of every rectangle.
    """
    if inflation < 0.0:
        raise ValueError("inflation must be >= 0")
    if point_in_rect(q, rect) or point_in_rect(p, rect):
        return True
    c0, c1, c2, c3 = rect.corners()
    edges = ((c0, c1), (c1, c2), (c2, c3), (c3, c0))
    for a, b in edges:
        if point_segment_distance(q, a, b) <= inflation:
            return True
    for a, b in edges:
        if (segments_intersect(p, q, a, b) or point_segment_distance(a, p, q) <= inflation
                or point_segment_distance(p, a, b) <= inflation):
            return True
    return False
