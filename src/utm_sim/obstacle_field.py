"""Static world geometry: solid rectangles and their boundary-circle approximation.

Planning and ground-truth collision checks run against the true rectangles;
online avoidance sees each rectangle as a ring of equal circles placed on its
perimeter, so the avoidance layer only ever reasons about discs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from .geom2d import ZERO, Vec2, distance, finite_float
from .params import Params
from .vo_core import Threat


@dataclass(frozen=True, slots=True)
class RectObstacle:
    """Axis-aligned solid rectangle, defined by center and side lengths.

    The extents min_x/max_x/min_y/max_y are derived once at construction; they
    take no part in the constructor, equality, hashing or repr; each must be finite.
    """

    center: Vec2
    width: float
    height: float
    id: str
    min_x: float = field(init=False, repr=False, compare=False)
    max_x: float = field(init=False, repr=False, compare=False)
    min_y: float = field(init=False, repr=False, compare=False)
    max_y: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        set_ = object.__setattr__  # the dataclass is frozen
        for side in ("width", "height"):
            set_(self, side, finite_float(getattr(self, side), f"rectangle '{self.id}'.{side}"))
        if not (self.width > 0.0 and self.height > 0.0):
            raise ValueError(f"rectangle '{self.id}' must have positive width and height")
        half_w, half_h = self.width / 2.0, self.height / 2.0
        set_(self, "min_x", self.center.x - half_w)
        set_(self, "max_x", self.center.x + half_w)
        set_(self, "min_y", self.center.y - half_h)
        set_(self, "max_y", self.center.y + half_h)
        if not all(map(math.isfinite, (self.min_x, self.max_x, self.min_y, self.max_y))):
            raise ValueError(f"rectangle '{self.id}' extent must be finite")

    def corners(self) -> tuple[Vec2, Vec2, Vec2, Vec2]:
        """Corners in counter-clockwise perimeter order, starting at (min_x, min_y)."""
        return (
            Vec2(self.min_x, self.min_y),
            Vec2(self.max_x, self.min_y),
            Vec2(self.max_x, self.max_y),
            Vec2(self.min_x, self.max_y),
        )


# The most boundary circles one scenario's rectangles may need. The shipped
# scenarios need at most a few hundred; `Scenario` rejects one over the limit
# before a circle is built, as a tiny `circle_spacing` would exhaust memory.
MAX_CIRCLES = 100_000

# The most UAV-steps (`max_steps` times the UAV count) one run may record. A run
# keeps every step's states, under 0.4 KB per UAV-step, so this is under 2 GB
# of peak memory. The shipped scenarios need at most 140,000 (paper_like_7uav:
# 20,000 x 7); `Scenario` rejects a table over the limit.
MAX_UAV_STEPS = 5_000_000

# The most pair samples (`max_steps` times the n(n-1)/2 pairs of n UAVs) one
# run may record. A pair sample is one pair's distance at one step, 8 bytes in
# `metrics.pairwise_distances`' packed series, so this is 0.8 GB more, and the
# two limits keep a run under about 3 GB. Without it, 100 UAVs (4,950 pairs)
# at 50,000 steps would pass MAX_UAV_STEPS with 2 GB of pair series. The
# shipped scenarios need at most 420,000 (paper_like_7uav: 20,000 x 21);
# `Scenario` rejects a table over the limit.
MAX_PAIR_SAMPLES = 100_000_000


def _edges(rect: RectObstacle, params: Params) -> Iterator[tuple[Vec2, Vec2, int]]:
    """Each perimeter edge a -> b with its subdivision n = ceil(|ab| / circle_spacing)."""
    corners = rect.corners()
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        yield a, b, math.ceil(distance(a, b) / params.circle_spacing)


def circle_count(rect: RectObstacle, params: Params) -> int:
    """len(discretize_rectangle(rect, params)), counted without building a circle."""
    return sum(n for _, _, n in _edges(rect, params))


def discretize_rectangle(rect: RectObstacle, params: Params) -> list[Vec2]:
    """Centres of circles of `params.obstacle_circle_radius` covering the perimeter.

    Each corner gets a circle; each edge gets interior circles at the largest
    even subdivision that keeps consecutive centers <= `circle_spacing` apart.
    `Params` keeps spacing < 2 * radius, so adjacent circles overlap and every
    boundary point lies within a circle (worst case spacing/2 from a center).
    """
    centres: list[Vec2] = []
    for a, b, n in _edges(rect, params):
        centres.append(a)
        for k in range(1, n):
            t = k / n
            centres.append(Vec2(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t))
    return centres


class ObstacleField:
    """All static obstacles of a scenario plus their circle approximation.

    `rings` holds, for each rectangle in input order, the rectangle, its
    circles sorted by centre x (ties in perimeter order) and their centre x
    coordinates as a float tuple in the same order, so threat gathering finds
    those in range along x by bisection. Each circle is built once, as the
    `Threat` that both controllers read: its centre, zero velocity, the
    combined radius `uav_radius + obstacle_circle_radius` and the id
    `"<rect id>#<k>"`, `k` its index in `discretize_rectangle`'s perimeter
    order. The engine shares one instance across steps. Its one mutable
    member is `parked`: the `Threat` of each parked UAV, by UAV id, which a
    UAV standing still is to the controllers as a circle is;
    `sim_engine.gather_threats` fills and reuses it. The rectangles are a
    checked `Scenario`'s, so their ids are unique.
    """

    def __init__(self, rectangles: tuple[RectObstacle, ...], params: Params):
        self.rectangles = rectangles
        r_obs = params.uav_radius + params.obstacle_circle_radius
        rings = []
        for r in rectangles:
            ring = tuple(sorted((Threat(c, ZERO, r_obs, f"{r.id}#{k}")
                                 for k, c in enumerate(discretize_rectangle(r, params))),
                                key=lambda t: t.position.x))
            rings.append((r, ring, tuple(t.position.x for t in ring)))
        self.rings: tuple[tuple[RectObstacle, tuple[Threat, ...], tuple[float, ...]], ...] = \
            tuple(rings)
        self.parked: dict[str, Threat] = {}
