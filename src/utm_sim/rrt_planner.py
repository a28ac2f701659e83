"""Sampling-based waypoint planner over rectangle maps.

Grows a random tree from the start, extending a fixed step toward uniform (or
goal-biased) samples, keeping only edges that stay clear of every rectangle
inflated by the vehicle radius. The first vertex inside the goal region ends
the search; the returned waypoint list is the tree branch from start to that
vertex, unsmoothed.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .geom2d import Vec2, distance, point_in_rect, segment_intersects_rect
from .obstacle_field import RectObstacle
from .params import Params


class PlanningError(Exception):
    """Planner exhausted its iteration budget without reaching the goal region."""


class RrtTree:
    """Tree of collision-free configurations; vertex 0 is the start, edges point to parents.

    The tree keeps the index and squared distance of its vertex nearest the
    goal, so `nearest(goal)` reads them instead of scanning. `add` updates
    them with `nearest`'s own squared-distance expression and a strict `<`, so
    a tie keeps the lower index, as the scan's `d2.index(min(d2))` does; and
    vertices never change once added, so the kept index is always the scan's.
    """

    def __init__(self, root: Vec2, goal: Vec2):
        self.vertices: list[Vec2] = [root]
        self.parents: list[int] = [-1]
        self.goal = goal
        self._goal_idx = 0
        self._goal_d2 = (root.x - goal.x) * (root.x - goal.x) + (root.y - goal.y) * (root.y - goal.y)

    def add(self, v: Vec2, parent: int) -> int:
        if not 0 <= parent < len(self.vertices):
            raise ValueError(f"parent index {parent} out of range")
        idx = len(self.vertices)
        self.vertices.append(v)
        self.parents.append(parent)
        gx, gy = self.goal.x, self.goal.y
        d2 = (v.x - gx) * (v.x - gx) + (v.y - gy) * (v.y - gy)
        if d2 < self._goal_d2:
            self._goal_idx, self._goal_d2 = idx, d2
        return idx

    def nearest(self, q: Vec2) -> int:
        """Index of the vertex closest to q; ties go to the lowest index.

        The tree's own goal object is answered from the kept index. Squares
        are written as products: one correctly rounded multiply each, where
        `** 2` would go through C `pow`.
        """
        if q is self.goal:
            return self._goal_idx
        qx, qy = q.x, q.y
        d2 = [(v.x - qx) * (v.x - qx) + (v.y - qy) * (v.y - qy) for v in self.vertices]
        return d2.index(min(d2))

    def branch_to(self, idx: int) -> list[Vec2]:
        """Vertices from the root to idx, in root-first order."""
        out: list[Vec2] = []
        while idx >= 0:
            out.append(self.vertices[idx])
            idx = self.parents[idx]
        out.reverse()
        return out


def sample_config(params: Params, goal: Vec2, rng: random.Random) -> Vec2:
    """Goal with probability goal_bias, otherwise uniform over the workspace bounds.

    A goal sample is the `goal` object itself, which `RrtTree.nearest`
    answers from its kept index, and it draws one `rng.random()` only.
    """
    if rng.random() < params.goal_bias:
        return goal
    b = params.bounds
    return Vec2(rng.uniform(b.min_x, b.max_x), rng.uniform(b.min_y, b.max_y))


def steer(origin: Vec2, toward: Vec2, step_size: float) -> Vec2:
    """Point at most step_size from origin along the ray origin -> toward.

    Returns `toward` itself when it is already within step_size, so reaching a
    sampled goal lands exactly on it.
    """
    if step_size <= 0.0:
        raise ValueError("step_size must be > 0")
    d = distance(origin, toward)
    if d == 0.0:
        raise ValueError("cannot steer between coincident points")
    if d <= step_size:
        return toward
    t = step_size / d
    return Vec2(origin.x + (toward.x - origin.x) * t, origin.y + (toward.y - origin.y) * t)


def _clearance_limit(obstacles: Sequence[RectObstacle], params: Params) -> float:
    """One plan's `_first_blocker` limit, `params.inflation + 1e-9 * (1 + M)`, M the
    largest |coordinate| of `params.bounds` and of every rectangle (`max` is exact;
    M > 0, since the bounds have positive extent)."""
    m = 0.0
    for r in (params.bounds, *obstacles):
        m = max(m, r.max_x, -r.min_x, r.max_y, -r.min_y)
    return params.inflation + 1e-9 * (1.0 + m)


def _first_blocker(obstacles: Sequence[RectObstacle], p: Vec2, q: Vec2, inflation: float,
                   limit: float) -> RectObstacle | None:
    """The first rectangle that segment pq comes within `inflation` of, or None.

    A rectangle is settled clear, with no exact test, when one of its four
    gaps to the bounding box of pq exceeds `limit`, `_clearance_limit`'s
    `inflation + 1e-9 * (1 + M)`; every other rectangle goes to
    `segment_intersects_rect`. The answer is the exact test's in every case.
    M bounds every coordinate of p, q and the rectangle, because p and q lie
    in `params.bounds`: `check_endpoints` tests its endpoints against them
    first, and `plan_path` each steered vertex before its edge. Let u = 2**-53,
    and take the gap g > 0 along x with the rectangle to the right (the other
    sides are symmetric). Both endpoints then lie outside the rectangle. On
    each edge, the signs of p and q against the edge's line are exact (one
    factor of the cross product is exactly 0), so a crossing needs a
    horizontal edge whose line the segment straddles. Its two corners lie on
    the same side of line pq, at |orient| >= |q.y - p.y| * g, against a
    rounding error below 13 u M |q.y - p.y|, so no crossing is reported. Each
    point-segment distance has an x component of at least g in exact
    arithmetic; the rounding of `w - t * v` and of g itself costs at most
    13 u M, and `math.hypot` never falls below that component. So every
    computed distance exceeds g - 13 u M. The slack 1e-9 * (1 + M) covers both
    bounds with six orders of magnitude to spare. A larger M only sends more
    rectangles to the exact test.

    The chain of `>` tests is true exactly when the largest of the four gaps
    exceeds the limit.
    """
    px, py, qx, qy = p.x, p.y, q.x, q.y
    lo_x, hi_x = (px, qx) if px <= qx else (qx, px)
    lo_y, hi_y = (py, qy) if py <= qy else (qy, py)
    for rect in obstacles:
        if (rect.min_x - hi_x > limit or lo_x - rect.max_x > limit
                or rect.min_y - hi_y > limit or lo_y - rect.max_y > limit):
            continue
        if segment_intersects_rect(p, q, rect, inflation):
            return rect
    return None


def check_endpoints(endpoints: Iterable[tuple[str, Vec2]], obstacles: Sequence[RectObstacle],
                    params: Params) -> float:
    """Raise ValueError, naming the point by its label, unless every `(label, point)`
    of `endpoints` is a usable tree vertex.

    Each must lie inside the workspace bounds and be clear of every rectangle
    by the planner's own edge test: the zero-length edge (p, p) must not come
    within `params.inflation` of it. `Scenario` checks every UAV's endpoints by
    this same rule, so every endpoint it accepts is one `plan_path` accepts.
    Returns the clearance limit (`_clearance_limit`), which `plan_path` plans with.
    """
    limit = _clearance_limit(obstacles, params)
    for label, p in endpoints:
        if not point_in_rect(p, params.bounds):
            raise ValueError(f"{label} {p} lies outside the workspace bounds")
        r = _first_blocker(obstacles, p, p, params.inflation, limit)
        if r is not None:
            raise ValueError(f"{label} {p} lies within the inflated obstacle '{r.id}'")
    return limit


def plan_path(start: Vec2, goal: Vec2, obstacles: Sequence[RectObstacle],
              params: Params, seed: int) -> tuple[Vec2, ...]:
    """Plan a waypoint path from start to the goal region.

    Consecutive waypoints are at most `params.step_size` apart. Deterministic
    for a given (start, goal, obstacles, params, seed). Raises ValueError when
    `check_endpoints` rejects an endpoint, and PlanningError when max_iters
    runs out; PlanningError is recoverable (retry with another seed or budget).

    A goal sample whose nearest vertex is the one whose goal-directed
    extension failed last is skipped without retesting it. That is exact: the
    extension is a pure function of (origin, goal, params, obstacles, limit),
    a vertex never changes once added, and the skip draws nothing from `rng`,
    as the failed test drew nothing after the goal sample's one
    `rng.random()`. So the same samples reach the same tree.
    """
    limit = check_endpoints((("start", start), ("goal", goal)), obstacles, params)
    if distance(start, goal) < params.goal_radius:
        return (start,)

    rng = random.Random(seed)
    tree = RrtTree(start, goal)
    failed = -1  # the vertex whose extension toward the goal failed last
    for _ in range(params.max_iters):
        target = sample_config(params, goal, rng)
        near_idx = tree.nearest(target)
        if near_idx == failed and target is goal:
            continue
        origin = tree.vertices[near_idx]
        if origin == target:
            continue
        new_point = steer(origin, target, params.step_size)
        if (not point_in_rect(new_point, params.bounds)
                or _first_blocker(obstacles, origin, new_point, params.inflation, limit) is not None):
            if target is goal:
                failed = near_idx
            continue
        new_idx = tree.add(new_point, near_idx)
        if distance(new_point, goal) < params.goal_radius:
            return tuple(tree.branch_to(new_idx))
    raise PlanningError(
        f"no path from {start} to {goal} within {params.max_iters} iterations"
    )
