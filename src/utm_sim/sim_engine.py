"""Synchronous fixed-step multi-vehicle simulation loop.

Each step works from a frozen snapshot of all vehicle states: threat
gathering and velocity decisions read the snapshot, never a state committed
earlier in the same step, so step results do not depend on vehicle iteration
order. Both controllers return a velocity, and each UAV advances by `dt` times
its velocity. Ground-truth collision checks run against the true rectangles
(not the circle approximation) and vehicle discs.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import combinations
from operator import attrgetter
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .apf_core import apf_step
from .geom2d import ZERO, Vec2, point_rect_distance
from .obstacle_field import ObstacleField
from .params import Params
from .rrt_planner import PlanningError, plan_path
from .vo_core import Threat, avoid

if TYPE_CHECKING:
    from .scenario_cli import Scenario


@dataclass(frozen=True, slots=True)  # slots: a run's `SimResult.states` keeps every one
class UavState:
    """One vehicle's state, a disc of `Params.uav_radius`; replaced, never mutated."""

    id: str
    position: Vec2
    velocity: Vec2
    path: tuple[Vec2, ...]
    waypoint_index: int = 0
    arrived: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.waypoint_index < len(self.path):
            raise ValueError("waypoint_index out of range")
        if self.arrived and self.velocity != ZERO:
            raise ValueError("an arrived UAV is parked: its velocity must be zero")

    def current_waypoint(self) -> Vec2:
        return self.path[self.waypoint_index]


class SimEvent(NamedTuple):
    t: float
    kind: str
    details: dict


_by_id = attrgetter("id")


@dataclass
class World:
    """Mutable container the engine advances; the geometry is shared across steps."""

    uavs: list[UavState]
    field: ObstacleField


@dataclass
class SimResult:
    """A run: its `Params`, its states and its events.

    `states[k]` is every UAV's state after `k` steps, at `t = k * params.dt`,
    in the world's order. A state that a step leaves alone (a parked UAV's)
    is the very object of the step before.
    """

    params: Params
    states: list[tuple[UavState, ...]]
    events: list[SimEvent]

    @property
    def steps(self) -> int:
        return len(self.states) - 1

    @property
    def completed(self) -> bool:
        return all(u.arrived for u in self.states[-1])


def assign_waypoint(state: UavState, params: Params) -> UavState:
    """Advance one waypoint within `params.dist_wp`; reaching the last one parks the UAV.

    At most one advance per call. Already-arrived states pass through.
    """
    if state.arrived:
        return state
    dist_wp = params.dist_wp
    wp, p = state.current_waypoint(), state.position
    dx, dy = wp.x - p.x, wp.y - p.y
    # one axis gap settles "far" exactly, as in gather_threats
    if dx >= dist_wp or -dx >= dist_wp or dy >= dist_wp or -dy >= dist_wp \
            or math.hypot(dx, dy) >= dist_wp:
        return state
    if state.waypoint_index + 1 < len(state.path):
        return replace(state, waypoint_index=state.waypoint_index + 1)
    return replace(state, arrived=True, velocity=ZERO)


def gather_threats(uav: UavState, snapshot: Sequence[UavState], obstacles: ObstacleField,
                   params: Params) -> list[Threat]:
    """Threats within `params.dist_uav` (UAVs) or `dist_obs` (circles), canonically ordered.

    Order is (distance, UAVs before obstacle circles, source id), which makes
    the seed-then-prune search independent of input vehicle order. Arrived
    UAVs still count: they are parked bodies. A moving UAV's threat is built
    here from the snapshot; a circle threat is the one `ObstacleField` built
    for the run, appended as it is. A parked UAV's threat is built once and
    kept in `obstacles.parked` under its id, and reused by every observer on
    every later step. Same objects, same result: a UAV threat is made of the
    state's position and velocity, the combined radius and the id, so a kept
    threat that holds the very position and velocity objects (`is`) and the
    same combined radius equals the one that would be built. The
    per-rectangle distance prefilter is sound because every circle center
    lies on its rectangle's boundary, so rect distance <= any center distance.

    Far pairs are settled by one axis gap before any `hypot`: a source is out
    of range when `|dx| >= range` or `|dy| >= range` for the same `dx`, `dy`
    the exact test uses (for a rectangle, the gap terms `point_rect_distance`
    takes its `max` over). This is exact, not an approximation: `math.hypot`
    is faithfully rounded, so `hypot(dx, dy) >= max(|dx|, |dy|)` holds for
    floats too, and every source that passes still gets the very `hypot` or
    `point_rect_distance` call on the very operands it got before.

    Of each rectangle's ring only the circles that pass both `dx` tests are
    visited. The computed `cx - px` is monotone in `cx` (rounding never
    reverses an order), so along the ring, which is sorted by centre x, the
    circles failing `px - cx < range` (the same float as `-(cx - px)`) form a
    prefix and those failing `cx - px < range` a suffix. Two bisections on
    these very predicates find the run between them. Comparing `cx` with a
    precomputed `px - range` or `px + range` would not be the same test,
    because that sum is rounded too. The visiting order does not matter: the
    sort key (distance, UAV before circle, source id) is total.
    """
    dist_uav, dist_obs = params.dist_uav, params.dist_obs
    r_uav = params.uav_radius + params.uav_radius
    px, py = uav.position.x, uav.position.y
    parked = obstacles.parked
    keyed: list[tuple[float, int, str, Threat]] = []
    for other in snapshot:
        if other.id == uav.id:
            continue
        q = other.position
        dx, dy = q.x - px, q.y - py
        if dx >= dist_uav or -dx >= dist_uav or dy >= dist_uav or -dy >= dist_uav:
            continue
        d = math.hypot(dx, dy)
        if d < dist_uav:
            if not other.arrived:
                threat = Threat(q, other.velocity, r_uav, other.id)
            else:
                threat = parked.get(other.id)
                if threat is None or threat.position is not q \
                        or threat.velocity is not other.velocity \
                        or threat.combined_radius != r_uav:
                    threat = parked[other.id] = Threat(q, other.velocity, r_uav, other.id)
            keyed.append((d, 0, other.id, threat))
    for rect, ring in obstacles.rings:
        if rect.min_x - px >= dist_obs or px - rect.max_x >= dist_obs \
                or rect.min_y - py >= dist_obs or py - rect.max_y >= dist_obs \
                or point_rect_distance(uav.position, rect) >= dist_obs:
            continue
        lo = bisect_left(ring, True, key=lambda t: px - t.position.x < dist_obs)
        hi = bisect_left(ring, True, lo, key=lambda t: t.position.x - px >= dist_obs)
        for threat in ring[lo:hi]:
            c = threat.position
            dx, dy = c.x - px, c.y - py
            if dy >= dist_obs or -dy >= dist_obs:
                continue
            d = math.hypot(dx, dy)
            if d < dist_obs:
                keyed.append((d, 1, threat.source_id, threat))
    keyed.sort(key=lambda item: (item[0], item[1], item[2]))
    return [item[3] for item in keyed]


def detect_collisions(world: World, params: Params, t: float) -> list[SimEvent]:
    """Ground-truth overlap scan: UAV discs pairwise and against true rectangles.

    Strict inequalities: touching exactly is not a collision. Event order is
    canonical (sorted ids) regardless of the world's vehicle order. A pair
    whose gap along one axis is already >= the collision distance is skipped
    before any `hypot`; as in `gather_threats`, that is exact because
    `hypot(dx, dy) >= max(|dx|, |dy|)` in floating point, and every pair that
    is not skipped gets the same `hypot` or `point_rect_distance` as before.
    """
    events: list[SimEvent] = []
    uavs = sorted(world.uavs, key=_by_id)
    r = params.uav_radius + params.uav_radius
    for a, b in combinations(uavs, 2):
        dx, dy = b.position.x - a.position.x, b.position.y - a.position.y
        if dx >= r or -dx >= r or dy >= r or -dy >= r:
            continue
        d = math.hypot(dx, dy)
        if d < r:
            events.append(SimEvent(t, "uav_uav_collision",
                                   {"a": a.id, "b": b.id, "distance": d}))
    r = params.uav_radius
    for u in uavs:
        p = u.position
        for rect in world.field.rectangles:
            if rect.min_x - p.x >= r or p.x - rect.max_x >= r \
                    or rect.min_y - p.y >= r or p.y - rect.max_y >= r:
                continue
            d = point_rect_distance(p, rect)
            if d < r:
                events.append(SimEvent(t, "uav_obstacle_collision",
                                       {"uav": u.id, "rect": rect.id, "distance": d}))
    return events


def step(world: World, params: Params, t: float = 0.0) -> list[SimEvent]:
    """Advance every UAV one synchronous step; returns this step's events.

    Phases: waypoint bookkeeping for each moving UAV, then one pass that
    gathers each moving UAV's threats from the frozen snapshot, takes its
    velocity from the controller (`avoid` for VO, `apf_step` for APF) and
    commits `position + dt * velocity`, then the ground-truth collision scan.
    `t` stamps the emitted events and should be the post-step time.

    A parked UAV keeps its very `UavState` object, with the same position and
    velocity objects, from the step it arrives on: `assign_waypoint` would
    return it unchanged, so the waypoint pass skips it, and no commit replaces
    it. Same objects, same result: its threat is that of the last step, which
    `gather_threats` reuses.
    """
    events: list[SimEvent] = []
    for i, u in enumerate(world.uavs):
        if u.arrived:
            continue
        nxt = assign_waypoint(u, params)
        if nxt is not u:
            if nxt.arrived:
                events.append(SimEvent(t, "arrived", {"uav": u.id}))
            else:
                events.append(SimEvent(t, "waypoint_advanced",
                                       {"uav": u.id, "waypoint_index": nxt.waypoint_index}))
            world.uavs[i] = nxt

    # a copy: the commits below must not reach a later UAV's threat gathering
    snapshot = tuple(world.uavs)
    for i, u in enumerate(snapshot):
        if u.arrived:
            continue
        threats = gather_threats(u, snapshot, world.field, params)
        if params.algorithm == "vo":
            res = avoid(u, threats, params)
            if res.empty_set:
                events.append(SimEvent(t, "empty_feasible_set", {"uav": u.id}))
            v = res.velocity
        else:
            v = apf_step(u, threats, params)
        world.uavs[i] = UavState(u.id, Vec2(u.position.x + params.dt * v.x,
                                            u.position.y + params.dt * v.y),
                                 v, u.path, u.waypoint_index, u.arrived)

    events.extend(detect_collisions(world, params, t))
    return events


def derive_uav_seed(run_seed: int, uav_id: str) -> int:
    """Stable per-UAV planner seed; hash-based so it survives process boundaries."""
    digest = hashlib.sha256(f"{run_seed}:{uav_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def plan_paths(scenario: "Scenario", seed: int) -> dict[str, tuple[Vec2, ...]]:
    """Plan every UAV's waypoint path; deterministic in (scenario, seed)."""
    paths: dict[str, tuple[Vec2, ...]] = {}
    for uav in scenario.uavs:
        try:
            paths[uav.id] = plan_path(uav.start, uav.goal, scenario.rectangles,
                                      scenario.sim, derive_uav_seed(seed, uav.id))
        except PlanningError as exc:
            raise PlanningError(f"uav '{uav.id}': {exc}") from exc
    return paths


def build_world(scenario: "Scenario", params: Params,
                paths: Mapping[str, tuple[Vec2, ...]]) -> World:
    """Vehicles at their starts and the circle approximation of `params`."""
    uavs = [
        UavState(
            id=u.id,
            position=u.start,
            velocity=ZERO,
            path=paths[u.id],
        )
        for u in scenario.uavs
    ]
    return World(uavs=uavs, field=ObstacleField(list(scenario.rectangles), params))


def run_planned(scenario: "Scenario", params: Params,
                paths: Mapping[str, tuple[Vec2, ...]]) -> SimResult:
    """Simulate over pre-planned paths (lets both algorithms share one plan).

    `params` is the run's whole table: it replaces `scenario.sim` for the
    step loop, both controllers and the body and circle sizes.
    """
    world = build_world(scenario, params, paths)
    states = [tuple(world.uavs)]
    events = detect_collisions(world, params, 0.0)
    steps = 0
    while steps < params.max_steps and not all(u.arrived for u in world.uavs):
        steps += 1
        events.extend(step(world, params, steps * params.dt))
        states.append(tuple(world.uavs))
    return SimResult(params, states, events)


def run(scenario: "Scenario", params: Params, seed: int) -> SimResult:
    """Plan all paths, then simulate them; `params` drives planning and flight."""
    return run_planned(scenario, params, plan_paths(replace(scenario, sim=params), seed))
