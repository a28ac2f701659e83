"""Velocity-obstacle avoidance: collision cones and the feasible-velocity search.

For each conflicting threat, the set of relative velocities that would ever
bring the vehicle within the combined radius forms an angular cone around the
line of sight. The search enumerates replacement relative velocities on a
polar grid (headings every theta_step around the full circle, speeds every
mag_step up to the current relative speed), keeps the ones outside the first
conflicting threat's cone, prunes that set against every further conflicting
threat, and finally picks the candidate closest to the vehicle's nominal
velocity. An empty set falls back to hovering in place.

Candidates are plain (vx, vy) float pairs in world frame, not Vec2: a decision
enumerates hundreds of them, and only the one velocity that leaves `avoid` is
built (and finiteness-checked) as a Vec2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .geom2d import Vec2, angle_of, distance, normalize_angle
from .params import Params

if TYPE_CHECKING:
    from .sim_engine import UavState


@dataclass(frozen=True, slots=True)
class Threat:
    """One conflict source as seen by a single vehicle for one decision.

    combined_radius is the sum of both bodies' radii. kind/source_id record
    the engine's canonical ordering key (UAVs before obstacle circles, then
    source id); they do not feed it, and the cone math never reads them.
    """

    position: Vec2
    velocity: Vec2
    combined_radius: float
    kind: str = "uav"
    source_id: str = ""


@dataclass(frozen=True, slots=True)
class CollisionCone:
    """Angular cone of relative velocities leading to collision with one threat.

    center_angle is the line-of-sight angle toward the threat, half_angle the
    cone half-width. already_violating marks separations at or below the
    combined radius, where the cone degenerates to the approaching half-plane.
    """

    center_angle: float
    half_angle: float
    c_left: float
    c_right: float
    already_violating: bool


@dataclass
class FeasibleSet:
    """Feasible absolute velocities as (vx, vy) float pairs, in search order.

    Search order is ascending heading, then ascending speed. A heading blocked
    by the seeding cone contributes only its zero-speed entry.
    """

    candidates: list[tuple[float, float]] = field(default_factory=list)


class AvoidResult(NamedTuple):
    velocity: Vec2
    engaged: bool
    empty_set: bool


def collision_cone(p_a: Vec2, p_b: Vec2, r_a: float, r_b: float) -> CollisionCone:
    """Cone of relative velocities of A (w.r.t. B) that lead to collision.

    Line of sight from the two-argument arctangent; half-angle is
    asin((r_a + r_b) / distance). At distance <= combined radius the geometric
    cone is undefined, so the half-angle clamps to pi/2 (any velocity with an
    approaching component is conflicting) and already_violating is set.
    """
    if r_a < 0.0 or r_b < 0.0:
        raise ValueError("radii must be >= 0")
    d = distance(p_a, p_b)
    if d == 0.0:
        raise ValueError("collision cone undefined for coincident positions")
    center = angle_of(p_b - p_a)
    combined = r_a + r_b
    if d <= combined:
        half = math.pi / 2.0
        violating = True
    else:
        half = math.asin(combined / d)
        violating = False
    return CollisionCone(
        center_angle=center,
        half_angle=half,
        c_left=normalize_angle(center + half),
        c_right=normalize_angle(center - half),
        already_violating=violating,
    )


def _in_cone_xy(x: float, y: float, cone: CollisionCone) -> bool:
    # the in_cone rule on a bare (x, y) relative velocity
    if x == 0.0 and y == 0.0:
        return False
    return abs(normalize_angle(math.atan2(y, x) - cone.center_angle)) < cone.half_angle


def in_cone(v_rel: Vec2, cone: CollisionCone) -> bool:
    """True when the relative velocity heading lies strictly inside the cone.

    The zero vector has no heading and is never inside: staying put cannot
    close the gap. Boundary headings (offset exactly half_angle) are outside.
    """
    return _in_cone_xy(v_rel.x, v_rel.y, cone)


def _heading_in_cone(theta: float, cone: CollisionCone) -> bool:
    # same predicate as in_cone for a nonzero velocity with known heading
    return abs(normalize_angle(theta - cone.center_angle)) < cone.half_angle


def _magnitude_grid(v_max: float, step: float) -> list[float]:
    """Speeds {k*step <= v_max} plus v_max itself when it is off-grid."""
    grid: list[float] = []
    k = 0
    while (m := k * step) <= v_max:
        grid.append(m)
        k += 1
    if grid[-1] != v_max:
        grid.append(v_max)
    return grid


def search_feasible(v_ab: Vec2, v_b: Vec2, cone: CollisionCone,
                    params: Params) -> FeasibleSet:
    """Enumerate replacement velocities outside `cone`, in absolute form.

    Headings run over {k*theta_step < 2*pi}; per heading, speeds over the
    magnitude grid capped at |v_ab|. A relative candidate (m, theta) survives
    when it is outside the cone; it is stored as the absolute velocity
    (m*cos + v_b.x, m*sin + v_b.y) so later pruning and selection work in
    world frame. The arithmetic is exactly that of Vec2(m*cos, m*sin) + v_b.
    """
    speeds = _magnitude_grid(v_ab.norm(), params.mag_step)
    bx, by = v_b.x, v_b.y
    cands: list[tuple[float, float]] = []
    k = 0
    while (theta := k * params.theta_step) < math.tau:
        if _heading_in_cone(theta, cone):
            # zero speed has no heading, so it survives any cone; `0.0 +`
            # folds a -0.0 component to 0.0 as the vector sum does
            cands.append((0.0 + bx, 0.0 + by))
        else:
            cos_t, sin_t = math.cos(theta), math.sin(theta)
            cands.extend([(m * cos_t + bx, m * sin_t + by) for m in speeds])
        k += 1
    return FeasibleSet(cands)


def prune_feasible(fset: FeasibleSet, v_b_other: Vec2,
                   cone_other: CollisionCone) -> FeasibleSet:
    """Drop candidates whose velocity relative to another threat falls in its cone."""
    ox, oy = v_b_other.x, v_b_other.y
    return FeasibleSet([
        c for c in fset.candidates
        if not _in_cone_xy(c[0] - ox, c[1] - oy, cone_other)
    ])


def select_velocity(fset: FeasibleSet, v_desired: Vec2) -> Vec2:
    """Candidate closest to the nominal velocity; earliest wins ties; hover if empty."""
    best: tuple[float, float] | None = None
    best_d2 = math.inf
    nx, ny = v_desired.x, v_desired.y
    for cand in fset.candidates:
        dx = cand[0] - nx
        dy = cand[1] - ny
        d2 = dx * dx + dy * dy
        if d2 < best_d2:
            best, best_d2 = cand, d2
    return Vec2(*best) if best is not None else Vec2(0.0, 0.0)


def avoid(state: "UavState", threats: Sequence[Threat], params: Params) -> AvoidResult:
    """One avoidance decision for one vehicle.

    `threats` must already be filtered to activation range and canonically
    ordered (nearest first); the first threat whose cone captures the nominal
    relative velocity seeds the feasible set, later conflicting threats prune
    it. With no conflicting threat the nominal velocity passes through
    unchanged. An emptied set returns hover (0, 0) with empty_set set, which
    the engine logs.
    """
    wp = state.current_waypoint()
    v_a = Vec2(params.kp * (wp.x - state.position.x), params.kp * (wp.y - state.position.y))
    fset: FeasibleSet | None = None
    for threat in threats:
        if threat.position == state.position:
            continue  # no line of sight to hang a cone on
        cone = collision_cone(state.position, threat.position, 0.0, threat.combined_radius)
        v_rel = v_a - threat.velocity
        if not in_cone(v_rel, cone):
            continue
        if fset is None:
            fset = search_feasible(v_rel, threat.velocity, cone, params)
        else:
            fset = prune_feasible(fset, threat.velocity, cone)
    if fset is None:
        return AvoidResult(v_a, engaged=False, empty_set=False)
    if not fset.candidates:
        return AvoidResult(Vec2(0.0, 0.0), engaged=True, empty_set=True)
    return AvoidResult(select_velocity(fset, v_a), engaged=True, empty_set=False)
