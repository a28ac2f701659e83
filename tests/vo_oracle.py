"""Reference pipeline for one VO decision, as `vo_core` computed it on `Vec2`.

The program computes a cone's line of sight on floats, keeps a seeded set as
its polar grid and the seeding cone, tests a heading against that cone only
where a reader needs the answer, and selects on the grid without listing it.
This module keeps the plain form of each step: the cone from the `Vec2`
offset through `angle_of`, the full list of open-heading flags, the listed
candidates, and the scan of that list for the first least squared distance.
`vo_core.avoid` must return `oracle_decision`'s result, bit for bit.
"""

import math

from utm_sim import vo_core
from utm_sim.geom2d import Vec2, distance, normalize_angle
from utm_sim.vo_core import AvoidResult, CollisionCone, in_cone


def angle_of(v):
    """Quadrant-correct polar angle of v, in (-pi, pi]. Undefined for the zero vector."""
    if v.x == 0.0 and v.y == 0.0:
        raise ValueError("direction of the zero vector is undefined")
    return normalize_angle(math.atan2(v.y, v.x))


def oracle_collision_cone(p_a, p_b, r_a, r_b):
    """The cone of relative velocities of A (w.r.t. B) that lead to collision."""
    if r_a < 0.0 or r_b < 0.0:
        raise ValueError("radii must be >= 0")
    d = distance(p_a, p_b)
    if d == 0.0:
        raise ValueError("collision cone undefined for coincident positions")
    combined = r_a + r_b
    half = math.pi / 2.0 if d <= combined else math.asin(combined / d)
    return CollisionCone(angle_of(p_b - p_a), half)


def oracle_open_headings(headings, cone):
    """Per heading, whether a nonzero velocity along it lies outside `cone`."""
    return [not abs(math.remainder(theta - cone.center_angle, math.tau)) < cone.half_angle
            for theta, _, _ in headings]


def oracle_candidates(v_ab, v_b, cone, params):
    """The seeded set, listed: per heading in order, its speeds, or only its
    zero-speed entry where `cone` blocks it; each entry in absolute form."""
    headings = vo_core._headings(params.theta_step)
    speeds = vo_core._magnitude_grid(v_ab.norm(), params.mag_step)
    zero = (0.0 + v_b.x, 0.0 + v_b.y)
    cands = []
    for (_, cos_t, sin_t), is_open in zip(headings, oracle_open_headings(headings, cone)):
        if is_open:
            cands.extend((m * cos_t + v_b.x, m * sin_t + v_b.y) for m in speeds)
        else:
            cands.append(zero)
    return cands


def oracle_closest(cands, nx, ny):
    """The first candidate of least computed squared distance to (nx, ny), or None."""
    best, best_d2 = None, math.inf
    for cand in cands:
        dx = cand[0] - nx
        dy = cand[1] - ny
        d2 = dx * dx + dy * dy
        if d2 < best_d2:
            best, best_d2 = cand, d2
    return best


def oracle_decision(state, threats, params):
    """`vo_core.avoid`: seed on the first conflicting threat, prune on every
    later one, select by the full scan; an emptied set hovers."""
    wp = state.current_waypoint()
    v_a = Vec2(params.kp * (wp.x - state.position.x), params.kp * (wp.y - state.position.y))
    cands = None
    for threat in threats:
        if threat.position == state.position:
            continue
        cone = oracle_collision_cone(state.position, threat.position, 0.0,
                                     threat.combined_radius)
        v_rel = v_a - threat.velocity
        if not in_cone(v_rel, cone):
            continue
        if cands is None:
            cands = oracle_candidates(v_rel, threat.velocity, cone, params)
        else:
            ox, oy = threat.velocity.x, threat.velocity.y
            cands = [c for c in cands if not in_cone(Vec2(c[0] - ox, c[1] - oy), cone)]
    if cands is None:
        return AvoidResult(v_a, engaged=False, empty_set=False)
    if not cands:
        return AvoidResult(Vec2(0.0, 0.0), engaged=True, empty_set=True)
    best = oracle_closest(cands, v_a.x, v_a.y)
    return AvoidResult(Vec2(*best) if best is not None else Vec2(0.0, 0.0),
                       engaged=True, empty_set=False)
