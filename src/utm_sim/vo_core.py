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
stands for hundreds of them, and only the one velocity that leaves `avoid` is
built (and finiteness-checked) as a Vec2. A set is kept as its polar grid
(headings, speeds, the seeding cone, the threat's velocity) plus the velocity
and cone of every threat that pruned it; no decision lists it. Whether a
heading lies outside the seeding cone, or a candidate outside the pruning
cones, is tested only where selection needs the answer: for a heading whose
rounded distance bound says it could hold the winner, and for a candidate that
would become the best. Per such open heading, selection evaluates the two or
three speeds near the nominal velocity's projection onto that heading, and
walks outward from them only where pruning rejected one; it picks the same
candidate as the scan of the whole list (see `select_velocity`). The heading
table (theta, cos, sin) is computed once per theta_step, and the speed grid is
grown once per mag_step, for the 16 most recent step sizes each.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .geom2d import Vec2, normalize_angle
from .params import MAX_SPEEDS, Params

if TYPE_CHECKING:
    from .sim_engine import UavState


@dataclass(frozen=True, slots=True)
class Threat:
    """One conflict source as seen by a single vehicle for one decision.

    combined_radius is the sum of both bodies' radii. source_id names the
    source: a UAV id, or `<rect id>#<k>` for an obstacle circle. The cone
    math never reads it.
    """

    position: Vec2
    velocity: Vec2
    combined_radius: float
    source_id: str


@dataclass(frozen=True, slots=True)
class CollisionCone:
    """Angular cone of relative velocities leading to collision with one threat.

    center_angle is the line-of-sight angle toward the threat, half_angle the
    cone half-width. At separations at or below the combined radius the cone
    degenerates to the approaching half-plane: half_angle is pi/2.
    """

    center_angle: float
    half_angle: float


@dataclass(frozen=True, slots=True)
class _PolarGrid:
    """A feasible set as its seeded grid and its pruning cones: every heading
    with its speeds, or only its zero-speed entry where the seeding cone blocks
    it, less each candidate inside a pruning cone.

    Heading theta is blocked when abs(remainder(theta - center, tau)) < half,
    the negated in_cone rule for a nonzero velocity along it; candidate c is
    pruned when `_in_cone_xy(c - o, cone)` holds for an entry (ox, oy, cone) of
    `prunes`. Both tests are made where a reader needs their answer, not when
    the grid is seeded or pruned.
    """

    headings: tuple[tuple[float, float, float], ...]  # (theta, cos, sin), ascending
    center: float  # the seeding cone's center_angle
    half: float  # and its half_angle
    speeds: list[float]  # ascending, ends on the relative speed v_max
    mag_step: float
    bx: float  # the seeding threat's velocity
    by: float
    prunes: tuple[tuple[float, float, CollisionCone], ...] = ()  # in pruning order

    def candidates(self) -> list[tuple[float, float]]:
        bx, by, speeds, prunes = self.bx, self.by, self.speeds, self.prunes
        center, half, tau, remainder = self.center, self.half, math.tau, math.remainder
        # zero speed has no heading, so it survives the seeding cone; `0.0 +` folds a
        # -0.0 component of the threat's velocity to 0.0, which exports as 0.000000
        zero = (0.0 + bx, 0.0 + by)
        cands: list[tuple[float, float]] = []
        for theta, cos_t, sin_t in self.headings:
            if abs(remainder(theta - center, tau)) < half:
                cands.append(zero)
            else:
                cands.extend([(m * cos_t + bx, m * sin_t + by) for m in speeds])
        if prunes:
            cands = [c for c in cands if _survives(c[0], c[1], prunes)]
        return cands


class FeasibleSet:
    """Feasible absolute velocities as (vx, vy) float pairs, in search order.

    Search order is ascending heading, then ascending speed. A heading blocked
    by the seeding cone contributes only its zero-speed entry, and pruning
    drops entries without reordering the rest. The set is held as its `grid`;
    `candidates` lists it on each read, and selection never reads it.
    """

    __slots__ = ("grid",)

    def __init__(self, grid: _PolarGrid) -> None:
        self.grid = grid

    @property
    def candidates(self) -> list[tuple[float, float]]:
        return self.grid.candidates()


class AvoidResult(NamedTuple):
    velocity: Vec2
    engaged: bool
    empty_set: bool


def collision_cone(p_a: Vec2, p_b: Vec2, r_a: float, r_b: float) -> CollisionCone:
    """Cone of relative velocities of A (w.r.t. B) that lead to collision.

    Line of sight from the two-argument arctangent of the offset p_b - p_a,
    wrapped into (-pi, pi]; half-angle is asin((r_a + r_b) / distance). At
    distance <= combined radius the geometric cone is undefined, so the
    half-angle clamps to pi/2: any velocity with an approaching component is
    conflicting.
    """
    if r_a < 0.0 or r_b < 0.0:
        raise ValueError("radii must be >= 0")
    dx, dy = p_b.x - p_a.x, p_b.y - p_a.y
    d = math.hypot(dx, dy)
    if d == 0.0:
        raise ValueError("collision cone undefined for coincident positions")
    center = normalize_angle(math.atan2(dy, dx))
    combined = r_a + r_b
    half = math.pi / 2.0 if d <= combined else math.asin(combined / d)
    return CollisionCone(center_angle=center, half_angle=half)


# Cone membership compares |normalize_angle(offset)| with the half-angle.
# normalize_angle is remainder(offset, tau) with -pi folded to +pi, and the
# fold keeps the absolute value, so the remainder alone gives the same answer
# for every finite offset.

def _in_cone_xy(x: float, y: float, cone: CollisionCone) -> bool:
    # the in_cone rule on a bare (x, y) relative velocity
    if x == 0.0 and y == 0.0:
        return False
    return abs(math.remainder(math.atan2(y, x) - cone.center_angle, math.tau)) < cone.half_angle


def in_cone(v_rel: Vec2, cone: CollisionCone) -> bool:
    """True when the relative velocity heading lies strictly inside the cone.

    The zero vector has no heading and is never inside: staying put cannot
    close the gap. Boundary headings (offset exactly half_angle) are outside.
    """
    return _in_cone_xy(v_rel.x, v_rel.y, cone)


@lru_cache(maxsize=16)
def _headings(theta_step: float) -> tuple[tuple[float, float, float], ...]:
    """(theta, cos theta, sin theta) for every heading k*theta_step < 2*pi, in order."""
    table = []
    k = 0
    while (theta := k * theta_step) < math.tau:
        table.append((theta, math.cos(theta), math.sin(theta)))
        k += 1
    return tuple(table)


@lru_cache(maxsize=16)
def _speed_table(step: float) -> list[float]:
    """The speeds k*step for k = 0, 1, ..., grown on demand by `_magnitude_grid`.

    The table only ever gains entries, and each entry is the float the loop
    `k * step` gives, so sharing it changes no search's result.
    """
    return [0.0]


# The most entries a speed table may grow to. `Params` keeps kp times the
# bounds diagonal, the top nominal speed inside the bounds, within MAX_SPEEDS
# steps; a relative speed adds the threat's own speed, so this allows for
# four times that before a decision is refused instead of allocated.
_SPEED_CAP = 4 * MAX_SPEEDS


def _magnitude_grid(v_max: float, step: float) -> list[float]:
    """Speeds {k*step <= v_max} plus v_max itself when it is off-grid.

    k*step rounds monotonically in k, so the on-grid speeds are the prefix of
    the stored table up to bisect_right(table, v_max). A grid that would grow
    the table past `_SPEED_CAP` entries raises ValueError.
    """
    table = _speed_table(step)
    while table[-1] <= v_max:
        if len(table) >= _SPEED_CAP:
            raise ValueError(f"relative speed {v_max} needs more than {_SPEED_CAP} VO "
                             f"speeds of mag_step {step}")
        table.append(len(table) * step)
    grid = table[:bisect_right(table, v_max)]
    if grid[-1] != v_max:
        grid.append(v_max)
    return grid


def search_feasible(v_ab: Vec2, v_b: Vec2, cone: CollisionCone,
                    params: Params) -> FeasibleSet:
    """Seed the replacement velocities outside `cone`, in absolute form.

    Headings run over {k*theta_step < 2*pi}; per heading, speeds over the
    magnitude grid capped at |v_ab|. A relative candidate (m, theta) survives
    when it is outside the cone (a blocked heading keeps only m = 0, which has
    no heading); it stands for the absolute velocity
    (m*cos + v_b.x, m*sin + v_b.y). The set is returned as its grid; its
    `candidates` list is built in this order when read.
    """
    return FeasibleSet(_PolarGrid(
        headings=_headings(params.theta_step),
        center=cone.center_angle,
        half=cone.half_angle,
        speeds=_magnitude_grid(v_ab.norm(), params.mag_step),
        mag_step=params.mag_step,
        bx=v_b.x,
        by=v_b.y,
    ))


def prune_feasible(fset: FeasibleSet, v_b_other: Vec2,
                   cone_other: CollisionCone) -> FeasibleSet:
    """Drop candidates whose velocity relative to another threat falls in its cone.

    The returned set holds the same grid with this threat's velocity and cone
    appended to its pruning cones; nothing is listed or tested here.
    """
    grid = fset.grid
    prune = (v_b_other.x, v_b_other.y, cone_other)
    return FeasibleSet(replace(grid, prunes=grid.prunes + (prune,)))


def _survives(cx: float, cy: float, prunes: tuple[tuple[float, float, CollisionCone], ...]) -> bool:
    # the pruning filter: (cx, cy) less each threat's velocity lies outside its cone
    for ox, oy, cone in prunes:
        if _in_cone_xy(cx - ox, cy - oy, cone):
            return False
    return True


_U = 2.0 ** -53  # unit roundoff of a double
_TINY = 2.0 ** -1000  # covers the absolute error of products that underflow
_HOVER = (0.0, 0.0)  # the pick of a set whose every survivor has an infinite d2


def _closest_on_grid(grid: _PolarGrid, nx: float, ny: float) -> tuple[float, float] | None:
    """The first candidate of least computed squared distance to (nx, ny) in
    `grid.candidates()`, found without listing it (see `select_velocity`);
    `_HOVER` where every surviving candidate's distance is infinite, None
    where none survives."""
    speeds, step, bx, by, prunes = grid.speeds, grid.mag_step, grid.bx, grid.by, grid.prunes
    top = len(speeds) - 1
    v_max = speeds[top]
    scale = v_max + abs(bx) + abs(by) + abs(nx) + abs(ny)
    err = 32.0 * _U * (scale * scale) + _TINY
    windowed = 16.0 * err <= step * step  # false also when scale * scale overflows
    wx, wy = nx - bx, ny - by
    # heading 0 has cos 1 and sin 0, so the first candidate listed is `zero`,
    # blocked or not; every zero-speed entry has its computed d2
    zero = (0.0 + bx, 0.0 + by)
    dx = zero[0] - nx
    dy = zero[1] - ny
    zero_d2 = dx * dx + dy * dy
    best, best_d2 = None, math.inf
    if not prunes or _survives(zero[0], zero[1], prunes):
        best, best_d2 = (zero if zero_d2 < math.inf else _HOVER), zero_d2
    best_theta = None  # the heading of a best taken after `zero`
    bound = best_d2 + 2.0 * err
    center, half, tau, remainder = grid.center, grid.half, math.tau, math.remainder
    lo, hi = 0, top + 1  # every speed, unless windowed
    for theta, cos_t, sin_t in grid.headings:
        if windowed:
            t = cos_t * wx + sin_t * wy
            if t <= 0.0:
                if zero_d2 >= bound:
                    continue
                t = 0.0
            else:
                cross = cos_t * wy - sin_t * wx
                if cross * cross >= bound:
                    continue
                if t > v_max:
                    t = v_max
        if abs(remainder(theta - center, tau)) < half:
            continue  # blocked: it holds only `zero`, which was tried first
        if windowed:
            lo, hi = bisect_left(speeds, t - step), bisect_right(speeds, t + step)
        rejected = False
        for m in speeds[lo:hi]:
            cx = m * cos_t + bx
            cy = m * sin_t + by
            dx = cx - nx
            dy = cy - ny
            d2 = dx * dx + dy * dy
            if d2 < best_d2:
                if prunes and not _survives(cx, cy, prunes):
                    rejected = True
                else:
                    best, best_d2, best_theta = (cx, cy), d2, theta
                    bound = d2 + 2.0 * err
            elif best is None and _survives(cx, cy, prunes):
                best = _HOVER  # a survivor at an infinite distance
        if not rejected:
            continue
        # walk outward from the window, below it, then above it; a side ends
        # at the first candidate taken, or at the first whose d2 rules it out
        for below, side in ((True, range(lo - 1, -1, -1)), (False, range(hi, top + 1))):
            for i in side:
                m = speeds[i]
                cx = m * cos_t + bx
                cy = m * sin_t + by
                dx = cx - nx
                dy = cy - ny
                d2 = dx * dx + dy * dy
                # below the window, a tie with this heading's best comes first
                if d2 < best_d2 or below and d2 == best_d2 and best_theta == theta:
                    if not _survives(cx, cy, prunes):
                        continue
                    best, best_d2, best_theta = (cx, cy), d2, theta
                    bound = d2 + 2.0 * err
                if i != top - 1:  # the gap up to an off-grid v_max may be short
                    break
    return best


def select_velocity(fset: FeasibleSet, v_desired: Vec2) -> Vec2 | None:
    """Candidate closest to the nominal velocity; earliest wins ties; None if empty.

    The rule is the scan of `fset.candidates` for the first least computed
    d2 = dx*dx + dy*dy; a set whose every d2 is infinite hovers at (0, 0).
    The grid is walked instead, with the same float expressions, which gives
    the same candidate. The walk keeps the best candidate, its d2 and its
    heading. It takes a candidate when its d2 is below best_d2, or equal to
    it for a candidate that comes before the best in search order, and only
    once the candidate survives every pruning cone (`_in_cone_xy` of c - o,
    the listing's own test). So it keeps the least (d2, search position)
    among the survivors it visits, whatever the order of visiting; what
    follows shows that no survivor it passes over has a lesser one.

    The first candidate listed is `zero` = (0.0 + b_x, 0.0 + b_y), heading
    0's zero-speed entry (cos 1, sin 0), blocked or not; it is tried first.
    A blocked heading holds only `zero`, which cannot beat itself, so blocked
    headings are passed over. An open heading's zero-speed entry,
    (0.0*cos + b_x, 0.0*sin + b_y), has the d2 of `zero` but may differ from
    it in the sign of a zero component, which changes `atan2`, so it is
    tested on its own value.

    Let u = 2**-53, n the nominal velocity, b the seeding threat's velocity,
    w = n - b, q = (cos, sin) of a heading as stored (|q|^2 is within 5 u of 1
    for faithfully rounded math.cos and math.sin) and
    S = v_max + |b_x| + |b_y| + |n_x| + |n_y|. In exact arithmetic speed m
    has D(m) = |m q - w|^2 = |q|^2 (m - m*)^2 + D*, with m* = q.w / |q|^2 and
    D* = (q x w)^2 / |q|^2. For t = cos*w_x + sin*w_y and
    cross = cos*w_y - sin*w_x as computed, the standard error bounds give
    |d2 - D(m)| <= 9 u S^2, |cross^2 - D*| <= 13 u S^2 and |t - m*| <= 9 u S.
    Let E = 32 u S^2 (plus 2**-1000 for products that underflow). Skips and
    windows are used only when 16 E <= mag_step^2, so u S < 1e-9 mag_step.
    Otherwise (huge speeds, or S * S overflowing) every speed of every open
    heading is visited in search order, and the walk is the scan itself; a
    survivor met while none is held makes the pick `_HOVER` should its d2 be
    infinite, and a later finite d2 replaces it.

    - Skip: a heading is passed over when a lower bound L of its D, less
      the errors, reaches best_d2: L >= best_d2 + 2E, where rounding that sum
      costs under 2 u S^2 as best_d2 <= 2 S^2. For t > 0, L = cross^2 (D >= D*).
      For t <= 0, m* <= 9 u S, so D(m) >= D(0) - 19 u S^2 on [0, v_max] and
      L is the d2 of speed 0. Each computed d2 on the heading is then
      >= best_d2, and the best comes earlier: none is taken.
    - Window: the speeds in [t_c - mag_step, t_c + mag_step] are evaluated in
      order, t_c being t clamped to [0, v_max]. The speeds run from 0 to
      v_max at most mag_step (1 + 1e-9) apart, so one, s0, lies within about
      mag_step / 2 of p, m* clamped to [0, v_max], and |t_c - p| <= 9 u S.
      Every speed m outside the window has |m - p| - |s0 - p| >= 0.49 mag_step,
      and |m - m*| - |s0 - m*| equals that difference (m, s0 and p lie on the
      same side of m* or p is m*), so D(m) - D(s0) >= 0.23 mag_step^2 >= 3.6 E,
      more than twice the d2 error: its computed d2 is above that of s0. If
      pruning rejected no window candidate that would have become the best,
      best_d2 is now at most the d2 of s0, and the heading is settled.
    - Outward: otherwise the walk goes on from the window, below it and then
      above it. Two speeds m < m' beyond the window on one side are a grid
      gap g apart and lie more than 0.99 mag_step past p, on the far side of
      it from m*, so D grows outward between them by |q|^2 g (m + m' - 2 m*),
      at least 1.9 mag_step^2 >= 30 E for a full gap: the computed d2 grows
      too. Only the last gap, up to an off-grid v_max, may be shorter. So a
      side ends at the first candidate taken, or at the first that its d2
      alone rules out, as every one further out has a greater d2; but no
      side ends at the next-to-last speed, so above the window the last is
      still evaluated. Below the window, a candidate comes before the
      window's in search order, so it is also taken on a tie with a best
      from its own heading.

    Until a candidate survives, best_d2 is infinite: no heading is skipped,
    every window candidate is tested (with windows, d2 is finite), and a
    rejected one sends the walk over the rest of its heading. So the pick is
    None only when nothing survives, as the scan of an empty list.
    """
    best = _closest_on_grid(fset.grid, v_desired.x, v_desired.y)
    return None if best is None else Vec2(*best)


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
    velocity = select_velocity(fset, v_a)
    if velocity is None:
        return AvoidResult(Vec2(0.0, 0.0), engaged=True, empty_set=True)
    return AvoidResult(velocity, engaged=True, empty_set=False)
