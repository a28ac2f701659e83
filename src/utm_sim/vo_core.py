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
built (and finiteness-checked) as a Vec2. A seeded set is kept as its polar
grid (headings, speeds, the seeding cone, the threat's velocity) and lists its
candidates only when something reads them, which is pruning against a second
threat. Whether a heading lies outside the seeding cone is tested only where
the answer is read: by the listing, per heading, and by selection, only for a
heading whose rounded distance bound says it could hold the winner.
Selecting on an unpruned grid evaluates, per such open heading, only the two
or three speeds near the nominal velocity's projection onto that heading, and
picks the same candidate as the scan of the whole list (see
`select_velocity`). The heading table (theta, cos, sin) is computed once per
theta_step, and the speed grid is grown once per mag_step, for the 16 most
recent step sizes each.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
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
    """A seeded set before it is listed: every heading with its speeds, or
    only its zero-speed entry where the seeding cone blocks it.

    Heading theta is blocked when abs(remainder(theta - center, tau)) < half,
    the negated in_cone rule for a nonzero velocity along it; that test is
    made where a reader needs its answer, not when the grid is seeded.
    """

    headings: tuple[tuple[float, float, float], ...]  # (theta, cos, sin), ascending
    center: float  # the seeding cone's center_angle
    half: float  # and its half_angle
    speeds: list[float]  # ascending, ends on the relative speed v_max
    mag_step: float
    bx: float  # the seeding threat's velocity
    by: float

    def candidates(self) -> list[tuple[float, float]]:
        bx, by, speeds = self.bx, self.by, self.speeds
        center, half, tau, remainder = self.center, self.half, math.tau, math.remainder
        # zero speed has no heading, so it survives any cone; `0.0 +` folds a
        # -0.0 component of the threat's velocity to 0.0, which exports as 0.000000
        zero = (0.0 + bx, 0.0 + by)
        cands: list[tuple[float, float]] = []
        for theta, cos_t, sin_t in self.headings:
            if abs(remainder(theta - center, tau)) < half:
                cands.append(zero)
            else:
                cands.extend([(m * cos_t + bx, m * sin_t + by) for m in speeds])
        return cands


class FeasibleSet:
    """Feasible absolute velocities as (vx, vy) float pairs, in search order.

    Search order is ascending heading, then ascending speed. A heading blocked
    by the seeding cone contributes only its zero-speed entry. A set returned
    by `search_feasible` is built from `None` and its polar grid, keeps the
    grid in `grid` and builds the `candidates` list on first read; a set
    built from a list has no grid.
    """

    __slots__ = ("_candidates", "grid")

    def __init__(self, candidates: list[tuple[float, float]] | None,
                 grid: _PolarGrid | None = None) -> None:
        self._candidates = candidates
        self.grid = grid

    @property
    def candidates(self) -> list[tuple[float, float]]:
        if self._candidates is None:
            self._candidates = self.grid.candidates()
        return self._candidates

    def __bool__(self) -> bool:
        # a grid is never empty: every heading keeps at least its zero speed
        return self._candidates is None or bool(self._candidates)


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
    `candidates` list is built in this order when first read.
    """
    return FeasibleSet(None, _PolarGrid(
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
    """Drop candidates whose velocity relative to another threat falls in its cone."""
    ox, oy = v_b_other.x, v_b_other.y
    return FeasibleSet([
        c for c in fset.candidates
        if not _in_cone_xy(c[0] - ox, c[1] - oy, cone_other)
    ])


def _closest(cands: list[tuple[float, float]], nx: float, ny: float) -> tuple[float, float] | None:
    # the reference rule: first candidate of least squared distance
    best = None
    best_d2 = math.inf
    for cand in cands:
        dx = cand[0] - nx
        dy = cand[1] - ny
        d2 = dx * dx + dy * dy
        if d2 < best_d2:
            best, best_d2 = cand, d2
    return best


_U = 2.0 ** -53  # unit roundoff of a double
_TINY = 2.0 ** -1000  # covers the absolute error of products that underflow


def _closest_on_grid(grid: _PolarGrid, nx: float, ny: float) -> tuple[float, float] | None:
    """`_closest(grid.candidates(), nx, ny)` without listing the grid, or None
    where the rounding bound of `select_velocity` does not hold."""
    speeds, step, bx, by = grid.speeds, grid.mag_step, grid.bx, grid.by
    v_max = speeds[-1]
    scale = v_max + abs(bx) + abs(by) + abs(nx) + abs(ny)
    err = 32.0 * _U * (scale * scale) + _TINY
    if not 16.0 * err <= step * step:  # also when scale * scale overflows
        return None
    wx, wy = nx - bx, ny - by
    # every zero-speed entry, blocked or not, has this same computed d2
    zero = (0.0 + bx, 0.0 + by)
    dx = zero[0] - nx
    dy = zero[1] - ny
    zero_d2 = dx * dx + dy * dy
    center, half, tau, remainder = grid.center, grid.half, math.tau, math.remainder
    headings = grid.headings
    # a blocked heading 0 puts its zero-speed entry first; every other blocked
    # heading ties with it or with a zero-speed entry beaten by the open
    # heading holding it, so only open headings are evaluated
    if abs(remainder(headings[0][0] - center, tau)) < half:
        best, best_d2 = zero, zero_d2
    else:
        best, best_d2 = None, math.inf
    bound = best_d2 + 2.0 * err
    for theta, cos_t, sin_t in headings:
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
            continue  # blocked
        for m in speeds[bisect_left(speeds, t - step):bisect_right(speeds, t + step)]:
            cx = m * cos_t + bx
            cy = m * sin_t + by
            dx = cx - nx
            dy = cy - ny
            d2 = dx * dx + dy * dy
            if d2 < best_d2:
                best, best_d2 = (cx, cy), d2
                bound = best_d2 + 2.0 * err
    return best


def select_velocity(fset: FeasibleSet, v_desired: Vec2) -> Vec2:
    """Candidate closest to the nominal velocity; earliest wins ties; hover if empty.

    The rule is the scan of `fset.candidates` for the first least computed
    d2 = dx*dx + dy*dy. On a set that still holds its grid, the headings are
    walked in search order and each open one is settled from at most a few
    speeds, evaluated with the same float expressions, which gives the same
    candidate.

    Let u = 2**-53, n the nominal velocity, b the seeding threat's velocity,
    w = n - b, q = (cos, sin) of a heading as stored (|q|^2 is within 5 u of 1
    for faithfully rounded math.cos and math.sin) and
    S = v_max + |b_x| + |b_y| + |n_x| + |n_y|. In exact arithmetic speed m
    has D(m) = |m q - w|^2 = |q|^2 (m - m*)^2 + D*, with m* = q.w / |q|^2 and
    D* = (q x w)^2 / |q|^2. For t = cos*w_x + sin*w_y and
    cross = cos*w_y - sin*w_x as computed, the standard error bounds give
    |d2 - D(m)| <= 9 u S^2, |cross^2 - D*| <= 13 u S^2 and |t - m*| <= 9 u S.
    Let E = 32 u S^2 (plus 2**-1000 for products that underflow). The grid is
    walked only when 16 E <= mag_step^2, so u S < 1e-9 mag_step; otherwise
    (huge speeds, or S * S overflowing), on a pruned set and on a set built
    from a list, the full scan runs.

    - Skip: a heading is passed over when a lower bound L of its D, less
      the errors, reaches best_d2: L >= best_d2 + 2E, where rounding that sum
      costs under 2 u S^2 as best_d2 <= 2 S^2. For t > 0, L = cross^2 (D >= D*).
      For t <= 0, m* <= 9 u S, so D(m) >= D(0) - 19 u S^2 on [0, v_max] and
      L is the d2 of speed 0, which is the same for every zero-speed entry.
      Each computed d2 on the heading is then >= best_d2: none is closer.
    - Window: only the speeds in [t_c - mag_step, t_c + mag_step] are
      evaluated, t_c being t clamped to [0, v_max]. The speeds run from 0 to
      v_max at most mag_step (1 + 1e-9) apart, so one, s0, lies within about
      mag_step / 2 of p, m* clamped to [0, v_max], and |t_c - p| <= 9 u S.
      Every speed m outside the window has |m - p| - |s0 - p| >= 0.49 mag_step,
      and |m - m*| - |s0 - m*| equals that difference (m, s0 and p lie on the
      same side of m* or p is m*), so D(m) - D(s0) >= 0.23 mag_step^2 >= 3.6 E,
      more than twice the d2 error: its computed d2 is above that of s0. The
      window thus holds the heading's least d2 and its first occurrence, and
      scanning it in order with the strict `<` keeps the earliest on ties.

    A blocked heading holds only a zero-speed entry. Each has the d2 of any
    other zero-speed entry, so only a blocked heading 0 can win; any later
    one ties with a value already reached. So heading 0's block decides the
    start, and any other heading's block is tested only once the skip test has
    let it through, just before its window: the skip test reads only the
    heading and best_d2, and a blocked heading leaves best_d2 as it was whether
    the skip or the block passes it over. Every open heading thus meets the
    same best_d2, in the same order, as a walk over the open headings alone.
    """
    nx, ny = v_desired.x, v_desired.y
    best = None
    if fset.grid is not None:
        best = _closest_on_grid(fset.grid, nx, ny)
    if best is None:
        best = _closest(fset.candidates, nx, ny)
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
    if not fset:
        return AvoidResult(Vec2(0.0, 0.0), engaged=True, empty_set=True)
    return AvoidResult(select_velocity(fset, v_a), engaged=True, empty_set=False)
